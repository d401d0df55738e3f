"""surepl: partial-label learning by self-guided retraining.

Trains a kernel ridge model and a row-stochastic label-confidence matrix
jointly by alternating minimization; each confidence row is the solution of a
small quadratic program that rewards the largest candidate confidence, pushing
rows toward vertices of the candidate simplex.  Ships with a controlled
synthetic corruption generator, a PLKNN baseline, and a reproducible
cross-validation harness with a CLI.
"""

from .baselines import KnnConfig, plknn_predict
from .confidence import (
    ConfidenceVector,
    InfeasibleSupportError,
    QPResult,
    oracle_project,
    solve_op_exact,
    solve_opi,
    solve_ops,
    update_confidence_matrix,
)
from .data import (
    PLDataset,
    PldFormatError,
    SyntheticSpec,
    corrupt,
    load_dataset,
    save_dataset,
    split_folds,
)
from .harness import (
    ExperimentReport,
    GridSearchResult,
    TTestResult,
    accuracy,
    cross_validate,
    grid_search,
    mae_at_k,
    make_blobs_dataset,
    nested_cross_validate,
    t_test_two_sample,
)
from .kernel import gram_matrix, mean_pairwise_distance
from .ridge import (
    KernelModel,
    LinearModel,
    SingularSystemError,
    fit_kernel,
    fit_linear,
    load_model,
    model_outputs,
    save_model,
)
from .training import TrainConfig, TrainTrace, predict, train

__version__ = "0.1.0"

__all__ = [
    "ConfidenceVector",
    "ExperimentReport",
    "GridSearchResult",
    "InfeasibleSupportError",
    "KernelModel",
    "KnnConfig",
    "LinearModel",
    "PLDataset",
    "PldFormatError",
    "QPResult",
    "SingularSystemError",
    "SyntheticSpec",
    "TTestResult",
    "TrainConfig",
    "TrainTrace",
    "accuracy",
    "corrupt",
    "cross_validate",
    "fit_kernel",
    "fit_linear",
    "gram_matrix",
    "grid_search",
    "load_dataset",
    "load_model",
    "mae_at_k",
    "make_blobs_dataset",
    "mean_pairwise_distance",
    "model_outputs",
    "nested_cross_validate",
    "oracle_project",
    "plknn_predict",
    "predict",
    "save_dataset",
    "save_model",
    "solve_op_exact",
    "solve_opi",
    "solve_ops",
    "split_folds",
    "t_test_two_sample",
    "train",
    "update_confidence_matrix",
]
