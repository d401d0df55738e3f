"""The alternating training loop and prediction.

Each iteration refits the kernel ridge model against the current confidence
matrix P, scores the training set, and re-solves every row's confidence
program on those scores.  The scores of a fit (A, b) to P are K A + 1 b^T =
P - beta A (see `ridge.fit_kernel`), so the loop never reads K.  The loop
stops once the Frobenius change of P drops to the tolerance or the iteration
budget runs out.

`train_grid` is the one place that sets training up: one pass over the
pairwise distances (`kernel.packed_gram`) gives the bandwidth and the Gram
matrix K, in packed storage, so no m x m array is ever held; it factors the
ridge system once per beta, and runs every lambda of that beta in lockstep
through `_alternate`.  `train` is its single-point case and grid search calls
it once per fold.  The confidence matrices of the lambdas still running live
in one m x k x l array; memory layout is left to the ridge solve, whose fit
depends on values only.  The confidence update runs on each row's candidates
(`confidence._slots`), which `_alternate` lists again only when a lambda freezes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dnrm2

from .confidence import _slots, _update_rows
from .data import PLDataset, check_config, check_count, check_real, check_sigma
from .kernel import packed_gram
from .ridge import KernelModel, KernelRidgeSolver, model_outputs

__all__ = ["TrainConfig", "TrainTrace", "train", "predict"]

INIT_MODES = ("normalized", "literal")


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    lam:    weight of the largest-confidence reward in the row programs.
    beta:   ridge regularizer.
    tol:    Frobenius threshold on successive confidence matrices.
    init:   "normalized" starts from row-normalized candidate indicators;
            "literal" starts from the raw 0/1 indicators (only the first ridge
            fit sees them; the first row update restores feasibility).
    sigma_override: fixed kernel bandwidth; default is the exact mean
            pairwise distance heuristic.

    Training is deterministic given the dataset and the config.
    """

    lam: float = 0.3
    beta: float = 0.05
    max_iter: int = 100
    tol: float = 1e-3
    init: str = "normalized"
    sigma_override: float | None = None

    def __post_init__(self):
        check_real(self.lam, "lam")
        check_real(self.beta, "beta", positive=True)
        check_count(self.max_iter, "max_iter", 1)
        check_real(self.tol, "tol", positive=True)
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}")
        if self.sigma_override is not None:
            check_sigma(self.sigma_override, "sigma_override")


@dataclass(frozen=True)
class TrainTrace:
    """Per-iteration Frobenius changes of the confidence matrix."""

    delta_p: tuple[float, ...]
    iterations_run: int
    converged: bool

    def __post_init__(self):
        if len(self.delta_p) != self.iterations_run:
            raise ValueError("trace length must equal iterations_run")


def _alternate(solver: KernelRidgeSolver, d: PLDataset, lams, cfg: TrainConfig) -> list:
    """The alternating loop for every lam in `lams` at once, on one factored
    ridge system; cfg supplies init, max_iter and tol.  Returns one
    (A, b, P, trace) per lam, in order.

    The confidence matrices of the k lams still running live in one
    m x k x l array P, so P[:, i] is the i-th live lam's matrix.  Read as
    m x (k l) it is their blocks side by side, the right-hand side of one
    ridge solve (a reshape, not a copy); its m k rows of l labels, one per
    example and lam, go through one confidence update on the slots of the
    candidate mask repeated k times, built again only when a lam freezes.
    A lam freezes once its own change drops to the tolerance, so it runs the
    iterations it would run alone.  Its A may differ from a solve of its own
    matrix by round-off (a multi-column triangular solve blocks its work
    differently); with one lam the loop is exactly the single fit.
    """
    m, l = d.m, d.l
    mask = d.candidates.astype(bool)  # PLDataset guarantees 0/1 rows, none empty
    Y = d.candidates.astype(np.float64)
    P = Y / Y.sum(axis=1, keepdims=True) if cfg.init == "normalized" else Y
    lams = np.asarray(lams, dtype=np.float64)
    live = np.arange(lams.size)
    P = np.repeat(P[:, None], lams.size, axis=1)  # P[:, i] is lams[live[i]]'s matrix
    deltas: list[list[float]] = [[] for _ in live]
    fits: list = [None] * lams.size
    k = 0
    for it in range(cfg.max_iter):
        if live.size != k:  # the first iteration, or a lam froze
            k = live.size
            slots, row_lams = _slots(np.repeat(mask, k, axis=0)), np.tile(lams[live], m)
        A, b = solver.solve(P.reshape(m, k * l))
        A, b = A.reshape(m, k, l), b.reshape(k, l)
        P_new = _update_rows(P - solver.beta * A, slots, row_lams)
        # each lam's change as one contiguous l x m block, so scipy's BLAS, like every
        # other BLAS call in the loop (see ridge.py), reads it in one fixed order
        D = np.ascontiguousarray((P_new - P).transpose(1, 2, 0))
        keep = []
        for i, lam_id in enumerate(live):
            delta = float(dnrm2(D[i].ravel()))
            deltas[lam_id].append(delta)
            if delta <= cfg.tol or it == cfg.max_iter - 1:
                trace = TrainTrace(tuple(deltas[lam_id]), it + 1, delta <= cfg.tol)
                fits[lam_id] = (A[:, i], b[i], P_new[:, i], trace)
            else:
                keep.append(i)
        if not keep:
            break
        P, live = P_new.take(keep, axis=1), live[keep]  # C order: the reshapes stay views
    return fits


def train_grid(d: PLDataset, lams, betas, base: TrainConfig) -> list[list[tuple]]:
    """Train every (lam, beta) on d; returns (model, final confidence matrix,
    trace) for each, indexed [beta][lam] in the order given.

    base supplies every setting but lam and beta.  Every point is checked as
    a TrainConfig before any work is done.  The bandwidth and the packed K
    come from one distance pass, the ridge system is factored once per beta,
    and that beta's lambdas run in lockstep on its factor (see `_alternate`).
    Deterministic given the dataset and the arguments.
    """
    check_config(base, TrainConfig, "base")
    if not [replace(base, lam=lam, beta=beta) for beta in betas for lam in lams]:
        raise ValueError("grids must be nonempty")
    X = d.features
    K, sigma = packed_gram(X, base.sigma_override)
    # solvers factor over the packed K they get: an unnamed copy, and K itself for the last beta
    return [[(KernelModel(X, A, b, sigma), P, trace)
             for A, b, P, trace in _alternate(
                 KernelRidgeSolver(K.copy() if i < len(betas) - 1 else K, beta), d, lams, base)]
            for i, beta in enumerate(betas)]


def train(d: PLDataset, cfg: TrainConfig) -> tuple[KernelModel, np.ndarray, TrainTrace]:
    """Run the alternating loop; returns (model, final confidence matrix, trace).

    Deterministic given the dataset and cfg.
    """
    check_config(cfg, TrainConfig, "cfg")
    [[fit]] = train_grid(d, [cfg.lam], [cfg.beta], cfg)
    return fit


def predict(model: KernelModel, X_query) -> np.ndarray:
    """Predicted 0-based labels: per-row argmax of the scores, ties to the lowest."""
    return np.argmax(model_outputs(model, X_query), axis=1)
