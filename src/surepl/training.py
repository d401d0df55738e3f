"""The alternating training loop and prediction.

Each iteration refits the kernel ridge model against the current confidence
matrix P, scores the training set, and re-solves every row's confidence
program on those scores.  The loop stops once the Frobenius change of P drops
to the tolerance or the iteration budget runs out.  One loop, `_alternate`,
runs any number of lambdas in lockstep on one ridge factor; `train` is its
single-lambda case and grid search its many-lambda one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dnrm2

from .confidence import _template, _update_rows
from .data import PLDataset
from .kernel import gram_matrix, mean_pairwise_distance
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
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}")
        if self.sigma_override is not None and not self.sigma_override > 0:
            raise ValueError("sigma_override must be positive")


@dataclass(frozen=True)
class TrainTrace:
    """Per-iteration Frobenius changes of the confidence matrix."""

    delta_p: tuple[float, ...]
    iterations_run: int
    converged: bool

    def __post_init__(self):
        if len(self.delta_p) != self.iterations_run:
            raise ValueError("trace length must equal iterations_run")


def _bandwidth(X: np.ndarray, sigma_override: float | None) -> float:
    """The override, else the exact mean pairwise distance.

    A single instance has no pairwise distances, so its bandwidth falls back
    to 1.0 (the 1x1 Gram matrix is [[1]] for any bandwidth).
    """
    if sigma_override is not None:
        return float(sigma_override)
    if X.shape[0] == 1:
        return 1.0
    return mean_pairwise_distance(X)


def _row_stack(Q: np.ndarray, k: int) -> np.ndarray:
    """m x (k*l) column blocks as (k*m) x l row blocks; Q itself when k = 1."""
    m = Q.shape[0]
    return Q.T.reshape(k, -1, m).transpose(0, 2, 1).reshape(k * m, -1)


def _col_stack(P: np.ndarray, k: int) -> np.ndarray:
    """(k*m) x l row blocks as m x (k*l) column blocks in Fortran order, so
    each block is Fortran-contiguous; P itself when k = 1 and P is Fortran."""
    km, l = P.shape
    return P.reshape(k, km // k, l).transpose(0, 2, 1).reshape(k * l, km // k).T


def _alternate(solver: KernelRidgeSolver, d: PLDataset, lams, cfg: TrainConfig) -> list:
    """The alternating loop for every lam in `lams` at once, on one factored
    ridge system; cfg supplies init, max_iter and tol.  Returns one
    (A, b, P, trace) per lam, in order.

    Each iteration makes one ridge solve on the column-stacked confidence
    matrices of the lams still running, one scoring call, and one confidence
    update on the row-stacked scores, with one lam per row.  A lam's block
    freezes once its own change drops to the tolerance, so it runs the
    iterations it would run alone.  Its A may differ from a solve of its own
    block by round-off (a multi-column triangular solve blocks its work
    differently); with one lam the loop is exactly the single fit.

    Every block reaches `solve` and `dnrm2` Fortran-ordered, like the scores
    it came from: numpy sums the columns of a Fortran array pairwise and
    those of a C array row by row, so the order moves the fit's bits.
    """
    m, l = d.m, d.l
    mask = d.candidates.astype(bool)  # PLDataset guarantees 0/1 rows, none empty
    Y = d.candidates.astype(np.float64)
    P = Y / Y.sum(axis=1, keepdims=True) if cfg.init == "normalized" else Y.copy()
    lams = np.asarray(lams, dtype=np.float64)
    live = list(range(lams.size))
    P = np.tile(P, (1, lams.size))  # C-ordered like P, so each column sums alike
    template = _template(np.tile(mask, (lams.size, 1)))  # its first k*m rows serve k blocks
    deltas: list[list[float]] = [[] for _ in live]
    fits: list = [None] * lams.size
    for it in range(cfg.max_iter):
        k = len(live)
        A, b = solver.solve(P)
        Q = _row_stack(solver.outputs(A, b), k)
        P_new = _col_stack(_update_rows(Q, template[: k * m], np.repeat(lams[live], m)), k)
        keep = []
        for i, lam_id in enumerate(live):
            blk = slice(i * l, (i + 1) * l)
            # scipy's BLAS, like every other BLAS call in the loop (see ridge.py)
            delta = float(dnrm2((P_new[:, blk] - P[:, blk]).ravel(order="K")))
            deltas[lam_id].append(delta)
            if delta <= cfg.tol or it == cfg.max_iter - 1:
                trace = TrainTrace(tuple(deltas[lam_id]), it + 1, delta <= cfg.tol)
                fits[lam_id] = (A[:, blk], b[blk], P_new[:, blk], trace)
            else:
                keep.append(i)
        if not keep:
            break
        if len(keep) < k:
            cols = np.concatenate([np.arange(i * l, (i + 1) * l) for i in keep])
            P_new = P_new.T[cols].T  # the kept blocks, still Fortran-ordered
            live = [live[i] for i in keep]
        P = P_new
    return fits


def train(d: PLDataset, cfg: TrainConfig) -> tuple[KernelModel, np.ndarray, TrainTrace]:
    """Run the alternating loop; returns (model, final confidence matrix, trace).

    Deterministic given the dataset and cfg.
    """
    X = d.features
    sigma = _bandwidth(X, cfg.sigma_override)
    K = gram_matrix(X, X, sigma)
    [(A, b, P, trace)] = _alternate(KernelRidgeSolver(K, cfg.beta), d, [cfg.lam], cfg)
    return KernelModel(X, A, b, sigma), P, trace


def predict(model: KernelModel, X_query) -> np.ndarray:
    """Predicted 0-based labels: per-row argmax of the scores, ties to the lowest."""
    return np.argmax(model_outputs(model, X_query), axis=1)
