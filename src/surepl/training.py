"""The alternating training loop and prediction.

Each iteration refits the kernel ridge model against the current confidence
matrix P, scores the training set, and re-solves every row's confidence
program on those scores.  The scores of a fit (A, b) to P are K A + 1 b^T =
P - beta A (see `ridge.fit_kernel`), so the loop never reads K.  The loop
stops once the Frobenius change of P drops to the tolerance or the iteration
budget runs out.

`train_grid` is the one place that sets training up: it takes the bandwidth
and the Gram matrix K once, in packed storage (`kernel.packed_gram`), so no
m x m array is ever held; it factors the ridge system once per beta, and runs
every lambda of that beta in lockstep through `_alternate`.  `train` is its
single-point case and grid search calls it once per fold.  The confidence
matrices of the lambdas still running live in one m x k x l array; memory
layout is left to the ridge solve, whose fit depends on values only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dnrm2

from .confidence import _update_rows
from .data import PLDataset
from .kernel import mean_pairwise_distance, packed_gram, usable_sigma
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
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        if not 0 < self.beta < np.inf:
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}")
        if self.sigma_override is not None and not usable_sigma(self.sigma_override):
            raise ValueError("sigma_override must be finite and positive with 2 sigma^2 > 0, "
                             f"got {self.sigma_override}")


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
    ridge solve; read as (m k) x l it is one row per example and lam, the
    input of one confidence update.  Both are reshapes, not copies.  A lam
    freezes once its own change drops to the tolerance, so it runs the
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
    for it in range(cfg.max_iter):
        k = live.size
        A, b = solver.solve(P.reshape(m, k * l))
        A, b = A.reshape(m, k, l), b.reshape(k, l)
        Q = P - solver.beta * A
        P_new = _update_rows(Q.reshape(m * k, l), np.repeat(mask, k, axis=0),
                             np.tile(lams[live], m)).reshape(m, k, l)
        keep = []
        for i, lam_id in enumerate(live):
            # scipy's BLAS, like every other BLAS call in the loop (see ridge.py),
            # over the entries in one fixed (column-major) order
            delta = float(dnrm2((P_new[:, i] - P[:, i]).ravel(order="F")))
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
    are taken once, the ridge system is factored once per beta, and that
    beta's lambdas run in lockstep on its factor (see `_alternate`).
    Deterministic given the dataset and the arguments.
    """
    if not [replace(base, lam=lam, beta=beta) for beta in betas for lam in lams]:
        raise ValueError("grids must be nonempty")
    X = d.features
    if base.sigma_override is not None:
        sigma = float(base.sigma_override)
    else:  # one instance has no pairwise distances; its 1x1 Gram matrix is [[1]] for any sigma
        sigma = 1.0 if d.m == 1 else mean_pairwise_distance(X)
    K = packed_gram(X, sigma)
    # solvers factor over the packed K they get: an unnamed copy, and K itself for the last beta
    return [[(KernelModel(X, A, b, sigma), P, trace)
             for A, b, P, trace in _alternate(
                 KernelRidgeSolver(K.copy() if i < len(betas) - 1 else K, beta), d, lams, base)]
            for i, beta in enumerate(betas)]


def train(d: PLDataset, cfg: TrainConfig) -> tuple[KernelModel, np.ndarray, TrainTrace]:
    """Run the alternating loop; returns (model, final confidence matrix, trace).

    Deterministic given the dataset and cfg.
    """
    [[fit]] = train_grid(d, [cfg.lam], [cfg.beta], cfg)
    return fit


def predict(model: KernelModel, X_query) -> np.ndarray:
    """Predicted 0-based labels: per-row argmax of the scores, ties to the lowest."""
    return np.argmax(model_outputs(model, X_query), axis=1)
