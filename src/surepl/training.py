"""The alternating training loop and prediction.

Each iteration refits the kernel ridge model against the current confidence
matrix P, scores the training set, and re-solves every row's confidence
program on those scores.  The loop stops once the Frobenius change of P drops
to the tolerance or the iteration budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dnrm2

from .confidence import _update_rows
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


def train(d: PLDataset, cfg: TrainConfig) -> tuple[KernelModel, np.ndarray, TrainTrace]:
    """Run the alternating loop; returns (model, final confidence matrix, trace).

    Deterministic given the dataset and cfg.  A single-instance dataset has no
    pairwise distances, so without an override the bandwidth falls back to 1.0
    (the 1x1 Gram matrix is [[1]] for any bandwidth).
    """
    X = d.features
    mask = d.candidates.astype(bool)  # PLDataset guarantees 0/1 rows, none empty
    Y = d.candidates.astype(np.float64)
    if cfg.sigma_override is not None:
        sigma = float(cfg.sigma_override)
    elif d.m == 1:
        sigma = 1.0
    else:
        sigma = mean_pairwise_distance(X)
    K = gram_matrix(X, X, sigma)
    solver = KernelRidgeSolver(K, cfg.beta)

    if cfg.init == "normalized":
        P = Y / Y.sum(axis=1, keepdims=True)
    else:
        P = Y.copy()

    deltas: list[float] = []
    converged = False
    A = np.zeros((d.m, d.l))
    b = np.zeros(d.l)
    for _ in range(cfg.max_iter):
        A, b = solver.solve(P)
        P_new = _update_rows(solver.outputs(A, b), mask, cfg.lam)
        # scipy's BLAS, like every other BLAS call in the loop (see ridge.py)
        delta = float(dnrm2((P_new - P).ravel(order="K")))
        deltas.append(delta)
        P = P_new
        if delta <= cfg.tol:
            converged = True
            break
    model = KernelModel(X, A, b, sigma)
    return model, P, TrainTrace(tuple(deltas), len(deltas), converged)


def predict(model: KernelModel, X_query) -> np.ndarray:
    """Predicted 0-based labels: per-row argmax of the scores, ties to the lowest."""
    return np.argmax(model_outputs(model, X_query), axis=1)
