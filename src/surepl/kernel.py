"""Gaussian kernel matrices and the mean pairwise distance bandwidth heuristic."""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist

__all__ = ["mean_pairwise_distance", "gram_matrix"]


def usable_sigma(sigma) -> bool:
    """Whether sigma is a Gaussian bandwidth: positive and finite, with 2 sigma^2
    > 0, so the kernel's exponent divides by a nonzero number."""
    return 0 < sigma < np.inf and 2.0 * sigma * sigma > 0


def mean_pairwise_distance(X) -> float:
    """Mean Euclidean distance over all distinct unordered instance pairs.

    Raises if the mean is zero, which would make the Gaussian bandwidth
    degenerate.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least two instances")
    mean = float(pdist(X).mean())
    if mean <= 0.0:
        raise ValueError("degenerate bandwidth (zero mean distance)")
    return mean


def gram_matrix(X_rows, X_cols, sigma: float) -> np.ndarray:
    """Gaussian kernel matrix: entry (i, j) = exp(-||x_i - x_j||^2 / (2 sigma^2)).

    Squared distances come from exact coordinate differences, so the square
    case has a unit diagonal exactly and is symmetric to machine precision.
    """
    if not usable_sigma(sigma):
        raise ValueError(f"sigma must be finite and positive with 2 sigma^2 > 0, got {sigma}")
    X_rows = np.asarray(X_rows, dtype=np.float64)
    X_cols = np.asarray(X_cols, dtype=np.float64)
    if X_rows.ndim != 2 or X_cols.ndim != 2 or X_rows.shape[1] != X_cols.shape[1]:
        raise ValueError(
            f"dimension mismatch: {X_rows.shape} rows vs {X_cols.shape} columns"
        )
    # scaled and exponentiated in place, so K is the only m x n array held;
    # a quotient that overflows to -inf is an entry that exp makes exactly 0
    sq = cdist(X_rows, X_cols, "sqeuclidean")
    with np.errstate(over="ignore"):
        sq /= -(2.0 * sigma * sigma)
    return np.exp(sq, out=sq)
