"""Gaussian kernel matrices and the mean pairwise distance bandwidth heuristic.

`gram_matrix` builds a full kernel matrix between two sets of rows, and is the
one place the Gaussian formula is written.  `packed_gram` builds the Gram
matrix of a set of rows with itself, which training factors, straight into
LAPACK's rectangular full packed (RFP) storage: one triangle, m (m + 1) / 2
entries, filled in column blocks of PACK_WIDTH from `gram_matrix` tiles, so
no m x m array is ever held.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist, pdist

__all__ = ["mean_pairwise_distance", "gram_matrix", "packed_gram"]

# columns of the packed Gram matrix built per block of `gram_matrix` tiles
PACK_WIDTH = 64
# LAPACK's RFP layout arguments for every packed matrix: the lower triangle, not transposed
RFP = {"transr": "N", "uplo": "L"}


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


def packed_gram(X, sigma: float) -> np.ndarray:
    """The Gaussian Gram matrix K of X with itself, in LAPACK's rectangular full
    packed storage laid out as RFP says: a 1-D array of m (m + 1) / 2 entries,
    the one `dpftrf` factors.

    Read as the Fortran-ordered (m + e) x k array F, with k = (m + 1) // 2 and
    e = 1 for even m, 0 for odd m, column j < k holds K[j:, j] in rows j + e
    onwards, and above it the lower triangle of K[k:, k:] by rows: K[c, k:c + 1]
    in rows 0 to c - k, with c = k + j - 1 + e.  Each block of PACK_WIDTH
    columns takes two `gram_matrix` tiles of PACK_WIDTH rows, so only
    O(m PACK_WIDTH) entries are held besides the result, and every entry has
    the bits of `gram_matrix(X, X, sigma)`'s: a pair's distance does not depend
    on the other rows of a call, nor on which of the pair is the row.
    """
    X = np.asarray(X, dtype=np.float64)
    m = X.shape[0]
    k, e = (m + 1) // 2, 1 - m % 2
    R = np.empty(m * (m + 1) // 2)
    F = R.reshape(m + e, k, order="F")
    for j0 in range(0, k, PACK_WIDTH):
        j1 = min(j0 + PACK_WIDTH, k)
        # column j takes K[j, j0:] from row j0 + e; its first j - j0 entries, above
        # row j + e, are then overwritten with a row of K[k:, k:]
        F[j0 + e:, j0:j1] = gram_matrix(X[j0:j1], X[j0:], sigma).T
        c0, c1 = max(k + j0 - 1 + e, k), k + j1 - 1 + e
        rows = gram_matrix(X[c0:c1], X[k:c1], sigma)
        for c in range(c0, c1):
            F[:c - k + 1, c - k + 1 - e] = rows[c - c0, :c - k + 1]
    return R


def packed_diagonal(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of a packed matrix laid out as `packed_gram`'s, as two
    strided views of R: that of K[:k, :k], then that of K[k:, k:]."""
    m = (math.isqrt(8 * R.size + 1) - 1) // 2  # R.size = m (m + 1) / 2
    k, e = (m + 1) // 2, 1 - m % 2
    return R[e :: m + e + 1][:k], R[(1 - e) * (m + e) :: m + e + 1][: m - k]
