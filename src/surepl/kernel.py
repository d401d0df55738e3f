"""Gaussian kernel matrices and the mean pairwise distance bandwidth heuristic.

`gram_matrix` builds a full kernel matrix between two sets of rows.  Training
makes one pass over its pairwise distances: `packed_gram` writes their squares
in packed storage, takes the bandwidth from them and turns them into the Gram
matrix in place.  `_gaussian` is the one place the Gaussian formula is written.
`row_blocks` cuts a query-by-training matrix into the row blocks that query
scoring and PLKNN each build, use and free one at a time.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

from .data import check_sigma

__all__ = ["mean_pairwise_distance", "gram_matrix", "packed_gram"]

# columns of the packed array built per block of `cdist` tiles
PACK_WIDTH = 64
# largest row block of a query-by-training matrix that query scoring or PLKNN holds
ROW_BLOCK_BYTES = 2 * 2**20
# LAPACK's RFP layout arguments for every packed matrix: the lower triangle, not transposed
RFP = {"transr": "N", "uplo": "L"}


def _gaussian(sq: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-sq / (2 sigma^2)) in sq's buffer; an exponent overflowing to -inf gives 0."""
    check_sigma(sigma)
    with np.errstate(over="ignore"):
        sq /= -(2.0 * sigma * sigma)
    return np.exp(sq, out=sq)


def _packed_sqeuclidean(X: np.ndarray) -> np.ndarray:
    """The squared distances S of the rows of X with each other in RFP storage
    laid out as RFP says: a 1-D array of m (m + 1) / 2 entries.

    Read as the Fortran-ordered (m + e) x k array F, with k = (m + 1) // 2 and
    e = 1 for even m, 0 for odd m, column j < k holds S[j:, j] in rows j + e
    onwards, and above it the lower triangle of S[k:, k:] by rows: S[c, k:c + 1]
    in rows 0 to c - k, with c = k + j - 1 + e.  Each block of PACK_WIDTH
    columns takes two `cdist` tiles of PACK_WIDTH rows, so only O(m PACK_WIDTH)
    entries are held besides the result, and every entry has the bits of
    `cdist(X, X, "sqeuclidean")`'s: a pair's distance does not depend on the
    other rows of a call, nor on which of the pair is the row.
    """
    m = X.shape[0]
    k, e = (m + 1) // 2, 1 - m % 2
    S = np.empty(m * (m + 1) // 2)
    F = S.reshape(m + e, k, order="F")
    for j0 in range(0, k, PACK_WIDTH):
        j1 = min(j0 + PACK_WIDTH, k)
        # column j takes S[j, j0:] from row j0 + e; its first j - j0 entries, above
        # row j + e, are then overwritten with a row of S[k:, k:]
        F[j0 + e:, j0:j1] = cdist(X[j0:j1], X[j0:], "sqeuclidean").T
        c0, c1 = max(k + j0 - 1 + e, k), k + j1 - 1 + e
        rows = cdist(X[c0:c1], X[k:c1], "sqeuclidean")
        for c in range(c0, c1):
            F[:c - k + 1, c - k + 1 - e] = rows[c - c0, :c - k + 1]
    return S


def _mean_distance(S: np.ndarray, m: int) -> float:
    """Mean distance of m >= 2 rows from their packed squared distances S, in packed order."""
    n = m * PACK_WIDTH
    mean = math.fsum(np.sqrt(S[i:i + n]).sum() for i in range(0, S.size, n)) / (m * (m - 1) // 2)
    if mean <= 0.0:
        raise ValueError("degenerate bandwidth (zero mean distance)")
    return mean


def mean_pairwise_distance(X) -> float:
    """Mean Euclidean distance over all distinct unordered instance pairs.

    Raises if the mean is zero, which would make the Gaussian bandwidth
    degenerate.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least two instances")
    return _mean_distance(_packed_sqeuclidean(X), X.shape[0])


def gram_matrix(X_rows, X_cols, sigma: float) -> np.ndarray:
    """Gaussian kernel matrix: entry (i, j) = exp(-||x_i - x_j||^2 / (2 sigma^2)).

    Squared distances come from exact coordinate differences, so the square
    case has a unit diagonal exactly and is symmetric to machine precision.
    """
    X_rows = np.asarray(X_rows, dtype=np.float64)
    X_cols = np.asarray(X_cols, dtype=np.float64)
    if X_rows.ndim != 2 or X_cols.ndim != 2 or X_rows.shape[1] != X_cols.shape[1]:
        raise ValueError(f"dimension mismatch: {X_rows.shape} rows vs {X_cols.shape} columns")
    return _gaussian(cdist(X_rows, X_cols, "sqeuclidean"), sigma)


def row_blocks(rows: int, cols: int) -> list[slice]:
    """Row slices of a rows x cols float64 matrix, each within ROW_BLOCK_BYTES
    (or one row).

    The blocks are of near-equal size: a small remainder block could take a
    different BLAS kernel and round its scores differently.  They are small
    because once a freed block of 32 MiB or less has raised glibc's mmap
    threshold, later blocks of that size come from the heap and stay resident
    after they are freed.  Much smaller blocks (512 KiB) do change the bits
    of the scores, so ROW_BLOCK_BYTES stays at 1 MiB or above.
    """
    per_block = max(1, ROW_BLOCK_BYTES // (8 * cols))
    count = max(1, -(-rows // per_block))
    edges = [rows * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def packed_gram(X, sigma: float | None = None) -> tuple[np.ndarray, float]:
    """(K, sigma): the Gaussian Gram matrix of X with itself, packed as `dpftrf`
    takes it, with the bits of `gram_matrix(X, X, sigma)`, and its bandwidth:
    by default `mean_pairwise_distance(X)`, or 1 for one row (K = [[1]])."""
    S = _packed_sqeuclidean(np.asarray(X, dtype=np.float64))
    if sigma is None:
        sigma = 1.0 if len(X) == 1 else _mean_distance(S, len(X))
    return _gaussian(S, sigma), float(sigma)


def packed_diagonal(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of a packed matrix laid out as `_packed_sqeuclidean`'s, as
    two strided views of R: that of K[:k, :k], then that of K[k:, k:]."""
    m = (math.isqrt(8 * R.size + 1) - 1) // 2  # R.size = m (m + 1) / 2
    k, e = (m + 1) // 2, 1 - m % 2
    return R[e :: m + e + 1][:k], R[(1 - e) * (m + e) :: m + e + 1][: m - k]
