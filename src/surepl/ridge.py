"""Closed-form ridge fits of the confidence matrix, linear and kernelized.

Both fits minimize a squared loss against the confidence matrix P plus a
ridge penalty, with an unpenalized bias row.  Eliminating the bias leaves a
single dense linear system, symmetric positive definite once written with
the centering matrix H = I - 1 1^T / m: (X^T H X + beta I) W = X^T H P and
(H K H + beta I) A = H P.  Both are solved through a Cholesky factor, and a
1-norm condition estimate guards against effectively singular systems.

`fit_linear` and `fit_kernel` check outside input once, at entry.  Training
factors the kernel system, constant across its iterations, once in a
`KernelRidgeSolver` and re-solves it for each new P; that solver trusts the
K, beta and P training gives it and checks none of them.  It builds
H K H + beta I in K's own row order and hands LAPACK the transpose, a
Fortran view, to factor in place; for a symmetric K that view is the same
matrix bit for bit.  The solver keeps no K: a fit's training-set scores are
P - beta A (see `fit_kernel`).  Each solve copies P once into Fortran order,
so a fit depends on P's values and not on its memory layout.

`model_outputs` is the one query scorer: it builds and scores the query Gram
matrix one row block of at most SCORE_BLOCK_BYTES at a time, so it never
holds the whole of it.  All of that runs in scipy's BLAS/LAPACK: numpy and
scipy may each bundle their own threaded BLAS, and alternating between the
two makes their worker threads compete for the same cores.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, get_lapack_funcs
from scipy.linalg.blas import dgemm, dgemv

from .data import FileFormatError, check_query, format_float, parse_floats, read_lines, write_lines
from .kernel import gram_matrix, usable_sigma

__all__ = [
    "KernelModel",
    "SingularSystemError",
    "fit_linear",
    "fit_kernel",
    "model_outputs",
    "save_model",
    "load_model",
]

MODEL_MAGIC = "sure-model 1"
RCOND_FLOOR = 1e-13
SYMMETRY_TOL = 1e-8
# largest row block of a query Gram matrix that query scoring holds at once
SCORE_BLOCK_BYTES = 16 * 2**20


class SingularSystemError(np.linalg.LinAlgError):
    """The ridge system matrix is singular to working precision."""


@dataclass(frozen=True)
class KernelModel:
    """Kernel scorer keeping the training instances and combination weights.

    Scores a query row x as sum_i A[i] * k(x, x_i) + b with the Gaussian
    kernel of bandwidth sigma.
    """

    train_X: np.ndarray
    A: np.ndarray
    b: np.ndarray
    sigma: float

    def __post_init__(self):
        X = np.asarray(self.train_X, dtype=np.float64)
        A = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if X.ndim != 2 or A.ndim != 2 or A.shape[0] != X.shape[0]:
            raise ValueError("A must have one row per training instance")
        if b.shape != (A.shape[1],):
            raise ValueError("b must have one entry per label")
        if not (np.isfinite(X).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("model parameters must be finite")
        if not usable_sigma(self.sigma):
            raise ValueError(
                f"sigma must be finite and positive with 2 sigma^2 > 0, got {self.sigma}"
            )
        for arr in (X, A, b):
            arr.setflags(write=False)
        object.__setattr__(self, "train_X", X)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sigma", float(self.sigma))


def _cholesky_with_cond(M: np.ndarray, what: str):
    """Cholesky factor of the symmetric matrix M (overwritten) and its rcond.

    A matrix that is not positive definite has no Cholesky factor; it is
    reported like a singular one, with a condition estimate of zero.  M is
    not scanned for infs or NaNs: the fits build it from input checked at
    their entry.
    """
    lange, pocon = get_lapack_funcs(("lange", "pocon"), (M,))
    anorm = lange("1", M)  # reads M in place, with no m x m temporary
    try:
        factor = cho_factor(M, overwrite_a=True, check_finite=False)
    except LinAlgError:
        rcond, info = 0.0, 0
    else:
        rcond, info = pocon(factor[0], anorm)  # upper factor, as cho_factor returns by default
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise SingularSystemError(
            f"singular {what} system matrix (reciprocal 1-norm condition estimate {rcond:.3e})"
        )
    return factor, float(rcond)


def fit_linear(X, P, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form minimizer of ||X W + 1 b^T - P||_F^2 + beta ||W||_F^2.

    W = (X^T H X + beta I)^(-1) X^T H P with H = I - 1 1^T / m,
    b = (P^T 1 - W^T X^T 1) / m.
    """
    X = np.asarray(X, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    if X.ndim != 2 or P.ndim != 2 or X.shape[0] != P.shape[0]:
        raise ValueError("X and P must be 2-D with matching row counts")
    if not (np.isfinite(X).all() and np.isfinite(P).all()):
        raise ValueError("X and P must be finite")
    if not 0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    m, n = X.shape
    xsum = X.sum(axis=0)
    psum = P.sum(axis=0)
    M = X.T @ X + beta * np.eye(n) - np.outer(xsum, xsum) / m
    rhs = X.T @ P - np.outer(xsum, psum) / m
    factor, _ = _cholesky_with_cond(M, "linear ridge")
    W = cho_solve(factor, rhs)
    b = (psum - W.T @ xsum) / m
    return W, b


def _max_asymmetry(K: np.ndarray) -> float:
    """max |K - K^T|, compared in 512 x 512 tile pairs so the transposed reads
    stay within cache and no m x m temporary is made."""
    m = K.shape[0]
    asym = 0.0
    for i in range(0, m, 512):
        for j in range(i, m, 512):
            d = K[i : i + 512, j : j + 512] - K[j : j + 512, i : i + 512].T
            asym = max(asym, float(np.abs(d, out=d).max()))
    return asym


class KernelRidgeSolver:
    """Factors the kernel ridge system once; solve() refits for any P.

    Checks nothing: its caller gives a symmetric float64 K, beta > 0 and
    finite P's of m rows, as training does.  `fit_kernel` checks outside input.
    """

    def __init__(self, K: np.ndarray, beta: float):
        m = K.shape[0]
        self.m = m
        self.beta = float(beta)
        self.ksum = K.sum(axis=0)  # K^T 1 == K 1 for a symmetric K
        # H K H = K - r 1^T - 1 r^T + mean(K) 1 1^T with r = K 1 / m, built in
        # K's order; its transpose is a Fortran view that LAPACK factors in place
        r = self.ksum / m
        M = np.subtract(K, r[:, None])
        M -= r
        M += r.mean()
        M.flat[:: m + 1] += beta
        self._factor, self.rcond = _cholesky_with_cond(M.T, "kernel ridge")

    def solve(self, P) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) for the confidence matrix P; depends on P's values only.

        P is copied once into Fortran order, the layout LAPACK solves in, so
        its column sums and the solve run alike for any input layout.  The
        training-set scores K A + 1 b^T of the result equal P - beta A (see
        `fit_kernel`), so no solve needs K again.
        """
        R = np.array(P, dtype=np.float64, order="F")
        psum = R.sum(axis=0)
        R -= psum / self.m
        A = cho_solve(self._factor, R, overwrite_b=True, check_finite=False)
        b = (psum - dgemv(1.0, A, self.ksum, trans=1)) / self.m
        return A, b


def fit_kernel(K, P, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form minimizer of ||K A + 1 b^T - P||_F^2 + beta tr(A^T K A).

    A = (H K H + beta I)^(-1) H P with H = I - 1 1^T / m,
    b = (P^T 1 - A^T K^T 1) / m.

    For symmetric K this is the solution of the stationarity condition
    (H K + beta I) A = H P: multiplying it by 1^T gives beta 1^T A = 0, so
    A = H A and H K A = H K H A.  The fitted training-set scores are then
    K A + 1 b^T = P - beta A: b gives them P's column means, and the
    condition reads H (K A - P) = -beta A.

    Checks K (square, finite, symmetric to SYMMETRY_TOL), 0 < beta < inf and
    P (finite, one row per row of K) once, then fits through
    `KernelRidgeSolver`.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K must be square")
    if not np.isfinite(K).all():
        raise ValueError("K must be finite")
    if not 0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    asym = _max_asymmetry(K)
    if asym > SYMMETRY_TOL:
        raise ValueError(f"kernel matrix asymmetric: max |K - K^T| = {asym:.3e}")
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != K.shape[0]:
        raise ValueError("P must have one row per training instance")
    if not np.isfinite(P).all():
        raise ValueError("P must be finite")
    return KernelRidgeSolver(K, beta).solve(P)


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """Row slices of a rows x cols float64 matrix, each within SCORE_BLOCK_BYTES
    (or one row).

    The blocks are of near-equal size: a small remainder block could take a
    different BLAS kernel and round its scores differently.
    """
    per_block = max(1, SCORE_BLOCK_BYTES // (8 * cols))
    count = max(1, -(-rows // per_block))
    edges = [rows * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def model_outputs(model: KernelModel, X_query) -> np.ndarray:
    """Score matrix for query rows: gram(X_query, train_X) @ A + b.

    The query Gram matrix is built and scored one row block at a time, one
    dgemm each.  A block's transpose is a Fortran-ordered view, so dgemm
    reads it without a copy; the block is never named, so it is freed before
    the next one is built.
    """
    X = model.train_X
    X_query = check_query(X_query, X.shape[1])
    out = np.empty((X_query.shape[0], model.A.shape[1]))
    for s in _row_blocks(X_query.shape[0], X.shape[0]):
        out[s] = dgemm(1.0, gram_matrix(X_query[s], X, model.sigma).T, model.A, trans_a=True)
    out += model.b
    return out


def save_model(model: KernelModel, path) -> None:
    """Versioned text serialization; floats use shortest round-trip decimals."""
    m, n = model.train_X.shape
    l = model.A.shape[1]
    lines = [MODEL_MAGIC, f"{m} {n} {l} {format_float(model.sigma)}"]
    for block in (model.train_X, model.A, model.b[None, :]):
        lines.extend(" ".join(map(format_float, row)) for row in block.tolist())
    write_lines(path, lines)


def load_model(path) -> KernelModel:
    """Parse a model file; malformed input raises FileFormatError naming the line."""
    lines = read_lines(path)
    if not lines or lines[0] != MODEL_MAGIC:
        raise FileFormatError(f"not a model file: expected header {MODEL_MAGIC!r}", 1)
    try:
        m, n, l, sigma = (lines[1] if len(lines) > 1 else "").split()
        m, n, l, sigma = int(m), int(n), int(l), float(sigma)
    except ValueError as exc:
        raise FileFormatError(
            f"malformed model header ({exc}): expected '<m> <n> <l> <sigma>'", 2
        ) from None
    if min(m, n, l) < 1 or not usable_sigma(sigma):
        raise FileFormatError(
            f"malformed model header: sizes must be >= 1 and sigma finite and positive "
            f"with 2 sigma^2 > 0, got {lines[1]!r}", 2
        )
    if len(lines) != 2 * m + 3:
        raise FileFormatError(
            f"dimension mismatch: header declares {m} rows, so {2 * m + 3} lines, "
            f"file has {len(lines)}", 2
        )

    def rows(start, stop, width, what):
        flat = array("d")  # float64 rows, without a Python float per value
        for i in range(start, stop):
            flat.extend(parse_floats(lines[i].split(), width, i + 1, what))
        return np.frombuffer(flat).reshape(stop - start, width)

    X = rows(2, m + 2, n, "features")
    A = rows(m + 2, 2 * m + 2, l, "weights")
    b = rows(2 * m + 2, 2 * m + 3, l, "biases")[0]
    return KernelModel(X, A, b, sigma)
