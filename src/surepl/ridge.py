"""Closed-form ridge fits of the confidence matrix, linear and kernelized.

Both fits minimize a squared loss against the confidence matrix P plus a
ridge penalty, with an unpenalized bias row.  Eliminating the bias leaves a
single dense linear system, symmetric positive definite once written with
the centering matrix H = I - 1 1^T / m: (X^T H X + beta I) W = X^T H P and
(H K H + beta I) A = H P.  Both are solved through a Cholesky factor, and a
1-norm condition estimate guards against effectively singular systems.

The kernel system matrix is constant across alternating-minimization
iterations, so `KernelRidgeSolver` factors it once, re-solves for each new P
and scores the training set.  All of that runs in scipy's BLAS/LAPACK: numpy
and scipy may each bundle their own threaded BLAS, and alternating between
the two makes their worker threads compete for the same cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, get_lapack_funcs
from scipy.linalg.blas import dgemm, dgemv

from .kernel import gram_matrix

__all__ = [
    "LinearModel",
    "KernelModel",
    "SingularSystemError",
    "KernelRidgeSolver",
    "fit_linear",
    "fit_kernel",
    "model_outputs",
    "save_model",
    "load_model",
]

MODEL_MAGIC = "sure-model 1"
RCOND_FLOOR = 1e-13
SYMMETRY_TOL = 1e-8


class SingularSystemError(np.linalg.LinAlgError):
    """The ridge system matrix is singular to working precision."""


@dataclass(frozen=True)
class LinearModel:
    """Linear scorer x -> W^T x + b with W (n, l) and b (l,)."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if W.ndim != 2 or b.shape != (W.shape[1],):
            raise ValueError("W must be (n, l) and b (l,)")
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValueError("model parameters must be finite")
        for arr in (W, b):
            arr.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)


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
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        for arr in (X, A, b):
            arr.setflags(write=False)
        object.__setattr__(self, "train_X", X)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sigma", float(self.sigma))


def _cholesky_with_cond(M: np.ndarray, what: str):
    """Cholesky factor of the symmetric matrix M (overwritten) and its rcond.

    A matrix that is not positive definite has no Cholesky factor; it is
    reported like a singular one, with a condition estimate of zero.
    """
    anorm = np.linalg.norm(M, 1)
    try:
        factor = cho_factor(M, overwrite_a=True)
    except LinAlgError:
        rcond, info = 0.0, 0
    else:
        pocon = get_lapack_funcs(("pocon",), (factor[0],))[0]
        rcond, info = pocon(factor[0], anorm)  # upper factor, as cho_factor returns by default
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise SingularSystemError(
            f"singular {what} system matrix (reciprocal 1-norm condition estimate {rcond:.3e})"
        )
    return factor, float(rcond)


def fit_linear(X, P, beta: float) -> LinearModel:
    """Closed-form minimizer of ||X W + 1 b^T - P||_F^2 + beta ||W||_F^2.

    W = (X^T H X + beta I)^(-1) X^T H P with H = I - 1 1^T / m,
    b = (P^T 1 - W^T X^T 1) / m.
    """
    X = np.asarray(X, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    if X.ndim != 2 or P.ndim != 2 or X.shape[0] != P.shape[0]:
        raise ValueError("X and P must be 2-D with matching row counts")
    if not beta > 0:
        raise ValueError("beta must be positive")
    m, n = X.shape
    xsum = X.sum(axis=0)
    psum = P.sum(axis=0)
    M = X.T @ X + beta * np.eye(n) - np.outer(xsum, xsum) / m
    rhs = X.T @ P - np.outer(xsum, psum) / m
    factor, _ = _cholesky_with_cond(M, "linear ridge")
    W = cho_solve(factor, rhs)
    b = (psum - W.T @ xsum) / m
    return LinearModel(W, b)


class KernelRidgeSolver:
    """Factors the kernel ridge system once; solve() refits for any P and
    outputs() scores the training set."""

    def __init__(self, K, beta: float):
        K = np.asarray(K, dtype=np.float64)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError("K must be square")
        if not beta > 0:
            raise ValueError("beta must be positive")
        # the buffer later holds H K H + beta I; Fortran order lets LAPACK factor it in place
        M = np.subtract(K, K.T, order="F")
        asym = float(np.abs(M, out=M).max())
        if asym > SYMMETRY_TOL:
            raise ValueError(f"kernel matrix asymmetric: max |K - K^T| = {asym:.3e}")
        m = K.shape[0]
        self.m = m
        self.K = K
        self.ksum = K.sum(axis=0)  # K^T 1 == K 1 up to the symmetry tolerance
        # H K H = K - 1 r^T - r 1^T + mean(K) 1 1^T with r = K 1 / m
        r = self.ksum / m
        np.subtract(K, r, out=M)
        M -= r[:, None]
        M += r.mean()
        M.flat[:: m + 1] += beta
        self._factor, self.rcond = _cholesky_with_cond(M, "kernel ridge")

    def solve(self, P) -> tuple[np.ndarray, np.ndarray]:
        P = np.asarray(P, dtype=np.float64)
        if P.ndim != 2 or P.shape[0] != self.m:
            raise ValueError("P must have one row per training instance")
        psum = P.sum(axis=0)
        A = cho_solve(self._factor, P - psum / self.m)
        b = (psum - dgemv(1.0, A, self.ksum, trans=1)) / self.m
        return A, b

    def outputs(self, A, b) -> np.ndarray:
        """Training-set scores K @ A + b.

        K.T is a Fortran-ordered view of K, so dgemm reads K without a copy.
        """
        return dgemm(1.0, self.K.T, A, trans_a=True) + b


def fit_kernel(K, P, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form minimizer of ||K A + 1 b^T - P||_F^2 + beta tr(A^T K A).

    A = (H K H + beta I)^(-1) H P with H = I - 1 1^T / m,
    b = (P^T 1 - A^T K^T 1) / m.

    For symmetric K this is the solution of the stationarity condition
    (H K + beta I) A = H P: multiplying it by 1^T gives beta 1^T A = 0, so
    A = H A and H K A = H K H A.
    """
    return KernelRidgeSolver(K, beta).solve(P)


def model_outputs(model: KernelModel, X_query) -> np.ndarray:
    """Score matrix for query rows: gram(X_query, train_X) @ A + b."""
    X_query = np.asarray(X_query, dtype=np.float64)
    if X_query.ndim != 2 or X_query.shape[1] != model.train_X.shape[1]:
        raise ValueError(
            f"dimension mismatch: query has {X_query.shape[-1]} features, "
            f"model expects {model.train_X.shape[1]}"
        )
    G = gram_matrix(X_query, model.train_X, model.sigma)
    return G @ model.A + model.b


def _fmt_row(row) -> str:
    return " ".join(repr(float(v)) for v in row)


def save_model(model: KernelModel, path) -> None:
    """Versioned text serialization; floats use shortest round-trip decimals."""
    m, n = model.train_X.shape
    l = model.A.shape[1]
    lines = [MODEL_MAGIC, f"{m} {n} {l} {repr(model.sigma)}"]
    lines.extend(_fmt_row(model.train_X[i]) for i in range(m))
    lines.extend(_fmt_row(model.A[i]) for i in range(m))
    lines.append(_fmt_row(model.b))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_model(path) -> KernelModel:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != MODEL_MAGIC:
        raise ValueError(f"not a model file: expected header {MODEL_MAGIC!r}")
    try:
        m, n, l, sigma = (lines[1] if len(lines) > 1 else "").split()
        m, n, l, sigma = int(m), int(n), int(l), float(sigma)
    except ValueError as exc:
        raise ValueError(
            f"malformed model header at line 2 ({exc}): expected '<m> <n> <l> <sigma>'"
        ) from None
    if len(lines) != 2 + 2 * m + 1:
        raise ValueError(f"malformed model file: expected {2 + 2 * m + 1} lines, found {len(lines)}")

    def rows(start, count, width):
        out = np.empty((count, width))
        for i in range(count):
            vals = lines[start + i].split()
            if len(vals) != width:
                raise ValueError(f"malformed model file: bad row width at line {start + i + 1}")
            out[i] = [float(v) for v in vals]
        return out

    X = rows(2, m, n)
    A = rows(2 + m, m, l)
    b = rows(2 + 2 * m, 1, l)[0]
    return KernelModel(X, A, b, sigma)
