"""Closed-form ridge fits of the confidence matrix, linear and kernelized.

Both fits minimize a squared loss against the confidence matrix P plus a
ridge penalty, with an unpenalized bias row.  The linear fit eliminates the
bias with the centering matrix H = I - 1 1^T / m, leaving the symmetric
positive definite system (X^T H X + beta I) W = X^T H P.  The kernel fit
needs no centering: it solves the bordered least-squares SVM system
(K + beta I) A + 1 b^T = P, 1^T A = 0, through K + beta I alone (see
`fit_kernel`).  Every system is held in LAPACK's rectangular full packed
(RFP) storage, one triangle of m (m + 1) / 2 entries, factored by `dpftrf`
and solved by `dpftrs`, and is guarded against singularity to working
precision by a reciprocal 1-norm condition number of at least RCOND_FLOOR.

`fit_linear` and `fit_kernel` check outside input once, at entry, and guard
their factor with LAPACK's condition estimate (`_cholesky_with_cond`).
Training factors the kernel system, constant across its iterations, once in
a `KernelRidgeSolver` and re-solves it for each new P; that solver trusts the
packed Gram matrix, beta and P training gives it and checks none of them.
Its K is a Gaussian Gram matrix, so an a-priori bound on the condition
number, which depends only on (m, beta), takes the place of the estimate and
refuses a hopeless beta before any work on K.  The solver adds beta to the
diagonal of the packed array it is given and factors it in place, so a factor
needs no array besides that one, and no solve needs K: a fit's training-set
scores are P - beta A (see `fit_kernel`).  Each solve copies P once into
Fortran order, so a fit depends on P's values and not on its memory layout.

`model_outputs` is the one query scorer: it builds and scores the query Gram
matrix one row block of `kernel.row_blocks` (at most 2 MiB) at a time, so it
never holds the whole of it, nor leaves a freed block that stays resident
under the next training's K.  All of that runs in scipy's BLAS/LAPACK: numpy
and scipy may each bundle their own threaded BLAS, and alternating between
the two makes their worker threads compete for the same cores.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.linalg.blas import dgemm, dger
from scipy.linalg.lapack import dlange, dpftrf, dpftrs, dppcon, dtfttp, dtrttf

from .data import (FileFormatError, check_count, check_query, check_real, check_sigma,
                   format_float, format_rows, lock_fields, parse_floats, read_header, read_lines,
                   write_lines)
from .kernel import RFP, gram_matrix, packed_diagonal, row_blocks

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


class SingularSystemError(np.linalg.LinAlgError):
    """The ridge system matrix is singular to working precision."""


@dataclass(frozen=True)
class KernelModel:
    """Kernel scorer keeping the training instances and combination weights.

    Scores a query row x as sum_i A[i] * k(x, x_i) + b with the Gaussian
    kernel of bandwidth sigma.  train_X is m x n, A m x l and b of length l,
    with m, n and l at least 1 (`check_count`), so every model can be saved
    and loaded.  Holds read-only views of the float64 arrays it is given, not
    copies: the caller's own arrays stay writable.
    """

    train_X: np.ndarray
    A: np.ndarray
    b: np.ndarray
    sigma: float

    def __post_init__(self):
        X, A, b = (np.asarray(v, dtype=np.float64).view() for v in (self.train_X, self.A, self.b))
        if X.ndim != 2 or A.ndim != 2 or A.shape[0] != X.shape[0]:
            raise ValueError("A must have one row per training instance")
        if b.shape != (A.shape[1],):
            raise ValueError("b must have one entry per label")
        for name, size in zip("mnl", (*X.shape, A.shape[1])):  # sizes a model file can hold
            check_count(size, name, 1)
        if not (np.isfinite(X).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("model parameters must be finite")
        lock_fields(self, train_X=X, A=A, b=b, sigma=float(check_sigma(self.sigma)))


def _packed_solve(factor: np.ndarray, B: np.ndarray) -> np.ndarray:
    """M^(-1) B from M's packed Cholesky factor; B (m x r) is overwritten
    if it is Fortran-ordered."""
    return dpftrs(B.shape[0], factor, B, overwrite_b=True, **RFP)[0]


def _cholesky_with_cond(G: np.ndarray, beta: float, what: str) -> np.ndarray:
    """Packed Cholesky factor of M = G + beta I, for a symmetric G.

    The boundary fits' guard: M is built in one Fortran-ordered working copy,
    where `lange` takes its 1-norm, and is packed from its lower triangle by
    `dtrttf`; the copy is then dropped, and `dpftrf` factors the packed array
    in place.  LAPACK's `ppcon` estimates the reciprocal 1-norm condition
    number from the factor in standard packed storage, and it must reach
    RCOND_FLOOR.  A matrix that is not positive definite has no Cholesky
    factor; it is reported like a singular one, with a condition estimate of
    zero.  M is not scanned for infs or NaNs: the fits build G from input
    checked at their entry.
    """
    M = np.array(G, dtype=np.float64, order="F")
    m = M.shape[0]
    M.flat[:: m + 1] += beta
    anorm = dlange("1", M)
    R = dtrttf(M, **RFP)[0]
    del M
    factor, info = dpftrf(m, R, overwrite_a=True, **RFP)
    rcond = 0.0
    if info == 0:
        rcond, info = dppcon(m, dtfttp(m, factor, **RFP)[0], anorm, lower=True)
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise SingularSystemError(
            f"singular {what} system matrix (reciprocal 1-norm condition estimate {rcond:.3e})"
        )
    return factor


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
    check_real(beta, "beta", positive=True)
    m = X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        xsum = X.sum(axis=0)
        psum = P.sum(axis=0)
        G = X.T @ X - np.outer(xsum, xsum) / m
        rhs = X.T @ P - np.outer(xsum, psum) / m
    if not (np.isfinite(G).all() and np.isfinite(rhs).all()):
        raise ValueError("X and P overflow the linear ridge system: its entries exceed float64")
    factor = _cholesky_with_cond(G, beta, "linear ridge")
    W = _packed_solve(factor, rhs)
    b = (psum - W.T @ xsum) / m
    return W, b


def _kernel_solve(factor: np.ndarray, u: np.ndarray, P) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) for P from the packed factor of K + beta I and u = (K + beta I)^(-1) 1.

    Z = (K + beta I)^(-1) P, b = Z^T 1 / 1^T u and A = Z - u b^T, which dger
    writes over Z.  P is copied once into Fortran order, the layout LAPACK
    solves in, so the solve and Z's column sums run alike for any layout.
    """
    Z = _packed_solve(factor, np.array(P, dtype=np.float64, order="F"))
    b = Z.sum(axis=0) / u.sum()
    return dger(-1.0, u, b, a=Z, overwrite_a=True), b


def _ones_solve(factor: np.ndarray, m: int) -> np.ndarray:
    """u = (K + beta I)^(-1) 1 from the packed factor."""
    return _packed_solve(factor, np.ones((m, 1), order="F"))[:, 0]


class KernelRidgeSolver:
    """Factors the kernel ridge system once; solve() refits for any P.

    Takes the packed K that `kernel.packed_gram` returns, reads m from its size,
    adds beta to its diagonal and factors K + beta I in place, so the packed
    array is overwritten; a caller that still needs it passes a copy.  Checks
    nothing: its caller gives a Gaussian Gram matrix (symmetric, positive
    semidefinite, entries in [0, 1]), beta > 0 and finite P's of m rows, as
    training does.  `fit_kernel` checks outside input.

    For such a K, M = K + beta I has ||M||_1 <= m + beta and eigenvalues of at
    least beta, so ||M^-1||_1 <= sqrt(m) ||M^-1||_2 <= sqrt(m) / beta.  Its
    reciprocal 1-norm condition number is thus at least
    beta / ((m + beta) sqrt(m)): a bound that depends on (m, beta) alone, so
    it is deterministic and free.  A beta whose bound is below RCOND_FLOOR is
    refused before any work on K.
    """

    def __init__(self, K_packed: np.ndarray, beta: float):
        diagonal = packed_diagonal(K_packed)
        m = sum(d.size for d in diagonal)  # the order of K
        self.beta = float(beta)
        bound = self.beta / ((m + self.beta) * math.sqrt(m))
        if bound < RCOND_FLOOR:
            raise SingularSystemError(
                f"kernel ridge system matrix too ill-conditioned for beta = {beta:g} at "
                f"m = {m}: reciprocal 1-norm condition bound {bound:.3e} < {RCOND_FLOOR:g}"
            )
        for d in diagonal:
            d += self.beta
        self._factor, info = dpftrf(m, K_packed, overwrite_a=True, **RFP)
        if info != 0:
            raise SingularSystemError(
                "kernel ridge system matrix not positive definite "
                f"(reciprocal 1-norm condition bound {bound:.3e})"
            )
        self._u = _ones_solve(self._factor, m)

    def solve(self, P) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) for the confidence matrix P; depends on P's values only.

        The training-set scores K A + 1 b^T of the result equal P - beta A
        (see `fit_kernel`), so no solve needs K again.
        """
        return _kernel_solve(self._factor, self._u, P)


def fit_kernel(K, P, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form minimizer of ||K A + 1 b^T - P||_F^2 + beta tr(A^T K A).

    (A, b) solves the bordered least-squares SVM system (Suykens and
    Vandewalle, 1999) (K + beta I) A + 1 b^T = P, 1^T A = 0: with
    Z = (K + beta I)^(-1) P and u = (K + beta I)^(-1) 1, b = Z^T 1 / 1^T u
    and A = Z - u b^T.  For symmetric K the first equation reads
    K A + 1 b^T - P = -beta A, so the gradient in A,
    2 K (K A + 1 b^T - P + beta A), vanishes, and the gradient in b,
    -2 beta A^T 1, vanishes by the second; for a positive semidefinite K the
    objective is convex.  The first equation also gives the training-set
    scores: K A + 1 b^T = P - beta A.

    Checks K (square, finite, symmetric to SYMMETRY_TOL), 0 < beta < inf and
    P (finite, one row per row of K) once, then factors K + beta I in packed
    storage from its lower triangle and solves as `KernelRidgeSolver` does;
    for the unpacked K of `kernel.packed_gram`, the fit has the solver's
    bits.  The caller's K is left unchanged.  An outside K may be indefinite,
    so the solver's a-priori bound does not hold for it: the factor is
    guarded by LAPACK's condition estimate, and K + beta I must have a
    Cholesky factor.  So a K with an eigenvalue at or below -beta is refused
    as singular, even where 1 is its only such eigenvector and the bordered
    system is solvable (K = I - 2 1 1^T / 3 with beta = 0.1, say).
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K must be square")
    if not np.isfinite(K).all():
        raise ValueError("K must be finite")
    check_real(beta, "beta", positive=True)
    D = np.subtract(K, K.T)
    asym = float(np.abs(D, out=D).max())
    del D  # freed before the factor's working copy is made: one m x m temporary at a time
    if asym > SYMMETRY_TOL:
        raise ValueError(f"kernel matrix asymmetric: max |K - K^T| = {asym:.3e}")
    P = np.asarray(P, dtype=np.float64)
    m = K.shape[0]
    if P.ndim != 2 or P.shape[0] != m:
        raise ValueError("P must have one row per training instance")
    if not np.isfinite(P).all():
        raise ValueError("P must be finite")
    factor = _cholesky_with_cond(K, beta, "kernel ridge")
    return _kernel_solve(factor, _ones_solve(factor, m), P)


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
    for s in row_blocks(X_query.shape[0], X.shape[0]):
        out[s] = dgemm(1.0, gram_matrix(X_query[s], X, model.sigma).T, model.A, trans_a=True)
    out += model.b
    return out


def save_model(model: KernelModel, path) -> None:
    """Versioned text serialization; floats use shortest round-trip decimals."""
    m, n = model.train_X.shape
    l = model.A.shape[1]
    rows = map(format_rows, (model.train_X, model.A, model.b[None, :]))
    write_lines(path, chain([MODEL_MAGIC, f"{m} {n} {l} {format_float(model.sigma)}"], *rows))


def load_model(path) -> KernelModel:
    """Parse a model file one line at a time; malformed input raises
    FileFormatError naming the line."""
    with read_lines(path) as (count, lines):
        m, n, l, sigma = read_header(lines, MODEL_MAGIC, bandwidth=True)
        if count != 2 * m + 3:
            raise FileFormatError(
                f"dimension mismatch: header declares {m} rows, so {2 * m + 3} lines, "
                f"file has {count}", 2
            )

        def rows(start, stop, width, what):
            flat = array("d")  # float64 rows, without a Python float per value
            for i, line in zip(range(start, stop), lines):  # range first: no line is skipped
                flat.extend(parse_floats(line.split(), width, i + 1, what))
            return np.frombuffer(flat).reshape(stop - start, width)

        X = rows(2, m + 2, n, "features")
        A = rows(m + 2, 2 * m + 2, l, "weights")
        b = rows(2 * m + 2, 2 * m + 3, l, "biases")[0]
    return KernelModel(X, A, b, sigma)
