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
matrix one row block of at most SCORE_BLOCK_BYTES at a time, so it never
holds the whole of it.  All of that runs in scipy's BLAS/LAPACK: numpy and
scipy may each bundle their own threaded BLAS, and alternating between the
two makes their worker threads compete for the same cores.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dger
from scipy.linalg.lapack import dlange, dpftrf, dpftrs, dppcon, dtfttp, dtrttf

from .data import FileFormatError, check_query, format_float, parse_floats, read_lines, write_lines
from .kernel import RFP, gram_matrix, packed_diagonal, usable_sigma

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
    if not 0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
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

    Takes K in RFP storage (see `kernel.packed_gram`), reads m from its size,
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
    for a K that `packed_gram` could have built, the fit has the solver's
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
    if not 0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
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
