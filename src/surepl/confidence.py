"""Per-example confidence updates.

Each training example contributes one small quadratic program: given model
outputs q and the 0/1 candidate indicator y, find the confidence vector p in

    C(j) = { p : p_k <= p_j for all k,  sum(p) = 1,  0 <= p <= y }

minimizing ||p - q||^2 - lambda * p_j.  Completing the square turns this into
the Euclidean projection of c = q + (lambda / 2) e_j onto C(j).  One pooled
projection solves it for any anchor j: list c_j, then the other candidates in
descending order; the anchor ties with the leading group at which the prefix
means of that list peak, and pooling the group at its mean leaves a
non-increasing vector whose simplex threshold fixes every coordinate.

`_update_rows` runs that projection over many rows at once, and every solver
calls it: `solve_opi` on one row, `solve_ops` at the surrogate anchor
argmax_{j in S} q_j, `solve_op_exact` on one copy of the row per candidate
anchor, and `update_confidence_matrix` (and the training loop) on a whole
output matrix at the surrogate anchors.  Non-candidates enter it as -inf,
which sorts last and runs through its sums and means without a NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfidenceVector",
    "QPResult",
    "InfeasibleSupportError",
    "solve_opi",
    "solve_op_exact",
    "solve_ops",
    "update_confidence_matrix",
]

FEAS_TOL = 1e-9


class InfeasibleSupportError(ValueError):
    """The candidate support makes the constraint polytope empty."""


@dataclass(frozen=True)
class ConfidenceVector:
    """A label-confidence row supported on its candidate set.

    Invariants: 0 <= p_j <= support_j for every label and sum(p) = 1 within
    1e-9.  Checked at construction.
    """

    p: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        sup = np.asarray(self.support, dtype=np.uint8)
        if p.shape != sup.shape or p.ndim != 1:
            raise ValueError("p and support must be 1-D arrays of equal length")
        if (p < -FEAS_TOL).any() or (p > sup + FEAS_TOL).any():
            raise ValueError("confidence outside [0, support]")
        if abs(p.sum() - 1.0) > FEAS_TOL:
            raise ValueError(f"confidences sum to {p.sum()!r}, not 1")
        p = p.copy()
        sup = sup.copy()
        p.setflags(write=False)
        sup.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "support", sup)


@dataclass(frozen=True)
class QPResult:
    """Solution of one anchored confidence program.

    objective is ||p - q||^2 - lambda * p_anchor.
    """

    p: ConfidenceVector
    objective: float
    anchor: int


def _check_inputs(Q, Y, lam):
    """Q as float64 and Y as a C-ordered bool candidate mask after the
    checks every public entry shares; single-row solvers pass 1 x l matrices."""
    Q = np.asarray(Q, dtype=np.float64)
    Y = np.asarray(Y)
    if Q.ndim != 2 or Y.shape != Q.shape:
        raise ValueError("outputs and supports must be equal-shape arrays, one row per example")
    if not np.isfinite(Q).all():
        raise ValueError("outputs must be finite")
    if not np.isin(Y, (0, 1)).all():
        raise ValueError("support entries must be 0 or 1")
    if not 0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    Yb = Y.astype(bool, order="C")
    empty = ~Yb.any(axis=1)
    if empty.any():
        bad = int(np.flatnonzero(empty)[0])
        raise InfeasibleSupportError(f"row {bad} has an empty candidate set")
    return Q, Yb


def _best_anchored(Q, Yb, lam: float, anchors) -> QPResult:
    """Best anchored program for the 1 x l row (Q, Yb) over `anchors` (the first
    wins ties), one kernel call.

    Every solver computes its objectives here, so equal inputs give equal bits.
    """
    anchors = np.asarray(anchors)
    k = anchors.size
    Qk = np.repeat(Q, k, axis=0)
    P = _update_rows(Qk, np.repeat(Yb, k, axis=0), lam, anchors)
    obj = ((P - Qk) ** 2).sum(axis=1) - lam * P[np.arange(k), anchors]
    i = int(np.argmin(obj))
    return QPResult(ConfidenceVector(P[i], Yb[0]), float(obj[i]), int(anchors[i]))


def _check_row(q, y, lam):
    """_check_inputs on the single example (q, y), as a 1 x l matrix."""
    return _check_inputs(np.asarray(q)[None], np.asarray(y)[None], lam)


def solve_opi(q, y, lam: float, j: int) -> QPResult:
    """Exact minimizer of ||p - q||^2 - lambda*p_j over C(j) for anchor label j.

    Infeasible when y_j = 0 with more than one label: p_j = 0 would force
    every coordinate to zero, contradicting sum(p) = 1.
    """
    Q, Yb = _check_row(q, y, lam)
    l = Q.shape[1]
    if not 0 <= j < l:
        raise ValueError(f"anchor {j} out of range [0, {l})")
    if not Yb[0, j]:
        raise InfeasibleSupportError(
            f"anchor label {j} is not a candidate: p_k <= p_{j} = 0 with sum(p) = 1 is infeasible"
        )
    return _best_anchored(Q, Yb, lam, [j])


def solve_op_exact(q, y, lam: float) -> QPResult:
    """Minimum of solve_opi over every feasible anchor; ties take the lowest label.

    Non-candidate anchors are infeasible and skipped (their value is +inf in
    the minimum); any candidate anchor is feasible, so a nonzero support
    always yields a solution.
    """
    Q, Yb = _check_row(q, y, lam)
    return _best_anchored(Q, Yb, lam, np.flatnonzero(Yb[0]))


def solve_ops(q, y, lam: float) -> QPResult:
    """Surrogate update: anchor at the candidate with the largest output.

    Anchor ties go to the lowest label index.  The result upper-bounds the
    exact minimum; with 0/1 supports the two coincide (swapping any two
    candidate coordinates shows anchors with larger q can only do better).
    """
    Q, Yb = _check_row(q, y, lam)
    return _best_anchored(Q, Yb, lam, [np.argmax(np.where(Yb[0], Q[0], -np.inf))])


def update_confidence_matrix(Q, Y, lam: float) -> np.ndarray:
    """Row-wise surrogate confidence update, vectorized across examples.

    Row i of the result equals solve_ops(Q[i], Y[i], lam).p: both run the
    same kernel at the surrogate anchors.
    """
    Q, Yb = _check_inputs(Q, Y, lam)
    return _update_rows(Q, Yb, lam)


def _update_rows(Q: np.ndarray, mask: np.ndarray, lam, anchors=None) -> np.ndarray:
    """Row i projects Q[i] + (lam / 2) e_anchor onto C(anchor); no checks.

    mask is the C-ordered bool candidate mask, with at least one candidate
    per row; the training loop builds it from a PLDataset, which guarantees
    that.  lam is one value or one per row.  anchors holds one candidate
    label per row and defaults to the surrogate anchor, the candidate with
    the largest output (ties to the lowest label).  P comes back as a new
    C-ordered array.
    """
    m, l = Q.shape
    rows = np.arange(m)

    C = np.where(mask, Q, -np.inf)  # C-ordered like mask: rows contiguous for the sort
    if anchors is None:
        anchors = np.argmax(C, axis=1)
    a_val = C[rows, anchors] + lam / 2.0
    C[rows, anchors] = np.inf
    V = np.sort(C, axis=1)[:, ::-1]  # the anchor, other candidates descending, -inf tail
    V[:, 0] = a_val

    # Prefix means of V are unimodal: they rise while the next value exceeds
    # the running mean.  The anchor pools with the coordinates up to their
    # peak tau, at the peak mean.  A -inf never passes the tests below.
    cum = np.cumsum(V, axis=1)
    ranks = np.arange(1, l + 1)

    # simplex threshold (Held/Michelot rule) of the pooled vector, the peak
    # mean tau times then V[tau:], which is non-increasing.  The test can run
    # on V itself: pooling keeps the prefix sums from rank tau on, and every
    # rank up to tau passes, since each of those values is at least its
    # prefix mean.  The anchor always passes, though a > a - 1 is false once
    # a - 1 rounds to a.
    cond = V * ranks > cum - 1.0
    cond[:, 0] = True
    rho = cond.sum(axis=1)
    theta = (cum[rows, rho - 1] - 1.0) / rho

    # anchor level: the peak prefix mean of V, less the threshold
    means = cum / ranks
    tau = np.argmax(means, axis=1) + 1
    t = means[rows, tau - 1] - theta
    # only the anchor passes the threshold: the row commits, and a - (a - 1)
    # can miss 1 by an ulp (every other coordinate is already exactly 0)
    t[rho == 1] = 1.0

    # Label order: clip(C - theta, 0, t), then the pooled entries (C at or
    # above V[tau - 1], the anchor's +inf among them) set to t.  In exact
    # arithmetic a pooled value exceeds the pool mean, so it would clip to t
    # by itself; but the rounded mean can exceed the smallest pooled value
    # by an ulp, so they are set explicitly.  Selecting the pool by value
    # rather than by sorted position differs only where an unpooled
    # candidate equals the smallest pooled value.  Exact arithmetic rules
    # that out (the smallest pooled value is above the peak mean, every
    # unpooled value at or below it), so only a tie made by rounding could
    # set one more entry to t where clipping would give a value an ulp away.
    P = C - theta[:, None]
    np.maximum(P, 0.0, out=P)
    np.minimum(P, t[:, None], out=P)
    np.copyto(P, t[:, None], where=C >= V[rows, tau - 1][:, None])
    return P
