"""Per-example confidence updates.

Each training example contributes one small quadratic program: given model
outputs q and the 0/1 candidate indicator y, find the confidence vector p in

    C(j) = { p : p_k <= p_j for all k,  sum(p) = 1,  0 <= p <= y }

minimizing ||p - q||^2 - lambda * p_j.  Completing the square turns this into
the Euclidean projection of c = q + (lambda / 2) e_j onto C(j), which is solved
exactly by a dual active-set enumeration over how many coordinates tie with
the anchor j.  `solve_op_exact` minimizes over all anchors, `solve_ops` uses
the surrogate anchor argmax_{j in S} q_j, and `update_confidence_matrix` is
the vectorized surrogate update for a whole output matrix.

`oracle_project` is a deliberately simple and slow projected-gradient
reference used by the test suite to cross-check the exact solver.
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
    "oracle_project",
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

    objective is ||p - q||^2 - lambda * p_anchor; iterations counts active-set
    trials (or gradient steps for the oracle path).
    """

    p: ConfidenceVector
    objective: float
    anchor: int
    iterations: int


def _check_inputs(q, y, lam):
    q = np.asarray(q, dtype=np.float64)
    y = np.asarray(y)
    if q.ndim != 1 or y.shape != q.shape:
        raise ValueError("q and y must be 1-D arrays of equal length")
    if not np.isfinite(q).all():
        raise ValueError("q must be finite")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("support entries must be 0 or 1")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    y = y.astype(np.uint8)
    if y.sum() == 0:
        raise InfeasibleSupportError("all-zero support: no candidate labels")
    return q, y


def _waterfill_theta(tied_sum: float, tau: int, rest: np.ndarray) -> float:
    """Root of tied_sum - tau*theta + sum(max(rest - theta, 0)) = 1.

    rest is sorted descending.  The left side is continuous and strictly
    decreasing in theta, so exactly one breakpoint segment contains the root.
    """
    csum = 0.0
    for a in range(rest.size + 1):
        if a > 0:
            csum += rest[a - 1]
        theta = (tied_sum + csum - 1.0) / (tau + a)
        hi = rest[a - 1] if a > 0 else np.inf
        lo = rest[a] if a < rest.size else -np.inf
        if lo - 1e-12 <= theta <= hi + 1e-12:
            return theta
    raise RuntimeError("water-filling failed to bracket the threshold")


def _anchored_projection(c: np.ndarray, y: np.ndarray, j: int) -> tuple[np.ndarray, int]:
    """Exact projection of c onto C(j); returns (p, active-set trials).

    Enumerates tau = size of the group tied with the anchor.  For each tau the
    remaining coordinates are water-filled on the simplex slack; the first tau
    passing primal feasibility and the dual sign conditions is the optimum
    (the projection is unique, so exactly one trial is accepted up to
    boundary ties).
    """
    l = c.size
    p = np.zeros(l)
    sup = np.flatnonzero(y)
    if sup.size == 1:
        p[j] = 1.0
        return p, 1
    others = sup[sup != j]
    order = others[np.argsort(-c[others], kind="stable")]
    d = c[order]
    cj = c[j]
    prefix = np.concatenate(([0.0], np.cumsum(d)))
    for tau in range(1, sup.size + 1):
        tied_sum = cj + prefix[tau - 1]
        tied_mean = tied_sum / tau
        rest = d[tau - 1 :]
        # dual feasibility: every tied coordinate must sit at or above the mean
        if tau > 1 and d[tau - 2] < tied_mean - 1e-12:
            continue
        # primal feasibility: the next untied coordinate must not exceed the mean
        if rest.size and rest[0] > tied_mean + 1e-12:
            continue
        theta = _waterfill_theta(tied_sum, tau, rest)
        t = tied_mean - theta
        if t < -1e-12:
            continue
        t = max(t, 0.0)
        p[j] = t
        p[order[: tau - 1]] = t
        p[order[tau - 1 :]] = np.minimum(np.maximum(rest - theta, 0.0), t)
        return p, tau
    raise RuntimeError("anchored projection found no consistent active set")


def solve_opi(q, y, lam: float, j: int) -> QPResult:
    """Exact minimizer of ||p - q||^2 - lambda*p_j over C(j) for anchor label j.

    Infeasible when y_j = 0 with more than one label: p_j = 0 would force
    every coordinate to zero, contradicting sum(p) = 1.
    """
    q, y = _check_inputs(q, y, lam)
    l = q.size
    if not 0 <= j < l:
        raise ValueError(f"anchor {j} out of range [0, {l})")
    if y[j] == 0:
        raise InfeasibleSupportError(
            f"anchor label {j} is not a candidate: p_k <= p_{j} = 0 with sum(p) = 1 is infeasible"
        )
    c = q.copy()
    c[j] += lam / 2.0
    p, trials = _anchored_projection(c, y, j)
    obj = float(((p - q) ** 2).sum() - lam * p[j])
    return QPResult(ConfidenceVector(p, y), obj, int(j), trials)


def solve_op_exact(q, y, lam: float) -> QPResult:
    """Minimum of solve_opi over every feasible anchor; ties take the lowest label.

    Non-candidate anchors are infeasible and skipped (their value is +inf in
    the minimum); any candidate anchor is feasible, so a nonzero support
    always yields a solution.
    """
    q, y = _check_inputs(q, y, lam)
    best: QPResult | None = None
    trials = 0
    for j in np.flatnonzero(y):
        res = solve_opi(q, y, lam, int(j))
        trials += res.iterations
        if best is None or res.objective < best.objective:
            best = res
    assert best is not None
    return QPResult(best.p, best.objective, best.anchor, trials)


def solve_ops(q, y, lam: float) -> QPResult:
    """Surrogate update: anchor at the candidate with the largest output.

    Anchor ties go to the lowest label index.  The result upper-bounds the
    exact minimum; with 0/1 supports the two coincide (swapping any two
    candidate coordinates shows anchors with larger q can only do better).
    """
    q, y = _check_inputs(q, y, lam)
    cand = np.flatnonzero(y)
    j = int(cand[np.argmax(q[cand])])
    return solve_opi(q, y, lam, j)


def update_confidence_matrix(Q, Y, lam: float) -> np.ndarray:
    """Row-wise surrogate confidence update, vectorized across examples.

    Row i of the result equals solve_ops(Q[i], Y[i], lam).p.  Uses the same
    closed form as the scalar path: with the anchor holding the largest
    shifted value, the simplex threshold theta ignores the tie cap (tied mass
    is redistributed inside the tied group), and the anchor level is the best
    prefix mean of the sorted shifted values.
    """
    Q = np.asarray(Q, dtype=np.float64)
    Y = np.asarray(Y)
    if Q.ndim != 2 or Y.shape != Q.shape:
        raise ValueError("Q and Y must be 2-D arrays of equal shape")
    if not np.isin(Y, (0, 1)).all():
        raise ValueError("support entries must be 0 or 1")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    Yb = Y.astype(bool)
    sizes = Yb.sum(axis=1)
    if (sizes == 0).any():
        bad = int(np.flatnonzero(sizes == 0)[0])
        raise InfeasibleSupportError(f"row {bad} has an empty candidate set")
    return _update_rows(Q, Yb, lam)


def _update_rows(Q: np.ndarray, Yb: np.ndarray, lam: float) -> np.ndarray:
    """update_confidence_matrix without its checks.

    Yb is the bool candidate mask, with at least one candidate per row; the
    training loop computes it once from a PLDataset, which guarantees that.
    """
    m, l = Q.shape
    rows = np.arange(m)

    masked = np.where(Yb, Q, -np.inf)
    anchors = np.argmax(masked, axis=1)
    C = masked.copy()
    C[rows, anchors] += lam / 2.0
    a_val = C[rows, anchors].copy()
    C[rows, anchors] = -np.inf

    order = np.argsort(-C, axis=1, kind="stable")
    D = np.take_along_axis(C, order, axis=1)  # descending, -inf tail

    # V = (anchor value, D...) is non-increasing since the anchor holds the row max
    V = np.concatenate([a_val[:, None], D[:, : l - 1]], axis=1)
    Vfin = np.where(np.isfinite(V), V, 0.0)
    cum = np.cumsum(Vfin, axis=1)
    ranks = np.arange(1, l + 1)

    # simplex threshold over the positive prefix (Held/Michelot rule)
    cond = np.isfinite(V) & (V * ranks > cum - 1.0)
    rho = cond.sum(axis=1)
    theta = (cum[rows, rho - 1] - 1.0) / rho

    # anchor level: best prefix mean of V, pooling coordinates tied with the anchor
    means = np.where(np.isfinite(V), cum / ranks, -np.inf)
    tau = np.argmax(means, axis=1) + 1
    t = means[rows, tau - 1] - theta

    clipped = np.minimum(np.maximum(D - theta[:, None], 0.0), t[:, None])
    w = np.where(np.arange(l)[None, :] < (tau - 1)[:, None], t[:, None], clipped)
    P = np.zeros_like(Q)
    np.put_along_axis(P, order, w, axis=1)
    P[rows, anchors] = t
    return P


def _proj_capped_simplex(z: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Projection onto {0 <= p <= 1 on sup, 0 elsewhere, sum(p) = 1} by breakpoint scan."""
    zs = z[sup]
    bps = np.sort(np.concatenate([zs, zs - 1.0]))[::-1]
    gs = np.minimum(np.maximum(zs[None, :] - bps[:, None], 0.0), 1.0).sum(axis=1)
    k = int(np.searchsorted(gs, 1.0, side="left"))
    if k >= gs.size:
        theta = bps[-1] - (1.0 - gs[-1]) / sup.size
    elif gs[k] == 1.0:
        theta = bps[k]
    else:
        # root lies strictly inside (bps[k], bps[k-1]); slope is the active count there
        mid = 0.5 * (bps[k] + bps[k - 1])
        slope = int(((zs - mid > 0.0) & (zs - mid < 1.0)).sum())
        theta = bps[k] - (1.0 - gs[k]) / max(slope, 1)
    p = np.zeros_like(z)
    p[sup] = np.minimum(np.maximum(zs - theta, 0.0), 1.0)
    return p


def _proj_anchor_cone(z: np.ndarray, j: int) -> np.ndarray:
    """Projection onto {p : p_k <= p_j for all k}.

    Largest coordinates pool with the anchor while they exceed the running
    pooled mean; everything above the final level ties down to it.
    """
    vals = np.sort(np.delete(z, j))[::-1]
    total = z[j]
    cnt = 1
    for v in vals:
        if v > total / cnt:
            total += v
            cnt += 1
        else:
            break
    t = total / cnt
    p = np.minimum(z, t)
    p[j] = t
    return p


def _feasibility_gap(p: np.ndarray, y: np.ndarray, j: int) -> float:
    box = max(float((-p).max(initial=0.0)), float((p - y).max(initial=0.0)))
    return max(box, abs(float(p.sum()) - 1.0), float((p - p[j]).max()))


def oracle_project(c, y, anchor: int, max_iter: int = 100_000) -> np.ndarray:
    """Slow reference projection of c onto C(anchor); used by the tests.

    Projected gradient on 0.5*||p - c||^2 with diminishing steps; after every
    step feasibility is restored by alternating projections between the
    anchor-dominance cone and the capped simplex.  Stops early once iterates
    stall, capped at max_iter steps.
    """
    c = np.asarray(c, dtype=np.float64)
    y = np.asarray(y).astype(np.uint8)
    if y[anchor] == 0:
        raise InfeasibleSupportError(f"anchor label {anchor} is not a candidate")
    if y.sum() == 0:
        raise InfeasibleSupportError("all-zero support: no candidate labels")
    sup = np.flatnonzero(y)
    yf = y.astype(np.float64)

    def restore(z):
        for _ in range(50):
            z = _proj_anchor_cone(z, anchor)
            z = _proj_capped_simplex(z, sup)
            if _feasibility_gap(z, yf, anchor) < 1e-13:
                break
        return z

    p = yf / sup.size
    stall = 0
    for it in range(max_iter):
        step = 0.7 / np.sqrt(it + 1.0)
        z = restore(p + step * (c - p))
        if np.abs(z - p).max() < 1e-14:
            stall += 1
            if stall >= 3:
                p = z
                break
        else:
            stall = 0
        p = z
    return restore(p)
