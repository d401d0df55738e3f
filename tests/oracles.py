"""Independent reference implementations used by the tests.

Everything here is deliberately simple and derives expected values through a
different route than the library: exhaustive grids, bisection water-filling,
a scalar active-set enumeration and projected gradient for the anchored
projections, an argsort round trip for the batched projection, long-run
gradient descent, LU solves of the unreduced ridge systems, a ridge factor
built in transposed order, per-class blob draws, a point-major grid search,
quadrature, and full-sort neighbor search.  None of it calls into the code
paths it checks.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_factor, get_lapack_funcs
from scipy.linalg.lapack import dpftrf, dtrttf
from scipy.spatial.distance import cdist

from surepl.confidence import InfeasibleSupportError
from surepl.data import PLDataset
from surepl.harness import GridSearchResult, cross_validate


# ---------------------------------------------------------------------------
# confidence programs


def random_support(rng, l):
    s = int(rng.integers(1, l + 1))
    y = np.zeros(l, dtype=np.uint8)
    y[rng.choice(l, s, replace=False)] = 1
    return y


def _bisect_box_simplex(q, cap, total, iters=90):
    """Projection of q onto {0 <= p <= cap, sum(p) = total} via bisection on the shift.

    cap and total may be arrays of one shape; the result then holds one
    projection per (cap, total) pair along a new last axis, each bisected
    exactly as a lone scalar call would be.
    """
    cap = np.asarray(cap, dtype=float)[..., None]
    total = np.asarray(total, dtype=float)
    lo = q.min() - np.maximum(cap[..., 0], 1.0) - 1.0
    hi = np.full_like(lo, q.max() + 1.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        up = np.minimum(np.maximum(q - mid[..., None], 0.0), cap).sum(axis=-1) >= total
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    theta = 0.5 * (lo + hi)
    return np.minimum(np.maximum(q - theta[..., None], 0.0), cap)


def grid_bruteforce_op(q, y, lam, step=1e-3):
    """Brute-force minimum of ||p - q||^2 - lam * max(p) over the feasible set.

    Support size <= 3 enumerates a barycentric grid over the candidate face of
    the simplex.  Larger supports slice by the value t of the largest
    coordinate: for every anchor and every t on a grid, the remaining
    coordinates are projected onto the box-capped simplex by bisection (all t
    at once) and the objective is evaluated directly.
    """
    q = np.asarray(q, dtype=float)
    y = np.asarray(y)
    sup = np.flatnonzero(y)
    s = sup.size
    off_const = float((q[np.flatnonzero(y == 0)] ** 2).sum())
    qs = q[sup]
    if s == 1:
        return off_const + (1.0 - qs[0]) ** 2 - lam

    if s <= 3:
        ticks = int(round(1.0 / step))
        if s == 2:
            i = np.arange(ticks + 1)
            P = np.stack([i / ticks, 1.0 - i / ticks], axis=1)
        else:
            i, j = np.meshgrid(np.arange(ticks + 1), np.arange(ticks + 1), indexing="ij")
            keep = (i + j) <= ticks
            i, j = i[keep], j[keep]
            P = np.stack([i / ticks, j / ticks, 1.0 - (i + j) / ticks], axis=1)
        vals = ((P - qs) ** 2).sum(axis=1) - lam * P.max(axis=1)
        return off_const + float(vals.min())

    best = math.inf
    ts = np.arange(math.ceil(1.0 / (s * step)), int(round(1.0 / step)) + 1) * step
    ts = np.concatenate(([1.0 / s], ts))
    ts = ts[~((s - 1) * ts < 1.0 - ts - 1e-12)]
    for a in range(s):
        q_other = np.delete(qs, a)
        p_other = _bisect_box_simplex(q_other, ts, 1.0 - ts)
        vals = (ts - qs[a]) ** 2 + ((p_other - q_other) ** 2).sum(axis=1) - lam * ts
        best = min(best, float(vals.min()))
    return off_const + float(best)


# ---------------------------------------------------------------------------
# anchored projections onto C(j) = {p : p_k <= p_j, sum(p) = 1, 0 <= p <= y}


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


def active_set_projection(c, y, j: int) -> np.ndarray:
    """Exact projection of c onto C(j) by a scalar dual active-set enumeration.

    Enumerates tau = size of the group tied with the anchor.  For each tau the
    remaining coordinates are water-filled on the simplex slack; the first tau
    passing primal feasibility and the dual sign conditions is the optimum
    (the projection is unique, so exactly one trial is accepted up to
    boundary ties).
    """
    c = np.asarray(c, dtype=np.float64)
    y = np.asarray(y)
    l = c.size
    p = np.zeros(l)
    sup = np.flatnonzero(y)
    if sup.size == 1:
        p[j] = 1.0
        return p
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
        return p
    raise RuntimeError("anchored projection found no consistent active set")


def active_set_opi(q, y, lam, j: int) -> np.ndarray:
    """Minimizer of ||p - q||^2 - lam * p_j over C(j): the projection of q + (lam / 2) e_j."""
    c = np.array(q, dtype=np.float64)
    c[j] += lam / 2.0
    return active_set_projection(c, y, j)


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
    """Slow reference projection of c onto C(anchor).

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


def update_rows_argsort(Q, Yb, lam, anchors=None):
    """The batched anchored projection by sorted position.

    Row i projects Q[i] + (lam / 2) e_anchor onto C(anchor), where Yb is the
    bool candidate mask and lam a scalar or one value per row.  The other
    candidates are argsorted descending; the first tau - 1 of them pool with
    the anchor at level t, the rest clip to [0, t] below the simplex
    threshold, and the sorted values are scattered back to label order.
    anchors defaults to the candidate with the largest output.
    """
    m, l = Q.shape
    rows = np.arange(m)
    C = np.where(Yb, Q, -np.inf)
    if anchors is None:
        anchors = np.argmax(C, axis=1)
    C[rows, anchors] += lam / 2.0
    a_val = C[rows, anchors]
    C[rows, anchors] = -np.inf
    order = np.argsort(-C, axis=1, kind="stable")
    D = np.take_along_axis(C, order, axis=1)

    V = np.concatenate([a_val[:, None], D[:, : l - 1]], axis=1)
    Vfin = np.where(np.isfinite(V), V, 0.0)
    cum = np.cumsum(Vfin, axis=1)
    ranks = np.arange(1, l + 1)
    cond = np.isfinite(V) & (V * ranks > cum - 1.0)
    rho = cond.sum(axis=1)
    theta = (cum[rows, rho - 1] - 1.0) / rho
    means = np.where(np.isfinite(V), cum / ranks, -np.inf)
    tau = np.argmax(means, axis=1) + 1
    t = means[rows, tau - 1] - theta
    t[rho == 1] = 1.0

    clipped = np.minimum(np.maximum(D - theta[:, None], 0.0), t[:, None])
    w = np.where(np.arange(l)[None, :] < (tau - 1)[:, None], t[:, None], clipped)
    P = np.zeros_like(Q)
    np.put_along_axis(P, order, w, axis=1)
    P[rows, anchors] = t
    return P


# ---------------------------------------------------------------------------
# synthetic blobs, one class at a time


def make_blobs_per_class(m, classes=3, n_features=2, separation=4.0, spread=1.0, seed=0):
    """`make_blobs_dataset` as a loop over classes: one normal draw per class,
    stacked in class order, then one shuffle of the rows."""
    rng = np.random.default_rng(seed)
    radius = separation / (2.0 * np.sin(np.pi / classes))
    angles = 2.0 * np.pi * np.arange(classes) / classes
    centers = np.zeros((classes, n_features))
    centers[:, 0] = radius * np.cos(angles)
    centers[:, min(1, n_features - 1)] = radius * np.sin(angles)
    rows, labels = [], []
    for c in range(classes):
        cnt = m // classes + (1 if c < m % classes else 0)
        rows.append(centers[c] + spread * rng.standard_normal((cnt, n_features)))
        labels.extend([c] * cnt)
    perm = rng.permutation(m)
    X, truth = np.vstack(rows)[perm], np.array(labels, dtype=np.int64)[perm]
    cands = np.zeros((m, classes), dtype=np.uint8)
    cands[np.arange(m), truth] = 1
    return PLDataset(X, cands, truth)


# ---------------------------------------------------------------------------
# grid search, one point at a time


def grid_search_pointwise(d_train, lam_grid, beta_grid, inner_folds, seed, base):
    """Inner cross-validation of every (lam, beta) on its own, through
    `cross_validate`: one full training run per point and fold.  Ties keep
    the smaller lam, then the smaller beta."""
    entries = []
    best = None
    for lam in sorted(set(map(float, lam_grid))):
        for beta in sorted(set(map(float, beta_grid))):
            cfg = replace(base, lam=lam, beta=beta)
            mean = cross_validate(d_train, "sure", cfg, inner_folds, seed).mean
            entries.append((lam, beta, mean))
            if best is None or mean > best[2]:
                best = (lam, beta, mean)
    return GridSearchResult(best[0], best[1], tuple(entries))


# ---------------------------------------------------------------------------
# ridge objectives, gradients, and a gradient-descent reference fit


def linear_objective(X, P, beta, W, b):
    R = X @ W + b - P
    return float((R**2).sum() + beta * (W**2).sum())


def linear_gradient(X, P, beta, W, b):
    R = X @ W + b - P
    return 2.0 * (X.T @ R) + 2.0 * beta * W, 2.0 * R.sum(axis=0)


def kernel_objective(K, P, beta, A, b):
    R = K @ A + b - P
    return float((R**2).sum() + beta * np.trace(A.T @ K @ A))


def kernel_gradient(K, P, beta, A, b):
    R = K @ A + b - P
    return 2.0 * (K @ R) + 2.0 * beta * (K @ A), 2.0 * R.sum(axis=0)


def solve_fit_linear(X, P, beta):
    """Linear ridge fit from the bias-augmented normal equations, solved by LU.

    Unknowns are W and b together:
    [[X^T X + beta I, X^T 1], [1^T X, m]] [W; b^T] = [X^T P; 1^T P].
    """
    m, n = X.shape
    Z = np.concatenate([X, np.ones((m, 1))], axis=1)
    M = Z.T @ Z
    M[:n, :n] += beta * np.eye(n)
    Wb = np.linalg.solve(M, Z.T @ P)
    return Wb[:n], Wb[n]


def solve_fit_kernel(K, P, beta):
    """Kernel ridge fit from the nonsymmetric system (H K + beta I) A = H P, solved by LU.

    H = I - 1 1^T / m; the bias is the column mean of the residual P - K A.
    """
    m = K.shape[0]
    H = np.eye(m) - 1.0 / m
    A = np.linalg.solve(H @ K + beta * np.eye(m), H @ P)
    return A, (P - K @ A).mean(axis=0)


def pack(K):
    """A symmetric matrix in LAPACK's rectangular full packed storage
    (TRANSR = 'N', UPLO = 'L'), packed from its lower triangle by dtrttf."""
    R, info = dtrttf(np.asfortranarray(K), transr="N", uplo="L")
    assert info == 0
    return R


def kernel_ridge_factor_packed(K, beta):
    """Packed Cholesky factor of K + beta I, by LAPACK's dpftrf on
    dtrttf(K + beta I), and the system's reciprocal 1-norm condition
    estimate, by pocon on a full-storage potrf factor.

    Returns (factor, rcond).
    """
    m = K.shape[0]
    M = np.asfortranarray(K + beta * np.eye(m))
    factor, info = dpftrf(m, pack(M), transr="N", uplo="L")
    assert info == 0
    lange, pocon = get_lapack_funcs(("lange", "pocon"), (M,))
    anorm = lange("1", M)
    U, _ = cho_factor(M, overwrite_a=True)
    rcond, info = pocon(U, anorm)
    assert info == 0
    return factor, float(rcond)


def gd_fit_linear(X, P, beta, max_steps=1_000_000):
    """Plain gradient descent on the linear ridge objective, step 1/L."""
    m, n = X.shape
    l = P.shape[1]
    M = np.concatenate([X, np.ones((m, 1))], axis=1)
    L = 2.0 * (np.linalg.norm(M, 2) ** 2 + beta)
    eta = 1.0 / L
    W = np.zeros((n, l))
    b = np.zeros(l)
    for _ in range(max_steps):
        gW, gb = linear_gradient(X, P, beta, W, b)
        W -= eta * gW
        b -= eta * gb
        if max(np.abs(gW).max(), np.abs(gb).max()) < 1e-13:
            break
    return W, b


def numeric_gradient(f, x, eps=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += eps
        lo[i] -= eps
        g[i] = (f(hi) - f(lo)) / (2.0 * eps)
    return g


# ---------------------------------------------------------------------------
# t distribution via quadrature


def t_pdf(x, df):
    c = math.gamma((df + 1.0) / 2.0) / (math.sqrt(df * math.pi) * math.gamma(df / 2.0))
    return c * (1.0 + x * x / df) ** (-(df + 1.0) / 2.0)


def t_two_tailed_pvalue_quad(t, df):
    tail, _ = quad(t_pdf, abs(t), np.inf, args=(df,))
    return 2.0 * tail


# ---------------------------------------------------------------------------
# neighbor voting by full sort


def plknn_predict_argsort(train, X_query, k):
    """PLKNN by a full stable argsort of every query's distances.

    Returns the (q, k) neighbor indices and the predicted labels; distance
    ties prefer the lower training index, vote ties the lower label.
    """
    nn = np.argsort(cdist(X_query, train.features), axis=1, kind="stable")[:, :k]
    return nn, np.argmax(train.candidates[nn].sum(axis=1), axis=1)


def knn_exhaustive_predict(train_X, train_candidates, X_query, k):
    preds = []
    for x in np.asarray(X_query, dtype=float):
        dists = [(float(np.sqrt(((x - tx) ** 2).sum())), i) for i, tx in enumerate(train_X)]
        dists.sort()
        votes = np.zeros(train_candidates.shape[1])
        for _, i in dists[:k]:
            votes += train_candidates[i]
        preds.append(int(np.argmax(votes)))
    return np.array(preds)
