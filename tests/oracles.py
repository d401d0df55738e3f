"""Independent reference implementations used by the tests.

Everything here is deliberately simple and derives expected values through a
different route than the library: exhaustive grids, bisection water-filling,
long-run gradient descent, LU solves of the unreduced ridge systems,
quadrature, and full-sort neighbor search.  None
of it calls into the code paths it checks.
"""

import math

import numpy as np
from scipy.integrate import quad


# ---------------------------------------------------------------------------
# confidence programs


def random_support(rng, l):
    s = int(rng.integers(1, l + 1))
    y = np.zeros(l, dtype=np.uint8)
    y[rng.choice(l, s, replace=False)] = 1
    return y


def _bisect_box_simplex(q, cap, total, iters=90):
    """Projection of q onto {0 <= p <= cap, sum(p) = total} via bisection on the shift."""
    lo = float(q.min()) - max(cap, 1.0) - 1.0
    hi = float(q.max()) + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.minimum(np.maximum(q - mid, 0.0), cap).sum() >= total:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return np.minimum(np.maximum(q - theta, 0.0), cap)


def grid_bruteforce_op(q, y, lam, step=1e-3):
    """Brute-force minimum of ||p - q||^2 - lam * max(p) over the feasible set.

    Support size <= 3 enumerates a barycentric grid over the candidate face of
    the simplex.  Larger supports slice by the value t of the largest
    coordinate: for every anchor and every t on a grid, the remaining
    coordinates are projected onto the box-capped simplex by bisection and the
    objective is evaluated directly.
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
    for a in range(s):
        q_other = np.delete(qs, a)
        for t in ts:
            if (s - 1) * t < 1.0 - t - 1e-12:
                continue
            p_other = _bisect_box_simplex(q_other, t, 1.0 - t)
            val = (t - qs[a]) ** 2 + ((p_other - q_other) ** 2).sum() - lam * t
            best = min(best, val)
    return off_const + float(best)


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
