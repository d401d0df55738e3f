"""Anchored confidence programs: exact solver, surrogate, batch path, oracle.

The library runs one projection kernel for every anchor; the references it
is checked against (active-set enumeration, projected gradient) live in
oracles.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from surepl.confidence import (
    ConfidenceVector,
    InfeasibleSupportError,
    _update_rows,
    solve_op_exact,
    solve_opi,
    solve_ops,
    update_confidence_matrix,
)

FULL_OBJ_SHIFT = 1e-12


def random_instance(rng, l_max=8):
    l = int(rng.integers(2, l_max + 1))
    y = oracles.random_support(rng, l)
    q = rng.uniform(-1.0, 1.0, l)
    lam = float(rng.choice([0.0, 0.05, 0.3, 1.0]))
    return q, y, lam


def surrogate_anchor(q, y):
    cand = np.flatnonzero(y)
    return int(cand[np.argmax(q[cand])])


def surrogate_reference(q, y, lam):
    return oracles.active_set_opi(q, y, lam, surrogate_anchor(q, y))


def assert_feasible(p, y, anchor, tol=1e-9):
    assert (p >= -tol).all()
    assert (p <= y + tol).all()
    assert abs(p.sum() - 1.0) <= tol
    assert (p <= p[anchor] + tol).all()


class TestSolveOpi:
    def test_singleton_support_forced(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = rng.uniform(-1, 1, 4)
            lam = float(rng.uniform(0, 2))
            res = solve_opi(q, np.array([0, 1, 0, 0]), lam, 1)
            assert np.array_equal(res.p.p, [0.0, 1.0, 0.0, 0.0])

    def test_worked_two_candidate_example(self):
        res = solve_opi(np.array([0.6, 0.5, 0.2]), np.array([1, 1, 0]), 0.3, 0)
        assert np.allclose(res.p.p, [0.625, 0.375, 0.0], atol=1e-12)
        # full squared distance, including the forced zero on the non-candidate
        expected = (0.025**2 + 0.125**2 + 0.2**2) - 0.3 * 0.625
        assert res.objective == pytest.approx(expected, abs=1e-12)
        assert res.anchor == 0

    def test_lambda_zero_projection_of_feasible_point(self):
        q = np.array([0.5, 0.3, 0.2])
        res = solve_opi(q, np.ones(3, dtype=int), 0.0, 0)
        assert np.allclose(res.p.p, q, atol=1e-12)
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_non_candidate_anchor_infeasible(self):
        with pytest.raises(InfeasibleSupportError):
            solve_opi(np.zeros(3), np.array([1, 1, 0]), 0.1, 2)

    def test_all_zero_support(self):
        with pytest.raises(InfeasibleSupportError):
            solve_opi(np.zeros(3), np.zeros(3, dtype=int), 0.1, 0)

    def test_feasibility_of_solutions(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            q, y, lam = random_instance(rng)
            j = int(rng.choice(np.flatnonzero(y)))
            res = solve_opi(q, y, lam, j)
            assert_feasible(res.p.p, y, j)

    def test_two_candidate_line_search(self):
        # on the segment p = (u, 1-u, 0), minimize (u-q1)^2 + (1-u-q2)^2 + q3^2 - lam*u
        # subject to 1-u <= u, i.e. u >= 0.5; compare against a fine grid
        q = np.array([0.6, 0.5, 0.2])
        lam = 0.3
        u = np.linspace(0.5, 1.0, 200001)
        vals = (u - q[0]) ** 2 + (1 - u - q[1]) ** 2 + q[2] ** 2 - lam * u
        res = solve_opi(q, np.array([1, 1, 0]), lam, 0)
        assert res.objective <= vals.min() + 1e-9
        assert abs(res.p.p[0] - u[np.argmin(vals)]) < 1e-4

    def test_anchor_coordinate_monotone_in_lambda(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            q, y, _ = random_instance(rng)
            j = int(rng.choice(np.flatnonzero(y)))
            prev = -np.inf
            for lam in (0.0, 0.05, 0.1, 0.3, 0.6, 1.0, 2.0):
                val = solve_opi(q, y, lam, j).p.p[j]
                assert val >= prev - 1e-12
                prev = val

    def test_optimal_among_random_feasible_points(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            q, y, lam = random_instance(rng)
            j = int(rng.choice(np.flatnonzero(y)))
            res = solve_opi(q, y, lam, j)
            sup = np.flatnonzero(y)
            for _ in range(1000):
                w = rng.random(sup.size)
                p = np.zeros(y.size)
                p[sup] = w / w.sum()
                # force anchor dominance, renormalize inside the polytope
                p[sup] = np.minimum(p[sup], p[j])
                p[j] += 1.0 - p.sum()
                if p[j] > 1.0 + 1e-12 or (p > p[j] + 1e-12).any():
                    continue
                val = ((p - q) ** 2).sum() - lam * p[j]
                assert res.objective <= val + 1e-9


class TestSolveOpExact:
    def test_singleton_matches_opi(self):
        q = np.array([0.1, -0.4, 0.9])
        y = np.array([0, 1, 0])
        a = solve_op_exact(q, y, 0.7)
        b = solve_opi(q, y, 0.7, 1)
        assert a.anchor == 1
        assert a.objective == b.objective

    def test_worked_example_enumeration(self):
        q = np.array([0.6, 0.5, 0.2])
        y = np.array([1, 1, 0])
        res = solve_op_exact(q, y, 0.3)
        opi0 = solve_opi(q, y, 0.3, 0)
        opi1 = solve_opi(q, y, 0.3, 1)
        assert res.objective == min(opi0.objective, opi1.objective)
        assert res.anchor == 0

    def test_matches_grid_bruteforce(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            q, y, lam = random_instance(rng, l_max=6)
            res = solve_op_exact(q, y, lam)
            brute = oracles.grid_bruteforce_op(q, y, lam, step=1e-3)
            assert res.objective <= brute + 1e-9
            assert abs(res.objective - brute) <= 5e-3

    def test_tie_breaks_to_lowest_label(self):
        q = np.array([0.5, 0.5])
        y = np.array([1, 1])
        res = solve_op_exact(q, y, 0.4)
        assert res.anchor == 0


class TestSolveOps:
    def test_anchor_is_candidate_argmax(self):
        q = np.array([5.0, 0.2, 0.3, 0.1])
        y = np.array([0, 1, 1, 1])
        res = solve_ops(q, y, 0.3)
        assert res.anchor == 2  # argmax among candidates only

    def test_anchor_tie_lowest_index(self):
        q = np.array([0.4, 0.4, 0.1])
        y = np.array([1, 1, 1])
        assert solve_ops(q, y, 0.2).anchor == 0

    def test_upper_bounds_exact_and_often_equal(self):
        rng = np.random.default_rng(500)
        n_eq = 0
        for _ in range(500):
            q, y, lam = random_instance(rng)
            ops = solve_ops(q, y, lam)
            op = solve_op_exact(q, y, lam)
            assert ops.objective >= op.objective - 1e-9
            if ops.objective <= op.objective + 1e-9:
                n_eq += 1
            # equality must hold whenever the exact anchor coincides
            if op.anchor == ops.anchor:
                assert ops.objective == op.objective
        assert n_eq == 500  # binary supports: the surrogate anchor is always optimal

    def test_lambda_zero_feasible_q(self):
        q = np.array([0.6, 0.25, 0.15])
        res = solve_ops(q, np.ones(3, dtype=int), 0.0)
        assert np.allclose(res.p.p, q, atol=1e-12)
        assert abs(res.objective) <= 1e-12


class TestUpdateConfidenceMatrix:
    def test_singleton_rows_become_indicators(self):
        Y = np.array([[0, 1, 0], [1, 0, 0]])
        Q = np.array([[9.0, -9.0, 3.0], [0.0, 5.0, 5.0]])
        P = update_confidence_matrix(Q, Y, 0.3)
        assert np.array_equal(P, Y.astype(float))

    def test_lambda_zero_identity_on_simplex_rows(self):
        rng = np.random.default_rng(8)
        Q = rng.random((6, 4))
        Q /= Q.sum(axis=1, keepdims=True)
        P = update_confidence_matrix(Q, np.ones((6, 4), dtype=int), 0.0)
        assert np.allclose(P, Q, atol=1e-12)

    def test_matches_rowwise_solver(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            m = int(rng.integers(1, 12))
            l = int(rng.integers(1, 9))
            Y = np.stack([oracles.random_support(rng, l) for _ in range(m)])
            Q = rng.uniform(-2, 2, (m, l))
            lam = float(rng.choice([0.0, 0.05, 0.3, 1.0, 4.0]))
            P = update_confidence_matrix(Q, Y, lam)
            for i in range(m):
                ref = surrogate_reference(Q[i], Y[i], lam)
                assert np.abs(P[i] - ref).max() <= 1e-12

    def test_ten_by_four_instance(self):
        rng = np.random.default_rng(4)
        Y = np.stack([oracles.random_support(rng, 4) for _ in range(10)])
        Q = rng.uniform(-1, 1, (10, 4))
        P = update_confidence_matrix(Q, Y, 0.3)
        for i in range(10):
            assert np.abs(P[i] - surrogate_reference(Q[i], Y[i], 0.3)).max() <= 1e-12

    def test_committed_rows_are_exact_indicators(self):
        # singleton rows, and rows where only the anchor passes the threshold
        rng = np.random.default_rng(5)
        Y = np.stack([oracles.random_support(rng, 4) for _ in range(2000)])
        Y[:500] = np.eye(4, dtype=Y.dtype)[rng.integers(0, 4, 500)]
        Q = rng.uniform(-3, 3, Y.shape)
        P = update_confidence_matrix(Q, Y, 0.3)
        E = np.eye(4)[np.argmax(np.where(Y == 1, Q, -np.inf), axis=1)]
        committed = (P * E).sum(axis=1) >= 1 - 1e-12
        assert committed[:500].all() and committed[500:].sum() > 100
        assert (P[committed] == E[committed]).all()

    @pytest.mark.parametrize("lam", [1e17, 1e200])
    def test_anchor_commits_at_huge_lambda(self, lam):
        """a > a - 1 is false once a - 1 rounds to a; the anchor still passes
        the threshold, so the row commits to it."""
        P = update_confidence_matrix([[0.2, 0.5, 0.1], [0.3, -0.4, 0.9]], [[1, 1, 0], [1, 1, 1]], lam)
        assert np.array_equal(P, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(solve_ops([0.2, 0.5, 0.1], [1, 1, 0], lam).p.p, [0.0, 1.0, 0.0])

    def test_no_negative_zero(self):
        """A -0.0 output below the threshold comes back as +0.0."""
        P = update_confidence_matrix([[1.0, -0.0]], [[1, 1]], 0.0)
        assert P.tobytes() == np.array([[1.0, 0.0]]).tobytes()

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("solve", [
        lambda lam: update_confidence_matrix([[0.2, 0.5, 0.1]], [[1, 1, 0]], lam),
        lambda lam: solve_ops([0.2, 0.5, 0.1], [1, 1, 0], lam),
        lambda lam: solve_op_exact([0.2, 0.5, 0.1], [1, 1, 0], lam),
        lambda lam: solve_opi([0.2, 0.5, 0.1], [1, 1, 0], lam, 0),
    ], ids=["matrix", "ops", "exact", "opi"])
    def test_bad_lambda_rejected(self, solve, lam):
        with pytest.raises(ValueError, match=f"lambda must be finite and nonnegative, got {lam}"):
            solve(lam)

    def test_non_finite_outputs_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                update_confidence_matrix([[bad, 0.2, 0.1]], [[1, 1, 0]], 0.3)

    def test_empty_support_row_rejected(self):
        with pytest.raises(InfeasibleSupportError, match="row 1"):
            update_confidence_matrix(np.zeros((2, 3)), np.array([[1, 0, 0], [0, 0, 0]]), 0.1)

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(31)
        Y = np.stack([oracles.random_support(rng, 5) for _ in range(40)])
        Q = rng.uniform(-3, 3, (40, 5))
        P = update_confidence_matrix(Q, Y, 0.7)
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-9
        assert (P >= -1e-9).all() and (P <= Y + 1e-9).all()

    def test_heavy_ties_and_extreme_lambda(self):
        # quantized scores create many exact value ties; lambda spans 0 to 1e3
        rng = np.random.default_rng(90)
        for _ in range(150):
            l = int(rng.integers(1, 10))
            y = oracles.random_support(rng, l)
            kind = int(rng.integers(3))
            if kind == 0:
                q = np.round(rng.uniform(-0.5, 0.5, l), 1)
            elif kind == 1:
                q = np.full(l, float(rng.uniform(-1, 1)))
            else:
                q = rng.uniform(-1, 1, l) * 100
            lam = float(rng.choice([0.0, 1e-9, 0.3, 10.0, 1000.0]))
            P = update_confidence_matrix(q[None, :], y[None, :], lam)
            ref = surrogate_reference(q, y, lam)
            assert np.abs(P[0] - ref).max() <= 1e-9
            assert_feasible(P[0], y, surrogate_anchor(q, y))


class TestOracleProject:
    def test_contract_against_solver(self):
        rng = np.random.default_rng(606)
        for _ in range(200):
            q, y, lam = random_instance(rng)
            j = int(rng.choice(np.flatnonzero(y)))
            c = q.copy()
            c[j] += lam / 2.0
            po = oracles.oracle_project(c, y, j)
            res = solve_opi(q, y, lam, j)
            assert np.linalg.norm(po - res.p.p) <= 1e-5

    def test_singleton_support(self):
        p = oracles.oracle_project(np.array([3.0, -1.0]), np.array([0, 1]), 1)
        assert np.allclose(p, [0.0, 1.0], atol=1e-12)

    def test_feasible_input_with_max_at_anchor_fixed(self):
        c = np.array([0.6, 0.3, 0.1])
        p = oracles.oracle_project(c, np.ones(3, dtype=int), 0)
        assert np.abs(p - c).max() <= 1e-6

    def test_infeasible_anchor(self):
        with pytest.raises(InfeasibleSupportError):
            oracles.oracle_project(np.zeros(3), np.array([1, 1, 0]), 2)


class TestConfidenceVector:
    def test_validates_support_box(self):
        with pytest.raises(ValueError, match="outside"):
            ConfidenceVector(np.array([0.5, 0.5]), np.array([1, 0]))

    def test_validates_simplex_sum(self):
        with pytest.raises(ValueError, match="sum"):
            ConfidenceVector(np.array([0.5, 0.4]), np.array([1, 1]))

    def test_accepts_valid(self):
        cv = ConfidenceVector(np.array([0.25, 0.75]), np.array([1, 1]))
        assert cv.p.sum() == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_permutation_equivariance(seed, lam):
    rng = np.random.default_rng(seed)
    l = int(rng.integers(2, 7))
    y = oracles.random_support(rng, l)
    q = rng.uniform(-1, 1, l)
    perm = rng.permutation(l)
    base = solve_ops(q, y, lam).p.p
    permed = solve_ops(q[perm], y[perm], lam).p.p
    assert np.abs(permed - base[perm]).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 8),
    st.sampled_from([0.0, 0.05, 0.3, 1.0, 5.0]),
)
def test_kernel_matches_active_set_at_every_anchor(seed, l, lam):
    """The kernel at each candidate anchor, not just the surrogate one, on
    half-integer scores whose many exact ties stress the tie pooling."""
    rng = np.random.default_rng(seed)
    y = oracles.random_support(rng, l)
    q = rng.integers(-4, 5, l) / 2.0
    anchors = np.flatnonzero(y)
    k = anchors.size
    P = _update_rows(np.tile(q, (k, 1)), np.tile(y.astype(bool), (k, 1)), lam, anchors)
    for p, j in zip(P, anchors):
        assert np.abs(p - oracles.active_set_opi(q, y, lam, j)).max() <= 1e-12
        assert abs(p.sum() - 1.0) <= 1e-12
        assert (p >= 0.0).all() and (p[y == 0] == 0.0).all()
        assert (p <= p[j]).all()


LAMS = [0.0, 0.05, 0.3, 1.0, 5.0]


def _kernel_and_argsort_oracle(rng, Q, per_row_lam, order):
    """The kernel and oracles.update_rows_argsort on Q laid out in `order`,
    at random supports and lambdas, once at the surrogate anchors and once
    at random candidate anchors."""
    rows, l = Q.shape
    Y = np.stack([oracles.random_support(rng, l) for _ in range(rows)]).astype(bool)
    lam = rng.choice(LAMS, rows) if per_row_lam else float(rng.choice(LAMS))
    Q = np.asarray(Q, order=order)
    anchors = np.array([rng.choice(np.flatnonzero(y)) for y in Y])
    for a in (None, anchors):
        P = _update_rows(Q, Y, lam, a)
        ref = oracles.update_rows_argsort(Q, Y, lam, a)
        yield Q, Y, lam, a, P, ref


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 11), st.booleans(), st.sampled_from("CF"))
def test_kernel_matches_argsort_oracle_on_random_rows(seed, l, per_row_lam, order):
    """Sorting values in place of the argsort round trip changes no bit on
    rows without exact ties, in either memory order of Q."""
    rng = np.random.default_rng(seed)
    Q = rng.normal(0.0, 1.0, (int(rng.integers(1, 40)), l)) / 3.0
    for *_, P, ref in _kernel_and_argsort_oracle(rng, Q, per_row_lam, order):
        assert np.array_equal(P, ref)


def _tied_rows(rng, rows, l, kind):
    """Rows full of exact ties.  Half-integers tie exactly but never at the
    pool boundary: exact arithmetic puts the smallest pooled value above the
    pool mean and every unpooled value at or below it.  Repeats of a few
    non-dyadic values, an ulp or two apart, make the rounded prefix means
    wander, so the boundary can fall inside a run of equal values."""
    if kind == "half":
        return rng.integers(-4, 5, (rows, l)) / 2.0
    x = rng.uniform(-1.0, 1.0)
    pool = np.concatenate([x + np.arange(-2, 3) * np.spacing(x), rng.uniform(-1.0, 1.0, 2)])
    return rng.choice(pool, (rows, l))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 11), st.booleans(), st.sampled_from("CF"),
       st.sampled_from(["half", "repeat"]))
def test_kernel_matches_argsort_oracle_on_tied_rows(seed, l, per_row_lam, order, kind):
    """The kernel pools by value and the oracle by sorted position, so a row
    may differ only where an unpooled candidate ties the smallest pooled
    value: the kernel holds t there and the oracle a clipped value an ulp
    away.  Pooling by value gives equal candidate outputs equal confidences."""
    rng = np.random.default_rng(seed)
    Q = _tied_rows(rng, int(rng.integers(1, 40)), l, kind)
    for Q, Y, lam, a, P, ref in _kernel_and_argsort_oracle(rng, Q, per_row_lam, order):
        anchors = np.argmax(np.where(Y, Q, -np.inf), axis=1) if a is None else a
        for i in range(Q.shape[0]):
            c = np.where(Y[i], Q[i], -np.inf)
            c[anchors[i]] = -np.inf
            others = np.flatnonzero(np.isfinite(c))
            for j in others:
                assert (P[i, others[c[others] == c[j]]] == P[i, j]).all()
            t = P[i, anchors[i]]
            pooled = others[ref[i, others] == t]
            for j in np.flatnonzero(P[i] != ref[i]):
                assert kind == "repeat" and P[i, j] == t
                assert pooled.size and c[j] == c[pooled].min()


def test_pool_boundary_inside_a_tie():
    """A row whose rounded prefix means peak inside a run of equal outputs:
    the oracle splits the run by an ulp, the kernel keeps it equal."""
    x = 0.8603286042588343
    Q = np.array([[0.015942371470798685, x, x, x, -0.9272510064242274, x]])
    Y = np.ones_like(Q, dtype=bool)
    P = _update_rows(Q, Y, 0.0)
    ref = oracles.update_rows_argsort(Q, Y, 0.0)
    assert not np.array_equal(P, ref)
    assert (P[0, [1, 2, 3, 5]] == P[0, 1]).all()
    assert len(set(ref[0, [1, 2, 3, 5]])) == 2
