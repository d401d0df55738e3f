"""Self-consistency of the reference implementations in oracles.py.

The production tests lean on these oracles, so the oracles themselves get
cross-checked here through routes independent of each other.
"""

import numpy as np
import pytest

import oracles


class TestAnchoredProjections:
    def test_active_set_matches_projected_gradient(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            l = int(rng.integers(2, 7))
            y = oracles.random_support(rng, l)
            c = rng.uniform(-1, 1.5, l)
            j = int(rng.choice(np.flatnonzero(y)))
            exact = oracles.active_set_projection(c, y, j)
            assert np.linalg.norm(exact - oracles.oracle_project(c, y, j)) <= 1e-5


class TestBisectBoxSimplex:
    def test_satisfies_constraints_and_beats_random_feasible(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            q = rng.uniform(-2, 2, n)
            cap = float(rng.uniform(0.3, 1.0))
            total = float(rng.uniform(0.1, min(1.0, cap * n - 1e-6)))
            p = oracles._bisect_box_simplex(q, cap, total)
            assert (p >= -1e-10).all() and (p <= cap + 1e-10).all()
            assert abs(p.sum() - total) <= 1e-9
            obj = ((p - q) ** 2).sum()
            for _ in range(200):
                w = rng.random(n)
                w = w / w.sum() * total
                if (w > cap).any():
                    continue
                assert obj <= ((w - q) ** 2).sum() + 1e-9


class TestGridBruteForceRoutes:
    def test_barycentric_and_slicing_agree_on_small_supports(self):
        # supports of size 2 and 3 can run through both routes; force the
        # slicing route by inflating l with non-candidates
        rng = np.random.default_rng(2)
        for _ in range(12):
            l = int(rng.integers(2, 5))
            s = int(rng.integers(2, min(3, l) + 1))
            y = np.zeros(l, dtype=np.uint8)
            y[rng.choice(l, s, replace=False)] = 1
            q = rng.uniform(-1, 1, l)
            lam = float(rng.choice([0.0, 0.3, 1.0]))
            bary = oracles.grid_bruteforce_op(q, y, lam, step=1e-3)

            sup = np.flatnonzero(y)
            qs = q[sup]
            off = float((q[np.flatnonzero(y == 0)] ** 2).sum())
            ts = np.arange(int(np.ceil(1000 / s)), 1001) / 1000.0
            ts = ts[~((s - 1) * ts < 1.0 - ts - 1e-12)]
            best = np.inf
            for a in range(s):
                q_other = np.delete(qs, a)
                p_other = oracles._bisect_box_simplex(q_other, ts, 1.0 - ts)  # one row per t
                vals = (ts - qs[a]) ** 2 + ((p_other - q_other) ** 2).sum(axis=1) - lam * ts
                best = min(best, float(vals.min()))
            assert bary == pytest.approx(off + best, abs=2e-3)

    def test_trivial_singleton(self):
        q = np.array([0.2, -0.4, 0.9])
        y = np.array([0, 1, 0])
        val = oracles.grid_bruteforce_op(q, y, 0.5)
        expected = 0.2**2 + (1.0 + 0.4) ** 2 + 0.9**2 - 0.5
        assert val == pytest.approx(expected, abs=1e-12)


class TestTQuadrature:
    def test_matches_known_table_values(self):
        # two-tailed p for t=2.228, df=10 is 0.05 (standard critical value)
        assert oracles.t_two_tailed_pvalue_quad(2.228, 10) == pytest.approx(0.05, abs=2e-4)
        # t=0 gives p=1
        assert oracles.t_two_tailed_pvalue_quad(0.0, 5) == pytest.approx(1.0, abs=1e-10)

    def test_pdf_integrates_to_one(self):
        from scipy.integrate import quad

        for df in (1, 4, 9):
            total, _ = quad(oracles.t_pdf, -np.inf, np.inf, args=(df,))
            assert total == pytest.approx(1.0, abs=1e-8)


class TestGdFitLinear:
    def test_reaches_stationarity(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 3))
        P = rng.random((12, 2))
        W, b = oracles.gd_fit_linear(X, P, beta=0.2)
        gW, gb = oracles.linear_gradient(X, P, 0.2, W, b)
        assert max(np.abs(gW).max(), np.abs(gb).max()) <= 1e-10
