"""Closed-form ridge fits: stationarity, oracle comparisons, serialization."""

import tracemalloc

import numpy as np
import pytest

import oracles
from surepl import ridge
from surepl.kernel import gram_matrix, mean_pairwise_distance, packed_gram
from surepl.ridge import (
    KernelModel,
    KernelRidgeSolver,
    SingularSystemError,
    fit_kernel,
    fit_linear,
    load_model,
    model_outputs,
    save_model,
)
from surepl.training import predict


def random_problem(rng, m, n, l):
    X = rng.standard_normal((m, n))
    P = rng.random((m, l))
    P /= P.sum(axis=1, keepdims=True)
    return X, P


def condition_bound(m, beta):
    """The a-priori lower bound on the reciprocal 1-norm condition number of
    K + beta I for a Gaussian Gram matrix K of m rows."""
    return beta / ((m + beta) * np.sqrt(m))


class TestFitLinear:
    def test_m_equals_one_bias_only(self):
        X = np.array([[2.0, -1.0, 0.5]])
        P = np.array([[0.2, 0.8]])
        W, b = fit_linear(X, P, beta=0.4)
        assert np.abs(W).max() <= 1e-12
        assert np.allclose(b, P[0], atol=1e-12)

    def test_huge_beta_collapses_to_column_means(self):
        rng = np.random.default_rng(0)
        X, P = random_problem(rng, 25, 3, 4)
        W, b = fit_linear(X, P, beta=1e12)
        assert np.abs(W).max() <= 1e-9
        assert np.allclose(b, P.mean(axis=0), atol=1e-9)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(7)
        X, P = random_problem(rng, 20, 3, 4)
        beta = 0.1
        W, b = fit_linear(X, P, beta)
        W_gd, b_gd = oracles.gd_fit_linear(X, P, beta)
        obj_cf = oracles.linear_objective(X, P, beta, W, b)
        obj_gd = oracles.linear_objective(X, P, beta, W_gd, b_gd)
        assert obj_cf == pytest.approx(obj_gd, rel=1e-6)
        assert obj_cf <= obj_gd + 1e-9

    def test_stationarity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = int(rng.integers(2, 30))
            X, P = random_problem(rng, m, int(rng.integers(1, 6)), int(rng.integers(1, 5)))
            beta = float(rng.uniform(0.01, 2.0))
            W, b = fit_linear(X, P, beta)
            gW, gb = oracles.linear_gradient(X, P, beta, W, b)
            gnorm = np.sqrt((gW**2).sum() + (gb**2).sum())
            assert gnorm <= 1e-8 * (1.0 + np.linalg.norm(P))

    def test_centering_shift_property(self):
        rng = np.random.default_rng(2)
        X, P = random_problem(rng, 15, 4, 3)
        shift = np.array([0.5, -2.0, 1.25])
        W0, b0 = fit_linear(X, P, beta=0.3)
        W1, b1 = fit_linear(X, P + shift, beta=0.3)
        assert np.allclose(W1, W0, atol=1e-10)
        assert np.allclose(b1, b0 + shift, atol=1e-10)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            fit_linear(np.ones((2, 2)), np.ones((2, 2)), beta=0.0)

    @pytest.mark.parametrize("X, P, beta, message", [
        (np.ones((2, 2)), np.ones((2, 2)), np.inf, "beta must be positive and finite, got inf"),
        (np.ones((2, 2)), np.ones((2, 2)), np.nan, "beta must be positive and finite, got nan"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones((2, 2)), 0.1, "X and P must be finite"),
        (np.eye(2), np.array([[0.5, np.inf], [1.0, 0.0]]), 0.1, "X and P must be finite"),
        (np.array([[1e200, 0.0], [0.0, 1.0], [2e200, 1.0]]), np.eye(3)[:, :2], 0.1,
         "X and P overflow the linear ridge system"),
    ])
    def test_malformed_input_rejected(self, X, P, beta, message):
        with pytest.raises(ValueError, match=message):
            fit_linear(X, P, beta)

    def test_matches_augmented_normal_equations(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            m = int(rng.integers(2, 60))
            X, P = random_problem(rng, m, int(rng.integers(1, 8)), int(rng.integers(2, 6)))
            beta = float(10 ** rng.uniform(-2, 1))
            W, b = fit_linear(X, P, beta)
            W_ref, b_ref = oracles.solve_fit_linear(X, P, beta)
            assert np.linalg.norm(W - W_ref) <= 1e-9 * np.linalg.norm(W_ref)
            assert np.linalg.norm(b - b_ref) <= 1e-9 * np.linalg.norm(b_ref)


class TestFitKernel:
    def test_m_equals_one_bias_only(self):
        A, b = fit_kernel(np.array([[1.0]]), np.array([[0.3, 0.7]]), beta=0.5)
        assert np.abs(A).max() <= 1e-12
        assert np.allclose(b, [0.3, 0.7], atol=1e-12)

    def test_identical_rows_fit_exactly_by_bias(self):
        rng = np.random.default_rng(3)
        K = gram_matrix(rng.standard_normal((8, 2)), rng.standard_normal((8, 2)), 1.0)
        K = (K @ K.T) / 8 + np.eye(8) * 0.1  # any symmetric PSD works here
        row = np.array([0.2, 0.5, 0.3])
        P = np.tile(row, (8, 1))
        A, b = fit_kernel(K, P, beta=0.7)
        assert np.abs(A).max() <= 1e-12
        assert np.allclose(b, row, atol=1e-12)

    def test_minimal_among_random_perturbations(self):
        rng = np.random.default_rng(4)
        m, l = 15, 3
        X = rng.standard_normal((m, 2))
        K = gram_matrix(X, X, sigma=1.5)
        P = rng.random((m, l))
        P /= P.sum(axis=1, keepdims=True)
        beta = 0.5
        A, b = fit_kernel(K, P, beta)
        best = oracles.kernel_objective(K, P, beta, A, b)
        for _ in range(1000):
            dA = rng.standard_normal((m, l)) * rng.choice([1e-3, 1e-1, 1.0])
            db = rng.standard_normal(l) * rng.choice([1e-3, 1e-1, 1.0])
            assert best <= oracles.kernel_objective(K, P, beta, A + dA, b + db) + 1e-9

    def test_stationarity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 25))
            X = rng.standard_normal((m, 3))
            K = gram_matrix(X, X, sigma=float(rng.uniform(0.5, 3.0)))
            P = rng.random((m, int(rng.integers(1, 5))))
            P /= P.sum(axis=1, keepdims=True)
            beta = float(rng.uniform(0.01, 2.0))
            A, b = fit_kernel(K, P, beta)
            gA, gb = oracles.kernel_gradient(K, P, beta, A, b)
            gnorm = np.sqrt((gA**2).sum() + (gb**2).sum())
            assert gnorm <= 1e-8 * (1.0 + np.linalg.norm(P))

    def test_centering_shift_property(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((12, 2))
        K = gram_matrix(X, X, sigma=1.0)
        P = rng.random((12, 3))
        shift = np.array([1.0, -0.25, 0.5])
        A0, b0 = fit_kernel(K, P, beta=0.2)
        A1, b1 = fit_kernel(K, P + shift, beta=0.2)
        assert np.allclose(A1, A0, atol=1e-10)
        assert np.allclose(b1, b0 + shift, atol=1e-10)

    def test_linear_kernel_matches_linear_fit(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((18, 3))
        P = rng.random((18, 4))
        P /= P.sum(axis=1, keepdims=True)
        beta = 0.5
        W, b_lin = fit_linear(X, P, beta)
        A, b = fit_kernel(X @ X.T, P, beta)
        out_lin = X @ W + b_lin
        out_ker = (X @ X.T) @ A + b
        assert np.abs(out_lin - out_ker).max() <= 1e-8

    def test_asymmetric_kernel_rejected(self):
        K = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="asymmetric"):
            fit_kernel(K, np.ones((2, 2)), beta=0.1)

    @pytest.mark.parametrize("K, P, beta, message", [
        (np.ones((2, 3)), np.ones((2, 2)), 0.1, "K must be square"),
        (np.ones(4), np.ones((4, 2)), 0.1, "K must be square"),
        (np.eye(2), np.ones((2, 2)), 0.0, "beta must be positive"),
        (np.eye(2), np.ones((2, 2)), -1.0, "beta must be positive"),
        (np.eye(2), np.ones((2, 2)), np.nan, "beta must be positive"),
        (np.eye(3), np.eye(3), np.inf, "beta must be positive and finite, got inf"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones((2, 2)), 0.1, "K must be finite"),
        (np.array([[1.0, 0.0], [0.0, np.inf]]), np.ones((2, 2)), 0.1, "K must be finite"),
        (np.eye(2), np.ones((3, 2)), 0.1, "P must have one row per training instance"),
        (np.eye(2), np.ones(2), 0.1, "P must have one row per training instance"),
    ])
    def test_malformed_input_rejected(self, K, P, beta, message):
        with pytest.raises(ValueError, match=message):
            fit_kernel(K, P, beta)

    def test_fit_holds_one_extra_matrix(self):
        """The checks at fit_kernel's entry add no m x m temporary to the factor's."""
        X = np.random.default_rng(24).standard_normal((600, 5))
        K = gram_matrix(X, X, sigma=2.0)
        P = np.full((600, 3), 1.0 / 3.0)
        tracemalloc.start()
        try:
            fit_kernel(K, P, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * K.nbytes

    def test_fit_leaves_k_unchanged(self):
        """The solver overwrites the matrix it is given; fit_kernel hands it
        a working copy, so the caller's K keeps its bits."""
        X = np.random.default_rng(25).standard_normal((40, 3))
        K = gram_matrix(X, X, sigma=1.5)
        K_before = K.copy()
        fit_kernel(K, np.full((40, 2), 0.5), 0.1)
        assert np.array_equal(K, K_before)

    @pytest.mark.parametrize("row, col", [(599, 520), (520, 599), (599, 3), (3, 599)])
    def test_asymmetry_in_last_partial_tile_rejected(self, row, col):
        """An entry at the last row or column, in either triangle, is
        compared with its mirror."""
        X = np.random.default_rng(23).standard_normal((600, 3))
        K = gram_matrix(X, X, sigma=1.0)
        K[row, col] += 1e-6
        with pytest.raises(ValueError, match=r"asymmetric: max \|K - K\^T\| = 1\.000e-06"):
            fit_kernel(K, np.full((600, 2), 0.5), 0.1)

    @pytest.mark.parametrize("m", [1, 2, 513, 1025])
    def test_factor_matches_transposed_order_build(self, m):
        """Built from the packed Gram matrix with beta added in place, the
        factor is bit-identical to LAPACK's dpftrf of dtrttf(K + beta I).

        The solver is guarded by the a-priori condition bound, which depends
        on (m, beta) alone, and not by LAPACK's pocon estimate of the oracle;
        the bound is no higher than that estimate.
        """
        X = np.random.default_rng(m).standard_normal((m, 5))
        K = gram_matrix(X, X, sigma=2.5)
        solver = KernelRidgeSolver(packed_gram(X, 2.5), 0.05)
        factor, rcond = oracles.kernel_ridge_factor_packed(K, 0.05)
        assert np.array_equal(solver._factor, factor)
        assert condition_bound(m, 0.05) <= rcond

    def test_condition_bound_never_above_the_estimate(self):
        """beta / ((m + beta) sqrt(m)) bounds the reciprocal 1-norm condition
        number of a Gaussian system from below; pocon's estimate of it is no
        lower, since it underestimates ||M^-1||_1."""
        rng = np.random.default_rng(31)
        for _ in range(60):
            m = int(rng.integers(2, 401))
            X = rng.standard_normal((m, int(rng.integers(1, 7))))
            K = gram_matrix(X, X, sigma=float(rng.uniform(0.3, 3.0)))
            beta = float(10 ** rng.uniform(-9, 1))
            _, rcond = oracles.kernel_ridge_factor_packed(K, beta)
            assert condition_bound(m, beta) <= rcond

    @pytest.mark.parametrize("m, beta", [(1, 1e-300), (300, 4e-10), (4000, 2e-8)])
    def test_hopeless_beta_refused_before_any_work(self, monkeypatch, m, beta):
        """A beta whose condition bound is below the floor is refused by
        name before the packed K is read or factored."""
        def no_factor(*args, **kwargs):
            raise AssertionError("factored a system the bound refuses")

        monkeypatch.setattr(ridge, "dpftrf", no_factor)
        # read-only, and any read of it shows
        K = np.broadcast_to(np.nan, (m * (m + 1) // 2,))
        with pytest.raises(SingularSystemError, match=r"condition bound \d\.\d{3}e-\d+ < 1e-13"):
            KernelRidgeSolver(K, beta)

    def test_singular_system_names_condition(self):
        beta = 0.25
        K = -beta * np.eye(2)  # makes K + beta I the zero matrix
        with pytest.raises(SingularSystemError, match="condition estimate"):
            fit_kernel(K, np.ones((2, 2)) * 0.5, beta=beta)

    @pytest.mark.parametrize("u, scale", [
        # eigenvalue -5 on (1, -1, 0) / sqrt(2), which is orthogonal to 1
        (np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0), 6.0),
        # eigenvalue -1 on 1 alone: the bordered system has a solution, but
        # K + beta I has eigenvalue beta - 1 < 0 and so no Cholesky factor
        (np.ones(3) / np.sqrt(3.0), 2.0),
    ])
    def test_not_positive_definite_names_condition(self, u, scale):
        K = np.eye(3) - scale * np.outer(u, u)
        with pytest.raises(SingularSystemError, match="condition estimate"):
            fit_kernel(K, np.full((3, 2), 0.5), beta=0.1)

    def test_matches_nonsymmetric_system(self):
        rng = np.random.default_rng(16)
        for trial in range(40):
            m = int(rng.integers(2, 61))
            if trial % 2:
                X = rng.standard_normal((m, int(rng.integers(1, 6))))
                K = gram_matrix(X, X, sigma=float(rng.uniform(0.3, 3.0)))
            else:
                Z = rng.standard_normal((m, int(rng.integers(1, m + 1))))
                K = Z @ Z.T
            P = rng.random((m, int(rng.integers(2, 6))))  # one column would make H P = 0
            P /= P.sum(axis=1, keepdims=True)
            beta = float(10 ** rng.uniform(-2, 0.5))
            A, b = fit_kernel(K, P, beta)
            A_ref, b_ref = oracles.solve_fit_kernel(K, P, beta)
            assert np.linalg.norm(A - A_ref) <= 1e-9 * np.linalg.norm(A_ref)
            assert np.linalg.norm(b - b_ref) <= 1e-9 * np.linalg.norm(b_ref)
            assert np.abs(A.sum(axis=0)).max() <= 1e-10 * np.linalg.norm(A)

    @pytest.mark.parametrize("beta", [0.01, 0.05, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 7, 60, 600])
    def test_training_scores_are_p_minus_beta_a(self, m, beta):
        """K A + 1 b^T = P - beta A for a fit to any P, so training never
        needs K after the factor is built."""
        rng = np.random.default_rng(17 + m)
        X = rng.standard_normal((m, 3))
        K = gram_matrix(X, X, sigma=1.1)
        P = rng.random((m, 4))
        A, b = KernelRidgeSolver(oracles.pack(K), beta).solve(P)
        scale = np.abs(K) @ np.abs(A) + np.abs(b)
        assert np.all(np.abs(P - beta * A - (K @ A + b)) <= 1e-9 * scale)

    def test_training_scores_hold_on_p_scale_at_small_beta(self):
        """The identity holds to round-off of P itself at beta = 0.001, a
        point of the default grid, although A's entries reach ~8e2 at m =
        2000; a tolerance scaled by |K||A| + |b| (~1e5 here) would hide an
        error far above round-off."""
        rng = np.random.default_rng(2000)
        m, beta = 2000, 0.001
        X = rng.standard_normal((m, 3))
        K = gram_matrix(X, X, sigma=mean_pairwise_distance(X))
        Y = rng.random((m, 4)) < 0.5
        Y[np.arange(m), rng.integers(0, 4, m)] = True
        P = Y / Y.sum(axis=1, keepdims=True)  # the normalized candidate start
        A, b = KernelRidgeSolver(oracles.pack(K), beta).solve(P)
        err = np.abs(P - beta * A - (K @ A + b)).max()
        assert err <= 1e-9 * max(1.0, np.abs(P).max())

    def test_factor_holds_one_extra_matrix(self):
        """The solver builds and factors its system in the packed array it is
        given, so it allocates no array of that size."""
        X = np.random.default_rng(12).standard_normal((600, 5))
        K = packed_gram(X, 2.0)
        tracemalloc.start()
        try:
            KernelRidgeSolver(K, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < K.nbytes // 4

    def test_solver_reuse_matches_single_shot(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((10, 2))
        K = gram_matrix(X, X, sigma=1.0)
        solver = KernelRidgeSolver(oracles.pack(K), beta=0.3)
        for _ in range(3):
            P = rng.random((10, 3))
            A1, b1 = solver.solve(P)
            A2, b2 = fit_kernel(K, P, beta=0.3)
            assert np.array_equal(A1, A2) and np.array_equal(b1, b2)

    def test_solve_ignores_memory_layout(self):
        """C and Fortran copies of one P give the same bits; the values are
        not dyadic, so a column sum taken in another order would round
        differently."""
        rng = np.random.default_rng(21)
        X = rng.standard_normal((300, 3))
        solver = KernelRidgeSolver(packed_gram(X, 1.3), beta=0.1)
        P = rng.random((300, 5)) / 3.0
        A_c, b_c = solver.solve(np.ascontiguousarray(P))
        A_f, b_f = solver.solve(np.asfortranarray(P))
        assert np.array_equal(A_c, A_f) and np.array_equal(b_c, b_f)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_confidences_rejected(self, bad):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((12, 2))
        P = rng.random((12, 3))
        P[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_kernel(gram_matrix(X, X, sigma=1.0), P, beta=0.2)


class TestModelOutputs:
    def make_model(self, rng, m=9, n=3, l=4):
        X = rng.standard_normal((m, n))
        A = rng.standard_normal((m, l))
        b = rng.standard_normal(l)
        return KernelModel(X, A, b, sigma=1.7)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan, 1e-300])
    def test_unusable_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match=f"2 sigma\\^2 > 0, got {sigma}"):
            KernelModel(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1), sigma)

    def test_zero_weights_bias_rows(self):
        rng = np.random.default_rng(10)
        model = KernelModel(rng.standard_normal((5, 2)), np.zeros((5, 3)), np.array([0.1, 0.9, 0.3]), 1.0)
        out = model_outputs(model, rng.standard_normal((7, 2)))
        assert np.array_equal(out, np.tile([0.1, 0.9, 0.3], (7, 1)))

    def test_training_query_equals_gram_product(self):
        rng = np.random.default_rng(11)
        model = self.make_model(rng)
        K = gram_matrix(model.train_X, model.train_X, model.sigma)
        assert np.array_equal(model_outputs(model, model.train_X), K @ model.A + model.b)

    def test_single_query_scalar_loop(self):
        rng = np.random.default_rng(12)
        model = self.make_model(rng)
        x = rng.standard_normal((1, 3))
        out = model_outputs(model, x)[0]
        for j in range(4):
            acc = model.b[j]
            for i in range(model.train_X.shape[0]):
                diff = x[0] - model.train_X[i]
                acc += model.A[i, j] * np.exp(-(diff @ diff) / (2 * model.sigma**2))
            assert out[j] == pytest.approx(acc, abs=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(13)
        model = self.make_model(rng)
        with pytest.raises(ValueError, match="dimension mismatch"):
            model_outputs(model, np.ones((2, 5)))

    @pytest.mark.parametrize("score", [model_outputs, predict])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_names_row(self, score, bad):
        rng = np.random.default_rng(17)
        model = self.make_model(rng)
        queries = rng.standard_normal((5, 3))
        queries[3, 0] = bad
        with pytest.raises(ValueError, match="query row 3"):
            score(model, queries)

    def test_holds_one_block_of_the_query_gram(self, monkeypatch):
        rng = np.random.default_rng(15)
        model = self.make_model(rng, m=200)
        queries = rng.standard_normal((4000, 3))
        gram_bytes = 4000 * 200 * 8
        monkeypatch.setattr(ridge, "SCORE_BLOCK_BYTES", gram_bytes // 8)
        tracemalloc.start()
        try:
            model_outputs(model, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gram_bytes / 4

    def test_blocks_score_like_separate_queries(self, monkeypatch):
        """A multi-block query scores each block as that block alone would,
        and `predict`, the scorer grid search uses too, takes its argmax."""
        rng = np.random.default_rng(16)
        model = self.make_model(rng, m=300, l=5)
        queries = rng.standard_normal((1000, 3))
        monkeypatch.setattr(ridge, "SCORE_BLOCK_BYTES", 300 * 8 * 256)
        blocks = ridge._row_blocks(1000, 300)
        assert [s.stop - s.start for s in blocks] == [250] * 4
        whole = model_outputs(model, queries)
        alone = np.vstack([model_outputs(model, queries[s]) for s in blocks])
        assert np.array_equal(whole.argmax(axis=1), alone.argmax(axis=1))
        assert np.array_equal(whole, alone)
        G = gram_matrix(queries, model.train_X, model.sigma)
        assert np.array_equal(predict(model, queries), whole.argmax(axis=1))
        assert np.abs(whole - (G @ model.A + model.b)).max() <= 1e-12


class TestModelSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        model = KernelModel(
            rng.standard_normal((6, 2)),
            rng.standard_normal((6, 3)) * 1e-7,
            rng.standard_normal(3) * 1e3,
            sigma=0.123456789123456789,
        )
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.train_X, model.train_X)
        assert np.array_equal(back.A, model.A)
        assert np.array_equal(back.b, model.b)
        assert back.sigma == model.sigma
        assert path.read_text().splitlines()[0] == "sure-model 1"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("who knows\n")
        with pytest.raises(ValueError, match="model file"):
            load_model(path)

    @pytest.mark.parametrize("header", ["", "3 2 x 1.5", "3 2.5 2 1.5", "3 2 2", "3 2 2 wide"])
    def test_bad_size_line_names_line_2(self, tmp_path, header):
        path = tmp_path / "bad.model"
        path.write_text("sure-model 1\n" + (header + "\n" if header else ""))
        with pytest.raises(ValueError, match="line 2"):
            load_model(path)

    def test_finite_validation(self):
        with pytest.raises(ValueError, match="finite"):
            KernelModel(np.ones((2, 2)), np.full((2, 2), np.nan), np.ones(2), 1.0)
