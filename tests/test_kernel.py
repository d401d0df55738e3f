"""Bandwidth heuristic and Gram matrix behavior."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dtrttf
from scipy.spatial.distance import cdist

import oracles
from surepl.kernel import PACK_WIDTH, gram_matrix, mean_pairwise_distance, packed_gram


class TestMeanPairwiseDistance:
    def test_single_pair_345(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert mean_pairwise_distance(X) == pytest.approx(5.0, abs=0)

    def test_three_points_on_line(self):
        X = np.array([[0.0], [1.0], [2.0]])
        assert mean_pairwise_distance(X) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(123)
        X = rng.standard_normal((50, 5))
        total, count = 0.0, 0
        for i in range(50):
            for j in range(i + 1, 50):
                total += np.sqrt(((X[i] - X[j]) ** 2).sum())
                count += 1
        assert mean_pairwise_distance(X) == pytest.approx(total / count, abs=1e-12)

    def test_identical_rows_degenerate(self):
        X = np.ones((4, 3))
        with pytest.raises(ValueError, match="degenerate bandwidth"):
            mean_pairwise_distance(X)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="two instances"):
            mean_pairwise_distance(np.ones((1, 3)))

    @pytest.mark.parametrize("m", [2, 3, 64, 65, 128, 513, 514, 2000])
    def test_training_bandwidth_within_4_ulps_of_pdist(self, m):
        """The packed builder's default bandwidth is mean_pairwise_distance's
        bit for bit, and both lie within 4 ulps of the mean of pdist's
        condensed distances, which sums in another order.  From m = 128 the
        packed array spans more than one summation block of m PACK_WIDTH
        entries; at m = 2000 it spans 16."""
        X = np.random.default_rng(m).standard_normal((m, 7))
        sigma = mean_pairwise_distance(X)
        assert packed_gram(X)[1] == sigma
        reference = oracles.mean_pdist(X)
        assert abs(sigma - reference) <= 4 * np.spacing(reference)


class TestGramMatrix:
    def test_self_similarity_is_one(self):
        X = np.array([[1.0, 2.0, 3.0]])
        K = gram_matrix(X, X, sigma=0.7)
        assert K[0, 0] == 1.0

    def test_hand_value(self):
        xi = np.array([[0.0, 0.0]])
        xj = np.array([[3.0, 4.0]])
        K = gram_matrix(xi, xj, sigma=5.0)
        assert K[0, 0] == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_square_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((40, 6))
        K = gram_matrix(X, X, sigma=2.0)
        assert np.abs(K - K.T).max() <= 1e-12
        assert (np.diag(K) == 1.0).all()
        off = K - np.eye(40)
        assert off.max() <= 1.0
        assert (K > 0).all() and (K <= 1.0).all()

    @pytest.mark.parametrize("m", [1, 2, 513, 1025])
    def test_square_case_exactly_symmetric(self, m):
        """The ridge factor reads one triangle of K, so the square Gram
        matrix must equal its transpose bit for bit."""
        X = np.random.default_rng(m).standard_normal((m, 10))
        K = gram_matrix(X, X, sigma=3.0)
        assert np.array_equal(K, K.T)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 4))
        Z = rng.standard_normal((7, 4))
        K = gram_matrix(X, Z, sigma=1.3)
        perm = rng.permutation(12)
        assert np.array_equal(gram_matrix(X[perm], Z, sigma=1.3), K[perm])
        # applying one permutation to both sides of the square case
        Ksq = gram_matrix(X, X, sigma=1.3)
        assert np.array_equal(gram_matrix(X[perm], X[perm], sigma=1.3), Ksq[perm][:, perm])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gram_matrix(np.ones((2, 3)), np.ones((2, 4)), sigma=1.0)

    def test_holds_one_matrix_and_matches_formula(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((600, 8))
        Z = rng.standard_normal((500, 8))
        tracemalloc.start()
        try:
            K = gram_matrix(X, Z, sigma=1.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * K.nbytes
        assert np.array_equal(K, np.exp(-cdist(X, Z, "sqeuclidean") / (2.0 * 1.7 * 1.7)))

    def test_sigma_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            gram_matrix(np.ones((2, 2)), np.ones((2, 2)), sigma=0.0)

    @pytest.mark.parametrize("sigma", [-1.0, np.inf, np.nan, 1e-300])
    def test_unusable_sigma_named(self, sigma):
        """1e-300 is positive, but 2 sigma^2 underflows to 0."""
        with pytest.raises(ValueError, match=f"2 sigma\\^2 > 0, got {sigma}"):
            gram_matrix(np.ones((2, 2)), np.ones((2, 2)), sigma=sigma)

    def test_overflowing_exponent_is_an_exact_zero(self):
        """With 2 sigma^2 subnormal, every off-diagonal quotient overflows to
        -inf, silently, and exp makes it 0."""
        X = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(gram_matrix(X, X, sigma=1e-160), np.eye(3))


class TestPackedGram:
    @pytest.mark.parametrize("m", [1, 2, 3, 64, 65, 513, 514])
    def test_matches_packed_full_matrix(self, m):
        """Built in column blocks straight into RFP storage, each entry has
        the bits that dtrttf packs from the full Gram matrix, for odd and
        even m and for m below, at and past one block, with a given bandwidth
        and with the default one taken from the same packed array."""
        X = np.random.default_rng(m).standard_normal((m, 7))
        R, sigma = packed_gram(X, 2.3)
        assert R.shape == (m * (m + 1) // 2,) and sigma == 2.3
        assert np.array_equal(R, dtrttf(gram_matrix(X, X, 2.3), transr="N", uplo="L")[0])
        R, sigma = packed_gram(X)
        assert np.array_equal(R, dtrttf(gram_matrix(X, X, sigma), transr="N", uplo="L")[0])

    @pytest.mark.parametrize("m", [64, 65])
    def test_overflowing_exponent_packs_the_identity(self, m):
        """With 2 sigma^2 subnormal every off-diagonal entry is exactly 0, so
        the packed array is the packed identity."""
        X = np.random.default_rng(m).standard_normal((m, 3))
        R, _ = packed_gram(X, 1e-160)
        assert np.array_equal(R, dtrttf(np.eye(m), transr="N", uplo="L")[0])
        assert np.count_nonzero(R) == m

    def test_holds_the_packed_array_and_one_block(self):
        """Besides the packed array, the build holds O(m PACK_WIDTH) tiles, and
        the default bandwidth O(m PACK_WIDTH) square roots at a time."""
        X = np.random.default_rng(5).standard_normal((1000, 4))
        tracemalloc.start()
        try:
            R, _ = packed_gram(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < R.nbytes + 3 * 8 * 1000 * PACK_WIDTH
