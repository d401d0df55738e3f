"""Bandwidth heuristic and Gram matrix behavior."""

import numpy as np
import pytest

from surepl.kernel import gram_matrix, mean_pairwise_distance


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

    def test_sigma_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            gram_matrix(np.ones((2, 2)), np.ones((2, 2)), sigma=0.0)
