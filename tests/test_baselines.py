"""PLKNN voting, tie-breaking, and the full-sort oracle comparison."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import oracles
from surepl import kernel
from surepl.baselines import KnnConfig, _nearest, plknn_predict
from surepl.data import PLDataset


def make_train(rng, m=30, n=3, l=5):
    features = rng.standard_normal((m, n))
    candidates = np.stack([oracles.random_support(rng, l) for _ in range(m)])
    return PLDataset(features, candidates)


class TestPlknn:
    def test_exact_match_singleton(self):
        features = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        candidates = np.array([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
        train = PLDataset(features, candidates)
        pred = plknn_predict(train, np.array([[0.0, 0.0]]), KnnConfig(k=1))
        assert pred[0] == 2

    def test_forced_majority(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((8, 2))
        candidates = np.zeros((8, 4), dtype=int)
        candidates[:, 1] = 1  # label 1 in every candidate set
        extras = [0, 2, 3, 0, 2, 3, 0, 2]  # no other label more than 3 times
        for i, e in enumerate(extras):
            candidates[i, e] = 1
        train = PLDataset(features, candidates)
        pred = plknn_predict(train, rng.standard_normal((10, 2)), KnnConfig(k=5))
        assert (pred == 1).all()

    def test_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(1)
        train = make_train(rng, m=30)
        queries = rng.standard_normal((50, 3))
        pred = plknn_predict(train, queries, KnnConfig(k=5))
        ref = oracles.knn_exhaustive_predict(train.features, train.candidates, queries, 5)
        assert np.array_equal(pred, ref)

    def test_distance_tie_prefers_lower_training_index(self):
        features = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 3.0]])
        candidates = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        train = PLDataset(features, candidates)
        # query equidistant from rows 0 and 1; k=1 must take row 0
        pred = plknn_predict(train, np.array([[0.0, 0.0]]), KnnConfig(k=1))
        assert pred[0] == 0

    def test_vote_tie_prefers_lower_label(self):
        features = np.array([[0.0], [0.1], [5.0]])
        candidates = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        train = PLDataset(features, candidates)
        pred = plknn_predict(train, np.array([[0.05]]), KnnConfig(k=2))
        assert pred[0] == 1  # labels 1 and 2 each get one vote; lower wins

    def test_vote_counts_sum_to_candidate_mass(self):
        rng = np.random.default_rng(2)
        train = make_train(rng, m=20)
        queries = rng.standard_normal((5, 3))
        k = 6
        from scipy.spatial.distance import cdist

        nn = np.argsort(cdist(queries, train.features), axis=1, kind="stable")[:, :k]
        votes = train.candidates[nn].sum(axis=1)
        assert np.array_equal(votes.sum(axis=1), train.candidates[nn].sum(axis=(1, 2)))

    def test_invariant_to_training_order_with_distinct_distances(self):
        rng = np.random.default_rng(3)
        train = make_train(rng, m=25)
        queries = rng.standard_normal((20, 3))
        pred = plknn_predict(train, queries, KnnConfig(k=7))
        perm = rng.permutation(25)
        shuffled = PLDataset(train.features[perm], train.candidates[perm])
        assert np.array_equal(plknn_predict(shuffled, queries, KnnConfig(k=7)), pred)

    def test_k_bounds(self):
        rng = np.random.default_rng(4)
        train = make_train(rng, m=5)
        with pytest.raises(ValueError, match="smaller"):
            plknn_predict(train, rng.standard_normal((2, 3)), KnnConfig(k=5))
        with pytest.raises(ValueError):
            KnnConfig(k=0)
        for k in (2.5, 2.0, "3", True):
            with pytest.raises(ValueError, match=f"k must be at least 1 and an integer, got {k}"):
                KnnConfig(k=k)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        train = make_train(rng)
        with pytest.raises(ValueError, match="dimension mismatch"):
            plknn_predict(train, rng.standard_normal((2, 7)), KnnConfig(k=3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_names_row(self, bad):
        rng = np.random.default_rng(6)
        train = make_train(rng)
        queries = rng.standard_normal((4, 3))
        queries[2, 1] = bad
        with pytest.raises(ValueError, match="query row 2"):
            plknn_predict(train, queries, KnnConfig(k=3))

    def test_query_must_be_a_matrix(self):
        train = make_train(np.random.default_rng(7))
        with pytest.raises(ValueError, match="2-D"):
            plknn_predict(train, np.zeros(3), KnnConfig(k=3))

    def test_blocks_vote_like_separate_queries(self, monkeypatch):
        """A query spanning several row blocks predicts as its blocks would
        alone, and as the exhaustive search does."""
        rng = np.random.default_rng(9)
        train = make_train(rng, m=40)
        queries = rng.standard_normal((300, 3))
        monkeypatch.setattr(kernel, "ROW_BLOCK_BYTES", 40 * 8 * 64)
        blocks = kernel.row_blocks(300, 40)
        assert [s.stop - s.start for s in blocks] == [60] * 5
        pred = plknn_predict(train, queries, KnnConfig(k=5))
        alone = np.hstack([plknn_predict(train, queries[s], KnnConfig(k=5)) for s in blocks])
        assert np.array_equal(pred, alone)
        ref = oracles.knn_exhaustive_predict(train.features, train.candidates, queries, 5)
        assert np.array_equal(pred, ref)

    def test_holds_one_block_of_the_distances(self, monkeypatch):
        rng = np.random.default_rng(10)
        train = make_train(rng, m=200)
        queries = rng.standard_normal((4000, 3))
        dist_bytes = 4000 * 200 * 8
        monkeypatch.setattr(kernel, "ROW_BLOCK_BYTES", dist_bytes // 16)
        tracemalloc.start()
        try:
            plknn_predict(train, queries, KnnConfig(k=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dist_bytes / 4

    def test_empty_query(self):
        train = make_train(np.random.default_rng(8))
        pred = plknn_predict(train, np.empty((0, 3)), KnnConfig(k=3))
        assert pred.shape == (0,) and pred.dtype.kind == "i"


@st.composite
def tied_knn_problems(draw):
    """Integer-grid features, so squared distances are exact and ties common,
    with some training rows duplicated."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    l = draw(st.integers(1, 4))
    base = rng.integers(-2, 3, size=(draw(st.integers(1, 20)), n)).astype(float)
    dups = rng.integers(0, len(base), size=draw(st.integers(0, 10)))
    features = np.vstack([base, base[dups]])
    if len(features) < 2:
        features = np.vstack([features, features])
    features = features[rng.permutation(len(features))]
    candidates = np.stack([oracles.random_support(rng, l) for _ in range(len(features))])
    queries = rng.integers(-3, 4, size=(draw(st.integers(0, 12)), n)).astype(float)
    k = draw(st.integers(1, len(features) - 1))
    return PLDataset(features, candidates), queries, k


@settings(max_examples=200, deadline=None)
@given(tied_knn_problems())
def test_partial_selection_matches_full_sort(problem):
    """Neighbors and labels equal the stable full sort's and the exhaustive
    search's, under heavy distance ties, duplicate rows and k up to m - 1."""
    train, queries, k = problem
    nn_ref, pred_ref = oracles.plknn_predict_argsort(train, queries, k)
    assert np.array_equal(_nearest(cdist(queries, train.features), k), nn_ref)
    pred = plknn_predict(train, queries, KnnConfig(k=k))
    assert pred.shape == (len(queries),) and pred.dtype.kind == "i"
    assert np.array_equal(pred, pred_ref)
    exhaustive = oracles.knn_exhaustive_predict(train.features, train.candidates, queries, k)
    assert np.array_equal(pred, exhaustive)
