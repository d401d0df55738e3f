"""Metrics, significance testing, cross-validation, grid search, reports."""

import itertools
import json
import re

import numpy as np
import pytest

import oracles
from surepl.baselines import KnnConfig
from surepl.data import PLDataset, SyntheticSpec, corrupt
from surepl.harness import (
    ExperimentReport,
    accuracy,
    cross_validate,
    grid_search,
    load_values_map,
    mae_at_k,
    make_blobs_dataset,
    nested_cross_validate,
    read_labels,
    report_from_json,
    report_to_json,
    t_test_two_sample,
    write_labels,
)
from surepl.training import TrainConfig


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert accuracy([1, 1], [2, 2]) == 0.0

    def test_three_of_four(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            accuracy([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])


class TestMaeAtK:
    def test_identity_k_zero_equals_accuracy(self):
        pred = [0, 2, 1, 3]
        truth = [0, 1, 1, 3]
        assert mae_at_k(pred, truth, None, 0.0) == accuracy(pred, truth)

    def test_age_example(self):
        values = {0: 20.0, 1: 25.0, 2: 22.0, 3: 31.0}
        assert mae_at_k([0, 1], [2, 3], values, 3.0) == 0.5  # |-2| <= 3, |-6| > 3

    def test_max_spread_is_one(self):
        values = {0: 1.0, 1: 9.0}
        assert mae_at_k([0, 1, 0], [1, 0, 0], values, 8.0) == 1.0

    def test_missing_mapping(self):
        with pytest.raises(ValueError, match="no value mapping"):
            mae_at_k([0, 1], [0, 2], {0: 1.0, 1: 2.0}, 1.0)

    @pytest.mark.parametrize("value", ["a", None, True])
    def test_values_must_be_real(self, value):
        """A mapped value that is not a real number fails by name, not in numpy."""
        with pytest.raises(ValueError, match="values must map each label to a real number"):
            mae_at_k([0, 1], [0, 1], {0: 1.0, 1: value}, 1)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, pytest.param(10**400, id="10**400")])
    def test_values_must_be_finite(self, value):
        """A non-finite mapped value fails by name, not as a numpy warning or a miss."""
        with pytest.raises(ValueError, match=re.escape(f"values[0] must be finite, got {value}")):
            mae_at_k([0, 1], [0, 1], {0: value, 1: 1.0}, 1)

    def test_negative_values_allowed(self):
        assert mae_at_k([0, 1], [1, 1], {0: -2.0, 1: -1.5}, 0.5) == 1.0

    @pytest.mark.parametrize("k", [np.nan, -1.0, np.inf, None,
                                   pytest.param(10**400, id="10**400")])
    def test_k_must_be_finite_and_nonnegative(self, k):
        with pytest.raises(ValueError, match=f"k must be finite and nonnegative, got {k}"):
            mae_at_k([0, 1], [0, 1], None, k)


class TestTTest:
    def test_identical_nonconstant_tie(self):
        a = [0.7, 0.8, 0.9]
        res = t_test_two_sample(a, list(a))
        assert res.t_stat == 0.0
        assert res.verdict == "tie"
        assert res.p_value == pytest.approx(1.0)

    def test_degenerate_separation(self):
        res = t_test_two_sample([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        assert res.p_value == 0.0
        assert res.verdict == "win"
        assert t_test_two_sample([0.0, 0.0], [1.0, 1.0]).verdict == "loss"

    def test_degenerate_equal_means_tie(self):
        res = t_test_two_sample([0.5, 0.5], [0.5, 0.5])
        assert res.verdict == "tie" and res.p_value == 1.0

    def test_reference_example_against_quadrature(self):
        a = [0.78, 0.80, 0.79, 0.81, 0.77]
        b = [0.70, 0.72, 0.71, 0.69, 0.73]
        res = t_test_two_sample(a, b)
        assert res.t_stat == pytest.approx(8.0, abs=1e-12)
        assert res.df == 8
        # frozen from the quadrature oracle of the t density
        assert res.p_value == pytest.approx(4.3668260495e-05, abs=1e-4)
        assert res.p_value == pytest.approx(
            oracles.t_two_tailed_pvalue_quad(res.t_stat, res.df), abs=1e-9
        )
        assert res.verdict == "win"

    def test_random_cases_match_quadrature(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            a = rng.normal(0.0, 1.0, int(rng.integers(3, 12)))
            b = rng.normal(rng.uniform(-1, 1), 1.0, int(rng.integers(3, 12)))
            res = t_test_two_sample(a, b)
            assert res.p_value == pytest.approx(
                oracles.t_two_tailed_pvalue_quad(res.t_stat, res.df), abs=1e-9
            )
            assert 0.0 <= res.p_value <= 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(56)
        a = rng.normal(0.6, 0.1, 8)
        b = rng.normal(0.4, 0.1, 6)
        r1 = t_test_two_sample(a, b)
        r2 = t_test_two_sample(b, a)
        assert r1.t_stat == pytest.approx(-r2.t_stat)
        assert r1.p_value == pytest.approx(r2.p_value)
        flip = {"win": "loss", "loss": "win", "tie": "tie"}
        assert r2.verdict == flip[r1.verdict]

    @pytest.mark.parametrize("a, b, message", [
        ([1e308, -1e308], [0.0, 1.0], "sample a's variance cannot be formed in float64, got inf"),
        ([0.0, 1.0], [1e308, 1e308], "sample b's variance cannot be formed in float64"),
        ([np.inf, 1.0], [0.0, 1.0], "sample a's variance cannot be formed in float64, got nan"),
        ([0.0, 1.73e154], [0.0, 1.73e154],
         "the pooled variance of a and b cannot be formed in float64, got inf"),
    ], ids=["a", "b", "inf", "pooled"])
    def test_variance_beyond_float64_rejected(self, a, b, message):
        """Samples whose variance overflows fail by name, not as a numpy warning."""
        with pytest.raises(ValueError, match=re.escape(message)):
            t_test_two_sample(a, b)

    @pytest.mark.parametrize("a, b, t, df", [
        ([1e200, 1e200], [0.0, 1e-150], np.inf, 2.0),  # t overflows
        ([0.0, 1e-150], [1e200, 1e200], -np.inf, 2.0),
        ([0.0] * 9 + [1e-161], [0.0] * 10, np.inf, 18.0),  # the standard error underflows
    ], ids=["t-overflows", "t-overflows-negative", "se-underflows"])
    def test_t_beyond_float64_is_infinite(self, a, b, t, df):
        """A t statistic beyond float64 is +-inf with p = 0, as for zero variance,
        not a numpy warning."""
        res = t_test_two_sample(a, b)
        assert (res.t_stat, res.df, res.p_value) == (t, df, 0.0)
        assert res.verdict == ("win" if t > 0 else "loss")

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError, match="two observations"):
            t_test_two_sample([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("alpha", ["x", None])
    def test_alpha_must_be_a_number(self, alpha):
        with pytest.raises(ValueError, match=f"alpha must lie strictly between 0 and 1, got {alpha}"):
            t_test_two_sample([1, 2], [3, 4], alpha)


def corrupted_blobs(seed, m=120, p=0.5, r=1):
    clean = make_blobs_dataset(m, classes=3, separation=5.0, spread=0.8, seed=seed)
    return corrupt(clean, SyntheticSpec(p=p, r=r, mode="random", seed=seed + 1000))


# (a call given a count of the wrong kind, the message that must name it)
BAD_COUNTS = [
    (lambda d: cross_validate(d, "plknn", KnnConfig(k=3), folds=2.0, seed=0),
     "fold count must be at least 2 and an integer, got 2.0"),
    (lambda d: cross_validate(d, "plknn", KnnConfig(k=3), folds=2, seed=1.5),
     "seed must be at least 0 and an integer, got 1.5"),
    (lambda d: grid_search(d, (0.3,), (0.05,), inner_folds=2.0),
     "fold count must be at least 2 and an integer, got 2.0"),
    (lambda d: make_blobs_dataset(20.5), "m must be at least 3 and an integer, got 20.5"),
    (lambda d: make_blobs_dataset(10, 3, 0), "n_features must be at least 1 and an integer, got 0"),
]


@pytest.mark.parametrize("call, message", BAD_COUNTS, ids=[
    "cv-folds", "cv-seed", "grid-inner-folds", "blobs-m", "blobs-n-features"])
def test_bad_count_named(call, message):
    with pytest.raises(ValueError, match=message):
        call(corrupted_blobs(0, m=30))


# (a call given the other algorithm's config, the message that must name it)
BAD_CONFIGS = [
    (lambda d: cross_validate(d, "sure", KnnConfig(), 3, 0),
     "cfg must be a TrainConfig, got KnnConfig"),
    (lambda d: cross_validate(d, "plknn", TrainConfig(), 3, 0),
     "cfg must be a KnnConfig, got TrainConfig"),
    (lambda d: grid_search(d, (0.1,), (0.1,), 3, 0, base=KnnConfig()),
     "base must be a TrainConfig, got KnnConfig"),
    (lambda d: nested_cross_validate(d, (0.1,), (0.1,), 2, 2, 0, base=KnnConfig()),
     "base must be a TrainConfig, got KnnConfig"),
]


@pytest.mark.parametrize("call, message", BAD_CONFIGS, ids=[
    "cv-sure", "cv-plknn", "grid", "nested"])
def test_wrong_config_named(call, message):
    """A config of the wrong class fails by name where it is first used, not
    with an AttributeError or a TypeError from inside."""
    with pytest.raises(ValueError, match=message):
        call(corrupted_blobs(0, m=30))


class TestCrossValidate:
    def test_separable_supervised_blobs_high_accuracy(self):
        worst = 1.0
        for seed in range(10):
            d = make_blobs_dataset(120, classes=3, separation=6.0, spread=0.6, seed=seed)
            rep = cross_validate(d, "sure", TrainConfig(), folds=10, seed=seed)
            worst = min(worst, rep.mean)
        assert worst >= 0.95

    def test_leave_one_out_tiny(self):
        d = make_blobs_dataset(12, classes=3, separation=6.0, spread=0.4, seed=0)
        rep = cross_validate(d, "plknn", KnnConfig(k=2), folds=12, seed=0)
        assert len(rep.per_fold_accuracy) == 12

    def test_deterministic_reports(self):
        d = corrupted_blobs(3)
        r1 = cross_validate(d, "sure", TrainConfig(max_iter=15), folds=5, seed=7)
        r2 = cross_validate(d, "sure", TrainConfig(max_iter=15), folds=5, seed=7)
        assert report_to_json(r1) == report_to_json(r2)

    def test_requires_truth(self):
        d = corrupted_blobs(1)
        unlabeled = PLDataset(d.features, d.candidates, None)
        with pytest.raises(ValueError, match="ground truth"):
            cross_validate(unlabeled, "plknn", KnnConfig(k=3), folds=5, seed=0)

    def test_unknown_algo(self):
        d = corrupted_blobs(2)
        with pytest.raises(ValueError, match="unknown algorithm"):
            cross_validate(d, "mystery", KnnConfig(k=3), folds=5, seed=0)

    def test_report_stats_recomputable(self):
        d = corrupted_blobs(4)
        rep = cross_validate(d, "plknn", KnnConfig(k=5), folds=6, seed=1)
        accs = np.array(rep.per_fold_accuracy)
        assert rep.mean == pytest.approx(accs.mean(), abs=1e-15)
        assert rep.std == pytest.approx(accs.std(ddof=1), abs=1e-15)

    def test_traces_collected(self):
        d = corrupted_blobs(5, m=60)
        rep = cross_validate(d, "sure", TrainConfig(max_iter=10), folds=4, seed=2,
                             collect_traces=True)
        assert rep.traces is not None and len(rep.traces) == 4


class TestGridSearch:
    def test_single_point(self):
        d = corrupted_blobs(6, m=50)
        res = grid_search(d, [0.3], [0.05], inner_folds=4, seed=0,
                          base=TrainConfig(max_iter=10))
        assert (res.lam, res.beta) == (0.3, 0.05)
        assert len(res.entries) == 1

    def test_full_default_grid_logs_49(self):
        d = corrupted_blobs(7, m=25)
        res = grid_search(d, inner_folds=5, seed=0, base=TrainConfig(max_iter=3))
        assert len(res.entries) == 49
        assert (res.lam, res.beta) in {(e[0], e[1]) for e in res.entries}
        best_mean = max(e[2] for e in res.entries)
        assert any(e[0] == res.lam and e[1] == res.beta and e[2] == best_mean
                   for e in res.entries)

    def test_dominant_point_selected_on_every_seed(self):
        for seed in range(3):
            d = corrupted_blobs(seed + 20, m=90, p=0.7)
            res = grid_search(d, [0.3, 1000.0], [0.05, 1000.0], inner_folds=5, seed=seed,
                              base=TrainConfig(max_iter=25))
            assert (res.lam, res.beta) == (0.3, 0.05)

    def test_tie_prefers_smaller_lambda_then_beta(self):
        # supervised singleton candidates: every grid point scores identically
        d = make_blobs_dataset(40, classes=3, separation=6.0, spread=0.5, seed=9)
        res = grid_search(d, [0.5, 0.1], [0.2, 0.7], inner_folds=4, seed=0,
                          base=TrainConfig(max_iter=5))
        means = {(e[0], e[1]): e[2] for e in res.entries}
        assert len(set(means.values())) == 1
        assert (res.lam, res.beta) == (0.1, 0.2)

    def test_empty_grid_rejected(self):
        d = corrupted_blobs(8, m=30)
        with pytest.raises(ValueError, match="nonempty"):
            grid_search(d, [], [0.1], inner_folds=3, seed=0)

    # (seed, lam grid, beta grid, base config): lambda 0, literal init, a
    # bandwidth override, an iteration cap that stops most blocks, and the
    # grids of acceptance criterion 6
    POINTWISE_CASES = [
        (0, (0.0, 0.05, 0.3, 1.0), (0.01, 0.5), TrainConfig(max_iter=40)),
        (1, (0.01, 0.3, 5.0), (0.05, 1.0), TrainConfig(init="literal", max_iter=40)),
        (2, (0.001, 0.1, 1.0), (0.01, 0.1), TrainConfig(sigma_override=1.5, max_iter=40)),
        (3, (0.0, 0.3, 1.0), (0.01, 0.05, 0.5), TrainConfig(max_iter=3)),
        (4, (0.001, 0.05, 0.3, 1.0), (0.01, 0.05, 0.5), TrainConfig(max_iter=50, tol=1e-3)),
        (4, (0.0,), (0.01, 0.05, 0.5), TrainConfig(max_iter=50, tol=1e-3)),
    ]

    @pytest.mark.parametrize("seed, lams, betas, base", POINTWISE_CASES)
    def test_matches_pointwise_oracle(self, seed, lams, betas, base):
        """Fold-major search against one cross_validate per grid point."""
        if seed == 4:  # criterion 6's data
            clean = make_blobs_dataset(200, classes=3, separation=4.0, spread=1.0, seed=seed)
            d = corrupt(clean, SyntheticSpec(p=0.9, r=2, mode="random", seed=seed + 1000))
        else:
            d = corrupted_blobs(seed + 30, m=80, p=0.8, r=1)
        got = grid_search(d, lams, betas, inner_folds=4, seed=seed, base=base)
        want = oracles.grid_search_pointwise(d, lams, betas, 4, seed, base)
        assert (got.lam, got.beta) == (want.lam, want.beta)
        assert [e[:2] for e in got.entries] == [e[:2] for e in want.entries]
        assert np.abs(np.subtract([e[2] for e in got.entries],
                                  [e[2] for e in want.entries])).max() <= 1e-12

    def test_requires_truth(self):
        d = corrupted_blobs(8, m=30)
        unlabeled = PLDataset(d.features, d.candidates, None)
        with pytest.raises(ValueError, match="ground truth"):
            grid_search(unlabeled, [0.3], [0.1], inner_folds=3, seed=0)


class TestNestedCrossValidate:
    def test_runs_end_to_end_and_logs_selection(self):
        d = corrupted_blobs(10, m=60)
        rep = nested_cross_validate(d, [0.05, 0.3], [0.05], folds=5, inner_folds=4, seed=3,
                                    base=TrainConfig(max_iter=10))
        assert rep.algo == "sure+grid"
        assert len(rep.per_fold_accuracy) == 5
        assert len(rep.config["selected"]) == 5
        for sel in rep.config["selected"]:
            assert sel["lam"] in (0.05, 0.3) and sel["beta"] == 0.05


class TestReportSerialization:
    def test_round_trip(self):
        d = corrupted_blobs(11, m=50)
        rep = cross_validate(d, "sure", TrainConfig(max_iter=8), folds=4, seed=5,
                             collect_traces=True)
        back = report_from_json(report_to_json(rep))
        assert back.per_fold_accuracy == rep.per_fold_accuracy
        assert back.mean == rep.mean and back.std == rep.std
        assert back.traces == rep.traces

    def test_stable_key_order(self):
        rep = ExperimentReport.from_folds("plknn", {"k": 5}, 2, 0, [0.5, 0.7])
        text = report_to_json(rep)
        assert text == report_to_json(report_from_json(text))
        keys = list(json.loads(text).keys())
        assert keys == sorted(keys)

    def test_invariant_validation(self):
        with pytest.raises(ValueError, match="mean"):
            ExperimentReport("a", {}, 2, 0, (0.5, 0.7), 0.9, 0.1)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: [], "JSON object"),
        (lambda p: {}, "lacks key 'algo'"),
        (lambda p: {k: v for k, v in p.items() if k != "std"}, "lacks key 'std'"),
        (lambda p: {**p, "folds": "2"}, "'folds' must be an integer"),
        (lambda p: {**p, "mean": True}, "mean must be finite and nonnegative, got True"),
        (lambda p: {**p, "per_fold_accuracy": [0.5, "x"]},
         r"per_fold_accuracy\[1\] must be finite and nonnegative, got x"),
        (lambda p: {**p, "traces": [{"delta_p": [0.1]}]}, "'traces'"),
        (lambda p: {**p, "std": float("nan")}, "finite"),
        (lambda p: {**p, "per_fold_accuracy": [0.5, float("inf")]}, "finite"),
        (lambda p: {**p, "mean": 10**400}, "finite"),
        (lambda p: {**p, "per_fold_accuracy": [], "mean": 0.0}, "must not be empty"),
        (lambda p: {**p, "folds": 10}, "folds=10 disagrees with 2"),
        (lambda p: {**p, "per_fold_accuracy": [1.5, -0.7], "mean": 0.4,
                    "std": 1.5556349186104046},
         r"per_fold_accuracy\[1\] must be finite and nonnegative, got -0.7"),
        (lambda p: {**p, "per_fold_accuracy": [1.5, 0.5], "mean": 1.0,
                    "std": 0.7071067811865476}, "per_fold_accuracy entries must lie in"),
        (lambda p: {**p, "per_fold_accuracy": [0.5, 10**400]},
         r"per_fold_accuracy\[1\] must be finite and nonnegative, got 1000"),
        (lambda p: {**p, "std": 10**400}, "std must be finite and nonnegative, got 1000"),
        (lambda p: {**p, "std": 5}, "std inconsistent"),
    ])
    def test_malformed_payload_names_key(self, edit, message):
        rep = ExperimentReport.from_folds("plknn", {"k": 5}, 2, 0, [0.5, 0.7])
        payload = edit(json.loads(report_to_json(rep)))
        with pytest.raises(ValueError, match=message):
            report_from_json(json.dumps(payload))


class TestLabelFiles:
    def test_round_trip_one_based(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels(path, [0, 4, 2])
        assert path.read_text() == "1\n5\n3\n"
        assert np.array_equal(read_labels(path), [0, 4, 2])

    def test_rejects_nonpositive(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError, match="line 1"):
            read_labels(path)

    def test_values_map(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("1 20.5\n2 31.0\n")
        assert load_values_map(path) == {0: 20.5, 1: 31.0}

    def test_values_map_malformed(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="line 1"):
            load_values_map(path)


class TestMakeBlobs:
    def test_shapes_and_singletons(self):
        d = make_blobs_dataset(50, classes=4, seed=0)
        assert (d.m, d.l) == (50, 4)
        assert (d.candidates.sum(axis=1) == 1).all()
        assert d.candidates[np.arange(50), d.truth].all()

    def test_deterministic(self):
        a = make_blobs_dataset(30, classes=3, seed=5)
        b = make_blobs_dataset(30, classes=3, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.truth, b.truth)

    def test_classes_balanced(self):
        d = make_blobs_dataset(31, classes=3, seed=1)
        counts = np.bincount(d.truth, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_matches_per_class_draws(self):
        """One draw for every row gives the per-class loop's stream, in its order."""
        sizes = itertools.product((2, 3, 7, 300, 6000), (2, 3, 10), (1, 2, 10), (0, 1, 7))
        for m, classes, n, seed in ((m, c, n, s) for m, c, n, s in sizes if c <= m):
            got = make_blobs_dataset(m, classes, n, seed=seed)
            want = oracles.make_blobs_per_class(m, classes, n, seed=seed)
            assert np.array_equal(got.features, want.features)
            assert np.array_equal(got.candidates, want.candidates)
            assert np.array_equal(got.truth, want.truth)
