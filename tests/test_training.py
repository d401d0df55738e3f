"""Alternating training loop and prediction behavior."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import surepl
from surepl.data import PLDataset, SyntheticSpec, corrupt
from surepl.harness import make_blobs_dataset
from surepl.kernel import gram_matrix, mean_pairwise_distance
from surepl.ridge import KernelModel, fit_kernel, model_outputs
from surepl.confidence import update_confidence_matrix
from surepl.training import TrainConfig, TrainTrace, predict, train, train_grid


def supervised_blobs(m=60, classes=3, seed=0):
    return make_blobs_dataset(m, classes=classes, separation=6.0, spread=0.6, seed=seed)


def peak_traced_bytes(fn, *args):
    """Peak bytes that tracemalloc sees allocated while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def noisy_blobs_600():
    clean = make_blobs_dataset(600, classes=4, separation=4.0, spread=1.0, seed=7)
    return corrupt(clean, SyntheticSpec(p=0.5, r=1, mode="random", seed=8))


class TestLockstep:
    """Several lambdas trained together on one ridge factor."""

    @pytest.mark.parametrize("init, max_iter", [("normalized", 60), ("literal", 60),
                                                ("normalized", 4)])
    def test_each_lambda_runs_as_if_alone(self, init, max_iter):
        clean = make_blobs_dataset(90, classes=4, separation=4.0, spread=1.0, seed=3)
        d = corrupt(clean, SyntheticSpec(p=0.8, r=2, mode="random", seed=4))
        lams = [0.0, 0.05, 0.3, 1.0, 5.0]
        cfg = TrainConfig(beta=0.05, init=init, max_iter=max_iter, tol=1e-3)
        [fits] = train_grid(d, lams, [cfg.beta], cfg)
        assert len({f[2].iterations_run for f in fits}) > 1 or max_iter == 4
        for lam, (model, P, trace) in zip(lams, fits):
            A, b = model.A, model.b
            ref_model, ref_P, ref_trace = train(d, TrainConfig(lam=lam, beta=0.05, init=init,
                                                               max_iter=max_iter, tol=1e-3))
            # the same iterations; the stacked solve moves the fit by round-off
            assert (trace.iterations_run, trace.converged) == (
                ref_trace.iterations_run, ref_trace.converged)
            assert np.abs(np.subtract(trace.delta_p, ref_trace.delta_p)).max() <= 1e-9
            assert np.abs(A - ref_model.A).max() <= 1e-9 * np.abs(ref_model.A).max()
            assert np.abs(b - ref_model.b).max() <= 1e-9
            assert np.abs(P - ref_P).max() <= 1e-9

    def test_grid_holds_k_and_one_factor(self):
        """Each earlier beta factors an unnamed copy of K and the last beta K
        itself, so a grid holds at most two m x m arrays."""
        d = noisy_blobs_600()
        cfg = TrainConfig(max_iter=3)
        peak = peak_traced_bytes(train_grid, d, [0.1, 0.3], [0.01, 0.05, 0.2], cfg)
        assert peak < 2.5 * 8 * d.m**2


class TestTrain:
    def test_holds_one_kernel_matrix(self):
        """K is built and factored in one packed array: train holds less than
        one m x m array."""
        d = noisy_blobs_600()
        peak = peak_traced_bytes(train, d, TrainConfig(max_iter=3))
        assert peak < 1.5 * 8 * d.m**2

    @pytest.mark.parametrize("m", [600, 601])
    def test_holds_half_a_kernel_matrix(self, m):
        """The packed K, m (m + 1) / 2 entries, is training's one large array:
        no m x m array is built, for even and odd m."""
        clean = make_blobs_dataset(m, classes=10, n_features=10, seed=1)
        d = corrupt(clean, SyntheticSpec(p=0.7, r=2, seed=1))
        peak = peak_traced_bytes(train, d, TrainConfig())
        assert peak < 0.75 * 8 * m**2

    def test_supervised_lambda_zero_fixed_point(self):
        d = supervised_blobs()
        cfg = TrainConfig(lam=0.0, beta=0.1, max_iter=20, tol=1e-3)
        model, P, trace = train(d, cfg)
        assert np.array_equal(P, d.candidates.astype(float))
        assert trace.iterations_run == 1
        assert trace.converged and trace.delta_p[0] == 0.0
        # equals the one-shot ridge fit on the indicator matrix
        sigma = mean_pairwise_distance(d.features)
        K = gram_matrix(d.features, d.features, sigma)
        A, b = fit_kernel(K, d.candidates.astype(float), 0.1)
        assert np.abs(model.A - A).max() <= 1e-12
        assert np.abs(model.b - b).max() <= 1e-12

    def test_supervised_positive_lambda_also_fixed(self):
        d = supervised_blobs()
        model, P, trace = train(d, TrainConfig(lam=0.5, beta=0.1, max_iter=30))
        assert np.array_equal(P, d.candidates.astype(float))
        assert trace.converged and trace.iterations_run == 1

    def test_single_instance_reaches_vertex(self):
        d = PLDataset(np.array([[1.0, 2.0]]), np.array([[1, 1, 1, 0]]))
        model, P, trace = train(d, TrainConfig(lam=0.4, beta=0.5, max_iter=100, tol=1e-9))
        assert trace.converged
        assert np.allclose(P, [[1.0, 0.0, 0.0, 0.0]], atol=1e-9)
        out = model_outputs(model, d.features)
        assert np.allclose(out, P, atol=1e-9)

    def test_blobs_converge_and_deltas_settle(self):
        ok = 0
        for seed in range(10):
            clean = make_blobs_dataset(200, classes=3, separation=4.0, spread=1.0, seed=seed)
            d = corrupt(clean, SyntheticSpec(p=0.5, r=1, mode="random", seed=seed + 100))
            _, _, trace = train(d, TrainConfig(lam=0.3, beta=0.05, max_iter=50, tol=1e-3))
            settles = all(
                trace.delta_p[i] <= trace.delta_p[i - 1] + 1e-12
                for i in range(3, len(trace.delta_p))
            )
            if trace.converged and settles:
                ok += 1
        assert ok >= 9

    def test_intermediate_confidences_feasible(self):
        clean = make_blobs_dataset(60, classes=3, separation=4.0, spread=1.2, seed=5)
        d = corrupt(clean, SyntheticSpec(p=0.8, r=1, mode="random", seed=6))
        # mirror the loop composition step by step
        sigma = mean_pairwise_distance(d.features)
        K = gram_matrix(d.features, d.features, sigma)
        Y = d.candidates.astype(float)
        P = Y / Y.sum(axis=1, keepdims=True)
        for _ in range(10):
            A, b = fit_kernel(K, P, 0.05)
            P = update_confidence_matrix(K @ A + b, d.candidates, 0.3)
            assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-9
            assert (P >= -1e-9).all() and (P <= d.candidates + 1e-9).all()

    def test_converged_implies_last_delta_below_tol(self):
        clean = make_blobs_dataset(80, classes=3, seed=2)
        d = corrupt(clean, SyntheticSpec(p=0.6, r=1, seed=3))
        cfg = TrainConfig(lam=0.3, beta=0.05, max_iter=40, tol=1e-3)
        _, _, trace = train(d, cfg)
        if trace.converged:
            assert trace.delta_p[-1] <= cfg.tol
        assert len(trace.delta_p) == trace.iterations_run

    def test_label_permutation_equivariance(self):
        clean = make_blobs_dataset(50, classes=4, seed=9)
        d = corrupt(clean, SyntheticSpec(p=0.7, r=2, seed=10))
        perm = np.array([2, 0, 3, 1])
        d_perm = PLDataset(d.features, d.candidates[:, perm], None)
        d_plain = PLDataset(d.features, d.candidates, None)
        cfg = TrainConfig(lam=0.3, beta=0.1, max_iter=15)
        model_a, P_a, _ = train(d_plain, cfg)
        model_b, P_b, _ = train(d_perm, cfg)
        assert np.abs(P_b - P_a[:, perm]).max() <= 1e-9
        query = d.features[:11]
        pred_a = perm.argsort()[predict(model_a, query)]  # map original labels into permuted space
        inv = np.empty(4, dtype=int)
        inv[perm] = np.arange(4)
        assert np.array_equal(inv[predict(model_a, query)], predict(model_b, query))
        assert np.array_equal(pred_a, predict(model_b, query))

    def test_deterministic_given_seed(self):
        clean = make_blobs_dataset(40, classes=3, seed=1)
        d = corrupt(clean, SyntheticSpec(p=0.9, r=1, seed=2))
        cfg = TrainConfig(lam=0.2, beta=0.05, max_iter=10)
        m1, P1, t1 = train(d, cfg)
        m2, P2, t2 = train(d, cfg)
        assert np.array_equal(P1, P2)
        assert np.array_equal(m1.A, m2.A)
        assert t1.delta_p == t2.delta_p

    def test_literal_init_differs_then_recovers(self):
        clean = make_blobs_dataset(40, classes=3, seed=3)
        d = corrupt(clean, SyntheticSpec(p=1.0, r=1, seed=4))
        lit = train(d, TrainConfig(init="literal", max_iter=10))
        norm = train(d, TrainConfig(init="normalized", max_iter=10))
        assert lit[2].delta_p[0] != norm[2].delta_p[0]
        # every retained confidence matrix is feasible in both modes
        for _, P, _ in (lit, norm):
            assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-9

    def test_sigma_override_used(self):
        d = supervised_blobs(m=20)
        model, _, _ = train(d, TrainConfig(sigma_override=2.5, max_iter=2))
        assert model.sigma == 2.5

    def test_identical_rows_degenerate_bandwidth(self):
        d = PLDataset(np.ones((5, 2)), np.eye(3, dtype=int)[[0, 1, 2, 0, 1]])
        with pytest.raises(ValueError, match="degenerate bandwidth"):
            train(d, TrainConfig(max_iter=2))
        # an explicit bandwidth sidesteps the heuristic
        model, _, _ = train(d, TrainConfig(max_iter=2, sigma_override=1.0))
        assert model.sigma == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lam=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(beta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(init="sideways")
        with pytest.raises(ValueError):
            TrainConfig(tol=0.0)
        with pytest.raises(ValueError):
            TrainTrace((1.0,), 2, False)


class TestPredict:
    def test_bias_argmax(self):
        model = KernelModel(np.zeros((1, 2)), np.zeros((1, 3)), np.array([0.1, 0.9, 0.3]), 1.0)
        pred = predict(model, np.random.default_rng(0).standard_normal((6, 2)))
        assert (pred == 1).all()

    def test_tie_breaks_lowest(self):
        model = KernelModel(np.zeros((1, 2)), np.zeros((1, 3)), np.array([0.4, 0.4, 0.1]), 1.0)
        assert predict(model, np.zeros((1, 2)))[0] == 0

    def test_bias_shift_invariance(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((8, 2))
        A = rng.standard_normal((8, 3))
        b = rng.standard_normal(3)
        q = rng.standard_normal((5, 2))
        m1 = KernelModel(X, A, b, 1.0)
        m2 = KernelModel(X, A, b + 7.5, 1.0)
        assert np.array_equal(predict(m1, q), predict(m2, q))

    def test_self_prediction_on_separable_supervised_blobs(self):
        d = supervised_blobs(m=120, seed=8)
        model, _, _ = train(d, TrainConfig(lam=0.0, beta=0.001, max_iter=5))
        acc = float(np.mean(predict(model, d.features) == d.truth))
        assert acc >= 0.99


# train at m=1500, predict 3000 held-out rows, and a 3 x 3 grid search at m=300
THREADS_JOB = """
import json
from surepl import SyntheticSpec, TrainConfig, corrupt, grid_search, make_blobs_dataset
from surepl import predict, train
clean = make_blobs_dataset(4500, classes=10, n_features=10, seed=11)
d = corrupt(clean.subset(range(1500)), SyntheticSpec(p=0.7, r=2, seed=12))
model, _, trace = train(d, TrainConfig())
labels = predict(model, clean.subset(range(1500, 4500)).features)
grid = grid_search(d.subset(range(300)), (0.01, 0.1, 1.0), (0.01, 0.1, 1.0), 5, 13)
print(json.dumps({"labels": labels.tolist(), "iterations": trace.iterations_run,
                  "selected": [grid.lam, grid.beta]}))
"""


# train at m=1000 and a 3 x 3 grid search at m=300; digests of every output bit
IDENTITY_JOB = """
import hashlib, json
from surepl import SyntheticSpec, TrainConfig, corrupt, grid_search, make_blobs_dataset, train
d = corrupt(make_blobs_dataset(1000, classes=10, n_features=10, seed=21),
            SyntheticSpec(p=0.7, r=2, seed=22))
model, P, trace = train(d, TrainConfig())
grid = grid_search(d.subset(range(300)), (0.01, 0.1, 1.0), (0.01, 0.1, 1.0), 5, 23)
result = {name: hashlib.sha256(a.tobytes()).hexdigest()
          for name, a in (("A", model.A), ("b", model.b), ("P", P))}
result.update(delta_p=list(trace.delta_p), entries=[list(e) for e in grid.entries])
"""


def run_child(job: str, **env) -> dict:
    """json.loads of what the Python code `job` prints, run in a child process."""
    # pytest's pythonpath setting does not reach a child process
    src = os.path.dirname(os.path.dirname(surepl.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", job], capture_output=True, text=True, timeout=300,
                       env={**os.environ, "PYTHONPATH": path, **env})
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


class TestBlasThreads:
    def test_labels_and_selection_agree_across_thread_counts(self):
        """A, P and query scores may differ in their last bits between BLAS
        thread counts, since a threaded BLAS splits its sums differently; the
        labels, iteration count and selected (lambda, beta) may not."""
        results = [run_child(THREADS_JOB, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
        assert results[0] == results[1]

    def test_outputs_repeat_bit_for_bit_at_one_thread_count(self):
        """At one BLAS thread count, A, b, P, the changes of P and every grid
        entry repeat bit for bit: twice in this process, and once in a child
        process that inherits its thread settings."""
        runs = []
        for _ in range(2):
            scope = {}
            exec(IDENTITY_JOB, scope)
            runs.append(scope["result"])
        runs.append(run_child(IDENTITY_JOB + "print(json.dumps(result))"))
        assert runs[0] == runs[1] == runs[2]
