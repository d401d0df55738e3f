"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.

Criterion 3 is split in two: the bound check compares the surrogate and exact
minima, which coincide for 0/1 supports; the strict-gap check compares the
surrogate and exact objective functions, which differ away from the optimum
(see its docstring).
"""

import math
import time
from dataclasses import replace

import numpy as np

import oracles
from surepl.baselines import KnnConfig
from surepl.cli import main
from surepl.confidence import solve_op_exact, solve_opi, solve_ops
from surepl.data import PLDataset, SyntheticSpec, corrupt, save_dataset
from surepl.harness import (
    cross_validate,
    grid_search,
    make_blobs_dataset,
    report_from_json,
)
from surepl.kernel import gram_matrix
from surepl.ridge import fit_kernel, fit_linear
from surepl.training import TrainConfig, train

MASTER_SEED = 20260809


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    return ok


def qp_instances(count=200, l_lo=2, l_hi=8):
    """The shared pool of seeded random confidence programs."""
    rng = np.random.default_rng(MASTER_SEED)
    out = []
    for i in range(count):
        l = int(rng.integers(l_lo, l_hi + 1))
        y = oracles.random_support(rng, l)
        q = rng.uniform(-1.0, 1.0, l)
        lam = [0.0, 0.05, 0.3, 1.0][i % 4]
        j = int(rng.choice(np.flatnonzero(y)))
        out.append((q, y, lam, j))
    return out


def test_criterion_1_qp_oracle_equivalence():
    """200 instances: exact solver vs projected-gradient oracle, under 60 s."""
    start = time.time()
    worst_vec = 0.0
    worst_obj = 0.0
    for q, y, lam, j in qp_instances():
        res = solve_opi(q, y, lam, j)
        c = q.copy()
        c[j] += lam / 2.0
        po = oracles.oracle_project(c, y, j)
        # the projection objective maps back to the anchored objective by a
        # constant shift: ||p-q||^2 - lam*p_j = ||p-c||^2 - lam*q_j - lam^2/4
        obj_oracle = float(((po - c) ** 2).sum() - lam * q[j] - lam * lam / 4.0)
        worst_vec = max(worst_vec, float(np.linalg.norm(res.p.p - po)))
        worst_obj = max(worst_obj, abs(res.objective - obj_oracle))
    elapsed = time.time() - start
    ok = worst_vec <= 1e-5 and worst_obj <= 1e-9 and elapsed < 60.0
    assert _report(
        1,
        "qp oracle equivalence",
        ok,
        f"worst vec {worst_vec:.2e}, worst obj {worst_obj:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_exact_minimum_over_anchors():
    """l <= 6 instances: anchored enumeration equals the grid brute force."""
    checked = 0
    worst = 0.0
    for q, y, lam, j in qp_instances():
        if q.size > 6:
            continue
        res = solve_op_exact(q, y, lam)
        per_anchor = [solve_opi(q, y, lam, int(k)).objective for k in np.flatnonzero(y)]
        assert res.objective == min(per_anchor)  # exact by construction
        brute = oracles.grid_bruteforce_op(q, y, lam, step=1e-3)
        assert res.objective <= brute + 1e-9  # grid points are feasible
        worst = max(worst, abs(res.objective - brute))
        checked += 1
    ok = worst <= 5e-3 and checked > 0
    assert _report(
        2,
        "exact minimum vs grid brute force",
        ok,
        f"{checked} instances, worst gap {worst:.2e}",
    )


def test_criterion_3_surrogate_upper_bound():
    """Surrogate never undercuts the exact minimum; equality cases exist."""
    gaps = np.array(
        [
            solve_ops(q, y, lam).objective - solve_op_exact(q, y, lam).objective
            for q, y, lam, _ in qp_instances()
        ]
    )
    ok = bool((gaps >= -1e-9).all() and (np.abs(gaps) <= 1e-9).any())
    assert _report(
        3,
        "surrogate upper bound",
        ok,
        f"min gap {gaps.min():.2e}, equalities {int((np.abs(gaps) <= 1e-9).sum())}/{gaps.size}",
    )


def test_criterion_3_surrogate_strict_gap_exists():
    """The surrogate objective function strictly upper-bounds the exact one
    somewhere on the feasible set, while the two minima coincide.

    With j* the surrogate anchor (largest output among candidates), the
    surrogate function F_s(p) = ||p - q||^2 - lambda*p_j* never undercuts
    F(p) = ||p - q||^2 - lambda*max_i p_i, because p_j* <= max_i p_i.  The
    gap is sought between the functions, at the anchored minimizers of every
    candidate anchor, and not between the minima: swapping coordinates j and
    k (both candidates, q_j >= q_k) maps any point feasible for anchor k to
    one feasible for anchor j and changes the objective by
    2(q_j - q_k)(p_j - p_k) <= 0, so the anchored minimum at the largest
    candidate output is never beaten and the minima are provably equal.  The
    bound is therefore tight at the surrogate minimizer, and solve_ops
    matches solve_op_exact on every instance.
    """
    points = 0
    strict = 0
    worst_bound = 0.0
    worst_tight = 0.0
    worst_min_gap = 0.0
    for q, y, lam, _ in qp_instances():
        ops = solve_ops(q, y, lam)
        j_star = ops.anchor

        def gap(p):
            surrogate = float(((p - q) ** 2).sum() - lam * p[j_star])
            exact = float(((p - q) ** 2).sum() - lam * p.max())
            return surrogate - exact

        for k in np.flatnonzero(y):
            g = gap(solve_opi(q, y, lam, int(k)).p.p)
            worst_bound = min(worst_bound, g)
            strict += g > 1e-9
            points += 1
        worst_tight = max(worst_tight, abs(gap(ops.p.p)))
        min_gap = abs(ops.objective - solve_op_exact(q, y, lam).objective)
        worst_min_gap = max(worst_min_gap, min_gap)
    ok = (
        worst_bound >= -1e-12
        and strict > 0
        and worst_tight <= 1e-12
        and worst_min_gap <= 1e-9
    )
    assert _report(
        3,
        "surrogate strict gap exists",
        ok,
        f"{strict}/{points} feasible points with a strict function gap, "
        f"worst minimum gap {worst_min_gap:.2e}",
    )


def test_criterion_4_ridge_stationarity():
    """50 random problems: closed forms are stationary; gradients match FD."""
    rng = np.random.default_rng(MASTER_SEED + 1)
    ok = True
    worst_station = 0.0
    worst_fd = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 25))
        n = int(rng.integers(1, 6))
        l = int(rng.integers(1, 5))
        X = rng.standard_normal((m, n))
        P = rng.random((m, l))
        P /= P.sum(axis=1, keepdims=True)
        beta = float(rng.uniform(0.01, 2.0))
        scale = 1e-8 * (1.0 + np.linalg.norm(P))

        W, b = fit_linear(X, P, beta)
        gW, gb = oracles.linear_gradient(X, P, beta, W, b)
        lin_norm = math.sqrt((gW**2).sum() + (gb**2).sum())

        K = gram_matrix(X, X, sigma=float(rng.uniform(0.5, 3.0)))
        A, b = fit_kernel(K, P, beta)
        gA, gkb = oracles.kernel_gradient(K, P, beta, A, b)
        ker_norm = math.sqrt((gA**2).sum() + (gkb**2).sum())

        worst_station = max(worst_station, lin_norm / scale, ker_norm / scale)
        ok &= lin_norm <= scale and ker_norm <= scale

        # finite differences vs the analytic gradient at a random point
        W0 = rng.standard_normal((n, l))
        b0 = rng.standard_normal(l)
        flat = np.concatenate([W0.ravel(), b0])

        def lin_obj(v):
            return oracles.linear_objective(
                X, P, beta, v[: n * l].reshape(n, l), v[n * l :]
            )

        gW0, gb0 = oracles.linear_gradient(X, P, beta, W0, b0)
        analytic = np.concatenate([gW0.ravel(), gb0])
        numeric = oracles.numeric_gradient(lin_obj, flat, eps=1e-5)
        rel = np.abs(numeric - analytic).max() / (1.0 + np.abs(analytic).max())
        worst_fd = max(worst_fd, rel)
        ok &= rel <= 1e-4

        A0 = rng.standard_normal((m, l))
        kb0 = rng.standard_normal(l)
        flat_k = np.concatenate([A0.ravel(), kb0])

        def ker_obj(v):
            return oracles.kernel_objective(
                K, P, beta, v[: m * l].reshape(m, l), v[m * l :]
            )

        gA0, gkb0 = oracles.kernel_gradient(K, P, beta, A0, kb0)
        analytic_k = np.concatenate([gA0.ravel(), gkb0])
        numeric_k = oracles.numeric_gradient(ker_obj, flat_k, eps=1e-5)
        rel_k = np.abs(numeric_k - analytic_k).max() / (1.0 + np.abs(analytic_k).max())
        worst_fd = max(worst_fd, rel_k)
        ok &= rel_k <= 1e-4
    assert _report(
        4,
        "ridge stationarity",
        ok,
        f"worst stationarity ratio {worst_station:.2e}, worst fd rel err {worst_fd:.2e}",
    )


def test_criterion_5_convergence_on_blobs():
    """Blob family (p=0.5, r=1): delta-P reaches 1e-3 within 50 iterations on
    at least 9 of 10 seeds."""
    converged = 0
    iters = []
    for seed in range(10):
        clean = make_blobs_dataset(200, classes=3, separation=4.0, spread=1.0, seed=seed)
        d = corrupt(clean, SyntheticSpec(p=0.5, r=1, mode="random", seed=seed + 1000))
        _, _, trace = train(
            d, TrainConfig(lam=0.3, beta=0.05, max_iter=50, tol=1e-3)
        )
        if trace.converged and trace.iterations_run <= 50:
            converged += 1
            iters.append(trace.iterations_run)
    ok = converged >= 9
    assert _report(
        5,
        "convergence on blobs",
        ok,
        f"{converged}/10 seeds converged, iterations {sorted(iters)}",
    )


def test_criterion_6_disambiguation_gain():
    """Candidate-reward training beats the baselines on ambiguous blobs.

    Same blob family as criterion 5; corruption here uses p=0.9, r=2 so that
    disambiguation actually matters (90% of rows carry every label as a
    candidate; at p=0.5, r=1 all arms tie within noise).  Grid search runs
    once per seed over a reduced grid to keep the suite fast; PLKNN picks k
    from {5..10} by the same inner protocol.
    """
    lam_grid = (0.001, 0.05, 0.3, 1.0)
    beta_grid = (0.01, 0.05, 0.5)
    base = TrainConfig(max_iter=50, tol=1e-3)
    sure_means, lam0_means, knn_means = [], [], []
    for seed in range(10):
        clean = make_blobs_dataset(200, classes=3, separation=4.0, spread=1.0, seed=seed)
        d = corrupt(clean, SyntheticSpec(p=0.9, r=2, mode="random", seed=seed + 1000))

        gs = grid_search(d, lam_grid, beta_grid, inner_folds=5, seed=seed, base=base)
        rep = cross_validate(d, "sure", replace(base, lam=gs.lam, beta=gs.beta), 10, seed)
        sure_means.append(rep.mean)

        gs0 = grid_search(d, (0.0,), beta_grid, inner_folds=5, seed=seed, base=base)
        rep0 = cross_validate(d, "sure", replace(base, lam=0.0, beta=gs0.beta), 10, seed)
        lam0_means.append(rep0.mean)

        best_k, best_inner = 5, -1.0
        for k in range(5, 11):
            inner = cross_validate(d, "plknn", KnnConfig(k=k), 5, seed).mean
            if inner > best_inner:
                best_k, best_inner = k, inner
        knn_means.append(cross_validate(d, "plknn", KnnConfig(k=best_k), 10, seed).mean)

    sure_mean = float(np.mean(sure_means))
    lam0_mean = float(np.mean(lam0_means))
    knn_mean = float(np.mean(knn_means))
    ok = sure_mean >= knn_mean - 0.01 and sure_mean >= lam0_mean
    assert _report(
        6,
        "disambiguation gain",
        ok,
        f"sure {sure_mean:.4f} vs plknn {knn_mean:.4f} vs lam=0 {lam0_mean:.4f}",
    )


def test_criterion_7_generator_statistics():
    """m=10000 corruption counts are exact; coupled frequency is within bounds."""
    rng = np.random.default_rng(MASTER_SEED + 2)
    m, l = 10000, 6
    features = rng.standard_normal((m, 2))
    truth = rng.integers(0, l, size=m)
    cands = np.zeros((m, l), dtype=np.uint8)
    cands[np.arange(m), truth] = 1
    clean = PLDataset(features, cands, truth)

    out = corrupt(clean, SyntheticSpec(p=0.7, r=2, mode="random", seed=99))
    sizes = out.candidates.sum(axis=1)
    n_pl = int((sizes == 3).sum())
    truth_kept = bool(out.candidates[np.arange(m), out.truth].all())
    exact_random = n_pl == 7000 and int((sizes == 1).sum()) == 3000 and truth_kept

    coupled = corrupt(clean, SyntheticSpec(p=1.0, r=1, epsilon=0.3, mode="coupled", seed=7))
    extra = np.argmax(
        coupled.candidates - np.eye(l, dtype=np.uint8)[coupled.truth], axis=1
    )
    freq = float(np.mean(extra == (coupled.truth + 1) % l))
    coupled_ok = 0.28 <= freq <= 0.32 and bool(
        (coupled.candidates.sum(axis=1) == 2).all()
    )
    ok = exact_random and coupled_ok
    assert _report(
        7,
        "generator statistics",
        ok,
        f"{n_pl}/7000 corrupted rows, coupled frequency {freq:.4f}",
    )


def test_criterion_8_full_protocol_on_supplied_file(tmp_path):
    """Published benchmark numbers are out of scope (they need the original
    datasets and the full tuning budget), but a user-supplied converted file
    must run the complete protocol: ten-fold CV with five-fold inner grid
    search, end to end through the CLI, no code changes."""
    # stand-in for a converted real-world file: multi-candidate rows with truth
    clean = make_blobs_dataset(80, classes=5, separation=5.0, spread=1.0, seed=3)
    d = corrupt(clean, SyntheticSpec(p=0.6, r=2, mode="random", seed=4))
    data_path = tmp_path / "supplied.pld"
    save_dataset(d, data_path)

    report_path = tmp_path / "report.json"
    code = main(
        [
            "cv",
            "--data", str(data_path),
            "--algo", "sure",
            "--lambda-grid", "0.05,0.3",
            "--beta-grid", "0.05,0.5",
            "--inner-folds", "5",
            "--folds", "10",
            "--seed", "1",
            "--report", str(report_path),
        ]
    )
    rep = report_from_json(report_path.read_text())
    ok = (
        code == 0
        and rep.folds == 10
        and len(rep.per_fold_accuracy) == 10
        and rep.config["inner_folds"] == 5
        and len(rep.config["selected"]) == 10
        and 0.0 <= rep.mean <= 1.0
    )
    assert _report(
        8,
        "full protocol on supplied file",
        ok,
        f"mean {rep.mean:.3f} over 10 folds, per-fold grid selections logged",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Every CLI invocation repeated with identical flags gives identical bytes."""
    clean = make_blobs_dataset(40, classes=3, separation=5.0, spread=0.8, seed=11)
    clean_path = tmp_path / "clean.pld"
    save_dataset(clean, clean_path)

    def run_twice(argv, outputs):
        blobs = []
        for round_dir in ("r1", "r2"):
            base = tmp_path / round_dir
            base.mkdir(exist_ok=True)
            mapped = [a.replace("@", str(base)) for a in argv]
            assert main(mapped) == 0
            blobs.append(b"".join((base / o).read_bytes() for o in outputs))
        return blobs[0] == blobs[1]

    checks = {
        "gen": run_twice(
            ["gen", "--in", str(clean_path), "--out", "@/pl.pld",
             "--p", "0.6", "--r", "1", "--seed", "5"],
            ["pl.pld"],
        ),
    }
    pl_path = tmp_path / "r1" / "pl.pld"
    checks["train"] = run_twice(
        ["train", "--data", str(pl_path), "--max-iter", "25",
         "--model-out", "@/m.model", "--trace-out", "@/trace.csv"],
        ["m.model", "trace.csv"],
    )
    model_path = tmp_path / "r1" / "m.model"
    checks["predict"] = run_twice(
        ["predict", "--model", str(model_path), "--data", str(pl_path), "--out", "@/pred.txt"],
        ["pred.txt"],
    )
    checks["cv"] = run_twice(
        ["cv", "--data", str(pl_path), "--algo", "sure", "--max-iter", "15",
         "--folds", "5", "--seed", "3", "--report", "@/rep.json"],
        ["rep.json"],
    )
    checks["cv-plknn"] = run_twice(
        ["cv", "--data", str(pl_path), "--algo", "plknn", "--k", "4",
         "--folds", "5", "--seed", "3", "--report", "@/repk.json"],
        ["repk.json"],
    )
    ok = all(checks.values())
    assert _report(
        9,
        "cli determinism",
        ok,
        ", ".join(f"{k}={'ok' if v else 'DIFF'}" for k, v in checks.items()),
    )
