"""Print one `<name> <sha256>` line per deterministic surepl output (blobs, training,
grid search, cv reports, each CLI subcommand's files and stdout, bandwidths, the messages
of bad calls, the confidence kernel on a wide sparse set); surepl comes from this
checkout's `src/`, files go to a temporary directory.  Compare checkouts at one BLAS
thread count: `OPENBLAS_NUM_THREADS=1 python3 tools/fingerprint.py`."""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

CLI = [  # (argv with {file} slots, the files it writes)
    ("gen --in {clean} --out {pl} --p 0.7 --r 2 --seed 1", "pl"),
    ("train --data {pl} --model-out {model} --trace-out {trace}", "model trace"),
    ("predict --model {model} --data {pl} --out {pred}", "pred"),
    ("cv --data {pl} --folds 4 --seed 0 --traces --report {sure}", "sure"),
    ("cv --data {pl} --algo plknn --folds 4 --seed 0 --report {knn}", "knn"),
    ("cv --data {pl} --lambda-grid 0.05,0.3 --beta-grid 0.05,0.5 --inner-folds 3 --folds 4 "
     "--seed 0 --report {nested}", "nested"),
    ("grid --data {pl} --lambda-grid 0.05,0.3 --beta-grid 0.05,0.5 --inner-folds 3 --seed 0", ""),
    ("eval --pred {pred} --truth {truth} --mae-k 1", ""),
    ("ttest --a {sure} --b {knn}", ""),
]


def show(name, *parts):  # strings, bytes, and arrays with their dtype and shape
    data = [p.encode() if isinstance(p, str) else p if isinstance(p, bytes)
            else f"{p.dtype.str}{p.shape}".encode() + p.tobytes() for p in parts]
    print(name, hashlib.sha256(b"".join(data)).hexdigest())


def error(call):
    """`type: message` of the exception `call` raises, one line."""
    try:
        call()
    except Exception as exc:  # recorded, whatever its type
        return f"{type(exc).__name__}: {exc}\n"
    return "no error\n"


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import surepl.cli

    spec = surepl.SyntheticSpec(p=0.7, r=2, seed=1)
    clean = surepl.make_blobs_dataset(1000, classes=10, n_features=10, seed=0)
    pl = surepl.corrupt(clean, spec)
    show("blobs_corrupt", clean.features, clean.candidates, clean.truth, pl.candidates, pl.truth)
    model, P, trace = surepl.train(pl, surepl.TrainConfig())
    show("train", model.A, model.b, P, repr(trace.delta_p))
    small = surepl.corrupt(surepl.make_blobs_dataset(300, 10, 10, seed=2), spec)
    show("grid_search", repr(surepl.grid_search(small, (0.01, 0.1, 1), (0.01, 0.1, 1), 5, 3)))
    for algo, params in (("sure", surepl.TrainConfig()), ("plknn", surepl.KnnConfig(k=5))):
        report = surepl.cross_validate(small, algo, params, 5, 4, collect_traces=True)
        show(f"cross_validate_{algo}", surepl.harness.report_to_json(report))
    with tempfile.TemporaryDirectory() as tmp:
        f = {n: f"{tmp}/{n}" for n in "clean pl model trace pred truth sure knn nested".split()}
        surepl.save_dataset(clean.subset(range(120)), f["clean"])
        surepl.harness.write_labels(f["truth"], clean.truth[:120])
        for argv, outputs in CLI:
            with contextlib.redirect_stdout(out := io.StringIO()):
                code = surepl.cli.main([tok.format(**f) for tok in argv.split()])
            show("_".join(["cli", argv.split()[0], *outputs.split()]), f"{code}\n{out.getvalue()}",
                 *(Path(f[name]).read_bytes() for name in outputs.split()))
    # the bandwidths of the `train` model and of the grid search set, on a line of their own
    show("bandwidth", repr(model.sigma), repr(surepl.mean_pairwise_distance(small.features)))
    # `type: message` of one bad call per argument rule, so a changed message moves this line
    inf, nan = float("inf"), float("nan")
    bad_calls = [
        lambda: surepl.TrainConfig(max_iter=True),  # counts
        lambda: surepl.KnnConfig(k=True),
        lambda: surepl.SyntheticSpec(p=0.5, r=2.0),
        lambda: surepl.SyntheticSpec(p=0.5, r=True),
        lambda: surepl.SyntheticSpec(p=0.5, seed=1.5),
        lambda: surepl.cross_validate(small, "plknn", surepl.KnnConfig(), 2.0, 0),
        lambda: surepl.cross_validate(small, "plknn", surepl.KnnConfig(), 2, 1.5),
        lambda: surepl.grid_search(small, inner_folds=2.0),
        lambda: surepl.split_folds(small, 1, 0),
        lambda: surepl.make_blobs_dataset(20.5),
        lambda: surepl.make_blobs_dataset(10, 3, 0),
        lambda: surepl.TrainConfig(lam=nan),  # finite reals
        lambda: surepl.TrainConfig(beta=0.0),
        lambda: surepl.TrainConfig(tol=inf),
        lambda: surepl.fit_linear([[1.0]], [[1.0]], inf),
        lambda: surepl.fit_kernel([[1.0]], [[1.0]], -1.0),
        lambda: surepl.update_confidence_matrix([[0.5, 0.5]], [[1, 1]], -1.0),
        lambda: surepl.mae_at_k([0], [0], None, nan),
        lambda: surepl.gram_matrix([[0.0]], [[1.0]], 1e-300),  # bandwidths
        lambda: surepl.KernelModel([[0.0]], [[0.0]], [0.0], inf),
        lambda: surepl.TrainConfig(sigma_override=0.0),
        lambda: surepl.SyntheticSpec(p=0.5, r=3, mode="coupled"),  # a parameter the mode drops
        lambda: surepl.SyntheticSpec(p=0.5, epsilon=0.5),
        lambda: surepl.TrainConfig(lam="0.3"),  # non-numbers and bools
        lambda: surepl.TrainConfig(lam=True),
        lambda: surepl.TrainConfig(beta=None),
        lambda: surepl.TrainConfig(sigma_override="1"),
        lambda: surepl.SyntheticSpec(p="0.5"),
        lambda: surepl.SyntheticSpec(p=True),
        lambda: surepl.t_test_two_sample([1, 2], [3, 4], alpha="x"),
        lambda: surepl.mae_at_k([0], [0], k=None),
    ]
    show("errors", *map(error, bad_calls))
    # the confidence updates of 500 rows of 120 labels with 1 to 4 candidates each: outputs
    # in quarters, so rows tie, at three lambdas, and the exact program at one lambda per row
    rng = np.random.default_rng(3)
    Y = np.zeros((500, 120), dtype=np.uint8)
    for y in Y:
        y[rng.choice(120, rng.integers(1, 5), replace=False)] = 1
    Q = rng.integers(-6, 7, Y.shape) / 4.0
    exact = [surepl.solve_op_exact(q, y, lam)
             for q, y, lam in zip(Q, Y, rng.choice([0.0, 0.05, 0.3, 1.0, 5.0], 500))]
    show("confidence", *(surepl.update_confidence_matrix(Q, Y, lam) for lam in (0.0, 0.3, 5.0)),
         *(r.p.p for r in exact), repr([(r.objective, r.anchor) for r in exact]))


if __name__ == "__main__":
    main()
