"""Print one `<name> <sha256>` line per deterministic surepl output (blobs, training,
grid search, cv reports, each CLI subcommand's files and stdout, bandwidths, the messages
of bad calls, the confidence kernel on a wide sparse set, the messages of bad inputs, the
data path's corruption and writers);
surepl comes from this checkout's `src/`, files go to a temporary directory.  Compare
checkouts at one BLAS thread count: `OPENBLAS_NUM_THREADS=1 python3 tools/fingerprint.py`.
To list which bad-input messages a change moves, print `input_errors` in each checkout."""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
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


PLD = ["pld 1", "2 1 2", "0.0 | 1 | 1", "1.0 | 1,2 | 2"]
MODEL = ["sure-model 1", "2 1 2 1.5", "0.0", "1.0", "0.1 0.2", "0.3 0.4", "0.5 0.6"]
REPORT = {"algo": "plknn", "config": {"k": 3}, "folds": 2, "mean": 0.6,
          "per_fold_accuracy": [0.5, 0.7], "seed": 0, "std": 0.14142135623730948}


def edited(lines, line, text):
    """The file text of `lines` with 1-based `line` replaced by `text`."""
    return "".join(f"{t}\n" for t in lines[:line - 1] + [text] + lines[line:])


BAD_FILES = [  # (loader, text): one text per way a file can be malformed
    *(("load_dataset", edited(PLD, line, text)) for line, text in [
        (1, "nope"), (1, "pld 1 "), (2, "2 0 2"), (2, "2.0 1 2"), (2, "2 1"), (2, "3 1 2"),
        (2, "2 1 1000000000000"), (3, "nan | 1 | 1"), (3, "0.0 1 | 1 | 1"), (4, "1.0 |  "),
        (4, "1.0 | 2,1 | 2"), (4, "1.0 | 1,3 | 2"), (4, "1.0 | 1 | 2"), (4, "1.0 | 1,2"),
        (4, "1.0 | x | 2"), (4, "1.0 | 1,2 | y")]),
    *(("load_model", edited(MODEL, line, text)) for line, text in [
        (1, "who knows"), (1, "sure-model 1 "), (2, "2 0 2 1.5"), (2, "2.0 1 2 1.5"),
        (2, "2 1 2"), (2, "2 1 2 nan"), (2, "2 1 2 1e-300"), (2, "3 1 2 1.5"), (3, "x"),
        (5, "0.1 oops"), (7, "0.5")]),
    # files both short and holding a malformed row: the row count, checked first, is the error
    ("load_dataset", edited(PLD[:3], 3, "0.0 x | 1 | 1")),
    ("load_model", edited(MODEL[:6], 3, "x")),
    *(("read_labels", text) for text in ["1\nx3\n", "2.5\n", "0\n", "\n"]),
    *(("load_values_map", text) for text in ["1 20.0\n2 abc\n", "z 20.0\n", "1 nan\n",
                                            "1\n", "\n"]),
]
BAD_REPORTS = [  # report JSON texts
    "{}\n", "[]\n", "1\n2\n", "[" * 100000,
    *(json.dumps({**REPORT, **edit}) for edit in [
        {"mean": True}, {"mean": "0.6"}, {"std": None}, {"folds": "2"},
        {"per_fold_accuracy": [0.5, "x"]}, {"per_fold_accuracy": "x"},
        {"per_fold_accuracy": [1.5, -0.7], "mean": 0.4, "std": 1.5556349186104046},
        {"per_fold_accuracy": [1.5, 0.5], "mean": 1.0, "std": 0.7071067811865476},
        {"per_fold_accuracy": [], "mean": 0.0}, {"folds": 3}, {"std": 5}, {"std": -0.1},
        {"traces": [{"delta_p": [0.1]}]}]),
    json.dumps(REPORT).replace("0.6", "NaN"), json.dumps(REPORT).replace("0.6", "1" * 400),
]


def input_errors(surepl, tmp):
    """`type: message` of every bad input: the files of BAD_FILES, written to
    `tmp`, the reports of BAD_REPORTS, bad candidate matrices given to the
    dataset and to the confidence update, configs of the wrong class, and ints
    and outputs beyond float64."""
    harness = surepl.harness
    loaders = {"load_dataset": surepl.load_dataset, "load_model": surepl.load_model,
               "read_labels": harness.read_labels, "load_values_map": harness.load_values_map}
    calls = []
    for i, (loader, text) in enumerate(BAD_FILES):
        Path(f"{tmp}/bad{i}").write_text(text, encoding="utf-8")
        calls.append(lambda load=loaders[loader], path=f"{tmp}/bad{i}": load(path))
    calls += [lambda text=text: harness.report_from_json(text) for text in BAD_REPORTS]
    for Y in ([[1, 0], [0, 0]], [[1, 2], [0, 1]], [[], []], [1, 0]):
        calls += [lambda Y=Y: surepl.PLDataset(np.zeros((2, 1)), Y),
                  lambda Y=Y: surepl.update_confidence_matrix(np.zeros(np.shape(Y)), Y, 0.1)]
    d = surepl.make_blobs_dataset(12, seed=0)
    calls += [
        lambda: surepl.cross_validate(d, "sure", surepl.KnnConfig(), 3, 0),
        lambda: surepl.cross_validate(d, "plknn", surepl.TrainConfig(), 3, 0),
        lambda: surepl.grid_search(d, (0.1,), (0.1,), 3, 0, base=surepl.KnnConfig()),
        lambda: surepl.mae_at_k([0, 1], [0, 1], {0: 1.0, 1: "a"}, 1),
        lambda: surepl.mae_at_k([0, 1], [0, 1], None, 10**400),
        lambda: surepl.TrainConfig(lam=10**400),
        lambda: surepl.TrainConfig(sigma_override=10**400),
        lambda: surepl.update_confidence_matrix([[0.5, 0.5]], [[1, 1]], 10**400),
        lambda: surepl.solve_op_exact([1e200, 0.0], [1, 1], 0.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a numpy overflow warning is not the message
        return list(map(error, calls))


EDGE_FLOATS = [-0.0, 5e-324, 1e-300, 1e300, 0.1, 1.0]


def data_path(surepl, tmp):
    """Coupled-mode `corrupt` candidates at 700 rows, then the bytes that
    `save_dataset` (with truth and without) and `save_model` write for
    signed edge floats in 700 rows of 3: full format blocks and a part of one."""
    clean = surepl.make_blobs_dataset(700, classes=7, n_features=3, seed=5)
    pl = surepl.corrupt(clean, surepl.SyntheticSpec(p=0.8, epsilon=0.3, mode="coupled", seed=9))
    X = np.random.default_rng(6).choice(EDGE_FLOATS + [-x for x in EDGE_FLOATS], size=(700, 3))
    surepl.save_dataset(surepl.PLDataset(X, pl.candidates, pl.truth), f"{tmp}/truth.pld")
    surepl.save_dataset(surepl.PLDataset(X, pl.candidates), f"{tmp}/plain.pld")
    surepl.save_model(surepl.KernelModel(X, X[:, ::-1], X[0], 1.5), f"{tmp}/model.txt")
    return [pl.candidates, pl.truth,
            *(Path(f"{tmp}/{name}").read_bytes() for name in ("truth.pld", "plain.pld", "model.txt"))]


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
    with tempfile.TemporaryDirectory() as tmp:
        show("input_errors", *input_errors(surepl, tmp))
    with tempfile.TemporaryDirectory() as tmp:
        show("data_path", *data_path(surepl, tmp))


if __name__ == "__main__":
    main()
