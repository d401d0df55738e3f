"""The benchmark's workloads.

Every input comes from `make_blobs_dataset(classes=10, n_features=10)` plus
`corrupt(p=0.7, r=2)`, seeded from the workload seed; surepl sees only these
generated inputs.  Calls go through `surepl.<name>` so that the tracer, which
rebinds those names, sees the jobs' calls into the package.  Each workload
has four steps:

- `setup(seed, workdir)` builds the inputs (timed as `setup_s`);
- `job(inputs)` is the timed unit of work, run as a closed loop after one
  untimed warm-up job;
- `reference(inputs, warm)` computes, untimed, what a correct job must
  return, by a route through the public API that does not share the job's
  entry point where one exists, else from the warm-up job's output `warm`;
- `check(inputs, ref, out)` lists every way a job's outputs miss the
  reference; an empty list means the job is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import surepl
import surepl.cli
from surepl.harness import read_labels, write_labels

CLASSES = 10
FEATURES = 10
CORRUPT_P = 0.7
CORRUPT_R = 2

# Accuracies from the job and from its reference are ratios of label counts
# on identical inputs; they may differ only by floating-point round-off.
ACCURACY_TOL = 1e-9
# A job whose accuracy falls below this (five times chance for 10 classes)
# is wrong whatever its reference says.
ACCURACY_FLOOR = 0.5
# Confidence rows must sum to one and vanish off the candidate set.
STOCHASTIC_TOL = 1e-9


def _seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def _spec(seed: int):
    return surepl.SyntheticSpec(p=CORRUPT_P, r=CORRUPT_R, seed=seed)


def _pl_blobs(m: int, blob_seed: int, corrupt_seed: int):
    """Corrupted blobs of the benchmark's shape."""
    clean = surepl.make_blobs_dataset(m, classes=CLASSES, n_features=FEATURES, seed=blob_seed)
    return surepl.corrupt(clean, _spec(corrupt_seed))


def _accuracy_problems(what: str, got: float, want: float) -> list[str]:
    problems = []
    if abs(got - want) > ACCURACY_TOL:
        problems.append(f"{what} {got!r} differs from reference {want!r}")
    if got < ACCURACY_FLOOR:
        problems.append(f"{what} {got!r} below floor {ACCURACY_FLOOR}")
    return problems


class TrainLarge:
    """`train` with default TrainConfig on m=4000, then `predict` on 2000
    held-out rows.

    Chosen because dense O(m^2) work dominates here: bandwidth, Gram matrix,
    ridge factorization and the K @ A products, while the confidence update
    is a few percent.  The reference is the untimed warm-up job itself,
    since no second public route trains a model.
    """

    name = "train_large"
    m_train = 4000
    m_test = 2000

    def setup(self, seed: int, workdir: Path):
        blob_seed, corrupt_seed = _seeds(seed, 2)
        clean = surepl.make_blobs_dataset(self.m_train + self.m_test, classes=CLASSES,
                                          n_features=FEATURES, seed=blob_seed)
        d_train = surepl.corrupt(clean.subset(np.arange(self.m_train)), _spec(corrupt_seed))
        return d_train, clean.subset(np.arange(self.m_train, clean.m))

    def job(self, inputs):
        d_train, held_out = inputs
        model, conf, _ = surepl.train(d_train, surepl.TrainConfig())
        acc = surepl.accuracy(surepl.predict(model, held_out.features), held_out.truth)
        return {"accuracy": acc, "confidences": conf}

    def reference(self, inputs, warm):
        return warm

    def check(self, inputs, ref, out) -> list[str]:
        d_train, _ = inputs
        problems = _accuracy_problems("held-out accuracy", out["accuracy"], ref["accuracy"])
        P = out["confidences"]
        if P.shape != d_train.candidates.shape:
            return problems + [f"confidence matrix shape {P.shape}"]
        if np.abs(P.sum(axis=1) - 1.0).max() > STOCHASTIC_TOL or P.min() < -STOCHASTIC_TOL:
            problems.append("confidence rows not stochastic")
        if np.abs(P[d_train.candidates == 0]).max(initial=0.0) > STOCHASTIC_TOL:
            problems.append("confidence mass outside candidate sets")
        return problems


class GridSmall:
    """`grid_search` over 3 lambda x 3 beta with 5 inner folds at m=300.

    Chosen because its 45 small fits make per-call and BLAS threading
    overhead dominate, the opposite of train_large.  The grid is trimmed
    from the 7 x 7 default so a run holds several jobs; 3 x 3 still lets
    work shared across the grid show.  The reference evaluates each grid
    point with `cross_validate` on the same folds, independently of how
    `grid_search` organises its loops.
    """

    name = "grid_small"
    m = 300
    lams = (0.01, 0.1, 1.0)
    betas = (0.01, 0.1, 1.0)
    inner_folds = 5

    def setup(self, seed: int, workdir: Path):
        blob_seed, corrupt_seed, fold_seed = _seeds(seed, 3)
        d = _pl_blobs(self.m, blob_seed, corrupt_seed)
        return d, fold_seed

    def job(self, inputs):
        d, fold_seed = inputs
        res = surepl.grid_search(d, self.lams, self.betas, self.inner_folds, fold_seed)
        return {"lam": res.lam, "beta": res.beta, "entries": res.entries,
                "accuracy": max(e[2] for e in res.entries)}

    def reference(self, inputs, warm):
        d, fold_seed = inputs
        entries = []
        best = None
        for lam in self.lams:
            for beta in self.betas:
                cfg = surepl.TrainConfig(lam=lam, beta=beta)
                mean = surepl.cross_validate(d, "sure", cfg, self.inner_folds, fold_seed).mean
                entries.append((lam, beta, mean))
                if best is None or mean > best[2]:  # ties keep the smaller lam, then beta
                    best = (lam, beta, mean)
        return {"lam": best[0], "beta": best[1], "entries": tuple(entries), "accuracy": best[2]}

    def check(self, inputs, ref, out) -> list[str]:
        problems = _accuracy_problems("best inner-CV mean", out["accuracy"], ref["accuracy"])
        if (out["lam"], out["beta"]) != (ref["lam"], ref["beta"]):
            problems.append(f"selected (lam, beta) = ({out['lam']}, {out['beta']}), "
                            f"reference ({ref['lam']}, {ref['beta']})")
        got = {(lam, beta): mean for lam, beta, mean in out["entries"]}
        for lam, beta, mean in ref["entries"]:
            if (lam, beta) not in got or abs(got[(lam, beta)] - mean) > ACCURACY_TOL:
                problems.append(f"grid entry ({lam}, {beta}) differs from reference {mean!r}")
        return problems


class CliFiles:
    """Four in-process `surepl.cli.main` commands over files:

    - `gen` corrupts a 20000-row clean PLD file;
    - `predict` scores those 20000 rows with a 2000-row model saved in setup;
    - `cv --algo plknn --k 7 --folds 10` on a 4000-row PLD file;
    - `eval` scores the predictions against a truth file.

    Chosen because it fits no SURE model: it reaches the kernel and ridge
    layers only from the read side (a rectangular query Gram matrix and
    `load_model`), and it is the only workload with heavy PLD parsing and
    formatting, the `corrupt` loop and PLKNN.  Fit-path optimisations
    should not move it; stricter loaders must not slow it.  The references
    come from the library calls the commands wrap, made on in-memory data.
    """

    name = "cli_files"
    m_gen = 20000
    m_model = 2000
    m_cv = 4000
    knn_k = 7
    cv_folds = 10

    def setup(self, seed: int, workdir: Path):
        s = _seeds(seed, 7)
        gen_seed, cv_seed = s[5], s[6]
        clean = surepl.make_blobs_dataset(self.m_gen, classes=CLASSES, n_features=FEATURES,
                                          seed=s[0])
        surepl.save_dataset(clean, workdir / "clean.pld")
        write_labels(workdir / "truth.txt", clean.truth)
        d_model = _pl_blobs(self.m_model, s[1], s[2])
        model, _, _ = surepl.train(d_model, surepl.TrainConfig())
        surepl.save_model(model, workdir / "model.txt")
        d_cv = _pl_blobs(self.m_cv, s[3], s[4])
        surepl.save_dataset(d_cv, workdir / "cv.pld")
        return {"dir": workdir, "clean": clean, "d_cv": d_cv, "gen_seed": gen_seed,
                "cv_seed": cv_seed}

    def _argvs(self, inputs):
        w = inputs["dir"]
        return {
            "gen": ["gen", "--in", str(w / "clean.pld"), "--out", str(w / "pl.pld"),
                    "--p", str(CORRUPT_P), "--r", str(CORRUPT_R),
                    "--seed", str(inputs["gen_seed"])],
            "predict": ["predict", "--model", str(w / "model.txt"), "--data", str(w / "pl.pld"),
                        "--out", str(w / "pred.txt")],
            "cv": ["cv", "--data", str(w / "cv.pld"), "--algo", "plknn", "--k", str(self.knn_k),
                   "--folds", str(self.cv_folds), "--seed", str(inputs["cv_seed"]),
                   "--report", str(w / "knn.json")],
            "eval": ["eval", "--pred", str(w / "pred.txt"), "--truth", str(w / "truth.txt")],
        }

    def job(self, inputs):
        codes = {}
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            for command, argv in self._argvs(inputs).items():
                codes[command] = surepl.cli.main(argv)
        acc = None
        for line in stdout.getvalue().splitlines():
            if line.startswith("accuracy "):
                acc = float(line.split()[1])
        return {"codes": codes, "accuracy": acc}

    def reference(self, inputs, warm):
        w = inputs["dir"]
        pl = surepl.corrupt(inputs["clean"], _spec(inputs["gen_seed"]))
        surepl.save_dataset(pl, w / "reference_pl.pld")
        labels = surepl.predict(surepl.load_model(w / "model.txt"), pl.features)
        knn = surepl.cross_validate(inputs["d_cv"], "plknn", surepl.KnnConfig(k=self.knn_k),
                                    self.cv_folds, inputs["cv_seed"])
        return {"pl_bytes": (w / "reference_pl.pld").read_bytes(), "labels": labels,
                "cv_mean": knn.mean, "accuracy": surepl.accuracy(labels, pl.truth)}

    def check(self, inputs, ref, out) -> list[str]:
        w = inputs["dir"]
        problems = [f"{cmd} exited {code}" for cmd, code in out["codes"].items() if code != 0]
        if problems:
            return problems
        if (w / "pl.pld").read_bytes() != ref["pl_bytes"]:
            problems.append("gen output differs from the reference corruption")
        if not np.array_equal(read_labels(w / "pred.txt"), ref["labels"]):
            problems.append("predict output differs from the reference labels")
        cv_mean = json.loads((w / "knn.json").read_text(encoding="utf-8"))["mean"]
        if abs(cv_mean - ref["cv_mean"]) > ACCURACY_TOL:
            problems.append(f"cv mean {cv_mean!r} differs from reference {ref['cv_mean']!r}")
        if out["accuracy"] is None:
            return problems + ["eval printed no accuracy"]
        return problems + _accuracy_problems("eval accuracy", out["accuracy"], ref["accuracy"])


WORKLOADS = {w.name: w for w in (TrainLarge(), GridSmall(), CliFiles())}
