"""CLI subcommands: behavior, file formats, and byte-level determinism."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

from surepl import training
from surepl.cli import main
from surepl.data import SyntheticSpec, corrupt, load_dataset, save_dataset
from surepl.harness import make_blobs_dataset, read_labels, report_from_json
from surepl.ridge import load_model


@pytest.fixture()
def clean_file(tmp_path):
    d = make_blobs_dataset(40, classes=3, separation=5.0, spread=0.7, seed=0)
    path = tmp_path / "clean.pld"
    save_dataset(d, path)
    return path


@pytest.fixture()
def pl_file(tmp_path, clean_file):
    out = tmp_path / "pl.pld"
    assert main(["gen", "--in", str(clean_file), "--out", str(out),
                 "--p", "0.6", "--r", "1", "--seed", "5"]) == 0
    return out


class TestGen:
    def test_matches_library_call(self, tmp_path, clean_file, pl_file):
        d = load_dataset(clean_file)
        ref = tmp_path / "ref.pld"
        save_dataset(corrupt(d, SyntheticSpec(p=0.6, r=1, seed=5)), ref)
        assert ref.read_bytes() == pl_file.read_bytes()

    def test_coupled_flag(self, tmp_path, clean_file):
        out = tmp_path / "coupled.pld"
        assert main(["gen", "--in", str(clean_file), "--out", str(out),
                     "--p", "1.0", "--r", "1", "--epsilon", "0.5",
                     "--coupled", "--seed", "2"]) == 0
        d = load_dataset(out)
        assert (d.candidates.sum(axis=1) == 2).all()

    def test_determinism(self, tmp_path, clean_file):
        outs = []
        for name in ("a.pld", "b.pld"):
            out = tmp_path / name
            main(["gen", "--in", str(clean_file), "--out", str(out),
                  "--p", "0.5", "--r", "2", "--seed", "9"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_error_exit_code(self, tmp_path, clean_file, capsys):
        out = tmp_path / "x.pld"
        code = main(["gen", "--in", str(clean_file), "--out", str(out),
                     "--p", "0.5", "--r", "99", "--seed", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrainPredictEval:
    def test_tiny_sigma_trains_silently(self, tmp_path, pl_file, capsys):
        """2 sigma^2 = 2e-320 is subnormal but nonzero: K is the identity."""
        model_path = tmp_path / "m.model"
        assert main(["train", "--data", str(pl_file), "--sigma", "1e-160",
                     "--model-out", str(model_path)]) == 0
        assert capsys.readouterr() == ("", "")
        assert load_model(model_path).sigma == 1e-160

    @pytest.mark.filterwarnings("error")
    def test_huge_lambda_commits_every_row(self, tmp_path, pl_file, capsys):
        """At lambda = 1e200 every row commits to its anchor, without a warning."""
        model_path = tmp_path / "m.model"
        assert main(["train", "--data", str(pl_file), "--lambda", "1e200",
                     "--model-out", str(model_path)]) == 0
        assert capsys.readouterr() == ("", "")
        assert np.isfinite(load_model(model_path).A).all()

    def test_full_pipeline(self, tmp_path, pl_file):
        model_path = tmp_path / "m.model"
        trace_path = tmp_path / "trace.csv"
        assert main(["train", "--data", str(pl_file), "--lambda", "0.3", "--beta", "0.05",
                     "--max-iter", "30", "--model-out", str(model_path),
                     "--trace-out", str(trace_path)]) == 0
        model = load_model(model_path)
        assert model.A.shape == (40, 3)

        lines = trace_path.read_text().splitlines()
        assert lines[0] == "iter,delta_p"
        assert lines[1].startswith("1,")
        deltas = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(deltas) >= 1

        pred_path = tmp_path / "pred.txt"
        assert main(["predict", "--model", str(model_path), "--data", str(pl_file),
                     "--out", str(pred_path)]) == 0
        preds = read_labels(pred_path)
        assert preds.shape == (40,)
        assert set(np.unique(preds)).issubset({0, 1, 2})

        truth_path = tmp_path / "truth.txt"
        d = load_dataset(pl_file)
        from surepl.harness import write_labels

        write_labels(truth_path, d.truth)
        assert main(["eval", "--pred", str(pred_path), "--truth", str(truth_path)]) == 0

    def test_eval_output_format(self, tmp_path, capsys):
        from surepl.harness import write_labels

        pred, truth = tmp_path / "p.txt", tmp_path / "t.txt"
        write_labels(pred, [0, 1, 2, 0])
        write_labels(truth, [0, 1, 1, 0])
        assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 0
        out = capsys.readouterr().out
        assert out == "accuracy 0.75\n"

    def test_eval_mae_with_values(self, tmp_path, capsys):
        from surepl.harness import write_labels

        pred, truth = tmp_path / "p.txt", tmp_path / "t.txt"
        values = tmp_path / "v.txt"
        write_labels(pred, [0, 1])
        write_labels(truth, [1, 0])
        values.write_text("1 20.0\n2 22.5\n")
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--values", str(values), "--mae-k", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "accuracy 0.0"
        assert out[1] == "mae@3.0 1.0"

    def test_literal_init(self, tmp_path, pl_file):
        model_path = tmp_path / "lit.model"
        assert main(["train", "--data", str(pl_file), "--init", "literal",
                     "--max-iter", "20", "--model-out", str(model_path)]) == 0
        assert load_model(model_path).A.shape == (40, 3)

    def test_train_determinism(self, tmp_path, pl_file):
        payloads = []
        for tag in ("1", "2"):
            model_path = tmp_path / f"m{tag}.model"
            trace_path = tmp_path / f"t{tag}.csv"
            main(["train", "--data", str(pl_file), "--model-out", str(model_path),
                  "--trace-out", str(trace_path)])
            payloads.append(model_path.read_bytes() + trace_path.read_bytes())
        assert payloads[0] == payloads[1]


class TestCv:
    def test_sure_report(self, tmp_path, pl_file):
        report_path = tmp_path / "rep.json"
        assert main(["cv", "--data", str(pl_file), "--algo", "sure", "--lambda", "0.3",
                     "--beta", "0.05", "--max-iter", "20", "--folds", "5",
                     "--seed", "4", "--report", str(report_path)]) == 0
        rep = report_from_json(report_path.read_text())
        assert rep.folds == 5 and len(rep.per_fold_accuracy) == 5
        assert 0.0 <= rep.mean <= 1.0

    def test_plknn_report(self, tmp_path, pl_file):
        report_path = tmp_path / "rep.json"
        assert main(["cv", "--data", str(pl_file), "--algo", "plknn", "--k", "3",
                     "--folds", "4", "--seed", "1", "--report", str(report_path)]) == 0
        rep = report_from_json(report_path.read_text())
        assert rep.algo == "plknn"
        assert rep.config["k"] == 3

    def test_nested_grid_mode(self, tmp_path, pl_file):
        report_path = tmp_path / "rep.json"
        assert main(["cv", "--data", str(pl_file), "--algo", "sure",
                     "--lambda-grid", "0.05,0.3", "--beta-grid", "0.05",
                     "--inner-folds", "3", "--max-iter", "10",
                     "--folds", "4", "--seed", "2", "--report", str(report_path)]) == 0
        rep = report_from_json(report_path.read_text())
        assert rep.algo == "sure+grid"
        assert len(rep.config["selected"]) == 4

    def test_determinism(self, tmp_path, pl_file):
        payloads = []
        for tag in ("1", "2"):
            report_path = tmp_path / f"r{tag}.json"
            main(["cv", "--data", str(pl_file), "--algo", "sure", "--max-iter", "15",
                  "--folds", "5", "--seed", "8", "--report", str(report_path)])
            payloads.append(report_path.read_bytes())
        assert payloads[0] == payloads[1]


class TestGridAndTtest:
    def test_grid_stdout(self, tmp_path, pl_file, capsys):
        assert main(["grid", "--data", str(pl_file), "--lambda-grid", "0.05,0.3",
                     "--beta-grid", "0.05", "--inner-folds", "3", "--max-iter", "10",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert out[0].startswith("lambda=0.05 beta=0.05 mean_accuracy=")
        assert out[1].startswith("lambda=0.3 beta=0.05 mean_accuracy=")
        assert out[2].startswith("best lambda=")

    def test_ttest_verdict(self, tmp_path, pl_file, capsys):
        rep_a = tmp_path / "a.json"
        rep_b = tmp_path / "b.json"
        main(["cv", "--data", str(pl_file), "--algo", "sure", "--max-iter", "15",
              "--folds", "5", "--seed", "1", "--report", str(rep_a)])
        main(["cv", "--data", str(pl_file), "--algo", "plknn", "--k", "3",
              "--folds", "5", "--seed", "1", "--report", str(rep_b)])
        assert main(["ttest", "--a", str(rep_a), "--b", str(rep_b)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("t ")
        assert lines[1] == "df 8.0"
        assert lines[2].startswith("p ")
        assert lines[3].split()[1] in {"win", "tie", "loss"}

    def test_grid_stdout_deterministic(self, tmp_path, pl_file, capsys):
        args = ["grid", "--data", str(pl_file), "--lambda-grid", "0.3",
                "--beta-grid", "0.05,0.5", "--inner-folds", "3", "--max-iter", "8",
                "--seed", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


class TestEntrypoints:
    def test_module_invocation(self):
        import os
        import subprocess
        import sys

        import surepl

        # pytest's pythonpath setting does not reach a child process
        src = os.path.dirname(os.path.dirname(surepl.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        r = subprocess.run(
            [sys.executable, "-m", "surepl", "--help"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert r.returncode == 0
        assert "gen" in r.stdout and "ttest" in r.stdout

    def test_console_script_target(self):
        """The `[project.scripts]` entry that `pip install` builds names a callable."""
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["surepl"]
        module, _, name = target.partition(":")
        assert callable(getattr(importlib.import_module(module), name))


VALID_MODEL = ["sure-model 1", "2 1 2 1.5", "0.0", "1.0", "0.1 0.2", "0.3 0.4", "0.5 0.6"]
VALID_DATA = ["pld 1", "2 1 2", "0.0 | 1 | 1", "1.0 | 1,2 | 2"]
VALID_REPORT = ('{"algo": "plknn", "config": {"k": 3}, "folds": 2, "mean": 0.6, '
                '"per_fold_accuracy": [0.5, 0.7], "seed": 0, "std": 0.14142135623730948}\n')


def _with(valid, line, text):
    lines = list(valid)
    lines[line - 1] = text
    return "\n".join(lines) + "\n"


# (PLD text, the line the error must name)
MALFORMED_DATA = [
    (_with(VALID_DATA, 4, "nan | 1,2 | 2"), 4),
    (_with(VALID_DATA, 4, "inf | 1,2 | 2"), 4),
    (_with(VALID_DATA, 3, "1e999 | 1 | 1"), 3),
    (_with(VALID_DATA, 2, "2 1000000000000 2"), 3),
    (_with(VALID_DATA, 2, "2 1 1000000000000"), 2),
    ("pld 1\n2 1 1000000000000000000000000000000\n0.0 | 1 | 1\n"
     "1.0 | 1,100000000000000000000000 | 1\n", 2),
    (_with(VALID_DATA, 2, "2 0 2"), 2),
    (_with(VALID_DATA, 2, "2.0 1 2"), 2),
    (_with(VALID_DATA, 4, "1.0 | 1,2 | 2\u00e9").encode("latin-1"), 4),  # not UTF-8
    (_with(VALID_DATA, 3, "0.0 | 1 | 1\u00e9").replace("\n", "\r\n").encode("latin-1"), 3),
    (_with(VALID_DATA, 4, "1.0 | 1,2 |"), 4),
]
# every command that reads a PLD file
DATA_COMMANDS = ("train", "gen", "cv-plknn", "cv-sure", "grid")

# (command, input file replaced, its text, the line the error must name, or
# for a JSON report the text it must contain)
MALFORMED_INPUTS = [
    ("predict", "model", _with(VALID_MODEL, 3, "x"), 3),
    ("predict", "model", _with(VALID_MODEL, 5, "0.1 oops"), 5),
    ("predict", "model", _with(VALID_MODEL, 7, "0.5 --"), 7),
    ("predict", "model", _with(VALID_MODEL, 2, "0 1 2 1.5"), 2),
    ("predict", "model", _with(VALID_MODEL, 2, "2 0 2 1.5"), 2),
    ("predict", "model", _with(VALID_MODEL, 2, "2 1 0 1.5"), 2),
    ("predict", "model", _with(VALID_MODEL, 2, "2.0 1 2 1.5"), 2),
    ("predict", "model", _with(VALID_MODEL, 2, "2 1 2 nan"), 2),
    ("predict", "model", _with(VALID_MODEL, 2, "2 1 2 inf"), 2),
    ("predict", "model", _with(VALID_MODEL, 2, "2 1 2 -1.0"), 2),
    ("predict", "model", _with(VALID_MODEL, 2, "2 1 2 1e-300"), 2),
    ("predict", "model", _with(VALID_MODEL, 5, "0.1 nan"), 5),
    ("predict", "model", _with(VALID_MODEL, 2, "2 1000000000000 2 1.5"), 3),
    ("predict", "model", _with(VALID_MODEL, 2, "2 1 1000000000000 1.5"), 5),
    *[(command, "data", text, line) for command in DATA_COMMANDS for text, line in MALFORMED_DATA],
    # finite features whose squared distances overflow: the mean distance is inf
    ("train", "data", "pld 1\n3 2 2\n1e200 0 | 1 | 1\n0 1 | 2 | 2\n2e200 1 | 1 | 1\n",
     "sigma must be finite and positive with 2 sigma^2 > 0, got inf"),
    ("eval", "pred", "1\nx3\n", 2),
    ("eval", "truth", "2.5\n1\n", 1),
    ("eval", "values", "1 20.0\n2 abc\n", 2),
    ("eval", "values", "z 20.0\n2 22.5\n", 1),
    ("eval", "values", "1 20.0\n2 nan\n", 2),
    ("eval", "truth", "-1\n1\n", 1),
    # not UTF-8: Latin-1 bytes, at the line universal newlines count
    ("predict", "model", _with(VALID_MODEL, 6, "0.3 0.4\u00e9").encode("latin-1"), 6),
    ("eval", "pred", "1\r2\u00e9\r".encode("latin-1"), 2),
    ("eval", "values", "1 20.0\r\n\u00e92 22.5\r\n".encode("latin-1"), 2),
    ("ttest", "report", VALID_REPORT.replace('"plknn"', '"pl\u00e9knn"').encode("latin-1"),
     "not UTF-8: byte 0xe9 at line 1"),
    ("ttest", "report", "{}\n", "'algo'"),
    ("ttest", "report", "[]\n", "JSON object"),
    ("ttest", "report", VALID_REPORT.replace('"per_fold_accuracy": [0.5, 0.7], ', ""),
     "'per_fold_accuracy'"),
    ("ttest", "report", VALID_REPORT.replace('"mean": 0.6', '"mean": NaN'), "finite"),
    ("ttest", "report", VALID_REPORT.replace("[0.5, 0.7]", "[]"), "must not be empty"),
    ("ttest", "report", "1\n2\n", "invalid report JSON (Extra data) at line 2"),
    # a report cut short is named at its last line, not at the line after its last LF
    ("ttest", "report", '{"algo": "plknn",\n',
     "invalid report JSON (Expecting property name enclosed in double quotes) at line 1"),
    pytest.param("ttest", "report", "[" * 100000, "nested too deeply",
                 id="ttest-report-deeply-nested"),
]

# (subcommand and its malformed flags, a fragment its one error line must hold)
MALFORMED_FLAGS = [
    (["cv", "--folds", "-1"], "fold count must be at least 2"),
    (["cv", "--folds", "2", "--inner-folds", "-1", "--lambda-grid", "0.3"],
     "fold count must be at least 2"),
    (["grid", "--inner-folds", "-1"], "fold count must be at least 2"),
    (["train", "--lambda", "nan"], "lam must be finite and nonnegative, got nan"),
    (["train", "--lambda", "inf"], "lam must be finite and nonnegative, got inf"),
    (["train", "--beta", "inf"], "beta must be finite and positive, got inf"),
    (["train", "--beta", "1e-300"], "reciprocal 1-norm condition bound 3.953e-303 < 1e-13"),
    (["grid", "--inner-folds", "2", "--lambda-grid=-5,0.3"],
     "lam must be finite and nonnegative, got -5.0"),
    (["grid", "--inner-folds", "2", "--beta-grid=0,0.1"], "beta must be finite and positive, got 0.0"),
    (["grid", "--inner-folds", "2", "--lambda", "5"], "unrecognized arguments"),
    (["grid", "--inner-folds", "2", "--beta", "9"], "unrecognized arguments"),
    (["cv", "--folds", "2", "--lambda-grid", ""], "argument --lambda-grid"),
    (["cv", "--folds", "2", "--beta-grid", ","], "argument --beta-grid"),
    (["ttest", "--alpha", "2"], "alpha must lie strictly between 0 and 1, got 2.0"),
    (["ttest", "--alpha", "0"], "alpha must lie strictly between 0 and 1, got 0.0"),
    (["train", "--sigma", "inf"],
     "sigma_override must be finite and positive with 2 sigma^2 > 0, got inf"),
    (["train", "--sigma", "1e-300"], "with 2 sigma^2 > 0, got 1e-300"),
    (["eval", "--mae-k", "nan"], "k must be finite and nonnegative, got nan"),
    (["eval", "--mae-k", "-1"], "k must be finite and nonnegative, got -1.0"),
    (["gen", "--seed", "-1"], "seed must be at least 0 and an integer, got -1"),
    (["cv", "--folds", "2", "--seed", "-1"], "seed must be at least 0 and an integer, got -1"),
    (["grid", "--inner-folds", "2", "--seed", "-1"],
     "seed must be at least 0 and an integer, got -1"),
    (["predict", "--out", "."], "Is a directory"),
    (["cv", "--folds", "2", "--traces", "--lambda-grid", "0.3"], "--traces does not apply"),
    (["cv", "--folds", "2", "--traces", "--beta-grid", "0.3"], "--traces does not apply"),
    (["cv", "--folds", "2", "--traces", "--algo", "plknn"], "--traces needs --algo sure"),
    (["cv", "--folds", "2", "--algo", "plknn", "--lambda-grid", "0.3"],
     "--lambda-grid/--beta-grid needs --algo sure"),
    (["cv", "--folds", "2", "--algo", "plknn", "--lambda", "5"], "--lambda needs --algo sure"),
    (["cv", "--folds", "2", "--algo", "sure", "--k", "3"], "--k needs --algo plknn"),
    (["cv", "--folds", "2", "--inner-folds", "4"],
     "--inner-folds needs --lambda-grid/--beta-grid"),
    (["cv", "--folds", "2", "--lambda-grid", "0.1,0.3", "--lambda", "5"],
     "--lambda does not apply to nested cv"),
    # gen refuses the parameter its mode would drop
    (["gen", "--coupled", "--r", "3"], "r=3 needs random mode"),
    (["gen", "--epsilon", "0.5"], "epsilon=0.5 needs coupled mode"),
]


class TestErrorPaths:
    @pytest.mark.parametrize("flags, message", MALFORMED_FLAGS)
    def test_malformed_flag_exits_2(self, tmp_path, clean_file, pl_file, capsys, flags, message):
        report = tmp_path / "report.json"
        report.write_text(VALID_REPORT)
        model, data, labels = tmp_path / "m.model", tmp_path / "d.pld", tmp_path / "labels.txt"
        model.write_text("\n".join(VALID_MODEL) + "\n")
        data.write_text("\n".join(VALID_DATA) + "\n")
        labels.write_text("1\n2\n")
        command, *rest = flags
        argv = {
            "train": ["train", "--data", str(pl_file), "--model-out", str(tmp_path / "m.model")],
            "cv": ["cv", "--data", str(pl_file), "--seed", "0",
                   "--report", str(tmp_path / "out.json")],
            "grid": ["grid", "--data", str(pl_file), "--seed", "0"],
            "ttest": ["ttest", "--a", str(report), "--b", str(report)],
            "gen": ["gen", "--in", str(clean_file), "--out", str(tmp_path / "g.pld"), "--p", "0.5"],
            "predict": ["predict", "--model", str(model), "--data", str(data),
                        "--out", str(tmp_path / "pred.txt")],
            "eval": ["eval", "--pred", str(labels), "--truth", str(labels)],
        }[command]
        try:
            code = main(argv + rest)
        except SystemExit as exc:  # argparse rejects a flag value it cannot convert
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and not (tmp_path / "out.json").exists()
        *usage, last = err.splitlines()
        assert all(line.startswith(("usage:", " ")) for line in usage)
        assert "error:" in last and message in last

    def test_cv_flag_conflict_precedes_data(self, tmp_path, capsys):
        """A flag cv would drop is named before the data file is opened."""
        assert main(["cv", "--data", str(tmp_path / "missing.pld"), "--folds", "2", "--seed", "0",
                     "--traces", "--algo", "plknn", "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr() == ("", "error: --traces needs --algo sure\n")

    def test_kernel_matrix_past_memory_exits_2(self, tmp_path, pl_file, capsys, monkeypatch):
        """A kernel matrix numpy cannot allocate ends in one error line, not a
        traceback; the allocation fails by monkeypatch, so nothing large is made."""
        def no_memory(X, sigma):
            raise MemoryError("Unable to allocate 119. GiB for an array with shape (4e5, 4e5)")

        monkeypatch.setattr(training, "packed_gram", no_memory)
        code = main(["train", "--data", str(pl_file), "--model-out", str(tmp_path / "m.model")])
        assert code == 2 and not (tmp_path / "m.model").exists()
        assert capsys.readouterr() == ("", "error: Unable to allocate 119. GiB for an array with "
                                           "shape (4e5, 4e5)\n")

    @pytest.mark.parametrize("command, target, text, line", MALFORMED_INPUTS)
    def test_malformed_input_names_line(self, tmp_path, capsys, command, target, text, line):
        files = {"model": "\n".join(VALID_MODEL) + "\n", "data": "\n".join(VALID_DATA) + "\n",
                 "pred": "1\n2\n", "truth": "1\n2\n", "values": "1 20.0\n2 22.5\n",
                 "report": VALID_REPORT}
        files[target] = text
        for name, body in files.items():
            (tmp_path / name).write_bytes(body if isinstance(body, bytes) else body.encode())
        data, report = str(tmp_path / "data"), str(tmp_path / "report")
        cv = ["cv", "--data", data, "--folds", "2", "--seed", "0",
              "--report", str(tmp_path / "out.json"), "--algo"]
        argv = {
            "train": ["train", "--data", data, "--model-out", str(tmp_path / "out.model")],
            "gen": ["gen", "--in", data, "--out", str(tmp_path / "out.pld"), "--p", "0.5"],
            "cv-plknn": [*cv, "plknn"],
            "cv-sure": [*cv, "sure"],
            "grid": ["grid", "--data", data, "--inner-folds", "2", "--seed", "0"],
            "predict": ["predict", "--model", str(tmp_path / "model"), "--data", data,
                        "--out", str(tmp_path / "out.txt")],
            "ttest": ["ttest", "--a", report, "--b", report],
            "eval": ["eval", "--pred", str(tmp_path / "pred"), "--truth", str(tmp_path / "truth"),
                     "--values", str(tmp_path / "values"), "--mae-k", "1"],
        }[command]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""  # every input is read before anything is printed
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        if isinstance(line, int):
            assert re.search(rf"\bline {line}\b", err[0])
        else:
            assert line in err[0]

    # 40 rows in 2 folds leave 20 training rows per fold
    @pytest.mark.parametrize("k, message", [("0", "k must be at least 1"),
                                            ("20", "k=20 must be smaller than the 20")])
    def test_plknn_bad_k(self, tmp_path, pl_file, capsys, k, message):
        assert main(["cv", "--data", str(pl_file), "--algo", "plknn", "--k", k,
                     "--folds", "2", "--seed", "0", "--report", str(tmp_path / "r.json")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
        assert not (tmp_path / "r.json").exists()

    def test_values_without_mae_k(self, tmp_path, capsys):
        for name in ("pred", "truth", "values"):
            (tmp_path / name).write_text("1\n")
        assert main(["eval", "--pred", str(tmp_path / "pred"), "--truth", str(tmp_path / "truth"),
                     "--values", str(tmp_path / "values")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--mae-k" in err[0]

    def test_missing_file(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope.pld"),
                     "--model-out", str(tmp_path / "m.model")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_header_only_model(self, tmp_path, pl_file, capsys):
        model = tmp_path / "m.txt"
        model.write_text("sure-model 1\n")
        assert main(["predict", "--model", str(model), "--data", str(pl_file),
                     "--out", str(tmp_path / "pred.txt")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "line 2" in err[0]

    def test_malformed_data_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.pld"
        bad.write_text("pld 1\n1 1 2\n0.0 |  \n")
        assert main(["train", "--data", str(bad),
                     "--model-out", str(tmp_path / "m.model")]) == 2
        assert "line 3" in capsys.readouterr().err
