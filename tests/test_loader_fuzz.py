"""Fuzzed input files: every loader fails with a ValueError-family error.

Each example starts from a valid file of the loader's format and applies a
few random edits: a token or a whole line replaced, a line inserted or
deleted.  The replacements are numbers, non-finite and overflowing tokens,
the PLD separators, header words, JSON punctuation and junk.  Reports are
also drawn as JSON objects whose keys hold arbitrary JSON values.  A loader
may accept the text or raise ValueError (FileFormatError, json's decode
error and the report checks all derive from it); any other exception
escaping it fails the test.  The edits keep every size small, so no header
can declare a large array.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surepl.data import PLDataset, load_dataset, save_dataset
from surepl.harness import (
    ExperimentReport,
    load_values_map,
    read_labels,
    report_from_json,
    report_to_json,
)
from surepl.ridge import KernelModel, load_model, save_model
from surepl.training import TrainTrace

TOKENS = ["0", "1", "2", "3", "-1", "0.5", "1e-3", "nan", "inf", "-inf", "1e999", "x", "",
          "|", ",", "1,2", "2,1", "pld", "sure-model", "{", "}", "[", "]", ":", "null"]

edits = st.lists(st.tuples(st.sampled_from(["token", "line", "insert", "delete"]),
                           st.integers(0, 50), st.integers(0, 10), st.sampled_from(TOKENS)),
                 max_size=4)


def _edit(text: str, edits) -> str:
    """text with each (op, line, token index, token) edit applied in turn."""
    lines = text.splitlines()
    for op, i, j, token in edits:
        i %= len(lines) + 1
        if op == "insert" or i == len(lines):
            lines.insert(i, token)
        elif op == "delete":
            del lines[i]
        elif op == "line":
            lines[i] = token
        else:
            tokens = lines[i].split(" ")
            tokens[j % len(tokens)] = token
            lines[i] = " ".join(tokens)
    return "".join(f"{line}\n" for line in lines)


REPORT = report_to_json(ExperimentReport.from_folds(
    "sure", {"lam": 0.3}, 2, 0, [0.5, 1.0], traces=(TrainTrace((0.25, 0.0), 2, True),) * 2))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["delta_p", "iterations_run", "converged", "x"]), inner, max_size=3),
    max_leaves=8)
# the valid report with up to two keys set to arbitrary values and one dropped
reports = st.builds(
    lambda changes, drop: json.dumps({k: v for k, v in {**json.loads(REPORT), **changes}.items()
                                      if k not in drop}),
    st.dictionaries(st.sampled_from(list(json.loads(REPORT))), json_values, max_size=2),
    st.sets(st.sampled_from(list(json.loads(REPORT))), max_size=1))

FILE_LOADERS = {
    "load_dataset": load_dataset,
    "load_model": load_model,
    "read_labels": read_labels,
    "load_values_map": load_values_map,
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """name -> (path to write examples to, text of a valid file)."""
    root = tmp_path_factory.mktemp("fuzz")
    X = np.array([[0.5, -1.25], [2.0, 3.5], [1e-3, 4.0]])
    save_dataset(PLDataset(X, np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1]]), np.array([0, 1, 2])),
                 root / "load_dataset")
    save_model(KernelModel(X, np.arange(6.0).reshape(3, 2) / 7, np.array([0.5, -0.5]), 1.5),
               root / "load_model")
    (root / "read_labels").write_text("1\n2\n3\n")
    (root / "load_values_map").write_text("1 20.0\n2 22.5\n")
    return {name: (root / name, (root / name).read_text()) for name in FILE_LOADERS}


@pytest.mark.parametrize("name", sorted(FILE_LOADERS))
@settings(max_examples=200, deadline=None)
@given(edits=edits)
def test_file_loaders_raise_only_value_errors(valid_files, name, edits):
    path, text = valid_files[name]
    path.write_text(_edit(text, edits), encoding="utf-8")
    try:
        FILE_LOADERS[name](path)
    except ValueError:
        pass


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(edits.map(lambda e: _edit(REPORT, e)), reports))
def test_report_parser_raises_only_value_errors(text):
    try:
        report_from_json(text)
    except ValueError:
        pass
