"""Dataset container, PLD format round-trips, corruption, and fold splitting."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surepl import data
from surepl.data import (
    FORMAT_BLOCK,
    READ_BLOCK,
    FileFormatError,
    PLDataset,
    SyntheticSpec,
    corrupt,
    format_float,
    load_dataset,
    parse_label,
    read_lines,
    save_dataset,
    split_folds,
    write_lines,
)
from surepl.confidence import ConfidenceVector
from surepl.harness import load_values_map, read_labels
from surepl.ridge import KernelModel, load_model, save_model


def tiny_dataset(truth=True):
    features = np.array([[0.5, -1.25], [2.0, 3.5], [1e-7, 42.0]])
    candidates = np.array([[1, 0, 1, 0], [0, 1, 0, 0], [1, 1, 1, 1]])
    t = np.array([0, 1, 3]) if truth else None
    return PLDataset(features, candidates, t)


def singleton_dataset(m, l, seed=0, n=2):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((m, n))
    truth = rng.integers(0, l, size=m)
    candidates = np.zeros((m, l), dtype=np.uint8)
    candidates[np.arange(m), truth] = 1
    return PLDataset(features, candidates, truth)


class TestPLDataset:
    def test_dimensions(self):
        d = tiny_dataset()
        assert (d.m, d.n, d.l) == (3, 2, 4)

    def test_empty_candidate_row_rejected(self):
        with pytest.raises(ValueError, match="empty candidate set"):
            PLDataset(np.zeros((2, 1)), np.array([[1, 0], [0, 0]]))

    def test_truth_outside_candidates_rejected(self):
        with pytest.raises(ValueError, match="outside candidate set"):
            PLDataset(np.zeros((1, 1)), np.array([[1, 0]]), np.array([1]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            PLDataset(np.zeros((2, 1)), np.array([[1, 0]]))

    def test_arrays_read_only(self):
        d = tiny_dataset()
        with pytest.raises(ValueError):
            d.features[0, 0] = 7.0

    @pytest.mark.parametrize("make, arrays, views", [
        (PLDataset, lambda: (np.ones((2, 2)), np.array([[1, 0], [1, 1]], dtype=np.uint8),
                             np.array([0, 1])), False),
        (lambda X, A, b: KernelModel(X, A, b, 1.0),
         lambda: (np.ones((2, 2)), np.zeros((2, 3)), np.zeros(3)), True),
        (ConfidenceVector, lambda: (np.array([0.25, 0.75]), np.array([1, 1], dtype=np.uint8)),
         False),
    ], ids=["PLDataset", "KernelModel", "ConfidenceVector"])
    def test_records_lock_their_arrays(self, make, arrays, views):
        """Every record's arrays are read-only; KernelModel holds views of the
        caller's arrays, which stay writable, and the others hold copies."""
        given = arrays()
        record = make(*given)
        held = [v for v in vars(record).values() if isinstance(v, np.ndarray)]
        assert len(held) == len(given)
        assert not any(a.flags.writeable for a in held)
        assert all(a.flags.writeable for a in given)
        assert [np.shares_memory(a, b) for a, b in zip(held, given)] == [views] * len(given)

    def test_subset_keeps_rows(self):
        d = tiny_dataset()
        sub = d.subset([2, 0])
        assert np.array_equal(sub.features, d.features[[2, 0]])
        assert np.array_equal(sub.truth, d.truth[[2, 0]])


class TestPldFormat:
    def test_header_example(self, tmp_path):
        path = tmp_path / "d.pld"
        path.write_text(
            "pld 1\n3 2 4\n"
            "0.5 -1.25 | 1,3 | 1\n"
            "2.0 3.5 | 2 | 2\n"
            "1e-07 42.0 | 1,2,3,4 | 4\n"
        )
        d = load_dataset(path)
        assert (d.m, d.n, d.l) == (3, 2, 4)
        assert np.array_equal(d.truth, [0, 1, 3])

    def test_round_trip_identity(self, tmp_path):
        d = tiny_dataset()
        path = tmp_path / "d.pld"
        save_dataset(d, path)
        back = load_dataset(path)
        assert np.array_equal(back.features, d.features)
        assert np.array_equal(back.candidates, d.candidates)
        assert np.array_equal(back.truth, d.truth)

    def test_round_trip_without_truth(self, tmp_path):
        d = tiny_dataset(truth=False)
        path = tmp_path / "d.pld"
        save_dataset(d, path)
        text = path.read_text()
        assert "|" in text and text.count("|") == d.m  # single separator per line
        back = load_dataset(path)
        assert back.truth is None

    def test_truth_column_present_when_truth_set(self, tmp_path):
        path = tmp_path / "d.pld"
        save_dataset(tiny_dataset(), path)
        for line in path.read_text().splitlines()[2:]:
            assert line.count("|") == 2

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=4,
            max_size=4,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip_bit_exact_floats(self, tmp_path_factory, values, seed):
        rng = np.random.default_rng(seed)
        features = np.array(values).reshape(2, 2)
        candidates = np.zeros((2, 3), dtype=np.uint8)
        truth = rng.integers(0, 3, size=2)
        candidates[np.arange(2), truth] = 1
        candidates[0, (truth[0] + 1) % 3] = 1
        d = PLDataset(features, candidates, truth)
        path = tmp_path_factory.mktemp("rt") / "d.pld"
        save_dataset(d, path)
        back = load_dataset(path)
        assert np.array_equal(back.features, d.features)  # bit-exact
        assert np.array_equal(back.candidates, d.candidates)

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pld"
        path.write_text("nope\n1 1 1\n0.0 | 1\n")
        with pytest.raises(FileFormatError, match="line 1"):
            load_dataset(path)

    def test_bad_dims_rejected(self, tmp_path):
        path = tmp_path / "bad.pld"
        path.write_text("pld 1\n1 x 1\n0.0 | 1\n")
        with pytest.raises(FileFormatError, match="line 2"):
            load_dataset(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.pld"
        path.write_text("pld 1\n2 1 1\n0.0 | 1\n")
        with pytest.raises(FileFormatError, match="dimension mismatch"):
            load_dataset(path)

    def test_empty_candidates_names_line(self, tmp_path):
        path = tmp_path / "bad.pld"
        path.write_text("pld 1\n2 1 2\n0.0 | 1\n1.0 |  \n")
        with pytest.raises(FileFormatError, match="empty candidate set at line 4"):
            load_dataset(path)

    def test_truth_outside_candidates_names_line(self, tmp_path):
        path = tmp_path / "bad.pld"
        path.write_text("pld 1\n1 1 3\n0.0 | 1,2 | 3\n")
        with pytest.raises(FileFormatError, match="outside candidate set at line 3"):
            load_dataset(path)

    def test_unsorted_candidates_rejected(self, tmp_path):
        path = tmp_path / "bad.pld"
        path.write_text("pld 1\n1 1 3\n0.0 | 2,1\n")
        with pytest.raises(FileFormatError, match="ascending"):
            load_dataset(path)

    def test_wrong_feature_count_names_line(self, tmp_path):
        path = tmp_path / "bad.pld"
        path.write_text("pld 1\n1 2 2\n0.0 | 1\n")
        with pytest.raises(FileFormatError, match="line 3"):
            load_dataset(path)

    @pytest.mark.parametrize("truth, digest", [
        (True, "2c7fe0515ac5d5eae4e7ee9d5db56d0cc74e334f38194cc14c596b57a41d981d"),
        (False, "719049f680cbb029fbe5946dcfc707419e204c0475bbadfba52c3504af4620ca"),
    ], ids=["truth", "no-truth"])
    def test_edge_float_bytes_pinned(self, tmp_path, truth, digest):
        """Signed zeros, subnormals and extreme exponents keep their shortest
        decimals over full format blocks of rows and a part of one."""
        edges = [-0.0, 5e-324, 1e-300, 1e300, 0.1, 1.0]
        X = np.random.default_rng(4).choice(edges + [-x for x in edges], size=(700, 3))
        assert 700 % (FORMAT_BLOCK // 3) != 0
        pl = corrupt(singleton_dataset(700, 5, seed=9, n=3), SyntheticSpec(p=0.5, r=2, seed=3))
        path = tmp_path / "d.pld"
        save_dataset(PLDataset(X, pl.candidates, pl.truth if truth else None), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        back = load_dataset(path)
        assert np.array_equal(np.signbit(back.features), np.signbit(X))
        assert np.array_equal(back.features, X) and np.array_equal(back.candidates, pl.candidates)

    @pytest.mark.parametrize("n", [1, 3, 700])
    def test_bytes_match_per_row_reference(self, tmp_path, n):
        """The block writer writes what a row-by-row `format_float` loop writes,
        for rows narrower and wider than a block."""
        rng = np.random.default_rng(n)
        X = rng.standard_normal((37, n)) * 10.0 ** rng.integers(-300, 300, (37, n))
        d = corrupt(singleton_dataset(37, 6, seed=n), SyntheticSpec(p=0.8, r=3, seed=n))
        d = PLDataset(X, d.candidates, d.truth)
        want = ["pld 1", f"37 {n} 6"] + [
            f"{' '.join(map(format_float, x))} | {','.join(str(j + 1) for j in np.flatnonzero(c))}"
            f" | {t + 1}" for x, c, t in zip(X, d.candidates, d.truth)]
        save_dataset(d, tmp_path / "d.pld")
        assert (tmp_path / "d.pld").read_text() == "".join(f"{line}\n" for line in want)

    @pytest.mark.parametrize("field, message", [
        ("  ", "empty candidate set"),
        ("1,x", "invalid candidate index"),
        ("1,4", r"candidate index 4 out of range \[1, 3\]"),
        ("2,1", "candidates not in strictly ascending order"),
    ])
    def test_repeated_bad_candidates_fail_at_first_line(self, tmp_path, field, message):
        """A bad candidate field fails where it first appears, after good fields
        that were parsed once and reused."""
        path = tmp_path / "bad.pld"
        path.write_text(f"pld 1\n4 1 3\n0.0 | 1,2\n1.0 | 1,2\n2.0 | {field}\n3.0 | {field}\n")
        with pytest.raises(FileFormatError, match=f"^{message} at line 5$"):
            load_dataset(path)

    def test_truth_checked_against_a_reused_candidate_set(self, tmp_path):
        """The truth column is checked on every line, also where the candidate
        field was parsed on an earlier line."""
        path = tmp_path / "bad.pld"
        path.write_text("pld 1\n3 1 3\n0.0 | 1,2 | 1\n1.0 |  1,2  | 2\n2.0 | 1,2 | 3\n")
        with pytest.raises(FileFormatError, match="^truth label 3 outside candidate set at line 5$"):
            load_dataset(path)

    def test_candidate_fields_spaced_differently_load_alike(self, tmp_path):
        path = tmp_path / "d.pld"
        path.write_text("pld 1\n3 1 3\n0.0 | 1,3 | 3\n1.0 |  1,3 | 1\n2.0 | 1, 3 | 1\n")
        d = load_dataset(path)
        assert np.array_equal(d.candidates, [[1, 0, 1]] * 3)
        assert np.array_equal(d.truth, [2, 0, 0])

    def test_record_tails_spaced_differently_load_alike(self, tmp_path):
        """Tails that differ only in spacing are distinct keys of the tail
        cache, each parsed to the same labels."""
        path = tmp_path / "d.pld"
        path.write_text("pld 1\n4 1 3\n0.0 | 1,3 | 3\n1.0 |1,3|3\n2.0 |  1, 3 |  3  \n"
                        "3.0 | 1,3 | 3\t\n")
        d = load_dataset(path)
        assert np.array_equal(d.candidates, [[1, 0, 1]] * 4)
        assert np.array_equal(d.truth, [2] * 4)

    def test_each_distinct_tail_parsed_once(self, tmp_path, monkeypatch):
        """A tail first seen on a good line is reused: its labels are parsed
        on that line only, and its rows load as the first one did."""
        calls = []

        def counting_parse_label(*args):
            calls.append(args[0])
            return parse_label(*args)

        monkeypatch.setattr(data, "parse_label", counting_parse_label)
        path = tmp_path / "d.pld"
        rows = ["| 1,2 | 2", "| 3 | 3", "| 1,2 | 1"] * 3
        path.write_text("pld 1\n9 1 3\n" + "".join(f"{i}.0 {tail}\n" for i, tail in enumerate(rows)))
        d = load_dataset(path)
        assert calls == ["1", "2", " 2", "3", " 3", "1", "2", " 1"]
        assert np.array_equal(d.candidates, [[1, 1, 0], [0, 0, 1], [1, 1, 0]] * 3)
        assert np.array_equal(d.truth, [1, 2, 0] * 3)

    @pytest.mark.parametrize("record, message", [
        ("0.0 | 1 |", "invalid truth label"),  # an empty truth field is not "no truth"
        ("0.0 | 1 |  ", "invalid truth label"),
        ("0.0 | 1 | 0", r"truth label 0 out of range \[1, 2\]"),
        ("0.0 | 1 | 3", r"truth label 3 out of range \[1, 2\]"),
        ("0.0 | 1 | 1.0", "invalid truth label"),
        ("0.0 | 1 | 2", "truth label 2 outside candidate set"),
        ("0.0 | 0", r"candidate index 0 out of range \[1, 2\]"),
        ("0.0 | 1,-1", r"candidate index -1 out of range \[1, 2\]"),
        ("0.0 | 1,,2", "invalid candidate index"),
    ])
    def test_label_messages(self, tmp_path, record, message):
        """The candidate and truth messages, each at the line of its record,
        also where the same tail loaded on a line before."""
        path = tmp_path / "bad.pld"
        good = "1.0 | 1 | 1" if record.count("|") == 2 else "1.0 | 1"
        path.write_text(f"pld 1\n2 1 2\n{good}\n{record}\n")
        with pytest.raises(FileFormatError, match=f"^{message} at line 4$"):
            load_dataset(path)

    @pytest.mark.parametrize("field, message", [
        ("5,x", r"candidate index 5 out of range \[1, 3\]"),
        ("x,5", "invalid candidate index"),
        ("2,1,x", "invalid candidate index"),
        ("2,1,5", r"candidate index 5 out of range \[1, 3\]"),
        ("1,3,2", "candidates not in strictly ascending order"),
        ("1,1", "candidates not in strictly ascending order"),
    ])
    def test_tokens_checked_left_to_right_then_order(self, tmp_path, field, message):
        """Each candidate token is parsed and range-checked from the left, and
        the order of the candidates is checked once every token has passed."""
        path = tmp_path / "bad.pld"
        path.write_text(f"pld 1\n1 1 3\n0.0 | {field}\n")
        with pytest.raises(FileFormatError, match=f"^{message} at line 3$"):
            load_dataset(path)

    @pytest.mark.parametrize("tail", ["| 1 | 1", "| 5 | 1", "| 1 | 1 | 1"])
    def test_features_reported_before_a_new_tail(self, tmp_path, tail):
        """Bad features are reported, whether the line's tail is one seen
        before, a new bad one or a malformed one after the record checks."""
        path = tmp_path / "bad.pld"
        path.write_text(f"pld 1\n2 1 2\n0.0 | 1 | 1\nx {tail}\n")
        message = ("malformed record" if tail.count("|") > 2
                   else r"invalid features \(could not convert string to float: 'x'\)")
        with pytest.raises(FileFormatError, match=f"^{message}.* at line 4$"):
            load_dataset(path)

    def test_record_without_bar_after_good_lines(self, tmp_path):
        """A record without `|` never matches a cached tail."""
        path = tmp_path / "bad.pld"
        path.write_text("pld 1\n2 1 2\n0.0 | 1\n1.0\n")
        with pytest.raises(FileFormatError, match="^malformed record: .* at line 4$"):
            load_dataset(path)


PLD_LINES = ["pld 1", "2 1 2", "0.0 | 1 | 1", "1.0 | 1,2 | 2"]
MODEL_LINES = ["sure-model 1", "2 1 2 1.5", "0.0", "1.0", "0.1 0.2", "0.3 0.4", "0.5 0.6"]
LOADERS = pytest.mark.parametrize("load, lines", [(load_dataset, PLD_LINES),
                                                  (load_model, MODEL_LINES)], ids=["pld", "model"])


class TestParseLabel:
    """One rule for the 1-based labels of every file format."""

    @pytest.mark.parametrize("token, top, label", [
        ("1", 3, 0), ("3", 3, 2), (" 3 ", None, 2), ("\t7\n", 7, 6), ("12", None, 11),
    ])
    def test_label(self, token, top, label):
        assert parse_label(token, 9, "label", top) == label

    @pytest.mark.parametrize("token, top, message", [
        ("0", None, r"label 0 out of range \[1, inf\]"),
        ("-1", None, r"label -1 out of range \[1, inf\]"),
        ("4", 3, r"label 4 out of range \[1, 3\]"),
        ("2.5", None, "invalid label"),
        ("x", 3, "invalid label"),
        ("", None, "invalid label"),
    ])
    def test_bad_token_named_at_line(self, token, top, message):
        with pytest.raises(FileFormatError, match=f"^{message} at line 9$"):
            parse_label(token, 9, "label", top)


class TestHeaders:
    """PLD and model files share one header rule: the magic line compared after
    stripping whitespace, and each field of line 2 checked by its own rule."""

    @LOADERS
    def test_magic_line_stripped(self, tmp_path, load, lines):
        path = tmp_path / "f"
        path.write_text("\n".join([f"{lines[0]} ", *lines[1:]]) + "\n")
        load(path)
        path.write_text("\n".join([f"\t{lines[0]}\t", *lines[1:]]) + "\n")
        load(path)

    @LOADERS
    @pytest.mark.parametrize("index, token, message", [
        (0, "0", "m must be at least 1 and an integer, got 0"),
        (1, "0", "n must be at least 1 and an integer, got 0"),
        (2, "-3", "l must be at least 1 and an integer, got -3"),
        (0, "2.0", "invalid literal for int() with base 10: '2.0'"),
        (1, None, "fields"),
    ])
    def test_bad_field_named_at_line_2(self, tmp_path, load, lines, index, token, message):
        fields = lines[1].split()
        fields[index:index + 1] = [] if token is None else [token]
        path = tmp_path / "f"
        path.write_text("\n".join([lines[0], " ".join(fields), *lines[2:]]) + "\n")
        usage = "<m> <n> <l> <sigma>" if load is load_model else "<m> <n> <l>"
        with pytest.raises(FileFormatError, match=re.escape(message) + r".*: expected "
                           + re.escape(f"'{usage}' at line 2")):
            load(path)

    @LOADERS
    @pytest.mark.parametrize("size", ["short", "long"])
    def test_row_count_checked_before_any_row(self, tmp_path, load, lines, size):
        """A file with too few or too many lines fails at line 2 on its count,
        before a malformed row at line 3 is read."""
        rows = [*lines[:2], "0.0 x | 1 | 1", *lines[3:]]
        path = tmp_path / "f"
        path.write_text("\n".join(rows[:-1] if size == "short" else [*rows, rows[-1]]) + "\n")
        with pytest.raises(FileFormatError, match=r"^dimension mismatch: header declares 2 rows"
                           r", .* at line 2$"):
            load(path)


class TestTextLines:
    """read_lines and write_lines go through the file object line by line and
    keep the bytes of reading and writing the whole text at once."""

    @pytest.mark.parametrize("raw, lines", [
        (b"a\r\nb\r\n", ["a", "b"]),  # CRLF and CR read as universal newlines
        (b"a\rb\r", ["a", "b"]),
        (b"a\nb", ["a", "b"]),  # no final LF
        (b"a\n\n", ["a", ""]),
        (b"\n", [""]),
        (b"", []),
        ("\u00e9\r\n\r\r\nb".encode(), ["\u00e9", "", "", "b"]),
    ])
    @pytest.mark.parametrize("block", [1, 2, READ_BLOCK])
    def test_read(self, tmp_path, monkeypatch, raw, lines, block):
        """The count pass agrees with the lines, also where a block of the
        count pass ends between the CR and LF of a CRLF."""
        monkeypatch.setattr(data, "READ_BLOCK", block)
        path = tmp_path / "t.txt"
        path.write_bytes(raw)
        with read_lines(path) as (count, got):
            assert (count, list(got)) == (len(lines), lines)

    @pytest.mark.parametrize("raw, byte, line", [
        (b"a\nb\xe9\n", 0xE9, 2),
        (b"a\r\nb\r\n\xc3", 0xC3, 3),  # a sequence cut short by the end of the file
        (b"1\r2\r3\xff\r", 0xFF, 3),
        ("\u00e9\r\n".encode() + b"\x80", 0x80, 2),
        (b"\r\n" * 5000 + b"\xe9", 0xE9, 5001),
        (b"a" * 8191 + b"\xc3(\n", 0xC3, 1),  # a sequence across the decoder's 8 KiB chunks
        (b"a" * 8191 + b"\r\n\xed\xa0\x80", 0xED, 2),  # an encoded surrogate is no UTF-8
    ])
    @pytest.mark.parametrize("block", [1, READ_BLOCK])
    def test_not_utf8_names_line(self, tmp_path, monkeypatch, raw, byte, line, block):
        """A file that is not UTF-8 fails before its lines are given, naming its
        first bad byte and that byte's line, counted as universal newlines count."""
        monkeypatch.setattr(data, "READ_BLOCK", block)
        path = tmp_path / "t.txt"
        path.write_bytes(raw)
        with pytest.raises(FileFormatError, match=f"^not UTF-8: byte {byte:#04x} at line {line}$"):
            with read_lines(path):
                pass

    @pytest.mark.parametrize("lines, raw", [
        ([], b"\n"),  # no lines still write one empty line
        ([""], b"\n"),
        (["a", "b"], b"a\nb\n"),
        (["x\u00e9", ""], "x\u00e9\n\n".encode()),
    ])
    def test_write_list_or_generator(self, tmp_path, lines, raw):
        path = tmp_path / "t.txt"
        for given in (lines, (line for line in lines)):
            write_lines(path, given)
            assert path.read_bytes() == raw

    @pytest.mark.parametrize("save", [
        lambda d, path: save_dataset(d, path),
        lambda d, path: save_model(KernelModel(d.features, d.features, d.features[0], 1.0), path),
    ], ids=["dataset", "model"])
    def test_writers_hold_no_copy_of_the_file(self, tmp_path, save):
        """The writers stream their lines: peak memory stays far below the
        size of the file they write."""
        d = singleton_dataset(4000, 5, n=8)
        path = tmp_path / "out.txt"
        tracemalloc.start()
        try:
            save(d, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 8

    @pytest.mark.parametrize("save, load", [
        (save_dataset, load_dataset),
        (lambda d, path: save_model(KernelModel(d.features, d.features, d.features[0], 1.0), path),
         load_model),
    ], ids=["dataset", "model"])
    def test_readers_hold_no_copy_of_the_file(self, tmp_path, save, load):
        """The loaders read one line at a time: at 20000 x 10 their peak memory
        stays below 1.5 times the size of the file, where a list of its lines
        would take more than twice it."""
        path = tmp_path / "in.txt"
        save(singleton_dataset(20000, 10, n=10), path)
        tracemalloc.start()
        try:
            load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * path.stat().st_size

    @pytest.mark.parametrize("load, text, line", [
        (load_dataset, "pld 1\n3 1 2\n0.0 | 1 | 1\n1.0 | 1,2 | x\n2.0 | 2 | 2\n", 4),
        (load_model, "sure-model 1\n2 1 2 1.5\n0.0\n1.0\n0.1 0.2\n0.3 x\n0.5 0.6\n", 6),
        (read_labels, "1\n2\nx\n1\n", 3),
        (load_values_map, "1 20.0\n2 x\n3 1.0\n", 2),
    ], ids=["dataset", "model", "labels", "values"])
    def test_reader_failing_mid_file_closes_it(self, tmp_path, monkeypatch, load, text, line):
        """A reader that raises on a row has closed its file by the time the
        error reaches the caller, not only once the error is collected."""
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(data, "open", recording_open, raising=False)
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=f"at line {line}$"):
            load(path)
        assert len(opened) == 1 and opened[0].closed


class TestCorrupt:
    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": -1}, "seed must be at least 0 and an integer, got -1"),
        ({"seed": 1.5}, "seed must be at least 0 and an integer, got 1.5"),
        ({"r": 2.0}, "r must be at least 1 and an integer, got 2.0"),
        ({"r": True}, "r must be at least 1 and an integer, got True"),
        ({"r": 3, "mode": "coupled"}, "r=3 needs random mode"),
        ({"epsilon": 0.5}, "epsilon=0.5 needs coupled mode"),
        ({"p": "0.5"}, r"p must be in \[0, 1\], got 0.5"),
        ({"p": True}, r"p must be in \[0, 1\], got True"),
        ({"epsilon": "0.5", "mode": "coupled"}, r"epsilon must be in \[0, 1\], got 0.5"),
    ])
    def test_bad_spec_named(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(**{"p": 0.5, **kwargs})

    def test_p_zero_is_identity(self):
        d = singleton_dataset(50, 5, seed=3)
        out = corrupt(d, SyntheticSpec(p=0.0, r=2, seed=9))
        assert np.array_equal(out.candidates, d.candidates)
        assert np.array_equal(out.truth, d.truth)

    def test_p_one_random_sizes(self):
        d = singleton_dataset(40, 6, seed=1)
        out = corrupt(d, SyntheticSpec(p=1.0, r=2, seed=7))
        sizes = out.candidates.sum(axis=1)
        assert (sizes == 3).all()
        assert out.candidates[np.arange(out.m), out.truth].all()

    def test_exact_pl_count(self):
        d = singleton_dataset(2000, 6, seed=2)
        out = corrupt(d, SyntheticSpec(p=0.7, r=2, seed=11))
        sizes = out.candidates.sum(axis=1)
        assert int((sizes == 3).sum()) == round(0.7 * 2000)
        assert int((sizes == 1).sum()) == 2000 - round(0.7 * 2000)

    def test_coupled_sizes_and_frequency(self):
        d = singleton_dataset(4000, 6, seed=4)
        out = corrupt(d, SyntheticSpec(p=1.0, r=1, epsilon=0.3, mode="coupled", seed=13))
        sizes = out.candidates.sum(axis=1)
        assert (sizes == 2).all()
        extra = np.argmax(out.candidates - np.eye(6, dtype=np.uint8)[out.truth], axis=1)
        coupled = (out.truth + 1) % 6
        freq = float(np.mean(extra == coupled))
        # 3 sigma binomial bound around 0.3 for 4000 draws
        assert 0.3 - 3 * np.sqrt(0.3 * 0.7 / 4000) <= freq <= 0.3 + 3 * np.sqrt(0.3 * 0.7 / 4000)

    def test_coupled_never_adds_truth(self):
        d = singleton_dataset(500, 4, seed=5)
        out = corrupt(d, SyntheticSpec(p=1.0, r=1, epsilon=0.5, mode="coupled", seed=14))
        assert out.candidates[np.arange(out.m), out.truth].all()
        assert (out.candidates.sum(axis=1) == 2).all()

    @pytest.mark.parametrize("spec, digest", [
        (SyntheticSpec(p=0.6, r=1, seed=17),
         "4df4000c6836988c78ac37bc915f2783a8f12ea63281f9371d8d8a6e27c4d498"),
        (SyntheticSpec(p=0.6, r=2, seed=17),
         "8d6fa845a25fb35efb4f6a90b33f560ae421b5a60e2ab3f65ce2102193b2831e"),
        (SyntheticSpec(p=0.6, r=3, seed=17),
         "6989368745ab03dab31c2aed96d73ca33e060601ba1e4b73c6278d18b842997b"),
        (SyntheticSpec(p=0.8, epsilon=0.3, mode="coupled", seed=17),
         "54e24d67f2d331c7ee6a1dc2a7e76b1fffbb3979dbb0edd3731b2b234134752c"),
    ], ids=["r1", "r2", "r3", "coupled"])
    def test_random_stream_pinned(self, spec, digest):
        """A seed gives the same candidate sets as ever: every `gen` output
        depends on this stream."""
        out = corrupt(singleton_dataset(500, 7, seed=8), spec)
        assert hashlib.sha256(out.candidates.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("m, l, p, r, seed", [
        (300, 10, 0.7, 2, 0), (200, 3, 1.0, 2, 5), (150, 40, 0.3, 7, 9), (60, 2, 0.5, 1, 1),
    ])
    def test_random_mode_matches_per_row_pools(self, m, l, p, r, seed):
        """Random mode draws like the reference loop that picks each row's
        extra labels from an explicit pool of its l - 1 non-truth labels."""
        d = singleton_dataset(m, l, seed=seed)
        rng = np.random.default_rng(seed)
        want = d.candidates.copy()
        for i in rng.choice(m, size=int(round(p * m)), replace=False):
            want[i, rng.choice(np.delete(np.arange(l), d.truth[i]), size=r, replace=False)] = 1
        out = corrupt(d, SyntheticSpec(p=p, r=r, seed=seed))
        assert np.array_equal(out.candidates, want)

    def test_deterministic_byte_for_byte(self, tmp_path):
        d = singleton_dataset(300, 5, seed=6)
        spec = SyntheticSpec(p=0.5, r=2, seed=21)
        p1, p2 = tmp_path / "a.pld", tmp_path / "b.pld"
        save_dataset(corrupt(d, spec), p1)
        save_dataset(corrupt(d, spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_r_too_large_rejected(self):
        d = singleton_dataset(10, 3, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            corrupt(d, SyntheticSpec(p=0.5, r=3, seed=0))

    def test_requires_truth(self):
        d = tiny_dataset(truth=False)
        with pytest.raises(ValueError, match="ground truth"):
            corrupt(d, SyntheticSpec(p=0.5, r=1, seed=0))

    def test_requires_singleton_candidates(self):
        d = tiny_dataset()  # has multi-label rows
        with pytest.raises(ValueError, match="singleton"):
            corrupt(d, SyntheticSpec(p=0.5, r=1, seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(p=1.5, r=1)
        with pytest.raises(ValueError):
            SyntheticSpec(p=0.5, r=0)
        with pytest.raises(ValueError):
            SyntheticSpec(p=0.5, r=1, epsilon=-0.1)
        with pytest.raises(ValueError):
            SyntheticSpec(p=0.5, r=1, mode="weird")


class TestSplitFolds:
    def test_ten_singleton_folds(self):
        d = singleton_dataset(10, 3, seed=0)
        parts = split_folds(d, 10, seed=0)
        assert len(parts) == 10
        assert all(len(te) == 1 for _, te in parts)

    def test_remainder_rule(self):
        d = singleton_dataset(11, 3, seed=0)
        sizes = sorted(len(te) for _, te in split_folds(d, 10, seed=0))
        assert sizes == [1] * 9 + [2]

    def test_partition_property(self):
        d = singleton_dataset(53, 4, seed=1)
        parts = split_folds(d, 7, seed=5)
        together = np.concatenate([te for _, te in parts])
        assert sorted(together.tolist()) == list(range(53))
        for tr, te in parts:
            assert np.intersect1d(tr, te).size == 0
            assert len(tr) + len(te) == 53

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 60), st.integers(2, 12), st.integers(0, 2**31 - 1))
    def test_partition_property_randomized(self, m, k, seed):
        if k > m:
            k = m
        d = singleton_dataset(m, 3, seed=0)
        parts = split_folds(d, k, seed=seed)
        together = np.concatenate([te for _, te in parts])
        assert sorted(together.tolist()) == list(range(m))
        sizes = [len(te) for _, te in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_stratified_when_truth_present(self):
        # 30 of each class; every fold of 10 should carry all three classes evenly
        d = singleton_dataset(90, 3, seed=7)
        counts = np.bincount(d.truth, minlength=3)
        parts = split_folds(d, 9, seed=3)
        for _, te in parts:
            fold_counts = np.bincount(d.truth[te], minlength=3)
            for c in range(3):
                expected = counts[c] / 9
                assert abs(fold_counts[c] - expected) <= 1

    def test_deterministic(self):
        d = singleton_dataset(37, 4, seed=2)
        a = split_folds(d, 5, seed=9)
        b = split_folds(d, 5, seed=9)
        for (tra, tea), (trb, teb) in zip(a, b):
            assert np.array_equal(tra, trb) and np.array_equal(tea, teb)

    def test_k_bounds(self):
        d = singleton_dataset(5, 3, seed=0)
        with pytest.raises(ValueError):
            split_folds(d, 6, seed=0)
        with pytest.raises(ValueError):
            split_folds(d, 1, seed=0)

    def test_leave_one_out(self):
        d = singleton_dataset(8, 3, seed=0)
        parts = split_folds(d, 8, seed=0)
        assert all(len(te) == 1 for _, te in parts)
