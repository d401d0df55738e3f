"""Partial-label datasets, the text-file layer, and controlled candidate corruption.

A partial-label (PL) example is a feature vector paired with a set of candidate
labels, exactly one of which is the hidden ground truth.  In-memory label
indices are 0-based; every file format uses 1-based labels.

Every file surepl reads or writes (PLD datasets, models, label files, value
maps, traces and reports) goes through one layer here: `read_lines` and
`write_lines` (UTF-8, LF line endings), `format_float` (shortest round-trip
decimals, so writing then reading a float is bit-exact), `format_rows` (those
decimals for the rows of a matrix) and `parse_floats` (token count, parse and
finiteness).  Both line functions hold one line at a time, so a reader's
memory grows only with the arrays it parses; `read_lines` first decodes the
file and counts its lines in one pass, so a header's row count is checked,
and a file that is not UTF-8 refused, before any row is parsed.  Malformed
input raises `FileFormatError`, whose message names the offending line.  Per
row, `corrupt` makes one `rng.choice` call and sets every extra candidate in
one scatter at the end; `save_dataset` formats its label strings once and its
floats a block of rows at a time; `load_dataset` parses and checks each
distinct candidate field once, the truth on every line.

Every input rule is written once, here, and fails by a ValueError naming its
argument: counts (`check_count`), finite reals (`check_real`), bandwidths
(`check_sigma`), configs (`check_config`), candidate matrices
(`check_candidates`), the headers of PLD and model files (`read_header`) and
the read-only arrays of frozen records (`lock_fields`).

PLD format::

    pld 1
    <m> <n> <l>
    <f_1> ... <f_n> | <c_1>,<c_2>,...,<c_k>[ | <t>]

where the ``f_j`` are finite decimal floats, the ``c_j`` are 1-based
candidate label indices in strictly ascending order and the optional ``t`` is
the 1-based ground-truth label (present for every line or for none).
"""

from __future__ import annotations

import math
import numbers
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, repeat

import numpy as np

__all__ = [
    "PLDataset",
    "SyntheticSpec",
    "FileFormatError",
    "load_dataset",
    "save_dataset",
    "read_lines",
    "write_lines",
    "format_float",
    "format_rows",
    "parse_floats",
    "check_query",
    "check_count",
    "check_real",
    "check_sigma",
    "check_config",
    "check_candidates",
    "is_real",
    "check_finite",
    "read_header",
    "lock_fields",
    "InfeasibleSupportError",
    "corrupt",
    "split_folds",
]

PLD_MAGIC = "pld 1"
# entries per block of `_row_lists`: its lists stay small beside the lines they make
FORMAT_BLOCK = 512
# characters per block of `read_lines`' counting pass
READ_BLOCK = 1 << 16


class FileFormatError(ValueError):
    """An input file violates its format; the message names the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
        self.line = line


class InfeasibleSupportError(ValueError):
    """The candidate support makes the constraint polytope empty."""


@contextmanager
def read_lines(path):
    """For a `with` block: the line count of a UTF-8 text file and an iterator
    over its lines, without their line terminators (LF, CRLF or CR).  A first
    pass decodes the whole file in blocks and counts its line ends, which
    universal newlines have made LF; the iterator then reads one line at a
    time.  The file closes when the block ends, however it ends."""
    with open(path, encoding="utf-8") as f:
        count, last = 0, "\n"  # a last line without its LF counts too
        while block := f.read(READ_BLOCK):
            count, last = count + block.count("\n"), block[-1]
        f.seek(0)
        yield count + (last != "\n"), map(str.rstrip, f, repeat("\n"))


def write_lines(path, lines) -> None:
    """Write the strings of the iterable `lines` as UTF-8 text, each one ended
    by LF, one at a time; no lines write one empty line."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(next(lines, "") + "\n")
        f.writelines(line + "\n" for line in lines)


def format_float(x) -> str:
    """Shortest decimal that parses back to the same float64."""
    return repr(float(x))


def _row_lists(A):
    """The rows of the 2-D array `A` as lists, converted one block of about
    FORMAT_BLOCK entries at a time, so no list of the whole array is made."""
    step = max(1, FORMAT_BLOCK // max(A.shape[1], 1))
    for start in range(0, len(A), step):
        yield from A[start:start + step].tolist()


def format_rows(X):
    """The rows of the 2-D float64 array `X`, each as its `format_float`
    decimals joined by spaces."""
    return map(" ".join, map(map, repeat(repr), _row_lists(X)))  # repr of a float: format_float


def parse_floats(tokens, width: int, line: int, what: str) -> list[float]:
    """Exactly `width` finite floats from `tokens`; anything else raises
    FileFormatError naming `line`.  `what` names the values in the message."""
    if len(tokens) != width:
        raise FileFormatError(
            f"dimension mismatch: expected {width} {what}, found {len(tokens)}", line
        )
    try:
        values = list(map(float, tokens))
    except ValueError as exc:
        raise FileFormatError(f"invalid {what} ({exc})", line) from None
    if not all(map(math.isfinite, values)):
        raise FileFormatError(f"non-finite {what}", line)
    return values


def read_header(lines, magic: str, bandwidth: bool = False) -> list:
    """[m, n, l], and sigma if `bandwidth`, from the first two lines the iterator
    `lines` gives: line 1 is `magic` once stripped, line 2 counts of at least 1
    (`check_count`) and the bandwidth (`check_sigma`); else FileFormatError at
    line 1 or 2, with the field's message."""
    if next(lines, "").strip() != magic:
        raise FileFormatError(f"malformed header: expected {magic!r}", 1)
    names = ["m", "n", "l", "sigma"][:4 if bandwidth else 3]
    tokens = next(lines, "").split()
    try:
        if len(tokens) != len(names):
            raise ValueError(f"{len(tokens)} fields")
        return [check_sigma(float(token)) if name == "sigma" else check_count(int(token), name, 1)
                for token, name in zip(tokens, names)]
    except ValueError as exc:
        usage = " ".join(f"<{name}>" for name in names)
        raise FileFormatError(f"malformed header ({exc}): expected '{usage}'", 2) from None


def check_count(value, name: str, least: int):
    """`value` if it is an integer (Python or numpy, not a bool) of at least
    `least`; anything else raises ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be at least {least} and an integer, got {value}")
    return value


def is_real(value) -> bool:
    """Whether `value` is a real number, Python or numpy, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(value, positive: bool | None) -> bool:
    """Whether `value` is a real number (`is_real`) of magnitude at most the
    largest float (not NaN, nor an int beyond it), nonnegative, positive if
    `positive`, or of either sign if `positive` is None."""
    top = sys.float_info.max
    least = -top if positive is None else 0
    return is_real(value) and (least < value <= top if positive else least <= value <= top)


def check_finite(value, name: str) -> None:
    """Raise ValueError naming `name` unless `value` is a finite real number."""
    if not _finite(value, None):
        raise ValueError(f"{name} must be finite, got {value}")


def check_real(value, name: str, positive: bool = False) -> None:
    """Raise ValueError naming `name` unless `value` is a finite real number,
    nonnegative, or positive if `positive`."""
    if not _finite(value, positive):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {sign}, got {value}")


def check_sigma(sigma, name: str = "sigma"):
    """`sigma` if it is a finite positive real with 2 sigma^2 > 0, so the Gaussian
    kernel's exponent divides by a nonzero number; else ValueError naming `name`."""
    if not (_finite(sigma, positive=True) and 2.0 * sigma * sigma > 0):
        raise ValueError(f"{name} must be finite and positive with 2 sigma^2 > 0, got {sigma}")
    return sigma


def check_config(config, kind: type, name: str):
    """`config` if it is a `kind`; anything else raises ValueError naming `name`."""
    if not isinstance(config, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {type(config).__name__}")
    return config


def check_candidates(candidates) -> np.ndarray:
    """A new C-ordered bool mask of a 2-D 0/1 candidate matrix of l >= 1 labels;
    else ValueError, or InfeasibleSupportError naming a row without a candidate."""
    Y = np.asarray(candidates)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise ValueError(f"candidate matrix must be m x l with l >= 1, got shape {Y.shape}")
    mask = Y.astype(bool, order="C")
    if not (mask == Y).all():  # an entry equal to its truth value is 0 or 1 (isin is slower)
        raise ValueError("candidate matrix entries must be 0 or 1")
    rows = mask @ np.ones(Y.shape[1], dtype=bool)  # any per row, faster than any(axis=1)
    if not rows.all():
        raise InfeasibleSupportError(f"empty candidate set in row {int(np.argmin(rows))}")
    return mask


def lock_fields(record, **values) -> None:
    """Set the frozen dataclass `record`'s fields to `values`, its arrays read-only."""
    for field, value in values.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(record, field, value)


@dataclass(frozen=True)
class PLDataset:
    """Instances plus candidate-label sets, optionally with concealed ground truth.

    features:   (m, n) float64 matrix of feature values.
    candidates: (m, l) 0/1 matrix; candidates[i, j] == 1 iff label j is a
                candidate for instance i.  Every row has at least one 1.
    truth:      optional (m,) array of 0-based labels, each one a candidate
                of its own row.

    Instances are immutable after construction and safe to share across
    threads; the backing arrays are copied and marked read-only.
    """

    features: np.ndarray
    candidates: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("features must be a non-empty 2-D matrix")
        if not np.isfinite(feats).all():
            raise ValueError("features must be finite")
        cands = check_candidates(self.candidates).view(np.uint8)  # a new array of 0s and 1s
        if len(cands) != len(feats):
            raise ValueError(f"dimension mismatch: {len(feats)} feature rows vs "
                             f"{len(cands)} candidate rows")
        truth = self.truth
        if truth is not None:
            truth = np.array(truth, dtype=np.int64)
            if truth.shape != (feats.shape[0],):
                raise ValueError("truth must have one label per instance")
            if truth.min() < 0 or truth.max() >= cands.shape[1]:
                raise ValueError("truth labels out of range")
            if not cands[np.arange(len(truth)), truth].all():
                bad = int(np.flatnonzero(~cands[np.arange(len(truth)), truth].astype(bool))[0])
                raise ValueError(f"truth label outside candidate set in row {bad}")
        lock_fields(self, features=feats, candidates=cands, truth=truth)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    @property
    def l(self) -> int:
        return self.candidates.shape[1]

    def subset(self, indices) -> "PLDataset":
        """New dataset restricted to the given instance indices (order kept)."""
        idx = np.asarray(indices, dtype=np.int64)
        truth = None if self.truth is None else self.truth[idx]
        return PLDataset(self.features[idx], self.candidates[idx], truth)


def check_query(X_query, n_features: int) -> np.ndarray:
    """Query rows as a float64 (q, n_features) matrix of finite values.

    Anything else raises ValueError; a non-finite value names its 0-based row.
    """
    X = np.asarray(X_query, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"query must be a 2-D matrix, got shape {X.shape}")
    if X.shape[1] != n_features:
        raise ValueError(
            f"dimension mismatch: query has {X.shape[1]} features, expected {n_features}"
        )
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite value in query row {int(np.argmin(finite))}")
    return X


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the controlled corruption protocol.

    p:       proportion of instances turned into PL examples.
    r:       number of false positive labels added per PL example
             (random mode; coupled mode adds exactly one and takes only r = 1).
    epsilon: probability that the designated coupled label is the one added
             (coupled mode; random mode takes only epsilon = 0).
    mode:    "random" or "coupled".
    seed:    64-bit seed; identical seeds give byte-identical outputs.
    """

    p: float
    r: int = 1
    epsilon: float = 0.0
    mode: str = "random"
    seed: int = 0

    def __post_init__(self):
        for name, value in (("p", self.p), ("epsilon", self.epsilon)):
            if not (is_real(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        check_count(self.r, "r", 1)
        check_count(self.seed, "seed", 0)
        if self.mode not in ("random", "coupled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "coupled" and self.r != 1:
            raise ValueError(f"r={self.r} needs random mode: coupled mode adds exactly one label")
        if self.mode == "random" and self.epsilon != 0:
            raise ValueError(f"epsilon={self.epsilon} needs coupled mode")


def corrupt(clean: PLDataset, spec: SyntheticSpec) -> PLDataset:
    """Conceal ground truth inside candidate sets following the (p, r, epsilon) protocol.

    The input must be fully supervised: truth present and every candidate set
    the singleton of its truth label.  round(p * m) instances are selected
    uniformly without replacement.  In random mode each selected instance
    receives r distinct false positive labels drawn uniformly from the l - 1
    non-truth labels.  In coupled mode each selected instance receives exactly
    one extra label: with probability epsilon the designated coupled label of
    its class (class c couples to class (c + 1) mod l), otherwise one of the
    remaining l - 2 labels uniformly at random.  Truth is preserved unchanged.
    """
    if clean.truth is None:
        raise ValueError("corrupt requires a dataset with ground truth")
    if (clean.candidates.sum(axis=1) != 1).any():
        raise ValueError("corrupt requires singleton candidate sets (fully supervised input)")
    m, l = clean.m, clean.l
    if spec.mode == "random" and spec.r > l - 1:
        raise ValueError(f"r={spec.r} exceeds the {l - 1} available non-truth labels")
    if spec.mode == "coupled" and l < 3:
        raise ValueError("coupled mode needs at least 3 labels")

    rng = np.random.default_rng(spec.seed)
    n_pl = int(round(spec.p * m))
    selected = rng.choice(m, size=n_pl, replace=False)

    cands = np.array(clean.candidates)
    truth = clean.truth
    if spec.mode == "random":
        # a draw from the l - 1 labels other than t depends only on their count, so
        # each row draws positions among them, and position k is label k + (k >= t)
        extra = np.empty((n_pl, spec.r), dtype=np.intp)
        for k in range(n_pl):
            extra[k] = rng.choice(l - 1, size=spec.r, replace=False)
        cands[selected[:, None], extra + (extra >= truth[selected, None])] = 1
    else:
        all_labels = np.arange(l)
        for i in selected:
            coupled = (truth[i] + 1) % l
            if rng.random() < spec.epsilon:
                extra = coupled
            else:
                pool = all_labels[(all_labels != truth[i]) & (all_labels != coupled)]
                extra = rng.choice(pool)
            cands[i, extra] = 1
    return PLDataset(clean.features, cands, truth)


def split_folds(d: PLDataset, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic k-fold partition; returns (train_idx, test_idx) pairs.

    Test folds are disjoint, cover all instances, and differ in size by at
    most one.  When ground truth is available the assignment is stratified:
    per-class index blocks are shuffled and dealt round-robin, which keeps
    every class spread evenly across folds.
    """
    m = d.m
    check_count(k, "fold count", 2)
    if k > m:
        raise ValueError(f"fold count {k} exceeds {m} instances")
    rng = np.random.default_rng(check_count(seed, "seed", 0))
    if d.truth is not None:
        blocks = [rng.permutation(np.flatnonzero(d.truth == lab)) for lab in np.unique(d.truth)]
        order = np.concatenate(blocks)
    else:
        order = rng.permutation(m)
    fold_of = np.arange(m) % k
    out = []
    for f in range(k):
        test = np.sort(order[fold_of == f])
        train = np.sort(order[fold_of != f])
        out.append((train, test))
    return out


def save_dataset(d: PLDataset, path) -> None:
    """Write the dataset in PLD format; load_dataset inverts this bit-exactly."""
    labels = [str(j + 1) for j in range(d.l)]  # 1-based label strings, made once

    def lines():
        yield from (PLD_MAGIC, f"{d.m} {d.n} {d.l}")
        columns = [format_rows(d.features),
                   (",".join(compress(labels, row)) for row in _row_lists(d.candidates))]
        if d.truth is not None:
            columns.append(map(labels.__getitem__, d.truth))
        yield from map(" | ".join, zip(*columns))

    write_lines(path, lines())


def load_dataset(path) -> PLDataset:
    """Parse a PLD file one line at a time; malformed input raises
    FileFormatError naming the line."""
    features = array("d")  # flat float64 rows, without a Python float per value
    cand_labels: list[int] = []  # every row's 1-based candidates, row after row
    cand_counts: list[int] = []
    truth: list[int] = []
    sets: dict[str, list[int]] = {}  # each distinct candidate field, parsed and checked once
    with read_lines(path) as (count, lines):
        m, n, l = read_header(lines, PLD_MAGIC)
        if count - 2 != m:
            raise FileFormatError(
                f"dimension mismatch: header declares {m} rows, file has {count - 2}", 2
            )
        first = next(lines)
        has_truth = first.count("|") == 2
        for lineno, record in enumerate(chain([first], lines), start=3):
            parts = record.split("|")  # the features' split() ignores the spaces around them
            if len(parts) not in (2, 3):
                raise FileFormatError(
                    "malformed record: expected '<features> | <candidates> [| <truth>]'", lineno
                )
            if (len(parts) == 3) != has_truth:
                raise FileFormatError("inconsistent truth column", lineno)
            features.extend(parse_floats(parts[0].split(), n, lineno, "features"))

            field = parts[1].strip()
            cand_idx = sets.get(field)
            if cand_idx is None:  # a field seen before passed these checks on its first line
                if field == "":
                    raise FileFormatError("empty candidate set", lineno)
                try:
                    cand_idx = [int(tok) for tok in field.split(",")]
                except ValueError:
                    raise FileFormatError("invalid candidate index", lineno) from None
                prev = 0
                for c in cand_idx:
                    if not 1 <= c <= l:
                        raise FileFormatError(
                            f"candidate index {c} out of range [1, {l}]", lineno
                        )
                    if c <= prev:
                        raise FileFormatError("candidates not in strictly ascending order", lineno)
                    prev = c
                sets[field] = cand_idx
            cand_labels.extend(cand_idx)
            cand_counts.append(len(cand_idx))

            if has_truth:
                try:
                    t = int(parts[2].strip())
                except ValueError:
                    raise FileFormatError("invalid truth label", lineno) from None
                if not 1 <= t <= l:
                    raise FileFormatError(f"truth label {t} out of range [1, {l}]", lineno)
                if t not in cand_idx:
                    raise FileFormatError(f"truth label {t} outside candidate set", lineno)
                truth.append(t - 1)

    # allocated only once every row has parsed, so a huge header l fails here
    try:
        candidates = np.zeros((m, l), dtype=np.uint8)
    except (MemoryError, ValueError):  # ValueError: more elements than numpy can index
        raise FileFormatError(
            f"cannot allocate the declared {m} x {l} candidate matrix", 2
        ) from None
    candidates[np.repeat(np.arange(m), cand_counts), np.array(cand_labels) - 1] = 1
    return PLDataset(np.frombuffer(features).reshape(m, n), candidates,
                     np.array(truth) if has_truth else None)
