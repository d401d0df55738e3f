"""Partial-label datasets, the text-file layer, and controlled candidate corruption.

A partial-label (PL) example is a feature vector paired with a set of candidate
labels, exactly one of which is the hidden ground truth.  In-memory label
indices are 0-based; every file format uses 1-based labels.

Every file surepl reads or writes (PLD datasets, models, label files, value
maps, traces and reports) goes through one layer here: `read_lines` and
`write_lines` (UTF-8, LF line endings), `format_float` (shortest round-trip
decimals, so writing then reading a float is bit-exact) and `parse_floats`
(token count, parse and finiteness).  Malformed input raises
`FileFormatError`, whose message names the offending line.

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
from array import array
from dataclasses import dataclass
from pathlib import Path

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
    "parse_floats",
    "corrupt",
    "split_folds",
]

PLD_MAGIC = "pld 1"


class FileFormatError(ValueError):
    """An input file violates its format; the message names the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
        self.line = line


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, without their line terminators."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def write_lines(path, lines) -> None:
    """Write `lines` as UTF-8 text, each one ended by LF."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def format_float(x) -> str:
    """Shortest decimal that parses back to the same float64."""
    return repr(float(x))


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


def _locked(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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
        cands = np.array(self.candidates)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("features must be a non-empty 2-D matrix")
        if not np.isfinite(feats).all():
            raise ValueError("features must be finite")
        if cands.ndim != 2 or cands.shape[0] != feats.shape[0]:
            raise ValueError(
                f"dimension mismatch: {feats.shape[0]} feature rows vs "
                f"{cands.shape[0] if cands.ndim == 2 else '?'} candidate rows"
            )
        if cands.shape[1] < 1:
            raise ValueError("candidate matrix needs at least one label column")
        if not np.isin(cands, (0, 1)).all():
            raise ValueError("candidate matrix entries must be 0 or 1")
        cands = cands.astype(np.uint8)
        row_sizes = cands.sum(axis=1)
        if (row_sizes == 0).any():
            bad = int(np.flatnonzero(row_sizes == 0)[0])
            raise ValueError(f"empty candidate set in row {bad}")
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
            truth = _locked(truth)
        object.__setattr__(self, "features", _locked(feats))
        object.__setattr__(self, "candidates", _locked(cands))
        object.__setattr__(self, "truth", truth)

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


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the controlled corruption protocol.

    p:       proportion of instances turned into PL examples.
    r:       number of false positive labels added per PL example
             (random mode; coupled mode always adds exactly one).
    epsilon: probability that the designated coupled label is the one added
             (coupled mode only).
    mode:    "random" or "coupled".
    seed:    64-bit seed; identical seeds give byte-identical outputs.
    """

    p: float
    r: int = 1
    epsilon: float = 0.0
    mode: str = "random"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if int(self.r) != self.r or self.r < 1:
            raise ValueError("r must be a positive integer")
        if self.mode not in ("random", "coupled"):
            raise ValueError(f"unknown mode {self.mode!r}")


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
    all_labels = np.arange(l)
    if spec.mode == "random":
        for i in selected:
            pool = all_labels[all_labels != truth[i]]
            extra = rng.choice(pool, size=spec.r, replace=False)
            cands[i, extra] = 1
    else:
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
    if k < 2:
        raise ValueError("fold count must be at least 2")
    if k > m:
        raise ValueError(f"fold count {k} exceeds {m} instances")
    rng = np.random.default_rng(seed)
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
    lines = [PLD_MAGIC, f"{d.m} {d.n} {d.l}"]
    for i, row in enumerate(d.features):
        cands = ",".join(str(j + 1) for j in np.flatnonzero(d.candidates[i]))
        line = f"{' '.join(map(format_float, row.tolist()))} | {cands}"
        if d.truth is not None:
            line += f" | {d.truth[i] + 1}"
        lines.append(line)
    write_lines(path, lines)


def load_dataset(path) -> PLDataset:
    """Parse a PLD file; malformed input raises FileFormatError naming the line."""
    lines = read_lines(path)
    if not lines or lines[0].strip() != PLD_MAGIC:
        raise FileFormatError(f"malformed header: expected {PLD_MAGIC!r}", 1)
    dims = lines[1].split() if len(lines) > 1 else []
    if len(dims) != 3:
        raise FileFormatError("malformed header: expected '<m> <n> <l>'", 2)
    try:
        m, n, l = map(int, dims)
    except ValueError:
        raise FileFormatError("malformed header: dimensions must be integers", 2) from None
    if m < 1 or n < 1 or l < 1:
        raise FileFormatError("malformed header: dimensions must be positive", 2)
    if len(lines) - 2 != m:
        raise FileFormatError(
            f"dimension mismatch: header declares {m} rows, file has {len(lines) - 2}", 2
        )

    features = array("d")  # flat float64 rows, without a Python float per value
    cand_labels: list[int] = []  # every row's 1-based candidates, row after row
    cand_counts: list[int] = []
    truth: list[int] = []
    has_truth = lines[2].count("|") == 2
    for i, record in enumerate(lines[2:]):
        lineno = i + 3
        parts = [s.strip() for s in record.split("|")]
        if len(parts) not in (2, 3):
            raise FileFormatError(
                "malformed record: expected '<features> | <candidates> [| <truth>]'", lineno
            )
        if (len(parts) == 3) != has_truth:
            raise FileFormatError("inconsistent truth column", lineno)
        features.extend(parse_floats(parts[0].split(), n, lineno, "features"))

        if parts[1] == "":
            raise FileFormatError("empty candidate set", lineno)
        try:
            cand_idx = [int(tok) for tok in parts[1].split(",")]
        except ValueError:
            raise FileFormatError("invalid candidate index", lineno) from None
        prev = 0
        for c in cand_idx:
            if not 1 <= c <= l:
                raise FileFormatError(f"candidate index {c} out of range [1, {l}]", lineno)
            if c <= prev:
                raise FileFormatError("candidates not in strictly ascending order", lineno)
            prev = c
        cand_labels.extend(cand_idx)
        cand_counts.append(len(cand_idx))

        if has_truth:
            try:
                t = int(parts[2])
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
