"""Experiment orchestration: metrics, significance testing, cross-validation,
grid search, and the report / label-file plumbing used by the CLI.

Everything is reproducible byte for byte from (inputs, flags, seed): fold
splits and the per-fold inner grid-search seeds of nested cross-validation
derive from a single master generator, and reports serialize with stable key
ordering.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.special import betainc

from .baselines import plknn_predict
from .data import (FileFormatError, PLDataset, check_count, check_finite, check_real, is_real,
                   parse_floats, read_lines, split_folds, write_lines)
from .training import TrainConfig, TrainTrace, predict, train, train_grid

__all__ = [
    "ExperimentReport",
    "GridSearchResult",
    "TTestResult",
    "accuracy",
    "mae_at_k",
    "t_test_two_sample",
    "cross_validate",
    "grid_search",
    "nested_cross_validate",
    "make_blobs_dataset",
    "report_to_json",
    "report_from_json",
    "write_labels",
    "read_labels",
    "load_values_map",
]

DEFAULT_GRID = (0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0)


def accuracy(pred, truth) -> float:
    """Fraction of exact label matches: `mae_at_k` with the identity map and k = 0."""
    return mae_at_k(pred, truth)


def mae_at_k(pred, truth, values: dict[int, float] | None = None, k: float = 0.0) -> float:
    """Fraction of predictions whose mapped value is within k of the truth's.

    `values` maps 0-based labels to reals (for example label -> age); the
    default is the identity mapping.  With k = 0 and injective values this
    reduces to plain accuracy.
    """
    check_real(k, "k")
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"length mismatch: {pred.shape} predictions vs {truth.shape} truths")
    if pred.size == 0:
        raise ValueError("empty input")
    if values is None:
        pv, tv = pred.astype(float), truth.astype(float)
    else:
        used = set(map(int, pred)) | set(map(int, truth))
        missing = used - set(values)
        if missing:
            raise ValueError(f"no value mapping for labels {sorted(missing)}")
        if not all(is_real(values[label]) for label in used):
            raise ValueError("values must map each label to a real number")
        for label in sorted(used):
            check_finite(values[label], f"values[{label}]")
        pv = np.array([values[int(x)] for x in pred])
        tv = np.array([values[int(x)] for x in truth])
    return float(np.mean(np.abs(pv - tv) <= k))


@dataclass(frozen=True)
class TTestResult:
    """Pooled-variance two-sample t-test, two-tailed, verdict from a's side."""

    t_stat: float
    df: float
    p_value: float
    verdict: str  # "win" | "tie" | "loss"


def t_test_two_sample(a, b, alpha: float = 0.05) -> TTestResult:
    """Two-sample t-test with pooled variance and df = n_a + n_b - 2.

    The two-tailed p-value comes from the regularized incomplete beta
    function.  Degenerate samples with a zero standard error (a zero pooled
    variance, or one that underflows) give a tie when the means agree and a
    win/loss with t = +-inf and p = 0 otherwise.  So does a t, or t^2, beyond
    float64: it is computed under `np.errstate` and overflows to +-inf.
    """
    if not (is_real(alpha) and 0 < alpha < 1):
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs at least two observations")
    na, nb = a.size, b.size
    df = float(na + nb - 2)
    with np.errstate(over="ignore", invalid="ignore"):  # a variance beyond float64 is refused
        ma, mb = float(a.mean()), float(b.mean())
        sums = (na - 1) * a.var(ddof=1), (nb - 1) * b.var(ddof=1)
        sp2 = (sums[0] + sums[1]) / df
    for name, value in zip(("sample a's variance", "sample b's variance",
                            "the pooled variance of a and b"), (*sums, sp2)):
        if not np.isfinite(value):
            raise ValueError(f"{name} cannot be formed in float64, got {value}")
    se = np.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    if se == 0.0:
        t, p = (0.0, 1.0) if ma == mb else (np.inf if ma > mb else -np.inf, 0.0)
    else:
        with np.errstate(over="ignore"):  # t = +-inf gives df / (df + t^2) = 0, so p = 0
            t = (ma - mb) / se
            p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    verdict = ("win" if ma > mb else "loss") if p < alpha else "tie"
    return TTestResult(float(t), df, p, verdict)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-fold accuracies with their mean and sample standard deviation."""

    algo: str
    config: dict
    folds: int
    seed: int
    per_fold_accuracy: tuple[float, ...]
    mean: float
    std: float
    traces: tuple[TrainTrace, ...] | None = None

    def __post_init__(self):
        if len(self.per_fold_accuracy) == 0:
            raise ValueError("per_fold_accuracy must not be empty")
        for i, acc in enumerate(self.per_fold_accuracy):
            check_real(acc, f"per_fold_accuracy[{i}]")
        check_real(self.mean, "mean")
        check_real(self.std, "std")
        accs = np.array(self.per_fold_accuracy, dtype=np.float64)
        if self.folds != accs.size:
            raise ValueError(f"folds={self.folds} disagrees with {accs.size} per-fold accuracies")
        if (accs > 1).any():
            raise ValueError("per_fold_accuracy entries must lie in [0, 1]")
        if abs(self.mean - accs.mean()) > 1e-12:
            raise ValueError("mean inconsistent with per-fold accuracies")
        if abs(self.std - _sample_std(accs)) > 1e-12:
            raise ValueError("std inconsistent with per-fold accuracies")

    @classmethod
    def from_folds(cls, algo, config, folds, seed, accs, traces=None) -> "ExperimentReport":
        accs = tuple(float(x) for x in accs)
        arr = np.asarray(accs)
        return cls(algo, dict(config), folds, seed, accs, float(arr.mean()), _sample_std(arr),
                   traces)


def _sample_std(accs: np.ndarray) -> float:
    """The sample (ddof = 1) standard deviation; 0 for a single fold."""
    return float(accs.std(ddof=1)) if accs.size > 1 else 0.0


def _fold_plan(d: PLDataset, folds: int, seed: int):
    """Master-seeded split plus one independent seed per fold.

    Nested cross-validation seeds each fold's inner grid search with it.
    Every fold is scored against the truth, so a dataset without it fails here.
    """
    if d.truth is None:
        raise ValueError("cross-validation requires ground truth for scoring")
    master = np.random.default_rng(check_count(seed, "seed", 0))
    parts = split_folds(d, folds, int(master.integers(2**63 - 1)))  # checks the fold count
    return parts, [int(s) for s in master.integers(0, 2**63 - 1, size=folds)]


def _fit_and_predict(d_train: PLDataset, X_test, algo: str, params):
    if algo == "sure":
        model, _, trace = train(d_train, params)
        return predict(model, X_test), trace
    if algo == "plknn":
        return plknn_predict(d_train, X_test, params), None
    raise ValueError(f"unknown algorithm {algo!r}")


def cross_validate(
    d: PLDataset,
    algo: str,
    params,
    folds: int,
    seed: int,
    collect_traces: bool = False,
) -> ExperimentReport:
    """k-fold cross-validation; trains on candidate sets, scores against truth.

    Test instances are presented as bare feature rows; their candidate sets
    are never shown to the model.
    """
    parts, _ = _fold_plan(d, folds, seed)
    accs, traces = [], []
    for tr, te in parts:
        pred, trace = _fit_and_predict(d.subset(tr), d.features[te], algo, params)
        accs.append(accuracy(pred, d.truth[te]))
        if trace is not None:
            traces.append(trace)
    kept = tuple(traces) if collect_traces and traces else None
    return ExperimentReport.from_folds(algo, asdict(params), folds, seed, accs, kept)


@dataclass(frozen=True)
class GridSearchResult:
    lam: float
    beta: float
    entries: tuple[tuple[float, float, float], ...]  # (lam, beta, inner CV mean)


def grid_search(
    d_train: PLDataset,
    lam_grid=DEFAULT_GRID,
    beta_grid=DEFAULT_GRID,
    inner_folds: int = 5,
    seed: int = 0,
    base: TrainConfig = TrainConfig(),
) -> GridSearchResult:
    """Pick (lam, beta) by inner cross-validation mean accuracy on d_train.

    Every grid point sees the same folds, those `cross_validate` draws from
    `seed`.  Ties prefer the smaller lam, then the smaller beta; every
    evaluation is logged in `entries`.

    The search runs fold-major: each fold trains the whole grid at once
    with `train_grid` and scores every model with `predict`.  Each point
    gets the accuracies `cross_validate` would give it, up to the round-off
    of the lockstep ridge solve (see `training.train_grid`).
    """
    lams, betas = _grid(lam_grid), _grid(beta_grid)
    parts, _ = _fold_plan(d_train, inner_folds, seed)
    accs = np.empty((len(lams), len(betas), len(parts)))
    for f, (tr, te) in enumerate(parts):
        for j, fits in enumerate(train_grid(d_train.subset(tr), lams, betas, base)):
            for i, (model, _, _) in enumerate(fits):
                pred = predict(model, d_train.features[te])
                accs[i, j, f] = accuracy(pred, d_train.truth[te])
    entries = tuple((lam, beta, float(accs[i, j].mean()))
                    for i, lam in enumerate(lams) for j, beta in enumerate(betas))
    lam, beta, _ = max(entries, key=lambda e: e[2])  # the first maximum in lam-major order
    return GridSearchResult(lam, beta, entries)


def _grid(values) -> list[float]:
    """A grid's distinct points as floats, ascending."""
    return sorted(set(map(float, values)))


def nested_cross_validate(
    d: PLDataset,
    lam_grid=DEFAULT_GRID,
    beta_grid=DEFAULT_GRID,
    folds: int = 10,
    inner_folds: int = 5,
    seed: int = 0,
    base: TrainConfig = TrainConfig(),
) -> ExperimentReport:
    """Full evaluation protocol: per outer fold, select (lam, beta) by inner
    cross-validation on the training split, refit, and score the held-out fold."""
    lams, betas = _grid(lam_grid), _grid(beta_grid)
    parts, fold_seeds = _fold_plan(d, folds, seed)
    accs, chosen = [], []
    for (tr, te), fseed in zip(parts, fold_seeds):
        d_tr = d.subset(tr)
        gs = grid_search(d_tr, lams, betas, inner_folds, fseed, base)
        cfg = replace(base, lam=gs.lam, beta=gs.beta)
        model, _, _ = train(d_tr, cfg)
        accs.append(accuracy(predict(model, d.features[te]), d.truth[te]))
        chosen.append({"lam": gs.lam, "beta": gs.beta})
    config = {
        "base": asdict(base),
        "lam_grid": lams,
        "beta_grid": betas,
        "inner_folds": inner_folds,
        "selected": chosen,
    }
    return ExperimentReport.from_folds("sure+grid", config, folds, seed, accs)


def make_blobs_dataset(
    m: int,
    classes: int = 3,
    n_features: int = 2,
    separation: float = 4.0,
    spread: float = 1.0,
    seed: int = 0,
) -> PLDataset:
    """Gaussian blobs with singleton candidate sets, for synthetic experiments.

    Class centers sit on a circle in the first two feature dimensions with
    nearest-center distance `separation`; rows are shuffled.
    """
    check_count(classes, "classes", 2)
    check_count(m, "m", classes)  # one instance per class
    check_count(n_features, "n_features", 1)
    rng = np.random.default_rng(check_count(seed, "seed", 0))
    radius = separation / (2.0 * np.sin(np.pi / classes))
    angles = 2.0 * np.pi * np.arange(classes) / classes
    centers = np.zeros((classes, n_features))
    centers[:, 0] = radius * np.cos(angles)
    centers[:, min(1, n_features - 1)] = radius * np.sin(angles)
    counts = [m // classes + (1 if c < m % classes else 0) for c in range(classes)]
    truth = np.repeat(np.arange(classes, dtype=np.int64), counts)
    X = centers[truth] + spread * rng.standard_normal((m, n_features))
    perm = rng.permutation(m)
    X, truth = X[perm], truth[perm]
    cands = np.zeros((m, classes), dtype=np.uint8)
    cands[np.arange(m), truth] = 1
    return PLDataset(X, cands, truth)


# ---------------------------------------------------------------------------
# report and label-file plumbing


def report_to_json(report: ExperimentReport) -> str:
    """The report as JSON with sorted keys; `traces` appears only when set."""
    payload = asdict(report)
    if payload["traces"] is None:
        del payload["traces"]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# the keys every report carries, with the JSON types ExperimentReport does not check
_REPORT_KEYS = {
    "algo": (str, "a string"),
    "config": (dict, "an object"),
    "folds": (int, "an integer"),
    "seed": (int, "an integer"),
    "per_fold_accuracy": (list, "a list of numbers"),
    "mean": None,
    "std": None,
}


def report_from_json(text: str) -> ExperimentReport:
    """Parse report_to_json's output; a payload that is not an object, or
    lacks a key or holds it with the wrong type, raises ValueError naming it,
    as does JSON nested too deeply for the parser; text that is not JSON
    raises FileFormatError naming the line."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid report JSON ({exc.msg})", exc.lineno) from None
    except RecursionError:
        raise ValueError("report JSON is nested too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError("report must be a JSON object")
    for key, kind in _REPORT_KEYS.items():
        if key not in payload:
            raise ValueError(f"report lacks key {key!r}")
        value = payload[key]
        if kind and (not isinstance(value, kind[0]) or isinstance(value, bool)):
            raise ValueError(f"report key {key!r} must be {kind[1]}")
    fields = {key: payload[key] for key in _REPORT_KEYS}
    fields["per_fold_accuracy"] = tuple(fields["per_fold_accuracy"])
    traces = None
    if "traces" in payload:
        try:
            traces = tuple(
                TrainTrace(tuple(t["delta_p"]), t["iterations_run"], t["converged"])
                for t in payload["traces"]
            )
        except (KeyError, TypeError):
            raise ValueError("report key 'traces' must be a list of trace objects") from None
    return ExperimentReport(**fields, traces=traces)


def write_labels(path, labels) -> None:
    """One 1-based label per line."""
    write_lines(path, [str(int(v) + 1) for v in np.asarray(labels)])


def _label(token: str, line: int) -> int:
    """The 0-based label of a 1-based label token."""
    try:
        v = int(token)
    except ValueError:
        raise FileFormatError(f"label {token!r} is not an integer", line) from None
    if v < 1:
        raise FileFormatError("label must be >= 1", line)
    return v - 1


def read_labels(path) -> np.ndarray:
    """Parse a label file back to 0-based labels; blank lines are skipped."""
    with read_lines(path) as (_, lines):
        out = [_label(raw.strip(), lineno)
               for lineno, raw in enumerate(lines, start=1) if raw.strip()]
    if not out:
        raise FileFormatError("empty label file", 1)
    return np.array(out, dtype=np.int64)


def load_values_map(path) -> dict[int, float]:
    """Two-column text file '<1-based label> <value>' -> {0-based label: value}."""
    values: dict[int, float] = {}
    with read_lines(path) as (_, lines):
        for lineno, raw in enumerate(lines, start=1):
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise FileFormatError("expected '<label> <value>'", lineno)
            values[_label(parts[0], lineno)] = parse_floats(parts[1:], 1, lineno, "value")[0]
    if not values:
        raise FileFormatError("empty values file", 1)
    return values
