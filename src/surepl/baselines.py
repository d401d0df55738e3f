"""PLKNN baseline: k-nearest-neighbor voting over candidate sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import PLDataset, check_config, check_count, check_query
from .kernel import row_blocks

__all__ = ["KnnConfig", "plknn_predict"]


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5

    def __post_init__(self):
        check_count(self.k, "k", 1)


def _nearest(dists: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of each row of `dists` in stable argsort order.

    A partition finds each row's k-th smallest distance, every column at or
    below it is kept (so ties stay in), and one lexsort orders the kept
    entries by (row, distance, column); the first k per row are exactly
    `argsort(dists, kind="stable")[:, :k]`.  Distances must be finite.
    """
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1]
    rows, cols = np.divmod(np.flatnonzero(dists <= kth[:, None]), dists.shape[1])
    cols = cols[np.lexsort((cols, dists[rows, cols], rows))]
    kept = np.bincount(rows, minlength=dists.shape[0])
    starts = np.cumsum(kept) - kept
    return cols[starts[:, None] + np.arange(k)]


def plknn_predict(train: PLDataset, X_query, cfg: KnnConfig) -> np.ndarray:
    """Predict by counting how often each label appears among the k nearest
    neighbors' candidate sets.

    Votes are unweighted indicator counts.  Distance ties prefer the lower
    training index; vote ties prefer the lower label.  Queries are scored in
    the row blocks of `kernel.row_blocks`, so no more than one block of
    query-to-training distances is held at a time.
    """
    if check_config(cfg, KnnConfig, "cfg").k >= train.m:
        raise ValueError(f"k={cfg.k} must be smaller than the {train.m} training instances")
    X_query = check_query(X_query, train.n)
    pred = np.empty(X_query.shape[0], dtype=np.intp)
    for s in row_blocks(X_query.shape[0], train.m):
        nn = _nearest(cdist(X_query[s], train.features), cfg.k)
        pred[s] = np.argmax(train.candidates[nn].sum(axis=1), axis=1)
    return pred
