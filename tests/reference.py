"""Reference implementations the tests hold the package's fast paths to."""

import numpy as np

import gridscan as gs
from gridscan.clustering import _mean_cluster_distance, _WeightedSpace


def weighted_distance(x, y, w) -> float:
    """sqrt(sum_d w_d (x_d - y_d)^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape != y.shape or x.shape != w.shape:
        raise ValueError(
            f"dimension mismatch: x{x.shape}, y{y.shape}, w{w.shape}"
        )
    return float(np.sqrt(np.sum(w * (x - y) ** 2)))


def smse(model: gs.ClusterModel, X) -> float:
    """SMSE of a model's assignment and centroids, recomputed on ``X``.

    Raises on empty clusters; repair (or drop) them first.
    """
    labels = np.asarray(model.assignment)
    k = model.centroids.shape[0]
    empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
    if len(empty):
        raise ValueError(f"empty cluster(s) {empty.tolist()}: repair before computing SMSE")
    dists = _WeightedSpace(X, model.weights).point_dists(model.centroids, labels)
    return _mean_cluster_distance(labels, dists, k)
