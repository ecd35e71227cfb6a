"""Output checks applied to every benchmark iteration.

Each check returns a list of problems (empty when the output is right).
They read only public outputs: the report, the cluster model's centroids
and weights, and the files the CLI writes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Acceptance thresholds of the fast scan on the damping surrogate.
MAX_MAPE = 0.05
MAX_MAX_APE = 0.15
# Squared weighted distances at or within this of the minimum count as ties.
TIE_TOLERANCE = 1e-9


def check_scan(hours, lambda_hat, assignment, centroids, weights, values,
               oracle_calls, training_size, k_final) -> list[str]:
    """Structural checks on one fast-scan result.

    ``lambda_hat`` must be finite and shared bitwise within a cluster, and
    the oracle must have been called once per training point and centroid.
    """
    problems = []
    if oracle_calls != training_size + k_final:
        problems.append(
            f"oracle_calls {oracle_calls} != training_size {training_size} + k_final {k_final}"
        )
    lambda_hat = np.asarray(lambda_hat, dtype=float)
    assignment = np.asarray(assignment, dtype=int)
    if len(lambda_hat) != len(hours) or len(assignment) != len(hours):
        return problems + ["lambda_hat or assignment does not cover every hour"]
    if assignment.min() < 0 or assignment.max() >= len(centroids):
        return problems + ["assignment names a centroid that does not exist"]
    if not np.all(np.isfinite(lambda_hat)):
        problems.append("non-finite lambda_hat")
    labels, first = np.unique(assignment, return_index=True)
    leader = np.zeros(len(centroids), dtype=int)
    leader[labels] = first
    shared = lambda_hat[leader[assignment]]
    if not np.array_equal(lambda_hat.view(np.int64), shared.view(np.int64)):
        problems.append("lambda_hat differs within a cluster")
    problems += check_nearest_centroid(values, centroids, weights, assignment)
    return problems


def check_nearest_centroid(values, centroids, weights, assignment) -> list[str]:
    """Every hour sits at its weighted-nearest centroid, up to ties."""
    values = np.asarray(values, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    w = np.asarray(weights, dtype=float)
    diff = values - centroids[assignment]
    own = np.einsum("ij,j,ij->i", diff, w, diff)
    xw = values * np.sqrt(w)
    cw = centroids * np.sqrt(w)
    d2 = (xw * xw).sum(axis=1)[:, None] - 2.0 * (xw @ cw.T) + (cw * cw).sum(axis=1)[None, :]
    worse = np.flatnonzero(own > d2.min(axis=1) + TIE_TOLERANCE)
    if len(worse):
        return [f"{len(worse)} hours are not at their weighted-nearest centroid (first: {worse[0]})"]
    return []


def check_accuracy(mape: float, max_ape: float | None = None) -> list[str]:
    """The acceptance thresholds; ``max_ape`` is checked only when given."""
    problems = []
    if not mape <= MAX_MAPE:
        problems.append(f"mape {mape:.4f} above {MAX_MAPE}")
    if max_ape is not None and not max_ape <= MAX_MAX_APE:
        problems.append(f"max_ape {max_ape:.4f} above {MAX_MAX_APE}")
    return problems


def check_full_trace(hours, lambda_full, training_lambdas: dict) -> list[str]:
    """The exhaustive trace equals the selection's oracle values."""
    index = {int(h): i for i, h in enumerate(hours)}
    lam = np.asarray(lambda_full, dtype=float)
    bad = [h for h, v in training_lambdas.items() if lam[index[int(h)]] != v]
    if bad:
        return [f"full trace differs from training_lambdas at {len(bad)} hours (first: {bad[0]})"]
    return []


def check_manifest(out: Path) -> list[str]:
    """Every checksum in run_manifest.json matches its file."""
    manifest = json.loads((out / "run_manifest.json").read_text())
    problems = []
    for name, digest in manifest["artifacts"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        if actual != digest:
            problems.append(f"{manifest['command']}: checksum of {name} does not match")
    return problems


def results_hash(centroids, lambda_hat) -> str:
    """Digest of the centroids and imputed indices (information only)."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(centroids, dtype=float).tobytes())
    digest.update(np.ascontiguousarray(lambda_hat, dtype=float).tobytes())
    return digest.hexdigest()[:16]
