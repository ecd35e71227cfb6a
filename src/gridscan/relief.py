"""RReliefF feature estimation with rank/variance weight adjustment.

Attribute quality is estimated from how attribute differences track
stability-index differences among near neighbors (regression Relief).  The
raw weights are then rescaled by attribute variance and rank so that a few
dominant features are not masked by the accumulated effect of many
irrelevant ones, and high-variance features get a finer cluster
segmentation downstream.

The training set is grown adaptively: batches of unseen operating points
are drawn at random and the stability index is computed for each, until
the adjusted ranks and weights stop moving.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import rankdata, spearmanr

from .oracles import evaluate_many


class DegeneratePredictionError(ValueError):
    """All sampled stability indices coincide; Relief weights are undefined."""


@dataclass(frozen=True)
class ReliefParams:
    """Estimator and growth-loop knobs.

    m           instances sampled per pass (a full deterministic sweep
                when m covers the whole training set)
    k           nearest neighbors per sampled instance
    sigma       distance-rank decay: nearer neighbors weigh exp(-(rank/sigma)^2)
    batch       unseen points added to the training set per pass
    rho_threshold  Spearman correlation between successive adjusted-rank
                vectors required for a pass to count as stable
    epsilon_f   max drift of the unit-max-scaled weights allowed at
                convergence
    window      consecutive stable passes required to declare convergence
    """

    m: int = 600
    k: int = 10
    sigma: float = 5.0
    batch: int = 75
    rho_threshold: float = 0.5
    epsilon_f: float = 0.2
    window: int = 4

    def __post_init__(self):
        if self.m < 1 or self.k < 1 or self.batch < 1 or self.window < 1:
            raise ValueError("m, k, batch, window must all be >= 1")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0.0 <= self.rho_threshold <= 1.0:
            raise ValueError("rho_threshold must lie in [0, 1]")


@dataclass(frozen=True)
class FeatureReport:
    """Per-attribute weights and ranks, before and after adjustment.

    Rank 1 is the largest weight; both rank vectors are permutations of
    1..n_attributes.  ``variances`` are attribute variances over the
    training subset the weights were estimated on.
    """

    names: tuple[str, ...]
    weights: np.ndarray
    ranks: np.ndarray
    adjusted_weights: np.ndarray
    adjusted_ranks: np.ndarray
    variances: np.ndarray
    training_size: int = 0
    converged: bool = False
    failed_hours: tuple[int, ...] = ()

    def top(self, n: int) -> list[str]:
        """Names of the n best attributes by adjusted rank."""
        order = np.argsort(self.adjusted_ranks)
        return [self.names[i] for i in order[:n]]

    def distance_weights(self) -> np.ndarray:
        """Adjusted weights clamped at zero, for use as distance weights."""
        return np.maximum(self.adjusted_weights, 0.0)

    def to_dict(self) -> dict:
        return {
            "attributes": [
                {
                    "name": self.names[i],
                    "weight": float(self.weights[i]),
                    "rank": int(self.ranks[i]),
                    "adjusted_weight": float(self.adjusted_weights[i]),
                    "adjusted_rank": int(self.adjusted_ranks[i]),
                    "variance": float(self.variances[i]),
                }
                for i in range(len(self.names))
            ],
            "training_size": self.training_size,
            "converged": self.converged,
            "failed_hours": list(self.failed_hours),
        }

    def save_json(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    def save_csv(self, path) -> Path:
        """Write the feature table sorted by adjusted rank."""
        path = Path(path)
        order = np.argsort(self.adjusted_ranks)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["feature", "initial_weight", "initial_rank", "adjusted_weight", "adjusted_rank"]
            )
            for i in order:
                writer.writerow(
                    [
                        self.names[i],
                        f"{self.weights[i]:.6g}",
                        int(self.ranks[i]),
                        f"{self.adjusted_weights[i]:.6g}",
                        int(self.adjusted_ranks[i]),
                    ]
                )
        return path


def attribute_diff(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Per-attribute difference in [0, 1] for points normalized to [-1, 1]."""
    return np.abs(np.asarray(x1) - np.asarray(x2)) / 2.0


def prediction_diff(l1, l2, lam_min: float, lam_max: float):
    """Stability-index difference scaled by the training-set index range.

    A degenerate range (all indices equal) yields 0 by definition.
    """
    diff = np.abs(np.asarray(l1, dtype=float) - np.asarray(l2, dtype=float))
    span = lam_max - lam_min
    if span <= 0:
        return np.zeros_like(diff)
    return diff / span


def neighbor_influence(k: int, sigma: float) -> np.ndarray:
    """Normalized influence of the k nearest neighbors by distance rank.

    The j-th nearest neighbor (rank j, 1-based) gets exp(-(j/sigma)^2),
    normalized so the k influences sum to one.  Depends on ranks only, so
    the same vector applies to every sampled instance.
    """
    ranks = np.arange(1, k + 1, dtype=float)
    d1 = np.exp(-((ranks / sigma) ** 2))
    return d1 / d1.sum()


def rrelieff_pass(
    X: np.ndarray,
    lam: np.ndarray,
    params: ReliefParams,
    rng: np.random.Generator | None = None,
    sample_indices: np.ndarray | None = None,
) -> FeatureReport:
    """One RReliefF estimation pass over a training matrix.

    For each of m sampled instances, the k nearest neighbors (unweighted
    Euclidean distance over all attributes, self excluded, ties broken by
    index) contribute to three accumulators: different-prediction mass,
    per-attribute different-attribute mass, and their joint mass.  The
    attribute weight is the joint/prediction ratio minus the
    attribute-only/same-prediction ratio, which lies in [-1, 1].

    Parameters
    ----------
    X : ndarray, shape (n, n_attributes)
        Normalized training instances; n must exceed params.k.
    lam : ndarray, shape (n,)
        Stability index per instance.
    rng : numpy Generator, optional
        Sampler for the instance draws.  When m >= n every instance is
        used once (a deterministic full sweep); otherwise m instances are
        drawn without replacement.
    sample_indices : ndarray, optional
        Explicit instance draws overriding the sampler (testing hook).

    Raises
    ------
    DegeneratePredictionError
        When the prediction-difference mass is 0 (all sampled indices
        identical) or saturates at m, leaving a weight denominator empty.
    """
    X = np.asarray(X, dtype=float)
    lam = np.asarray(lam, dtype=float)
    n, n_attr = X.shape
    if n <= params.k:
        raise ValueError(f"need more than k={params.k} training instances, got {n}")
    if sample_indices is None:
        if params.m >= n:
            sample_indices = np.arange(n)
        else:
            if rng is None:
                rng = np.random.default_rng()
            sample_indices = rng.choice(n, size=params.m, replace=False)
    else:
        sample_indices = np.asarray(sample_indices, dtype=int)
    m = len(sample_indices)

    lam_min = float(lam.min())
    lam_max = float(lam.max())

    # Neighbor search: full distance matrix from the sampled rows, self
    # masked out, stable sort so equal distances resolve by index.
    D = cdist(X[sample_indices], X)
    D[np.arange(m), sample_indices] = np.inf
    order = np.argsort(D, axis=1, kind="stable")
    nbr = order[:, : params.k]                      # (m, k)

    d_rank = neighbor_influence(params.k, params.sigma)   # (k,)

    dp = prediction_diff(lam[sample_indices][:, None], lam[nbr], lam_min, lam_max)
    da = attribute_diff(X[sample_indices][:, None, :], X[nbr])   # (m, k, attr)

    n_dc = float(np.einsum("mk,k->", dp, d_rank))
    n_da = np.einsum("mka,k->a", da, d_rank)
    n_dca = np.einsum("mk,mka,k->a", dp, da, d_rank)

    if n_dc <= 0.0 or m - n_dc <= 0.0:
        raise DegeneratePredictionError(
            "degenerate prediction diversity: sampled stability indices "
            "leave an empty weight denominator"
        )
    weights = n_dca / n_dc - (n_da - n_dca) / (m - n_dc)
    ranks = rankdata(-weights, method="ordinal").astype(int)
    variances = X.var(axis=0)
    return FeatureReport(
        names=tuple(f"a{i}" for i in range(n_attr)),
        weights=weights,
        ranks=ranks,
        adjusted_weights=weights.copy(),
        adjusted_ranks=ranks.copy(),
        variances=variances,
        training_size=n,
    )


def adjust_weights(report: FeatureReport, C: float | None = None) -> FeatureReport:
    """Rescale weights by variance and rank: w * var / ln(2 * rank).

    Natural log; rank >= 1 keeps the denominator at ln 2 or above.  When C
    is None it is chosen as 1/max of the raw adjusted values so the
    largest adjusted weight is 1 (falling back to C=1 when no raw value is
    positive).  Adjusted ranks are recomputed on the adjusted weights.
    """
    raw = report.weights * report.variances / np.log(2.0 * report.ranks)
    if C is None:
        top = raw.max() if raw.size else 0.0
        C = 1.0 / top if top > 0 else 1.0
    if C <= 0:
        raise ValueError("C must be positive")
    adjusted = C * raw
    adj_ranks = rankdata(-adjusted, method="ordinal").astype(int)
    return replace(report, adjusted_weights=adjusted, adjusted_ranks=adj_ranks)


def select_features(
    data,
    oracle,
    params: ReliefParams = ReliefParams(),
    C: float | None = None,
    seed: int = 0,
    cache: dict | None = None,
) -> FeatureReport:
    """Adaptive-training-set feature selection.

    Unseen operating points are added in random batches; after each batch a
    Relief pass plus weight adjustment runs on everything seen so far.
    Convergence is declared once `window` consecutive passes each keep the
    Spearman correlation of successive adjusted-rank vectors at or above
    ``rho_threshold`` while the weight drift stays within ``epsilon_f``.
    Drift is measured on the raw weights scaled to unit maximum magnitude:
    the rank-adjusted weights divide by log(2 * rank), so a rank swap
    between two near-tied top features would flip their adjusted values by
    a factor of two forever, making adjusted-weight drift unable to settle
    (the raw weights have no such feedback).  If the whole dataset is
    consumed first, the latest report is returned with
    ``converged=False``.

    Each batch is one :func:`~gridscan.oracles.evaluate_many` sweep, so
    ``GRIDSCAN_THREADS`` workers serve it like every other oracle sweep.
    The sweep keeps input order, so the training set and the weights are
    the same at any thread count.  Points where the oracle call failed
    (NaN from the sweep) are skipped and recorded in ``failed_hours``, in
    batch order.  ``cache``, when given, is filled with hour -> index for
    every successful oracle evaluation (callers reuse these instead of
    re-evaluating).
    """
    X_all = data.values
    hours = data.timestamps
    n = X_all.shape[0]
    rng = np.random.default_rng(seed)
    pick_order = rng.permutation(n)
    sampler = np.random.default_rng(rng.integers(0, 2**63 - 1))

    train_rows: list[int] = []
    train_lam: list[float] = []
    failed: list[int] = []
    if cache is None:
        cache = {}

    report: FeatureReport | None = None
    prev_ranks: np.ndarray | None = None
    prev_scaled: np.ndarray | None = None
    stable = 0
    cursor = 0
    while cursor < n:
        take = pick_order[cursor : cursor + params.batch]
        cursor += len(take)
        values = evaluate_many(oracle, X_all[take], catch_failures=True)
        ok = ~np.isnan(values)
        failed += hours[take[~ok]].tolist()
        train_rows += take[ok].tolist()
        train_lam += values[ok].tolist()
        cache.update(zip(hours[take[ok]].tolist(), values[ok].tolist()))
        if len(train_rows) <= params.k:
            continue

        passed = rrelieff_pass(
            X_all[train_rows], np.array(train_lam), params, rng=sampler
        )
        passed = replace(
            passed,
            names=tuple(data.attribute_names()),
            training_size=len(train_rows),
            failed_hours=tuple(failed),
        )
        report = adjust_weights(passed, C)

        top = float(np.max(np.abs(report.weights)))
        scaled = report.weights / top if top > 0 else report.weights
        if prev_ranks is not None:
            if len(report.adjusted_ranks) > 1:
                rho = spearmanr(prev_ranks, report.adjusted_ranks).statistic
            else:
                rho = 1.0
            drift = float(np.max(np.abs(scaled - prev_scaled)))
            stable = stable + 1 if (rho >= params.rho_threshold and drift <= params.epsilon_f) else 0
            if stable >= params.window:
                return replace(report, converged=True)
        prev_ranks = report.adjusted_ranks
        prev_scaled = scaled

    if report is None:
        raise ValueError(
            f"dataset too small: {len(train_rows)} usable points, need more than k={params.k}"
        )
    return report
