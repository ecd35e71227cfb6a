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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clustering import TooFewPointsError, _pairwise_dists
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
        if not self.epsilon_f >= 0:
            raise ValueError("epsilon_f must be >= 0")


@dataclass(frozen=True)
class FeatureReport:
    """Per-attribute weights before and after adjustment, and their ranks.

    Rank 1 is the largest weight, equal weights ranked by index; both rank
    vectors are permutations of 1..n_attributes, read off the weights.
    ``variances`` are attribute variances over the training subset the
    weights were estimated on.  ``training_lambdas`` maps each training
    hour to its oracle value, in draw order; it is not serialized.
    """

    names: tuple[str, ...]
    weights: np.ndarray
    adjusted_weights: np.ndarray
    variances: np.ndarray
    training_size: int = 0
    converged: bool = False
    failed_hours: tuple[int, ...] = ()
    training_lambdas: dict[int, float] = field(default_factory=dict, repr=False)

    @property
    def ranks(self) -> np.ndarray:
        return _ordinal_ranks(self.weights)

    @property
    def adjusted_ranks(self) -> np.ndarray:
        return _ordinal_ranks(self.adjusted_weights)

    def top(self, n: int) -> list[str]:
        """Names of the n best attributes by adjusted rank."""
        order = np.argsort(self.adjusted_ranks)
        return [self.names[i] for i in order[:n]]

    @property
    def uniform_fallback(self) -> bool:
        """True when no adjusted weight is positive, so distances weigh every attribute alike."""
        return not np.any(self.adjusted_weights > 0)

    def distance_weights(self) -> np.ndarray:
        """Adjusted weights clamped at zero; uniform ones under :attr:`uniform_fallback`."""
        if self.uniform_fallback:
            return np.ones(len(self.adjusted_weights))
        return np.maximum(self.adjusted_weights, 0.0)

    def to_dict(self) -> dict:
        ranks, adjusted_ranks = self.ranks, self.adjusted_ranks
        return {
            "attributes": [
                {
                    "name": self.names[i],
                    "weight": float(self.weights[i]),
                    "rank": int(ranks[i]),
                    "adjusted_weight": float(self.adjusted_weights[i]),
                    "adjusted_rank": int(adjusted_ranks[i]),
                    "variance": float(self.variances[i]),
                }
                for i in range(len(self.names))
            ],
            "training_size": self.training_size,
            "converged": self.converged,
            "failed_hours": list(self.failed_hours),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FeatureReport":
        """The report of a :meth:`to_dict` payload; its ``to_dict`` gives the payload back."""
        rows = payload["attributes"]

        def column(key):
            return np.array([row[key] for row in rows], dtype=float)

        return cls(
            names=tuple(row["name"] for row in rows),
            weights=column("weight"),
            adjusted_weights=column("adjusted_weight"),
            variances=column("variance"),
            training_size=payload["training_size"],
            converged=payload["converged"],
            failed_hours=tuple(payload["failed_hours"]),
        )

    def save_json(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    def save_csv(self, path) -> Path:
        """Write the feature table sorted by adjusted rank."""
        path = Path(path)
        ranks, adjusted_ranks = self.ranks, self.adjusted_ranks
        order = np.argsort(adjusted_ranks)
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
                        int(ranks[i]),
                        f"{self.adjusted_weights[i]:.6g}",
                        int(adjusted_ranks[i]),
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


def _nearest(D: np.ndarray, k: int) -> np.ndarray:
    """Column positions of the k smallest entries of each row of D, ordered
    by (value, position): the first k columns of a stable row argsort.
    D needs at least k columns.

    A partition at the (k+1)-th smallest value leaves some k smallest
    entries in front.  Where the largest of them is below the (k+1)-th,
    they are the only k smallest, and a stable value sort of them, taken
    in position order, orders them.  Rows that tie across the k-th place
    (duplicated points) take the full path instead: every entry up to the
    k-th value, sorted by (row, value, position).

    Positions are the order of D's columns.  Where those are the training
    indices (rows of ``_pairwise_dists`` against the training set) this
    is (distance, index) order; :func:`_grow_neighbors` lays out its
    candidate columns so that it still is.
    """
    if k == D.shape[1]:
        return np.argsort(D, axis=1, kind="stable")
    part = np.argpartition(D, k, axis=1)
    pos = np.sort(part[:, :k], axis=1)
    vals = np.take_along_axis(D, pos, axis=1)
    kth = vals.max(axis=1)
    pos = np.take_along_axis(pos, np.argsort(vals, axis=1, kind="stable"), axis=1)
    tied = np.flatnonzero(kth == np.take_along_axis(D, part[:, k : k + 1], axis=1)[:, 0])
    if len(tied):
        T = D[tied]
        rows, cols = np.nonzero(T <= kth[tied, None])
        order = np.lexsort((cols, T[rows, cols], rows))
        pos[tied] = cols[order][np.searchsorted(rows, np.arange(len(T)))[:, None] + np.arange(k)]
    return pos


def _ordinal_ranks(values: np.ndarray) -> np.ndarray:
    """Rank 1 for the largest value, equal values ranked by index."""
    return np.argsort(np.argsort(-values, kind="stable")) + 1


def _spearman(p: np.ndarray, q: np.ndarray) -> float:
    """Spearman's rho of two rank permutations; 1 for a single attribute."""
    return np.corrcoef(p, q)[0, 1] if len(p) > 1 else 1.0


def rrelieff_pass(
    X: np.ndarray,
    lam: np.ndarray,
    params: ReliefParams,
    neighbors: np.ndarray,
    rng: np.random.Generator | None = None,
    sample_indices: np.ndarray | None = None,
) -> np.ndarray:
    """One RReliefF estimation pass over a training matrix: the raw weights.

    For each of m sampled instances, the k nearest neighbors contribute to
    three accumulators: different-prediction mass, per-attribute
    different-attribute mass, and their joint mass.  The attribute weight
    is the joint/prediction ratio minus the attribute-only/same-prediction
    ratio, which lies in [-1, 1].

    Parameters
    ----------
    X : ndarray, shape (n, n_attributes)
        Normalized training instances; n must exceed params.k.
    lam : ndarray, shape (n,)
        Stability index per instance.
    neighbors : ndarray of int, shape (n, k)
        Each row's k nearest other rows of X (unweighted Euclidean
        distance over all attributes, self excluded) in (distance, index)
        order, as :func:`_grow_neighbors` keeps them.  The pass reads the
        rows of its sampled instances and writes nothing.
    rng : numpy Generator, optional
        Sampler for the instance draws.  When m >= n every instance is
        used once (a deterministic full sweep); otherwise m instances are
        drawn without replacement, and ``rng`` or ``sample_indices`` must
        be given.
    sample_indices : ndarray, optional
        Explicit instance draws overriding the sampler (testing hook).

    Raises
    ------
    ValueError
        When n <= k, ``neighbors`` has the wrong shape, or a sampled pass
        has neither ``rng`` nor ``sample_indices``.
    DegeneratePredictionError
        When the prediction-difference mass is 0 (all sampled indices
        identical) or saturates at m, leaving a weight denominator empty.
    """
    X = np.asarray(X, dtype=float)
    lam = np.asarray(lam, dtype=float)
    n = len(X)
    if n <= params.k:
        raise ValueError(f"need more than k={params.k} training instances, got {n}")
    if neighbors.shape != (n, params.k):
        raise ValueError(f"neighbors must have shape {(n, params.k)}, got {neighbors.shape}")
    if sample_indices is not None:
        sample_indices = np.asarray(sample_indices, dtype=int)
    elif params.m >= n:
        sample_indices = np.arange(n)
    elif rng is None:
        raise ValueError(f"m={params.m} < n={n} draws a sample: give rng or sample_indices")
    else:
        sample_indices = rng.choice(n, size=params.m, replace=False)
    m = len(sample_indices)
    nbr = neighbors[sample_indices]                 # (m, k)

    lam_min = float(lam.min())
    lam_max = float(lam.max())
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
    return n_dca / n_dc - (n_da - n_dca) / (m - n_dc)


def adjust_weights(weights: np.ndarray, variances: np.ndarray,
                   C: float | None = None) -> np.ndarray:
    """The adjusted weights: raw weights rescaled by variance and rank,
    C * w * var / ln(2 * rank).

    Natural log; rank 1 is the largest raw weight (equal weights ranked by
    index), so the denominator is ln 2 or above.  When C is None it is
    chosen as 1/max of the unscaled values so the largest adjusted weight
    is 1 (falling back to C=1 when no unscaled value is positive).
    """
    raw = weights * variances / np.log(2.0 * _ordinal_ranks(weights))
    if C is None:
        top = raw.max() if raw.size else 0.0
        C = 1.0 / top if top > 0 else 1.0
    if C <= 0:
        raise ValueError("C must be positive")
    return C * raw


def _grow_neighbors(X: np.ndarray, kept: tuple[np.ndarray, np.ndarray] | None,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k nearest other rows of X in (distance, index) order, and
    their distances, given ``kept``: the same pair for the first rows of X
    (None for none).

    Only the new rows' distances are computed, ``_pairwise_dists`` against
    every row with the self mask (``inf``), and the new rows search them.
    An old row's k nearest lie among its k kept ones and the new columns,
    whose distances are the new rows' transposed (each entry is the same
    per-attribute sum whichever row computes it, and ``(a-b)**2 ==
    (b-a)**2``).  So an old row searches only [kept neighbours in
    (distance, index) order, new columns in index order].  Every kept
    index is below every new one, so among equal distances a candidate's
    position orders the same way as its index, and :func:`_nearest` on
    the candidates picks what it would pick on the whole row, bit for bit.
    """
    seen, size = (0 if kept is None else len(kept[0])), len(X)
    if seen == size:
        return kept
    block = _pairwise_dists(X[seen:], X)
    block[np.arange(size - seen), np.arange(seen, size)] = np.inf
    nbr = _nearest(block, k)
    dist = np.take_along_axis(block, nbr, axis=1)
    if kept is None:
        return nbr, dist
    cand = np.concatenate([kept[0], np.broadcast_to(np.arange(seen, size), (seen, size - seen))],
                          axis=1)
    cand_dist = np.concatenate([kept[1], block[:, :seen].T], axis=1)
    pick = _nearest(cand_dist, k)
    return (np.concatenate([np.take_along_axis(cand, pick, axis=1), nbr]),
            np.concatenate([np.take_along_axis(cand_dist, pick, axis=1), dist]))


def select_features(
    data,
    oracle,
    params: ReliefParams = ReliefParams(),
    C: float | None = None,
    seed: int = 0,
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
    consumed first, the latest pass's weights are returned with
    ``converged=False``.

    Each training point's k nearest neighbours and their distances are
    kept from pass to pass.  A batch of b points computes only its own b
    distance rows, and searches those rows and, for every earlier point,
    its kept k neighbours plus the b new columns (:func:`_grow_neighbors`).
    So keeping the lists costs O(size * b) per batch in place of
    O(size^2), and they are the lists a search of the whole training set
    gives, bit for bit, ties at the k-th distance included.  Every pass
    reads them: a full sweep (at most ``m`` points) all of them, a sampled
    pass the rows of its ``m`` draws.  Memory stays O(size * (k + b)).

    Each batch is one :func:`~gridscan.oracles.evaluate_many` sweep, so
    ``GRIDSCAN_THREADS`` workers serve it like every other oracle sweep.
    The sweep keeps input order, so the training set and the weights are
    the same at any thread count.  Points where the oracle call failed
    (NaN from the sweep) are skipped and recorded in ``failed_hours``, in
    batch order.  Every successful call is a training point, and the
    report's ``training_lambdas`` hold their values, so callers reuse them
    instead of calling the oracle again.  A dataset whose usable points
    never outnumber ``params.k`` raises
    :class:`~gridscan.clustering.TooFewPointsError`.
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
    # Relief's k-nearest lists and their distances among the training rows.
    kept: tuple[np.ndarray, np.ndarray] | None = None

    weights: np.ndarray | None = None
    prev_ranks: np.ndarray | None = None
    prev_scaled: np.ndarray | None = None
    stable = 0
    converged = False
    cursor = 0
    while cursor < n:
        take = pick_order[cursor : cursor + params.batch]
        cursor += len(take)
        values = evaluate_many(oracle, X_all[take])
        ok = ~np.isnan(values)
        failed += hours[take[~ok]].tolist()
        train_rows += take[ok].tolist()
        train_lam += values[ok].tolist()
        if len(train_rows) <= params.k:
            continue
        X_train = X_all[train_rows]
        kept = _grow_neighbors(X_train, kept, params.k)
        weights = rrelieff_pass(X_train, np.array(train_lam), params, kept[0], rng=sampler)
        variances = X_train.var(axis=0)
        adjusted = adjust_weights(weights, variances, C)

        ranks = _ordinal_ranks(adjusted)
        top = float(np.max(np.abs(weights)))
        scaled = weights / top if top > 0 else weights
        if prev_ranks is not None:
            rho = _spearman(prev_ranks, ranks)
            drift = float(np.max(np.abs(scaled - prev_scaled)))
            stable = stable + 1 if (rho >= params.rho_threshold and drift <= params.epsilon_f) else 0
            if stable >= params.window:
                converged = True
                break
        prev_ranks = ranks
        prev_scaled = scaled

    if weights is None:
        raise TooFewPointsError(
            f"dataset too small: {len(train_rows)} usable points, need more than k={params.k}"
        )
    return FeatureReport(
        names=tuple(data.attribute_names()),
        weights=weights,
        adjusted_weights=adjusted,
        variances=variances,
        training_size=len(train_rows),
        converged=converged,
        failed_hours=tuple(failed),
        training_lambdas=dict(zip(hours[train_rows].tolist(), train_lam)),
    )
