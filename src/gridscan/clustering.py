"""Weighted k-means, PSO over centroid sets, and self-adaptive PSO-k-means.

The clustering objective is the average over clusters of the mean weighted
distance of members to their centroid (called SMSE throughout, after the
fitness it plays in the swarm search).  A particle is a full centroid set;
the swarm stage locates a good initial set, and an adaptive second stage
repeatedly runs Lloyd iterations while removing empty clusters, splitting
clusters whose members stray beyond ``eps_d``, and merging centroid pairs
closer than ``eps_c``, so the final cluster count is decided by the data.

Lloyd sweeps are incremental: each recomputes only the ranking rows of the
centroids that moved, the distances of the points that changed cluster or
whose centroid moved, and the means of the clusters whose membership
changed.  Every result keeps the bits of full sweeps (every mean, then one
full ranking product per sweep); the test suite holds the incremental
``kmeans`` to a full-sweep reference and pins the BLAS equalities it needs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KMEANS_MAX_ITER = 300


def validate_weights(w, n_attributes: int | None = None) -> np.ndarray:
    """Check distance weights: finite, non-negative, not all zero."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError("distance weights must be a 1-D vector")
    if n_attributes is not None and len(w) != n_attributes:
        raise ValueError(f"expected {n_attributes} weights, got {len(w)}")
    if not np.all(np.isfinite(w)):
        raise ValueError("distance weights must be finite")
    if np.any(w < 0):
        raise ValueError("distance weights must be non-negative")
    if not np.any(w > 0):
        raise ValueError("at least one distance weight must be positive")
    return w


_ROW_BLOCK = 32


def _pairwise_dists(A, B) -> np.ndarray:
    """Row-to-row Euclidean distances, summed attribute by attribute as in ``cdist``.

    The sum runs over blocks of ``_ROW_BLOCK`` rows of ``A``, so each
    attribute's squared differences are added while they are still in
    cache; every entry gets the same additions in the same order.
    """
    acc = np.zeros((len(A), len(B)))
    scratch = np.empty((min(len(A), _ROW_BLOCK), len(B)))
    for lo in range(0, len(A), _ROW_BLOCK):
        rows = acc[lo:lo + _ROW_BLOCK]
        d = scratch[:len(rows)]
        for a, b in zip(A[lo:lo + _ROW_BLOCK].T, B.T):
            np.subtract.outer(a, b, out=d)
            rows += np.multiply(d, d, out=d)
    return np.sqrt(acc, out=acc)


class _WeightedSpace:
    """Dataset scaled by sqrt(weights) so distances reduce to Euclidean.

    ``assign`` is the fast path for swarm fitness: one augmented GEMM
    ranks the centroids, and the distance is then taken directly at the
    chosen one.  ``ranking`` and ``dists_at`` give the same bits for some
    of the centroids or some of the points, for the incremental Lloyd
    sweeps of ``kmeans``.  All use only the ``active`` columns,
    those with a positive weight; a zero-weight column adds nothing to a
    distance, and Relief clamps negative weights to zero, so most weight
    vectors have some.  The centroid norms in the GEMM are still summed
    over the full scaled row (exact zeros in the inactive columns),
    because a sum over the active columns alone rounds differently and
    could flip a near-tie.  Every call allocates its own outputs: the
    space is read-only, can be shared across threads.  ``lo``/``hi`` stay
    on all columns.  ``point_dists`` gives ``assign``'s distances for a
    given partition; reported SMSE values, ``eps_d`` and the split test
    read them, so they are the distances k-means minimised.

    ``Xa`` is Fortran-ordered, ``Xw`` is its view without the ones column,
    and ``_dists`` builds the F-ordered difference the distance bits depend
    on: the ``einsum`` over it adds each row's terms one column at a time,
    left to right, while over a C-ordered copy of the same rows it takes a
    vectorised dot per row that rounds differently.  ``kmeans`` recomputes
    some rows' distances on their own and relies on them matching
    ``assign``'s.
    """

    def __init__(self, X: np.ndarray, w: np.ndarray):
        self.X = np.asarray(X, dtype=float)
        self.w = validate_weights(w, self.X.shape[1])
        self.sqrt_w = np.sqrt(self.w)
        self.active = np.flatnonzero(self.w > 0)
        scaled = self.X[:, self.active] * self.sqrt_w[self.active]
        self.Xa = np.asfortranarray(np.hstack([scaled, np.ones((self.X.shape[0], 1))]))
        self.Xw = self.Xa[:, :-1]
        self.lo = self.X.min(axis=0)
        self.hi = self.X.max(axis=0)

    def ranking_rows(self, centroids: np.ndarray):
        """The scaled active centroids ``Cw`` and the ranking rows
        ``[-2 Cw, |Cw|^2]``, whose product with ``Xa`` ranks the centroids."""
        Cw = centroids * self.sqrt_w
        norms = np.einsum("ij,ij->i", Cw, Cw)
        Cw = Cw[:, self.active]
        return Cw, np.hstack([-2.0 * Cw, norms[:, None]])

    def assign(self, centroids: np.ndarray):
        """Nearest-centroid labels (ties to the lowest index) and distances.

        ``[Xw, 1] @ [-2 Cw, |Cw|^2].T`` is the squared distance less the
        row constant ``|Xw|^2``, so its row argmin is the nearest centroid.
        The returned distance is ``|Xw - Cw[label]|``, free of the
        cancellation the norm expansion suffers near a centroid.
        """
        Cw, Ca = self.ranking_rows(centroids)
        labels = (self.Xa @ Ca.T).argmin(axis=1)
        return labels, self._dists(self.Xw, Cw, labels)

    def ranking(self, Ca: np.ndarray) -> np.ndarray:
        """``Ca @ Xa.T`` for ranking rows ``Ca``: row j ranks centroid j at
        every point, with the bits of row j of ``assign``'s product.

        A one-row product would go to GEMV, which rounds differently, so a
        lone row is computed as two copies of itself.
        """
        if len(Ca) == 1:
            return (np.vstack([Ca, Ca]) @ self.Xa.T)[:1]
        return Ca @ self.Xa.T

    def dists_at(self, Cw: np.ndarray, labels: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``assign``'s distances for the points ``rows`` alone, to the bit.

        A one-row F-ordered difference is also C-ordered, and ``einsum``
        sums it as a vectorised dot, as ``assign`` does only in a one-point
        space; elsewhere a lone row is computed as two copies of itself.
        """
        if len(rows) == 1 and len(self.Xw) > 1:
            return self.dists_at(Cw, labels, np.append(rows, rows))[:1]
        return self._dists(self.Xw[rows], Cw, labels[rows])

    @staticmethod
    def _dists(Xw: np.ndarray, Cw: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """``|Xw - Cw[labels]|`` row by row, over a fresh F-ordered difference.

        The gather runs along the columns of a C-ordered ``Cw.T``, so its
        transpose is that difference's buffer as written, with no copy.
        """
        diff = np.take(np.ascontiguousarray(Cw.T), labels, axis=1).T
        np.subtract(Xw, diff, out=diff)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def point_dists(self, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Each point's distance to its centroid ``labels[i]``, with ``assign``'s bits."""
        return self._dists(self.Xw, self.ranking_rows(centroids)[0], labels)

    def fitness(self, centroids: np.ndarray) -> float:
        """Empty-cluster-safe SMSE of the partition induced by ``centroids``.

        Empty clusters contribute no term and shrink the averaging count.
        """
        labels, dists = self.assign(centroids)
        return _mean_cluster_distance(labels, dists, centroids.shape[0])


def _mean_cluster_distance(labels, dists, k: int) -> float:
    counts = np.bincount(labels, minlength=k)
    sums = np.bincount(labels, weights=dists, minlength=k)
    occupied = counts > 0
    return float(np.mean(sums[occupied] / counts[occupied]))


@dataclass
class ClusterModel:
    """A centroid set with the partition it induces.

    ``assignment[i]`` is the index of the weighted-distance-nearest
    centroid of point i (ties broken toward the lowest index).  ``smse``
    is the average over non-empty clusters of the mean member distance;
    for repaired final models ``empty_clusters`` is empty.  ``k`` and
    ``empty_clusters`` are derived from ``centroids`` and ``assignment``,
    not stored.  ``elapsed_s`` is the wall time of the scan's clustering
    stage that produced the model (0 outside a scan); it is not
    serialized.
    """

    centroids: np.ndarray
    assignment: np.ndarray
    weights: np.ndarray
    smse: float
    converged: bool = True
    eps_d: float | None = None
    eps_c: float | None = None
    smse_history: list[float] = field(default_factory=list, repr=False)
    objective_history: list[float] = field(default_factory=list, repr=False)
    elapsed_s: float = 0.0

    @property
    def k(self) -> int:
        return len(self.centroids)

    @property
    def empty_clusters(self) -> tuple[int, ...]:
        """The centroids no point is assigned to."""
        counts = np.bincount(self.assignment, minlength=self.k)
        return tuple(np.flatnonzero(counts == 0).tolist())

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "smse": self.smse,
            "converged": self.converged,
            "eps_d": self.eps_d,
            "eps_c": self.eps_c,
            "weights": [float(v) for v in self.weights],
            "centroids": [[float(v) for v in row] for row in self.centroids],
            "assignment": [int(v) for v in self.assignment],
        }

    def save_json(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    @classmethod
    def load_json(cls, path) -> "ClusterModel":
        """Read a :meth:`save_json` file back; the histories come back empty.
        ``ValueError`` unless the file's ``k`` counts its centroids."""
        payload = json.loads(Path(path).read_text())
        model = cls(
            centroids=np.array(payload["centroids"], dtype=float),
            assignment=np.array(payload["assignment"], dtype=np.intp),
            weights=np.array(payload["weights"], dtype=float),
            smse=payload["smse"],
            converged=payload["converged"],
            eps_d=payload["eps_d"],
            eps_c=payload["eps_c"],
        )
        if payload["k"] != model.k:
            raise ValueError(f"{path} states k={payload['k']} for {model.k} centroids")
        return model

    def save_assignment_csv(self, path, hours) -> Path:
        path = Path(path)
        lines = ["hour,cluster_id"]
        lines += [f"{int(h)},{int(c)}" for h, c in zip(hours, self.assignment)]
        path.write_text("\n".join(lines) + "\n")
        return path


def _cluster_means(X: np.ndarray, labels: np.ndarray, old_centroids: np.ndarray,
                   clusters: np.ndarray | None = None) -> np.ndarray:
    """Per-cluster means; a cluster with no members keeps its old centroid.

    One flat ``bincount`` over the bins ``label * d + attribute`` adds each
    bin's values in row order, the same order as one ``bincount`` per
    attribute, so the sums are the same to the bit.  With a boolean
    ``clusters`` mask only those clusters are re-averaged, from their
    members in row order, so their means have the same bits as in a full
    pass; the others keep their old centroid.
    """
    k, d = old_centroids.shape
    if clusters is not None:
        rows = np.flatnonzero(clusters[labels])
        X, labels = X[rows], labels[rows]
    counts = np.bincount(labels, minlength=k)
    bins = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(bins, weights=X.ravel(), minlength=k * d).reshape(k, d)
    means = old_centroids.copy()
    occupied = counts > 0
    means[occupied] = sums[occupied] / counts[occupied, None]
    return means


_ARGMIN_BLOCK = 1024


def _column_argmin(R: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``R[:, cols].argmin(axis=0)``, a block of columns at a time.

    Block by block, the gathered columns and the transposed copy that
    ``argmin`` along the first axis makes stay small; over all n columns
    each would be as large as the (k, n) ranking matrix itself.
    """
    out = np.empty(len(cols), dtype=np.intp)
    for start in range(0, len(cols), _ARGMIN_BLOCK):
        block = cols[start:start + _ARGMIN_BLOCK]
        out[start:start + _ARGMIN_BLOCK] = R[:, block].argmin(axis=0)
    return out


def _rerank_moved(space: _WeightedSpace, R: np.ndarray, best: np.ndarray, labels: np.ndarray,
                  moved: np.ndarray, Ca: np.ndarray) -> np.ndarray:
    """New labels once the centroids ``moved`` have moved to the ranking
    rows ``Ca``; the rows of ``R`` and the ``best`` values follow in place.

    A point whose own centroid stayed keeps its best unless a moved row
    reaches it (a tie goes to the lower index, as in ``argmin``); a
    point whose own centroid moved is ranked again over all of ``R``.
    """
    new_labels = labels.copy()
    moved_rows = np.flatnonzero(moved)
    if not len(moved_rows):
        return new_labels
    R_moved = space.ranking(Ca[moved_rows])
    R[moved_rows] = R_moved
    low = R_moved.min(axis=0)
    own_moved = moved[labels]
    contest = np.flatnonzero((low <= best) & ~own_moved)
    winner = moved_rows[R_moved[:, contest].argmin(axis=0)]
    kept = labels[contest]
    take = (low[contest] < best[contest]) | (winner < kept)
    new_labels[contest] = np.where(take, winner, kept)
    best[contest] = np.where(take, low[contest], best[contest])
    rerank = np.flatnonzero(own_moved)
    new_labels[rerank] = _column_argmin(R, rerank)
    best[rerank] = R[new_labels[rerank], rerank]
    return new_labels


def kmeans(X, initial_centroids, w, max_iter: int = KMEANS_MAX_ITER, *,
           space: _WeightedSpace | None = None) -> ClusterModel:
    """Lloyd iterations under weighted distance from given initial centroids.

    Runs until the assignment reaches a fixed point or ``max_iter``
    sweeps.  Clusters that end up with no members are reported in
    ``empty_clusters`` (their centroids stay where they last were), never
    silently dropped.  ``smse_history[0]`` is the SMSE of the initial
    assignment; one entry is appended per sweep, and ``smse`` is the last.
    ``objective_history`` tracks the total squared weighted distance, the
    quantity each Lloyd sweep provably decreases (the unsquared SMSE can
    tick up slightly while the squared objective descends).  ``space``, when given, is the
    ``_WeightedSpace`` of ``X`` and ``w``, so a caller that restarts
    k-means on one dataset builds it once.

    Sweeps are incremental, and every output has the bits that a full
    sweep (``_cluster_means`` over all points, then ``assign``) gives.
    The ``(k, n)`` ranking matrix ``R = [-2 Cw, |Cw|^2] @ Xa.T`` is
    ``assign``'s product transposed, bit for bit, and is kept with each
    point's best value in it.  Per sweep:

    - only the clusters whose membership changed are re-averaged;
    - only the rows of ``R`` whose centroid moved are recomputed, as one
      product that gives those rows of the full one;
    - a point whose own centroid did not move compares its kept best with
      the moved rows (ties to the lowest index, as ``argmin``); a point
      whose own centroid moved is re-ranked over all of ``R``;
    - distances are recomputed only for the points that changed label or
      whose centroid moved.

    ``tests/test_clustering.py`` pins the BLAS and ``einsum`` equalities
    this rests on by name.
    """
    X = np.asarray(X, dtype=float)
    C = np.array(initial_centroids, dtype=float)
    if C.ndim != 2 or C.shape[1] != X.shape[1]:
        raise ValueError("initial centroids must be a (k, n_attributes) matrix")
    k = C.shape[0]
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    if len(np.unique(C, axis=0)) != k:
        raise ValueError("initial centroids must be distinct")
    if space is None:
        space = _WeightedSpace(X, w)

    Cw, Ca = space.ranking_rows(C)
    R = space.ranking(Ca)
    points = np.arange(n)
    labels = _column_argmin(R, points)
    best = R[labels, points]
    dists = space.dists_at(Cw, labels, points)
    history = [_mean_cluster_distance(labels, dists, k)]
    objective = [float(np.sum(dists**2))]
    converged = False
    stale = None  # the initial centroids are not means: average every cluster
    for _ in range(max_iter):
        new_C = _cluster_means(X, labels, C, stale)
        moved = np.any(new_C != C, axis=1)
        C = new_C
        Cw, Ca = space.ranking_rows(C)
        new_labels = _rerank_moved(space, R, best, labels, moved, Ca)
        changed = new_labels != labels
        redo = np.flatnonzero(changed | moved[labels])
        dists[redo] = space.dists_at(Cw, new_labels, redo)
        history.append(_mean_cluster_distance(new_labels, dists, k))
        objective.append(float(np.sum(dists**2)))
        if not changed.any():
            converged = True
            break
        stale = np.zeros(k, dtype=bool)
        stale[labels[changed]] = True
        stale[new_labels[changed]] = True
        labels = new_labels

    return ClusterModel(
        centroids=C,
        assignment=labels,
        weights=space.w,
        smse=history[-1],
        converged=converged,
        smse_history=history,
        objective_history=objective,
    )


class TooFewPointsError(ValueError):
    """Fewer (distinct) points than a stage needs: more initial centroids
    than the data has, or no more training points than Relief's ``k``."""


def init_centroids_random(X, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct data points drawn uniformly at random."""
    X = np.asarray(X, dtype=float)
    chosen: list[np.ndarray] = []
    seen = set()
    for idx in rng.permutation(len(X)):
        key = (X[idx] + 0.0).tobytes()  # -0.0 and 0.0 are one point, as for np.unique
        if key in seen:
            continue
        seen.add(key)
        chosen.append(X[idx])
        if len(chosen) == k:
            return np.array(chosen)
    raise TooFewPointsError(f"only {len(seen)} distinct points, cannot seed k={k}")


@dataclass(frozen=True)
class PsoParams:
    """Swarm-stage knobs.

    The inertia factor starts at ``w_max`` and falls by
    ``(w_max - w_min) / n_iter`` per iteration, so the last of the
    ``n_iter`` steps uses ``w_min + (w_max - w_min) / n_iter`` (0.45 at
    the defaults); ``w_min`` itself is never reached.

    The paper names no swarm budget.  The default 10 particles x 10
    iterations comes from an ablation over ``swarm_size`` in {5, 10, 20} x
    ``n_iter`` in {5, 10, 20, 50} on the benchmark's default years
    (``scripts/pso_budget_ablation.py``; the table is in CHANGES.md): the
    k-means stage that follows erases what a larger swarm gains, so
    ``k_final``, the oracle calls and MAPE hold while the swarm's time
    falls about tenfold from 20 x 50.
    """

    swarm_size: int = 10
    n_iter: int = 10
    c1: float = 1.49445
    c2: float = 1.49445
    w_max: float = 0.9
    w_min: float = 0.4
    sigma_t2: float = 1e-3
    p0: float = 0.3

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if not (self.w_max >= self.w_min > 0):
            raise ValueError("need w_max >= w_min > 0")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("c1 and c2 must be positive")
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError("p0 must lie in [0, 1]")
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")


@dataclass
class Swarm:
    """The particles as arrays stacked over the swarm: row p is particle p.

    ``position``, ``velocity`` and ``best_position`` are (P, k, d) centroid
    sets, ``fitness`` and ``best_fitness`` are (P,).  ``g_best_position``
    is a copy, never a view of a ``best_position`` row.
    """

    position: np.ndarray
    velocity: np.ndarray
    best_position: np.ndarray
    fitness: np.ndarray
    best_fitness: np.ndarray
    g_best_position: np.ndarray
    g_best_fitness: float


def inertia_weight(iter_index: int, params: PsoParams) -> float:
    return params.w_max - iter_index * (params.w_max - params.w_min) / params.n_iter


def velocity_position_update(
    position, velocity, p_best, g_best, inertia, c1, c2, rand1, rand2, lo, hi
):
    """Velocity and position update, clamped to the box.

    Works on one particle's (k, d) arrays with scalar ``rand1``/``rand2``,
    or on the whole swarm's (P, k, d) arrays with (P, 1, 1) arrays of them;
    either way they lie in [0, 1] and are drawn fresh per particle per
    update.  The position repair is a coordinate-wise clamp of each
    centroid to the data bounding box.
    """
    new_v = (
        inertia * velocity
        + c1 * rand1 * (p_best - position)
        + c2 * rand2 * (g_best - position)
    )
    new_p = np.clip(position + new_v, lo, hi)
    return new_p, new_v


def init_swarm(space: _WeightedSpace, k: int, params: PsoParams, rng: np.random.Generator) -> Swarm:
    """Particles seeded at random distinct data points, small random velocity;
    each particle draws its centroids, then its velocity, before the next one."""
    span = space.hi - space.lo
    position, velocity = [], []
    for _ in range(params.swarm_size):
        position.append(init_centroids_random(space.X, k, rng))
        velocity.append(rng.uniform(-0.1, 0.1, size=position[-1].shape) * span)
    position = np.stack(position)
    fitness = np.array([space.fitness(p) for p in position])
    best = int(np.argmin(fitness))
    return Swarm(
        position=position,
        velocity=np.stack(velocity),
        best_position=position.copy(),
        fitness=fitness,
        best_fitness=fitness.copy(),
        g_best_position=position[best].copy(),
        g_best_fitness=float(fitness[best]),
    )


def pso_step(swarm: Swarm, space: _WeightedSpace, params: PsoParams, iter_index: int,
             rng: np.random.Generator) -> Swarm:
    """One swarm iteration: move every particle, then reduce the global best.

    Each particle moves toward the global best of the start of the step.
    Row p of the (P, 2) draw is particle p's ``rand1, rand2``, the stream
    of P ``size=2`` draws; a tie for the global best goes to the lowest index.
    """
    inertia = inertia_weight(iter_index, params)
    rand = rng.uniform(size=(len(swarm.fitness), 2))[:, :, None, None]
    swarm.position, swarm.velocity = velocity_position_update(
        swarm.position, swarm.velocity, swarm.best_position, swarm.g_best_position,
        inertia, params.c1, params.c2, rand[:, 0], rand[:, 1], space.lo, space.hi,
    )
    swarm.fitness = np.array([space.fitness(p) for p in swarm.position])
    improved = swarm.fitness < swarm.best_fitness
    swarm.best_fitness[improved] = swarm.fitness[improved]
    swarm.best_position[improved] = swarm.position[improved]
    best = int(np.argmin(swarm.best_fitness))
    if swarm.best_fitness[best] < swarm.g_best_fitness:
        swarm.g_best_fitness = float(swarm.best_fitness[best])
        swarm.g_best_position = swarm.best_position[best].copy()
    return swarm


def swarm_fitness_variance(fitnesses) -> float:
    """Normalized fitness variance used as the premature-convergence signal."""
    J = np.asarray(fitnesses, dtype=float)
    centered = J - J.mean()
    F = max(1.0, float(np.abs(centered).max()))
    return float(np.mean((centered / F) ** 2))


def mutation_check(swarm: Swarm, space: _WeightedSpace, params: PsoParams,
                   rng: np.random.Generator) -> tuple[float, bool]:
    """Mutate the global best when the swarm has collapsed.

    When the normalized fitness variance falls below ``sigma_t2`` the
    mutation probability is ``p0`` (else 0).  A triggered mutation scales
    every coordinate of the global best by (1 + eta/2) with per-coordinate
    standard-normal eta, clamps to the box, and keeps the better of the
    original and the mutant.

    Returns (mutation probability, whether the mutant was adopted).
    """
    sigma_f2 = swarm_fitness_variance(swarm.fitness)
    p_m = params.p0 if sigma_f2 < params.sigma_t2 else 0.0
    if p_m <= rng.uniform():
        return p_m, False
    eta = rng.standard_normal(swarm.g_best_position.shape)
    mutant = np.clip(swarm.g_best_position * (1.0 + eta / 2.0), space.lo, space.hi)
    mutant_fitness = space.fitness(mutant)
    if mutant_fitness < swarm.g_best_fitness:
        swarm.g_best_position = mutant
        swarm.g_best_fitness = mutant_fitness
        return p_m, True
    return p_m, False


SPLIT_QUANTILE = 0.999


@dataclass(frozen=True)
class AdaptiveParams:
    """Second-stage knobs deciding the cluster count.

    ``eps_d`` caps how far a member may sit from its centroid before the
    cluster is split; ``eps_c`` is the minimum distance two centroids may
    keep before being merged.  ``k_init=None`` defaults to
    ceil(sqrt(n/2)).  ``eps_d=None`` resolves, once the seeded clustering
    exists, to the 99.9th percentile of its point-to-centroid distances
    (so the split rule always trims the extreme tail, whatever scale the
    distance weights set); ``eps_c=None`` resolves to eps_d/10.
    """

    k_init: int | None = None
    eps_d: float | None = None
    eps_c: float | None = None
    max_outer: int = 60

    def __post_init__(self):
        if self.eps_d is not None and self.eps_d <= 0:
            raise ValueError("eps_d must be positive")
        if self.eps_c is not None:
            if self.eps_d is None:
                raise ValueError("eps_c without eps_d is ambiguous")
            if not (self.eps_d > self.eps_c > 0):
                raise ValueError("need eps_d > eps_c > 0")
        if self.k_init is not None and self.k_init < 1:
            raise ValueError("k_init must be >= 1")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


def default_k_init(n_points: int) -> int:
    return max(1, math.ceil(math.sqrt(n_points / 2.0)))


def _drop_empty(centroids, labels):
    counts = np.bincount(labels, minlength=centroids.shape[0])
    keep = np.flatnonzero(counts > 0)
    remap = np.full(centroids.shape[0], -1)
    remap[keep] = np.arange(len(keep))
    return centroids[keep], remap[labels]


def _merge_close(centroids, labels, eps_c, sqrt_w):
    """Merge centroid pairs closer than eps_c (weighted metric), nearest
    pair first.

    Each merge replaces the pair by its member-weighted mean; distances
    and member counts are recomputed before looking for the next pair.
    """
    centroids = centroids.copy()
    counts = np.bincount(labels, minlength=centroids.shape[0]).astype(float)
    merged = False
    while centroids.shape[0] > 1:
        D = _pairwise_dists(centroids * sqrt_w, centroids * sqrt_w)
        np.fill_diagonal(D, np.inf)
        i, j = np.unravel_index(np.argmin(D), D.shape)
        if D[i, j] >= eps_c:
            break
        total = counts[i] + counts[j]
        if total > 0:
            merged_centroid = (counts[i] * centroids[i] + counts[j] * centroids[j]) / total
        else:
            merged_centroid = (centroids[i] + centroids[j]) / 2.0
        keep = [idx for idx in range(centroids.shape[0]) if idx != j]
        centroids[i] = merged_centroid
        counts[i] = total
        centroids = centroids[keep]
        counts = counts[keep]
        merged = True
    return centroids, merged


def self_adaptive_pso_kmeans(
    X,
    w,
    pso: PsoParams = PsoParams(),
    adapt: AdaptiveParams = AdaptiveParams(),
    seed: int = 0,
) -> ClusterModel:
    """Two-stage clustering with a data-driven cluster count.

    Stage 1 runs the swarm over centroid sets of size ``k_init`` (particles
    start at random distinct data points) with the premature-convergence
    mutation active; ``seed`` seeds its generator, the only randomness in
    the clustering.  Stage 2 seeds Lloyd iterations with the global best
    and then alternates k-means with structural repairs: empty clusters
    are removed, the farthest point beyond ``eps_d`` from its centroid
    spawns a new cluster (one per outer pass), and centroid pairs within
    ``eps_c`` are merged.  The loop ends when a pass changes nothing
    structurally and the assignment is a fixed point; if ``max_outer``
    passes are exhausted first, the best model seen is returned flagged
    ``converged=False``.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    space = _WeightedSpace(X, w)
    k_init = adapt.k_init if adapt.k_init is not None else default_k_init(n)
    if k_init > n:
        raise TooFewPointsError(f"k_init={k_init} exceeds the number of points {n}")

    rng = np.random.default_rng(seed)
    swarm = init_swarm(space, k_init, params=pso, rng=rng)
    for it in range(pso.n_iter):
        pso_step(swarm, space, pso, it, rng)
        mutation_check(swarm, space, pso, rng)

    centroids = np.unique(swarm.g_best_position, axis=0)
    best: ClusterModel | None = None
    history: list[float] = []
    eps_d, eps_c = adapt.eps_d, adapt.eps_c
    for _ in range(adapt.max_outer):
        model = kmeans(X, centroids, space.w, space=space)
        history.extend(model.smse_history)
        centroids, labels = _drop_empty(model.centroids, model.assignment)
        structural = bool(model.empty_clusters)

        # dropping empty clusters changes no cluster's mean distance: SMSE stands
        dists = space.point_dists(centroids, labels)
        if eps_d is None:
            eps_d = max(float(np.quantile(dists, SPLIT_QUANTILE)), 1e-12)
        if eps_c is None:
            eps_c = eps_d / 10.0
        candidate = ClusterModel(
            centroids=centroids,
            assignment=labels,
            weights=space.w,
            smse=model.smse,
            converged=True,
            eps_d=eps_d,
            eps_c=eps_c,
            smse_history=list(history),
        )
        if best is None or candidate.smse < best.smse:
            best = candidate

        violating = dists > eps_d
        if np.any(violating):
            farthest = int(np.argmax(np.where(violating, dists, -np.inf)))
            centroids = np.vstack([centroids, X[farthest]])
            structural = True

        centroids, did_merge = _merge_close(centroids, labels, eps_c, space.sqrt_w)
        structural = structural or did_merge

        if not structural and model.converged:
            return candidate

    assert best is not None
    best.converged = False
    return best
