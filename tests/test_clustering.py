import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridscan as gs
from gridscan.clustering import (
    KMEANS_MAX_ITER,
    AdaptiveParams,
    PsoParams,
    Swarm,
    _cluster_means,
    _mean_cluster_distance,
    _WeightedSpace,
    default_k_init,
    inertia_weight,
    init_centroids_random,
    init_swarm,
    kmeans,
    mutation_check,
    pso_step,
    self_adaptive_pso_kmeans,
    swarm_fitness_variance,
    validate_weights,
    velocity_position_update,
)
from reference import smse, weighted_distance


def squared_error_objective(X, labels, k):
    """Reference clustering objective: sum of squared distances to the
    cluster mean (unweighted)."""
    total = 0.0
    for j in range(k):
        members = X[labels == j]
        if len(members):
            total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


def best_two_partition(X):
    """All 2-partitions of the rows, scored by the reference objective."""
    n = len(X)
    best_obj = np.inf
    best_sets = []
    for mask_bits in range(1, 2 ** (n - 1)):
        labels = np.array([(mask_bits >> i) & 1 for i in range(n)])
        obj = squared_error_objective(X, labels, 2)
        key = frozenset(
            [frozenset(np.flatnonzero(labels == 0).tolist()),
             frozenset(np.flatnonzero(labels == 1).tolist())]
        )
        if obj < best_obj - 1e-12:
            best_obj = obj
            best_sets = [key]
        elif abs(obj - best_obj) <= 1e-12:
            best_sets.append(key)
    return best_obj, best_sets


# ── distance and centroid primitives ─────────────────────────────────────


def test_weighted_distance_identity():
    x = np.array([0.3, -0.7])
    assert weighted_distance(x, x, np.array([2.0, 1.0])) == 0.0


def test_weighted_distance_pythagorean():
    assert weighted_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0]), np.ones(2)) == 5.0


def test_weighted_distance_direct_substitution():
    d = weighted_distance(np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([4.0, 1.0]))
    assert abs(d - np.sqrt(5.0)) < 1e-12


def test_weighted_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        weighted_distance(np.zeros(2), np.zeros(3), np.ones(3))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.lists(st.floats(0.01, 10), min_size=3, max_size=3),
)
def test_weighted_distance_metric_axioms(xs, ys, zs, ws):
    x, y, z, w = map(np.array, (xs, ys, zs, ws))
    dxy = weighted_distance(x, y, w)
    assert dxy >= 0
    assert abs(dxy - weighted_distance(y, x, w)) < 1e-9
    assert dxy <= weighted_distance(x, z, w) + weighted_distance(z, y, w) + 1e-9


def test_validate_weights():
    with pytest.raises(ValueError):
        validate_weights(np.zeros(3))
    with pytest.raises(ValueError):
        validate_weights(np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        validate_weights(np.array([np.inf, 1.0]))


# ── SMSE ─────────────────────────────────────────────────────────────────


def _model(centroids, assignment, w):
    return gs.ClusterModel(
        centroids=np.asarray(centroids, dtype=float),
        assignment=np.asarray(assignment),
        weights=np.asarray(w, dtype=float),
        smse=0.0,
    )


def test_smse_zero_when_points_sit_on_centroids():
    X = np.array([[0.0], [1.0]])
    m = _model([[0.0], [1.0]], [0, 1], [1.0])
    assert smse(m, X) == 0.0


def test_smse_single_cluster_mean_distance():
    X = np.array([[0.0], [2.0]])
    m = _model([[1.0]], [0, 0], [1.0])
    assert smse(m, X) == 1.0


def test_smse_two_cluster_average():
    X = np.array([[0.0], [2.0], [10.0]])
    m = _model([[1.0], [10.0]], [0, 0, 1], [1.0])
    assert abs(smse(m, X) - 0.5) < 1e-12


def test_smse_rejects_empty_cluster():
    X = np.array([[0.0], [2.0]])
    m = _model([[1.0], [50.0]], [0, 0], [1.0])
    with pytest.raises(ValueError, match="empty cluster"):
        smse(m, X)


# ── k-means ──────────────────────────────────────────────────────────────


def test_kmeans_k_equals_n_gives_zero_smse(rng):
    X = rng.uniform(-1, 1, size=(8, 3))
    model = kmeans(X, X.copy(), np.ones(3))
    assert model.smse == 0.0
    assert model.k == 8
    assert not model.empty_clusters


def test_kmeans_two_separated_pairs_match_brute_force():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    model = kmeans(X, X[[0, 2]], np.ones(2))
    got = {frozenset(np.flatnonzero(model.assignment == j).tolist()) for j in range(2)}
    _, best_sets = best_two_partition(X)
    assert frozenset(got) in best_sets
    centroids = sorted(model.centroids.tolist())
    assert np.allclose(centroids, [[0.05, 0.0], [5.05, 5.0]])


def test_kmeans_lloyd_monotone_descent(rng):
    # each sweep decreases the squared weighted objective (the quantity
    # Lloyd descends); the unsquared SMSE decreases net but can tick up
    # by a hair mid-run, so only its endpoints are ordered
    for trial in range(5):
        X = rng.uniform(-1, 1, size=(200, 4))
        w = rng.uniform(0.1, 2.0, size=4)
        init = init_centroids_random(X, 8, rng)
        model = kmeans(X, init, w)
        obj = np.array(model.objective_history)
        assert np.all(np.diff(obj) <= 1e-9 * obj[0])
        assert model.smse_history[-1] <= model.smse_history[0]


def test_kmeans_tie_broken_toward_lowest_index():
    # point at 0 is exactly equidistant from centroids at -1 and +1;
    # powers of two keep every distance computation exact
    X = np.array([[-1.0], [0.0], [1.0]])
    model = kmeans(X, np.array([[-1.0], [1.0]]), np.ones(1), max_iter=0)
    assert model.assignment[1] == 0


def test_kmeans_rejects_bad_k():
    X = np.zeros((3, 1))
    with pytest.raises(ValueError, match="1 <= k"):
        kmeans(X, np.zeros((4, 1)), np.ones(1))


def test_kmeans_rejects_duplicate_initial_centroids():
    X = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match="distinct"):
        kmeans(X, np.array([[1.0], [1.0]]), np.ones(1))


def test_kmeans_reports_empty_clusters():
    # a centroid outside the data's reach never captures a point and must
    # be reported, not dropped
    X = np.array([[0.0], [0.2], [0.4]])
    model = kmeans(X, np.array([[0.2], [100.0]]), np.ones(1))
    assert model.empty_clusters == (1,)
    assert model.k == 2
    assert np.all(model.assignment == 0)


def test_kmeans_zero_weight_attribute_has_no_effect(rng):
    X = rng.uniform(-1, 1, size=(60, 3))
    init = init_centroids_random(X, 5, np.random.default_rng(0))
    base = kmeans(X, init, np.array([1.0, 0.5, 2.0]))

    noise_col = rng.uniform(-1, 1, size=(60, 1))
    X2 = np.hstack([X, noise_col])
    init2 = np.hstack([init, np.zeros((5, 1))])
    extended = kmeans(X2, init2, np.array([1.0, 0.5, 2.0, 0.0]))
    assert np.array_equal(base.assignment, extended.assignment)


def test_kmeans_assignment_is_weighted_argmin(rng):
    X = rng.uniform(-1, 1, size=(120, 4))
    w = rng.uniform(0.0, 2.0, size=4)
    w[1] = 0.0
    model = kmeans(X, init_centroids_random(X, 7, rng), w)
    for i in range(len(X)):
        dists = [weighted_distance(X[i], c, w) for c in model.centroids]
        assert dists[model.assignment[i]] <= min(dists) + 1e-9


def test_kmeans_smse_consistent_with_recomputation(rng):
    X = rng.uniform(-1, 1, size=(100, 3))
    w = rng.uniform(0.2, 1.5, size=3)
    model = kmeans(X, init_centroids_random(X, 6, rng), w)
    if not model.empty_clusters:
        assert abs(model.smse - smse(model, X)) < 1e-9


def _full_sweep_kmeans(X, initial_centroids, w, max_iter=KMEANS_MAX_ITER):
    """Reference: every Lloyd sweep re-averages every cluster and re-ranks
    every centroid for every point with one full ``assign``."""
    X = np.asarray(X, dtype=float)
    C = np.array(initial_centroids, dtype=float)
    k = C.shape[0]
    space = _WeightedSpace(X, w)
    labels, dists = space.assign(C)
    history = [_mean_cluster_distance(labels, dists, k)]
    objective = [float(np.sum(dists**2))]
    converged = False
    for _ in range(max_iter):
        C = _cluster_means(X, labels, C)
        new_labels, dists = space.assign(C)
        history.append(_mean_cluster_distance(new_labels, dists, k))
        objective.append(float(np.sum(dists**2)))
        if np.array_equal(new_labels, labels):
            converged = True
            labels = new_labels
            break
        labels = new_labels
    return SimpleNamespace(
        centroids=C,
        assignment=labels,
        smse=_mean_cluster_distance(labels, dists, k),
        empty_clusters=tuple(int(i) for i in np.flatnonzero(np.bincount(labels, minlength=k) == 0)),
        converged=converged,
        smse_history=history,
        objective_history=objective,
    )


def _assert_matches_full_sweeps(X, init, w, max_iter=KMEANS_MAX_ITER):
    got = kmeans(X, init, w, max_iter)
    ref = _full_sweep_kmeans(X, init, w, max_iter)
    assert got.centroids.tobytes() == ref.centroids.tobytes()
    assert got.assignment.dtype == ref.assignment.dtype
    assert got.assignment.tobytes() == ref.assignment.tobytes()
    assert got.smse.hex() == ref.smse.hex()
    assert np.array(got.smse_history).tobytes() == np.array(ref.smse_history).tobytes()
    assert np.array(got.objective_history).tobytes() == np.array(ref.objective_history).tobytes()
    assert got.converged == ref.converged
    assert got.empty_clusters == ref.empty_clusters
    return ref


def test_kmeans_matches_full_sweeps_bitwise_on_random_inputs():
    sweeps = converged = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 400)), int(rng.integers(1, 7))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0, size=d)
        if seed % 2:
            # a coarse grid, so exact ties abound (and np.round makes -0.0)
            X = np.round(X * 4) / 4
        w = rng.uniform(0.0, 2.0, size=d)
        w[rng.uniform(size=d) < 0.3] = 0.0
        w[rng.integers(d)] = rng.uniform(0.5, 2.0)
        k = int(rng.integers(1, min(len(np.unique(X, axis=0)), 25) + 1))
        ref = _assert_matches_full_sweeps(X, init_centroids_random(X, k, rng), w)
        sweeps += len(ref.smse_history) - 1
        converged += ref.converged
    assert sweeps > 200 and converged == 60


def test_kmeans_matches_full_sweeps_bitwise_at_k_one_and_two(rng):
    X = rng.normal(size=(300, 4))
    w = np.array([1.0, 0.0, 0.3, 2.0])
    for k, sweeps in ((1, 1), (2, 3)):
        for _ in range(5):
            ref = _assert_matches_full_sweeps(X, init_centroids_random(X, k, rng), w)
            assert len(ref.smse_history) - 1 >= sweeps
    for _ in range(5):  # a one-point dataset
        X, init = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
        _assert_matches_full_sweeps(X, init, rng.uniform(0.1, 2.0, size=8))


def test_kmeans_matches_full_sweeps_when_one_centroid_moves(year, year_weights):
    # from a fixed point with the last centroid nudged (too little to move
    # any point), the first sweep moves that centroid alone, and a one-row
    # product goes to GEMV
    X = year.values[:3000]
    space = _WeightedSpace(X, year_weights)
    C = kmeans(X, init_centroids_random(X, 40, np.random.default_rng(4)), year_weights).centroids
    C[-1] += 1e-9
    moved = np.any(_cluster_means(X, space.assign(C)[0], C) != C, axis=1)
    assert moved.tolist() == [False] * 39 + [True]
    _assert_matches_full_sweeps(X, C, year_weights)


def test_kmeans_exact_tie_between_kept_best_and_moved_centroid():
    # the point at 0 sits at distance 1 from the unmoved centroid at -1
    # (the mean of -2 and 0) and from the other centroid once it moves from
    # 1.5 to 1 (the mean of 0.5 and 1.5); the tie goes to the lower index,
    # whether that is the kept centroid or the moved one
    X = np.array([[-2.0], [0.0], [0.5], [1.5]])
    kept_lower = _assert_matches_full_sweeps(X, [[-1.0], [1.5]], np.ones(1))
    assert kept_lower.assignment.tolist() == [0, 0, 1, 1]
    assert len(kept_lower.smse_history) == 2
    moved_lower = _assert_matches_full_sweeps(X, [[1.5], [-1.0]], np.ones(1))
    assert moved_lower.assignment[1] == 0


def test_kmeans_matches_full_sweeps_when_a_cluster_empties():
    # the middle centroid starts with the points 2, 2 and 6; its mean 10/3
    # then loses the 2s to the centroid at 1 and the 6 to the one at 7
    X = np.array([[1.0], [2.0], [2.0], [6.0], [7.0], [7.0]])
    init = np.array([[1.0], [1.5], [10.5]])
    assert _WeightedSpace(X, np.ones(1)).assign(init)[0].tolist() == [0, 1, 1, 1, 2, 2]
    ref = _assert_matches_full_sweeps(X, init, np.ones(1))
    assert ref.assignment.tolist() == [0, 0, 0, 2, 2, 2]
    assert ref.empty_clusters == (1,)


def test_kmeans_matches_full_sweeps_when_max_iter_ends_early(rng):
    X = rng.normal(size=(500, 3))
    init = init_centroids_random(X, 12, rng)
    ref = _assert_matches_full_sweeps(X, init, np.ones(3), max_iter=0)
    assert len(ref.smse_history) == 1 and not ref.converged
    ref = _assert_matches_full_sweeps(X, init, np.ones(3), max_iter=3)
    assert len(ref.smse_history) == 4 and not ref.converged


# ── assignment, cluster means and random seeding ─────────────────────────


def test_assign_matches_brute_force_across_changing_k(rng):
    # k goes 5 -> 9 -> 5 on one space, and the first set gives the same
    # bits again after the others
    X = rng.uniform(-1, 1, size=(150, 4))
    w = rng.uniform(0.1, 2.0, size=4)
    space = _WeightedSpace(X, w)
    first = None
    for k in (5, 9, 5):
        C = rng.uniform(-1, 1, size=(k, 4))
        labels, dists = space.assign(C)
        direct = [np.argmin([weighted_distance(x, c, w) for c in C]) for x in X]
        assert np.array_equal(labels, direct)
        ref = [weighted_distance(x, C[j], w) for x, j in zip(X, labels)]
        np.testing.assert_allclose(dists, ref, rtol=1e-12, atol=0)
        if first is None:
            first = C, labels, dists
    C0, labels0, dists0 = first
    again_labels, again_dists = space.assign(C0)
    assert np.array_equal(again_labels, labels0)
    assert again_dists.tobytes() == dists0.tobytes()


def test_assign_skips_zero_weight_columns(rng):
    X = rng.uniform(-1, 1, size=(150, 6))
    w = rng.uniform(0.1, 2.0, size=6)
    w[[1, 4]] = 0.0
    space = _WeightedSpace(X, w)
    C = rng.uniform(-1, 1, size=(7, 6))
    labels, dists = space.assign(C)
    direct = [np.argmin([weighted_distance(x, c, w) for c in C]) for x in X]
    assert np.array_equal(labels, direct)
    ref = [weighted_distance(x, C[j], w) for x, j in zip(X, labels)]
    np.testing.assert_allclose(dists, ref, rtol=1e-12, atol=0)
    positive = w > 0
    reduced = _WeightedSpace(X[:, positive], w[positive])
    assert np.array_equal(reduced.assign(C[:, positive])[0], labels)
    # the distances are a fresh array, not overwritten by the next call
    kept = dists.copy()
    space.assign(C[::-1])
    assert dists.tobytes() == kept.tobytes()


def test_assign_distance_survives_a_centroid_next_to_a_point(rng):
    # |x|^2 - 2 x.c + |c|^2 cancels to noise at 1e-7; x*s - c*s does not
    X = rng.uniform(1, 2, size=(50, 4))
    w = rng.uniform(0.1, 2.0, size=4)
    space = _WeightedSpace(X, w)
    C = np.vstack([X[0] + 1e-7, X[1:3]])
    labels, dists = space.assign(C)
    assert labels[0] == 0
    ref = weighted_distance(X[0], C[0], w)
    assert abs(dists[0] - ref) <= 1e-6 * ref


def test_assign_exact_tie_goes_to_lowest_index():
    # both points are exactly equidistant from centroids 1 and 2 in either
    # order; sqrt(4) = 2 keeps the scaled coordinates exact
    X = np.array([[0.0, 0.0], [0.0, 0.25]])
    space = _WeightedSpace(X, np.array([4.0, 1.0]))
    for C in ([[3.0, 3.0], [0.5, 0.0], [-0.5, 0.0]], [[3.0, 3.0], [-0.5, 0.0], [0.5, 0.0]]):
        labels, dists = space.assign(np.array(C))
        assert labels.tolist() == [1, 1]
        assert dists.tolist() == [1.0, np.sqrt(1.0625)]


def test_one_space_shared_by_threads_gives_sequential_bits(year, year_weights):
    space = _WeightedSpace(year.values, year_weights)
    attributes = set(vars(space))
    assert np.shares_memory(space.Xw, space.Xa)
    rng = np.random.default_rng(6)
    sets = [init_centroids_random(year.values, k, rng) for k in (40, 67, 83) * 4]
    sequential = [space.assign(C) for C in sets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            shared = list(pool.map(space.assign, sets, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for (labels, dists), (want_labels, want_dists) in zip(shared, sequential):
        assert labels.tobytes() == want_labels.tobytes()
        assert dists.tobytes() == want_dists.tobytes()
    assert set(vars(space)) == attributes


@pytest.fixture(params=["default year", "2000x12 year"])
def ranking_cases(request, year, year_weights):
    """Spaces and centroid sets of the sizes k-means meets on two years."""
    rng = np.random.default_rng(0)
    if request.param == "default year":
        X, w = year.values, year_weights
    else:
        config = gs.SyntheticYearConfig(n_hours=2000, n_attributes=12, seed=5)
        X = gs.generate_synthetic_year(config).values
        w = rng.uniform(0.0, 1.0, size=12)
        w[[2, 5, 9]] = 0.0
    space = _WeightedSpace(X, w)
    cases = []
    for k in (2, 3, 40, 83):
        C = init_centroids_random(X, k, rng) + rng.normal(0, 0.01, size=(k, X.shape[1]))
        cases.append((space, C))
    return cases


# Incremental k-means rests on the three equalities below.  They hold for
# numpy 2.4 with OpenBLAS 0.3.31, at one BLAS thread and at the default
# count.  An upgrade that breaks one fails here by name, instead of
# shifting cluster models silently.


def test_ranking_product_transposed_equals_assign_product_bitwise(ranking_cases):
    for space, C in ranking_cases:
        Cw, Ca = space.ranking_rows(C)
        R = Ca @ space.Xa.T
        assert np.ascontiguousarray(R.T).tobytes() == (space.Xa @ Ca.T).tobytes()
        labels, _ = space.assign(C)
        assert R.argmin(axis=0).tobytes() == labels.tobytes()


def test_ranking_sub_product_of_two_or_more_rows_equals_full_rows_bitwise(ranking_cases):
    rng = np.random.default_rng(1)
    for space, C in ranking_cases:
        _, Ca = space.ranking_rows(C)
        R = Ca @ space.Xa.T
        k = len(C)
        for size in sorted({2, min(3, k), max(2, k // 7), max(2, k // 2), k}):
            rows = np.sort(rng.choice(k, size=size, replace=False))
            assert (Ca[rows] @ space.Xa.T).tobytes() == R[rows].tobytes(), (k, size)
        rows = np.array([k - 1, 0])
        assert (Ca[rows] @ space.Xa.T).tobytes() == R[rows].tobytes()


def test_assign_distances_equal_row_subset_recomputation_bitwise(ranking_cases):
    rng = np.random.default_rng(2)
    for space, C in ranking_cases:
        Cw, _ = space.ranking_rows(C)
        labels, dists = space.assign(C)
        n = len(labels)
        for size in (2, 3, 17, n // 3, n):
            rows = np.sort(rng.choice(n, size=size, replace=False))
            assert space.dists_at(Cw, labels, rows).tobytes() == dists[rows].tobytes(), size


def test_ranking_and_dists_at_give_the_full_pass_bits_for_a_lone_row(ranking_cases):
    # on their own, one-row products go to GEMV and one-row distances to a
    # vectorised dot; both round differently from the full pass
    rng = np.random.default_rng(3)
    for space, C in ranking_cases:
        Cw, Ca = space.ranking_rows(C)
        R = Ca @ space.Xa.T
        for row in range(len(C)):
            assert space.ranking(Ca[[row]]).tobytes() == R[[row]].tobytes(), row
        labels, dists = space.assign(C)
        for point in rng.choice(len(labels), size=40, replace=False):
            rows = np.array([point])
            assert space.dists_at(Cw, labels, rows).tobytes() == dists[rows].tobytes(), point
    # in a one-point space assign's own pass is the vectorised dot
    for _ in range(20):
        lone = _WeightedSpace(rng.normal(size=(1, 8)), rng.uniform(0.1, 2.0, size=8))
        C = rng.normal(size=(1, 8))
        labels, dists = lone.assign(C)
        Cw, _ = lone.ranking_rows(C)
        assert lone.dists_at(Cw, labels, np.array([0])).tobytes() == dists.tobytes()


def _take_out_dists(Xw, Cw, labels):
    """``_dists`` with the gather it replaced: ``np.take`` into an F-ordered ``out``."""
    diff = np.empty(Xw.shape, order="F")
    np.take(Cw, labels, axis=0, out=diff)
    np.subtract(Xw, diff, out=diff)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def test_dists_equal_the_take_out_gather_bitwise(ranking_cases, year, year_weights):
    rng = np.random.default_rng(4)
    quick_start = _WeightedSpace(year.values, year_weights)
    cases = ranking_cases + [(quick_start, init_centroids_random(year.values, 67, rng))
                             for _ in range(20)]
    for space, C in cases:
        Cw, _ = space.ranking_rows(C)
        labels, dists = space.assign(C)
        assert dists.tobytes() == _take_out_dists(space.Xw, Cw, labels).tobytes()
        rows = np.sort(rng.choice(len(labels), size=17, replace=False))
        want = _take_out_dists(space.Xw[rows], Cw, labels[rows])
        assert space.dists_at(Cw, labels, rows).tobytes() == want.tobytes()


def _cluster_means_per_attribute(X, labels, old_centroids):
    """Reference: one bincount per attribute."""
    k = old_centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    sums = np.empty((k, X.shape[1]))
    for a in range(X.shape[1]):
        sums[:, a] = np.bincount(labels, weights=X[:, a], minlength=k)
    means = old_centroids.copy()
    occupied = counts > 0
    means[occupied] = sums[occupied] / counts[occupied, None]
    return means


def test_cluster_means_equal_per_attribute_loop_bitwise(rng):
    for n, d, k in ((500, 7, 6), (8760, 20, 67), (3, 1, 4)):
        X = rng.normal(0, 1e3, size=(n, d)) * rng.uniform(1e-6, 1.0, size=d)
        labels = rng.integers(0, k, size=n)
        labels[labels == 2] = 0  # cluster 2 is empty
        old = rng.normal(size=(k, d))
        means = _cluster_means(X, labels, old)
        assert means.tobytes() == _cluster_means_per_attribute(X, labels, old).tobytes()
        assert means[2].tobytes() == old[2].tobytes()


def test_init_centroids_random_k_equals_distinct_points():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])
    C = init_centroids_random(X, 3, np.random.default_rng(0))
    assert sorted(map(tuple, C.tolist())) == [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]


def test_signed_zeros_are_one_point_when_seeding():
    # np.unique, which kmeans checks the seeds with, takes 0.0 and -0.0 for one
    X = np.array([[0.0], [-0.0], [1.0]])
    with pytest.raises(ValueError, match="only 2 distinct points, cannot seed k=3"):
        init_centroids_random(X, 3, np.random.default_rng(0))
    for seed in range(8):
        init = init_centroids_random(X, 2, np.random.default_rng(seed))
        assert kmeans(X, init, np.ones(1)).converged


def test_k_above_distinct_points_is_a_clear_error():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="only 3 distinct points, cannot seed k=4"):
        init_centroids_random(X, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="only 3 distinct points, cannot seed k=4"):
        self_adaptive_pso_kmeans(
            X, np.ones(2), PsoParams(swarm_size=2, n_iter=1), AdaptiveParams(k_init=4)
        )


# ── PSO ──────────────────────────────────────────────────────────────────


def test_inertia_endpoints():
    # steps 0..n_iter-1 run: the first uses w_max and the last stops one
    # decrement short of w_min, which only a step n_iter would use
    params = PsoParams(n_iter=10, w_max=0.9, w_min=0.4)
    assert inertia_weight(0, params) == 0.9
    assert abs(inertia_weight(9, params) - 0.45) < 1e-15
    assert abs(inertia_weight(10, params) - 0.4) < 1e-15


def test_velocity_update_fixed_point():
    p = np.zeros((2, 2))
    new_p, new_v = velocity_position_update(
        p, np.zeros((2, 2)), p, p, 0.7, 2.0, 2.0, 0.3, 0.9,
        lo=-np.ones(2), hi=np.ones(2),
    )
    assert np.all(new_v == 0.0)
    assert np.array_equal(new_p, p)


def test_velocity_update_hand_case_with_clamp():
    # v' = 0.5*0 + 2*1*(1-0) + 2*1*(2-0) = 6, p' = 0 + 6 clamped to box max
    new_p, new_v = velocity_position_update(
        np.array([[0.0]]), np.array([[0.0]]), np.array([[1.0]]), np.array([[2.0]]),
        0.5, 2.0, 2.0, 1.0, 1.0, lo=np.array([0.0]), hi=np.array([1.0]),
    )
    assert new_v[0, 0] == 6.0
    assert new_p[0, 0] == 1.0


def test_pso_gbest_monotone(year, year_weights):
    X = year.values[:800]
    space = _WeightedSpace(X, year_weights)
    rng = np.random.default_rng(3)
    params = PsoParams(swarm_size=8, n_iter=15)
    swarm = init_swarm(space, 10, params, rng)
    best = swarm.g_best_fitness
    for it in range(params.n_iter):
        pso_step(swarm, space, params, it, rng)
        mutation_check(swarm, space, params, rng)
        assert swarm.g_best_fitness <= best + 1e-15
        best = swarm.g_best_fitness


def _per_particle_pso_step(particles, g_best, space, params, iter_index, rng):
    """Reference: the swarm step one particle at a time, each drawing its own
    ``rand1, rand2`` and updating its personal best before the next moves."""
    inertia = inertia_weight(iter_index, params)
    for p in particles:
        rand1, rand2 = rng.uniform(size=2)
        p.position, p.velocity = velocity_position_update(
            p.position, p.velocity, p.best_position, g_best.position,
            inertia, params.c1, params.c2, rand1, rand2, space.lo, space.hi,
        )
        p.fitness = space.fitness(p.position)
        if p.fitness < p.best_fitness:
            p.best_fitness = p.fitness
            p.best_position = p.position.copy()
    best = min(particles, key=lambda p: p.best_fitness)
    if best.best_fitness < g_best.fitness:
        g_best.fitness = best.best_fitness
        g_best.position = best.best_position.copy()


def test_pso_step_matches_per_particle_loop_bitwise(rng):
    X = rng.uniform(-1, 1, size=(400, 5))
    space = _WeightedSpace(X, rng.uniform(0.1, 2.0, size=5))
    params = PsoParams(swarm_size=6, n_iter=15)
    swarm = init_swarm(space, 8, params, np.random.default_rng(5))
    particles = [
        SimpleNamespace(position=swarm.position[i].copy(), velocity=swarm.velocity[i].copy(),
                        best_position=swarm.best_position[i].copy(),
                        best_fitness=float(swarm.best_fitness[i]), fitness=float(swarm.fitness[i]))
        for i in range(params.swarm_size)
    ]
    g_best = SimpleNamespace(position=swarm.g_best_position.copy(), fitness=swarm.g_best_fitness)
    stacked_rng, loop_rng = np.random.default_rng(11), np.random.default_rng(11)
    g_best_updates = 0
    for it in range(params.n_iter):
        before = swarm.g_best_fitness
        pso_step(swarm, space, params, it, stacked_rng)
        _per_particle_pso_step(particles, g_best, space, params, it, loop_rng)
        g_best_updates += swarm.g_best_fitness < before
        for name in ("position", "velocity", "best_position", "fitness", "best_fitness"):
            loop = np.array([getattr(p, name) for p in particles])
            assert getattr(swarm, name).tobytes() == loop.tobytes(), (it, name)
        assert swarm.g_best_fitness == g_best.fitness
        assert swarm.g_best_position.tobytes() == g_best.position.tobytes()
        assert not np.shares_memory(swarm.g_best_position, swarm.best_position)
    assert g_best_updates >= 3
    assert stacked_rng.uniform() == loop_rng.uniform()


def test_init_swarm_draws_centroids_then_velocity_per_particle(rng):
    X = rng.uniform(-1, 1, size=(300, 4))
    space = _WeightedSpace(X, rng.uniform(0.1, 2.0, size=4))
    params = PsoParams(swarm_size=5)
    swarm = init_swarm(space, 7, params, np.random.default_rng(8))
    ref = np.random.default_rng(8)
    for i in range(params.swarm_size):
        position = init_centroids_random(X, 7, ref)
        velocity = ref.uniform(-0.1, 0.1, size=position.shape) * (space.hi - space.lo)
        assert swarm.position[i].tobytes() == position.tobytes()
        assert swarm.velocity[i].tobytes() == velocity.tobytes()
        assert swarm.fitness[i] == space.fitness(position)
    assert swarm.best_position.tobytes() == swarm.position.tobytes()
    assert swarm.best_fitness.tobytes() == swarm.fitness.tobytes()
    assert not np.shares_memory(swarm.best_position, swarm.position)
    best = int(np.argmin(swarm.fitness))
    assert swarm.g_best_fitness == swarm.fitness[best]
    assert swarm.g_best_position.tobytes() == swarm.position[best].tobytes()


def test_fitness_variance_trigger():
    assert swarm_fitness_variance([0.5, 0.5, 0.5]) == 0.0
    spread = swarm_fitness_variance([0.0, 10.0, 20.0])
    assert spread >= 1e-3


def _tiny_swarm(space, positions):
    position = np.stack(positions)
    fitness = np.array([space.fitness(p) for p in position])
    best = int(np.argmin(fitness))
    return Swarm(position, np.zeros_like(position), position.copy(), fitness, fitness.copy(),
                 position[best].copy(), float(fitness[best]))


class _ScriptedRng:
    """Deterministic stand-in for the generator used by mutation_check."""

    def __init__(self, uniform_value, eta):
        self._u = uniform_value
        self._eta = eta

    def uniform(self, *args, **kwargs):
        return self._u

    def standard_normal(self, shape):
        return np.broadcast_to(np.asarray(self._eta), shape).copy()


def test_mutation_probability_rules(rng):
    X = rng.uniform(-1, 1, size=(50, 2))
    space = _WeightedSpace(X, np.ones(2))
    pos = X[:3].reshape(3, 1, 2)
    swarm = _tiny_swarm(space, [pos[0], pos[0], pos[0]])
    params = PsoParams(swarm_size=3, p0=0.3, sigma_t2=1e-3)

    # collapsed swarm: equal fitnesses, variance 0 -> p_m = p0
    p_m, _ = mutation_check(swarm, space, params, _ScriptedRng(1.0, 0.0))
    assert p_m == params.p0

    # spread swarm: variance above threshold -> no mutation possible
    spread = _tiny_swarm(space, [X[:3].reshape(3, 1, 2)[i] for i in range(3)])
    spread.fitness[:] = [0.0, 10.0, 20.0]
    p_m, mutated = mutation_check(spread, space, params, _ScriptedRng(0.0, 1.0))
    assert p_m == 0.0 and not mutated


def test_mutation_identity_eta_zero(rng):
    X = rng.uniform(-1, 1, size=(50, 2))
    space = _WeightedSpace(X, np.ones(2))
    swarm = _tiny_swarm(space, [X[:2].reshape(2, 1, 2)[0]] * 2)
    before_pos = swarm.g_best_position.copy()
    before_fit = swarm.g_best_fitness
    # trigger fires (uniform 0 < p0) but eta = 0 leaves g_best unchanged,
    # so the mutant cannot strictly improve and is discarded
    p_m, mutated = mutation_check(
        swarm, space, PsoParams(swarm_size=2), _ScriptedRng(0.0, 0.0)
    )
    assert p_m == 0.3 and not mutated
    assert np.array_equal(swarm.g_best_position, before_pos)
    assert swarm.g_best_fitness == before_fit


# ── self-adaptive outer loop ─────────────────────────────────────────────


def _blobs(rng, centers, n_per, spread):
    pts = []
    for c in centers:
        pts.append(np.asarray(c) + spread * rng.uniform(-1, 1, size=(n_per, len(c))))
    return np.vstack(pts)


def test_adaptive_identical_blobs_keep_k(rng):
    centers = [[-5.0, 0.0], [0.0, 5.0], [5.0, 0.0]]
    X = np.repeat(np.asarray(centers), 10, axis=0)
    model = self_adaptive_pso_kmeans(
        X, np.ones(2),
        PsoParams(swarm_size=4, n_iter=5),
        AdaptiveParams(k_init=3, eps_d=1.0, eps_c=0.5, max_outer=10),
        seed=0,
    )
    assert model.k == 3
    assert model.smse == 0.0
    assert model.converged


def test_adaptive_split_separates_distant_blobs(rng):
    X = _blobs(rng, [[-5.0, 0.0], [5.0, 0.0]], 25, 0.3)
    model = self_adaptive_pso_kmeans(
        X, np.ones(2),
        PsoParams(swarm_size=4, n_iter=5),
        AdaptiveParams(k_init=1, eps_d=2.0, eps_c=0.2, max_outer=10),
        seed=1,
    )
    assert model.k == 2
    assert model.converged
    left = model.assignment[:25]
    right = model.assignment[25:]
    assert len(set(left.tolist())) == 1 and len(set(right.tolist())) == 1
    assert left[0] != right[0]


def test_merge_collapses_duplicate_centroids():
    from gridscan.clustering import _merge_close

    centroids = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    labels = np.array([0, 0, 1, 2, 2])
    merged, did = _merge_close(centroids, labels, eps_c=0.5, sqrt_w=np.ones(2))
    assert did
    assert merged.shape[0] == 2


def test_adaptive_postconditions(year, year_weights):
    X = year.values[:2000]
    model = self_adaptive_pso_kmeans(
        X, year_weights, PsoParams(swarm_size=10, n_iter=20), AdaptiveParams(), seed=5
    )
    assert model.converged
    assert not model.empty_clusters
    space = _WeightedSpace(X, year_weights)
    d = space.point_dists(model.centroids, model.assignment)
    assert d.max() <= model.eps_d + 1e-12
    from scipy.spatial.distance import pdist

    assert pdist(model.centroids * space.sqrt_w).min() >= model.eps_c
    # every point sits with its weighted-distance argmin
    labels, _ = space.assign(model.centroids)
    direct = np.array(
        [np.argmin([weighted_distance(x, c, year_weights) for c in model.centroids])
         for x in X[:100]]
    )
    assert np.array_equal(labels[:100], direct)
    assert abs(model.smse - smse(model, X)) < 1e-9
    brute = np.mean([
        np.mean([weighted_distance(x, c, year_weights) for x in X[model.assignment == j]])
        for j, c in enumerate(model.centroids)
    ])
    assert abs(model.smse - brute) <= 1e-12 * brute


# ── one distance: SMSE, eps_d and the split read k-means' own distances ──


@pytest.fixture(scope="module", params=["default year", "2000x12 year"])
def year_scan(request):
    """A year and its fast scan, whose model is an adaptive clustering."""
    if request.param == "default year":
        return request.getfixturevalue("year"), request.getfixturevalue("default_scan")
    data = gs.generate_synthetic_year(gs.SyntheticYearConfig(n_hours=2000, n_attributes=12, seed=3))
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=3)
    return data, gs.fast_scan(data, oracle)


def test_kmeans_smse_is_its_last_history_entry_and_the_recomputed_smse(year_scan):
    data, report = year_scan
    X, w = data.values, report.model.weights
    for seed in range(3):
        init = init_centroids_random(X, report.model.k, np.random.default_rng(seed))
        model = kmeans(X, init, w)
        assert model.converged and not model.empty_clusters
        assert model.smse.hex() == model.smse_history[-1].hex()
        assert model.smse.hex() == smse(model, X).hex()


def test_adaptive_smse_is_the_recomputed_smse(year_scan):
    data, report = year_scan
    assert report.model.smse.hex() == smse(report.model, data.values).hex()


def test_adaptive_members_lie_within_eps_d_without_slack(year_scan):
    data, report = year_scan
    model = report.model
    assert model.converged
    space = _WeightedSpace(data.values, model.weights)
    assert space.point_dists(model.centroids, model.assignment).max() <= model.eps_d


def test_adaptive_flags_non_convergence(rng):
    X = rng.uniform(-1, 1, size=(200, 2))
    model = self_adaptive_pso_kmeans(
        X, np.ones(2),
        PsoParams(swarm_size=4, n_iter=5),
        AdaptiveParams(k_init=4, eps_d=1e-6, eps_c=1e-7, max_outer=3),
        seed=2,
    )
    assert not model.converged


def test_default_k_init():
    assert default_k_init(8760) == 67
    assert default_k_init(1) == 1


def test_adaptive_params_validation():
    with pytest.raises(ValueError):
        AdaptiveParams(eps_d=0.1, eps_c=0.2)
    with pytest.raises(ValueError):
        AdaptiveParams(eps_c=0.1)
    with pytest.raises(ValueError):
        AdaptiveParams(k_init=0)


def test_cluster_model_serialization(tmp_path, rng):
    X = rng.uniform(-1, 1, size=(30, 2))
    model = kmeans(X, init_centroids_random(X, 3, rng), np.ones(2))
    j = model.save_json(tmp_path / "m.json")
    a = model.save_assignment_csv(tmp_path / "a.csv", hours=np.arange(30))
    import json

    payload = json.loads(j.read_text())
    assert payload["k"] == 3
    assert len(payload["assignment"]) == 30
    lines = a.read_text().strip().splitlines()
    assert lines[0] == "hour,cluster_id"
    assert len(lines) == 31
