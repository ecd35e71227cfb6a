"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The expensive fixtures (default year, default fast scan) are shared
with the rest of the suite.  Criteria 4, 6 and 7 take minutes and are
marked ``slow``; ``pytest -m "not slow"`` leaves them out.
"""

import itertools
import time

import numpy as np
import pytest

import gridscan as gs
from gridscan.clustering import (
    AdaptiveParams,
    PsoParams,
    _WeightedSpace,
    default_k_init,
    init_centroids_random,
    kmeans,
    smse,
    weighted_distance,
)
from gridscan.oracles import two_bus_margin


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


# ── criterion 1: clustering oracle equivalence ──────────────────────────


def squared_error_objective(X, labels):
    total = 0.0
    for j in set(labels.tolist()):
        members = X[labels == j]
        total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


def enumerate_best_partitions(X):
    """Exhaustive search over all 2-partitions, returning every optimum."""
    n = len(X)
    best_obj = np.inf
    best = []
    for bits in range(1, 2 ** (n - 1)):
        labels = np.array([(bits >> i) & 1 for i in range(n)])
        obj = squared_error_objective(X, labels)
        key = frozenset(
            [frozenset(np.flatnonzero(labels == 0).tolist()),
             frozenset(np.flatnonzero(labels == 1).tolist())]
        )
        if obj < best_obj - 1e-12:
            best_obj, best = obj, [key]
        elif abs(obj - best_obj) <= 1e-12:
            best.append(key)
    return best_obj, best


def kmeans_best_of_all_initializations(X):
    """Best k=2 partition over every distinct pair of data points."""
    distinct = np.unique(X, axis=0)
    best_obj = np.inf
    best_partition = None
    for i, j in itertools.combinations(range(len(distinct)), 2):
        model = kmeans(X, distinct[[i, j]], np.ones(X.shape[1]))
        if model.empty_clusters:
            continue
        obj = squared_error_objective(X, model.assignment)
        if obj < best_obj:
            best_obj = obj
            best_partition = frozenset(
                frozenset(np.flatnonzero(model.assignment == c).tolist())
                for c in range(2)
            )
    return best_obj, best_partition


def test_criterion_1_kmeans_matches_exhaustive_enumeration():
    start = time.perf_counter()
    datasets = []
    rng = np.random.default_rng(0)
    for n in range(2, 11):
        datasets.append(rng.uniform(-1, 1, size=(n, 1)))
        datasets.append(rng.normal(size=(n, 1)))
    datasets += [
        np.array([[0.0], [1.0], [2.0], [3.0]]),
        np.array([[-1.0], [-0.5], [0.5], [1.0]]),
        np.array([[0.0], [0.0], [0.0], [1.0]]),
        np.array([[0.0], [0.0], [1.0], [1.0], [5.0]]),
        np.array([[-2.0], [-1.0], [1.0], [2.0], [8.0], [9.0]]),
    ]
    checked = 0
    for X in datasets:
        if len(np.unique(X, axis=0)) < 2:
            continue
        best_obj, best_sets = enumerate_best_partitions(X)
        got_obj, got_partition = kmeans_best_of_all_initializations(X)
        assert got_partition in best_sets, (X.ravel(), got_obj, best_obj)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"{checked} 1-D datasets (n<=10, k=2) match exhaustive enumeration "
              f"exactly in {elapsed:.2f} s")


# ── criterion 2: VSA oracle equivalence ──────────────────────────────────


def margin_by_bisection(E, X, p0, tol=1e-9):
    v = np.linspace(0.0, E, 20001)
    transfer = v / X * np.sqrt(np.maximum(E * E - v * v, 0.0))

    def solvable(p):
        return bool(np.any(transfer >= p))

    lo, hi = 0.0, E * E / X
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if solvable(mid):
            lo = mid
        else:
            hi = mid
    return lo - p0


def test_criterion_2_two_bus_closed_form_vs_bisection():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        E = rng.uniform(0.9, 1.1)
        X = rng.uniform(0.1, 1.0)
        p0 = rng.uniform(0.0, E * E / (2 * X))
        closed = two_bus_margin(np.zeros(1), E, X, lambda _: p0)
        worst = max(worst, abs(closed - margin_by_bisection(E, X, p0)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 5.0
    report(2, f"1000 random (E, X, P0) cases, worst disagreement {worst:.2e} "
              f"in {elapsed:.1f} s")


# ── criterion 3: RReliefF recovery ───────────────────────────────────────


def test_criterion_3_feature_recovery_over_100_seeds():
    start = time.perf_counter()
    hits = 0
    for seed in range(100):
        data = gs.generate_synthetic_year(gs.SyntheticYearConfig(seed=seed))
        oracle = gs.DampingSurrogate.from_seed(
            data.metadata["informative_indices"], seed=seed + 100
        )
        rep = gs.select_features(data, oracle, seed=seed)
        hits += set(np.argsort(rep.adjusted_ranks)[:3]) == {0, 1, 2}
    elapsed = time.perf_counter() - start
    assert hits >= 95
    assert elapsed < 300.0
    report(3, f"informative features ranked top-3 in {hits}/100 seeds "
              f"({elapsed:.0f} s)")


# ── criterion 4: PSO-k-means dominance at fixed k ────────────────────────


@pytest.mark.slow
def test_criterion_4_pso_kmeans_dominance(year, year_weights):
    start = time.perf_counter()
    X = year.values
    k = default_k_init(len(X))
    # hold k fixed for the pairing: splits and merges both out of reach
    quiet = AdaptiveParams(eps_d=1e9, eps_c=1e-12)

    adaptive_final, plain_final, first_wins = [], [], 0
    for seed in range(20):
        model = gs.self_adaptive_pso_kmeans(X, year_weights, PsoParams(seed=seed), quiet)
        plain = kmeans(
            X, init_centroids_random(X, k, np.random.default_rng(seed + 1000)), year_weights
        )
        adaptive_final.append(model.smse)
        plain_final.append(plain.smse)
        first_wins += model.smse_history[0] < plain.smse_history[0]
    elapsed = time.perf_counter() - start

    med_a, med_p = np.median(adaptive_final), np.median(plain_final)
    assert med_a <= med_p
    assert first_wins >= 16
    assert elapsed < 600.0
    report(4, f"median SMSE {med_a:.5f} (PSO-seeded) <= {med_p:.5f} (random init); "
              f"seeded stage starts lower in {first_wins}/20 pairs ({elapsed:.0f} s)")


# ── criterion 5: dimensionality reduction ────────────────────────────────


def test_criterion_5_cluster_count_reduction(year, default_scan):
    assert default_scan.k_final <= 0.10 * year.n_points
    assert default_scan.reduction >= 0.90
    report(5, f"{year.n_points} hours -> {default_scan.k_final} clusters "
              f"(reduction {default_scan.reduction:.1%})")


# ── criterion 6: accuracy ────────────────────────────────────────────────


@pytest.mark.slow
def test_criterion_6_accuracy_and_error_dominance(year, year_oracle, year_weights,
                                                  default_scan):
    assert default_scan.mape <= 0.05
    assert default_scan.max_ape <= 0.15

    start = time.perf_counter()
    X = year.values
    k = default_k_init(len(X))
    wins = 0
    for seed in range(20):
        model = gs.self_adaptive_pso_kmeans(
            X, year_weights, PsoParams(seed=seed), AdaptiveParams()
        )
        plain = kmeans(
            X, init_centroids_random(X, k, np.random.default_rng(seed + 1000)), year_weights
        )
        rng = np.random.default_rng(seed + 5000)
        idx = rng.choice(len(X), size=500, replace=False)
        lam = np.array([year_oracle(X[i]) for i in idx])

        def max_ape(m):
            lam_c = np.array([year_oracle(c) for c in m.centroids])
            lam_hat = lam_c[m.assignment]
            return float((np.abs(lam - lam_hat[idx]) / np.abs(lam)).max())

        wins += max_ape(model) < max_ape(plain)
    elapsed = time.perf_counter() - start
    assert wins >= 16
    assert elapsed < 900.0
    report(6, f"default scan MAPE {default_scan.mape:.2%} (<=5%), max APE "
              f"{default_scan.max_ape:.2%} (<=15%); adaptive beats plain k-means "
              f"on max APE in {wins}/20 pairs ({elapsed:.0f} s)")


# ── criterion 7: speed-up with injected oracle cost ──────────────────────


@pytest.mark.slow
def test_criterion_7_speedup_with_injected_cost(year):
    informative = year.metadata["informative_indices"]
    oracle = gs.DampingSurrogate.from_seed(informative, seed=101, delay_ms=50.0)
    start = time.perf_counter()
    result = gs.compare_full_vs_fast(year, oracle, gs.ScanConfig(seed=0))
    elapsed = time.perf_counter() - start
    assert result.speedup >= 5.0
    assert elapsed < 1800.0
    t = result.timing
    report(7, f"speed-up {result.speedup:.1f}x with 50 ms per call "
              f"(full {t['full_scan_s']:.0f} s vs fast "
              f"{t['feature_selection_s'] + t['clustering_s'] + t['centroid_eval_s']:.0f} s; "
              f"criterion wall clock {elapsed:.0f} s)")


# ── criterion 8: exactness limit ─────────────────────────────────────────


def test_criterion_8_exactness_when_every_point_is_a_centroid():
    start = time.perf_counter()
    data = gs.generate_synthetic_year(
        gs.SyntheticYearConfig(n_hours=300, n_attributes=8, seed=3)
    )
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=13)
    config = gs.ScanConfig(
        relief=gs.ReliefParams(m=200, k=5, batch=30, window=2),
        pso=PsoParams(swarm_size=6, n_iter=10),
        adapt=AdaptiveParams(eps_d=1e-12, eps_c=1e-13, max_outer=400),
        seed=0,
    )
    result = gs.fast_scan(data, oracle, config)
    truth = np.array([oracle(x) for x in data.values])
    elapsed = time.perf_counter() - start
    assert result.k_final == data.n_points
    assert np.array_equal(result.lambda_hat, truth)
    assert elapsed < 120.0
    report(8, f"eps_d -> 0 forces k = |R| = {result.k_final}; imputed indices equal "
              f"true indices bitwise ({elapsed:.0f} s)")


# ── criterion 9: invariant suites ────────────────────────────────────────


def test_criterion_9_invariant_suites(year, year_weights):
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    # normalization round-trip
    for _ in range(20):
        raw = rng.uniform(-50, 50, size=(rng.integers(3, 40), rng.integers(1, 6)))
        ops = gs.normalize(raw, [f"a{i}" for i in range(raw.shape[1])])
        assert ops.values.min() >= -1 and ops.values.max() <= 1
        assert np.allclose(gs.denormalize(ops), raw, rtol=1e-9, atol=1e-9)

    # weighted-distance axioms at strictly positive weights
    for _ in range(200):
        w = rng.uniform(0.01, 5, size=4)
        x, y, z = rng.uniform(-1, 1, size=(3, 4))
        dxy = weighted_distance(x, y, w)
        assert dxy >= 0 and (dxy == 0) == bool(np.all(x == y))
        assert abs(dxy - weighted_distance(y, x, w)) < 1e-12
        assert dxy <= weighted_distance(x, z, w) + weighted_distance(z, y, w) + 1e-9

    # Lloyd monotone descent of the squared objective
    X = rng.uniform(-1, 1, size=(400, 5))
    w = rng.uniform(0.1, 2, size=5)
    model = kmeans(X, init_centroids_random(X, 9, rng), w)
    obj = np.array(model.objective_history)
    assert np.all(np.diff(obj) <= 1e-9 * obj[0])

    # g_best monotonicity under steps and mutation
    from gridscan.clustering import init_swarm, mutation_check, pso_step

    space = _WeightedSpace(year.values[:1000], year_weights)
    params = PsoParams(swarm_size=8, n_iter=12, seed=4)
    swarm_rng = np.random.default_rng(4)
    swarm = init_swarm(space, 12, params, swarm_rng)
    best = swarm.g_best_fitness
    for it in range(params.n_iter):
        pso_step(swarm, space, params, it, swarm_rng)
        mutation_check(swarm, space, params, swarm_rng)
        assert swarm.g_best_fitness <= best
        best = swarm.g_best_fitness

    # assignment-argmin audit and split/merge postconditions on a final model
    sub = year.values[:2000]
    final = gs.self_adaptive_pso_kmeans(
        sub, year_weights, PsoParams(swarm_size=8, n_iter=10, seed=7), AdaptiveParams()
    )
    assert final.converged and not final.empty_clusters
    sub_space = _WeightedSpace(sub, year_weights)
    dists = sub_space.exact_point_dists(final.centroids, final.assignment)
    assert dists.max() <= final.eps_d + 1e-12
    from scipy.spatial.distance import pdist

    assert pdist(final.centroids * sub_space.sqrt_w).min() >= final.eps_c
    for i in rng.choice(len(sub), size=200, replace=False):
        d_all = [weighted_distance(sub[i], c, year_weights) for c in final.centroids]
        assert d_all[final.assignment[i]] <= min(d_all) + 1e-9
    assert abs(final.smse - smse(final, sub)) < 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(9, f"normalization round-trip, distance axioms, Lloyd descent, g_best "
              f"monotonicity, argmin audit, split/merge postconditions all hold "
              f"({elapsed:.0f} s)")
