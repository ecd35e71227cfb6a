import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest

import gridscan as gs
from gridscan import relief
from gridscan.clustering import _pairwise_dists
from gridscan.oracles import StabilityOracle
from gridscan.relief import (
    DegeneratePredictionError,
    FeatureReport,
    ReliefParams,
    adjust_weights,
    attribute_diff,
    neighbor_influence,
    prediction_diff,
    rrelieff_pass,
)


def reference_pass(X, lam, k, sigma, sample_indices):
    """Literal loop transcription of the estimation pass, used as an
    independent oracle for the vectorized implementation."""
    n, n_attr = X.shape
    lam_min, lam_max = lam.min(), lam.max()
    span = lam_max - lam_min
    n_dc = 0.0
    n_da = np.zeros(n_attr)
    n_dca = np.zeros(n_attr)
    for i in sample_indices:
        d = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        nbrs = sorted(range(n), key=lambda j: (d[j], j))[:k]
        d1 = np.array([math.exp(-((r / sigma) ** 2)) for r in range(1, k + 1)])
        influence = d1 / d1.sum()
        for rank0, j in enumerate(nbrs):
            dp = abs(lam[i] - lam[j]) / span if span > 0 else 0.0
            w = influence[rank0]
            n_dc += dp * w
            for a in range(n_attr):
                da = abs(X[i, a] - X[j, a]) / 2.0
                n_da[a] += da * w
                n_dca[a] += dp * da * w
    m = len(sample_indices)
    return n_dca / n_dc - (n_da - n_dca) / (m - n_dc)


# ── diff and influence primitives ────────────────────────────────────────


def test_attribute_diff_examples():
    assert attribute_diff(np.array([0.3]), np.array([0.3]))[0] == 0.0
    assert attribute_diff(np.array([-1.0]), np.array([1.0]))[0] == 1.0
    assert attribute_diff(np.array([0.5]), np.array([-0.5]))[0] == 0.5


def test_prediction_diff_degenerate_range_is_zero():
    assert prediction_diff(3.0, 3.0, 3.0, 3.0) == 0.0
    assert np.all(prediction_diff(np.array([1.0, 2.0]), 1.5, 5.0, 5.0) == 0.0)


def test_neighbor_influence_single_neighbor_is_one():
    for sigma in (0.5, 2.0, 50.0):
        assert neighbor_influence(1, sigma)[0] == 1.0


def test_neighbor_influence_rank_equals_sigma():
    # before normalization the influence at rank == sigma is e^-1
    sigma = 3.0
    raw = math.exp(-((3.0 / sigma) ** 2))
    assert abs(raw - math.exp(-1)) < 1e-15
    inf = neighbor_influence(3, sigma)
    assert abs(inf[2] * sum(math.exp(-((r / sigma) ** 2)) for r in (1, 2, 3)) - raw) < 1e-12


def test_neighbor_influence_two_ranks_hand_evaluated():
    # ranks {1,2}, sigma=2: d1 = [e^-0.25, e^-1], normalized by their sum
    d1 = [math.exp(-0.25), math.exp(-1.0)]
    expected = [d1[0] / sum(d1), d1[1] / sum(d1)]
    got = neighbor_influence(2, 2.0)
    assert np.allclose(got, expected, atol=1e-12)
    assert abs(got[0] - 0.679179) < 1e-6
    assert abs(got[1] - 0.320821) < 1e-6
    assert abs(got.sum() - 1.0) < 1e-12


# ── single estimation pass ───────────────────────────────────────────────


def test_pass_constant_attribute_gets_zero_weight(rng):
    X = rng.uniform(-1, 1, size=(40, 3))
    X[:, 1] = 0.25
    lam = X[:, 0] + 0.1 * rng.normal(size=40)
    rep = rrelieff_pass(X, lam, ReliefParams(m=40, k=5), rng=rng)
    assert rep.weights[1] == 0.0


def test_pass_micro_case_matches_hand_execution():
    # 3 points in 1-D, one sampled instance, k=2, sigma=1; every quantity
    # is small enough to execute the algorithm by hand
    X = np.array([[-1.0], [0.0], [1.0]])
    lam = np.array([0.0, 0.5, 1.0])
    rep = rrelieff_pass(
        X, lam, ReliefParams(m=1, k=2, sigma=1.0), sample_indices=np.array([0])
    )
    d1 = np.array([math.exp(-1.0), math.exp(-4.0)])
    d = d1 / d1.sum()
    n_dc = 0.5 * d[0] + 1.0 * d[1]
    n_da = 0.5 * d[0] + 1.0 * d[1]
    n_dca = 0.25 * d[0] + 1.0 * d[1]
    expected = n_dca / n_dc - (n_da - n_dca) / (1.0 - n_dc)
    assert abs(rep.weights[0] - expected) < 1e-12
    assert abs(expected - 0.0452785) < 1e-6


def test_pass_matches_reference_loop(rng):
    X = rng.uniform(-1, 1, size=(30, 4))
    lam = X[:, 0] - 0.5 * X[:, 2] + 0.05 * rng.normal(size=30)
    sample = rng.integers(0, 30, size=12)
    rep = rrelieff_pass(X, lam, ReliefParams(m=12, k=4, sigma=2.0), sample_indices=sample)
    expected = reference_pass(X, lam, k=4, sigma=2.0, sample_indices=sample)
    assert np.allclose(rep.weights, expected, atol=1e-12)


def _self_masked_dists(X):
    D = _pairwise_dists(X, X)
    np.fill_diagonal(D, np.inf)
    return D


def _stable_nearest(D, k):
    """Reference neighbour lists: the first k columns of a stable row argsort,
    i.e. (distance, index) order."""
    return np.argsort(D, axis=1, kind="stable")[:, :k]


@pytest.mark.parametrize("m, explicit", [(200, False), (90, False), (40, True)])
def test_pass_given_neighbors_matches_computing_them(rng, m, explicit):
    # a full sweep, a sampled pass and explicit draws, each with and without
    # the training set's neighbour lists; the given lists are read only
    X = rng.uniform(-1, 1, size=(150, 6))
    lam = X[:, 1] + 0.3 * X[:, 4] ** 2
    params = ReliefParams(m=m, k=7)
    neighbors = _stable_nearest(_self_masked_dists(X), params.k)
    neighbors.flags.writeable = False
    sample = rng.choice(150, size=m, replace=False) if explicit else None
    got, want = [
        rrelieff_pass(X, lam, params, rng=np.random.default_rng(3), sample_indices=sample,
                      neighbors=given)
        for given in (neighbors, None)
    ]
    assert got.weights.tobytes() == want.weights.tobytes()
    with pytest.raises(ValueError, match="neighbors must have shape"):
        rrelieff_pass(X, lam, params, neighbors=neighbors[:100])


def _duplicated_year(n_hours, copies, seed):
    """A synthetic year whose hours repeat ``copies`` times in shuffled order."""
    base = gs.generate_synthetic_year(
        gs.SyntheticYearConfig(n_hours=n_hours // copies, n_attributes=6, seed=seed))
    rows = np.random.default_rng(seed).permutation(np.repeat(np.arange(base.n_points), copies))
    return dataclasses.replace(base, values=base.values[rows], timestamps=np.arange(len(rows)))


@pytest.mark.parametrize("batch", [1, 7, 30])
def test_grown_neighbor_lists_equal_a_search_of_the_whole_training_set(batch):
    # duplicated rows tie at the k-th distance, and the copies of a point
    # arrive in different batches
    k = 6
    X = _duplicated_year(100, 4, seed=2).values
    D = _self_masked_dists(X)
    kept = None
    for size in range(k + 1, len(X) + 1, batch):
        kept = relief._grow_neighbors(X[:size], kept, k)
        nbr, dist = kept
        assert np.array_equal(nbr, _stable_nearest(D[:size, :size], k))
        assert np.array_equal(nbr, relief._nearest(D[:size, :size], k))
        assert dist.tobytes() == np.take_along_axis(D[:size], nbr, axis=1).tobytes()


def test_pass_dominant_feature_ranked_first():
    # lambda follows a single attribute up to tiny noise: that attribute
    # must win rank 1 in at least 95% of seeds
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(300, 6))
        lam = X[:, 0] + 0.01 * rng.normal(size=300)
        rep = rrelieff_pass(X, lam, ReliefParams(m=200, k=10), rng=rng)
        hits += rep.ranks[0] == 1
    assert hits >= 95


def test_pass_degenerate_prediction_raises():
    X = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
    lam = np.full(20, 1.5)
    with pytest.raises(DegeneratePredictionError):
        rrelieff_pass(X, lam, ReliefParams(m=10, k=3), rng=np.random.default_rng(1))


def test_pass_needs_more_instances_than_k():
    X = np.zeros((5, 2))
    with pytest.raises(ValueError, match="more than k"):
        rrelieff_pass(X, np.arange(5.0), ReliefParams(m=5, k=5))


def test_pass_weights_bounded(rng):
    for _ in range(20):
        n = int(rng.integers(12, 60))
        a = int(rng.integers(1, 6))
        X = rng.uniform(-1, 1, size=(n, a))
        lam = rng.uniform(-5, 5, size=n)
        rep = rrelieff_pass(X, lam, ReliefParams(m=30, k=5), rng=rng)
        assert np.all(rep.weights >= -1.0 - 1e-12)
        assert np.all(rep.weights <= 1.0 + 1e-12)


def test_pass_invariant_to_instance_order(rng):
    X = rng.uniform(-1, 1, size=(25, 3))
    lam = X[:, 1] + 0.1 * rng.normal(size=25)
    sample = np.array([3, 17, 8, 8, 21])
    rep = rrelieff_pass(X, lam, ReliefParams(m=5, k=4), sample_indices=sample)

    perm = rng.permutation(25)
    inv = np.empty(25, dtype=int)
    inv[perm] = np.arange(25)
    rep_p = rrelieff_pass(
        X[perm], lam[perm], ReliefParams(m=5, k=4), sample_indices=inv[sample]
    )
    assert np.allclose(rep.weights, rep_p.weights, atol=1e-12)


def test_pass_duplicate_column_equal_weights(rng):
    X = rng.uniform(-1, 1, size=(40, 3))
    X = np.column_stack([X, X[:, 0]])
    lam = X[:, 0] - X[:, 2] + 0.05 * rng.normal(size=40)
    rep = rrelieff_pass(X, lam, ReliefParams(m=30, k=6), rng=rng)
    assert abs(rep.weights[0] - rep.weights[3]) < 1e-12


# ── weight adjustment ────────────────────────────────────────────────────


def _report(weights, variances):
    weights = np.asarray(weights, dtype=float)
    return gs.FeatureReport(
        names=tuple(f"a{i}" for i in range(len(weights))),
        weights=weights,
        adjusted_weights=weights.copy(),
        variances=np.asarray(variances, dtype=float),
    )


def test_adjust_direct_evaluation():
    rep = _report([0.5, 0.1], [1.0, 1.0])
    adj = adjust_weights(rep, C=1.0)
    assert abs(adj.adjusted_weights[0] - 0.5 / math.log(2)) < 1e-12
    assert abs(adj.adjusted_weights[0] - 0.7213475) < 1e-6


def test_adjust_zero_variance_gives_zero():
    adj = adjust_weights(_report([0.5, 0.2], [0.0, 1.0]), C=1.0)
    assert adj.adjusted_weights[0] == 0.0


def test_adjust_preserves_sign_and_zero():
    adj = adjust_weights(_report([0.4, -0.3, 0.0, 0.1], [1.0, 1.0, 1.0, 1.0]), C=2.0)
    assert adj.adjusted_weights[0] > 0
    assert adj.adjusted_weights[1] < 0
    assert adj.adjusted_weights[2] == 0.0


def test_adjust_rank_order_invariant_to_positive_scale():
    rep = _report([0.5, 0.3, 0.1, -0.2], [1.0, 0.5, 2.0, 1.0])
    orders = [
        np.argsort(adjust_weights(rep, C=c).adjusted_weights).tolist()
        for c in (0.1, 1.0, 57.0)
    ]
    assert orders[0] == orders[1] == orders[2]


def test_adjust_default_c_normalizes_top_weight():
    adj = adjust_weights(_report([0.5, 0.3, 0.1], [1.0, 1.0, 1.0]))
    assert abs(adj.adjusted_weights.max() - 1.0) < 1e-12


def test_adjust_can_reorder_features():
    # variance-weighted rescaling lets a lower-ranked feature overtake
    # higher-ranked ones, as in the reordering visible in departure
    # between initial and adjusted ranks
    weights = np.array([0.106, 0.098, 0.062, 0.054, 0.048, 0.047, 0.045, 0.041])
    variances = np.array([1.0, 0.6, 0.5, 0.4, 0.1, 0.1, 0.1, 0.65])
    rep = adjust_weights(_report(weights, variances))
    assert rep.ranks[7] == 8
    assert rep.adjusted_ranks[7] == 5


# ── adaptive training-set growth ─────────────────────────────────────────


def test_select_constant_oracle_propagates_degeneracy(year):
    class Flat(StabilityOracle):
        kind = "flat"

        def _evaluate(self, point):
            return 1.0

    with pytest.raises(DegeneratePredictionError):
        gs.select_features(year, Flat(), seed=0)


def test_select_monte_carlo_convergence_and_recovery():
    # synthetic year, stability index driven by the first three
    # attributes: selection should settle after a few hundred points and
    # put those attributes on top
    sizes = []
    recovered = 0
    converged = 0
    for seed in range(24):
        data = gs.generate_synthetic_year(gs.SyntheticYearConfig(seed=seed))
        oracle = gs.DampingSurrogate.from_seed(
            data.metadata["informative_indices"], seed=seed + 100
        )
        rep = gs.select_features(data, oracle, seed=seed)
        sizes.append(rep.training_size)
        converged += rep.converged
        recovered += set(np.argsort(rep.adjusted_ranks)[:3]) == {0, 1, 2}
    assert converged == 24
    assert np.median(sizes) <= 600
    assert sum(s <= 600 for s in sizes) >= 20
    assert recovered >= 22
    assert 150 <= np.median(sizes) <= 750


def test_select_skips_failing_hours(year):
    informative = year.metadata["informative_indices"]
    base = gs.DampingSurrogate.from_seed(informative, seed=101)

    class Flaky(StabilityOracle):
        kind = "flaky"

        def _evaluate(self, point):
            if point[5] > 0.8:
                raise RuntimeError("solver diverged")
            return base._evaluate(point)

    rep = gs.select_features(year, Flaky(), seed=0)
    assert len(rep.failed_hours) > 0
    assert rep.converged


def test_select_treats_a_nan_return_like_a_raise():
    # a solver may report failure by returning NaN instead of raising;
    # selection must skip those hours either way, with the same outcome
    data = gs.generate_synthetic_year(gs.SyntheticYearConfig(n_hours=600, n_attributes=6, seed=3))
    base = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=101)
    bad_points = {data.values[i].tobytes() for i in range(11, 600, 83)}

    class Raising(StabilityOracle):
        def _evaluate(self, point):
            if point.tobytes() in bad_points:
                raise RuntimeError("solver diverged")
            return base._evaluate(point)

    class NanReturning(StabilityOracle):
        def _evaluate(self, point):
            return math.nan if point.tobytes() in bad_points else base._evaluate(point)

    raised, nan = [gs.select_features(data, oracle, seed=0)
                   for oracle in (Raising(), NanReturning())]
    assert raised.failed_hours
    assert nan.failed_hours == raised.failed_hours
    assert nan.training_size == raised.training_size < data.n_points
    assert nan.converged == raised.converged
    assert np.isfinite(nan.weights).all()
    for name in ("weights", "ranks", "adjusted_weights", "adjusted_ranks", "variances"):
        assert getattr(nan, name).tobytes() == getattr(raised, name).tobytes()
    assert list(nan.training_lambdas.items()) == list(raised.training_lambdas.items())


def test_select_threaded_matches_sequential(year, monkeypatch):
    # each batch is one evaluate_many sweep: two workers must give the
    # sequential run's report and training values, failures included
    base = gs.DampingSurrogate.from_seed(year.metadata["informative_indices"], seed=101)
    bad_hours = set(range(0, year.n_points, 13))
    bad_points = {year.values[i].tobytes() for i in bad_hours}

    class Flaky(StabilityOracle):
        kind = "flaky"

        def __init__(self):
            super().__init__()
            self.threads = set()

        def _evaluate(self, point):
            self.threads.add(threading.get_ident())
            if point.tobytes() in bad_points:
                raise RuntimeError("solver diverged")
            return base._evaluate(point)

    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("GRIDSCAN_THREADS", threads)
        oracle = Flaky()
        rep = gs.select_features(year, oracle, seed=0)
        assert oracle.eval_count == rep.training_size + len(rep.failed_hours)
        runs.append((rep, oracle.threads))
    (seq, seq_threads), (par, par_threads) = runs
    main = threading.main_thread().ident
    assert seq_threads == {main}
    assert main not in par_threads
    assert seq.failed_hours and set(seq.failed_hours) <= bad_hours
    assert par.failed_hours == seq.failed_hours
    assert par.training_size == seq.training_size
    assert par.converged == seq.converged
    for name in ("weights", "ranks", "adjusted_weights", "adjusted_ranks", "variances"):
        assert getattr(par, name).tobytes() == getattr(seq, name).tobytes()
    assert list(par.training_lambdas.items()) == list(seq.training_lambdas.items())


def test_select_gives_up_on_tiny_dataset():
    data = gs.generate_synthetic_year(
        gs.SyntheticYearConfig(n_hours=60, n_attributes=4, seed=2)
    )
    oracle = gs.DampingSurrogate.from_seed([0, 1], seed=5)
    rep = gs.select_features(
        data, oracle, ReliefParams(rho_threshold=1.0, epsilon_f=0.0), seed=0
    )
    assert not rep.converged
    assert rep.training_size == 60


def test_report_serialization(tmp_path, year, year_oracle):
    rep = gs.select_features(year, year_oracle, seed=0)
    j = rep.save_json(tmp_path / "rep.json")
    c = rep.save_csv(tmp_path / "rep.csv")
    lines = c.read_text().strip().splitlines()
    assert lines[0] == "feature,initial_weight,initial_rank,adjusted_weight,adjusted_rank"
    assert len(lines) == year.n_attributes + 1
    # CSV is sorted by adjusted rank
    first = lines[1].split(",")
    assert int(first[4]) == 1
    import json

    payload = json.loads(j.read_text())
    assert payload["training_size"] == rep.training_size
    ranks = sorted(row["rank"] for row in payload["attributes"])
    assert ranks == list(range(1, year.n_attributes + 1))


# ── distances kept from pass to pass ─────────────────────────────────────


def _select_twice(monkeypatch, data, oracle, params=ReliefParams()):
    """select_features as it runs, and with every pass computing its own
    distances and neighbour lists; whether each kept pass was given lists
    is recorded, and every given list is checked against a search of the
    whole training set."""
    original = relief.rrelieff_pass
    given = []

    def recording(X, lam, params, neighbors=None, **kwargs):
        given.append(neighbors is not None)
        if neighbors is not None:
            assert np.array_equal(neighbors, _stable_nearest(_self_masked_dists(X), params.k))
        return original(X, lam, params, neighbors=neighbors, **kwargs)

    def recomputing(*args, neighbors=None, **kwargs):
        return original(*args, **kwargs)

    runs = []
    for stand_in in (recording, recomputing):
        monkeypatch.setattr(relief, "rrelieff_pass", stand_in)
        runs.append(gs.select_features(data, oracle, params, seed=0))
    cached, reference = runs
    for field in dataclasses.fields(FeatureReport):
        got, want = getattr(cached, field.name), getattr(reference, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name
    assert list(cached.training_lambdas.items()) == list(reference.training_lambdas.items())
    return cached, given


def test_select_with_kept_distances_matches_recomputing_on_a_full_sweep(year, year_oracle,
                                                                        monkeypatch):
    rep, given = _select_twice(monkeypatch, year, year_oracle)
    assert rep.converged and rep.training_size <= ReliefParams().m
    assert all(given)


def test_select_with_kept_distances_matches_recomputing_past_m(year, year_oracle, monkeypatch):
    rep, given = _select_twice(monkeypatch, year, year_oracle, ReliefParams(m=100))
    assert rep.training_size > 100
    # full sweeps read the kept distances; sampled passes past m compute their own
    assert given[0] and not any(given[1:])


def test_select_with_kept_distances_matches_recomputing_with_failed_hours(monkeypatch):
    data = gs.generate_synthetic_year(gs.SyntheticYearConfig(n_hours=900, n_attributes=8, seed=4))
    base = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=101)
    bad_points = {data.values[i].tobytes() for i in range(3, 900, 7)}

    class NanReturning(StabilityOracle):
        def _evaluate(self, point):
            return math.nan if point.tobytes() in bad_points else base._evaluate(point)

    rep, given = _select_twice(monkeypatch, data, NanReturning())
    assert rep.failed_hours and all(given)


def test_select_with_kept_distances_matches_recomputing_without_convergence(monkeypatch):
    data = gs.generate_synthetic_year(gs.SyntheticYearConfig(n_hours=400, n_attributes=6, seed=2))
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=5)
    params = ReliefParams(rho_threshold=1.0, epsilon_f=0.0)
    rep, given = _select_twice(monkeypatch, data, oracle, params)
    assert not rep.converged and rep.training_size == data.n_points
    assert all(given)


@pytest.mark.parametrize("params", [ReliefParams(rho_threshold=1.0, epsilon_f=0.0),
                                    ReliefParams(m=200, rho_threshold=1.0, epsilon_f=0.0)],
                         ids=["full-sweeps", "past-m"])
def test_select_with_kept_neighbors_matches_recomputing_with_duplicated_hours(monkeypatch,
                                                                              params):
    # each hour appears 3 times, so neighbour distances tie at the k-th place
    # and the copies of an hour arrive in different batches
    data = _duplicated_year(540, 3, seed=5)
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    D = _self_masked_dists(data.values)
    assert (np.sort(D, axis=1)[:, params.k - 1] == np.sort(D, axis=1)[:, params.k]).any()
    rep, given = _select_twice(monkeypatch, data, oracle, params)
    assert rep.training_size == data.n_points
    sizes = [min(params.batch * (i + 1), data.n_points) for i in range(len(given))]
    assert given == [size <= params.m for size in sizes]


def test_select_with_kept_neighbors_matches_recomputing_with_duplicated_and_failed_hours(
        monkeypatch):
    data = _duplicated_year(600, 2, seed=6)
    base = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=9)
    bad_points = {data.values[i].tobytes() for i in range(5, 600, 11)}

    class NanReturning(StabilityOracle):
        def _evaluate(self, point):
            return math.nan if point.tobytes() in bad_points else base._evaluate(point)

    rep, given = _select_twice(monkeypatch, data, NanReturning(),
                               ReliefParams(rho_threshold=1.0, epsilon_f=0.0))
    assert rep.failed_hours and all(given)


def test_select_memory_stays_at_the_scale_of_m_times_n():
    # a selection that never converges consumes all 3000 points; the kept
    # neighbour lists stop at m rows, so the peak is a few m x n passes, far
    # below one n x n matrix (72 MB)
    n, m = 3000, 200
    data = gs.generate_synthetic_year(gs.SyntheticYearConfig(n_hours=n, seed=6))
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=8)
    params = ReliefParams(m=m, rho_threshold=1.0, epsilon_f=0.0)
    tracemalloc.start()
    try:
        rep = gs.select_features(data, oracle, params, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rep.converged and rep.training_size == n
    assert peak < 4 * m * n * 8
