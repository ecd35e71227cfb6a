import math
import threading

import numpy as np
import pytest

import gridscan as gs
from gridscan.oracles import StabilityOracle
from gridscan.relief import (
    DegeneratePredictionError,
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
    from scipy.stats import rankdata

    weights = np.asarray(weights, dtype=float)
    return gs.FeatureReport(
        names=tuple(f"a{i}" for i in range(len(weights))),
        weights=weights,
        ranks=rankdata(-weights, method="ordinal").astype(int),
        adjusted_weights=weights.copy(),
        adjusted_ranks=rankdata(-weights, method="ordinal").astype(int),
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

    (raised, raised_cache), (nan, nan_cache) = [
        (gs.select_features(data, oracle, seed=0, cache=cache), cache)
        for oracle, cache in ((Raising(), {}), (NanReturning(), {}))
    ]
    assert raised.failed_hours
    assert nan.failed_hours == raised.failed_hours
    assert nan.training_size == raised.training_size < data.n_points
    assert nan.converged == raised.converged
    assert np.isfinite(nan.weights).all()
    for name in ("weights", "ranks", "adjusted_weights", "adjusted_ranks", "variances"):
        assert getattr(nan, name).tobytes() == getattr(raised, name).tobytes()
    assert list(nan_cache.items()) == list(raised_cache.items())


def test_select_threaded_matches_sequential(year, monkeypatch):
    # each batch is one evaluate_many sweep: two workers must give the
    # sequential run's report and cache, failures included
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
        oracle, cache = Flaky(), {}
        rep = gs.select_features(year, oracle, seed=0, cache=cache)
        assert oracle.eval_count == rep.training_size + len(rep.failed_hours)
        runs.append((rep, list(cache.items()), oracle.threads))
    (seq, seq_cache, seq_threads), (par, par_cache, par_threads) = runs
    main = threading.main_thread().ident
    assert seq_threads == {main}
    assert main not in par_threads
    assert seq.failed_hours and set(seq.failed_hours) <= bad_hours
    assert par.failed_hours == seq.failed_hours
    assert par.training_size == seq.training_size
    assert par.converged == seq.converged
    for name in ("weights", "ranks", "adjusted_weights", "adjusted_ranks", "variances"):
        assert getattr(par, name).tobytes() == getattr(seq, name).tobytes()
    assert par_cache == seq_cache


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
