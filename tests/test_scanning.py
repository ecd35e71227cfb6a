import hashlib

import numpy as np
import pytest

import gridscan as gs
from gridscan.clustering import AdaptiveParams, PsoParams
from gridscan.oracles import StabilityOracle
from gridscan.relief import ReliefParams
from gridscan.scanning import ScanConfig


def small_year(seed=3, n=240, attrs=6):
    return gs.generate_synthetic_year(
        gs.SyntheticYearConfig(n_hours=n, n_attributes=attrs, seed=seed, n_informative=2)
    )


def small_config(seed=0, **adapt_kwargs):
    return ScanConfig(
        relief=ReliefParams(m=200, k=5, batch=30, window=2),
        pso=PsoParams(swarm_size=6, n_iter=10),
        adapt=AdaptiveParams(**adapt_kwargs) if adapt_kwargs else AdaptiveParams(),
        sample_size=50,
        seed=seed,
    )


# ── fast scan ────────────────────────────────────────────────────────────


def test_fast_scan_eval_budget_is_training_plus_centroids():
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.fast_scan(data, oracle, small_config())
    assert report.oracle_evaluations == report.training_size + report.k_final
    assert oracle.eval_count == report.oracle_evaluations


def test_fast_scan_counts_failed_selection_calls_of_any_oracle():
    # a plain function has no eval_count: failed selection calls still count
    data = small_year()
    base = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    bad_points = {data.values[i].tobytes() for i in range(0, data.n_points, 9)}
    calls = []

    def oracle(point):
        calls.append(1)
        if point.tobytes() in bad_points:
            raise RuntimeError("solver diverged")
        return base(point)

    report = gs.fast_scan(data, oracle, small_config())
    failed = report.feature_report.failed_hours
    assert failed
    assert report.oracle_evaluations == report.training_size + len(failed) + report.k_final
    assert report.oracle_evaluations == len(calls)


def test_fast_scan_nan_at_a_centroid_raises():
    # the solver returns NaN off the dataset's points, so at every centroid
    # that is no data point: no hour may inherit that NaN
    data = small_year()
    base = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    known = {p.tobytes() for p in data.values}

    class OffDataNan(StabilityOracle):
        def _evaluate(self, point):
            return base._evaluate(point) if point.tobytes() in known else float("nan")

    with pytest.raises(ValueError, match="oracle returned nan at point"):
        gs.fast_scan(data, OffDataNan(), small_config())


def test_readme_quick_start_outputs(default_scan):
    # the README quick start; a change that drifts the clustering's bits
    # usually moves one of these
    assert default_scan.k_final == 83
    assert default_scan.oracle_evaluations == 683
    assert round(default_scan.mape, 4) == 0.0180
    # the benchmark's results hash: every centroid and imputed index to
    # the bit, with numpy 2.4.6 and OpenBLAS 0.3.31
    digest = hashlib.sha256(default_scan.model.centroids.tobytes())
    digest.update(default_scan.lambda_hat.tobytes())
    assert digest.hexdigest()[:16] == "f0947f173706b9f6"


def test_fast_scan_lambda_hat_piecewise_constant():
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.fast_scan(data, oracle, small_config())
    for c in range(report.k_final):
        vals = report.lambda_hat[report.assignment == c]
        assert np.all(vals == vals[0])


def test_fast_scan_every_point_its_own_centroid_is_exact():
    # driving the split tolerance to zero forces one cluster per distinct
    # point, and then the imputed index equals the true one bitwise
    data = small_year(n=60)
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=11)
    config = small_config(eps_d=1e-12, eps_c=1e-13, max_outer=100)
    report = gs.fast_scan(data, oracle, config)
    assert report.k_final == data.n_points
    truth = np.array([oracle(x) for x in data.values])
    assert np.array_equal(report.lambda_hat, truth)
    assert report.reduction == 0.0


def test_fast_scan_single_cluster_constant_lambda_hat():
    data = small_year(n=120)
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=5)
    config = ScanConfig(
        relief=ReliefParams(m=200, k=5, batch=30, window=2),
        pso=PsoParams(swarm_size=4, n_iter=5),
        adapt=AdaptiveParams(k_init=1, eps_d=1e9, eps_c=1e8),
        sample_size=20,
        seed=1,
    )
    report = gs.fast_scan(data, oracle, config)
    assert report.k_final == 1
    assert np.all(report.lambda_hat == report.lambda_hat[0])
    assert report.lambda_hat[0] == oracle(report.model.centroids[0])


def test_fast_scan_flags_unconverged_selection():
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    config = ScanConfig(
        relief=ReliefParams(m=200, k=5, batch=30, rho_threshold=1.0, epsilon_f=0.0),
        pso=PsoParams(swarm_size=4, n_iter=5),
        sample_size=20,
        seed=0,
    )
    report = gs.fast_scan(data, oracle, config)
    assert not report.feature_selection_converged
    assert report.flagged
    assert report.k_final >= 1  # proceeded with the latest weights


def test_fast_scan_reuses_a_cached_model(tmp_path):
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    fresh = gs.fast_scan(data, oracle, small_config())
    model = gs.ClusterModel.load_json(fresh.model.save_json(tmp_path / "m.json"))
    model.elapsed_s = 12.5
    count = oracle.eval_count
    reused = gs.fast_scan(data, oracle, small_config(), cached_model=model)
    assert reused.model is model
    assert np.array_equal(reused.lambda_hat, fresh.lambda_hat)
    assert np.array_equal(reused.assignment, fresh.assignment)
    # selection still runs, so the oracle accounting is the fresh run's
    assert oracle.eval_count - count == reused.oracle_evaluations == fresh.oracle_evaluations
    assert reused.training_lambdas == fresh.training_lambdas
    assert reused.timing["clustering_s"] == 12.5
    compared = gs.compare_full_vs_fast(data, oracle, small_config(), cached_model=model)
    assert compared.timing["clustering_s"] == 12.5


def test_fast_scan_rejects_a_model_clustered_with_other_weights():
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    model = gs.fast_scan(data, oracle, small_config()).model
    model.weights = model.weights.copy()
    i = int(np.argmax(model.weights))
    model.weights[i] = np.nextafter(model.weights[i], np.inf)  # one ulp off
    with pytest.raises(ValueError, match="other distance weights"):
        gs.fast_scan(data, oracle, small_config(), cached_model=model)


def test_fast_scan_deterministic_given_seed():
    data = small_year()
    oracle_a = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    oracle_b = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    a = gs.fast_scan(data, oracle_a, small_config(seed=9))
    b = gs.fast_scan(data, oracle_b, small_config(seed=9))
    assert np.array_equal(a.lambda_hat, b.lambda_hat)
    assert np.array_equal(a.assignment, b.assignment)


# ── validation ───────────────────────────────────────────────────────────


def test_validate_exact_scan_has_zero_errors():
    data = small_year(n=60)
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=11)
    report = gs.fast_scan(data, oracle, small_config(eps_d=1e-12, eps_c=1e-13, max_outer=100))
    report = gs.validate(report, data, oracle, 30, seed=2)
    assert report.mape == 0.0
    assert report.max_ape == 0.0


def test_validate_full_coverage_and_ape_consistency():
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.fast_scan(data, oracle, small_config())
    report = gs.validate(report, data, oracle, data.n_points, seed=2)
    assert len(report.validation) == data.n_points
    hours = sorted(s.hour for s in report.validation)
    assert hours == sorted(int(h) for h in report.hours)
    for s in report.validation:
        if not s.absolute_fallback:
            assert abs(abs(s.lam - s.lam_hat) - s.ape * abs(s.lam)) < 1e-9


def test_validate_prefers_hours_outside_training():
    data = small_year(n=1000)
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.fast_scan(data, oracle, small_config())
    n_free = data.n_points - len(report.training_lambdas)
    assert n_free >= 40
    report = gs.validate(report, data, oracle, 40, seed=2)
    trained = set(report.training_lambdas)
    assert all(s.hour not in trained for s in report.validation)


def test_validate_near_zero_lambda_uses_absolute_error():
    # indices hugging zero (|lambda| < 1e-9 everywhere) switch every
    # sample to the flagged absolute-error fallback
    data = small_year(n=120)

    class Zeroish(StabilityOracle):
        kind = "zeroish"

        def _evaluate(self, point):
            return 1e-10 * float(point[0])

    oracle = Zeroish()
    report = gs.fast_scan(data, oracle, small_config())
    report = gs.validate(report, data, oracle, 20, seed=3)
    assert all(s.absolute_fallback for s in report.validation)
    assert report.max_ape < 1e-9


def test_validate_histogram_has_unit_bins():
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.fast_scan(data, oracle, small_config())
    report = gs.validate(report, data, oracle, 50, seed=4)
    assert len(report.histogram) >= 1
    for lo, hi, _count in report.histogram:
        assert hi - lo == 1.0
    assert sum(c for _, _, c in report.histogram) == 50
    top_edge = report.histogram[-1][1]
    assert report.max_ape * 100 <= top_edge


def test_validate_uses_full_trace_without_oracle_calls():
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.compare_full_vs_fast(data, oracle, small_config())
    count = oracle.eval_count
    report = gs.validate(report, data, oracle, 50, seed=5)
    assert oracle.eval_count == count
    assert report.mape is not None


def test_validate_skips_failed_hours_of_a_partial_full_trace():
    # 11 of 1500 hours fail in the full scan; their NaN must stay out of
    # the draw instead of reaching the APE histogram
    data = small_year(n=1500)
    base = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    bad_hours = set(range(5, data.n_points, 137))
    bad_points = {data.values[i].tobytes() for i in bad_hours}

    class Flaky(StabilityOracle):
        kind = "flaky"

        def _evaluate(self, point):
            if point.tobytes() in bad_points:
                raise RuntimeError("solver diverged")
            return base._evaluate(point)

    oracle = Flaky()
    report = gs.compare_full_vs_fast(data, oracle, small_config())
    assert np.isnan(report.lambda_full).sum() == len(bad_hours) == 11
    report = gs.validate(report, data, oracle, 500, seed=2)
    assert report.validation_excluded == 11
    assert len(report.validation) == 500
    assert not {s.hour for s in report.validation} & bad_hours
    assert np.isfinite(report.mape) and np.isfinite(report.max_ape)
    assert sum(c for _, _, c in report.histogram) == 500
    assert report.to_dict()["validation_excluded"] == 11
    with pytest.raises(ValueError, match="known index"):
        gs.validate(report, data, oracle, data.n_points, seed=2)


def test_compare_keeps_its_full_trace_with_the_failed_hours():
    data = small_year()
    base = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    bad_hours = (5, 100, 200)
    bad_points = {data.values[i].tobytes() for i in bad_hours}

    class Flaky(StabilityOracle):
        kind = "flaky"

        def _evaluate(self, point):
            return float("nan") if point.tobytes() in bad_points else base._evaluate(point)

    report = gs.compare_full_vs_fast(data, Flaky(), small_config())
    assert report.full_trace.failed_hours == bad_hours
    assert report.lambda_full is report.full_trace.lam
    assert report.timing["full_scan_s"] == report.full_trace.elapsed_s


# ── worst case ───────────────────────────────────────────────────────────


def test_worst_case_anticorrelated_demand():
    demand = np.linspace(10, 20, 100) + np.sin(np.arange(100))
    trace = gs.StabilityTrace(hours=np.arange(100), lam=-demand, kind="t")
    result = gs.worst_case_analysis(trace, demand)
    assert abs(result.pearson_r + 1.0) < 1e-12
    assert result.lambda_argmin_hour == result.demand_argmax_hour
    assert not result.shifted


def test_worst_case_independent_series_weak_correlation(rng):
    lam = rng.normal(size=4000)
    demand = rng.normal(size=4000)
    trace = gs.StabilityTrace(hours=np.arange(4000), lam=lam, kind="t")
    result = gs.worst_case_analysis(trace, demand)
    assert abs(result.pearson_r) < 0.1


def test_worst_case_interaction_oracle_shifts_minimum(year):
    # stability index with an interaction term whose minimum sits away
    # from the demand peak: the shift flag must fire
    load_cols = year.columns_of_kind(gs.AttributeKind.LOAD_P)
    demand = gs.denormalize(year)[:, load_cols].sum(axis=1)
    oracle = gs.DampingSurrogate(
        b0=5.0, linear={0: 0.9}, quadratic={(0, 2): -0.8}
    )
    trace = gs.full_scan(year, oracle)
    result = gs.worst_case_analysis(trace, demand)
    assert result.shifted


def test_worst_case_leaves_out_failed_hours(rng):
    lam = rng.normal(size=200)
    demand = -lam + 0.1 * rng.normal(size=200)
    failed = (3, 50, 121)
    holes = lam.copy()
    holes[list(failed)] = np.nan
    trace = gs.StabilityTrace(hours=np.arange(200), lam=holes, kind="t")
    result = gs.worst_case_analysis(trace, demand)
    keep = np.setdiff1d(np.arange(200), failed)
    subset = gs.worst_case_analysis(
        gs.StabilityTrace(hours=keep, lam=lam[keep], kind="t"), demand[keep]
    )
    assert result.excluded_hours == failed
    assert result.to_dict() == {**subset.to_dict(), "excluded_hours": list(failed)}
    assert "excluded_hours" not in subset.to_dict()
    assert np.isfinite(result.lambda_min) and result.pearson_r < -0.9


def test_worst_case_length_mismatch():
    trace = gs.StabilityTrace(hours=np.arange(5), lam=np.zeros(5), kind="t")
    with pytest.raises(ValueError):
        gs.worst_case_analysis(trace, np.zeros(4))


# ── comparison ───────────────────────────────────────────────────────────


def test_compare_reports_honest_speedup_without_delay():
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.compare_full_vs_fast(data, oracle, small_config())
    fast_total = sum(
        report.timing[k] for k in ("feature_selection_s", "clustering_s", "centroid_eval_s")
    )
    assert report.speedup == pytest.approx(report.timing["full_scan_s"] / fast_total)
    # with a free oracle the clustering overhead dominates: the ratio is
    # simply reported, however unflattering
    assert report.speedup < 5.0
    assert report.lambda_full is not None


def test_compare_speedup_with_injected_cost():
    data = small_year(n=400)
    oracle = gs.DampingSurrogate.from_seed(
        data.metadata["informative_indices"], seed=7, delay_ms=5.0
    )
    report = gs.compare_full_vs_fast(data, oracle, small_config())
    assert report.speedup > 1.0


def test_compare_degenerate_clustering_cannot_speed_up():
    # k_final = |R| makes the fast path cost training + |R| oracle calls
    # plus clustering: necessarily slower than the exhaustive sweep
    data = small_year(n=50)
    oracle = gs.DampingSurrogate.from_seed(
        data.metadata["informative_indices"], seed=7, delay_ms=2.0
    )
    config = small_config(eps_d=1e-12, eps_c=1e-13, max_outer=100)
    result = gs.compare_full_vs_fast(data, oracle, config)
    assert result.k_final == data.n_points
    assert result.speedup <= 1.0


def test_compare_accepts_cached_trace():
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    trace = gs.full_scan(data, oracle)
    count = oracle.eval_count
    report = gs.compare_full_vs_fast(data, oracle, small_config(), cached_full=trace)
    # the fast path still evaluates training + centroids, but no second
    # exhaustive sweep happens
    assert oracle.eval_count - count == report.oracle_evaluations
    assert np.array_equal(report.lambda_full, trace.lam)


def test_scan_report_serialization(tmp_path):
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.fast_scan(data, oracle, small_config())
    report = gs.validate(report, data, oracle, 40, seed=6)

    j = report.save_json(tmp_path / "r.json")
    t = report.save_trace_csv(tmp_path / "t.csv")
    h = report.save_histogram_csv(tmp_path / "h.csv")

    import json

    payload = json.loads(j.read_text())
    assert payload["k_final"] == report.k_final
    assert "timing" not in payload
    assert len(payload["lambda_hat"]) == data.n_points

    lines = t.read_text().strip().splitlines()
    assert lines[0] == "hour,lambda,lambda_hat"
    assert len(lines) == data.n_points + 1
    assert h.read_text().splitlines()[0] == "bin_low,bin_high,count"
