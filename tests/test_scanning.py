import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

import gridscan as gs
from gridscan.clustering import AdaptiveParams, PsoParams
from gridscan.oracles import THREADS_ENV, StabilityOracle
from gridscan import scanning
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


def assert_quick_start_outputs(report, k_final, calls, mape, results_hash):
    assert report.k_final == k_final
    assert report.oracle_evaluations == calls
    assert round(report.mape, 4) == mape
    # the benchmark's results hash: every centroid and imputed index to
    # the bit, with numpy 2.4.6 and OpenBLAS 0.3.31
    digest = hashlib.sha256(report.model.centroids.tobytes())
    digest.update(report.lambda_hat.tobytes())
    assert digest.hexdigest()[:16] == results_hash


def test_readme_quick_start_outputs(default_scan):
    # the README quick start; a change that drifts the clustering's bits
    # usually moves one of these
    assert_quick_start_outputs(default_scan, 83, 683, 0.0166, "0dcdab470d082359")


def test_quick_start_outputs_at_the_old_swarm_budget(year, year_oracle):
    # a 20 x 50 swarm set through the config keeps its outputs to the bit:
    # the default budget moved, the swarm did not
    config = ScanConfig(pso=PsoParams(swarm_size=20, n_iter=50))
    report = gs.validate(gs.fast_scan(year, year_oracle, config), year, year_oracle, 500, seed=7)
    assert_quick_start_outputs(report, 83, 683, 0.0180, "f0947f173706b9f6")


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
    assert not report.feature_report.converged
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
    compared = gs.compare_full_vs_fast(data, oracle, small_config(), fast=reused)
    assert compared.timing["clustering_s"] == 12.5


def test_the_selection_values_travel_on_the_feature_report():
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.fast_scan(data, oracle, small_config())
    assert report.training_lambdas is report.feature_report.training_lambdas
    assert len(report.training_lambdas) == report.training_size
    # each is the oracle's value at its hour
    for hour, lam in report.training_lambdas.items():
        assert lam == oracle(data.values[np.flatnonzero(data.timestamps == hour)[0]])
    # not serialized: the feature report keeps its bytes
    assert "training_lambdas" not in report.feature_report.to_dict()


def test_fast_scan_rejects_a_model_clustered_with_other_weights():
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    fresh = gs.fast_scan(data, oracle, small_config())
    model = replace(fresh.model, weights=fresh.model.weights.copy(), elapsed_s=12.5)
    i = int(np.argmax(model.weights))
    model.weights[i] = np.nextafter(model.weights[i], np.inf)  # one ulp off
    # a model of other weights is no cache: the scan clusters as a fresh one
    rejected = gs.fast_scan(data, oracle, small_config(), cached_model=model)
    assert rejected.model is not model
    assert rejected.model.to_dict() == fresh.model.to_dict()
    assert rejected.timing["clustering_s"] != 12.5
    assert np.array_equal(rejected.lambda_hat, fresh.lambda_hat)


def _stored_scan(report, tmp_path):
    """``report`` read back as the CLI keeps it: its payload and its model's JSON."""
    model = gs.ClusterModel.load_json(report.model.save_json(tmp_path / "m.json"))
    model.elapsed_s = report.model.elapsed_s
    return gs.ScanReport.from_dict(report.to_dict(), model, report.timing)


def test_a_scan_report_rebuilds_from_its_payload_and_model(tmp_path):
    data = small_year(n=400)  # the selection leaves hours for validation to pay for
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    fresh = gs.fast_scan(data, oracle, small_config())
    assert _stored_scan(fresh, tmp_path).to_dict() == fresh.to_dict()
    validated = gs.validate(fresh, data, oracle, 50)
    back = _stored_scan(validated, tmp_path)
    assert back.to_dict() == validated.to_dict()
    assert back.validation_rows.tobytes() == validated.validation_rows.tobytes()
    assert back.validation_lam.tobytes() == validated.validation_lam.tobytes()
    assert back.histogram == validated.histogram
    assert back.timing == fresh.timing
    assert back.feature_report.to_dict() == fresh.feature_report.to_dict()
    assert back.training_lambdas == fresh.training_lambdas
    for name in ("hours", "lambda_hat", "assignment"):
        assert getattr(back, name).tobytes() == getattr(fresh, name).tobytes(), name
    # the stored validation holds every sampled hour: validating again
    # gives its bits and makes no call
    count = oracle.eval_count
    assert gs.validate(back, data, oracle, 50).to_dict() == validated.to_dict()
    assert oracle.eval_count == count
    # a model that is not the payload's clustering is refused
    payload = fresh.to_dict()
    other = replace(fresh.model, assignment=fresh.model.assignment[::-1].copy())
    with pytest.raises(ValueError, match="not clustered as its model"):
        gs.ScanReport.from_dict(payload, other, fresh.timing)
    heavier = replace(fresh.model, weights=2 * fresh.model.weights)
    with pytest.raises(ValueError, match="not clustered as its model"):
        gs.ScanReport.from_dict(payload, heavier, fresh.timing)
    # every hour drawn under a known trace that is zero at one unpaid hour
    # (the absolute-error fallback) and failed at another (left out): the
    # derived per-sample fields and statistics come back byte for byte
    unpaid = [h for h in data.timestamps.tolist() if h not in fresh.training_lambdas]
    truth = gs.full_scan(data, oracle)
    lam = truth.lam.copy()
    lam[unpaid[0]], lam[unpaid[1]] = 0.0, np.nan
    known = gs.StabilityTrace(hours=data.timestamps, lam=lam, kind=truth.kind)
    validated = gs.validate(fresh, data, oracle, data.n_points, known=known)
    payload = validated.to_dict()
    assert payload["validation_excluded"] == [unpaid[1]]
    assert [s["hour"] for s in payload["validation"] if s["absolute_fallback"]] == [unpaid[0]]
    text = json.dumps(payload, indent=2)
    assert json.dumps(_stored_scan(validated, tmp_path).to_dict(), indent=2) == text


def test_a_selection_with_no_positive_adjusted_weight_clusters_on_uniform_weights(
        tmp_path, monkeypatch):
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    select = scanning.select_features

    def non_positive(*args, **kwargs):
        report = select(*args, **kwargs)
        return replace(report, adjusted_weights=-np.abs(report.adjusted_weights))

    monkeypatch.setattr(scanning, "select_features", non_positive)
    report = gs.fast_scan(data, oracle, small_config())
    uniform = np.ones(data.n_attributes).tobytes()
    freport = report.feature_report
    assert freport.uniform_fallback
    assert freport.distance_weights().tobytes() == uniform
    assert report.model.weights.tobytes() == uniform
    payload = report.to_dict()
    assert payload["weights_fallback_uniform"] is True
    assert _stored_scan(report, tmp_path).to_dict() == payload
    # one positive weight keeps the clamped weights
    mixed = replace(freport, adjusted_weights=np.r_[0.5, freport.adjusted_weights[1:]])
    assert not mixed.uniform_fallback
    assert np.array_equal(mixed.distance_weights(), np.r_[0.5, np.zeros(data.n_attributes - 1)])


def test_compare_with_a_cached_scan_makes_no_selection_or_centroid_call(tmp_path):
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    fresh = gs.compare_full_vs_fast(data, oracle, small_config())
    stored = _stored_scan(gs.fast_scan(data, oracle, small_config()), tmp_path)
    count = oracle.eval_count
    reused = gs.compare_full_vs_fast(data, oracle, small_config(), fast=stored)
    # only the hours the selection does not hold are swept
    assert oracle.eval_count - count == data.n_points - len(stored.training_lambdas)
    assert reused.to_dict() == fresh.to_dict()
    assert reused.timing["clustering_s"] == stored.timing["clustering_s"]
    count = oracle.eval_count
    gs.compare_full_vs_fast(data, oracle, small_config(), cached_full=reused.full_trace,
                            fast=stored)
    assert oracle.eval_count == count


def test_compare_sweeps_no_hour_a_validated_scan_holds(tmp_path):
    data = small_year(n=400)
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    fresh = gs.compare_full_vs_fast(data, oracle, small_config())
    scan = gs.validate(gs.fast_scan(data, oracle, small_config()), data, oracle, 50)
    stored = _stored_scan(scan, tmp_path)
    count = oracle.eval_count
    reused = gs.compare_full_vs_fast(data, oracle, small_config(), fast=stored)
    # neither the training hours nor the 50 sampled ones are swept again
    assert stored.training_size < data.n_points - 50
    assert oracle.eval_count - count == data.n_points - stored.training_size - 50
    assert reused.lambda_full.tobytes() == fresh.lambda_full.tobytes()


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
    assert len(report.validation_rows) == data.n_points
    hours = sorted(report.hours[report.validation_rows].tolist())
    assert hours == sorted(int(h) for h in report.hours)
    lam, lam_hat = report.validation_lam, report.lambda_hat[report.validation_rows]
    relative = ~report.absolute_fallback
    assert relative.any()
    err = np.abs(lam - lam_hat)[relative] - report.ape[relative] * np.abs(lam[relative])
    assert np.all(np.abs(err) < 1e-9)


def test_validate_prefers_hours_outside_training():
    data = small_year(n=1000)
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.fast_scan(data, oracle, small_config())
    n_free = data.n_points - len(report.training_lambdas)
    assert n_free >= 40
    report = gs.validate(report, data, oracle, 40, seed=2)
    trained = set(report.training_lambdas)
    assert all(h not in trained for h in report.hours[report.validation_rows].tolist())


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
    assert report.absolute_fallback.all()
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


def _years_with_and_without_unpaid_hours():
    """The 240-hour small year, where feature selection pays for every hour,
    and a 400-hour one, where it leaves most hours to the other stages."""
    return small_year(), small_year(n=400)


def _check_unpaid_hours(report, data):
    """Selection called the oracle at every hour of the 240-hour year and
    not of the other."""
    drawn = report.training_size + len(report.feature_report.failed_hours)
    assert (drawn == data.n_points) == (data.n_points == 240), data.n_points


def test_validate_uses_full_trace_without_oracle_calls():
    for data in _years_with_and_without_unpaid_hours():
        oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
        report = gs.compare_full_vs_fast(data, oracle, small_config())
        _check_unpaid_hours(report, data)
        count = oracle.eval_count
        report = gs.validate(report, data, oracle, 50, seed=5)
        assert oracle.eval_count == count
        assert report.mape is not None
        unpaid = set(report.hours[report.validation_rows].tolist()) - set(report.training_lambdas)
        assert bool(unpaid) == (data.n_points == 400)


@pytest.mark.parametrize("failure", ["raises", "returns-nan"])
def test_validate_leaves_out_the_failed_sampled_hours_whatever_holds_the_values(failure):
    # 11 of 1500 hours fail.  The report's trace, a known trace and fresh
    # calls give one draw and one sample: its failed hours are left out
    # and counted, and a trace spares every validation call
    data = small_year(n=1500)
    base = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    bad_hours = set(range(5, data.n_points, 137))
    bad_points = {data.values[i].tobytes() for i in bad_hours}

    class Flaky(StabilityOracle):
        kind = "flaky"

        def _evaluate(self, point):
            if point.tobytes() not in bad_points:
                return base._evaluate(point)
            if failure == "raises":
                raise RuntimeError("solver diverged")
            return float("nan")

    oracle = Flaky()
    fresh = gs.fast_scan(data, oracle, small_config())
    compared = gs.compare_full_vs_fast(data, oracle, small_config())
    assert set(compared.full_trace.failed_hours) == bad_hours
    drawn = gs.validate(fresh, data, base, 500, seed=2)
    drawn_hours = drawn.hours[drawn.validation_rows]
    left_out = set(drawn_hours.tolist()) & bad_hours
    assert left_out
    kept = ~np.isin(drawn_hours, list(bad_hours))
    blocks = []
    for report, known in ((fresh, None), (fresh, compared.full_trace), (compared, None)):
        count = oracle.eval_count
        checked = gs.validate(report, data, oracle, 500, seed=2, known=known)
        assert (oracle.eval_count == count) == (known is not None or report is compared)
        assert checked.validation_rows.tobytes() == drawn.validation_rows[kept].tobytes()
        assert checked.validation_lam.tobytes() == drawn.validation_lam[kept].tobytes()
        assert checked.ape.tobytes() == drawn.ape[kept].tobytes()
        assert checked.to_dict()["validation_excluded"] == sorted(left_out)
        assert sum(c for _, _, c in checked.histogram) == 500 - len(left_out)
        blocks.append((checked.validation_rows.tobytes(), checked.validation_lam.tobytes(),
                       checked.mape, checked.max_ape, checked.histogram,
                       checked.validation_excluded))
    assert blocks[0] == blocks[1] == blocks[2]


def test_validate_reads_a_known_trace_before_calling_the_oracle():
    # a run directory's full trace spares every validation call; the draw
    # and every reported value stay what the oracle would have given
    data = small_year(n=1000)
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.fast_scan(data, oracle, small_config())
    assert report.training_size < data.n_points - 50
    trace = gs.full_scan(data, oracle)
    fresh = gs.validate(report, data, oracle, 50, seed=5)
    count = oracle.eval_count
    reused = gs.validate(report, data, oracle, 50, seed=5, known=trace)
    assert oracle.eval_count == count
    assert reused.to_dict() == fresh.to_dict()


def test_validate_raises_without_a_sampled_value_or_a_sample_or_a_trace_of_these_hours():
    data = small_year(n=400)
    base = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.fast_scan(data, base, small_config())
    holes = gs.StabilityTrace(hours=data.timestamps, lam=np.full(data.n_points, np.nan),
                              kind="t")

    class Failing(StabilityOracle):
        def _evaluate(self, point):
            raise RuntimeError("solver diverged")

    traced = replace(report, full_trace=holes)
    for scanned, known in ((report, None), (report, holes), (traced, None)):
        with pytest.raises(ValueError, match="failed at every sampled hour"):
            gs.validate(scanned, data, Failing(), 20, seed=5, known=known)
    for size in (0, data.n_points + 1):
        with pytest.raises(ValueError, match=rf"sample_size must lie in 1\.\.{data.n_points}"):
            gs.validate(report, data, base, size)
    with pytest.raises(ValueError, match="covers other hours than the dataset"):
        gs.validate(report, data, base, 50, known=gs.StabilityTrace(
            hours=np.arange(data.n_points + 1), lam=np.zeros(data.n_points + 1), kind="t"))


def test_compare_keeps_its_full_trace_with_the_failed_hours():
    for data in _years_with_and_without_unpaid_hours():
        base = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
        bad_hours = (5, 100, 200)
        bad_points = {data.values[i].tobytes() for i in bad_hours}

        class Flaky(StabilityOracle):
            kind = "flaky"

            def _evaluate(self, point):
                return float("nan") if point.tobytes() in bad_points else base._evaluate(point)

        report = gs.compare_full_vs_fast(data, Flaky(), small_config())
        _check_unpaid_hours(report, data)
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
    for data in _years_with_and_without_unpaid_hours():
        oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
        report = gs.compare_full_vs_fast(data, oracle, small_config())
        _check_unpaid_hours(report, data)
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
    for data in _years_with_and_without_unpaid_hours():
        oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
        trace = gs.full_scan(data, oracle)
        count = oracle.eval_count
        report = gs.compare_full_vs_fast(data, oracle, small_config(), cached_full=trace)
        _check_unpaid_hours(report, data)
        # the fast path still evaluates training + centroids, but no second
        # exhaustive sweep happens
        assert oracle.eval_count - count == report.oracle_evaluations
        assert np.array_equal(report.lambda_full, trace.lam)


def test_compare_pays_for_each_hour_once():
    # a fresh compare sweeps only the hours the selection holds no value
    # for: the ones it never drew and the ones where its call failed
    data = small_year(n=400)
    base = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    bad_rows = tuple(range(0, data.n_points, 9))
    bad = {data.values[i].tobytes() for i in bad_rows}
    calls = []

    def oracle(point):
        calls.append(1)
        return float("nan") if point.tobytes() in bad else base(point)

    report = gs.compare_full_vs_fast(data, oracle, small_config())
    failed = report.feature_report.failed_hours
    assert failed and report.training_size + len(failed) < data.n_points
    assert len(calls) == data.n_points + report.k_final + len(failed)
    assert report.full_trace.failed_hours == bad_rows
    assert report.timing["full_scan_s"] == report.full_trace.elapsed_s
    t = report.timing
    assert report.speedup == t["full_scan_s"] / (
        t["feature_selection_s"] + t["clustering_s"] + t["centroid_eval_s"])


def test_compare_trace_and_artifacts_equal_an_independent_full_scan(tmp_path):
    data = small_year(n=400)
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.validate(gs.compare_full_vs_fast(data, oracle, small_config()),
                         data, oracle, 50, seed=5)
    assert report.training_size < data.n_points
    independent = replace(report, full_trace=gs.full_scan(data, oracle))
    assert report.lambda_full.tobytes() == independent.lambda_full.tobytes()
    assert report.to_dict() == independent.to_dict()
    a = report.save_trace_csv(tmp_path / "a.csv")
    b = independent.save_trace_csv(tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_compare_charges_each_reused_hour_at_the_sweeps_mean_time(monkeypatch):
    # every call sleeps 5 ms, so a sequential sweep of every hour takes at
    # least n x 5 ms; the extrapolated time must not undercut that
    monkeypatch.setenv(THREADS_ENV, "1")
    data = small_year(n=400)
    oracle = gs.DampingSurrogate.from_seed(
        data.metadata["informative_indices"], seed=7, delay_ms=5.0
    )
    report = gs.compare_full_vs_fast(data, oracle, small_config())
    assert 0 < report.training_size < data.n_points
    assert report.timing["full_scan_s"] >= data.n_points * 0.005


def test_compare_resumes_a_partial_trace_at_the_hours_nobody_holds():
    data = small_year(n=400)
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    trained = set(gs.fast_scan(data, oracle, small_config()).training_lambdas)
    full = gs.full_scan(data, oracle)
    holes = list(range(0, data.n_points, 7))
    missing = [h for h in holes if h not in trained]
    assert missing and len(missing) < len(holes)
    cached = gs.StabilityTrace(hours=full.hours, lam=full.lam.copy(), kind="t", elapsed_s=3.0)
    cached.lam[holes] = np.nan
    count = oracle.eval_count
    report = gs.compare_full_vs_fast(data, oracle, small_config(), cached_full=cached)
    assert oracle.eval_count - count == report.oracle_evaluations + len(missing)
    assert report.lambda_full.tobytes() == full.lam.tobytes()
    assert report.timing["full_scan_s"] == report.full_trace.elapsed_s > 3.0


def test_compare_charges_the_selection_time_when_it_holds_every_hour():
    data = small_year(n=50)
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    config = small_config(eps_d=1e-12, eps_c=1e-13, max_outer=100)
    result = gs.compare_full_vs_fast(data, oracle, config)
    assert len(result.training_lambdas) == data.n_points
    assert oracle.eval_count == data.n_points + result.k_final
    assert result.timing["full_scan_s"] == result.timing["feature_selection_s"]
    assert result.full_trace.elapsed_s == result.timing["full_scan_s"]
    assert result.speedup <= 1.0


@pytest.mark.parametrize("hours", [np.arange(300), np.arange(240) + 1],
                         ids=["more-hours", "shifted-hours"])
def test_compare_rejects_a_cached_trace_of_other_hours(hours):
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    cached = gs.StabilityTrace(hours=hours, lam=np.ones(len(hours)), kind="t", elapsed_s=1.0)
    with pytest.raises(ValueError, match="covers other hours than the dataset"):
        gs.compare_full_vs_fast(data, oracle, small_config(), cached_full=cached)
    assert oracle.eval_count == 0


def test_the_trace_csv_holds_the_values_the_run_paid_for(tmp_path):
    # a fast scan's lambda column is blank at the hours nothing paid for;
    # a compared one holds every hour, "nan" where the oracle failed
    data = small_year(n=400)
    base = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    bad_points = {data.values[i].tobytes() for i in range(0, data.n_points, 9)}

    class Failing(StabilityOracle):
        def _evaluate(self, point):
            return np.nan if point.tobytes() in bad_points else base._evaluate(point)

    oracle = Failing()
    scan = gs.validate(gs.fast_scan(data, oracle, small_config()), data, oracle, 50)
    compared = gs.compare_full_vs_fast(data, oracle, small_config(), fast=scan)

    def lambda_column(report):
        rows = report.save_trace_csv(tmp_path / "t.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == [repr(v) for v in report.lambda_hat.tolist()]
        return [row.split(",")[1] for row in rows]

    validated = dict(zip(scan.hours[scan.validation_rows].tolist(), scan.validation_lam.tolist()))
    held = scan.training_lambdas | validated
    assert scan.validation_excluded and "" in lambda_column(scan)
    assert lambda_column(scan) == [repr(held[h]) if h in held else "" for h in scan.hours.tolist()]
    assert "nan" in lambda_column(compared)
    assert lambda_column(compared) == [repr(v) for v in compared.lambda_full.tolist()]


def test_scan_report_serialization(tmp_path):
    data = small_year()
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=7)
    report = gs.fast_scan(data, oracle, small_config())
    report = gs.validate(report, data, oracle, 40, seed=6)

    j = report.save_json(tmp_path / "r.json")
    t = report.save_trace_csv(tmp_path / "t.csv")
    h = report.save_histogram_csv(tmp_path / "h.csv")

    payload = json.loads(j.read_text())
    assert payload["k_final"] == report.k_final
    assert "timing" not in payload
    assert len(payload["lambda_hat"]) == data.n_points

    lines = t.read_text().strip().splitlines()
    assert lines[0] == "hour,lambda,lambda_hat"
    assert len(lines) == data.n_points + 1
    assert h.read_text().splitlines()[0] == "bin_low,bin_high,count"
