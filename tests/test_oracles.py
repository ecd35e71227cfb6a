import math
import time

import numpy as np
import pytest

import gridscan as gs
from gridscan.oracles import (
    StabilityOracle,
    TabulatedOracle,
    affine_demand_map,
    evaluate_many,
    two_bus_margin,
)


def margin_by_bisection(E, X, p0, tol=1e-9):
    """Independent loading-margin oracle: bisection on power-flow
    solvability.

    A load P is servable iff the transfer curve P(V) = (V/X) sqrt(E^2-V^2)
    reaches it for some voltage V in [0, E]; solvability is checked on a
    dense voltage grid, and the largest servable P is found by bisection.
    """
    v = np.linspace(0.0, E, 20001)
    transfer = v / X * np.sqrt(np.maximum(E * E - v * v, 0.0))

    def solvable(p):
        return bool(np.any(transfer >= p))

    lo, hi = 0.0, E * E / X
    assert solvable(lo) and not solvable(hi)
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if solvable(mid):
            lo = mid
        else:
            hi = mid
    return lo - p0


# ── damping surrogate ────────────────────────────────────────────────────


def test_damping_zero_point_returns_intercept():
    oracle = gs.DampingSurrogate(b0=4.2, linear={0: 0.5, 3: -0.2}, quadratic={(0, 3): 0.1})
    assert oracle(np.zeros(5)) == 4.2


def test_damping_constant_when_only_intercept():
    oracle = gs.DampingSurrogate(b0=1.5, linear={})
    pts = np.random.default_rng(0).uniform(-1, 1, size=(20, 4))
    assert all(oracle(p) == 1.5 for p in pts)


def test_damping_matches_independent_polynomial(rng):
    oracle = gs.DampingSurrogate(
        b0=5.0, linear={0: 0.7, 2: -0.4, 5: 0.3}, quadratic={(0, 2): 0.2, (2, 5): -0.15}
    )
    for _ in range(50):
        x = rng.uniform(-1, 1, size=8)
        expected = 5.0 + 0.7 * x[0] - 0.4 * x[2] + 0.3 * x[5]
        expected += 0.2 * x[0] * x[2] - 0.15 * x[2] * x[5]
        assert abs(oracle(x) - expected) < 1e-12


def test_damping_ignores_non_informative_exactly(rng):
    oracle = gs.DampingSurrogate.from_seed([1, 4, 6], seed=9)
    x = rng.uniform(-1, 1, size=10)
    y = x.copy()
    for j in (0, 2, 3, 5, 7, 8, 9):
        y[j] = rng.uniform(-1, 1)
    assert oracle(x) == oracle(y)


def test_oracle_purity_bitwise(rng):
    damping = gs.DampingSurrogate.from_seed([0, 1, 2], seed=3)
    margin = gs.TwoBusMargin(E=1.0, X=0.5, load_indices=[1, 2])
    pts = rng.uniform(-1, 1, size=(1000, 4))
    for oracle in (damping, margin):
        first = np.array([oracle(p) for p in pts])
        second = np.array([oracle(p) for p in pts])
        assert np.array_equal(first, second)


def test_eval_count_increments_once_per_call(rng):
    oracle = gs.DampingSurrogate.from_seed([0], seed=1)
    pts = rng.uniform(-1, 1, size=(17, 3))
    for p in pts:
        oracle(p)
    assert oracle.eval_count == 17


def test_injected_delay_slows_calls():
    oracle = gs.DampingSurrogate.from_seed([0], seed=1, delay_ms=20.0)
    t0 = time.perf_counter()
    for _ in range(10):
        oracle(np.zeros(2))
    assert time.perf_counter() - t0 >= 0.15


# ── two-bus loading margin ───────────────────────────────────────────────


def test_margin_equals_max_transfer_at_zero_load():
    assert two_bus_margin(np.zeros(1), 1.0, 0.5, lambda p: 0.0) == 1.0


def test_margin_direct_case_agrees_with_bisection():
    lam = two_bus_margin(np.zeros(1), 1.0, 0.5, lambda p: 0.5)
    assert abs(lam - 0.5) < 1e-12
    assert abs(margin_by_bisection(1.0, 0.5, 0.5) - lam) < 1e-6


def test_margin_zero_at_collapse_point():
    cap = 1.0 * 1.0 / (2 * 0.5)
    assert abs(two_bus_margin(np.zeros(1), 1.0, 0.5, lambda p: cap)) < 1e-12


def test_margin_closed_form_vs_bisection_grid():
    # structured grid across the supported parameter box
    for E in (0.9, 1.0, 1.1):
        for X in (0.1, 0.4, 1.0):
            cap = E * E / (2 * X)
            for frac in (0.0, 0.3, 0.9):
                p0 = frac * cap
                closed = two_bus_margin(np.zeros(1), E, X, lambda p: p0)
                assert abs(closed - margin_by_bisection(E, X, p0)) < 1e-6


def test_margin_rejects_bad_parameters():
    with pytest.raises(ValueError):
        two_bus_margin(np.zeros(1), -1.0, 0.5, lambda p: 0.0)
    with pytest.raises(ValueError):
        two_bus_margin(np.zeros(1), 1.0, 0.5, lambda p: -0.1)


def test_affine_demand_map_range():
    demand = affine_demand_map([0, 1], E=1.0, X=0.5, headroom=0.9)
    cap = 0.9 * 1.0 / (2 * 0.5)
    assert demand(np.array([-1.0, -1.0])) == 0.0
    assert abs(demand(np.array([1.0, 1.0])) - cap) < 1e-12
    assert abs(demand(np.array([0.0, 0.0])) - cap / 2) < 1e-12


def test_two_bus_oracle_negative_margin_flags_infeasible():
    # a demand map exceeding the transfer ceiling yields a negative margin
    oracle = gs.TwoBusMargin(E=1.0, X=0.5, demand_map=lambda p: 1.5)
    assert oracle(np.zeros(3)) == -0.5


# ── tabulated oracle and full scan ───────────────────────────────────────


def test_tabulated_oracle_lookup_and_failure(rng):
    pts = rng.uniform(-1, 1, size=(5, 2))
    vals = np.arange(5.0)
    oracle = TabulatedOracle(pts, vals)
    assert oracle(pts[3]) == 3.0
    with pytest.raises(KeyError):
        oracle(np.array([9.0, 9.0]))


def test_full_scan_counts_and_trace(rng):
    data = gs.normalize(rng.uniform(0, 1, size=(10, 3)), ["a", "b", "c"])
    oracle = gs.DampingSurrogate.from_seed([0, 1], seed=4)
    trace = gs.full_scan(data, oracle)
    assert oracle.eval_count == 10
    assert len(trace.lam) == 10
    assert not trace.partial
    assert trace.elapsed_s >= 0.0


def test_full_scan_constant_oracle_constant_trace(rng):
    data = gs.normalize(rng.uniform(0, 1, size=(6, 2)), ["a", "b"])
    trace = gs.full_scan(data, gs.DampingSurrogate(b0=2.5, linear={}))
    assert np.all(trace.lam == 2.5)


def test_full_scan_year_horizon(year, year_oracle):
    before = year_oracle.eval_count
    trace = gs.full_scan(year, year_oracle)
    assert year_oracle.eval_count - before == 8760
    assert len(trace.lam) == 8760


def test_full_scan_records_failures(rng):
    data = gs.normalize(rng.uniform(0, 1, size=(8, 2)), ["a", "b"])
    # table covers all but two rows: those evaluations fail per-hour
    oracle = TabulatedOracle(data.values[:6], np.arange(6.0))
    trace = gs.full_scan(data, oracle)
    assert trace.partial
    assert trace.failed_hours == (6, 7)
    assert np.isnan(trace.lam[6]) and np.isnan(trace.lam[7])
    assert np.all(np.isfinite(trace.lam[:6]))


def test_trace_csv_roundtrip(tmp_path, rng):
    trace = gs.StabilityTrace(hours=np.arange(5), lam=rng.normal(size=5), kind="x")
    p = trace.save_csv(tmp_path / "t.csv")
    back = gs.StabilityTrace.load_csv(p)
    assert np.array_equal(back.hours, trace.hours)
    assert np.array_equal(back.lam, trace.lam)


def test_partial_trace_csv_roundtrip(tmp_path, rng):
    data = gs.normalize(rng.uniform(0, 1, size=(8, 2)), ["a", "b"])
    # the table lacks rows 1 and 5, so the full scan fails there
    kept = [0, 2, 3, 4, 6, 7]
    trace = gs.full_scan(data, TabulatedOracle(data.values[kept], np.arange(6.0)))
    assert trace.failed_hours == (1, 5)
    back = gs.StabilityTrace.load_csv(trace.save_csv(tmp_path / "t.csv"))
    assert np.array_equal(back.hours, trace.hours)
    assert np.array_equal(np.isnan(back.lam), np.isnan(trace.lam))
    assert np.array_equal(back.lam[kept], trace.lam[kept])
    assert back.failed_hours == trace.failed_hours
    assert back.partial


def test_full_scan_resume_evaluates_only_failed_hours(rng):
    data = gs.normalize(rng.uniform(0, 1, size=(8, 2)), ["a", "b"])
    kept = [0, 2, 3, 4, 6, 7]
    partial = gs.full_scan(data, TabulatedOracle(data.values[kept], np.arange(6.0)))
    partial.elapsed_s = 5.0
    # this table still lacks row 5, so one hour stays failed
    oracle = TabulatedOracle(data.values[:5], np.arange(10.0, 15.0))
    resumed = gs.full_scan(data, oracle, resume=partial)
    assert oracle.eval_count == 2
    assert resumed.failed_hours == (5,)
    assert resumed.lam[1] == 11.0
    assert np.array_equal(resumed.lam[kept], partial.lam[kept])
    assert resumed.elapsed_s > 5.0
    with pytest.raises(ValueError, match="other hours"):
        gs.full_scan(gs.normalize(data.values[:4], ["a", "b"]), oracle, resume=partial)


class _Returning(StabilityOracle):
    """Returns a given value (NaN, +inf, -inf) instead of raising at some points."""

    kind = "returning"

    def __init__(self, bad_points, value):
        super().__init__()
        self.base = gs.DampingSurrogate.from_seed([0, 1], seed=2)
        self.bad = {p.tobytes() for p in bad_points}
        self.value = value

    def _evaluate(self, point):
        return self.value if point.tobytes() in self.bad else self.base._evaluate(point)


def test_evaluate_many_threaded_matches_sequential(rng, monkeypatch):
    oracle = gs.DampingSurrogate.from_seed([0, 1], seed=2)
    pts = rng.uniform(-1, 1, size=(40, 3))
    seq = evaluate_many(oracle, pts)
    for threads in ("1", "4"):
        monkeypatch.setenv("GRIDSCAN_THREADS", threads)
        assert np.array_equal(evaluate_many(oracle, pts), seq)
        # a non-finite value is a failed call: NaN when caught, else ValueError
        for value in (math.nan, math.inf, -math.inf):
            flaky = _Returning(pts[[4, 30]], value)
            caught = evaluate_many(flaky, pts, catch_failures=True)
            assert np.array_equal(np.flatnonzero(np.isnan(caught)), [4, 30])
            assert np.array_equal(np.delete(caught, [4, 30]), np.delete(seq, [4, 30]))
            with pytest.raises(ValueError, match=f"oracle returned {value} at point 4"):
                evaluate_many(flaky, pts)


def test_evaluate_many_propagates_exceptions_unless_caught(rng):
    pts = rng.uniform(-1, 1, size=(5, 2))
    oracle = TabulatedOracle(pts[:3], np.arange(3.0))
    with pytest.raises(KeyError):
        evaluate_many(oracle, pts)
    values = evaluate_many(oracle, pts, catch_failures=True)
    assert np.array_equal(values[:3], [0.0, 1.0, 2.0]) and np.isnan(values[3:]).all()


def test_full_scan_records_nan_returns_as_failed_hours(rng):
    # a solver that reports failure by returning NaN, not by raising
    data = gs.normalize(rng.uniform(0, 1, size=(8, 2)), ["a", "b"])
    trace = gs.full_scan(data, _Returning(data.values[[2, 6]], math.nan))
    assert trace.partial
    assert trace.failed_hours == (2, 6)
    assert np.isfinite(np.delete(trace.lam, [2, 6])).all()
    inf_trace = gs.full_scan(data, _Returning(data.values[[2, 6]], math.inf))
    assert inf_trace.failed_hours == (2, 6)


def test_trace_failed_hours_are_its_nan_hours(tmp_path):
    trace = gs.StabilityTrace(hours=[10, 11, 12, 13], lam=[1.0, math.nan, 2.0, math.nan], kind="t")
    assert trace.failed_hours == (11, 13) and trace.partial
    assert not gs.StabilityTrace(hours=[10, 11], lam=[1.0, 2.0], kind="t").partial
    with pytest.raises(TypeError):
        gs.StabilityTrace(hours=[10], lam=[math.nan], kind="t", failed_hours=(10,))
    # NaN is the only failure encoding; an infinite index, built or read, is rejected
    with pytest.raises(ValueError, match="infinite"):
        gs.StabilityTrace(hours=[10, 11], lam=[1.0, -math.inf], kind="t")
    path = tmp_path / "t.csv"
    path.write_text("hour,lambda\n0,1.5\n1,inf\n")
    with pytest.raises(ValueError, match="infinite"):
        gs.StabilityTrace.load_csv(path)
