"""Metrics computed from spans and outcomes (their names are in spec.py).

End-to-end metrics come from untraced iterations, per-layer metrics from
traced ones.  Timings are medians over every sample in a run; counts and
accuracy figures are fixed per input set (repeats of a set must agree) and
the run reports their mean over the sets.
"""

from __future__ import annotations

import math
import statistics

from checks import MAX_MAX_APE
from spans import ORACLE_CALL, SWEEPS, children_of, descendants, layer_times, self_time


def summary(values, stat: str = "median") -> dict:
    """The reported ``value`` (median, or mean), the highest percentile with
    at least ten samples beyond it (or the maximum when there are too few),
    and the sample count."""
    values = sorted(v for v in values if not math.isnan(v))
    if not values:
        return {"value": math.nan, "n": 0}
    center = statistics.median(values) if stat == "median" else statistics.fmean(values)
    out = {"value": center, "stat": stat, "n": len(values)}
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return out
    out["max"] = values[-1]
    return out


def _per_input(outcomes, key) -> dict:
    """Mean over input sets of a figure fixed by the input.

    A mean, not a median: counts such as the training size move in steps
    of a whole batch, and a median of a few of them jumps a whole step.
    """
    seen = {}
    for o in outcomes:
        if key in o.quality and o.input_index not in seen:
            seen[o.input_index] = float(o.quality[key])
    return summary(seen.values(), stat="mean")


def _oracle_wait(spans, kids, i) -> float:
    """Selection oracle calls plus sweep wall time under span ``i``."""
    wait, todo = 0.0, list(kids[i])
    while todo:
        j = todo.pop()
        if spans[j].name in SWEEPS or spans[j].name == ORACLE_CALL:
            wait += spans[j].duration
        else:
            todo.extend(kids[j])
    return wait


def check_call_counts(measurement) -> None:
    """Oracle calls seen in each traced fast scan must equal its
    oracle_evaluations (untraced runs do not record calls inside sweeps)."""
    spans = measurement.recorder.spans
    kids = children_of(spans)
    for i, s in enumerate(spans):
        if s.name != "scanning.fast_scan" or not measurement.outcomes[s.run_id].traced:
            continue
        seen = sum(
            1 for j in descendants(kids, i)
            if spans[j].name == ORACLE_CALL and spans[j].data["stage"] in ("selection", "centroid")
        )
        if seen != s.data["oracle_evaluations"]:
            measurement.outcomes[s.run_id].problems.append(
                f"selection + centroid calls {seen} != oracle_evaluations {s.data['oracle_evaluations']}"
            )


def check_reproducible(measurement) -> None:
    """Repeats of one input set must give the same results hash."""
    first = {}
    for o in measurement.outcomes:
        if not o.results_hash:
            continue
        ref = first.setdefault(o.input_index, o.results_hash)
        if o.results_hash != ref:
            o.problems.append(f"results hash {o.results_hash} differs from first run's {ref}")


def end_to_end(measurement, import_s: float, peak_rss_mb: float) -> dict[str, dict]:
    spans = measurement.recorder.spans
    kids = children_of(spans)
    outcomes = measurement.outcomes
    untraced = {i for i, o in enumerate(outcomes) if not o.traced}
    fast, overhead, breakeven = [], [], []
    for i, s in enumerate(spans):
        if s.name != "scanning.fast_scan" or s.run_id not in untraced:
            continue
        fast.append(s.duration)
        over = s.duration - _oracle_wait(spans, kids, i)
        overhead.append(over)
        skipped = s.data.get("n_hours", 0) - s.data.get("oracle_evaluations", 0)
        breakeven.append(1000.0 * over / skipped if skipped > 0 else math.nan)
    full = [s.duration for s in spans
            if s.name == "oracles.full_scan" and s.run_id in untraced]
    kept = [o for o in outcomes if not o.traced]
    out = {
        "fast_scan_s": summary(fast),
        "overhead_s": summary(overhead),
        "breakeven_ms": summary(breakeven),
        "full_scan_s": summary(full),
        "staged_s": summary([o.staged_s for o in kept]),
        "setup_s": {"value": import_s + summary(measurement.setup_s)["value"],
                    "n": len(measurement.setup_s), "import_s": import_s},
        "peak_rss_mb": {"value": peak_rss_mb, "n": 1},
        "error_rate": {"value": sum(bool(o.problems) for o in outcomes) / max(1, len(outcomes)),
                       "n": len(outcomes)},
    }
    out["speedup"] = {"value": out["full_scan_s"]["value"] / out["fast_scan_s"]["value"],
                      "n": min(len(full), len(fast))}
    for key in ("oracle_calls", "mape", "max_ape"):
        out[key] = _per_input(kept, key)
    worst = {o.input_index: o.quality["max_ape"] for o in kept if "max_ape" in o.quality}
    out["max_ape_over_limit"] = {"value": sum(v > MAX_MAX_APE for v in worst.values()),
                                 "n": len(worst)}
    return out


def per_layer(measurement) -> dict[str, dict]:
    spans = measurement.recorder.spans
    kids = children_of(spans)
    outcomes = measurement.outcomes
    traced = [i for i, o in enumerate(outcomes) if o.traced]
    by_run: dict[int, list[int]] = {i: [] for i in traced}
    for i, s in enumerate(spans):
        if s.run_id in by_run:
            by_run[s.run_id].append(i)

    def per_run(fn):
        return summary([fn(by_run[r]) for r in traced])

    def total(names, measure=lambda i: spans[i].duration):
        names = (names,) if isinstance(names, str) else names
        return lambda idx: sum(measure(i) for i in idx if spans[i].name in names)

    def count(names, key=None):
        names = (names,) if isinstance(names, str) else names
        return lambda idx: sum(
            (spans[i].data.get(key, 0) if key else 1) for i in idx if spans[i].name in names
        )

    def last(name, key):
        return lambda idx: next(
            (spans[i].data[key] for i in reversed(idx) if spans[i].name == name), math.nan
        )

    def calls(pred):
        return lambda idx: sum(1 for i in idx if spans[i].name == ORACLE_CALL and pred(spans[i]))

    def call_time(pred):
        return lambda idx: sum(
            spans[i].duration for i in idx if spans[i].name == ORACLE_CALL and pred(spans[i])
        )

    own = lambda i: self_time(spans, kids, i)  # noqa: E731
    pso = ("clustering.init_swarm", "clustering.pso_step", "clustering.mutation_check")
    out = {
        "clustering.total_s": per_run(total("clustering.self_adaptive")),
        "clustering.pso_s": per_run(total(pso)),
        "clustering.kmeans_s": per_run(total("clustering.kmeans")),
        "clustering.adaptive_s": per_run(total("clustering.self_adaptive", own)),
        "clustering.kmeans_calls": per_run(count("clustering.kmeans")),
        "clustering.lloyd_sweeps": per_run(count("clustering.kmeans", "lloyd_sweeps")),
        "clustering.mutations_adopted": per_run(count("clustering.mutation_check", "adopted")),
        "clustering.k_init": per_run(last("clustering.init_swarm", "k_init")),
        "clustering.k_final": per_run(last("clustering.self_adaptive", "k_final")),
        "oracles.busy_s": per_run(call_time(lambda s: True)),
        "oracles.sweep_s": per_run(total(SWEEPS)),
        "oracles.failed": per_run(calls(lambda s: s.data["failed"])),
        "relief.oracle_wait_s": per_run(call_time(lambda s: s.data["stage"] == "selection")),
        "relief.select_s": per_run(total("relief.select_features")),
        "relief.passes": per_run(count("relief.rrelieff_pass")),
        "relief.pass_s": per_run(total("relief.rrelieff_pass")),
        "relief.training_size": per_run(last("relief.select_features", "training_size")),
        "scanning.fast_scan_self_s": per_run(total("scanning.fast_scan", own)),
        "scanning.validate_s": per_run(total("scanning.validate")),
        "scanning.compare_self_s": per_run(total("scanning.compare", own)),
        "cli.artifact_bytes": summary([outcomes[r].extra.get("artifact_bytes", 0) for r in traced]),
    }
    for stage in ("selection", "centroid", "validation", "full"):
        out[f"oracles.calls.{stage}"] = per_run(calls(lambda s, st=stage: s.data["stage"] == st))
    # Dataset calls also happen while inputs are built, outside any iteration.
    for name in ("generate", "load_csv", "save_csv"):
        out[f"dataset.{name}_s"] = summary(
            [s.duration for s in spans if s.name == f"dataset.{name}"]
        )
    cli_spans = sorted({s.name for s in spans if s.name.startswith("cli.")})
    for name in cli_spans:
        out[f"{name}_s"] = per_run(total(name))
    if cli_spans:
        out["cli.self_s"] = per_run(total(tuple(cli_spans), own))
    out["trace_overhead"] = _trace_overhead(spans, outcomes)
    return out


def _trace_overhead(spans, outcomes) -> dict:
    """Median over input sets of traced / untraced fast-scan time, minus 1."""
    times: dict[tuple[int, bool], list[float]] = {}
    for s in spans:
        if s.name == "scanning.fast_scan" and s.run_id >= 0:
            o = outcomes[s.run_id]
            times.setdefault((o.input_index, o.traced), []).append(s.duration)
    ratios = [
        statistics.median(times[(j, True)]) / statistics.median(times[(j, False)]) - 1.0
        for j in sorted({j for j, _ in times})
        if (j, True) in times and (j, False) in times
    ]
    return summary(ratios)


def layer_breakdown(measurement) -> dict[str, float]:
    """Median traced fast-scan time split by layer self time.

    The parts add up to the traced fast_scan_s by construction; the
    residual is printed so a broken parent link would show.
    """
    spans = measurement.recorder.spans
    kids = children_of(spans)
    traced = {i for i, o in enumerate(measurement.outcomes) if o.traced}
    rows = []
    for i, s in enumerate(spans):
        if s.name == "scanning.fast_scan" and s.run_id in traced:
            parts = layer_times(spans, kids, i)
            parts["residual"] = s.duration - sum(parts.values())
            parts["fast_scan_s"] = s.duration
            rows.append(parts)
    keys = sorted({k for r in rows for k in r})
    return {k: statistics.median([r.get(k, 0.0) for r in rows]) for k in keys}
