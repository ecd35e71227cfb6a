"""What the benchmark measures: its workloads, input seeds and metrics.

Standard library only, so the runner can read a workload's thread
settings before numpy is loaded.  ``run.py --write-benchmark-json``
writes BENCHMARK.json from these definitions.

A workload seed ``s`` yields ``n`` input sets; set ``j`` uses base
``b = s * n + j`` and dataset seed ``1 + b``, oracle seed ``101 + b``, scan
seed ``b`` and validation seed ``7 + b``, so seed 0's first set is the
README quick start.  On ``year-default`` set 0 is the quick start for
every seed.  Several input sets per run keep the run's figures steady
across seeds: training size, cluster count and clustering time all vary
by input.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload.

    Library workloads use the damping surrogate with ``delay_ms`` of
    injected cost per call; the CLI workload uses the two-bus margin.
    ``threads`` is GRIDSCAN_THREADS.  ``blas_threads``, when set, caps
    OpenBLAS so oracle workers and BLAS together stay within nproc (2).
    ``quick_start`` makes set 0 of every run the README quick start, the
    configuration of the acceptance criterion on accuracy, and applies its
    thresholds: MAPE on every input set, max APE on the quick start only.
    Max APE is the error of the worst of 500 hours, and on other years it
    passes 15 % now and then (see README.md); those are counted, not failed.
    """

    name: str
    why: str
    n_hours: int
    n_attributes: int
    input_sets: int
    delay_ms: float = 0.0
    threads: int = 1
    blas_threads: int | None = None
    compare: bool = False
    cli: bool = False
    quick_start: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "year-default",
            "README quick start and five other 8760x20 years with a free oracle: clustering "
            "is ~99% of the fast scan, so clustering changes show here",
            n_hours=8760, n_attributes=20, input_sets=6, quick_start=True,
        ),
        Workload(
            "costed-compare",
            "fast vs exhaustive scan on a 2000x12 year with 4 ms per oracle call on 2 threads: "
            "oracle waits dominate, so oracle-dispatch changes show here",
            n_hours=2000, n_attributes=12, input_sets=5, delay_ms=4.0, threads=2,
            blas_threads=1, compare=True,
        ),
        Workload(
            "cli-staged",
            "all seven CLI subcommands on a 3000-hour year read back from CSV: the only "
            "workload with the CSV round trip, artifacts and three clusterings per run",
            n_hours=3000, n_attributes=20, input_sets=8, cli=True,
        ),
    )
}


@dataclass(frozen=True)
class InputSet:
    index: int
    dataset_seed: int
    oracle_seed: int
    scan_seed: int
    validation_seed: int


def input_sets(seed: int, count: int, quick_start: bool = False) -> list[InputSet]:
    bases = [seed * count + j for j in range(count)]
    if quick_start:
        bases[0] = 0
    return [InputSet(j, 1 + b, 101 + b, b, 7 + b) for j, b in enumerate(bases)]


# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = [
    ("fast_scan_s", "s", "lower", 0.25),
    ("staged_s", "s", "lower", 0.25),
    ("oracle_calls", "count", "lower", 0.25),
    ("mape", "ratio", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]
# Printed and recorded, but not in the result line, whose metrics every
# workload must report within a bound of 0.25 at most.  On costed-compare
# overhead_s is the difference of two large times and spreads 0.23 between
# runs (breakeven_ms 0.26); on the free-oracle workloads it equals
# fast_scan_s to 0.1 %.  The exhaustive scan of a free oracle takes 20-60 ms
# and spreads 0.25-0.77; on costed-compare it is gated through staged_s.
# max_ape moves too much between inputs; max_ape_over_limit counts the
# input sets whose max APE is above the acceptance threshold and is mostly 0.
# error_rate is 0 when the program is right and is gated through ``failed``.
END_TO_END_EXTRA = [
    ("overhead_s", "s", "lower"),
    ("breakeven_ms", "ms", "lower"),
    ("full_scan_s", "s", "lower"),
    ("speedup", "ratio", "higher"),
    ("max_ape", "ratio", "lower"),
    ("max_ape_over_limit", "count", "lower"),
    ("error_rate", "ratio", "lower"),
]

# name, unit, better; every workload reports each of these.
PER_LAYER = [
    ("clustering.total_s", "s", "lower"),
    ("clustering.pso_s", "s", "lower"),
    ("clustering.kmeans_s", "s", "lower"),
    ("clustering.adaptive_s", "s", "lower"),
    ("clustering.kmeans_calls", "count", "lower"),
    ("clustering.lloyd_sweeps", "count", "lower"),
    ("clustering.mutations_adopted", "count", "higher"),
    ("clustering.k_init", "count", "lower"),
    ("clustering.k_final", "count", "lower"),
    ("oracles.calls.selection", "count", "lower"),
    ("oracles.calls.centroid", "count", "lower"),
    ("oracles.calls.validation", "count", "lower"),
    ("oracles.calls.full", "count", "lower"),
    ("oracles.busy_s", "s", "lower"),
    ("oracles.sweep_s", "s", "lower"),
    ("oracles.failed", "count", "lower"),
    ("relief.oracle_wait_s", "s", "lower"),
    ("relief.select_s", "s", "lower"),
    ("relief.passes", "count", "lower"),
    ("relief.pass_s", "s", "lower"),
    ("relief.training_size", "count", "lower"),
    ("scanning.fast_scan_self_s", "s", "lower"),
    ("scanning.validate_s", "s", "lower"),
    ("dataset.generate_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
]
# Layers only some workloads touch: reported where they occur.
PER_LAYER_EXTRA = [
    ("scanning.compare_self_s", "s", "lower"),
    ("dataset.load_csv_s", "s", "lower"),
    ("dataset.save_csv_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
]
UNITS = {name: unit for name, unit, *_ in END_TO_END + END_TO_END_EXTRA + PER_LAYER + PER_LAYER_EXTRA}
