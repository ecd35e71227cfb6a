"""Running the benchmark's closed-loop workloads (defined in spec.py).

Each workload runs in one process, one iteration at a time, and hands the
program only generated inputs.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from gridscan import cli, dataset, oracles, scanning
from gridscan.dataset import SyntheticYearConfig, load_csv
from gridscan.oracles import DampingSurrogate

import checks
from spans import METER, TRACE, OracleProxy, Recorder
from spec import InputSet, Workload, input_sets

VALIDATION_HOURS = 500
CLI_STEPS = ("generate", "select", "cluster", "fullscan", "fastscan", "compare", "worstcase")


@dataclass
class Outcome:
    """What one iteration produced: its time, its checks and its results."""

    input_index: int
    traced: bool
    staged_s: float = float("nan")
    problems: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    results_hash: str = ""
    extra: dict = field(default_factory=dict)


@dataclass
class Measurement:
    recorder: Recorder
    outcomes: list[Outcome]
    setup_s: list[float]


def measure(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Measurement:
    """Run whole passes over the input sets until ``seconds`` have elapsed.

    A traced run takes the first half of the input sets and runs each
    twice, once untraced and once traced, in alternating order, so the two
    can be compared pairwise and the run costs what an untraced one does.
    """
    os.environ[oracles.THREADS_ENV] = str(w.threads)
    recorder = Recorder()
    sets = input_sets(seed, w.input_sets, w.quick_start)
    if trace:
        sets = sets[: (len(sets) + 1) // 2]
    built, setup_s = {}, []
    if not w.cli:
        with recorder.patched(TRACE if trace else METER):
            for inp in sets:
                start = time.perf_counter()
                built[inp.index] = _build(w, inp, recorder)
                setup_s.append(time.perf_counter() - start)

    schedule = []
    for inp in sets:
        order = (False, True) if inp.index % 2 == 0 else (True, False)
        schedule += [(inp, traced) for traced in (order if trace else (False,))]

    outcomes: list[Outcome] = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        for inp, traced in schedule:
            recorder.run_id = len(outcomes)
            recorder.trace_calls = traced
            outcome = Outcome(inp.index, traced)
            with recorder.patched(TRACE if traced else METER):
                try:
                    if w.cli:
                        _cli_iteration(w, inp, recorder, workdir, outcome)
                    else:
                        _library_iteration(w, inp, *built[inp.index], outcome)
                except Exception as exc:  # a crash is a failed iteration, not a lost run
                    traceback.print_exc()
                    outcome.problems.append(f"{type(exc).__name__}: {exc}")
            outcomes.append(outcome)
            if "generate_s" in outcome.extra:
                setup_s.append(outcome.extra["generate_s"])
    return Measurement(recorder, outcomes, setup_s)


def _build(w: Workload, inp: InputSet, recorder: Recorder):
    config = SyntheticYearConfig(
        n_hours=w.n_hours, n_attributes=w.n_attributes, seed=inp.dataset_seed
    )
    data = dataset.generate_synthetic_year(config)
    oracle = DampingSurrogate.from_seed(
        data.metadata["informative_indices"], seed=inp.oracle_seed, delay_ms=w.delay_ms
    )
    return data, OracleProxy(oracle, recorder)


def _library_iteration(w: Workload, inp: InputSet, data, oracle, outcome: Outcome):
    config = scanning.ScanConfig(seed=inp.scan_seed)
    sample = min(VALIDATION_HOURS, data.n_points)
    start = time.perf_counter()
    if w.compare:
        report = scanning.compare_full_vs_fast(data, oracle, config)
        report = scanning.validate(report, data, oracle, sample, seed=inp.validation_seed)
        lambda_full = report.lambda_full
    else:
        report = scanning.fast_scan(data, oracle, config)
        report = scanning.validate(report, data, oracle, sample, seed=inp.validation_seed)
        lambda_full = oracles.full_scan(data, oracle).lam
    outcome.staged_s = time.perf_counter() - start

    model = report.model
    outcome.problems += checks.check_scan(
        report.hours, report.lambda_hat, report.assignment, model.centroids, model.weights,
        data.values, report.oracle_evaluations, report.training_size, report.k_final,
    )
    if w.quick_start:
        # The acceptance criterion holds max APE to 15 % on the quick start.
        max_ape = report.max_ape if inp.index == 0 else None
        outcome.problems += checks.check_accuracy(report.mape, max_ape)
    outcome.problems += checks.check_full_trace(report.hours, lambda_full, report.training_lambdas)
    outcome.quality = _quality(report.oracle_evaluations, report.training_size,
                               report.k_final, report.mape, report.max_ape)
    outcome.results_hash = checks.results_hash(model.centroids, report.lambda_hat)


def _quality(oracle_calls, training_size, k_final, mape, max_ape) -> dict:
    return {"oracle_calls": oracle_calls, "training_size": training_size,
            "k_final": k_final, "mape": mape, "max_ape": max_ape}


def _cli_iteration(w: Workload, inp: InputSet, recorder: Recorder, workdir: Path,
                   outcome: Outcome):
    workdir.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="cli-staged-", dir=workdir))
    try:
        _cli_sequence(w, inp, recorder, out, outcome)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _cli_sequence(w: Workload, inp: InputSet, recorder: Recorder, out: Path, outcome: Outcome):
    """generate -> select -> cluster -> fullscan -> fastscan -> compare -> worstcase.

    The CLI validates with the scan seed, so ``inp.validation_seed`` is
    not used here.
    """
    synthetic = [
        f"dataset.synthetic.n_hours={w.n_hours}",
        f"dataset.synthetic.n_attributes={w.n_attributes}",
        f"dataset.synthetic.seed={inp.dataset_seed}",
    ]
    from_csv = [
        f"dataset.csv={out / 'dataset.csv'}",
        'oracle.kind="two_bus_margin"',
        f"scan.seed={inp.scan_seed}",
        f"scan.sample_size={min(VALIDATION_HOURS, w.n_hours)}",
    ]
    # Wrap the oracle the CLI builds, so its calls are timed like the library's.
    build_oracle = cli.build_oracle
    cli.build_oracle = lambda config, data: OracleProxy(build_oracle(config, data), recorder)
    try:
        for command in CLI_STEPS:
            overrides = synthetic if command == "generate" else from_csv
            argv = [command, "--out", str(out)] + [a for o in overrides for a in ("--set", o)]
            with recorder.span(f"cli.{command}") as span, redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            outcome.extra[f"{command}_s"] = span.duration
            if code != 0:
                outcome.problems.append(f"{command} exited with code {code}")
                return
            outcome.problems += checks.check_manifest(out)
            if command == "cluster":
                outcome.extra["cluster_k"] = json.loads((out / "cluster_model.json").read_text())["k"]
    finally:
        cli.build_oracle = build_oracle
    full_scans = sum(1 for s in recorder.spans
                     if s.run_id == recorder.run_id and s.name == "oracles.full_scan")
    if full_scans != 1:
        outcome.problems.append(f"{full_scans} full scans; compare did not reuse fullscan's trace")
    outcome.staged_s = sum(outcome.extra[f"{c}_s"] for c in CLI_STEPS)
    outcome.extra["artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir())

    report = json.loads((out / "scan_report.json").read_text())
    model = json.loads((out / "cluster_model.json").read_text())
    data = load_csv(out / "dataset.csv")
    training = {int(h): v for h, v in report["training_lambdas"].items()}
    outcome.problems += checks.check_scan(
        report["hours"], report["lambda_hat"], report["assignment"], model["centroids"],
        model["weights"], data.values, report["oracle_evaluations"],
        report["training_size"], report["k_final"],
    )
    outcome.problems += checks.check_full_trace(report["hours"], report["lambda_full"], training)
    outcome.quality = _quality(report["oracle_evaluations"], report["training_size"],
                               report["k_final"], report["mape"], report["max_ape"])
    outcome.results_hash = checks.results_hash(model["centroids"], report["lambda_hat"])
