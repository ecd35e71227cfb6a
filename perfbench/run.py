"""gridscan benchmark: one workload per call, closed loop, checked outputs.

    python3 perfbench/run.py --workload year-default --seed 0 --seconds 20 --trace 0

Run from the repository root.  It imports gridscan from ``src/`` and
prints every metric by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  A record of the run, with its
context (revision, versions, thread settings, results hashes), goes to
``perfbench/out/``, and a traced run also writes its spans there.

    python3 perfbench/run.py --write-benchmark-json

rewrites ``BENCHMARK.json`` from the definitions in spec.py.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RUN_SECONDS = 20
IMPORT_SAMPLES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="rewrite BENCHMARK.json from the definitions and exit")
    args = parser.parse_args(argv)
    if not args.write_benchmark_json and not args.workload:
        parser.error("--workload is required")
    return args


def import_program() -> float:
    """Import gridscan from the checkout's src/ and return the import time."""
    if not (SRC / "gridscan" / "__init__.py").is_file():
        raise SystemExit(f"error: no gridscan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import gridscan  # noqa: F401  (numpy and scipy load here)
    return time.perf_counter() - start


def import_time(first: float) -> float:
    """Median import time over this process and fresh interpreters."""
    probe = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import gridscan; print(time.perf_counter() - t)"
    )
    samples = [first]
    for _ in range(IMPORT_SAMPLES - 1):
        done = subprocess.run([sys.executable, "-c", probe, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=60)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in spec.WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in spec.END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in spec.PER_LAYER],
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "GRIDSCAN_THREADS": workload.threads,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def _fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(value)


def print_metrics(title, values: dict, gated: set[str]):
    print(title)
    for name in sorted(values):
        s = values[name]
        tail = ", ".join(f"{k} {_fmt(v)}" for k, v in s.items() if k != "value")
        mark = "" if name in gated else "  (not in last line)"
        unit = spec.UNITS.get(name, "s" if name.endswith("_s") else "")
        print(f"  {name:30s} {_fmt(s['value']):>12s} {unit:6s} [{tail}]{mark}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        payload = json.dumps(benchmark_json(), indent=2)
        (ROOT / "BENCHMARK.json").write_text(payload + "\n")
        return 0
    if args.workload not in spec.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    w = spec.WORKLOADS[args.workload]
    if w.blas_threads is not None:
        # OpenBLAS reads this once, when numpy loads.
        os.environ["OPENBLAS_NUM_THREADS"] = str(w.blas_threads)
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"error: cannot import gridscan: {exc}", file=sys.stderr)
        return 2
    if not args.trace:
        import_s = import_time(import_s)
    result = report(w, args.seed, args.seconds, bool(args.trace), import_s, OUT)
    print(json.dumps(result))
    return 0


def report(w, seed: int, seconds: float, trace: bool, import_s: float, out: Path) -> dict:
    """Measure one workload, print its metrics, write its record; return
    the result object printed as the last line."""
    import workloads

    m = workloads.measure(w, seed, seconds, trace, out / "tmp")
    metrics.check_call_counts(m)
    metrics.check_reproducible(m)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = metrics.end_to_end(m, import_s, peak_rss_mb)
    layers = metrics.per_layer(m) if trace else {}

    failed = sum(bool(o.problems) for o in m.outcomes)
    print(f"workload {w.name}  seed {seed}  trace {int(trace)}  "
          f"iterations {len(m.outcomes)}  failed {failed}")
    print("  input  dataset  oracle  scan  training  k_final  oracle_calls  mape      max_ape   "
          "results_hash")
    rows = {}
    for o in m.outcomes:
        if o.quality and o.input_index not in rows:
            rows[o.input_index] = o
            q = o.quality
            inp = spec.input_sets(seed, w.input_sets, w.quick_start)[o.input_index]
            extra = f"  cluster_k {o.extra['cluster_k']}" if "cluster_k" in o.extra else ""
            print(f"  {o.input_index:5d}  {inp.dataset_seed:7d}  {inp.oracle_seed:6d}  "
                  f"{inp.scan_seed:4d}  {q['training_size']:8d}  {q['k_final']:7d}  "
                  f"{q['oracle_calls']:12d}  {q['mape']:.6f}  {q['max_ape']:.6f}  "
                  f"{o.results_hash}{extra}")
    for i, o in enumerate(m.outcomes):
        for problem in o.problems:
            print(f"  FAILED iteration {i} (input {o.input_index}): {problem}")

    print_metrics("end-to-end (untraced iterations)", e2e,
                  set() if trace else {n for n, *_ in spec.END_TO_END})
    if trace:
        print_metrics("per-layer (traced iterations)", layers, {n for n, *_ in spec.PER_LAYER})
        print("traced fast_scan_s by layer self time (median):")
        for name, value in metrics.layer_breakdown(m).items():
            print(f"  {name:30s} {value:12.6f} s")

    ctx = context(w)
    print(f"context: revision {ctx['git_revision'][:12]}  nproc {ctx['nproc']}  "
          f"numpy {ctx['numpy']}  scipy {ctx['scipy']}  blas {ctx['blas'].get('name')} "
          f"{ctx['blas'].get('version')}  GRIDSCAN_THREADS {ctx['GRIDSCAN_THREADS']}  "
          f"blas threads {ctx['blas_threads']}")
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "context": ctx,
        "inputs": {str(j): {"quality": o.quality, "results_hash": o.results_hash, **o.extra}
                   for j, o in rows.items()},
        "problems": [p for o in m.outcomes for p in o.problems],
        "end_to_end": e2e, "per_layer": layers,
    }
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{int(trace)}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str))
    if trace:
        m.recorder.dump(out / f"{stem}-spans.jsonl")

    chosen, values = (spec.PER_LAYER, layers) if trace else (spec.END_TO_END, e2e)
    return {
        "correct": failed == 0,
        "attempted": len(m.outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": _json_number(values[name]["value"]), "unit": unit}
            for name, unit, *_ in chosen
        },
    }


def _json_number(value):
    return None if value is None or math.isnan(value) else value


if __name__ == "__main__":
    sys.exit(main())
