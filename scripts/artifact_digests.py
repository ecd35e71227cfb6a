"""sha256 of every artifact the CLI's commands list in their manifests.

Runs the seven commands staged in one ``--out`` (generate, select,
cluster, fullscan, fastscan, compare, worstcase), then ``fastscan`` and
``compare`` each in a fresh ``--out``, on two configs:

- ``damping-300``: a 300-hour, 6-attribute synthetic year under the
  damping surrogate with a small scan (the CLI tests' config);
- ``two-bus-csv``: a 3000-hour, 20-attribute year read back from
  ``generate``'s CSV under the two-bus margin, with the default scan and
  500 validation hours (the shape of the benchmark's ``cli-staged``).

For each step it prints the exit code, then one ``name sha256`` line per
artifact listed in that step's ``run_manifest.json``.  A last block runs
the README quick start through the library (the default 8760-hour year,
oracle seed 101): the sha256 of ``json.dumps(report.to_dict(), indent=2)``
after ``fast_scan`` and after ``compare_full_vs_fast``, each validated on
500 hours with seed 7, and of the feature report's payload.  Nothing printed
depends on wall time or on where the runs are kept, so two revisions
write the same artifacts exactly when their outputs are equal:

    PYTHONPATH=src python3 scripts/artifact_digests.py > digests.txt
    diff parent-digests.txt digests.txt

Takes a few seconds on two cores.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import gridscan as gs
from gridscan import cli

STAGED = ("generate", "select", "cluster", "fullscan", "fastscan", "compare", "worstcase")
FRESH = ("fastscan", "compare")

DAMPING_300 = [
    "dataset.synthetic.n_hours=300", "dataset.synthetic.n_attributes=6",
    "dataset.synthetic.seed=5", "dataset.synthetic.n_informative=2",
    'oracle={"kind": "damping_surrogate", "seed": 9}',
    'scan.relief={"m": 200, "k": 5, "batch": 30, "window": 2}',
    'scan.pso={"swarm_size": 6, "n_iter": 8}', "scan.sample_size=40", "scan.seed=0",
]
TWO_BUS_SYNTHETIC = [
    "dataset.synthetic.n_hours=3000", "dataset.synthetic.n_attributes=20",
    "dataset.synthetic.seed=3",
]


def overrides(config: str, command: str, staged: Path) -> list[str]:
    """The ``--set`` values of ``command`` on ``config``; ``staged`` holds generate's CSV."""
    if config == "damping-300":
        return DAMPING_300
    if command == "generate":
        return TWO_BUS_SYNTHETIC
    return [f"dataset.csv={staged / 'dataset.csv'}", 'oracle={"kind": "two_bus_margin"}',
            "scan.seed=3", "scan.sample_size=500"]


def step(label: str, command: str, out: Path, sets: list[str]):
    """Run ``command`` in ``out``; print its exit code and its manifest's digests."""
    argv = [command, "--out", str(out)] + [a for s in sets for a in ("--set", s)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    print(f"{label} {command} exit={code}")
    if code in (0, 3):
        for name in sorted(json.loads((out / "run_manifest.json").read_text())["artifacts"]):
            print(f"  {name} {hashlib.sha256((out / name).read_bytes()).hexdigest()}")


def sha256_json(payload) -> str:
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


def library():
    """Print the digests of the README quick start's reports."""
    data = gs.generate_synthetic_year(gs.SyntheticYearConfig(seed=1))
    oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=101)
    fast = gs.validate(gs.fast_scan(data, oracle), data, oracle, 500, seed=7)
    compared = gs.validate(gs.compare_full_vs_fast(data, oracle), data, oracle, 500, seed=7)
    print(f"library fast_scan {sha256_json(fast.to_dict())}")
    print(f"library compare {sha256_json(compared.to_dict())}")
    print(f"library feature_report {sha256_json(fast.feature_report.to_dict())}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as tmp:
        for config in ("damping-300", "two-bus-csv"):
            staged = Path(tmp) / config / "staged"
            for command in STAGED:
                step(f"{config} staged", command, staged, overrides(config, command, staged))
            for command in FRESH:
                step(f"{config} fresh", command, Path(tmp) / config / f"fresh-{command}",
                     overrides(config, command, staged))
    library()
    return 0


if __name__ == "__main__":
    sys.exit(main())
