"""Property-based robustness: every small or degenerate input ends in a
valid result or a named error.

Hypothesis draws small raw matrices (constant columns, tiled rows, one
distinct point, rounded values, 1e12 magnitudes) and the knobs that meet
them.  The library contract: ``fast_scan`` then ``validate`` give a valid
report, or raise one of the pipeline's named errors.  The CLI contract:
every selecting command exits 0, 2 or 3, prints one ``error:`` line on 2,
never raises, and writes a manifest whose checksums match its files.
Both run derandomized, so every run draws the same examples.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import gridscan as gs
from gridscan.cli import main
from gridscan.clustering import AdaptiveParams, PsoParams, TooFewPointsError
from gridscan.relief import DegeneratePredictionError
from gridscan.scanning import FailedCentroidError

SHAPES = ("plain", "constant column", "tiled rows", "one point", "rounded", "1e12")
NAMED_ERRORS = (DegeneratePredictionError, TooFewPointsError, FailedCentroidError)
# a small swarm keeps each example fast; the contract does not depend on it
SMALL_SWARM = {"swarm_size": 4, "n_iter": 3}


@st.composite
def raw_matrices(draw):
    n, d = draw(st.integers(2, 80)), draw(st.integers(1, 5))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, d))
    shape = draw(st.sampled_from(SHAPES))
    if shape == "constant column":
        X[:, draw(st.integers(0, d - 1))] = 3.0
    elif shape == "tiled rows":
        base = draw(st.integers(1, n))
        X = np.tile(X[:base], (-(-n // base), 1))[:n]
    elif shape == "one point":
        X[:] = X[0]
    elif shape == "rounded":
        X = np.round(X)
    elif shape == "1e12":
        X *= 1e12
    return X


knobs = st.fixed_dictionaries({
    "relief": st.fixed_dictionaries({
        "k": st.integers(1, 6), "m": st.integers(1, 100), "batch": st.integers(1, 40)}),
    "adapt": st.fixed_dictionaries({
        "k_init": st.none() | st.integers(1, 12),
        "eps_d": st.none() | st.floats(0.01, 2.0)}),
})


def _names(d):
    return [f"gen{i:02d}_P" for i in range(d)]


def _informative(d):
    return list(range(min(d, 2)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(raw_matrices(), knobs)
def test_a_scan_of_any_small_matrix_is_valid_or_a_named_error(raw, knobs):
    data = gs.normalize(raw, _names(raw.shape[1]))
    oracle = gs.DampingSurrogate.from_seed(_informative(raw.shape[1]), seed=3)
    config = gs.ScanConfig(relief=gs.ReliefParams(**knobs["relief"]),
                           pso=PsoParams(**SMALL_SWARM), adapt=AdaptiveParams(**knobs["adapt"]))
    try:
        report = gs.fast_scan(data, oracle, config)
    except NAMED_ERRORS as exc:
        event(type(exc).__name__)
        return
    event("valid report")
    report = gs.validate(report, data, oracle, min(20, data.n_points), seed=0)
    assignment = report.assignment
    assert len(assignment) == data.n_points
    assert 0 <= assignment.min() and assignment.max() < report.k_final
    assert np.isfinite(report.lambda_hat).all()
    assert report.k_final <= len(np.unique(data.values, axis=0))
    assert np.isfinite(report.mape)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(raw_matrices(), knobs)
def test_every_selecting_command_on_any_small_csv_exits_0_2_or_3(raw, knobs):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        names = _names(raw.shape[1])
        lines = [",".join(["hour"] + names)]
        lines += [",".join([str(h)] + [repr(float(v)) for v in row]) for h, row in enumerate(raw)]
        (tmp / "data.csv").write_text("\n".join(lines) + "\n")
        config = {
            "dataset": {"csv": str(tmp / "data.csv")},
            "oracle": {"kind": "damping_surrogate", "informative": _informative(len(names)),
                       "seed": 3},
            "scan": {**knobs, "pso": SMALL_SWARM, "sample_size": 20},
        }
        (tmp / "config.json").write_text(json.dumps(config))
        for command in ("select", "cluster", "fastscan", "compare"):
            code, err = _run([command, "--config", str(tmp / "config.json"),
                              "--out", str(tmp / "out")])
            assert code in (0, 2, 3), (command, code)
            event(f"{command} exits {code}")
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
                continue
            manifest = json.loads((tmp / "out" / "run_manifest.json").read_text())
            assert manifest["command"] == command
            for name, digest in manifest["artifacts"].items():
                assert hashlib.sha256((tmp / "out" / name).read_bytes()).hexdigest() == digest
