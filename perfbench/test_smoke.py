"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

IMPORT_S = run.import_program()

import checks  # noqa: E402
import spec  # noqa: E402
from gridscan import DampingSurrogate, ScanConfig, SyntheticYearConfig  # noqa: E402
from gridscan import fast_scan, generate_synthetic_year  # noqa: E402

TINY = {"n_hours": 1200, "n_attributes": 6}


def _tiny(name):
    w = spec.WORKLOADS[name]
    return replace(w, **TINY, input_sets=2, delay_ms=min(w.delay_ms, 0.5))


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported(name, trace, tmp_path, capsys):
    result = run.report(_tiny(name), seed=0, seconds=0, trace=trace, import_s=IMPORT_S,
                        out=tmp_path)
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [n for n, *_ in expected]
    for name_, unit, *_ in expected:
        entry = result["metrics"][name_]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float)), name_
    assert result["attempted"] >= 2
    json.dumps(result, allow_nan=False)
    assert "FAILED" not in capsys.readouterr().out


def test_output_check_flags_corrupted_lambda_hat():
    data = generate_synthetic_year(SyntheticYearConfig(n_hours=400, n_attributes=6, seed=1))
    oracle = DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=101)
    report = fast_scan(data, oracle, ScanConfig(seed=0))
    model = report.model

    def problems(lambda_hat):
        return checks.check_scan(
            report.hours, lambda_hat, report.assignment, model.centroids, model.weights,
            data.values, report.oracle_evaluations, report.training_size, report.k_final,
        )

    assert problems(report.lambda_hat) == []
    counts = [int((report.assignment == c).sum()) for c in range(model.k)]
    hour = int(next(i for i, c in enumerate(report.assignment) if counts[c] > 1))
    corrupted = report.lambda_hat.copy()
    corrupted[hour] = corrupted[hour] + 1e-12
    assert any("within a cluster" in p for p in problems(corrupted))
    corrupted[hour] = float("nan")
    assert any("non-finite" in p for p in problems(corrupted))


def test_benchmark_json_matches_definitions():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.benchmark_json()


@pytest.mark.parametrize("seed, quick_start", [(0, False), (0, True), (1716224670, True)])
def test_first_input_set_is_the_readme_quick_start(seed, quick_start):
    first, second = spec.input_sets(seed, 6, quick_start)[:2]
    assert (first.dataset_seed, first.oracle_seed, first.scan_seed, first.validation_seed) == (
        1, 101, 0, 7
    )
    assert second.scan_seed == seed * 6 + 1


def test_max_ape_threshold_applies_only_when_given():
    assert checks.check_accuracy(0.02, None) == []
    assert checks.check_accuracy(0.02, 0.2053) == ["max_ape 0.2053 above 0.15"]
    assert checks.check_accuracy(0.051) == ["mape 0.0510 above 0.05"]
