import hashlib
import json

import pytest

from gridscan import cli, scanning
from gridscan.cli import main
from gridscan.oracles import DampingSurrogate

SMALL_CONFIG = {
    "dataset": {
        "synthetic": {"n_hours": 300, "n_attributes": 6, "seed": 5, "n_informative": 2}
    },
    "oracle": {"kind": "damping_surrogate", "seed": 9},
    "scan": {
        "relief": {"m": 200, "k": 5, "batch": 30, "window": 2},
        "pso": {"swarm_size": 6, "n_iter": 8},
        "sample_size": 40,
        "seed": 0,
    },
}


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(SMALL_CONFIG))
    return str(p)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_writes_dataset_and_respects_force(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert main(["generate", "--config", config_path, "--out", str(out)]) == 0
    dataset = out / "dataset.csv"
    assert dataset.exists()
    assert (out / "dataset.csv.norm.json").exists()
    assert (out / "run_manifest.json").exists()
    first = sha(dataset)

    # refuses to overwrite without --force
    assert main(["generate", "--config", config_path, "--out", str(out)]) == 2

    # identical checksum when regenerated with the same seed
    assert main(["generate", "--config", config_path, "--out", str(out), "--force"]) == 0
    assert sha(dataset) == first

    rows = dataset.read_text().strip().splitlines()
    assert len(rows) == 301


def test_generate_default_year_is_full_horizon(tmp_path):
    out = tmp_path / "out"
    assert main(["generate", "--out", str(out)]) == 0
    rows = (out / "dataset.csv").read_text().strip().splitlines()
    assert len(rows) == 8761


def test_unknown_config_key_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"scan": {"relief": {"mm": 10}}}))
    code = main(["fastscan", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "scan.relief.mm" in capsys.readouterr().err


def test_set_override_dotted_path(tmp_path, config_path):
    out = tmp_path / "out"
    code = main(
        ["generate", "--config", config_path, "--out", str(out),
         "--set", "dataset.synthetic.n_hours=100"]
    )
    assert code == 0
    rows = (out / "dataset.csv").read_text().strip().splitlines()
    assert len(rows) == 101


def test_pso_seed_is_not_a_config_key(tmp_path, config_path, capsys):
    # every scan seed derives from scan.seed
    code = main(
        ["cluster", "--config", config_path, "--out", str(tmp_path / "o"),
         "--set", "scan.pso.seed=3"]
    )
    assert code == 2
    assert "scan.pso.seed" in capsys.readouterr().err


def test_set_override_bad_path_exits_2(tmp_path, config_path, capsys):
    code = main(
        ["generate", "--config", config_path, "--out", str(tmp_path / "o"),
         "--set", "dataset.bogus=1"]
    )
    assert code == 2
    assert "dataset.bogus" in capsys.readouterr().err


def test_select_writes_feature_report(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["select", "--config", config_path, "--out", str(out)]) == 0
    payload = json.loads((out / "feature_report.json").read_text())
    assert len(payload["attributes"]) == 6
    assert (out / "feature_report.csv").exists()


def test_cluster_reuses_feature_report(tmp_path, config_path, monkeypatch):
    out, fast = tmp_path / "out", tmp_path / "fast"
    assert main(["select", "--config", config_path, "--out", str(out)]) == 0
    assert main(["fastscan", "--config", config_path, "--out", str(fast)]) == 0
    report_hash = sha(out / "feature_report.json")
    monkeypatch.setattr(cli, "select_stage", lambda *a, **k: pytest.fail("cluster reselected"))
    assert main(["cluster", "--config", config_path, "--out", str(out)]) == 0
    assert sha(out / "feature_report.json") == report_hash
    # the reloaded weights give fastscan's model
    assert sha(out / "cluster_model.json") == sha(fast / "cluster_model.json")
    lines = (out / "assignment.csv").read_text().strip().splitlines()
    assert lines[0] == "hour,cluster_id"
    assert len(lines) == 301


def test_cluster_ignores_a_feature_report_selected_under_another_key(tmp_path, config_path):
    # select at the test config, then cluster under other seeds: the report
    # does not belong to that run, so cluster selects again
    other = ["--set", "scan.seed=1", "--set", "oracle.seed=3"]
    out, fast = tmp_path / "out", tmp_path / "fast"
    assert main(["select", "--config", config_path, "--out", str(out)]) == 0
    assert main(["cluster", "--config", config_path, "--out", str(out)] + other) == 0
    assert main(["fastscan", "--config", config_path, "--out", str(fast)] + other) == 0
    assert sha(out / "cluster_model.json") == sha(fast / "cluster_model.json")


def test_staged_select_cluster_match_fastscan(tmp_path, config_path):
    staged, fast = tmp_path / "staged", tmp_path / "fast"
    assert main(["select", "--config", config_path, "--out", str(staged)]) == 0
    assert main(["cluster", "--config", config_path, "--out", str(staged)]) == 0
    assert main(["fastscan", "--config", config_path, "--out", str(fast)]) == 0
    for name in ("feature_report.json", "feature_report.csv", "cluster_model.json",
                 "assignment.csv"):
        assert (staged / name).read_bytes() == (fast / name).read_bytes(), name


def test_fastscan_artifacts_and_manifest_reproducibility(tmp_path, config_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["fastscan", "--config", config_path, "--out", str(out_a)]) == 0
    assert main(["fastscan", "--config", config_path, "--out", str(out_b)]) == 0

    manifest_a = json.loads((out_a / "run_manifest.json").read_text())
    manifest_b = json.loads((out_b / "run_manifest.json").read_text())
    assert manifest_a["config_sha256"] == manifest_b["config_sha256"]
    assert manifest_a["artifacts"] == manifest_b["artifacts"]

    for name in (
        "scan_report.json", "scan_trace.csv", "ape_histogram.csv",
        "cluster_model.json", "assignment.csv", "timing.json",
    ):
        assert (out_a / name).exists()
    # timing is intentionally outside the checksummed artifact set
    assert "timing.json" not in manifest_a["artifacts"]

    report = json.loads((out_a / "scan_report.json").read_text())
    assert report["oracle_evaluations"] == report["training_size"] + report["k_final"]


def _manifest_files(out):
    names = list(json.loads((out / "run_manifest.json").read_text())["artifacts"])
    return {name: (out / name).read_bytes() for name in names + ["run_manifest.json"]}


def test_staged_run_clusters_once_and_matches_fresh_runs(tmp_path, config_path, capsys,
                                                         monkeypatch):
    fresh = {}
    for command in ("fastscan", "compare"):
        assert main([command, "--config", config_path, "--out", str(tmp_path / command)]) == 0
        fresh[command] = _manifest_files(tmp_path / command)
    out = tmp_path / "out"
    for command in ("select", "cluster"):
        assert main([command, "--config", config_path, "--out", str(out)]) == 0
    recorded = json.loads((out / "cluster_model.meta.json").read_text())["clustering_s"]

    def recluster(*args, **kwargs):
        pytest.fail("clustered again")

    monkeypatch.setattr(scanning, "cluster_stage", recluster)
    monkeypatch.setattr(cli, "cluster_stage", recluster)
    capsys.readouterr()
    for command in ("fastscan", "compare"):
        assert main([command, "--config", config_path, "--out", str(out)]) == 0
        assert "clustering=reused" in capsys.readouterr().out
        assert _manifest_files(out) == fresh[command], command
        timing = json.loads((out / "timing.json").read_text())
        assert timing["clustering_reused"] is True
        assert timing["timing"]["clustering_s"] == recorded
    # rewriting the reused model keeps its recorded seconds
    assert json.loads((out / "cluster_model.meta.json").read_text())["clustering_s"] == recorded


@pytest.mark.parametrize("override", [
    "dataset.synthetic.seed=6", "oracle.seed=3", "scan.seed=1", "scan.pso.n_iter=5",
    "scan.adapt.max_outer=30",
])
def test_a_changed_key_component_reclusters(tmp_path, config_path, capsys, override):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(["fastscan", "--config", config_path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["fastscan", "--config", config_path, "--out", str(out), "--set", override]) == 0
    assert "clustering=computed" in capsys.readouterr().out
    assert json.loads((out / "timing.json").read_text())["clustering_reused"] is False
    assert main(["fastscan", "--config", config_path, "--out", str(fresh), "--set", override]) == 0
    assert _manifest_files(out) == _manifest_files(fresh)


def test_another_program_version_reclusters(tmp_path, config_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert main(["fastscan", "--config", config_path, "--out", str(out)]) == 0
    assert main(["fastscan", "--config", config_path, "--out", str(out)]) == 0
    assert "clustering=reused" in capsys.readouterr().out
    monkeypatch.setattr(cli, "__version__", "0.0.0")
    assert main(["fastscan", "--config", config_path, "--out", str(out)]) == 0
    assert "clustering=computed" in capsys.readouterr().out


@pytest.mark.parametrize("damaged", ["cluster_model.json", "cluster_model.meta.json"])
@pytest.mark.parametrize("content", ["{not json", "[]", '{"k": 1}'])
def test_an_unreadable_model_or_key_is_no_cache(tmp_path, config_path, capsys, damaged,
                                                content):
    out = tmp_path / "out"
    assert main(["cluster", "--config", config_path, "--out", str(out)]) == 0
    model = (out / "cluster_model.json").read_bytes()
    (out / damaged).write_text(content)
    capsys.readouterr()
    assert main(["fastscan", "--config", config_path, "--out", str(out)]) == 0
    assert "clustering=computed" in capsys.readouterr().out
    assert (out / "cluster_model.json").read_bytes() == model


def test_fullscan_then_compare_reuses_cached_trace(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert main(["fullscan", "--config", config_path, "--out", str(out)]) == 0
    capsys.readouterr()
    trace_hash = sha(out / "full_trace.csv")
    meta = json.loads((out / "full_trace.meta.json").read_text())

    assert main(["compare", "--config", config_path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "cached=True" in printed
    assert sha(out / "full_trace.csv") == trace_hash
    timing = json.loads((out / "timing.json").read_text())
    assert timing["timing"]["full_scan_s"] == meta["elapsed_s"]
    assert timing["speedup"] is not None


def test_compare_without_cache_writes_trace(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["compare", "--config", config_path, "--out", str(out)]) == 0
    assert (out / "full_trace.csv").exists()
    report = json.loads((out / "scan_report.json").read_text())
    assert "lambda_full" in report


class _FailingSurrogate(DampingSurrogate):
    """A surrogate whose solver fails at a few exact operating points."""

    def __init__(self, base, bad_points):
        super().__init__(base.b0, base.linear, base.quadratic)
        self.bad = {p.tobytes() for p in bad_points}

    def _evaluate(self, point):
        if point.tobytes() in self.bad:
            raise RuntimeError("solver diverged")
        return super()._evaluate(point)


def test_compare_then_worstcase_on_a_partial_full_scan(tmp_path, config_path, monkeypatch):
    build = cli.build_oracle
    monkeypatch.setattr(
        cli, "build_oracle",
        lambda config, data: _FailingSurrogate(build(config, data), data.values[[3, 77]]),
    )
    out = tmp_path / "out"
    assert main(["compare", "--config", config_path, "--out", str(out)]) == 0
    meta = json.loads((out / "full_trace.meta.json").read_text())
    assert meta["partial"] is True
    assert main(["worstcase", "--config", config_path, "--out", str(out)]) == 0
    payload = json.loads((out / "worst_case.json").read_text())
    assert payload["excluded_hours"] == [3, 77]


def test_second_compare_evaluates_only_the_failed_hours(tmp_path, config_path, monkeypatch):
    build, built = cli.build_oracle, []

    def failing(config, data):
        built.append(_FailingSurrogate(build(config, data), data.values[[3, 77]]))
        return built[-1]

    monkeypatch.setattr(cli, "build_oracle", failing)
    out = tmp_path / "out"
    assert main(["compare", "--config", config_path, "--out", str(out)]) == 0
    first = json.loads((out / "full_trace.meta.json").read_text())
    trace = (out / "full_trace.csv").read_bytes()
    assert main(["compare", "--config", config_path, "--out", str(out)]) == 0
    report = json.loads((out / "scan_report.json").read_text())
    # selection and centroid calls are oracle_evaluations; the rest is the full scan
    assert built[-1].eval_count - report["oracle_evaluations"] == 2
    meta = json.loads((out / "full_trace.meta.json").read_text())
    assert meta["partial"] is True
    assert (out / "full_trace.csv").read_bytes() == trace
    timing = json.loads((out / "timing.json").read_text())
    assert timing["timing"]["full_scan_s"] == meta["elapsed_s"] > first["elapsed_s"]


def test_compare_caps_the_sample_at_the_hours_the_full_scan_resolved(tmp_path, config_path,
                                                                    monkeypatch):
    # 500 hours asked for, 300 in the year, 298 with a known index
    build = cli.build_oracle
    monkeypatch.setattr(
        cli, "build_oracle",
        lambda config, data: _FailingSurrogate(build(config, data), data.values[[3, 77]]),
    )
    out = tmp_path / "out"
    code = main(["compare", "--config", config_path, "--out", str(out),
                 "--set", "scan.sample_size=500"])
    assert code == 0
    report = json.loads((out / "scan_report.json").read_text())
    assert report["validation_excluded"] == 2
    assert len(report["validation"]) == 298


def test_worstcase_from_full_trace(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["fullscan", "--config", config_path, "--out", str(out)]) == 0
    assert main(["worstcase", "--config", config_path, "--out", str(out)]) == 0
    payload = json.loads((out / "worst_case.json").read_text())
    assert {"lambda_argmin_hour", "demand_argmax_hour", "pearson_r",
            "worst_case_shifted"} <= set(payload)


def test_worstcase_requires_trace(tmp_path, config_path, capsys):
    code = main(["worstcase", "--config", config_path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "fullscan" in capsys.readouterr().err


@pytest.mark.parametrize("trace, command", [("full", "fullscan"), ("fast", "fastscan")])
def test_worstcase_rejects_a_trace_of_another_dataset(tmp_path, config_path, capsys, trace,
                                                      command):
    # same hours, other values: the trace's key, not its hours, must decide
    out = tmp_path / "out"
    assert main([command, "--config", config_path, "--out", str(out),
                 "--set", "dataset.synthetic.seed=1"]) == 0
    capsys.readouterr()
    argv = ["worstcase", "--config", config_path, "--out", str(out),
            "--set", f'worstcase.trace="{trace}"']
    assert main(argv + ["--set", "dataset.synthetic.seed=2"]) == 2
    assert command in capsys.readouterr().err
    assert not (out / "worst_case.json").exists()
    assert main(argv + ["--set", "dataset.synthetic.seed=1"]) == 0


def test_select_non_convergence_exits_3(tmp_path, config_path):
    out = tmp_path / "out"
    code = main(
        ["select", "--config", config_path, "--out", str(out),
         "--set", "scan.relief.rho_threshold=1.0", "--set", "scan.relief.epsilon_f=0.0"]
    )
    assert code == 3
    assert (out / "feature_report.json").exists()


def test_csv_dataset_roundtrip_through_cli(tmp_path, config_path):
    gen_out = tmp_path / "gen"
    assert main(["generate", "--config", config_path, "--out", str(gen_out)]) == 0
    csv_config = dict(SMALL_CONFIG)
    csv_config["dataset"] = {"csv": str(gen_out / "dataset.csv")}
    csv_config["oracle"] = {"kind": "two_bus_margin", "E": 1.0, "X": 0.5}
    p = tmp_path / "csv_config.json"
    p.write_text(json.dumps(csv_config))
    out = tmp_path / "out"
    assert main(["fastscan", "--config", p.as_posix(), "--out", str(out)]) == 0
    report = json.loads((out / "scan_report.json").read_text())
    assert len(report["lambda_hat"]) == 300
