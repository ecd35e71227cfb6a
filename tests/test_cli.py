import hashlib
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gridscan as gs
from gridscan import cli, scanning
from gridscan.cli import main
from gridscan.oracles import ORACLE_KINDS, DampingSurrogate

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


# An override that makes the oracle section a two-bus one; setting only
# oracle.kind would leave the damping surrogate's seed in it.
TWO_BUS = 'oracle={"kind": "two_bus_margin"}'


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(SMALL_CONFIG))
    return str(p)


@pytest.fixture()
def csv_config_path(tmp_path, config_path):
    """The test config with its year read back from ``generate``'s CSV."""
    gen = tmp_path / "gen"
    assert main(["generate", "--config", config_path, "--out", str(gen)]) == 0
    config = dict(SMALL_CONFIG, dataset={"csv": str(gen / "dataset.csv")},
                  oracle={"kind": "two_bus_margin"})
    p = tmp_path / "csv_config.json"
    p.write_text(json.dumps(config))
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
    # a file whose root is not an object, with an override to apply to it
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    code = main(["generate", "--config", str(listed), "--out", str(tmp_path / "o"),
                 "--set", "scan.seed=1"])
    assert code == 2
    assert "<root> must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("command, override", [
    ("fastscan", "scan.seed=1.5"),
    ("fastscan", "scan.seed=-1"),
    ("fastscan", "scan.pso.n_iter=2.5"),
    ("fastscan", "scan.relief.batch=7.5"),
    ("fastscan", "scan.relief.k=3.0"),
    ("fastscan", "scan.sample_size=2.5"),
    ("fastscan", "scan.adapt.k_init=4.5"),
    ("fastscan", "scan.adapt.max_outer=true"),
    ("generate", "dataset.synthetic.n_hours=100.5"),
    ("generate", "dataset.synthetic.seed=-1"),
    ("generate", 'dataset.synthetic.seed="1"'),
    ("select", "scan.C=-1"),
    ("select", 'scan.C="abc"'),
    # a negative drift bound lets no pass count as stable
    ("select", "scan.relief.epsilon_f=-1"),
    ("fastscan", "scan.pso.c1=true"),
    ("fastscan", "scan.adapt.eps_d=true"),
    ("generate", "dataset.synthetic.noise_sigma=false"),
    # generate checks the sections later commands read, not only its own
    ("generate", "scan.seed=1.5"),
    ("generate", "scan.seed=-1"),
    ("generate", 'worstcase.trace="x"'),
    ("worstcase", 'worstcase.trace="x"'),
])
def test_a_non_integer_or_negative_seed_exits_2(tmp_path, config_path, capsys, monkeypatch,
                                                command, override):
    # a float field takes an integer or a float, never a bool or a string;
    # each value is refused before the oracle is called
    build, built = cli.build_oracle, []
    monkeypatch.setattr(cli, "build_oracle",
                        lambda config, data: built.append(build(config, data)) or built[-1])
    out = tmp_path / "o"
    assert main([command, "--config", config_path, "--out", str(out), "--set", override]) == 2
    key = override.split("=")[0]
    _one_error_line(capsys, key.rsplit(".", 1)[1], key.rsplit(".", 1)[0])
    assert not any(out.iterdir())
    assert all(oracle.eval_count == 0 for oracle in built)


def test_a_config_directory_or_an_out_file_exits_2(tmp_path, config_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["fastscan", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    _one_error_line(capsys, f"config file {tmp_path}")
    assert main(["fastscan", "--config", config_path, "--out", str(afile)]) == 2
    _one_error_line(capsys, f"--out {afile}")
    assert afile.read_text() == ""


@pytest.mark.parametrize("overrides", [
    ['oracle.b0="abc"'],
    ['oracle.seed="abc"'],
    [TWO_BUS, "oracle.E=-1"],
    ["oracle.linear=[1]"],
    ['oracle.linear={"0": 0.5}', "oracle.quadratic=[[0, 1]]"],
    ['oracle.linear={"0": 0.5}', "oracle.quadratic=[0, 1, 0.2]"],
    ['oracle.linear={"0": 0.5}', 'oracle.quadratic={"0": 1}'],
    [TWO_BUS, "oracle.E=true"],
    ["oracle.delay_ms=-5"],
    [TWO_BUS, "oracle.delay_ms=-5"],
])
def test_bad_oracle_value_exits_2(tmp_path, config_path, capsys, overrides):
    sets = [arg for entry in overrides for arg in ("--set", entry)]
    for command in ("fullscan", "generate"):
        out = tmp_path / command
        assert main([command, "--config", config_path, "--out", str(out)] + sets) == 2
        _one_error_line(capsys, "oracle", overrides[-1].split("=")[0].split(".")[1])
        assert not any(out.iterdir())


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("overrides, key", [
    (["oracle.E=2"], "'oracle.E'"),
    (["oracle.load_columns=[0]"], "'oracle.load_columns'"),
    ([TWO_BUS, "oracle.b0=7"], "'oracle.b0'"),
    ([TWO_BUS, "oracle.informative=[0]"], "'oracle.informative'"),
    # the test config's oracle section holds the damping surrogate's seed
    (['oracle.kind="two_bus_margin"'], "'oracle.seed'"),
    (['oracle.kind="least_damped_mode"'], "'oracle.kind'"),
    (["oracle.kind=3"], "'oracle.kind'"),
])
def test_a_key_of_another_oracle_kind_or_an_unknown_kind_exits_2(tmp_path, config_path, capsys,
                                                                 command, overrides, key):
    out = tmp_path / "o"
    argv = [command, "--config", config_path, "--out", str(out)]
    for entry in overrides:
        argv += ["--set", entry]
    assert main(argv) == 2
    _one_error_line(capsys, key)
    assert not out.exists()


def test_each_oracle_kind_takes_the_fields_of_its_parameters_and_kind():
    every = {f.name for params, _ in ORACLE_KINDS.values() for f in fields(params)}
    for kind, (params, _) in ORACLE_KINDS.items():
        own = {f.name for f in fields(params)}
        accepted = {name for name in every if _loads(f'oracle.kind="{kind}"', f"oracle.{name}=1")}
        assert accepted == own and "delay_ms" in own and _loads(f'oracle.kind="{kind}"'), kind


def _loads(*overrides) -> bool:
    try:
        cli.load_config(None, overrides)
    except cli.ConfigError:
        return False
    return True


def test_the_readme_config_block_is_a_valid_config_of_the_default_scan(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    path = tmp_path / "readme.json"
    path.write_text(block)
    config = cli.load_config(str(path), [])
    assert cli._build(scanning.ScanConfig, config["scan"], "scan") == scanning.ScanConfig()
    data = cli.build_dataset(config, tmp_path)
    assert data.n_points == 8760
    assert cli.build_oracle(config, data).config()["seed"] == config["oracle"]["seed"]


@pytest.mark.parametrize("command", ["fullscan", "fastscan"])
@pytest.mark.parametrize("overrides, key", [
    (["oracle.informative=[0, 99]"], "informative"),
    ([TWO_BUS, "oracle.load_columns=[99]"], "load_columns"),
    ([TWO_BUS, "oracle.load_columns=[-1]"], "load_columns"),
    (['oracle.linear={"0": 0.5, "6": 1.0}'], "linear"),
    (['oracle.linear={"0": 0.5}', "oracle.quadratic=[[0, 99, 0.2]]"], "quadratic"),
])
def test_out_of_range_oracle_index_exits_2(tmp_path, config_path, capsys, command,
                                           overrides, key):
    # an index past the 6 attributes is a config error, not a scan of failed calls
    out = tmp_path / "o"
    argv = [command, "--config", config_path, "--out", str(out)]
    for entry in overrides:
        argv += ["--set", entry]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: oracle: {key} index " in err and "out of range for 6 attributes" in err
    assert not (out / "full_trace.csv").exists() and not (out / "scan_report.json").exists()


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


def test_staged_run_clusters_once_and_matches_fresh_runs(tmp_path, csv_config_path, capsys,
                                                         monkeypatch):
    config_path = csv_config_path
    fresh = {}
    for command in ("fastscan", "compare"):
        assert main([command, "--config", config_path, "--out", str(tmp_path / command)]) == 0
        fresh[command] = _manifest_files(tmp_path / command)
    out = tmp_path / "out"
    assert main(["select", "--config", config_path, "--out", str(out)]) == 0
    # later commands read select's parse of the CSV from dataset.npz
    monkeypatch.setattr(cli, "load_csv", lambda path: pytest.fail("parsed the CSV again"))
    assert main(["cluster", "--config", config_path, "--out", str(out)]) == 0
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
        assert "dataset.npz" not in json.loads((out / "run_manifest.json").read_text())["artifacts"]
        timing = json.loads((out / "timing.json").read_text())
        assert timing["clustering_reused"] is True
        assert timing["timing"]["clustering_s"] == recorded
    # rewriting the reused model keeps its recorded seconds
    assert json.loads((out / "cluster_model.meta.json").read_text())["clustering_s"] == recorded


@pytest.mark.parametrize("override", [
    "dataset.synthetic.seed=6", "oracle.seed=3", "scan.seed=1", "scan.pso.n_iter=5",
    "scan.adapt.max_outer=30", "oracle.informative=[1, 0]",
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


def test_an_oracle_config_that_resolves_alike_reuses_the_clustering(tmp_path, config_path,
                                                                    capsys):
    # the key holds the resolved parameters: the test year's informative
    # attributes are 0 and 1, so naming them builds the same oracle
    out = tmp_path / "out"
    assert main(["fastscan", "--config", config_path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["fastscan", "--config", config_path, "--out", str(out),
                 "--set", "oracle.informative=[0, 1]"]) == 0
    assert "clustering=reused" in capsys.readouterr().out


def test_another_program_version_reclusters(tmp_path, config_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert main(["fastscan", "--config", config_path, "--out", str(out)]) == 0
    assert main(["fastscan", "--config", config_path, "--out", str(out)]) == 0
    assert "clustering=reused" in capsys.readouterr().out
    monkeypatch.setattr(cli, "__version__", "0.0.0")
    assert main(["fastscan", "--config", config_path, "--out", str(out)]) == 0
    assert "clustering=computed" in capsys.readouterr().out


# keyed artifact -> (the command that writes it, the command that reuses it,
# what that command prints when it finds no cache)
_REUSED = {
    "feature_report.json": ("select", "cluster", "selected"),
    "cluster_model.json": ("cluster", "fastscan", "clustering=computed"),
    "full_trace.csv": ("fullscan", "compare", "cached=False"),
    "scan_report.json": ("fastscan", "fastscan", "selected"),
}


def _rekey(out, artifact):
    """Rewrite ``artifact``'s key file to name the artifact's current bytes."""
    meta_path = cli._meta_path(out, artifact)
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "sha256": sha(out / artifact)}))


def _edited_json(edit):
    """A content maker: the artifact's JSON as ``edit`` leaves it."""
    def content(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload, indent=2)
    return content


def _scaled_weights(model):
    model["weights"] = [2 * w for w in model["weights"]]


def _first_ten_hours(payload):
    for name in ("assignment", "hours", "lambda_hat"):
        if name in payload:
            payload[name] = payload[name][:10]


def _label_k(payload):
    payload["assignment"][0] = payload["k" if "k" in payload else "k_final"]


def _k_plus_one(model):
    model["k"] += 1


def _one_attribute_less(model):
    model["centroids"] = [row[:-1] for row in model["centroids"]]


def _later_hours(report):
    report["hours"] = [h + 1 for h in report["hours"]]


_CONTENTS = ["{not json", "[]", '{"k": 1}']
# an artifact or key file given another content, the key file rewritten
# to name the new bytes or not
_DAMAGE = (
    [pytest.param(content, damaged, False, id=f"{content}-{damaged}")
     for content in _CONTENTS for damaged in ("cluster_model.json", "cluster_model.meta.json")]
    # content that does not load, or that loads but does not fit the dataset
    + [pytest.param(content, artifact, True, id=f"{content}-rekeyed-{artifact}")
       for content in _CONTENTS for artifact in _REUSED]
    + [pytest.param("hour,lambda\n0,0.5\n", "full_trace.csv", True,
                    id="one-hour-rekeyed-full_trace.csv"),
       pytest.param('{"hours": [0], "lambda_hat": [0.5]}', "scan_report.json", True,
                    id="one-hour-rekeyed-scan_report.json"),
       pytest.param('{"attributes": [{"adjusted_weight": 1.0}]}', "feature_report.json", True,
                    id="one-weight-rekeyed-feature_report.json")]
    # a model or a stored scan that loads but does not cluster the dataset's
    # hours and attributes, or a model of other weights than the selection's
    + [pytest.param(_edited_json(edit), "cluster_model.json", True,
                    id=f"{edit.__name__.strip('_')}-rekeyed-cluster_model.json")
       for edit in (_scaled_weights, _first_ten_hours, _label_k, _k_plus_one,
                    _one_attribute_less)]
    + [pytest.param(_edited_json(edit), "scan_report.json", True,
                    id=f"{edit.__name__.strip('_')}-rekeyed-scan_report.json")
       for edit in (_first_ten_hours, _label_k, _later_hours)]
    # the artifact's own bytes plus a newline still load: the checksum decides
    + [pytest.param(None, artifact, False, id=f"edited-{artifact}") for artifact in _REUSED]
)


@pytest.mark.parametrize("content, damaged, rekey", _DAMAGE)
def test_an_unreadable_model_or_key_is_no_cache(tmp_path, config_path, capsys, monkeypatch,
                                                content, damaged, rekey):
    # a damaged key file, an artifact its key file does not name, or one
    # that does not load or fit although its key file names its bytes, is
    # no cache: the command recomputes, or asks for the command that writes it
    artifact = damaged.replace(".meta.json", ".json")
    writer, reader, printed = _REUSED[artifact]
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main([writer, "--config", config_path, "--out", str(out)]) == 0
    if content is None:
        content = (out / damaged).read_text() + "\n"
    elif callable(content):
        content = content((out / damaged).read_text())
    (out / damaged).write_text(content)
    if rekey:
        _rekey(out, artifact)
    for module in (cli, scanning):
        select = module.select_stage
        monkeypatch.setattr(module, "select_stage",
                            lambda *a, select=select, **k: print("selected") or select(*a, **k))
    capsys.readouterr()
    if artifact == "scan_report.json":  # worstcase reads it too, and names its writer
        argv = ["worstcase", "--config", config_path, "--out", str(out)]
        assert main(argv + ["--set", 'worstcase.trace="fast"']) == 2
        _one_error_line(capsys, "run fastscan first")
        assert not (out / "worst_case.json").exists()
    assert main([reader, "--config", config_path, "--out", str(out)]) == 0
    assert printed in capsys.readouterr().out
    assert main([reader, "--config", config_path, "--out", str(fresh)]) == 0
    assert _manifest_files(out) == _manifest_files(fresh)


@pytest.mark.parametrize("meta_file, field, printed", [
    ("cluster_model.meta.json", "clustering_s", "clustering=computed"),
    ("full_trace.meta.json", "elapsed_s", "cached=False"),
])
def test_a_key_file_without_its_recorded_field_is_no_cache(tmp_path, config_path, capsys,
                                                           meta_file, field, printed):
    # the edited key file must act as a deleted one
    out, unkeyed = tmp_path / "out", tmp_path / "unkeyed"
    for path in (out, unkeyed):
        assert main(["cluster", "--config", config_path, "--out", str(path)]) == 0
        assert main(["fullscan", "--config", config_path, "--out", str(path)]) == 0
    meta = json.loads((out / meta_file).read_text())
    del meta[field]
    (out / meta_file).write_text(json.dumps(meta, indent=2))
    (unkeyed / meta_file).unlink()
    capsys.readouterr()
    outputs = ""
    for command in ("fastscan", "compare"):
        assert main([command, "--config", config_path, "--out", str(out)]) == 0
        outputs += capsys.readouterr().out
        assert main([command, "--config", config_path, "--out", str(unkeyed)]) == 0
        assert _manifest_files(out) == _manifest_files(unkeyed), command
    assert printed in outputs


def _odd_year_csv(tmp_path):
    """A CSV whose parse has every attribute kind, a quoted name, a constant
    column, signed zeros and hours out of order."""
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(40, 6))
    raw[:, 4] = 2.5
    raw[::7, 1] = -0.0
    names = ["gen01_P", "load01_P", "load01_Q", 'odd, "name"', "hvdc01_Q", "inter01_P"]
    year = gs.normalize(raw, names)
    year = gs.OperatingPointSet(year.attributes, year.values, rng.permutation(1000)[:40])
    return gs.save_csv(year, tmp_path / "odd.csv")


def _counted_parses(monkeypatch):
    parsed = []

    def load_csv(path):
        parsed.append(path)
        return gs.load_csv(path)

    monkeypatch.setattr(cli, "load_csv", load_csv)
    return parsed


def _assert_same_bits(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    assert got.timestamps.dtype == want.timestamps.dtype
    assert got.timestamps.tobytes() == want.timestamps.tobytes()
    assert [(a.name, a.kind) for a in got.attributes] == [(a.name, a.kind) for a in want.attributes]
    for a, b in zip(got.attributes, want.attributes):
        assert np.float64(a.raw_min).tobytes() == np.float64(b.raw_min).tobytes()
        assert np.float64(a.raw_max).tobytes() == np.float64(b.raw_max).tobytes()
    assert got.metadata == want.metadata


def test_a_run_directory_parses_its_csv_once(tmp_path, monkeypatch):
    path, out = _odd_year_csv(tmp_path), tmp_path / "out"
    out.mkdir()
    config = {"dataset": {"csv": str(path)}}
    parsed = _counted_parses(monkeypatch)
    first = cli.build_dataset(config, out)
    assert (out / "dataset.npz").exists() and (out / "dataset.meta.json").exists()
    cached = [cli.build_dataset(config, out) for _ in range(2)]
    assert len(parsed) == 1
    for data in [first] + cached:
        _assert_same_bits(data, gs.load_csv(path))


def _edit_csv(out, path):
    path.write_text(path.read_text() + "1001," + ",".join(["1.25"] * 6) + "\r\n")


def _drop_attribute_kinds(out, path):
    # the key still matches; the attributes it records do not rebuild
    meta = json.loads((out / "dataset.meta.json").read_text())
    for attribute in meta["attributes"]:
        del attribute["kind"]
    (out / "dataset.meta.json").write_text(json.dumps(meta))


def _rekeyed_npz(edit):
    """``dataset.npz`` edited by ``edit(bytes)``, with a key file that names the new bytes."""
    def damage(out, path):
        npz, meta_path = out / "dataset.npz", out / "dataset.meta.json"
        npz.write_bytes(edit(npz.read_bytes()))
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), "sha256": sha(npz)}))
    return damage


@pytest.mark.parametrize("damage", [
    _edit_csv,
    lambda out, path: (out / "dataset.npz").write_bytes(b"not an npz"),
    lambda out, path: (out / "dataset.npz").write_bytes((out / "dataset.npz").read_bytes()[:-9]),
    lambda out, path: (out / "dataset.meta.json").write_text("{not json"),
    lambda out, path: (out / "dataset.meta.json").write_text("[]"),
    lambda out, path: (out / "dataset.meta.json").write_text('{"k": 1}'),
    lambda out, path: (out / "dataset.meta.json").unlink(),
    _drop_attribute_kinds,
    lambda out, path: setattr(cli, "__version__", "0.0.0"),
    _rekeyed_npz(lambda npz: b"not an npz"),
    _rekeyed_npz(lambda npz: npz[:-9]),
    _rekeyed_npz(lambda npz: b""),
], ids=["edited-csv", "npz-garbage", "npz-truncated", "meta-not-json", "meta-list",
        "meta-other-key", "meta-deleted", "meta-without-kinds", "other-version",
        "rekeyed-npz-garbage", "rekeyed-npz-truncated", "rekeyed-npz-empty"])
def test_a_changed_csv_or_a_damaged_cache_reparses(tmp_path, monkeypatch, damage):
    path, out = _odd_year_csv(tmp_path), tmp_path / "out"
    out.mkdir()
    config = {"dataset": {"csv": str(path)}}
    monkeypatch.setattr(cli, "__version__", cli.__version__)  # restored after the test
    parsed = _counted_parses(monkeypatch)
    cli.build_dataset(config, out)
    damage(out, path)
    data = cli.build_dataset(config, out)
    assert len(parsed) == 2
    _assert_same_bits(data, gs.load_csv(path))
    # the new parse is the cache now
    _assert_same_bits(cli.build_dataset(config, out), data)
    assert len(parsed) == 2


def test_a_csv_that_fails_to_parse_writes_no_cache(tmp_path, capsys):
    path, out = tmp_path / "bad.csv", tmp_path / "out"
    path.write_text("hour,a\n0,1.0\n1,oops\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": {"csv": str(path)}}))
    assert main(["select", "--config", str(config), "--out", str(out)]) == 2
    assert (f"error: dataset.csv: {path}: row 3, column 'a': non-numeric cell 'oops'"
            in capsys.readouterr().err)
    assert not (out / "dataset.npz").exists() and not (out / "dataset.meta.json").exists()


@pytest.mark.parametrize("synthetic", [
    {"n_hours": 300, "n_attributes": 6, "seed": 5, "n_informative": 2},
    {"n_hours": 1000, "n_attributes": 13, "seed": 21},
    {"n_hours": 97, "n_attributes": 3, "seed": 0, "n_informative": 1, "noise_sigma": 0.0},
    {"n_hours": 48, "n_attributes": 4, "seed": 7, "seasonal_amplitude": 0.0,
     "diurnal_amplitude": 0.0, "noise_sigma": 0.0},  # every column constant
])
def test_generate_keeps_the_parse_of_its_csv(tmp_path, monkeypatch, synthetic):
    out = tmp_path / "out"
    path = out / "dataset.csv"
    shape = [a for k, v in synthetic.items() for a in ("--set", f"dataset.synthetic.{k}={v}")]
    assert main(["generate", "--out", str(out)] + shape) == 0
    monkeypatch.setattr(cli, "load_csv", lambda path: pytest.fail("parsed generate's CSV"))
    config = {"dataset": {"csv": str(path)}}
    _assert_same_bits(cli.build_dataset(config, out), gs.load_csv(path))
    # another year in its place keeps its own parse
    other_seed = ["--set", f"dataset.synthetic.seed={synthetic['seed'] + 1}"]
    assert main(["generate", "--out", str(out), "--force"] + shape + other_seed) == 0
    _assert_same_bits(cli.build_dataset(config, out), gs.load_csv(path))
    # a CSV edited after generate parses again
    parsed = _counted_parses(monkeypatch)
    path.write_bytes(path.read_bytes().replace(b"\r\n1,", b"\r\n100001,", 1))
    data = cli.build_dataset(config, out)
    assert len(parsed) == 1 and data.timestamps[1] == 100001
    _assert_same_bits(data, gs.load_csv(path))


def test_select_reads_the_parse_generate_kept(tmp_path, monkeypatch):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    for path in (out, fresh):
        assert main(["generate", "--out", str(path), "--set", "dataset.synthetic.n_hours=300",
                     "--set", "dataset.synthetic.n_attributes=6"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMALL_CONFIG, oracle={"kind": "two_bus_margin"},
                                      dataset={"csv": str(fresh / "dataset.csv")})))
    (fresh / "dataset.npz").unlink()
    assert main(["select", "--config", str(config), "--out", str(fresh)]) == 0
    monkeypatch.setattr(cli, "load_csv", lambda path: pytest.fail("parsed generate's CSV"))
    assert main(["select", "--config", str(config), "--out", str(out),
                 "--set", f"dataset.csv={out / 'dataset.csv'}"]) == 0
    for name in ("feature_report.json", "feature_report.csv"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def _counted_oracles(monkeypatch):
    """The oracles the CLI builds, in order; each counts its calls."""
    build, built = cli.build_oracle, []
    monkeypatch.setattr(cli, "build_oracle",
                        lambda config, data: built.append(build(config, data)) or built[-1])
    return built


def test_compare_and_fastscan_reuse_each_others_fast_scan(tmp_path, config_path, monkeypatch):
    fresh = {}
    for command in ("fastscan", "compare"):
        assert main([command, "--config", config_path, "--out", str(tmp_path / command)]) == 0
        fresh[command] = _manifest_files(tmp_path / command)
    built = _counted_oracles(monkeypatch)
    out = tmp_path / "out"
    assert main(["fastscan", "--config", config_path, "--out", str(out)]) == 0
    meta = json.loads((out / "scan_report.meta.json").read_text())
    payload = json.loads((out / "scan_report.json").read_text())
    held, validated = len(payload["training_lambdas"]), len(payload["validation"])
    assert main(["compare", "--config", config_path, "--out", str(out)]) == 0
    # no selection, centroid or validation call: the sweep of the hours
    # neither the selection nor the validation holds
    assert built[-1].eval_count == 300 - held - validated
    assert _manifest_files(out) == fresh["compare"]
    timing = json.loads((out / "timing.json").read_text())["timing"]
    for stage in ("feature_selection_s", "centroid_eval_s"):
        assert timing[stage] == meta[stage], stage
    # compare kept the full trace, so validation reads it too
    assert main(["fastscan", "--config", config_path, "--out", str(out)]) == 0
    assert built[-1].eval_count == 0
    assert _manifest_files(out) == fresh["fastscan"]

    # with a full trace stored, compare pays nothing at all
    full, unscanned = tmp_path / "full", tmp_path / "unscanned"
    for command in ("fullscan", "fastscan", "compare"):
        assert main([command, "--config", config_path, "--out", str(full)]) == 0
    assert built[-1].eval_count == 0
    for command in ("fullscan", "compare"):
        assert main([command, "--config", config_path, "--out", str(unscanned)]) == 0
    assert _manifest_files(full) == _manifest_files(unscanned)


def test_a_run_directory_pays_for_each_hour_once(tmp_path, config_path, monkeypatch):
    # generate -> fastscan -> fastscan -> compare -> fastscan: the selection,
    # the validation and compare's sweep each pay for hours the others do
    # not hold, and each centroid is paid for once
    out = tmp_path / "out"
    assert main(["generate", "--config", config_path, "--out", str(out)]) == 0
    config = tmp_path / "csv_config.json"
    config.write_text(json.dumps(dict(SMALL_CONFIG, dataset={"csv": str(out / "dataset.csv")},
                                      oracle={"kind": "two_bus_margin"})))
    fresh = {}
    for command in ("fastscan", "compare"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
        fresh[command] = _manifest_files(tmp_path / command)
    built = _counted_oracles(monkeypatch)
    paid = []
    for command in ("fastscan", "fastscan", "compare", "fastscan"):
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        paid.append(built[-1].eval_count)
        assert _manifest_files(out) == fresh[command], command
    payload = json.loads((out / "scan_report.json").read_text())
    held, validated = len(payload["training_lambdas"]), len(payload["validation"])
    assert paid == [held + payload["k_final"] + validated, 0, 300 - held - validated, 0]
    assert sum(paid) == 300 + payload["k_final"]


@pytest.mark.parametrize("edit, rekey", [
    (lambda text: text + "\n", False),
    (_edited_json(_scaled_weights), True),
    (_edited_json(_first_ten_hours), True),
], ids=["edited", "scaled_weights-rekeyed", "first_ten_hours-rekeyed"])
def test_a_stored_scan_whose_model_is_edited_is_no_cache(tmp_path, config_path, monkeypatch,
                                                         capsys, edit, rekey):
    # the stored fast scan is scan_report.json with its model: without
    # that model, compare selects, clusters and evaluates the centroids again
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    built = _counted_oracles(monkeypatch)
    assert main(["compare", "--config", config_path, "--out", str(fresh)]) == 0
    paid = built[-1].eval_count
    assert main(["fastscan", "--config", config_path, "--out", str(out)]) == 0
    model = out / "cluster_model.json"
    model.write_text(edit(model.read_text()))
    if rekey:
        _rekey(out, "cluster_model.json")
    capsys.readouterr()
    assert main(["compare", "--config", config_path, "--out", str(out)]) == 0
    assert "clustering=computed" in capsys.readouterr().out
    assert built[-1].eval_count == paid
    assert _manifest_files(out) == _manifest_files(fresh)


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


def test_fastscan_validates_from_fullscans_trace(tmp_path, config_path, monkeypatch):
    build, built = cli.build_oracle, []

    def counted(config, data):
        built.append(build(config, data))
        return built[-1]

    monkeypatch.setattr(cli, "build_oracle", counted)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert main(["fastscan", "--config", config_path, "--out", str(fresh)]) == 0
    paid = json.loads((fresh / "scan_report.json").read_text())["oracle_evaluations"]
    assert built[-1].eval_count > paid  # validation called the oracle
    assert main(["fullscan", "--config", config_path, "--out", str(out)]) == 0
    assert main(["fastscan", "--config", config_path, "--out", str(out)]) == 0
    # selection and centroids only: every sampled hour came from full_trace.csv
    assert built[-1].eval_count == paid
    assert _manifest_files(out) == _manifest_files(fresh)


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


class _OffDataFailure(DampingSurrogate):
    """A surrogate whose solver fails at every point that is no hour of ``data``."""

    def __init__(self, base, data):
        super().__init__(base.b0, base.linear, base.quadratic)
        self.hours = {p.tobytes() for p in data.values}

    def _evaluate(self, point):
        if point.tobytes() not in self.hours:
            raise RuntimeError("solver diverged")
        return super()._evaluate(point)


@pytest.mark.parametrize("command", ["fastscan", "compare"])
def test_a_failed_call_at_a_centroid_exits_2(tmp_path, config_path, capsys, monkeypatch,
                                             command):
    build = cli.build_oracle
    monkeypatch.setattr(cli, "build_oracle",
                        lambda config, data: _OffDataFailure(build(config, data), data))
    out = tmp_path / "o"
    assert main([command, "--config", config_path, "--out", str(out)]) == 2
    _one_error_line(capsys, "oracle returned nan at points [", "centroids, or raised there")
    assert not (out / "scan_report.json").exists()


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
    # the stored fast scan is reused: the failed hours are the only calls
    assert built[-1].eval_count == 2
    meta = json.loads((out / "full_trace.meta.json").read_text())
    assert meta["partial"] is True
    assert (out / "full_trace.csv").read_bytes() == trace
    timing = json.loads((out / "timing.json").read_text())
    assert timing["timing"]["full_scan_s"] == meta["elapsed_s"] > first["elapsed_s"]


@pytest.mark.parametrize("writer", ["fullscan", "compare"])
def test_fullscan_reuses_a_stored_full_trace(tmp_path, config_path, capsys, monkeypatch, writer):
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert main(["fullscan", "--config", config_path, "--out", str(fresh)]) == 0
    assert main([writer, "--config", config_path, "--out", str(out)]) == 0
    meta = json.loads((out / "full_trace.meta.json").read_text())
    build, built = cli.build_oracle, []
    monkeypatch.setattr(cli, "build_oracle",
                        lambda config, data: built.append(build(config, data)) or built[-1])
    capsys.readouterr()
    assert main(["fullscan", "--config", config_path, "--out", str(out)]) == 0
    assert built[-1].eval_count == 0
    assert "0 of 300 hours evaluated" in capsys.readouterr().out
    assert json.loads((out / "full_trace.meta.json").read_text()) == meta
    assert _manifest_files(out) == _manifest_files(fresh)


def test_second_fullscan_evaluates_only_the_failed_hours(tmp_path, config_path, capsys,
                                                          monkeypatch):
    build, built = cli.build_oracle, []

    def failing(config, data):
        built.append(_FailingSurrogate(build(config, data), data.values[[3, 77]]))
        return built[-1]

    monkeypatch.setattr(cli, "build_oracle", failing)
    out = tmp_path / "out"
    assert main(["fullscan", "--config", config_path, "--out", str(out)]) == 0
    first = json.loads((out / "full_trace.meta.json").read_text())
    trace = (out / "full_trace.csv").read_bytes()
    capsys.readouterr()
    assert main(["fullscan", "--config", config_path, "--out", str(out)]) == 0
    assert built[-1].eval_count == 2
    assert "2 of 300 hours evaluated" in capsys.readouterr().out
    meta = json.loads((out / "full_trace.meta.json").read_text())
    assert meta["partial"] is True
    assert (out / "full_trace.csv").read_bytes() == trace
    assert meta["elapsed_s"] > first["elapsed_s"]


def test_fullscan_recomputes_a_stored_trace_of_other_hours(tmp_path, config_path, capsys):
    # the key file names the edited bytes, which load but hold one hour of 300
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(["fullscan", "--config", config_path, "--out", str(out)]) == 0
    (out / "full_trace.csv").write_text("hour,lambda\n0,0.5\n")
    meta = json.loads((out / "full_trace.meta.json").read_text())
    (out / "full_trace.meta.json").write_text(
        json.dumps({**meta, "sha256": sha(out / "full_trace.csv")}))
    capsys.readouterr()
    assert main(["fullscan", "--config", config_path, "--out", str(out)]) == 0
    assert "300 of 300 hours evaluated" in capsys.readouterr().out
    assert main(["fullscan", "--config", config_path, "--out", str(fresh)]) == 0
    assert _manifest_files(out) == _manifest_files(fresh)


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
    assert report["validation_excluded"] == [3, 77]
    assert len(report["validation"]) == 298


def test_fastscan_leaves_out_the_hours_a_partial_full_trace_records_as_failed(
        tmp_path, config_path, monkeypatch):
    # every hour is sampled, hours 3 and 77 among them; both failed in
    # fullscan, and validation reads that without calling the oracle again
    sample_all = ["--set", "scan.sample_size=300"]
    fresh, complete, out = tmp_path / "fresh", tmp_path / "complete", tmp_path / "out"
    assert main(["fastscan", "--config", config_path, "--out", str(fresh)] + sample_all) == 0
    assert main(["fullscan", "--config", config_path, "--out", str(complete)]) == 0
    assert main(["fastscan", "--config", config_path, "--out", str(complete)] + sample_all) == 0
    assert (complete / "scan_report.json").read_bytes() == (fresh / "scan_report.json").read_bytes()

    build, built = cli.build_oracle, []

    def failing(config, data):
        built.append(_FailingSurrogate(build(config, data), data.values[[3, 77]]))
        return built[-1]

    monkeypatch.setattr(cli, "build_oracle", failing)
    assert main(["fullscan", "--config", config_path, "--out", str(out)]) == 0
    assert main(["fastscan", "--config", config_path, "--out", str(out)] + sample_all) == 0
    report = json.loads((out / "scan_report.json").read_text())
    assert built[-1].eval_count == report["oracle_evaluations"]
    assert report["validation_excluded"] == [3, 77]
    assert len(report["validation"]) == 298
    assert not {3, 77} & {s["hour"] for s in report["validation"]}

    # a fresh fastscan calls the oracle at those hours and a fresh compare
    # sweeps them; both leave them out alike
    block = ("validation", "mape", "max_ape", "histogram", "validation_excluded")
    for command in ("fastscan", "compare"):
        run = tmp_path / f"fresh_{command}"
        assert main([command, "--config", config_path, "--out", str(run)] + sample_all) == 0
        other = json.loads((run / "scan_report.json").read_text())
        assert {k: other[k] for k in block} == {k: report[k] for k in block}
    assert ((tmp_path / "fresh_fastscan" / "scan_report.json").read_bytes()
            == (out / "scan_report.json").read_bytes())


def test_second_fastscan_calls_no_hour_its_validation_left_out(tmp_path, config_path,
                                                               monkeypatch):
    # every hour is sampled; the solver fails at hours 3 and 77, so the
    # first fastscan lists them, the second calls neither again, and
    # compare's sweep retries exactly them
    sample_all = ["--set", "scan.sample_size=300"]
    build, built = cli.build_oracle, []

    def failing(config, data):
        built.append(_FailingSurrogate(build(config, data), data.values[[3, 77]]))
        return built[-1]

    monkeypatch.setattr(cli, "build_oracle", failing)
    out = tmp_path / "out"
    assert main(["fastscan", "--config", config_path, "--out", str(out)] + sample_all) == 0
    first = (out / "scan_report.json").read_bytes()
    assert json.loads(first)["validation_excluded"] == [3, 77]
    assert main(["fastscan", "--config", config_path, "--out", str(out)] + sample_all) == 0
    assert built[-1].eval_count == 0
    assert (out / "scan_report.json").read_bytes() == first
    assert main(["compare", "--config", config_path, "--out", str(out)] + sample_all) == 0
    assert built[-1].eval_count == 2
    assert json.loads((out / "full_trace.meta.json").read_text())["partial"] is True


def _repeated_year_csv(tmp_path, n_distinct, copies):
    """A CSV year of ``n_distinct`` hours, each repeated ``copies`` times in
    shuffled order, with the two-bus oracle as its config."""
    year = gs.generate_synthetic_year(gs.SyntheticYearConfig(n_hours=n_distinct, n_attributes=6,
                                                             seed=5, n_informative=2))
    rows = np.random.default_rng(0).permutation(np.repeat(np.arange(n_distinct), copies))
    repeated = gs.OperatingPointSet(year.attributes, year.values[rows], np.arange(len(rows)))
    path = gs.save_csv(repeated, tmp_path / "repeated.csv")
    config = dict(SMALL_CONFIG, dataset={"csv": str(path)}, oracle={"kind": "two_bus_margin"})
    config_path = tmp_path / "repeated.json"
    config_path.write_text(json.dumps(config))
    return str(config_path)


def _one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize("n_distinct, copies, k_init, message", [
    (240, 1, 300, "k_init=300 exceeds the number of points 240"),
    (60, 4, 61, "only 60 distinct points, cannot seed k=61"),
])
def test_cluster_with_k_init_above_the_points_exits_2(tmp_path, capsys, n_distinct, copies,
                                                      k_init, message):
    config_path = _repeated_year_csv(tmp_path, n_distinct, copies)
    code = main(["cluster", "--config", config_path, "--out", str(tmp_path / "out"),
                 "--set", f"scan.adapt.k_init={k_init}"])
    assert code == 2
    _one_error_line(capsys, message)
    assert not (tmp_path / "out" / "cluster_model.json").exists()


def test_select_on_a_few_repeated_hours_exits_2(tmp_path, capsys):
    # every point's neighbours are its own copies, so no neighbour differs
    # in stability index and Relief's weights are undefined
    config_path = _repeated_year_csv(tmp_path, 5, 48)
    assert main(["select", "--config", config_path, "--out", str(tmp_path / "out")]) == 2
    _one_error_line(capsys, "degenerate prediction diversity")
    assert not (tmp_path / "out" / "feature_report.json").exists()


@pytest.mark.parametrize("command", ["select", "cluster", "fastscan", "compare"])
def test_a_year_of_no_more_hours_than_relief_k_exits_2(tmp_path, config_path, capsys, command):
    # five hours and relief.k=5: no training set outnumbers the neighbours
    code = main([command, "--config", config_path, "--out", str(tmp_path / "out"),
                 "--set", "dataset.synthetic.n_hours=5"])
    assert code == 2
    _one_error_line(capsys, "dataset too small: 5 usable points, need more than k=5")


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
