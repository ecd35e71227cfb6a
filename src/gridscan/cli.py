"""Command-line pipeline with reproducible JSON configs.

Subcommands: generate, select, cluster, fullscan, fastscan, compare,
worstcase.  A single JSON config document describes the dataset, the
oracle, and the scan parameters; ``--set dotted.path=value`` overrides
individual fields.  Every run writes a ``run_manifest.json`` with the
resolved config hash and checksums of the deterministic artifacts, so
re-running with the same config reproduces identical outputs (wall-clock
numbers live in the separate, unchecksummed ``timing.json``).  ``select``
and ``cluster`` run the stages of :func:`~gridscan.scanning.fast_scan` on
its seeds, so they write the artifacts ``fastscan`` would.  Artifacts that
later commands reuse (``feature_report.json``, ``cluster_model.json``,
``full_trace.csv``) get a ``<name>.meta.json`` key naming what they were
computed from; they are reused only while that key matches.

Exit codes: 0 success, 2 config/validation error, 3 finished with
non-convergence flags.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import ClusterModel
from .clustering import self_adaptive_pso_kmeans  # noqa: F401  uncalled; perfbench spans wrap it
from .dataset import (
    AttributeKind,
    OperatingPointSet,
    SyntheticYearConfig,
    denormalize,
    generate_synthetic_year,
    load_csv,
    save_csv,
)
from .oracles import DampingSurrogate, StabilityTrace, TwoBusMargin, full_scan
from .relief import select_features  # noqa: F401  uncalled; perfbench spans wrap it
from .scanning import (
    ScanConfig,
    cluster_stage,
    compare_full_vs_fast,
    fast_scan,
    select_stage,
    validate,
    worst_case_analysis,
)


class ConfigError(ValueError):
    """Invalid run config; message names the offending key path."""


def _schema(cls) -> dict:
    """Config keys of a parameter dataclass; nested parameter dataclasses are sections."""
    return {
        f.name: _schema(type(f.default)) if is_dataclass(f.default) else None
        for f in fields(cls)
    }


_SCHEMA = {
    "dataset": {"csv": None, "synthetic": _schema(SyntheticYearConfig)},
    "oracle": dict.fromkeys(
        ["kind", "seed", "b0", "linear", "quadratic", "informative", "E", "X",
         "load_columns", "delay_ms"]
    ),
    "scan": _schema(ScanConfig),
    "worstcase": {"trace": None},
}


def _check_keys(node, schema, path=""):
    if not isinstance(node, dict):
        raise ConfigError(f"config key {path or '<root>'} must be an object")
    for key, value in node.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key {here!r}")
        child = schema[key]
        if isinstance(child, dict) and isinstance(value, dict):
            _check_keys(value, child, here)
        elif isinstance(child, dict) and value is not None:
            raise ConfigError(f"config key {here!r} must be an object")


def _apply_override(config: dict, entry: str):
    if "=" not in entry:
        raise ConfigError(f"--set needs dotted.path=value, got {entry!r}")
    dotted, raw = entry.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {dotted!r} crosses a non-object value")
    node[parts[-1]] = value


def load_config(path: str | None, overrides) -> dict:
    config: dict = {}
    if path:
        try:
            config = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    for entry in overrides or []:
        _apply_override(config, entry)
    _check_keys(config, _SCHEMA)
    return config


def _build(cls, section: dict | None, path: str):
    """A parameter dataclass from a config section; absent keys keep its defaults."""
    kwargs = dict(section or {})
    for f in fields(cls):
        if is_dataclass(f.default) and f.name in kwargs:
            kwargs[f.name] = _build(type(f.default), kwargs[f.name], f"{path}.{f.name}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section {path!r}: {exc}")


def build_dataset(config: dict) -> OperatingPointSet:
    section = config.get("dataset") or {}
    if "csv" in section and "synthetic" in section:
        raise ConfigError("dataset: give either 'csv' or 'synthetic', not both")
    if "csv" in section:
        try:
            return load_csv(section["csv"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"dataset.csv: {exc}")
    return generate_synthetic_year(_synthetic_config(config))


def _synthetic_config(config: dict) -> SyntheticYearConfig:
    section = (config.get("dataset") or {}).get("synthetic")
    return _build(SyntheticYearConfig, section, "dataset.synthetic")


def build_oracle(config: dict, data: OperatingPointSet):
    section = config.get("oracle") or {}
    kind = section.get("kind", "damping_surrogate")
    delay_ms = section.get("delay_ms", 0.0)
    if kind == "damping_surrogate":
        b0 = float(section.get("b0", 5.0))
        if "linear" in section:
            linear = {int(i): float(c) for i, c in section["linear"].items()}
            quadratic = {(int(i), int(j)): float(c) for i, j, c in section.get("quadratic", [])}
            return DampingSurrogate(b0=b0, linear=linear, quadratic=quadratic, delay_ms=delay_ms)
        informative = section.get("informative")
        if informative is None:
            informative = data.metadata.get("informative_indices")
        if not informative:
            raise ConfigError(
                "oracle: damping_surrogate needs 'informative' indices or 'linear' "
                "coefficients (synthetic datasets provide them via metadata)"
            )
        return DampingSurrogate.from_seed(
            informative, seed=int(section.get("seed", 0)), b0=b0, delay_ms=delay_ms
        )
    if kind == "two_bus_margin":
        load_columns = section.get("load_columns")
        if load_columns is None:
            load_columns = data.columns_of_kind(AttributeKind.LOAD_P)
        if not load_columns:
            raise ConfigError("oracle: two_bus_margin found no load_P columns")
        return TwoBusMargin(E=float(section.get("E", 1.0)), X=float(section.get("X", 0.5)),
                            load_indices=load_columns, delay_ms=delay_ms)
    raise ConfigError(f"oracle.kind: unknown kind {kind!r}")


def _pipeline_inputs(config: dict):
    """Dataset, oracle and scan config: what every scanning subcommand starts from."""
    data = build_dataset(config)
    return data, build_oracle(config, data), _build(ScanConfig, config.get("scan"), "scan")


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(out: Path, command: str, config: dict, artifacts) -> Path:
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "config_sha256": _config_hash(config),
        "seed": (config.get("scan") or {}).get("seed", 0),
        "artifacts": {
            name: _sha256_file(out / name) for name in sorted(artifacts)
        },
    }
    path = out / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


def _dataset_hash(data: OperatingPointSet) -> str:
    digest = hashlib.sha256()
    digest.update(data.values.tobytes())
    digest.update(data.timestamps.tobytes())
    return digest.hexdigest()


def _demand_series(data: OperatingPointSet) -> np.ndarray:
    cols = data.columns_of_kind(AttributeKind.LOAD_P)
    if not cols:
        raise ConfigError("worstcase: dataset has no load_P attributes to sum into demand")
    raw = denormalize(data)
    return raw[:, cols].sum(axis=1)


def _cache_key(data, oracle, scan: ScanConfig | None = None) -> dict:
    """What a reusable artifact was computed from: the program version, the
    dataset, the oracle and, for the scan stages, the resolved scan config."""
    key = {"version": __version__, "dataset_sha256": _dataset_hash(data),
           "oracle": oracle.config()}
    if scan is not None:
        key["scan"] = asdict(scan)
    return json.loads(json.dumps(key))  # as it reads back from a meta file


def _meta_path(out: Path, name: str) -> Path:
    return out / f"{name.split('.')[0]}.meta.json"


def _write_keyed(out: Path, name: str, key: dict, **recorded):
    """The meta file of artifact ``name``: its key, its checksum and ``recorded``."""
    meta = {**key, "sha256": _sha256_file(out / name), **recorded}
    _meta_path(out, name).write_text(json.dumps(meta, indent=2))


def _read_keyed(out: Path, name: str, key: dict) -> dict | None:
    """The meta file of artifact ``name`` if it was written under ``key`` and
    the artifact still has the bytes it names; None when either file is
    missing or unreadable."""
    try:
        meta = json.loads(_meta_path(out, name).read_text())
        fresh = (isinstance(meta, dict) and all(meta.get(k) == v for k, v in key.items())
                 and meta.get("sha256") == _sha256_file(out / name))
    except (OSError, ValueError):
        return None
    return meta if fresh else None


def _write_full_trace(out: Path, trace: StabilityTrace, data, oracle):
    """``full_trace.csv`` plus the meta file that keys its reuse by compare."""
    trace.save_csv(out / "full_trace.csv")
    _write_keyed(out, "full_trace.csv", _cache_key(data, oracle),
                 elapsed_s=trace.elapsed_s, partial=trace.partial)


def cmd_generate(args, out: Path, config: dict) -> int:
    target = out / "dataset.csv"
    if target.exists() and not args.force:
        print(f"error: {target} exists; pass --force to overwrite", file=sys.stderr)
        return 2
    data = generate_synthetic_year(_synthetic_config(config))
    save_csv(data, target)
    write_manifest(out, "generate", config, ["dataset.csv", "dataset.csv.norm.json"])
    print(f"wrote {target} ({data.n_points} hours x {data.n_attributes} attributes)")
    return 0


def _write_feature_report(out: Path, report, key: dict):
    report.save_json(out / "feature_report.json")
    report.save_csv(out / "feature_report.csv")
    _write_keyed(out, "feature_report.json", key)


def _write_model(out: Path, model: ClusterModel, data, key: dict):
    """The model, its assignment table, and the meta file keeping its clustering time."""
    model.save_json(out / "cluster_model.json")
    model.save_assignment_csv(out / "assignment.csv", hours=data.timestamps)
    _write_keyed(out, "cluster_model.json", key, clustering_s=model.elapsed_s)


def _cached_model(out: Path, key: dict) -> ClusterModel | None:
    meta = _read_keyed(out, "cluster_model.json", key)
    if meta is None:
        return None
    model = ClusterModel.load_json(out / "cluster_model.json")
    model.elapsed_s = float(meta["clustering_s"])
    return model


def cmd_select(args, out: Path, config: dict) -> int:
    data, oracle, scan = _pipeline_inputs(config)
    report = select_stage(data, oracle, scan)
    _write_feature_report(out, report, _cache_key(data, oracle, scan))
    write_manifest(out, "select", config, ["feature_report.json", "feature_report.csv"])
    print(
        f"feature selection: training_size={report.training_size} "
        f"converged={report.converged} top3={report.top(3)}"
    )
    return 0 if report.converged else 3


def _weights_for_cluster(out: Path, data, oracle, scan: ScanConfig, key: dict) -> np.ndarray:
    """Distance weights of ``feature_report.json`` if it was selected under
    ``key``, else a fresh selection stage's."""
    if _read_keyed(out, "feature_report.json", key) is not None:
        rows = json.loads((out / "feature_report.json").read_text())["attributes"]
        return np.maximum([row["adjusted_weight"] for row in rows], 0.0)
    return select_stage(data, oracle, scan).distance_weights()


def cmd_cluster(args, out: Path, config: dict) -> int:
    data, oracle, scan = _pipeline_inputs(config)
    key = _cache_key(data, oracle, scan)
    model, _ = cluster_stage(data, _weights_for_cluster(out, data, oracle, scan, key), scan)
    _write_model(out, model, data, key)
    write_manifest(out, "cluster", config, ["cluster_model.json", "assignment.csv"])
    print(f"clustering: k={model.k} smse={model.smse:.6f} converged={model.converged}")
    return 0 if model.converged else 3


def cmd_fullscan(args, out: Path, config: dict) -> int:
    data, oracle, _ = _pipeline_inputs(config)
    trace = full_scan(data, oracle)
    _write_full_trace(out, trace, data, oracle)
    trace.save_json(out / "full_trace.json")
    write_manifest(out, "fullscan", config, ["full_trace.csv", "full_trace.json"])
    print(f"full scan: {len(trace.lam)} evaluations in {trace.elapsed_s:.2f} s")
    return 0


def _write_scan_artifacts(out: Path, report, data, key: dict, reused: bool) -> list[str]:
    report.save_json(out / "scan_report.json")
    report.save_trace_csv(out / "scan_trace.csv")
    report.save_histogram_csv(out / "ape_histogram.csv")
    _write_feature_report(out, report.feature_report, key)
    _write_model(out, report.model, data, key)
    _write_keyed(out, "scan_report.json", key)
    timing = {"timing": report.timing, "speedup": report.speedup, "clustering_reused": reused}
    (out / "timing.json").write_text(json.dumps(timing, indent=2))
    return ["scan_report.json", "scan_trace.csv", "ape_histogram.csv", "feature_report.json",
            "feature_report.csv", "cluster_model.json", "assignment.csv"]


def _validate(report, data, oracle, scan: ScanConfig):
    """``validate`` on ``scan.sample_size`` hours, capped at the hours with a
    known index (all of them, or the finite ones of a partial full scan)."""
    failed = () if report.full_trace is None else report.full_trace.failed_hours
    known = data.n_points - len(failed)
    return validate(report, data, oracle, min(scan.sample_size, known), seed=scan.seed)


def _clustering_flag(model) -> str:
    return "clustering=" + ("computed" if model is None else "reused")


def cmd_fastscan(args, out: Path, config: dict) -> int:
    data, oracle, scan = _pipeline_inputs(config)
    key = _cache_key(data, oracle, scan)
    model = _cached_model(out, key)
    report = fast_scan(data, oracle, scan, cached_model=model)
    report = _validate(report, data, oracle, scan)
    artifacts = _write_scan_artifacts(out, report, data, key, model is not None)
    write_manifest(out, "fastscan", config, artifacts)
    print(
        f"fast scan: k={report.k_final} reduction={report.reduction:.3f} "
        f"mape={report.mape:.4f} max_ape={report.max_ape:.4f} flagged={report.flagged} "
        f"{_clustering_flag(model)}"
    )
    return 3 if report.flagged else 0


def _cached_full_trace(out: Path, data, oracle) -> StabilityTrace | None:
    meta = _read_keyed(out, "full_trace.csv", _cache_key(data, oracle))
    if meta is None:
        return None
    trace = StabilityTrace.load_csv(out / "full_trace.csv", kind=oracle.kind)
    trace.elapsed_s = float(meta["elapsed_s"])
    return trace


def cmd_compare(args, out: Path, config: dict) -> int:
    data, oracle, scan = _pipeline_inputs(config)
    key = _cache_key(data, oracle, scan)
    cached, model = _cached_full_trace(out, data, oracle), _cached_model(out, key)
    report = compare_full_vs_fast(data, oracle, scan, cached_full=cached, cached_model=model)
    report = _validate(report, data, oracle, scan)
    artifacts = _write_scan_artifacts(out, report, data, key, model is not None)
    # A partial cached trace had its failed hours evaluated again.
    if cached is None or cached.partial:
        _write_full_trace(out, report.full_trace, data, oracle)
        artifacts.append("full_trace.csv")
    write_manifest(out, "compare", config, artifacts)
    print(
        f"compare: speedup={report.speedup:.2f}x (full {report.timing['full_scan_s']:.2f} s, "
        f"cached={cached is not None} {_clustering_flag(model)}) mape={report.mape:.4f}"
    )
    return 3 if report.flagged else 0


def cmd_worstcase(args, out: Path, config: dict) -> int:
    data, oracle, scan = _pipeline_inputs(config)
    which = (config.get("worstcase") or {}).get("trace", "full")
    if which == "full":
        trace, name, command = _cached_full_trace(out, data, oracle), "full_trace.csv", "fullscan"
    elif which == "fast":
        trace, name, command = None, "scan_report.json", "fastscan"
        if _read_keyed(out, name, _cache_key(data, oracle, scan)) is not None:
            payload = json.loads((out / name).read_text())
            trace = StabilityTrace(hours=payload["hours"], lam=payload["lambda_hat"], kind="fast")
    else:
        print(f"error: worstcase.trace must be 'full' or 'fast', got {which!r}", file=sys.stderr)
        return 2
    if trace is None:
        print(f"error: no {out / name} computed from this config; run {command} first",
              file=sys.stderr)
        return 2
    demand = _demand_series(data)
    result = worst_case_analysis(trace, demand)
    (out / "worst_case.json").write_text(json.dumps(result.to_dict(), indent=2))
    write_manifest(out, "worstcase", config, ["worst_case.json"])
    print(
        f"worst case: min lambda at hour {result.lambda_argmin_hour}, peak demand at "
        f"hour {result.demand_argmax_hour}, shifted={result.shifted}, r={result.pearson_r:.3f}"
    )
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "select": cmd_select,
    "cluster": cmd_cluster,
    "fullscan": cmd_fullscan,
    "fastscan": cmd_fastscan,
    "compare": cmd_compare,
    "worstcase": cmd_worstcase,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridscan",
        description="Fast stability scanning via feature-weighted PSO-k-means clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--set", dest="overrides", action="append", metavar="PATH=VALUE",
            help="override a config field by dotted path (value parsed as JSON)",
        )
        if name == "generate":
            p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, out, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
