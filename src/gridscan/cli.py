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
later commands reuse (``dataset.npz``, ``feature_report.json``,
``cluster_model.json``, ``full_trace.csv``, ``scan_report.json``) get a
``<name>.meta.json`` key naming what they were computed from; one reader,
``_stored``, reuses them only while that key matches, and an artifact that
does not load or does not fit the dataset is no cache.  A dataset CSV is
parsed once per ``--out``: the parse is kept in ``dataset.npz``, keyed by
the program version and the CSV's bytes, and ``generate`` keeps it for the
CSV it writes.  ``scan_report.json`` with the ``cluster_model.json`` of
its key is the stored fast scan, its selection values and validation
samples included: ``fastscan`` and ``compare`` take it in place of a new
one, and neither calls the oracle at an hour it holds.

Exit codes: 0 success, 2 config/validation error or a dataset the
pipeline cannot scan (Relief's neighbours all share one stability index,
``k_init`` exceeds the distinct points, or the oracle fails at a cluster
centroid), 3 finished with non-convergence flags.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import typing
import zipfile
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from types import NoneType

import numpy as np

from . import __version__
from .clustering import ClusterModel, TooFewPointsError
from .clustering import self_adaptive_pso_kmeans  # noqa: F401  uncalled; perfbench spans wrap it
from .dataset import (
    Attribute,
    AttributeKind,
    OperatingPointSet,
    SyntheticYearConfig,
    denormalize,
    generate_synthetic_year,
    load_csv,
    normalize,
    save_csv,
)
from .oracles import ORACLE_KINDS, StabilityTrace, full_scan
from .relief import DegeneratePredictionError, FeatureReport
from .relief import select_features  # noqa: F401  uncalled; perfbench spans wrap it
from .scanning import (
    FailedCentroidError,
    ScanConfig,
    ScanReport,
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
    "scan": _schema(ScanConfig),
    "worstcase": {"trace": None},
}


def _oracle_kind(section) -> tuple:
    """The ``ORACLE_KINDS`` entry (parameters, factory) of an oracle section's kind."""
    kind = (section if isinstance(section, dict) else {}).get("kind", "damping_surrogate")
    if not isinstance(kind, str) or kind not in ORACLE_KINDS:
        raise ConfigError(f"config key 'oracle.kind': unknown kind {kind!r}")
    return ORACLE_KINDS[kind]


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
        except OSError as exc:
            raise ConfigError(f"config file {path}: {exc.strerror}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError("config key <root> must be an object")
    for entry in overrides or []:
        _apply_override(config, entry)
    oracle = _schema(_oracle_kind(config.get("oracle"))[0]) | {"kind": None}
    _check_keys(config, {**_SCHEMA, "oracle": oracle})
    return config


# The value types a scalar field takes from a config: a bool is no number.
_SCALARS = {
    int: ((int,), "an integer"), int | None: ((int, NoneType), "an integer"),
    float: ((int, float), "a number"), float | None: ((int, float, NoneType), "a number"),
}


def _build(cls, section: dict | None, path: str):
    """A parameter dataclass from a config section; absent keys keep its defaults.

    A field typed ``int`` takes only an integer, one typed ``float`` an
    integer or a float; typed ``| None``, either also takes null."""
    kwargs = dict(section or {})
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name not in kwargs:
            continue
        value, hint = kwargs[f.name], hints[f.name]
        if is_dataclass(f.default):
            kwargs[f.name] = _build(type(f.default), value, f"{path}.{f.name}")
        elif hint in _SCALARS and type(value) not in _SCALARS[hint][0]:
            raise ConfigError(f"config key '{path}.{f.name}' must be {_SCALARS[hint][1]}, "
                              f"got {value!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section {path!r}: {exc}")


def build_dataset(config: dict, out: Path) -> OperatingPointSet:
    section = config.get("dataset") or {}
    if "csv" in section and "synthetic" in section:
        raise ConfigError("dataset: give either 'csv' or 'synthetic', not both")
    if "csv" in section:
        try:
            return _csv_dataset(Path(section["csv"]), out)
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"dataset.csv: {exc}")
    return generate_synthetic_year(_synthetic_config(config))


def _csv_key(path: Path) -> dict:
    """What a parse of the CSV at ``path`` is computed from: its bytes and the program version."""
    return {"version": __version__, "csv_sha256": _sha256_file(path)}


def _csv_dataset(path: Path, out: Path) -> OperatingPointSet:
    """``load_csv(path)``, from ``out/dataset.npz`` when that holds the parse
    of these bytes by this program version; else parsed and kept there."""
    key = _csv_key(path)
    data = _stored(out, "dataset.npz", key)
    if data is None:
        data = load_csv(path)
        _keep_dataset(out, data, key)
    return data


def _keep_dataset(out: Path, data: OperatingPointSet, key: dict):
    """``dataset.npz`` and its key file: the parse of the CSV that ``key`` names."""
    np.savez(out / "dataset.npz", values=data.values, timestamps=data.timestamps)
    attributes = [{**asdict(a), "kind": a.kind.value} for a in data.attributes]
    _write_keyed(out, "dataset.npz", key, attributes=attributes)


def _synthetic_config(config: dict) -> SyntheticYearConfig:
    section = (config.get("dataset") or {}).get("synthetic")
    return _build(SyntheticYearConfig, section, "dataset.synthetic")


def build_oracle(config: dict, data: OperatingPointSet):
    section = config.get("oracle") or {}
    params, factory = _oracle_kind(section)
    params = _build(params, {k: v for k, v in section.items() if k != "kind"}, "oracle")
    try:
        return factory(params, data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"oracle: {exc}")


def _pipeline_inputs(config: dict, out: Path):
    """Dataset, oracle and scan config: what every scanning subcommand starts from."""
    data = build_dataset(config, out)
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


def _load(path: Path, meta: dict, key: dict, data):
    """What the keyed artifact at ``path`` holds, with what its meta file
    records; ``ValueError`` if it does not fit ``data``, the run's dataset.
    ``scan_report.json`` is the stored fast scan: its report with the
    ``cluster_model.json`` stored under the same ``key``."""
    match path.name:
        case "dataset.npz":
            with np.load(path) as arrays:
                return OperatingPointSet(
                    attributes=[Attribute(a["name"], AttributeKind(a["kind"]), a["raw_min"],
                                          a["raw_max"]) for a in meta["attributes"]],
                    values=arrays["values"], timestamps=arrays["timestamps"])
        case "feature_report.json":  # the distance weights
            weights = FeatureReport.from_dict(json.loads(path.read_text())).distance_weights()
            if len(weights) != data.n_attributes:
                raise ValueError(f"{path} weighs other attributes than the dataset")
            return weights
        case "cluster_model.json":
            model = ClusterModel.load_json(path)
            labels = model.assignment
            if (model.centroids.shape != (model.k, data.n_attributes)
                    or model.weights.shape != (data.n_attributes,)
                    or labels.shape != (data.n_points,)
                    or labels.min() < 0 or labels.max() >= model.k):
                raise ValueError(f"{path} does not cluster the dataset's hours and attributes")
            model.elapsed_s = float(meta["clustering_s"])
            return model
        case "full_trace.csv":
            trace = StabilityTrace.load_csv(path, kind=meta["oracle"]["kind"])
            trace.elapsed_s = float(meta["elapsed_s"])
            trace.require_hours(data.timestamps, "stored")
            return trace
        case "scan_report.json":
            model = _stored(path.parent, "cluster_model.json", key, data)
            if model is None:
                raise ValueError(f"no model stored for {path}")
            timing = {"feature_selection_s": float(meta["feature_selection_s"]),
                      "clustering_s": model.elapsed_s,
                      "centroid_eval_s": float(meta["centroid_eval_s"])}
            report = ScanReport.from_dict(json.loads(path.read_text()), model, timing)
            if not np.array_equal(report.hours, data.timestamps):
                raise ValueError(f"{path} covers other hours than the dataset")
            return report
        case _:
            raise NotImplementedError(f"no reader for {path.name}")


def _stored(out: Path, name: str, key: dict, data=None):
    """What artifact ``name`` holds if its meta file was written under ``key``
    and the artifact still has the bytes it records; None when either file
    is missing, unreadable or edited, or the artifact does not load or does
    not fit ``data``, the run's dataset (not needed for ``dataset.npz``)."""
    try:
        meta = json.loads(_meta_path(out, name).read_text())
        fresh = (isinstance(meta, dict) and all(meta.get(k) == v for k, v in key.items())
                 and meta.get("sha256") == _sha256_file(out / name))
        return _load(out / name, meta, key, data) if fresh else None
    except (OSError, KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile):
        return None


def _write_full_trace(out: Path, trace: StabilityTrace, data, oracle):
    """``full_trace.csv`` plus the meta file that keys its reuse by later commands."""
    trace.save_csv(out / "full_trace.csv")
    _write_keyed(out, "full_trace.csv", _cache_key(data, oracle),
                 elapsed_s=trace.elapsed_s, partial=trace.partial)


def cmd_generate(args, out: Path, config: dict) -> int:
    target = out / "dataset.csv"
    if target.exists() and not args.force:
        print(f"error: {target} exists; pass --force to overwrite", file=sys.stderr)
        return 2
    data = generate_synthetic_year(_synthetic_config(config))
    # a value the later commands would refuse is refused before anything is written
    build_oracle(config, data)
    _build(ScanConfig, config.get("scan"), "scan")
    _worstcase_trace(config)
    save_csv(data, target)
    # save_csv writes each raw value's repr, so this is load_csv's parse of the file
    _keep_dataset(out, normalize(denormalize(data), data.attribute_names()), _csv_key(target))
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


def cmd_select(args, out: Path, config: dict) -> int:
    data, oracle, scan = _pipeline_inputs(config, out)
    report = select_stage(data, oracle, scan)
    _write_feature_report(out, report, _cache_key(data, oracle, scan))
    write_manifest(out, "select", config, ["feature_report.json", "feature_report.csv"])
    print(
        f"feature selection: training_size={report.training_size} "
        f"converged={report.converged} top3={report.top(3)}"
    )
    return 0 if report.converged else 3


def cmd_cluster(args, out: Path, config: dict) -> int:
    data, oracle, scan = _pipeline_inputs(config, out)
    key = _cache_key(data, oracle, scan)
    weights = _stored(out, "feature_report.json", key, data)
    if weights is None:
        weights = select_stage(data, oracle, scan).distance_weights()
    model = cluster_stage(data, weights, scan)
    _write_model(out, model, data, key)
    write_manifest(out, "cluster", config, ["cluster_model.json", "assignment.csv"])
    print(f"clustering: k={model.k} smse={model.smse:.6f} converged={model.converged}")
    return 0 if model.converged else 3


def cmd_fullscan(args, out: Path, config: dict) -> int:
    data, oracle, _ = _pipeline_inputs(config, out)
    stored = _stored(out, "full_trace.csv", _cache_key(data, oracle), data)
    # a stored trace is paid for except at its failed hours
    todo = data.n_points if stored is None else len(stored.failed_hours)
    trace = full_scan(data, oracle, resume=stored)
    _write_full_trace(out, trace, data, oracle)
    trace.save_json(out / "full_trace.json")
    write_manifest(out, "fullscan", config, ["full_trace.csv", "full_trace.json"])
    print(f"full scan: {todo} of {len(trace.lam)} hours evaluated; "
          f"the trace took {trace.elapsed_s:.2f} s")
    return 0


def _write_scan_artifacts(out: Path, report, data, key: dict, reused: bool) -> list[str]:
    report.save_json(out / "scan_report.json")
    report.save_trace_csv(out / "scan_trace.csv")
    report.save_histogram_csv(out / "ape_histogram.csv")
    _write_feature_report(out, report.feature_report, key)
    _write_model(out, report.model, data, key)
    _write_keyed(out, "scan_report.json", key, **{
        stage: report.timing[stage] for stage in ("feature_selection_s", "centroid_eval_s")})
    timing = {"timing": report.timing, "speedup": report.speedup, "clustering_reused": reused}
    (out / "timing.json").write_text(json.dumps(timing, indent=2))
    return ["scan_report.json", "scan_trace.csv", "ape_histogram.csv", "feature_report.json",
            "feature_report.csv", "cluster_model.json", "assignment.csv"]


def _fast_scan(out: Path, key: dict, data, oracle, scan: ScanConfig) -> tuple[ScanReport, bool]:
    """The run's fast scan, and whether its clustering was reused: the
    stored scan, else a new one on the stored model (when that fits)."""
    report = _stored(out, "scan_report.json", key, data)
    if report is not None:
        return report, True
    model = _stored(out, "cluster_model.json", key, data)
    report = fast_scan(data, oracle, scan, cached_model=model)
    return report, report.model is model


def _clustering_flag(reused: bool) -> str:
    return "clustering=" + ("reused" if reused else "computed")


def cmd_fastscan(args, out: Path, config: dict) -> int:
    data, oracle, scan = _pipeline_inputs(config, out)
    key = _cache_key(data, oracle, scan)
    report, reused = _fast_scan(out, key, data, oracle, scan)
    report = validate(report, data, oracle, min(scan.sample_size, data.n_points), seed=scan.seed,
                      known=_stored(out, "full_trace.csv", _cache_key(data, oracle), data))
    artifacts = _write_scan_artifacts(out, report, data, key, reused)
    write_manifest(out, "fastscan", config, artifacts)
    print(
        f"fast scan: k={report.k_final} reduction={report.reduction:.3f} "
        f"mape={report.mape:.4f} max_ape={report.max_ape:.4f} flagged={report.flagged} "
        f"{_clustering_flag(reused)}"
    )
    return 3 if report.flagged else 0


def cmd_compare(args, out: Path, config: dict) -> int:
    data, oracle, scan = _pipeline_inputs(config, out)
    key = _cache_key(data, oracle, scan)
    cached = _stored(out, "full_trace.csv", _cache_key(data, oracle), data)
    report, reused = _fast_scan(out, key, data, oracle, scan)
    report = compare_full_vs_fast(data, oracle, scan, cached_full=cached, fast=report)
    report = validate(report, data, oracle, min(scan.sample_size, data.n_points), seed=scan.seed)
    artifacts = _write_scan_artifacts(out, report, data, key, reused)
    # A partial cached trace had its failed hours evaluated again.
    if cached is None or cached.partial:
        _write_full_trace(out, report.full_trace, data, oracle)
        artifacts.append("full_trace.csv")
    write_manifest(out, "compare", config, artifacts)
    print(
        f"compare: speedup={report.speedup:.2f}x (full {report.timing['full_scan_s']:.2f} s, "
        f"cached={cached is not None} {_clustering_flag(reused)}) mape={report.mape:.4f}"
    )
    return 3 if report.flagged else 0


def _worstcase_trace(config: dict) -> tuple[str, str]:
    """The stored trace ``worstcase`` reads and the command that writes it."""
    which = (config.get("worstcase") or {}).get("trace", "full")
    if which not in ("full", "fast"):
        raise ConfigError(f"worstcase.trace must be 'full' or 'fast', got {which!r}")
    return ("full_trace.csv", "fullscan") if which == "full" else ("scan_report.json", "fastscan")


def cmd_worstcase(args, out: Path, config: dict) -> int:
    name, command = _worstcase_trace(config)
    data, oracle, scan = _pipeline_inputs(config, out)
    key = _cache_key(data, oracle, scan if command == "fastscan" else None)
    trace = _stored(out, name, key, data)
    if trace is None:
        print(f"error: no {out / name} computed from this config; run {command} first",
              file=sys.stderr)
        return 2
    if isinstance(trace, ScanReport):  # the fast scan's trace is its imputed indices
        trace = StabilityTrace(hours=trace.hours, lam=trace.lambda_hat, kind="fast")
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
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out}: {exc.strerror}")
        return _COMMANDS[args.command](args, out, config)
    except (ConfigError, DegeneratePredictionError, TooFewPointsError, FailedCentroidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
