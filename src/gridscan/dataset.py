"""Operating-point data model: ingestion, normalization, synthetic years.

An operating point is one hourly steady-state snapshot of the system,
described by a vector of attribute values (generator P/Q, load P/Q,
interconnector and HVDC flows).  Every downstream module works on the
normalized matrix held by :class:`OperatingPointSet`, whose entries all lie
in [-1, 1].  Normalization parameters are kept per attribute so that raw
values can be recovered.
"""

from __future__ import annotations

import csv
import enum
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


class AttributeKind(str, enum.Enum):
    GENERATOR_P = "generator_P"
    GENERATOR_Q = "generator_Q"
    LOAD_P = "load_P"
    LOAD_Q = "load_Q"
    INTERCONNECTOR_P = "interconnector_P"
    INTERCONNECTOR_Q = "interconnector_Q"
    HVDC_P = "hvdc_P"
    HVDC_Q = "hvdc_Q"
    OTHER = "other"


_KIND_PREFIXES = {
    "gen": ("generator_P", "generator_Q"),
    "sync": ("generator_P", "generator_Q"),
    "wf": ("generator_P", "generator_Q"),
    "pv": ("generator_P", "generator_Q"),
    "csp": ("generator_P", "generator_Q"),
    "load": ("load_P", "load_Q"),
    "inter": ("interconnector_P", "interconnector_Q"),
    "hvdc": ("hvdc_P", "hvdc_Q"),
}


def kind_from_name(name: str) -> AttributeKind:
    """Guess the attribute kind from a ``<prefix>..._P`` / ``_Q`` name."""
    lowered = name.lower()
    if lowered.endswith("_p"):
        slot = 0
    elif lowered.endswith("_q"):
        slot = 1
    else:
        return AttributeKind.OTHER
    for prefix, kinds in _KIND_PREFIXES.items():
        if lowered.startswith(prefix):
            return AttributeKind(kinds[slot])
    return AttributeKind.OTHER


@dataclass(frozen=True)
class Attribute:
    """One steady-state variable plus its raw-unit range.

    ``raw_min`` / ``raw_max`` are the column extrema seen at normalization
    time; they define the affine map back to native units.
    """

    name: str
    kind: AttributeKind = AttributeKind.OTHER
    raw_min: float = -1.0
    raw_max: float = 1.0

    def __post_init__(self):
        if self.raw_min > self.raw_max:
            raise ValueError(
                f"attribute {self.name!r}: raw_min {self.raw_min} > raw_max {self.raw_max}"
            )


@dataclass(frozen=True)
class OperatingPointSet:
    """Normalized |R| x |A| matrix of hourly operating points.

    ``values`` is read-only; every entry lies in [-1, 1].  ``timestamps``
    are 0-based hour indices with no duplicates.  ``metadata`` carries
    generator-side annotations (e.g. which attributes a synthetic stability
    index depends on) and is never interpreted by the core algorithms.
    """

    attributes: tuple[Attribute, ...]
    values: np.ndarray
    timestamps: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        timestamps = np.asarray(self.timestamps, dtype=int)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D matrix")
        if values.shape[1] != len(self.attributes):
            raise ValueError(
                f"{values.shape[1]} columns but {len(self.attributes)} attributes"
            )
        if values.shape[0] != timestamps.shape[0]:
            raise ValueError("row count does not match timestamp count")
        if len(np.unique(timestamps)) != len(timestamps):
            raise ValueError("duplicate timestamps")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite values in operating-point matrix")
        if values.size and (values.min() < -1.0 or values.max() > 1.0):
            raise ValueError("normalized values must lie in [-1, 1]")
        values = values.copy()
        values.setflags(write=False)
        timestamps = timestamps.copy()
        timestamps.setflags(write=False)
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "timestamps", timestamps)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.values.shape[1]

    def attribute_names(self) -> list[str]:
        return [a.name for a in self.attributes]

    def columns_of_kind(self, kind: AttributeKind) -> list[int]:
        return [i for i, a in enumerate(self.attributes) if a.kind == kind]


def normalize(raw_matrix, attributes) -> OperatingPointSet:
    """Min-max map each column of ``raw_matrix`` onto [-1, 1].

    Column extrema are taken from the data itself and stored on the
    returned attributes so :func:`denormalize` can invert the map.  A
    constant column maps to 0 everywhere (midpoint) instead of being
    dropped, keeping attribute indices stable.

    Parameters
    ----------
    raw_matrix : array_like, shape (n_points, n_attributes)
        Native-unit values; must be finite.
    attributes : sequence of Attribute or str
        Column descriptors; plain strings become Attribute(name).

    Returns
    -------
    OperatingPointSet
        Normalized set with timestamps 0..n_points-1.
    """
    raw = np.asarray(raw_matrix, dtype=float)
    if raw.ndim != 2:
        raise ValueError("raw matrix must be 2-D")
    bad = np.argwhere(~np.isfinite(raw))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"non-finite value at row {r}, column {c}")
    attrs = []
    for i, a in enumerate(attributes):
        if isinstance(a, str):
            a = Attribute(name=a, kind=kind_from_name(a))
        attrs.append(a)
    if len(attrs) != raw.shape[1]:
        raise ValueError(f"{raw.shape[1]} columns but {len(attrs)} attributes")

    lo = raw.min(axis=0)
    hi = raw.max(axis=0)
    span = hi - lo
    normed = np.zeros_like(raw)
    varying = span > 0
    normed[:, varying] = -1.0 + 2.0 * (raw[:, varying] - lo[varying]) / span[varying]
    fitted = tuple(
        Attribute(name=a.name, kind=a.kind, raw_min=float(lo[i]), raw_max=float(hi[i]))
        for i, a in enumerate(attrs)
    )
    return OperatingPointSet(
        attributes=fitted,
        values=np.clip(normed, -1.0, 1.0),
        timestamps=np.arange(raw.shape[0]),
    )


def denormalize(ops: OperatingPointSet) -> np.ndarray:
    """Invert :func:`normalize` using the per-attribute stored ranges."""
    lo = np.array([a.raw_min for a in ops.attributes])
    hi = np.array([a.raw_max for a in ops.attributes])
    return lo + (ops.values + 1.0) * (hi - lo) / 2.0


class CsvFormatError(ValueError):
    """Malformed dataset CSV; message cites the offending location."""


def load_csv(path) -> OperatingPointSet:
    """Load a ``hour,<attr>,...`` CSV and return the normalized set.

    Raises
    ------
    CsvFormatError
        On ragged rows, non-numeric cells, or duplicate hour indices,
        citing the 1-based file row (and column name where relevant).
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        if not header or header[0].strip() != "hour":
            raise CsvFormatError(f"{path}: first header column must be 'hour'")
        names = [h.strip() for h in header[1:]]
        if not names:
            raise CsvFormatError(f"{path}: no attribute columns")

        hours: list[int] = []
        rows: list[list[float]] = []
        seen: set[int] = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names) + 1:
                raise CsvFormatError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {len(names) + 1}"
                )
            try:
                hour = int(row[0])
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {lineno}: non-integer hour {row[0]!r}"
                ) from None
            if hour in seen:
                raise CsvFormatError(f"{path}: row {lineno}: duplicate hour {hour}")
            seen.add(hour)
            parsed = []
            for name, cell in zip(names, row[1:]):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: row {lineno}, column {name!r}: non-numeric cell {cell!r}"
                    ) from None
            hours.append(hour)
            rows.append(parsed)

    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    ops = normalize(np.array(rows), names)
    return OperatingPointSet(
        attributes=ops.attributes,
        values=ops.values,
        timestamps=np.array(hours),
        metadata=dict(ops.metadata),
    )


def save_csv(ops: OperatingPointSet, path) -> Path:
    """Write raw-unit values as ``hour,<attr>,...`` plus a JSON sidecar.

    The sidecar (``<path>.norm.json``) records per-attribute name, kind and
    raw_min/raw_max so the normalization is reproducible, along with any
    set metadata.
    """
    path = Path(path)
    raw = denormalize(ops)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hour"] + ops.attribute_names())
        for hour, row in zip(ops.timestamps, raw):
            writer.writerow([int(hour)] + [repr(float(v)) for v in row])
    meta = {
        "attributes": [
            {
                "name": a.name,
                "kind": a.kind.value,
                "raw_min": a.raw_min,
                "raw_max": a.raw_max,
            }
            for a in ops.attributes
        ],
        "metadata": ops.metadata,
    }
    sidecar_path = path.with_suffix(path.suffix + ".norm.json")
    sidecar_path.write_text(json.dumps(meta, indent=2))
    return path


@dataclass(frozen=True)
class SyntheticYearConfig:
    """Shape of the synthetic hourly year used for desk-scale experiments.

    Each attribute is a seasonal sinusoid (one period over the horizon)
    plus a diurnal sinusoid (24-hour period) plus white noise, with random
    per-attribute phases.  The first ``n_informative`` attributes are the
    ones a synthetic stability oracle is allowed to depend on.
    """

    n_hours: int = 8760
    n_attributes: int = 20
    seed: int = 0
    seasonal_amplitude: float = 1.0
    diurnal_amplitude: float = 0.5
    noise_sigma: float = 0.15
    n_informative: int = 3

    def __post_init__(self):
        if self.n_hours < 1 or self.n_attributes < 1:
            raise ValueError("n_hours and n_attributes must be positive")
        if not (0 <= self.n_informative <= self.n_attributes):
            raise ValueError("n_informative must be in [0, n_attributes]")
        if self.seasonal_amplitude < 0 or self.diurnal_amplitude < 0:
            raise ValueError("amplitudes must be non-negative")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")


def generate_synthetic_year(cfg: SyntheticYearConfig) -> OperatingPointSet:
    """Generate a deterministic synthetic year of operating points.

    Bitwise reproducible for a fixed config.  Attribute names cycle through
    generator/load/interconnector/HVDC P-Q pairs so kind-based column
    lookups (e.g. total demand) have something to find.  Metadata records
    ``informative_indices`` and ``informative_names``.
    """
    rng = np.random.default_rng(cfg.seed)
    t = np.arange(cfg.n_hours)
    raw = np.empty((cfg.n_hours, cfg.n_attributes))
    for j in range(cfg.n_attributes):
        phase_season = rng.uniform(0.0, 2.0 * np.pi)
        phase_day = rng.uniform(0.0, 2.0 * np.pi)
        raw[:, j] = cfg.seasonal_amplitude * np.sin(
            2.0 * np.pi * t / cfg.n_hours + phase_season
        )
        raw[:, j] += cfg.diurnal_amplitude * np.sin(2.0 * np.pi * t / 24.0 + phase_day)
        if cfg.noise_sigma > 0:
            raw[:, j] += rng.normal(0.0, cfg.noise_sigma, size=cfg.n_hours)

    base_names = ["gen{:02d}", "load{:02d}", "inter{:02d}", "hvdc{:02d}"]
    names = []
    for j in range(cfg.n_attributes):
        pair, slot = divmod(j, 2)
        stem = base_names[pair % len(base_names)].format(pair // len(base_names) + 1)
        names.append(f"{stem}_{'P' if slot == 0 else 'Q'}")

    ops = normalize(raw, names)
    meta = {
        "informative_indices": list(range(cfg.n_informative)),
        "informative_names": names[: cfg.n_informative],
        "config": asdict(cfg),
    }
    return OperatingPointSet(
        attributes=ops.attributes,
        values=ops.values,
        timestamps=ops.timestamps,
        metadata=meta,
    )
