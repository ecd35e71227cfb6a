"""Stability-index evaluators with verifiable analytic definitions.

Each oracle maps one operating point (a normalized attribute vector) to a
scalar stability index.  Two analytic families stand in for full modal
analysis and continuation-based voltage stability assessment:

* a damping-ratio surrogate: a sparse quadratic polynomial over a known
  subset of attributes, so feature-selection output can be checked;
* a two-bus loading margin: maximum deliverable power of a lossless line
  minus the base load mapped from the point's load features.

Oracles are pure (same point, same index, bitwise), count their
evaluations, and can impose an artificial per-call delay so the cost of a
real solver can be emulated in speed-up experiments.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import AttributeKind

THREADS_ENV = "GRIDSCAN_THREADS"


def worker_count() -> int:
    """Worker cap from the GRIDSCAN_THREADS environment variable (min 1)."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


class StabilityOracle:
    """Base evaluator: pure mapping point -> index, with call accounting.

    ``eval_count`` increments exactly once per evaluation (thread-safe);
    ``delay_ms`` injects an artificial per-call cost.  ``config()`` reads
    a subclass's resolved parameter dataclass, ``params``.
    """

    kind = "abstract"

    def __init__(self, delay_ms: float = 0.0):
        if not delay_ms >= 0:
            raise ValueError(f"delay_ms must be >= 0, got {delay_ms}")
        self.delay_ms = float(delay_ms)
        self._count = 0
        self._count_lock = threading.Lock()

    @property
    def eval_count(self) -> int:
        return self._count

    def __call__(self, point) -> float:
        with self._count_lock:
            self._count += 1
        if self.delay_ms > 0:
            time.sleep(self.delay_ms / 1000.0)
        return self._evaluate(np.asarray(point, dtype=float))

    def _evaluate(self, point: np.ndarray) -> float:
        raise NotImplementedError

    def config(self) -> dict:
        """Kind and resolved parameters: everything the outputs depend on."""
        return {"kind": self.kind, **asdict(self.params)}


@dataclass(frozen=True)
class DampingParams:
    """Config of a :class:`DampingSurrogate`; without ``linear``, the
    coefficients are drawn from ``seed`` over the ``informative`` indices."""

    seed: int = 0
    b0: float = 5.0
    informative: list[int] | None = None
    linear: dict[str, float] | None = None
    quadratic: list[list[float]] | None = None
    delay_ms: float = 0.0


@dataclass(frozen=True)
class TwoBusParams:
    """Config of a :class:`TwoBusMargin`."""

    E: float = 1.0
    X: float = 0.5
    load_columns: list[int] | None = None
    delay_ms: float = 0.0


class DampingSurrogate(StabilityOracle):
    """Sparse quadratic surrogate for an inter-area-mode damping ratio.

    lambda = b0 + sum_i b_i x_i + sum_(i,j) b_ij x_i x_j, where i, j range
    over the informative attribute indices only.  Attributes outside that
    set have exactly zero effect.
    """

    kind = "damping_surrogate"

    def __init__(self, b0: float, linear: dict[int, float],
                 quadratic: dict[tuple[int, int], float] | None = None,
                 delay_ms: float = 0.0):
        super().__init__(delay_ms)
        self.b0 = float(b0)
        self.linear = {int(i): float(c) for i, c in linear.items()}
        self.quadratic = {
            (int(i), int(j)): float(c) for (i, j), c in (quadratic or {}).items()
        }
        self.params = DampingParams(
            b0=self.b0, linear={str(i): c for i, c in self.linear.items()},
            quadratic=[[i, j, c] for (i, j), c in self.quadratic.items()], delay_ms=self.delay_ms)

    def _evaluate(self, point: np.ndarray) -> float:
        lam = self.b0
        for i, c in self.linear.items():
            lam += c * point[i]
        for (i, j), c in self.quadratic.items():
            lam += c * point[i] * point[j]
        return float(lam)

    @classmethod
    def from_seed(cls, informative_indices, seed: int = 0, b0: float = 5.0,
                  delay_ms: float = 0.0) -> "DampingSurrogate":
        """Random signed coefficients over the given attribute subset.

        Every informative attribute gets a linear term of magnitude in
        [0.6, 1); consecutive pairs get an interaction term of magnitude in
        [0.1, 0.25), so two or more informative attributes make it nonlinear.
        """
        idx = [int(i) for i in informative_indices]
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], size=len(idx))
        mags = rng.uniform(0.6, 1.0, size=len(idx))
        linear = {i: float(s * m) for i, s, m in zip(idx, signs, mags)}
        quadratic = {}
        for a, b in zip(idx, idx[1:]):
            quadratic[(a, b)] = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.25))
        oracle = cls(b0=b0, linear=linear, quadratic=quadratic, delay_ms=delay_ms)
        oracle.params = replace(oracle.params, seed=seed, informative=idx)
        return oracle


def affine_demand_map(load_indices, E: float, X: float):
    """Base-load map: mean of the load columns, affinely mapped from
    [-1, 1] onto [0, 0.9 * E^2/(2X)]."""
    load_indices = [int(i) for i in load_indices]
    if not load_indices:
        raise ValueError("demand map needs at least one load column")
    cap = 0.9 * E * E / (2.0 * X)

    def demand(point) -> float:
        point = np.asarray(point, dtype=float)
        mean = float(point[load_indices].mean())
        return (mean + 1.0) / 2.0 * cap

    return demand


def two_bus_margin(point, E: float, X: float, demand_map) -> float:
    """Loading margin of a lossless line serving a unity-power-factor load.

    The maximum deliverable power is E^2/(2X); the margin is that ceiling
    minus the base load the demand map assigns to the point.  Negative
    margins flag an infeasible base point and are passed through.
    """
    if E <= 0 or X <= 0:
        raise ValueError("need E > 0 and X > 0")
    p0 = float(demand_map(point))
    if p0 < 0:
        raise ValueError(f"demand map produced negative base load {p0}")
    return E * E / (2.0 * X) - p0


class TwoBusMargin(StabilityOracle):
    """Loading-margin oracle over a point's load attributes."""

    kind = "two_bus_margin"

    def __init__(self, E: float, X: float, load_indices, delay_ms: float = 0.0):
        super().__init__(delay_ms)
        if E <= 0 or X <= 0:
            raise ValueError("need E > 0 and X > 0")
        E, X = float(E), float(X)
        self.params = TwoBusParams(E, X, [int(i) for i in load_indices], self.delay_ms)
        self.demand_map = affine_demand_map(self.params.load_columns, E, X)

    def _evaluate(self, point: np.ndarray) -> float:
        return two_bus_margin(point, self.params.E, self.params.X, self.demand_map)


def _columns(indices, key: str, data) -> list[int]:
    """``indices`` as attribute columns of ``data``, each in range."""
    columns = [int(i) for i in indices]
    for i in columns:
        if not 0 <= i < data.n_attributes:
            raise ValueError(f"{key} index {i} is out of range for {data.n_attributes} attributes")
    return columns


def _damping_surrogate(p: DampingParams, data) -> DampingSurrogate:
    """The oracle ``p`` configures; the informative indices default to the dataset's."""
    if p.linear is None:
        informative = p.informative
        if informative is None:
            informative = data.metadata.get("informative_indices")
        if not informative:
            raise ValueError("damping_surrogate needs 'informative' indices or 'linear' "
                             "coefficients (synthetic datasets provide them via metadata)")
        return DampingSurrogate.from_seed(_columns(informative, "informative", data), seed=p.seed,
                                          b0=p.b0, delay_ms=p.delay_ms)
    entries = p.quadratic or []
    if not isinstance(p.linear, dict):
        raise ValueError("linear must be an object of index: coefficient pairs")
    if not (isinstance(entries, list)
            and all(isinstance(e, list) and len(e) == 3 for e in entries)):
        raise ValueError("quadratic must be a list of [i, j, c] triples")
    linear = dict(zip(_columns(p.linear, "linear", data), map(float, p.linear.values())))
    quadratic = {tuple(_columns(e[:2], "quadratic", data)): float(e[2]) for e in entries}
    return DampingSurrogate(p.b0, linear, quadratic, p.delay_ms)


def _two_bus_margin(p: TwoBusParams, data) -> TwoBusMargin:
    """The oracle ``p`` configures; the load columns default to the dataset's load_P ones."""
    load_columns = p.load_columns
    if load_columns is None:
        load_columns = data.columns_of_kind(AttributeKind.LOAD_P)
    if not load_columns:
        raise ValueError("two_bus_margin found no load_P columns")
    return TwoBusMargin(p.E, p.X, _columns(load_columns, "load_columns", data), delay_ms=p.delay_ms)


# kind -> (parameter dataclass, factory(params, dataset) -> oracle)
ORACLE_KINDS = {
    DampingSurrogate.kind: (DampingParams, _damping_surrogate),
    TwoBusMargin.kind: (TwoBusParams, _two_bus_margin),
}


class TabulatedOracle(StabilityOracle):
    """Lookup oracle keyed on the exact point contents.

    Useful for replaying precomputed indices; evaluation of a point that
    is not in the table raises KeyError, which exercises failure paths.
    """

    kind = "tabulated"

    def __init__(self, points, values, delay_ms: float = 0.0):
        super().__init__(delay_ms)
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if len(points) != len(values):
            raise ValueError("points and values must have equal length")
        self._table = {
            points[i].tobytes(): float(values[i]) for i in range(len(points))
        }

    def _evaluate(self, point: np.ndarray) -> float:
        key = point.tobytes()
        if key not in self._table:
            raise KeyError("point not in table")
        return self._table[key]


@dataclass
class StabilityTrace:
    """Per-hour stability indices from a scan.

    NaN in ``lam`` is the one encoding of an hour with no index (the
    oracle failed there); ``failed_hours`` and ``partial`` are read off
    it.  An infinite index is rejected.
    """

    hours: np.ndarray
    lam: np.ndarray
    kind: str
    elapsed_s: float = 0.0

    def __post_init__(self):
        self.hours = np.asarray(self.hours, dtype=int)
        self.lam = np.asarray(self.lam, dtype=float)
        if len(self.hours) != len(self.lam):
            raise ValueError("hours and lambda must have equal length")
        if np.isinf(self.lam).any():
            raise ValueError("infinite stability index; a failed hour is NaN")

    @property
    def failed_hours(self) -> tuple[int, ...]:
        return tuple(int(h) for h in self.hours[np.isnan(self.lam)])

    @property
    def partial(self) -> bool:
        return bool(np.isnan(self.lam).any())

    def require_hours(self, hours, what: str):
        """Raise ``ValueError`` unless the trace covers exactly ``hours``, in order."""
        if not np.array_equal(self.hours, hours):
            raise ValueError(f"{what} trace covers other hours than the dataset")

    def save_csv(self, path) -> Path:
        path = Path(path)
        lines = ["hour,lambda"]
        lines += [f"{int(h)},{repr(float(v))}" for h, v in zip(self.hours, self.lam)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def save_json(self, path) -> Path:
        path = Path(path)
        payload = {
            "kind": self.kind,
            "hours": [int(h) for h in self.hours],
            "lambda": [float(v) for v in self.lam],
            "failed_hours": list(self.failed_hours),
        }
        path.write_text(json.dumps(payload, indent=2))
        return path

    @classmethod
    def load_csv(cls, path, kind: str = "tabulated") -> "StabilityTrace":
        """Read a :meth:`save_csv` file; its ``nan`` rows are the failed hours.

        Blank lines are skipped; ``ValueError`` on any other line that is
        not one integer hour and one number.  NumPy parses the numbers as
        ``float`` does."""
        path = Path(path)
        with open(path, encoding="utf-8") as fh:
            header, *lines = fh.read().split("\n")
        if header.strip() != "hour,lambda":
            raise ValueError(f"{path}: expected 'hour,lambda' header")
        rows = [line.split(",") for line in map(str.strip, lines) if line]
        if any(len(row) != 2 for row in rows):
            raise ValueError(f"{path}: expected 'hour,lambda' rows")
        hours = np.array([int(row[0]) for row in rows], dtype=int)
        return cls(hours=hours, lam=np.array([row[1] for row in rows], dtype=float), kind=kind)


def evaluate_many(oracle, points) -> np.ndarray:
    """Evaluate the oracle at each point, optionally in worker threads.

    Thread count comes from GRIDSCAN_THREADS (default 1: sequential).
    Output order always matches input order.

    This is the one place that decides an oracle call failed: the oracle
    raised an ``Exception`` or returned a non-finite value.  A failed
    call is NaN in the returned array.
    """
    points = np.asarray(points, dtype=float)

    def one(point):
        try:
            value = float(oracle(point))
        except Exception:
            return math.nan
        return value if math.isfinite(value) else math.nan

    workers = worker_count()
    if workers <= 1 or len(points) < 2:
        return np.array([one(p) for p in points], dtype=float)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.array(list(pool.map(one, points)), dtype=float)


def full_scan(data, oracle, resume: StabilityTrace | None = None) -> StabilityTrace:
    """Exhaustive baseline: one oracle evaluation per operating point.

    A failed call leaves NaN at its hour (the trace is then partial), and
    the wall-clock time for the sweep lands in ``elapsed_s``.  With
    ``resume``, a trace of the same hours holding the values already paid
    for (an earlier scan's, or the feature selection's that
    ``compare_full_vs_fast`` seeds it with), only its NaN hours are
    evaluated; the rest keep its values, and ``elapsed_s`` is its
    recorded time plus this sweep's (a complete one makes no sweep and
    keeps its recorded time).
    """
    lam, rows, elapsed = np.full(data.n_points, math.nan), np.arange(data.n_points), 0.0
    if resume is not None:
        resume.require_hours(data.timestamps, "resumed")
        lam = resume.lam.copy()
        rows = np.flatnonzero(np.isnan(lam))
        elapsed = resume.elapsed_s
    if len(rows):
        start = time.perf_counter()
        lam[rows] = evaluate_many(oracle, data.values[rows])
        elapsed += time.perf_counter() - start
    return StabilityTrace(
        hours=data.timestamps.copy(),
        lam=lam,
        kind=getattr(oracle, "kind", "unknown"),
        elapsed_s=elapsed,
    )
