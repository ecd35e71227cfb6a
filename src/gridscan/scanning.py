"""End-to-end fast scan and its accuracy/speed-up bookkeeping.

The fast path evaluates the stability oracle only on the points consumed
by feature selection and on the final cluster centroids; every hour in a
cluster inherits its centroid's index.  Validation draws a random sample
of hours, computes the true index there, and reports percentage-error
statistics against the imputed values.  The comparison path additionally
runs the exhaustive scan and reports the wall-clock speed-up.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .clustering import AdaptiveParams, ClusterModel, PsoParams, self_adaptive_pso_kmeans
from .oracles import StabilityTrace, evaluate_many, full_scan
from .relief import FeatureReport, ReliefParams, select_features

NEAR_ZERO_LAMBDA = 1e-9


@dataclass(frozen=True)
class ScanConfig:
    """Everything a scan needs besides the dataset and the oracle.

    ``seed`` drives all sampling in the scan (feature-selection growth,
    swarm initialization, validation draws).
    """

    relief: ReliefParams = ReliefParams()
    C: float | None = None
    pso: PsoParams = PsoParams()
    adapt: AdaptiveParams = AdaptiveParams()
    sample_size: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")


@dataclass(frozen=True)
class ValidationSample:
    hour: int
    lam: float
    lam_hat: float
    ape: float
    absolute_fallback: bool = False


@dataclass
class ScanReport:
    """Fast-scan output plus optional validation and comparison extras.

    ``lambda_hat`` is aligned with ``hours``; hours sharing a cluster id
    share the value bitwise.  ``reduction`` is 1 - k_final/|R|.  APE
    statistics exist only after validation; ``full_trace`` and
    ``speedup`` only after a comparison run.  ``full_trace`` is the
    exhaustive scan's :class:`StabilityTrace`, run or reused, and
    ``lambda_full`` its indices (NaN where the oracle failed).
    ``validation_excluded`` counts the hours validation left out because
    the full-scan trace has no index there.
    """

    hours: np.ndarray
    lambda_hat: np.ndarray
    assignment: np.ndarray
    k_final: int
    reduction: float
    training_size: int
    oracle_evaluations: int
    feature_report: FeatureReport
    model: ClusterModel
    training_lambdas: dict[int, float]
    feature_selection_converged: bool
    clustering_converged: bool
    weights_fallback_uniform: bool = False
    timing: dict[str, float] = field(default_factory=dict)
    validation: tuple[ValidationSample, ...] = ()
    mape: float | None = None
    max_ape: float | None = None
    histogram: tuple[tuple[float, float, int], ...] = ()
    validation_excluded: int = 0
    full_trace: StabilityTrace | None = None
    speedup: float | None = None

    @property
    def lambda_full(self) -> np.ndarray | None:
        return None if self.full_trace is None else self.full_trace.lam

    @property
    def flagged(self) -> bool:
        """True when any stage failed to converge."""
        return not (self.feature_selection_converged and self.clustering_converged)

    def to_dict(self) -> dict:
        payload = {
            "k_final": self.k_final,
            "reduction": self.reduction,
            "training_size": self.training_size,
            "oracle_evaluations": self.oracle_evaluations,
            "feature_selection_converged": self.feature_selection_converged,
            "clustering_converged": self.clustering_converged,
            "weights_fallback_uniform": self.weights_fallback_uniform,
            "mape": self.mape,
            "max_ape": self.max_ape,
            "hours": [int(h) for h in self.hours],
            "lambda_hat": [float(v) for v in self.lambda_hat],
            "assignment": [int(c) for c in self.assignment],
            "training_lambdas": {str(h): v for h, v in sorted(self.training_lambdas.items())},
            "validation": [
                {
                    "hour": s.hour,
                    "lambda": s.lam,
                    "lambda_hat": s.lam_hat,
                    "ape": s.ape,
                    "absolute_fallback": s.absolute_fallback,
                }
                for s in self.validation
            ],
            "histogram": [list(b) for b in self.histogram],
            "feature_report": self.feature_report.to_dict(),
        }
        if self.validation_excluded:
            payload["validation_excluded"] = self.validation_excluded
        if self.lambda_full is not None:
            payload["lambda_full"] = [float(v) for v in self.lambda_full]
        return payload

    def save_json(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    def save_trace_csv(self, path) -> Path:
        """``hour,lambda,lambda_hat`` rows; lambda is blank where unknown."""
        path = Path(path)
        known = {}
        if self.lambda_full is not None:
            known = {int(h): float(v) for h, v in zip(self.hours, self.lambda_full)}
        else:
            known = dict(self.training_lambdas)
            known.update({s.hour: s.lam for s in self.validation})
        lines = ["hour,lambda,lambda_hat"]
        for h, v in zip(self.hours, self.lambda_hat):
            h = int(h)
            lam = repr(known[h]) if h in known else ""
            lines.append(f"{h},{lam},{repr(float(v))}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def save_histogram_csv(self, path) -> Path:
        path = Path(path)
        lines = ["bin_low,bin_high,count"]
        lines += [f"{lo},{hi},{n}" for lo, hi, n in self.histogram]
        path.write_text("\n".join(lines) + "\n")
        return path


def select_stage(data, oracle, config: ScanConfig = ScanConfig(),
                 cache: dict | None = None) -> FeatureReport:
    """First stage of :func:`fast_scan`: feature selection on the derived
    selection seed."""
    selection_seed, _ = _derived_seeds(config.seed)
    return select_features(data, oracle, config.relief, C=config.C, seed=selection_seed,
                           cache=cache)


def _with_fallback(weights, n_attributes: int) -> tuple[np.ndarray, bool]:
    """The weights clustering uses: all-zero ones fall back to uniform (flag set)."""
    fallback = not np.any(weights > 0)
    return (np.ones(n_attributes) if fallback else weights), fallback


def cluster_stage(data, weights, config: ScanConfig = ScanConfig()) -> tuple[ClusterModel, bool]:
    """Second stage of :func:`fast_scan`: clustering on the derived swarm seed.

    All-zero distance weights fall back to uniform ones; the flag says so.
    The model's ``elapsed_s`` is the stage's wall time.
    """
    _, pso_seed = _derived_seeds(config.seed)
    start = time.perf_counter()
    weights, fallback = _with_fallback(weights, data.n_attributes)
    model = self_adaptive_pso_kmeans(data.values, weights, config.pso, config.adapt,
                                     seed=pso_seed)
    model.elapsed_s = time.perf_counter() - start
    return model, fallback


def fast_scan(data, oracle, config: ScanConfig = ScanConfig(),
              cached_model: ClusterModel | None = None) -> ScanReport:
    """Feature selection, clustering, and centroid-only oracle evaluation.

    Oracle evaluations are training_size + len(failed_hours) + k_final:
    one call per selection point, failed or not (successful results are
    cached per hour), and one per centroid; nothing else touches the
    oracle.  A failed centroid call raises ``ValueError``.  A
    non-converged feature selection proceeds with its latest weights and
    is flagged in the report.

    A ``cached_model`` (a clustering of this dataset under this config)
    replaces the clustering stage; feature selection still runs, and the
    model's weights must equal the ones it yields, bit for bit, else
    ``ValueError``.  ``timing["clustering_s"]`` is the model's
    ``elapsed_s``, the time its clustering took when it was made.
    """
    t0 = time.perf_counter()
    cache: dict[int, float] = {}
    freport = select_stage(data, oracle, config, cache=cache)
    t_select = time.perf_counter() - t0

    if cached_model is None:
        model, fallback = cluster_stage(data, freport.distance_weights(), config)
    else:
        weights, fallback = _with_fallback(freport.distance_weights(), data.n_attributes)
        if np.asarray(cached_model.weights, dtype=float).tobytes() != weights.tobytes():
            raise ValueError("cached_model was clustered with other distance weights")
        model = cached_model

    t2 = time.perf_counter()
    centroid_lam = evaluate_many(oracle, model.centroids)
    t_centroid = time.perf_counter() - t2

    lambda_hat = centroid_lam[model.assignment]
    return ScanReport(
        hours=data.timestamps.copy(),
        lambda_hat=lambda_hat,
        assignment=model.assignment.copy(),
        k_final=model.k,
        reduction=1.0 - model.k / data.n_points,
        training_size=freport.training_size,
        oracle_evaluations=freport.training_size + len(freport.failed_hours) + model.k,
        feature_report=freport,
        model=model,
        training_lambdas=dict(cache),
        feature_selection_converged=freport.converged,
        clustering_converged=model.converged,
        weights_fallback_uniform=fallback,
        timing={
            "feature_selection_s": t_select,
            "clustering_s": model.elapsed_s,
            "centroid_eval_s": t_centroid,
        },
    )


def validate(report: ScanReport, data, oracle, sample_size: int, seed: int = 0) -> ScanReport:
    """Error statistics of the fast scan on a random hour sample.

    Hours consumed by feature selection are excluded from the draw (their
    indices were seen by the pipeline); they are used, via the cached
    values, only when the requested sample exceeds the unseen hours.  When
    the report carries a full-scan trace, true values come from it and no
    oracle calls are made; hours where that trace is NaN (the oracle
    failed) are left out of the draw and counted in
    ``validation_excluded``.

    APE is |lam - lam_hat| / |lam|; hours with |lam| below 1e-9 fall back
    to the absolute error and are flagged.  The histogram uses
    1-percentage-point bins.
    """
    hours = report.hours
    known = np.ones(len(hours), dtype=bool)
    if report.lambda_full is not None:
        known = np.isfinite(report.lambda_full)
    n_known = int(known.sum())
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    if sample_size > n_known:
        raise ValueError(
            f"sample_size {sample_size} exceeds the {n_known} hours with a known index"
        )
    rng = np.random.default_rng(seed)

    trained = np.isin(hours, np.fromiter(report.training_lambdas, dtype=int, count=len(report.training_lambdas)))
    eligible = np.flatnonzero(~trained & known)
    if sample_size <= len(eligible):
        picked = rng.choice(eligible, size=sample_size, replace=False)
    else:
        extra = rng.choice(
            np.flatnonzero(trained & known), size=sample_size - len(eligible), replace=False
        )
        picked = np.concatenate([eligible, extra])
    picked.sort()

    if report.lambda_full is not None:
        true_vals = report.lambda_full[picked]
    else:
        true_vals = np.array([report.training_lambdas.get(h, np.nan)
                              for h in hours[picked].tolist()])
        fresh = np.isnan(true_vals)
        if fresh.any():
            true_vals[fresh] = evaluate_many(oracle, data.values[picked[fresh]])

    samples = []
    for slot, idx in enumerate(picked):
        lam = float(true_vals[slot])
        lam_hat = float(report.lambda_hat[idx])
        err = abs(lam - lam_hat)
        if abs(lam) < NEAR_ZERO_LAMBDA:
            samples.append(ValidationSample(int(hours[idx]), lam, lam_hat, err, True))
        else:
            samples.append(ValidationSample(int(hours[idx]), lam, lam_hat, err / abs(lam), False))

    apes = np.array([s.ape for s in samples])
    return replace(
        report,
        validation=tuple(samples),
        mape=float(apes.mean()),
        max_ape=float(apes.max()),
        histogram=tuple(_percentage_histogram(apes)),
        validation_excluded=len(hours) - n_known,
    )


def _percentage_histogram(apes: np.ndarray) -> list[tuple[float, float, int]]:
    pct = apes * 100.0
    top = max(1, int(np.ceil(pct.max() + 1e-12)))
    counts, edges = np.histogram(pct, bins=np.arange(0, top + 1))
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(len(counts))
    ]


@dataclass(frozen=True)
class WorstCaseReport:
    """Alignment between the stability-index minimum and the demand peak.

    ``excluded_hours`` are the hours of a partial trace that no statistic
    used, because the oracle failed there.
    """

    lambda_argmin_hour: int
    lambda_min: float
    demand_argmax_hour: int
    demand_max: float
    pearson_r: float
    shifted: bool
    excluded_hours: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        payload = {
            "lambda_argmin_hour": self.lambda_argmin_hour,
            "lambda_min": self.lambda_min,
            "demand_argmax_hour": self.demand_argmax_hour,
            "demand_max": self.demand_max,
            "pearson_r": self.pearson_r,
            "worst_case_shifted": self.shifted,
        }
        if self.excluded_hours:
            payload["excluded_hours"] = list(self.excluded_hours)
        return payload


def worst_case_analysis(trace: StabilityTrace, demand) -> WorstCaseReport:
    """Check whether the worst stability hour coincides with peak demand.

    Every statistic, the demand peak included, is taken over the hours
    with a finite index; the NaN hours of a partial trace are left out
    and listed in ``excluded_hours``.
    """
    demand = np.asarray(demand, dtype=float)
    if len(demand) != len(trace.lam):
        raise ValueError("trace and demand must cover the same hours")
    known = np.isfinite(trace.lam)
    if not known.any():
        raise ValueError("trace has no finite stability index")
    hours, lam, demand = trace.hours[known], trace.lam[known], demand[known]
    i_min = int(np.argmin(lam))
    i_max = int(np.argmax(demand))
    if np.std(lam) == 0 or np.std(demand) == 0:
        r = float("nan")
    else:
        r = float(np.corrcoef(lam, demand)[0, 1])
    return WorstCaseReport(
        lambda_argmin_hour=int(hours[i_min]),
        lambda_min=float(lam[i_min]),
        demand_argmax_hour=int(hours[i_max]),
        demand_max=float(demand[i_max]),
        pearson_r=r,
        shifted=i_min != i_max,
        excluded_hours=trace.failed_hours,
    )


def compare_full_vs_fast(data, oracle, config: ScanConfig = ScanConfig(),
                         cached_full: StabilityTrace | None = None,
                         cached_model: ClusterModel | None = None) -> ScanReport:
    """Run both paths and report the wall-clock speed-up.

    speed-up = full_scan_s / (feature_selection_s + clustering_s +
    centroid_eval_s).  A cached full-scan trace (with its recorded elapsed
    time) can substitute for re-running the exhaustive sweep; of a partial
    one only the failed hours are evaluated again; the report keeps the
    trace as ``full_trace``.  ``cached_model`` is passed to
    :func:`fast_scan`.
    """
    report = fast_scan(data, oracle, config, cached_model=cached_model)
    if cached_full is None or cached_full.partial:
        trace = full_scan(data, oracle, resume=cached_full)
    else:
        trace = cached_full
    fast_total = (
        report.timing["feature_selection_s"]
        + report.timing["clustering_s"]
        + report.timing["centroid_eval_s"]
    )
    timing = dict(report.timing)
    timing["full_scan_s"] = trace.elapsed_s
    return replace(
        report,
        full_trace=trace,
        timing=timing,
        speedup=trace.elapsed_s / fast_total if fast_total > 0 else float("inf"),
    )


def _derived_seeds(seed: int) -> tuple[int, int]:
    """Selection and swarm seeds derived from ``ScanConfig.seed``."""
    children = np.random.SeedSequence(seed).spawn(2)
    return tuple(int(c.generate_state(1)[0]) for c in children)
