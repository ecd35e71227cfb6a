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
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .clustering import AdaptiveParams, ClusterModel, PsoParams, self_adaptive_pso_kmeans
from .oracles import StabilityTrace, evaluate_many, full_scan
from .relief import FeatureReport, ReliefParams, select_features

NEAR_ZERO_LAMBDA = 1e-9


class FailedCentroidError(ValueError):
    """The oracle failed at a cluster centroid, so its hours have no index."""


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
        if self.C is not None and not self.C > 0:
            raise ValueError("C must be > 0")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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

    It stores what the stages produced: ``feature_report``, ``model``,
    the stage times in ``timing`` and the imputed ``lambda_hat``, aligned
    with ``hours`` (hours sharing a cluster id share the value bitwise);
    what those determine is a property.  APE statistics exist only after
    validation; ``full_trace`` and ``speedup`` only after a comparison
    run.  ``full_trace`` is the exhaustive scan's :class:`StabilityTrace`,
    run or reused, and ``lambda_full`` its indices (NaN where the oracle
    failed).  ``validation_excluded`` lists the sampled hours validation
    left out because no value was found or the oracle failed there.
    """

    hours: np.ndarray
    lambda_hat: np.ndarray
    feature_report: FeatureReport
    model: ClusterModel
    timing: dict[str, float] = field(default_factory=dict)
    validation: tuple[ValidationSample, ...] = ()
    mape: float | None = None
    max_ape: float | None = None
    histogram: tuple[tuple[float, float, int], ...] = ()
    validation_excluded: tuple[int, ...] = ()
    full_trace: StabilityTrace | None = None

    @property
    def assignment(self) -> np.ndarray:
        return self.model.assignment

    @property
    def k_final(self) -> int:
        return self.model.k

    @property
    def reduction(self) -> float:
        """1 - k_final/|R|."""
        return 1.0 - self.model.k / len(self.hours)

    @property
    def training_size(self) -> int:
        return self.feature_report.training_size

    @property
    def oracle_evaluations(self) -> int:
        return self.training_size + len(self.feature_report.failed_hours) + self.model.k

    @property
    def speedup(self) -> float | None:
        """The full scan's time over the fast stages' time; None without a comparison."""
        if "full_scan_s" not in self.timing:
            return None
        fast_total = (
            self.timing["feature_selection_s"]
            + self.timing["clustering_s"]
            + self.timing["centroid_eval_s"]
        )
        return self.timing["full_scan_s"] / fast_total if fast_total > 0 else float("inf")

    @property
    def training_lambdas(self) -> dict[int, float]:
        """Feature selection's values, hour -> index, as its feature report holds them."""
        return self.feature_report.training_lambdas

    @property
    def lambda_full(self) -> np.ndarray | None:
        return None if self.full_trace is None else self.full_trace.lam

    @property
    def flagged(self) -> bool:
        """True when any stage failed to converge."""
        return not (self.feature_report.converged and self.model.converged)

    def to_dict(self) -> dict:
        payload = {
            "k_final": self.k_final,
            "reduction": self.reduction,
            "training_size": self.training_size,
            "oracle_evaluations": self.oracle_evaluations,
            "feature_selection_converged": self.feature_report.converged,
            "clustering_converged": self.model.converged,
            "weights_fallback_uniform": self.feature_report.uniform_fallback,
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
            payload["validation_excluded"] = list(self.validation_excluded)
        if self.lambda_full is not None:
            payload["lambda_full"] = [float(v) for v in self.lambda_full]
        return payload

    @classmethod
    def from_dict(cls, payload: dict, model: ClusterModel, timing: dict) -> "ScanReport":
        """The scan of a :meth:`to_dict` payload, clustered as ``model`` and
        timed as ``timing``: the fast scan, the selection's values and the
        validation, without the comparison extras.  ``ValueError`` unless
        ``model`` is the clustering the payload describes: its labels, and
        its weights the ones the payload's feature report yields."""
        training = {int(h): v for h, v in dict(payload["training_lambdas"]).items()}
        freport = replace(FeatureReport.from_dict(payload["feature_report"]),
                          training_lambdas=training)
        hours = np.array(payload["hours"], dtype=int)
        lambda_hat = np.array(payload["lambda_hat"], dtype=float)
        if (len(hours) != len(lambda_hat)
                or not np.array_equal(payload["assignment"], model.assignment)
                or not _clustered_with(model, freport)):
            raise ValueError("the scan was not clustered as its model")
        samples = [ValidationSample(s["hour"], s["lambda"], s["lambda_hat"], s["ape"],
                                    s["absolute_fallback"]) for s in payload["validation"]]
        return cls(hours=hours, lambda_hat=lambda_hat, feature_report=freport, model=model,
                   timing=dict(timing), validation=tuple(samples), mape=payload["mape"],
                   max_ape=payload["max_ape"], histogram=tuple(map(tuple, payload["histogram"])),
                   validation_excluded=tuple(payload.get("validation_excluded", ())))

    def save_json(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    def save_trace_csv(self, path) -> Path:
        """``hour,lambda,lambda_hat`` rows; lambda is blank where unknown."""
        path = Path(path)
        held = _held_values(self, slice(None), self.full_trace).tolist()
        lines = ["hour,lambda,lambda_hat"]
        for h, lam, lam_hat in zip(self.hours.tolist(), held, self.lambda_hat.tolist()):
            blank = self.full_trace is None and math.isnan(lam)  # no value held
            lines.append(f"{h},{'' if blank else repr(lam)},{repr(lam_hat)}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def save_histogram_csv(self, path) -> Path:
        path = Path(path)
        lines = ["bin_low,bin_high,count"]
        lines += [f"{lo},{hi},{n}" for lo, hi, n in self.histogram]
        path.write_text("\n".join(lines) + "\n")
        return path


def select_stage(data, oracle, config: ScanConfig = ScanConfig()) -> FeatureReport:
    """First stage of :func:`fast_scan`: feature selection on the derived
    selection seed."""
    selection_seed, _ = _derived_seeds(config.seed)
    return select_features(data, oracle, config.relief, C=config.C, seed=selection_seed)


def _clustered_with(model: ClusterModel, freport: FeatureReport) -> bool:
    """True when ``model`` was clustered with ``freport``'s distance weights, bit for bit."""
    return np.asarray(model.weights, dtype=float).tobytes() == freport.distance_weights().tobytes()


def cluster_stage(data, weights, config: ScanConfig = ScanConfig()) -> ClusterModel:
    """Second stage of :func:`fast_scan`: clustering with a feature report's
    distance weights on the derived swarm seed.  The model's ``elapsed_s``
    is the stage's wall time."""
    _, pso_seed = _derived_seeds(config.seed)
    start = time.perf_counter()
    model = self_adaptive_pso_kmeans(data.values, weights, config.pso, config.adapt,
                                     seed=pso_seed)
    model.elapsed_s = time.perf_counter() - start
    return model


def fast_scan(data, oracle, config: ScanConfig = ScanConfig(),
              cached_model: ClusterModel | None = None) -> ScanReport:
    """Feature selection, clustering, and centroid-only oracle evaluation.

    Oracle evaluations are training_size + len(failed_hours) + k_final:
    one call per selection point, failed or not, and one per centroid;
    nothing else touches the oracle.  The selection's values travel on
    the report's feature report (``training_lambdas``).  A failed centroid
    call raises :class:`FailedCentroidError`.  A non-converged feature
    selection proceeds with its latest weights and is flagged in the
    report.  Clustering uses the feature report's distance weights
    (uniform ones when no adjusted weight is positive).

    A ``cached_model`` (a clustering of this dataset under this config)
    replaces the clustering stage; feature selection still runs, and the
    model is used only if it was clustered with the weights the selection
    yields, bit for bit: a model clustered with other weights is no
    cache, and the clustering stage runs.  With the model used,
    ``timing["clustering_s"]`` is its ``elapsed_s``, the time its
    clustering took when it was made.
    """
    t0 = time.perf_counter()
    freport = select_stage(data, oracle, config)
    t_select = time.perf_counter() - t0

    if cached_model is not None and _clustered_with(cached_model, freport):
        model = cached_model
    else:
        model = cluster_stage(data, freport.distance_weights(), config)

    t2 = time.perf_counter()
    centroid_lam = evaluate_many(oracle, model.centroids)
    t_centroid = time.perf_counter() - t2
    failed = np.flatnonzero(np.isnan(centroid_lam)).tolist()
    if failed:
        raise FailedCentroidError(
            f"oracle returned nan at points {failed} of the {model.k} centroids, or raised "
            "there; no hour may inherit a failed call")

    timing = {"feature_selection_s": t_select, "clustering_s": model.elapsed_s,
              "centroid_eval_s": t_centroid}
    return ScanReport(hours=data.timestamps.copy(), lambda_hat=centroid_lam[model.assignment],
                      feature_report=freport, model=model, timing=timing)


def _held_values(report: ScanReport, rows, trace: StabilityTrace | None = None) -> np.ndarray:
    """The oracle values the run already holds at ``rows`` of its hours:
    the trace's where finite, else feature selection's, else validation's;
    NaN where none has one."""
    values = {s.hour: s.lam for s in report.validation} | report.training_lambdas
    held = np.array([values.get(h, np.nan) for h in report.hours[rows].tolist()], dtype=float)
    if trace is None:
        return held
    lam = trace.lam[rows]
    return np.where(np.isnan(lam), held, lam)


def validate(report: ScanReport, data, oracle, sample_size: int, seed: int = 0,
             known: StabilityTrace | None = None) -> ScanReport:
    """Error statistics of the fast scan on a random hour sample.

    The draw depends only on the report and ``seed``: hours consumed by
    feature selection are left out of it (their indices were seen by the
    pipeline) unless ``sample_size`` exceeds the unseen hours.
    ``sample_size`` must lie in 1..n_hours.

    A sampled hour takes its true value from the trace (the report's
    ``full_trace``, else ``known``, a full-scan trace of the same hours),
    then from the selection's values, then from the report's own
    validation samples (a stored scan keeps them).  Only without a trace
    is the oracle called, at the sampled hours none of them holds and
    the report's ``validation_excluded`` does not list (the oracle is
    pure, so a call that failed fails again); a trace covers every hour,
    its NaN marking a failed call.  A sampled hour still without a value
    is left out after the draw and listed in ``validation_excluded``; if
    every one is, ``ValueError``.

    APE is |lam - lam_hat| / |lam|; hours with |lam| below 1e-9 fall back
    to the absolute error and are flagged.  The histogram uses
    1-percentage-point bins.
    """
    hours = report.hours
    if known is not None:
        known.require_hours(hours, "known")
    if not 1 <= sample_size <= len(hours):
        raise ValueError(f"sample_size must lie in 1..{len(hours)}, got {sample_size}")
    rng = np.random.default_rng(seed)

    trained = np.isin(hours, np.fromiter(report.training_lambdas, dtype=int, count=len(report.training_lambdas)))
    eligible = np.flatnonzero(~trained)
    if sample_size <= len(eligible):
        picked = rng.choice(eligible, size=sample_size, replace=False)
    else:
        extra = rng.choice(np.flatnonzero(trained), size=sample_size - len(eligible),
                           replace=False)
        picked = np.concatenate([eligible, extra])
    picked.sort()

    trace = known if report.full_trace is None else report.full_trace
    true_vals = _held_values(report, picked, trace)
    if trace is None:
        fresh = np.isnan(true_vals) & ~np.isin(hours[picked], report.validation_excluded)
        true_vals[fresh] = evaluate_many(oracle, data.values[picked[fresh]])
    failed = np.isnan(true_vals)
    if failed.all():
        raise ValueError("the oracle failed at every sampled hour")
    excluded = tuple(hours[picked[failed]].tolist())
    picked, true_vals = picked[~failed], true_vals[~failed]

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
        validation_excluded=excluded,
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
                         fast: ScanReport | None = None) -> ScanReport:
    """Run both paths and report the wall-clock speed-up.

    ``fast`` is the fast scan compared: a :func:`fast_scan` report of this
    dataset under this config, with its recorded timing, else
    ``fast_scan(data, oracle, config)`` runs.  The exhaustive scan sweeps
    only the hours whose value the run does not hold yet: feature
    selection has paid for its training hours, a validated ``fast`` for
    its sampled ones, and the oracle is pure, so their values are the
    ones a sweep would return, bit for bit.  ``timing["full_scan_s"]``,
    which :attr:`ScanReport.speedup` reads, still stands for a sweep of
    every hour: each reused hour is charged the sweep's mean time per
    hour (both draws are uniform), or, when the run holds every hour,
    the selection's own time.  The trace records that time as its
    ``elapsed_s``.

    A cached full-scan trace (with its recorded elapsed time) can
    substitute for the sweep; of a partial one only the hours that
    neither it nor the report holds are evaluated, and its time is the
    recorded one plus theirs.  A cached trace of other hours than the
    dataset's raises ``ValueError``.  The report keeps the trace as
    ``full_trace``.
    """
    if cached_full is not None:
        cached_full.require_hours(data.timestamps, "cached")
    report = fast_scan(data, oracle, config) if fast is None else fast
    if cached_full is not None and not cached_full.partial:
        trace = cached_full
    else:
        lam = _held_values(report, slice(None), cached_full)
        elapsed_s = 0.0 if cached_full is None else cached_full.elapsed_s
        trace = full_scan(data, oracle, resume=StabilityTrace(
            hours=data.timestamps, lam=lam, kind="held", elapsed_s=elapsed_s))
        if cached_full is None:
            swept = int(np.isnan(lam).sum())
            trace.elapsed_s = (trace.elapsed_s * data.n_points / swept if swept
                               else report.timing["feature_selection_s"])
    timing = {**report.timing, "full_scan_s": trace.elapsed_s}
    return replace(report, full_trace=trace, timing=timing)


def _derived_seeds(seed: int) -> tuple[int, int]:
    """Selection and swarm seeds derived from ``ScanConfig.seed``."""
    children = np.random.SeedSequence(seed).spawn(2)
    return tuple(int(c.generate_state(1)[0]) for c in children)
