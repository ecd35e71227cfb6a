#!/usr/bin/env python3
"""Wall-clock speed-up with a costly oracle, and the worst-case shift.

A 20 ms artificial cost per oracle call stands in for a real stability
solver.  The exhaustive scan costs it once per hour (it reuses the hours
feature selection already paid for, and charges them at the sweep's mean
cost); the fast path pays it only for feature-selection training points
and cluster centroids.  The worst-case check then shows that the
minimum-stability hour need not be the peak-demand hour.
"""

import gridscan as gs

data = gs.generate_synthetic_year(gs.SyntheticYearConfig(n_hours=4000, seed=1))
informative = data.metadata["informative_indices"]
oracle = gs.DampingSurrogate.from_seed(informative, seed=101, delay_ms=20.0)

report = gs.compare_full_vs_fast(data, oracle, gs.ScanConfig(seed=0))
t = report.timing
reused = len(report.training_lambdas)
print(f"full scan:        {t['full_scan_s']:7.1f} s  ({data.n_points - reused} hours swept, "
      f"{reused} reused from feature selection)")
print(f"fast scan total:  {t['feature_selection_s'] + t['clustering_s'] + t['centroid_eval_s']:7.1f} s"
      f"  (selection {t['feature_selection_s']:.1f}, clustering {t['clustering_s']:.1f},"
      f" centroids {t['centroid_eval_s']:.1f})")
print(f"speed-up:         {report.speedup:7.1f}x")

# worst-case operating point: stability minimum vs demand peak
demand = gs.denormalize(data)[:, data.columns_of_kind(gs.AttributeKind.LOAD_P)].sum(axis=1)
wc = gs.worst_case_analysis(report.full_trace, demand)
print()
print(f"stability minimum at hour {wc.lambda_argmin_hour} "
      f"(lambda={wc.lambda_min:.3f})")
print(f"demand peak at hour {wc.demand_argmax_hour} (demand={wc.demand_max:.3f})")
print(f"worst case shifted away from peak demand: {wc.shifted} "
      f"(corr={wc.pearson_r:+.3f})")
