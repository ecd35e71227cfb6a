"""Ablation of the swarm budget: what each PSO size buys the fast scan.

Runs the fast scan on the six default years of the benchmark's
``year-default`` workload at seed 0 (dataset seed 1 + b, oracle seed
101 + b, scan seed b for b = 0..5), under the damping surrogate and under
the two-bus margin on the load columns, for every swarm budget in the
grid, and scores each scan against the exhaustive scan of the whole year.
For each budget it also reruns acceptance criteria 4 and 6 on the test
suite's default year (tests/test_acceptance.py) with that budget in place
of the default.  Prints markdown tables.

    PYTHONPATH=src python3 scripts/pso_budget_ablation.py

Takes about ten minutes on two cores; the clustering times are only
meaningful on an otherwise idle machine.
"""

import time

import numpy as np

import gridscan as gs
from gridscan import AdaptiveParams, AttributeKind, PsoParams, ScanConfig, full_scan
from gridscan.clustering import default_k_init, init_centroids_random, kmeans

SWARM_SIZES = (5, 10, 20)
ITERATIONS = (5, 10, 20, 50)
BASES = range(6)


def inputs():
    for b in BASES:
        data = gs.generate_synthetic_year(gs.SyntheticYearConfig(seed=1 + b))
        damping = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"],
                                                seed=101 + b)
        two_bus = gs.TwoBusMargin(E=1.0, X=0.5,
                                  load_indices=data.columns_of_kind(AttributeKind.LOAD_P))
        for name, oracle in (("damping", damping), ("two-bus", two_bus)):
            yield name, b, data, oracle, full_scan(data, oracle).lam


def scan_row(data, oracle, truth, pso, seed):
    report = gs.fast_scan(data, oracle, ScanConfig(pso=pso, seed=seed))
    ape = np.abs(report.lambda_hat - truth) / np.abs(truth)
    lowest = np.argsort(truth, kind="stable")[: max(1, len(truth) // 100)]
    return {
        "k_final": report.k_final,
        "calls": report.oracle_evaluations,
        "mape": 100 * ape.mean(),
        "low1": 100 * ape[lowest].mean(),
        "max": 100 * ape.max(),
        "clustering_s": report.timing["clustering_s"],
    }


def criteria(year, oracle, weights, pso):
    """Criteria 4 and 6 of the acceptance suite, with ``pso`` as the budget."""
    X = year.values
    k = default_k_init(len(X))
    quiet = AdaptiveParams(eps_d=1e9, eps_c=1e-12)
    seeded, plain_smse, first_wins, wins = [], [], 0, 0
    for seed in range(20):
        plain = kmeans(
            X, init_centroids_random(X, k, np.random.default_rng(seed + 1000)), weights
        )
        fixed = gs.self_adaptive_pso_kmeans(X, weights, pso, quiet, seed=seed)
        seeded.append(fixed.smse)
        plain_smse.append(plain.smse)
        first_wins += fixed.smse_history[0] < plain.smse_history[0]

        model = gs.self_adaptive_pso_kmeans(X, weights, pso, AdaptiveParams(), seed=seed)
        idx = np.random.default_rng(seed + 5000).choice(len(X), size=500, replace=False)
        lam = np.array([oracle(X[i]) for i in idx])

        def max_ape(m):
            lam_hat = np.array([oracle(c) for c in m.centroids])[m.assignment]
            return float((np.abs(lam - lam_hat[idx]) / np.abs(lam)).max())

        wins += max_ape(model) < max_ape(plain)
    return float(np.median(seeded)), float(np.median(plain_smse)), first_wins, wins


def cells(rows, key, fmt):
    values = [r[key] for r in rows]
    return " / ".join(fmt.format(v) for v in values) + " (mean " + fmt.format(np.mean(values)) + ")"


def main():
    budgets = [PsoParams(swarm_size=p, n_iter=i) for p in SWARM_SIZES for i in ITERATIONS]
    cases = list(inputs())
    # the first scan of a process can be slower by up to a second: keep it out of the timings
    scan_row(*cases[0][2:], budgets[0], seed=0)
    print("| budget | oracle | k_final | oracle calls | MAPE % | lowest-1% APE % "
          "| max APE % | clustering_s |")
    print("|---|---|---|---|---|---|---|---|")
    for pso in budgets:
        for name in ("damping", "two-bus"):
            rows = [scan_row(data, oracle, truth, pso, seed=b)
                    for n, b, data, oracle, truth in cases if n == name]
            median_s = np.median([r["clustering_s"] for r in rows])
            print(f"| {pso.swarm_size}x{pso.n_iter} | {name} "
                  f"| {cells(rows, 'k_final', '{:.0f}')} | {cells(rows, 'calls', '{:.0f}')} "
                  f"| {cells(rows, 'mape', '{:.2f}')} "
                  f"| {cells(rows, 'low1', '{:.2f}')} "
                  f"| {cells(rows, 'max', '{:.1f}')} "
                  f"| {cells(rows, 'clustering_s', '{:.2f}')}, median {median_s:.2f} |",
                  flush=True)

    year = gs.generate_synthetic_year(gs.SyntheticYearConfig(seed=1))
    oracle = gs.DampingSurrogate.from_seed(year.metadata["informative_indices"], seed=101)
    weights = gs.select_features(year, oracle, seed=0).distance_weights()
    print("\n| budget | median SMSE, seeded | random | first wins /20 | criterion 4 "
          "| max-APE wins /20 | criterion 6 | seconds |")
    print("|---|---|---|---|---|---|---|---|")
    for pso in budgets:
        start = time.perf_counter()
        med_seeded, med_plain, first_wins, wins = criteria(year, oracle, weights, pso)
        verdict4 = "pass" if med_seeded <= med_plain and first_wins >= 16 else "FAIL"
        verdict6 = "pass" if wins >= 16 else "FAIL"
        print(f"| {pso.swarm_size}x{pso.n_iter} | {med_seeded:.6f} | {med_plain:.6f} "
              f"| {first_wins} | {verdict4} | {wins} | {verdict6} "
              f"| {time.perf_counter() - start:.0f} |", flush=True)


if __name__ == "__main__":
    main()
