"""The NumPy kernels of Relief and centroid merging keep SciPy's bits, and
the runtime path loads no SciPy.

SciPy is a test-only dependency; here it is the reference the kernels are
held to, bit for bit.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.stats import rankdata, spearmanr

from gridscan.clustering import _ROW_BLOCK, _pairwise_dists
from gridscan.relief import _nearest, _ordinal_ranks, _spearman

SRC = Path(__file__).resolve().parents[1] / "src"


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ── distances ────────────────────────────────────────────────────────────


@pytest.mark.parametrize("m, n, n_attr", [(600, 700, 20), (300, 400, 12), (80, 80, 20),
                                          (1, 50, 20), (50, 1, 12), (1, 1, 3), (40, 30, 1),
                                          # a partial last block, and whole blocks only
                                          (3 * _ROW_BLOCK + 1, 45, 7), (2 * _ROW_BLOCK, 30, 5),
                                          (_ROW_BLOCK + 1, 750, 20), (0, 5, 3)])
def test_pairwise_dists_match_cdist_bitwise(m, n, n_attr):
    rng = np.random.default_rng(m * n + n_attr)
    A = rng.uniform(-1.0, 1.0, (m, n_attr))
    B = rng.uniform(-1.0, 1.0, (n, n_attr))
    assert_same_bits(_pairwise_dists(A, B), cdist(A, B))


def test_pairwise_dists_match_cdist_on_duplicates_and_a_zero_column():
    rng = np.random.default_rng(3)
    B = rng.uniform(-1.0, 1.0, (120, 20))
    B[:, 7] = 0.0
    A = np.vstack([B[:40], B[:40], rng.uniform(-1.0, 1.0, (30, 20))])
    A[:, 7] = 0.0
    D = _pairwise_dists(A, B)
    assert_same_bits(D, cdist(A, B))
    assert np.all(D[np.arange(40), np.arange(40)] == 0.0)
    assert_same_bits(_pairwise_dists(B, B), cdist(B, B))


@pytest.mark.parametrize("n_attr", [12, 20])
def test_pairwise_dists_match_cdist_on_sqrt_weighted_centroids(n_attr):
    # the shape _merge_close sees: centroids scaled by sqrt of the
    # Relief distance weights, some of which are zero
    rng = np.random.default_rng(n_attr)
    w = np.maximum(rng.normal(0.3, 0.4, n_attr), 0.0)
    w[0] = 1.0
    Cw = rng.uniform(-1.0, 1.0, (83, n_attr)) * np.sqrt(w)
    assert_same_bits(_pairwise_dists(Cw, Cw), cdist(Cw, Cw))


# Relief's distance buffer grows by blocks of new rows and fills the new
# columns with their transpose; both rest on the two equalities below.


@pytest.mark.parametrize("m, n, n_attr", [(75, 600, 20), (3 * _ROW_BLOCK + 5, 2 * _ROW_BLOCK, 12),
                                          (1, 40, 7), (33, 33, 1)])
def test_pairwise_dists_transpose_bitwise(m, n, n_attr):
    rng = np.random.default_rng(m + n)
    A = rng.uniform(-1.0, 1.0, (m, n_attr))
    B = rng.uniform(-1.0, 1.0, (n, n_attr))
    assert_same_bits(_pairwise_dists(A, B), _pairwise_dists(B, A).T.copy())


@pytest.mark.parametrize("lo, hi", [(0, 75), (75, 150), (600, 675), (17, 17 + _ROW_BLOCK + 3),
                                    (5, 6), (675, 700)])
def test_pairwise_dists_row_block_matches_full_matrix(lo, hi):
    rng = np.random.default_rng(hi)
    X = rng.uniform(-1.0, 1.0, (700, 20))
    assert_same_bits(_pairwise_dists(X[lo:hi], X), _pairwise_dists(X, X)[lo:hi])
    assert_same_bits(_pairwise_dists(X[lo:hi], X[:hi]), _pairwise_dists(X[:hi], X[:hi])[lo:hi])


# ── neighbor search ──────────────────────────────────────────────────────


@pytest.mark.parametrize("seed", range(6))
def test_nearest_matches_stable_argsort_with_ties(seed):
    # grid-valued points give many exactly equal distances; the inf
    # diagonal is the self mask of _grow_neighbors
    rng = np.random.default_rng(seed)
    n = int(rng.integers(15, 400))
    X = rng.integers(-2, 3, (n, 3)) / 2.0
    sample = rng.choice(n, size=min(n, 120), replace=False)
    D = cdist(X[sample], X)
    D[np.arange(len(sample)), sample] = np.inf
    for k in (1, 3, 10, n - 1, n):
        want = np.argsort(D, axis=1, kind="stable")[:, :k]
        assert np.array_equal(_nearest(D, k), want), k


@pytest.mark.parametrize("k", [1, 4, 10])
def test_nearest_serves_rows_with_and_without_a_tie_at_the_kth_place_in_one_call(k):
    # continuous rows take the partition path, integer rows mostly the tie
    # path; both write into one result
    rng = np.random.default_rng(k)
    D = np.vstack([rng.uniform(0, 1, (20, 30)), rng.integers(0, 4, (20, 30))])
    D = D[rng.permutation(len(D))]
    ranked = np.sort(D, axis=1)
    tied = ranked[:, k - 1] == ranked[:, k]
    assert tied.any() and not tied.all()
    assert np.array_equal(_nearest(D, k), np.argsort(D, axis=1, kind="stable")[:, :k])


# ── ranks and Spearman's rho ─────────────────────────────────────────────


def test_ordinal_ranks_match_rankdata_on_tied_weights():
    rng = np.random.default_rng(5)
    for n in range(1, 40):
        for _ in range(20):
            w = rng.integers(-3, 4, n) / 4.0
            w[rng.random(n) < 0.2] = -0.0
            want = rankdata(-w, method="ordinal").astype(int)
            got = _ordinal_ranks(w)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_spearman_matches_scipy_on_permutations():
    rng = np.random.default_rng(9)
    for n in range(2, 61):
        for _ in range(25):
            p = rng.permutation(n) + 1
            q = rng.permutation(n) + 1
            want = spearmanr(p, q).statistic
            assert _spearman(p, q) == want
        assert _spearman(p, p) == spearmanr(p, p).statistic
        assert _spearman(p, p[::-1].copy()) == spearmanr(p, p[::-1]).statistic
    assert _spearman(np.array([1]), np.array([1])) == 1.0


# ── SciPy stays off the runtime path ─────────────────────────────────────


CONFIG = {
    "dataset": {"synthetic": {"n_hours": 300, "n_attributes": 6, "seed": 5, "n_informative": 2}},
    "oracle": {"kind": "damping_surrogate", "seed": 9},
    "scan": {"relief": {"m": 200, "k": 5, "batch": 30, "window": 2},
             "pso": {"swarm_size": 6, "n_iter": 8}, "sample_size": 40},
}

GUARD = textwrap.dedent("""
    import json, sys
    import gridscan as gs
    from gridscan import cli

    cfg = json.load(open("config.json"))
    scan = cfg["scan"]
    year = gs.generate_synthetic_year(gs.SyntheticYearConfig(**cfg["dataset"]["synthetic"]))
    oracle = gs.DampingSurrogate.from_seed(year.metadata["informative_indices"],
                                           seed=cfg["oracle"]["seed"])
    config = gs.ScanConfig(relief=gs.ReliefParams(**scan["relief"]),
                           pso=gs.PsoParams(**scan["pso"]), sample_size=scan["sample_size"])
    report = gs.fast_scan(year, oracle, config)
    gs.validate(report, year, oracle, scan["sample_size"])
    gs.compare_full_vs_fast(year, oracle, config)
    for command in ("select", "cluster"):
        assert cli.main([command, "--config", "config.json", "--out", "out"]) == 0
    print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
""")


def test_runtime_path_loads_no_scipy(tmp_path):
    # a fresh interpreter: this process has loaded SciPy for the references
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", GUARD], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "feature_report.json").exists()
    assert (tmp_path / "out" / "cluster_model.json").exists()
