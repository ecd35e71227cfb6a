#!/usr/bin/env python3
"""Self-adaptive PSO-k-means against plain k-means on the same year.

The swarm stage hands k-means a strong starting centroid set, so the
seeded run begins at a much lower SMSE than a random start; the adaptive
stage then grows the cluster count until no point sits farther than the
split tolerance from its centroid.
"""

import numpy as np

import gridscan as gs
from gridscan.clustering import default_k_init, init_centroids_random, kmeans

data = gs.generate_synthetic_year(gs.SyntheticYearConfig(seed=1))
oracle = gs.DampingSurrogate.from_seed(data.metadata["informative_indices"], seed=101)
weights = gs.select_features(data, oracle, seed=0).distance_weights()
X = data.values

model = gs.self_adaptive_pso_kmeans(X, weights, gs.PsoParams(), gs.AdaptiveParams(), seed=0)
print(f"self-adaptive PSO-k-means: k={model.k} smse={model.smse:.4f}")
print(f"  split tolerance resolved to eps_d={model.eps_d:.4f} (eps_c={model.eps_c:.4f})")
print(f"  seeded stage started at smse={model.smse_history[0]:.4f}")

k0 = default_k_init(len(X))
plain = kmeans(X, init_centroids_random(X, k0, np.random.default_rng(1000)), weights)
print(f"plain k-means (k={k0}):    smse={plain.smse:.4f}")
print(f"  random start began at smse={plain.smse_history[0]:.4f}")

reduction = 1 - model.k / len(X)
print(f"dimensionality reduction: {len(X)} hours -> {model.k} clusters ({reduction:.1%})")
