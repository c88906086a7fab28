#!/usr/bin/env python3
"""Hybrid topology: geographic + semantic edges, gated dynamic weights, and
differentiable pruning that learns how many neighbors each node keeps."""

import numpy as np

from omniair.autodiff import Tensor
from omniair.topology import (
    HybridGraph,
    build_hybrid_graph,
    compute_ranks,
    normalize_weights,
    prune_mask,
)

rng = np.random.default_rng(0)
n = 16
points = np.stack([rng.uniform(30, 45, n), rng.uniform(100, 120, n)], axis=1)
vectors = rng.normal(size=(n, 12))

print("== Hybrid graph: 4 geographic + 2 semantic edges per node ==")
g = build_hybrid_graph(points, vectors, k_geo=4, k_sem=2, kappa_km=100.0)
kind_name = {0: "geo", 1: "sem"}
for k in range(g.k):
    print(f"  node 0 -> {g.nbr[0, k]:2d} [{kind_name[int(g.kind[0, k])]}] "
          f"{g.km[0, k]:7.1f} km, w_static={g.w_static[0, k]:.4f}")

print("\n== Soft pruning mask around a learned threshold ==")
per = 6
toy = HybridGraph(np.tile(np.arange(per) + 50, (3, 1)), np.zeros((3, per), np.int8),
                  np.ones((3, per)), np.ones((3, per)), cross=True)
w_dyn = rng.normal(size=(1, 3, per))
ranks = compute_ranks(w_dyn, toy)
for beta_val in (1.5, 3.5, 5.5):
    beta = Tensor(np.full((1, 3), beta_val))
    m = prune_mask(ranks, beta, eta=10.0)
    kept = (m.data[0, 0] > 0.5).sum()
    print(f"  beta = {beta_val}: node 0 mask {np.round(m.data[0, 0], 4)} -> keeps {kept}")

print("\n== Signed weights renormalized per node ==")
mask = prune_mask(ranks, Tensor(np.full((1, 3), 3.5)), eta=10.0)
wt = normalize_weights(Tensor(w_dyn), mask)
row = wt.data[0, 0]
print(f"  node 0 normalized weights: {np.round(row, 4)}")
print(f"  sum of |weights| = {np.abs(row).sum():.6f} (bounded by 1)")
