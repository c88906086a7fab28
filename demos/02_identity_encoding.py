#!/usr/bin/env python3
"""Station identity encoding: Fourier coordinate features and their kernel.

Shows the unit-norm coordinate mapping, the Monte-Carlo convergence of the
random-feature kernel to its Gaussian limit, and the spectral-norm stability
bound of the identity MLP.
"""

import numpy as np

from omniair.encoder import fourier_features
from omniair.oracle import check_kernel, check_lipschitz

print("== Deterministic multi-scale mapping ==")
for point in ((0.0, 0.0), (40.0, 116.0), (-33.9, 151.2)):
    f = fourier_features(point, 8)
    print(f"gamma{point}: dim={f.shape[0]}, norm={np.linalg.norm(f):.12f}")

print("\n== Random-feature kernel vs Gaussian limit ==")
print("feature count -> mean |empirical - closed form| over 100 pairs")
for m, dev in check_kernel(bandwidth=1.0, m_list=(64, 256, 1024, 4096), seed=0):
    print(f"  M = {m:5d} -> {dev:.5f}")

print("\n== Stability bound of the identity MLP ==")
rng = np.random.default_rng(1)
w1 = rng.normal(size=(64, 64)) * 0.2  # [features || grade embedding] rows
params = {
    "id_mlp.w1_feat": w1[:56],
    "id_mlp.w1_grade": w1[56:],
    "id_mlp.b1": rng.normal(size=64) * 0.1,
    "id_mlp.w2": rng.normal(size=(64, 32)) * 0.2,
    "id_mlp.b2": rng.normal(size=32) * 0.1,
}
ratio, bound = check_lipschitz(params, n_pairs=1000, seed=2)
print(f"max ||f(x)-f(y)|| / ||x-y|| over 1000 pairs: {ratio:.4f}")
print(f"product of layer spectral norms (upper bound): {bound:.4f}")
print(f"bound holds: {ratio <= bound * (1 + 1e-6)}")
