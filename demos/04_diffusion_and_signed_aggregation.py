#!/usr/bin/env python3
"""Restart diffusion and signed aggregation: why coefficients in [-1, 1]
matter.

A smoothing-only (convex) combination of diffusion states can never leave
the range of its inputs, so it cannot represent an emission source that
pushes a station above its whole neighborhood. Signed coefficients can
compute differences, recovering a graph-Laplacian response.
"""

import numpy as np

from omniair.autodiff import Tensor
from omniair.propagation import diffuse, signed_aggregate
from omniair.topology import HybridGraph

rng = np.random.default_rng(0)
n, per, d = 6, 2, 4
nbr = np.stack(
    [rng.choice([j for j in range(n) if j != i], per, replace=False) for i in range(n)]
)
graph = HybridGraph(nbr, np.ones(nbr.shape))
weights = Tensor(rng.uniform(0.2, 0.5, size=(1, n, per)))
h0 = Tensor(rng.normal(size=(1, 1, n, d)))

print("== Diffusion stack with restart 0.2 ==")
stack = diffuse(h0, weights, graph, steps=2, restart=0.2)
for l, h in enumerate(stack.data):
    print(f"  step {l}: node-0 state {np.round(h[0, 0, 0], 3)}")

print("\n== Forced coefficients (1, -1): graph-difference response ==")
one_step = diffuse(h0, weights, graph, steps=1, restart=0.0)
params = {
    "agg.wq": Tensor(rng.normal(size=(2, 2, 2))),
    "agg.wk": Tensor(rng.normal(size=(2, 2, 2))),
    "agg.step_bias": Tensor(np.ones(2)),
}
z = signed_aggregate(one_step, params, heads=2, forced_coeffs=np.array([1.0, -1.0]))
dense = np.zeros((n, n))
dense[np.arange(n)[:, None], graph.nbr] = weights.data[0]
ref = h0.data[0, 0] - dense @ h0.data[0, 0]
print(f"  max |engine - (I - A) h0| = {np.abs(z.data[0, 0] - ref).max():.2e}")

print("\n== Convex-hull limitation of smoothing-only aggregation ==")
params = {
    "agg.wq": Tensor(rng.normal(size=(2, 2, 2))),
    "agg.wk": Tensor(rng.normal(size=(2, 2, 2))),
    "agg.step_bias": Tensor(np.ones(stack.shape[0])),
}
z_pos = signed_aggregate(stack, params, heads=2, mode="positive").data
states = stack.data
inside = np.all(z_pos >= states.min(axis=0) - 1e-12) and np.all(
    z_pos <= states.max(axis=0) + 1e-12
)
print(f"  positive-mode output inside per-node hull: {inside}")
z_signed = signed_aggregate(stack, params, heads=2).data
outside = np.any(z_signed < states.min(axis=0)) or np.any(z_signed > states.max(axis=0))
print(f"  signed-mode output can leave the hull:     {outside}")
