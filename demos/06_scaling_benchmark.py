#!/usr/bin/env python3
"""Scaling with station count, on the graph the model builds.

For each N, stations are generated in a 10x10 degree box and the hybrid
graph is built with `build_hybrid_graph`. Three times per N:

  build ms    one graph build; its semantic k-NN is O(N^2), so it grows
              faster than N
  forward ms  median no-grad forward
  step ms     median forward + masked-MAE loss + backward

The forward touches only per-node and per-edge arrays, so its time should
grow linearly with N. Uses a reduced sweep by default; pass --full for the
1024..8192 sweep the acceptance suite runs (equivalent to
`omniair bench --out bench/`).
"""

import sys

from omniair.bench import run_scaling

full = "--full" in sys.argv
sizes = (1024, 2048, 4096, 8192) if full else (256, 512, 1024, 2048)

print(f"timing graph builds, forwards and steps at N = {sizes} (K = 15, median of 5 repeats)")
report = run_scaling(sizes, k=15, t_in=4, repeats=5, seed=0)
print(f"{'N':>8} {'edges':>8} {'build ms':>10} {'forward ms':>12} {'step ms':>10}")
for row in report.rows:
    print(f"{row.n:8d} {row.edges:8d} {row.build_ms:10.2f} {row.forward_ms:12.2f} "
          f"{row.step_ms:10.2f}")
print(f"\nlog-log slope of forward time vs N: {report.slope:.3f}")
print("(1.0 = perfectly linear; the acceptance band is [0.8, 1.3])")
