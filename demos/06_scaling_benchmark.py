#!/usr/bin/env python3
"""Forward-pass scaling: wall time should grow linearly with station count
because every runtime operation touches only per-node or per-edge arrays.

Uses a reduced sweep by default; pass --full for the 1024..8192 sweep the
acceptance suite runs (equivalent to `omniair bench --out bench/`).
"""

import sys

from omniair.bench import run_scaling

full = "--full" in sys.argv
sizes = (1024, 2048, 4096, 8192) if full else (256, 512, 1024, 2048)

print(f"timing forward passes at N = {sizes} (K = 15, median of 5 repeats)")
report = run_scaling(sizes, k=15, t_in=4, repeats=5, seed=0)
print(f"{'N':>8} {'edges':>8} {'build ms':>10} {'forward ms':>12}")
for row in report.rows:
    print(f"{row.n:8d} {row.edges:8d} {row.build_ms:10.2f} {row.forward_ms:12.2f}")
print(f"\nlog-log slope of forward time vs N: {report.slope:.3f}")
print("(1.0 = perfectly linear; the acceptance band is [0.8, 1.3])")
