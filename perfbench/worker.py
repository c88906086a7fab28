"""One workload in one process: gate, set-up, measurement, result.

Started by ``run.py`` with the BLAS thread variables already set, so numpy
sees them at import. Prints a human-readable report, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. Exit codes: 0 correct,
1 an output check failed during measurement, 3 the correctness gate failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# The timed operations: sample key, reported metric, scale from seconds.
OPS = (("step", "step_ms", 1e3), ("fwd", "fwd_ms", 1e3), ("job", "job_s", 1.0))

TIMED_SPANS = (
    "autodiff.backward", "autodiff.gather", "autodiff.gather_bwd", "autodiff.segment_sum",
    "autodiff.segment_sum_bwd", "autodiff.matmul", "autodiff.matmul_bwd",
    "topology.build_hybrid_graph", "topology.semantic_knn", "geo.knn_geo",
    "topology.attach_new_nodes", "topology.edge_weights", "propagation.diffuse",
    "propagation.signed_aggregate", "propagation.fuse_and_gate", "propagation.forecast_head",
    "encoder.encode_identity", "model.forward", "model.build_state", "data.load_series",
    "data.load_stations", "data.make_windows", "inference.write_forecast_csv",
    "inference.rebuild_state", "checkpoint.load_checkpoint", "training.train_model",
    "training.validation_mae", "optim.step", "cli.main",
)
CALL_SPANS = ("autodiff.gather", "autodiff.segment_sum", "autodiff.matmul")
COUNTERS = (
    ("autodiff.gather_bytes", "bytes"), ("autodiff.segment_sum_bytes", "bytes"),
    ("autodiff.matmul_bytes", "bytes"), ("autodiff.tape_nodes", "count"),
    ("topology.edges", "count"), ("data.windows", "count"), ("optim.skipped_steps", "count"),
)


def raise_mmap_threshold() -> bool:
    """Keep large temporaries on the heap (glibc M_MMAP_THRESHOLD = 1 GiB), so
    repeated calls do not re-fault freshly mapped pages."""
    try:
        return ctypes.CDLL("libc.so.6").mallopt(-3, 1 << 30) == 1
    except (OSError, AttributeError):
        return False


def import_program() -> None:
    sys.path.insert(0, str(SRC))
    import omniair

    if not Path(omniair.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"omniair imported from {omniair.__file__}, not from {SRC}")


def run_untraced(w, workloads, seconds: float):
    """Set up ``setup_repeats`` times, then measure for ``seconds``."""
    setups = []
    for _ in range(w.setup_repeats):
        t0 = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t0)
    w.prepare()
    run = workloads.Run()
    w.measure(run, seconds)
    return run, setups


def run_traced(w, workloads, tracing):
    """One traced set-up, then ``traced_iterations`` pairs of an untraced and
    a traced iteration; returns the traced run, the untraced one and spans."""
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        with tracer.request("setup"):
            w.setup()
    finally:
        inst.remove()
    w.prepare()
    plain, run = workloads.Run(), workloads.Run(tracer)
    for _ in range(w.traced_iterations):
        w.iteration(plain)
        inst = tracing.install(tracer)
        try:
            w.iteration(run)
        finally:
            inst.remove()
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        run.fail(f"trace wrappers left installed: {leftovers[:5]}")
    return run, plain, tracer


def end_to_end_metrics(run, setups, summaries: dict) -> dict:
    import report

    summaries["setup_s"] = report.summarize(setups)
    metrics = {"setup_s": (summaries["setup_s"]["median"], "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}
    for key, name, scale in OPS:
        summaries[key] = report.summarize(run.samples[key])
        metrics[name] = (summaries[key]["median"] * scale, name.rsplit("_", 1)[1])
    metrics["quality_mae"] = (run.quality, "mae")
    return metrics


def per_layer_metrics(run, plain, tracer, layers) -> dict:
    """Totals over the traced set-up and iterations; the unattributed share is
    taken over the traced operations only."""
    everything = tracer.summary()
    in_ops = tracer.summary(requests=set(run.samples))
    m = {}
    for span in TIMED_SPANS:
        m[f"{span}_ms"] = (everything["inclusive_s"].get(span, 0.0) * 1e3, "ms")
    for span in CALL_SPANS:
        m[f"{span}_calls"] = (everything["calls"].get(span, 0), "count")
    for name, unit in COUNTERS:
        m[name] = (tracer.counters.get(name, 0), unit)
    for layer in (*layers, "bench"):
        m[f"self.{layer}_ms"] = (everything["self_s"].get(layer, 0.0) * 1e3, "ms")
    traced_s = sum(map(sum, run.samples.values()))
    untraced_s = sum(map(sum, plain.samples.values()))
    m["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    unattributed = in_ops["self_s"].get("bench", 0.0)
    m["trace.unattributed_pct"] = (100.0 * unattributed / in_ops["wall_s"], "%")
    m["trace.spans"] = (len(tracer.names), "count")
    return m


def print_report(args, env, gate_values, metrics, summaries, problems) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("gate " + json.dumps(gate_values, sort_keys=True))
    sample_keys = {"setup_s": "setup_s", **{name: key for key, name, _ in OPS}}
    for name, (value, unit) in metrics.items():
        if args.trace == 1:
            print(f"layer {name} = {value:.6g} {unit}")
        elif name not in sample_keys:
            print(f"metric {name} = {value!r} {unit}")
        else:
            s = summaries[sample_keys[name]]
            scale = value / s["median"]
            tail = (f", p{s['tail']['percentile']:g} {s['tail']['value'] * scale:.6g} {unit}"
                    if s["tail"] else "")
            print(f"metric {name} = {value:.6g} {unit} (median of {s['n']}{tail})")
    for problem in problems:
        print(f"problem {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="toy sizes, for the benchmark's own tests")
    args = p.parse_args(argv)

    mmap_raised = raise_mmap_threshold()
    import_program()
    import gate
    import report
    import tracing
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        gate_values = gate.check(args.seed, tiny=args.tiny)
    except gate.GateFailed as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 3

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    w = cls(args.seed, OUT / f"work-{tag}-{os.getpid()}", tiny=args.tiny)
    summaries: dict = {}
    try:
        if args.trace == 0:
            run, setups = run_untraced(w, workloads, args.seconds)
            metrics = end_to_end_metrics(run, setups, summaries)
            samples = {**run.samples, "setup": setups}
            if run.quality is None:
                run.fail("no operation produced a checked output")
        else:
            run, plain, tracer = run_traced(w, workloads, tracing)
            metrics = per_layer_metrics(run, plain, tracer, tracing.LAYERS)
            tracer.dump(OUT / f"spans-{tag}.jsonl")
            samples = {**run.samples, **{f"untraced_{k}": v for k, v in plain.samples.items()}}
            run.attempted += plain.attempted
            run.failed += plain.failed
            run.problems += plain.problems
    finally:
        shutil.rmtree(w.workdir, ignore_errors=True)

    env = report.environment(mmap_raised)
    print_report(args, env, gate_values, metrics, summaries, run.problems)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "environment": env, "gate": gate_values, "summaries": summaries,
                   "samples_s": samples, "problems": run.problems, **result},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
