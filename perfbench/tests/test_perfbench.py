"""Tests of the benchmark itself: smoke runs at toy sizes, span arithmetic,
wrapper removal, and the correctness gate.

Run with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import gate  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from omniair import autodiff, model  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["trace.unattributed_pct"]["value"] < 5.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "large-n",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_arithmetic():
    # request [0, 10] > geo.a [1, 6] > autodiff.b [2, 4]; model.c [7, 9]
    t = tracing.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 9.0, 10.0]))
    with t.request("op"):
        with t.span("geo.a"):
            with t.span("autodiff.b"):
                pass
        with t.span("model.c"):
            pass
    assert t.self_times().tolist() == [3.0, 3.0, 2.0, 2.0]
    s = t.summary()
    assert s["wall_s"] == 10.0
    assert dict(s["self_s"]) == {"bench": 3.0, "geo": 3.0, "autodiff": 2.0, "model": 2.0}
    assert sum(s["self_s"].values()) == s["wall_s"]
    assert s["inclusive_s"]["geo.a"] == 5.0 and s["calls"]["model.c"] == 1
    assert t.parent == [-1, 0, 1, 0] and t.req == [1, 1, 1, 1]


def test_summary_filters_requests():
    t = tracing.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 8.0, 9.0]))
    with t.request("setup"):
        with t.span("geo.a"):
            pass
    with t.request("primary"):
        with t.span("geo.a"):
            pass
    only = t.summary(requests={"primary"})
    assert only["wall_s"] == 3.0 and only["inclusive_s"]["geo.a"] == 1.0
    assert t.summary()["wall_s"] == 8.0


def test_spans_must_nest():
    t = tracing.Tracer()
    a = t.begin("geo.a")
    t.begin("geo.b")
    with pytest.raises(RuntimeError):
        t.finish(a)


def _bindings():
    mods = tracing._omniair_modules()
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap[("Tensor", "backward")] = autodiff.Tensor.__dict__["backward"]
    return snap


def test_wrappers_removed_after_traced_run(tmp_path):
    w = workloads.LargeN(seed=0, workdir=tmp_path, tiny=True)
    w.setup()
    w.prepare()
    before = _bindings()
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    assert tracing.leftover_wrappers()
    assert model.forward is not before[("omniair.model", "forward")]
    run = workloads.Run(tracer)
    try:
        w.iteration(run)
    finally:
        inst.remove()
    assert tracing.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = set(tracer.names)
    assert {"model.forward", "autodiff.gather", "autodiff.backward", "autodiff.gather_bwd",
            "topology.edge_weights", "cli.main", "topology.attach_new_nodes"} <= names
    assert tracer.counters["autodiff.tape_nodes"] > 0
    assert run.failed == 0


def test_gate_passes_on_the_program():
    values = gate.check(seed=0, tiny=True)
    assert values["dense_max_abs_dev"] <= gate.DENSE_ATOL


def test_gate_fails_on_perturbed_forward(monkeypatch):
    original = model.forward

    def perturbed(*args, **kwargs):
        out = original(*args, **kwargs)
        out.data = out.data + 1e-6
        return out

    monkeypatch.setattr(model, "forward", perturbed)
    with pytest.raises(gate.GateFailed, match="dense reference"):
        gate.check(seed=0, tiny=True)


def test_summarize_tail_rule():
    assert report.summarize(np.arange(39.0))["tail"] is None
    s = report.summarize(np.arange(40.0))
    assert s["n"] == 40 and s["tail"]["percentile"] == 75.0
    assert report.summarize(np.arange(1000.0))["tail"]["percentile"] == 99.0
    assert report.summarize([3.0, 1.0, 2.0])["median"] == 2.0


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
