import ctypes
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from omniair import bench
from omniair.autodiff import no_grad, zero_grads
from omniair.bench import (
    bench_config,
    fit_loglog_slope,
    run_scaling,
    scaling_case,
    traced_step,
    write_bench_csv,
    write_loglog,
)
from omniair.data import make_windows
from omniair.model import forward, masked_mae_loss
from omniair.training import train_model

from conftest import small_config


class TestPinAllocator:
    @staticmethod
    def _fake_libc(monkeypatch):
        """Record every ``mallopt`` call instead of changing this process."""
        calls = []

        class FakeLibc:
            def __init__(self):
                def mallopt(param, value):
                    calls.append((param, value))
                    return 1

                self.mallopt = mallopt  # a function, so argtypes can be set on it

        monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc())
        return calls

    def test_raises_mmap_and_trim_thresholds(self, monkeypatch):
        calls = self._fake_libc(monkeypatch)
        bench.pin_allocator()
        assert calls == [(-3, 1 << 30), (-1, 1 << 30)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    def test_import_pins_once_and_main_adds_nothing(self, tmp_path):
        # a fresh interpreter, since this session imported omniair long ago
        script = textwrap.dedent("""
            import ctypes, json, sys
            import numpy
            calls = []

            class FakeLibc:
                def __init__(self):
                    def mallopt(param, value):
                        calls.append((param, value))
                        return 1

                    self.mallopt = mallopt

            ctypes.CDLL = lambda *args, **kwargs: FakeLibc()
            import omniair
            at_import = list(calls)
            from omniair.cli import main
            rc = main(["synth", "--n", "5", "--steps", "20", "--out", sys.argv[1]])
            print(json.dumps([at_import, calls[len(at_import):], rc]))
        """)
        src = str(Path(bench.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "s")], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        at_import, in_main, rc = json.loads(done.stdout.strip().splitlines()[-1])
        assert [tuple(c) for c in at_import] == [(-3, 1 << 30), (-1, 1 << 30)]
        assert in_main == [] and rc == 0

    def test_library_never_pins(self, monkeypatch, tiny_dataset):
        # training and the forward pass must not change process state
        calls = self._fake_libc(monkeypatch)
        stations, frame = tiny_dataset
        result = train_model(small_config(max_epochs=1), stations, frame)
        batch = next(make_windows(result.splits[2], 8, 3, result.state.stats, 4))
        with no_grad():
            out = forward(result.params, result.state, batch.inputs)
        assert np.isfinite(out.data).all()
        assert calls == []


class TestSlopeFit:
    def test_exactly_linear_timings(self):
        ns = [100, 200, 400, 800]
        times = [3.0 * n for n in ns]  # injected, exactly linear
        assert fit_loglog_slope(ns, times) == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_timings(self):
        ns = [100, 200, 400]
        times = [n**2 / 1000 for n in ns]
        assert fit_loglog_slope(ns, times) == pytest.approx(2.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([10, 20], [1.0, 2.0])


class TestRunScaling:
    def test_small_sweep_structure(self, tmp_path):
        report = run_scaling((64, 128, 256), k=6, t_in=2, repeats=5, seed=0)
        assert [r.n for r in report.rows] == [64, 128, 256]
        for r in report.rows:
            assert r.edges == r.n * 6  # N * K exactly by construction
            assert r.forward_ms > 0 and r.step_ms > 0
        write_bench_csv(report, tmp_path / "bench.csv")
        write_loglog(report, tmp_path / "loglog.txt")
        lines = (tmp_path / "loglog.txt").read_text().strip().splitlines()
        # two plain numbers per line, not numpy reprs such as np.float64(...)
        parsed = [[float(field) for field in line.split()] for line in lines]
        assert parsed == [pytest.approx([math.log(r.n), math.log(r.forward_ms)], rel=1e-12)
                          for r in report.rows]

    def test_builds_each_graph_with_build_hybrid_graph(self, monkeypatch):
        calls = []
        real = bench.build_hybrid_graph

        def counted(points, *args, **kwargs):
            calls.append(len(points))
            return real(points, *args, **kwargs)

        monkeypatch.setattr(bench, "build_hybrid_graph", counted)
        run_scaling((64, 128, 256), k=4, t_in=2, repeats=5, seed=0)
        assert calls == [64, 128, 256]

    def test_doubling_k_doubles_edges(self):
        a = run_scaling((64, 128, 256), k=4, t_in=2, repeats=5, seed=0)
        b = run_scaling((64, 128, 256), k=8, t_in=2, repeats=5, seed=0)
        for ra, rb in zip(a.rows, b.rows):
            assert rb.edges == 2 * ra.edges

    def test_validation(self):
        with pytest.raises(ValueError):
            run_scaling((64, 128), repeats=5)
        with pytest.raises(ValueError):
            run_scaling((64, 128, 256), repeats=2)
        with pytest.raises(ValueError):
            run_scaling((256, 128, 64), repeats=5)
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
                run_scaling((64, 128, 256), k=k, repeats=5)

    def test_rows_reproducible_in_structure(self):
        a = run_scaling((64, 128, 256), k=5, t_in=2, repeats=5, seed=3)
        b = run_scaling((64, 128, 256), k=5, t_in=2, repeats=5, seed=3)
        assert [(r.n, r.k, r.edges) for r in a.rows] == [(r.n, r.k, r.edges) for r in b.rows]


class TestTracedMemory:
    """Memory of one taped step, counted exactly by ``tracemalloc``: unlike
    peak RSS it does not move with heap placement or machine load.

    The unit is bytes per (row x D), a row being one (b, t, n). Measured on
    ``bench_config(15, 4)`` networks (B 1, t_in 4, D 32): a peak of 235.2 and
    233.6 and a forward that holds 209.4 and 209.0 at N = 512 and 2048. A
    change that lowers memory lowers the bounds with it. Below N = 512 the
    fixed costs show: at N = 256 the peak is 253.3.

    After ``backward()``, with the loss still held, the step keeps only the
    parameter gradients (158 736 bytes) and 5 259 bytes more, at either N."""

    PEAK_BOUND = 240.0
    HELD_BOUND = 212.0
    SWEPT_SLACK = 64 * 1024  # bytes beyond the parameter gradients

    @staticmethod
    def _traced_step(n: int) -> tuple[float, float, int]:
        cfg = bench_config(15, 4)
        _, state, params, x, target = scaling_case(cfg, n, seed=0)
        mask = np.ones(target.shape, dtype=bool)
        zero_grads(params)
        masked_mae_loss(forward(params, state, x), target, mask).backward()  # warm-up
        held, peak, after = traced_step(state, params, x, target)
        unit = x.shape[0] * cfg.t_in * n * cfg.d_model
        grads = sum(p.grad.nbytes for p in params.values() if p.grad is not None)
        return peak / unit, held / unit, after - grads

    def test_step_memory_is_bounded_and_linear_in_n(self):
        (peak_a, held_a, kept_a), (peak_b, held_b, kept_b) = (self._traced_step(512),
                                                              self._traced_step(2048))
        assert max(peak_a, peak_b) <= self.PEAK_BOUND
        assert max(held_a, held_b) <= self.HELD_BOUND
        assert max(kept_a, kept_b) <= self.SWEPT_SLACK
        assert peak_a == pytest.approx(peak_b, rel=0.03)
        assert held_a == pytest.approx(held_b, rel=0.03)


def test_cli_bench_writes_csv_and_loglog(tmp_path, capsys):
    from omniair.cli import main

    out = tmp_path / "bench"
    argv = ["bench", "--n", "64", "128", "256", "--k", "4", "--t-in", "2", "--out", str(out)]
    assert main(argv) == 0
    rows = (out / "bench.csv").read_text().strip().splitlines()
    assert rows[0] == "n,k,edges,build_ms,forward_ms,step_ms,rss_mb,traced_peak_b"
    assert [r.split(",")[:3] for r in rows[1:4]] == [["64", "4", "256"], ["128", "4", "512"],
                                                     ["256", "4", "1024"]]
    assert rows[4].startswith("slope,")
    assert len((out / "loglog.txt").read_text().strip().splitlines()) == 3
    printed = capsys.readouterr().out
    assert "log-log slope" in printed and printed.count(" step=") == 3


def test_traced_peak_is_positive_and_flat_from_512():
    report = run_scaling((256, 512, 2048), repeats=5, seed=0)
    assert all(r.traced_peak_b > 0 for r in report.rows)
    flat = [r.traced_peak_b for r in report.rows if r.n >= 512]
    assert max(flat) <= min(flat) * 1.03
