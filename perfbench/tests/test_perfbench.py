"""Tests of the benchmark itself: its inputs, its tracer and its command."""

import json
import logging
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from gaspower import model, sim  # noqa: E402


def _simulator(workload, seed, caplog):
    network, scenario = workloads.build(workload, seed)
    assert model.validate_network(network.gas, network.grid,
                                  network.plants) == []
    with caplog.at_level(logging.WARNING, logger="gaspower.sim"):
        simulator = sim.Simulator(network, scenario)
    assert not caplog.records, "dt/dx is outside the validated regime"
    return simulator


def test_many_pipes_is_ten_bundled_copies(caplog):
    simulator = _simulator("many-pipes", 5, caplog)
    gas_net = simulator.network.gas
    assert len(gas_net.pipes) == 60
    assert len(gas_net.compressors) == 10
    assert simulator.assembler.index.size == 3167
    sources = [n for n in gas_net.nodes if n.kind == model.PRESSURE_BOUNDARY]
    assert [n.id for n in sources] == ["S5"]
    assert len(simulator.network.plants) == 1
    demands = [simulator.snapshots[0].node_outflow[i]
               for i, n in enumerate(simulator.assembler.nodes)
               if n.kind == model.FLOW_BOUNDARY]
    assert len(demands) == 10 and len(set(demands)) == 10


def test_long_pipes_refines_every_pipe(caplog):
    simulator = _simulator("long-pipes", 5, caplog)
    bundled = _simulator("bundled", 5, caplog)
    assert len(simulator.network.gas.pipes) == 6
    for fine, coarse in zip(simulator.network.gas.pipes,
                            bundled.network.gas.pipes):
        assert fine.cell_count == workloads.CELL_FACTOR * coarse.cell_count
    assert simulator.assembler.index.size == 2996
    assert bundled.assembler.index.size == 350


def test_seed_fixes_the_inputs():
    assert workloads.window(7) == workloads.window(7 + workloads.VARIANTS)
    assert len(set(workloads.window(39))) == workloads.WINDOW
    _, scenario = workloads.build("bundled", 0)
    a = workloads.draw_control("many-pipes", 7, scenario)
    b = workloads.draw_control("many-pipes", 7, scenario)
    c = workloads.draw_control("many-pipes", 8, scenario)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert a.shape == (scenario.step_count + 1,)
    pieces = np.split(a, np.flatnonzero(np.diff(a)) + 1)
    assert len(pieces) == len(workloads.CONTROL_PROFILE_BAR)
    for piece, (lo, hi) in zip(pieces, workloads.CONTROL_PROFILE_BAR):
        assert lo * 1e5 <= piece[0] <= hi * 1e5


def test_reference_covers_every_variant():
    table = json.loads((BENCH_DIR / "reference.json").read_text())
    assert set(table) == set(workloads.WORKLOADS)
    assert all(len(v) == workloads.VARIANTS for v in table.values())


def test_tracer_self_time_and_restore():
    class Layer:
        @staticmethod
        def inner():
            return 3

        @staticmethod
        def outer():
            return Layer.inner() + Layer.inner()

    original = Layer.outer
    tracer = spans.Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner", measure=lambda r: r * 2)
    with tracer.span("root"):
        assert Layer.outer() == 6
    tracer.close()
    assert Layer.outer is original

    tree = spans.SpanTree(tracer.spans)
    inside = tree.under(0)
    assert tree.counts(inside) == {"outer": 1, "inner": 2}
    assert tree.count_below(inside, "inner", "outer") == 2
    assert [s[4] for s in tracer.spans if s[0] == "inner"] == [6, 6]
    total, own = tree.totals(inside)
    children = sum(s[2] - s[1] for s in tracer.spans if s[0] == "inner")
    assert own["outer"] == pytest.approx(total["outer"] - children)


def test_clock_leaves_out_and_rescales_by_the_kernel():
    clock = speed.Clock()
    t0 = clock.start()
    deadline = t0 + 3 * speed.TICK_S
    while time.perf_counter() < deadline:
        pass
    t1 = time.perf_counter()
    clock.stop()
    inside = [d for s, d in clock._ticks if t0 <= s < t1]
    assert len(inside) >= 2
    kernels = [clock._before, *inside, clock._after]
    assert clock.factor(t0, t1) == pytest.approx(
        speed.REFERENCE_S / (sum(kernels) / len(kernels)))
    assert clock.seconds(t0, t1) == pytest.approx(
        (t1 - t0 - sum(inside)) * clock.factor(t0, t1))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled",
         "--seed", "11", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_command_prints_every_metric(trace, kind):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_command_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
