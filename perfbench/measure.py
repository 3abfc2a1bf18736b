"""Measurements and checks of one benchmark run (see run.py and README.md)."""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gaspower
from gaspower import adjoint, gas, opt, power, sim

import spans
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

SETUP_REPEATS = 16       # set-ups per run, spread over the run's inputs
MIN_TRACED = 2           # traced gradients per run; their counts must agree
OBJECTIVE_RTOL = 1.0e-6
FD_RTOL = 1.0e-6
# Central-difference step in the lift.  The truncation error of central
# differences grows with h^2: on many-pipes it reaches 1.8e-6 (relative)
# at fd_gradient's default of 1e3 Pa and 2e-8 at 100 Pa, where the
# rounding error of the objective is still far smaller.
FD_STEP_PA = 100.0


@dataclass
class Sample:
    """One checked gradient; times are calibrated (see speed.py)."""

    run_s: float          # the Simulator.run of the chain
    chain_s: float        # the whole chain
    factor: float         # calibration factor applied to raw seconds


@dataclass
class Input:
    """One input variant: its simulator, control and reference objective."""

    variant: int
    simulator: object
    control: object
    reference: float
    samples: list[Sample] = field(default_factory=list)
    trajectory: object = None     # of the latest successful gradient
    grad: object = None


class Bench:
    """The inputs of one run, the checks, and the operation counts."""

    def __init__(self, workload: str, variants: list[int], clock):
        self.workload = workload
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.setup_s = []
        built = {}
        for k in range(SETUP_REPEATS):
            variant = variants[k % len(variants)]
            gc.collect()
            t0 = clock.start()
            try:
                network, scenario = workloads.build(workload, variant)
                simulator = sim.Simulator(network, scenario)
                t1 = perf_counter()
            finally:
                clock.stop()
            self.setup_s.append(clock.seconds(t0, t1))
            self.attempted += 1
            built[variant] = simulator
        references = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.inputs = [
            Input(v, built[v],
                  workloads.draw_control(workload, v, built[v].scenario),
                  references[workload][v])
            for v in variants]

    def fail(self, what: str):
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def gradient(self, item: Input) -> Sample | None:
        """One timed cost gradient along the check-gradient chain, checked."""
        simulator = item.simulator
        self.attempted += 1
        clock = self.clock
        gc.collect()
        t0 = clock.start()
        try:
            trajectory = simulator.run(item.control)
            t1 = perf_counter()
            _, dj_dy, dj_du = opt.cost_partials(simulator, trajectory)
            xi = adjoint.adjoint_sweep(simulator, trajectory, dj_dy)
            grad = adjoint.total_gradient(simulator, trajectory, xi, dj_du)
            t2 = perf_counter()
        except sim.SimulationError as exc:
            self.fail(f"variant {item.variant}: a step did not converge: {exc}")
            return None
        finally:
            clock.stop()
        problems = self.check_trajectory(item, trajectory)
        if problems:
            self.fail(f"variant {item.variant}: " + "; ".join(problems))
            return None
        item.trajectory, item.grad = trajectory, grad
        return Sample(clock.seconds(t0, t1), clock.seconds(t0, t2),
                      clock.factor(t0, t2))

    def check_trajectory(self, item: Input, trajectory) -> list[str]:
        """Untimed checks of one forward run against stored and exact values."""
        if not np.all(np.isfinite(trajectory.states)):
            return ["non-finite state"]
        problems = []
        value = opt.objective(item.simulator, trajectory)
        if abs(value - item.reference) > OBJECTIVE_RTOL * abs(item.reference):
            problems.append(f"objective {value!r} differs from the reference "
                            f"{item.reference!r}")
        tol = item.simulator.tol
        balance = float(np.max(sim.mass_balance_report(item.simulator,
                                                       trajectory)))
        if not balance < tol:
            problems.append(f"mass balance error {balance:.3e} is not below "
                            f"the Newton tolerance {tol:g}")
        return problems

    def fd_gradient(self, item: Input):
        """Untimed central differences on 2 components, or None on failure.

        Runs before the timed loop, which it also warms up.  The functional
        is the one the adjoint differentiates, the value returned by
        opt.cost_partials.
        """
        simulator = item.simulator
        m = simulator.scenario.step_count
        components = (m // 4, 3 * m // 4)
        try:
            fd = adjoint.fd_gradient(
                simulator, lambda tr, u: opt.cost_partials(simulator, tr)[0],
                item.control, components, h=FD_STEP_PA)
        except sim.SimulationError as exc:
            self.fail(f"finite-difference run did not converge: {exc}")
            return None
        return {j: fd[j] for j in components}

    def check_fd(self, item: Input, fd):
        """The adjoint gradient agrees with the central differences."""
        self.attempted += 1
        if fd is None:
            return
        error = max(abs(item.grad[j] - fd[j]) / abs(fd[j]) for j in fd)
        print(f"adjoint vs central differences, variant {item.variant}, "
              f"levels {tuple(fd)}: relative error {error:.2e}")
        if not error < FD_RTOL:
            self.fail(f"adjoint gradient differs from central differences "
                      f"by {error:.3e} (relative) at levels {tuple(fd)}")

    def objective_gap(self, item: Input) -> float:
        """Relative gap between opt.objective and the value of cost_partials.

        opt.cost_series clips reversed compressor flow to zero and
        opt.cost_partials does not, so the gap is nonzero exactly when a
        compressor runs backwards at some time level.
        """
        value = opt.objective(item.simulator, item.trajectory)
        partial_value = opt.cost_partials(item.simulator, item.trajectory)[0]
        return abs(value - partial_value) / abs(value)

    def run_for(self, seconds: float, inputs: list[Input], take,
                minimum: int = 1) -> None:
        """Cycle take(input) over `inputs` for `seconds`, in whole cycles.

        Every input gets at least `minimum` samples unless its operations
        fail; failures end the loop once the time is up.
        """
        deadline = perf_counter() + seconds
        k = 0
        while k % len(inputs) or perf_counter() < deadline or \
                any(len(item.samples) < minimum for item in inputs):
            item = inputs[k % len(inputs)]
            sample = take(item)
            if sample is not None:
                item.samples.append(sample)
            elif perf_counter() >= deadline:
                break
            k += 1
        if not all(item.samples for item in inputs):
            raise RuntimeError("an input has no successful gradient")

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _summary(name, values, unit):
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    print(f"{name}: median {statistics.median(values):.6g} {unit} over "
          f"{len(values)} samples (quartiles {q1:.6g}, {q3:.6g})")
    return {"value": statistics.median(values), "unit": unit}


def _input_median(name, inputs, key, unit):
    """Median over the inputs of each input's median sample."""
    medians = [statistics.median(key(s) for s in item.samples)
               for item in inputs]
    value = statistics.median(medians)
    counts = "+".join(str(len(item.samples)) for item in inputs)
    print(f"{name}: {value:.6g} {unit}, median of the per-input medians "
          f"{', '.join(f'{m:.6g}' for m in medians)} over {counts} samples")
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float) -> dict:
    fd = bench.fd_gradient(bench.inputs[0])
    bench.run_for(seconds, bench.inputs, bench.gradient)
    bench.check_fd(bench.inputs[0], fd)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb: {peak_mib:.6g} MiB")
    return {
        "setup_s": _summary("setup_s", bench.setup_s, "s"),
        "simulate_s": _input_median("simulate_s", bench.inputs,
                                  lambda s: s.run_s, "s"),
        "gradient_s": _input_median("gradient_s", bench.inputs,
                                  lambda s: s.chain_s, "s"),
        "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
    }


def install_spans(tracer):
    """Wrap the public calls into each layer, where the program makes them."""

    def fill(lu):
        return lu.L.nnz + lu.U.nnz

    tracer.wrap(sim.Simulator, "run", "sim.run")
    tracer.wrap(sim, "steady_state", "sim.steady")
    tracer.wrap(sim, "newton_solve_step", "sim.newton")
    tracer.wrap(sim.CoupledStepAssembler, "residual", "sim.residual")
    tracer.wrap(sim.CoupledStepAssembler, "jacobian", "sim.jacobian")
    tracer.wrap(sim, "splu", "sim.lu", measure=fill)
    tracer.wrap(gas, "_box_blocks", "gas.box_blocks")
    tracer.wrap(gas, "friction_factor_and_derivative", "gas.colebrook")
    tracer.wrap(power, "powerflow_residual", "power.residual")
    tracer.wrap(power, "injection_jacobians", "power.jacobians")
    tracer.wrap(power, "solve_powerflow", "power.solve")
    tracer.wrap(opt, "cost_partials", "opt.cost_partials")
    tracer.wrap(adjoint, "adjoint_sweep", "adjoint.sweep")
    tracer.wrap(adjoint, "splu", "adjoint.lu")
    tracer.wrap(adjoint, "total_gradient", "adjoint.total_gradient")


def layer_metrics(tree, root: int, steps: int, factor: float
                  ) -> tuple[dict, dict, list[str]]:
    """Per-layer figures of one traced gradient, its call counts, problems.

    Times are multiplied by the calibration factor of the gradient.
    """
    inside = tree.under(root)
    names = [tree.spans[i][0] for i in inside]
    run = inside[names.index("sim.run")]
    sweep = inside[names.index("adjoint.sweep")]
    partials = inside[names.index("opt.cost_partials")]
    forward, backward = tree.under(run), tree.under(sweep)
    fwd_n = tree.counts(forward)
    fwd_t, fwd_self = tree.totals(forward)
    all_n = tree.counts(inside)
    all_t, all_self = tree.totals(inside)
    newton = tree.count_below(forward, "sim.lu", "sim.newton")
    steady = tree.count_below(forward, "sim.lu", "sim.steady")
    fills = [tree.spans[i][4] for i in forward if tree.spans[i][0] == "sim.lu"]
    adjoint_jacobians = tree.counts(backward)["sim.jacobian"]
    seconds = {
        "gas.colebrook.s": all_t["gas.colebrook"],
        "gas.box_blocks.self_s": all_self["gas.box_blocks"],
        "sim.residual.self_s": fwd_self["sim.residual"],
        "sim.jacobian.self_s": fwd_self["sim.jacobian"],
        "sim.lu.s": fwd_t["sim.lu"],
        "power.s": tree.outermost(forward, "power."),
        "adjoint.sweep.self_s": tree.self_time[sweep],
        "adjoint.lu.s": all_t["adjoint.lu"],
        "opt.cost_partials.s": tree.duration(partials),
    }
    figures = {name: t * factor for name, t in seconds.items()}
    figures.update({
        "gas.colebrook.calls": all_n["gas.colebrook"],
        "gas.box_blocks.calls": all_n["gas.box_blocks"],
        "sim.residual.calls": fwd_n["sim.residual"],
        "sim.jacobian.calls": fwd_n["sim.jacobian"],
        "sim.lu.calls": fwd_n["sim.lu"],
        "sim.lu.fill_nnz": statistics.median(fills) if fills else 0,
        "sim.newton.jacobians_per_step":
            tree.count_below(forward, "sim.jacobian", "sim.newton") / steps,
        "sim.newton.residuals_per_step":
            tree.count_below(forward, "sim.residual", "sim.newton") / steps,
        "sim.steady.iters": steady,
        "adjoint.jacobians": adjoint_jacobians,
    })
    problems = []
    if fwd_n["sim.jacobian"] != newton + steady:
        problems.append(f"forward Jacobians {fwd_n['sim.jacobian']} != Newton "
                        f"iterations {newton} + steady iterations {steady}")
    if adjoint_jacobians != steps + 1:
        problems.append(f"adjoint Jacobians {adjoint_jacobians} != steps + 1 "
                        f"= {steps + 1}")
    return figures, dict(all_n), problems


# Unit of each per-layer figure by the last part of its name; others are s.
_LAYER_UNITS = {"calls": "count", "fill_nnz": "count", "iters": "count",
                "jacobians": "count", "jacobians_per_step": "count/step",
                "residuals_per_step": "count/step"}


def per_layer(bench: Bench, seconds: float) -> dict:
    """Alternate untraced and traced gradients of the run's one input."""
    item, = bench.inputs
    steps = item.simulator.scenario.step_count
    tracer = spans.Tracer()
    untraced, roots = [], []

    def pair(item):
        sample = bench.gradient(item)
        install_spans(tracer)
        try:
            with tracer.span("gradient"):
                root = len(tracer.spans) - 1
                traced = bench.gradient(item)
        finally:
            tracer.close()
        if sample is None or traced is None:
            return None
        untraced.append(sample)
        roots.append(root)
        return traced

    fd = bench.fd_gradient(item)
    bench.run_for(seconds, [item], pair, minimum=MIN_TRACED)
    bench.check_fd(item, fd)

    tree = spans.SpanTree(tracer.spans)
    figures, counts, problems = [], [], []
    for traced, root in zip(item.samples, roots):
        f, n, p = layer_metrics(tree, root, steps, traced.factor)
        figures.append(f)
        counts.append(n)
        problems += p
    if any(n != counts[0] for n in counts):
        problems.append("call counts differ between traced runs of one input")
    bench.attempted += 1
    if problems:
        bench.fail("counter consistency: " + "; ".join(sorted(set(problems))))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{bench.workload}.spans.json")

    metrics = {}
    for name in figures[0]:
        unit = _LAYER_UNITS.get(name.rsplit(".", 1)[1], "s")
        metrics[name] = _summary(name, [f[name] for f in figures], unit)
    traced_run = statistics.median(s.run_s for s in item.samples)
    untraced_run = statistics.median(s.run_s for s in untraced)
    overhead = traced_run / untraced_run - 1.0
    print(f"trace.overhead: {overhead:.4g} (Simulator.run traced "
          f"{traced_run:.6g} s, untraced {untraced_run:.6g} s)")
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    metrics["opt.objective_gap"] = {"value": bench.objective_gap(item),
                                    "unit": "ratio"}
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(Path(gaspower.__file__).parent.rglob("*.py")))
    metrics["src.lines"] = {"value": lines, "unit": "lines"}
    return metrics
