"""Command-line entry point: simulate, optimize, check-gradient, validate.

Exit codes: 0 on success, 1 on infeasibility or non-convergence, 2 on
input errors.  Batch-oriented; all output goes to files and stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import adjoint, io, opt
from .model import validate_network
from .sim import SimulationError, Simulator

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_INPUT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaspower",
        description="Transient gas network simulation coupled to AC power "
                    "flow, with optimal compressor control.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--network", required=True, help="network JSON file")
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--lax", action="store_true",
                       help="warn on unknown file keys instead of failing")

    p_sim = sub.add_parser("simulate", help="run one forward simulation")
    add_common(p_sim)
    p_sim.add_argument("--control", help="control CSV (t_hours,u_bar); "
                                         "u = 0 if omitted")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_opt = sub.add_parser("optimize",
                           help="minimize compressor cost subject to "
                                "pressure bounds and forward compressor "
                                "flow, by one SLSQP solve")
    add_common(p_opt)
    p_opt.add_argument("--out", required=True, help="output directory")

    p_grad = sub.add_parser("check-gradient",
                            help="compare adjoint gradient against "
                                 "extrapolated central differences")
    add_common(p_grad)
    p_grad.add_argument("--control", required=True,
                        help="control CSV the gradient is evaluated at")
    p_grad.add_argument("--components", type=int, default=5,
                        help="number of control components to check")

    p_val = sub.add_parser("validate", help="validate a network file")
    p_val.add_argument("--network", required=True)
    p_val.add_argument("--lax", action="store_true")
    return parser


def _load(args):
    """The command's Simulator and --control on its time grid (or None);
    an --out that cannot be a directory is refused before any solve."""
    network = io.load_network(args.network, strict=not args.lax)
    scenario = io.load_scenario(args.scenario, network, strict=not args.lax)
    simulator = Simulator(network, scenario)
    control = getattr(args, "control", None)
    if control:
        control = np.interp(scenario.times, *io.load_control(control))
    out = Path(getattr(args, "out", "."))
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise NotADirectoryError(f"--out {out}: {nearest} is not a directory")
    return simulator, control


def _cmd_simulate(args) -> int:
    simulator, control = _load(args)
    try:
        trajectory = simulator.run(control)
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    summary = io.write_results(simulator, trajectory, args.out)
    print(f"simulated {trajectory.step_count} steps "
          f"({simulator.scenario.horizon / 3600.0:g} h), objective "
          f"{summary['objective']:.6g}")
    for node, entry in summary["margins"].items():
        print(f"  {node}: min pressure {entry['min_pressure_bar']:.4f} bar "
              f"(bound {entry['p_min_bar']:g} bar, margin "
              f"{entry['min_margin_bar']:.4f} bar)")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    simulator, _ = _load(args)
    try:
        result = opt.optimize(simulator)
    except (opt.OptimizationError, SimulationError) as exc:
        print(f"optimization failed: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    io.write_results(simulator, result.trajectory, args.out)
    io.write_iteration_log(result.log, f"{args.out}/iteration_log.csv")
    print(f"optimized objective {result.objective:.6g}, "
          f"min margin {result.min_margin_bar:.6f} bar, "
          f"SLSQP: {result.message} after {result.iterations} iterations, "
          f"{result.simulations} simulations, {result.sweeps} sweeps")
    return EXIT_OK


def _cmd_check_gradient(args) -> int:
    simulator, control = _load(args)
    try:    # the forward run, the adjoint sweep and the FD runs
        trajectory = simulator.run(control)
        _, dj_dy, dj_du = opt.cost_partials(simulator, trajectory)
        xi = adjoint.adjoint_sweep(simulator, trajectory, dj_dy)
        grad = adjoint.total_gradient(simulator, trajectory, xi, dj_du)

        m = trajectory.step_count
        k = max(1, min(args.components, m + 1))
        components = np.unique(np.linspace(0, m, k).round().astype(int))
        # the functional the adjoint differentiates: unlike opt.objective,
        # it does not clip reversed compressor flow
        fd = adjoint.fd_gradient(
            simulator, lambda tr, u: opt.cost_partials(simulator, tr)[0],
            control, components)
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED

    print(f"{'j':>4} {'adjoint':>16} {'extrap. FD':>16} {'rel error':>12}")
    worst = 0.0
    for j in components:
        denom = max(abs(fd[j]), 1e-300)
        rel = abs(grad[j] - fd[j]) / denom
        worst = max(worst, rel)
        print(f"{j:>4} {grad[j]:>16.8e} {fd[j]:>16.8e} {rel:>12.3e}")
    print(f"max relative error: {worst:.3e}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    network = io.load_network(args.network, strict=not args.lax,
                              validate=False)
    violations = validate_network(network.gas, network.grid, network.plants)
    if violations:
        print("validation failed:")
        for v in violations:
            print(f"  - {v}")
        return EXIT_INPUT_ERROR
    print(f"{args.network}: valid "
          f"({len(network.gas.pipes)} pipes, "
          f"{len(network.gas.compressors)} compressors, "
          f"{len(network.grid.busses)} busses, "
          f"{len(network.plants)} plants)")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "optimize": _cmd_optimize,
    "check-gradient": _cmd_check_gradient,
    "validate": _cmd_validate,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad arguments, matching our convention
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
