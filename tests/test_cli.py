"""The command line: `python -m gaspower` and the exit codes of its
subcommands."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import gaspower
from gaspower import cli, io
from gaspower.sim import BoundaryData

from conftest import make_toy_network, make_toy_scenario

PACKAGE = Path(gaspower.__file__).parent


def run_module(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_validate_bundled_network():
    done = run_module("gaspower", "validate", "--network",
                      str(PACKAGE / "fixtures" / "network.json"))
    assert done.returncode == 0, done.stderr
    assert "valid (6 pipes, 1 compressors, 9 busses, 1 plants)" in done.stdout


def test_cli_module_runs_the_command():
    done = run_module("gaspower.cli", "validate", "--network",
                      str(PACKAGE / "fixtures" / "network.json"))
    assert done.returncode == 0, done.stderr
    assert "valid" in done.stdout


def test_no_arguments_is_an_input_error():
    done = run_module("gaspower")
    assert done.returncode == 2
    assert "usage: gaspower" in done.stderr


def test_wrongly_typed_record_is_an_input_error(tmp_path):
    raw = io.network_to_dict(make_toy_network())
    raw["pipes"][0] = 2000.0
    path = tmp_path / "network.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    done = run_module("gaspower", "validate", "--network", str(path))
    assert done.returncode == 2
    assert "pipe #0: expected an object" in done.stderr
    assert "Traceback" not in done.stderr


def write_toy_case(tmp_path, pressure_bounds=None, optimizer=None):
    """Toy network and scenario files; returns the common CLI arguments."""
    scenario = make_toy_scenario(pressure_bounds=pressure_bounds)
    scenario = replace(scenario, optimizer=dict(optimizer or {}))
    io.dump_network(make_toy_network(), tmp_path / "network.json")
    io.dump_scenario(scenario, tmp_path / "scenario.json")
    return ["--network", str(tmp_path / "network.json"),
            "--scenario", str(tmp_path / "scenario.json")]


def test_optimize_writes_the_iteration_log(tmp_path, capsys):
    files = write_toy_case(tmp_path, pressure_bounds={"C": 61.0e5})
    out = tmp_path / "out"
    assert cli.run(["optimize", *files, "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "iteration_log.csv").read_text().splitlines()
    assert lines[0] == "iter,objective,min_margin_bar"
    assert len(lines) > 1
    assert "SLSQP: Optimization terminated successfully after" in \
        capsys.readouterr().out


def test_optimize_at_the_iteration_limit_is_not_converged(tmp_path, capsys):
    files = write_toy_case(tmp_path, pressure_bounds={"C": 61.0e5})
    code = cli.run(["optimize", *files, "--out", str(tmp_path / "out"),
                    "--max-iter", "1"])
    assert code == cli.EXIT_NOT_CONVERGED
    assert "Iteration limit reached" in capsys.readouterr().err


def test_removed_barrier_option_is_an_input_error(tmp_path, capsys):
    files = write_toy_case(tmp_path, pressure_bounds={"C": 61.0e5})
    code = cli.run(["optimize", *files, "--out", str(tmp_path / "out"),
                    "--mu0", "100"])
    assert code == cli.EXIT_INPUT_ERROR
    assert "--mu0" in capsys.readouterr().err


def test_optimize_with_an_unreachable_bound_is_not_converged(tmp_path,
                                                             capsys):
    files = write_toy_case(tmp_path, pressure_bounds={"C": 95.0e5})
    code = cli.run(["optimize", *files, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NOT_CONVERGED
    assert "no constant control" in capsys.readouterr().err


def test_unknown_optimizer_key_is_an_input_error(tmp_path, capsys):
    files = write_toy_case(tmp_path, optimizer={"step_size": 1.0})
    code = cli.run(["optimize", *files, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT_ERROR
    assert "step_size" in capsys.readouterr().err


def test_removed_optimizer_key_is_an_input_error(tmp_path, capsys):
    files = write_toy_case(tmp_path, optimizer={"mu0": 100.0,
                                                "inner_tol": 0.05})
    code = cli.run(["optimize", *files, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT_ERROR
    assert "unknown key(s) inner_tol, mu0" in capsys.readouterr().err


def test_check_gradient(tmp_path, capsys):
    files = write_toy_case(tmp_path)
    control = tmp_path / "control.csv"
    io.write_control(np.array([0.0, 1800.0]), np.array([1.0e5, 2.0e5]),
                     control)
    code = cli.run(["check-gradient", *files, "--control", str(control),
                    "--components", "2"])
    assert code == cli.EXIT_OK
    assert "max relative error" in capsys.readouterr().out


def test_check_gradient_under_reversed_compressor_flow(tmp_path, capsys):
    """Both sides differentiate the unclipped cost of opt.cost_partials,
    so reversed flow, where opt.objective clips it, does not matter."""
    files = write_toy_case(tmp_path)
    # the outflow at C turns into a feed, so the compressor runs backwards
    boundary = BoundaryData.from_breakpoints({
        ("A", "pressure"): [(0.0, 60e5)],
        ("C", "outflow"): [(0.0, 150.0), (1800.0, -150.0)]})
    io.dump_scenario(replace(make_toy_scenario(), boundary=boundary),
                     tmp_path / "scenario.json")
    control = tmp_path / "control.csv"
    io.write_control(np.array([0.0]), np.array([1.0e5]), control)
    code = cli.run(["check-gradient", *files, "--control", str(control),
                    "--components", "3"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert float(out.split("max relative error:")[1]) < 1e-5


def test_simulate_writes_the_result_files(tmp_path, capsys):
    files = write_toy_case(tmp_path)
    out = tmp_path / "out"
    assert cli.run(["simulate", *files, "--out", str(out)]) == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "busses.csv", "control.csv", "gas_nodes.csv", "summary.json"]
    assert "simulated 2 steps" in capsys.readouterr().out


def test_simulate_with_a_malformed_control_is_an_input_error(tmp_path,
                                                             capsys):
    files = write_toy_case(tmp_path)
    control = tmp_path / "control.csv"
    control.write_text("t_hours,u_bar\n0.0;1.5\n", encoding="utf-8")
    code = cli.run(["simulate", *files, "--control", str(control),
                    "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT_ERROR
    assert "expected 't_hours,u_bar'" in capsys.readouterr().err


def test_zero_time_step_is_an_input_error(tmp_path, capsys):
    files = write_toy_case(tmp_path)
    path = tmp_path / "scenario.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["dt_minutes"] = 0
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = cli.run(["simulate", *files, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT_ERROR
    assert "dt_minutes must be positive" in capsys.readouterr().err


def test_scenario_scalar_that_is_not_a_number_is_an_input_error(tmp_path,
                                                                 capsys):
    files = write_toy_case(tmp_path)
    path = tmp_path / "scenario.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["control_bounds"]["u_max_bar"] = [30.0]
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = cli.run(["simulate", *files, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT_ERROR
    assert "control_bounds.u_max_bar: expected a number" in \
        capsys.readouterr().err
