"""The command line: `python -m gaspower` and the exit codes of its
subcommands."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gaspower
from gaspower import adjoint, cli, io, opt
from gaspower.model import GasNetwork
from gaspower.sim import (BoundaryData, SimulationError, Simulator,
                          SingularJacobian)

from conftest import make_toy_network, make_toy_scenario

PACKAGE = Path(gaspower.__file__).parent


def run_module(*args, **environment):
    """`python -m` with args, src on the path and `environment` set."""
    env = dict(os.environ, **environment)
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


def test_validate_rejects_a_compressor_without_an_adjacent_pipe(tmp_path):
    toy = make_toy_network()
    network = replace(toy, gas=replace(toy.gas, nodes=toy.gas.nodes[:2],
                                       pipes=()))
    io.dump_network(network, tmp_path / "network.json")
    done = run_module("gaspower", "validate", "--network",
                      str(tmp_path / "network.json"))
    assert done.returncode == 2
    assert "compressor CMP has no adjacent pipe to take a reference " \
           "cross-section from" in done.stdout


def test_validate_rejects_absurd_pipe_roughness(tmp_path):
    raw = io.network_to_dict(make_toy_network())
    raw["pipes"][0].update(diameter=0.6, roughness=2.0)
    path = tmp_path / "network.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    done = run_module("gaspower", "validate", "--network", str(path))
    assert done.returncode == 2
    assert "pipe PB: roughness must be >= 0 and below 0.05 x diameter" \
        in done.stderr


def test_validate_rejects_an_empty_gas_network(tmp_path):
    toy = make_toy_network()
    io.dump_network(replace(toy, gas=GasNetwork((), ())),
                    tmp_path / "network.json")
    done = run_module("gaspower", "validate", "--network",
                      str(tmp_path / "network.json"))
    assert done.returncode == 2
    assert "gas network has no node" in done.stdout


@pytest.mark.parametrize("record,key,value,message", [
    ("pipes", "cell_count", 2.5, "pipe #0: cell_count: expected an integer"),
    ("lines", "B", "x", "line #0: B: expected a number"),
    ("plants", "a0", float("nan"), "plant #0: a0: expected a number"),
    ("busses", "G", float("nan"), "bus #0: G: expected a number"),
    ("busses", "G", True, "bus #0: G: expected a number"),
    ("pipes", "length", "1500", "pipe #0: length: expected a number"),
    ("pipes", "cell_count", True, "pipe #0: cell_count: expected a number"),
    ("constants", "kappa", float("inf"),
     "constants: kappa: expected a number"),
    ("pipes", "length", float("nan"), "pipe #0: length: expected a number")])
def test_malformed_number_in_the_network_is_an_input_error(
        tmp_path, capsys, record, key, value, message):
    """A non-numeric or non-finite number (a JSON boolean or a numeric
    string too, which float() would take), or a fractional cell count, in
    the bundled network is refused by validate and simulate, strict or
    lax, naming the file, the record and the field."""
    raw = json.loads((PACKAGE / "fixtures" / "network.json").read_text(
        encoding="utf-8"))
    (raw[record][0] if isinstance(raw[record], list) else raw[record])[key] \
        = value
    path = tmp_path / "network.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    scenario = str(PACKAGE / "fixtures" / "scenario.json")
    for command in (["validate"], ["simulate", "--scenario", scenario,
                                   "--out", str(tmp_path / "out")]):
        for lax in ([], ["--lax"]):
            code = cli.run([*command, "--network", str(path), *lax])
            assert code == cli.EXIT_INPUT_ERROR
            assert f"input error: {path}: {message}" in \
                capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def write_toy_case(tmp_path, pressure_bounds=None, optimizer=None,
                   outflow_flux=150.0):
    """Toy network and scenario files; returns the common CLI arguments.
    `optimizer` entries, also unknown or malformed ones, go into the
    scenario file's optimizer object as given."""
    scenario = make_toy_scenario(pressure_bounds=pressure_bounds,
                                 outflow_flux=outflow_flux)
    io.dump_network(make_toy_network(), tmp_path / "network.json")
    raw = io.scenario_to_dict(scenario)
    raw["optimizer"].update(optimizer or {})
    (tmp_path / "scenario.json").write_text(json.dumps(raw),
                                            encoding="utf-8")
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
    files = write_toy_case(tmp_path, pressure_bounds={"C": 61.0e5},
                           optimizer={"max_iter": 1})
    code = cli.run(["optimize", *files, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NOT_CONVERGED
    assert "Iteration limit reached" in capsys.readouterr().err


def test_removed_barrier_option_is_an_input_error(tmp_path, capsys):
    """Removed options, the barrier's and those the scenario file owns,
    are refused."""
    files = write_toy_case(tmp_path, pressure_bounds={"C": 61.0e5})
    for option, value in (("--mu0", "100"), ("--max-iter", "1"),
                          ("--u-max", "5")):
        code = cli.run(["optimize", *files, "--out", str(tmp_path / "out"),
                        option, value])
        assert code == cli.EXIT_INPUT_ERROR
        assert option in capsys.readouterr().err


def test_optimize_agrees_across_blas_thread_counts(tmp_path):
    """At one and at two OpenBLAS threads `optimize` on the toy case exits
    0 with objectives within 1e-6 relative and no bound broken: SLSQP's
    path may differ across thread counts, its answer may not."""
    files = write_toy_case(tmp_path, pressure_bounds={"C": 61.0e5})
    summaries = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        done = run_module("gaspower", "optimize", *files, "--out", str(out),
                          OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        summaries.append(json.loads((out / "summary.json").read_text()))
    one, two = (summary["objective"] for summary in summaries)
    assert abs(one - two) <= 1e-6 * abs(one)
    assert all(summary["min_margin_bar"] >= 0.0 for summary in summaries)


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


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda raw: raw["control_bounds"].update(u_max_bar=0.0),
                 "scenario control_max must be positive", id="u_max_bar"),
    pytest.param(lambda raw: raw["optimizer"].update(max_iter=0),
                 "scenario max_iter must be at least 1", id="max_iter"),
    pytest.param(lambda raw: raw.update(pressure_bounds={"C": 0.0}),
                 "pressure bound at C must be positive", id="zero_bound"),
    pytest.param(lambda raw: raw.update(pressure_bounds={"C": -41.0}),
                 "pressure bound at C must be positive", id="negative_bound"),
    pytest.param(lambda raw: raw["boundary"]["A"].update(
        pressure_bar=[[0.0, 0.0]]),
                 "A.pressure_bar must be positive and finite",
                 id="zero_pressure"),
    pytest.param(lambda raw: raw["boundary"]["A"].update(
        pressure_bar=[[0.0, 60.0], [1.0, -5.0]]),
                 "A.pressure_bar must be positive and finite",
                 id="negative_pressure"),
    pytest.param(lambda raw: raw["optimizer"].update(newton_tol=0.0),
                 "scenario newton_tol must be positive", id="newton_tol"),
    pytest.param(lambda raw: raw["optimizer"].update(
        feasibility_tol_bar=-1.0e-3),
                 "scenario feasibility_tol_bar must not be negative",
                 id="feasibility_tol_bar")])
def test_simulate_rejects_out_of_range_settings(tmp_path, capsys, edit,
                                                message):
    """Every command loads the same Scenario, so simulate rejects what
    optimize would."""
    files = write_toy_case(tmp_path)
    path = tmp_path / "scenario.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    edit(raw)
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = cli.run(["simulate", *files, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT_ERROR
    assert f"scenario.json: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "check-gradient"])
def test_every_command_solves_to_the_scenario_newton_tol(tmp_path,
                                                         monkeypatch,
                                                         command):
    """The scenario's newton_tol governs simulate and check-gradient's
    base run; the finite-difference runs are solved to 1e-12."""
    files = write_toy_case(tmp_path, optimizer={"newton_tol": 1.0e-7})
    control = tmp_path / "control.csv"
    io.write_control(np.array([0.0]), np.array([1.0e5]), control)
    tols, run = [], Simulator.run
    monkeypatch.setattr(Simulator, "run",
                        lambda self, *args: tols.append(self.tol)
                        or run(self, *args))
    options = ["--out", str(tmp_path / "out")] if command == "simulate" \
        else ["--control", str(control), "--components", "1"]
    assert cli.run([command, *files, *options]) == cli.EXIT_OK
    assert tols[0] == 1.0e-7
    assert tols[1:] == ([] if command == "simulate" else [1.0e-12] * 4)


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


@pytest.mark.parametrize("failing", ["second run", "sweep"])
def test_check_gradient_with_a_failed_solve_is_not_converged(
        tmp_path, capsys, monkeypatch, failing):
    """A SimulationError from a finite-difference run (the second
    Simulator.run) or from the adjoint sweep exits 1 with its message; a
    finite-difference run's names its component and the sign of h."""
    files = write_toy_case(tmp_path)
    control = tmp_path / "control.csv"
    io.write_control(np.array([0.0]), np.array([1.0e5]), control)
    runs, run = [], Simulator.run

    def second_run_fails(self, *args):
        runs.append(args)
        if len(runs) == 2:
            raise SimulationError("step 1 (t = 0.25 h) failed: stalled")
        return run(self, *args)

    def sweep_fails(*args):
        raise SingularJacobian("adjoint sweep, level 1 (t = 0.25 h): "
                               "stalled")

    if failing == "sweep":
        monkeypatch.setattr(adjoint, "adjoint_sweep", sweep_fails)
    else:
        monkeypatch.setattr(Simulator, "run", second_run_fails)
    code = cli.run(["check-gradient", *files, "--control", str(control),
                    "--components", "2"])
    assert code == cli.EXIT_NOT_CONVERGED
    captured = capsys.readouterr()
    assert "level 1 (t = 0.25 h): stalled" in captured.err \
        if failing == "sweep" else "step 1 (t = 0.25 h) failed" in captured.err
    if failing == "second run":     # the +h run of component 0
        assert "finite-difference run, component 0, u + h (h = 100 Pa): " \
            "step 1 (t = 0.25 h) failed: stalled" in captured.err
    assert "max relative error" not in captured.out


def test_simulate_with_a_failed_run_is_not_converged(tmp_path, capsys):
    """A demand the source cannot feed stalls the steady solve: exit 1,
    the failure on stderr and no result files."""
    files = write_toy_case(tmp_path, outflow_flux=1.0e5)
    out = tmp_path / "out"
    assert cli.run(["simulate", *files, "--out", str(out)]) == \
        cli.EXIT_NOT_CONVERGED
    assert "simulation failed: steady state (t = 0.00 h) failed" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "optimize"])
@pytest.mark.parametrize("below", [(), ("runs",)],
                         ids=["file", "under_a_file"])
def test_out_that_cannot_be_a_directory_is_an_input_error(
        tmp_path, capsys, monkeypatch, command, below):
    """An --out that is a file, or lies under one, exits 2 naming it,
    before any solve."""
    files = write_toy_case(tmp_path)
    (tmp_path / "taken").write_text("", encoding="utf-8")
    out = tmp_path.joinpath("taken", *below)

    def no_solve(*args):
        raise AssertionError("solved with an unusable --out")

    monkeypatch.setattr(Simulator, "run", no_solve)
    monkeypatch.setattr(opt, "optimize", no_solve)
    code = cli.run([command, *files, "--out", str(out)])
    assert code == cli.EXIT_INPUT_ERROR
    assert f"input error: --out {out}: {tmp_path / 'taken'} is not a " \
        "directory" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text(encoding="utf-8") == ""


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
    for rows, message in (("0.0;1.5", "expected 't_hours,u_bar'"),
                          ("0,1\n12,2\nnan,5", "control.csv:4: t_hours and "
                           "u_bar must be finite numbers")):
        control.write_text(f"t_hours,u_bar\n{rows}\n", encoding="utf-8")
        code = cli.run(["simulate", *files, "--control", str(control),
                        "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err


def test_zero_time_step_is_an_input_error(tmp_path, capsys):
    files = write_toy_case(tmp_path)
    path = tmp_path / "scenario.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["dt_minutes"] = 0
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = cli.run(["simulate", *files, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT_ERROR
    assert "scenario.json: scenario dt must be positive" in \
        capsys.readouterr().err


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


@pytest.mark.parametrize("key,value", [("max_iter", "x"),
                                       ("feasibility_tol_bar", "a"),
                                       ("newton_tol", [1e-9])])
def test_optimizer_setting_that_is_not_a_number_is_an_input_error(
        tmp_path, capsys, key, value):
    files = write_toy_case(tmp_path, optimizer={key: value})
    code = cli.run(["optimize", *files, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert f"scenario.json: optimizer.{key}: expected a number" in err
    assert "Traceback" not in err
