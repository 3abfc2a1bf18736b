"""Loader error paths and result files.

Each malformed network or scenario raises a FormatError naming the
problem, or under strict=False warns and goes on.
"""

import json

import numpy as np
import pytest

from gaspower import cli, io, opt
from gaspower.sim import Simulator

from conftest import make_toy_network, make_toy_scenario


@pytest.fixture()
def load(tmp_path):
    """Write a toy scenario changed by `edit` and load it."""
    network = make_toy_network()

    def write_and_load(edit, strict=True):
        raw = io.scenario_to_dict(make_toy_scenario())
        edit(raw)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return io.load_scenario(path, network, strict=strict)

    return write_and_load


def test_toy_scenario_loads(load):
    scenario = load(lambda raw: None)
    assert scenario.step_count == 2
    assert scenario.optimizer == {}


def test_missing_horizon(load):
    with pytest.raises(io.FormatError,
                       match="missing required key 'horizon_hours'"):
        load(lambda raw: raw.pop("horizon_hours"))


def test_unknown_top_level_key(load):
    def edit(raw):
        raw["colour"] = "blue"

    with pytest.raises(io.FormatError, match=r"unknown key\(s\) colour"):
        load(edit)
    with pytest.warns(UserWarning, match=r"unknown key\(s\) colour"):
        assert load(edit, strict=False).step_count == 2


@pytest.mark.parametrize("key,value", [("dt_minutes", 0.0),
                                       ("dt_minutes", -15.0),
                                       ("horizon_hours", 0.0),
                                       ("horizon_hours", -0.5)])
def test_non_positive_time_grid(load, key, value):
    def edit(raw):
        raw[key] = value

    with pytest.raises(io.FormatError, match=f"{key} must be positive"):
        load(edit)


@pytest.mark.parametrize("points", [[[0.0, 60.0, 1.0]], [[0.0]], [60.0]])
def test_breakpoint_that_is_not_a_pair(load, points):
    def edit(raw):
        raw["boundary"]["A"]["pressure_bar"] = points

    with pytest.raises(io.FormatError, match=r"A\.pressure_bar: breakpoints "
                                             r"must be \(time, value\) pairs"):
        load(edit)


def test_removed_optimizer_keys(load):
    def edit(raw):
        raw["optimizer"] = {"mu0": 100.0, "inner_tol": 0.05, "max_iter": 7}

    with pytest.raises(io.FormatError,
                       match=r"optimizer: unknown key\(s\) inner_tol, mu0"):
        load(edit)
    with pytest.warns(UserWarning, match="inner_tol, mu0"):
        scenario = load(edit, strict=False)
    # ignored, so the problem can still be built from the scenario
    assert scenario.optimizer == {"max_iter": 7}
    problem = opt.OptimalControlProblem.from_scenario(make_toy_network(),
                                                      scenario)
    assert problem.max_iter == 7


@pytest.fixture()
def load_network(tmp_path):
    """Write the toy network changed by `edit` and load it."""
    def write_and_load(edit, strict=True):
        raw = io.network_to_dict(make_toy_network())
        raw = edit(raw) or raw
        path = tmp_path / "network.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return io.load_network(path, strict=strict)

    return write_and_load


def test_network_top_level_must_be_an_object(load_network):
    with pytest.raises(io.FormatError, match="top level must be an object"):
        load_network(lambda raw: [raw])


def test_network_unknown_key(load_network, tmp_path):
    def edit(raw):
        raw["pipes"][0]["colour"] = "blue"

    with pytest.raises(io.FormatError,
                       match=r"pipe #0: unknown key\(s\) colour"):
        load_network(edit)
    with pytest.warns(UserWarning, match=r"pipe #0: unknown key\(s\) colour"):
        network = load_network(edit, strict=False)
    assert network.gas.pipes == make_toy_network().gas.pipes
    path = str(tmp_path / "network.json")
    assert cli.run(["validate", "--network", path]) == cli.EXIT_INPUT_ERROR
    with pytest.warns(UserWarning, match="colour"):
        assert cli.run(["validate", "--network", path, "--lax"]) == cli.EXIT_OK


def test_network_negative_pipe_length(load_network):
    def edit(raw):
        raw["pipes"][0]["length"] = -2000.0

    with pytest.raises(io.FormatError,
                       match="pipe #0: pipe PB: length must be positive"):
        load_network(edit)


def test_network_validation_failure(load_network):
    def edit(raw):
        raw["pipes"][0]["to_node"] = "Z"

    with pytest.raises(io.FormatError,
                       match="validation failed: PB: unknown endpoint 'Z'"):
        load_network(edit)


def test_write_results(tmp_path):
    simulator = Simulator(make_toy_network(), make_toy_scenario())
    trajectory = simulator.run(np.array([1.0e5, 2.0e5, 1.5e5]))
    summary = io.write_results(simulator, trajectory, tmp_path)
    lines = (tmp_path / "gas_nodes.csv").read_text().splitlines()
    assert lines[0] == "t_hours,node,p_bar,q"
    nodes = [node.id for node in simulator.network.gas.nodes]
    assert len(lines) == 1 + 3 * len(nodes)
    assert [line.split(",")[1] for line in lines[1:]] == nodes * 3
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written == summary
    objective = opt.objective(simulator, trajectory)
    assert objective > 0.0
    assert written["objective"] == float(f"{objective:.9g}")
