"""Scenario loader error paths: each raises a FormatError naming the
problem, or under strict=False warns and goes on."""

import json

import pytest

from gaspower import io, opt

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
