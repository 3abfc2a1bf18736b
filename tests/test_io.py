"""Loader error paths, result files and dump/load round trips.

Each malformed network or scenario raises a FormatError naming the
problem, or under strict=False warns and goes on.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaspower import cli, io, opt
from gaspower.model import CompressorCostModel
from gaspower.sim import BoundaryData, Simulator

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


def _setting(value, *keys):
    """Edit that sets raw[keys[0]]...[keys[-1]] to value."""
    def edit(raw):
        for key in keys[:-1]:
            raw = raw[key]
        raw[keys[-1]] = value

    return edit


@pytest.mark.parametrize("edit,message", [
    (_setting(2000.0, "pipes", 0), "pipe #0: expected an object"),
    (_setting(["CMP", "A", "B"], "compressors", 0),
     "compressor #0: expected an object"),
    (_setting([0.0, 1.0], "compressors", 0, "cost"),
     "compressor #0 cost: expected an object"),
    (_setting([340.0**2], "constants"), "constants: expected an object"),
    (_setting([], "per_unit"), "per_unit: expected an object"),
    (_setting({"PB": {}}, "pipes"), "pipes: expected a list"),
    (_setting(3, "gas_nodes"), "gas_nodes: expected a list"),
])
def test_network_record_of_the_wrong_type(load_network, edit, message):
    with pytest.raises(io.FormatError, match=message):
        load_network(edit)


@pytest.mark.parametrize("edit,message", [
    (_setting([[0.0, 60.0]], "boundary", "A"),
     "boundary for A: expected an object"),
    (_setting([["A", "pressure_bar", 60.0]], "boundary"),
     "boundary: expected an object"),
    (_setting([["C", 40.0]], "pressure_bounds"),
     "pressure_bounds: expected an object"),
    (_setting([["max_iter", 7]], "optimizer"), "optimizer: expected an object"),
    (_setting([], "control_bounds"), "control_bounds: expected an object"),
    (_setting([0.5], "horizon_hours"),
     "scenario.json: horizon_hours: expected a number"),
    (_setting("15 min", "dt_minutes"), "dt_minutes: expected a number"),
    (_setting("x", "reference_density_kg_m3"),
     "reference_density_kg_m3: expected a number"),
    (_setting([40.0], "pressure_bounds", "C"),
     "pressure_bounds.C: expected a number"),
    (_setting({"bar": 0.0}, "control_bounds", "u_min_bar"),
     "control_bounds.u_min_bar: expected a number"),
    (_setting([30.0], "control_bounds", "u_max_bar"),
     "control_bounds.u_max_bar: expected a number"),
])
def test_scenario_section_of_the_wrong_type(load, edit, message):
    with pytest.raises(io.FormatError, match=message):
        load(edit)


def test_outflow_volume_needs_an_incident_pipe(load):
    with pytest.raises(io.FormatError, match="node A has no incident pipe"):
        load(_setting([[0.0, 1.0]], "boundary", "A", "outflow_m3_s"))


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


BUNDLED_NETWORK, BUNDLED_SCENARIO = io.load_bundled()
ROUND_TRIP = settings(max_examples=30, deadline=None)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False,
                     allow_subnormal=False)


@st.composite
def bundled_networks(draw):
    """The bundled topology with drawn pipe geometry and compressor costs."""
    net = BUNDLED_NETWORK
    pipes = tuple(replace(p, length=draw(floats(1.0, 2.0e5)),
                          diameter=draw(floats(0.05, 2.0)),
                          roughness=draw(st.just(0.0) | floats(1e-7, 1e-2)),
                          cell_count=draw(st.integers(1, 500)))
                  for p in net.gas.pipes)
    comps = tuple(replace(c, cost=CompressorCostModel(
        *(draw(st.just(0.0) | floats(1e-6, 1e4)) for _ in range(3))))
        for c in net.gas.compressors)
    return replace(net, gas=replace(net.gas, pipes=pipes, compressors=comps))


@ROUND_TRIP
@given(network=bundled_networks())
def test_network_dump_load_dump_is_byte_identical(network, tmp_path_factory):
    first = tmp_path_factory.mktemp("network") / "first.json"
    second = first.with_name("second.json")
    io.dump_network(network, first)
    loaded = io.load_network(first)
    io.dump_network(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded == network


def _series(values):
    """Breakpoints at distinct times (s) in the 48 h after t = 0."""
    times = st.just(0.0) | floats(1e-3, 48 * 3600.0)
    return st.lists(st.tuples(times, values), min_size=1, max_size=4,
                    unique_by=lambda point: point[0])


@st.composite
def bundled_scenarios(draw):
    """Drawn series for every boundary quantity of the bundled scenario."""
    value_range = {"pressure": (1e3, 1e8), "outflow": (-500.0, 500.0)}
    series = {key: draw(_series(floats(*value_range.get(key[1], (-5.0, 5.0)))))
              for key in BUNDLED_SCENARIO.boundary.series}
    return replace(
        BUNDLED_SCENARIO, horizon=draw(floats(60.0, 1e6)),
        dt=draw(floats(1.0, 7200.0)),
        boundary=BoundaryData.from_breakpoints(series),
        pressure_bounds={"S25": draw(floats(1e3, 1e8))},
        control_max=draw(floats(1e3, 1e8)),
        optimizer={"max_iter": draw(st.integers(1, 500))})


def assert_within_ulps(got, expected, ulps=4):
    """The hours, minutes and bar scalings are inexact in floating point."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= ulps * np.spacing(abs(expected)))


@ROUND_TRIP
@given(scenario=bundled_scenarios())
def test_scenario_dump_load_keeps_every_value(scenario, tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    io.dump_scenario(scenario, path)
    loaded = io.load_scenario(path, BUNDLED_NETWORK)
    assert loaded.boundary.series.keys() == scenario.boundary.series.keys()
    for key, (times, values) in scenario.boundary.series.items():
        assert_within_ulps(loaded.boundary.series[key][0], times)
        assert_within_ulps(loaded.boundary.series[key][1], values)
    assert loaded.pressure_bounds.keys() == scenario.pressure_bounds.keys()
    assert_within_ulps(loaded.pressure_bounds["S25"],
                       scenario.pressure_bounds["S25"])
    for name in ("horizon", "dt", "control_max"):
        assert_within_ulps(getattr(loaded, name), getattr(scenario, name))
    assert loaded.optimizer == scenario.optimizer
