"""Loader error paths, result files and dump/load round trips.

Each malformed network or scenario raises a FormatError naming the file
and the problem, or under strict=False warns, naming both too, and goes on.
"""

import contextlib
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaspower import cli, io, opt
from gaspower.model import CompressorCostModel
from gaspower.sim import BoundaryData, Simulator

from conftest import make_toy_network, make_toy_scenario


@contextlib.contextmanager
def names_the_file(path):
    """Asserts that a FormatError raised in the block, and each warning
    given in it, begins with path; the warnings are given again after."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
    except io.FormatError as exc:
        assert str(exc).startswith(f"{path}: "), exc
        raise
    finally:
        for warning in caught:
            assert str(warning.message).startswith(f"{path}: "), \
                warning.message
            warnings.warn(warning.message)


@pytest.fixture()
def load(tmp_path):
    """Write a toy scenario changed by `edit` and load it; its errors and
    warnings must begin with the file's path."""
    network = make_toy_network()

    def write_and_load(edit, strict=True):
        raw = io.scenario_to_dict(make_toy_scenario())
        edit(raw)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with names_the_file(path):
            return io.load_scenario(path, network, strict=strict)

    return write_and_load


def test_toy_scenario_loads(load):
    scenario = load(lambda raw: None)
    assert scenario.step_count == 2
    assert (scenario.max_iter, scenario.feasibility_tol_bar,
            scenario.newton_tol) == (100, 1.0e-3, 1.0e-9)


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
    """Scenario's own check, which the loader wraps, names the field."""
    def edit(raw):
        raw[key] = value

    field = {"dt_minutes": "dt", "horizon_hours": "horizon"}[key]
    with pytest.raises(io.FormatError,
                       match=f"scenario.json: scenario {field} must be "
                       "positive$"):
        load(edit)


def test_fractional_step_count_names_the_file(load, tmp_path):
    """A horizon of 1.5 steps is refused on loading, by the file's path."""
    with pytest.raises(io.FormatError) as info:
        load(_setting(20.0, "dt_minutes"))
    assert str(info.value) == f"{tmp_path / 'scenario.json'}: horizon must " \
                              "be an integer number of steps"


@pytest.mark.parametrize("key,value,message", [
    ("newton_tol", 0.0, "newton_tol must be positive"),
    ("newton_tol", -1.0, "newton_tol must be positive"),
    ("feasibility_tol_bar", -1.0e-3, "feasibility_tol_bar must not be "
     "negative")])
def test_out_of_range_solver_tolerance(load, key, value, message):
    def edit(raw):
        raw["optimizer"][key] = value

    with pytest.raises(io.FormatError,
                       match=f"scenario.json: scenario {message}$"):
        load(edit)


@pytest.mark.parametrize("points", [[[0.0, 60.0, 1.0]], [[0.0]], [60.0]])
def test_breakpoint_that_is_not_a_pair(load, points):
    def edit(raw):
        raw["boundary"]["A"]["pressure_bar"] = points

    with pytest.raises(io.FormatError, match=r"A\.pressure_bar: breakpoints "
                                             r"must be \(time, value\) pairs"):
        load(edit)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("points", [[[0.0, 0.0]], [[0.0, 60.0], [1.0, -5.0]],
                                    [[0.0, -0.0]]])
def test_pressure_boundary_at_or_below_zero_names_the_node(
        load, tmp_path, points, strict):
    """A pressure series that reaches 0 bar or less is refused on loading,
    strict or not, naming the file and the node's pressure_bar."""
    def edit(raw):
        raw["boundary"]["A"]["pressure_bar"] = points

    with pytest.raises(io.FormatError) as info:
        load(edit, strict=strict)
    assert str(info.value) == (f"{tmp_path / 'scenario.json'}: "
                               "A.pressure_bar must be positive and finite")


def test_removed_optimizer_keys(load):
    def edit(raw):
        raw["optimizer"] = {"mu0": 100.0, "inner_tol": 0.05, "max_iter": 7}

    with pytest.raises(io.FormatError,
                       match=r"optimizer: unknown key\(s\) inner_tol, mu0"):
        load(edit)
    with pytest.warns(UserWarning, match="inner_tol, mu0"):
        scenario = load(edit, strict=False)
    # ignored, while the known key still applies
    assert (scenario.max_iter, scenario.newton_tol) == (7, 1.0e-9)


@pytest.fixture()
def load_network(tmp_path):
    """Write the toy network changed by `edit` and load it; its errors and
    warnings must begin with the file's path."""
    def write_and_load(edit, strict=True):
        raw = io.network_to_dict(make_toy_network())
        raw = edit(raw) or raw
        path = tmp_path / "network.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with names_the_file(path):
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


@pytest.mark.parametrize("keys", [("constants",), ("per_unit",),
                                  ("compressors", 0, "cost"), ("gas_nodes", 2)],
                         ids=["constants", "per_unit", "cost", "node"])
def test_network_unknown_key_names_the_file(load_network, tmp_path, keys):
    """Strict or lax, an unknown key in any record names the file first."""
    edit = _setting("blue", *keys, "colour")
    with pytest.raises(io.FormatError, match=r"unknown key\(s\) colour$"):
        load_network(edit)
    with pytest.warns(UserWarning, match=r"unknown key\(s\) colour$"):
        assert load_network(edit, strict=False) == make_toy_network()


@pytest.mark.parametrize("target", ["A", "C"])
def test_boundary_unknown_key_names_the_file(load, target):
    edit = _setting([[0.0, 1.0]], "boundary", target, "colour")
    with pytest.raises(io.FormatError, match=f"scenario.json: boundary for "
                       rf"{target}: unknown key\(s\) colour$"):
        load(edit)
    with pytest.warns(UserWarning, match=f"boundary for {target}: unknown"):
        scenario = load(edit, strict=False)
    assert scenario.boundary.series.keys() == {("A", "pressure"),
                                               ("C", "outflow")}


def test_bundled_scenario_errors_name_the_file(bundled, tmp_path):
    """An empty series and an unknown key at a gas node and at a bus of a
    copy of the bundled scenario: each message begins with the copy's
    path."""
    network, scenario = bundled
    path = tmp_path / "scenario.json"
    for target, quantity, points, message in (
            ("S5", "pressure_bar", [], "S5.pressure_bar: empty time series"),
            ("S5", "colour", [[0.0, 1.0]],
             r"boundary for S5: unknown key\(s\) colour"),
            ("N2", "colour", [[0.0, 1.0]],
             r"boundary for N2: unknown key\(s\) colour")):
        raw = io.scenario_to_dict(scenario)
        raw["boundary"][target][quantity] = points
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(io.FormatError, match=message), \
                names_the_file(path):
            io.load_scenario(path, network)


def test_network_negative_pipe_length(load_network):
    def edit(raw):
        raw["pipes"][0]["length"] = -2000.0

    with pytest.raises(io.FormatError,
                       match="pipe #0: pipe PB: length must be positive"):
        load_network(edit)


def test_network_pipe_roughness_beyond_moody_chart(load_network):
    def edit(raw):
        raw["pipes"][0]["roughness"] = 0.05 * raw["pipes"][0]["diameter"]

    with pytest.raises(io.FormatError, match="pipe #0: pipe PB: roughness "
                                             "must be >= 0 and below 0.05"):
        load_network(edit)


def test_network_compressor_without_an_adjacent_pipe(load_network):
    def edit(raw):
        raw["pipes"], raw["gas_nodes"] = [], raw["gas_nodes"][:2]

    with pytest.raises(io.FormatError, match="validation failed: compressor "
                                             "CMP has no adjacent pipe"):
        load_network(edit)


def test_missing_boundary_series_named(load):
    with pytest.raises(io.FormatError,
                       match="missing boundary data for C.outflow$"):
        load(lambda raw: raw["boundary"].pop("C"))


@pytest.mark.parametrize("target,quantity", [
    ("B", "pressure_bar"),     # a junction
    ("A", "outflow_flux"),     # a pressure boundary
    ("C", "pressure_bar"),     # a flow boundary
])
def test_boundary_series_the_network_does_not_read(load, target, quantity):
    """A series the node's kind does not fix would be loaded and then
    ignored: the file is refused, naming the series."""
    def edit(raw):
        raw["boundary"].setdefault(target, {})[quantity] = [[0.0, 50.0]]

    series = f"{target}.{quantity.split('_')[0]}"
    with pytest.raises(io.FormatError, match=r"scenario\.json: boundary data "
                       rf"the network does not read: {series}$"):
        load(edit)


@pytest.mark.parametrize("strict", [True, False])
def test_both_outflow_keys_are_refused(load, strict):
    """A node given its outflow both in m^3/s and as a flux is refused,
    naming the file and the node, rather than running on whichever key
    comes last."""
    def edit(raw):
        raw["boundary"]["C"]["outflow_m3_s"] = [[0.0, 77.0]]

    with pytest.raises(io.FormatError, match=r"scenario\.json: boundary for "
                       "C: give outflow_m3_s or outflow_flux, not both$"):
        load(edit, strict=strict)


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
    (_setting(float("inf"), "horizon_hours"),
     "horizon_hours: expected a number"),
    (_setting([[0.0, 60.0], [0.5, float("nan")]], "boundary", "A",
              "pressure_bar"),
     r"A\.pressure_bar: breakpoints must be finite numbers"),
    (_setting([[0.0, 150.0], [float("inf"), 0.0]], "boundary", "C",
              "outflow_flux"),
     r"C\.outflow_flux: breakpoints must be finite numbers"),
    (_setting([], "boundary", "C", "outflow_flux"),
     r"C\.outflow_flux: empty time series"),
    (_setting(7.5, "optimizer", "max_iter"),
     "optimizer.max_iter: expected an integer"),
    (_setting(float("nan"), "optimizer", "newton_tol"),
     "optimizer.newton_tol: expected a number"),
])
def test_scenario_section_of_the_wrong_type(load, edit, message):
    with pytest.raises(io.FormatError, match=message):
        load(edit)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("edit,message", [
    (_setting([[0.0, "60"]], "boundary", "A", "pressure_bar"),
     r"A\.pressure_bar: breakpoints must be \(time, value\) pairs: "
     "expected a number, got '60'"),
    (_setting([[0.0, 150.0], [True, 150.0]], "boundary", "C",
              "outflow_flux"),
     r"C\.outflow_flux: breakpoints must be \(time, value\) pairs: "
     "expected a number, got True"),
    (_setting(True, "horizon_hours"), "horizon_hours: expected a number"),
    (_setting("15", "dt_minutes"), "dt_minutes: expected a number"),
    (_setting("7", "optimizer", "max_iter"),
     "optimizer.max_iter: expected a number"),
])
def test_booleans_and_strings_are_not_numbers(load, edit, message, strict):
    """float() takes a JSON true (as 1.0) and a numeric string, so the
    loader refuses both by type, strict or lax, naming the field."""
    with pytest.raises(io.FormatError, match=message):
        load(edit, strict=strict)


def test_pressure_bound_at_an_unknown_node_is_refused_at_load(load):
    with pytest.raises(io.FormatError, match=r"scenario\.json: pressure "
                       "bounds at nodes that are not gas nodes: X, Y$"):
        load(lambda raw: raw["pressure_bounds"].update(X=40.0, C=40.0,
                                                       Y=40.0))


def test_pressure_bound_at_a_node_that_is_not_a_gas_node(
        bundled, uncontrolled_trajectory, tmp_path):
    """A scenario built in code may bound an unknown node or a bus: the
    Simulator runs it, as no run reads a bound, but write_results refuses
    it before writing a file, and optimize before its first run, both
    naming every such node."""
    network, scenario = bundled
    simulator = Simulator(network, replace(scenario, pressure_bounds={
        "NOPE": 41.0e5, "S25": 41.0e5, "N1": 41.0e5}))
    message = "^pressure bounds at nodes that are not gas nodes: NOPE, N1$"
    with pytest.raises(ValueError, match=message):
        io.write_results(simulator, uncontrolled_trajectory, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match=message):
        opt.optimize(simulator)


def test_outflow_volume_needs_an_incident_pipe(load):
    with pytest.raises(io.FormatError, match="node A has no incident pipe"):
        load(_setting([[0.0, 1.0]], "boundary", "A", "outflow_m3_s"))


@pytest.mark.parametrize("row", ["nan,5", "6,nan", "inf,5", "6,-inf"])
def test_control_with_a_non_finite_value(tmp_path, row):
    """A non-finite time or lift names its line, instead of dropping the
    row (a NaN time) or reaching the simulation."""
    path = tmp_path / "control.csv"
    path.write_text(f"t_hours,u_bar\n0,1\n12,2\n{row}\n", encoding="utf-8")
    with pytest.raises(io.FormatError, match=r"control\.csv:4: t_hours and "
                       "u_bar must be finite numbers"):
        io.load_control(path)


def test_write_results(tmp_path):
    simulator = Simulator(make_toy_network(), make_toy_scenario())
    trajectory = simulator.run(np.array([1.0e5, 2.0e5, 1.5e5]))
    summary = io.write_results(simulator, trajectory, tmp_path)
    lines = (tmp_path / "gas_nodes.csv").read_text().splitlines()
    assert lines[0] == "t_hours,node,p_bar,q"
    nodes = [node.id for node in simulator.network.gas.nodes]
    assert len(lines) == 1 + 3 * len(nodes)
    assert [line.split(",")[1] for line in lines[1:]] == nodes * 3
    injections = simulator.assembler.node_injections(trajectory.states)
    assert [line.split(",")[3] for line in lines[1:]] == \
        [io._fmt(q) for q in injections.ravel()]
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written == summary
    objective = opt.objective(simulator, trajectory)
    assert objective > 0.0
    assert written["objective"] == float(f"{objective:.9g}")


def test_writers_write_these_bytes(tmp_path):
    """The file formats, byte for byte: LF endings, numbers to 9
    significant digits, JSON indented by 2 with sorted keys."""
    io.write_control(np.array([0.0, 900.0, 1800.0]),
                     np.array([1.0e5, 2.5e5, 1.0e5 / 3.0]),
                     tmp_path / "control.csv")
    assert (tmp_path / "control.csv").read_bytes() == \
        b"t_hours,u_bar\n0,1\n0.25,2.5\n0.5,0.333333333\n"
    io.write_iteration_log(
        [{"iter": 0, "objective": 1234.56789012, "min_margin_bar": -0.5},
         {"iter": 12, "objective": 1.0 / 3.0, "min_margin_bar": 2.0e-11}],
        tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_bytes() == (
        b"iter,objective,min_margin_bar\n0,1234.56789,-0.5\n"
        b"12,0.333333333,2e-11\n")

    simulator = Simulator(make_toy_network(), make_toy_scenario(
        pressure_bounds={"C": 59.0e5, "B": 61.5e5}))
    io.write_results(simulator, simulator.run(np.array([1.0e5, 2.0e5, 1.5e5])),
                     tmp_path / "toy")
    assert (tmp_path / "toy" / "gas_nodes.csv").read_bytes() == (
        b"t_hours,node,p_bar,q\n0,A,60,42.4115008\n0,B,61,0\n"
        b"0,C,60.866095,-42.4115008\n0.25,A,60,42.9550629\n0.25,B,62,0\n"
        b"0.25,C,61.8666504,-42.4115008\n0.5,A,60,42.1402828\n0.5,B,61.5,0\n"
        b"0.5,C,61.368011,-42.4115008\n")
    assert (tmp_path / "toy" / "summary.json").read_bytes() == b"""{
  "initial_pressure_bar": {
    "A": 60.0,
    "B": 61.0,
    "C": 60.866095
  },
  "margins": {
    "B": {
      "at_hours": 0.0,
      "first_below_hours": 0.0,
      "min_margin_bar": -0.5,
      "min_pressure_bar": 61.0,
      "p_min_bar": 61.5
    },
    "C": {
      "at_hours": 0.0,
      "first_below_hours": null,
      "min_margin_bar": 1.86609495,
      "min_pressure_bar": 60.866095,
      "p_min_bar": 59.0
    }
  },
  "min_margin_bar": -0.5,
  "objective": 237.46976
}
"""


def test_bundled_busses_file_writes_these_bytes(
        bundled_simulator, uncontrolled_trajectory, tmp_path):
    """The first level of the bundled busses.csv (the toy case has no
    grid), byte for byte."""
    io.write_results(bundled_simulator, uncontrolled_trajectory, tmp_path)
    with open(tmp_path / "busses.csv", "rb") as f:
        head = b"".join(f.readline() for _ in range(10))
    assert head == b"""t_hours,bus,P,Q,V,phi
0,N1,0.719546963,0.240690341,1,0
0,N2,1.63,0.1445701,1,0.168751592
0,N3,0.85,-0.0364600237,1,0.0832724642
0,N4,0,0,0.987006801,-0.0420038863
0,N5,-0.9,-0.3,0.975471385,-0.0701144268
0,N6,0,0,1.00337368,0.0336093946
0,N7,-1,-0.35,0.985649626,0.0108486116
0,N8,0,0,0.996187179,0.0663075802
0,N9,-1.25,-0.5,0.95762159,-0.0759206165
"""


BUNDLED_NETWORK, BUNDLED_SCENARIO = io.load_bundled()
ROUND_TRIP = settings(max_examples=30, deadline=None)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False,
                     allow_subnormal=False)


@st.composite
def bundled_networks(draw):
    """The bundled topology with drawn pipe geometry and compressor costs;
    roughness stays below 0.05 x the smallest drawn diameter."""
    net = BUNDLED_NETWORK
    pipes = tuple(replace(p, length=draw(floats(1.0, 2.0e5)),
                          diameter=draw(floats(0.05, 2.0)),
                          roughness=draw(st.just(0.0) | floats(1e-7, 2.4e-3)),
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
    """Drawn series for every boundary quantity of the bundled scenario,
    over a horizon of a whole number of steps."""
    value_range = {"pressure": (1e3, 1e8), "outflow": (-500.0, 500.0)}
    series = {key: draw(_series(floats(*value_range.get(key[1], (-5.0, 5.0)))))
              for key in BUNDLED_SCENARIO.boundary.series}
    dt = draw(floats(1.0, 7200.0))
    return replace(
        BUNDLED_SCENARIO, horizon=draw(st.integers(1, 1000)) * dt, dt=dt,
        boundary=BoundaryData.from_breakpoints(series),
        pressure_bounds={"S25": draw(floats(1e3, 1e8))},
        control_max=draw(floats(1e3, 1e8)),
        max_iter=draw(st.integers(1, 500)),
        feasibility_tol_bar=draw(floats(1e-6, 1.0)),
        newton_tol=draw(floats(1e-14, 1e-3)))


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
    for name in ("max_iter", "feasibility_tol_bar", "newton_tol"):
        assert getattr(loaded, name) == getattr(scenario, name)
