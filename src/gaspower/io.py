"""Parsing and serialization of network, scenario, control and result files.

All file formats are JSON (UTF-8) or CSV with '.' decimals, ',' delimiters
and LF line endings; identical inputs produce byte-identical outputs.
Gas pressures are accepted in bar in files and converted to Pa internally;
electrical quantities are per-unit throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from . import opt
from .model import (BAR, BUS_QUANTITIES, Bus, CompressorArc,
                    CompressorCostModel, CoupledNetwork, GasConstants,
                    GasNetwork, GasNode, GasPowerPlant, PerUnitSystem, Pipe,
                    PowerGrid, TransmissionLine, incident_pipe_area,
                    validate_network)
from .sim import (BoundaryData, Scenario, Simulator, Trajectory,
                  check_boundary_data, check_pressure_bounds)

# each boundary quantity's key in a scenario file and the unit (in SI) of
# its values there; a gas node's outflow may also come as outflow_m3_s
_FILE_SERIES = {"pressure": ("pressure_bar", BAR),
                "outflow": ("outflow_flux", 1.0)}


class FormatError(ValueError):
    """Malformed input file: bad JSON, unknown keys, or failed validation."""


def _read_json(path) -> dict:
    """The top-level object of the JSON file at path."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: top level must be an object")
    return raw


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"{where}: expected an object")
    return value


def _check_keys(mapping: dict, allowed, where: str):
    unknown = sorted(set(_object(mapping, where)) - set(allowed))
    if unknown:
        raise FormatError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _build(cls, record: dict, where: str, **nested):
    """cls from the JSON object `record`; `nested` maps each field that
    holds an object of its own to that object's class.  A float field must
    hold a finite number, an int field one with no fractional part."""
    fields = cls.__dataclass_fields__
    _check_keys(record, fields, where)
    record = dict(record)
    for key in record:
        kind = fields[key].type
        if kind in ("float", "int"):
            record[key] = (_integer if kind == "int" else _number)(
                record, key, f"{where}: ")
    for key, sub in nested.items():
        record[key] = _build(sub, record.get(key, {}), f"{where} {key}")
    try:
        return cls(**record)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from None


_NETWORK_KEYS = ("gas_nodes", "pipes", "compressors", "busses", "lines",
                 "plants", "constants", "per_unit")


def load_network(path) -> CoupledNetwork:
    """Load and validate a network description file."""
    raw = _read_json(path)
    _check_keys(raw, _NETWORK_KEYS, str(path))

    def records(key, cls, name, **nested):
        items = raw.get(key, [])
        if not isinstance(items, list):
            raise FormatError(f"{path}: {key}: expected a list")
        return tuple(_build(cls, rec, f"{path}: {name} #{i}", **nested)
                     for i, rec in enumerate(items))

    nodes = records("gas_nodes", GasNode, "gas node")
    pipes = records("pipes", Pipe, "pipe")
    comps = records("compressors", CompressorArc, "compressor",
                    cost=CompressorCostModel)
    busses = records("busses", Bus, "bus")
    lines = records("lines", TransmissionLine, "line")
    plants = records("plants", GasPowerPlant, "plant")
    constants = _build(GasConstants, raw.get("constants", {}),
                       f"{path}: constants")
    per_unit = _build(PerUnitSystem, raw.get("per_unit", {}),
                      f"{path}: per_unit")

    network = CoupledNetwork(GasNetwork(nodes, pipes, comps),
                             PowerGrid(busses, lines), plants,
                             constants, per_unit)
    violations = validate_network(network.gas, network.grid, network.plants)
    if violations:
        raise FormatError(f"{path}: validation failed: "
                          + "; ".join(violations))
    return network


_SCENARIO_KEYS = ("horizon_hours", "dt_minutes", "reference_density_kg_m3",
                  "boundary", "pressure_bounds", "control_bounds", "optimizer")
_CONTROL_BOUND_KEYS = ("u_min_bar", "u_max_bar")
_OPTIMIZER_KEYS = ("max_iter", "feasibility_tol_bar", "newton_tol")


def _float(value) -> float:
    """float(value) of a JSON number; a boolean or a string raises."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _number(mapping: dict, key: str, where: str, default=None) -> float:
    """mapping[key] (`default` if given and the key is absent) as a finite
    float."""
    try:
        value = _float(mapping[key] if default is None
                       else mapping.get(key, default))
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise FormatError(f"{where}{key}: expected a number")
    return value


def _integer(mapping: dict, key: str, where: str) -> int:
    """mapping[key] as an int, from a number with no fractional part."""
    value = _number(mapping, key, where)
    if not value.is_integer():
        raise FormatError(f"{where}{key}: expected an integer")
    return int(value)


def _series(points, where, time_scale=3600.0, value_scale=1.0):
    try:
        pts = [(_float(t) * time_scale, _float(v) * value_scale)
               for t, v in points]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: breakpoints must be (time, value) "
                          f"pairs: {exc}") from None
    if not pts:
        raise FormatError(f"{where}: empty time series")
    if not all(math.isfinite(t) and math.isfinite(v) for t, v in pts):
        raise FormatError(f"{where}: breakpoints must be finite numbers")
    return pts


def load_scenario(path, network: CoupledNetwork) -> Scenario:
    """Load a scenario file and resolve it against a network."""
    raw = _read_json(path)
    _check_keys(raw, _SCENARIO_KEYS, str(path))
    try:
        horizon = _number(raw, "horizon_hours", f"{path}: ") * 3600.0
        dt = _number(raw, "dt_minutes", f"{path}: ") * 60.0
    except KeyError as exc:
        raise FormatError(f"{path}: missing required key {exc}") from None
    rho_ref = _number(raw, "reference_density_kg_m3", f"{path}: ", 0.785)
    if rho_ref <= 0.0:
        raise FormatError(f"{path}: reference_density_kg_m3 must be positive")

    gas_ids = {n.id: n for n in network.gas.nodes}
    bus_ids = {b.id: b for b in network.grid.busses}

    from_file = {key: (quant, unit)
                 for quant, (key, unit) in _FILE_SERIES.items()}
    series: dict[tuple[str, str], list] = {}
    boundary = _object(raw.get("boundary", {}), f"{path}: boundary")
    for target, quantities in boundary.items():
        where = f"{path}: boundary for {target}"
        gas = target in gas_ids
        if gas:
            _check_keys(quantities, {*from_file, "outflow_m3_s"}, where)
            if {"outflow_m3_s", "outflow_flux"} <= quantities.keys():
                raise FormatError(f"{where}: give outflow_m3_s or "
                                  "outflow_flux, not both")
        elif target in bus_ids:
            _check_keys(quantities, BUS_QUANTITIES, where)
        else:
            raise FormatError(f"{path}: boundary for unknown target "
                              f"{target!r}")
        for key, pts in quantities.items():     # in file order
            if not gas:
                quant, unit = key, 1.0
            elif key == "outflow_m3_s":
                area = incident_pipe_area(network.gas, target)
                if area is None:
                    raise FormatError(f"{path}: node {target} has no "
                                      "incident pipe")
                quant, unit = "outflow", rho_ref / area
            else:
                quant, unit = from_file[key]
            series[(target, quant)] = _series(pts, f"{path}: {target}.{key}",
                                              value_scale=unit)

    p_min = _object(raw.get("pressure_bounds", {}), f"{path}: pressure_bounds")
    boundary = BoundaryData.from_breakpoints(series)
    try:
        check_boundary_data(network, boundary.series)
        check_pressure_bounds(network, p_min)
    except ValueError as exc:   # the file gives pressures as pressure_bar
        raise FormatError(f"{path}: " + str(exc).replace(
            ".pressure must", ".pressure_bar must")) from None
    bounds = {node: _number(p_min, node, f"{path}: pressure_bounds.") * BAR
              for node in p_min}

    cb = raw.get("control_bounds", {})
    _check_keys(cb, _CONTROL_BOUND_KEYS, f"{path}: control_bounds")
    where = f"{path}: control_bounds."
    if _number(cb, "u_min_bar", where, 0.0) != 0.0:
        raise FormatError(f"{path}: only u_min_bar = 0 is supported")
    u_max = _number(cb, "u_max_bar", where, 30.0) * BAR

    optimizer = raw.get("optimizer", {})
    _check_keys(optimizer, _OPTIMIZER_KEYS, f"{path}: optimizer")
    where = f"{path}: optimizer."
    optimizer = {key: (_integer if key == "max_iter" else _number)(
        optimizer, key, where) for key in _OPTIMIZER_KEYS if key in optimizer}

    try:
        return Scenario(horizon=horizon, dt=dt, boundary=boundary,
                        pressure_bounds=bounds, control_max=u_max,
                        **optimizer)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_control(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a control CSV (t_hours,u_bar); returns times in s, lift in Pa."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from None
    rows = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line or (i == 0 and line.lower().startswith("t_hours")):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise FormatError(f"{path}:{i + 1}: expected 't_hours,u_bar'")
        try:
            row = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path}:{i + 1}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise FormatError(f"{path}:{i + 1}: t_hours and u_bar must be "
                              "finite numbers")
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no control samples")
    rows.sort()
    times = np.array([r[0] for r in rows]) * 3600.0
    values = np.array([r[1] for r in rows]) * BAR
    return times, values


def _fmt(x) -> str:
    return f"{float(x):.9g}"


def _round9(x):
    return float(_fmt(x))


def _write_csv(path, header: str, rows) -> None:
    """header and one line per row: strings as given, numbers by _fmt."""
    lines = [header, *(",".join(v if isinstance(v, str) else _fmt(v)
                                for v in row) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")


def _write_json(value, path) -> None:
    Path(path).write_text(json.dumps(value, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8", newline="\n")


def write_results(simulator: Simulator, trajectory: Trajectory,
                  out_dir) -> dict:
    """Write gas_nodes.csv, busses.csv, control.csv and summary.json.

    The q column of gas_nodes.csv is the net mass flow (kg/s) entering
    the network through that node: positive at supply nodes, negative at
    offtakes, zero at plain junctions.  A pressure bound at a node that
    is not a gas node raises ValueError before any file is written.
    """
    check_pressure_bounds(simulator.network,
                          simulator.scenario.pressure_bounds)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    asm = simulator.assembler
    cons = simulator.network.constants
    hours = trajectory.times / 3600.0

    pressures = {n.id: trajectory.node_pressure(n.id, cons) / BAR
                 for n in asm.nodes}
    injections = asm.node_injections(trajectory.states)
    _write_csv(out / "gas_nodes.csv", "t_hours,node,p_bar,q",
               ((t, node.id, pressures[node.id][j], inj)
                for j, t in enumerate(hours)
                for node, inj in zip(asm.nodes, injections[j])))
    _write_csv(out / "busses.csv", "t_hours,bus,P,Q,V,phi",
               ((t, bus.id, *(trajectory.states[j, asm.index.bus[(bus.id, q)]]
                              for q in ("P", "Q", "V", "phi")))
                for j, t in enumerate(hours) for bus in asm.busses))

    write_control(trajectory.times, trajectory.control, out / "control.csv")

    summary = {
        "objective": _round9(opt.objective(simulator, trajectory)),
        "initial_pressure_bar": {
            n.id: _round9(pressures[n.id][0]) for n in asm.nodes},
        "margins": {},
    }
    for node, p_min in sorted(simulator.scenario.pressure_bounds.items()):
        p = trajectory.node_pressure(node, cons)
        margin = (p - p_min) / BAR
        below = np.nonzero(margin < 0)[0]
        summary["margins"][node] = {
            "p_min_bar": _round9(p_min / BAR),
            "min_pressure_bar": _round9(np.min(p) / BAR),
            "min_margin_bar": _round9(np.min(margin)),
            "at_hours": _round9(hours[int(np.argmin(margin))]),
            "first_below_hours": _round9(hours[below[0]]) if below.size
            else None,
        }
    if summary["margins"]:
        summary["min_margin_bar"] = min(
            entry["min_margin_bar"] for entry in summary["margins"].values())
    _write_json(summary, out / "summary.json")
    return summary


def write_control(times: np.ndarray, control_pa: np.ndarray, path) -> None:
    _write_csv(path, "t_hours,u_bar", zip(np.asarray(times) / 3600.0,
                                          np.asarray(control_pa) / BAR))


def write_iteration_log(log_rows, path) -> None:
    _write_csv(path, "iter,objective,min_margin_bar",
               ((row["iter"], row["objective"], row["min_margin_bar"])
                for row in log_rows))


# -- canonical serialization -------------------------------------------------

def network_to_dict(network: CoupledNetwork) -> dict:
    raw = asdict(network)
    gas_net = raw.pop("gas")
    raw.update(gas_nodes=gas_net["nodes"], pipes=gas_net["pipes"],
               compressors=gas_net["compressors"], **raw.pop("grid"))
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in raw.items()}


def scenario_to_dict(scenario: Scenario) -> dict:
    boundary: dict[str, dict] = {}
    for (target, quant), (times, values) in sorted(scenario.boundary.series.items()):
        key, unit = _FILE_SERIES.get(quant, (quant, 1.0))
        boundary.setdefault(target, {})[key] = [
            [t, v / unit] for t, v in zip((times / 3600.0).tolist(), values)]
    return {
        "horizon_hours": scenario.horizon / 3600.0,
        "dt_minutes": scenario.dt / 60.0,
        "boundary": boundary,
        "pressure_bounds": {node: p / BAR
                            for node, p in sorted(scenario.pressure_bounds.items())},
        "control_bounds": {"u_max_bar": scenario.control_max / BAR},
        "optimizer": {key: getattr(scenario, key) for key in _OPTIMIZER_KEYS},
    }


def dump_network(network: CoupledNetwork, path) -> None:
    _write_json(network_to_dict(network), path)


def dump_scenario(scenario: Scenario, path) -> None:
    _write_json(scenario_to_dict(scenario), path)


# -- bundled example ----------------------------------------------------------

def bundled_network_path() -> Path:
    return Path(resources.files("gaspower") / "fixtures" / "network.json")


def bundled_scenario_path() -> Path:
    return Path(resources.files("gaspower") / "fixtures" / "scenario.json")


def load_bundled() -> tuple[CoupledNetwork, Scenario]:
    """The bundled 6-pipe network with compressor, 9-bus grid and plant."""
    network = load_network(bundled_network_path())
    scenario = load_scenario(bundled_scenario_path(), network)
    return network, scenario
