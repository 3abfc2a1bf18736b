"""Parsing and serialization of network, scenario, control and result files.

All file formats are JSON (UTF-8) or CSV with '.' decimals, ',' delimiters
and LF line endings; identical inputs produce byte-identical outputs.
Gas pressures are accepted in bar in files and converted to Pa internally;
electrical quantities are per-unit throughout.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from . import opt
from .model import (BAR, FLOW_BOUNDARY, PINNED_QUANTITIES, PRESSURE_BOUNDARY,
                    Bus, CompressorArc, CompressorCostModel, CoupledNetwork,
                    GasConstants, GasNetwork, GasNode, GasPowerPlant,
                    PerUnitSystem, Pipe, PowerGrid, TransmissionLine,
                    incident_pipe_area, validate_network)
from .sim import (BUS_QUANTITIES, BoundaryData, Scenario, Simulator,
                  Trajectory)

_GAS_QUANTITIES = ("pressure_bar", "outflow_m3_s", "outflow_flux")


class FormatError(ValueError):
    """Malformed input file: bad JSON, unknown keys, or failed validation."""


def _read_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"{where}: expected an object")
    return value


def _check_keys(mapping: dict, allowed, where: str, strict: bool):
    _object(mapping, where)
    unknown = sorted(set(mapping) - set(allowed))
    if not unknown:
        return
    message = f"{where}: unknown key(s) {', '.join(unknown)}"
    if strict:
        raise FormatError(message)
    warnings.warn(message)


def _build(cls, record: dict, where: str, strict: bool, **nested):
    """cls from the JSON object `record`; `nested` maps each field that
    holds an object of its own to that object's class."""
    fields = cls.__dataclass_fields__
    _check_keys(record, fields, where, strict)
    known = {k: v for k, v in record.items() if k in fields}
    for key, sub in nested.items():
        known[key] = _build(sub, record.get(key, {}), f"{where} {key}", strict)
    try:
        return cls(**known)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from None


_NETWORK_KEYS = ("gas_nodes", "pipes", "compressors", "busses", "lines",
                 "plants", "constants", "per_unit")


def load_network(path, strict: bool = True, validate: bool = True
                 ) -> CoupledNetwork:
    """Load and validate a network description file."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: top level must be an object")
    _check_keys(raw, _NETWORK_KEYS, str(path), strict)

    def records(key, cls, name, **nested):
        items = raw.get(key, [])
        if not isinstance(items, list):
            raise FormatError(f"{path}: {key}: expected a list")
        return tuple(_build(cls, rec, f"{name} #{i}", strict, **nested)
                     for i, rec in enumerate(items))

    nodes = records("gas_nodes", GasNode, "gas node")
    pipes = records("pipes", Pipe, "pipe")
    comps = records("compressors", CompressorArc, "compressor",
                    cost=CompressorCostModel)
    busses = records("busses", Bus, "bus")
    lines = records("lines", TransmissionLine, "line")
    plants = records("plants", GasPowerPlant, "plant")
    constants = _build(GasConstants, raw.get("constants", {}),
                       "constants", strict)
    per_unit = _build(PerUnitSystem, raw.get("per_unit", {}),
                      "per_unit", strict)

    network = CoupledNetwork(GasNetwork(nodes, pipes, comps),
                             PowerGrid(busses, lines), plants,
                             constants, per_unit)
    if validate:
        violations = validate_network(network.gas, network.grid,
                                      network.plants)
        if violations:
            raise FormatError(f"{path}: validation failed: "
                              + "; ".join(violations))
    return network


_SCENARIO_KEYS = ("horizon_hours", "dt_minutes", "reference_density_kg_m3",
                  "boundary", "pressure_bounds", "control_bounds", "optimizer")
_CONTROL_BOUND_KEYS = ("u_min_bar", "u_max_bar")
_OPTIMIZER_KEYS = ("max_iter", "feasibility_tol_bar", "newton_tol")


def _number(mapping: dict, key: str, where: str, default=None) -> float:
    """mapping[key] (`default` if given and the key is absent) as a float."""
    try:
        return float(mapping[key] if default is None
                     else mapping.get(key, default))
    except (TypeError, ValueError):
        raise FormatError(f"{where}{key}: expected a number") from None


def _series(points, where, time_scale=3600.0, value_scale=1.0):
    try:
        pts = [(float(t) * time_scale, float(v) * value_scale)
               for t, v in points]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: breakpoints must be (time, value) "
                          f"pairs: {exc}") from None
    if not pts:
        raise FormatError(f"{where}: empty time series")
    return pts


def load_scenario(path, network: CoupledNetwork,
                  strict: bool = True) -> Scenario:
    """Load a scenario file and resolve it against a network."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: top level must be an object")
    _check_keys(raw, _SCENARIO_KEYS, str(path), strict)
    try:
        horizon = _number(raw, "horizon_hours", f"{path}: ") * 3600.0
        dt = _number(raw, "dt_minutes", f"{path}: ") * 60.0
    except KeyError as exc:
        raise FormatError(f"{path}: missing required key {exc}") from None
    for key, value in (("horizon_hours", horizon), ("dt_minutes", dt)):
        if not value > 0:
            raise FormatError(f"{path}: {key} must be positive")
    rho_ref = _number(raw, "reference_density_kg_m3", f"{path}: ", 0.785)

    gas_ids = {n.id: n for n in network.gas.nodes}
    bus_ids = {b.id: b for b in network.grid.busses}

    series: dict[tuple[str, str], list] = {}
    boundary = _object(raw.get("boundary", {}), f"{path}: boundary")
    for target, quantities in boundary.items():
        if target in gas_ids:
            _check_keys(quantities, _GAS_QUANTITIES,
                        f"boundary for {target}", strict)
            for quant, pts in quantities.items():
                if quant == "pressure_bar":
                    series[(target, "pressure")] = _series(
                        pts, f"{target}.pressure_bar", value_scale=BAR)
                elif quant == "outflow_m3_s":
                    area = incident_pipe_area(network.gas, target)
                    if area is None:
                        raise FormatError(f"node {target} has no incident pipe")
                    series[(target, "outflow")] = _series(
                        pts, f"{target}.outflow_m3_s",
                        value_scale=rho_ref / area)
                elif quant == "outflow_flux":
                    series[(target, "outflow")] = _series(
                        pts, f"{target}.outflow_flux")
        elif target in bus_ids:
            _check_keys(quantities, BUS_QUANTITIES,
                        f"boundary for {target}", strict)
            for quant, pts in quantities.items():
                series[(target, quant)] = _series(pts, f"{target}.{quant}")
        else:
            raise FormatError(f"{path}: boundary for unknown target "
                              f"{target!r}")

    required = []
    for node in network.gas.nodes:
        if node.kind == PRESSURE_BOUNDARY:
            required.append((node.id, "pressure"))
        elif node.kind == FLOW_BOUNDARY:
            required.append((node.id, "outflow"))
    for bus in network.grid.busses:
        required.extend((bus.id, q) for q in PINNED_QUANTITIES[bus.kind])
    missing = [key for key in required if key not in series]
    if missing:
        names = ", ".join(f"{t}.{q}" for t, q in missing)
        raise FormatError(f"{path}: missing boundary data for {names}")

    bounds = {}
    p_min = _object(raw.get("pressure_bounds", {}), f"{path}: pressure_bounds")
    for node in p_min:
        if node not in gas_ids:
            raise FormatError(f"{path}: pressure bound references unknown "
                              f"node {node!r}")
        bounds[node] = _number(p_min, node, f"{path}: pressure_bounds.") * BAR

    cb = raw.get("control_bounds", {})
    _check_keys(cb, _CONTROL_BOUND_KEYS, f"{path}: control_bounds", strict)
    where = f"{path}: control_bounds."
    if _number(cb, "u_min_bar", where, 0.0) != 0.0:
        raise FormatError(f"{path}: only u_min_bar = 0 is supported")
    u_max = _number(cb, "u_max_bar", where, 30.0) * BAR

    optimizer = raw.get("optimizer", {})
    _check_keys(optimizer, _OPTIMIZER_KEYS, f"{path}: optimizer", strict)
    # without strict, unknown keys (such as removed settings) are ignored
    optimizer = {k: v for k, v in optimizer.items() if k in _OPTIMIZER_KEYS}

    return Scenario(horizon=horizon, dt=dt,
                    boundary=BoundaryData.from_breakpoints(series),
                    pressure_bounds=bounds, control_max=u_max,
                    optimizer=optimizer)


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
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise FormatError(f"{path}:{i + 1}: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: no control samples")
    rows.sort()
    times = np.array([r[0] for r in rows]) * 3600.0
    values = np.array([r[1] for r in rows]) * BAR
    return times, values


def sample_control(times: np.ndarray, values: np.ndarray,
                   scenario: Scenario) -> np.ndarray:
    """Control values at the scenario grid times (linear interpolation)."""
    return np.interp(scenario.times, times, values)


def _fmt(x) -> str:
    return f"{float(x):.9g}"


def _round9(x):
    return float(_fmt(x))


def write_results(simulator: Simulator, trajectory: Trajectory,
                  out_dir) -> dict:
    """Write gas_nodes.csv, busses.csv, control.csv and summary.json.

    The q column of gas_nodes.csv is the net mass flow (kg/s) entering
    the network through that node: positive at supply nodes, negative at
    offtakes, zero at plain junctions.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    asm = simulator.assembler
    cons = simulator.network.constants
    hours = trajectory.times / 3600.0

    with open(out / "gas_nodes.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("t_hours,node,p_bar,q\n")
        pressures = {n.id: trajectory.node_pressure(n.id, cons) / BAR
                     for n in asm.nodes}
        for j, t in enumerate(hours):
            for node in asm.nodes:
                inj = asm.node_injection(trajectory.states[j], node.id)
                f.write(f"{_fmt(t)},{node.id},"
                        f"{_fmt(pressures[node.id][j])},{_fmt(inj)}\n")

    with open(out / "busses.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("t_hours,bus,P,Q,V,phi\n")
        for j, t in enumerate(hours):
            for bus in asm.busses:
                vals = [trajectory.states[j, asm.index.bus[(bus.id, q)]]
                        for q in ("P", "Q", "V", "phi")]
                f.write(f"{_fmt(t)},{bus.id},"
                        + ",".join(_fmt(v) for v in vals) + "\n")

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
    with open(out / "summary.json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary


def write_control(times: np.ndarray, control_pa: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("t_hours,u_bar\n")
        for t, u in zip(np.asarray(times) / 3600.0,
                        np.asarray(control_pa) / BAR):
            f.write(f"{_fmt(t)},{_fmt(u)}\n")


def write_iteration_log(log_rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("iter,objective,min_margin_bar\n")
        for row in log_rows:
            f.write(f"{row['iter']},{_fmt(row['objective'])},"
                    f"{_fmt(row['min_margin_bar'])}\n")


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
        pts_h = (times / 3600.0).tolist()
        entry = boundary.setdefault(target, {})
        if quant == "pressure":
            entry["pressure_bar"] = [[t, v / BAR]
                                     for t, v in zip(pts_h, values)]
        elif quant == "outflow":
            entry["outflow_flux"] = [[t, v] for t, v in zip(pts_h, values)]
        else:
            entry[quant] = [[t, v] for t, v in zip(pts_h, values)]
    return {
        "horizon_hours": scenario.horizon / 3600.0,
        "dt_minutes": scenario.dt / 60.0,
        "boundary": boundary,
        "pressure_bounds": {node: p / BAR
                            for node, p in sorted(scenario.pressure_bounds.items())},
        "control_bounds": {"u_max_bar": scenario.control_max / BAR},
        "optimizer": dict(scenario.optimizer),
    }


def dump_network(network: CoupledNetwork, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(network_to_dict(network), f, indent=2, sort_keys=True)
        f.write("\n")


def dump_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(scenario_to_dict(scenario), f, indent=2, sort_keys=True)
        f.write("\n")


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
