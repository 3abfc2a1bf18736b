"""Benchmark inputs: the networks, scenarios and controls of each workload.

Every input is built from the bundled case with the public `model` and
`sim` dataclasses, and every random choice is drawn from the variant
selected by the benchmark seed (see `window`).  The program under test
only ever receives the finished network, scenario and control.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from gaspower import io, model, sim

WORKLOADS = ("bundled", "many-pipes", "long-pipes")

# Inputs come in this many variants, each with a stored reference
# objective, so a run at any seed can be checked.
VARIANTS = 40
# A timed run measures this many consecutive variants and reports the
# median over them, which evens out what differs between inputs and the
# rare sample that a burst of load on the host slows down.
WINDOW = 4

COPIES = 10          # many-pipes: replicas of the bundled gas network
CELL_FACTOR = 10     # long-pipes: refinement of every pipe's grid

# Shared pressure source of every replica; the grid-coupled plant node.
SOURCE_NODE = "S5"
PLANT_NODE = "S4"
DEMAND_NODE = "S25"

# The lift is piecewise constant over the horizon, one piece per range
# (bar): a rise, a large drop and a drop into low lift, where compressor
# flow and pipe friction change most.  Each piece is drawn inside its own
# range, so every input has this shape and about the same Newton and
# Colebrook work; drawing each piece from 2 to 20 bar made the forward
# time on many-pipes vary 2x between inputs.  Every implicit step of
# every variant converges in these ranges.
CONTROL_PROFILE_BAR = ((10.0, 14.0), (16.0, 20.0), (6.0, 9.0), (2.0, 4.0))
DEMAND_RANGE_M3_S = (60.0, 90.0)


def window(seed: int) -> list[int]:
    """The input variants a run at `seed` measures."""
    return [(seed + k) % VARIANTS for k in range(WINDOW)]


def _rng(workload: str, variant: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), variant])


def draw_control(workload: str, variant: int,
                 scenario: sim.Scenario) -> np.ndarray:
    """Piecewise-constant compressor lift (Pa), one value per time level."""
    rng = _rng(workload, variant)
    levels = np.array([rng.uniform(lo, hi) for lo, hi in CONTROL_PROFILE_BAR])
    pieces = len(levels)
    m = scenario.step_count
    piece = np.minimum(np.arange(m + 1) * pieces // (m + 1), pieces - 1)
    return levels[piece] * io.BAR


def _draw_demands(workload: str, variant: int, count: int) -> np.ndarray:
    """Outflow per demand node (m^3/s at reference density)."""
    rng = _rng(workload, variant)
    rng.uniform(size=len(CONTROL_PROFILE_BAR))  # the control's draws come first
    return rng.uniform(*DEMAND_RANGE_M3_S, size=count)


def _with_outflows(scenario: sim.Scenario, network: model.CoupledNetwork,
                   outflows_m3_s: dict[str, float],
                   rho_ref: float) -> sim.Scenario:
    """Scenario whose only flow boundaries are the given constant outflows."""
    series = {key: val for key, val in scenario.boundary.series.items()
              if key[1] != "outflow"}
    area = {n: p.area for p in network.gas.pipes
            for n in (p.from_node, p.to_node)}
    for node, volume_rate in outflows_m3_s.items():
        flux = volume_rate * rho_ref / area[node]
        series[(node, "outflow")] = (np.array([0.0]), np.array([flux]))
    return replace(scenario, boundary=sim.BoundaryData(series))


def many_pipes(base: model.CoupledNetwork, scenario: sim.Scenario,
               demands_m3_s) -> tuple[model.CoupledNetwork, sim.Scenario]:
    """The bundled gas network replicated len(demands_m3_s) times.

    All replicas draw from the shared pressure source; each keeps its own
    compressor and demand node.  Only replica 0 keeps the gas-fired plant,
    so the 9-bus grid is coupled exactly once.
    """
    plant, = base.plants
    nodes = [n for n in base.gas.nodes if n.id == SOURCE_NODE]
    pipes, compressors, outflows = [], [], {}
    for k, demand in enumerate(demands_m3_s):
        def name(node_id):
            return node_id if node_id == SOURCE_NODE else f"{node_id}_{k}"
        for n in base.gas.nodes:
            if n.id == SOURCE_NODE:
                continue
            kind = n.kind
            if n.kind == model.POWER_COUPLING and k > 0:
                kind = model.JUNCTION
            nodes.append(model.GasNode(name(n.id), kind))
        pipes += [replace(p, id=f"{p.id}_{k}", from_node=name(p.from_node),
                          to_node=name(p.to_node)) for p in base.gas.pipes]
        compressors += [replace(c, id=f"{c.id}_{k}",
                                from_node=name(c.from_node),
                                to_node=name(c.to_node))
                        for c in base.gas.compressors]
        outflows[name(DEMAND_NODE)] = demand
    gas_net = model.GasNetwork(tuple(nodes), tuple(pipes), tuple(compressors))
    network = replace(base, gas=gas_net,
                      plants=(replace(plant, gas_node=f"{PLANT_NODE}_0"),))
    return network, _with_outflows(scenario, network, outflows,
                                   plant.reference_density)


def long_pipes(base: model.CoupledNetwork, scenario: sim.Scenario,
               demand_m3_s: float) -> tuple[model.CoupledNetwork, sim.Scenario]:
    """The bundled topology with every pipe's grid CELL_FACTOR times finer."""
    pipes = tuple(replace(p, cell_count=p.cell_count * CELL_FACTOR)
                  for p in base.gas.pipes)
    network = replace(base, gas=replace(base.gas, pipes=pipes))
    plant, = base.plants
    return network, _with_outflows(scenario, network,
                                   {DEMAND_NODE: demand_m3_s},
                                   plant.reference_density)


def build(workload: str, variant: int
          ) -> tuple[model.CoupledNetwork, sim.Scenario]:
    """Network and scenario of a workload; the timed part of set-up."""
    network, scenario = io.load_bundled()
    if workload == "bundled":
        return network, scenario
    if workload == "many-pipes":
        return many_pipes(network, scenario,
                          _draw_demands(workload, variant, COPIES))
    if workload == "long-pipes":
        demand, = _draw_demands(workload, variant, 1)
        return long_pipes(network, scenario, demand)
    raise ValueError(f"unknown workload {workload!r}")
