"""Static network description: gas topology, power grid, coupling plants.

All objects are frozen dataclasses; a network is immutable after
construction and safe to share between concurrent simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Pressure law defaults: isothermal gas with sound speed 340 m/s.
KAPPA_DEFAULT = 340.0**2        # Pa m^3/kg for gamma = 1
GAMMA_DEFAULT = 1.0
ETA_DEFAULT = 1.0e-5            # kg/(m s)

DIAMETER_DEFAULT = 0.6          # m
ROUGHNESS_DEFAULT = 5.0e-4      # m

BAR = 1.0e5                     # Pa

BASE_POWER_DEFAULT = 100.0e6    # W
BASE_VOLTAGE_DEFAULT = 345.0e3  # V

# Gas node kinds
JUNCTION = "junction"
PRESSURE_BOUNDARY = "pressure-boundary"
FLOW_BOUNDARY = "flow-boundary"
POWER_COUPLING = "power-coupling"
GAS_NODE_KINDS = (JUNCTION, PRESSURE_BOUNDARY, FLOW_BOUNDARY, POWER_COUPLING)

# Bus kinds
SLACK = "slack"
PV = "generator"
PQ = "load"
BUS_KINDS = (SLACK, PV, PQ)
# the two bus quantities that boundary data fixes, per bus kind
PINNED_QUANTITIES = {SLACK: ("V", "phi"), PV: ("P", "V"), PQ: ("P", "Q")}


@dataclass(frozen=True)
class GasConstants:
    """Pressure-law and friction constants: p(rho) = kappa * rho**gamma."""

    kappa: float = KAPPA_DEFAULT
    gamma: float = GAMMA_DEFAULT
    eta: float = ETA_DEFAULT

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.eta <= 0:
            raise ValueError("eta must be positive")


@dataclass(frozen=True)
class Pipe:
    id: str
    from_node: str
    to_node: str
    length: float                       # m
    diameter: float = DIAMETER_DEFAULT  # m
    roughness: float = ROUGHNESS_DEFAULT  # m
    cell_count: int = 0                 # 0 = derive from length (~1 km cells)

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"pipe {self.id}: length must be positive")
        if self.diameter <= 0:
            raise ValueError(f"pipe {self.id}: diameter must be positive")
        if self.roughness < 0:
            raise ValueError(f"pipe {self.id}: roughness must be >= 0")
        if self.cell_count == 0:
            object.__setattr__(self, "cell_count",
                               max(1, round(self.length / 1000.0)))
        if self.cell_count < 1:
            raise ValueError(f"pipe {self.id}: cell_count must be >= 1")

    @property
    def area(self) -> float:
        return math.pi * self.diameter**2 / 4.0

    @property
    def dx(self) -> float:
        return self.length / self.cell_count


@dataclass(frozen=True)
class GasNode:
    id: str
    kind: str = JUNCTION

    def __post_init__(self):
        if self.kind not in GAS_NODE_KINDS:
            raise ValueError(f"gas node {self.id}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class CompressorCostModel:
    """Quadratic running cost in shaft power (MW): d0 + d1*P + d2*P**2.

    d0 applies only while the machine is lifting pressure (u > 0), which
    makes the cost jump at u = 0; opt.optimize therefore requires d0 = 0.
    """

    d0: float = 0.0
    d1: float = 1.0
    d2: float = 0.01

    def __post_init__(self):
        if self.d1 < 0 or self.d2 < 0:
            raise ValueError("cost coefficients d1, d2 must be >= 0")


@dataclass(frozen=True)
class CompressorArc:
    """Algebraic arc enforcing p_out - p_in = u with equal in/out flux."""

    id: str
    from_node: str
    to_node: str
    cost: CompressorCostModel = field(default_factory=CompressorCostModel)

    def __post_init__(self):
        if self.from_node == self.to_node:
            raise ValueError(f"compressor {self.id}: from == to")


@dataclass(frozen=True)
class Bus:
    id: str
    kind: str
    G: float = 0.0  # self conductance, p.u.
    B: float = 0.0  # self susceptance, p.u.

    def __post_init__(self):
        if self.kind not in BUS_KINDS:
            raise ValueError(f"bus {self.id}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class TransmissionLine:
    id: str
    from_bus: str
    to_bus: str
    G: float  # admittance-matrix entry Y_kj, real part, p.u.
    B: float  # imaginary part, p.u.


@dataclass(frozen=True)
class GasPowerPlant:
    """Gas-fired plant drawing eps(P) = a0 + a1*P + a2*P**2 from the network.

    eps is a volume rate (m^3/s at reference density); the mass offtake is
    eps * reference_density.
    """

    id: str
    gas_node: str
    bus: str
    a0: float = 2.0
    a1: float = 5.0
    a2: float = 10.0
    reference_density: float = 0.785  # kg/m^3

    def __post_init__(self):
        if self.a1 < 0 or self.a2 < 0:
            raise ValueError(f"plant {self.id}: a1 and a2 must be >= 0")
        if self.reference_density <= 0:
            raise ValueError(f"plant {self.id}: reference density must be positive")


@dataclass(frozen=True)
class PerUnitSystem:
    base_power: float = BASE_POWER_DEFAULT      # W
    base_voltage: float = BASE_VOLTAGE_DEFAULT  # V

    def __post_init__(self):
        if self.base_power <= 0 or self.base_voltage <= 0:
            raise ValueError("per-unit bases must be positive")


@dataclass(frozen=True)
class GasNetwork:
    nodes: tuple[GasNode, ...]
    pipes: tuple[Pipe, ...]
    compressors: tuple[CompressorArc, ...] = ()


@dataclass(frozen=True)
class PowerGrid:
    busses: tuple[Bus, ...]
    lines: tuple[TransmissionLine, ...]

    def bus(self, bus_id: str) -> Bus:
        for b in self.busses:
            if b.id == bus_id:
                return b
        raise KeyError(bus_id)


@dataclass(frozen=True)
class CoupledNetwork:
    """Everything static: gas network, power grid, plants, constants."""

    gas: GasNetwork
    grid: PowerGrid
    plants: tuple[GasPowerPlant, ...] = ()
    constants: GasConstants = field(default_factory=GasConstants)
    per_unit: PerUnitSystem = field(default_factory=PerUnitSystem)


def incident_pipe_area(gas: GasNetwork, *node_ids: str) -> float | None:
    """Cross-section of the first pipe (in network order) that ends at the
    first of `node_ids` any pipe ends at; None if no pipe ends at any."""
    for node_id in node_ids:
        for pipe in gas.pipes:
            if node_id in (pipe.from_node, pipe.to_node):
                return pipe.area
    return None


def validate_network(gas: GasNetwork, grid: PowerGrid,
                     plants: tuple[GasPowerPlant, ...] = ()) -> list[str]:
    """Check topology consistency; returns a list of violations (empty = valid).

    A network with no busses at all is accepted as a pure gas network,
    provided it has no plants either.
    """
    violations = []

    node_ids = [n.id for n in gas.nodes]
    if len(set(node_ids)) != len(node_ids):
        violations.append("duplicate gas node ids")
    node_set = set(node_ids)

    arc_ids = [p.id for p in gas.pipes] + [c.id for c in gas.compressors]
    if len(set(arc_ids)) != len(arc_ids):
        violations.append("duplicate gas arc ids")

    touched: set[str] = set()
    for arc in list(gas.pipes) + list(gas.compressors):
        for end in (arc.from_node, arc.to_node):
            if end not in node_set:
                violations.append(f"{arc.id}: unknown endpoint {end!r}")
            else:
                touched.add(end)
    for nid in node_ids:
        if nid not in touched:
            violations.append(f"gas node {nid} is not an endpoint of any arc")

    # connectivity of the gas graph (undirected)
    if gas.nodes and not violations:
        adj: dict[str, set[str]] = {nid: set() for nid in node_ids}
        for arc in list(gas.pipes) + list(gas.compressors):
            adj[arc.from_node].add(arc.to_node)
            adj[arc.to_node].add(arc.from_node)
        seen = {node_ids[0]}
        stack = [node_ids[0]]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != node_set:
            missing = sorted(node_set - seen)
            violations.append(f"gas network is disconnected (unreachable: {', '.join(missing)})")

    bus_ids = [b.id for b in grid.busses]
    if len(set(bus_ids)) != len(bus_ids):
        violations.append("duplicate bus ids")
    bus_set = set(bus_ids)

    if grid.busses:
        n_slack = sum(1 for b in grid.busses if b.kind == SLACK)
        if n_slack != 1:
            violations.append(f"slack bus not unique ({n_slack} found)")

    line_pairs = set()
    for ln in grid.lines:
        for end in (ln.from_bus, ln.to_bus):
            if end not in bus_set:
                violations.append(f"{ln.id}: unknown endpoint {end!r}")
        pair = frozenset((ln.from_bus, ln.to_bus))
        if pair in line_pairs:
            violations.append(f"{ln.id}: duplicate line between {ln.from_bus} and {ln.to_bus}")
        line_pairs.add(pair)

    coupling_nodes = {n.id for n in gas.nodes if n.kind == POWER_COUPLING}
    plant_nodes = set()
    for plant in plants:
        if plant.gas_node not in node_set:
            violations.append(f"plant {plant.id}: unknown gas node {plant.gas_node!r}")
        plant_nodes.add(plant.gas_node)
        if plant.bus not in bus_set:
            violations.append(f"plant {plant.id}: unknown bus {plant.bus!r}")
        else:
            # the slack bus supplies the plant power used in eps(P)
            if grid.bus(plant.bus).kind != SLACK:
                violations.append(f"plant {plant.id}: bus {plant.bus} is not the slack bus")
    for nid in coupling_nodes - plant_nodes:
        violations.append(f"power-coupling node {nid} has no plant")
    for nid in plant_nodes - coupling_nodes:
        if nid in node_set:
            violations.append(f"plant gas node {nid} is not marked power-coupling")
    if len(plants) != len({p.gas_node for p in plants}):
        violations.append("multiple plants on one gas node")

    if plants and not grid.busses:
        violations.append("plants present but the power grid is empty")

    return violations


def nodal_admittance(grid: PowerGrid) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Bus-by-bus admittance tables (G, B) and the bus id ordering.

    Diagonal entries come from the bus records, off-diagonals from the
    line records (mirrored); absent pairs are zero.
    """
    order = [b.id for b in grid.busses]
    pos = {bid: i for i, bid in enumerate(order)}
    n = len(order)
    G = np.zeros((n, n))
    B = np.zeros((n, n))
    for b in grid.busses:
        G[pos[b.id], pos[b.id]] = b.G
        B[pos[b.id], pos[b.id]] = b.B
    for ln in grid.lines:
        i, j = pos[ln.from_bus], pos[ln.to_bus]
        G[i, j] = G[j, i] = ln.G
        B[i, j] = B[j, i] = ln.B
    return G, B, order
