"""Per-level systems of the coupled model: assembly, Newton solves, and
trajectories.

One time level stacks the unknowns in a fixed order: the densities at
the grid points of all pipes, pipe after pipe, then their flows in the
same order, one density-equivalent pressure unknown per gas node, one
flux unknown per compressor, and V, phi, P, Q for every bus.  Rows mirror
this layout block by block, so every row index is read off the unknowns'
(the gas rows: see CoupledStepAssembler), and a bus's P-flow, Q-flow and
two boundary rows sit at its V, phi, P and Q columns.  No bus row reads a
gas unknown, the old level or the lift, and the gas rows read the grid
only through the plant offtake eps(P), so a level's Jacobian is block
triangular, [[J_gg, J_gb], [0, J_bb]].
Simulator.run therefore solves each level's power flow first
(power.solve_powerflow on the assembler's complex admittance table Y,
from the previous level's grid, at level 0 from V = 1, phi = P = Q = 0
and the pinned values), then the square gas system in the leading gas
unknowns, the offtake as data.  Each time step and the steady start
(the same system with y_prev = y_next) are solved by one damped Newton
routine on the gas system, and as the lift enters the compressor rows
alone, the sweeps (see adjoint) run over its rows too.

The assembler checks the network (model.validate_network), the Simulator
its boundary data (check_boundary_data).  At set-up the assembler lists
one table of arc ends (every pipe end, then every compressor end, from-end
then to-end: node, flow column, area signed into the node), off which the
balances, pressure coupling, compressor rows and node injections are read,
and the entries of dR/dy_next, so an iterate pays only for the guards on
its own values and a step Jacobian is its values in that entry order, no
matrix; dR/dy_prev (CSR, two old-level columns per box row) and dR/du are
constant.  factors() factors a level block, for Newton and the adjoint
sweeps alike: a step block dR/dy_next, or the steady block, which adds
dR/dy_prev's values, by lu.LevelCondensation straight from its values
(shooting along each pipe by LAPACK dtbtrs; the caller's splu factors
the network block of nodes, compressors and each pipe's from-end flow).
The residual reads its linear rows (pressure coupling, boundary rows,
node balances) off the Jacobian's constant entries, one bincount.
After set-up the assembler holds no state but the network block's
values, which every factors() call rewrites before its splu
(lu.LevelCondensation.factors refills schur.data), so one assembler, and
so one Simulator, factors one block at a time.  evaluate(y) returns an
Iterate, y with its Colebrook friction and its pointwise gas terms
(gas.point_terms), once the densities pass the one admissibility test,
and the residual and the Jacobian at y both read it, so each iterate's
pointwise physics is evaluated once and the Jacobian only combines it.
The residual is the rows of the iterate less the level's data vector b
(level_data: boundary values, lift and plant offtake), its box rows on
the old level's pair means (old_means).  The Newton solves
read (y_prev, b) alone, and build the means once per step.
The Newton solves return their converged Iterate and last factors, and
Simulator.run keeps each level's lambda on the Trajectory (at DEBUG it
logs each level), so the sweeps rebuild dlambda/dq from it in closed form:
Colebrook is solved once per Newton iterate, never in a sweep.  It starts
each step at the tangent-linear prediction on the last factors (Hairer and
Wanner, Solving ODEs II, IV.8), so the level's new data enter the start,
and takes a chord step after a step that contracts CHORD_CONTRACTION-fold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from . import gas, power
from .lu import LevelCondensation
from .model import (BUS_QUANTITIES, FLOW_BOUNDARY, PINNED_QUANTITIES,
                    PRESSURE_BOUNDARY, CoupledNetwork, incident_pipe_area,
                    nodal_admittance, validate_network)
from .power import SimulationError

log = logging.getLogger(__name__)

# Node mass-balance rows are written in kg/s and divided by this reference
# so that one Newton tolerance governs the mixed-unit system; momentum and
# compressor rows are divided by kappa for the same reason.
MASS_FLOW_SCALE = 100.0

# dt/dx regime (s/m) the implicit box scheme is routinely run at; strong
# deviations are logged, not rejected.
_REFERENCE_DT_DX = 900.0 / 1000.0

# pipe/compressor flux (kg/(m^2 s)) seeded into the steady-state guess
_STEADY_FLOW_SEED = 10.0

# A full Newton step that cuts the max-norm residual this many times is
# followed by a chord step on its factors: 33% fewer LUs over the benchmark
# variants for 1.7% more iterations; 1e4 saves less, 1e2 no more time.
CHORD_CONTRACTION = 1e3

class MaxIterationsExceeded(SimulationError):
    def __init__(self, message, residual_norm, iterations):
        super().__init__(f"{message} (residual {residual_norm:.3e} "
                         f"after {iterations} iterations)")
        self.residual_norm = residual_norm
        self.iterations = iterations


class SingularJacobian(SimulationError):
    pass


class VariableIndex:
    """Flat indices of the unknowns: pipe grid points, nodes, compressors
    and bus quantities.  The gas unknowns lead: the first gas_size."""

    def __init__(self, network: CoupledNetwork):
        self.pipe_rho: dict[str, slice] = {}
        self.pipe_q: dict[str, slice] = {}
        self.node_rho: dict[str, int] = {}
        self.comp_q: dict[str, int] = {}
        self.bus: dict[tuple[str, str], int] = {}
        size = 0
        # all pipes' densities, then all flows: the layout of gas.PipeGrid
        for slices in (self.pipe_rho, self.pipe_q):
            for pipe in network.gas.pipes:
                slices[pipe.id] = slice(size, size + pipe.cell_count + 1)
                size += pipe.cell_count + 1
        for node in network.gas.nodes:
            self.node_rho[node.id] = size
            size += 1
        for comp in network.gas.compressors:
            self.comp_q[comp.id] = size
            size += 1
        self.gas_size = size
        for bus in network.grid.busses:
            for quant in BUS_QUANTITIES:
                self.bus[(bus.id, quant)] = size
                size += 1
        self.size = size

    def name(self, i: int) -> str:
        """The unknown at flat index i, e.g. "P1 q[3]", "S5 rho", "N5 P"."""
        for quantity, slices in (("rho", self.pipe_rho), ("q", self.pipe_q)):
            for pipe, at in slices.items():
                if at.start <= i < at.stop:
                    return f"{pipe} {quantity}[{i - at.start}]"
        return dict([(j, f"{n} rho") for n, j in self.node_rho.items()]
                    + [(j, f"{c} q") for c, j in self.comp_q.items()]
                    + [(j, f"{b} {q}") for (b, q), j in self.bus.items()])[i]


@dataclass(frozen=True, eq=False)
class BoundaryData:
    """Piecewise-linear time series per (target id, quantity).

    Gas quantities: "pressure" (Pa) at pressure-boundary nodes and
    "outflow" (kg/(m^2 s)) at flow-boundary nodes.  Bus quantities are the
    per-unit values of V, phi, P, Q fixed by the bus kind.  Values are
    clamped outside the covered time range.
    """

    series: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]

    @staticmethod
    def from_breakpoints(data: dict[tuple[str, str], list[tuple[float, float]]]
                         ) -> "BoundaryData":
        series = {}
        for key, pts in data.items():
            pts = sorted(pts)
            times = np.array([p[0] for p in pts], dtype=float)
            values = np.array([p[1] for p in pts], dtype=float)
            series[key] = (times, values)
        return BoundaryData(series)


def check_boundary_data(network: CoupledNetwork, series) -> None:
    """Raise ValueError naming, in node and then bus order, each boundary
    series (target id, quantity) the network reads that `series` (a
    BoundaryData.series) lacks, or else, in their order, the series of
    `series` that it does not read, or else the first pressure series with
    a value that is not positive and finite."""
    quantity = {PRESSURE_BOUNDARY: "pressure", FLOW_BOUNDARY: "outflow"}
    keys = [(n.id, quantity[n.kind]) for n in network.gas.nodes
            if n.kind in quantity] + [(b.id, q) for b in network.grid.busses
                                      for q in PINNED_QUANTITIES[b.kind]]
    missing = [f"{t}.{q}" for t, q in keys if (t, q) not in series]
    if missing:
        raise ValueError("missing boundary data for " + ", ".join(missing))
    unread = [f"{t}.{q}" for t, q in series if (t, q) not in keys]
    if unread:
        raise ValueError("boundary data the network does not read: "
                         + ", ".join(unread))
    for t in (t for t, q in keys if q == "pressure"):
        values = np.asarray(series[(t, "pressure")][1], dtype=float)
        if not ((values > 0) & (values < np.inf)).all():
            raise ValueError(f"{t}.pressure must be positive and finite")


def check_pressure_bounds(network: CoupledNetwork, bounds) -> None:
    """Raise ValueError naming, in their order, the nodes of `bounds` that
    are not gas nodes of the network."""
    gas_nodes = {n.id for n in network.gas.nodes}
    unknown = [node for node in bounds if node not in gas_nodes]
    if unknown:
        raise ValueError("pressure bounds at nodes that are not gas nodes: "
                         + ", ".join(unknown))


@dataclass(frozen=True, eq=False)
class Scenario:
    """One run: horizon, step, boundary data, bounds and solver settings."""

    horizon: float                  # s
    dt: float                       # s
    boundary: BoundaryData
    pressure_bounds: dict[str, float] = field(default_factory=dict)  # node -> Pa
    control_max: float = 30.0e5     # Pa, upper bound of the lift
    max_iter: int = 100             # SLSQP iterations
    feasibility_tol_bar: float = 1.0e-3  # pressure margins must stay above
    newton_tol: float = 1.0e-9      # max-norm residual of every Newton solve

    def __post_init__(self):
        for name in ("horizon", "dt", "control_max", "newton_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"scenario {name} must be positive")
        if not self.feasibility_tol_bar >= 0:
            raise ValueError("scenario feasibility_tol_bar must not be "
                             "negative")
        if self.max_iter < 1:
            raise ValueError("scenario max_iter must be at least 1")
        for node, p_min in self.pressure_bounds.items():
            if not p_min > 0:
                raise ValueError(f"pressure bound at {node} must be positive")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be an integer number of steps")

    @property
    def step_count(self) -> int:
        return round(self.horizon / self.dt)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.step_count + 1)


@dataclass(frozen=True, eq=False)
class _Snapshot:
    """Boundary values evaluated at one time; aligned with assembler order."""

    node_rho_bc: np.ndarray      # per gas node, NaN where unused
    node_outflow: np.ndarray     # flux, per gas node, 0 where unused
    bus_fixed: np.ndarray        # (n_bus, 2) values of the two pinned quantities


class Iterate(NamedTuple):
    """A y_next of gas unknowns with its Colebrook friction and the
    gas.point_terms built on it; a Newton solve returns its last Iterate
    with its iterations, step halvings, max-norm residual, the factors its
    last iteration solved on (None after 0 iterations) and factorizations."""

    y: np.ndarray
    friction: tuple   # (lambda, dlambda/dq), each per grid point
    terms: gas.PointTerms
    iterations: int = 0
    residual_norm: float = np.nan
    halvings: int = 0
    factors: object = None   # lu.CondensedFactors
    factorizations: int = 0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States at t_j = j dt together with the applied control sequence.

    friction[n] holds Colebrook's lambda at each grid point of states[n],
    as the forward solve evaluated it, so the sweeps over the trajectory
    (adjoint._level_solve) need not solve Colebrook again.
    That invariant is the caller's to keep: a trajectory made with
    dataclasses.replace(states=...) keeps the old friction.  Simulator.run
    makes states and friction read-only.  newton_iterations, step_halvings
    and residual_norm give level n's Newton iterations on the gas system
    (level 0: the steady solve), their step halvings and its final
    max-norm residual, factorizations[n] the blocks it factored (fewer
    where chord steps reuse them), grid_iterations[n] its power flow's
    Newton iterations, 0 where level n - 1 pins the same grid values.
    Equality and hash are the object's identity, as the arrays have no
    truth value.
    """

    index: VariableIndex
    times: np.ndarray            # s
    states: np.ndarray           # (M+1, N_y)
    control: np.ndarray          # Pa, (M+1,)
    friction: np.ndarray         # (M+1, n_points): lambda
    newton_iterations: np.ndarray   # (M+1,)
    grid_iterations: np.ndarray     # (M+1,)
    step_halvings: np.ndarray       # (M+1,)
    residual_norm: np.ndarray       # (M+1,)
    factorizations: np.ndarray      # (M+1,)

    @property
    def step_count(self) -> int:
        return len(self.times) - 1

    def node_pressure(self, node_id: str, constants) -> np.ndarray:
        rho = self.states[:, self.index.node_rho[node_id]]
        return gas.pressure_of_density(rho, constants)


class CoupledStepAssembler:
    """Assembles the residual and Jacobian blocks of one implicit step.

    The step system is the gas system: the rows and columns of the
    leading gas unknowns of VariableIndex, `size` of them, with the grid
    as data.  Rows mirror those columns block by block.  With
    n_box = grid.shape[0], the pipe block's rows are the n_box / 2 mass
    rows, the n_box / 2 momentum rows, and the coupling rows of pipe k at
    n_box + 2k (from end) and n_box + 2k + 1 (to end).  Node and
    compressor rows sit at their node's density column and their
    compressor's flux column.  A Jacobian is the values of its entries
    (`entries`, fixed at set-up), never a matrix; jac_prev, the constant
    dR/dy_prev, is the one CSR matrix.  The grid rows have none: the lift
    enters the gas rows alone, so no sweep needs one (see adjoint).  The
    network must pass validate_network.
    """

    def __init__(self, network: CoupledNetwork):
        violations = validate_network(network.gas, network.grid, network.plants)
        if violations:
            raise ValueError("invalid network: " + "; ".join(violations))
        self.network = network
        self.constants = network.constants
        self.index = VariableIndex(network)

        self.nodes = list(network.gas.nodes)
        self.node_pos = {n.id: i for i, n in enumerate(self.nodes)}
        self.pipes = list(network.gas.pipes)
        self.comps = list(network.gas.compressors)

        # the arc ends, every pipe's and then every compressor's, from-end
        # then to-end: node (position), flow column, area signed into node
        ends = []
        for pipe in self.pipes:
            q_sl = self.index.pipe_q[pipe.id]
            ends += [(pipe.from_node, q_sl.start, -pipe.area),
                     (pipe.to_node, q_sl.stop - 1, pipe.area)]
        for comp in self.comps:
            area = incident_pipe_area(network.gas, comp.from_node,
                                      comp.to_node)
            qc = self.index.comp_q[comp.id]
            ends += [(comp.from_node, qc, -area), (comp.to_node, qc, area)]
        nodes, flows, areas = zip(*ends)
        self.end_node = np.array([self.node_pos[n] for n in nodes])
        self.end_flow, self.end_area = np.array(flows), np.array(areas)

        self.Y, self.bus_ids = nodal_admittance(network.grid)
        self.busses = list(network.grid.busses)

        pipes = self.pipes
        self.grid = gas.PipeGrid.stack(
            [p.cell_count for p in pipes], [p.dx for p in pipes],
            [p.diameter for p in pipes], [p.roughness for p in pipes],
            self.constants.eta)
        self.n_points = len(self.grid.diameter)
        self._build_pattern()

    def _build_pattern(self):
        """Row indices and scales, and the entry list.

        Every row index is read off the unknowns' layout (see the class
        docstring).  The entries of dR/dy_next are listed once, as
        `entries` (rows, cols), in the order jacobian() concatenates their
        values: box stencil, constant entries (those of the residual's
        linear rows), compressors.  No two share a (row, col); the list is
        not sorted, and no level block is ever a matrix.
        """
        idx = self.index
        size = self.size = idx.gas_size
        box_next, old = self.grid.stencil()
        n_box, pipe_ends = self.grid.shape[0], 2 * len(self.pipes)
        ints = lambda values: np.array(list(values), dtype=int)
        kind = np.array([n.kind for n in self.nodes])
        node_rows = self.node_rows = ints(idx.node_rho[n.id]
                                          for n in self.nodes)
        # the entries evaluate() keeps positive: every density
        self.positive = np.concatenate([np.arange(self.n_points), node_rows])
        self._pb_nodes = np.flatnonzero(kind == PRESSURE_BOUNDARY)
        self._fb_nodes = np.flatnonzero(kind == FLOW_BOUNDARY)
        self._pb_rows = node_rows[self._pb_nodes]
        self._fb_rows = node_rows[self._fb_nodes]
        # the recorded outflow flux leaves through the node's first end
        self._fb_area = np.abs(self.end_area[
            [np.argmax(self.end_node == i) for i in self._fb_nodes]])
        # per plant: its balance row, its bus's P in a grid vector, itself
        self._plants = [(idx.node_rho[p.gas_node],
                         idx.bus[(p.bus, "P")] - size, p)
                        for p in self.network.plants]
        # a grid vector's positions that snap.bus_fixed pins, in (bus, k) order
        self.grid_pinned = ints(idx.bus[(b.id, quant)] - size
                                for b in self.busses
                                for quant in PINNED_QUANTITIES[b.kind])
        end_rows = node_rows[self.end_node]   # each arc end's node's density
        # per compressor: its flux column, its to- and from-node's density
        self._comp_rows = self.end_flow[pipe_ends::2]
        self._comp_ends = end_rows[pipe_ends:].reshape(-1, 2).T[::-1]
        self.coupling_node_cols = end_rows[:pipe_ends]

        scale = np.ones(size)
        kappa = self.constants.kappa
        scale[n_box // 2:n_box] = 1.0 / kappa
        scale[node_rows[kind != PRESSURE_BOUNDARY]] = 1.0 / MASS_FLOW_SCALE
        scale[self._comp_rows] = 1.0 / kappa
        self.row_scale = scale
        # dR/du is constant: the lift enters each compressor row as -u
        self.d_du = np.zeros(size)
        self.d_du[self._comp_rows] = -scale[self._comp_rows]
        self.d_du.flags.writeable = False

        # the linear rows as constant entries (rows, cols, value or values):
        # each pipe end's density less its node's, a pressure boundary's
        # density, and each arc end's signed area times flux in its balance
        coupling_rows = n_box + np.arange(pipe_ends)
        balance = (kind != PRESSURE_BOUNDARY)[self.end_node]
        const = [(coupling_rows, self.end_flow[:pipe_ends] - self.n_points,
                  1.0),
                 (coupling_rows, self.coupling_node_cols, -1.0),
                 (self._pb_rows, self._pb_rows, 1.0),
                 (end_rows[balance], self.end_flow[balance],
                  self.end_area[balance])]
        self._const_rows, self._const_cols = (
            np.concatenate(part).astype(int)
            for part in zip(*[(r, c) for r, c, _ in const]))
        self._const_vals = np.concatenate([v * np.ones(len(r))
                                           for r, _, v in const])

        self.entries = rows, cols = tuple(np.concatenate(part) for part in zip(
            box_next, (self._const_rows, self._const_cols),
            *[(self._comp_rows, node) for node in self._comp_ends]))
        self._entry_scale = self.row_scale[rows]
        # dR/dy_prev is constant, -1/2 on the old level of the box stencil
        # (mass rows by rho, momentum rows by q), and its values make the
        # steady block when added to the step Jacobian's; in CSR, each box
        # row holds its two old-level entries in column order
        self._prev_values = np.zeros(len(rows))
        self._prev_values[old] = -0.5 * self._entry_scale[old]
        by_row = lambda a: a[old].reshape(2, 2, -1).transpose(0, 2, 1).ravel()
        self.jac_prev = sparse.csr_matrix((
            by_row(self._prev_values), by_row(cols),
            np.minimum(2 * np.arange(size + 1), 2 * n_box)), (size, size))
        self.jac_prev.data.flags.writeable = False
        # the box and coupling entries lead the values; C: end balances
        self.condensation = LevelCondensation(
            rows, cols, self.grid.left,
            np.array([p.cell_count + 1 for p in self.pipes]),
            self.coupling_node_cols, np.where(
                balance, self.end_area * scale[end_rows], 0.0)[:pipe_ends],
            [p.id for p in self.pipes])

    # -- boundary handling -------------------------------------------------

    def boundary_snapshots(self, boundary: BoundaryData, times
                           ) -> list[_Snapshot]:
        """Boundary values at each of `times`, one interpolation per series."""
        times = np.asarray(times, dtype=float)

        def series(target, quantity):
            return np.interp(times, *boundary.series[(target, quantity)])

        node_rho = np.full((len(times), len(self.nodes)), np.nan)
        node_out = np.zeros((len(times), len(self.nodes)))
        for i, node in enumerate(self.nodes):
            if node.kind == PRESSURE_BOUNDARY:
                node_rho[:, i] = gas.density_of_pressure(
                    series(node.id, "pressure"), self.constants)
            elif node.kind == FLOW_BOUNDARY:
                node_out[:, i] = series(node.id, "outflow")
        bus_fixed = np.zeros((len(times), len(self.busses), 2))
        for i, bus in enumerate(self.busses):
            for k, quant in enumerate(PINNED_QUANTITIES[bus.kind]):
                bus_fixed[:, i, k] = series(bus.id, quant)
        return [_Snapshot(*level)
                for level in zip(node_rho, node_out, bus_fixed)]

    # -- state helpers -----------------------------------------------------

    def flat_state(self, b: np.ndarray) -> np.ndarray:
        """Near-stagnant admissible gas unknowns to start the steady solve.

        Every density starts at the first pressure boundary's in the
        level data b (a valid network has one).  Pipe and compressor fluxes
        are seeded with a small positive value: at exact stagnation the
        friction term q|q| has zero derivative and the flow split around
        network loops is linearly indeterminate.
        """
        y = np.zeros(self.size)
        rho0 = b[self._pb_rows[0]]
        y[:self.n_points] = rho0
        y[self.n_points:2 * self.n_points] = _STEADY_FLOW_SEED
        y[self.node_rows] = rho0
        y[self._comp_rows] = _STEADY_FLOW_SEED
        return y

    def node_injections(self, states: np.ndarray) -> np.ndarray:
        """Net mass flow (kg/s) entering the network through each node, at
        each of `states`: (levels, nodes), summed over its arc ends."""
        n = len(self.nodes)
        at = (self.end_node + n * np.arange(len(states))[:, None]).ravel()
        flows = (-self.end_area * states[:, self.end_flow]).ravel()
        return np.bincount(at, flows, n * len(states)).reshape(-1, n)

    # -- evaluation, residual and jacobian ---------------------------------

    def evaluate(self, y: np.ndarray, friction=None) -> Iterate:
        """The Iterate of the gas unknowns y (not copied): Colebrook's
        (lambda, dlambda/dq) at its grid points, solved unless `friction`
        gives lambda (a trajectory's friction[n] for its states[n]), and the
        gas.point_terms on them.  A pipe or node density that is not
        positive and finite raises ValueError (gas.check_densities, run
        once, on y[positive]): the Newton solves' one admissibility test."""
        n, grid = self.n_points, self.grid
        rho, q = y[:n], y[n:2 * n]
        gas.check_densities(y[self.positive])
        friction = gas.friction_factor_and_derivative(q, grid) if friction \
            is None else (friction, gas.friction_derivative(q, friction, grid))
        return Iterate(y, friction,
                       gas.point_terms(rho, q, grid, self.constants, friction))

    def level_data(self, u: float, snap: _Snapshot, grid: np.ndarray):
        """A level's data vector b: 0 but for the boundary values of `snap`
        (an outflow in kg/s), the lift u and the plant offtake rho_ref eps(P)
        at the level's grid vector `grid`, each at its row."""
        b = np.zeros(self.size)
        b[self._pb_rows] = snap.node_rho_bc[self._pb_nodes]
        b[self._fb_rows] = self._fb_area * snap.node_outflow[self._fb_nodes]
        b[self._comp_rows] = u
        for row, col, plant in self._plants:
            b[row] = plant.reference_density * power.plant_gas_offtake(
                grid[col], plant)
        return b

    def old_means(self, y_prev: np.ndarray) -> np.ndarray:
        """gas.pair_means of gas unknowns y_prev: residual()'s old level."""
        return gas.pair_means(*y_prev[:2 * self.n_points].reshape(2, -1))

    def residual(self, it: Iterate, old, b, dt: float) -> np.ndarray:
        """R(y_prev, it.y, u), rows scaled by row_scale, where `old` is
        old_means(y_prev) and b the level's level_data: the rows of it.y
        less b.  The linear rows (pressure coupling, node balances and
        pressure boundaries) are the Jacobian's constant entries times y,
        summed per row in entry order; then come the box rows
        (gas.box_residual on `old`) and each compressor's pressure lift."""
        y = it.y
        res = np.bincount(self._const_rows, self._const_vals
                          * y[self._const_cols], self.size)
        res[:self.grid.shape[0]] = gas.box_residual(old, it.terms, dt,
                                                    self.grid)
        p_to, p_from = gas._pressure(y[self._comp_ends], self.constants)
        res[self._comp_rows] = p_to - p_from
        res -= b
        res *= self.row_scale
        return res

    def jacobian(self, it: Iterate, dt: float) -> np.ndarray:
        """dR/dy_next at it, rows scaled like residual(): its values in the
        order of `entries`, which condensation.factors reads.  dR/dy_prev
        and dR/du are constant: the read-only attributes jac_prev (CSR,
        two entries per box row) and d_du."""
        dp_to, dp_from = gas.dpressure_drho(it.y[self._comp_ends],
                                            self.constants)
        values = np.concatenate([gas._box_blocks(it.terms, dt, self.grid),
                                 self._const_vals, dp_to, -dp_from])
        values *= self._entry_scale
        return values

    def factors(self, it: Iterate, dt: float, splu, steady: bool):
        """condensation.factors of the level block at it (`splu` factors
        its network block): dR/dy_next, or the steady block, which adds the
        values of dR/dy_prev in the same entry order."""
        values = self.jacobian(it, dt)
        if steady:
            values += self._prev_values
        return self.condensation.factors(values, splu)


def _damped_newton(assembler: CoupledStepAssembler, y_prev, b, dt: float,
                   it, tol: float, max_iter: int, halvings: int) -> Iterate:
    """Damped Newton solve of the gas system R(y_prev, y) = 0 with the
    level data b (assembler.level_data) from the evaluated start `it`, or of
    the steady R(y, y) = 0 when y_prev is None, which returns the first
    Iterate whose max-norm residual is below `tol`, with the Colebrook
    friction it was evaluated with, the iterations and factorizations taken,
    that residual and the last factors solved on (None after 0 iterations).

    Each candidate is evaluated once (assembler.evaluate, whose ValueError
    marks it inadmissible); the residual and assembler.factors read that
    Iterate, b and the old level's means (assembler.old_means), built
    once, or per iterate for the steady block, whose old level is the
    iterate.  Each step is halved (up to `halvings` times) until the
    candidate is admissible and lowers the max-norm residual.  A full step
    that cuts it CHORD_CONTRACTION-fold is followed by a chord step on its
    factors (Kelley, Iterative Methods for Linear and Nonlinear Equations,
    ch. 5), never halved: unless admissible and lower, it gives way to a
    damped step on new factors.  A singular block raises SingularJacobian.
    A non-finite residual at the start, which no step can mend, raises
    SimulationError, and a solve that runs out of iterations or of
    halvings MaxIterationsExceeded; both name the row (the non-finite one,
    or the one with the largest residual) and the unknown at its column.
    """
    steady = y_prev is None
    old = None if steady else assembler.old_means(y_prev)
    residual = lambda it: assembler.residual(
        it, assembler.old_means(it.y) if steady else old, b, dt)
    row_of = lambda row: f"row {row} (row of {assembler.index.name(row)})"

    def stuck(message):
        return MaxIterationsExceeded(
            f"{message}, largest residual in {row_of(np.abs(res).argmax())}",
            norm, iterations)

    def lowering(y):   # (Iterate, residual, norm) at y if admissible and lower
        try:
            cand = assembler.evaluate(y)
        except ValueError:   # inadmissible
            return None
        cand_res = residual(cand)
        cand_norm = np.abs(cand_res).max()
        if cand_norm < norm or cand_norm < tol:
            return cand, cand_res, cand_norm
        return None

    res = residual(it)
    norm = np.abs(res).max()
    if not np.isfinite(norm):
        row = np.flatnonzero(~np.isfinite(res))[0]
        raise SimulationError(f"non-finite residual in {row_of(row)}")
    iterations = halved = factorizations = 0
    factors, chord = None, False
    while norm >= tol:
        if iterations >= max_iter:
            raise stuck("Newton did not reach tolerance")
        k, new = 0, chord and lowering(it.y + factors.solve(-res))
        if not new:   # no chord step, or one discarded: factor at it
            factors = None    # the last factors go before the next are made
            try:
                factors = assembler.factors(it, dt, splu, steady)
                step = factors.solve(-res)
            except RuntimeError as exc:
                raise SingularJacobian(str(exc)) from None
            if not np.isfinite(step).all():
                raise SingularJacobian("non-finite Newton step")
            for k in range(halvings):
                new = lowering(it.y + 0.5 ** k * step)
                if new:
                    break
            else:
                raise stuck("Newton line search stalled")
            factorizations, halved = factorizations + 1, halved + k
        chord = k == 0 and CHORD_CONTRACTION * new[2] <= norm
        (it, res, norm), iterations = new, iterations + 1
    return it._replace(iterations=iterations, residual_norm=norm,
                       halvings=halved, factors=factors,
                       factorizations=factorizations)


def newton_solve_step(assembler: CoupledStepAssembler, y_prev: np.ndarray, b,
                      dt: float, tol: float, max_iter: int = 25,
                      y_guess: np.ndarray | None = None) -> Iterate:
    """Damped Newton solve of one implicit step's gas system with the
    level data b, warm-started at y_guess (Simulator.run passes its
    tangent-linear prediction), evaluated once, or at y_prev where
    assembler.evaluate refuses y_guess (a density not positive and
    finite) or none is given: the converged Iterate."""
    y = np.array(y_prev if y_guess is None else y_guess, dtype=float)
    try:
        it = assembler.evaluate(y)
    except ValueError:   # inadmissible: start at y_prev
        it = assembler.evaluate(np.array(y_prev, dtype=float))
    return _damped_newton(assembler, y_prev, b, dt, it, tol, max_iter,
                          halvings=30)


def steady_state(assembler: CoupledStepAssembler, b, dt: float, tol: float,
                 max_iter: int = 60) -> Iterate:
    """Time-derivative-free solution of the gas equations with the level
    data b of level 0.

    Solves the step equations with y_prev == y_next as one nonlinear
    system from assembler.flat_state, evaluated; the converged Iterate's y
    satisfies the step residual for every dt.
    """
    return _damped_newton(assembler, None, b, dt, assembler.evaluate(
        assembler.flat_state(b)), tol, max_iter, halvings=40)


class Simulator:
    """Reusable forward model for one network + scenario."""

    def __init__(self, network: CoupledNetwork, scenario: Scenario):
        self.network = network
        self.scenario = scenario
        self.tol = scenario.newton_tol
        self.assembler = CoupledStepAssembler(network)
        check_boundary_data(network, scenario.boundary.series)
        self.snapshots = self.assembler.boundary_snapshots(
            scenario.boundary, scenario.times)
        self._check_grid_regime()

    def _check_grid_regime(self):
        """Log each pipe whose dt/dx is 20x off the reference; lu's
        factorization refuses (dt/dx)(c - v) near 1/2 or a march past 5e4."""
        dt = self.scenario.dt
        for pipe in self.network.gas.pipes:
            ratio = (dt / pipe.dx) / _REFERENCE_DT_DX
            if ratio > 20.0 or ratio < 0.05:
                log.warning("pipe %s: dt/dx = %.3g s/m is far from the "
                            "regime the implicit box scheme is validated in",
                            pipe.id, dt / pipe.dx)

    def run(self, control=None) -> Trajectory:
        """The Trajectory under `control`, the compressor lift in Pa per
        time level, shape (step_count + 1,), None for none.  Each level
        solves its grid, builds its data vector b once (level_data), then
        solves its gas system from y[n-1] + d, the tangent-linear step of
        the level's increments on the factors F of the last level's Newton
        solve (the steady solve's at level 1, where y[-1] = y[0]):
        F d = row_scale (b[n] - b[n-1]) - jac_prev (y[n-1] - y[n-2]).  F is
        released before the level's Newton solve; after a solve of 0
        iterations, which leaves none, the next level starts at y[n-1].  It
        costs one solve, and the first Newton step from it often contracts
        enough for a chord step to end the level on one factorization.  The
        Trajectory holds each level's states (gas unknowns, then the grid
        vector), Colebrook lambda and counters, and the control; a failed
        level raises SimulationError."""
        m = self.scenario.step_count
        control = np.asarray(np.zeros(m + 1) if control is None else control,
                             dtype=float)
        if control.shape != (m + 1,):
            raise ValueError(f"control must have {m + 1} entries")
        if not np.all(np.isfinite(control)):
            raise ValueError("control contains non-finite entries")
        if not self.assembler.comps and np.any(control != 0.0):
            raise ValueError("network has no compressor, control must be zero")

        asm, dt = self.assembler, self.scenario.dt
        states = np.empty((m + 1, asm.index.size))
        friction = np.empty((m + 1, asm.n_points))
        iterations, grid_iterations, halvings, lus = np.zeros((4, m + 1), int)
        norms = np.empty(m + 1)
        debug = log.isEnabledFor(logging.DEBUG)
        # the flat grid, V = 1 and phi = P = Q = 0; the solve pins the rest
        grid = np.tile([1.0, 0.0, 0.0, 0.0], len(asm.busses))
        factors = None
        for j, snap in enumerate(self.snapshots):
            try:   # an unchanged pinned grid keeps its solved power flow
                if j == 0 or not np.array_equal(
                        snap.bus_fixed, self.snapshots[j - 1].bus_fixed):
                    grid, grid_iterations[j] = power.solve_powerflow(
                        asm.Y, asm.bus_ids, grid, asm.grid_pinned,
                        snap.bus_fixed.ravel(), self.tol)
                b = asm.level_data(control[j], snap, grid)
                if j == 0:
                    it = steady_state(asm, b, dt, self.tol)
                else:   # from the tangent-linear step of the increments
                    y_prev, guess = states[j - 1, :asm.size], None
                    if factors is not None:
                        dy = y_prev - states[max(j - 2, 0), :asm.size]
                        guess = y_prev - factors.solve(
                            asm.jac_prev @ dy - asm.row_scale * (b - b_prev))
                    factors = None    # released before the level's Newton
                    it = newton_solve_step(asm, y_prev, b, dt, self.tol,
                                           y_guess=guess)
            except SimulationError as exc:
                what = f"step {j}" if j else "steady state"
                raise SimulationError(
                    f"{what} (t = {self.scenario.times[j] / 3600.0:.2f} h) "
                    f"failed: {exc}") from exc
            states[j, :asm.size], states[j, asm.size:] = it.y, grid
            friction[j], iterations[j], halvings[j], norms[j], lus[j] = \
                it.friction[0], it.iterations, it.halvings, it.residual_norm, \
                it.factorizations
            factors, b_prev, it = it.factors, b, None   # no Iterate keeps F
            if debug:
                log.debug("level %d, t = %g s: %d Newton iterations, %d "
                          "halvings, %d grid iterations, residual %.3e, %d "
                          "factorizations", j, self.scenario.times[j],
                          iterations[j], halvings[j], grid_iterations[j],
                          norms[j], lus[j])
        states.flags.writeable = friction.flags.writeable = False
        return Trajectory(asm.index, self.scenario.times.copy(), states,
                          control.copy(), friction, iterations,
                          grid_iterations, halvings, norms, lus)


def simulate(network: CoupledNetwork, scenario: Scenario,
             control=None) -> Trajectory:
    """Steady initialisation followed by step-by-step implicit solves."""
    return Simulator(network, scenario).run(control)


def mass_balance_report(simulator: Simulator, trajectory: Trajectory):
    """Per-step network mass accounting in Newton-tolerance units.

    For each step, compares the change of stored gas mass with the net
    boundary inflow less outflow and plant offtake (level_data's balance
    rows).  The raw error in kg is normalised by the exact telescoping
    weight of the residual rows that enter the identity, so a converged
    step (max-norm residual < tol) implies a normalised error < tol.
    """
    asm, dt, states = (simulator.assembler, simulator.scenario.dt,
                       trajectory.states)
    balance = np.setdiff1d(asm.node_rows, asm._pb_rows)
    grid, n = asm.grid, asm.n_points
    volume = np.pi / 4.0 * grid.diameter[grid.left]**2 * grid.dx
    weight = volume.sum() + dt * MASS_FLOW_SCALE * len(balance)
    # a cell's mass is its volume times its ends' mean density: each grid
    # point holds half the volume of each cell it bounds
    stored = states[:, :n] @ np.bincount(grid.ends.ravel(),
                                         np.tile(0.5 * volume, 2), n)
    out = [asm.level_data(u, snap, y[asm.size:])[balance] for u, snap, y
           in zip(trajectory.control, simulator.snapshots, states)]
    net_in = asm.node_injections(states)[:, asm._pb_nodes].sum(axis=1) \
        - np.sum(out, axis=1)
    return np.abs(np.diff(stored) - dt * net_in[1:]) / weight
