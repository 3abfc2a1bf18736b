"""Coupled per-step system: assembly, Newton solve, and trajectories.

One time level stacks the unknowns in a fixed order: the densities at
the grid points of all pipes, pipe after pipe, then their flows in the
same order, one density-equivalent pressure unknown per gas node, one
flux unknown per compressor, and V, phi, P, Q for every bus.  The step
residual mirrors this layout block by block, so every row index is read
off the unknowns'.  The pipe block's rows are the box-scheme mass rows
of all pipes' cell intervals, then their momentum rows (the layout of
gas.PipeGrid, evaluated for all pipes at once), then two
pressure-coupling rows per pipe, one per end.  A gas node's balance or
boundary row sits at its density column, a compressor's pressure
equation at its flux column, and a bus's P-flow, Q-flow and two boundary
rows at its V, phi, P and Q columns.  The system is thus square by
construction; each time step and the steady start (the same system with
y_prev = y_next) are solved by one damped Newton routine.

The assembler fixes the CSR pattern of dR/dy_next at set-up, so each
Jacobian only computes values; dR/dy_prev and dR/du are constant and
shared by all calls.  The steady block dR/dy_next + dR/dy_prev keeps
that pattern, the entries that cancel stored as zeros.  The CSR arrays
of J are the CSC arrays of J^T, so SuperLU factors J^T, with panel size
LU_PANEL_SIZE, and Newton solves J dy = -R with the transposed factors.
COLAMD's column order depends only on the pattern, so the assembler's
StepOrder keeps the order of the first block it factors, in the steady
solve, and hands every later one to SuperLU with its columns already in
that order (one gather of the data) and no ordering of its own; the
factors are the same to the bit, and LUFactors hides the permutation
from the solves.  The linear rows (pressure coupling, node balances,
boundary and bus rows) form one constant sparse operator.  The
assembler keeps the Colebrook friction values of the last pipe-flow
block it saw, and Newton takes each Jacobian at the iterate whose
residual it has just evaluated, so friction is solved once per iterate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from . import gas, power
from .model import (FLOW_BOUNDARY, PINNED_QUANTITIES, POWER_COUPLING,
                    PRESSURE_BOUNDARY, CoupledNetwork, incident_pipe_area,
                    nodal_admittance, validate_network)

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
# pressure (Pa) of that guess where no node pins one
_STEADY_PRESSURE_SEED = 60e5

BUS_QUANTITIES = ("V", "phi", "P", "Q")

# SuperLU panel size for the step Jacobians and their transposes, which
# have about 4 entries per column: one column per panel factors them
# faster than SuperLU's default.  Shared with the adjoint module.
LU_PANEL_SIZE = 1


class LUFactors:
    """Solves with a square CSR matrix J from SuperLU's factors of J^T,
    whose columns were taken in `order` (None: as they stand)."""

    def __init__(self, lu, order=None):
        self.lu, self.order = lu, order

    def solve(self, b: np.ndarray) -> np.ndarray:
        """J^-1 b, for one right-hand side or a column of them."""
        if self.order is None:
            return self.lu.solve(b, trans="T")
        return self.lu.solve(b[self.order], trans="T")

    def solve_transposed(self, c: np.ndarray) -> np.ndarray:
        """J^-T c, for one right-hand side or a column of them."""
        x = self.lu.solve(c)
        if self.order is None:
            return x
        out = np.empty_like(x)
        out[self.order] = x
        return out


class StepOrder:
    """COLAMD's column order of J^T for the fixed step pattern, which the
    step Jacobians and the steady block share.

    The first factorization runs COLAMD and the order is read from it;
    later ones factor J^T with its columns gathered into that order and
    permc_spec="NATURAL", for which SuperLU skips its own ordering and
    postorder, so L, U and perm_r stay the same to the bit.  The arrays
    live as long as the assembler and are allocated here, to be filled
    once the order is known.
    """

    def __init__(self, indices: np.ndarray, indptr: np.ndarray):
        n, nnz = len(indptr) - 1, len(indices)
        self._pattern = (indices, indptr)
        self.order = np.empty(n, dtype=np.intp)
        # the CSC arrays of J^T[:, order]: data[k] = J.data[_take[k]]
        self._take = np.empty(nnz, dtype=np.intp)
        self._data = np.empty(nnz)
        self._indices = np.empty_like(indices)
        self._indptr = np.empty_like(indptr)
        self._matrix = None

    def factors(self, jac, splu) -> LUFactors:
        """Factors of `jac` (CSR, set-up pattern) by the caller's `splu`."""
        if self._matrix is None:
            lu = splu(jac.T, panel_size=LU_PANEL_SIZE)
            self._learn(lu.perm_c)
            return LUFactors(lu)
        np.take(jac.data, self._take, out=self._matrix.data)
        return LUFactors(splu(self._matrix, permc_spec="NATURAL",
                              panel_size=LU_PANEL_SIZE), self.order)

    def _learn(self, perm_c: np.ndarray):
        # column perm_c[j] of SuperLU's ordered matrix is column j of J^T
        indices, indptr = self._pattern
        self.order[perm_c] = np.arange(len(perm_c))
        lengths = np.diff(indptr)[self.order]
        self._indptr[0] = 0
        np.cumsum(lengths, out=self._indptr[1:])
        self._take[:] = np.repeat(indptr[self.order] - self._indptr[:-1],
                                  lengths) + np.arange(len(indices))
        np.take(indices, self._take, out=self._indices)
        n = len(self.order)
        self._matrix = sparse.csc_matrix(
            (self._data, self._indices, self._indptr), shape=(n, n),
            copy=False)


class SimulationError(Exception):
    pass


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
    and bus quantities."""

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
        for bus in network.grid.busses:
            for quant in BUS_QUANTITIES:
                self.bus[(bus.id, quant)] = size
                size += 1
        self.size = size


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Scenario:
    """Run description: horizon, step, boundary data, bounds, solver knobs."""

    horizon: float                  # s
    dt: float                       # s
    boundary: BoundaryData
    pressure_bounds: dict[str, float] = field(default_factory=dict)  # node -> Pa
    control_max: float = 30.0e5     # Pa
    optimizer: dict = field(default_factory=dict)

    @property
    def step_count(self) -> int:
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be an integer number of steps")
        return int(round(steps))

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.step_count + 1)


@dataclass(frozen=True)
class _Snapshot:
    """Boundary values evaluated at one time; aligned with assembler order."""

    node_rho_bc: np.ndarray      # per gas node, NaN where unused
    node_outflow: np.ndarray     # flux, per gas node, 0 where unused
    bus_fixed: np.ndarray        # (n_bus, 2) values of the two pinned quantities


@dataclass(frozen=True)
class Trajectory:
    """States at t_j = j dt together with the applied control sequence."""

    index: VariableIndex
    times: np.ndarray            # s
    states: np.ndarray           # (M+1, N_y)
    control: np.ndarray          # Pa, (M+1,)

    @property
    def step_count(self) -> int:
        return len(self.times) - 1

    def node_pressure(self, node_id: str, constants) -> np.ndarray:
        rho = self.states[:, self.index.node_rho[node_id]]
        return np.asarray(gas.pressure_of_density(rho, constants))


class CoupledStepAssembler:
    """Assembles the residual and Jacobian blocks of one implicit step.

    Rows mirror the columns of VariableIndex block by block.  With
    n_box = grid.shape[0], the pipe block's rows are the n_box / 2 mass
    rows, the n_box / 2 momentum rows, and the coupling rows of pipe k at
    n_box + 2k (from end) and n_box + 2k + 1 (to end).  Node, compressor
    and bus rows sit at their node's density column, their compressor's
    flux column and their bus's V, phi, P and Q columns.
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

        # incident pipe/compressor ends per node: (q column, signed area into node)
        self.node_terms: list[list[tuple[int, float]]] = [[] for _ in self.nodes]
        for pipe in self.pipes:
            q_sl = self.index.pipe_q[pipe.id]
            self.node_terms[self.node_pos[pipe.from_node]].append(
                (q_sl.start, -pipe.area))
            self.node_terms[self.node_pos[pipe.to_node]].append(
                (q_sl.stop - 1, pipe.area))
        self.comp_area = {}
        for comp in self.comps:
            area = incident_pipe_area(network.gas, comp.from_node,
                                      comp.to_node)
            if area is None:
                raise ValueError(f"compressor {comp.id} has no adjacent pipe "
                                 "to take a reference cross-section from")
            self.comp_area[comp.id] = area
            qc = self.index.comp_q[comp.id]
            self.node_terms[self.node_pos[comp.from_node]].append((qc, -area))
            self.node_terms[self.node_pos[comp.to_node]].append((qc, area))

        self.node_plant = {p.gas_node: p for p in network.plants}

        self.G, self.B, self.bus_order = nodal_admittance(network.grid)
        self.n_bus = len(self.bus_order)
        self.busses = list(network.grid.busses)

        pipes = self.pipes
        self.grid = gas.PipeGrid.stack(
            [p.cell_count for p in pipes], [p.dx for p in pipes],
            [p.diameter for p in pipes], [p.roughness for p in pipes])
        self.n_points = len(self.grid.diameter)
        self.box_next, self._box_old = self.grid.stencil()
        # pipe flows of the last Colebrook solve and its (lambda, dlambda/dq)
        self._friction_q, self._friction = None, None
        idx = self.index
        # entries that must stay positive: densities and bus voltages
        self.positive = np.concatenate([
            np.arange(self.n_points),
            [idx.node_rho[n.id] for n in self.nodes],
            [idx.bus[(b.id, "V")] for b in self.busses]]).astype(int)

        self._build_pattern()
        self.step_order = StepOrder(self._indices, self._indptr)

    def _build_pattern(self):
        """Row indices and scales, and the fixed CSR pattern.

        Every row index is read off the unknowns' layout (see the class
        docstring).  The entries of dR/dy_next are listed once, in the
        order jacobian() concatenates their values: box stencil, constant
        entries (also the residual's linear rows), plant offtake,
        compressors, power flow.
        """
        idx = self.index
        n_box = self.grid.shape[0]
        ints = lambda values: np.array(list(values), dtype=int)
        kind = np.array([n.kind for n in self.nodes])
        node_rows = ints(idx.node_rho[n.id] for n in self.nodes)
        self._pb_nodes = np.flatnonzero(kind == PRESSURE_BOUNDARY)
        self._fb_nodes = np.flatnonzero(kind == FLOW_BOUNDARY)
        self._pb_rows = node_rows[self._pb_nodes]
        self._fb_rows = node_rows[self._fb_nodes]
        # the recorded outflow flux leaves through the incident pipe area
        self._fb_area = np.array([abs(self.node_terms[i][0][1])
                                  for i in self._fb_nodes])
        plants = [self.node_plant[n.id] for n in self.nodes
                  if n.kind == POWER_COUPLING]
        self._plant_rows = ints(idx.node_rho[p.gas_node] for p in plants)
        self._plant_cols = ints(idx.bus[(p.bus, "P")] for p in plants)
        self._plants = SimpleNamespace(**{
            key: np.array([getattr(p, key) for p in plants])
            for key in ("a0", "a1", "a2", "reference_density")})
        self._comp_rows = ints(idx.comp_q[c.id] for c in self.comps)
        self._comp_to = ints(idx.node_rho[c.to_node] for c in self.comps)
        self._comp_from = ints(idx.node_rho[c.from_node] for c in self.comps)
        self._bus_cols = ints(idx.bus[(b.id, q)] for q in BUS_QUANTITIES
                              for b in self.busses).reshape(4, -1)
        self._pf_rows = self._bus_cols[:2].ravel()
        self._bc_rows = self._bus_cols[2:].T.ravel()
        # each pipe end's density equals its node's
        self.coupling_rows = n_box + np.arange(2 * len(self.pipes))
        self.coupling_cols = ints(
            end for p in self.pipes
            for end in (idx.pipe_rho[p.id].start, idx.pipe_rho[p.id].stop - 1))
        self.coupling_node_cols = ints(idx.node_rho[node] for p in self.pipes
                                       for node in (p.from_node, p.to_node))

        scale = np.ones(idx.size)
        kappa = self.constants.kappa
        scale[n_box // 2:n_box] = 1.0 / kappa
        scale[node_rows[kind != PRESSURE_BOUNDARY]] = 1.0 / MASS_FLOW_SCALE
        scale[self._comp_rows] = 1.0 / kappa
        self.row_scale = scale
        # dR/du is constant: the lift enters each compressor row as -u
        self.d_du = np.zeros(idx.size)
        self.d_du[self._comp_rows] = -scale[self._comp_rows]
        self.d_du.flags.writeable = False

        # constant entries: (rows, cols, value or values)
        balance = np.reshape([(node_rows[i], col, area)
                              for i, n in enumerate(self.nodes)
                              if n.kind != PRESSURE_BOUNDARY
                              for col, area in self.node_terms[i]], (-1, 3))
        const = [(self.coupling_rows, self.coupling_cols, 1.0),
                 (self.coupling_rows, self.coupling_node_cols, -1.0),
                 (self._pb_rows, self._pb_rows, 1.0),
                 (balance[:, 0], balance[:, 1], balance[:, 2]),
                 (self._pf_rows, self._bus_cols[2:].ravel(), 1.0),
                 (self._bc_rows, ints(idx.bus[(b.id, quant)]
                                      for b in self.busses for quant in
                                      PINNED_QUANTITIES[b.kind]), 1.0)]
        const_rows, const_cols = (ints(np.concatenate(part)) for part in
                                  zip(*[(r, c) for r, c, _ in const]))
        self._const_vals = np.concatenate(
            [np.broadcast_to(v, len(r)) for r, _, v in const])
        shape = (idx.size, idx.size)
        self._linear = sparse.csr_matrix(
            (self._const_vals, (const_rows, const_cols)), shape=shape)

        # P rows by V and phi, then Q rows: power.injection_jacobians' order
        dense = [np.meshgrid(r, c, indexing="ij")
                 for r in self._pf_rows.reshape(2, -1)
                 for c in self._bus_cols[:2]]
        variable = [(self._plant_rows, self._plant_cols),
                    (self._comp_rows, self._comp_to),
                    (self._comp_rows, self._comp_from)] + \
            [(rr.ravel(), cc.ravel()) for rr, cc in dense]
        rows, cols = (np.concatenate(part) for part in zip(
            self.box_next, (const_rows, const_cols), *variable))
        slots = sparse.csr_matrix(
            (np.arange(1.0, len(rows) + 1.0), (rows, cols)), shape=shape)
        if slots.nnz != len(rows):
            raise AssertionError("two step Jacobian entries share a slot")
        # data[s] takes entry _slot_entry[s] of the value list
        self._slot_entry = slots.data.astype(int) - 1
        self._entry_scale = self.row_scale[rows]
        self._indices, self._indptr = slots.indices, slots.indptr
        self._indices.flags.writeable = self._indptr.flags.writeable = False
        # dR/dy_prev is constant: -1/2 on the old level of the box stencil
        rows, cols = (part[self._box_old] for part in self.box_next)
        vals = -0.5 * self.row_scale[rows]
        self.jac_prev = sparse.csr_matrix((vals, (rows, cols)), shape=shape)
        self.jac_prev.data.flags.writeable = False
        # the same values at their slots, added to make the steady block
        shift = np.zeros(len(self._slot_entry))
        shift[self._box_old] = vals
        self._steady_shift = shift[self._slot_entry]

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
        bus_fixed = np.zeros((len(times), self.n_bus, 2))
        for i, bus in enumerate(self.busses):
            for k, quant in enumerate(PINNED_QUANTITIES[bus.kind]):
                bus_fixed[:, i, k] = series(bus.id, quant)
        return [_Snapshot(*level)
                for level in zip(node_rho, node_out, bus_fixed)]

    # -- state helpers -----------------------------------------------------

    def admissible(self, y: np.ndarray) -> bool:
        return not np.any(y[self.positive] <= 0)

    def flat_state(self, snap: _Snapshot) -> np.ndarray:
        """Near-stagnant admissible starting guess for the steady solve.

        Pipe and compressor fluxes are seeded with a small positive value:
        at exact stagnation the friction term q|q| has zero derivative and
        the flow split around network loops is linearly indeterminate.
        The power block is pre-solved on its own, which also provides the
        plant offtake operating point.
        """
        idx = self.index
        y = np.zeros(idx.size)
        anchored = snap.node_rho_bc[~np.isnan(snap.node_rho_bc)]
        rho0 = anchored[0] if len(anchored) else \
            gas.density_of_pressure(_STEADY_PRESSURE_SEED, self.constants)
        y[:self.n_points] = rho0
        y[self.n_points:2 * self.n_points] = _STEADY_FLOW_SEED
        for node in self.nodes:
            y[idx.node_rho[node.id]] = rho0
        for comp in self.comps:
            y[idx.comp_q[comp.id]] = _STEADY_FLOW_SEED
        if self.busses:
            fixed = {(bus.id, quant): snap.bus_fixed[i, k]
                     for i, bus in enumerate(self.busses)
                     for k, quant in enumerate(PINNED_QUANTITIES[bus.kind])}
            state = power.solve_powerflow(self.network.grid, fixed)
            y[self._bus_cols] = [getattr(state, q) for q in BUS_QUANTITIES]
        return y

    def node_injection(self, y: np.ndarray, node_id: str) -> float:
        """Net mass flow (kg/s) entering the network through a node."""
        i = self.node_pos[node_id]
        return float(sum(-signed_area * y[col]
                         for col, signed_area in self.node_terms[i]))

    # -- residual ------------------------------------------------------------

    def residual(self, y_prev: np.ndarray, y_next: np.ndarray, u: float,
                 snap: _Snapshot, dt: float) -> np.ndarray:
        """R(y_prev, y_next, u), rows scaled by row_scale: the constant
        linear operator applied to y_next, less the boundary values of
        `snap` and the plant offtake; the box rows (gas.box_residual, no
        stencil derivatives), compressor and power-flow rows replace it."""
        res = self._linear @ y_next
        res[:self.grid.shape[0]] = gas.box_residual(
            self._pipe_state(y_prev), self._pipe_state(y_next), dt,
            self.grid, self.constants, self._pipe_friction(y_next))
        res[self._pb_rows] -= snap.node_rho_bc[self._pb_nodes]
        res[self._fb_rows] -= self._fb_area * snap.node_outflow[self._fb_nodes]
        res[self._plant_rows] -= self._plants.reference_density * \
            power.plant_gas_offtake(y_next[self._plant_cols], self._plants)
        p_to, p_from = (gas.pressure_of_density(y_next[cols], self.constants)
                        for cols in (self._comp_to, self._comp_from))
        res[self._comp_rows] = p_to - p_from - u
        if self.n_bus:
            res[self._pf_rows] = power.powerflow_residual(
                self._power_state(y_next), self.G, self.B)
            res[self._bc_rows] -= snap.bus_fixed.ravel()
        return res * self.row_scale

    def _pipe_state(self, y: np.ndarray) -> gas.PipeState:
        return gas.PipeState(y[:self.n_points],
                             y[self.n_points:2 * self.n_points])

    def _pipe_friction(self, y: np.ndarray):
        """(lambda, dlambda/dq) at the pipe flows of y, reused while the
        flow block equals that of the last call."""
        q = y[self.n_points:2 * self.n_points]
        if not np.array_equal(q, self._friction_q):
            self._friction_q = q.copy()
            self._friction = gas.friction_factor_and_derivative(
                q, self.grid.diameter, self.grid.roughness, self.constants.eta)
        return self._friction

    def _power_state(self, y: np.ndarray) -> power.PowerState:
        return power.PowerState(tuple(self.bus_order), *y[self._bus_cols])

    # -- jacobian ------------------------------------------------------------

    def jacobian(self, y_prev: np.ndarray, y_next: np.ndarray, u: float,
                 snap: _Snapshot, dt: float):
        """(dR/dy_next, dR/dy_prev, dR/du) with rows scaled like residual().

        dR/dy_next has the CSR pattern fixed at set-up; only its values
        are computed here.  Its transpose is CSC with the same arrays, the
        form in which splu factors it.  dR/dy_prev and dR/du are constant,
        read-only and the same objects on every call.
        """
        cons = self.constants
        box_vals = gas._box_blocks(
            self._pipe_state(y_prev), self._pipe_state(y_next), dt,
            self.grid, cons, self._pipe_friction(y_next))
        deps = power.plant_gas_offtake_derivative(y_next[self._plant_cols],
                                                  self._plants)
        parts = [box_vals, self._const_vals,
                 -self._plants.reference_density * deps,
                 gas.dpressure_drho(y_next[self._comp_to], cons),
                 -gas.dpressure_drho(y_next[self._comp_from], cons)]
        if self.n_bus:
            v, phi = y_next[self._bus_cols[:2]]
            parts += [-block.ravel() for block in power.injection_jacobians(
                v, phi, self.G, self.B)]
        data = (np.concatenate(parts) * self._entry_scale)[self._slot_entry]
        jac_next = sparse.csr_matrix((data, self._indices, self._indptr),
                                     shape=(self.index.size,) * 2)
        return jac_next, self.jac_prev, self.d_du

    def steady_jacobian(self, y: np.ndarray, u: float, snap: _Snapshot,
                        dt: float):
        """dR/dy of the steady block R(y, y, u), the sum of jacobian()'s
        dR/dy_next and dR/dy_prev, in the set-up pattern of dR/dy_next."""
        jac = self.jacobian(y, y, u, snap, dt)[0]
        jac.data += self._steady_shift
        return jac


def _damped_newton(residual, jacobian, order: StepOrder, admissible,
                   y: np.ndarray, tol: float, max_iter: int, halvings: int
                   ) -> np.ndarray:
    """Damped Newton solve of residual(y) = 0 from an admissible y, which
    stops at the first iterate whose max-norm residual is below `tol`.

    Each step is halved (up to `halvings` times) until the candidate is
    admissible and lowers the max-norm residual.  Each Jacobian is taken
    at the iterate whose residual was evaluated last (the start or the
    accepted candidate), where the assembler still holds its friction
    values.  `jacobian` returns a CSR matrix J in the step pattern, and
    the assembler's StepOrder `order` factors it.
    """
    res = residual(y)
    norm = np.max(np.abs(res))
    iterations = 0
    while norm >= tol:
        if iterations >= max_iter:
            raise MaxIterationsExceeded("Newton did not reach tolerance",
                                        norm, iterations)
        jac = jacobian(y)
        try:
            lu = order.factors(jac, splu)
        except RuntimeError as exc:
            raise SingularJacobian(str(exc)) from None
        step = lu.solve(-res)
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step")
        factor = 1.0
        for _ in range(halvings):
            cand = y + factor * step
            if admissible(cand):
                cand_res = residual(cand)
                cand_norm = np.max(np.abs(cand_res))
                if cand_norm < norm or cand_norm < tol:
                    y, res, norm = cand, cand_res, cand_norm
                    break
            factor *= 0.5
        else:
            raise MaxIterationsExceeded("Newton line search stalled",
                                        norm, iterations)
        iterations += 1
    return y


def newton_solve_step(assembler: CoupledStepAssembler, y_prev: np.ndarray,
                      u: float, snap: _Snapshot, dt: float,
                      tol: float = 1e-9, max_iter: int = 25,
                      y_guess: np.ndarray | None = None
                      ) -> np.ndarray:
    """Damped Newton solve of one implicit step, warm-started at y_guess
    when it is admissible and at y_prev otherwise."""
    y = np.array(y_prev if y_guess is None else y_guess, dtype=float)
    if not assembler.admissible(y):
        y = np.array(y_prev, dtype=float)
    return _damped_newton(
        lambda y: assembler.residual(y_prev, y, u, snap, dt),
        lambda y: assembler.jacobian(y_prev, y, u, snap, dt)[0],
        assembler.step_order, assembler.admissible, y, tol, max_iter,
        halvings=30)


def steady_state(assembler: CoupledStepAssembler, snap: _Snapshot,
                 u0: float, dt: float, tol: float = 1e-9,
                 max_iter: int = 60) -> np.ndarray:
    """Time-derivative-free solution of the coupled equations.

    Solves the step equations with y_prev == y_next as one nonlinear
    system; the result satisfies the step residual for every dt.
    """
    return _damped_newton(
        lambda y: assembler.residual(y, y, u0, snap, dt),
        lambda y: assembler.steady_jacobian(y, u0, snap, dt),
        assembler.step_order, assembler.admissible,
        assembler.flat_state(snap), tol, max_iter, halvings=40)


class Simulator:
    """Reusable forward model for one network + scenario."""

    def __init__(self, network: CoupledNetwork, scenario: Scenario,
                 tol: float = 1e-9, max_iter: int = 25):
        self.network = network
        self.scenario = scenario
        self.tol = tol
        self.max_iter = max_iter
        self.assembler = CoupledStepAssembler(network)
        self.snapshots = self.assembler.boundary_snapshots(
            scenario.boundary, scenario.times)
        self._check_grid_regime()

    def _check_grid_regime(self):
        dt = self.scenario.dt
        for pipe in self.network.gas.pipes:
            ratio = (dt / pipe.dx) / _REFERENCE_DT_DX
            if ratio > 20.0 or ratio < 0.05:
                log.warning("pipe %s: dt/dx = %.3g s/m is far from the "
                            "regime the implicit box scheme is validated in",
                            pipe.id, dt / pipe.dx)

    def run(self, control=None) -> Trajectory:
        m = self.scenario.step_count
        if control is None:
            control = np.zeros(m + 1)
        control = np.asarray(control, dtype=float)
        if control.shape != (m + 1,):
            raise ValueError(f"control must have {m + 1} entries")
        if not np.all(np.isfinite(control)):
            raise ValueError("control contains non-finite entries")
        if not self.assembler.comps and np.any(control != 0.0):
            raise ValueError("network has no compressor, control must be zero")

        dt = self.scenario.dt
        states = np.empty((m + 1, self.assembler.index.size))
        states[0] = steady_state(self.assembler, self.snapshots[0],
                                 control[0], dt, self.tol)
        for j in range(1, m + 1):
            # linear extrapolation in time cuts one Newton iteration
            guess = 2.0 * states[j - 1] - states[j - 2] if j >= 2 else None
            try:
                states[j] = newton_solve_step(
                    self.assembler, states[j - 1], control[j],
                    self.snapshots[j], dt, self.tol, self.max_iter,
                    y_guess=guess)
            except SimulationError as exc:
                raise SimulationError(
                    f"step {j} (t = {self.scenario.times[j] / 3600.0:.2f} h) "
                    f"failed: {exc}") from exc
        return Trajectory(self.assembler.index, self.scenario.times.copy(),
                          states, control.copy())


def simulate(network: CoupledNetwork, scenario: Scenario,
             control=None) -> Trajectory:
    """Steady initialisation followed by step-by-step implicit solves."""
    return Simulator(network, scenario).run(control)


def mass_balance_report(simulator: Simulator, trajectory: Trajectory):
    """Per-step network mass accounting in Newton-tolerance units.

    For each step, compares the change of stored gas mass with the net
    boundary inflow minus outflow minus plant offtake over the step.  The
    raw error in kg is normalised by the exact telescoping weight of the
    residual rows that enter the identity, so a converged step (max-norm
    residual < tol) implies a normalised error < tol.
    """
    asm = simulator.assembler
    net = simulator.network
    dt = simulator.scenario.dt

    weight = 0.0
    for pipe in asm.pipes:
        weight += pipe.dx * pipe.area * pipe.cell_count
    n_balance = sum(1 for n in asm.nodes if n.kind != PRESSURE_BOUNDARY)
    weight += dt * MASS_FLOW_SCALE * n_balance

    def stored(y):
        total = 0.0
        for pipe in asm.pipes:
            rho = y[asm.index.pipe_rho[pipe.id]]
            total += pipe.area * pipe.dx * np.sum(0.5 * (rho[:-1] + rho[1:]))
        return total

    errors = []
    for j in range(1, trajectory.step_count + 1):
        y = trajectory.states[j]
        snap = simulator.snapshots[j]
        net_in = 0.0
        for i, node in enumerate(asm.nodes):
            if node.kind == PRESSURE_BOUNDARY:
                net_in += asm.node_injection(y, node.id)
            elif node.kind == FLOW_BOUNDARY:
                area = abs(asm.node_terms[i][0][1])
                net_in -= area * snap.node_outflow[i]
            if node.kind == POWER_COUPLING:
                plant = asm.node_plant[node.id]
                p_bus = y[asm.index.bus[(plant.bus, "P")]]
                net_in -= plant.reference_density * \
                    power.plant_gas_offtake(p_bus, plant)
        raw = stored(y) - stored(trajectory.states[j - 1]) - dt * net_in
        errors.append(abs(raw) / weight)
    return np.array(errors)
