import numpy as np
import pytest

from gaspower import gas, power
from gaspower import io as gio
from gaspower.model import (PINNED_QUANTITIES, CompressorArc, CoupledNetwork,
                            GasConstants, GasNetwork, GasNode, Pipe,
                            PowerGrid)
from gaspower.sim import BoundaryData, Scenario, Simulator


@pytest.fixture(scope="session")
def bundled():
    network, scenario = gio.load_bundled()
    return network, scenario


@pytest.fixture(scope="session")
def bundled_simulator(bundled):
    network, scenario = bundled
    return Simulator(network, scenario)


@pytest.fixture(scope="session")
def uncontrolled_trajectory(bundled_simulator):
    return bundled_simulator.run()


def box_scheme_residual(prev, next_, dt, dx, pipe, constants=GasConstants()):
    """Box-scheme residual of one pipe, [mass rows, momentum rows], between
    two levels given as (rho, q) arrays, through the network-wide
    gas.box_residual on a one-pipe PipeGrid."""
    rho, q = next_
    grid = gas.PipeGrid.stack([len(rho) - 1], [dx], [pipe.diameter],
                              [pipe.roughness], constants.eta)
    return gas.box_residual(gas.pair_means(*prev), gas.point_terms(
        rho, q, grid, constants, gas.friction_factor_and_derivative(q, grid)),
        dt, grid)


def make_toy_network(cells=2, length=2000.0):
    """Pressure node -> compressor -> junction -> one pipe -> flow node.

    No power grid; small enough for dense linear-algebra oracles.
    """
    gas_net = GasNetwork(
        nodes=(GasNode("A", "pressure-boundary"),
               GasNode("B", "junction"),
               GasNode("C", "flow-boundary")),
        pipes=(Pipe("PB", "B", "C", length=length, cell_count=cells),),
        compressors=(CompressorArc("CMP", "A", "B"),),
    )
    return CoupledNetwork(gas=gas_net, grid=PowerGrid((), ()),
                          constants=GasConstants())


def make_toy_scenario(steps=2, dt=900.0, outflow_flux=150.0,
                      pressure_bounds=None):
    """60 bar at A and a constant outflow at C; bounds map node -> Pa."""
    boundary = BoundaryData.from_breakpoints({
        ("A", "pressure"): [(0.0, 60e5)],
        ("C", "outflow"): [(0.0, outflow_flux)],
    })
    return Scenario(horizon=steps * dt, dt=dt, boundary=boundary,
                    pressure_bounds=dict(pressure_bounds or {}))


@pytest.fixture()
def toy_simulator():
    return Simulator(make_toy_network(), make_toy_scenario())


def make_mixed_network():
    """Compressor feeding three pipes in series that differ in diameter,
    roughness and cell count; the middle pipe has a single cell."""
    gas_net = GasNetwork(
        nodes=(GasNode("A", "pressure-boundary"), GasNode("B", "junction"),
               GasNode("J1", "junction"), GasNode("J2", "junction"),
               GasNode("C", "flow-boundary")),
        pipes=(Pipe("P1", "B", "J1", length=3000.0, diameter=0.6,
                    roughness=5e-4, cell_count=3),
               Pipe("P2", "J1", "J2", length=1500.0, diameter=0.4,
                    roughness=1e-4, cell_count=1),
               Pipe("P3", "J2", "C", length=2000.0, diameter=0.9,
                    roughness=2e-3, cell_count=2)),
        compressors=(CompressorArc("CMP", "A", "B"),),
    )
    return CoupledNetwork(gas=gas_net, grid=PowerGrid((), ()))


def zero_flow_column(asm, values, pipe):
    """The step Jacobian `values` (in the assembler's entry order, which
    the box stencil leads) with its box entries in the column of `pipe`'s
    last flow set to zero: a singular pipe block.  (Its first flow, q_0,
    is a network unknown of the condensation.)"""
    cols = asm.grid.stencil()[0][1]
    values[:len(cols)][cols == asm.index.pipe_q[pipe].stop - 1] = 0.0
    return values


def dense_block(asm, values):
    """A level block's `values`, in the order of the assembler's entry list
    (asm.entries, as jacobian() returns them), as a dense array: each
    value added at its (row, col)."""
    jac = np.zeros((asm.size, asm.size))
    np.add.at(jac, asm.entries, values)
    return jac


def step_jacobian(asm, it, dt):
    """dR/dy_next of the step block at the Iterate it, dense."""
    return dense_block(asm, asm.jacobian(it, dt))


def steady_jacobian(asm, it, dt):
    """dR/dy of the steady block R(y, y, u) at the Iterate it, dense: the
    assembler's step Jacobian plus the values of dR/dy_prev in the same
    entry order (the block assembler.factors(steady=True) factors)."""
    return dense_block(asm, asm.jacobian(it, dt) + asm._prev_values)


def coupled_residual(asm, y_prev, y, u, snap, dt):
    """Every row of the coupled system between two full states, rows at
    the columns of the unknowns: the gas rows (assembler.residual, its
    plant rows at y's own grid), then each bus's P- and Q-flow rows at its
    V and phi columns and the rows of its two pinned values at its P and
    Q columns, written out here from the bus kinds."""
    g, index = asm.size, asm.index
    res = np.empty(len(y))
    res[:g] = asm.residual(asm.evaluate(y[:g]), asm.old_means(y_prev[:g]),
                           asm.level_data(u, snap, y[g:]), dt)
    at = lambda q: [index.bus[(b.id, q)] for b in asm.busses]
    flows = power.powerflow_residual(
        y[at("P")], y[at("Q")],
        power.injection_terms(y[at("V")], y[at("phi")], asm.Y))
    res[at("V") + at("phi")] = flows
    for bus, fixed in zip(asm.busses, snap.bus_fixed):
        for row, quantity, value in zip(("P", "Q"),
                                        PINNED_QUANTITIES[bus.kind], fixed):
            res[index.bus[(bus.id, row)]] = \
                y[index.bus[(bus.id, quantity)]] - value
    return res


def coupled_jacobian(asm, y, dt, steady=False):
    """The dense level block of the coupled system at the full state y
    (the steady block with `steady`), rows as in coupled_residual: the gas
    block, the plant rows' J_gb (-rho_ref eps'(P) by the bus's P, scaled
    like the gas residual) and the grid block J_bb (power.powerflow_jacobian
    and the unit rows of the pinned values), written out here."""
    g, index = asm.size, asm.index
    it = asm.evaluate(y[:g])
    jac = np.zeros((len(y), len(y)))
    jac[:g, :g] = (steady_jacobian if steady else step_jacobian)(asm, it, dt)
    for plant in asm.network.plants:
        row, col = index.node_rho[plant.gas_node], index.bus[(plant.bus, "P")]
        jac[row, col] -= plant.reference_density * asm.row_scale[row] * (
            plant.a1 + 2.0 * plant.a2 * y[col])
    at = lambda q: [index.bus[(b.id, q)] for b in asm.busses]
    jac[at("V") + at("phi"), g:] = power.powerflow_jacobian(
        y[at("V")], power.injection_terms(y[at("V")], y[at("phi")], asm.Y))
    for bus in asm.busses:
        for row, quantity in zip(("P", "Q"), PINNED_QUANTITIES[bus.kind]):
            jac[index.bus[(bus.id, row)], index.bus[(bus.id, quantity)]] = 1.0
    return jac
