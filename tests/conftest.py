import pytest

from gaspower import gas
from gaspower import io as gio
from gaspower.model import (CompressorArc, CoupledNetwork, GasConstants,
                            GasNetwork, GasNode, Pipe, PowerGrid)
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
    """Box-scheme residual of one pipe, [mass rows, momentum rows], through
    the network-wide gas.box_residual on a one-pipe PipeGrid."""
    grid = gas.PipeGrid.stack([len(next_.rho) - 1], [dx], [pipe.diameter],
                              [pipe.roughness])
    friction = gas.friction_factor_and_derivative(
        next_.q, pipe.diameter, pipe.roughness, constants.eta)
    return gas.box_residual(prev, next_, dt, grid, constants, friction)


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
