"""Coupled gas-pipeline / power-grid simulation and optimal compressor control.

The package integrates transient isothermal gas dynamics (implicit box
scheme) and AC powerflow, linked through gas-fired plants whose gas
offtake follows the power they supply: per time step the power flow is
solved first and the gas system next.  It minimizes compressor energy cost
under pressure bounds by one SLSQP solve whose derivatives come from
forward (tangent-linear) sensitivities; an adjoint sweep gives the
gradient of any one trajectory functional.

A sim.Scenario holds every setting of a run: the horizon, step, boundary
data and pressure bounds, the Newton tolerance of every solve, and the
lift bound and SLSQP settings of optimize.  A sim.Simulator solves the
scenario it was built with, and every other entry point takes one.

Main entry points:

    io.load_bundled()        -- the shipped example network and scenario
    sim.simulate()           -- steady start plus step-by-step Newton solves
    opt.optimize()           -- SLSQP optimization of the compressor lift
    adjoint.adjoint_sweep()  -- gradients of trajectory functionals
    adjoint.state_sensitivities() -- state derivatives to every control
"""

from . import adjoint, cli, compressor, gas, io, model, opt, power, sim
from .model import (Bus, CompressorArc, CompressorCostModel, CoupledNetwork,
                    GasConstants, GasNetwork, GasNode, GasPowerPlant,
                    PerUnitSystem, Pipe, PowerGrid, TransmissionLine,
                    nodal_admittance, validate_network)
from .opt import OptimizationResult, optimize
from .sim import BoundaryData, Scenario, Simulator, Trajectory, simulate

__version__ = "0.1.0"

__all__ = [
    "adjoint", "cli", "compressor", "gas", "io", "model", "opt", "power",
    "sim",
    "Bus", "CompressorArc", "CompressorCostModel", "CoupledNetwork",
    "GasConstants", "GasNetwork", "GasNode", "GasPowerPlant",
    "PerUnitSystem", "Pipe", "PowerGrid", "TransmissionLine",
    "nodal_admittance", "validate_network",
    "OptimizationResult", "optimize",
    "BoundaryData", "Scenario", "Simulator", "Trajectory", "simulate",
    "__version__",
]
