"""Discretized optimal control of the compressor lift.

The running compressor cost J is minimised over the lift u (bar) at the
M+1 time levels, subject to 0 <= u <= u_max, to the pressure bounds and
to forward flow through every compressor, by one SLSQP solve
(scipy.optimize.minimize).  Each evaluated control costs one forward
simulation; a control at which SLSQP asks for derivatives costs one
tangent-linear sweep more, whose state sensitivities give the gradient
of J and the Jacobian of all constraints at once.

J sums compressor.cost_rate with trapezoidal weights.  objective()
prices reversed compressor flow at zero; cost_partials(), which SLSQP
minimises, does not clip it.  They agree on forward flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import compressor, gas
from .adjoint import state_sensitivities
from .model import BAR
from .sim import (MASS_FLOW_SCALE, Simulator, Trajectory,
                  check_pressure_bounds)


class OptimizationError(Exception):
    pass


class NoFeasibleStart(OptimizationError):
    pass


# SLSQP tests ftol in absolute terms from an identity Hessian, so it
# minimises J scaled down to this value at its feasible start: J of 1e3-1e5
# kept it infeasible for most of the run and stopped it with status 8 on
# many compressors, and scaling a smaller J up stopped it too
OBJECTIVE_SCALE = 1.0e3


def trapezoid_weights(step_count: int) -> np.ndarray:
    w = np.ones(step_count + 1)
    w[0] = w[-1] = 0.5
    return w


def _cost_terms(simulator: Simulator, trajectory: Trajectory,
                clip_flux: bool):
    """Per compressor: its state columns (rho_in, rho_out, q), its cost
    rate at every level and the rate's partials by those columns."""
    cons, asm = simulator.network.constants, simulator.assembler
    for comp, cols, area in zip(asm.comps, asm.comp_cols.T, asm.comp_area):
        rho_in, rho_out, q = trajectory.states[:, cols].T
        p_in = gas.pressure_of_density(rho_in, cons)
        # idle machines may carry round-off level negative lift
        p_out = np.maximum(gas.pressure_of_density(rho_out, cons), p_in)
        c, dc_pin, dc_pout, dc_q = compressor.cost_rate(
            p_in, p_out, np.maximum(q, 0.0) if clip_flux else q, area,
            comp.cost, cons.kappa)
        yield cols, c, (dc_pin * gas.dpressure_drho(rho_in, cons),
                        dc_pout * gas.dpressure_drho(rho_out, cons), dc_q)


def objective(simulator: Simulator, trajectory: Trajectory) -> float:
    """Trapezoidal running compressor cost; reversed flow costs nothing."""
    dt = simulator.scenario.dt
    w = trapezoid_weights(trajectory.step_count)
    rate = sum(c for _, c, _ in _cost_terms(simulator, trajectory, True))
    return float(dt * np.sum(w * rate))


def cost_partials(simulator: Simulator, trajectory: Trajectory):
    """(J, dJ/dy, dJ/du) of the trapezoidal cost along a trajectory; unlike
    objective(), reversed compressor flow is not clipped."""
    dt = simulator.scenario.dt
    m = trajectory.step_count
    w = trapezoid_weights(m)
    rate = np.zeros(m + 1)
    dj_dy = np.zeros_like(trajectory.states)
    for cols, c, partials in _cost_terms(simulator, trajectory, False):
        rate += c
        for col, dc in zip(cols, partials):
            dj_dy[:, col] += dt * w * dc
    return float(dt * np.sum(w * rate)), dj_dy, np.zeros(m + 1)


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    control: np.ndarray          # Pa
    trajectory: Trajectory
    objective: float
    margins_bar: np.ndarray      # (n_bounds, M+1)
    min_margin_bar: float
    log: list = field(default_factory=list)
    message: str = ""            # SLSQP's stop reason
    iterations: int = 0          # SLSQP's
    status: int = 0              # SLSQP's
    nfev: int = 0                # SLSQP's objective evaluations
    njev: int = 0                # SLSQP's gradient evaluations
    simulations: int = 0         # forward runs
    sweeps: int = 0              # tangent-linear sweeps


class _Model:
    """Cost, pressure margins and compressor fluxes of the lift in bar,
    with their derivatives, for the last control evaluated.

    Only the bounded nodes' densities and each compressor's inlet, outlet
    and flux enter these functions, so the sensitivity sweep is asked for
    those state entries alone.  It counts its simulations and sweeps.
    """

    def __init__(self, simulator: Simulator):
        self.sim = simulator
        self.cons = simulator.network.constants
        scenario = simulator.scenario
        self.u_max_bar = scenario.control_max / BAR
        self.tol_bar = scenario.feasibility_tol_bar
        asm = simulator.assembler
        bounds = sorted(scenario.pressure_bounds.items())
        self.p_min = np.array([p_min for _, p_min in bounds]).reshape(-1, 1)
        bound_cols = [asm.index.node_rho[node] for node, _ in bounds]
        self.columns = np.union1d(bound_cols, asm.comp_cols).astype(int)
        self.bound_pos = np.searchsorted(self.columns, bound_cols)
        self.flux_pos = np.searchsorted(self.columns, asm.comp_cols[2])
        self._key = self._last = self._partials = None
        self.simulations = self.sweeps = 0

    def evaluate(self, x: np.ndarray, derivatives: bool = False
                 ) -> SimpleNamespace:
        """Trajectory, J, margins (bar) with their minimum, and the
        constraints (margin - feasibility_tol_bar, then
        flux / MASS_FLOW_SCALE).  With `derivatives`, also dJ/du and the
        constraint Jacobian, from one sensitivity sweep per control."""
        u = np.clip(x, 0.0, self.u_max_bar)
        if u.tobytes() != self._key:
            trajectory = self.sim.run(u * BAR)
            self.simulations += 1
            value, *self._partials = cost_partials(self.sim, trajectory)
            y = trajectory.states[:, self.columns].T   # (column, level)
            rho = y[self.bound_pos]
            margins = (gas.pressure_of_density(rho, self.cons)
                       - self.p_min) / BAR
            self._key = u.tobytes()
            self._last = SimpleNamespace(
                trajectory=trajectory, value=value, rho=rho, margins=margins,
                min_margin=float(np.min(margins)) if margins.size else np.nan,
                constraints=np.concatenate([(margins - self.tol_bar).ravel(),
                                            y[self.flux_pos].ravel()
                                            / MASS_FLOW_SCALE]),
                gradient=None, jacobian=None)
        last = self._last
        if derivatives and last.gradient is None:
            sens = state_sensitivities(self.sim, last.trajectory, self.columns)
            self.sweeps += 1
            by_column = sens.transpose(1, 0, 2)        # (column, level, u_j)
            # margins in bar per bar of lift: dp/drho times drho/du per Pa
            margin_jac = gas.dpressure_drho(last.rho, self.cons)[:, :, None] \
                * by_column[self.bound_pos]
            # flux rows in units of MASS_FLOW_SCALE: SLSQP tests the summed
            # violation against an absolute 1e-6, too tight for kg/(m^2 s)
            flux_jac = BAR / MASS_FLOW_SCALE * by_column[self.flux_pos]
            dj_dy, dj_du = self._partials
            last.gradient = BAR * (dj_du + np.einsum(
                "nk,nkj->j", dj_dy[:, self.columns], sens))
            last.jacobian = np.concatenate([margin_jac, flux_jac]).reshape(
                -1, len(u))
        return last


def _feasible_start(model: _Model, step_count: int) -> np.ndarray:
    """Constant control, doubled from 0.25 bar while below u_max and then
    u_max itself, until all margins are strictly positive."""
    c = 0.25
    while True:
        c = min(c, model.u_max_bar)
        u = np.full(step_count + 1, c)
        margins = model.evaluate(u).margins
        if margins.size == 0 or np.min(margins) > 0.02:
            return u
        if c == model.u_max_bar:
            raise NoFeasibleStart(
                f"no constant control up to u_max = {model.u_max_bar:g} bar "
                "keeps all pressure margins positive")
        c *= 2.0


def optimize(simulator: Simulator) -> OptimizationResult:
    """One SLSQP solve over the lift in bar, from a feasible start, with
    the bounds and settings of the simulator's scenario.

    Minimises s J, J the value of cost_partials and s = OBJECTIVE_SCALE /
    max(J(u0), OBJECTIVE_SCALE) at the feasible start u0 (the result and
    its log keep J), subject to 0 <= u <= control_max and, at every time
    level, pressure margin - feasibility_tol_bar >= 0 at each bounded node
    and flux q >= 0 at each compressor, where the cost model holds (it has
    no reverse flow).  A nonzero SLSQP status, max_iter iterations
    included, raises OptimizationError with SLSQP's message, and so does a
    returned control that violates a pressure bound; a bound at a node
    that is not a gas node raises ValueError.  The log has one row per call
    of SLSQP's iteration callback.
    """
    # imported here: scipy.optimize adds about 15 MiB to every process
    # that imports gaspower, also those that only simulate
    from scipy.optimize import minimize

    check_pressure_bounds(simulator.network,
                          simulator.scenario.pressure_bounds)
    for comp in simulator.network.gas.compressors:
        if comp.cost.d0 > 0:
            raise ValueError(
                f"compressor {comp.id}: fixed cost d0 > 0 makes the cost "
                "discontinuous at zero lift; optimize needs d0 = 0")
    model = _Model(simulator)
    u = _feasible_start(model, simulator.scenario.step_count)
    scale = OBJECTIVE_SCALE / max(model.evaluate(u).value, OBJECTIVE_SCALE)

    log_rows = []

    def log_iterate(intermediate_result):
        evaluation = model.evaluate(intermediate_result.x)
        log_rows.append({"iter": len(log_rows), "objective": evaluation.value,
                         "min_margin_bar": evaluation.min_margin})

    result = minimize(
        lambda x: scale * model.evaluate(x).value, u,
        jac=lambda x: scale * model.evaluate(x, True).gradient,
        method="SLSQP",
        bounds=[(0.0, model.u_max_bar)] * len(u),
        constraints=[{"type": "ineq",
                      "fun": lambda x: model.evaluate(x).constraints,
                      "jac": lambda x: model.evaluate(x, True).jacobian}],
        callback=log_iterate, options={"maxiter": simulator.scenario.max_iter})
    if result.status != 0:
        raise OptimizationError(
            f"SLSQP stopped with status {result.status}: {result.message}")

    evaluation = model.evaluate(result.x)
    if evaluation.min_margin <= 0.0:
        raise OptimizationError(
            "final control violates a pressure bound by "
            f"{-evaluation.min_margin:.3g} bar")
    return OptimizationResult(
        control=evaluation.trajectory.control,
        trajectory=evaluation.trajectory,
        objective=objective(simulator, evaluation.trajectory),
        margins_bar=evaluation.margins,
        min_margin_bar=evaluation.min_margin,
        log=log_rows,
        message=result.message, iterations=result.nit, status=result.status,
        nfev=result.nfev, njev=result.njev, simulations=model.simulations,
        sweeps=model.sweeps)
