"""Discretized optimal control of the compressor lift.

The running compressor cost J is minimised over the lift u (bar) at the
M+1 time levels, subject to 0 <= u <= u_max and to the pressure bounds.
L-BFGS-B (scipy.optimize.minimize) keeps the control box natively; the
pressure bounds enter a log-barrier on the margins, whose weight mu
shrinks geometrically from level to level, each level warm-started from
the last.  Below a margin delta = DELTA_PER_MU * mu the logarithm is
continued by the quadratic that matches its value, slope and curvature,
so the barrier stays finite wherever L-BFGS-B probes.  Each evaluation
costs one forward simulation plus one adjoint sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import compressor, gas
from .adjoint import adjoint_sweep, total_gradient
from .model import BAR, CoupledNetwork
from .sim import Scenario, Simulator, Trajectory


class OptimizationError(Exception):
    pass


class NoFeasibleStart(OptimizationError):
    pass


class InnerStall(OptimizationError):
    def __init__(self, message, control_bar):
        super().__init__(message)
        self.control_bar = control_bar


def trapezoid_weights(step_count: int) -> np.ndarray:
    w = np.ones(step_count + 1)
    w[0] = w[-1] = 0.5
    return w


def _compressor_points(simulator: Simulator):
    """Per compressor: state indices of (rho_in, rho_out, q) and its data."""
    asm = simulator.assembler
    idx = asm.index
    out = []
    for comp in asm.comps:
        out.append((comp,
                    idx.node_rho[comp.from_node],
                    idx.node_rho[comp.to_node],
                    idx.comp_q[comp.id],
                    asm.comp_area[comp.id]))
    return out


def cost_series(simulator: Simulator, trajectory: Trajectory) -> np.ndarray:
    """Cost rate of all compressors at each time level."""
    cons = simulator.network.constants
    c = np.zeros(trajectory.step_count + 1)
    for comp, i_in, i_out, i_q, area in _compressor_points(simulator):
        rho_in = trajectory.states[:, i_in]
        rho_out = trajectory.states[:, i_out]
        q = trajectory.states[:, i_q]
        for j in range(len(c)):
            p_in = gas.pressure_of_density(rho_in[j], cons)
            p_out = gas.pressure_of_density(rho_out[j], cons)
            # idle machines may carry round-off level negative lift
            p_out = max(p_out, p_in)
            c[j] += compressor.cost_integrand(p_in, p_out, max(q[j], 0.0),
                                              area, comp.cost, cons.kappa)
    return c


def objective(simulator: Simulator, trajectory: Trajectory) -> float:
    """Trapezoidal discretization of the running compressor cost."""
    dt = simulator.scenario.dt
    w = trapezoid_weights(trajectory.step_count)
    return float(dt * np.sum(w * cost_series(simulator, trajectory)))


def cost_partials(simulator: Simulator, trajectory: Trajectory):
    """(J, dJ/dy, dJ/du) of the trapezoidal cost along a trajectory."""
    cons = simulator.network.constants
    dt = simulator.scenario.dt
    m = trajectory.step_count
    w = trapezoid_weights(m)
    dj_dy = np.zeros_like(trajectory.states)
    total = 0.0
    for comp, i_in, i_out, i_q, area in _compressor_points(simulator):
        for j in range(m + 1):
            rho_in = trajectory.states[j, i_in]
            rho_out = trajectory.states[j, i_out]
            q = trajectory.states[j, i_q]
            p_in = gas.pressure_of_density(rho_in, cons)
            p_out = max(gas.pressure_of_density(rho_out, cons), p_in)
            c, dc_pin, dc_pout, dc_q = compressor.cost_integrand_derivatives(
                p_in, p_out, q, area, comp.cost, cons.kappa)
            total += w[j] * c
            scale = dt * w[j]
            dj_dy[j, i_in] += scale * dc_pin * gas.dpressure_drho(rho_in, cons)
            dj_dy[j, i_out] += scale * dc_pout * gas.dpressure_drho(rho_out, cons)
            dj_dy[j, i_q] += scale * dc_q
    return dt * total, dj_dy, np.zeros(m + 1)


# the barrier's logarithm turns quadratic below a margin of this times mu (bar)
DELTA_PER_MU = 0.01


@dataclass
class OptimalControlProblem:
    """Scenario, control bound and barrier settings."""

    network: CoupledNetwork
    scenario: Scenario
    u_max: float = 30.0e5        # Pa, upper bound of the lift
    mu0: float = 100.0           # first barrier weight
    mu_factor: float = 0.2       # mu shrinks by this factor per level
    mu_min: float = 1.0e-4       # last barrier level
    # L-BFGS-B projected-gradient tolerance at mu_min, cost units per bar;
    # a level mu stops when the projected gradient is below
    # max(inner_tol, mu / 2) or on L-BFGS-B's relative-reduction test
    inner_tol: float = 0.05
    max_outer: int = 15          # barrier levels
    max_inner: int = 40          # L-BFGS-B iterations per level
    feasibility_tol_bar: float = 1.0e-3  # the barrier acts on margin - this
    newton_tol: float = 1.0e-9

    def __post_init__(self):
        if self.mu0 <= 0 or not (0 < self.mu_factor < 1) or self.mu_min <= 0:
            raise ValueError("barrier parameters out of range")
        if self.u_max <= 0:
            raise ValueError("u_max must be positive")
        for node, p_min in self.scenario.pressure_bounds.items():
            if p_min <= 0:
                raise ValueError(f"pressure bound at {node} must be positive")
        for comp in self.network.gas.compressors:
            if comp.cost.d0 > 0:
                raise ValueError(
                    f"compressor {comp.id}: fixed cost d0 > 0 makes the cost "
                    "discontinuous at zero lift; optimize needs d0 = 0")

    @classmethod
    def from_scenario(cls, network: CoupledNetwork, scenario: Scenario,
                      **overrides) -> "OptimalControlProblem":
        settings = dict(scenario.optimizer)
        settings.update({k: v for k, v in overrides.items() if v is not None})
        settings.setdefault("u_max", scenario.control_max)
        return cls(network, scenario, **settings)


@dataclass(frozen=True)
class OptimizationResult:
    control: np.ndarray          # Pa
    trajectory: Trajectory
    objective: float
    margins_bar: np.ndarray      # (n_bounds, M+1)
    min_margin_bar: float
    log: list = field(default_factory=list)
    mu_final: float = np.nan
    grad_norm_final: float = np.nan


def _extended_log(s: np.ndarray, delta: float):
    """log(s) and its slope, continued below delta by a matching quadratic."""
    safe = np.maximum(s, delta)
    r = np.minimum(s - delta, 0.0) / delta
    return np.log(safe) + r - 0.5 * r**2, (1.0 - r) / safe


def _projected_norm(u: np.ndarray, grad: np.ndarray, u_max: float) -> float:
    """Max-norm of the gradient projected on the box [0, u_max]."""
    return float(np.max(np.abs(np.clip(u - grad, 0.0, u_max) - u)))


class _BarrierModel:
    """Barrier objective J - mu * sum log(margin - feasibility_tol_bar)
    of the lift in bar, and its adjoint gradient."""

    def __init__(self, problem: OptimalControlProblem, simulator: Simulator):
        self.problem = problem
        self.sim = simulator
        self.bounds = sorted(problem.scenario.pressure_bounds.items())
        self.u_max_bar = problem.u_max / BAR
        self.index = simulator.assembler.index
        self.constants = simulator.network.constants
        self.last = None
        self._cache_key = None
        self._cache = None

    def _simulate(self, u_bar: np.ndarray):
        key = u_bar.tobytes()
        if key != self._cache_key:
            trajectory = self.sim.run(u_bar * BAR)
            margins = self.margins_bar(trajectory)
            self._cache_key = key
            self._cache = (trajectory, margins)
        return self._cache

    def margins_bar(self, trajectory: Trajectory) -> np.ndarray:
        rows = []
        for node, p_min in self.bounds:
            p = trajectory.node_pressure(node, self.constants)
            rows.append((p - p_min) / BAR)
        return np.array(rows) if rows else np.zeros((0, trajectory.step_count + 1))

    def value_and_gradient(self, u_bar: np.ndarray, mu: float):
        """Barrier value and its gradient per bar of lift.

        The evaluation, with (trajectory, margins, J), is kept in `last`.
        """
        trajectory, margins = self._simulate(u_bar)
        j_true = objective(self.sim, trajectory)
        _, dj_dy, dj_du = cost_partials(self.sim, trajectory)
        log_m, slope = _extended_log(margins - self.problem.feasibility_tol_bar,
                                     DELTA_PER_MU * mu)
        value = j_true - mu * float(np.sum(log_m))
        for row, (node, _) in enumerate(self.bounds):
            col = self.index.node_rho[node]
            dp = np.asarray(gas.dpressure_drho(trajectory.states[:, col],
                                               self.constants))
            dj_dy[:, col] -= mu * slope[row] * dp / BAR
        xi = adjoint_sweep(self.sim, trajectory, dj_dy)
        grad = total_gradient(self.sim, trajectory, xi, dj_du) * BAR
        self.last = (grad, margins, j_true)
        return value, grad


def _feasible_start(model: _BarrierModel, step_count: int) -> np.ndarray:
    """Constant control, doubled until all margins are strictly positive."""
    c = 0.25
    while c < model.u_max_bar:
        u = np.full(step_count + 1, c)
        _, margins = model._simulate(u)
        if margins.size == 0 or np.min(margins) > 0.02:
            return u
        c *= 2.0
    raise NoFeasibleStart(
        f"no constant control below u_max = {model.u_max_bar:g} bar keeps "
        "all pressure margins positive")


def optimize(problem: OptimalControlProblem,
             simulator: Simulator | None = None) -> OptimizationResult:
    """Log-barrier continuation with one L-BFGS-B solve per level mu.

    Stops once the level mu_min is solved.  L-BFGS-B stops a level on the
    first of its two tests, the projected gradient's max-norm below
    max(inner_tol, mu / 2) or a relative reduction of the objective below
    its default `ftol` (on the bundled case most levels end on this one),
    or after max_inner iterations.  A line-search failure at mu_min with
    a projected gradient above 10 * inner_tol raises InnerStall.  The
    returned control keeps every pressure margin strictly positive;
    otherwise OptimizationError is raised.  The log has one row per
    L-BFGS-B iteration.
    """
    # imported here: scipy.optimize adds about 15 MiB to every process
    # that imports gaspower, also those that only simulate
    from scipy.optimize import minimize

    if simulator is None:
        simulator = Simulator(problem.network, problem.scenario,
                              tol=problem.newton_tol)
    model = _BarrierModel(problem, simulator)
    u = _feasible_start(model, problem.scenario.step_count)
    bounds = [(0.0, model.u_max_bar)] * len(u)

    log_rows = []

    def log_iterate(intermediate_result):
        # L-BFGS-B reports each new iterate right after evaluating it
        grad, margins, j_true = model.last
        log_rows.append({
            "iter": len(log_rows), "mu": mu, "objective": j_true,
            "min_margin_bar": float(np.min(margins)) if margins.size else np.nan,
            "grad_norm": _projected_norm(intermediate_result.x, grad,
                                         model.u_max_bar)})

    mu = problem.mu0
    grad_norm = np.inf
    for _ in range(problem.max_outer):
        result = minimize(
            lambda x: model.value_and_gradient(x, mu), u, jac=True,
            method="L-BFGS-B", bounds=bounds, callback=log_iterate,
            options={"gtol": max(problem.inner_tol, 0.5 * mu),
                     "maxiter": problem.max_inner})
        u = result.x
        grad_norm = _projected_norm(u, result.jac, model.u_max_bar)
        if mu <= problem.mu_min:
            if result.status == 2 and grad_norm > 10.0 * problem.inner_tol:
                raise InnerStall(
                    f"L-BFGS-B failed at mu = {mu:g}: {result.message} "
                    f"(projected gradient norm {grad_norm:.3g})", u * BAR)
            break
        mu = max(mu * problem.mu_factor, problem.mu_min)
    else:
        raise OptimizationError(
            f"outer iteration budget exhausted at mu = {mu:g} "
            f"(projected gradient norm {grad_norm:.3g})")

    trajectory, margins = model._simulate(u)
    min_margin = float(np.min(margins)) if margins.size else np.nan
    if min_margin <= 0.0:
        raise OptimizationError(
            f"final control violates a pressure bound by {-min_margin:.3g} bar")
    return OptimizationResult(
        control=u * BAR,
        trajectory=trajectory,
        objective=objective(simulator, trajectory),
        margins_bar=margins,
        min_margin_bar=min_margin,
        log=log_rows,
        mu_final=mu,
        grad_norm_final=grad_norm)
