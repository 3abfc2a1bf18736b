"""Discretized optimal control of the compressor lift.

The pressure bounds and the control box constraints are folded into a
primal log-barrier objective; each barrier gradient costs one forward
simulation plus one adjoint sweep.  The outer loop shrinks the barrier
weight mu geometrically, the inner loop is a limited-memory quasi-Newton
method with backtracking line search, working on the control expressed
in bar to keep the secant updates well conditioned.
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


@dataclass
class OptimalControlProblem:
    """Scenario, bounds and barrier/inner-loop settings."""

    network: CoupledNetwork
    scenario: Scenario
    u_max: float = 30.0e5        # Pa
    mu0: float = 100.0
    mu_factor: float = 0.2
    mu_min: float = 1.0e-4
    inner_tol: float = 0.05      # gradient max-norm, cost units per bar
    max_outer: int = 15
    max_inner: int = 40
    feasibility_tol_bar: float = 1.0e-3
    newton_tol: float = 1.0e-9

    def __post_init__(self):
        if self.mu0 <= 0 or not (0 < self.mu_factor < 1) or self.mu_min <= 0:
            raise ValueError("barrier parameters out of range")
        if self.u_max <= 0:
            raise ValueError("u_max must be positive")
        for node, p_min in self.scenario.pressure_bounds.items():
            if p_min <= 0:
                raise ValueError(f"pressure bound at {node} must be positive")

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


class _BarrierModel:
    """Value/gradient of the barrier objective.

    The control is handled internally in logit coordinates,
    u = u_max * sigmoid(z): the box constraint 0 < u < u_max is then
    automatic and the gradients of its log-barrier terms stay O(mu) even
    when u approaches a bound, which keeps the quasi-Newton inner loop
    well conditioned.
    """

    # |z| cap; u stays strictly inside (0, u_max) with huge headroom
    Z_LIMIT = 50.0

    def __init__(self, problem: OptimalControlProblem, simulator: Simulator):
        self.problem = problem
        self.sim = simulator
        self.bounds = sorted(problem.scenario.pressure_bounds.items())
        self.u_max_bar = problem.u_max / BAR
        self.index = simulator.assembler.index
        self.constants = simulator.network.constants
        self._cache_key = None
        self._cache = None

    def u_of_z(self, z: np.ndarray) -> np.ndarray:
        z = np.clip(z, -self.Z_LIMIT, self.Z_LIMIT)
        return self.u_max_bar / (1.0 + np.exp(-z))

    def z_of_u(self, u_bar: np.ndarray) -> np.ndarray:
        frac = np.clip(u_bar / self.u_max_bar, 1e-16, 1.0 - 1e-16)
        return np.clip(np.log(frac / (1.0 - frac)),
                       -self.Z_LIMIT, self.Z_LIMIT)

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

    def control_feasible(self, u_bar: np.ndarray) -> bool:
        return bool(np.all(u_bar > 0.0) and np.all(u_bar < self.u_max_bar))

    def value(self, u_bar: np.ndarray, mu: float):
        """Barrier value, +inf outside the strictly feasible set."""
        if not self.control_feasible(u_bar):
            return np.inf, None
        trajectory, margins = self._simulate(u_bar)
        if margins.size and np.min(margins) <= 0.0:
            return np.inf, (trajectory, margins)
        j_true = objective(self.sim, trajectory)
        value = j_true - mu * (np.sum(np.log(u_bar))
                               + np.sum(np.log(self.u_max_bar - u_bar)))
        if margins.size:
            value -= mu * np.sum(np.log(margins))
        return float(value), (trajectory, margins, j_true)

    def value_and_gradient(self, u_bar: np.ndarray, mu: float):
        """Value plus the gradient w.r.t. u expressed in bar."""
        value, aux = self.value(u_bar, mu)
        if not np.isfinite(value):
            raise ValueError("gradient requested at an infeasible point")
        trajectory, margins, j_true = aux
        _, dj_dy, dj_du = cost_partials(self.sim, trajectory)
        for row, (node, _) in enumerate(self.bounds):
            col = self.index.node_rho[node]
            rho = trajectory.states[:, col]
            dp = np.asarray(gas.dpressure_drho(rho, self.constants))
            dj_dy[:, col] += -mu / margins[row] * dp / BAR
        xi = adjoint_sweep(self.sim, trajectory, dj_dy)
        grad_pa = total_gradient(self.sim, trajectory, xi, dj_du)
        grad = grad_pa * BAR
        grad += -mu * (1.0 / u_bar - 1.0 / (self.u_max_bar - u_bar))
        return value, grad, (trajectory, margins, j_true)

    def value_z(self, z: np.ndarray, mu: float):
        return self.value(self.u_of_z(z), mu)

    def value_and_gradient_z(self, z: np.ndarray, mu: float):
        u = self.u_of_z(z)
        value, grad_u, aux = self.value_and_gradient(u, mu)
        grad_z = grad_u * u * (1.0 - u / self.u_max_bar)
        return value, grad_z, aux


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


class _LbfgsMemory:
    def __init__(self, size=10):
        self.size = size
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = []

    def clear(self):
        self.pairs.clear()

    def push(self, s, y):
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            self.pairs.append((s, y))
            if len(self.pairs) > self.size:
                self.pairs.pop(0)

    def direction(self, grad):
        q = -grad.copy()
        if not self.pairs:
            # first step: bounded move in the transformed coordinates
            norm = np.max(np.abs(q))
            return q if norm == 0 else q * min(1.0, 1.0 / norm)
        alphas = []
        for s, y in reversed(self.pairs):
            a = (s @ q) / (s @ y)
            q -= a * y
            alphas.append(a)
        s, y = self.pairs[-1]
        q *= (s @ y) / (y @ y)
        for (s, y), a in zip(self.pairs, reversed(alphas)):
            b = (y @ q) / (s @ y)
            q += (a - b) * s
        return q


def _solve_inner(model: _BarrierModel, z, mu, tol, max_inner, log_rows,
                 iteration):
    """Quasi-Newton descent on the barrier objective at fixed mu.

    Returns (z, grad_norm, aux, iteration, stalled); grad norms are taken
    in the logit coordinates the inner loop works in.
    """
    memory = _LbfgsMemory()
    f, g, aux = model.value_and_gradient_z(z, mu)
    stalled = False
    for _ in range(max_inner):
        grad_norm = float(np.max(np.abs(g)))
        log_rows.append({"iter": iteration, "mu": mu, "objective": aux[2],
                         "min_margin_bar": float(np.min(aux[1]))
                         if aux[1].size else np.nan,
                         "grad_norm": grad_norm})
        iteration += 1
        if grad_norm <= tol:
            break
        direction = memory.direction(g)
        if direction @ g >= 0.0:
            memory.clear()
            direction = memory.direction(g)
        step = 1.0
        accepted = False
        for _ in range(40):
            f_new, _ = model.value_z(z + step * direction, mu)
            if f_new <= f + 1e-4 * step * (direction @ g):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stalled = True
            break
        g_prev = g
        z = z + step * direction
        f, g, aux = model.value_and_gradient_z(z, mu)
        memory.push(step * direction, g - g_prev)
    grad_norm = float(np.max(np.abs(g)))
    return z, grad_norm, aux, iteration, stalled


def optimize(problem: OptimalControlProblem,
             simulator: Simulator | None = None) -> OptimizationResult:
    """Log-barrier continuation with quasi-Newton inner solves.

    Terminates once mu has reached mu_min and the inner gradient norm is
    below the inner tolerance; the reported control keeps every margin
    strictly positive (barrier iterates never leave the interior).  If an
    inner solve stalls before mu_min, mu is reduced early and the loop
    continues from the current iterate.
    """
    if simulator is None:
        simulator = Simulator(problem.network, problem.scenario,
                              tol=problem.newton_tol)
    model = _BarrierModel(problem, simulator)
    m = problem.scenario.step_count
    z = model.z_of_u(_feasible_start(model, m))

    log_rows = []
    mu = problem.mu0
    grad_norm = np.inf
    aux = None
    iteration = 0
    for _ in range(problem.max_outer):
        tol_level = max(problem.inner_tol, 0.5 * mu)
        z, grad_norm, aux, iteration, stalled = _solve_inner(
            model, z, mu, tol_level, problem.max_inner, log_rows, iteration)
        if mu <= problem.mu_min:
            if stalled and grad_norm > 10.0 * problem.inner_tol:
                raise InnerStall(
                    f"line search failed at mu = {mu:g} "
                    f"(gradient norm {grad_norm:.3g})", model.u_of_z(z))
            break
        mu = max(mu * problem.mu_factor, problem.mu_min)
    else:
        raise OptimizationError(
            f"outer iteration budget exhausted at mu = {mu:g} "
            f"(gradient norm {grad_norm:.3g})")

    trajectory, margins, j_true = aux
    u_bar = model.u_of_z(z)
    return OptimizationResult(
        control=u_bar * BAR,
        trajectory=trajectory,
        objective=j_true,
        margins_bar=margins,
        min_margin_bar=float(np.min(margins)) if margins.size else np.nan,
        log=log_rows,
        mu_final=mu,
        grad_norm_final=grad_norm)
