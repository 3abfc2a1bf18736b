"""Gas physics on pipes.

Pressure law, Prandtl-Colebrook friction, the friction source term of
the isothermal/isentropic Euler system, and the implicit box scheme
residual and its Jacobian values, evaluated on all pipes of a network at
once through a PipeGrid.  All functions are pure and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GasConstants, Pipe

# Below this Reynolds number the Colebrook equation degenerates; the
# fully-rough limit is used instead.  The source term still vanishes at
# q = 0 through the q|q| factor.
REYNOLDS_ROUGH_LIMIT = 100.0

_COLEBROOK_TOL = 1e-13
_COLEBROOK_MAX_ITER = 100
_LN10 = np.log(10.0)

_DEFAULTS = GasConstants()


@dataclass(frozen=True)
class PipeState:
    """Densities and flows at the grid points 0..cell_count of one pipe."""

    rho: np.ndarray  # kg/m^3
    q: np.ndarray    # kg/(m^2 s)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if rho.shape != q.shape or rho.ndim != 1:
            raise ValueError("rho and q must be 1-d arrays of equal length")
        if np.any(rho <= 0):
            raise ValueError("densities must be positive")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "q", q)


def pressure_of_density(rho, constants: GasConstants = _DEFAULTS):
    """p(rho) = kappa * rho**gamma.  Accepts scalars or arrays; rho >= 0."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("density must be >= 0")
    p = constants.kappa * rho**constants.gamma
    return p if p.ndim else float(p)


def density_of_pressure(p, constants: GasConstants = _DEFAULTS):
    """Inverse pressure law, rho = (p/kappa)**(1/gamma)."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValueError("pressure must be >= 0")
    rho = (p / constants.kappa) ** (1.0 / constants.gamma)
    return rho if rho.ndim else float(rho)


def dpressure_drho(rho, constants: GasConstants = _DEFAULTS):
    rho = np.asarray(rho, dtype=float)
    d = constants.kappa * constants.gamma * rho ** (constants.gamma - 1.0)
    return d if d.ndim else float(d)


def friction_factor_and_derivative(q, diameter, roughness,
                                   eta: float = _DEFAULTS.eta):
    """Colebrook friction factor lambda(q) and d lambda / d q, vectorized.

    Solves 1/sqrt(lam) = -2 log10(2.51/(Re sqrt(lam)) + k/(3.71 d)) with
    Re = d |q| / eta by damped fixed-point iteration on x = 1/sqrt(lam);
    the derivative comes from implicit differentiation of the same
    equation.  Below REYNOLDS_ROUGH_LIMIT the rough limit (with zero
    derivative) is returned.  Diameter d and roughness k are scalars or
    arrays shaped like q (one value per point).
    """
    if np.any(np.asarray(diameter) <= 0):
        raise ValueError("diameter must be positive")
    if np.any(np.asarray(roughness) < 0):
        raise ValueError("roughness must be >= 0")
    q = np.asarray(q, dtype=float)
    scalar = q.ndim == 0
    q = np.atleast_1d(q)

    b = roughness / (3.71 * diameter)
    x_rough = -2.0 * np.log10(b)
    re = diameter * np.abs(q) / eta
    rough = re < REYNOLDS_ROUGH_LIMIT
    re_safe = np.where(rough, REYNOLDS_ROUGH_LIMIT, re)
    a = 2.51 / re_safe

    x = np.full_like(q, x_rough)
    omega = 1.0
    delta_prev = np.inf
    for _ in range(_COLEBROOK_MAX_ITER):
        x_new = -2.0 * np.log10(a * x + b)
        if omega != 1.0:
            x_new = (1.0 - omega) * x + omega * x_new
        delta = np.max(np.abs(x_new - x), initial=0.0)
        if delta > delta_prev:
            omega *= 0.5
            continue
        x, delta_prev = x_new, delta
        if delta < _COLEBROOK_TOL:
            break
    else:
        raise RuntimeError("Colebrook iteration did not converge")

    lam = 1.0 / (x * x)
    # implicit derivative through G(x, Re) = x + 2 log10(a x + b) = 0
    denom = a * x + b
    dG_dx = 1.0 + 2.0 * a / (_LN10 * denom)
    dG_dre = -2.0 * a * x / (_LN10 * denom * re_safe)
    dx_dre = -dG_dre / dG_dx
    dlam_dq = (-2.0 / x**3) * dx_dre * (diameter / eta) * np.sign(q)
    dlam_dq = np.where(rough, 0.0, dlam_dq)
    lam = np.where(rough, 1.0 / (x_rough * x_rough), lam)

    if scalar:
        return float(lam[0]), float(dlam_dq[0])
    return lam, dlam_dq




def source_term_with_derivatives(rho, q, geometry,
                                 constants: GasConstants = _DEFAULTS):
    """Momentum source S(rho, q) = -lambda(q)/(2 d) * q|q|/rho and its
    partials (dS/drho, dS/dq).

    `geometry` supplies `diameter` and `roughness`: a Pipe, or a PipeGrid
    for per-point values.
    """
    rho = np.asarray(rho, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("density must be positive")
    lam, dlam = friction_factor_and_derivative(q, geometry.diameter,
                                               geometry.roughness,
                                               constants.eta)
    c = 1.0 / (2.0 * geometry.diameter)
    s = _source(rho, q, lam, c)
    ds_drho = c * lam * q * np.abs(q) / rho**2
    ds_dq = -c * (dlam * q * np.abs(q) + lam * 2.0 * np.abs(q)) / rho
    return s, ds_drho, ds_dq


def _source(rho, q, lam, c):
    """S = -c lambda q|q|/rho with c = 1/(2 d)."""
    return -c * lam * q * np.abs(q) / rho


@dataclass(frozen=True)
class PipeGrid:
    """Grid points of several pipes stacked end to end.

    Points are numbered pipe after pipe, each pipe owning points
    0..cell_count of its own.  The box-scheme unknowns are all densities,
    then all flows; its rows are all mass rows, then all momentum rows,
    one per cell interval.  An interval never joins two pipes.
    """

    left: np.ndarray       # left grid point of each interval
    dx: np.ndarray         # m, per interval
    diameter: np.ndarray   # m, per point
    roughness: np.ndarray  # m, per point

    @staticmethod
    def stack(cell_counts, dx, diameter, roughness) -> "PipeGrid":
        """Grid of pipes given per pipe: cells, cell length (m), d, k (m)."""
        counts = np.asarray(cell_counts, dtype=int)
        points = counts + 1
        if np.any(np.asarray(dx) <= 0):
            raise ValueError("dx must be positive")
        # every point but the last of each pipe starts an interval
        left = np.delete(np.arange(np.sum(points)), np.cumsum(points) - 1)
        return PipeGrid(left, np.repeat(dx, counts),
                        np.repeat(diameter, points),
                        np.repeat(roughness, points))

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, unknowns) of the box scheme on this grid."""
        return 2 * len(self.left), 2 * len(self.diameter)

    def stencil(self):
        """(rows, cols) of the box scheme's derivatives with respect to the
        new level (the values of _box_blocks) and to the old level, in the
        layout described above."""
        n, npts = len(self.left), len(self.diameter)
        jl, jr = self.left, self.left + 1
        mass = np.arange(n)
        mom = n + mass
        rho_cols = [jl, jr]
        q_cols = [npts + jl, npts + jr]
        next_ = (np.concatenate([mass] * 4 + [mom] * 4),
                 np.concatenate(rho_cols + q_cols + rho_cols + q_cols))
        prev = (np.concatenate([mass, mass, mom, mom]),
                np.concatenate(rho_cols + q_cols))
        return next_, prev


def _box_blocks(prev: PipeState, next_: PipeState, dt: float,
                grid: PipeGrid, constants: GasConstants) -> np.ndarray:
    """Derivatives of box_residual with respect to the new level.

    Returns the values in the order of the new-level half of
    grid.stencil(); those with respect to the old level are all -1/2.
    """
    _check_levels(prev, next_, dt, grid)
    rho, q = next_.rho, next_.q
    jl, jr = grid.left, grid.left + 1
    r = dt / grid.dx

    dp = dpressure_drho(rho, constants)
    df2_drho = dp - (q / rho) ** 2
    df2_dq = 2.0 * q / rho
    _, ds_drho, ds_dq = source_term_with_derivatives(rho, q, grid, constants)

    half = np.full(len(jl), 0.5)
    return np.concatenate([
        # mass rows: rho_L, rho_R, q_L, q_R
        half, half, -r, r,
        # momentum rows
        -r * df2_drho[jl] - dt * 0.5 * ds_drho[jl],
        r * df2_drho[jr] - dt * 0.5 * ds_drho[jr],
        half - r * df2_dq[jl] - dt * 0.5 * ds_dq[jl],
        half + r * df2_dq[jr] - dt * 0.5 * ds_dq[jr]])


def box_residual(prev: PipeState, next_: PipeState, dt: float,
                 grid: PipeGrid, constants: GasConstants) -> np.ndarray:
    """Residual of the implicit box scheme: mass rows, then momentum rows.

    For a balance law y_t + f(y)_x = g(y) the scheme averages states over
    each interval between the grid points L = j-1 and R = j:

        (Y_{j-1} + Y_j)/2 |_new = (Y_{j-1} + Y_j)/2 |_old
            - dt/dx (f(Y_j) - f(Y_{j-1}))|_new + dt (g(Y_j)+g(Y_{j-1}))/2 |_new
    """
    _check_levels(prev, next_, dt, grid)
    rho, q = next_.rho, next_.q
    lam, _ = friction_factor_and_derivative(q, grid.diameter, grid.roughness,
                                            constants.eta)
    s = _source(rho, q, lam, 1.0 / (2.0 * grid.diameter))
    f2 = pressure_of_density(rho, constants) + q * q / rho
    rho_o, q_o = prev.rho, prev.q
    jl, jr = grid.left, grid.left + 1
    r = dt / grid.dx
    res_mass = (0.5 * (rho[jl] + rho[jr]) - 0.5 * (rho_o[jl] + rho_o[jr])
                + r * (q[jr] - q[jl]))
    res_mom = (0.5 * (q[jl] + q[jr]) - 0.5 * (q_o[jl] + q_o[jr])
               + r * (f2[jr] - f2[jl]) - dt * 0.5 * (s[jr] + s[jl]))
    return np.concatenate([res_mass, res_mom])


def _check_levels(prev: PipeState, next_: PipeState, dt, grid: PipeGrid):
    if prev.rho.shape != next_.rho.shape or \
            next_.rho.shape != grid.diameter.shape:
        raise ValueError("pipe states have mismatched lengths")
    if dt <= 0:
        raise ValueError("dt must be positive")


def _one_pipe(next_: PipeState, dx: float, pipe: Pipe) -> PipeGrid:
    return PipeGrid.stack([len(next_.rho) - 1], [dx], [pipe.diameter],
                          [pipe.roughness])


def box_scheme_residual(prev: PipeState, next_: PipeState, dt: float,
                        dx: float, pipe: Pipe,
                        constants: GasConstants = _DEFAULTS) -> np.ndarray:
    """Residual of the implicit box scheme, 2 entries per cell interval.

    Ordered as [mass rows 1..n, momentum rows 1..n].
    """
    return box_residual(prev, next_, dt, _one_pipe(next_, dx, pipe),
                        constants)
