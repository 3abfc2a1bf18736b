"""Gas physics on pipes.

Pressure law, Prandtl-Colebrook friction (solved in closed form), the
friction source term of the isothermal/isentropic Euler system, and the
implicit box scheme residual and its Jacobian values, evaluated on all
pipes of a network at once through a PipeGrid.  The box-scheme functions
take the friction values (lambda, dlambda/dq) at the new level as an
argument, so a caller that needs the residual and the Jacobian at one
state solves Colebrook once.  All functions are pure and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GasConstants

# Below this Reynolds number the Colebrook equation degenerates; the
# fully-rough limit is used instead.  The source term still vanishes at
# q = 0 through the q|q| factor.
REYNOLDS_ROUGH_LIMIT = 100.0

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
    Re = d |q| / eta in closed form by Clamond's algorithm (Ind. Eng.
    Chem. Res. 48 (2009) 3665): with X1 = b Re ln10/5.02, b = k/(3.71 d),
    and X2 = ln(Re ln10/5.02), F solves F + ln(X1 + F) = X2, and two fixed
    third-order steps from F = X2 - 0.2 reach machine precision;
    x = 1/sqrt(lam) = 2 F/ln10.  The derivative comes from implicit
    differentiation of the same equation.  Below REYNOLDS_ROUGH_LIMIT the
    rough limit (with zero derivative) is returned.  Diameter d and
    roughness k are scalars or arrays shaped like q (one value per point).
    """
    if np.any(np.asarray(diameter) <= 0):
        raise ValueError("diameter must be positive")
    if np.any(np.asarray(roughness) < 0):
        raise ValueError("roughness must be >= 0")
    q = np.asarray(q, dtype=float)
    scalar = q.ndim == 0
    q = np.atleast_1d(q)

    b = roughness / (3.71 * diameter)
    re = diameter * np.abs(q) / eta
    rough = re < REYNOLDS_ROUGH_LIMIT
    re_safe = np.where(rough, REYNOLDS_ROUGH_LIMIT, re)
    re_scaled = re_safe * (_LN10 / 5.02)
    x1, x2 = b * re_scaled, np.log(re_scaled)
    f = x2 - 0.2
    for _ in range(2):
        s = x1 + f
        e = (np.log(s) + f - x2) / (1.0 + s)
        f = f - (1.0 + s + 0.5 * e) * e * s / (1.0 + s + e * (1.0 + e / 3.0))
    lam = (0.5 * _LN10 / f) ** 2
    # implicit derivative: dF/dRe = F / (Re (1 + X1 + F)) and
    # dlam/dF = -2 lam / F
    dlam_dq = -2.0 * lam * np.sign(q) * (diameter / eta) / \
        (re_safe * (1.0 + x1 + f))
    if np.any(rough):
        dlam_dq = np.where(rough, 0.0, dlam_dq)
        lam = np.where(rough, 1.0 / (2.0 * np.log10(b)) ** 2, lam)

    if scalar:
        return float(lam[0]), float(dlam_dq[0])
    return lam, dlam_dq


def _source(rho, q, lam, c):
    """Momentum source S = -c lambda q|q|/rho with c = 1/(2 d)."""
    return -c * lam * q * np.abs(q) / rho


def _source_partials(rho, q, friction, c):
    """(dS/drho, dS/dq) of _source for friction = (lambda, dlambda/dq)."""
    lam, dlam = friction
    return (c * lam * q * np.abs(q) / rho**2,
            -c * (dlam * q * np.abs(q) + lam * 2.0 * np.abs(q)) / rho)


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
        new level (the values of _box_blocks), in the layout described
        above, and the positions in that list of the entries the old level
        shares: mass rows by rho and momentum rows by q, each -1/2 there."""
        n, npts = len(self.left), len(self.diameter)
        jl, jr = self.left, self.left + 1
        mass = np.arange(n)
        rho_cols = [jl, jr]
        q_cols = [npts + jl, npts + jr]
        rows = np.concatenate([mass] * 4 + [n + mass] * 4)
        cols = np.concatenate(rho_cols + q_cols + rho_cols + q_cols)
        return (rows, cols), np.r_[0:2 * n, 6 * n:8 * n]


def _box_blocks(prev: PipeState, next_: PipeState, dt: float,
                grid: PipeGrid, constants: GasConstants,
                friction) -> np.ndarray:
    """Derivatives of box_residual with respect to the new level, given
    friction = friction_factor_and_derivative at the new flows.

    Returns the values in the order of grid.stencil()'s (rows, cols);
    those with respect to the old level are all -1/2, at the positions
    it names.
    """
    _check_levels(prev, next_, dt, grid)
    rho, q = next_.rho, next_.q
    jl, jr = grid.left, grid.left + 1
    r = dt / grid.dx

    dp = dpressure_drho(rho, constants)
    df2_drho = dp - (q / rho) ** 2
    df2_dq = 2.0 * q / rho
    ds_drho, ds_dq = _source_partials(rho, q, friction,
                                      1.0 / (2.0 * grid.diameter))

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
                 grid: PipeGrid, constants: GasConstants,
                 friction) -> np.ndarray:
    """Residual of the implicit box scheme: mass rows, then momentum rows,
    given friction = friction_factor_and_derivative at the new flows.

    For a balance law y_t + f(y)_x = g(y) the scheme averages states over
    each interval between the grid points L = j-1 and R = j:

        (Y_{j-1} + Y_j)/2 |_new = (Y_{j-1} + Y_j)/2 |_old
            - dt/dx (f(Y_j) - f(Y_{j-1}))|_new + dt (g(Y_j)+g(Y_{j-1}))/2 |_new
    """
    _check_levels(prev, next_, dt, grid)
    rho, q = next_.rho, next_.q
    s = _source(rho, q, friction[0], 1.0 / (2.0 * grid.diameter))
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
