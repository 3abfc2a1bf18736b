"""Gas physics on pipes.

Pressure law, Prandtl-Colebrook friction (solved in closed form), the
friction source term of the isothermal/isentropic Euler system, and the
implicit box scheme residual and its Jacobian values, evaluated on all
pipes of a network at once through a PipeGrid.  point_terms evaluates
everything the scheme needs at the grid points of the new level once:
the momentum flux, the source and their partials, given the friction
values (lambda, dlambda/dq) there.  box_residual and _box_blocks only
apply the interval stencil to those terms (box_residual on every pair of
neighbouring points, keeping the pairs that are intervals), so a caller
that needs the residual and the Jacobian at one state evaluates the
pointwise physics once, and one that kept a state's lambda gets dlambda/dq
from friction_derivative, with no Colebrook solve; the old level enters as
its pair_means, computed once per step.  PipeGrid.stack checks dx, d and
k and keeps Colebrook's constants per point and the stencil's other fixed
data.  Each kernel has one form: it reads the geometry from a PipeGrid
and the gas from the network's GasConstants, neither defaulted.
All functions are pure and reentrant.  The kernels compute in place, in
each formula's order of evaluation, but only in arrays they allocate:
no input is written, so friction may be a view of a stored trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import GasConstants

# Below this Reynolds number the Colebrook equation degenerates; the
# fully-rough limit is used instead.  The source term still vanishes at
# q = 0 through the q|q| factor.
REYNOLDS_ROUGH_LIMIT = 100.0

_LN10 = np.log(10.0)


def check_densities(rho: np.ndarray):
    """Raise ValueError unless every density of the array rho is positive
    and finite (NaN is neither)."""
    if not ((rho > 0) & (rho < np.inf)).all():
        raise ValueError("densities must be positive and finite")


def _pressure(rho, constants: GasConstants):   # unchecked
    return constants.kappa * rho**constants.gamma


def pressure_of_density(rho, constants: GasConstants):
    """p(rho) = kappa * rho**gamma, for densities rho >= 0."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("density must be >= 0")
    return _pressure(rho, constants)


def density_of_pressure(p, constants: GasConstants):
    """Inverse pressure law, rho = (p/kappa)**(1/gamma), for p >= 0."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValueError("pressure must be >= 0")
    return (p / constants.kappa) ** (1.0 / constants.gamma)


def dpressure_drho(rho, constants: GasConstants):
    rho = np.asarray(rho, dtype=float)
    return constants.kappa * constants.gamma * rho ** (constants.gamma - 1.0)


def friction_factor_and_derivative(q, grid: PipeGrid):
    """Colebrook friction factor lambda(q) and d lambda / d q at the flows
    q of grid's points, vectorized.

    Solves 1/sqrt(lam) = -2 log10(2.51/(Re sqrt(lam)) + k/(3.71 d)) with
    Re = d |q| / eta in closed form by Clamond's algorithm (Ind. Eng.
    Chem. Res. 48 (2009) 3665): with X1 = b Re ln10/5.02, b = k/(3.71 d),
    and X2 = ln(Re ln10/5.02), F solves F + ln(X1 + F) = X2, and two fixed
    third-order steps from F = X2 - 0.2 reach machine precision;
    x = 1/sqrt(lam) = 2 F/ln10.  The derivative comes from implicit
    differentiation of the same equation.  Below REYNOLDS_ROUGH_LIMIT the
    rough limit, or Colebrook's value at that limit if k = 0, is returned
    with zero derivative.  d, eta, b and d/eta come per point from
    grid.colebrook.
    """
    diameter, eta, b, d_eta = grid.colebrook
    re, re_scaled, rough = _reynolds(q, diameter, eta)
    x1, x2 = b * re_scaled, np.log(re_scaled)
    f = x2 - 0.2
    s, s1, e, den = np.empty((4,) + f.shape)
    for _ in range(2):
        # e = (ln s + f - X2) / s1 and f -= (s1 + e/2) e s / (s1 + e (1 + e/3))
        np.add(x1, f, out=s)
        np.add(s, 1.0, out=s1)
        np.log(s, out=e)
        e += f
        e -= x2
        e /= s1
        np.divide(e, 3.0, out=den)
        den += 1.0
        den *= e
        den += s1
        s1 += 0.5 * e
        s1 *= e
        s *= s1
        s /= den
        f -= s
    lam = (0.5 * _LN10 / f) ** 2
    dlam_dq = _dlam_dq(q, lam, f, re, x1, d_eta, rough)
    if rough is not None:
        rough &= b > 0   # a smooth pipe keeps Colebrook's lam at the limit
        lam = np.where(rough, 1.0 / (2.0 * np.log10(
            b, where=rough, out=np.ones_like(lam))) ** 2, lam)
    return lam, dlam_dq


def _reynolds(q, diameter, eta):
    """Re = d |q| / eta, raised to REYNOLDS_ROUGH_LIMIT where it is below,
    Re ln10 / 5.02, and the mask of the raised points (None if none)."""
    re = np.abs(q)
    re *= diameter
    re /= eta
    rough = re < REYNOLDS_ROUGH_LIMIT
    if not rough.any():
        return re, re * (_LN10 / 5.02), None
    np.maximum(re, REYNOLDS_ROUGH_LIMIT, out=re)
    return re, re * (_LN10 / 5.02), rough


def _dlam_dq(q, lam, f, re, x1, d_eta, rough):
    """dlam/dq = (-2 lam / F) (F / (Re (1 + X1 + F))) sign(q) d / eta, and
    0 at the `rough` points, in place: it overwrites f, re and x1."""
    x1 += 1.0
    x1 += f
    x1 *= re
    np.multiply(lam, -2.0, out=f)
    f *= np.sign(q, out=re)
    f *= d_eta
    f /= x1
    if rough is not None:
        f[rough] = 0.0
    return f


def friction_derivative(q, lam, grid: PipeGrid):
    """dlambda/dq of Colebrook's lambda at grid's flows q, without a solve."""
    d, eta, b, d_eta = grid.colebrook
    re, x1, rough = _reynolds(q, d, eta)
    x1 *= b
    return _dlam_dq(q, lam, 0.5 * _LN10 / np.sqrt(lam), re, x1, d_eta, rough)


@dataclass(frozen=True, eq=False)
class PipeGrid:
    """Grid points of several pipes stacked end to end.

    Points are numbered pipe after pipe, each pipe owning points
    0..cell_count of its own.  The box-scheme unknowns are all densities,
    then all flows; its rows are all mass rows, then all momentum rows,
    one per cell interval.  An interval never joins two pipes; of the
    pairs of neighbouring points (j, j + 1), the intervals are those that
    start at `left`, and a pair across a pipe joint has a placeholder dx.
    """

    left: np.ndarray       # left grid point of each interval
    ends: np.ndarray       # (2, intervals): left and right point, left + 1
    dx: np.ndarray         # m, per interval
    pair_dx: np.ndarray    # m, per neighbour pair; 1 across a pipe joint
    diameter: np.ndarray   # m, per point
    source_scale: np.ndarray   # -1/(2 d) per point: S = it lam q|q| / rho
    colebrook: tuple       # (d, eta, b, d/eta), d, b and d/eta per point

    @staticmethod
    def stack(cell_counts, dx, diameter, roughness, eta):
        """Grid of pipes given per pipe: cells, cell length, d, k (m); eta."""
        counts = np.asarray(cell_counts, dtype=int)
        points = counts + 1
        d = np.asarray(diameter, dtype=float)
        if (np.asarray(dx) <= 0).any():
            raise ValueError("dx must be positive")
        if (d <= 0).any():
            raise ValueError("diameter must be positive")
        if (np.asarray(roughness) < 0).any():
            raise ValueError("roughness must be >= 0")
        d, b, d_eta = np.repeat([d, roughness / (3.71 * d), d / eta], points,
                                axis=1)
        # interval j (counted over all pipes) of pipe k starts at point j + k
        left = np.arange(counts.sum()) + np.arange(counts.size).repeat(counts)
        dx = np.repeat(dx, counts)
        pair_dx = np.ones(points.sum() - 1)
        pair_dx[left] = dx
        return PipeGrid(left, np.stack([left, left + 1]), dx, pair_dx, d,
                        -1.0 / (2.0 * d), (d, eta, b, d_eta))

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
        jl, jr = self.ends
        mass = np.arange(n)
        rho_cols = [jl, jr]
        q_cols = [npts + jl, npts + jr]
        rows = np.concatenate([mass] * 4 + [n + mass] * 4)
        cols = np.concatenate(rho_cols + q_cols + rho_cols + q_cols)
        return (rows, cols), np.r_[0:2 * n, 6 * n:8 * n]


class PointTerms(NamedTuple):
    """Pointwise terms of the box scheme at the grid points of one level."""

    rho: np.ndarray
    q: np.ndarray
    f2: np.ndarray        # momentum flux p(rho) + q^2/rho
    source: np.ndarray    # S = -lambda q|q| / (2 d rho)
    df2_drho: np.ndarray
    df2_dq: np.ndarray
    ds_drho: np.ndarray
    ds_dq: np.ndarray


def point_terms(rho: np.ndarray, q: np.ndarray, grid: PipeGrid,
                constants: GasConstants, friction) -> PointTerms:
    """The flux, the source and their partials at densities rho > 0 (not
    checked) and flows q, given their friction_factor_and_derivative."""
    lam, dlam = friction
    c = grid.source_scale           # -1/(2 d)
    p = _pressure(rho, constants)
    abs_q = np.abs(q)
    s = c * lam                     # S = c lam q |q| / rho
    s *= q
    s *= abs_q
    s /= rho
    ds_dq = dlam * q                # c (dlam q |q| + lam 2 |q|) / rho
    ds_dq *= abs_q
    abs_q *= lam * 2.0
    ds_dq += abs_q
    ds_dq *= c
    ds_dq /= rho
    f2 = q * q                      # p + q^2 / rho
    f2 /= rho
    f2 += p
    v = np.divide(q, rho, out=abs_q)
    # df2/drho = gamma p / rho - v^2 (in p), and dS/drho = -S / rho
    p *= constants.gamma
    p /= rho
    p -= v * v
    ds_drho = -s
    ds_drho /= rho
    return PointTerms(rho, q, f2, s, p, 2.0 * v, ds_drho, ds_dq)


def _box_blocks(new: PointTerms, dt: float, grid: PipeGrid) -> np.ndarray:
    """Derivatives of box_residual with respect to the new level, at the
    level whose terms are `new`.

    Returns the values in the order of grid.stencil()'s (rows, cols);
    those with respect to the old level are all -1/2, at the positions
    it names.
    """
    out = np.empty((8, len(grid.left)))
    # mass rows: 1/2, 1/2, -r, r; momentum rows: -r or r times the flux
    # partial at L or R (plus 1/2 by q), less dt/2 times the source's
    out[:2] = 0.5
    np.negative(np.divide(dt, grid.dx, out=out[3]), out=out[2])
    momentum = out[4:].reshape(2, 2, -1)
    source = np.empty_like(momentum)
    # the points are in range, and mode="clip" makes take write straight out
    for k, (flux, part) in enumerate([(new.df2_drho, new.ds_drho),
                                      (new.df2_dq, new.ds_dq)]):
        flux.take(grid.ends, out=momentum[k], mode="clip")
        part.take(grid.ends, out=source[k], mode="clip")
    momentum *= out[2:4]
    momentum[1] += 0.5
    source *= dt * 0.5
    momentum -= source
    return out.ravel()


def pair_means(rho: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Means of the densities (row 0) and flows (row 1) of one level over
    all pairs of neighbouring points, pipe joints included."""
    means = np.array([rho[:-1] + rho[1:], q[:-1] + q[1:]])
    means *= 0.5
    return means


def box_residual(old_means: np.ndarray, new: PointTerms, dt: float,
                 grid: PipeGrid) -> np.ndarray:
    """Residual of the implicit box scheme: mass rows, then momentum rows,
    from the old level's pair_means and the new level's terms.  Each row
    is computed on the contiguous neighbour pairs (a[:-1], a[1:]) of all
    points, pipe joints included (at grid.pair_dx's placeholder), and one
    take at grid.left keeps the intervals.

    For a balance law y_t + f(y)_x = g(y) the scheme averages states over
    each interval between the grid points L = j-1 and R = j:

        (Y_{j-1} + Y_j)/2 |_new = (Y_{j-1} + Y_j)/2 |_old
            - dt/dx (f(Y_j) - f(Y_{j-1}))|_new + dt (g(Y_j)+g(Y_{j-1}))/2 |_new
    """
    rho, q, f2, s = new.rho, new.q, new.f2, new.source
    pairs = pair_means(rho, q)
    pairs -= old_means
    diff = np.empty_like(pairs)
    for d, a in zip(diff, (q, f2)):
        np.subtract(a[1:], a[:-1], out=d)
    diff *= dt / grid.pair_dx
    pairs += diff
    source = np.add(s[1:], s[:-1], out=diff[0])
    source *= dt * 0.5
    pairs[1] -= source
    return pairs.take(grid.left, axis=1).ravel()
