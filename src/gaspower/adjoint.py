"""Backward-in-time adjoint solve, forward sensitivities and total
control derivatives.

The discretized trajectory satisfies one block of model equations per
time level: the steady-state block at level 0 and one implicit step per
later level.  Stacked over time the Jacobian is block lower bidiagonal,
so the transposed (adjoint) system is solved backwards with one sparse
factorization per level.  Each level's CSR block J, the steady one
included, has the step pattern and is factored as J^T through the
assembler's StepOrder, as in the forward Newton solve, in the column
order learned there; LUFactors applies the order, so the adjoint solves
are plain solves.  The total derivative of a scalar functional then
needs no further linear solves.  The same blocks, solved forwards with
the transposed factors, give the state sensitivities to every control,
from which the derivatives of many functionals follow at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .sim import Simulator, Trajectory


@dataclass(frozen=True)
class AdjointState:
    """Adjoint vectors xi_n, one per time level 0..M."""

    xi: np.ndarray  # (M+1, N_y)


def _level_factors(simulator: Simulator, trajectory: Trajectory, n: int):
    """(LUFactors of the state block, dR/dy_prev in CSR, dR/du) of level
    n; at level 0 the state block is the steady one at y_0."""
    asm, y = simulator.assembler, trajectory.states
    args = trajectory.control[n], simulator.snapshots[n], simulator.scenario.dt
    if n == 0:
        jac = asm.steady_jacobian(y[0], *args)
    else:
        jac = asm.jacobian(y[n - 1], y[n], *args)[0]
    return asm.step_order.factors(jac, splu), asm.jac_prev, asm.d_du


def adjoint_sweep(simulator: Simulator, trajectory: Trajectory,
                  dj_dy: np.ndarray) -> AdjointState:
    """Solve the stacked adjoint equation for given objective partials.

    dj_dy has one row per time level.  Level M is the recursion base and
    level 0 uses the steady-state block.
    """
    dj_dy = np.asarray(dj_dy, dtype=float)
    if dj_dy.shape != trajectory.states.shape:
        raise ValueError("objective partials do not match the trajectory")

    xi = np.zeros_like(dj_dy)
    carry = np.zeros(dj_dy.shape[1])   # (dE_{n+1}/dy_n)^T xi_{n+1}
    for n in range(trajectory.step_count, -1, -1):
        lu, jac_prev, _ = _level_factors(simulator, trajectory, n)
        xi[n] = lu.solve_transposed(-dj_dy[n] - carry)
        carry = jac_prev.T @ xi[n]
    return AdjointState(xi)


def total_gradient(simulator: Simulator, trajectory: Trajectory,
                   adjoint: AdjointState, dj_du: np.ndarray) -> np.ndarray:
    """dJ/du_n = dJ/du_n|direct + xi_n . dE_n/du_n, per time level (Pa^-1)."""
    dj_du = np.asarray(dj_du, dtype=float)
    return dj_du + adjoint.xi @ simulator.assembler.d_du


def state_sensitivities(simulator: Simulator, trajectory: Trajectory,
                        columns) -> np.ndarray:
    """dy_n[columns] / du_j for all levels n and controls j (Pa^-1).

    Tangent-linear sweep forward in time, one factorization per level:
    S_0 = -(J^0)^-1 dR/du e_0^T with the steady-state block J^0, then
    S_n = -J_n^-1 (dR/dy_prev S_{n-1} + dR/du e_n^T).  A control u_j
    acts from level j on, so S_n has n + 1 nonzero columns.  Returns an
    array of shape (M+1, len(columns), M+1).
    """
    m = trajectory.step_count
    columns = np.asarray(columns, dtype=int)
    out = np.zeros((m + 1, len(columns), m + 1))
    sens = np.zeros((trajectory.states.shape[1], m + 1))
    for n in range(m + 1):
        lu, jac_prev, d_du = _level_factors(simulator, trajectory, n)
        rhs = jac_prev @ sens[:, :n + 1]   # zero at level 0
        rhs[:, n] += d_du
        sens[:, :n + 1] = -lu.solve(rhs)
        out[n] = sens[columns]
    return out


def fd_gradient(simulator: Simulator, functional, control: np.ndarray,
                components, h: float = 1.0e3) -> np.ndarray:
    """Central finite differences of functional(trajectory, control).

    `h` is the control perturbation in Pa (default 10^3 Pa, about
    0.01 bar on the physical scale).  Only the requested components are
    evaluated; each costs two full simulations.
    """
    control = np.asarray(control, dtype=float)
    out = np.full(len(control), np.nan)
    for j in components:
        up = control.copy()
        up[j] += h
        down = control.copy()
        down[j] -= h
        f_up = functional(simulator.run(up), up)
        f_down = functional(simulator.run(down), down)
        out[j] = (f_up - f_down) / (2.0 * h)
    return out
