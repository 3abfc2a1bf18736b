"""AC power flow: residuals and derivatives, the grid's Newton solve, and
the plant gas-offtake curve.

A grid vector x holds V, phi, P and Q of each bus in turn, the layout of
the busses' unknowns in sim.VariableIndex.  The residual treats all four
as state; which two of them boundary data pins depends on the bus kind
(model.PINNED_QUANTITIES) and is the caller's to say.  The residual and
its derivatives take the trig tables of the phases (_trig_tables), so a
caller that needs both at one state computes the tables once.

No power-flow row reads a gas unknown or the lift: the gas network sees
the grid only through the plant offtake eps(P) at the slack bus.  So
sim.Simulator.run solves each time level's grid alone (solve_powerflow)
before the gas, and the sweeps (see adjoint) run over the gas rows alone.
"""

from __future__ import annotations

import numpy as np

from .model import GasPowerPlant


class SimulationError(Exception):
    """A solve of the model failed (sim.SimulationError, re-exported)."""


def _trig_tables(phi, G, B):
    """(m1, m2) = (G cos d + B sin d, G sin d - B cos d) at the phase
    differences d_ik = phi_i - phi_k: the P equations read m1 and the Q
    equations m2."""
    d = phi[:, None] - phi[None, :]
    cos_d, sin_d = np.cos(d), np.sin(d)
    return G * cos_d + B * sin_d, G * sin_d - B * cos_d


def computed_injections(V, tables):
    """Network-side P and Q injections implied by voltages V and the
    trig tables of the phases (_trig_tables)."""
    m1, m2 = tables
    return V * (m1 @ V), V * (m2 @ V)


def powerflow_residual(V, P, Q, tables) -> np.ndarray:
    """2N residuals [P_k - P_k^calc ..., Q_k - Q_k^calc ...], given the
    trig tables of the phases (_trig_tables).

    Zero iff the powerflow equations hold.  Invariant under a common
    shift of all phases (only phase differences enter).
    """
    calc_p, calc_q = computed_injections(V, tables)
    return np.concatenate([P - calc_p, Q - calc_q])


def injection_jacobians(V, tables):
    """Dense partials of the computed injections w.r.t. V and phi, given
    the trig tables of the phases (_trig_tables).

    Returns (dP_dV, dP_dphi, dQ_dV, dQ_dphi), each N x N.
    """
    m1, m2 = tables
    m1v, m2v = m1 @ V, m2 @ V
    vv = V[:, None] * V[None, :]
    blocks = V[:, None] * m1, vv * m2, V[:, None] * m2, -vv * m1
    # on the diagonal, a bus's own V_i or phi_i also enters every term of
    # its row (d m1_ik / d phi_k = m2_ik, d m2_ik / d phi_k = -m1_ik)
    for block, extra in zip(blocks, (m1v, -V * m2v, m2v, V * m1v)):
        block.reshape(-1)[::len(V) + 1] += extra
    return blocks


def powerflow_jacobian(V, tables) -> np.ndarray:
    """The 2N x 4N Jacobian of powerflow_residual by a grid vector: rows
    as the residual's, columns in grid-vector order."""
    n = len(V)
    dp_dv, dp_dphi, dq_dv, dq_dphi = injection_jacobians(V, tables)
    # (P or Q row, its bus, column bus, column quantity)
    jac = np.zeros((2, n, n, 4))
    jac[0, :, :, 0], jac[0, :, :, 1] = -dp_dv, -dp_dphi
    jac[1, :, :, 0], jac[1, :, :, 1] = -dq_dv, -dq_dphi
    bus = np.arange(n)
    jac[0, bus, bus, 2] = jac[1, bus, bus, 3] = 1.0
    return jac.reshape(2 * n, 4 * n)


def solve_powerflow(G, B, bus_ids, start, pinned, values, tol: float,
                    max_iter: int = 30) -> tuple[np.ndarray, int]:
    """Newton solve of the power flow of the grid with admittance tables
    (G, B) over its unpinned unknowns: the grid vector from `start` (not
    changed) with `values` written in at the positions `pinned`, and the
    iterations taken.

    Stops at the first iterate whose max-norm power-flow residual is below
    `tol`, unscaled.  A non-finite residual, a singular Jacobian, a step
    to V <= 0 or a solve that runs out of iterations raises
    SimulationError naming the row (the non-finite one, or the one with
    the largest residual) or the bus by its id in `bus_ids`.
    """
    x = np.array(start, dtype=float)
    x[pinned] = values
    free = np.ones(len(x), dtype=bool)
    free[pinned] = False
    n = len(bus_ids)
    row_of = lambda row: \
        f"the {'PQ'[row // n]}-flow row of bus {bus_ids[row % n]}"
    for iterations in range(max_iter + 1):
        V, phi, P, Q = x.reshape(n, 4).T
        tables = _trig_tables(phi, G, B)
        res = powerflow_residual(V, P, Q, tables)
        norm = np.abs(res).max(initial=0.0)
        if norm < tol:
            return x, iterations
        if not np.isfinite(norm):
            row = np.flatnonzero(~np.isfinite(res))[0]
            raise SimulationError(f"power flow: non-finite residual in "
                                  f"{row_of(row)}")
        if iterations == max_iter:
            break
        try:
            x[free] -= np.linalg.solve(powerflow_jacobian(V, tables)[:, free],
                                       res)
        except np.linalg.LinAlgError:
            raise SimulationError("power flow: singular Jacobian") from None
        if (x[0::4] <= 0).any():
            bus = bus_ids[np.flatnonzero(x[0::4] <= 0)[0]]
            raise SimulationError(f"power flow: Newton step to V <= 0 at "
                                  f"bus {bus}")
    raise SimulationError(
        f"power flow did not reach tolerance, largest residual in "
        f"{row_of(np.abs(res).argmax())} (residual {norm:.3e} after "
        f"{max_iter} iterations)")


def plant_gas_offtake(P, plant: GasPowerPlant):
    """Volume rate eps(P) = a0 + a1 P + a2 P**2 drawn by the plant."""
    P = np.asarray(P, dtype=float)
    eps = plant.a0 + plant.a1 * P + plant.a2 * P * P
    return eps if eps.ndim else float(eps)

