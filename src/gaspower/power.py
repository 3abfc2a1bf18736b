"""AC powerflow residuals and derivatives, plus the plant gas-offtake curve.

The residual treats all four quantities (V, phi, P, Q) at every bus as
state; which of them are fixed by boundary data depends on the bus kind
(slack / PV / PQ) and is handled by the caller.  The residual and its
derivatives take the trig tables of the phases (_trig_tables), so a
caller that needs both at one state computes the tables once.  The step
system of sim solves the power flow with the gas; solve_powerflow solves
a grid alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (BUS_QUANTITIES, PINNED_QUANTITIES, GasPowerPlant,
                    PowerGrid, nodal_admittance)


@dataclass(frozen=True)
class PowerState:
    """Voltage magnitude, phase, real and reactive injection per bus."""

    bus_ids: tuple[str, ...]
    V: np.ndarray
    phi: np.ndarray
    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        n = len(self.bus_ids)
        for name in ("V", "phi", "P", "Q"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have one entry per bus")
            object.__setattr__(self, name, arr)
        if np.any(self.V <= 0):
            raise ValueError("voltage magnitudes must be positive")


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


def solve_powerflow(grid: PowerGrid, fixed: dict[tuple[str, str], float],
                    tol: float = 1e-12, max_iter: int = 30) -> PowerState:
    """Newton solve of the powerflow equations for one grid in isolation,
    from V = 1, phi = P = Q = 0, over the columns of the unpinned unknowns.

    `fixed` maps (bus id, quantity) to its boundary value; it must pin
    the quantities that model.PINNED_QUANTITIES names for each bus.
    """
    G, B, order = nodal_admittance(grid)
    n = len(order)
    col = {(bid, q): k * n + i for k, q in enumerate(BUS_QUANTITIES)
           for i, bid in enumerate(order)}
    y = np.concatenate([np.ones(n), np.zeros(3 * n)])
    for key, value in fixed.items():
        y[col[key]] = value
    free = np.setdiff1d(np.arange(4 * n), [
        col[(bus.id, q)] for bus in grid.busses
        for q in PINNED_QUANTITIES[bus.kind]])
    eye, zero = np.eye(n), np.zeros((n, n))
    for _ in range(max_iter):
        state = PowerState(tuple(order), *y.reshape(4, n))
        tables = _trig_tables(state.phi, G, B)
        res = powerflow_residual(state.V, state.P, state.Q, tables)
        if np.max(np.abs(res)) < tol:
            return state
        dp_dv, dp_dphi, dq_dv, dq_dphi = injection_jacobians(state.V, tables)
        jac = np.block([[-dp_dv, -dp_dphi, eye, zero],
                        [-dq_dv, -dq_dphi, zero, eye]])
        y[free] += np.linalg.solve(jac[:, free], -res)
    raise RuntimeError(f"powerflow did not converge (residual {np.max(np.abs(res)):.2e})")


def plant_gas_offtake(P, plant: GasPowerPlant):
    """Volume rate eps(P) = a0 + a1 P + a2 P**2 drawn by the plant."""
    P = np.asarray(P, dtype=float)
    eps = plant.a0 + plant.a1 * P + plant.a2 * P * P
    return eps if eps.ndim else float(eps)


def plant_gas_offtake_derivative(P, plant: GasPowerPlant):
    P = np.asarray(P, dtype=float)
    d = plant.a1 + 2.0 * plant.a2 * P
    return d if d.ndim else float(d)
