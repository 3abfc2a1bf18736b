"""AC powerflow residuals and Jacobians, plus the plant gas-offtake curve.

The residual treats all four quantities (V, phi, P, Q) at every bus as
state; which of them are fixed by boundary data depends on the bus kind
(slack / PV / PQ) and is handled by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .model import (PINNED_QUANTITIES, GasPowerPlant, PowerGrid,
                    nodal_admittance)


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


def _trig_tables(V, phi, G, B):
    d = phi[:, None] - phi[None, :]
    cos_d, sin_d = np.cos(d), np.sin(d)
    m1 = G * cos_d + B * sin_d     # enters the P equation
    m2 = G * sin_d - B * cos_d     # enters the Q equation
    return m1, m2, cos_d, sin_d


def computed_injections(V, phi, G, B):
    """Network-side P and Q injections implied by voltages and phases."""
    m1, m2, _, _ = _trig_tables(V, phi, G, B)
    return V * (m1 @ V), V * (m2 @ V)


def powerflow_residual(state: PowerState, G: np.ndarray,
                       B: np.ndarray) -> np.ndarray:
    """2N residuals [P_k - P_k^calc ..., Q_k - Q_k^calc ...].

    Zero iff the powerflow equations hold.  Invariant under a common
    shift of all phases (only phase differences enter).
    """
    if G.shape != (len(state.bus_ids),) * 2:
        raise ValueError("admittance table does not match the state dimension")
    calc_p, calc_q = computed_injections(state.V, state.phi, G, B)
    return np.concatenate([state.P - calc_p, state.Q - calc_q])


def injection_jacobians(V, phi, G, B):
    """Dense partials of the computed injections w.r.t. V and phi.

    Returns (dP_dV, dP_dphi, dQ_dV, dQ_dphi), each N x N.
    """
    m1, m2, cos_d, sin_d = _trig_tables(V, phi, G, B)
    d1 = -G * sin_d + B * cos_d    # d m1 / d phi_k

    dp_dv = V[:, None] * m1
    np.fill_diagonal(dp_dv, m1 @ V + V * np.diag(m1))
    dq_dv = V[:, None] * m2
    np.fill_diagonal(dq_dv, m2 @ V + V * np.diag(m2))

    vv = V[:, None] * V[None, :]
    dp_dphi = -vv * d1
    np.fill_diagonal(dp_dphi, V * (d1 @ V - V * np.diag(d1)))
    dq_dphi = -vv * m1
    np.fill_diagonal(dq_dphi, V * (m1 @ V - V * np.diag(m1)))
    return dp_dv, dp_dphi, dq_dv, dq_dphi


def free_variables(grid: PowerGrid) -> list[tuple[str, str]]:
    """Unknowns of the classic reduced powerflow: per bus, in the order
    phi, V, P, Q, the two quantities its kind does not pin."""
    return [(bus.id, quant) for bus in grid.busses
            for quant in ("phi", "V", "P", "Q")
            if quant not in PINNED_QUANTITIES[bus.kind]]


def powerflow_jacobian(state: PowerState, G: np.ndarray, B: np.ndarray,
                       free: list[tuple[str, str]]):
    """Sparse derivative of powerflow_residual w.r.t. the free unknowns."""
    n = len(state.bus_ids)
    pos = {bid: i for i, bid in enumerate(state.bus_ids)}
    dp_dv, dp_dphi, dq_dv, dq_dphi = injection_jacobians(state.V, state.phi, G, B)

    jac = np.zeros((2 * n, len(free)))
    for col, (bid, quant) in enumerate(free):
        k = pos[bid]
        if quant == "V":
            jac[:n, col] = -dp_dv[:, k]
            jac[n:, col] = -dq_dv[:, k]
        elif quant == "phi":
            jac[:n, col] = -dp_dphi[:, k]
            jac[n:, col] = -dq_dphi[:, k]
        elif quant == "P":
            jac[k, col] = 1.0
        elif quant == "Q":
            jac[n + k, col] = 1.0
        else:
            raise ValueError(f"unknown quantity {quant!r}")
    return sparse.csr_matrix(jac)


def solve_powerflow(grid: PowerGrid, fixed: dict[tuple[str, str], float],
                    tol: float = 1e-12, max_iter: int = 30) -> PowerState:
    """Newton solve of the powerflow equations for one grid in isolation.

    `fixed` maps (bus id, quantity) to its boundary value; it must pin
    the quantities that model.PINNED_QUANTITIES names for each bus.
    """
    G, B, order = nodal_admittance(grid)
    n = len(order)
    V = np.ones(n)
    phi = np.zeros(n)
    P = np.zeros(n)
    Q = np.zeros(n)
    arrays = {"V": V, "phi": phi, "P": P, "Q": Q}
    pos = {bid: i for i, bid in enumerate(order)}
    for (bid, quant), value in fixed.items():
        arrays[quant][pos[bid]] = value

    free = free_variables(grid)
    state = PowerState(tuple(order), V, phi, P, Q)
    for _ in range(max_iter):
        res = powerflow_residual(state, G, B)
        if np.max(np.abs(res)) < tol:
            return state
        jac = powerflow_jacobian(state, G, B, free)
        step = np.linalg.solve(jac.toarray(), -res)
        V, phi = state.V.copy(), state.phi.copy()
        P, Q = state.P.copy(), state.Q.copy()
        arrays = {"V": V, "phi": phi, "P": P, "Q": Q}
        for col, (bid, quant) in enumerate(free):
            arrays[quant][pos[bid]] += step[col]
        state = PowerState(tuple(order), V, phi, P, Q)
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
