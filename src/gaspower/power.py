"""AC power flow: residuals and derivatives, the grid's Newton solve, and
the plant gas-offtake curve.

A grid vector x holds V, phi, P and Q of each bus in turn, the layout of
the busses' unknowns in sim.VariableIndex.  The residual treats all four
as state; which two of them boundary data pins depends on the bus kind
(model.PINNED_QUANTITIES) and is the caller's to say.  The equations
are written once, in complex form, on the admittance table Y
(model.nodal_admittance): the computed injections are S = E conj(Y E)
with E = V e^(j phi).  The residual and both its partials read one table
of injection terms (injection_terms), so a caller that needs both at one
state computes it once.

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


def injection_terms(V, phi, Y):
    """The table A of injection terms, A_ik = E_i conj(Y_ik E_k) with
    E = V e^(j phi): bus i's computed injection P_i + jQ_i is the row sum
    S_i = sum_k A_ik, and both partials of S are read off A."""
    E = V * np.exp(1j * phi)
    return E[:, None] * np.conj(Y * E)


def powerflow_residual(P, Q, terms) -> np.ndarray:
    """2N residuals [P_k - P_k^calc ..., Q_k - Q_k^calc ...], given the
    injection terms (injection_terms).

    Zero iff the powerflow equations hold.  Invariant under a common
    shift of all phases (only phase differences enter).
    """
    mismatch = P + 1j * Q - terms.sum(axis=1)
    return np.concatenate([mismatch.real, mismatch.imag])


def injection_jacobians(V, terms):
    """Dense partials (dS/dV, dS/dphi) of the computed injections
    S = P + jQ, each N x N complex, given the injection terms
    (injection_terms).  dA_ik/dV_k = A_ik / V_k, and V_i scales all of
    row i, so dS_i/dV_i gains S_i / V_i; dA_ik/dphi_k = -j A_ik and
    dA_ik/dphi_i = j A_ik, which cancel on A_ii."""
    S = terms.sum(axis=1)
    return terms / V + np.diag(S / V), -1j * (terms - np.diag(S))


def powerflow_jacobian(V, terms) -> np.ndarray:
    """The 2N x 4N Jacobian of powerflow_residual by a grid vector: rows
    as the residual's, columns in grid-vector order."""
    n = len(V)
    ds_dv, ds_dphi = injection_jacobians(V, terms)
    # the complex mismatch P + jQ - S by (its bus, column bus, quantity)
    jac = np.zeros((n, n, 4), dtype=complex)
    jac[:, :, 0], jac[:, :, 1] = -ds_dv, -ds_dphi
    bus = np.arange(n)
    jac[bus, bus, 2], jac[bus, bus, 3] = 1.0, 1j
    return np.concatenate([jac.real, jac.imag]).reshape(2 * n, 4 * n)


def solve_powerflow(Y, bus_ids, start, pinned, values, tol: float,
                    max_iter: int = 30) -> tuple[np.ndarray, int]:
    """Newton solve of the power flow of the grid with admittance table Y
    over its unpinned unknowns: the grid vector from `start` (not
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
        terms = injection_terms(V, phi, Y)
        res = powerflow_residual(P, Q, terms)
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
            x[free] -= np.linalg.solve(powerflow_jacobian(V, terms)[:, free],
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
    return plant.a0 + plant.a1 * P + plant.a2 * P * P

