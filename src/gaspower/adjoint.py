"""Backward-in-time adjoint solve, forward sensitivities and total
control derivatives.

The discretized trajectory satisfies one block of model equations per
time level: the steady-state block at level 0 and one implicit step per
later level.  Stacked over time the Jacobian is block lower bidiagonal,
and each level's block is block triangular, [[J_gg, J_gb], [0, J_bb]]:
no grid row reads a gas unknown, the old level or the lift (see sim).
So the grid's multipliers never reach the gas rows', and, as the lift
enters the compressor rows alone, no control gradient reads them: the
transposed (adjoint) system is solved backwards over the gas rows alone,
with one factorization per level: the steady block and each step block
condensed onto the network by lu.LevelCondensation (shooting along each
pipe, with banded triangular substitutions, dtbtrs).  Every state is
known before a sweep starts, so _level_factors evaluates and condenses
the levels in batches (BATCH_BYTES), one stacked condensation per batch,
with one jacobian() call and one splu per level; only each level's solve
and the carry to the next run in the sweep's order.  Each block is
evaluated at the stored state with the lambda the forward run kept for
it (sim.Trajectory.friction), dlambda/dq rebuilt from it, so no sweep
solves Colebrook.  The total derivative of a scalar functional then
needs no further linear solves.  The same gas blocks, solved forwards,
give the state sensitivities to every control, whence the derivatives of
many functionals follow at once; the grid's are zero.  A state whose
densities are not positive and finite raises ValueError, and a block the
factors refuse (singular, or a pipe whose march grows past
lu.MAX_MARCH_GROWTH) sim.SingularJacobian, each naming the sweep, the
level and its time: the first failing level in the sweep's order.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.sparse.linalg import splu

from .sim import SimulationError, SingularJacobian, Simulator, Trajectory


# The most bytes of level Jacobian values a sweep condenses at once: 13
# bundled levels (9.7 kB each), one on the benchmark's 10x networks (94-97
# kB), where a stacked condensation measured slower than one per level.
BATCH_BYTES = 2**17


def _level_factors(simulator: Simulator, trajectory: Trajectory,
                   sweep: str):
    """(n, factors of level n's gas block) for each level n in the sweep's
    order, M..0 for the "adjoint" sweep and 0..M for the "tangent" one:
    assembler.level_block of the steady block at level 0 and of a step
    block else, as in the forward Newton solve, at states[n] evaluated with
    the trajectory's friction[n] instead of a new Colebrook solve.

    Levels are evaluated, and condensed by one condensation.factors call,
    in batches of at most BATCH_BYTES of Jacobian values, with one
    jacobian() call and one splu per level; a batch of one level is
    factored as the forward solve factors it (assembler.factors).  A level
    whose densities are not positive and finite raises ValueError, and one
    whose block the factors refuse SingularJacobian, each naming the first
    such level in the sweep's order, as a sweep level by level would: a
    batch that fails is done again one level at a time."""
    asm, dt, m = simulator.assembler, simulator.scenario.dt, \
        trajectory.step_count
    levels = range(m, -1, -1) if sweep == "adjoint" else range(m + 1)
    per_batch = max(1, BATCH_BYTES // (8 * len(asm.entries[0])))
    batches = [levels[i:i + per_batch] for i in range(0, m + 1, per_batch)]
    while batches:
        batch = batches.pop(0)
        if len(batch) == 1:
            n = batch[0]
            try:
                lu = asm.factors(asm.evaluate(trajectory.states[n, :asm.size],
                                              trajectory.friction[n]),
                                 dt, splu, n == 0)
            except (ValueError, RuntimeError) as exc:   # RuntimeError: lu's
                kind = ValueError if isinstance(exc, ValueError) else \
                    SingularJacobian
                raise kind(f"{sweep} sweep, level {n} (t = "
                           f"{trajectory.times[n] / 3600.0:.2f} h): {exc}"
                           ) from None
            yield n, lu
            continue
        rows = slice(batch.start, batch.stop if batch.stop >= 0 else None,
                     batch.step)
        try:
            it = asm.evaluate(trajectory.states[rows, :asm.size],
                              trajectory.friction[rows])
            values = np.array([asm.level_block(level, dt, n == 0)
                               for level, n in zip(it.levels(), batch)])
            del it
            factors = asm.condensation.factors(values, splu)
        except (ValueError, RuntimeError):   # name the first failing level
            batches[:0] = [batch[i:i + 1] for i in range(len(batch))]
            continue
        yield from zip(batch, factors)


def adjoint_sweep(simulator: Simulator, trajectory: Trajectory,
                  dj_dy: np.ndarray) -> np.ndarray:
    """The gas rows' adjoint vectors xi, (M+1, assembler.size), for the
    objective partials dj_dy, one full state per time level.

    Level M is the recursion base and level 0 uses the steady-state block.
    The grid columns of dj_dy change no control gradient: they reach only
    the grid's multipliers, which no gas row or control reads.
    """
    dj_dy = np.asarray(dj_dy, dtype=float)
    if dj_dy.shape != trajectory.states.shape:
        raise ValueError("objective partials do not match the trajectory")

    asm = simulator.assembler
    xi = np.zeros((len(dj_dy), asm.size))
    carry = np.zeros(asm.size)   # (dE_{n+1}/dy_n)^T xi_{n+1}
    prev_t = asm.jac_prev.T      # CSC, shared by all levels
    for n, lu in _level_factors(simulator, trajectory, "adjoint"):
        xi[n] = lu.solve_transposed(-dj_dy[n, :asm.size] - carry)
        carry = prev_t @ xi[n]
    return xi


def total_gradient(simulator: Simulator, trajectory: Trajectory,
                   xi: np.ndarray, dj_du: np.ndarray) -> np.ndarray:
    """dJ/du_n = dj_du[n] + xi[n] . dE_n/du_n (Pa^-1); xi of adjoint_sweep."""
    return np.asarray(dj_du, dtype=float) + xi @ simulator.assembler.d_du


def state_sensitivities(simulator: Simulator, trajectory: Trajectory,
                        columns) -> np.ndarray:
    """dy_n[columns] / du_j for all levels n and controls j (Pa^-1).

    Tangent-linear sweep forward in time, one factorization per level:
    S_0 = -(J^0)^-1 dR/du e_0^T with the steady-state block J^0, then
    S_n = -J_n^-1 (dR/dy_prev S_{n-1} + dR/du e_n^T), over the gas rows
    and columns: the grid reads no control, so its rows of S are zero.  A
    control u_j acts from level j on, so S_n has n + 1 nonzero columns.
    Returns an array of shape (M+1, len(columns), M+1).
    """
    m = trajectory.step_count
    columns = np.asarray(columns, dtype=int)
    out = np.zeros((m + 1, len(columns), m + 1))
    sens = np.zeros((trajectory.states.shape[1], m + 1))
    asm = simulator.assembler
    gas = sens[:asm.size]
    for n, lu in _level_factors(simulator, trajectory, "tangent"):
        rhs = asm.jac_prev @ gas[:, :n + 1]   # zero at level 0
        rhs[:, n] += asm.d_du
        gas[:, :n + 1] = -lu.solve(rhs)
        out[n] = sens[columns]
    return out


def fd_gradient(simulator: Simulator, functional, control: np.ndarray,
                components, h: float = 100.0) -> np.ndarray:
    """Extrapolated central differences of functional(trajectory, control).

    `h` is the control perturbation in Pa (default 100 Pa, 1 mbar).  The
    central difference D(h) has two errors, and each exceeds 1e-6 of the
    gradient somewhere at 100 Pa.  Its truncation grows with h^2 (1.6e-6
    on the many-pipes benchmark network, variant 19, component 12); the
    Richardson value (4 D(h) - D(2h)) / 3 is O(h^4) (6.8e-8 there).  The
    error of the costs, set by the Newton tolerance, is divided by 2h
    (1.6e-6 at component 48 of the bundled case at a constant 10 bar
    lift, which acts on the last step alone); so the perturbed runs are
    solved to a Newton tolerance of 1e-12 (2.9e-10 there) on a second
    Simulator of the same network and scenario.  Only the requested
    components are evaluated; each costs four full simulations.  A failed
    run raises SimulationError naming the component and the perturbation.
    """
    control = np.asarray(control, dtype=float)
    fine = Simulator(simulator.network,
                     replace(simulator.scenario, newton_tol=1.0e-12))
    out = np.full(len(control), np.nan)
    for j in components:
        f = []
        for step, what in ((h, "+ h"), (-h, "- h"),
                           (2.0 * h, "+ 2h"), (-2.0 * h, "- 2h")):
            u = control.copy()
            u[j] += step
            try:
                f.append(functional(fine.run(u), u))
            except SimulationError as exc:
                raise SimulationError(
                    f"finite-difference run, component {j}, u {what} "
                    f"(h = {h:g} Pa): {exc}") from exc
        d_h, d_2h = (f[0] - f[1]) / (2.0 * h), (f[2] - f[3]) / (4.0 * h)
        out[j] = (4.0 * d_h - d_2h) / 3.0
    return out
