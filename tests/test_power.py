"""Powerflow residual, its derivatives and solve, and the plant offtake
curve."""

from dataclasses import replace

import numpy as np
import pytest

from gaspower import power
from gaspower.model import (BUS_QUANTITIES, PINNED_QUANTITIES, PV, SLACK,
                            GasPowerPlant, PowerGrid, nodal_admittance)

PLANT = GasPowerPlant("PL", "S4", "N1", a0=2.0, a1=5.0, a2=10.0)


def residual(V, phi, P, Q, Y):
    """powerflow_residual at the given V, phi, P and Q."""
    return power.powerflow_residual(P, Q, power.injection_terms(V, phi, Y))


def chain_of_copies(grid, copies=10):
    """`copies` copies of the grid, ids suffixed by the copy, copy k's N4
    tied to copy k + 1's N4 by a line like TL45, the copies' N1 past the
    first made generators: 90 busses from the bundled grid."""
    tie, = (line for line in grid.lines if line.id == "TL45")
    busses, lines = [], []
    for k in range(copies):
        busses += [replace(bus, id=f"{bus.id}_{k}", kind=PV if k and
                           bus.kind == SLACK else bus.kind)
                   for bus in grid.busses]
        lines += [replace(line, id=f"{line.id}_{k}",
                          from_bus=f"{line.from_bus}_{k}",
                          to_bus=f"{line.to_bus}_{k}") for line in grid.lines]
        if k:
            lines.append(replace(tie, id=f"TL44_{k}", from_bus=f"N4_{k - 1}",
                                 to_bus=f"N4_{k}"))
    return PowerGrid(tuple(busses), tuple(lines))


def flat_state(order):
    """V = 1 and phi = P = Q = 0 at every bus."""
    n = len(order)
    return np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n)


@pytest.fixture(scope="module")
def bundled_module(bundled):
    network, _ = bundled
    return network


@pytest.fixture(scope="module")
def admittance(bundled_module):
    return nodal_admittance(bundled_module.grid)


@pytest.fixture(scope="module")
def chain_admittance(bundled_module):
    return nodal_admittance(chain_of_copies(bundled_module.grid))


def grid_position(asm, bus_id, quantity):
    """The position of a bus quantity in a grid vector."""
    return asm.index.bus[(bus_id, quantity)] - asm.size


def test_free_and_pinned_quantities_split_every_bus(bundled_simulator):
    """Each bus pins two of its quantities, the assembler's pinned
    positions are those, and at the flat grid (V = 1, phi = P = Q = 0, the
    pinned values written in) the power-flow Jacobian over the other 2N
    columns is a nonsingular square system."""
    asm, snap = bundled_simulator.assembler, bundled_simulator.snapshots[0]
    free, pinned_at, kinds = [], [], set()
    for bus in asm.busses:
        pinned = PINNED_QUANTITIES[bus.kind]
        mine = [q for q in BUS_QUANTITIES if q not in pinned]
        assert len(mine) == len(set(pinned)) == 2
        free += [grid_position(asm, bus.id, q) for q in mine]
        pinned_at += [grid_position(asm, bus.id, q) for q in pinned]
        kinds.add(bus.kind)
    assert kinds == set(PINNED_QUANTITIES)
    assert asm.grid_pinned.tolist() == pinned_at
    grid = np.tile([1.0, 0.0, 0.0, 0.0], len(asm.busses))
    grid[asm.grid_pinned] = snap.bus_fixed.ravel()
    jac = power.powerflow_jacobian(
        grid[0::4], power.injection_terms(grid[0::4], grid[1::4], asm.Y))
    assert jac.shape == (len(free), len(grid))
    assert np.linalg.matrix_rank(jac[:, free]) == len(free)


class TestResidual:
    def test_flat_state_rowsum_n1(self, admittance):
        """Computed injections at N1 with all V=1, phi=0 are exactly zero."""
        Y, order = admittance
        res = residual(*flat_state(order), Y)
        k = order.index("N1")
        assert abs(res[k]) < 1e-12
        assert abs(res[len(order) + k]) < 1e-12

    def test_flat_state_general_rowsums(self, admittance):
        Y, order = admittance
        n = len(order)
        res = residual(*flat_state(order), Y)
        # with P = Q = 0 the residual is minus the computed injection
        assert np.allclose(-res[:n], Y.real.sum(axis=1), atol=1e-12)
        assert np.allclose(-res[n:], -Y.imag.sum(axis=1), atol=1e-12)

    def test_matches_the_trig_form(self, admittance):
        """At random states the residual is the real trig form of the
        power-flow equations, written out here with G = Re Y, B = Im Y
        and theta_ik = phi_i - phi_k."""
        Y, order = admittance
        G, B = Y.real, Y.imag
        rng = np.random.default_rng(3)
        n = len(order)
        for _ in range(5):
            V, phi, P, Q = (rng.uniform(0.9, 1.1, n),
                            rng.uniform(-0.4, 0.4, n),
                            rng.uniform(-2, 2, n), rng.uniform(-1, 1, n))
            theta = phi[:, None] - phi[None, :]
            cos, sin = np.cos(theta), np.sin(theta)
            p_calc = V * ((G * cos + B * sin) @ V)
            q_calc = V * ((G * sin - B * cos) @ V)
            expected = np.concatenate([P - p_calc, Q - q_calc])
            assert np.max(np.abs(residual(V, phi, P, Q, Y) - expected)) \
                < 1e-12

    def test_phase_shift_invariance(self, admittance):
        Y, order = admittance
        rng = np.random.default_rng(2)
        n = len(order)
        V, phi, P, Q = (rng.uniform(0.9, 1.1, n), rng.uniform(-0.3, 0.3, n),
                        rng.uniform(-2, 2, n), rng.uniform(-1, 1, n))
        r1 = residual(V, phi, P, Q, Y)
        r2 = residual(V, phi + 0.7, P, Q, Y)
        assert np.allclose(r1, r2, atol=1e-9)

    def test_dimension_mismatch_rejected(self, admittance):
        Y, order = admittance
        small = flat_state(order[:-1])
        with pytest.raises(ValueError):
            residual(*small, Y)


class TestJacobian:
    """injection_jacobians, and powerflow_jacobian, the grid's Jacobian."""

    def _check(self, V, phi, Y, h=1e-5):
        """injection_jacobians against central differences of the
        computed injections, the row sums of the injection terms, real
        parts above imaginary ones.  The differences' rounding error,
        about 1e-16 |S| / h, stays below 1e-6 of the smallest partials
        (6.5e-4 on the chain) at this h, and their truncation error too."""
        n = len(V)
        x = np.concatenate([V, phi])

        def calc(x):
            S = power.injection_terms(x[:n], x[n:], Y).sum(axis=1)
            return np.concatenate([S.real, S.imag])

        fd = np.column_stack([(calc(x + h * e) - calc(x - h * e)) / (2 * h)
                              for e in np.eye(2 * n)])
        ds_dv, ds_dphi = power.injection_jacobians(
            V, power.injection_terms(V, phi, Y))
        jac = np.block([[ds_dv.real, ds_dphi.real],
                        [ds_dv.imag, ds_dphi.imag]])
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(jac - fd) / denom) < 1e-6

    def test_matches_fd_at_flat_state(self, admittance):
        Y, order = admittance
        n = len(order)
        self._check(np.ones(n), np.zeros(n), Y)

    def test_matches_fd_at_random_state(self, admittance, chain_admittance):
        for Y, order in (admittance, chain_admittance):
            rng = np.random.default_rng(4)
            n = len(order)
            self._check(rng.uniform(0.9, 1.1, n), rng.uniform(-0.4, 0.4, n),
                        Y)

    def test_slack_power_column_is_unit(self, bundled_simulator,
                                        uncontrolled_trajectory):
        """In the power-flow Jacobian (rows: every bus's P row, then every
        Q row), the slack's P column is the unit vector at the slack's P
        row."""
        asm = bundled_simulator.assembler
        grid = uncontrolled_trajectory.states[1, asm.size:]
        jac = power.powerflow_jacobian(
            grid[0::4], power.injection_terms(grid[0::4], grid[1::4], asm.Y))
        slack, = (bus.id for bus in asm.busses if bus.kind == SLACK)
        expected = np.zeros(len(jac))
        expected[asm.bus_ids.index(slack)] = 1.0
        assert np.array_equal(jac[:, grid_position(asm, slack, "P")],
                              expected)

    def test_row_sparsity_is_adjacency(self, admittance, chain_admittance):
        """Rows touch only the bus itself and its admittance neighbours."""
        for Y, order in (admittance, chain_admittance):
            rng = np.random.default_rng(6)
            n = len(order)
            outside = Y == 0
            np.fill_diagonal(outside, False)
            assert outside.any()
            V = rng.uniform(0.9, 1.1, n)
            for jac in power.injection_jacobians(V, power.injection_terms(
                    V, rng.uniform(-0.4, 0.4, n), Y)):
                assert np.all(jac[outside] == 0.0)


class TestSolvedBaseline:
    def test_case_nine_baseline_residuals(self, bundled_module):
        """Newton solve of the 9-bus grid from the flat grid leaves
        residuals < 1e-10 and the pinned values in place."""
        fixed = {
            ("N1", "V"): 1.0, ("N1", "phi"): 0.0,
            ("N2", "P"): 1.63, ("N2", "V"): 1.0,
            ("N3", "P"): 0.85, ("N3", "V"): 1.0,
            ("N4", "P"): 0.0, ("N4", "Q"): 0.0,
            ("N5", "P"): -0.9, ("N5", "Q"): -0.3,
            ("N6", "P"): 0.0, ("N6", "Q"): 0.0,
            ("N7", "P"): -1.0, ("N7", "Q"): -0.35,
            ("N8", "P"): 0.0, ("N8", "Q"): 0.0,
            ("N9", "P"): -1.25, ("N9", "Q"): -0.5,
        }
        Y, order = nodal_admittance(bundled_module.grid)
        pinned = [4 * order.index(bus) + BUS_QUANTITIES.index(quantity)
                  for bus, quantity in fixed]
        start = np.tile([1.0, 0.0, 0.0, 0.0], len(order))
        x, iterations = power.solve_powerflow(
            Y, order, start, pinned, list(fixed.values()), tol=1e-12)
        assert iterations > 0
        assert np.array_equal(start, np.tile([1.0, 0.0, 0.0, 0.0], len(order)))
        assert x[pinned].tolist() == list(fixed.values())
        V, phi, P, Q = x.reshape(-1, 4).T
        res = residual(V, phi, P, Q, Y)
        assert np.max(np.abs(res)) < 1e-10
        # the slack generator covers the 0.67 p.u. balance gap plus losses
        assert 0.6 < P[order.index("N1")] < 0.9


def test_powerflow_out_of_iterations_names_the_row(admittance):
    """A solve that runs out of iterations names the row with the largest
    residual, by its bus, and leaves its start unchanged."""
    Y, order = admittance
    start = np.tile([1.0, 0.0, 0.0, 0.0], len(order))
    pinned = [4 * order.index("N1"), 4 * order.index("N1") + 1]
    pinned += [4 * i + q for i in range(1, len(order)) for q in (2, 3)]
    values = [1.0, 0.0] + [-0.5, -0.2] * (len(order) - 1)
    with pytest.raises(power.SimulationError,
                       match=r"^power flow did not reach tolerance, largest "
                       r"residual in the [PQ]-flow row of bus N\d \(residual "
                       r".* after 1 iterations\)$"):
        power.solve_powerflow(Y, order, start, pinned, values, 1e-12,
                              max_iter=1)
    assert np.array_equal(start, np.tile([1.0, 0.0, 0.0, 0.0], len(order)))


@pytest.mark.parametrize("case,message", [
    ("load", r"Newton step to V <= 0 at bus N\d$"),
    ("isolated", r"singular Jacobian$")])
def test_powerflow_failure_is_a_simulation_error(admittance, case, message):
    """A load of 20 p.u. at every bus but the slack drives the first
    Newton step to a negative voltage, and a bus without lines makes the
    Jacobian singular; both raise SimulationError."""
    Y, order = admittance
    Y, n = Y.copy(), len(order)
    load = -20.0 if case == "load" else -0.5
    if case == "isolated":
        Y[4], Y[:, 4] = 0.0, 0.0
    pinned = [0, 1] + [4 * i + q for i in range(1, n) for q in (2, 3)]
    values = [1.0, 0.0] + [load, -0.1] * (n - 1)
    with pytest.raises(power.SimulationError, match="^power flow: " + message):
        power.solve_powerflow(Y, order, np.tile(
            [1.0, 0.0, 0.0, 0.0], n), pinned, values, 1e-9)


class TestOfftake:
    def test_values(self):
        assert power.plant_gas_offtake(0.0, PLANT) == 2.0
        assert power.plant_gas_offtake(1.0, PLANT) == 17.0
        assert power.plant_gas_offtake(0.5, PLANT) == 7.0
        assert power.plant_gas_offtake(0.95, PLANT) == pytest.approx(15.775)

    def test_nondecreasing_for_positive_power(self):
        p = np.linspace(0, 3, 50)
        eps = power.plant_gas_offtake(p, PLANT)
        assert np.all(np.diff(eps) > 0)

    def test_convex_midpoint_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b = rng.uniform(-2, 3, 2)
            mid = power.plant_gas_offtake(0.5 * (a + b), PLANT)
            avg = 0.5 * (power.plant_gas_offtake(a, PLANT)
                         + power.plant_gas_offtake(b, PLANT))
            assert mid <= avg + 1e-12
