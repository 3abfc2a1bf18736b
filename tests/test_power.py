"""Powerflow residual, its derivatives and solve, and the plant offtake
curve."""

import numpy as np
import pytest

from gaspower import power
from gaspower.model import (BUS_QUANTITIES, PINNED_QUANTITIES, SLACK,
                            GasPowerPlant, nodal_admittance)

PLANT = GasPowerPlant("PL", "S4", "N1", a0=2.0, a1=5.0, a2=10.0)


def residual(V, phi, P, Q, G, B):
    """powerflow_residual at the given V, phi, P and Q."""
    return power.powerflow_residual(V, P, Q, power._trig_tables(phi, G, B))


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
        grid[0::4], power._trig_tables(grid[1::4], asm.G, asm.B))
    assert jac.shape == (len(free), len(grid))
    assert np.linalg.matrix_rank(jac[:, free]) == len(free)


class TestResidual:
    def test_flat_state_rowsum_n1(self, admittance):
        """Computed injections at N1 with all V=1, phi=0 are exactly zero."""
        G, B, order = admittance
        res = residual(*flat_state(order), G, B)
        k = order.index("N1")
        assert abs(res[k]) < 1e-12
        assert abs(res[len(order) + k]) < 1e-12

    def test_flat_state_general_rowsums(self, admittance):
        G, B, order = admittance
        n = len(order)
        res = residual(*flat_state(order), G, B)
        # with P = Q = 0 the residual is minus the computed injection
        assert np.allclose(-res[:n], G.sum(axis=1), atol=1e-12)
        assert np.allclose(-res[n:], -B.sum(axis=1), atol=1e-12)

    def test_phase_shift_invariance(self, admittance):
        G, B, order = admittance
        rng = np.random.default_rng(2)
        n = len(order)
        V, phi, P, Q = (rng.uniform(0.9, 1.1, n), rng.uniform(-0.3, 0.3, n),
                        rng.uniform(-2, 2, n), rng.uniform(-1, 1, n))
        r1 = residual(V, phi, P, Q, G, B)
        r2 = residual(V, phi + 0.7, P, Q, G, B)
        assert np.allclose(r1, r2, atol=1e-9)

    def test_dimension_mismatch_rejected(self, admittance):
        G, B, order = admittance
        small = flat_state(order[:-1])
        with pytest.raises(ValueError):
            residual(*small, G, B)


class TestJacobian:
    """injection_jacobians, and powerflow_jacobian, the grid's Jacobian."""

    def _check(self, V, phi, G, B, h=1e-7):
        """injection_jacobians against central differences of
        computed_injections."""
        n = len(V)
        x = np.concatenate([V, phi])

        def calc(x):
            return np.concatenate(power.computed_injections(
                x[:n], power._trig_tables(x[n:], G, B)))

        fd = np.column_stack([(calc(x + h * e) - calc(x - h * e)) / (2 * h)
                              for e in np.eye(2 * n)])
        dp_dv, dp_dphi, dq_dv, dq_dphi = power.injection_jacobians(
            V, power._trig_tables(phi, G, B))
        jac = np.block([[dp_dv, dp_dphi], [dq_dv, dq_dphi]])
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(jac - fd) / denom) < 1e-6

    def test_matches_fd_at_flat_state(self, admittance):
        G, B, order = admittance
        n = len(order)
        self._check(np.ones(n), np.zeros(n), G, B)

    def test_matches_fd_at_random_state(self, admittance):
        G, B, order = admittance
        rng = np.random.default_rng(4)
        n = len(order)
        self._check(rng.uniform(0.9, 1.1, n), rng.uniform(-0.4, 0.4, n),
                    G, B)

    def test_slack_power_column_is_unit(self, bundled_simulator,
                                        uncontrolled_trajectory):
        """In the power-flow Jacobian (rows: every bus's P row, then every
        Q row), the slack's P column is the unit vector at the slack's P
        row."""
        asm = bundled_simulator.assembler
        grid = uncontrolled_trajectory.states[1, asm.size:]
        jac = power.powerflow_jacobian(
            grid[0::4], power._trig_tables(grid[1::4], asm.G, asm.B))
        slack, = (bus.id for bus in asm.busses if bus.kind == SLACK)
        expected = np.zeros(len(jac))
        expected[asm.bus_ids.index(slack)] = 1.0
        assert np.array_equal(jac[:, grid_position(asm, slack, "P")],
                              expected)

    def test_row_sparsity_is_adjacency(self, admittance):
        """Rows touch only the bus itself and its admittance neighbours."""
        G, B, order = admittance
        rng = np.random.default_rng(6)
        n = len(order)
        outside = (G == 0) & (B == 0)
        np.fill_diagonal(outside, False)
        assert outside.any()
        for jac in power.injection_jacobians(
                rng.uniform(0.9, 1.1, n),
                power._trig_tables(rng.uniform(-0.4, 0.4, n), G, B)):
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
        G, B, order = nodal_admittance(bundled_module.grid)
        pinned = [4 * order.index(bus) + BUS_QUANTITIES.index(quantity)
                  for bus, quantity in fixed]
        start = np.tile([1.0, 0.0, 0.0, 0.0], len(order))
        x, iterations = power.solve_powerflow(
            G, B, order, start, pinned, list(fixed.values()), tol=1e-12)
        assert iterations > 0
        assert np.array_equal(start, np.tile([1.0, 0.0, 0.0, 0.0], len(order)))
        assert x[pinned].tolist() == list(fixed.values())
        V, phi, P, Q = x.reshape(-1, 4).T
        res = residual(V, phi, P, Q, G, B)
        assert np.max(np.abs(res)) < 1e-10
        # the slack generator covers the 0.67 p.u. balance gap plus losses
        assert 0.6 < P[order.index("N1")] < 0.9


def test_powerflow_out_of_iterations_names_the_row(admittance):
    """A solve that runs out of iterations names the row with the largest
    residual, by its bus, and leaves its start unchanged."""
    G, B, order = admittance
    start = np.tile([1.0, 0.0, 0.0, 0.0], len(order))
    pinned = [4 * order.index("N1"), 4 * order.index("N1") + 1]
    pinned += [4 * i + q for i in range(1, len(order)) for q in (2, 3)]
    values = [1.0, 0.0] + [-0.5, -0.2] * (len(order) - 1)
    with pytest.raises(power.SimulationError,
                       match=r"^power flow did not reach tolerance, largest "
                       r"residual in the [PQ]-flow row of bus N\d \(residual "
                       r".* after 1 iterations\)$"):
        power.solve_powerflow(G, B, order, start, pinned, values, 1e-12,
                              max_iter=1)
    assert np.array_equal(start, np.tile([1.0, 0.0, 0.0, 0.0], len(order)))


@pytest.mark.parametrize("case,message", [
    ("load", r"Newton step to V <= 0 at bus N\d$"),
    ("isolated", r"singular Jacobian$")])
def test_powerflow_failure_is_a_simulation_error(admittance, case, message):
    """A load of 20 p.u. at every bus but the slack drives the first
    Newton step to a negative voltage, and a bus without lines makes the
    Jacobian singular; both raise SimulationError."""
    G, B, order = admittance
    G, B, n = G.copy(), B.copy(), len(order)
    load = -20.0 if case == "load" else -0.5
    if case == "isolated":
        G[4], G[:, 4], B[4], B[:, 4] = 0.0, 0.0, 0.0, 0.0
    pinned = [0, 1] + [4 * i + q for i in range(1, n) for q in (2, 3)]
    values = [1.0, 0.0] + [load, -0.1] * (n - 1)
    with pytest.raises(power.SimulationError, match="^power flow: " + message):
        power.solve_powerflow(G, B, order, np.tile(
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
