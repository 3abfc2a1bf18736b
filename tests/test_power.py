"""Powerflow residual, its derivatives and solve, and the plant offtake
curve."""

import numpy as np
import pytest

from gaspower import power
from gaspower.model import (BUS_QUANTITIES, PINNED_QUANTITIES, SLACK,
                            GasPowerPlant, nodal_admittance)

PLANT = GasPowerPlant("PL", "S4", "N1", a0=2.0, a1=5.0, a2=10.0)


def residual(state, G, B):
    """powerflow_residual at a PowerState."""
    return power.powerflow_residual(state.V, state.P, state.Q,
                                    power._trig_tables(state.phi, G, B))


def flat_state(order):
    n = len(order)
    return power.PowerState(tuple(order), np.ones(n), np.zeros(n),
                            np.zeros(n), np.zeros(n))


@pytest.fixture(scope="module")
def bundled_module(bundled):
    network, _ = bundled
    return network


@pytest.fixture(scope="module")
def admittance(bundled_module):
    return nodal_admittance(bundled_module.grid)


def flow_rows(asm):
    """The step Jacobian's power-flow rows: each bus's P row sits at its V
    column, its Q row at its phi column."""
    return [asm.index.bus[(bus.id, q)] for q in ("V", "phi")
            for bus in asm.busses]


def test_free_and_pinned_quantities_split_every_bus(bundled_simulator):
    """Each bus pins two of its quantities, and at the flat grid the step
    Jacobian's power-flow rows over the other 2N columns are a
    nonsingular square system."""
    asm, snap = bundled_simulator.assembler, bundled_simulator.snapshots[0]
    free, kinds = [], set()
    for bus in asm.busses:
        pinned = PINNED_QUANTITIES[bus.kind]
        mine = [q for q in BUS_QUANTITIES if q not in pinned]
        assert len(mine) == len(set(pinned)) == 2
        free += [asm.index.bus[(bus.id, q)] for q in mine]
        kinds.add(bus.kind)
    assert kinds == set(PINNED_QUANTITIES)
    y = asm.flat_state(snap)
    jac = asm.matrix(asm.jacobian(asm.evaluate(y), 900.0))
    rows = flow_rows(asm)
    assert np.linalg.matrix_rank(jac[rows][:, free].toarray()) == len(rows)


class TestResidual:
    def test_flat_state_rowsum_n1(self, admittance):
        """Computed injections at N1 with all V=1, phi=0 are exactly zero."""
        G, B, order = admittance
        res = residual(flat_state(order), G, B)
        k = order.index("N1")
        assert abs(res[k]) < 1e-12
        assert abs(res[len(order) + k]) < 1e-12

    def test_flat_state_general_rowsums(self, admittance):
        G, B, order = admittance
        n = len(order)
        res = residual(flat_state(order), G, B)
        # with P = Q = 0 the residual is minus the computed injection
        assert np.allclose(-res[:n], G.sum(axis=1), atol=1e-12)
        assert np.allclose(-res[n:], -B.sum(axis=1), atol=1e-12)

    def test_phase_shift_invariance(self, admittance):
        G, B, order = admittance
        rng = np.random.default_rng(2)
        n = len(order)
        state = power.PowerState(tuple(order),
                                 rng.uniform(0.9, 1.1, n),
                                 rng.uniform(-0.3, 0.3, n),
                                 rng.uniform(-2, 2, n),
                                 rng.uniform(-1, 1, n))
        shifted = power.PowerState(tuple(order), state.V, state.phi + 0.7,
                                   state.P, state.Q)
        r1 = residual(state, G, B)
        r2 = residual(shifted, G, B)
        assert np.allclose(r1, r2, atol=1e-9)

    def test_dimension_mismatch_rejected(self, admittance):
        G, B, order = admittance
        small = flat_state(order[:-1])
        with pytest.raises(ValueError):
            residual(small, G, B)


class TestJacobian:
    """injection_jacobians, the power-flow part of the step Jacobian."""

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
        """In the step Jacobian's power-flow rows, the slack's P column is
        the unit vector at the slack's P row."""
        asm = bundled_simulator.assembler
        states = uncontrolled_trajectory.states
        jac = asm.matrix(asm.jacobian(asm.evaluate(states[1]), 900.0))
        slack, = (bus.id for bus in asm.busses if bus.kind == SLACK)
        rows = flow_rows(asm)
        column = jac[rows][:, asm.index.bus[(slack, "P")]].toarray().ravel()
        expected = np.zeros(len(rows))
        expected[rows.index(asm.index.bus[(slack, "V")])] = 1.0
        assert np.array_equal(column, expected)

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
        """Newton solve of the 9-bus grid leaves residuals < 1e-10."""
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
        state = power.solve_powerflow(bundled_module.grid, fixed, tol=1e-12)
        G, B, _ = nodal_admittance(bundled_module.grid)
        res = residual(state, G, B)
        assert np.max(np.abs(res)) < 1e-10
        # the slack generator covers the 0.67 p.u. balance gap plus losses
        k = list(state.bus_ids).index("N1")
        assert 0.6 < state.P[k] < 0.9


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

    def test_derivative(self):
        assert power.plant_gas_offtake_derivative(0.95, PLANT) == \
            pytest.approx(5.0 + 20.0 * 0.95)
