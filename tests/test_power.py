"""Powerflow residual/Jacobian and the plant offtake curve."""

import numpy as np
import pytest

from gaspower import power
from gaspower.model import PINNED_QUANTITIES, GasPowerPlant, nodal_admittance
from gaspower.sim import BUS_QUANTITIES

PLANT = GasPowerPlant("PL", "S4", "N1", a0=2.0, a1=5.0, a2=10.0)


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


def test_free_and_pinned_quantities_split_every_bus(bundled_module):
    free = power.free_variables(bundled_module.grid)
    kinds = set()
    for bus in bundled_module.grid.busses:
        mine = [quant for bus_id, quant in free if bus_id == bus.id]
        pinned = PINNED_QUANTITIES[bus.kind]
        assert len(mine) == len(pinned) == 2
        assert set(mine) | set(pinned) == set(BUS_QUANTITIES)
        kinds.add(bus.kind)
    assert kinds == set(PINNED_QUANTITIES)


class TestResidual:
    def test_flat_state_rowsum_n1(self, admittance):
        """Computed injections at N1 with all V=1, phi=0 are exactly zero."""
        G, B, order = admittance
        res = power.powerflow_residual(flat_state(order), G, B)
        k = order.index("N1")
        assert abs(res[k]) < 1e-12
        assert abs(res[len(order) + k]) < 1e-12

    def test_flat_state_general_rowsums(self, admittance):
        G, B, order = admittance
        n = len(order)
        res = power.powerflow_residual(flat_state(order), G, B)
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
        r1 = power.powerflow_residual(state, G, B)
        r2 = power.powerflow_residual(shifted, G, B)
        assert np.allclose(r1, r2, atol=1e-9)

    def test_dimension_mismatch_rejected(self, admittance):
        G, B, order = admittance
        small = flat_state(order[:-1])
        with pytest.raises(ValueError):
            power.powerflow_residual(small, G, B)


class TestJacobian:
    def _fd(self, state, G, B, free, h=1e-7):
        cols = []
        arrays = {"V": state.V, "phi": state.phi, "P": state.P, "Q": state.Q}
        pos = {bid: i for i, bid in enumerate(state.bus_ids)}
        for bid, quant in free:
            res = []
            for sign in (1.0, -1.0):
                vals = {k: v.copy() for k, v in arrays.items()}
                vals[quant][pos[bid]] += sign * h
                s = power.PowerState(state.bus_ids, vals["V"], vals["phi"],
                                     vals["P"], vals["Q"])
                res.append(power.powerflow_residual(s, G, B))
            cols.append((res[0] - res[1]) / (2 * h))
        return np.array(cols).T

    def test_matches_fd_at_flat_state(self, admittance, bundled_module):
        G, B, order = admittance
        free = power.free_variables(bundled_module.grid)
        state = flat_state(order)
        jac = power.powerflow_jacobian(state, G, B, free).toarray()
        fd = self._fd(state, G, B, free)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(jac - fd) / denom) < 1e-6

    def test_matches_fd_at_random_state(self, admittance, bundled_module):
        G, B, order = admittance
        rng = np.random.default_rng(4)
        n = len(order)
        state = power.PowerState(tuple(order), rng.uniform(0.9, 1.1, n),
                                 rng.uniform(-0.4, 0.4, n),
                                 rng.uniform(-2, 2, n), rng.uniform(-1, 1, n))
        free = power.free_variables(bundled_module.grid)
        jac = power.powerflow_jacobian(state, G, B, free).toarray()
        fd = self._fd(state, G, B, free)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(jac - fd) / denom) < 1e-6

    def test_slack_power_column_is_unit(self, admittance, bundled_module):
        G, B, order = admittance
        free = power.free_variables(bundled_module.grid)
        state = flat_state(order)
        jac = power.powerflow_jacobian(state, G, B, free).toarray()
        col = free.index(("N1", "P"))
        expected = np.zeros(2 * len(order))
        expected[order.index("N1")] = 1.0
        assert np.array_equal(jac[:, col], expected)

    def test_row_sparsity_is_adjacency(self, admittance, bundled_module):
        """Rows touch only the bus itself and its admittance neighbours."""
        G, B, order = admittance
        free = power.free_variables(bundled_module.grid)
        state = flat_state(order)
        jac = power.powerflow_jacobian(state, G, B, free).toarray()
        n = len(order)
        for k in range(n):
            neighbours = {j for j in range(n)
                          if G[k, j] != 0 or B[k, j] != 0} | {k}
            for col, (bid, quant) in enumerate(free):
                if quant in ("P", "Q"):
                    continue
                j = order.index(bid)
                if j not in neighbours:
                    assert jac[k, col] == 0.0
                    assert jac[n + k, col] == 0.0


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
        res = power.powerflow_residual(state, G, B)
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
