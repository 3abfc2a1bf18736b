"""Pipe physics: pressure law, Colebrook friction, source, box scheme."""

import numpy as np
import pytest

from gaspower import gas
from gaspower.model import GasConstants, Pipe

from conftest import box_scheme_residual

CONS = GasConstants()          # kappa = 340^2, gamma = 1, eta = 1e-5
PIPE = Pipe("P", "a", "b", length=2000.0, cell_count=2)


def colebrook_bisection(q, d, k, eta=1e-5):
    """Independent oracle: bisection on the defining equation in lambda."""
    re = d * abs(q) / eta
    b = k / (3.71 * d)

    def f(lam):
        return 1.0 / np.sqrt(lam) + 2.0 * np.log10(2.51 / (re * np.sqrt(lam)) + b)

    lo, hi = 1e-6, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestPressureLaw:
    def test_zero(self):
        assert gas.pressure_of_density(0.0) == 0.0
        assert gas.density_of_pressure(0.0) == 0.0

    def test_reference_density(self):
        # 0.785 kg/m^3 at sound speed 340 m/s
        assert gas.pressure_of_density(0.785) == pytest.approx(90746.0)

    def test_sixty_bar(self):
        assert gas.density_of_pressure(6.0e6) == pytest.approx(51.90311418685121)
        assert gas.density_of_pressure(4.1e6) == pytest.approx(35.46712802768166)

    def test_round_trip(self):
        p = np.logspace(4, 7, 40)
        back = gas.pressure_of_density(gas.density_of_pressure(p))
        assert np.max(np.abs(back - p) / p) < 1e-12

    def test_round_trip_general_exponent(self):
        cons = GasConstants(kappa=2.0e5, gamma=1.4)
        p = np.logspace(4, 7, 20)
        back = gas.pressure_of_density(gas.density_of_pressure(p, cons), cons)
        assert np.max(np.abs(back - p) / p) < 1e-12

    def test_monotone(self):
        rho = np.linspace(0.1, 80, 50)
        assert np.all(np.diff(gas.pressure_of_density(rho)) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gas.pressure_of_density(-1.0)
        with pytest.raises(ValueError):
            gas.density_of_pressure(-10.0)


def friction(q, d=0.6, k=5e-4):
    return gas.friction_factor_and_derivative(q, d, k)[0]


def source(rho, q, pipe=PIPE):
    lam = gas.friction_factor_and_derivative(q, pipe.diameter,
                                             pipe.roughness)[0]
    return gas._source(rho, q, lam, 1.0 / (2.0 * pipe.diameter))


class TestFriction:
    def test_rough_limit_at_stagnation(self):
        lam, dlam = gas.friction_factor_and_derivative(0.0, 0.6, 5e-4)
        assert lam == pytest.approx(0.01878011195087057, rel=1e-12)
        assert dlam == 0.0

    def test_high_reynolds_close_to_rough_limit(self):
        lam = friction(277.64)
        rough = 1.0 / (2.0 * np.log10(5e-4 / (3.71 * 0.6))) ** 2
        assert abs(lam - rough) / rough < 5e-3
        assert lam == pytest.approx(colebrook_bisection(277.64, 0.6, 5e-4),
                                    rel=1e-9)

    @pytest.mark.parametrize("q", [100.0, 35.0, 1500.0, -250.0])
    def test_defining_equation_residual(self, q):
        lam = friction(q)
        re = 0.6 * abs(q) / 1e-5
        lhs = 1.0 / np.sqrt(lam)
        rhs = -2.0 * np.log10(2.51 / (re * np.sqrt(lam)) + 5e-4 / (3.71 * 0.6))
        assert abs(lhs - rhs) < 1e-12

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            q = rng.uniform(5.0, 500.0)
            d = rng.uniform(0.2, 1.2)
            k = rng.uniform(1e-5, 2e-3)
            assert friction(q, d, k) == pytest.approx(
                colebrook_bisection(q, d, k), rel=1e-9)

    def test_per_point_geometry(self):
        rng = np.random.default_rng(9)
        q = rng.uniform(-500.0, 500.0, 12)
        d = rng.uniform(0.2, 1.2, 12)
        k = rng.uniform(1e-5, 2e-3, 12)
        lam, dlam = gas.friction_factor_and_derivative(q, d, k)
        for i in range(12):
            one = gas.friction_factor_and_derivative(q[i], d[i], k[i])
            assert lam[i] == pytest.approx(one[0], rel=1e-12)
            assert dlam[i] == pytest.approx(one[1], rel=1e-9)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(8)
        q = rng.uniform(-600, 600, size=200)
        lam, _ = gas.friction_factor_and_derivative(q, 0.6, 5e-4)
        assert np.all(lam > 0) and np.all(lam < 1)

    def test_derivative_matches_fd(self):
        for q in (50.0, 277.64, -120.0):
            _, dlam = gas.friction_factor_and_derivative(q, 0.6, 5e-4)
            h = 1e-3 * abs(q)
            up = friction(q + h)
            down = friction(q - h)
            assert dlam == pytest.approx((up - down) / (2 * h), rel=1e-5)

    def test_even_in_q(self):
        assert friction(200.0) == friction(-200.0)

    def test_closed_form_reaches_machine_precision(self):
        # Re = d |q| / eta from 100 to 1e9 at d = 1, eta = 1e-5, and
        # b = k / (3.71 d) from 0 (smooth) to 3e-2
        re, b = np.meshgrid(np.logspace(2, 9, 300),
                            np.concatenate([[0.0], np.logspace(-8, -1.5, 99)]))
        lam, _ = gas.friction_factor_and_derivative(
            re.ravel() * 1e-5, 1.0, 3.71 * b.ravel(), eta=1e-5)
        x = 1.0 / np.sqrt(lam)
        colebrook = x + 2.0 * np.log10(2.51 * x / re.ravel() + b.ravel())
        assert np.all(np.abs(colebrook) <= 1e-14 * x)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            gas.friction_factor_and_derivative(10.0, -0.6, 5e-4)
        with pytest.raises(ValueError):
            gas.friction_factor_and_derivative(10.0, 0.6, -1e-4)
        with pytest.raises(ValueError):
            gas.friction_factor_and_derivative(
                np.full(2, 10.0), np.array([0.6, 0.0]), 5e-4)


class TestSourceTerm:
    def test_zero_at_stagnation(self):
        assert source(51.9, 0.0) == 0.0

    def test_sign_opposite_to_flow(self):
        s = source(51.9, 277.64)
        assert s < 0
        lam = friction(277.64, PIPE.diameter, PIPE.roughness)
        expected = -lam / (2 * 0.6) * 277.64**2 / 51.9
        assert s == pytest.approx(expected, rel=1e-12)

    def test_odd_in_q(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = rng.uniform(10, 60)
            q = rng.uniform(1, 400)
            assert source(rho, -q) == pytest.approx(-source(rho, q),
                                                    rel=1e-12)

    def test_nonpositive_density_rejected(self):
        for rho in (0.0, -1.0):
            with pytest.raises(ValueError):
                gas.PipeState(np.array([51.9, rho]), np.array([10.0, 10.0]))


def steady_flowing_profile(n, rho0=51.9, q=200.0):
    """Any profile with spatially constant q zeroes the mass equations."""
    rng = np.random.default_rng(11)
    rho = rho0 + rng.uniform(-2, 2, n + 1)
    return gas.PipeState(rho, np.full(n + 1, q))


def box_jacobians(prev, nxt, dt, dx, pipe=PIPE):
    """Dense (J_next, J_prev) of box_scheme_residual: _box_blocks' values
    and -1/2 on the old level, placed by PipeGrid.stencil()."""
    grid = gas.PipeGrid.stack([len(nxt.rho) - 1], [dx], [pipe.diameter],
                              [pipe.roughness])
    (rows, cols), old = grid.stencil()
    j_next, j_prev = np.zeros(grid.shape), np.zeros(grid.shape)
    np.add.at(j_next, (rows, cols), gas._box_blocks(
        prev, nxt, dt, grid, CONS, gas.friction_factor_and_derivative(
            nxt.q, pipe.diameter, pipe.roughness)))
    np.add.at(j_prev, (rows[old], cols[old]), -0.5)
    return j_next, j_prev


class TestBoxScheme:
    def test_constant_stagnant_state_is_fixed_point(self):
        state = gas.PipeState(np.full(3, 51.9), np.zeros(3))
        res = box_scheme_residual(state, state, 900.0, 1000.0, PIPE)
        assert np.all(res == 0.0)

    def test_constant_flux_zeroes_mass_rows(self):
        state = steady_flowing_profile(4)
        res = box_scheme_residual(state, state, 900.0, 1000.0, PIPE)
        assert np.max(np.abs(res[:4])) == 0.0
        assert np.max(np.abs(res[4:])) > 0.0   # momentum rows feel friction
        # momentum rows difference the flux p(rho) + q^2/rho
        rho, q = state.rho, state.q
        f2 = CONS.kappa * rho + q * q / rho
        s = source(rho, q)
        expected = 0.9 * np.diff(f2) - 450.0 * (s[:-1] + s[1:])
        assert np.allclose(res[4:], expected, rtol=1e-12, atol=0.0)

    def test_mass_rows_telescope(self):
        rng = np.random.default_rng(13)
        n = 5
        state = gas.PipeState(rng.uniform(30, 60, n + 1),
                              rng.uniform(-100, 300, n + 1))
        dt, dx = 900.0, 700.0
        res = box_scheme_residual(state, state, dt, dx, PIPE)
        total = np.sum(res[:n])
        assert total == pytest.approx(dt / dx * (state.q[-1] - state.q[0]),
                                      rel=1e-12)

    def test_length_mismatch_rejected(self):
        a = gas.PipeState(np.full(3, 50.0), np.zeros(3))
        b = gas.PipeState(np.full(4, 50.0), np.zeros(4))
        with pytest.raises(ValueError):
            box_scheme_residual(a, b, 900.0, 1000.0, PIPE)

    def _fd_jacobian(self, prev, nxt, dt, dx, wrt_next=True, h_rel=1e-4):
        base_rho = nxt.rho if wrt_next else prev.rho
        base_q = nxt.q if wrt_next else prev.q
        npts = len(base_rho)
        cols = []
        for block, base in (("rho", base_rho), ("q", base_q)):
            for j in range(npts):
                h = h_rel * max(1.0, abs(base[j]))
                for sign in (1.0, -1.0):
                    rho = (nxt.rho if wrt_next else prev.rho).copy()
                    q = (nxt.q if wrt_next else prev.q).copy()
                    if block == "rho":
                        rho[j] += sign * h
                    else:
                        q[j] += sign * h
                    state = gas.PipeState(rho, q)
                    if wrt_next:
                        r = box_scheme_residual(prev, state, dt, dx, PIPE)
                    else:
                        r = box_scheme_residual(state, nxt, dt, dx, PIPE)
                    if sign > 0:
                        up = r
                    else:
                        cols.append((up - r) / (2 * h))
        return np.array(cols).T

    @pytest.mark.parametrize("seed", [0, 1])
    def test_jacobian_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        prev = gas.PipeState(rng.uniform(35, 55, n + 1),
                             rng.uniform(-50, 300, n + 1))
        nxt = gas.PipeState(rng.uniform(35, 55, n + 1),
                            rng.uniform(-50, 300, n + 1))
        dt, dx = 900.0, 800.0
        j_next, j_prev = box_jacobians(prev, nxt, dt, dx)
        fd_next = self._fd_jacobian(prev, nxt, dt, dx, wrt_next=True)
        fd_prev = self._fd_jacobian(prev, nxt, dt, dx, wrt_next=False)
        for analytic, fd in ((j_next, fd_next), (j_prev, fd_prev)):
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-6

    def test_jacobian_at_stagnation_matches_fd(self):
        # small absolute step: q|q| has a curvature kink at q = 0 that a
        # wide central difference would smear into the q-columns
        state = gas.PipeState(np.full(3, 51.9), np.zeros(3))
        j_next, _ = box_jacobians(state, state, 900.0, 1000.0)
        fd = self._fd_jacobian(state, state, 900.0, 1000.0, wrt_next=True,
                               h_rel=1e-7)
        denom = np.maximum(np.abs(fd), 0.1)
        assert np.max(np.abs(j_next - fd) / denom) < 1e-6

    def test_mass_rows_have_constant_density_derivative(self):
        rng = np.random.default_rng(17)
        n = 4
        prev = gas.PipeState(rng.uniform(35, 55, n + 1),
                             rng.uniform(0, 300, n + 1))
        nxt = gas.PipeState(rng.uniform(35, 55, n + 1),
                            rng.uniform(0, 300, n + 1))
        dense, _ = box_jacobians(prev, nxt, 900.0, 500.0)
        for row in range(n):                      # mass rows come first
            rho_cols = dense[row, :n + 1]
            assert set(np.round(rho_cols[rho_cols != 0], 12)) == {0.5}

    def test_stencil_sparsity(self):
        n = 6
        pipe = Pipe("P6", "a", "b", length=6000.0, cell_count=n)
        state = gas.PipeState(np.full(n + 1, 50.0), np.full(n + 1, 150.0))
        dense, _ = box_jacobians(state, state, 900.0, 1000.0, pipe)
        for interval in range(n):
            for row in (interval, n + interval):  # mass and momentum rows
                touched = np.nonzero(dense[row])[0] % (n + 1)
                assert set(touched) <= {interval, interval + 1}


def test_mass_conservation_identity():
    """Accepted-step mass change equals dt times the boundary flux gap."""
    pipe = Pipe("P", "a", "b", length=3000.0, cell_count=3)
    rng = np.random.default_rng(23)
    prev = gas.PipeState(rng.uniform(40, 55, 4), rng.uniform(50, 250, 4))
    nxt = gas.PipeState(rng.uniform(40, 55, 4), rng.uniform(50, 250, 4))
    dt, dx = 900.0, 1000.0
    res = box_scheme_residual(prev, nxt, dt, dx, pipe)
    mean = lambda s: np.sum(0.5 * (s.rho[:-1] + s.rho[1:]))
    lhs = dx * (mean(nxt) - mean(prev))
    rhs = dt * (nxt.q[0] - nxt.q[-1]) + dx * np.sum(res[:3])
    assert lhs == pytest.approx(rhs, rel=1e-12)
