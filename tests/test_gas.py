"""Pipe physics: pressure law, Colebrook friction, source, box scheme."""

import warnings

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
        assert gas.pressure_of_density(0.0, CONS) == 0.0
        assert gas.density_of_pressure(0.0, CONS) == 0.0

    def test_reference_density(self):
        # 0.785 kg/m^3 at sound speed 340 m/s
        assert gas.pressure_of_density(0.785, CONS) == pytest.approx(90746.0)

    def test_sixty_bar(self):
        assert gas.density_of_pressure(6.0e6, CONS) == \
            pytest.approx(51.90311418685121)
        assert gas.density_of_pressure(4.1e6, CONS) == \
            pytest.approx(35.46712802768166)

    def test_round_trip(self):
        p = np.logspace(4, 7, 40)
        back = gas.pressure_of_density(gas.density_of_pressure(p, CONS), CONS)
        assert np.max(np.abs(back - p) / p) < 1e-12

    def test_round_trip_general_exponent(self):
        cons = GasConstants(kappa=2.0e5, gamma=1.4)
        p = np.logspace(4, 7, 20)
        back = gas.pressure_of_density(gas.density_of_pressure(p, cons), cons)
        assert np.max(np.abs(back - p) / p) < 1e-12

    def test_monotone(self):
        rho = np.linspace(0.1, 80, 50)
        assert np.all(np.diff(gas.pressure_of_density(rho, CONS)) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gas.pressure_of_density(-1.0, CONS)
        with pytest.raises(ValueError):
            gas.density_of_pressure(-10.0, CONS)


def colebrook(q, d=0.6, k=5e-4, eta=CONS.eta):
    """Colebrook's (lambda, dlambda/dq) at the flows q, each on a one-cell
    pipe of its own with diameter d and roughness k (scalars or one per
    flow), through a PipeGrid whose two points of a pipe carry its flow."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    d, k = np.broadcast_to(d, q.shape), np.broadcast_to(k, q.shape)
    grid = gas.PipeGrid.stack(np.ones(q.size, int), np.ones(q.size), d, k,
                              eta)
    lam, dlam = gas.friction_factor_and_derivative(np.repeat(q, 2), grid)
    return lam[::2], dlam[::2]


def friction(q, d=0.6, k=5e-4):
    return colebrook(q, d, k)[0]


def source(rho, q, pipe=PIPE):
    """S at the points (rho, q) of one pipe, through gas.point_terms."""
    rho, q = np.broadcast_arrays(np.atleast_1d(rho), np.atleast_1d(q))
    grid = gas.PipeGrid.stack([rho.size - 1], [1.0], [pipe.diameter],
                              [pipe.roughness], CONS.eta)
    s = gas.point_terms(rho, q, grid, CONS,
                        gas.friction_factor_and_derivative(q, grid)).source
    return s if s.size > 1 else s[0]


class TestFriction:
    def test_rough_limit_at_stagnation(self):
        lam, dlam = colebrook(0.0)
        assert lam == pytest.approx(0.01878011195087057, rel=1e-12)
        assert dlam == 0.0

    def test_smooth_pipe_at_stagnation(self):
        """k = 0 has no rough limit: below REYNOLDS_ROUGH_LIMIT a smooth pipe
        keeps Colebrook's own value at that Reynolds number, on every point
        of its pipe, beside a rough pipe that keeps its limit."""
        q_limit = gas.REYNOLDS_ROUGH_LIMIT * CONS.eta / 0.6
        at_limit, _ = colebrook(q_limit, 0.6, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (lam,), (dlam,) = colebrook(0.0, 0.6, 0.0)
            grid = gas.PipeGrid.stack([2, 2], [1000.0, 1000.0], [0.6, 0.6],
                                      [0.0, 5e-4], CONS.eta)
            lams, dlams = gas.friction_factor_and_derivative(np.zeros(6),
                                                             grid)
        assert lam > 0 and dlam == 0.0
        assert lam == pytest.approx(at_limit, rel=1e-12)
        assert lam == pytest.approx(colebrook_bisection(q_limit, 0.6, 0.0),
                                    rel=1e-9)
        assert np.array_equal(lams[:3], [lam] * 3)
        assert lams[3:] == pytest.approx(0.01878011195087057, rel=1e-12)
        assert not dlams.any()

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
        lam, dlam = colebrook(q, d, k)
        for i in range(12):
            one = colebrook(q[i], d[i], k[i])
            assert lam[i] == pytest.approx(one[0], rel=1e-12)
            assert dlam[i] == pytest.approx(one[1], rel=1e-9)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(8)
        q = rng.uniform(-600, 600, size=200)
        lam, _ = colebrook(q)
        assert np.all(lam > 0) and np.all(lam < 1)

    def test_derivative_matches_fd(self):
        for q in (50.0, 277.64, -120.0):
            _, dlam = colebrook(q)
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
        lam, _ = colebrook(re.ravel() * 1e-5, 1.0, 3.71 * b.ravel(), eta=1e-5)
        x = 1.0 / np.sqrt(lam)
        defect = x + 2.0 * np.log10(2.51 * x / re.ravel() + b.ravel())
        assert np.all(np.abs(defect) <= 1e-14 * x)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError, match="diameter"):
            colebrook(10.0, -0.6, 5e-4)
        with pytest.raises(ValueError, match="roughness"):
            colebrook(10.0, 0.6, -1e-4)
        with pytest.raises(ValueError, match="diameter"):
            colebrook(np.full(2, 10.0), np.array([0.6, 0.0]), 5e-4)


class TestPipeGrid:
    @pytest.mark.parametrize("what, dx, d, k", [
        ("dx", 0.0, 0.6, 5e-4), ("diameter", 1.0, 0.0, 5e-4),
        ("diameter", 1.0, -0.6, 5e-4), ("roughness", 1.0, 0.6, -1e-4)])
    def test_stack_rejects_bad_geometry(self, what, dx, d, k):
        with pytest.raises(ValueError, match=what):
            gas.PipeGrid.stack([2, 3], [1.0, dx], [0.6, d], [5e-4, k],
                               CONS.eta)

    def test_friction_on_a_stacked_grid_equals_its_one_pipe_grids(self):
        """The per-point constants a stacked grid keeps give the values and
        derivatives of each pipe's own grid to the bit, in the turbulent
        and the rough range."""
        grid = gas.PipeGrid.stack([2, 3], [1.0, 2.0], [0.6, 0.9],
                                  [5e-4, 1e-5], 1.2e-5)
        q = np.array([277.64, -120.0, 1e-4, 50.0, 0.0, -300.0, 3e-3])
        stacked = gas.friction_factor_and_derivative(q, grid)
        parts = [gas.friction_factor_and_derivative(q[at], gas.PipeGrid.stack(
            [c], [h], [d], [k], 1.2e-5)) for at, c, h, d, k in
                 [(slice(0, 3), 2, 1.0, 0.6, 5e-4),
                  (slice(3, 7), 3, 2.0, 0.9, 1e-5)]]
        assert stacked[1][[2, 4]].tolist() == [0.0, 0.0]   # rough points
        for a, b in zip(stacked, zip(*parts)):
            assert np.array_equal(a, np.concatenate(b))

    def test_friction_derivative_rebuilds_colebrooks(self):
        """friction_derivative, given Colebrook's lambda, returns its
        dlambda/dq within 1e-14 relative: at reversed and zero flow, and 0
        below REYNOLDS_ROUGH_LIMIT on a rough and on a smooth pipe."""
        grid = gas.PipeGrid.stack([3, 3], [1.0, 2.0], [0.6, 0.9],
                                  [5e-4, 0.0], CONS.eta)
        q = np.array([277.64, -120.0, 0.0, 1e-4, -1e-3, 0.0, 50.0, -400.0])
        lam, dlam = gas.friction_factor_and_derivative(q, grid)
        re = grid.diameter * np.abs(q) / CONS.eta
        rough = re < gas.REYNOLDS_ROUGH_LIMIT
        assert rough.tolist() == [False, False, True, True, True, True,
                                  False, False]
        rebuilt = gas.friction_derivative(q, lam, grid)
        assert np.all(rebuilt[rough] == 0.0) and np.all(dlam[rough] == 0.0)
        assert np.all(np.abs(rebuilt - dlam) <= 1e-14 * np.abs(dlam))
        assert np.all(np.sign(rebuilt[~rough]) == -np.sign(q[~rough]))

    def test_box_residual_at_pipe_joints(self):
        """On pipes of 1, 2 and 5 cells with different dx, whose joint
        pairs lie next to each other, the stacked residual is the per-pipe
        residuals' mass rows, then their momentum rows, bit for bit."""
        cells, dx = [1, 2, 5], [700.0, 1000.0, 350.0]
        d, k = [0.6, 0.4, 0.9], [5e-4, 1e-4, 2e-3]
        rng = np.random.default_rng(5)
        points = sum(cells) + len(cells)
        rho_old, rho = rng.uniform(40.0, 60.0, (2, points))
        q_old, q = rng.uniform(-300.0, 300.0, (2, points))

        def residual(grid, at):
            terms = gas.point_terms(
                rho[at], q[at], grid, CONS,
                gas.friction_factor_and_derivative(q[at], grid))
            return gas.box_residual(gas.pair_means(rho_old[at], q_old[at]),
                                    terms, 600.0, grid)

        grid = gas.PipeGrid.stack(cells, dx, d, k, CONS.eta)
        stops = np.cumsum(np.add(cells, 1))
        parts = [residual(gas.PipeGrid.stack([c], [h], [di], [ki], CONS.eta),
                          slice(stop - c - 1, stop)).reshape(2, -1)
                 for c, h, di, ki, stop in zip(cells, dx, d, k, stops)]
        assert np.array_equal(residual(grid, slice(None)),
                              np.concatenate(parts, axis=1).ravel())


class TestSourceTerm:
    def test_zero_at_stagnation(self):
        assert source(51.9, 0.0) == 0.0

    def test_sign_opposite_to_flow(self):
        s = source(51.9, 277.64)
        assert s < 0
        lam, = friction(277.64, PIPE.diameter, PIPE.roughness)
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
        """Zero, negative and non-finite densities are refused (NaN <= 0
        is False, so NaN needs its own test)."""
        gas.check_densities(np.array([51.9, 1e-300]))
        for rho in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="densities must be positive "
                               "and finite"):
                gas.check_densities(np.array([51.9, rho]))


def steady_flowing_profile(n, rho0=51.9, q=200.0):
    """Any profile with spatially constant q zeroes the mass equations."""
    rng = np.random.default_rng(11)
    rho = rho0 + rng.uniform(-2, 2, n + 1)
    return rho, np.full(n + 1, q)


def box_jacobians(prev, nxt, dt, dx, pipe=PIPE):
    """Dense (J_next, J_prev) of box_scheme_residual: _box_blocks' values
    and -1/2 on the old level, placed by PipeGrid.stencil()."""
    rho, q = nxt
    grid = gas.PipeGrid.stack([len(rho) - 1], [dx], [pipe.diameter],
                              [pipe.roughness], CONS.eta)
    (rows, cols), old = grid.stencil()
    j_next, j_prev = np.zeros(grid.shape), np.zeros(grid.shape)
    np.add.at(j_next, (rows, cols), gas._box_blocks(gas.point_terms(
        rho, q, grid, CONS, gas.friction_factor_and_derivative(q, grid)),
        dt, grid))
    np.add.at(j_prev, (rows[old], cols[old]), -0.5)
    return j_next, j_prev


class TestBoxScheme:
    def test_constant_stagnant_state_is_fixed_point(self):
        state = np.full(3, 51.9), np.zeros(3)
        res = box_scheme_residual(state, state, 900.0, 1000.0, PIPE)
        assert np.all(res == 0.0)

    def test_constant_flux_zeroes_mass_rows(self):
        state = steady_flowing_profile(4)
        res = box_scheme_residual(state, state, 900.0, 1000.0, PIPE)
        assert np.max(np.abs(res[:4])) == 0.0
        assert np.max(np.abs(res[4:])) > 0.0   # momentum rows feel friction
        # momentum rows difference the flux p(rho) + q^2/rho
        rho, q = state
        f2 = CONS.kappa * rho + q * q / rho
        s = source(rho, q)
        expected = 0.9 * np.diff(f2) - 450.0 * (s[:-1] + s[1:])
        assert np.allclose(res[4:], expected, rtol=1e-12, atol=0.0)

    def test_mass_rows_telescope(self):
        rng = np.random.default_rng(13)
        n = 5
        rho, q = rng.uniform(30, 60, n + 1), rng.uniform(-100, 300, n + 1)
        dt, dx = 900.0, 700.0
        res = box_scheme_residual((rho, q), (rho, q), dt, dx, PIPE)
        total = np.sum(res[:n])
        assert total == pytest.approx(dt / dx * (q[-1] - q[0]), rel=1e-12)

    def test_length_mismatch_rejected(self):
        a = np.full(3, 50.0), np.zeros(3)
        b = np.full(4, 50.0), np.zeros(4)
        with pytest.raises(ValueError):
            box_scheme_residual(a, b, 900.0, 1000.0, PIPE)

    def _fd_jacobian(self, prev, nxt, dt, dx, wrt_next=True, h_rel=1e-4):
        base_rho, base_q = nxt if wrt_next else prev
        npts = len(base_rho)
        cols = []
        for block, base in (("rho", base_rho), ("q", base_q)):
            for j in range(npts):
                h = h_rel * max(1.0, abs(base[j]))
                for sign in (1.0, -1.0):
                    rho, q = base_rho.copy(), base_q.copy()
                    if block == "rho":
                        rho[j] += sign * h
                    else:
                        q[j] += sign * h
                    state = rho, q
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
        prev = rng.uniform(35, 55, n + 1), rng.uniform(-50, 300, n + 1)
        nxt = rng.uniform(35, 55, n + 1), rng.uniform(-50, 300, n + 1)
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
        state = np.full(3, 51.9), np.zeros(3)
        j_next, _ = box_jacobians(state, state, 900.0, 1000.0)
        fd = self._fd_jacobian(state, state, 900.0, 1000.0, wrt_next=True,
                               h_rel=1e-7)
        denom = np.maximum(np.abs(fd), 0.1)
        assert np.max(np.abs(j_next - fd) / denom) < 1e-6

    def test_mass_rows_have_constant_density_derivative(self):
        rng = np.random.default_rng(17)
        n = 4
        prev = rng.uniform(35, 55, n + 1), rng.uniform(0, 300, n + 1)
        nxt = rng.uniform(35, 55, n + 1), rng.uniform(0, 300, n + 1)
        dense, _ = box_jacobians(prev, nxt, 900.0, 500.0)
        for row in range(n):                      # mass rows come first
            rho_cols = dense[row, :n + 1]
            assert set(np.round(rho_cols[rho_cols != 0], 12)) == {0.5}

    def test_stencil_sparsity(self):
        n = 6
        pipe = Pipe("P6", "a", "b", length=6000.0, cell_count=n)
        state = np.full(n + 1, 50.0), np.full(n + 1, 150.0)
        dense, _ = box_jacobians(state, state, 900.0, 1000.0, pipe)
        for interval in range(n):
            for row in (interval, n + interval):  # mass and momentum rows
                touched = np.nonzero(dense[row])[0] % (n + 1)
                assert set(touched) <= {interval, interval + 1}


def test_point_partials_match_fd_for_a_general_exponent():
    """point_terms' partials against central differences of its flux and
    source at gamma = 1.4, where dp/drho = gamma p / rho is not kappa."""
    cons = GasConstants(kappa=2.0e5, gamma=1.4)
    rng = np.random.default_rng(29)
    rho, q = rng.uniform(20, 60, 5), rng.uniform(-300, 300, 5)
    grid = gas.PipeGrid.stack([4], [1000.0], [PIPE.diameter],
                              [PIPE.roughness], cons.eta)

    def terms(rho, q):
        return gas.point_terms(rho, q, grid, cons,
                               gas.friction_factor_and_derivative(q, grid))

    exact = terms(rho, q)
    for wrt, h in (("rho", 1e-4 * rho), ("q", 1e-4 * np.abs(q))):
        d_rho, d_q = (h, 0.0) if wrt == "rho" else (0.0, h)
        up, down = terms(rho + d_rho, q + d_q), terms(rho - d_rho, q - d_q)
        for value, partial in (("f2", f"df2_d{wrt}"), ("source", f"ds_d{wrt}")):
            fd = (getattr(up, value) - getattr(down, value)) / (2.0 * h)
            assert np.allclose(getattr(exact, partial), fd, rtol=1e-6, atol=0.0)


def test_mass_conservation_identity():
    """Accepted-step mass change equals dt times the boundary flux gap."""
    pipe = Pipe("P", "a", "b", length=3000.0, cell_count=3)
    rng = np.random.default_rng(23)
    prev = rng.uniform(40, 55, 4), rng.uniform(50, 250, 4)
    nxt = rng.uniform(40, 55, 4), rng.uniform(50, 250, 4)
    dt, dx = 900.0, 1000.0
    res = box_scheme_residual(prev, nxt, dt, dx, pipe)
    mean = lambda s: np.sum(0.5 * (s[0][:-1] + s[0][1:]))
    lhs = dx * (mean(nxt) - mean(prev))
    rhs = dt * (nxt[1][0] - nxt[1][-1]) + dx * np.sum(res[:3])
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_in_place_kernels_equal_their_formulas():
    """The kernels compute in place in each formula's order of evaluation,
    so they equal, bit for bit, the formulas written as plain expressions,
    on turbulent, rough and reversed flows at gamma = 1.4, the rebuild of
    dlambda/dq from lambda included."""
    cons = GasConstants(kappa=2.0e5, gamma=1.4)
    grid = gas.PipeGrid.stack([1, 3, 5], [700.0, 1000.0, 350.0],
                              [0.6, 0.4, 0.9], [5e-4, 1e-5, 2e-3], cons.eta)
    rng = np.random.default_rng(31)
    rho_old, rho = rng.uniform(30.0, 60.0, (2, 12))
    q_old, q = rng.uniform(-300.0, 300.0, (2, 12))
    q[[2, 7]] = [1e-4, -1e-4]                       # rough points
    d, eta, b, d_eta = grid.colebrook
    dt = 600.0

    re = d * np.abs(q) / eta
    rough = re < gas.REYNOLDS_ROUGH_LIMIT
    re_safe = np.where(rough, gas.REYNOLDS_ROUGH_LIMIT, re)
    re_scaled = re_safe * (np.log(10.0) / 5.02)
    x1, x2 = b * re_scaled, np.log(re_scaled)
    f = x2 - 0.2
    for _ in range(2):
        s = x1 + f
        s1 = 1.0 + s
        e = (np.log(s) + f - x2) / s1
        f = f - (s1 + 0.5 * e) * e * s / (s1 + e * (1.0 + e / 3.0))
    lam = (0.5 * np.log(10.0) / f) ** 2
    dlam = -2.0 * lam * np.sign(q) * d_eta / (re_safe * (1.0 + x1 + f))
    lam = np.where(rough, 1.0 / (2.0 * np.log10(b)) ** 2, lam)
    dlam = np.where(rough, 0.0, dlam)
    friction = gas.friction_factor_and_derivative(q, grid)
    assert all(np.array_equal(a, b) for a, b in zip(friction, (lam, dlam)))
    # the rebuild from lambda: F = ln10 / (2 sqrt(lam)) in the same formula
    f_lam = 0.5 * np.log(10.0) / np.sqrt(lam)
    rebuilt = np.where(rough, 0.0, -2.0 * lam * np.sign(q) * d_eta
                       / (re_safe * (1.0 + x1 + f_lam)))
    assert np.array_equal(gas.friction_derivative(q, lam, grid), rebuilt)

    c = 1.0 / (2.0 * d)
    p = cons.kappa * rho ** cons.gamma
    v = q / rho
    s = -c * lam * q * np.abs(q) / rho
    expected = [rho, q, p + q * q / rho, s, cons.gamma * p / rho - v * v,
                2.0 * v, -s / rho,
                -c * (dlam * q * np.abs(q) + lam * 2.0 * np.abs(q)) / rho]
    terms = gas.point_terms(rho, q, grid, cons, friction)
    assert all(np.array_equal(a, b) for a, b in zip(terms, expected))

    jl, jr = grid.left, grid.left + 1
    r = dt / grid.dx
    f2, ds_drho, ds_dq = expected[2], expected[6], expected[7]
    df2_drho, df2_dq = expected[4], expected[5]
    blocks = np.concatenate([
        np.full(len(jl), 0.5), np.full(len(jl), 0.5), -r, r,
        -r * df2_drho[jl] - dt * 0.5 * ds_drho[jl],
        r * df2_drho[jr] - dt * 0.5 * ds_drho[jr],
        0.5 - r * df2_dq[jl] - dt * 0.5 * ds_dq[jl],
        0.5 + r * df2_dq[jr] - dt * 0.5 * ds_dq[jr]])
    assert np.array_equal(gas._box_blocks(terms, dt, grid), blocks)

    mass = (0.5 * (rho[jl] + rho[jr]) - 0.5 * (rho_old[jl] + rho_old[jr])
            + r * (q[jr] - q[jl]))
    momentum = (0.5 * (q[jl] + q[jr]) - 0.5 * (q_old[jl] + q_old[jr])
                + r * (f2[jr] - f2[jl]) - dt * 0.5 * (s[jr] + s[jl]))
    assert np.array_equal(gas.box_residual(gas.pair_means(rho_old, q_old),
                                           terms, dt, grid),
                          np.concatenate([mass, momentum]))
