"""Adjoint sweep against a dense monolithic solve and finite differences."""

from dataclasses import replace

import numpy as np
import pytest

import gaspower.adjoint as adjoint_mod
from gaspower import gas, opt
from gaspower.adjoint import (adjoint_sweep, fd_gradient,
                              state_sensitivities, total_gradient)
from gaspower.model import BAR, SLACK, GasConstants
from gaspower.sim import (BoundaryData, Simulator, SingularJacobian,
                          mass_balance_report)

from conftest import (coupled_jacobian, make_mixed_network, make_toy_network,
                      make_toy_scenario, zero_flow_column)


@pytest.fixture()
def toy():
    simulator = Simulator(make_toy_network(), make_toy_scenario(steps=2))
    control = np.array([1.0e5, 2.0e5, 1.5e5])
    trajectory = simulator.run(control)
    return simulator, trajectory


@pytest.fixture(scope="module")
def bundled_ramp(bundled):
    """The bundled case over 3 steps, N5's load ramped over the first two,
    so levels 0, 1 and 2 have grids of their own and level 3 shares
    level 2's, with a lift varying in time."""
    network, scenario = bundled
    series = dict(scenario.boundary.series)
    series[("N5", "P")] = (np.array([0.0, 1800.0]), np.array([-0.9, -1.2]))
    series[("N5", "Q")] = (np.array([0.0, 1800.0]), np.array([-0.3, -0.4]))
    simulator = Simulator(network, replace(
        scenario, horizon=3 * scenario.dt, boundary=BoundaryData(series)))
    trajectory = simulator.run(np.array([2.0, 6.0, 4.0, 5.0]) * BAR)
    assert trajectory.grid_iterations.tolist()[1:] == [3, 3, 0]
    return simulator, trajectory


def stacked_jacobian(simulator, trajectory):
    """Dense Jacobian of all model-equation blocks w.r.t. all states, each
    level's block that of the coupled system, grid rows included."""
    asm = simulator.assembler
    dt = simulator.scenario.dt
    n, g = asm.index.size, asm.size
    m = trajectory.step_count
    full = np.zeros(((m + 1) * n, (m + 1) * n))
    prev = asm.jac_prev.toarray()
    for step, y in enumerate(trajectory.states):
        rows = slice(step * n, (step + 1) * n)
        # at level 0 the steady block, dR/dy_next + dR/dy_prev at y_0
        full[rows, rows] = coupled_jacobian(asm, y, dt, steady=step == 0)
        if step:   # the gas rows read the old level's gas unknowns
            full[step * n:step * n + g, (step - 1) * n:(step - 1) * n + g] \
                = prev
    return full


def test_sweep_matches_dense_monolithic_solve(toy):
    simulator, trajectory = toy
    n = simulator.assembler.index.size
    m = trajectory.step_count
    rng = np.random.default_rng(31)
    dj_dy = rng.normal(size=(m + 1, n))

    xi = adjoint_sweep(simulator, trajectory, dj_dy)
    full = stacked_jacobian(simulator, trajectory)
    xi_dense = np.linalg.solve(full.T, -dj_dy.ravel())
    assert np.max(np.abs(xi.ravel() - xi_dense)) < 1e-12 * max(
        1.0, np.max(np.abs(xi_dense)))


def test_sweep_matches_dense_monolithic_solve_with_a_grid(bundled_ramp):
    """With a grid, the gas sweep gives the gas rows of the coupled
    system's adjoint, for partials in every state entry, grid entries
    included."""
    simulator, trajectory = bundled_ramp
    rng = np.random.default_rng(43)
    dj_dy = rng.normal(size=trajectory.states.shape)
    xi = adjoint_sweep(simulator, trajectory, dj_dy)
    xi_dense = np.linalg.solve(stacked_jacobian(simulator, trajectory).T,
                               -dj_dy.ravel()).reshape(dj_dy.shape)
    xi_dense = xi_dense[:, :simulator.assembler.size]
    assert np.max(np.abs(xi - xi_dense)) < 1e-12 * np.max(np.abs(xi_dense))


def test_grid_partials_change_no_control_gradient(bundled_ramp):
    """No grid row reads the lift or a gas unknown: two controls give a
    bit-identical grid tail at every level, the grid columns of the
    partials leave the gas adjoint unchanged, and a functional of grid
    states alone (the slack's P) has the gradient of its dj_du."""
    simulator, trajectory = bundled_ramp
    asm = simulator.assembler
    other = simulator.run(trajectory.control[::-1] + 1.0 * BAR)
    assert not np.array_equal(other.states[:, :asm.size],
                              trajectory.states[:, :asm.size])
    assert np.array_equal(other.states[:, asm.size:],
                          trajectory.states[:, asm.size:])
    rng = np.random.default_rng(47)
    dj_dy = rng.normal(size=trajectory.states.shape)
    grid_only = np.zeros_like(dj_dy)
    grid_only[:, asm.size:] = dj_dy[:, asm.size:]
    gas_only = dj_dy - grid_only
    assert np.array_equal(adjoint_sweep(simulator, trajectory, dj_dy),
                          adjoint_sweep(simulator, trajectory, gas_only))
    slack, = (b.id for b in asm.busses if b.kind == SLACK)
    dj_dy = np.zeros_like(dj_dy)
    dj_dy[:, asm.index.bus[(slack, "P")]] = 1.0   # J = sum of the slack's P
    dj_du = rng.normal(size=len(trajectory.control))
    xi = adjoint_sweep(simulator, trajectory, dj_dy)
    assert np.array_equal(
        total_gradient(simulator, trajectory, xi, dj_du), dj_du)


def test_sensitivities_match_dense_monolithic_solve_with_a_grid(
        bundled_ramp):
    """The tangent sweep over the gas block gives the coupled system's
    state sensitivities, and their grid rows are exactly zero."""
    simulator, trajectory = bundled_ramp
    asm, m = simulator.assembler, trajectory.step_count
    n = asm.index.size
    sens = state_sensitivities(simulator, trajectory, np.arange(n))
    assert np.all(sens[:, asm.size:] == 0.0)
    d_du = np.zeros(((m + 1) * n, m + 1))
    for level in range(m + 1):
        d_du[level * n:level * n + asm.size, level] = asm.d_du
    dense = np.linalg.solve(stacked_jacobian(simulator, trajectory), -d_du)
    dense = dense.reshape(m + 1, n, m + 1)
    assert np.max(np.abs(sens - dense)) < 1e-12 * np.max(np.abs(dense))


def test_zero_partials_give_zero_adjoint(toy):
    simulator, trajectory = toy
    dj_dy = np.zeros_like(trajectory.states)
    xi = adjoint_sweep(simulator, trajectory, dj_dy)
    assert np.all(xi == 0.0)


def test_last_adjoint_sees_only_terminal_partials(toy):
    simulator, trajectory = toy
    rng = np.random.default_rng(35)
    dj_dy = rng.normal(size=trajectory.states.shape)
    other = dj_dy.copy()
    other[:-1] = rng.normal(size=other[:-1].shape)
    xi_a = adjoint_sweep(simulator, trajectory, dj_dy)
    xi_b = adjoint_sweep(simulator, trajectory, other)
    assert np.allclose(xi_a[-1], xi_b[-1], rtol=0, atol=1e-14)
    assert not np.allclose(xi_a[0], xi_b[0])


def test_linearity_in_the_functional(toy):
    simulator, trajectory = toy
    rng = np.random.default_rng(37)
    d1 = rng.normal(size=trajectory.states.shape)
    d2 = rng.normal(size=trajectory.states.shape)
    a, b = 2.5, -0.75
    xi_comb = adjoint_sweep(simulator, trajectory, a * d1 + b * d2)
    xi_1 = adjoint_sweep(simulator, trajectory, d1)
    xi_2 = adjoint_sweep(simulator, trajectory, d2)
    assert np.allclose(xi_comb, a * xi_1 + b * xi_2, rtol=1e-12, atol=1e-12)


def test_one_factorization_per_level_in_the_adjoint_sweep(toy, monkeypatch):
    """The sweep factors each level once, steps M..1 and then the steady
    block at level 0, each through its network block (the Schur complement
    of the pipe block: nodes, compressors and one from-end flow per
    pipe)."""
    simulator, trajectory = toy
    asm = simulator.assembler
    n = asm.index.size
    shapes = []
    original = adjoint_mod.splu

    def counting(matrix, **options):
        shapes.append(matrix.shape)
        return original(matrix, **options)

    monkeypatch.setattr(adjoint_mod, "splu", counting)
    adjoint_sweep(simulator, trajectory, np.zeros_like(trajectory.states))
    network_block = (n - 2 * asm.n_points + len(asm.pipes),) * 2
    assert shapes == [network_block] * (trajectory.step_count + 1)


def test_sweeps_reuse_the_forward_friction(monkeypatch):
    """The forward run keeps Colebrook's values at every state, so neither
    the adjoint nor the tangent sweep solves Colebrook again."""
    simulator = Simulator(make_mixed_network(),
                          make_toy_scenario(steps=3, outflow_flux=60.0))
    calls = []
    original = gas.friction_factor_and_derivative

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(gas, "friction_factor_and_derivative", counting)
    trajectory = simulator.run(np.linspace(1.0e5, 1.6e5, 4))
    assert len(calls) > trajectory.step_count
    calls.clear()
    _, dj_dy, _ = opt.cost_partials(simulator, trajectory)
    adjoint_sweep(simulator, trajectory, dj_dy)
    state_sensitivities(simulator, trajectory, [0, 1])
    assert calls == []


def test_sweeps_leave_the_trajectory_unchanged():
    """The step kernels compute in place, but only in their own arrays:
    the sweeps evaluate each level with friction[n], a view of the
    trajectory, and leave states and friction bitwise unchanged, also
    when both are writable copies.  Simulator.run returns them
    read-only."""
    simulator = Simulator(make_mixed_network(),
                          make_toy_scenario(steps=3, outflow_flux=60.0))
    trajectory = simulator.run(np.linspace(1.0e5, 1.6e5, 4))
    for values in (trajectory.states, trajectory.friction):
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 1.0
    before = trajectory.states.tobytes(), trajectory.friction.tobytes()
    writable = replace(trajectory, states=trajectory.states.copy(),
                       friction=trajectory.friction.copy())
    _, dj_dy, _ = opt.cost_partials(simulator, writable)
    for run in (trajectory, writable):
        adjoint_sweep(simulator, run, dj_dy)
        state_sensitivities(simulator, run, list(range(run.states.shape[1])))
        assert (run.states.tobytes(), run.friction.tobytes()) == before


def test_forward_run_and_sweeps_leave_the_assembler_unchanged(bundled):
    """The assembler keeps no state after set-up: a forward run, an adjoint
    sweep and a tangent sweep leave each attribute bound to the same
    object."""
    simulator = Simulator(*bundled)
    asm = simulator.assembler
    before = dict(vars(asm))
    trajectory = simulator.run(
        np.full(simulator.scenario.step_count + 1, 2.0e5))
    adjoint_sweep(simulator, trajectory, np.ones_like(trajectory.states))
    state_sensitivities(simulator, trajectory, [0])
    assert vars(asm).keys() == before.keys()
    assert all(vars(asm)[name] is value for name, value in before.items())


def test_gradient_of_state_independent_functional(toy):
    """A pure control penalty bypasses the adjoint entirely."""
    simulator, trajectory = toy
    dj_dy = np.zeros_like(trajectory.states)
    xi = adjoint_sweep(simulator, trajectory, dj_dy)
    dj_du = 2.0 * trajectory.control
    grad = total_gradient(simulator, trajectory, xi, dj_du)
    assert np.allclose(grad, 2.0 * trajectory.control)


def test_linear_state_functional_gradient_matches_fd(toy):
    simulator, trajectory = toy
    n = simulator.assembler.index.size
    rng = np.random.default_rng(41)
    weights = rng.normal(size=(trajectory.step_count + 1, n)) * 1e-2

    def functional(traj, control):
        return float(np.sum(weights * traj.states))

    xi = adjoint_sweep(simulator, trajectory, weights)
    grad = total_gradient(simulator, trajectory, xi,
                          np.zeros(trajectory.step_count + 1))
    fd = fd_gradient(simulator, functional, trajectory.control,
                     range(trajectory.step_count + 1), h=1e3)
    for j in range(trajectory.step_count + 1):
        if abs(fd[j]) > 1e-10:
            assert grad[j] == pytest.approx(fd[j], rel=1e-5)


def test_compressor_cost_gradient_matches_fd(toy):
    simulator, trajectory = toy
    _, dj_dy, dj_du = opt.cost_partials(simulator, trajectory)
    xi = adjoint_sweep(simulator, trajectory, dj_dy)
    grad = total_gradient(simulator, trajectory, xi, dj_du)
    fd = fd_gradient(simulator,
                     lambda tr, u: opt.objective(simulator, tr),
                     trajectory.control, range(trajectory.step_count + 1))
    for j in range(trajectory.step_count + 1):
        assert abs(fd[j]) > 1e-10
        assert grad[j] == pytest.approx(fd[j], rel=1e-5)


@pytest.mark.parametrize("steps", [2, 8])
def test_extrapolated_fd_matches_the_adjoint(steps):
    """Richardson extrapolation and 1e-12 perturbed runs leave fd_gradient
    within 1e-7 of the adjoint on every component, the last included,
    whose lift acts on one step alone.  At h = 0.1 bar a central
    difference's truncation reads 8e-7 at component 0 and 8e-8 elsewhere;
    the extrapolated one stays below 1e-11."""
    simulator = Simulator(make_toy_network(), make_toy_scenario(steps=steps))
    control = np.linspace(1.0e5, 2.0e5, steps + 1)
    trajectory = simulator.run(control)
    _, dj_dy, dj_du = opt.cost_partials(simulator, trajectory)
    grad = total_gradient(simulator, trajectory,
                          adjoint_sweep(simulator, trajectory, dj_dy), dj_du)
    for h, rtol in ((100.0, 1e-7), (1.0e4, 1e-9)):
        fd = fd_gradient(simulator,
                         lambda tr, u: opt.cost_partials(simulator, tr)[0],
                         control, range(steps + 1), h=h)
        np.testing.assert_allclose(grad, fd, rtol=rtol, atol=0.0)


def test_partials_shape_checked(toy):
    simulator, trajectory = toy
    with pytest.raises(ValueError):
        adjoint_sweep(simulator, trajectory, np.zeros((1, 3)))


def test_adjoint_sweep_returns_one_array_per_level(bundled_ramp):
    """One row per level, over the gas rows alone."""
    simulator, trajectory = bundled_ramp
    xi = adjoint_sweep(simulator, trajectory,
                       np.zeros_like(trajectory.states))
    assert isinstance(xi, np.ndarray)
    assert xi.shape == (trajectory.step_count + 1, simulator.assembler.size)


def sensitivity_gradient(simulator, trajectory):
    """dJ/du of the compressor cost from the forward sensitivities of the
    state entries the cost reads, next to the adjoint gradient."""
    _, dj_dy, dj_du = opt.cost_partials(simulator, trajectory)
    columns = np.flatnonzero(np.any(dj_dy != 0.0, axis=0))
    sens = state_sensitivities(simulator, trajectory, columns)
    from_sens = dj_du + np.einsum("nk,nkj->j", dj_dy[:, columns], sens)
    xi = adjoint_sweep(simulator, trajectory, dj_dy)
    return from_sens, total_gradient(simulator, trajectory, xi, dj_du)


def test_sensitivity_gradient_equals_adjoint_gradient(toy):
    from_sens, adjoint = sensitivity_gradient(*toy)
    assert np.max(np.abs(from_sens - adjoint)) <= \
        1e-12 * np.max(np.abs(adjoint))


def test_a_run_at_a_general_exponent():
    """At gamma = 1.3 (kappa such that 60 bar has the density it has at
    gamma = 1) the network's constants reach every kernel: the run keeps
    its mass balance, its node pressures are kappa rho^1.3, and the
    adjoint gradient of the compressor cost matches finite differences
    and the tangent sweep."""
    rho_60 = 60e5 / 340.0**2
    cons = GasConstants(kappa=60e5 / rho_60**1.3, gamma=1.3)
    simulator = Simulator(replace(make_toy_network(cells=4), constants=cons),
                          make_toy_scenario(steps=4))
    trajectory = simulator.run(np.array([2.0, 3.0, 1.0, 4.0, 2.0]) * BAR)
    assert np.max(mass_balance_report(simulator, trajectory)) < 1e-12
    rho = trajectory.states[:, simulator.assembler.index.node_rho["C"]]
    assert np.array_equal(trajectory.node_pressure("C", cons),
                          cons.kappa * rho**1.3)
    from_sens, grad = sensitivity_gradient(simulator, trajectory)
    fd = fd_gradient(simulator, lambda tr, u: opt.objective(simulator, tr),
                     trajectory.control, range(trajectory.step_count + 1))
    scale = np.max(np.abs(grad))
    assert np.max(np.abs(grad - fd)) <= 1e-6 * scale
    assert np.max(np.abs(from_sens - grad)) <= 1e-12 * scale


def test_sensitivity_gradient_equals_adjoint_gradient_bundled(
        bundled_simulator):
    times = bundled_simulator.scenario.times
    control = np.interp(times, [0.0, times[-1] / 2, times[-1]],
                        [5.0, 18.0, 10.0]) * BAR
    trajectory = bundled_simulator.run(control)
    from_sens, adjoint = sensitivity_gradient(bundled_simulator, trajectory)
    assert np.max(np.abs(from_sens - adjoint)) <= \
        1e-12 * np.max(np.abs(adjoint))


def test_sensitivities_match_central_differences(toy):
    simulator, trajectory = toy
    index = simulator.assembler.index
    columns = [index.node_rho["C"], index.comp_q["CMP"],
               index.pipe_q["PB"].start + 1]
    sens = state_sensitivities(simulator, trajectory, columns)
    assert sens.shape == (trajectory.step_count + 1, 3,
                          trajectory.step_count + 1)
    h = 1.0e3   # Pa
    for j in range(trajectory.step_count + 1):
        up, down = trajectory.control.copy(), trajectory.control.copy()
        up[j] += h
        down[j] -= h
        fd = (simulator.run(up).states[:, columns]
              - simulator.run(down).states[:, columns]) / (2 * h)
        # a control acts from its own level on
        assert np.all(sens[:j, :, j] == 0.0)
        np.testing.assert_allclose(sens[:, :, j], fd, rtol=1e-6,
                                   atol=1e-8 * np.max(np.abs(fd)))


def test_one_factorization_per_level_for_sensitivities(toy, monkeypatch):
    simulator, trajectory = toy
    calls = []
    original = adjoint_mod.splu

    def counting(matrix, **options):
        calls.append(1)
        return original(matrix, **options)

    monkeypatch.setattr(adjoint_mod, "splu", counting)
    state_sensitivities(simulator, trajectory, [0])
    assert len(calls) == trajectory.step_count + 1


@pytest.mark.parametrize("level", [0, 2])
@pytest.mark.parametrize("sweep", ["adjoint", "tangent"])
def test_singular_level_block_names_the_level(monkeypatch, sweep, level):
    """A singular level block raises SingularJacobian naming the sweep, the
    level and its time: P2's last flow column zeroed in a step level's
    pipe block gives a zero pivot there, and its first flow column (a
    network unknown) zeroed in the steady block an exactly singular
    SuperLU factor of the network block."""
    simulator = Simulator(make_mixed_network(),
                          make_toy_scenario(steps=3, outflow_flux=60.0))
    trajectory = simulator.run(np.linspace(1.0e5, 1.6e5, 4))
    asm, at = simulator.assembler, trajectory.states[level]
    # the Jacobian entries in the column of P2's first flow
    q0 = asm.entries[1] == asm.index.pipe_q["P2"].start
    jacobian = asm.jacobian

    def singular(it, dt):
        values = jacobian(it, dt)
        if not np.array_equal(it.y, at):
            return values
        if level:
            return zero_flow_column(asm, values, "P2")
        values[q0] = -asm._prev_values[q0]  # zero in the steady block
        return values

    monkeypatch.setattr(asm, "jacobian", singular)
    cause = "pipe P2" if level else "Factor is exactly singular"
    with pytest.raises(SingularJacobian, match=rf"^{sweep} sweep, level "
                       rf"{level} \(t = {0.25 * level:.2f} h\): .*{cause}$"):
        if sweep == "adjoint":
            adjoint_sweep(simulator, trajectory,
                          np.ones_like(trajectory.states))
        else:
            state_sensitivities(simulator, trajectory, [0])
