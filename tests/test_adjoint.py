"""Adjoint sweep against a dense monolithic solve and finite differences."""

import numpy as np
import pytest

import gaspower.adjoint as adjoint_mod
from gaspower import opt
from gaspower.adjoint import (AdjointState, adjoint_sweep, fd_gradient,
                              state_sensitivities, total_gradient)
from gaspower.model import BAR
from gaspower.sim import Simulator

from conftest import make_toy_network, make_toy_scenario


@pytest.fixture()
def toy():
    simulator = Simulator(make_toy_network(), make_toy_scenario(steps=2))
    control = np.array([1.0e5, 2.0e5, 1.5e5])
    trajectory = simulator.run(control)
    return simulator, trajectory


def stacked_jacobian(simulator, trajectory):
    """Dense Jacobian of all model-equation blocks w.r.t. all states."""
    asm = simulator.assembler
    dt = simulator.scenario.dt
    n = asm.index.size
    m = trajectory.step_count
    full = np.zeros(((m + 1) * n, (m + 1) * n))
    a0, b0, _ = asm.jacobian(trajectory.states[0], trajectory.states[0],
                             trajectory.control[0], simulator.snapshots[0], dt)
    full[:n, :n] = (a0 + b0).toarray()
    for step in range(1, m + 1):
        a, b, _ = asm.jacobian(trajectory.states[step - 1],
                               trajectory.states[step],
                               trajectory.control[step],
                               simulator.snapshots[step], dt)
        rows = slice(step * n, (step + 1) * n)
        full[rows, step * n:(step + 1) * n] = a.toarray()
        full[rows, (step - 1) * n:step * n] = b.toarray()
    return full


def test_sweep_matches_dense_monolithic_solve(toy):
    simulator, trajectory = toy
    n = simulator.assembler.index.size
    m = trajectory.step_count
    rng = np.random.default_rng(31)
    dj_dy = rng.normal(size=(m + 1, n))

    xi = adjoint_sweep(simulator, trajectory, dj_dy).xi
    full = stacked_jacobian(simulator, trajectory)
    xi_dense = np.linalg.solve(full.T, -dj_dy.ravel())
    assert np.max(np.abs(xi.ravel() - xi_dense)) < 1e-12 * max(
        1.0, np.max(np.abs(xi_dense)))


def test_zero_partials_give_zero_adjoint(toy):
    simulator, trajectory = toy
    dj_dy = np.zeros_like(trajectory.states)
    xi = adjoint_sweep(simulator, trajectory, dj_dy).xi
    assert np.all(xi == 0.0)


def test_last_adjoint_sees_only_terminal_partials(toy):
    simulator, trajectory = toy
    rng = np.random.default_rng(35)
    dj_dy = rng.normal(size=trajectory.states.shape)
    other = dj_dy.copy()
    other[:-1] = rng.normal(size=other[:-1].shape)
    xi_a = adjoint_sweep(simulator, trajectory, dj_dy).xi
    xi_b = adjoint_sweep(simulator, trajectory, other).xi
    assert np.allclose(xi_a[-1], xi_b[-1], rtol=0, atol=1e-14)
    assert not np.allclose(xi_a[0], xi_b[0])


def test_linearity_in_the_functional(toy):
    simulator, trajectory = toy
    rng = np.random.default_rng(37)
    d1 = rng.normal(size=trajectory.states.shape)
    d2 = rng.normal(size=trajectory.states.shape)
    a, b = 2.5, -0.75
    xi_comb = adjoint_sweep(simulator, trajectory, a * d1 + b * d2).xi
    xi_1 = adjoint_sweep(simulator, trajectory, d1).xi
    xi_2 = adjoint_sweep(simulator, trajectory, d2).xi
    assert np.allclose(xi_comb, a * xi_1 + b * xi_2, rtol=1e-12, atol=1e-12)


def test_one_transposed_solve_per_time_level(toy, monkeypatch):
    """After a run every level, the steady one at level 0 included, is
    factored in the column order the run learned."""
    simulator, trajectory = toy
    calls = []
    original = adjoint_mod.splu

    def counting(matrix, **options):
        calls.append(options.get("permc_spec", "COLAMD"))
        return original(matrix, **options)

    monkeypatch.setattr(adjoint_mod, "splu", counting)
    adjoint_sweep(simulator, trajectory, np.zeros_like(trajectory.states))
    assert calls == ["NATURAL"] * (trajectory.step_count + 1)


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


def test_partials_shape_checked(toy):
    simulator, trajectory = toy
    with pytest.raises(ValueError):
        adjoint_sweep(simulator, trajectory, np.zeros((1, 3)))


def test_adjoint_state_is_immutable_record(toy):
    simulator, trajectory = toy
    xi = adjoint_sweep(simulator, trajectory,
                       np.zeros_like(trajectory.states))
    assert isinstance(xi, AdjointState)
    assert xi.xi.shape == trajectory.states.shape


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
