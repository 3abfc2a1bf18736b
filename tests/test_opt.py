"""Barrier optimizer: stopping test, barrier gradient, problem checks."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from gaspower import opt
from gaspower.model import CompressorCostModel
from gaspower.sim import Simulator

from conftest import make_toy_network, make_toy_scenario

# 60 bar at A; C needs a positive lift of about 1.1 bar to stay above 61 bar
BOUND_C = 61.0e5


def bounded_problem(**settings):
    return opt.OptimalControlProblem(
        make_toy_network(),
        make_toy_scenario(pressure_bounds={"C": BOUND_C}), **settings)


def test_zero_lift_violates_the_bound():
    problem = bounded_problem()
    trajectory = Simulator(problem.network, problem.scenario).run()
    assert np.min(trajectory.node_pressure("C", problem.network.constants)) \
        < BOUND_C


def test_optimize_reaches_its_stopping_test(monkeypatch):
    levels = []

    def recording_minimize(*args, **kwargs):
        levels.append(minimize(*args, **kwargs))
        return levels[-1]

    minimize = scipy.optimize.minimize
    monkeypatch.setattr(scipy.optimize, "minimize", recording_minimize)
    problem = bounded_problem()
    result = opt.optimize(problem)

    assert result.mu_final == problem.mu_min
    assert levels[-1].success, levels[-1].message
    assert result.min_margin_bar > 0.0
    assert np.all(result.control > 0.0)
    assert [row["iter"] for row in result.log] == list(range(len(result.log)))
    assert result.log[-1]["objective"] == pytest.approx(result.objective)


def test_unreachable_bound_has_no_feasible_start():
    problem = opt.OptimalControlProblem(
        make_toy_network(),
        make_toy_scenario(pressure_bounds={"C": 95.0e5}))
    with pytest.raises(opt.NoFeasibleStart):
        opt.optimize(problem)


def test_extended_log_matches_value_slope_and_curvature():
    delta, h = 0.02, 1e-6
    s = np.array([delta - h, delta, delta + h])
    value, slope = opt._extended_log(s, delta)
    assert value[1] == pytest.approx(np.log(delta), rel=1e-15)
    assert slope[1] == pytest.approx(1.0 / delta, rel=1e-15)
    # central differences across delta; their error is O(h / delta)
    assert (value[2] - value[0]) / (2 * h) == pytest.approx(1.0 / delta,
                                                            rel=1e-8)
    assert (slope[2] - slope[0]) / (2 * h) == pytest.approx(-1.0 / delta**2,
                                                            rel=1e-4)
    # finite everywhere below delta, where the log itself is not
    assert np.all(np.isfinite(opt._extended_log(np.array([-5.0, 0.0]),
                                                delta)[0]))


@pytest.mark.parametrize("mu, above_delta", [(1.0e-3, True), (100.0, False)])
def test_barrier_gradient_matches_central_differences(mu, above_delta):
    problem = bounded_problem()
    simulator = Simulator(problem.network, problem.scenario,
                          tol=problem.newton_tol)
    model = opt._BarrierModel(problem, simulator)
    u = np.array([1.4, 1.6, 1.5])
    _, grad = model.value_and_gradient(u, mu)

    shifted = model.last[1] - problem.feasibility_tol_bar
    assert np.all(shifted > opt.DELTA_PER_MU * mu) == above_delta
    assert np.all(shifted < opt.DELTA_PER_MU * mu) == (not above_delta)

    h = 1.0e-3   # bar
    fd = np.empty_like(u)
    for j in range(len(u)):
        step = np.zeros_like(u)
        step[j] = h
        fd[j] = (model.value_and_gradient(u + step, mu)[0]
                 - model.value_and_gradient(u - step, mu)[0]) / (2 * h)
    np.testing.assert_allclose(grad, fd, rtol=1e-6)


def test_positive_fixed_cost_is_rejected():
    network = make_toy_network()
    comp = replace(network.gas.compressors[0],
                   cost=CompressorCostModel(d0=5.0))
    network = replace(network, gas=replace(network.gas, compressors=(comp,)))
    with pytest.raises(ValueError, match="compressor CMP: fixed cost d0"):
        opt.OptimalControlProblem(network, make_toy_scenario())
