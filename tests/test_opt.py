"""SLSQP optimizer: stopping test, constraint Jacobian, scenario checks."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from gaspower import io, opt
from gaspower.model import BAR, CompressorCostModel
from gaspower.sim import BoundaryData, Simulator

from conftest import make_toy_network, make_toy_scenario

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# 60 bar at A; C needs a positive lift of about 1.1 bar to stay above 61 bar
BOUND_C = 61.0e5


def bounded_problem(**settings):
    """A Simulator of the toy case bounded at C, with the given scenario
    settings."""
    scenario = make_toy_scenario(pressure_bounds={"C": BOUND_C})
    return Simulator(make_toy_network(), replace(scenario, **settings))


def compressor_flux(trajectory):
    return trajectory.states[:, list(trajectory.index.comp_q.values())]


@pytest.fixture(scope="module")
def solved():
    """The bounded toy problem and its optimum, with SLSQP's own result."""
    results = []

    def recording_minimize(*args, **kwargs):
        results.append(minimize(*args, **kwargs))
        return results[-1]

    minimize = scipy.optimize.minimize
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy.optimize, "minimize", recording_minimize)
        problem = bounded_problem()
        result = opt.optimize(problem)
    assert len(results) == 1
    return problem, result, results[0]


def test_zero_lift_violates_the_bound():
    problem = bounded_problem()
    trajectory = problem.run()
    assert np.min(trajectory.node_pressure("C", problem.network.constants)) \
        < BOUND_C


def test_optimize_reaches_its_stopping_test(solved):
    problem, result, slsqp = solved
    assert slsqp.status == 0, slsqp.message
    assert result.message == slsqp.message
    # the barrier continuation this replaced reached 165.47574
    assert result.objective <= 165.4758
    assert np.min(result.margins_bar) >= \
        problem.scenario.feasibility_tol_bar - 1e-6
    assert result.min_margin_bar == np.min(result.margins_bar)
    assert np.min(compressor_flux(result.trajectory)) >= -1e-6
    assert np.all(result.control > 0.0)
    assert result.iterations == slsqp.nit
    assert (result.status, result.nfev, result.njev) == \
        (slsqp.status, slsqp.nfev, slsqp.njev)
    assert 1 <= len(result.log) <= slsqp.nit


def test_iteration_log_file(solved, tmp_path):
    _, result, _ = solved
    io.write_iteration_log(result.log, tmp_path / "log.csv")
    lines = (tmp_path / "log.csv").read_text().splitlines()
    assert lines[0] == "iter,objective,min_margin_bar"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == list(range(len(result.log)))
    assert float(rows[-1][1]) == float(f"{result.objective:.9g}")


def test_iteration_limit_is_a_failure():
    with pytest.raises(opt.OptimizationError,
                       match="status 9: Iteration limit reached"):
        opt.optimize(bounded_problem(max_iter=1))


def test_unreachable_bound_has_no_feasible_start():
    with pytest.raises(opt.NoFeasibleStart):
        opt.optimize(bounded_problem(pressure_bounds={"C": 95.0e5}))


def test_optimize_keeps_the_lift_within_control_max(solved):
    """The scenario's control_max bounds the lift: a bound below the lift
    that C needs (about 1.1 bar) leaves no feasible start."""
    problem, result, _ = solved
    assert np.max(result.control) <= problem.scenario.control_max
    assert opt._Model(bounded_problem(control_max=5.0 * BAR)).u_max_bar == 5.0
    with pytest.raises(opt.NoFeasibleStart, match="u_max = 1 bar"):
        opt.optimize(bounded_problem(control_max=1.0 * BAR))


def test_feasible_start_tries_control_max_itself():
    """C needs about 1.15 bar of lift: 1 bar, the last doubling below a
    1.2 bar control_max, leaves it below its bound, and the bound itself,
    the last candidate, keeps it 0.07 bar above."""
    problem = bounded_problem(control_max=1.2 * BAR)
    u = opt._feasible_start(opt._Model(problem), problem.scenario.step_count)
    assert np.array_equal(u, np.full(problem.scenario.step_count + 1, 1.2))


def test_infeasible_returned_control_is_a_failure(monkeypatch):
    """A control that SLSQP returns with status 0 but that violates a
    pressure bound raises OptimizationError with the violation."""
    problem = bounded_problem()
    zero = np.zeros(problem.scenario.step_count + 1)
    violation = -opt._Model(problem).evaluate(zero).min_margin
    assert violation > 0
    monkeypatch.setattr(scipy.optimize, "minimize", lambda *args, **kwargs:
                        scipy.optimize.OptimizeResult(
                            x=zero, status=0, message="patched", nit=0,
                            nfev=0, njev=0))
    with pytest.raises(opt.OptimizationError, match=(
            "^final control violates a pressure bound by "
            f"{violation:.3g} bar$")):
        opt.optimize(problem)


def test_constraint_jacobian_matches_central_differences():
    model = opt._Model(bounded_problem())
    u = np.array([1.4, 1.6, 1.5])
    levels = len(u)
    jacobian = model.evaluate(u, derivatives=True).jacobian
    assert jacobian.shape == (2 * levels, levels)   # margins of C, then flux

    j, h = 1, 1.0e-3   # bar
    step = np.zeros_like(u)
    step[j] = h
    fd = (model.evaluate(u + step).constraints
          - model.evaluate(u - step).constraints) / (2 * h)
    margin, flux = slice(0, levels), slice(levels, 2 * levels)
    # the lift u_j reaches no level before j
    assert np.all(jacobian[:j, j] == 0.0)
    assert np.all(jacobian[levels:levels + j, j] == 0.0)
    for rows in (margin, flux):
        assert np.all(np.abs(jacobian[rows, j][j:]) > 0.0)
        np.testing.assert_allclose(jacobian[rows, j][j:], fd[rows][j:],
                                   rtol=1e-6)


def test_sensitivity_sweep_runs_only_for_derivatives(monkeypatch):
    sweeps, sweep = [], opt.state_sensitivities
    monkeypatch.setattr(opt, "state_sensitivities",
                        lambda *args: sweeps.append(1) or sweep(*args))
    model = opt._Model(bounded_problem())
    u = np.array([1.4, 1.6, 1.5])
    evaluation = model.evaluate(u)
    assert evaluation.gradient is None and evaluation.jacobian is None
    assert len(sweeps) == 0
    gradient = model.evaluate(u, derivatives=True).gradient
    assert model.evaluate(u, derivatives=True).gradient is gradient
    assert len(sweeps) == 1

    h = 1.0e-3   # bar
    for j in range(len(u)):
        step = np.zeros_like(u)
        step[j] = h
        fd = (model.evaluate(u + step).value
              - model.evaluate(u - step).value) / (2 * h)
        assert gradient[j] == pytest.approx(fd, rel=1e-6)
    assert len(sweeps) == 1


def test_optimize_sweeps_only_where_slsqp_asks_for_derivatives(monkeypatch):
    runs, sweeps = [], []
    run, sweep = Simulator.run, opt.state_sensitivities
    monkeypatch.setattr(Simulator, "run",
                        lambda *args: runs.append(1) or run(*args))
    monkeypatch.setattr(opt, "state_sensitivities",
                        lambda *args: sweeps.append(1) or sweep(*args))
    result = opt.optimize(bounded_problem())
    assert 1 <= len(sweeps) < len(runs)
    assert (result.simulations, result.sweeps) == (len(runs), len(sweeps))


def test_scaled_objective_solves_two_bundled_copies(monkeypatch):
    """Two copies of the bundled gas network on one source (many-pipes'
    construction, outflows 77 and 62 m^3/s, a 41 bar bound at each S25_k)
    in 1 h steps: on J itself, about 1e4, SLSQP stops with status 8 at 1
    and at 2 BLAS threads.  It minimises s J, s = 1e3 / J(u0) at the
    feasible start u0, reaches status 0, and the result and its log keep
    J."""
    base, scenario = io.load_bundled()
    network, scenario = workloads.many_pipes(base, scenario, [77.0, 62.0])
    simulator = Simulator(network, replace(
        scenario, dt=3600.0, pressure_bounds={"S25_0": 41.0e5,
                                              "S25_1": 41.0e5}))
    calls, minimize = [], scipy.optimize.minimize
    monkeypatch.setattr(scipy.optimize, "minimize", lambda fun, x0, **kwargs:
                        calls.append((fun, x0, kwargs["jac"]))
                        or minimize(fun, x0, **kwargs))
    result = opt.optimize(simulator)
    assert result.status == 0 and result.min_margin_bar > 0.0
    assert result.objective == pytest.approx(8299.74, rel=1e-5)
    assert result.log[-1]["objective"] == pytest.approx(result.objective,
                                                       rel=1e-6)
    (fun, u0, jac), = calls
    model = opt._Model(simulator)
    j0 = model.evaluate(u0, derivatives=True)
    assert j0.value > opt.OBJECTIVE_SCALE
    assert fun(u0) == pytest.approx(opt.OBJECTIVE_SCALE, rel=1e-12)
    np.testing.assert_allclose(jac(u0), opt.OBJECTIVE_SCALE / j0.value
                               * j0.gradient, rtol=1e-12)


@pytest.mark.parametrize("settings", [{"control_max": 0.0}, {"max_iter": 0}])
def test_out_of_range_settings_are_rejected(settings):
    with pytest.raises(ValueError, match="must be"):
        bounded_problem(**settings)


def test_positive_fixed_cost_is_rejected():
    network = make_toy_network()
    comp = replace(network.gas.compressors[0],
                   cost=CompressorCostModel(d0=5.0))
    network = replace(network, gas=replace(network.gas, compressors=(comp,)))
    with pytest.raises(ValueError, match="compressor CMP: fixed cost d0"):
        opt.optimize(Simulator(network, make_toy_scenario()))


def test_reversed_flow_costs_nothing_in_the_objective_only():
    """objective() clips reversed compressor flux at 0; cost_partials()
    does not."""
    network = make_toy_network()
    # the outflow at C turns into a feed, so the compressor runs backwards
    boundary = BoundaryData.from_breakpoints({
        ("A", "pressure"): [(0.0, 60e5)],
        ("C", "outflow"): [(0.0, 150.0), (1800.0, -150.0)]})
    scenario = replace(make_toy_scenario(), boundary=boundary)
    simulator = Simulator(network, scenario)
    trajectory = simulator.run(np.full(3, 1.0e5))
    q = compressor_flux(trajectory)
    assert q[0, 0] > 0.0 and q[-1, 0] < 0.0

    states = trajectory.states.copy()
    states[:, list(trajectory.index.comp_q.values())] = np.maximum(q, 0.0)
    clipped = replace(trajectory, states=states)
    value = opt.objective(simulator, trajectory)
    assert value == opt.cost_partials(simulator, clipped)[0]
    assert value == opt.objective(simulator, clipped)
    assert opt.cost_partials(simulator, trajectory)[0] < value
