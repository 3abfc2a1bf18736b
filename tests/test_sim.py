"""Coupled step assembly, Newton stepping, steady states, trajectories."""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from gaspower import adjoint as adjoint_mod
from gaspower import gas
from gaspower import io as gio
from gaspower import lu as lu_mod
from gaspower import opt, power
from gaspower import sim as sim_mod
from gaspower.adjoint import adjoint_sweep, state_sensitivities
from gaspower.model import (CompressorArc, CoupledNetwork, GasNetwork,
                            GasNode, Pipe, PowerGrid, incident_pipe_area,
                            validate_network)
from gaspower.sim import (MASS_FLOW_SCALE, BoundaryData,
                          CoupledStepAssembler, MaxIterationsExceeded,
                          Scenario, SimulationError, Simulator,
                          SingularJacobian, VariableIndex, mass_balance_report,
                          newton_solve_step, simulate, steady_state)

from conftest import (box_scheme_residual, coupled_jacobian,
                      coupled_residual, make_mixed_network, make_toy_network,
                      make_toy_scenario, steady_jacobian, step_jacobian,
                      zero_flow_column)


def _index_maps(index):
    """Every (map, key) -> flat index of a VariableIndex, pipe points expanded."""
    entries = {}
    for name in ("pipe_rho", "pipe_q"):
        for key, where in getattr(index, name).items():
            for j, i in enumerate(range(where.start, where.stop)):
                entries[(name, key, j)] = i
    for name in ("node_rho", "comp_q", "bus"):
        for key, i in getattr(index, name).items():
            entries[(name, key, None)] = i
    return entries


NO_GRID = np.empty(0)   # the grid vector of a network without busses
TOL = Scenario.newton_tol   # the Newton tolerance a scenario defaults to


def level_grid(asm, snap, tol=1e-9):
    """The grid vector solved at `snap`'s pinned values, from a flat grid."""
    flat = np.tile([1.0, 0.0, 0.0, 0.0], len(asm.busses))
    return power.solve_powerflow(asm.Y, asm.bus_ids, flat, asm.grid_pinned,
                                 snap.bus_fixed.ravel(), tol)[0]


def step_residual(asm, y_prev, y, u, snap, dt=900.0):
    """The gas rows of the step residual between two full states, at the
    grid vector of y."""
    g = asm.size
    return asm.residual(asm.evaluate(y[:g]), asm.old_means(y_prev[:g]),
                        asm.level_data(u, snap, y[g:]), dt)


def toy_start_and_harder_data(simulator):
    """The toy network's steady gas unknowns at its level-0 data, and the
    level data of twice its outflow (300 kg/(m^2 s)), which a step from
    there meets after several Newton iterations."""
    asm = simulator.assembler
    y0 = steady_state(asm, asm.level_data(0.0, simulator.snapshots[0],
                                          NO_GRID), 900.0, TOL).y
    harder, = asm.boundary_snapshots(
        make_toy_scenario(outflow_flux=300.0).boundary, [0.0])
    return y0, asm.level_data(0.0, harder, NO_GRID)


def mixed_start():
    """The mixed network's assembler, its steady gas unknowns at a 1 bar
    lift and the level data of a 1.2 bar lift."""
    asm = CoupledStepAssembler(make_mixed_network())
    snap, = asm.boundary_snapshots(
        make_toy_scenario(outflow_flux=60.0).boundary, [0.0])
    y = steady_state(asm, asm.level_data(1.0e5, snap, NO_GRID), 900.0, TOL).y
    return asm, y, asm.level_data(1.2e5, snap, NO_GRID)


class TestVariableIndex:
    def test_bijective(self, bundled):
        network, _ = bundled
        index = VariableIndex(network)
        assert sorted(_index_maps(index).values()) == list(range(index.size))

    def test_expected_count(self, bundled):
        network, _ = bundled
        index = VariableIndex(network)
        points = sum(p.cell_count + 1 for p in network.gas.pipes)
        expected = 2 * points + len(network.gas.nodes) \
            + len(network.gas.compressors) + 4 * len(network.grid.busses)
        assert index.size == expected

    def test_names_every_unknown_once(self, bundled):
        network, _ = bundled
        index = VariableIndex(network)
        names = [index.name(i) for i in range(index.size)]
        assert len(set(names)) == index.size
        assert names[index.bus[("N5", "P")]] == "N5 P"
        assert names[index.node_rho["S25"]] == "S25 rho"
        assert names[index.pipe_q["P25"].start + 2] == "P25 q[2]"

    def test_stable_across_rebuilds(self, bundled):
        network, _ = bundled
        assert _index_maps(VariableIndex(network)) == \
            _index_maps(VariableIndex(network))


class TestSteadyState:
    def test_pressure_decreases_along_flow(self, bundled_simulator,
                                            uncontrolled_trajectory):
        net = bundled_simulator.network
        index = bundled_simulator.assembler.index
        y = uncontrolled_trajectory.states[0]
        p = {n: gas.pressure_of_density(y[index.node_rho[n]], net.constants)
             for n in ("S5", "S0", "S17", "S4", "S20", "S25")}
        # friction drops pressure along every pipe; the idle compressor
        # (u = 0) holds it constant across its arc
        assert p["S5"] > p["S0"]
        assert p["S0"] == pytest.approx(p["S17"], rel=1e-12)
        assert p["S17"] > p["S4"] > p["S20"] > p["S25"]
        assert p["S5"] == pytest.approx(60e5, rel=1e-9)

    def test_stagnation_with_zero_demand(self, bundled):
        """Zero offtake and a free plant: gas settles at uniform 60 bar."""
        network, scenario = bundled
        plant = replace(network.plants[0], a0=0.0, a1=0.0, a2=0.0)
        quiet = replace(network, plants=(plant,))
        asm = CoupledStepAssembler(quiet)
        boundary = dict(scenario.boundary.series)
        boundary[("S25", "outflow")] = (np.array([0.0]), np.array([0.0]))
        from gaspower.sim import BoundaryData
        snap, = asm.boundary_snapshots(BoundaryData(boundary), [0.0])
        y = steady_state(asm, asm.level_data(0.0, snap, level_grid(
            asm, snap)), scenario.dt, TOL).y
        for pipe in quiet.gas.pipes:
            assert np.allclose(y[asm.index.pipe_rho[pipe.id]],
                               gas.density_of_pressure(60e5, quiet.constants),
                               atol=1e-9)
            # a loop micro-circulation produces only O(q^2) residuals, so
            # the stagnant flow is zero to sqrt-of-tolerance accuracy
            assert np.allclose(y[asm.index.pipe_q[pipe.id]], 0.0, atol=1e-2)

    def test_rough_pipes_lower_terminal_pressure(self, bundled):
        network, scenario = bundled
        rough_pipes = tuple(replace(p, roughness=2 * p.roughness)
                            for p in network.gas.pipes)
        rough_net = replace(network,
                            gas=replace(network.gas, pipes=rough_pipes))
        base = Simulator(network, scenario)
        rough = Simulator(rough_net, scenario)
        snap = base.snapshots[0]
        grid = level_grid(base.assembler, snap)
        y0, y1 = (steady_state(s.assembler, s.assembler.level_data(
            0.0, s.snapshots[0], grid), scenario.dt, TOL).y
                  for s in (base, rough))
        p_base = y0[base.assembler.index.node_rho["S25"]]
        p_rough = y1[rough.assembler.index.node_rho["S25"]]
        assert p_rough < p_base

    def test_valid_for_any_dt(self, toy_simulator):
        asm = toy_simulator.assembler
        b = asm.level_data(0.0, toy_simulator.snapshots[0], NO_GRID)
        y = steady_state(asm, b, 900.0, TOL).y
        for dt in (1.0, 900.0, 7200.0):
            res = asm.residual(asm.evaluate(y), asm.old_means(y), b, dt)
            assert np.max(np.abs(res)) < 1e-8


class TestResidualStructure:
    def test_fixed_point_when_nothing_changes(self, bundled_simulator,
                                              uncontrolled_trajectory):
        asm = bundled_simulator.assembler
        y0 = uncontrolled_trajectory.states[0]
        res = step_residual(asm, y0, y0, 0.0, bundled_simulator.snapshots[0])
        assert np.max(np.abs(res)) < 1e-9

    def test_interior_density_perturbation_is_local(self, bundled_simulator,
                                                    uncontrolled_trajectory):
        asm = bundled_simulator.assembler
        snap = bundled_simulator.snapshots[1]
        y0 = uncontrolled_trajectory.states[0]
        y1 = uncontrolled_trajectory.states[1].copy()
        base = step_residual(asm, y0, y1, 0.0, snap)
        j = asm.index.pipe_rho["P25"].start + 30    # interior grid point
        y1[j] += 1e-3
        changed = np.nonzero(step_residual(asm, y0, y1, 0.0, snap) - base)[0]
        # two mass and two momentum rows share the stencil of one point
        assert len(changed) == 4
        half = asm.grid.shape[0] // 2   # all mass rows, then all momentum
        assert set(changed // half) == {0, 1}

    def test_plant_coupling_term(self, bundled_simulator,
                                 uncontrolled_trajectory):
        """The level data hold the plant offtake rho0 * eps(P) at the S4
        balance row and nowhere else, at the grid's P of the plant bus, so
        the S4 row moves by rho0 * d eps exactly."""
        asm = bundled_simulator.assembler
        plant, = asm.network.plants   # at S4
        snap = bundled_simulator.snapshots[0]
        y0 = uncontrolled_trajectory.states[0]
        y1 = y0.copy()
        row = asm.index.node_rho["S4"]
        p_col = asm.index.bus[(plant.bus, "P")]
        base = step_residual(asm, y0, y1, 0.0, snap)[row]
        b = asm.level_data(0.0, snap, y1[asm.size:])
        y1[p_col] = 0.95
        shifted = step_residual(asm, y0, y1, 0.0, snap)[row]
        b_shifted = asm.level_data(0.0, snap, y1[asm.size:])
        assert np.flatnonzero(b_shifted != b).tolist() == [row]
        assert b_shifted[row] == plant.reference_density \
            * power.plant_gas_offtake(0.95, plant)
        d_eps = power.plant_gas_offtake(0.95, plant) \
            - power.plant_gas_offtake(y0[p_col], plant)
        expected = -plant.reference_density * d_eps / MASS_FLOW_SCALE
        assert shifted - base == pytest.approx(expected, rel=1e-12)

    def test_control_column_hits_only_compressor_row(self, bundled_simulator):
        asm = bundled_simulator.assembler
        d_du = asm.d_du
        nonzero = np.nonzero(d_du)[0]
        assert len(nonzero) == 1
        assert nonzero[0] == asm.index.comp_q["C1"]
        # residual is written p_out - p_in - u, scaled like pressure rows
        kappa = bundled_simulator.network.constants.kappa
        assert d_du[nonzero[0]] == pytest.approx(-1.0 / kappa)

    def test_prev_state_only_enters_box_rows(self, bundled_simulator):
        asm = bundled_simulator.assembler
        rows = np.unique(asm.jac_prev.tocoo().row)
        half = asm.grid.shape[0] // 2   # all mass rows, then all momentum
        assert set(rows // half) == {0, 1}

    def test_compressor_lift_applied(self, bundled_simulator):
        asm = bundled_simulator.assembler
        snap = bundled_simulator.snapshots[0]
        lift = 2.0e5
        y = steady_state(asm, asm.level_data(lift, snap, level_grid(
            asm, snap)), 900.0, TOL).y
        cons = bundled_simulator.network.constants
        p_in = gas.pressure_of_density(y[asm.index.node_rho["S0"]], cons)
        p_out = gas.pressure_of_density(y[asm.index.node_rho["S17"]], cons)
        assert p_out - p_in == pytest.approx(lift, rel=1e-9)


class TestNewtonStep:
    def test_steady_input_converges_immediately(self, toy_simulator):
        asm = toy_simulator.assembler
        b = asm.level_data(0.0, toy_simulator.snapshots[0], NO_GRID)
        y0 = steady_state(asm, b, 900.0, TOL).y
        y1 = newton_solve_step(asm, y0, b, 900.0, TOL).y
        assert np.max(np.abs(y1 - y0)) < 1e-9

    def test_iteration_budget_enforced(self, toy_simulator):
        asm = toy_simulator.assembler
        y0, harder = toy_start_and_harder_data(toy_simulator)
        with pytest.raises(MaxIterationsExceeded) as err:
            newton_solve_step(asm, y0, harder, 900.0, TOL, max_iter=1)
        assert err.value.residual_norm > 0
        assert str(err.value).startswith(
            "Newton did not reach tolerance, largest residual in row 3 (row "
            "of PB q[0])")

    def test_stuck_newton_names_the_largest_residual(self, toy_simulator):
        """With no iteration allowed Newton stops at its start, y_prev, and
        names the row of the largest residual there and its unknown."""
        asm = toy_simulator.assembler
        y0, harder = toy_start_and_harder_data(toy_simulator)
        res = asm.residual(asm.evaluate(y0), asm.old_means(y0), harder, 900.0)
        row = int(np.abs(res).argmax())
        with pytest.raises(MaxIterationsExceeded) as err:
            newton_solve_step(asm, y0, harder, 900.0, TOL, max_iter=0)
        assert f"largest residual in row {row} (row of " \
            f"{asm.index.name(row)}) (residual {np.abs(res).max():.3e} " \
            "after 0 iterations)" in str(err.value)

    def test_level_data_and_old_means_are_built_once(self, toy_simulator,
                                                     monkeypatch):
        """A run builds each level's data vector b once, however many
        iterates its solve evaluates.  A time step builds its old level's
        means once; the steady solve, whose old level is its iterate, builds
        them once per evaluated iterate."""
        asm = toy_simulator.assembler
        calls = dict.fromkeys(["level_data", "old_means", "evaluate"], 0)
        for name in calls:
            def counted(*args, original=getattr(asm, name), name=name):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(asm, name, counted)
        trajectory = toy_simulator.run()
        assert calls["level_data"] == trajectory.step_count + 1
        assert calls["evaluate"] > calls["level_data"]
        y0, harder = toy_start_and_harder_data(toy_simulator)
        calls.update(old_means=0, evaluate=0)
        steady_state(asm, harder, 900.0, TOL)
        assert calls["evaluate"] > 2
        assert calls["old_means"] == calls["evaluate"]
        calls.update(old_means=0, evaluate=0)
        newton_solve_step(asm, y0, harder, 900.0, TOL)
        assert calls["evaluate"] > 2 and calls["old_means"] == 1

    def test_chord_step_that_does_not_lower_the_residual_is_discarded(
            self, toy_simulator, monkeypatch):
        """A step to the toy network's doubled outflow ends on a chord step
        (3 iterations, 2 factorizations).  When the reused factors return
        the chord step reversed, which raises the residual, the candidate
        is discarded and the iteration factors at its iterate instead: the
        solve still converges, on one factorization and one evaluation
        more."""
        asm = toy_simulator.assembler
        y0, harder = toy_start_and_harder_data(toy_simulator)
        plain = newton_solve_step(asm, y0, harder, 900.0, TOL)
        assert plain.iterations > plain.factorizations > 0
        original, reversed_steps, evaluations = asm.factors, [], []

        def factors(*args):
            made = original(*args)
            fresh, solves = made.solve, []

            def solve(rhs):   # the first solve is the Newton step
                solves.append(1)
                if len(solves) == 1:
                    return fresh(rhs)
                reversed_steps.append(1)
                return -fresh(rhs)

            made.solve = solve
            return made

        evaluate = asm.evaluate
        monkeypatch.setattr(asm, "factors", factors)
        monkeypatch.setattr(asm, "evaluate", lambda *args: (
            evaluations.append(1), evaluate(*args))[1])
        it = newton_solve_step(asm, y0, harder, 900.0, TOL)
        assert len(reversed_steps) == 1 and it.residual_norm < TOL
        assert (it.iterations, it.factorizations, it.halvings) == (
            plain.iterations, plain.factorizations + 1, 0)
        assert len(evaluations) == 1 + plain.iterations + 1

    @staticmethod
    def _patch_solve(asm, monkeypatch, solve):
        """Make every factors' solve return solve(its own solve, rhs)."""
        original = asm.factors

        def factors(*args):
            made = original(*args)
            made.solve = lambda rhs, fresh=made.solve: solve(fresh, rhs)
            return made

        monkeypatch.setattr(asm, "factors", factors)

    def test_non_finite_newton_step_is_a_singular_jacobian(
            self, toy_simulator, monkeypatch):
        """Factors whose solve returns NaN give SingularJacobian before any
        candidate is evaluated."""
        asm = toy_simulator.assembler
        y0, harder = toy_start_and_harder_data(toy_simulator)
        self._patch_solve(asm, monkeypatch,
                          lambda fresh, rhs: np.full_like(rhs, np.nan))
        with pytest.raises(SingularJacobian, match="^non-finite Newton step$"):
            newton_solve_step(asm, y0, harder, 900.0, TOL)

    def test_reversed_steps_stall_the_line_search(self, toy_simulator,
                                                  monkeypatch):
        """When every step points uphill no halving lowers the residual:
        MaxIterationsExceeded names the row of the largest residual at the
        start, after 0 iterations."""
        asm = toy_simulator.assembler
        y0, harder = toy_start_and_harder_data(toy_simulator)
        res = asm.residual(asm.evaluate(y0), asm.old_means(y0), harder, 900.0)
        row = int(np.abs(res).argmax())
        self._patch_solve(asm, monkeypatch, lambda fresh, rhs: -fresh(rhs))
        with pytest.raises(MaxIterationsExceeded) as err:
            newton_solve_step(asm, y0, harder, 900.0, TOL)
        assert str(err.value) == (
            f"Newton line search stalled, largest residual in row {row} (row "
            f"of {asm.index.name(row)}) (residual {np.abs(res).max():.3e} "
            "after 0 iterations)")

    def test_all_coupling_rows_hold_along_trajectory(self, bundled_simulator,
                                                     uncontrolled_trajectory):
        """Node pressure equality and flow balance hold at every state."""
        asm = bundled_simulator.assembler
        traj = uncontrolled_trajectory
        # two coupling rows per pipe follow the box rows; a node's balance
        # or boundary row sits at its density column
        coupling = asm.grid.shape[0] + np.arange(2 * len(asm.pipes))
        rows = np.concatenate([coupling, list(asm.index.node_rho.values())])
        for j in (1, 17, 48):
            res = step_residual(asm, traj.states[j - 1], traj.states[j],
                                traj.control[j],
                                bundled_simulator.snapshots[j])
            assert np.max(np.abs(res[rows])) < 1e-9

    def test_balance_rows_are_the_node_injections(self, bundled_simulator,
                                                  uncontrolled_trajectory):
        """Each balance row is (-node_injections - b) row_scale, bit for bit,
        at every level of a run (level 0: the steady level)."""
        asm, dt = bundled_simulator.assembler, bundled_simulator.scenario.dt
        traj, g = uncontrolled_trajectory, bundled_simulator.assembler.size
        balance = np.ones(len(asm.nodes), dtype=bool)
        balance[asm._pb_nodes] = False
        rows = asm.node_rows[balance]
        injections = asm.node_injections(traj.states)[:, balance]
        for j, snap in enumerate(bundled_simulator.snapshots):
            y = traj.states[j]
            b = asm.level_data(traj.control[j], snap, y[g:])
            res = asm.residual(asm.evaluate(y[:g], traj.friction[j]),
                               asm.old_means(traj.states[max(j - 1, 0), :g]),
                               b, dt)
            assert np.array_equal(res[rows], (-injections[j] - b[rows])
                                  * asm.row_scale[rows])


class TestSimulate:
    def test_trajectories_compare_by_identity(self, bundled_simulator,
                                              uncontrolled_trajectory):
        """Two runs' trajectories compare unequal, as a bool, and hash."""
        other = bundled_simulator.run()
        assert (other == uncontrolled_trajectory) is False
        assert (other == other) is True
        assert len({other, uncontrolled_trajectory, other}) == 2

    def test_steady_persistence_with_constant_boundary(self, bundled):
        network, scenario = bundled
        constant = {}
        for (target, quant), (times, values) in scenario.boundary.series.items():
            constant[(target, quant)] = (np.array([0.0]),
                                         np.array([values[0]]))
        from gaspower.sim import BoundaryData
        frozen = replace(scenario, boundary=BoundaryData(constant))
        traj = simulate(network, frozen)
        drift = np.max(np.abs(traj.states - traj.states[0]), axis=1)
        assert np.max(drift) < 1e-7

    def test_mid_ramp_step_converges(self, bundled_simulator,
                                     uncontrolled_trajectory):
        """Newton stops below tol on every level, the mid-ramp step
        (level 5, t = 1.25 h) among them: the steady residual
        R(y_0, y_0) at level 0 and the step residual at levels 1..M."""
        asm = bundled_simulator.assembler
        traj = uncontrolled_trajectory
        for j in range(traj.step_count + 1):
            res = step_residual(asm, traj.states[max(j - 1, 0)],
                                traj.states[j], 0.0,
                                bundled_simulator.snapshots[j])
            assert np.max(np.abs(res)) < bundled_simulator.tol, j

    def test_every_coupled_row_converges(self, bundled_simulator,
                                         uncontrolled_trajectory):
        """Solving the grid ahead of the gas leaves every row of the coupled
        system below tol at every level: gas, plant, power-flow and pinned
        rows, the plant rows at the level's own grid."""
        asm, dt = bundled_simulator.assembler, bundled_simulator.scenario.dt
        traj = uncontrolled_trajectory
        for j, snap in enumerate(bundled_simulator.snapshots):
            res = coupled_residual(asm, traj.states[max(j - 1, 0)],
                                   traj.states[j], traj.control[j], snap, dt)
            assert np.abs(res).max() < bundled_simulator.tol, j

    def test_coupled_jacobian_matches_central_differences(
            self, bundled_simulator, uncontrolled_trajectory):
        """The gas block, J_gb and J_bb make the Jacobian of the coupled
        system, at a step level where the grid changes and at the steady
        level."""
        asm, dt = bundled_simulator.assembler, bundled_simulator.scenario.dt
        y0, y4, y5 = uncontrolled_trajectory.states[[0, 4, 5]]
        snaps = bundled_simulator.snapshots
        assert_close(coupled_jacobian(asm, y5, dt), central_differences(
            lambda y: coupled_residual(asm, y4, y, 0.0, snaps[5], dt), y5))
        assert_close(coupled_jacobian(asm, y0, dt, steady=True),
                     central_differences(lambda y: coupled_residual(
                         asm, y, y, 0.0, snaps[0], dt), y0))

    def test_grid_iterations_where_the_grid_data_changes(
            self, bundled_simulator, uncontrolled_trajectory):
        """The power flow iterates at level 0, from the flat grid, and
        where its pinned values change (N5's load step, levels 5 and 6);
        elsewhere the previous level's grid solves it."""
        counts = uncontrolled_trajectory.grid_iterations
        fixed = np.array([snap.bus_fixed for snap in
                          bundled_simulator.snapshots])
        changed = 1 + np.flatnonzero((fixed[1:] != fixed[:-1]).any(
            axis=(1, 2)))
        assert changed.tolist() == [5, 6]
        assert np.flatnonzero(counts).tolist() == [0, 5, 6]
        assert counts.shape == (bundled_simulator.scenario.step_count + 1,)

    def test_unchanged_grid_data_skip_the_power_flow(
            self, bundled_simulator, uncontrolled_trajectory, monkeypatch):
        """A level whose pinned grid values equal the previous level's keeps
        that level's grid: a bundled run solves the power flow at levels 0,
        5 and 6 alone, and at every other level a solve from the kept grid
        returns it, to the bit, in 0 iterations, so the trajectory equals
        one that solves the power flow at every level."""
        simulator, states = bundled_simulator, uncontrolled_trajectory.states
        asm, snaps, g = simulator.assembler, simulator.snapshots, \
            bundled_simulator.assembler.size
        calls, original = [], power.solve_powerflow
        monkeypatch.setattr(power, "solve_powerflow", lambda *args: (
            calls.append(args[4].copy()), original(*args))[1])
        assert simulator.run().states.tobytes() == states.tobytes()
        assert np.array_equal(calls, [snaps[j].bus_fixed.ravel()
                                      for j in (0, 5, 6)])
        for j in set(range(1, len(snaps))) - {5, 6}:
            grid, iterations = original(
                asm.Y, asm.bus_ids, states[j - 1, g:],
                asm.grid_pinned, snaps[j].bus_fixed.ravel(), simulator.tol)
            assert iterations == 0
            assert grid.tobytes() == states[j, g:].tobytes()

    def test_control_length_checked(self, bundled_simulator):
        with pytest.raises(ValueError):
            bundled_simulator.run(np.zeros(10))

    @pytest.mark.parametrize("control,message", [
        ([0.0] * 48 + [np.nan], "control contains non-finite entries"),
        ([0.0] + [np.inf] * 48, "control contains non-finite entries"),
        ([0.0, 1.0e5, 0.0],
         "network has no compressor, control must be zero")])
    def test_control_the_network_cannot_apply_is_refused(
            self, bundled_simulator, control, message):
        """A non-finite lift, and a nonzero one on a network without a
        compressor (the pipe-only network, 2 steps), are refused."""
        simulator = bundled_simulator if len(control) == 49 else Simulator(
            make_pipe_only_network(), make_toy_scenario())
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulator.run(np.array(control))

    def test_mass_accounting(self, bundled_simulator,
                             uncontrolled_trajectory):
        errors = mass_balance_report(bundled_simulator,
                                     uncontrolled_trajectory)
        assert np.max(errors) < 10.0 * bundled_simulator.tol

    def test_vectorised_accounting_matches_the_loops(self, bundled_simulator,
                                                      uncontrolled_trajectory):
        """node_injections equals, to the bit, a loop over the pipes and
        then the compressors that adds each end's flow at its node, and
        mass_balance_report, which sums in another order, equals the
        per-step, per-node loop to round-off of the stored mass."""
        asm, dt = bundled_simulator.assembler, bundled_simulator.scenario.dt
        states, nodes = uncontrolled_trajectory.states, asm.node_pos
        into = np.zeros((len(states), len(asm.nodes)))
        arcs = [(p, p.area, asm.index.pipe_q[p.id]) for p in asm.pipes] + [
            (c, incident_pipe_area(asm.network.gas, c.from_node, c.to_node),
             slice(asm.index.comp_q[c.id], asm.index.comp_q[c.id] + 1))
            for c in asm.comps]
        for arc, area, q in arcs:
            into[:, nodes[arc.from_node]] += area * states[:, q][:, 0]
            into[:, nodes[arc.to_node]] -= area * states[:, q][:, -1]
        assert np.array_equal(asm.node_injections(states), into)

        def stored(y):
            return sum(p.area * p.dx * np.sum(0.5 * (rho[:-1] + rho[1:]))
                       for p in asm.pipes
                       for rho in [y[asm.index.pipe_rho[p.id]]])

        raw = []
        for j in range(1, len(states)):
            net_in = 0.0
            for i, node in enumerate(asm.nodes):
                if node.kind == "pressure-boundary":
                    net_in += into[j, i]
                elif node.kind == "flow-boundary":
                    net_in -= incident_pipe_area(asm.network.gas, node.id) \
                        * bundled_simulator.snapshots[j].node_outflow[i]
                elif node.kind == "power-coupling":
                    plant, = (p for p in asm.network.plants
                              if p.gas_node == node.id)
                    net_in -= plant.reference_density * \
                        power.plant_gas_offtake(states[j, asm.index.bus[
                            (plant.bus, "P")]], plant)
            raw.append(stored(states[j]) - stored(states[j - 1])
                       - dt * net_in)
        weight = sum(p.dx * p.area * p.cell_count for p in asm.pipes) \
            + dt * MASS_FLOW_SCALE * sum(n.kind != "pressure-boundary"
                                         for n in asm.nodes)
        errors = mass_balance_report(bundled_simulator,
                                     uncontrolled_trajectory)
        rho_max = states[:, :asm.n_points].max()
        assert np.allclose(errors, np.abs(raw) / weight, rtol=0.0,
                           atol=8 * np.finfo(float).eps * rho_max)

    def test_node_injections_meet_the_demands(self, bundled_simulator,
                                              uncontrolled_trajectory):
        """The q column of gas_nodes.csv: at every level, 77 m^3/s at the
        reference density leave at S25, the plant's offtake rho_ref eps(P)
        at S4 and nothing at a junction, each to the Newton tolerance of
        its balance row."""
        asm = bundled_simulator.assembler
        states = uncontrolled_trajectory.states
        injections = asm.node_injections(states)
        assert injections.shape == (len(states), len(asm.nodes))
        rho_ref = json.loads(gio.bundled_scenario_path().read_text())[
            "reference_density_kg_m3"]
        plant, = asm.network.plants   # at S4
        offtake = power.plant_gas_offtake(
            states[:, asm.index.bus[(plant.bus, "P")]], plant)
        expected = {"S25": -rho_ref * 77.0,
                    "S4": -plant.reference_density * offtake}
        expected.update((n.id, 0.0) for n in asm.nodes if n.kind == "junction")
        assert len(expected) == len(asm.nodes) - 1     # all but the source
        for node, value in expected.items():
            assert np.max(np.abs(injections[:, asm.node_pos[node]] - value)) \
                < bundled_simulator.tol * MASS_FLOW_SCALE, node

    @pytest.mark.parametrize("case", ["bundled", "mixed"])
    def test_trajectory_keeps_the_friction_of_its_states(self, bundled, case):
        """friction[n] is Colebrook's lambda at the flows of states[n], bit
        for bit, read-only with shape (M+1, n_points); evaluating states[n]
        with it rebuilds that lambda bit for bit and dlambda/dq within
        1e-14 relative."""
        simulator = Simulator(*bundled) if case == "bundled" else Simulator(
            make_mixed_network(), make_toy_scenario(steps=3,
                                                    outflow_flux=60.0))
        m = simulator.scenario.step_count
        trajectory = simulator.run(np.linspace(1.0e5, 3.0e5, m + 1))
        asm = simulator.assembler
        n = asm.n_points
        assert trajectory.friction.shape == (m + 1, n)
        with pytest.raises(ValueError, match="read-only"):
            trajectory.friction[0, 0] = 1.0
        for level, y in enumerate(trajectory.states):
            lam, dlam = gas.friction_factor_and_derivative(y[n:2 * n],
                                                           asm.grid)
            assert np.array_equal(trajectory.friction[level], lam)
            rebuilt = asm.evaluate(y[:asm.size],
                                   trajectory.friction[level]).friction
            assert np.array_equal(rebuilt[0], lam)
            assert np.all(np.abs(rebuilt[1] - dlam) <= 1e-14 * np.abs(dlam))

    def test_trajectory_counts_the_newton_iterations(self, monkeypatch):
        """newton_iterations holds each level's Newton iterations (level 0:
        the steady solve's), factorizations the level blocks they factored
        (at most one per iteration, at least one where a level iterates: a
        chord step reuses the last), and residual_norm each level's final
        max-norm residual, below tol."""
        simulator = Simulator(make_mixed_network(), make_toy_scenario(
            steps=3, outflow_flux=60.0))
        asm, factored = simulator.assembler, []
        original = asm.factors

        def factors(*args):
            factored.append(args[3])
            return original(*args)

        monkeypatch.setattr(asm, "factors", factors)
        trajectory = simulator.run(np.linspace(1.0e5, 1.6e5, 4))
        iterations = trajectory.newton_iterations
        lus = trajectory.factorizations
        assert iterations.shape == lus.shape == (4,)
        assert trajectory.residual_norm.shape == (4,)
        assert lus.sum() == len(factored) > lus[0] > 0
        assert factored.count(True) == lus[0]
        assert np.all(lus <= iterations) and np.all(lus[iterations > 0] >= 1)
        assert np.all(trajectory.residual_norm < simulator.tol)
        for level, y in enumerate(trajectory.states):
            res = step_residual(asm, trajectory.states[max(level - 1, 0)], y,
                                trajectory.control[level],
                                simulator.snapshots[level],
                                simulator.scenario.dt)
            assert trajectory.residual_norm[level] == np.abs(res).max()

    def test_run_logs_each_level_at_debug(self, bundled_simulator, caplog,
                                          monkeypatch):
        """At DEBUG, run logs one record per level through sim.log: level,
        t, Newton iterations, halvings, grid iterations, residual and
        factorizations, equal to the Trajectory's.  At WARNING it makes no
        sim.log.debug call."""
        with caplog.at_level(logging.DEBUG, logger=sim_mod.log.name):
            trajectory = bundled_simulator.run()
        records = [r.args for r in caplog.records
                   if r.name == sim_mod.log.name and r.levelno == logging.DEBUG]
        assert len(records) == 49 == trajectory.step_count + 1
        assert [r[0] for r in records] == list(range(49))
        for got, expected in zip(zip(*[r[1:] for r in records]), (
                trajectory.times, trajectory.newton_iterations,
                trajectory.step_halvings, trajectory.grid_iterations,
                trajectory.residual_norm, trajectory.factorizations),
                strict=True):
            assert np.array_equal(got, expected)
        assert trajectory.grid_iterations.any()
        debug_calls = []
        monkeypatch.setattr(sim_mod.log, "debug",
                            lambda *args: debug_calls.append(args))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger=sim_mod.log.name):
            bundled_simulator.run()
        assert debug_calls == [] and caplog.records == []

    def test_trajectory_counts_the_step_halvings(
            self, uncontrolled_trajectory, monkeypatch):
        """step_halvings counts, per level, the halvings of the Newton steps
        whose full step was rejected: none on the bundled uncontrolled run,
        and some on the toy network when its outflow jumps between 60 and
        1500 kg/(m^2 s) and each step starts at y_prev (from the
        tangent-linear start, the run needs none), where each halving costs
        one evaluated candidate and so one residual more."""
        assert not uncontrolled_trajectory.step_halvings.any()
        step = sim_mod.newton_solve_step
        monkeypatch.setattr(sim_mod, "newton_solve_step", lambda *args,
                            y_guess, **kw: step(*args, **kw))
        boundary = BoundaryData.from_breakpoints({
            ("A", "pressure"): [(0.0, 60e5)],
            ("C", "outflow"): [(0.0, 60.0), (900.0, 1500.0),
                               (1800.0, 60.0), (2700.0, 1500.0)]})
        simulator = Simulator(make_toy_network(), Scenario(
            horizon=2700.0, dt=900.0, boundary=boundary))
        asm, residuals = simulator.assembler, []
        original = asm.residual
        monkeypatch.setattr(asm, "residual", lambda *args: (
            residuals.append(1), original(*args))[1])
        trajectory = simulator.run()
        halvings = trajectory.step_halvings
        assert halvings.shape == (4,) and halvings.sum() >= 1
        assert len(residuals) == 4 + trajectory.newton_iterations.sum() \
            + halvings.sum()

    def test_steady_solve_and_steps_take_chord_steps(self):
        """After a Newton step that cuts the residual 1e3-fold the next
        step reuses its factors: on the toy network under a rising lift,
        the steady solve (3 iterations) and level 1 (2) each factor once
        less than they iterate, and levels 2 and 3 end on one factorization
        each."""
        simulator = Simulator(make_toy_network(), make_toy_scenario(steps=3))
        trajectory = simulator.run(np.linspace(1.5e5, 3.0e5, 4))
        assert np.array_equal(trajectory.newton_iterations, [3, 2, 1, 1])
        assert np.array_equal(trajectory.factorizations, [2, 1, 1, 1])
        assert np.all(trajectory.residual_norm < simulator.tol)

    def test_result_does_not_depend_on_call_history(self, bundled):
        simulator = Simulator(*bundled)
        control = np.full(simulator.scenario.step_count + 1, 4.0e5)
        first = simulator.run(control)     # the first run after set-up
        simulator.run(0.5 * control)
        second = simulator.run(control)
        assert np.array_equal(first.states, second.states)

    def test_tangent_linear_start_is_second_order(self, monkeypatch):
        """Level 2 starts at the tangent-linear step of its increments on
        level 1's last factors: under a lift raised at level 1 alone, its
        distance to the converged level falls about 4x (at least 3x) when
        the raise is halved.  Without the old level's increment or the
        lift's, it falls 2x."""
        simulator = Simulator(make_toy_network(), make_toy_scenario(steps=2))
        step, guesses = sim_mod.newton_solve_step, []
        monkeypatch.setattr(sim_mod, "newton_solve_step", lambda *args,
                            y_guess, **kw: (guesses.append(y_guess),
                                            step(*args, y_guess=y_guess,
                                                 **kw))[1])
        distances = []
        for lift in (1.0e5, 0.5e5):
            guesses.clear()
            trajectory = simulator.run(1.5e5 + np.array([0.0, lift, 0.0]))
            assert trajectory.newton_iterations[1:].all()
            distances.append(np.abs(guesses[1] - trajectory.states[
                2, :simulator.assembler.size]).max())
        assert 0.0 < distances[1] <= distances[0] / 3.0

    def test_bundled_four_piece_lift_newton_iterations(self, bundled_simulator):
        """The tangent-linear starts keep the bundled run under the
        benchmark's lift shape (12, 18, 7 and 3 bar over 3 h each) at 93
        Newton iterations in all, steady solve and chord steps included, on
        59 factorizations; without the lift's increment in the prediction it
        takes 97 on 63, and without the old level's 140 on 97."""
        m = bundled_simulator.scenario.step_count
        piece = np.minimum(np.arange(m + 1) * 4 // (m + 1), 3)
        trajectory = bundled_simulator.run(
            np.array([12.0, 18.0, 7.0, 3.0])[piece] * gio.BAR)
        assert trajectory.newton_iterations.sum() <= 93
        assert trajectory.factorizations.sum() <= 61

    def test_one_splu_per_factorization(self, monkeypatch):
        """Every Jacobian Newton takes is factored by one splu, of the
        network block (the Schur complement of the pipe block: nodes,
        compressors and one from-end flow per pipe), in the steady solve
        and in every step alike."""
        simulator = Simulator(make_toy_network(), make_toy_scenario(steps=3))
        asm = simulator.assembler
        size = asm.index.size - 2 * asm.n_points + len(asm.pipes)
        events, steady = [], []
        original_splu, original_steady = sim_mod.splu, sim_mod.steady_state
        original_jacobian = asm.jacobian

        def recording(matrix, **options):
            events.append(("splu", matrix.shape, bool(steady)))
            return original_splu(matrix, **options)

        def jacobian(*args):
            events.append(("jacobian", bool(steady)))
            return original_jacobian(*args)

        def steady_state(*args, **kwargs):
            steady.append(True)
            try:
                return original_steady(*args, **kwargs)
            finally:
                steady.pop()

        monkeypatch.setattr(sim_mod, "splu", recording)
        monkeypatch.setattr(sim_mod, "steady_state", steady_state)
        monkeypatch.setattr(asm, "jacobian", jacobian)
        simulator.run(np.linspace(1.5e5, 3.0e5, 4))
        assert len(events) > 8 and len(events) % 2 == 0
        for (kind, in_steady), (call, shape, lu_steady) in zip(events[0::2],
                                                               events[1::2]):
            assert (kind, call, lu_steady) == ("jacobian", "splu", in_steady)
            assert shape == (size, size)
        assert {in_steady for _, in_steady in events[0::2]} == {True, False}

    def test_steady_failure_reports_the_steady_state_and_the_unknown(
            self, bundled):
        """A NaN load at t = 0 fails level 0's power flow, and the message
        names the steady state and the first non-finite row: N5's P-flow
        row (at N5's V column of the coupled system)."""
        network, scenario = bundled
        series = dict(scenario.boundary.series)
        series[("N5", "P")] = (np.array([0.0, 3600.0]),
                               np.array([np.nan, -0.9]))
        broken = replace(scenario, boundary=BoundaryData(series))
        with pytest.raises(SimulationError,
                           match=r"^steady state \(t = 0\.00 h\) failed: "
                           r"power flow: non-finite residual in the P-flow "
                           r"row of bus N5$"):
            Simulator(network, broken).run()

    def test_failure_reports_time_index(self, bundled, monkeypatch):
        step = sim_mod.newton_solve_step
        monkeypatch.setattr(sim_mod, "newton_solve_step",
                            lambda *args, **kw: step(*args, max_iter=1, **kw))
        with pytest.raises(SimulationError, match=r"step \d+ \(t = "):
            Simulator(*bundled).run()

    def test_non_finite_boundary_value_fails_the_step(self, bundled):
        """A NaN load after t = 0 makes the step residual non-finite for
        every state: the step fails instead of returning its guess."""
        network, scenario = bundled
        series = dict(scenario.boundary.series)
        series[("N5", "P")] = (np.array([0.0, 3600.0]),
                               np.array([-0.9, np.nan]))
        broken = replace(scenario, boundary=BoundaryData(series))
        with pytest.raises(SimulationError, match=r"step 1 \(t = 0\.25 h\) "
                           r"failed: power flow: non-finite residual"):
            Simulator(network, broken).run()

    def test_non_finite_gas_boundary_value_fails_the_step(self, bundled):
        """A NaN outflow after t = 0 makes the gas residual non-finite at
        the step's start, and the message names its row and unknown."""
        network, scenario = bundled
        series = dict(scenario.boundary.series)
        demand = series[("S25", "outflow")][1][0]
        series[("S25", "outflow")] = (np.array([0.0, 3600.0]),
                                      np.array([demand, np.nan]))
        broken = replace(scenario, boundary=BoundaryData(series))
        with pytest.raises(SimulationError, match=r"^step 1 \(t = 0\.25 h\) "
                           r"failed: non-finite residual in row \d+ \(row "
                           r"of S25 rho\)$"):
            Simulator(network, broken).run()


class TestToyNetwork:
    def test_compressor_only_feed_is_consistent(self, toy_simulator):
        """Flux through the compressor equals the pipe feed at node B."""
        traj = toy_simulator.run(np.full(3, 1.5e5))
        asm = toy_simulator.assembler
        for y in traj.states:
            q_pipe = y[asm.index.pipe_q["PB"]][0]
            assert y[asm.index.comp_q["CMP"]] == pytest.approx(q_pipe,
                                                               rel=1e-9)

    def test_outflow_pinned_by_boundary(self, toy_simulator):
        traj = toy_simulator.run()
        asm = toy_simulator.assembler
        q = traj.states[-1][asm.index.pipe_q["PB"]]
        assert q[-1] == pytest.approx(150.0, rel=1e-9)


RAMP_STEPS, RAMP_DT = 4, 900.0


def _ramp(values):
    """Breakpoints (s, value) of a piecewise-linear series over the horizon."""
    times = np.linspace(0.0, RAMP_STEPS * RAMP_DT, len(values))
    return list(zip(times, values))


@st.composite
def toy_ramps(draw):
    """Toy scenario with drawn source-pressure and outflow ramps, a drawn
    compressor lift per level and a drawn pipe refinement."""
    series = lambda lo, hi: st.lists(
        st.floats(lo, hi, allow_nan=False), min_size=1, max_size=4)
    boundary = BoundaryData.from_breakpoints({
        ("A", "pressure"): _ramp(draw(series(40e5, 80e5))),
        ("C", "outflow"): _ramp(draw(series(0.0, 300.0)))})
    control = draw(st.lists(st.floats(0.0, 5e5, allow_nan=False),
                            min_size=RAMP_STEPS + 1, max_size=RAMP_STEPS + 1))
    cells = draw(st.integers(1, 4))
    return (Simulator(make_toy_network(cells=cells),
                      Scenario(RAMP_STEPS * RAMP_DT, RAMP_DT, boundary)),
            np.array(control))


@settings(max_examples=40, deadline=None)
@given(case=toy_ramps())
def test_random_ramps_converge_and_conserve_mass(case):
    simulator, control = case
    trajectory = simulator.run(control)
    assert np.max(mass_balance_report(simulator, trajectory)) < simulator.tol


def central_differences(fun, y, h_rel=1e-5):
    """Columns of d fun / d y by central differences."""
    cols = []
    for i in range(y.size):
        h = h_rel * max(1.0, abs(y[i]))
        up, down = y.copy(), y.copy()
        up[i] += h
        down[i] -= h
        cols.append((fun(up) - fun(down)) / (2.0 * h))
    return np.array(cols).T


def assert_close(analytic, fd):
    assert np.all(np.abs(analytic - fd) <= 1e-6 * np.abs(fd) + 1e-12), \
        np.max(np.abs(analytic - fd))


class TestMixedGeometryJacobian:
    """Assembled derivatives on pipes of different geometry and grids."""

    @pytest.fixture()
    def mixed(self):
        asm = CoupledStepAssembler(make_mixed_network())
        snap, = asm.boundary_snapshots(
            make_toy_scenario(outflow_flux=60.0).boundary, [0.0])
        data = lambda u: asm.level_data(u, snap, NO_GRID)
        y0 = steady_state(asm, data(1.0e5), 900.0, TOL).y
        rng = np.random.default_rng(41)
        y1 = y0 * (1.0 + 1e-3 * rng.uniform(-1, 1, y0.size))
        return asm, data, y0, y1

    @pytest.mark.parametrize("same_levels", [False, True])
    def test_matches_central_differences(self, mixed, same_levels):
        asm, data, y0, y1 = mixed
        y_prev = y1 if same_levels else y0
        u, dt = 1.2e5, 900.0
        it, old, b = asm.evaluate(y1), asm.old_means(y_prev), data(u)
        assert_close(step_jacobian(asm, it, dt), central_differences(
            lambda y: asm.residual(asm.evaluate(y), old, b, dt), y1))
        assert_close(asm.jac_prev.toarray(), central_differences(
            lambda y: asm.residual(it, asm.old_means(y), b, dt), y_prev))
        h = 1.0e2
        fd_u = (asm.residual(it, old, data(u + h), dt)
                - asm.residual(it, old, data(u - h), dt)) / (2.0 * h)
        assert_close(asm.d_du, fd_u)

    def test_residual_then_jacobian_solves_friction_once(self, mixed,
                                                         monkeypatch):
        """In the Newton solves each iterate is evaluated once: Colebrook
        and the pointwise gas terms run once per residual, and the
        Jacobians evaluate nothing."""
        asm, data, y0, y1 = mixed
        calls = dict.fromkeys(["friction_factor_and_derivative",
                               "point_terms", "residual", "jacobian"], 0)

        def count(owner, name):
            def counted(*args, original=getattr(owner, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(owner, name, counted)

        for name in calls:
            count(asm if name in ("residual", "jacobian") else gas, name)
        newton_solve_step(asm, y0, data(1.2e5), 900.0, TOL, y_guess=y1)
        steady_state(asm, data(1.2e5), 900.0, TOL)
        assert calls["jacobian"] > 2
        assert calls["friction_factor_and_derivative"] == \
            calls["point_terms"] == calls["residual"]
        evaluations = calls["point_terms"]
        it = asm.evaluate(y1)
        asm.jacobian(it, 900.0)
        steady_jacobian(asm, it, 900.0)
        assert calls["friction_factor_and_derivative"] == \
            calls["point_terms"] == evaluations + 1

    def test_evaluation_leaves_its_inputs_unchanged(self, mixed):
        """evaluate(y, friction), with lambda given or solved, and the old
        means, residual and Jacobians read from it write into no input:
        y, y_prev, b and the given lambda keep every bit."""
        asm, data, y0, y1 = mixed
        n = asm.n_points
        friction = gas.friction_factor_and_derivative(y1[n:2 * n], asm.grid)[0]
        y, y_prev, given = y1.copy(), y0.copy(), friction.copy()
        b = data(1.2e5)
        kept = b.copy()
        for it in (asm.evaluate(y), asm.evaluate(y, given)):
            asm.residual(it, asm.old_means(y_prev), b, 900.0)
            asm.residual(it, asm.old_means(y), b, 900.0)
            asm.factors(it, 900.0, splu, steady=False)
            asm.factors(it, 900.0, splu, steady=True)
        assert y.tobytes() == y1.tobytes() and y_prev.tobytes() == y0.tobytes()
        assert given.tobytes() == friction.tobytes()
        assert b.tobytes() == kept.tobytes()

    def test_nonpositive_pipe_density_rejected(self, mixed, monkeypatch):
        """A pipe density <= 0, NaN or infinite makes evaluate raise
        ValueError through gas.check_densities, as such a node density
        does; the check runs once per evaluation and not at all for the
        old level, and a warm start that evaluate refuses falls back to
        y_prev: the solve from it is the solve with no warm start, bit for
        bit."""
        asm, data, y0, y1 = mixed
        states, check = [], gas.check_densities
        monkeypatch.setattr(gas, "check_densities", lambda *args:
                            states.append(args) or check(*args))
        for at in (asm.index.pipe_rho["P2"].start, asm.index.node_rho["J1"]):
            for rho in (0.0, -1.0, np.nan, np.inf):
                bad = y1.copy()
                bad[at] = rho
                with pytest.raises(ValueError, match="^densities must be "
                                   "positive and finite$"):
                    asm.evaluate(bad)
        states.clear()
        it = asm.evaluate(y1)
        asm.residual(it, asm.old_means(y0), data(1.2e5), 900.0)
        asm.jacobian(it, 900.0)
        assert len(states) == 1
        plain = newton_solve_step(asm, y0, data(1.2e5), 900.0, TOL)
        refused = newton_solve_step(asm, y0, data(1.2e5), 900.0, TOL,
                                    y_guess=bad)
        assert refused.y.tobytes() == plain.y.tobytes()
        assert (refused.iterations, refused.factorizations) == (
            plain.iterations, plain.factorizations)

    def test_pipe_rows_equal_box_scheme(self, mixed):
        asm, data, y0, y1 = mixed
        res = asm.residual(asm.evaluate(y1), asm.old_means(y0), data(1.2e5),
                           900.0)
        cells = asm.grid.shape[0] // 2  # all mass rows, then all momentum
        start = 0                       # of pipe k: cells of pipes 0..k-1
        for pipe in asm.pipes:
            prev, nxt = ((y[asm.index.pipe_rho[pipe.id]],
                          y[asm.index.pipe_q[pipe.id]]) for y in (y0, y1))
            box = box_scheme_residual(prev, nxt, 900.0, pipe.dx, pipe)
            n = pipe.cell_count
            for first, part in ((start, box[:n]), (cells + start, box[n:])):
                rows = slice(first, first + n)
                assert np.array_equal(res[rows], part * asm.row_scale[rows])
            start += n


def test_one_density_check_per_evaluation(bundled_simulator, monkeypatch):
    """gas.check_densities, the one admissibility test, runs exactly once
    per assembler.evaluate call and nowhere else: over a run (the steady
    start, the predictions, the candidates), both sweeps (one call per
    batch of levels), and a warm start that evaluate refuses."""
    simulator, asm = bundled_simulator, bundled_simulator.assembler
    checks, per_call = [], []
    check, evaluate = gas.check_densities, asm.evaluate
    monkeypatch.setattr(gas, "check_densities",
                        lambda rho: checks.append(1) or check(rho))

    def counted(*args):
        before = len(checks)
        try:
            return evaluate(*args)
        finally:
            per_call.append(len(checks) - before)

    monkeypatch.setattr(asm, "evaluate", counted)
    control = np.linspace(2.0e5, 12.0e5, simulator.scenario.step_count + 1)
    trajectory = simulator.run(control)
    run_calls = len(per_call)
    assert run_calls >= (trajectory.newton_iterations + 1).sum()
    _, dj_dy, _ = opt.cost_partials(simulator, trajectory)
    adjoint_sweep(simulator, trajectory, dj_dy)
    state_sensitivities(simulator, trajectory, asm.node_rows)
    per_batch = adjoint_mod.BATCH_BYTES // (8 * len(asm.entries[0]))
    batches = -(-len(trajectory.times) // max(1, per_batch))
    assert len(per_call) == run_calls + 2 * batches
    y_prev = trajectory.states[0, :asm.size]
    bad = y_prev.copy()
    bad[asm.node_rows[0]] = np.nan
    newton_solve_step(asm, y_prev, asm.level_data(
        0.0, simulator.snapshots[0], trajectory.states[0, asm.size:]),
        simulator.scenario.dt, TOL, y_guess=bad)
    assert per_call.count(1) == len(per_call) == len(checks)


def test_compressor_needs_an_adjacent_pipe():
    toy = make_toy_network()
    network = replace(toy, gas=GasNetwork(toy.gas.nodes[:2], (),
                                          toy.gas.compressors))
    with pytest.raises(ValueError, match="compressor CMP has no adjacent "
                                         "pipe to take a reference"):
        CoupledStepAssembler(network)


def test_missing_boundary_series_are_all_named(bundled):
    network, scenario = bundled
    series = dict(scenario.boundary.series)
    for key in [("S25", "outflow"), ("N1", "phi"), ("N9", "Q")]:
        del series[key]
    with pytest.raises(ValueError, match=r"^missing boundary data for "
                                         r"S25\.outflow, N1\.phi, N9\.Q$"):
        Simulator(network, Scenario(scenario.horizon, scenario.dt,
                                    BoundaryData(series)))


@pytest.mark.parametrize("value", [0.0, -5.0e5, np.nan, np.inf])
def test_pressure_boundary_not_positive_and_finite_names_the_node(bundled,
                                                                   value):
    """A code-built pressure series with one value that is not positive
    and finite is refused by the Simulator, naming the node's series."""
    network, scenario = bundled
    series = dict(scenario.boundary.series)
    times, values = series[("S5", "pressure")]
    values = values.copy()
    values[-1] = value
    series[("S5", "pressure")] = (times, values)
    with pytest.raises(ValueError, match=r"^S5\.pressure must be positive "
                                         r"and finite$"):
        Simulator(network, replace(scenario, boundary=BoundaryData(series)))


def test_unread_boundary_series_are_all_named(bundled):
    """A series the network does not read, built in code, is refused with
    every other such series: at a junction, a load bus's V, a pressure
    boundary's outflow and an unknown target."""
    network, scenario = bundled
    series = dict(scenario.boundary.series)
    for key in [("S0", "pressure"), ("N5", "V"), ("S5", "outflow"),
                ("X1", "P")]:
        series[key] = (np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match=r"^boundary data the network does "
                       r"not read: S0\.pressure, N5\.V, S5\.outflow, X1\.P$"):
        Simulator(network, Scenario(scenario.horizon, scenario.dt,
                                    BoundaryData(series)))


@pytest.mark.parametrize("field,value", [("horizon", 0.0), ("dt", 0.0),
                                         ("horizon", -1800.0),
                                         ("dt", -900.0), ("dt", np.nan)])
def test_scenario_time_grid_must_be_positive(field, value):
    times = {"horizon": 1800.0, "dt": 900.0, field: value}
    with pytest.raises(ValueError, match=f"scenario {field} must be positive"):
        Scenario(boundary=BoundaryData({}), **times)


@pytest.mark.parametrize("settings,message", [
    ({"control_max": 0.0}, "scenario control_max must be positive"),
    ({"control_max": np.nan}, "scenario control_max must be positive"),
    ({"max_iter": 0}, "scenario max_iter must be at least 1"),
    ({"pressure_bounds": {"C": 0.0}}, "pressure bound at C must be positive"),
    ({"pressure_bounds": {"C": -1.0e5}},
     "pressure bound at C must be positive"),
    ({"newton_tol": 0.0}, "scenario newton_tol must be positive"),
    ({"newton_tol": -1.0e-9}, "scenario newton_tol must be positive"),
    ({"newton_tol": np.nan}, "scenario newton_tol must be positive"),
    ({"feasibility_tol_bar": -1.0e-3},
     "scenario feasibility_tol_bar must not be negative"),
    ({"feasibility_tol_bar": np.nan},
     "scenario feasibility_tol_bar must not be negative")])
def test_scenario_settings_out_of_range(settings, message):
    with pytest.raises(ValueError, match=message):
        Scenario(horizon=1800.0, dt=900.0, boundary=BoundaryData({}),
                 **settings)


def test_simulator_solves_to_the_scenario_newton_tol(bundled):
    """Simulator takes its Newton tolerance from the scenario: a looser one
    stops each solve earlier."""
    network, scenario = bundled
    tight, loose = (Simulator(network, replace(scenario, newton_tol=tol))
                    for tol in (1.0e-9, 1.0e-6))
    assert (tight.tol, loose.tol) == (1.0e-9, 1.0e-6)
    control = np.full(scenario.step_count + 1, 10.0e5)
    runs = tight.run(control), loose.run(control)
    assert np.max(runs[0].residual_norm) < 1.0e-9
    assert np.max(runs[1].residual_norm) < 1.0e-6
    assert np.sum(runs[1].newton_iterations) \
        < np.sum(runs[0].newton_iterations)


def test_scenario_with_a_fractional_step_count_is_refused():
    with pytest.raises(ValueError, match="integer number of steps"):
        Scenario(horizon=1000.0, dt=900.0, boundary=BoundaryData({}))


def test_gas_only_network_supported():
    network = make_toy_network()
    assert network.grid.busses == ()
    traj = simulate(network, make_toy_scenario())
    assert traj.step_count == 2


def test_network_without_a_pressure_boundary_is_refused():
    """Flow boundaries alone leave the density level free: validate_network
    names the case, and the assembler refuses the network before a steady
    solve could meet a singular block."""
    gas_net = GasNetwork(
        nodes=(GasNode("A", "flow-boundary"), GasNode("B", "junction"),
               GasNode("C", "flow-boundary")),
        pipes=(Pipe("P1", "A", "B", length=2000.0, cell_count=2),
               Pipe("P2", "B", "C", length=2000.0, cell_count=2)))
    network = CoupledNetwork(gas=gas_net, grid=PowerGrid((), ()))
    assert validate_network(gas_net, network.grid) == [
        "gas network has no pressure-boundary node"]
    with pytest.raises(ValueError, match="no pressure-boundary node"):
        CoupledStepAssembler(network)


class TestFixedPattern:
    """The step Jacobian keeps the entry order fixed at set-up, and each
    of its values owns its array."""

    @pytest.fixture()
    def step(self, bundled_simulator, uncontrolled_trajectory):
        """The assembler, level 5's snapshot, the gas unknowns of levels 4
        and 5 and the grid vector of level 5."""
        asm = bundled_simulator.assembler
        y0, y1 = uncontrolled_trajectory.states[4:6]
        return (asm, bundled_simulator.snapshots[5], y0[:asm.size],
                y1[:asm.size], y1[asm.size:])

    def test_pattern_is_fixed_and_canonical(self, step):
        """The entry list names each (row, col) once, and every Jacobian's
        values, one per entry, own their array: a steady block built in
        between leaves them unchanged."""
        asm, snap, y0, y1, _ = step
        rows, cols = asm.entries
        assert len(np.unique(rows * asm.size + cols)) == len(rows)
        it = asm.evaluate(y1)
        first = asm.jacobian(it, 900.0)
        values = first.copy()
        steady = asm.jacobian(it, 900.0) + asm._prev_values
        second = asm.jacobian(asm.evaluate(1.001 * y1), 900.0)
        assert not np.array_equal(first, second)
        assert np.array_equal(first, values)
        for jac in (first, second, steady):
            assert jac.shape == rows.shape
            assert not any(np.shares_memory(jac, other)
                           for other in (first, second, steady)
                           if other is not jac)

    def test_no_level_block_is_a_matrix(self, bundled_simulator,
                                        uncontrolled_trajectory, monkeypatch):
        """A level Jacobian stays a flat array of values, which
        condensation.factors reads: Newton's steps, the steady iterations
        and the adjoint sweep build no CSR matrix.  Newton goes through
        factors(), whose steady flag says which block it factors; the
        sweep calls jacobian() once per level and factors its levels in
        batches (adjoint.BATCH_BYTES)."""
        asm, dt = bundled_simulator.assembler, bundled_simulator.scenario.dt
        states, calls = uncontrolled_trajectory.states, []
        assert not hasattr(asm, "matrix")
        for name in ("factors", "jacobian"):
            def counted(*args, original=getattr(asm, name), name=name):
                calls.append((name, args[3]) if name == "factors" else name)
                return original(*args)
            monkeypatch.setattr(asm, name, counted)
        gas = states[:, :asm.size]
        values = asm.jacobian(asm.evaluate(gas[5]), dt)
        assert values.shape == asm.entries[0].shape
        step, steady = [("factors", False), "jacobian"], [
            ("factors", True), "jacobian"]
        calls.clear()
        newton_solve_step(asm, gas[4], asm.level_data(
            0.0, bundled_simulator.snapshots[5], states[5, asm.size:]), dt,
            TOL)
        assert len(calls) > 2 and calls == step * (len(calls) // 2)
        calls.clear()
        steady_state(asm, asm.level_data(0.0, bundled_simulator.snapshots[0],
                                         states[0, asm.size:]), dt, TOL)
        assert len(calls) > 2 and calls == steady * (len(calls) // 2)
        calls.clear()
        adjoint_sweep(bundled_simulator, uncontrolled_trajectory,
                      np.ones_like(states))
        assert calls == ["jacobian"] * len(states)

    def test_learned_order_changes_no_bit(self, step):
        """Two condensed factorizations of one step block, each ordering
        its network block afresh, solve to the bit alike, in both
        directions."""
        asm, snap, y0, y1, _ = step
        values = asm.jacobian(asm.evaluate(y1), 900.0)
        first, second = (asm.condensation.factor(values, splu)
                         for _ in range(2))
        rhs = np.random.default_rng(7).standard_normal((asm.size, 3))
        for b in (rhs[:, 0], rhs):
            assert np.array_equal(first.solve(b), second.solve(b))
            assert np.array_equal(first.solve_transposed(b),
                                  second.solve_transposed(b))

    def test_flat_grid_factors_do_not_depend_on_the_call(
            self, bundled_simulator):
        """The steady block at the flat start (flat_state: one density and
        one flux throughout), where SuperLU's pivot search may meet exact
        ties, solves to the bit alike from a first and a later
        factorization, and the factorization leaves the start unchanged."""
        asm, snap = bundled_simulator.assembler, bundled_simulator.snapshots[0]
        data = asm.level_data(0.0, snap, level_grid(asm, snap))
        y = asm.flat_state(data)
        it = asm.evaluate(y)
        first, later = (asm.factors(it, bundled_simulator.scenario.dt, splu,
                                    steady=True) for _ in range(2))
        rhs = np.random.default_rng(11).standard_normal((asm.size, 3))
        for b in (rhs[:, 0], rhs):
            assert np.array_equal(first.solve(b), later.solve(b))
            assert np.array_equal(first.solve_transposed(b),
                                  later.solve_transposed(b))
        assert np.array_equal(asm.flat_state(data), y)

    def test_zero_pivot_names_the_pipe(self, monkeypatch):
        """A singular pipe block gives a zero pivot at the factorization,
        and Newton's error names the pipe."""
        asm, y, b = mixed_start()
        original = asm.jacobian
        monkeypatch.setattr(asm, "jacobian", lambda *args: zero_flow_column(
            asm, original(*args), "P2"))
        with pytest.raises(SingularJacobian, match="pipe P2$"):
            newton_solve_step(asm, y, b, 900.0, TOL, y_guess=1.001 * y)

    def test_singular_interval_block_names_the_pipe(self, monkeypatch):
        """A singular 2x2 block of one cell interval (mass and momentum row
        by its right end's q and rho), as near (dt/dx)(c - v) = 1/2, makes
        the mass row's pivot after the row operation exactly 0, and
        Newton's error names the pipe."""
        asm, y, b = mixed_start()
        original, last = asm.jacobian, len(asm.grid.left) - 1   # in P3

        def singular(*args):
            values = original(*args)
            block = values[:8 * (last + 1)].reshape(8, -1)[:, last]
            block[3], block[5], block[7] = block[1], 1.0, 1.0
            return values

        monkeypatch.setattr(asm, "jacobian", singular)
        with pytest.raises(SingularJacobian, match="pipe P3$"):
            newton_solve_step(asm, y, b, 900.0, TOL, y_guess=1.001 * y)

    def test_zero_momentum_pivot_names_the_pipe(self, monkeypatch):
        """A zero momentum-row entry by an interval's right-end density,
        the pipe block's first pivot, stops the factorization before the
        row operation, and Newton's error names the pipe."""
        asm, y, b = mixed_start()
        original = asm.jacobian
        n = len(asm.grid.left)
        k = np.flatnonzero(asm.grid.left == asm.index.pipe_rho["P2"].start)[0]

        def zeroed(*args):
            values = original(*args)
            values[5 * n + k] = 0.0
            return values

        monkeypatch.setattr(asm, "jacobian", zeroed)
        with pytest.raises(SingularJacobian,
                           match="^zero pivot in the pipe block of pipe P2$"):
            newton_solve_step(asm, y, b, 900.0, TOL, y_guess=1.001 * y)

    def test_prev_block_is_one_read_only_matrix(self, bundled_simulator):
        """dR/dy_prev is one CSR matrix, and it and dR/du are read-only."""
        asm = bundled_simulator.assembler
        assert asm.jac_prev.format == "csr"
        for values in (asm.jac_prev.data, asm.d_du):
            with pytest.raises(ValueError):
                values[0] = 1.0

    @pytest.mark.parametrize("case", ["bundled", "mixed"])
    def test_prev_block_has_two_old_level_entries_per_box_row(
            self, bundled_simulator, case):
        """jac_prev is canonical CSR: each box row's two old-level entries
        of the stencil (a mass row's densities, a momentum row's flows),
        -1/2 row_scale each, and no entry in any other row."""
        asm = bundled_simulator.assembler if case == "bundled" else \
            CoupledStepAssembler(make_mixed_network())
        jac, n_box = asm.jac_prev, asm.grid.shape[0]
        assert jac.format == "csr" and jac.has_canonical_format
        assert np.array_equal(np.diff(jac.indptr),
                              np.where(np.arange(asm.size) < n_box, 2, 0))
        (rows, cols), old = asm.grid.stencil()
        for row in range(n_box):
            assert np.array_equal(
                jac.indices[2 * row:2 * row + 2],
                np.sort(cols[old][rows[old] == row]))
        assert np.array_equal(jac.data, -0.5 * np.repeat(
            asm.row_scale[:n_box], 2))

    def test_every_column_matches_central_differences(self, step):
        """Covers the plant and compressor rows too, the grid held fixed."""
        asm, snap, y0, y1, grid = step
        b, dt = asm.level_data(2.0e5, snap, grid), 900.0
        jac_next = step_jacobian(asm, asm.evaluate(y1), dt)
        assert_close(jac_next, central_differences(
            lambda y: asm.residual(asm.evaluate(y), asm.old_means(y0), b, dt),
            y1))

    def test_steady_jacobian_matches_central_differences(self, step):
        """The steady block equals dR/dy_next + dR/dy_prev exactly."""
        asm, snap, _, y, grid = step
        b, dt = asm.level_data(2.0e5, snap, grid), 900.0
        it = asm.evaluate(y)
        jac = steady_jacobian(asm, it, dt)
        assert np.array_equal(jac, step_jacobian(asm, it, dt)
                              + asm.jac_prev.toarray())
        assert_close(jac, central_differences(
            lambda y: asm.residual(asm.evaluate(y), asm.old_means(y), b, dt),
            y))


def make_parallel_network():
    """Compressor feeding two parallel pipes between one node pair, which
    differ in diameter and cell count."""
    gas_net = GasNetwork(
        nodes=(GasNode("A", "pressure-boundary"), GasNode("B", "junction"),
               GasNode("C", "flow-boundary")),
        pipes=(Pipe("P1", "B", "C", length=2000.0, diameter=0.6,
                    cell_count=2),
               Pipe("P2", "B", "C", length=2000.0, diameter=0.4,
                    cell_count=3)),
        compressors=(CompressorArc("CMP", "A", "B"),),
    )
    return CoupledNetwork(gas=gas_net, grid=PowerGrid((), ()))


def make_reversed_network():
    """The toy network with its pipe laid from C to B, so that the gas
    flows against the pipe's direction (q < 0)."""
    toy = make_toy_network()
    pipe, = toy.gas.pipes
    return replace(toy, gas=replace(toy.gas, pipes=(
        replace(pipe, from_node="C", to_node="B"),)))


FACTOR_CASES = {
    "toy": lambda: (make_toy_network(), make_toy_scenario(), 1.5e5),
    "long": lambda: (make_toy_network(cells=20), make_toy_scenario(), 1.5e5),
    "reversed": lambda: (make_reversed_network(), make_toy_scenario(), 1.5e5),
    "mixed": lambda: (make_mixed_network(),
                      make_toy_scenario(outflow_flux=60.0), 1.0e5),
    "parallel": lambda: (make_parallel_network(), make_toy_scenario(), 1.5e5),
    "bundled": lambda: (*gio.load_bundled(), 2.0e5),
}


@pytest.mark.parametrize("case", list(FACTOR_CASES))
def test_factors_solve_both_directions(case):
    """solve gives J^-1 b and solve_transposed J^-T b, for one and for
    several right-hand sides: from the condensed factors of a step block
    and of the steady block (factors(..., steady=True))."""
    network, scenario, u = FACTOR_CASES[case]()
    control = np.full(scenario.step_count + 1, u)
    simulator = Simulator(network, scenario)
    asm, dt = simulator.assembler, scenario.dt
    y = simulator.run(control).states[:, :asm.size]
    flows = y[1][asm.n_points:2 * asm.n_points]
    assert np.all(flows < 0) if case == "reversed" else np.all(flows > 0)
    rhs = np.random.default_rng(5).standard_normal((asm.size, 3))
    for level, steady in ((1, False), (0, True)):
        it = asm.evaluate(y[level])
        dense = (steady_jacobian if steady else step_jacobian)(asm, it, dt)
        lu = asm.factors(it, dt, splu, steady)
        for b in (rhs[:, 0], rhs):
            for k in (0, 1):
                got = (lu.solve, lu.solve_transposed)[k](b)
                expected = np.linalg.solve((dense, dense.T)[k], b)
                assert got.shape == b.shape
                assert np.linalg.norm(got - expected) <= \
                    1e-10 * np.linalg.norm(expected)


@pytest.fixture(scope="module")
def mixed_factors():
    """The block size of the mixed case and a function that factors its
    step block (steady=False) or its steady block afresh."""
    network, scenario, u = FACTOR_CASES["mixed"]()
    simulator = Simulator(network, scenario)
    asm, dt = simulator.assembler, scenario.dt
    y = simulator.run(np.full(scenario.step_count + 1, u)).states
    its = [asm.evaluate(y[level, :asm.size]) for level in (1, 0)]
    return asm.size, lambda steady: asm.factors(its[steady], dt, splu, steady)


@pytest.mark.parametrize("steady", [False, True])
@pytest.mark.parametrize("direction", ["solve", "solve_transposed"])
def test_columns_solve_as_one_column_each(mixed_factors, steady, direction):
    """A solve of k columns equals the k one-column solves to the bit, in
    both directions: one code path serves the tangent sweep's many columns
    and the single column of Newton and the adjoint."""
    size, factors = mixed_factors
    solve = getattr(factors(steady), direction)
    rhs = np.random.default_rng(13).standard_normal((size, 49))
    expected = np.stack([solve(rhs[:, j]) for j in range(49)], 1)
    assert np.array_equal(solve(rhs), expected)
    assert np.array_equal(solve(rhs[:, :1])[:, 0], expected[:, 0])


@pytest.mark.parametrize("steady", [False, True])
def test_factors_are_complete_when_returned(mixed_factors, steady):
    """factors() returns complete factors, which no solve changes: two
    factorizations of one block, one solved in each order, give the same
    bits, and so does a second solve."""
    size, factors = mixed_factors
    rhs = np.random.default_rng(17).standard_normal((size, 2))
    one, other = factors(steady), factors(steady)
    x, v = one.solve(rhs), one.solve_transposed(rhs)
    assert np.array_equal(other.solve_transposed(rhs), v)
    assert np.array_equal(other.solve(rhs), x)
    assert np.array_equal(one.solve(rhs), x)
    assert np.array_equal(one.solve_transposed(rhs), v)


def test_solves_read_the_substitution_result(monkeypatch):
    """solve and solve_transposed build their result from the array
    dtbtrs returns, so they hold where it solves in a copy of the buffer
    rather than in place."""
    network, scenario, u = FACTOR_CASES["mixed"]()
    simulator = Simulator(network, scenario)
    asm, dt = simulator.assembler, scenario.dt
    y = simulator.run(np.full(scenario.step_count + 1, u)).states[1]
    it = asm.evaluate(y[:asm.size])
    dense = step_jacobian(asm, it, dt)
    original = lu_mod.dtbtrs
    monkeypatch.setattr(lu_mod, "dtbtrs", lambda ab, b, **options: original(
        ab, b.copy(order="F"), **{**options, "overwrite_b": 0}))
    rhs = np.random.default_rng(3).standard_normal((asm.size, 2))
    lu = asm.factors(it, dt, splu, False)
    for k in (0, 1):
        got = (lu.solve, lu.solve_transposed)[k](rhs)
        expected = np.linalg.solve((dense, dense.T)[k], rhs)
        assert np.linalg.norm(got - expected) <= \
            1e-10 * np.linalg.norm(expected)


def _long_pipes_level(dt):
    """The bundled network with every pipe's grid 10 times finer (P25: 66 km
    in 100 m cells), a converged state of its uncontrolled run, and a
    two-step scenario at dt."""
    network, scenario = gio.load_bundled()
    network = replace(network, gas=replace(network.gas, pipes=tuple(
        replace(p, cell_count=10 * p.cell_count) for p in network.gas.pipes)))
    asm = CoupledStepAssembler(network)
    y = Simulator(network, scenario).run().states[3, :asm.size]
    return network, replace(scenario, horizon=2 * dt, dt=dt), asm, y


@pytest.mark.parametrize("dt", [900.0, 60.0])
def test_long_marches_solve_to_dense_accuracy(dt, caplog):
    """Shooting along a pipe amplifies its growing mode by about
    exp(L sqrt(1 + a dt) / ((c - v) dt)), a = lambda |v| / d, which a solve
    loses in accuracy.  On the 66 km pipe in 100 m cells at dt = 60 s (a
    growth of about 2e4 as lu measures it), the Simulator sets up without
    a log record, and both directions still match a dense solve to
    1e-10."""
    network, scenario, asm, y = _long_pipes_level(dt)
    Simulator(network, scenario)
    assert not caplog.records
    it = asm.evaluate(y)
    dense = step_jacobian(asm, it, dt)
    rhs = np.random.default_rng(7).standard_normal(asm.size)
    lu = asm.factors(it, dt, splu, False)
    for k in (0, 1):
        got = (lu.solve, lu.solve_transposed)[k](rhs)
        expected = np.linalg.solve((dense, dense.T)[k], rhs)
        assert np.linalg.norm(got - expected) <= \
            1e-10 * np.linalg.norm(expected)


def test_march_growth_past_the_bound_names_the_pipe(caplog):
    """At dt = 20 s the march along the 66 km pipe P25 grows by about 3e8
    as lu measures it, past lu.MAX_MARCH_GROWTH, where a solve errs by
    about 4e-7: the Simulator sets up without a log record, and the
    factorization raises, naming the pipe, and so does the Simulator's
    first step that factors."""
    network, scenario, asm, y = _long_pipes_level(20.0)
    simulator = Simulator(network, scenario)
    assert not caplog.records
    with pytest.raises(RuntimeError, match="along pipe P25 exceeds 5e"):
        asm.factors(asm.evaluate(y), 20.0, splu, False)
    with pytest.raises(SimulationError, match="step 1 .* pipe P25 exceeds"):
        simulator.run([0.0, 1.0e5, 1.0e5])    # a lift step: Newton factors


def test_stacked_factors_solve_as_each_level_alone(bundled_simulator,
                                                   uncontrolled_trajectory):
    """LevelCondensation.factors on a stack of levels (the bundled run's
    steady block and four step blocks) gives each level the factors that
    LevelCondensation.factor gives it alone: solve and solve_transposed
    agree to the bit, for one right-hand side and for three."""
    asm, dt = bundled_simulator.assembler, bundled_simulator.scenario.dt
    states = uncontrolled_trajectory.states
    values = np.array([asm.level_block(asm.evaluate(states[n, :asm.size]),
                                       dt, n == 0) for n in range(5)])
    stacked = asm.condensation.factors(values, splu)
    assert len(stacked) == len(values)
    rhs = np.random.default_rng(48).standard_normal((asm.size, 3))
    for n, lu in enumerate(stacked):
        alone = asm.condensation.factor(values[n], splu)
        for b in (rhs[:, 0], rhs):
            assert np.array_equal(lu.solve(b), alone.solve(b))
            assert np.array_equal(lu.solve_transposed(b),
                                  alone.solve_transposed(b))


def test_a_failing_level_in_a_stack_names_its_pipe():
    """A zero pivot (of a momentum row, or of a mass row after the row
    operation) or a march grown past lu.MAX_MARCH_GROWTH at the middle
    level of a stack of three raises RuntimeError naming the pipe."""
    asm, y, _ = mixed_start()
    values = asm.jacobian(asm.evaluate(y), 900.0)
    momentum = values.copy()
    n = len(asm.grid.left)
    momentum[5 * n + np.flatnonzero(
        asm.grid.left == asm.index.pipe_rho["P2"].start)[0]] = 0.0
    for middle in (momentum, zero_flow_column(asm, values.copy(), "P2")):
        with pytest.raises(RuntimeError,
                           match="^zero pivot in the pipe block of pipe P2$"):
            asm.condensation.factors(np.array([values, middle, values]),
                                     splu)
    _, _, asm, y = _long_pipes_level(20.0)
    it = asm.evaluate(y)
    fine, grown = (asm.jacobian(it, dt) for dt in (900.0, 20.0))
    with pytest.raises(RuntimeError, match="along pipe P25 exceeds 5e"):
        asm.condensation.factors(np.array([fine, grown, fine]), splu)


def test_far_off_dt_dx_sets_up_without_a_log_record(caplog):
    """dt/dx sets no limit of its own: lu's two refusals are the only
    time-step limits.  A pipe in cells far finer than dt suggests (P2 of
    the mixed network in 25 m cells at dt = 900 s, 36 s/m) sets up
    without a log record at any level, and the run converges."""
    network = make_mixed_network()
    pipes = tuple(replace(p, cell_count=60) if p.id == "P2" else p
                  for p in network.gas.pipes)
    with caplog.at_level(logging.DEBUG, logger=sim_mod.log.name):
        simulator = Simulator(replace(network, gas=replace(
            network.gas, pipes=pipes)), make_toy_scenario())
    assert caplog.records == []
    assert np.all(simulator.run().residual_norm < simulator.tol)


def test_pipe_block_is_lower_triangular_after_the_row_operation(
        bundled_simulator, uncontrolled_trajectory):
    """The band of LevelCondensation's factors is Lambda T A: A, the pipe
    block of a level Jacobian in band order (rows: each interval's mass
    row m and momentum row M; columns: its right end's q_R and rho_R),
    with each mass row less tau = m_rhoR / M_rhoR times its momentum row
    (T) and each row scaled to a unit diagonal (Lambda).  T A is lower
    triangular with bandwidth 3, its mass rows' rho_R entries cancelled to
    round-off, and along the bundled trajectory its pivots (det D_i /
    M_rhoR and M_rhoR of each interval's 2x2 block D_i) are positive, as
    in subsonic flow; on the steady block's values tau = 0."""
    asm, states = bundled_simulator.assembler, uncontrolled_trajectory.states
    dt, left = bundled_simulator.scenario.dt, asm.grid.left
    points = asm.n_points
    n = 2 * len(left)
    rows = np.stack([np.arange(n // 2), n // 2 + np.arange(n // 2)], 1).ravel()
    cols = np.stack([points + left + 1, left + 1], 1).ravel()
    mass, mom = np.arange(0, n, 2), np.arange(1, n, 2)
    below = np.subtract.outer(np.arange(n), np.arange(n))
    band = (below >= 0) & (below <= 3)
    for level in range(len(states)):
        it = asm.evaluate(states[level, :asm.size])
        jac = (steady_jacobian if level == 0 else step_jacobian)(asm, it, dt)
        a = jac[np.ix_(rows, cols)]
        tau = a[mass, mom] / a[mom, mom]
        ta = a.copy()
        ta[mass] -= tau[:, None] * a[mom]
        lu = asm.factors(it, dt, splu, steady=level == 0)
        assert np.array_equal(lu.tau.ravel(), tau)
        assert level or not tau.any()
        pivots = np.diag(ta)
        assert np.all(pivots > 0.0)
        scale = np.broadcast_to(np.max(np.abs(a), axis=1, keepdims=True),
                                a.shape)
        assert np.all(np.abs(ta[~band]) <= 1e-15 * scale[~band])
        unit = np.eye(n)
        for d in range(1, 4):
            unit[np.arange(d, n), np.arange(n - d)] = lu.ab[d, :n - d]
        np.testing.assert_allclose(unit[band], (ta / pivots[:, None])[band],
                                   rtol=1e-14, atol=0.0)


def test_parallel_pipes_share_the_demand():
    """Two pipes between one node pair, whose Schur complement entries
    add into the same slots, carry the outflow between them."""
    simulator = Simulator(make_parallel_network(), make_toy_scenario(steps=3))
    trajectory = simulator.run(np.full(4, 1.5e5))
    assert np.max(mass_balance_report(simulator, trajectory)) < simulator.tol
    asm, y = simulator.assembler, trajectory.states[-1]
    ends = [y[asm.index.pipe_q[p.id]][-1] * p.area for p in asm.pipes]
    assert min(ends) > 0.0
    # the recorded outflow flux leaves through the first pipe's area
    assert sum(ends) == pytest.approx(150.0 * asm.pipes[0].area, rel=1e-9)


def test_step_out_of_a_stagnant_steady_state(bundled):
    """Zero demand and a free plant give a stagnant steady state; a demand
    ramp then starts the flow, from a first step block taken at rest."""
    network, scenario = bundled
    plant = replace(network.plants[0], a0=0.0, a1=0.0, a2=0.0)
    quiet = replace(network, plants=(plant,))
    series = dict(scenario.boundary.series)
    demand = series[("S25", "outflow")][1][0]
    series[("S25", "outflow")] = (np.array([0.0, 3600.0]),
                                  np.array([0.0, demand]))
    ramp = replace(scenario, horizon=4 * scenario.dt,
                   boundary=BoundaryData(series))
    simulator = Simulator(quiet, ramp)
    trajectory = simulator.run()
    n = simulator.assembler.n_points
    flows = trajectory.states[:, n:2 * n]
    assert np.max(np.abs(flows[0])) < 1e-2
    assert np.max(mass_balance_report(simulator, trajectory)) < simulator.tol
    last = trajectory.states[-1][simulator.assembler.index.pipe_q["P25"]]
    assert last[-1] == pytest.approx(demand, rel=1e-9)


def make_pipe_only_network():
    """Pressure source -> one pipe -> demand: no compressor, no busses."""
    gas_net = GasNetwork(
        nodes=(GasNode("A", "pressure-boundary"),
               GasNode("C", "flow-boundary")),
        pipes=(Pipe("PA", "A", "C", length=2000.0, cell_count=2),),
        compressors=(),
    )
    return CoupledNetwork(gas=gas_net, grid=PowerGrid((), ()))


class TestEmptyIndexArrays:
    def test_pipe_only_network(self):
        simulator = Simulator(make_pipe_only_network(),
                              make_toy_scenario(outflow_flux=60.0))
        traj = simulator.run(np.zeros(3))
        asm, snap = simulator.assembler, simulator.snapshots[1]
        y0 = traj.states[0]
        rng = np.random.default_rng(7)
        y1 = traj.states[1] * (1.0 + 1e-3 * rng.uniform(-1, 1, y0.size))
        jac_next = step_jacobian(asm, asm.evaluate(y1), 900.0)
        old, b = asm.old_means(y0), asm.level_data(0.0, snap, NO_GRID)
        assert_close(jac_next, central_differences(
            lambda y: asm.residual(asm.evaluate(y), old, b, 900.0), y1))

    def test_snapshots_match_one_at_a_time(self, bundled_simulator):
        asm = bundled_simulator.assembler
        boundary = bundled_simulator.scenario.boundary
        last = max(times[-1] for times, _ in boundary.series.values())
        times = np.array([0.0, 1234.5, 0.5 * last, last, last + 7200.0])
        snaps = asm.boundary_snapshots(boundary, times)
        for t, snap in zip(times, snaps):
            one, = asm.boundary_snapshots(boundary, [t])
            for name in ("node_rho_bc", "node_outflow", "bus_fixed"):
                assert np.array_equal(getattr(snap, name), getattr(one, name),
                                      equal_nan=True)
            i = asm.node_pos["S25"]
            assert snap.node_outflow[i] == np.interp(
                t, *boundary.series[("S25", "outflow")])
        # clamped past the last breakpoint
        for name in ("node_rho_bc", "node_outflow", "bus_fixed"):
            assert np.array_equal(getattr(snaps[-1], name),
                                  getattr(snaps[-2], name), equal_nan=True)


class TestCaseStudy:
    """The bundled case tells the paper's story: without compression the
    demand node S25 falls below its 41 bar bound as the gas-fired plant
    takes up the N5 load step, and a constant 10 bar lift holds it."""

    def test_no_lift_violates_the_bound_at_s25(self, bundled,
                                               uncontrolled_trajectory):
        network, scenario = bundled
        p = uncontrolled_trajectory.node_pressure("S25", network.constants)
        assert scenario.pressure_bounds["S25"] == 41.0e5
        assert p.argmin() == scenario.step_count      # at 12 h
        assert p.min() / 1e5 == pytest.approx(39.635, abs=1e-3)

    def test_the_slack_bus_takes_up_the_load_step(self, bundled,
                                                  uncontrolled_trajectory):
        trajectory = uncontrolled_trajectory
        p = trajectory.states[:, trajectory.index.bus[("N1", "P")]]
        assert p[0] == pytest.approx(0.720, abs=1e-3)
        assert p[-1] == pytest.approx(1.649, abs=1e-3)

    def test_a_constant_ten_bar_lift_holds_s25(self, bundled,
                                               bundled_simulator):
        network, scenario = bundled
        trajectory = bundled_simulator.run(
            np.full(scenario.step_count + 1, 10.0e5))
        p = trajectory.node_pressure("S25", network.constants)
        assert p.min() / 1e5 == pytest.approx(52.314, abs=1e-3)
        assert p.min() > scenario.pressure_bounds["S25"]


SAME_CONTENT = {
    "BoundaryData": lambda: gio.load_bundled()[1].boundary,
    "Scenario": lambda: gio.load_bundled()[1],
    "_Snapshot": lambda: Simulator(*gio.load_bundled()).snapshots[0],
    "PipeGrid": lambda: gas.PipeGrid.stack([2, 3], [1.0, 2.0], [0.6, 0.9],
                                           [5e-4, 1e-3], 1e-5),
    "OptimizationResult": lambda: opt.OptimizationResult(
        np.zeros(3), None, 1.0, np.zeros((1, 3)), 0.5),
}


@pytest.mark.parametrize("make", SAME_CONTENT.values(), ids=SAME_CONTENT)
def test_dataclasses_with_arrays_compare_by_identity(make):
    """Frozen dataclasses that hold arrays (or dicts of them) compare and
    hash by identity: two built from the same content are unequal, and
    neither == nor hash raises."""
    one, other = make(), make()
    assert (one == other) is False
    assert (one == one) is True
    assert len({one, other, one}) == 2


def _ramp_pressure_at_outflow(cells, dt):
    """Pressure at C of the toy network with a 20 km pipe in `cells` cells,
    over 4 h in steps of dt, while C's outflow rises from 150 to 250
    kg/(m^2 s) along a half cosine (sampled every 150 s), solved to 1e-12."""
    horizon = 4 * 3600.0
    t = np.linspace(0.0, horizon, 97)
    outflow = 200.0 - 50.0 * np.cos(np.pi * t / horizon)
    boundary = BoundaryData.from_breakpoints({
        ("A", "pressure"): [(0.0, 60e5)],
        ("C", "outflow"): list(zip(t, outflow))})
    simulator = Simulator(make_toy_network(cells, 20000.0), Scenario(
        horizon=horizon, dt=dt, boundary=boundary, newton_tol=1e-12))
    return simulator.run().node_pressure("C", simulator.network.constants)


def test_observed_orders_are_two_in_space_and_one_in_time():
    """The box scheme is second order in space and implicit Euler first
    order in time: on a smooth outflow ramp, the max-norm change of the
    pressure at C between successive refinements falls 4-fold per halving
    of the cells (4, 8, 16 cells at dt = 15 min) and 2-fold per halving of
    dt (15, 7.5, 3.75 min in 4 cells), on the levels the runs share."""
    space = [_ramp_pressure_at_outflow(4 * 2 ** k, 900.0) for k in range(3)]
    time = [_ramp_pressure_at_outflow(4, 900.0 / 2 ** k)[::2 ** k]
            for k in range(3)]
    for runs, order in ((space, 2.0), (time, 1.0)):
        coarse, fine = (np.abs(b - a).max() for a, b in zip(runs, runs[1:]))
        assert np.log2(coarse / fine) == pytest.approx(order, abs=0.1)
