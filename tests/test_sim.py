"""Coupled step assembly, Newton stepping, steady states, trajectories."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from gaspower import gas, power
from gaspower import sim as sim_mod
from gaspower.model import (PINNED_QUANTITIES, CompressorArc, CoupledNetwork,
                            GasNetwork, GasNode, Pipe, PowerGrid)
from gaspower.sim import (BUS_QUANTITIES, LU_PANEL_SIZE, MASS_FLOW_SCALE,
                          BoundaryData, CoupledStepAssembler,
                          MaxIterationsExceeded, Scenario, Simulator,
                          StepOrder, VariableIndex, mass_balance_report,
                          newton_solve_step, simulate, steady_state)

from conftest import (box_scheme_residual, make_toy_network,
                      make_toy_scenario)


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
        from dataclasses import replace
        plant = replace(network.plants[0], a0=0.0, a1=0.0, a2=0.0)
        quiet = replace(network, plants=(plant,))
        asm = CoupledStepAssembler(quiet)
        boundary = dict(scenario.boundary.series)
        boundary[("S25", "outflow")] = (np.array([0.0]), np.array([0.0]))
        from gaspower.sim import BoundaryData
        snap, = asm.boundary_snapshots(BoundaryData(boundary), [0.0])
        y = steady_state(asm, snap, 0.0, scenario.dt)
        for pipe in quiet.gas.pipes:
            assert np.allclose(y[asm.index.pipe_rho[pipe.id]],
                               gas.density_of_pressure(60e5), atol=1e-9)
            # a loop micro-circulation produces only O(q^2) residuals, so
            # the stagnant flow is zero to sqrt-of-tolerance accuracy
            assert np.allclose(y[asm.index.pipe_q[pipe.id]], 0.0, atol=1e-2)

    def test_rough_pipes_lower_terminal_pressure(self, bundled):
        network, scenario = bundled
        from dataclasses import replace
        rough_pipes = tuple(replace(p, roughness=2 * p.roughness)
                            for p in network.gas.pipes)
        rough_net = replace(network,
                            gas=replace(network.gas, pipes=rough_pipes))
        base = Simulator(network, scenario)
        rough = Simulator(rough_net, scenario)
        snap = base.snapshots[0]
        y0 = steady_state(base.assembler, snap, 0.0, scenario.dt)
        y1 = steady_state(rough.assembler, rough.snapshots[0], 0.0,
                          scenario.dt)
        p_base = y0[base.assembler.index.node_rho["S25"]]
        p_rough = y1[rough.assembler.index.node_rho["S25"]]
        assert p_rough < p_base

    def test_valid_for_any_dt(self, toy_simulator):
        asm = toy_simulator.assembler
        snap = toy_simulator.snapshots[0]
        y = steady_state(asm, snap, 0.0, 900.0)
        for dt in (1.0, 900.0, 7200.0):
            res = asm.residual(y, y, 0.0, snap, dt)
            assert np.max(np.abs(res)) < 1e-8


class TestResidualStructure:
    def test_fixed_point_when_nothing_changes(self, bundled_simulator,
                                              uncontrolled_trajectory):
        asm = bundled_simulator.assembler
        y0 = uncontrolled_trajectory.states[0]
        res = asm.residual(y0, y0, 0.0, bundled_simulator.snapshots[0], 900.0)
        assert np.max(np.abs(res)) < 1e-9

    def test_interior_density_perturbation_is_local(self, bundled_simulator,
                                                    uncontrolled_trajectory):
        asm = bundled_simulator.assembler
        snap = bundled_simulator.snapshots[1]
        y0 = uncontrolled_trajectory.states[0]
        y1 = uncontrolled_trajectory.states[1].copy()
        base = asm.residual(y0, y1, 0.0, snap, 900.0)
        j = asm.index.pipe_rho["P25"].start + 30    # interior grid point
        y1[j] += 1e-3
        changed = np.nonzero(asm.residual(y0, y1, 0.0, snap, 900.0) - base)[0]
        # two mass and two momentum rows share the stencil of one point
        assert len(changed) == 4
        half = asm.grid.shape[0] // 2   # all mass rows, then all momentum
        assert set(changed // half) == {0, 1}

    def test_plant_coupling_term(self, bundled_simulator,
                                 uncontrolled_trajectory):
        """The S4 balance row moves by rho0 * d eps exactly."""
        asm = bundled_simulator.assembler
        plant = asm.node_plant["S4"]
        snap = bundled_simulator.snapshots[0]
        y0 = uncontrolled_trajectory.states[0]
        y1 = y0.copy()
        row = asm.index.node_rho["S4"]
        p_col = asm.index.bus[(plant.bus, "P")]
        base = asm.residual(y0, y1, 0.0, snap, 900.0)[row]
        y1[p_col] = 0.95
        shifted = asm.residual(y0, y1, 0.0, snap, 900.0)[row]
        d_eps = power.plant_gas_offtake(0.95, plant) \
            - power.plant_gas_offtake(y0[p_col], plant)
        expected = -plant.reference_density * d_eps / MASS_FLOW_SCALE
        assert shifted - base == pytest.approx(expected, rel=1e-12)

    def test_control_column_hits_only_compressor_row(self, bundled_simulator,
                                                     uncontrolled_trajectory):
        asm = bundled_simulator.assembler
        y0 = uncontrolled_trajectory.states[0]
        _, _, d_du = asm.jacobian(y0, y0, 0.0, bundled_simulator.snapshots[0],
                                  900.0)
        nonzero = np.nonzero(d_du)[0]
        assert len(nonzero) == 1
        assert nonzero[0] == asm.index.comp_q["C1"]
        # residual is written p_out - p_in - u, scaled like pressure rows
        kappa = bundled_simulator.network.constants.kappa
        assert d_du[nonzero[0]] == pytest.approx(-1.0 / kappa)

    def test_prev_state_only_enters_box_rows(self, bundled_simulator,
                                             uncontrolled_trajectory):
        asm = bundled_simulator.assembler
        y0 = uncontrolled_trajectory.states[0]
        y1 = uncontrolled_trajectory.states[1]
        _, jac_prev, _ = asm.jacobian(y0, y1, 0.0,
                                      bundled_simulator.snapshots[1], 900.0)
        rows = np.unique(jac_prev.tocoo().row)
        half = asm.grid.shape[0] // 2   # all mass rows, then all momentum
        assert set(rows // half) == {0, 1}

    def test_bus_rows_sit_at_the_bus_columns(self, bundled_simulator,
                                             uncontrolled_trajectory):
        """A bus's P- and Q-flow rows sit at its V and phi columns, its two
        boundary rows at its P and Q columns."""
        asm = bundled_simulator.assembler
        y0 = uncontrolled_trajectory.states[0]
        jac, _, _ = asm.jacobian(y0, y0, 0.0, bundled_simulator.snapshots[0],
                                 900.0)
        for bus in asm.busses:
            col = {q: asm.index.bus[(bus.id, q)] for q in BUS_QUANTITIES}
            # P - P_calc and Q - Q_calc, unscaled
            assert jac[col["V"], col["P"]] == 1.0
            assert jac[col["phi"], col["Q"]] == 1.0
            pinned = set()
            for row in (col["P"], col["Q"]):
                entries = jac[[row]].tocoo()
                assert list(entries.data) == [1.0]
                pinned.add(int(entries.col[0]))
            assert pinned == {col[q] for q in PINNED_QUANTITIES[bus.kind]}

    def test_compressor_lift_applied(self, bundled_simulator):
        asm = bundled_simulator.assembler
        snap = bundled_simulator.snapshots[0]
        lift = 2.0e5
        y = steady_state(asm, snap, lift, 900.0)
        cons = bundled_simulator.network.constants
        p_in = gas.pressure_of_density(y[asm.index.node_rho["S0"]], cons)
        p_out = gas.pressure_of_density(y[asm.index.node_rho["S17"]], cons)
        assert p_out - p_in == pytest.approx(lift, rel=1e-9)


class TestNewtonStep:
    def test_steady_input_converges_immediately(self, toy_simulator):
        asm = toy_simulator.assembler
        snap = toy_simulator.snapshots[0]
        y0 = steady_state(asm, snap, 0.0, 900.0)
        y1 = newton_solve_step(asm, y0, 0.0, snap, 900.0)
        assert np.max(np.abs(y1 - y0)) < 1e-9

    def test_iteration_budget_enforced(self, toy_simulator):
        asm = toy_simulator.assembler
        y0 = steady_state(asm, toy_simulator.snapshots[0], 0.0, 900.0)
        harder, = asm.boundary_snapshots(
            make_toy_scenario(outflow_flux=300.0).boundary, [0.0])
        with pytest.raises(MaxIterationsExceeded) as err:
            newton_solve_step(asm, y0, 0.0, harder, 900.0, tol=1e-9,
                              max_iter=1)
        assert err.value.residual_norm > 0

    def test_all_coupling_rows_hold_along_trajectory(self, bundled_simulator,
                                                     uncontrolled_trajectory):
        """Node pressure equality and flow balance hold at every state."""
        asm = bundled_simulator.assembler
        traj = uncontrolled_trajectory
        # a node's balance or boundary row sits at its density column
        rows = np.concatenate([asm.coupling_rows,
                               list(asm.index.node_rho.values())])
        for j in (1, 17, 48):
            res = asm.residual(traj.states[j - 1], traj.states[j],
                               traj.control[j], bundled_simulator.snapshots[j],
                               900.0)
            assert np.max(np.abs(res[rows])) < 1e-9


class TestSimulate:
    def test_steady_persistence_with_constant_boundary(self, bundled):
        network, scenario = bundled
        from dataclasses import replace
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
            res = asm.residual(traj.states[max(j - 1, 0)], traj.states[j],
                               0.0, bundled_simulator.snapshots[j], 900.0)
            assert np.max(np.abs(res)) < bundled_simulator.tol, j

    def test_control_length_checked(self, bundled_simulator):
        with pytest.raises(ValueError):
            bundled_simulator.run(np.zeros(10))

    def test_mass_accounting(self, bundled_simulator,
                             uncontrolled_trajectory):
        errors = mass_balance_report(bundled_simulator,
                                     uncontrolled_trajectory)
        assert np.max(errors) < 10.0 * bundled_simulator.tol

    def test_result_does_not_depend_on_call_history(self,
                                                    bundled_simulator):
        control = np.full(bundled_simulator.scenario.step_count + 1, 4.0e5)
        first = bundled_simulator.run(control)
        bundled_simulator.run(0.5 * control)
        second = bundled_simulator.run(control)
        assert np.array_equal(first.states, second.states)

    def test_first_run_learns_the_order_without_changing_results(
            self, bundled):
        simulator = Simulator(*bundled)
        control = np.full(simulator.scenario.step_count + 1, 4.0e5)
        first = simulator.run(control)     # learns the step column order
        second = simulator.run(control)
        assert np.array_equal(first.states, second.states)

    def test_one_step_pattern_factorization_runs_colamd(self, monkeypatch):
        """Steady and step blocks share the step pattern: over two runs
        only the first factorization, in the steady solve, runs COLAMD,
        and every later one takes the learned order."""
        simulator = Simulator(make_toy_network(), make_toy_scenario(steps=3))
        step_nnz = len(simulator.assembler._indices)
        seen, steady = [], []
        original_splu, original_steady = sim_mod.splu, sim_mod.steady_state

        def recording(matrix, **options):
            seen.append((matrix.nnz, options.get("permc_spec", "COLAMD"),
                         bool(steady)))
            return original_splu(matrix, **options)

        def steady_state(*args, **kwargs):
            steady.append(True)
            try:
                return original_steady(*args, **kwargs)
            finally:
                steady.pop()

        monkeypatch.setattr(sim_mod, "splu", recording)
        monkeypatch.setattr(sim_mod, "steady_state", steady_state)
        for _ in range(2):
            simulator.run(np.linspace(1.5e5, 3.0e5, 4))
        assert {nnz for nnz, _, _ in seen} == {step_nnz}
        assert seen[0][1:] == ("COLAMD", True)
        assert {spec for _, spec, _ in seen[1:]} == {"NATURAL"}

    def test_failure_reports_time_index(self, bundled):
        network, scenario = bundled
        sim = Simulator(network, scenario, max_iter=1)
        from gaspower.sim import SimulationError
        with pytest.raises(SimulationError, match=r"step \d+ \(t = "):
            sim.run()


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


def make_mixed_network():
    """Compressor feeding three pipes in series that differ in diameter,
    roughness and cell count; the middle pipe has a single cell."""
    gas_net = GasNetwork(
        nodes=(GasNode("A", "pressure-boundary"), GasNode("B", "junction"),
               GasNode("J1", "junction"), GasNode("J2", "junction"),
               GasNode("C", "flow-boundary")),
        pipes=(Pipe("P1", "B", "J1", length=3000.0, diameter=0.6,
                    roughness=5e-4, cell_count=3),
               Pipe("P2", "J1", "J2", length=1500.0, diameter=0.4,
                    roughness=1e-4, cell_count=1),
               Pipe("P3", "J2", "C", length=2000.0, diameter=0.9,
                    roughness=2e-3, cell_count=2)),
        compressors=(CompressorArc("CMP", "A", "B"),),
    )
    return CoupledNetwork(gas=gas_net, grid=PowerGrid((), ()))


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
        y0 = steady_state(asm, snap, 1.0e5, 900.0)
        rng = np.random.default_rng(41)
        y1 = y0 * (1.0 + 1e-3 * rng.uniform(-1, 1, y0.size))
        return asm, snap, y0, y1

    @pytest.mark.parametrize("same_levels", [False, True])
    def test_matches_central_differences(self, mixed, same_levels):
        asm, snap, y0, y1 = mixed
        y_prev = y1 if same_levels else y0
        u, dt = 1.2e5, 900.0
        jac_next, jac_prev, d_du = asm.jacobian(y_prev, y1, u, snap, dt)
        assert_close(jac_next.toarray(), central_differences(
            lambda y: asm.residual(y_prev, y, u, snap, dt), y1))
        assert_close(jac_prev.toarray(), central_differences(
            lambda y: asm.residual(y, y1, u, snap, dt), y_prev))
        h = 1.0e2
        fd_u = (asm.residual(y_prev, y1, u + h, snap, dt)
                - asm.residual(y_prev, y1, u - h, snap, dt)) / (2.0 * h)
        assert_close(d_du, fd_u)

    def test_residual_then_jacobian_solves_friction_once(self, mixed,
                                                         monkeypatch):
        asm, snap, y0, y1 = mixed
        calls, friction = [], gas.friction_factor_and_derivative
        monkeypatch.setattr(gas, "friction_factor_and_derivative",
                            lambda *args: calls.append(1) or friction(*args))
        asm.residual(y0, y1, 1.2e5, snap, 900.0)
        asm.jacobian(y0, y1, 1.2e5, snap, 900.0)
        assert len(calls) == 1
        # the old level and the control do not enter the friction values
        asm.jacobian(y1, y1 + 0.0, 1.0e5, snap, 900.0)
        assert len(calls) == 1

    def test_no_stale_friction_at_a_new_state(self, mixed):
        asm, snap, y0, y1 = mixed
        asm.residual(y0, y0, 1.2e5, snap, 900.0)
        jac = asm.jacobian(y0, y1, 1.2e5, snap, 900.0)[0]
        res = asm.residual(y1, y0, 1.2e5, snap, 900.0)
        fresh = CoupledStepAssembler(make_mixed_network())
        assert np.array_equal(
            jac.toarray(),
            fresh.jacobian(y0, y1, 1.2e5, snap, 900.0)[0].toarray())
        fresh = CoupledStepAssembler(make_mixed_network())
        assert np.array_equal(res,
                              fresh.residual(y1, y0, 1.2e5, snap, 900.0))

    def test_pipe_rows_equal_box_scheme(self, mixed):
        asm, snap, y0, y1 = mixed
        res = asm.residual(y0, y1, 1.2e5, snap, 900.0)
        cells = asm.grid.shape[0] // 2  # all mass rows, then all momentum
        start = 0                       # of pipe k: cells of pipes 0..k-1
        for pipe in asm.pipes:
            prev, nxt = (gas.PipeState(y[asm.index.pipe_rho[pipe.id]],
                                       y[asm.index.pipe_q[pipe.id]])
                         for y in (y0, y1))
            box = box_scheme_residual(prev, nxt, 900.0, pipe.dx, pipe)
            n = pipe.cell_count
            for first, part in ((start, box[:n]), (cells + start, box[n:])):
                rows = slice(first, first + n)
                assert np.array_equal(res[rows], part * asm.row_scale[rows])
            start += n


def test_compressor_needs_an_adjacent_pipe():
    from dataclasses import replace
    toy = make_toy_network()
    network = replace(toy, gas=GasNetwork(toy.gas.nodes[:2], (),
                                          toy.gas.compressors))
    with pytest.raises(ValueError, match="compressor CMP has no adjacent "
                                         "pipe to take a reference"):
        CoupledStepAssembler(network)


def test_gas_only_network_supported():
    network = make_toy_network()
    assert network.grid.busses == ()
    traj = simulate(network, make_toy_scenario())
    assert traj.step_count == 2


class TestFixedPattern:
    """The step Jacobian keeps the CSR pattern built at set-up."""

    @pytest.fixture()
    def step(self, bundled_simulator, uncontrolled_trajectory):
        states = uncontrolled_trajectory.states
        return (bundled_simulator.assembler, bundled_simulator.snapshots[5],
                states[4], states[5])

    def test_pattern_is_fixed_and_canonical(self, step):
        asm, snap, y0, y1 = step
        first = asm.jacobian(y0, y1, 0.0, snap, 900.0)[0]
        second = asm.jacobian(y1, 1.001 * y1, 2.0e5, snap, 900.0)[0]
        assert not np.array_equal(first.data, second.data)
        for jac in (first, second):
            assert jac.format == "csr" and jac.has_canonical_format
            assert np.array_equal(jac.indices, asm._indices)
            assert np.array_equal(jac.indptr, asm._indptr)

    def test_transposed_factors_solve_both_directions(self, step):
        """splu factors J^T: Newton's transposed solve gives J^-1 b, the
        adjoint's plain solve (J^T)^-1 b, for one or several columns; so
        do a StepOrder's factors, on the call that learns the order and
        on a later one."""
        asm, snap, y0, y1 = step
        jac = asm.jacobian(y0, y1, 2.0e5, snap, 900.0)[0]
        later = asm.jacobian(y1, 1.001 * y1, 1.0e5, snap, 900.0)[0]
        lu = splu(jac.T, panel_size=LU_PANEL_SIZE)
        order = StepOrder(asm._indices, asm._indptr)
        learning = order.factors(jac, splu)
        learned = order.factors(later, splu)
        assert learned.order is not None
        rhs = np.random.default_rng(5).standard_normal((jac.shape[0], 3))
        for b in (rhs[:, 0], rhs):
            for matrix, forward, backward in (
                    (jac, lambda b: lu.solve(b, trans="T"), lu.solve),
                    (jac, learning.solve, learning.solve_transposed),
                    (later, learned.solve, learned.solve_transposed)):
                dense = matrix.toarray()
                for got, system in ((forward(b), dense),
                                    (backward(b), dense.T)):
                    expected = np.linalg.solve(system, b)
                    assert np.linalg.norm(got - expected) <= \
                        1e-10 * np.linalg.norm(expected)

    def test_learned_order_changes_no_bit(self, step):
        """Factors of a second step Jacobian in the learned order solve
        exactly as SuperLU's own COLAMD factors of it do."""
        asm, snap, y0, y1 = step
        order = StepOrder(asm._indices, asm._indptr)
        order.factors(asm.jacobian(y0, y1, 2.0e5, snap, 900.0)[0], splu)
        jac = asm.jacobian(y1, 1.001 * y1, 1.0e5, snap, 900.0)[0]
        learned = order.factors(jac, splu)
        lu = splu(jac.T, panel_size=LU_PANEL_SIZE)
        assert np.array_equal(learned.lu.perm_r, lu.perm_r)
        rhs = np.random.default_rng(7).standard_normal((jac.shape[0], 3))
        for b in (rhs[:, 0], rhs):
            assert np.array_equal(learned.solve(b), lu.solve(b, trans="T"))
            assert np.array_equal(learned.solve_transposed(b), lu.solve(b))

    def test_prev_block_is_one_read_only_matrix(self, step):
        asm, snap, y0, y1 = step
        first = asm.jacobian(y0, y1, 0.0, snap, 900.0)[1]
        second = asm.jacobian(y1, 1.001 * y1, 2.0e5, snap, 60.0)[1]
        assert first is second
        with pytest.raises(ValueError):
            first.data[0] = 1.0

    def test_every_column_matches_central_differences(self, step):
        """Covers the plant, compressor and power-flow entries too."""
        asm, snap, y0, y1 = step
        u, dt = 2.0e5, 900.0
        jac_next = asm.jacobian(y0, y1, u, snap, dt)[0]
        assert_close(jac_next.toarray(), central_differences(
            lambda y: asm.residual(y0, y, u, snap, dt), y1))

    def test_steady_jacobian_matches_central_differences(self, step):
        """The steady block keeps the step pattern, its cancelled entries
        stored as zeros, and equals dR/dy_next + dR/dy_prev exactly."""
        asm, snap, _, y = step
        u, dt = 2.0e5, 900.0
        jac = asm.steady_jacobian(y, u, snap, dt)
        assert np.array_equal(jac.indices, asm._indices)
        assert np.array_equal(jac.indptr, asm._indptr)
        jac_next, jac_prev, _ = asm.jacobian(y, y, u, snap, dt)
        assert np.array_equal(jac.toarray(), (jac_next + jac_prev).toarray())
        assert_close(jac.toarray(), central_differences(
            lambda y: asm.residual(y, y, u, snap, dt), y))


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
        jac_next = asm.jacobian(y0, y1, 0.0, snap, 900.0)[0]
        assert_close(jac_next.toarray(), central_differences(
            lambda y: asm.residual(y0, y, 0.0, snap, 900.0), y1))

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
