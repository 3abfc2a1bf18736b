"""Network description: types, validation, admittance table."""

import math
from dataclasses import replace

import pytest

from gaspower.model import (Bus, CompressorArc, GasConstants, GasNetwork,
                            GasNode, GasPowerPlant, PerUnitSystem, Pipe,
                            PowerGrid, TransmissionLine, nodal_admittance,
                            validate_network)


def test_pipe_cross_section():
    pipe = Pipe("P", "a", "b", length=1000.0, diameter=0.6)
    assert pipe.area == pytest.approx(math.pi * 0.09, rel=1e-10)


def test_cell_count_default_is_one_km():
    assert Pipe("P", "a", "b", length=66037.0).cell_count == 66
    assert Pipe("P", "a", "b", length=400.0).cell_count == 1
    assert Pipe("P", "a", "b", length=20322.0).cell_count == 20


def test_pipe_rejects_bad_geometry():
    with pytest.raises(ValueError):
        Pipe("P", "a", "b", length=-5.0)
    with pytest.raises(ValueError):
        Pipe("P", "a", "b", length=5.0, diameter=0.0)
    with pytest.raises(ValueError):
        Pipe("P", "a", "b", length=5.0, roughness=-1e-4)


@pytest.mark.parametrize("roughness", [0.05 * 0.6, 2.0, 2.3])
def test_pipe_rejects_roughness_beyond_moody_chart(roughness):
    """k/d >= 0.05 is off Moody's chart; near k = 3.71 d the fully rough
    friction factor is absurd (115.6 at k = 2 m, d = 0.6 m) or infinite."""
    with pytest.raises(ValueError, match=r"pipe P7: roughness must be >= 0 "
                                         r"and below 0\.05 x diameter"):
        Pipe("P7", "a", "b", length=5.0, diameter=0.6, roughness=roughness)
    assert Pipe("P7", "a", "b", length=5.0, diameter=0.6,
                roughness=0.0499 * 0.6).roughness == 0.0499 * 0.6


def test_empty_gas_network_reported():
    assert validate_network(GasNetwork((), ()), PowerGrid((), ())) == [
        "gas network has no node"]


def test_gas_node_kind_checked():
    with pytest.raises(ValueError):
        GasNode("X", "sink")


def test_plant_coefficients_checked():
    with pytest.raises(ValueError):
        GasPowerPlant("PL", "S4", "N1", a1=-1.0)


def test_fixture_is_valid(bundled):
    network, _ = bundled
    assert validate_network(network.gas, network.grid, network.plants) == []


def test_unknown_endpoint_reported():
    gas_net = GasNetwork(
        nodes=(GasNode("S1", "pressure-boundary"), GasNode("S2", "flow-boundary")),
        pipes=(Pipe("P1", "S1", "S99", length=1000.0),
               Pipe("P2", "S1", "S2", length=1000.0)),
    )
    violations = validate_network(gas_net, PowerGrid((), ()))
    assert any("unknown endpoint" in v and "S99" in v for v in violations)


def test_compressor_without_an_adjacent_pipe_reported():
    """The compressor's flux is scaled by an adjacent pipe's cross-section,
    so a compressor that touches no pipe is a violation."""
    gas_net = GasNetwork(
        nodes=(GasNode("A", "pressure-boundary"), GasNode("B", "flow-boundary")),
        pipes=(), compressors=(CompressorArc("CMP", "A", "B"),))
    assert validate_network(gas_net, PowerGrid((), ())) == [
        "compressor CMP has no adjacent pipe to take a reference "
        "cross-section from"]


def test_compressor_with_an_unknown_end_reported_once():
    gas_net = GasNetwork(
        nodes=(GasNode("A", "pressure-boundary"),),
        pipes=(), compressors=(CompressorArc("CMP", "A", "Z"),))
    assert validate_network(gas_net, PowerGrid((), ())) == [
        "CMP: unknown endpoint 'Z'"]


def test_duplicate_slack_reported():
    grid = PowerGrid(
        busses=(Bus("N1", "slack"), Bus("N2", "slack")),
        lines=(TransmissionLine("L", "N1", "N2", 0.0, 10.0),),
    )
    gas_net = GasNetwork(
        nodes=(GasNode("S1", "pressure-boundary"), GasNode("S2", "flow-boundary")),
        pipes=(Pipe("P1", "S1", "S2", length=1000.0),),
    )
    violations = validate_network(gas_net, grid)
    assert any("slack bus not unique" in v for v in violations)


def test_dangling_node_reported():
    gas_net = GasNetwork(
        nodes=(GasNode("S1", "pressure-boundary"),
               GasNode("S2", "flow-boundary"),
               GasNode("S3")),
        pipes=(Pipe("P1", "S1", "S2", length=1000.0),),
    )
    violations = validate_network(gas_net, PowerGrid((), ()))
    assert any("S3" in v and "not an endpoint" in v for v in violations)


def test_duplicate_ids_reported():
    gas_net = GasNetwork(
        nodes=(GasNode("S1", "pressure-boundary"), GasNode("S1")),
        pipes=(Pipe("P1", "S1", "S1", length=1000.0),),
    )
    violations = validate_network(gas_net, PowerGrid((), ()))
    assert any("duplicate gas node ids" in v for v in violations)


def test_disconnected_network_reported():
    gas_net = GasNetwork(
        nodes=(GasNode("S1", "pressure-boundary"), GasNode("S2", "flow-boundary"),
               GasNode("S3"), GasNode("S4")),
        pipes=(Pipe("P1", "S1", "S2", length=1000.0),
               Pipe("P2", "S3", "S4", length=1000.0)),
    )
    violations = validate_network(gas_net, PowerGrid((), ()))
    assert any("disconnected" in v for v in violations)


def test_plant_must_sit_on_slack_bus(bundled):
    network, _ = bundled
    plant = GasPowerPlant("PL", "S4", "N5", 2.0, 5.0, 10.0)
    violations = validate_network(network.gas, network.grid, (plant,))
    assert any("not the slack bus" in v for v in violations)


def test_validation_is_idempotent(bundled):
    network, _ = bundled
    first = validate_network(network.gas, network.grid, network.plants)
    second = validate_network(network.gas, network.grid, network.plants)
    assert first == second == []


class TestAdmittance:
    def test_mirrored_line_entries(self, bundled):
        network, _ = bundled
        Y, order = nodal_admittance(network.grid)
        i, j = order.index("N1"), order.index("N4")
        assert Y[i, j] == Y[j, i] == 17.3611j

    def test_diagonal_from_bus_rows(self, bundled):
        network, _ = bundled
        Y, order = nodal_admittance(network.grid)
        i = order.index("N1")
        assert Y[i, i] == -17.3611j

    def test_absent_pair_is_zero(self, bundled):
        network, _ = bundled
        Y, order = nodal_admittance(network.grid)
        i, j = order.index("N1"), order.index("N2")
        assert Y[i, j] == 0.0

    def test_exactly_symmetric(self, bundled):
        network, _ = bundled
        Y, _ = nodal_admittance(network.grid)
        assert (Y == Y.T).all()


def test_compressor_arc_needs_distinct_ends():
    with pytest.raises(ValueError):
        CompressorArc("C", "S0", "S0")


def _record(table, i, **changes):
    """Edit of a network that changes record i of `table` ("gas.nodes",
    "gas.compressors", "grid.busses", "grid.lines" or "plants")."""
    *owner, name = table.split(".")

    def edit(network):
        part = getattr(network, owner[0]) if owner else network
        records = list(getattr(part, name))
        records[i] = replace(records[i], **changes)
        part = replace(part, **{name: tuple(records)})
        return replace(network, **{owner[0]: part}) if owner else part

    return edit


@pytest.mark.parametrize("edit,message", [
    (_record("gas.compressors", 0, id="P10"), "duplicate gas arc ids"),
    (_record("grid.busses", 1, id="N1"), "duplicate bus ids"),
    (_record("grid.lines", 0, to_bus="N99"), "TL14: unknown endpoint 'N99'"),
    (_record("grid.lines", 1, to_bus="N1"),
     "TL45: duplicate line between N4 and N1"),
    (_record("grid.lines", 1, to_bus="N4"), "TL45: line from N4 to itself"),
    (_record("plants", 0, gas_node="S99"),
     "plant PLANT1: unknown gas node 'S99'"),
    (_record("plants", 0, bus="N99"), "plant PLANT1: unknown bus 'N99'"),
    (_record("gas.nodes", 4, kind="power-coupling"),
     "power-coupling node S8 has no plant"),
    (_record("gas.nodes", 3, kind="junction"),
     "plant gas node S4 is not marked power-coupling"),
    (lambda network: replace(network, plants=network.plants * 2),
     "multiple plants on one gas node"),
    (lambda network: replace(network, grid=PowerGrid((), ())),
     "plants present but the power grid is empty"),
], ids=lambda case: case if isinstance(case, str) else None)
def test_one_field_change_of_the_bundled_network_is_reported(bundled, edit,
                                                            message):
    network = edit(bundled[0])
    assert message in validate_network(network.gas, network.grid,
                                       network.plants)


@pytest.mark.parametrize("make,message", [
    (lambda: GasConstants(kappa=0.0), "kappa must be positive"),
    (lambda: GasConstants(gamma=0.5), "gamma must be >= 1"),
    (lambda: GasConstants(eta=-1e-5), "eta must be positive"),
    (lambda: Pipe("P", "a", "b", length=5.0, cell_count=-1),
     "pipe P: cell_count must be >= 1"),
    (lambda: Bus("N", "hub"), "bus N: unknown kind 'hub'"),
    (lambda: GasPowerPlant("PL", "S4", "N1", reference_density=0.0),
     "plant PL: reference density must be positive"),
    (lambda: PerUnitSystem(base_voltage=0.0),
     "per-unit bases must be positive"),
], ids=lambda case: case if isinstance(case, str) else None)
def test_record_out_of_range_is_refused(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_unknown_bus_is_a_key_error(bundled):
    with pytest.raises(KeyError, match="N99"):
        bundled[0].grid.bus("N99")
