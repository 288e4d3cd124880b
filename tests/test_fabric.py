"""Unit tests for the fabric layer (params, TQA geometry)."""

from __future__ import annotations

import pytest

from repro.circuits.gates import GateKind
from repro.exceptions import FabricError
from repro.fabric.params import DEFAULT_PARAMS, FabricSpec, GateDelays, PhysicalParams
from repro.fabric.tqa import TQA


class TestGateDelays:
    def test_table1_defaults(self):
        delays = GateDelays()
        assert delays.h == 5440.0
        assert delays.t == delays.tdg == 10940.0
        assert delays.x == delays.y == delays.z == 5240.0
        assert delays.cnot == 4930.0

    def test_by_kind_covers_all_ft_kinds(self):
        table = GateDelays().by_kind()
        from repro.circuits.gates import FT_KINDS

        assert set(table) == set(FT_KINDS)

    def test_delay_of_non_ft_kind_rejected(self):
        with pytest.raises(FabricError, match="not an FT operation"):
            GateDelays().delay_of(GateKind.TOFFOLI)

    def test_from_mapping_overrides_and_defaults(self):
        delays = GateDelays.from_mapping({GateKind.H: 100.0})
        assert delays.h == 100.0
        assert delays.cnot == 4930.0

    def test_from_mapping_rejects_non_ft(self):
        with pytest.raises(FabricError):
            GateDelays.from_mapping({GateKind.TOFFOLI: 1.0})

    def test_scaled(self):
        scaled = GateDelays().scaled(2.0)
        assert scaled.h == 10880.0
        assert scaled.cnot == 9860.0

    def test_non_positive_delay_rejected(self):
        with pytest.raises(FabricError):
            GateDelays(h=0.0)


class TestPhysicalParams:
    def test_table1_defaults(self):
        assert DEFAULT_PARAMS.channel_capacity == 5
        assert DEFAULT_PARAMS.qubit_speed == 0.001
        assert DEFAULT_PARAMS.t_move == 100.0
        assert DEFAULT_PARAMS.fabric.area == 3600
        assert DEFAULT_PARAMS.fabric.width == 60

    def test_one_qubit_routing_latency_is_2_tmove(self):
        assert DEFAULT_PARAMS.one_qubit_routing_latency == 200.0

    def test_with_fabric(self):
        params = DEFAULT_PARAMS.with_fabric(10, 20)
        assert params.fabric.area == 200
        assert params.delays == DEFAULT_PARAMS.delays

    @pytest.mark.parametrize("kwargs", [
        {"channel_capacity": 0},
        {"qubit_speed": 0.0},
        {"t_move": -1.0},
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(FabricError):
            PhysicalParams(**kwargs)

    def test_fabric_spec_validation(self):
        with pytest.raises(FabricError):
            FabricSpec(0, 5)


class TestTQA:
    @pytest.fixture
    def tqa(self):
        return TQA(FabricSpec(5, 4))

    def test_area_and_contains(self, tqa):
        assert tqa.area == 20
        assert tqa.contains((4, 3))
        assert not tqa.contains((5, 0))
        assert not tqa.contains((0, -1))

    def test_check_raises_off_grid(self, tqa):
        with pytest.raises(FabricError, match="outside"):
            tqa.check((9, 9))

    def test_index_position_roundtrip(self, tqa):
        for position in tqa.positions():
            assert tqa.position(tqa.index(position)) == position

    def test_positions_covers_area_once(self, tqa):
        seen = list(tqa.positions())
        assert len(seen) == 20
        assert len(set(seen)) == 20

    def test_manhattan(self):
        assert TQA.manhattan((0, 0), (3, 4)) == 7

    def test_out_of_range_index_rejected(self, tqa):
        with pytest.raises(FabricError):
            tqa.position(20)
