"""Unit tests for presence zones (repro.core.presence, Eqs. 6-7)."""

from __future__ import annotations

import pytest

from repro.circuits.generators import ham3
from repro.core.presence import compute_zones, zone_area
from repro.exceptions import EstimationError
from repro.qodg.iig import build_iig


class TestZoneArea:
    def test_eq6_is_degree_plus_one(self):
        # B_i = sqrt(M_i + 1) x sqrt(M_i + 1) = M_i + 1.
        for degree in (0, 1, 2, 7, 100):
            assert zone_area(degree) == degree + 1

    def test_negative_degree_rejected(self):
        with pytest.raises(EstimationError):
            zone_area(-1)


class TestComputeZones:
    def test_per_qubit_records(self, cnot_iig):
        iig = cnot_iig(3, [(0, 1)] * 4 + [(0, 2)] * 2)
        zones = compute_zones(iig)
        assert zones[0].degree == 2
        assert zones[0].weight == 6
        assert zones[0].area == 3.0
        assert zones[1].degree == 1
        assert zones[1].area == 2.0

    def test_eq7_weighted_average_hand_computed(self, cnot_iig):
        # Qubit 0: w=6, B=3; qubit 1: w=4, B=2; qubit 2: w=2, B=2.
        iig = cnot_iig(3, [(0, 1)] * 4 + [(0, 2)] * 2)
        zones = compute_zones(iig)
        expected = (6 * 3 + 4 * 2 + 2 * 2) / (6 + 4 + 2)
        assert zones.average_area == pytest.approx(expected)

    def test_no_interactions_degenerates_to_unit_zone(self, cnot_iig):
        zones = compute_zones(cnot_iig(4, []))
        assert zones.average_area == 1.0
        assert zones.total_weight == 0

    def test_total_weight_is_twice_two_qubit_ops(self, cnot_iig):
        iig = cnot_iig(2, [(0, 1)] * 7)
        assert compute_zones(iig).total_weight == 14

    def test_isolated_qubits_have_zero_weight(self, cnot_iig):
        iig = cnot_iig(3, [(0, 1)])
        zones = compute_zones(iig)
        assert zones[2].weight == 0
        assert zones[2].area == 1.0

    def test_ham3_triangle_zones(self):
        zones = compute_zones(build_iig(ham3()))
        # Every qubit has degree 2 in the triangle -> B_i = 3 for all,
        # hence B = 3 regardless of weights.
        assert zones.average_area == pytest.approx(3.0)

    def test_len_and_iteration(self, cnot_iig):
        zones = compute_zones(cnot_iig(5, []))
        assert len(zones) == 5
        assert zones.num_qubits == 5
        assert len(zones.zones) == 5
