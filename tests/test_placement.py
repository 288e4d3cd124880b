"""Unit tests for placement strategies (repro.qspr.placement)."""

from __future__ import annotations

import pytest

from repro.circuits.generators import ham3
from repro.exceptions import MappingError
from repro.fabric.params import FabricSpec
from repro.fabric.tqa import TQA
from repro.qodg.iig import build_iig
from repro.qspr.placement import (
    PLACEMENT_STRATEGIES,
    iig_greedy_placement,
    make_placement,
    random_placement,
    row_major_placement,
)


@pytest.fixture
def tqa():
    return TQA(FabricSpec(6, 6))


class TestRowMajor:
    def test_fills_in_order(self, tqa):
        placement = row_major_placement(3, tqa)
        assert placement == [(0, 0), (1, 0), (2, 0)]

    def test_wraps_when_overflowing(self, tqa):
        placement = row_major_placement(tqa.area + 2, tqa)
        assert placement[tqa.area] == (0, 0)

    def test_all_positions_on_grid(self, tqa):
        for position in row_major_placement(30, tqa):
            assert tqa.contains(position)

    def test_negative_count_rejected(self, tqa):
        with pytest.raises(MappingError):
            row_major_placement(-1, tqa)


class TestRandom:
    def test_deterministic_for_seed(self, tqa):
        assert random_placement(10, tqa, seed=3) == random_placement(
            10, tqa, seed=3
        )

    def test_seeds_differ(self, tqa):
        assert random_placement(10, tqa, seed=1) != random_placement(
            10, tqa, seed=2
        )

    def test_distinct_until_saturation(self, tqa):
        placement = random_placement(tqa.area, tqa, seed=0)
        assert len(set(placement)) == tqa.area

    def test_overflow_allowed(self, tqa):
        placement = random_placement(tqa.area + 5, tqa, seed=0)
        assert len(placement) == tqa.area + 5
        for position in placement:
            assert tqa.contains(position)


class TestIIGGreedy:
    def test_all_on_grid_and_distinct(self, tqa):
        iig = build_iig(ham3())
        placement = iig_greedy_placement(iig, tqa)
        assert len(placement) == 3
        assert len(set(placement)) == 3
        for position in placement:
            assert tqa.contains(position)

    def test_interacting_qubits_placed_adjacent(self, tqa, cnot_iig):
        # A heavy pair should end up next to each other.
        iig = cnot_iig(2, [(0, 1)] * 100)
        placement = iig_greedy_placement(iig, tqa)
        assert TQA.manhattan(placement[0], placement[1]) == 1

    def test_heavy_cluster_is_compact(self, tqa, cnot_iig):
        # 5 mutually-interacting qubits vs an unrelated pair: the clique
        # spans a small neighbourhood.
        clique = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        iig = cnot_iig(7, clique * 10 + [(5, 6)])
        placement = iig_greedy_placement(iig, tqa)
        clique = placement[:5]
        spread = max(
            TQA.manhattan(a, b) for a in clique for b in clique
        )
        assert spread <= 4

    def test_isolated_qubits_still_placed(self, tqa, cnot_iig):
        iig = cnot_iig(4, [])  # no interactions at all
        placement = iig_greedy_placement(iig, tqa)
        assert len(set(placement)) == 4

    def test_overflow_beyond_fabric(self, cnot_iig):
        small = TQA(FabricSpec(2, 2))
        iig = cnot_iig(7, [(i, i + 1) for i in range(6)])
        placement = iig_greedy_placement(iig, small)
        assert len(placement) == 7
        for position in placement:
            assert small.contains(position)

    def test_deterministic(self, tqa):
        iig = build_iig(ham3())
        assert iig_greedy_placement(iig, tqa) == iig_greedy_placement(iig, tqa)


class TestMakePlacement:
    @pytest.mark.parametrize("strategy", PLACEMENT_STRATEGIES)
    def test_dispatch(self, strategy, tqa):
        iig = build_iig(ham3())
        placement = make_placement(strategy, iig, tqa, seed=1)
        assert len(placement) == 3

    def test_unknown_strategy_rejected(self, tqa, cnot_iig):
        with pytest.raises(MappingError, match="unknown placement"):
            make_placement("simulated_annealing", cnot_iig(2, []), tqa)
