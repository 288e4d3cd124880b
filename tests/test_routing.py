"""Unit tests for the QSPR router (repro.qspr.routing.SlotRouter).

ULBs are flat node ids ``x * height + y``; :func:`node` converts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MappingError
from repro.fabric.tqa import TQA
from repro.qspr.routing import ROUTING_MODES, SlotRouter

#: Fabric side and ``T_move`` of the unit-test router.
SIDE = 8
T_MOVE = 100.0


def node(position, height: int = SIDE) -> int:
    x, y = position
    return x * height + y


def router(mode: str = "maze", capacity: int = 1) -> SlotRouter:
    return SlotRouter(SIDE, SIDE, capacity=capacity, t_move=T_MOVE, mode=mode)


class TestBasics:
    def test_zero_length_move(self):
        slot_router = router()
        assert slot_router.move(node((2, 2)), node((2, 2)), 50.0) == (
            50.0, 0, 0.0,
        )
        assert slot_router.total_moves == 0

    @pytest.mark.parametrize("mode", ROUTING_MODES)
    def test_uncongested_move_takes_manhattan_hops(self, mode):
        arrival, hops, wait = router(mode).move(
            node((0, 0)), node((3, 2)), 0.0
        )
        assert hops == 5
        assert arrival == 5 * T_MOVE
        assert wait == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(MappingError, match="unknown routing mode"):
            router(mode="teleport")

    def test_statistics_accumulate(self):
        slot_router = router()
        slot_router.move(node((0, 0)), node((2, 0)), 0.0)
        slot_router.move(node((0, 0)), node((0, 3)), 0.0)
        assert slot_router.total_moves == 2
        assert slot_router.total_hops == 5
        assert slot_router.total_wait == 0.0


@given(
    width=st.integers(1, 30),
    height=st.integers(1, 30),
    mode=st.sampled_from(ROUTING_MODES),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_fresh_router_takes_manhattan_hops(width, height, mode, data):
    """On an empty fabric every journey crosses exactly the Manhattan
    distance in channels, one ``T_move`` each, without waiting."""
    source = (
        data.draw(st.integers(0, width - 1)),
        data.draw(st.integers(0, height - 1)),
    )
    target = (
        data.draw(st.integers(0, width - 1)),
        data.draw(st.integers(0, height - 1)),
    )
    slot_router = SlotRouter(width, height, capacity=1, t_move=T_MOVE,
                             mode=mode)
    arrival, hops, wait = slot_router.move(
        node(source, height), node(target, height), 0.0
    )
    assert hops == TQA.manhattan(source, target)
    assert arrival == hops * T_MOVE
    assert wait == 0.0


#: One hop out of an interior ULB, per direction, as ``(dx, dy)``.
STEPS = {"east": (1, 0), "west": (-1, 0), "south": (0, 1), "north": (0, -1)}


class TestSingleHop:
    """Maze mode reserves a free single-hop journey inline, without
    building a path; both modes must cross the same one channel."""

    @pytest.mark.parametrize("mode", ROUTING_MODES)
    @pytest.mark.parametrize("step", list(STEPS))
    def test_single_hop_holds_its_channel(self, mode, step):
        dx, dy = STEPS[step]
        here, there = node((3, 3)), node((3 + dx, 3 + dy))
        slot_router = router(mode)
        assert slot_router.move(here, there, 0.0) == (T_MOVE, 1, 0.0)
        # Channels are undirected: the way back queues for the one slot
        # (waiting arrives at 2 T_MOVE, a detour at 3 T_MOVE).
        assert slot_router.move(there, here, 0.0) == (2 * T_MOVE, 1, T_MOVE)
        assert slot_router.total_wait == T_MOVE

    @pytest.mark.parametrize("mode", ROUTING_MODES)
    @pytest.mark.parametrize("forward", [True, False])
    def test_column_end_is_not_next_to_next_column_start(self, mode, forward):
        # The node ids of (0, SIDE - 1) and (1, 0) differ by one, yet the
        # ULBs lie SIDE hops apart.
        ends = [node((0, SIDE - 1)), node((1, 0))]
        source, target = ends if forward else ends[::-1]
        assert abs(target - source) == 1
        assert router(mode).move(source, target, 0.0) == (
            SIDE * T_MOVE, SIDE, 0.0,
        )


class TestCapacity:
    @pytest.mark.parametrize("mode", ROUTING_MODES)
    def test_capacity_concurrent_crossings_unpenalized(self, mode):
        slot_router = router(mode, capacity=3)
        for _ in range(3):
            assert slot_router.move(node((0, 0)), node((1, 0)), 0.0) == (
                T_MOVE, 1, 0.0,
            )
        assert slot_router.total_wait == 0.0

    def test_channel_queues_at_capacity(self):
        """With ``N_c`` slots, crossing ``N_c + 1`` qubits queues the last."""
        capacity = 3
        slot_router = router("xy", capacity=capacity)
        arrivals = [
            slot_router.move(node((0, 0)), node((1, 0)), 0.0)[0]
            for _ in range(capacity + 1)
        ]
        assert arrivals[:capacity] == [T_MOVE] * capacity
        assert arrivals[capacity] == 2 * T_MOVE
        assert slot_router.total_wait == T_MOVE

    def test_slots_free_over_time(self):
        slot_router = router("xy")
        assert slot_router.move(node((0, 0)), node((1, 0)), 0.0)[0] == T_MOVE
        # Arriving after the slot freed: no wait.
        arrival, _, wait = slot_router.move(node((0, 0)), node((1, 0)), 160.0)
        assert (arrival, wait) == (260.0, 0.0)
        assert slot_router.total_wait == 0.0

    def test_wait_is_reported_per_journey_and_in_total(self):
        slot_router = router("xy")
        slot_router.move(node((0, 0)), node((1, 0)), 0.0)
        arrival, hops, wait = slot_router.move(node((0, 0)), node((1, 0)), 0.0)
        assert (arrival, hops, wait) == (2 * T_MOVE, 1, T_MOVE)
        assert slot_router.total_wait == T_MOVE

    def test_xy_routes_x_first(self):
        slot_router = router("xy")
        slot_router.move(node((0, 0)), node((1, 1)), 0.0)
        # The east channel out of (0, 0) is held until T_MOVE; the south
        # one was never used.
        assert slot_router.move(node((0, 0)), node((1, 0)), 0.0)[0] == (
            2 * T_MOVE
        )
        assert slot_router.move(node((0, 0)), node((0, 1)), 0.0)[0] == T_MOVE


class TestMaze:
    def test_maze_detours_around_congestion(self):
        slot_router = router("maze")
        # Saturate the straight channel (0,0)-(1,0) until T_MOVE.
        slot_router.move(node((0, 0)), node((1, 0)), 0.0)
        # Waiting for it arrives at 2 T_MOVE, the detour via (0,1) and
        # (1,1) at 3 T_MOVE: the router takes the earlier arrival.
        arrival, hops, wait = slot_router.move(
            node((0, 0)), node((1, 0)), 0.0
        )
        assert arrival == 2 * T_MOVE
        assert (hops, wait) == (1, T_MOVE)

    def test_maze_detours_when_waiting_is_slower(self):
        # The straight channel is reserved from 3 T_MOVE on; with one
        # slot, a qubit leaving at 0 would start crossing at 4 T_MOVE.
        # The detour via (0,1) and (1,1) arrives at 3 T_MOVE instead.
        slot_router = router("maze")
        slot_router.move(node((0, 0)), node((1, 0)), 3 * T_MOVE)
        assert slot_router.move(node((0, 0)), node((1, 0)), 0.0) == (
            3 * T_MOVE, 3, 0.0,
        )
        assert slot_router.total_wait == 0.0

    def test_maze_never_slower_than_xy_on_shared_state(self):
        # Run the same traffic pattern through both modes and compare
        # total arrival times: maze routing must not lose.
        pattern = [((0, 0), (3, 0)), ((0, 0), (3, 0)), ((0, 1), (3, 1))]
        totals = {}
        for mode in ROUTING_MODES:
            slot_router = router(mode)
            totals[mode] = sum(
                slot_router.move(node(src), node(dst), 0.0)[0]
                for src, dst in pattern
            )
        assert totals["maze"] <= totals["xy"]
