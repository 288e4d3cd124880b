"""Scheduler engine equivalence (repro.qspr.scheduling).

The array and compiled-kernel engines' contract is *bitwise identity*
with the legacy scheduler: same per-op start/finish times, same latency,
same final qubit locations, same movement statistics, same traces.
These tests pin that contract across the registered circuit library and
the router's edge cases (channel at capacity ``N_c``, zero-length
journeys, single-ULB fabrics), for all three engines.

The kernel engine compiles its C backend on first use and degrades to
the array engine (with a :class:`RuntimeWarning`) where no compiler
exists — either way the comparisons below must hold, so the suite is
valid on compiler-less machines too.

Large library rows are skipped unless ``REPRO_FULL=1`` to keep the tier-1
suite fast; the covered subset still spans every gate kind, both routing
modes, both visit orders and congestion-heavy fabrics.
"""

from __future__ import annotations

import functools
import os
import sys
import warnings

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import cnot, h, t, x
from repro.circuits.library import BENCHMARKS, build
from repro.circuits.decompose import synthesize_ft
from repro.fabric.params import FabricSpec, PhysicalParams
from repro.fabric.tqa import TQA
from repro.obs import default_registry
from repro.qodg.iig import build_iig
from repro.qspr.placement import make_placement
from repro.qspr.routing import Router, SlotRouter
from repro.qspr.scheduling import compile_qodg, schedule_circuit

#: Synthesis-level op-count cap for the default (fast) run; REPRO_FULL=1
#: removes it and covers the entire registry.
DEFAULT_OP_CAP = 1000

#: One build per registry row for the whole module: the row filter runs
#: at collection time and the fixture reuses the same circuits.
_cached_build = functools.lru_cache(maxsize=None)(build)


def library_rows() -> list[str]:
    if os.environ.get("REPRO_FULL") == "1":
        return list(BENCHMARKS)
    return [
        name
        for name in BENCHMARKS
        if len(_cached_build(name)) <= DEFAULT_OP_CAP
    ]


def all_engines(circuit, placement, params, **kwargs):
    legacy = schedule_circuit(
        circuit, placement, params, engine="legacy", **kwargs
    )
    array = schedule_circuit(
        circuit, placement, params, engine="array", **kwargs
    )
    # The kernel path has no trace recorder (tracing falls through to the
    # array engine), so compare it untraced; without a C compiler it
    # degrades to the array engine with a warning — still identical.
    kernel_kwargs = dict(kwargs)
    kernel_kwargs.pop("record_trace", None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        kernel = schedule_circuit(
            circuit, placement, params, engine="kernel", **kernel_kwargs
        )
    return legacy, array, kernel


def assert_identical(reference, other, check_trace=True):
    assert other.latency == reference.latency
    assert other.finish_times == reference.finish_times
    assert other.final_locations == reference.final_locations
    assert other.stats == reference.stats
    if check_trace and reference.trace is not None:
        assert list(other.trace) == list(reference.trace)


@pytest.fixture(scope="module")
def ft_library():
    return {
        name: synthesize_ft(_cached_build(name)) for name in library_rows()
    }


class TestLibraryEquivalence:
    @pytest.mark.parametrize("name", library_rows())
    def test_identical_schedule_on_library(self, name, ft_library):
        """Bit-identical op start times and latency on every library row."""
        circuit = ft_library[name]
        params = PhysicalParams(fabric=FabricSpec(30, 30))
        placement = make_placement(
            "iig_greedy", build_iig(circuit), TQA(params.fabric)
        )
        legacy, array, kernel = all_engines(
            circuit, placement, params, record_trace=True
        )
        assert_identical(legacy, array)
        assert_identical(legacy, kernel, check_trace=False)

    @pytest.mark.parametrize("routing", ["maze", "xy"])
    @pytest.mark.parametrize("order", ["program", "alap"])
    def test_identical_across_modes_and_orders(
        self, routing, order, ft_library
    ):
        circuit = ft_library["ham3"]
        params = PhysicalParams(fabric=FabricSpec(8, 8))
        placement = make_placement(
            "iig_greedy", build_iig(circuit), TQA(params.fabric)
        )
        legacy, array, kernel = all_engines(
            circuit, placement, params, routing_mode=routing, order=order,
        )
        assert_identical(legacy, array)
        assert_identical(legacy, kernel)

    def test_identical_under_heavy_congestion(self, ft_library):
        """A saturated fabric (capacity 1, tiny grid) drives every journey
        through the maze search."""
        circuit = ft_library["8bitadder"]
        params = PhysicalParams(
            fabric=FabricSpec(5, 5), channel_capacity=1
        )
        placement = make_placement(
            "row_major", build_iig(circuit), TQA(params.fabric)
        )
        legacy, array, kernel = all_engines(
            circuit, placement, params, record_trace=True
        )
        assert_identical(legacy, array)
        assert_identical(legacy, kernel, check_trace=False)

    def test_identical_with_prebuilt_compiled_ops(self, ft_library):
        circuit = ft_library["ham3"]
        params = PhysicalParams(fabric=FabricSpec(8, 8))
        placement = make_placement(
            "iig_greedy", build_iig(circuit), TQA(params.fabric)
        )
        delays = params.delays.by_kind()
        prebuilt = [
            compile_qodg(circuit, delays),
            # Mismatched artifacts of the same shape must be recompiled,
            # never trusted: another circuit, another delay table.
            compile_qodg(circuit.reversed(), delays),
            compile_qodg(circuit, params.delays.scaled(2.0).by_kind()),
        ]
        assert prebuilt[1].num_ops == prebuilt[0].num_ops
        legacy = schedule_circuit(circuit, placement, params, engine="legacy")
        for compiled in prebuilt:
            for engine in ("array", "kernel"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    result = schedule_circuit(
                        circuit, placement, params, engine=engine,
                        compiled=compiled,
                    )
                assert_identical(legacy, result)

    def test_unknown_engine_rejected(self):
        from repro.exceptions import MappingError

        circuit = Circuit(1)
        circuit.append(h(0))
        params = PhysicalParams(fabric=FabricSpec(4, 4))
        with pytest.raises(MappingError, match="unknown scheduler engine"):
            schedule_circuit(circuit, [(0, 0)], params, engine="numpy")


class TestKernelFallback:
    """The kernel engine must degrade to the array engine, loudly."""

    def _ham3_setup(self, ft_library):
        circuit = ft_library["ham3"]
        params = PhysicalParams(fabric=FabricSpec(8, 8))
        placement = make_placement(
            "iig_greedy", build_iig(circuit), TQA(params.fabric)
        )
        return circuit, placement, params

    def test_missing_kernel_module_degrades_with_warning(
        self, monkeypatch, ft_library
    ):
        """Hiding the compiled backend's module forces the fallback: the
        schedule is still bitwise the array engine's, plus a warning."""
        circuit, placement, params = self._ham3_setup(ft_library)
        array = schedule_circuit(
            circuit, placement, params, engine="array"
        )
        import repro.qspr

        # Both the sys.modules entry and the package attribute must go:
        # either one would satisfy `from . import _kernel` on its own.
        monkeypatch.delattr(repro.qspr, "_kernel", raising=False)
        monkeypatch.setitem(sys.modules, "repro.qspr._kernel", None)
        with pytest.warns(
            RuntimeWarning, match="falling back to engine='array'"
        ):
            fallen_back = schedule_circuit(
                circuit, placement, params, engine="kernel"
            )
        assert_identical(array, fallen_back)

    def test_kernel_load_failure_degrades_with_warning(
        self, monkeypatch, ft_library
    ):
        """A backend that imports but cannot build its shared object
        (no compiler, compile error) degrades the same way."""
        from repro.qspr import _kernel

        circuit, placement, params = self._ham3_setup(ft_library)
        array = schedule_circuit(
            circuit, placement, params, engine="array"
        )

        def broken_load():
            raise RuntimeError("no C compiler found (test stub)")

        monkeypatch.setattr(_kernel, "load", broken_load)
        before = default_registry().counter(
            "kernel.fallbacks", entry="schedule"
        )
        with pytest.warns(
            RuntimeWarning, match="falling back to engine='array'"
        ):
            fallen_back = schedule_circuit(
                circuit, placement, params, engine="kernel"
            )
        assert_identical(array, fallen_back)
        assert default_registry().counter(
            "kernel.fallbacks", entry="schedule"
        ) == before + 1

    def test_mapping_result_reports_requested_engine(self, ft_library):
        from repro.qspr.mapper import map_circuit

        circuit = ft_library["ham3"]
        params = PhysicalParams(fabric=FabricSpec(8, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = map_circuit(circuit, params, engine="kernel")
        assert result.engine == "kernel"
        assert map_circuit(circuit, params).engine == "array"
        assert result.latency == map_circuit(circuit, params).latency


class TestSlotRouterEdgeCases:
    def test_zero_length_journey(self):
        router = SlotRouter(4, 4, capacity=2, t_move=100.0)
        arrival, hops, wait = router.move(5, 5, 42.0)
        assert (arrival, hops, wait) == (42.0, 0, 0.0)
        assert router.total_moves == 0

    def test_channel_queues_at_capacity(self):
        """With ``N_c`` slots, crossing ``N_c + 1`` qubits queues the last."""
        capacity = 3
        router = SlotRouter(4, 4, capacity=capacity, t_move=100.0)
        height = 4
        source, target = 0 * height + 0, 1 * height + 0  # one hop east
        arrivals = [router.move(source, target, 0.0)[0] for _ in range(4)]
        assert arrivals[:capacity] == [100.0] * capacity
        assert arrivals[capacity] == 200.0
        assert router.total_wait == 100.0

    def test_capacity_queue_matches_legacy_router(self):
        params = PhysicalParams(
            fabric=FabricSpec(6, 6), channel_capacity=2
        )
        tqa = TQA(params.fabric)
        legacy = Router(tqa, params)
        array = SlotRouter(6, 6, capacity=2, t_move=params.t_move)
        height = 6
        pattern = [((0, 0), (2, 1)), ((0, 0), (2, 1)), ((0, 1), (2, 1)),
                   ((1, 0), (1, 3)), ((0, 0), (2, 1))]
        for src, dst in pattern:
            mv = legacy.move(src, dst, 0.0)
            arrival, hops, wait = array.move(
                src[0] * height + src[1], dst[0] * height + dst[1], 0.0
            )
            assert arrival == mv.arrival
            assert hops == mv.hops
            assert wait == mv.wait
        assert array.total_hops == legacy.total_hops
        assert array.total_wait == legacy.total_congestion_wait

    def test_single_ulb_fabric_schedules_in_place(self):
        """A 1x1 fabric has no channels; everything executes in the only
        ULB and CNOT operands meet in place."""
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1), t(1), x(0)])
        params = PhysicalParams(fabric=FabricSpec(1, 1))
        placement = [(0, 0), (0, 0)]
        legacy, array, kernel = all_engines(
            circuit, placement, params, record_trace=True
        )
        assert_identical(legacy, array)
        assert_identical(legacy, kernel, check_trace=False)
        assert array.stats.total_moves == 0
        assert array.final_locations == ((0, 0), (0, 0))

    def test_single_row_and_single_column_fabrics(self):
        circuit = Circuit(3)
        circuit.extend([h(0), cnot(0, 1), cnot(1, 2), t(2), x(0)])
        for width, height in ((6, 1), (1, 6)):
            params = PhysicalParams(fabric=FabricSpec(width, height))
            placement = make_placement(
                "row_major", build_iig(circuit), TQA(params.fabric)
            )
            legacy, array, kernel = all_engines(circuit, placement, params)
            assert_identical(legacy, array)
            assert_identical(legacy, kernel)

    def test_unknown_mode_rejected(self):
        from repro.exceptions import MappingError

        with pytest.raises(MappingError, match="unknown routing mode"):
            SlotRouter(4, 4, capacity=1, t_move=100.0, mode="teleport")
