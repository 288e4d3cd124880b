"""Scheduler engine contract (repro.qspr.scheduling).

The array and compiled-kernel engines must reproduce, bit for bit, the
schedules of the object-per-step scheduler the mapper was first written
as: same per-op finish times, latency, final qubit locations, movement
statistics and traces.  That scheduler and its object router are gone;
their outputs live on below as frozen digests (the latency as float hex,
the rest as blake2b-16 of an exact encoding, see
:func:`schedule_digests`).  Each digest was recorded after asserting
that the object scheduler, the array engine and the kernel agreed on the
case, across the registered circuit library and the router's edge cases
(channel at capacity ``N_c``, zero-length journeys, single-ULB and
single-row fabrics).  A hypothesis differential of the array engine
against the kernel adds random small circuits and fabrics.

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
import hashlib
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.gates import cnot, h, s, sdg, t, tdg, x, y, z
from repro.circuits.library import BENCHMARKS, build
from repro.circuits.decompose import synthesize_ft
from repro.fabric.params import FabricSpec, PhysicalParams
from repro.fabric.tqa import TQA
from repro.obs import default_registry
from repro.qodg.iig import build_iig
from repro.qspr.placement import make_placement
from repro.qspr.routing import ROUTING_MODES, SlotRouter
from repro.qspr.scheduling import compile_qodg, schedule_circuit

#: Synthesis-level op-count cap for the default (fast) run; REPRO_FULL=1
#: removes it and covers the entire registry.
DEFAULT_OP_CAP = 1000

#: The registry rows within :data:`DEFAULT_OP_CAP`, in registry order.
#: Frozen so that collection builds no circuit: filtering by op count
#: would build every row, ``gf2^256mult`` (203,555 gates) included, only
#: to drop it.  ``test_default_rows_are_the_op_cap_filter`` recomputes
#: the filter under REPRO_FULL=1.
DEFAULT_ROWS = (
    "ham3",
    "8bitadder",
    "gf2^16mult",
    "hwb15ps",
    "hwb16ps",
    "gf2^18mult",
    "gf2^19mult",
    "gf2^20mult",
    "ham15",
    "hwb20ps",
    "hwb50ps",
    "mod1048576adder",
)

#: Frozen :func:`schedule_digests` of every registry row: FT netlist,
#: iig_greedy placement on a 30x30 fabric, maze routing, program order,
#: traced.
LIBRARY_DIGESTS = {
    "ham3": (
        "0x1.818c000000000p+16",
        "187d75f39270f635046d5633bdd366ee",
        "b0f71e2f9aa3151349ed4814c3571906",
        "0f4db922a5aea798e5f68de6f13e8989",
        "1717dc3d85130b2192e8009552b55623",
    ),
    "8bitadder": (
        "0x1.934da00000000p+20",
        "744376a40adfc6bac1b50c521ae78925",
        "3d6ab179652c8b7f1664b313e436fb96",
        "200872f7673dc04b90efcd95b2be199e",
        "149d5f89a603294bb464e50ffa3001af",
    ),
    "gf2^16mult": (
        "0x1.4bb3140000000p+25",
        "55b653288dac30223cadfa802c394229",
        "16298db4e899505e7e8135b748a20470",
        "deaaead406de54caf01e8ffd6c65ee34",
        "bef3ae22f598861f75005776c2208385",
    ),
    "hwb15ps": (
        "0x1.b3ea1a0000000p+24",
        "13dfdc1e49071cc07a010faacf481077",
        "2ee304c27874a687046bff535f1272bd",
        "088f1e4df5a3b022f5c87fcf4b0a3902",
        "1d6ca7bece366c50dda4c5a8aba49432",
    ),
    "hwb16ps": (
        "0x1.6251690000000p+25",
        "6783711d602531c2ab71e0983e5f2113",
        "4264c2a0abfce8b42afdff8d416decb9",
        "176e932be6527c522825cc288e753861",
        "ed805bb8d4df9d0383966e0a925e483c",
    ),
    "gf2^18mult": (
        "0x1.b61c680000000p+24",
        "e433abc7872270d589e72c92acb80822",
        "1eb7206735def577254a9fa0aa917c78",
        "a121bb48fe1e9d7cfb9fe55562adbf53",
        "3ce97b8feb8689d84bb692e592d6fa7d",
    ),
    "gf2^19mult": (
        "0x1.c4783a0000000p+25",
        "53f2aa3aa0c4fa5ce0e9a69ec644e31d",
        "93580671dd7fcd9982d50bfb92413688",
        "52e9fcc1674f041b505798b0b106d7bc",
        "3df1789bd9835d0f7fcf9900082b1f19",
    ),
    "gf2^20mult": (
        "0x1.13a7b70000000p+25",
        "e53dc878cb95bebe7864a8c8f9c2be6c",
        "a5af9cf9fb896782d445335acb2480b5",
        "bb566bc8e567d76416e84414af1dfa07",
        "6d9717d1c65f4a3707c8358d1b2c60b0",
    ),
    "ham15": (
        "0x1.3f47000000000p+22",
        "75e086c5f2950847832cfa85e07e062e",
        "1f6fa0c472c02ef16fb6813e97345de6",
        "8ce559294eabc81d4e44050a4f18fce3",
        "d7498535f2b8ba5b8598c536abf78b92",
    ),
    "hwb20ps": (
        "0x1.c9c01a0000000p+25",
        "c29cc796edd8a6a334dd268ff1782a5c",
        "00ccf2edbadb2a4976640ac32f8b0abc",
        "579bc1505adb1cfaa8fcb4292c667d33",
        "47e771d0a5270eb6c6bcabda45540f2a",
    ),
    "hwb50ps": (
        "0x1.a937fb4000000p+27",
        "11a219a8a13395edfc9c3d77c9101045",
        "7168a5083e9fdeecfb8ef24721d13706",
        "85186696bfc5d8c4151f3cf97b802ab4",
        "32729042d11201b2ccc7e431d8f007f8",
    ),
    "gf2^50mult": (
        "0x1.913d5b2000000p+28",
        "9a04201b5c89d95016496355100e72b3",
        "2ed537d7e6ec1e6a2b8f7d79104364d3",
        "42d10eb128def300fb3557522231e82b",
        "0119b5f8bb25a09acc484ff763444cff",
    ),
    "mod1048576adder": (
        "0x1.094cb80000000p+22",
        "d6d1b979809bc9d8dd9af8517ca8e410",
        "f5ca8bdff6d9fab2a9458c01c463d46c",
        "5ce4e92319825b52e43f28a62876d0a3",
        "d407eebca14911143ba340f645fa5228",
    ),
    "gf2^64mult": (
        "0x1.49938bf000000p+29",
        "8ecd16afdb0b9b9ce04c5275c1973939",
        "120341a5bff9cc8a6639dd38d9c4c479",
        "8d951347c130378266afd83cbde5a2d3",
        "f834c941cdf884d7a59334b5edd451c6",
    ),
    "hwb100ps": (
        "0x1.23a216f000000p+29",
        "293a532c08d2d67365340406f4582cc4",
        "256e7136f3d76168985c8386197bf471",
        "9b6e29fa226f44b39788452ef8b12a79",
        "2e486743251a2b376078fea4eb922176",
    ),
    "gf2^100mult": (
        "0x1.a091b85000000p+29",
        "580a28c5d7103d4e005084443ba55ba7",
        "79e21a14e25e1ee7c259f9777b4726e3",
        "c113067518d8c2f00e07ca055a2ba966",
        "d16b1ef24348f813073dda5d8c11f65c",
    ),
    "hwb200ps": (
        "0x1.7dcdc70000000p+30",
        "cfbad154c563fce300725448712615d9",
        "2a5615adb7fe462e121315f7144c5dbb",
        "3d0fe7fb59de2b28ede8364f012df900",
        "a8dc4bba8de46eabddf3c18127551921",
    ),
    "gf2^128mult": (
        "0x1.468196c800000p+31",
        "95b62e54f4b3e368d04f3d0edb2059e4",
        "6140069f407b7af62526b4e1266e8266",
        "7ba818017065d2e08ed80ea26f4689cf",
        "be50a57e2a8fcfd6c7c74aa493d9ea6b",
    ),
    "gf2^256mult": (
        "0x1.a0044a6a00000p+33",
        "d0d0f23033c6a1ae0b6c59416aaa3507",
        "489b2e607c21e2d07aa69f5a1a8b026f",
        "059efc9fbee6bd1947a3ac50a8bb652f",
        "40ccd05b1efcc16e5b489866d441f437",
    ),
}

#: ham3 on an 8x8 fabric (iig_greedy), untraced, per (routing, order).
MODE_ORDER_DIGESTS = {
    ("maze", "program"): (
        "0x1.818c000000000p+16",
        "187d75f39270f635046d5633bdd366ee",
        "19dcf41e7bfdaabaa9b65e764556b578",
        "02e93a7cc8fc3a8e8559c4bd6335437d",
        None,
    ),
    ("maze", "alap"): (
        "0x1.8128000000000p+16",
        "9d15299af0c709b80820796a00a45365",
        "f691b0b745817b2ccc11f0b7787ed75f",
        "086618a0011576ad7ccd32d3ecf3e650",
        None,
    ),
    ("xy", "program"): (
        "0x1.818c000000000p+16",
        "187d75f39270f635046d5633bdd366ee",
        "19dcf41e7bfdaabaa9b65e764556b578",
        "02e93a7cc8fc3a8e8559c4bd6335437d",
        None,
    ),
    ("xy", "alap"): (
        "0x1.8128000000000p+16",
        "9d15299af0c709b80820796a00a45365",
        "f691b0b745817b2ccc11f0b7787ed75f",
        "086618a0011576ad7ccd32d3ecf3e650",
        None,
    ),
}

#: 8bitadder on a 5x5 fabric with N_c = 1 (row_major), traced.
CONGESTION_DIGESTS = (
    "0x1.9266600000000p+20",
    "e6b3e2c0ccd2414d1dd5e56e8e29555f",
    "d0c481fdb19c84b4f65865f06b0423c3",
    "df8ea21493f19405c3ec3a1b17869198",
    "3a20c3e8fe9b442886d1d02be8eb446a",
)

#: h(0) cnot(0,1) t(1) x(0) on a 1x1 fabric, traced.
SINGLE_ULB_DIGESTS = (
    "0x1.9ed8000000000p+14",
    "f66e17e5cfdb4f7c5513a66411fe78c1",
    "ff0f22492f44bac4c4b30ae58d0e8daa",
    "edddb59059e0627aa5bbdcfbcef78cf8",
    "d2018409456f72490ce05eca14666641",
)

#: h(0) cnot(0,1) cnot(1,2) t(2) x(0) on one-row and one-column fabrics
#: (row_major), untraced.
LINE_DIGESTS = {
    (6, 1): (
        "0x1.9a00000000000p+14",
        "a33627351b19945c707f1d56b59cbeca",
        "02d9054f02e947306504e261b6762f63",
        "e0b9e99a14591032b03373822c43dd1f",
        None,
    ),
    (1, 6): (
        "0x1.9a00000000000p+14",
        "a33627351b19945c707f1d56b59cbeca",
        "bd91a5b154d3220c0800d44e823330fd",
        "e0b9e99a14591032b03373822c43dd1f",
        None,
    ),
}

#: The router capacity pattern on a 6x6 fabric with N_c = 2: per journey
#: ``(arrival hex, hops, wait hex)``, then the router's totals.
CAPACITY_PATTERN = (
    ((0, 0), (2, 1)),
    ((0, 0), (2, 1)),
    ((0, 1), (2, 1)),
    ((1, 0), (1, 3)),
    ((0, 0), (2, 1)),
)
CAPACITY_MOVES = (
    ("0x1.2c00000000000p+8", 3, "0x0.0p+0"),
    ("0x1.2c00000000000p+8", 3, "0x0.0p+0"),
    ("0x1.9000000000000p+8", 2, "0x1.9000000000000p+7"),
    ("0x1.2c00000000000p+8", 3, "0x0.0p+0"),
    ("0x1.2c00000000000p+8", 3, "0x0.0p+0"),
)
CAPACITY_TOTALS = (5, 14, "0x1.9000000000000p+7")

#: One build per registry row for the whole module: the fixture and the
#: filter check reuse the same circuits.
_cached_build = functools.lru_cache(maxsize=None)(build)


def _blake(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def schedule_digests(result):
    """``(latency, finish_times, final_locations, stats, trace)`` of a run.

    The latency is its float hex; the rest are blake2b-16 hex digests of
    an exact encoding (floats as float64 bytes or float hex).  The trace
    digest is ``None`` for a run that recorded no trace.
    """
    stats = result.stats
    stats_text = (
        f"{int(stats.total_moves)} {int(stats.total_hops)} "
        f"{float(stats.congestion_wait).hex()} {int(stats.relocations)} "
        f"{int(stats.cnot_count)} {int(stats.one_qubit_count)}"
    )
    trace = None
    if result.trace is not None:
        trace = _blake(
            "\n".join(
                f"{e.index} {e.kind} {tuple(map(int, e.qubits))} "
                f"{tuple(map(int, e.ulb))} {float(e.start).hex()} "
                f"{float(e.finish).hex()} {int(e.travel_hops)} "
                f"{float(e.travel_wait).hex()}"
                for e in result.trace
            ).encode()
        )
    return (
        float(result.latency).hex(),
        _blake(np.asarray(result.finish_times, dtype=np.float64).tobytes()),
        _blake(np.asarray(result.final_locations, dtype=np.int64).tobytes()),
        _blake(stats_text.encode()),
        trace,
    )


def library_rows() -> list[str]:
    if os.environ.get("REPRO_FULL") == "1":
        return list(BENCHMARKS)
    return list(DEFAULT_ROWS)


def _kernel_schedule(circuit, placement, params, **kwargs):
    """The kernel engine's schedule; the array fallback (with its
    warning) where no compiler exists.  The kernel records no trace."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return schedule_circuit(
            circuit, placement, params, engine="kernel", **kwargs
        )


def assert_engines_match(expected, circuit, placement, params, **kwargs):
    """Both engines reproduce the frozen digests; only the array engine
    records the trace."""
    traced = expected[4] is not None
    array = schedule_circuit(
        circuit, placement, params, engine="array", record_trace=traced,
        **kwargs,
    )
    assert schedule_digests(array) == expected
    kernel = _kernel_schedule(circuit, placement, params, **kwargs)
    assert schedule_digests(kernel) == (*expected[:4], None)
    return array


def assert_identical(reference, other):
    assert other.latency == reference.latency
    assert other.finish_times == reference.finish_times
    assert other.final_locations == reference.final_locations
    assert other.stats == reference.stats


@pytest.fixture(scope="module")
def ft_library():
    return {
        name: synthesize_ft(_cached_build(name)) for name in library_rows()
    }


def _ham3_setup(ft_library):
    circuit = ft_library["ham3"]
    params = PhysicalParams(fabric=FabricSpec(8, 8))
    placement = make_placement(
        "iig_greedy", build_iig(circuit), TQA(params.fabric)
    )
    return circuit, placement, params


class TestLibraryDigests:
    @pytest.mark.skipif(
        os.environ.get("REPRO_FULL") != "1",
        reason="builds every registry row (set REPRO_FULL=1)",
    )
    def test_default_rows_are_the_op_cap_filter(self):
        assert DEFAULT_ROWS == tuple(
            name
            for name in BENCHMARKS
            if len(_cached_build(name)) <= DEFAULT_OP_CAP
        )

    def test_every_registry_row_is_pinned(self):
        assert set(LIBRARY_DIGESTS) == set(BENCHMARKS)

    @pytest.mark.parametrize("name", library_rows())
    def test_library_schedule_matches_digest(self, name, ft_library):
        """Bit-identical op finish times, latency and trace per row."""
        circuit = ft_library[name]
        params = PhysicalParams(fabric=FabricSpec(30, 30))
        placement = make_placement(
            "iig_greedy", build_iig(circuit), TQA(params.fabric)
        )
        assert_engines_match(
            LIBRARY_DIGESTS[name], circuit, placement, params
        )

    @pytest.mark.parametrize("routing", ROUTING_MODES)
    @pytest.mark.parametrize("order", ["program", "alap"])
    def test_modes_and_orders_match_digest(self, routing, order, ft_library):
        circuit, placement, params = _ham3_setup(ft_library)
        assert_engines_match(
            MODE_ORDER_DIGESTS[routing, order], circuit, placement, params,
            routing_mode=routing, order=order,
        )

    def test_heavy_congestion_matches_digest(self, ft_library):
        """A saturated fabric (capacity 1, tiny grid) drives every journey
        through the maze search."""
        circuit = ft_library["8bitadder"]
        params = PhysicalParams(
            fabric=FabricSpec(5, 5), channel_capacity=1
        )
        placement = make_placement(
            "row_major", build_iig(circuit), TQA(params.fabric)
        )
        assert_engines_match(CONGESTION_DIGESTS, circuit, placement, params)

    def test_prebuilt_compiled_ops_match_digest(self, ft_library):
        circuit, placement, params = _ham3_setup(ft_library)
        delays = params.delays.by_kind()
        prebuilt = [
            compile_qodg(circuit, delays),
            # Mismatched artifacts of the same shape must be recompiled,
            # never trusted: another circuit, another delay table.
            compile_qodg(circuit.reversed(), delays),
            compile_qodg(circuit, params.delays.scaled(2.0).by_kind()),
        ]
        assert prebuilt[1].num_ops == prebuilt[0].num_ops
        expected = MODE_ORDER_DIGESTS["maze", "program"]
        for compiled in prebuilt:
            for engine in ("array", "kernel"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    result = schedule_circuit(
                        circuit, placement, params, engine=engine,
                        compiled=compiled,
                    )
                assert schedule_digests(result) == expected

    def test_unknown_engine_rejected(self):
        from repro.exceptions import MappingError

        circuit = Circuit(1)
        circuit.append(h(0))
        params = PhysicalParams(fabric=FabricSpec(4, 4))
        for engine in ("numpy", "legacy"):
            with pytest.raises(MappingError, match="unknown scheduler engine"):
                schedule_circuit(circuit, [(0, 0)], params, engine=engine)


#: The FT kinds a random circuit draws from (one- and two-qubit).
_ONE_QUBIT = (h, x, y, z, s, sdg, t, tdg)


@st.composite
def _scheduling_cases(draw):
    width = draw(st.integers(1, 6))
    height = draw(st.integers(1, 6))
    num_qubits = draw(st.integers(1, 6))
    circuit = Circuit(num_qubits)
    for _ in range(draw(st.integers(0, 40))):
        if num_qubits > 1 and draw(st.booleans()):
            control, target = draw(
                st.lists(
                    st.integers(0, num_qubits - 1),
                    min_size=2, max_size=2, unique=True,
                )
            )
            circuit.append(cnot(control, target))
        else:
            gate = draw(st.sampled_from(_ONE_QUBIT))
            circuit.append(gate(draw(st.integers(0, num_qubits - 1))))
    placement = draw(
        st.lists(
            st.tuples(st.integers(0, width - 1), st.integers(0, height - 1)),
            min_size=num_qubits, max_size=num_qubits,
        )
    )
    params = PhysicalParams(
        fabric=FabricSpec(width, height),
        channel_capacity=draw(st.integers(1, 3)),
    )
    return circuit, placement, params


@given(
    case=_scheduling_cases(),
    routing=st.sampled_from(ROUTING_MODES),
    order=st.sampled_from(["program", "alap"]),
)
@settings(max_examples=150, deadline=None)
def test_array_and_kernel_agree_on_random_circuits(case, routing, order):
    """Random small FT circuits on 1x1..6x6 fabrics with N_c 1..3: the
    two engines' schedules are bitwise equal."""
    circuit, placement, params = case
    kwargs = dict(routing_mode=routing, order=order)
    array = schedule_circuit(
        circuit, placement, params, engine="array", **kwargs
    )
    kernel = _kernel_schedule(circuit, placement, params, **kwargs)
    assert_identical(array, kernel)


class TestKernelFallback:
    """The kernel engine must degrade to the array engine, loudly."""

    def test_missing_kernel_module_degrades_with_warning(
        self, monkeypatch, ft_library
    ):
        """Hiding the compiled backend's module forces the fallback: the
        schedule is still bitwise the array engine's, plus a warning."""
        circuit, placement, params = _ham3_setup(ft_library)
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

        circuit, placement, params = _ham3_setup(ft_library)
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


class TestEdgeCaseDigests:
    def test_capacity_pattern_matches_digest(self):
        params = PhysicalParams(
            fabric=FabricSpec(6, 6), channel_capacity=2
        )
        router = SlotRouter(6, 6, capacity=2, t_move=params.t_move)
        moves = []
        for (sx, sy), (tx, ty) in CAPACITY_PATTERN:
            arrival, hops, wait = router.move(sx * 6 + sy, tx * 6 + ty, 0.0)
            moves.append((arrival.hex(), hops, wait.hex()))
        assert tuple(moves) == CAPACITY_MOVES
        assert (
            router.total_moves,
            router.total_hops,
            router.total_wait.hex(),
        ) == CAPACITY_TOTALS

    def test_single_ulb_fabric_schedules_in_place(self):
        """A 1x1 fabric has no channels; everything executes in the only
        ULB and CNOT operands meet in place."""
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1), t(1), x(0)])
        params = PhysicalParams(fabric=FabricSpec(1, 1))
        array = assert_engines_match(
            SINGLE_ULB_DIGESTS, circuit, [(0, 0), (0, 0)], params
        )
        assert array.stats.total_moves == 0
        assert array.final_locations == ((0, 0), (0, 0))

    @pytest.mark.parametrize("width,height", [(6, 1), (1, 6)])
    def test_single_row_and_single_column_fabrics(self, width, height):
        circuit = Circuit(3)
        circuit.extend([h(0), cnot(0, 1), cnot(1, 2), t(2), x(0)])
        params = PhysicalParams(fabric=FabricSpec(width, height))
        placement = make_placement(
            "row_major", build_iig(circuit), TQA(params.fabric)
        )
        assert_engines_match(
            LINE_DIGESTS[width, height], circuit, placement, params
        )
