"""Bitwise equivalence of the array-native front-end and the object path.

The GateTable IR refactor's contract: for every circuit the library can
produce, the table passes (parse, FT synthesis) and the table-built CSR
cores (QODG, IIG, the mapper's compiled QODG) are **bitwise identical**
to the object implementations — same gate streams, same ancilla names,
same adjacency arrays, same LEQA latencies, same mapper schedules.  The
object peephole pass is gone; the table peephole's output is pinned by
frozen fingerprints recorded from it (:data:`OPTIMIZED_FINGERPRINTS`).

The default run covers every benchmark family at tractable parameter
points plus synthetic edge cases (MCF/SWAP kinds, idle qubits, empty
circuits); set ``REPRO_FULL=1`` to sweep the registered library rows up
to the multi-million-gate entries.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.decompose import synthesize_ft
from repro.circuits.generators import (
    cnot_ladder,
    gf2_multiplier,
    ham3,
    hamming_coder,
    hwb,
    modular_adder,
    random_ft,
    random_reversible,
    ripple_adder,
)
from repro.circuits.library import BENCHMARKS, build_ft
from repro.circuits.optimize import optimize_ft
from repro.circuits.parser import reads_qasm_lite, writes_qasm_lite
from repro.circuits.stream import estimate_stream, stream_table
from repro.circuits.table import TableBuilder
from repro.core.estimator import LEQAEstimator
from repro.core.pipeline import StagedPipeline
from repro.engine import ArtifactCache, CircuitSpec
from repro.engine.runner import sweep_workload, BatchRunner
from repro.exceptions import EstimationError, MappingError
from repro.fabric.params import DEFAULT_PARAMS
from repro.qodg.graph import build_qodg
from repro.qodg.iig import build_iig
from repro.qspr.mapper import QSPRMapper
from repro.qspr.scheduling import _alap_order, compile_qodg


def _mixed_kinds() -> Circuit:
    """A circuit exercising every synthesis-level kind incl. MCF/SWAP."""
    builder = TableBuilder(7, name="mixed")
    builder.x(0)
    builder.cnot(0, 1)
    builder.toffoli(0, 1, 2)
    builder.fredkin(2, 3, 4)
    builder.swap(5, 6)
    builder.mct((0, 1, 2, 3), 4)
    builder.mcf((0, 1, 2), 5, 6)
    builder.mct((4, 5), 6)
    return Circuit.from_table(builder.finish())


#: (name, builder) cases covering every family; small enough for tier 1.
CASES = [
    ("ham3", ham3),
    ("adder", lambda: ripple_adder(6)),
    ("modadder", lambda: modular_adder(4)),
    ("gf2", lambda: gf2_multiplier(7)),
    ("hwb", lambda: hwb(7)),
    ("ham-coder", lambda: hamming_coder(3)),
    ("random-nct", lambda: random_reversible(6, 120, seed=11)),
    ("random-ft", lambda: random_ft(8, 200, seed=4)),
    ("ladder", lambda: cnot_ladder(5, 2)),
    ("mixed", _mixed_kinds),
    ("empty", lambda: Circuit(3, "empty")),
]

if os.environ.get("REPRO_FULL") == "1":
    CASES += [
        (f"lib:{name}", spec.builder)
        for name, spec in BENCHMARKS.items()
    ]


#: ``fingerprint()`` of each case's peephole-optimized FT table, recorded
#: from the object peephole pass after asserting that it and the table
#: scan produced the same gates and qubit names.
OPTIMIZED_FINGERPRINTS = {
    "ham3": "8024629ab206bf7374ff3b6a79cfb9c8",
    "adder": "55a6e96d978264917ce2d00c090b1ec8",
    "modadder": "8b9569de935b0d3044dd37f0153ad962",
    "gf2": "a167173d93029b8964eabbbedfab2369",
    "hwb": "a1abda3ecb811ac033b039c396495948",
    "ham-coder": "81379f8a74e54ef8738e7a685624df97",
    "random-nct": "1095bf8f820003de24d0ad03ead01996",
    "random-ft": "49740affe9220f6b852916b80f7642c2",
    "ladder": "3d10b5af5550332c634284e429c79507",
    "mixed": "6e6abf1b3b07cab9c107f718701fba42",
    "empty": "8e79fdf1428e95842eaa9af0b22414be",
    # The registry rows, which REPRO_FULL=1 adds to CASES.
    "lib:ham3": "8024629ab206bf7374ff3b6a79cfb9c8",
    "lib:8bitadder": "f65632cd4da3cd2a8250ca6c13ffc5fd",
    "lib:gf2^16mult": "b1fb1ffe354e5d1a94cd148cc621ba5c",
    "lib:hwb15ps": "0fde130eeb4a0e80bc78a54d92e64619",
    "lib:hwb16ps": "7ca7c27da86006f5a83a595db3f660e0",
    "lib:gf2^18mult": "b38747f350403c0761c10a6f7bc334cf",
    "lib:gf2^19mult": "578562f0b1d6cea172a1f52099421f5b",
    "lib:gf2^20mult": "40886d3383e752698686f562a6cbab8e",
    "lib:ham15": "733573c0fcf345735f3a8e3b7a6d96cf",
    "lib:hwb20ps": "3481626e5e00aecb4c0ba62a1407ea0d",
    "lib:hwb50ps": "cb30b36025adf79442d55c1fef6b9733",
    "lib:gf2^50mult": "27b4f61e67e54019e695760e57cc4028",
    "lib:mod1048576adder": "4365c6bb11e4277ac6365f31a6295d57",
    "lib:gf2^64mult": "9b51639cd8480feb10c050926c4c97db",
    "lib:hwb100ps": "4416eb41566a090e7c0a23e4dffe1e23",
    "lib:gf2^100mult": "a25f1ae62810cc98e239500cf2ec4c84",
    "lib:hwb200ps": "3757f18ea5530d13ec1c0a6ebdccc1ee",
    "lib:gf2^128mult": "86501ed5bbb41f7b2dfe20f80c6220ac",
    "lib:gf2^256mult": "c7af38f54fbfdcda5741e946eeb848c3",
}

#: The QODG's six CSR arrays, in field order.
QODG_FIELDS = (
    "pred_indptr",
    "pred_indices",
    "succ_indptr",
    "succ_indices",
    "qubit_indptr",
    "qubit_ops",
)


def _object_backed(circuit: Circuit) -> Circuit:
    """A copy holding Gate objects only (forces every legacy code path)."""
    clone = Circuit(0, circuit.name)
    for name in circuit.qubit_names:
        clone.add_qubit(name)
    clone.extend(circuit.gates)
    return clone


def _assert_same_gates(left: Circuit, right: Circuit) -> None:
    assert left.qubit_names == right.qubit_names
    assert list(left.gates) == list(right.gates)


@pytest.mark.parametrize("label,make", CASES, ids=[c[0] for c in CASES])
class TestFrontEndEquivalence:
    def test_ft_synthesis_bitwise_identical(self, label, make):
        circuit = make()
        table_ft = synthesize_ft(circuit, engine="table")
        legacy_ft = synthesize_ft(_object_backed(circuit), engine="legacy")
        _assert_same_gates(table_ft, legacy_ft)
        assert table_ft.content_fingerprint() == legacy_ft.content_fingerprint()

    def test_ft_synthesis_shared_ancillas(self, label, make):
        circuit = make()
        table_ft = synthesize_ft(circuit, share_ancillas=True, engine="table")
        legacy_ft = synthesize_ft(
            _object_backed(circuit), share_ancillas=True, engine="legacy"
        )
        _assert_same_gates(table_ft, legacy_ft)

    def test_optimize_matches_frozen_fingerprint(self, label, make):
        ft = synthesize_ft(make(), engine="table")
        optimized = optimize_ft(ft)
        assert optimized.qubit_names == ft.qubit_names
        assert optimized.table().fingerprint() == OPTIMIZED_FINGERPRINTS[label]

    def test_qodg_csr_arrays_identical(self, label, make):
        ft = synthesize_ft(make(), engine="table")
        fast = build_qodg(ft)
        slow = build_qodg(_object_backed(ft))
        for field in QODG_FIELDS:
            # array_equal ignores dtype, so both sides are pinned too.
            assert getattr(fast, field).dtype == np.int64, field
            assert getattr(slow, field).dtype == np.int64, field
            assert np.array_equal(getattr(fast, field), getattr(slow, field)), field
        assert (fast.num_ops, fast.start, fast.end) == (
            slow.num_ops,
            slow.start,
            slow.end,
        )

    def test_iig_arrays_identical(self, label, make):
        ft = synthesize_ft(make(), engine="table")
        fast = build_iig(ft)
        slow = build_iig(_object_backed(ft))
        assert fast.total_weight == slow.total_weight
        for field in ("indptr", "indices", "weights", "degrees", "weight_sums"):
            assert np.array_equal(
                getattr(fast, field), getattr(slow, field)
            ), field

    def test_compiled_qodg_identical(self, label, make):
        ft = synthesize_ft(make(), engine="table")
        delays = DEFAULT_PARAMS.delays.by_kind()
        fast = compile_qodg(ft, delays)
        slow = compile_qodg(_object_backed(ft), delays)
        assert fast.num_qubits == slow.num_qubits
        for field in ("q0", "q1", "delays"):
            mine, theirs = getattr(fast, field), getattr(slow, field)
            assert mine.dtype == theirs.dtype, field
            assert np.array_equal(mine, theirs), field
        assert fast.table.same_content(slow.table)
        assert fast.delays_token == slow.delays_token

    def test_fingerprints_agree_across_backings(self, label, make):
        circuit = make()
        assert (
            circuit.content_fingerprint()
            == _object_backed(circuit).content_fingerprint()
        )


def test_every_case_has_a_frozen_fingerprint():
    labels = {label for label, _ in CASES}
    labels |= {f"lib:{name}" for name in BENCHMARKS}
    assert labels == set(OPTIMIZED_FINGERPRINTS)


@pytest.mark.parametrize("backing", ["table", "object"])
def test_gf2_16_qodg_and_alap_order_digests_pinned(backing):
    # blake2b-16 digests recorded before the QODG became one record of
    # its CSR arrays: the six arrays' bytes in field order, and the
    # ALAP visit order the mapper's order="alap" schedules follow.
    ft = build_ft("gf2^16mult")
    if backing == "object":
        ft = _object_backed(ft)
    qodg = build_qodg(ft)
    arrays = b"".join(getattr(qodg, field).tobytes() for field in QODG_FIELDS)
    assert (
        hashlib.blake2b(arrays, digest_size=16).hexdigest()
        == "19344aa7f0bb470a4164aafee406cf9b"
    )
    order = np.array(
        _alap_order(ft, DEFAULT_PARAMS.delays.by_kind()), np.int64
    )
    assert (
        hashlib.blake2b(order.tobytes(), digest_size=16).hexdigest()
        == "4852ad62d86ce073d40373d094e7c169"
    )


class TestEstimationEquivalence:
    """LEQA latencies and mapper schedules across the two front-ends."""

    @pytest.mark.parametrize(
        "make", [lambda: gf2_multiplier(6), lambda: hwb(6)], ids=["gf2", "hwb"]
    )
    def test_leqa_latency_bitwise_equal(self, make):
        table_ft = synthesize_ft(make(), engine="table")
        legacy_ft = _object_backed(
            synthesize_ft(_object_backed(make()), engine="legacy")
        )
        estimator = LEQAEstimator(params=DEFAULT_PARAMS)
        fast = estimator.estimate(table_ft)
        slow = estimator.estimate(legacy_ft)
        assert fast.latency == slow.latency
        assert fast.critical.node_ids == slow.critical.node_ids
        assert fast.critical.counts_by_kind == slow.critical.counts_by_kind
        assert fast.l_avg_cnot == slow.l_avg_cnot

    def test_mapper_schedule_bitwise_equal(self):
        table_ft = synthesize_ft(gf2_multiplier(5), engine="table")
        legacy_ft = _object_backed(table_ft)
        mapper = QSPRMapper(params=DEFAULT_PARAMS)
        fast = mapper.map(table_ft)
        slow = mapper.map(legacy_ft)
        assert fast.latency == slow.latency
        assert fast.schedule.finish_times == slow.schedule.finish_times
        assert fast.schedule.final_locations == slow.schedule.final_locations
        assert fast.schedule.stats == slow.schedule.stats


def _swap_bearing() -> Circuit:
    builder = TableBuilder(3, name="swap-bearing")
    builder.h(0)
    builder.cnot(0, 1)
    builder.swap(1, 2)
    builder.t(2)
    return Circuit.from_table(builder.finish())


def _toffoli_bearing() -> Circuit:
    builder = TableBuilder(3, name="toffoli-bearing")
    builder.h(0)
    builder.toffoli(0, 1, 2)
    builder.swap(0, 2)
    return Circuit.from_table(builder.finish())


@pytest.mark.parametrize(
    "make,kind",
    [(_swap_bearing, "swap"), (_toffoli_bearing, "toffoli")],
    ids=["swap", "toffoli"],
)
class TestNonFtErrorParity:
    """Every entry point names the first non-FT gate's kind, alike."""

    def test_estimators_raise_one_error(self, make, kind):
        circuit = make()
        pipeline = StagedPipeline()
        oracle = LEQAEstimator(vectorized=False)
        grid = [DEFAULT_PARAMS, DEFAULT_PARAMS.with_fabric(20, 20)]
        messages = []
        for backing in (circuit, _object_backed(circuit)):
            with pytest.raises(EstimationError) as run_error:
                pipeline.run(backing, DEFAULT_PARAMS)
            with pytest.raises(EstimationError) as sweep_error:
                pipeline.sweep(backing, grid)
            with pytest.raises(EstimationError) as oracle_error:
                oracle.estimate(backing)
            messages += [
                str(run_error.value),
                str(sweep_error.value),
                str(oracle_error.value),
            ]
        for chunk_size in (1, len(circuit) + 10):
            with pytest.raises(EstimationError) as stream_error:
                estimate_stream(
                    stream_table(circuit.table(), chunk_size), DEFAULT_PARAMS
                )
            messages.append(str(stream_error.value))
        expected = (
            f"gate kind {kind!r} is not an FT operation; "
            "run synthesize_ft() before estimating"
        )
        assert messages == [expected] * 8

    def test_compile_qodg_raises_one_error(self, make, kind):
        circuit = make()
        messages = []
        for backing in (circuit, _object_backed(circuit)):
            with pytest.raises(MappingError) as error:
                compile_qodg(backing, DEFAULT_PARAMS.delays.by_kind())
            messages.append(str(error.value))
        expected = (
            f"gate kind {kind!r} is not executable on the fabric; "
            "run synthesize_ft() first"
        )
        assert messages == [expected] * 2


class TestToffoliTemplate:
    def test_table_template_matches_object_oracle(self):
        """The array template and toffoli_to_ft_gates stay in lock-step."""
        from repro.circuits.decompose import toffoli_to_ft_gates
        from repro.circuits.table import emit_toffoli_ft

        builder = TableBuilder(3)
        emit_toffoli_ft(builder, 0, 1, 2)
        streamed = Circuit.from_table(builder.finish())
        assert list(streamed.gates) == toffoli_to_ft_gates(0, 1, 2)


class TestTableRoundtrips:
    def test_parser_roundtrip_table_backed(self):
        circuit = _mixed_kinds()
        recovered = reads_qasm_lite(writes_qasm_lite(circuit))
        _assert_same_gates(circuit, recovered)
        assert recovered.table_if_ready() is not None

    def test_incremental_fingerprint_tracks_appends(self):
        from repro.circuits.gates import cnot, h

        base = reads_qasm_lite("qubits 3\nh q0\ncnot q0 q1\n")
        grown = reads_qasm_lite("qubits 3\nh q0\n")
        assert base.content_fingerprint() != grown.content_fingerprint()
        grown.append(cnot(0, 1))  # the cached digest must not go stale
        assert base.content_fingerprint() == grown.content_fingerprint()
        grown.append(h(2))
        assert base.content_fingerprint() != grown.content_fingerprint()

    def test_fingerprint_restarts_after_register_growth(self):
        left = reads_qasm_lite("qubits 2\ncnot q0 q1\n")
        right = reads_qasm_lite("qubits 2\ncnot q0 q1\n")
        right.content_fingerprint()
        right.add_qubit("anc")
        left3 = reads_qasm_lite("qubits 2\nqubit anc\ncnot q0 q1\n")
        assert right.content_fingerprint() == left3.content_fingerprint()
        assert right.content_fingerprint() != left.content_fingerprint()


class TestWorkloadSweepCaching:
    def test_batch_sweep_lowers_each_member_exactly_once(self):
        """The keyed ft stage: members x grid builds |members| netlists."""
        runner = BatchRunner(workers=1, cache=ArtifactCache())
        grid = [
            DEFAULT_PARAMS.with_fabric(size, size) for size in (20, 30, 40)
        ]
        results = sweep_workload(
            "qecc",
            overrides={"r_min": 2, "r_max": 4},
            params_grid=grid,
            runner=runner,
        )
        members = 3  # r = 2, 3, 4
        assert len(results) == members * len(grid)
        assert all(point.ok for point in results)
        stats = runner.cache.stats()
        assert stats.miss_count("ft") == members
        assert stats.hit_count("ft") == members * (len(grid) - 1)

    def test_workload_spec_loads_members(self):
        spec = CircuitSpec("workload:gf2/n=5", ft=True)
        circuit = spec.build()
        assert circuit.is_ft()
        assert circuit.num_qubits >= 15
