"""Streaming front-end vs materialized equivalence (repro.circuits.stream).

The out-of-core chunked path's contract is *bitwise identity* with the
materialized front-end: identical tables, fingerprints, FT output, IIG
CSR arrays and final :class:`LatencyEstimate` (minus wall time) for any
chunk size.  These tests pin that contract across the whole workload
registry and the awkward chunk sizes — 1 row per chunk, a prime, and one
larger than the circuit.

Large registry members are skipped unless ``REPRO_FULL=1`` (same policy
as the scheduler-equivalence suite); the default subset still covers
every family and every streaming pass.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import os

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.generators import random_ft, random_reversible
from repro.circuits.library import BENCHMARKS, build
from repro.circuits.parser import reads_real, writes_qasm_lite, writes_real
from repro.circuits.stream import (
    DEFAULT_CHUNK_SIZE,
    IIGAccumulator,
    StreamProfile,
    assemble,
    estimate_stream,
    lower_ft_stream,
    optimize_stream,
    stream_fingerprint,
    stream_random_ft,
    stream_random_nct,
    stream_read_qasm_lite,
    stream_reads_real,
    stream_table,
)
from repro.circuits.optimize import optimize_ft
from repro.circuits.stream import _read_tables, _write_table
from repro.circuits import table as table_module
from repro.circuits.table import _SCAN_FLUSH_EVERY, lower_ft, optimize_table
from repro.core.estimator import LEQAEstimator
from repro.exceptions import CircuitError, EstimationError, ParseError
from repro.fabric.params import FabricSpec, PhysicalParams
from repro.qodg.iig import build_iig
from repro.workloads import WORKLOADS, build_member, enumerate_members

#: Build-level op cap for the default (fast) run; REPRO_FULL=1 removes it.
DEFAULT_OP_CAP = 1000

#: Members whose FT table exceeds this only run the cheap chunk sizes
#: (chunk size 1 costs one python round-trip per row).
UNIT_CHUNK_OP_CAP = 4000

_cached_build = functools.lru_cache(maxsize=None)(build)


def build_source(source: str) -> Circuit:
    """Build a registry member (library rows are plain benchmark names)."""
    if source in BENCHMARKS:
        return _cached_build(source)
    return build_member(source)


def registry_members() -> list[str]:
    members: list[str] = []
    for family in WORKLOADS:
        members.extend(enumerate_members(family))
    if os.environ.get("REPRO_FULL") == "1":
        return members
    return [
        name
        for name in members
        if name not in BENCHMARKS
        or len(_cached_build(name)) <= DEFAULT_OP_CAP
    ]


def chunk_sizes_for(op_count: int) -> tuple[int, ...]:
    """1 row, a prime, and one chunk larger than the whole circuit."""
    sizes = (1, 7, op_count + 1)
    if op_count > UNIT_CHUNK_OP_CAP:
        return sizes[1:]
    return sizes


def assert_tables_equal(streamed, expected) -> None:
    assert streamed.num_qubits == expected.num_qubits
    assert streamed.qubit_names == expected.qubit_names
    assert np.array_equal(streamed.kind, expected.kind)
    assert np.array_equal(streamed.ctrl, expected.ctrl)
    assert np.array_equal(streamed.ctrl2, expected.ctrl2)
    assert np.array_equal(streamed.target, expected.target)
    assert np.array_equal(streamed.target2, expected.target2)
    assert np.array_equal(streamed.extra_indptr, expected.extra_indptr)
    assert np.array_equal(streamed.extra, expected.extra)
    assert streamed.fingerprint() == expected.fingerprint()


def assert_iig_equal(streamed, expected) -> None:
    assert np.array_equal(streamed.indptr, expected.indptr)
    assert np.array_equal(streamed.indices, expected.indices)
    assert np.array_equal(streamed.weights, expected.weights)
    assert np.array_equal(streamed.degrees, expected.degrees)
    assert np.array_equal(streamed.weight_sums, expected.weight_sums)
    assert streamed.total_weight == expected.total_weight


def assert_estimates_equal(streamed, expected) -> None:
    """Every field except wall time, bitwise."""
    for field in dataclasses.fields(type(expected)):
        if field.name == "elapsed_seconds":
            continue
        assert getattr(streamed, field.name) == getattr(
            expected, field.name
        ), field.name


@pytest.fixture(scope="module")
def small_params() -> PhysicalParams:
    return PhysicalParams(fabric=FabricSpec(12, 12))


class TestRegistryEquivalence:
    """The satellite contract: every family, every pass, bitwise."""

    @pytest.mark.parametrize("member", registry_members())
    def test_streamed_pipeline_matches_materialized(
        self, member, small_params
    ):
        raw = build_source(member).table()
        ft_expected = lower_ft(raw)
        iig_expected = build_iig(Circuit.from_table(ft_expected))
        estimate_expected = LEQAEstimator(params=small_params).estimate(
            Circuit.from_table(ft_expected)
        )
        for chunk_size in chunk_sizes_for(len(ft_expected)):
            # Tables and fingerprints survive the chunk round-trip.
            assert_tables_equal(
                assemble(stream_table(raw, chunk_size)), raw
            )
            assert (
                stream_fingerprint(stream_table(raw, chunk_size))
                == raw.fingerprint()
            )
            # FT synthesis as a chunk-wise pass.
            ft_streamed = assemble(
                lower_ft_stream(stream_table(raw, chunk_size))
            )
            assert_tables_equal(ft_streamed, ft_expected)
            # IIG accumulation.
            accumulator = IIGAccumulator()
            for chunk in stream_table(ft_expected, chunk_size):
                accumulator.update(chunk)
            assert_iig_equal(
                accumulator.finish(ft_expected.num_qubits), iig_expected
            )
            # End-to-end estimate over the chunk stream.
            streamed = estimate_stream(
                lower_ft_stream(stream_table(raw, chunk_size)),
                small_params,
            )
            assert_estimates_equal(streamed, estimate_expected)


class TestGeneratorStreams:
    @pytest.mark.parametrize("chunk_size", [1, 7, 10**9])
    def test_random_ft_stream_matches(self, chunk_size):
        expected = random_ft(10, 300, seed=5, cnot_fraction=0.4).table()
        streamed = assemble(
            stream_random_ft(
                10, 300, seed=5, cnot_fraction=0.4, chunk_size=chunk_size
            )
        )
        assert_tables_equal(streamed, expected)

    @pytest.mark.parametrize("chunk_size", [1, 13, 10**9])
    def test_random_nct_stream_matches(self, chunk_size):
        expected = random_reversible(
            8, 250, seed=9, toffoli_fraction=0.3
        ).table()
        streamed = assemble(
            stream_random_nct(
                8, 250, seed=9, toffoli_fraction=0.3, chunk_size=chunk_size
            )
        )
        assert_tables_equal(streamed, expected)

    def test_chunk_size_validated(self):
        with pytest.raises(CircuitError, match="chunk_size must be >= 1"):
            list(stream_random_ft(4, 10, seed=1, chunk_size=0))
        with pytest.raises(CircuitError, match="chunk_size must be an int"):
            list(stream_random_ft(4, 10, seed=1, chunk_size=2.5))


class TestOptimizeStream:
    @pytest.mark.parametrize("chunk_size", [1, 7, 10**9])
    def test_matches_materialized_peephole(self, chunk_size):
        # random_nct lowered to FT is dense with adjacent cancellations.
        raw = random_reversible(8, 200, seed=3).table()
        ft = lower_ft(raw)
        expected = optimize_table(ft)
        streamed = assemble(
            optimize_stream(
                stream_table(ft, chunk_size), chunk_size=chunk_size
            )
        )
        assert_tables_equal(streamed, expected)

    def test_matches_on_registry_sample(self):
        ft = lower_ft(build_source("ham15").table())
        expected = optimize_table(ft)
        streamed = assemble(
            optimize_stream(stream_table(ft, 97), chunk_size=97)
        )
        assert_tables_equal(streamed, expected)


def _object_backed(table) -> Circuit:
    """A Circuit holding Gate objects only (forces the legacy passes)."""
    circuit = Circuit(0, table.name)
    for name in table.qubit_names:
        circuit.add_qubit(name)
    circuit.extend(table.to_gates())
    return circuit


class TestPeepholeFrontierFlush:
    """A peephole pass over many flush windows, against the object oracle.

    The scan freezes and emits rows below the qubit frontier every
    ``_SCAN_FLUSH_EVERY`` appends; this input spans several windows, so
    a flush that dropped, reordered or emitted a still-live row would
    show up as a difference from the object pass.
    """

    @pytest.fixture(scope="class")
    def ft_and_expected(self):
        ft = lower_ft(random_reversible(12, 4000, seed=3).table())
        expected = optimize_ft(
            _object_backed(ft), engine="legacy"
        ).table()
        assert len(ft) == 20520 > 4 * _SCAN_FLUSH_EVERY
        assert len(expected) == 19630
        return ft, expected

    def test_optimize_table(self, ft_and_expected):
        ft, expected = ft_and_expected
        assert_tables_equal(optimize_table(ft), expected)

    @pytest.mark.parametrize("chunk_size", [97, 4096])
    def test_optimize_stream(self, ft_and_expected, chunk_size):
        ft, expected = ft_and_expected
        chunks = list(
            optimize_stream(
                stream_table(ft, chunk_size), chunk_size=chunk_size
            )
        )
        assert all(len(chunk) == chunk_size for chunk in chunks[:-1])
        assert_tables_equal(assemble(chunks), expected)

    @pytest.mark.parametrize("flush_every", [1, 5, 64])
    def test_dense_flush_cadence(self, ft_and_expected, monkeypatch, flush_every):
        # Flushing far more often puts many more live rows right at the
        # frontier, where an off-by-one would emit one too early.
        monkeypatch.setattr(table_module, "_SCAN_FLUSH_EVERY", flush_every)
        ft, expected = ft_and_expected
        assert_tables_equal(optimize_table(ft), expected)
        streamed = optimize_stream(stream_table(ft, 97), chunk_size=97)
        assert_tables_equal(assemble(streamed), expected)


class TestSpillFile:
    """The peephole spill reads back exactly the tables written."""

    @staticmethod
    def _spill(tables) -> bytes:
        buffer = io.BytesIO()
        for table in tables:
            _write_table(buffer, table)
        return buffer.getvalue()

    def test_round_trip(self):
        ft = lower_ft(random_reversible(6, 60, seed=1).table())
        parts = list(stream_table(ft, 100))
        data = self._spill(parts)
        read = list(
            _read_tables(io.BytesIO(data), len(parts), ft.qubit_names, ft.name)
        )
        assert len(read) == len(parts)
        assert_tables_equal(assemble(read), ft)

    @pytest.mark.parametrize("cut", ["mid-header", "boundary", "mid-data"])
    def test_truncated_spill_raises(self, cut):
        ft = lower_ft(random_reversible(6, 60, seed=1).table())
        parts = list(stream_table(ft, 100))
        data = self._spill(parts)
        first = len(self._spill(parts[:1]))
        end = {
            "mid-header": first + 20,
            "boundary": first,
            "mid-data": len(data) - 9,
        }[cut]
        with pytest.raises((EOFError, ValueError)):
            list(
                _read_tables(
                    io.BytesIO(data[:end]), len(parts), ft.qubit_names, ft.name
                )
            )


class TestParserStreams:
    @pytest.fixture(scope="class")
    def real_text(self) -> str:
        return writes_real(random_reversible(6, 120, seed=2))

    @pytest.mark.parametrize("chunk_size", [1, 7, 10**9])
    def test_real_stream_matches(self, real_text, chunk_size):
        expected = reads_real(real_text).table()
        streamed = assemble(
            stream_reads_real(real_text, chunk_size=chunk_size)
        )
        assert_tables_equal(streamed, expected)

    @pytest.mark.parametrize("chunk_size", [1, 7, 10**9])
    def test_qasm_lite_stream_matches(self, chunk_size):
        circuit = lower_ft(build_source("ham3").table())
        text = writes_qasm_lite(Circuit.from_table(circuit))
        from repro.circuits.parser import reads_qasm_lite

        expected = reads_qasm_lite(text).table()
        streamed = assemble(
            stream_read_qasm_lite(io.StringIO(text), chunk_size=chunk_size)
        )
        assert np.array_equal(streamed.kind, expected.kind)
        assert streamed.fingerprint() == expected.fingerprint()

    @pytest.mark.parametrize(
        "text",
        [
            ".numvars 2\n.variables a b\n.begin\nt9 a b\n.end\n",
            ".numvars 2\n.variables a\n.begin\n.end\n",
            ".numvars 2\n.variables a b\n.begin\nt2 a c\n.end\n",
            ".numvars 2\n.variables a b\n.begin\nt2 a a\n.end\n",
        ],
    )
    def test_error_parity_with_materialized_parser(self, text):
        """Malformed input raises the same ParseError, same message."""
        with pytest.raises(ParseError) as expected:
            reads_real(text)
        with pytest.raises(ParseError) as streamed:
            list(stream_reads_real(text))
        assert str(streamed.value) == str(expected.value)


class TestStreamingErrors:
    def test_lower_ft_stream_requires_fixed_register(self):
        # qasm-lite may declare qubits mid-stream; FT synthesis cannot
        # allocate ancillas against a still-growing register.
        text = "qubit q0\nqubit q1\ncx q0 q1\nqubit q2\ncx q1 q2\n"
        chunks = stream_read_qasm_lite(io.StringIO(text), chunk_size=1)
        with pytest.raises(CircuitError, match="fixed input register"):
            list(lower_ft_stream(chunks))

    def test_estimate_stream_rejects_non_ft_gates(self, small_params):
        raw = random_reversible(5, 20, seed=1).table()
        with pytest.raises(
            EstimationError, match="is not an FT operation"
        ):
            estimate_stream(stream_table(raw, 7), small_params)

    def test_assemble_rejects_empty_stream(self):
        with pytest.raises(CircuitError, match="empty chunk stream"):
            assemble(iter(()))


class TestStreamProfile:
    def test_profile_collects_per_chunk_samples(self, small_params):
        raw = build_source("ham3").table()
        profile = StreamProfile()
        estimate_stream(
            lower_ft_stream(stream_table(raw, 7), profile=profile),
            small_params,
            profile=profile,
        )
        totals = profile.stage_totals()
        assert set(totals) >= {"ft", "ingest", "critical"}
        ops = len(lower_ft(raw))
        for stage in ("ft", "ingest", "critical"):
            chunks, rows, seconds = totals[stage]
            assert chunks >= 1
            assert rows == ops
            assert seconds >= 0.0

    def test_default_chunk_size_is_sane(self):
        assert DEFAULT_CHUNK_SIZE >= 1024
