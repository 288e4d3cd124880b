"""Out-of-core streaming front-end: the table flow, one chunk at a time.

The materialized front-end builds one :class:`~repro.circuits.table.GateTable`
per circuit and hands it whole between stages, so peak memory is linear
in gate count.  This module runs every front-end stage as a **chunk
pipeline**: producers yield bounded-size ``GateTable`` chunks, passes
consume and re-emit chunks with explicit carry state across chunk
boundaries, and the estimator's two inherently global reductions (the
IIG pair counts and the critical-path recurrence) accumulate
incrementally — a million-gate ``random_ft`` run goes parse → FT → IIG →
estimate end to end while holding only a few chunks in RAM, spilling the
replay columns to temporary files.

Chunk-stream conventions
------------------------

* A stream yields **at least one chunk** (possibly empty).
* Each chunk is an ordinary immutable :class:`GateTable` whose register
  is the register *as of the end of that chunk*; registers only grow, so
  the **last chunk always carries the full register** (this is what
  :func:`assemble` and :func:`stream_fingerprint` rely on).
* Chunk boundaries never change results: for every pass here,
  ``materialized(assemble(chunks))`` and ``assemble(streaming(chunks))``
  are bitwise-identical — same arrays, same registers, same
  fingerprints.  ``tests/test_stream.py`` pins that contract across the
  workload registry at chunk sizes 1, prime and larger than the circuit.

Every front-end pass is written once, as a chunk-carry function, and
the materialized entry point is its one-chunk case:

* the readers and random generators live in
  :mod:`~repro.circuits.parser` and :mod:`~repro.circuits.generators`
  (``read_real`` is ``stream_read_real(..., chunk_size=sys.maxsize)``);
* :func:`lower_ft_stream` and :func:`~repro.circuits.table.lower_ft`
  share one per-chunk lowering (the ancilla allocator is the carry);
* :func:`optimize_stream` and :func:`~repro.circuits.table.optimize_table`
  run the same :func:`~repro.circuits.table.peephole` scan (compiled, or
  its Python fallback) to a fixed point, each pass reading and emitting
  tables, spilled to disk here and held in a list there;
* :func:`estimate_stream` counts chunks into the
  :class:`~repro.qodg.iig.IIGAccumulator` that
  :func:`~repro.qodg.iig.build_iig` runs on one chunk (directed pair
  keys, folded with one ``np.unique`` whenever the pending keys
  outnumber the folded ones, then packed into the IIG's CSR arrays),
  takes the model step :meth:`~repro.core.pipeline.StagedPipeline.run`
  takes, and shares the chunk entry of
  :func:`~repro.qodg.sweep.recurrence` with
  :func:`~repro.qodg.sweep.sweep_critical_path`.

This module holds the pieces only the out-of-core path needs
(chunk slicing, spill files, assembly, fingerprinting, the streamed
estimate) and re-exports the chunked producers under their historical
names.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..exceptions import CircuitError
from ..obs import default_registry as _obs_registry
from ..obs import record_span, span as obs_span
from ..qodg.iig import IIGAccumulator
from .generators import stream_random_ft, stream_random_nct
from .parser import stream_read_qasm_lite, stream_read_real, stream_reads_real
from .table import (
    DEFAULT_CHUNK_SIZE,
    GateTable,
    _McExpandCarry,
    _empty_table,
    _lower_ft_chunk,
    _require_chunk_size,
    _scan_to_fixed_point,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.estimator import LatencyEstimate
    from ..fabric.params import PhysicalParams

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "StreamProfile",
    "stream_table",
    "stream_random_ft",
    "stream_random_nct",
    "stream_read_real",
    "stream_reads_real",
    "stream_read_qasm_lite",
    "lower_ft_stream",
    "optimize_stream",
    "IIGAccumulator",
    "assemble",
    "stream_fingerprint",
    "estimate_stream",
]

class StreamProfile:
    """Per-chunk wall-clock trace of one streaming run.

    Passes that accept ``profile=`` append one ``(stage, rows,
    seconds)`` sample per chunk they process; the CLI's ``--profile``
    renders the aggregate.  Cheap enough to leave on: one
    ``perf_counter`` pair per chunk.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[str, int, float]] = []

    def add(self, stage: str, rows: int, seconds: float) -> None:
        """Record one chunk's processing time."""
        self.samples.append((stage, rows, seconds))

    def stage_totals(self) -> dict[str, tuple[int, int, float]]:
        """Per-stage ``(chunks, rows, seconds)`` aggregate."""
        totals: dict[str, tuple[int, int, float]] = {}
        for stage, rows, seconds in self.samples:
            chunks, total_rows, total_s = totals.get(stage, (0, 0, 0.0))
            totals[stage] = (chunks + 1, total_rows + rows, total_s + seconds)
        return totals


# ---------------------------------------------------------------------------
# Chunk producers
# ---------------------------------------------------------------------------


def stream_table(
    table: GateTable, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[GateTable]:
    """Slice a materialized table into bounded chunks (zero-copy views).

    The bridge from the materialized world: every chunk shares the full
    register, and ``assemble(stream_table(t, k))`` reproduces ``t``
    bitwise for any ``k``.
    """
    _require_chunk_size(chunk_size)
    n = len(table)
    if n == 0:
        yield table
        return
    indptr = table.extra_indptr
    for lo in range(0, n, chunk_size):
        hi = min(lo + chunk_size, n)
        yield GateTable(
            kind=table.kind[lo:hi],
            ctrl=table.ctrl[lo:hi],
            ctrl2=table.ctrl2[lo:hi],
            target=table.target[lo:hi],
            target2=table.target2[lo:hi],
            extra_indptr=indptr[lo : hi + 1] - indptr[lo],
            extra=table.extra[indptr[lo] : indptr[hi]],
            qubit_names=table.qubit_names,
            name=table.name,
        )


# ---------------------------------------------------------------------------
# FT synthesis as a chunk pass
# ---------------------------------------------------------------------------


def lower_ft_stream(
    chunks: Iterable[GateTable],
    share_ancillas: bool = False,
    profile: StreamProfile | None = None,
) -> Iterator[GateTable]:
    """The FT synthesis pipeline (:func:`~repro.circuits.table.lower_ft`)
    as a chunk-wise pass.

    Each chunk runs the same per-chunk lowering as the materialized
    :func:`~repro.circuits.table.lower_ft`, which is this pass over one
    chunk: the SWAP/Fredkin/Toffoli template expansions are row-local,
    and the multi-controlled expansion's ancilla allocator is the one
    piece of state carried from chunk to chunk.  Output chunks can be
    larger than input chunks (up to 15x for a Toffoli-heavy chunk, more
    with wide MCT rows) but stay proportional to the input chunk size.

    Requires a fixed input register: ancilla indices are allocated at
    the end of the register, so a register that grows mid-stream would
    interleave with them and diverge from the materialized pass.
    """
    carry: _McExpandCarry | None = None
    base_register: tuple[str, ...] | None = None
    for table in chunks:
        # The span closes before the yield, so consumer time is never
        # charged to the producer; the profile reads its wall off the
        # span (one source of truth for both surfaces).
        with obs_span(
            "stream.ft", metric="stream.stage.seconds", stage="ft"
        ) as sp:
            if carry is None:
                base_register = table.qubit_names
                carry = _McExpandCarry(base_register, share_ancillas)
            elif table.qubit_names != base_register:
                raise CircuitError(
                    "lower_ft_stream requires a fixed input register "
                    "(ancilla indices are allocated past the declared "
                    "qubits); declare all qubits before streaming FT "
                    "synthesis"
                )
            lowered = _lower_ft_chunk(table, carry)
            sp.annotate(rows=len(lowered))
        _obs_registry().inc("stream.rows", len(lowered), stage="ft")
        if profile is not None:
            profile.add("ft", len(lowered), sp.seconds)
        yield lowered


# ---------------------------------------------------------------------------
# Peephole optimization as an out-of-core multi-pass scan
# ---------------------------------------------------------------------------

#: The int64 :class:`GateTable` columns of a spill record, in order;
#: the int8 ``kind`` column follows them, so every int64 column of a
#: record read into one aligned buffer stays aligned.
_SPILL_COLUMNS = ("ctrl", "ctrl2", "target", "target2", "extra_indptr", "extra")

#: A spill record's header: its row and extra-control counts.
_SPILL_HEADER = struct.Struct("<qq")


def _write_table(handle, table: GateTable) -> None:
    """Append one table to an open spill file as one record: the
    header, the int64 columns, then the kind column."""
    columns = [
        np.ascontiguousarray(getattr(table, column), dtype="<i8")
        for column in _SPILL_COLUMNS
    ]
    handle.write(_SPILL_HEADER.pack(len(table), len(columns[-1])))
    for column in columns:
        handle.write(column.tobytes())
    handle.write(np.ascontiguousarray(table.kind, dtype=np.int8).tobytes())


def _read_tables(
    handle, count: int, qubit_names: tuple[str, ...], name: str
) -> Iterator[GateTable]:
    """Read back exactly ``count`` tables written by :func:`_write_table`.

    Each record is read into one buffer and its columns are views of
    it.  A file cut short raises ``EOFError`` instead of ending the
    stream early.
    """
    for _ in range(count):
        header = handle.read(_SPILL_HEADER.size)
        if len(header) != _SPILL_HEADER.size:
            raise EOFError("spill file ends inside a record header")
        rows, extras = _SPILL_HEADER.unpack(header)
        words = 5 * rows + 1 + extras
        record = np.empty(8 * words + rows, dtype=np.uint8)
        if handle.readinto(record) != len(record):
            raise EOFError("spill file ends inside a record")
        ints = record[: 8 * words].view("<i8")
        ctrl, ctrl2, target, target2, extra_indptr, extra = np.split(
            ints, np.cumsum([rows] * 4 + [rows + 1])
        )
        yield GateTable(
            kind=record[8 * words :].view(np.int8),
            ctrl=ctrl,
            ctrl2=ctrl2,
            target=target,
            target2=target2,
            extra_indptr=extra_indptr,
            extra=extra,
            qubit_names=qubit_names,
            name=name,
        )


class _Spill:
    """One peephole pass's survivors on disk.

    The pass's emit target (:func:`~repro.circuits.table._scan_to_fixed_point`
    sink): appended tables are buffered until they hold ``chunk_size``
    rows, then written as one table; iterating reads the tables back in
    order under the register of the last one appended, and the file is
    deleted once read back.
    """

    def __init__(self, path: Path, chunk_size: int) -> None:
        self._path = path
        self._chunk_size = chunk_size
        self._buffer: list[GateTable] = []
        self._rows = 0
        self._count = 0
        self._register: tuple[str, ...] = ()
        self._name = ""

    def append(self, table: GateTable) -> None:
        self._buffer.append(table)
        self._rows += len(table)
        self._register, self._name = table.qubit_names, table.name
        if self._rows >= self._chunk_size:
            self._write()

    def _write(self) -> None:
        with self._path.open("ab") as handle:
            _write_table(
                handle,
                assemble(self._buffer)
                if self._buffer
                else _empty_table((), ""),
            )
        self._count += 1
        self._buffer.clear()
        self._rows = 0

    def tables(
        self, qubit_names: tuple[str, ...], name: str
    ) -> Iterator[GateTable]:
        """Write the last batch, then read every table back (at least
        one, the last possibly empty) under the given register and name.
        Called once, after the pass."""
        if self._buffer or not self._count:
            self._write()
        with self._path.open("rb") as handle:
            yield from _read_tables(handle, self._count, qubit_names, name)
        self._path.unlink()

    def __iter__(self) -> Iterator[GateTable]:
        return self.tables(self._register, self._name)


def _rechunk(
    tables: Iterable[GateTable], chunk_size: int
) -> Iterator[GateTable]:
    """Re-cut a non-empty table stream into ``chunk_size``-row chunks;
    only the last may be shorter (or empty, for an empty stream)."""
    pending: list[GateTable] = []
    pending_rows = 0
    for table in tables:
        pending.append(table)
        pending_rows += len(table)
        if pending_rows >= chunk_size:
            pieces = list(stream_table(assemble(pending), chunk_size))
            pending = [pieces.pop()] if len(pieces[-1]) < chunk_size else []
            pending_rows = sum(len(piece) for piece in pending)
            yield from pieces
    if pending:
        yield assemble(pending)


def optimize_stream(
    chunks: Iterable[GateTable],
    max_passes: int = 100,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    profile: StreamProfile | None = None,
) -> Iterator[GateTable]:
    """Out-of-core :func:`~repro.circuits.table.optimize_table`.

    Runs the same :func:`~repro.circuits.table.peephole` scan (the
    compiled one, one call per chunk, or the Python fallback with a
    ``RuntimeWarning``) to the same fixed point, but each pass streams
    its tables once — the first from the incoming chunks, later ones
    from the previous pass's spill file — and writes the tables of
    survivors to a fresh spill, so peak memory is the scan window plus
    one batch regardless of circuit size.  The survivors come back in
    ``chunk_size`` chunks.
    """
    _require_chunk_size(chunk_size)
    with tempfile.TemporaryDirectory(prefix="repro-peephole-") as tmp:
        tmpdir = Path(tmp)
        register: tuple[str, ...] = ()
        name = "circuit"

        def tables_from_input() -> Iterator[GateTable]:
            nonlocal register, name
            for table in chunks:
                # The timing straddles the yield (the first pass's scan
                # of the chunk included, matching the materialized pass),
                # so the span is recorded post-hoc rather than as a
                # context manager — a live span across a yield would
                # misattribute nesting.
                tick = time.perf_counter()
                register = table.qubit_names
                name = table.name
                yield table
                seconds = time.perf_counter() - tick
                record_span(
                    "stream.peephole-ingest",
                    seconds,
                    metric="stream.stage.seconds",
                    stage="peephole-ingest",
                )
                _obs_registry().inc(
                    "stream.rows", len(table), stage="peephole-ingest"
                )
                if profile is not None:
                    profile.add("peephole-ingest", len(table), seconds)

        passes = itertools.count()
        survivors = _scan_to_fixed_point(
            tables_from_input(),
            max_passes,
            lambda: _Spill(tmpdir / f"pass{next(passes)}.bin", chunk_size),
        )
        yield from _rechunk(survivors.tables(register, name), chunk_size)


# ---------------------------------------------------------------------------
# Assembly and fingerprinting
# ---------------------------------------------------------------------------


def assemble(chunks: Iterable[GateTable]) -> GateTable:
    """Concatenate a chunk stream back into one materialized table.

    The inverse of :func:`stream_table` (bitwise), mostly used by tests
    and by callers that streamed the front-end but want the materialized
    mapper afterwards.  This obviously materializes the whole circuit —
    out-of-core consumers feed the chunks to :func:`estimate_stream` or
    the accumulators instead.
    """
    parts = list(chunks)
    if not parts:
        raise CircuitError("cannot assemble an empty chunk stream")
    last = parts[-1]
    total_extra = sum(int(part.extra_indptr[-1]) for part in parts)
    n = sum(len(part) for part in parts)
    extra_indptr = np.zeros(n + 1, dtype=np.int64)
    counts = np.concatenate(
        [part.extra_counts() for part in parts]
    ) if n else np.empty(0, dtype=np.int64)
    if total_extra:
        np.cumsum(counts, out=extra_indptr[1:])
        extra = np.concatenate([part.extra for part in parts])
    else:
        extra = np.empty(0, dtype=np.int64)
    return GateTable(
        kind=np.concatenate([part.kind for part in parts])
        if n else np.empty(0, dtype=np.int8),
        ctrl=_concat_int(parts, "ctrl", n),
        ctrl2=_concat_int(parts, "ctrl2", n),
        target=_concat_int(parts, "target", n),
        target2=_concat_int(parts, "target2", n),
        extra_indptr=extra_indptr,
        extra=extra,
        qubit_names=last.qubit_names,
        name=last.name,
    )


def _concat_int(parts: list[GateTable], column: str, n: int) -> np.ndarray:
    if not n:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([getattr(part, column) for part in parts])


def stream_fingerprint(chunks: Iterable[GateTable]) -> str:
    """The :meth:`GateTable.fingerprint` of a chunk stream, out of core.

    The digest prefixes the *final* register size, which a growing
    stream only knows at the end — so per-chunk record bytes are spooled
    (to memory below 1 MiB, to disk beyond) and hashed once the last
    chunk has fixed the register.  Identical to
    ``assemble(chunks).fingerprint()`` without materializing anything.
    """
    num_qubits = 0
    with tempfile.SpooledTemporaryFile(max_size=1 << 20) as spool:
        for table in chunks:
            num_qubits = table.num_qubits
            spool.write(table.record_stream().tobytes())
        digest = hashlib.blake2b(digest_size=16)
        digest.update(struct.pack("<q", num_qubits))
        spool.seek(0)
        while True:
            block = spool.read(1 << 20)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Streaming estimation: parse → FT → IIG → estimate without materializing
# ---------------------------------------------------------------------------


def estimate_stream(
    chunks: Iterable[GateTable],
    params: "PhysicalParams",
    profile: StreamProfile | None = None,
    **options: object,
) -> "LatencyEstimate":
    """LEQA over a chunk stream in bounded memory.

    Two passes: the first consumes the chunks once, rejecting any chunk
    with a gate outside the FT set
    (:func:`~repro.core.pipeline.require_ft`), accumulating the IIG
    incrementally and spilling the critical-path columns
    ``(kind, o0, o1)`` to temporary files (the kind column once, read by
    both the second pass and the backtrack); the model step
    (:func:`~repro.core.pipeline.model_point`, the one
    :meth:`~repro.core.pipeline.StagedPipeline.run` takes) then runs on
    the accumulated IIG, and the second pass replays the spilled
    columns chunk by chunk through the chunk entry of
    :func:`~repro.qodg.sweep.recurrence` (compiled, or its Python
    fallback) with one carry — the recurrence
    :func:`~repro.qodg.sweep.sweep_critical_path` runs as a single chunk
    — spilling each chunk's predecessors, and its walk entry backtracks
    through them.  Every field of the returned
    :class:`~repro.core.estimator.LatencyEstimate` except
    ``elapsed_seconds`` is bitwise-identical to
    ``StagedPipeline(**options).run(Circuit.from_table(assemble(chunks)),
    params)``.

    ``options`` forward to :class:`~repro.core.pipeline.StagedPipeline`
    (``max_sq_terms``, ``strict_small_zones``, ``truncation_guard``,
    ``queue_model``); caches are not supported (the point of streaming
    is not to retain artifacts).

    Raises
    ------
    EstimationError
        At the first chunk holding a gate outside the FT set, before
        any model stage runs (same message as the materialized path).
    """
    from ..core.pipeline import model_point, require_ft
    from ..qodg.critical_path import kind_delay_lut, path_result
    from ..qodg.sweep import CriticalPathCarry, recurrence

    started = time.perf_counter()
    accumulator = IIGAccumulator()
    num_qubits = 0
    op_count = 0
    with tempfile.TemporaryDirectory(prefix="repro-stream-") as tmp:
        tmpdir = Path(tmp)
        ops_path = tmpdir / "ops.npy"
        kinds_path = tmpdir / "kinds.bin"
        preds_path = tmpdir / "preds.bin"
        chunk_rows: list[int] = []
        with ops_path.open("wb") as ops_file, \
                kinds_path.open("wb") as kinds_file:
            for table in chunks:
                with obs_span(
                    "stream.ingest",
                    metric="stream.stage.seconds",
                    stage="ingest",
                ) as sp:
                    require_ft(table.kind)
                    num_qubits = table.num_qubits
                    op_count += len(table)
                    accumulator.update(table)
                    o0, o1 = table.operand_pairs()
                    np.save(ops_file, o0.astype(np.int64, copy=False),
                            allow_pickle=False)
                    np.save(ops_file, o1.astype(np.int64, copy=False),
                            allow_pickle=False)
                    kinds_file.write(
                        np.ascontiguousarray(table.kind).tobytes()
                    )
                    chunk_rows.append(len(table))
                    sp.annotate(rows=len(table))
                _obs_registry().inc(
                    "stream.rows", len(table), stage="ingest"
                )
                if profile is not None:
                    profile.add("ingest", len(table), sp.seconds)
        point = model_point(accumulator.finish(num_qubits), params, **options)
        lut = kind_delay_lut(point.delays)
        entries = recurrence()
        # The spilled kind column, read by both pass 2 and the
        # backtrack.  (An empty file cannot be mapped.)
        if op_count:
            codes = np.memmap(kinds_path, dtype=np.int8, mode="r")
        else:
            codes = np.empty(0, dtype=np.int8)
        # Pass 2: the spilled columns through the critical-path
        # recurrence, one chunk at a time with one carry.
        carry = CriticalPathCarry(num_qubits)
        start = 0
        with ops_path.open("rb") as ops_file, \
                preds_path.open("wb") as preds_file:
            for rows in chunk_rows:
                with obs_span(
                    "stream.critical",
                    metric="stream.stage.seconds",
                    stage="critical",
                ) as sp:
                    o0 = np.load(ops_file, allow_pickle=False)
                    o1 = np.load(ops_file, allow_pickle=False)
                    preds = entries.chunk(
                        codes[start:start + rows], o0, o1, lut, carry
                    )
                    start += rows
                    preds_file.write(preds)
                    sp.annotate(rows=rows)
                _obs_registry().inc("stream.rows", rows, stage="critical")
                if profile is not None:
                    profile.add("critical", rows, sp.seconds)
        # Backtrack through the spilled predecessor/kind columns.  (An
        # empty stream has no path to walk.)
        if op_count:
            preds = np.memmap(preds_path, dtype=np.int64, mode="r")
        else:
            preds = np.empty(0, dtype=np.int64)
        result = path_result(
            carry.best, entries.walk(carry.best_node, preds), codes
        )
        del preds, codes
    return point.estimate(result, op_count, started)
