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

FT lowering and the critical path are written once, as chunk-carry
functions, and the materialized path is their one-chunk case:
:func:`lower_ft_stream` and :func:`~repro.circuits.table.lower_ft` share
one per-chunk lowering (the ancilla allocator is the carry), and
:func:`estimate_stream` and
:func:`~repro.qodg.sweep.sweep_critical_path` share
:func:`~repro.qodg.sweep.critical_path_chunk`.  The peephole scan and the
IIG accumulation keep their own carry state (pending window, adjacency
insertion order), mirroring the materialized implementations statement
for statement.
"""

from __future__ import annotations

import hashlib
import io
import random
import struct
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TextIO

import numpy as np

from ..exceptions import CircuitError, ParseError
from ..obs import default_registry as _obs_registry
from ..obs import record_span, span as obs_span
from .gates import KINDS_BY_CODE, kind_from_name
from .generators import _RANDOM_FT_ONE_QUBIT
from .parser import _append_from_operands, _parse_real_gate
from .table import (
    GateTable,
    TableBuilder,
    _INVERSE_OF,
    _McExpandCarry,
    _PHASE_FUSION_CODES,
    _SELF_INVERSE_CODES,
    _lower_ft_chunk,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.estimator import LatencyEstimate
    from ..fabric.params import PhysicalParams
    from ..qodg.iig import IIG

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "StreamProfile",
    "stream_table",
    "stream_random_ft",
    "stream_random_nct",
    "stream_read_real",
    "stream_read_qasm_lite",
    "lower_ft_stream",
    "optimize_stream",
    "IIGAccumulator",
    "assemble",
    "stream_fingerprint",
    "estimate_stream",
]

#: Default rows per emitted chunk.  Large enough that per-chunk numpy
#: dispatch overhead is negligible, small enough that a handful of
#: in-flight chunks stay far below any benchmark table's full size.
DEFAULT_CHUNK_SIZE = 65536


def _require_chunk_size(chunk_size: int) -> int:
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, int):
        raise CircuitError(f"chunk_size must be an int, got {chunk_size!r}")
    if chunk_size < 1:
        raise CircuitError(f"chunk_size must be >= 1, got {chunk_size}")
    return chunk_size


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


def stream_random_ft(
    n: int,
    gate_count: int,
    seed: int,
    cnot_fraction: float = 0.4,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[GateTable]:
    """Chunked :func:`~repro.circuits.generators.random_ft`: exact replay.

    Same RNG draws in the same order as the materialized generator, so
    ``assemble(stream_random_ft(...))`` equals
    ``random_ft(...).table()`` bitwise — but peak memory is one chunk,
    whatever ``gate_count`` is.
    """
    from .._validation import require_positive_int

    require_positive_int(n, "n", CircuitError)
    if n < 2:
        raise CircuitError("random_ft requires n >= 2")
    if not 0.0 <= cnot_fraction <= 1.0:
        raise CircuitError(
            f"cnot_fraction must be in [0, 1], got {cnot_fraction}"
        )
    _require_chunk_size(chunk_size)
    rng = random.Random(seed)
    builder = TableBuilder(
        n, name=f"randomft{n}x{gate_count}",
        initial_capacity=min(chunk_size, 1 << 20),
    )
    one_qubit_kinds = _RANDOM_FT_ONE_QUBIT
    for _ in range(gate_count):
        if rng.random() < cnot_fraction:
            control, target = rng.sample(range(n), 2)
            builder.cnot(control, target)
        else:
            builder.one_qubit(
                one_qubit_kinds[rng.randrange(len(one_qubit_kinds))],
                rng.randrange(n),
            )
        if len(builder) >= chunk_size:
            yield builder.finish()
            builder.clear_rows()
    builder.shrink_to_fit()
    yield builder.finish()


def stream_random_nct(
    n: int,
    gate_count: int,
    seed: int,
    toffoli_fraction: float = 0.3,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[GateTable]:
    """Chunked :func:`~repro.circuits.generators.random_reversible`."""
    from .._validation import require_positive_int

    require_positive_int(n, "n", CircuitError)
    if n < 3:
        raise CircuitError("random_reversible requires n >= 3")
    _require_chunk_size(chunk_size)
    rng = random.Random(seed)
    builder = TableBuilder(
        n, name=f"random{n}x{gate_count}",
        initial_capacity=min(chunk_size, 1 << 20),
    )
    for _ in range(gate_count):
        roll = rng.random()
        if roll < toffoli_fraction:
            c1, c2, tgt = rng.sample(range(n), 3)
            builder.toffoli(c1, c2, tgt)
        elif roll < toffoli_fraction + (1 - toffoli_fraction) / 2:
            c1, tgt = rng.sample(range(n), 2)
            builder.cnot(c1, tgt)
        else:
            builder.x(rng.randrange(n))
        if len(builder) >= chunk_size:
            yield builder.finish()
            builder.clear_rows()
    builder.shrink_to_fit()
    yield builder.finish()


def stream_read_real(
    source: TextIO | str | Path,
    name: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[GateTable]:
    """Chunked RevLib ``.real`` reader: the streaming twin of
    :func:`~repro.circuits.parser.read_real`.

    Directive handling, gate parsing and every :class:`ParseError` are
    identical (shared helpers); gate rows are just emitted every
    ``chunk_size`` lines instead of accumulating.  End-of-input errors
    (missing ``.begin``/``.end``) surface when the generator is
    exhausted.
    """
    _require_chunk_size(chunk_size)
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open("r", encoding="utf-8") as stream:
            yield from stream_read_real(
                stream, name=name or path.stem, chunk_size=chunk_size
            )
        return
    builder: TableBuilder | None = None
    declared_numvars: int | None = None
    variables: list[str] | None = None
    in_body = False
    ended = False
    circuit_name = name or "circuit"
    for line_number, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue  # blank or comment-only lines are fine anywhere
        if ended:
            raise ParseError("content after .end", line_number)
        lowered = line.lower()
        if lowered.startswith("."):
            tokens = line.split()
            directive = tokens[0].lower()
            if directive == ".numvars":
                if len(tokens) != 2:
                    raise ParseError(".numvars expects one argument", line_number)
                try:
                    declared_numvars = int(tokens[1])
                except ValueError:
                    raise ParseError(
                        f"invalid .numvars value {tokens[1]!r}", line_number
                    ) from None
                if declared_numvars <= 0:
                    raise ParseError(".numvars must be positive", line_number)
            elif directive == ".variables":
                variables = tokens[1:]
                if not variables:
                    raise ParseError(".variables expects qubit names", line_number)
            elif directive == ".begin":
                if declared_numvars is None and variables is None:
                    raise ParseError(
                        ".begin before .numvars/.variables", line_number
                    )
                if variables is None:
                    variables = [f"x{i}" for i in range(declared_numvars or 0)]
                if declared_numvars is not None and len(variables) != declared_numvars:
                    raise ParseError(
                        f".numvars is {declared_numvars} but .variables lists "
                        f"{len(variables)} names",
                        line_number,
                    )
                try:
                    builder = TableBuilder(
                        len(variables), name=circuit_name,
                        qubit_names=variables,
                        initial_capacity=min(chunk_size, 1 << 20),
                    )
                except CircuitError as error:
                    raise ParseError(str(error), line_number) from None
                in_body = True
            elif directive == ".end":
                if not in_body:
                    raise ParseError(".end before .begin", line_number)
                ended = True
            elif directive in (
                ".version",
                ".inputs",
                ".outputs",
                ".constants",
                ".garbage",
                ".inputbus",
                ".outputbus",
                ".define",
                ".module",
            ):
                continue  # metadata irrelevant to latency estimation
            else:
                raise ParseError(f"unknown directive {directive!r}", line_number)
            continue
        if not in_body:
            raise ParseError(f"gate line {line!r} before .begin", line_number)
        assert builder is not None
        _parse_real_gate(line, builder, line_number)
        if len(builder) >= chunk_size:
            yield builder.finish()
            builder.clear_rows()
    if builder is None:
        raise ParseError("no .begin section found")
    if in_body and not ended:
        raise ParseError("missing .end")
    builder.shrink_to_fit()
    yield builder.finish()


def stream_reads_real(
    text: str, name: str = "circuit", chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[GateTable]:
    """Chunked :func:`~repro.circuits.parser.reads_real` (string input)."""
    return stream_read_real(io.StringIO(text), name=name, chunk_size=chunk_size)


def stream_read_qasm_lite(
    source: TextIO | str | Path,
    name: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[GateTable]:
    """Chunked qasm-lite reader: streaming twin of
    :func:`~repro.circuits.parser.read_qasm_lite`.

    qasm-lite may declare qubits between gates, so mid-stream chunks can
    carry a smaller register than later ones; the final chunk (always
    emitted, even empty) carries the complete register.
    """
    _require_chunk_size(chunk_size)
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open("r", encoding="utf-8") as stream:
            yield from stream_read_qasm_lite(
                stream, name=name or path.stem, chunk_size=chunk_size
            )
        return
    builder = TableBuilder(
        0, name or "circuit", initial_capacity=min(chunk_size, 1 << 20)
    )
    for line_number, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        mnemonic = tokens[0].lower()
        if mnemonic == "qubits":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError("qubits expects a count", line_number)
            for _ in range(int(tokens[1])):
                builder.add_qubit()
            continue
        if mnemonic == "qubit":
            if len(tokens) != 2:
                raise ParseError("qubit expects one name", line_number)
            try:
                builder.add_qubit(tokens[1])
            except CircuitError as error:
                raise ParseError(str(error), line_number) from None
            continue
        try:
            kind = kind_from_name(mnemonic)
            operands = [builder.qubit_index(qname) for qname in tokens[1:]]
            _append_from_operands(builder, kind, operands)
        except CircuitError as error:
            raise ParseError(str(error), line_number) from None
        if len(builder) >= chunk_size:
            yield builder.finish()
            builder.clear_rows()
    builder.shrink_to_fit()
    yield builder.finish()


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
# Row spill files (pass-to-pass scratch for the out-of-core passes)
# ---------------------------------------------------------------------------

_Row = tuple[int, int, int, int, int, tuple[int, ...]]


def _write_row_batch(handle, rows: list[_Row]) -> None:
    """Append one batch of primitive rows to an open spill file."""
    kind = np.asarray([r[0] for r in rows], dtype=np.int8)
    c1 = np.asarray([r[1] for r in rows], dtype=np.int64)
    c2 = np.asarray([r[2] for r in rows], dtype=np.int64)
    t1 = np.asarray([r[3] for r in rows], dtype=np.int64)
    t2 = np.asarray([r[4] for r in rows], dtype=np.int64)
    counts = np.asarray([len(r[5]) for r in rows], dtype=np.int64)
    extra: list[int] = []
    for r in rows:
        extra.extend(r[5])
    for array in (kind, c1, c2, t1, t2, counts,
                  np.asarray(extra, dtype=np.int64)):
        np.save(handle, array, allow_pickle=False)


def _read_row_batches(
    handle,
) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield ``(kind, c1, c2, t1, t2, counts, extra)`` batches in order."""
    handle.seek(0)
    while True:
        try:
            kind = np.load(handle, allow_pickle=False)
        except (EOFError, ValueError):
            return
        arrays = [kind]
        for _ in range(6):
            arrays.append(np.load(handle, allow_pickle=False))
        yield tuple(arrays)


def _rows_of_batch(batch: tuple[np.ndarray, ...]) -> Iterator[_Row]:
    kind, c1, c2, t1, t2, counts, extra = batch
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    extra_list = extra.tolist()
    count_list = counts.tolist()
    offset_list = offsets.tolist()
    for i, row in enumerate(
        zip(kind.tolist(), c1.tolist(), c2.tolist(), t1.tolist(), t2.tolist())
    ):
        if count_list[i]:
            yield (*row, tuple(extra_list[offset_list[i] : offset_list[i + 1]]))
        else:
            yield (*row, ())


def _rows_of_table(table: GateTable) -> Iterator[_Row]:
    """One chunk's rows as the primitive tuples the peephole scan eats
    (same extraction as :func:`~repro.circuits.table.optimize_table`)."""
    extra_counts = table.extra_counts()
    sparse = np.nonzero(extra_counts)[0]
    extra_rows: dict[int, tuple[int, ...]] = {}
    for row in sparse.tolist():
        lo, hi = table.extra_indptr[row], table.extra_indptr[row + 1]
        extra_rows[row] = tuple(table.extra[lo:hi].tolist())
    for i, (code, c1, c2, t1, t2) in enumerate(
        zip(
            table.kind.tolist(),
            table.ctrl.tolist(),
            table.ctrl2.tolist(),
            table.target.tolist(),
            table.target2.tolist(),
        )
    ):
        yield (code, c1, c2, t1, t2, extra_rows.get(i, ()))


def _batch_to_table(
    batch: tuple[np.ndarray, ...], qubit_names: tuple[str, ...], name: str
) -> GateTable:
    kind, c1, c2, t1, t2, counts, extra = batch
    extra_indptr = np.zeros(len(kind) + 1, dtype=np.int64)
    if extra.size:
        np.cumsum(counts, out=extra_indptr[1:])
    return GateTable(
        kind=kind,
        ctrl=c1,
        ctrl2=c2,
        target=t1,
        target2=t2,
        extra_indptr=extra_indptr,
        extra=extra,
        qubit_names=qubit_names,
        name=name,
    )


# ---------------------------------------------------------------------------
# Peephole optimization as an out-of-core multi-pass scan
# ---------------------------------------------------------------------------

#: Appended rows between frontier recomputations in the streaming scan.
_SCAN_FLUSH_EVERY = 4096


def _scan_stream(
    rows: Iterator[_Row], emit: Callable[[list[_Row]], None]
) -> int:
    """One cancellation/fusion pass over a row stream, bounded window.

    Identical decisions to :func:`~repro.circuits.table._scan_once`:
    only rows still reachable through ``last_on_qubit`` can be cancelled
    or fused, so everything below ``min(last_on_qubit.values())`` is
    frozen and flushed to ``emit`` in order.  The frontier is
    recomputed every :data:`_SCAN_FLUSH_EVERY` appends (an O(num_qubits)
    ``min``), keeping the pending window a few thousand rows for
    circuits whose qubits stay active.
    """
    pending: dict[int, _Row] = {}
    last_on_qubit: dict[int, int] = {}
    next_index = 0
    next_flush = 0
    since_flush = 0
    rewrites = 0

    def flush(frontier: int) -> None:
        nonlocal next_flush
        if frontier <= next_flush:
            return
        batch = []
        for index in range(next_flush, frontier):
            row = pending.pop(index, None)
            if row is not None:
                batch.append(row)
        next_flush = frontier
        if batch:
            emit(batch)

    for row in rows:
        code, c1, c2, t1, t2, extra = row
        qubits = [t1]
        if c1 >= 0:
            qubits.append(c1)
        if c2 >= 0:
            qubits.append(c2)
        qubits.extend(extra)
        if t2 >= 0:
            qubits.append(t2)
        previous = {last_on_qubit.get(q) for q in qubits}
        candidate_index = previous.pop() if len(previous) == 1 else None
        candidate = (
            pending.get(candidate_index)
            if candidate_index is not None
            else None
        )
        if candidate is not None:
            ccode = candidate[0]
            same_operands = candidate[1:] == row[1:]
            if same_operands and (
                (ccode == code and ccode in _SELF_INVERSE_CODES)
                or _INVERSE_OF.get(ccode) == code
            ):
                del pending[candidate_index]
                for qubit in qubits:
                    del last_on_qubit[qubit]
                rewrites += 1
                continue
            if same_operands and ccode == code:
                fused = _PHASE_FUSION_CODES.get(code)
                if fused is not None:
                    pending[candidate_index] = (fused, -1, -1, t1, -1, ())
                    rewrites += 1
                    continue
        pending[next_index] = row
        for qubit in qubits:
            last_on_qubit[qubit] = next_index
        next_index += 1
        since_flush += 1
        if since_flush >= _SCAN_FLUSH_EVERY:
            since_flush = 0
            flush(min(last_on_qubit.values(), default=next_index))
    flush(next_index)
    return rewrites


def optimize_stream(
    chunks: Iterable[GateTable],
    max_passes: int = 100,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    profile: StreamProfile | None = None,
) -> Iterator[GateTable]:
    """Out-of-core :func:`~repro.circuits.table.optimize_table`.

    Each fixed-point iteration streams the rows once — the first from
    the incoming chunks, later ones from a temporary spill file — and
    writes survivors to a fresh spill, so peak memory is the scan window
    plus one batch regardless of circuit size.  Converges (or raises
    the same non-convergence error) exactly like the materialized pass.
    """
    _require_chunk_size(chunk_size)
    if max_passes < 1:
        raise CircuitError(f"max_passes must be >= 1, got {max_passes}")
    with tempfile.TemporaryDirectory(prefix="repro-peephole-") as tmp:
        tmpdir = Path(tmp)
        register: tuple[str, ...] = ()
        name = "circuit"

        def rows_from_input() -> Iterator[_Row]:
            nonlocal register, name
            for table in chunks:
                # The timing straddles ``yield from`` (consumer pull time
                # included, matching the materialized pass), so the span
                # is recorded post-hoc rather than as a context manager —
                # a live span across a yield would misattribute nesting.
                tick = time.perf_counter()
                register = table.qubit_names
                name = table.name
                yield from _rows_of_table(table)
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

        source_rows: Iterator[_Row] = rows_from_input()
        spill_path: Path | None = None
        for pass_number in range(max_passes):
            out_path = tmpdir / f"pass{pass_number}.npy"
            with out_path.open("wb") as sink:
                buffered: list[_Row] = []

                def emit(batch: list[_Row]) -> None:
                    buffered.extend(batch)
                    if len(buffered) >= chunk_size:
                        _write_row_batch(sink, buffered)
                        buffered.clear()

                rewrites = _scan_stream(source_rows, emit)
                if buffered:
                    _write_row_batch(sink, buffered)
            if spill_path is not None:
                spill_path.unlink()
            spill_path = out_path
            if rewrites == 0:
                break

            def rows_from_spill(path: Path = spill_path) -> Iterator[_Row]:
                with path.open("rb") as handle:
                    for batch in _read_row_batches(handle):
                        yield from _rows_of_batch(batch)

            source_rows = rows_from_spill()
        else:
            raise CircuitError("peephole optimization did not converge")
        assert spill_path is not None
        emitted = False
        with spill_path.open("rb") as handle:
            # Re-chunk the surviving rows to the requested chunk size.
            carry: list[tuple[np.ndarray, ...]] = []
            carry_rows = 0
            for batch in _read_row_batches(handle):
                carry.append(batch)
                carry_rows += len(batch[0])
                while carry_rows >= chunk_size:
                    merged = _merge_batches(carry)
                    head = _slice_batch(merged, 0, chunk_size)
                    rest_rows = len(merged[0]) - chunk_size
                    carry = (
                        [_slice_batch(merged, chunk_size, len(merged[0]))]
                        if rest_rows
                        else []
                    )
                    carry_rows = rest_rows
                    emitted = True
                    yield _batch_to_table(head, register, name)
            if carry_rows or not emitted:
                merged = _merge_batches(carry) if carry else _empty_batch()
                yield _batch_to_table(merged, register, name)


def _empty_batch() -> tuple[np.ndarray, ...]:
    return (
        np.empty(0, dtype=np.int8),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )


def _merge_batches(
    batches: list[tuple[np.ndarray, ...]],
) -> tuple[np.ndarray, ...]:
    if len(batches) == 1:
        return batches[0]
    return tuple(
        np.concatenate([batch[i] for batch in batches])
        for i in range(7)
    )


def _slice_batch(
    batch: tuple[np.ndarray, ...], lo: int, hi: int
) -> tuple[np.ndarray, ...]:
    kind, c1, c2, t1, t2, counts, extra = batch
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return (
        kind[lo:hi], c1[lo:hi], c2[lo:hi], t1[lo:hi], t2[lo:hi],
        counts[lo:hi], extra[offsets[lo] : offsets[hi]],
    )


# ---------------------------------------------------------------------------
# Incremental IIG accumulation
# ---------------------------------------------------------------------------


class IIGAccumulator:
    """Chunk-wise interaction pair counting.

    Per chunk, two-qubit rows are pair-counted with the same
    ``np.unique`` + first-occurrence ``lexsort`` as
    :func:`repro.qodg.iig._build_iig_from_table`; updating the adjacency
    dicts in that per-chunk order appends each row's *new* neighbours in
    first-interaction order, so the finished graph's CSR view is
    bitwise-identical to the one-shot construction — including the
    neighbour ordering the estimator's weighted sums depend on.
    """

    def __init__(self) -> None:
        self._adjacency: list[dict[int, int]] = []
        self._total_weight = 0

    def update(self, table: GateTable) -> None:
        """Fold one chunk's two-qubit interactions into the counts."""
        num_qubits = table.num_qubits
        while len(self._adjacency) < num_qubits:
            self._adjacency.append({})
        mask = table.arities() == 2
        total = int(mask.sum())
        if not total:
            return
        has_ctrl = table.ctrl[mask] >= 0
        qa = np.where(has_ctrl, table.ctrl[mask], table.target[mask])
        qb = np.where(has_ctrl, table.target[mask], table.target2[mask])
        u = np.empty(total * 2, dtype=np.int64)
        v = np.empty(total * 2, dtype=np.int64)
        u[0::2] = qa
        u[1::2] = qb
        v[0::2] = qb
        v[1::2] = qa
        keys = u * num_qubits + v
        unique_keys, first_idx, counts = np.unique(
            keys, return_index=True, return_counts=True
        )
        sources = unique_keys // num_qubits
        order = np.lexsort((first_idx, sources))
        adjacency = self._adjacency
        for src, dst, weight in zip(
            sources[order].tolist(),
            (unique_keys % num_qubits)[order].tolist(),
            counts[order].tolist(),
        ):
            row = adjacency[src]
            row[dst] = row.get(dst, 0) + weight
        self._total_weight += total

    def finish(self, num_qubits: int | None = None) -> "IIG":
        """The accumulated graph as an :class:`~repro.qodg.iig.IIG`."""
        from ..qodg.iig import IIG

        count = max(len(self._adjacency), num_qubits or 0)
        iig = IIG(count)
        while len(self._adjacency) < count:
            self._adjacency.append({})
        iig._adjacency = self._adjacency
        iig._total_weight = self._total_weight
        iig._version += 1
        return iig


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


class _StreamCircuit:
    """Register-and-identity shim standing in for a Circuit in the
    pipeline's stage methods (which read ``num_qubits``, ``__len__`` and
    ``content_fingerprint`` only)."""

    def __init__(self, num_qubits: int, op_count: int, name: str) -> None:
        self.num_qubits = num_qubits
        self.name = name
        self._op_count = op_count

    def __len__(self) -> int:
        return self._op_count

    def content_fingerprint(self) -> str:
        # estimate_stream always runs the pipeline cache-less, so stage
        # keys are computed but never used; a stable placeholder avoids
        # hashing the (already consumed) stream a second time.
        return f"stream:{self.name}:{self.num_qubits}:{self._op_count}"


def estimate_stream(
    chunks: Iterable[GateTable],
    params: "PhysicalParams",
    profile: StreamProfile | None = None,
    **options: object,
) -> "LatencyEstimate":
    """LEQA over a chunk stream in bounded memory.

    Two passes: the first consumes the chunks once, accumulating the
    IIG incrementally and spilling the critical-path columns
    ``(kind, o0, o1)`` to temporary files; the model stages (zones,
    uncongested latency, queueing) then run on the accumulated arrays
    through the *same* :class:`~repro.core.pipeline.StagedPipeline`
    stage methods as the materialized path, and the second pass replays
    the spilled columns chunk by chunk through
    :func:`~repro.qodg.sweep.critical_path_chunk` with one carry — the
    recurrence :func:`~repro.qodg.sweep.sweep_critical_path` runs as a
    single chunk — then :func:`~repro.qodg.sweep.backtrack` walks the
    spilled predecessors.  Every field of the returned
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
        If a gate outside the FT set is encountered (same message as the
        materialized path).
    """
    from ..core.estimator import LatencyEstimate
    from ..core.pipeline import (
        StagedPipeline,
        _node_delay_table,
        _not_ft_error,
    )
    from ..qodg.critical_path import kind_delay_lut
    from ..qodg.sweep import CriticalPathCarry, backtrack, critical_path_chunk

    started = time.perf_counter()
    pipeline = StagedPipeline(cache=None, **options)
    accumulator = IIGAccumulator()
    num_qubits = 0
    op_count = 0
    name = "circuit"
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
                    num_qubits = table.num_qubits
                    op_count += len(table)
                    name = table.name
                    accumulator.update(table)
                    o0, o1 = table.operand_pairs()
                    np.save(ops_file, table.kind, allow_pickle=False)
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
        iig = accumulator.finish(num_qubits)
        shim = _StreamCircuit(num_qubits, op_count, name)
        zones = pipeline._zones_stage(shim, iig)
        d_uncong = pipeline._uncong_stage(shim, zones, params)
        l_avg_cnot, surfaces = pipeline._queueing_stage(
            shim, zones, d_uncong, params
        )
        lut = kind_delay_lut(_node_delay_table(params, l_avg_cnot))
        # Pass 2: the spilled columns through the critical-path
        # recurrence, one chunk at a time with one carry.
        carry = CriticalPathCarry(num_qubits)
        with ops_path.open("rb") as ops_file, \
                preds_path.open("wb") as preds_file:
            for rows in chunk_rows:
                with obs_span(
                    "stream.critical",
                    metric="stream.stage.seconds",
                    stage="critical",
                ) as sp:
                    codes = np.load(ops_file, allow_pickle=False)
                    o0 = np.load(ops_file, allow_pickle=False)
                    o1 = np.load(ops_file, allow_pickle=False)
                    delays = lut[codes]
                    missing = np.isnan(delays)
                    if missing.any():
                        raise _not_ft_error(
                            KINDS_BY_CODE[int(codes[np.argmax(missing)])]
                        )
                    preds = critical_path_chunk(
                        o0.tolist(), o1.tolist(), delays.tolist(), carry
                    )
                    preds_file.write(
                        np.asarray(preds, dtype=np.int64).tobytes()
                    )
                    sp.annotate(rows=rows)
                _obs_registry().inc("stream.rows", rows, stage="critical")
                if profile is not None:
                    profile.add("critical", rows, sp.seconds)
        # Backtrack through the spilled predecessor/kind columns; the
        # memoryview hands out Python ints.  (An empty file cannot be
        # mapped, and an empty stream has no path to walk.)
        if op_count:
            preds = memoryview(
                np.memmap(preds_path, dtype=np.int64, mode="r")
            )
            codes = np.memmap(kinds_path, dtype=np.int8, mode="r")
        else:
            preds, codes = [], np.empty(0, dtype=np.int8)
        result = backtrack(carry, preds, codes)
        del preds, codes
    elapsed = time.perf_counter() - started
    return LatencyEstimate(
        latency=result.length,
        l_avg_cnot=l_avg_cnot,
        l_avg_one_qubit=params.one_qubit_routing_latency,
        d_uncong=d_uncong,
        average_zone_area=zones.average_area,
        coverage_surfaces=surfaces,
        critical=result,
        qubit_count=num_qubits,
        op_count=op_count,
        elapsed_seconds=elapsed,
    )
