"""Loader for the repository's compiled kernels.

``_kernel.c`` holds five entries in one shared object: the scheduler
(``engine="kernel"``, :func:`schedule_arrays`), a statement-for-statement
C translation of the array scheduling loop; the critical-path recurrence
of Eq. 1 (:mod:`repro.qodg.sweep`; :func:`critical_chunk`,
:func:`critical_walk`, :func:`critical_lengths`); the peephole scan
(:mod:`repro.circuits.table`; :func:`peephole_chunk`, threading a
:class:`PeepholeCarry` from chunk to chunk); the IIG pair count
(:mod:`repro.qodg.iig`; :class:`PairCounter`); and the greedy spiral
placement (:mod:`repro.qspr.placement`; :func:`place_iig_greedy`).
This module builds the source with the system C compiler on first use
and caches the ``.so`` keyed by a hash of the source (so a source change
or a repo move never loads a stale binary).

No third-party build machinery: a single ``cc -O2 -shared`` invocation,
with ``-ffp-contract=off`` so no fused-multiply-add changes a rounding —
each entry's contract is *bitwise* identity with its Python
counterpart.  Everything degrades loudly but gracefully: when no
compiler exists (or the compile fails), :func:`load` raises; the
scheduler then falls back to its array engine, and :func:`select` hands
every other caller its Python fallback, with a :class:`RuntimeWarning`
and one ``kernel.fallbacks{entry}`` count.

The cache directory is ``$REPRO_KERNEL_CACHE`` when set, else
``~/.cache/leqa-kernel``.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

from ..obs import default_registry

__all__ = [
    "available",
    "critical_chunk",
    "critical_lengths",
    "critical_walk",
    "kernel_cache_dir",
    "load",
    "PairCounter",
    "PeepholeCarry",
    "peephole_chunk",
    "place_iig_greedy",
    "schedule_arrays",
    "select",
]

_SOURCE = Path(__file__).with_name("_kernel.c")

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_lib: ctypes.CDLL | None = None
_load_error: Exception | None = None


def kernel_cache_dir() -> Path:
    """Directory holding compiled kernel binaries."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "leqa-kernel"


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _build(so_path: Path) -> None:
    compiler = _compiler()
    if compiler is None:
        raise RuntimeError(
            "no C compiler found (tried cc, gcc, clang); the kernel "
            "engine needs one to build its shared object"
        )
    so_path.parent.mkdir(parents=True, exist_ok=True)
    # Compile to a unique temp name, then atomically publish: concurrent
    # processes race benignly (last rename wins, same bytes).
    fd, tmp_name = tempfile.mkstemp(
        suffix=".so", prefix="leqa-kernel-", dir=so_path.parent
    )
    os.close(fd)
    try:
        result = subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp_name, str(_SOURCE)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"kernel compile failed ({compiler}): "
                f"{result.stderr.strip() or result.stdout.strip()}"
            )
        os.replace(tmp_name, so_path)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)


def load() -> ctypes.CDLL:
    """The compiled kernel, building and caching it on first use.

    Raises
    ------
    RuntimeError
        If the source is missing, no compiler is available, or the
        compile/load fails.  The error is cached: repeated calls fail
        fast instead of re-running the compiler.
    """
    global _lib, _load_error
    if _lib is not None:
        return _lib
    if _load_error is not None:
        raise _load_error
    try:
        source_bytes = _SOURCE.read_bytes()
        digest = hashlib.blake2b(source_bytes, digest_size=16).hexdigest()
        so_path = kernel_cache_dir() / f"kernel-{digest}.so"
        if not so_path.exists():
            _build(so_path)
        lib = ctypes.CDLL(str(so_path))
        i64, ptr = ctypes.c_longlong, ctypes.c_void_p
        # Every entry returns an int status except the backtrack.
        for entry in (
            "leqa_schedule", "leqa_critical_chunk", "leqa_critical_lengths",
            "leqa_peephole_chunk", "leqa_iig_count", "leqa_place_iig_greedy",
        ):
            getattr(lib, entry).restype = ctypes.c_int
        # num_ops, num_qubits; op_q0, op_q1, op_delay, visit_order; width,
        # height, capacity, t_move, mode_xy; qloc (in/out), finish_times,
        # stats_i (5) and stats_d (1) (out).
        lib.leqa_schedule.argtypes = (
            [i64, i64] + [ptr] * 4 + [i64] * 3 + [ctypes.c_double, i64]
            + [ptr] * 4
        )
        # n, num_qubits, num_kinds, kinds, o0, o1, lut, then the carry
        # (dist, last, best, nodes; in/out) and preds (out).
        lib.leqa_critical_chunk.argtypes = [i64, i64, i64] + [ptr] * 9
        # node, preds, n, path, length.
        lib.leqa_critical_backtrack.restype = i64
        lib.leqa_critical_backtrack.argtypes = [i64, ptr, i64, ptr, i64]
        # n, num_qubits, num_kinds, points, kinds, o0, o1, matrix, out.
        lib.leqa_critical_lengths.argtypes = [i64] * 4 + [ptr] * 5
        # n, num_qubits, num_kinds, extra_len, window_cap, extra_cap,
        # flush_every, final; the chunk's seven columns; the two rule
        # tables; the carry (window, extras, last_on_qubit, state; in/out);
        # the seven output columns and their counts (out).
        lib.leqa_peephole_chunk.argtypes = [i64] * 8 + [ptr] * 21
        # n, num_qubits; the chunk's five operand columns; keys, counts,
        # their capacity, slots, theirs, state (in/out).
        lib.leqa_iig_count.argtypes = (
            [i64, i64] + [ptr] * 7 + [i64, ptr, i64, ptr]
        )
        # num_qubits, entries; the IIG's CSR rows and weight sums; width,
        # height; the columns and rows placed (out).
        lib.leqa_place_iig_greedy.argtypes = (
            [i64, i64] + [ptr] * 4 + [i64, i64, ptr, ptr]
        )
    except Exception as error:
        _load_error = (
            error
            if isinstance(error, RuntimeError)
            else RuntimeError(str(error))
        )
        raise _load_error from None
    _lib = lib
    return lib


def available() -> bool:
    """Whether the compiled kernel can be (or already was) loaded."""
    try:
        load()
    except RuntimeError:
        return False
    return True


def select(entry: str, native, fallback, warning: str):
    """``native`` when the shared object loads, else ``fallback`` — with
    a :class:`RuntimeWarning` (``warning`` formatted with the load
    ``error``) and one ``kernel.fallbacks{entry}`` count."""
    try:
        load()
    except RuntimeError as error:
        warnings.warn(
            warning.format(error=error), RuntimeWarning, stacklevel=4
        )
        default_registry().inc("kernel.fallbacks", entry=entry)
        return fallback
    return native


def schedule_arrays(
    q0: np.ndarray,
    q1: np.ndarray,
    delays: np.ndarray,
    visit_order: np.ndarray,
    num_qubits: int,
    width: int,
    height: int,
    capacity: int,
    t_move: float,
    mode: str,
    initial_locations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int, int, int], float]:
    """Run the compiled scheduling loop over compiled-op arrays.

    Returns ``(finish_times, final_locations, stats_ints, total_wait)``
    where ``stats_ints`` is ``(total_moves, total_hops, relocations,
    cnot_count, one_qubit_count)`` and locations are flat ULB ids.

    Raises
    ------
    RuntimeError
        If the kernel is unavailable or reports a failure.
    """
    lib = load()
    num_ops = len(delays)
    q0 = np.ascontiguousarray(q0, dtype=np.int64)
    q1 = np.ascontiguousarray(q1, dtype=np.int64)
    delays = np.ascontiguousarray(delays, dtype=np.float64)
    visit_order = np.ascontiguousarray(visit_order, dtype=np.int64)
    # Always copy: the kernel updates locations in place and the caller's
    # array must stay untouched.
    qloc = np.array(initial_locations, dtype=np.int64)
    finish_times = np.zeros(num_ops, dtype=np.float64)
    stats_i = np.zeros(5, dtype=np.int64)
    stats_d = np.zeros(1, dtype=np.float64)
    status = lib.leqa_schedule(
        num_ops, num_qubits, q0.ctypes.data, q1.ctypes.data,
        delays.ctypes.data, visit_order.ctypes.data, width, height, capacity,
        t_move, 1 if mode == "xy" else 0, qloc.ctypes.data,
        finish_times.ctypes.data, stats_i.ctypes.data, stats_d.ctypes.data,
    )
    if status != 0:
        raise RuntimeError(f"scheduler kernel failed with status {status}")
    return finish_times, qloc, tuple(stats_i.tolist()), float(stats_d[0])


def _columns(kinds, o0, o1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gate columns as the C entries read them; value bounds are
    checked in C, before any state is written."""
    kinds = np.ascontiguousarray(kinds, dtype=np.int8)
    o0 = np.ascontiguousarray(o0, dtype=np.int64)
    o1 = np.ascontiguousarray(o1, dtype=np.int64)
    if {kinds.ndim, o0.ndim, o1.ndim} != {1} or not (
        len(kinds) == len(o0) == len(o1)
    ):
        raise ValueError("kind and operand columns differ in shape")
    return kinds, o0, o1


def _in_place(array, dtype, ndim: int = 1) -> bool:
    """Whether a C entry can write ``array`` in place: carries are
    checked, not converted."""
    return (
        isinstance(array, np.ndarray)
        and array.dtype == dtype
        and array.ndim == ndim
        and array.flags.c_contiguous
        and array.flags.writeable
    )


def _require_carry(carry) -> None:
    size = len(carry.qubit_dist)
    fields = (
        (carry.qubit_dist, np.float64, size),
        (carry.qubit_last, np.int64, size),
        (carry.best_length, np.float64, 1),
        (carry.nodes, np.int64, 2),
    )
    if not all(_in_place(a, dtype) and len(a) == n for a, dtype, n in fields):
        raise ValueError("malformed critical-path carry")


#: Why the critical-path entries reject their input, by status.
_CRITICAL_ERRORS = {
    1: "kind code outside the delay table",
    2: "operand outside the carry's qubits",
}


def _check(status: int, entry: str, errors=_CRITICAL_ERRORS) -> None:
    """A C status as the error it reports: ``errors[status]`` as a
    :class:`ValueError` (input rejected before any state was written),
    any other non-zero status as a :class:`RuntimeError`."""
    if status in errors:
        raise ValueError(f"{entry}: {errors[status]}")
    if status:
        raise RuntimeError(f"{entry} kernel failed with status {status}")


def critical_chunk(kinds, o0, o1, lut: np.ndarray, carry) -> np.ndarray:
    """:func:`repro.qodg.sweep.critical_path_chunk`, compiled.

    Same arguments, same in-place carry update and the same
    predecessors (an int64 array), bitwise.

    Raises
    ------
    RuntimeError
        If the kernel is unavailable.
    ValueError
        If the columns differ in length, ``lut`` is not 1-D, the carry
        is malformed, or a kind code or operand is out of range (the
        carry is left untouched).
    """
    lib = load()
    kinds, o0, o1 = _columns(kinds, o0, o1)
    lut = np.ascontiguousarray(lut, dtype=np.float64)
    if lut.ndim != 1:
        raise ValueError(f"delay table must be 1-D, got {lut.shape}")
    _require_carry(carry)
    preds = np.empty(len(kinds), dtype=np.int64)
    _check(
        lib.leqa_critical_chunk(
            len(kinds), len(carry.qubit_dist), len(lut),
            kinds.ctypes.data, o0.ctypes.data, o1.ctypes.data,
            lut.ctypes.data, carry.qubit_dist.ctypes.data,
            carry.qubit_last.ctypes.data, carry.best_length.ctypes.data,
            carry.nodes.ctypes.data, preds.ctypes.data,
        ),
        "critical-path chunk",
    )
    return preds


def critical_walk(node: int, preds: np.ndarray) -> np.ndarray:
    """:func:`repro.qodg.sweep.walk_path`, compiled: the chain ending at
    ``node``, in execution order, through the int64 predecessor column
    ``preds`` (an array or a memory map of a spilled one).

    Raises
    ------
    RuntimeError
        If the kernel is unavailable or ``preds`` is not a chain.
    """
    lib = load()
    preds = np.ascontiguousarray(preds, dtype=np.int64)
    length = lib.leqa_critical_backtrack(
        node, preds.ctypes.data, len(preds), None, 0
    )
    if length < 0:
        raise RuntimeError("critical-path backtrack left the predecessors")
    path = np.empty(length, dtype=np.int64)
    lib.leqa_critical_backtrack(
        node, preds.ctypes.data, len(preds), path.ctypes.data, length
    )
    return path


def critical_lengths(
    kinds, o0, o1, matrix: np.ndarray, num_qubits: int
) -> np.ndarray:
    """Critical-path lengths under every column of the ``(kinds,
    points)`` delay ``matrix``; entry ``p`` is bitwise the ``best`` of a
    one-chunk :func:`critical_chunk` under column ``p``.

    Raises
    ------
    RuntimeError
        If the kernel is unavailable.
    ValueError
        If the columns differ in length, ``matrix`` is not 2-D, or a
        kind code or operand is out of range.
    """
    lib = load()
    kinds, o0, o1 = _columns(kinds, o0, o1)
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"delay matrix must be 2-D, got {matrix.shape}")
    out = np.empty(matrix.shape[1], dtype=np.float64)
    _check(
        lib.leqa_critical_lengths(
            len(kinds), num_qubits, matrix.shape[0], matrix.shape[1],
            kinds.ctypes.data, o0.ctypes.data, o1.ctypes.data,
            matrix.ctypes.data, out.ctypes.data,
        ),
        "batched critical-path",
    )
    return out


#: Columns of one peephole window row, in the C layout (``W_*`` in
#: ``_kernel.c``): kind, ctrl, ctrl2, target, target2, the row's extras
#: as a ``[lo, hi)`` range of the window's extra buffer, cancelled flag.
_WINDOW_COLUMNS = 8

#: The table columns the peephole scan reads and writes, in order.
_TABLE_COLUMNS = ("ctrl", "ctrl2", "target", "target2", "extra_indptr", "extra")


class PeepholeCarry:
    """Scan state of the compiled peephole pass between chunks.

    ``window`` holds the rows not yet emitted (``state[0]`` of its
    ``(capacity, 8)`` rows are in use, each with a cancelled flag) and
    ``window_extra`` their extra controls (``state[1]`` in use);
    ``last_on_qubit`` indexes each qubit's last row in the window
    (``-1`` = absent); ``state[2]`` is the window index of the next
    frontier recomputation and ``state[3]`` the rewrite count.  All are
    numpy arrays the C entry updates in place; :func:`peephole_chunk`
    grows the first three (capacity only, never the contents) when a
    chunk needs more room or the register grows.
    """

    __slots__ = ("window", "window_extra", "last_on_qubit", "state")

    def __init__(self, flush_every: int) -> None:
        self.window = np.zeros((0, _WINDOW_COLUMNS), dtype=np.int64)
        self.window_extra = np.zeros(0, dtype=np.int64)
        self.last_on_qubit = np.zeros(0, dtype=np.int64)
        self.state = np.array([0, 0, flush_every, 0], dtype=np.int64)

    @property
    def rewrites(self) -> int:
        """Cancellations plus fusions so far."""
        return int(self.state[3])


def _require_peephole_carry(carry: PeepholeCarry) -> None:
    fields = (
        (carry.window, 2),
        (carry.window_extra, 1),
        (carry.last_on_qubit, 1),
        (carry.state, 1),
    )
    if not (
        all(_in_place(array, np.int64, ndim) for array, ndim in fields)
        and carry.window.shape[1] == _WINDOW_COLUMNS
        and carry.state.shape == (4,)
    ):
        raise ValueError("malformed peephole carry")
    rows, extras = carry.state[:2].tolist()
    if not (
        0 <= rows <= len(carry.window)
        and 0 <= extras <= len(carry.window_extra)
    ):
        raise ValueError("malformed peephole carry")


def _table_columns(table) -> list[np.ndarray]:
    """A :class:`~repro.circuits.table.GateTable` chunk's
    :data:`_TABLE_COLUMNS` as the C entries read them; value bounds are
    checked in C, before any state is written."""
    columns = [
        np.ascontiguousarray(getattr(table, column), dtype=np.int64)
        for column in _TABLE_COLUMNS
    ]
    n = len(table.kind)
    ndims = {np.ndim(table.kind), *(array.ndim for array in columns)}
    if ndims != {1} or not (
        all(len(array) == n for array in columns[:4])
        and len(columns[4]) == n + 1
    ):
        raise ValueError("table columns differ in shape")
    return columns


def _with_room(array: np.ndarray, used: int, needed: int, fill: int = 0):
    """``array`` itself when it has ``needed`` rows, else its first
    ``used`` rows copied into a buffer of exactly ``needed`` rows, the
    rest ``fill`` (no slack: the window's peak, not its growth, sets the
    scan's memory)."""
    if len(array) >= needed:
        return array
    grown = np.full((needed, *array.shape[1:]), fill, dtype=np.int64)
    grown[:used] = array[:used]
    return grown


def peephole_chunk(
    table, rules: np.ndarray, carry: PeepholeCarry, flush_every: int,
    final: bool = False,
) -> tuple[np.ndarray, ...]:
    """One chunk of :func:`repro.circuits.table._scan_stream`, compiled.

    ``table`` is a :class:`~repro.circuits.table.GateTable` chunk (its
    register sizes ``last_on_qubit``), ``rules`` the ``(2, kinds)``
    table of the kind each kind cancels with and fuses into (``-1`` =
    none), and ``flush_every`` the appends between frontier
    recomputations.  Updates ``carry`` and returns the rows this chunk
    froze — every row left in the window when ``final`` is set — as the
    columns ``(kind, ctrl, ctrl2, target, target2, extra_indptr,
    extra)``, with the same decisions as the Python scan, row for row.

    Raises
    ------
    RuntimeError
        If the kernel is unavailable.
    ValueError
        If the columns differ in length, the rule table or the carry is
        malformed, or a kind code, operand or extras offset is out of
        range (the carry is left untouched).
    """
    lib = load()
    kind = np.ascontiguousarray(table.kind, dtype=np.int8)
    ctrl, ctrl2, target, target2, indptr, extra = _table_columns(table)
    n = len(kind)
    rules = np.ascontiguousarray(rules, dtype=np.int64)
    if rules.ndim != 2 or rules.shape[0] != 2:
        raise ValueError(f"rule table must be (2, kinds), got {rules.shape}")
    _require_peephole_carry(carry)
    rows, extras = carry.state[:2].tolist()
    chunk_extras = max(int(indptr[-1] - indptr[0]), 0)
    # Grown into new buffers, adopted only once the C entry accepts the
    # chunk, so a rejected chunk leaves the carry as it was.
    window = _with_room(carry.window, rows, rows + n)
    window_extra = _with_room(
        carry.window_extra, extras, extras + chunk_extras
    )
    last = _with_room(
        carry.last_on_qubit, len(carry.last_on_qubit), table.num_qubits, -1
    )
    out_kind = np.empty(rows + n, dtype=np.int8)
    out = [np.empty(rows + n, dtype=np.int64) for _ in range(4)]
    out_indptr = np.empty(rows + n + 1, dtype=np.int64)
    out_extra = np.empty(extras + chunk_extras, dtype=np.int64)
    counts = np.zeros(2, dtype=np.int64)
    status = lib.leqa_peephole_chunk(
        n, len(last), rules.shape[1], len(extra), len(window),
        len(window_extra), flush_every, 1 if final else 0,
        kind.ctypes.data, ctrl.ctypes.data, ctrl2.ctypes.data,
        target.ctypes.data, target2.ctypes.data, indptr.ctypes.data,
        extra.ctypes.data, rules[0].ctypes.data, rules[1].ctypes.data,
        window.ctypes.data, window_extra.ctypes.data, last.ctypes.data,
        carry.state.ctypes.data, out_kind.ctypes.data,
        *(column.ctypes.data for column in out), out_indptr.ctypes.data,
        out_extra.ctypes.data, counts.ctypes.data,
    )
    _check(status, "peephole chunk", {
        1: "kind code outside the rule table",
        2: "operand outside the register",
        4: "extras offsets outside the chunk",
    })
    carry.window, carry.window_extra, carry.last_on_qubit = (
        window, window_extra, last
    )
    emitted, emitted_extras = counts.tolist()
    return (
        out_kind[:emitted],
        *(column[:emitted] for column in out),
        out_indptr[:emitted + 1],
        out_extra[:emitted_extras],
    )


class PairCounter:
    """The pair count of :class:`~repro.qodg.iig.IIGAccumulator`,
    compiled: each chunk's two-qubit rows count their directed keys
    ``a << 32 | b`` and ``b << 32 | a`` in one hashed pass, and
    :meth:`pairs` hands out the keys and their counts.

    ``keys``/``counts`` hold ``state[0]`` keys in first-interaction
    order, each pair's two directions side by side, and ``slots`` hashes
    the pairs among the first ``state[1]`` of them; the C entry updates
    them in place.
    """

    __slots__ = ("keys", "counts", "slots", "state")

    def __init__(self) -> None:
        self.keys = self.counts = self.slots = np.zeros(0, dtype=np.int64)
        self.state = np.zeros(2, dtype=np.int64)

    def update(self, table) -> None:
        """Count one :class:`~repro.circuits.table.GateTable` chunk;
        :class:`ValueError` for columns of unequal length, an operand
        outside its register or a repeated one leaves the counts
        untouched."""
        lib = load()
        columns = [array.ctypes.data for array in _table_columns(table)[:5]]
        n = len(table.kind)
        keys, counts, slots, state = (
            self.keys, self.counts, self.slots, self.state
        )
        size = int(state[0])
        # At most two new keys a row, each a pair of this chunk's
        # register; the keys held may come from a larger one.
        needed = size + min(2 * n, table.num_qubits**2)
        if needed > len(keys):
            # Grown into new buffers, adopted only once the C entry
            # accepts the chunk.  The slots, (key + 1, index) pairs, a
            # power of two at least twice the pairs, start empty and the
            # entry re-hashes the keys.
            room = max(needed, 2 * len(keys))
            keys = _with_room(keys, size, room)
            counts = _with_room(counts, size, room)
            slots = np.zeros(2 << (room - 1).bit_length(), np.int64)
            state = np.array([size, 0], dtype=np.int64)
        _check(
            lib.leqa_iig_count(
                n, table.num_qubits, *columns, keys.ctypes.data,
                counts.ctypes.data, len(keys), slots.ctypes.data,
                len(slots) // 2, state.ctypes.data,
            ),
            "IIG pair count",
            {2: "operand outside the register or repeated"},
        )
        self.keys, self.counts, self.slots, self.state = (
            keys, counts, slots, state
        )

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The keys counted so far in first-interaction order, and their
        counts."""
        size = int(self.state[0])
        return self.keys[:size], self.counts[:size]


def place_iig_greedy(iig, tqa) -> list[tuple[int, int]]:
    """:func:`repro.qspr.placement.iig_greedy_placement`, compiled: the
    same positions, qubit for qubit (:class:`ValueError` for malformed
    graph rows)."""
    lib = load()
    indptr, indices, weights, weight_sums = (
        np.ascontiguousarray(array, dtype=np.int64)
        for array in (iig.indptr, iig.indices, iig.weights, iig.weight_sums)
    )
    num_qubits = len(weight_sums)
    if len(indptr) != num_qubits + 1 or len(weights) != len(indices):
        raise ValueError("IIG placement: malformed graph rows")
    xs, ys = placed = np.empty((2, num_qubits), dtype=np.int64)
    status = lib.leqa_place_iig_greedy(
        num_qubits, len(indices), indptr.ctypes.data, indices.ctypes.data,
        weights.ctypes.data, weight_sums.ctypes.data, tqa.width, tqa.height,
        xs.ctypes.data, ys.ctypes.data,
    )
    _check(status, "IIG placement", {2: "malformed graph rows"})
    return list(zip(*placed.tolist()))
