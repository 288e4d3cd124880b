"""Flat structure-of-arrays circuit IR: the :class:`GateTable`.

The front-end used to hand circuits between stages as lists of
:class:`~repro.circuits.gates.Gate` objects — one Python object (plus two
tuples) per gate, built one at a time by the parser and the generators,
walked one at a time by FT synthesis and the QODG builder.  For the
benchmark sizes of the paper's Table 3 (up to millions of FT operations)
that object traffic dominates cold-start time.  Reversible-logic
frameworks that enumerate thousands of MCT circuits keep them as flat
gate tables instead; this module is that idiom for our gate vocabulary.

A :class:`GateTable` stores one circuit as parallel numpy arrays:

``kind``
    int8 gate-kind code (:data:`repro.circuits.gates.KIND_CODES`).
``ctrl`` / ``ctrl2``
    First and second control qubit, ``-1`` when absent.
``target`` / ``target2``
    First and second target qubit (every kind has at least one target;
    ``target2`` is ``-1`` except for FREDKIN/SWAP/MCF).
``extra_indptr`` / ``extra``
    CSR rows holding controls *beyond the second* (MCT/MCF only); empty
    for every other kind, and empty everywhere after FT synthesis.

plus the qubit **name pool** (``qubit_names``) and the circuit name.
Tables are treated as immutable once built; producers stream rows into a
:class:`TableBuilder` and call :meth:`TableBuilder.finish`.

On top of the storage the module provides the **table passes** — the FT
synthesis stages of :mod:`repro.circuits.decompose` re-expressed as
vectorized template expansions (:func:`lower_ft`) and the peephole
optimizer of :mod:`repro.circuits.optimize` as a bounded-window scan
over a table stream (:func:`optimize_table`).  Each is written once, as
the per-chunk pass that :mod:`repro.circuits.stream` also drives.  The
peephole scan runs in C, one call per chunk on the table columns, in
the shared object of :mod:`repro.qspr._kernel`; :func:`peephole` hands
out that scan, or the Python row scan with a :class:`RuntimeWarning`
when the object cannot be built or loaded.  Both are
bitwise-equivalent to the object implementations, which remain available
as the ``engine="legacy"`` oracle; the equivalence is asserted across the
circuit library by ``tests/test_table_equivalence.py``.
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from typing import Callable, Iterable, List, Sequence

import numpy as np

from ..exceptions import CircuitError, DecompositionError
from ..obs import default_registry
from .gates import (
    FT_KINDS,
    Gate,
    GateKind,
    KIND_CODES,
    KINDS_BY_CODE,
    ONE_QUBIT_FT_KINDS,
)

__all__ = [
    "GateTable",
    "TableBuilder",
    "table_from_gates",
    "lower_ft",
    "eliminate_swap_table",
    "eliminate_fredkin_table",
    "lower_toffoli_table",
    "optimize_table",
]

_INT = np.dtype("<i8")  # explicit little-endian: fingerprint bytes are stable

#: Default first allocation of a :class:`TableBuilder` column buffer
#: (rows).  Growth is geometric (doubling), so building an n-row table
#: costs O(n) amortized copies from any starting capacity, and a chunk
#: emitter's buffers stop growing once they hold one chunk.
_INITIAL_CAPACITY = 1024

#: Default rows per emitted chunk of the chunked front-end passes.  Large
#: enough that per-chunk numpy dispatch overhead is negligible, small
#: enough that a handful of in-flight chunks stay far below any benchmark
#: table's full size.  Materialized entry points pass ``sys.maxsize``:
#: one chunk.
DEFAULT_CHUNK_SIZE = 65536

#: Rows buffered in the python staging lists before a bulk flush into
#: the numpy column buffers.  Scalar ``ndarray.__setitem__`` costs ~4x a
#: list append, so the hot append path stays on lists and amortizes the
#: int conversion over slice-assignment flushes.
_STAGING_ROWS = 512


def _require_chunk_size(chunk_size: int) -> int:
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, int):
        raise CircuitError(f"chunk_size must be an int, got {chunk_size!r}")
    if chunk_size < 1:
        raise CircuitError(f"chunk_size must be >= 1, got {chunk_size}")
    return chunk_size


# -- kind codes the passes branch on ----------------------------------------

_X = KIND_CODES[GateKind.X]
_H = KIND_CODES[GateKind.H]
_T = KIND_CODES[GateKind.T]
_TDG = KIND_CODES[GateKind.TDG]
_S = KIND_CODES[GateKind.S]
_SDG = KIND_CODES[GateKind.SDG]
_Z = KIND_CODES[GateKind.Z]
_CNOT = KIND_CODES[GateKind.CNOT]
_TOFFOLI = KIND_CODES[GateKind.TOFFOLI]
_FREDKIN = KIND_CODES[GateKind.FREDKIN]
_SWAP = KIND_CODES[GateKind.SWAP]
_MCT = KIND_CODES[GateKind.MCT]
_MCF = KIND_CODES[GateKind.MCF]

#: ``FT_CODE_MASK[code]`` — whether the kind belongs to the FT gate set.
FT_CODE_MASK: np.ndarray = np.zeros(len(KINDS_BY_CODE), dtype=bool)
for _kind in FT_KINDS:
    FT_CODE_MASK[KIND_CODES[_kind]] = True

_ONE_QUBIT_CODE_MASK: np.ndarray = np.zeros(len(KINDS_BY_CODE), dtype=bool)
for _kind in ONE_QUBIT_FT_KINDS:
    _ONE_QUBIT_CODE_MASK[KIND_CODES[_kind]] = True

# Kind codes keyed by ``id(kind)`` for the per-row paths: enum members
# are singletons, and ``GateKind.__hash__`` is a Python-level call that
# a ``KIND_CODES[kind]`` lookup or set-membership test pays every row.
_CODE_BY_ID: dict[int, int] = {
    id(kind): code for kind, code in KIND_CODES.items()
}
_ONE_QUBIT_CODE_BY_ID: dict[int, int] = {
    id(kind): KIND_CODES[kind] for kind in ONE_QUBIT_FT_KINDS
}

# The 15-gate FT realization of TOFFOLI(a, b; c) as template rows
# (:func:`repro.circuits.decompose.toffoli_to_ft_gates`).  Roles index the
# (a, b, c) operand triple; -1 means "no control".
_TOF_KINDS = np.array(
    [_H, _CNOT, _TDG, _CNOT, _T, _CNOT, _TDG, _CNOT, _T, _T, _CNOT, _H,
     _T, _TDG, _CNOT],
    dtype=np.int8,
)
_TOF_CTRL_ROLE = np.array(
    [-1, 1, -1, 0, -1, 1, -1, 0, -1, -1, 0, -1, -1, -1, 0], dtype=np.int64
)
_TOF_TGT_ROLE = np.array(
    [2, 2, 2, 2, 2, 2, 2, 2, 1, 2, 1, 2, 0, 1, 1], dtype=np.int64
)

#: The same template as plain int rows, for streaming emitters.
_TOF_TEMPLATE: tuple[tuple[int, int, int], ...] = tuple(
    zip(
        _TOF_KINDS.tolist(), _TOF_CTRL_ROLE.tolist(), _TOF_TGT_ROLE.tolist()
    )
)


def emit_toffoli_ft(
    builder: "TableBuilder", control1: int, control2: int, target: int
) -> None:
    """Stream the 15-gate FT Toffoli realization into a builder.

    Same template rows as :func:`lower_toffoli_table` (and the object
    oracle :func:`repro.circuits.decompose.toffoli_to_ft_gates`), so
    hand-built FT circuits like ``ham3`` stay in lock-step with the
    synthesis passes.
    """
    abc = (control1, control2, target)
    from .gates import KINDS_BY_CODE as _by_code

    for code, ctrl_role, tgt_role in _TOF_TEMPLATE:
        if code == _CNOT:
            builder.cnot(abc[ctrl_role], abc[tgt_role])
        else:
            builder.one_qubit(_by_code[code], abc[tgt_role])


def _make_gate(
    kind: GateKind, controls: tuple[int, ...], targets: tuple[int, ...]
) -> Gate:
    """Materialize a :class:`Gate` from an already-validated table row.

    Table rows were validated when appended, so the dataclass
    ``__post_init__`` re-validation (arity, distinctness) is skipped.
    """
    gate = Gate.__new__(Gate)
    object.__setattr__(gate, "kind", kind)
    object.__setattr__(gate, "controls", controls)
    object.__setattr__(gate, "targets", targets)
    return gate


class GateTable:
    """One circuit as flat parallel arrays over a qubit name pool.

    Construct through :class:`TableBuilder` or :func:`table_from_gates`;
    the raw-array constructor trusts its inputs (internal passes use it).
    """

    __slots__ = (
        "kind",
        "ctrl",
        "ctrl2",
        "target",
        "target2",
        "extra_indptr",
        "extra",
        "qubit_names",
        "name",
    )

    def __init__(
        self,
        kind: np.ndarray,
        ctrl: np.ndarray,
        ctrl2: np.ndarray,
        target: np.ndarray,
        target2: np.ndarray,
        extra_indptr: np.ndarray,
        extra: np.ndarray,
        qubit_names: tuple[str, ...],
        name: str = "circuit",
    ) -> None:
        self.kind = kind
        self.ctrl = ctrl
        self.ctrl2 = ctrl2
        self.target = target
        self.target2 = target2
        self.extra_indptr = extra_indptr
        self.extra = extra
        self.qubit_names = tuple(qubit_names)
        self.name = str(name)

    # -- shape ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def num_qubits(self) -> int:
        """Number of declared qubits (the name-pool size)."""
        return len(self.qubit_names)

    def extra_counts(self) -> np.ndarray:
        """Per-gate count of controls beyond the second (usually zero)."""
        return self.extra_indptr[1:] - self.extra_indptr[:-1]

    def arities(self) -> np.ndarray:
        """Number of distinct operand qubits of every gate."""
        return (
            1
            + (self.ctrl >= 0).astype(np.int64)
            + (self.ctrl2 >= 0)
            + (self.target2 >= 0)
            + self.extra_counts()
        )

    def max_operands(self) -> int:
        """Largest gate arity in the table (0 for an empty table)."""
        if not len(self.kind):
            return 0
        return int(self.arities().max())

    def operand_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(o0, o1)`` operand columns for tables of one/two-qubit gates.

        Operands come controls-first (the order :attr:`Gate.qubits`
        reports): for a CNOT ``o0`` is the control, for a SWAP the first
        swap target; ``o1`` is ``-1`` for one-qubit gates.  Callers must
        ensure :meth:`max_operands` is at most 2.
        """
        has_ctrl = self.ctrl >= 0
        o0 = np.where(has_ctrl, self.ctrl, self.target)
        o1 = np.where(has_ctrl, self.target, self.target2)
        return o0, o1

    def is_ft(self) -> bool:
        """Whether every gate belongs to the fault-tolerant gate set."""
        return bool(FT_CODE_MASK[self.kind].all())

    def counts_by_kind(self) -> dict[GateKind, int]:
        """Occurrence count of every kind present in the table."""
        counts = np.bincount(self.kind, minlength=len(KINDS_BY_CODE))
        return {
            KINDS_BY_CODE[code]: int(count)
            for code, count in enumerate(counts)
            if count
        }

    # -- gate materialization ---------------------------------------------

    def controls_of(self, index: int) -> tuple[int, ...]:
        """Control qubits of one gate (possibly empty)."""
        c1 = int(self.ctrl[index])
        if c1 < 0:
            return ()
        c2 = int(self.ctrl2[index])
        if c2 < 0:
            return (c1,)
        lo, hi = self.extra_indptr[index], self.extra_indptr[index + 1]
        if hi > lo:
            return (c1, c2, *self.extra[lo:hi].tolist())
        return (c1, c2)

    def targets_of(self, index: int) -> tuple[int, ...]:
        """Target qubits of one gate."""
        t2 = int(self.target2[index])
        if t2 < 0:
            return (int(self.target[index]),)
        return (int(self.target[index]), t2)

    def gate_kind(self, index: int) -> GateKind:
        """The :class:`GateKind` of one row."""
        return KINDS_BY_CODE[self.kind[index]]

    def gate(self, index: int) -> Gate:
        """Materialize one row as a :class:`Gate`."""
        return _make_gate(
            KINDS_BY_CODE[self.kind[index]],
            self.controls_of(index),
            self.targets_of(index),
        )

    def to_gates(self) -> List[Gate]:
        """Materialize the whole table as a gate list (object API bridge)."""
        kinds = self.kind.tolist()
        c1s = self.ctrl.tolist()
        c2s = self.ctrl2.tolist()
        t1s = self.target.tolist()
        t2s = self.target2.tolist()
        by_code = KINDS_BY_CODE
        extras = self.extra_counts()
        sparse = np.nonzero(extras)[0]
        extra_rows: dict[int, tuple[int, ...]] = {}
        for row in sparse.tolist():
            lo, hi = self.extra_indptr[row], self.extra_indptr[row + 1]
            extra_rows[row] = tuple(self.extra[lo:hi].tolist())
        gates: List[Gate] = []
        append = gates.append
        for index, (code, c1, c2, t1, t2) in enumerate(
            zip(kinds, c1s, c2s, t1s, t2s)
        ):
            if c1 < 0:
                controls: tuple[int, ...] = ()
            elif c2 < 0:
                controls = (c1,)
            else:
                rest = extra_rows.get(index)
                controls = (c1, c2, *rest) if rest else (c1, c2)
            targets = (t1,) if t2 < 0 else (t1, t2)
            append(_make_gate(by_code[code], controls, targets))
        return gates

    # -- content hashing ---------------------------------------------------

    def record_stream(self) -> np.ndarray:
        """The canonical per-gate record stream as one int64 array.

        Each gate contributes ``[code, n_ctrl, n_tgt, *controls,
        *targets]``.  The layout is append-stable (a gate's record never
        depends on later gates), so the records of a chunk stream
        concatenate to the stream of the assembled table.
        """
        n = len(self.kind)
        if not n:
            return np.empty(0, dtype=_INT)
        has_c1 = self.ctrl >= 0
        has_c2 = self.ctrl2 >= 0
        has_t2 = self.target2 >= 0
        extras = self.extra_counts()
        n_ctrl = has_c1.astype(np.int64) + has_c2 + extras
        n_tgt = 1 + has_t2.astype(np.int64)
        counts = 3 + n_ctrl + n_tgt
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        out = np.empty(int(offsets[-1]), dtype=_INT)
        base = offsets[:-1]
        out[base] = self.kind
        out[base + 1] = n_ctrl
        out[base + 2] = n_tgt
        out[(base + 3)[has_c1]] = self.ctrl[has_c1]
        out[(base + 4)[has_c2]] = self.ctrl2[has_c2]
        for row in np.nonzero(extras)[0].tolist():
            lo, hi = self.extra_indptr[row], self.extra_indptr[row + 1]
            at = int(base[row]) + 5  # extras imply both fixed slots filled
            out[at : at + (hi - lo)] = self.extra[lo:hi]
        tpos = base + 3 + n_ctrl
        out[tpos] = self.target
        out[tpos[has_t2] + 1] = self.target2[has_t2]
        return out

    def fingerprint(self) -> str:
        """Content hash of the register size plus the exact gate stream."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(struct.pack("<q", self.num_qubits))
        digest.update(self.record_stream().tobytes())
        return digest.hexdigest()

    def same_content(self, other: "GateTable") -> bool:
        """Whether two tables hold identical registers and gate streams."""
        return (
            self.qubit_names == other.qubit_names
            and np.array_equal(self.kind, other.kind)
            and np.array_equal(self.ctrl, other.ctrl)
            and np.array_equal(self.ctrl2, other.ctrl2)
            and np.array_equal(self.target, other.target)
            and np.array_equal(self.target2, other.target2)
            and np.array_equal(self.extra_indptr, other.extra_indptr)
            and np.array_equal(self.extra, other.extra)
        )

    def __repr__(self) -> str:
        return (
            f"GateTable(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self.kind)})"
        )


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


class TableBuilder:
    """Streaming gate-table builder: append rows, then :meth:`finish`.

    Mirrors the qubit-management contract of
    :class:`~repro.circuits.circuit.Circuit` (named registers, collision-
    free default names) and the arity validation of :class:`Gate`, but
    stores every appended gate as five integers instead of an object —
    the producer half of the array-native front-end.

    Storage is numpy column buffers grown by **geometric doubling** from
    ``initial_capacity`` (default :data:`_INITIAL_CAPACITY` rows), fed
    by small python staging lists that are slice-assigned in bulk every
    :data:`_STAGING_ROWS` appends.  :meth:`finish` is non-destructive
    (it copies exactly-sized views, so a builder can keep appending);
    streaming producers that finalize a chunk and keep the builder
    around call :meth:`shrink_to_fit` to drop the doubling headroom —
    without it the last chunk of an out-of-core run would hold up to 2x
    its row count in dead capacity.
    """

    def __init__(
        self,
        num_qubits: int = 0,
        name: str = "circuit",
        qubit_names: Sequence[str] | None = None,
        initial_capacity: int = _INITIAL_CAPACITY,
    ) -> None:
        if not isinstance(num_qubits, int) or isinstance(num_qubits, bool):
            raise CircuitError(
                f"num_qubits must be an int, got {num_qubits!r}"
            )
        if num_qubits < 0:
            raise CircuitError(f"num_qubits must be >= 0, got {num_qubits}")
        self.name = str(name)
        if qubit_names is not None:
            qubit_names = [str(q) for q in qubit_names]
            if len(qubit_names) != num_qubits:
                raise CircuitError(
                    f"qubit_names has {len(qubit_names)} entries but "
                    f"num_qubits is {num_qubits}"
                )
            if len(set(qubit_names)) != len(qubit_names):
                raise CircuitError("qubit names must be distinct")
            self._qubit_names: list[str] = list(qubit_names)
        else:
            self._qubit_names = [f"q{i}" for i in range(num_qubits)]
        self._index_by_name: dict[str, int] = {
            qname: i for i, qname in enumerate(self._qubit_names)
        }
        # Flushed rows live in the column buffers [0:_size); the hottest
        # tail rides in the staging lists until the next bulk flush.
        self._capacity = max(int(initial_capacity), 1)
        self._size = 0
        self._buf_kind = np.empty(self._capacity, dtype=np.int8)
        self._buf_c1 = np.empty(self._capacity, dtype=np.int64)
        self._buf_c2 = np.empty(self._capacity, dtype=np.int64)
        self._buf_t1 = np.empty(self._capacity, dtype=np.int64)
        self._buf_t2 = np.empty(self._capacity, dtype=np.int64)
        self._buf_ec = np.empty(self._capacity, dtype=np.int64)
        self._kind: list[int] = []
        self._c1: list[int] = []
        self._c2: list[int] = []
        self._t1: list[int] = []
        self._t2: list[int] = []
        self._extra_counts: list[int] = []
        self._extra: list[int] = []

    # -- qubit pool -------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of declared qubits so far."""
        return len(self._qubit_names)

    def add_qubit(self, name: str | None = None) -> int:
        """Declare a new qubit and return its index (collision-safe)."""
        index = len(self._qubit_names)
        if name is None:
            suffix = index
            name = f"q{suffix}"
            while name in self._index_by_name:
                suffix += 1
                name = f"q{suffix}"
        name = str(name)
        if name in self._index_by_name:
            raise CircuitError(f"duplicate qubit name {name!r}")
        self._qubit_names.append(name)
        self._index_by_name[name] = index
        return index

    def qubit_index(self, name: str) -> int:
        """Index of a named qubit (raises :class:`CircuitError` if absent)."""
        try:
            return self._index_by_name[name]
        except KeyError:
            raise CircuitError(f"unknown qubit name {name!r}") from None

    def has_qubit(self, name: str) -> bool:
        """Whether a qubit with this name exists."""
        return name in self._index_by_name

    # -- appends ----------------------------------------------------------

    def __len__(self) -> int:
        return self._size + len(self._kind)

    def _grow(self, need: int) -> None:
        capacity = self._capacity
        while capacity < need:
            capacity *= 2
        size = self._size
        for attr in ("_buf_kind", "_buf_c1", "_buf_c2", "_buf_t1",
                     "_buf_t2", "_buf_ec"):
            old = getattr(self, attr)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[:size] = old[:size]
            setattr(self, attr, grown)
        self._capacity = capacity

    def _flush(self) -> None:
        count = len(self._kind)
        if not count:
            return
        need = self._size + count
        if need > self._capacity:
            self._grow(need)
        lo = self._size
        self._buf_kind[lo:need] = self._kind
        self._buf_c1[lo:need] = self._c1
        self._buf_c2[lo:need] = self._c2
        self._buf_t1[lo:need] = self._t1
        self._buf_t2[lo:need] = self._t2
        self._buf_ec[lo:need] = self._extra_counts
        self._size = need
        self._kind.clear()
        self._c1.clear()
        self._c2.clear()
        self._t1.clear()
        self._t2.clear()
        self._extra_counts.clear()

    def shrink_to_fit(self) -> None:
        """Trim the column buffers to the exact appended row count.

        Streaming finalize step: after the doubling growth of a chunk's
        appends, the buffers may hold up to 2x the rows actually used —
        calling this before parking a finished chunk keeps out-of-core
        peak memory at the data's true size.
        """
        self._flush()
        size = self._size
        capacity = max(size, 1)  # empty buffers keep one doubling seed row
        if self._capacity == capacity:
            return
        for attr in ("_buf_kind", "_buf_c1", "_buf_c2", "_buf_t1",
                     "_buf_t2", "_buf_ec"):
            old = getattr(self, attr)
            trimmed = np.empty(capacity, dtype=old.dtype)
            trimmed[:size] = old[:size]
            setattr(self, attr, trimmed)
        self._capacity = capacity

    def _check_bounds(self, *qubits: int) -> None:
        top = len(self._qubit_names)
        for qubit in qubits:
            if isinstance(qubit, bool) or not isinstance(qubit, int) or qubit < 0:
                raise CircuitError(
                    f"qubit indices must be non-negative integers, got "
                    f"{qubit!r}"
                )
            if qubit >= top:
                raise CircuitError(
                    f"gate references qubit {qubit} but the circuit has "
                    f"only {top} qubits"
                )

    def _distinct(
        self, kind: GateKind, controls: tuple[int, ...], targets: tuple[int, ...]
    ) -> None:
        operands = controls + targets
        if len(set(operands)) != len(operands):
            raise CircuitError(
                f"{kind.value} gate operands must be distinct, got "
                f"controls={controls} targets={targets}"
            )

    def _push(self, code: int, c1: int, c2: int, t1: int, t2: int) -> None:
        # Flush *before* appending: callers (mct/mcf/append_gate) patch
        # the new row's extra count via ``_extra_counts[-1]`` right after
        # this returns, so the row must still be in staging.
        if len(self._kind) >= _STAGING_ROWS:
            self._flush()
        self._kind.append(code)
        self._c1.append(c1)
        self._c2.append(c2)
        self._t1.append(t1)
        self._t2.append(t2)
        self._extra_counts.append(0)

    def one_qubit(self, kind: GateKind, target: int) -> None:
        """Append a one-qubit FT gate."""
        code = _ONE_QUBIT_CODE_BY_ID.get(id(kind))
        if code is None:
            raise CircuitError(
                f"{kind.value} is not a one-qubit FT gate kind"
            )
        self._check_bounds(target)
        self._push(code, -1, -1, target, -1)

    def x(self, target: int) -> None:
        """Append a Pauli-X (NOT)."""
        self._check_bounds(target)
        self._push(_X, -1, -1, target, -1)

    def h(self, target: int) -> None:
        """Append a Hadamard."""
        self._check_bounds(target)
        self._push(_H, -1, -1, target, -1)

    def t(self, target: int) -> None:
        """Append a T gate."""
        self._check_bounds(target)
        self._push(_T, -1, -1, target, -1)

    def tdg(self, target: int) -> None:
        """Append a T† gate."""
        self._check_bounds(target)
        self._push(_TDG, -1, -1, target, -1)

    def cnot(self, control: int, target: int) -> None:
        """Append a CNOT."""
        self._check_bounds(control, target)
        if control == target:
            self._distinct(GateKind.CNOT, (control,), (target,))
        self._push(_CNOT, control, -1, target, -1)

    def toffoli(self, control1: int, control2: int, target: int) -> None:
        """Append a 3-input Toffoli."""
        self._check_bounds(control1, control2, target)
        if control1 == control2 or control1 == target or control2 == target:
            self._distinct(GateKind.TOFFOLI, (control1, control2), (target,))
        self._push(_TOFFOLI, control1, control2, target, -1)

    def fredkin(self, control: int, target1: int, target2: int) -> None:
        """Append a 3-input Fredkin (controlled swap)."""
        self._check_bounds(control, target1, target2)
        if control == target1 or control == target2 or target1 == target2:
            self._distinct(GateKind.FREDKIN, (control,), (target1, target2))
        self._push(_FREDKIN, control, -1, target1, target2)

    def swap(self, qubit1: int, qubit2: int) -> None:
        """Append an unconditional swap."""
        self._check_bounds(qubit1, qubit2)
        if qubit1 == qubit2:
            self._distinct(GateKind.SWAP, (), (qubit1, qubit2))
        self._push(_SWAP, -1, -1, qubit1, qubit2)

    def mct(self, controls: Sequence[int], target: int) -> None:
        """Append a multi-controlled Toffoli, degrading like :func:`mct`."""
        controls = tuple(controls)
        count = len(controls)
        if count == 0:
            self.x(target)
            return
        if count == 1:
            self.cnot(controls[0], target)
            return
        if count == 2:
            self.toffoli(controls[0], controls[1], target)
            return
        self._check_bounds(*controls, target)
        self._distinct(GateKind.MCT, controls, (target,))
        self._push(_MCT, controls[0], controls[1], target, -1)
        self._extra_counts[-1] = count - 2
        self._extra.extend(controls[2:])

    def mcf(self, controls: Sequence[int], target1: int, target2: int) -> None:
        """Append a multi-controlled Fredkin, degrading like :func:`mcf`."""
        controls = tuple(controls)
        count = len(controls)
        if count == 0:
            self.swap(target1, target2)
            return
        if count == 1:
            self.fredkin(controls[0], target1, target2)
            return
        self._check_bounds(*controls, target1, target2)
        self._distinct(GateKind.MCF, controls, (target1, target2))
        self._push(_MCF, controls[0], controls[1], target1, target2)
        self._extra_counts[-1] = count - 2
        self._extra.extend(controls[2:])

    def append_kind(
        self,
        kind: GateKind,
        controls: Sequence[int],
        targets: Sequence[int],
    ) -> None:
        """Append any gate kind from explicit operand lists (validated).

        The generic entry point parsers use; arity rules match the
        :class:`Gate` constructor's.
        """
        controls = tuple(controls)
        targets = tuple(targets)
        code = _ONE_QUBIT_CODE_BY_ID.get(id(kind))
        if code is not None:
            if controls or len(targets) != 1:
                raise CircuitError(
                    f"{kind.value} requires 0 controls and 1 targets, got "
                    f"{len(controls)} and {len(targets)}"
                )
            self._check_bounds(targets[0])
            self._push(code, -1, -1, targets[0], -1)
        elif kind is GateKind.CNOT:
            if len(controls) != 1 or len(targets) != 1:
                raise CircuitError(
                    f"cnot requires 1 controls and 1 targets, got "
                    f"{len(controls)} and {len(targets)}"
                )
            self.cnot(controls[0], targets[0])
        elif kind is GateKind.TOFFOLI:
            if len(controls) != 2 or len(targets) != 1:
                raise CircuitError(
                    f"toffoli requires 2 controls and 1 targets, got "
                    f"{len(controls)} and {len(targets)}"
                )
            self.toffoli(controls[0], controls[1], targets[0])
        elif kind is GateKind.FREDKIN:
            if len(controls) != 1 or len(targets) != 2:
                raise CircuitError(
                    f"fredkin requires 1 controls and 2 targets, got "
                    f"{len(controls)} and {len(targets)}"
                )
            self.fredkin(controls[0], targets[0], targets[1])
        elif kind is GateKind.SWAP:
            if controls or len(targets) != 2:
                raise CircuitError(
                    f"swap requires 0 controls and 2 targets, got "
                    f"{len(controls)} and {len(targets)}"
                )
            self.swap(targets[0], targets[1])
        elif kind is GateKind.MCT:
            if len(targets) != 1:
                raise CircuitError(
                    f"MCT requires >= 3 controls and 1 target, got "
                    f"{len(controls)} controls and {len(targets)} targets"
                )
            self.mct(controls, targets[0])
        elif kind is GateKind.MCF:
            if len(targets) != 2:
                raise CircuitError(
                    f"MCF requires >= 2 controls and 2 targets, got "
                    f"{len(controls)} controls and {len(targets)} targets"
                )
            self.mcf(controls, targets[0], targets[1])
        else:  # pragma: no cover - enum is closed
            raise CircuitError(f"unhandled gate kind {kind!r}")

    def append_gate(self, gate: Gate) -> None:
        """Append an already-validated :class:`Gate` (object bridge)."""
        self._check_bounds(*gate.controls, *gate.targets)
        controls, targets = gate.controls, gate.targets
        c1 = controls[0] if len(controls) > 0 else -1
        c2 = controls[1] if len(controls) > 1 else -1
        t2 = targets[1] if len(targets) > 1 else -1
        self._push(_CODE_BY_ID[id(gate.kind)], c1, c2, targets[0], t2)
        if len(controls) > 2:
            self._extra_counts[-1] = len(controls) - 2
            self._extra.extend(controls[2:])

    # -- finish -----------------------------------------------------------

    def finish(self, name: str | None = None) -> GateTable:
        """Freeze the buffered rows into an immutable :class:`GateTable`.

        Non-destructive: the table gets exact-size copies and the
        builder stays appendable (chunk emitters finish each chunk off
        the same builder after clearing it).
        """
        self._flush()
        n = self._size
        extra_indptr = np.zeros(n + 1, dtype=np.int64)
        if self._extra:
            np.cumsum(self._buf_ec[:n], out=extra_indptr[1:])
        return GateTable(
            kind=self._buf_kind[:n].copy(),
            ctrl=self._buf_c1[:n].copy(),
            ctrl2=self._buf_c2[:n].copy(),
            target=self._buf_t1[:n].copy(),
            target2=self._buf_t2[:n].copy(),
            extra_indptr=extra_indptr,
            extra=np.asarray(self._extra, dtype=np.int64),
            qubit_names=tuple(self._qubit_names),
            name=name if name is not None else self.name,
        )

    def clear_rows(self) -> None:
        """Drop every appended row, keeping the register and capacity.

        The chunk-emitter reset: qubit names persist (indices stay
        valid across chunks), the buffers are reused allocation-free.
        """
        self._size = 0
        self._kind.clear()
        self._c1.clear()
        self._c2.clear()
        self._t1.clear()
        self._t2.clear()
        self._extra_counts.clear()
        self._extra.clear()


def table_from_gates(
    gates: Iterable[Gate],
    qubit_names: Sequence[str],
    name: str = "circuit",
) -> GateTable:
    """Pack an already-validated gate sequence into a :class:`GateTable`."""
    kind: list[int] = []
    c1s: list[int] = []
    c2s: list[int] = []
    t1s: list[int] = []
    t2s: list[int] = []
    extra_counts: list[int] = []
    extra: list[int] = []
    codes = _CODE_BY_ID
    for gate in gates:
        controls, targets = gate.controls, gate.targets
        kind.append(codes[id(gate.kind)])
        nc = len(controls)
        c1s.append(controls[0] if nc > 0 else -1)
        c2s.append(controls[1] if nc > 1 else -1)
        t1s.append(targets[0])
        t2s.append(targets[1] if len(targets) > 1 else -1)
        if nc > 2:
            extra_counts.append(nc - 2)
            extra.extend(controls[2:])
        else:
            extra_counts.append(0)
    n = len(kind)
    extra_indptr = np.zeros(n + 1, dtype=np.int64)
    if extra:
        np.cumsum(np.asarray(extra_counts, dtype=np.int64), out=extra_indptr[1:])
    return GateTable(
        kind=np.asarray(kind, dtype=np.int8),
        ctrl=np.asarray(c1s, dtype=np.int64),
        ctrl2=np.asarray(c2s, dtype=np.int64),
        target=np.asarray(t1s, dtype=np.int64),
        target2=np.asarray(t2s, dtype=np.int64),
        extra_indptr=extra_indptr,
        extra=np.asarray(extra, dtype=np.int64),
        qubit_names=tuple(qubit_names),
        name=name,
    )


# ---------------------------------------------------------------------------
# FT synthesis as table passes
# ---------------------------------------------------------------------------


def _template_expand(
    table: GateTable,
    mask: np.ndarray,
    template_len: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
           np.ndarray, np.ndarray]:
    """Allocate output columns with every non-``mask`` row copied through.

    Returns ``(kind, ctrl, ctrl2, target, target2, dest, rows)`` where
    ``dest`` maps every input row to its output offset and ``rows`` are
    the output offsets of the masked (to-be-expanded) rows.
    """
    counts = np.where(mask, template_len, 1)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    dest = offsets[:-1]
    keep = ~mask
    out_kind = np.empty(total, dtype=np.int8)
    out_c1 = np.full(total, -1, dtype=np.int64)
    out_c2 = np.full(total, -1, dtype=np.int64)
    out_t1 = np.empty(total, dtype=np.int64)
    out_t2 = np.full(total, -1, dtype=np.int64)
    kept = dest[keep]
    out_kind[kept] = table.kind[keep]
    out_c1[kept] = table.ctrl[keep]
    out_c2[kept] = table.ctrl2[keep]
    out_t1[kept] = table.target[keep]
    out_t2[kept] = table.target2[keep]
    return out_kind, out_c1, out_c2, out_t1, out_t2, dest, dest[mask]


def _finish_pass(
    table: GateTable,
    kind: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    t1: np.ndarray,
    t2: np.ndarray,
    dest: np.ndarray,
) -> GateTable:
    """Wrap pass output columns into a table over the same register.

    Extra-control rows (MCT/MCF gates the pass left untouched) are
    carried through: ``dest`` is increasing, so the flat extra buffer is
    reusable verbatim under rescattered row counts.
    """
    extra_indptr = np.zeros(len(kind) + 1, dtype=np.int64)
    extra = table.extra
    if extra.size:
        counts = np.zeros(len(kind), dtype=np.int64)
        counts[dest] = table.extra_counts()
        np.cumsum(counts, out=extra_indptr[1:])
    else:
        extra = np.empty(0, dtype=np.int64)
    return GateTable(
        kind=kind,
        ctrl=c1,
        ctrl2=c2,
        target=t1,
        target2=t2,
        extra_indptr=extra_indptr,
        extra=extra,
        qubit_names=table.qubit_names,
        name=table.name,
    )


class _McExpandCarry:
    """Ancilla-allocation state of the multi-controlled expansion.

    The cumulative register names, the ``anc<k>`` collision counter and
    (under ``share_ancillas``) the free-ancilla pool.  One carry feeds
    every chunk of a stream (or a whole table as one chunk), so chunk
    N+1 continues where chunk N stopped and the assembled output is
    bitwise-identical to the one-shot pass.
    """

    def __init__(
        self, qubit_names: tuple[str, ...], share_ancillas: bool
    ) -> None:
        self.names: list[str] = list(qubit_names)
        self.name_set = set(self.names)
        self.pool: list[int] = []
        self.counter = 0
        self.share_ancillas = share_ancillas

    def take(self, count: int) -> list[int]:
        taken: list[int] = []
        if self.share_ancillas:
            while self.pool and len(taken) < count:
                taken.append(self.pool.pop())
        while len(taken) < count:
            anc_name = f"anc{self.counter}"
            while anc_name in self.name_set:
                self.counter += 1
                anc_name = f"anc{self.counter}"
            taken.append(len(self.names))
            self.names.append(anc_name)
            self.name_set.add(anc_name)
            self.counter += 1
        return taken

    def expand_chunk(self, table: GateTable) -> GateTable:
        """MCT/MCF expansion of one chunk over the cumulative register."""
        mc_mask = (table.kind == _MCT) | (table.kind == _MCF)
        if not mc_mask.any():
            if len(self.names) == table.num_qubits:
                return table  # no ancillas yet: nothing to rewrite
            # Row-identical, but rebased to the cumulative register so
            # every output chunk's indices are valid in the final one.
            return GateTable(
                kind=table.kind,
                ctrl=table.ctrl,
                ctrl2=table.ctrl2,
                target=table.target,
                target2=table.target2,
                extra_indptr=table.extra_indptr,
                extra=table.extra,
                qubit_names=tuple(self.names),
                name=table.name,
            )
        # Irregular expansion (per-gate arity varies): stream rows through
        # plain lists, looping over primitive ints rather than Gate objects.
        kinds = table.kind.tolist()
        c1s = table.ctrl.tolist()
        c2s = table.ctrl2.tolist()
        t1s = table.target.tolist()
        t2s = table.target2.tolist()
        out_k: list[int] = []
        out_c1: list[int] = []
        out_c2: list[int] = []
        out_t1: list[int] = []
        out_t2: list[int] = []

        def emit_toffoli(a: int, b: int, c: int) -> None:
            out_k.append(_TOFFOLI)
            out_c1.append(a)
            out_c2.append(b)
            out_t1.append(c)
            out_t2.append(-1)

        def emit_chain(
            controls: list[int], terminal_kind: int, term_ops: tuple[int, ...]
        ) -> None:
            """Ancilla-chain conjunction, terminal gate, uncompute chain."""
            k = len(controls)
            ancillas = self.take(k - 1)
            compute: list[tuple[int, int, int]] = [
                (controls[0], controls[1], ancillas[0])
            ]
            for i in range(2, k):
                compute.append((ancillas[i - 2], controls[i], ancillas[i - 1]))
            for a, b, c in compute:
                emit_toffoli(a, b, c)
            top = ancillas[-1]
            if terminal_kind == _TOFFOLI:
                emit_toffoli(top, term_ops[0], term_ops[1])
            else:  # FREDKIN(anc; t1, t2)
                out_k.append(_FREDKIN)
                out_c1.append(top)
                out_c2.append(-1)
                out_t1.append(term_ops[0])
                out_t2.append(term_ops[1])
            for a, b, c in reversed(compute):
                emit_toffoli(a, b, c)
            if self.share_ancillas:
                self.pool.extend(ancillas)

        extra_indptr = table.extra_indptr
        extra = table.extra.tolist()
        for i, code in enumerate(kinds):
            if code == _MCT:
                controls = [c1s[i], c2s[i]]
                controls.extend(extra[extra_indptr[i] : extra_indptr[i + 1]])
                # Conjoin the first k-1 controls, terminal Toffoli on
                # (a_last, c_k; target) — same split as the object pass.
                emit_chain(controls[:-1], _TOFFOLI, (controls[-1], t1s[i]))
            elif code == _MCF:
                controls = [c1s[i], c2s[i]]
                controls.extend(extra[extra_indptr[i] : extra_indptr[i + 1]])
                emit_chain(controls, _FREDKIN, (t1s[i], t2s[i]))
            else:
                out_k.append(code)
                out_c1.append(c1s[i])
                out_c2.append(c2s[i])
                out_t1.append(t1s[i])
                out_t2.append(t2s[i])
        n = len(out_k)
        return GateTable(
            kind=np.asarray(out_k, dtype=np.int8),
            ctrl=np.asarray(out_c1, dtype=np.int64),
            ctrl2=np.asarray(out_c2, dtype=np.int64),
            target=np.asarray(out_t1, dtype=np.int64),
            target2=np.asarray(out_t2, dtype=np.int64),
            extra_indptr=np.zeros(n + 1, dtype=np.int64),
            extra=np.empty(0, dtype=np.int64),
            qubit_names=tuple(self.names),
            name=table.name,
        )


def eliminate_swap_table(table: GateTable) -> GateTable:
    """Replace each SWAP row by the standard three CNOT rows (vectorized)."""
    mask = table.kind == _SWAP
    if not mask.any():
        return table
    kind, c1, c2, t1, t2, dest, rows = _template_expand(table, mask, 3)
    qx = table.target[mask]
    qy = table.target2[mask]
    for slot, (ctrl_col, tgt_col) in enumerate(((qx, qy), (qy, qx), (qx, qy))):
        at = rows + slot
        kind[at] = _CNOT
        c1[at] = ctrl_col
        t1[at] = tgt_col
    return _finish_pass(table, kind, c1, c2, t1, t2, dest)


def eliminate_fredkin_table(table: GateTable) -> GateTable:
    """Replace each FREDKIN row by three TOFFOLI rows (vectorized)."""
    mask = table.kind == _FREDKIN
    if not mask.any():
        return table
    kind, c1, c2, t1, t2, dest, rows = _template_expand(table, mask, 3)
    ctrl = table.ctrl[mask]
    qx = table.target[mask]
    qy = table.target2[mask]
    for slot, (second, tgt_col) in enumerate(((qx, qy), (qy, qx), (qx, qy))):
        at = rows + slot
        kind[at] = _TOFFOLI
        c1[at] = ctrl
        c2[at] = second
        t1[at] = tgt_col
    return _finish_pass(table, kind, c1, c2, t1, t2, dest)


def lower_toffoli_table(table: GateTable) -> GateTable:
    """Expand each TOFFOLI row into the 15-gate FT template (vectorized)."""
    mask = table.kind == _TOFFOLI
    if not mask.any():
        return table
    kind, c1, c2, t1, t2, dest, rows = _template_expand(table, mask, 15)
    # Operand triple (a, b, c) per expanded gate, indexed by template role.
    abc = np.stack((table.ctrl[mask], table.ctrl2[mask], table.target[mask]))
    positions = rows[:, None] + np.arange(15, dtype=np.int64)[None, :]
    kind[positions] = _TOF_KINDS[None, :]
    has_ctrl = _TOF_CTRL_ROLE >= 0
    ctrl_vals = abc[_TOF_CTRL_ROLE[has_ctrl]]  # (n_ctrl_slots, n_gates)
    c1[positions[:, has_ctrl]] = ctrl_vals.T
    t1[positions] = abc[_TOF_TGT_ROLE].T
    return _finish_pass(table, kind, c1, c2, t1, t2, dest)


def _lower_ft_chunk(table: GateTable, carry: _McExpandCarry) -> GateTable:
    """FT synthesis of one chunk: every pass but the multi-controlled
    expansion's ancilla allocator (``carry``) is row-local."""
    lowered = carry.expand_chunk(table)
    lowered = eliminate_swap_table(lowered)
    lowered = eliminate_fredkin_table(lowered)
    lowered = lower_toffoli_table(lowered)
    if not lowered.is_ft():
        bad = lowered.kind[~FT_CODE_MASK[lowered.kind]][0]
        raise DecompositionError(
            f"gate kind {KINDS_BY_CODE[bad].value!r} survived FT synthesis"
        )
    return lowered


def lower_ft(table: GateTable, share_ancillas: bool = False) -> GateTable:
    """The complete FT synthesis pipeline as table passes.

    Stage order matches :func:`repro.circuits.decompose.synthesize_ft`
    (multi-controlled expansion, SWAP elimination, Fredkin elimination,
    Toffoli lowering) and the output is bitwise-identical to it.  The
    whole table is one chunk of
    :func:`~repro.circuits.stream.lower_ft_stream`.
    """
    carry = _McExpandCarry(table.qubit_names, share_ancillas)
    return _lower_ft_chunk(table, carry)


# ---------------------------------------------------------------------------
# Peephole optimization as a table-stream scan
# ---------------------------------------------------------------------------

_SELF_INVERSE_CODES = frozenset({_X, KIND_CODES[GateKind.Y], _Z, _H, _CNOT})
_INVERSE_OF = {_T: _TDG, _TDG: _T, _S: _SDG, _SDG: _S}
_PHASE_FUSION_CODES = {_T: _S, _TDG: _SDG, _S: _Z, _SDG: _Z}


def _peephole_rules() -> np.ndarray:
    """The rewrite rules as the compiled scan reads them: row 0 holds the
    kind code each kind cancels with, row 1 the code two adjacent rows of
    a kind fuse into (``-1`` = none)."""
    rules = np.full((2, len(KINDS_BY_CODE)), -1, dtype=np.int64)
    for code in _SELF_INVERSE_CODES:
        rules[0, code] = code
    for code, inverse in _INVERSE_OF.items():
        rules[0, code] = inverse
    for code, fused in _PHASE_FUSION_CODES.items():
        rules[1, code] = fused
    return rules


_PEEPHOLE_RULES = _peephole_rules()

#: One row as the Python scan reads it: ``(code, c1, c2, t1, t2,
#: extra_controls)`` with ``-1`` padding.  Equal operand sets imply equal
#: padded tuples, so the same-operand test is plain tuple comparison.
_Row = tuple[int, int, int, int, int, tuple[int, ...]]

#: Appended rows between frontier recomputations of a scan pass.
_SCAN_FLUSH_EVERY = 4096

#: A peephole pass: ``scan(tables, emit) -> rewrites`` reads a table
#: stream and hands each batch of frozen rows to ``emit`` as a table.
Scan = Callable[[Iterable[GateTable], Callable[[GateTable], object]], int]


def _empty_table(qubit_names: tuple[str, ...], name: str) -> GateTable:
    """A zero-row table over ``qubit_names``."""
    return GateTable(
        kind=np.empty(0, dtype=np.int8),
        ctrl=np.empty(0, dtype=np.int64),
        ctrl2=np.empty(0, dtype=np.int64),
        target=np.empty(0, dtype=np.int64),
        target2=np.empty(0, dtype=np.int64),
        extra_indptr=np.zeros(1, dtype=np.int64),
        extra=np.empty(0, dtype=np.int64),
        qubit_names=qubit_names,
        name=name,
    )


def _rows_of_table(table: GateTable) -> list[_Row]:
    """A table's rows as the tuples the Python scan eats."""
    extra_rows: dict[int, tuple[int, ...]] = {}
    for row in np.nonzero(table.extra_counts())[0].tolist():
        lo, hi = table.extra_indptr[row], table.extra_indptr[row + 1]
        extra_rows[row] = tuple(table.extra[lo:hi].tolist())
    return [
        (code, c1, c2, t1, t2, extra_rows.get(i, ()))
        for i, (code, c1, c2, t1, t2) in enumerate(
            zip(
                table.kind.tolist(),
                table.ctrl.tolist(),
                table.ctrl2.tolist(),
                table.target.tolist(),
                table.target2.tolist(),
            )
        )
    ]


def _table_of_rows(
    rows: Sequence[_Row], qubit_names: tuple[str, ...], name: str
) -> GateTable:
    """Pack scan rows back into a table: the inverse of
    :func:`_rows_of_table`."""
    n = len(rows)
    kind, c1, c2, t1, t2, extras = zip(*rows) if n else ((),) * 6
    extra_indptr = np.zeros(n + 1, dtype=np.int64)
    extra: list[int] = []
    if any(extras):
        np.cumsum([len(row_extra) for row_extra in extras],
                  out=extra_indptr[1:])
        for row_extra in extras:
            extra.extend(row_extra)
    return GateTable(
        kind=np.array(kind, dtype=np.int8),
        ctrl=np.array(c1, dtype=np.int64),
        ctrl2=np.array(c2, dtype=np.int64),
        target=np.array(t1, dtype=np.int64),
        target2=np.array(t2, dtype=np.int64),
        extra_indptr=extra_indptr,
        extra=np.array(extra, dtype=np.int64),
        qubit_names=qubit_names,
        name=name,
    )


def _scan_stream(
    tables: Iterable[GateTable], emit: Callable[[GateTable], object]
) -> int:
    """One cancellation/fusion pass over a table stream, bounded window:
    the Python fallback of :func:`peephole`.

    Logic mirrors :func:`repro.circuits.optimize.cancel_pairs_once`:
    only rows still reachable through ``last_on_qubit`` can be cancelled
    or fused, so every row below ``min(last_on_qubit.values())`` is
    frozen and flushed to ``emit`` in order, packed as one table under
    the register of the chunk being read.  The frontier is recomputed
    every :data:`_SCAN_FLUSH_EVERY` appends (an O(num_qubits) ``min``),
    keeping the window a few thousand rows for circuits whose qubits
    stay active.  Returns the rewrite count.
    """
    # Rows not yet emitted, None where cancelled; ``last_on_qubit``
    # indexes into this window and is rebased at every flush.
    window: list[_Row | None] = []
    last_on_qubit: dict[int, int] = {}
    check_at = _SCAN_FLUSH_EVERY
    rewrites = 0
    register: tuple[str, ...] = ()
    name = ""

    def flush(frontier: int) -> None:
        batch = [row for row in window[:frontier] if row is not None]
        del window[:frontier]
        if batch:
            emit(_table_of_rows(batch, register, name))

    for table in tables:
        register, name = table.qubit_names, table.name
        for row in _rows_of_table(table):
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
                window[candidate_index]
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
                    window[candidate_index] = None
                    for qubit in qubits:
                        del last_on_qubit[qubit]
                    rewrites += 1
                    continue
                if same_operands and ccode == code:
                    fused = _PHASE_FUSION_CODES.get(code)
                    if fused is not None:
                        window[candidate_index] = (fused, -1, -1, t1, -1, ())
                        rewrites += 1
                        continue
            index = len(window)
            window.append(row)
            for qubit in qubits:
                last_on_qubit[qubit] = index
            if index >= check_at:
                frontier = min(last_on_qubit.values())
                flush(frontier)
                for qubit in last_on_qubit:
                    last_on_qubit[qubit] -= frontier
                check_at = index - frontier + _SCAN_FLUSH_EVERY
    flush(len(window))
    return rewrites


def _native_scan(
    tables: Iterable[GateTable], emit: Callable[[GateTable], object]
) -> int:
    """:func:`_scan_stream`, one compiled call per chunk: the same
    decisions, the rows in table columns throughout.  Each chunk's
    frozen rows are emitted as one table under that chunk's register."""
    from ..qspr import _kernel

    flush_every = _SCAN_FLUSH_EVERY
    carry = _kernel.PeepholeCarry(flush_every)

    def scan_chunk(table: GateTable, final: bool = False) -> None:
        columns = _kernel.peephole_chunk(
            table, _PEEPHOLE_RULES, carry, flush_every, final
        )
        if len(columns[0]):
            emit(GateTable(*columns, table.qubit_names, table.name))

    register: tuple[str, ...] = ()
    name = ""
    for table in tables:
        scan_chunk(table)
        register, name = table.qubit_names, table.name
    scan_chunk(_empty_table(register, name), final=True)
    return carry.rewrites


def peephole() -> Scan:
    """The compiled scan pass, or :func:`_scan_stream` when the kernel's
    shared object cannot be built or loaded — with a
    :class:`RuntimeWarning` and one ``kernel.fallbacks{entry=peephole}``
    count."""
    try:
        # Imported here: repro.qspr imports repro.circuits.
        from ..qspr import _kernel

        _kernel.load()
    except (ImportError, AttributeError, OSError, RuntimeError) as error:
        warnings.warn(
            f"compiled peephole kernel unavailable ({error}); falling "
            "back to the Python scan",
            RuntimeWarning,
            stacklevel=3,
        )
        default_registry().inc("kernel.fallbacks", entry="peephole")
        return _scan_stream
    return _native_scan


def _scan_to_fixed_point(
    tables: Iterable[GateTable],
    max_passes: int,
    new_sink: Callable[[], object] = list,
):
    """Run the :func:`peephole` scan until a pass rewrites nothing.

    Each pass emits its survivors as tables into a fresh ``new_sink()``
    — anything with ``append`` that iterates the appended tables back
    in order (a list in memory, a spill file out of core) — which feeds
    the next pass.  Returns the converged pass's sink.
    """
    if max_passes < 1:
        raise CircuitError(f"max_passes must be >= 1, got {max_passes}")
    scan = peephole()
    for _ in range(max_passes):
        sink = new_sink()
        if scan(tables, sink.append) == 0:
            return sink
        tables = sink
    raise CircuitError("peephole optimization did not converge")


def optimize_table(table: GateTable, max_passes: int = 100) -> GateTable:
    """Iterate the cancellation/fusion scan to a fixed point.

    The table counterpart of
    :func:`repro.circuits.optimize.optimize_ft`: FT-set rows cancel and
    fuse, synthesis-level rows pass through but participate in adjacency
    tracking.  Bitwise-identical output to the object pass.  The whole
    table is one chunk of :func:`~repro.circuits.stream.optimize_stream`,
    with the passes held in memory instead of spilled: the compiled scan
    when the kernel loads, else the Python one (see :func:`peephole`).
    """
    from .stream import assemble

    survivors = _scan_to_fixed_point([table], max_passes)
    return assemble([*survivors, _empty_table(table.qubit_names, table.name)])
