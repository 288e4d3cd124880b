"""Single-pass critical-path sweep (the estimator's fast path).

The QODG's edges are exactly "next gate touching the same qubit", so the
longest start-to-end path can be computed without materializing the graph:
one forward pass keeps, per qubit, the length of the longest dependency
chain ending at that qubit's last gate.  Each gate's chain length is the
maximum over its operand qubits plus its own delay — identical, gate for
gate, to the DAG longest-path recurrence over the explicit QODG (a
property the test suite asserts on random circuits).

This costs O(gates) with a small constant and no per-node allocation,
which matters for the paper's Table 3: LEQA's runtime should stay linear
in operation count with a constant far below the detailed mapper's.

The recurrence has three entries, gathered in a :class:`Recurrence`:

* ``chunk`` consumes one chunk of kind/operand columns with a kind→delay
  lookup table and threads a :class:`CriticalPathCarry` (per-qubit chain
  state, best node so far, next node id) into the next chunk, returning
  each gate's predecessor;
* ``walk`` follows the predecessors back from the best node into the
  path;
* ``lengths`` runs the recurrence under many delay tables at once (a
  Table-1 sensitivity grid, a fabric-size sweep — every point changes
  only the node delays reaching the critical path): a ``(kinds, points)``
  delay matrix in, one length per point out, each *bitwise* equal to the
  one-chunk ``best`` under that point's column.

Each entry is written twice: in C, in the shared object of
:mod:`repro.qspr._kernel` (built with FP contraction off, so every
float is bitwise the Python one), and in Python —
:func:`critical_path_chunk`, :func:`walk_path` and
:func:`column_lengths` — as the fallback :func:`recurrence` returns, with
a :class:`RuntimeWarning`, when that object cannot be built or loaded.

:func:`sweep_critical_path` is the one-chunk case over a materialized
circuit; :func:`repro.circuits.stream.estimate_stream` feeds the chunk
entry one spilled chunk at a time; :func:`sweep_critical_path_lengths`
is the batched entry behind :meth:`StagedPipeline.sweep
<repro.core.pipeline.StagedPipeline.sweep>`.  The first two return the
same result as :func:`repro.qodg.critical_path.critical_path`; only
tie-breaking between equally long paths may differ.  Node delays enter
as one kind→delay table (Eq. 1 sets a node's delay by its gate kind
alone), and only one- and two-qubit gates are accepted — the FT gate
set.  Every check runs before the recurrence does.
"""

from __future__ import annotations

import warnings
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import KINDS_BY_CODE, GateKind
from ..circuits.table import GateTable
from ..exceptions import GraphError
from ..obs import default_registry
from .critical_path import (
    CriticalPathResult,
    checked_delay_lut,
    first_missing_kind,
    path_result,
)

__all__ = [
    "CriticalPathCarry",
    "Recurrence",
    "column_lengths",
    "critical_path_chunk",
    "recurrence",
    "sweep_critical_path",
    "sweep_critical_path_lengths",
    "walk_path",
]


class CriticalPathCarry:
    """Chain state of the critical-path recurrence between chunks.

    Per qubit, the length of the longest chain ending at its last gate
    (``qubit_dist``) and that gate's node id (``qubit_last``; ``-1`` =
    the virtual start node); the longest chain so far (``best_length``,
    one float) and ``nodes`` = (its end node, the id the next chunk's
    first gate gets).  All four are numpy arrays a chunk updates in
    place.
    """

    __slots__ = ("qubit_dist", "qubit_last", "best_length", "nodes")

    def __init__(self, num_qubits: int) -> None:
        self.qubit_dist = np.zeros(num_qubits)
        self.qubit_last = np.full(num_qubits, -1, dtype=np.int64)
        self.best_length = np.zeros(1)
        self.nodes = np.array([-1, 0], dtype=np.int64)

    @property
    def best(self) -> float:
        """Length of the longest chain so far."""
        return float(self.best_length[0])

    @property
    def best_node(self) -> int:
        """End node of the longest chain so far (``-1`` = none yet)."""
        return int(self.nodes[0])

    @property
    def next_node(self) -> int:
        """Node id of the next gate fed in."""
        return int(self.nodes[1])


def critical_path_chunk(
    kinds: np.ndarray,
    o0: np.ndarray,
    o1: np.ndarray,
    lut: np.ndarray,
    carry: CriticalPathCarry,
) -> np.ndarray:
    """Run the longest-chain recurrence over one chunk of gates.

    ``kinds`` is the chunk's kind-code column, ``o0``/``o1`` its operand
    columns (``o1 = -1`` for one-qubit gates, as
    :meth:`~repro.circuits.table.GateTable.operand_pairs` returns them)
    and ``lut`` the non-negative node delay of every kind code (a
    :func:`~repro.qodg.critical_path.kind_delay_lut`).  Updates ``carry``
    in place and returns each gate's predecessor on its longest chain
    (``-1`` = the start node) as an int64 array, so feeding a circuit
    through in any number of chunks with one carry gives the same floats
    and the same predecessors as one chunk.  A zero-length chain hangs
    off the start node; ties keep the first operand's chain.
    """
    qubit_dist = carry.qubit_dist.tolist()
    qubit_last = carry.qubit_last.tolist()
    overall_best = carry.best
    overall_last, node = carry.nodes.tolist()
    preds: list[int] = []
    append = preds.append
    for qubit_a, qubit_b, gate_delay in zip(
        o0.tolist(), o1.tolist(), lut[kinds].tolist()
    ):
        best = qubit_dist[qubit_a]
        if best > 0.0:
            pred = qubit_last[qubit_a]
        else:
            best = 0.0
            pred = -1
        if qubit_b >= 0:
            chain = qubit_dist[qubit_b]
            if chain > best:
                best = chain
                pred = qubit_last[qubit_b]
        total = best + gate_delay
        append(pred)
        qubit_dist[qubit_a] = total
        qubit_last[qubit_a] = node
        if qubit_b >= 0:
            qubit_dist[qubit_b] = total
            qubit_last[qubit_b] = node
        if total > overall_best:
            overall_best = total
            overall_last = node
        node += 1
    carry.qubit_dist[:] = qubit_dist
    carry.qubit_last[:] = qubit_last
    carry.best_length[0] = overall_best
    carry.nodes[:] = (overall_last, node)
    return np.array(preds, dtype=np.int64)


def walk_path(node: int, preds: np.ndarray) -> np.ndarray:
    """The chain ending at ``node`` (``-1`` = none), in execution order,
    through the int64 predecessor column ``preds`` of every node so far
    (an array, or a memory map of a spilled one)."""
    view = memoryview(np.ascontiguousarray(preds, dtype=np.int64))
    path: list[int] = []
    while node != -1:
        path.append(node)
        node = view[node]
    path.reverse()
    return np.array(path, dtype=np.int64)


def column_lengths(
    kinds: np.ndarray,
    o0: np.ndarray,
    o1: np.ndarray,
    matrix: np.ndarray,
    num_qubits: int,
) -> np.ndarray:
    """The longest-chain length under every column of the ``(kinds,
    points)`` delay ``matrix``: :func:`critical_path_chunk` once per
    column."""
    lengths = np.zeros(matrix.shape[1])
    for point in range(matrix.shape[1]):
        carry = CriticalPathCarry(num_qubits)
        critical_path_chunk(kinds, o0, o1, matrix[:, point], carry)
        lengths[point] = carry.best
    return lengths


class Recurrence(NamedTuple):
    """One implementation of the recurrence's entries (see the module
    docstring): ``chunk(kinds, o0, o1, lut, carry) -> preds``,
    ``walk(node, preds) -> path`` and ``lengths(kinds, o0, o1, matrix,
    num_qubits) -> lengths``."""

    chunk: Callable[..., np.ndarray]
    walk: Callable[[int, np.ndarray], np.ndarray]
    lengths: Callable[..., np.ndarray]


_PYTHON_RECURRENCE = Recurrence(critical_path_chunk, walk_path, column_lengths)


def recurrence() -> Recurrence:
    """The compiled recurrence, or the Python one when the kernel's
    shared object cannot be built or loaded — with a
    :class:`RuntimeWarning` and one ``kernel.fallbacks{entry=critical}``
    count."""
    try:
        # Imported here: repro.qspr imports repro.qodg.
        from ..qspr import _kernel

        _kernel.load()
    except (ImportError, AttributeError, OSError, RuntimeError) as error:
        warnings.warn(
            f"compiled critical-path kernel unavailable ({error}); falling "
            "back to the Python recurrence",
            RuntimeWarning,
            stacklevel=3,
        )
        default_registry().inc("kernel.fallbacks", entry="critical")
        return _PYTHON_RECURRENCE
    return Recurrence(
        _kernel.critical_chunk, _kernel.critical_walk, _kernel.critical_lengths
    )


def _require_two_operands(table: GateTable) -> None:
    """Reject a gate over more than two qubits: the recurrence reads
    operand pairs (the FT gate set, the only one the estimator accepts,
    is all one- and two-qubit gates)."""
    arities = table.arities()
    if len(arities) and int(arities.max()) > 2:
        offender = int(np.argmax(arities > 2))
        raise GraphError(
            f"the critical-path sweep supports one- and two-qubit gates "
            f"only; gate kind {table.gate_kind(offender).value!r} touches "
            f"{int(arities[offender])} qubits (run FT synthesis first)"
        )


def sweep_critical_path_lengths(
    table: GateTable, delays: np.ndarray | Sequence[Sequence[float]]
) -> np.ndarray:
    """Critical-path lengths of one circuit under many delay tables.

    Parameters
    ----------
    table:
        The circuit's gate table.
    delays:
        Array of shape ``(len(KINDS_BY_CODE), points)``: row ``code``
        holds the node delay of kind ``KINDS_BY_CODE[code]`` at every
        point (operation delay plus the point's routing latency), i.e.
        one :func:`~repro.qodg.critical_path.kind_delay_lut` per column.
        Rows of kinds the table does not use may be ``NaN``.

    Returns
    -------
    numpy.ndarray
        ``points`` lengths; entry ``p`` is bitwise equal to
        ``sweep_critical_path(circuit, delays_p).length`` for the
        kind→delay table described by column ``p``.

    Raises
    ------
    GraphError
        If ``delays`` has the wrong shape or a negative entry, a kind the
        table uses has no delay, or a gate touches more than two qubits
        (decompose first).
    """
    matrix = np.ascontiguousarray(delays, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != len(KINDS_BY_CODE):
        raise GraphError(
            f"delays must have shape ({len(KINDS_BY_CODE)}, points), "
            f"got {matrix.shape}"
        )
    if (matrix < 0).any():
        raise GraphError("negative delay in batched critical-path tables")
    _require_two_operands(table)
    missing = first_missing_kind(matrix, table.kind)
    if missing is not None:
        raise GraphError(f"no delay for gate kind {missing.value!r}")
    o0, o1 = table.operand_pairs()
    return recurrence().lengths(table.kind, o0, o1, matrix, table.num_qubits)


def sweep_critical_path(
    circuit: Circuit, delays: Mapping[GateKind, float]
) -> CriticalPathResult:
    """Longest dependency-chain latency of a circuit in one pass.

    Equivalent to building the QODG and running
    :func:`repro.qodg.critical_path.critical_path` under the same
    kind→delay table, without constructing the graph.  See that function
    for the result contract.

    The table is checked against the circuit's kinds (see
    :func:`~repro.qodg.critical_path.checked_delay_lut`), then the whole
    circuit runs through the :func:`recurrence`'s chunk entry as one
    chunk and its walk entry backtracks the path.

    Raises
    ------
    GraphError
        As :func:`sweep_critical_path_lengths` does, for a gate over more
        than two qubits, and as ``checked_delay_lut`` does for a missing
        or negative delay.
    """
    table = circuit.table()
    _require_two_operands(table)
    lut = checked_delay_lut(table, delays)
    entries = recurrence()
    carry = CriticalPathCarry(circuit.num_qubits)
    preds = entries.chunk(table.kind, *table.operand_pairs(), lut, carry)
    path = entries.walk(carry.best_node, preds)
    return path_result(carry.best, path, table.kind)
