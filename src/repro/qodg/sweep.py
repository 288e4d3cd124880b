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

The recurrence exists once, as :func:`critical_path_chunk`: it consumes
one chunk of operand/delay columns and threads a
:class:`CriticalPathCarry` (per-qubit chain state, best node so far, next
node id) into the next chunk, and :func:`backtrack` walks the returned
predecessors into a :class:`CriticalPathResult`.
:func:`sweep_critical_path` is the one-chunk case over a materialized
circuit; :func:`repro.circuits.stream.estimate_stream` feeds it one
spilled chunk at a time.  Both return the same result as
:func:`repro.qodg.critical_path.critical_path`; only tie-breaking between
equally long paths may differ.  Node delays enter as one kind→delay table
(Eq. 1 sets a node's delay by its gate kind alone), gathered over the kind
column, and only one- and two-qubit gates are accepted — the FT gate set.

Parameter sweeps add a second shape of demand: the *same* circuit under
*many* per-kind delay tables (a Table-1 sensitivity grid, a fabric-size
sweep — every point changes only the node delays reaching the critical
path).  :func:`sweep_critical_path_lengths` runs the same recurrence over
the same columns — the table's kind codes and
:meth:`~repro.circuits.table.GateTable.operand_pairs` — with a
``(kinds, points)`` delay matrix: the per-qubit chain state becomes a
``(num_qubits, points)`` array and each gate is one ``maximum`` plus one
add over the point axis.  Per point this is several times cheaper than
repeating the scalar sweep, and the per-point lengths are *bitwise*
equal to it (same IEEE operations in the same order).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import KINDS_BY_CODE, GateKind
from ..circuits.table import GateTable
from ..exceptions import GraphError
from .critical_path import (
    CriticalPathResult,
    first_missing_kind,
    path_result,
    resolve_node_delays,
)

__all__ = [
    "CriticalPathCarry",
    "backtrack",
    "critical_path_chunk",
    "sweep_critical_path",
    "sweep_critical_path_lengths",
]


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
    points = matrix.shape[1]
    if not len(table):
        return np.zeros(points)
    # Chain state per qubit, batched over the point axis.  Kept as a
    # list of row arrays so a gate's update *rebinds* its operand rows
    # to the freshly allocated chain vector instead of copying into a
    # 2D array — every row is written whole, never mutated, so sharing
    # (including the single initial zero row) is safe.  Entries are
    # non-decreasing, so the final elementwise maximum over rows is the
    # overall longest-path length at every point.
    zero = np.zeros(points)
    dist: list[np.ndarray] = [zero] * table.num_qubits
    rows = list(matrix)
    maximum = np.maximum
    o0, o1 = table.operand_pairs()
    for code, qubit_a, qubit_b in zip(
        table.kind.tolist(), o0.tolist(), o1.tolist()
    ):
        if qubit_b >= 0:
            total = maximum(dist[qubit_a], dist[qubit_b])
            total += rows[code]
            dist[qubit_a] = total
            dist[qubit_b] = total
        else:
            dist[qubit_a] = dist[qubit_a] + rows[code]
    return np.max(np.vstack(dist), axis=0)


class CriticalPathCarry:
    """Chain state of the critical-path recurrence between chunks.

    Per qubit, the length of the longest chain ending at its last gate
    and that gate's node id (``-1`` = the virtual start node); the
    longest chain so far and its end node; and the id the next chunk's
    first gate gets.
    """

    __slots__ = ("qubit_dist", "qubit_last", "best", "best_node", "next_node")

    def __init__(self, num_qubits: int) -> None:
        self.qubit_dist = [0.0] * num_qubits
        self.qubit_last = [-1] * num_qubits
        self.best = 0.0
        self.best_node = -1
        self.next_node = 0


def critical_path_chunk(
    o0: Iterable[int],
    o1: Iterable[int],
    delays: Iterable[float],
    carry: CriticalPathCarry,
) -> list[int]:
    """Run the longest-chain recurrence over one chunk of gates.

    ``o0``/``o1`` are the gates' operand columns (``o1 = -1`` for
    one-qubit gates, as :meth:`~repro.circuits.table.GateTable.operand_pairs`
    returns them) and ``delays`` their non-negative node delays.  Updates
    ``carry`` in place and returns each gate's predecessor on its longest
    chain (``-1`` = the start node), so feeding a circuit through in any
    number of chunks with one carry gives the same floats and the same
    predecessors as one chunk.  Ties keep the first operand's chain.
    """
    qubit_dist = carry.qubit_dist
    qubit_last = carry.qubit_last
    overall_best = carry.best
    overall_last = carry.best_node
    node = carry.next_node
    preds: list[int] = []
    append = preds.append
    for qubit_a, qubit_b, gate_delay in zip(o0, o1, delays):
        best = qubit_dist[qubit_a]
        if best > 0.0:
            pred = qubit_last[qubit_a]
        else:
            # A zero-length chain hangs off the virtual start node.
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
    carry.best = overall_best
    carry.best_node = overall_last
    carry.next_node = node
    return preds


def backtrack(
    carry: CriticalPathCarry, preds: Sequence[int], codes: np.ndarray
) -> CriticalPathResult:
    """The longest chain, walked back from ``carry``'s best node.

    ``preds`` and ``codes`` are the predecessor and kind-code columns of
    every node so far; ``preds`` must yield Python ints (a list, or a
    memoryview over a spilled int64 column).
    """
    path: list[int] = []
    node = carry.best_node
    while node != -1:
        path.append(node)
        node = preds[node]
    path.reverse()
    node_ids = tuple(path)
    # The tuple shares the int objects; dropping the list now frees its
    # slot array (8 B/node) before the path is counted.
    del path
    return path_result(carry.best, node_ids, codes)


def sweep_critical_path(
    circuit: Circuit, delays: Mapping[GateKind, float]
) -> CriticalPathResult:
    """Longest dependency-chain latency of a circuit in one pass.

    Equivalent to building the QODG and running
    :func:`repro.qodg.critical_path.critical_path` under the same
    kind→delay table, without constructing the graph.  See that function
    for the result contract.

    Node delays resolve in one gather over the kind column (see
    :func:`~repro.qodg.critical_path.resolve_node_delays`), then the
    whole circuit runs through :func:`critical_path_chunk` as one chunk.

    Raises
    ------
    GraphError
        As :func:`sweep_critical_path_lengths` does, for a gate over more
        than two qubits, and as ``resolve_node_delays`` does for a
        missing or negative delay.
    """
    table = circuit.table()
    _require_two_operands(table)
    node_delays = resolve_node_delays(circuit, delays)
    o0, o1 = table.operand_pairs()
    carry = CriticalPathCarry(circuit.num_qubits)
    preds = critical_path_chunk(o0.tolist(), o1.tolist(), node_delays, carry)
    return backtrack(carry, preds, table.kind)
