"""Quantum operation dependency graph (QODG) construction.

Paper, section 2: "a quantum algorithm may be represented as a quantum
operation dependency graph (QODG), in which nodes represent FT quantum
operations and edges capture data dependencies".  A one-qubit operation has
one edge in and one out; a two-qubit operation two in and two out.  Edges
between the same node pair are merged, a *start* node feeds the first
operation on every qubit and an *end* node collects the last.

The graph is its CSR arrays: flat predecessor and successor adjacency in
compressed-sparse-row form, plus each qubit's operations in program
order.  Because gates are threaded in program order the node numbering is
already a topological order (start and end follow the operations), which
every sweep over the graph exploits.  For table-backed circuits of one-
and two-qubit gates (the array-native front-end) the arrays are built
**straight from the flat :class:`~repro.circuits.table.GateTable`** in
one vectorized per-qubit threading pass, with no Gate objects; every
other circuit threads its Gate objects into per-node rows and packs them
into the same arrays.  Both builders produce bitwise-identical arrays
(asserted by ``tests/test_table_equivalence.py``).  A
:meth:`QODG.to_networkx` export exists for interoperability and visual
debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate
from ..exceptions import GraphError

__all__ = ["QODG", "build_qodg"]


@dataclass(frozen=True, eq=False)
class QODG:
    """The dependency DAG of a circuit's operations, as CSR arrays.

    Node ids: operations are ``0 .. num_ops - 1`` in program order;
    :attr:`start` is ``num_ops`` and :attr:`end` is ``num_ops + 1``.
    Listing the operations in increasing id order, after start and before
    end, is a valid topological order, so consumers sweep the arrays
    front to back without a separate ordering pass.

    The predecessors of node ``n`` are
    ``pred_indices[pred_indptr[n]:pred_indptr[n + 1]]``, in operand order
    (controls first); its successors are the matching ``succ_*`` row, in
    increasing id order.  ``qubit_indptr``/``qubit_ops`` give, per
    logical qubit, the operations touching it in program order.  All six
    arrays are int64.
    """

    circuit: Circuit
    pred_indptr: np.ndarray
    pred_indices: np.ndarray
    succ_indptr: np.ndarray
    succ_indices: np.ndarray
    qubit_indptr: np.ndarray
    qubit_ops: np.ndarray

    @property
    def num_nodes(self) -> int:
        """Total node count including start and end."""
        return len(self.pred_indptr) - 1

    @property
    def num_ops(self) -> int:
        """Number of operation nodes (excludes start/end)."""
        return self.num_nodes - 2

    @property
    def start(self) -> int:
        """The start node's id."""
        return self.num_nodes - 2

    @property
    def end(self) -> int:
        """The end node's id."""
        return self.num_nodes - 1

    @property
    def num_edges(self) -> int:
        """Total merged edge count."""
        return len(self.succ_indices)

    def gate(self, node: int) -> Gate:
        """The gate at an operation node.

        Raises
        ------
        GraphError
            For the start/end nodes or out-of-range ids.
        """
        if not 0 <= node < self.num_ops:
            raise GraphError(f"node {node} is not an operation node")
        table = self.circuit.table_if_ready()
        if table is not None:
            return table.gate(node)
        return self.circuit.gates[node]

    def predecessors(self, node: int) -> tuple[int, ...]:
        """Predecessor node ids."""
        return self._row(node, self.pred_indptr, self.pred_indices)

    def successors(self, node: int) -> tuple[int, ...]:
        """Successor node ids."""
        return self._row(node, self.succ_indptr, self.succ_indices)

    def _row(
        self, node: int, indptr: np.ndarray, indices: np.ndarray
    ) -> tuple[int, ...]:
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node id {node} out of range")
        return tuple(indices[indptr[node] : indptr[node + 1]].tolist())

    def in_degrees(self) -> np.ndarray:
        """Merged in-degree of every node (ops, then start, then end)."""
        return np.diff(self.pred_indptr)

    def out_degrees(self) -> np.ndarray:
        """Merged out-degree of every node (ops, then start, then end)."""
        return np.diff(self.succ_indptr)

    def op_indegrees(self) -> np.ndarray:
        """In-degree of each operation node *excluding* start edges.

        The ready-set seed for list scheduling: an op with zero remaining
        operation predecessors may run immediately.
        """
        counts = self.in_degrees()[: self.num_ops]
        # Start-edge targets are exactly the first op on each qubit.
        start = self.start
        heads = self.succ_indices[
            self.succ_indptr[start] : self.succ_indptr[start + 1]
        ]
        np.subtract.at(counts, heads[heads != self.end], 1)
        return counts

    def ops_of_qubit(self, qubit: int) -> np.ndarray:
        """Program-order op indices touching one logical qubit."""
        return self.qubit_ops[
            self.qubit_indptr[qubit] : self.qubit_indptr[qubit + 1]
        ]

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` with ``gate`` node attributes."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_node(self.start, role="start")
        graph.add_node(self.end, role="end")
        for node in range(self.num_ops):
            graph.add_node(node, gate=self.gate(node))
        sources = np.repeat(np.arange(self.num_nodes), self.out_degrees())
        graph.add_edges_from(
            zip(sources.tolist(), self.succ_indices.tolist())
        )
        return graph

    def __repr__(self) -> str:
        return (
            f"QODG(ops={self.num_ops}, edges={self.num_edges}, "
            f"circuit={self.circuit.name!r})"
        )


def _csr_from_table(table, start: int, end: int) -> tuple[np.ndarray, ...]:
    """One vectorized per-qubit threading pass over a flat gate table.

    Reproduces the object threading bit for bit: successor rows hold
    increasing targets (with ``end`` last), predecessor rows hold sources
    in operand order (controls first) with in-gate duplicates merged, and
    ``preds[end]`` lists distinct last-touchers in qubit order.  Returns
    the six arrays in :class:`QODG` field order.
    """
    num_ops = len(table)
    num_qubits = table.num_qubits
    o0, o1 = table.operand_pairs()
    # Flatten operand occurrences in (gate, slot) order; slot order is
    # controls-then-targets, exactly the order the object threading walks.
    flat_q = np.empty(num_ops * 2, dtype=np.int64)
    flat_q[0::2] = o0
    flat_q[1::2] = o1
    valid = flat_q >= 0
    flat_q = flat_q[valid]
    flat_op = np.repeat(np.arange(num_ops, dtype=np.int64), 2)[valid]
    # Per-qubit program-order rows via one stable counting sort.
    order = np.argsort(flat_q, kind="stable")
    sorted_ops = flat_op[order]
    counts = np.bincount(flat_q, minlength=num_qubits)
    qubit_indptr = np.zeros(num_qubits + 1, dtype=np.int64)
    np.cumsum(counts, out=qubit_indptr[1:])
    # Previous op on the same qubit for every occurrence (start if first).
    prev = np.empty_like(sorted_ops)
    prev[1:] = sorted_ops[:-1]
    row_starts = qubit_indptr[:-1][counts > 0]
    prev[row_starts] = start
    # Scatter back to (gate, slot) order.
    src_sorted_inverse = np.empty_like(prev)
    src_sorted_inverse[order] = prev
    src_all = np.full(num_ops * 2, -2, dtype=np.int64)
    src_all[valid] = src_sorted_inverse
    src0 = src_all[0::2]
    src1 = src_all[1::2]
    # In-gate merge: the second operand contributes an edge only when its
    # source differs from the first's (the "combine parallel edges" rule).
    keep2 = (src1 != -2) & (src1 != src0)
    # End edges: distinct last-touchers, first occurrence in qubit order.
    lasts = sorted_ops[qubit_indptr[1:][counts > 0] - 1]
    _, first_idx = np.unique(lasts, return_index=True)
    end_preds = lasts[np.sort(first_idx)]
    # Predecessor CSR: ops rows, empty start row, end row.
    pred_counts = np.empty(num_ops + 2, dtype=np.int64)
    pred_counts[:num_ops] = 1 + keep2
    pred_counts[num_ops] = 0
    pred_counts[num_ops + 1] = len(end_preds)
    pred_indptr = np.zeros(num_ops + 3, dtype=np.int64)
    np.cumsum(pred_counts, out=pred_indptr[1:])
    pred_indices = np.empty(int(pred_indptr[-1]), dtype=np.int64)
    base = pred_indptr[:num_ops]
    pred_indices[base] = src0
    pred_indices[(base + 1)[keep2]] = src1[keep2]
    pred_indices[pred_indptr[num_ops + 1] :] = end_preds
    # Successor CSR from the unique directed-edge list, grouped by source
    # with targets increasing (end sorts last: its id exceeds every op's).
    ops_ids = np.arange(num_ops, dtype=np.int64)
    pair_u = np.concatenate((src0, src1[keep2], end_preds))
    pair_v = np.concatenate(
        (ops_ids, ops_ids[keep2], np.full(len(end_preds), end, dtype=np.int64))
    )
    edge_order = np.lexsort((pair_v, pair_u))
    succ_counts = np.bincount(pair_u, minlength=num_ops + 2)[: num_ops + 2]
    succ_indptr = np.zeros(num_ops + 3, dtype=np.int64)
    np.cumsum(succ_counts, out=succ_indptr[1:])
    return (
        pred_indptr,
        pred_indices,
        succ_indptr,
        pair_v[edge_order],
        qubit_indptr,
        sorted_ops,
    )


def _pack(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of per-node rows, row order kept."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, rows), np.int64, count=len(rows)),
        out=indptr[1:],
    )
    indices = np.fromiter(
        chain.from_iterable(rows), np.int64, count=int(indptr[-1])
    )
    return indptr, indices


def _csr_from_gates(circuit: Circuit) -> tuple[np.ndarray, ...]:
    """Object threading (any gate arity), packed into the six arrays.

    The reference construction the vectorized table pass is checked
    against; returns the arrays in :class:`QODG` field order.
    """
    num_ops = len(circuit)
    start, end = num_ops, num_ops + 1
    preds: list[list[int]] = [[] for _ in range(num_ops + 2)]
    succs: list[list[int]] = [[] for _ in range(num_ops + 2)]
    qubit_rows: list[list[int]] = [[] for _ in range(circuit.num_qubits)]
    # last_node[q] = node that last touched qubit q (start if none yet).
    last_node = [start] * circuit.num_qubits
    for index, gate in enumerate(circuit.gates):
        for qubit in gate.iter_qubits():
            qubit_rows[qubit].append(index)
            source = last_node[qubit]
            # Merge parallel edges (paper: "the edges are combined in
            # order to keep the graph simple").
            if not succs[source] or succs[source][-1] != index:
                succs[source].append(index)
                preds[index].append(source)
            last_node[qubit] = index
    for source in last_node:
        if source == start:
            continue  # idle qubit: no operations, no start->end edge
        if not succs[source] or succs[source][-1] != end:
            succs[source].append(end)
            preds[end].append(source)
    return (*_pack(preds), *_pack(succs), *_pack(qubit_rows))


def build_qodg(circuit: Circuit) -> QODG:
    """Build the QODG of a circuit (any gate kinds; typically FT).

    Table-backed circuits of one- and two-qubit gates take the vectorized
    CSR path; anything else threads Gate objects.
    """
    table = circuit.table_if_ready()
    if table is not None and table.max_operands() <= 2:
        num_ops = len(table)
        return QODG(circuit, *_csr_from_table(table, num_ops, num_ops + 1))
    return QODG(circuit, *_csr_from_gates(circuit))
