"""Interaction intensity graph (IIG) — paper section 3.1.

Nodes are logical qubits; an undirected edge ``e_ij`` connects qubits that
interact through at least one two-qubit operation, weighted by the number
of such operations ``w(e_ij)``.  One-qubit gates add nothing (no
self-loops).  From the IIG the estimator reads, for each qubit ``n_i``:

* ``M_i = deg(n_i)`` — the neighbour count that sizes the presence zone
  (Eq. 6), and
* ``sum_j w(e_ij)`` — the adjacent weight sum used to weight zone areas and
  uncongested latencies in Eqs. (7) and (12).

The graph is its CSR arrays.  Each edge is stored in both endpoints'
rows, and every row lists its neighbours in **first-interaction order**,
so array consumers (weighted centroids, zone sums) accumulate in one
fixed sequence whichever way the graph was built: by the object walk, by
the :class:`IIGAccumulator` over any chunking of a gate stream, or by
decoding a stored graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..circuits.circuit import Circuit
from ..exceptions import GraphError

__all__ = ["IIG", "IIGAccumulator", "build_iig"]


@dataclass(frozen=True, eq=False)
class IIG:
    """Weighted undirected interaction graph over logical qubits, as CSR.

    The neighbours of qubit ``q`` are ``indices[indptr[q]:indptr[q + 1]]``
    with matching edge weights in ``weights``, in first-interaction
    order.  ``degrees`` and ``weight_sums`` — the per-qubit ``M_i`` and
    ``sum_j w(e_ij)`` the estimator stages read — are derived from the
    rows at construction.  All five arrays are int64.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray = field(init=False)
    weight_sums: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        running = np.concatenate(([0], np.cumsum(self.weights)))
        object.__setattr__(self, "degrees", np.diff(self.indptr))
        object.__setattr__(
            self,
            "weight_sums",
            running[self.indptr[1:]] - running[self.indptr[:-1]],
        )

    @property
    def num_qubits(self) -> int:
        """Number of logical qubits (graph nodes)."""
        return len(self.degrees)

    @property
    def num_edges(self) -> int:
        """Number of distinct interacting pairs."""
        return len(self.indices) // 2

    @property
    def total_weight(self) -> int:
        """Sum of all edge weights (= number of two-qubit operations)."""
        return int(self.weights.sum()) // 2

    def weight(self, qubit_a: int, qubit_b: int) -> int:
        """``w(e_ij)``; zero when the qubits never interact."""
        self._check(qubit_b)
        partners = self._row(qubit_a, self.indices)
        if qubit_b not in partners:
            return 0
        return self._row(qubit_a, self.weights)[partners.index(qubit_b)]

    def neighbors(self, qubit: int) -> tuple[int, ...]:
        """Interaction partners of the qubit."""
        return tuple(self._row(qubit, self.indices))

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(i, j, weight)`` with ``i < j`` once per edge."""
        indptr = self.indptr.tolist()
        indices = self.indices.tolist()
        weights = self.weights.tolist()
        for i in range(self.num_qubits):
            for at in range(indptr[i], indptr[i + 1]):
                if i < indices[at]:
                    yield (i, indices[at], weights[at])

    def _row(self, qubit: int, column: np.ndarray) -> list[int]:
        self._check(qubit)
        return column[self.indptr[qubit] : self.indptr[qubit + 1]].tolist()

    def _check(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise GraphError(f"qubit index {qubit} out of range")

    def to_networkx(self):
        """Export as a weighted ``networkx.Graph``."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_qubits))
        graph.add_weighted_edges_from(self.edges())
        return graph

    def __repr__(self) -> str:
        return (
            f"IIG(qubits={self.num_qubits}, edges={self.num_edges}, "
            f"total_weight={self.total_weight})"
        )


class IIGAccumulator:
    """Chunk-wise interaction pair counting.

    Every two-qubit row adds the directed keys ``a << 32 | b`` and
    ``b << 32 | a``, numbered in stream order (packing by shifting, not
    by register size, because a stream's register can grow).  New keys
    wait as pending until they outnumber the folded ones; a fold runs one
    ``np.unique`` over the folded keys followed by the pending ones, so
    each key's first index is its first interaction, and sums the counts.
    :meth:`finish` orders each source's neighbours by that first
    interaction, so the graph is the same for any chunking, and
    :func:`build_iig` on a table-backed circuit is the one-chunk case.
    """

    def __init__(self) -> None:
        self._num_qubits = 0
        #: Folded keys (unique, ascending), each one's first stream
        #: number and its count.
        self._keys = np.empty(0, dtype=np.int64)
        self._first = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        #: Keys folded so far, duplicates included: the stream number of
        #: the first pending key.
        self._numbered = 0
        self._pending: list[np.ndarray] = []
        self._pending_count = 0

    def update(self, table) -> None:
        """Add one :class:`~repro.circuits.table.GateTable` chunk's
        two-qubit interactions to the counts."""
        self._num_qubits = max(self._num_qubits, table.num_qubits)
        mask = table.arities() == 2
        if not mask.any():
            return
        # Operands in controls-then-targets order, as the object walk reads.
        o0, o1 = table.operand_pairs()
        qa = o0[mask].astype(np.int64)
        qb = o1[mask].astype(np.int64)
        keys = np.stack((qa << 32 | qb, qb << 32 | qa), axis=1).ravel()
        self._pending.append(keys)
        self._pending_count += len(keys)
        if self._pending_count > len(self._keys):
            self._fold()

    def _fold(self) -> None:
        folded = len(self._keys)
        pending = np.concatenate(self._pending)
        numbers = np.concatenate((
            self._first,
            np.arange(self._numbered, self._numbered + len(pending)),
        ))
        self._keys, first_at, inverse = np.unique(
            np.concatenate((self._keys, pending)),
            return_index=True,
            return_inverse=True,
        )
        self._first = numbers[first_at]
        counts = np.bincount(inverse[folded:], minlength=len(self._keys))
        counts[inverse[:folded]] += self._counts
        self._counts = counts
        self._numbered += len(pending)
        self._pending = []
        self._pending_count = 0

    def finish(self, num_qubits: int | None = None) -> IIG:
        """The accumulated graph as an :class:`IIG`."""
        if self._pending:
            self._fold()
        count = max(self._num_qubits, num_qubits or 0)
        sources = self._keys >> 32
        order = np.lexsort((self._first, sources))
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=count), out=indptr[1:])
        return IIG(
            indptr, self._keys[order] & 0xFFFFFFFF, self._counts[order]
        )


def build_iig(circuit: Circuit) -> IIG:
    """Build the IIG of a circuit in one pass.

    Every two-qubit gate contributes weight 1 to the edge between its two
    operands.  For FT circuits that means exactly the CNOTs; for synthesis-
    level circuits any gate of arity 2 counts (gates of arity >= 3 would be
    decomposed before LEQA runs and are ignored here with their pairwise
    interactions unspecified — pass FT circuits for paper-faithful use).

    Table-backed circuits are pair-counted vectorized as one
    :class:`IIGAccumulator` chunk; object-built circuits walk their gates
    into per-qubit dicts (insertion order is first-interaction order) and
    pack those rows into the same CSR arrays.
    """
    table = circuit.table_if_ready()
    if table is not None:
        accumulator = IIGAccumulator()
        accumulator.update(table)
        return accumulator.finish(circuit.num_qubits)
    adjacency: list[dict[int, int]] = [{} for _ in range(circuit.num_qubits)]
    for gate in circuit:
        if len(gate.controls) + len(gate.targets) == 2:
            qubit_a, qubit_b = gate.controls + gate.targets
            row_a = adjacency[qubit_a]
            row_a[qubit_b] = row_a.get(qubit_b, 0) + 1
            row_b = adjacency[qubit_b]
            row_b[qubit_a] = row_b.get(qubit_a, 0) + 1
    indptr = np.concatenate(
        ([0], np.cumsum([len(row) for row in adjacency], dtype=np.int64))
    )
    size = int(indptr[-1])
    return IIG(
        indptr,
        np.fromiter((j for row in adjacency for j in row), np.int64, size),
        np.fromiter(
            (w for row in adjacency for w in row.values()), np.int64, size
        ),
    )
