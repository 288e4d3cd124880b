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
fixed sequence whichever way the graph was built: by the
:class:`IIGAccumulator` over any chunking of a gate stream (the compiled
pair count or its numpy fallback; :func:`build_iig` is the one-chunk
case), or by decoding a stored graph.
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


class _PairFold:
    """The numpy pair count, :class:`IIGAccumulator`'s fallback: new keys
    wait as pending until they outnumber the folded ones (unique, in
    first-interaction order); a fold runs one ``np.unique`` over the
    folded keys followed by the pending ones, so each key's first index
    is its first interaction, and sums the counts.  A chunk is checked
    as the compiled count checks it, before any state is touched."""

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        self._pending: list[np.ndarray] = []
        self._pending_count = 0

    def update(self, table) -> None:
        num_qubits = table.num_qubits
        bad = (table.target < 0) | (table.target >= num_qubits)
        for column in (table.ctrl, table.ctrl2, table.target2):
            bad |= (column < -1) | (column >= num_qubits)
        bad |= (table.ctrl < 0) & (table.ctrl2 >= 0)
        bad |= table.extra_counts() < 0
        mask = table.arities() == 2
        o0, o1 = table.operand_pairs()
        qa = o0[mask].astype(np.int64)
        qb = o1[mask].astype(np.int64)
        if bad.any() or (qa == qb).any():
            raise ValueError(
                "IIG pair count: operand outside the register or repeated"
            )
        if not len(qa):
            return
        keys = np.stack((qa << 32 | qb, qb << 32 | qa), axis=1).ravel()
        self._pending.append(keys)
        self._pending_count += len(keys)
        if self._pending_count > len(self._keys):
            self._fold()

    def _fold(self) -> None:
        if self._pending:
            folded = len(self._keys)
            keys, first_at, inverse = np.unique(
                np.concatenate((self._keys, *self._pending)),
                return_index=True,
                return_inverse=True,
            )
            counts = np.bincount(inverse[folded:], minlength=len(keys))
            counts[inverse[:folded]] += self._counts
            order = np.argsort(first_at)
            self._keys, self._counts = keys[order], counts[order]
            self._pending = []
            self._pending_count = 0

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        self._fold()
        return self._keys, self._counts


class IIGAccumulator:
    """Chunk-wise interaction pair counting.

    Every two-qubit row adds the directed keys ``a << 32 | b`` and
    ``b << 32 | a`` (operands controls-then-targets, packed by shifting
    because a stream's register can grow), counted by the shared object
    (:class:`~repro.qspr._kernel.PairCounter`) or, with a
    :class:`RuntimeWarning` and one ``kernel.fallbacks{entry=iig}``
    count, by the numpy ``_PairFold``.  Both hand :meth:`finish` the keys
    in first-interaction order, which it keeps within each source's row,
    so any chunking gives the same graph.
    """

    def __init__(self) -> None:
        # Imported here: repro.qspr imports repro.qodg.
        from ..qspr import _kernel

        self._num_qubits = 0
        self._counter = _kernel.select(
            "iig", _kernel.PairCounter, _PairFold,
            "compiled IIG pair-count kernel unavailable ({error}); "
            "falling back to the numpy pair count",
        )()

    def update(self, table) -> None:
        """Add one :class:`~repro.circuits.table.GateTable` chunk's
        two-qubit interactions to the counts."""
        self._num_qubits = max(self._num_qubits, table.num_qubits)
        self._counter.update(table)

    def finish(self, num_qubits: int | None = None) -> IIG:
        """The accumulated graph as an :class:`IIG`."""
        count = max(self._num_qubits, num_qubits or 0)
        keys, counts = self._counter.pairs()
        # Sorting each key's source over its index orders the rows by
        # source and each row by first interaction.
        sources = keys >> 32
        order = np.sort(sources << 32 | np.arange(len(keys))) & 0xFFFFFFFF
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=count), out=indptr[1:])
        return IIG(indptr, keys[order] & 0xFFFFFFFF, counts[order])


def build_iig(circuit: Circuit) -> IIG:
    """Build the IIG of a circuit in one pass.

    Every two-qubit gate contributes weight 1 to the edge between its two
    operands.  For FT circuits that means exactly the CNOTs; for synthesis-
    level circuits any gate of arity 2 counts (gates of arity >= 3 would be
    decomposed before LEQA runs and are ignored here with their pairwise
    interactions unspecified — pass FT circuits for paper-faithful use).

    The circuit's :class:`~repro.circuits.table.GateTable` is counted as
    one :class:`IIGAccumulator` chunk.
    """
    accumulator = IIGAccumulator()
    accumulator.update(circuit.table())
    return accumulator.finish(circuit.num_qubits)
