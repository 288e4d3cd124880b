"""Interaction intensity graph (IIG) — paper section 3.1.

Nodes are logical qubits; an undirected edge ``e_ij`` connects qubits that
interact through at least one two-qubit operation, weighted by the number
of such operations ``w(e_ij)``.  One-qubit gates add nothing (no
self-loops).  From the IIG the estimator reads, for each qubit ``n_i``:

* ``M_i = deg(n_i)`` — the neighbour count that sizes the presence zone
  (Eq. 6), and
* ``sum_j w(e_ij)`` — the adjacent weight sum used to weight zone areas and
  uncongested latencies in Eqs. (7) and (12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..circuits.circuit import Circuit
from ..exceptions import GraphError

__all__ = ["IIG", "IIGAccumulator", "IIGArrays", "build_iig"]


@dataclass(frozen=True)
class IIGArrays:
    """Structure-of-arrays (CSR) core of an :class:`IIG`.

    The neighbours of qubit ``q`` are
    ``indices[indptr[q]:indptr[q + 1]]`` with matching edge weights in
    ``weights`` — stored in first-interaction order, exactly the order
    the object API's :meth:`IIG.neighbors` reports, so array consumers
    reproduce dict-walking results bit for bit (weighted centroids sum in
    the same sequence).  ``degrees``/``weight_sums`` are the per-qubit
    ``M_i`` and ``sum_j w(e_ij)`` the estimator stages read.
    """

    indptr: "object"
    indices: "object"
    weights: "object"
    degrees: "object"
    weight_sums: "object"

    @property
    def num_qubits(self) -> int:
        """Number of logical qubits (graph nodes)."""
        return len(self.degrees)

    def neighbors_of(self, qubit: int):
        """CSR row view of one qubit's interaction partners."""
        return self.indices[self.indptr[qubit] : self.indptr[qubit + 1]]

    def weights_of(self, qubit: int):
        """Edge weights aligned with :meth:`neighbors_of`."""
        return self.weights[self.indptr[qubit] : self.indptr[qubit + 1]]


class IIG:
    """Weighted undirected interaction graph over logical qubits.

    Built incrementally with :meth:`add_interaction`; typically constructed
    by :func:`build_iig` from a circuit in one pass over its gates.
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 0:
            raise GraphError("num_qubits must be non-negative")
        self._num_qubits = num_qubits
        # adjacency[i][j] = w(e_ij); symmetric, no self loops.
        self._adjacency: list[dict[int, int]] = [dict() for _ in range(num_qubits)]
        self._total_weight = 0
        # (version, IIGArrays) — rebuilt when mutations bump the version.
        self._version = 0
        self._arrays: tuple[int, IIGArrays] | None = None

    @property
    def num_qubits(self) -> int:
        """Number of logical qubits (graph nodes)."""
        return self._num_qubits

    @property
    def num_edges(self) -> int:
        """Number of distinct interacting pairs."""
        return sum(len(adj) for adj in self._adjacency) // 2

    @property
    def total_weight(self) -> int:
        """Sum of all edge weights (= number of two-qubit operations)."""
        return self._total_weight

    def add_interaction(self, qubit_a: int, qubit_b: int, weight: int = 1) -> None:
        """Record ``weight`` two-qubit operations between the two qubits."""
        if qubit_a == qubit_b:
            raise GraphError("IIG has no self-loops (one-qubit ops excluded)")
        for qubit in (qubit_a, qubit_b):
            if not 0 <= qubit < self._num_qubits:
                raise GraphError(f"qubit index {qubit} out of range")
        if weight <= 0:
            raise GraphError(f"interaction weight must be positive, got {weight}")
        self._adjacency[qubit_a][qubit_b] = (
            self._adjacency[qubit_a].get(qubit_b, 0) + weight
        )
        self._adjacency[qubit_b][qubit_a] = (
            self._adjacency[qubit_b].get(qubit_a, 0) + weight
        )
        self._total_weight += weight
        self._version += 1

    def degree(self, qubit: int) -> int:
        """``M_i``: number of distinct interaction partners of the qubit."""
        self._check(qubit)
        return len(self._adjacency[qubit])

    def weight(self, qubit_a: int, qubit_b: int) -> int:
        """``w(e_ij)``; zero when the qubits never interact."""
        self._check(qubit_a)
        self._check(qubit_b)
        return self._adjacency[qubit_a].get(qubit_b, 0)

    def adjacent_weight_sum(self, qubit: int) -> int:
        """``sum_j w(e_ij)`` over the qubit's IIG neighbours."""
        self._check(qubit)
        return sum(self._adjacency[qubit].values())

    def arrays(self) -> IIGArrays:
        """The CSR (structure-of-arrays) view, built lazily and cached.

        Neighbour rows preserve first-interaction (dict insertion) order;
        the cached view is invalidated by :meth:`add_interaction`.
        """
        if self._arrays is not None and self._arrays[0] == self._version:
            return self._arrays[1]
        import numpy as np

        count = self._num_qubits
        indptr = np.zeros(count + 1, dtype=np.int64)
        for i, row in enumerate(self._adjacency):
            indptr[i + 1] = indptr[i] + len(row)
        indices = np.fromiter(
            (j for row in self._adjacency for j in row),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        weights = np.fromiter(
            (w for row in self._adjacency for w in row.values()),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        degrees = indptr[1:] - indptr[:-1]
        weight_sums = np.fromiter(
            (sum(row.values()) for row in self._adjacency),
            dtype=np.int64,
            count=count,
        )
        view = IIGArrays(
            indptr=indptr,
            indices=indices,
            weights=weights,
            degrees=degrees,
            weight_sums=weight_sums,
        )
        self._arrays = (self._version, view)
        return view

    def interaction_arrays(self):
        """``(degrees, weights)`` over all qubits as numpy int64 arrays.

        ``degrees[i] = M_i`` and ``weights[i] = sum_j w(e_ij)`` — the two
        per-qubit quantities the vectorized estimator stages consume,
        read straight off the cached CSR core.
        """
        view = self.arrays()
        return view.degrees, view.weight_sums

    def neighbors(self, qubit: int) -> tuple[int, ...]:
        """Interaction partners of the qubit."""
        self._check(qubit)
        return tuple(self._adjacency[qubit])

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(i, j, weight)`` with ``i < j`` once per edge."""
        for i, adj in enumerate(self._adjacency):
            for j, weight in adj.items():
                if i < j:
                    yield (i, j, weight)

    def _check(self, qubit: int) -> None:
        if not 0 <= qubit < self._num_qubits:
            raise GraphError(f"qubit index {qubit} out of range")

    def to_networkx(self):
        """Export as a weighted ``networkx.Graph``."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._num_qubits))
        graph.add_weighted_edges_from(self.edges())
        return graph

    def __repr__(self) -> str:
        return (
            f"IIG(qubits={self._num_qubits}, edges={self.num_edges}, "
            f"total_weight={self._total_weight})"
        )


class IIGAccumulator:
    """Chunk-wise interaction pair counting.

    Per chunk, two-qubit rows are pair-counted with one ``np.unique``
    over encoded directed pairs, and the adjacency dicts are updated
    edge by edge in **first-interaction order** (recovered from the
    first-occurrence indices with a ``lexsort``).  Each chunk appends its
    *new* neighbours in that order, so the finished graph — including
    the CSR view's row ordering the estimator's weighted sums depend on
    — is the same for any chunking, and :func:`build_iig` on a
    table-backed circuit is the one-chunk case.
    """

    def __init__(self) -> None:
        self._adjacency: list[dict[int, int]] = []
        self._total_weight = 0

    def update(self, table) -> None:
        """Fold one :class:`~repro.circuits.table.GateTable` chunk's
        two-qubit interactions into the counts."""
        import numpy as np

        num_qubits = table.num_qubits
        while len(self._adjacency) < num_qubits:
            self._adjacency.append({})
        mask = table.arities() == 2
        total = int(mask.sum())
        if not total:
            return
        # Operands in controls-then-targets order, as the object walk reads.
        ctrl = table.ctrl[mask]
        target = table.target[mask]
        has_ctrl = ctrl >= 0
        qa = np.where(has_ctrl, ctrl, target)
        qb = np.where(has_ctrl, target, table.target2[mask])
        # Directed pairs in chronological order: (a->b, b->a) per gate.
        keys = np.stack(
            (qa * num_qubits + qb, qb * num_qubits + qa), axis=1
        ).ravel()
        unique_keys, first_idx, counts = np.unique(
            keys, return_index=True, return_counts=True
        )
        sources, dests = np.divmod(unique_keys, num_qubits)
        # Per source qubit, neighbours in first-interaction order.
        order = np.lexsort((first_idx, sources))
        adjacency = self._adjacency
        for src, dst, weight in zip(
            sources[order].tolist(),
            dests[order].tolist(),
            counts[order].tolist(),
        ):
            row = adjacency[src]
            row[dst] = row.get(dst, 0) + weight
        self._total_weight += total

    def finish(self, num_qubits: int | None = None) -> IIG:
        """The accumulated graph as an :class:`IIG`."""
        count = max(len(self._adjacency), num_qubits or 0)
        iig = IIG(count)
        while len(self._adjacency) < count:
            self._adjacency.append({})
        iig._adjacency = self._adjacency
        iig._total_weight = self._total_weight
        iig._version += 1
        return iig


def build_iig(circuit: Circuit) -> IIG:
    """Build the IIG of a circuit in one pass.

    Every two-qubit gate contributes weight 1 to the edge between its two
    operands.  For FT circuits that means exactly the CNOTs; for synthesis-
    level circuits any gate of arity 2 counts (gates of arity >= 3 would be
    decomposed before LEQA runs and are ignored here with their pairwise
    interactions unspecified — pass FT circuits for paper-faithful use).

    Table-backed circuits are pair-counted vectorized as one
    :class:`IIGAccumulator` chunk (one ``np.unique`` over the flat operand
    columns — edges, not gates, cost Python work); object-built circuits
    walk their gates as before.
    """
    table = circuit.table_if_ready()
    if table is not None:
        accumulator = IIGAccumulator()
        accumulator.update(table)
        return accumulator.finish(circuit.num_qubits)
    iig = IIG(circuit.num_qubits)
    # Hot loop: inlined adjacency update (same effect as add_interaction
    # with weight 1, minus per-call validation — operands were validated
    # at circuit construction).
    adjacency = iig._adjacency
    total = 0
    for gate in circuit:
        if len(gate.controls) + len(gate.targets) == 2:
            qubit_a, qubit_b = gate.controls + gate.targets
            row_a = adjacency[qubit_a]
            row_a[qubit_b] = row_a.get(qubit_b, 0) + 1
            row_b = adjacency[qubit_b]
            row_b[qubit_a] = row_b.get(qubit_a, 0) + 1
            total += 1
    iig._total_weight += total
    iig._version += 1
    return iig
