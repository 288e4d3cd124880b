"""Structural statistics of a QODG.

Descriptive metrics the benches and examples report next to latency
numbers: logical depth, available parallelism per level, operation mix,
and the degree profile of the dependency graph.  The paper's premise —
that real quantum programs expose enough parallelism for placement and
routing to matter — is directly visible in these profiles.

The level sweep reads the QODG's CSR predecessor rows; the operation mix
is one count over the circuit's kind column, with no Gate objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits.gates import GateKind
from .graph import QODG

__all__ = ["QODGStats", "compute_stats", "parallelism_profile"]


@dataclass(frozen=True)
class QODGStats:
    """Summary metrics of one dependency graph.

    Attributes
    ----------
    num_ops / num_edges:
        Graph size (operation nodes, merged edges).
    depth:
        Logical depth — number of ASAP levels (unit-delay critical path).
    max_width / average_width:
        Peak and mean operations per ASAP level (available parallelism).
    counts_by_kind:
        Operation mix.
    cnot_fraction:
        Share of two-qubit operations.
    """

    num_ops: int
    num_edges: int
    depth: int
    max_width: int
    average_width: float
    counts_by_kind: dict[GateKind, int]
    cnot_fraction: float


def parallelism_profile(qodg: QODG) -> list[int]:
    """Operations per unit-delay ASAP level.

    Level of an operation = 1 + max(level of predecessors); start feeds
    level 0.  The list's length is the circuit's logical depth, and entry
    ``i`` counts the operations executable in step ``i`` given unlimited
    resources — the upper bound on fabric parallelism.
    """
    num_ops = qodg.num_ops
    start = qodg.start
    pred_indptr = qodg.pred_indptr.tolist()
    pred_indices = qodg.pred_indices.tolist()
    level = [0] * num_ops
    for node in range(num_ops):
        deepest = -1
        for slot in range(pred_indptr[node], pred_indptr[node + 1]):
            pred = pred_indices[slot]
            if pred != start and level[pred] > deepest:
                deepest = level[pred]
        level[node] = deepest + 1
    if num_ops == 0:
        return []
    depth = max(level) + 1
    profile = [0] * depth
    for node_level in level:
        profile[node_level] += 1
    return profile


def compute_stats(qodg: QODG) -> QODGStats:
    """Compute :class:`QODGStats`: one O(V + E) level sweep and one
    kind count."""
    profile = parallelism_profile(qodg)
    num_ops = qodg.num_ops
    counts = qodg.circuit.table().counts_by_kind()
    cnots = counts.get(GateKind.CNOT, 0)
    return QODGStats(
        num_ops=num_ops,
        num_edges=qodg.num_edges,
        depth=len(profile),
        max_width=max(profile, default=0),
        average_width=(num_ops / len(profile)) if profile else 0.0,
        counts_by_kind=counts,
        cnot_fraction=(cnots / num_ops) if num_ops else 0.0,
    )
