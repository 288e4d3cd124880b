"""Critical-path (longest-path) analysis of a QODG.

The latency model of the paper's Equation (1) needs, for the *mapped*
QODG (operation delays augmented with average routing latencies), the
longest start-to-end path and the per-gate-kind operation counts along it:
``N_CNOT^critical`` and ``N_g^critical`` for each one-qubit FT kind ``g``.
A node's delay depends on its gate kind alone, so node delays enter as one
kind→delay table, resolved for every node by one gather over the circuit's
kind column.

Because QODG node ids are already a topological order, the longest path is
a single O(V + E) sweep (the DAG algorithm the paper's supplement cites
from Cormen et al., chapter 24).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import KIND_CODES, KINDS_BY_CODE, GateKind
from ..circuits.table import GateTable
from ..exceptions import GraphError
from .graph import QODG

__all__ = [
    "CriticalPathResult",
    "checked_delay_lut",
    "critical_path",
    "first_missing_kind",
    "kind_delay_lut",
    "path_result",
    "resolve_node_delays",
]


@dataclass(frozen=True)
class CriticalPathResult:
    """Result of a critical-path computation.

    Attributes
    ----------
    length:
        Total delay along the longest start-to-end path (the latency ``D``
        when node delays include routing latencies).
    node_ids:
        Operation node ids along the path, in execution order (start and
        end excluded).
    counts_by_kind:
        Number of operations of each :class:`GateKind` on the path.
    cnot_count:
        ``N_CNOT^critical`` — CNOT operations on the path.
    """

    length: float
    node_ids: tuple[int, ...]
    counts_by_kind: dict[GateKind, int]
    cnot_count: int


def path_result(
    length: float, path: np.ndarray, codes: np.ndarray
) -> CriticalPathResult:
    """Wrap a path (a contiguous int64 array of node ids in execution
    order) into a result, counting it by kind; ``codes`` is the
    circuit's kind-code column."""
    counts = np.bincount(codes[path], minlength=len(KINDS_BY_CODE))
    by_kind = {
        KINDS_BY_CODE[code]: count
        for code, count in enumerate(counts.tolist())
        if count
    }
    return CriticalPathResult(
        length=length,
        # Straight from the buffer: no intermediate list beside the
        # array (8 B/node less peak on a million-gate streamed path).
        node_ids=tuple(memoryview(path)),
        counts_by_kind=by_kind,
        cnot_count=by_kind.get(GateKind.CNOT, 0),
    )


def kind_delay_lut(kind_table: Mapping[GateKind, float]) -> np.ndarray:
    """Per-kind delays indexed by kind code; ``NaN`` marks a missing kind.

    Gathering it with a table's kind column resolves every node delay in
    one vectorized lookup.
    """
    lut = np.full(len(KINDS_BY_CODE), np.nan)
    for kind, value in kind_table.items():
        lut[KIND_CODES[kind]] = value
    return lut


def first_missing_kind(lut: np.ndarray, codes: np.ndarray) -> GateKind | None:
    """The kind of the first gate whose delay ``lut`` lacks, if any.

    ``lut`` is indexed by kind code along its first axis — a
    :func:`kind_delay_lut`, or a ``(kinds, points)`` stack of them — and
    ``NaN`` marks a missing delay (at any point).  ``codes`` is the
    gates' kind column in program order, so callers can name the first
    offending gate's kind in their own error.
    """
    missing = np.isnan(lut)
    if missing.ndim > 1:
        missing = missing.any(axis=1)
    hits = missing[codes]
    if not hits.any():
        return None
    return KINDS_BY_CODE[int(codes[int(np.argmax(hits))])]


def checked_delay_lut(
    table: GateTable, delays: Mapping[GateKind, float]
) -> np.ndarray:
    """The kind→delay table as a :func:`kind_delay_lut`, checked against
    the kinds ``table`` uses.

    Raises
    ------
    GraphError
        If a kind the table uses has no delay, or at the first gate, in
        program order, whose delay is negative.
    """
    lut = kind_delay_lut(delays)
    missing = first_missing_kind(lut, table.kind)
    if missing is not None:
        raise GraphError(
            f"no delay registered for gate kind {missing.value!r}"
        )
    if (lut < 0).any():
        resolved = lut[table.kind]
        if resolved.size and float(resolved.min()) < 0:
            offender = int(np.argmax(resolved < 0))
            raise GraphError(
                f"negative delay {resolved[offender]} for gate "
                f"{table.gate(offender)}"
            )
    return lut


def resolve_node_delays(
    circuit: Circuit, delays: Mapping[GateKind, float]
) -> list[float]:
    """Every gate's node delay, in program order: one gather of the
    checked kind→delay table (:func:`checked_delay_lut`, which raises the
    :class:`GraphError`) over the circuit's kind column, with no Gate
    objects."""
    table = circuit.table()
    return checked_delay_lut(table, delays)[table.kind].tolist()


def critical_path(
    qodg: QODG, delays: Mapping[GateKind, float]
) -> CriticalPathResult:
    """Longest start-to-end path of the QODG under per-kind node delays.

    Parameters
    ----------
    qodg:
        The dependency graph.
    delays:
        Node delay of each :class:`GateKind` the circuit uses (operation
        delay plus, in LEQA's usage, the average routing latency of the
        kind, as Eq. 1 has it).  Start and end nodes have zero delay.

    Returns
    -------
    CriticalPathResult
        Longest-path length, the path itself and per-kind counts.

    Notes
    -----
    An empty circuit yields length 0 and an empty path.  Ties between
    equally-long predecessor paths keep the first predecessor in operand
    order (controls first), making results deterministic.
    """
    num_ops = qodg.num_ops
    start, end = qodg.start, qodg.end
    # dist[node] = longest path length ending at (and including) node.
    dist = [0.0] * (num_ops + 2)
    best_pred = [-1] * (num_ops + 2)
    node_delays = resolve_node_delays(qodg.circuit, delays)
    # Hot path: walk flat CSR lists rather than the bounds-checked
    # accessor, one predecessor slice per node.
    pred_indptr = qodg.pred_indptr.tolist()
    pred_indices = qodg.pred_indices.tolist()
    for node in range(num_ops):
        best = 0.0
        pred_choice = start
        for pred in pred_indices[pred_indptr[node] : pred_indptr[node + 1]]:
            pred_dist = dist[pred]
            if pred_dist > best:
                best = pred_dist
                pred_choice = pred
        dist[node] = best + node_delays[node]
        best_pred[node] = pred_choice
    best = 0.0
    pred_choice = start
    for pred in pred_indices[pred_indptr[end] :]:
        if dist[pred] > best:
            best = dist[pred]
            pred_choice = pred
    dist[end] = best
    best_pred[end] = pred_choice

    # Backtrack the path.
    path: list[int] = []
    node = best_pred[end]
    while node != start and node != -1:
        path.append(node)
        node = best_pred[node]
    path.reverse()
    return path_result(
        dist[end], np.array(path, dtype=np.int64), qodg.circuit.table().kind
    )
