"""Scheduling-slack analysis of a QODG.

The paper stresses that routing latencies "change the scheduling slacks
and hence may change the critical path of the entire graph" — the reason
LEQA adds `L^avg` terms to node delays *before* taking the critical path.
This module quantifies that effect: ASAP/ALAP times and per-node slack
under a given delay assignment, plus a helper that reports which
operations join or leave the zero-slack (critical) set when routing
latencies are added.  As for the critical path, node delays are one
kind→delay table, resolved over the circuit's kind column without
materializing a Gate.

Both passes are O(V + E) sweeps over the QODG's CSR fields, forward over
the predecessor rows and backward over the successor rows; node ids are
already a topological order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..circuits.gates import GateKind
from .critical_path import resolve_node_delays
from .graph import QODG

__all__ = ["SlackAnalysis", "analyze_slack", "critical_set_shift"]


@dataclass(frozen=True)
class SlackAnalysis:
    """ASAP/ALAP schedule and slack per operation node.

    Attributes
    ----------
    asap_start:
        Earliest start time per operation (as-soon-as-possible schedule).
    alap_start:
        Latest start time per operation that preserves the makespan.
    slack:
        ``alap_start - asap_start`` per operation; zero on the critical
        path.
    makespan:
        The critical-path length under the given delays.
    """

    asap_start: tuple[float, ...]
    alap_start: tuple[float, ...]
    slack: tuple[float, ...]
    makespan: float

    def critical_nodes(self, tolerance: float = 1e-12) -> tuple[int, ...]:
        """Operation nodes with (near-)zero slack.

        ``tolerance`` is relative to the makespan: a node is critical when
        its slack is at most ``tolerance * makespan``.  Start times are
        sums of many delays, so a critical node's computed slack can be a
        few ulps of the makespan rather than exactly zero.
        """
        bound = tolerance * self.makespan
        return tuple(
            node for node, s in enumerate(self.slack) if s <= bound
        )


def analyze_slack(
    qodg: QODG, delays: Mapping[GateKind, float]
) -> SlackAnalysis:
    """Compute ASAP/ALAP times and slack for every operation node.

    Parameters
    ----------
    qodg:
        The dependency graph.
    delays:
        Node delay of each gate kind (same contract as
        :func:`repro.qodg.critical_path.critical_path`).
    """
    num_ops = qodg.num_ops
    durations = resolve_node_delays(qodg.circuit, delays)
    # Both sweeps read the CSR fields as flat lists: index ranges instead
    # of per-node tuple-allocating accessors.
    start, end = qodg.start, qodg.end
    pred_indptr = qodg.pred_indptr.tolist()
    pred_indices = qodg.pred_indices.tolist()
    succ_indptr = qodg.succ_indptr.tolist()
    succ_indices = qodg.succ_indices.tolist()
    # ASAP forward sweep (program order is topological).
    asap = [0.0] * num_ops
    for node in range(num_ops):
        earliest = 0.0
        for slot in range(pred_indptr[node], pred_indptr[node + 1]):
            pred = pred_indices[slot]
            if pred == start:
                continue
            finish = asap[pred] + durations[pred]
            if finish > earliest:
                earliest = finish
        asap[node] = earliest
    makespan = max(
        (asap[node] + durations[node] for node in range(num_ops)),
        default=0.0,
    )
    # ALAP backward sweep.
    alap = [0.0] * num_ops
    for node in range(num_ops - 1, -1, -1):
        latest_finish = makespan
        for slot in range(succ_indptr[node], succ_indptr[node + 1]):
            succ = succ_indices[slot]
            if succ == end:
                continue
            if alap[succ] < latest_finish:
                latest_finish = alap[succ]
        alap[node] = latest_finish - durations[node]
    slack = [alap[node] - asap[node] for node in range(num_ops)]
    return SlackAnalysis(
        asap_start=tuple(asap),
        alap_start=tuple(alap),
        slack=tuple(slack),
        makespan=makespan,
    )


def critical_set_shift(
    qodg: QODG,
    before: Mapping[GateKind, float],
    after: Mapping[GateKind, float],
) -> dict[str, tuple[int, ...]]:
    """How the zero-slack set changes when routing latencies are added.

    ``before`` and ``after`` are kind→delay tables: the operation delays
    alone, and with each kind's routing latency added.

    Returns a dict with three node tuples: ``"joined"`` (critical only
    with routing), ``"left"`` (critical only without) and ``"stable"``
    (critical in both) — a direct illustration of the paper's remark that
    the mapped QODG's critical path may differ from the original's.
    """
    unrouted = set(analyze_slack(qodg, before).critical_nodes())
    routed = set(analyze_slack(qodg, after).critical_nodes())
    return {
        "joined": tuple(sorted(routed - unrouted)),
        "left": tuple(sorted(unrouted - routed)),
        "stable": tuple(sorted(unrouted & routed)),
    }
