#!/usr/bin/env python3
"""Inspecting a detailed mapping: traces, heatmaps and slack.

The paper observes that detailed mappers produce "the mapping solution
with the details of every qubit movement" — too much for latency
estimation, but exactly what an architect wants when a mapping looks
slow.  This walkthrough runs the mapper with tracing enabled and digs in:

1. per-ULB utilization and channel-traffic heatmaps,
2. the busiest execution sites and most-travelled qubits,
3. slack analysis showing how routing latencies reshape the critical
   path (the effect LEQA models by adding L^avg terms before the
   critical-path pass).

Run:  python examples/trace_analysis.py
"""

from repro import DEFAULT_PARAMS, GateKind, QSPRMapper, build_ft
from repro.analysis import congestion_heatmap, utilization_heatmap
from repro.qodg import analyze_slack, build_qodg, critical_set_shift
from repro.qspr import busiest_ulbs, qubit_travel

BENCH = "gf2^16mult"


def main() -> None:
    params = DEFAULT_PARAMS.with_fabric(24, 24)  # small fabric: visible heat
    circuit = build_ft(BENCH)
    print(f"mapping {BENCH}: {circuit.num_qubits} qubits, {len(circuit)} ops")
    result = QSPRMapper(params=params, record_trace=True).map(circuit)
    trace = result.schedule.trace
    print(f"actual latency: {result.latency_seconds:.3f} s "
          f"({result.elapsed_seconds:.2f} s to map)\n")

    # 1. Where did the machine spend its time?
    print(utilization_heatmap(trace, params.fabric.width, params.fabric.height))
    print()
    print(congestion_heatmap(trace, params.fabric.width, params.fabric.height))
    print()

    # 2. Hot spots.
    print("busiest ULBs (ops executed):")
    for ulb, count in busiest_ulbs(trace, count=5):
        print(f"  {ulb}: {count}")
    travel = qubit_travel(trace)
    most_travelled = sorted(travel, key=travel.get, reverse=True)[:5]
    print("most-travelled qubits (channel hops):")
    for qubit in most_travelled:
        print(f"  {circuit.qubit_names[qubit]}: {travel[qubit]}")
    print()

    # 3. How routing latencies reshape the critical path.
    qodg = build_qodg(circuit)
    without_routing = params.delays.by_kind()
    with_routing = {
        kind: delay + (800.0 if kind is GateKind.CNOT else 200.0)
        for kind, delay in without_routing.items()
    }

    shift = critical_set_shift(qodg, without_routing, with_routing)
    slack = analyze_slack(qodg, with_routing)
    print(
        f"critical operations without routing: "
        f"{len(shift['stable']) + len(shift['left'])}"
    )
    print(
        f"after adding routing latencies: {len(shift['joined'])} joined, "
        f"{len(shift['left'])} left, {len(shift['stable'])} stayed"
    )
    print(
        f"makespan with routing terms: {slack.makespan * 1e-6:.3f} s "
        "(the quantity LEQA estimates analytically)"
    )


if __name__ == "__main__":
    main()
