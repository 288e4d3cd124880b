"""Unit tests for slack analysis (repro.qodg.slack)."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import GateKind, cnot, h, t, x
from repro.circuits.library import build_ft
from repro.exceptions import GraphError
from repro.fabric.params import DEFAULT_PARAMS
from repro.fabric.tqa import TQA
from repro.qodg.critical_path import critical_path
from repro.qodg.graph import build_qodg
from repro.qodg.slack import analyze_slack, critical_set_shift
from repro.qspr.placement import row_major_placement
from repro.qspr.scheduling import schedule_circuit

#: Every gate kind at delay 1.
UNIT = dict.fromkeys(GateKind, 1.0)


class TestAnalyzeSlack:
    def test_serial_chain_all_critical(self):
        circuit = Circuit(1)
        circuit.extend([h(0), t(0), x(0)])
        analysis = analyze_slack(build_qodg(circuit), UNIT)
        assert analysis.makespan == 3.0
        assert analysis.slack == (0.0, 0.0, 0.0)
        assert analysis.asap_start == (0.0, 1.0, 2.0)
        assert analysis.alap_start == (0.0, 1.0, 2.0)

    def test_diamond_slack_on_short_branch(self):
        # q0: h (1 op); q1: h,t,x (3 ops); join cnot(0,1).
        circuit = Circuit(2)
        circuit.extend([h(0), h(1), t(1), x(1), cnot(0, 1)])
        analysis = analyze_slack(build_qodg(circuit), UNIT)
        assert analysis.makespan == 4.0
        # The lone h(0) can slide 2 time units.
        assert analysis.slack[0] == pytest.approx(2.0)
        assert analysis.slack[1:] == (0.0, 0.0, 0.0, 0.0)

    def test_makespan_matches_critical_path(self, adder_ft):
        qodg = build_qodg(adder_ft)

        delays = {**dict.fromkeys(GateKind, 2.0), GateKind.CNOT: 5.0}

        analysis = analyze_slack(qodg, delays)
        result = critical_path(qodg, delays)
        assert analysis.makespan == pytest.approx(result.length)

    def test_critical_path_nodes_have_zero_slack(self, adder_ft):
        qodg = build_qodg(adder_ft)
        analysis = analyze_slack(qodg, UNIT)
        result = critical_path(qodg, UNIT)
        critical = set(analysis.critical_nodes())
        for node in result.node_ids:
            assert node in critical
        # Routed delays on a ~5e7 us makespan: summed start times leave
        # critical nodes with slack of a few ulps of the makespan, far
        # above any absolute tolerance and far below any real slack.
        qodg = build_qodg(build_ft("gf2^16mult"))
        routed = {
            kind: delay
            + (777.77 if kind is GateKind.CNOT else 2 * DEFAULT_PARAMS.t_move)
            for kind, delay in DEFAULT_PARAMS.delays.by_kind().items()
        }
        critical = set(analyze_slack(qodg, routed).critical_nodes())
        missing = set(critical_path(qodg, routed).node_ids) - critical
        assert not missing, f"{len(missing)} critical-path ops lack zero slack"

    def test_slack_non_negative(self, adder_ft):
        analysis = analyze_slack(build_qodg(adder_ft), UNIT)
        assert all(s >= -1e-9 for s in analysis.slack)

    def test_empty_circuit(self):
        analysis = analyze_slack(build_qodg(Circuit(2)), UNIT)
        assert analysis.makespan == 0.0
        assert analysis.slack == ()

    def test_negative_delay_rejected(self):
        circuit = Circuit(1)
        circuit.append(h(0))
        with pytest.raises(GraphError, match="negative delay -1.0"):
            analyze_slack(build_qodg(circuit), {GateKind.H: -1.0})

    def test_table_backed_circuit_builds_no_gate_objects(self):
        # Node delays gather over the kind column: neither the slack
        # pass nor the ALAP visit order built on it materializes Gates.
        circuit = build_ft("ham3")
        assert circuit._gate_list is None
        analyze_slack(build_qodg(circuit), DEFAULT_PARAMS.delays.by_kind())
        placement = row_major_placement(
            circuit.num_qubits, TQA(DEFAULT_PARAMS.fabric)
        )
        schedule_circuit(circuit, placement, DEFAULT_PARAMS, order="alap")
        assert circuit._gate_list is None


class TestCriticalSetShift:
    def test_routing_can_move_the_critical_path(self):
        # Two parallel branches joined at the end:
        #   branch A: 3 one-qubit ops on q0;
        #   branch B: 2 CNOTs on (q1, q2).
        # Without routing: A (3) beats B (2). With heavy CNOT routing,
        # B's path dominates — the paper's slack-shift phenomenon.
        circuit = Circuit(3)
        circuit.extend([h(0), t(0), x(0), cnot(1, 2), cnot(2, 1)])
        qodg = build_qodg(circuit)

        without_routing = UNIT
        with_routing = {**UNIT, GateKind.CNOT: 5.0}

        shift = critical_set_shift(qodg, without_routing, with_routing)
        assert 3 in shift["joined"] and 4 in shift["joined"]
        assert set(shift["left"]) == {0, 1, 2}
        assert shift["stable"] == ()

    def test_no_shift_for_identical_delays(self, adder_ft):
        qodg = build_qodg(adder_ft)
        shift = critical_set_shift(qodg, UNIT, UNIT)
        assert shift["joined"] == ()
        assert shift["left"] == ()
        assert len(shift["stable"]) > 0
