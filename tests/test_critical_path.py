"""Unit tests for critical-path analysis (repro.qodg.critical_path)."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import GateKind, cnot, h, t, x
from repro.circuits.generators import cnot_ladder
from repro.exceptions import GraphError
from repro.qodg.critical_path import critical_path
from repro.qodg.graph import build_qodg

#: Every gate kind at delay 1.
UNIT = dict.fromkeys(GateKind, 1.0)


class TestClosedFormFixtures:
    def test_empty_circuit_has_zero_length(self):
        result = critical_path(build_qodg(Circuit(2)), UNIT)
        assert result.length == 0.0
        assert result.node_ids == ()

    def test_serial_chain_length_equals_gate_count(self):
        circuit = Circuit(1)
        circuit.extend([h(0), t(0), x(0)])
        result = critical_path(build_qodg(circuit), UNIT)
        assert result.length == 3.0
        assert result.node_ids == (0, 1, 2)

    def test_parallel_gates_do_not_add(self):
        circuit = Circuit(3)
        circuit.extend([h(0), h(1), h(2)])
        result = critical_path(build_qodg(circuit), UNIT)
        assert result.length == 1.0
        assert len(result.node_ids) == 1

    def test_cnot_ladder_is_fully_serial(self):
        circuit = cnot_ladder(6)
        result = critical_path(build_qodg(circuit), UNIT)
        assert result.length == 5.0
        assert result.cnot_count == 5

    def test_diamond_takes_longer_branch(self):
        # q0: h;  q1: h,t,x;  then cnot(0,1).  Longest path = 3 + 1.
        circuit = Circuit(2)
        circuit.extend([h(0), h(1), t(1), x(1), cnot(0, 1)])
        result = critical_path(build_qodg(circuit), UNIT)
        assert result.length == 4.0
        assert result.node_ids == (1, 2, 3, 4)

    def test_weighted_delays_change_winner(self):
        # Same diamond, with every H weighing 10.
        circuit = Circuit(2)
        circuit.extend([h(0), h(1), t(1), x(1), cnot(0, 1)])

        delays = {**UNIT, GateKind.H: 10.0}

        result = critical_path(build_qodg(circuit), delays)
        # q1 branch: 10 + 1 + 1 = 12; q0 branch: 10. Plus CNOT 1 -> 13.
        assert result.length == 13.0

    def test_counts_by_kind_on_path(self):
        circuit = Circuit(1)
        circuit.extend([h(0), t(0), t(0)])
        result = critical_path(build_qodg(circuit), UNIT)
        assert result.counts_by_kind == {GateKind.H: 1, GateKind.T: 2}

    def test_path_length_equals_sum_of_delays_on_path(self, adder_ft):
        qodg = build_qodg(adder_ft)

        delays = {**UNIT, GateKind.CNOT: 2.0}

        result = critical_path(qodg, delays)
        recomputed = sum(delays[qodg.gate(n).kind] for n in result.node_ids)
        assert result.length == pytest.approx(recomputed)

    def test_path_is_a_dependency_chain(self, adder_ft):
        qodg = build_qodg(adder_ft)
        result = critical_path(qodg, UNIT)
        for earlier, later in zip(result.node_ids, result.node_ids[1:]):
            assert earlier in qodg.predecessors(later)


class TestValidation:
    def test_negative_delay_rejected(self):
        circuit = Circuit(1)
        circuit.append(h(0))
        with pytest.raises(GraphError, match="negative delay"):
            critical_path(build_qodg(circuit), {GateKind.H: -1.0})

    def test_zero_delays_allowed(self):
        circuit = Circuit(1)
        circuit.extend([h(0), t(0)])
        result = critical_path(
            build_qodg(circuit), {GateKind.H: 0.0, GateKind.T: 0.0}
        )
        assert result.length == 0.0
