"""Unit tests for the QODG (repro.qodg.graph)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import cnot, h, mcf, mct, t, toffoli, x
from repro.circuits.generators import ham3
from repro.qodg.graph import build_qodg
from repro.exceptions import GraphError


class TestStructure:
    def test_empty_circuit(self):
        qodg = build_qodg(Circuit(2))
        assert qodg.num_ops == 0
        assert qodg.num_nodes == 2  # start + end
        assert qodg.successors(qodg.start) == ()

    def test_single_one_qubit_op(self):
        circuit = Circuit(1)
        circuit.append(h(0))
        qodg = build_qodg(circuit)
        assert qodg.predecessors(0) == (qodg.start,)
        assert qodg.successors(0) == (qodg.end,)
        assert qodg.in_degrees().tolist() == [1, 0, 1]
        assert qodg.out_degrees().tolist() == [1, 1, 0]

    def test_chain_on_one_qubit(self):
        circuit = Circuit(1)
        circuit.extend([h(0), t(0), x(0)])
        qodg = build_qodg(circuit)
        assert qodg.successors(0) == (1,)
        assert qodg.successors(1) == (2,)
        assert qodg.predecessors(2) == (1,)

    def test_cnot_has_two_in_two_out_edges(self):
        circuit = Circuit(2)
        circuit.extend([h(0), h(1), cnot(0, 1), h(0), h(1)])
        qodg = build_qodg(circuit)
        assert set(qodg.predecessors(2)) == {0, 1}
        assert set(qodg.successors(2)) == {3, 4}

    def test_parallel_edges_merged(self):
        # Two CNOTs on the same pair: the second depends on the first via
        # BOTH qubits, but the QODG keeps a single merged edge.
        circuit = Circuit(2)
        circuit.extend([cnot(0, 1), cnot(0, 1)])
        qodg = build_qodg(circuit)
        assert qodg.successors(0) == (1,)
        assert qodg.predecessors(1) == (0,)

    def test_start_feeds_first_touch_of_each_qubit(self):
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1)])
        qodg = build_qodg(circuit)
        # h(0) gets start via qubit 0; the CNOT gets start via qubit 1.
        assert qodg.start in qodg.predecessors(1)
        assert qodg.predecessors(0) == (qodg.start,)

    def test_merged_start_edge_for_two_fresh_operands(self):
        circuit = Circuit(2)
        circuit.append(cnot(0, 1))
        qodg = build_qodg(circuit)
        assert qodg.predecessors(0) == (qodg.start,)  # merged, not doubled
        assert qodg.successors(qodg.start) == (0,)

    def test_idle_qubits_do_not_connect_start_to_end(self):
        circuit = Circuit(3)
        circuit.append(h(0))
        qodg = build_qodg(circuit)
        assert qodg.predecessors(qodg.end) == (0,)

    def test_ham3_figure2_counts(self):
        # Figure 2(b): 19 operation nodes plus start and end.
        qodg = build_qodg(ham3())
        assert qodg.num_ops == 19
        assert qodg.num_nodes == 21


def assert_csr(qodg, pred_indptr, pred_indices, succ_indptr, succ_indices,
               qubit_indptr, qubit_ops):
    """All six CSR arrays of ``qodg``, entry for entry."""
    expected = (pred_indptr, pred_indices, succ_indptr, succ_indices,
                qubit_indptr, qubit_ops)
    fields = ("pred_indptr", "pred_indices", "succ_indptr", "succ_indices",
              "qubit_indptr", "qubit_ops")
    for field, want in zip(fields, expected):
        assert getattr(qodg, field).tolist() == want, field


class TestWideGates:
    """Gates of three or more operands, threaded by hand.  Operands run
    controls first (extra controls after the second), then targets; a
    source repeated within one gate is one merged edge."""

    def test_toffoli_controls_share_a_predecessor(self):
        # 0: cnot(0, 1); 1: toffoli(0, 1; 2).  Both controls come from
        # op 0 (one merged edge), the target from start.  start=2, end=3.
        circuit = Circuit(3)
        circuit.extend([cnot(0, 1), toffoli(0, 1, 2)])
        qodg = build_qodg(circuit)
        assert qodg.predecessors(1) == (0, qodg.start)
        assert_csr(
            qodg,
            [0, 1, 3, 3, 4], [2, 0, 2, 1],
            [0, 1, 2, 4, 4], [1, 3, 0, 1],
            [0, 2, 4, 5], [0, 1, 0, 1, 1],
        )

    def test_four_control_mct(self):
        # 0: h(0); 1: h(3); 2: mct(0, 1, 2, 3; 4); 3: x(4); q5 idle.
        # The MCT's sources in operand order: op 0, start, start
        # (merged), op 1, start (merged).  start=4, end=5.
        circuit = Circuit(6)
        circuit.extend([h(0), h(3), mct((0, 1, 2, 3), 4), x(4)])
        qodg = build_qodg(circuit)
        assert qodg.predecessors(2) == (0, qodg.start, 1)
        assert_csr(
            qodg,
            [0, 1, 2, 5, 6, 6, 8], [4, 4, 0, 4, 1, 2, 2, 3],
            [0, 1, 2, 4, 5, 8, 8], [2, 2, 3, 5, 5, 0, 1, 2],
            [0, 2, 3, 4, 6, 8, 8], [0, 2, 2, 2, 1, 2, 2, 3],
        )

    def test_mcf(self):
        # 0: cnot(2, 3); 1: mcf(0, 1, 4; 2, 3); 2: h(1).  The MCF's
        # controls all come from start, both targets from op 0.
        # start=3, end=4.
        circuit = Circuit(5)
        circuit.extend([cnot(2, 3), mcf((0, 1, 4), 2, 3), h(1)])
        qodg = build_qodg(circuit)
        assert qodg.predecessors(1) == (qodg.start, 0)
        assert_csr(
            qodg,
            [0, 1, 3, 4, 4, 6], [3, 3, 0, 1, 1, 2],
            [0, 1, 3, 4, 6, 6], [1, 2, 4, 4, 0, 1],
            [0, 1, 3, 5, 7, 8], [1, 1, 2, 0, 1, 0, 1, 1],
        )

    def test_idle_qubit_between_wide_operands(self):
        # toffoli(0, 1; 3) leaves q2 idle: an empty qubit row and no
        # start->end edge.  start=1, end=2.
        circuit = Circuit(4)
        circuit.append(toffoli(0, 1, 3))
        qodg = build_qodg(circuit)
        assert_csr(
            qodg,
            [0, 1, 1, 2], [1, 0],
            [0, 1, 2, 2], [2, 0],
            [0, 1, 2, 2, 3], [0, 0, 0],
        )

    def test_end_row_follows_qubit_order(self):
        # 0: toffoli(1, 2; 3); 1: h(3); 2: cnot(1, 2); 3: x(0).  The last
        # toucher of q0..q3 is op 3, 2, 2, 1: the end row lists the
        # distinct ones in qubit order, (3, 2, 1).  start=4, end=5.
        circuit = Circuit(4)
        circuit.extend([toffoli(1, 2, 3), h(3), cnot(1, 2), x(0)])
        qodg = build_qodg(circuit)
        assert qodg.predecessors(qodg.end) == (3, 2, 1)
        assert_csr(
            qodg,
            [0, 1, 2, 3, 4, 4, 7], [4, 0, 0, 4, 3, 2, 1],
            [0, 2, 3, 4, 5, 7, 7], [1, 2, 5, 5, 5, 0, 3],
            [0, 1, 3, 5, 7], [3, 0, 2, 0, 2, 0, 1],
        )


class TestAccessors:
    def test_gate_lookup(self):
        circuit = Circuit(1)
        circuit.append(h(0))
        qodg = build_qodg(circuit)
        assert qodg.gate(0) == h(0)

    def test_gate_of_start_rejected(self):
        qodg = build_qodg(Circuit(1))
        with pytest.raises(GraphError, match="not an operation"):
            qodg.gate(qodg.start)

    def test_out_of_range_node_rejected(self):
        qodg = build_qodg(Circuit(1))
        with pytest.raises(GraphError, match="out of range"):
            qodg.predecessors(99)

    def test_node_numbering_is_ops_then_start_then_end(self):
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1)])
        qodg = build_qodg(circuit)
        assert (qodg.num_ops, qodg.start, qodg.end, qodg.num_nodes) == (
            2,
            2,
            3,
            4,
        )

    def test_program_order_is_topological(self, adder_ft):
        # Every operation's predecessors are start or an earlier op, and
        # the end node's are ops: ids order the DAG with start first.
        qodg = build_qodg(adder_ft)
        for node in range(qodg.num_ops):
            row = qodg.pred_indices[
                qodg.pred_indptr[node] : qodg.pred_indptr[node + 1]
            ]
            assert all(pred == qodg.start or pred < node for pred in row)
        end_row = qodg.pred_indices[qodg.pred_indptr[qodg.end] :]
        assert (end_row < qodg.start).all()

    def test_edge_count_consistency(self, adder_ft):
        qodg = build_qodg(adder_ft)
        assert qodg.in_degrees().sum() == qodg.out_degrees().sum()
        assert len(qodg.pred_indices) == qodg.num_edges
        assert len(qodg.succ_indices) == qodg.num_edges

    def test_to_networkx_roundtrip(self):
        nx = pytest.importorskip("networkx")
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1)])
        qodg = build_qodg(circuit)
        graph = qodg.to_networkx()
        assert graph.number_of_nodes() == qodg.num_nodes
        assert graph.number_of_edges() == qodg.num_edges
        assert nx.is_directed_acyclic_graph(graph)


class TestCSRCore:
    FIELDS = (
        "pred_indptr",
        "pred_indices",
        "succ_indptr",
        "succ_indices",
        "qubit_indptr",
        "qubit_ops",
    )

    def test_fields_are_int64_csr(self, adder_ft):
        qodg = build_qodg(adder_ft)
        for name in self.FIELDS:
            assert getattr(qodg, name).dtype == np.int64, name
        assert len(qodg.pred_indptr) == qodg.num_nodes + 1
        assert len(qodg.succ_indptr) == qodg.num_nodes + 1
        assert len(qodg.qubit_indptr) == adder_ft.num_qubits + 1
        assert qodg.qubit_indptr[-1] == len(qodg.qubit_ops)

    def test_rows_match_accessors(self, adder_ft):
        qodg = build_qodg(adder_ft)
        for node in range(qodg.num_nodes):
            pred_row = qodg.pred_indices[
                qodg.pred_indptr[node] : qodg.pred_indptr[node + 1]
            ]
            succ_row = qodg.succ_indices[
                qodg.succ_indptr[node] : qodg.succ_indptr[node + 1]
            ]
            assert tuple(pred_row.tolist()) == qodg.predecessors(node)
            assert tuple(succ_row.tolist()) == qodg.successors(node)

    def test_degree_views_are_row_lengths(self, adder_ft):
        qodg = build_qodg(adder_ft)
        in_degrees = qodg.in_degrees().tolist()
        out_degrees = qodg.out_degrees().tolist()
        for node in range(qodg.num_nodes):
            assert in_degrees[node] == len(qodg.predecessors(node))
            assert out_degrees[node] == len(qodg.successors(node))

    def test_op_indegrees_exclude_start_edges(self):
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1)])
        qodg = build_qodg(circuit)
        counts = qodg.op_indegrees().tolist()
        # h(0) is fed by start only; the CNOT depends on h(0) (qubit 0)
        # and start (qubit 1).
        assert counts == [0, 1]
        assert qodg.in_degrees().tolist() == [1, 2, 0, 1]

    def test_per_qubit_operation_lists(self):
        circuit = Circuit(3)
        circuit.extend([h(0), cnot(0, 1), cnot(1, 2), h(2)])
        qodg = build_qodg(circuit)
        assert qodg.ops_of_qubit(0).tolist() == [0, 1]
        assert qodg.ops_of_qubit(1).tolist() == [1, 2]
        assert qodg.ops_of_qubit(2).tolist() == [2, 3]

    def test_record_is_frozen(self, adder_ft):
        qodg = build_qodg(adder_ft)
        with pytest.raises(dataclasses.FrozenInstanceError):
            qodg.pred_indptr = qodg.succ_indptr
