"""Unit tests for the QODG (repro.qodg.graph)."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import cnot, h, t, x
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
        assert qodg.in_degree(0) == 1
        assert qodg.out_degree(0) == 1

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

    def test_topological_order_is_start_ops_end(self):
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1)])
        qodg = build_qodg(circuit)
        assert list(qodg.topological_order()) == [2, 0, 1, 3]

    def test_topological_property_holds(self, adder_ft):
        qodg = build_qodg(adder_ft)
        order = {node: rank for rank, node in enumerate(qodg.topological_order())}
        for node in qodg.operation_nodes():
            for pred in qodg.predecessors(node):
                assert order[pred] < order[node]

    def test_edge_count_consistency(self, adder_ft):
        qodg = build_qodg(adder_ft)
        out_edges = sum(qodg.out_degree(n) for n in range(qodg.num_nodes))
        in_edges = sum(qodg.in_degree(n) for n in range(qodg.num_nodes))
        assert out_edges == in_edges == qodg.num_edges

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
    def test_csr_matches_adjacency_lists(self, adder_ft):
        qodg = build_qodg(adder_ft)
        csr = qodg.csr()
        for node in range(qodg.num_nodes):
            assert tuple(csr.predecessors_of(node)) == qodg.predecessors(node)
            assert tuple(csr.successors_of(node)) == qodg.successors(node)

    def test_degree_views_match_accessors(self, adder_ft):
        qodg = build_qodg(adder_ft)
        csr = qodg.csr()
        in_degrees = csr.in_degrees().tolist()
        out_degrees = csr.out_degrees().tolist()
        for node in range(qodg.num_nodes):
            assert in_degrees[node] == qodg.in_degree(node)
            assert out_degrees[node] == qodg.out_degree(node)

    def test_op_indegrees_exclude_start_edges(self):
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1)])
        qodg = build_qodg(circuit)
        counts = qodg.csr().op_indegrees().tolist()
        # h(0) is fed by start only; the CNOT depends on h(0) (qubit 0)
        # and start (qubit 1).
        assert counts == [0, 1]

    def test_per_qubit_operation_lists(self):
        circuit = Circuit(3)
        circuit.extend([h(0), cnot(0, 1), cnot(1, 2), h(2)])
        csr = build_qodg(circuit).csr()
        assert csr.ops_of_qubit(0).tolist() == [0, 1]
        assert csr.ops_of_qubit(1).tolist() == [1, 2]
        assert csr.ops_of_qubit(2).tolist() == [2, 3]

    def test_csr_is_cached(self, adder_ft):
        qodg = build_qodg(adder_ft)
        assert qodg.csr() is qodg.csr()
