"""Tests that the fast critical-path sweep matches the QODG-based pass."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.decompose import synthesize_ft
from repro.circuits.gates import (
    FT_KINDS,
    GateKind,
    cnot,
    h,
    swap,
    t,
    toffoli,
    x,
)
from repro.circuits.generators import ham3, random_ft, random_reversible
from repro.core.estimator import LEQAEstimator
from repro.exceptions import GraphError
from repro.qodg.critical_path import critical_path, kind_delay_lut, path_result
from repro.qodg.graph import build_qodg
from repro.qodg.slack import analyze_slack
from repro.qodg.sweep import (
    CriticalPathCarry,
    critical_path_chunk,
    sweep_critical_path,
    sweep_critical_path_lengths,
    walk_path,
)

#: Distinct per-kind delays so ties are rare.
RANDOM_DELAYS = {
    GateKind.X: 1.0,
    GateKind.CNOT: 2.5,
    GateKind.TOFFOLI: 7.25,
    GateKind.H: 1.75,
    GateKind.T: 0.625,
    GateKind.TDG: 0.875,
}

#: Every gate kind at delay 1.
UNIT = dict.fromkeys(GateKind, 1.0)


class TestSweepMatchesGraphPass:
    def test_empty_circuit(self):
        result = sweep_critical_path(Circuit(3), UNIT)
        assert result.length == 0.0
        assert result.node_ids == ()

    def test_serial_chain(self):
        circuit = Circuit(1)
        circuit.extend([h(0), t(0), x(0)])
        result = sweep_critical_path(circuit, UNIT)
        assert result.length == 3.0
        assert result.node_ids == (0, 1, 2)

    def test_ham3_same_length_and_counts(self):
        circuit = ham3()

        delays = {**UNIT, GateKind.CNOT: 3.0}

        graph_result = critical_path(build_qodg(circuit), delays)
        sweep_result = sweep_critical_path(circuit, delays)
        assert sweep_result.length == pytest.approx(graph_result.length)
        assert sweep_result.cnot_count == graph_result.cnot_count

    def test_path_is_a_dependency_chain(self, adder_ft):
        result = sweep_critical_path(adder_ft, UNIT)
        qodg = build_qodg(adder_ft)
        for earlier, later in zip(result.node_ids, result.node_ids[1:]):
            assert earlier in qodg.predecessors(later)

    def test_negative_delay_rejected(self):
        circuit = Circuit(1)
        circuit.append(h(0))
        with pytest.raises(GraphError, match="negative delay -1.0"):
            sweep_critical_path(circuit, {GateKind.H: -1.0})

    @given(
        num_qubits=st.integers(3, 8),
        gate_count=st.integers(0, 80),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_graph_longest_path_on_random_circuits(
        self, num_qubits, gate_count, seed
    ):
        # FT lowering: the sweep takes one- and two-qubit gates only.
        circuit = synthesize_ft(
            random_reversible(num_qubits, gate_count, seed)
        )
        graph_result = critical_path(build_qodg(circuit), RANDOM_DELAYS)
        sweep_result = sweep_critical_path(circuit, RANDOM_DELAYS)
        assert sweep_result.length == pytest.approx(graph_result.length)
        # Path delays must sum to the length in both representations.
        assert sum(
            RANDOM_DELAYS[circuit[n].kind] for n in sweep_result.node_ids
        ) == pytest.approx(sweep_result.length)

    def test_estimator_fast_path_matches_qodg_path(self, adder_ft):
        from repro.fabric.params import PhysicalParams, FabricSpec

        estimator = LEQAEstimator(
            params=PhysicalParams(fabric=FabricSpec(10, 10))
        )
        fast = estimator.estimate(adder_ft)
        explicit = critical_path(
            build_qodg(adder_ft), estimator.node_delay(fast.l_avg_cnot)
        )
        assert fast.latency == pytest.approx(explicit.length)
        assert fast.critical.cnot_count == explicit.cnot_count

    def test_multi_qubit_gate_rejected_alike_by_both_sweeps(self):
        circuit = Circuit(3)
        circuit.extend([h(0), toffoli(0, 1, 2), cnot(0, 1)])
        with pytest.raises(GraphError) as one:
            sweep_critical_path(circuit, RANDOM_DELAYS)
        with pytest.raises(GraphError) as batched:
            sweep_critical_path_lengths(
                circuit.table(), kind_delay_lut(RANDOM_DELAYS)[:, None]
            )
        assert str(one.value) == str(batched.value)
        assert "'toffoli' touches 3 qubits" in str(one.value)


class TestCriticalPathChunk:
    @given(
        num_qubits=st.integers(2, 8),
        gate_count=st.integers(0, 120),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_chunking_equals_one_chunk(
        self, num_qubits, gate_count, seed, data
    ):
        table = random_ft(num_qubits, gate_count, seed).table()
        # Few distinct delays (zero included) so ties and zero-length
        # chains cross chunk boundaries often.
        kind_delays = {
            kind: data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
            for kind in FT_KINDS
        }
        lut = kind_delay_lut(kind_delays)
        rows = len(table)
        cuts = sorted(data.draw(st.lists(st.integers(0, rows), max_size=6)))
        kinds = table.kind
        o0, o1 = table.operand_pairs()
        carry = CriticalPathCarry(num_qubits)
        preds = np.concatenate(
            [
                np.empty(0, dtype=np.int64),
                *(
                    critical_path_chunk(
                        kinds[lo:hi], o0[lo:hi], o1[lo:hi], lut, carry
                    )
                    for lo, hi in zip([0, *cuts], [*cuts, rows])
                ),
            ]
        )
        chunked = path_result(
            carry.best, walk_path(carry.best_node, preds), kinds
        )
        one = CriticalPathCarry(num_qubits)
        whole_preds = critical_path_chunk(kinds, o0, o1, lut, one)
        whole = path_result(
            one.best, walk_path(one.best_node, whole_preds), kinds
        )
        assert chunked.length.hex() == whole.length.hex()
        assert chunked.node_ids == whole.node_ids
        assert chunked.counts_by_kind == whole.counts_by_kind
        assert carry.next_node == rows


class TestErrorParity:
    """A kind table that lacks a kind the circuit uses raises one
    ``GraphError``, naming that kind, from every critical-path entry."""

    @staticmethod
    def _circuit_with_swap() -> Circuit:
        circuit = Circuit(2, qubit_names=("a", "b"))
        circuit.extend([h(0), cnot(0, 1), swap(0, 1)])
        return circuit

    @pytest.mark.parametrize(
        "entry",
        [
            sweep_critical_path,
            lambda circuit, delays: critical_path(build_qodg(circuit), delays),
            lambda circuit, delays: analyze_slack(build_qodg(circuit), delays),
        ],
        ids=["sweep", "graph", "slack"],
    )
    @pytest.mark.parametrize(
        "delays",
        [{GateKind.H: 1.0, GateKind.CNOT: 2.0}, LEQAEstimator().node_delay(0.0)],
        ids=["mapping", "pipeline-table"],
    )
    def test_missing_kind_raises_graph_error(self, entry, delays):
        with pytest.raises(
            GraphError, match="^no delay registered for gate kind 'swap'$"
        ):
            entry(self._circuit_with_swap(), delays)
