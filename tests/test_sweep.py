"""Tests that the fast critical-path sweep matches the QODG-based pass."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.decompose import synthesize_ft
from repro.circuits.gates import FT_KINDS, GateKind, cnot, h, swap, t, x
from repro.circuits.generators import ham3, random_ft, random_reversible
from repro.circuits.table import table_from_gates
from repro.core.estimator import LEQAEstimator
from repro.exceptions import EstimationError, GraphError
from repro.qodg.critical_path import (
    critical_path,
    delays_from_mapping,
    kind_delay_lut,
)
from repro.qodg.graph import build_qodg
from repro.qodg.sweep import (
    CriticalPathCarry,
    backtrack,
    critical_path_chunk,
    sweep_critical_path,
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


def unit_delay(_gate):
    return 1.0


class TestSweepMatchesGraphPass:
    def test_empty_circuit(self):
        result = sweep_critical_path(Circuit(3), unit_delay)
        assert result.length == 0.0
        assert result.node_ids == ()

    def test_serial_chain(self):
        circuit = Circuit(1)
        circuit.extend([h(0), t(0), x(0)])
        result = sweep_critical_path(circuit, unit_delay)
        assert result.length == 3.0
        assert result.node_ids == (0, 1, 2)

    def test_ham3_same_length_and_counts(self):
        circuit = ham3()

        def delay(gate):
            return 3.0 if gate.kind is GateKind.CNOT else 1.0

        graph_result = critical_path(build_qodg(circuit), delay)
        sweep_result = sweep_critical_path(circuit, delay)
        assert sweep_result.length == pytest.approx(graph_result.length)
        assert sweep_result.cnot_count == graph_result.cnot_count

    def test_path_is_a_dependency_chain(self, adder_ft):
        result = sweep_critical_path(adder_ft, unit_delay)
        qodg = build_qodg(adder_ft)
        for earlier, later in zip(result.node_ids, result.node_ids[1:]):
            assert earlier in qodg.predecessors(later)

    @pytest.mark.parametrize(
        "delay",
        [lambda g: -1.0, delays_from_mapping({GateKind.H: -1.0})],
        ids=["per-gate", "per-kind"],
    )
    def test_negative_delay_rejected(self, delay):
        circuit = Circuit(1)
        circuit.append(h(0))
        with pytest.raises(GraphError, match="negative delay -1.0"):
            sweep_critical_path(circuit, delay)

    @given(
        num_qubits=st.integers(3, 8),
        gate_count=st.integers(0, 80),
        seed=st.integers(0, 10_000),
        lowered=st.booleans(),
        per_kind=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_graph_longest_path_on_random_circuits(
        self, num_qubits, gate_count, seed, lowered, per_kind
    ):
        circuit = random_reversible(num_qubits, gate_count, seed)
        if lowered:
            # Raw netlists with Toffolis take the graph pass itself; the
            # FT lowering keeps the recurrence under comparison.
            circuit = synthesize_ft(circuit)
        if per_kind:
            delay = delays_from_mapping(RANDOM_DELAYS)
        else:
            def delay(gate):
                return RANDOM_DELAYS[gate.kind]

        graph_result = critical_path(build_qodg(circuit), delay)
        sweep_result = sweep_critical_path(circuit, delay)
        assert sweep_result.length == pytest.approx(graph_result.length)
        # Path delays must sum to the length in both representations.
        assert sum(
            delay(circuit[n]) for n in sweep_result.node_ids
        ) == pytest.approx(sweep_result.length)

    def test_estimator_fast_path_matches_qodg_path(self, adder_ft):
        from repro.core.estimator import LEQAEstimator
        from repro.fabric.params import PhysicalParams, FabricSpec

        estimator = LEQAEstimator(
            params=PhysicalParams(fabric=FabricSpec(10, 10))
        )
        fast = estimator.estimate(adder_ft)
        explicit = estimator.estimate_qodg(build_qodg(adder_ft))
        assert fast.latency == pytest.approx(explicit.latency)
        assert fast.l_avg_cnot == pytest.approx(explicit.l_avg_cnot)


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
        delays = kind_delay_lut(kind_delays)[table.kind].tolist()
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(delays)), max_size=6))
        )
        o0, o1 = (column.tolist() for column in table.operand_pairs())
        carry = CriticalPathCarry(num_qubits)
        preds: list[int] = []
        for lo, hi in zip([0, *cuts], [*cuts, len(delays)]):
            preds.extend(
                critical_path_chunk(o0[lo:hi], o1[lo:hi], delays[lo:hi], carry)
            )
        chunked = backtrack(carry, preds, table.kind)
        one = CriticalPathCarry(num_qubits)
        whole = backtrack(
            one, critical_path_chunk(o0, o1, delays, one), table.kind
        )
        assert chunked.length.hex() == whole.length.hex()
        assert chunked.node_ids == whole.node_ids
        assert chunked.counts_by_kind == whole.counts_by_kind
        assert carry.next_node == len(delays)


class TestErrorParity:
    """Per-kind callables raise their own errors on table-backed circuits."""

    @staticmethod
    def _table_backed_with_swap() -> Circuit:
        circuit = Circuit.from_table(
            table_from_gates([h(0), cnot(0, 1), swap(0, 1)], ("a", "b"))
        )
        assert circuit.table_if_ready() is not None
        return circuit

    def test_mapping_without_kind_raises_graph_error(self):
        delay = delays_from_mapping({GateKind.H: 1.0, GateKind.CNOT: 2.0})
        with pytest.raises(GraphError, match="no delay registered.*swap"):
            sweep_critical_path(self._table_backed_with_swap(), delay)

    def test_pipeline_callable_raises_estimation_error(self):
        delay = LEQAEstimator().node_delay(0.0)
        with pytest.raises(EstimationError, match="not an FT operation"):
            sweep_critical_path(self._table_backed_with_swap(), delay)
