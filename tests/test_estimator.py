"""Unit tests for the LEQA estimator (repro.core.estimator, Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import GateKind, cnot, h, t, toffoli, x
from repro.circuits.generators import ham3
from repro.core.estimator import LEQAEstimator, estimate_latency
from repro.exceptions import EstimationError
from repro.fabric.params import FabricSpec, PhysicalParams


class TestOneQubitOnlyCircuits:
    def test_chain_is_sum_of_delays_plus_2tmove_each(self, unit_delay_params):
        # No CNOTs: D = sum over chain of (d_g + 2 T_move).
        circuit = Circuit(1)
        circuit.extend([h(0), t(0), x(0)])
        estimate = LEQAEstimator(params=unit_delay_params).estimate(circuit)
        expected = 3 * (1.0 + 2 * unit_delay_params.t_move)
        assert estimate.latency == pytest.approx(expected)
        assert estimate.l_avg_cnot == 0.0
        assert estimate.d_uncong == 0.0

    def test_parallel_one_qubit_ops(self, unit_delay_params):
        circuit = Circuit(3)
        circuit.extend([h(0), h(1), h(2)])
        estimate = LEQAEstimator(params=unit_delay_params).estimate(circuit)
        assert estimate.latency == pytest.approx(1.0 + 200.0)

    def test_empty_circuit(self, unit_delay_params):
        estimate = LEQAEstimator(params=unit_delay_params).estimate(Circuit(2))
        assert estimate.latency == 0.0


class TestSingleCnot:
    def test_latency_is_dcnot_plus_lavg(self, unit_delay_params):
        circuit = Circuit(2)
        circuit.append(cnot(0, 1))
        estimator = LEQAEstimator(params=unit_delay_params)
        estimate = estimator.estimate(circuit)
        assert estimate.latency == pytest.approx(1.0 + estimate.l_avg_cnot)

    def test_strict_mode_gives_zero_routing_for_degree_one(
        self, unit_delay_params
    ):
        # Both qubits have IIG degree 1; Eq. 15's (M-1)/M factor zeroes
        # d_uncong in strict (paper) mode.
        circuit = Circuit(2)
        circuit.append(cnot(0, 1))
        strict = LEQAEstimator(
            params=unit_delay_params, strict_small_zones=True
        ).estimate(circuit)
        assert strict.d_uncong == 0.0
        assert strict.l_avg_cnot == 0.0

    def test_corrected_mode_gives_positive_routing(self, unit_delay_params):
        circuit = Circuit(2)
        circuit.append(cnot(0, 1))
        corrected = LEQAEstimator(
            params=unit_delay_params, strict_small_zones=False
        ).estimate(circuit)
        assert corrected.d_uncong > 0.0
        assert corrected.l_avg_cnot > 0.0


class TestModelBehaviour:
    def test_ham3_intermediate_quantities(self, unit_delay_params):
        estimate = LEQAEstimator(params=unit_delay_params).estimate(ham3())
        # Triangle IIG: every qubit degree 2, B = 3.
        assert estimate.average_zone_area == pytest.approx(3.0)
        assert estimate.d_uncong > 0.0
        assert estimate.qubit_count == 3
        assert estimate.op_count == 19

    def test_faster_qubits_reduce_latency(self):
        slow = PhysicalParams(qubit_speed=0.001, fabric=FabricSpec(20, 20))
        fast = PhysicalParams(qubit_speed=0.01, fabric=FabricSpec(20, 20))
        circuit = ham3()
        d_slow = LEQAEstimator(params=slow).estimate(circuit).latency
        d_fast = LEQAEstimator(params=fast).estimate(circuit).latency
        assert d_fast < d_slow

    def test_l_avg_cnot_scales_inversely_with_speed(self):
        circuit = ham3()
        base = PhysicalParams(fabric=FabricSpec(20, 20))
        l1 = LEQAEstimator(params=base).estimate(circuit).l_avg_cnot
        doubled = PhysicalParams(qubit_speed=0.002, fabric=FabricSpec(20, 20))
        l2 = LEQAEstimator(params=doubled).estimate(circuit).l_avg_cnot
        assert l1 == pytest.approx(2 * l2)

    def test_smaller_fabric_is_more_congested(self):
        # Many qubits on a tiny fabric overlap more -> larger L_CNOT^avg.
        circuit = Circuit(12)
        for i in range(12):
            for j in range(i + 1, 12):
                circuit.append(cnot(i, j))
        tiny = LEQAEstimator(
            params=PhysicalParams(fabric=FabricSpec(4, 4))
        ).estimate(circuit)
        roomy = LEQAEstimator(
            params=PhysicalParams(fabric=FabricSpec(40, 40))
        ).estimate(circuit)
        assert tiny.l_avg_cnot > roomy.l_avg_cnot

    def test_higher_capacity_reduces_congestion(self):
        circuit = Circuit(12)
        for i in range(12):
            for j in range(i + 1, 12):
                circuit.append(cnot(i, j))
        narrow = LEQAEstimator(
            params=PhysicalParams(
                channel_capacity=1, fabric=FabricSpec(6, 6)
            )
        ).estimate(circuit)
        wide = LEQAEstimator(
            params=PhysicalParams(
                channel_capacity=10, fabric=FabricSpec(6, 6)
            )
        ).estimate(circuit)
        assert narrow.l_avg_cnot >= wide.l_avg_cnot

    def test_max_terms_truncation_changes_little(self):
        estimate_20 = LEQAEstimator(max_sq_terms=20).estimate(ham3())
        estimate_all = LEQAEstimator(max_sq_terms=None).estimate(ham3())
        assert estimate_20.latency == pytest.approx(
            estimate_all.latency, rel=0.05
        )

    def test_coverage_surfaces_truncated_to_q(self):
        estimate = LEQAEstimator(max_sq_terms=20).estimate(ham3())
        assert len(estimate.coverage_surfaces) == 3  # Q = 3 < 20

    def test_truncation_guard_on_crowded_fabric(self):
        # 40 all-to-all qubits on a 3x3 fabric: typical overlap counts are
        # far beyond 20 terms, so the raw truncated series captures almost
        # no surface and L collapses to zero; the guard recovers it.
        circuit = Circuit(40)
        for i in range(40):
            circuit.append(cnot(i, (i + 1) % 40))
            circuit.append(cnot(i, (i + 7) % 40))
        params = PhysicalParams(fabric=FabricSpec(3, 3))
        unguarded = LEQAEstimator(
            params=params, truncation_guard=False
        ).estimate(circuit)
        guarded = LEQAEstimator(
            params=params, truncation_guard=True
        ).estimate(circuit)
        assert unguarded.l_avg_cnot == 0.0
        assert guarded.l_avg_cnot > 0.0
        assert guarded.latency > unguarded.latency

    def test_guard_inactive_on_roomy_fabric(self):
        # On the default fabric with few qubits the guard must not change
        # anything (Q < max_terms means no truncation at all).
        on = LEQAEstimator(truncation_guard=True).estimate(ham3())
        off = LEQAEstimator(truncation_guard=False).estimate(ham3())
        assert on.latency == pytest.approx(off.latency)

    def test_latency_seconds_conversion(self, unit_delay_params):
        circuit = Circuit(1)
        circuit.append(h(0))
        estimate = LEQAEstimator(params=unit_delay_params).estimate(circuit)
        assert estimate.latency_seconds == pytest.approx(
            estimate.latency * 1e-6
        )

    def test_critical_counts_reported(self, unit_delay_params):
        estimate = LEQAEstimator(params=unit_delay_params).estimate(ham3())
        counts = estimate.critical.counts_by_kind
        assert sum(counts.values()) == len(estimate.critical.node_ids)
        assert estimate.critical.cnot_count == counts.get(GateKind.CNOT, 0)


class TestValidation:
    def test_non_ft_gate_rejected(self, unit_delay_params):
        circuit = Circuit(3)
        circuit.append(toffoli(0, 1, 2))
        with pytest.raises(EstimationError, match="not an FT operation"):
            LEQAEstimator(params=unit_delay_params).estimate(circuit)

    def test_graph_oracle_matches_estimate(self, unit_delay_params):
        from repro.qodg.critical_path import critical_path
        from repro.qodg.graph import build_qodg

        circuit = ham3()
        estimator = LEQAEstimator(params=unit_delay_params)
        direct = estimator.estimate(circuit)
        via_qodg = critical_path(
            build_qodg(circuit), estimator.node_delay(direct.l_avg_cnot)
        )
        assert via_qodg.length == pytest.approx(direct.latency)

    def test_convenience_wrapper_matches_class(self, unit_delay_params):
        circuit = ham3()
        assert estimate_latency(
            circuit, params=unit_delay_params
        ).latency == pytest.approx(
            LEQAEstimator(params=unit_delay_params).estimate(circuit).latency
        )

    def test_elapsed_time_recorded(self):
        assert estimate_latency(ham3()).elapsed_seconds > 0.0
