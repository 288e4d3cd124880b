"""Unit tests for QODG statistics (repro.qodg.stats)."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import GateKind, cnot, h, t, x
from repro.circuits.generators import cnot_ladder, ham3
from repro.qodg.graph import build_qodg
from repro.qodg.critical_path import critical_path
from repro.qodg.stats import compute_stats, parallelism_profile


class TestParallelismProfile:
    def test_empty_circuit(self):
        assert parallelism_profile(build_qodg(Circuit(2))) == []

    def test_serial_chain_width_one(self):
        circuit = Circuit(1)
        circuit.extend([h(0), t(0), x(0)])
        assert parallelism_profile(build_qodg(circuit)) == [1, 1, 1]

    def test_fully_parallel_layer(self):
        circuit = Circuit(3)
        circuit.extend([h(0), h(1), h(2)])
        assert parallelism_profile(build_qodg(circuit)) == [3]

    def test_diamond_profile(self):
        circuit = Circuit(2)
        circuit.extend([h(0), h(1), t(1), cnot(0, 1)])
        # level 0: h(0), h(1); level 1: t(1); level 2: cnot.
        assert parallelism_profile(build_qodg(circuit)) == [2, 1, 1]

    def test_profile_sums_to_op_count(self):
        qodg = build_qodg(ham3())
        assert sum(parallelism_profile(qodg)) == 19

    def test_depth_equals_unit_critical_path(self):
        for circuit in (ham3(), cnot_ladder(5, layers=2)):
            qodg = build_qodg(circuit)
            depth = len(parallelism_profile(qodg))
            unit_length = critical_path(
                qodg, dict.fromkeys(GateKind, 1.0)
            ).length
            assert depth == int(unit_length)


class TestComputeStats:
    def test_ham3_stats(self):
        stats = compute_stats(build_qodg(ham3()))
        assert stats.num_ops == 19
        assert stats.counts_by_kind[GateKind.CNOT] == 10
        assert stats.cnot_fraction == pytest.approx(10 / 19)
        assert stats.depth >= 1
        assert stats.max_width >= 1
        assert stats.average_width == pytest.approx(19 / stats.depth)

    def test_ladder_is_fully_serial(self):
        stats = compute_stats(build_qodg(cnot_ladder(6)))
        assert stats.depth == 5
        assert stats.max_width == 1
        assert stats.cnot_fraction == 1.0

    def test_empty_graph(self):
        stats = compute_stats(build_qodg(Circuit(3)))
        assert stats.num_ops == 0
        assert stats.depth == 0
        assert stats.average_width == 0.0
        assert stats.cnot_fraction == 0.0
