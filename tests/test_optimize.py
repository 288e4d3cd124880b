"""Unit tests for peephole optimization (repro.circuits.optimize)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.gates import (
    GateKind,
    cnot,
    h,
    s,
    sdg,
    t,
    tdg,
    toffoli,
    x,
    z,
)
from repro.circuits.optimize import cancel_pairs_once, optimize_ft
from repro.circuits.simulate import circuit_unitary
from repro.exceptions import CircuitError


def _unitary_equal(c1: Circuit, c2: Circuit) -> bool:
    return np.allclose(circuit_unitary(c1), circuit_unitary(c2), atol=1e-9)


class TestCancellation:
    def test_double_h_cancels(self):
        circuit = Circuit(1)
        circuit.extend([h(0), h(0)])
        assert len(optimize_ft(circuit)) == 0

    def test_double_cnot_cancels(self):
        circuit = Circuit(2)
        circuit.extend([cnot(0, 1), cnot(0, 1)])
        assert len(optimize_ft(circuit)) == 0

    def test_reversed_cnot_does_not_cancel(self):
        circuit = Circuit(2)
        circuit.extend([cnot(0, 1), cnot(1, 0)])
        assert len(optimize_ft(circuit)) == 2

    def test_t_tdg_cancels(self):
        circuit = Circuit(1)
        circuit.extend([t(0), tdg(0)])
        assert len(optimize_ft(circuit)) == 0

    def test_intervening_gate_blocks_cancellation(self):
        circuit = Circuit(1)
        circuit.extend([h(0), x(0), h(0)])
        assert len(optimize_ft(circuit)) == 3

    def test_intervening_gate_on_other_qubit_does_not_block(self):
        circuit = Circuit(2)
        circuit.extend([h(0), x(1), h(0)])
        optimized = optimize_ft(circuit)
        assert [g.kind for g in optimized] == [GateKind.X]

    def test_cascading_cancellation_via_fixed_point(self):
        # x h h x: inner pair cancels, exposing the outer pair.
        circuit = Circuit(1)
        circuit.extend([x(0), h(0), h(0), x(0)])
        assert len(optimize_ft(circuit)) == 0

    def test_t_does_not_self_cancel(self):
        circuit = Circuit(1)
        circuit.extend([t(0), t(0)])
        optimized = optimize_ft(circuit)
        assert [g.kind for g in optimized] == [GateKind.S]  # fused, not gone


class TestFusion:
    def test_t_t_fuses_to_s(self):
        circuit = Circuit(1)
        circuit.extend([t(0), t(0)])
        assert _unitary_equal(circuit, optimize_ft(circuit))

    def test_s_s_fuses_to_z(self):
        circuit = Circuit(1)
        circuit.extend([s(0), s(0)])
        optimized = optimize_ft(circuit)
        assert [g.kind for g in optimized] == [GateKind.Z]
        assert _unitary_equal(circuit, optimized)

    def test_sdg_sdg_fuses_to_z(self):
        circuit = Circuit(1)
        circuit.extend([sdg(0), sdg(0)])
        optimized = optimize_ft(circuit)
        assert [g.kind for g in optimized] == [GateKind.Z]
        assert _unitary_equal(circuit, optimized)

    def test_four_t_collapse_to_z(self):
        circuit = Circuit(1)
        circuit.extend([t(0), t(0), t(0), t(0)])
        optimized = optimize_ft(circuit)
        assert [g.kind for g in optimized] == [GateKind.Z]
        assert _unitary_equal(circuit, optimized)

    def test_eight_t_collapse_to_identity(self):
        circuit = Circuit(1)
        circuit.extend([t(0)] * 8)
        optimized = optimize_ft(circuit)
        # Z·Z cancels: nothing left.
        assert len(optimized) == 0


class TestSafety:
    def test_synthesis_gates_pass_through(self):
        circuit = Circuit(3)
        circuit.extend([toffoli(0, 1, 2), h(0), h(0)])
        optimized = optimize_ft(circuit)
        assert [g.kind for g in optimized] == [GateKind.TOFFOLI]

    def test_toffoli_blocks_cancellation_across_it(self):
        circuit = Circuit(3)
        circuit.extend([h(2), toffoli(0, 1, 2), h(2)])
        assert len(optimize_ft(circuit)) == 3

    def test_never_increases_gate_count(self):
        from repro.circuits.generators import ham3

        circuit = ham3()
        assert len(optimize_ft(circuit)) <= len(circuit)

    def test_single_pass_reports_rewrites(self):
        circuit = Circuit(1)
        circuit.extend([h(0), h(0), t(0)])
        rewritten, rewrites = cancel_pairs_once(circuit)
        assert rewrites == 1
        assert [g.kind for g in rewritten] == [GateKind.T]

    @given(
        seed=st.integers(0, 5000),
        gate_count=st.integers(0, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_unitary_preserved_on_random_ft_circuits(self, seed, gate_count):
        import random

        rng = random.Random(seed)
        constructors = [h, x, z, s, sdg, t, tdg]
        circuit = Circuit(3)
        for _ in range(gate_count):
            if rng.random() < 0.3:
                a, b = rng.sample(range(3), 2)
                circuit.append(cnot(a, b))
            else:
                circuit.append(rng.choice(constructors)(rng.randrange(3)))
        optimized = optimize_ft(circuit)
        assert len(optimized) <= len(circuit)
        assert _unitary_equal(circuit, optimized)

    def test_ft_synthesis_output_shrinks(self):
        # The raw FT expansion of back-to-back identical Toffolis contains
        # adjacent inverse pairs at the seam; the optimizer must find them.
        from repro.circuits.decompose import lower_toffoli

        circuit = Circuit(3)
        circuit.extend([toffoli(0, 1, 2), toffoli(0, 1, 2)])
        lowered = lower_toffoli(circuit)
        optimized = optimize_ft(lowered)
        assert len(optimized) < len(lowered)
        assert _unitary_equal(lowered, optimized)


class TestMaxPasses:
    """Every peephole entry point rejects ``max_passes < 1`` the same way,
    even on a circuit that needs no rewrite."""

    @staticmethod
    def _already_optimal() -> Circuit:
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1), t(1)])
        return circuit

    @pytest.mark.parametrize(
        "entry",
        ["optimize_table", "optimize_ft-table", "optimize_ft-legacy",
         "optimize_stream"],
    )
    @pytest.mark.parametrize("max_passes", [0, -1])
    def test_rejected_everywhere(self, entry, max_passes):
        from repro.circuits.stream import optimize_stream, stream_table
        from repro.circuits.table import optimize_table

        circuit = self._already_optimal()
        runs = {
            "optimize_table": lambda: optimize_table(
                circuit.table(), max_passes=max_passes
            ),
            "optimize_ft-table": lambda: optimize_ft(
                circuit, max_passes=max_passes, engine="table"
            ),
            "optimize_ft-legacy": lambda: optimize_ft(
                circuit, max_passes=max_passes, engine="legacy"
            ),
            "optimize_stream": lambda: list(
                optimize_stream(
                    stream_table(circuit.table()), max_passes=max_passes
                )
            ),
        }
        with pytest.raises(
            CircuitError, match=f"max_passes must be >= 1, got {max_passes}"
        ):
            runs[entry]()

    def test_one_pass_suffices_when_nothing_rewrites(self):
        circuit = self._already_optimal()
        assert len(optimize_ft(circuit, max_passes=1)) == 3
        assert len(optimize_ft(circuit, max_passes=1, engine="legacy")) == 3
