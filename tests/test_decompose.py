"""Unit tests for FT synthesis (repro.circuits.decompose)."""

from __future__ import annotations

import random

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.decompose import (
    TOFFOLI_FT_GATE_COUNT,
    eliminate_fredkin,
    eliminate_swap,
    expand_multi_controlled,
    lower_toffoli,
    synthesize_ft,
    toffoli_to_ft_gates,
)
from repro.circuits.gates import (
    FT_KINDS,
    GateKind,
    fredkin,
    mcf,
    mct,
    swap,
    toffoli,
)
from repro.circuits.simulate import (
    TOFFOLI_MATRIX,
    circuit_unitary,
    simulate_basis,
)


def _random_inputs(num_bits: int, trials: int, seed: int = 7):
    rng = random.Random(seed)
    for _ in range(trials):
        yield [rng.randrange(2) for _ in range(num_bits)]


def _assert_equivalent(original: Circuit, lowered: Circuit, trials: int = 40):
    """Lowered circuit must agree on original qubits, ancillas must return
    to zero."""
    extra = lowered.num_qubits - original.num_qubits
    assert extra >= 0
    for bits in _random_inputs(original.num_qubits, trials):
        expected = simulate_basis(original, bits)
        actual = simulate_basis(lowered, bits + [0] * extra)
        assert actual[: original.num_qubits] == expected
        assert all(bit == 0 for bit in actual[original.num_qubits:])


class TestToffoliFtRealization:
    def test_gate_count_is_fifteen(self):
        assert len(toffoli_to_ft_gates(0, 1, 2)) == TOFFOLI_FT_GATE_COUNT

    def test_gate_kind_mix(self):
        kinds = [g.kind for g in toffoli_to_ft_gates(0, 1, 2)]
        assert kinds.count(GateKind.H) == 2
        assert kinds.count(GateKind.T) == 4
        assert kinds.count(GateKind.TDG) == 3
        assert kinds.count(GateKind.CNOT) == 6

    def test_unitary_equals_toffoli(self):
        circuit = Circuit(3)
        circuit.extend(toffoli_to_ft_gates(0, 1, 2))
        assert np.allclose(circuit_unitary(circuit), TOFFOLI_MATRIX, atol=1e-10)

    def test_unitary_with_permuted_roles(self):
        # Controls on 2,0 and target 1: still a correct doubly-controlled X.
        circuit = Circuit(3)
        circuit.extend(toffoli_to_ft_gates(2, 0, 1))
        unitary = circuit_unitary(circuit)
        reference = Circuit(3)
        reference.append(toffoli(2, 0, 1))
        assert np.allclose(unitary, circuit_unitary(reference), atol=1e-10)


class TestExpandMultiControlled:
    def test_mct_k_controls_uses_2k_minus_3_toffolis(self):
        for k in (3, 4, 5, 7):
            circuit = Circuit(k + 1)
            circuit.append(mct(tuple(range(k)), k))
            lowered = expand_multi_controlled(circuit)
            toffolis = [g for g in lowered if g.kind is GateKind.TOFFOLI]
            assert len(toffolis) == 2 * k - 3
            assert lowered.num_qubits == k + 1 + (k - 2)

    def test_mct_functional_equivalence(self):
        for k in (3, 4, 5):
            circuit = Circuit(k + 1)
            circuit.append(mct(tuple(range(k)), k))
            _assert_equivalent(circuit, expand_multi_controlled(circuit))

    def test_mcf_functional_equivalence(self):
        for k in (2, 3, 4):
            circuit = Circuit(k + 2)
            circuit.append(mcf(tuple(range(k)), k, k + 1))
            _assert_equivalent(circuit, expand_multi_controlled(circuit))

    def test_no_sharing_allocates_fresh_ancillas_per_gate(self):
        circuit = Circuit(5)
        circuit.append(mct((0, 1, 2, 3), 4))
        circuit.append(mct((0, 1, 2, 3), 4))
        lowered = expand_multi_controlled(circuit, share_ancillas=False)
        assert lowered.num_qubits == 5 + 2 * 2  # two ancillas per gate

    def test_sharing_reuses_ancillas(self):
        circuit = Circuit(5)
        circuit.append(mct((0, 1, 2, 3), 4))
        circuit.append(mct((0, 1, 2, 3), 4))
        shared = expand_multi_controlled(circuit, share_ancillas=True)
        assert shared.num_qubits == 5 + 2  # pool reused

    def test_sharing_preserves_function(self):
        circuit = Circuit(6)
        circuit.append(mct((0, 1, 2), 4))
        circuit.append(mct((1, 2, 3), 5))
        _assert_equivalent(
            circuit, expand_multi_controlled(circuit, share_ancillas=True)
        )

    def test_passthrough_gates_unchanged(self, tiny_ft_circuit):
        lowered = expand_multi_controlled(tiny_ft_circuit)
        assert list(lowered) == list(tiny_ft_circuit)


class TestEliminateFredkin:
    def test_fredkin_becomes_three_toffolis(self):
        circuit = Circuit(3)
        circuit.append(fredkin(0, 1, 2))
        lowered = eliminate_fredkin(circuit)
        assert [g.kind for g in lowered] == [GateKind.TOFFOLI] * 3

    def test_functional_equivalence(self):
        circuit = Circuit(3)
        circuit.append(fredkin(0, 1, 2))
        _assert_equivalent(circuit, eliminate_fredkin(circuit))


class TestEliminateSwap:
    def test_swap_becomes_three_cnots(self):
        circuit = Circuit(2)
        circuit.append(swap(0, 1))
        lowered = eliminate_swap(circuit)
        assert [g.kind for g in lowered] == [GateKind.CNOT] * 3

    def test_functional_equivalence(self):
        circuit = Circuit(2)
        circuit.append(swap(0, 1))
        _assert_equivalent(circuit, eliminate_swap(circuit))


class TestLowerToffoli:
    def test_each_toffoli_becomes_fifteen_gates(self):
        circuit = Circuit(3)
        circuit.append(toffoli(0, 1, 2))
        circuit.append(toffoli(2, 1, 0))
        lowered = lower_toffoli(circuit)
        assert len(lowered) == 2 * TOFFOLI_FT_GATE_COUNT
        assert lowered.is_ft()


class TestSynthesizeFt:
    def test_output_is_fully_ft(self):
        circuit = Circuit(6)
        circuit.append(mct((0, 1, 2, 3), 4))
        circuit.append(fredkin(0, 1, 5))
        circuit.append(swap(2, 3))
        result = synthesize_ft(circuit)
        assert result.is_ft()
        assert all(g.kind in FT_KINDS for g in result)

    def test_preserves_circuit_name(self):
        circuit = Circuit(3, name="mycircuit")
        circuit.append(toffoli(0, 1, 2))
        assert synthesize_ft(circuit).name == "mycircuit"

    def test_ft_input_passes_through_unchanged(self, tiny_ft_circuit):
        result = synthesize_ft(tiny_ft_circuit)
        assert list(result) == list(tiny_ft_circuit)

    def test_toffoli_count_drives_op_count(self):
        circuit = Circuit(3)
        circuit.append(toffoli(0, 1, 2))
        assert len(synthesize_ft(circuit)) == TOFFOLI_FT_GATE_COUNT

    def test_unitary_equivalence_small_mixed_circuit(self):
        # 3-qubit mixed circuit: full unitary check through the whole flow.
        circuit = Circuit(3)
        circuit.append(toffoli(0, 1, 2))
        circuit.append(fredkin(2, 0, 1))
        lowered = synthesize_ft(circuit)
        assert np.allclose(
            circuit_unitary(lowered), circuit_unitary(circuit), atol=1e-9
        )
