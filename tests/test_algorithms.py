"""Functional tests for algorithm-level circuits (repro.circuits.algorithms)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.algorithms import bernstein_vazirani, cuccaro_adder, grover
from repro.circuits.decompose import synthesize_ft
from repro.circuits.simulate import circuit_unitary, simulate_basis
from repro.exceptions import CircuitError


class TestCuccaroAdder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_adds_with_carry_out_exhaustively(self, n):
        circuit = cuccaro_adder(n)
        for a in range(1 << n):
            for b in range(1 << n):
                bits = [0] * (2 * n + 2)
                for i in range(n):
                    bits[1 + 2 * i] = (b >> i) & 1
                    bits[2 + 2 * i] = (a >> i) & 1
                out = simulate_basis(circuit, bits)
                total = a + b
                got_sum = sum(out[1 + 2 * i] << i for i in range(n))
                assert got_sum == total % (1 << n)
                assert out[-1] == (total >> n) & 1  # carry out
                # a register and cin restored.
                assert out[0] == 0
                for i in range(n):
                    assert out[2 + 2 * i] == (a >> i) & 1

    def test_carry_in_participates(self):
        n = 3
        circuit = cuccaro_adder(n)
        bits = [1] + [0] * (2 * n + 1)  # cin = 1, a = b = 0
        out = simulate_basis(circuit, bits)
        got_sum = sum(out[1 + 2 * i] << i for i in range(n))
        assert got_sum == 1
        assert out[0] == 1  # cin preserved

    def test_qubit_count_is_2n_plus_2(self):
        assert cuccaro_adder(8).num_qubits == 18

    def test_fewer_qubits_than_vbe_coding(self):
        from repro.circuits.generators import ripple_adder

        assert cuccaro_adder(8).num_qubits < ripple_adder(8).num_qubits

    def test_invalid_n(self):
        with pytest.raises(CircuitError):
            cuccaro_adder(0)


class TestBernsteinVazirani:
    @pytest.mark.parametrize("secret", [0b000, 0b101, 0b111, 0b010])
    def test_recovers_secret_with_certainty(self, secret):
        n = 3
        circuit = bernstein_vazirani(secret, n)
        unitary = circuit_unitary(circuit)
        # Input |0...0>|0> (the circuit prepares the |-> ancilla itself).
        state = unitary[:, 0]
        probabilities = np.abs(state) ** 2
        # Marginal over the query register: all mass on |secret>.
        mass = 0.0
        for index, p in enumerate(probabilities):
            if index & ((1 << n) - 1) == secret:
                mass += p
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_already_fault_tolerant(self):
        assert bernstein_vazirani(0b11, 2).is_ft()

    def test_oracle_size_matches_secret_weight(self):
        from repro.circuits.gates import GateKind

        circuit = bernstein_vazirani(0b1011, 4)
        assert circuit.count_kind(GateKind.CNOT) == 3

    def test_secret_too_large_rejected(self):
        with pytest.raises(CircuitError, match="does not fit"):
            bernstein_vazirani(8, 3)


class TestGrover:
    @pytest.mark.parametrize("n,marked", [(2, 0b01), (2, 0b11), (3, 0b101)])
    def test_amplifies_marked_state(self, n, marked):
        circuit = grover(n, marked)
        unitary = circuit_unitary(circuit)
        probabilities = np.abs(unitary[:, 0]) ** 2
        # The marked state dominates (n=2 single iteration is exact).
        assert probabilities[marked] == max(probabilities)
        if n == 2:
            assert probabilities[marked] == pytest.approx(1.0, abs=1e-9)

    def test_iteration_count_default(self):
        import math

        expected = max(1, round(math.pi / 4 * math.sqrt(8)))
        explicit = grover(3, 0, iterations=expected)
        default = grover(3, 0)
        assert len(default) == len(explicit)

    def test_ft_synthesis_and_estimation_pipeline(self):
        from repro.core.estimator import estimate_latency

        ft = synthesize_ft(grover(4, 0b1010))
        assert ft.is_ft()
        estimate = estimate_latency(ft)
        assert estimate.latency > 0

    def test_marked_too_large_rejected(self):
        with pytest.raises(CircuitError):
            grover(2, 4)

    def test_unitary_is_unitary(self):
        unitary = circuit_unitary(grover(3, 2, iterations=1))
        assert np.allclose(
            unitary @ unitary.conj().T, np.eye(8), atol=1e-9
        )
