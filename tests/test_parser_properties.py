"""Property-based round-trip tests for the netlist formats."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.gates import (
    cnot,
    fredkin,
    h,
    mcf,
    mct,
    s,
    swap,
    t,
    tdg,
    toffoli,
    x,
)
from repro.circuits.parser import (
    reads_qasm_lite,
    reads_real,
    writes_qasm_lite,
    writes_real,
)


def _random_synthesis_circuit(num_qubits: int, gate_count: int, seed: int) -> Circuit:
    """Random circuit over the .real-expressible gate kinds."""
    rng = random.Random(seed)
    circuit = Circuit(num_qubits)
    for _ in range(gate_count):
        roll = rng.random()
        if roll < 0.2:
            circuit.append(x(rng.randrange(num_qubits)))
        elif roll < 0.45:
            a, b = rng.sample(range(num_qubits), 2)
            circuit.append(cnot(a, b))
        elif roll < 0.65:
            a, b, c = rng.sample(range(num_qubits), 3)
            circuit.append(toffoli(a, b, c))
        elif roll < 0.8:
            a, b, c = rng.sample(range(num_qubits), 3)
            circuit.append(fredkin(a, b, c))
        elif roll < 0.92 and num_qubits >= 4:
            size = rng.randint(4, min(num_qubits, 6))
            operands = rng.sample(range(num_qubits), size)
            circuit.append(mct(tuple(operands[:-1]), operands[-1]))
        else:
            size = max(4, min(num_qubits, 4))
            operands = rng.sample(range(num_qubits), size)
            circuit.append(mcf(tuple(operands[:-2]), operands[-2], operands[-1]))
    return circuit


def _random_ft_circuit(num_qubits: int, gate_count: int, seed: int) -> Circuit:
    """Random circuit over FT kinds plus SWAP (qasm-lite expressible)."""
    rng = random.Random(seed)
    one_qubit = [h, t, tdg, s, x]
    circuit = Circuit(num_qubits)
    for _ in range(gate_count):
        roll = rng.random()
        if roll < 0.5:
            circuit.append(rng.choice(one_qubit)(rng.randrange(num_qubits)))
        elif roll < 0.9:
            a, b = rng.sample(range(num_qubits), 2)
            circuit.append(cnot(a, b))
        else:
            a, b = rng.sample(range(num_qubits), 2)
            circuit.append(swap(a, b))
    return circuit


@given(
    num_qubits=st.integers(4, 10),
    gate_count=st.integers(0, 40),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_real_roundtrip_preserves_gates(num_qubits, gate_count, seed):
    original = _random_synthesis_circuit(num_qubits, gate_count, seed)
    recovered = reads_real(writes_real(original))
    assert recovered.num_qubits == original.num_qubits
    assert len(recovered) == len(original)
    for g1, g2 in zip(original, recovered):
        # .real canonicalizes X/CNOT/TOFFOLI into the MCT family and
        # FREDKIN into MCF; the constructors re-normalize, so kinds and
        # operand roles must round-trip exactly.
        assert g1.kind is g2.kind
        assert g1.controls == g2.controls
        assert g1.targets == g2.targets


@given(
    num_qubits=st.integers(2, 8),
    gate_count=st.integers(0, 40),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_qasm_lite_roundtrip_preserves_gates(num_qubits, gate_count, seed):
    original = _random_ft_circuit(num_qubits, gate_count, seed)
    recovered = reads_qasm_lite(writes_qasm_lite(original))
    assert recovered.num_qubits == original.num_qubits
    assert list(recovered) == list(original)


@given(
    num_qubits=st.integers(4, 8),
    gate_count=st.integers(1, 25),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_real_roundtrip_preserves_function(num_qubits, gate_count, seed):
    from repro.circuits.simulate import simulate_basis

    original = _random_synthesis_circuit(num_qubits, gate_count, seed)
    recovered = reads_real(writes_real(original))
    rng = random.Random(seed)
    bits = [rng.randrange(2) for _ in range(num_qubits)]
    assert simulate_basis(recovered, bits) == simulate_basis(original, bits)
