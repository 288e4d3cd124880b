"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.decompose import synthesize_ft
from repro.circuits.gates import cnot, h, t, tdg, x
from repro.circuits.generators import ripple_adder
from repro.fabric.params import FabricSpec, GateDelays, PhysicalParams
from repro.qodg.iig import IIG, build_iig


@pytest.fixture
def small_params() -> PhysicalParams:
    """A small fabric with Table-1 delays, convenient for fast tests."""
    return PhysicalParams(fabric=FabricSpec(10, 10))


@pytest.fixture
def unit_delay_params() -> PhysicalParams:
    """All FT gates take 1 µs — makes critical paths countable by hand."""
    ones = GateDelays(
        h=1.0, t=1.0, tdg=1.0, x=1.0, y=1.0, z=1.0, s=1.0, sdg=1.0, cnot=1.0
    )
    return PhysicalParams(delays=ones, fabric=FabricSpec(8, 8))


@pytest.fixture
def cnot_iig():
    """Builds the IIG of a circuit holding one CNOT per listed pair."""

    def build(num_qubits: int, pairs) -> IIG:
        circuit = Circuit(num_qubits)
        circuit.extend(cnot(a, b) for a, b in pairs)
        return build_iig(circuit)

    return build


@pytest.fixture
def tiny_ft_circuit() -> Circuit:
    """A hand-written 3-qubit FT circuit: H, CNOT, T, CNOT, T†, X."""
    circuit = Circuit(3, name="tiny")
    circuit.extend(
        [h(0), cnot(0, 1), t(1), cnot(1, 2), tdg(2), x(0)]
    )
    return circuit


@pytest.fixture
def adder_ft() -> Circuit:
    """The FT netlist of the 4-bit ripple adder (450-ish ops, 12 qubits)."""
    return synthesize_ft(ripple_adder(4))
