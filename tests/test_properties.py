"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.gates import GateKind
from repro.circuits.generators import random_reversible
from repro.circuits.simulate import simulate_basis
from repro.core.coverage import (
    coverage_probability,
    expected_coverage_surface,
    expected_coverage_surfaces,
)
from repro.core.queueing import congested_latency
from repro.core.tsp import expected_hamiltonian_path
from repro.fabric.params import FabricSpec
from repro.fabric.tqa import TQA
from repro.qodg.critical_path import critical_path
from repro.qodg.graph import build_qodg
from repro.qodg.iig import build_iig


# ---------------------------------------------------------------------------
# Coverage model invariants (Eqs. 3-5)
# ---------------------------------------------------------------------------


@given(
    width=st.integers(2, 15),
    height=st.integers(2, 15),
    num_zones=st.integers(1, 25),
    area=st.floats(1.0, 30.0),
)
@settings(max_examples=60, deadline=None)
def test_eq3_coverage_surfaces_sum_to_fabric_area(width, height, num_zones, area):
    surfaces = expected_coverage_surfaces(
        num_zones, width, height, area, max_terms=None
    )
    s0 = expected_coverage_surface(0, num_zones, width, height, area)
    assert math.isclose(s0 + sum(surfaces), width * height, rel_tol=1e-7)


@given(
    width=st.integers(1, 20),
    height=st.integers(1, 20),
    area=st.floats(1.0, 50.0),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_coverage_probability_is_a_probability(width, height, area, data):
    x = data.draw(st.integers(1, width))
    y = data.draw(st.integers(1, height))
    p = coverage_probability(x, y, width, height, area)
    assert 0.0 <= p <= 1.0


@given(
    width=st.integers(3, 12),
    height=st.integers(3, 12),
    area=st.floats(1.0, 9.0),
)
@settings(max_examples=40, deadline=None)
def test_coverage_peaks_at_fabric_center(width, height, area):
    center = coverage_probability(
        (width + 1) // 2, (height + 1) // 2, width, height, area
    )
    corner = coverage_probability(1, 1, width, height, area)
    assert center >= corner


# ---------------------------------------------------------------------------
# Queueing model invariants (Eq. 8)
# ---------------------------------------------------------------------------


@given(
    d_uncong=st.floats(0.1, 1e5),
    capacity=st.integers(1, 20),
    overlap=st.integers(0, 200),
)
@settings(max_examples=100, deadline=None)
def test_congested_latency_never_below_uncongested(d_uncong, capacity, overlap):
    assert congested_latency(overlap, d_uncong, capacity) >= d_uncong * (
        1.0 - 1e-12
    )


@given(
    d_uncong=st.floats(0.1, 1e4),
    capacity=st.integers(1, 10),
)
@settings(max_examples=50, deadline=None)
def test_congested_latency_monotone_in_overlap(d_uncong, capacity):
    values = [
        congested_latency(q, d_uncong, capacity) for q in range(0, 40)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# TSP model invariants (Eq. 15)
# ---------------------------------------------------------------------------


@given(
    degree=st.integers(2, 500),
    area=st.floats(1.0, 1e4),
)
@settings(max_examples=100, deadline=None)
def test_hamiltonian_path_positive_and_scales_with_side(degree, area):
    base = expected_hamiltonian_path(degree, area)
    scaled = expected_hamiltonian_path(degree, 4.0 * area)
    assert base > 0
    assert math.isclose(scaled, 2.0 * base, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# QODG / critical path invariants on random circuits
# ---------------------------------------------------------------------------


@given(
    num_qubits=st.integers(3, 8),
    gate_count=st.integers(0, 60),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_qodg_is_acyclic_and_consistent(num_qubits, gate_count, seed):
    circuit = random_reversible(num_qubits, gate_count, seed)
    qodg = build_qodg(circuit)
    # Predecessors always come earlier in program order (acyclicity).
    for node in range(qodg.num_ops):
        for pred in qodg.predecessors(node):
            assert pred == qodg.start or pred < node
    # Edge sets are mutually consistent.
    for node in range(qodg.num_nodes):
        for succ in qodg.successors(node):
            assert node in qodg.predecessors(succ)


@given(
    num_qubits=st.integers(3, 8),
    gate_count=st.integers(1, 60),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_critical_path_bounded_by_total_and_max(num_qubits, gate_count, seed):
    circuit = random_reversible(num_qubits, gate_count, seed)
    qodg = build_qodg(circuit)
    result = critical_path(qodg, dict.fromkeys(GateKind, 1.0))
    # The longest path is at least the deepest single-qubit chain and at
    # most the total gate count.
    assert 1.0 <= result.length <= gate_count
    assert len(result.node_ids) == int(result.length)


@given(
    num_qubits=st.integers(3, 7),
    gate_count=st.integers(1, 40),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_ft_synthesis_preserves_classical_function(num_qubits, gate_count, seed):
    # NCT circuits survive the Toffoli-lowering boundary: compare the
    # original against the pre-Toffoli stages (the FT stage introduces
    # H/T gates with no classical semantics, so compare up to there).
    from repro.circuits.decompose import (
        eliminate_fredkin,
        eliminate_swap,
        expand_multi_controlled,
    )

    circuit = random_reversible(num_qubits, gate_count, seed)
    lowered = eliminate_fredkin(
        eliminate_swap(expand_multi_controlled(circuit))
    )
    rng_bits = [(seed >> i) & 1 for i in range(num_qubits)]
    expected = simulate_basis(circuit, rng_bits)
    padded = rng_bits + [0] * (lowered.num_qubits - num_qubits)
    actual = simulate_basis(lowered, padded)
    assert actual[:num_qubits] == expected


@given(
    num_qubits=st.integers(3, 7),
    gate_count=st.integers(0, 40),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_iig_weight_counts_two_qubit_gates(num_qubits, gate_count, seed):
    circuit = random_reversible(num_qubits, gate_count, seed)
    iig = build_iig(circuit)
    two_qubit = sum(1 for g in circuit if g.arity == 2)
    assert iig.total_weight == two_qubit


# ---------------------------------------------------------------------------
# Geometry invariants
# ---------------------------------------------------------------------------


@given(
    width=st.integers(1, 30),
    height=st.integers(1, 30),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_route_xy_length_is_manhattan(width, height, data):
    tqa = TQA(FabricSpec(width, height))
    source = (
        data.draw(st.integers(0, width - 1)),
        data.draw(st.integers(0, height - 1)),
    )
    target = (
        data.draw(st.integers(0, width - 1)),
        data.draw(st.integers(0, height - 1)),
    )
    path = tqa.route_xy(source, target)
    assert len(path) - 1 == TQA.manhattan(source, target)
    for a, b in zip(path, path[1:]):
        assert TQA.manhattan(a, b) == 1
