"""Peephole optimization of FT netlists.

The paper's FT gate set includes S, S†, X, Y, Z beyond the universal
{CNOT, H, T} "to enable more logical simplification in the process of
converting the logic synthesis output to the FT quantum operation
realization".  This module implements that simplification layer:

* **inverse-pair cancellation** — adjacent self-inverse gates on the same
  operands annihilate (H·H, X·X, CNOT·CNOT, ...), as do adjacent
  inverse pairs (T·T†, S·S†);
* **phase-gate fusion** — adjacent equal phase rotations merge upward:
  T·T → S, S·S → Z, T†·T† → S† (and Z is self-inverse).

"Adjacent" is commutation-aware in the cheap, safe sense: two gates are
adjacent on a qubit if no *intervening* gate touches that qubit, and
cancellation/fusion is only applied when the gates share their full
operand set, so no commutation rules are needed for correctness.  The
pass iterates to a fixed point.

Every rewrite is unitary-preserving; the test suite verifies optimized
circuits against exact unitaries and checks the pass never increases the
gate count.
"""

from __future__ import annotations

from ..exceptions import CircuitError
from .circuit import Circuit
from .gates import Gate, GateKind, s, sdg, z

__all__ = ["cancel_pairs_once", "optimize_ft", "OPTIMIZATION_RULES"]

#: Self-inverse one- and two-qubit FT kinds (G·G = I).
_SELF_INVERSE: frozenset[GateKind] = frozenset(
    {GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.CNOT}
)

#: Mutually inverse pairs (unordered).
_INVERSE_PAIRS: frozenset[frozenset[GateKind]] = frozenset(
    {
        frozenset({GateKind.T, GateKind.TDG}),
        frozenset({GateKind.S, GateKind.SDG}),
    }
)

#: Fusion of equal adjacent phase gates: kind -> replacement constructor.
_PHASE_FUSION = {
    GateKind.T: s,
    GateKind.TDG: sdg,
    GateKind.S: z,
    GateKind.SDG: z,  # S†·S† = Z† = Z (up to global phase... exactly Z)
}

#: Human-readable rule list (documentation / introspection).
OPTIMIZATION_RULES = (
    "cancel G·G for self-inverse G in {X, Y, Z, H, CNOT}",
    "cancel T·T† / T†·T and S·S† / S†·S",
    "fuse T·T -> S, T†·T† -> S†, S·S -> Z, S†·S† -> Z",
)


def _cancels(first: Gate, second: Gate) -> bool:
    """Whether two same-operand gates annihilate."""
    if first.controls != second.controls or first.targets != second.targets:
        return False
    if first.kind is second.kind and first.kind in _SELF_INVERSE:
        return True
    return frozenset({first.kind, second.kind}) in _INVERSE_PAIRS


def _fuses(first: Gate, second: Gate) -> Gate | None:
    """The fused replacement of two same-operand gates, or ``None``."""
    if first.kind is not second.kind:
        return None
    if first.targets != second.targets or first.controls != second.controls:
        return None
    constructor = _PHASE_FUSION.get(first.kind)
    if constructor is None:
        return None
    return constructor(first.targets[0])


def cancel_pairs_once(circuit: Circuit) -> tuple[Circuit, int]:
    """One forward pass of cancellation + fusion.

    Returns the rewritten circuit and the number of rewrites applied.
    The pass keeps, per qubit, the index of the last surviving gate
    touching it; a new gate can only interact with a previous one when
    *every* of its qubits points at that same gate (true adjacency).
    """
    surviving: list[Gate | None] = []
    last_on_qubit: dict[int, int] = {}
    rewrites = 0
    for gate in circuit:
        qubits = gate.qubits
        previous_indices = {last_on_qubit.get(q) for q in qubits}
        candidate_index = previous_indices.pop() if len(previous_indices) == 1 else None
        candidate = (
            surviving[candidate_index]
            if candidate_index is not None and candidate_index >= 0
            else None
        )
        if candidate is not None and _cancels(candidate, gate):
            surviving[candidate_index] = None
            for qubit in qubits:
                del last_on_qubit[qubit]
            rewrites += 1
            continue
        if candidate is not None:
            fused = _fuses(candidate, gate)
            if fused is not None:
                surviving[candidate_index] = fused
                rewrites += 1
                continue
        index = len(surviving)
        surviving.append(gate)
        for qubit in qubits:
            last_on_qubit[qubit] = index
    result = circuit.copy()
    result._gates = [gate for gate in surviving if gate is not None]
    result._gates_view = None
    return result, rewrites


def optimize_ft(
    circuit: Circuit, max_passes: int = 100, engine: str = "table"
) -> Circuit:
    """Iterate :func:`cancel_pairs_once` to a fixed point.

    Accepts any circuit but only rewrites FT-set gates; synthesis-level
    gates (Toffoli etc.) pass through untouched (they still participate
    in adjacency tracking, so rewrites never move a gate across them).

    ``engine="table"`` (default) runs the array-scan pass of
    :func:`repro.circuits.table.optimize_table` over the circuit's flat
    table; ``engine="legacy"`` iterates the object-walking
    :func:`cancel_pairs_once`, retained as the bitwise-equivalence
    oracle.

    Raises
    ------
    CircuitError
        If ``max_passes`` is below 1, or the fixed point is not reached
        within ``max_passes`` (cannot happen — every pass strictly
        shrinks or preserves the gate list — but guards the loop).
    """
    if engine == "table":
        from .circuit import Circuit as _Circuit
        from .table import optimize_table

        optimized = optimize_table(circuit.table(), max_passes=max_passes)
        result = _Circuit.from_table(optimized)
        result.name = circuit.name
        return result
    if engine != "legacy":
        raise CircuitError(
            f"unknown optimizer engine {engine!r}; choose 'table' or 'legacy'"
        )
    if max_passes < 1:
        raise CircuitError(f"max_passes must be >= 1, got {max_passes}")
    current = circuit
    for _ in range(max_passes):
        current, rewrites = cancel_pairs_once(current)
        if rewrites == 0:
            return current
    raise CircuitError("peephole optimization did not converge")
