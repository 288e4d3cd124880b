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

from .circuit import Circuit

__all__ = ["optimize_ft", "OPTIMIZATION_RULES"]

#: Human-readable rule list (documentation / introspection).
OPTIMIZATION_RULES = (
    "cancel G·G for self-inverse G in {X, Y, Z, H, CNOT}",
    "cancel T·T† / T†·T and S·S† / S†·S",
    "fuse T·T -> S, T†·T† -> S†, S·S -> Z, S†·S† -> Z",
)


def optimize_ft(circuit: Circuit, max_passes: int = 100) -> Circuit:
    """Iterate the cancellation/fusion pass to a fixed point.

    Accepts any circuit but only rewrites FT-set gates; synthesis-level
    gates (Toffoli etc.) pass through untouched (they still participate
    in adjacency tracking, so rewrites never move a gate across them).
    The pass is the table scan of
    :func:`repro.circuits.table.optimize_table` over the circuit's flat
    table.

    Raises
    ------
    CircuitError
        If ``max_passes`` is below 1, or the fixed point is not reached
        within ``max_passes`` (cannot happen — every pass strictly
        shrinks or preserves the gate list — but guards the loop).
    """
    from .table import optimize_table

    optimized = optimize_table(circuit.table(), max_passes=max_passes)
    result = Circuit.from_table(optimized)
    result.name = circuit.name
    return result
