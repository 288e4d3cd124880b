"""Fault-tolerant synthesis: lowering reversible logic to the FT gate set.

The paper's benchmark flow (section 4.1) is reproduced stage by stage:

1. **Multi-controlled gate expansion** — n-input Toffoli and Fredkin gates
   (more than 2 controls / more than 1 control respectively) are lowered to
   3-input Toffoli and Fredkin gates using the simple ancilla-chain method
   of Nielsen & Chuang.  Each lowered gate allocates its *own* fresh
   ancillas: the paper states "no ancillary sharing is performed among the
   decomposed gates".  (An optional sharing mode exists for ablations.)
2. **Fredkin elimination** — each 3-input Fredkin gate is "replaced by three
   3-input Toffoli gates" (controlled-swap as three overlapping Toffolis).
3. **Toffoli realization** — each 3-input Toffoli is expanded into the
   standard 15-gate fault-tolerant network over {H, T, T†, CNOT}
   (Nielsen & Chuang Fig. 4.9 / Shende & Markov, the paper's ref [21]).
   This is exactly the realization drawn in the paper's Figure 2(a).

Each stage is written once, as a table pass of
:mod:`repro.circuits.table` (the streamed front-end runs the same passes
chunk by chunk); the functions here apply them to a circuit's
:class:`~repro.circuits.table.GateTable` and wrap the result, so no Gate
objects are built.  After :func:`synthesize_ft` every gate belongs to
:data:`repro.circuits.gates.FT_KINDS`.
"""

from __future__ import annotations

from typing import List

from .circuit import Circuit
from .gates import Gate
from .table import (
    GateTable,
    TableBuilder,
    _McExpandCarry,
    eliminate_fredkin_table,
    eliminate_swap_table,
    emit_toffoli_ft,
    lower_ft,
    lower_toffoli_table,
)

__all__ = [
    "expand_multi_controlled",
    "eliminate_fredkin",
    "eliminate_swap",
    "toffoli_to_ft_gates",
    "lower_toffoli",
    "synthesize_ft",
    "TOFFOLI_FT_GATE_COUNT",
]

#: Number of FT gates produced for each 3-input Toffoli (2 H, 4 T, 3 T†,
#: 6 CNOT).
TOFFOLI_FT_GATE_COUNT = 15


def _wrap(circuit: Circuit, table: GateTable) -> Circuit:
    """``table`` as a circuit carrying ``circuit``'s name."""
    result = Circuit.from_table(table)
    result.name = circuit.name
    return result


def expand_multi_controlled(
    circuit: Circuit, share_ancillas: bool = False
) -> Circuit:
    """Lower MCT/MCF gates to 3-input Toffoli and Fredkin gates.

    Parameters
    ----------
    circuit:
        Input circuit; may contain any gate kind.
    share_ancillas:
        When ``False`` (paper-faithful default) each multi-controlled gate
        allocates fresh ancilla qubits (named ``anc<k>``).  When ``True``
        ancillas are pooled and reused, shrinking the qubit count
        (ablation mode).

    Returns
    -------
    Circuit
        A new circuit whose gates are free of MCT and MCF kinds.  For a
        k-control Toffoli the expansion uses ``k - 2`` ancillas and
        ``2k - 3`` Toffolis (compute chain, terminal Toffoli, uncompute
        chain); a k-control Fredkin uses ``k - 1`` ancillas, ``2(k - 1)``
        Toffolis and one Fredkin.
    """
    table = circuit.table()
    carry = _McExpandCarry(table.qubit_names, share_ancillas)
    return _wrap(circuit, carry.expand_chunk(table))


def eliminate_fredkin(circuit: Circuit) -> Circuit:
    """Replace each 3-input Fredkin by three 3-input Toffoli gates.

    ``FREDKIN(c; x, y) = TOFFOLI(c, x; y) · TOFFOLI(c, y; x) ·
    TOFFOLI(c, x; y)`` — the controlled version of the three-CNOT swap.
    This matches the paper: "The resultant 3-input Fredkin gates are
    replaced by three 3-input Toffoli gates."
    """
    return _wrap(circuit, eliminate_fredkin_table(circuit.table()))


def eliminate_swap(circuit: Circuit) -> Circuit:
    """Replace each unconditional SWAP by the standard three CNOTs."""
    return _wrap(circuit, eliminate_swap_table(circuit.table()))


def toffoli_to_ft_gates(control1: int, control2: int, target: int) -> List[Gate]:
    """The 15-gate FT realization of ``TOFFOLI(control1, control2; target)``.

    This is the textbook decomposition (Nielsen & Chuang Fig. 4.9) over
    {H, T, T†, CNOT}: 2 Hadamards, 4 T, 3 T† and 6 CNOTs.  Together with a
    surrounding circuit it reproduces the gate sequence drawn in the
    paper's Figure 2(a).
    """
    builder = TableBuilder(max(control1, control2, target) + 1)
    emit_toffoli_ft(builder, control1, control2, target)
    return list(builder.finish().to_gates())


def lower_toffoli(circuit: Circuit) -> Circuit:
    """Expand every 3-input Toffoli into its 15-gate FT realization."""
    return _wrap(circuit, lower_toffoli_table(circuit.table()))


def synthesize_ft(circuit: Circuit, share_ancillas: bool = False) -> Circuit:
    """Run the complete FT synthesis pipeline of the paper's section 4.1.

    Stages: multi-controlled expansion, SWAP elimination, Fredkin
    elimination, Toffoli lowering, as the vectorized passes of
    :func:`repro.circuits.table.lower_ft` over the circuit's flat table.
    The output contains only gates from the fault-tolerant set {X, Y, Z,
    H, S, S†, T, T†, CNOT}.

    Raises
    ------
    DecompositionError
        If a gate kind survives all stages without belonging to the FT set
        (cannot happen for circuits built from this library's gate kinds,
        but guards future extensions).
    """
    return _wrap(circuit, lower_ft(circuit.table(), share_ancillas))
