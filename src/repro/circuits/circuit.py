"""The :class:`Circuit` container: a named gate table over named qubits.

A circuit is the unit of exchange between every stage of the flow:

* generators and parsers produce circuits of synthesis-level gates
  (NOT/CNOT/Toffoli/Fredkin/MCT/MCF),
* the FT synthesis stage (:mod:`repro.circuits.decompose`) lowers them to
  the fault-tolerant set,
* the QODG builder consumes FT circuits, and
* both LEQA and the QSPR mapper consume the QODG.

Gate order is significant: the paper assumes "the order of gates does not
change after the synthesis step", and the QODG's data dependencies follow
program order per qubit.

A circuit is a flat :class:`~repro.circuits.table.GateTable` plus a name.
Its rows live in one field: the frozen table, or — from the first
mutation (:meth:`Circuit.append`, :meth:`Circuit.extend`,
:meth:`Circuit.add_qubit`) until the next :meth:`Circuit.table` — a
:class:`~repro.circuits.table.TableBuilder` that owns the register.
Wrapping a table (:meth:`Circuit.from_table`) copies nothing.  The Gate
objects of :attr:`Circuit.gates` are a read-only view, built once per
table; the queries here (statistics, FT check, equality, the content
fingerprint) read the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import CircuitError
from .gates import Gate, GateKind, ONE_QUBIT_FT_KINDS
from .table import GateTable, TableBuilder


@dataclass(frozen=True)
class CircuitStats:
    """Aggregate statistics of a circuit.

    Attributes
    ----------
    qubit_count:
        Number of declared qubits (including idle ones).
    gate_count:
        Total number of gates.
    counts_by_kind:
        Mapping from :class:`GateKind` to occurrence count.
    two_qubit_count:
        Number of CNOT gates (the only two-qubit FT op).
    is_ft:
        Whether every gate belongs to the FT set.
    """

    qubit_count: int
    gate_count: int
    counts_by_kind: dict[GateKind, int]
    two_qubit_count: int
    is_ft: bool


class Circuit:
    """An ordered gate sequence over a named qubit register.

    Parameters
    ----------
    num_qubits:
        Number of qubits to pre-declare.  More can be added later with
        :meth:`add_qubit`.
    name:
        Optional human-readable circuit name (benchmark id).
    qubit_names:
        Optional explicit names; defaults to ``q0, q1, ...``.  Length must
        equal ``num_qubits``.
    """

    def __init__(
        self,
        num_qubits: int = 0,
        name: str = "circuit",
        qubit_names: Sequence[str] | None = None,
    ) -> None:
        self.name = str(name)
        self._rows: GateTable | TableBuilder = TableBuilder(
            num_qubits, self.name, qubit_names
        )

    @classmethod
    def from_table(cls, table: GateTable) -> "Circuit":
        """Wrap a :class:`~repro.circuits.table.GateTable` as it is
        (tables are immutable; nothing is copied)."""
        circuit = cls.__new__(cls)
        circuit.name = table.name
        circuit._rows = table
        return circuit

    def table(self) -> GateTable:
        """The circuit as a flat :class:`GateTable`, frozen from the
        builder on the first call after a mutation."""
        rows = self._rows
        if isinstance(rows, TableBuilder):
            rows = self._rows = rows.finish(self.name)
        return rows

    def _builder(self) -> TableBuilder:
        """The rows as an appendable builder, made from the table on the
        first mutation after a freeze."""
        rows = self._rows
        if isinstance(rows, GateTable):
            rows = self._rows = TableBuilder.from_table(rows)
        return rows

    # -- qubit management ---------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of declared qubits."""
        return self._rows.num_qubits

    @property
    def qubit_names(self) -> tuple[str, ...]:
        """Tuple of qubit names in index order."""
        return self._rows.qubit_names

    def add_qubit(self, name: str | None = None) -> int:
        """Declare a new qubit and return its index.

        ``name`` defaults to ``q<index>`` (skipping names already taken);
        ancilla allocators typically pass explicit names such as
        ``anc17``.
        """
        return self._builder().add_qubit(name)

    def qubit_index(self, name: str) -> int:
        """Return the index of the qubit named ``name``.

        Raises
        ------
        CircuitError
            If no such qubit exists.
        """
        try:
            return self.qubit_names.index(name)
        except ValueError:
            raise CircuitError(f"unknown qubit name {name!r}") from None

    def has_qubit(self, name: str) -> bool:
        """Whether a qubit with this name exists."""
        return name in self.qubit_names

    # -- gate management ----------------------------------------------------

    def append(self, gate: Gate) -> None:
        """Append a gate, validating that its operands are declared qubits."""
        self._builder().append_gate(gate)

    def extend(self, gates: Iterable[Gate]) -> None:
        """Append every gate from ``gates`` in order."""
        builder = self._builder()
        for gate in gates:
            builder.append_gate(gate)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gate sequence as an immutable tuple (built once per table)."""
        return self.table().to_gates()

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __getitem__(self, index: int) -> Gate:
        return self.gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.table().same_content(other.table())

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self)})"
        )

    # -- analysis -----------------------------------------------------------

    def stats(self) -> CircuitStats:
        """Compute aggregate statistics (one pass over the flat kinds)."""
        table = self.table()
        counts = table.counts_by_kind()
        return CircuitStats(
            qubit_count=self.num_qubits,
            gate_count=len(table),
            counts_by_kind=counts,
            two_qubit_count=counts.get(GateKind.CNOT, 0),
            is_ft=table.is_ft(),
        )

    def is_ft(self) -> bool:
        """Whether every gate belongs to the fault-tolerant gate set."""
        return self.table().is_ft()

    def count_kind(self, kind: GateKind) -> int:
        """Number of gates of the given kind."""
        return self.table().counts_by_kind().get(kind, 0)

    def active_qubits(self) -> set[int]:
        """Indices of qubits touched by at least one gate."""
        table = self.table()
        operands = np.concatenate(
            (table.ctrl, table.ctrl2, table.target, table.target2, table.extra)
        )
        return set(np.unique(operands[operands >= 0]).tolist())

    def one_qubit_ft_histogram(self) -> dict[GateKind, int]:
        """Counts of each one-qubit FT gate kind present in the circuit."""
        return {
            kind: count
            for kind, count in self.table().counts_by_kind().items()
            if kind in ONE_QUBIT_FT_KINDS
        }

    def content_fingerprint(self) -> str:
        """Content hash of the register size and exact gate sequence.

        Two circuits with identical registers and gate lists share a
        fingerprint regardless of their names, which is what the engine's
        artifact cache keys content-derived stages (IIG, presence zones)
        on.  The digest is :meth:`GateTable.fingerprint` of
        :meth:`table`, which the table computes once, so repeated
        cache-stage lookups hash nothing.
        """
        return self.table().fingerprint()

    def copy(self, name: str | None = None) -> "Circuit":
        """Return a copy sharing the (immutable) table; appending to
        either side leaves the other unchanged."""
        clone = Circuit.from_table(self.table())
        clone.name = name or self.name
        return clone

    def reversed(self) -> "Circuit":
        """Return the circuit with gate order reversed.

        For the self-inverse synthesis gate set (NOT/CNOT/Toffoli/Fredkin/
        SWAP) this is the functional inverse, which makes ``c + c.reversed()``
        the identity — handy for building test fixtures.
        """
        clone = Circuit(self.num_qubits, self.name, self.qubit_names)
        clone.extend(reversed(self.gates))
        return clone

    def __add__(self, other: "Circuit") -> "Circuit":
        """Concatenate two circuits over an identical qubit register."""
        if not isinstance(other, Circuit):
            return NotImplemented
        if self.qubit_names != other.qubit_names:
            raise CircuitError(
                "can only concatenate circuits with identical qubit registers"
            )
        result = self.copy()
        result.extend(other.gates)
        return result
