"""The :class:`Circuit` container: an ordered gate list over named qubits.

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

Since the array-native front-end refactor a circuit is **dual-natured**:
it can be backed by a flat :class:`~repro.circuits.table.GateTable` (the
canonical interchange form the parser, the generators and the table
passes produce), by a list of :class:`Gate` objects (the historical form
mutating callers build), or by both.  Either view materializes the other
lazily, so array consumers (QODG/IIG CSR builders, the batched sweeps)
never pay for Gate objects and object consumers never notice the
difference.  The table is the circuit's one compiled form: the queries
here (statistics, FT check, equality, the content fingerprint) read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .._validation import require_non_negative_int
from ..exceptions import CircuitError
from .gates import Gate, GateKind, ONE_QUBIT_FT_KINDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .table import GateTable


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
    """An ordered list of :class:`Gate` objects over a named qubit register.

    Parameters
    ----------
    num_qubits:
        Number of qubits to pre-declare.  More can be added later with
        :meth:`add_qubit` (used by the decomposer to allocate ancillas).
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
        require_non_negative_int(num_qubits, "num_qubits", CircuitError)
        self.name = str(name)
        if qubit_names is not None:
            qubit_names = [str(q) for q in qubit_names]
            if len(qubit_names) != num_qubits:
                raise CircuitError(
                    f"qubit_names has {len(qubit_names)} entries but "
                    f"num_qubits is {num_qubits}"
                )
            if len(set(qubit_names)) != len(qubit_names):
                raise CircuitError("qubit names must be distinct")
            self._qubit_names: list[str] = list(qubit_names)
        else:
            self._qubit_names = [f"q{i}" for i in range(num_qubits)]
        self._index_by_name: dict[str, int] = {
            qname: i for i, qname in enumerate(self._qubit_names)
        }
        # Dual storage: a Gate list, a GateTable, or both.  `_table_token`
        # is the (num_qubits, gate_count) version at which `_table` was
        # valid; the container only grows, so a matching token proves the
        # table still describes the full circuit.
        self._gate_list: list[Gate] | None = []
        self._table: "GateTable | None" = None
        self._table_token: tuple[int, int] | None = None
        self._gates_view: tuple[Gate, ...] | None = None
        # (token, hexdigest) — see content_fingerprint().
        self._fp_cache: tuple[tuple[int, int], str] | None = None

    # -- table backing -----------------------------------------------------

    @classmethod
    def from_table(cls, table: "GateTable") -> "Circuit":
        """Wrap a :class:`~repro.circuits.table.GateTable` without
        materializing Gate objects.

        The table is adopted as-is (tables are immutable); gates are
        materialized only if an object consumer asks for them.
        """
        circuit = cls.__new__(cls)
        circuit.name = table.name
        circuit._qubit_names = list(table.qubit_names)
        circuit._index_by_name = {
            qname: i for i, qname in enumerate(circuit._qubit_names)
        }
        circuit._gate_list = None
        circuit._table = table
        circuit._table_token = (table.num_qubits, len(table))
        circuit._gates_view = None
        circuit._fp_cache = None
        return circuit

    def _gate_count(self) -> int:
        """Gate count without materializing either representation."""
        if self._gate_list is not None:
            return len(self._gate_list)
        assert self._table is not None
        return len(self._table)

    @property
    def _gates(self) -> list[Gate]:
        """The Gate-object list, materialized from the table on demand."""
        if self._gate_list is None:
            assert self._table is not None
            self._gate_list = self._table.to_gates()
        return self._gate_list

    @_gates.setter
    def _gates(self, value: list[Gate]) -> None:
        # Mutating callers (the object passes of decompose) replace
        # the list wholesale; any cached table no longer describes it.
        self._gate_list = value
        self._table = None
        self._table_token = None
        self._gates_view = None
        self._fp_cache = None

    def table(self) -> "GateTable":
        """The circuit as a flat :class:`GateTable`, built once and cached.

        Valid while the circuit is unchanged (the ``(num_qubits,
        gate_count)`` token detects growth); array consumers key their
        CSR builds and fingerprints on it.
        """
        token = (self.num_qubits, self._gate_count())
        if self._table is not None and self._table_token == token:
            return self._table
        from .table import table_from_gates

        self._table = table_from_gates(
            self._gates, self._qubit_names, name=self.name
        )
        self._table_token = token
        return self._table

    def table_if_ready(self) -> "GateTable | None":
        """The cached table when it is current, else ``None``.

        Consumers with both array and object paths use this to pick the
        fast path without forcing a table build on object-built circuits.
        """
        token = (self.num_qubits, self._gate_count())
        if self._table is not None and self._table_token == token:
            return self._table
        return None

    # -- qubit management ---------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of declared qubits."""
        return len(self._qubit_names)

    @property
    def qubit_names(self) -> tuple[str, ...]:
        """Tuple of qubit names in index order."""
        return tuple(self._qubit_names)

    def add_qubit(self, name: str | None = None) -> int:
        """Declare a new qubit and return its index.

        ``name`` defaults to ``q<index>``; ancilla allocators typically pass
        explicit names such as ``anc17``.
        """
        index = len(self._qubit_names)
        if name is None:
            # Avoid collisions if explicit names like "q3" already exist.
            suffix = index
            name = f"q{suffix}"
            while name in self._index_by_name:
                suffix += 1
                name = f"q{suffix}"
        name = str(name)
        if name in self._index_by_name:
            raise CircuitError(f"duplicate qubit name {name!r}")
        self._qubit_names.append(name)
        self._index_by_name[name] = index
        return index

    def qubit_index(self, name: str) -> int:
        """Return the index of the qubit named ``name``.

        Raises
        ------
        CircuitError
            If no such qubit exists.
        """
        try:
            return self._index_by_name[name]
        except KeyError:
            raise CircuitError(f"unknown qubit name {name!r}") from None

    def has_qubit(self, name: str) -> bool:
        """Whether a qubit with this name exists."""
        return name in self._index_by_name

    # -- gate management ----------------------------------------------------

    def append(self, gate: Gate) -> None:
        """Append a gate, validating that its operands are declared qubits."""
        top = self.num_qubits
        for qubit in gate.iter_qubits():
            if qubit >= top:
                raise CircuitError(
                    f"gate {gate} references qubit {qubit} but the circuit "
                    f"has only {top} qubits"
                )
        self._gates.append(gate)
        self._gates_view = None

    def extend(self, gates: Iterable[Gate]) -> None:
        """Append every gate from ``gates`` in order."""
        for gate in gates:
            self.append(gate)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gate sequence as an immutable tuple (cached between edits)."""
        if self._gates_view is None or len(self._gates_view) != len(self._gates):
            self._gates_view = tuple(self._gates)
        return self._gates_view

    def __len__(self) -> int:
        return self._gate_count()

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if self._qubit_names != other._qubit_names:
            return False
        return self.table().same_content(other.table())

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={self._gate_count()})"
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
        active: set[int] = set()
        for gate in self._gates:
            active.update(gate.iter_qubits())
        return active

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
        :meth:`table`, cached while the circuit is unchanged, so repeated
        cache-stage lookups hash nothing.
        """
        token = (self.num_qubits, self._gate_count())
        if self._fp_cache is None or self._fp_cache[0] != token:
            self._fp_cache = (token, self.table().fingerprint())
        return self._fp_cache[1]

    def copy(self, name: str | None = None) -> "Circuit":
        """Return a shallow copy (gates are immutable so sharing is safe).

        A table-backed circuit stays table-backed: the (immutable) table
        is shared and no Gate objects are materialized.
        """
        clone = Circuit(0, name or self.name)
        clone._qubit_names = list(self._qubit_names)
        clone._index_by_name = dict(self._index_by_name)
        clone._gate_list = (
            None if self._gate_list is None else list(self._gate_list)
        )
        clone._table = self.table_if_ready()
        clone._table_token = (
            None
            if clone._table is None
            else (self.num_qubits, self._gate_count())
        )
        return clone

    def reversed(self) -> "Circuit":
        """Return the circuit with gate order reversed.

        For the self-inverse synthesis gate set (NOT/CNOT/Toffoli/Fredkin/
        SWAP) this is the functional inverse, which makes ``c + c.reversed()``
        the identity — handy for building test fixtures.
        """
        clone = self.copy()
        clone._gates = list(reversed(self._gates))
        return clone

    def __add__(self, other: "Circuit") -> "Circuit":
        """Concatenate two circuits over an identical qubit register."""
        if not isinstance(other, Circuit):
            return NotImplemented
        if self._qubit_names != other._qubit_names:
            raise CircuitError(
                "can only concatenate circuits with identical qubit registers"
            )
        result = self.copy()
        result._gates = self._gates + other._gates
        return result
