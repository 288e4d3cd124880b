"""Netlist readers and writers.

Two textual formats are supported:

* **RevLib ``.real``** (subset) — the format of the Maslov reversible
  benchmark suite the paper draws its circuits from.  Gate lines use the
  ``t<n>``/``f<n>`` convention: ``t3 a b c`` is a Toffoli with controls
  ``a b`` and target ``c``; ``f3 a b c`` is a Fredkin with control ``a``
  swapping ``b c``.  Headers ``.numvars``, ``.variables``, ``.begin`` and
  ``.end`` are honoured; ``.inputs``/``.outputs``/``.constants``/
  ``.garbage``/``.version`` are accepted and ignored (they do not affect
  latency estimation).

* **qasm-lite** — a minimal line-oriented format used by this library's
  own tooling: ``qubits N`` or ``qubit <name>`` declarations followed by
  one gate per line, e.g. ``cnot q0 q1`` or ``tdg q3``.  Operand order is
  controls first, then targets.

Both readers are strict: malformed lines raise :class:`ParseError` with a
line number (including gate-construction errors such as repeated
operands), and blank or comment-only lines are accepted anywhere — in
particular after ``.end``.

Both readers stream gate lines straight into a
:class:`~repro.circuits.table.TableBuilder` — five integer appends per
gate, no intermediate :class:`~repro.circuits.gates.Gate` objects.  Each
is written once, as a chunked reader (:func:`stream_read_real`,
:func:`stream_read_qasm_lite`) that emits a
:class:`~repro.circuits.table.GateTable` every ``chunk_size`` gates; the
materialized readers are its one-chunk case and return a table-backed
:class:`~repro.circuits.circuit.Circuit`.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path
from typing import Iterator, TextIO

from ..exceptions import CircuitError, ParseError
from .circuit import Circuit
from .gates import GateKind, kind_from_name
from .table import (
    DEFAULT_CHUNK_SIZE,
    GateTable,
    TableBuilder,
    _require_chunk_size,
)

__all__ = [
    "read_real",
    "reads_real",
    "write_real",
    "writes_real",
    "read_qasm_lite",
    "reads_qasm_lite",
    "write_qasm_lite",
    "writes_qasm_lite",
    "stream_read_real",
    "stream_reads_real",
    "stream_read_qasm_lite",
]


# ---------------------------------------------------------------------------
# RevLib .real
# ---------------------------------------------------------------------------


def reads_real(text: str, name: str = "circuit") -> Circuit:
    """Parse RevLib ``.real`` content from a string."""
    return read_real(io.StringIO(text), name=name)


def read_real(source: TextIO | str | Path, name: str | None = None) -> Circuit:
    """Parse a RevLib ``.real`` netlist.

    Parameters
    ----------
    source:
        A file path or an open text stream.
    name:
        Circuit name; defaults to the file stem when a path is given.

    Returns
    -------
    Circuit
        Circuit over the declared variables, containing X/CNOT/TOFFOLI/
        FREDKIN/MCT/MCF gates, backed by a flat
        :class:`~repro.circuits.table.GateTable` — the one chunk of
        :func:`stream_read_real`.
    """
    (table,) = stream_read_real(source, name=name, chunk_size=sys.maxsize)
    return Circuit.from_table(table)


def stream_reads_real(
    text: str, name: str = "circuit", chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[GateTable]:
    """Chunked :func:`reads_real` (string input)."""
    return stream_read_real(io.StringIO(text), name=name, chunk_size=chunk_size)


def stream_read_real(
    source: TextIO | str | Path,
    name: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[GateTable]:
    """Chunked RevLib ``.real`` reader: a table is emitted every
    ``chunk_size`` gates.  End-of-input errors (missing ``.begin`` or
    ``.end``) surface when the generator is exhausted."""
    _require_chunk_size(chunk_size)
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open("r", encoding="utf-8") as stream:
            yield from stream_read_real(
                stream, name=name or path.stem, chunk_size=chunk_size
            )
        return
    builder: TableBuilder | None = None
    declared_numvars: int | None = None
    variables: list[str] | None = None
    in_body = False
    ended = False
    room = chunk_size  # gate rows left before the current chunk is full
    for line_number, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue  # blank or comment-only lines are fine anywhere
        if ended:
            raise ParseError("content after .end", line_number)
        if line.startswith("."):
            tokens = line.split()
            directive = tokens[0].lower()
            if directive == ".numvars":
                if len(tokens) != 2:
                    raise ParseError(".numvars expects one argument", line_number)
                try:
                    declared_numvars = int(tokens[1])
                except ValueError:
                    raise ParseError(
                        f"invalid .numvars value {tokens[1]!r}", line_number
                    ) from None
                if declared_numvars <= 0:
                    raise ParseError(".numvars must be positive", line_number)
            elif directive == ".variables":
                variables = tokens[1:]
                if not variables:
                    raise ParseError(".variables expects qubit names", line_number)
            elif directive == ".begin":
                if declared_numvars is None and variables is None:
                    raise ParseError(
                        ".begin before .numvars/.variables", line_number
                    )
                if variables is None:
                    variables = [f"x{i}" for i in range(declared_numvars or 0)]
                if declared_numvars is not None and len(variables) != declared_numvars:
                    raise ParseError(
                        f".numvars is {declared_numvars} but .variables lists "
                        f"{len(variables)} names",
                        line_number,
                    )
                try:
                    builder = TableBuilder(
                        len(variables), name=name or "circuit",
                        qubit_names=variables,
                    )
                except CircuitError as error:
                    raise ParseError(str(error), line_number) from None
                in_body = True
            elif directive == ".end":
                if not in_body:
                    raise ParseError(".end before .begin", line_number)
                ended = True
            elif directive in (
                ".version",
                ".inputs",
                ".outputs",
                ".constants",
                ".garbage",
                ".inputbus",
                ".outputbus",
                ".define",
                ".module",
            ):
                continue  # metadata irrelevant to latency estimation
            else:
                raise ParseError(f"unknown directive {directive!r}", line_number)
            continue
        if not in_body:
            raise ParseError(f"gate line {line!r} before .begin", line_number)
        assert builder is not None
        _parse_real_gate(line, builder, line_number)
        room -= 1
        if not room:
            yield builder.finish()
            builder.clear_rows()
            room = chunk_size
    if builder is None:
        raise ParseError("no .begin section found")
    if in_body and not ended:
        raise ParseError("missing .end")
    builder.shrink_to_fit()
    yield builder.finish()


def _parse_real_gate(
    line: str, builder: TableBuilder, line_number: int
) -> None:
    """Parse one RevLib gate line (``t<n>``/``f<n>`` conventions)."""
    tokens = line.split()
    mnemonic = tokens[0].lower()
    operand_names = tokens[1:]
    try:
        operands = [builder.qubit_index(qname) for qname in operand_names]
    except CircuitError as error:
        raise ParseError(str(error), line_number) from None
    try:
        if mnemonic.startswith("t") and mnemonic[1:].isdigit():
            size = int(mnemonic[1:])
            if size < 1 or len(operands) != size:
                raise ParseError(
                    f"{mnemonic} expects {mnemonic[1:]} operands, got "
                    f"{len(operands)}",
                    line_number,
                )
            builder.mct(tuple(operands[:-1]), operands[-1])
            return
        if mnemonic.startswith("f") and mnemonic[1:].isdigit():
            size = int(mnemonic[1:])
            if size < 2 or len(operands) != size:
                raise ParseError(
                    f"{mnemonic} expects {mnemonic[1:]} operands, got "
                    f"{len(operands)}",
                    line_number,
                )
            builder.mcf(tuple(operands[:-2]), operands[-2], operands[-1])
            return
        raise ParseError(f"unknown gate mnemonic {mnemonic!r}", line_number)
    except CircuitError as error:
        raise ParseError(str(error), line_number) from None


def writes_real(circuit: Circuit) -> str:
    """Serialize a circuit to RevLib ``.real`` text."""
    stream = io.StringIO()
    write_real(circuit, stream)
    return stream.getvalue()


def write_real(circuit: Circuit, destination: TextIO | str | Path) -> None:
    """Write a circuit as a RevLib ``.real`` netlist.

    Only gate kinds expressible in the format (X/CNOT/TOFFOLI/FREDKIN/
    MCT/MCF) are supported; others raise :class:`CircuitError`.
    """
    if isinstance(destination, (str, Path)):
        with Path(destination).open("w", encoding="utf-8") as stream:
            write_real(circuit, stream)
        return
    names = circuit.qubit_names
    destination.write("# generated by repro (LEQA reproduction)\n")
    destination.write(".version 2.0\n")
    destination.write(f".numvars {circuit.num_qubits}\n")
    destination.write(".variables " + " ".join(names) + "\n")
    destination.write(".begin\n")
    table = circuit.table()
    for index in range(len(table)):
        kind = table.gate_kind(index)
        operands = table.controls_of(index) + table.targets_of(index)
        operand_names = [names[q] for q in operands]
        if kind in (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCT):
            destination.write(
                f"t{len(operands)} " + " ".join(operand_names) + "\n"
            )
        elif kind in (GateKind.FREDKIN, GateKind.MCF):
            destination.write(
                f"f{len(operands)} " + " ".join(operand_names) + "\n"
            )
        else:
            raise CircuitError(
                f"gate kind {kind.value!r} is not representable in .real"
            )
    destination.write(".end\n")


# ---------------------------------------------------------------------------
# qasm-lite
# ---------------------------------------------------------------------------


def reads_qasm_lite(text: str, name: str = "circuit") -> Circuit:
    """Parse qasm-lite content from a string."""
    return read_qasm_lite(io.StringIO(text), name=name)


def read_qasm_lite(
    source: TextIO | str | Path, name: str | None = None
) -> Circuit:
    """Parse a qasm-lite netlist (this library's own simple format): the
    one chunk of :func:`stream_read_qasm_lite`."""
    (table,) = stream_read_qasm_lite(
        source, name=name, chunk_size=sys.maxsize
    )
    return Circuit.from_table(table)


def stream_read_qasm_lite(
    source: TextIO | str | Path,
    name: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[GateTable]:
    """Chunked qasm-lite reader.

    qasm-lite may declare qubits between gates, so mid-stream chunks can
    carry a smaller register than later ones; the final chunk (always
    emitted, even empty) carries the complete register.
    """
    _require_chunk_size(chunk_size)
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open("r", encoding="utf-8") as stream:
            yield from stream_read_qasm_lite(
                stream, name=name or path.stem, chunk_size=chunk_size
            )
        return
    builder = TableBuilder(0, name or "circuit")
    qubit_index = builder.qubit_index
    room = chunk_size  # gate rows left before the current chunk is full
    for line_number, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        mnemonic = tokens[0].lower()
        if mnemonic == "qubits":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError("qubits expects a count", line_number)
            for _ in range(int(tokens[1])):
                builder.add_qubit()
            continue
        if mnemonic == "qubit":
            if len(tokens) != 2:
                raise ParseError("qubit expects one name", line_number)
            try:
                builder.add_qubit(tokens[1])
            except CircuitError as error:
                raise ParseError(str(error), line_number) from None
            continue
        try:
            kind = kind_from_name(mnemonic)
            operands = [qubit_index(qname) for qname in tokens[1:]]
            _append_from_operands(builder, kind, operands)
        except CircuitError as error:
            raise ParseError(str(error), line_number) from None
        room -= 1
        if not room:
            yield builder.finish()
            builder.clear_rows()
            room = chunk_size
    builder.shrink_to_fit()
    yield builder.finish()


def _append_from_operands(
    builder: TableBuilder, kind: GateKind, operands: list[int]
) -> None:
    """Append a gate from a flat operand list using the kind's arity rules."""
    if kind is GateKind.CNOT:
        builder.append_kind(kind, operands[:1], operands[1:])
    elif kind is GateKind.TOFFOLI:
        builder.append_kind(kind, operands[:2], operands[2:])
    elif kind is GateKind.FREDKIN:
        builder.append_kind(kind, operands[:1], operands[1:])
    elif kind is GateKind.SWAP:
        builder.append_kind(kind, (), operands)
    elif kind is GateKind.MCT:
        builder.mct(tuple(operands[:-1]), operands[-1])
    elif kind is GateKind.MCF:
        builder.mcf(tuple(operands[:-2]), operands[-2], operands[-1])
    else:
        # One-qubit FT gates.
        builder.append_kind(kind, (), operands)


def writes_qasm_lite(circuit: Circuit) -> str:
    """Serialize a circuit to qasm-lite text."""
    stream = io.StringIO()
    write_qasm_lite(circuit, stream)
    return stream.getvalue()


def write_qasm_lite(circuit: Circuit, destination: TextIO | str | Path) -> None:
    """Write a circuit in qasm-lite format (all gate kinds supported)."""
    if isinstance(destination, (str, Path)):
        with Path(destination).open("w", encoding="utf-8") as stream:
            write_qasm_lite(circuit, stream)
        return
    destination.write(f"# circuit {circuit.name}\n")
    names = circuit.qubit_names
    for qname in names:
        destination.write(f"qubit {qname}\n")
    table = circuit.table()
    for index in range(len(table)):
        operands = table.controls_of(index) + table.targets_of(index)
        operand_names = " ".join(names[q] for q in operands)
        destination.write(
            f"{table.gate_kind(index).value} {operand_names}\n"
        )
