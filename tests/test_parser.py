"""Unit tests for the netlist readers/writers (repro.circuits.parser)."""

from __future__ import annotations

import pytest

from repro.circuits.gates import GateKind
from repro.circuits.generators import ripple_adder
from repro.circuits.parser import (
    read_real,
    reads_qasm_lite,
    reads_real,
    writes_qasm_lite,
    writes_real,
    read_qasm_lite,
)
from repro.exceptions import ParseError

HAM3_REAL = """\
# ham3-style example
.version 1.0
.numvars 3
.variables a b c
.begin
t3 a b c
t2 a b
t1 c
f3 a b c
.end
"""


class TestReadReal:
    def test_parses_gates_and_variables(self):
        circuit = reads_real(HAM3_REAL, name="ham3x")
        assert circuit.name == "ham3x"
        assert circuit.qubit_names == ("a", "b", "c")
        kinds = [g.kind for g in circuit]
        assert kinds == [
            GateKind.TOFFOLI,
            GateKind.CNOT,
            GateKind.X,
            GateKind.FREDKIN,
        ]

    def test_toffoli_operand_roles(self):
        circuit = reads_real(HAM3_REAL)
        tof = circuit[0]
        assert tof.controls == (0, 1)
        assert tof.targets == (2,)

    def test_fredkin_operand_roles(self):
        circuit = reads_real(HAM3_REAL)
        fred = circuit[3]
        assert fred.controls == (0,)
        assert fred.targets == (1, 2)

    def test_mct_parses_from_t5(self):
        text = (
            ".numvars 5\n.variables a b c d e\n.begin\nt5 a b c d e\n.end\n"
        )
        circuit = reads_real(text)
        assert circuit[0].kind is GateKind.MCT
        assert circuit[0].controls == (0, 1, 2, 3)

    def test_numvars_without_variables_synthesizes_names(self):
        text = ".numvars 2\n.begin\nt2 x0 x1\n.end\n"
        circuit = reads_real(text)
        assert circuit.qubit_names == ("x0", "x1")

    def test_ignored_directives_are_accepted(self):
        text = (
            ".version 2.0\n.numvars 2\n.variables a b\n.inputs a b\n"
            ".outputs a b\n.constants --\n.garbage --\n.begin\nt2 a b\n.end\n"
        )
        assert len(reads_real(text)) == 1

    def test_comments_and_blank_lines_skipped(self):
        text = "# top\n\n.numvars 1\n.variables a\n.begin\nt1 a # inline\n.end\n"
        assert len(reads_real(text)) == 1

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "example.real"
        path.write_text(HAM3_REAL, encoding="utf-8")
        circuit = read_real(path)
        assert circuit.name == "example"
        assert len(circuit) == 4


class TestReadRealErrors:
    @pytest.mark.parametrize("text,match", [
        ("t1 a\n", "before .begin"),
        (".begin\n.end\n", ".begin before"),
        (".numvars 2\n.variables a\n.begin\n.end\n", ".numvars is 2"),
        (".numvars 1\n.variables a\n.begin\nt1 b\n.end\n", "unknown qubit"),
        (".numvars 1\n.variables a\n.begin\nzz a\n.end\n", "unknown gate"),
        (".numvars 1\n.variables a\n.begin\nt2 a\n.end\n", "expects"),
        (".numvars 0\n", "positive"),
        (".numvars x\n", "invalid"),
        (".frobnicate\n", "unknown directive"),
        (".numvars 1\n.variables a\n.begin\nt1 a\n.end\nt1 a\n", "after .end"),
    ])
    def test_malformed_inputs_raise_parse_error(self, text, match):
        with pytest.raises(ParseError, match=match):
            reads_real(text)

    def test_missing_end_raises(self):
        with pytest.raises(ParseError, match="missing .end"):
            reads_real(".numvars 1\n.variables a\n.begin\nt1 a\n")

    def test_empty_input_raises(self):
        with pytest.raises(ParseError, match="no .begin"):
            reads_real("")

    def test_error_carries_line_number(self):
        try:
            reads_real(".numvars 1\n.variables a\n.begin\nzz a\n.end\n")
        except ParseError as error:
            assert error.line_number == 4
        else:  # pragma: no cover
            pytest.fail("expected ParseError")

    def test_gate_construction_error_carries_line_number(self):
        # Repeated operands fail gate validation (a CircuitError inside
        # the parser) — the report must still carry the offending line.
        text = ".numvars 2\n.variables a b\n.begin\nt2 a b\nt2 a a\n.end\n"
        with pytest.raises(ParseError, match="line 5.*distinct"):
            reads_real(text)

    def test_trailing_blank_and_comment_lines_accepted(self):
        text = (
            ".numvars 1\n.variables a\n.begin\nt1 a\n.end\n"
            "\n   \n# trailing comment\n  # another\n\n"
        )
        assert len(reads_real(text)) == 1

    def test_comment_after_end_directive_accepted(self):
        text = ".numvars 1\n.variables a\n.begin\nt1 a\n.end # done\n"
        assert len(reads_real(text)) == 1


class TestWriteReal:
    def test_roundtrip_preserves_structure(self):
        original = ripple_adder(3)
        recovered = reads_real(writes_real(original))
        assert recovered.num_qubits == original.num_qubits
        assert len(recovered) == len(original)
        for g1, g2 in zip(original, recovered):
            assert g1.kind is g2.kind
            assert g1.qubits == g2.qubits

    def test_unrepresentable_gate_rejected(self, tiny_ft_circuit):
        from repro.exceptions import CircuitError

        with pytest.raises(CircuitError, match="not representable"):
            writes_real(tiny_ft_circuit)  # contains H/T gates


class TestQasmLite:
    def test_parse_declarations_and_gates(self):
        text = "qubits 2\nqubit anc\nh q0\ncnot q0 anc\ntdg anc\n"
        circuit = reads_qasm_lite(text)
        assert circuit.num_qubits == 3
        assert [g.kind for g in circuit] == [
            GateKind.H,
            GateKind.CNOT,
            GateKind.TDG,
        ]

    def test_roundtrip_ft_circuit(self, tiny_ft_circuit):
        recovered = reads_qasm_lite(writes_qasm_lite(tiny_ft_circuit))
        assert [g.kind for g in recovered] == [
            g.kind for g in tiny_ft_circuit
        ]
        assert recovered.num_qubits == tiny_ft_circuit.num_qubits

    def test_roundtrip_synthesis_circuit(self):
        original = ripple_adder(2)
        recovered = reads_qasm_lite(writes_qasm_lite(original))
        assert len(recovered) == len(original)
        for g1, g2 in zip(original, recovered):
            assert (g1.kind, g1.controls, g1.targets) == (
                g2.kind,
                g2.controls,
                g2.targets,
            )

    def test_mct_and_mcf_roundtrip(self):
        text = "qubits 5\nmct q0 q1 q2 q3\nmcf q0 q1 q2 q3\nswap q0 q4\n"
        circuit = reads_qasm_lite(text)
        assert circuit[0].kind is GateKind.MCT
        assert circuit[1].kind is GateKind.MCF
        assert circuit[1].targets == (2, 3)
        assert circuit[2].kind is GateKind.SWAP

    def test_file_roundtrip(self, tmp_path, tiny_ft_circuit):
        path = tmp_path / "tiny.qasm"
        path.write_text(writes_qasm_lite(tiny_ft_circuit), encoding="utf-8")
        assert len(read_qasm_lite(path)) == len(tiny_ft_circuit)

    @pytest.mark.parametrize("text,match", [
        ("qubits x\n", "expects a count"),
        ("qubit\n", "expects one name"),
        ("h q0\n", "unknown qubit"),
        ("qubits 1\nzz q0\n", "unknown gate"),
        ("qubit a\nqubit a\n", "duplicate"),
        ("qubits 2\ncnot q0 q0\n", "distinct"),
        ("qubits 2\nh q0 q1\n", "requires 0 controls and 1 targets"),
    ])
    def test_malformed_inputs_raise(self, text, match):
        with pytest.raises(ParseError, match=match):
            reads_qasm_lite(text)

    def test_gate_error_carries_line_number(self):
        try:
            reads_qasm_lite("qubits 2\ncnot q0 q1\ncnot q1 q1\n")
        except ParseError as error:
            assert error.line_number == 3
        else:  # pragma: no cover
            pytest.fail("expected ParseError")

    def test_trailing_blank_and_comment_lines_accepted(self):
        text = "qubits 2\ncnot q0 q1\n\n# done\n   \n"
        assert len(reads_qasm_lite(text)) == 1

    def test_parsed_circuits_are_table_backed(self):
        circuit = reads_qasm_lite("qubits 2\ncnot q0 q1\nh q0\n")
        assert circuit.table_if_ready() is not None


#: Fixed netlists with MCT and MCF rows, and the fingerprints, register
#: and row counts their parse produced when recorded.  The readers are one
#: code path shared with the chunked ones, so these literals (not a second
#: reader) pin the parse output.
GOLDEN_REAL = """\
# MCT and MCF rows
.version 2.0
.numvars 6
.variables a b c d e f
.begin
t1 a
t2 a b
t3 a b c
t5 a b c d e
f2 b c
f3 a b c
f5 a b c d e
t4 f e d c
f6 a b c d e f
.end
"""

GOLDEN_QASM_LITE = """\
# MCT and MCF rows
qubits 2
qubit a
qubit b
h q0
cx q0 q1
t a
tdg b
ccx q0 q1 a
mct q0 q1 a b
qubit c
mcf q0 q1 a b c
cswap c a b
swap q1 c
mct c b a q1 q0
s b
sdg q0
"""


class TestGoldenParse:
    def test_real_fingerprint(self):
        table = reads_real(GOLDEN_REAL, name="golden").table()
        assert table.name == "golden"
        assert table.qubit_names == ("a", "b", "c", "d", "e", "f")
        assert len(table) == 9
        assert table.counts_by_kind()[GateKind.MCT] == 2
        assert table.counts_by_kind()[GateKind.MCF] == 2
        assert table.fingerprint() == "72114c8050d0965f21a1cb970c266e94"

    def test_qasm_lite_fingerprint(self):
        table = reads_qasm_lite(GOLDEN_QASM_LITE, name="golden").table()
        assert table.name == "golden"
        assert table.qubit_names == ("q0", "q1", "a", "b", "c")
        assert len(table) == 12
        assert table.counts_by_kind()[GateKind.MCT] == 2
        assert table.counts_by_kind()[GateKind.MCF] == 1
        assert table.fingerprint() == "a050be1e8afc746bcc99ead356963bdb"
