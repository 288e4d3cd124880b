"""The compiled peephole scan against its Python fallback.

:func:`repro.circuits.table.peephole` hands the fixed-point loop behind
``optimize_table`` and ``optimize_stream`` the C scan of
:mod:`repro.qspr._kernel`, or ``_scan_stream`` with a ``RuntimeWarning``
when the shared object cannot load.  One pass of each over the same
chunk stream must emit the same rows, bit for bit, and count the same
rewrites — on random tables dense with inverse and self-inverse pairs,
with multi-controlled rows carrying extra controls, over registers that
grow between chunks, at every chunk size and flush cadence.
"""

from __future__ import annotations

import contextlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import table as table_module
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate, GateKind
from repro.circuits.library import build_ft
from repro.circuits.stream import assemble, optimize_stream, stream_table
from repro.circuits.table import (
    GateTable,
    _native_scan,
    _scan_stream,
    optimize_table,
)
from repro.obs import default_registry
from repro.qspr import _kernel

needs_kernel = pytest.mark.skipif(
    not _kernel.available(), reason="the compiled kernel cannot be built here"
)


def table_from_gates(gates, names, name: str = "circuit") -> GateTable:
    """``gates`` over the register ``names``, packed as a table."""
    circuit = Circuit(len(names), name, names)
    circuit.extend(gates)
    return circuit.table()


FALLBACK_WARNING = "falling back to the Python scan"

CHUNK_SIZES = (1, 3, 97, sys.maxsize)

#: Kinds that rewrite, each with the kind that undoes it (itself for
#: the self-inverse ones); the phase kinds also fuse with themselves.
PARTNER = {
    GateKind.X: GateKind.X,
    GateKind.Y: GateKind.Y,
    GateKind.Z: GateKind.Z,
    GateKind.H: GateKind.H,
    GateKind.CNOT: GateKind.CNOT,
    GateKind.T: GateKind.TDG,
    GateKind.TDG: GateKind.T,
    GateKind.S: GateKind.SDG,
    GateKind.SDG: GateKind.S,
}

#: ``(controls, targets)`` of every kind.
SHAPES = {
    **{kind: (0, 1) for kind in PARTNER if kind is not GateKind.CNOT},
    GateKind.CNOT: (1, 1),
    GateKind.TOFFOLI: (2, 1),
    GateKind.FREDKIN: (1, 2),
    GateKind.SWAP: (0, 2),
}


def _broken_load():
    raise RuntimeError("no C compiler found (test stub)")


@contextlib.contextmanager
def kernel_broken():
    """Run the body with the shared object unloadable."""
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(_kernel, "load", _broken_load)
        warnings.filterwarnings("ignore", message=".*" + FALLBACK_WARNING)
        yield


@st.composite
def growing_tables(draw, max_gates: int = 120):
    """A random table whose rows use a register that grows, plus the
    register size each row needs.

    Every FT kind appears, and half the rows repeat the previous row's
    operands as its own kind or its partner, so cancellations and
    fusions (and chains of them) are common; MCT and MCF rows carry
    extra controls.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    start = draw(st.integers(1, 4))
    final = draw(st.integers(start, 9))
    gate_count = draw(st.integers(0, max_gates))
    rng = np.random.default_rng(seed)
    kinds = list(SHAPES) + [GateKind.MCT, GateKind.MCF]
    gates: list[Gate] = []
    needs: list[int] = []
    width = start
    for _ in range(gate_count):
        if width < final and rng.random() < 0.05:
            width += 1
        previous = gates[-1] if gates else None
        if (
            previous is not None
            and previous.kind in PARTNER
            and rng.random() < 0.5
        ):
            kind = (
                previous.kind if rng.random() < 0.5 else PARTNER[previous.kind]
            )
            gates.append(Gate(kind, previous.controls, previous.targets))
            needs.append(width)
            continue
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind is GateKind.MCT:
            shape = (int(rng.integers(3, 6)), 1)
        elif kind is GateKind.MCF:
            shape = (int(rng.integers(3, 5)), 2)
        else:
            shape = SHAPES[kind]
        if sum(shape) > width:
            kind, shape = GateKind.X, (0, 1)
        qubits = rng.choice(width, size=sum(shape), replace=False).tolist()
        gates.append(
            Gate(kind, tuple(qubits[: shape[0]]), tuple(qubits[shape[0]:]))
        )
        needs.append(width)
    names = tuple(f"q{i}" for i in range(final))
    return table_from_gates(gates, names, "drawn"), needs


def chunks_of(table: GateTable, needs: list[int], size: int) -> list[GateTable]:
    """``table`` cut into ``size``-row chunks, each under the register as
    of its last row (the whole register for the last chunk)."""
    chunks = list(stream_table(table, size))
    end = 0
    for index, chunk in enumerate(chunks):
        end += len(chunk)
        width = (
            table.num_qubits
            if index == len(chunks) - 1
            else needs[end - 1]
        )
        chunk.qubit_names = table.qubit_names[:width]
    return chunks


def one_pass(scan, chunks: list[GateTable]) -> tuple[GateTable, int, list]:
    """One scan pass: the emitted rows assembled, the rewrite count and
    the emitted tables."""
    emitted: list[GateTable] = []
    rewrites = scan(iter(chunks), emitted.append)
    last = chunks[-1]
    empty = GateTable(
        kind=np.empty(0, np.int8), ctrl=np.empty(0, np.int64),
        ctrl2=np.empty(0, np.int64), target=np.empty(0, np.int64),
        target2=np.empty(0, np.int64), extra_indptr=np.zeros(1, np.int64),
        extra=np.empty(0, np.int64), qubit_names=last.qubit_names,
        name=last.name,
    )
    return assemble([*emitted, empty]), rewrites, emitted


def assert_bitwise(got: GateTable, want: GateTable) -> None:
    """Same register, same columns: dtypes and bytes."""
    assert got.qubit_names == want.qubit_names
    for column in (
        "kind", "ctrl", "ctrl2", "target", "target2", "extra_indptr", "extra"
    ):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype, column
        assert a.tobytes() == b.tobytes(), column


def carry_state(carry) -> list:
    return [
        (array, array.tobytes())
        for array in (
            carry.window, carry.window_extra, carry.last_on_qubit, carry.state
        )
    ]


class TestNativeScan:
    @needs_kernel
    @pytest.mark.parametrize("flush_every", [1, 5, 64, 4096])
    @given(drawn=growing_tables())
    @settings(max_examples=25, deadline=None)
    def test_pass_matches_python(self, flush_every, drawn):
        table, needs = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(table_module, "_SCAN_FLUSH_EVERY", flush_every)
            for size in CHUNK_SIZES:
                chunks = chunks_of(table, needs, size)
                got, got_rewrites, emitted = one_pass(_native_scan, chunks)
                want, want_rewrites, _ = one_pass(_scan_stream, chunks)
                assert_bitwise(got, want)
                assert got_rewrites == want_rewrites, size
                # Every emitted table's register covers its rows.
                for part in emitted:
                    assert len(part) > 0
                    assert part.max_operands() <= part.num_qubits
                    used = np.concatenate([
                        part.ctrl, part.ctrl2, part.target, part.target2,
                        part.extra,
                    ])
                    assert used.max() < part.num_qubits

    @needs_kernel
    @given(drawn=growing_tables())
    @settings(max_examples=25, deadline=None)
    def test_fixed_point_matches_python(self, drawn):
        table, _ = drawn
        native = optimize_table(table)
        streamed = assemble(
            optimize_stream(stream_table(table, 3), chunk_size=3)
        )
        with kernel_broken():
            fallback = optimize_table(table)
        assert_bitwise(native, fallback)
        assert_bitwise(streamed, fallback)

    @needs_kernel
    def test_extras_round_trip(self):
        # Two identical MCT rows stay (multi-controlled rows never
        # rewrite) while the x pair between them cancels, and a t pair
        # fuses next to an MCF row; the extras come out in row order.
        gates = [
            Gate(GateKind.MCT, (0, 1, 2, 3), (4,)),
            Gate(GateKind.X, (), (5,)),
            Gate(GateKind.X, (), (5,)),
            Gate(GateKind.MCT, (0, 1, 2, 3), (4,)),
            Gate(GateKind.T, (), (0,)),
            Gate(GateKind.T, (), (0,)),
            Gate(GateKind.MCF, (0, 5, 2), (3, 1)),
        ]
        table = table_from_gates(gates, tuple(f"q{i}" for i in range(6)))
        got = optimize_table(table)
        assert got.kind.tolist() == [
            table_module._MCT, table_module._MCT, table_module._S,
            table_module._MCF,
        ]
        assert got.extra_indptr.tolist() == [0, 2, 4, 4, 5]
        assert got.extra.tolist() == [2, 3, 2, 3, 2]
        with kernel_broken():
            assert_bitwise(got, optimize_table(table))

    @needs_kernel
    def test_cancellation_does_not_restore_older_rows(self):
        # h(0) x(0) x(0) h(0): once the x pair cancels, qubit 0 has no
        # last row, so the h pair stays.
        gates = [Gate(GateKind(kind), (), (0,)) for kind in "hxxh"]
        table = table_from_gates(gates, ("a",))
        got, rewrites, _ = one_pass(_native_scan, [table])
        assert rewrites == 1
        assert got.kind.tolist() == [table_module._H, table_module._H]


class TestMalformedInput:
    """A rejected chunk raises ``ValueError`` and leaves the carry as it
    was: same arrays, same bytes."""

    @staticmethod
    def _carry_with_state():
        carry = _kernel.PeepholeCarry(4)
        table = build_ft("ham3").table()
        _kernel.peephole_chunk(
            table, table_module._PEEPHOLE_RULES, carry, 4
        )
        return carry, table.qubit_names

    @needs_kernel
    @pytest.mark.parametrize(
        "column, value, match",
        [
            ("kind", 14, "kind code outside"),
            ("kind", -1, "kind code outside"),
            ("target", 3, "operand outside"),
            ("target", -1, "operand outside"),
            ("ctrl", -2, "operand outside"),
            ("ctrl2", 3, "operand outside"),
            ("target2", 7, "operand outside"),
            ("extra", 3, "operand outside"),
            ("extra_indptr", 5, "extras offsets outside"),
            ("extra_indptr", -1, "extras offsets outside"),
        ],
    )
    def test_out_of_range_leaves_carry_untouched(self, column, value, match):
        carry, names = self._carry_with_state()
        before = carry_state(carry)
        good = table_from_gates(
            [Gate(GateKind.H, (), (0,)), Gate(GateKind.CNOT, (0,), (1,))],
            names,
        )
        columns = {
            name: getattr(good, name).copy()
            for name in (
                "kind", "ctrl", "ctrl2", "target", "target2",
                "extra_indptr", "extra",
            )
        }
        if column == "extra":
            columns["extra_indptr"] = np.array([0, 0, 1])
            columns["extra"] = np.array([value])
        elif column == "extra_indptr":
            columns["extra_indptr"] = np.array([0, value, 0])
        else:
            columns[column][-1] = value
        bad = GateTable(**columns, qubit_names=names)
        with pytest.raises(ValueError, match=match):
            _kernel.peephole_chunk(
                bad, table_module._PEEPHOLE_RULES, carry, 4
            )
        after = carry_state(carry)
        for (array, data), (now, now_data) in zip(before, after):
            assert now is array and now_data == data

    @needs_kernel
    def test_misshapen_columns_and_carry(self):
        carry, names = self._carry_with_state()
        table = build_ft("ham3").table()
        short = GateTable(
            table.kind, table.ctrl[:-1], table.ctrl2, table.target,
            table.target2, table.extra_indptr, table.extra, names,
        )
        with pytest.raises(ValueError, match="differ in shape"):
            _kernel.peephole_chunk(
                short, table_module._PEEPHOLE_RULES, carry, 4
            )
        carry.state = carry.state[:3]
        with pytest.raises(ValueError, match="malformed peephole carry"):
            _kernel.peephole_chunk(
                table, table_module._PEEPHOLE_RULES, carry, 4
            )


class TestFallback:
    """A kernel that cannot load degrades to the Python scan, loudly and
    countably, with the compiled path's exact tables."""

    @needs_kernel
    def test_load_failure_warns_counts_and_matches(self, monkeypatch):
        ft = build_ft("ham15").table()

        def compute():
            return (
                optimize_table(ft),
                assemble(optimize_stream(stream_table(ft, 97), chunk_size=97)),
            )

        native_table, native_stream = compute()
        counter = default_registry()
        before = counter.counter("kernel.fallbacks", entry="peephole")
        monkeypatch.setattr(_kernel, "load", _broken_load)
        with pytest.warns(RuntimeWarning, match=FALLBACK_WARNING) as caught:
            table, streamed = compute()
        assert sum(
            FALLBACK_WARNING in str(warning.message) for warning in caught
        ) == 2
        assert counter.counter("kernel.fallbacks", entry="peephole") == (
            before + 2
        )
        assert_bitwise(table, native_table)
        assert_bitwise(streamed, native_stream)

    @needs_kernel
    def test_native_path_never_builds_row_tuples(self, monkeypatch):
        ft = build_ft("ham15").table()
        with kernel_broken():
            want = optimize_table(ft)

        def forbidden(*args, **kwargs):
            raise AssertionError("a row-tuple helper ran")

        monkeypatch.setattr(table_module, "_rows_of_table", forbidden)
        monkeypatch.setattr(table_module, "_table_of_rows", forbidden)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = optimize_table(ft)
            streamed = assemble(
                optimize_stream(stream_table(ft, 97), chunk_size=97)
            )
        assert_bitwise(got, want)
        assert_bitwise(streamed, want)
