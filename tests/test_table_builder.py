"""``TableBuilder.extend_rows`` against the per-gate methods.

The bulk append must accept exactly the rows the per-gate methods
accept, build the same table from them, and leave the builder untouched
when it rejects a batch.  A row reaches the per-gate methods through
``append_kind``: its controls are ``(ctrl, ctrl2)`` and its targets
``(target, target2)`` without the ``-1`` slots, which must be the
trailing ones (a ``ctrl2`` needs a ``ctrl``, and the target is always
filled).  MCT and MCF keep their further controls outside the five
columns, so the bulk append takes neither.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.gates import KIND_CODES, KINDS_BY_CODE, GateKind
from repro.circuits.table import TableBuilder
from repro.exceptions import CircuitError

NUM_QUBITS = 4

#: The kinds that fit the five columns.
FIXED_KINDS = (
    GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S,
    GateKind.SDG, GateKind.T, GateKind.TDG, GateKind.CNOT,
    GateKind.TOFFOLI, GateKind.FREDKIN, GateKind.SWAP,
)
#: Fixed-slot kinds half the time, else any code, MCT/MCF and one below
#: and one above the valid range included.
CODES = st.one_of(
    st.sampled_from([KIND_CODES[kind] for kind in FIXED_KINDS]),
    st.integers(min_value=-1, max_value=len(KINDS_BY_CODE)),
)
#: Empty slots, negative and out-of-range operands, and valid qubits.
OPERANDS = st.one_of(st.just(-1), st.integers(-2, NUM_QUBITS))


def layout(code, a, b, c):
    """The well-formed row of ``code`` over distinct qubits a, b, c."""
    kind = KINDS_BY_CODE[code] if 0 <= code < len(KINDS_BY_CODE) else None
    if kind is GateKind.CNOT:
        return [code, a, -1, b, -1]
    if kind is GateKind.FREDKIN:
        return [code, a, -1, b, c]
    if kind is GateKind.SWAP:
        return [code, -1, -1, a, b]
    if kind in (GateKind.TOFFOLI, GateKind.MCT, GateKind.MCF, None):
        return [code, a, b, c, -1]
    return [code, -1, -1, a, -1]


def filled_slots(row):
    return [slot for slot in range(1, 5) if row[slot] != -1]


@st.composite
def mutated_rows(draw):
    """A well-formed row; one time in three one slot is overwritten,
    with a random value or with another filled slot's qubit."""
    a, b, c, _ = draw(st.permutations(range(NUM_QUBITS)))
    row = layout(draw(CODES), a, b, c)
    if draw(st.integers(0, 2)) == 0:
        filled = filled_slots(row)
        if len(filled) > 1 and draw(st.booleans()):
            slot, source = draw(st.permutations(filled))[:2]
            row[slot] = row[source]
        else:
            slot = draw(st.integers(0, 4))
            row[slot] = draw(CODES if slot == 0 else OPERANDS)
    return tuple(row)


ROWS = mutated_rows()


def append_per_gate(builder, code, c1, c2, t1, t2):
    """One row through the per-gate entry point (raises like it)."""
    if not 0 <= code < len(KINDS_BY_CODE):
        raise CircuitError(f"unknown kind code {code}")
    kind = KINDS_BY_CODE[code]
    if kind in (GateKind.MCT, GateKind.MCF):
        raise CircuitError(f"{kind.value} does not fit the fixed slots")
    if t1 == -1 or (c1 == -1 and c2 != -1):
        raise CircuitError("filled slots are not left-packed")
    controls = tuple(q for q in (c1, c2) if q != -1)
    targets = tuple(q for q in (t1, t2) if q != -1)
    builder.append_kind(kind, controls, targets)


def columns_of(batch):
    return [list(column) for column in zip(*batch)] if batch else [[]] * 5


def assert_same(lhs, rhs):
    assert lhs.same_content(rhs)
    assert lhs.fingerprint() == rhs.fingerprint()


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        prefix=st.lists(ROWS, max_size=6), batch=st.lists(ROWS, max_size=12)
    )
    def test_bulk_matches_per_gate(self, prefix, batch):
        per_gate = TableBuilder(NUM_QUBITS)
        bulk = TableBuilder(NUM_QUBITS)
        # Rows already staged by the per-gate methods come first.
        for row in prefix:
            try:
                append_per_gate(per_gate, *row)
            except CircuitError:
                continue
            append_per_gate(bulk, *row)
        first_bad = None
        for index, row in enumerate(batch):
            try:
                append_per_gate(per_gate, *row)
            except CircuitError:
                first_bad = index
                break
        before = bulk.finish()
        if first_bad is None:
            bulk.extend_rows(*columns_of(batch))
            assert_same(bulk.finish(), per_gate.finish())
        else:
            with pytest.raises(CircuitError, match=f"row {first_bad}:"):
                bulk.extend_rows(*columns_of(batch))
            assert_same(bulk.finish(), before)

    def test_large_batch_grows_the_buffers(self):
        rng = random.Random(4)
        n = 40
        rows = []
        for _ in range(5000):
            kind = rng.choice(
                [GateKind.X, GateKind.H, GateKind.CNOT, GateKind.TOFFOLI,
                 GateKind.FREDKIN, GateKind.SWAP]
            )
            a, b, c = rng.sample(range(n), 3)
            rows.append(tuple(layout(KIND_CODES[kind], a, b, c)))
        per_gate = TableBuilder(n, initial_capacity=16)
        for row in rows:
            append_per_gate(per_gate, *row)
        bulk = TableBuilder(n, initial_capacity=16)
        kinds, *operands = np.array(rows).T
        bulk.extend_rows(kinds.astype(np.int8), *operands)
        assert_same(bulk.finish(), per_gate.finish())


def single_faults():
    """Every fixed-slot row with one slot made negative, out of range
    or a copy of another filled slot."""
    for kind in FIXED_KINDS:
        row = layout(KIND_CODES[kind], 0, 1, 2)
        filled = filled_slots(row)
        for slot in filled:
            values = [-2, NUM_QUBITS]
            values += [row[other] for other in filled if other != slot]
            for value in values:
                faulty = list(row)
                faulty[slot] = value
                yield tuple(faulty)


class TestRejections:
    @pytest.mark.parametrize("row", list(single_faults()))
    def test_every_single_fault_is_rejected_like_per_gate(self, row):
        good = tuple(layout(KIND_CODES[GateKind.CNOT], 3, 0, 1))
        with pytest.raises(CircuitError):
            append_per_gate(TableBuilder(NUM_QUBITS), *row)
        builder = TableBuilder(NUM_QUBITS)
        builder.x(2)
        before = builder.finish()
        with pytest.raises(CircuitError, match="row 1:"):
            builder.extend_rows(*columns_of([good, row, good]))
        assert_same(builder.finish(), before)

    @pytest.mark.parametrize(
        "row,match",
        [
            ((KIND_CODES[GateKind.CNOT], -3, -1, 1, -1), "non-negative"),
            ((KIND_CODES[GateKind.X], -1, -1, 4, -1), "only 4 qubits"),
            ((KIND_CODES[GateKind.TOFFOLI], -1, 0, 1, -1), "does not fill"),
            ((KIND_CODES[GateKind.CNOT], 0, -1, 1, 2), "does not fill"),
            ((KIND_CODES[GateKind.FREDKIN], 0, -1, 1, 1), "distinct"),
            ((KIND_CODES[GateKind.MCT], 0, 1, 2, -1), "not a fixed-slot"),
            ((99, -1, -1, 0, -1), "not a fixed-slot"),
        ],
    )
    def test_names_the_first_bad_row(self, row, match):
        good = (KIND_CODES[GateKind.CNOT], 0, -1, 1, -1)
        builder = TableBuilder(NUM_QUBITS)
        with pytest.raises(CircuitError, match=f"row 2: .*{match}"):
            builder.extend_rows(*columns_of([good, good, row, row]))
        assert len(builder) == 0

    def test_columns_must_hold_integers(self):
        builder = TableBuilder(NUM_QUBITS)
        with pytest.raises(CircuitError, match="integers"):
            builder.extend_rows([0], [-1.0], [-1], [0], [-1])
        with pytest.raises(CircuitError, match="integers"):
            builder.extend_rows([0], [-1], [-1], [True], [-1])

    def test_columns_must_have_equal_length(self):
        builder = TableBuilder(NUM_QUBITS)
        with pytest.raises(CircuitError, match="equal length"):
            builder.extend_rows([0, 0], [-1], [-1], [0], [-1])
