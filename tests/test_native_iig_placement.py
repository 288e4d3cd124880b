"""The compiled IIG pair count and spiral placement against their
Python fallbacks.

:class:`repro.qodg.iig.IIGAccumulator` counts interaction pairs with the
shared object's :class:`~repro.qspr._kernel.PairCounter`, and
:func:`repro.qspr.placement.iig_greedy_placement` places with
:func:`~repro.qspr._kernel.place_iig_greedy`; when the shared object
cannot load, both run their Python fallback (the numpy fold, the Python
spiral) with a ``RuntimeWarning``.  Both must give the same CSR arrays
and the same positions, entry for entry: on random IIGs and fabrics
(ties in the visit order and centroids on an exact ``.5`` are common),
on random FT tables under random chunkings, and against the frozen
placements of every library row.
"""

from __future__ import annotations

import functools
import hashlib
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.gates import ONE_QUBIT_FT_KINDS, Gate, cnot
from repro.circuits.library import BENCHMARKS, build_ft
from repro.circuits.stream import stream_table
from repro.circuits.table import GateTable
from repro.fabric.params import FabricSpec, PhysicalParams
from repro.fabric.tqa import TQA
from repro.obs import default_registry
from repro.qodg.iig import IIG, IIGAccumulator, _PairFold, build_iig
from repro.qspr import _kernel
from repro.qspr.mapper import QSPRMapper
from repro.qspr.placement import (
    _python_greedy_placement,
    iig_greedy_placement,
)

needs_kernel = pytest.mark.skipif(
    not _kernel.available(), reason="the compiled kernel cannot be built here"
)

IIG_WARNING = "falling back to the numpy pair count"
PLACEMENT_WARNING = "falling back to the Python spiral"

FIELDS = ("indptr", "indices", "weights", "degrees", "weight_sums")

ONE_QUBIT = sorted(ONE_QUBIT_FT_KINDS, key=lambda kind: kind.value)

#: blake2b-16 of the int64 ``(x, y)`` rows of the iig_greedy placement of
#: every registry row's FT netlist on a 60x60 and a 16x16 fabric,
#: recorded with the Python spiral before the placement was compiled.
PLACEMENT_DIGESTS = {
    "ham3": (
        "e9573f22d7458f465b7943fe078c6e03",
        "4030ed7ba05c741a72269e88977c6fbe",
    ),
    "8bitadder": (
        "eb3eea4883ec109578d267bef6b2fa90",
        "7e2f4990e34188591fee773b9ece7cac",
    ),
    "gf2^16mult": (
        "d1908ba45d72202c87579e8bfe1d57d0",
        "dec4bbe12d0aef8c50427ded5c948f13",
    ),
    "hwb15ps": (
        "462db995e243f45a2560e215f36c1784",
        "51d04b52365ed8518cce210895c78c15",
    ),
    "hwb16ps": (
        "564283f4c14d2c41a0a76e9d4998c3dd",
        "3fad0148e2231acc8905a07b9c41f33d",
    ),
    "gf2^18mult": (
        "0cbb8e230d8429bc5705eaedcd1d0102",
        "79fed8016e2b829759d28c858090f0fa",
    ),
    "gf2^19mult": (
        "b90fb60da5e30f490c2cc305a1b56df9",
        "b9ec0a3dae0cb4576ea2833bbfea26ce",
    ),
    "gf2^20mult": (
        "50f8bdf24bddadafea23fcf70ee0fe7d",
        "f05ff70e3b5eef2836725bc9c8073d31",
    ),
    "ham15": (
        "04fddef67ff300f473ae8b30e55cf504",
        "16b1c92d5dda28fd66709b72260a29cf",
    ),
    "hwb20ps": (
        "fa44d2ca584908c7247fa6ca97b7dfd4",
        "3b3cde40eeca9b6b948911c85f1e93c0",
    ),
    "hwb50ps": (
        "5450f024440b37698c76096d7ea69905",
        "dc6f036b71cbe2013b492809536046ef",
    ),
    "gf2^50mult": (
        "6d6aae228ba02f0175129703f7444f1b",
        "cc6329f53411a113aa686f57705ee89b",
    ),
    "mod1048576adder": (
        "8733ce01bf9abdf3dde7508b5afd971f",
        "67d9c8b53bd2949d3b2d306a8ebba0c9",
    ),
    "gf2^64mult": (
        "1008d6d07cd5486b05ff5ed6f707bbe3",
        "a82ffc7631c85b5a08b30e8840d0ea1c",
    ),
    "hwb100ps": (
        "b41126fdfaccf41176f57c5d3f165951",
        "d3e0e883adbac163568ef39c404c4a59",
    ),
    "gf2^100mult": (
        "f7f0e800bbed09cf6b14a8e98bf6a65d",
        "b52e0a9402e528a2ff95cbff7386b061",
    ),
    "hwb200ps": (
        "c0014eab13a58273856744927af75a12",
        "eb9f9a8d69e48e5b14681578dac6c00f",
    ),
    "gf2^128mult": (
        "375ea33d21cd3457b94b05390ce74570",
        "762edb2613d4eb5afe86bae9eb236ca3",
    ),
    "gf2^256mult": (
        "1fe4eadcbf2edd49de7694a7cb22b7c4",
        "06c0320c927b091dc820a9c8158d7b3a",
    ),
}

#: Tier-1 skips the rows that take seconds: ``gf2^256mult``'s FT build
#: (3M gates) on both paths, and the Python spiral beyond 1,100 qubits
#: (``hwb100ps``, ``hwb200ps``).  ``REPRO_FULL=1`` runs them all.
FULL_ONLY = {"gf2^256mult"}
FALLBACK_MAX_QUBITS = 1100


def _broken_load():
    raise RuntimeError("no C compiler found (test stub)")


def placement_digest(placement) -> str:
    data = np.asarray(placement, dtype=np.int64).reshape(-1, 2).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def assert_same_iig(got: IIG, want: IIG) -> None:
    for name in FIELDS:
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype == np.int64, name
        assert np.array_equal(mine, theirs), name


def fold(chunks, counter) -> IIG:
    """The accumulator's graph of ``chunks`` with the given pair counter."""
    accumulator = IIGAccumulator()
    accumulator._counter = counter
    for chunk in chunks:
        accumulator.update(chunk)
    return accumulator.finish()


@functools.cache
def library_iig(name: str) -> IIG:
    return build_iig(build_ft(name))


# -- placement ----------------------------------------------------------


@st.composite
def weighted_iigs(draw) -> IIG:
    """0–40 qubits and up to 60 CNOTs, so equal weight sums and
    equal-weight neighbour pairs (centroids on .5) are common."""
    num_qubits = draw(st.integers(0, 40))
    circuit = Circuit(num_qubits)
    if num_qubits > 1:
        pairs = draw(st.lists(
            st.tuples(
                st.integers(0, num_qubits - 1), st.integers(0, num_qubits - 1)
            ).filter(lambda pair: pair[0] != pair[1]),
            max_size=60,
        ))
        circuit.extend(cnot(a, b) for a, b in pairs)
    return build_iig(circuit)


class TestNativePlacement:
    @needs_kernel
    @given(
        iig=weighted_iigs(),
        width=st.integers(1, 8),
        height=st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_python_spiral(self, iig, width, height):
        tqa = TQA(FabricSpec(width, height))
        got = _kernel.place_iig_greedy(iig, tqa)
        assert got == _python_greedy_placement(iig, tqa)
        assert all(type(x) is int and type(y) is int for x, y in got)

    @needs_kernel
    def test_centroid_on_half_rounds_to_even(self):
        # Qubit 3's placed neighbours sit at (1, 1) and (0, 1) with equal
        # weight: its centroid column is 0.5, which rounds to 0 (half to
        # even, as Python's round; half up would give column 1 and place
        # qubits 2 and 3 at (1, 2) and (1, 0)).
        circuit = Circuit(4)
        circuit.extend([cnot(1, 0), cnot(3, 0), cnot(3, 1)])
        tqa = TQA(FabricSpec(3, 3))
        want = [(1, 1), (0, 1), (1, 0), (0, 0)]
        assert _python_greedy_placement(build_iig(circuit), tqa) == want
        assert _kernel.place_iig_greedy(build_iig(circuit), tqa) == want

    @needs_kernel
    def test_overflow_reuses_centroid_ulbs(self):
        circuit = Circuit(9)
        circuit.extend(cnot(q, q + 1) for q in range(8))
        tqa = TQA(FabricSpec(2, 2))
        placement = _kernel.place_iig_greedy(build_iig(circuit), tqa)
        assert placement == _python_greedy_placement(build_iig(circuit), tqa)
        assert len(set(placement)) == tqa.area

    @needs_kernel
    def test_malformed_graph_rejected(self):
        iig = build_iig(ham3_like())
        bad = IIG(iig.indptr, iig.indices + 5, iig.weights)
        with pytest.raises(ValueError, match="malformed graph rows"):
            _kernel.place_iig_greedy(bad, TQA(FabricSpec(4, 4)))

    def test_every_registry_row_is_pinned(self):
        assert set(PLACEMENT_DIGESTS) == set(BENCHMARKS)

    @pytest.mark.parametrize("mode", ["native", "fallback"])
    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_library_placement_matches_digest(self, name, mode):
        full = os.environ.get("REPRO_FULL") == "1"
        if name in FULL_ONLY and not full:
            pytest.skip("a multi-second FT build (set REPRO_FULL=1)")
        iig = library_iig(name)
        if mode == "native":
            if not _kernel.available():
                pytest.skip("the compiled kernel cannot be built here")
            place = _kernel.place_iig_greedy
        else:
            if iig.num_qubits > FALLBACK_MAX_QUBITS and not full:
                pytest.skip("a multi-second Python placement (REPRO_FULL=1)")
            place = _python_greedy_placement
        digests = tuple(
            placement_digest(place(iig, TQA(FabricSpec(side, side))))
            for side in (60, 16)
        )
        assert digests == PLACEMENT_DIGESTS[name]


def ham3_like() -> Circuit:
    circuit = Circuit(3)
    circuit.extend([cnot(0, 1), cnot(1, 2), cnot(2, 0), cnot(0, 1)])
    return circuit


# -- IIG pair count -----------------------------------------------------


def chunk_of(table: GateTable, lo: int, hi: int, names) -> GateTable:
    """Rows ``[lo, hi)`` of ``table`` under the register ``names``."""
    indptr = table.extra_indptr
    return GateTable(
        table.kind[lo:hi], table.ctrl[lo:hi], table.ctrl2[lo:hi],
        table.target[lo:hi], table.target2[lo:hi],
        indptr[lo:hi + 1] - indptr[lo], table.extra[indptr[lo]:indptr[hi]],
        tuple(names), table.name,
    )


@st.composite
def chunked_ft_tables(draw):
    """A random FT table (1–12 qubits, 0–200 gates, one- and two-qubit
    rows) cut at random points into chunks (empty ones included), each
    under a register drawn from its highest operand up to the full one,
    so the register grows and shrinks between chunks."""
    num_qubits = draw(st.integers(1, 12))
    gate_count = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    two_qubit_share = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    circuit = Circuit(num_qubits)
    for _ in range(gate_count):
        if num_qubits > 1 and rng.random() < two_qubit_share:
            a, b = rng.choice(num_qubits, size=2, replace=False).tolist()
            circuit.append(cnot(a, b))
        else:
            kind = ONE_QUBIT[int(rng.integers(len(ONE_QUBIT)))]
            circuit.append(Gate(kind, (), (int(rng.integers(num_qubits)),)))
    table = circuit.table()
    cuts = sorted(draw(st.lists(st.integers(0, gate_count), max_size=8)))
    bounds = [0, *cuts, gate_count]
    names = table.qubit_names
    chunks = []
    for lo, hi in zip(bounds, bounds[1:]):
        rows = table.ctrl[lo:hi], table.target[lo:hi]
        highest = max((int(col.max()) for col in rows if len(col)), default=-1)
        register = max(highest + 1, draw(st.integers(0, num_qubits)))
        chunks.append(chunk_of(table, lo, hi, names[:register]))
    return table, chunks


class TestNativePairCount:
    @needs_kernel
    @given(case=chunked_ft_tables())
    @settings(max_examples=200, deadline=None)
    def test_any_chunking_matches_numpy_fold(self, case):
        table, chunks = case
        native = fold(chunks, _kernel.PairCounter())
        assert_same_iig(native, fold(chunks, _PairFold()))
        whole = fold([table], _kernel.PairCounter())
        # Only the register size may differ: a chunked register stops at
        # the largest chunk's.
        assert np.array_equal(
            native.indptr, whole.indptr[: native.num_qubits + 1]
        )
        assert np.array_equal(native.indices, whole.indices)
        assert np.array_equal(native.weights, whole.weights)

    @needs_kernel
    def test_smaller_register_after_full_buffers(self):
        # The first chunk fills its buffers exactly with pairs outside
        # the second chunk's register: the second chunk's new keys must
        # still find room.
        wide = Circuit(100)
        wide.extend(cnot(10 + 2 * i, 11 + 2 * i) for i in range(5))
        narrow = Circuit(3)
        narrow.append(cnot(0, 1))
        counter, reference = _kernel.PairCounter(), _PairFold()
        counter.update(wide.table())
        assert len(counter.keys) == int(counter.state[0]) == 10
        counter.update(narrow.table())
        for chunk in (wide, narrow):
            reference.update(chunk.table())
        for got, want in zip(counter.pairs(), reference.pairs()):
            assert np.array_equal(got, want)
        assert len(counter.pairs()[0]) == 12

    @needs_kernel
    def test_growth_keeps_first_interaction_order(self):
        # Far more distinct pairs than the first buffers hold, one chunk
        # and many: every growth re-hashes without reordering a key.
        rng = np.random.default_rng(7)
        circuit = Circuit(200)
        circuit.extend(
            cnot(*rng.choice(200, size=2, replace=False).tolist())
            for _ in range(6000)
        )
        table = circuit.table()
        want = fold([table], _PairFold())
        assert want.num_edges > 1024
        assert_same_iig(fold([table], _kernel.PairCounter()), want)
        assert_same_iig(
            fold(stream_table(table, 333), _kernel.PairCounter()), want
        )

    # The shared object's cases keep the bare ``column-value`` ids; the
    # numpy fallback's carry a ``-numpy`` suffix.
    @pytest.mark.parametrize(
        "column, value, make_counter",
        [
            pytest.param(column, value, make_counter, marks=marks,
                         id=f"{column}-{value}{suffix}")
            for make_counter, marks, suffix in (
                (lambda: _kernel.PairCounter(), needs_kernel, ""),
                (_PairFold, (), "-numpy"),
            )
            for column, value in (
                ("target", 3), ("target", -1), ("ctrl", 3), ("ctrl", -2),
                ("target2", 7), ("target", 0),
            )
        ],
    )
    def test_out_of_range_operand_leaves_counts_untouched(
        self, column, value, make_counter
    ):
        good = Circuit(3)
        good.extend([cnot(0, 1), cnot(1, 2), cnot(0, 1)])
        counter = make_counter()
        counter.update(good.table())

        def state() -> list[np.ndarray]:
            if isinstance(counter, _PairFold):
                arrays = (*counter.pairs(), *counter._pending)
            else:
                arrays = (counter.keys, counter.counts, counter.slots,
                          counter.state)
            return [array.copy() for array in arrays]

        before = state()
        bad = good.table()
        columns = {
            name: getattr(bad, name).copy()
            for name in ("ctrl", "ctrl2", "target", "target2")
        }
        columns[column][-1] = value
        bad = GateTable(
            bad.kind, columns["ctrl"], columns["ctrl2"], columns["target"],
            columns["target2"], bad.extra_indptr, bad.extra,
            bad.qubit_names, bad.name,
        )
        with pytest.raises(ValueError, match="operand outside the register"):
            counter.update(bad)
        after = state()
        assert len(before) == len(after)
        for old, new in zip(before, after):
            assert np.array_equal(old, new)

    @needs_kernel
    def test_library_rows_match_numpy_fold(self):
        for name in ("ham15", "gf2^16mult", "hwb50ps"):
            table = build_ft(name).table()
            for size in (97, len(table)):
                assert_same_iig(
                    fold(stream_table(table, size), _kernel.PairCounter()),
                    fold(stream_table(table, size), _PairFold()),
                )


# -- fallback -----------------------------------------------------------


class TestFallback:
    """A kernel that cannot load degrades to the Python fallbacks, loudly
    and countably, with the compiled path's exact results."""

    @needs_kernel
    def test_iig_load_failure_warns_counts_and_matches(self, monkeypatch):
        circuit = build_ft("gf2^16mult")
        native = build_iig(circuit)
        counter = default_registry()
        before = counter.counter("kernel.fallbacks", entry="iig")
        monkeypatch.setattr(_kernel, "load", _broken_load)
        with pytest.warns(RuntimeWarning, match=IIG_WARNING) as caught:
            fallen_back = build_iig(circuit)
        assert sum(IIG_WARNING in str(w.message) for w in caught) == 1
        assert counter.counter("kernel.fallbacks", entry="iig") == before + 1
        assert_same_iig(fallen_back, native)

    @needs_kernel
    def test_placement_load_failure_warns_counts_and_matches(
        self, monkeypatch
    ):
        iig = library_iig("gf2^16mult")
        tqa = TQA(FabricSpec(16, 16))
        native = iig_greedy_placement(iig, tqa)
        counter = default_registry()
        before = counter.counter("kernel.fallbacks", entry="placement")
        monkeypatch.setattr(_kernel, "load", _broken_load)
        with pytest.warns(RuntimeWarning, match=PLACEMENT_WARNING) as caught:
            fallen_back = iig_greedy_placement(iig, tqa)
        assert sum(PLACEMENT_WARNING in str(w.message) for w in caught) == 1
        assert counter.counter("kernel.fallbacks", entry="placement") == (
            before + 1
        )
        assert fallen_back == native

    @needs_kernel
    def test_kernel_map_needs_no_fallback(self):
        """The compiled entries are what a kernel-engine map uses: no
        ``RuntimeWarning`` on the path, and the array engine's latency."""
        circuit = build_ft("gf2^16mult")
        params = PhysicalParams(fabric=FabricSpec(16, 16))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            kernel = QSPRMapper(params=params, engine="kernel").map(circuit)
        array = QSPRMapper(params=params, engine="array").map(circuit)
        assert kernel.latency.hex() == array.latency.hex()
