"""The compiled critical-path recurrence against its Python fallback.

:func:`repro.qodg.sweep.recurrence` hands every caller — the one-chunk
sweep, the streamed estimate and the batched sweep — the C entries of
:mod:`repro.qspr._kernel`, or the Python ones with a ``RuntimeWarning``
when the shared object cannot load.  Both must give the same floats,
predecessors, carries and paths, bit for bit, on random FT circuits with
integer and zero delays (so ties and zero-length chains are common).
Each equivalence test runs twice: on the compiled path and with
``_kernel.load`` forced to raise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.gates import (
    FT_KINDS,
    ONE_QUBIT_FT_KINDS,
    Gate,
    GateKind,
    cnot,
    h,
    swap,
    toffoli,
)
from repro.circuits.generators import ham3
from repro.circuits.library import build_ft
from repro.circuits.stream import (
    DEFAULT_CHUNK_SIZE,
    estimate_stream,
    stream_table,
)
from repro.core.pipeline import StagedPipeline
from repro.exceptions import EstimationError, GraphError
from repro.fabric.params import FabricSpec, GateDelays, PhysicalParams
from repro.obs import default_registry
from repro.qodg.critical_path import kind_delay_lut
from repro.qodg.sweep import (
    CriticalPathCarry,
    critical_path_chunk,
    sweep_critical_path,
    sweep_critical_path_lengths,
    walk_path,
)
from repro.qspr import _kernel

needs_kernel = pytest.mark.skipif(
    not _kernel.available(), reason="the compiled kernel cannot be built here"
)

FALLBACK_WARNING = "falling back to the Python recurrence"

ONE_QUBIT = sorted(ONE_QUBIT_FT_KINDS, key=lambda kind: kind.value)

#: Integer and zero delays: equal chain lengths are common.
DELAY_VALUES = [0.0, 1.0, 2.0, 3.0]


def _broken_load():
    raise RuntimeError("no C compiler found (test stub)")


@contextlib.contextmanager
def recurrence_mode(mode: str):
    """Run the body on the compiled recurrence or on the fallback."""
    if mode == "native":
        if not _kernel.available():
            pytest.skip("the compiled kernel cannot be built here")
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message=".*" + FALLBACK_WARNING)
            yield
        return
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(_kernel, "load", _broken_load)
        warnings.filterwarnings("ignore", message=".*" + FALLBACK_WARNING)
        yield


MODES = pytest.mark.parametrize("mode", ["native", "fallback"])


@st.composite
def ft_circuits(draw, max_qubits: int = 12, max_gates: int = 200) -> Circuit:
    """A random FT circuit: 1–12 qubits, 0–200 gates, half CNOTs."""
    num_qubits = draw(st.integers(1, max_qubits))
    gate_count = draw(st.integers(0, max_gates))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circuit = Circuit(num_qubits)
    for _ in range(gate_count):
        if num_qubits > 1 and rng.random() < 0.5:
            a, b = rng.choice(num_qubits, size=2, replace=False).tolist()
            circuit.append(cnot(a, b))
        else:
            kind = ONE_QUBIT[int(rng.integers(len(ONE_QUBIT)))]
            circuit.append(Gate(kind, (), (int(rng.integers(num_qubits)),)))
    return circuit


kind_tables = st.fixed_dictionaries(
    {kind: st.sampled_from(DELAY_VALUES) for kind in FT_KINDS}
)

#: Fabric operation delays must be positive; equal integers still tie.
gate_delays = st.builds(
    GateDelays,
    **{
        field.name: st.sampled_from(DELAY_VALUES[1:])
        for field in dataclasses.fields(GateDelays)
    },
)


def assert_carries_equal(got: CriticalPathCarry, want: CriticalPathCarry):
    assert got.qubit_dist.tobytes() == want.qubit_dist.tobytes()
    assert np.array_equal(got.qubit_last, want.qubit_last)
    assert got.best_length.tobytes() == want.best_length.tobytes()
    assert np.array_equal(got.nodes, want.nodes)


def assert_estimates_equal(got, want) -> None:
    """Every field except wall time, bitwise (floats by ``hex``)."""
    for field in dataclasses.fields(type(want)):
        if field.name == "elapsed_seconds":
            continue
        value, expected = getattr(got, field.name), getattr(want, field.name)
        if isinstance(expected, float):
            assert value.hex() == expected.hex(), field.name
        else:
            assert value == expected, field.name


class TestNativeChunk:
    @needs_kernel
    @given(circuit=ft_circuits(), delays=kind_tables)
    @settings(max_examples=60, deadline=None)
    def test_chunk_and_walk_match_python(self, circuit, delays):
        table = circuit.table()
        kinds = table.kind
        o0, o1 = table.operand_pairs()
        lut = kind_delay_lut(delays)
        rows = len(table)
        for size in (1, 3, 97, sys.maxsize):
            native = CriticalPathCarry(circuit.num_qubits)
            python = CriticalPathCarry(circuit.num_qubits)
            native_preds, python_preds = [], []
            for lo in range(0, rows, size):
                part = slice(lo, lo + size)
                got = _kernel.critical_chunk(
                    kinds[part], o0[part], o1[part], lut, native
                )
                want = critical_path_chunk(
                    kinds[part], o0[part], o1[part], lut, python
                )
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want), size
                assert_carries_equal(native, python)
                native_preds.append(got)
                python_preds.append(want)
            preds = np.concatenate([np.empty(0, np.int64), *native_preds])
            assert np.array_equal(
                _kernel.critical_walk(native.best_node, preds),
                walk_path(python.best_node, preds),
            )
            assert native.next_node == rows

    @needs_kernel
    @pytest.mark.parametrize(
        "kinds, o0, o1, match",
        [
            ([0, 0], [0, 2], [-1, -1], "operand outside"),
            ([0, 0], [0, 1], [-2, -1], "operand outside"),
            ([0, 16], [0, 1], [-1, -1], "kind code outside"),
            ([0, 0], [0], [-1, -1], "differ in shape"),
        ],
    )
    def test_malformed_columns_leave_carry_untouched(
        self, kinds, o0, o1, match
    ):
        carry = CriticalPathCarry(2)
        with pytest.raises(ValueError, match=match):
            _kernel.critical_chunk(
                np.array(kinds), np.array(o0), np.array(o1), np.ones(16),
                carry,
            )
        assert_carries_equal(carry, CriticalPathCarry(2))

    @needs_kernel
    def test_malformed_carry_rejected(self):
        carry = CriticalPathCarry(2)
        carry.qubit_last = carry.qubit_last[:1]
        with pytest.raises(ValueError, match="malformed critical-path carry"):
            _kernel.critical_chunk(
                np.zeros(1, np.int8), np.zeros(1), np.full(1, -1),
                np.ones(16), carry,
            )

    @needs_kernel
    def test_walk_rejects_a_broken_chain(self):
        with pytest.raises(RuntimeError, match="left the predecessors"):
            _kernel.critical_walk(1, np.array([-1, 5]))
        with pytest.raises(RuntimeError, match="left the predecessors"):
            _kernel.critical_walk(1, np.array([1, 0]))


class TestEquivalence:
    @MODES
    @given(
        circuit=ft_circuits(),
        tables=st.lists(kind_tables, min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_lengths_equal_per_point_sweeps(
        self, mode, circuit, tables
    ):
        matrix = np.stack([kind_delay_lut(table) for table in tables], 1)
        with recurrence_mode(mode):
            lengths = sweep_critical_path_lengths(circuit.table(), matrix)
            singles = [
                sweep_critical_path(circuit, table).length for table in tables
            ]
        assert [length.hex() for length in lengths.tolist()] == [
            single.hex() for single in singles
        ]

    @MODES
    @given(
        circuit=ft_circuits(max_gates=120),
        delays=st.lists(gate_delays, min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_run_sweep_and_stream_agree(self, mode, circuit, delays):
        grid = [
            PhysicalParams(delays=table, fabric=FabricSpec(6, 6))
            for table in delays
        ]
        table = circuit.table()
        with recurrence_mode(mode):
            runs = [StagedPipeline().run(circuit, params) for params in grid]
            points = StagedPipeline().sweep(circuit, grid)
            streamed = [
                estimate_stream(stream_table(table, size), grid[0])
                for size in (3, DEFAULT_CHUNK_SIZE)
            ]
        for run, point in zip(runs, points):
            assert point.latency.hex() == run.latency.hex()
        for estimate in streamed:
            assert_estimates_equal(estimate, runs[0])

    @MODES
    def test_empty_circuit(self, mode):
        circuit = Circuit(3)
        delays = dict.fromkeys(FT_KINDS, 1.0)
        params = PhysicalParams(fabric=FabricSpec(6, 6))
        with recurrence_mode(mode):
            result = sweep_critical_path(circuit, delays)
            lengths = sweep_critical_path_lengths(
                circuit.table(), np.stack([kind_delay_lut(delays)] * 2, 1)
            )
            run = StagedPipeline().run(circuit, params)
            streamed = estimate_stream(stream_table(circuit.table()), params)
        assert result.length == 0.0 and result.node_ids == ()
        assert lengths.tolist() == [0.0, 0.0]
        assert run.latency == 0.0
        assert_estimates_equal(streamed, run)


class TestFallback:
    """A kernel that cannot load degrades to the Python recurrence,
    loudly and countably, with the compiled path's exact results."""

    @needs_kernel
    def test_load_failure_warns_counts_and_matches(self, monkeypatch):
        circuit = build_ft("8bitadder")
        grid = [
            PhysicalParams(fabric=FabricSpec(12, 12)),
            PhysicalParams(fabric=FabricSpec(16, 16)),
        ]

        def compute():
            return (
                StagedPipeline().run(circuit, grid[0]),
                StagedPipeline().sweep(circuit, grid),
                estimate_stream(stream_table(circuit.table(), 97), grid[0]),
            )

        native_run, native_sweep, native_stream = compute()
        counter = default_registry()
        before = counter.counter("kernel.fallbacks", entry="critical")
        monkeypatch.setattr(_kernel, "load", _broken_load)
        with pytest.warns(RuntimeWarning, match=FALLBACK_WARNING) as caught:
            run, sweep, stream = compute()
        assert sum(
            FALLBACK_WARNING in str(warning.message) for warning in caught
        ) == 3
        assert counter.counter("kernel.fallbacks", entry="critical") == (
            before + 3
        )
        assert_estimates_equal(run, native_run)
        assert_estimates_equal(stream, native_stream)
        assert [point.latency.hex() for point in sweep] == [
            point.latency.hex() for point in native_sweep
        ]

    @needs_kernel
    def test_one_run_needs_no_fallback(self):
        """The compiled recurrence is what a plain run uses: no
        ``RuntimeWarning`` on the path, and the golden length."""
        circuit = build_ft("gf2^16mult")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            estimate = StagedPipeline().run(circuit, PhysicalParams())
        assert estimate.latency.hex() == "0x1.63d3db286f11ep+25"


class TestChecksBeforeNativeCall:
    """Every check raises its unchanged text before any kernel entry
    runs: each entry is replaced by a tripwire."""

    @pytest.fixture(autouse=True)
    def tripwire(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a native entry ran")

        for entry in ("critical_chunk", "critical_walk", "critical_lengths"):
            monkeypatch.setattr(_kernel, entry, forbidden)

    @staticmethod
    def _two_gates() -> Circuit:
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1)])
        return circuit

    def test_negative_delay(self):
        with pytest.raises(
            GraphError, match=r"^negative delay -1\.0 for gate h\(q0\)$"
        ):
            sweep_critical_path(
                self._two_gates(), {GateKind.H: -1.0, GateKind.CNOT: 1.0}
            )

    def test_negative_batched_lut(self):
        lut = kind_delay_lut({GateKind.H: 1.0, GateKind.CNOT: 1.0})
        lut[np.isnan(lut)] = -2.0
        with pytest.raises(
            GraphError, match="^negative delay in batched critical-path tables$"
        ):
            sweep_critical_path_lengths(
                self._two_gates().table(), lut[:, None]
            )

    @pytest.mark.parametrize("batched", [False, True])
    def test_missing_kind(self, batched):
        circuit = Circuit(2)
        circuit.extend([h(0), cnot(0, 1), swap(0, 1)])
        delays = {GateKind.H: 1.0, GateKind.CNOT: 2.0}
        if batched:
            with pytest.raises(
                GraphError, match="^no delay for gate kind 'swap'$"
            ):
                sweep_critical_path_lengths(
                    circuit.table(), kind_delay_lut(delays)[:, None]
                )
        else:
            with pytest.raises(
                GraphError,
                match="^no delay registered for gate kind 'swap'$",
            ):
                sweep_critical_path(circuit, delays)

    def test_nan_lut_for_a_used_kind(self):
        lut = kind_delay_lut({GateKind.H: 1.0, GateKind.CNOT: 1.0})
        lut[lut == 1.0] = np.nan
        with pytest.raises(GraphError, match="^no delay for gate kind 'h'$"):
            sweep_critical_path_lengths(self._two_gates().table(), lut[:, None])

    @pytest.mark.parametrize("batched", [False, True])
    def test_three_qubit_gate(self, batched):
        circuit = Circuit(3)
        circuit.extend([h(0), toffoli(0, 1, 2)])
        delays = dict.fromkeys(GateKind, 1.0)
        with pytest.raises(
            GraphError,
            match=(
                r"^the critical-path sweep supports one- and two-qubit "
                r"gates only; gate kind 'toffoli' touches 3 qubits "
                r"\(run FT synthesis first\)$"
            ),
        ):
            if batched:
                sweep_critical_path_lengths(
                    circuit.table(), kind_delay_lut(delays)[:, None]
                )
            else:
                sweep_critical_path(circuit, delays)

    def test_toffoli_rejected_by_run_and_stream(self):
        circuit = ham3()
        circuit.append(toffoli(0, 1, 2))
        params = PhysicalParams(fabric=FabricSpec(6, 6))
        with pytest.raises(EstimationError) as run_error:
            StagedPipeline().run(circuit, params)
        with pytest.raises(EstimationError) as stream_error:
            estimate_stream(stream_table(circuit.table()), params)
        assert str(run_error.value) == str(stream_error.value) == (
            "gate kind 'toffoli' is not an FT operation; run "
            "synthesize_ft() before estimating"
        )
