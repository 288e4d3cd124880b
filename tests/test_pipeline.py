"""Tests for the staged analytic pipeline (repro.core.pipeline).

The vectorized stage graph must match the scalar reference oracle
(``LEQAEstimator(vectorized=False)``) to 1e-9 on random circuits, the
batched sweep must match per-point runs bitwise, and each stage's
cache key must say exactly which stages a parameter change invalidates.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.gates import (
    KIND_CODES,
    KINDS_BY_CODE,
    GateKind,
    cnot,
    h,
    t,
    tdg,
    toffoli,
    x,
)
from repro.circuits.library import build_ft
from repro.circuits.stream import estimate_stream, stream_table
from repro.core.coverage import expected_coverage_surfaces
from repro.core.estimator import LEQAEstimator
from repro.core.pipeline import StagedPipeline, ZoneArrays
from repro.core.presence import compute_zones
from repro.engine import ArtifactCache
from repro.exceptions import EngineError, EstimationError, GraphError
from repro.fabric.params import DEFAULT_PARAMS, FabricSpec, PhysicalParams
from repro.qodg.iig import build_iig
from repro.qodg.sweep import sweep_critical_path, sweep_critical_path_lengths


@st.composite
def ft_circuits(draw):
    """Random fault-tolerant circuits (H/T/T†/X/CNOT over 2-10 qubits)."""
    num_qubits = draw(st.integers(2, 10))
    num_gates = draw(st.integers(0, 60))
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        choice = draw(st.integers(0, 4))
        qubit = draw(st.integers(0, num_qubits - 1))
        if choice == 0:
            other = draw(st.integers(0, num_qubits - 2))
            if other >= qubit:
                other += 1
            circuit.append(cnot(qubit, other))
        else:
            gate = (h, t, tdg, x)[choice - 1]
            circuit.append(gate(qubit))
    return circuit


@st.composite
def physical_params(draw):
    """Random but well-posed parameter sets spanning all aspects."""
    return PhysicalParams(
        fabric=FabricSpec(draw(st.integers(4, 30)), draw(st.integers(4, 30))),
        channel_capacity=draw(st.integers(1, 8)),
        qubit_speed=draw(st.floats(1e-4, 1e-2)),
        t_move=draw(st.floats(10.0, 500.0)),
    )


class TestVectorizedMatchesScalarOracle:
    @given(circuit=ft_circuits(), params=physical_params(),
           strict=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_estimates_agree_to_1e9(self, circuit, params, strict):
        vectorized = LEQAEstimator(
            params=params, strict_small_zones=strict
        ).estimate(circuit)
        scalar = LEQAEstimator(
            params=params, strict_small_zones=strict, vectorized=False
        ).estimate(circuit)
        tolerance = dict(rel=1e-9, abs=1e-12)
        assert vectorized.latency == pytest.approx(
            scalar.latency, **tolerance
        )
        assert vectorized.l_avg_cnot == pytest.approx(
            scalar.l_avg_cnot, **tolerance
        )
        assert vectorized.d_uncong == pytest.approx(
            scalar.d_uncong, **tolerance
        )
        # Zone areas and weights are integers, so the weighted-average
        # area is exact in both paths — bitwise equal, which also keys
        # both paths' coverage series identically.
        assert vectorized.average_zone_area == scalar.average_zone_area
        assert vectorized.coverage_surfaces == scalar.coverage_surfaces

    @given(circuit=ft_circuits())
    @settings(max_examples=30, deadline=None)
    def test_md1_queue_model_agrees(self, circuit):
        params = PhysicalParams(fabric=FabricSpec(6, 6))
        vectorized = LEQAEstimator(
            params=params, queue_model="md1"
        ).estimate(circuit)
        scalar = LEQAEstimator(
            params=params, queue_model="md1", vectorized=False
        ).estimate(circuit)
        assert vectorized.latency == pytest.approx(
            scalar.latency, rel=1e-9, abs=1e-12
        )

    @given(circuit=ft_circuits())
    @settings(max_examples=30, deadline=None)
    def test_zone_arrays_match_presence_zones(self, circuit):
        iig = build_iig(circuit)
        arrays = ZoneArrays.from_iig(iig)
        zones = compute_zones(iig)
        assert arrays.num_qubits == zones.num_qubits
        assert arrays.total_weight == zones.total_weight
        assert arrays.average_area == zones.average_area
        for qubit, zone in enumerate(zones.zones):
            assert arrays.degrees[qubit] == zone.degree
            assert arrays.weights[qubit] == zone.weight
            assert arrays.areas[qubit] == zone.area

    def test_truncation_guard_agrees_on_crowded_fabric(self):
        circuit = Circuit(40)
        for index in range(40):
            circuit.append(cnot(index, (index + 1) % 40))
            circuit.append(cnot(index, (index + 7) % 40))
        params = PhysicalParams(fabric=FabricSpec(3, 3))
        for guard in (True, False):
            vectorized = LEQAEstimator(
                params=params, truncation_guard=guard
            ).estimate(circuit)
            scalar = LEQAEstimator(
                params=params, truncation_guard=guard, vectorized=False
            ).estimate(circuit)
            assert vectorized.latency == pytest.approx(
                scalar.latency, rel=1e-9, abs=1e-12
            )


class TestTruncatedVsExactCoverage:
    def test_series_identical_below_truncation(self):
        # k = min(Q, max_terms): for Q <= max_terms the truncated series
        # IS the exact series — same terms, same values.
        for num_zones in (1, 3, 12, 20):
            truncated = expected_coverage_surfaces(
                num_zones, 12, 12, 4.0, max_terms=20
            )
            exact = expected_coverage_surfaces(
                num_zones, 12, 12, 4.0, max_terms=None
            )
            assert truncated == exact

    def test_estimates_identical_below_truncation(self, adder_ft):
        params = PhysicalParams(fabric=FabricSpec(10, 10))
        truncated = LEQAEstimator(
            params=params, max_sq_terms=20
        ).estimate(adder_ft)
        exact = LEQAEstimator(
            params=params, max_sq_terms=None
        ).estimate(adder_ft)
        assert adder_ft.num_qubits <= 20
        assert truncated.latency == exact.latency
        assert truncated.coverage_surfaces == exact.coverage_surfaces


class TestBatchedSweep:
    def _mixed_grid(self):
        return [
            DEFAULT_PARAMS,
            dataclasses.replace(
                DEFAULT_PARAMS, delays=DEFAULT_PARAMS.delays.scaled(1.5)
            ),
            dataclasses.replace(DEFAULT_PARAMS, qubit_speed=0.002),
            DEFAULT_PARAMS.with_fabric(20, 20),
            dataclasses.replace(DEFAULT_PARAMS, channel_capacity=2),
            dataclasses.replace(DEFAULT_PARAMS, t_move=50.0),
        ]

    def test_sweep_matches_run_bitwise(self, adder_ft):
        pipeline = StagedPipeline(cache=ArtifactCache())
        grid = self._mixed_grid()
        points = pipeline.sweep(adder_ft, grid)
        assert [point.params for point in points] == grid
        for point, params in zip(points, grid):
            single = pipeline.run(adder_ft, params)
            assert point.latency == single.latency
            assert point.l_avg_cnot == single.l_avg_cnot
            assert point.d_uncong == single.d_uncong
            assert point.average_zone_area == single.average_zone_area
            assert point.qubit_count == single.qubit_count
            assert point.op_count == single.op_count

    def test_sweep_without_cache_matches_estimator(self, adder_ft):
        grid = self._mixed_grid()
        points = StagedPipeline().sweep(adder_ft, grid)
        for point, params in zip(points, grid):
            estimate = LEQAEstimator(params=params).estimate(adder_ft)
            assert point.latency == pytest.approx(
                estimate.latency, rel=1e-12
            )

    def test_empty_grid(self, adder_ft):
        assert StagedPipeline().sweep(adder_ft, []) == []

    def test_delay_only_sweep_builds_upstream_once(self, adder_ft):
        cache = ArtifactCache()
        grid = [
            dataclasses.replace(
                DEFAULT_PARAMS, delays=DEFAULT_PARAMS.delays.scaled(factor)
            )
            for factor in (0.5, 1.0, 1.5, 2.0)
        ]
        StagedPipeline(cache=cache).sweep(adder_ft, grid)
        stats = cache.stats()
        for stage in ("iig", "zones", "ham", "uncong", "coverage",
                      "queueing"):
            assert stats.miss_count(stage) == 1, stage
        assert stats.hit_count("uncong") == len(grid) - 1
        assert stats.hit_count("queueing") == len(grid) - 1

    def test_non_ft_circuit_rejected(self):
        circuit = Circuit(3)
        circuit.append(toffoli(0, 1, 2))
        with pytest.raises(EstimationError, match="'toffoli' is not an FT"):
            StagedPipeline().sweep(circuit, [DEFAULT_PARAMS])

    def test_latency_seconds(self, adder_ft):
        (point,) = StagedPipeline().sweep(adder_ft, [DEFAULT_PARAMS])
        assert point.latency_seconds == pytest.approx(point.latency * 1e-6)


def _delay_matrix(points: int, value: float = 1.0) -> np.ndarray:
    return np.full((len(KINDS_BY_CODE), points), value)


class TestBatchedCriticalPath:
    @given(
        circuit=ft_circuits(),
        seed=st.integers(0, 10_000),
        num_tables=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_lengths_bitwise_equal_scalar_sweep(
        self, circuit, seed, num_tables
    ):
        rng = np.random.default_rng(seed)
        delays = rng.uniform(
            0.5, 20.0, size=(len(KINDS_BY_CODE), num_tables)
        )
        lengths = sweep_critical_path_lengths(circuit.table(), delays)
        assert lengths.shape == (num_tables,)
        for column in range(num_tables):
            scalar = sweep_critical_path(
                circuit,
                {kind: delays[code, column]
                 for kind, code in KIND_CODES.items()},
            )
            assert scalar.length == lengths[column]

    def test_empty_circuit(self):
        lengths = sweep_critical_path_lengths(
            Circuit(3).table(), _delay_matrix(4, np.nan)
        )
        assert np.array_equal(lengths, np.zeros(4))

    def test_unused_kinds_may_lack_delays(self, tiny_ft_circuit):
        delays = _delay_matrix(2, np.nan)
        for kind in (GateKind.H, GateKind.CNOT, GateKind.T, GateKind.TDG,
                     GateKind.X):
            delays[KIND_CODES[kind]] = (1.0, 2.0)
        lengths = sweep_critical_path_lengths(tiny_ft_circuit.table(), delays)
        assert np.array_equal(lengths, [5.0, 10.0])
        delays[KIND_CODES[GateKind.TDG], 1] = np.nan
        with pytest.raises(GraphError, match="no delay for gate kind 'tdg'"):
            sweep_critical_path_lengths(tiny_ft_circuit.table(), delays)

    def test_three_qubit_gate_rejected(self):
        circuit = Circuit(3)
        circuit.append(toffoli(0, 1, 2))
        with pytest.raises(GraphError, match="one- and two-qubit"):
            sweep_critical_path_lengths(circuit.table(), _delay_matrix(1))

    def test_negative_delay_rejected(self, tiny_ft_circuit):
        delays = _delay_matrix(2)
        delays[KIND_CODES[GateKind.H], 1] = -1.0
        with pytest.raises(GraphError, match="negative delay"):
            sweep_critical_path_lengths(tiny_ft_circuit.table(), delays)

    def test_bad_table_shape_rejected(self, tiny_ft_circuit):
        table = tiny_ft_circuit.table()
        with pytest.raises(GraphError, match="shape"):
            sweep_critical_path_lengths(table, np.ones(3))
        with pytest.raises(GraphError, match="shape"):
            sweep_critical_path_lengths(table, np.ones((3, 2)))


#: The six cached stages of the LEQA pipeline, in order.
CACHED_STAGES = ("iig", "zones", "ham", "uncong", "coverage", "queueing")

class TestStageInvalidation:
    """The README's invalidation table, read off the real cache."""

    @pytest.mark.parametrize(
        ("changed", "rebuilt"),
        [
            pytest.param(
                dataclasses.replace(
                    DEFAULT_PARAMS, delays=DEFAULT_PARAMS.delays.scaled(2.0)
                ),
                set(), id="gate_delays",
            ),
            pytest.param(
                dataclasses.replace(DEFAULT_PARAMS, t_move=50.0),
                set(), id="t_move",
            ),
            pytest.param(
                dataclasses.replace(DEFAULT_PARAMS, channel_capacity=2),
                {"queueing"}, id="channel_capacity",
            ),
            pytest.param(
                dataclasses.replace(DEFAULT_PARAMS, qubit_speed=0.002),
                {"uncong", "queueing"}, id="qubit_speed",
            ),
            pytest.param(
                DEFAULT_PARAMS.with_fabric(20, 20),
                {"coverage", "queueing"}, id="fabric",
            ),
        ],
    )
    def test_changed_aspect_rebuilds_exactly(self, adder_ft, changed, rebuilt):
        cache = ArtifactCache()
        pipeline = StagedPipeline(cache=cache)
        pipeline.run(adder_ft, DEFAULT_PARAMS)
        before = cache.stats()
        pipeline.run(adder_ft, changed)
        after = cache.stats()
        assert {
            stage for stage in CACHED_STAGES
            if after.miss_count(stage) > before.miss_count(stage)
        } == rebuilt

    def test_golden_stage_keys(self, monkeypatch):
        # Store entries are addressed by ``repr(key)``: a key that
        # changes shape orphans every persisted artifact of its stage.
        keys = {}
        stage = ArtifactCache.stage

        def recorded(cache, name, key, build):
            keys.setdefault(name, repr(key))
            return stage(cache, name, key, build)

        monkeypatch.setattr(ArtifactCache, "stage", recorded)
        circuit = build_ft("ham3")
        StagedPipeline(cache=ArtifactCache()).run(circuit, DEFAULT_PARAMS)
        fp = repr(circuit.content_fingerprint())
        assert keys == {
            "iig": fp,
            "zones": fp,
            "ham": f"({fp}, True)",
            "uncong": f"({fp}, True, (('qubit_speed', 0.001),))",
            "coverage": "(3, 60, 60, 3.0, 20)",
            "queueing": (
                f"({fp}, True, 20, True, 'mm1', (('fabric', 60, 60), "
                "('qubit_speed', 0.001), ('channel_capacity', 5)))"
            ),
        }


class TestCacheStageAccess:
    def test_unknown_stage_rejected(self):
        with pytest.raises(EngineError, match="unknown cache stage"):
            ArtifactCache().stage("nonsense", "key", lambda: 1)

    def test_stage_builds_once(self):
        cache = ArtifactCache()
        calls = []

        def builder():
            calls.append(1)
            return "value"

        assert cache.stage("ham", "k", builder) == "value"
        assert cache.stage("ham", "k", builder) == "value"
        assert calls == [1]
        stats = cache.stats()
        assert stats.miss_count("ham") == 1
        assert stats.hit_count("ham") == 1


def _stage_counts(cache: ArtifactCache, stage: str) -> tuple[int, int]:
    stats = cache.stats()
    return stats.miss_count(stage), stats.hit_count(stage)


def _rewired(circuit: Circuit) -> Circuit:
    """A circuit on ``circuit``'s register with other interactions."""
    other = Circuit(circuit.num_qubits)
    other.extend([cnot(0, 2), cnot(0, 2), cnot(2, 0), h(1)])
    return other


def _same_fields(one, two) -> None:
    for field in dataclasses.fields(one):
        if field.name != "elapsed_seconds":
            assert getattr(one, field.name) == getattr(two, field.name)


class TestModelStep:
    """One model step behind ``run``, ``sweep`` and ``estimate_stream``."""

    def test_param_change_invalidates_coverage(self, tiny_ft_circuit, adder_ft):
        cache = ArtifactCache()
        pipeline = StagedPipeline(cache=cache)
        fabrics = [DEFAULT_PARAMS, DEFAULT_PARAMS.with_fabric(20, 20)]
        for circuit in (tiny_ft_circuit, adder_ft):
            for params in fabrics:
                pipeline.run(circuit, params)
                pipeline.run(circuit, params)  # queueing hit, no lookup
        assert _stage_counts(cache, "coverage") == (4, 0)
        # The key is the series' own arguments, not circuit content: a
        # different circuit with the same register and zones reuses it.
        twin = tiny_ft_circuit.copy(name="twin")
        twin.append(t(0))
        pipeline.run(twin, DEFAULT_PARAMS)
        assert _stage_counts(cache, "coverage") == (4, 1)
        # Same register and fabric, another zone area: a miss.
        rewired = _rewired(tiny_ft_circuit)
        assert (
            StagedPipeline().run(rewired, DEFAULT_PARAMS).average_zone_area
            != StagedPipeline().run(tiny_ft_circuit, DEFAULT_PARAMS)
            .average_zone_area
        )
        pipeline.run(rewired, DEFAULT_PARAMS)
        assert _stage_counts(cache, "coverage") == (5, 1)
        assert cache.stats().miss_count("queueing") == 6

    def test_zones_stage_chains_to_iig(self, tiny_ft_circuit, adder_ft):
        cache = ArtifactCache()
        pipeline = StagedPipeline(cache=cache)
        for circuit in (tiny_ft_circuit, adder_ft):
            pipeline.run(circuit, DEFAULT_PARAMS)
            pipeline.run(circuit, DEFAULT_PARAMS.with_fabric(20, 20))
        assert _stage_counts(cache, "zones") == (2, 2)
        assert _stage_counts(cache, "iig") == (2, 0)

    def test_cacheless_runs_build_no_keys(self, adder_ft, monkeypatch):
        calls = []
        fingerprint = Circuit.content_fingerprint

        def counted(circuit):
            calls.append(1)
            return fingerprint(circuit)

        stage = StagedPipeline._stage
        staged = []

        def keyless(pipeline, name, key, builder):
            staged.append(name)
            return stage(
                pipeline, name,
                lambda: pytest.fail(f"{name} key built without a cache"),
                builder,
            )

        monkeypatch.setattr(Circuit, "content_fingerprint", counted)
        monkeypatch.setattr(StagedPipeline, "_stage", keyless)
        StagedPipeline(cache=None).run(adder_ft, DEFAULT_PARAMS)
        assert {"zones", "uncong", "queueing"} <= set(staged)
        assert calls == [1]  # the run's content hash, taken once
        estimate_stream(stream_table(adder_ft.table(), 64), DEFAULT_PARAMS)
        assert calls == [1]  # a chunk stream is never hashed

    def test_empty_stream_matches_run(self):
        # No gates spilled: the stream maps no (empty) column file.
        empty = Circuit(3)
        streamed = estimate_stream(stream_table(empty.table(), 4),
                                   DEFAULT_PARAMS)
        _same_fields(streamed, StagedPipeline().run(empty, DEFAULT_PARAMS))

    def test_foreign_iig_rejected(self, tiny_ft_circuit, adder_ft):
        foreign = build_iig(adder_ft)
        expected = (
            f"prebuilt IIG has {adder_ft.num_qubits} qubits but the circuit "
            f"has {tiny_ft_circuit.num_qubits}; it belongs to a different "
            "circuit"
        )
        for cache in (None, ArtifactCache()):
            pipeline = StagedPipeline(cache=cache)
            with pytest.raises(EstimationError) as error:
                pipeline.run(tiny_ft_circuit, DEFAULT_PARAMS, iig=foreign)
            assert str(error.value) == expected
            with pytest.raises(EstimationError) as error:
                pipeline.sweep(tiny_ft_circuit, [DEFAULT_PARAMS], iig=foreign)
            assert str(error.value) == expected
        for vectorized in (True, False):
            estimator = LEQAEstimator(vectorized=vectorized)
            with pytest.raises(EstimationError) as error:
                estimator.estimate(tiny_ft_circuit, iig=foreign)
            assert str(error.value) == expected

    def test_cache_builds_zones_from_its_own_iig(self, tiny_ft_circuit):
        # Same register, different interactions: undetectable by size.
        foreign = build_iig(_rewired(tiny_ft_circuit))
        fresh = StagedPipeline().run(tiny_ft_circuit, DEFAULT_PARAMS)
        pipeline = StagedPipeline(cache=ArtifactCache())
        given = pipeline.run(tiny_ft_circuit, DEFAULT_PARAMS, iig=foreign)
        later = pipeline.run(tiny_ft_circuit, DEFAULT_PARAMS)
        _same_fields(given, fresh)
        _same_fields(later, fresh)
        (point,) = pipeline.sweep(
            tiny_ft_circuit, [DEFAULT_PARAMS], iig=foreign
        )
        assert point.latency == fresh.latency


class TestEarlyFtRejection:
    """A pre-synthesis circuit fails before any model stage runs."""

    @pytest.fixture
    def tripwires(self, monkeypatch):
        import repro.core.estimator as estimator_module
        import repro.core.pipeline as pipeline_module
        import repro.engine.cache as cache_module
        import repro.qodg.graph as graph_module

        def tripped(*_args, **_kwargs):
            raise AssertionError("a model stage ran before the FT check")

        monkeypatch.setattr(ZoneArrays, "from_iig", tripped)
        for module in (pipeline_module, cache_module, estimator_module):
            monkeypatch.setattr(module, "build_iig", tripped)
        monkeypatch.setattr(graph_module, "build_qodg", tripped)

    def test_every_entry_point_raises_first(self, tripwires):
        circuit = Circuit(3)
        circuit.extend([h(0), cnot(0, 1), toffoli(0, 1, 2), t(2)])
        grid = [DEFAULT_PARAMS, DEFAULT_PARAMS.with_fabric(20, 20)]
        match = "'toffoli' is not an FT operation"
        for cache in (None, ArtifactCache()):
            pipeline = StagedPipeline(cache=cache)
            with pytest.raises(EstimationError, match=match):
                pipeline.run(circuit, DEFAULT_PARAMS)
            with pytest.raises(EstimationError, match=match):
                pipeline.sweep(circuit, grid)
        with pytest.raises(EstimationError, match=match):
            LEQAEstimator(vectorized=False).estimate(circuit)
        for chunk_size in (1, len(circuit) + 10):
            with pytest.raises(EstimationError, match=match):
                estimate_stream(
                    stream_table(circuit.table(), chunk_size), DEFAULT_PARAMS
                )
