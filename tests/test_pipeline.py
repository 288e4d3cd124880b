"""Tests for the staged analytic pipeline (repro.core.pipeline).

The vectorized stage graph must match the scalar reference oracle
(``LEQAEstimator(vectorized=False)``) to 1e-9 on random circuits, the
batched sweep must match per-point runs bitwise, and the declared
stage/parameter dependency graph must say exactly which stages a
parameter change invalidates.
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
from repro.core.coverage import expected_coverage_surfaces
from repro.core.estimator import LEQAEstimator
from repro.core.pipeline import (
    PARAM_ASPECTS,
    STAGE_GRAPH,
    STAGE_ORDER,
    StagedPipeline,
    ZoneArrays,
    param_slice,
    stage_reads,
    stages_invalidated_by,
    sweep_estimates,
)
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
        points = sweep_estimates(adder_ft, grid)
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
                circuit, lambda g: delays[KIND_CODES[g.kind], column]
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


class TestStageGraphDeclarations:
    def test_every_stage_reads_known_aspects(self):
        for spec in STAGE_ORDER:
            assert set(spec.reads) <= set(PARAM_ASPECTS)
            for upstream in spec.after:
                assert upstream in STAGE_GRAPH

    def test_topological_order(self):
        seen = set()
        for spec in STAGE_ORDER:
            assert set(spec.after) <= seen
            seen.add(spec.name)

    def test_transitive_reads(self):
        assert stage_reads("iig") == frozenset()
        assert stage_reads("uncong") == frozenset({"qubit_speed"})
        assert stage_reads("queueing") == frozenset(
            {"qubit_speed", "fabric", "channel_capacity"}
        )
        assert stage_reads("critical") == frozenset(PARAM_ASPECTS)

    def test_invalidation_sets(self):
        assert stages_invalidated_by({"gate_delays"}) == frozenset(
            {"delays", "critical"}
        )
        assert stages_invalidated_by({"t_move"}) == frozenset(
            {"delays", "critical"}
        )
        assert stages_invalidated_by({"fabric"}) == frozenset(
            {"coverage", "queueing", "delays", "critical"}
        )
        assert stages_invalidated_by({"qubit_speed"}) == frozenset(
            {"uncong", "queueing", "delays", "critical"}
        )
        assert stages_invalidated_by({"channel_capacity"}) == frozenset(
            {"queueing", "delays", "critical"}
        )
        assert stages_invalidated_by(()) == frozenset()

    def test_unknown_aspect_rejected(self):
        with pytest.raises(EstimationError, match="unknown parameter"):
            stages_invalidated_by({"voltage"})
        with pytest.raises(EstimationError, match="unknown parameter"):
            param_slice(DEFAULT_PARAMS, {"voltage"})
        with pytest.raises(EstimationError, match="unknown pipeline stage"):
            stage_reads("warp_drive")

    def test_param_slice_keys_sharing(self):
        delay_change = dataclasses.replace(
            DEFAULT_PARAMS, delays=DEFAULT_PARAMS.delays.scaled(2.0)
        )
        # A delay-only change leaves every non-delay slice equal ...
        aspects = stage_reads("queueing")
        assert param_slice(DEFAULT_PARAMS, aspects) == param_slice(
            delay_change, aspects
        )
        # ... and changes the slice the delays stage reads.
        aspects = stage_reads("critical")
        assert param_slice(DEFAULT_PARAMS, aspects) != param_slice(
            delay_change, aspects
        )


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
