"""Unit tests for the execution engine (repro.engine)."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import cnot, h, t
from repro.core.coverage import expected_coverage_surfaces
from repro.core.estimator import LEQAEstimator, estimate_latency
from repro.engine import (
    ArtifactCache,
    Backend,
    BatchRunner,
    CircuitSpec,
    Job,
    JobResult,
    LEQABackend,
    QSPRBackend,
    backend_names,
    get_backend,
    params_fingerprint,
    register_backend,
    sweep_fabric_sizes,
)
from repro.engine.backend import _REGISTRY
from repro.exceptions import EngineError, EstimationError
from repro.fabric.params import DEFAULT_PARAMS, FabricSpec, PhysicalParams
from repro.qodg.iig import build_iig
from repro.qspr.mapper import QSPRMapper

SMALL = PhysicalParams(fabric=FabricSpec(10, 10))


class TestCircuitSpec:
    def test_builds_registered_benchmark(self):
        circuit = CircuitSpec("ham3", ft=False).load()
        assert circuit.num_qubits == 3

    def test_ft_spec_synthesizes(self):
        circuit = CircuitSpec("ham3").build()
        assert circuit.is_ft()

    def test_unknown_source_raises(self):
        with pytest.raises(EngineError, match="neither a registered"):
            CircuitSpec("no_such_benchmark").load()

    def test_file_source(self, tmp_path):
        from repro.circuits.generators import ripple_adder
        from repro.circuits.parser import write_qasm_lite

        path = tmp_path / "adder.qasm"
        write_qasm_lite(ripple_adder(2), path)
        circuit = CircuitSpec(str(path), ft=False).load()
        assert len(circuit) > 0

    def test_spec_is_hashable(self):
        assert hash(CircuitSpec("ham3")) == hash(CircuitSpec("ham3"))


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = backend_names()
        assert {"leqa", "qspr", "leqa-md1"} <= set(names)

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(EngineError, match="unknown backend"):
            get_backend("no_such_backend")
        with pytest.raises(EngineError, match="leqa"):
            get_backend("no_such_backend")

    def test_duplicate_registration_raises(self):
        with pytest.raises(EngineError, match="already registered"):
            register_backend("leqa", LEQABackend)

    def test_overwrite_allows_replacement(self):
        original = _REGISTRY["leqa"]
        try:
            register_backend("leqa", LEQABackend, overwrite=True)
        finally:
            _REGISTRY["leqa"] = original

    def test_empty_name_rejected(self):
        with pytest.raises(EngineError, match="non-empty"):
            register_backend("", LEQABackend)

    def test_get_backend_stamps_registry_name(self):
        assert get_backend("leqa-md1").name == "leqa-md1"

    def test_read_only_name_backend_survives_lookup(self):
        class FrozenNameBackend:
            def __init__(self, params=DEFAULT_PARAMS, cache=None):
                self._inner = LEQABackend(params=params, cache=cache)

            @property
            def name(self):
                return "frozen"

            def run(self, circuit):
                return self._inner.run(circuit)

        register_backend("frozen-test", FrozenNameBackend)
        try:
            backend = get_backend("frozen-test")
            assert backend.name == "frozen"   # kept its own read-only name
        finally:
            del _REGISTRY["frozen-test"]

    def test_custom_one_line_registration(self):
        register_backend(
            "leqa-exact",
            lambda **kw: LEQABackend(max_sq_terms=None, **kw),
        )
        try:
            backend = get_backend("leqa-exact", params=SMALL)
            assert isinstance(backend, Backend)
        finally:
            del _REGISTRY["leqa-exact"]


class TestBackends:
    def test_leqa_backend_matches_estimator(self, tiny_ft_circuit):
        direct = estimate_latency(tiny_ft_circuit, params=SMALL)
        via_engine = get_backend("leqa", params=SMALL).run(tiny_ft_circuit)
        assert via_engine.latency == pytest.approx(direct.latency)
        assert via_engine.backend == "leqa"
        assert via_engine.qubit_count == tiny_ft_circuit.num_qubits
        assert via_engine.latency_seconds == pytest.approx(
            direct.latency_seconds
        )

    def test_qspr_backend_matches_mapper(self, tiny_ft_circuit):
        direct = QSPRMapper(params=SMALL).map(tiny_ft_circuit)
        via_engine = get_backend("qspr", params=SMALL).run(tiny_ft_circuit)
        assert via_engine.latency == pytest.approx(direct.latency)
        assert via_engine.detail.schedule is not None

    def test_cached_run_matches_uncached(self, tiny_ft_circuit):
        cache = ArtifactCache()
        cached = LEQABackend(params=SMALL, cache=cache).run(tiny_ft_circuit)
        uncached = LEQABackend(params=SMALL).run(tiny_ft_circuit)
        assert cached.latency == pytest.approx(uncached.latency)
        assert cache.stats().miss_count("iig") == 1

    def test_protocol_conformance(self):
        assert isinstance(LEQABackend(), Backend)
        assert isinstance(QSPRBackend(), Backend)


class TestPrebuiltIIG:
    def test_estimator_accepts_prebuilt_iig(self, tiny_ft_circuit):
        iig = build_iig(tiny_ft_circuit)
        estimator = LEQAEstimator(params=SMALL)
        with_iig = estimator.estimate(tiny_ft_circuit, iig=iig)
        without = estimator.estimate(tiny_ft_circuit)
        assert with_iig.latency == pytest.approx(without.latency)

    def test_estimator_rejects_mismatched_iig(self, tiny_ft_circuit):
        wrong = build_iig(Circuit(7))
        with pytest.raises(EstimationError, match="different circuit"):
            LEQAEstimator(params=SMALL).estimate(tiny_ft_circuit, iig=wrong)


class TestFingerprints:
    def test_same_gates_same_fingerprint(self):
        one, two = Circuit(3, name="a"), Circuit(3, name="b")
        for circuit in (one, two):
            circuit.extend([h(0), cnot(0, 1), t(2)])
        assert one.content_fingerprint() == two.content_fingerprint()

    def test_gate_change_changes_fingerprint(self):
        one, two = Circuit(2), Circuit(2)
        one.extend([h(0), cnot(0, 1)])
        two.extend([h(1), cnot(0, 1)])
        assert one.content_fingerprint() != two.content_fingerprint()

    def test_params_fingerprint_tracks_content(self):
        assert params_fingerprint(DEFAULT_PARAMS) == params_fingerprint(
            PhysicalParams()
        )
        assert params_fingerprint(SMALL) != params_fingerprint(DEFAULT_PARAMS)


class TestArtifactCache:
    def test_ft_stage_builds_once(self):
        cache = ArtifactCache()
        spec = CircuitSpec("ham3")
        first = cache.ft_circuit(spec)
        second = cache.ft_circuit(spec)
        assert first is second
        stats = cache.stats()
        assert stats.miss_count("ft") == 1
        assert stats.hit_count("ft") == 1

    def test_iig_keyed_on_content(self, tiny_ft_circuit):
        cache = ArtifactCache()
        assert cache.iig(tiny_ft_circuit) is cache.iig(tiny_ft_circuit)
        renamed = tiny_ft_circuit.copy(name="other")
        assert cache.iig(renamed) is cache.iig(tiny_ft_circuit)
        stats = cache.stats()
        assert stats.miss_count("iig") == 1
        assert stats.hit_count("iig") == 3

    def test_clear_resets(self, tiny_ft_circuit):
        cache = ArtifactCache()
        cache.iig(tiny_ft_circuit)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().miss_count("iig") == 0

    def test_stats_reject_unknown_stage(self):
        # A count of a stage that does not exist must not read 0 forever.
        stats = ArtifactCache().stats()
        for count in (
            stats.hit_count,
            stats.miss_count,
            stats.store_hit_count,
            stats.eviction_count,
        ):
            for name in ("nonsense", "qodg"):
                with pytest.raises(EngineError, match="known stages: circuit"):
                    count(name)
            assert count("schedule") == 0


class TestBatchRunner:
    def _fabric_jobs(self, sizes):
        spec = CircuitSpec("ham3")
        return [
            Job(spec, params=DEFAULT_PARAMS.with_fabric(size, size),
                tag=str(size))
            for size in sizes
        ]

    def test_results_in_submission_order(self):
        jobs = self._fabric_jobs([6, 8, 10, 12])
        results = BatchRunner(workers=4, executor="thread").run(jobs)
        assert [r.job.tag for r in results] == ["6", "8", "10", "12"]
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert all(isinstance(r, JobResult) and r.ok for r in results)

    def test_zero_and_one_worker_run_serially(self):
        jobs = self._fabric_jobs([6, 8])
        for workers in (0, 1):
            results = BatchRunner(workers=workers).run(jobs)
            assert [r.ok for r in results] == [True, True]

    def test_serial_and_threaded_agree(self):
        jobs = self._fabric_jobs([6, 10])
        serial = BatchRunner(executor="serial").run(jobs)
        threaded = BatchRunner(workers=2, executor="thread").run(jobs)
        for left, right in zip(serial, threaded):
            assert left.result.latency == pytest.approx(right.result.latency)

    def test_unknown_executor_raises(self):
        with pytest.raises(EngineError, match="unknown executor"):
            BatchRunner(executor="rocket")

    def test_negative_workers_raises(self):
        with pytest.raises(EngineError, match="workers"):
            BatchRunner(workers=-1)

    def test_empty_batch(self):
        assert BatchRunner().run([]) == []

    def test_failed_job_is_captured_not_raised(self):
        jobs = [
            Job(CircuitSpec("ham3"), tag="good"),
            Job(CircuitSpec("missing_benchmark"), tag="bad"),
            Job(CircuitSpec("ham3"), backend="no_such_backend", tag="worse"),
            # Typo'd option key -> TypeError from the backend constructor;
            # must be captured, not kill the batch.
            Job(CircuitSpec("ham3"), options={"max_sq_term": 2}, tag="typo"),
        ]
        results = BatchRunner(workers=1).run(jobs)
        assert results[0].ok
        assert not results[1].ok and "neither" in results[1].error
        assert not results[2].ok and "unknown backend" in results[2].error
        assert not results[3].ok and "TypeError" in results[3].error

    def test_failure_captures_full_traceback(self):
        results = BatchRunner(workers=1).run(
            [Job(CircuitSpec("missing_benchmark"))]
        )
        assert not results[0].ok
        assert results[0].traceback is not None
        assert "Traceback (most recent call last)" in results[0].traceback
        assert "neither a registered benchmark" in results[0].traceback

    def test_successful_job_has_no_traceback(self):
        results = BatchRunner(workers=1).run([Job(CircuitSpec("ham3"))])
        assert results[0].ok
        assert results[0].traceback is None

    def test_process_mode_ships_traceback_across_pickle(self):
        jobs = [
            Job(CircuitSpec("ham3"), tag="good"),
            Job(CircuitSpec("missing_benchmark"), tag="bad"),
        ]
        results = BatchRunner(workers=2, executor="process").run(jobs)
        assert results[0].ok
        assert not results[1].ok
        # The exception object never crosses the process boundary; the
        # formatted text must.
        assert "Traceback (most recent call last)" in results[1].traceback
        assert "EngineError" in results[1].traceback

    def test_shared_cache_builds_stages_once(self):
        runner = BatchRunner(workers=1)
        results = runner.run(self._fabric_jobs([6, 8, 10]))
        assert all(r.ok for r in results)
        stats = runner.cache.stats()
        assert stats.miss_count("ft") == 1
        assert stats.hit_count("ft") == 2
        # The IIG is read once, on the single zones miss; later points
        # reuse the zones built from it.
        assert stats.miss_count("iig") == 1
        assert stats.hit_count("iig") == 0
        assert stats.miss_count("zones") == 1
        assert stats.hit_count("zones") == 2

    def test_sweep_fabric_sizes_helper(self):
        results = sweep_fabric_sizes("ham3", [6, 8])
        assert [r.job.tag for r in results] == ["6x6", "8x8"]
        assert all(r.ok for r in results)

    def test_cached_mapper_sweep_builds_iig_once(self):
        """A qspr fabric-size sweep builds the IIG exactly once.

        The IIG depends on circuit content only, so every fabric size
        after the first is a cache hit; placements and schedules are
        geometry-dependent and build per point.
        """
        runner = BatchRunner(workers=1)
        results = sweep_fabric_sizes(
            "ham3", [6, 8, 10, 12], backend="qspr", runner=runner
        )
        assert all(r.ok for r in results)
        stats = runner.cache.stats()
        # One IIG lookup per point, the mapper's own.
        assert stats.miss_count("iig") == 1
        assert stats.hit_count("iig") == 3
        assert stats.miss_count("placement") == 4
        assert stats.miss_count("schedule") == 4

    def test_cached_mapper_rerun_served_from_schedule_stage(
        self, monkeypatch
    ):
        """Repeating the same qspr point rebuilds nothing."""
        from repro.qspr import mapper as mapper_module

        runner = BatchRunner(workers=1)
        spec = CircuitSpec("ham3")
        job = Job(spec=spec, backend="qspr", params=SMALL)
        first = runner.run([job])[0]

        def refuse(*args, **kwargs):
            raise AssertionError("a cached schedule compiled the QODG")

        monkeypatch.setattr(mapper_module, "compile_qodg", refuse)
        second = runner.run([job])[0]
        assert first.ok and second.ok
        assert second.result.latency == first.result.latency
        stats = runner.cache.stats()
        assert stats.miss_count("schedule") == 1
        assert stats.hit_count("schedule") == 1
        assert stats.miss_count("placement") == 1
        assert stats.hit_count("placement") == 1


class TestEstimateLatencyWrapper:
    def test_queue_model_passthrough(self, adder_ft):
        mm1 = estimate_latency(adder_ft, params=SMALL, queue_model="mm1")
        md1 = estimate_latency(adder_ft, params=SMALL, queue_model="md1")
        # M/D/1 waiting time is strictly below M/M/1's under congestion.
        assert md1.latency <= mm1.latency

    def test_truncation_guard_passthrough(self, adder_ft):
        guarded = estimate_latency(
            adder_ft, params=SMALL, max_sq_terms=2, truncation_guard=True
        )
        raw = estimate_latency(
            adder_ft, params=SMALL, max_sq_terms=2, truncation_guard=False
        )
        assert guarded.latency > 0 and raw.latency > 0

    def test_bad_queue_model_raises(self, adder_ft):
        with pytest.raises(EstimationError, match="queue model"):
            estimate_latency(adder_ft, queue_model="g/g/1")


class TestCoverageMemoization:
    def test_repeated_calls_return_equal_fresh_lists(self):
        first = expected_coverage_surfaces(30, 10, 10, 4.0, 20)
        first.append(-1.0)   # mutating the returned list must be safe
        second = expected_coverage_surfaces(30, 10, 10, 4.0, 20)
        assert second == first[:-1]

    def test_int_and_float_area_share_entry(self):
        as_int = expected_coverage_surfaces(12, 8, 8, 4, 20)
        as_float = expected_coverage_surfaces(12, 8, 8, 4.0, 20)
        assert as_int == as_float
