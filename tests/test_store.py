"""Tests for the persistent artifact store (repro.store).

Covers the typed codec (bitwise round-trips per artifact type), the
sharded on-disk :class:`ArtifactStore` (atomic publish, build-once,
LRU GC, corruption recovery), the cache's store tier and LRU memory
cap, and — the multi-process contract — two processes racing
``get_or_build`` on one key building at most once while both read back
bitwise-identical artifacts.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.decompose import synthesize_ft
from repro.circuits.library import build, build_ft
from repro.circuits.table import GateTable, TableBuilder
from repro.core.estimator import LEQAEstimator
from repro.core.pipeline import ZoneArrays
from repro.engine import ArtifactCache, CircuitSpec
from repro.exceptions import EngineError, StoreError
from repro.fabric.params import DEFAULT_PARAMS
from repro.qodg.iig import build_iig
from repro.qspr.mapper import QSPRMapper
from repro.qspr.scheduling import compile_qodg
from repro.store import ArtifactStore, decode, encodable, encode, key_digest

SMALL = DEFAULT_PARAMS.with_fabric(12, 12)


@pytest.fixture(scope="module")
def ft_circuit():
    return synthesize_ft(build("ham3"))


@pytest.fixture(scope="module")
def mapping(ft_circuit):
    return QSPRMapper(params=SMALL).map(ft_circuit)


class TestCodecRoundTrips:
    def test_gate_table_bitwise(self, ft_circuit):
        table = ft_circuit.table()
        clone = decode(encode(table))
        assert clone.same_content(table)
        assert clone.name == table.name
        for column in ("kind", "ctrl", "ctrl2", "target", "target2",
                       "extra_indptr", "extra"):
            original = getattr(table, column)
            restored = getattr(clone, column)
            assert restored.dtype == original.dtype
            assert np.array_equal(restored, original)

    def test_circuit_roundtrip_and_seeded_fingerprint(self, ft_circuit,
                                                       monkeypatch):
        encoded = encode(ft_circuit)
        clone = decode(encoded)
        assert clone.qubit_names == ft_circuit.qubit_names
        assert clone.table().same_content(ft_circuit.table())
        # A copy of the decoded rows hashes them from scratch.
        rehashed = Circuit.from_table(
            TableBuilder.from_table(clone.table()).finish()
        ).content_fingerprint()
        assert rehashed == ft_circuit.content_fingerprint()

        # The decoded circuit answers from the header-seeded digest,
        # hashing nothing.
        def no_hashing(table):
            raise AssertionError("a decoded circuit re-hashed its gates")

        monkeypatch.setattr(GateTable, "record_stream", no_hashing)
        assert decode(encoded).content_fingerprint() == rehashed

    def test_iig_bitwise(self, ft_circuit):
        iig = build_iig(ft_circuit)
        clone = decode(encode(iig))
        assert clone.num_qubits == iig.num_qubits
        assert clone.total_weight == iig.total_weight
        for field in ("indptr", "indices", "weights", "degrees",
                      "weight_sums"):
            mine, theirs = getattr(iig, field), getattr(clone, field)
            assert theirs.dtype == mine.dtype
            assert np.array_equal(theirs, mine)

    def test_iig_bytes_pinned(self):
        # Encoding is byte-deterministic, so a digest pinned across
        # releases shows that a store written by any of them decodes to
        # the same graph.
        encoded = encode(build_iig(build_ft("gf2^16mult")))
        assert hashlib.blake2b(encoded).hexdigest() == (
            "c1a215708d04d90ab54887049529167e1dfda6ce5c53b1d03337cade66fbea"
            "f7113aecb162e5aa34c13c4d9f67d0a62181ecd2bed75a42ee4be76190db66"
            "00f9"
        )
        assert encode(decode(encoded)) == encoded

    def test_zone_arrays(self, ft_circuit):
        zones = ZoneArrays.from_iig(build_iig(ft_circuit))
        clone = decode(encode(zones))
        assert np.array_equal(clone.degrees, zones.degrees)
        assert np.array_equal(clone.weights, zones.weights)
        assert clone.average_area == zones.average_area

    def test_ndarray_scalar_and_tuples(self):
        array = np.linspace(0.0, 1.0, 17)
        assert np.array_equal(decode(encode(array)), array)
        value = 0.1 + 0.2  # not exactly 0.3: catches text round-trips
        assert decode(encode(value)) == value
        series = (1.5, value, 2.25)
        assert decode(encode(series)) == series
        queueing = (value, series)
        assert decode(encode(queueing)) == queueing
        assert decode(encode((0.0, ()))) == (0.0, ())

    def test_compiled_qodg(self, ft_circuit):
        # The op arrays are compiled per schedule, never stored: reading
        # them back would cost more than the one gather that builds them.
        compiled = compile_qodg(ft_circuit, DEFAULT_PARAMS.delays.by_kind())
        assert not encodable(compiled)

    def test_placement(self):
        placement = [(0, 0), (3, 1), (11, 7)]
        assert decode(encode(placement)) == placement

    def test_schedule_result_bitwise(self, mapping):
        schedule = mapping.schedule
        clone = decode(encode(schedule))
        assert clone.latency == schedule.latency
        assert clone.finish_times == schedule.finish_times
        assert clone.final_locations == schedule.final_locations
        assert clone.stats == schedule.stats
        assert clone.trace is None

    def test_traced_schedule_not_encodable(self, ft_circuit):
        traced = QSPRMapper(params=SMALL, record_trace=True).map(ft_circuit)
        assert traced.schedule.trace is not None
        assert not encodable(traced.schedule)
        with pytest.raises(StoreError, match="no store codec"):
            encode(traced.schedule)

    def test_latency_estimate_bitwise(self, ft_circuit):
        estimate = LEQAEstimator(params=SMALL).estimate(ft_circuit)
        clone = decode(encode(estimate))
        assert clone.latency == estimate.latency
        assert clone.l_avg_cnot == estimate.l_avg_cnot
        assert clone.l_avg_one_qubit == estimate.l_avg_one_qubit
        assert clone.d_uncong == estimate.d_uncong
        assert clone.average_zone_area == estimate.average_zone_area
        assert clone.coverage_surfaces == estimate.coverage_surfaces
        assert clone.qubit_count == estimate.qubit_count
        assert clone.op_count == estimate.op_count
        assert clone.critical.length == estimate.critical.length
        assert clone.critical.node_ids == estimate.critical.node_ids
        assert clone.critical.counts_by_kind == estimate.critical.counts_by_kind
        assert clone.critical.cnot_count == estimate.critical.cnot_count

    def test_unsupported_type(self):
        assert not encodable(object())
        assert not encodable({"a": 1})
        with pytest.raises(StoreError, match="no store codec"):
            encode(object())

    def test_garbage_blob_rejected(self):
        with pytest.raises(StoreError):
            decode(b"definitely not an npz container")

    def test_truncated_blob_rejected(self, ft_circuit, mapping):
        # Every cut of every artifact type, as a power cut mid-publish
        # leaves it, is a StoreError (which the store reads as a miss),
        # never a zip, EOF or key error escaping the codec.
        samples = {
            "gate_table": ft_circuit.table(),
            "circuit": ft_circuit,
            "iig": build_iig(ft_circuit),
            "zone_arrays": ZoneArrays.from_iig(build_iig(ft_circuit)),
            "ndarray": np.linspace(0.0, 1.0, 17),
            "float": 1.5,
            "float_tuple": (1.5, 2.25),
            "queueing": (0.5, (1.5, 2.25)),
            "placement": [(0, 0), (3, 1)],
            "schedule": mapping.schedule,
            "estimate": LEQAEstimator(params=SMALL).estimate(ft_circuit),
        }
        for tag, value in samples.items():
            blob = encode(value)
            for length in range(0, len(blob), 8):
                with pytest.raises(StoreError):
                    decode(blob[:length])


class TestKeyDigest:
    def test_stable_and_discriminating(self):
        key = (CircuitSpec("ham3"), True, ("fabric", 60, 60))
        assert key_digest("ft", key) == key_digest("ft", key)
        assert key_digest("ft", key) != key_digest("iig", key)
        assert key_digest("ft", key) != key_digest(
            "ft", (CircuitSpec("ham7"), True, ("fabric", 60, 60))
        )


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path, ft_circuit):
        store = ArtifactStore(tmp_path / "store")
        table = ft_circuit.table()
        assert store.get("ft", "k") is None
        assert store.put("ft", "k", table)
        clone = store.get("ft", "k")
        assert clone.same_content(table)
        stats = store.stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.writes == 1
        assert stats.bytes_written > 0 and stats.bytes_read > 0
        assert len(store) == 1

    def test_unencodable_value_not_persisted(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        value = store.get_or_build("zones", "k", lambda: {"not": "arrays"})
        assert value == {"not": "arrays"}
        assert len(store) == 0

    def test_get_or_build_builds_once_across_instances(self, tmp_path):
        root = tmp_path / "store"
        calls = []

        def builder():
            calls.append(1)
            return 42.0

        first = ArtifactStore(root)
        assert first.get_or_build("uncong", ("k",), builder) == 42.0
        # A second instance (a "new process") loads instead of building.
        second = ArtifactStore(root)
        assert second.get_or_build("uncong", ("k",), builder) == 42.0
        assert calls == [1]
        assert second.stats().hits == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        for index, cut in enumerate((
            lambda blob: b"truncated garbage",
            lambda blob: blob[: len(blob) // 2],
        )):
            root = tmp_path / f"store{index}"
            store = ArtifactStore(root)
            store.put("uncong", "k", 1.0)
            (entry,) = list(root.glob("*/*/*.npz"))
            good = entry.read_bytes()
            entry.write_bytes(cut(good))
            assert store.get("uncong", "k") is None
            assert not entry.exists()
            # A fresh cache over the damaged entry rebuilds and republishes.
            entry.write_bytes(cut(good))
            cache = ArtifactCache(store=ArtifactStore(root))
            assert cache.stage("uncong", "k", lambda: 1.5) == 1.5
            assert ArtifactStore(root).get("uncong", "k") == 1.5

    def test_format_stamp_mismatch(self, tmp_path):
        root = tmp_path / "store"
        ArtifactStore(root)
        (root / "STORE_FORMAT").write_text("leqa-artifact-store v999\n")
        with pytest.raises(StoreError, match="format"):
            ArtifactStore(root)

    def test_gc_evicts_lru_to_budget(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        payload = np.arange(4096, dtype=np.float64)
        for index in range(4):
            store.put("ham", ("k", index), payload)
            os.utime(
                store._path("ham", ("k", index)), (index + 1, index + 1)
            )
        # Re-reading entry 0 re-stamps its mtime: it is now the newest.
        assert store.get("ham", ("k", 0)) is not None
        entry_size = store.size_bytes() // 4
        evicted = store.gc(entry_size * 2)
        assert evicted == 2
        assert store.get("ham", ("k", 0)) is not None  # survived (LRU hit)
        assert store.get("ham", ("k", 3)) is not None  # newest write
        assert store.get("ham", ("k", 1)) is None
        assert store.get("ham", ("k", 2)) is None
        assert store.stats().evicted == 2

    def test_gc_rejects_negative_budget(self, tmp_path):
        with pytest.raises(StoreError, match=">= 0"):
            ArtifactStore(tmp_path / "store").gc(-1)

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("uncong", "k", 1.0)
        store.clear()
        assert len(store) == 0


class TestCacheStoreTier:
    def test_miss_falls_through_to_disk(self, tmp_path, ft_circuit):
        root = tmp_path / "store"
        spec = CircuitSpec("ham3")
        cold = ArtifactCache(store=ArtifactStore(root))
        built = cold.ft_circuit(spec)
        assert cold.stats().miss_count("ft") == 1

        warm = ArtifactCache(store=ArtifactStore(root))
        loaded = warm.ft_circuit(spec)
        stats = warm.stats()
        assert stats.store_hit_count("ft") == 1
        assert stats.miss_count("ft") == 0
        assert loaded.table().same_content(built.table())
        # Second lookup is a plain memory hit.
        warm.ft_circuit(spec)
        assert warm.stats().hit_count("ft") == 1

    def test_lru_cap_evicts_and_counts(self, ft_circuit):
        cache = ArtifactCache(max_entries=2)
        cache.stage("uncong", "a", lambda: 1.0)
        cache.stage("uncong", "b", lambda: 2.0)
        cache.stage("uncong", "a", lambda: 1.0)  # refresh a's recency
        cache.stage("uncong", "c", lambda: 3.0)  # evicts b, the LRU entry
        assert len(cache) == 2
        stats = cache.stats()
        assert stats.eviction_count("uncong") == 1
        # a survived the eviction (it was refreshed); b rebuilds.
        assert cache.stats().hit_count("uncong") == 1
        rebuilt = []
        cache.stage("uncong", "b", lambda: rebuilt.append(1) or 2.0)
        assert rebuilt == [1]

    def test_evicted_entry_reloads_from_store(self, tmp_path):
        cache = ArtifactCache(
            max_entries=1, store=ArtifactStore(tmp_path / "store")
        )
        cache.stage("uncong", "a", lambda: 1.0)
        cache.stage("uncong", "b", lambda: 2.0)  # evicts a from memory
        value = cache.stage(
            "uncong", "a", lambda: pytest.fail("should reload from disk")
        )
        assert value == 1.0
        assert cache.stats().store_hit_count("uncong") == 1

    def test_max_entries_validation(self):
        with pytest.raises(EngineError, match="max_entries"):
            ArtifactCache(max_entries=0)

    def test_process_executor_workers_share_the_store(self, tmp_path):
        from repro.engine import BatchRunner, Job

        root = tmp_path / "store"
        runner = BatchRunner(
            workers=2, executor="process", store=ArtifactStore(root)
        )
        results = runner.run(
            [
                Job(
                    CircuitSpec("ham3"),
                    params=DEFAULT_PARAMS.with_fabric(size, size),
                )
                for size in (6, 8)
            ]
        )
        assert all(point.ok for point in results)
        # The worker processes published their artifacts to the shared
        # store (the parent's in-memory cache never ran these jobs).
        assert len(ArtifactStore(root)) > 0
        assert runner.cache.stats().miss_count("estimate") == 0


# -- multi-process race (module level: children must import these) ----------


def _race_build_marker(out_dir: str) -> object:
    """Builder that leaves one marker file per invocation."""
    marker = Path(out_dir) / f"built-{os.getpid()}"
    marker.write_text("built")
    return synthesize_ft(build("ham3"))


def _race_worker(root: str, out_dir: str, barrier) -> None:
    store = ArtifactStore(root)
    barrier.wait()  # line both processes up on the same key
    value = store.get_or_build(
        "ft", ("race-key",), lambda: _race_build_marker(out_dir)
    )
    table = value.table()
    report = Path(out_dir) / f"report-{os.getpid()}"
    report.write_text(
        f"{value.content_fingerprint()}\n{table.num_qubits}\n{len(table)}"
    )


class TestConcurrentProcesses:
    def test_racing_processes_build_once_and_agree(self, tmp_path):
        root = str(tmp_path / "store")
        out_dir = str(tmp_path / "out")
        os.makedirs(out_dir)
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        workers = [
            context.Process(
                target=_race_worker, args=(root, out_dir, barrier)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        markers = list(Path(out_dir).glob("built-*"))
        assert len(markers) == 1, "advisory locks must serialize the build"
        reports = sorted(Path(out_dir).glob("report-*"))
        assert len(reports) == 2
        first, second = (path.read_text() for path in reports)
        assert first == second, "both processes must read identical artifacts"
        # And the artifact matches an in-process build bit for bit.
        oracle = synthesize_ft(build("ham3"))
        assert first.split("\n")[0] == oracle.content_fingerprint()
