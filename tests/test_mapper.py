"""Unit tests for the QSPR mapper facade (repro.qspr.mapper)."""

from __future__ import annotations

import warnings

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import toffoli
from repro.circuits.generators import ham3
from repro.exceptions import MappingError
from repro.fabric.params import FabricSpec, PhysicalParams
from repro.qspr.mapper import QSPRMapper, map_circuit
from repro.qspr.scheduling import SCHEDULER_ENGINES

from test_scheduling_equivalence import schedule_digests

#: ham3 mapped on a 10x10 fabric with the facade's defaults: the frozen
#: schedule digests (see ``test_scheduling_equivalence``), recorded from
#: the object scheduler the engines replaced.
HAM3_10X10_DIGESTS = (
    "0x1.818c000000000p+16",
    "187d75f39270f635046d5633bdd366ee",
    "e87d496e58306f3ea57c64425c6a6c3c",
    "0f4db922a5aea798e5f68de6f13e8989",
    None,
)


@pytest.fixture
def params():
    return PhysicalParams(fabric=FabricSpec(10, 10))


class TestMapping:
    def test_end_to_end_ham3(self, params):
        result = QSPRMapper(params=params).map(ham3())
        assert result.latency > 0.0
        assert result.qubit_count == 3
        assert result.op_count == 19
        assert result.elapsed_seconds > 0.0
        assert result.latency_seconds == pytest.approx(result.latency * 1e-6)

    def test_deterministic(self, params):
        first = QSPRMapper(params=params).map(ham3())
        second = QSPRMapper(params=params).map(ham3())
        assert first.latency == second.latency

    def test_non_ft_circuit_rejected(self, params):
        circuit = Circuit(3)
        circuit.append(toffoli(0, 1, 2))
        with pytest.raises(MappingError, match="fault-tolerant"):
            QSPRMapper(params=params).map(circuit)

    def test_placement_strategy_recorded(self, params):
        result = QSPRMapper(params=params, placement="row_major").map(ham3())
        assert result.placement_strategy == "row_major"

    @pytest.mark.parametrize("strategy", ["iig_greedy", "row_major", "random"])
    def test_all_placements_produce_valid_latency(self, params, strategy):
        result = QSPRMapper(params=params, placement=strategy).map(ham3())
        assert result.latency > 0.0

    def test_iig_greedy_not_worse_than_row_major(self, params, adder_ft):
        greedy = QSPRMapper(params=params, placement="iig_greedy").map(adder_ft)
        naive = QSPRMapper(params=params, placement="row_major").map(adder_ft)
        # Interaction-aware placement should not lose badly on a circuit
        # with strong locality (allow 10% tolerance for heuristic noise).
        assert greedy.latency <= naive.latency * 1.10

    @pytest.mark.parametrize("routing", ["maze", "xy"])
    def test_routing_modes(self, params, routing):
        result = QSPRMapper(params=params, routing=routing).map(ham3())
        assert result.latency > 0.0

    def test_convenience_wrapper(self, params):
        assert map_circuit(ham3(), params=params).latency == pytest.approx(
            QSPRMapper(params=params).map(ham3()).latency
        )

    def test_latency_at_least_critical_path_of_delays(self, params, adder_ft):
        # The mapped latency can never beat the routing-free critical path.
        from repro.qodg.critical_path import critical_path
        from repro.qodg.graph import build_qodg

        delays = params.delays.by_kind()
        floor = critical_path(build_qodg(adder_ft), delays).length
        result = QSPRMapper(params=params).map(adder_ft)
        assert result.latency >= floor


class TestArrayEngineFacade:
    def test_stage_seconds_reported(self, params):
        result = QSPRMapper(params=params).map(ham3())
        assert set(result.stage_seconds) == {"iig", "placement", "schedule"}
        assert all(wall >= 0.0 for wall in result.stage_seconds.values())

    @pytest.mark.parametrize("engine", SCHEDULER_ENGINES)
    def test_engines_match_frozen_digest_through_facade(self, params, engine):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = QSPRMapper(params=params, engine=engine).map(ham3())
        assert result.engine == engine
        assert schedule_digests(result.schedule) == HAM3_10X10_DIGESTS

    def test_map_circuit_engine_passthrough(self, params):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = map_circuit(ham3(), params=params, engine="kernel")
        assert result.engine == "kernel"
        assert result.latency == map_circuit(ham3(), params=params).latency

    def test_cached_mapper_shares_stages(self, params):
        from repro.engine import ArtifactCache

        cache = ArtifactCache()
        circuit = ham3()
        mapper = QSPRMapper(params=params, cache=cache)
        first = mapper.map(circuit)
        second = mapper.map(circuit)
        assert first.latency == second.latency
        stats = cache.stats()
        assert stats.miss_count("iig") == 1
        assert stats.hit_count("iig") == 1
        assert stats.miss_count("schedule") == 1
        assert stats.hit_count("schedule") == 1

    @pytest.mark.parametrize("engine", SCHEDULER_ENGINES)
    def test_uncached_map_hashes_nothing(self, params, engine, monkeypatch):
        # Content hashes only key cache entries; without a cache the
        # scheduler trusts the op arrays compiled in the same call.
        def refuse(self):
            raise AssertionError("uncached map hashed circuit content")

        mapper = QSPRMapper(params=params, engine=engine)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = mapper.map(ham3())
            monkeypatch.setattr(Circuit, "content_fingerprint", refuse)
            result = mapper.map(ham3())
        assert result.latency == expected.latency
        assert result.schedule.finish_times == expected.schedule.finish_times
