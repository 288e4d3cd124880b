"""Integration tests: the full pipeline, end to end.

These exercise generator -> FT synthesis -> (LEQA | QSPR) on real
benchmarks and assert the paper's qualitative claims at test scale:
estimates land near the mapper's actual latency, and the estimator is
faster than the mapper.
"""

from __future__ import annotations

import pytest

from repro.analysis.errors import AccuracyRow, summarize
from repro.circuits.library import build_ft
from repro.core.estimator import LEQAEstimator
from repro.fabric.params import DEFAULT_PARAMS
from repro.qspr.mapper import QSPRMapper

#: Small-enough benchmarks for CI; Table 2/3 benches cover the rest.
SMALL_BENCHMARKS = ("8bitadder", "ham3", "ham15", "mod1048576adder")


@pytest.fixture(scope="module")
def paired_results():
    estimator = LEQAEstimator(params=DEFAULT_PARAMS)
    mapper = QSPRMapper(params=DEFAULT_PARAMS)
    results = {}
    for name in SMALL_BENCHMARKS:
        circuit = build_ft(name)
        results[name] = (
            mapper.map(circuit),
            estimator.estimate(circuit),
        )
    return results


class TestAccuracyShape:
    def test_every_estimate_within_paper_band(self, paired_results):
        # Paper Table 2: max error below 9%. Allow 2x slack (18%) for our
        # re-implemented mapper — the *shape* claim, not the exact figure.
        for name, (actual, estimate) in paired_results.items():
            row = AccuracyRow(
                name, actual.latency_seconds, estimate.latency_seconds
            )
            assert row.error_percent < 18.0, (
                f"{name}: {row.error_percent:.2f}% error"
            )

    def test_average_error_single_digit(self, paired_results):
        rows = [
            AccuracyRow(name, act.latency_seconds, est.latency_seconds)
            for name, (act, est) in paired_results.items()
        ]
        summary = summarize(rows)
        assert summary.average_error_percent < 10.0

    def test_latencies_positive_and_ordered_by_size(self, paired_results):
        # Bigger circuits (ops on critical path) take longer on both sides.
        act_small = paired_results["ham3"][0].latency
        act_large = paired_results["mod1048576adder"][0].latency
        assert 0 < act_small < act_large


class TestSpeedShape:
    def test_estimator_beats_mapper_on_every_benchmark(self, paired_results):
        for name, (actual, estimate) in paired_results.items():
            if name == "ham3":
                continue  # too tiny for stable timing comparisons
            assert estimate.elapsed_seconds < actual.elapsed_seconds, name

    def test_estimate_runtime_far_below_a_second_at_test_scale(
        self, paired_results
    ):
        for _, estimate in paired_results.values():
            assert estimate.elapsed_seconds < 1.0


class TestModelConsistency:
    def test_estimate_includes_routing_beyond_bare_critical_path(
        self, paired_results
    ):
        # LEQA's latency must exceed the routing-free critical path: the
        # whole point of the model is the added routing latencies.
        from repro.qodg.critical_path import critical_path
        from repro.qodg.graph import build_qodg

        delays = DEFAULT_PARAMS.delays.by_kind()
        for name, (_, estimate) in paired_results.items():
            circuit = build_ft(name)
            floor = critical_path(build_qodg(circuit), delays).length
            assert estimate.latency > floor

    def test_mapper_latency_also_above_floor(self, paired_results):
        from repro.qodg.critical_path import critical_path
        from repro.qodg.graph import build_qodg

        delays = DEFAULT_PARAMS.delays.by_kind()
        for name, (actual, _) in paired_results.items():
            circuit = build_ft(name)
            floor = critical_path(build_qodg(circuit), delays).length
            assert actual.latency >= floor

    def test_shared_parser_invariant(self):
        # Paper: "LEQA and QSPR share the same parsers" — both consume the
        # identical Circuit object, so qubit/op counts agree by design.
        circuit = build_ft("8bitadder")
        actual = QSPRMapper(params=DEFAULT_PARAMS).map(circuit)
        estimate = LEQAEstimator(params=DEFAULT_PARAMS).estimate(circuit)
        assert actual.qubit_count == estimate.qubit_count
        assert actual.op_count == estimate.op_count
