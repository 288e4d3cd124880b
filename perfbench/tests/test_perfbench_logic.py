"""Tests of the benchmark's own logic: normalization, percentiles,
self-time accounting and failure counting.

Run with ``python -m pytest perfbench/tests`` from the repository root;
none of them times the program itself.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import measure, run, stats  # noqa: E402
from perfbench.probe import PROBE_ITERATIONS, probe_body, probe_ms  # noqa: E402
from perfbench.tracer import Hook, Tracer  # noqa: E402


# -- probe normalization -----------------------------------------------------


def test_probe_is_frozen():
    # The checksum pins the loop body: any edit to probe.py changes it.
    assert PROBE_ITERATIONS == 5000
    assert probe_body() == 2041
    assert probe_ms() > 0


def test_normalize_divides_out_host_speed():
    # A host twice as slow doubles both the request and the probe.
    fast = stats.normalize(5.0, probe_ms=3.0, ref_ms=3.0)
    slow = stats.normalize(10.0, probe_ms=6.0, ref_ms=3.0)
    assert fast == slow == 5.0
    assert stats.normalize(4.0, probe_ms=2.0, ref_ms=3.0) == 6.0


def test_normalize_rejects_non_positive_probe():
    with pytest.raises(ValueError):
        stats.normalize(1.0, probe_ms=0.0, ref_ms=3.0)


# -- the at-least-10-beyond percentile rule ----------------------------------


def test_samples_beyond_nearest_rank():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.samples_beyond(1000, 99) == 10


def test_p90_needs_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 90) == 90.0
    with pytest.raises(ValueError, match="10 are needed"):
        stats.percentile(values[:99], 90)


def test_median_is_exempt_and_empty_is_refused():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_summarize_pools_requests_and_splits_halves():
    rows = [
        {"ms": float(v), "raw_ms": 2.0 * v, "gates": 10, "probe": 3.0,
         "halves": {"new": 0.75 * v, "repeat": 0.25 * v}}
        for v in range(1, 101)
    ]
    summary = stats.summarize(rows)
    assert summary["requests"] == 100
    assert summary["p90_ms"] == 90.0
    assert summary["raw.p90_ms"] == 180.0
    assert summary["req_per_s"] == pytest.approx(100 / (5050 / 1e3))
    assert summary["gates_per_s"] == pytest.approx(1000 / (5050 / 1e3))
    assert summary["new_p90_ms"] == 67.5
    assert "p90_ms" not in stats.summarize(rows[:99])
    assert stats.summarize([]) == {"requests": 0}


def test_spread_is_iqr_over_median():
    values = [float(v) for v in range(1, 11)]
    expected = 8.25 - 2.75
    assert stats.spread(values) == pytest.approx(expected / 5.5)
    assert stats.spread([7.0, 7.0, 7.0]) == 0.0


# -- self time of nested wrappers ----------------------------------------------


def _namespace():
    def inner(delay):
        time.sleep(delay)
        return [0] * 3

    space = SimpleNamespace()
    space.inner = inner

    def outer(delay):
        time.sleep(delay)
        return space.inner(2 * delay)

    space.outer = outer
    return space


def test_self_time_subtracts_nested_wrappers():
    space = _namespace()
    tracer = Tracer()
    tracer.install([
        Hook(space, "outer", "outer"),
        Hook(space, "inner", "inner", lambda _a, result: len(result)),
    ])
    started = time.perf_counter()
    space.outer(0.02)
    wall = time.perf_counter() - started
    tracer.restore()
    totals = tracer.take()
    assert totals["inner"].seconds == pytest.approx(0.04, abs=0.015)
    assert totals["outer"].seconds == pytest.approx(0.02, abs=0.015)
    assert totals["outer"].seconds + totals["inner"].seconds <= wall
    assert totals["inner"].units == 3
    assert (totals["outer"].calls, totals["inner"].calls) == (1, 1)


def test_generator_pulls_nest_upstream():
    def produce(count):
        for value in range(count):
            time.sleep(0.005)
            yield [value] * 2

    space = SimpleNamespace(produce=produce)

    def consume(chunks):
        total = 0
        for chunk in chunks:
            time.sleep(0.01)
            total += len(chunk)
        return total

    space.consume = consume
    tracer = Tracer()
    tracer.install([
        Hook(space, "produce", "produce", lambda _a, chunk: len(chunk),
             generator=True),
        Hook(space, "consume", "consume"),
    ])
    assert space.consume(space.produce(4)) == 8
    tracer.restore()
    totals = tracer.take()
    assert totals["produce"].units == 8
    assert totals["produce"].seconds == pytest.approx(0.02, abs=0.015)
    assert totals["consume"].seconds == pytest.approx(0.04, abs=0.02)


def test_restore_puts_originals_back():
    class Owner:
        def method(self):
            return "own"

        @classmethod
        def build(cls):
            return cls

    space = _namespace()
    original_inner = space.inner
    tracer = Tracer()
    tracer.install([
        Hook(space, "inner", "inner"),
        Hook(Owner, "method", "method"),
        Hook(Owner, "build", "build"),
    ])
    assert space.inner is not original_inner
    assert Owner.build() is Owner
    assert Owner().method() == "own"
    with pytest.raises(RuntimeError):
        tracer.install([Hook(space, "outer", "outer")])
    tracer.restore()
    assert space.inner is original_inner
    assert "method" in vars(Owner) and Owner().method() == "own"
    assert isinstance(vars(Owner)["build"], classmethod)
    assert tracer.take()["method"].calls == 1


def test_threads_keep_separate_stacks():
    space = _namespace()
    tracer = Tracer()
    tracer.install([Hook(space, "outer", "outer"), Hook(space, "inner", "inner")])
    worker = threading.Thread(target=space.inner, args=(0.03,))
    worker.start()
    space.outer(0.01)
    worker.join(timeout=5)
    tracer.restore()
    assert not worker.is_alive()
    totals = tracer.take()
    # The other thread's inner call is not subtracted from outer.
    assert totals["inner"].calls == 2
    assert totals["outer"].seconds == pytest.approx(0.01, abs=0.01)


def test_residual_layers_stay_out_of_attribution():
    record = measure.Record("a", True, 1.0, 3.0, outcome="a")
    record.layers = {"qodg.critical": 0.6, "service.rtt": 0.3}
    assert "service.rtt" in measure.RESIDUAL
    table = measure._layer_table(None, [record])
    assert table["attributed_frac"] == pytest.approx(0.6)
    assert table["residual_frac"] == pytest.approx(0.3)


# -- failed_frac counting ----------------------------------------------------


def test_failed_frac():
    assert stats.failed_frac(attempted=8, failed=2) == 0.25
    assert stats.failed_frac(attempted=1, failed=0) == 0.0
    with pytest.raises(ValueError):
        stats.failed_frac(attempted=0, failed=0)
    with pytest.raises(ValueError):
        stats.failed_frac(attempted=2, failed=3)


def test_check_counts_errors_mismatches_and_crashing_checks():
    class FakePath:
        name = "fake"

        def check(self, item, outcome):
            if item == "crash":
                raise ZeroDivisionError("check crashed")
            return None if outcome == item else f"{outcome} != {item}"

    records = [
        measure.Record("a", False, 0.1, 3.0, outcome="a"),
        measure.Record("b", False, 0.1, 3.0, outcome="x"),
        measure.Record("c", False, 0.1, 3.0, error="Traceback: boom"),
        measure.Record("crash", False, 0.1, 3.0, outcome="crash"),
    ]
    failures = measure._check(FakePath(), records)
    assert len(failures) == 3
    assert "x != b" in failures[0]
    assert "boom" in failures[1]
    assert "ZeroDivisionError" in failures[2]
    assert stats.failed_frac(len(records), len(failures)) == 0.75


# -- the benchmark definition --------------------------------------------------


def test_every_per_layer_metric_has_a_source():
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in definition["per_layer"]}
    for name in declared:
        home, _kind, _layer = run.layer_source(name)
        assert home is None or home in run.WORKLOADS
    in_spec = {
        name
        for layer in run.SPEC["layers"].values()
        for name in layer["metrics"]
    }
    assert in_spec <= declared
    setup = next(m for m in definition["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in definition["end_to_end"])
