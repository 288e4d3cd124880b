"""Mapper speed: the array engine's rate and the compiled kernel's speedup.

The paper's Table 3 story (LEQA's ~1000x over a detailed mapper) made the
pure-Python mapper the bottleneck of every accuracy/runtime sweep.  This
bench pins the array-native engine's contract on the calibration
benchmark:

* **identical physics** — the array engine's schedule (latency, per-op
  finish times, final qubit locations, movement statistics) must match
  the frozen digests recorded from the object scheduler it replaced,
  and
* **speed** — ``QSPRMapper.map`` must run at least
  :data:`ARRAY_SPEEDUP_FLOOR` times the object scheduler's FT ops per
  normalized second (best of the rounds, timed with
  ``_common.normalized_seconds``).

Each run also fails if the array wall regressed by more than
:data:`REGRESSION_FACTOR` against the baseline committed in
``BENCH_mapper.json`` — the perf-trajectory guard the CI smoke job
relies on.  The run never rewrites that file.  The kernel bench asserts
its speedup over the array engine the same way.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np

from repro.fabric.params import DEFAULT_PARAMS
from repro.qspr.mapper import QSPRMapper

from _common import (
    ft_circuit,
    normalized_seconds,
    recorded_mapper_speedup,
    recorded_mapper_wall,
)

BENCH = "gf2^16mult"

#: FT ops of :data:`BENCH` (the rate's numerator).
BENCH_OPS = 9930

#: The schedule of :data:`BENCH` at ``DEFAULT_PARAMS`` (iig_greedy, maze,
#: program order): latency float hex, then blake2b-16 of the per-op
#: finish times (float64), the final locations (int64) and the stats
#: text, encoded as ``schedule_digests`` in
#: ``tests/test_scheduling_equivalence.py``.  Recorded from the object
#: scheduler after asserting that it, the array engine and the kernel
#: agreed.
BENCH_DIGESTS = (
    "0x1.4e71e40000000p+25",
    "0369c17617e61aa09764a232462de4db",
    "7ba78f25a28228f1325a519fff289dae",
    "66959a3cc61cb4650d87413a22f399f5",
)

#: The object scheduler's rate on :data:`BENCH` in FT ops per normalized
#: second: the median over 12 processes of its best of 4 rounds, measured
#: with ``normalized_seconds`` on a 2-vCPU VM at the last commit that had
#: it (quartiles 34.8k/40.3k; see CHANGES.md).
OBJECT_SCHEDULER_OPS_PER_S = 36_250

#: Asserted floor for the array engine over the object scheduler's rate.
ARRAY_SPEEDUP_FLOOR = 5.0

#: Asserted floor for the compiled kernel over the array engine.
KERNEL_SPEEDUP_FLOOR = 2.0

#: A recorded-baseline regression beyond this factor fails the bench.
REGRESSION_FACTOR = 2.0


def _best_wall(mapper: QSPRMapper, circuit, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        mapper.map(circuit)
        best = min(best, time.perf_counter() - started)
    return best


def _schedule_digests(schedule) -> tuple[str, ...]:
    def blake(data: bytes) -> str:
        return hashlib.blake2b(data, digest_size=16).hexdigest()

    stats = schedule.stats
    stats_text = (
        f"{int(stats.total_moves)} {int(stats.total_hops)} "
        f"{float(stats.congestion_wait).hex()} {int(stats.relocations)} "
        f"{int(stats.cnot_count)} {int(stats.one_qubit_count)}"
    )
    return (
        float(schedule.latency).hex(),
        blake(np.asarray(schedule.finish_times, dtype=np.float64).tobytes()),
        blake(np.asarray(schedule.final_locations, dtype=np.int64).tobytes()),
        blake(stats_text.encode()),
    )


def test_array_mapper_speed_and_equivalence(benchmark):
    smoke = os.environ.get("REPRO_SMOKE") == "1"
    rounds = 2 if smoke else 4
    circuit = ft_circuit(BENCH)
    assert len(circuit) == BENCH_OPS
    array_mapper = QSPRMapper(params=DEFAULT_PARAMS, engine="array")

    array = array_mapper.map(circuit)
    # Bitwise the frozen schedule: same latency, same per-op finish
    # times, same final qubit locations, same movement statistics.
    assert _schedule_digests(array.schedule) == BENCH_DIGESTS

    array_wall = _best_wall(array_mapper, circuit, rounds)
    rate = BENCH_OPS / normalized_seconds(
        lambda: array_mapper.map(circuit), rounds
    )
    floor = ARRAY_SPEEDUP_FLOOR * OBJECT_SCHEDULER_OPS_PER_S
    print(
        f"\narray mapper on {BENCH}: {rate / 1e3:.1f}k ops per normalized s "
        f"(floor {floor / 1e3:.1f}k; wall {array_wall * 1000:.1f} ms, best "
        f"of {rounds})"
    )
    assert rate >= floor, (
        f"array mapper at {rate / 1e3:.1f}k ops per normalized s "
        f"(floor {floor / 1e3:.1f}k: {ARRAY_SPEEDUP_FLOOR}x the object "
        "scheduler's rate)"
    )

    key = "smoke" if smoke else "full"
    baseline = recorded_mapper_wall(key)
    if baseline is not None:
        assert array_wall <= baseline * REGRESSION_FACTOR, (
            f"array mapper wall regressed more than {REGRESSION_FACTOR}x: "
            f"{array_wall * 1000:.1f} ms now vs {baseline * 1000:.1f} ms "
            "recorded"
        )

    benchmark.pedantic(
        array_mapper.map, args=(circuit,), rounds=1, iterations=1
    )


def test_kernel_mapper_speed_and_equivalence(benchmark):
    """The compiled scheduler kernel: bitwise the array engine, >= 2x.

    Skipped (not failed) where no C compiler exists — the fallback path
    is covered by the tier-1 suite; this bench measures the real kernel.
    """
    import pytest

    from repro.qspr import _kernel

    if not _kernel.available():
        pytest.skip("no C compiler: kernel engine unavailable on this host")

    smoke = os.environ.get("REPRO_SMOKE") == "1"
    rounds = 2 if smoke else 4
    circuit = ft_circuit(BENCH)
    array_mapper = QSPRMapper(params=DEFAULT_PARAMS, engine="array")
    kernel_mapper = QSPRMapper(params=DEFAULT_PARAMS, engine="kernel")

    array = array_mapper.map(circuit)
    kernel = kernel_mapper.map(circuit)
    assert kernel.engine == "kernel"
    assert _schedule_digests(kernel.schedule) == BENCH_DIGESTS
    assert kernel.latency == array.latency
    assert kernel.schedule.finish_times == array.schedule.finish_times
    assert kernel.schedule.final_locations == array.schedule.final_locations
    assert kernel.schedule.stats == array.schedule.stats

    array_wall = _best_wall(array_mapper, circuit, rounds)
    kernel_wall = _best_wall(kernel_mapper, circuit, rounds)
    speedup = array_wall / kernel_wall
    print(
        f"\nkernel speedup on {BENCH}: {speedup:.2f}x "
        f"(array {array_wall * 1000:.1f} ms, kernel "
        f"{kernel_wall * 1000:.1f} ms)"
    )
    assert speedup >= KERNEL_SPEEDUP_FLOOR, (
        f"kernel engine only {speedup:.2f}x faster than the array engine "
        f"(floor {KERNEL_SPEEDUP_FLOOR}x)"
    )

    key = "kernel_smoke" if smoke else "kernel_full"
    baseline = recorded_mapper_speedup(key)
    if baseline is not None:
        assert speedup >= baseline / REGRESSION_FACTOR, (
            f"kernel speedup regressed more than {REGRESSION_FACTOR}x: "
            f"{speedup:.2f}x now vs {baseline:.2f}x recorded"
        )

    benchmark.pedantic(
        kernel_mapper.map, args=(circuit,), rounds=1, iterations=1
    )
