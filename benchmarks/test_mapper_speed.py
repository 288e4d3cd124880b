"""Array-native mapper speedup: slot-indexed engine vs the scalar oracle.

The paper's Table 3 story (LEQA's ~1000x over a detailed mapper) made the
pure-Python mapper the bottleneck of every accuracy/runtime sweep.  This
bench pins the array-native rewrite's contract:

* **identical physics** — the slot-indexed engine must reproduce the
  legacy scheduler's latency, per-op finish times and movement statistics
  bit for bit, and
* **speed** — ``map_circuit`` on the calibration benchmark must run at
  least 5x faster than the legacy (scalar-oracle) engine.

Each run fails if the speedup regressed by more than 2x against the
baseline committed in ``BENCH_mapper.json`` — the perf-trajectory guard
the CI smoke job relies on.  The run never rewrites that file.
"""

from __future__ import annotations

import os
import time

from repro.fabric.params import DEFAULT_PARAMS
from repro.qspr.mapper import QSPRMapper

from _common import (
    ft_circuit,
    recorded_mapper_speedup,
)

BENCH = "gf2^16mult"

#: Asserted floor for the array engine over the legacy engine.
SPEEDUP_FLOOR = 5.0

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


def test_array_mapper_speed_and_equivalence(benchmark):
    smoke = os.environ.get("REPRO_SMOKE") == "1"
    rounds = 2 if smoke else 4
    circuit = ft_circuit(BENCH)
    legacy_mapper = QSPRMapper(params=DEFAULT_PARAMS, engine="legacy")
    array_mapper = QSPRMapper(params=DEFAULT_PARAMS, engine="array")

    legacy = legacy_mapper.map(circuit)
    array = array_mapper.map(circuit)
    # Bitwise-identical schedule: same latency, same per-op finish times,
    # same final qubit locations, same movement statistics.
    assert array.latency == legacy.latency
    assert array.schedule.finish_times == legacy.schedule.finish_times
    assert array.schedule.final_locations == legacy.schedule.final_locations
    assert array.schedule.stats == legacy.schedule.stats

    legacy_wall = _best_wall(legacy_mapper, circuit, rounds)
    array_wall = _best_wall(array_mapper, circuit, rounds)
    speedup = legacy_wall / array_wall
    print(
        f"\nmapper speedup on {BENCH}: {speedup:.2f}x "
        f"(legacy {legacy_wall * 1000:.1f} ms, array "
        f"{array_wall * 1000:.1f} ms)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"array mapper only {speedup:.2f}x faster than the scalar oracle "
        f"(floor {SPEEDUP_FLOOR}x)"
    )

    key = "smoke" if smoke else "full"
    baseline = recorded_mapper_speedup(key)
    if baseline is not None:
        assert speedup >= baseline / REGRESSION_FACTOR, (
            f"mapper speedup regressed more than {REGRESSION_FACTOR}x: "
            f"{speedup:.2f}x now vs {baseline:.2f}x recorded"
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
