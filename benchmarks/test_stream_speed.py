"""Out-of-core streaming front-end: bounded memory at million-gate scale.

The materialized front-end holds the whole ``GateTable`` (and the
estimator's per-op working lists) in RAM, so peak memory grows linearly
with gate count.  The chunked path (``repro.circuits.stream``) spills
the critical-path columns to disk and carries only bounded per-chunk
state, so circuit size becomes disk-bound.  This bench pins that
contract on a ``random_ft`` workload:

* **identical results** — the streamed generate -> FT pass -> IIG ->
  estimate pipeline must reproduce the materialized estimate bit for bit
  (every :class:`LatencyEstimate` field except wall time), and
* **bounded memory** — scaling the gate count 8-20x must leave the
  streaming path's *working* peak (traced peak minus the retained
  result) essentially flat, and its *total* peak clearly sub-linear.
  The distinction matters: the returned
  :class:`~repro.qodg.critical_path.CriticalPathResult` carries the full
  critical-path node list — bitwise identity with the materialized path
  makes that term irreducible — so the total peak has an O(path-length)
  floor with a tiny constant (~40 B/node vs the materialized path's
  hundreds of bytes per *gate*), while everything the machinery itself
  allocates must not grow with the circuit.

Each run fails if the peak-memory advantage over the materialized path
regressed by more than 2x against the baseline committed in
``BENCH_stream.json`` — the perf-trajectory guard the CI smoke job
relies on.  The run never rewrites that file.
"""

from __future__ import annotations

import dataclasses
import os
import time
import tracemalloc

from repro.circuits.generators import random_ft
from repro.circuits.stream import (
    estimate_stream,
    lower_ft_stream,
    stream_random_ft,
)
from repro.core.estimator import LEQAEstimator
from repro.fabric.params import DEFAULT_PARAMS

from _common import (
    recorded_stream_speedup,
)

QUBITS = 12
SEED = 7
CNOT_FRACTION = 0.4

#: Rows per chunk: small enough that the bounded-memory claim is about
#: the machinery (not one big chunk), large enough to amortize dispatch.
CHUNK_SIZE = 8192

#: Gate counts: the small size anchors the sub-linearity measurement and
#: the bitwise-identity check; the large size is the headline claim
#: (>= 10^6 gates end-to-end in bounded memory).
SMALL_GATES = 50_000
FULL_GATES = 1_000_000
SMOKE_GATES = 400_000

#: The streaming *working* peak (above the retained result) may grow at
#: most this factor while the gate count grows 8-20x: ~1.5 B/gate
#: marginal in practice (vs the materialized path's ~150 B/gate),
#: asserted with margin for allocator noise.
WORKING_GROWTH_CAP = 4.0

#: The *total* streaming peak (result included) must stay below this
#: fraction of linear growth.
TOTAL_GROWTH_FRACTION = 0.65

#: A recorded-baseline regression beyond this factor fails the bench.
REGRESSION_FACTOR = 2.0


def _stream_run(gates: int):
    """Generate -> FT pass -> IIG -> estimate, chunked end to end."""
    chunks = lower_ft_stream(
        stream_random_ft(
            QUBITS, gates, seed=SEED, cnot_fraction=CNOT_FRACTION,
            chunk_size=CHUNK_SIZE,
        )
    )
    return estimate_stream(chunks, DEFAULT_PARAMS)


def _materialized_run(gates: int):
    """The same workload through the materialized front-end."""
    circuit = random_ft(
        QUBITS, gates, seed=SEED, cnot_fraction=CNOT_FRACTION
    )
    # random_ft emits FT gates only; is_ft() pins that so the two paths
    # stay comparable if the generator ever changes.
    assert circuit.is_ft()
    return LEQAEstimator(params=DEFAULT_PARAMS).estimate(circuit)


def _traced(fn, *args):
    """(result, wall_seconds, retained_bytes, peak_bytes) of one call.

    ``retained`` is what the call's allocations still hold afterwards —
    dominated by the returned estimate (critical-path node list);
    ``peak - retained`` approximates the transient working set.
    """
    tracemalloc.start()
    started = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - started
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, wall, retained, peak


def test_stream_speed_and_bounded_memory(benchmark):
    smoke = os.environ.get("REPRO_SMOKE") == "1"
    big_gates = SMOKE_GATES if smoke else FULL_GATES

    # Bitwise identity at the small size (cheap enough to run both).
    streamed_small, _, small_retained, small_peak = _traced(
        _stream_run, SMALL_GATES
    )
    expected_small = _materialized_run(SMALL_GATES)
    for field in dataclasses.fields(type(expected_small)):
        if field.name == "elapsed_seconds":
            continue
        assert getattr(streamed_small, field.name) == getattr(
            expected_small, field.name
        ), field.name

    # The headline run: >= 10^6 gates (4x10^5 in smoke) end to end.
    streamed_big, stream_wall, big_retained, big_peak = _traced(
        _stream_run, big_gates
    )
    materialized_big, materialized_wall, _, materialized_peak = _traced(
        _materialized_run, big_gates
    )
    assert streamed_big.latency == materialized_big.latency
    assert streamed_big.op_count == big_gates

    small_working = max(small_peak - small_retained, 1)
    big_working = max(big_peak - big_retained, 1)
    working_growth = big_working / small_working
    total_growth = big_peak / small_peak
    gate_ratio = big_gates / SMALL_GATES
    advantage = materialized_peak / big_peak
    print(
        f"\nstreaming {big_gates} gates: wall {stream_wall:.2f} s, "
        f"peak {big_peak / 1e6:.1f} MB (working {big_working / 1e6:.1f} MB, "
        f"x{working_growth:.2f} working / x{total_growth:.2f} total for "
        f"x{gate_ratio:.0f} gates); materialized wall "
        f"{materialized_wall:.2f} s, peak {materialized_peak / 1e6:.1f} MB "
        f"-> {advantage:.1f}x memory advantage"
    )
    # The machinery's transient working set must not grow with the
    # circuit: bounded-memory streaming, asserted flat (with margin).
    assert working_growth <= WORKING_GROWTH_CAP, (
        f"streaming working peak grew x{working_growth:.2f} for "
        f"x{gate_ratio:.0f} gates — not bounded "
        f"(cap x{WORKING_GROWTH_CAP})"
    )
    # Total peak (retained result included) clearly sub-linear.
    assert total_growth <= TOTAL_GROWTH_FRACTION * gate_ratio, (
        f"streaming total peak grew x{total_growth:.2f} for "
        f"x{gate_ratio:.0f} gates — not sub-linear "
        f"(cap x{TOTAL_GROWTH_FRACTION * gate_ratio:.1f})"
    )
    # And strictly less memory than materializing at the large size.
    assert big_peak < materialized_peak, (
        f"streaming peak {big_peak} B >= materialized "
        f"{materialized_peak} B at {big_gates} gates"
    )

    key = "smoke" if smoke else "full"
    baseline = recorded_stream_speedup(key)
    if baseline is not None:
        assert advantage >= baseline / REGRESSION_FACTOR, (
            f"streaming memory advantage regressed more than "
            f"{REGRESSION_FACTOR}x: {advantage:.2f}x now vs "
            f"{baseline:.2f}x recorded"
        )

    benchmark.pedantic(
        _stream_run, args=(SMALL_GATES,), rounds=1, iterations=1
    )
