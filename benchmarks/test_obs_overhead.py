"""Telemetry overhead gate: obs-enabled mapper must stay within 3%.

The telemetry layer's contract is a disabled-by-default fast path:
spans always feed their latency histogram (a handful of dict ops per
*stage*, amortized over milliseconds of mapping work), and the heavier
machinery — nesting stack, ring buffer, exporter — only runs when span
recording is enabled.  This bench pins both ends:

* mapping with recording **enabled** (ring buffer on, the ``leqa
  serve`` configuration) must cost less than ``OVERHEAD_CEILING_PCT``
  over the disabled path, measured interleaved best-of-N on the
  calibration benchmark.

Interleaving the enabled/disabled rounds (rather than back-to-back
blocks) decorrelates the comparison from thermal/frequency drift, and
best-of-N discards scheduler noise — standard microbenchmark hygiene.
"""

from __future__ import annotations

import os
import time

from repro import obs
from repro.fabric.params import DEFAULT_PARAMS
from repro.qspr.mapper import QSPRMapper

from _common import ft_circuit

BENCH = "gf2^16mult"

#: Asserted ceiling on (enabled - disabled) / disabled, in percent.
OVERHEAD_CEILING_PCT = 3.0


def test_obs_enabled_overhead_under_ceiling():
    smoke = os.environ.get("REPRO_SMOKE") == "1"
    rounds = 3 if smoke else 5
    circuit = ft_circuit(BENCH)
    mapper = QSPRMapper(params=DEFAULT_PARAMS, engine="array")

    # Warm every lazy path (IIG construction, engine buffers) before
    # timing, and make sure recording starts from a known-off state.
    obs.disable()
    mapper.map(circuit)

    best_disabled = float("inf")
    best_enabled = float("inf")
    try:
        for _ in range(rounds):
            obs.disable()
            started = time.perf_counter()
            mapper.map(circuit)
            best_disabled = min(
                best_disabled, time.perf_counter() - started
            )

            obs.enable()
            started = time.perf_counter()
            mapper.map(circuit)
            best_enabled = min(best_enabled, time.perf_counter() - started)
    finally:
        obs.disable()
        obs.clear_spans()

    overhead_pct = (best_enabled - best_disabled) / best_disabled * 100.0
    print(
        f"\nobs overhead on {BENCH}: {overhead_pct:+.2f}% "
        f"(disabled {best_disabled * 1000:.1f} ms, enabled "
        f"{best_enabled * 1000:.1f} ms)"
    )
    assert overhead_pct < OVERHEAD_CEILING_PCT, (
        f"telemetry-enabled mapper is {overhead_pct:.2f}% slower than the "
        f"disabled path (ceiling {OVERHEAD_CEILING_PCT}%)"
    )
