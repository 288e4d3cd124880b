"""Experiment C2 — section 4.2 claim: family runtime growth ratios.

The paper compares the last two Table-3 rows: gf2^256mult has ~4x the
operations of gf2^128mult, and "runtime of LEQA is increased by a factor
of 3 while the runtime of QSPR is increased by a factor of 4.5" —
sub-linear growth for LEQA against super-linear for the mapper.

Default mode uses the hwb pair hwb40 -> hwb90 (ops ratio ~3x, qubit
count ~3.3x) as the proxy: like the paper's pair, the larger circuit also
crowds the fabric harder, which is what makes the mapper's ratio outgrow
LEQA's.  The gf2 pair one octave down (32 -> 64) is also printed for
reference — at that scale the fabric stays empty and both tools grow at
the ops ratio, a negative control documented in EXPERIMENTS.md.  Under
``REPRO_FULL=1`` the bench runs the paper's exact pair
(gf2^128mult -> gf2^256mult).

Asserted shape: on the crowding pair, the mapper's runtime ratio exceeds
LEQA's.  Each of the pair's four (circuit, tool) cells is the median of
``REPEATS`` interleaved rounds: one wall-time sample per cell cannot
resolve ratios that differ by well under 2x on a shared host.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.analysis.report import format_table
from repro.circuits.circuit import Circuit
from repro.circuits.decompose import synthesize_ft
from repro.circuits.generators import gf2_multiplier, hwb
from repro.core.estimator import LEQAEstimator
from repro.qspr.mapper import QSPRMapper

from _common import calibrated_params

#: Interleaved timing rounds per cell of the asserted pair.
REPEATS = 3


def _measure(circuit: Circuit, estimator, mapper):
    started = time.perf_counter()
    mapper.map(circuit)
    mapper_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    estimator.estimate(circuit)
    leqa_elapsed = time.perf_counter() - started
    return mapper_elapsed, leqa_elapsed


def _median_cells(circuits, estimator, mapper, repeats):
    """``(name, ops, mapper s, LEQA s)`` per circuit, each time the median
    over ``repeats`` rounds; every round times every circuit, so drift in
    the host's load reaches all cells alike."""
    samples = {name: [] for name, _ in circuits}
    for _ in range(repeats):
        for name, circuit in circuits:
            samples[name].append(_measure(circuit, estimator, mapper))
    return [
        (
            name,
            len(circuit),
            statistics.median(mapper_s for mapper_s, _ in samples[name]),
            statistics.median(leqa_s for _, leqa_s in samples[name]),
        )
        for name, circuit in circuits
    ]


def test_family_runtime_ratio(benchmark):
    params = calibrated_params()
    estimator = LEQAEstimator(params=params)
    mapper = QSPRMapper(params=params)
    if os.environ.get("REPRO_FULL") == "1":
        pair = [
            ("gf2^128mult", synthesize_ft(gf2_multiplier(128))),
            ("gf2^256mult", synthesize_ft(gf2_multiplier(256))),
        ]
        control = []
    else:
        pair = [
            ("hwb40", synthesize_ft(hwb(40))),
            ("hwb90", synthesize_ft(hwb(90))),
        ]
        control = [
            ("gf2^32mult", synthesize_ft(gf2_multiplier(32))),
            ("gf2^64mult", synthesize_ft(gf2_multiplier(64))),
        ]
    # The control is printed only, so one round of it suffices.
    measured = _median_cells(pair, estimator, mapper, REPEATS)
    measured += _median_cells(control, estimator, mapper, 1)
    rows = [
        [name, ops, f"{mapper_elapsed:.3f}", f"{leqa_elapsed:.3f}"]
        for name, ops, mapper_elapsed, leqa_elapsed in measured
    ]
    print()
    print(
        format_table(
            ["Circuit", "Ops", "Mapper (s)", "LEQA (s)"],
            rows,
            title="C2 - family growth ratios",
        )
    )
    small, large = measured[0], measured[1]
    ops_ratio = large[1] / small[1]
    mapper_ratio = large[2] / small[2]
    leqa_ratio = large[3] / small[3]
    print(
        f"\n{small[0]} -> {large[0]}: ops {ops_ratio:.2f}x -> "
        f"mapper runtime {mapper_ratio:.2f}x, LEQA runtime {leqa_ratio:.2f}x"
        " (paper at gf2 128->256: ops 4.0x -> QSPR 4.5x, LEQA 3.0x)"
    )
    if control:
        c_small, c_large = measured[2], measured[3]
        print(
            f"{c_small[0]} -> {c_large[0]} (negative control, empty fabric):"
            f" ops {c_large[1] / c_small[1]:.2f}x -> mapper "
            f"{c_large[2] / c_small[2]:.2f}x, LEQA "
            f"{c_large[3] / c_small[3]:.2f}x"
        )
    # Shape: on the crowding pair the mapper grows faster than LEQA.
    assert mapper_ratio > leqa_ratio

    benchmark.pedantic(
        estimator.estimate, args=(pair[0][1],), rounds=3, iterations=1
    )
