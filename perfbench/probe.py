"""The frozen host-speed probe.

A fixed pure-Python loop — dict updates, tuple appends and one sort —
timed with :func:`time.thread_time`, so background threads of the
program under test cannot inflate it.  Its duration tracks the host's
current speed for the interpreter-bound work every reference path does;
dividing a request's time by the probe time taken next to it removes
the host's fast/slow phases (see ``spec.json``, ``normalization``).

FROZEN: the constants and the loop body must never change.  Every
normalized number ever recorded is relative to this exact loop.
"""

from __future__ import annotations

import time

__all__ = ["PROBE_ITERATIONS", "probe_body", "probe_ms"]

#: Loop length, fixed so the probe takes about 3 ms on a reference host.
PROBE_ITERATIONS = 5000


def probe_body() -> int:
    """The probe's work; returns a checksum so nothing is optimized away."""
    table: dict[int, int] = {}
    rows: list[tuple[int, int]] = []
    for index in range(PROBE_ITERATIONS):
        key = (index * 7919) % 1021
        table[key] = table.get(key, 0) + index
        rows.append((key, index & 255))
    rows.sort()
    return len(table) + rows[-1][0]


def probe_ms() -> float:
    """One probe run, in milliseconds of this thread's CPU time."""
    started = time.thread_time()
    probe_body()
    return (time.thread_time() - started) * 1e3
