"""Summary statistics of the benchmark: normalization and percentiles.

Pure functions over lists of floats, shared by the measuring child, the
orchestrating parent and the steadiness mode; ``tests/`` pins them.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "MIN_BEYOND",
    "MIN_REQUESTS",
    "normalize",
    "samples_beyond",
    "percentile",
    "spread",
    "failed_frac",
    "summarize",
]

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Requests a run measures at least: a p90 needs MIN_BEYOND beyond it.
MIN_REQUESTS = 10 * MIN_BEYOND


def normalize(raw: float, probe_ms: float, ref_ms: float) -> float:
    """``raw`` re-expressed on a host whose probe takes ``ref_ms``.

    A host running slower than the reference inflates both the request
    and the probe taken next to it, so ``raw * ref / probe`` divides the
    host's current speed out.
    """
    if probe_ms <= 0:
        raise ValueError(f"probe time must be positive, got {probe_ms}")
    return raw * ref_ms / probe_ms


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie above the ``q`` percentile.

    Nearest rank: the percentile is sample ``ceil(q/100 * count)`` (1-based).
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return count - math.ceil(q / 100 * count)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` percentile, refused without enough samples beyond.

    The median is exempt (it has half the samples beyond it); any other
    percentile needs :data:`MIN_BEYOND` samples above it, so a p90 needs
    at least 100 samples.

    Raises
    ------
    ValueError
        On an empty list, or when fewer than :data:`MIN_BEYOND` samples
        lie beyond a non-median percentile.
    """
    if not values:
        raise ValueError("no samples")
    if q == 50:
        return statistics.median(values)
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it; "
            f"{MIN_BEYOND} are needed"
        )
    ordered = sorted(values)
    return ordered[len(values) - beyond - 1]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (``statistics`` quartiles)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def failed_frac(attempted: int, failed: int) -> float:
    """Failed or wrong requests over attempted requests."""
    if attempted < 1:
        raise ValueError("no request was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def _tail(values: list[float], prefix: str) -> dict[str, float]:
    """``prefix``p50 and, with enough samples beyond it, p90."""
    tail = {prefix + "p50_ms": percentile(values, 50)}
    if samples_beyond(len(values), 90) >= MIN_BEYOND:
        tail[prefix + "p90_ms"] = percentile(values, 90)
    return tail


def summarize(rows: list[dict]) -> dict[str, float]:
    """End-to-end numbers of successful requests, normalized and raw.

    Each row is one request: ``ms`` (normalized), ``raw_ms``, ``gates``,
    ``probe`` and, for serve_mix, the normalized ``new`` and ``repeat``
    halves in ``halves``.
    """
    if not rows:
        return {"requests": 0}
    norm_ms = [row["ms"] for row in rows]
    raw_ms = [row["raw_ms"] for row in rows]
    norm_s = sum(norm_ms) / 1e3
    raw_s = sum(raw_ms) / 1e3
    gates = sum(row["gates"] for row in rows)
    summary = {
        "requests": len(rows),
        "req_per_s": len(rows) / norm_s,
        "gates_per_s": gates / norm_s,
        **_tail(norm_ms, ""),
        "raw.req_per_s": len(rows) / raw_s,
        "raw.gates_per_s": gates / raw_s,
        **_tail(raw_ms, "raw."),
        "host.probe_ms": statistics.median(row["probe"] for row in rows),
        "samples_beyond_p90": samples_beyond(len(rows), 90),
    }
    for half in rows[0].get("halves", {}):
        summary.update(_tail([row["halves"][half] for row in rows], half + "_"))
    return summary
