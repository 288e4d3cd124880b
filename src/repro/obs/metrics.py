"""Process-local metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` holds every metric the process emits.  The
design is deliberately Prometheus-shaped but zero-dependency:

* **Counters** and **gauges** are plain floats keyed by metric name plus
  a sorted label tuple, guarded by one registry lock.
* **Histograms** are fixed-bucket: each observation lands in a bucket by
  binary search over a static bound list, so recording is O(log B) with
  B ≈ 25 and never allocates.  Percentiles (p50/p90/p99) are estimated
  from the cumulative bucket counts with linear interpolation inside the
  straddling bucket — the standard trade: bounded memory for every
  latency distribution in exchange for percentile error capped by the
  bucket ratio (≤ 2.5x here).

All layers share the module-level :func:`default_registry`, so cache
hits counted in :mod:`repro.engine.cache` and queue rejections counted
in :mod:`repro.service.jobs` land in the same snapshot the daemon's
``stats`` verb serializes.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "HistogramSnapshot",
    "MetricsRegistry",
    "default_registry",
]


def _latency_bounds() -> tuple[float, ...]:
    """1 µs .. 100 s in 1/2.5/5 decade steps (25 finite bounds).

    Wide enough that a microsecond-scale cache hit and a minute-scale
    million-gate sweep land in interior buckets of the *same* histogram;
    the implicit +inf bucket catches the rest.
    """
    bounds: list[float] = []
    for exponent in range(-6, 3):
        for mantissa in (1.0, 2.5, 5.0):
            value = mantissa * 10.0**exponent
            if value <= 100.0:
                bounds.append(value)
    return tuple(bounds)


#: Default bucket upper bounds (seconds) for every latency histogram.
DEFAULT_LATENCY_BUCKETS = _latency_bounds()

#: Canonical key for a label set: sorted ``(key, value)`` string pairs.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def label_string(key: LabelKey) -> str:
    """Render a label key as ``"a=1,b=2"`` (empty string for no labels)."""
    return ",".join(f"{k}={v}" for k, v in key)


class _Histogram:
    """Mutable bucket counts behind one labelled histogram series."""

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        # One slot per finite bound plus the +inf overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable view of one histogram series with percentile math.

    ``counts`` has one entry per finite bound plus a final overflow
    count for observations above the last bound.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    count: int
    sum: float

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) from buckets.

        Linear interpolation inside the bucket containing the rank;
        observations in the overflow bucket are reported as the largest
        finite bound (the histogram cannot see past it).  An empty
        histogram reports 0.0.
        """
        if self.count == 0:
            return 0.0
        q = min(max(q, 0.0), 1.0)
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for bound, bucket_count in zip(self.bounds, self.counts):
            if bucket_count:
                if cumulative + bucket_count >= rank:
                    fraction = (rank - cumulative) / bucket_count
                    return lower + (bound - lower) * fraction
                cumulative += bucket_count
            lower = bound
        return self.bounds[-1] if self.bounds else 0.0

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p90(self) -> float:
        return self.percentile(0.90)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def as_dict(self) -> dict:
        """JSON-ready form: summary stats plus the non-empty buckets."""
        buckets: list[list[object]] = []
        for bound, bucket_count in zip(self.bounds, self.counts):
            if bucket_count:
                buckets.append([bound, bucket_count])
        if self.counts and self.counts[-1]:
            buckets.append(["inf", self.counts[-1]])
        return {
            "count": self.count,
            "sum": self.sum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Thread-safe container for every counter/gauge/histogram series.

    Metric identity is ``(name, labels)``; labels are free-form keyword
    string pairs.  All mutation happens under one lock — contention is
    negligible because every operation is a dict lookup plus a float
    add, far below the work any instrumented call site performs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, dict[LabelKey, float]] = {}
        self._gauges: dict[str, dict[LabelKey, float]] = {}
        self._histograms: dict[str, dict[LabelKey, _Histogram]] = {}
        self._histogram_bounds: dict[str, tuple[float, ...]] = {}

    # -- writers ------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` to the counter ``name{labels}``."""
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge ``name{labels}`` to ``value``."""
        with self._lock:
            self._gauges.setdefault(name, {})[_label_key(labels)] = float(
                value
            )

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] | None = None,
        **labels: object,
    ) -> None:
        """Record one observation in the histogram ``name{labels}``.

        The first observation of a name fixes its bucket bounds
        (``DEFAULT_LATENCY_BUCKETS`` unless ``buckets`` is given);
        later ``buckets`` arguments for the same name are ignored so
        every labelled series of a metric stays comparable.
        """
        key = _label_key(labels)
        with self._lock:
            bounds = self._histogram_bounds.get(name)
            if bounds is None:
                bounds = (
                    tuple(buckets)
                    if buckets is not None
                    else DEFAULT_LATENCY_BUCKETS
                )
                self._histogram_bounds[name] = bounds
            series = self._histograms.setdefault(name, {})
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = _Histogram(bounds)
            histogram.observe(value)

    # -- readers ------------------------------------------------------------

    def counter(self, name: str, **labels: object) -> float:
        """Current value of one counter series (0.0 when never touched)."""
        with self._lock:
            return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    def gauge(self, name: str, **labels: object) -> float:
        """Current value of one gauge series (0.0 when never set)."""
        with self._lock:
            return self._gauges.get(name, {}).get(_label_key(labels), 0.0)

    def histogram(
        self, name: str, **labels: object
    ) -> HistogramSnapshot | None:
        """Snapshot of one histogram series, or None when never observed."""
        with self._lock:
            histogram = self._histograms.get(name, {}).get(
                _label_key(labels)
            )
            if histogram is None:
                return None
            return HistogramSnapshot(
                bounds=histogram.bounds,
                counts=tuple(histogram.counts),
                count=histogram.total,
                sum=histogram.sum,
            )

    def snapshot(self) -> dict:
        """JSON-ready dump of every series, labels rendered as strings.

        Shape::

            {"counters":   {name: {"stage=ft": 3.0, ...}},
             "gauges":     {name: {...}},
             "histograms": {name: {"stage=zones": {count, sum, p50,
                                                   p90, p99, buckets}}}}
        """
        with self._lock:
            counters = {
                name: {label_string(k): v for k, v in series.items()}
                for name, series in self._counters.items()
            }
            gauges = {
                name: {label_string(k): v for k, v in series.items()}
                for name, series in self._gauges.items()
            }
            frozen = {
                name: {
                    k: HistogramSnapshot(
                        bounds=h.bounds,
                        counts=tuple(h.counts),
                        count=h.total,
                        sum=h.sum,
                    )
                    for k, h in series.items()
                }
                for name, series in self._histograms.items()
            }
        histograms = {
            name: {
                label_string(k): snap.as_dict() for k, snap in series.items()
            }
            for name, series in frozen.items()
        }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def clear(self) -> None:
        """Drop every series (test isolation helper)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._histogram_bounds.clear()


#: The process-wide registry every instrumented layer writes to.  It is
#: a stable singleton — call-sites may bind it at import time; tests
#: isolate themselves with snapshot deltas or ``clear()``.
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The shared process-wide registry."""
    return _DEFAULT
