"""``repro.obs``: the unified telemetry layer (metrics + trace spans).

Every layer of the estimator writes to one process-local
:class:`~repro.obs.metrics.MetricsRegistry` — pipeline stage latencies,
mapper stage latencies, cache/store hit counters, queue depth and
rejection counts — and emits :class:`~repro.obs.tracing.Span` records
when tracing is enabled.  The daemon's ``stats``/``trace`` verbs and
the ``leqa stats``/``leqa trace`` CLI read it all back.

Metric catalog (labels in braces):

=============================== ========= ==============================
name                            kind      emitted by
=============================== ========= ==============================
``cache.hit{stage}``            counter   :class:`~repro.engine.cache.ArtifactCache`
``cache.miss{stage}``           counter   ″
``cache.store_hit{stage}``      counter   ″
``cache.eviction{stage}``       counter   ″
``store.hit`` / ``store.miss``  counter   :class:`~repro.store.ArtifactStore`
``store.write`` /``store.evicted`` counter ″
``store.bytes_read`` / ``_written`` counter ″
``service.submitted``           counter   :class:`~repro.service.jobs.JobQueue`
``service.coalesced``           counter   ″
``service.rejected{reason}``    counter   ″ (reason: full | draining)
``service.completed{state}``    counter   ″ (state: done | failed)
``service.queue_depth``         gauge     ″
``service.running``             gauge     ″
``service.job.seconds{state}``  histogram ″ (submit → terminal wall)
``pipeline.stage.seconds{stage}`` histogram :class:`~repro.core.pipeline.StagedPipeline`
``mapper.stage.seconds{stage,engine}`` histogram :class:`~repro.qspr.mapper.QSPRMapper`
``stream.stage.seconds{stage}`` histogram :mod:`repro.circuits.stream`
``stream.rows{stage}``          counter   ″
``kernel.fallbacks{entry}``     counter   :mod:`repro.qspr.scheduling` (schedule); :func:`repro.qspr._kernel.select` for :mod:`repro.qodg.sweep` (critical), :mod:`repro.circuits.table` (peephole), :mod:`repro.qodg.iig` (iig), :mod:`repro.qspr.placement` (placement)
=============================== ========= ==============================

Environment: ``REPRO_OBS=1`` enables span recording, ``REPRO_OBS_EXPORT``
points the JSON-line exporter at a file, ``REPRO_OBS_RSS=1`` samples
resident memory per span.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    HistogramSnapshot,
    MetricsRegistry,
    default_registry,
)
from .tracing import (
    DEFAULT_RING_SPANS,
    ENABLE_ENV,
    EXPORT_ENV,
    RSS_ENV,
    Span,
    clear_spans,
    disable,
    enable,
    enabled,
    recent_spans,
    record_span,
    set_export_path,
    span,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_RING_SPANS",
    "ENABLE_ENV",
    "EXPORT_ENV",
    "RSS_ENV",
    "HistogramSnapshot",
    "MetricsRegistry",
    "Span",
    "clear_spans",
    "default_registry",
    "disable",
    "enable",
    "enabled",
    "recent_spans",
    "record_span",
    "set_export_path",
    "span",
]
