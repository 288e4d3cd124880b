"""Unified execution engine: backends, staged caching, batch sweeps.

This package is the seam between "what to evaluate" and "how":

* :mod:`repro.engine.spec` — :class:`CircuitSpec`, a hashable, picklable
  description of a circuit the engine builds on demand;
* :mod:`repro.engine.backend` — the :class:`Backend` protocol with
  :class:`LEQABackend` / :class:`QSPRBackend` adapters and a name
  registry (:func:`get_backend`, :func:`register_backend`);
* :mod:`repro.engine.cache` — :class:`ArtifactCache`, a content-hash-
  keyed store for the staged pipeline (circuit build -> FT synthesis ->
  IIG -> presence zones -> coverage series);
* :mod:`repro.engine.runner` — :class:`Job` / :class:`BatchRunner`,
  parallel grid execution with deterministic result ordering.

Typical sweep::

    from repro.engine import BatchRunner, CircuitSpec, Job

    runner = BatchRunner(workers=4)
    jobs = [
        Job(CircuitSpec("gf2^16mult"), backend="leqa",
            params=DEFAULT_PARAMS.with_fabric(size, size))
        for size in (20, 40, 60)
    ]
    for point in runner.run(jobs):          # submission order, always
        print(point.job.params.fabric, point.result.latency_seconds)

The FT netlist and IIG are synthesized once for the whole grid — the
cache stats (``runner.cache.stats()``) prove it.
"""

from .backend import (
    Backend,
    BackendResult,
    LEQABackend,
    QSPRBackend,
    backend_names,
    get_backend,
    register_backend,
)
from .cache import (
    STAGE_NAMES,
    ArtifactCache,
    CacheStats,
    params_fingerprint,
)
from .runner import (
    BatchRunner,
    Job,
    JobResult,
    sweep_fabric_sizes,
    sweep_workload,
)
from .spec import CircuitSpec

__all__ = [
    "Backend",
    "BackendResult",
    "LEQABackend",
    "QSPRBackend",
    "backend_names",
    "get_backend",
    "register_backend",
    "ArtifactCache",
    "CacheStats",
    "STAGE_NAMES",
    "params_fingerprint",
    "BatchRunner",
    "Job",
    "JobResult",
    "sweep_fabric_sizes",
    "sweep_workload",
    "CircuitSpec",
]
