"""Job queue for the estimation service: coalescing, priorities, workers.

The serving layer's unit of work is a **request**: one circuit source
evaluated by one backend under one parameter set.  Requests arrive as
plain JSON-able dicts (the wire format of :mod:`repro.service.daemon`),
are normalized into engine :class:`~repro.engine.runner.Job` objects,
and execute on a persistent in-process worker pool that shares a single
:class:`~repro.engine.cache.ArtifactCache` — optionally backed by a
persistent :class:`~repro.store.ArtifactStore` — so every client of a
long-lived service benefits from every other client's artifacts.

Three queue behaviours matter for serving:

* **Request coalescing** — requests hash to a *spec fingerprint*; a
  submit whose fingerprint matches a queued or running job returns that
  job's id instead of enqueueing a duplicate, so N concurrent identical
  requests trigger exactly one backend computation
  (``tests/test_service.py`` asserts this with a counting backend).
* **Priority + FIFO ordering** — higher ``priority`` runs first;
  equal priorities run in submission order.
* **Failure isolation** — a failing job records its error summary and
  full traceback on the job record (queryable by id) and never takes a
  worker down.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Mapping

from ..engine.cache import ArtifactCache
from ..engine.backend import backend_names
from ..engine.runner import Job, _run_job
from ..engine.spec import CircuitSpec
from ..exceptions import QueueDrainingError, QueueFullError, ServiceError
from ..fabric.params import DEFAULT_PARAMS, FabricSpec, PhysicalParams
from ..obs import default_registry as _obs_registry
from ..workloads import validate_source

__all__ = ["JobRecord", "JobQueue", "normalize_request", "request_fingerprint"]

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed")

#: Parameter fields a request may override (all others stay at the
#: Table-1 defaults).
_PARAM_FIELDS = (
    "width", "height", "channel_capacity", "qubit_speed", "t_move"
)


def normalize_request(spec: Mapping[str, object]) -> dict:
    """Validate and canonicalize one request dict.

    Returns a normalized dict with every field explicit (source,
    backend, ft, share_ancillas, params, options) so two spellings of
    the same request — defaults omitted vs written out — share one
    fingerprint and therefore coalesce.

    Raises
    ------
    ServiceError
        For unknown fields, unknown backends/sources, or malformed
        parameter values.
    """
    if not isinstance(spec, Mapping):
        raise ServiceError(
            f"request spec must be a mapping, got {type(spec).__name__}"
        )
    known = {"source", "backend", "ft", "share_ancillas", "params", "options"}
    unknown = set(spec) - known
    if unknown:
        raise ServiceError(
            f"unknown request field(s) {sorted(unknown)}; "
            f"fields: {', '.join(sorted(known))}"
        )
    source = spec.get("source")
    if not isinstance(source, str) or not source:
        raise ServiceError("request needs a non-empty 'source' string")
    try:
        validate_source(source)
    except Exception as error:
        raise ServiceError(str(error)) from None
    backend = spec.get("backend", "leqa")
    if backend not in backend_names():
        raise ServiceError(
            f"unknown backend {backend!r}; registered: "
            f"{', '.join(backend_names())}"
        )
    raw_params = spec.get("params") or {}
    if not isinstance(raw_params, Mapping):
        raise ServiceError("'params' must be a mapping of overrides")
    bad = set(raw_params) - set(_PARAM_FIELDS)
    if bad:
        raise ServiceError(
            f"unknown params field(s) {sorted(bad)}; "
            f"fields: {', '.join(_PARAM_FIELDS)}"
        )
    defaults = DEFAULT_PARAMS
    try:
        params = {
            "width": int(raw_params.get("width", defaults.fabric.width)),
            "height": int(raw_params.get("height", defaults.fabric.height)),
            "channel_capacity": int(
                raw_params.get("channel_capacity", defaults.channel_capacity)
            ),
            "qubit_speed": float(
                raw_params.get("qubit_speed", defaults.qubit_speed)
            ),
            "t_move": float(raw_params.get("t_move", defaults.t_move)),
        }
    except (TypeError, ValueError) as error:
        raise ServiceError(f"malformed 'params' value: {error}") from None
    options = spec.get("options") or {}
    if not isinstance(options, Mapping):
        raise ServiceError("'options' must be a mapping")
    return {
        "source": source,
        "backend": backend,
        "ft": bool(spec.get("ft", True)),
        "share_ancillas": bool(spec.get("share_ancillas", False)),
        "params": params,
        "options": {str(k): options[k] for k in sorted(options)},
    }


def request_fingerprint(normalized: Mapping[str, object]) -> str:
    """Content hash of a normalized request (the coalescing identity).

    Composed from the circuit half — the engine-level
    :meth:`~repro.engine.spec.CircuitSpec.fingerprint` of the spec the
    request resolves to — plus the backend name and the canonical
    parameter/option items, so two spellings that normalize identically
    always coalesce.
    """
    spec = CircuitSpec(
        normalized["source"],
        ft=normalized["ft"],
        share_ancillas=normalized["share_ancillas"],
    )
    canonical = repr(
        (
            spec.fingerprint(),
            normalized["backend"],
            tuple(sorted(normalized["params"].items())),
            tuple(sorted(normalized["options"].items())),
        )
    )
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=16
    ).hexdigest()


def _engine_job(normalized: Mapping[str, object], tag: str) -> Job:
    params = normalized["params"]
    return Job(
        spec=CircuitSpec(
            normalized["source"],
            ft=normalized["ft"],
            share_ancillas=normalized["share_ancillas"],
        ),
        backend=normalized["backend"],
        params=PhysicalParams(
            fabric=FabricSpec(params["width"], params["height"]),
            channel_capacity=params["channel_capacity"],
            qubit_speed=params["qubit_speed"],
            t_move=params["t_move"],
        ),
        options=dict(normalized["options"]),
        tag=tag,
    )


@dataclass
class JobRecord:
    """One tracked job: lifecycle state, outcome, coalescing count."""

    id: str
    spec: dict
    fingerprint: str
    priority: int
    state: str = "queued"
    submits: int = 1
    result: dict | None = None
    error: str | None = None
    traceback: str | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None

    def snapshot(self) -> dict:
        """JSON-able view of the record (the ``status`` wire payload)."""
        return {
            "id": self.id,
            "state": self.state,
            "spec": self.spec,
            "fingerprint": self.fingerprint,
            "priority": self.priority,
            "submits": self.submits,
            "result": self.result,
            "error": self.error,
            "traceback": self.traceback,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


def _result_payload(outcome) -> dict:
    """Flatten a BackendResult into the JSON wire record."""
    return {
        "backend": outcome.backend,
        "latency": outcome.latency,
        "latency_seconds": outcome.latency_seconds,
        "elapsed_seconds": outcome.elapsed_seconds,
        "qubit_count": outcome.qubit_count,
        "op_count": outcome.op_count,
    }


class JobQueue:
    """Priority queue plus persistent worker pool over the engine.

    Parameters
    ----------
    workers:
        Worker thread count (>= 1).
    cache:
        Shared :class:`ArtifactCache`; a fresh one (optionally
        store-backed) is created when omitted.
    store:
        Optional persistent store to back the private cache with.
        Mutually exclusive with ``cache``.
    max_entries:
        LRU cap for the private cache's memory tier (ignored when a
        ``cache`` is passed) — the knob that keeps a long-lived daemon's
        footprint bounded.
    max_records:
        Cap on retained job records.  When exceeded, the oldest
        *terminal* (done/failed) records are pruned — queued and
        running jobs are never dropped — so a daemon serving traffic
        for days does not accumulate specs and tracebacks without
        bound.  ``None`` disables pruning.
    max_depth:
        Admission cap on *queued* (not yet running) jobs.  A submit
        that would push the backlog past the cap is rejected with
        :class:`~repro.exceptions.QueueFullError` carrying a
        ``retry_after`` hint; coalescing onto an existing job is always
        admitted (it adds no work).  ``None`` (the default) keeps the
        historical unbounded behaviour.
    """

    def __init__(
        self,
        workers: int = 2,
        cache: ArtifactCache | None = None,
        store: "object | None" = None,
        max_entries: int | None = None,
        max_records: int | None = 10_000,
        max_depth: int | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if max_records is not None and max_records < 1:
            raise ServiceError(
                f"max_records must be >= 1, got {max_records}"
            )
        if max_depth is not None and max_depth < 1:
            raise ServiceError(
                f"max_depth must be >= 1, got {max_depth}"
            )
        if cache is not None and store is not None:
            raise ServiceError(
                "pass either cache or store, not both (attach the store "
                "via ArtifactCache(store=...) when you bring a cache)"
            )
        self._cache = (
            cache
            if cache is not None
            else ArtifactCache(max_entries=max_entries, store=store)
        )
        self._worker_count = workers
        self._max_records = max_records
        self._max_depth = max_depth
        self._cond = threading.Condition()
        self._heap: list[tuple[int, int, str]] = []
        self._jobs: dict[str, JobRecord] = {}
        self._inflight: dict[str, str] = {}  # fingerprint -> job id
        self._seq = 0
        self._coalesced = 0
        self._queued = 0  # live queued count (the heap can hold stale entries)
        self._running = 0
        self._stopping = False
        self._draining = False
        self._rejected = {"full": 0, "draining": 0}
        # Observed service rate, feeding the retry_after estimate.
        self._finished_jobs = 0
        self._finished_seconds = 0.0
        self._threads: list[threading.Thread] = []

    # -- lifecycle ----------------------------------------------------------

    @property
    def cache(self) -> ArtifactCache:
        """The artifact cache every worker shares."""
        return self._cache

    def start(self) -> None:
        """Spin up the worker pool (idempotent)."""
        with self._cond:
            if self._threads:
                return
            self._stopping = False
            for index in range(self._worker_count):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"leqa-worker-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        """Drain-free shutdown: running jobs finish, queued jobs stay queued."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads.clear()

    @property
    def draining(self) -> bool:
        """Whether :meth:`begin_drain` has been called."""
        with self._cond:
            return self._draining

    def begin_drain(self) -> None:
        """Stop admitting work; queued and running jobs keep going.

        Every submit after this point raises
        :class:`~repro.exceptions.QueueDrainingError`.  Idempotent.
        """
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: finish all admitted work, then stop workers.

        Calls :meth:`begin_drain`, waits until no job is queued or
        running, then :meth:`stop`\\ s the pool.  Returns ``True`` when
        the backlog fully drained; ``False`` when ``timeout`` elapsed
        first or no worker pool is running to drain a non-empty backlog
        (the workers are left to finish in the ``True``-path only).
        """
        self.begin_drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._queued or self._running:
                if not self._threads:
                    # Nothing will ever service the backlog: report the
                    # failure instead of waiting forever.
                    return False
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
        self.stop()
        return True

    def __enter__(self) -> "JobQueue":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    # -- submission and queries ---------------------------------------------

    def submit(self, spec: Mapping[str, object], priority: int = 0) -> str:
        """Enqueue one request; returns its job id.

        An identical in-flight request (same spec fingerprint, state
        queued or running) is coalesced: the existing job's id comes
        back and its ``submits`` count grows — no second computation.
        A coalesced submit carrying a *higher* priority escalates the
        queued job, so "the same request, but urgent" still jumps the
        queue.

        Raises
        ------
        QueueDrainingError
            After :meth:`begin_drain`: the daemon is going down and
            accepts no new work (not even coalesced duplicates — their
            result may not be readable before the process exits).
        QueueFullError
            When ``max_depth`` queued jobs are already waiting; carries
            a ``retry_after`` back-off estimated from the observed
            service rate.
        """
        normalized = normalize_request(spec)
        fingerprint = request_fingerprint(normalized)
        with self._cond:
            if self._draining:
                self._rejected["draining"] += 1
                _obs_registry().inc("service.rejected", reason="draining")
                raise QueueDrainingError(
                    "daemon is draining and no longer accepts submissions"
                )
            existing = self._inflight.get(fingerprint)
            if existing is not None:
                record = self._jobs[existing]
                record.submits += 1
                self._coalesced += 1
                _obs_registry().inc("service.coalesced")
                if int(priority) > record.priority and record.state == "queued":
                    # Escalate: push a higher-priority heap entry; the
                    # stale one is skipped at pop time (state check).
                    record.priority = int(priority)
                    self._seq += 1
                    heapq.heappush(
                        self._heap,
                        (-int(priority), self._seq, existing),
                    )
                    self._cond.notify()
                return existing
            if (
                self._max_depth is not None
                and self._queued >= self._max_depth
            ):
                retry_after = self._retry_after_locked()
                self._rejected["full"] += 1
                _obs_registry().inc("service.rejected", reason="full")
                raise QueueFullError(
                    f"queue is full ({self._queued} jobs queued, "
                    f"max_depth={self._max_depth}); retry in "
                    f"~{retry_after:.1f}s",
                    retry_after=retry_after,
                )
            self._seq += 1
            job_id = f"job-{self._seq:06d}"
            record = JobRecord(
                id=job_id,
                spec=normalized,
                fingerprint=fingerprint,
                priority=int(priority),
            )
            self._jobs[job_id] = record
            self._inflight[fingerprint] = job_id
            heapq.heappush(self._heap, (-int(priority), self._seq, job_id))
            self._queued += 1
            _obs_registry().inc("service.submitted")
            _obs_registry().set_gauge("service.queue_depth", self._queued)
            self._cond.notify()
        return job_id

    def _retry_after_locked(self) -> float:
        """Back-off hint for a rejected submit (must run under the lock).

        Time to clear the backlog at the observed per-job service rate
        (1s per job before any job has finished), floored at 0.1s.
        """
        if self._finished_jobs:
            per_job = self._finished_seconds / self._finished_jobs
        else:
            per_job = 1.0
        backlog = self._queued + self._running
        return max(0.1, per_job * backlog / self._worker_count)

    def status(self, job_id: str) -> dict:
        """Snapshot of one job's record.

        Raises
        ------
        ServiceError
            For unknown job ids.
        """
        with self._cond:
            record = self._jobs.get(job_id)
            if record is None:
                raise ServiceError(f"unknown job id {job_id!r}")
            return record.snapshot()

    def result(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until the job reaches a terminal state; return its snapshot.

        Raises
        ------
        ServiceError
            For unknown job ids, or when ``timeout`` elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            record = self._jobs.get(job_id)
            if record is None:
                raise ServiceError(f"unknown job id {job_id!r}")
            while record.state not in ("done", "failed"):
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise ServiceError(
                        f"job {job_id} still {record.state} after "
                        f"{timeout:.1f}s"
                    )
                self._cond.wait(timeout=remaining)
            return record.snapshot()

    def jobs(self) -> list[dict]:
        """Compact summaries of every tracked job, oldest first."""
        with self._cond:
            return [
                {
                    "id": record.id,
                    "state": record.state,
                    "source": record.spec["source"],
                    "backend": record.spec["backend"],
                    "priority": record.priority,
                    "submits": record.submits,
                }
                for record in self._jobs.values()
            ]

    def stats(self) -> dict:
        """Queue/cache/store counters (the ``stats`` wire payload)."""
        with self._cond:
            by_state = dict.fromkeys(JOB_STATES, 0)
            for record in self._jobs.values():
                by_state[record.state] += 1
            payload: dict[str, object] = {
                "jobs": by_state,
                "coalesced": self._coalesced,
                "workers": self._worker_count,
                "queue_depth": self._queued,
                "running": self._running,
                "draining": self._draining,
                "max_depth": self._max_depth,
                "rejected": dict(self._rejected),
            }
        payload["cache"] = self._cache.stats().as_dict()
        store = self._cache.store
        if store is not None:
            payload["store"] = {
                "root": str(store.root),
                **store.stats().as_dict(),
            }
        return payload

    # -- worker loop --------------------------------------------------------

    def _next_job(self) -> JobRecord | None:
        with self._cond:
            while True:
                while not self._heap and not self._stopping:
                    self._cond.wait()
                if self._stopping:
                    return None
                _, _, job_id = heapq.heappop(self._heap)
                record = self._jobs.get(job_id)
                if record is None or record.state != "queued":
                    # Stale entry: the job was escalated to a higher
                    # priority (leaving this duplicate behind) or
                    # already claimed — keep draining.
                    continue
                record.state = "running"
                record.started_at = time.time()
                self._queued -= 1
                self._running += 1
                _obs_registry().set_gauge(
                    "service.queue_depth", self._queued
                )
                _obs_registry().set_gauge("service.running", self._running)
                return record

    def _worker_loop(self) -> None:
        while True:
            record = self._next_job()
            if record is None:
                return
            try:
                # Inside the guard: parameter construction itself can
                # raise (e.g. a non-positive qubit_speed), and that must
                # fail the job, not kill the worker.
                engine_job = _engine_job(record.spec, tag=record.id)
                outcome = _run_job(engine_job, self._cache)
                payload = _result_payload(outcome)
                error = traceback = None
                state = "done"
            except Exception as failure:  # noqa: BLE001 — job isolation
                payload = None
                error = str(failure) or repr(failure)
                traceback = traceback_module.format_exc()
                state = "failed"
            with self._cond:
                record.result = payload
                record.error = error
                record.traceback = traceback
                record.state = state
                record.finished_at = time.time()
                self._running -= 1
                end_to_end = record.finished_at - record.submitted_at
                self._finished_jobs += 1
                self._finished_seconds += end_to_end
                _obs_registry().set_gauge("service.running", self._running)
                _obs_registry().inc("service.completed", state=state)
                _obs_registry().observe(
                    "service.job.seconds", end_to_end, state=state
                )
                # Terminal: stop coalescing onto this job — a later
                # identical submit recomputes (or hits the warm cache).
                if self._inflight.get(record.fingerprint) == record.id:
                    del self._inflight[record.fingerprint]
                self._prune_terminal_records()
                self._cond.notify_all()

    def _prune_terminal_records(self) -> None:
        """Drop the oldest done/failed records past ``max_records``.

        Must run under ``self._cond``.  Insertion order is submission
        order, so the first terminal records found are the oldest; live
        (queued/running) jobs are never pruned.
        """
        if self._max_records is None:
            return
        excess = len(self._jobs) - self._max_records
        if excess <= 0:
            return
        # Runs under the lock on every finished job: stop after the
        # first ``excess`` terminal records (usually one).
        terminal = (
            job_id
            for job_id, record in self._jobs.items()
            if record.state in ("done", "failed")
        )
        for job_id in list(itertools.islice(terminal, excess)):
            del self._jobs[job_id]
