"""The reference paths the benchmark drives, one class per workload.

Every path answers the same five questions for the measuring loop in
``measure.py``:

* ``setup()`` — build inputs from the seed, load what the path needs and
  warm it up (all of it counted in ``setup_s``);
* ``inputs(index)`` — the seeded input of timed request ``index``;
* ``request(item, traced)`` — one timed request, returning an
  :class:`Outcome`;
* ``check(item, outcome)`` — after timing: does the output equal the
  reference (golden float hex, the array engine, or an in-process
  pipeline run)?
* ``hooks()`` — the public functions the traced run wraps, with the
  layer each is charged to.

Calls into the program go through module attributes (``library.build_ft``,
``stream.estimate_stream``) so the traced run's wrappers are seen.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import random
import shutil
import tempfile
import threading
import time
import warnings
from collections import deque
from pathlib import Path
from typing import Any

from repro.circuits import library
from repro.circuits import stream
from repro.circuits.circuit import Circuit
from repro.cli import build_arg_parser
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import StagedPipeline, ZoneArrays
from repro.engine.backend import LEQABackend
from repro.engine.cache import ArtifactCache
from repro.fabric.params import DEFAULT_PARAMS, PhysicalParams
from repro.qspr import _kernel
from repro.qspr import mapper as mapper_module
from repro.qspr.mapper import QSPRMapper
from repro.service import EstimationServer, JobQueue, ServiceClient
from repro.store import ArtifactStore

from .tracer import Hook, LayerTotals

__all__ = ["SPEC", "PATHS", "Outcome", "make_path"]

#: Benchmark constants, goldens and documentation (one source of truth).
SPEC: dict[str, Any] = json.loads(
    (Path(__file__).with_name("spec.json")).read_text(encoding="utf-8")
)

CIRCUIT = SPEC["inputs"]["circuit"]

#: The options ``leqa serve`` runs with when given none.
SERVE_DEFAULTS = build_arg_parser().parse_args(["serve"])

#: The job-record cap every ``leqa serve`` daemon gets (JobQueue's default).
MAX_RECORDS = inspect.signature(JobQueue).parameters["max_records"].default


@dataclasses.dataclass
class Outcome:
    """What one request produced: its answer and the gates it covered."""

    latency: float
    gates: int
    detail: Any = None


def _grid_params(index: int) -> PhysicalParams:
    point = SPEC["inputs"]["param_grid"][index]
    return dataclasses.replace(
        DEFAULT_PARAMS, qubit_speed=point["qubit_speed"], t_move=point["t_move"]
    )


def _len_arg(position: int):
    return lambda args, _result: len(args[position])


def _len_result(_args, result) -> int:
    return len(result)


def _model_hooks() -> list[Hook]:
    """The LEQA model stages as :class:`StagedPipeline` calls them.

    Zones, the Hamiltonian-path term and the coverage series are charged
    to ``core.model``; what ``StagedPipeline.run`` does besides calling
    wrapped functions is its residual self time, ``core.pipeline``.
    """
    return [
        Hook(StagedPipeline, "run", "core.pipeline"),
        Hook(ZoneArrays, "from_iig", "core.model"),
        Hook(pipeline_module, "expected_hamiltonian_paths", "core.model"),
        Hook(pipeline_module, "expected_coverage_surfaces", "core.model"),
        Hook(pipeline_module, "build_iig", "qodg.iig", _len_arg(0)),
        Hook(
            pipeline_module, "sweep_critical_path", "qodg.critical",
            _len_arg(0),
        ),
    ]


#: Content fingerprints of materialized circuits (stage keys, cache keys).
FINGERPRINT_HOOK = Hook(Circuit, "content_fingerprint", "circuits.fingerprint")


class _GridPath:
    """Shared shape of the two materialized paths over the parameter grid."""

    name = ""
    warmup = 5

    def __init__(self, seed: int, workdir: Path) -> None:
        self._rng = random.Random(f"{self.name}:{seed}")
        self._grid = len(SPEC["inputs"]["param_grid"])

    def setup(self) -> None:
        for index in range(self.warmup):
            self.request(index % self._grid, traced=False)

    def inputs(self, index: int) -> int:
        return self._rng.randrange(self._grid)

    def close(self) -> None:
        pass


class LeqaCold(_GridPath):
    """``build_ft`` then a cache-less ``StagedPipeline.run``."""

    name = "leqa_cold"

    def request(self, point: int, traced: bool) -> Outcome:
        circuit = library.build_ft(CIRCUIT)
        estimate = StagedPipeline(cache=None).run(circuit, _grid_params(point))
        return Outcome(estimate.latency, len(circuit))

    def check(self, point: int, outcome: Outcome) -> str | None:
        golden = SPEC["golden"]["leqa_cold"][point]
        if outcome.latency.hex() != golden:
            return f"latency {outcome.latency.hex()} != golden {golden}"
        return None

    def hooks(self) -> list[Hook]:
        return [
            Hook(library, "build_ft", "circuits.build_ft", _len_result),
            FINGERPRINT_HOOK,
            *_model_hooks(),
        ]


class MapKernel(_GridPath):
    """``build_ft`` then a cache-less kernel-engine ``QSPRMapper.map``."""

    name = "map_kernel"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._reference: dict[int, float] = {}

    def request(self, point: int, traced: bool) -> Outcome:
        circuit = library.build_ft(CIRCUIT)
        mapper = QSPRMapper(
            params=_grid_params(point), engine="kernel", cache=None
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            result = mapper.map(circuit)
        fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return Outcome(result.latency, len(circuit), detail=fallback)

    def check(self, point: int, outcome: Outcome) -> str | None:
        if outcome.detail:
            return f"kernel fell back: {outcome.detail[0].message}"
        if not _kernel.available():
            return "compiled kernel unavailable"
        if point not in self._reference:
            circuit = library.build_ft(CIRCUIT)
            self._reference[point] = QSPRMapper(
                params=_grid_params(point), engine="array", cache=None
            ).map(circuit).latency
        expected = self._reference[point]
        if outcome.latency != expected:
            return f"kernel {outcome.latency.hex()} != array {expected.hex()}"
        return None

    def hooks(self) -> list[Hook]:
        return [
            Hook(library, "build_ft", "circuits.build_ft", _len_result),
            FINGERPRINT_HOOK,
            Hook(mapper_module, "build_iig", "qodg.iig", _len_arg(0)),
            Hook(mapper_module, "compile_qodg", "qspr.compile", _len_arg(0)),
            Hook(mapper_module, "make_placement", "qspr.placement"),
            Hook(
                mapper_module, "schedule_circuit", "qspr.schedule",
                _len_arg(0),
            ),
        ]


class StreamNct(_GridPath):
    """Chunked random NCT → FT lowering → peephole → ``estimate_stream``."""

    name = "stream_nct"
    warmup = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._shape = SPEC["inputs"]["stream"]
        self._seeds = len(SPEC["golden"]["stream_nct"])
        self.profile: stream.StreamProfile | None = None

    def inputs(self, index: int) -> int:
        return self._rng.randrange(self._seeds)

    def request(self, request_seed: int, traced: bool) -> Outcome:
        shape = self._shape
        chunk = shape["chunk_size"]
        self.profile = stream.StreamProfile() if traced else None
        chunks = stream.stream_random_nct(
            shape["qubits"], shape["nct_gates"], request_seed,
            chunk_size=chunk,
        )
        lowered = stream.lower_ft_stream(chunks)
        optimized = stream.optimize_stream(lowered, chunk_size=chunk)
        estimate = stream.estimate_stream(
            optimized, DEFAULT_PARAMS, profile=self.profile
        )
        return Outcome(estimate.latency, estimate.op_count)

    def check(self, request_seed: int, outcome: Outcome) -> str | None:
        golden = SPEC["golden"]["stream_nct"][request_seed]
        if outcome.latency.hex() != golden:
            return f"latency {outcome.latency.hex()} != golden {golden}"
        return None

    def hooks(self) -> list[Hook]:
        return [
            Hook(stream, "stream_random_nct", "circuits.generate",
                 _len_result, generator=True),
            Hook(stream, "lower_ft_stream", "circuits.lower_ft",
                 _len_result, generator=True),
            Hook(stream, "optimize_stream", "circuits.peephole",
                 _len_result, generator=True),
            Hook(stream, "estimate_stream", "stream.estimate",
                 lambda _args, result: result.op_count),
            *_model_hooks(),
        ]

    def derived_layers(
        self, outcome: Outcome, inner: dict[str, LayerTotals]
    ) -> dict[str, float]:
        """Ingest and critical-path seconds read off the public profile.

        Both stages run inside ``estimate_stream``'s self time, so they
        are taken out of it: ``stream.estimate`` keeps the rest (spill
        files, backtracking and the glue between stages).
        """
        totals = self.profile.stage_totals() if self.profile else {}
        ingest = totals.get("ingest", (0, 0, 0.0))[2]
        critical = totals.get("critical", (0, 0, 0.0))[2]
        return {
            "stream.ingest": ingest,
            "stream.critical": critical,
            "stream.estimate": inner["stream.estimate"].seconds
            - ingest - critical,
        }


class ServeMix:
    """An in-process daemon; each request is one new point plus one repeat.

    The daemon gets ``leqa serve``'s defaults (``--max-entries``,
    ``--max-depth`` and JobQueue's job-record cap) except for its worker
    count: one worker, as the load is one closed-loop client on one CPU.
    An :class:`ArtifactStore` in the run's temp dir backs it.  Set-up
    fills the job-record table to its cap, as on a daemon that has served
    that many jobs, so every timed job also pays the pruning of the
    oldest record.

    A request submits a point the daemon has not seen (pipeline and
    store writes), then re-submits one of the last :attr:`recent` new
    points (socket, queue and a cache read), each waiting for its
    result.  Timing the pair as one request keeps the latency unimodal;
    the two halves are reported separately as context.
    """

    name = "serve_mix"
    recent = 16

    def __init__(self, seed: int, workdir: Path) -> None:
        self._rng = random.Random(f"{self.name}:{seed}")
        self._workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=workdir))
        self._socket = self._workdir / "daemon.sock"
        self.store = ArtifactStore(self._workdir / "store")
        self.server: EstimationServer | None = None
        self._thread: threading.Thread | None = None
        self.client = ServiceClient(self._socket, timeout=60.0)
        self._issued: set[float] = set()
        self._recent: deque[float] = deque(maxlen=self.recent)
        self._circuit = None
        self._reference = StagedPipeline(cache=ArtifactCache())
        self._expected: dict[float, float] = {}

    def setup(self) -> None:
        self.server = EstimationServer(
            socket_path=self._socket,
            workers=1,
            store=self.store,
            max_entries=SERVE_DEFAULTS.max_entries,
            max_depth=SERVE_DEFAULTS.max_depth,
        )
        queue = self.server.queue
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="bench-daemon"
        )
        self._thread.start()
        self.client.ping()
        # Warm-up points (t_move >= 300, never drawn later) seed the
        # repeat window; then fill the record table to its cap.
        for index in range(self.recent):
            self._recent.append(300.0 + index)
            self._job(self._recent[-1])
        for index in range(MAX_RECORDS):
            job_id = queue.submit(self._spec(self._recent[index % self.recent]))
            queue.result(job_id, timeout=60.0)
        records = sum(queue.stats()["jobs"].values())
        if records != MAX_RECORDS:
            raise RuntimeError(
                f"job-record table holds {records}, not its cap {MAX_RECORDS}"
            )

    def inputs(self, index: int) -> tuple[float, float]:
        repeat = self._recent[self._rng.randrange(len(self._recent))]
        # Fresh t_move in [100, 250), distinct from every earlier one.
        while True:
            fresh = 100.0 + self._rng.random() * 150.0
            if fresh not in self._issued:
                break
        self._issued.add(fresh)
        self._recent.append(fresh)
        return fresh, repeat

    def _spec(self, t_move: float) -> dict:
        return {"source": CIRCUIT, "params": {"t_move": t_move}}

    def _job(self, t_move: float) -> tuple[dict, float]:
        started = time.perf_counter()
        job_id = self.client.submit(self._spec(t_move))
        snapshot = self.client.result(job_id, timeout=60.0)
        wall = time.perf_counter() - started
        if snapshot["state"] != "done":
            raise RuntimeError(
                f"job {job_id} {snapshot['state']}: {snapshot['error']}"
            )
        return snapshot, wall

    def request(self, pair: tuple[float, float], traced: bool) -> Outcome:
        jobs = [self._job(t_move) for t_move in pair]
        return Outcome(
            latency=tuple(s["result"]["latency"] for s, _ in jobs),
            gates=sum(s["result"]["op_count"] for s, _ in jobs),
            detail=jobs,
        )

    def halves(self, outcome: Outcome) -> dict[str, float]:
        """Client wall seconds of the new and the repeat half."""
        (_, new), (_, repeat) = outcome.detail
        return {"new": new, "repeat": repeat}

    def check(self, pair: tuple[float, float], outcome: Outcome) -> str | None:
        if self._circuit is None:
            self._circuit = library.build_ft(CIRCUIT)
        for t_move, latency in zip(pair, outcome.latency):
            expected = self._expected.get(t_move)
            if expected is None:
                params = dataclasses.replace(DEFAULT_PARAMS, t_move=t_move)
                expected = self._reference.run(self._circuit, params).latency
                self._expected[t_move] = expected
            if latency != expected:
                return (
                    f"daemon {latency.hex()} != pipeline {expected.hex()} "
                    f"at t_move={t_move!r}"
                )
        return None

    def hooks(self) -> list[Hook]:
        return [
            Hook(ArtifactCache, "ft_circuit", "engine.backend"),
            Hook(LEQABackend, "run", "engine.backend"),
            FINGERPRINT_HOOK,
            *_model_hooks(),
            Hook(ArtifactStore, "put", "store.put", lambda _a, _r: 1),
        ]

    def derived_layers(
        self, outcome: Outcome, inner: dict[str, LayerTotals]
    ) -> dict[str, float]:
        """Socket, queue and worker self time from the jobs' timestamps.

        ``service.queue_wait`` is read off the timestamps directly.  The
        other two are remainders: ``service.rtt`` is the client's wall
        time outside the job's server-side lifetime, and ``service.run``
        the job's run time minus the wrapped layers that ran inside it.
        """
        wall = server = queue_wait = run = 0.0
        for snapshot, job_wall in outcome.detail:
            wall += job_wall
            server += snapshot["finished_at"] - snapshot["submitted_at"]
            queue_wait += snapshot["started_at"] - snapshot["submitted_at"]
            run += snapshot["finished_at"] - snapshot["started_at"]
        inside = sum(totals.seconds for totals in inner.values())
        return {
            "service.rtt": wall - server,
            "service.queue_wait": queue_wait,
            "service.run": run - inside,
        }

    def close(self) -> None:
        """Stop the daemon and remove its store and socket at once.

        Removed within seconds of being written, the store's files never
        reach the disk, so no run leaves write-back or discards behind
        for the next one to pay for.
        """
        if self.server is not None:
            self.client.shutdown()
            self._thread.join(timeout=60.0)
            if self._thread.is_alive():
                raise RuntimeError("daemon thread did not stop")
            self.server = None
        shutil.rmtree(self._workdir, ignore_errors=True)


PATHS = {
    path.name: path
    for path in (LeqaCold, MapKernel, StreamNct, ServeMix)
}


def make_path(name: str, seed: int, workdir: Path):
    """Instantiate the named path (raises ``KeyError`` for unknown names)."""
    return PATHS[name](seed, workdir)
