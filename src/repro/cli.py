"""Command-line interface: ``leqa`` (or ``python -m repro.cli``).

Subcommands
-----------

``estimate``
    Run LEQA on a named benchmark or a netlist file and print the model's
    intermediate quantities plus the estimated latency.

``map``
    Run the detailed QSPR-class mapper and print the actual latency and
    movement statistics.

``compare``
    Run both and print the Table 2-style accuracy row.

``sweep``
    Run a batched fabric-size sweep through the execution engine
    (:mod:`repro.engine`): one circuit, a grid of square fabrics, any
    registered backend, with the FT netlist, IIG and every other
    fabric-independent stage built once for the whole grid.

``benchmarks``
    List the registered benchmark circuits.

``workloads``
    List the workload families (named parameterized scenario ensembles,
    :mod:`repro.workloads`), enumerate one family's members, or — with
    ``--run`` — sweep every member through the engine: each member's FT
    netlist is lowered exactly once via the cache's keyed ``ft`` stage,
    and the "cache reuse" lines count builds and reuses per stage, as
    ``sweep``'s do.

``serve`` / ``submit`` / ``status`` / ``result``
    The estimation service (:mod:`repro.service`): ``serve`` runs a
    daemon over a local UNIX socket with a persistent worker pool, one
    warm artifact cache and (with ``--store``) a persistent on-disk
    artifact store; the client verbs submit requests (identical
    in-flight requests coalesce to one computation), query job state
    and fetch results.  ``status`` without a job id reports the
    daemon's queue/cache/store stats.

Sweeps accept ``--store DIR`` to back the engine cache with a
persistent :class:`~repro.store.ArtifactStore` (warm across processes)
and ``--json`` for machine-readable output.

Netlist files are recognised by extension: ``.real`` (RevLib subset) or
anything else as qasm-lite.  Non-FT circuits are passed through the
paper's FT synthesis flow automatically.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .analysis.errors import absolute_error_percent
from .analysis.report import format_scientific
from .circuits.library import BENCHMARKS
from .core.estimator import LEQAEstimator
from .engine import (
    STAGE_NAMES,
    BatchRunner,
    CircuitSpec,
    Job,
    backend_names,
    sweep_fabric_sizes,
)
from .exceptions import ReproError
from .fabric.params import FabricSpec, PhysicalParams
from .qspr.mapper import QSPRMapper

__all__ = ["main", "build_arg_parser"]


def _params_from_args(args: argparse.Namespace) -> PhysicalParams:
    return PhysicalParams(
        fabric=FabricSpec(args.width, args.height),
        channel_capacity=args.channel_capacity,
        qubit_speed=args.speed,
        t_move=args.t_move,
    )


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "circuit",
        help=(
            "benchmark name (see 'leqa benchmarks'), workload member "
            "(see 'leqa workloads') or netlist path"
        ),
    )
    _add_param_options(parser)


def _add_param_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--width", type=int, default=60, help="fabric width a (default 60)"
    )
    parser.add_argument(
        "--height", type=int, default=60, help="fabric height b (default 60)"
    )
    parser.add_argument(
        "--channel-capacity",
        type=int,
        default=5,
        help="channel capacity N_c (default 5)",
    )
    parser.add_argument(
        "--speed",
        type=float,
        default=0.001,
        help="qubit speed v (default 0.001)",
    )
    parser.add_argument(
        "--t-move",
        type=float,
        default=100.0,
        help="T_move in microseconds (default 100)",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="leqa",
        description="LEQA latency estimation (DAC 2013 reproduction)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "example (batched engine sweep):\n"
            "  leqa sweep gf2^16mult --sizes 20,40,60 --backend leqa "
            "--workers 4\n"
            "runs one benchmark over a fabric-size grid through the "
            "execution engine;\nthe FT netlist, IIG and every other "
            "fabric-independent stage are built\nonce and reused at every "
            "grid point (the 'cache reuse' lines count them).\n"
            "See 'leqa sweep --help' for all sweep options."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    est = subparsers.add_parser("estimate", help="run the LEQA estimator")
    _add_common_options(est)
    est.add_argument(
        "--max-sq-terms",
        type=int,
        default=20,
        help="E[S_q] truncation (default 20; 0 = exact full series)",
    )
    est.add_argument(
        "--optimize",
        action="store_true",
        help="peephole-optimize the FT netlist before estimating",
    )
    est.add_argument(
        "--queue-model",
        default="mm1",
        choices=("mm1", "md1"),
        help="channel congestion model (default: mm1, the paper's)",
    )
    est.add_argument(
        "--stream",
        action="store_true",
        help=(
            "run the out-of-core streaming front-end: the netlist is "
            "parsed, FT-synthesized and estimated in bounded-size chunks "
            "without ever materializing the whole circuit (same result "
            "as the materialized path, bitwise)"
        ),
    )
    est.add_argument(
        "--chunk-gates",
        type=int,
        default=None,
        metavar="N",
        help=(
            "rows per streaming chunk for --stream "
            "(default: repro.circuits.stream.DEFAULT_CHUNK_SIZE)"
        ),
    )
    est.add_argument(
        "--profile",
        action="store_true",
        help=(
            "with --stream, print per-stage chunk counts and wall times "
            "of the streaming front-end"
        ),
    )

    mapper = subparsers.add_parser("map", help="run the detailed mapper")
    _add_common_options(mapper)
    mapper.add_argument(
        "--placement",
        default="iig_greedy",
        choices=("iig_greedy", "row_major", "random"),
        help="initial placement strategy",
    )
    mapper.add_argument(
        "--routing",
        default="maze",
        choices=("maze", "xy"),
        help="routing mode",
    )
    mapper.add_argument(
        "--engine",
        default="array",
        choices=("array", "kernel", "legacy"),
        help=(
            "scheduler engine: array (slot-indexed Python loop over "
            "compiled op arrays, default), kernel "
            "(compiled C; auto-built with the system compiler, falls back "
            "to array with a warning when unavailable) or legacy "
            "(reference oracle); all three produce bitwise-identical "
            "schedules"
        ),
    )

    compare = subparsers.add_parser(
        "compare", help="run both and report the accuracy row"
    )
    _add_common_options(compare)
    compare.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "run the mapper and the estimator as parallel engine jobs "
            "(0/1 = serial; default 1).  Parallel runs share the GIL, so "
            "the per-backend runtimes and the speedup row are wall-clock "
            "under contention — use serial mode for timing-grade numbers"
        ),
    )
    compare.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print per-stage wall times (iig / placement / "
            "schedule / estimate)"
        ),
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="batched fabric-size sweep through the execution engine",
        description=(
            "Evaluate one circuit across a grid of square fabric sizes "
            "using the repro.engine batch runner.  The staged artifact "
            "cache builds the FT netlist, the interaction graph and every "
            "other fabric-independent stage once for the whole grid; the "
            "'cache reuse' lines count builds and reuses per stage."
        ),
    )
    _add_common_options(sweep)
    sweep.add_argument(
        "--sizes",
        default="20,30,40,60,90",
        help="comma-separated square fabric sizes (default 20,30,40,60,90)",
    )
    sweep.add_argument(
        "--backend",
        default="leqa",
        choices=backend_names(),
        help="registered engine backend to run (default: leqa)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel workers (0/1 = serial; default 1)",
    )
    sweep.add_argument(
        "--executor",
        default="thread",
        choices=("serial", "thread", "process"),
        help="batch executor (default: thread)",
    )
    sweep.add_argument(
        "--cache-stats",
        action="store_true",
        help=(
            "print per-stage hit/miss counts of the engine's staged "
            "artifact cache after the sweep"
        ),
    )
    sweep.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print per-point per-stage wall times (iig / "
            "placement / schedule) for backends that report them"
        ),
    )
    sweep.add_argument(
        "--store",
        metavar="DIR",
        help=(
            "back the artifact cache with a persistent on-disk store at "
            "DIR: misses fall through memory -> disk -> build, so "
            "repeated sweeps are warm across processes"
        ),
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit one machine-readable JSON document (points, wall "
            "time, cache stats) instead of the human tables"
        ),
    )

    heatmap = subparsers.add_parser(
        "heatmap", help="render fabric heatmaps (coverage / mapper activity)"
    )
    _add_common_options(heatmap)
    heatmap.add_argument(
        "--kind",
        default="coverage",
        choices=("coverage", "utilization", "congestion"),
        help="which surface to render (default: coverage)",
    )

    subparsers.add_parser("benchmarks", help="list registered benchmarks")

    workloads = subparsers.add_parser(
        "workloads",
        help="list, enumerate and sweep workload families",
        description=(
            "Without arguments, list the registered workload families "
            "(named parameterized scenario ensembles).  With a family "
            "name, enumerate its members; add --run to sweep every "
            "member through the execution engine with the shared "
            "artifact cache (each member's FT netlist is lowered exactly "
            "once; the 'cache reuse' lines count builds and reuses per "
            "stage)."
        ),
    )
    workloads.add_argument(
        "family",
        nargs="?",
        help="workload family to enumerate (omit to list families)",
    )
    workloads.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a family parameter (repeatable), e.g. --set n_max=32",
    )
    workloads.add_argument(
        "--run",
        action="store_true",
        help="sweep every member through the engine and print latencies",
    )
    workloads.add_argument(
        "--backend",
        default="leqa",
        choices=backend_names(),
        help="registered engine backend for --run (default: leqa)",
    )
    workloads.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel workers for --run (0/1 = serial; default 1)",
    )
    workloads.add_argument(
        "--store",
        metavar="DIR",
        help="back the --run cache with a persistent artifact store at DIR",
    )
    _add_param_options(workloads)

    def add_socket_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--socket",
            default="leqa-serve.sock",
            help="daemon socket path (default: ./leqa-serve.sock)",
        )

    serve = subparsers.add_parser(
        "serve",
        help="run the estimation service daemon on a local socket",
        description=(
            "Run a long-lived estimation daemon: a persistent worker "
            "pool over one warm artifact cache (optionally backed by a "
            "persistent on-disk store), serving submit/status/result/"
            "stats requests over a local UNIX socket.  Identical "
            "in-flight requests coalesce to a single computation."
        ),
    )
    add_socket_option(serve)
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker threads (default 2)",
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        help="persistent artifact store directory shared across restarts",
    )
    serve.add_argument(
        "--max-entries",
        type=int,
        default=4096,
        help=(
            "LRU cap of the in-memory cache tier (default 4096; keeps "
            "a long-lived daemon's footprint bounded)"
        ),
    )
    serve.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help=(
            "admission cap on queued jobs: past it, submits are "
            "rejected with a retry_after hint (default: unbounded)"
        ),
    )

    submit = subparsers.add_parser(
        "submit", help="submit one request to a running daemon"
    )
    submit.add_argument(
        "circuit",
        help=(
            "benchmark name, workload member or netlist path to evaluate"
        ),
    )
    submit.add_argument(
        "--backend",
        default="leqa",
        choices=backend_names(),
        help="registered engine backend (default: leqa)",
    )
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="queue priority (higher runs first; default 0)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print its result",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="--wait timeout in seconds (default 600)",
    )
    submit.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    add_socket_option(submit)
    _add_param_options(submit)

    status = subparsers.add_parser(
        "status",
        help="query a job's state (or, without a job id, daemon stats)",
    )
    status.add_argument(
        "job_id", nargs="?",
        help="job id from 'leqa submit' (omit for daemon stats)",
    )
    status.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    add_socket_option(status)

    result = subparsers.add_parser(
        "result", help="wait for a job and print its result"
    )
    result.add_argument("job_id", help="job id from 'leqa submit'")
    result.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="seconds to wait (default 600)",
    )
    result.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    add_socket_option(result)

    stats = subparsers.add_parser(
        "stats",
        help="daemon telemetry: latency histograms + cache/queue counters",
        description=(
            "Query a running daemon's metrics registry: per-stage "
            "latency histograms (p50/p90/p99), cache and store "
            "hit/miss/eviction counters, queue depth, coalesce and "
            "rejection counts."
        ),
    )
    stats.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    add_socket_option(stats)

    trace = subparsers.add_parser(
        "trace",
        help="tail the daemon's recent trace spans",
        description=(
            "Print the newest spans from the daemon's trace ring "
            "buffer: one line per timed region (pipeline stage, mapper "
            "stage, job) with wall time and labels."
        ),
    )
    trace.add_argument(
        "-n", "--limit",
        type=int,
        default=20,
        help="number of spans to show (default 20)",
    )
    trace.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    add_socket_option(trace)
    return parser


def _estimate_streaming(args: argparse.Namespace) -> int:
    """``leqa estimate --stream``: the chunked out-of-core path."""
    from pathlib import Path

    from .circuits.stream import (
        DEFAULT_CHUNK_SIZE,
        StreamProfile,
        estimate_stream,
        lower_ft_stream,
        optimize_stream,
        stream_read_qasm_lite,
        stream_read_real,
        stream_table,
    )

    chunk_size = (
        DEFAULT_CHUNK_SIZE if args.chunk_gates is None else args.chunk_gates
    )
    profile = StreamProfile() if args.profile else None
    path = Path(args.circuit)
    if path.is_file():
        # File sources never touch a materialized table: parse -> FT ->
        # (optimize ->) estimate is chunk-wise end to end.
        if path.suffix == ".real":
            chunks = stream_read_real(path, chunk_size=chunk_size)
        else:
            chunks = stream_read_qasm_lite(path, chunk_size=chunk_size)
        chunks = lower_ft_stream(chunks, profile=profile)
    else:
        circuit = CircuitSpec(args.circuit).load()
        if circuit.is_ft():
            chunks = stream_table(circuit.table(), chunk_size=chunk_size)
        else:
            chunks = lower_ft_stream(
                stream_table(circuit.table(), chunk_size=chunk_size),
                profile=profile,
            )
    if args.optimize:
        chunks = optimize_stream(
            chunks, chunk_size=chunk_size, profile=profile
        )
    max_terms = None if args.max_sq_terms == 0 else args.max_sq_terms
    result = estimate_stream(
        chunks,
        _params_from_args(args),
        profile=profile,
        max_sq_terms=max_terms,
        queue_model=args.queue_model,
    )
    print(f"front-end          streaming ({chunk_size} gates/chunk)")
    print(f"qubits             {result.qubit_count}")
    print(f"operations         {result.op_count}")
    print(f"avg zone area B    {result.average_zone_area:.4f}")
    print(f"d_uncong           {result.d_uncong:.4f} us")
    print(f"L_CNOT^avg         {result.l_avg_cnot:.4f} us")
    print(f"critical CNOTs     {result.critical.cnot_count}")
    print(
        "estimated latency  "
        f"{format_scientific(result.latency_seconds)} s"
    )
    print(f"estimator runtime  {result.elapsed_seconds:.3f} s")
    if profile is not None:
        print()
        print(f"{'stage':<18} {'chunks':>7} {'rows':>10} {'wall (s)':>10}")
        print("-" * 48)
        for stage, (count, rows, seconds) in profile.stage_totals().items():
            print(f"{stage:<18} {count:>7} {rows:>10} {seconds:>10.3f}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.stream:
        return _estimate_streaming(args)
    circuit = CircuitSpec(args.circuit).build()
    if args.optimize:
        from .circuits.optimize import optimize_ft

        before = len(circuit)
        circuit = optimize_ft(circuit)
        print(f"optimizer          {before} -> {len(circuit)} ops")
    max_terms = None if args.max_sq_terms == 0 else args.max_sq_terms
    estimator = LEQAEstimator(
        params=_params_from_args(args),
        max_sq_terms=max_terms,
        queue_model=args.queue_model,
    )
    result = estimator.estimate(circuit)
    print(f"circuit            {circuit.name}")
    print(f"qubits             {result.qubit_count}")
    print(f"operations         {result.op_count}")
    print(f"avg zone area B    {result.average_zone_area:.4f}")
    print(f"d_uncong           {result.d_uncong:.4f} us")
    print(f"L_CNOT^avg         {result.l_avg_cnot:.4f} us")
    print(f"critical CNOTs     {result.critical.cnot_count}")
    print(
        "estimated latency  "
        f"{format_scientific(result.latency_seconds)} s"
    )
    print(f"estimator runtime  {result.elapsed_seconds:.3f} s")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    circuit = CircuitSpec(args.circuit).build()
    mapper = QSPRMapper(
        params=_params_from_args(args),
        placement=args.placement,
        routing=args.routing,
        engine=args.engine,
    )
    result = mapper.map(circuit)
    stats = result.schedule.stats
    print(f"circuit            {circuit.name}")
    print(f"scheduler engine   {result.engine}")
    print(f"qubits             {result.qubit_count}")
    print(f"operations         {result.op_count}")
    print(f"qubit moves        {stats.total_moves}")
    print(f"channel hops       {stats.total_hops}")
    print(f"congestion wait    {stats.congestion_wait:.1f} us")
    print(
        "actual latency     "
        f"{format_scientific(result.latency_seconds)} s"
    )
    print(f"mapper runtime     {result.elapsed_seconds:.3f} s")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    spec = CircuitSpec(args.circuit)
    runner = BatchRunner(workers=args.workers)
    jobs = [
        Job(spec=spec, backend="qspr", params=params, tag="qspr"),
        Job(spec=spec, backend="leqa", params=params, tag="leqa"),
    ]
    outcomes = runner.run(jobs)
    for point in outcomes:
        if not point.ok:
            print(
                f"error: {point.job.tag} backend failed: {point.error}",
                file=sys.stderr,
            )
            return 1
    mapped = outcomes[0].result.detail
    estimated = outcomes[1].result.detail
    error = absolute_error_percent(
        mapped.latency_seconds, estimated.latency_seconds
    )
    speedup = mapped.elapsed_seconds / max(estimated.elapsed_seconds, 1e-9)
    # The raw circuit is a guaranteed cache hit after the jobs above.
    print(f"circuit            {runner.cache.circuit(spec).name}")
    print(f"actual latency     {format_scientific(mapped.latency_seconds)} s")
    print(
        "estimated latency  "
        f"{format_scientific(estimated.latency_seconds)} s"
    )
    print(f"absolute error     {error:.2f} %")
    print(f"mapper runtime     {mapped.elapsed_seconds:.3f} s")
    print(f"estimator runtime  {estimated.elapsed_seconds:.3f} s")
    print(f"speedup            {speedup:.1f}x")
    if args.workers and args.workers > 1:
        print(
            "note               runtimes measured under parallel "
            "execution (GIL contention); run serially for timing-grade "
            "numbers"
        )
    if args.profile:
        from .qspr.mapper import MAPPER_STAGES

        print()
        print(f"scheduler engine   {getattr(mapped, 'engine', 'array')}")
        print(f"{'stage':<12} {'wall (s)':>10}")
        print("-" * 23)
        for stage in MAPPER_STAGES:
            wall = mapped.stage_seconds.get(stage, 0.0)
            print(f"{stage:<12} {wall:>10.3f}")
        print(f"{'estimate':<12} {estimated.elapsed_seconds:>10.3f}")
    return 0


def _store_from_args(args: argparse.Namespace) -> "object | None":
    """The persistent artifact store named by ``--store``, if any."""
    path = getattr(args, "store", None)
    if not path:
        return None
    from .store import ArtifactStore

    return ArtifactStore(path)


def _store_stats_payload(store: "object | None") -> dict | None:
    if store is None:
        return None
    return {"root": str(store.root), **store.stats().as_dict()}


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        sizes = [int(token) for token in args.sizes.split(",") if token]
    except ValueError:
        raise ReproError(
            f"--sizes must be comma-separated integers, got {args.sizes!r}"
        ) from None
    if not sizes:
        raise ReproError("--sizes must name at least one fabric size")
    runner = BatchRunner(
        workers=args.workers,
        executor=args.executor,
        store=_store_from_args(args),
    )
    started = time.perf_counter()
    results = sweep_fabric_sizes(
        args.circuit,
        sizes,
        base_params=_params_from_args(args),
        backend=args.backend,
        runner=runner,
    )
    wall = time.perf_counter() - started
    # workers <= 1 degrades to the serial path, which shares the runner's
    # cache even under --executor process; only a real pool hides stats.
    hidden = args.executor == "process" and args.workers > 1
    failures = sum(1 for point in results if not point.ok)
    if args.json:
        document = {
            "circuit": args.circuit,
            "backend": args.backend,
            "executor": args.executor,
            "wall_seconds": wall,
            "points": [
                {
                    "tag": point.job.tag,
                    "ok": point.ok,
                    "latency_seconds": (
                        point.result.latency_seconds if point.ok else None
                    ),
                    "elapsed_seconds": (
                        point.result.elapsed_seconds if point.ok else None
                    ),
                    "error": point.error,
                }
                for point in results
            ],
            # A real process pool keeps per-worker caches (and per-worker
            # store handles): this process's counters would misreport the
            # sweep, so both payloads are null there.
            "cache_stats": (
                None if hidden else runner.cache.stats().as_dict()
            ),
            "store": (
                None if hidden else _store_stats_payload(runner.cache.store)
            ),
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 1 if failures else 0
    print(f"circuit            {args.circuit}")
    print(f"backend            {args.backend}")
    print(f"{'fabric':<10} {'latency (s)':<14} {'backend time (s)':<16}")
    print("-" * 41)
    for point in results:
        if not point.ok:
            print(f"{point.job.tag:<10} error: {point.error}")
            continue
        result = point.result
        print(
            f"{point.job.tag:<10} "
            f"{format_scientific(result.latency_seconds):<14} "
            f"{result.elapsed_seconds:<16.3f}"
        )
    print(
        f"\nsweep wall time    {wall:.3f} s "
        f"({len(results)} points, {args.executor} executor)"
    )
    if args.profile:
        profiled = [
            point
            for point in results
            if point.ok and getattr(point.result.detail, "stage_seconds", None)
        ]
        if profiled:
            from .qspr.mapper import MAPPER_STAGES as stages

            engines = {
                getattr(point.result.detail, "engine", "array")
                for point in profiled
            }
            print(f"\nscheduler engine   {', '.join(sorted(engines))}")
            header = f"{'fabric':<10}" + "".join(
                f" {stage + ' (s)':>14}" for stage in stages
            )
            print(f"\n{header}")
            print("-" * len(header))
            for point in profiled:
                times = point.result.detail.stage_seconds
                row = f"{point.job.tag:<10}" + "".join(
                    f" {times.get(stage, 0.0):>14.3f}" for stage in stages
                )
                print(row)
        else:
            print(
                "\nprofile            backend reports no per-stage times "
                f"({args.backend})"
            )
    if hidden:
        print("cache reuse        per-worker caches (process executor)")
        if args.cache_stats:
            print(
                "\ncache stats unavailable: each worker process holds its "
                "own cache"
            )
        return 1 if failures else 0
    stats = runner.cache.stats()
    _print_cache_reuse(stats)
    if args.cache_stats:
        print(
            f"\n{'stage':<10} {'hits':>6} {'misses':>8} "
            f"{'store':>7} {'evicted':>9}"
        )
        print("-" * 44)
        for stage in STAGE_NAMES:
            print(
                f"{stage:<10} {stats.hit_count(stage):>6} "
                f"{stats.miss_count(stage):>8} "
                f"{stats.store_hit_count(stage):>7} "
                f"{stats.eviction_count(stage):>9}"
            )
    return 1 if failures else 0


def _print_cache_reuse(stats) -> None:
    """One ``stage xN built / xM reused [/ xK from store]`` line per
    cached stage the run touched."""
    reuse = []
    for stage in STAGE_NAMES:
        built, hits = stats.miss_count(stage), stats.hit_count(stage)
        loaded = stats.store_hit_count(stage)
        if built or hits or loaded:
            entry = f"{stage} x{built} built / x{hits} reused"
            if loaded:
                entry += f" / x{loaded} from store"
            reuse.append(entry)
    print("cache reuse        " + ("\n" + " " * 19).join(reuse))


def _cmd_heatmap(args: argparse.Namespace) -> int:
    from .analysis.visualize import (
        congestion_heatmap,
        coverage_heatmap,
        utilization_heatmap,
    )
    from .core.presence import compute_zones
    from .qodg.iig import build_iig

    circuit = CircuitSpec(args.circuit).build()
    params = _params_from_args(args)
    width, height = params.fabric.width, params.fabric.height
    if args.kind == "coverage":
        zones = compute_zones(build_iig(circuit))
        print(coverage_heatmap(width, height, zones.average_area))
        return 0
    mapper = QSPRMapper(params=params, record_trace=True)
    trace = mapper.map(circuit).schedule.trace
    if args.kind == "utilization":
        print(utilization_heatmap(trace, width, height))
    else:
        print(congestion_heatmap(trace, width, height))
    return 0


def _cmd_benchmarks(_args: argparse.Namespace) -> int:
    print(f"{'name':<18} {'family':<10}")
    print("-" * 29)
    for name, spec in BENCHMARKS.items():
        print(f"{name:<18} {spec.family:<10}")
    return 0


def _parse_overrides(items: list[str]) -> dict[str, int]:
    overrides: dict[str, int] = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ReproError(
                f"--set expects KEY=VALUE, got {item!r}"
            )
        try:
            overrides[key.strip()] = int(value)
        except ValueError:
            raise ReproError(
                f"--set values must be integers, got {item!r}"
            ) from None
    return overrides


def _cmd_workloads(args: argparse.Namespace) -> int:
    from .engine.runner import sweep_workload
    from .workloads import WORKLOADS, enumerate_members, get_workload

    if args.family is None:
        print(f"{'name':<12} {'members':>8}  {'summary'}")
        print("-" * 64)
        for name, family in WORKLOADS.items():
            members = family.enumerate(dict(family.defaults))
            print(f"{name:<12} {len(members):>8}  {family.summary}")
        print(
            "\nparameters: "
            + "; ".join(
                f"{name}({', '.join(f'{k}={v}' for k, v in fam.defaults.items())})"
                for name, fam in WORKLOADS.items()
                if fam.defaults
            )
        )
        return 0
    get_workload(args.family)  # validate before parsing overrides
    overrides = _parse_overrides(args.overrides)
    members = enumerate_members(args.family, **overrides)
    if not args.run:
        for member in members:
            print(member)
        return 0
    runner = BatchRunner(workers=args.workers, store=_store_from_args(args))
    started = time.perf_counter()
    results = sweep_workload(
        args.family,
        overrides=overrides,
        params_grid=[_params_from_args(args)],
        backend=args.backend,
        runner=runner,
    )
    wall = time.perf_counter() - started
    print(f"workload           {args.family} ({len(results)} members)")
    print(f"backend            {args.backend}")
    print(f"{'member':<42} {'latency (s)':<14} {'time (s)':<10}")
    print("-" * 67)
    failures = 0
    for point in results:
        if not point.ok:
            failures += 1
            print(f"{point.job.tag:<42} error: {point.error}")
            continue
        print(
            f"{point.job.tag:<42} "
            f"{format_scientific(point.result.latency_seconds):<14} "
            f"{point.result.elapsed_seconds:<10.3f}"
        )
    print(f"\nsweep wall time    {wall:.3f} s")
    _print_cache_reuse(runner.cache.stats())
    return 1 if failures else 0


def _print_job_snapshot(snapshot: dict) -> None:
    """Human-readable rendering of one job record."""
    print(f"job                {snapshot['id']}")
    print(f"state              {snapshot['state']}")
    print(f"source             {snapshot['spec']['source']}")
    print(f"backend            {snapshot['spec']['backend']}")
    print(f"submits            {snapshot['submits']}")
    result = snapshot.get("result")
    if result is not None:
        print(
            "latency            "
            f"{format_scientific(result['latency_seconds'])} s"
        )
        print(f"backend time       {result['elapsed_seconds']:.3f} s")
    if snapshot.get("error"):
        print(f"error              {snapshot['error']}")


def _service_client(args: argparse.Namespace, timeout: float = 60.0):
    from .service import ServiceClient

    return ServiceClient(args.socket, timeout=timeout)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import EstimationServer

    server = EstimationServer(
        args.socket,
        workers=args.workers,
        store=_store_from_args(args),
        max_entries=args.max_entries,
        max_depth=args.max_depth,
    )
    store_note = f", store {args.store}" if args.store else ""
    print(
        f"leqa serve: listening on {server.socket_path} "
        f"({args.workers} workers{store_note}); "
        "submit with 'leqa submit', inspect with 'leqa stats' / "
        "'leqa trace', stop with a 'shutdown' request"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _service_client(args, timeout=args.timeout + 30.0)
    spec = {
        "source": args.circuit,
        "backend": args.backend,
        "params": {
            "width": args.width,
            "height": args.height,
            "channel_capacity": args.channel_capacity,
            "qubit_speed": args.speed,
            "t_move": args.t_move,
        },
    }
    job_id = client.submit(spec, priority=args.priority)
    if not args.wait:
        if args.json:
            print(json.dumps({"job_id": job_id}))
        else:
            print(job_id)
        return 0
    snapshot = client.result(job_id, timeout=args.timeout)
    snapshot.pop("ok", None)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        _print_job_snapshot(snapshot)
    return 0 if snapshot["state"] == "done" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    client = _service_client(args)
    if args.job_id is None:
        stats = client.stats()
        stats.pop("ok", None)
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        jobs = stats["jobs"]
        print(f"workers            {stats['workers']}")
        print(f"queue depth        {stats['queue_depth']}")
        print(f"coalesced          {stats['coalesced']}")
        states = ", ".join(f"{k}={v}" for k, v in jobs.items())
        print(f"jobs               {states}")
        if "store" in stats:
            store = stats["store"]
            print(
                f"store              {store['root']} "
                f"(hits {store['hits']}, writes {store['writes']})"
            )
        return 0
    snapshot = client.status(args.job_id)
    snapshot.pop("ok", None)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        _print_job_snapshot(snapshot)
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    client = _service_client(args, timeout=args.timeout + 30.0)
    snapshot = client.result(args.job_id, timeout=args.timeout)
    snapshot.pop("ok", None)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        _print_job_snapshot(snapshot)
        if snapshot["state"] == "failed" and snapshot.get("traceback"):
            print(f"\n{snapshot['traceback']}")
    return 0 if snapshot["state"] == "done" else 1


def _format_span_seconds(seconds: float) -> str:
    """Human wall-time rendering with a unit that keeps digits visible."""
    if seconds >= 1.0:
        return f"{seconds:8.3f} s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f} ms"
    return f"{seconds * 1e6:8.1f} us"


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = _service_client(args).stats()
    stats.pop("ok", None)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    rejected = stats.get("rejected", {})
    print(f"workers            {stats['workers']}")
    print(f"queue depth        {stats['queue_depth']}")
    print(f"running            {stats.get('running', 0)}")
    print(f"draining           {stats.get('draining', False)}")
    max_depth = stats.get("max_depth")
    print(f"max depth          {max_depth if max_depth else 'unbounded'}")
    print(f"coalesced          {stats['coalesced']}")
    print(
        "rejected           "
        f"full={rejected.get('full', 0)} "
        f"draining={rejected.get('draining', 0)}"
    )
    states = ", ".join(f"{k}={v}" for k, v in stats["jobs"].items())
    print(f"jobs               {states}")
    cache = stats.get("cache", {})
    touched = {
        stage: row
        for stage, row in cache.items()
        if any(row.values())
    }
    if touched:
        print(
            f"\n{'cache stage':<12} {'hits':>6} {'misses':>8} "
            f"{'store':>7} {'evicted':>9}"
        )
        print("-" * 46)
        for stage, row in touched.items():
            print(
                f"{stage:<12} {row['hits']:>6} {row['misses']:>8} "
                f"{row['store_hits']:>7} {row['evictions']:>9}"
            )
    if "store" in stats:
        store = stats["store"]
        print(
            f"\nstore              {store['root']} "
            f"(hits {store['hits']}, misses {store['misses']}, "
            f"writes {store['writes']}, evicted {store['evicted']})"
        )
    histograms = stats.get("metrics", {}).get("histograms", {})
    if histograms:
        print(
            f"\n{'latency histogram':<38} {'count':>7} "
            f"{'p50':>11} {'p90':>11} {'p99':>11}"
        )
        print("-" * 82)
        for name in sorted(histograms):
            for labels, hist in sorted(histograms[name].items()):
                series = f"{name}{{{labels}}}" if labels else name
                print(
                    f"{series:<38} {hist['count']:>7} "
                    f"{_format_span_seconds(hist['p50']):>11} "
                    f"{_format_span_seconds(hist['p90']):>11} "
                    f"{_format_span_seconds(hist['p99']):>11}"
                )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    spans = _service_client(args).trace(limit=args.limit)
    if args.json:
        print(json.dumps(spans, indent=2, sort_keys=True))
        return 0
    if not spans:
        print("no spans recorded yet (submit some work first)")
        return 0
    for span in spans:
        stamp = time.strftime(
            "%H:%M:%S", time.localtime(span.get("started_at", 0.0))
        )
        indent = "  " * int(span.get("depth", 0))
        labels = span.get("labels", {})
        label_text = " ".join(f"{k}={v}" for k, v in sorted(labels.items()))
        print(
            f"{stamp} {_format_span_seconds(span['seconds'])} "
            f"{indent}{span['name']}"
            + (f"  [{label_text}]" if label_text else "")
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    handlers = {
        "estimate": _cmd_estimate,
        "map": _cmd_map,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "heatmap": _cmd_heatmap,
        "benchmarks": _cmd_benchmarks,
        "workloads": _cmd_workloads,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "result": _cmd_result,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
