"""The measuring process: set up one path, time it, check every output.

Started by ``run.py`` with a pinned environment (``PYTHONHASHSEED``, a
benchmark-owned ``REPRO_KERNEL_CACHE`` and ``TMPDIR``, no ``REPRO_OBS``).
It speaks a line protocol on standard output:

``READY``            set-up is done (the parent stamps ``setup_s`` here)
``PROBE <ms>``       the probe right after set-up, for normalizing it
``RESULT <json>``    the measurements

Modes: ``measure`` times one workload untraced and reports every
successful request, so the parent can pool the requests of several
processes; ``trace`` runs every path with the per-layer wrappers on
alternate requests.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.qspr import _kernel

from .paths import PATHS, SPEC, make_path
from .probe import probe_ms
from .stats import MIN_REQUESTS, normalize, percentile
from .tracer import LayerTotals, Tracer

REF_MS = SPEC["ref_probe_ms"]

#: Layers that are remainders, kept out of ``attributed_frac``.
RESIDUAL = frozenset(
    name for name, layer in SPEC["layers"].items() if layer.get("residual")
)

#: Hard stop of a timed phase, as a multiple of ``--seconds``.
OVERRUN = 3.0


@dataclass
class Record:
    """One timed request."""

    item: Any
    traced: bool
    wall: float
    probe: float
    outcome: Any = None
    error: str | None = None
    layers: dict[str, float] | None = None
    units: dict[str, int] | None = None
    calls: dict[str, int] | None = None

    @property
    def factor(self) -> float:
        """Multiplier taking this request's raw times to normalized ones."""
        return normalize(1.0, self.probe, REF_MS)


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _post_setup_probe() -> None:
    _emit("READY")
    _emit(f"PROBE {statistics.median(probe_ms() for _ in range(3))!r}")


def _time_one(path, index: int, traced: bool, tracer: Tracer | None) -> Record:
    item = path.inputs(index)
    if traced:
        tracer.install(path.hooks())
    started = time.perf_counter()
    outcome = error = None
    try:
        outcome = path.request(item, traced)
    except Exception:  # noqa: BLE001 — counted as failed and printed
        error = traceback.format_exc()
    wall = time.perf_counter() - started
    record = Record(item, traced, wall, 0.0, outcome, error)
    if traced:
        tracer.restore()
        _attach_layers(path, record, tracer.take())
    record.probe = probe_ms()
    return record


def _attach_layers(path, record: Record, totals: dict[str, LayerTotals]) -> None:
    layers = {layer: t.seconds for layer, t in totals.items()}
    units = {layer: t.units for layer, t in totals.items()}
    record.calls = {layer: t.calls for layer, t in totals.items()}
    if record.outcome is not None and hasattr(path, "derived_layers"):
        layers.update(path.derived_layers(record.outcome, totals))
    record.layers = layers
    record.units = units


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _timed_phase(
    path, seconds: float, tracer: Tracer | None, min_requests: int
) -> tuple[list[Record], int]:
    """Closed loop: one request at a time until time and sample count allow.

    Returns the records and the peak RSS (KiB) when the first
    ``min_requests`` requests were done: every process serves that many
    whatever the host's speed, while the daemon's cache keeps growing
    with the requests a process gets through.
    """
    records: list[Record] = []
    peak_kb = 0
    started = time.perf_counter()
    deadline = started + seconds
    hard_stop = started + seconds * OVERRUN
    index = 0
    while True:
        now = time.perf_counter()
        if now >= hard_stop or (
            now >= deadline and len(records) >= min_requests
        ):
            break
        traced = tracer is not None and index % 2 == 0
        records.append(_time_one(path, index, traced, tracer))
        index += 1
        if len(records) == min_requests:
            peak_kb = _max_rss_kb()
    return records, peak_kb


def _check(path, records: list[Record]) -> list[str]:
    """Check every output; returns one message per failed request."""
    failures = []
    for number, record in enumerate(records):
        message = record.error
        if message is None:
            try:
                message = path.check(record.item, record.outcome)
            except Exception:  # noqa: BLE001 — a crashing check is a failure
                message = traceback.format_exc()
        if message is not None:
            failures.append(f"{path.name} request {number}: {message}")
    return failures


def _report_failures(failures: list[str]) -> None:
    for message in failures[:10]:
        print(message, file=sys.stderr)
    if len(failures) > 10:
        print(f"... and {len(failures) - 10} more failures", file=sys.stderr)


def _rows(path, records: list[Record]) -> list[dict]:
    """What ``stats.summarize`` needs of each successful request."""
    rows = []
    for record in records:
        if record.outcome is None:
            continue
        row = {
            "ms": record.wall * record.factor * 1e3,
            "raw_ms": record.wall * 1e3,
            "gates": record.outcome.gates,
            "probe": record.probe,
        }
        if hasattr(path, "halves"):
            # The new and the repeat half of each serve_mix request.
            row["halves"] = {
                half: seconds * record.factor * 1e3
                for half, seconds in path.halves(record.outcome).items()
            }
        rows.append(row)
    return rows


def run_measure(workload: str, seed: int, seconds: float, workdir: Path,
                min_requests: int) -> dict:
    path = make_path(workload, seed, workdir)
    try:
        path.setup()
        _post_setup_probe()
        records, peak_kb = _timed_phase(
            path, seconds, tracer=None, min_requests=min_requests
        )
        end_kb = _max_rss_kb()
        failures = _check(path, records)
    finally:
        path.close()
    _report_failures(failures)
    return {
        "attempted": len(records),
        "failed": len(failures),
        "rows": _rows(path, records),
        "peak_rss_mb": peak_kb / 1024.0,
        "end_rss_mb": end_kb / 1024.0,
    }


def _layer_table(path, records: list[Record]) -> dict[str, Any]:
    """Per-request normalized self time and work rate of every layer."""
    traced = [r for r in records if r.traced and r.layers is not None]
    untraced = [r for r in records if not r.traced and r.outcome is not None]
    table: dict[str, dict[str, float]] = {}
    for record in traced:
        for layer, seconds in record.layers.items():
            row = table.setdefault(
                layer, {"s": 0.0, "raw_s": 0.0, "units": 0, "calls": 0}
            )
            row["s"] += seconds * record.factor
            row["raw_s"] += seconds
            row["units"] += (record.units or {}).get(layer, 0)
            row["calls"] += (record.calls or {}).get(layer, 0)
    count = max(len(traced), 1)
    layers = {
        layer: {
            "ms": row["s"] * 1e3 / count,
            "raw_ms": row["raw_s"] * 1e3 / count,
            "units_per_s": row["units"] / row["s"] if row["s"] > 0 else 0.0,
            "units": row["units"] / count,
            "calls": row["calls"] / count,
        }
        for layer, row in sorted(table.items())
    }
    wall = sum(r.wall for r in traced)

    def share(residual: bool) -> float:
        """Share of traced wall time in the measured or residual layers."""
        seconds = sum(
            value
            for record in traced
            for layer, value in record.layers.items()
            if (layer in RESIDUAL) == residual
        )
        return seconds / wall if wall > 0 else 0.0

    traced_ms = [r.wall * r.factor * 1e3 for r in traced if r.outcome]
    plain_ms = [r.wall * r.factor * 1e3 for r in untraced]
    return {
        "layers": layers,
        "traced_requests": len(traced),
        "untraced_requests": len(untraced),
        "attributed_frac": share(residual=False),
        "residual_frac": share(residual=True),
        "overhead_frac": (
            percentile(traced_ms, 50) / percentile(plain_ms, 50) - 1.0
            if traced_ms and plain_ms
            else 0.0
        ),
        "probe_ms": statistics.median(r.probe for r in records),
    }


def _serve_counters(path) -> dict[str, int]:
    cache = path.server.queue.cache.stats().as_dict()
    lookups = {"hits": 0, "misses": 0, "store_hits": 0}
    for counts in cache.values():
        for key in lookups:
            lookups[key] += counts[key]
    store = path.store.stats().as_dict()
    return {
        **lookups,
        "writes": store["writes"],
        "bytes_written": store["bytes_written"],
    }


def run_trace(seed: int, seconds: float, workdir: Path) -> dict:
    """Every path in turn, wrappers on every other request."""
    share = max(seconds / len(PATHS), 2.0)
    tables: dict[str, Any] = {}
    attempted = 0
    all_failures: list[str] = []
    tracer = Tracer()
    for name in PATHS:
        path = make_path(name, seed, workdir)
        try:
            path.setup()
            counters = _serve_counters(path) if name == "serve_mix" else None
            records, _ = _timed_phase(path, share, tracer, MIN_REQUESTS)
            if counters is not None:
                after = _serve_counters(path)
                counters = {k: after[k] - counters[k] for k in after}
                counters["requests"] = len(records)
            failures = _check(path, records)
            kernel_loaded = name == "map_kernel" and _kernel.available()
        finally:
            tracer.restore()
            path.close()
        attempted += len(records)
        all_failures.extend(failures)
        tables[name] = _layer_table(path, records)
        if counters is not None:
            tables[name]["counters"] = counters
        if name == "map_kernel":
            tables[name]["kernel_loaded"] = int(kernel_loaded)
    _report_failures(all_failures)
    return {"attempted": attempted, "failed": len(all_failures), "paths": tables}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(PATHS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--min-requests", type=int, default=MIN_REQUESTS)
    args = parser.parse_args(argv)
    if args.mode == "measure":
        result = run_measure(
            args.workload, args.seed, args.seconds, args.workdir,
            args.min_requests,
        )
    else:
        result = run_trace(args.seed, args.seconds, args.workdir)
    _emit("RESULT " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
