"""Shared infrastructure for the benchmark harness.

Every bench regenerates one of the paper's evaluation artifacts (Tables
1-3, the scaling claims of section 4.2, or an ablation DESIGN.md calls
out).  The helpers here keep the methodology consistent:

* **One circuit cache** — FT netlists and IIGs are staged once per pytest
  session in a shared :class:`repro.engine.ArtifactCache`; the mapper and
  estimator both run as engine backends against it.
* **One calibration** — the qubit speed ``v`` is tuned *once* against the
  detailed mapper on a single benchmark (``gf2^16mult``) and then held
  fixed for every other measurement, the tuning usage the paper describes
  for adapting LEQA to a different mapper.
* **Subset control** — by default the harness runs the Table-3 rows up to
  a few hundred thousand operations (minutes of wall clock).  Set the
  environment variable ``REPRO_FULL=1`` to run all 18 rows including the
  3M-operation ``gf2^256mult``.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

from repro.analysis.calibration import calibrate_qubit_speed
from repro.circuits.circuit import Circuit
from repro.circuits.library import PAPER_TABLE3_ORDER
from repro.core.estimator import LatencyEstimate
from repro.core.pipeline import StagedPipeline, SweepPoint
from repro.engine import ArtifactCache, CircuitSpec, get_backend
from repro.fabric.params import DEFAULT_PARAMS, PhysicalParams
from repro.qspr.mapper import MappingResult

#: Benchmark used to tune ``v`` against the mapper (CNOT-dominated,
#: mid-size, fast to map).
CALIBRATION_BENCHMARK = "gf2^16mult"

#: Rows measured by default: everything up to ~160k ops.  REPRO_FULL=1
#: unlocks the rest (hwb100ps, gf2^100mult, hwb200ps, gf2^128mult,
#: gf2^256mult).
DEFAULT_ROWS: tuple[str, ...] = PAPER_TABLE3_ORDER[:13]


def selected_rows() -> tuple[str, ...]:
    """Table-3 rows to measure in this run (env-controlled)."""
    if os.environ.get("REPRO_FULL") == "1":
        return PAPER_TABLE3_ORDER
    return DEFAULT_ROWS


#: One engine artifact cache for the whole pytest session: FT netlists
#: and IIGs are staged once and shared by the mapper and the estimator.
ENGINE_CACHE = ArtifactCache()


@functools.lru_cache(maxsize=None)
def ft_circuit(name: str) -> Circuit:
    """Session-cached FT netlist of a named benchmark."""
    return ENGINE_CACHE.ft_circuit(CircuitSpec(name))


@functools.lru_cache(maxsize=1)
def calibrated_params() -> PhysicalParams:
    """Table-1 parameters with ``v`` tuned once against our mapper."""
    import dataclasses

    circuit = ft_circuit(CALIBRATION_BENCHMARK)
    backend = get_backend("qspr", params=DEFAULT_PARAMS, cache=ENGINE_CACHE)
    actual = backend.run(circuit)
    speed = calibrate_qubit_speed(circuit, DEFAULT_PARAMS, actual.latency)
    return dataclasses.replace(DEFAULT_PARAMS, qubit_speed=speed)


@functools.lru_cache(maxsize=None)
def mapped(name: str) -> MappingResult:
    """Session-cached detailed-mapper run (the expensive side)."""
    backend = get_backend(
        "qspr", params=calibrated_params(), cache=ENGINE_CACHE
    )
    return backend.run(ft_circuit(name)).detail


@functools.lru_cache(maxsize=None)
def estimated(name: str) -> LatencyEstimate:
    """Session-cached LEQA run under the calibrated parameters."""
    backend = get_backend(
        "leqa", params=calibrated_params(), cache=ENGINE_CACHE
    )
    return backend.run(ft_circuit(name)).detail


def staged_pipeline(**options: object) -> StagedPipeline:
    """A staged pipeline over the session cache (default LEQA options).

    The parameter-sensitivity and fabric-size benches evaluate their
    grids through this: one batched critical-path pass per grid, with
    zones/Hamiltonian/coverage stages shared session-wide.
    """
    return StagedPipeline(cache=ENGINE_CACHE, **options)


def sweep_points(
    name: str, grid: list[PhysicalParams], **options: object
) -> list[SweepPoint]:
    """Batched pipeline sweep of one benchmark over a parameter grid."""
    return staged_pipeline(**options).sweep(ft_circuit(name), grid)


#: Committed baselines of the speed benchmarks.  The benches only read
#: them (a tier-1 run never rewrites a tracked file); refresh one by hand
#: when a change moves its number on purpose.
MAPPER_TRAJECTORY_PATH = Path(__file__).parent / "BENCH_mapper.json"
FRONTEND_TRAJECTORY_PATH = Path(__file__).parent / "BENCH_frontend.json"
STORE_TRAJECTORY_PATH = Path(__file__).parent / "BENCH_store.json"
STREAM_TRAJECTORY_PATH = Path(__file__).parent / "BENCH_stream.json"
OBS_TRAJECTORY_PATH = Path(__file__).parent / "BENCH_obs.json"


def _load_trajectory(path: Path) -> dict:
    """One recorded benchmark trajectory (empty when absent)."""
    if not path.exists():
        return {"entries": {}}
    with path.open() as handle:
        return json.load(handle)


def _recorded_speedup(path: Path, key: str) -> float | None:
    """The baseline speedup recorded for one configuration, if any."""
    entry = _load_trajectory(path).get("entries", {}).get(key)
    if entry is None:
        return None
    return float(entry["speedup"])


def load_mapper_trajectory() -> dict:
    """The recorded mapper benchmark trajectory (empty when absent)."""
    return _load_trajectory(MAPPER_TRAJECTORY_PATH)


def recorded_mapper_speedup(key: str) -> float | None:
    """The mapper baseline speedup recorded for one configuration."""
    return _recorded_speedup(MAPPER_TRAJECTORY_PATH, key)


def recorded_frontend_speedup(key: str) -> float | None:
    """The front-end baseline speedup recorded for one configuration."""
    return _recorded_speedup(FRONTEND_TRAJECTORY_PATH, key)


def recorded_stream_speedup(key: str) -> float | None:
    """The streaming baseline memory advantage recorded for one config."""
    return _recorded_speedup(STREAM_TRAJECTORY_PATH, key)


def recorded_store_speedup(key: str) -> float | None:
    """The warm-store baseline speedup recorded for one configuration."""
    return _recorded_speedup(STORE_TRAJECTORY_PATH, key)


def recorded_obs_overhead(key: str) -> float | None:
    """The telemetry overhead recorded for one configuration, if any."""
    entry = _load_trajectory(OBS_TRAJECTORY_PATH).get("entries", {}).get(key)
    if entry is None:
        return None
    return float(entry["overhead_pct"])
