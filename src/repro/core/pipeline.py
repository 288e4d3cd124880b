"""Staged analytic pipeline: LEQA as an explicit stage graph.

Algorithm 1 is a chain of analytically distinct products — interaction
graph, presence zones, Hamiltonian-path lengths, uncongested latency,
coverage series, queue-weighted routing latency, node delays, critical
path — and each product reads a different *slice* of
:class:`~repro.fabric.params.PhysicalParams`.  The monolithic
``estimate()`` loop hid that structure, so a parameter sweep that varied
only, say, the gate delays still recomputed zones and coverage series it
provably could not have invalidated.

This module makes the structure first-class:

* :data:`STAGE_GRAPH` declares, per stage, which parameter aspects it
  reads and which stages it consumes — machine-checkable provenance the
  cache keys and the incremental sweeps are derived from;
* the stage implementations are numpy-vectorized: ``B_i``,
  ``E[l_ham,i]``, ``d_uncong,i`` and ``d_q`` are arrays, the coverage
  series is one 2D log-space evaluation, and a batched sweep runs the
  critical-path recurrence for every parameter point simultaneously;
* :class:`StagedPipeline` evaluates the graph for one parameter set
  (:meth:`~StagedPipeline.run`, returning the familiar
  :class:`~repro.core.estimator.LatencyEstimate`) or for a whole grid
  (:meth:`~StagedPipeline.sweep`, returning light-weight
  :class:`SweepPoint` rows), keying every stage in an
  :class:`~repro.engine.cache.ArtifactCache` by exactly the parameter
  slice that stage (transitively) reads.

The scalar methods on :class:`~repro.core.estimator.LEQAEstimator`
remain the reference oracle; property tests assert the vectorized
stages match them to 1e-9 on random circuits.

Stage graph (parameter aspects in brackets)::

    circuit ──▶ iig ──▶ zones ──▶ ham ─────▶ uncong [qubit_speed]
                          │                     │
                          └──▶ coverage ────────┤ [fabric]
                                                ▼
                                 queueing [channel_capacity]
                                                │
                        delays [gate_delays, t_move]
                                                │
                                   critical ──▶ D
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate, GateKind
from ..exceptions import EstimationError
from ..fabric.params import PhysicalParams
from ..obs import span as obs_span
from ..qodg.critical_path import (
    critical_path,
    first_missing_kind,
    kind_delay_lut,
)
from ..qodg.graph import QODG
from ..qodg.iig import IIG, build_iig
from ..qodg.sweep import sweep_critical_path, sweep_critical_path_lengths
from .coverage import (
    DEFAULT_MAX_TERMS,
    expected_coverage_surface,
    expected_coverage_surfaces,
)
from .queueing import vectorized_queue_model
from .tsp import expected_hamiltonian_paths

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..engine.cache import ArtifactCache
    from .estimator import LatencyEstimate

__all__ = [
    "PARAM_ASPECTS",
    "StageSpec",
    "STAGE_GRAPH",
    "STAGE_ORDER",
    "param_slice",
    "stage_reads",
    "stages_invalidated_by",
    "ZoneArrays",
    "SweepPoint",
    "StagedPipeline",
    "sweep_estimates",
]

#: The independent slices of :class:`PhysicalParams` a stage can read.
PARAM_ASPECTS = (
    "fabric",
    "qubit_speed",
    "gate_delays",
    "channel_capacity",
    "t_move",
)


@dataclass(frozen=True)
class StageSpec:
    """One node of the pipeline's stage graph.

    Attributes
    ----------
    name:
        Stage id (also its counter name in
        :meth:`repro.engine.cache.ArtifactCache.stats`).
    reads:
        Parameter aspects (members of :data:`PARAM_ASPECTS`) this stage
        reads *directly*.  The cache key additionally folds in the
        aspects of every upstream stage (see :func:`stage_reads`).
    after:
        Names of the stages whose products this one consumes.
    summary:
        One-line description (the README's stage table is generated from
        the same vocabulary).
    """

    name: str
    reads: tuple[str, ...]
    after: tuple[str, ...]
    summary: str


#: The LEQA stage graph, in topological order.
STAGE_ORDER: tuple[StageSpec, ...] = (
    StageSpec("iig", (), (), "interaction intensity graph (line 1)"),
    StageSpec("zones", (), ("iig",), "per-qubit B_i, weights (Eqs. 6-7)"),
    StageSpec("ham", (), ("zones",), "E[l_ham,i] per qubit (Eq. 15)"),
    StageSpec(
        "uncong",
        ("qubit_speed",),
        ("ham",),
        "d_uncong,i and weighted d_uncong (Eqs. 12, 16)",
    ),
    StageSpec(
        "coverage",
        ("fabric",),
        ("zones",),
        "coverage series E[S_q] (Eqs. 4-5)",
    ),
    StageSpec(
        "queueing",
        ("channel_capacity",),
        ("uncong", "coverage"),
        "congested d_q and L_CNOT^avg (Eqs. 2, 8)",
    ),
    StageSpec(
        "delays",
        ("gate_delays", "t_move"),
        ("queueing",),
        "per-kind node-delay table (Eq. 1 inputs)",
    ),
    StageSpec(
        "critical",
        (),
        ("delays",),
        "longest path of the routing-aware QODG (Eq. 1)",
    ),
)

#: Stage specs by name.
STAGE_GRAPH: dict[str, StageSpec] = {spec.name: spec for spec in STAGE_ORDER}


def param_slice(
    params: PhysicalParams, aspects: Iterable[str]
) -> tuple[Hashable, ...]:
    """The stage-relevant parameter fingerprint: a hashable tuple holding
    exactly the values of the requested aspects.

    Two parameter sets that agree on a stage's (transitive) aspects
    produce equal slices, so the stage's cache entry is shared between
    them — the mechanism that lets a delay-only sweep skip every stage
    upstream of the node-delay table.
    """
    values: list[Hashable] = []
    for aspect in PARAM_ASPECTS:  # canonical order, whatever the caller's
        if aspect not in aspects:
            continue
        if aspect == "fabric":
            values.append(("fabric", params.fabric.width, params.fabric.height))
        elif aspect == "qubit_speed":
            values.append(("qubit_speed", params.qubit_speed))
        elif aspect == "gate_delays":
            delays = params.delays
            values.append(
                ("gate_delays", delays.h, delays.t, delays.tdg, delays.x,
                 delays.y, delays.z, delays.s, delays.sdg, delays.cnot)
            )
        elif aspect == "channel_capacity":
            values.append(("channel_capacity", params.channel_capacity))
        elif aspect == "t_move":
            values.append(("t_move", params.t_move))
    unknown = set(aspects) - set(PARAM_ASPECTS)
    if unknown:
        raise EstimationError(
            f"unknown parameter aspect(s) {sorted(unknown)}; "
            f"choose from {PARAM_ASPECTS}"
        )
    return tuple(values)


def stage_reads(stage: str) -> frozenset[str]:
    """All parameter aspects a stage depends on, transitively.

    The union of the stage's own ``reads`` and those of every upstream
    stage — the slice its cache key must cover.
    """
    try:
        spec = STAGE_GRAPH[stage]
    except KeyError:
        raise EstimationError(
            f"unknown pipeline stage {stage!r}; "
            f"stages: {', '.join(STAGE_GRAPH)}"
        ) from None
    aspects = set(spec.reads)
    for upstream in spec.after:
        aspects |= stage_reads(upstream)
    return frozenset(aspects)


def stages_invalidated_by(aspects: Iterable[str]) -> frozenset[str]:
    """Stages whose product changes when the given aspects change.

    A stage is invalidated iff its transitive reads intersect the
    changed aspects; everything else can be reused verbatim.  This is
    the contract the parameter-aware cache keys implement, stated as a
    set so tests (and the README table) can assert it directly.
    """
    changed = set(aspects)
    unknown = changed - set(PARAM_ASPECTS)
    if unknown:
        raise EstimationError(
            f"unknown parameter aspect(s) {sorted(unknown)}; "
            f"choose from {PARAM_ASPECTS}"
        )
    return frozenset(
        spec.name for spec in STAGE_ORDER if stage_reads(spec.name) & changed
    )


class ZoneArrays:
    """Vectorized presence zones: Eqs. 6-7 as flat per-qubit arrays.

    The array counterpart of :class:`~repro.core.presence.PresenceZones`
    (the scalar oracle).  Degrees, adjacent-weight sums and zone areas
    are integer-valued, so the weighted-average area is exact — bitwise
    equal to the scalar accumulation regardless of summation order.
    """

    def __init__(self, degrees: np.ndarray, weights: np.ndarray) -> None:
        self.degrees = degrees
        self.weights = weights
        #: ``B_i = M_i + 1`` (Eq. 6).
        self.areas = degrees.astype(float) + 1.0
        self._total_weight = int(weights.sum())
        if self._total_weight > 0:
            self._average_area = (
                float(np.dot(weights.astype(float), self.areas))
                / self._total_weight
            )
        else:
            # No two-qubit operations anywhere: every zone degenerates to
            # the single-ULB zone of the qubit alone.
            self._average_area = 1.0

    @classmethod
    def from_iig(cls, iig: IIG) -> "ZoneArrays":
        """Build from an interaction graph in one pass."""
        degrees, weights = iig.interaction_arrays()
        return cls(degrees, weights)

    @property
    def num_qubits(self) -> int:
        """Number of logical qubits ``Q``."""
        return len(self.degrees)

    @property
    def total_weight(self) -> int:
        """``sum_i sum_j w(e_ij)`` = twice the number of two-qubit ops."""
        return self._total_weight

    @property
    def average_area(self) -> float:
        """``B`` — the weighted-average presence-zone area (Eq. 7)."""
        return self._average_area

    def __len__(self) -> int:
        return len(self.degrees)

    def __repr__(self) -> str:
        return (
            f"ZoneArrays(qubits={len(self.degrees)}, "
            f"B={self._average_area:.3f})"
        )


@dataclass(frozen=True)
class SweepPoint:
    """One row of a batched parameter sweep.

    The model quantities of a :class:`LatencyEstimate` without the
    per-point critical-path backtrack (the batched recurrence computes
    lengths for all points at once; materializing each point's path
    would put the per-point cost right back).
    """

    params: PhysicalParams
    latency: float
    l_avg_cnot: float
    l_avg_one_qubit: float
    d_uncong: float
    average_zone_area: float
    qubit_count: int
    op_count: int

    @property
    def latency_seconds(self) -> float:
        """``D`` converted to seconds (the unit of the paper's Table 2)."""
        return self.latency * 1e-6


def _node_delay_table(
    params: PhysicalParams, l_avg_cnot: float
) -> dict[GateKind, float]:
    """Per-kind node delays: ``d_CNOT + L_CNOT^avg`` / ``d_g + 2 T_move``."""
    one_qubit_routing = params.one_qubit_routing_latency
    table: dict[GateKind, float] = {}
    for kind, base in params.delays.by_kind().items():
        if kind is GateKind.CNOT:
            table[kind] = base + l_avg_cnot
        else:
            table[kind] = base + one_qubit_routing
    return table


def _not_ft_error(kind: GateKind) -> EstimationError:
    return EstimationError(
        f"gate kind {kind.value!r} is not an FT operation; "
        "run synthesize_ft() before estimating"
    )


def _delay_callable(table: dict[GateKind, float]) -> Callable[[Gate], float]:
    def delay(gate: Gate) -> float:
        try:
            return table[gate.kind]
        except KeyError:
            raise _not_ft_error(gate.kind) from None

    # Expose the per-kind table so the critical path resolves every node
    # delay with one gather over the circuit's kind column.
    delay.kind_table = table
    return delay


class StagedPipeline:
    """Evaluate the LEQA stage graph, one point or a whole grid at a time.

    Parameters mirror :class:`~repro.core.estimator.LEQAEstimator`
    (``max_sq_terms``, ``strict_small_zones``, ``truncation_guard``,
    ``queue_model``); ``cache`` is an optional
    :class:`~repro.engine.cache.ArtifactCache` in which every stage is
    memoized under its parameter-slice key.  Without a cache,
    :meth:`run` computes everything fresh (the historical ``estimate()``
    behaviour) and :meth:`sweep` shares stages through a private
    throwaway cache scoped to the one grid.
    """

    def __init__(
        self,
        max_sq_terms: int | None = DEFAULT_MAX_TERMS,
        strict_small_zones: bool = True,
        truncation_guard: bool = True,
        queue_model: str = "mm1",
        cache: "ArtifactCache | None" = None,
    ) -> None:
        self._vec_latencies = vectorized_queue_model(queue_model)
        self._max_sq_terms = max_sq_terms
        self._strict = strict_small_zones
        self._truncation_guard = truncation_guard
        self._queue_model = queue_model
        self._cache = cache

    @property
    def cache(self) -> "ArtifactCache | None":
        """The artifact cache stages are memoized in (``None`` = none)."""
        return self._cache

    # -- stage access -------------------------------------------------------

    def _stage(self, name: str, key: Hashable, builder):
        # One span per actual stage *build*: cache hits skip the span,
        # so ``pipeline.stage.seconds`` measures the analytic work, not
        # dict lookups.
        def timed_build():
            with obs_span(
                f"pipeline.{name}",
                metric="pipeline.stage.seconds",
                stage=name,
            ):
                return builder()

        if self._cache is None:
            return timed_build()
        return self._cache.stage(name, key, timed_build)

    def _iig_stage(self, circuit: Circuit, iig: IIG | None) -> IIG:
        if iig is not None:
            return iig
        if self._cache is not None:
            return self._cache.iig(circuit)
        with obs_span(
            "pipeline.iig", metric="pipeline.stage.seconds", stage="iig"
        ):
            return build_iig(circuit)

    def _zones_stage(self, circuit: Circuit, iig: IIG | None) -> ZoneArrays:
        key = (circuit.content_fingerprint(), "arrays")
        return self._stage(
            "zones",
            key,
            lambda: ZoneArrays.from_iig(self._iig_stage(circuit, iig)),
        )

    def _ham_stage(self, circuit: Circuit, zones: ZoneArrays) -> np.ndarray:
        key = (circuit.content_fingerprint(), self._strict)
        return self._stage(
            "ham",
            key,
            lambda: expected_hamiltonian_paths(
                zones.degrees, zones.areas, strict=self._strict
            ),
        )

    def _uncong_stage(
        self, circuit: Circuit, zones: ZoneArrays, params: PhysicalParams
    ) -> float:
        key = (
            circuit.content_fingerprint(),
            self._strict,
            param_slice(params, stage_reads("uncong")),
        )

        def build() -> float:
            lengths = self._ham_stage(circuit, zones)
            degrees = zones.degrees
            weights = zones.weights
            active = (weights > 0) & (degrees > 0)
            if not np.any(active):
                return 0.0
            speed = params.qubit_speed
            # Eq. 16 per qubit, then the weighted mean of Eq. 12.
            d_uncong_i = lengths[active] / (speed * degrees[active])
            active_weights = weights[active].astype(float)
            return float(
                np.dot(active_weights, d_uncong_i) / active_weights.sum()
            )

        return self._stage("uncong", key, build)

    def _coverage_series(
        self, num_zones: int, params: PhysicalParams, area: float,
        max_terms: int | None,
    ) -> Sequence[float]:
        fabric = params.fabric
        if self._cache is not None:
            return self._cache.coverage_series(
                num_zones, fabric.width, fabric.height, area, max_terms
            )
        return expected_coverage_surfaces(
            num_zones=num_zones,
            width=fabric.width,
            height=fabric.height,
            area=area,
            max_terms=max_terms,
        )

    def _queueing_stage(
        self,
        circuit: Circuit,
        zones: ZoneArrays,
        d_uncong: float,
        params: PhysicalParams,
    ) -> tuple[float, tuple[float, ...]]:
        key = (
            circuit.content_fingerprint(),
            self._strict,
            self._max_sq_terms,
            self._truncation_guard,
            self._queue_model,
            param_slice(params, stage_reads("queueing")),
        )

        def build() -> tuple[float, tuple[float, ...]]:
            num_qubits = circuit.num_qubits
            if num_qubits == 0:
                return 0.0, ()
            area = zones.average_area
            surfaces = np.asarray(
                self._coverage_series(
                    num_qubits, params, area, self._max_sq_terms
                )
            )
            fabric = params.fabric
            truncated = (
                self._truncation_guard
                and self._max_sq_terms is not None
                and num_qubits > self._max_sq_terms
            )
            if truncated:
                # Same robustness guard as the scalar oracle: fall back
                # to the exact series when the truncation captures less
                # than half of the occupied surface.
                unoccupied = expected_coverage_surface(
                    0, num_qubits, fabric.width, fabric.height, area
                )
                occupied = fabric.area - unoccupied
                if occupied > 0 and surfaces.sum() < 0.5 * occupied:
                    surfaces = np.asarray(
                        self._coverage_series(num_qubits, params, area, None)
                    )
            overlaps = np.arange(1, len(surfaces) + 1)
            d_q = self._vec_latencies(
                overlaps, d_uncong, params.channel_capacity
            )
            total_surface = float(surfaces.sum())
            surface_tuple = tuple(float(s) for s in surfaces)
            if total_surface == 0.0:
                return 0.0, surface_tuple
            return (
                float(np.dot(surfaces, d_q)) / total_surface,
                surface_tuple,
            )

        return self._stage("queueing", key, build)

    # -- entry points -------------------------------------------------------

    def run(
        self,
        circuit: Circuit,
        params: PhysicalParams,
        iig: IIG | None = None,
        qodg: QODG | None = None,
        started: float | None = None,
    ) -> "LatencyEstimate":
        """Evaluate one parameter point, with the full critical path.

        Stages are pulled through the cache (when present) under their
        parameter-slice keys; the critical path itself runs the scalar
        single-pass sweep so the result carries the complete
        :class:`~repro.qodg.critical_path.CriticalPathResult`.
        """
        from .estimator import LatencyEstimate

        if started is None:
            started = time.perf_counter()
        zones = self._zones_stage(circuit, iig)
        d_uncong = self._uncong_stage(circuit, zones, params)
        l_avg_cnot, surfaces = self._queueing_stage(
            circuit, zones, d_uncong, params
        )
        table = _node_delay_table(params, l_avg_cnot)
        delay = _delay_callable(table)
        # The critical path is deliberately NOT cached: distinct parameter
        # points almost never repeat a delay table exactly, and each
        # materialized CriticalPathResult holds the whole gate path —
        # retaining one per point would grow a session cache forever for
        # entries that are never looked up again.
        with obs_span(
            "pipeline.critical",
            metric="pipeline.stage.seconds",
            stage="critical",
        ):
            if qodg is not None:
                result = critical_path(qodg, delay)
            else:
                result = sweep_critical_path(circuit, delay)
        elapsed = time.perf_counter() - started
        return LatencyEstimate(
            latency=result.length,
            l_avg_cnot=l_avg_cnot,
            l_avg_one_qubit=params.one_qubit_routing_latency,
            d_uncong=d_uncong,
            average_zone_area=zones.average_area,
            coverage_surfaces=surfaces,
            critical=result,
            qubit_count=circuit.num_qubits,
            op_count=len(circuit),
            elapsed_seconds=elapsed,
        )

    def sweep(
        self,
        circuit: Circuit,
        params_list: Iterable[PhysicalParams],
        iig: IIG | None = None,
    ) -> list[SweepPoint]:
        """Evaluate one circuit across a parameter grid, incrementally.

        Parameter-independent stages run once; parameter-reading stages
        run once per *distinct slice* of the aspects they read (a
        delay-only Table-1 sensitivity grid therefore builds zones,
        Hamiltonian paths and the coverage series exactly once); and the
        critical-path recurrence runs **batched** — a single forward
        pass over the gates computes every point's length simultaneously.
        Per-point latencies are bitwise equal to
        :meth:`run`'s on the same parameters.
        """
        grid = list(params_list)
        if not grid:
            return []
        if self._cache is None:
            # Share stages across the grid through a throwaway cache.
            from ..engine.cache import ArtifactCache

            worker = StagedPipeline(
                max_sq_terms=self._max_sq_terms,
                strict_small_zones=self._strict,
                truncation_guard=self._truncation_guard,
                queue_model=self._queue_model,
                cache=ArtifactCache(),
            )
            return worker.sweep(circuit, grid, iig=iig)
        zones = self._zones_stage(circuit, iig)
        rows: list[tuple[PhysicalParams, float, float, dict[GateKind, float]]]
        rows = []
        for params in grid:
            d_uncong = self._uncong_stage(circuit, zones, params)
            l_avg_cnot, _ = self._queueing_stage(
                circuit, zones, d_uncong, params
            )
            rows.append(
                (params, d_uncong, l_avg_cnot,
                 _node_delay_table(params, l_avg_cnot))
            )
        delays = np.stack(
            [kind_delay_lut(table) for _, _, _, table in rows], axis=1
        )
        gates = circuit.table()
        missing = first_missing_kind(delays, gates.kind)
        if missing is not None:
            raise _not_ft_error(missing)
        lengths = sweep_critical_path_lengths(gates, delays)
        return [
            SweepPoint(
                params=params,
                latency=float(lengths[index]),
                l_avg_cnot=l_avg_cnot,
                l_avg_one_qubit=params.one_qubit_routing_latency,
                d_uncong=d_uncong,
                average_zone_area=zones.average_area,
                qubit_count=circuit.num_qubits,
                op_count=len(circuit),
            )
            for index, (params, d_uncong, l_avg_cnot, _) in enumerate(rows)
        ]


def sweep_estimates(
    circuit: Circuit,
    params_list: Iterable[PhysicalParams],
    cache: "ArtifactCache | None" = None,
    **options: object,
) -> list[SweepPoint]:
    """One-shot convenience wrapper: batched sweep over a parameter grid.

    ``options`` forward to :class:`StagedPipeline` (``max_sq_terms``,
    ``strict_small_zones``, ``truncation_guard``, ``queue_model``).
    """
    return StagedPipeline(cache=cache, **options).sweep(circuit, params_list)
