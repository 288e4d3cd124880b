"""Staged analytic pipeline: LEQA as a chain of cached stages.

Algorithm 1 is a chain of analytically distinct products — interaction
graph, presence zones, Hamiltonian-path lengths, uncongested latency,
coverage series, queue-weighted routing latency, node delays, critical
path — and each product reads a different *slice* of
:class:`~repro.fabric.params.PhysicalParams`.  The monolithic
``estimate()`` loop hid that structure, so a parameter sweep that varied
only, say, the gate delays still recomputed zones and coverage series it
provably could not have invalidated.

This module makes the structure first-class:

* each cached stage's key, written next to its builder in
  :meth:`StagedPipeline._point`, is the one statement of what that
  stage depends on: the circuit content, the options and exactly the
  parameter values it (transitively) reads;
* the stage implementations are numpy-vectorized: ``B_i``,
  ``E[l_ham,i]``, ``d_uncong,i`` and ``d_q`` are arrays, the coverage
  series is one 2D log-space evaluation, and a batched sweep runs the
  critical-path recurrence for every parameter point simultaneously;
* :class:`StagedPipeline` evaluates the graph for one parameter set
  (:meth:`~StagedPipeline.run`, returning the familiar
  :class:`~repro.core.estimator.LatencyEstimate`) or for a whole grid
  (:meth:`~StagedPipeline.sweep`, returning light-weight
  :class:`SweepPoint` rows), memoizing the six cached stages in an
  :class:`~repro.engine.cache.ArtifactCache`.  ``run``, each ``sweep`` point
  and :func:`~repro.circuits.stream.estimate_stream` (through
  :func:`model_point`) take one model step to a :class:`ModelPoint`,
  after one FT check (:func:`require_ft`); without a cache no stage
  key is built, and a chunk stream is never hashed.

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

``iig`` through ``queueing`` are cached; the node-delay table and the
critical path are rebuilt at every point.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import FT_KINDS, GateKind
from ..exceptions import EstimationError
from ..fabric.params import PhysicalParams
from ..obs import span as obs_span
from ..qodg.critical_path import (
    CriticalPathResult,
    first_missing_kind,
    kind_delay_lut,
)
from ..qodg.iig import IIG, build_iig
from ..qodg.sweep import sweep_critical_path, sweep_critical_path_lengths
from .coverage import (
    DEFAULT_MAX_TERMS,
    expected_coverage_surface,
    expected_coverage_surfaces,
)
from .estimator import LatencyEstimate
from .queueing import vectorized_queue_model
from .tsp import expected_hamiltonian_paths

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..engine.cache import ArtifactCache

__all__ = [
    "ZoneArrays",
    "SweepPoint",
    "ModelPoint",
    "StagedPipeline",
    "model_point",
    "node_delay",
    "require_ft",
    "require_iig_of",
]

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
        return cls(iig.degrees, iig.weight_sums)

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


def _not_ft_error(kind: GateKind) -> EstimationError:
    return EstimationError(
        f"gate kind {kind.value!r} is not an FT operation; "
        "run synthesize_ft() before estimating"
    )


def node_delay(
    params: PhysicalParams, l_avg_cnot: float
) -> dict[GateKind, float]:
    """Node delays of Eq. 1, per FT kind: ``d_CNOT + L_CNOT^avg`` for
    CNOTs, ``d_g + 2 T_move`` for one-qubit kinds."""
    one_qubit_routing = params.one_qubit_routing_latency
    return {
        kind: base + (l_avg_cnot if kind is GateKind.CNOT
                      else one_qubit_routing)
        for kind, base in params.delays.by_kind().items()
    }


#: Zero at every FT kind's code, NaN elsewhere (see :func:`require_ft`).
_FT_LUT = kind_delay_lut(dict.fromkeys(FT_KINDS, 0.0))


def require_ft(codes: np.ndarray) -> None:
    """Reject a kind-code column (a circuit's or a chunk's) holding a
    gate outside the FT set, naming the first offender's kind."""
    missing = first_missing_kind(_FT_LUT, codes)
    if missing is not None:
        raise _not_ft_error(missing)


def require_iig_of(circuit: Circuit, iig: IIG | None) -> None:
    """Reject a prebuilt IIG whose register is not the circuit's."""
    if iig is not None and iig.num_qubits != circuit.num_qubits:
        raise EstimationError(
            f"prebuilt IIG has {iig.num_qubits} qubits but the circuit "
            f"has {circuit.num_qubits}; it belongs to a different circuit"
        )


@dataclass(frozen=True)
class ModelPoint:
    """Algorithm 1 up to the critical path, at one parameter point:
    zones, ``d_uncong``, ``L_CNOT^avg``, ``L_g^avg``, the ``E[S_q]``
    series and Eq. 1's node delays as one kind→delay table (a node's
    delay depends on its gate kind alone)."""

    zones: ZoneArrays
    d_uncong: float
    l_avg_cnot: float
    l_avg_one_qubit: float
    surfaces: tuple[float, ...]
    delays: dict[GateKind, float]

    def estimate(
        self, critical: CriticalPathResult, op_count: int, started: float
    ) -> LatencyEstimate:
        """The full estimate, given this point's critical path."""
        return LatencyEstimate(
            latency=critical.length,
            l_avg_cnot=self.l_avg_cnot,
            l_avg_one_qubit=self.l_avg_one_qubit,
            d_uncong=self.d_uncong,
            average_zone_area=self.zones.average_area,
            coverage_surfaces=self.surfaces,
            critical=critical,
            qubit_count=self.zones.num_qubits,
            op_count=op_count,
            elapsed_seconds=time.perf_counter() - started,
        )


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

    # -- the model step -----------------------------------------------------

    def _stage(self, name: str, key: Callable[[], Hashable], builder):
        # ``key`` is called only with a cache attached.  One span per
        # actual stage *build*: cache hits skip the span, so
        # ``pipeline.stage.seconds`` measures the analytic work.
        def timed_build():
            with obs_span(
                f"pipeline.{name}",
                metric="pipeline.stage.seconds",
                stage=name,
            ):
                return builder()

        if self._cache is None:
            return timed_build()
        return self._cache.stage(name, key(), timed_build)

    def _zones(
        self, circuit: Circuit, ident: str, iig: IIG | None
    ) -> ZoneArrays:
        """Zones (Eqs. 6-7) from the circuit's IIG.  With a cache they
        only ever build from its content-keyed ``iig`` stage, as
        :meth:`~repro.qspr.mapper.QSPRMapper.map` does: a prebuilt graph
        could otherwise poison every later run of the circuit."""
        require_iig_of(circuit, iig)

        def build() -> ZoneArrays:
            if iig is not None and self._cache is None:
                return ZoneArrays.from_iig(iig)
            return ZoneArrays.from_iig(self._stage(
                "iig", lambda: ident, lambda: build_iig(circuit)
            ))

        return self._stage("zones", lambda: ident, build)

    def _point(
        self, ident: str | None, zones: ZoneArrays, params: PhysicalParams
    ) -> ModelPoint:
        """The model step, Algorithm 1 lines 4-19 at one parameter
        point; ``ident``, the circuit's content fingerprint, heads the
        stage keys (``None`` for a chunk stream, which is never cached)."""
        strict = self._strict
        max_terms = self._max_sq_terms
        num_qubits = zones.num_qubits
        area = zones.average_area
        fabric = params.fabric

        def uncong() -> float:
            lengths = self._stage(
                "ham",
                lambda: (ident, strict),
                lambda: expected_hamiltonian_paths(
                    zones.degrees, zones.areas, strict=strict
                ),
            )
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

        def coverage(terms: int | None) -> np.ndarray:
            # Built inside the queueing stage's span, so it opens none.
            def build() -> tuple[float, ...]:
                return tuple(expected_coverage_surfaces(
                    num_zones=num_qubits,
                    width=fabric.width,
                    height=fabric.height,
                    area=area,
                    max_terms=terms,
                ))

            if self._cache is None:
                return np.asarray(build())
            key = (num_qubits, fabric.width, fabric.height, float(area), terms)
            return np.asarray(self._cache.stage("coverage", key, build))

        def queueing() -> tuple[float, tuple[float, ...]]:
            if num_qubits == 0:
                return 0.0, ()
            surfaces = coverage(max_terms)
            truncated = (
                self._truncation_guard
                and max_terms is not None
                and num_qubits > max_terms
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
                    surfaces = coverage(None)
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

        d_uncong = self._stage(
            "uncong",
            lambda: (ident, strict, (("qubit_speed", params.qubit_speed),)),
            uncong,
        )
        l_avg_cnot, surfaces = self._stage(
            "queueing",
            lambda: (ident, strict, max_terms, self._truncation_guard,
                     self._queue_model,
                     (("fabric", fabric.width, fabric.height),
                      ("qubit_speed", params.qubit_speed),
                      ("channel_capacity", params.channel_capacity))),
            queueing,
        )
        return ModelPoint(
            zones, d_uncong, l_avg_cnot, params.one_qubit_routing_latency,
            surfaces, node_delay(params, l_avg_cnot),
        )

    # -- entry points -------------------------------------------------------

    def run(
        self,
        circuit: Circuit,
        params: PhysicalParams,
        iig: IIG | None = None,
        started: float | None = None,
    ) -> LatencyEstimate:
        """Evaluate one parameter point, with the full critical path.

        Stages are pulled through the cache (when present) under their
        parameter-slice keys; the critical path itself runs the scalar
        single-pass sweep so the result carries the complete
        :class:`~repro.qodg.critical_path.CriticalPathResult`.
        """
        if started is None:
            started = time.perf_counter()
        require_ft(circuit.table().kind)
        # Hashed even without a cache: perfbench's circuits.fingerprint
        # layer is measured on this cache-less path (ROADMAP item 3).
        ident = circuit.content_fingerprint()
        point = self._point(ident, self._zones(circuit, ident, iig), params)
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
            result = sweep_critical_path(circuit, point.delays)
        return point.estimate(result, len(circuit), started)

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

            worker = copy.copy(self)
            worker._cache = ArtifactCache()
            return worker.sweep(circuit, grid, iig=iig)
        gates = circuit.table()
        require_ft(gates.kind)
        ident = circuit.content_fingerprint()
        zones = self._zones(circuit, ident, iig)
        points = [self._point(ident, zones, params) for params in grid]
        delays = np.stack(
            [kind_delay_lut(point.delays) for point in points],
            axis=1,
        )
        lengths = sweep_critical_path_lengths(gates, delays)
        return [
            SweepPoint(
                params, length, point.l_avg_cnot, point.l_avg_one_qubit,
                point.d_uncong, zones.average_area, circuit.num_qubits,
                len(circuit),
            )
            for params, point, length in zip(grid, points, lengths.tolist())
        ]


def model_point(
    iig: IIG, params: PhysicalParams, **options: object
) -> ModelPoint:
    """The model step on an IIG in hand, uncached: the streamed
    estimate's entry, as a chunk stream has no content key.  ``options``
    forward to :class:`StagedPipeline`."""
    pipeline = StagedPipeline(cache=None, **options)
    zones = pipeline._stage(
        "zones", lambda: None, lambda: ZoneArrays.from_iig(iig)
    )
    return pipeline._point(None, zones, params)

