"""LEQA — the latency estimator of Algorithm 1 (paper section 3.3).

Pipeline, with the paper's line numbers:

1.  build the IIG from the circuit (line 1),
2.  per-qubit degrees, zone areas ``B_i`` and average ``B`` (lines 2-3,
    Eqs. 6-7),
3.  expected Hamiltonian path ``E[l_ham,i]`` and uncongested latency
    ``d_uncong,i = E[l_ham,i] / (v M_i)`` per qubit (lines 4-7,
    Eqs. 15-16), then the weighted average ``d_uncong`` (line 8, Eq. 12),
4.  coverage probabilities ``P_{x,y}`` and expected surfaces ``E[S_q]``
    (lines 9-17, Eqs. 4-5; 20-term truncation),
5.  congested latencies ``d_q`` (Eq. 8) and the average CNOT routing
    latency ``L_CNOT^avg`` (line 18, Eq. 2),
6.  update the QODG node delays — ``d_CNOT + L_CNOT^avg`` for CNOTs,
    ``d_g + 2 T_move`` for one-qubit kinds — and take the critical path
    (lines 19-20, Eq. 1), returning the latency ``D``.

The estimate object keeps every intermediate quantity so benches and tests
can inspect the model, plus the wall-clock time used (the paper's Table 3
compares estimator runtime against the mapper's).

Since the staged-pipeline refactor the default execution path is the
numpy-vectorized stage graph of :mod:`repro.core.pipeline`
(``vectorized=True``); the scalar per-qubit methods on
:class:`LEQAEstimator` remain the paper-faithful **reference oracle**
(``vectorized=False``), and property tests assert both paths agree to
1e-9 on random circuits.  Both hand step 6 the same kind→delay table
(:meth:`LEQAEstimator.node_delay`): Eq. 1 sets a node's delay by its
gate kind alone.  Passing a ``cache``
(:class:`~repro.engine.cache.ArtifactCache`) memoizes every pipeline
stage under parameter-aware keys, so repeated estimates across a sweep
skip all stages whose parameter slice did not change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..circuits.circuit import Circuit
from ..circuits.gates import GateKind
from ..exceptions import EstimationError
from ..fabric.params import DEFAULT_PARAMS, PhysicalParams
from ..qodg.critical_path import CriticalPathResult
from ..qodg.iig import IIG, build_iig
from ..qodg.sweep import sweep_critical_path
from .coverage import (
    DEFAULT_MAX_TERMS,
    expected_coverage_surface,
    expected_coverage_surfaces,
)
from .presence import PresenceZones, compute_zones
from .queueing import congested_latency, congested_latency_md1
from .tsp import expected_hamiltonian_path

__all__ = ["LatencyEstimate", "LEQAEstimator", "estimate_latency"]


@dataclass(frozen=True)
class LatencyEstimate:
    """Full output of one LEQA run.

    Attributes
    ----------
    latency:
        ``D`` — estimated program latency in microseconds.
    l_avg_cnot:
        ``L_CNOT^avg`` — average CNOT routing latency (Eq. 2), µs.
    l_avg_one_qubit:
        ``L_g^avg = 2 T_move`` — one-qubit routing latency, µs.
    d_uncong:
        Average uncongested routing latency (Eq. 12), µs.
    average_zone_area:
        ``B`` (Eq. 7), in ULB units.
    coverage_surfaces:
        The computed ``E[S_q]`` values for ``q = 1..k`` (Eq. 4).
    critical:
        Critical path of the routing-aware QODG, whose per-kind counts are
        the ``N^critical`` terms of Eq. 1.
    qubit_count, op_count:
        Size of the estimated circuit.
    elapsed_seconds:
        Wall-clock time LEQA spent producing this estimate.
    """

    latency: float
    l_avg_cnot: float
    l_avg_one_qubit: float
    d_uncong: float
    average_zone_area: float
    coverage_surfaces: tuple[float, ...]
    critical: CriticalPathResult
    qubit_count: int
    op_count: int
    elapsed_seconds: float

    @property
    def latency_seconds(self) -> float:
        """``D`` converted to seconds (the unit of the paper's Table 2)."""
        return self.latency * 1e-6


class LEQAEstimator:
    """Configurable LEQA instance.

    Parameters
    ----------
    params:
        Physical parameters (Table 1 defaults).
    max_sq_terms:
        Truncation of the ``E[S_q]`` series; ``None`` computes all ``Q``
        terms (ablation mode).  Default 20, as in the paper.
    strict_small_zones:
        Paper-faithful handling of degree-1 qubits in Eq. 15 (see
        :func:`repro.core.tsp.expected_hamiltonian_path`).
    truncation_guard:
        When ``True`` (default), fall back to the exact ``E[S_q]`` series
        if the truncated one captures less than half of the occupied
        surface (see :meth:`average_cnot_latency`).  Disable to study the
        raw truncation behaviour (the C3 ablation does).
    queue_model:
        Channel-congestion model: ``"mm1"`` (Eq. 8, the paper's) or
        ``"md1"`` (deterministic service; see
        :func:`repro.core.queueing.congested_latency_md1`).
    vectorized:
        When ``True`` (default), :meth:`estimate` evaluates the numpy
        stage graph of :mod:`repro.core.pipeline`; ``False`` runs the
        scalar per-qubit reference loops (the oracle the property tests
        compare against).  Both agree to 1e-9.
    cache:
        Optional :class:`~repro.engine.cache.ArtifactCache`; when given,
        every vectorized stage is memoized under its parameter-slice key
        so sweeps sharing the cache skip unchanged stages.
    """

    def __init__(
        self,
        params: PhysicalParams = DEFAULT_PARAMS,
        max_sq_terms: int | None = DEFAULT_MAX_TERMS,
        strict_small_zones: bool = True,
        truncation_guard: bool = True,
        queue_model: str = "mm1",
        vectorized: bool = True,
        cache: object | None = None,
    ) -> None:
        if queue_model == "mm1":
            self._congested_latency = congested_latency
        elif queue_model == "md1":
            self._congested_latency = congested_latency_md1
        else:
            raise EstimationError(
                f"unknown queue model {queue_model!r}; choose 'mm1' or 'md1'"
            )
        self._params = params
        self._max_sq_terms = max_sq_terms
        self._strict = strict_small_zones
        self._truncation_guard = truncation_guard
        self._queue_model = queue_model
        self._vectorized = vectorized
        self._cache = cache
        self._pipeline = None

    @property
    def params(self) -> PhysicalParams:
        """The physical parameter set in use."""
        return self._params

    def pipeline(self):
        """The :class:`~repro.core.pipeline.StagedPipeline` this estimator
        evaluates in vectorized mode (built lazily, shares the cache)."""
        if self._pipeline is None:
            from .pipeline import StagedPipeline

            self._pipeline = StagedPipeline(
                max_sq_terms=self._max_sq_terms,
                strict_small_zones=self._strict,
                truncation_guard=self._truncation_guard,
                queue_model=self._queue_model,
                cache=self._cache,
            )
        return self._pipeline

    # -- model stages (exposed for tests and ablations) --------------------

    def uncongested_latency(self, zones: PresenceZones) -> float:
        """Lines 4-8: per-qubit ``d_uncong,i`` folded into ``d_uncong``.

        Implements Eq. 16 per qubit and the weighted average of Eq. 12.
        Qubits with zero interaction weight do not contribute (their zones
        never route a CNOT).
        """
        speed = self._params.qubit_speed
        numerator = 0.0
        denominator = 0.0
        for zone in zones.zones:
            if zone.weight == 0 or zone.degree == 0:
                continue
            path_length = expected_hamiltonian_path(
                zone.degree, zone.area, strict=self._strict
            )
            d_uncong_i = path_length / (speed * zone.degree)
            numerator += zone.weight * d_uncong_i
            denominator += zone.weight
        if denominator == 0.0:
            return 0.0
        return numerator / denominator

    def average_cnot_latency(
        self, num_qubits: int, zones: PresenceZones, d_uncong: float
    ) -> tuple[float, tuple[float, ...]]:
        """Lines 9-18: Eq. 2's ``L_CNOT^avg`` plus the ``E[S_q]`` series.

        Robustness guard (documented deviation): when the fabric is so
        crowded that typical overlap counts exceed the truncation (all the
        probability mass of Eq. 4 sits beyond ``max_terms``), the truncated
        series captures almost none of the occupied surface and Eq. 2's
        normalized average would be meaningless.  If the computed terms
        cover less than half of the occupied surface ``A - E[S_0]``, the
        exact full series is used instead.  On the paper's 60x60 fabric and
        benchmarks the guard never triggers; it matters for fabric-sizing
        sweeps that visit very small grids.
        """
        if num_qubits == 0:
            return 0.0, ()
        fabric = self._params.fabric
        surfaces = expected_coverage_surfaces(
            num_zones=num_qubits,
            width=fabric.width,
            height=fabric.height,
            area=zones.average_area,
            max_terms=self._max_sq_terms,
        )
        truncated = (
            self._truncation_guard
            and self._max_sq_terms is not None
            and num_qubits > self._max_sq_terms
        )
        if truncated:
            unoccupied = expected_coverage_surface(
                0, num_qubits, fabric.width, fabric.height,
                zones.average_area,
            )
            occupied = fabric.area - unoccupied
            if occupied > 0 and sum(surfaces) < 0.5 * occupied:
                surfaces = expected_coverage_surfaces(
                    num_zones=num_qubits,
                    width=fabric.width,
                    height=fabric.height,
                    area=zones.average_area,
                    max_terms=None,
                )
        capacity = self._params.channel_capacity
        weighted = 0.0
        total_surface = 0.0
        for index, surface in enumerate(surfaces):
            overlap = index + 1
            weighted += surface * self._congested_latency(
                overlap, d_uncong, capacity
            )
            total_surface += surface
        if total_surface == 0.0:
            return 0.0, tuple(surfaces)
        return weighted / total_surface, tuple(surfaces)

    def node_delay(self, l_avg_cnot: float) -> dict[GateKind, float]:
        """Kind→delay table of the routing-aware critical path (Eq. 1).

        CNOT nodes cost ``d_CNOT + L_CNOT^avg``; one-qubit nodes cost
        ``d_g + 2 T_move``.  Delegates to the pipeline's shared table
        builder so the scalar oracle and the vectorized stage graph apply
        one rule.
        """
        from .pipeline import node_delay

        return node_delay(self._params, l_avg_cnot)

    # -- entry points -------------------------------------------------------

    def estimate(
        self, circuit: Circuit, iig: IIG | None = None
    ) -> LatencyEstimate:
        """Estimate the latency of an FT circuit (Algorithm 1).

        Uses the single-pass critical-path sweep, which is equivalent to
        (but faster than) materializing the QODG.

        ``iig`` accepts a prebuilt interaction graph of the same circuit
        (a register mismatch raises), skipping line 1 of the algorithm;
        with a cache the pipeline reads the cache's own IIG instead.
        """
        started = time.perf_counter()
        if self._vectorized:
            return self.pipeline().run(
                circuit, self._params, iig=iig, started=started
            )
        return self._run(circuit, iig, started)

    def _run(
        self, circuit: Circuit, iig: IIG | None, started: float
    ) -> LatencyEstimate:
        # Scalar reference path (vectorized=False): the paper's Algorithm 1
        # with per-qubit Python loops, kept as the oracle the vectorized
        # stage graph is property-tested against.  It rejects what the
        # pipeline rejects, with the same errors.
        from .pipeline import require_ft, require_iig_of

        require_ft(circuit.table().kind)
        require_iig_of(circuit, iig)
        if iig is None:
            iig = build_iig(circuit)
        zones = compute_zones(iig)                       # lines 1-3
        d_uncong = self.uncongested_latency(zones)       # lines 4-8
        l_avg_cnot, surfaces = self.average_cnot_latency(  # lines 9-18
            circuit.num_qubits, zones, d_uncong
        )
        delays = self.node_delay(l_avg_cnot)             # lines 19-20
        result = sweep_critical_path(circuit, delays)
        elapsed = time.perf_counter() - started
        return LatencyEstimate(
            latency=result.length,
            l_avg_cnot=l_avg_cnot,
            l_avg_one_qubit=self._params.one_qubit_routing_latency,
            d_uncong=d_uncong,
            average_zone_area=zones.average_area,
            coverage_surfaces=surfaces,
            critical=result,
            qubit_count=circuit.num_qubits,
            op_count=len(circuit),
            elapsed_seconds=elapsed,
        )


def estimate_latency(
    circuit: Circuit,
    params: PhysicalParams = DEFAULT_PARAMS,
    max_sq_terms: int | None = DEFAULT_MAX_TERMS,
    strict_small_zones: bool = True,
    truncation_guard: bool = True,
    queue_model: str = "mm1",
    vectorized: bool = True,
) -> LatencyEstimate:
    """One-shot convenience wrapper around :class:`LEQAEstimator`.

    Exposes the full estimator configuration, including the
    ``truncation_guard`` robustness fallback, the ``queue_model``
    choice (``"mm1"``, the paper's, or ``"md1"``) and the
    ``vectorized``/scalar-oracle toggle.
    """
    estimator = LEQAEstimator(
        params=params,
        max_sq_terms=max_sq_terms,
        strict_small_zones=strict_small_zones,
        truncation_guard=truncation_guard,
        queue_model=queue_model,
        vectorized=vectorized,
    )
    return estimator.estimate(circuit)
