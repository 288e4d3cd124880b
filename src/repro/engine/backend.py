"""Backend protocol and registry: one interface over every evaluator.

LEQA (:class:`~repro.core.estimator.LEQAEstimator`) and the QSPR-class
mapper (:class:`~repro.qspr.mapper.QSPRMapper`) answer the same question
— "what is the latency of this circuit on this fabric?" — through
different machinery and at a ~1000x runtime gap.  The :class:`Backend`
protocol puts both behind ``run(circuit) -> BackendResult`` so sweeps,
benchmarks and the CLI can fan work out without caring which engine
produced a number.

Backends are looked up by name through a registry::

    backend = get_backend("leqa", params=params, cache=cache)
    result = backend.run(circuit)

and a new variant is a one-line registration, e.g. the M/D/1-queue
estimator ablation shipped by default::

    register_backend("leqa-md1", lambda **kw: LEQABackend(queue_model="md1", **kw))

Adapters accept an optional :class:`~repro.engine.cache.ArtifactCache`.
The LEQA adapter routes through the staged analytic pipeline
(:mod:`repro.core.pipeline`): with a cache attached, every stage — IIG,
zones, Hamiltonian paths, uncongested latency, coverage series, queueing
— is memoized under its stage-relevant parameter fingerprint, so a batch
whose points vary only downstream parameters skips every upstream stage.
The QSPR adapter reuses the cached IIG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

from ..circuits.circuit import Circuit
from ..core.estimator import LatencyEstimate, LEQAEstimator
from ..exceptions import EngineError
from ..fabric.params import DEFAULT_PARAMS, PhysicalParams
from ..qspr.mapper import MappingResult, QSPRMapper
from .cache import ArtifactCache

__all__ = [
    "BackendResult",
    "Backend",
    "LEQABackend",
    "QSPRBackend",
    "register_backend",
    "get_backend",
    "backend_names",
]


@dataclass(frozen=True)
class BackendResult:
    """Uniform outcome of one backend run.

    Attributes
    ----------
    backend:
        Registry name of the backend that produced the result.
    latency:
        Circuit latency in microseconds (estimated or measured, per
        backend).
    elapsed_seconds:
        Wall-clock seconds the backend spent (Table 3's yardstick).
    qubit_count / op_count:
        Size of the evaluated circuit.
    detail:
        The backend-native result object
        (:class:`~repro.core.estimator.LatencyEstimate` or
        :class:`~repro.qspr.mapper.MappingResult`) for callers that need
        model internals.
    """

    backend: str
    latency: float
    elapsed_seconds: float
    qubit_count: int
    op_count: int
    detail: object

    @property
    def latency_seconds(self) -> float:
        """Latency converted to seconds (the unit of the paper's Table 2)."""
        return self.latency * 1e-6


@runtime_checkable
class Backend(Protocol):
    """Anything that can evaluate a circuit's latency.

    Implementations carry a ``name`` (their registry id) and map an FT
    circuit to a :class:`BackendResult`.
    """

    name: str

    def run(self, circuit: Circuit) -> BackendResult:
        """Evaluate one circuit."""
        ...


class LEQABackend:
    """Adapter putting :class:`LEQAEstimator` behind the engine protocol.

    Keyword options are forwarded to the estimator (``max_sq_terms``,
    ``strict_small_zones``, ``truncation_guard``, ``queue_model``), so
    registry variants can pin any of them.
    """

    name = "leqa"

    def __init__(
        self,
        params: PhysicalParams = DEFAULT_PARAMS,
        cache: ArtifactCache | None = None,
        **options: object,
    ) -> None:
        self._estimator = LEQAEstimator(params=params, cache=cache, **options)
        self._cache = cache
        # Canonical token of the estimator options: part of the
        # ``estimate`` stage key, so variants (md1 queueing, exact
        # series) never share a memoized record.
        self._options_token = tuple(sorted(options.items()))

    @property
    def params(self) -> PhysicalParams:
        """The physical parameter set in use."""
        return self._estimator.params

    def run(self, circuit: Circuit) -> BackendResult:
        """Run LEQA through the staged pipeline.

        With a cache attached the whole :class:`LatencyEstimate` is
        memoized in the ``estimate`` stage under the circuit content
        plus the option/parameter fingerprint — a repeated sweep point
        (or a warm persistent store) is a pure lookup.  On a miss the
        pipeline memoizes every stage under its parameter-slice key,
        the IIG included.
        """
        import time

        from ..obs import span as obs_span

        def timed_estimate() -> LatencyEstimate:
            with obs_span(
                "pipeline.estimate",
                metric="pipeline.stage.seconds",
                stage="estimate",
                backend=self.name,
            ):
                return self._estimator.estimate(circuit)

        started = time.perf_counter()
        if self._cache is None:
            estimate: LatencyEstimate = timed_estimate()
        else:
            from .cache import params_fingerprint

            key = (
                circuit.content_fingerprint(),
                self._options_token,
                params_fingerprint(self._estimator.params),
            )
            estimate = self._cache.stage("estimate", key, timed_estimate)
        # Report the wall this run actually spent: on a miss that is the
        # build (plus lookup noise); on a memory/store hit it is the
        # lookup itself, not the original build's elapsed_seconds — a
        # warm sweep's per-point timings must sum to its real wall.
        # The memoized estimate keeps its own build time in
        # ``detail.elapsed_seconds``.
        return BackendResult(
            backend=self.name,
            latency=estimate.latency,
            elapsed_seconds=time.perf_counter() - started,
            qubit_count=estimate.qubit_count,
            op_count=estimate.op_count,
            detail=estimate,
        )


class QSPRBackend:
    """Adapter putting :class:`QSPRMapper` behind the engine protocol.

    Keyword options are forwarded to the mapper (``placement``,
    ``routing``, ``seed``, ``record_trace``, ``scheduling``, ``engine``).
    The cache, when given, is attached to the mapper itself, so the IIG,
    placements and schedules all become staged artifacts — a fabric-size
    sweep builds the IIG exactly once.
    """

    name = "qspr"

    def __init__(
        self,
        params: PhysicalParams = DEFAULT_PARAMS,
        cache: ArtifactCache | None = None,
        **options: object,
    ) -> None:
        self._mapper = QSPRMapper(params=params, cache=cache, **options)

    @property
    def params(self) -> PhysicalParams:
        """The physical parameter set in use."""
        return self._mapper.params

    def run(self, circuit: Circuit) -> BackendResult:
        """Run the detailed mapper; with a cache it reads the IIG from
        the cache's ``iig`` stage itself."""
        result: MappingResult = self._mapper.map(circuit)
        return BackendResult(
            backend=self.name,
            latency=result.latency,
            elapsed_seconds=result.elapsed_seconds,
            qubit_count=result.qubit_count,
            op_count=result.op_count,
            detail=result,
        )


#: Factories keyed by registry name.  A factory takes the same keyword
#: arguments as the adapter constructors (``params``, ``cache``, plus
#: backend-specific options) and returns a ready-to-run backend.
BackendFactory = Callable[..., Backend]

_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(
    name: str, factory: BackendFactory, *, overwrite: bool = False
) -> None:
    """Register a backend factory under ``name``.

    Raises
    ------
    EngineError
        If the name is taken and ``overwrite`` is not set.
    """
    if not name:
        raise EngineError("backend name must be a non-empty string")
    if name in _REGISTRY and not overwrite:
        raise EngineError(
            f"backend {name!r} is already registered; pass overwrite=True "
            "to replace it"
        )
    _REGISTRY[name] = factory


def get_backend(
    name: str,
    params: PhysicalParams = DEFAULT_PARAMS,
    cache: ArtifactCache | None = None,
    **options: object,
) -> Backend:
    """Instantiate the backend registered under ``name``.

    Raises
    ------
    EngineError
        If no backend is registered under that name.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise EngineError(
            f"unknown backend {name!r}; registered backends: {known}"
        ) from None
    backend = factory(params=params, cache=cache, **options)
    if getattr(backend, "name", None) != name:
        try:
            backend.name = name
        except AttributeError:
            # Read-only name (property / frozen dataclass): the instance
            # keeps its own; the registry name still routed the lookup.
            pass
    return backend


def backend_names() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


register_backend("leqa", LEQABackend)
register_backend("qspr", QSPRBackend)
# The md1-queue estimator variant: exactly the one-line registration the
# registry exists for.
register_backend("leqa-md1", lambda **kw: LEQABackend(queue_model="md1", **kw))
