"""Staged, content-hash-keyed artifact cache for the execution engine.

A parameter sweep revisits the same intermediate products over and over:
the synthesis-level circuit, its FT netlist, the interaction graph (IIG),
the presence zones and the coverage-surface series.  Varying only the
fabric size invalidates *none* of the first four — yet the naive
per-point loop rebuilds all of them every time.  :class:`ArtifactCache`
memoizes each pipeline stage under a key derived from the *content* that
stage actually depends on:

=============  ======================================================
stage          key
=============  ======================================================
``circuit``    the :class:`~repro.engine.spec.CircuitSpec` (ft=False)
``ft``         the spec including FT-synthesis flags
``iig``        content hash of the gate list
``zones``      content hash of the gate list
``coverage``   ``(num_zones, width, height, area, max_terms)``
``ham``        content hash + estimator options
``uncong``     content hash + options + the ``qubit_speed`` slice
``queueing``   content hash + options + speed/fabric/capacity slices
``placement``  content hash + strategy/seed + fabric geometry
``schedule``   content hash + full parameter fingerprint + mapper options
``estimate``   content hash + estimator options + parameter fingerprint
=============  ======================================================

so a fabric-size sweep reuses the netlist, IIG and zones across every
point, and two specs that build byte-identical circuits share the
downstream artifacts even if their sources differ.

The ``placement``/``schedule`` stages belong to the detailed QSPR-class
mapper (:class:`~repro.qspr.mapper.QSPRMapper`), which also reads the
``iig`` stage: a fabric-size sweep builds the IIG once, while placements
and schedules key on the geometry and parameter slices they read.  The
mapper's compiled op arrays are not a stage; the ``schedule`` builder
compiles them, so a cached schedule compiles nothing.

The ``zones``–``queueing`` stages belong to the staged analytic pipeline
(:mod:`repro.core.pipeline`), which keys each entry by the
*stage-relevant parameter fingerprint* — the slice of
:class:`~repro.fabric.params.PhysicalParams` the stage transitively
reads, written inline in
:meth:`~repro.core.pipeline.StagedPipeline._point`.  A sweep that varies
only downstream parameters (say, gate delays) therefore skips every
upstream stage.  They, like the mapper's, are reached through the
generic :meth:`ArtifactCache.stage` accessor; ``zones`` builds from
this cache's ``iig`` entry.

The ``estimate`` stage memoizes whole
:class:`~repro.core.estimator.LatencyEstimate` records under the circuit
content plus the full parameter/option fingerprint — the terminal
artifact of the LEQA path, which makes a repeated sweep point a pure
lookup.

The cache is thread-safe and build-once under concurrency: per-key locks
guarantee a stage is computed by exactly one thread while others wait for
the value (the property the engine benchmark asserts).

Two optional tiers extend the in-memory dict:

* ``max_entries`` bounds the memory tier with LRU eviction (hits refresh
  recency), so long-lived servers don't grow without limit; evictions
  are counted per stage in :meth:`ArtifactCache.stats`.
* ``store`` attaches a persistent
  :class:`~repro.store.ArtifactStore` tier: misses fall through
  memory → disk → build, builds are serialized across *processes* by the
  store's advisory file locks, and every artifact the store's codec
  supports is published for the next process.  Without a store, worker
  processes each hold their own cache — content hashing keeps them
  consistent, not shared.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Hashable, TypeVar

from ..circuits.circuit import Circuit
from ..exceptions import EngineError
from ..fabric.params import PhysicalParams
from ..obs import default_registry as _obs_registry
from ..qodg.iig import IIG, build_iig
from .spec import CircuitSpec

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "STAGE_NAMES",
    "params_fingerprint",
]

_T = TypeVar("_T")

#: Stage names in pipeline order (also the order ``CacheStats`` reports).
_STAGES = (
    "circuit",
    "ft",
    "iig",
    "zones",
    "ham",
    "uncong",
    "coverage",
    "queueing",
    "placement",
    "schedule",
    "estimate",
)

#: Public alias of the stage-name tuple (CLI stats tables and tests).
STAGE_NAMES = _STAGES


def _known_stage(name: str) -> str:
    """``name`` itself, or :class:`EngineError` naming the known stages."""
    if name not in _STAGES:
        known = ", ".join(_STAGES)
        raise EngineError(
            f"unknown cache stage {name!r}; known stages: {known}"
        )
    return name


def params_fingerprint(params: PhysicalParams) -> str:
    """Content hash of a physical-parameter set.

    ``PhysicalParams`` is a frozen dataclass tree of ints and floats, so
    its ``repr`` is canonical; hashing it gives a stable key for
    param-dependent artifacts.
    """
    return hashlib.blake2b(repr(params).encode(), digest_size=16).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Per-stage counters of one cache's activity.

    A *hit* was served from the memory tier, a *store hit* from the
    attached persistent store, and a *miss* ran the builder in this
    process (the store may still have published another process's build
    concurrently — the store's own stats disambiguate).  *Evictions*
    count memory-tier entries dropped by the ``max_entries`` LRU cap.

    Every count accessor raises :class:`~repro.exceptions.EngineError`
    for a name outside :data:`STAGE_NAMES`, so an assertion about a stage
    that does not exist fails instead of reading 0 forever.
    """

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    store_hits: dict[str, int] = field(default_factory=dict)
    evictions: dict[str, int] = field(default_factory=dict)

    def hit_count(self, stage: str) -> int:
        """Number of lookups served from the memory tier for one stage."""
        return self.hits.get(_known_stage(stage), 0)

    def miss_count(self, stage: str) -> int:
        """Number of lookups that had to build the artifact for one stage."""
        return self.misses.get(_known_stage(stage), 0)

    def store_hit_count(self, stage: str) -> int:
        """Number of lookups served from the persistent store tier."""
        return self.store_hits.get(_known_stage(stage), 0)

    def eviction_count(self, stage: str) -> int:
        """Number of memory-tier entries evicted by the LRU cap."""
        return self.evictions.get(_known_stage(stage), 0)

    def as_dict(self) -> dict[str, dict[str, int]]:
        """Machine-readable form (the CLI's ``--json`` payload)."""
        return {
            stage: {
                "hits": self.hit_count(stage),
                "misses": self.miss_count(stage),
                "store_hits": self.store_hit_count(stage),
                "evictions": self.eviction_count(stage),
            }
            for stage in _STAGES
        }


class ArtifactCache:
    """Build-once store for the engine's staged pipeline artifacts.

    Parameters
    ----------
    max_entries:
        Optional cap on the in-memory tier.  When set, inserting beyond
        the cap evicts the least-recently-used entries (hits refresh
        recency); evicted artifacts rebuild — or reload from the store
        tier — on their next lookup.
    store:
        Optional persistent :class:`~repro.store.ArtifactStore`.  Misses
        fall through memory → disk → build; artifacts the store codec
        supports are published after a build, so later *processes*
        warm-start from them.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        store: "object | None" = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise EngineError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._lock = threading.RLock()
        self._key_locks: dict[tuple[str, Hashable], threading.Lock] = {}
        self._store: dict[tuple[str, Hashable], object] = {}
        self._max_entries = max_entries
        self._disk = store
        self._hits: dict[str, int] = dict.fromkeys(_STAGES, 0)
        self._misses: dict[str, int] = dict.fromkeys(_STAGES, 0)
        self._store_hits: dict[str, int] = dict.fromkeys(_STAGES, 0)
        self._evictions: dict[str, int] = dict.fromkeys(_STAGES, 0)

    @property
    def store(self) -> "object | None":
        """The persistent store tier (``None`` when memory-only)."""
        return self._disk

    def _insert(self, slot: tuple[str, Hashable], value: object) -> None:
        """Insert into the memory tier, evicting LRU entries past the cap.

        Must run under ``self._lock``.  The dict's insertion order is the
        recency order: hits re-insert their slot at the back, so the
        front is always the least recently used.
        """
        self._store[slot] = value
        if self._max_entries is None:
            return
        while len(self._store) > self._max_entries:
            victim = next(iter(self._store))
            del self._store[victim]
            # Dropping the victim's key lock keeps the lock table bounded
            # too; a builder currently holding it simply finishes and
            # re-inserts (correctness is unaffected — the next lookup
            # takes a fresh lock).
            self._key_locks.pop(victim, None)
            self._evictions[victim[0]] += 1
            _obs_registry().inc("cache.eviction", stage=victim[0])

    def _get_or_build(
        self, stage: str, key: Hashable, builder: Callable[[], _T]
    ) -> _T:
        """Return the cached artifact, building it at most once per key.

        The build runs under a per-key lock so concurrent threads asking
        for the same artifact wait for the single build instead of
        duplicating it; distinct keys build concurrently.  With a store
        attached, the build additionally runs under the store's per-key
        advisory *file* lock, extending build-once across processes.
        """
        slot = (stage, key)
        with self._lock:
            key_lock = self._key_locks.setdefault(slot, threading.Lock())
        with key_lock:
            with self._lock:
                if slot in self._store:
                    self._hits[stage] += 1
                    value = self._store[slot]
                    if self._max_entries is not None:
                        del self._store[slot]  # refresh LRU recency
                        self._store[slot] = value
                    _obs_registry().inc("cache.hit", stage=stage)
                    return value  # type: ignore[return-value]
            if self._disk is not None:
                value, from_store = self._disk.fetch_or_build(
                    stage, key, builder
                )
                with self._lock:
                    self._insert(slot, value)
                    if from_store:
                        self._store_hits[stage] += 1
                    else:
                        self._misses[stage] += 1
                _obs_registry().inc(
                    "cache.store_hit" if from_store else "cache.miss",
                    stage=stage,
                )
                return value  # type: ignore[return-value]
            value = builder()
            with self._lock:
                self._insert(slot, value)
                self._misses[stage] += 1
            _obs_registry().inc("cache.miss", stage=stage)
            return value

    # -- generic stage access ----------------------------------------------

    def stage(self, name: str, key: Hashable, builder: Callable[[], _T]) -> _T:
        """Memoize an arbitrary pipeline stage under an explicit key.

        The entry point :mod:`repro.core.pipeline` uses for its stages
        from ``zones`` on: the caller supplies the key (typically a
        circuit fingerprint plus the stage-relevant parameter slice) and
        the builder runs at most once per key, with the same build-once
        concurrency guarantee as the named accessors.

        Raises
        ------
        EngineError
            If ``name`` is not a known stage (stats would silently
            miscount otherwise).
        """
        return self._get_or_build(_known_stage(name), key, builder)

    # -- pipeline stages ----------------------------------------------------

    def circuit(self, spec: CircuitSpec) -> Circuit:
        """Stage 1: the synthesis-level circuit named by ``spec``."""
        raw = CircuitSpec(spec.source, ft=False)
        return self._get_or_build("circuit", raw, raw.load)

    def ft_circuit(self, spec: CircuitSpec) -> Circuit:
        """Stage 2: the fault-tolerant netlist (FT synthesis on stage 1).

        Already-FT sources (e.g. an FT netlist file) pass through without
        a second synthesis.  Keyed per ``(source, share_ancillas)`` —
        one lowering per member however many parameter points a batch
        sweep visits it at (the property the workload tests assert).
        """
        from ..circuits.decompose import synthesize_ft

        def build_ft() -> Circuit:
            circuit = self.circuit(spec)
            if circuit.is_ft():
                return circuit
            return synthesize_ft(
                circuit, share_ancillas=spec.share_ancillas
            )

        key = (spec.source, spec.share_ancillas)
        return self._get_or_build("ft", key, build_ft)

    def iig(self, circuit: Circuit) -> IIG:
        """Stage 3: interaction intensity graph, keyed on circuit content."""
        key = circuit.content_fingerprint()
        return self._get_or_build("iig", key, lambda: build_iig(circuit))

    # -- introspection ------------------------------------------------------

    def stats(self) -> CacheStats:
        """Snapshot of the per-stage hit/miss counters."""
        with self._lock:
            return CacheStats(
                hits=dict(self._hits),
                misses=dict(self._misses),
                store_hits=dict(self._store_hits),
                evictions=dict(self._evictions),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def clear(self) -> None:
        """Drop every artifact and reset the counters.

        Key locks are deliberately retained: a build in flight on another
        thread still holds its per-key lock, and discarding the lock
        table would let a new thread start a duplicate build for the same
        slot.  An in-flight build finishes and re-inserts its artifact
        after the clear — ``clear()`` is a reset point, not a barrier for
        concurrent builders.
        """
        with self._lock:
            self._store.clear()
            self._hits = dict.fromkeys(_STAGES, 0)
            self._misses = dict.fromkeys(_STAGES, 0)
            self._store_hits = dict.fromkeys(_STAGES, 0)
            self._evictions = dict.fromkeys(_STAGES, 0)
