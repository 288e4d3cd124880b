"""Typed binary codec for the persistent artifact store.

Every artifact the staged pipeline produces is, at heart, a handful of
numpy arrays plus a thin shell of scalars — exactly the split the codec
preserves on disk.  An encoded artifact is one ``.npz`` container (the
standard numpy zip format, ``allow_pickle=False`` both ways, so nothing
on the read path can execute code) holding:

* ``__meta__`` — a UTF-8 JSON header as a ``uint8`` array: the artifact
  type tag, the format version and the scalar/string fields;
* one entry per payload array, written with numpy's own ``.npy``
  serializer — dtype, shape and byte order survive exactly, which is
  what makes store round-trips *bitwise* (``tests/test_store.py``
  asserts it per artifact type).

Floating-point scalars travel inside arrays, never through JSON text,
so they round-trip bit for bit too.

The codec is a registry: :func:`encode` dispatches on the value's
concrete type, :func:`decode` on the header tag.  Types without an
encoder (e.g. a :class:`~repro.qspr.scheduling.ScheduleResult` carrying
a full execution trace) simply report ``encodable(value) is False`` and
stay in the in-memory cache tier — the store never guesses with pickle.

Supported artifact types map 1:1 onto the cache stages:

==================  ====================================================
tag                 cache stages / value
==================  ====================================================
``gate_table``      flat :class:`~repro.circuits.table.GateTable`
``circuit``         ``circuit`` / ``ft`` (a table-backed Circuit)
``iig``             ``iig`` (CSR arrays, first-interaction order)
``zone_arrays``     ``zones`` (:class:`~repro.core.pipeline.ZoneArrays`)
``ndarray``         ``ham`` (raw float array)
``float``           ``uncong`` (one scalar)
``float_tuple``     ``coverage`` (the ``E[S_q]`` series)
``queueing``        ``queueing`` (``(L_CNOT^avg, surfaces)``)
``placement``       ``placement`` (a ``list[Position]``)
``schedule``        ``schedule`` (trace-free ``ScheduleResult``)
``estimate``        ``estimate`` (full ``LatencyEstimate`` record)
==================  ====================================================
"""

from __future__ import annotations

import io
import json
import zipfile
from typing import Callable

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import GateKind, KIND_CODES, KINDS_BY_CODE
from ..circuits.table import GateTable
from ..core.estimator import LatencyEstimate
from ..core.pipeline import ZoneArrays
from ..exceptions import StoreError
from ..qodg.critical_path import CriticalPathResult
from ..qodg.iig import IIG
from ..qspr.scheduling import ScheduleResult, ScheduleStats

__all__ = ["CODEC_VERSION", "encodable", "encode", "decode"]

#: Format version stamped into every header; decoding a mismatched
#: version raises :class:`StoreError` instead of guessing.
CODEC_VERSION = 1

_META_KEY = "__meta__"

#: What numpy's npz reader, the zip layer under it, the JSON header and a
#: decoder's field lookups raise on a truncated or bit-flipped container
#: (a flipped flag bit reads as encryption, a ``RuntimeError``).
_CORRUPT = (
    zipfile.BadZipFile,
    EOFError,
    KeyError,
    ValueError,
    OSError,
    NotImplementedError,
    RuntimeError,
)


def _pack(tag: str, meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    header = dict(meta)
    header["tag"] = tag
    header["version"] = CODEC_VERSION
    blob = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez(buffer, **{_META_KEY: blob}, **arrays)
    return buffer.getvalue()


def _f64(*values: float) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


# ---------------------------------------------------------------------------
# Per-type encoders
# ---------------------------------------------------------------------------


def _table_payload(table: GateTable) -> tuple[dict, dict[str, np.ndarray]]:
    meta = {"qubit_names": list(table.qubit_names), "name": table.name}
    arrays = {
        "kind": table.kind,
        "ctrl": table.ctrl,
        "ctrl2": table.ctrl2,
        "target": table.target,
        "target2": table.target2,
        "extra_indptr": table.extra_indptr,
        "extra": table.extra,
    }
    return meta, arrays


def _table_from_payload(meta: dict, data) -> GateTable:
    return GateTable(
        kind=data["kind"],
        ctrl=data["ctrl"],
        ctrl2=data["ctrl2"],
        target=data["target"],
        target2=data["target2"],
        extra_indptr=data["extra_indptr"],
        extra=data["extra"],
        qubit_names=tuple(meta["qubit_names"]),
        name=meta["name"],
    )


def _encode_gate_table(table: GateTable) -> bytes:
    meta, arrays = _table_payload(table)
    return _pack("gate_table", meta, arrays)


def _decode_gate_table(meta: dict, data) -> GateTable:
    return _table_from_payload(meta, data)


def _encode_circuit(circuit: Circuit) -> bytes:
    meta, arrays = _table_payload(circuit.table())
    # The fingerprint is pure content (register size + record stream), so
    # shipping it in the header lets warm processes skip re-hashing the
    # whole gate stream before their first content-keyed cache lookup.
    meta["fingerprint"] = circuit.content_fingerprint()
    return _pack("circuit", meta, arrays)


def _decode_circuit(meta: dict, data) -> Circuit:
    table = _table_from_payload(meta, data)
    fingerprint = meta.get("fingerprint")
    if fingerprint:
        # Seed the table's fingerprint memo with the shipped digest.
        table._fingerprint = fingerprint
    return Circuit.from_table(table)


def _encode_iig(iig: IIG) -> bytes:
    return _pack(
        "iig",
        {"num_qubits": iig.num_qubits},
        {
            "indptr": iig.indptr,
            "indices": iig.indices,
            "weights": iig.weights,
        },
    )


def _decode_iig(meta: dict, data) -> IIG:
    return IIG(data["indptr"], data["indices"], data["weights"])


def _encode_zone_arrays(zones: ZoneArrays) -> bytes:
    return _pack(
        "zone_arrays",
        {},
        {"degrees": zones.degrees, "weights": zones.weights},
    )


def _decode_zone_arrays(meta: dict, data) -> ZoneArrays:
    return ZoneArrays(data["degrees"], data["weights"])


def _encode_ndarray(array: np.ndarray) -> bytes:
    return _pack("ndarray", {}, {"value": array})


def _decode_ndarray(meta: dict, data) -> np.ndarray:
    return data["value"]


def _encode_float(value: float) -> bytes:
    return _pack("float", {}, {"value": _f64(value)})


def _decode_float(meta: dict, data) -> float:
    return float(data["value"][0])


def _encode_float_tuple(values: tuple) -> bytes:
    return _pack("float_tuple", {}, {"values": _f64(*values)})


def _decode_float_tuple(meta: dict, data) -> tuple:
    return tuple(data["values"].tolist())


def _encode_queueing(value: tuple) -> bytes:
    scalar, surfaces = value
    return _pack(
        "queueing",
        {},
        {"scalar": _f64(scalar), "surfaces": _f64(*surfaces)},
    )


def _decode_queueing(meta: dict, data) -> tuple:
    return (
        float(data["scalar"][0]),
        tuple(data["surfaces"].tolist()),
    )


def _placement_encodable(value: list) -> bool:
    return all(
        isinstance(position, tuple)
        and len(position) == 2
        and all(isinstance(coord, int) for coord in position)
        for position in value
    )


def _encode_placement(value: list) -> bytes:
    grid = np.asarray(value, dtype=np.int64).reshape(-1, 2)
    return _pack("placement", {}, {"positions": grid})


def _decode_placement(meta: dict, data) -> list:
    return [(int(x), int(y)) for x, y in data["positions"].tolist()]


def _encode_schedule(result: ScheduleResult) -> bytes:
    stats = result.stats
    locations = np.asarray(result.final_locations, dtype=np.int64)
    return _pack(
        "schedule",
        {
            "total_moves": stats.total_moves,
            "total_hops": stats.total_hops,
            "relocations": stats.relocations,
            "cnot_count": stats.cnot_count,
            "one_qubit_count": stats.one_qubit_count,
        },
        {
            "scalars": _f64(result.latency, stats.congestion_wait),
            "finish_times": _f64(*result.finish_times),
            "final_locations": locations.reshape(-1, 2),
        },
    )


def _decode_schedule(meta: dict, data) -> ScheduleResult:
    latency, congestion_wait = (float(v) for v in data["scalars"])
    return ScheduleResult(
        latency=latency,
        finish_times=tuple(data["finish_times"].tolist()),
        final_locations=tuple(
            (int(x), int(y)) for x, y in data["final_locations"].tolist()
        ),
        stats=ScheduleStats(
            total_moves=int(meta["total_moves"]),
            total_hops=int(meta["total_hops"]),
            congestion_wait=congestion_wait,
            relocations=int(meta["relocations"]),
            cnot_count=int(meta["cnot_count"]),
            one_qubit_count=int(meta["one_qubit_count"]),
        ),
        trace=None,
    )


def _encode_estimate(estimate: LatencyEstimate) -> bytes:
    critical = estimate.critical
    kind_codes = np.asarray(
        [KIND_CODES[kind] for kind in critical.counts_by_kind],
        dtype=np.int8,
    )
    kind_counts = np.asarray(
        list(critical.counts_by_kind.values()), dtype=np.int64
    )
    return _pack(
        "estimate",
        {
            "qubit_count": estimate.qubit_count,
            "op_count": estimate.op_count,
            "cnot_count": critical.cnot_count,
        },
        {
            "scalars": _f64(
                estimate.latency,
                estimate.l_avg_cnot,
                estimate.l_avg_one_qubit,
                estimate.d_uncong,
                estimate.average_zone_area,
                estimate.elapsed_seconds,
                critical.length,
            ),
            "coverage": _f64(*estimate.coverage_surfaces),
            "node_ids": np.asarray(critical.node_ids, dtype=np.int64),
            "kind_codes": kind_codes,
            "kind_counts": kind_counts,
        },
    )


def _decode_estimate(meta: dict, data) -> LatencyEstimate:
    (latency, l_avg_cnot, l_avg_one_qubit, d_uncong, average_zone_area,
     elapsed_seconds, length) = (float(v) for v in data["scalars"])
    counts_by_kind: dict[GateKind, int] = {
        KINDS_BY_CODE[code]: int(count)
        for code, count in zip(
            data["kind_codes"].tolist(), data["kind_counts"].tolist()
        )
    }
    critical = CriticalPathResult(
        length=length,
        node_ids=tuple(data["node_ids"].tolist()),
        counts_by_kind=counts_by_kind,
        cnot_count=int(meta["cnot_count"]),
    )
    return LatencyEstimate(
        latency=latency,
        l_avg_cnot=l_avg_cnot,
        l_avg_one_qubit=l_avg_one_qubit,
        d_uncong=d_uncong,
        average_zone_area=average_zone_area,
        coverage_surfaces=tuple(data["coverage"].tolist()),
        critical=critical,
        qubit_count=int(meta["qubit_count"]),
        op_count=int(meta["op_count"]),
        elapsed_seconds=elapsed_seconds,
    )


# ---------------------------------------------------------------------------
# Registry and entry points
# ---------------------------------------------------------------------------

_DECODERS: dict[str, Callable[[dict, object], object]] = {
    "gate_table": _decode_gate_table,
    "circuit": _decode_circuit,
    "iig": _decode_iig,
    "zone_arrays": _decode_zone_arrays,
    "ndarray": _decode_ndarray,
    "float": _decode_float,
    "float_tuple": _decode_float_tuple,
    "queueing": _decode_queueing,
    "placement": _decode_placement,
    "schedule": _decode_schedule,
    "estimate": _decode_estimate,
}


def _is_float_tuple(value: object) -> bool:
    return isinstance(value, tuple) and all(
        isinstance(item, float) for item in value
    )


def _classify(value: object) -> str | None:
    """The codec tag for a value, or ``None`` when unsupported."""
    if isinstance(value, GateTable):
        return "gate_table"
    if isinstance(value, Circuit):
        return "circuit"
    if isinstance(value, IIG):
        return "iig"
    if isinstance(value, ZoneArrays):
        return "zone_arrays"
    if isinstance(value, np.ndarray):
        return "ndarray"
    if isinstance(value, float):
        return "float"
    if isinstance(value, ScheduleResult):
        # Traces are per-operation event logs, orders of magnitude larger
        # than the schedule itself and never shared across processes —
        # keep traced results in memory only.
        return "schedule" if value.trace is None else None
    if isinstance(value, LatencyEstimate):
        return "estimate"
    if isinstance(value, list) and value and _placement_encodable(value):
        return "placement"
    if (
        isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[0], float)
        and _is_float_tuple(value[1])
    ):
        return "queueing"
    if _is_float_tuple(value):
        return "float_tuple"
    return None


_ENCODERS: dict[str, Callable[[object], bytes]] = {
    "gate_table": _encode_gate_table,
    "circuit": _encode_circuit,
    "iig": _encode_iig,
    "zone_arrays": _encode_zone_arrays,
    "ndarray": _encode_ndarray,
    "float": _encode_float,
    "float_tuple": _encode_float_tuple,
    "queueing": _encode_queueing,
    "placement": _encode_placement,
    "schedule": _encode_schedule,
    "estimate": _encode_estimate,
}


def encodable(value: object) -> bool:
    """Whether the codec has an encoder for this value's type."""
    return _classify(value) is not None


def encode(value: object) -> bytes:
    """Serialize one artifact to the store's binary container format.

    Raises
    ------
    StoreError
        If no encoder is registered for the value's type (check with
        :func:`encodable` first when fallthrough is acceptable).
    """
    tag = _classify(value)
    if tag is None:
        raise StoreError(
            f"no store codec for values of type {type(value).__name__}"
        )
    return _ENCODERS[tag](value)


def decode(blob: bytes) -> object:
    """Deserialize one artifact from its binary container format.

    Raises
    ------
    StoreError
        If the container is truncated or corrupt, the header is missing
        or malformed, the format version does not match
        :data:`CODEC_VERSION`, or the type tag is unknown.
    """
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as data:
            return _decode_container(data)
    except _CORRUPT as error:
        raise StoreError(
            f"unreadable store artifact: {type(error).__name__}: {error}"
        ) from None


def _decode_container(data) -> object:
    """Header checks and dispatch over an opened ``.npz`` container."""
    if _META_KEY not in data.files:
        raise StoreError("store artifact has no __meta__ header")
    meta = json.loads(bytes(data[_META_KEY].tobytes()).decode("utf-8"))
    version = meta.get("version")
    if version != CODEC_VERSION:
        raise StoreError(
            f"store artifact has format version {version!r}; this "
            f"codec reads version {CODEC_VERSION}"
        )
    tag = meta.get("tag")
    if tag not in _DECODERS:
        raise StoreError(f"unknown store artifact tag {tag!r}")
    return _DECODERS[tag](meta, data)
