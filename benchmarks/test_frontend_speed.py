"""Array-native front-end speedup: GateTable passes vs the object path.

The cold-start pipeline every estimate pays once per circuit — parse the
netlist, lower it to the FT gate set, build the QODG CSR core and the
IIG — used to be Gate-object traffic end to end.  This bench pins the
GateTable refactor's contract on the largest circuit of the default
benchmark subset:

* **identical artifacts** — the table path must produce the same FT gate
  count, the same QODG CSR arrays and the same IIG arrays as the legacy
  object path, and
* **speed** — cold parse+lower+build must run at least 4x faster than
  the object path.

Each run fails if the speedup regressed by more than 2x against the
baseline committed in ``BENCH_frontend.json`` — the perf-trajectory
guard the CI smoke job relies on.  The run never rewrites that file.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.decompose import synthesize_ft
from repro.circuits.library import build
from repro.circuits.parser import reads_real, writes_real
from repro.qodg.graph import build_qodg
from repro.qodg.iig import build_iig

from _common import (
    recorded_frontend_speedup,
)

#: Largest Table-3 row of the default (non-REPRO_FULL) bench subset that
#: the legacy object path still lowers in interactive time; the smoke
#: configuration drops to the calibration benchmark.
FULL_BENCH = "gf2^20mult"
SMOKE_BENCH = "gf2^16mult"

#: Asserted floor for the table path over the object path.
SPEEDUP_FLOOR = 4.0

#: A recorded-baseline regression beyond this factor fails the bench.
REGRESSION_FACTOR = 2.0


def _object_backed(circuit: Circuit) -> Circuit:
    """Strip the table backing so every legacy code path runs."""
    clone = Circuit(0, circuit.name)
    clone._qubit_names = list(circuit.qubit_names)
    clone._index_by_name = {
        name: i for i, name in enumerate(circuit.qubit_names)
    }
    clone._gates = list(circuit.gates)
    return clone


def _legacy_cold(text: str):
    """Object path: object parse -> object FT synthesis -> object threading."""
    started = time.perf_counter()
    circuit = _object_backed(reads_real(text))
    ft = _object_backed(synthesize_ft(circuit, engine="legacy"))
    qodg = build_qodg(ft)
    iig = build_iig(ft)
    return time.perf_counter() - started, ft, qodg, iig


def _table_cold(text: str):
    """Table path: table parse -> table passes -> vectorized CSR builds."""
    started = time.perf_counter()
    circuit = reads_real(text)
    ft = synthesize_ft(circuit, engine="table")
    qodg = build_qodg(ft)
    iig = build_iig(ft)
    return time.perf_counter() - started, ft, qodg, iig


def test_frontend_speed_and_equivalence(benchmark):
    smoke = os.environ.get("REPRO_SMOKE") == "1"
    bench = SMOKE_BENCH if smoke else FULL_BENCH
    rounds = 2 if smoke else 3
    text = writes_real(build(bench))

    legacy_wall, legacy_ft, legacy_qodg, legacy_iig = _legacy_cold(text)
    table_wall, table_ft, table_qodg, table_iig = _table_cold(text)

    # Identical artifacts: FT netlist, QODG CSR arrays, IIG arrays.
    assert len(table_ft) == len(legacy_ft)
    assert table_ft.qubit_names == legacy_ft.qubit_names
    assert table_ft.content_fingerprint() == legacy_ft.content_fingerprint()
    for field in ("pred_indptr", "pred_indices", "succ_indptr",
                  "succ_indices", "qubit_indptr", "qubit_ops"):
        assert np.array_equal(
            getattr(table_qodg, field), getattr(legacy_qodg, field)
        ), field
    for field in ("indptr", "indices", "weights", "degrees", "weight_sums"):
        assert np.array_equal(
            getattr(table_iig, field), getattr(legacy_iig, field)
        ), field

    for _ in range(rounds - 1):
        legacy_wall = min(legacy_wall, _legacy_cold(text)[0])
        table_wall = min(table_wall, _table_cold(text)[0])
    speedup = legacy_wall / table_wall
    print(
        f"\nfront-end speedup on {bench}: {speedup:.2f}x "
        f"(legacy {legacy_wall * 1000:.1f} ms, table "
        f"{table_wall * 1000:.1f} ms, {len(table_ft)} FT gates)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"table front-end only {speedup:.2f}x faster than the object path "
        f"(floor {SPEEDUP_FLOOR}x)"
    )

    key = "smoke" if smoke else "full"
    baseline = recorded_frontend_speedup(key)
    if baseline is not None:
        assert speedup >= baseline / REGRESSION_FACTOR, (
            f"front-end speedup regressed more than {REGRESSION_FACTOR}x: "
            f"{speedup:.2f}x now vs {baseline:.2f}x recorded"
        )

    benchmark.pedantic(
        lambda: _table_cold(text), rounds=1, iterations=1
    )
