"""Array-native front-end speed: the cold path as a host-normalized time.

The cold-start pipeline every estimate pays once per circuit — parse the
netlist, lower it to the FT gate set, build the QODG CSR core and the
IIG — used to be Gate-object traffic end to end.  This bench pins the
GateTable front-end's contract on the largest circuit of the default
benchmark subset:

* **identical artifacts** — the FT netlist's fingerprint and the QODG's
  CSR arrays match digests recorded from the object path, and
* **speed** — the best-of-rounds probe-normalized cold time (see
  ``_common.normalized_seconds``) is at most the object path's, measured
  the same way before it was deleted, divided by the stronger of
  :data:`SPEEDUP_FLOOR` and the speedup recorded in
  ``BENCH_frontend.json`` over :data:`REGRESSION_FACTOR` (the
  perf-trajectory guard the CI smoke job relies on).

The run never rewrites ``BENCH_frontend.json``.
"""

from __future__ import annotations

import hashlib
import os

from repro.circuits.decompose import synthesize_ft
from repro.circuits.library import build
from repro.circuits.parser import reads_real, writes_real
from repro.qodg.graph import build_qodg
from repro.qodg.iig import build_iig

from _common import normalized_seconds, recorded_frontend_speedup

#: Largest Table-3 row of the default (non-REPRO_FULL) bench subset that
#: the object path lowered in interactive time; the smoke configuration
#: drops to the calibration benchmark.
FULL_BENCH = "gf2^20mult"
SMOKE_BENCH = "gf2^16mult"

#: Per configuration: the FT table's ``fingerprint()`` and the blake2b-16
#: of its QODG's six CSR arrays (field order), recorded from the object
#: synthesis and threading after asserting that the table path agreed.
FROZEN_DIGESTS = {
    "full": (
        "a399d0c6c1120745671236699ad07041",
        "527fc4f7a314a3021848de6a13a0ceea",
    ),
    "smoke": (
        "b62e9952b7dc26333de458066088c5f4",
        "19344aa7f0bb470a4164aafee406cf9b",
    ),
}

#: The object path's cold time (object parse, object FT synthesis,
#: object QODG and IIG) in normalized seconds: the median over 12
#: processes of its best of 3 (full) or 2 (smoke) rounds, measured with
#: ``normalized_seconds`` on a 2-vCPU VM before the object path was
#: deleted (quartiles 52.3/59.8 ms full, 57.9/62.5 ms smoke).
OBJECT_PATH_SECONDS = {"full": 0.05569, "smoke": 0.06124}

#: Asserted floor for the table path over the object path.
SPEEDUP_FLOOR = 4.0

#: A recorded-baseline regression beyond this factor fails the bench.
REGRESSION_FACTOR = 2.0

FIELDS = ("pred_indptr", "pred_indices", "succ_indptr", "succ_indices",
          "qubit_indptr", "qubit_ops")


def _table_cold(text: str):
    """Table parse -> table passes -> vectorized CSR builds."""
    circuit = reads_real(text)
    ft = synthesize_ft(circuit)
    return ft, build_qodg(ft), build_iig(ft)


def test_frontend_speed_and_equivalence(benchmark):
    smoke = os.environ.get("REPRO_SMOKE") == "1"
    key = "smoke" if smoke else "full"
    bench = SMOKE_BENCH if smoke else FULL_BENCH
    rounds = 2 if smoke else 3
    text = writes_real(build(bench))

    ft, qodg, _ = _table_cold(text)
    arrays = b"".join(getattr(qodg, field).tobytes() for field in FIELDS)
    assert (
        ft.content_fingerprint(),
        hashlib.blake2b(arrays, digest_size=16).hexdigest(),
    ) == FROZEN_DIGESTS[key]

    seconds = normalized_seconds(lambda: _table_cold(text), rounds)
    factor = SPEEDUP_FLOOR
    baseline = recorded_frontend_speedup(key)
    if baseline is not None:
        factor = max(factor, baseline / REGRESSION_FACTOR)
    bar = OBJECT_PATH_SECONDS[key] / factor
    print(
        f"\nfront-end cold path on {bench}: {seconds * 1000:.2f} ms "
        f"normalized (bar {bar * 1000:.2f} ms = object path "
        f"{OBJECT_PATH_SECONDS[key] * 1000:.1f} ms / {factor:.3f}; "
        f"{OBJECT_PATH_SECONDS[key] / seconds:.1f}x), {len(ft)} FT gates"
    )
    assert seconds <= bar, (
        f"table front-end at {seconds * 1000:.2f} ms normalized, over its "
        f"bar of {bar * 1000:.2f} ms ({factor:.3f}x under the object path)"
    )

    benchmark.pedantic(
        lambda: _table_cold(text), rounds=1, iterations=1
    )
