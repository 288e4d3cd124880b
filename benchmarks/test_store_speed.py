"""Warm-store speedup: cold process vs persistent-store sweep.

The persistent :class:`~repro.store.ArtifactStore` exists to amortize
the front half of every estimate across *processes*: generator build,
FT lowering, IIG/zones/coverage stages, placements, schedules
and whole estimate records all round-trip through the store's codec, so
a cold Python process re-running a sweep it (or any earlier process)
has run before should do little more than ``np.load``.

This bench pins that contract with real subprocesses:

* **cold** — a fresh process sweeps a GF(2^n) workload family (LEQA)
  plus one detailed-mapper point against an *empty* store;
* **warm** — an identical fresh process repeats the sweep against the
  store the cold run populated.

Asserted: the warm process is at least :data:`SPEEDUP_FLOOR` (3x)
faster, and every latency — estimates and mapping — is **bitwise**
identical (compared via ``float.hex``).  Each run fails if the speedup
regressed by more than 2x against the baseline committed in
``BENCH_store.json``, mirroring the ``BENCH_frontend``/``BENCH_mapper``
trajectory guards the CI smoke job relies on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from _common import recorded_store_speedup

#: Asserted floor for the warm-store process over the cold one (the
#: PR's acceptance criterion).
SPEEDUP_FLOOR = 3.0

#: A recorded-baseline regression beyond this factor fails the bench.
REGRESSION_FACTOR = 2.0

#: Sweep configurations: the LEQA grid is every GF(2^n) multiplier for
#: n in range(n_min, n_max + 1, step); the mapper point is gf2/n=map_n
#: on a map_size x map_size fabric.
FULL = {"n_min": 8, "n_max": 32, "step": 8, "map_n": 6, "map_size": 20}
SMOKE = {"n_min": 8, "n_max": 24, "step": 8, "map_n": 6, "map_size": 20}

_REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The subprocess body: one sweep, one mapper point, wall + hex
#: latencies on stdout.  Runs in a *fresh interpreter* per measurement,
#: so "cold" really means a cold process (imports excluded from the
#: measured wall — the store's job is to kill rebuild time, not Python
#: startup).
_DRIVER = """\
import json, sys, time

from repro.engine import BatchRunner, CircuitSpec, Job, sweep_workload
from repro.fabric.params import DEFAULT_PARAMS
from repro.store import ArtifactStore

root, n_min, n_max, step, map_n, map_size = sys.argv[1:7]
runner = BatchRunner(workers=1, store=ArtifactStore(root))
started = time.perf_counter()
points = sweep_workload(
    "gf2",
    overrides={"n_min": int(n_min), "n_max": int(n_max), "step": int(step)},
    runner=runner,
)
mapped = runner.run([
    Job(
        CircuitSpec(f"workload:gf2/n={map_n}"),
        backend="qspr",
        params=DEFAULT_PARAMS.with_fabric(int(map_size), int(map_size)),
    )
])
wall = time.perf_counter() - started
failed = [p.error for p in points + mapped if not p.ok]
assert not failed, failed
print(json.dumps({
    "wall": wall,
    "estimates": [p.result.latency.hex() for p in points],
    "mapping": mapped[0].result.latency.hex(),
}))
"""


def _run_driver(driver: Path, root: Path, config: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=_REPO_SRC)
    completed = subprocess.run(
        [
            sys.executable, str(driver), str(root),
            str(config["n_min"]), str(config["n_max"]), str(config["step"]),
            str(config["map_n"]), str(config["map_size"]),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_store_warm_process_speed_and_identity(tmp_path, benchmark):
    smoke = os.environ.get("REPRO_SMOKE") == "1"
    config = SMOKE if smoke else FULL
    driver = tmp_path / "driver.py"
    driver.write_text(_DRIVER)

    # Two cold measurements against fresh stores (best-of for noise),
    # then two warm measurements against the first cold run's store.
    cold_runs = [
        _run_driver(driver, tmp_path / f"cold-store-{index}", config)
        for index in (0, 1)
    ]
    warm_runs = [
        _run_driver(driver, tmp_path / "cold-store-0", config)
        for _ in (0, 1)
    ]

    # Bitwise identity: every process — cold or warm — reports the same
    # estimate and mapping latencies, down to the last bit.
    reference = cold_runs[0]
    for run in cold_runs[1:] + warm_runs:
        assert run["estimates"] == reference["estimates"]
        assert run["mapping"] == reference["mapping"]

    cold_wall = min(run["wall"] for run in cold_runs)
    warm_wall = min(run["wall"] for run in warm_runs)
    speedup = cold_wall / warm_wall
    family = (
        f"gf2 n={config['n_min']}..{config['n_max']} "
        f"step {config['step']} + qspr n={config['map_n']}"
    )
    print(
        f"\nwarm-store speedup on {family}: {speedup:.2f}x "
        f"(cold {cold_wall * 1000:.1f} ms, warm {warm_wall * 1000:.1f} ms, "
        f"{len(reference['estimates'])} members)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm-store process only {speedup:.2f}x faster than the cold "
        f"run (floor {SPEEDUP_FLOOR}x)"
    )

    key = "smoke" if smoke else "full"
    baseline = recorded_store_speedup(key)
    if baseline is not None:
        assert speedup >= baseline / REGRESSION_FACTOR, (
            f"warm-store speedup regressed more than {REGRESSION_FACTOR}x: "
            f"{speedup:.2f}x now vs {baseline:.2f}x recorded"
        )

    benchmark.pedantic(
        lambda: _run_driver(driver, tmp_path / "cold-store-0", config),
        rounds=1,
        iterations=1,
    )
