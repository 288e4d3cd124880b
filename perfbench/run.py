"""Benchmark of the four LEQA reference paths, host-normalized.

Run from the root of a checkout::

    python3 perfbench/run.py --workload leqa_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload leqa_cold --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload map_kernel --steady 5 --seconds 20

``--trace 0`` prints every end-to-end metric of one workload; ``--trace 1``
runs every path with per-layer wrappers and prints every per-layer
metric; ``--steady N`` runs the workload N times with seeds 1..N and
prints each metric's median and IQR/median.  The last line of a
measuring run is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (``{name: {"value", "unit"}}``); the line before it holds
the raw (unnormalized) values and other context, which is not gated.

Build products, the compiled kernel and per-run temp dirs live under
``.bench_build/`` in the checkout; nothing is written anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(HERE.parent))

from perfbench.probe import probe_ms  # noqa: E402
from perfbench.stats import (  # noqa: E402
    MIN_REQUESTS,
    failed_frac,
    spread,
    summarize,
)

SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
REF_MS = SPEC["ref_probe_ms"]

#: The benchmark's declaration: workloads and every metric's name and unit.
DEFINITION = json.loads(
    (HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
WORKLOADS = tuple(w["name"] for w in DEFINITION["workloads"])

#: Measuring processes per run.  Each sets up, times its share of
#: ``--seconds`` and checks its outputs; the run pools their requests and
#: takes the median set-up, so no one process's luck sets a figure.
PROCESSES = 5

#: Wall-clock budget of one invocation; children are killed past it.
BUDGET_S = 170.0


def layer_source(name: str) -> tuple[str | None, str, str | None]:
    """(home workload, kind, layer) a per-layer metric is read from.

    Layer metrics are declared in ``spec.json``'s ``layers``; the trace
    figures are ``trace.<figure>.<workload>``; ``host.probe_ms`` is the
    median probe over every path of the traced run.
    """
    for layer, entry in SPEC["layers"].items():
        if name in entry["metrics"]:
            return entry["home"], entry["metrics"][name], layer
    if name.startswith("trace."):
        _, figure, workload = name.split(".", 2)
        return workload, figure, None
    if name == "host.probe_ms":
        return None, "probe_ms", None
    raise KeyError(f"per-layer metric {name} has no source in spec.json")


def _pin_to_one_cpu() -> None:
    """Keep this process and its children, threads included, on one CPU.

    The vCPUs of a small VM can run at different speeds at the same
    moment.  On one CPU the probe, timed on the measuring thread,
    measures the CPU the daemon's worker and handler threads run on too.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _environment(root: Path, build: Path, tmpdir: Path | None) -> dict:
    """The pinned environment of every measured process."""
    env = dict(os.environ)
    for name in ("REPRO_OBS", "REPRO_OBS_EXPORT"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE.parent)])
    env["REPRO_KERNEL_CACHE"] = str(build / "kernel")
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    return env


def _build(root: Path, build: Path) -> None:
    """Byte-compile the sources and build the kernel before any timing."""
    code = (
        "import compileall, sys\n"
        "ok = all(compileall.compile_dir(d, quiet=1) for d in sys.argv[1:])\n"
        "from repro.qspr import _kernel\n"
        "try:\n"
        "    _kernel.load()\n"
        "except RuntimeError as error:\n"
        "    print('perfbench: kernel not built:', error, file=sys.stderr)\n"
        "sys.exit(0 if ok else 1)\n"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(HERE)],
        env=_environment(root, build, None),
        check=True,
        timeout=600,
    )


class _Child:
    """One measured process and its line protocol (see measure.py)."""

    def __init__(self, args: list[str], env: dict, deadline: float) -> None:
        self.pre_probe = statistics.median(probe_ms() for _ in range(3))
        self.started = time.perf_counter()
        self._deadline = deadline
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.measure", *args],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        self.ready: float | None = None
        self.post_probe: float | None = None
        self.result: dict | None = None

    def run(self) -> None:
        # The watchdog kills a child that overruns the budget, which also
        # ends a read blocked on its silent stdout.
        watchdog = threading.Timer(
            max(self._deadline - time.perf_counter(), 0.0), self._proc.kill
        )
        watchdog.start()
        try:
            for line in self._proc.stdout:
                if line.startswith("READY"):
                    self.ready = time.perf_counter()
                elif line.startswith("PROBE "):
                    self.post_probe = float(line.split()[1])
                elif line.startswith("RESULT "):
                    self.result = json.loads(line[len("RESULT "):])
            code = self._proc.wait()
        finally:
            watchdog.cancel()
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()
        if code != 0:
            raise RuntimeError(
                f"measuring process exited with {code}"
                + (" (killed at the time budget)"
                   if time.perf_counter() >= self._deadline else "")
            )
        if self.result is None:
            raise RuntimeError("measuring process printed no result")

    @property
    def setup_s(self) -> tuple[float, float]:
        """(normalized, raw) seconds from spawn to READY."""
        if self.ready is None or self.post_probe is None:
            raise RuntimeError("measuring process never finished set-up")
        raw = self.ready - self.started
        probe = (self.pre_probe + self.post_probe) / 2
        return raw * REF_MS / probe, raw


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(root: Path, workload: str, seed: int, seconds: float,
            workdir: Path, deadline: float) -> tuple[dict, dict]:
    build = workdir.parent
    setups, rows, peaks, ends = [], [], [], []
    attempted = failed = 0
    for index in range(PROCESSES):
        childdir = workdir / f"p{index}"
        childdir.mkdir()
        child = _Child(
            ["--mode", "measure", "--workdir", str(childdir),
             "--workload", workload,
             "--seed", str(seed * PROCESSES + index),
             "--seconds", str(seconds / PROCESSES),
             "--min-requests", str(-(-MIN_REQUESTS // PROCESSES))],
            _environment(root, build, childdir), deadline,
        )
        child.run()
        setups.append(child.setup_s)
        rows.extend(child.result["rows"])
        peaks.append(child.result["peak_rss_mb"])
        ends.append(child.result["end_rss_mb"])
        attempted += child.result["attempted"]
        failed += child.result["failed"]
    summary = summarize(rows)
    if "p90_ms" not in summary:
        raise RuntimeError(
            f"too few successful requests for a p90: {summary}"
        )
    values = {
        **summary,
        "setup_s": statistics.median(s[0] for s in setups),
        "peak_rss_mb": statistics.median(peaks),
    }
    metrics = {
        metric["name"]: _metric(values[metric["name"]], metric["unit"])
        for metric in DEFINITION["end_to_end"]
    }
    context = {
        "workload": workload,
        "seed": seed,
        "failed_frac": failed_frac(attempted, failed),
        "setup_s.samples": [s[0] for s in setups],
        "raw.setup_s": statistics.median(s[1] for s in setups),
        "end_rss_mb": max(ends),
        **{k: v for k, v in summary.items() if k not in metrics},
    }
    return {"attempted": attempted, "failed": failed}, {
        "metrics": metrics, "context": context,
    }


def _layer_value(tables: dict, name: str) -> float:
    home, kind, layer = layer_source(name)
    if kind == "probe_ms":
        return statistics.median(t["probe_ms"] for t in tables.values())
    table = tables[home]
    if kind in ("attributed_frac", "overhead_frac", "kernel_loaded"):
        return float(table[kind])
    if kind == "hit_ratio":
        counters = table["counters"]
        lookups = counters["hits"] + counters["misses"] + counters["store_hits"]
        return counters["hits"] / lookups
    if kind.startswith("per_request:"):
        counters = table["counters"]
        return counters[kind.split(":", 1)[1]] / counters["requests"]
    row = table["layers"].get(layer)
    if row is None:
        raise RuntimeError(f"layer {layer} recorded nothing on {home}")
    if kind == "ms":
        return row["ms"]
    if kind == "s":
        return row["ms"] / 1e3
    return row["units_per_s"]


def trace(root: Path, seed: int, seconds: float, workdir: Path,
          deadline: float) -> tuple[dict, dict]:
    childdir = workdir / "trace"
    childdir.mkdir()
    child = _Child(
        ["--mode", "trace", "--seed", str(seed), "--seconds", str(seconds),
         "--workdir", str(childdir)],
        _environment(root, workdir.parent, childdir), deadline,
    )
    child.run()
    result = child.result
    tables = result["paths"]
    metrics = {
        metric["name"]: _metric(_layer_value(tables, metric["name"]),
                                metric["unit"])
        for metric in DEFINITION["per_layer"]
    }
    context = {"seed": seed, "paths": tables}
    return result, {"metrics": metrics, "context": context}


def steady(workload: str, runs: int, seconds: float, traced: int) -> int:
    """Run the workload ``runs`` times and print each metric's spread."""
    values: dict[str, list[float]] = {}
    for seed in range(1, runs + 1):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(traced)],
            stdout=subprocess.PIPE, text=True, timeout=BUDGET_S + 30,
        )
        if completed.returncode != 0:
            return _fail(f"run with seed {seed} exited {completed.returncode}")
        last = json.loads(completed.stdout.strip().splitlines()[-1])
        if not last["correct"]:
            return _fail(f"run with seed {seed} was not correct")
        for name, metric in last["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in last["metrics"].items()
        ), flush=True)
    print(f"{'metric':<34}{'median':>14}{'iqr/median':>12}")
    for name, series in values.items():
        print(f"{name:<34}{statistics.median(series):>14.6g}"
              f"{spread(series):>12.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N",
                        help="run N seeds and print each metric's IQR/median")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if args.steady:
        return steady(args.workload, args.steady, args.seconds, args.trace)

    root = Path.cwd()
    _pin_to_one_cpu()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no repro sources under {root / 'src'}; run from the "
                     "root of a checkout")
    deadline = time.perf_counter() + BUDGET_S
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    try:
        _build(root, build)
    except (subprocess.SubprocessError, OSError) as error:
        return _fail(f"build failed: {error}")
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=build))
    try:
        if args.trace:
            result, report = trace(
                root, args.seed, args.seconds, workdir, deadline
            )
        else:
            result, report = measure(
                root, args.workload, args.seed, args.seconds, workdir,
                deadline,
            )
    except (RuntimeError, OSError) as error:
        return _fail(str(error))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in report["metrics"].items():
        print(f"{name:<34}{metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"context": report["context"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
