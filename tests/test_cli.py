"""Unit tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.circuits.generators import ripple_adder
from repro.circuits.parser import write_qasm_lite, write_real
from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_named_benchmark(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "ham3")
        assert code == 0
        assert "estimated latency" in out
        assert "L_CNOT^avg" in out

    def test_ft_synthesis_applied_to_raw_benchmarks(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "8bitadder")
        assert code == 0
        assert "operations" in out

    def test_custom_fabric(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "ham3", "--width", "10", "--height", "10"
        )
        assert code == 0

    def test_exact_sq_series(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "ham3", "--max-sq-terms", "0")
        assert code == 0

    def test_real_file_input(self, capsys, tmp_path):
        path = tmp_path / "adder.real"
        write_real(ripple_adder(2), path)
        code, out, _ = run_cli(capsys, "estimate", str(path))
        assert code == 0
        assert "adder" in out

    def test_qasm_lite_file_input(self, capsys, tmp_path):
        path = tmp_path / "adder.qasm"
        write_qasm_lite(ripple_adder(2), path)
        code, _, _ = run_cli(capsys, "estimate", str(path))
        assert code == 0

    def test_unknown_source_fails_gracefully(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "no_such_benchmark")
        assert code == 1
        assert "error:" in err

    def test_optimize_materialized_and_streamed_agree(self, capsys):
        """``--optimize`` runs the same peephole on both front-ends: the
        streamed run (97-gate chunks, spilled passes) estimates the
        netlist the materialized optimizer reports."""

        def lines(out: str) -> dict[str, str]:
            return {
                line[:18].strip(): line[18:].strip()
                for line in out.splitlines()
            }

        code, out, _ = run_cli(capsys, "estimate", "ham15", "--optimize")
        assert code == 0
        materialized = lines(out)
        code, out, _ = run_cli(
            capsys, "estimate", "ham15", "--stream", "--optimize",
            "--chunk-gates", "97",
        )
        assert code == 0
        streamed = lines(out)
        before, after = materialized["optimizer"].split(" -> ")
        assert after == f"{materialized['operations']} ops"
        assert int(materialized["operations"]) < int(before)
        for key in ("operations", "estimated latency"):
            assert streamed[key] == materialized[key], key

    @pytest.mark.parametrize("chunk_gates", ["0", "-1"])
    def test_stream_rejects_non_positive_chunk_gates(self, capsys, chunk_gates):
        code, out, err = run_cli(
            capsys, "estimate", "ham3", "--stream", "--chunk-gates", chunk_gates
        )
        assert code == 1
        assert f"chunk_size must be >= 1, got {chunk_gates}" in err
        assert "estimated latency" not in out


class TestMap:
    def test_named_benchmark(self, capsys):
        code, out, _ = run_cli(
            capsys, "map", "ham3", "--width", "10", "--height", "10"
        )
        assert code == 0
        assert "actual latency" in out
        assert "qubit moves" in out

    def test_placement_and_routing_flags(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "map", "ham3",
            "--placement", "row_major",
            "--routing", "xy",
            "--width", "10", "--height", "10",
        )
        assert code == 0

    def test_engine_choices(self, capsys):
        code, out, _ = run_cli(
            capsys, "map", "ham3", "--engine", "kernel",
            "--width", "10", "--height", "10",
        )
        assert code == 0
        assert "scheduler engine   kernel" in out
        with pytest.raises(SystemExit):
            main(["map", "ham3", "--engine", "legacy"])
        assert "invalid choice: 'legacy'" in capsys.readouterr().err


class TestCompare:
    def test_reports_error_and_speedup(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "ham3", "--width", "10", "--height", "10"
        )
        assert code == 0
        assert "absolute error" in out
        assert "speedup" in out

    def test_parallel_workers(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "ham3",
            "--width", "10", "--height", "10", "--workers", "2",
        )
        assert code == 0
        assert "absolute error" in out

    def test_profile_prints_stage_walls(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "ham3",
            "--width", "10", "--height", "10", "--profile",
        )
        assert code == 0
        for stage in ("iig", "placement", "schedule", "estimate"):
            assert stage in out

    def test_unknown_circuit_fails_gracefully(self, capsys):
        code, _, err = run_cli(capsys, "compare", "no_such_benchmark")
        assert code == 1
        assert "error:" in err


class TestHeatmap:
    def test_coverage_heatmap(self, capsys):
        code, out, _ = run_cli(
            capsys, "heatmap", "ham3", "--width", "10", "--height", "10"
        )
        assert code == 0
        assert "coverage probability" in out
        assert "scale:" in out

    def test_utilization_heatmap(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "heatmap", "ham3",
            "--kind", "utilization",
            "--width", "10", "--height", "10",
        )
        assert code == 0
        assert "utilization" in out

    def test_congestion_heatmap(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "heatmap", "ham3",
            "--kind", "congestion",
            "--width", "10", "--height", "10",
        )
        assert code == 0
        assert "operand hops" in out


class TestSweep:
    def test_fabric_size_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "ham3", "--sizes", "6,8,10")
        assert code == 0
        assert "6x6" in out and "10x10" in out
        # The engine's staged cache builds the netlist, IIG and zones
        # once; the IIG is read only for the one zones build the points
        # share, and each fabric size builds its own coverage series.
        assert "ft x1 built / x2 reused" in out
        assert "iig x1 built / x0 reused" in out
        assert "zones x1 built / x2 reused" in out
        assert "coverage x3 built / x0 reused" in out
        # Stages that no point looked up are not listed.
        assert "placement x" not in out

    def test_backend_selection(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "ham3", "--sizes", "8", "--backend", "leqa-md1"
        )
        assert code == 0
        assert "leqa-md1" in out

    def test_parallel_workers_keep_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "ham3", "--sizes", "6,8,10", "--workers", "3"
        )
        assert code == 0
        assert out.index("6x6") < out.index("8x8") < out.index("10x10")

    def test_cache_stats_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "ham3", "--sizes", "6,8,10", "--cache-stats"
        )
        assert code == 0
        assert "stage" in out and "misses" in out
        # Every pipeline stage appears, including the parameter-aware ones.
        for stage in ("iig", "zones", "ham", "uncong", "queueing"):
            assert stage in out

    def test_profile_stage_table_for_mapper_backend(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "ham3", "--sizes", "6,8",
            "--backend", "qspr", "--profile",
        )
        assert code == 0
        for stage in ("iig (s)", "placement (s)", "schedule (s)"):
            assert stage in out

    def test_profile_degrades_for_estimator_backend(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "ham3", "--sizes", "6", "--profile"
        )
        assert code == 0
        assert "no per-stage times" in out

    def test_mapper_cache_stage_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "ham3", "--sizes", "6,8,10",
            "--backend", "qspr", "--cache-stats",
        )
        assert code == 0
        for stage in ("iig", "placement", "schedule"):
            assert stage in out
        assert "qodg" not in out

    def test_cache_stats_hidden_under_process_pool(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "ham3", "--sizes", "6,8",
            "--workers", "2", "--executor", "process", "--cache-stats",
        )
        assert code == 0
        assert "cache stats unavailable" in out

    def test_json_output_is_machine_readable(self, capsys):
        import json

        code, out, _ = run_cli(
            capsys, "sweep", "ham3", "--sizes", "6,8", "--json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["circuit"] == "ham3"
        assert [point["tag"] for point in document["points"]] == ["6x6", "8x8"]
        assert all(point["ok"] for point in document["points"])
        stats = document["cache_stats"]
        assert stats["ft"]["misses"] == 1 and stats["ft"]["hits"] == 1
        assert document["store"] is None

    def test_persistent_store_warms_across_invocations(self, capsys, tmp_path):
        import json

        store = str(tmp_path / "store")
        code, cold, _ = run_cli(
            capsys, "sweep", "ham3", "--sizes", "6,8", "--store", store,
            "--json",
        )
        assert code == 0
        code, warm, _ = run_cli(
            capsys, "sweep", "ham3", "--sizes", "6,8", "--store", store,
            "--json",
        )
        assert code == 0
        cold_doc, warm_doc = json.loads(cold), json.loads(warm)
        assert warm_doc["cache_stats"]["estimate"]["store_hits"] == 2
        assert warm_doc["cache_stats"]["estimate"]["misses"] == 0
        assert [p["latency_seconds"] for p in warm_doc["points"]] == [
            p["latency_seconds"] for p in cold_doc["points"]
        ]
        assert warm_doc["store"]["hits"] > 0
        code, text, _ = run_cli(
            capsys, "sweep", "ham3", "--sizes", "6,8", "--store", store
        )
        assert code == 0
        assert "estimate x0 built / x0 reused / x2 from store" in text

    def test_bad_sizes_fail_gracefully(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "ham3", "--sizes", "6,huge")
        assert code == 1
        assert "comma-separated integers" in err

    def test_unknown_circuit_fails_gracefully(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "no_such_benchmark", "--sizes", "8"
        )
        assert code == 1
        assert "error" in out

    def test_help_epilog_mentions_sweep(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "leqa sweep" in out


class TestServiceVerbs:
    def test_client_verbs_fail_cleanly_without_daemon(self, capsys, tmp_path):
        socket = str(tmp_path / "nowhere.sock")
        for argv in (
            ("submit", "ham3", "--socket", socket),
            ("status", "--socket", socket),
            ("result", "job-000001", "--socket", socket),
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 1
            assert "cannot reach daemon" in err

    def test_submit_validates_like_sweep(self, capsys, tmp_path):
        # The daemon-side validation path is covered by tests/test_service;
        # here: the verb exists and its parser wires the param options.
        with pytest.raises(SystemExit):
            main(["submit"])  # missing circuit argument

    def test_help_mentions_serve(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "daemon" in out and "--store" in out

    def test_stats_and_trace_fail_cleanly_without_daemon(
        self, capsys, tmp_path
    ):
        socket = str(tmp_path / "nowhere.sock")
        for argv in (
            ("stats", "--socket", socket),
            ("trace", "--socket", socket),
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 1
            assert "cannot reach daemon" in err


class TestStatsAndTraceVerbs:
    """``leqa stats`` / ``leqa trace`` against an in-thread daemon."""

    @pytest.fixture()
    def daemon(self, tmp_path):
        import threading
        import time

        from repro.exceptions import ServiceError
        from repro.service import EstimationServer, ServiceClient

        server = EstimationServer(tmp_path / "cli-obs.sock", workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(server.socket_path, timeout=60)
        deadline = time.monotonic() + 10
        while True:
            try:
                client.ping()
                break
            except ServiceError:
                assert time.monotonic() < deadline, "daemon never came up"
                time.sleep(0.02)
        job_id = client.submit({"source": "ham3"})
        client.result(job_id, timeout=60)
        yield server, client
        try:
            client.shutdown()
        except ServiceError:
            pass
        thread.join(timeout=30)

    def test_stats_human_table(self, capsys, daemon):
        server, _client = daemon
        code, out, _ = run_cli(
            capsys, "stats", "--socket", str(server.socket_path)
        )
        assert code == 0
        assert "workers" in out
        assert "queue depth" in out
        assert "rejected" in out
        assert "latency histogram" in out
        assert "pipeline.stage.seconds" in out

    def test_stats_json_carries_metrics(self, capsys, daemon):
        import json

        server, _client = daemon
        code, out, _ = run_cli(
            capsys, "stats", "--json", "--socket", str(server.socket_path)
        )
        assert code == 0
        stats = json.loads(out)
        histograms = stats["metrics"]["histograms"]
        assert "pipeline.stage.seconds" in histograms
        series = next(iter(histograms["pipeline.stage.seconds"].values()))
        assert {"count", "p50", "p90", "p99"} <= set(series)
        assert stats["cache"]["zones"]["misses"] >= 1

    def test_trace_renders_span_lines(self, capsys, daemon):
        server, _client = daemon
        code, out, _ = run_cli(
            capsys,
            "trace", "-n", "100", "--socket", str(server.socket_path),
        )
        assert code == 0
        assert "pipeline." in out

    def test_trace_json(self, capsys, daemon):
        import json

        server, _client = daemon
        code, out, _ = run_cli(
            capsys,
            "trace", "--json", "--socket", str(server.socket_path),
        )
        assert code == 0
        spans = json.loads(out)
        assert isinstance(spans, list) and spans
        assert all("seconds" in span and "name" in span for span in spans)


class TestWorkloads:
    def test_run_reports_reuse_per_stage(self, capsys):
        code, out, _ = run_cli(
            capsys, "workloads", "gf2", "--run", "--set", "n_max=8"
        )
        assert code == 0
        assert "gf2(n=4)" in out and "gf2(n=8)" in out
        # Every cached stage the members touched gets its own line, not
        # just the FT netlist: two distinct members build two of each.
        assert "ft x2 built / x0 reused" in out
        assert "zones x2 built / x0 reused" in out
        assert "queueing x2 built / x0 reused" in out


class TestBenchmarks:
    def test_lists_registry(self, capsys):
        code, out, _ = run_cli(capsys, "benchmarks")
        assert code == 0
        assert "gf2^256mult" in out
        assert "hwb15ps" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
