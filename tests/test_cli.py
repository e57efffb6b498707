"""Tests for the repro CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.store import ResultStore


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_noc_defaults(self):
        args = build_parser().parse_args(["run-noc"])
        assert args.model == "lenet"
        assert args.ordering == "O2"
        assert args.mesh == "4x4"

    def test_bad_mesh_string(self):
        with pytest.raises(SystemExit):
            main(["run-noc", "--mesh", "four-by-four", "--tasks", "1"])

    def test_bench_subcommand_is_gone(self, capsys):
        """Benchmarks live in perfbench/; the CLI has no bench command."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "12.910" in out
        assert "Router" in out

    def test_link_power(self, capsys):
        assert main(["link-power"]) == 0
        out = capsys.readouterr().out
        assert "155.008" in out
        assert "476.672" in out

    def test_no_noc_small(self, capsys):
        code = main(
            ["no-noc", "--format", "fixed8", "--packets", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reduction" in out
        assert "fixed8" in out

    def test_traffic(self, capsys):
        code = main(
            ["traffic", "--pattern", "complement", "--packets", "30"]
        )
        assert code == 0
        assert "30 packets" in capsys.readouterr().out

    def test_run_noc_compare(self, capsys):
        code = main(
            [
                "run-noc",
                "--tasks",
                "2",
                "--ordering",
                "O1",
                "--compare",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "O0" in out
        assert "reduction" in out


class TestSeedPlumbing:
    RUN_NOC = ["run-noc", "--mesh", "2x2", "--mcs", "1", "--tasks", "1"]

    def _run(self, capsys, argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_run_noc_seed_reproducible(self, capsys):
        a = self._run(capsys, [*self.RUN_NOC, "--seed", "7"])
        b = self._run(capsys, [*self.RUN_NOC, "--seed", "7"])
        assert a == b

    def test_run_noc_seed_changes_workload(self, capsys):
        a = self._run(capsys, [*self.RUN_NOC, "--seed", "7"])
        b = self._run(capsys, [*self.RUN_NOC, "--seed", "8"])
        assert a != b

    def test_run_noc_default_matches_legacy(self, capsys):
        # Omitting --seed keeps the historical hard-coded seeds.
        a = self._run(capsys, self.RUN_NOC)
        b = self._run(capsys, self.RUN_NOC)
        assert a == b

    def test_traffic_seed(self, capsys):
        base = ["traffic", "--pattern", "uniform", "--packets", "20"]
        a = self._run(capsys, [*base, "--seed", "1"])
        b = self._run(capsys, [*base, "--seed", "1"])
        c = self._run(capsys, [*base, "--seed", "2"])
        assert a == b
        assert a != c

    def test_no_noc_seed(self, capsys):
        base = ["no-noc", "--format", "fixed8", "--packets", "50"]
        a = self._run(capsys, [*base, "--seed", "1"])
        b = self._run(capsys, [*base, "--seed", "2"])
        assert a != b

    def test_arithmetic_commands_accept_seed(self, capsys):
        assert main(["table2", "--seed", "3"]) == 0
        assert main(["link-power", "--seed", "3"]) == 0


class TestSweepAndReport:
    SWEEP = [
        "sweep",
        "--meshes", "2x2:1",
        "--orderings", "O0,O2",
        "--tasks", "1",
        "--workers", "1",
    ]

    def test_sweep_cold_then_cached_then_report(self, tmp_path, capsys):
        argv = [
            *self.SWEEP,
            "--cache-dir", str(tmp_path / "cache"),
            "--store", str(tmp_path / "runs.jsonl"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 cache hits / 2 simulated" in cold
        assert "Absolute BTs (fixed8)" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "2 cache hits / 0 simulated" in warm
        assert "100.0% hit rate" in warm

        assert main(["report", "--store", str(tmp_path / "runs.jsonl")]) == 0
        report = capsys.readouterr().out
        assert "Absolute BTs (fixed8)" in report
        assert "2x2 MC1" in report

    def test_sweep_seed_varies_workload(self, tmp_path, capsys):
        def run(seed):
            argv = [
                *self.SWEEP,
                "--cache-dir", str(tmp_path / f"cache{seed}"),
                "--store", str(tmp_path / f"runs{seed}.jsonl"),
                "--seed", str(seed),
            ]
            assert main(argv) == 0
            return capsys.readouterr().out

        # Different seeds must change the simulated workload (model
        # init + image + task sampling all derive from --seed).
        assert run(1) != run(2)

    def test_sweep_spec_file_honors_seed_override(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "fromfile",
            "base": {"max_tasks_per_layer": 1},
            "axes": {"mesh": ["2x2:1"], "ordering": ["O0"]},
            "seed": 0,
        }))
        argv = [
            "sweep", "--spec", str(spec), "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--store", str(tmp_path / "runs.jsonl"),
        ]
        assert main(argv) == 0
        base = capsys.readouterr().out
        assert main([*argv, "--seed", "9"]) == 0
        reseeded = capsys.readouterr().out
        assert "0 cache hits" in reseeded  # new seed = new points
        assert base != reseeded

    def test_sweep_bad_spec_file_is_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        with pytest.raises(SystemExit, match="bad sweep spec file"):
            main(["sweep", "--spec", str(missing)])
        bad_key = tmp_path / "bad.json"
        bad_key.write_text('{"nme": "typo"}')
        with pytest.raises(SystemExit, match="bad sweep spec file"):
            main(["sweep", "--spec", str(bad_key)])

    def test_sweep_bad_grid_is_clean_error(self):
        with pytest.raises(SystemExit, match="bad sweep grid"):
            main(["sweep", "--meshes", "4by4"])
        with pytest.raises(SystemExit, match="bad sweep grid"):
            main(["sweep", "--meshes", "2x2:1", "--orderings", "O9"])

    def test_sweep_csv_export(self, tmp_path, capsys):
        argv = [
            *self.SWEEP,
            "--cache-dir", str(tmp_path / "cache"),
            "--store", str(tmp_path / "runs.jsonl"),
            "--csv", str(tmp_path / "out.csv"),
        ]
        assert main(argv) == 0
        assert (tmp_path / "out.csv").read_text().count("\n") == 3

    def test_report_missing_store(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path / "no.jsonl")]) == 1


class TestKindSweeps:
    def _sweep(self, tmp_path, capsys, *extra):
        argv = [
            "sweep", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--store", str(tmp_path / "runs.jsonl"),
            *extra,
        ]
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_synthetic_sweep_and_report(self, tmp_path, capsys):
        out = self._sweep(
            tmp_path, capsys,
            "--kind", "synthetic", "--meshes", "3x3",
            "--patterns", "uniform,hotspot", "--packets", "20",
        )
        assert "synthetic 3x3 uniform" in out
        assert "Synthetic traffic BTs" in out
        assert "0 errors" in out

        store = str(tmp_path / "runs.jsonl")
        assert main(["report", "--store", store]) == 0
        report = capsys.readouterr().out
        assert "Synthetic traffic BTs" in report
        assert "hotspot" in report

        assert main(["report", "--store", store, "--pivot", "link"]) == 0
        linked = capsys.readouterr().out
        assert "Synthetic per-link BTs" in linked
        assert "R0.EAST" in linked

    def test_batch_sweep_and_layer_report(self, tmp_path, capsys):
        out = self._sweep(
            tmp_path, capsys,
            "--kind", "batch", "--images", "2", "--tasks", "1",
            "--meshes", "2x2:1", "--orderings", "O0,O2",
        )
        assert "(batch x2)" in out
        assert "over 2 images" in out
        assert "Absolute BTs (fixed8)" in out

        store = str(tmp_path / "runs.jsonl")
        assert main(["report", "--store", store, "--pivot", "layer"]) == 0
        report = capsys.readouterr().out
        assert "Per-layer BTs" in report
        assert "conv1" in report

    def test_synthetic_sweep_caches(self, tmp_path, capsys):
        args = ("--kind", "synthetic", "--meshes", "2x2",
                "--patterns", "uniform", "--packets", "10")
        cold = self._sweep(tmp_path, capsys, *args)
        assert "0 cache hits / 1 simulated" in cold
        warm = self._sweep(tmp_path, capsys, *args)
        assert "1 cache hits / 0 simulated" in warm

    def test_model_layer_and_link_pivots(self, tmp_path, capsys):
        self._sweep(
            tmp_path, capsys,
            "--meshes", "2x2:1", "--orderings", "O0,O2", "--tasks", "1",
        )
        store = str(tmp_path / "runs.jsonl")
        assert main(["report", "--store", store, "--pivot", "layer"]) == 0
        assert "Per-layer reductions vs O0" in capsys.readouterr().out
        assert main(["report", "--store", store, "--pivot", "link"]) == 0
        assert "Per-link BTs" in capsys.readouterr().out

    def test_unknown_kind_is_parser_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--kind", "quantum"])
        assert "invalid choice" in capsys.readouterr().err


    def test_inapplicable_flags_rejected_not_ignored(self):
        with pytest.raises(SystemExit, match="--orderings does not apply"):
            main(["sweep", "--kind", "synthetic", "--orderings", "O0,O2"])
        with pytest.raises(SystemExit, match="--patterns does not apply"):
            main(["sweep", "--kind", "model", "--patterns", "hotspot"])
        with pytest.raises(SystemExit, match="--images does not apply"):
            main(["sweep", "--kind", "model", "--images", "4"])
        with pytest.raises(SystemExit, match="--link-width does not apply"):
            main(["sweep", "--kind", "batch", "--link-width", "64"])

    def test_spec_file_rejects_explicit_grid_flags(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "base": {"max_tasks_per_layer": 1},
            "axes": {"mesh": ["2x2:1"], "ordering": ["O0"]},
        }))
        with pytest.raises(SystemExit, match="ignored with --spec"):
            main(["sweep", "--spec", str(spec), "--patterns", "hotspot"])
        with pytest.raises(SystemExit, match="ignored with --spec"):
            main(["sweep", "--spec", str(spec), "--kind", "synthetic"])
        with pytest.raises(SystemExit, match="ignored with --spec"):
            main(["sweep", "--spec", str(spec), "--meshes", "4x4:2"])

    def test_synthetic_store_layer_pivot_notes_no_data(
        self, tmp_path, capsys
    ):
        self._sweep(
            tmp_path, capsys,
            "--kind", "synthetic", "--meshes", "2x2",
            "--patterns", "uniform", "--packets", "10",
        )
        store = str(tmp_path / "runs.jsonl")
        assert main(["report", "--store", store, "--pivot", "layer"]) == 0
        out = capsys.readouterr().out
        assert "no per-layer data" in out
        assert "Synthetic traffic BTs" not in out

    def test_csv_has_kind_column(self, tmp_path, capsys):
        self._sweep(
            tmp_path, capsys,
            "--kind", "synthetic", "--meshes", "2x2",
            "--patterns", "uniform", "--packets", "10",
            "--csv", str(tmp_path / "out.csv"),
        )
        header, row = (
            (tmp_path / "out.csv").read_text().strip().splitlines()
        )
        assert "kind" in header.split(",")
        assert "synthetic" in row


class TestTraceReplayCLI:
    def record_trace(self, tmp_path, capsys) -> str:
        path = str(tmp_path / "run.trace.gz")
        assert main(["traffic", "--pattern", "uniform", "--mesh", "3x3",
                     "--packets", "15", "--trace", path]) == 0
        out = capsys.readouterr().out
        assert "wrote trace" in out
        return path

    def test_traffic_records_replayable_trace(self, tmp_path, capsys):
        from repro.workloads.traces import TrafficTrace

        path = self.record_trace(tmp_path, capsys)
        trace = TrafficTrace.load(path)
        assert trace.is_replayable
        assert len(trace.packets) == 15

    def test_run_noc_records_trace(self, tmp_path, capsys):
        from repro.workloads.traces import TrafficTrace

        path = str(tmp_path / "lenet.trace.gz")
        assert main(["run-noc", "--tasks", "1", "--format", "fixed8",
                     "--trace", path]) == 0
        assert "wrote trace" in capsys.readouterr().out
        assert TrafficTrace.load(path).is_replayable

    def test_run_noc_trace_independent_of_process_history(
        self, tmp_path, capsys
    ):
        """Packet ids are numbered per run, so two identical captures
        in one process are byte-identical content (same digest)."""
        from repro.workloads.traces import trace_digest

        paths = [str(tmp_path / f"run{i}.trace.gz") for i in range(2)]
        for path in paths:
            assert main(["run-noc", "--mesh", "2x2", "--mcs", "1",
                         "--tasks", "2", "--trace", path]) == 0
        capsys.readouterr()
        assert trace_digest(paths[0]) == trace_digest(paths[1])

    def test_replay_sweep_cold_cached_and_report(self, tmp_path, capsys):
        trace = self.record_trace(tmp_path, capsys)
        argv = [
            "sweep", "--kind", "replay", "--traces", trace,
            "--cores", "offline,both", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--store", str(tmp_path / "runs.jsonl"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 cache hits / 4 simulated" in cold
        assert "[cores agree]" in cold
        assert "Replayed BTs" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "100.0% hit rate" in warm

        store = str(tmp_path / "runs.jsonl")
        assert main(["report", "--store", store, "--pivot", "link"]) == 0
        assert "Replayed per-link BTs" in capsys.readouterr().out

    def test_replay_sweep_needs_traces(self):
        with pytest.raises(SystemExit, match="--traces"):
            main(["sweep", "--kind", "replay"])

    def test_replay_rejects_mesh_flag(self, tmp_path, capsys):
        trace = self.record_trace(tmp_path, capsys)
        with pytest.raises(SystemExit, match="--meshes"):
            main(["sweep", "--kind", "replay", "--traces", trace,
                  "--meshes", "4x4"])

    def test_trace_flags_rejected_for_model_kind(self):
        with pytest.raises(SystemExit, match="--traces"):
            main(["sweep", "--traces", "x.gz"])
        with pytest.raises(SystemExit, match="--codings"):
            main(["sweep", "--codings", "delta"])

    def test_coding_cross_live_core_rejected_up_front(
        self, tmp_path, capsys
    ):
        """A coding x network-core cross product would abort the whole
        sweep at expansion; the CLI rejects it with guidance instead."""
        trace = self.record_trace(tmp_path, capsys)
        with pytest.raises(SystemExit, match="offline only"):
            main(["sweep", "--kind", "replay", "--traces", trace,
                  "--codings", "none,delta", "--cores", "offline,event"])
        # Codings with offline cores remain fine.
        assert main([
            "sweep", "--kind", "replay", "--traces", trace,
            "--codings", "none,delta", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--store", str(tmp_path / "runs.jsonl"),
        ]) == 0

    def test_missing_trace_file_fails_at_expansion(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read trace file"):
            main(["sweep", "--kind", "replay",
                  "--traces", str(tmp_path / "ghost.trace.gz")])

    def test_cores_axis_on_model_sweep(self, tmp_path, capsys):
        argv = [
            "sweep", "--meshes", "2x2:1", "--orderings", "O0",
            "--tasks", "1", "--workers", "1",
            "--cores", "event,stepped",
            "--cache-dir", str(tmp_path / "cache"),
            "--store", str(tmp_path / "runs.jsonl"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert "0 errors" in out
        records = [json.loads(line) for line in
                   (tmp_path / "runs.jsonl").read_text().splitlines()]
        by_core = {r["config"]["core"]: r for r in records}
        assert set(by_core) == {"event", "stepped"}
        # The cores are bit-identical on the same workload.
        assert (
            by_core["event"]["result"]["total_bit_transitions"]
            == by_core["stepped"]["result"]["total_bit_transitions"]
        )


class TestReportSkipsFailedJobs:
    """Regression: `repro report` on a store containing failed jobs
    warns and reports the rest instead of raising."""

    def write_store(self, tmp_path) -> str:
        ok = {
            "job_id": "good", "campaign": "t", "kind": "model",
            "model": "lenet", "cached": False,
            "config": {"width": 2, "height": 2, "n_mcs": 1,
                       "ordering": "O0", "data_format": "fixed8"},
            "status": "ok",
            "result": {"total_bit_transitions": 123, "total_cycles": 9,
                       "flit_hops": 5, "tasks_verified": 1,
                       "tasks_total": 1, "mean_packet_latency": 1.0,
                       "ordering_latency_cycles": 0},
            "error": None,
        }
        failed = {
            "job_id": "bad", "campaign": "t", "kind": "model",
            "model": "lenet", "cached": False, "config": {},
            "status": "error", "result": None,
            "error": "SimulationTimeout: boom",
        }
        hollow = {**ok, "job_id": "hollow", "result": None}
        store = tmp_path / "mixed.jsonl"
        store.write_text(
            "\n".join(json.dumps(r) for r in (ok, failed, hollow)) + "\n"
        )
        return str(store)

    def test_report_warns_and_renders(self, tmp_path, capsys):
        store = self.write_store(tmp_path)
        assert main(["report", "--store", store]) == 0
        captured = capsys.readouterr()
        assert "Absolute BTs (fixed8)" in captured.out
        assert "2x2 MC1" in captured.out
        # One summary line, not one warning per skipped record.
        assert "skipped 2 of 3 record(s)" in captured.err
        assert "first: bad: SimulationTimeout: boom" in captured.err
        assert captured.err.count("warning:") == 1

    def test_report_pivots_survive_failed_jobs(self, tmp_path, capsys):
        store = self.write_store(tmp_path)
        for pivot_name in ("mesh", "model", "layer", "link"):
            assert main(["report", "--store", store,
                         "--pivot", pivot_name]) == 0


class TestSweepProgressAndMetrics:
    SWEEP = [
        "sweep",
        "--meshes", "2x2:1",
        "--orderings", "O0,O2",
        "--tasks", "1",
        "--workers", "1",
        "--no-cache",
    ]

    def test_progress_streams_telemetry_lines(self, tmp_path, capsys):
        argv = [
            *self.SWEEP,
            "--store", str(tmp_path / "runs.jsonl"),
            "--progress",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out
        assert "[2/2]" in out
        assert "0 failed" in out
        assert "eta" in out  # the second sample carries an ETA

    def test_metrics_flag_prints_counter_families(self, tmp_path, capsys):
        argv = [
            *self.SWEEP,
            "--store", str(tmp_path / "runs.jsonl"),
            "--metrics",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "campaign metrics:" in out
        for name in (
            "event.steps_executed",
            "router.vc_grants",
            "codec.batch_chunks",
            "cache.misses",
            "runner.jobs",
        ):
            assert name in out, name


class TestSweepResilience:
    """CLI plumbing of the fault-tolerant runner: --fault-plan,
    --job-timeout/--max-retries, --resume, and report --failures."""

    SWEEP = [
        "sweep",
        "--meshes", "2x2:1",
        "--orderings", "O0,O2",
        "--tasks", "1",
        "--workers", "2",
        "--no-cache",
    ]

    def _plan(self, tmp_path, actions) -> str:
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"actions": actions}))
        return str(path)

    def _campaign_id(self, out: str) -> str:
        for line in out.splitlines():
            if line.startswith("campaign id: "):
                return line.split()[2]
        raise AssertionError(f"no campaign id line in:\n{out}")

    def test_kill_fault_fails_structured_not_raised(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "runs.jsonl")
        argv = [
            *self.SWEEP,
            "--store", store,
            "--max-retries", "0",
            "--fault-plan",
            self._plan(tmp_path, {"0": [{"kind": "kill"}]}),
            "--metrics",
        ]
        assert main(argv) == 1  # failed, but gracefully
        out = capsys.readouterr().out
        assert "1 worker crashes" in out
        assert "1 quarantined" in out
        assert "failures: 1 job(s) (1 worker_crash)" in out
        assert "runner.worker_crashes = 1" in out
        assert "cache.corrupt_entries = 0" in out

        assert main(["report", "--store", store, "--failures"]) == 0
        failures = capsys.readouterr().out
        assert "Failed jobs (1 of 2):" in failures
        assert "worker_crash" in failures
        assert "QUARANTINED" in failures

    def test_transient_fault_retries_to_fault_free_rows(
        self, tmp_path, capsys
    ):
        clean_store = tmp_path / "clean.jsonl"
        argv = [*self.SWEEP, "--store", str(clean_store)]
        assert main(argv) == 0
        capsys.readouterr()

        chaos_store = tmp_path / "chaos.jsonl"
        argv = [
            *self.SWEEP,
            "--store", str(chaos_store),
            "--fault-plan",
            self._plan(tmp_path, {"1": [{"kind": "transient"}]}),
        ]
        assert main(argv) == 0
        assert "1 retries" in capsys.readouterr().out

        def rows(path):
            drop = ("cached", "resumed", "campaign")
            return [
                {k: v for k, v in json.loads(line).items()
                 if k not in drop}
                for line in path.read_text().splitlines()
            ]

        assert rows(chaos_store) == rows(clean_store)

    def test_resume_completes_after_exhausted_retries(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "runs.jsonl")
        base = [*self.SWEEP, "--store", store]
        kill_all_attempts = {
            "0": [{"kind": "kill", "attempt": n} for n in (1, 2, 3)]
        }
        assert main([
            *base,
            "--fault-plan", self._plan(tmp_path, kill_all_attempts),
        ]) == 1
        out = capsys.readouterr().out
        cid = self._campaign_id(out)
        assert "1 quarantined" in out

        # Same grid + --resume: the journaled job is served back and
        # only the quarantined one re-executes (faults lifted).
        assert main([*base, "--resume", cid]) == 0
        resumed = capsys.readouterr().out
        assert "1 resumed" in resumed
        assert "0 errors" in resumed
        latest = ResultStore(store).latest_by_job()
        assert len(latest) == 2
        assert all(r["status"] == "ok" for r in latest.values())

    def test_resume_id_mismatch_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="does not match"):
            main([
                *self.SWEEP,
                "--store", str(tmp_path / "r.jsonl"),
                "--resume", "other-12345678",
            ])

    def test_resume_without_journal_is_clean_error(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "r.jsonl")
        argv = [*self.SWEEP, "--store", store]
        assert main(argv) == 0
        cid = self._campaign_id(capsys.readouterr().out)
        # A completed (non-resumed) rerun starts a fresh journal; but
        # resuming with no journal on disk must fail loudly.
        (tmp_path / f"{cid}.journal").unlink()
        with pytest.raises(SystemExit, match="nothing to resume"):
            main([*argv, "--resume", cid])

    def test_report_failures_on_healthy_store(self, tmp_path, capsys):
        store = str(tmp_path / "runs.jsonl")
        assert main([*self.SWEEP, "--store", store]) == 0
        capsys.readouterr()
        assert main(["report", "--store", store, "--failures"]) == 0
        assert "no failed jobs" in capsys.readouterr().out


class TestTraceCli:
    GOLDEN = "tests/data/golden_lenet_fixed8_O0.trace.gz"

    def test_stats_prints_pinned_headlines(self, capsys):
        assert main(["trace", "stats", self.GOLDEN]) == 0
        out = capsys.readouterr().out
        assert "total BTs         : 37510" in out
        assert "flit hops         : 870" in out
        assert "packets           : 74 (replayable)" in out
        assert "hottest link      : R6.EAST (9344 BTs)" in out

    def test_stats_per_link_table(self, capsys):
        assert main(["trace", "stats", self.GOLDEN, "--per-link"]) == 0
        out = capsys.readouterr().out
        assert "R6.EAST: 9344" in out
        assert "R0.LOCAL: 781" in out

    def test_heat_reports_hottest_cells(self, capsys):
        assert main(
            ["trace", "heat", self.GOLDEN, "--window", "64", "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "5 window(s) of 64 cycle(s); 37510 BTs total" in out
        assert "R6.EAST window" in out

    def test_heat_owner_attribution(self, capsys):
        assert main(["trace", "heat", self.GOLDEN, "--owners"]) == 0
        out = capsys.readouterr().out
        assert "BTs by owning packet" in out
        assert "packet " in out

    def test_self_diff_is_empty_and_exits_zero(self, capsys):
        assert main(["trace", "diff", self.GOLDEN, self.GOLDEN]) == 0
        out = capsys.readouterr().out
        assert "traces are identical" in out

    def test_diff_against_reordered_exits_one(self, tmp_path, capsys):
        from repro.workloads.traces import TrafficTrace

        reordered = tmp_path / "reordered.trace.gz"
        TrafficTrace.load(self.GOLDEN).reordered("popcount_desc").save(
            reordered
        )
        assert main(
            ["trace", "diff", self.GOLDEN, str(reordered)]
        ) == 1
        out = capsys.readouterr().out
        assert "diverging link(s)" in out
        assert "first divergence: link R0.LOCAL, window 0" in out

    def test_bisect_localises_reordered_divergence(
        self, tmp_path, capsys
    ):
        from repro.workloads.traces import TrafficTrace

        reordered = tmp_path / "reordered.trace.gz"
        TrafficTrace.load(self.GOLDEN).reordered("popcount_desc").save(
            reordered
        )
        assert main(
            ["trace", "bisect", self.GOLDEN, str(reordered)]
        ) == 1
        out = capsys.readouterr().out
        assert "first diverging window: 0 (cycles [0, 64))" in out
        assert "R6.EAST" in out
        assert "offline probe(s)" in out

    def test_bisect_self_exits_zero(self, capsys):
        assert main(["trace", "bisect", self.GOLDEN, self.GOLDEN]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_missing_trace_file_is_clean_error(self):
        with pytest.raises(SystemExit, match="bad trace file"):
            main(["trace", "stats", "nope.trace.gz"])

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["trace"])


class TestServingCLI:
    def serving_argv(self, tmp_path, **extra):
        argv = [
            "sweep", "--kind", "serving",
            "--tenants", "uniform+hotspot",
            "--requests", "2",
            "--packets", "2",
            "--orderings", "O0",
            "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--store", str(tmp_path / "svc.jsonl"),
        ]
        for flag, value in extra.items():
            argv += [f"--{flag}", str(value)]
        return argv

    def test_serving_sweep_and_tenant_report(self, tmp_path, capsys):
        store = str(tmp_path / "svc.jsonl")
        assert main(self.serving_argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "Serving fleet BTs" in out
        assert "requests" in out

        assert main(["report", "--store", store,
                     "--pivot", "tenant"]) == 0
        report = capsys.readouterr().out
        assert "Per-tenant serving stats" in report
        assert "uniform" in report and "hotspot" in report

    def test_serving_rate_axis(self, tmp_path, capsys):
        assert main(
            self.serving_argv(tmp_path, rates="0.01,0.05")
        ) == 0
        out = capsys.readouterr().out
        assert "background_rate=0.01" in out
        assert "background_rate=0.05" in out

    def test_serving_sweep_deterministic(self, tmp_path, capsys):
        assert main(self.serving_argv(tmp_path)) == 0
        first = capsys.readouterr().out
        # Fresh cache, same seed: identical tables.
        assert main(
            [a if a != str(tmp_path / "cache") else str(tmp_path / "c2")
             for a in self.serving_argv(tmp_path)]
        ) == 0
        second = capsys.readouterr().out

        def clean(text):
            # Drop provenance/timing lines: campaign id and wall time
            # vary run to run, the simulated tables must not.
            return "\n".join(
                line for line in text.splitlines()
                if not line.startswith("campaign")
            )

        assert clean(first) == clean(second)

    def test_serving_flags_rejected_elsewhere(self):
        with pytest.raises(SystemExit, match="--tenants does not apply"):
            main(["sweep", "--tenants", "uniform", "--workers", "1"])
        with pytest.raises(SystemExit, match="--rates does not apply"):
            main(["sweep", "--kind", "synthetic", "--rates", "0.1",
                  "--workers", "1"])

    def test_synthetic_flags_rejected_for_serving(self):
        with pytest.raises(SystemExit, match="--patterns does not apply"):
            main(["sweep", "--kind", "serving", "--patterns", "uniform",
                  "--workers", "1"])

    def test_bad_rates_is_clean_error(self):
        with pytest.raises(SystemExit, match="bad --rates"):
            main(["sweep", "--kind", "serving", "--rates", "fast",
                  "--workers", "1"])


class TestServiceCLI:
    """The distributed-sweep surface: serve/work plumbing, cache
    verify, and the resume drift guard."""

    def _tiny_spec(self):
        from repro.experiments.spec import SweepSpec

        return SweepSpec(
            name="svc",
            model="lenet",
            base={"max_tasks_per_layer": 1},
            axes={"mesh": ["2x2:1"], "ordering": ["O0"]},
        )

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 0)
        assert args.lease == 30.0
        assert args.heartbeat is None

    def test_work_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["work"])

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])

    def test_work_against_api_server_drains(self, tmp_path, capsys):
        from repro.service import SweepServer

        server = SweepServer(self._tiny_spec())
        host, port = server.start()
        try:
            code = main(["work", "--connect", f"{host}:{port}",
                         "--name", "cli-w"])
        finally:
            server.close()
        assert code == 0
        out = capsys.readouterr().out
        assert "worker cli-w drained (complete): 1 ok" in out
        assert server.result is not None

    def test_work_rejected_on_campaign_mismatch(self, capsys):
        from repro.service import SweepServer

        server = SweepServer(self._tiny_spec())
        host, port = server.start()
        try:
            code = main(["work", "--connect", f"{host}:{port}",
                         "--expect-campaign", "other-00000000"])
        finally:
            server.close()
        assert code == 2
        assert "campaign mismatch" in capsys.readouterr().err

    def test_work_dead_server_exits_3_with_hint(self, capsys):
        from repro.service import SweepServer

        server = SweepServer(self._tiny_spec())
        host, port = server.start()
        server.close()
        code = main(["work", "--connect", f"{host}:{port}",
                     "--reconnect-attempts", "2",
                     "--reconnect-backoff", "0.01",
                     "--expect-campaign", server.campaign_id])
        assert code == 3
        err = capsys.readouterr().err
        assert "server lost" in err
        assert f"--resume {server.campaign_id}" in err

    def test_cache_verify_clean_exits_0(self, tmp_path, capsys):
        from repro.experiments.cache import ResultCache

        root = tmp_path / "cache"
        ResultCache(root).put(
            "ab" * 32, {"job_id": "x", "status": "ok", "result": {}}
        )
        code = main(["cache", "verify", "--cache-dir", str(root)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 entry checked, 1 ok, 0 corrupt" in out

    def test_cache_verify_corrupt_exits_1_and_quarantines(
        self, tmp_path, capsys
    ):
        from repro.experiments.cache import ResultCache

        root = tmp_path / "cache"
        cache = ResultCache(root)
        key = "cd" * 32
        cache.put(key, {"job_id": "x", "status": "ok", "result": {}})
        cache._path(key).write_text("garbage")
        code = main(["cache", "verify", "--cache-dir", str(root)])
        assert code == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert "(quarantined)" in out
        assert "quarantined entries (1):" in out
        assert not cache._path(key).exists()

    def test_cache_verify_no_quarantine_leaves_entry(
        self, tmp_path, capsys
    ):
        from repro.experiments.cache import ResultCache

        root = tmp_path / "cache"
        cache = ResultCache(root)
        key = "ef" * 32
        cache.put(key, {"job_id": "x", "status": "ok", "result": {}})
        cache._path(key).write_text("garbage")
        code = main(["cache", "verify", "--cache-dir", str(root),
                     "--no-quarantine"])
        assert code == 1
        assert "(left in place)" in capsys.readouterr().out
        assert cache._path(key).exists()

    def test_resume_with_drifted_journal_is_clean_error(
        self, tmp_path, capsys
    ):
        # A journal at the expected path whose start entry records a
        # different campaign: the drift guard must abort, not mix.
        store = tmp_path / "svc.jsonl"
        sweep = ["sweep", "--name", "svc", "--meshes", "2x2:1",
                 "--orderings", "O0", "--tasks", "1", "--workers", "1",
                 "--no-cache", "--store", str(store)]
        assert main(sweep) == 0
        out = capsys.readouterr().out
        cid = next(
            line.split()[2] for line in out.splitlines()
            if line.startswith("campaign id: ")
        )
        journal_path = tmp_path / f"{cid}.journal"
        text = journal_path.read_text().replace(cid, "svc-00000000")
        journal_path.write_text(text)
        with pytest.raises(SystemExit, match="drifted"):
            main(sweep + ["--resume", cid])
