"""Fault injection, retry/timeout/backoff, and crash-safe resume.

The chaos matrix: every resilience feature of the campaign runner is
exercised against the fault it defends — injected into the *real*
multiprocessing path — and the recovered campaign must produce records
identical to a fault-free run (timing/provenance keys excluded).
"""

from __future__ import annotations

import json
import os
import signal
import threading

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.faults import (
    KILL_EXIT_CODE,
    NETWORK_FAULT_KINDS,
    FaultAction,
    FaultPlan,
    TransientFaultError,
    apply_fault_actions,
    backoff_seconds,
    classify_error,
    corrupt_cache_entry,
    tear_file_tail,
)
from repro.experiments.runner import CampaignRunner
from repro.experiments.spec import SweepSpec, campaign_id
from repro.experiments.store import CampaignJournal, ResultStore


def small_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        name="chaos",
        model="lenet",
        base={"max_tasks_per_layer": 2},
        axes={
            "mesh": ["2x2:1", "3x3:1"],
            "ordering": ["O0", "O2"],
        },
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def stripped(records):
    """Records minus run-provenance keys — the determinism comparison."""
    drop = ("cached", "resumed", "campaign")
    return [
        {k: v for k, v in r.items() if k not in drop} for r in records
    ]


def fault_free_records():
    return stripped(CampaignRunner(workers=2).run(small_spec()).records)


class TestFaultPlan:
    def test_index_and_job_id_prefix_keys(self):
        plan = FaultPlan(
            {
                0: [FaultAction("kill")],
                "2": [FaultAction("hang")],
                "abc123": [FaultAction("transient")],
            }
        )
        assert len(plan) == 3
        assert [a.kind for a in plan.actions_for("xyz", 0, 1)] == ["kill"]
        assert [a.kind for a in plan.actions_for("xyz", 2, 1)] == ["hang"]
        assert [
            a.kind for a in plan.actions_for("abc123def", 9, 1)
        ] == ["transient"]
        assert plan.actions_for("other", 1, 1) == []

    def test_attempt_filtering(self):
        plan = FaultPlan(
            {0: [FaultAction("kill", attempt=1),
                 FaultAction("transient", attempt=2)]}
        )
        assert [a.kind for a in plan.actions_for("j", 0, 1)] == ["kill"]
        assert [a.kind for a in plan.actions_for("j", 0, 2)] == [
            "transient"
        ]
        assert plan.actions_for("j", 0, 3) == []

    def test_roundtrip(self):
        plan = FaultPlan(
            {1: [FaultAction("hang", hang_seconds=2.5)],
             "dead": [FaultAction("kill")]},
            seed=7,
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()
        assert clone.seed == 7

    def test_sampled_is_deterministic_and_seeded(self):
        jobs = small_spec().expand()
        a = FaultPlan.sampled(jobs, seed=3, kill_rate=0.5)
        b = FaultPlan.sampled(jobs, seed=3, kill_rate=0.5)
        c = FaultPlan.sampled(jobs, seed=4, kill_rate=0.5)
        assert a.to_dict() == b.to_dict()
        assert a.to_dict() != c.to_dict()
        assert FaultPlan.sampled(jobs, seed=3).to_dict()["actions"] == {}

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultAction("explode")
        with pytest.raises(ValueError, match="1-based"):
            FaultAction("kill", attempt=0)
        with pytest.raises(ValueError, match="unknown FaultAction keys"):
            FaultAction.from_dict({"kind": "kill", "when": 2})


class TestNetworkFaultKinds:
    def test_network_kinds_accepted_and_flagged(self):
        for kind in NETWORK_FAULT_KINDS:
            action = FaultAction(kind)
            assert action.is_network is True
        assert FaultAction("kill").is_network is False
        assert FaultAction("transient").is_network is False

    def test_network_kinds_roundtrip(self):
        plan = FaultPlan(
            {0: [FaultAction("drop_connection"),
                 FaultAction("heartbeat_stall", hang_seconds=3.0)]}
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        actions = clone.actions_for("j", 0, 1)
        assert [a.kind for a in actions] == [
            "drop_connection", "heartbeat_stall",
        ]
        assert actions[1].hang_seconds == 3.0

    def test_apply_fault_actions_skips_network_kinds(self):
        # Network faults fire on the wire, not inside the worker: a
        # payload carrying only network actions must execute cleanly.
        actions = [
            FaultAction(kind).to_dict() for kind in NETWORK_FAULT_KINDS
        ]
        apply_fault_actions(actions)  # no exit, no raise, no sleep
        # Mixed payloads still fire the in-process part.
        with pytest.raises(TransientFaultError):
            apply_fault_actions(
                actions + [FaultAction("transient").to_dict()]
            )


class TestTriage:
    def test_transient_actions_raise(self):
        with pytest.raises(TransientFaultError, match="attempt 2"):
            apply_fault_actions(
                [FaultAction("transient", attempt=2).to_dict()]
            )

    def test_classify_error(self):
        assert classify_error("TransientFaultError: x") == "transient"
        assert classify_error("JobTimeout: exceeded") == "transient"
        assert classify_error("WorkerCrash: died") == "transient"
        assert classify_error("ValueError: bad grid") == "permanent"
        assert classify_error("SimulationTimeout: drain") == "permanent"
        assert classify_error(None) == "permanent"
        # Kind-declared extensions widen the transient set.
        assert classify_error("OSError: EIO", ("OSError",)) == "transient"

    def test_noc_flow_control_error_settles_after_one_attempt(
        self, monkeypatch
    ):
        """A NoC invariant violation is a simulator bug, not a torn
        service frame: it classifies permanent, so an inline campaign
        job raising it is never retried."""
        from repro.experiments.kinds import job_kind
        from repro.noc.router import FlowControlError

        message = "router 3 port EAST VC 0: credit underflow"
        assert classify_error(f"FlowControlError: {message}") == (
            "permanent"
        )

        def violate(*args, **kwargs):
            raise FlowControlError(message)

        kind = type(job_kind("model"))
        monkeypatch.setattr(kind, "execute", violate)
        monkeypatch.setattr(kind, "execute_group", violate)
        result = CampaignRunner(
            workers=1, max_retries=2
        ).run(small_spec())
        assert result.retries == 0
        assert result.errors == len(result.records) == 4
        for record in result.records:
            assert record["error"] == f"FlowControlError: {message}"
            assert record["error_class"] == "permanent"
            assert record["attempts"] == 1

    def test_backoff_is_seeded_exponential_and_capped(self):
        d1 = backoff_seconds(0, "job", 1, base=0.1, cap=10.0)
        d2 = backoff_seconds(0, "job", 2, base=0.1, cap=10.0)
        assert d1 == backoff_seconds(0, "job", 1, base=0.1, cap=10.0)
        assert 0.05 <= d1 < 0.15 and 0.1 <= d2 < 0.3
        assert backoff_seconds(0, "job", 30, base=0.1, cap=1.0) < 1.5
        assert backoff_seconds(0, "job", 1) != backoff_seconds(
            1, "job", 1
        )
        with pytest.raises(ValueError):
            backoff_seconds(0, "job", 0)


class TestSupervisedFaults:
    def test_transient_fault_retries_to_identical_records(self):
        plan = FaultPlan(
            {0: [FaultAction("transient")],
             2: [FaultAction("transient")]}
        )
        runner = CampaignRunner(
            workers=2, max_retries=2, fault_plan=plan
        )
        result = runner.run(small_spec())
        assert result.errors == 0
        assert result.retries == 2
        assert not result.quarantined
        assert stripped(result.records) == fault_free_records()

    def test_kill_is_captured_and_quarantined(self):
        plan = FaultPlan({1: [FaultAction("kill")]})
        runner = CampaignRunner(workers=2, fault_plan=plan)
        result = runner.run(small_spec())
        assert result.errors == 1
        assert result.worker_crashes == 1
        bad = [r for r in result.records if r["status"] == "error"]
        assert len(bad) == 1
        assert f"exited with code {KILL_EXIT_CODE}" in bad[0]["error"]
        assert bad[0]["error_class"] == "worker_crash"
        assert bad[0]["attempts"] == 1
        assert bad[0]["quarantined"] is True
        assert result.quarantined == [bad[0]["job_id"]]
        report = result.failure_report()
        assert report["failed"] == 1
        assert report["by_class"] == {"worker_crash": 1}

    def test_kill_then_clean_retry_succeeds(self):
        plan = FaultPlan({1: [FaultAction("kill", attempt=1)]})
        runner = CampaignRunner(
            workers=2, max_retries=1, fault_plan=plan
        )
        result = runner.run(small_spec())
        assert result.errors == 0
        assert (result.worker_crashes, result.retries) == (1, 1)
        assert stripped(result.records) == fault_free_records()

    def test_hang_is_reaped_by_timeout_then_retried(self):
        plan = FaultPlan({0: [FaultAction("hang", hang_seconds=30.0)]})
        runner = CampaignRunner(
            workers=2,
            job_timeout=2.0,
            max_retries=1,
            fault_plan=plan,
        )
        result = runner.run(small_spec())
        assert result.errors == 0
        assert result.timeouts == 1
        assert stripped(result.records) == fault_free_records()

    def test_timeout_without_retries_fails_structured(self):
        plan = FaultPlan({0: [FaultAction("hang", hang_seconds=30.0)]})
        runner = CampaignRunner(
            workers=2, job_timeout=1.0, fault_plan=plan
        )
        result = runner.run(small_spec())
        bad = [r for r in result.records if r["status"] == "error"]
        assert len(bad) == 1
        assert "JobTimeout" in bad[0]["error"]
        assert bad[0]["error_class"] == "timeout"
        assert result.timeouts == 1

    def test_permanent_errors_never_retry(self):
        # An impossible cycle budget is deterministic: retrying it
        # would burn attempts on a failure that cannot clear.
        spec = small_spec(max_cycles_per_layer=1)
        runner = CampaignRunner(workers=2, max_retries=3)
        result = runner.run(spec)
        assert result.errors == len(result.records)
        assert result.retries == 0
        assert not result.quarantined
        assert all(
            r["error_class"] == "permanent" and r["attempts"] == 1
            for r in result.records
        )

    def test_chaos_matrix_recovers_to_fault_free_records(self, tmp_path):
        """The ISSUE gate: kill + hang + transient in one campaign,
        with retries, lands on byte-identical records."""
        plan = FaultPlan(
            {
                0: [FaultAction("kill", attempt=1)],
                1: [FaultAction("hang", hang_seconds=30.0, attempt=1)],
                2: [FaultAction("transient", attempt=1)],
            }
        )
        store = ResultStore(tmp_path / "chaos.jsonl")
        runner = CampaignRunner(
            store=store,
            workers=2,
            job_timeout=3.0,
            max_retries=2,
            fault_plan=plan,
        )
        result = runner.run(small_spec())
        assert result.errors == 0
        assert result.worker_crashes == 1
        assert result.timeouts == 1
        assert result.retries == 3
        assert stripped(result.records) == fault_free_records()
        assert stripped(store.load()) == fault_free_records()
        assert result.metrics["runner.retries"] == 3
        assert result.metrics["runner.timeouts"] == 1
        assert result.metrics["runner.worker_crashes"] == 1


class TestJournalResume:
    def test_exhausted_retries_quarantine_then_resume_completes(
        self, tmp_path
    ):
        plan = FaultPlan(
            {0: [FaultAction("kill", attempt=1),
                 FaultAction("kill", attempt=2)]}
        )
        journal = CampaignJournal(tmp_path / "c.journal")
        spec = small_spec()
        first = CampaignRunner(
            workers=2,
            max_retries=1,
            fault_plan=plan,
            journal=journal,
        ).run(spec)
        assert first.errors == 1
        assert len(first.quarantined) == 1
        events = [e["event"] for e in journal.entries()]
        assert events[0] == "start"
        assert events.count("job") == 3  # only ok jobs journal
        assert events[-1] == "end"
        assert journal.start_entry()["campaign_id"] == campaign_id(spec)

        second = CampaignRunner(workers=2, journal=journal).run(spec)
        assert second.errors == 0
        assert second.resumed == 3
        assert second.misses == 1  # only the quarantined job re-ran
        assert stripped(second.records) == fault_free_records()
        assert [
            r.get("resumed", False) for r in second.records
        ].count(True) == 3
        assert second.metrics["runner.resumed"] == 3

    def test_resume_survives_torn_journal_tail(self, tmp_path):
        journal = CampaignJournal(tmp_path / "c.journal")
        spec = small_spec()
        CampaignRunner(workers=2, journal=journal).run(spec)
        tear_file_tail(journal.path)
        result = CampaignRunner(workers=2, journal=journal).run(spec)
        assert journal.torn_bytes_dropped > 0
        assert result.resumed == 4
        assert result.misses == 0
        assert stripped(result.records) == fault_free_records()

    def test_journal_recover_and_entries(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.journal")
        assert not journal.exists()
        journal.start("c-1234", "c", {"name": "c"}, "store.jsonl")
        journal.record_job(
            [{"job_id": "abc", "status": "ok", "result": {}}]
        )
        tear_file_tail(journal.path)
        assert journal.recover() > 0
        assert journal.recover() == 0  # idempotent
        assert [e["event"] for e in journal.entries()] == [
            "start", "job",
        ]
        assert list(journal.completed()) == ["abc"]

    def test_interior_corruption_is_skipped_not_fatal(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.journal")
        journal.start("c-1", "c", None)
        with journal.path.open("a") as fh:
            fh.write("{broken json\n")
        journal.record_job(
            [{"job_id": "ok1", "status": "ok", "result": {}}]
        )
        assert list(journal.completed()) == ["ok1"]
        assert journal.corrupt_skipped == 1


class TestInterrupt:
    def test_sigint_checkpoints_journal_and_resumes(self, tmp_path):
        spec = small_spec()
        journal = CampaignJournal(tmp_path / "c.journal")
        plan = FaultPlan(
            {i: [FaultAction("hang", hang_seconds=60.0)] for i in range(4)}
        )
        runner = CampaignRunner(
            workers=2, fault_plan=plan, journal=journal
        )
        timer = threading.Timer(
            1.0, lambda: os.kill(os.getpid(), signal.SIGINT)
        )
        timer.start()
        try:
            result = runner.run(spec)
        finally:
            timer.cancel()
        assert result.interrupted
        assert result.remaining  # hung jobs never completed
        assert [e["event"] for e in journal.entries()][-1] == "checkpoint"
        report = result.failure_report()
        assert report["interrupted"] is True
        assert report["remaining"] == result.remaining

        clean = CampaignRunner(workers=2, journal=journal).run(spec)
        assert not clean.interrupted
        assert clean.errors == 0
        assert stripped(clean.records) == fault_free_records()

    def test_sigterm_checkpoints_exactly_like_sigint(self, tmp_path):
        # Orchestrators (CI cancel, systemd stop, k8s eviction) send
        # SIGTERM, not SIGINT: the runner must checkpoint the same way.
        spec = small_spec()
        journal = CampaignJournal(tmp_path / "c.journal")
        plan = FaultPlan(
            {i: [FaultAction("hang", hang_seconds=60.0)] for i in range(4)}
        )
        runner = CampaignRunner(
            workers=2, fault_plan=plan, journal=journal
        )
        timer = threading.Timer(
            1.0, lambda: os.kill(os.getpid(), signal.SIGTERM)
        )
        timer.start()
        try:
            result = runner.run(spec)
        finally:
            timer.cancel()
        assert result.interrupted
        assert [e["event"] for e in journal.entries()][-1] == "checkpoint"
        # The previous SIGTERM disposition is restored afterwards.
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

        clean = CampaignRunner(workers=2, journal=journal).run(spec)
        assert not clean.interrupted
        assert stripped(clean.records) == fault_free_records()


class TestSpecDrift:
    def test_resume_refuses_drifted_spec(self, tmp_path):
        from repro.experiments.runner import SpecDriftError

        journal = CampaignJournal(tmp_path / "c.journal")
        CampaignRunner(workers=1, journal=journal).run(
            small_spec(axes={"mesh": ["2x2:1"], "ordering": ["O0"]})
        )
        drifted = small_spec(
            axes={"mesh": ["2x2:1"], "ordering": ["O2"]}
        )
        with pytest.raises(SpecDriftError, match="drifted"):
            CampaignRunner(workers=1, journal=journal).run(drifted)

    def test_same_spec_resumes_without_complaint(self, tmp_path):
        journal = CampaignJournal(tmp_path / "c.journal")
        spec = small_spec(axes={"mesh": ["2x2:1"], "ordering": ["O0"]})
        CampaignRunner(workers=1, journal=journal).run(spec)
        again = CampaignRunner(workers=1, journal=journal).run(spec)
        assert again.resumed == 1


class TestCacheCorruption:
    @pytest.mark.parametrize("mode", ["flip", "truncate", "garbage"])
    def test_corrupt_entry_quarantines_and_recomputes(
        self, tmp_path, mode
    ):
        cache = ResultCache(tmp_path / "cache")
        spec = small_spec()
        baseline = CampaignRunner(cache=cache, workers=2).run(spec)
        victim = spec.expand()[1]
        path = corrupt_cache_entry(cache, victim, mode=mode)

        # The rerun itself detects the corruption: verify-on-read
        # quarantines the entry and the point re-simulates.
        rerun = CampaignRunner(cache=cache, workers=2).run(spec)
        assert (rerun.hits, rerun.misses) == (3, 1)
        assert rerun.metrics["cache.corrupt_entries"] == 1
        assert stripped(rerun.records) == stripped(baseline.records)
        # The recomputed record was re-cached at the same path and now
        # verifies clean; the corrupt original sits in quarantine.
        assert os.path.exists(path)
        assert cache.get_job(victim) is not None
        assert cache.corrupt_dropped == 1
        quarantined = list((tmp_path / "cache" / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name.endswith(".corrupt")

    def test_flip_keeps_json_parseable(self, tmp_path):
        # The flip mode exists to prove the *digest* catches what a
        # JSON parse alone would serve back silently.
        cache = ResultCache(tmp_path / "cache")
        spec = small_spec()
        CampaignRunner(cache=cache, workers=2).run(spec)
        victim = spec.expand()[0]
        path = corrupt_cache_entry(cache, victim, mode="flip")
        json.loads(path.read_text())  # still valid JSON
        assert cache.get_job(victim) is None  # ...but never served


class TestInlineRetries:
    def test_workers_1_retries_transient_kind_errors(self, tmp_path):
        # The registered flaky kind fails on first execution and
        # succeeds on re-execution (file-marker state): with its error
        # type declared transient, one inline retry clears it.
        from repro.experiments.kinds import JOB_KINDS, JobKind
        from repro.experiments.kinds import register_job_kind
        from repro.experiments.spec import JobSpec
        from repro.accelerator.config import AcceleratorConfig

        marker = tmp_path / "fired"

        class OnceFlaky(JobKind):
            name = "once_flaky"
            transient_errors = ("ConnectionAbortedError",)

            def execute(self, job):
                if not marker.exists():
                    marker.write_text("x")
                    raise ConnectionAbortedError("blip")
                return dict(job_kind_result=True, metrics={})

        register_job_kind(OnceFlaky())
        try:
            job = JobSpec(
                kind="once_flaky",
                model="lenet",
                config=AcceleratorConfig(
                    width=2, height=2, n_mcs=1, max_tasks_per_layer=1
                ),
            )
            runner = CampaignRunner(
                workers=1, max_retries=2
            )
            result = runner.run([job])
            assert result.errors == 0
            assert result.retries == 1
        finally:
            JOB_KINDS.pop("once_flaky", None)

    def test_workers_1_permanent_error_annotated(self):
        spec = small_spec(
            axes={"mesh": ["2x2:1"], "ordering": ["O0"]},
            max_cycles_per_layer=1,
        )
        result = CampaignRunner(workers=1, max_retries=2).run(spec)
        assert result.errors == 1
        record = result.records[0]
        assert record["error_class"] == "permanent"
        assert record["attempts"] == 1
        assert record["quarantined"] is False
