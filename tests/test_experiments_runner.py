"""Campaign runner: caching, failure capture, parallel determinism."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading

import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.experiments.cache import ResultCache
from repro.experiments.kinds import JOB_KINDS, JobKind, register_job_kind
from repro.experiments.faults import FaultAction, FaultPlan, backoff_seconds
from repro.experiments.runner import (
    CampaignRunner,
    _Ledger,
    execute_job,
    failure_record,
)
from repro.experiments.spec import JobSpec, SweepSpec
from repro.experiments.store import CampaignJournal, ResultStore
from repro.obs.metrics import active_registry, metrics_session


def small_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        name="t",
        model="lenet",
        base={"max_tasks_per_layer": 2},
        axes={
            "mesh": ["2x2:1", "3x3:1"],
            "ordering": ["O0", "O2"],
        },
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestExecuteJob:
    def test_successful_record_shape(self):
        job = JobSpec(
            model="lenet",
            config=AcceleratorConfig(
                width=2, height=2, n_mcs=1, max_tasks_per_layer=1
            ),
        )
        record = execute_job(job.to_dict())
        assert record["status"] == "ok"
        assert record["job_id"] == job.job_id
        assert record["result"]["total_bit_transitions"] > 0
        assert record["result"]["tasks_verified"] == (
            record["result"]["tasks_total"]
        )
        assert record["error"] is None

    def test_failure_is_captured_not_raised(self):
        job = JobSpec(
            model="lenet",
            config=AcceleratorConfig(
                width=2, height=2, n_mcs=1, max_tasks_per_layer=1
            ),
            max_cycles_per_layer=1,  # impossible budget -> timeout
        )
        record = execute_job(job.to_dict())
        assert record["status"] == "error"
        assert "SimulationTimeout" in record["error"]
        assert "traceback" in record
        assert record["result"] is None


class TestCampaignRunner:
    def test_cold_run_then_full_cache_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = CampaignRunner(cache=cache, workers=1)
        spec = small_spec()
        first = runner.run(spec)
        assert (first.hits, first.misses) == (0, 4)
        assert first.errors == 0
        second = runner.run(spec)
        assert (second.hits, second.misses) == (4, 0)
        assert second.hit_rate == 1.0
        stripped = lambda recs: [
            {k: v for k, v in r.items() if k != "cached"} for r in recs
        ]
        assert stripped(second.records) == stripped(first.records)
        assert all(r["cached"] for r in second.records)

    def test_partial_cache_only_simulates_new_points(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = CampaignRunner(cache=cache, workers=1)
        runner.run(small_spec(axes={"mesh": ["2x2:1"],
                                    "ordering": ["O0", "O2"]}))
        grown = runner.run(small_spec())
        assert (grown.hits, grown.misses) == (2, 2)

    def test_error_jobs_are_not_cached_and_counted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = CampaignRunner(cache=cache, workers=1)
        spec = small_spec(max_cycles_per_layer=1)
        result = runner.run(spec)
        assert result.errors == result.n_jobs == 4
        assert all(r["status"] == "error" for r in result.records)
        assert len(cache) == 0
        # The retry simulates again instead of serving stale errors.
        retry = runner.run(spec)
        assert retry.hits == 0

    def test_store_receives_every_record(self, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        runner = CampaignRunner(
            cache=ResultCache(tmp_path / "cache"), store=store, workers=1
        )
        spec = small_spec()
        runner.run(spec)
        runner.run(spec)
        records = store.load()
        assert len(records) == 8  # both runs logged
        assert len(store.latest_by_job()) == 4
        assert all(r["campaign"] == "t" for r in records)

    def test_runs_plain_job_lists(self, tmp_path):
        jobs = small_spec().expand()[:2]
        result = CampaignRunner(workers=1).run(jobs)
        assert result.n_jobs == 2
        assert result.name == "jobs"

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(workers=0)


def spy_on_cache(monkeypatch) -> list[str]:
    """Forbid ``ResultCache.__len__``; record every ``get_job`` call.

    Sizing the cache globs its directory, so a run must test the cache
    with ``is not None`` — and an empty (falsy) cache must still be
    read job by job.
    """

    def no_len(self):
        raise AssertionError("ResultCache.__len__ called during a run")

    consulted: list[str] = []
    original = ResultCache.get_job

    def get_job(self, job):
        consulted.append(job.job_id)
        return original(self, job)

    monkeypatch.setattr(ResultCache, "__len__", no_len)
    monkeypatch.setattr(ResultCache, "get_job", get_job)
    return consulted


class TestCacheConsultation:
    def test_cold_cache_read_and_never_sized(self, tmp_path, monkeypatch):
        consulted = spy_on_cache(monkeypatch)
        spec = small_spec()
        job_ids = [job.job_id for job in spec.expand()]
        runner = CampaignRunner(cache=ResultCache(tmp_path / "c"), workers=1)
        cold = runner.run(spec)
        assert (cold.hits, cold.misses) == (0, 4)
        assert consulted == job_ids
        warm = runner.run(spec)
        assert (warm.hits, warm.misses) == (4, 0)
        assert consulted == job_ids * 2


@pytest.fixture
def flaky_kind():
    """A registered kind whose handler raises until told otherwise."""

    class FlakyKind(JobKind):
        name = "flaky"
        broken = True

        def execute(self, job):
            if FlakyKind.broken:
                raise RuntimeError("handler exploded")
            return super().execute(job)

    kind = register_job_kind(FlakyKind())
    yield kind
    del JOB_KINDS["flaky"]


def flaky_job() -> JobSpec:
    return JobSpec(
        model="lenet",
        config=AcceleratorConfig(
            width=2, height=2, n_mcs=1, max_tasks_per_layer=1
        ),
        kind="flaky",
    )


class TestHandlerFailurePaths:
    """A raising job-kind handler must never corrupt a campaign."""

    def test_raise_is_captured_with_error_status(self, flaky_kind):
        record = execute_job(flaky_job().to_dict())
        assert record["status"] == "error"
        assert "RuntimeError: handler exploded" in record["error"]
        assert "handler exploded" in record["traceback"]
        assert record["result"] is None

    def test_failed_job_is_not_cached_and_excluded(
        self, flaky_kind, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        store = ResultStore(tmp_path / "runs.jsonl")
        runner = CampaignRunner(cache=cache, store=store, workers=1)
        result = runner.run([flaky_job()])
        assert result.errors == 1
        assert result.ok_records() == []  # errors never count as ok
        assert len(cache) == 0  # the cache is not poisoned
        # ...but the store still logged the failure for inspection.
        (logged,) = store.load()
        assert logged["status"] == "error"

    def test_failed_job_reruns_instead_of_replaying(
        self, flaky_kind, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        runner = CampaignRunner(cache=cache, workers=1)
        runner.run([flaky_job()])
        type(flaky_kind).broken = False  # the bug gets fixed...
        retry = runner.run([flaky_job()])
        # ...and the next campaign simulates rather than serving the
        # stale failure: a fresh ok record, produced by a cache miss.
        assert (retry.hits, retry.misses, retry.errors) == (0, 1, 0)
        assert retry.records[0]["status"] == "ok"
        type(flaky_kind).broken = True

    def test_mixed_campaign_continues_past_failures(
        self, flaky_kind, tmp_path
    ):
        good = JobSpec(
            model="lenet",
            config=AcceleratorConfig(
                width=2, height=2, n_mcs=1, max_tasks_per_layer=1
            ),
        )
        result = CampaignRunner(workers=1).run([flaky_job(), good])
        assert [r["status"] for r in result.records] == ["error", "ok"]
        assert result.errors == 1
        assert len(result.ok_records()) == 1


class TestReplayDeterminism:
    def test_cached_replay_is_byte_identical_jsonl(self, tmp_path):
        """Two warm replays append byte-identical JSONL records."""
        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        CampaignRunner(cache=cache, workers=1).run(spec)  # cold fill
        store_a = ResultStore(tmp_path / "a.jsonl")
        store_b = ResultStore(tmp_path / "b.jsonl")
        CampaignRunner(cache=cache, store=store_a, workers=1).run(spec)
        CampaignRunner(cache=cache, store=store_b, workers=4).run(spec)
        lines_a = store_a.path.read_bytes()
        assert lines_a == store_b.path.read_bytes()
        assert all(
            json.loads(line)["cached"]
            for line in lines_a.splitlines()
        )


class TestParallelDeterminism:
    def test_workers_1_vs_4_identical_records(self, tmp_path):
        spec = small_spec()
        serial = CampaignRunner(
            cache=ResultCache(tmp_path / "c1"), workers=1
        ).run(spec)
        parallel = CampaignRunner(
            cache=ResultCache(tmp_path / "c4"), workers=4
        ).run(spec)
        assert serial.records == parallel.records
        # Cache contents are byte-identical too: same keys, same values.
        c1 = ResultCache(tmp_path / "c1")
        c4 = ResultCache(tmp_path / "c4")
        for job in spec.expand():
            assert c1.get_job(job) == c4.get_job(job)

    def test_parallel_run_hits_serial_cache(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        CampaignRunner(cache=cache, workers=1).run(spec)
        replay = CampaignRunner(cache=cache, workers=4).run(spec)
        assert (replay.hits, replay.misses) == (4, 0)


class TestTelemetry:
    """The live per-job feed behind `repro sweep --progress`."""

    def collect(self, tmp_path, workers=1, cache=None):
        samples = []
        runner = CampaignRunner(cache=cache, workers=workers)
        out = runner.run(
            small_spec(), telemetry=samples.append
        )
        return out, samples

    def test_one_sample_per_fresh_job(self, tmp_path):
        out, samples = self.collect(tmp_path)
        assert len(samples) == out.misses == 4
        assert [s["done"] for s in samples] == [1, 2, 3, 4]
        assert all(s["total"] == 4 for s in samples)
        assert all(s["failed"] == 0 for s in samples)
        # Inline execution never has a job in flight between samples.
        assert [s["running"] for s in samples] == [0, 0, 0, 0]

    def test_sample_schema(self, tmp_path):
        _, samples = self.collect(tmp_path)
        expected_keys = {
            "job_id", "status", "done", "total", "cached", "failed",
            "running", "elapsed_seconds", "eta_seconds",
        }
        for sample in samples:
            assert set(sample) == expected_keys
            assert sample["status"] == "ok"
            assert sample["elapsed_seconds"] >= 0.0
        # The first sample has no rate estimate basis beyond itself;
        # later ones extrapolate the remaining work.
        assert samples[0]["eta_seconds"] is not None
        assert samples[-1]["eta_seconds"] == 0.0

    def test_pool_path_streams_samples_too(self, tmp_path):
        out, samples = self.collect(tmp_path, workers=2)
        assert not out.errors
        assert len(samples) == 4
        assert [s["done"] for s in samples] == [1, 2, 3, 4]
        # Observed in-flight counts: bounded by the pool, 0 at the end.
        assert all(0 <= s["running"] <= 2 for s in samples)
        assert samples[-1]["running"] == 0

    def test_cached_jobs_emit_no_samples(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        CampaignRunner(cache=cache).run(small_spec())
        _, samples = self.collect(tmp_path, cache=cache)
        assert samples == []

    def test_failed_jobs_are_counted(self, flaky_kind, tmp_path):
        samples = []
        out = CampaignRunner().run(
            [flaky_job()], telemetry=samples.append
        )
        assert out.errors == 1
        assert samples[-1]["failed"] == 1
        assert samples[-1]["status"] == "error"


def error_record(job: JobSpec, error: str, error_class=None):
    return failure_record(job.to_dict(), job.job_id, error, error_class)


# (error, synthetic error_class, attempt, max_retries) -> the final
# (error_class, quarantined), or None for "retry".
SETTLE_CASES = {
    "transient within budget": (
        "TransientFaultError: blip", None, 1, 1, None,
    ),
    "transient past budget": (
        "TransientFaultError: blip", None, 2, 1, ("transient", True),
    ),
    "permanent is final at once": (
        "ValueError: bad config", None, 1, 3, ("permanent", False),
    ),
    "timeout retries": ("JobTimeout: slow", "timeout", 1, 1, None),
    "timeout quarantines": (
        "JobTimeout: slow", "timeout", 2, 1, ("timeout", True),
    ),
    "worker crash retries": (
        "WorkerCrash: exit 87", "worker_crash", 1, 2, None,
    ),
    "worker crash quarantines": (
        "WorkerCrash: exit 87", "worker_crash", 3, 2,
        ("worker_crash", True),
    ),
    "lease expiry retries": (
        "LeaseExpired: gone", "lease_expired", 1, 1, None,
    ),
    "lease expiry quarantines": (
        "LeaseExpired: gone", "lease_expired", 1, 0,
        ("lease_expired", True),
    ),
}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def open_ledger(jobs, max_retries=0, fault_plan=None, journal=None):
    """A cache-free ledger on a fake clock, its units queued."""
    ledger = _Ledger("t", jobs, None, None, journal, max_retries, fault_plan)
    ledger.clock = FakeClock()
    ledger.open(None)
    return ledger


def ok(job: JobSpec) -> dict:
    return {"job_id": job.job_id, "status": "ok"}


class TestSettlePolicy:
    """The one retry/classify/quarantine policy every engine shares."""

    @staticmethod
    def ledger(max_retries: int) -> _Ledger:
        return open_ledger(small_spec().expand()[:1], max_retries)

    @staticmethod
    def take_at(ledger: _Ledger, attempt: int):
        """Take job 0 at ``attempt``, failing the attempts before it."""
        unit = ledger.take()
        while unit.attempt < attempt:
            job = ledger.jobs[0]
            ledger.settle([0], [error_record(job, "TransientFaultError: x")])
            ledger.clock.now += 10.0  # past any backoff
            unit = ledger.take()
        assert unit.indices == [0]
        return unit

    def test_ok_record_passes_through_unchanged(self):
        ledger = self.ledger(max_retries=2)
        record = ok(ledger.jobs[0])
        unit = self.take_at(ledger, 1)
        assert ledger.settle(unit.indices, [dict(record)]) == [record]
        assert ledger.records == {0: record}
        assert (ledger.retries, ledger.quarantined) == (0, [])

    @pytest.mark.parametrize(
        "error, error_class, attempt, max_retries, final",
        list(SETTLE_CASES.values()),
        ids=list(SETTLE_CASES),
    )
    def test_failure_retries_or_finalises(
        self, error, error_class, attempt, max_retries, final
    ):
        ledger = self.ledger(max_retries)
        job = ledger.jobs[0]
        unit = self.take_at(ledger, attempt)
        retries = ledger.retries
        record = error_record(job, error, error_class)
        settled = ledger.settle(unit.indices, [record])
        if final is None:
            assert settled == []
            assert ledger.retries == retries + 1
            assert ledger.records == {}
            return
        assert ledger.retries == retries
        assert settled == [{
            **record,
            "error_class": final[0],
            "attempts": attempt,
            "quarantined": final[1],
        }]
        assert ledger.records == {0: settled[0]}
        assert ledger.quarantined == ([job.job_id] if final[1] else [])


class TestEngineParity:
    def test_runner_and_server_settle_alike(self):
        """Same faults, same policy: the supervised runner and the
        sweep server land on the same records and failure report."""
        from repro.service import SweepServer, SweepWorker

        from test_experiments_faults import stripped

        plan = FaultPlan(
            {
                0: [FaultAction("transient", attempt=1)],
                1: [
                    FaultAction("transient", attempt=1),
                    FaultAction("transient", attempt=2),
                ],
            }
        )
        spec = small_spec()
        local = CampaignRunner(
            workers=2, max_retries=1, fault_plan=plan
        ).run(spec)
        server = SweepServer(spec, max_retries=1, fault_plan=plan)
        server.start()
        try:
            worker = SweepWorker(
                server.host, server.port, name="w0",
                reconnect_attempts=3, reconnect_backoff=0.05,
            )
            thread = threading.Thread(target=worker.run)
            thread.start()
            served = server.wait(timeout=60.0)
            thread.join(timeout=30.0)
        finally:
            server.close()
        assert served is not None and not thread.is_alive()
        assert stripped(served.records) == stripped(local.records)
        assert served.failure_report() == local.failure_report()
        job1 = spec.expand()[1].job_id
        assert local.retries == 2
        assert local.quarantined == [job1]
        bad = [r for r in local.records if r["status"] == "error"]
        assert [(r["job_id"], r["attempts"]) for r in bad] == [(job1, 2)]

        # Both engines run the ledger's units and count every dispatch
        # (retries included) in runner.units: leases granted on the
        # server, units sent to a worker by the runner.  Only the
        # worker pool differs.
        def shared(metrics):
            return {
                k: v for k, v in metrics.items()
                if not k.startswith("service.")
                and k != "runner.workers.peak"
            }

        assert shared(served.metrics) == shared(local.metrics)
        assert served.metrics["runner.units"] == 5


def coding_spec(**overrides) -> SweepSpec:
    """Two meshes x three orderings x two formats: 2 units of 6."""
    axes = {
        "mesh": ["2x2:1", "3x3:1"],
        "ordering": ["O0", "O1", "O2"],
        "data_format": ["fixed8", "float32"],
    }
    return small_spec(axes=axes, **overrides)


def records_alone(spec: SweepSpec) -> list[dict]:
    return [execute_job(job.to_dict()) for job in spec.expand()]


def engine_free(records: list[dict]) -> list[dict]:
    return [
        {k: v for k, v in r.items() if k not in ("cached", "campaign")}
        for r in records
    ]


class TestExecutionUnits:
    """Jobs sharing a timing signature run as one unit, and every
    record equals the record of the job run alone."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grouped_records_equal_jobs_run_alone(self, workers):
        spec = coding_spec()
        result = CampaignRunner(workers=workers).run(spec)
        assert result.metrics["runner.units"] == 2
        assert result.metrics["runner.workers.peak"] == workers
        assert engine_free(result.records) == records_alone(spec)

    def test_failing_unit_gives_each_job_its_own_error(self):
        spec = coding_spec(max_cycles_per_layer=3)
        result = CampaignRunner(workers=1).run(spec)
        assert result.metrics["runner.units"] == 2
        assert result.errors == 12
        alone = records_alone(spec)
        assert all("SimulationTimeout" in r["error"] for r in alone)
        settled = [
            {**r, "error_class": "permanent", "attempts": 1,
             "quarantined": False}
            for r in alone
        ]
        assert engine_free(result.records) == settled

    def test_units_split_by_signature_kind_and_fault_plan(self):
        spec = coding_spec()
        jobs = spec.expand()
        # A twin joins its unit; another kind on the same config never.
        jobs.append(jobs[0])
        jobs.append(
            JobSpec(model="lenet", config=jobs[0].config, kind="batch",
                    n_images=2)
        )
        ledger = _Ledger("t", jobs, None, None, None, 0)
        todo = list(range(len(jobs)))
        assert ledger.units(todo) == [
            [0, 1, 2, 3, 4, 5, 12], list(range(6, 12)), [13]
        ]
        # A job the plan names on any attempt runs alone.
        plan = FaultPlan({3: [FaultAction("transient", attempt=2)]})
        assert _Ledger("t", jobs, None, None, None, 0, plan).units(todo) == [
            [0, 1, 2, 4, 5, 12], [3], list(range(6, 12)), [13]
        ]
        assert ledger.units([7, 1, 8]) == [[7, 8], [1]]
        cores = small_spec(axes={"mesh": ["2x2:1"], "core": [
            "event", "stepped"]}).expand()
        assert _Ledger("t", cores, None, None, None, 0).units([0, 1]) == [
            [0], [1]
        ]

    def test_fault_carrying_and_retried_jobs_dispatch_alone(self):
        plan = FaultPlan({1: [FaultAction("transient", attempt=1)]})
        spec = coding_spec()
        result = CampaignRunner(
            workers=2, max_retries=1, fault_plan=plan
        ).run(spec)
        # [1] alone, its retry alone, [0, 2..5] and [6..11] grouped.
        assert result.metrics["runner.units"] == 4
        assert result.retries == 1 and result.errors == 0
        assert engine_free(result.records) == records_alone(spec)

    def test_inline_retry_runs_alone(self, monkeypatch):
        import repro.experiments.runner as runner_module

        units: list[list[str]] = []
        execute_unit = runner_module.execute_unit

        def flaky_unit(payloads):
            units.append([JobSpec.from_dict(p).job_id for p in payloads])
            records = execute_unit(payloads)
            if len(units) == 1:  # the first unit fails transiently
                records = [
                    failure_record(p, r["job_id"], "TransientFaultError: x")
                    for p, r in zip(payloads, records)
                ]
            return records

        monkeypatch.setattr(runner_module, "execute_unit", flaky_unit)
        spec = coding_spec()
        result = CampaignRunner(workers=1, max_retries=1).run(spec)
        # The second unit runs while the first one's jobs back off;
        # then each of them retries alone.
        assert [len(unit) for unit in units] == [6, 6, 1, 1, 1, 1, 1, 1]
        assert sorted(sum(units[2:], [])) == sorted(units[0])
        assert result.metrics["runner.units"] == 8
        assert result.retries == 6 and result.errors == 0
        assert engine_free(result.records) == records_alone(spec)


class TestLedgerQueue:
    """The one unit queue every engine takes from, on a fake clock."""

    def test_retry_comes_back_alone_after_its_backoff(self):
        spec = coding_spec()
        jobs = spec.expand()[:6]
        ledger = open_ledger(jobs, max_retries=1)
        unit = ledger.take()
        assert (unit.indices, unit.attempt) == (list(range(6)), 1)
        records = [ok(job) for job in jobs]
        records[2] = error_record(jobs[2], "TransientFaultError: x")
        assert len(ledger.settle(unit.indices, records)) == 5
        delay = backoff_seconds(spec.seed, jobs[2].job_id, 1)
        assert ledger.pending == 1
        assert ledger.ready_in() == pytest.approx(delay)
        ledger.clock.now = delay * 0.99
        assert ledger.take() is None
        ledger.clock.now = delay
        retry = ledger.take()
        assert (retry.indices, retry.attempt) == ([2], 2)
        assert ledger.pending == 0 and ledger.ready_in() is None

    def test_late_result_takes_the_job_off_the_queue(self):
        jobs = coding_spec().expand()[:1]
        ledger = open_ledger(jobs, max_retries=2)
        unit = ledger.take()
        ledger.fail(unit.indices, "LeaseExpired: gone", "lease_expired")
        assert ledger.pending == 1
        # The presumed-dead worker's result lands after all.
        assert ledger.settle([0], [ok(jobs[0])]) == [ok(jobs[0])]
        assert ledger.pending == 0 and ledger.ready_in() is None
        ledger.clock.now += 10.0
        assert ledger.take() is None
        assert ledger.retries == 1 and ledger.records == {0: ok(jobs[0])}

    def test_every_take_counts_toward_runner_units(self):
        jobs = small_spec().expand()
        ledger = open_ledger(jobs, max_retries=1)
        first, second = ledger.take(), ledger.take()
        assert ledger.take() is None
        ledger.settle(first.indices, [ok(jobs[i]) for i in first.indices])
        ledger.fail(second.indices, "WorkerCrash: exit 87", "worker_crash")
        assert ledger.worker_crashes == 2
        ledger.clock.now += 10.0
        retries = [ledger.take(), ledger.take()]
        assert [u.attempt for u in retries] == [2, 2]
        assert sorted(u.indices[0] for u in retries) == second.indices
        for retry in retries:
            ledger.settle(retry.indices, [ok(jobs[retry.indices[0]])])
        assert ledger.taken == 4
        assert ledger.finish(False, 1, {}).metrics["runner.units"] == 4

    def test_engine_failures_name_their_attempt_and_count(self):
        jobs = small_spec().expand()[:1]
        ledger = open_ledger(jobs)
        unit = ledger.take()
        (final,) = ledger.fail(unit.indices, "JobTimeout: slow", "timeout")
        assert final["error"] == "JobTimeout: slow (attempt 1)"
        assert (final["error_class"], final["quarantined"]) == (
            "timeout", True,
        )
        assert ledger.timeouts == 1 and ledger.quarantined == [
            jobs[0].job_id
        ]

    def test_fault_plan_splits_into_payload_and_network_faults(self):
        jobs = small_spec().expand()
        transient = FaultAction("transient", attempt=1)
        drop = FaultAction("drop_connection", attempt=1)
        later = FaultAction("torn_frame", attempt=2)
        plan = FaultPlan({0: [transient, drop, later]})
        ledger = open_ledger(jobs, fault_plan=plan)
        named = ledger.take()
        assert named.indices == [0]
        assert named.payloads == [
            {**jobs[0].to_dict(), "_fault": [transient.to_dict()]}
        ]
        assert named.network_faults == [drop.to_dict()]
        clean = ledger.take()
        assert clean.indices == [1]
        assert clean.payloads == [jobs[1].to_dict()]
        assert clean.network_faults == []

    def test_unit_journals_its_ok_records_in_one_fsync(
        self, tmp_path, monkeypatch
    ):
        jobs = coding_spec().expand()[:6]
        journal = CampaignJournal(tmp_path / "j.journal")
        ledger = open_ledger(jobs, journal=journal)
        unit = ledger.take()
        assert len(unit.indices) == 6
        synced: list[int] = []
        fsync = os.fsync

        def spy(fd):
            synced.append(fd)
            return fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        finals = ledger.settle(unit.indices, [ok(job) for job in jobs])
        assert len(finals) == 6
        assert len(synced) == 1
        assert sorted(journal.completed()) == sorted(
            job.job_id for job in jobs
        )


def spy_on_starts(monkeypatch) -> list:
    """Record every process ``start()``: one entry per fork."""
    started: list = []
    original = multiprocessing.process.BaseProcess.start

    def start(self):
        started.append(self)
        return original(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return started


@pytest.fixture
def registry_probe_kind():
    """A registered kind whose result says if a registry was live."""

    class RegistryProbeKind(JobKind):
        name = "registry_probe"

        def execute(self, job):
            result = super().execute(job)
            result["registry_live"] = active_registry() is not None
            return result

    kind = register_job_kind(RegistryProbeKind())
    yield kind
    del JOB_KINDS["registry_probe"]


class TestPersistentWorkers:
    """The supervisor forks each worker once and reuses it; only a
    killed or crashed worker is replaced, and none outlives ``run``."""

    # small_spec's 4 jobs form 2 units (one per mesh, both orderings
    # in each), so no more than 2 workers ever have work.
    @pytest.mark.parametrize("workers, starts", [(1, 1), (2, 2), (8, 2)])
    def test_clean_grid_starts_one_process_per_worker(
        self, monkeypatch, workers, starts
    ):
        started = spy_on_starts(monkeypatch)
        result = CampaignRunner(workers=workers, job_timeout=60.0).run(
            small_spec()
        )
        assert result.n_jobs == 4 and result.errors == 0
        assert result.metrics["runner.units"] == 2
        assert len(started) == starts
        assert multiprocessing.active_children() == []

    def test_kill_costs_one_extra_start(self, monkeypatch):
        plan = FaultPlan({0: [FaultAction("kill", attempt=1)]})
        started = spy_on_starts(monkeypatch)
        result = CampaignRunner(
            workers=2, max_retries=1, fault_plan=plan
        ).run(small_spec())
        assert result.worker_crashes == 1 and result.errors == 0
        assert len(started) == 3
        assert multiprocessing.active_children() == []

    def test_timeout_kills_quietly_and_next_job_gets_fresh_worker(
        self, monkeypatch, capfd
    ):
        plan = FaultPlan({0: [FaultAction("hang", hang_seconds=60.0)]})
        started = spy_on_starts(monkeypatch)
        result = CampaignRunner(
            workers=1, job_timeout=2.0, fault_plan=plan
        ).run(small_spec().expand()[:2])
        assert result.timeouts == 1
        assert [r["status"] for r in result.records] == ["error", "ok"]
        assert result.records[0]["error_class"] == "timeout"
        assert len(started) == 2
        assert multiprocessing.active_children() == []
        # SIGTERM must not surface as the parent's KeyboardInterrupt.
        assert "Traceback" not in capfd.readouterr().err

    def test_idle_worker_death_is_replaced_not_charged(self, monkeypatch):
        started = spy_on_starts(monkeypatch)

        def kill_idle_worker(sample):
            if sample["done"] == 1:
                (worker,) = multiprocessing.active_children()
                worker.kill()
                worker.join(timeout=10.0)
                assert not worker.is_alive()

        result = CampaignRunner(workers=1, job_timeout=60.0).run(
            small_spec(), telemetry=kill_idle_worker
        )
        assert result.errors == 0 and result.worker_crashes == 0
        assert len(started) == 2
        assert multiprocessing.active_children() == []

    def test_interrupt_kills_busy_and_idle_workers(self, monkeypatch):
        plan = FaultPlan({0: [FaultAction("hang", hang_seconds=60.0)]})
        started = spy_on_starts(monkeypatch)
        timer = threading.Timer(
            1.5, lambda: os.kill(os.getpid(), signal.SIGINT)
        )
        timer.start()
        try:
            result = CampaignRunner(workers=2, fault_plan=plan).run(
                small_spec()
            )
        finally:
            timer.cancel()
        assert result.interrupted
        assert len(started) == 2
        assert multiprocessing.active_children() == []

    def test_callback_error_still_stops_every_worker(self):
        def boom(sample):
            raise RuntimeError("telemetry sink failed")

        with pytest.raises(RuntimeError, match="telemetry sink failed"):
            CampaignRunner(workers=2).run(small_spec(), telemetry=boom)
        assert multiprocessing.active_children() == []

    def test_workers_run_jobs_with_metrics_suspended(
        self, registry_probe_kind
    ):
        job = JobSpec(
            model="lenet",
            config=AcceleratorConfig(
                width=2, height=2, n_mcs=1, max_tasks_per_layer=1
            ),
            kind="registry_probe",
        )
        jobs = [job] * 3
        with metrics_session() as registry:
            result = CampaignRunner(workers=1, job_timeout=60.0).run(jobs)
        assert result.errors == 0
        assert [r["result"]["registry_live"] for r in result.records] == [
            False
        ] * 3
        # The parent's one post-run aggregation is the only publication.
        assert registry.snapshot()["runner.jobs"] == 3
