"""End-to-end sweep service: server, workers, leases, chaos.

The determinism gate from the inline chaos matrix extends across the
wire here: campaigns served to socket workers — through injected
connection drops, torn frames, stalled heartbeats, duplicate results,
and killed worker processes — must land on records identical to a
fault-free inline run.

Worker processes that include a "kill" fault are always real
subprocesses (``multiprocessing.Process``): the kill fires
``os._exit`` in whatever process runs the job, and that must never be
the test driver.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.faults import FaultAction, FaultPlan, backoff_seconds
from repro.experiments.runner import (
    SpecDriftError,
    execute_job,
    execute_unit,
    failure_record,
)
from repro.experiments.spec import campaign_id
from repro.experiments.store import CampaignJournal, ResultStore
from repro.service import (
    ServerLostError,
    SweepServer,
    SweepWorker,
    run_worker,
)
from repro.service.protocol import connect

from test_experiments_faults import (
    fault_free_records,
    small_spec,
    stripped,
)
from test_experiments_runner import FakeClock, spy_on_cache


def tiny_spec(**overrides):
    """A one-job grid — a unit of one for manual protocol sessions."""
    return small_spec(
        axes={"mesh": ["2x2:1"], "ordering": ["O0"]}, **overrides
    )


def pair_spec(**overrides):
    """One mesh, two orderings: one execution unit of two jobs."""
    return small_spec(
        axes={"mesh": ["2x2:1"], "ordering": ["O0", "O2"]}, **overrides
    )


def wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def serve(spec, **kwargs):
    server = SweepServer(spec, **kwargs)
    server.start()
    return server


def attach_workers(server, count, **kwargs):
    """Run ``count`` in-process SweepWorkers against ``server``."""
    workers = [
        SweepWorker(
            server.host,
            server.port,
            name=f"tw{i}",
            reconnect_attempts=3,
            reconnect_backoff=0.05,
            **kwargs,
        )
        for i in range(count)
    ]
    summaries = [None] * count

    def run(i):
        summaries[i] = workers[i].run()

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(count)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    return summaries


def ok_record(server, index=0):
    """A plausible completed record for the server's job ``index``."""
    job = server.spec.expand()[index]
    record = job.to_dict()
    record.update(
        job_id=job.job_id, status="ok", result={"fake": True}, error=None
    )
    return record


def hello(server, worker):
    channel = connect(server.host, server.port)
    channel.request({"type": "hello", "worker": worker})
    return channel


def claim(channel, worker):
    return channel.request({"type": "claim", "worker": worker})


def beat(channel, worker, grant):
    return channel.request(
        {"type": "heartbeat", "worker": worker, "unit": grant["unit"]}
    )


def submit(channel, worker, grant, records):
    return channel.request(
        {
            "type": "result",
            "worker": worker,
            "unit": grant["unit"],
            "records": records,
        }
    )


def fake_records(server, grant):
    return [ok_record(server, job["index"]) for job in grant["jobs"]]


def run_grant(grant):
    """Really execute a granted unit, as a worker does."""
    return execute_unit([job["payload"] for job in grant["jobs"]])


class TestServedCampaign:
    def test_clean_served_run_matches_inline(self):
        server = serve(small_spec())
        try:
            summaries = attach_workers(server, 2)
            result = server.wait(timeout=60.0)
        finally:
            server.close()
        assert result is not None and not result.interrupted
        assert result.errors == 0
        assert stripped(result.records) == fault_free_records()
        assert all(s["drained"] for s in summaries)
        assert sum(s["jobs_done"] for s in summaries) == 4
        # small_spec's 4 jobs share 2 timing signatures: 2 units.
        assert result.metrics["service.leases.granted"] == 2
        assert result.metrics["runner.units"] == 2
        assert result.metrics["service.workers.peak"] == 2
        assert result.metrics["service.leases.expired"] == 0

    def test_more_workers_than_units_lease_each_unit_once(self):
        """Six workers race for two units under frequent thread
        switches: each unit is leased once, each job settles once."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        server = serve(small_spec())
        try:
            summaries = attach_workers(server, 6)
            result = server.wait(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
            server.close()
        assert result is not None and result.errors == 0
        assert all(s["drained"] for s in summaries)
        assert sum(s["jobs_done"] for s in summaries) == 4
        assert stripped(result.records) == fault_free_records()
        assert result.metrics["service.leases.granted"] == 2
        assert result.metrics["service.results.duplicate"] == 0

    def test_reporter_worker_receives_records(self):
        server = serve(tiny_spec())
        try:
            (summary,) = attach_workers(server, 1, report=True)
        finally:
            server.close()
        assert summary["drained"] and summary["reason"] == "complete"
        assert stripped(summary["records"]) == stripped(
            server.result.records
        )
        assert "1 jobs" in summary["summary"]

    def test_worker_serves_unit_hits_per_job(self, tmp_path):
        """One job of a unit is already cached: the worker serves it
        from disk and runs only the other, under a claim it releases."""
        cache_root = tmp_path / "shared"
        spec = pair_spec()
        first = spec.expand()[0]
        cache = ResultCache(cache_root)
        cache.put_job(first, execute_job(first.to_dict()))
        server = serve(spec)
        try:
            (summary,) = attach_workers(
                server, 1, cache=ResultCache(cache_root)
            )
            result = server.wait(timeout=60.0)
        finally:
            server.close()
        assert result is not None and result.errors == 0
        assert (summary["cache_hits"], summary["jobs_done"]) == (1, 2)
        assert result.metrics["service.leases.granted"] == 1
        assert stripped(result.records) == [
            execute_job(job.to_dict()) for job in spec.expand()
        ]
        assert len(ResultCache(cache_root)) == 2
        assert list((cache_root / "claims").glob("*.claim")) == []

    def test_cold_cache_read_and_never_sized(self, tmp_path, monkeypatch):
        consulted = spy_on_cache(monkeypatch)
        spec = tiny_spec()
        server = serve(spec, cache=ResultCache(tmp_path / "cache"))
        try:
            attach_workers(server, 1)
            result = server.wait(timeout=60.0)
        finally:
            server.close()
        assert result is not None and result.errors == 0
        assert (result.hits, result.misses) == (0, 1)
        assert consulted == [job.job_id for job in spec.expand()]

    def test_fully_cached_campaign_needs_no_workers(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = small_spec()
        from repro.experiments.runner import CampaignRunner

        CampaignRunner(cache=cache, workers=2).run(spec)
        server = serve(spec, cache=cache)
        try:
            result = server.wait(timeout=5.0)
        finally:
            server.close()
        assert result is not None
        assert (result.hits, result.misses) == (4, 0)
        assert stripped(result.records) == fault_free_records()

    def test_shared_cache_is_populated_once_per_job(self, tmp_path):
        cache_root = tmp_path / "shared"
        spec = small_spec()
        server = serve(spec, cache=ResultCache(cache_root))
        try:
            attach_workers(
                server,
                2,
                cache=ResultCache(cache_root),
                campaign_id=campaign_id(spec),
            )
            result = server.wait(timeout=60.0)
        finally:
            server.close()
        assert result is not None and result.errors == 0
        cache = ResultCache(cache_root)
        assert len(cache) == 4
        report = cache.verify()
        assert (report["ok"], report["corrupt"]) == (4, [])
        # Every cross-process claim was released on completion.
        assert list((cache_root / "claims").glob("*.claim")) == []


class TestHandshake:
    def test_campaign_mismatch_rejected(self):
        server = serve(tiny_spec())
        try:
            worker = SweepWorker(
                server.host,
                server.port,
                name="wrong",
                campaign_id="sweep-deadbeef",
                reconnect_attempts=2,
                reconnect_backoff=0.01,
            )
            summary = worker.run()
        finally:
            server.close()
        assert summary["server_lost"] is True
        assert "campaign mismatch" in summary["rejected"]
        # Rejection is final: no reconnect burn.
        assert summary["reconnects"] == 0

    def test_dead_server_raises_server_lost(self):
        server = serve(tiny_spec())
        host, port = server.host, server.port
        server.close()
        worker = SweepWorker(
            host,
            port,
            name="orphan",
            reconnect_attempts=2,
            reconnect_backoff=0.01,
        )
        summary = worker.run()
        assert summary["server_lost"] is True
        assert "unreachable after 2 reconnect attempts" in summary["error"]

    def test_server_lost_error_is_connection_error(self):
        assert issubclass(ServerLostError, ConnectionError)


class TestProtocolSession:
    """Drive the wire protocol by hand for exact reply semantics."""

    def test_session_lifecycle_and_duplicate_ack(self):
        # Two units so the duplicate submission lands while the
        # campaign is still open (and shows up in the final metrics).
        spec = small_spec()
        server = serve(spec)
        try:
            channel = connect(server.host, server.port)
            welcome = channel.request(
                {"type": "hello", "worker": "manual"}
            )
            assert welcome["type"] == "welcome"
            assert welcome["campaign_id"] == server.campaign_id
            assert welcome["n_jobs"] == 4
            assert welcome["heartbeat_seconds"] == pytest.approx(
                server.lease_seconds / 3.0
            )

            grant = claim(channel, "manual")
            assert grant["type"] == "unit"
            assert grant["attempt"] == 1
            assert len(grant["jobs"]) == 2
            for job in grant["jobs"]:
                assert job["job_id"] == spec.expand()[job["index"]].job_id
            assert grant["unit"] == grant["jobs"][0]["job_id"]

            # One lease for the unit; status counts jobs.
            status = channel.request({"type": "status"})
            assert (status["leased"], status["pending"]) == (1, 2)
            assert status["done"] == 0

            assert beat(channel, "manual", grant) == {
                "type": "ack",
                "renewed": True,
            }

            records = fake_records(server, grant)
            first = submit(channel, "manual", grant, records)
            assert first == {
                "type": "ack",
                "accepted": True,
                "duplicates": 0,
            }
            status = channel.request({"type": "status"})
            assert (status["leased"], status["done"]) == (0, 2)
            second = submit(channel, "manual", grant, records)
            assert second == {
                "type": "ack",
                "accepted": True,
                "duplicates": 2,
            }

            other = claim(channel, "manual")
            assert other["type"] == "unit" and len(other["jobs"]) == 2
            submit(channel, "manual", other, fake_records(server, other))
            drain = claim(channel, "manual")
            assert drain["type"] == "drain"
            assert drain["reason"] == "complete"
            channel.close()
            final = server.wait(timeout=5.0)
        finally:
            server.close()
        assert final is not None
        assert final.metrics["service.results.duplicate"] == 2
        assert final.metrics["service.leases.granted"] == 2

    def test_plain_claim_after_completion_drains_without_records(self):
        server = serve(tiny_spec())
        try:
            channel = hello(server, "plain")
            grant = claim(channel, "plain")
            submit(channel, "plain", grant, fake_records(server, grant))
            drain = claim(channel, "plain")
            reporter = channel.request(
                {"type": "claim", "worker": "plain", "report": True}
            )
            channel.close()
        finally:
            server.close()
        assert drain["type"] == "drain"
        assert (drain["reason"], drain["interrupted"]) == ("complete", False)
        assert "records" not in drain and "summary" not in drain
        assert len(reporter["records"]) == 1
        assert "1 jobs" in reporter["summary"]

    def test_partial_unit_result_keeps_the_lease_on_the_rest(self):
        server = serve(pair_spec(), lease_seconds=0.3, max_retries=0)
        try:
            channel = hello(server, "half")
            grant = claim(channel, "half")
            records = fake_records(server, grant)
            ack = submit(channel, "half", grant, records[:1])
            assert ack["accepted"] is True
            result = server.wait(timeout=10.0)
            channel.close()
        finally:
            server.close()
        assert result is not None
        ok, lapsed = result.records
        assert ok["status"] == "ok"
        assert lapsed["error_class"] == "lease_expired"
        assert result.quarantined == [lapsed["job_id"]]

    def test_malformed_result_not_accepted(self):
        server = serve(tiny_spec())
        try:
            channel = connect(server.host, server.port)
            channel.request({"type": "hello", "worker": "m"})
            ack = channel.request(
                {"type": "result", "worker": "m", "unit": "nope"}
            )
            assert ack["accepted"] is False
            ack = channel.request(
                {
                    "type": "result",
                    "worker": "m",
                    "unit": "nope",
                    "records": [{"job_id": "nope"}, "junk"],
                }
            )
            assert ack["accepted"] is False
            assert ack["duplicates"] == 0
            unknown = channel.request({"type": "frobnicate"})
            assert unknown["type"] == "error"
            status = channel.request({"type": "status"})
            assert (status["done"], status["pending"]) == (0, 1)
            channel.close()
        finally:
            server.close()

    def test_wait_reply_when_queue_is_leased_out(self):
        server = serve(tiny_spec())
        try:
            a = hello(server, "a")
            grant = claim(a, "a")
            assert grant["type"] == "unit"
            b = hello(server, "b")
            told = claim(b, "b")
            assert told["type"] == "wait"
            assert told["seconds"] > 0
            a.close()
            b.close()
        finally:
            server.close()


    def test_reported_transient_error_waits_out_its_backoff(self):
        spec = tiny_spec()
        server = serve(spec, max_retries=1)
        clock = server._ledger.clock = FakeClock()
        try:
            channel = hello(server, "w")
            grant = claim(channel, "w")
            (job,) = grant["jobs"]
            error = failure_record(
                job["payload"], job["job_id"], "TransientFaultError: x"
            )
            assert submit(channel, "w", grant, [error])["accepted"] is True
            delay = backoff_seconds(spec.seed, job["job_id"], 1)
            # Not re-granted before its backoff; the wait says when.
            clock.now = delay / 2
            told = claim(channel, "w")
            assert told["type"] == "wait"
            assert told["seconds"] == pytest.approx(delay / 2)
            clock.now = delay
            retry = claim(channel, "w")
            assert (retry["type"], retry["attempt"]) == ("unit", 2)
            assert retry["jobs"] == grant["jobs"]
            channel.close()
        finally:
            server.close()


def steal_all(channel, worker, n, timeout=10.0):
    """Claim until ``n`` grants arrive (the lapsed lease re-queues)."""
    grants = []

    def try_steal():
        reply = claim(channel, worker)
        if reply["type"] == "unit":
            grants.append(reply)
        return len(grants) == n

    assert wait_for(try_steal, timeout=timeout, interval=0.1)
    return grants


class TestLeaseRecovery:
    def test_expired_lease_is_stolen_and_late_result_discarded(self):
        server = serve(tiny_spec(), lease_seconds=0.3)
        try:
            # w1 claims, then goes silent (no heartbeat).
            w1 = hello(server, "w1")
            grant1 = claim(w1, "w1")
            assert grant1["type"] == "unit"

            # The sweeper reaps the lease and re-queues the job.
            w2 = hello(server, "w2")
            (grant2,) = steal_all(w2, "w2", 1)
            assert grant2["unit"] == grant1["unit"]
            assert grant2["jobs"] == grant1["jobs"]
            assert grant2["attempt"] == 2

            # w1's heartbeat is refused: its lease is gone.
            assert beat(w1, "w1", grant1)["renewed"] is False

            # w2 completes; w1's late result is a duplicate.
            submit(w2, "w2", grant2, fake_records(server, grant2))
            late = submit(w1, "w1", grant1, fake_records(server, grant1))
            assert late["duplicates"] == 1
            w1.close()
            w2.close()
            result = server.wait(timeout=5.0)
        finally:
            server.close()
        assert result is not None
        assert result.metrics["service.leases.expired"] >= 1
        assert result.metrics["service.jobs.stolen"] == 1
        assert result.metrics["service.heartbeats.missed"] >= 1
        assert result.retries >= 1

    def test_lapsed_unit_requeues_each_job_alone(self):
        spec = pair_spec()
        server = serve(spec, lease_seconds=0.3)
        try:
            # w1 claims the unit of two, then goes silent.
            w1 = hello(server, "w1")
            grant1 = claim(w1, "w1")
            assert [job["index"] for job in grant1["jobs"]] == [0, 1]

            # Each job comes back alone at attempt 2, in backoff
            # order; w2 steals both and really runs them.
            w2 = hello(server, "w2")
            grants = steal_all(w2, "w2", 2)
            assert [g["attempt"] for g in grants] == [2, 2]
            assert [len(g["jobs"]) for g in grants] == [1, 1]
            stolen = sorted(
                (g["jobs"][0] for g in grants), key=lambda job: job["index"]
            )
            assert stolen == grant1["jobs"]
            for grant in grants:
                ack = submit(w2, "w2", grant, run_grant(grant))
                assert ack == {
                    "type": "ack",
                    "accepted": True,
                    "duplicates": 0,
                }

            # w1's late unit result is acknowledged; each of its jobs
            # counts once as a duplicate.  (It lands after the campaign
            # finished, so the final metrics cannot count it.)
            late = submit(w1, "w1", grant1, run_grant(grant1))
            assert late == {"type": "ack", "accepted": True, "duplicates": 2}
            w1.close()
            w2.close()
            result = server.wait(timeout=5.0)
        finally:
            server.close()
        assert result is not None and result.errors == 0
        assert stripped(result.records) == [
            execute_job(job.to_dict()) for job in spec.expand()
        ]
        assert result.retries == 2
        assert result.metrics["service.leases.expired"] == 1
        assert result.metrics["service.leases.granted"] == 3
        assert result.metrics["runner.units"] == 3
        # Steals count jobs: both jobs of the lapsed unit.
        assert result.metrics["service.jobs.stolen"] == 2

    def test_heartbeats_keep_a_slow_job_alive(self):
        server = serve(pair_spec(), lease_seconds=0.4)
        try:
            channel = hello(server, "slow")
            grant = claim(channel, "slow")
            assert len(grant["jobs"]) == 2
            # "Compute" for three lease budgets, beating throughout.
            for _ in range(12):
                time.sleep(0.1)
                assert beat(channel, "slow", grant)["renewed"] is True
            ack = submit(channel, "slow", grant, fake_records(server, grant))
            assert ack["duplicates"] == 0
            channel.close()
            result = server.wait(timeout=5.0)
        finally:
            server.close()
        assert result is not None and result.errors == 0
        assert result.metrics["service.leases.expired"] == 0
        assert result.metrics["service.leases.renewed"] >= 12

    def test_exhausted_lease_retries_quarantine(self):
        spec = pair_spec()
        server = serve(spec, lease_seconds=0.2, max_retries=0)
        try:
            channel = hello(server, "dead")
            grant = claim(channel, "dead")
            assert len(grant["jobs"]) == 2
            result = server.wait(timeout=10.0)
            channel.close()
        finally:
            server.close()
        assert result is not None
        # Every job of the lapsed unit fails on its own.
        assert result.errors == 2
        assert result.quarantined == [job["job_id"] for job in grant["jobs"]]
        for bad in result.records:
            assert bad["error_class"] == "lease_expired"
            assert "stopped heartbeating" in bad["error"]
            assert bad["quarantined"] is True
            assert bad["attempts"] == 1


class TestDrainAndResume:
    def test_shutdown_checkpoints_exactly_like_sigint(self, tmp_path):
        spec = small_spec()
        journal = CampaignJournal(tmp_path / "c.journal")
        store = ResultStore(tmp_path / "c.jsonl")
        server = serve(spec, journal=journal, store=store)
        try:
            channel = hello(server, "one")
            grant = claim(channel, "one")
            assert len(grant["jobs"]) == 2
            # Really execute the first unit: its journaled records
            # must survive the resume byte-identically.
            submit(channel, "one", grant, run_grant(grant))
            partial = server.shutdown()
            # A draining server tells claimants to go away.
            drain = claim(channel, "one")
            assert drain["type"] == "drain"
            assert drain["interrupted"] is True
            channel.close()
        finally:
            server.close()
        assert partial.interrupted
        assert len(partial.remaining) == 2
        assert [e["event"] for e in journal.entries()][-1] == "checkpoint"

        # Resume with a fresh server: only the 2 remaining jobs run.
        resumed = serve(spec, journal=journal, store=store)
        try:
            attach_workers(resumed, 2)
            final = resumed.wait(timeout=60.0)
        finally:
            resumed.close()
        assert final is not None and not final.interrupted
        assert final.resumed == 2
        assert final.misses == 2
        assert stripped(final.records) == fault_free_records()
        assert [e["event"] for e in journal.entries()][-1] == "end"

    def test_resume_refuses_drifted_spec(self, tmp_path):
        journal = CampaignJournal(tmp_path / "c.journal")
        server = serve(small_spec(), journal=journal)
        server.shutdown()
        server.close()
        drifted = small_spec(axes={"mesh": ["3x3:1"], "ordering": ["O0"]})
        with pytest.raises(SpecDriftError, match="drifted"):
            SweepServer(drifted, journal=journal).start()


class TestNetworkChaos:
    def test_chaos_matrix_over_real_sockets(self, tmp_path):
        """The ISSUE gate, distributed: kill + heartbeat-stalled hang +
        connection drop + torn frame + duplicate result across real
        subprocess workers lands on fault-free records."""
        spec = small_spec()
        plan = FaultPlan(
            {
                0: [FaultAction("kill", attempt=1)],
                1: [
                    FaultAction("heartbeat_stall", hang_seconds=5.0,
                                attempt=1),
                    FaultAction("hang", hang_seconds=2.5, attempt=1),
                ],
                2: [FaultAction("drop_connection", attempt=1)],
                3: [
                    FaultAction("torn_frame", attempt=1),
                    FaultAction("duplicate_result", attempt=2),
                ],
            }
        )
        store = ResultStore(tmp_path / "chaos.jsonl")
        server = serve(
            spec,
            store=store,
            lease_seconds=1.0,
            max_retries=3,
            fault_plan=plan,
        )
        procs = [
            multiprocessing.Process(
                target=run_worker,
                args=(server.host, server.port),
                kwargs={
                    "name": f"pw{i}",
                    "reconnect_attempts": 8,
                    "reconnect_backoff": 0.1,
                },
            )
            for i in range(3)
        ]
        try:
            for p in procs:
                p.start()
            result = server.wait(timeout=120.0)
            server.linger(timeout=10.0)
        finally:
            server.close()
            for p in procs:
                p.join(timeout=30.0)
                if p.is_alive():
                    p.kill()
        assert result is not None and not result.interrupted
        assert result.errors == 0
        assert stripped(result.records) == fault_free_records()
        assert stripped(store.load()) == fault_free_records()
        # The kill and the stalled hang both cost a lease.
        assert result.metrics["service.leases.expired"] >= 2
        assert result.metrics["service.jobs.stolen"] >= 1
        # The torn frame severed a connection mid-write.
        assert result.metrics["service.protocol.errors"] >= 1
        assert result.metrics["service.reconnects"] >= 2
        # ok records carry no worker identity or timing.
        for record in result.records:
            for key in ("worker", "attempt", "attempts", "elapsed"):
                assert key not in record
