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
import threading
import time

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.faults import FaultAction, FaultPlan
from repro.experiments.runner import SpecDriftError, execute_job
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
from test_experiments_runner import spy_on_cache


def tiny_spec(**overrides):
    """A one-job grid — the unit for manual protocol sessions."""
    return small_spec(
        axes={"mesh": ["2x2:1"], "ordering": ["O0"]}, **overrides
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
        assert result.metrics["service.leases.granted"] == 4
        assert result.metrics["service.workers.peak"] == 2
        assert result.metrics["service.leases.expired"] == 0

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
        # Two jobs so the duplicate submission lands while the
        # campaign is still open (and shows up in the final metrics).
        spec = small_spec(axes={"mesh": ["2x2:1"], "ordering": ["O0", "O2"]})
        server = serve(spec)
        try:
            channel = connect(server.host, server.port)
            welcome = channel.request(
                {"type": "hello", "worker": "manual"}
            )
            assert welcome["type"] == "welcome"
            assert welcome["campaign_id"] == server.campaign_id
            assert welcome["n_jobs"] == 2
            assert welcome["heartbeat_seconds"] == pytest.approx(
                server.lease_seconds / 3.0
            )

            grant = channel.request(
                {"type": "claim", "worker": "manual"}
            )
            assert grant["type"] == "job"
            assert grant["attempt"] == 1
            assert (
                grant["job_id"] == spec.expand()[grant["index"]].job_id
            )

            status = channel.request({"type": "status"})
            assert (status["leased"], status["pending"]) == (1, 1)

            beat = channel.request(
                {
                    "type": "heartbeat",
                    "worker": "manual",
                    "job_id": grant["job_id"],
                }
            )
            assert beat == {"type": "ack", "renewed": True}

            result = {
                "type": "result",
                "worker": "manual",
                "job_id": grant["job_id"],
                "record": ok_record(server, grant["index"]),
            }
            first = channel.request(result)
            assert first == {
                "type": "ack",
                "accepted": True,
                "duplicate": False,
            }
            second = channel.request(result)
            assert second["duplicate"] is True

            other = channel.request({"type": "claim", "worker": "manual"})
            channel.request(
                {
                    "type": "result",
                    "worker": "manual",
                    "job_id": other["job_id"],
                    "record": ok_record(server, other["index"]),
                }
            )
            drain = channel.request(
                {"type": "claim", "worker": "manual"}
            )
            assert drain["type"] == "drain"
            assert drain["reason"] == "complete"
            channel.close()
            final = server.wait(timeout=5.0)
        finally:
            server.close()
        assert final is not None
        assert final.metrics["service.results.duplicate"] == 1

    def test_malformed_result_not_accepted(self):
        server = serve(tiny_spec())
        try:
            channel = connect(server.host, server.port)
            channel.request({"type": "hello", "worker": "m"})
            ack = channel.request(
                {"type": "result", "worker": "m", "job_id": "nope"}
            )
            assert ack["accepted"] is False
            unknown = channel.request({"type": "frobnicate"})
            assert unknown["type"] == "error"
            channel.close()
        finally:
            server.close()

    def test_wait_reply_when_queue_is_leased_out(self):
        server = serve(tiny_spec())
        try:
            a = connect(server.host, server.port)
            a.request({"type": "hello", "worker": "a"})
            grant = a.request({"type": "claim", "worker": "a"})
            assert grant["type"] == "job"
            b = connect(server.host, server.port)
            b.request({"type": "hello", "worker": "b"})
            told = b.request({"type": "claim", "worker": "b"})
            assert told["type"] == "wait"
            assert told["seconds"] > 0
            a.close()
            b.close()
        finally:
            server.close()


class TestLeaseRecovery:
    def test_expired_lease_is_stolen_and_late_result_discarded(self):
        server = serve(tiny_spec(), lease_seconds=0.3)
        try:
            # w1 claims, then goes silent (no heartbeat).
            w1 = connect(server.host, server.port)
            w1.request({"type": "hello", "worker": "w1"})
            grant1 = w1.request({"type": "claim", "worker": "w1"})
            assert grant1["type"] == "job"

            # The sweeper reaps the lease and re-queues the job.
            w2 = connect(server.host, server.port)
            w2.request({"type": "hello", "worker": "w2"})

            def steal():
                reply = w2.request({"type": "claim", "worker": "w2"})
                return reply if reply["type"] == "job" else None

            grant2 = None

            def try_steal():
                nonlocal grant2
                grant2 = steal()
                return grant2 is not None

            assert wait_for(try_steal, timeout=10.0, interval=0.1)
            assert grant2["job_id"] == grant1["job_id"]
            assert grant2["attempt"] == 2

            # w1's heartbeat is refused: its lease is gone.
            beat = w1.request(
                {
                    "type": "heartbeat",
                    "worker": "w1",
                    "job_id": grant1["job_id"],
                }
            )
            assert beat["renewed"] is False

            # w2 completes; w1's late result is a duplicate.
            w2.request(
                {
                    "type": "result",
                    "worker": "w2",
                    "job_id": grant2["job_id"],
                    "record": ok_record(server),
                }
            )
            late = w1.request(
                {
                    "type": "result",
                    "worker": "w1",
                    "job_id": grant1["job_id"],
                    "record": ok_record(server),
                }
            )
            assert late["duplicate"] is True
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

    def test_heartbeats_keep_a_slow_job_alive(self):
        server = serve(tiny_spec(), lease_seconds=0.4)
        try:
            channel = connect(server.host, server.port)
            channel.request({"type": "hello", "worker": "slow"})
            grant = channel.request({"type": "claim", "worker": "slow"})
            # "Compute" for three lease budgets, beating throughout.
            for _ in range(12):
                time.sleep(0.1)
                beat = channel.request(
                    {
                        "type": "heartbeat",
                        "worker": "slow",
                        "job_id": grant["job_id"],
                    }
                )
                assert beat["renewed"] is True
            ack = channel.request(
                {
                    "type": "result",
                    "worker": "slow",
                    "job_id": grant["job_id"],
                    "record": ok_record(server),
                }
            )
            assert ack["duplicate"] is False
            channel.close()
            result = server.wait(timeout=5.0)
        finally:
            server.close()
        assert result is not None
        assert result.metrics["service.leases.expired"] == 0
        assert result.metrics["service.leases.renewed"] >= 12

    def test_exhausted_lease_retries_quarantine(self):
        server = serve(tiny_spec(), lease_seconds=0.2, max_retries=0)
        try:
            channel = connect(server.host, server.port)
            channel.request({"type": "hello", "worker": "dead"})
            grant = channel.request({"type": "claim", "worker": "dead"})
            assert grant["type"] == "job"
            result = server.wait(timeout=10.0)
            channel.close()
        finally:
            server.close()
        assert result is not None
        assert result.errors == 1
        assert result.quarantined == [grant["job_id"]]
        bad = result.records[0]
        assert bad["error_class"] == "lease_expired"
        assert "stopped heartbeating" in bad["error"]
        assert bad["quarantined"] is True


class TestDrainAndResume:
    def test_shutdown_checkpoints_exactly_like_sigint(self, tmp_path):
        spec = small_spec()
        journal = CampaignJournal(tmp_path / "c.journal")
        store = ResultStore(tmp_path / "c.jsonl")
        server = serve(spec, journal=journal, store=store)
        try:
            channel = connect(server.host, server.port)
            channel.request({"type": "hello", "worker": "one"})
            grant = channel.request({"type": "claim", "worker": "one"})
            # Really execute the first job: its journaled record must
            # survive the resume byte-identically.
            channel.request(
                {
                    "type": "result",
                    "worker": "one",
                    "job_id": grant["job_id"],
                    "record": execute_job(grant["payload"]),
                }
            )
            partial = server.shutdown()
            # A draining server tells claimants to go away.
            drain = channel.request({"type": "claim", "worker": "one"})
            assert drain["type"] == "drain"
            assert drain["interrupted"] is True
            channel.close()
        finally:
            server.close()
        assert partial.interrupted
        assert len(partial.remaining) == 3
        assert [e["event"] for e in journal.entries()][-1] == "checkpoint"

        # Resume with a fresh server: only the 3 remaining jobs run.
        resumed = serve(spec, journal=journal, store=store)
        try:
            attach_workers(resumed, 2)
            final = resumed.wait(timeout=60.0)
        finally:
            resumed.close()
        assert final is not None and not final.interrupted
        assert final.resumed == 1
        assert final.misses == 3
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
