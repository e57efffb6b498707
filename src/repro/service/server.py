"""The sweep job server: lease-based queue over a campaign journal.

A :class:`SweepServer` serves one campaign to workers that connect
over the :mod:`repro.service.protocol` socket and pull execution
units under time-bounded leases.  It executes nothing itself, and it
keeps no campaign books of its own: the runner's ledger
(:mod:`repro.experiments.runner`) triages the cache and journal,
queues the jobs to run as units, schedules every retry after the same
seeded backoff as the in-process engines, splits the fault plan,
settles every result with one retry/quarantine policy, and assembles
the final :class:`~repro.experiments.runner.CampaignResult`.  What is
left here is transport:

* grant the ledger's next ready unit — jobs that share a timing
  signature, which the worker runs as one simulation (cache hits and
  journal-resumed jobs are never queued); one lease covers the whole
  unit.  With nothing ready, a ``wait`` reply says how long until a
  retry's backoff ends (at most half a lease, and at most 1 s),
* renew leases on heartbeats,
* turn a lapsed lease (dead or stalled worker) into a
  ``lease_expired`` failure for each unsettled job of the unit, which
  the ledger re-queues alone after its backoff — "work stealing" from
  the claimant's perspective — or quarantines once its retries are
  spent,
* reconcile results per job, idempotently: the first completion of a
  job wins; jobs of a late unit result from a presumed-dead worker
  are acknowledged as duplicates and discarded, which is safe because
  job execution is deterministic,
* on completion — or on a drain triggered by SIGINT/SIGTERM — finish
  the ledger, which writes the store in grid order and journals the
  ``end``/``checkpoint`` event, so ``--resume`` behaves identically to
  the inline engine.

Served records carry no worker identity, no attempt counts (for ok
records), and no timing, so they match an inline run of the same spec
— the chaos determinism gate relies on it.

Fault injection: the ledger consults the
:class:`~repro.experiments.faults.FaultPlan` as it hands out a unit.
Jobs the plan names are units of one.  In-process actions ride the job
payload into the worker as usual; *network* actions (connection drop,
heartbeat stall, torn frame, duplicate result) are shipped alongside
the grant for the worker to fire through the real socket path.

Threading model: an acceptor thread spawns one handler thread per
connection; a sweeper thread expires leases; one lock guards all
campaign state.  All threads are daemonic — lifecycle is owned by
:meth:`start` / :meth:`wait` / :meth:`shutdown` / :meth:`close`.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any

from repro.experiments.cache import ResultCache
from repro.experiments.faults import FaultPlan
from repro.experiments.runner import CampaignResult, _Ledger
from repro.experiments.spec import SweepSpec, campaign_id
from repro.experiments.store import CampaignJournal, ResultStore
from repro.service.leases import LeaseTable
from repro.service.protocol import (
    ProtocolError,
    recv_frame,
    send_frame,
)

__all__ = ["SweepServer"]


class SweepServer:
    """Serve one campaign's jobs to socket-connected workers.

    Attributes:
        spec: the campaign grid being served.
        campaign_id: :func:`~repro.experiments.spec.campaign_id` of
            the spec — the resume token, verified against worker
            hellos that carry one (the cross-wire spec-drift guard).
        host / port: bound address after :meth:`start` (``port=0``
            picks an ephemeral port).
        lease_seconds / heartbeat_seconds: lease budget and the beat
            interval advertised to workers.
        result: the final :class:`CampaignResult` once finished.

    ``max_retries`` bounds the transient-failure re-queues per job
    (lease expiries included) before quarantine.  A unit's lease is
    keyed by its first job's id and covers every job of the unit, so
    ``service.jobs.stolen`` counts each stolen job once, whether it
    is re-granted alone or not.
    """

    def __init__(
        self,
        spec: SweepSpec,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache: ResultCache | None = None,
        store: ResultStore | None = None,
        journal: CampaignJournal | None = None,
        lease_seconds: float = 30.0,
        heartbeat_seconds: float | None = None,
        max_retries: int = 2,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.spec = spec
        self.name = spec.name
        self.campaign_id = campaign_id(spec)
        self.host = host
        self.port = port
        self.leases = LeaseTable(lease_seconds, heartbeat_seconds)
        self.lease_seconds = self.leases.lease_seconds
        self.heartbeat_seconds = self.leases.heartbeat_seconds
        self.result: CampaignResult | None = None

        self._jobs = spec.expand()
        self._ledger = _Ledger(
            self.name, self._jobs, cache, store, journal, max_retries,
            fault_plan,
        )
        self._index_by_job = {
            job.job_id: index for index, job in enumerate(self._jobs)
        }
        self._lock = threading.RLock()
        # Lease key -> the grid indices of its unit with no result yet.
        self._leased: dict[str, list[int]] = {}
        self._workers_seen: set[str] = set()
        self._reconnects = 0
        self._duplicates = 0
        self._protocol_errors = 0
        self._draining = False
        self._finished = False
        self._done = threading.Event()
        self._sock: socket.socket | None = None
        self._conns: list[socket.socket] = []

    # -- lifecycle -------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Triage cache/journal, bind, and start serving; returns addr.

        Raises :class:`~repro.experiments.runner.SpecDriftError` when
        an existing journal's ``start`` entry records a different
        campaign than this spec derives — resuming would silently mix
        results otherwise.
        """
        self._ledger.open(self.spec)

        self._sock = socket.create_server((self.host, self.port))
        self.host, self.port = self._sock.getsockname()[:2]
        threading.Thread(
            target=self._accept_loop, daemon=True, name="sweep-accept"
        ).start()
        threading.Thread(
            target=self._sweep_loop, daemon=True, name="sweep-leases"
        ).start()
        self._maybe_finish()  # a fully cached/resumed campaign is done
        return self.host, self.port

    def wait(self, timeout: float | None = None) -> CampaignResult | None:
        """Block until the campaign finishes; None on timeout."""
        if not self._done.wait(timeout):
            return None
        return self.result

    def shutdown(self) -> CampaignResult:
        """Graceful drain: stop granting, checkpoint, finish partial.

        The journal already holds every completed job (they are
        appended as they land), so the checkpoint written here makes
        ``--resume`` behave exactly as after a SIGINT'd inline sweep.
        Jobs of in-flight leased units are counted as remaining — their
        late results, if any, arrive after the store is written and are
        simply discarded.
        """
        with self._lock:
            self._draining = True
            if not self._finished:
                self._finish(interrupted=True)
        return self.result  # type: ignore[return-value]

    def linger(self, timeout: float = 5.0) -> bool:
        """Wait for attached workers to pick up their drain replies.

        The connection handlers are daemon threads, so a server
        process that exits the instant the result lands would strand
        still-connected workers mid-claim — they would burn their
        reconnect budget against a dead address and misreport a
        completed campaign as a lost server.  Returns True when every
        connection closed within the timeout.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._conns:
                    return True
            time.sleep(0.05)
        return False

    def close(self) -> None:
        """Stop accepting and tear down every connection."""
        if self._sock is not None:
            # shutdown() before close(): the acceptor thread blocked
            # in accept() pins the open file description, so a bare
            # close() leaves the port listening (and serving!) until
            # that thread wakes.  shutdown wakes it immediately.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    # -- socket plumbing -------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # listening socket closed
            with self._lock:
                self._conns.append(conn)
            threading.Thread(
                target=self._serve_conn,
                args=(conn,),
                daemon=True,
                name="sweep-conn",
            ).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            while True:
                message = recv_frame(conn)
                if message is None:
                    return
                reply, fatal = self._dispatch(message)
                send_frame(conn, reply)
                if fatal:
                    return
        except ProtocolError:
            with self._lock:
                self._protocol_errors += 1
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _sweep_loop(self) -> None:
        interval = min(1.0, max(0.05, self.lease_seconds / 4.0))
        while not self._done.wait(interval):
            self._reap_expired()

    def _reap_expired(self) -> None:
        # Under the lock, so no result or grant lands between a lease
        # lapsing and its jobs' failures settling.
        with self._lock:
            for lease in self.leases.expire():
                self._ledger.fail(
                    self._leased.pop(lease.job_id),
                    f"LeaseExpired: worker {lease.worker!r} stopped "
                    f"heartbeating and its lease lapsed",
                    "lease_expired",
                )
        self._maybe_finish()

    # -- message dispatch ------------------------------------------------

    def _dispatch(
        self, message: dict[str, Any]
    ) -> tuple[dict[str, Any], bool]:
        """Handle one frame; returns (reply, close_after_reply)."""
        kind = message.get("type")
        worker = str(message.get("worker", "?"))
        if kind == "hello":
            return self._on_hello(message, worker)
        if kind == "claim":
            return self._on_claim(worker, bool(message.get("report"))), False
        if kind == "heartbeat":
            renewed = self.leases.renew(str(message.get("unit", "")), worker)
            return {"type": "ack", "renewed": renewed}, False
        if kind == "result":
            return self._on_result(message), False
        if kind == "status":
            return self._on_status(), False
        if kind == "goodbye":
            return {"type": "ack"}, True
        return (
            {"type": "error", "reason": f"unknown message type {kind!r}"},
            False,
        )

    def _on_hello(
        self, message: dict[str, Any], worker: str
    ) -> tuple[dict[str, Any], bool]:
        claimed_id = message.get("campaign_id")
        if claimed_id is not None and claimed_id != self.campaign_id:
            return (
                {
                    "type": "error",
                    "reason": (
                        f"campaign mismatch: this server serves "
                        f"{self.campaign_id!r} ({self.name!r}), you "
                        f"asked for {claimed_id!r} — the sweep spec "
                        f"has drifted from the served campaign"
                    ),
                },
                True,
            )
        with self._lock:
            if worker in self._workers_seen:
                self._reconnects += 1
            else:
                self._workers_seen.add(worker)
        return (
            {
                "type": "welcome",
                "campaign": self.name,
                "campaign_id": self.campaign_id,
                "n_jobs": len(self._jobs),
                "lease_seconds": self.lease_seconds,
                "heartbeat_seconds": self.heartbeat_seconds,
            },
            False,
        )

    def _on_claim(self, worker: str, report: bool) -> dict[str, Any]:
        with self._lock:
            if self._finished or self._draining:
                result = self.result
                reply: dict[str, Any] = {
                    "type": "drain",
                    "reason": (
                        "complete"
                        if result is not None and not result.interrupted
                        else "draining"
                    ),
                }
                if result is not None:
                    reply["interrupted"] = result.interrupted
                    if report:
                        reply["records"] = result.records
                        reply["summary"] = result.summary()
                return reply
            unit = self._ledger.take()
            if unit is None:
                seconds = min(1.0, max(0.05, self.lease_seconds / 2.0))
                ready_in = self._ledger.ready_in()
                if ready_in is not None:
                    seconds = min(seconds, ready_in)
                return {"type": "wait", "seconds": seconds}
            job_ids = [self._jobs[index].job_id for index in unit.indices]
            key = job_ids[0]
            self._leased[key] = list(unit.indices)
            lease = self.leases.grant(key, worker, unit.attempt, job_ids)
        return {
            "type": "unit",
            "unit": key,
            "attempt": unit.attempt,
            "jobs": [
                {"index": index, "job_id": job_id, "payload": payload}
                for index, job_id, payload in zip(
                    unit.indices, job_ids, unit.payloads
                )
            ],
            "network_faults": unit.network_faults,
            "lease_seconds": self.lease_seconds,
            "deadline_seconds": lease.deadline - lease.granted_at,
        }

    def _on_result(self, message: dict[str, Any]) -> dict[str, Any]:
        """Settle a unit's records, each on its own job."""
        records = message.get("records")
        if not isinstance(records, list):
            records = []
        malformed = 0 if records else 1
        duplicates = 0
        fresh: dict[int, dict[str, Any]] = {}
        with self._lock:
            for record in records:
                job_id = str(
                    record.get("job_id") if isinstance(record, dict) else ""
                )
                index = self._index_by_job.get(job_id)
                if index is None:
                    malformed += 1
                    continue
                if index in self._ledger.records or index in fresh:
                    # Late result from a presumed-dead worker for a job
                    # someone else already finished: idempotent discard.
                    duplicates += 1
                    continue
                # First completion wins, even if the lease expired and
                # the job is queued (or re-leased) elsewhere: execution
                # is deterministic, so any re-run would produce this
                # record.
                self._release_job(index)
                fresh[index] = record
            self._ledger.settle(list(fresh), list(fresh.values()))
            self._duplicates += duplicates
        self._maybe_finish()
        reply: dict[str, Any] = {
            "type": "ack",
            "accepted": not malformed,
            "duplicates": duplicates,
        }
        if malformed:
            reply["reason"] = "unknown job or malformed record"
        return reply

    def _release_job(self, index: int) -> None:
        """Take a job with a result off its lease, and release a lease
        left with no job to wait for; called under lock."""
        for key, outstanding in list(self._leased.items()):
            if index in outstanding:
                outstanding.remove(index)
                if not outstanding:
                    self.leases.release(key)
                    del self._leased[key]

    def _on_status(self) -> dict[str, Any]:
        with self._lock:
            return {
                "type": "status",
                "campaign": self.name,
                "campaign_id": self.campaign_id,
                "total": len(self._jobs),
                "done": len(self._ledger.records),
                "pending": self._ledger.pending,
                "leased": len(self.leases),
                "workers": sorted(self._workers_seen),
                "finished": self._finished,
            }

    # -- completion ------------------------------------------------------

    def _maybe_finish(self) -> None:
        with self._lock:
            settled = len(self._ledger.records) == len(self._jobs)
            if settled and not self._finished:
                self._finish(interrupted=False)

    def _finish(self, interrupted: bool) -> None:
        """Finish the ledger and publish the result; called under lock."""
        self._finished = True
        seen = len(self._workers_seen)
        self.result = self._ledger.finish(
            interrupted,
            max(1, seen),
            {
                "runner.workers.peak": seen,
                **self.leases.counters(),
                "service.heartbeats": self.leases.renewed,
                "service.reconnects": self._reconnects,
                "service.results.duplicate": self._duplicates,
                "service.protocol.errors": self._protocol_errors,
                "service.workers.peak": seen,
            },
        )
        self._done.set()
