"""The sweep worker: claim, heartbeat, execute, submit, repeat.

A :class:`SweepWorker` attaches to a :class:`~repro.service.server.
SweepServer`, claims execution units under the server's leases, runs
each in-process through :func:`~repro.experiments.runner.
execute_unit` — one simulation for jobs that share a timing
signature — and sends the unit's records back in one result frame.
A daemon heartbeat thread renews the lease of whatever unit is in
flight, sharing the single connection safely (the
:class:`~repro.service.protocol.FrameChannel` serialises
request/response pairs).

Robustness duties on this side of the wire:

* **Reconnect with backoff** — any connection failure (drop, torn
  frame, server restart) triggers bounded reconnect attempts, each
  re-running the hello handshake; when they are exhausted the worker
  raises :class:`ServerLostError` and :meth:`SweepWorker.run` returns
  a ``server_lost`` summary so the CLI can exit cleanly with a resume
  hint instead of spinning against a dead address.
* **Shared verified cache** — with a cache under a shared root, the
  worker serves repeat keys from disk (verify-on-read) per job and
  takes a cross-process atomic claim on each key it misses before
  computing, so two workers landing on the same key at once don't
  duplicate the simulation; the missed jobs run as one unit.  A
  worker that dies holding a claim is stolen from after the stale
  window.
* **Network fault injection** — the server ships
  :data:`~repro.experiments.faults.NETWORK_FAULT_KINDS` actions with
  a grant (only jobs the fault plan names carry them, and those are
  units of one) and the worker fires them through the real socket:
  dropping the connection without submitting (lease expiry re-queues),
  stalling heartbeats while the unit keeps computing (the late-result
  path), writing a half frame then resubmitting properly, and
  submitting a duplicate result.

In-process faults ride the payload as usual — including "kill", which
``os._exit``\\ s this whole worker process; dead-worker recovery is the
server's lease table, not anything here.
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro.experiments.cache import ResultCache
from repro.experiments.faults import FaultAction
from repro.experiments.runner import execute_unit
from repro.experiments.spec import JobSpec
from repro.service.protocol import (
    FrameChannel,
    ProtocolError,
    connect,
    torn_frame_bytes,
)

import threading

__all__ = ["ServerLostError", "SweepWorker", "run_worker"]


class ServerLostError(ConnectionError):
    """The server is unreachable after exhausting reconnect attempts."""


class SweepWorker:
    """One worker process' client loop against a sweep server.

    Attributes:
        host / port: server address.
        name: worker identity sent with every message (default
            ``worker-<pid>``); the server counts reconnects and
            attributes leases by it.
        cache: optional shared :class:`ResultCache` — enables the
            cross-worker dedup path.
        campaign_id: expected campaign; sent in the hello so a worker
            pointed at the wrong server is rejected instead of
            computing for a drifted spec.  None skips the check.
        report: request the final records with the drain reply (the
            ``repro sweep --server`` reporter mode).
        reconnect_attempts / reconnect_backoff: dead-server detection
            budget — attempts are spaced ``backoff * 2**n`` seconds
            apart, capped at 5s.
        request_timeout: per-request socket timeout in seconds.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: str | None = None,
        cache: ResultCache | None = None,
        campaign_id: str | None = None,
        report: bool = False,
        reconnect_attempts: int = 10,
        reconnect_backoff: float = 0.25,
        request_timeout: float = 60.0,
        claim_poll_seconds: float = 5.0,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name or f"worker-{os.getpid()}"
        self.cache = cache
        self.campaign_id = campaign_id
        self.report = report
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_backoff = reconnect_backoff
        self.request_timeout = request_timeout
        self.claim_poll_seconds = claim_poll_seconds
        self.heartbeat_seconds: float | None = None
        self.jobs_done = 0
        self.jobs_failed = 0
        self.cache_hits = 0
        self.reconnects = 0
        self.drops = 0
        self._channel: FrameChannel | None = None
        self._stop = threading.Event()
        self._current_unit: str | None = None
        self._stall_until = 0.0
        self._rejected: str | None = None

    # -- lifecycle -------------------------------------------------------

    def run(self) -> dict[str, Any]:
        """Work until the server drains (or is lost); returns a summary.

        Never raises for server death — the summary's ``server_lost``
        flag (plus the campaign id learned in the handshake, the
        resume hint) is the contract with the CLI.
        """
        summary: dict[str, Any] = {
            "worker": self.name,
            "campaign_id": self.campaign_id,
            "drained": False,
            "server_lost": False,
            "rejected": None,
        }
        beater = threading.Thread(
            target=self._heartbeat_loop, daemon=True, name="heartbeat"
        )
        try:
            try:
                self._connect_and_hello()
            except ServerLostError:
                raise
            except OSError:
                # The first dial failed (server not up yet, or already
                # gone): spend the reconnect budget before giving up.
                self._reconnect()
            summary["campaign_id"] = self.campaign_id
            beater.start()
            drain = self._work_loop()
            summary["drained"] = True
            summary["reason"] = drain.get("reason")
            summary["interrupted"] = drain.get("interrupted", False)
            if self.report:
                summary["records"] = drain.get("records")
                summary["summary"] = drain.get("summary")
        except ServerLostError as exc:
            summary["server_lost"] = True
            summary["error"] = str(exc)
            summary["campaign_id"] = self.campaign_id
        finally:
            self._stop.set()
            self._close()
        if self._rejected is not None:
            summary["rejected"] = self._rejected
        summary["jobs_done"] = self.jobs_done
        summary["jobs_failed"] = self.jobs_failed
        summary["cache_hits"] = self.cache_hits
        summary["reconnects"] = self.reconnects
        summary["drops"] = self.drops
        return summary

    def _work_loop(self) -> dict[str, Any]:
        while True:
            reply = self._request(
                {
                    "type": "claim",
                    "worker": self.name,
                    "report": self.report,
                }
            )
            kind = reply.get("type")
            if kind == "unit":
                self._run_unit(reply)
            elif kind == "wait":
                time.sleep(float(reply.get("seconds", 0.2)))
            elif kind == "drain":
                self._farewell()
                return reply
            else:
                raise ServerLostError(
                    f"server sent unexpected reply {kind!r} to a claim"
                )

    def _farewell(self) -> None:
        channel = self._channel
        if channel is None:
            return
        try:
            channel.request(
                {"type": "goodbye", "worker": self.name},
                timeout=self.request_timeout,
            )
        except OSError:
            pass

    def _close(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    # -- connection management -------------------------------------------

    def _connect_and_hello(self) -> None:
        """Dial and handshake; raises ServerLostError on rejection.

        A hello rejection (campaign mismatch) is deliberately final:
        reconnecting to the same wrong server cannot help.
        """
        self._channel = connect(self.host, self.port, self.request_timeout)
        hello: dict[str, Any] = {"type": "hello", "worker": self.name}
        if self.campaign_id is not None:
            hello["campaign_id"] = self.campaign_id
        welcome = self._channel.request(hello, timeout=self.request_timeout)
        if welcome.get("type") == "error":
            self._rejected = str(welcome.get("reason"))
            raise ServerLostError(f"server rejected us: {self._rejected}")
        self.campaign_id = welcome.get("campaign_id", self.campaign_id)
        self.heartbeat_seconds = welcome.get("heartbeat_seconds")

    def _reconnect(self) -> None:
        """Bounded redial-with-backoff; ServerLostError when exhausted."""
        self._close()
        for attempt in range(self.reconnect_attempts):
            time.sleep(min(5.0, self.reconnect_backoff * 2**attempt))
            try:
                self._connect_and_hello()
            except ServerLostError:
                raise  # rejected hello: retrying cannot change the answer
            except OSError:
                continue
            self.reconnects += 1
            return
        raise ServerLostError(
            f"server {self.host}:{self.port} unreachable after "
            f"{self.reconnect_attempts} reconnect attempts"
        )

    def _request(self, message: dict[str, Any]) -> dict[str, Any]:
        """One request/response, reconnecting underneath on failure.

        The retried request is always safe to repeat: claims are
        idempotent grants, heartbeats are renewals, and results are
        reconciled first-completion-wins by the server.
        """
        while True:
            channel = self._channel
            try:
                if channel is None:
                    raise ConnectionError("not connected")
                return channel.request(
                    message, timeout=self.request_timeout
                )
            except OSError:  # ProtocolError included
                self._reconnect()

    # -- heartbeats ------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while True:
            interval = self.heartbeat_seconds or 1.0
            if self._stop.wait(interval):
                return
            unit = self._current_unit
            if unit is None:
                continue
            if time.monotonic() < self._stall_until:
                continue  # injected heartbeat stall: stay silent
            channel = self._channel
            if channel is None:
                continue
            try:
                channel.request(
                    {
                        "type": "heartbeat",
                        "worker": self.name,
                        "unit": unit,
                    },
                    timeout=self.request_timeout,
                )
            except Exception:
                # The main loop owns reconnects; a missed beat at
                # worst costs the lease, which the server re-grants.
                continue

    # -- unit execution --------------------------------------------------

    def _run_unit(self, grant: dict[str, Any]) -> None:
        unit = str(grant.get("unit"))
        payloads = [
            job.get("payload") or {} for job in grant.get("jobs") or ()
        ]
        faults = [
            FaultAction.from_dict(dict(d))
            for d in grant.get("network_faults") or ()
        ]
        stall = next(
            (a for a in faults if a.kind == "heartbeat_stall"), None
        )
        if stall is not None:
            self._stall_until = time.monotonic() + stall.hang_seconds
        self._current_unit = unit
        try:
            records = self._execute(payloads)
        finally:
            self._current_unit = None
        for record in records:
            if record.get("status") == "ok":
                self.jobs_done += 1
            else:
                self.jobs_failed += 1
        message = {
            "type": "result",
            "worker": self.name,
            "unit": unit,
            "records": records,
        }
        if any(a.kind == "drop_connection" for a in faults):
            # Die on the wire: close without submitting.  The computed
            # records are discarded; the lease expires and each job is
            # re-queued for someone else — work lost, correctness kept.
            self.drops += 1
            self._close()
            self._reconnect()
            return
        if any(a.kind == "torn_frame" for a in faults):
            # A sender dying mid-frame: write half the result frame,
            # sever the connection, then submit properly — exercising
            # the server's torn-frame rejection *and* its idempotent
            # late/duplicate reconciliation in one go.
            channel = self._channel
            try:
                if channel is not None:
                    channel.send_raw(torn_frame_bytes(message))
            except OSError:
                pass
            self._close()
            self._reconnect()
        ack = self._request(message)
        if any(a.kind == "duplicate_result" for a in faults):
            # A presumed-lost result arriving twice; the server must
            # acknowledge the second copy as a duplicate.
            self._request(message)
        if not ack.get("accepted", False):
            self.jobs_failed += 1

    def _execute(
        self, payloads: list[dict[str, Any]]
    ) -> list[dict[str, Any]]:
        """Run one unit, deduping each job through the shared cache.

        Cache hits are served per job; the jobs left over run as one
        :func:`execute_unit` call under a claim on each of their keys.
        A payload that does not decode runs uncached and reports its
        own error.
        """
        cache = self.cache
        if cache is None:
            return execute_unit(payloads)
        records: list[dict[str, Any] | None] = [None] * len(payloads)
        keys: list[str | None] = [None] * len(payloads)
        claimed: list[str] = []
        deadline = time.monotonic() + self.claim_poll_seconds
        try:
            for i, payload in enumerate(payloads):
                clean = dict(payload)
                clean.pop("_fault", None)
                try:
                    keys[i] = key = cache.key_for(JobSpec.from_dict(clean))
                except Exception:
                    continue
                records[i], owned = self._hit_or_claim(cache, key, deadline)
                if owned:
                    claimed.append(key)
            missed = [i for i, record in enumerate(records) if record is None]
            fresh = execute_unit([payloads[i] for i in missed])
            for i, record in zip(missed, fresh):
                key = keys[i]
                if key is not None and record.get("status") == "ok":
                    cache.put(key, record)
                records[i] = record
            return records  # type: ignore[return-value]
        finally:
            for key in claimed:
                cache.release_claim(key)

    def _hit_or_claim(
        self, cache: ResultCache, key: str, deadline: float
    ) -> tuple[dict[str, Any] | None, bool]:
        """The cached record, or None to compute and whether we hold
        the key's claim.

        A key another worker is computing right now is polled for
        until ``deadline``; past it, compute anyway — duplicated work
        is wasted, never wrong.
        """
        while True:
            record = cache.get(key)
            if record is not None:
                self.cache_hits += 1
                return record, False
            if cache.claim(key):
                return None, True
            if time.monotonic() >= deadline:
                return None, False
            time.sleep(0.05)


def run_worker(
    host: str,
    port: int,
    *,
    name: str | None = None,
    cache_dir: str | None = None,
    campaign_id: str | None = None,
    report: bool = False,
    reconnect_attempts: int = 10,
    reconnect_backoff: float = 0.25,
    request_timeout: float = 60.0,
) -> dict[str, Any]:
    """Module-level worker entry point (CLI and multiprocessing target).

    Takes only picklable arguments; builds the cache from its root so
    a spawned process can run it directly.
    """
    cache = ResultCache(cache_dir) if cache_dir else None
    worker = SweepWorker(
        host,
        port,
        name=name,
        cache=cache,
        campaign_id=campaign_id,
        report=report,
        reconnect_attempts=reconnect_attempts,
        reconnect_backoff=reconnect_backoff,
        request_timeout=request_timeout,
    )
    return worker.run()
