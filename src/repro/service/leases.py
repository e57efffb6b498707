"""Time-bounded job leases for the sweep server.

A lease is the server's claim-side contract: a worker that claims a
job must complete it — or at least heartbeat — before the lease
deadline, or the job returns to the queue for someone else.  Leases
(not connections) own job liveness: a dropped socket changes nothing
until the deadline passes, so a network blip doesn't forfeit work, and
a worker that silently dies can't strand a job forever.

Every mutation is counted (grants, renewals, expiries, steals, missed
heartbeats) so the server's ``service.*`` metrics family reads
straight off the table.  The clock is injectable for deterministic
tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

__all__ = ["Lease", "LeaseTable"]


@dataclass(frozen=True)
class Lease:
    """One worker's time-bounded hold on a unit of jobs.

    Attributes:
        job_id: the lease's key (the unit's first job).
        jobs: every job the lease covers, the key included.
        worker: holder's worker name.
        attempt: 1-based dispatch attempt this lease covers.
        granted_at: clock reading at grant time.
        last_heartbeat: clock reading of the latest renewal (grant
            counts as the first heartbeat).
        deadline: clock reading past which the lease is expired.
    """

    job_id: str
    jobs: tuple[str, ...]
    worker: str
    attempt: int
    granted_at: float
    last_heartbeat: float
    deadline: float


class LeaseTable:
    """Grant / renew / expire job leases, with full accounting.

    Attributes:
        lease_seconds: grant-to-deadline budget; every heartbeat
            pushes the deadline out by this much again.
        heartbeat_seconds: the interval workers are told to beat at
            (default a third of the lease, so two beats can be lost
            before the lease lapses).
        granted / renewed / expired / stolen / heartbeats_missed:
            lifetime counters.  A *steal* is a grant of a job whose
            previous lease expired under a different worker — the
            dead-worker-recovery path; it counts jobs, not leases.  A
            *missed heartbeat* is an expiry whose holder had been
            silent for at least two heartbeat intervals (vs. one that
            simply ran past its deadline while still beating).
    """

    def __init__(
        self,
        lease_seconds: float,
        heartbeat_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        self.lease_seconds = lease_seconds
        self.heartbeat_seconds = (
            lease_seconds / 3.0
            if heartbeat_seconds is None
            else heartbeat_seconds
        )
        if self.heartbeat_seconds <= 0:
            raise ValueError("heartbeat_seconds must be positive")
        self._clock = clock
        self._lock = threading.Lock()
        self._leases: dict[str, Lease] = {}
        # job_id -> worker whose lease on it last expired; consulted
        # at re-grant time to count steals.
        self._expired_holders: dict[str, str] = {}
        self.granted = 0
        self.renewed = 0
        self.expired = 0
        self.stolen = 0
        self.heartbeats_missed = 0

    def __len__(self) -> int:
        return len(self._leases)

    def grant(
        self,
        job_id: str,
        worker: str,
        attempt: int,
        jobs: Sequence[str] = (),
    ) -> Lease:
        """Lease ``job_id`` to ``worker`` until the deadline.

        ``jobs`` lists every job of the leased unit (default: just
        ``job_id``), so a steal counts each of them.
        """
        now = self._clock()
        with self._lock:
            lease = Lease(
                job_id=job_id,
                jobs=tuple(jobs) or (job_id,),
                worker=worker,
                attempt=attempt,
                granted_at=now,
                last_heartbeat=now,
                deadline=now + self.lease_seconds,
            )
            self._leases[job_id] = lease
            self.granted += 1
            for job in lease.jobs:
                previous = self._expired_holders.pop(job, None)
                if previous is not None and previous != worker:
                    self.stolen += 1
            return lease

    def renew(self, job_id: str, worker: str) -> bool:
        """Heartbeat: push the deadline out; False if not the holder.

        A renewal from a non-holder (the lease expired and moved, or
        was never granted) is refused, telling the worker its lease is
        gone — it may keep computing and submit late, which the server
        reconciles idempotently.
        """
        now = self._clock()
        with self._lock:
            lease = self._leases.get(job_id)
            if lease is None or lease.worker != worker:
                return False
            self._leases[job_id] = replace(
                lease,
                last_heartbeat=now,
                deadline=now + self.lease_seconds,
            )
            self.renewed += 1
            return True

    def release(self, job_id: str) -> Lease | None:
        """Drop the lease (job completed); returns it, or None."""
        with self._lock:
            return self._leases.pop(job_id, None)

    def expire(self, now: float | None = None) -> list[Lease]:
        """Pop and return every lease past its deadline."""
        if now is None:
            now = self._clock()
        out: list[Lease] = []
        with self._lock:
            for job_id, lease in list(self._leases.items()):
                if lease.deadline > now:
                    continue
                del self._leases[job_id]
                for job in lease.jobs:
                    self._expired_holders[job] = lease.worker
                self.expired += 1
                if (
                    now - lease.last_heartbeat
                    >= 2.0 * self.heartbeat_seconds
                ):
                    self.heartbeats_missed += 1
                out.append(lease)
        return out

    def counters(self) -> dict[str, int]:
        """The ``service.*`` metric names this table owns."""
        return {
            "service.leases.granted": self.granted,
            "service.leases.renewed": self.renewed,
            "service.leases.expired": self.expired,
            "service.jobs.stolen": self.stolen,
            "service.heartbeats.missed": self.heartbeats_missed,
        }
