"""Campaign execution: one ledger, three engines.

A campaign is an expanded job list plus the bookkeeping that turns
its job records into a :class:`CampaignResult`.  That bookkeeping
lives here once, in ``_Ledger``, and every engine shares it:

* **open** — refuse a journal written for a different spec
  (:class:`SpecDriftError`), start or resume the
  :class:`~repro.experiments.store.CampaignJournal`, and triage the
  grid into journal-resumed jobs, hits in the
  :class:`~repro.experiments.cache.ResultCache`, and jobs to run;
* **settle** — decide from one attempt's record whether the job
  retries or is final.  Failures classified transient
  (:func:`~repro.experiments.faults.classify_error` plus the kind's
  own ``transient_errors``; the engines' synthetic ``timeout``,
  ``worker_crash`` and ``lease_expired`` records included) retry up
  to ``max_retries`` times; a job that exhausts them is quarantined;
  deterministic failures are final at once.  A unit's final ok
  records are journaled in one write before any of them is reported
  — the crash-safety contract — and cached;
* **schedule** — split the jobs to run into execution units and queue
  them.  Model jobs that differ only in their coding (ordering, data
  format, fill order, codec) share a *timing signature*: the NoC
  moves their flits on the same cycles, so one unit simulates the
  schedule once and scores every coding on it
  (:func:`~repro.accelerator.simulator.run_codings`).  Jobs of other
  kinds and jobs the fault plan names are units of one.  A retry
  re-queues alone at its next attempt, ready after the seeded backoff
  (:func:`~repro.experiments.faults.backoff_seconds`, seeded by the
  spec's seed) while other units go on.  Taking a unit counts it in
  ``runner.units`` and splits its fault-plan actions: in-process ones
  ride the payload's ``_fault``, network ones come back beside it;
* **finish** — assemble the records in grid order, aggregate the
  metrics, write the store, and journal the ``end`` entry (or a
  ``checkpoint`` when interrupted).

Every job's record still settles and caches on its own, and equals
the record the job gets when it runs alone; a unit whose group
execution raises re-runs each job alone (:func:`execute_unit`).  The
engines are transports only: they take the ledger's next ready unit,
run it, and hand back its records or the failure they observed.

* the inline loop (``workers=1``, no timeout or fault plan) calls
  :func:`execute_unit` in-process and sleeps while every queued unit
  waits out a backoff;
* ``_Supervisor`` forks up to ``workers`` long-lived workers, lazily,
  and feeds each one unit at a time over a duplex pipe.  A worker past
  its deadline (``job_timeout`` per job of the unit) is killed (a
  ``timeout`` failure), one that dies without records (``os._exit``,
  SIGKILL, OOM) is a ``worker_crash``, and either is replaced by a
  fresh fork on the next dispatch.  Forking per attempt instead cost
  more than the jobs on a simulation-scale grid; reuse is safe because
  a record depends only on its job, never on what the process ran
  before;
* :class:`~repro.service.server.SweepServer` leases units to socket
  workers and turns a lapsed lease into a ``lease_expired`` failure.

Execution dispatches through the job-kind registry
(:mod:`repro.experiments.kinds`), so every kind shares the engines.
Job records are fully deterministic (no timestamps, no host state),
so a sweep run inline, on eight workers, or served over sockets gives
byte-identical records — the property the cache, the journal, and the
chaos regression tests rely on.  ``run`` never raises for job
failures: a campaign always completes (or checkpoints on SIGINT) with
partial results and a structured :meth:`CampaignResult.
failure_report`.  A failed job is a ``status="error"`` record with its
error class and attempt count; it is *not* cached (so the point
retries on the next run) and still lands in the result store.
Injected faults (:mod:`repro.experiments.faults`) ride the job payload
into the worker, so every resilience feature is tested against the
real multiprocessing path it defends.
"""

from __future__ import annotations

import contextlib
import heapq
import multiprocessing
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterator

from repro.experiments.cache import ResultCache
from repro.experiments.faults import (
    FaultPlan,
    apply_fault_actions,
    backoff_seconds,
    classify_error,
)
from repro.experiments.kinds import job_kind
from repro.experiments.spec import JobSpec, SweepSpec, campaign_id
from repro.experiments.store import CampaignJournal, ResultStore
from repro.obs.metrics import (
    active_registry,
    merge_metrics,
    metrics_suspended,
)

__all__ = [
    "execute_job",
    "execute_unit",
    "failure_record",
    "CampaignResult",
    "CampaignRunner",
    "SpecDriftError",
    "sigterm_as_interrupt",
]


class SpecDriftError(RuntimeError):
    """A resume was attempted with a spec that no longer matches the
    journaled campaign.

    :func:`~repro.experiments.spec.campaign_id` hashes the full
    canonical spec, so any drift — an edited grid, a changed seed, a
    renamed campaign — changes the id.  Resuming anyway would silently
    mix two different campaigns' results in one store; failing loudly
    is the only safe behaviour.
    """


@contextlib.contextmanager
def sigterm_as_interrupt() -> Iterator[None]:
    """Route SIGTERM through the KeyboardInterrupt graceful path.

    Container orchestrators and batch schedulers stop jobs with
    SIGTERM; without this, a terminated campaign dies mid-write
    instead of checkpointing its journal the way Ctrl-C does.  Only
    the main thread may install signal handlers — elsewhere (a server
    thread running a campaign) this is a no-op and the process-level
    handler owns termination.  The previous handler is restored on
    exit.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def execute_job(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one serialized job; never raises (though it may be killed).

    Module-level (not a method) so worker processes can import it, and
    dict-in/dict-out so every transport — inline call, fork, spawn —
    carries the same picklable payload.  A ``"_fault"`` key smuggles
    injected :mod:`~repro.experiments.faults` actions into the worker;
    they fire between payload decode and kind dispatch, inside the
    exception net (except for kills, which bypass it by design).
    """
    payload = dict(payload)
    fault_actions = payload.pop("_fault", None)
    try:
        job = JobSpec.from_dict(payload)
        if fault_actions:
            apply_fault_actions(fault_actions)
        return _ok_record(job, job_kind(job.kind).execute(job))
    except Exception as exc:
        try:
            job_id = JobSpec.from_dict(payload).job_id
        except Exception:
            job_id = "?"
        record = failure_record(
            payload, job_id, f"{type(exc).__name__}: {exc}"
        )
        record["traceback"] = traceback.format_exc()
        return record


def execute_unit(payloads: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Run one execution unit; one record per payload, never raises.

    A unit of several jobs shares one :meth:`JobKind.unit_key`, and
    its kind's ``execute_group`` simulates their common schedule once.
    If the group raises, every job runs alone through
    :func:`execute_job`, so each gets exactly the record — error or
    not — it would get by itself.
    """
    if len(payloads) > 1:
        try:
            jobs = [JobSpec.from_dict(payload) for payload in payloads]
            results = job_kind(jobs[0].kind).execute_group(jobs)
            return [
                _ok_record(job, result) for job, result in zip(jobs, results)
            ]
        except Exception:
            pass  # outside the handler, so no traceback chains to this
    return [execute_job(payload) for payload in payloads]


def _ok_record(job: JobSpec, result: dict[str, Any]) -> dict[str, Any]:
    return {
        "job_id": job.job_id,
        "kind": job.kind,
        "model": job.model,
        "model_seed": job.model_seed,
        "image_seed": job.image_seed,
        "n_images": job.n_images,
        "config": job.config.to_dict(),
        "status": "ok",
        "result": result,
        "error": None,
    }


def failure_record(
    payload: dict[str, Any],
    job_id: str,
    error: str,
    error_class: str | None = None,
) -> dict[str, Any]:
    """The error record every engine builds for a failed attempt.

    ``error`` is a ``"Type: message"`` string.  Engines that observe
    a failure no worker could report (a timeout, a crash, a lapsed
    lease) name its ``error_class``; without one the class is derived
    from ``error`` when the record settles.
    """
    record = {
        "job_id": job_id,
        "kind": payload.get("kind", "model"),
        "model": payload.get("model", "?"),
        "model_seed": payload.get("model_seed"),
        "image_seed": payload.get("image_seed"),
        "n_images": payload.get("n_images"),
        "config": payload.get("config", {}),
        "status": "error",
        "result": None,
        "error": error,
    }
    if error_class is not None:
        record["error_class"] = error_class
    return record


def _worker_loop(conn, parent_end) -> None:
    """Worker-process entry: run units off the pipe until stopped.

    Each unit (a list of job payloads) is answered with its
    :func:`execute_unit` records; a ``None`` sentinel, or EOF once the
    supervisor is gone, ends the loop.  SIGINT is ignored — a Ctrl-C
    belongs to the supervisor, which checkpoints the journal and kills
    workers deliberately — and
    SIGTERM is reset to the default, so a timeout kill ends the worker
    quietly instead of raising the KeyboardInterrupt of the
    :func:`sigterm_as_interrupt` handler inherited at fork.  The
    inherited metrics registry stays suspended: the supervisor's
    single post-run aggregation is the one publication path.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent_end.close()  # so the supervisor's exit reads as EOF here
    with metrics_suspended():
        while True:
            try:
                payloads = conn.recv()
            except (EOFError, OSError):
                return
            if payloads is None:
                return
            try:
                conn.send(execute_unit(payloads))
            except OSError:  # pragma: no cover - supervisor gone
                return


@dataclass
class _Unit:
    """One take from the ledger's queue: the grid indices of jobs that
    run together on one attempt (a retry runs alone), their payloads
    (in-process faults in ``_fault``), and the network faults the
    socket layer fires."""

    indices: list[int]
    attempt: int
    payloads: list[dict[str, Any]] = field(default_factory=list)
    network_faults: list[dict[str, Any]] = field(default_factory=list)


def _kind_transients(kind_name: str) -> tuple[str, ...]:
    """The kind's extra retryable error types ('' registry-safe)."""
    try:
        return job_kind(kind_name).transient_errors
    except Exception:
        return ()


@dataclass
class CampaignResult:
    """Outcome of one campaign run.

    Attributes:
        name: campaign name.
        records: one record per completed job, in grid order (on an
            interrupted run, jobs never dispatched have no record).
        hits / misses: cache accounting for this run.
        errors: jobs whose final record failed (status="error").
        elapsed_seconds: wall-clock time of the run.
        workers: pool size used for the misses.
        resumed: jobs served from the campaign journal (a `--resume`).
        retries: re-dispatches after transient-class failures.
        timeouts: attempts killed for exceeding the job timeout.
        worker_crashes: attempts whose worker died without a result.
        quarantined: job_ids that exhausted retries on transient-class
            failures (the poison jobs).
        interrupted: True when SIGINT checkpointed the run early.
        remaining: job_ids never run (interrupted before dispatch).
        failures: structured per-failure dicts (job_id, label, error,
            error_class, attempts, quarantined).
        metrics: campaign-wide observability aggregate — every
            record's ``result["metrics"]`` merged (``.peak`` names by
            max, the rest summed) plus the runner's own ``cache.*`` /
            ``runner.*`` counters.
    """

    name: str
    records: list[dict[str, Any]] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    errors: int = 0
    elapsed_seconds: float = 0.0
    workers: int = 1
    resumed: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    quarantined: list[str] = field(default_factory=list)
    interrupted: bool = False
    remaining: list[str] = field(default_factory=list)
    failures: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def n_jobs(self) -> int:
        return len(self.records)

    @property
    def hit_rate(self) -> float:
        """Fraction of jobs served from cache, in [0, 1]."""
        if not self.records:
            return 0.0
        return self.hits / len(self.records)

    def ok_records(self) -> list[dict[str, Any]]:
        return [r for r in self.records if r.get("status") == "ok"]

    def summary(self) -> str:
        """The printed cache-hit summary line."""
        line = (
            f"campaign {self.name!r}: {self.n_jobs} jobs, "
            f"{self.hits} cache hits / {self.misses} simulated "
            f"({100.0 * self.hit_rate:.1f}% hit rate), "
            f"{self.errors} errors, {self.workers} workers, "
            f"{self.elapsed_seconds:.2f}s"
        )
        extras = []
        if self.resumed:
            extras.append(f"{self.resumed} resumed")
        if self.retries:
            extras.append(f"{self.retries} retries")
        if self.timeouts:
            extras.append(f"{self.timeouts} timeouts")
        if self.worker_crashes:
            extras.append(f"{self.worker_crashes} worker crashes")
        if self.quarantined:
            extras.append(f"{len(self.quarantined)} quarantined")
        if extras:
            line += f" [{', '.join(extras)}]"
        if self.interrupted:
            line += (
                f" — INTERRUPTED with {len(self.remaining)} job(s) left"
            )
        return line

    def failure_report(self) -> dict[str, Any]:
        """Structured account of everything that went wrong (or not).

        Always well-formed — an all-green campaign reports zero counts
        — so report plumbing and the journal ``end``/``checkpoint``
        entries can carry it unconditionally.
        """
        by_class: dict[str, int] = {}
        for failure in self.failures:
            cls = failure.get("error_class", "permanent")
            by_class[cls] = by_class.get(cls, 0) + 1
        return {
            "campaign": self.name,
            "completed": len(self.ok_records()),
            "failed": len(self.failures),
            "by_class": by_class,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "quarantined": list(self.quarantined),
            "interrupted": self.interrupted,
            "remaining": list(self.remaining),
            "failures": list(self.failures),
        }


class _Ledger:
    """One campaign's bookkeeping and unit queue, shared by every engine.

    An engine calls :meth:`open` once, then loops: :meth:`take` the
    next ready unit (:meth:`ready_in` says how long until there is
    one), run it, and hand back its records to :meth:`settle` or the
    failure it observed to :meth:`fail`; finally it calls
    :meth:`finish`.  It never touches the cache, journal, store,
    attempt numbers or fault plan itself.  Not thread-safe: the sweep
    server calls it under its own lock.

    Attributes:
        records: grid index -> landed record (resumed, cached, or
            final fresh); a job with no entry has not finished.
        cached / resumed: grid indices served by the cache / journal.
        retries / timeouts / worker_crashes / quarantined: the
            resilience counters :meth:`finish` reports.
        taken: units taken, retries included (``runner.units``).
        clock: the queue's monotonic clock.
    """

    def __init__(
        self,
        name: str,
        jobs: list[JobSpec],
        cache: ResultCache | None,
        store: ResultStore | None,
        journal: CampaignJournal | None,
        max_retries: int,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.name = name
        self.jobs = jobs
        self.cache = cache
        self.store = store
        self.journal = journal
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        self.records: dict[int, dict[str, Any]] = {}
        self.cached: set[int] = set()
        self.resumed: set[int] = set()
        self.retries = 0
        self.timeouts = 0
        self.worker_crashes = 0
        self.quarantined: list[str] = []
        self.taken = 0
        self.clock: Callable[[], float] = time.monotonic
        self.started = 0.0
        self._corrupt_before = 0
        self._seed = 0
        self._fresh: deque[list[int]] = deque()
        # Retries sitting out their backoff: (ready_at, index, attempt).
        self._backoff: list[tuple[float, int, int]] = []
        self._attempts: dict[int, int] = {}

    def open(self, spec: SweepSpec | None) -> list[list[int]]:
        """Start or resume the journal, triage the grid, queue units.

        Returns the queued execution units.  Raises
        :class:`SpecDriftError` when the journal records a different
        campaign than ``spec`` derives.
        """
        self.started = time.perf_counter()
        self._seed = spec.seed if spec is not None else 0
        # ``is not None``, never truthiness: ResultCache.__len__ globs
        # the cache directory, and an empty cache must still be read.
        if self.cache is not None:
            self._corrupt_before = self.cache.corrupt_dropped
        journal_done: dict[str, dict[str, Any]] = {}
        if self.journal is not None:
            if self.journal.exists():
                self.journal.recover()
                if spec is not None:
                    self._check_spec_drift(spec)
                journal_done = self.journal.completed()
                self.journal.append({"event": "resume"})
            else:
                self.journal.start(
                    campaign_id(spec) if spec is not None else self.name,
                    self.name,
                    spec.to_dict() if spec is not None else None,
                    str(self.store.path) if self.store else None,
                )
        todo: list[int] = []
        for index, job in enumerate(self.jobs):
            record = journal_done.get(job.job_id)
            if record is not None:
                self.resumed.add(index)
            elif self.cache is not None and (
                record := self.cache.get_job(job)
            ) is not None:
                self.cached.add(index)
            else:
                todo.append(index)
                continue
            self.records[index] = record
        self._fresh.extend(self.units(todo))
        return list(self._fresh)

    def units(self, todo: list[int]) -> list[list[int]]:
        """Split the grid indices to run into execution units.

        Jobs with one :meth:`~repro.experiments.kinds.JobKind.unit_key`
        form one unit, placed at the grid position of its first job.
        Jobs of kinds without a key, and jobs the fault plan names on
        any attempt, are units of one.
        """
        plan = self.fault_plan
        units: list[list[int]] = []
        by_key: dict[Any, list[int]] = {}
        for index in todo:
            job = self.jobs[index]
            key = None
            if plan is None or not plan.names(job.job_id, index):
                key = job_kind(job.kind).unit_key(job)
            if key is None:
                units.append([index])
            elif key in by_key:
                by_key[key].append(index)
            else:
                by_key[key] = [index]
                units.append(by_key[key])
        return units

    def _check_spec_drift(self, spec: SweepSpec) -> None:
        """Refuse to resume a journal for a different campaign."""
        assert self.journal is not None
        entry = self.journal.start_entry() or {}
        journaled = entry.get("campaign_id")
        expected = campaign_id(spec)
        if journaled is not None and journaled != expected:
            raise SpecDriftError(
                f"journal {self.journal.path} records campaign "
                f"{journaled!r} ({entry.get('campaign')!r}), but this "
                f"spec derives {expected!r} ({spec.name!r}); the grid, "
                f"seed, or name has drifted since the journal was "
                f"written — resume with the original spec, or start a "
                f"fresh campaign (delete the journal)"
            )

    @property
    def pending(self) -> int:
        """Jobs queued: in units not yet taken, or retries in backoff."""
        return sum(map(len, self._fresh)) + len(self._backoff)

    def ready_in(self) -> float | None:
        """Seconds until :meth:`take` has a unit (0.0 when one is
        ready now), or None when nothing is queued."""
        if self._fresh:
            return 0.0
        if self._backoff:
            return max(0.0, self._backoff[0][0] - self.clock())
        return None

    def take(self) -> _Unit | None:
        """The next ready unit, or None while every queued one waits.

        A retry past its backoff goes first, alone, at its next
        attempt; then fresh units in grid order.  Fault-plan actions
        for this attempt split here: in-process ones ride the payload's
        ``_fault``, network ones (the socket layer's to fire) go to
        ``network_faults``.
        """
        if self._backoff and self._backoff[0][0] <= self.clock():
            _, index, attempt = heapq.heappop(self._backoff)
            unit = _Unit([index], attempt)
        elif self._fresh:
            unit = _Unit(self._fresh.popleft(), 1)
        else:
            return None
        self.taken += 1
        for index in unit.indices:
            self._attempts[index] = unit.attempt
            job = self.jobs[index]
            payload = job.to_dict()
            if self.fault_plan is not None:
                actions = self.fault_plan.actions_for(
                    job.job_id, index, unit.attempt
                )
                unit.network_faults += [
                    a.to_dict() for a in actions if a.is_network
                ]
                in_process = [
                    a.to_dict() for a in actions if not a.is_network
                ]
                if in_process:
                    payload = {**payload, "_fault": in_process}
            unit.payloads.append(payload)
        return unit

    def settle(
        self, indices: list[int], records: list[dict[str, Any]]
    ) -> list[dict[str, Any]]:
        """Land one record per job of ``indices``; returns the final ones.

        Each job settles at the attempt it was last taken at.  A
        transient-class failure on an attempt ``<= max_retries``
        counts a retry and re-queues the job alone, ready after its
        seeded backoff.  Otherwise the record is final: an error gains
        ``error_class``, ``attempts`` and ``quarantined`` (true for a
        transient class that ran out of retries); ok records are
        journaled in their store form, all in one write, then cached.
        A job settled while it waits out a backoff (a late result from
        an earlier attempt) leaves the queue.
        """
        now = self.clock()
        finals: list[dict[str, Any]] = []
        ok: list[tuple[JobSpec, dict[str, Any]]] = []
        for index, record in zip(indices, records):
            if any(entry[1] == index for entry in self._backoff):
                self._backoff = [e for e in self._backoff if e[1] != index]
                heapq.heapify(self._backoff)
            job = self.jobs[index]
            attempt = self._attempts.get(index, 1)
            if record.get("status") == "ok":
                ok.append((job, record))
            else:
                error_class = record.get("error_class") or classify_error(
                    record.get("error"), _kind_transients(job.kind)
                )
                if (
                    error_class != "permanent"
                    and attempt <= self.max_retries
                ):
                    self.retries += 1
                    ready_at = now + backoff_seconds(
                        self._seed, job.job_id, attempt
                    )
                    heapq.heappush(
                        self._backoff, (ready_at, index, attempt + 1)
                    )
                    continue
                record = {
                    **record,
                    "error_class": error_class,
                    "attempts": attempt,
                    "quarantined": error_class != "permanent",
                }
                if record["quarantined"]:
                    self.quarantined.append(job.job_id)
            self.records[index] = record
            finals.append(record)
        if ok and self.journal is not None:
            self.journal.record_job(
                [
                    {**record, "cached": False, "campaign": self.name}
                    for _, record in ok
                ]
            )
        if self.cache is not None:
            for job, record in ok:
                self.cache.put_job(job, record)
        return finals

    def fail(
        self, indices: list[int], error: str, error_class: str
    ) -> list[dict[str, Any]]:
        """Settle a failure the engine observed for each job of
        ``indices`` (a ``timeout``, ``worker_crash`` or
        ``lease_expired`` no worker could report); ``error`` is a
        ``"Type: message"`` string, completed with the attempt."""
        if error_class == "timeout":
            self.timeouts += len(indices)
        elif error_class == "worker_crash":
            self.worker_crashes += len(indices)
        records = [
            failure_record(
                self.jobs[index].to_dict(),
                self.jobs[index].job_id,
                f"{error} (attempt {self._attempts[index]})",
                error_class,
            )
            for index in indices
        ]
        return self.settle(indices, records)

    def finish(
        self, interrupted: bool, workers: int, extras: dict[str, Any]
    ) -> CampaignResult:
        """Assemble the result in grid order, then write store/journal.

        ``extras`` are the engine's own metrics, merged over the
        record snapshots and the shared ``cache.*``/``runner.*``
        counters.
        """
        out = CampaignResult(
            name=self.name,
            hits=len(self.cached),
            misses=len(self.jobs) - len(self.cached) - len(self.resumed),
            workers=workers,
            resumed=len(self.resumed),
            retries=self.retries,
            timeouts=self.timeouts,
            worker_crashes=self.worker_crashes,
            quarantined=list(self.quarantined),
            interrupted=interrupted,
        )
        for index, job in enumerate(self.jobs):
            if index not in self.records:
                out.remaining.append(job.job_id)
                continue
            record = dict(self.records[index])
            record["cached"] = index in self.cached
            record["campaign"] = self.name
            if index in self.resumed:
                record["resumed"] = True
            elif not record["cached"] and record.get("status") == "error":
                out.errors += 1
                out.failures.append(
                    {
                        "job_id": record.get("job_id"),
                        "kind": record.get("kind", "model"),
                        "label": job.label(),
                        "error": record.get("error"),
                        "error_class": record.get(
                            "error_class", "permanent"
                        ),
                        "attempts": record.get("attempts", 1),
                        "quarantined": record.get("quarantined", False),
                    }
                )
            out.records.append(record)
        out.elapsed_seconds = time.perf_counter() - self.started
        out.metrics = self._aggregate_metrics(out, extras)
        if self.store is not None:
            self.store.extend(out.records)
        if self.journal is not None:
            event = "checkpoint" if interrupted else "end"
            self.journal.append(
                {"event": event, "report": out.failure_report()}
            )
        return out

    def _aggregate_metrics(
        self, out: CampaignResult, extras: dict[str, Any]
    ) -> dict[str, Any]:
        """Campaign-wide metrics: record snapshots + engine counters.

        Cached records contribute too — their stored metrics describe
        the same deterministic simulations, so a fully-cached campaign
        reports the same simulator counter families as a cold one.
        """
        metrics: dict[str, Any] = {}
        for record in out.records:
            result = record.get("result") or {}
            snapshot = result.get("metrics")
            if snapshot:
                merge_metrics(metrics, snapshot)
        corrupt = (
            self.cache.corrupt_dropped - self._corrupt_before
            if self.cache is not None
            else 0
        )
        merge_metrics(
            metrics,
            {
                "cache.hits": out.hits,
                "cache.misses": out.misses,
                "cache.errors": out.errors,
                "cache.corrupt_entries": corrupt,
                "runner.jobs": out.n_jobs,
                "runner.resumed": out.resumed,
                "runner.retries": out.retries,
                "runner.timeouts": out.timeouts,
                "runner.worker_crashes": out.worker_crashes,
                "runner.quarantined": len(out.quarantined),
                "runner.units": self.taken,
                **extras,
            },
        )
        return metrics


class _Supervisor:
    """Long-lived forked workers, each behind one duplex pipe.

    Replaces ``multiprocessing.Pool``: a pool cannot kill a hung task,
    and a worker that hard-dies strands its AsyncResult forever.  The
    supervisor forks at most ``limit`` workers, on first need, and
    hands each idle one the ledger's next ready unit.  Owning the
    processes lets it enforce wall-clock deadlines (``job_timeout``
    per job of the unit) with ``terminate``/``kill`` and observe crash
    exit codes directly.  A worker is replaced only when it dies:
    killed past its deadline (a ``timeout`` failure for every job of
    the unit) or gone without records (a ``worker_crash`` for each);
    the next dispatch forks a fresh one.
    """

    def __init__(self, runner: "CampaignRunner", ledger: _Ledger) -> None:
        self.runner = runner
        self.ledger = ledger
        self.ctx = multiprocessing.get_context()
        self.idle: list[tuple[Any, Any]] = []  # (conn, proc)

    def run(
        self,
        limit: int,
        on_final: Callable[[list[dict[str, Any]], int], None],
    ) -> bool:
        """Run every queued job to a final record; True if interrupted.

        ``on_final(records, running)`` fires as outcomes settle, in
        completion order, with the number of jobs still in flight.  On
        KeyboardInterrupt every worker, busy or idle, is killed and the
        unfinished jobs stay unsettled; a normal finish sends each idle
        worker the stop sentinel and joins it.
        """
        ledger = self.ledger
        running: dict[Any, tuple[_Unit, Any, float | None]] = {}
        interrupted = False
        try:
            while running or ledger.pending:
                while len(running) < limit and (unit := ledger.take()):
                    self._dispatch(unit, running)
                now = time.monotonic()
                marks = [
                    d - now for _, _, d in running.values() if d is not None
                ]
                if len(running) < limit and ledger.pending:
                    marks.append(ledger.ready_in())  # the next backoff
                timeout = max(0.0, min(marks)) if marks else None
                if not running:
                    time.sleep(timeout)  # every job sits out a backoff
                    continue
                finals: list[dict[str, Any]] = []
                for conn in mp_connection.wait(list(running), timeout):
                    unit, proc, _ = running.pop(conn)
                    finals += self._collect(conn, proc, unit)
                finals += self._reap_timeouts(running)
                in_flight = sum(len(u.indices) for u, _, _ in running.values())
                on_final(finals, in_flight)
        except KeyboardInterrupt:
            interrupted = True
        finally:
            self._shutdown(running, interrupted)
        return interrupted

    # -- internals -------------------------------------------------------

    def _start(self) -> tuple[Any, Any]:
        conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_worker_loop, args=(child_conn, conn), daemon=True
        )
        proc.start()
        child_conn.close()  # the worker holds the only copy: EOF = death
        return conn, proc

    def _dispatch(self, unit: _Unit, running: dict) -> None:
        while True:
            conn, proc = self.idle.pop() if self.idle else self._start()
            try:
                conn.send(unit.payloads)
                break
            except OSError:  # died while idle: no attempt was lost
                self._kill(proc)
                conn.close()
        deadline = (
            None
            if self.runner.job_timeout is None
            else time.monotonic() + self._budget(unit)
        )
        running[conn] = (unit, proc, deadline)

    def _budget(self, unit: _Unit) -> float:
        """A unit's wall-clock budget: ``job_timeout`` per job."""
        return self.runner.job_timeout * len(unit.indices)

    def _collect(self, conn, proc, unit: _Unit) -> list[dict[str, Any]]:
        try:
            records = conn.recv()
        except (EOFError, OSError):
            records = None
        if isinstance(records, list):
            self.idle.append((conn, proc))
            return self.ledger.settle(unit.indices, records)
        conn.close()
        proc.join(timeout=5.0)
        return self.ledger.fail(
            unit.indices,
            f"WorkerCrash: worker exited with code {proc.exitcode} "
            f"before returning a result",
            "worker_crash",
        )

    def _reap_timeouts(self, running: dict) -> list[dict[str, Any]]:
        now = time.monotonic()
        expired = [
            conn
            for conn, (_, _, deadline) in running.items()
            if deadline is not None and now >= deadline
        ]
        finals: list[dict[str, Any]] = []
        for conn in expired:
            unit, proc, _ = running.pop(conn)
            self._kill(proc)
            conn.close()
            finals += self.ledger.fail(
                unit.indices,
                f"JobTimeout: exceeded the {self._budget(unit):g}s "
                f"wall-clock budget",
                "timeout",
            )
        return finals

    def _shutdown(self, running: dict, interrupted: bool) -> None:
        """Kill busy workers; stop idle ones (killed if interrupted)."""
        for conn, (_, proc, _) in running.items():
            self._kill(proc)
            conn.close()
        for conn, proc in self.idle:
            if not interrupted:
                with contextlib.suppress(OSError):
                    conn.send(None)
                proc.join(timeout=5.0)
            self._kill(proc)  # a no-op once the worker has exited
            conn.close()
        self.idle.clear()

    @staticmethod
    def _kill(proc) -> None:
        proc.terminate()
        proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - SIGTERM blocked
            proc.kill()
            proc.join(timeout=5.0)


class CampaignRunner:
    """Executes campaigns against a cache, store, journal, and workers.

    Attributes:
        cache: result cache, or None to always simulate.
        store: JSONL store every record is appended to, or None.
        workers: concurrent in-flight jobs; 1 executes inline (no
            subprocesses) unless a timeout or fault plan forces the
            supervised path.
        job_timeout: per-attempt wall-clock budget in seconds; None
            disables (requires the supervised path to enforce).
        max_retries: transient-failure retries per job (0 = fail on
            first error, the historical behaviour); each waits a
            backoff seeded by the spec's seed (0 for a job list).
        fault_plan: deterministic fault injection for chaos testing.
        journal: campaign journal for crash-safe resume, or None.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        store: ResultStore | None = None,
        workers: int = 1,
        job_timeout: float | None = None,
        max_retries: int = 0,
        fault_plan: FaultPlan | None = None,
        journal: CampaignJournal | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.cache = cache
        self.store = store
        self.workers = workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        self.journal = journal

    def run(
        self,
        sweep: SweepSpec | list[JobSpec],
        progress: Callable[[str], None] | None = None,
        telemetry: Callable[[dict[str, Any]], None] | None = None,
    ) -> CampaignResult:
        """Execute every job of a sweep; returns the campaign result.

        Records come back in grid order regardless of which points hit
        the cache or which worker finished first.  ``telemetry``, if
        given, receives one sample dict per *freshly executed* job as
        its final outcome settles (keys: ``job_id``, ``status``,
        ``done``, ``total``, ``cached``, ``failed``, ``running`` — the
        jobs still in flight at that moment — ``elapsed_seconds``,
        ``eta_seconds``) — the live feed behind ``repro sweep
        --progress``.  ``progress`` keeps its historical meaning: one
        formatted line per record, in grid order, after execution
        finishes.

        Job failures of any class never raise: the campaign completes
        with partial results and a structured
        :meth:`CampaignResult.failure_report`.  A KeyboardInterrupt —
        or a SIGTERM, routed through the same path when running on the
        main thread — checkpoints the journal and returns the partial
        result with ``interrupted`` set instead of propagating.

        Raises :class:`SpecDriftError` when resuming against a journal
        whose recorded campaign_id no longer matches the spec.
        """
        with sigterm_as_interrupt():
            return self._run(sweep, progress, telemetry)

    def _run(
        self,
        sweep: SweepSpec | list[JobSpec],
        progress: Callable[[str], None] | None = None,
        telemetry: Callable[[dict[str, Any]], None] | None = None,
    ) -> CampaignResult:
        spec = sweep if isinstance(sweep, SweepSpec) else None
        if spec is not None:
            name = spec.name
            jobs = spec.expand()
        else:
            name = "jobs"
            jobs = list(sweep)
        ledger = _Ledger(
            name, jobs, self.cache, self.store, self.journal,
            self.max_retries, self.fault_plan,
        )
        units = ledger.open(spec)
        n_fresh = ledger.pending
        n_served = len(ledger.records)
        done = failed = 0

        def on_final(records: list[dict[str, Any]], running: int) -> None:
            nonlocal done, failed
            for record in records:
                done += 1
                if record.get("status") == "error":
                    failed += 1
                if telemetry is None:
                    continue
                elapsed = time.perf_counter() - ledger.started
                telemetry(
                    {
                        "job_id": record.get("job_id"),
                        "status": record.get("status"),
                        "done": done,
                        "total": n_fresh,
                        "cached": n_served,
                        "failed": failed,
                        "running": running,
                        "elapsed_seconds": elapsed,
                        "eta_seconds": elapsed / done * (n_fresh - done),
                    }
                )

        limit = min(self.workers, len(units))
        interrupted = False
        if units:
            supervised = (
                self.workers > 1
                or self.job_timeout is not None
                or self.fault_plan is not None
            )
            if supervised:
                interrupted = _Supervisor(self, ledger).run(limit, on_final)
            else:
                interrupted = self._execute_inline(ledger, on_final)
        out = ledger.finish(
            interrupted, self.workers, {"runner.workers.peak": limit}
        )
        if progress is not None:
            for record in out.records:
                progress(_progress_line(record))
        registry = active_registry()
        if registry is not None:
            registry.merge(out.metrics)
        return out

    def _execute_inline(
        self,
        ledger: _Ledger,
        on_final: Callable[[list[dict[str, Any]], int], None],
    ) -> bool:
        """Single-process path: no subprocesses, so no kill/hang
        defence; sleeps while every queued unit waits out a backoff.
        Returns True if interrupted.

        Suspends any active registry around in-process execution: the
        runner's single post-run aggregation is the one publication
        path, matching supervised workers (whose processes never
        publish into the parent's registry).
        """
        try:
            with metrics_suspended():
                while (delay := ledger.ready_in()) is not None:
                    unit = ledger.take()
                    if unit is None:
                        time.sleep(delay)
                        continue
                    records = execute_unit(unit.payloads)
                    on_final(ledger.settle(unit.indices, records), 0)
        except KeyboardInterrupt:
            return True
        return False


def _progress_line(record: dict[str, Any]) -> str:
    handler = job_kind(record.get("kind", "model"))
    label = handler.record_label(record)
    origin = (
        "journal"
        if record.get("resumed")
        else "cache" if record.get("cached") else "sim"
    )
    if record.get("status") != "ok":
        return f"  {label}: ERROR ({record.get('error')})"
    return f"  {label} [{origin}]: {handler.result_summary(record['result'])}"
