"""Deterministic fault injection for the campaign engine.

The resilience features of :class:`~repro.experiments.runner.
CampaignRunner` — per-job timeouts, retry with backoff, worker-crash
recovery, quarantine, journaled resume — are each proven against the
failure they handle by injecting that failure into the *real*
execution path.  A :class:`FaultPlan` maps jobs (by grid index or
job_id) to :class:`FaultAction` lists; the runner serialises the
matching actions into the job payload, and ``execute_job`` applies
them inside the worker process, so an injected hang really occupies a
pool slot and an injected kill really takes a worker down mid-job.

Faults are seeded and attempt-aware: an action fires on exactly the
attempt it names, so "fail once, succeed on retry" scenarios replay
identically on every run.  :func:`FaultPlan.sampled` derives per-job
fault draws from a seed the same way workload seeds derive — stable
under grid growth and worker count.

File-level faults (corrupted cache entries, torn JSONL tails) act on
artifacts rather than processes; :func:`corrupt_cache_entry` and
:func:`tear_file_tail` are the chaos-test counterparts of the
verify-on-read and torn-tail-recovery machinery.

:func:`classify_error` is the runner's transient-vs-permanent triage:
transient failures (injected or environmental) are retried with
backoff, permanent ones (a real bug, a budget overrun) fail fast.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.experiments.hashing import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.cache import ResultCache
    from repro.experiments.spec import JobSpec

__all__ = [
    "FAULT_KINDS",
    "NETWORK_FAULT_KINDS",
    "TRANSIENT_ERROR_TYPES",
    "FaultAction",
    "FaultPlan",
    "TransientFaultError",
    "apply_fault_actions",
    "backoff_seconds",
    "classify_error",
    "corrupt_cache_entry",
    "tear_file_tail",
]

#: In-worker fault kinds ``apply_fault_actions`` knows how to fire.
FAULT_KINDS = ("transient", "hang", "kill")

#: Network fault kinds, fired by a :class:`~repro.service.worker.
#: SweepWorker` through the real service socket rather than inside the
#: job body: "drop_connection" closes the socket without submitting the
#: result (the lease, not the connection, re-queues the job),
#: "heartbeat_stall" silences the heartbeat thread for ``hang_seconds``
#: (expiring the lease while the job keeps computing — the late-result
#: reconciliation path), "torn_frame" writes a half-written result
#: frame then reconnects and submits properly, and "duplicate_result"
#: submits the same result twice.  ``apply_fault_actions`` skips them:
#: a network action that ends up in an in-process payload (inline
#: ``repro sweep`` with a served fault plan) is a no-op by design.
NETWORK_FAULT_KINDS = (
    "drop_connection",
    "heartbeat_stall",
    "torn_frame",
    "duplicate_result",
)

#: Exit code an injected kill dies with — distinctive in ``ps`` output
#: and in the supervisor's WorkerCrash error strings.
KILL_EXIT_CODE = 87


class TransientFaultError(RuntimeError):
    """An injected (or environmental) failure that a retry may clear."""


@dataclass(frozen=True)
class FaultAction:
    """One fault to fire inside a worker process.

    Attributes:
        kind: "transient" raises :class:`TransientFaultError`, "hang"
            sleeps ``hang_seconds`` before the job body runs (tripping
            any job timeout), "kill" hard-exits the worker process via
            ``os._exit`` — no cleanup, no captured traceback, exactly
            like an OOM kill or a segfault.  The
            :data:`NETWORK_FAULT_KINDS` fire through the service
            socket instead of inside the job (see there).
        attempt: 1-based attempt number the action fires on; other
            attempts of the same job run clean, which is how
            "fails once, succeeds on retry" scenarios are built.
        hang_seconds: sleep duration for "hang"; doubles as the stall
            duration for "heartbeat_stall".
    """

    kind: str
    attempt: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS + NETWORK_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; use one of "
                f"{FAULT_KINDS + NETWORK_FAULT_KINDS}"
            )
        if self.attempt < 1:
            raise ValueError("fault attempt numbers are 1-based")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be >= 0")

    @property
    def is_network(self) -> bool:
        """True for socket-path faults a worker fires, not the job."""
        return self.kind in NETWORK_FAULT_KINDS

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "attempt": self.attempt,
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultAction":
        unknown = set(data) - {"kind", "attempt", "hang_seconds"}
        if unknown:
            raise ValueError(
                f"unknown FaultAction keys: {sorted(unknown)}"
            )
        return cls(**data)


class FaultPlan:
    """Deterministic job -> fault-action assignment for one campaign.

    Actions are keyed by grid index (int, or all-digit string — the
    CI-friendly spelling, since indices are known before job_ids are)
    or by job_id prefix.  ``actions_for`` returns the actions whose
    ``attempt`` matches, so the runner consults the plan once per
    dispatch.
    """

    def __init__(
        self,
        actions: dict[str | int, Iterable[FaultAction]] | None = None,
        seed: int = 0,
    ) -> None:
        self.seed = seed
        self.by_index: dict[int, tuple[FaultAction, ...]] = {}
        self.by_job_id: dict[str, tuple[FaultAction, ...]] = {}
        for key, acts in (actions or {}).items():
            acts = tuple(acts)
            if isinstance(key, int) or (
                isinstance(key, str) and key.isdigit()
            ):
                self.by_index[int(key)] = acts
            else:
                self.by_job_id[str(key)] = acts

    def __len__(self) -> int:
        return len(self.by_index) + len(self.by_job_id)

    def actions_for(
        self, job_id: str, index: int, attempt: int
    ) -> list[FaultAction]:
        """The actions that fire for this (job, attempt) dispatch."""
        matched = list(self.by_index.get(index, ()))
        for prefix, acts in self.by_job_id.items():
            if job_id.startswith(prefix):
                matched.extend(acts)
        return [a for a in matched if a.attempt == attempt]

    def names(self, job_id: str, index: int) -> bool:
        """True when any action, on any attempt, targets this job."""
        return index in self.by_index or any(
            job_id.startswith(prefix) for prefix in self.by_job_id
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"seed": self.seed, "actions": {}}
        for index, acts in sorted(self.by_index.items()):
            out["actions"][str(index)] = [a.to_dict() for a in acts]
        for job_id, acts in sorted(self.by_job_id.items()):
            out["actions"][job_id] = [a.to_dict() for a in acts]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        unknown = set(data) - {"seed", "actions"}
        if unknown:
            raise ValueError(f"unknown FaultPlan keys: {sorted(unknown)}")
        actions = {
            key: [FaultAction.from_dict(a) for a in acts]
            for key, acts in (data.get("actions") or {}).items()
        }
        return cls(actions=actions, seed=data.get("seed", 0))

    @classmethod
    def sampled(
        cls,
        jobs: Iterable["JobSpec"],
        seed: int,
        kill_rate: float = 0.0,
        hang_rate: float = 0.0,
        transient_rate: float = 0.0,
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """Seeded random plan: each job draws each fault independently.

        Draws derive from ``(seed, job_id, kind)`` exactly like
        workload seeds derive from the campaign seed, so the same jobs
        fault the same way regardless of grid order or worker count.
        """
        actions: dict[str | int, list[FaultAction]] = {}
        for job in jobs:
            drawn: list[FaultAction] = []
            for kind, rate in (
                ("kill", kill_rate),
                ("hang", hang_rate),
                ("transient", transient_rate),
            ):
                draw = derive_seed(seed, job.job_id, kind) / 2**32
                if draw < rate:
                    drawn.append(
                        FaultAction(kind=kind, hang_seconds=hang_seconds)
                    )
            if drawn:
                actions[job.job_id] = drawn
        return cls(actions=actions, seed=seed)


def apply_fault_actions(actions: Iterable[dict[str, Any]]) -> None:
    """Fire serialized fault actions inside the current (worker) process.

    Called by ``execute_job`` between payload decode and kind dispatch.
    "hang" sleeps (then lets the job proceed — if no timeout reaps it,
    the result is still correct, just late); "transient" raises;
    "kill" never returns.  Network kinds are skipped: they belong to
    the service socket layer, and a job body has no socket to fault.
    """
    for data in actions:
        action = FaultAction.from_dict(dict(data))
        if action.is_network:
            continue
        if action.kind == "hang":
            time.sleep(action.hang_seconds)
        elif action.kind == "transient":
            raise TransientFaultError(
                f"injected transient fault (attempt {action.attempt})"
            )
        elif action.kind == "kill":
            # A hard kill: bypasses finally-blocks, atexit, and the
            # execute_job exception net, exactly like SIGKILL/OOM.
            os._exit(KILL_EXIT_CODE)


# -- error triage --------------------------------------------------------

#: Exception type names the runner treats as transient (retryable).
#: JobTimeout / WorkerCrash are the supervisor's own synthetic classes;
#: the OS-level ones cover flaky filesystems and broken pipes, and
#: ``ProtocolError`` is the service's torn frame
#: (:class:`repro.service.protocol.ProtocolError`).  Real simulation
#: bugs (ValueError, SimulationTimeout, the NoC's FlowControlError, ...)
#: stay permanent: deterministic jobs fail the same way on every retry.
TRANSIENT_ERROR_TYPES = frozenset(
    {
        "TransientFaultError",
        "JobTimeout",
        "WorkerCrash",
        "ConnectionError",
        "ConnectionResetError",
        "BrokenPipeError",
        "EOFError",
        "InterruptedError",
        "ProtocolError",
    }
)


def classify_error(
    error: str | None, transient_types: Iterable[str] = ()
) -> str:
    """"transient" or "permanent" for a captured "Type: msg" string.

    ``transient_types`` extends the built-in set — job kinds declare
    their own retryable failures via ``JobKind.transient_errors``
    (e.g. the replay kind treats trace-file OSErrors as transient).
    """
    type_name = (error or "").split(":", 1)[0].strip()
    if type_name in TRANSIENT_ERROR_TYPES or type_name in set(
        transient_types
    ):
        return "transient"
    return "permanent"


def backoff_seconds(
    seed: int,
    job_id: str,
    attempt: int,
    base: float = 0.05,
    cap: float = 2.0,
) -> float:
    """Seeded exponential backoff before retry number ``attempt``.

    ``base * 2**(attempt-1)``, capped, scaled by a deterministic jitter
    factor in [0.5, 1.5) derived from (seed, job_id, attempt) — the
    decorrelation real retry storms need, without wall-clock
    randomness that would make campaign runs unreproducible.
    """
    if attempt < 1:
        raise ValueError("attempt numbers are 1-based")
    delay = min(cap, base * 2 ** (attempt - 1))
    jitter = 0.5 + derive_seed(seed, job_id, "backoff", attempt) / 2**32
    return delay * jitter


# -- file-level chaos helpers -------------------------------------------


def corrupt_cache_entry(
    cache: "ResultCache", job: "JobSpec", mode: str = "flip"
) -> os.PathLike:
    """Corrupt a job's on-disk cache entry in place; returns its path.

    Modes: "flip" rewrites a byte inside the JSON body (parseable but
    digest-mismatched — only verify-on-read catches it), "truncate"
    tears the tail off, "garbage" replaces the content wholesale.
    """
    path = cache._path(cache.key_for(job))
    raw = bytearray(path.read_bytes())
    if mode == "flip":
        # Flip a digit inside the payload so the JSON still parses.
        for offset in range(len(raw) - 1, -1, -1):
            if chr(raw[offset]).isdigit():
                raw[offset] = ord("0") if raw[offset] != ord("0") else ord("9")
                break
        path.write_bytes(bytes(raw))
    elif mode == "truncate":
        path.write_bytes(bytes(raw[: max(1, len(raw) // 2)]))
    elif mode == "garbage":
        path.write_bytes(b"\x00not json\xff")
    else:
        raise ValueError(
            f"unknown corruption mode {mode!r}; "
            "use flip, truncate, or garbage"
        )
    return path


def tear_file_tail(
    path: str | os.PathLike, partial: bytes = b'{"event": "job", "rec'
) -> None:
    """Append an unterminated partial line — a torn mid-append crash."""
    with open(path, "ab") as fh:
        fh.write(partial)
