"""repro.service — the distributed sweep job service.

Turns the campaign engine into a long-running, shareable system: one
:class:`SweepServer` process owns a :class:`~repro.experiments.spec.
SweepSpec`-derived job queue plus the crash-safe campaign journal, and
any number of :class:`SweepWorker` processes — same host or remote —
claim execution units over a small length-prefixed socket protocol
(:mod:`repro.service.protocol`), run each through
:func:`~repro.experiments.runner.execute_unit` — one simulation for
jobs that share a timing signature — and stream the records back.

Robustness model
----------------

* **Time-bounded leases** (:mod:`repro.service.leases`) — one lease
  covers a claimed unit and must be heartbeated before its deadline;
  a worker that dies, hangs, or drops off the network loses the lease
  and each unsettled job of the unit returns to the queue alone for
  another worker ("work stealing").
* **At-least-once, effectively-once** — re-executed jobs are
  deterministic, the content-addressed
  :class:`~repro.experiments.cache.ResultCache` dedups across
  processes (with a cross-process atomic claim under a shared cache
  root), and the server reconciles late results from presumed-dead
  workers idempotently, job by job: the first completion wins,
  duplicates are acknowledged and discarded.
* **Crash-safe progress** — every completed job is journaled the
  moment it lands, so a killed server resumes with ``repro serve
  --resume <campaign-id>`` exactly like ``repro sweep --resume``;
  SIGINT/SIGTERM drain gracefully and checkpoint the journal.
* **Dead-server detection** — workers that lose the server retry with
  backoff, then exit cleanly with a resume hint instead of spinning.
* **Chaos-tested** — the :class:`~repro.experiments.faults.FaultPlan`
  machinery grows network faults (connection drop, heartbeat stall,
  half-written frame, delayed duplicate result) that fire through the
  real socket path; the determinism gate pins a chaos-ridden served
  campaign's rows byte-identical to a fault-free inline run.

CLI: ``repro serve`` starts a server, ``repro work`` attaches a
worker, ``repro sweep --server HOST:PORT`` runs a sweep as a
worker-plus-reporter against a running server.
"""

from repro.service.leases import Lease, LeaseTable
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    FrameChannel,
    ProtocolError,
    connect,
    encode_frame,
    recv_frame,
    send_frame,
    torn_frame_bytes,
)
from repro.service.server import SweepServer
from repro.service.worker import ServerLostError, SweepWorker, run_worker

__all__ = [
    "FrameChannel",
    "Lease",
    "LeaseTable",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ServerLostError",
    "SweepServer",
    "SweepWorker",
    "connect",
    "encode_frame",
    "recv_frame",
    "run_worker",
    "send_frame",
    "torn_frame_bytes",
]
