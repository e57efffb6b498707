"""Lightweight metrics registry with near-zero cost when disabled.

Design contract
---------------

The hot paths (event-core stepping, router arbitration, codec batching)
never consult this module: they bump plain integer attributes on the
objects they already own.  Those counts are part of the deterministic
simulation output, so ``RunResult.metrics`` is byte-identical whether or
not a registry is active and regardless of how many sweep workers ran
the job.  The registry is the *aggregation* layer: code that has
finished a unit of work publishes its counter snapshot into the active
registry (one dict merge per run, not per cycle).  Wall-clock timings
stay out of the registry; the ``perfbench/`` tracer measures them from
outside.

Metric names are flat dotted strings; the *family* is the prefix before
the first dot (``event.heap_pushes`` belongs to family ``event``).
When merging snapshots, names ending in ``.peak`` combine by ``max``;
everything else sums.

Resilience families published by the campaign runner per run:
``runner.retries`` / ``runner.timeouts`` / ``runner.worker_crashes`` /
``runner.quarantined`` / ``runner.resumed`` count the fault-tolerance
machinery's interventions, ``runner.units`` counts the execution
units the local engines dispatched (jobs sharing a timing signature
run as one unit; a retry is a unit of one), and
``cache.corrupt_entries`` counts cache
entries that failed their verify-on-read digest and were quarantined
for re-simulation.  All are plain sums (zero on a healthy run), so a
chaos sweep's metrics dump shows exactly how much turbulence the
campaign absorbed.

The sweep job server (:class:`repro.service.SweepServer`) publishes
the ``service`` family once per served campaign:
``service.leases.granted`` / ``service.leases.renewed`` /
``service.leases.expired`` count the lease lifecycle,
``service.jobs.stolen`` counts jobs of expired leases re-granted to
a different worker (the dead-worker-recovery path),
``service.heartbeats.missed`` counts expiries whose holder had gone
silent for two beat intervals, and ``service.heartbeats`` /
``service.reconnects`` / ``service.results.duplicate`` /
``service.protocol.errors`` / ``service.workers.peak`` (a ``.peak``,
merged by max) describe wire traffic.  A clean single-worker campaign
shows only grants and heartbeats; everything else is turbulence.

Serving fleets (:func:`repro.serving.run_serving`) publish the
``serving`` family per run: ``serving.tenants`` and the request
funnel ``serving.requests_arrived`` / ``serving.requests_admitted`` /
``serving.requests_rejected`` / ``serving.requests_completed``, plus
``serving.packets_injected`` and ``serving.batch_delay_cycles`` (total
cycles requests sat in batching windows).  Like the simulator counters
these ride inside the deterministic result payload, so a campaign's
``--metrics`` aggregate sums them across every fleet in the sweep.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

__all__ = [
    "MetricsRegistry",
    "active_registry",
    "disable_metrics",
    "enable_metrics",
    "merge_metrics",
    "metric_family",
    "metrics_enabled",
    "metrics_session",
    "metrics_suspended",
]


def metric_family(name: str) -> str:
    """Family of a metric name: the prefix before the first dot."""
    dot = name.find(".")
    return name if dot < 0 else name[:dot]


def merge_metrics(
    into: Dict[str, Any], update: Dict[str, Any]
) -> Dict[str, Any]:
    """Merge ``update`` into ``into`` in place and return ``into``.

    Names ending in ``.peak`` merge by max; all other numeric values
    sum.  Non-numeric values (rare; e.g. tag strings) overwrite.
    """
    for name, value in update.items():
        if not isinstance(value, (int, float)):
            into[name] = value
        elif name.endswith(".peak"):
            prev = into.get(name, 0)
            into[name] = value if value > prev else prev
        else:
            into[name] = into.get(name, 0) + value
    return into


class MetricsRegistry:
    """Counters and maxima behind one namespace.

    Both primitives live in a single flat name space so a registry
    snapshot is one JSON-friendly dict.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._maxima: Dict[str, float] = {}

    # -- primitives ------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def record_max(self, name: str, value: float) -> None:
        """Track the running maximum of a gauge-like quantity.

        Conventionally ``name`` ends in ``.peak`` so cross-run merges
        keep taking the max instead of summing.
        """
        prev = self._maxima.get(name)
        if prev is None or value > prev:
            self._maxima[name] = value

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a flat counter snapshot (e.g. ``RunResult.metrics``) in.

        ``.peak`` names go through :meth:`record_max`; the rest through
        :meth:`count`.
        """
        for name, value in snapshot.items():
            if not isinstance(value, (int, float)):
                continue
            if name.endswith(".peak"):
                self.record_max(name, value)
            else:
                self.count(name, value)

    # -- read side -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Flat dict of every metric, JSON-serialisable."""
        out: Dict[str, Any] = dict(self._counters)
        out.update(self._maxima)
        return out

    def families(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot grouped by metric family."""
        grouped: Dict[str, Dict[str, Any]] = {}
        for name, value in self.snapshot().items():
            grouped.setdefault(metric_family(name), {})[name] = value
        return grouped

    def __len__(self) -> int:
        return len(self._counters) + len(self._maxima)


# One process-wide active registry.  ``None`` means disabled, which is
# the default: publishers check ``active_registry()`` once per completed
# unit of work, so the disabled cost is a single attribute load.
_ACTIVE: Optional[MetricsRegistry] = None


def active_registry() -> Optional[MetricsRegistry]:
    """The currently enabled registry, or ``None`` when disabled."""
    return _ACTIVE


def metrics_enabled() -> bool:
    return _ACTIVE is not None


def enable_metrics(
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Install (and return) the active registry."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    return _ACTIVE


def disable_metrics() -> None:
    """Remove the active registry; publishers go back to no-ops."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def metrics_session(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Context manager enabling a registry for the block's duration."""
    global _ACTIVE
    previous = _ACTIVE
    reg = enable_metrics(registry)
    try:
        yield reg
    finally:
        _ACTIVE = previous


@contextmanager
def metrics_suspended() -> Iterator[None]:
    """Temporarily disable the active registry (if any).

    The campaign runner wraps in-process job execution with this so
    each publisher's direct merge is suppressed and the runner's own
    single post-run aggregation (which also covers pool workers and
    cache hits) is the only publication path — no double counting.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    try:
        yield
    finally:
        _ACTIVE = previous
