"""Observability layer: metrics registry, trace analytics, trace diff.

The subsystem has three parts:

- :mod:`repro.obs.metrics` — a lightweight metrics registry (counters
  and maxima/"gauges") that the simulator, NoC cores, codec, and
  campaign runner publish into when enabled.  Hot loops keep
  plain integer attribute counters that cost nothing extra; the registry
  is the opt-in aggregation and serialisation layer on top.
- :mod:`repro.obs.analytics` — vectorised analytics over
  :class:`~repro.workloads.traces.TrafficTrace`: per-link BT heat
  bucketed by cycle window, BT attribution by packet owner, burstiness
  and link-utilisation summaries.
- :mod:`repro.obs.diff` — ``trace_diff`` plus log2 window bisection of
  a divergence down to its first offending cycle window and link.
"""

from repro.obs.metrics import (
    MetricsRegistry,
    active_registry,
    disable_metrics,
    enable_metrics,
    merge_metrics,
    metric_family,
    metrics_enabled,
    metrics_session,
    metrics_suspended,
)
from repro.obs.analytics import (
    DEFAULT_WINDOW,
    LinkHeat,
    TraceStats,
    bt_by_owner,
    burstiness,
    hop_transitions,
    link_heat,
    link_utilisation,
    trace_span,
    trace_stats,
)
from repro.obs.diff import (
    BisectResult,
    LinkDelta,
    TraceDiff,
    bisect_divergence,
    trace_diff,
)

__all__ = [
    "BisectResult",
    "DEFAULT_WINDOW",
    "LinkDelta",
    "LinkHeat",
    "MetricsRegistry",
    "TraceDiff",
    "TraceStats",
    "active_registry",
    "bisect_divergence",
    "bt_by_owner",
    "burstiness",
    "disable_metrics",
    "enable_metrics",
    "hop_transitions",
    "link_heat",
    "link_utilisation",
    "merge_metrics",
    "metric_family",
    "metrics_enabled",
    "metrics_session",
    "metrics_suspended",
    "trace_diff",
    "trace_span",
    "trace_stats",
]
