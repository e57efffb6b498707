"""Vectorised trace analytics: heat, attribution, burstiness.

Everything here is offline analysis over a recorded
:class:`~repro.workloads.traces.TrafficTrace`.  The kernels reuse the
byte-matrix machinery from :mod:`repro.bits` — per-hop bit transitions
are one XOR + LUT-popcount pass over the packed wire images, and the
cycle-window bucketing on top is a single ``np.add.at`` scatter.

Terminology: a *hop* is one flit traversal of one link (one entry in
``trace.links[name]``); hop ``i`` (``i >= 1``) is charged the BTs of
flipping the link's wires from image ``i-1`` to image ``i``, at the
cycle the arriving flit crossed (``trace.cycles[name][i]``).  A
*window* is a half-open cycle range ``[w*window, (w+1)*window)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.bits.lanes import payloads_to_bytes
from repro.bits.popcount import POPCOUNT_LUT
from repro.bits.wordarray import as_int64_array
from repro.workloads.traces import TrafficTrace

__all__ = [
    "DEFAULT_WINDOW",
    "LinkHeat",
    "TraceStats",
    "bt_by_owner",
    "burstiness",
    "hop_transitions",
    "link_heat",
    "link_utilisation",
    "trace_span",
    "trace_stats",
]

#: Default cycle-window width for heat bucketing and diff/bisect.
DEFAULT_WINDOW = 64


def hop_transitions(
    payloads: Sequence[int], link_width: int
) -> np.ndarray:
    """Per-hop BT vector for one link's wire-image stream.

    Entry ``i`` is the transition count between images ``i`` and
    ``i+1`` (length ``len(payloads) - 1``; empty for fewer than two
    hops).  Summing reproduces the trace's per-link BT exactly.
    """
    n = len(payloads)
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    arr = getattr(payloads, "array", None)
    if arr is None and link_width <= 64:
        try:
            arr = np.fromiter(payloads, dtype="<u8", count=n)
        except (OverflowError, ValueError):
            arr = None
    if arr is not None:
        arr = np.ascontiguousarray(arr.astype("<u8", copy=False))
        mat = arr.view(np.uint8).reshape(-1, 8)
        return POPCOUNT_LUT[mat[1:] ^ mat[:-1]].sum(
            axis=1, dtype=np.int64
        )
    # Wide or header-carrying images: pack at the exact byte width.
    word_bytes = max(
        1, (max(int(p).bit_length() for p in payloads) + 7) // 8
    )
    mat = payloads_to_bytes(payloads, word_bytes)
    return POPCOUNT_LUT[mat[1:] ^ mat[:-1]].sum(axis=1, dtype=np.int64)


def trace_span(trace: TrafficTrace) -> int:
    """Cycle span of a trace: one past the last recorded cycle.

    Considers both link traversal cycles and the packet injection
    schedule (an injected-but-undelivered packet still extends the
    span).  Empty traces span 0 cycles.
    """
    last = -1
    for cycles in trace.cycles.values():
        if len(cycles):
            arr = getattr(cycles, "array", None)
            if arr is not None:
                last = max(last, int(arr.max()))
            else:
                last = max(last, max(cycles))
    for event in trace.packets:
        if event.cycle > last:
            last = event.cycle
    return last + 1


def _require_cycles(trace: TrafficTrace) -> None:
    missing = [
        name
        for name, payloads in trace.links.items()
        if len(payloads) > 1
        and len(trace.cycles.get(name, ())) != len(payloads)
    ]
    if missing:
        raise ValueError(
            "trace carries no per-hop cycles for links "
            f"{sorted(missing)}; cycle-window analytics need a capture "
            "with timing (TrafficTrace.from_network)"
        )


@dataclass(frozen=True)
class LinkHeat:
    """Per-link BT heat bucketed by cycle window.

    Attributes:
        window: bucket width in cycles.
        n_windows: bucket count (covers ``[0, n_windows * window)``).
        heat: link name -> per-window BT counts (len ``n_windows``).
        flits: link name -> per-window flit traversal counts.
    """

    window: int
    n_windows: int
    heat: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    flits: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    def totals(self) -> Dict[str, int]:
        """Per-link BT totals (equals ``per_link_transitions``)."""
        return {name: int(sum(row)) for name, row in self.heat.items()}

    def window_totals(self) -> Tuple[int, ...]:
        """NoC-wide BT per window (summed across links)."""
        out = np.zeros(self.n_windows, dtype=np.int64)
        for row in self.heat.values():
            out += np.asarray(row, dtype=np.int64)
        return tuple(int(v) for v in out)

    def hottest(self, top: int = 5) -> list[Tuple[str, int, int]]:
        """The ``top`` hottest (link, window, bts) cells."""
        cells = [
            (name, w, bts)
            for name, row in self.heat.items()
            for w, bts in enumerate(row)
            if bts
        ]
        cells.sort(key=lambda c: (-c[2], c[0], c[1]))
        return cells[:top]


def link_heat(
    trace: TrafficTrace, window: int = DEFAULT_WINDOW
) -> LinkHeat:
    """Bucket every link's BTs (and flit counts) by cycle window.

    Hop ``i``'s transitions land in the window of its arrival cycle.
    Per-link heat rows sum to exactly
    :meth:`TrafficTrace.per_link_transitions`.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    _require_cycles(trace)
    span = trace_span(trace)
    n_windows = max(1, -(-span // window))
    heat: Dict[str, Tuple[int, ...]] = {}
    flits: Dict[str, Tuple[int, ...]] = {}
    for name, payloads in trace.links.items():
        cycles = as_int64_array(trace.cycles.get(name, ()))
        buckets = np.zeros(n_windows, dtype=np.int64)
        counts = np.zeros(n_windows, dtype=np.int64)
        if cycles.size:
            np.add.at(counts, cycles // window, 1)
        if len(payloads) > 1:
            bts = hop_transitions(payloads, trace.link_width)
            np.add.at(buckets, cycles[1:] // window, bts)
        heat[name] = tuple(int(v) for v in buckets)
        flits[name] = tuple(int(v) for v in counts)
    return LinkHeat(
        window=window, n_windows=n_windows, heat=heat, flits=flits
    )


def bt_by_owner(trace: TrafficTrace) -> Dict[int, int]:
    """BT attribution by owning packet id, across all links.

    Hop ``i``'s transitions are charged to the packet that drove the
    new wire image (``packet_ids[name][i]``); ``-1`` collects hops
    with an unknown owner.  Requires per-hop packet ids, which every
    capture (:meth:`~repro.workloads.traces.TrafficTrace.from_network`)
    carries.
    """
    missing = [
        name
        for name, payloads in trace.links.items()
        if len(payloads) > 1
        and len(trace.packet_ids.get(name, ())) != len(payloads)
    ]
    if missing:
        raise ValueError(
            "trace carries no per-hop packet ids for links "
            f"{sorted(missing)}; capture with TrafficTrace.from_network "
            "for owner attribution"
        )
    out: Dict[int, int] = {}
    for name, payloads in trace.links.items():
        if len(payloads) < 2:
            continue
        bts = hop_transitions(payloads, trace.link_width)
        owners = as_int64_array(trace.packet_ids[name])[1:]
        for pid in np.unique(owners):
            total = int(bts[owners == pid].sum())
            if total:
                key = int(pid)
                out[key] = out.get(key, 0) + total
    return out


def burstiness(
    trace: TrafficTrace, window: int = DEFAULT_WINDOW
) -> Dict[str, float]:
    """Per-link burstiness: coefficient of variation of flits/window.

    0 means perfectly uniform traffic; larger values mean burstier.
    Links with no traffic report 0.
    """
    hm = link_heat(trace, window)
    out: Dict[str, float] = {}
    for name, counts in hm.flits.items():
        arr = np.asarray(counts, dtype=np.float64)
        mean = arr.mean() if arr.size else 0.0
        out[name] = float(arr.std() / mean) if mean > 0 else 0.0
    return out


def link_utilisation(trace: TrafficTrace) -> Dict[str, float]:
    """Per-link utilisation: flit traversals / trace cycle span."""
    span = trace_span(trace)
    if span <= 0:
        return {name: 0.0 for name in trace.links}
    return {
        name: len(payloads) / span
        for name, payloads in trace.links.items()
    }


@dataclass(frozen=True)
class TraceStats:
    """One-screen summary of a trace (the ``repro trace stats`` view)."""

    link_width: int
    links: int
    active_links: int
    flit_hops: int
    total_bts: int
    span_cycles: int
    packets: int
    replayable: bool
    per_link: Dict[str, int] = field(default_factory=dict)
    mean_utilisation: float = 0.0
    peak_link: str = ""
    peak_link_bts: int = 0

    def lines(self) -> list[str]:
        """Render as aligned report lines."""
        out = [
            f"link width        : {self.link_width} bits",
            f"links             : {self.links} "
            f"({self.active_links} active)",
            f"flit hops         : {self.flit_hops}",
            f"total BTs         : {self.total_bts}",
            f"cycle span        : {self.span_cycles}",
            f"packets           : {self.packets}"
            + (" (replayable)" if self.replayable else ""),
            f"mean utilisation  : {self.mean_utilisation:.4f}",
        ]
        if self.peak_link:
            out.append(
                f"hottest link      : {self.peak_link} "
                f"({self.peak_link_bts} BTs)"
            )
        return out


def trace_stats(trace: TrafficTrace) -> TraceStats:
    """Compute the summary :class:`TraceStats` for a trace."""
    per_link = trace.per_link_transitions()
    util = link_utilisation(trace)
    peak_link, peak_bts = "", 0
    for name in sorted(per_link):
        if per_link[name] > peak_bts:
            peak_link, peak_bts = name, per_link[name]
    return TraceStats(
        link_width=trace.link_width,
        links=len(trace.links),
        active_links=sum(1 for p in trace.links.values() if p),
        flit_hops=trace.total_flit_traversals(),
        total_bts=sum(per_link.values()),
        span_cycles=trace_span(trace),
        packets=len(trace.packets),
        replayable=trace.is_replayable,
        per_link=per_link,
        mean_utilisation=(
            float(np.mean(list(util.values()))) if util else 0.0
        ),
        peak_link=peak_link,
        peak_link_bts=peak_bts,
    )
