"""Trace diffing and log2 window bisection of BT divergences.

``trace_diff`` compares two traces' per-link / per-window BT heat and
reports exactly where they disagree.  ``bisect_divergence`` answers
the harder production question — *which cycle window first went wrong*
— with a binary search over prefix windows, probing either offline
(slice + rescore, cheap) or by windowed replay through a fresh network
(:func:`~repro.workloads.traces.replay_window`, the expensive oracle
that log2 probing exists for).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.obs.analytics import DEFAULT_WINDOW, link_heat, trace_span
from repro.workloads.traces import (
    TrafficTrace,
    replay_window,
    trace_slice,
)

__all__ = [
    "BisectResult",
    "LinkDelta",
    "TraceDiff",
    "bisect_divergence",
    "trace_diff",
]


@dataclass(frozen=True)
class LinkDelta:
    """One diverging link in a trace diff.

    Attributes:
        link: link name.
        bts_a / bts_b: total BTs on the link in each trace.
        delta: ``bts_b - bts_a``.
        first_window: index of the first cycle window whose BT counts
            differ.
        windows: every diverging window as ``(index, delta)`` pairs,
            ascending by index.
    """

    link: str
    bts_a: int
    bts_b: int
    delta: int
    first_window: int
    windows: Tuple[Tuple[int, int], ...] = ()


@dataclass(frozen=True)
class TraceDiff:
    """Result of :func:`trace_diff`.

    Empty (``is_empty``) iff the traces carry identical per-link,
    per-window BT heat.  Swapping the operands negates every delta
    and swaps ``only_a``/``only_b`` — nothing else changes.
    """

    window: int
    n_windows: int
    only_a: Tuple[str, ...] = ()
    only_b: Tuple[str, ...] = ()
    deltas: Tuple[LinkDelta, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (self.only_a or self.only_b or self.deltas)

    def first_divergence(self) -> Optional[Tuple[str, int]]:
        """Earliest diverging ``(link, window)``; None when empty.

        Ties on window break alphabetically by link name.
        """
        best: Optional[Tuple[str, int]] = None
        for d in self.deltas:
            if (
                best is None
                or d.first_window < best[1]
                or (d.first_window == best[1] and d.link < best[0])
            ):
                best = (d.link, d.first_window)
        return best

    def lines(self, top: int = 10) -> list[str]:
        """Render as report lines (``top`` bounds per-link rows)."""
        if self.is_empty:
            return ["traces are identical (per-link, per-window BT heat)"]
        out = [
            f"{len(self.deltas)} diverging link(s) at window={self.window}"
        ]
        for name in self.only_a:
            out.append(f"  only in A: {name}")
        for name in self.only_b:
            out.append(f"  only in B: {name}")
        shown = self.deltas[:top]
        for d in shown:
            out.append(
                f"  {d.link}: {d.bts_a} -> {d.bts_b} BTs "
                f"(delta {d.delta:+d}, first diverging window "
                f"{d.first_window} = cycles "
                f"[{d.first_window * self.window}, "
                f"{(d.first_window + 1) * self.window}), "
                f"{len(d.windows)} window(s) differ)"
            )
        if len(self.deltas) > len(shown):
            out.append(
                f"  ... and {len(self.deltas) - len(shown)} more link(s)"
            )
        first = self.first_divergence()
        if first is not None:
            link, w = first
            out.append(
                f"first divergence: link {link}, window {w} "
                f"(cycles [{w * self.window}, {(w + 1) * self.window}))"
            )
        return out


def trace_diff(
    a: TrafficTrace, b: TrafficTrace, window: int = DEFAULT_WINDOW
) -> TraceDiff:
    """Diff two traces' per-link BT heat at cycle-window granularity.

    A link diverges when its per-window BT vector differs between the
    traces (links absent from one side but carrying traffic in the
    other are reported separately under ``only_a``/``only_b``).
    ``trace_diff(t, t)`` is empty for any trace; the diff is symmetric
    up to sign.
    """
    if a.link_width != b.link_width:
        raise ValueError(
            f"traces have different link widths "
            f"({a.link_width} vs {b.link_width}); refusing to diff"
        )
    heat_a = link_heat(a, window)
    heat_b = link_heat(b, window)
    n_windows = max(heat_a.n_windows, heat_b.n_windows)

    def padded(row: Tuple[int, ...]) -> Tuple[int, ...]:
        return row + (0,) * (n_windows - len(row))

    names_a, names_b = set(heat_a.heat), set(heat_b.heat)
    # A link missing from one trace only matters if the other saw
    # traffic on it (an idle link and an absent link are the same
    # physical statement).
    only_a = tuple(
        sorted(
            n for n in names_a - names_b if any(heat_a.heat[n])
            or any(heat_a.flits[n])
        )
    )
    only_b = tuple(
        sorted(
            n for n in names_b - names_a if any(heat_b.heat[n])
            or any(heat_b.flits[n])
        )
    )
    deltas = []
    for name in sorted(names_a & names_b):
        row_a = padded(heat_a.heat[name])
        row_b = padded(heat_b.heat[name])
        diverging = tuple(
            (w, vb - va)
            for w, (va, vb) in enumerate(zip(row_a, row_b))
            if va != vb
        )
        if not diverging:
            continue
        deltas.append(
            LinkDelta(
                link=name,
                bts_a=sum(row_a),
                bts_b=sum(row_b),
                delta=sum(row_b) - sum(row_a),
                first_window=diverging[0][0],
                windows=diverging,
            )
        )
    return TraceDiff(
        window=window,
        n_windows=n_windows,
        only_a=only_a,
        only_b=only_b,
        deltas=tuple(deltas),
    )


@dataclass(frozen=True)
class BisectResult:
    """Result of :func:`bisect_divergence`.

    Attributes:
        diverged: False when the traces never diverge.
        window: bucket width in cycles.
        first_window: index of the first offending window.
        cycle_start / cycle_stop: the offending half-open cycle range.
        links: links whose BT delta first moves inside that window.
        probes: predicate evaluations spent (2 trace scorings each).
        probe: "offline" or "replay".
    """

    diverged: bool
    window: int
    probe: str
    probes: int
    first_window: int = -1
    cycle_start: int = -1
    cycle_stop: int = -1
    links: Tuple[str, ...] = ()

    def lines(self) -> list[str]:
        if not self.diverged:
            return [
                f"no divergence ({self.probes} {self.probe} probe(s))"
            ]
        links = ", ".join(self.links) if self.links else "?"
        return [
            f"first diverging window: {self.first_window} "
            f"(cycles [{self.cycle_start}, {self.cycle_stop}))",
            f"diverging link(s) in window: {links}",
            f"localised in {self.probes} {self.probe} probe(s) "
            f"at window={self.window}",
        ]


def _offline_prefix(trace: TrafficTrace, stop: int) -> Dict[str, int]:
    """Per-link BT totals of the prefix slice ``[0, stop)``."""
    return {
        name: bts
        for name, bts in trace_slice(
            trace, 0, stop
        ).per_link_transitions().items()
        if bts
    }


def _replay_prefix(
    trace: TrafficTrace, stop: int, core: Optional[str], max_cycles: int
) -> Dict[str, int]:
    """Per-link BT totals of replaying injections in ``[0, stop)``.

    Edge-safe: the replay drains fully past ``stop``, so scoring the
    drained network's whole hop log would charge hops the offline
    prefix slice excludes (and miss in-flight traffic an earlier
    injection carried into the window — :func:`trace_slice` filters
    hops and injections independently).  Instead the replayed traffic
    is re-captured with :meth:`TrafficTrace.from_network` and scored
    through the *same* hop-cycle slice as the offline probe, so both
    probe modes agree at window boundaries.
    """
    network = replay_window(
        trace, 0, stop, core=core, max_cycles=max_cycles
    )
    replayed = TrafficTrace.from_network(network)
    return {
        name: bts
        for name, bts in trace_slice(
            replayed, 0, stop
        ).per_link_transitions().items()
        if bts
    }


def bisect_divergence(
    a: TrafficTrace,
    b: TrafficTrace,
    window: int = DEFAULT_WINDOW,
    probe: str = "offline",
    core: Optional[str] = None,
    max_cycles: int = 500_000,
) -> BisectResult:
    """Binary-search the first cycle window where two traces diverge.

    The predicate "do the per-link BT totals of the prefix ``[0, k *
    window)`` differ?" is evaluated O(log2 n_windows) times instead of
    once per window.  Two probe modes:

    - ``"offline"``: slice both traces and rescore (cheap, exact; works
      on any timed capture, including non-replayable ``reordered``
      re-encodes).
    - ``"replay"``: re-inject each trace's windowed packet schedule
      through a fresh network and compare the re-captured traffic (the
      expensive oracle; needs replayable captures on both sides).

    Prefix BT deltas can cancel (a +5 window followed by a -5 window
    leaves the prefix equal), so after the search the result is
    cross-checked against the exact per-window diff when the probes
    are offline; replay probes report the bisection answer as found.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if probe not in ("offline", "replay"):
        raise ValueError(
            f"unknown probe mode {probe!r}; use 'offline' or 'replay'"
        )
    span = max(trace_span(a), trace_span(b))
    n_windows = max(1, -(-span // window))
    probes = 0
    cache: Dict[int, Tuple[Dict[str, int], Dict[str, int]]] = {}

    def prefixes(k: int) -> Tuple[Dict[str, int], Dict[str, int]]:
        nonlocal probes
        hit = cache.get(k)
        if hit is not None:
            return hit
        probes += 1
        stop = k * window
        if probe == "offline":
            pair = (_offline_prefix(a, stop), _offline_prefix(b, stop))
        else:
            pair = (
                _replay_prefix(a, stop, core, max_cycles),
                _replay_prefix(b, stop, core, max_cycles),
            )
        cache[k] = pair
        return pair

    def pred(k: int) -> bool:
        pa, pb = prefixes(k)
        return pa != pb

    if not pred(n_windows):
        # Prefix totals agree at full span.  Window-level deltas could
        # still exist but cancel; the exact diff settles it.
        diff = trace_diff(a, b, window)
        if diff.is_empty:
            return BisectResult(
                diverged=False, window=window, probe=probe, probes=probes
            )
        first = diff.first_divergence()
        assert first is not None
        _, w = first
        return BisectResult(
            diverged=True,
            window=window,
            probe=probe,
            probes=probes,
            first_window=w,
            cycle_start=w * window,
            cycle_stop=(w + 1) * window,
            links=tuple(
                sorted(
                    d.link for d in diff.deltas if d.first_window == w
                )
            ),
        )

    lo, hi = 1, n_windows
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    first_window = lo - 1  # windows are 0-indexed; prefix k covers k windows

    if probe == "offline":
        # Offline probing is cheap enough to verify against the exact
        # per-window diff, which is immune to prefix-sum cancellation.
        diff = trace_diff(a, b, window)
        first = diff.first_divergence()
        if first is not None and first[1] != first_window:
            w = first[1]
            return BisectResult(
                diverged=True,
                window=window,
                probe=probe,
                probes=probes,
                first_window=w,
                cycle_start=w * window,
                cycle_stop=(w + 1) * window,
                links=tuple(
                    sorted(
                        d.link
                        for d in diff.deltas
                        if d.first_window == w
                    )
                ),
            )

    pa_after, pb_after = prefixes(first_window + 1)
    pa_before, pb_before = (
        prefixes(first_window) if first_window > 0 else ({}, {})
    )
    links = tuple(
        sorted(
            name
            for name in set(pa_after) | set(pb_after)
            | set(pa_before) | set(pb_before)
            if (pa_after.get(name, 0) - pb_after.get(name, 0))
            != (pa_before.get(name, 0) - pb_before.get(name, 0))
        )
    )
    return BisectResult(
        diverged=True,
        window=window,
        probe=probe,
        probes=probes,
        first_window=first_window,
        cycle_start=first_window * window,
        cycle_stop=(first_window + 1) * window,
        links=links,
    )
