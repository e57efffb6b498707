"""Trace diffing, slicing, windowed replay, and bisection.

Property section (hypothesis): self-diff emptiness survives a save /
load round trip, the diff is symmetric up to sign, and a full-range
``replay_window`` reproduces the whole-trace replay exactly.  Pinned
section: the golden fixture against its ``reordered`` re-encode, plus
synthetic late divergences that exercise real log2 localisation with
both probe modes.
"""

from __future__ import annotations

import dataclasses
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.network import NoCConfig
from repro.noc.recorder import score_hops
from repro.obs.diff import bisect_divergence, trace_diff
from repro.workloads.traces import (
    PacketEvent,
    TrafficTrace,
    replay_through_network,
    replay_window,
    trace_slice,
)

GOLDEN_TRACE = (
    pathlib.Path(__file__).parent
    / "data"
    / "golden_lenet_fixed8_O0.trace.gz"
)
GOLDEN_TRACE_TOTAL_BT = 37510
GOLDEN_TRACE_REORDERED_BT = 37580


@pytest.fixture(scope="module")
def golden() -> TrafficTrace:
    return TrafficTrace.load(GOLDEN_TRACE)


# -- strategies -------------------------------------------------------


@st.composite
def timed_traces(draw, replayable: bool = False):
    """Traces whose links all carry per-hop cycles (sorted ascending)."""
    width = draw(st.integers(min_value=1, max_value=96))
    payload = st.integers(min_value=0, max_value=2**width - 1)
    links: dict[str, tuple[int, ...]] = {}
    cycles: dict[str, tuple[int, ...]] = {}
    vcs: dict[str, tuple[int, ...]] = {}
    pids: dict[str, tuple[int, ...]] = {}
    for i in range(draw(st.integers(min_value=0, max_value=3))):
        n = draw(st.integers(min_value=0, max_value=8))
        name = f"R{i}.EAST"
        links[name] = tuple(
            draw(st.lists(payload, min_size=n, max_size=n))
        )
        ticks = sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=300),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        cycles[name] = tuple(ticks)
        if replayable:
            vcs[name] = tuple([0] * n)
            pids[name] = tuple(range(n))
    packets: tuple[PacketEvent, ...] = ()
    noc = None
    if replayable:
        n_pkts = draw(st.integers(min_value=1, max_value=4))
        packets = tuple(
            PacketEvent(
                cycle=draw(st.integers(min_value=0, max_value=40)),
                src=draw(st.integers(min_value=0, max_value=8)),
                dst=draw(st.integers(min_value=0, max_value=8)),
                payloads=tuple(
                    draw(st.lists(payload, min_size=1, max_size=3))
                ),
            )
            for _ in range(n_pkts)
        )
        noc = NoCConfig(width=3, height=3, link_width=width).to_dict()
    return TrafficTrace(
        link_width=width, links=links, cycles=cycles, vcs=vcs,
        packet_ids=pids, packets=packets, noc=noc,
    )


# -- properties -------------------------------------------------------


class TestDiffProperties:
    @settings(deadline=None, max_examples=40)
    @given(trace=timed_traces(), window=st.sampled_from([1, 16, 64]))
    def test_self_diff_empty_after_round_trip(
        self, tmp_path_factory, trace, window
    ):
        """trace_diff(t, load(save(t))) is empty for any trace."""
        path = tmp_path_factory.mktemp("rt") / "t.trace.gz"
        trace.save(path)
        diff = trace_diff(trace, TrafficTrace.load(path), window)
        assert diff.is_empty
        assert diff.lines() == [
            "traces are identical (per-link, per-window BT heat)"
        ]

    @settings(deadline=None, max_examples=40)
    @given(
        a=timed_traces(),
        b=timed_traces(),
        window=st.sampled_from([1, 64]),
    )
    def test_diff_symmetric_up_to_sign(self, a, b, window):
        b = dataclasses.replace(b, link_width=a.link_width)
        fwd = trace_diff(a, b, window)
        rev = trace_diff(b, a, window)
        assert fwd.is_empty == rev.is_empty
        assert fwd.only_a == rev.only_b
        assert fwd.only_b == rev.only_a
        assert {d.link for d in fwd.deltas} == {
            d.link for d in rev.deltas
        }
        by_link = {d.link: d for d in rev.deltas}
        for d in fwd.deltas:
            mirror = by_link[d.link]
            assert mirror.delta == -d.delta
            assert mirror.first_window == d.first_window
            assert mirror.windows == tuple(
                (w, -v) for w, v in d.windows
            )

    @settings(deadline=None, max_examples=15)
    @given(trace=timed_traces(replayable=True))
    def test_full_range_replay_window_equals_whole_replay(self, trace):
        span = max(e.cycle for e in trace.packets) + 1
        whole = replay_through_network(trace)
        windowed = replay_window(trace, 0, span)
        assert (
            score_hops(windowed.hops).per_link
            == score_hops(whole.hops).per_link
        )
        assert (
            windowed.stats.total_bit_transitions
            == whole.stats.total_bit_transitions
        )


# -- trace_slice / replay_window units --------------------------------


class TestTraceSlice:
    def trace(self) -> TrafficTrace:
        return TrafficTrace(
            link_width=8,
            links={"L": (1, 2, 3, 4)},
            cycles={"L": (0, 10, 20, 30)},
            packet_ids={"L": (0, 1, 2, 3)},
            packets=(
                PacketEvent(cycle=5, src=0, dst=1, payloads=(9,)),
                PacketEvent(cycle=25, src=1, dst=0, payloads=(8,)),
            ),
        )

    def test_half_open_cycle_filter(self):
        sliced = trace_slice(self.trace(), 10, 30)
        assert sliced.links["L"] == (2, 3)
        assert sliced.cycles["L"] == (10, 20)
        assert sliced.packet_ids["L"] == (1, 2)
        assert tuple(e.cycle for e in sliced.packets) == (25,)

    def test_full_range_is_identity(self):
        trace = self.trace()
        assert trace_slice(trace, 0, 31) == trace

    def test_empty_window(self):
        sliced = trace_slice(self.trace(), 40, 50)
        assert sliced.links["L"] == ()
        assert sliced.packets == ()

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="need 0 <= start <= stop"):
            trace_slice(self.trace(), 5, 2)

    def test_golden_prefix_slices_are_prefix_sums(self, golden):
        # Per-link cycles are non-decreasing, so a prefix slice's BT
        # total is an exact prefix sum of the whole trace's.
        full = golden.per_link_transitions()
        prev = {}
        for stop in (0, 64, 128, 294):
            part = trace_slice(golden, 0, stop).per_link_transitions()
            for name, bts in part.items():
                assert bts >= prev.get(name, 0)
                assert bts <= full[name]
            prev = part
        assert prev == full


class TestReplayWindow:
    def test_empty_window_returns_empty_hop_log(self, golden):
        net = replay_window(golden, 0, 0)
        assert score_hops(net.hops).per_link == {}
        assert net.stats.total_bit_transitions == 0

    def test_full_range_matches_pinned_total(self, golden):
        net = replay_window(golden, 0, 294)
        assert (
            net.stats.total_bit_transitions == GOLDEN_TRACE_TOTAL_BT
        )

    def test_rejects_packetless_traces(self):
        bare = TrafficTrace(
            link_width=8, links={"L": (1,)}, cycles={"L": (0,)}
        )
        with pytest.raises(ValueError, match="no packet injection"):
            replay_window(bare, 0, 10)


# -- pinned golden bisection ------------------------------------------


class TestGoldenBisect:
    """Acceptance: golden fixture vs its reordered re-encode."""

    def test_diff_pins_total_delta(self, golden):
        diff = trace_diff(golden, golden.reordered("popcount_desc"))
        assert not diff.is_empty
        assert sum(d.delta for d in diff.deltas) == (
            GOLDEN_TRACE_REORDERED_BT - GOLDEN_TRACE_TOTAL_BT
        )

    def test_bisect_localises_first_window_and_links(self, golden):
        result = bisect_divergence(
            golden, golden.reordered("popcount_desc")
        )
        assert result.diverged
        # Reordering reshuffles wire images from the first flits on, so
        # the earliest diverging window is window 0 — on every link the
        # re-encode touched in that window.
        assert result.first_window == 0
        assert result.cycle_start == 0 and result.cycle_stop == 64
        assert result.links == (
            "R0.LOCAL", "R1.LOCAL", "R2.LOCAL", "R3.LOCAL", "R3.NORTH",
            "R4.NORTH", "R5.NORTH", "R6.EAST", "R6.NORTH", "R7.EAST",
            "R7.NORTH", "R8.NORTH",
        )
        assert result.probe == "offline"

    def test_self_bisect_does_not_diverge(self, golden):
        result = bisect_divergence(golden, golden)
        assert not result.diverged
        assert result.probes == 1  # one full-span probe settles it
        assert result.lines() == ["no divergence (1 offline probe(s))"]


class TestSyntheticBisect:
    def test_offline_probe_localises_a_late_flip(self, golden):
        """Flip one wire bit on one hop in window 3; bisection must
        come back with exactly that window and link."""
        links = dict(golden.links)
        cycles = golden.cycles["R6.EAST"]
        index = next(i for i, c in enumerate(cycles) if 192 <= c < 256)
        row = list(links["R6.EAST"])
        row[index] ^= 1
        links["R6.EAST"] = tuple(row)
        mutated = dataclasses.replace(golden, links=links)

        result = bisect_divergence(golden, mutated)
        assert result.diverged
        assert result.first_window == 3
        assert (result.cycle_start, result.cycle_stop) == (192, 256)
        assert result.links == ("R6.EAST",)
        # log2 localisation: 5 windows -> at most 1 + ceil(log2 5)
        # probes, far fewer than one per window.
        assert result.probes <= 4

    def test_replay_probe_localises_a_mutated_packet(self, golden):
        """Perturb the last injected packet's payloads; the replay
        probe (re-inject + re-capture) localises where its traffic
        lands."""
        packets = list(golden.packets)
        last = max(
            range(len(packets)), key=lambda i: packets[i].cycle
        )
        event = packets[last]
        packets[last] = dataclasses.replace(
            event,
            payloads=tuple(p ^ 0b11 for p in event.payloads),
        )
        mutated = dataclasses.replace(golden, packets=tuple(packets))

        result = bisect_divergence(golden, mutated, probe="replay")
        assert result.diverged
        assert result.probe == "replay"
        assert result.first_window == 4
        assert (result.cycle_start, result.cycle_stop) == (256, 320)
        assert result.links == (
            "R0.SOUTH", "R1.WEST", "R3.SOUTH", "R6.LOCAL"
        )

    def test_replay_probe_self_is_clean(self, golden):
        result = bisect_divergence(golden, golden, probe="replay")
        assert not result.diverged
        assert result.probes == 1

    def test_rejects_bad_arguments(self, golden):
        with pytest.raises(ValueError, match="window must be >= 1"):
            bisect_divergence(golden, golden, window=0)
        with pytest.raises(ValueError, match="unknown probe mode"):
            bisect_divergence(golden, golden, probe="psychic")
        narrow = dataclasses.replace(golden, link_width=8)
        with pytest.raises(ValueError, match="different link widths"):
            trace_diff(golden, narrow)


# -- window-edge semantics (pinned) -----------------------------------


class TestReplayProbeEdgeSafety:
    """Regression tests for the pinned window-edge semantics.

    ``trace_slice`` filters hops and injections *independently* by
    their own cycles, so a prefix window cuts in-flight packets: a
    packet injected before ``stop`` keeps its injection event but
    loses every hop at or past ``stop``.  Replaying such a window
    drains those packets fully, which means scoring the drained hop
    log directly would charge hops the offline slice excludes.  The replay
    probe is therefore required to re-capture the replayed traffic and
    score it through the same hop-cycle slice — these tests pin that
    both probe modes agree exactly at every window edge.
    """

    @pytest.mark.parametrize("stop", [64, 128, 192, 200, 256])
    def test_replay_prefix_matches_offline_prefix(self, golden, stop):
        # Every stop here cuts at least one packet's flight mid-route
        # (the golden run keeps traffic in flight through cycle ~290),
        # which is exactly where a drained-log probe diverges.
        from repro.obs.diff import _offline_prefix, _replay_prefix

        assert _replay_prefix(golden, stop, None, 500_000) == (
            _offline_prefix(golden, stop)
        )

    def test_drained_log_overcounts_at_a_cutting_stop(self, golden):
        # Counter-pin: the re-capture + re-slice in the replay probe is
        # load-bearing.  The raw drained hop log of the same window
        # carries strictly more BTs than the offline prefix on the
        # links whose packets were cut mid-flight.
        from repro.obs.diff import _offline_prefix

        stop = 128
        drained = {
            name: bts
            for name, bts in score_hops(
                replay_window(golden, 0, stop).hops
            ).per_link.items()
            if bts
        }
        offline = _offline_prefix(golden, stop)
        assert drained != offline
        assert all(
            drained.get(name, 0) >= bts for name, bts in offline.items()
        )

    def test_probe_modes_agree_on_a_recaptured_mutation(self, golden):
        # End-to-end agreement: perturb one packet, replay + re-capture
        # so hops and injections stay consistent, then require both
        # probe modes to localise the same first window and links.
        packets = list(golden.packets)
        last = max(range(len(packets)), key=lambda i: packets[i].cycle)
        event = packets[last]
        packets[last] = dataclasses.replace(
            event, payloads=tuple(p ^ 0b11 for p in event.payloads)
        )
        schedule = dataclasses.replace(golden, packets=tuple(packets))
        recaptured = TrafficTrace.from_network(
            replay_through_network(schedule)
        )

        offline = bisect_divergence(golden, recaptured, probe="offline")
        replay = bisect_divergence(golden, recaptured, probe="replay")
        assert offline.diverged and replay.diverged
        assert replay.first_window == offline.first_window
        assert replay.links == offline.links
