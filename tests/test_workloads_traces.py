"""Tests for repro.workloads.traces (capture, persistence, replay).

The persistence section is property-based: arbitrary flit sequences
must survive write -> read byte-identically across byte orders and
compression settings, and truncated or corrupt files of any flavour
must fail with a clean :class:`ValueError`.
"""

from __future__ import annotations

import itertools

import gzip
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.simulator import AcceleratorSimulator
from repro.noc.flit import make_packet
from repro.noc.network import CORES, Network, NoCConfig
from repro.noc.recorder import TraceRecorder
from repro.ordering.strategies import OrderingMethod
from repro.workloads.traces import (
    TRACE_FORMAT_VERSION,
    PacketEvent,
    TraceCollector,
    TrafficTrace,
    reencode_per_link,
    reencode_transitions,
    replay_through_network,
    trace_digest,
)

# Unique packet ids for hand-built test traffic.
_IDS = itertools.count()


def traced_network() -> tuple[Network, TrafficTrace]:
    net = Network(NoCConfig(width=4, height=4, link_width=64))
    net.trace_collector = TraceCollector()
    for src in range(6):
        net.send_packet(
            make_packet(
                src, 15, [src * 101, src ^ 0xFF], 64, packet_id=next(_IDS)
            )
        )
    net.run_until_drained()
    return net, net.trace_collector.finish(64)


class TestStreamScoring:
    """The per-link BT scorer's vectorised narrow-link fast path."""

    def test_narrow_link_matches_scalar_loop(self):
        from repro.bits.transitions import stream_transitions

        rng = np.random.default_rng(0)
        payloads = tuple(
            int(x) for x in rng.integers(0, 2**64, 200, dtype=np.uint64)
        )
        trace = TrafficTrace(link_width=64, links={"L": payloads})
        assert trace.per_link_transitions()["L"] == stream_transitions(
            payloads
        )

    def test_header_bits_beyond_link_width_fall_back(self):
        # include_header_bits records wire images wider than the link;
        # the uint64 fast path must fall back, not overflow.
        payloads = (2**64 + 1, 3, 2**70)
        trace = TrafficTrace(link_width=64, links={"L": payloads})
        assert trace.per_link_transitions()["L"] == (
            (payloads[0] ^ payloads[1]).bit_count()
            + (payloads[1] ^ payloads[2]).bit_count()
        )


class TestCapture:
    def test_trace_matches_live_recorders(self):
        net, trace = traced_network()
        assert trace.total_transitions() == net.stats.total_bit_transitions
        assert trace.total_flit_traversals() == net.stats.flit_hops

    def test_per_link_matches_ledger(self):
        net, trace = traced_network()
        assert trace.per_link_transitions() == net.ledger.per_link()

    def test_cycles_recorded_monotone(self):
        _, trace = traced_network()
        for name, cycles in trace.cycles.items():
            assert list(cycles) == sorted(cycles)
            assert len(cycles) == len(trace.links[name])

    def test_columns_are_array_backed(self):
        # <=64-bit captures must land on WordArray's numpy path so
        # offline scoring never re-converts per call.
        import numpy as np

        from repro.bits.wordarray import WordArray

        _, trace = traced_network()
        for name, payloads in trace.links.items():
            assert isinstance(payloads, WordArray)
            assert payloads.array is not None
            assert payloads.array.dtype == np.uint64
            cycles = trace.cycles[name]
            assert isinstance(cycles, WordArray)
            assert cycles.array is not None
            assert cycles.array.dtype == np.int64

    def test_wide_links_fall_back_to_tuple_backing(self):
        trace = TrafficTrace(
            link_width=96, links={"L": (1 << 80, 5)}, cycles={"L": (0, 1)}
        )
        assert trace.links["L"].array is None
        assert trace.links["L"] == (1 << 80, 5)
        # Cycles still fit int64 and stay array-backed.
        assert trace.cycles["L"].array is not None
        assert trace.per_link_transitions()["L"] == (
            (1 << 80) ^ 5
        ).bit_count()


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        _, trace = traced_network()
        path = tmp_path / "run.trace.json"
        trace.save(path)
        loaded = TrafficTrace.load(path)
        assert loaded.link_width == trace.link_width
        assert loaded.links == trace.links
        assert loaded.cycles == trace.cycles

    def test_wide_payloads_survive(self, tmp_path):
        trace = TrafficTrace(
            link_width=512,
            links={"R0.EAST": (2**511 | 1, 0, 2**300)},
        )
        path = tmp_path / "wide.json"
        trace.save(path)
        assert TrafficTrace.load(path).links["R0.EAST"] == (
            2**511 | 1,
            0,
            2**300,
        )

    def test_version_check(self, tmp_path):
        # Version 1 (the retired plain-JSON envelope) is rejected like
        # any unknown version.
        path = tmp_path / "bad.json"
        for version in (1, 99):
            path.write_text(json.dumps(
                {"version": version, "link_width": 8, "links": {}}
            ))
            with pytest.raises(ValueError,
                               match="unsupported trace version"):
                TrafficTrace.load(path)

    @pytest.mark.parametrize(
        "envelope",
        [{"version": "2"}, {}],
        ids=["string_version", "missing_version"],
    )
    def test_version_must_be_the_integer_constant(self, tmp_path, envelope):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {**envelope, "link_width": 8, "links": {}}
        ))
        with pytest.raises(ValueError, match="unsupported trace version"):
            TrafficTrace.load(path)

    @pytest.mark.parametrize("compress", [True, False])
    def test_save_stamps_current_version(self, tmp_path, compress):
        _, trace = traced_network()
        path = tmp_path / "run.trace"
        trace.save(path, compress=compress)
        raw = path.read_bytes()
        assert raw.startswith(b"\x1f\x8b") == compress
        doc = json.loads(gzip.decompress(raw) if compress else raw)
        assert doc["version"] == TRACE_FORMAT_VERSION == 2


def recorded_network() -> tuple[Network, TrafficTrace]:
    """A drained network captured with the full-fidelity recorder."""
    net = Network(NoCConfig(width=4, height=4, link_width=64))
    net.trace_collector = TraceRecorder()
    for src in range(6):
        net.send_packet(
            make_packet(
                src, 15, [src * 101, src ^ 0xFF, 7 * src + 2], 64,
                packet_id=next(_IDS),
            )
        )
    net.run_until_drained()
    return net, net.trace_collector.finish(net.config)


class TestTraceRecorder:
    def test_capture_matches_live_recorders(self):
        net, trace = recorded_network()
        assert trace.total_transitions() == net.stats.total_bit_transitions
        assert trace.per_link_transitions() == net.ledger.per_link()

    def test_parallel_streams_aligned(self):
        _, trace = recorded_network()
        for name, payloads in trace.links.items():
            assert len(trace.cycles[name]) == len(payloads)
            assert len(trace.vcs[name]) == len(payloads)
            assert len(trace.packet_ids[name]) == len(payloads)
            assert all(pid >= 0 for pid in trace.packet_ids[name])

    def test_injection_schedule_captured(self):
        net, trace = recorded_network()
        assert trace.is_replayable
        assert len(trace.packets) == 6
        assert [p.src for p in trace.packets] == list(range(6))
        assert all(p.dst == 15 for p in trace.packets)
        assert all(len(p.payloads) == 3 for p in trace.packets)
        assert trace.noc == net.config.to_dict()

    def test_plain_width_finish(self):
        """finish() accepts a bare link width for config-less captures."""
        recorder = TraceRecorder()
        recorder.record("R0.EAST", 5, 0, 1)
        trace = recorder.finish(64)
        assert trace.link_width == 64
        assert trace.noc is None and not trace.is_replayable


# -- property-based persistence round trips ---------------------------


@st.composite
def arbitrary_traces(draw, replayable: bool = False):
    """Traces over arbitrary flit sequences (wide ints included)."""
    width = draw(st.integers(min_value=1, max_value=160))
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
        cycles[name] = tuple(range(n))
        if replayable:
            vcs[name] = tuple([0] * n)
            pids[name] = tuple(range(n))
    packets: tuple[PacketEvent, ...] = ()
    noc = None
    if replayable:
        n_pkts = draw(st.integers(min_value=0, max_value=4))
        packets = tuple(
            PacketEvent(
                cycle=j,
                src=draw(st.integers(min_value=0, max_value=8)),
                dst=draw(st.integers(min_value=0, max_value=8)),
                payloads=tuple(
                    draw(st.lists(payload, min_size=1, max_size=3))
                ),
            )
            for j in range(n_pkts)
        )
        noc = NoCConfig(width=3, height=3, link_width=width).to_dict()
    return TrafficTrace(
        link_width=width, links=links, cycles=cycles, vcs=vcs,
        packet_ids=pids, packets=packets, noc=noc,
    )


class TestRoundTripProperties:
    @settings(deadline=None, max_examples=40)
    @given(
        trace=arbitrary_traces(replayable=True),
        byte_order=st.sampled_from(["big", "little"]),
        compress=st.booleans(),
    )
    def test_v2_round_trip_exact(self, tmp_path_factory, trace,
                                 byte_order, compress):
        path = tmp_path_factory.mktemp("rt") / "t.trace"
        trace.save(path, byte_order=byte_order, compress=compress)
        assert TrafficTrace.load(path) == trace

    @settings(deadline=None, max_examples=25)
    @given(trace=arbitrary_traces(replayable=True))
    def test_byte_orders_agree(self, tmp_path_factory, trace):
        """Endianness is an encoding detail, never a semantic one."""
        d = tmp_path_factory.mktemp("bo")
        trace.save(d / "big.gz", byte_order="big")
        trace.save(d / "little.gz", byte_order="little")
        assert (
            TrafficTrace.load(d / "big.gz")
            == TrafficTrace.load(d / "little.gz")
            == trace
        )

    @settings(deadline=None, max_examples=30)
    @given(
        trace=arbitrary_traces(replayable=True),
        fraction=st.floats(min_value=0.05, max_value=0.95),
        compress=st.booleans(),
    )
    def test_truncated_files_fail_cleanly(self, tmp_path_factory, trace,
                                          fraction, compress):
        """A torn write at any offset raises ValueError, nothing else."""
        path = tmp_path_factory.mktemp("tr") / "t.trace"
        trace.save(path, compress=compress)
        blob = path.read_bytes()
        cut = max(1, int(len(blob) * fraction))
        if cut >= len(blob):  # nothing actually truncated
            return
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="trace"):
            TrafficTrace.load(path)

    def test_unknown_byte_order_rejected(self, tmp_path):
        trace = TrafficTrace(link_width=8, links={"R0.EAST": (1, 2)})
        with pytest.raises(ValueError, match="byte order"):
            trace.save(tmp_path / "t", byte_order="middle")

    def test_corrupt_base64_fails_cleanly(self, tmp_path):
        path = tmp_path / "bad.trace"
        doc = {"version": 2, "link_width": 8, "byte_order": "big",
               "links": {"R0.EAST": "!!!not-base64!!!"}, "cycles": {}}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="trace"):
            TrafficTrace.load(path)

    def test_torn_word_array_fails_cleanly(self, tmp_path):
        import base64

        path = tmp_path / "torn.trace"
        doc = {"version": 2, "link_width": 32, "byte_order": "big",
               "links": {"R0.EAST":
                         base64.b64encode(b"\x01\x02\x03").decode()},
               "cycles": {}}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="word size"):
            TrafficTrace.load(path)

    def test_header_bit_wire_images_round_trip(self, tmp_path):
        """Wire images wider than link_width (include_header_bits
        captures) must survive v2 persistence — the word size comes
        from the widest image, not from link_width."""
        net = Network(
            NoCConfig(width=3, height=3, link_width=32,
                      include_header_bits=True)
        )
        net.trace_collector = TraceRecorder()
        for src in range(4):
            net.send_packet(
                make_packet(src, 8, [src * 99, src], 32, packet_id=next(_IDS))
            )
        net.run_until_drained()
        trace = net.trace_collector.finish(net.config)
        assert any(
            p.bit_length() > 32
            for payloads in trace.links.values()
            for p in payloads
        )
        path = tmp_path / "hdr.trace.gz"
        trace.save(path)
        assert TrafficTrace.load(path) == trace

    def test_gzip_sniffed_regardless_of_name(self, tmp_path):
        _, trace = recorded_network()
        path = tmp_path / "renamed.bin"
        trace.save(path)  # compressed v2
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert TrafficTrace.load(path) == trace

    def test_digest_is_content_addressed(self, tmp_path):
        _, trace = recorded_network()
        a, b = tmp_path / "a.gz", tmp_path / "b.gz"
        trace.save(a)
        trace.save(b)
        assert trace_digest(a) == trace_digest(b)
        trace.save(b, byte_order="little")  # same trace, new bytes
        assert trace_digest(a) != trace_digest(b)


# -- offline re-ordering ----------------------------------------------


class TestReordered:
    def test_none_is_identity(self):
        _, trace = recorded_network()
        assert trace.reordered("none") is trace

    def test_popcount_desc_sorts_within_packets(self):
        trace = TrafficTrace(
            link_width=8,
            links={"R0.EAST": (1, 7, 3, 0xFF, 1)},
            cycles={"R0.EAST": (0, 1, 2, 3, 4)},
            packet_ids={"R0.EAST": (5, 5, 5, 9, 9)},
        )
        out = trace.reordered("popcount_desc")
        assert out.links["R0.EAST"] == (7, 3, 1, 0xFF, 1)
        # Slot metadata is untouched: same cycles, same owners.
        assert out.cycles == trace.cycles
        assert out.packet_ids == trace.packet_ids

    def test_reordered_trace_is_not_replayable(self):
        """The injection schedule describes the original payload order,
        so a reordered trace drops it rather than replaying stale
        traffic against permuted wire images."""
        _, trace = recorded_network()
        out = trace.reordered("popcount_desc")
        assert not out.packets
        assert not out.is_replayable

    def test_requires_packet_ids(self):
        _, trace = traced_network()  # lightweight collector: no ids
        with pytest.raises(ValueError, match="packet ids"):
            trace.reordered("popcount_desc")

    def test_unknown_ordering(self):
        _, trace = recorded_network()
        with pytest.raises(ValueError, match="ordering"):
            trace.reordered("ascending")


# -- network replay ---------------------------------------------------


class TestReplayThroughNetwork:
    def test_replay_reproduces_recorded_ledger(self):
        net, trace = recorded_network()
        for core in CORES:
            replayed = replay_through_network(trace, core=core)
            assert replayed.ledger.per_link() == net.ledger.per_link()
            assert (
                replayed.stats.total_bit_transitions
                == net.stats.total_bit_transitions
            )

    def test_replay_core_follows_recorded_config(self):
        _, trace = recorded_network()
        assert replay_through_network(trace).core == "event"
        pinned = replay_through_network(trace, overrides={"core": "stepped"})
        assert pinned.core == "stepped"

    def test_core_argument_overrides_recorded_core(self):
        net = Network(NoCConfig(width=3, height=3, link_width=64,
                                core="stepped"))
        net.trace_collector = TraceRecorder()
        net.send_packet(make_packet(0, 8, [3, 12], 64, packet_id=next(_IDS)))
        net.run_until_drained()
        trace = net.trace_collector.finish(net.config)
        assert replay_through_network(trace).core == "stepped"
        replayed = replay_through_network(trace, core="event")
        assert replayed.core == "event"
        assert replayed.ledger.per_link() == net.ledger.per_link()

    def test_unknown_replay_core_rejected(self):
        _, trace = recorded_network()
        with pytest.raises(ValueError, match="unknown network core"):
            replay_through_network(trace, core="warp")

    def test_replay_with_overrides_changes_timing_not_payloads(self):
        net, trace = recorded_network()
        slow = replay_through_network(trace, overrides={"link_latency": 3})
        assert slow.stats.cycles > net.stats.cycles
        assert slow.stats.flits_injected == net.stats.flits_injected

    def test_replay_with_ordering_reorders_payloads(self):
        _, trace = recorded_network()
        replayed = replay_through_network(trace, ordering="popcount_desc")
        assert (
            replayed.stats.flit_hops
            == replay_through_network(trace).stats.flit_hops
        )

    def test_lightweight_trace_not_replayable(self):
        _, trace = traced_network()
        with pytest.raises(ValueError, match="no packet injection"):
            replay_through_network(trace)

    def test_round_tripped_trace_replays_identically(self, tmp_path):
        net, trace = recorded_network()
        path = tmp_path / "rt.trace.gz"
        trace.save(path)
        replayed = replay_through_network(TrafficTrace.load(path))
        assert replayed.ledger.per_link() == net.ledger.per_link()


class TestReencodePerLink:
    def test_sums_match_total(self):
        _, trace = recorded_network()
        for coding in ("none", "bus_invert", "delta"):
            per_link = reencode_per_link(trace, coding)
            assert set(per_link) == set(trace.links)
            assert sum(per_link.values()) == reencode_transitions(
                trace, coding
            )


class TestReencoding:
    def test_none_is_identity(self):
        _, trace = traced_network()
        assert reencode_transitions(trace, "none") == (
            trace.total_transitions()
        )

    def test_bus_invert_never_much_worse(self):
        _, trace = traced_network()
        plain = trace.total_transitions()
        coded = reencode_transitions(trace, "bus_invert")
        # Bus-invert bounds payload transitions and pays <= 1 line
        # transition per flit.
        assert coded <= plain + trace.total_flit_traversals()

    def test_unknown_coding(self):
        _, trace = traced_network()
        with pytest.raises(ValueError):
            reencode_transitions(trace, "gray")


class TestAcceleratorIntegration:
    def test_trace_through_accelerator(self, small_lenet, digit_image):
        config = AcceleratorConfig(max_tasks_per_layer=3, seed=4)
        sim = AcceleratorSimulator(config, small_lenet, digit_image)
        collector = TraceCollector()
        result = sim.run(trace_collector=collector)
        trace = collector.finish(config.link_width)
        assert trace.total_transitions() == result.total_bit_transitions
        assert result.all_verified


class TestWordBytesField:
    def test_zero_word_bytes_rejected(self, tmp_path):
        """An explicit word_bytes of 0 is corruption, not a cue to
        guess from link_width."""
        path = tmp_path / "zero.trace"
        doc = {"version": 2, "link_width": 8, "byte_order": "big",
               "word_bytes": 0, "links": {}, "cycles": {}}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="word size"):
            TrafficTrace.load(path)

    def test_missing_word_bytes_falls_back_to_link_width(self, tmp_path):
        """Envelopes written before the field decode via link_width."""
        import base64

        path = tmp_path / "old.trace"
        doc = {"version": 2, "link_width": 16, "byte_order": "big",
               "links": {"R0.EAST":
                         base64.b64encode(b"\x00\x07\x00\x09").decode()},
               "cycles": {"R0.EAST": [0, 1]}}
        path.write_text(json.dumps(doc))
        assert TrafficTrace.load(path).links["R0.EAST"] == (7, 9)
