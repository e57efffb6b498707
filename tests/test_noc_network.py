"""Tests for the NoC network: delivery, flow control, BT accounting."""

from __future__ import annotations

import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits.popcount import popcount
from repro.noc.flit import make_packet
from repro.noc.network import Network, NoCConfig, SimulationTimeout
from repro.noc.router import ProtocolError
from repro.noc.routing import Port
from repro.noc.topology import mesh_neighbors

# Unique packet ids for hand-built test traffic.
_IDS = itertools.count()


def small_net(**kwargs) -> Network:
    defaults = dict(width=4, height=4, link_width=64)
    defaults.update(kwargs)
    return Network(NoCConfig(**defaults))


class TestDelivery:
    def test_single_packet(self):
        net = small_net()
        pkt = make_packet(0, 15, [1, 2, 3], 64, packet_id=next(_IDS))
        net.send_packet(pkt)
        stats = net.run_until_drained()
        assert stats.packets_delivered == 1
        assert net.nis[15].delivered[0] is pkt
        assert pkt.delivered_cycle is not None

    def test_self_delivery(self):
        net = small_net()
        net.send_packet(make_packet(3, 3, [9], 64, packet_id=next(_IDS)))
        stats = net.run_until_drained()
        assert stats.packets_delivered == 1

    def test_payload_integrity(self):
        net = small_net()
        payloads = [0xDEADBEEF, 0x12345678, 0x0F0F0F0F]
        net.send_packet(
            make_packet(2, 13, list(payloads), 64, packet_id=next(_IDS))
        )
        net.run_until_drained()
        delivered = net.nis[13].delivered[0]
        assert [f.payload for f in delivered.flits] == payloads

    def test_all_to_one(self):
        net = small_net()
        for src in range(16):
            net.send_packet(
                make_packet(src, 0, [src, src + 100], 64, packet_id=next(_IDS))
            )
        stats = net.run_until_drained()
        assert stats.packets_delivered == 16
        assert len(net.nis[0].delivered) == 16

    def test_all_to_all(self):
        net = small_net()
        count = 0
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    net.send_packet(
                        make_packet(
                            src, dst, [src * 16 + dst], 64,
                            packet_id=next(_IDS),
                        )
                    )
                    count += 1
        stats = net.run_until_drained(max_cycles=50_000)
        assert stats.packets_delivered == count

    def test_flit_order_preserved(self):
        # Wormhole switching must keep a packet's flits in order.
        net = small_net()
        net.send_packet(
            make_packet(0, 15, list(range(10)), 64, packet_id=next(_IDS))
        )
        net.run_until_drained()
        delivered = net.nis[15].delivered[0]
        assert [f.index for f in delivered.flits] == list(range(10))

    def test_invalid_nodes_rejected(self):
        net = small_net()
        with pytest.raises(ValueError):
            net.send_packet(make_packet(0, 99, [1], 64, packet_id=next(_IDS)))

    def test_wrong_flit_width_rejected(self):
        net = small_net()
        with pytest.raises(ValueError):
            net.send_packet(make_packet(0, 1, [1], 32, packet_id=next(_IDS)))

    def test_duplicate_in_flight_id_rejected(self):
        net = small_net()
        net.send_packet(make_packet(0, 15, [1], 64, packet_id=7))
        with pytest.raises(ValueError, match="already in flight"):
            net.send_packet(make_packet(1, 14, [2], 64, packet_id=7))
        stats = net.run_until_drained()
        assert stats.packets_injected == stats.packets_delivered == 1
        assert net.nis[14].delivered == []

    def test_id_reusable_after_delivery(self):
        net = small_net()
        net.send_packet(make_packet(0, 15, [1], 64, packet_id=7))
        net.run_until_drained()
        again = make_packet(1, 14, [2], 64, packet_id=7)
        net.send_packet(again)
        stats = net.run_until_drained()
        assert stats.packets_delivered == 2
        assert net.nis[14].delivered == [again]

    def test_timeout_raises(self):
        net = small_net()
        net.send_packet(make_packet(0, 15, [1] * 8, 64, packet_id=next(_IDS)))
        with pytest.raises(SimulationTimeout):
            net.run_until_drained(max_cycles=2)


class TestSinkDelivery:
    @staticmethod
    def _traffic() -> list:
        return [
            make_packet(src, 5, [src, src + 1], 64, packet_id=pid)
            for pid, src in enumerate((0, 15, 3, 12, 6, 9))
        ]

    def test_sink_gets_packets_and_ni_retains_none(self):
        net = small_net()
        received = []
        net.attach_sink(5, lambda packet, cycle: received.append(packet))
        for packet in self._traffic():
            net.send_packet(packet)
        net.run_until_drained()
        assert sorted(p.packet_id for p in received) == list(range(6))
        assert net.nis[5].delivered == []

    def test_sinkless_ni_keeps_delivery_order(self):
        with_sink, without = small_net(), small_net()
        received = []
        with_sink.attach_sink(5, lambda packet, cycle: received.append(packet))
        for net in (with_sink, without):
            for packet in self._traffic():
                net.send_packet(packet)
            net.run_until_drained()
        delivered = without.nis[5].delivered
        cycles = [p.delivered_cycle for p in delivered]
        assert cycles == sorted(cycles)
        assert [p.packet_id for p in delivered] == [
            p.packet_id for p in received
        ]


class TestLazyState:
    def test_idle_mesh_costs_few_tracked_objects_per_node(self):
        config = NoCConfig(width=80, height=80)
        gc.collect()
        before = len(gc.get_objects())
        net = Network(config)
        gc.collect()
        added = len(gc.get_objects()) - before
        assert added <= 3 * config.n_nodes
        assert len(net.routers) == config.n_nodes

    @pytest.mark.parametrize(
        "width,height", [(1, 1), (1, 5), (5, 1), (5, 3), (8, 8)]
    )
    def test_flat_neighbour_table_matches_mesh_neighbors(self, width, height):
        net = small_net(width=width, height=height)
        neighbors = mesh_neighbors(width, height)
        assert net._neighbor_of == [
            neighbors[node].get(port)
            for node in range(width * height)
            for port in Port
        ]

    def test_idle_routers_stay_unbuilt(self):
        net = small_net()
        net.send_packet(make_packet(0, 2, [1, 2], 64, packet_id=next(_IDS)))
        net.run_until_drained()
        built = [r.node_id for r in net.routers if r._slots is not None]
        assert built == [0, 1, 2]


class TestLatency:
    def test_latency_scales_with_distance(self):
        net = small_net()
        near = make_packet(0, 1, [1], 64, packet_id=next(_IDS))
        far = make_packet(0, 15, [1], 64, packet_id=next(_IDS))
        net.send_packet(near)
        net.send_packet(far)
        net.run_until_drained()
        assert far.latency > near.latency

    def test_min_latency_is_hops_plus_overhead(self):
        net = small_net()
        pkt = make_packet(0, 3, [7], 64, packet_id=next(_IDS))  # 3 hops east
        net.send_packet(pkt)
        net.run_until_drained()
        # 3 inter-router hops + injection + ejection under zero load.
        assert 4 <= pkt.latency <= 8

    def test_mean_latency_stat(self):
        net = small_net()
        for dst in (1, 2, 3):
            net.send_packet(
                make_packet(0, dst, [dst], 64, packet_id=next(_IDS))
            )
        stats = net.run_until_drained()
        assert stats.mean_latency > 0
        assert len(stats.packet_latencies) == 3


class TestBTAccounting:
    def test_single_hop_bt_matches_manual(self):
        # Two packets over the same single link: BT = popcount(xor).
        net = small_net(record_ejection=False)
        net.send_packet(make_packet(0, 1, [0x00FF], 64, packet_id=next(_IDS)))
        net.run_until_drained()
        net.send_packet(make_packet(0, 1, [0x0F0F], 64, packet_id=next(_IDS)))
        net.run_until_drained()
        assert net.stats.total_bit_transitions == popcount(0x00FF ^ 0x0F0F)

    def test_intra_packet_bt(self):
        net = small_net(record_ejection=False)
        net.send_packet(
            make_packet(
                0, 1, [0b1111, 0b0000, 0b1010], 64, packet_id=next(_IDS)
            )
        )
        net.run_until_drained()
        assert net.stats.total_bit_transitions == 4 + 2

    def test_bt_scales_with_hops(self):
        # The same 2-flit packet over 1 hop vs 3 hops: 3x transitions.
        one = small_net(record_ejection=False)
        one.send_packet(
            make_packet(0, 1, [0xFF, 0x00], 64, packet_id=next(_IDS))
        )
        one.run_until_drained()
        three = small_net(record_ejection=False)
        three.send_packet(
            make_packet(0, 3, [0xFF, 0x00], 64, packet_id=next(_IDS))
        )
        three.run_until_drained()
        assert three.stats.total_bit_transitions == (
            3 * one.stats.total_bit_transitions
        )

    def test_ejection_recording_adds_links(self):
        with_ej = small_net(record_ejection=True)
        with_ej.send_packet(
            make_packet(0, 1, [0xFF, 0x00], 64, packet_id=next(_IDS))
        )
        with_ej.run_until_drained()
        without = small_net(record_ejection=False)
        without.send_packet(
            make_packet(0, 1, [0xFF, 0x00], 64, packet_id=next(_IDS))
        )
        without.run_until_drained()
        assert (
            with_ej.stats.total_bit_transitions
            > without.stats.total_bit_transitions
        )

    def test_ledger_matches_stats(self):
        net = small_net()
        for src in range(4):
            net.send_packet(
                make_packet(src, 15, [src * 7, src], 64, packet_id=next(_IDS))
            )
        net.run_until_drained()
        assert (
            net.ledger.total_transitions == net.stats.total_bit_transitions
        )

    def test_per_link_names(self):
        net = small_net(record_ejection=True)
        net.send_packet(make_packet(0, 1, [1], 64, packet_id=next(_IDS)))
        net.run_until_drained()
        names = set(net.ledger.per_link())
        assert "R0.EAST" in names
        assert "R1.LOCAL" in names


class TestFlowControl:
    def test_buffers_never_overflow_under_burst(self):
        # Many long packets to one destination force backpressure; the
        # credit protocol must keep every buffer within capacity (the
        # router raises ProtocolError otherwise).
        net = small_net()
        for src in range(8):
            net.send_packet(
                make_packet(src, 15, [src] * 20, 64, packet_id=next(_IDS))
            )
        stats = net.run_until_drained(max_cycles=20_000)
        assert stats.packets_delivered == 8

    def test_vc_depth_one_still_works(self):
        net = small_net(vc_depth=1)
        for src in (0, 5, 10):
            net.send_packet(
                make_packet(src, 15, [1, 2, 3], 64, packet_id=next(_IDS))
            )
        stats = net.run_until_drained(max_cycles=20_000)
        assert stats.packets_delivered == 3

    def test_credit_overflow_is_protocol_error(self):
        # Router 1 forwards a flit its upstream never sent, so the
        # credit it returns to router 0 overflows that counter.
        net = small_net(width=3, height=1)
        router = net.routers[1]
        router.accept_flit(
            Port.WEST, 0, make_packet(0, 2, [1], 64, packet_id=0).flits[0]
        )
        router.allocate()
        router.switch_traversal(net)
        with pytest.raises(ProtocolError, match="credit overflow at router 0"):
            net.step()

    def test_single_vc_still_works(self):
        net = small_net(n_vcs=1)
        for src in (0, 1, 2, 3):
            net.send_packet(
                make_packet(src, 12, [src] * 5, 64, packet_id=next(_IDS))
            )
        stats = net.run_until_drained(max_cycles=20_000)
        assert stats.packets_delivered == 4


class TestStatsConservation:
    @settings(deadline=None, max_examples=15)
    @given(st.data())
    def test_random_traffic_conservation(self, data):
        """Property: every injected packet is delivered exactly once,
        and flit hops >= flits * manhattan distance."""
        net = small_net()
        n_packets = data.draw(st.integers(min_value=1, max_value=12))
        total_flits = 0
        for i in range(n_packets):
            src = data.draw(st.integers(min_value=0, max_value=15))
            dst = data.draw(st.integers(min_value=0, max_value=15))
            length = data.draw(st.integers(min_value=1, max_value=6))
            payloads = [
                data.draw(st.integers(min_value=0, max_value=2**64 - 1))
                for _ in range(length)
            ]
            net.send_packet(
                make_packet(src, dst, payloads, 64, packet_id=next(_IDS))
            )
            total_flits += length
        stats = net.run_until_drained(max_cycles=60_000)
        assert stats.packets_delivered == n_packets
        assert stats.flits_injected == total_flits
        assert stats.flit_hops >= total_flits  # at least ejection hop

    def test_yx_routing_also_delivers(self):
        net = small_net(routing="yx")
        for src in range(16):
            net.send_packet(
                make_packet(src, 15 - src, [src], 64, packet_id=next(_IDS))
            )
        stats = net.run_until_drained(max_cycles=20_000)
        assert stats.packets_delivered == 16


class TestInjectionRecording:
    def test_injection_links_counted_when_enabled(self):
        net = small_net(record_injection=True, record_ejection=False)
        net.send_packet(
            make_packet(0, 1, [0xFF, 0x00], 64, packet_id=next(_IDS))
        )
        net.run_until_drained()
        assert "NI0.INJECT" in net.ledger.per_link()


class TestLinkLatency:
    def test_latency_slows_delivery(self):
        fast = small_net(link_latency=1)
        slow = small_net(link_latency=3)
        for net in (fast, slow):
            net.send_packet(make_packet(0, 15, [7], 64, packet_id=next(_IDS)))
            net.run_until_drained()
        assert (
            slow.nis[15].delivered[0].latency
            > fast.nis[15].delivered[0].latency
        )

    def test_latency_preserves_delivery(self):
        # Contended traffic interleaves differently at different
        # latencies (so BT totals may differ), but every packet still
        # arrives intact.
        for latency in (1, 2, 4):
            net = small_net(link_latency=latency)
            for src in range(6):
                net.send_packet(
                    make_packet(
                        src, 15, [src * 3, src], 64, packet_id=next(_IDS)
                    )
                )
            stats = net.run_until_drained(max_cycles=30_000)
            assert stats.packets_delivered == 6

    def test_latency_invariant_bt_without_contention(self):
        # A single packet sees no interleaving: the flit sequence per
        # link — and hence the BT total — is latency-independent.
        totals = set()
        for latency in (1, 3):
            net = small_net(link_latency=latency, record_ejection=False)
            net.send_packet(
                make_packet(
                    0, 15, [0xAB, 0x12, 0xFF], 64, packet_id=next(_IDS)
                )
            )
            stats = net.run_until_drained()
            totals.add(stats.total_bit_transitions)
        assert len(totals) == 1

    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            NoCConfig(link_latency=0)


class TestWestFirstRouting:
    def test_delivers_everything(self):
        net = small_net(routing="west_first")
        for src in range(16):
            for dst in (0, 5, 15):
                if src != dst:
                    net.send_packet(
                        make_packet(src, dst, [src], 64, packet_id=next(_IDS))
                    )
        stats = net.run_until_drained(max_cycles=40_000)
        assert stats.packets_delivered == 16 * 3 - 3

    def test_differs_from_xy_for_eastbound(self):
        from repro.noc.routing import west_first_route, xy_route
        from repro.noc.routing import Port

        # Node 0 -> node 5 (east+south): west-first goes south first.
        assert xy_route(0, 5, 4) is Port.EAST
        assert west_first_route(0, 5, 4) is Port.SOUTH

    def test_west_always_first(self):
        from repro.noc.routing import west_first_route
        from repro.noc.routing import Port

        # Any destination to the west forces WEST immediately.
        assert west_first_route(5, 4, 4) is Port.WEST
        assert west_first_route(15, 0, 4) is Port.WEST
