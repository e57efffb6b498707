"""Unit tests for router internals (VC allocation, protocol checks)."""

from __future__ import annotations

import pytest

from repro.noc.flit import Flit, FlitType, make_packet
from repro.noc.network import Network, NoCConfig
from repro.noc.router import FlowControlError, Router, VCState
from repro.noc.routing import Port, xy_route


def make_flit(packet_id=0, index=0, ftype=FlitType.HEAD_TAIL, dst=1):
    return Flit(
        packet_id=packet_id,
        index=index,
        flit_type=ftype,
        src=0,
        dst=dst,
        payload=0,
        width=64,
    )


def bare_router(node_id=0) -> Router:
    return Router(
        node_id=node_id, mesh_width=4, n_vcs=2, vc_depth=2, route_fn=xy_route
    )


class TestVCState:
    def test_free_slots(self):
        state = VCState(capacity=4)
        assert state.free_slots == 4
        state.fifo.append(make_flit())
        assert state.free_slots == 3


class TestAcceptFlit:
    def test_accept_and_count(self):
        router = bare_router()
        router.accept_flit(Port.LOCAL, 0, make_flit())
        assert router.buffered_flits == 1
        assert router.is_active

    def test_overflow_raises(self):
        router = bare_router()
        router.accept_flit(Port.LOCAL, 0, make_flit())
        router.accept_flit(Port.LOCAL, 0, make_flit())
        with pytest.raises(FlowControlError):
            router.accept_flit(Port.LOCAL, 0, make_flit())


class TestAllocation:
    def test_route_computed_for_head(self):
        router = bare_router()
        router.accept_flit(Port.LOCAL, 0, make_flit(dst=2))
        router.allocate()
        state = router.inputs[Port.LOCAL][0]
        assert state.out_port is Port.EAST

    def test_body_without_route_is_protocol_error(self):
        router = bare_router()
        orphan = make_flit(ftype=FlitType.BODY)
        router.accept_flit(Port.LOCAL, 0, orphan)
        with pytest.raises(FlowControlError):
            router.allocate()

    def test_vc_allocated_from_free_pool(self):
        router = bare_router()
        router.accept_flit(Port.LOCAL, 0, make_flit(dst=2))
        router.allocate()
        state = router.inputs[Port.LOCAL][0]
        assert state.out_vc is not None
        assert router.out_holder[Port.EAST][state.out_vc] == (Port.LOCAL, 0)

    def test_no_free_vc_blocks_allocation(self):
        router = bare_router()
        # Occupy both east VCs artificially.
        router.out_holder[Port.EAST][0] = (Port.WEST, 0)
        router.out_holder[Port.EAST][1] = (Port.WEST, 1)
        router.accept_flit(Port.LOCAL, 0, make_flit(dst=2))
        router.allocate()
        assert router.inputs[Port.LOCAL][0].out_vc is None

    def test_two_requesters_get_distinct_vcs(self):
        router = bare_router()
        router.accept_flit(Port.LOCAL, 0, make_flit(packet_id=1, dst=2))
        router.accept_flit(Port.NORTH, 0, make_flit(packet_id=2, dst=2))
        router.allocate()
        vc_a = router.inputs[Port.LOCAL][0].out_vc
        vc_b = router.inputs[Port.NORTH][0].out_vc
        assert vc_a is not None and vc_b is not None
        assert vc_a != vc_b

    def test_ejection_needs_no_real_vc(self):
        router = bare_router()
        router.accept_flit(Port.NORTH, 0, make_flit(dst=0))
        router.allocate()
        state = router.inputs[Port.NORTH][0]
        assert state.out_port is Port.LOCAL
        assert state.out_vc == 0


class TestTraversalViaNetwork:
    def test_tail_releases_vc(self):
        net = Network(NoCConfig(width=2, height=1, link_width=64))
        router = net.routers[0]
        head = make_flit(packet_id=9, index=0, ftype=FlitType.HEAD, dst=1)
        tail = make_flit(packet_id=9, index=1, ftype=FlitType.TAIL, dst=1)
        router.accept_flit(Port.LOCAL, 0, head)
        router.accept_flit(Port.LOCAL, 0, tail)
        router.allocate()
        out_vc = router.inputs[Port.LOCAL][0].out_vc
        router.switch_traversal(net)  # head crosses
        assert router.out_holder[Port.EAST][out_vc] == (Port.LOCAL, 0)
        router.switch_traversal(net)  # tail crosses
        assert router.out_holder[Port.EAST][out_vc] is None
        assert router.inputs[Port.LOCAL][0].out_port is None

    def test_credit_consumed_on_send(self):
        net = Network(NoCConfig(width=2, height=1, link_width=64))
        router = net.routers[0]
        router.accept_flit(Port.LOCAL, 0, make_flit(dst=1))
        router.allocate()
        out_vc = router.inputs[Port.LOCAL][0].out_vc
        before = router.credits[Port.EAST][out_vc]
        router.switch_traversal(net)
        assert router.credits[Port.EAST][out_vc] == before - 1

    def test_one_flit_per_outport_per_cycle(self):
        net = Network(NoCConfig(width=2, height=1, link_width=64))
        router = net.routers[0]
        # Two packets both heading east on different VCs.
        router.accept_flit(Port.LOCAL, 0, make_flit(packet_id=1, dst=1))
        router.accept_flit(Port.LOCAL, 1, make_flit(packet_id=2, dst=1))
        router.allocate()
        router.switch_traversal(net)
        # Only one flit may cross the east link per cycle.
        assert router.buffered_flits == 1


class TestLazyState:
    def test_only_used_slots_and_arbiters_are_built(self):
        net = Network(NoCConfig(width=3, height=2, n_vcs=4, link_width=64))
        packet = make_packet(0, 1, [1, 2, 3], 64, packet_id=0)
        net.send_packet(packet)
        net.run_until_drained()
        sender, receiver = net.routers[0], net.routers[1]
        assert [i for i, s in enumerate(sender._slots) if s is not None] == [
            Port.LOCAL * 4
        ]
        assert [i for i, s in enumerate(receiver._slots) if s is not None] == [
            Port.WEST * 4
        ]
        assert all(r._slots is None for r in net.routers[2:])
        assert [a is not None for a in sender._vc_arbiters] == [
            port is Port.EAST for port in Port
        ]
        assert [a is not None for a in sender._sw_arbiters] == [
            port is Port.EAST for port in Port
        ]
        for router in (sender, receiver):
            assert list(router.inputs) == list(Port)
            states = [s for vcs in router.inputs.values() for s in vcs]
            assert len(states) == 5 * 4
            assert all(isinstance(s, VCState) for s in states)
            assert all(not s.fifo for s in states)

    def test_idle_router_reports_full_local_space(self):
        router = bare_router()
        assert router.local_vc_space(1) == 2
        assert router._slots is None
