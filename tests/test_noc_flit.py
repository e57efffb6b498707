"""Tests for repro.noc.flit."""

from __future__ import annotations

import pytest

from repro.noc.flit import FlitType, make_packet


class TestFlitType:
    def test_head_properties(self):
        assert FlitType.HEAD.is_head
        assert not FlitType.HEAD.is_tail

    def test_head_tail_is_both(self):
        assert FlitType.HEAD_TAIL.is_head
        assert FlitType.HEAD_TAIL.is_tail

    def test_body_is_neither(self):
        assert not FlitType.BODY.is_head
        assert not FlitType.BODY.is_tail


class TestMakePacket:
    def test_single_flit(self):
        pkt = make_packet(0, 5, [0xAB], 64, packet_id=0)
        assert len(pkt) == 1
        assert pkt.flits[0].flit_type is FlitType.HEAD_TAIL
        assert pkt.flits[0].is_head and pkt.flits[0].is_tail

    def test_multi_flit_types(self):
        pkt = make_packet(0, 5, [1, 2, 3, 4], 64, packet_id=0)
        types = [f.flit_type for f in pkt.flits]
        assert types == [
            FlitType.HEAD,
            FlitType.BODY,
            FlitType.BODY,
            FlitType.TAIL,
        ]
        assert [f.is_head for f in pkt.flits] == [True, False, False, False]
        assert [f.is_tail for f in pkt.flits] == [False, False, False, True]
        assert [f.index for f in pkt.flits] == [0, 1, 2, 3]
        assert [f.payload for f in pkt.flits] == [1, 2, 3, 4]

    def test_packet_id_is_the_callers(self):
        # No process-wide counter: the same call gives the same id.
        a = make_packet(0, 1, [0, 1], 8, packet_id=7)
        b = make_packet(0, 1, [0, 1], 8, packet_id=7)
        assert a.packet_id == b.packet_id == 7
        assert all(f.packet_id == 7 for f in a.flits)

    def test_packet_id_required(self):
        with pytest.raises(TypeError):
            make_packet(0, 1, [0], 8)

    def test_flits_are_slotted(self):
        flit = make_packet(0, 1, [0], 8, packet_id=0).flits[0]
        with pytest.raises(AttributeError):
            flit.extra = 1

    def test_payload_too_wide(self):
        with pytest.raises(ValueError):
            make_packet(0, 1, [1 << 64], 64, packet_id=0)

    def test_negative_payload(self):
        with pytest.raises(ValueError):
            make_packet(0, 1, [-1], 64, packet_id=0)

    def test_only_middle_flit_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="flit 2"):
            make_packet(0, 1, [1, 2, 1 << 64, 3, 4], 64, packet_id=0)
        with pytest.raises(ValueError):
            make_packet(0, 1, [1, 2, -5, 3, 4], 64, packet_id=0)

    def test_full_width_payload_accepted(self):
        pkt = make_packet(0, 1, [0, (1 << 64) - 1, 0], 64, packet_id=0)
        assert pkt.flits[1].payload == (1 << 64) - 1

    def test_empty_packet_rejected(self):
        with pytest.raises(ValueError):
            make_packet(0, 1, [], 64, packet_id=0)

    def test_metadata_copied(self):
        meta = {"kind": "task"}
        pkt = make_packet(0, 1, [0], 8, metadata=meta, packet_id=0)
        meta["kind"] = "mutated"
        assert pkt.metadata["kind"] == "task"

    def test_latency_requires_completion(self):
        pkt = make_packet(0, 1, [0], 8, packet_id=0)
        with pytest.raises(ValueError):
            _ = pkt.latency
        pkt.created_cycle = 3
        pkt.delivered_cycle = 10
        assert pkt.latency == 7


class TestWireBits:
    def test_payload_only_by_default(self):
        pkt = make_packet(0, 5, [0xAB], 16, packet_id=0)
        assert pkt.flits[0].wire_bits() == 0xAB

    def test_header_adds_destination(self):
        pkt = make_packet(0, 5, [0xAB], 16, packet_id=0)
        wired = pkt.flits[0].wire_bits(include_header=True)
        header = wired >> 16
        assert header >> 2 == 5  # destination field
        assert header & 0b11 == 3  # HEAD_TAIL code

    def test_header_flit_types_distinct(self):
        pkt = make_packet(0, 5, [0, 0, 0], 16, packet_id=0)
        codes = {
            f.wire_bits(include_header=True) & (0b11 << 16)
            for f in pkt.flits
        }
        assert len(codes) == 3  # HEAD, BODY, TAIL all differ
