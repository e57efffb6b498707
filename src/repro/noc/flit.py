"""Flits and packets — the transmission units of the NoC.

A packet is a sequence of flits created by the network interface; a
flit's payload is carried as one arbitrary-precision int so the link BT
recorders can XOR two payloads and popcount the result exactly
(DESIGN.md §4).  Wormhole switching keeps a packet's flits contiguous
per virtual channel; HEAD/BODY/TAIL types drive VC allocation and
release in the routers.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

__all__ = ["FlitType", "Flit", "Packet", "make_packet"]


class FlitType(enum.Enum):
    """Position of a flit within its packet."""

    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    HEAD_TAIL = "head_tail"  # single-flit packet

    @property
    def is_head(self) -> bool:
        return self in (FlitType.HEAD, FlitType.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self in (FlitType.TAIL, FlitType.HEAD_TAIL)


_HEAD = FlitType.HEAD
_BODY = FlitType.BODY
_TAIL = FlitType.TAIL
_HEAD_TAIL = FlitType.HEAD_TAIL


class Flit:
    """One link-width transmission unit.

    A plain ``__slots__`` record: the simulator builds tens of
    thousands per run, so construction does no validation —
    :func:`make_packet` checks a packet's payload range once.

    Attributes:
        packet_id: owning packet.
        index: position within the packet (0 = head).
        flit_type: HEAD/BODY/TAIL/HEAD_TAIL.
        src: source node id.
        dst: destination node id.
        payload: payload bits as a non-negative int.
        width: payload width in bits (= link width).
        is_head / is_tail: plain-bool mirrors of the FlitType
            properties (the cycle loop tests them on every hop).
    """

    __slots__ = (
        "packet_id",
        "index",
        "flit_type",
        "src",
        "dst",
        "payload",
        "width",
        "is_head",
        "is_tail",
    )

    def __init__(
        self,
        packet_id: int,
        index: int,
        flit_type: FlitType,
        src: int,
        dst: int,
        payload: int,
        width: int,
    ) -> None:
        self.packet_id = packet_id
        self.index = index
        self.flit_type = flit_type
        self.src = src
        self.dst = dst
        self.payload = payload
        self.width = width
        self.is_head = flit_type is _HEAD or flit_type is _HEAD_TAIL
        self.is_tail = flit_type is _TAIL or flit_type is _HEAD_TAIL

    def wire_bits(self, include_header: bool = False, header_width: int = 16) -> int:
        """Bit image seen by a link.

        By default only the payload is counted (the paper's recorders
        compare flit contents, Fig. 8).  With ``include_header`` a
        small side-band header word — destination and flit type — is
        appended above the payload, for the header-overhead ablation.
        """
        if not include_header:
            return self.payload
        header = (self.dst & ((1 << (header_width - 2)) - 1)) << 2
        header |= {FlitType.HEAD: 1, FlitType.BODY: 0, FlitType.TAIL: 2,
                   FlitType.HEAD_TAIL: 3}[self.flit_type]
        return self.payload | (header << self.width)


@dataclass
class Packet:
    """A routed message: header info plus its flit sequence.

    Attributes:
        packet_id: unique id.
        src: source node id.
        dst: destination node id.
        flits: the flit sequence (flit 0 is the head).
        metadata: free-form tag (the accelerator stores task references
            here; the NoC core never inspects it).
        created_cycle: set at injection time by the NI.
        delivered_cycle: set at ejection time by the NI.
    """

    packet_id: int
    src: int
    dst: int
    flits: list[Flit]
    metadata: dict[str, Any] = field(default_factory=dict)
    created_cycle: int | None = None
    delivered_cycle: int | None = None

    def __len__(self) -> int:
        return len(self.flits)

    @property
    def latency(self) -> int:
        """Injection-to-delivery latency in cycles."""
        if self.created_cycle is None or self.delivered_cycle is None:
            raise ValueError("packet has not completed its journey")
        return self.delivered_cycle - self.created_cycle


def make_packet(
    src: int,
    dst: int,
    payloads: Sequence[int],
    width: int,
    metadata: dict[str, Any] | None = None,
    *,
    packet_id: int,
) -> Packet:
    """Build a packet from per-flit payload ints.

    Args:
        src: source node id.
        dst: destination node id.
        payloads: one int per flit, each below ``2**width``.
        width: link width in bits.
        metadata: optional free-form tag copied onto the packet.
        packet_id: the packet's id, unique among the packets in flight
            on one network.  Callers number their own packets (a run
            counts from 0), so ids never depend on what the process
            ran before.
    """
    n = len(payloads)
    if not n:
        raise ValueError("a packet needs at least one flit")
    if min(payloads) < 0:
        raise ValueError("flit payload must be non-negative")
    if max(payloads) >> width:
        index = next(i for i, p in enumerate(payloads) if p >> width)
        raise ValueError(
            f"payload needs more than {width} bits "
            f"(packet {packet_id}, flit {index})"
        )
    if n == 1:
        flits = [Flit(packet_id, 0, _HEAD_TAIL, src, dst, payloads[0], width)]
    else:
        flits = [Flit(packet_id, 0, _HEAD, src, dst, payloads[0], width)]
        for i in range(1, n - 1):
            flits.append(
                Flit(packet_id, i, _BODY, src, dst, payloads[i], width)
            )
        flits.append(
            Flit(packet_id, n - 1, _TAIL, src, dst, payloads[-1], width)
        )
    return Packet(
        packet_id=packet_id,
        src=src,
        dst=dst,
        flits=flits,
        metadata=dict(metadata or {}),
    )
