"""The hop log and the one BT scorer (the Fig. 8 scheme, after the run).

Fig. 8 keeps a ``Flit_pre`` register per router outport: every flit
that crosses the link is XORed against the register, the popcount is
added to the NoC-wide sum, and the register takes the new flit.  The
recorder is measurement-only, so it can just as well run after the
cycle loop: the network only *logs* what crossed which link and when
(:class:`HopLog`), and :func:`score_hops` replays the registers over
that log once the traffic has drained.

Every BT number the code reports comes from :func:`score_hops`: the
per-link table and total, flits per link, per-cycle-window sums (the
layers of an accelerator run), per-owner sums (serving tenants), and
the same numbers under substituted wire images (scoring another coding
on a shared schedule).  Loaded trace files keep their own array
scorer (:meth:`repro.workloads.traces.TrafficTrace.per_link_transitions`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, islice
from operator import attrgetter, xor
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.flit import Flit, Packet

__all__ = ["LinkHops", "HopLog", "HopScore", "score_hops"]

_payload = attrgetter("payload")


class LinkHops:
    """Every recorded traversal of one link, in traversal order.

    Three parallel lists: the flit, the cycle it crossed on, and its
    output VC (``-1`` on NI injection links, which have no outport).
    The network appends to them per hop; nothing else is stored.
    """

    __slots__ = ("flits", "cycles", "vcs")

    def __init__(self) -> None:
        self.flits: list[Flit] = []
        self.cycles: list[int] = []
        self.vcs: list[int] = []


class HopLog:
    """What crossed which recorded link on which cycle, and every send.

    Attributes:
        links: link name -> :class:`LinkHops`, in order of each link's
            first traversal ("R5.EAST" for router outports,
            "NI3.INJECT" for injection links).
        sends: ``(cycle, packet)`` of every ``send_packet`` call, in
            call order.
        include_header: wire images carry the side-band header word
            (``NoCConfig.include_header_bits``).

    A log belongs to one :class:`~repro.noc.network.Network` and holds
    references only, so it lives exactly as long as its network.
    """

    __slots__ = ("links", "sends", "include_header")

    def __init__(self, include_header: bool = False) -> None:
        self.links: dict[str, LinkHops] = {}
        self.sends: list[tuple[int, Packet]] = []
        self.include_header = include_header

    def link(self, name: str) -> LinkHops:
        """The hop lists of ``name``, created on its first traversal."""
        hops = self.links.get(name)
        if hops is None:
            hops = self.links[name] = LinkHops()
        return hops

    def wire_image(self, flit: "Flit") -> int:
        """The bits ``flit`` puts on the wire (Fig. 8's recorded image)."""
        return flit.wire_bits(True) if self.include_header else flit.payload


@dataclass(frozen=True)
class HopScore:
    """BTs of one hop log (see :func:`score_hops`).

    Attributes:
        per_link: link name -> BTs, in the log's link order.
        flits: link name -> flits that crossed it.
        total: the Fig. 8 NoC-wide sum.
        windows: BTs per cycle window (one entry per window).
        owner_transitions / owner_flits: BTs and flits per owner; the
            ``None`` key collects flits without an owner.
    """

    per_link: dict[str, int]
    flits: dict[str, int]
    total: int
    windows: list[int] = field(default_factory=list)
    owner_transitions: dict[Hashable, int] = field(default_factory=dict)
    owner_flits: dict[Hashable, int] = field(default_factory=dict)


def score_hops(
    log: HopLog,
    *,
    wire: Callable[["Flit"], int] | None = None,
    cuts: Sequence[int] | None = None,
    owner: Callable[["Flit"], Hashable] | None = None,
) -> HopScore:
    """Replay the Fig. 8 registers over a hop log.

    Per link, the first flit is free and every later flit costs
    ``popcount(previous ^ current)``.

    Args:
        log: the drained network's hop log.
        wire: wire image of a flit; defaults to what the network put
            on the wire (:meth:`HopLog.wire_image`).  Pass another to
            score different payloads on the same schedule.
        cuts: ascending cycle boundaries splitting the run into
            ``len(cuts) + 1`` windows; a hop on cycle ``c`` falls in
            window ``bisect_right(cuts, c)``.  ``None`` skips windows.
        owner: owner of a flit (``None`` for none); ``None`` skips the
            per-owner sums.  A flit's BTs go to the flit that caused
            them, i.e. the later of the two.
    """
    if wire is None:
        wire = log.wire_image if log.include_header else _payload
    n_windows = 0 if cuts is None else len(cuts) + 1
    windows = [0] * n_windows
    per_link: dict[str, int] = {}
    flits: dict[str, int] = {}
    owner_bts: dict[Hashable, int] = {}
    owner_flits: dict[Hashable, int] = {}
    for name, hops in log.links.items():
        images = list(map(wire, hops.flits))
        caused = list(
            map(int.bit_count, map(xor, images, islice(images, 1, None)))
        )
        per_link[name] = sum(caused)
        flits[name] = len(images)
        if n_windows:
            # caused[i] belongs to hop i + 1; cycles ascend per link.
            before = [0, *accumulate(caused)]
            lo = 0
            for w, cut in enumerate(cuts):
                hi = max(bisect_left(hops.cycles, cut), 1) - 1
                windows[w] += before[hi] - before[lo]
                lo = hi
            windows[-1] += before[-1] - before[lo]
        if owner is not None:
            owners = list(map(owner, hops.flits))
            for who in owners:
                owner_flits[who] = owner_flits.get(who, 0) + 1
            for who, bts in zip(islice(owners, 1, None), caused):
                owner_bts[who] = owner_bts.get(who, 0) + bts
    return HopScore(
        per_link=per_link,
        flits=flits,
        total=sum(per_link.values()),
        windows=windows,
        owner_transitions=owner_bts,
        owner_flits=owner_flits,
    )
