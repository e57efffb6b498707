"""Network interface (NI): packet injection and ejection.

Each router's LOCAL port connects to one NI, which hosts either a PE or
a memory controller (Fig. 6).  The NI streams one packet at a time into
the router's local input VCs (rotating across VCs per packet) and
reassembles arriving flits into packets.  A completed packet goes to
the attached sink callback, if any; only an NI without a sink keeps it
in :attr:`NetworkInterface.delivered`, so a sink-driven run retains no
packets past its sink.

The injection queue, the reassembly map and the delivered list are
built on first use: most NIs of a large mesh never send or receive.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.noc.flit import Flit, Packet
from repro.noc.routing import Port

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.router import Router

__all__ = ["NetworkInterface"]

PacketSink = Callable[[Packet, int], None]


class NetworkInterface:
    """Injection/ejection endpoint attached to one router."""

    def __init__(
        self,
        node_id: int,
        router: "Router",
        flits_per_cycle: int = 1,
    ) -> None:
        if flits_per_cycle <= 0:
            raise ValueError("flits_per_cycle must be positive")
        self.node_id = node_id
        self.router = router
        self.flits_per_cycle = flits_per_cycle
        self.tx_queue: deque[Packet] | None = None
        self.sink: PacketSink | None = None
        self._current: Packet | None = None
        self._next_flit = 0
        self._tx_vc = 0
        self._vc_rotor = 0
        self._rx_flits: dict[int, list[Flit]] | None = None
        self._delivered: list[Packet] | None = None

    @property
    def delivered(self) -> list[Packet]:
        """Completed packets in delivery order, kept only without a sink."""
        if self._delivered is None:
            self._delivered = []
        return self._delivered

    # -- injection ------------------------------------------------------

    def queue_packet(self, packet: Packet) -> None:
        """Enqueue a packet for injection (FIFO order)."""
        if self.tx_queue is None:
            self.tx_queue = deque()
        self.tx_queue.append(packet)

    @property
    def has_pending_tx(self) -> bool:
        """True while packets or flits still await injection."""
        return self._current is not None or bool(self.tx_queue)

    def try_inject(self, cycle: int) -> list[Flit]:
        """Inject up to ``flits_per_cycle`` flits; returns those injected.

        The event-driven network core iterates only NIs with pending
        traffic, keyed off :attr:`has_pending_tx`; this method is the
        sole path that can clear that flag.
        """
        injected: list[Flit] = []
        router = self.router
        budget = self.flits_per_cycle
        while len(injected) < budget:
            current = self._current
            if current is None:
                if not self.tx_queue:
                    break
                vc = self._pick_vc()
                if vc is None:
                    break
                current = self._current = self.tx_queue.popleft()
                current.created_cycle = cycle
                self._next_flit = 0
                self._tx_vc = vc
            if router.local_vc_space(self._tx_vc) <= 0:
                break
            flit = current.flits[self._next_flit]
            router.accept_flit(Port.LOCAL, self._tx_vc, flit)
            injected.append(flit)
            self._next_flit += 1
            if self._next_flit == len(current.flits):
                self._current = None
        return injected

    def _pick_vc(self) -> int | None:
        """Rotate across local VCs, requiring room for the head flit."""
        n_vcs = self.router.n_vcs
        for offset in range(n_vcs):
            vc = (self._vc_rotor + offset) % n_vcs
            if self.router.local_vc_space(vc) > 0:
                self._vc_rotor = (vc + 1) % n_vcs
                return vc
        return None

    # -- ejection --------------------------------------------------------

    def receive_flit(self, flit: Flit, packet: Packet | None, cycle: int) -> None:
        """Accept one ejected flit; completes the packet on its tail.

        Args:
            flit: the arriving flit.
            packet: the owning packet object (from the network's
                in-flight registry); required on the tail flit.
            cycle: current simulation cycle.
        """
        rx_flits = self._rx_flits
        if rx_flits is None:
            rx_flits = self._rx_flits = {}
        rx_flits.setdefault(flit.packet_id, []).append(flit)
        if not flit.is_tail:
            return
        flits = rx_flits.pop(flit.packet_id)
        if packet is None:
            raise ValueError(
                f"tail of packet {flit.packet_id} arrived without a "
                "registered packet object"
            )
        if len(flits) != len(packet.flits):
            raise ValueError(
                f"packet {packet.packet_id} delivered {len(flits)} of "
                f"{len(packet.flits)} flits"
            )
        packet.delivered_cycle = cycle
        if self.sink is None:
            self.delivered.append(packet)
        else:
            self.sink(packet, cycle)
