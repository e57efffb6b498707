"""Wormhole router with virtual channels and credit-based flow control.

Models the paper's NoC router configuration (Sec. V-B): X-Y routing,
4 virtual channels per input port with a 4-flit buffer each.  Each
cycle a router performs, in order:

1. **route computation** for head flits that have none,
2. **VC allocation** — head flits claim a free downstream VC through a
   per-outport round-robin arbiter,
3. **switch allocation + traversal** — each output port grants one
   (input port, VC) requester with buffer space downstream; the winning
   flit crosses the link (where the Fig. 8 recorder counts its BTs).

Tail flits release their VC on departure; credits flow back one cycle
later.  The allocation state (``out_port`` / ``out_vc``) always refers
to the packet at the head of a VC FIFO, which makes back-to-back
packets in one buffer safe.

Two equivalent implementations of the per-cycle phases exist:

* :meth:`Router.allocate` + :meth:`Router.switch_traversal` — the
  reference pair, which scans every input VC.  The stepped network
  core and the unit tests use these.
* :meth:`Router.allocate_and_traverse` — the event-core fast path,
  which visits only the tracked occupied / allocation-pending VCs and
  arbitrates without building flag vectors.  Bit-identical outcomes
  are enforced by ``tests/test_noc_eventcore.py``.

Both paths share :meth:`accept_flit` / :meth:`_traverse`, which keep
the occupancy tracking consistent, so a router works under either
network core at any time.

State is built on first use, because mesh-scaling campaigns construct
thousands of routers of which most never buffer a flit, and every
container a router holds is one more object for each full cyclic-GC
pass to walk.  A fresh router owns no containers at all.  Its first
flit builds the flat slot table (all ``None``), the credit counters,
the downstream holder table and the occupancy sets — a router always
has sent a flit before a credit comes back to it.  A slot's
:class:`VCState` and FIFO are built on that slot's first flit, and the
VC and switch arbiters of an outport on its first grant.  The
:attr:`Router.inputs` view used by the reference pair and the tests
fills every slot, so it keeps its full 5 x ``n_vcs`` shape.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.flit import Flit
from repro.noc.routing import Port, RouteFn

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.network import Network

__all__ = ["VCState", "Router", "ProtocolError"]

_LOCAL = Port.LOCAL
_N_PORTS = len(Port)

# Flat-slot decode tables shared by every router with the same VC
# count: slot index -> (port, vc).
_SLOT_TABLES: dict[int, tuple[list[Port], list[int]]] = {}


def _slot_tables(n_vcs: int) -> tuple[list[Port], list[int]]:
    tables = _SLOT_TABLES.get(n_vcs)
    if tables is None:
        tables = (
            [port for port in Port for _ in range(n_vcs)],
            [vc for _ in Port for vc in range(n_vcs)],
        )
        _SLOT_TABLES[n_vcs] = tables
    return tables


class ProtocolError(RuntimeError):
    """Raised when the wormhole protocol invariants are violated."""


class VCState:
    """One virtual-channel input buffer and its head-packet state.

    Attributes:
        capacity: buffer depth in flits (paper: 4).
        fifo: buffered flits, head at index 0.
        out_port: route of the packet currently at the head, if known.
        out_vc: downstream VC allocated to that packet, if any.
    """

    __slots__ = ("capacity", "fifo", "out_port", "out_vc")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.fifo: deque[Flit] = deque()
        self.out_port: Port | None = None
        self.out_vc: int | None = None

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.fifo)


class Router:
    """One mesh router: 5 ports x ``n_vcs`` input VCs."""

    def __init__(
        self,
        node_id: int,
        mesh_width: int,
        n_vcs: int,
        vc_depth: int,
        route_fn: RouteFn,
    ) -> None:
        self.node_id = node_id
        self.mesh_width = mesh_width
        self.n_vcs = n_vcs
        self.vc_depth = vc_depth
        self.route_fn = route_fn
        # Flat slots indexed by ``port * n_vcs + vc`` — the requester
        # id used by the arbiters — with `inputs` exposing the same
        # VCState objects per port.  The tables below start as None:
        # _materialize() builds them on the router's first flit, and
        # the `inputs` view on its first access.
        self._slots: list[VCState | None] | None = None
        self._inputs: dict[Port, list[VCState]] | None = None
        self._out_holder: list[list[tuple[Port, int] | None]] | None = None
        # Per-outport arbiters, each built on its outport's first grant.
        self._vc_arbiters: list[RoundRobinArbiter | None] | None = None
        self._sw_arbiters: list[RoundRobinArbiter | None] | None = None
        self._slot_port, self._slot_vc = _slot_tables(n_vcs)
        # Occupancy tracking for the event-core fast path: which flat
        # slots hold flits, and which of those still await a VC grant.
        self._occupied: set[int] | None = None
        self._needs_alloc: set[int] | None = None
        # Credit counters per output port (indexed by port value; LOCAL
        # has no credit loop); see the `credits` property.
        self._credits: list[list[int] | None] | None = None
        self.buffered_flits = 0
        # Observability counters.  Plain ints bumped on paths both
        # cycle-loop cores share (or at behaviourally identical points
        # of their divergent paths), so the counts are core-invariant:
        #   peak_occupancy - high-water mark of buffered flits,
        #   vc_grants     - downstream VC allocations granted,
        #   arb_conflicts - losing requesters in switch arbitration.
        self.peak_occupancy = 0
        self.vc_grants = 0
        self.arb_conflicts = 0

    # -- lazy state materialisation ------------------------------------

    def _materialize(self) -> list[VCState | None]:
        """Build the per-router tables on the first flit."""
        n_vcs = self.n_vcs
        slots: list[VCState | None] = [None] * (_N_PORTS * n_vcs)
        self._slots = slots
        self._out_holder = [[None] * n_vcs for _ in range(_N_PORTS)]
        self._vc_arbiters = [None] * _N_PORTS
        self._sw_arbiters = [None] * _N_PORTS
        self._occupied = set()
        self._needs_alloc = set()
        self._credits = [None] + [
            [self.vc_depth] * n_vcs for _ in range(_N_PORTS - 1)
        ]
        return slots

    def _arbiter(
        self, arbiters: list[RoundRobinArbiter | None], out_port: Port
    ) -> RoundRobinArbiter:
        """The arbiter of ``out_port`` in ``arbiters``, built on first use."""
        arbiter = arbiters[out_port]
        if arbiter is None:
            arbiter = RoundRobinArbiter(_N_PORTS * self.n_vcs)
            arbiters[out_port] = arbiter
        return arbiter

    @property
    def inputs(self) -> dict[Port, list[VCState]]:
        """Per-port input VC states (shared objects with the flat view).

        Builds every slot's :class:`VCState`, so the view always has
        5 x ``n_vcs`` entries.
        """
        if self._inputs is None:
            slots = self._slots
            if slots is None:
                slots = self._materialize()
            for flat, state in enumerate(slots):
                if state is None:
                    slots[flat] = VCState(self.vc_depth)
            n_vcs = self.n_vcs
            self._inputs = {
                port: slots[port * n_vcs:(port + 1) * n_vcs] for port in Port
            }
        return self._inputs

    @property
    def out_holder(self) -> list[list[tuple[Port, int] | None]]:
        """Per-outport downstream VC holders (indexed by port value)."""
        if self._out_holder is None:
            self._materialize()
        return self._out_holder

    @property
    def credits(self) -> list[list[int] | None]:
        """Per-outport downstream credit counters (indexed by port value)."""
        if self._credits is None:
            self._materialize()
        return self._credits

    # -- cycle phases (reference pair) ---------------------------------

    def allocate(self) -> None:
        """Phase 1: route computation and VC allocation."""
        requests: dict[Port, list[int]] = {}
        for in_port, vcs in self.inputs.items():
            for vc_idx, state in enumerate(vcs):
                if not state.fifo:
                    continue
                head = state.fifo[0]
                if state.out_port is None:
                    if not head.is_head:
                        raise ProtocolError(
                            f"router {self.node_id}: body/tail flit of packet "
                            f"{head.packet_id} at VC head without a route"
                        )
                    state.out_port = self.route_fn(
                        self.node_id, head.dst, self.mesh_width
                    )
                if state.out_vc is None:
                    requests.setdefault(state.out_port, []).append(
                        in_port.value * self.n_vcs + vc_idx
                    )
        for out_port, requesters in requests.items():
            self._grant_vcs(out_port, requesters)

    def _grant_vcs(self, out_port: Port, requesters: list[int]) -> None:
        """Round-robin grant of free downstream VCs to head packets."""
        if out_port is Port.LOCAL:
            # Ejection: the NI sinks flits unconditionally, so every
            # requester can proceed on a nominal VC 0.
            for req in requesters:
                in_port, vc_idx = Port(req // self.n_vcs), req % self.n_vcs
                self.inputs[in_port][vc_idx].out_vc = 0
                self._needs_alloc.discard(req)
            self.vc_grants += len(requesters)
            return
        holders = self.out_holder[out_port]
        free = [v for v in range(self.n_vcs) if holders[v] is None]
        if not free:
            return
        n_requesters = _N_PORTS * self.n_vcs
        flags = [False] * n_requesters
        for req in requesters:
            flags[req] = True
        arbiter = self._arbiter(self._vc_arbiters, out_port)
        for out_vc in free:
            winner = arbiter.pick(flags)
            if winner is None:
                break
            flags[winner] = False
            in_port, vc_idx = Port(winner // self.n_vcs), winner % self.n_vcs
            state = self.inputs[in_port][vc_idx]
            state.out_vc = out_vc
            holders[out_vc] = (in_port, vc_idx)
            self._needs_alloc.discard(winner)
            self.vc_grants += 1

    def switch_traversal(self, network: "Network") -> None:
        """Phase 2: switch allocation and link traversal."""
        # Gather eligible (in_port, vc) requesters per output port once.
        requests: dict[Port, list[int]] = {}
        for in_port, vcs in self.inputs.items():
            for vc_idx, state in enumerate(vcs):
                if not state.fifo or state.out_vc is None:
                    continue
                out_port = state.out_port
                if out_port is None:
                    continue
                if (
                    out_port is not Port.LOCAL
                    and self.credits[out_port][state.out_vc] <= 0
                ):
                    continue
                requests.setdefault(out_port, []).append(
                    in_port.value * self.n_vcs + vc_idx
                )
        consumed_inports: set[Port] = set()
        n_requesters = _N_PORTS * self.n_vcs
        for out_port, requesters in requests.items():
            flags = [False] * n_requesters
            n_contenders = 0
            for req in requesters:
                if Port(req // self.n_vcs) in consumed_inports:
                    continue
                flags[req] = True
                n_contenders += 1
            if not n_contenders:
                continue
            if n_contenders > 1:
                self.arb_conflicts += n_contenders - 1
            winner = self._arbiter(self._sw_arbiters, out_port).pick(flags)
            if winner is None:
                continue
            self._traverse(network, winner, out_port)
            consumed_inports.add(Port(winner // self.n_vcs))

    # -- cycle phases (event-core fast path) ---------------------------

    def allocate_and_traverse(self, network: "Network") -> None:
        """Both phases for one cycle, visiting only tracked VCs.

        Behaviourally identical to :meth:`allocate` followed by
        :meth:`switch_traversal`.  Merging the phases per router is
        safe because a router's phases only read and write its own
        state plus the network's end-of-cycle commit queues, so phase
        ordering across distinct routers cannot be observed.
        """
        slots = self._slots
        slot_port = self._slot_port
        needs = self._needs_alloc
        occupied = self._occupied
        if len(occupied) == 1 and (not needs or needs == occupied):
            # Streaming fast path: a single occupied VC is the only
            # possible winner of every arbitration it enters, so skip
            # the request grouping of the general path entirely.
            (flat,) = occupied
            state = slots[flat]
            if needs:
                # Phase 1 for the lone requester — identical to the
                # general path with a single-entry request group.
                head = state.fifo[0]
                out_port = state.out_port
                if out_port is None:
                    if not head.is_head:
                        raise ProtocolError(
                            f"router {self.node_id}: body/tail flit of "
                            f"packet {head.packet_id} at VC head without "
                            "a route"
                        )
                    out_port = self.route_fn(
                        self.node_id, head.dst, self.mesh_width
                    )
                    state.out_port = out_port
                if out_port is _LOCAL:
                    state.out_vc = 0
                    needs.discard(flat)
                    self.vc_grants += 1
                else:
                    self._grant_vcs_fast(out_port, [flat])
            out_vc = state.out_vc
            if out_vc is None:
                return
            out_port = state.out_port
            if out_port is None:
                return
            if out_port is not _LOCAL and self._credits[out_port][out_vc] <= 0:
                return
            # State update identical to pick_indices([flat]).
            self._arbiter(self._sw_arbiters, out_port)._last_winner = flat
            self._traverse(network, flat, out_port)
            return
        if needs:
            requests: dict[Port, list[int]] = {}
            for flat in sorted(needs):
                state = slots[flat]
                head = state.fifo[0]
                out_port = state.out_port
                if out_port is None:
                    if not head.is_head:
                        raise ProtocolError(
                            f"router {self.node_id}: body/tail flit of packet "
                            f"{head.packet_id} at VC head without a route"
                        )
                    out_port = self.route_fn(
                        self.node_id, head.dst, self.mesh_width
                    )
                    state.out_port = out_port
                requests.setdefault(out_port, []).append(flat)
            for out_port, reqs in requests.items():
                if out_port is _LOCAL:
                    for flat in reqs:
                        slots[flat].out_vc = 0
                        needs.discard(flat)
                    self.vc_grants += len(reqs)
                else:
                    self._grant_vcs_fast(out_port, reqs)
        if not occupied:
            return
        credits = self._credits
        sendable: dict[Port, list[int]] | None = None
        for flat in sorted(occupied):
            state = slots[flat]
            out_vc = state.out_vc
            if out_vc is None:
                continue
            out_port = state.out_port
            if out_port is None:
                continue
            if out_port is not _LOCAL and credits[out_port][out_vc] <= 0:
                continue
            if sendable is None:
                sendable = {out_port: [flat]}
            else:
                sendable.setdefault(out_port, []).append(flat)
        if sendable is None:
            return
        consumed: set[Port] | None = None
        for out_port, reqs in sendable.items():
            if consumed:
                reqs = [f for f in reqs if slot_port[f] not in consumed]
                if not reqs:
                    continue
            if len(reqs) > 1:
                self.arb_conflicts += len(reqs) - 1
            winner = self._arbiter(self._sw_arbiters, out_port).pick_indices(
                reqs
            )
            self._traverse(network, winner, out_port)
            in_port = slot_port[winner]
            if consumed is None:
                consumed = {in_port}
            else:
                consumed.add(in_port)

    def _grant_vcs_fast(self, out_port: Port, reqs: list[int]) -> None:
        """:meth:`_grant_vcs` over requester indices, no flag vector."""
        holders = self._out_holder[out_port]
        free = [v for v in range(self.n_vcs) if holders[v] is None]
        if not free:
            return
        arbiter = self._arbiter(self._vc_arbiters, out_port)
        needs = self._needs_alloc
        slots = self._slots
        for out_vc in free:
            if not reqs:
                break
            winner = arbiter.pick_indices(reqs)
            reqs.remove(winner)
            state = slots[winner]
            state.out_vc = out_vc
            holders[out_vc] = (
                self._slot_port[winner],
                self._slot_vc[winner],
            )
            needs.discard(winner)
            self.vc_grants += 1

    def _traverse(
        self, network: "Network", flat: int, out_port: Port
    ) -> None:
        """Move the winning flit of slot ``flat`` across ``out_port``."""
        state = self._slots[flat]
        fifo = state.fifo
        flit = fifo.popleft()
        self.buffered_flits -= 1
        if not fifo:
            self._occupied.discard(flat)
        out_vc = state.out_vc
        if out_vc is None:
            raise ProtocolError("traversal without an allocated VC")
        local = out_port is _LOCAL
        if not local:
            port_credits = self._credits[out_port]
            credits_left = port_credits[out_vc] - 1
            port_credits[out_vc] = credits_left
            if credits_left < 0:
                raise ProtocolError(
                    f"router {self.node_id} port {out_port.name} "
                    f"VC {out_vc}: credit underflow"
                )
        network.transmit(self, out_port, out_vc, flit)
        n_vcs = self.n_vcs
        if flat >= n_vcs:  # non-LOCAL input port: return the credit
            in_port, in_vc = divmod(flat, n_vcs)
            network._queue_credit(self.node_id, in_port, in_vc)
        if flit.is_tail:
            if not local:
                self._out_holder[out_port][out_vc] = None
            state.out_port = None
            state.out_vc = None
            if fifo:
                self._needs_alloc.add(flat)

    # -- buffer interface (used by the network and the NIs) ------------

    def accept_flit(self, in_port: Port, vc_idx: int, flit: Flit) -> None:
        """Append an arriving flit to an input VC buffer."""
        self._accept_flat(in_port * self.n_vcs + vc_idx, flit)

    def _accept_flat(self, flat: int, flit: Flit) -> None:
        """:meth:`accept_flit` by flat slot index."""
        slots = self._slots
        if slots is None:
            slots = self._materialize()
        state = slots[flat]
        if state is None:
            state = slots[flat] = VCState(self.vc_depth)
        elif len(state.fifo) >= state.capacity:
            raise ProtocolError(
                f"router {self.node_id} port {self._slot_port[flat].name} "
                f"VC {self._slot_vc[flat]}: "
                "buffer overflow (credit protocol violated)"
            )
        state.fifo.append(flit)
        self.buffered_flits += 1
        if self.buffered_flits > self.peak_occupancy:
            self.peak_occupancy = self.buffered_flits
        self._occupied.add(flat)
        if state.out_vc is None:
            self._needs_alloc.add(flat)

    def local_vc_space(self, vc_idx: int) -> int:
        """Free slots in the local (injection) input VC buffer."""
        slots = self._slots
        state = None if slots is None else slots[vc_idx]
        return self.vc_depth if state is None else state.free_slots

    @property
    def is_active(self) -> bool:
        """True when any input VC holds flits."""
        return self.buffered_flits > 0
