"""The NoC: mesh of routers + NIs, the cycle loop, and statistics.

The network advances in deterministic phases per cycle:

1. every active router runs route computation / VC allocation,
2. every active router runs switch allocation + link traversal
   (BTs recorded here, arrivals and credits queued),
3. NIs inject pending flits into their router's local port,
4. queued arrivals and credits commit, becoming visible next cycle.

This gives one-cycle link traversal and a one-cycle credit loop —
the granularity at which the paper's BT phenomenon lives (consecutive
flits on the same physical link).

Two cycle-loop implementations ("cores") produce bit-identical results:

* ``"event"`` (default) — the fast core.  Activity is tracked in
  explicit sets (routers gain membership when a flit is accepted or
  injected, lose it when their buffers drain; NIs when packets are
  queued / fully injected), so per-cycle work is proportional to the
  *events* of that cycle, not to the mesh size or the number of
  in-flight flits.  Link arrivals live in a min-heap keyed by
  ``(due_cycle, sequence)`` — sequence numbers preserve the exact
  commit order of the reference list for equal due cycles — and when
  nothing is active the drivers :meth:`Network.fast_forward` the clock
  straight to the next heap event instead of stepping through idle
  cycles.  ``stats.cycles``, latencies, and per-link BTs are exactly
  those of the stepped result; :attr:`Network.steps_executed` counts
  the cycles actually *stepped*, so ``steps_executed <= stats.cycles``
  with equality only when no idle cycle existed to skip.

* ``"stepped"`` — the retained reference core: scans every router and
  NI each cycle and keeps arrivals in a plain list that is re-scanned
  for due flits every cycle.  It exists as the oracle for the
  equivalence suite (``tests/test_noc_eventcore.py``).

Both cores share the routers, the NIs, and :meth:`Network.transmit`
(per-hop BT recording with per-(router, outport) recorder handles that
are resolved once, not per hop).

Construction builds no per-node containers.  The neighbour table, the
recorder handles and the upstream credit handles are flat lists
indexed ``node * len(Port) + port``; the table holds ints or ``None``,
the handles start as ``None`` and bind on a link's first flit or
credit, and routers and NIs build their own state on first use (see
:mod:`repro.noc.router`).  An
idle node thus costs its router and NI object only, which keeps the
live object graph — what every full cyclic-GC pass walks — in
proportion to the traffic, not to the mesh.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from typing import Any, Sequence

from repro.noc.flit import Flit, Packet
from repro.noc.interface import NetworkInterface
from repro.noc.recorder import LinkRecorder, TransitionLedger
from repro.noc.router import ProtocolError, Router
from repro.noc.routing import OPPOSITE, Port, routing_by_name

_LOCAL = Port.LOCAL
_N_PORTS = len(Port)

__all__ = [
    "NoCConfig",
    "NoCStats",
    "percentile",
    "Network",
    "SimulationTimeout",
    "CORES",
]


class SimulationTimeout(RuntimeError):
    """Raised when the network fails to drain within the cycle budget."""


#: The cycle-loop implementations a Network can run on.
CORES = ("event", "stepped")


@dataclass(frozen=True)
class NoCConfig:
    """Structural and measurement parameters of the NoC.

    Defaults mirror the paper's setup (Sec. V-B): X-Y routing, 4 VCs
    with 4-flit buffers, 512-bit links (16 float-32 values).

    Attributes:
        width: mesh columns.
        height: mesh rows.
        n_vcs: virtual channels per input port.
        vc_depth: buffer depth per VC, in flits.
        link_width: link (= flit payload) width in bits.
        routing: "xy" (paper) or "yx".
        record_ejection: count BTs on router->NI ejection links too
            (router outports, per Fig. 8's "Rx Outport y" naming).
        record_injection: also count NI->router injection links.
        include_header_bits: fold a side-band header word into the
            recorded bit image (ablation).
        injection_rate: flits each NI may inject per cycle.
        link_latency: cycles a flit spends crossing a link (>= 1;
            models deeper router/link pipelines).
        core: pin the cycle-loop core ("event" or "stepped") for every
            network built from this config; None means ``"event"``.
            There is no process-wide default any more: None used to
            defer to a mutable module-level setting, so a network's
            core could depend on what ran earlier in the process.
            Being a config field makes the core a sweepable campaign
            axis (``repro sweep --cores``) that participates in cache
            keys.
    """

    width: int = 4
    height: int = 4
    n_vcs: int = 4
    vc_depth: int = 4
    link_width: int = 512
    routing: str = "xy"
    record_ejection: bool = True
    record_injection: bool = False
    include_header_bits: bool = False
    injection_rate: int = 1
    link_latency: int = 1
    core: str | None = None

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("mesh dimensions must be positive")
        if self.n_vcs <= 0 or self.vc_depth <= 0:
            raise ValueError("n_vcs and vc_depth must be positive")
        if self.link_width <= 0:
            raise ValueError("link_width must be positive")
        if self.link_latency < 1:
            raise ValueError("link_latency must be at least 1")
        if self.core is not None and self.core not in CORES:
            raise ValueError(
                f"unknown network core {self.core!r}; use one of {CORES}"
            )

    @property
    def n_nodes(self) -> int:
        return self.width * self.height

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict; exact inverse of :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "NoCConfig":
        """Rebuild a config from :meth:`to_dict` output (strict keys)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown NoCConfig fields: {sorted(unknown)}")
        return cls(**data)


def _flat_neighbors(width: int, height: int) -> list[int | None]:
    """:func:`repro.noc.topology.mesh_neighbors` as one flat list.

    Entry ``node * len(Port) + port`` is the neighbour of ``node`` on
    ``port``, or ``None`` where the mesh has no such link (LOCAL and the
    edges).  Built by slice assignment, so it takes a fixed number of
    Python operations whatever the mesh size.
    """
    n = width * height
    p = _N_PORTS
    row = width * p
    table: list[int | None] = [None] * (n * p)
    # Node k has k - width to the north, k + width to the south, and
    # k -/+ 1 to the west/east except on the first/last column.
    table[row + Port.NORTH::p] = range(n - width)
    table[Port.SOUTH:(n - width) * p:p] = range(width, n)
    table[p + Port.WEST::p] = range(n - 1)
    table[Port.EAST:(n - 1) * p:p] = range(1, n)
    table[Port.WEST::row] = [None] * height
    table[row - p + Port.EAST::row] = [None] * height
    return table


def percentile(values: Sequence[int | float], p: float) -> float:
    """The ``p``-th percentile of ``values`` (linear interpolation).

    Matches ``numpy.percentile``'s default method so serving reports
    can be property-tested against it, without making the core network
    module depend on numpy.  Returns 0.0 for an empty sequence.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo]) + (float(ordered[hi]) - float(ordered[lo])) * frac


@dataclass
class NoCStats:
    """Aggregated simulation statistics.

    Attributes:
        cycles: simulated cycles.
        packets_injected / packets_delivered: packet counts.
        flits_injected / flit_hops: flit counts (hops include every
            link traversal, so one flit crossing 3 links counts 3).
        total_bit_transitions: the Fig. 8 NoC-wide BT sum.
        packet_latencies: per-delivered-packet latency in cycles.
    """

    cycles: int = 0
    packets_injected: int = 0
    packets_delivered: int = 0
    flits_injected: int = 0
    flit_hops: int = 0
    total_bit_transitions: int = 0
    packet_latencies: list[int] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        if not self.packet_latencies:
            return 0.0
        return sum(self.packet_latencies) / len(self.packet_latencies)

    def latency_percentile(self, p: float) -> float:
        """``p``-th percentile of delivered-packet latency in cycles."""
        return percentile(self.packet_latencies, p)

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95_latency(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def transitions_per_flit_hop(self) -> float:
        if self.flit_hops == 0:
            return 0.0
        return self.total_bit_transitions / self.flit_hops


class Network:
    """A complete NoC instance ready to carry packets.

    Args:
        config: structural parameters.
        core: cycle-loop implementation, ``"event"`` or ``"stepped"``;
            ``None`` uses ``config.core`` when pinned, else ``"event"``
            (formerly a process-wide default that callers could change).
    """

    def __init__(self, config: NoCConfig, core: str | None = None) -> None:
        self.config = config
        if core is None:
            core = config.core or "event"
        if core not in CORES:
            raise ValueError(
                f"unknown network core {core!r}; use one of {CORES}"
            )
        self.core = core
        self.event_core = core == "event"
        route_fn = routing_by_name(config.routing)
        self.routers = [
            Router(
                node_id=node,
                mesh_width=config.width,
                n_vcs=config.n_vcs,
                vc_depth=config.vc_depth,
                route_fn=route_fn,
            )
            for node in range(config.n_nodes)
        ]
        self.nis = [
            NetworkInterface(
                node_id=node,
                router=self.routers[node],
                flits_per_cycle=config.injection_rate,
            )
            for node in range(config.n_nodes)
        ]
        self.ledger = TransitionLedger()
        self.stats = NoCStats()
        self.cycle = 0
        #: Cycles actually executed by :meth:`step`; on the event core
        #: ``steps_executed <= stats.cycles`` because idle cycles are
        #: fast-forwarded over rather than stepped.
        self.steps_executed = 0
        # Observability counters (plain ints; see metrics_snapshot()).
        # idle_cycles_skipped/fast_forwards track the event core's idle
        # jumps; heap_pushes/heap_pops count multi-cycle-link arrival
        # heap traffic (zero at the default link latency of 1, where
        # the same-cycle list bypasses the heap — queue_commits counts
        # those commits instead).
        self.idle_cycles_skipped = 0
        self.fast_forwards = 0
        self.heap_pushes = 0
        self.heap_pops = 0
        self.queue_commits = 0
        self._in_flight: dict[int, Packet] = {}
        # Arrivals are (due, seq, node, in_port, vc_idx, flit) tuples in
        # both cores; the event core keeps them heap-ordered, the
        # stepped core scans the plain list every cycle.  The monotonic
        # seq preserves the list's commit order for equal due cycles.
        self._arrivals: list[tuple[int, int, int, Port, int, Flit]] = []
        self._arrival_seq = itertools.count()
        # Event-core shortcut for the (default) one-cycle links: every
        # arrival queued during a step commits at the end of that same
        # step, so a plain append-ordered list replaces the heap and
        # its per-hop push/pop entirely.
        self._same_cycle_arrivals: list[tuple[int, int, Flit]] = []
        self._ejections: list[tuple[int, Flit]] = []
        self._credits: list[tuple[list[int], int, int, int]] = []
        # Event-core activity tracking (unused by the stepped core).
        self._active_routers: set[int] = set()
        self._pending_nis: set[int] = set()
        # Per-hop fast paths: config scalars hoisted out of transmit(),
        # a neighbour table and lazily bound per-link recorder handles,
        # both flat and indexed by node * len(Port) + port value, so the
        # hot path never formats a link name or hashes into the ledger
        # dict.  Handles are bound on first traversal (not precreated)
        # so the ledger keeps containing exactly the links that carried
        # traffic.
        self._record_ejection = config.record_ejection
        self._record_injection = config.record_injection
        self._include_header = config.include_header_bits
        self._link_latency = config.link_latency
        n_links = config.n_nodes * _N_PORTS
        self._neighbor_of = _flat_neighbors(config.width, config.height)
        self._recorders: list[LinkRecorder | None] = [None] * n_links
        self._inject_recorders: list[LinkRecorder | None] = (
            [None] * config.n_nodes
        )
        self._opposite_of: list[Port | None] = [
            OPPOSITE.get(port) for port in Port
        ]
        # Arrival slot base per outgoing port: the receiving router's
        # flat slot index is base + out_vc (event-core arrival tuples
        # carry flat indices, not (Port, vc) pairs).
        self._opposite_flat_base: list[int] = [
            0 if opp is None else opp.value * config.n_vcs
            for opp in self._opposite_of
        ]
        # Per (node, in-port) handle on the upstream router's credit
        # counters for the opposite outport, resolved on that port's
        # first credit: the credit return path then touches no
        # router/dict lookups per hop.
        self._upstream_credits: list[list[int] | None] = [None] * n_links
        # Optional per-link wire-image trace (see repro.workloads.traces
        # and repro.noc.recorder.TraceRecorder): any object with
        # record(link_name, bits, cycle, vc, flit), called with five
        # positional arguments per recorded hop; if it also exposes
        # record_send(cycle, packet), every packet injection event is
        # captured too (what trace replay re-injects).
        self.trace_collector = None

    # -- traffic interface ---------------------------------------------

    def send_packet(self, packet: Packet) -> None:
        """Queue a packet at its source NI for injection."""
        if not 0 <= packet.src < self.config.n_nodes:
            raise ValueError(f"source node {packet.src} outside the mesh")
        if not 0 <= packet.dst < self.config.n_nodes:
            raise ValueError(f"destination node {packet.dst} outside the mesh")
        for flit in packet.flits:
            if flit.width != self.config.link_width:
                raise ValueError(
                    f"flit width {flit.width} != link width "
                    f"{self.config.link_width}"
                )
        if packet.packet_id in self._in_flight:
            raise ValueError(
                f"packet id {packet.packet_id} is already in flight"
            )
        collector = self.trace_collector
        if collector is not None:
            send_hook = getattr(collector, "record_send", None)
            if send_hook is not None:
                send_hook(self.cycle, packet)
        self._in_flight[packet.packet_id] = packet
        self.nis[packet.src].queue_packet(packet)
        self._pending_nis.add(packet.src)
        self.stats.packets_injected += 1
        self.stats.flits_injected += len(packet.flits)

    def attach_sink(self, node: int, sink: Any) -> None:
        """Set the packet-delivery callback of a node's NI."""
        self.nis[node].sink = sink

    # -- router-facing hooks ---------------------------------------------

    def transmit(
        self, router: Router, out_port: Port, out_vc: int, flit: Flit
    ) -> None:
        """Carry one flit over ``router``'s ``out_port`` link."""
        node = router.node_id
        stats = self.stats
        # Port is an IntEnum: indexing lists with it directly avoids
        # the enum .value descriptor on the per-hop path.
        local = out_port is _LOCAL
        link = node * _N_PORTS + out_port
        if not local or self._record_ejection:
            recorder = self._recorders[link]
            if recorder is None:
                recorder = self.ledger.recorder_for(
                    f"R{node}.{out_port.name}"
                )
                self._recorders[link] = recorder
            # With header bits excluded (the default) the wire image is
            # exactly the payload — skip the wire_bits() call per hop.
            bits = (
                flit.wire_bits(True) if self._include_header else flit.payload
            )
            # LinkRecorder.record() unrolled: one flit hop is the
            # hottest line of the whole simulator.
            prev = recorder.previous
            caused = 0 if prev is None else (prev ^ bits).bit_count()
            recorder.transitions += caused
            recorder.flits += 1
            recorder.previous = bits
            ledger = self.ledger
            ledger._total_transitions += caused
            ledger._total_flits += 1
            stats.total_bit_transitions += caused
            collector = self.trace_collector
            if collector is not None:
                collector.record(recorder.name, bits, self.cycle, out_vc, flit)
        stats.flit_hops += 1
        if local:
            self._ejections.append((node, flit))
            return
        neighbor = self._neighbor_of[link]
        if neighbor is None:
            raise ValueError(
                f"router {node} has no {out_port.name} link"
            )
        if self.event_core:
            flat = self._opposite_flat_base[out_port] + out_vc
            if self._link_latency == 1:
                self._same_cycle_arrivals.append((neighbor, flat, flit))
                return
            self.heap_pushes += 1
            heappush(
                self._arrivals,
                (
                    self.cycle + self._link_latency - 1,
                    next(self._arrival_seq),
                    neighbor,
                    flat,
                    flit,
                ),
            )
            return
        self._arrivals.append(
            (
                self.cycle + self._link_latency - 1,
                next(self._arrival_seq),
                neighbor,
                self._opposite_of[out_port.value],
                out_vc,
                flit,
            )
        )

    def queue_credit(self, router: Router, in_port: Port, vc_idx: int) -> None:
        """Return a buffer credit to the upstream router."""
        self._queue_credit(router.node_id, in_port.value, vc_idx)

    def _queue_credit(self, node: int, port_idx: int, vc_idx: int) -> None:
        """:meth:`queue_credit` by node id and port value."""
        link = node * _N_PORTS + port_idx
        credit_list = self._upstream_credits[link]
        if credit_list is None:
            upstream = self._neighbor_of[link]
            if upstream is None:
                raise ValueError(
                    f"router {node} has no upstream on {Port(port_idx).name}"
                )
            credit_list = self.routers[upstream].credits[
                self._opposite_of[port_idx]
            ]
            self._upstream_credits[link] = credit_list
        self._credits.append((credit_list, vc_idx, node, port_idx))

    # -- cycle loop --------------------------------------------------------

    def step(self) -> None:
        """Advance the network by one cycle."""
        if self.event_core:
            self._step_event()
        else:
            self._step_reference()

    def _step_event(self) -> None:
        """One cycle of the event core: touch only what is active."""
        cycle = self.cycle
        routers = self.routers
        active = self._active_routers
        if active:
            for node in sorted(active):
                router = routers[node]
                router.allocate_and_traverse(self)
                if not router.buffered_flits:
                    active.discard(node)
        if self._pending_nis:
            record = self._record_injection
            for node in sorted(self._pending_nis):
                ni = self.nis[node]
                injected = ni.try_inject(cycle)
                if injected:
                    active.add(node)
                    if record:
                        self._record_injected(node, injected)
                if not ni.has_pending_tx:
                    self._pending_nis.discard(node)
        same_cycle = self._same_cycle_arrivals
        if same_cycle:
            self.queue_commits += len(same_cycle)
            for node, flat, flit in same_cycle:
                routers[node]._accept_flat(flat, flit)
                active.add(node)
            same_cycle.clear()
        arrivals = self._arrivals
        while arrivals and arrivals[0][0] <= cycle:
            _, _, node, flat, flit = heappop(arrivals)
            self.heap_pops += 1
            routers[node]._accept_flat(flat, flit)
            active.add(node)
        if self._ejections:
            self._commit_ejections(cycle)
        if self._credits:
            self._commit_credits()
        self.cycle = cycle + 1
        self.stats.cycles = self.cycle
        self.steps_executed += 1

    def _step_reference(self) -> None:
        """One cycle of the retained reference core: scan everything."""
        active = [r for r in self.routers if r.is_active]
        for router in active:
            router.allocate()
        for router in active:
            router.switch_traversal(self)
        for ni in self.nis:
            if ni.has_pending_tx:
                injected = ni.try_inject(self.cycle)
                if self._record_injection and injected:
                    self._record_injected(ni.node_id, injected)
        still_in_flight: list[tuple[int, int, int, Port, int, Flit]] = []
        for arrival in self._arrivals:
            if arrival[0] <= self.cycle:
                _, _, node, in_port, vc_idx, flit = arrival
                self.routers[node].accept_flit(in_port, vc_idx, flit)
            else:
                still_in_flight.append(arrival)
        self._arrivals[:] = still_in_flight
        self._commit_ejections(self.cycle)
        if self._credits:
            self._commit_credits()
        self.cycle += 1
        self.stats.cycles = self.cycle
        self.steps_executed += 1

    def _record_injected(self, node: int, injected: list[Flit]) -> None:
        """Account NI->router injection-link BTs for injected flits."""
        recorder = self._inject_recorders[node]
        if recorder is None:
            recorder = self.ledger.recorder_for(f"NI{node}.INJECT")
            self._inject_recorders[node] = recorder
        include_header = self._include_header
        for flit in injected:
            self.stats.total_bit_transitions += recorder.record(
                flit.wire_bits(True) if include_header else flit.payload
            )

    def _commit_ejections(self, cycle: int) -> None:
        """Deliver ejected flits to their NIs; complete tail packets."""
        stats = self.stats
        for node, flit in self._ejections:
            packet = None
            if flit.is_tail:
                packet = self._in_flight.pop(flit.packet_id, None)
            self.nis[node].receive_flit(flit, packet, cycle)
            if flit.is_tail and packet is not None:
                stats.packets_delivered += 1
                stats.packet_latencies.append(packet.latency)
        self._ejections.clear()

    def _commit_credits(self) -> None:
        """Return queued credits to their upstream routers."""
        vc_depth = self.config.vc_depth
        for credit_list, vc_idx, node, port_idx in self._credits:
            credit_list[vc_idx] += 1
            if credit_list[vc_idx] > vc_depth:
                upstream = self._neighbor_of[node * _N_PORTS + port_idx]
                out_port = self._opposite_of[port_idx]
                raise ProtocolError(
                    f"credit overflow at router {upstream} "
                    f"port {out_port.name}"
                )
        self._credits.clear()

    # -- idle-cycle fast-forward ---------------------------------------

    @property
    def is_idle(self) -> bool:
        """Event core: True when no router or NI can act this cycle.

        Queued arrivals with a future due cycle may still exist; they
        are the events :meth:`fast_forward` jumps to.
        """
        return not (
            self._active_routers or self._pending_nis or self._ejections
        )

    def next_internal_event(self) -> int | None:
        """Due cycle of the earliest queued link arrival, if any."""
        return self._arrivals[0][0] if self._arrivals else None

    def fast_forward(self, target: int) -> None:
        """Jump the clock to ``target`` without stepping idle cycles.

        Only meaningful on the event core while :attr:`is_idle`; a
        target at or behind the current cycle is a no-op.  The stepped
        result is preserved exactly because an idle cycle mutates
        nothing but the cycle counter.
        """
        if target > self.cycle:
            self.idle_cycles_skipped += target - self.cycle
            self.fast_forwards += 1
            self.cycle = target
            self.stats.cycles = target

    # -- observability -----------------------------------------------------

    def metrics_snapshot(self) -> dict[str, int]:
        """Flat counter snapshot of the network's observability state.

        Families: ``event.*`` (cycle-loop core counters, deterministic
        simulation facts regardless of which core ran) and ``router.*``
        (aggregated over the mesh; ``.peak`` names merge by max, the
        rest by sum — see :mod:`repro.obs.metrics`).
        """
        arb_conflicts = vc_grants = peak = 0
        for router in self.routers:
            arb_conflicts += router.arb_conflicts
            vc_grants += router.vc_grants
            if router.peak_occupancy > peak:
                peak = router.peak_occupancy
        return {
            "event.steps_executed": self.steps_executed,
            "event.idle_cycles_skipped": self.idle_cycles_skipped,
            "event.fast_forwards": self.fast_forwards,
            "event.heap_pushes": self.heap_pushes,
            "event.heap_pops": self.heap_pops,
            "event.queue_commits": self.queue_commits,
            "router.arb_conflicts": arb_conflicts,
            "router.vc_grants": vc_grants,
            "router.buffer_occupancy.peak": peak,
        }

    # -- drivers -----------------------------------------------------------

    @property
    def has_work(self) -> bool:
        """True while any flit is buffered, queued, or in flight."""
        if self._arrivals or self._same_cycle_arrivals or self._ejections:
            return True
        if self.event_core:
            return bool(self._active_routers or self._pending_nis)
        if any(r.is_active for r in self.routers):
            return True
        return any(ni.has_pending_tx for ni in self.nis)

    def run_until_drained(self, max_cycles: int = 1_000_000) -> NoCStats:
        """Step until all traffic is delivered (or the budget runs out)."""
        event = self.event_core
        while self.has_work:
            if event and self.is_idle and self._arrivals:
                self.fast_forward(min(self._arrivals[0][0], max_cycles))
            if self.cycle >= max_cycles:
                raise SimulationTimeout(
                    f"network not drained after {max_cycles} cycles "
                    f"({self.stats.packets_delivered} of "
                    f"{self.stats.packets_injected} packets delivered)"
                )
            self.step()
        return self.stats
