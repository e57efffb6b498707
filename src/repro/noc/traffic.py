"""Synthetic traffic patterns for standalone NoC evaluation.

The accelerator experiments exercise the NoC with DNN traffic; these
generators provide the standard synthetic patterns used to validate NoC
implementations (uniform random, transpose, bit-complement, hotspot),
with payload generators matching the BT study (random bits, real
weights, or all-zero control payloads).

Each generator yields (cycle, packet) injection events; the
:func:`run_synthetic` driver injects them on schedule and drains the
network, returning the usual statistics.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from repro.noc.flit import Packet, make_packet
from repro.noc.network import Network, NoCConfig, NoCStats
from repro.noc.recorder import score_hops
from repro.noc.topology import coordinates, node_id

__all__ = [
    "TrafficPattern",
    "SyntheticTrafficConfig",
    "destination_for",
    "generate_traffic",
    "poisson_arrivals",
    "trace_arrivals",
    "drive_schedule",
    "drive_synthetic",
    "run_synthetic",
]


class TrafficPattern(enum.Enum):
    """Standard destination mappings."""

    UNIFORM_RANDOM = "uniform"
    TRANSPOSE = "transpose"
    BIT_COMPLEMENT = "complement"
    HOTSPOT = "hotspot"


@dataclass(frozen=True)
class SyntheticTrafficConfig:
    """Parameters of a synthetic run.

    Attributes:
        pattern: destination mapping.
        n_packets: total packets to inject.
        flits_per_packet: packet length.
        injection_window: packets are injected at uniformly random
            cycles in [0, injection_window).
        hotspot_node: destination for HOTSPOT (default: mesh centre).
        payload: "random" bits, "zero", or "counter" payload contents.
        seed: RNG seed.
    """

    pattern: TrafficPattern = TrafficPattern.UNIFORM_RANDOM
    n_packets: int = 100
    flits_per_packet: int = 4
    injection_window: int = 200
    hotspot_node: int | None = None
    payload: str = "random"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_packets <= 0 or self.flits_per_packet <= 0:
            raise ValueError("traffic volume must be positive")
        if self.payload not in ("random", "zero", "counter"):
            raise ValueError(f"unknown payload kind {self.payload!r}")

    # -- serialization ---------------------------------------------------
    #
    # The campaign engine hashes traffic configs into cache keys and
    # persists them in JSONL stores, so the dict form must be stable,
    # canonical (the pattern enum as its string value) and loss-free.

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict; exact inverse of :meth:`from_dict`."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, TrafficPattern):
                value = value.value
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SyntheticTrafficConfig":
        """Rebuild a config from :meth:`to_dict` output (strict keys)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SyntheticTrafficConfig fields: {sorted(unknown)}"
            )
        kwargs = dict(data)
        if "pattern" in kwargs and not isinstance(
            kwargs["pattern"], TrafficPattern
        ):
            kwargs["pattern"] = TrafficPattern(kwargs["pattern"])
        return cls(**kwargs)


def destination_for(
    src: int,
    pattern: TrafficPattern,
    width: int,
    height: int,
    rng: np.random.Generator,
    hotspot_node: int | None = None,
) -> int:
    """Destination node for a source under a traffic pattern."""
    n_nodes = width * height
    if pattern is TrafficPattern.UNIFORM_RANDOM:
        return int(rng.integers(0, n_nodes))
    if pattern is TrafficPattern.TRANSPOSE:
        x, y = coordinates(src, width)
        if width != height:
            raise ValueError("transpose needs a square mesh")
        return node_id(y, x, width)
    if pattern is TrafficPattern.BIT_COMPLEMENT:
        return n_nodes - 1 - src
    if pattern is TrafficPattern.HOTSPOT:
        if hotspot_node is None:
            hotspot_node = node_id(width // 2, height // 2, width)
        return hotspot_node
    raise ValueError(f"unhandled pattern {pattern}")


def _payload_words(
    kind: str, link_width: int, rng: np.random.Generator, counter: int
) -> int:
    if kind == "zero":
        return 0
    if kind == "counter":
        return counter & ((1 << link_width) - 1)
    # random: draw link_width bits from full 64-bit chunks (an
    # exclusive high of 2**63 here once left bit 63 of every chunk
    # permanently zero, skewing random-payload BT numbers low).
    payload = 0
    for shift in range(0, link_width, 64):
        payload |= int(rng.integers(0, 2**64, dtype=np.uint64)) << shift
    return payload & ((1 << link_width) - 1)


def generate_traffic(
    config: SyntheticTrafficConfig, noc: NoCConfig
) -> Iterator[tuple[int, Packet]]:
    """Yield (injection_cycle, packet) events sorted by cycle."""
    rng = np.random.default_rng(config.seed)
    events = []
    for i in range(config.n_packets):
        src = int(rng.integers(0, noc.n_nodes))
        dst = destination_for(
            src,
            config.pattern,
            noc.width,
            noc.height,
            rng,
            config.hotspot_node,
        )
        # Stride must cover the packet length or counter payloads
        # collide across packets; clamped at 16 so golden traffic with
        # <=16 flits keeps its pinned byte-identical payload sequence.
        stride = max(16, config.flits_per_packet)
        payloads = [
            _payload_words(
                config.payload, noc.link_width, rng, i * stride + f
            )
            for f in range(config.flits_per_packet)
        ]
        cycle = int(rng.integers(0, config.injection_window))
        # Packet ids number this call's packets from 0.
        packet = make_packet(src, dst, payloads, noc.link_width, packet_id=i)
        events.append((cycle, packet))
    events.sort(key=lambda e: e[0])
    yield from events


def poisson_arrivals(
    rate: float, n: int, rng: np.random.Generator
) -> list[int]:
    """``n`` open-loop arrival cycles with exponential inter-arrivals.

    Gaps are drawn from Exp(1/rate) and rounded to whole cycles with a
    floor of one, so arrivals are strictly increasing and the process
    stays well defined at high rates.  Pre-generating the schedule
    (rather than sampling inside the simulation loop) keeps arrivals
    identical across the event and stepped NoC cores.  ``rate <= 0``
    or ``n <= 0`` yields no arrivals.
    """
    if rate <= 0 or n <= 0:
        return []
    cycle = 0
    arrivals = []
    for _ in range(n):
        cycle += max(1, int(round(rng.exponential(1.0 / rate))))
        arrivals.append(cycle)
    return arrivals


def trace_arrivals(inter_arrivals: list[int], n: int) -> list[int]:
    """``n`` arrival cycles from a recorded inter-arrival gap trace.

    The gap list is cycled if shorter than ``n`` (standard trace-replay
    semantics).  Gaps are clamped to at least one cycle.
    """
    if n <= 0 or not inter_arrivals:
        return []
    cycle = 0
    arrivals = []
    for i in range(n):
        cycle += max(1, int(inter_arrivals[i % len(inter_arrivals)]))
        arrivals.append(cycle)
    return arrivals


def drive_schedule(
    network: Network,
    events: list[tuple[int, Packet]],
    max_cycles: int = 500_000,
) -> Network:
    """Inject (cycle, packet) events on schedule and drain the network.

    The shared injection loop of synthetic traffic and trace replay:
    events must be sorted by cycle (recorded schedules are — the
    network clock is monotonic).  Returns the drained network, its
    hop log scored into ``stats.total_bit_transitions``.
    """
    idx = 0
    n_events = len(events)
    event = network.event_core
    while idx < n_events or network.has_work:
        if event and network.is_idle:
            # Idle gap between scheduled injections (or before a
            # multi-cycle link arrival matures): jump the clock to the
            # next event instead of stepping empty cycles.  Clamped to
            # max_cycles so the timeout fires at the same cycle as a
            # stepped run.
            target = max_cycles
            if idx < n_events:
                target = min(target, events[idx][0])
            arrival = network.next_internal_event()
            if arrival is not None:
                target = min(target, arrival)
            network.fast_forward(target)
        while idx < n_events and events[idx][0] <= network.cycle:
            network.send_packet(events[idx][1])
            idx += 1
        if network.cycle >= max_cycles:
            raise RuntimeError(
                f"scheduled run exceeded {max_cycles} cycles"
            )
        network.step()
    network.stats.total_bit_transitions = score_hops(network.hops).total
    return network


def drive_synthetic(
    config: SyntheticTrafficConfig,
    noc_config: NoCConfig,
    max_cycles: int = 500_000,
) -> Network:
    """Drive a synthetic workload through a fresh network.

    Returns the drained :class:`Network` so callers can read both the
    aggregate ``stats`` and the hop log (the campaign engine's per-link
    pivots and trace captures read the latter).
    """
    network = Network(noc_config)
    pending = list(generate_traffic(config, noc_config))
    return drive_schedule(network, pending, max_cycles=max_cycles)


def run_synthetic(
    config: SyntheticTrafficConfig,
    noc_config: NoCConfig,
    max_cycles: int = 500_000,
) -> NoCStats:
    """Stats-only convenience wrapper around :func:`drive_synthetic`."""
    return drive_synthetic(config, noc_config, max_cycles).stats
