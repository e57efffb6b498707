"""Serving-fleet execution: partitions, arrivals, replay, accounting.

:func:`run_serving` simulates a :class:`~repro.serving.fleet.ServingConfig`
fleet on one NoC:

1. The mesh is split into per-tenant partitions
   (:func:`repro.accelerator.mapping.partition_mesh`).
2. Each tenant's *request template* is built once.  Model tenants run
   one partition-restricted inference through
   :class:`~repro.accelerator.simulator.AcceleratorSimulator`; the
   send log of its network's hop log *is* the template, so replaying
   it reproduces the inference's wire traffic exactly (per-link BTs
   are shift-invariant: a constant shift of every injection cycle
   preserves all relative timing and hence every per-link flit
   sequence).  Synthetic tenants get a burst of pattern traffic per
   request.
3. Open-loop arrivals are pre-generated per tenant
   (:func:`repro.noc.traffic.poisson_arrivals` /
   :func:`~repro.noc.traffic.trace_arrivals`) — sampling outside the
   simulation loop keeps the schedule identical across the event and
   stepped cores.
4. One merged drive loop injects every admitted request's packets on
   schedule; per-tenant admission caps and batch windows apply at
   arrival time.
5. Delivery sinks account per-packet and per-request latency per
   tenant.  After the drain, :func:`~repro.noc.recorder.score_hops`
   scores the network's hop log once, attributing every link
   transition to the tenant that owns the flit causing it, so tenant
   BTs sum exactly to the network total.

A single-tenant fleet given the whole mesh with zero background
arrivals therefore reproduces the corresponding ``model`` job's BT
totals bit-exactly — the conformance anchor pinned in the golden
suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any

import numpy as np

from repro.accelerator.config import AcceleratorConfig, link_width_for
from repro.accelerator.mapping import partition_mesh, placement_for_nodes
from repro.accelerator.simulator import AcceleratorSimulator
from repro.dnn.datasets import synthetic_digits, synthetic_shapes
from repro.dnn.models import ModelSpec, build_model
from repro.noc.flit import Packet, make_packet
from repro.noc.network import (
    Network,
    NoCConfig,
    SimulationTimeout,
    percentile,
)
from repro.noc.recorder import score_hops
from repro.noc.topology import manhattan_distance, node_id
from repro.noc.traffic import (
    TrafficPattern,
    destination_for,
    poisson_arrivals,
    trace_arrivals,
)
from repro.noc.traffic import _payload_words
from repro.obs.metrics import active_registry, metrics_suspended
from repro.ordering.strategies import OrderingMethod
from repro.serving.fleet import ServingConfig, TenantSpec
from repro.workloads.streams import trained_lenet_model

__all__ = ["TenantStats", "ServingResult", "run_serving"]

#: (cycle, src, dst, payloads) — one template injection event.
_Event = tuple[int, int, int, tuple[int, ...]]


@dataclass
class TenantStats:
    """Per-tenant serving outcome.

    Request latency is measured from *arrival* to last-packet delivery,
    so batching delay counts against the tenant; packet latency is the
    usual injection-to-ejection cycle count.
    """

    name: str
    workload: str
    nodes: tuple[int, ...]
    requests_arrived: int = 0
    requests_admitted: int = 0
    requests_rejected: int = 0
    requests_completed: int = 0
    packets_injected: int = 0
    request_latencies: list[int] = field(default_factory=list)
    packet_latencies: list[int] = field(default_factory=list)
    bit_transitions: int = 0
    flit_hops: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON summary (the campaign record's per-tenant row)."""
        return {
            "name": self.name,
            "workload": self.workload,
            "n_nodes": len(self.nodes),
            "requests_arrived": self.requests_arrived,
            "requests_admitted": self.requests_admitted,
            "requests_rejected": self.requests_rejected,
            "requests_completed": self.requests_completed,
            "packets_injected": self.packets_injected,
            "bit_transitions": self.bit_transitions,
            "flit_hops": self.flit_hops,
            "mean_request_latency": (
                sum(self.request_latencies) / len(self.request_latencies)
                if self.request_latencies
                else 0.0
            ),
            "p50_request_latency": percentile(self.request_latencies, 50),
            "p95_request_latency": percentile(self.request_latencies, 95),
            "p99_request_latency": percentile(self.request_latencies, 99),
            "mean_packet_latency": (
                sum(self.packet_latencies) / len(self.packet_latencies)
                if self.packet_latencies
                else 0.0
            ),
            "p50_packet_latency": percentile(self.packet_latencies, 50),
            "p95_packet_latency": percentile(self.packet_latencies, 95),
            "p99_packet_latency": percentile(self.packet_latencies, 99),
        }


@dataclass
class ServingResult:
    """Outcome of one fleet simulation."""

    config: ServingConfig
    noc: NoCConfig
    tenants: list[TenantStats]
    total_cycles: int
    total_bit_transitions: int
    flit_hops: int
    packets_injected: int
    packets_delivered: int
    flits_injected: int
    packet_latencies: list[int]
    per_link: dict[str, int]
    steps_executed: int
    idle_cycles_skipped: int
    metrics: dict[str, int]

    @property
    def mean_packet_latency(self) -> float:
        if not self.packet_latencies:
            return 0.0
        return sum(self.packet_latencies) / len(self.packet_latencies)

    def latency_percentile(self, p: float) -> float:
        return percentile(self.packet_latencies, p)


def _tenant_model_image(
    model_name: str, model_seed: int, image_seed: int
) -> tuple[ModelSpec, np.ndarray]:
    """(model, sample image) of a model tenant.

    Mirrors the campaign engine's ``_build_model_images`` (serving
    sits below the experiments layer, so the builder is duplicated
    rather than imported) — same builders, same seeds, so a tenant's
    workload is identical to the equivalent ``model`` job's.
    """
    if model_name == "trained_lenet":
        model = trained_lenet_model(seed=model_seed)
        images = synthetic_digits(1, seed=image_seed).images
    elif model_name == "lenet":
        model = build_model("lenet", rng=np.random.default_rng(model_seed))
        images = synthetic_digits(1, seed=image_seed).images
    elif model_name == "darknet":
        model = build_model("darknet", rng=np.random.default_rng(model_seed))
        images = synthetic_shapes(1, seed=image_seed).images
    else:  # pragma: no cover - TenantSpec already validates the name
        raise ValueError(f"unknown model {model_name!r}")
    return model, images[0]


def _accelerator_config_for(
    config: ServingConfig, noc: NoCConfig, tenant: TenantSpec
) -> AcceleratorConfig:
    """The per-tenant accelerator config whose NoC equals ``noc``."""
    acc = AcceleratorConfig(
        width=noc.width,
        height=noc.height,
        n_mcs=config.n_mcs,
        data_format=config.data_format,
        ordering=OrderingMethod.from_name(config.tenant_ordering(tenant)),
        max_tasks_per_layer=config.max_tasks_per_layer,
        n_vcs=noc.n_vcs,
        vc_depth=noc.vc_depth,
        routing=noc.routing,
        injection_rate=noc.injection_rate,
        record_ejection=noc.record_ejection,
        core=noc.core,
        seed=config.task_seed,
    )
    if acc.noc_config() != noc:
        raise ValueError(
            f"model tenant {tenant.name!r} cannot run on this NoC: the "
            f"accelerator derives {acc.noc_config()}, the fleet mesh is "
            f"{noc}.  Model tenants need link_width == "
            f"link_width_for(data_format) = "
            f"{link_width_for(config.data_format)} and default "
            f"record_injection/include_header_bits/link_latency."
        )
    return acc


def _model_template(
    config: ServingConfig,
    noc: NoCConfig,
    tenant: TenantSpec,
    nodes: tuple[int, ...],
    max_cycles: int,
) -> list[_Event]:
    """Capture one inference's injection schedule on the partition."""
    acc = _accelerator_config_for(config, noc, tenant)
    if config.n_mcs >= len(nodes):
        raise ValueError(
            f"model tenant {tenant.name!r} has {len(nodes)} nodes but "
            f"needs more than n_mcs={config.n_mcs}"
        )
    model, image = _tenant_model_image(
        tenant.model, config.model_seed, config.image_seed
    )
    placement = placement_for_nodes(
        noc.width, noc.height, config.n_mcs, nodes
    )
    sim = AcceleratorSimulator(acc, model, image, placement=placement)
    # The capture run is workload preparation, not fleet measurement:
    # keep its counters out of any active metrics registry.
    with metrics_suspended():
        _, network = sim.simulate(max_cycles_per_layer=max_cycles)
    events = sorted(
        (
            (cycle, p.src, p.dst, tuple(f.payload for f in p.flits))
            for cycle, p in network.hops.sends
        ),
        key=lambda e: e[0],
    )
    if events:
        base = events[0][0]
        events = [(c - base, s, d, p) for c, s, d, p in events]
    return events


def _synthetic_templates(
    config: ServingConfig,
    noc: NoCConfig,
    tenant: TenantSpec,
    nodes: tuple[int, ...],
    n_requests: int,
    rng: np.random.Generator,
) -> list[list[_Event]]:
    """Per-request burst blueprints for a synthetic tenant.

    Sources are drawn from the tenant's partition.  Uniform and
    hotspot destinations stay inside the partition; transpose and
    complement keep their global node mapping, so they deliberately
    cross partition boundaries (worst-case interference traffic).
    """
    pattern = TrafficPattern(tenant.pattern)
    hotspot = None
    if pattern is TrafficPattern.HOTSPOT:
        centre = node_id(noc.width // 2, noc.height // 2, noc.width)
        hotspot = min(
            nodes,
            key=lambda n: (manhattan_distance(n, centre, noc.width), n),
        )
    # Collision-free counter payloads across the whole tenant stream.
    stride = max(16, config.flits_per_packet)
    requests: list[list[_Event]] = []
    packet_index = 0
    for _ in range(n_requests):
        events: list[_Event] = []
        for j in range(config.packets_per_request):
            src = int(nodes[int(rng.integers(0, len(nodes)))])
            if pattern is TrafficPattern.UNIFORM_RANDOM:
                dst = int(nodes[int(rng.integers(0, len(nodes)))])
            elif pattern is TrafficPattern.HOTSPOT:
                dst = int(hotspot)
            else:
                dst = destination_for(
                    src, pattern, noc.width, noc.height, rng
                )
            payloads = tuple(
                _payload_words(
                    config.payload,
                    noc.link_width,
                    rng,
                    packet_index * stride + f,
                )
                for f in range(config.flits_per_packet)
            )
            # One packet per cycle: a request is a short burst.
            events.append((j, src, dst, payloads))
            packet_index += 1
        requests.append(events)
    return requests


def _tenant_arrivals(
    config: ServingConfig,
    tenant: TenantSpec,
    tenant_index: int,
    n_requests: int,
) -> list[int]:
    """Pre-generated arrival cycles of one tenant."""
    if config.arrival == "trace":
        return trace_arrivals(list(config.inter_arrivals), n_requests)
    rng = np.random.default_rng([config.seed, tenant_index, 0])
    return poisson_arrivals(config.tenant_rate(tenant), n_requests, rng)


def run_serving(
    config: ServingConfig,
    noc: NoCConfig | None = None,
    max_cycles: int = 2_000_000,
) -> ServingResult:
    """Simulate a serving fleet; returns the per-tenant accounting.

    Args:
        config: the fleet.
        noc: the shared mesh; defaults to the mesh a model job with
            the fleet's data format would use.  ``record_injection``
            must be off (tenant BT attribution covers the transmit
            links; injection links would double-count each flit).
        max_cycles: total cycle budget, and the per-layer drain budget
            of model-tenant template captures.
    """
    if noc is None:
        noc = NoCConfig(link_width=link_width_for(config.data_format))
    if noc.record_injection:
        raise ValueError(
            "serving runs need record_injection=False (tenant BT "
            "attribution follows the traced transmit links)"
        )
    shares = [t.share for t in config.tenants]
    partitions = partition_mesh(
        noc.width, noc.height, shares, config.partitioning
    )

    # -- per-tenant templates and arrivals -------------------------------
    templates: list[list[list[_Event]]] = []  # tenant -> request -> events
    arrivals_per_tenant: list[list[int]] = []
    stats: list[TenantStats] = []
    for t_idx, tenant in enumerate(config.tenants):
        nodes = partitions[t_idx]
        n_requests = config.tenant_requests(tenant)
        arrivals = _tenant_arrivals(config, tenant, t_idx, n_requests)
        n_requests = len(arrivals)
        if tenant.workload == "model":
            template = _model_template(
                config, noc, tenant, nodes, max_cycles
            )
            templates.append([template] * n_requests)
        else:
            rng = np.random.default_rng([config.seed, t_idx, 1])
            templates.append(
                _synthetic_templates(
                    config, noc, tenant, nodes, n_requests, rng
                )
            )
        arrivals_per_tenant.append(arrivals)
        stats.append(
            TenantStats(
                name=tenant.name, workload=tenant.workload, nodes=nodes
            )
        )

    # Merged arrival stream, (cycle, tenant, request) ascending; the
    # tenant index tie-breaks so same-cycle arrivals process in fleet
    # order deterministically.
    merged: list[tuple[int, int, int]] = sorted(
        (cycle, t_idx, r_idx)
        for t_idx, arrivals in enumerate(arrivals_per_tenant)
        for r_idx, cycle in enumerate(arrivals)
    )

    # -- drive -----------------------------------------------------------
    network = Network(noc)
    tenant_of: dict[int, int] = {}  # packet_id -> tenant index

    outstanding = [0] * len(config.tenants)
    arrival_cycle: dict[tuple[int, int], int] = {}
    remaining: dict[tuple[int, int], int] = {}
    batch_delay_total = 0

    def sink(packet: Packet, cycle: int) -> None:
        meta = packet.metadata
        tenant = meta.get("tenant")
        if tenant is None:
            return
        tstats = stats[tenant]
        tstats.packet_latencies.append(packet.latency)
        key = (tenant, meta["request"])
        remaining[key] -= 1
        if remaining[key] == 0:
            del remaining[key]
            outstanding[tenant] -= 1
            tstats.requests_completed += 1
            tstats.request_latencies.append(cycle - arrival_cycle[key])

    for node in range(noc.n_nodes):
        network.attach_sink(node, sink)

    heap: list[tuple[int, int, Packet]] = []
    seq = itertools.count()
    # The serving run numbers its own packets from 0.
    packet_ids = itertools.count()

    def admit(now: int, t_idx: int, r_idx: int) -> None:
        nonlocal batch_delay_total
        tenant = config.tenants[t_idx]
        tstats = stats[t_idx]
        tstats.requests_arrived += 1
        cap = config.tenant_max_outstanding(tenant)
        if cap > 0 and outstanding[t_idx] >= cap:
            tstats.requests_rejected += 1
            return
        window = config.tenant_batch_window(tenant)
        start = now if window <= 0 else -(-now // window) * window
        batch_delay_total += start - now
        template = templates[t_idx][r_idx]
        key = (t_idx, r_idx)
        arrival_cycle[key] = now
        remaining[key] = len(template)
        outstanding[t_idx] += 1
        tstats.requests_admitted += 1
        if not template:
            # A degenerate empty request completes instantly.
            del remaining[key]
            outstanding[t_idx] -= 1
            tstats.requests_completed += 1
            tstats.request_latencies.append(0)
            return
        for cycle, src, dst, payloads in template:
            packet = make_packet(
                src,
                dst,
                list(payloads),
                noc.link_width,
                metadata={"tenant": t_idx, "request": r_idx},
                packet_id=next(packet_ids),
            )
            tenant_of[packet.packet_id] = t_idx
            tstats.packets_injected += 1
            heappush(heap, (start + cycle, next(seq), packet))

    arr_idx = 0
    n_arrivals = len(merged)
    event = network.event_core
    while arr_idx < n_arrivals or heap or network.has_work:
        if event and network.is_idle:
            target = max_cycles
            if arr_idx < n_arrivals:
                target = min(target, merged[arr_idx][0])
            if heap:
                target = min(target, heap[0][0])
            internal = network.next_internal_event()
            if internal is not None:
                target = min(target, internal)
            network.fast_forward(target)
        while arr_idx < n_arrivals and merged[arr_idx][0] <= network.cycle:
            _, t_idx, r_idx = merged[arr_idx]
            admit(network.cycle, t_idx, r_idx)
            arr_idx += 1
        while heap and heap[0][0] <= network.cycle:
            _, _, packet = heappop(heap)
            network.send_packet(packet)
        if network.cycle >= max_cycles:
            raise SimulationTimeout(
                f"serving run exceeded {max_cycles} cycles"
            )
        network.step()

    # -- accounting ------------------------------------------------------
    score = score_hops(
        network.hops, owner=lambda flit: tenant_of.get(flit.packet_id)
    )
    for t_idx, tstats in enumerate(stats):
        tstats.bit_transitions = score.owner_transitions.get(t_idx, 0)
        tstats.flit_hops = score.owner_flits.get(t_idx, 0)

    net_stats = network.stats
    metrics: dict[str, int] = network.metrics_snapshot()
    metrics["serving.tenants"] = len(config.tenants)
    metrics["serving.requests_arrived"] = sum(
        t.requests_arrived for t in stats
    )
    metrics["serving.requests_admitted"] = sum(
        t.requests_admitted for t in stats
    )
    metrics["serving.requests_rejected"] = sum(
        t.requests_rejected for t in stats
    )
    metrics["serving.requests_completed"] = sum(
        t.requests_completed for t in stats
    )
    metrics["serving.packets_injected"] = net_stats.packets_injected
    metrics["serving.batch_delay_cycles"] = batch_delay_total
    registry = active_registry()
    if registry is not None:
        registry.merge(metrics)

    return ServingResult(
        config=config,
        noc=noc,
        tenants=stats,
        total_cycles=net_stats.cycles,
        total_bit_transitions=score.total,
        flit_hops=net_stats.flit_hops,
        packets_injected=net_stats.packets_injected,
        packets_delivered=net_stats.packets_delivered,
        flits_injected=net_stats.flits_injected,
        packet_latencies=list(net_stats.packet_latencies),
        per_link=score.per_link,
        steps_executed=network.steps_executed,
        idle_cycles_skipped=network.idle_cycles_skipped,
        metrics=metrics,
    )
