"""Full NOC-DNA simulation: DNN inference as real NoC traffic (Fig. 7).

For every weighted layer, the memory controllers ship each sampled
neuron task to its PE as one packet per k*k-sized chunk (half-half
flitised, ordered by the MC's ordering unit); the PE decodes the
delivered payload bits, accumulates the partial MACs, and returns a
single-flit response to its serving MC once the final chunk has
arrived.  Layers run back-to-back with a barrier in between — the
paper's layer-level interval (Sec. IV-C-3).

The run verifies functional correctness end-to-end: every MAC computed
from *transmitted bits* must equal the reference computed from the
originally encoded words, which proves affiliated-ordering needs no
recovery and separated-ordering's index recovery works.

The network only logs its hops; BTs are scored from that log after
the run (:func:`repro.noc.recorder.score_hops`), per layer by the
barrier windows' cycles.  Orderings only permute payload within a
packet, so configs that differ only in their coding move every flit
on the same cycles: :func:`run_codings` simulates such a group once
and scores the other codings on the same hop log.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.flitize import EncodedInputs, EncodedTask, TaskCodec
from repro.accelerator.mapping import Placement, make_placement
from repro.accelerator.orderer import OrderingUnit
from repro.accelerator.tasks import (
    LayerTasks,
    NeuronTask,
    chunk_bounds,
    extract_tasks,
)
from repro.bits.formats import DataFormat, Float32Format
from repro.bits.lanes import lane_fast_path
from repro.obs.metrics import active_registry
from repro.dnn.models import ModelSpec
from repro.dnn.quantize import tensor_format
from repro.noc.flit import Packet, make_packet
from repro.noc.network import Network, SimulationTimeout
from repro.noc.recorder import HopLog, score_hops

__all__ = [
    "LayerSummary",
    "RunResult",
    "AcceleratorSimulator",
    "run_codings",
    "run_model_on_noc",
]


@dataclass(frozen=True)
class LayerSummary:
    """Per-layer traffic and BT accounting.

    Attributes:
        layer_name: e.g. "conv1".
        n_tasks: neuron tasks simulated (after sampling).
        total_neurons: tasks the full layer would have.
        packets: packets carried (request chunks + responses).
        flits: flits injected for this layer.
        bit_transitions: NoC-wide BT delta attributed to this layer.
        cycles: cycles the layer's barrier window took.
    """

    layer_name: str
    n_tasks: int
    total_neurons: int
    packets: int
    flits: int
    bit_transitions: int
    cycles: int

    def to_dict(self) -> dict:
        """JSON-compatible dict; exact inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "LayerSummary":
        return cls(**data)


@dataclass
class RunResult:
    """Outcome of one accelerator simulation.

    Attributes:
        config: the experiment configuration.
        total_bit_transitions: Fig. 8 NoC-wide sum over the whole run.
        total_cycles: inference latency in cycles.
        flit_hops: total link traversals.
        layers: per-layer summaries.
        tasks_verified: tasks whose NoC-computed MAC matched reference.
        tasks_total: tasks simulated.
        mean_packet_latency: average packet latency in cycles.
        ordering_latency_cycles: total cycles spent in ordering units
            (informational; hidden from the critical path by default).
        per_link: link-name -> accumulated BTs on that link (the
            Fig. 8 per-recorder breakdown; feeds the campaign engine's
            per-link pivots).
        steps_executed: cycles the network actually stepped (on the
            event core ``steps_executed <= total_cycles`` because idle
            cycles are fast-forwarded over).
        idle_cycles_skipped: idle cycles the event core jumped without
            stepping (0 on the stepped reference core).
        metrics: flat observability counter snapshot (``event.*``,
            ``router.*``, ``codec.*`` families — see
            :mod:`repro.obs.metrics`).  Deterministic simulation facts,
            filled unconditionally: identical whether or not a metrics
            registry is enabled and however many sweep workers ran.
    """

    config: AcceleratorConfig
    total_bit_transitions: int
    total_cycles: int
    flit_hops: int
    layers: list[LayerSummary]
    tasks_verified: int
    tasks_total: int
    mean_packet_latency: float
    ordering_latency_cycles: int
    per_link: dict[str, int] = field(default_factory=dict)
    steps_executed: int = 0
    idle_cycles_skipped: int = 0
    metrics: dict[str, int] = field(default_factory=dict)

    @property
    def all_verified(self) -> bool:
        return self.tasks_verified == self.tasks_total

    @property
    def transitions_per_flit_hop(self) -> float:
        if self.flit_hops == 0:
            return 0.0
        return self.total_bit_transitions / self.flit_hops

    def to_dict(self) -> dict:
        """JSON-compatible dict; exact inverse of :meth:`from_dict`.

        The campaign result store persists run results as JSONL, so
        the dict form nests the config and per-layer summaries as
        plain dicts.
        """
        return {
            "config": self.config.to_dict(),
            "total_bit_transitions": self.total_bit_transitions,
            "total_cycles": self.total_cycles,
            "flit_hops": self.flit_hops,
            "layers": [layer.to_dict() for layer in self.layers],
            "tasks_verified": self.tasks_verified,
            "tasks_total": self.tasks_total,
            "mean_packet_latency": self.mean_packet_latency,
            "ordering_latency_cycles": self.ordering_latency_cycles,
            "per_link": dict(self.per_link),
            "steps_executed": self.steps_executed,
            "idle_cycles_skipped": self.idle_cycles_skipped,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        kwargs = dict(data)
        kwargs["config"] = AcceleratorConfig.from_dict(kwargs["config"])
        kwargs["layers"] = [
            LayerSummary.from_dict(layer) for layer in kwargs["layers"]
        ]
        # Records persisted before per-link recording default to empty.
        kwargs.setdefault("per_link", {})
        # Records persisted before the observability layer default to
        # "nothing measured".
        kwargs.setdefault("steps_executed", 0)
        kwargs.setdefault("idle_cycles_skipped", 0)
        kwargs.setdefault("metrics", {})
        return cls(**kwargs)


class _PendingQueue:
    """Packets waiting for their release cycle (ordering/compute delay).

    A min-heap keyed by ``(release_cycle, sequence)``: the drain loop
    peeks the earliest release in O(1) instead of re-scanning every
    pending packet each cycle.  The monotonic sequence preserves push
    order among equal release cycles, which is exactly the order the
    old list scan released them in (a pending packet only matures on
    the cycle it was released for, so equal-release FIFO order is the
    only order the list scan could observe).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Packet]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, release_cycle: int, packet: Packet) -> None:
        heappush(self._heap, (release_cycle, next(self._seq), packet))

    def next_release(self) -> int:
        """Earliest release cycle; only valid when non-empty."""
        return self._heap[0][0]

    def pop(self) -> Packet:
        """Remove and return the earliest-release packet."""
        return heappop(self._heap)[2]

    def reorder(self, key) -> None:
        """Re-queue all packets under a new (release, packet) sort key.

        Used by the ``count_desc`` packet-scheduling policy: the sorted
        order becomes the new FIFO order via fresh sequence numbers.
        """
        items = [
            (release, packet)
            for release, _, packet in sorted(self._heap, key=lambda t: t[1])
        ]
        items.sort(key=key)
        self._heap.clear()
        self._seq = itertools.count()
        for release, packet in items:
            self.push(release, packet)


@dataclass
class _TaskRecord:
    """Simulator-side bookkeeping for one in-flight neuron task."""

    task: NeuronTask
    reference: float
    pe: int
    mc: int
    n_chunks: int
    # Scalar oracle: each chunk's encoded payload, decoded at arrival.
    encoded: dict[int, EncodedTask | EncodedInputs] = field(
        default_factory=dict
    )
    # Arrival-plane fast path: MAC operands recovered from the encoded
    # payloads in grouped decode passes at encode time (decode is a
    # pure function of the encoded object, so pre-decoding is
    # bit-identical to decoding at arrival).  Keyed by chunk index:
    # full chunks map to (input_values, weight_values, bias_value),
    # input-only chunks to the input value row — float64 rows in
    # original pair order.  Consumed (popped) by ``pe_sink``.
    decoded: dict[int, object] = field(default_factory=dict)
    partials: dict[int, float] = field(default_factory=dict)
    computed: float | None = None
    response_received: bool = False

    def settle(self) -> None:
        """Sum the partial MACs in chunk order, so the result does not
        depend on the order the chunks arrived in."""
        self.computed = sum(self.partials[c] for c in range(self.n_chunks))


@dataclass(slots=True)
class _ChunkJob:
    """One chunk's encode work order inside ``_encode_tasks``.

    Phase 1 fills everything but ``encoded`` in task/chunk order;
    phase 2 (the codec pass) fills ``encoded`` — batched across the
    layer or chunk by chunk; phase 3 turns jobs into packets in the
    original order.
    """

    record: _TaskRecord
    chunk_index: int
    cache_key: tuple
    inputs: np.ndarray
    weights: np.ndarray
    bias: int
    input_only: bool
    encoded: EncodedTask | EncodedInputs | None = None
    # MAC operands from the batch codec's grouped decode pass (None
    # under the scalar oracle, which decodes per packet at arrival).
    decoded: object | None = None


class AcceleratorSimulator:
    """Drives one model + configuration through the NoC.

    ``layer_tasks`` may hand in tasks already extracted for the same
    model, image, ``max_tasks_per_layer`` and ``seed``; configs of one
    timing signature share them in :func:`run_codings`.
    """

    def __init__(
        self,
        config: AcceleratorConfig,
        model: ModelSpec,
        sample_image: np.ndarray,
        placement: Placement | None = None,
        layer_tasks: list[LayerTasks] | None = None,
    ) -> None:
        self.config = config
        self.model = model
        if placement is None:
            placement = make_placement(
                config.width, config.height, config.n_mcs
            )
        elif (placement.width, placement.height) != (
            config.width,
            config.height,
        ):
            raise ValueError(
                "placement mesh "
                f"{placement.width}x{placement.height} does not match "
                f"config mesh {config.width}x{config.height}"
            )
        self.placement: Placement = placement
        if layer_tasks is None:
            layer_tasks = extract_tasks(
                model,
                sample_image,
                max_tasks_per_layer=config.max_tasks_per_layer,
                seed=config.seed,
            )
        self.layer_tasks: list[LayerTasks] = layer_tasks
        self.codec = TaskCodec(
            values_per_flit=config.values_per_flit,
            word_width=config.word_width,
            include_index_payload=config.include_index_payload,
        )
        self._formats = self._build_formats()
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Start a run from scratch: MC knowledge, units and counters.

        Every run calls this first, so a simulator run twice gives two
        identical results.
        """
        config = self.config
        self.orderers = {
            mc: OrderingUnit(
                self.codec,
                config.ordering,
                config.fill_order,
                model_latency=bool(config.extra.get("model_ordering_latency")),
            )
            for mc in self.placement.mc_nodes
        }
        # Weight blocks already shipped to each PE (MC-side knowledge
        # used by the weight-stationary dataflow).
        self._mc_sent_keys: dict[int, set[tuple]] = {
            pe: set() for pe in self.placement.pe_nodes
        }
        # Codec observability: chunks encoded per path.  fallback
        # counts batch-API chunks that degraded to the per-row scalar
        # reference because the lane width has no numpy fast path.
        self.codec_batch_groups = 0
        self.codec_batch_chunks = 0
        self.codec_scalar_chunks = 0
        self.codec_fallback_chunks = 0
        # Arrival-plane observability: chunks whose words came from a
        # grouped decode pass vs per-packet scalar decode at the sink.
        self.codec_decode_batch_chunks = 0
        self.codec_decode_scalar_chunks = 0

    def _build_formats(self) -> dict[int, tuple[DataFormat, DataFormat]]:
        """Per-layer (input, weight) wire formats."""
        formats: dict[int, tuple[DataFormat, DataFormat]] = {}
        for lt in self.layer_tasks:
            if self.config.data_format == "float32":
                formats[lt.layer_index] = (Float32Format(), Float32Format())
                continue
            all_inputs = np.concatenate([t.inputs for t in lt.tasks])
            all_weights = np.concatenate(
                [t.weights for t in lt.tasks]
                + [np.array([t.bias for t in lt.tasks])]
            )
            formats[lt.layer_index] = (
                tensor_format(all_inputs),
                tensor_format(all_weights),
            )
        return formats

    # -- running ---------------------------------------------------------

    def run(self, max_cycles_per_layer: int = 2_000_000) -> RunResult:
        """Simulate every layer and return the run result.

        Args:
            max_cycles_per_layer: drain budget per barrier window.
        """
        return self.simulate(max_cycles_per_layer)[0]

    def simulate(
        self, max_cycles_per_layer: int = 2_000_000
    ) -> tuple[RunResult, Network]:
        """:meth:`run`, plus the drained network it scored.

        The network's hop log is Fig. 7's packet traffic trace output:
        :meth:`repro.workloads.traces.TrafficTrace.from_network` saves
        it, and :func:`run_codings` scores other codings on it.
        """
        self._reset_run_state()
        network = Network(self.config.noc_config())
        records: dict[int, _TaskRecord] = {}
        pending = _PendingQueue()
        # This run numbers its own packets from 0, so packet ids (and
        # every trace that records them) depend only on the run.
        packet_ids = itertools.count()
        # Outstanding-task counter for the drain loop: O(1) per-cycle
        # termination check instead of re-scanning every task record.
        counters = {"outstanding": 0}
        weight_cache = self.config.weight_cache

        def complete_task(record: _TaskRecord) -> None:
            if not record.response_received:
                record.response_received = True
                counters["outstanding"] -= 1
        # Weight-stationary state: per-PE cached weight operands and
        # input-only chunks that arrived before their weights.
        pe_cache: dict[int, dict[tuple, tuple[np.ndarray, float]]] = {}
        parked: dict[
            tuple[int, tuple], list[tuple[_TaskRecord, int, np.ndarray]]
        ] = {}

        def finish_chunk(
            record: _TaskRecord,
            chunk_index: int,
            input_values: np.ndarray,
            weight_values: np.ndarray,
            bias: float,
            cycle: int,
        ) -> None:
            record.partials[chunk_index] = _mac(
                input_values, weight_values, bias
            )
            if len(record.partials) < record.n_chunks:
                return
            record.settle()
            if not self.config.include_responses:
                complete_task(record)
                return
            response = make_packet(
                src=record.pe,
                dst=record.mc,
                payloads=[_response_payload(record.computed)],
                width=self.config.link_width,
                metadata={"kind": "response", "task_id": record.task.task_id},
                packet_id=next(packet_ids),
            )
            pending.push(cycle + self.config.compute_delay, response)

        def pe_sink(packet: Packet, cycle: int) -> None:
            meta = packet.metadata
            kind = meta.get("kind")
            if kind not in ("task", "task_inputs"):
                return
            record: _TaskRecord = records[meta["task_id"]]
            chunk_index = meta["chunk_index"]
            key = meta.get("cache_key")
            operands = self._chunk_operands(record, chunk_index)
            if kind == "task":
                input_values, weight_values, bias = operands
                finish_chunk(
                    record,
                    chunk_index,
                    input_values,
                    weight_values,
                    bias,
                    cycle,
                )
                if weight_cache and key is not None:
                    cache = pe_cache.setdefault(packet.dst, {})
                    cache[key] = (weight_values, bias)
                    for rec, ci, inputs in parked.pop((packet.dst, key), []):
                        finish_chunk(
                            rec, ci, inputs, weight_values, bias, cycle
                        )
                return
            # Input-only chunk: needs the cached weight block.
            cached = pe_cache.get(packet.dst, {}).get(key)
            if cached is None:
                parked.setdefault((packet.dst, key), []).append(
                    (record, chunk_index, operands)
                )
                return
            weight_values, bias = cached
            finish_chunk(
                record, chunk_index, operands, weight_values, bias, cycle
            )

        def mc_sink(packet: Packet, cycle: int) -> None:
            meta = packet.metadata
            if meta.get("kind") != "response":
                return
            complete_task(records[meta["task_id"]])

        for pe in self.placement.pe_nodes:
            network.attach_sink(pe, pe_sink)
        for mc in self.placement.mc_nodes:
            network.attach_sink(mc, mc_sink)

        summaries: list[LayerSummary] = []
        if self.config.layer_barrier:
            for lt in self.layer_tasks:
                packets_before = network.stats.packets_injected
                cycles_before = network.cycle
                for record in self._encode_tasks(
                    lt.tasks, network.cycle, pending, packet_ids
                ):
                    records[record.task.task_id] = record
                self._schedule_pending(pending)
                layer_flits = self._drain(
                    network,
                    pending,
                    counters,
                    records,
                    lt.tasks,
                    max_cycles_per_layer,
                )
                summaries.append(
                    LayerSummary(
                        layer_name=lt.layer_name,
                        n_tasks=len(lt.tasks),
                        total_neurons=lt.total_neurons,
                        packets=network.stats.packets_injected
                        - packets_before,
                        flits=layer_flits,
                        bit_transitions=0,  # scored after the run
                        cycles=network.cycle - cycles_before,
                    )
                )
        else:
            # Pipelined mode: every layer's packets queue upfront and
            # interleave freely; one aggregate summary is produced.
            all_tasks = [t for lt in self.layer_tasks for t in lt.tasks]
            for record in self._encode_tasks(
                all_tasks, network.cycle, pending, packet_ids
            ):
                records[record.task.task_id] = record
            self._schedule_pending(pending)
            total_flits = self._drain(
                network,
                pending,
                counters,
                records,
                all_tasks,
                max_cycles_per_layer,
            )
            summaries.append(
                LayerSummary(
                    layer_name="(pipelined)",
                    n_tasks=len(all_tasks),
                    total_neurons=sum(
                        lt.total_neurons for lt in self.layer_tasks
                    ),
                    packets=network.stats.packets_injected,
                    flits=total_flits,
                    bit_transitions=0,
                    cycles=network.cycle,
                )
            )
        score = score_hops(network.hops, cuts=_layer_cuts(summaries))
        stats = network.stats
        stats.total_bit_transitions = score.total
        metrics = network.metrics_snapshot()
        metrics.update(self._codec_metrics())
        result = _published(
            RunResult(
                config=self.config,
                total_bit_transitions=score.total,
                total_cycles=network.cycle,
                flit_hops=stats.flit_hops,
                layers=_with_bts(summaries, score.windows),
                tasks_verified=_count_verified(records.values()),
                tasks_total=len(records),
                mean_packet_latency=stats.mean_latency,
                ordering_latency_cycles=self._ordering_latency(),
                per_link=score.per_link,
                steps_executed=network.steps_executed,
                idle_cycles_skipped=network.idle_cycles_skipped,
                metrics=metrics,
            )
        )
        return result, network

    def _ordering_latency(self) -> int:
        return sum(
            unit.total_latency_cycles for unit in self.orderers.values()
        )

    def _codec_metrics(self) -> dict[str, int]:
        return {
            "codec.batch_groups": self.codec_batch_groups,
            "codec.batch_chunks": self.codec_batch_chunks,
            "codec.scalar_chunks": self.codec_scalar_chunks,
            "codec.fallback_chunks": self.codec_fallback_chunks,
            "codec.decode_batch_chunks": self.codec_decode_batch_chunks,
            "codec.decode_scalar_chunks": self.codec_decode_scalar_chunks,
        }

    def _score_on(self, shared: RunResult, log: HopLog) -> RunResult | None:
        """This config's result on another run's schedule, or None.

        ``shared`` ran a config with the same timing signature and
        ``log`` is its network's hop log.  This config's request
        packets are encoded and queued exactly as :meth:`run` would
        queue them.  The NoC never looks at payloads, so if every
        request packet has the shared run's flit count, release cycle
        and queue position, this run would move every flit exactly as
        the shared run did: MACs are verified chunk by chunk as the PE
        sink does, and BTs are scored on the logged per-link flit
        sequences with this config's payloads, per layer by the
        barrier windows' cycles.  Any mismatch (payload-sorted
        scheduling, in-band index flits, modelled ordering latency)
        returns None and the caller runs this config in full.
        """
        self._reset_run_state()
        config = self.config
        if config.layer_barrier:
            starts = itertools.accumulate(
                (layer.cycles for layer in shared.layers), initial=0
            )
            batches = [
                (lt.tasks, start)
                for lt, start in zip(self.layer_tasks, starts)
            ]
        else:
            batches = [([t for lt in self.layer_tasks for t in lt.tasks], 0)]
        records: dict[int, _TaskRecord] = {}
        requests: list[tuple[int, Packet]] = []
        packet_ids = itertools.count()
        for tasks, start in batches:
            pending = _PendingQueue()
            for record in self._encode_tasks(
                tasks, start, pending, packet_ids
            ):
                records[record.task.task_id] = record
            self._schedule_pending(pending)
            while pending:
                requests.append((pending.next_release(), pending.pop()))
        mine = [
            (
                release,
                packet.metadata["task_id"],
                packet.metadata["chunk_index"],
                len(packet.flits),
            )
            for release, packet in requests
        ]
        if mine != _requests(log.sends):
            return None

        # PE side: each weight block reaches a PE in full once per run,
        # so an input-only chunk's partial does not depend on arrival
        # order.
        weights_at: dict[tuple[int, tuple], tuple[np.ndarray, float]] = {}
        inputs_only = []
        for _, packet in requests:
            meta = packet.metadata
            record = records[meta["task_id"]]
            chunk = meta["chunk_index"]
            operands = self._chunk_operands(record, chunk)
            if meta["kind"] == "task_inputs":
                inputs_only.append(
                    (record, chunk, meta["cache_key"], operands)
                )
                continue
            inputs, weights, bias = operands
            record.partials[chunk] = _mac(inputs, weights, bias)
            weights_at[(record.pe, meta["cache_key"])] = (weights, bias)
        for record, chunk, key, inputs in inputs_only:
            weights, bias = weights_at[(record.pe, key)]
            record.partials[chunk] = _mac(inputs, weights, bias)
        for record in records.values():
            record.settle()

        # Wire images: this config's payloads under the shared ids.
        images: dict[int, list[int]] = {}
        own = iter(requests)
        for _, packet in log.sends:
            meta = packet.metadata
            if meta["kind"] == "response":
                computed = records[meta["task_id"]].computed
                images[packet.packet_id] = [_response_payload(computed)]
            else:
                images[packet.packet_id] = [
                    flit.payload for flit in next(own)[1].flits
                ]
        score = score_hops(
            log,
            wire=lambda flit: images[flit.packet_id][flit.index],
            cuts=_layer_cuts(shared.layers),
        )
        metrics = dict(shared.metrics)
        metrics.update(self._codec_metrics())
        return _published(
            dataclasses.replace(
                shared,
                config=config,
                total_bit_transitions=score.total,
                layers=_with_bts(shared.layers, score.windows),
                tasks_verified=_count_verified(records.values()),
                ordering_latency_cycles=self._ordering_latency(),
                per_link=score.per_link,
                metrics=metrics,
            )
        )

    def _chunk_operands(self, record: _TaskRecord, chunk_index: int):
        """One delivered chunk's MAC operands (:meth:`_decode_operands`)."""
        operands = record.decoded.pop(chunk_index, None)
        if operands is not None:
            # Arrival-plane fast path: the operands were recovered
            # from this chunk's payload bits in a grouped decode
            # pass (see _encode_jobs).
            self.codec_decode_batch_chunks += 1
            return operands
        self.codec_decode_scalar_chunks += 1
        return self._decode_operands(record, chunk_index)

    def _encode_tasks(
        self,
        tasks: list[NeuronTask],
        cycle: int,
        pending: _PendingQueue,
        packet_ids: Iterator[int],
    ) -> list[_TaskRecord]:
        """Encode the tasks' chunks and queue their request packets.

        Three phases so the batch codec can order and flitise every
        same-shaped chunk of the layer in single numpy passes:

        1. wire-format word conversion (once per layer), reference
           MACs and weight-cache decisions, in task/chunk order (the
           cache decisions are order-dependent);
        2. the codec pass (:meth:`_encode_jobs`) — batched under
           ``codec="batch"``, chunk by chunk under the scalar oracle;
        3. packet assembly, latency accounting and injection in
           exactly the task/chunk order of phase 1, so the pending
           queue, ordering-unit stats and release cycles are identical
           across codecs.
        """
        config = self.config
        weight_cache = config.weight_cache
        jobs: list[_ChunkJob] = []
        records: list[_TaskRecord] = []
        for layer_index, layer_group in itertools.groupby(
            tasks, key=lambda t: t.layer_index
        ):
            layer = list(layer_group)
            in_fmt, w_fmt = self._formats[layer_index]
            # The formats are elementwise, so encoding the layer's
            # concatenated tasks is bit-identical to encoding chunk by
            # chunk.  The extra bias slot is the zero bias every
            # non-final chunk carries.
            in_words = in_fmt.encode(
                np.concatenate([t.inputs for t in layer])
            )
            w_words = w_fmt.encode(
                np.concatenate([t.weights for t in layer])
            )
            bias_words = w_fmt.encode(
                np.array([t.bias for t in layer] + [0.0])
            )
            in_values = _values(in_fmt, in_words)
            w_values = _values(w_fmt, w_words)
            bias_values = _values(w_fmt, bias_words).tolist()
            bias_ints = bias_words.tolist()
            offset = 0
            for t_idx, task in enumerate(layer):
                if config.mapping_policy == "group_affine":
                    pe = self.placement.pe_for_group(layer_index, task.group)
                else:
                    pe = self.placement.pe_for_task(task.task_id)
                mc = self.placement.serving_mc[pe]
                bounds = chunk_bounds(task.n_pairs, config.chunk_pairs)
                record = _TaskRecord(
                    task=task,
                    reference=0.0,
                    pe=pe,
                    mc=mc,
                    n_chunks=len(bounds),
                )
                records.append(record)
                sent_keys = self._mc_sent_keys[pe]
                final = len(bounds) - 1
                reference = 0.0
                for chunk_index, (lo, hi) in enumerate(bounds):
                    lo += offset
                    hi += offset
                    b = t_idx if chunk_index == final else -1
                    key = (layer_index, task.group, chunk_index)
                    cached = weight_cache and key in sent_keys
                    if weight_cache and not cached:
                        sent_keys.add(key)
                    jobs.append(
                        _ChunkJob(
                            record,
                            chunk_index,
                            key,
                            in_words[lo:hi],
                            w_words[lo:hi],
                            bias_ints[b],
                            cached,
                        )
                    )
                    # The cached weight block is bit-identical to this
                    # chunk's own words (same filter, same per-layer
                    # scale), so the reference uses the chunk's words
                    # in both paths.
                    reference += _mac(
                        in_values[lo:hi], w_values[lo:hi], bias_values[b]
                    )
                record.reference = reference
                offset += task.n_pairs
        self._encode_jobs(jobs)
        link_width = config.link_width
        current: _TaskRecord | None = None
        release = cycle
        for job in jobs:
            record = job.record
            if record is not current:
                current = record
                release = cycle
            encoded = job.encoded
            assert encoded is not None
            if job.decoded is None:
                # Scalar oracle: the sink decodes the payload at arrival.
                record.encoded[job.chunk_index] = encoded
            else:
                record.decoded[job.chunk_index] = job.decoded
            if job.input_only:
                kind = "task_inputs"
                delay = 0
            else:
                kind = "task"
                delay = self.orderers[record.mc].account(job.inputs.shape[0])
            packet = make_packet(
                src=record.mc,
                dst=record.pe,
                payloads=encoded.payloads,
                width=link_width,
                metadata={
                    "kind": kind,
                    "task_id": record.task.task_id,
                    "chunk_index": job.chunk_index,
                    "cache_key": job.cache_key,
                },
                packet_id=next(packet_ids),
            )
            release += delay
            pending.push(release, packet)
        return records

    def _encode_jobs(self, jobs: list[_ChunkJob]) -> None:
        """Run the configured codec over the collected chunk jobs.

        The batch path groups jobs by pair count (a layer's chunks all
        share one width; ragged tail chunks form their own group) and
        encodes each group in one :meth:`TaskCodec.encode_batch` /
        :meth:`TaskCodec.encode_inputs_only_batch` call.  The scalar
        oracle encodes chunk by chunk exactly as the pre-batch
        simulator did.
        """
        if not jobs:
            return
        # Every MC's unit shares the config's method and effective fill
        # (the baseline's row-major override included).
        unit = self.orderers[jobs[0].record.mc]
        if self.config.codec == "scalar":
            self.codec_scalar_chunks += len(jobs)
            for job in jobs:
                if job.input_only:
                    job.encoded = self.codec.encode_inputs_only(
                        job.inputs.tolist(),
                        self.config.ordering,
                        self.config.fill_order,
                    )
                else:
                    job.encoded = self.codec.encode(
                        job.inputs.tolist(),
                        job.weights.tolist(),
                        job.bias,
                        unit.method,
                        unit.fill,
                    )
            return
        full: dict[int, list[_ChunkJob]] = {}
        inputs_only: dict[int, list[_ChunkJob]] = {}
        for job in jobs:
            group = inputs_only if job.input_only else full
            group.setdefault(job.inputs.shape[0], []).append(job)
        self.codec_batch_groups += len(full) + len(inputs_only)
        self.codec_batch_chunks += len(jobs)
        if not lane_fast_path(self.codec.word_width):
            # encode_batch degrades to the per-row scalar reference for
            # exotic lane widths; surface how many chunks took that hit.
            self.codec_fallback_chunks += len(jobs)
        # Arrival plane: each group's chunks are decoded from their
        # payload bits in one grouped pass.  Decode is pure in the
        # encoded object, so this is bit-identical to the scalar
        # oracle's decode-at-arrival.
        for group_jobs in full.values():
            encoded = self.codec.encode_batch(
                np.stack([job.inputs for job in group_jobs]),
                np.stack([job.weights for job in group_jobs]),
                [job.bias for job in group_jobs],
                unit.method,
                unit.fill,
            )
            for job, enc in zip(group_jobs, encoded):
                job.encoded = enc
            self._fill_operands(
                group_jobs, self.codec.decode_batch_words(encoded)
            )
        for group_jobs in inputs_only.values():
            encoded = self.codec.encode_inputs_only_batch(
                np.stack([job.inputs for job in group_jobs]),
                self.config.ordering,
                self.config.fill_order,
            )
            for job, enc in zip(group_jobs, encoded):
                job.encoded = enc
            self._fill_operands(
                group_jobs, self.codec.decode_inputs_only_batch(encoded)
            )

    def _fill_operands(self, jobs: list[_ChunkJob], decoded: list) -> None:
        """Turn a decode group's words into float64 MAC operands.

        One value conversion per layer of the group (formats are per
        layer, and a pipelined run's group can span layers).  The
        conversion is elementwise, so it is bit-identical to
        :meth:`_decode_operands` chunk by chunk.
        """
        by_layer: dict[int, list[int]] = {}
        for i, job in enumerate(jobs):
            by_layer.setdefault(job.record.task.layer_index, []).append(i)
        for layer_index, idxs in by_layer.items():
            in_fmt, w_fmt = self._formats[layer_index]
            if jobs[idxs[0]].input_only:
                rows = _values(in_fmt, np.stack([decoded[i] for i in idxs]))
                for i, row in zip(idxs, rows):
                    jobs[i].decoded = row
                continue
            input_rows = _values(
                in_fmt, np.stack([decoded[i][0] for i in idxs])
            )
            weight_rows = _values(
                w_fmt, np.stack([decoded[i][1] for i in idxs])
            )
            biases = _values(w_fmt, [decoded[i][2] for i in idxs]).tolist()
            for i, in_row, w_row, bias in zip(
                idxs, input_rows, weight_rows, biases
            ):
                jobs[i].decoded = (in_row, w_row, bias)

    def _decode_operands(self, record: _TaskRecord, chunk_index: int):
        """Scalar-oracle decode of one delivered chunk to MAC operands.

        Returns ``(input_values, weight_values, bias_value)`` for a
        full chunk and the input value row for an input-only chunk —
        what :meth:`_fill_operands` pre-computes on the batch path.
        """
        in_fmt, w_fmt = self._formats[record.task.layer_index]
        encoded = record.encoded[chunk_index]
        if isinstance(encoded, EncodedInputs):
            return _values(in_fmt, self.codec.decode_inputs_only(encoded))
        decoded = self.codec.decode(encoded)
        pairs = decoded.original_pairs()
        return (
            _values(in_fmt, [p[0] for p in pairs]),
            _values(w_fmt, [p[1] for p in pairs]),
            float(_values(w_fmt, [decoded.bias])[0]),
        )

    def _schedule_pending(self, pending: _PendingQueue) -> None:
        """Apply the MC injection-order policy to queued packets.

        "count_desc" extends the ordering idea across packet
        boundaries: each MC streams its packets in descending order of
        total payload '1' count, so consecutive packets on shared links
        carry similar bit densities.  Release cycles keep priority so
        modelled ordering latency is respected.
        """
        if self.config.packet_scheduling != "count_desc":
            return
        pending.reorder(
            key=lambda item: (
                item[0],
                -sum(f.payload.bit_count() for f in item[1].flits),
            )
        )

    def _drain(
        self,
        network: Network,
        pending: _PendingQueue,
        counters: dict[str, int],
        records: dict[int, _TaskRecord],
        tasks: list[NeuronTask],
        max_cycles: int,
    ) -> int:
        """Run the network until the given tasks complete."""
        flits_before = network.stats.flits_injected
        deadline = network.cycle + max_cycles
        counters["outstanding"] = sum(
            1 for t in tasks if not records[t.task_id].response_received
        )
        event = network.event_core

        while counters["outstanding"] > 0:
            if event and network.is_idle:
                # Nothing can act this cycle: jump straight to the next
                # packet release or link arrival (clamped so timeout
                # semantics match the stepped run exactly).  With
                # neither queued the run is wedged — jumping to the
                # deadline raises the same timeout the stepped core
                # would reach by spinning.
                target = deadline
                if pending:
                    target = min(target, pending.next_release())
                arrival = network.next_internal_event()
                if arrival is not None:
                    target = min(target, arrival)
                network.fast_forward(target)
            if network.cycle >= deadline:
                raise SimulationTimeout(
                    f"{len(tasks)} tasks did not complete within "
                    f"{max_cycles} cycles"
                )
            # Release matured packets into their source NI.
            while pending and pending.next_release() <= network.cycle:
                network.send_packet(pending.pop())
            network.step()
        return network.stats.flits_injected - flits_before


#: Numpy word dtype per wire-format width.
_WORD_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32}

#: Wire format of the PE->MC result word.
_RESPONSE_FORMAT = Float32Format()


def _response_payload(computed: float) -> int:
    """The single-flit payload a PE returns for a finished task."""
    return int(
        _RESPONSE_FORMAT.encode(np.array([computed], dtype=np.float32))[0]
    )


def _requests(
    sends: list[tuple[int, Packet]],
) -> list[tuple[int, int, int, int]]:
    """(send cycle, task id, chunk index, flit count) of every request
    packet in a send log, in send order."""
    return [
        (
            cycle,
            packet.metadata["task_id"],
            packet.metadata["chunk_index"],
            len(packet.flits),
        )
        for cycle, packet in sends
        if packet.metadata["kind"] != "response"
    ]


def _layer_cuts(layers: Sequence[LayerSummary]) -> list[int]:
    """Cycle cuts between consecutive barrier windows of a run."""
    return list(itertools.accumulate(layer.cycles for layer in layers))[:-1]


def _with_bts(
    layers: Sequence[LayerSummary], bts: Sequence[int]
) -> list[LayerSummary]:
    """The layer summaries with their windows' scored BTs."""
    return [
        dataclasses.replace(layer, bit_transitions=n)
        for layer, n in zip(layers, bts)
    ]


def _count_verified(records: Iterable[_TaskRecord]) -> int:
    """Tasks whose NoC-computed MAC matches the reference."""
    return sum(
        1
        for record in records
        if record.computed is not None
        and abs(record.computed - record.reference)
        <= 1e-9 * max(1.0, abs(record.reference))
    )


def _published(result: RunResult) -> RunResult:
    """Merge a result's metrics into the active registry, if any."""
    registry = active_registry()
    if registry is not None:
        registry.merge(result.metrics)
    return result


def _values(fmt: DataFormat, words) -> np.ndarray:
    """Float64 MAC operands of wire words (elementwise, any shape)."""
    return fmt.decode(
        np.asarray(words, dtype=_WORD_DTYPES[fmt.width])
    ).astype(np.float64)


def _mac(
    input_values: np.ndarray, weight_values: np.ndarray, bias: float
) -> float:
    """Dot product + bias over decoded operands (float64 accumulate).

    The reference, the PE sink and the scalar oracle all call this
    with contiguous 1-D rows in *original* pair order, so a correct
    recovery yields bit-identical results.
    """
    return float(input_values @ weight_values) + bias


def run_model_on_noc(
    config: AcceleratorConfig,
    model: ModelSpec,
    sample_image: np.ndarray,
    max_cycles_per_layer: int = 2_000_000,
) -> RunResult:
    """One-call convenience wrapper used by examples and benches."""
    sim = AcceleratorSimulator(config, model, sample_image)
    return sim.run(max_cycles_per_layer=max_cycles_per_layer)


def run_codings(
    configs: Sequence[AcceleratorConfig],
    model: ModelSpec,
    sample_image: np.ndarray,
    max_cycles_per_layer: int = 2_000_000,
) -> list[RunResult]:
    """Run configs that share a timing signature; one result each.

    Orderings, data formats, fill orders and codecs only change what
    the flits carry (:meth:`AcceleratorConfig.timing_signature`).  The
    first config runs in full; every other config is scored on its
    network's hop log without a simulation, unless
    its own packets would not fit it, in which case it runs in full
    too.  Each result's ``to_dict()`` equals a standalone
    :func:`run_model_on_noc` of its config.  Nothing outlives the call.
    """
    if not configs:
        return []
    signature = configs[0].timing_signature()
    if any(config.timing_signature() != signature for config in configs):
        raise ValueError("run_codings needs configs with one timing signature")
    first = AcceleratorSimulator(configs[0], model, sample_image)
    if len(configs) == 1:
        return [first.run(max_cycles_per_layer)]
    shared, network = first.simulate(max_cycles_per_layer)
    results = [shared]
    for config in configs[1:]:
        sim = AcceleratorSimulator(
            config,
            model,
            sample_image,
            placement=first.placement,
            layer_tasks=first.layer_tasks,
        )
        result = sim._score_on(shared, network.hops)
        results.append(
            sim.run(max_cycles_per_layer) if result is None else result
        )
    return results


def run_batch_on_noc(
    config: AcceleratorConfig,
    model: ModelSpec,
    images: np.ndarray,
    max_cycles_per_layer: int = 2_000_000,
) -> list[RunResult]:
    """Run several inference passes (one per image) back to back.

    Each image's activations produce different task payloads, so the
    batch exercises the ordering method across input statistics.  The
    images run as independent inferences on fresh networks; aggregate
    with :func:`aggregate_results`.
    """
    if images.ndim != 4:
        raise ValueError("images must be a (N, C, H, W) batch")
    results = []
    for image in images:
        results.append(
            run_model_on_noc(
                config, model, image, max_cycles_per_layer
            )
        )
    return results


def aggregate_results(results: list[RunResult]) -> dict[str, float]:
    """Batch-level totals and means over per-image run results."""
    if not results:
        raise ValueError("no results to aggregate")
    total_bt = sum(r.total_bit_transitions for r in results)
    total_cycles = sum(r.total_cycles for r in results)
    total_hops = sum(r.flit_hops for r in results)
    return {
        "images": float(len(results)),
        "total_bit_transitions": float(total_bt),
        "total_cycles": float(total_cycles),
        "total_flit_hops": float(total_hops),
        "mean_bt_per_image": total_bt / len(results),
        "transitions_per_flit_hop": (
            total_bt / total_hops if total_hops else 0.0
        ),
        "all_verified": float(all(r.all_verified for r in results)),
    }
