"""Workload generation: weight streams and no-NoC packet experiments."""

from repro.workloads.packets import (
    ComparisonMode,
    OrderingScope,
    PacketStream,
    StreamResult,
    build_packets,
    measure_stream,
    ones_count_grid,
)
from repro.workloads.traces import (
    PacketEvent,
    TrafficTrace,
    reencode_per_link,
    reencode_transitions,
    replay_through_network,
    trace_digest,
)
from repro.workloads.streams import (
    model_weight_values,
    random_weights,
    trained_lenet_model,
    trained_lenet_weights,
    words_for_format,
)

__all__ = [
    "ComparisonMode",
    "OrderingScope",
    "PacketStream",
    "StreamResult",
    "build_packets",
    "measure_stream",
    "ones_count_grid",
    "model_weight_values",
    "random_weights",
    "trained_lenet_model",
    "trained_lenet_weights",
    "words_for_format",
    "PacketEvent",
    "TrafficTrace",
    "reencode_per_link",
    "reencode_transitions",
    "replay_through_network",
    "trace_digest",
]
