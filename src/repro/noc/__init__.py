"""Cycle-accurate NoC simulator: mesh, wormhole routers, VCs, BT recording."""

from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.flit import Flit, FlitType, Packet, make_packet
from repro.noc.interface import NetworkInterface
from repro.noc.network import (
    CORES,
    Network,
    NoCConfig,
    NoCStats,
    SimulationTimeout,
)
from repro.noc.recorder import (
    LinkRecorder,
    TraceRecorder,
    TransitionLedger,
)
from repro.noc.router import ProtocolError, Router, VCState
from repro.noc.statistics import (
    LinkLoad,
    link_loads,
    render_heatmap,
    router_heatmap,
)
from repro.noc.traffic import (
    SyntheticTrafficConfig,
    TrafficPattern,
    drive_schedule,
    drive_synthetic,
    generate_traffic,
    run_synthetic,
)
from repro.noc.routing import OPPOSITE, Port, routing_by_name, xy_route, yx_route
from repro.noc.topology import (
    coordinates,
    inter_router_link_count,
    manhattan_distance,
    mesh_neighbors,
    node_id,
)

__all__ = [
    "RoundRobinArbiter",
    "Flit",
    "FlitType",
    "Packet",
    "make_packet",
    "NetworkInterface",
    "CORES",
    "Network",
    "NoCConfig",
    "NoCStats",
    "SimulationTimeout",
    "LinkRecorder",
    "TransitionLedger",
    "TraceRecorder",
    "ProtocolError",
    "Router",
    "VCState",
    "LinkLoad",
    "link_loads",
    "render_heatmap",
    "router_heatmap",
    "SyntheticTrafficConfig",
    "TrafficPattern",
    "generate_traffic",
    "run_synthetic",
    "drive_schedule",
    "drive_synthetic",
    "OPPOSITE",
    "Port",
    "routing_by_name",
    "xy_route",
    "yx_route",
    "coordinates",
    "inter_router_link_count",
    "manhattan_distance",
    "mesh_neighbors",
    "node_id",
]
