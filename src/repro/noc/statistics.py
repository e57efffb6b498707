"""Post-run NoC analysis: per-link loads, BT heat maps, hop profiles.

NocDAS (Fig. 7) emits bit transitions, inference latency and packet
traffic traces; this module provides the analysis layer over our
equivalents — turning a finished :class:`~repro.noc.network.Network`
into per-link tables, per-router aggregates and text heat maps that
examples and benches can render.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.noc.network import Network
from repro.noc.recorder import score_hops
from repro.noc.routing import Port
from repro.noc.topology import coordinates

__all__ = ["LinkLoad", "link_loads", "router_heatmap", "render_heatmap"]


@dataclass(frozen=True)
class LinkLoad:
    """Traffic and BT totals of one recorded link.

    Attributes:
        name: link label ("R5.EAST").
        router: source router id.
        port: output port.
        flits: flit traversals.
        transitions: accumulated BTs.
    """

    name: str
    router: int
    port: Port
    flits: int
    transitions: int

    @property
    def transitions_per_flit(self) -> float:
        if self.flits == 0:
            return 0.0
        return self.transitions / self.flits


def link_loads(network: Network) -> list[LinkLoad]:
    """Per-link loads of a finished run, busiest first."""
    score = score_hops(network.hops)
    loads = []
    for name, transitions in score.per_link.items():
        if not name.startswith("R"):
            continue  # NI injection links are not router outports
        router_str, port_str = name[1:].split(".")
        loads.append(
            LinkLoad(
                name=name,
                router=int(router_str),
                port=Port[port_str],
                flits=score.flits[name],
                transitions=transitions,
            )
        )
    loads.sort(key=lambda l: -l.transitions)
    return loads


def router_heatmap(network: Network, metric: str = "transitions") -> np.ndarray:
    """Aggregate a per-link metric onto the router grid.

    Args:
        network: a (finished) network.
        metric: "transitions" or "flits".

    Returns:
        shape ``(height, width)`` array: each router's outport totals.
    """
    if metric not in ("transitions", "flits"):
        raise ValueError(f"unknown metric {metric!r}")
    width = network.config.width
    height = network.config.height
    grid = np.zeros((height, width), dtype=np.int64)
    for load in link_loads(network):
        x, y = coordinates(load.router, width)
        grid[y, x] += getattr(load, metric)
    return grid


_BAR_WIDTH = 9


def _bar(value: int, peak: int) -> str:
    """Fixed-width bar cell: "-" for zero, >=1 "#" for any nonzero.

    Every cell is padded to ``_BAR_WIDTH`` so columns stay aligned, and
    small nonzero values are floored to one "#" instead of rounding to
    an empty string that reads like a missing cell.
    """
    if not value:
        return "-".ljust(_BAR_WIDTH)
    hashes = max(1, round(_BAR_WIDTH * value / peak))
    return ("#" * hashes).ljust(_BAR_WIDTH)


def render_heatmap(grid: np.ndarray, title: str) -> str:
    """Render a router-grid metric as an aligned text block."""
    lines = [title]
    peak = max(1, int(grid.max()))
    for row in grid:
        cells = " ".join(f"{int(v):>10d}" for v in row)
        bars = " ".join(_bar(int(v), peak) for v in row)
        lines.append(cells + "    | " + bars.rstrip())
    return "\n".join(lines)
