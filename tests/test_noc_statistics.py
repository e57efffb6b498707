"""Tests for repro.noc.statistics."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.noc.flit import make_packet
from repro.noc.network import Network, NoCConfig
from repro.noc.routing import Port
from repro.noc.statistics import link_loads, render_heatmap, router_heatmap

# Unique packet ids for hand-built test traffic.
_IDS = itertools.count()


def run_simple_network() -> Network:
    net = Network(NoCConfig(width=4, height=4, link_width=64))
    for src in range(8):
        net.send_packet(
            make_packet(src, 15, [src * 37, src], 64, packet_id=next(_IDS))
        )
    net.run_until_drained()
    return net


class TestLinkLoads:
    def test_totals_match_ledger(self):
        net = run_simple_network()
        loads = link_loads(net)
        assert sum(l.transitions for l in loads) == (
            net.stats.total_bit_transitions
        )
        assert sum(l.flits for l in loads) == net.stats.flit_hops

    def test_sorted_by_transitions(self):
        net = run_simple_network()
        loads = link_loads(net)
        values = [l.transitions for l in loads]
        assert values == sorted(values, reverse=True)

    def test_fields_parsed(self):
        net = run_simple_network()
        for load in link_loads(net):
            assert 0 <= load.router < 16
            assert isinstance(load.port, Port)
            assert load.name == f"R{load.router}.{load.port.name}"

    def test_transitions_per_flit(self):
        net = run_simple_network()
        for load in link_loads(net):
            if load.flits:
                assert load.transitions_per_flit == (
                    load.transitions / load.flits
                )

    def test_excludes_injection_recorders(self):
        net = Network(
            NoCConfig(width=2, height=2, link_width=64, record_injection=True)
        )
        net.send_packet(make_packet(0, 3, [1, 2], 64, packet_id=next(_IDS)))
        net.run_until_drained()
        names = {l.name for l in link_loads(net)}
        assert all(n.startswith("R") for n in names)


class TestHeatmap:
    def test_grid_shape(self):
        net = run_simple_network()
        grid = router_heatmap(net)
        assert grid.shape == (4, 4)

    def test_destination_column_busy(self):
        # All traffic heads to node 15; routers on the last column/row
        # carry it, node 15 ejects it.
        net = run_simple_network()
        grid = router_heatmap(net, metric="flits")
        assert grid[3, 3] > 0

    def test_totals_conserved(self):
        net = run_simple_network()
        grid = router_heatmap(net, metric="transitions")
        assert int(grid.sum()) == net.stats.total_bit_transitions

    def test_bad_metric(self):
        net = run_simple_network()
        with pytest.raises(ValueError):
            router_heatmap(net, metric="latency")

    def test_render(self):
        grid = np.array([[10, 0], [5, 10]])
        text = render_heatmap(grid, "demo")
        assert "demo" in text
        assert "10" in text


class TestHeatmapAlignment:
    def test_zero_and_small_cells_fixed_width(self):
        # Regression: zero cells once rendered as a bare "-" while
        # nonzero cells rendered value-proportional hash runs, so bar
        # columns drifted out of alignment row to row.
        grid = np.array([[100, 0, 1], [0, 50, 100]])
        text = render_heatmap(grid, "align")
        bar_rows = [
            line.split("| ", 1)[1]
            for line in text.splitlines()
            if "|" in line
        ]
        assert len(bar_rows) == 2
        for row in bar_rows:
            padded = row.ljust(3 * 9 + 2)
            # Each bar cell occupies exactly _BAR_WIDTH columns.
            cells = [padded[i * 10 : i * 10 + 9] for i in range(3)]
            for cell in cells:
                assert cell.strip("#- ") == ""
        # A tiny nonzero cell still gets at least one hash, a zero
        # cell renders as "-".
        assert bar_rows[0].split()[2].startswith("#")
        assert bar_rows[0].split()[1] == "-"
