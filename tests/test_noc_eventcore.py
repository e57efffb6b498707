"""Cycle-exactness of the event-driven core vs the reference stepper.

The event core (active-set tracking, arrival heap, merged router
phases, idle fast-forward) is an optimization, not a remodel: every
simulation must produce *identical* results to the retained reference
stepper — same cycle counts, same latencies, same per-link BT dicts,
same aggregate stats.  This matrix pins that equivalence across the
configuration axes that stress different parts of the fast path:
multi-cycle links, multi-flit injection, congestion-heavy arbitration,
packet scheduling policies, pipelined (no-barrier) mode, and
injection-link recording.
"""

from __future__ import annotations

import itertools

import dataclasses

import numpy as np
import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.simulator import AcceleratorSimulator
from repro.dnn.models import build_model
from repro.noc.flit import make_packet
from repro.noc.network import CORES, Network, NoCConfig
from repro.noc.traffic import (
    SyntheticTrafficConfig,
    TrafficPattern,
    drive_synthetic,
)
from repro.ordering.strategies import OrderingMethod
from repro.workloads.figures import figure_lenet_image, figure_trained_lenet

# Unique packet ids for hand-built test traffic.
_IDS = itertools.count()


def run_synthetic_pair(traffic: SyntheticTrafficConfig, noc: NoCConfig):
    """The same synthetic run under both cores."""
    networks = {}
    for core in CORES:
        networks[core] = drive_synthetic(
            traffic, dataclasses.replace(noc, core=core)
        )
    return networks["event"], networks["stepped"]


def assert_networks_equal(event: Network, stepped: Network) -> None:
    """Full-stats equivalence of two drained networks."""
    assert dataclasses.asdict(event.stats) == dataclasses.asdict(
        stepped.stats
    )
    assert event.ledger.per_link() == stepped.ledger.per_link()
    assert (
        event.ledger.total_transitions == stepped.ledger.total_transitions
    )
    assert (
        event.ledger.total_flit_traversals
        == stepped.ledger.total_flit_traversals
    )
    # The event core may only ever *skip* cycles, never add them.
    assert event.steps_executed <= event.stats.cycles
    assert stepped.steps_executed == stepped.stats.cycles


class TestCoreSelection:
    def test_default_core_is_event(self):
        assert Network(NoCConfig(width=2, height=2)).event_core

    def test_config_pins_core(self):
        net = Network(NoCConfig(width=2, height=2, core="stepped"))
        assert net.core == "stepped"

    def test_explicit_core_argument(self):
        net = Network(NoCConfig(width=2, height=2), core="stepped")
        assert net.core == "stepped"
        assert not net.event_core

    def test_unknown_core_rejected(self):
        with pytest.raises(ValueError, match="unknown network core"):
            Network(NoCConfig(width=2, height=2), core="warp")
        with pytest.raises(ValueError, match="unknown network core"):
            NoCConfig(width=2, height=2, core="warp")

    def test_explicit_core_argument_overrides_config(self):
        net = Network(NoCConfig(width=2, height=2, core="stepped"),
                      core="event")
        assert net.core == "event"
        assert net.event_core

    def test_core_choice_leaves_no_process_state(self):
        """Picking a core is per network: a stepped network built (and
        run) earlier in the process does not change what the next
        unpinned network, or the next unpinned config, runs on."""
        stepped = Network(
            NoCConfig(width=2, height=2, link_width=32, core="stepped")
        )
        stepped.send_packet(make_packet(0, 3, [5], 32, packet_id=next(_IDS)))
        stepped.run_until_drained()
        assert stepped.steps_executed == stepped.stats.cycles
        assert Network(NoCConfig(width=2, height=2)).core == "event"
        assert AcceleratorConfig().noc_config().core is None

    def test_accelerator_config_core_reaches_network(self):
        base = AcceleratorConfig(core="stepped")
        assert base.noc_config().core == "stepped"
        assert Network(base.noc_config()).core == "stepped"

    def test_unknown_accelerator_core_rejected(self):
        with pytest.raises(ValueError, match="unknown network core"):
            AcceleratorConfig(core="warp")


SYNTHETIC_MATRIX = [
    # (label, traffic kwargs, noc kwargs)
    ("uniform_dense", dict(n_packets=60, injection_window=20), {}),
    ("uniform_sparse", dict(n_packets=25, injection_window=4000), {}),
    (
        "hotspot_congested",
        dict(
            pattern=TrafficPattern.HOTSPOT,
            n_packets=70,
            injection_window=25,
        ),
        {},
    ),
    (
        "link_latency_3",
        dict(n_packets=40, injection_window=60),
        dict(link_latency=3),
    ),
    (
        "injection_rate_2",
        dict(n_packets=40, injection_window=40, flits_per_packet=6),
        dict(injection_rate=2),
    ),
    (
        "record_injection",
        dict(n_packets=40, injection_window=50),
        dict(record_injection=True),
    ),
    (
        "header_bits",
        dict(n_packets=30, injection_window=40),
        dict(include_header_bits=True),
    ),
    (
        "transpose_vc1",
        dict(pattern=TrafficPattern.TRANSPOSE, n_packets=32,
             injection_window=10),
        dict(n_vcs=1, vc_depth=2),
    ),
    # The synthetic injection-rate points of the retired CI bench
    # smoke: a fixed packet count on an 8x8 mesh of 128-bit links, one
    # busy and one idle-dominated window.
    (
        "mesh8_w128_window100",
        dict(n_packets=30, injection_window=100, seed=7),
        dict(width=8, height=8, link_width=128),
    ),
    (
        "mesh8_w128_window2000",
        dict(n_packets=30, injection_window=2000, seed=7),
        dict(width=8, height=8, link_width=128),
    ),
]


class TestSyntheticEquivalence:
    @pytest.mark.parametrize(
        "label,traffic_kw,noc_kw",
        SYNTHETIC_MATRIX,
        ids=[row[0] for row in SYNTHETIC_MATRIX],
    )
    def test_matrix(self, label, traffic_kw, noc_kw):
        traffic = SyntheticTrafficConfig(**{"seed": 11, **traffic_kw})
        noc = NoCConfig(
            **{"width": 4, "height": 4, "link_width": 64, **noc_kw}
        )
        event, stepped = run_synthetic_pair(traffic, noc)
        assert_networks_equal(event, stepped)

    def test_sparse_run_fast_forwards(self):
        traffic = SyntheticTrafficConfig(n_packets=20,
                                         injection_window=5000, seed=3)
        noc = NoCConfig(width=4, height=4, link_width=64)
        event, stepped = run_synthetic_pair(traffic, noc)
        assert_networks_equal(event, stepped)
        # The wide injection window is idle-dominated: the event core
        # must have jumped over most of it.
        assert event.steps_executed < event.stats.cycles // 2

    def test_multi_cycle_links_use_arrival_heap(self):
        noc = NoCConfig(width=4, height=1, link_width=32, link_latency=5)
        results = {}
        for core in CORES:
            net = Network(noc, core=core)
            net.send_packet(
                make_packet(0, 3, [7, 9], 32, packet_id=next(_IDS))
            )
            net.send_packet(
                make_packet(1, 3, [3], 32, packet_id=next(_IDS))
            )
            net.run_until_drained()
            results[core] = net
        assert_networks_equal(results["event"], results["stepped"])
        # 3 hops at 5 cycles each plus router stages: latency must
        # reflect the link pipeline under both cores.
        assert results["event"].stats.cycles > 15


# (label, model, overrides of the 3x3 MC1 O2 3-task base point).
# "random" is a seeded random-weight LeNet; the "trained" rows are the
# multi-MC trained-LeNet points of the Fig. 12 grids (the 2-task 4x4
# row is the Fig. 13 LeNet point), where several MCs inject at once
# and routes cross the mesh.
ACCEL_MATRIX = [
    ("defaults", "random", {}),
    ("count_desc", "random", dict(packet_scheduling="count_desc")),
    ("pipelined", "random", dict(layer_barrier=False)),
    (
        "no_responses",
        "random",
        dict(include_responses=False, compute_delay=0),
    ),
    ("compute_delay_7", "random", dict(compute_delay=7)),
    (
        "weight_cache",
        "random",
        dict(weight_cache=True, mapping_policy="group_affine"),
    ),
    (
        "ordering_latency",
        "random",
        dict(extra={"model_ordering_latency": True}),
    ),
    (
        "trained_4x4_mc2_O0",
        "trained",
        dict(width=4, height=4, n_mcs=2, max_tasks_per_layer=4,
             ordering=OrderingMethod.BASELINE),
    ),
    (
        "trained_4x4_mc2_O2",
        "trained",
        dict(width=4, height=4, n_mcs=2, max_tasks_per_layer=4),
    ),
    (
        "trained_4x4_mc2_O2_2tasks",
        "trained",
        dict(width=4, height=4, n_mcs=2, max_tasks_per_layer=2),
    ),
    (
        "trained_8x8_mc2_O2",
        "trained",
        dict(width=8, height=8, n_mcs=2, max_tasks_per_layer=2),
    ),
    (
        "trained_12x12_mc2_O2",
        "trained",
        dict(width=12, height=12, n_mcs=2, max_tasks_per_layer=2),
    ),
]


class TestAcceleratorEquivalence:
    @pytest.fixture(scope="class")
    def random_lenet(self):
        model = build_model("lenet", rng=np.random.default_rng(9))
        image = (
            np.random.default_rng(5)
            .random(model.input_shape)
            .astype(np.float32)
        )
        return model, image

    @pytest.fixture(scope="class")
    def trained_lenet(self):
        return figure_trained_lenet(), figure_lenet_image()

    @pytest.mark.parametrize(
        "label,model_kind,overrides",
        ACCEL_MATRIX,
        ids=[row[0] for row in ACCEL_MATRIX],
    )
    def test_matrix(self, request, label, model_kind, overrides):
        model, image = request.getfixturevalue(f"{model_kind}_lenet")
        base = dict(
            width=3,
            height=3,
            n_mcs=1,
            data_format="fixed8",
            ordering=OrderingMethod.SEPARATED,
            max_tasks_per_layer=3,
            seed=2025,
        )
        results = {}
        for core in CORES:
            config = AcceleratorConfig(**{**base, **overrides, "core": core})
            sim = AcceleratorSimulator(config, model, image)
            results[core] = sim.run()
        event, stepped = results["event"], results["stepped"]
        assert event.total_cycles == stepped.total_cycles
        assert event.total_bit_transitions == stepped.total_bit_transitions
        assert event.flit_hops == stepped.flit_hops
        assert event.mean_packet_latency == stepped.mean_packet_latency
        assert event.per_link == stepped.per_link
        assert event.layers == stepped.layers
        assert event.tasks_verified == stepped.tasks_verified
        assert event.all_verified
        assert event.steps_executed <= event.total_cycles
        assert stepped.steps_executed == stepped.total_cycles


# Recording-side axes of the replay conformance matrix: the pipelining
# mode and each MC packet-scheduling policy shape the captured traffic
# differently (barrier drains vs free pipelining, FIFO vs count-sorted
# injection order).
RECORDING_MATRIX = [
    ("barrier_fifo", dict(layer_barrier=True, packet_scheduling="fifo")),
    (
        "barrier_count_desc",
        dict(layer_barrier=True, packet_scheduling="count_desc"),
    ),
    (
        "pipelined_fifo",
        dict(layer_barrier=False, packet_scheduling="fifo"),
    ),
    (
        "pipelined_count_desc",
        dict(layer_barrier=False, packet_scheduling="count_desc"),
    ),
]


class TestReplayConformanceMatrix:
    """Cross-core differential conformance on *recorded* traffic.

    A trace captured from a live accelerator run is a durable oracle:
    replaying it must produce bit-identical per-link BT ledgers on the
    event and the stepped core — across recording configurations
    (pipelined on/off, each scheduling policy) and replay-side link
    latencies.  At the recorded latency the replay must additionally
    reproduce the capture's own per-link transitions exactly.
    """

    @pytest.fixture(scope="class")
    def traces(self):
        from repro.noc.recorder import TraceRecorder

        model = build_model("lenet", rng=np.random.default_rng(9))
        image = (
            np.random.default_rng(5)
            .random(model.input_shape)
            .astype(np.float32)
        )
        traces = {}
        for label, overrides in RECORDING_MATRIX:
            config = AcceleratorConfig(
                width=3,
                height=3,
                n_mcs=1,
                data_format="fixed8",
                ordering=OrderingMethod.SEPARATED,
                max_tasks_per_layer=2,
                seed=2025,
                **overrides,
            )
            sim = AcceleratorSimulator(config, model, image)
            recorder = TraceRecorder()
            result = sim.run(trace_collector=recorder)
            trace = recorder.finish(config.noc_config())
            assert (
                trace.total_transitions() == result.total_bit_transitions
            )
            traces[label] = trace
        return traces

    @pytest.mark.parametrize(
        "label",
        [row[0] for row in RECORDING_MATRIX],
    )
    @pytest.mark.parametrize("link_latency", [1, 2])
    def test_cores_produce_identical_ledgers(
        self, traces, label, link_latency
    ):
        from repro.workloads.traces import replay_through_network

        trace = traces[label]
        overrides = (
            None if link_latency == 1 else {"link_latency": link_latency}
        )
        ledgers = {}
        stats = {}
        for core in CORES:
            network = replay_through_network(
                trace, core=core, overrides=overrides
            )
            ledgers[core] = network.ledger.per_link()
            stats[core] = dataclasses.asdict(network.stats)
        # The conformance pin: identical per-link BT dicts, not just
        # matching totals — a cross-core divergence on one link must
        # not hide behind a compensating divergence on another.
        assert ledgers["event"] == ledgers["stepped"]
        assert stats["event"] == stats["stepped"]
        if link_latency == 1:
            # Recorded latency: the replay reproduces the capture.
            assert ledgers["event"] == trace.per_link_transitions()

    @pytest.fixture(scope="class")
    def synthetic_trace(self):
        """The retired CI bench smoke's replay point: a bursty uniform
        run on an 8x8 mesh of 128-bit links."""
        from repro.noc.recorder import TraceRecorder

        recorder = TraceRecorder()
        network = drive_synthetic(
            SyntheticTrafficConfig(
                pattern=TrafficPattern.UNIFORM_RANDOM,
                n_packets=40,
                injection_window=60,
                seed=13,
            ),
            NoCConfig(width=8, height=8, link_width=128),
            trace_collector=recorder,
        )
        return recorder.finish(network.config)

    @pytest.mark.parametrize("ordering", ["none", "popcount_desc"])
    def test_synthetic_trace_replays_identically(
        self, synthetic_trace, ordering
    ):
        from repro.workloads.traces import replay_through_network

        networks = {
            core: replay_through_network(
                synthetic_trace, core=core, ordering=ordering
            )
            for core in CORES
        }
        assert_networks_equal(networks["event"], networks["stepped"])
        if ordering == "none":
            assert (
                networks["event"].ledger.per_link()
                == synthetic_trace.per_link_transitions()
            )
