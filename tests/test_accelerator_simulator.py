"""Integration tests: full DNN traffic through the NoC."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.simulator import (
    AcceleratorSimulator,
    aggregate_results,
    run_batch_on_noc,
    run_model_on_noc,
)
from repro.ordering.strategies import OrderingMethod


def tiny_config(**kwargs) -> AcceleratorConfig:
    defaults = dict(
        width=4, height=4, n_mcs=2, max_tasks_per_layer=6, seed=11
    )
    defaults.update(kwargs)
    return AcceleratorConfig(**defaults)


@pytest.fixture(scope="module")
def results(small_lenet, digit_image):
    """One run per (format, ordering) on a tiny workload."""
    out = {}
    for fmt in ("float32", "fixed8"):
        for method in OrderingMethod:
            cfg = tiny_config(data_format=fmt, ordering=method)
            out[(fmt, method)] = run_model_on_noc(
                cfg, small_lenet, digit_image
            )
    return out


class TestFunctionalCorrectness:
    def test_all_tasks_verified(self, results):
        for key, res in results.items():
            assert res.all_verified, f"unverified MACs in {key}"

    def test_task_counts(self, results):
        res = results[("float32", OrderingMethod.BASELINE)]
        assert res.tasks_total == 6 * 5  # 6 tasks x 5 weighted layers

    def test_layer_summaries_complete(self, results):
        res = results[("float32", OrderingMethod.BASELINE)]
        assert [s.layer_name for s in res.layers] == [
            "conv1",
            "conv2",
            "fc1",
            "fc2",
            "fc3",
        ]
        for summary in res.layers:
            assert summary.packets > 0
            assert summary.flits > 0
            assert summary.bit_transitions > 0

    def test_layer_bt_sums_to_total(self, results):
        res = results[("float32", OrderingMethod.BASELINE)]
        assert (
            sum(s.bit_transitions for s in res.layers)
            == res.total_bit_transitions
        )


class TestOrderingEffect:
    @pytest.mark.parametrize("fmt", ["float32", "fixed8"])
    def test_ordering_reduces_bt(self, results, fmt):
        base = results[(fmt, OrderingMethod.BASELINE)].total_bit_transitions
        o1 = results[(fmt, OrderingMethod.AFFILIATED)].total_bit_transitions
        o2 = results[(fmt, OrderingMethod.SEPARATED)].total_bit_transitions
        assert o1 < base
        assert o2 < base

    @pytest.mark.parametrize("fmt", ["float32", "fixed8"])
    def test_separated_beats_affiliated(self, results, fmt):
        o1 = results[(fmt, OrderingMethod.AFFILIATED)].total_bit_transitions
        o2 = results[(fmt, OrderingMethod.SEPARATED)].total_bit_transitions
        assert o2 < o1

    def test_traffic_identical_across_orderings(self, results):
        # Ordering changes bits, not the traffic volume.
        hops = {
            m: results[("float32", m)].flit_hops for m in OrderingMethod
        }
        assert len(set(hops.values())) == 1


class TestConfigurationVariants:
    def test_no_responses_still_verifies(self, small_lenet, digit_image):
        cfg = tiny_config(include_responses=False, max_tasks_per_layer=3)
        res = run_model_on_noc(cfg, small_lenet, digit_image)
        assert res.all_verified

    def test_8x8_mesh(self, small_lenet, digit_image):
        cfg = tiny_config(
            width=8, height=8, n_mcs=4, max_tasks_per_layer=3
        )
        res = run_model_on_noc(cfg, small_lenet, digit_image)
        assert res.all_verified

    def test_unchunked_tasks(self, small_lenet, digit_image):
        cfg = tiny_config(chunk_pairs=None, max_tasks_per_layer=3)
        res = run_model_on_noc(cfg, small_lenet, digit_image)
        assert res.all_verified

    def test_index_payload_adds_flits(self, small_lenet, digit_image):
        base = run_model_on_noc(
            tiny_config(
                ordering=OrderingMethod.SEPARATED, max_tasks_per_layer=3
            ),
            small_lenet,
            digit_image,
        )
        banded = run_model_on_noc(
            tiny_config(
                ordering=OrderingMethod.SEPARATED,
                include_index_payload=True,
                max_tasks_per_layer=3,
            ),
            small_lenet,
            digit_image,
        )
        assert banded.flit_hops > base.flit_hops
        assert banded.all_verified

    def test_ordering_latency_accounting(self, small_lenet, digit_image):
        cfg = tiny_config(
            ordering=OrderingMethod.AFFILIATED,
            max_tasks_per_layer=3,
            extra={"model_ordering_latency": True},
        )
        res = run_model_on_noc(cfg, small_lenet, digit_image)
        assert res.ordering_latency_cycles > 0
        assert res.all_verified

    def test_mc8_configuration(self, small_lenet, digit_image):
        cfg = tiny_config(
            width=8, height=8, n_mcs=8, max_tasks_per_layer=2
        )
        res = run_model_on_noc(cfg, small_lenet, digit_image)
        assert res.all_verified

    def test_pipelined_mode_verifies(self, small_lenet, digit_image):
        cfg = tiny_config(layer_barrier=False, max_tasks_per_layer=3)
        res = run_model_on_noc(cfg, small_lenet, digit_image)
        assert res.all_verified
        assert len(res.layers) == 1
        assert res.layers[0].layer_name == "(pipelined)"

    def test_count_desc_scheduling_verifies(self, small_lenet, digit_image):
        cfg = tiny_config(
            packet_scheduling="count_desc", max_tasks_per_layer=4
        )
        res = run_model_on_noc(cfg, small_lenet, digit_image)
        assert res.all_verified
        # Scheduling reorders packets, never changes traffic volume.
        fifo = run_model_on_noc(
            tiny_config(max_tasks_per_layer=4), small_lenet, digit_image
        )
        assert res.flit_hops == fifo.flit_hops

    def test_invalid_scheduling_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(packet_scheduling="shortest_first")

    def test_pipelining_not_slower(self, small_lenet, digit_image):
        barrier = run_model_on_noc(
            tiny_config(max_tasks_per_layer=4), small_lenet, digit_image
        )
        pipelined = run_model_on_noc(
            tiny_config(layer_barrier=False, max_tasks_per_layer=4),
            small_lenet,
            digit_image,
        )
        assert pipelined.total_cycles <= barrier.total_cycles
        # Same traffic volume either way.
        assert pipelined.flit_hops == barrier.flit_hops


class TestBatchInference:
    def test_batch_runs_verify(self, small_lenet):
        from repro.dnn.datasets import synthetic_digits

        images = synthetic_digits(3, seed=6).images
        cfg = tiny_config(max_tasks_per_layer=3)
        results = run_batch_on_noc(cfg, small_lenet, images)
        assert len(results) == 3
        assert all(r.all_verified for r in results)

    def test_aggregate_totals(self, small_lenet):
        from repro.dnn.datasets import synthetic_digits

        images = synthetic_digits(2, seed=6).images
        cfg = tiny_config(max_tasks_per_layer=3)
        results = run_batch_on_noc(cfg, small_lenet, images)
        agg = aggregate_results(results)
        assert agg["images"] == 2.0
        assert agg["total_bit_transitions"] == float(
            sum(r.total_bit_transitions for r in results)
        )
        assert agg["all_verified"] == 1.0

    def test_batch_shape_validation(self, small_lenet, digit_image):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            run_batch_on_noc(cfg, small_lenet, digit_image)  # 3-D

    def test_aggregate_empty(self):
        with pytest.raises(ValueError):
            aggregate_results([])


class TestSimulatorInternals:
    def test_formats_built_per_layer(self, small_lenet, digit_image):
        sim = AcceleratorSimulator(
            tiny_config(data_format="fixed8"), small_lenet, digit_image
        )
        assert len(sim._formats) == 5
        scales = {
            fmt[1].scale for fmt in sim._formats.values()
        }
        assert len(scales) > 1  # per-layer weight scales differ

    def test_run_result_properties(self, results):
        res = results[("float32", OrderingMethod.BASELINE)]
        assert res.transitions_per_flit_hop > 0
        assert res.mean_packet_latency > 0
        assert res.total_cycles > 0


class TestRepeatableRun:
    """A simulator run twice gives the same result twice: the MC's
    weight-cache knowledge, the ordering units and the codec counters
    start fresh on every run."""

    @pytest.mark.parametrize(
        "config",
        [
            tiny_config(),
            tiny_config(
                mapping_policy="group_affine",
                weight_cache=True,
                ordering=OrderingMethod.SEPARATED,
                extra={"model_ordering_latency": True},
            ),
        ],
        ids=["default", "weight-cache-latency"],
    )
    def test_second_run_equals_first(self, small_lenet, digit_image, config):
        sim = AcceleratorSimulator(config, small_lenet, digit_image)
        first = sim.run().to_dict()
        assert sim.run().to_dict() == first
