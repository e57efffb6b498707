"""Differential test: scoring codings on a shared schedule vs full runs.

:func:`run_codings` simulates a timing signature once and scores every
other coding on the logged per-link flit sequences.  Every result
must equal a fresh standalone :meth:`AcceleratorSimulator.run` of its
config, ``to_dict()`` for ``to_dict()`` (per-link and per-layer BTs,
verified MAC counts, metrics, ordering latency), and configs whose
packets do not fit the shared schedule must fall back to a full run.
"""

from __future__ import annotations

import json

import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.simulator import (
    AcceleratorSimulator,
    run_codings,
    run_model_on_noc,
)
from repro.ordering.strategies import FillOrder, OrderingMethod

O0 = OrderingMethod.BASELINE
O1 = OrderingMethod.AFFILIATED
O2 = OrderingMethod.SEPARATED

#: The six paper codings: data format x ordering.
PAPER_CODINGS = [
    {"data_format": fmt, "ordering": method}
    for fmt in ("fixed8", "float32")
    for method in (O0, O1, O2)
]

#: Fill order and codec variants on top of the ordered formats.
FILL_CODEC_CODINGS = [
    {
        "data_format": fmt,
        "ordering": method,
        "fill_order": fill,
        "codec": codec,
    }
    for fmt in ("fixed8", "float32")
    for method in (O1, O2)
    for fill in FillOrder
    for codec in ("batch", "scalar")
]


def configs(codings, **base) -> list[AcceleratorConfig]:
    base = {"max_tasks_per_layer": 3, "seed": 7, **base}
    return [AcceleratorConfig(**base, **coding) for coding in codings]


@pytest.fixture
def simulations(monkeypatch) -> list[AcceleratorConfig]:
    """Configs of every full simulation run while the test runs."""
    ran: list[AcceleratorConfig] = []
    original = AcceleratorSimulator.simulate

    def simulate(self, *args, **kwargs):
        ran.append(self.config)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AcceleratorSimulator, "simulate", simulate)
    return ran


def assert_matches_standalone(cfgs, model, image) -> list:
    shared = run_codings(cfgs, model, image)
    assert len(shared) == len(cfgs)
    for config, result in zip(cfgs, shared):
        alone = run_model_on_noc(config, model, image)
        assert result.config == config
        assert result.all_verified, config.label()
        got, want = result.to_dict(), alone.to_dict()
        assert got == want, config.label()
        # Same key order too: stores and digests serialise it.
        assert json.dumps(got) == json.dumps(want), config.label()
    return shared


class TestSharedScheduleMatchesStandalone:
    @pytest.mark.parametrize(
        "width, height, n_mcs", [(2, 2, 1), (4, 4, 2), (8, 8, 4)]
    )
    def test_paper_codings_on_each_mesh(
        self, small_lenet, digit_image, simulations, width, height, n_mcs
    ):
        cfgs = configs(
            PAPER_CODINGS,
            width=width,
            height=height,
            n_mcs=n_mcs,
            max_tasks_per_layer=2,
        )
        assert_matches_standalone(cfgs, small_lenet, digit_image)
        # One simulation for the group, then one standalone per config.
        assert simulations[: -len(cfgs)] == cfgs[:1]

    def test_fill_orders_and_scalar_codec(
        self, small_lenet, digit_image, simulations
    ):
        cfgs = configs(FILL_CODEC_CODINGS)
        assert_matches_standalone(cfgs, small_lenet, digit_image)
        assert simulations[: -len(cfgs)] == cfgs[:1]

    @pytest.mark.parametrize(
        "variant",
        [
            {"include_responses": False},
            {"layer_barrier": False},
            {"mapping_policy": "group_affine", "weight_cache": True},
            {"core": "stepped"},
            {"record_ejection": False},
        ],
        ids=[
            "no-responses",
            "pipelined",
            "weight-cache",
            "stepped-core",
            "no-ejection-recording",
        ],
    )
    def test_config_variants(
        self, small_lenet, digit_image, simulations, variant
    ):
        cfgs = configs(PAPER_CODINGS, max_tasks_per_layer=6, **variant)
        assert_matches_standalone(cfgs, small_lenet, digit_image)
        assert simulations[: -len(cfgs)] == cfgs[:1]


class TestGuardFallback:
    """Codings whose packets change the schedule run in full."""

    def test_payload_sorted_scheduling(
        self, small_lenet, digit_image, simulations
    ):
        cfgs = configs(PAPER_CODINGS, packet_scheduling="count_desc")
        assert_matches_standalone(cfgs, small_lenet, digit_image)
        assert len(simulations[: -len(cfgs)]) > 1

    def test_in_band_index_flits(self, small_lenet, digit_image, simulations):
        cfgs = configs(PAPER_CODINGS, include_index_payload=True)
        assert_matches_standalone(cfgs, small_lenet, digit_image)
        # Only separated ordering ships index flits.
        fell_back = simulations[1 : -len(cfgs)]
        assert fell_back and {c.ordering for c in fell_back} == {O2}

    def test_modelled_ordering_latency(
        self, small_lenet, digit_image, simulations
    ):
        cfgs = configs(
            PAPER_CODINGS, extra={"model_ordering_latency": True}
        )
        results = assert_matches_standalone(cfgs, small_lenet, digit_image)
        # O0 orders nothing; O1 and O2 delay their injections.
        fell_back = simulations[1 : -len(cfgs)]
        assert {c.ordering for c in fell_back} == {O1, O2}
        assert [r.ordering_latency_cycles > 0 for r in results] == [
            c.ordering is not O0 for c in cfgs
        ]


class TestSignature:
    def test_coding_fields_leave_the_signature(self):
        base = AcceleratorConfig()
        for coding in PAPER_CODINGS + FILL_CODEC_CODINGS:
            other = AcceleratorConfig(**coding)
            assert other.timing_signature() == base.timing_signature()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("core", "stepped"),
            ("seed", 1),
            ("max_tasks_per_layer", 4),
            ("width", 8),
            ("extra", {"model_ordering_latency": True}),
        ],
    )
    def test_timing_fields_stay_in(self, field, value):
        changed = AcceleratorConfig(**{field: value})
        assert changed.timing_signature() != (
            AcceleratorConfig().timing_signature()
        )

    def test_mixed_signatures_are_refused(self, small_lenet, digit_image):
        with pytest.raises(ValueError, match="timing signature"):
            run_codings(
                [AcceleratorConfig(), AcceleratorConfig(core="stepped")],
                small_lenet,
                digit_image,
            )

    def test_empty_and_single(self, small_lenet, digit_image, simulations):
        assert run_codings([], small_lenet, digit_image) == []
        (config,) = configs(PAPER_CODINGS[:1])
        (result,) = run_codings([config], small_lenet, digit_image)
        assert simulations == [config]
        assert result.to_dict() == (
            run_model_on_noc(config, small_lenet, digit_image).to_dict()
        )

