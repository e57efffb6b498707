"""The metrics registry and its publication paths.

Two contracts matter:

1. Determinism — ``RunResult.metrics`` (and the counters inside job
   records) is part of the simulation output: byte-identical whether a
   registry is enabled or not and regardless of sweep worker count.
2. Single publication — enabling a registry around a sweep yields each
   counter exactly once (the runner's post-run aggregate), never the
   runner's merge *plus* the simulator's direct merge.
"""

from __future__ import annotations

import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.simulator import RunResult, run_model_on_noc
from repro.experiments.cache import ResultCache
from repro.experiments.runner import CampaignRunner
from repro.experiments.spec import SweepSpec
from repro.obs.metrics import (
    MetricsRegistry,
    active_registry,
    disable_metrics,
    enable_metrics,
    merge_metrics,
    metric_family,
    metrics_enabled,
    metrics_session,
    metrics_suspended,
)


@pytest.fixture(autouse=True)
def _no_leaked_registry():
    """Every test starts and ends with metrics disabled."""
    disable_metrics()
    yield
    disable_metrics()


class TestMergeMetrics:
    def test_sums_plain_counters(self):
        into = {"a.x": 1}
        assert merge_metrics(into, {"a.x": 2, "b.y": 3}) is into
        assert into == {"a.x": 3, "b.y": 3}

    def test_peak_names_merge_by_max(self):
        into = {"r.occ.peak": 5}
        merge_metrics(into, {"r.occ.peak": 3})
        assert into["r.occ.peak"] == 5
        merge_metrics(into, {"r.occ.peak": 9})
        assert into["r.occ.peak"] == 9

    def test_non_numeric_overwrites(self):
        into = {"tag": "old"}
        merge_metrics(into, {"tag": "new"})
        assert into["tag"] == "new"

    def test_family_is_prefix_before_first_dot(self):
        assert metric_family("event.heap_pushes") == "event"
        assert metric_family("router.buffer_occupancy.peak") == "router"
        assert metric_family("plain") == "plain"


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.count("a.hits")
        reg.count("a.hits", 4)
        assert reg.snapshot() == {"a.hits": 5}

    def test_record_max_keeps_running_maximum(self):
        reg = MetricsRegistry()
        reg.record_max("q.depth.peak", 3)
        reg.record_max("q.depth.peak", 7)
        reg.record_max("q.depth.peak", 2)
        assert reg.snapshot()["q.depth.peak"] == 7

    def test_merge_routes_peaks_and_counters(self):
        reg = MetricsRegistry()
        reg.merge({"a.n": 2, "a.d.peak": 4, "skip": "text"})
        reg.merge({"a.n": 3, "a.d.peak": 1})
        snap = reg.snapshot()
        assert snap == {"a.n": 5, "a.d.peak": 4}

    def test_families_group_by_prefix(self):
        reg = MetricsRegistry()
        reg.count("event.pops", 1)
        reg.count("router.grants", 2)
        reg.record_max("router.occ.peak", 3)
        fams = reg.families()
        assert set(fams) == {"event", "router"}
        assert set(fams["router"]) == {"router.grants", "router.occ.peak"}

    def test_len_counts_distinct_metrics(self):
        reg = MetricsRegistry()
        assert len(reg) == 0
        reg.count("a", 1)
        reg.record_max("b.peak", 1)
        assert len(reg) == 2

    def test_snapshot_is_a_detached_copy(self):
        reg = MetricsRegistry()
        reg.count("a.n", 1)
        reg.record_max("a.d.peak", 2)
        snap = reg.snapshot()
        snap["a.n"] = 99
        snap["extra"] = 1
        assert reg.snapshot() == {"a.n": 1, "a.d.peak": 2}

    def test_merge_folds_flattened_histogram_names(self):
        """Snapshots that carry ``.count``/``.total``/``.max.peak``
        names (as histogram flattening once wrote) still fold in:
        the totals sum and the ``.peak`` keeps the max."""
        reg = MetricsRegistry()
        reg.merge({"lat.count": 3, "lat.total": 10.0, "lat.max.peak": 5.0})
        reg.merge({"lat.count": 1, "lat.total": 2.5, "lat.max.peak": 4.0})
        assert reg.snapshot() == {
            "lat.count": 4,
            "lat.total": 12.5,
            "lat.max.peak": 5.0,
        }


class TestSessionState:
    def test_disabled_by_default(self):
        assert active_registry() is None
        assert not metrics_enabled()

    def test_enable_disable(self):
        reg = enable_metrics()
        assert active_registry() is reg
        assert metrics_enabled()
        disable_metrics()
        assert active_registry() is None

    def test_session_restores_previous(self):
        outer = enable_metrics()
        with metrics_session() as inner:
            assert active_registry() is inner
            assert inner is not outer
        assert active_registry() is outer

    def test_session_accepts_existing_registry(self):
        mine = MetricsRegistry()
        with metrics_session(mine) as reg:
            assert reg is mine
            assert active_registry() is mine
        assert active_registry() is None

    def test_suspended_hides_and_restores(self):
        reg = enable_metrics()
        with metrics_suspended():
            assert active_registry() is None
        assert active_registry() is reg

    def test_suspended_is_a_no_op_when_disabled(self):
        with metrics_suspended():
            assert active_registry() is None
        assert active_registry() is None


def _tiny_run(small_lenet, digit_image) -> RunResult:
    config = AcceleratorConfig(
        width=3, height=3, n_mcs=1, max_tasks_per_layer=2, seed=11
    )
    return run_model_on_noc(config, small_lenet, digit_image)


class TestRunResultMetrics:
    def test_metrics_identical_with_and_without_registry(
        self, small_lenet, digit_image
    ):
        bare = _tiny_run(small_lenet, digit_image)
        with metrics_session():
            observed = _tiny_run(small_lenet, digit_image)
        assert bare.metrics == observed.metrics
        assert bare.metrics  # non-empty

    def test_expected_counter_families_present(
        self, small_lenet, digit_image
    ):
        result = _tiny_run(small_lenet, digit_image)
        families = {metric_family(name) for name in result.metrics}
        assert {"event", "router", "codec"} <= families
        assert result.metrics["event.steps_executed"] == (
            result.steps_executed
        )
        assert result.metrics["event.idle_cycles_skipped"] == (
            result.idle_cycles_skipped
        )
        assert result.metrics["router.vc_grants"] > 0
        assert result.metrics["router.buffer_occupancy.peak"] >= 1
        assert result.metrics["codec.batch_chunks"] > 0
        assert result.metrics["codec.scalar_chunks"] == 0

    def test_simulator_publishes_into_active_registry(
        self, small_lenet, digit_image
    ):
        with metrics_session() as reg:
            result = _tiny_run(small_lenet, digit_image)
        snap = reg.snapshot()
        for name, value in result.metrics.items():
            assert snap[name] == value

    def test_round_trip_keeps_metrics(self, small_lenet, digit_image):
        result = _tiny_run(small_lenet, digit_image)
        back = RunResult.from_dict(result.to_dict())
        assert back.metrics == result.metrics
        assert back.steps_executed == result.steps_executed
        assert back.idle_cycles_skipped == result.idle_cycles_skipped

    def test_old_payloads_default_new_fields(self):
        result = RunResult(
            config=AcceleratorConfig(width=2, height=2, n_mcs=1),
            total_bit_transitions=1,
            total_cycles=2,
            flit_hops=3,
            layers=[],
            tasks_verified=1,
            tasks_total=1,
            mean_packet_latency=0.0,
            ordering_latency_cycles=0,
        )
        payload = result.to_dict()
        for key in ("steps_executed", "idle_cycles_skipped", "metrics"):
            payload.pop(key)
        back = RunResult.from_dict(payload)
        assert back.steps_executed == 0
        assert back.idle_cycles_skipped == 0
        assert back.metrics == {}


def _smoke_spec(name: str) -> SweepSpec:
    """A tiny fig12-style model sweep (one mesh, two orderings)."""
    return SweepSpec(
        name=name,
        base={"max_tasks_per_layer": 2, "seed": 11},
        axes={"mesh": ["3x3:1"], "ordering": ["O0", "O2"]},
    )


class TestSweepMetrics:
    def test_campaign_metrics_cover_all_four_families(self, tmp_path):
        """Acceptance: a fig12 smoke sweep with metrics enabled emits
        event-core, router, codec, and cache counter families."""
        runner = CampaignRunner(
            cache=ResultCache(tmp_path / "cache"), workers=1
        )
        with metrics_session() as reg:
            out = runner.run(_smoke_spec("obs_smoke"))
        assert not out.errors, out.summary()
        families = {metric_family(name) for name in out.metrics}
        assert {"event", "router", "codec", "cache", "runner"} <= families
        snap = reg.snapshot()
        assert {metric_family(name) for name in snap} >= {
            "event", "router", "codec", "cache",
        }
        assert out.metrics["cache.misses"] == 2
        assert out.metrics["runner.jobs"] == 2

    def test_no_double_counting_through_registry(self, tmp_path):
        """The runner aggregate is the only publication path: the
        registry total equals the record totals exactly."""
        runner = CampaignRunner(
            cache=ResultCache(tmp_path / "cache"), workers=1
        )
        with metrics_session() as reg:
            out = runner.run(_smoke_spec("obs_once"))
        expected = 0
        for record in out.records:
            expected += record["result"]["metrics"]["event.steps_executed"]
        assert out.metrics["event.steps_executed"] == expected
        assert reg.snapshot()["event.steps_executed"] == expected

    def test_cached_records_still_contribute_metrics(self, tmp_path):
        runner = CampaignRunner(
            cache=ResultCache(tmp_path / "cache"), workers=1
        )
        cold = runner.run(_smoke_spec("obs_cached"))
        warm = runner.run(_smoke_spec("obs_cached"))
        assert warm.hits == 2 and warm.misses == 0
        for name, value in cold.metrics.items():
            if name.startswith(("cache.", "runner.")):
                continue
            assert warm.metrics[name] == value

    def test_record_metrics_match_across_worker_counts(self, tmp_path):
        """Job-record determinism extends to the metrics payloads."""
        inline = CampaignRunner(workers=1).run(_smoke_spec("obs_w"))
        pooled = CampaignRunner(workers=2).run(_smoke_spec("obs_w"))
        assert not inline.errors and not pooled.errors
        for a, b in zip(inline.records, pooled.records):
            assert a["result"]["metrics"] == b["result"]["metrics"]
            assert a["result"]["steps_executed"] == (
                b["result"]["steps_executed"]
            )
