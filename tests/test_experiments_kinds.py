"""The job-kind registry: dispatch, config schemas, and executors."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import multiprocessing
import pathlib

import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.experiments.kinds import (
    JOB_KINDS,
    JobKind,
    SyntheticJobConfig,
    job_kind,
    register_job_kind,
)
from repro.experiments.runner import CampaignRunner, execute_job
from repro.experiments.spec import JobSpec, SweepSpec
from repro.noc.network import NoCConfig
from repro.noc.traffic import SyntheticTrafficConfig, TrafficPattern

# Unique packet ids for hand-built test traffic.
_IDS = itertools.count()


def tiny_accel(**overrides) -> AcceleratorConfig:
    kwargs = dict(width=2, height=2, n_mcs=1, max_tasks_per_layer=1)
    kwargs.update(overrides)
    return AcceleratorConfig(**kwargs)


def tiny_synth(**overrides) -> SyntheticJobConfig:
    traffic = dict(n_packets=10, seed=3)
    traffic.update(overrides)
    return SyntheticJobConfig(
        traffic=SyntheticTrafficConfig(**traffic),
        noc=NoCConfig(width=3, height=3, link_width=32),
    )


class TestRegistry:
    def test_builtin_kinds_registered(self):
        assert {"model", "batch", "synthetic"} <= set(JOB_KINDS)

    def test_unknown_kind_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown job kind 'quantum'"):
            job_kind("quantum")

    def test_error_names_registered_kinds(self):
        with pytest.raises(ValueError, match="batch.*model.*synthetic"):
            job_kind("nope")

    def test_register_custom_kind(self):
        class NullKind(JobKind):
            name = "null"

            def execute(self, job):
                return {"total_bit_transitions": 0}

        register_job_kind(NullKind())
        try:
            assert job_kind("null").execute(None) == {
                "total_bit_transitions": 0
            }
        finally:
            del JOB_KINDS["null"]


class TestSyntheticJobConfig:
    def test_round_trip(self):
        config = tiny_synth(pattern=TrafficPattern.HOTSPOT, payload="zero")
        rebuilt = SyntheticJobConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.traffic.pattern is TrafficPattern.HOTSPOT

    def test_from_flat_splits_disjoint_namespaces(self):
        config = SyntheticJobConfig.from_flat(
            {"n_packets": 5, "width": 2, "height": 2, "link_width": 16,
             "pattern": "complement"}
        )
        assert config.traffic.n_packets == 5
        assert config.traffic.pattern is TrafficPattern.BIT_COMPLEMENT
        assert (config.noc.width, config.noc.link_width) == (2, 16)

    def test_from_flat_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match=r"\['n_mcs'\]"):
            SyntheticJobConfig.from_flat({"n_mcs": 2})

    def test_unknown_nested_key_rejected(self):
        data = tiny_synth().to_dict()
        data["traffic"]["warp"] = 1
        with pytest.raises(ValueError, match="warp"):
            SyntheticJobConfig.from_dict(data)


class TestJobSpecKinds:
    def test_default_kind_is_model(self):
        job = JobSpec(model="lenet", config=tiny_accel())
        assert job.kind == "model"
        assert job.key_payload()["kind"] == "model"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec(model="lenet", config=tiny_accel(), kind="quantum")

    def test_missing_config_rejected(self):
        with pytest.raises(ValueError, match="need a config"):
            JobSpec(model="lenet")

    def test_model_kind_rejects_batch_sizes(self):
        with pytest.raises(ValueError, match="kind='batch'"):
            JobSpec(model="lenet", config=tiny_accel(), n_images=3)

    def test_synthetic_rejects_model(self):
        with pytest.raises(ValueError, match="no DNN model"):
            JobSpec(model="lenet", config=tiny_synth(), kind="synthetic")

    def test_synthetic_rejects_accelerator_config(self):
        with pytest.raises(ValueError, match="SyntheticJobConfig"):
            JobSpec(config=tiny_accel(), kind="synthetic")

    def test_synthetic_rejects_workload_fields(self):
        """Fields the kind would drop on round-trip are rejected."""
        for override in ({"model_seed": 42}, {"image_seed": 9},
                         {"n_images": 2}):
            with pytest.raises(ValueError, match="traffic seed"):
                JobSpec(config=tiny_synth(), kind="synthetic", **override)

    def test_model_kind_rejects_synthetic_config(self):
        with pytest.raises(ValueError, match="AcceleratorConfig"):
            JobSpec(model="lenet", config=tiny_synth())

    def test_job_ids_differ_across_kinds(self):
        config = tiny_accel()
        single = JobSpec(model="lenet", config=config)
        batch = JobSpec(model="lenet", config=config, kind="batch")
        assert single.job_id != batch.job_id

    def test_batch_id_tracks_n_images(self):
        a = JobSpec(model="lenet", config=tiny_accel(), kind="batch",
                    n_images=2)
        b = JobSpec(model="lenet", config=tiny_accel(), kind="batch",
                    n_images=3)
        assert a.job_id != b.job_id

    def test_labels_are_kind_specific(self):
        assert JobSpec(
            model="lenet", config=tiny_accel()
        ).label().startswith("lenet ")
        assert "[x4]" in JobSpec(
            model="lenet", config=tiny_accel(), kind="batch", n_images=4
        ).label()
        assert JobSpec(
            config=tiny_synth(), kind="synthetic"
        ).label().startswith("synthetic ")


class TestExecutors:
    def test_synthetic_execute_record(self):
        job = JobSpec(config=tiny_synth(), kind="synthetic")
        record = execute_job(job.to_dict())
        assert record["status"] == "ok"
        assert record["kind"] == "synthetic"
        assert record["model"] is None
        result = record["result"]
        assert result["packets_delivered"] == 10
        assert result["total_bit_transitions"] > 0
        assert result["per_link"]
        assert sum(result["per_link"].values()) == (
            result["total_bit_transitions"]
        )

    def test_batch_execute_fans_out_per_image(self):
        job = JobSpec(
            model="lenet", config=tiny_accel(), kind="batch", n_images=2
        )
        record = execute_job(job.to_dict())
        assert record["status"] == "ok"
        result = record["result"]
        assert result["n_images"] == 2
        assert [img["image_index"] for img in result["images"]] == [0, 1]
        assert result["total_bit_transitions"] == sum(
            img["total_bit_transitions"] for img in result["images"]
        )
        assert result["tasks_verified"] == result["tasks_total"]
        # Different images produce different traffic.
        bts = {img["total_bit_transitions"] for img in result["images"]}
        assert len(bts) == 2
        assert result["mean_bt_per_image"] == (
            result["total_bit_transitions"] / 2
        )

    def test_model_record_carries_per_link(self):
        job = JobSpec(model="lenet", config=tiny_accel())
        record = execute_job(job.to_dict())
        per_link = record["result"]["per_link"]
        assert sum(per_link.values()) == (
            record["result"]["total_bit_transitions"]
        )


class TestSweepKinds:
    def test_synthetic_expansion(self):
        spec = SweepSpec(
            name="s",
            kind="synthetic",
            base={"n_packets": 5, "link_width": 32},
            axes={"mesh": ["2x2", "3x3"],
                  "pattern": ["uniform", "complement"]},
        )
        jobs = spec.expand()
        assert len(jobs) == 4
        assert all(j.kind == "synthetic" for j in jobs)
        assert jobs[0].config.noc.width == 2
        assert jobs[3].config.noc.width == 3
        assert jobs[3].config.traffic.pattern is (
            TrafficPattern.BIT_COMPLEMENT
        )

    def test_synthetic_derived_seeds_differ_per_point(self):
        spec = SweepSpec(
            kind="synthetic",
            base={"n_packets": 5},
            axes={"pattern": ["uniform", "transpose"]},
        )
        seeds = {j.config.traffic.seed for j in spec.expand()}
        assert len(seeds) == 2

    def test_batch_n_images_axis(self):
        spec = SweepSpec(
            kind="batch",
            base={"max_tasks_per_layer": 1, "width": 2, "height": 2,
                  "n_mcs": 1},
            axes={"n_images": [1, 2, 4]},
        )
        assert [j.n_images for j in spec.expand()] == [1, 2, 4]

    def test_unknown_kind_fails_at_spec_build(self):
        with pytest.raises(ValueError, match="unknown job kind 'quantum'"):
            SweepSpec(kind="quantum")

    def test_model_spec_rejects_n_images(self):
        """A dropped-field sweep must fail loudly, not run 1-image jobs."""
        with pytest.raises(ValueError, match="kind='batch'"):
            SweepSpec(kind="model", n_images=3)

    def test_synthetic_spec_rejects_workload_fields(self):
        for override in ({"model": "darknet"}, {"model_seed": 9},
                         {"image_seed": 9}, {"n_images": 2}):
            with pytest.raises(ValueError, match="synthetic sweeps"):
                SweepSpec(kind="synthetic", **override)

    def test_kind_is_not_sweepable(self):
        with pytest.raises(ValueError, match="not sweepable"):
            SweepSpec(axes={"kind": ["model", "batch"]})

    def test_unknown_synthetic_field_fails_at_expansion(self):
        spec = SweepSpec(
            kind="synthetic", axes={"ordering": [["O0"]]}
        )
        with pytest.raises(
            ValueError,
            match="job kind 'synthetic'.*unknown synthetic config fields",
        ):
            spec.expand()

    def test_unknown_model_field_fails_at_expansion(self):
        spec = SweepSpec(axes={"warp_drive": [1, 2]})
        with pytest.raises(
            ValueError, match="job kind 'model'.*warp_drive"
        ):
            spec.expand()

    def test_round_trip_preserves_kind(self):
        spec = SweepSpec(
            kind="synthetic",
            base={"n_packets": 5},
            axes={"pattern": ["uniform"]},
        )
        rebuilt = SweepSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert [j.job_id for j in rebuilt.expand()] == [
            j.job_id for j in spec.expand()
        ]


class TestKindCampaigns:
    def test_synthetic_campaign_caches(self, tmp_path):
        from repro.experiments.cache import ResultCache

        spec = SweepSpec(
            name="s",
            kind="synthetic",
            base={"n_packets": 5, "link_width": 32},
            axes={"pattern": ["uniform", "complement"]},
        )
        runner = CampaignRunner(
            cache=ResultCache(tmp_path / "cache"), workers=1
        )
        cold = runner.run(spec)
        assert (cold.hits, cold.misses, cold.errors) == (0, 2, 0)
        warm = runner.run(spec)
        assert (warm.hits, warm.misses) == (2, 0)

    def test_kinds_do_not_share_cache_entries(self, tmp_path):
        from repro.experiments.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        config = tiny_accel()
        single = JobSpec(model="lenet", config=config)
        batch = JobSpec(model="lenet", config=config, kind="batch")
        runner = CampaignRunner(cache=cache, workers=1)
        runner.run([single])
        followup = runner.run([batch])
        assert followup.hits == 0


def recorded_trace_file(path) -> str:
    """Record a small replayable trace to ``path``; returns the path."""
    from repro.noc.flit import make_packet
    from repro.noc.network import Network
    from repro.workloads.traces import TrafficTrace

    net = Network(NoCConfig(width=3, height=3, link_width=32))
    for src in range(5):
        net.send_packet(
            make_packet(
                src, 8, [src * 37, src ^ 0x1F], 32, packet_id=next(_IDS)
            )
        )
    net.run_until_drained()
    TrafficTrace.from_network(net).save(path)
    return str(path)


class TestReplayJobConfig:
    def test_from_flat_pins_content_digest(self, tmp_path):
        from repro.experiments.kinds import ReplayJobConfig
        from repro.workloads.traces import trace_digest

        trace = recorded_trace_file(tmp_path / "t.trace.gz")
        config = ReplayJobConfig.from_flat({"trace": trace})
        assert config.trace_sha256 == trace_digest(trace)

    def test_missing_file_fails_at_build(self, tmp_path):
        from repro.experiments.kinds import ReplayJobConfig

        with pytest.raises(ValueError, match="cannot read trace file"):
            ReplayJobConfig.from_flat(
                {"trace": str(tmp_path / "ghost.gz")}
            )

    def test_validation(self, tmp_path):
        from repro.experiments.kinds import ReplayJobConfig

        with pytest.raises(ValueError, match="ordering"):
            ReplayJobConfig(trace="t", ordering="O2")
        with pytest.raises(ValueError, match="coding"):
            ReplayJobConfig(trace="t", coding="gray")
        with pytest.raises(ValueError, match="core"):
            ReplayJobConfig(trace="t", core="warp")
        with pytest.raises(ValueError, match="offline"):
            ReplayJobConfig(trace="t", coding="delta", core="both")
        with pytest.raises(ValueError, match="link_latency"):
            ReplayJobConfig(trace="t", link_latency=2)

    def test_round_trip(self):
        from repro.experiments.kinds import ReplayJobConfig

        config = ReplayJobConfig(
            trace="a.gz", trace_sha256="ff", ordering="popcount_desc",
            core="both", link_latency=2,
        )
        assert ReplayJobConfig.from_dict(config.to_dict()) == config


class TestReplayKind:
    def expand(self, trace, **axes):
        spec = SweepSpec(
            name="r", kind="replay", base={"trace": trace},
            axes={k: list(v) for k, v in axes.items()},
        )
        return spec.expand()

    def test_offline_replay_matches_recording(self, tmp_path):
        trace = recorded_trace_file(tmp_path / "t.trace.gz")
        (job,) = self.expand(trace, ordering=["none"])
        result = job_kind("replay").execute(job)
        assert result["matches_recorded"] is True
        assert (
            result["total_bit_transitions"]
            == result["recorded_bit_transitions"]
        )
        assert result["cores"] == []

    def test_differential_replay_agrees(self, tmp_path):
        trace = recorded_trace_file(tmp_path / "t.trace.gz")
        (job,) = self.expand(trace, core=["both"])
        result = job_kind("replay").execute(job)
        assert result["cores"] == ["event", "stepped"]
        assert result["cores_agree"] is True
        assert result["matches_recorded"] is True

    def test_latency_override_is_not_fidelity_checked(self, tmp_path):
        trace = recorded_trace_file(tmp_path / "t.trace.gz")
        (job,) = self.expand(trace, core=["event"], link_latency=[2])
        result = job_kind("replay").execute(job)
        assert result["matches_recorded"] is None
        assert result["total_cycles"] > 0

    def test_swapped_trace_file_fails_loudly(self, tmp_path):
        trace = recorded_trace_file(tmp_path / "t.trace.gz")
        (job,) = self.expand(trace)
        recorded_trace_file(tmp_path / "other.trace.gz")
        # Overwrite with different content after expansion.
        import pathlib

        pathlib.Path(trace).write_bytes(
            pathlib.Path(tmp_path / "other.trace.gz").read_bytes()[:-1]
        )
        with pytest.raises(ValueError, match="changed since"):
            job_kind("replay").execute(job)

    def test_replay_jobs_take_no_model_fields(self, tmp_path):
        trace = recorded_trace_file(tmp_path / "t.trace.gz")
        with pytest.raises(ValueError, match="no model_seed"):
            SweepSpec(kind="replay", base={"trace": trace},
                      model_seed=7).expand()
        with pytest.raises(ValueError, match="takes no mesh"):
            SweepSpec(kind="replay", base={"trace": trace},
                      axes={"mesh": ["2x2:1"]}).expand()

    def test_replay_campaign_caches_by_content(self, tmp_path):
        from repro.experiments.cache import ResultCache

        trace = recorded_trace_file(tmp_path / "t.trace.gz")
        spec = SweepSpec(
            name="r", kind="replay", base={"trace": trace},
            axes={"ordering": ["none", "popcount_desc"]},
        )
        runner = CampaignRunner(
            cache=ResultCache(tmp_path / "cache"), workers=1
        )
        cold = runner.run(spec)
        assert (cold.hits, cold.misses, cold.errors) == (0, 2, 0)
        warm = runner.run(spec)
        assert (warm.hits, warm.misses) == (2, 0)
        # Rewriting the trace (new bytes — packet ids differ between
        # recordings — hence a new digest) re-simulates every point.
        import shutil

        recorded_trace_file(tmp_path / "t2.trace.gz")
        shutil.copy(tmp_path / "t2.trace.gz", trace)
        respun = runner.run(
            SweepSpec(
                name="r", kind="replay", base={"trace": trace},
                axes={"ordering": ["none", "popcount_desc"]},
            )
        )
        assert respun.hits == 0

    def test_error_record_not_cached(self, tmp_path):
        trace = recorded_trace_file(tmp_path / "t.trace.gz")
        (job,) = self.expand(trace)
        import pathlib

        blob = pathlib.Path(trace).read_bytes()
        pathlib.Path(trace).write_bytes(blob[: len(blob) // 2])
        record = execute_job(job.to_dict())
        assert record["status"] == "error"
        assert "changed since" in record["error"] or "trace" in record["error"]


class TestReplayDivergenceDetection:
    def test_cross_core_divergence_is_a_job_failure(self, tmp_path,
                                                    monkeypatch):
        """A per-link mismatch between cores must fail the job loudly."""
        import repro.experiments.kinds as kinds

        trace = recorded_trace_file(tmp_path / "t.trace.gz")
        (job,) = SweepSpec(
            kind="replay", base={"trace": trace}, axes={"core": ["both"]}
        ).expand()

        from repro.noc.flit import make_packet
        from repro.noc.recorder import HopLog

        class FakeNet:
            def __init__(self, bts):
                # Two flits on R0.EAST whose XOR has ``bts`` set bits.
                self.hops = HopLog()
                packet = make_packet(
                    0, 1, [0, (1 << bts) - 1], 32, packet_id=0
                )
                link = self.hops.link("R0.EAST")
                link.flits.extend(packet.flits)
                link.cycles.extend([0, 1])
                link.vcs.extend([0, 0])

        fakes = iter([FakeNet(10), FakeNet(11)])
        monkeypatch.setattr(
            kinds, "replay_through_network",
            lambda *a, **k: next(fakes),
        )
        with pytest.raises(RuntimeError, match="divergence"):
            job_kind("replay").execute(job)
        # Through the runner it becomes a clean error record.
        fakes = iter([FakeNet(10), FakeNet(11)])
        record = execute_job(job.to_dict())
        assert record["status"] == "error"
        assert "divergence" in record["error"]

    def test_replay_report_notes_for_foreign_pivots(self, tmp_path):
        from repro.experiments.cache import ResultCache
        from repro.experiments.report import campaign_report

        trace = recorded_trace_file(tmp_path / "t.trace.gz")
        spec = SweepSpec(
            name="r", kind="replay", base={"trace": trace},
            axes={"ordering": ["none"]},
        )
        runner = CampaignRunner(
            cache=ResultCache(tmp_path / "cache"), workers=1
        )
        records = runner.run(spec).records
        assert "no per-layer data" in campaign_report(records, "layer")
        assert "no model pivot" in campaign_report(records, "model")
        assert "Replayed BTs" in campaign_report(records, "mesh")


class TestReplayContentAddressing:
    def test_programmatic_config_without_digest_is_content_keyed(
        self, tmp_path
    ):
        """A ReplayJobConfig built without trace_sha256 must still key
        the cache by content: rewriting the trace changes the job id."""
        from repro.experiments.kinds import ReplayJobConfig

        trace = recorded_trace_file(tmp_path / "t.trace.gz")
        job = JobSpec(
            kind="replay", config=ReplayJobConfig(trace=trace)
        )
        payload = job.key_payload()
        assert payload["config"]["trace_sha256"]  # filled from content
        before = job.job_id
        recorded_trace_file(tmp_path / "t2.trace.gz")
        import shutil

        shutil.copy(tmp_path / "t2.trace.gz", trace)
        assert job.job_id != before

    def test_missing_file_degrades_to_empty_digest(self, tmp_path):
        from repro.experiments.kinds import ReplayJobConfig

        job = JobSpec(
            kind="replay",
            config=ReplayJobConfig(trace=str(tmp_path / "ghost.gz")),
        )
        assert job.key_payload()["config"]["trace_sha256"] == ""
        record = execute_job(job.to_dict())
        assert record["status"] == "error"


class TestReplayInjectionLinkComparability:
    def test_record_injection_traces_report_transmit_totals(self, tmp_path):
        """With record_injection=True, the hop log covers NI->router
        links the trace never covers; headline replay numbers must stay
        on the trace's measurement surface so offline and network rows
        (and recorded_bit_transitions) agree on faithful replays."""
        from repro.noc.flit import make_packet
        from repro.noc.network import Network
        from repro.workloads.traces import TrafficTrace

        net = Network(
            NoCConfig(width=3, height=3, link_width=32,
                      record_injection=True)
        )
        for src in range(5):
            net.send_packet(
                make_packet(
                    src, 8, [src * 37, src ^ 0x1F], 32, packet_id=next(_IDS)
                )
            )
        net.run_until_drained()
        path = tmp_path / "inj.trace.gz"
        TrafficTrace.from_network(net).save(path)

        results = {}
        for core in ("offline", "event"):
            (job,) = SweepSpec(
                kind="replay", base={"trace": str(path)},
                axes={"core": [core]},
            ).expand()
            results[core] = job_kind("replay").execute(job)
        event = results["event"]
        assert event["matches_recorded"] is True
        assert (
            event["total_bit_transitions"]
            == event["recorded_bit_transitions"]
            == results["offline"]["total_bit_transitions"]
        )
        # The unfiltered network-wide sum (incl. NI links) is larger
        # and reported separately.
        assert (
            event["network_bit_transitions"]
            > event["total_bit_transitions"]
        )
        assert not any(
            name.startswith("NI") for name in event["per_link"]
        )


def tiny_serving(**overrides):
    from repro.experiments.kinds import ServingJobConfig
    from repro.serving import ServingConfig, parse_tenant_mix

    serving = dict(
        tenants=parse_tenant_mix("uniform+hotspot"),
        background_rate=0.05,
        n_requests=2,
        packets_per_request=2,
        flits_per_packet=2,
        seed=3,
    )
    serving.update(overrides)
    return ServingJobConfig(
        serving=ServingConfig(**serving),
        noc=NoCConfig(width=4, height=4, link_width=128),
    )


class TestServingJobConfig:
    def test_round_trip(self):
        from repro.experiments.kinds import ServingJobConfig

        config = tiny_serving()
        assert ServingJobConfig.from_dict(config.to_dict()) == config

    def test_from_flat_splits_disjoint_namespaces(self):
        from repro.experiments.kinds import ServingJobConfig

        config = ServingJobConfig.from_flat(
            {"tenants": "lenet+uniform", "background_rate": 0.02,
             "width": 4, "height": 4, "core": "event"}
        )
        assert [t.name for t in config.serving.tenants] == [
            "lenet", "uniform"
        ]
        assert config.serving.background_rate == 0.02
        assert config.noc.core == "event"

    def test_from_flat_link_width_follows_data_format(self):
        from repro.experiments.kinds import ServingJobConfig

        fixed = ServingJobConfig.from_flat({"tenants": "uniform"})
        wide = ServingJobConfig.from_flat(
            {"tenants": "uniform", "data_format": "float32"}
        )
        assert fixed.noc.link_width == 128
        assert wide.noc.link_width == 512

    def test_from_flat_rejects_unknown_fields(self):
        from repro.experiments.kinds import ServingJobConfig

        with pytest.raises(ValueError, match="unknown serving config"):
            ServingJobConfig.from_flat({"tenancy": "lenet"})

    def test_label(self):
        assert tiny_serving().label() == "4x4 serving uniform+hotspot O0"


class TestServingKind:
    def test_validate_rejects_model_fields(self):
        config = tiny_serving()
        with pytest.raises(ValueError, match="no top-level DNN model"):
            JobSpec(kind="serving", model="lenet", config=config)
        with pytest.raises(ValueError, match="model_seed"):
            JobSpec(kind="serving", config=config, model_seed=9)
        with pytest.raises(ValueError, match="ServingJobConfig"):
            JobSpec(kind="serving", config=tiny_accel())

    def test_spec_rejects_workload_fields(self):
        with pytest.raises(ValueError, match="serving sweeps take no"):
            SweepSpec(
                name="s", kind="serving", model="darknet",
                axes={"tenants": ["uniform"]},
            )
        with pytest.raises(ValueError, match="serving sweeps take no"):
            SweepSpec(
                name="s", kind="serving", image_seed=99,
                axes={"tenants": ["uniform"]},
            )

    def test_sweep_expansion_and_derived_seeds(self):
        spec = SweepSpec(
            name="s",
            kind="serving",
            base={"n_requests": 1, "packets_per_request": 2,
                  "flits_per_packet": 2},
            axes={
                "mesh": ["4x4:2"],
                "tenants": ["uniform", "uniform+hotspot"],
                "background_rate": [0.01, 0.05],
            },
        )
        jobs = spec.expand()
        assert len(jobs) == 4
        seeds = {job.config.serving.seed for job in jobs}
        assert len(seeds) == 4  # every point gets its own derived seed
        assert all(job.config.noc.width == 4 for job in jobs)
        assert all(job.config.serving.n_mcs == 2 for job in jobs)
        assert len({job.job_id for job in jobs}) == 4

    def test_execute_record(self):
        job = JobSpec(kind="serving", config=tiny_serving())
        result = job_kind("serving").execute(job)
        assert result["requests_arrived"] == 4
        assert result["requests_completed"] == 4
        assert len(result["tenants"]) == 2
        assert (
            sum(t["bit_transitions"] for t in result["tenants"])
            == result["total_bit_transitions"]
        )
        assert result["p99_packet_latency"] >= result["p50_packet_latency"]
        assert result["metrics"]["serving.tenants"] == 2

    def test_labels_and_summary(self):
        kind = job_kind("serving")
        job = JobSpec(kind="serving", config=tiny_serving())
        assert kind.job_label(job) == (
            "serving 4x4 serving uniform+hotspot O0"
        )
        record = {"config": tiny_serving().to_dict()}
        assert kind.record_label(record) == (
            "serving 4x4 uniform+hotspot O0 bg0.05"
        )
        summary = kind.result_summary(kind.execute(job))
        assert "BTs" in summary and "p99 latency" in summary
        assert "4/4 requests" in summary

    def test_serving_campaign_caches(self, tmp_path):
        spec = SweepSpec(
            name="svc",
            kind="serving",
            base={"n_requests": 1, "packets_per_request": 2,
                  "flits_per_packet": 2},
            axes={"mesh": ["4x4:2"], "tenants": ["uniform"],
                  "ordering": ["O0"]},
        )
        from repro.experiments.cache import ResultCache

        runner = CampaignRunner(
            cache=ResultCache(tmp_path / "cache"), workers=1
        )
        first = runner.run(spec)
        second = runner.run(spec)
        assert first.records[0]["cached"] is False
        assert second.records[0]["cached"] is True
        assert (
            first.records[0]["result"]["total_bit_transitions"]
            == second.records[0]["result"]["total_bit_transitions"]
        )


GOLDEN_TRACE = (
    pathlib.Path(__file__).parent / "data" / "golden_lenet_fixed8_O0.trace.gz"
)


def one_job_per_kind() -> dict[str, JobSpec]:
    (replay,) = SweepSpec(
        name="r",
        kind="replay",
        base={"trace": str(GOLDEN_TRACE)},
        axes={"ordering": ["popcount_desc"], "core": ["event"]},
    ).expand()
    return {
        "model": JobSpec(model="lenet", config=tiny_accel()),
        "batch": JobSpec(
            model="lenet", config=tiny_accel(), kind="batch", n_images=2
        ),
        "synthetic": JobSpec(config=tiny_synth(), kind="synthetic"),
        "serving": JobSpec(config=tiny_serving(), kind="serving"),
        "replay": replay,
    }


def _send_result(conn, target, *args) -> None:
    conn.send(target(*args))
    conn.close()


def _record_json(payload) -> str:
    return json.dumps(execute_job(payload), sort_keys=True)


def captured_trace_digest(path: str) -> str:
    """``trace_digest`` of the golden ``run-noc --trace`` capture,
    saved to ``path``."""
    from repro.cli import main
    from repro.workloads.traces import trace_digest

    argv = [
        "run-noc", "--mesh", "3x3", "--mcs", "1", "--format", "fixed8",
        "--ordering", "O0", "--tasks", "2", "--trace", path,
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return trace_digest(path)


def in_fresh_process(target, *args):
    """``target(*args)`` evaluated in a fresh fork of this process."""
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_send_result, args=(child_conn, target, *args)
    )
    proc.start()
    child_conn.close()
    try:
        assert parent_conn.poll(60.0), "forked process sent no result"
        return parent_conn.recv()
    finally:
        parent_conn.close()
        proc.join(timeout=10.0)
        assert not proc.is_alive()


class TestDeterminism:
    def test_every_kind_repeats_byte_identically_in_process(self):
        """A record is a pure function of its job: a second execution
        in the same process (warm lru caches, advanced module state)
        must serialise to the same bytes."""
        jobs = one_job_per_kind()
        assert set(jobs) == set(JOB_KINDS)
        for kind, job in jobs.items():
            first, second = (
                json.dumps(execute_job(job.to_dict()), sort_keys=True)
                for _ in range(2)
            )
            assert json.loads(first)["status"] == "ok", kind
            assert first == second, kind

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_records_are_independent_of_process_history(self, tmp_path):
        """A persistent worker runs job after job of any kind in one
        process; each record must match that job run alone in a fresh
        fork, whatever ran before it.  So must a trace captured after
        them all."""
        jobs = one_job_per_kind()
        alone = {
            kind: in_fresh_process(_record_json, job.to_dict())
            for kind, job in jobs.items()
        }
        fresh_trace = in_fresh_process(
            captured_trace_digest, str(tmp_path / "fresh.trace.gz")
        )
        sequence = list(jobs.items())
        for kind, job in sequence + sequence[::-1]:
            record = json.dumps(execute_job(job.to_dict()), sort_keys=True)
            assert json.loads(record)["status"] == "ok", kind
            assert record == alone[kind], kind
        assert captured_trace_digest(
            str(tmp_path / "after.trace.gz")
        ) == fresh_trace
