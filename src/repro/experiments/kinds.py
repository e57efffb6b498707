"""Job-kind registry: pluggable workloads for the campaign engine.

The engine's dispatch is a registry of :class:`JobKind` handlers, one
per workload family.  A handler owns everything kind-specific:

* the config schema (building it from an expanded sweep point,
  serialising it into the canonical cache-key / JSONL form),
* execution (what simulator entry point a job drives),
* presentation (job labels, progress-line summaries).

Three kinds ship built in:

* ``"model"`` — single-image DNN inference via
  :func:`repro.accelerator.simulator.run_codings` (the paper's
  Fig. 12/13 grids); jobs that differ only in their coding run as one
  execution unit on one simulated schedule.
* ``"batch"`` — a batch of images via :func:`run_batch_on_noc`, with
  per-image results fanned out inside the record.
* ``"synthetic"`` — standalone NoC traffic via
  :func:`repro.noc.traffic.run_synthetic` (uniform / transpose /
  complement / hotspot patterns).
* ``"replay"`` — recorded wire-image traces
  (:mod:`repro.workloads.traces`) re-scored offline or re-injected
  through a network core, with ordering strategies / link codings
  re-applied at replay time; ``core="both"`` is the differential mode
  that runs the event and stepped cores on identical traffic and
  fails the job on any per-link BT divergence.
* ``"serving"`` — a multi-tenant serving fleet
  (:mod:`repro.serving`): co-resident tenants on partitioned meshes
  with open-loop arrivals, admission/batching policies, per-tenant BT
  attribution and tail-latency percentiles.

``register_job_kind`` accepts further kinds; ``SweepSpec`` and
``CampaignRunner`` dispatch purely through the registry, so a new
workload never touches the engine's core.

Note: this module is cache-versioned (see ``_VERSIONED_MODULES`` in
cache.py) because the executors live here, so *any* edit — including
a label or progress-line tweak — invalidates on-disk caches.  That is
the conservative trade-off for keeping each kind's behaviour in one
class; split the presentation hooks out if label churn ever makes it
expensive.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.accelerator.config import (
    CODING_FIELDS,
    AcceleratorConfig,
    link_width_for,
)
from repro.accelerator.simulator import run_batch_on_noc, run_codings
from repro.serving.fleet import ServingConfig, TenantSpec, parse_tenant_mix
from repro.serving.scenario import run_serving
from repro.dnn.datasets import synthetic_digits, synthetic_shapes
from repro.dnn.models import ModelSpec, build_model
from repro.experiments.hashing import derive_seed
from repro.noc.network import NoCConfig
from repro.noc.recorder import score_hops
from repro.obs.metrics import merge_metrics
from repro.noc.traffic import (
    SyntheticTrafficConfig,
    TrafficPattern,
    drive_synthetic,
)
from repro.workloads.streams import trained_lenet_model
from repro.workloads.traces import (
    REPLAY_ORDERINGS,
    TrafficTrace,
    reencode_per_link,
    replay_through_network,
    trace_digest,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.spec import JobSpec, SweepSpec

__all__ = [
    "MODEL_NAMES",
    "JOB_KINDS",
    "REPLAY_CORES",
    "REPLAY_CODINGS",
    "JobKind",
    "SyntheticJobConfig",
    "ReplayJobConfig",
    "ServingJobConfig",
    "job_kind",
    "parse_mesh_axis",
    "register_job_kind",
]

# Model names the workload builder knows how to construct.
MODEL_NAMES = ("lenet", "darknet", "trained_lenet")

# Pseudo-axes expanded specially rather than passed to the config.
_MESH_KEYS = ("width", "height", "n_mcs")

# Point fields left out of the derived per-job seed.
_UNSEEDED = (*CODING_FIELDS, "core")


def parse_mesh_axis(text: str) -> dict[str, int]:
    """Parse "WxH:MCS" (e.g. "8x8:4") into mesh config fields."""
    try:
        mesh, _, mcs = text.partition(":")
        w, h = mesh.lower().split("x")
        return {
            "width": int(w),
            "height": int(h),
            "n_mcs": int(mcs) if mcs else 2,
        }
    except ValueError as exc:
        raise ValueError(
            f"bad mesh {text!r}; use WxH:MCS like 8x8:4"
        ) from exc


def _spec_default(obj: Any, name: str) -> Any:
    """The dataclass default of one of ``obj``'s fields."""
    (field_,) = [f for f in fields(type(obj)) if f.name == name]
    return field_.default


def _build_model_images(
    model_name: str, model_seed: int, image_seed: int, n_images: int
) -> tuple[ModelSpec, np.ndarray]:
    """Construct the (model, image batch) pair for a model/batch job."""
    if model_name == "trained_lenet":
        model = trained_lenet_model(seed=model_seed)
        images = synthetic_digits(n_images, seed=image_seed).images
    elif model_name == "lenet":
        model = build_model("lenet", rng=np.random.default_rng(model_seed))
        images = synthetic_digits(n_images, seed=image_seed).images
    elif model_name == "darknet":
        model = build_model("darknet", rng=np.random.default_rng(model_seed))
        images = synthetic_shapes(n_images, seed=image_seed).images
    else:
        raise ValueError(f"unknown model {model_name!r}")
    return model, images


@dataclass(frozen=True)
class SyntheticJobConfig:
    """Config of one synthetic-traffic point: traffic shape + NoC.

    Attributes:
        traffic: injection schedule, pattern, and payload parameters.
        noc: the mesh the traffic runs on.
    """

    traffic: SyntheticTrafficConfig
    noc: NoCConfig

    def label(self) -> str:
        """Short point label, e.g. "4x4 uniform random p150"."""
        return (
            f"{self.noc.width}x{self.noc.height} "
            f"{self.traffic.pattern.value} {self.traffic.payload} "
            f"p{self.traffic.n_packets}"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict; exact inverse of :meth:`from_dict`."""
        return {"traffic": self.traffic.to_dict(), "noc": self.noc.to_dict()}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SyntheticJobConfig":
        unknown = set(data) - {"traffic", "noc"}
        if unknown:
            raise ValueError(
                f"unknown SyntheticJobConfig keys: {sorted(unknown)}"
            )
        return cls(
            traffic=SyntheticTrafficConfig.from_dict(data["traffic"]),
            noc=NoCConfig.from_dict(data["noc"]),
        )

    @classmethod
    def from_flat(cls, kwargs: dict[str, Any]) -> "SyntheticJobConfig":
        """Build from a flat sweep-point mapping.

        Sweep axes address traffic and NoC fields by their plain names
        (the two field sets are disjoint); anything else is rejected
        with the full vocabulary so grid mistakes fail at expansion
        time, not inside a worker.
        """
        traffic_fields = {f.name for f in fields(SyntheticTrafficConfig)}
        noc_fields = {f.name for f in fields(NoCConfig)}
        traffic_kw: dict[str, Any] = {}
        noc_kw: dict[str, Any] = {}
        unknown: list[str] = []
        for key, value in kwargs.items():
            if key in traffic_fields:
                traffic_kw[key] = value
            elif key in noc_fields:
                noc_kw[key] = value
            else:
                unknown.append(key)
        if unknown:
            raise ValueError(
                f"unknown synthetic config fields {sorted(unknown)}; "
                f"traffic fields: {sorted(traffic_fields)}, "
                f"noc fields: {sorted(noc_fields)}"
            )
        if "pattern" in traffic_kw and not isinstance(
            traffic_kw["pattern"], TrafficPattern
        ):
            traffic_kw["pattern"] = TrafficPattern(traffic_kw["pattern"])
        return cls(
            traffic=SyntheticTrafficConfig(**traffic_kw),
            noc=NoCConfig(**noc_kw),
        )


#: Replay execution targets: offline re-scoring, one network core, or
#: the differential both-cores conformance mode.
REPLAY_CORES = ("offline", "event", "stepped", "both")

#: Link codings the offline replay path can re-apply.
REPLAY_CODINGS = ("none", "bus_invert", "delta")


@dataclass(frozen=True)
class ReplayJobConfig:
    """Config of one trace-replay point.

    Attributes:
        trace: path to a trace file written by
            :meth:`~repro.workloads.traces.TrafficTrace.save`.
        trace_sha256: content digest of the trace file; filled in from
            the file by :meth:`from_flat` when empty, verified again at
            execution time so a swapped file never serves stale cached
            results.
        ordering: transmission ordering re-applied at replay time
            ("none" or "popcount_desc").  The two replay targets apply
            it at different stages by construction: offline re-sorts
            each packet's wire images within their recorded per-link
            slots, while network replay sorts each packet's payloads
            *before* injection (link interleaving may then differ
            under contention).  Both estimate the ordering's benefit
            on identical traffic; compare rows with that in mind.
        coding: link coding re-applied offline ("none", "bus_invert",
            "delta"; offline mode only).
        core: "offline" re-scores the recorded wire images without a
            network; "event"/"stepped" re-inject the recorded packet
            schedule through that cycle-loop core; "both" is the
            differential conformance mode — both cores run the same
            traffic and the job *fails* on any per-link BT divergence.
        link_latency: optional NoC link-latency override for network
            replay (timing what-ifs on recorded traffic).
    """

    trace: str
    trace_sha256: str = ""
    ordering: str = "none"
    coding: str = "none"
    core: str = "offline"
    link_latency: int | None = None

    def __post_init__(self) -> None:
        if self.ordering not in REPLAY_ORDERINGS:
            raise ValueError(
                f"unknown replay ordering {self.ordering!r}; "
                f"use one of {REPLAY_ORDERINGS}"
            )
        if self.coding not in REPLAY_CODINGS:
            raise ValueError(
                f"unknown replay coding {self.coding!r}; "
                f"use one of {REPLAY_CODINGS}"
            )
        if self.core not in REPLAY_CORES:
            raise ValueError(
                f"unknown replay core {self.core!r}; "
                f"use one of {REPLAY_CORES}"
            )
        if self.coding != "none" and self.core != "offline":
            raise ValueError(
                "link codings re-apply offline only; use core='offline'"
            )
        if self.link_latency is not None:
            if self.core == "offline":
                raise ValueError(
                    "link_latency overrides need a network replay core"
                )
            if self.link_latency < 1:
                raise ValueError("link_latency must be at least 1")

    def label(self) -> str:
        """Short point label, e.g. "run.trace.gz popcount_desc both"."""
        parts = [os.path.basename(self.trace), self.ordering]
        if self.coding != "none":
            parts.append(self.coding)
        parts.append(self.core)
        if self.link_latency is not None:
            parts.append(f"lat{self.link_latency}")
        return " ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict; exact inverse of :meth:`from_dict`."""
        return {
            "trace": self.trace,
            "trace_sha256": self.trace_sha256,
            "ordering": self.ordering,
            "coding": self.coding,
            "core": self.core,
            "link_latency": self.link_latency,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ReplayJobConfig":
        known = {
            "trace", "trace_sha256", "ordering", "coding", "core",
            "link_latency",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ReplayJobConfig keys: {sorted(unknown)}"
            )
        return cls(**data)

    @classmethod
    def from_flat(cls, kwargs: dict[str, Any]) -> "ReplayJobConfig":
        """Build from a flat sweep-point mapping.

        Reads the trace file to pin its content digest, so a missing
        or unreadable trace fails at grid-expansion time — with the
        point named — never inside a worker.
        """
        config = cls.from_dict(kwargs)
        if not config.trace_sha256:
            try:
                stat = os.stat(config.trace)
                digest = _trace_digest_cached(
                    config.trace, stat.st_mtime_ns, stat.st_size
                )
            except OSError as exc:
                raise ValueError(
                    f"cannot read trace file {config.trace!r}: {exc}"
                ) from exc
            config = ReplayJobConfig(
                **{**config.to_dict(), "trace_sha256": digest}
            )
        return config


@lru_cache(maxsize=256)
def _trace_digest_cached(path: str, mtime_ns: int, size: int) -> str:
    """Stat-keyed digest memo: a wide grid over one trace hashes the
    file once per (path, mtime, size), not once per expanded point.
    Executors still re-hash at run time, so a swap between expansion
    and execution is always caught."""
    return trace_digest(path)


class JobKind:
    """One workload family the campaign engine can run.

    Subclasses override the hooks; the base class implements the
    model-style (single-image inference) behaviour that ``"model"``
    uses directly and ``"batch"`` extends.
    """

    name = "model"
    # Which campaign_report block family renders this kind's records:
    # "accelerator" promises the RunResult-style scalar schema
    # (total_bit_transitions, data_format in config, ...), "synthetic"
    # the NoC-stats schema.
    report_family = "accelerator"
    # Exception type names (beyond the runner's built-in transient set)
    # whose failures the retry machinery should treat as retryable for
    # this kind.  Deterministic simulation bugs stay permanent.
    transient_errors: tuple[str, ...] = ()
    # Expansion parameters: which mesh pseudo-axis fields apply,
    # whether the kind carries a DNN model (and its workload seeds),
    # and whether its config takes a derived per-point seed at all.
    mesh_keys = _MESH_KEYS
    uses_model = True
    uses_seed = True

    # -- config schema ---------------------------------------------------

    def config_from_dict(self, data: dict[str, Any]) -> Any:
        return AcceleratorConfig.from_dict(data)

    def _validate_accel_workload(self, job: "JobSpec") -> None:
        if job.model not in MODEL_NAMES:
            raise ValueError(
                f"unknown model {job.model!r}; use one of {MODEL_NAMES}"
            )
        if not isinstance(job.config, AcceleratorConfig):
            raise ValueError(
                f"kind {self.name!r} needs an AcceleratorConfig, "
                f"got {type(job.config).__name__}"
            )

    def validate_job(self, job: "JobSpec") -> None:
        """Reject field combinations that make no sense for the kind."""
        self._validate_accel_workload(job)
        if job.n_images != 1:
            raise ValueError("n_images != 1 requires kind='batch'")

    def validate_spec(self, spec: "SweepSpec") -> None:
        """Reject sweep fields the kind would silently drop."""
        if spec.n_images != _spec_default(spec, "n_images"):
            raise ValueError("n_images requires kind='batch'")

    def key_payload(self, job: "JobSpec") -> dict[str, Any]:
        """The JSON-compatible identity hashed into the cache key."""
        return {
            "kind": self.name,
            "model": job.model,
            "model_seed": job.model_seed,
            "image_seed": job.image_seed,
            "max_cycles_per_layer": job.max_cycles_per_layer,
            "config": job.config.to_dict(),
        }

    # -- sweep expansion -------------------------------------------------

    def _build_point_config(self, kwargs: dict[str, Any]) -> Any:
        """Config object from a fully-resolved flat point mapping."""
        return AcceleratorConfig.from_dict(kwargs)

    def point_kwargs(
        self,
        spec: "SweepSpec",
        point: dict[str, Any],
        seed_salt: tuple[Any, ...] = (),
    ) -> dict[str, Any]:
        """Resolve one expanded grid point into JobSpec kwargs.

        One scaffold for every kind: base + mesh pseudo-axis + point
        values, a derived seed when none is pinned, and config
        construction with the kind named in any error.  Subclasses
        parameterize it via ``mesh_keys`` / ``uses_model`` /
        :meth:`_build_point_config`; ``seed_salt`` lets them fold
        kind-specific point fields that live outside the config (e.g.
        the batch size) into the derived seed, keeping per-job seeds
        collision-free.
        """
        point = dict(point)
        model = point.pop("model", spec.model) if self.uses_model else None
        kwargs: dict[str, Any] = dict(spec.base)
        mesh = point.pop("mesh", None)
        if mesh is not None:
            if not self.mesh_keys:
                raise ValueError(
                    f"job kind {self.name!r} takes no mesh axis"
                )
            mesh_kw = (
                parse_mesh_axis(mesh) if isinstance(mesh, str) else mesh
            )
            kwargs.update(
                {k: mesh_kw[k] for k in self.mesh_keys if k in mesh_kw}
            )
        kwargs.update(point)
        if self.uses_seed and "seed" not in kwargs:
            # The seed picks the workload; treatments and execution
            # details stay out of it.  Ordering, data format and fill
            # order are the treatments a reduction compares, so O0, O1
            # and O2 must sample the *same* tasks; the network core and
            # task codec never change results, so a --cores or codec
            # cross-check must too (cache keys still separate every
            # point via the config itself).
            seed_kwargs = {
                k: v for k, v in kwargs.items() if k not in _UNSEEDED
            }
            kwargs["seed"] = derive_seed(
                spec.seed, model if self.uses_model else self.name,
                seed_kwargs, *seed_salt,
            )
        try:
            config = self._build_point_config(kwargs)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"job kind {self.name!r}: {exc}") from exc
        out: dict[str, Any] = {
            "model": model,
            "config": config,
            "max_cycles_per_layer": spec.max_cycles_per_layer,
        }
        if self.uses_model:
            out["model_seed"] = spec.model_seed
            out["image_seed"] = spec.image_seed
        return out

    # -- execution -------------------------------------------------------

    def unit_key(self, job: "JobSpec") -> tuple | None:
        """Jobs with one non-None key may run as one execution unit.

        Model jobs that differ only in their coding (ordering, data
        format, fill order, codec) share a NoC schedule, so
        :meth:`execute_group` simulates it once for all of them.
        Other kinds return None and always run alone.
        """
        if self.name != "model":
            return None
        return (
            self.name,
            job.model,
            job.model_seed,
            job.image_seed,
            job.max_cycles_per_layer,
            job.config.timing_signature(),
        )

    def execute_group(self, jobs: list["JobSpec"]) -> list[dict[str, Any]]:
        """Run jobs that share a :meth:`unit_key`; one result payload
        per job, each equal to running that job alone (may raise)."""
        first = jobs[0]
        model, images = _build_model_images(
            first.model, first.model_seed, first.image_seed, 1
        )
        results = run_codings(
            [job.config for job in jobs],
            model,
            images[0],
            max_cycles_per_layer=first.max_cycles_per_layer,
        )
        return [result.to_dict() for result in results]

    def execute(self, job: "JobSpec") -> dict[str, Any]:
        """Run the job; returns the result payload (may raise)."""
        return self.execute_group([job])[0]

    # -- presentation ----------------------------------------------------

    def job_label(self, job: "JobSpec") -> str:
        return f"{job.model} {job.config.label()}"

    def record_label(self, record: dict[str, Any]) -> str:
        """Point label recovered from a persisted record."""
        config = record.get("config", {})
        return (
            f"{record.get('model', '?')} "
            f"{config.get('width', '?')}x{config.get('height', '?')} "
            f"MC{config.get('n_mcs', '?')} {config.get('data_format', '?')} "
            f"{config.get('ordering', '?')}"
        )

    def result_summary(self, result: dict[str, Any]) -> str:
        """Progress-line fragment for a successful result payload."""
        return (
            f"{result['total_bit_transitions']:>10d} BTs "
            f"({result['total_cycles']} cycles, verified "
            f"{result['tasks_verified']}/{result['tasks_total']})"
        )


class BatchJobKind(JobKind):
    """A batch of images through :func:`run_batch_on_noc`.

    The record's result carries the batch aggregate at the top level
    (so the mesh/model/layer/link pivots work unchanged) plus a
    per-image fan-out under ``"images"``.
    """

    name = "batch"

    def validate_job(self, job: "JobSpec") -> None:
        self._validate_accel_workload(job)
        if job.n_images < 1:
            raise ValueError("batch jobs need n_images >= 1")

    def validate_spec(self, spec: "SweepSpec") -> None:
        if spec.n_images < 1:
            raise ValueError("batch sweeps need n_images >= 1")

    def key_payload(self, job: "JobSpec") -> dict[str, Any]:
        payload = super().key_payload(job)
        payload["n_images"] = job.n_images
        return payload

    def point_kwargs(
        self, spec: "SweepSpec", point: dict[str, Any]
    ) -> dict[str, Any]:
        point = dict(point)
        n_images = point.pop("n_images", spec.n_images)
        # Salt the derived seed with the batch size so an n_images
        # axis yields distinct per-job seeds like any other axis.
        kwargs = super().point_kwargs(
            spec, point, seed_salt=("n_images", n_images)
        )
        kwargs["n_images"] = n_images
        return kwargs

    def execute(self, job: "JobSpec") -> dict[str, Any]:
        model, images = _build_model_images(
            job.model, job.model_seed, job.image_seed, job.n_images
        )
        results = run_batch_on_noc(
            job.config,
            model,
            images,
            max_cycles_per_layer=job.max_cycles_per_layer,
        )
        per_link: dict[str, int] = {}
        fanout = []
        for index, result in enumerate(results):
            for link, bts in result.per_link.items():
                per_link[link] = per_link.get(link, 0) + bts
            image_dict = result.to_dict()
            del image_dict["config"]  # identical for every image
            image_dict["image_index"] = index
            fanout.append(image_dict)
        # Integer totals are summed directly: aggregate_results is the
        # float-summary API, and records/cache keys must carry exact
        # ints (float conversion rounds sums beyond 2**53).
        total_bt = sum(r.total_bit_transitions for r in results)
        metrics: dict[str, Any] = {}
        for r in results:
            merge_metrics(metrics, r.metrics)
        return {
            "total_bit_transitions": total_bt,
            "total_cycles": sum(r.total_cycles for r in results),
            "flit_hops": sum(r.flit_hops for r in results),
            "mean_bt_per_image": total_bt / len(results),
            "tasks_verified": sum(r.tasks_verified for r in results),
            "tasks_total": sum(r.tasks_total for r in results),
            "mean_packet_latency": float(
                np.mean([r.mean_packet_latency for r in results])
            ),
            "ordering_latency_cycles": sum(
                r.ordering_latency_cycles for r in results
            ),
            "n_images": len(results),
            "per_link": per_link,
            "steps_executed": sum(r.steps_executed for r in results),
            "idle_cycles_skipped": sum(
                r.idle_cycles_skipped for r in results
            ),
            "metrics": metrics,
            "images": fanout,
        }

    def job_label(self, job: "JobSpec") -> str:
        return f"{job.model}[x{job.n_images}] {job.config.label()}"

    def record_label(self, record: dict[str, Any]) -> str:
        label = super().record_label(record)
        n = (record.get("result") or {}).get("n_images", "?")
        return f"{label} (batch x{n})"

    def result_summary(self, result: dict[str, Any]) -> str:
        return (
            f"{result['total_bit_transitions']:>10d} BTs over "
            f"{result['n_images']} images (verified "
            f"{result['tasks_verified']}/{result['tasks_total']})"
        )


class SyntheticJobKind(JobKind):
    """Standalone synthetic NoC traffic (no DNN workload)."""

    name = "synthetic"
    report_family = "synthetic"
    # Synthetic traffic has no MCs and no DNN model; only the mesh
    # shape applies, and derived seeds hash the kind name instead.
    mesh_keys = ("width", "height")
    uses_model = False

    def config_from_dict(self, data: dict[str, Any]) -> Any:
        return SyntheticJobConfig.from_dict(data)

    def validate_job(self, job: "JobSpec") -> None:
        if job.model is not None:
            raise ValueError(
                "synthetic jobs carry no DNN model; leave model=None"
            )
        if not isinstance(job.config, SyntheticJobConfig):
            raise ValueError(
                f"kind 'synthetic' needs a SyntheticJobConfig, "
                f"got {type(job.config).__name__}"
            )
        # The DNN-workload fields are meaningless here and excluded
        # from key_payload, so non-default values would silently drop
        # on a to_dict round trip — reject them instead.
        for name in ("model_seed", "image_seed", "n_images"):
            if getattr(job, name) != _spec_default(job, name):
                raise ValueError(
                    "synthetic jobs take no model_seed/image_seed/"
                    "n_images; set the traffic seed in the config instead"
                )

    def validate_spec(self, spec: "SweepSpec") -> None:
        # A DNN-workload field on a synthetic sweep would be silently
        # dropped by point_kwargs — fail loudly instead.
        for name in ("model", "model_seed", "image_seed", "n_images"):
            if getattr(spec, name) != _spec_default(spec, name):
                raise ValueError(
                    f"synthetic sweeps take no {name}; "
                    "set workload fields in base/axes instead"
                )

    def key_payload(self, job: "JobSpec") -> dict[str, Any]:
        return {
            "kind": self.name,
            "max_cycles_per_layer": job.max_cycles_per_layer,
            "config": job.config.to_dict(),
        }

    def _build_point_config(self, kwargs: dict[str, Any]) -> Any:
        return SyntheticJobConfig.from_flat(kwargs)

    def execute(self, job: "JobSpec") -> dict[str, Any]:
        network = drive_synthetic(
            job.config.traffic,
            job.config.noc,
            max_cycles=job.max_cycles_per_layer,
        )
        stats = network.stats
        return {
            "total_bit_transitions": stats.total_bit_transitions,
            "total_cycles": stats.cycles,
            "flit_hops": stats.flit_hops,
            "packets_injected": stats.packets_injected,
            "packets_delivered": stats.packets_delivered,
            "flits_injected": stats.flits_injected,
            "mean_packet_latency": stats.mean_latency,
            "per_link": score_hops(network.hops).per_link,
            "steps_executed": network.steps_executed,
            "idle_cycles_skipped": network.idle_cycles_skipped,
            "metrics": network.metrics_snapshot(),
        }

    def job_label(self, job: "JobSpec") -> str:
        return f"synthetic {job.config.label()}"

    def record_label(self, record: dict[str, Any]) -> str:
        config = record.get("config", {})
        traffic = config.get("traffic", {})
        noc = config.get("noc", {})
        return (
            f"synthetic {noc.get('width', '?')}x{noc.get('height', '?')} "
            f"{traffic.get('pattern', '?')} {traffic.get('payload', '?')} "
            f"p{traffic.get('n_packets', '?')}"
        )

    def result_summary(self, result: dict[str, Any]) -> str:
        return (
            f"{result['total_bit_transitions']:>10d} BTs "
            f"({result['total_cycles']} cycles, "
            f"{result['packets_delivered']} delivered, "
            f"mean latency {result['mean_packet_latency']:.1f})"
        )


class ReplayJobKind(JobKind):
    """Recorded-trace replay (offline re-scoring or network re-run).

    The workload is a trace file, content-addressed into the cache key
    via its digest: re-running a replay sweep over an unchanged trace
    is all cache hits, and editing the trace re-simulates exactly the
    affected points.  ``core="both"`` is the cross-core differential
    mode — both cycle-loop cores replay identical traffic and the job
    errors on any per-link BT divergence, making conformance checks a
    first-class (cached, parallel) campaign workload.
    """

    name = "replay"
    report_family = "replay"
    # No mesh (the trace pins the topology), no DNN model, and no
    # derived per-point seed (replay is deterministic by construction).
    mesh_keys = ()
    uses_model = False
    uses_seed = False
    # Trace files live on (possibly shared/remote) filesystems: a read
    # failure is environmental, not a property of the job — retry it.
    transient_errors = ("OSError", "PermissionError", "FileNotFoundError")

    def config_from_dict(self, data: dict[str, Any]) -> Any:
        return ReplayJobConfig.from_dict(data)

    def validate_job(self, job: "JobSpec") -> None:
        if job.model is not None:
            raise ValueError(
                "replay jobs carry no DNN model; leave model=None"
            )
        if not isinstance(job.config, ReplayJobConfig):
            raise ValueError(
                f"kind 'replay' needs a ReplayJobConfig, "
                f"got {type(job.config).__name__}"
            )
        for name in ("model_seed", "image_seed", "n_images"):
            if getattr(job, name) != _spec_default(job, name):
                raise ValueError(
                    "replay jobs take no model_seed/image_seed/n_images"
                )

    def validate_spec(self, spec: "SweepSpec") -> None:
        for name in ("model", "model_seed", "image_seed", "n_images"):
            if getattr(spec, name) != _spec_default(spec, name):
                raise ValueError(
                    f"replay sweeps take no {name}; "
                    "axes are trace/ordering/coding/core/link_latency"
                )

    def key_payload(self, job: "JobSpec") -> dict[str, Any]:
        config_dict = job.config.to_dict()
        if not config_dict["trace_sha256"]:
            # Programmatic configs may omit the digest, but the cache
            # key must always be content-addressed — an empty digest
            # would serve stale cached results after the trace file is
            # rewritten.  An unreadable file keeps the empty digest and
            # fails at execution with the captured-error machinery.
            try:
                stat = os.stat(config_dict["trace"])
                config_dict["trace_sha256"] = _trace_digest_cached(
                    config_dict["trace"], stat.st_mtime_ns, stat.st_size
                )
            except OSError:
                pass
        return {
            "kind": self.name,
            "max_cycles_per_layer": job.max_cycles_per_layer,
            "config": config_dict,
        }

    def _build_point_config(self, kwargs: dict[str, Any]) -> Any:
        return ReplayJobConfig.from_flat(kwargs)

    def execute(self, job: "JobSpec") -> dict[str, Any]:
        config = job.config
        # One read serves both the content check and the decode.
        raw = pathlib.Path(config.trace).read_bytes()
        digest = trace_digest(raw)
        if config.trace_sha256 and digest != config.trace_sha256:
            raise ValueError(
                f"trace file {config.trace!r} changed since the sweep "
                f"was expanded (digest {digest} != {config.trace_sha256})"
            )
        trace = TrafficTrace.from_bytes(raw, source=config.trace)
        recorded_per_link = trace.per_link_transitions()
        recorded_total = sum(recorded_per_link.values())
        payload: dict[str, Any] = {
            "trace": config.trace,
            "trace_sha256": digest,
            "recorded_bit_transitions": recorded_total,
            "trace_packets": len(trace.packets),
        }
        if config.core == "offline":
            if config.ordering == "none" and config.coding == "none":
                # Identity replay: the recorded pass *is* the answer —
                # don't re-walk every link's flit stream a second time.
                per_link = dict(recorded_per_link)
            else:
                per_link = reencode_per_link(
                    trace.reordered(config.ordering), config.coding
                )
            total = sum(per_link.values())
            payload.update(
                {
                    "total_bit_transitions": total,
                    "flit_hops": trace.total_flit_traversals(),
                    "per_link": per_link,
                    "cores": [],
                    "cores_agree": None,
                    "matches_recorded": per_link == recorded_per_link,
                }
            )
            return payload
        cores = (
            ["event", "stepped"] if config.core == "both" else [config.core]
        )
        overrides = (
            None
            if config.link_latency is None
            else {"link_latency": config.link_latency}
        )
        networks = {
            core: replay_through_network(
                trace,
                core=core,
                ordering=config.ordering,
                overrides=overrides,
                max_cycles=job.max_cycles_per_layer,
            )
            for core in cores
        }
        ledgers = {
            core: score_hops(net.hops).per_link
            for core, net in networks.items()
        }
        if len(cores) == 2 and ledgers["event"] != ledgers["stepped"]:
            diverged = sorted(
                name
                for name in set(ledgers["event"]) | set(ledgers["stepped"])
                if ledgers["event"].get(name) != ledgers["stepped"].get(name)
            )
            raise RuntimeError(
                f"cross-core replay divergence on {len(diverged)} links "
                f"(first: {diverged[:4]})"
            )
        net = networks[cores[0]]
        per_link = ledgers[cores[0]]
        # Injection links (NI*.INJECT) exist only in the hop log, never
        # in the captured trace (record_injection=True configs).
        # Headline numbers therefore count the transmit-path
        # links the trace actually covers, so network rows stay
        # comparable with offline rows and with recorded_bit_transitions;
        # the unfiltered network-wide sum is kept alongside.
        transmit_links = {
            name: bts
            for name, bts in per_link.items()
            if not name.startswith("NI")
        }
        faithful = config.ordering == "none" and overrides is None
        stats = net.stats
        payload.update(
            {
                "total_bit_transitions": sum(transmit_links.values()),
                "network_bit_transitions": stats.total_bit_transitions,
                "total_cycles": stats.cycles,
                "flit_hops": stats.flit_hops,
                "packets_injected": stats.packets_injected,
                "packets_delivered": stats.packets_delivered,
                "mean_packet_latency": stats.mean_latency,
                "per_link": transmit_links,
                "steps_executed": net.steps_executed,
                "idle_cycles_skipped": net.idle_cycles_skipped,
                "metrics": net.metrics_snapshot(),
                "cores": cores,
                "cores_agree": True if len(cores) == 2 else None,
                "matches_recorded": (
                    transmit_links == recorded_per_link if faithful else None
                ),
            }
        )
        return payload

    def job_label(self, job: "JobSpec") -> str:
        return f"replay {job.config.label()}"

    def record_label(self, record: dict[str, Any]) -> str:
        config = record.get("config", {})
        trace = os.path.basename(str(config.get("trace", "?")))
        label = (
            f"replay {trace} {config.get('ordering', '?')} "
            f"{config.get('core', '?')}"
        )
        if config.get("coding", "none") != "none":
            label += f" {config['coding']}"
        if config.get("link_latency") is not None:
            label += f" lat{config['link_latency']}"
        return label

    def result_summary(self, result: dict[str, Any]) -> str:
        recorded = result.get("recorded_bit_transitions", 0)
        total = result["total_bit_transitions"]
        delta = (
            f", {100.0 * (recorded - total) / recorded:.2f}% vs recorded"
            if recorded
            else ""
        )
        cores = result.get("cores") or []
        agree = " [cores agree]" if result.get("cores_agree") else ""
        mode = "+".join(cores) if cores else "offline"
        return f"{total:>10d} BTs ({mode}{delta}){agree}"


@dataclass(frozen=True)
class ServingJobConfig:
    """Config of one serving-fleet point: the fleet + the shared NoC.

    Attributes:
        serving: tenants, arrival processes, and policies
            (:class:`repro.serving.fleet.ServingConfig`).
        noc: the mesh every tenant shares.
    """

    serving: ServingConfig
    noc: NoCConfig

    def label(self) -> str:
        """Short point label, e.g. "4x4 serving lenet+uniform O0"."""
        mix = "+".join(t.name for t in self.serving.tenants)
        return (
            f"{self.noc.width}x{self.noc.height} serving {mix} "
            f"{self.serving.ordering}"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict; exact inverse of :meth:`from_dict`."""
        return {"serving": self.serving.to_dict(), "noc": self.noc.to_dict()}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServingJobConfig":
        unknown = set(data) - {"serving", "noc"}
        if unknown:
            raise ValueError(
                f"unknown ServingJobConfig keys: {sorted(unknown)}"
            )
        return cls(
            serving=ServingConfig.from_dict(data["serving"]),
            noc=NoCConfig.from_dict(data["noc"]),
        )

    @classmethod
    def from_flat(cls, kwargs: dict[str, Any]) -> "ServingJobConfig":
        """Build from a flat sweep-point mapping.

        Sweep axes address serving and NoC fields by their plain names
        (disjoint sets).  ``tenants`` accepts the compact mix grammar
        ("lenet+uniform", see
        :func:`repro.serving.fleet.parse_tenant_mix`) or a list of
        tenant dicts.  ``link_width`` defaults to the fleet data
        format's paper link width.
        """
        serving_fields = {f.name for f in fields(ServingConfig)}
        noc_fields = {f.name for f in fields(NoCConfig)}
        serving_kw: dict[str, Any] = {}
        noc_kw: dict[str, Any] = {}
        unknown: list[str] = []
        for key, value in kwargs.items():
            if key in serving_fields:
                serving_kw[key] = value
            elif key in noc_fields:
                noc_kw[key] = value
            else:
                unknown.append(key)
        if unknown:
            raise ValueError(
                f"unknown serving config fields {sorted(unknown)}; "
                f"serving fields: {sorted(serving_fields)}, "
                f"noc fields: {sorted(noc_fields)}"
            )
        tenants = serving_kw.get("tenants")
        if isinstance(tenants, str):
            serving_kw["tenants"] = parse_tenant_mix(tenants)
        elif isinstance(tenants, (list, tuple)):
            serving_kw["tenants"] = tuple(
                t if isinstance(t, TenantSpec) else TenantSpec.from_dict(t)
                for t in tenants
            )
        if "inter_arrivals" in serving_kw:
            serving_kw["inter_arrivals"] = tuple(
                int(g) for g in serving_kw["inter_arrivals"]
            )
        if "link_width" not in noc_kw:
            data_format = serving_kw.get(
                "data_format",
                _spec_default(ServingConfig(), "data_format"),
            )
            noc_kw["link_width"] = link_width_for(data_format)
        return cls(
            serving=ServingConfig(**serving_kw),
            noc=NoCConfig(**noc_kw),
        )


class ServingJobKind(JobKind):
    """Multi-tenant serving fleet (:func:`repro.serving.run_serving`).

    Sweepable along tenant mix, arrival rates, ordering strategy, and
    mesh shape; results carry fleet-wide *and* per-tenant tail-latency
    percentiles next to the per-tenant BT attribution, rendered by the
    report's ``--pivot tenant`` grids.
    """

    name = "serving"
    report_family = "serving"
    # The mesh pseudo-axis maps "4x4:2" onto the shared NoC shape and
    # the per-model-tenant MC count; the derived per-point seed drives
    # arrivals and synthetic payloads.
    mesh_keys = ("width", "height", "n_mcs")
    uses_model = False

    def config_from_dict(self, data: dict[str, Any]) -> Any:
        return ServingJobConfig.from_dict(data)

    def validate_job(self, job: "JobSpec") -> None:
        if job.model is not None:
            raise ValueError(
                "serving jobs carry no top-level DNN model; tenants "
                "name their models in the fleet config"
            )
        if not isinstance(job.config, ServingJobConfig):
            raise ValueError(
                f"kind 'serving' needs a ServingJobConfig, "
                f"got {type(job.config).__name__}"
            )
        for name in ("model_seed", "image_seed", "n_images"):
            if getattr(job, name) != _spec_default(job, name):
                raise ValueError(
                    "serving jobs take no model_seed/image_seed/"
                    "n_images; set workload seeds in the serving config"
                )

    def validate_spec(self, spec: "SweepSpec") -> None:
        for name in ("model", "model_seed", "image_seed", "n_images"):
            if getattr(spec, name) != _spec_default(spec, name):
                raise ValueError(
                    f"serving sweeps take no {name}; "
                    "set workload fields in base/axes instead"
                )

    def key_payload(self, job: "JobSpec") -> dict[str, Any]:
        return {
            "kind": self.name,
            "max_cycles_per_layer": job.max_cycles_per_layer,
            "config": job.config.to_dict(),
        }

    def _build_point_config(self, kwargs: dict[str, Any]) -> Any:
        return ServingJobConfig.from_flat(kwargs)

    def execute(self, job: "JobSpec") -> dict[str, Any]:
        result = run_serving(
            job.config.serving,
            job.config.noc,
            max_cycles=job.max_cycles_per_layer,
        )
        tenants = [t.to_dict() for t in result.tenants]
        return {
            "total_bit_transitions": result.total_bit_transitions,
            "total_cycles": result.total_cycles,
            "flit_hops": result.flit_hops,
            "packets_injected": result.packets_injected,
            "packets_delivered": result.packets_delivered,
            "flits_injected": result.flits_injected,
            "mean_packet_latency": result.mean_packet_latency,
            "p50_packet_latency": result.latency_percentile(50),
            "p95_packet_latency": result.latency_percentile(95),
            "p99_packet_latency": result.latency_percentile(99),
            "requests_arrived": sum(t["requests_arrived"] for t in tenants),
            "requests_admitted": sum(
                t["requests_admitted"] for t in tenants
            ),
            "requests_rejected": sum(
                t["requests_rejected"] for t in tenants
            ),
            "requests_completed": sum(
                t["requests_completed"] for t in tenants
            ),
            "tenants": tenants,
            "per_link": result.per_link,
            "steps_executed": result.steps_executed,
            "idle_cycles_skipped": result.idle_cycles_skipped,
            "metrics": result.metrics,
        }

    def job_label(self, job: "JobSpec") -> str:
        return f"serving {job.config.label()}"

    def record_label(self, record: dict[str, Any]) -> str:
        config = record.get("config", {})
        serving = config.get("serving", {})
        noc = config.get("noc", {})
        mix = "+".join(
            t.get("name", "?") for t in serving.get("tenants", [])
        )
        return (
            f"serving {noc.get('width', '?')}x{noc.get('height', '?')} "
            f"{mix or '?'} {serving.get('ordering', '?')} "
            f"bg{serving.get('background_rate', '?')}"
        )

    def result_summary(self, result: dict[str, Any]) -> str:
        return (
            f"{result['total_bit_transitions']:>10d} BTs "
            f"(p99 latency {result['p99_packet_latency']:.1f}, "
            f"{result['requests_completed']}/{result['requests_arrived']} "
            f"requests)"
        )


JOB_KINDS: dict[str, JobKind] = {}


def register_job_kind(kind: JobKind) -> JobKind:
    """Register (or replace) a job kind under its name.

    Worker processes resolve kinds against *their own* registry, so a
    custom kind must be registered at import time of a module the
    workers also import (spawn-based platforms re-import from scratch;
    fork inherits the parent's registry).  Kinds registered only at
    runtime in the parent are limited to ``workers=1``; their jobs in
    a pool come back as clean ``status="error"`` records, never a
    crash.
    """
    JOB_KINDS[kind.name] = kind
    return kind


register_job_kind(JobKind())
register_job_kind(BatchJobKind())
register_job_kind(SyntheticJobKind())
register_job_kind(ReplayJobKind())
register_job_kind(ServingJobKind())


def job_kind(name: str) -> JobKind:
    """Look up a registered kind; unknown names fail loudly."""
    try:
        return JOB_KINDS[name]
    except KeyError:
        raise ValueError(
            f"unknown job kind {name!r}; registered kinds: "
            f"{sorted(JOB_KINDS)}"
        ) from None
