"""Configuration of the NOC-DNA (NoC-based DNN accelerator).

Bundles the NoC structure, the data format on the links, the ordering
method under test, and the workload-scaling knobs.  The paper's two
link setups are captured by :func:`link_width_for`: 512-bit links carry
16 float-32 values, 128-bit links carry 16 fixed-8 values (Sec. V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from repro.noc.network import CORES, NoCConfig
from repro.ordering.strategies import FillOrder, OrderingMethod

__all__ = ["AcceleratorConfig", "link_width_for", "TASK_CODECS", "VALUES_PER_FLIT"]

# Both paper link configurations carry 16 values per flit.
VALUES_PER_FLIT = 16

# Task-codec implementations (see repro.accelerator.flitize): the
# vectorised batch data plane is the default, the scalar per-task path
# is retained as the bit-exact oracle — the codec twin of the NoC's
# "event"/"stepped" core pair.
TASK_CODECS = ("batch", "scalar")


def link_width_for(data_format: str, values_per_flit: int = VALUES_PER_FLIT) -> int:
    """Link width in bits for a data format at 16 values per flit."""
    word = {"float32": 32, "fixed8": 8}.get(data_format)
    if word is None:
        raise ValueError(f"unknown data format {data_format!r}")
    return word * values_per_flit


@dataclass(frozen=True)
class AcceleratorConfig:
    """Full NOC-DNA experiment configuration.

    Attributes:
        width / height: mesh dimensions (paper: 4x4 and 8x8).
        n_mcs: number of memory controllers (paper: 2, 4, 8).
        data_format: "float32" or "fixed8".
        ordering: O0 baseline / O1 affiliated / O2 separated.
        fill_order: placement of ordered values into flits (deal =
            paper's Fig. 3; row-major kept for the ablation).
        values_per_flit: lanes per flit (16 in both paper setups).
        max_tasks_per_layer: cap on neuron tasks sampled per layer
            (workload scaling, see DESIGN.md §5; None = all tasks).
        chunk_pairs: pairs per packet chunk; the paper's task is
            "k*k inputs + k*k weights + 1 bias" (Fig. 2), so larger
            neurons are decomposed into chunks of this size (default
            25 = LeNet's 5x5 kernel plane; None = whole neuron per
            packet).
        compute_delay: PE cycles between receiving a task packet and
            emitting its response.
        layer_barrier: drain the NoC between layers (the paper's
            layer-level interval, default) or queue every layer's
            packets upfront and let them pipeline freely.
        packet_scheduling: MC injection order — "fifo" (task order) or
            "count_desc" (packets sorted by total payload '1' count,
            extending the ordering idea across packet boundaries; an
            extension study, not a paper configuration).
        mapping_policy: task-to-PE assignment — "round_robin" (paper
            style spreading) or "group_affine" (all tasks sharing a
            weight block land on the same PE, enabling weight reuse).
        weight_cache: weight-stationary dataflow — PEs cache each
            (layer, group, chunk) weight block; repeat tasks ship
            input-only packets (extension study).
        include_responses: also send PE->MC single-flit result packets.
        include_index_payload: ship separated-ordering recovery indices
            in-band as extra payload flits (overhead ablation; the
            default models the paper's side-band minimal index).
        n_vcs / vc_depth / routing / injection_rate: NoC parameters.
        core: pin the NoC cycle-loop core ("event" or "stepped");
            None means "event".  Sweepable (``repro sweep
            --cores``) for cross-core checks at campaign scale.
        codec: task encode/decode implementation — "batch" (default)
            runs the vectorised numpy data plane over whole layers of
            tasks, "scalar" the retained per-task reference.  The two
            are pinned bit-identical, so like ``core`` this is an
            execution detail: it never changes results, only wall
            time.
        seed: workload sampling seed.
    """

    width: int = 4
    height: int = 4
    n_mcs: int = 2
    data_format: str = "float32"
    ordering: OrderingMethod = OrderingMethod.BASELINE
    fill_order: FillOrder = FillOrder.COLUMN_MAJOR_DEAL
    values_per_flit: int = VALUES_PER_FLIT
    max_tasks_per_layer: int | None = 128
    chunk_pairs: int | None = 25
    compute_delay: int = 2
    layer_barrier: bool = True
    packet_scheduling: str = "fifo"
    mapping_policy: str = "round_robin"
    weight_cache: bool = False
    include_responses: bool = True
    include_index_payload: bool = False
    n_vcs: int = 4
    vc_depth: int = 4
    routing: str = "xy"
    injection_rate: int = 1
    record_ejection: bool = True
    core: str | None = None
    codec: str = "batch"
    seed: int = 2025
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.n_mcs <= 0:
            raise ValueError("need at least one memory controller")
        if self.n_mcs >= self.width * self.height:
            raise ValueError("memory controllers cannot fill the whole mesh")
        if self.values_per_flit % 2:
            raise ValueError(
                "values_per_flit must be even (half inputs, half weights)"
            )
        if self.packet_scheduling not in ("fifo", "count_desc"):
            raise ValueError(
                f"unknown packet scheduling {self.packet_scheduling!r}"
            )
        if self.mapping_policy not in ("round_robin", "group_affine"):
            raise ValueError(
                f"unknown mapping policy {self.mapping_policy!r}"
            )
        if self.weight_cache and self.mapping_policy != "group_affine":
            raise ValueError(
                "weight_cache requires the group_affine mapping policy "
                "(weight reuse needs group-stable PE assignment)"
            )
        if self.core is not None and self.core not in CORES:
            raise ValueError(
                f"unknown network core {self.core!r}; use one of {CORES}"
            )
        if self.codec not in TASK_CODECS:
            raise ValueError(
                f"unknown task codec {self.codec!r}; "
                f"use one of {TASK_CODECS}"
            )
        link_width_for(self.data_format)  # validates the format name

    @property
    def word_width(self) -> int:
        """Per-value wire width in bits."""
        return {"float32": 32, "fixed8": 8}[self.data_format]

    @property
    def link_width(self) -> int:
        """Flit/link width in bits."""
        return self.word_width * self.values_per_flit

    @property
    def pairs_per_flit(self) -> int:
        """(input, weight) pairs per flit under half-half flitisation."""
        return self.values_per_flit // 2

    def noc_config(self) -> NoCConfig:
        """Derive the NoC structural configuration."""
        return NoCConfig(
            width=self.width,
            height=self.height,
            n_vcs=self.n_vcs,
            vc_depth=self.vc_depth,
            link_width=self.link_width,
            routing=self.routing,
            record_ejection=self.record_ejection,
            injection_rate=self.injection_rate,
            core=self.core,
        )

    def label(self) -> str:
        """Short experiment label, e.g. "4x4 MC2 float32 O1"."""
        return (
            f"{self.width}x{self.height} MC{self.n_mcs} "
            f"{self.data_format} {self.ordering.value}"
        )

    # -- serialization ---------------------------------------------------
    #
    # The campaign engine hashes configs into cache keys and persists
    # them in JSONL stores, so the dict form must be stable, canonical
    # (enums as their string values) and loss-free.

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict; exact inverse of :meth:`from_dict`."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (OrderingMethod, FillOrder)):
                value = value.value
            elif isinstance(value, dict):
                value = dict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AcceleratorConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected (they signal a version mismatch the
        cache must treat as a different configuration, not silently
        drop).
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown AcceleratorConfig fields: {sorted(unknown)}"
            )
        kwargs = dict(data)
        if "ordering" in kwargs and not isinstance(
            kwargs["ordering"], OrderingMethod
        ):
            kwargs["ordering"] = OrderingMethod.from_name(kwargs["ordering"])
        if "fill_order" in kwargs and not isinstance(
            kwargs["fill_order"], FillOrder
        ):
            kwargs["fill_order"] = FillOrder(kwargs["fill_order"])
        return cls(**kwargs)
