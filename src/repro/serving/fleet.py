"""Serving-fleet configuration: tenants, arrivals, policies.

A fleet is a list of :class:`TenantSpec` plus fleet-wide defaults in
:class:`ServingConfig`.  Two tenant workloads exist:

* ``"model"`` — a DNN inference service.  Each request replays the
  tenant's captured single-inference injection schedule (the same
  wire traffic a ``model`` job produces, restricted to the tenant's
  mesh partition), so a lone tenant with the whole mesh reproduces the
  model job's BT totals bit-exactly.
* ``"synthetic"`` — background/interference traffic: each request is a
  burst of synthetic packets following one of the
  :mod:`repro.noc.traffic` patterns.

Tenant mixes are usually written in the compact CLI grammar parsed by
:func:`parse_tenant_mix`::

    lenet+uniform          one LeNet service plus uniform background
    lenet@O2+lenet@O0      two LeNet services with different orderings
    darknet+hotspot@0.05   DarkNet plus hotspot background at rate 0.05

Model tokens take an optional ``@O0|@O1|@O2`` ordering override;
pattern tokens take an optional ``@<rate>`` arrival-rate override
(requests per cycle).  Duplicate tokens get ``#2``, ``#3``… name
suffixes so per-tenant report rows stay distinct.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

__all__ = [
    "ARRIVAL_KINDS",
    "PARTITION_POLICIES",
    "SERVING_MODELS",
    "SERVING_PATTERNS",
    "TENANT_WORKLOADS",
    "TenantSpec",
    "ServingConfig",
    "parse_tenant_mix",
]

#: Model names a "model" tenant may serve (mirrors the campaign
#: engine's MODEL_NAMES; defined here so serving does not import the
#: experiments layer it sits below).
SERVING_MODELS = ("lenet", "darknet", "trained_lenet")

#: Synthetic patterns a background tenant may inject (string values of
#: :class:`repro.noc.traffic.TrafficPattern`).
SERVING_PATTERNS = ("uniform", "transpose", "complement", "hotspot")

TENANT_WORKLOADS = ("model", "synthetic")
PARTITION_POLICIES = ("interleaved", "blocks")
ARRIVAL_KINDS = ("poisson", "trace")

_ORDERING_NAMES = ("O0", "O1", "O2")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the fleet.

    ``None``-valued fields fall back to the fleet-wide default in
    :class:`ServingConfig` (``rate`` to ``request_rate`` for model
    tenants and ``background_rate`` for synthetic ones).

    Attributes:
        name: unique tenant label (report row key).
        workload: "model" or "synthetic".
        model: served model (model tenants).
        ordering: per-tenant transmission-ordering override
            ("O0"/"O1"/"O2"; model tenants).
        pattern: traffic pattern (synthetic tenants).
        share: partition weight — node counts are proportional.
        rate: arrival rate in requests per cycle.
        n_requests: requests to issue (overrides the fleet default).
        max_outstanding: admission cap (0 = unlimited).
        batch_window: batching quantum in cycles (0 = none).
    """

    name: str
    workload: str = "synthetic"
    model: str = "lenet"
    ordering: str | None = None
    pattern: str = "uniform"
    share: int = 1
    rate: float | None = None
    n_requests: int | None = None
    max_outstanding: int | None = None
    batch_window: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.workload not in TENANT_WORKLOADS:
            raise ValueError(
                f"unknown tenant workload {self.workload!r}; "
                f"use one of {TENANT_WORKLOADS}"
            )
        if self.workload == "model" and self.model not in SERVING_MODELS:
            raise ValueError(
                f"unknown tenant model {self.model!r}; "
                f"use one of {SERVING_MODELS}"
            )
        if self.workload == "synthetic" and (
            self.pattern not in SERVING_PATTERNS
        ):
            raise ValueError(
                f"unknown tenant pattern {self.pattern!r}; "
                f"use one of {SERVING_PATTERNS}"
            )
        if self.ordering is not None and self.ordering not in _ORDERING_NAMES:
            raise ValueError(
                f"unknown ordering {self.ordering!r}; "
                f"use one of {_ORDERING_NAMES}"
            )
        if self.share <= 0:
            raise ValueError("tenant share must be positive")
        if self.rate is not None and self.rate < 0:
            raise ValueError("tenant rate must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict; exact inverse of :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TenantSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict keys)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown TenantSpec fields: {sorted(unknown)}")
        return cls(**data)


def parse_tenant_mix(text: str) -> tuple[TenantSpec, ...]:
    """Parse a ``+``-separated tenant-mix string into specs.

    Each token is a model name (→ model tenant, optional ``@O<n>``
    ordering) or a pattern name (→ synthetic tenant, optional
    ``@<rate>``).  See the module docstring for examples.
    """
    tenants: list[TenantSpec] = []
    counts: dict[str, int] = {}
    for token in text.split("+"):
        token = token.strip()
        if not token:
            raise ValueError(f"empty tenant token in mix {text!r}")
        base, _, modifier = token.partition("@")
        counts[base] = counts.get(base, 0) + 1
        name = base if counts[base] == 1 else f"{base}#{counts[base]}"
        if base in SERVING_MODELS:
            ordering = modifier or None
            if ordering is not None and ordering not in _ORDERING_NAMES:
                raise ValueError(
                    f"bad ordering {modifier!r} in tenant {token!r}; "
                    f"use one of {_ORDERING_NAMES}"
                )
            tenants.append(
                TenantSpec(
                    name=name,
                    workload="model",
                    model=base,
                    ordering=ordering,
                )
            )
        elif base in SERVING_PATTERNS:
            rate: float | None = None
            if modifier:
                try:
                    rate = float(modifier)
                except ValueError:
                    raise ValueError(
                        f"bad rate {modifier!r} in tenant {token!r}"
                    ) from None
            tenants.append(
                TenantSpec(
                    name=name,
                    workload="synthetic",
                    pattern=base,
                    rate=rate,
                )
            )
        else:
            raise ValueError(
                f"unknown tenant {base!r} in mix {text!r}; use a model "
                f"{SERVING_MODELS} or a pattern {SERVING_PATTERNS}"
            )
    if not tenants:
        raise ValueError("tenant mix must name at least one tenant")
    return tuple(tenants)


@dataclass(frozen=True)
class ServingConfig:
    """Fleet-wide serving parameters.

    Attributes:
        tenants: the fleet (unique names).
        partitioning: mesh split policy — "interleaved" (tenants share
            every region; interference default) or "blocks" (contiguous
            isolation baseline).
        ordering: default transmission ordering of model tenants.
        data_format: link data format of the fleet ("float32" or
            "fixed8"); fixes the link width for all tenants.
        request_rate: default arrival rate of model tenants
            (requests per cycle).
        background_rate: default arrival rate of synthetic tenants;
            the interference-level sweep axis.
        n_requests: default requests per tenant.
        packets_per_request: packets per synthetic burst request.
        flits_per_packet: flits per synthetic packet.
        payload: synthetic payload kind ("random"/"zero"/"counter").
        arrival: arrival process — "poisson" or "trace".
        inter_arrivals: recorded inter-arrival gaps for "trace"
            (cycled; see :func:`repro.noc.traffic.trace_arrivals`).
        max_outstanding: default admission cap (0 = unlimited).
        batch_window: default batching quantum in cycles (0 = none).
        max_tasks_per_layer: workload scale of model tenants.
        n_mcs: memory controllers per model tenant partition.
        seed: root seed of arrivals and synthetic traffic.
        model_seed / image_seed: model-tenant workload seeds.
        task_seed: model-tenant task-sampling seed
            (:attr:`AcceleratorConfig.seed`).
    """

    tenants: tuple[TenantSpec, ...] = (TenantSpec(name="uniform"),)
    partitioning: str = "interleaved"
    ordering: str = "O0"
    data_format: str = "fixed8"
    request_rate: float = 0.001
    background_rate: float = 0.01
    n_requests: int = 2
    packets_per_request: int = 8
    flits_per_packet: int = 4
    payload: str = "random"
    arrival: str = "poisson"
    inter_arrivals: tuple[int, ...] = ()
    max_outstanding: int = 0
    batch_window: int = 0
    max_tasks_per_layer: int = 4
    n_mcs: int = 2
    seed: int = 0
    model_seed: int = 1
    image_seed: int = 5
    task_seed: int = 2025

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("serving fleet needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        if self.partitioning not in PARTITION_POLICIES:
            raise ValueError(
                f"unknown partitioning {self.partitioning!r}; "
                f"use one of {PARTITION_POLICIES}"
            )
        if self.ordering not in _ORDERING_NAMES:
            raise ValueError(
                f"unknown ordering {self.ordering!r}; "
                f"use one of {_ORDERING_NAMES}"
            )
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.arrival!r}; "
                f"use one of {ARRIVAL_KINDS}"
            )
        if self.arrival == "trace" and not self.inter_arrivals:
            raise ValueError("trace arrivals need inter_arrivals gaps")
        if self.payload not in ("random", "zero", "counter"):
            raise ValueError(f"unknown payload kind {self.payload!r}")
        if self.request_rate < 0 or self.background_rate < 0:
            raise ValueError("arrival rates must be non-negative")
        if self.n_requests < 0:
            raise ValueError("n_requests must be non-negative")
        if self.packets_per_request <= 0 or self.flits_per_packet <= 0:
            raise ValueError("synthetic burst shape must be positive")
        if self.max_outstanding < 0 or self.batch_window < 0:
            raise ValueError("policy knobs must be non-negative")

    # -- per-tenant effective values -------------------------------------

    def tenant_rate(self, tenant: TenantSpec) -> float:
        """Arrival rate of a tenant after default fallback."""
        if tenant.rate is not None:
            return tenant.rate
        if tenant.workload == "model":
            return self.request_rate
        return self.background_rate

    def tenant_requests(self, tenant: TenantSpec) -> int:
        return (
            tenant.n_requests
            if tenant.n_requests is not None
            else self.n_requests
        )

    def tenant_ordering(self, tenant: TenantSpec) -> str:
        return tenant.ordering if tenant.ordering is not None else self.ordering

    def tenant_max_outstanding(self, tenant: TenantSpec) -> int:
        return (
            tenant.max_outstanding
            if tenant.max_outstanding is not None
            else self.max_outstanding
        )

    def tenant_batch_window(self, tenant: TenantSpec) -> int:
        return (
            tenant.batch_window
            if tenant.batch_window is not None
            else self.batch_window
        )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict; exact inverse of :meth:`from_dict`."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "tenants":
                value = [t.to_dict() for t in value]
            elif f.name == "inter_arrivals":
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServingConfig":
        """Rebuild a config from :meth:`to_dict` output (strict keys)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ServingConfig fields: {sorted(unknown)}"
            )
        kwargs = dict(data)
        if "tenants" in kwargs:
            kwargs["tenants"] = tuple(
                t if isinstance(t, TenantSpec) else TenantSpec.from_dict(t)
                for t in kwargs["tenants"]
            )
        if "inter_arrivals" in kwargs:
            kwargs["inter_arrivals"] = tuple(
                int(g) for g in kwargs["inter_arrivals"]
            )
        return cls(**kwargs)
