"""Perf-benchmark harness: tracked wall-clock numbers for the simulator.

``repro bench`` times a set of representative workloads and writes a
``BENCH_<tag>.json`` snapshot so every PR has a perf trajectory to
answer to.  The workloads cover the regimes the event-driven core
targets:

* ``fig12_paper_grid`` — the paper's exact Fig. 12 campaign (three
  mesh/MC points x two data formats x three orderings, trained LeNet).
* ``fig12_mesh_sweep`` — the Fig. 12 mesh-size axis extended to
  campaign scale (16x16 .. 80x80 meshes, two MCs), the regime where
  the stepped core's per-cycle full-mesh scans dominate.
* ``fig13_model_sweep`` — the Fig. 13 model axis (LeNet and DarkNet)
  over the paper's mesh points.
* ``synthetic_rates`` — uniform-random synthetic traffic at several
  injection rates; the sparse windows are idle-heavy, exercising the
  event core's fast-forward.
* ``trace_replay`` — a pre-recorded wire-image trace re-injected
  through the network (verbatim and reordered), the hot path of
  ``repro sweep --kind replay``; capture happens in the factory,
  outside the timed window.
* ``encode_throughput`` — the task codec alone: real LeNet/DarkNet
  task shapes ordered, flitised, and BT-scored offline with no
  network in the loop.  The regime the batch data plane targets; run
  with ``--codec batch`` vs ``--codec scalar`` to compare the two
  codec implementations (their BT totals must be identical — the
  codecs are pinned bit-equal).
* ``decode_throughput`` — the arrival plane alone: the same real task
  shapes pre-encoded once (untimed), then decoded back to
  original-order words — grouped ``decode_batch_words`` passes under
  ``--codec batch``, per-packet ``decode`` + ``original_pairs`` under
  ``--codec scalar``.  The reported ``bit_transitions`` is a popcount
  checksum of the recovered words, identical across codecs by the
  bit-equality contract (the CI gate asserts it).

Each workload runs to completion under the selected network core
(``event`` or ``stepped`` — see :mod:`repro.noc.network`) and task
codec (``batch`` or ``scalar`` — see
:mod:`repro.accelerator.flitize`), and reports wall seconds, simulated
cycles, *stepped* cycles (cycles the core actually executed; the
difference is fast-forwarded idle time), flit hops, bit transitions,
and derived throughput rates.

BENCH JSON schema (``schema`` = 1)::

    {
      "schema": 1,
      "tag": "eventcore",             # free-form label
      "core": "event",                # network core measured
      "codec": "batch",               # task codec measured
      "smoke": false,                 # reduced grids for CI
      "python": "3.11.7",
      "platform": "Linux-...",
      "meta": {                       # provenance (audit trail)
        "git_commit": "abc123...",    # null outside a git checkout
        "python": "3.11.7",
        "numpy": "1.26.4",
        "platform": "Linux-...",
        "machine": "x86_64"
      },
      "workloads": [
        {
          "name": "fig12_mesh_sweep",
          "wall_seconds": 1.23,
          "simulated_cycles": 5678,   # sum of stats.cycles
          "steps_executed": 5600,     # cycles actually stepped
          "flit_hops": 91011,
          "bit_transitions": 121314,
          "cycles_per_second": 4616.2,
          "flit_hops_per_second": 73992.6
        }, ...
      ],
      "totals": { same fields summed / recomputed },
      "peak_rss_bytes": 123456789
    }

Machine-independent invariant (asserted by ``--check-invariant`` and
the CI ``bench-smoke`` job): ``steps_executed <= simulated_cycles``
everywhere, with strict inequality somewhere on the event core —
i.e. fast-forward actually skipped idle cycles.  Wall-clock numbers
are recorded but never asserted; they are machine-dependent.
"""

from __future__ import annotations

import json
import pathlib
import platform
import resource
import subprocess
import sys
import time
from typing import Any, Callable

import numpy as np

from repro.accelerator.config import TASK_CODECS, AcceleratorConfig
from repro.ioutil import atomic_write_text
from repro.accelerator.simulator import AcceleratorSimulator
from repro.dnn.models import ModelSpec
from repro.noc.network import CORES, NoCConfig, network_core
from repro.noc.traffic import (
    SyntheticTrafficConfig,
    TrafficPattern,
    drive_synthetic,
)
from repro.ordering.strategies import OrderingMethod

__all__ = [
    "BENCH_SCHEMA",
    "WORKLOADS",
    "bench_meta",
    "run_bench",
    "check_invariants",
    "compare_bench",
    "default_bench_path",
]

BENCH_SCHEMA = 1

# (width, height, n_mcs) grids per workload; full vs --smoke.
_FIG12_PAPER_MESHES = [(4, 4, 2), (8, 8, 4), (8, 8, 8)]
_FIG12_SWEEP_MESHES = [
    (16, 16, 2),
    (24, 24, 2),
    (32, 32, 2),
    (48, 48, 2),
    (64, 64, 2),
    (80, 80, 2),
]
_FIG12_SWEEP_MESHES_SMOKE = [(8, 8, 2), (12, 12, 2)]
_FIG13_MESHES = [(4, 4, 2), (8, 8, 4)]


def _zero_metrics() -> dict[str, int]:
    return {
        "simulated_cycles": 0,
        "steps_executed": 0,
        "flit_hops": 0,
        "bit_transitions": 0,
    }


def _run_model_points(
    sims: list[AcceleratorSimulator],
) -> dict[str, int]:
    """Run prebuilt accelerator simulations; accumulate their metrics.

    Simulator construction (task extraction, wire formats) is workload
    *preparation* shared verbatim by both cores — it happens in the
    factories, outside the timed window, so the bench measures the
    cycle core itself.
    """
    metrics = _zero_metrics()
    for sim in sims:
        result = sim.run()
        metrics["simulated_cycles"] += result.total_cycles
        metrics["steps_executed"] += result.steps_executed
        metrics["flit_hops"] += result.flit_hops
        metrics["bit_transitions"] += result.total_bit_transitions
    return metrics


def _fig12_paper_grid(smoke: bool, codec: str) -> Callable[[], dict[str, int]]:
    from repro.workloads.figures import (
        figure_lenet_image,
        figure_trained_lenet,
    )

    model = figure_trained_lenet()
    image = figure_lenet_image()
    meshes = _FIG12_PAPER_MESHES[:1] if smoke else _FIG12_PAPER_MESHES
    formats = ("fixed8",) if smoke else ("float32", "fixed8")
    orderings = ("O0", "O2") if smoke else ("O0", "O1", "O2")
    tasks = 4 if smoke else 32
    sims = [
        AcceleratorSimulator(
            AcceleratorConfig(
                width=width,
                height=height,
                n_mcs=n_mcs,
                data_format=data_format,
                ordering=OrderingMethod.from_name(ordering),
                max_tasks_per_layer=tasks,
                seed=2025,
                codec=codec,
            ),
            model,
            image,
        )
        for data_format in formats
        for width, height, n_mcs in meshes
        for ordering in orderings
    ]
    return lambda: _run_model_points(sims)


def _fig12_mesh_sweep(smoke: bool, codec: str) -> Callable[[], dict[str, int]]:
    from repro.workloads.figures import (
        figure_lenet_image,
        figure_trained_lenet,
    )

    model = figure_trained_lenet()
    image = figure_lenet_image()
    meshes = _FIG12_SWEEP_MESHES_SMOKE if smoke else _FIG12_SWEEP_MESHES
    tasks = 2 if smoke else 8
    sims = [
        AcceleratorSimulator(
            AcceleratorConfig(
                width=width,
                height=height,
                n_mcs=n_mcs,
                data_format="fixed8",
                ordering=OrderingMethod.SEPARATED,
                max_tasks_per_layer=tasks,
                seed=2025,
                codec=codec,
            ),
            model,
            image,
        )
        for width, height, n_mcs in meshes
    ]
    return lambda: _run_model_points(sims)


def _fig13_model_sweep(smoke: bool, codec: str) -> Callable[[], dict[str, int]]:
    from repro.workloads.figures import (
        figure_darknet_image,
        figure_darknet_model,
        figure_lenet_image,
        figure_trained_lenet,
    )

    points = [("lenet", figure_trained_lenet(), figure_lenet_image())]
    if not smoke:
        points.append(
            ("darknet", figure_darknet_model(), figure_darknet_image())
        )
    meshes = _FIG13_MESHES[:1] if smoke else _FIG13_MESHES
    orderings = ("O2",) if smoke else ("O0", "O2")
    tasks = 2 if smoke else 16
    sims = [
        AcceleratorSimulator(
            AcceleratorConfig(
                width=width,
                height=height,
                n_mcs=n_mcs,
                data_format="fixed8",
                ordering=OrderingMethod.from_name(ordering),
                max_tasks_per_layer=tasks,
                seed=2025,
                codec=codec,
            ),
            model,
            image,
        )
        for _, model, image in points
        for width, height, n_mcs in meshes
        for ordering in orderings
    ]
    return lambda: _run_model_points(sims)


def _encode_throughput(smoke: bool, codec: str) -> Callable[[], dict[str, int]]:
    from repro.accelerator.tasks import split_task
    from repro.bits.lanes import unpack_lane_matrix
    from repro.bits.popcount import POPCOUNT_LUT
    from repro.workloads.figures import (
        figure_darknet_image,
        figure_darknet_model,
        figure_lenet_image,
        figure_trained_lenet,
    )

    # Preparation (untimed): real LeNet/DarkNet task shapes converted
    # to wire words and grouped by pair count — the batch codec's
    # contract.  The simulator's own task extraction and per-layer
    # quantisation build the groups so the bench encodes exactly what
    # NoC runs would ship.
    points = [("fixed8", figure_trained_lenet(), figure_lenet_image())]
    if not smoke:
        points.append(
            ("float32", figure_trained_lenet(), figure_lenet_image())
        )
        points.append(
            ("fixed8", figure_darknet_model(), figure_darknet_image())
        )
    tasks = 8 if smoke else 48
    repeat = 1 if smoke else 4
    groups: list[tuple] = []
    for data_format, model, image in points:
        sim = AcceleratorSimulator(
            AcceleratorConfig(
                data_format=data_format,
                max_tasks_per_layer=tasks,
                seed=2025,
                codec=codec,
            ),
            model,
            image,
        )
        for lt in sim.layer_tasks:
            in_fmt, w_fmt = sim._formats[lt.layer_index]
            by_pairs: dict[int, list] = {}
            for task in lt.tasks:
                for chunk in split_task(task, sim.config.chunk_pairs):
                    by_pairs.setdefault(chunk.n_pairs, []).append(
                        (
                            in_fmt.encode(chunk.inputs),
                            w_fmt.encode(chunk.weights),
                            int(w_fmt.encode(np.array([chunk.bias]))[0]),
                        )
                    )
            for items in by_pairs.values():
                in_m = np.tile(np.stack([i for i, _, _ in items]), (repeat, 1))
                w_m = np.tile(np.stack([w for _, w, _ in items]), (repeat, 1))
                biases = [b for _, _, b in items] * repeat
                groups.append((sim.codec, in_m, w_m, biases))
    methods = tuple(OrderingMethod)

    def run() -> dict[str, int]:
        metrics = _zero_metrics()
        for task_codec, in_m, w_m, biases in groups:
            n_tasks = len(biases)
            for method in methods:
                if codec == "batch":
                    encoded = task_codec.encode_batch(
                        in_m, w_m, biases, method
                    )
                else:
                    encoded = [
                        task_codec.encode(
                            in_m[t].tolist(),
                            w_m[t].tolist(),
                            biases[t],
                            method,
                        )
                        for t in range(n_tasks)
                    ]
                # Offline BT scoring: transitions between consecutive
                # flits of each task's packet, vectorised over the
                # whole group.  Identical totals across codecs — the
                # CI gate asserts batch == scalar here.
                n_flits = encoded[0].n_data_flits
                payloads = [p for e in encoded for p in e.payloads]
                lanes = unpack_lane_matrix(
                    payloads,
                    task_codec.word_width,
                    task_codec.values_per_flit,
                ).reshape(n_tasks, n_flits, task_codec.values_per_flit)
                xored = lanes[:, :-1] ^ lanes[:, 1:]
                metrics["bit_transitions"] += int(
                    POPCOUNT_LUT[xored.view(np.uint8)].sum(dtype=np.int64)
                )
                metrics["flit_hops"] += len(payloads)
        return metrics

    return run


def _decode_throughput(smoke: bool, codec: str) -> Callable[[], dict[str, int]]:
    from repro.accelerator.tasks import split_task
    from repro.bits.popcount import POPCOUNT_LUT
    from repro.workloads.figures import (
        figure_darknet_image,
        figure_darknet_model,
        figure_lenet_image,
        figure_trained_lenet,
    )

    # Preparation (untimed): the same real task shapes as
    # encode_throughput, encoded once up front.  encode_batch is
    # pinned bit-identical to the scalar encoder, so both codecs
    # decode exactly the same payload bits — only the decode
    # implementation under test differs.
    points = [("fixed8", figure_trained_lenet(), figure_lenet_image())]
    if not smoke:
        points.append(
            ("float32", figure_trained_lenet(), figure_lenet_image())
        )
        points.append(
            ("fixed8", figure_darknet_model(), figure_darknet_image())
        )
    tasks = 8 if smoke else 48
    repeat = 1 if smoke else 4
    groups: list[tuple] = []
    for data_format, model, image in points:
        sim = AcceleratorSimulator(
            AcceleratorConfig(
                data_format=data_format,
                max_tasks_per_layer=tasks,
                seed=2025,
                codec=codec,
            ),
            model,
            image,
        )
        for lt in sim.layer_tasks:
            in_fmt, w_fmt = sim._formats[lt.layer_index]
            by_pairs: dict[int, list] = {}
            for task in lt.tasks:
                for chunk in split_task(task, sim.config.chunk_pairs):
                    by_pairs.setdefault(chunk.n_pairs, []).append(
                        (
                            in_fmt.encode(chunk.inputs),
                            w_fmt.encode(chunk.weights),
                            int(w_fmt.encode(np.array([chunk.bias]))[0]),
                        )
                    )
            for items in by_pairs.values():
                in_m = np.tile(np.stack([i for i, _, _ in items]), (repeat, 1))
                w_m = np.tile(np.stack([w for _, w, _ in items]), (repeat, 1))
                biases = [b for _, _, b in items] * repeat
                for method in OrderingMethod:
                    groups.append(
                        (
                            sim.codec,
                            sim.codec.encode_batch(
                                in_m, w_m, biases, method
                            ),
                        )
                    )

    def run() -> dict[str, int]:
        metrics = _zero_metrics()
        for task_codec, encoded in groups:
            # The popcount checksum of the recovered original-order
            # words stands in for BTs: identical across codecs, so the
            # CI equality gate pins decode correctness, not just speed.
            if codec == "batch":
                rows = task_codec.decode_batch_words(encoded)
                in_m = np.stack([row[0] for row in rows])
                w_m = np.stack([row[1] for row in rows])
                checksum = int(
                    POPCOUNT_LUT[
                        np.ascontiguousarray(in_m).view(np.uint8)
                    ].sum(dtype=np.int64)
                ) + int(
                    POPCOUNT_LUT[
                        np.ascontiguousarray(w_m).view(np.uint8)
                    ].sum(dtype=np.int64)
                )
                checksum += sum(
                    int(row[2]).bit_count() for row in rows
                )
            else:
                checksum = 0
                for e in encoded:
                    decoded = task_codec.decode(e)
                    for a, w in decoded.original_pairs():
                        checksum += int(a).bit_count()
                        checksum += int(w).bit_count()
                    checksum += int(decoded.bias).bit_count()
            metrics["bit_transitions"] += checksum
            metrics["flit_hops"] += sum(
                len(e.payloads) for e in encoded
            )
        return metrics

    return run


def _synthetic_rates(smoke: bool, codec: str) -> Callable[[], dict[str, int]]:
    # Fixed packet count across widening injection windows: the wide
    # windows are idle-dominated, which is where fast-forward pays.
    n_packets = 30 if smoke else 150
    windows = (100, 2_000) if smoke else (200, 2_000, 20_000)
    noc = NoCConfig(width=8, height=8, link_width=128)

    def run() -> dict[str, int]:
        metrics = _zero_metrics()
        for window in windows:
            network = drive_synthetic(
                SyntheticTrafficConfig(
                    pattern=TrafficPattern.UNIFORM_RANDOM,
                    n_packets=n_packets,
                    injection_window=window,
                    seed=7,
                ),
                noc,
            )
            stats = network.stats
            metrics["simulated_cycles"] += stats.cycles
            metrics["steps_executed"] += network.steps_executed
            metrics["flit_hops"] += stats.flit_hops
            metrics["bit_transitions"] += stats.total_bit_transitions
        return metrics

    return run


def _trace_replay(smoke: bool, codec: str) -> Callable[[], dict[str, int]]:
    from repro.noc.recorder import TraceRecorder
    from repro.workloads.traces import replay_through_network

    # Workload preparation: record one synthetic run into a trace —
    # untimed, shared verbatim by both cores (the capture itself runs
    # on the process-default core but only the *trace* survives).
    noc = NoCConfig(width=8, height=8, link_width=128)
    recorder = TraceRecorder()
    network = drive_synthetic(
        SyntheticTrafficConfig(
            pattern=TrafficPattern.UNIFORM_RANDOM,
            n_packets=40 if smoke else 300,
            injection_window=60 if smoke else 400,
            seed=13,
        ),
        noc,
        trace_collector=recorder,
    )
    trace = recorder.finish(network.config)

    def run() -> dict[str, int]:
        metrics = _zero_metrics()
        for ordering in ("none", "popcount_desc"):
            replayed = replay_through_network(trace, ordering=ordering)
            stats = replayed.stats
            metrics["simulated_cycles"] += stats.cycles
            metrics["steps_executed"] += replayed.steps_executed
            metrics["flit_hops"] += stats.flit_hops
            metrics["bit_transitions"] += stats.total_bit_transitions
        return metrics

    return run


# Each factory takes (`smoke`, `codec`) and returns the timed runner;
# model and image construction (including LeNet training) happens in
# the factory, outside the timed window.  Network-only workloads
# accept the codec for signature uniformity and ignore it.
WORKLOADS: dict[str, Callable[[bool, str], Callable[[], dict[str, int]]]] = {
    "fig12_paper_grid": _fig12_paper_grid,
    "fig12_mesh_sweep": _fig12_mesh_sweep,
    "fig13_model_sweep": _fig13_model_sweep,
    "encode_throughput": _encode_throughput,
    "decode_throughput": _decode_throughput,
    "synthetic_rates": _synthetic_rates,
    "trace_replay": _trace_replay,
}


def default_bench_path(tag: str) -> pathlib.Path:
    """Repository-convention output path for a bench tag."""
    return pathlib.Path(f"BENCH_{tag}.json")


def _rates(entry: dict[str, Any]) -> None:
    wall = entry["wall_seconds"]
    entry["cycles_per_second"] = (
        entry["simulated_cycles"] / wall if wall > 0 else 0.0
    )
    entry["flit_hops_per_second"] = (
        entry["flit_hops"] / wall if wall > 0 else 0.0
    )


def bench_meta() -> dict[str, Any]:
    """Run metadata stamped into BENCH payloads.

    Makes the checked-in perf trajectory auditable: which commit,
    interpreter, numpy and machine produced a snapshot.  Best-effort —
    outside a git checkout ``git_commit`` is None, never an error.
    Identity comparisons in :func:`compare_bench` ignore the ``meta``
    key entirely, so pre-meta baselines stay comparable.
    """
    git_commit: str | None = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
        if proc.returncode == 0:
            git_commit = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_commit": git_commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_bench(
    tag: str,
    core: str = "event",
    workloads: list[str] | None = None,
    smoke: bool = False,
    out_path: str | pathlib.Path | None = None,
    progress: Callable[[str], None] | None = None,
    codec: str = "batch",
) -> dict[str, Any]:
    """Time the selected workloads and write ``BENCH_<tag>.json``.

    Args:
        tag: label baked into the file name and payload.
        core: network core to measure ("event" or "stepped").
        workloads: workload names (default: all, in registry order).
        smoke: run the reduced CI grids.
        out_path: output file (None = ``BENCH_<tag>.json`` in the cwd).
        progress: optional per-workload status callback.
        codec: task codec to measure ("batch" or "scalar"); the two
            produce identical cycle/hop/BT numbers, only wall time
            moves.

    Returns:
        The payload that was written.
    """
    if core not in CORES:
        raise ValueError(f"unknown network core {core!r}; use one of {CORES}")
    if codec not in TASK_CODECS:
        raise ValueError(
            f"unknown task codec {codec!r}; use one of {TASK_CODECS}"
        )
    names = list(WORKLOADS) if workloads is None else list(workloads)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown bench workloads {unknown}; "
            f"available: {sorted(WORKLOADS)}"
        )
    entries: list[dict[str, Any]] = []
    with network_core(core):
        for name in names:
            runner = WORKLOADS[name](smoke, codec)
            start = time.perf_counter()
            metrics = runner()
            wall = time.perf_counter() - start
            entry: dict[str, Any] = {"name": name, "wall_seconds": wall}
            entry.update(metrics)
            _rates(entry)
            entries.append(entry)
            if progress is not None:
                progress(
                    f"{name}: {wall:.2f}s, "
                    f"{entry['simulated_cycles']} cycles "
                    f"({entry['steps_executed']} stepped), "
                    f"{entry['flit_hops']} hops"
                )
    totals: dict[str, Any] = {
        "wall_seconds": sum(e["wall_seconds"] for e in entries),
    }
    for key in _zero_metrics():
        totals[key] = sum(e[key] for e in entries)
    _rates(totals)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss = maxrss if sys.platform == "darwin" else maxrss * 1024
    payload: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "tag": tag,
        "core": core,
        "codec": codec,
        "smoke": smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "meta": bench_meta(),
        "workloads": entries,
        "totals": totals,
        "peak_rss_bytes": peak_rss,
    }
    path = pathlib.Path(out_path) if out_path else default_bench_path(tag)
    # Atomic temp-then-rename: a crash mid-write must not clobber the
    # previous snapshot a later --compare would gate against.
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    return payload


def compare_bench(
    baseline: dict[str, Any],
    fresh: dict[str, Any],
    max_regression_pct: float = 25.0,
    min_delta_seconds: float = 0.05,
) -> list[str]:
    """Wall-time regression gate between two BENCH payloads.

    Compares per-workload and total wall seconds of ``fresh`` against
    ``baseline`` and reports every workload that got more than
    ``max_regression_pct`` percent slower.  The two payloads must
    cover the same grids (same core, same codec, same smoke flag,
    same workload set) — comparing apples to oranges is itself a
    failure, not a silent pass.  Speedups and sub-threshold noise report nothing;
    ``min_delta_seconds`` is the absolute noise floor below which a
    percentage blip on a millisecond-scale workload is ignored (a
    10ms grid jittering to 13ms is timer noise, not a regression).

    Returns a list of violation descriptions (empty = within budget).
    """
    failures: list[str] = []
    for key in ("schema", "core", "codec", "smoke"):
        if baseline.get(key) != fresh.get(key):
            failures.append(
                f"payloads disagree on {key!r}: baseline "
                f"{baseline.get(key)!r} vs fresh {fresh.get(key)!r}"
            )

    def by_name(payload: dict[str, Any], label: str) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for entry in payload.get("workloads", []):
            if (
                not isinstance(entry, dict)
                or "name" not in entry
                or not isinstance(entry.get("wall_seconds"), (int, float))
            ):
                # A malformed entry (hand-edited or foreign-schema
                # snapshot) is a comparison failure, never a crash.
                failures.append(
                    f"{label} payload has a malformed workload entry: "
                    f"{entry!r}"
                )
                continue
            out[entry["name"]] = entry
        return out

    base_by = by_name(baseline, "baseline")
    fresh_by = by_name(fresh, "fresh")
    if set(base_by) != set(fresh_by):
        failures.append(
            f"workload sets differ: baseline {sorted(base_by)} vs "
            f"fresh {sorted(fresh_by)}"
        )
    limit = 1.0 + max_regression_pct / 100.0
    entries = [
        (name, base_by[name], fresh_by[name])
        for name in sorted(set(base_by) & set(fresh_by))
    ]
    if "totals" in baseline and "totals" in fresh:
        entries.append(("totals", baseline["totals"], fresh["totals"]))
    for name, old, new in entries:
        old_wall = old.get("wall_seconds")
        new_wall = new.get("wall_seconds")
        if not isinstance(old_wall, (int, float)) or not isinstance(
            new_wall, (int, float)
        ):
            failures.append(
                f"{name}: wall_seconds missing or non-numeric "
                f"(baseline {old_wall!r}, fresh {new_wall!r})"
            )
            continue
        if new_wall - old_wall < min_delta_seconds:
            continue
        if old_wall > 0 and new_wall > old_wall * limit:
            failures.append(
                f"{name}: wall time {new_wall:.2f}s vs baseline "
                f"{old_wall:.2f}s (+{100.0 * (new_wall / old_wall - 1):.0f}%"
                f", limit +{max_regression_pct:.0f}%)"
            )
    if failures:
        # On regression, surface each payload's provenance so "which
        # commit / machine produced the baseline?" never needs a dig
        # through git history.  Meta-less (pre-meta) payloads add
        # nothing.
        for label, payload in (("baseline", baseline), ("fresh", fresh)):
            meta = payload.get("meta")
            if isinstance(meta, dict) and meta:
                described = ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(meta.items())
                    if value is not None
                )
                failures.append(f"note: {label} meta: {described}")
    return failures


def check_invariants(payload: dict[str, Any]) -> list[str]:
    """Machine-independent consistency checks on a bench payload.

    Returns a list of violation descriptions (empty = all good):

    * every workload: ``steps_executed <= simulated_cycles``;
    * stepped core: ``steps_executed == simulated_cycles`` (the
      reference core cannot skip cycles);
    * event core: some workload with strictly fewer steps than cycles
      when the idle-heavy ``synthetic_rates`` workload ran (i.e.
      fast-forward actually skipped idle cycles).
    """
    failures: list[str] = []
    skipped_somewhere = False
    ran_synthetic = False
    for entry in payload["workloads"]:
        steps = entry["steps_executed"]
        cycles = entry["simulated_cycles"]
        if steps > cycles:
            failures.append(
                f"{entry['name']}: steps_executed {steps} exceeds "
                f"simulated_cycles {cycles}"
            )
        if steps < cycles:
            skipped_somewhere = True
            if payload["core"] == "stepped":
                failures.append(
                    f"{entry['name']}: the stepped core skipped cycles "
                    f"({steps} < {cycles})"
                )
        if entry["name"] == "synthetic_rates":
            ran_synthetic = True
    if payload["core"] == "event" and ran_synthetic and not skipped_somewhere:
        failures.append(
            "event core fast-forward skipped no idle cycles anywhere "
            "(steps_executed == simulated_cycles for every workload)"
        )
    return failures
