"""Command-line interface for the reproduction experiments.

Subcommands::

    repro run-noc    — run a DNN through the NoC and report BTs
                       (--trace records a replayable wire-image trace)
    repro no-noc     — the Table I flit-stream experiment
    repro link-power — Sec. V-C link power arithmetic
    repro table2     — Table II synthesis comparison
    repro traffic    — synthetic traffic patterns through the NoC
                       (--trace records a replayable wire-image trace)
    repro sweep      — run a declarative campaign grid (cached, parallel;
                       --kind model|batch|synthetic|replay picks the
                       workload, --cores adds a network-core axis;
                       --job-timeout/--max-retries harden execution,
                       Ctrl-C checkpoints the campaign journal and
                       --resume <campaign-id> picks it back up;
                       --server HOST:PORT works a served queue instead)
    repro serve      — own a campaign as a job server: workers claim
                       jobs under time-bounded leases with heartbeats,
                       dead workers are stolen from, SIGINT/SIGTERM
                       drains and checkpoints for --resume
    repro work       — attach a worker to a running `repro serve`
                       (--cache-dir shares a verified cache root with
                       co-located workers; exit 3 when the server dies)
    repro cache      — operate on a cache root: `verify` re-checks
                       every digest envelope and quarantines corruption
    repro report     — re-render campaign tables from a result store
                       (--pivot mesh|model|layer|link; failed jobs are
                       skipped with a warning; --failures lists them
                       with error class / attempts / quarantine)
    repro trace      — analyse recorded wire-image traces:
                       `stats` (one-screen summary), `heat` (per-link
                       BT heat by cycle window), `diff` (where two
                       traces disagree; exit 1 on divergence), and
                       `bisect` (log2 window bisection down to the
                       first diverging cycle window and link)

Every subcommand accepts ``--seed``: when given, all randomness (model
init, sample images, task sampling, traffic schedules) derives from it
via :func:`repro.experiments.spec.derive_seed`; when omitted, the
historical per-command defaults apply so existing outputs stay stable.
Purely arithmetic commands (``link-power``, ``table2``) accept the flag
for uniformity and ignore it.

Installed as the ``repro`` console script, or run with
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.simulator import run_model_on_noc
from repro.analysis.summary import reduction_rate
from repro.dnn.datasets import synthetic_digits, synthetic_shapes
from repro.dnn.models import build_model
from repro.experiments.cache import ResultCache
from repro.experiments.faults import FaultPlan
from repro.experiments.kinds import JOB_KINDS
from repro.experiments.report import (
    REPORT_PIVOTS,
    campaign_report,
    failures_report,
    skipped_records,
)
from repro.experiments.runner import (
    CampaignRunner,
    SpecDriftError,
    sigterm_as_interrupt,
)
from repro.experiments.spec import SweepSpec, campaign_id, derive_seed
from repro.experiments.store import CampaignJournal, ResultStore
from repro.hardware.linkpower import (
    BANERJEE_ENERGY_PJ,
    PAPER_ENERGY_PJ,
    LinkPowerModel,
)
from repro.hardware.synthesis import format_table2, model_table2, paper_table2
from repro.noc.network import NoCConfig
from repro.noc.recorder import TraceRecorder
from repro.obs import (
    DEFAULT_WINDOW,
    bisect_divergence,
    bt_by_owner,
    link_heat,
    trace_diff,
    trace_stats,
)
from repro.noc.traffic import (
    SyntheticTrafficConfig,
    TrafficPattern,
    drive_synthetic,
)
from repro.ordering.strategies import OrderingMethod
from repro.workloads.packets import build_packets, measure_stream
from repro.workloads.traces import TrafficTrace
from repro.workloads.streams import (
    random_weights,
    trained_lenet_weights,
    words_for_format,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The full CLI argument tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bit-transition-reduction reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed", type=int, default=None,
        help="derive all randomness from this seed "
             "(default: historical per-command seeds)",
    )

    run_noc = sub.add_parser("run-noc", parents=[seeded],
                             help="run a DNN through the NoC")
    run_noc.add_argument("--model", default="lenet",
                         choices=("lenet", "darknet"))
    run_noc.add_argument("--format", default="fixed8",
                         choices=("float32", "fixed8"))
    run_noc.add_argument("--ordering", default="O2",
                         choices=("O0", "O1", "O2"))
    run_noc.add_argument("--mesh", default="4x4",
                         help="mesh as WxH, e.g. 8x8")
    run_noc.add_argument("--mcs", type=int, default=2)
    run_noc.add_argument("--tasks", type=int, default=16,
                         help="sampled tasks per layer")
    run_noc.add_argument("--compare", action="store_true",
                         help="also run O0 and report the reduction")
    run_noc.add_argument("--trace", default=None,
                         help="record the requested ordering's run to "
                              "this trace file (replayable via "
                              "`repro sweep --kind replay`)")

    no_noc = sub.add_parser("no-noc", parents=[seeded],
                            help="Table I flit-stream experiment")
    no_noc.add_argument("--format", default="fixed8",
                        choices=("float32", "fixed8"))
    no_noc.add_argument("--weights", default="random",
                        choices=("random", "trained"))
    no_noc.add_argument("--packets", type=int, default=10_000)
    no_noc.add_argument("--kernel", type=int, default=25)

    power = sub.add_parser("link-power", parents=[seeded],
                           help="Sec. V-C link power")
    power.add_argument("--mesh", default="8x8")
    power.add_argument("--reduction", type=float, default=40.85,
                       help="BT reduction rate in percent")

    sub.add_parser("table2", parents=[seeded],
                   help="Table II synthesis comparison")

    traffic = sub.add_parser("traffic", parents=[seeded],
                             help="synthetic NoC traffic")
    traffic.add_argument("--pattern", default="uniform",
                         choices=[p.value for p in TrafficPattern])
    traffic.add_argument("--mesh", default="4x4")
    traffic.add_argument("--packets", type=int, default=200)
    traffic.add_argument("--trace", default=None,
                         help="record the run to this trace file "
                              "(replayable via `repro sweep --kind "
                              "replay`)")

    # Grid flags shared by `sweep` and `serve` — both build the same
    # SweepSpec from the same argument surface.
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--name", default="sweep", help="campaign name")
    grid.add_argument("--kind", default=None,
                      choices=sorted(JOB_KINDS),
                      help="job kind every grid point runs as "
                           "(default model)")
    grid.add_argument("--spec", default=None,
                      help="JSON SweepSpec file (overrides grid flags; "
                           "--seed still overrides its campaign seed)")
    # Kind-specific grid flags default to None so an explicitly-given
    # flag that doesn't apply to the chosen --kind can be rejected
    # instead of silently ignored (_check_kind_flags below).
    grid.add_argument("--model", default=None,
                       choices=("lenet", "darknet", "trained-lenet"),
                       help="[model/batch] workload model "
                            "(default lenet)")
    grid.add_argument("--meshes", default=None,
                       help="comma list of WxH:MCS mesh points "
                            "(default 4x4:2,8x8:4,8x8:8; synthetic "
                            "ignores the MCS part, default 4x4,8x8)")
    grid.add_argument("--formats", default=None,
                       help="[model/batch] comma list of data formats "
                            "(default fixed8)")
    grid.add_argument("--orderings", default=None,
                       help="[model/batch] comma list of ordering "
                            "methods (default O0,O1,O2)")
    grid.add_argument("--tasks", type=int, default=None,
                       help="[model/batch/serving] sampled tasks per "
                            "layer (default 16; serving default 4)")
    grid.add_argument("--images", type=int, default=None,
                       help="[batch] images per job (default 4)")
    grid.add_argument("--patterns", default=None,
                       help="[synthetic] comma list of traffic patterns "
                            "(default all four)")
    grid.add_argument("--payloads", default=None,
                       help="[synthetic] comma list of payload kinds "
                            "(random, zero, counter; default random)")
    grid.add_argument("--packets", type=int, default=None,
                       help="[synthetic] packets injected per job "
                            "(default 150); [serving] packets per "
                            "synthetic request (default 8)")
    grid.add_argument("--window", type=int, default=None,
                       help="[synthetic] injection window in cycles "
                            "(default 200)")
    grid.add_argument("--link-width", type=int, default=None,
                       help="[synthetic/serving] link width in bits "
                            "(default 128 / the fleet data format's "
                            "paper width)")
    grid.add_argument("--tenants", default=None,
                       help="[serving] comma list of tenant mixes in "
                            "the compact grammar, e.g. "
                            "'lenet+uniform@0.05,lenet+lenet' "
                            "(default lenet+uniform)")
    grid.add_argument("--rates", default=None,
                       help="[serving] comma list of background "
                            "arrival rates in requests/cycle for "
                            "synthetic tenants without an explicit "
                            "@rate (default 0.01)")
    grid.add_argument("--requests", type=int, default=None,
                       help="[serving] requests per tenant "
                            "(default 2)")
    grid.add_argument("--traces", default=None,
                       help="[replay] comma list of recorded trace "
                            "files (the 'trace' axis)")
    grid.add_argument("--codings", default=None,
                       help="[replay] comma list of link codings "
                            "(none, bus_invert, delta; default none)")
    grid.add_argument("--cores", default=None,
                       help="network-core axis: comma list of cores "
                            "(event, stepped; replay also takes "
                            "offline and the differential 'both')")
    # Campaign persistence/hardening flags shared by `sweep`/`serve`.
    campaign = argparse.ArgumentParser(add_help=False)
    campaign.add_argument("--max-retries", type=int, default=2,
                          help="retries per job for transient-class "
                               "failures (timeouts, worker crashes, "
                               "I/O blips); deterministic errors never "
                               "retry (default 2)")
    campaign.add_argument("--resume", default=None,
                          metavar="CAMPAIGN_ID",
                          help="resume an interrupted campaign from "
                               "its journal: journaled-complete jobs "
                               "are served back, only the rest execute "
                               "(the id is printed by the original run "
                               "and by the checkpoint message)")
    campaign.add_argument("--fault-plan", default=None,
                          help="JSON fault-injection plan for chaos "
                               "testing (see repro.experiments.faults."
                               "FaultPlan; in-process faults fire "
                               "inside the workers, network faults "
                               "through the service socket)")
    campaign.add_argument("--cache-dir", default=".repro-cache",
                          help="content-addressed result cache "
                               "directory")
    campaign.add_argument("--no-cache", action="store_true",
                          help="always simulate, never read or write "
                               "cache")
    campaign.add_argument("--store", default=None,
                          help="JSONL result store "
                               "(default campaigns/<name>.jsonl)")
    campaign.add_argument("--csv", default=None,
                          help="also export the store as CSV")
    campaign.add_argument("--metrics", action="store_true",
                          help="print the campaign-wide metrics "
                               "aggregate (event/router/codec/cache/"
                               "runner/service counter families) after "
                               "the report")

    sweep = sub.add_parser(
        "sweep", parents=[seeded, grid, campaign],
        help="run a campaign grid through the cached parallel engine",
    )
    sweep.add_argument("--workers", type=int, default=2,
                       help="worker processes (1 = inline)")
    sweep.add_argument("--job-timeout", type=float, default=None,
                       help="per-attempt wall-clock budget in seconds; "
                            "a job past it is killed and recorded as a "
                            "JobTimeout failure (default: no limit)")
    sweep.add_argument("--progress", action="store_true",
                       help="print a live telemetry line per completed "
                            "job (done/failed/cached counts and ETA) "
                            "as results stream back from the pool")
    sweep.add_argument("--server", default=None, metavar="HOST:PORT",
                       help="run this sweep against a running `repro "
                            "serve` instead of the local engine: work "
                            "the served queue as one worker, then "
                            "print the campaign report from the "
                            "server's drain (the spec must derive the "
                            "served campaign id; --workers/"
                            "--job-timeout are the server's business "
                            "and ignored here)")

    serve = sub.add_parser(
        "serve", parents=[seeded, grid, campaign],
        help="own a campaign as a job server: `repro work` processes "
             "claim jobs under time-bounded leases and stream results "
             "back; SIGINT/SIGTERM drains and checkpoints for --resume",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default loopback)")
    serve.add_argument("--port", type=int, default=0,
                       help="port to bind (default 0 = ephemeral; the "
                            "bound port is printed)")
    serve.add_argument("--lease", type=float, default=30.0,
                       help="lease seconds per claimed job: a worker "
                            "silent past this returns the job to the "
                            "queue (default 30)")
    serve.add_argument("--heartbeat", type=float, default=None,
                       help="heartbeat interval advertised to workers "
                            "(default lease/3)")

    work = sub.add_parser(
        "work",
        help="attach a worker to a running `repro serve`: claim jobs, "
             "heartbeat the lease, stream results back until the "
             "server drains (exit 0) or is lost (exit 3)",
    )
    work.add_argument("--connect", required=True, metavar="HOST:PORT",
                      help="server address printed by `repro serve`")
    work.add_argument("--name", default=None,
                      help="worker identity (default worker-<pid>)")
    work.add_argument("--cache-dir", default=None,
                      help="shared cache root: serve repeat keys from "
                           "disk and claim keys before computing so "
                           "co-located workers don't duplicate work "
                           "(default: no cache)")
    work.add_argument("--expect-campaign", default=None,
                      metavar="CAMPAIGN_ID",
                      help="refuse to work for any other campaign "
                           "(spec-drift guard over the wire)")
    work.add_argument("--reconnect-attempts", type=int, default=10,
                      help="redials before declaring the server dead "
                           "(default 10, exponential backoff)")
    work.add_argument("--reconnect-backoff", type=float, default=0.25,
                      help="base reconnect backoff seconds (default "
                           "0.25, doubling per attempt, capped at 5)")

    cache_cmd = sub.add_parser(
        "cache",
        help="operate on a result cache root",
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command",
                                         required=True)
    c_verify = cache_sub.add_parser(
        "verify",
        help="re-check every entry's digest envelope; corrupt entries "
             "are quarantined and listed (exit 1 when any are found)",
    )
    c_verify.add_argument("--cache-dir", default=".repro-cache",
                          help="cache root to sweep")
    c_verify.add_argument("--no-quarantine", action="store_true",
                          help="report corrupt entries but leave them "
                               "in place")

    report = sub.add_parser(
        "report", parents=[seeded],
        help="re-render campaign tables from a result store",
    )
    report.add_argument("--store", required=True,
                        help="JSONL store written by `repro sweep`")
    report.add_argument("--pivot", "--by", dest="pivot", default="mesh",
                        choices=REPORT_PIVOTS,
                        help="aggregation: mesh/model grids, or "
                             "per-layer / per-link BT tables")
    report.add_argument("--csv", default=None,
                        help="also export the store as CSV")
    report.add_argument("--failures", action="store_true",
                        help="list failed jobs instead of the tables: "
                             "error class, attempts, quarantine flag, "
                             "and per-class totals")

    trace = sub.add_parser(
        "trace", parents=[seeded],
        help="analyse recorded wire-image traces",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    t_stats = trace_sub.add_parser(
        "stats", help="one-screen trace summary"
    )
    t_stats.add_argument("trace", help="trace file (*.trace.gz)")
    t_stats.add_argument("--per-link", action="store_true",
                         help="also print the per-link BT table")

    t_heat = trace_sub.add_parser(
        "heat", help="per-link BT heat bucketed by cycle window"
    )
    t_heat.add_argument("trace", help="trace file (*.trace.gz)")
    t_heat.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        help=f"cycle-window width "
                             f"(default {DEFAULT_WINDOW})")
    t_heat.add_argument("--top", type=int, default=10,
                        help="hottest (link, window) cells to show "
                             "(default 10)")
    t_heat.add_argument("--owners", action="store_true",
                        help="also attribute BTs to owning packets "
                             "(needs a TraceRecorder capture)")

    t_diff = trace_sub.add_parser(
        "diff", help="where two traces' per-window BT heat disagrees "
                     "(exit 1 on divergence)"
    )
    t_diff.add_argument("trace_a", help="baseline trace file")
    t_diff.add_argument("trace_b", help="candidate trace file")
    t_diff.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        help=f"cycle-window width "
                             f"(default {DEFAULT_WINDOW})")
    t_diff.add_argument("--top", type=int, default=10,
                        help="diverging links to list (default 10)")

    t_bisect = trace_sub.add_parser(
        "bisect", help="log2-bisect the first diverging cycle window "
                       "(exit 1 on divergence)"
    )
    t_bisect.add_argument("trace_a", help="baseline trace file")
    t_bisect.add_argument("trace_b", help="candidate trace file")
    t_bisect.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                          help=f"cycle-window width "
                               f"(default {DEFAULT_WINDOW})")
    t_bisect.add_argument("--probe", default="offline",
                          choices=("offline", "replay"),
                          help="prefix probe: offline slice+rescore "
                               "(works on any timed capture) or "
                               "windowed replay through a fresh "
                               "network (needs replayable traces)")
    t_bisect.add_argument("--core", default=None,
                          choices=("event", "stepped"),
                          help="[replay probe] network core to replay "
                               "through")
    return parser


def _parse_mesh(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as exc:
        raise SystemExit(f"bad mesh {text!r}; use WxH like 4x4") from exc


def _seed_or(args: argparse.Namespace, label: str, default: int) -> int:
    """Per-purpose seed: derived from --seed when given, else legacy."""
    if getattr(args, "seed", None) is None:
        return default
    return derive_seed(args.seed, label)


def _write_trace(recorder: TraceRecorder, noc_config, path: str) -> None:
    """Persist a finished capture and print its summary line."""
    trace = recorder.finish(noc_config)
    trace.save(path)
    print(
        f"wrote trace {path} "
        f"({trace.total_flit_traversals()} flit hops, "
        f"{len(trace.packets)} packets)"
    )


def _cmd_run_noc(args: argparse.Namespace) -> int:
    width, height = _parse_mesh(args.mesh)
    model = build_model(
        args.model, rng=np.random.default_rng(_seed_or(args, "model", 1))
    )
    image_seed = _seed_or(args, "image", 5)
    if args.model == "lenet":
        image = synthetic_digits(1, seed=image_seed).images[0]
    else:
        image = synthetic_shapes(1, seed=image_seed).images[0]
    methods = [OrderingMethod.from_name(args.ordering)]
    if args.compare and methods[0] is not OrderingMethod.BASELINE:
        methods.insert(0, OrderingMethod.BASELINE)
    baseline_bt = None
    for method in methods:
        config = AcceleratorConfig(
            width=width,
            height=height,
            n_mcs=args.mcs,
            data_format=args.format,
            ordering=method,
            max_tasks_per_layer=args.tasks,
            seed=_seed_or(args, "tasks", 2025),
        )
        # With --compare the trace captures the *requested* ordering's
        # run (the last method), not the O0 baseline.
        recorder = (
            TraceRecorder() if args.trace and method is methods[-1] else None
        )
        result = run_model_on_noc(
            config, model, image, trace_collector=recorder
        )
        if recorder is not None:
            _write_trace(recorder, config.noc_config(), args.trace)
        line = (
            f"{config.label()}: {result.total_bit_transitions} BTs, "
            f"{result.total_cycles} cycles, verified "
            f"{result.tasks_verified}/{result.tasks_total}"
        )
        if baseline_bt is None:
            baseline_bt = result.total_bit_transitions
        else:
            line += (
                f", reduction "
                f"{reduction_rate(baseline_bt, result.total_bit_transitions):.2f}%"
            )
        print(line)
        if not result.all_verified:
            return 1
    return 0


def _cmd_no_noc(args: argparse.Namespace) -> int:
    weight_seed = _seed_or(args, "weights", 3)
    if args.weights == "random":
        values = random_weights(40_000, seed=weight_seed)
    else:
        values = trained_lenet_weights(seed=weight_seed)
    words, fmt = words_for_format(values, args.format)
    base = build_packets(
        words, args.packets, 8, fmt.width, kernel_size=args.kernel
    )
    ordered = build_packets(
        words, args.packets, 8, fmt.width, kernel_size=args.kernel,
        ordered=True,
    )
    bt_base = measure_stream(base).bt_per_flit
    bt_ord = measure_stream(ordered).bt_per_flit
    print(
        f"{args.format} {args.weights} ({base.flit_bits}-bit flits, "
        f"{args.packets} packets): {bt_base:.2f} -> {bt_ord:.2f} BT/flit "
        f"({reduction_rate(bt_base, bt_ord):.2f}% reduction)"
    )
    return 0


def _cmd_link_power(args: argparse.Namespace) -> int:
    width, height = _parse_mesh(args.mesh)
    for name, pj in (("ours", PAPER_ENERGY_PJ), ("banerjee", BANERJEE_ENERGY_PJ)):
        model = LinkPowerModel.for_mesh(
            width, height, energy_per_transition_pj=pj
        )
        print(
            f"{name} ({pj} pJ/bit, {model.n_links} links): "
            f"{model.power_mw():.3f} mW -> "
            f"{model.reduced_power_mw(args.reduction):.3f} mW "
            f"at {args.reduction}% BT reduction"
        )
    return 0


def _cmd_table2(_: argparse.Namespace) -> int:
    print(format_table2(paper_table2(), model_table2()))
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    width, height = _parse_mesh(args.mesh)
    noc = NoCConfig(width=width, height=height, link_width=128)
    config = SyntheticTrafficConfig(
        pattern=TrafficPattern(args.pattern),
        n_packets=args.packets,
        seed=_seed_or(args, "traffic", 0),
    )
    recorder = TraceRecorder() if args.trace else None
    network = drive_synthetic(config, noc, trace_collector=recorder)
    stats = network.stats
    if recorder is not None:
        _write_trace(recorder, network.config, args.trace)
    print(
        f"{args.pattern} on {args.mesh}: {stats.packets_delivered} packets, "
        f"{stats.cycles} cycles, {stats.total_bit_transitions} BTs, "
        f"mean latency {stats.mean_latency:.1f}"
    )
    return 0


def _split_csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# Sweep grid flags that only make sense for some job kinds.  --cores
# applies everywhere: the network core is a config field of every kind
# (--orderings is shared too: O0/O1/O2 for the accelerator and serving
# kinds, none/popcount_desc for replay).
_KIND_FLAGS = {
    "model": ("model", "formats", "orderings", "tasks", "cores"),
    "batch": ("model", "formats", "orderings", "tasks", "images",
              "cores"),
    "synthetic": ("patterns", "payloads", "packets", "window",
                  "link_width", "cores"),
    "replay": ("traces", "orderings", "codings", "cores"),
    "serving": ("tenants", "rates", "requests", "orderings", "packets",
                "tasks", "link_width", "cores"),
}


def _check_kind_flags(args: argparse.Namespace, kind: str) -> None:
    """Reject explicitly-given flags the chosen kind would ignore."""
    applicable = _KIND_FLAGS[kind]
    for flags in _KIND_FLAGS.values():
        for flag in flags:
            if flag in applicable:
                continue
            if getattr(args, flag) is not None:
                raise SystemExit(
                    f"--{flag.replace('_', '-')} does not apply to "
                    f"--kind {kind}"
                )


def _sweep_spec_from_args(args: argparse.Namespace) -> SweepSpec:
    if args.spec:
        # The spec file is the whole grid: explicitly-given grid flags
        # would be silently ignored, so reject them instead.
        ignored = ["kind"] if args.kind is not None else []
        ignored += [
            flag
            for flags in _KIND_FLAGS.values()
            for flag in flags
            if getattr(args, flag) is not None
        ]
        if args.meshes is not None:
            ignored.append("meshes")
        if ignored:
            raise SystemExit(
                f"--{ignored[0].replace('_', '-')} is ignored with "
                f"--spec; edit the spec file instead"
            )
        import dataclasses
        import json

        try:
            data = json.loads(pathlib.Path(args.spec).read_text())
            spec = SweepSpec.from_dict(data)
        except (OSError, ValueError, TypeError) as exc:
            raise SystemExit(
                f"bad sweep spec file {args.spec!r}: {exc}"
            ) from exc
        if args.seed is not None:
            # --seed overrides the file's campaign seed; the file's
            # explicit model_seed/image_seed fields stay authoritative.
            spec = dataclasses.replace(spec, seed=args.seed)
        return spec
    # As with the other subcommands: omitting --seed keeps the
    # historical defaults, giving it derives every workload seed.
    kind = args.kind or "model"
    _check_kind_flags(args, kind)
    seed = args.seed if args.seed is not None else 0
    meshes = _split_csv(args.meshes) if args.meshes else None
    cores = _split_csv(args.cores) if args.cores else None
    if kind == "replay":
        if not args.traces:
            raise SystemExit(
                "--kind replay needs --traces (comma list of trace "
                "files recorded with --trace or TraceRecorder)"
            )
        if meshes is not None:
            raise SystemExit(
                "--meshes does not apply to --kind replay "
                "(the trace pins the topology)"
            )
        axes = {
            "trace": _split_csv(args.traces),
            "ordering": _split_csv(
                args.orderings or "none,popcount_desc"
            ),
            "core": cores or ["offline"],
        }
        base: dict = {}
        codings = _split_csv(args.codings or "none")
        # Link codings re-apply offline only: a cartesian grid crossing
        # a non-none coding with a network core would abort the whole
        # sweep at expansion — reject the combination up front instead.
        if any(c != "none" for c in codings) and any(
            c != "offline" for c in axes["core"]
        ):
            raise SystemExit(
                "--codings other than 'none' re-apply offline only; "
                "run the network-core sweep (--cores) and the coding "
                "sweep separately"
            )
        if len(codings) == 1:
            base["coding"] = codings[0]
        else:
            axes["coding"] = codings
        return SweepSpec(
            name=args.name, kind="replay", base=base, axes=axes,
            seed=seed,
        )
    if kind == "serving":
        axes = {
            "mesh": meshes or ["4x4:2"],
            "tenants": _split_csv(args.tenants or "lenet+uniform"),
            "ordering": _split_csv(args.orderings or "O0,O1,O2"),
        }
        if cores:
            axes["core"] = cores
        base: dict = {}
        try:
            rates = [float(r) for r in _split_csv(args.rates or "0.01")]
        except ValueError as exc:
            raise SystemExit(f"bad --rates value: {exc}") from exc
        if len(rates) == 1:
            base["background_rate"] = rates[0]
        else:
            axes["background_rate"] = rates
        if args.requests is not None:
            base["n_requests"] = args.requests
        if args.packets is not None:
            base["packets_per_request"] = args.packets
        if args.tasks is not None:
            base["max_tasks_per_layer"] = args.tasks
        if args.link_width is not None:
            base["link_width"] = args.link_width
        return SweepSpec(
            name=args.name, kind="serving", base=base, axes=axes,
            seed=seed,
        )
    if kind == "synthetic":
        axes = {
            "mesh": meshes or ["4x4", "8x8"],
            "pattern": _split_csv(
                args.patterns or "uniform,transpose,complement,hotspot"
            ),
        }
        if cores:
            axes["core"] = cores
        base = {
            "n_packets": args.packets if args.packets is not None else 150,
            "injection_window": args.window if args.window is not None
            else 200,
            "link_width": args.link_width if args.link_width is not None
            else 128,
        }
        payloads = _split_csv(args.payloads or "random")
        if len(payloads) == 1:
            base["payload"] = payloads[0]
        else:
            axes["payload"] = payloads
        return SweepSpec(
            name=args.name, kind="synthetic", base=base, axes=axes,
            seed=seed,
        )
    axes = {
        "mesh": meshes or ["4x4:2", "8x8:4", "8x8:8"],
        "data_format": _split_csv(args.formats or "fixed8"),
        "ordering": _split_csv(args.orderings or "O0,O1,O2"),
    }
    if cores:
        axes["core"] = cores
    return SweepSpec(
        name=args.name,
        kind=kind,
        model=(args.model or "lenet").replace("-", "_"),
        base={
            "max_tasks_per_layer": args.tasks
            if args.tasks is not None else 16,
        },
        axes=axes,
        seed=seed,
        model_seed=_seed_or(args, "model", 1),
        image_seed=_seed_or(args, "image", 5),
        # n_images is a batch-only field; model sweeps keep the
        # JobSpec default so the spec doesn't record a dropped value.
        n_images=(args.images if args.images is not None else 4)
        if kind == "batch" else 1,
    )


def _telemetry_line(sample: dict) -> str:
    """Render one live `repro sweep --progress` sample."""
    eta = sample.get("eta_seconds")
    eta_text = f", eta {eta:.1f}s" if eta is not None else ""
    status = "" if sample.get("status") == "ok" else " ERROR"
    return (
        f"  [{sample['done']}/{sample['total']}] "
        f"{sample.get('job_id', '?')}{status} "
        f"({sample['running']} running, {sample['cached']} cached, "
        f"{sample['failed']} failed{eta_text})"
    )


def _load_fault_plan(path: str) -> FaultPlan:
    import json

    try:
        data = json.loads(pathlib.Path(path).read_text())
        return FaultPlan.from_dict(data)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise SystemExit(f"bad fault plan {path!r}: {exc}") from exc


def _campaign_setup(
    args: argparse.Namespace, spec: SweepSpec
) -> tuple[ResultCache | None, ResultStore, str, str, CampaignJournal]:
    """The cache/store/journal plumbing `sweep` and `serve` share."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    store_path = args.store or f"campaigns/{spec.name}.jsonl"
    store = ResultStore(store_path)
    cid = campaign_id(spec)
    journal = CampaignJournal(
        pathlib.Path(store_path).parent / f"{cid}.journal"
    )
    if args.resume is not None:
        # The id pins the exact grid: resuming under an edited spec
        # would silently skip points, so a mismatch aborts instead.
        if args.resume != cid:
            raise SystemExit(
                f"--resume {args.resume} does not match this sweep's "
                f"campaign id {cid}; re-run the original command (the "
                f"grid, seed, and name must be identical)"
            )
        if not journal.exists():
            raise SystemExit(
                f"nothing to resume: no journal at {journal.path}"
            )
    elif journal.path.exists():
        # A fresh (non-resume) run of the same grid starts a fresh
        # journal; stale progress must not leak in uninvited.
        journal.path.unlink()
    return cache, store, store_path, cid, journal


def _print_campaign_outcome(
    result, args: argparse.Namespace, store: ResultStore, resume_hint: str
) -> int:
    """Shared `sweep`/`serve` result rendering; returns the exit code."""
    print(result.summary())
    if result.failures or result.interrupted:
        report = result.failure_report()
        print(
            f"failures: {report['failed']} job(s) "
            f"({', '.join(f'{n} {cls}' for cls, n in sorted(report['by_class'].items())) or 'none'})"
            + (
                f", {len(report['quarantined'])} quarantined"
                if report["quarantined"] else ""
            )
        )
    print()
    print(campaign_report(result.records))
    if args.metrics:
        print()
        print("campaign metrics:")
        for name in sorted(result.metrics):
            print(f"  {name} = {result.metrics[name]}")
    if args.csv:
        rows = store.to_csv(args.csv)
        print(f"\nwrote {rows} rows to {args.csv}")
    if result.interrupted:
        print(
            f"\ninterrupted: {len(result.ok_records())} of "
            f"{result.n_jobs + len(result.remaining)} job(s) done, "
            f"{len(result.remaining)} remaining — resume with: "
            f"{resume_hint}"
        )
        return 130
    return 1 if result.errors else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _sweep_spec_from_args(args)
    try:
        spec.expand()  # surface grid mistakes before any simulation
    except ValueError as exc:
        raise SystemExit(f"bad sweep grid: {exc}") from exc
    if args.server:
        return _sweep_via_server(args, spec)
    cache, store, store_path, cid, journal = _campaign_setup(args, spec)
    fault_plan = (
        _load_fault_plan(args.fault_plan) if args.fault_plan else None
    )
    runner = CampaignRunner(
        cache=cache,
        store=store,
        workers=args.workers,
        job_timeout=args.job_timeout,
        max_retries=args.max_retries,
        backoff_seed=spec.seed,
        fault_plan=fault_plan,
        journal=journal,
    )
    print(f"campaign {spec.name!r}: {spec.n_points} points -> {store_path}")
    print(f"campaign id: {cid} (journal: {journal.path})")
    telemetry = (
        (lambda sample: print(_telemetry_line(sample), flush=True))
        if args.progress else None
    )
    try:
        result = runner.run(spec, progress=print, telemetry=telemetry)
    except SpecDriftError as exc:
        raise SystemExit(str(exc)) from exc
    except KeyboardInterrupt:
        # Interrupted outside supervised execution (cache consult,
        # journal replay): completed jobs are already journaled.
        print(
            f"\ninterrupted; completed jobs are journaled — resume "
            f"with: repro sweep ... --resume {cid}"
        )
        return 130
    return _print_campaign_outcome(
        result, args, store, f"repro sweep ... --resume {cid}"
    )


def _parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError as exc:
        raise SystemExit(
            f"bad server address {text!r}; use HOST:PORT"
        ) from exc


def _sweep_via_server(args: argparse.Namespace, spec: SweepSpec) -> int:
    """`repro sweep --server`: work a served queue, report its drain."""
    from repro.service import SweepWorker

    if args.resume is not None or args.fault_plan is not None:
        raise SystemExit(
            "--resume/--fault-plan belong to the serve side; pass them "
            "to `repro serve`"
        )
    host, port = _parse_hostport(args.server)
    cid = campaign_id(spec)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    print(f"campaign id: {cid}; working against {host}:{port}")
    worker = SweepWorker(
        host, port, cache=cache, campaign_id=cid, report=True
    )
    summary = worker.run()
    if summary.get("rejected"):
        print(
            f"rejected by server: {summary['rejected']}",
            file=sys.stderr,
        )
        return 2
    if summary.get("server_lost"):
        print(
            f"server lost: {summary.get('error')}\nif it was "
            f"interrupted, its journal checkpoint resumes it: "
            f"repro serve ... --resume {cid}",
            file=sys.stderr,
        )
        return 3
    print(
        f"drained ({summary.get('reason')}): "
        f"{summary.get('jobs_done', 0)} job(s) executed here, "
        f"{summary.get('cache_hits', 0)} shared-cache hits"
    )
    if summary.get("summary"):
        print(summary["summary"])
    records = summary.get("records") or []
    if records:
        print()
        print(campaign_report(records))
    if summary.get("interrupted"):
        print(
            f"\nserver was draining; resume it with: "
            f"repro serve ... --resume {cid}"
        )
        return 130
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import SweepServer

    spec = _sweep_spec_from_args(args)
    try:
        spec.expand()
    except ValueError as exc:
        raise SystemExit(f"bad sweep grid: {exc}") from exc
    cache, store, store_path, cid, journal = _campaign_setup(args, spec)
    fault_plan = (
        _load_fault_plan(args.fault_plan) if args.fault_plan else None
    )
    server = SweepServer(
        spec,
        host=args.host,
        port=args.port,
        cache=cache,
        store=store,
        journal=journal,
        lease_seconds=args.lease,
        heartbeat_seconds=args.heartbeat,
        max_retries=args.max_retries,
        fault_plan=fault_plan,
    )
    try:
        host, port = server.start()
    except SpecDriftError as exc:
        raise SystemExit(str(exc)) from exc
    print(f"campaign {spec.name!r}: {spec.n_points} points -> {store_path}")
    print(f"campaign id: {cid} (journal: {journal.path})")
    print(
        f"serving on {host}:{port} "
        f"(lease {server.lease_seconds:g}s, heartbeat "
        f"{server.heartbeat_seconds:g}s) — attach workers with: "
        f"repro work --connect {host}:{port}",
        flush=True,
    )
    try:
        with sigterm_as_interrupt():
            while True:
                result = server.wait(0.5)
                if result is not None:
                    break
    except KeyboardInterrupt:
        result = server.shutdown()
        print(
            f"\ndraining: journal checkpointed at {journal.path} — "
            f"resume with: repro serve ... --resume {cid}"
        )
        server.linger()
        server.close()
        return 130
    server.linger()
    server.close()
    return _print_campaign_outcome(
        result, args, store, f"repro serve ... --resume {cid}"
    )


def _cmd_work(args: argparse.Namespace) -> int:
    from repro.service import SweepWorker

    host, port = _parse_hostport(args.connect)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    worker = SweepWorker(
        host,
        port,
        name=args.name,
        cache=cache,
        campaign_id=args.expect_campaign,
        reconnect_attempts=args.reconnect_attempts,
        reconnect_backoff=args.reconnect_backoff,
    )
    summary = worker.run()
    if summary.get("rejected"):
        print(
            f"rejected by server: {summary['rejected']}",
            file=sys.stderr,
        )
        return 2
    if summary.get("server_lost"):
        hint = (
            f"; if it was interrupted, resume it with: "
            f"repro serve ... --resume {summary['campaign_id']}"
            if summary.get("campaign_id") else ""
        )
        print(
            f"server lost: {summary.get('error')}{hint}",
            file=sys.stderr,
        )
        return 3
    print(
        f"worker {summary['worker']} drained "
        f"({summary.get('reason')}): {summary['jobs_done']} ok, "
        f"{summary['jobs_failed']} failed, "
        f"{summary['cache_hits']} shared-cache hits, "
        f"{summary['reconnects']} reconnects"
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    report = cache.verify(quarantine=not args.no_quarantine)
    print(
        f"cache {report['root']}: {report['checked']} entr"
        f"{'y' if report['checked'] == 1 else 'ies'} checked, "
        f"{report['ok']} ok, "
        f"{len(report['corrupt'])} corrupt"
    )
    for rel in report["corrupt"]:
        action = "left in place" if args.no_quarantine else "quarantined"
        print(f"  corrupt: {rel} ({action})")
    if report["quarantined"]:
        print(f"quarantined entries ({len(report['quarantined'])}):")
        for name in report["quarantined"]:
            print(f"  {name}")
    return 1 if report["corrupt"] else 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    records = list(store.latest_by_job().values())
    if not records:
        print(f"no records in {args.store}", file=sys.stderr)
        return 1
    if args.failures:
        print(failures_report(records))
        return 0
    # Failed (or malformed) jobs never block reporting the points that
    # did finish — one summary line, not one warning per record.
    skipped = skipped_records(records)
    if skipped:
        first_record, first_reason = skipped[0]
        print(
            f"warning: skipped {len(skipped)} of {len(records)} "
            f"record(s) (first: {first_record.get('job_id', '?')}: "
            f"{first_reason}); reporting the rest",
            file=sys.stderr,
        )
    print(campaign_report(records, args.pivot))
    if args.csv:
        rows = store.to_csv(args.csv)
        print(f"\nwrote {rows} rows to {args.csv}")
    return 0


def _load_trace(path: str) -> TrafficTrace:
    try:
        return TrafficTrace.load(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bad trace file {path!r}: {exc}") from exc


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    stats = trace_stats(_load_trace(args.trace))
    for line in stats.lines():
        print(line)
    if args.per_link:
        print()
        print("per-link BTs:")
        for name in sorted(stats.per_link):
            print(f"  {name}: {stats.per_link[name]}")
    return 0


def _cmd_trace_heat(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    try:
        heat = link_heat(trace, args.window)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    window_totals = heat.window_totals()
    print(
        f"{heat.n_windows} window(s) of {heat.window} cycle(s); "
        f"{sum(window_totals)} BTs total, "
        f"peak window {int(np.argmax(window_totals))} "
        f"({max(window_totals)} BTs)"
    )
    print(f"hottest cells (top {args.top}):")
    for name, w, bts in heat.hottest(args.top):
        print(
            f"  {name} window {w} (cycles "
            f"[{w * heat.window}, {(w + 1) * heat.window})): {bts} BTs"
        )
    if args.owners:
        try:
            owners = bt_by_owner(trace)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
        print(f"BTs by owning packet (top {args.top}):")
        ranked = sorted(owners.items(), key=lambda kv: (-kv[1], kv[0]))
        for pid, bts in ranked[:args.top]:
            label = "unknown owner" if pid < 0 else f"packet {pid}"
            print(f"  {label}: {bts} BTs")
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    a = _load_trace(args.trace_a)
    b = _load_trace(args.trace_b)
    try:
        diff = trace_diff(a, b, args.window)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    for line in diff.lines(args.top):
        print(line)
    return 0 if diff.is_empty else 1


def _cmd_trace_bisect(args: argparse.Namespace) -> int:
    a = _load_trace(args.trace_a)
    b = _load_trace(args.trace_b)
    try:
        result = bisect_divergence(
            a, b, window=args.window, probe=args.probe, core=args.core
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    for line in result.lines():
        print(line)
    return 1 if result.diverged else 0


_TRACE_COMMANDS = {
    "stats": _cmd_trace_stats,
    "heat": _cmd_trace_heat,
    "diff": _cmd_trace_diff,
    "bisect": _cmd_trace_bisect,
}


def _cmd_trace(args: argparse.Namespace) -> int:
    return _TRACE_COMMANDS[args.trace_command](args)


_COMMANDS = {
    "run-noc": _cmd_run_noc,
    "no-noc": _cmd_no_noc,
    "link-power": _cmd_link_power,
    "table2": _cmd_table2,
    "traffic": _cmd_traffic,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "work": _cmd_work,
    "cache": _cmd_cache,
    "report": _cmd_report,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
