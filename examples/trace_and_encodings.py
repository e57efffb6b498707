"""Capture a packet traffic trace, re-analyse it offline, replay it.

Demonstrates the NocDAS-style trace output (Fig. 7): a fixed-8 LeNet
run is captured link by link from its network's hop log,
persisted to the compressed v2 trace format, reloaded, validated
against the run's own BT table, re-scored under the related-work link
codings (bus-invert, delta) without re-running the simulator, and
finally *replayed* through both network cores — the recorded traffic
re-injected cycle-for-cycle, reproducing the per-link BT ledger
bit-exactly.  Ends with a per-router BT heat map of the run.

Usage::

    python examples/trace_and_encodings.py [--out run.trace.gz]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro.accelerator import AcceleratorConfig, AcceleratorSimulator
from repro.analysis import bar_chart
from repro.dnn import LeNet5, synthetic_digits
from repro.ordering import OrderingMethod
from repro.noc import score_hops
from repro.workloads import (
    TrafficTrace,
    reencode_transitions,
    replay_through_network,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="where to store the trace JSON")
    args = parser.parse_args()
    out = Path(args.out) if args.out else (
        Path(tempfile.gettempdir()) / "repro_run.trace.gz"
    )

    model = LeNet5(rng=np.random.default_rng(1))
    image = synthetic_digits(1, seed=5).images[0]
    config = AcceleratorConfig(
        data_format="fixed8",
        ordering=OrderingMethod.SEPARATED,
        max_tasks_per_layer=16,
    )
    sim = AcceleratorSimulator(config, model, image)
    result, network = sim.simulate()
    trace = TrafficTrace.from_network(network)

    print(f"Captured {trace.total_flit_traversals()} flit traversals over "
          f"{len(trace.links)} links.")
    assert trace.total_transitions() == result.total_bit_transitions
    print("Offline BT recount matches the run's Fig. 8 sum: "
          f"{trace.total_transitions()} transitions.")

    trace.save(out)
    reloaded = TrafficTrace.load(out)
    print(f"Trace persisted to {out} "
          f"({out.stat().st_size / 1024:.1f} KiB) and reloaded intact: "
          f"{reloaded == trace}")

    print()
    for core in ("event", "stepped"):
        replayed = replay_through_network(reloaded, core=core)
        exact = (
            score_hops(replayed.hops).per_link
            == trace.per_link_transitions()
        )
        print(f"Replayed {len(reloaded.packets)} recorded packets through "
              f"the {core} core: per-link BT ledger reproduced "
              f"bit-exactly: {exact}")
    reordered = replay_through_network(reloaded, ordering="popcount_desc")
    print("Same traffic with descending-popcount ordering re-applied at "
          f"injection: {reordered.stats.total_bit_transitions} BTs "
          f"(recorded: {trace.total_transitions()}).")

    scores = {
        "ordered (O2) plain": trace.total_transitions(),
        "O2 + bus-invert": reencode_transitions(trace, "bus_invert"),
        "O2 + delta": reencode_transitions(trace, "delta"),
    }
    print()
    print(bar_chart(scores, "BT totals under additional link codings:"))

    busiest = sorted(
        trace.per_link_transitions().items(), key=lambda kv: -kv[1]
    )[:8]
    print()
    print(bar_chart(dict(busiest), "Busiest links by BT:"))


if __name__ == "__main__":
    main()
