"""Future work (Sec. VI): comparing ordering with bus-encoding methods.

The paper closes with "combining and comparing this work with other BT
reduction works can be explored in the future".  This bench stages that
comparison on identical traffic: a fixed-8 LeNet run is captured as a
per-link wire-image trace, then re-scored under

* O0 / O2 ordering (the paper's methods),
* bus-invert coding (Stan & Burleson) on top of each,
* delta (XOR-difference) coding on top of each.

Link codings transform the wire bits and need decoders; ordering keeps
values intact — the bench quantifies how much each buys and whether
they compose.
"""

from __future__ import annotations

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.simulator import AcceleratorSimulator
from repro.analysis.summary import reduction_rate
from repro.ordering.strategies import OrderingMethod
from repro.workloads.traces import TrafficTrace, reencode_transitions

MAX_TASKS = 24


def capture_trace(model, image, method: OrderingMethod):
    config = AcceleratorConfig(
        data_format="fixed8",
        ordering=method,
        max_tasks_per_layer=MAX_TASKS,
    )
    sim = AcceleratorSimulator(config, model, image)
    result, network = sim.simulate()
    assert result.all_verified
    return TrafficTrace.from_network(network), result


def test_future_encodings(benchmark, record_result, trained_lenet, lenet_image):
    def run():
        scores: dict[str, int] = {}
        for method in (OrderingMethod.BASELINE, OrderingMethod.SEPARATED):
            trace, result = capture_trace(trained_lenet, lenet_image, method)
            tag = method.value
            scores[f"{tag} plain"] = result.total_bit_transitions
            for coding in ("bus_invert", "delta"):
                scores[f"{tag} + {coding}"] = reencode_transitions(
                    trace, coding
                )
        return scores

    scores = benchmark.pedantic(run, rounds=1)
    base = scores["O0 plain"]

    # Ordering alone beats the baseline.
    assert scores["O2 plain"] < base
    # Bus-invert helps the baseline but less than ordering does here
    # (it bounds worst-case transitions; it cannot exploit value
    # reorderability).
    assert scores["O0 + bus_invert"] < base
    assert scores["O2 plain"] < scores["O0 + bus_invert"]
    # The techniques compose: coding on ordered traffic still helps.
    assert scores["O2 + bus_invert"] <= scores["O2 plain"]

    lines = [
        "Future-work comparison: ordering vs link codings "
        "(fixed-8 trained LeNet, identical traffic, total BTs):"
    ]
    for name, value in scores.items():
        lines.append(
            f"  {name:<18} {value:>10d}  "
            f"({reduction_rate(base, value):6.2f}% vs O0 plain)"
        )
    lines.append(
        "(bus-invert/delta require per-link encoders+decoders; ordering "
        "keeps values intact and composes with both)"
    )
    record_result("future_encodings", "\n".join(lines))
