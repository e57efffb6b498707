"""Golden regression suite: the checked-in paper figures must not drift.

Parses the recorded tables under ``benchmarks/results/`` for Fig. 9-13
and re-runs the exact pipelines the benches use, asserting the current
simulator + report stack reproduces the committed numbers: BT counts
and popcount grids tolerance-free, rates and probabilities within half
of the last printed digit.  A failure means a refactor changed the
reproduced paper results — regenerate the goldens deliberately (run
the benches and commit the diff), never accidentally.

The golden files are read at *import* (collection) time.  That matters
when the whole suite runs in one session: the benches rewrite
``benchmarks/results/`` as they execute, so reading lazily at test
time would compare fresh output against freshly overwritten files and
hide any drift.
"""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.simulator import run_model_on_noc
from repro.noc.recorder import score_hops
from repro.analysis.distribution import analyze_stream
from repro.bits.popcount import popcount_array
from repro.experiments import (
    CampaignRunner,
    ResultCache,
    SweepSpec,
    pivot,
    reduction_series,
)
from repro.ordering.strategies import OrderingMethod
from repro.workloads.packets import build_packets, ones_count_grid
from repro.workloads.streams import (
    random_weights,
    trained_lenet_weights,
    words_for_format,
)

RESULTS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"

# Read every golden at import time — before any bench in the same
# pytest session overwrites it (collection precedes execution).
GOLDEN = {
    name: (RESULTS_DIR / f"{name}.txt").read_text()
    for name in (
        "fig09_ordering_view",
        "fig10_float32_bits",
        "fig11_fixed8_bits",
        "fig12_noc_sizes_fixed8",
        "fig12_noc_sizes_float32",
        "fig13_dnn_models_fixed8",
        "fig13_dnn_models_float32",
    )
}

# Half of the last printed digit: tables render rates/probabilities
# with two decimals, so a faithful rerun parses back within 5e-3.
EPS = 5e-3


def parse_series_tables(text: str) -> dict[str, dict[str, dict[str, float]]]:
    """Parse every ``format_series`` block: {title: {row: {col: value}}}."""
    lines = text.splitlines()
    tables: dict[str, dict[str, dict[str, float]]] = {}
    i = 0
    while i < len(lines):
        if lines[i].startswith("Config") and i > 0:
            title = lines[i - 1].strip()
            columns = lines[i].split()[1:]
            series: dict[str, dict[str, float]] = {}
            j = i + 2  # skip the dashed rule
            while j < len(lines) and lines[j].strip() and not (
                lines[j].startswith("Config")
            ):
                row_label = lines[j][:24].strip()
                values = [float(v) for v in lines[j][24:].split()]
                series[row_label] = dict(zip(columns, values))
                j += 1
            tables[title] = series
            i = j
        else:
            i += 1
    return tables


def parse_count_grids(text: str) -> dict[str, np.ndarray]:
    """Parse the Fig. 9 flit/lane popcount grids: {title: (F, L) ints}."""
    grids: dict[str, np.ndarray] = {}
    title = None
    rows: list[list[int]] = []
    for line in text.splitlines():
        match = re.match(r"flit\s+\d+ \| (.*)", line)
        if match:
            rows.append([int(v) for v in match.group(1).split()])
        elif line.strip() and not line.startswith("mean "):
            if title and rows:
                grids[title] = np.array(rows)
            title, rows = line.strip(), []
    if title and rows:
        grids[title] = np.array(rows)
    return grids


def parse_bit_stats(text: str) -> dict[str, dict[str, list[float]]]:
    """Parse Fig. 10/11 per-position stats: {stream: {line: values}}."""
    stats: dict[str, dict[str, list[float]]] = {}
    current = None
    for line in text.splitlines():
        match = re.match(r"\s+P\((bit=1|flip)\)\s*: (.*)", line)
        if match and current is not None:
            key = "one" if match.group(1) == "bit=1" else "flip"
            stats[current][key] = [float(v) for v in match.group(2).split()]
        elif re.match(r"(random|trained) (baseline|ordered)$", line.strip()):
            current = line.strip()
            stats[current] = {}
    return stats


class TestFig09Golden:
    def test_ordering_view_counts_exact(self):
        golden = parse_count_grids(GOLDEN["fig09_ordering_view"])
        words, fmt = words_for_format(trained_lenet_weights(), "fixed8")
        base = build_packets(words, 2000, 8, fmt.width, kernel_size=25)
        ordered = build_packets(
            words, 2000, 8, fmt.width, kernel_size=25, ordered=True
        )
        n_show = golden["Fig. 9 (left): before ordering"].shape[0]
        np.testing.assert_array_equal(
            ones_count_grid(base)[:n_show],
            golden["Fig. 9 (left): before ordering"],
        )
        np.testing.assert_array_equal(
            ones_count_grid(ordered)[:n_show],
            golden["Fig. 9 (right): after ordering"],
        )

    def test_spread_line(self):
        match = re.search(
            r"spread: ([\d.]+) -> ([\d.]+)", GOLDEN["fig09_ordering_view"]
        )
        words, fmt = words_for_format(trained_lenet_weights(), "fixed8")
        base = build_packets(words, 2000, 8, fmt.width, kernel_size=25)
        spread = float(np.ptp(ones_count_grid(base)[:26], axis=1).mean())
        assert spread == pytest.approx(float(match.group(1)), abs=EPS)
        assert float(match.group(2)) == 0.0


@pytest.mark.parametrize(
    "name, width",
    [("fig10_float32_bits", 32), ("fig11_fixed8_bits", 8)],
)
def test_bit_position_stats_golden(name, width):
    golden = parse_bit_stats(GOLDEN[name])
    fmt = "float32" if width == 32 else "fixed8"
    pools = {
        "random": random_weights(30_000, seed=3),
        "trained": trained_lenet_weights(),
    }
    for pool_name, values in pools.items():
        words, _ = words_for_format(values, fmt)
        words = np.asarray(words)
        counts = popcount_array(words)
        ordered = words[np.argsort(-counts.astype(np.int64), kind="stable")]
        for variant, stream in (("baseline", words), ("ordered", ordered)):
            stats = analyze_stream(stream, width)
            expected = golden[f"{pool_name} {variant}"]
            assert len(expected["one"]) == width, name
            np.testing.assert_allclose(
                stats.one_probability, expected["one"], atol=EPS
            )
            np.testing.assert_allclose(
                stats.transition_probability, expected["flip"], atol=EPS
            )


@pytest.mark.parametrize("data_format", ["fixed8", "float32"])
def test_fig12_noc_sizes_golden(data_format, tmp_path):
    """The full mesh x ordering campaign reproduces Fig. 12 exactly."""
    tables = parse_series_tables(GOLDEN[f"fig12_noc_sizes_{data_format}"])
    (absolute_title,) = [t for t in tables if t.startswith("Fig. 12")]
    golden_abs = tables[absolute_title]
    golden_red = tables["Reduction rates vs O0 (%)"]

    spec = SweepSpec(
        name=f"golden_fig12_{data_format}",
        model="trained_lenet",
        model_seed=3,
        image_seed=5,
        base={
            "data_format": data_format,
            "max_tasks_per_layer": 32,
            "seed": 2025,
        },
        axes={"mesh": ["4x4:2", "8x8:4", "8x8:8"],
              "ordering": ["O0", "O1", "O2"]},
    )
    runner = CampaignRunner(cache=ResultCache(tmp_path / "cache"), workers=1)
    campaign = runner.run(spec)
    assert not campaign.errors, campaign.summary()

    series = pivot(campaign.records)
    assert set(series) == set(golden_abs)
    for row, golden_values in golden_abs.items():
        for col, golden_bt in golden_values.items():
            # BT counts are integers: tolerance-free comparison.
            assert series[row][col] == golden_bt, (
                f"{data_format} {row} {col}: "
                f"{series[row][col]} != golden {golden_bt}"
            )
    reductions = reduction_series(series)
    for row, golden_values in golden_red.items():
        for col, golden_rate in golden_values.items():
            assert reductions[row][col] == pytest.approx(
                golden_rate, abs=EPS
            ), f"{data_format} {row} {col}"


# -- golden trace fixture ---------------------------------------------
#
# A checked-in full-fidelity trace (3x3 MC1 fixed8 LeNet, O0, 2 tasks
# per layer) recorded with `repro run-noc ... --trace`.  The
# replayed per-link BT table below is pinned Fig. 9-style: every link,
# tolerance-free.  A failure means the trace format decoding or the
# replay path changed the reproduced wire traffic — regenerate the
# fixture deliberately, never accidentally.

GOLDEN_TRACE = (
    pathlib.Path(__file__).parent
    / "data"
    / "golden_lenet_fixed8_O0.trace.gz"
)

GOLDEN_TRACE_PER_LINK = {
    "R0.LOCAL": 781, "R0.SOUTH": 56, "R1.LOCAL": 776, "R1.WEST": 25,
    "R2.LOCAL": 970, "R2.WEST": 0, "R3.LOCAL": 1194, "R3.NORTH": 781,
    "R3.SOUTH": 104, "R4.LOCAL": 2770, "R4.NORTH": 776, "R4.WEST": 14,
    "R5.LOCAL": 2813, "R5.NORTH": 970, "R5.WEST": 0, "R6.EAST": 9344,
    "R6.LOCAL": 126, "R6.NORTH": 2031, "R7.EAST": 4761,
    "R7.LOCAL": 909, "R7.NORTH": 3580, "R7.WEST": 13, "R8.LOCAL": 890,
    "R8.NORTH": 3826, "R8.WEST": 0,
}
GOLDEN_TRACE_TOTAL_BT = 37510
GOLDEN_TRACE_FLIT_HOPS = 870
GOLDEN_TRACE_PACKETS = 74
GOLDEN_TRACE_REORDERED_BT = 37580


class TestGoldenTraceReplay:
    @pytest.fixture(scope="class")
    def trace(self):
        from repro.workloads.traces import TrafficTrace

        return TrafficTrace.load(GOLDEN_TRACE)

    def test_recorded_per_link_table_exact(self, trace):
        assert trace.per_link_transitions() == GOLDEN_TRACE_PER_LINK
        assert trace.total_transitions() == GOLDEN_TRACE_TOTAL_BT
        assert trace.total_flit_traversals() == GOLDEN_TRACE_FLIT_HOPS
        assert len(trace.packets) == GOLDEN_TRACE_PACKETS

    @pytest.mark.parametrize("core", ["event", "stepped"])
    def test_replay_reproduces_pinned_table(self, trace, core):
        from repro.workloads.traces import replay_through_network

        replayed = replay_through_network(trace, core=core)
        assert score_hops(replayed.hops).per_link == GOLDEN_TRACE_PER_LINK
        assert (
            replayed.stats.total_bit_transitions == GOLDEN_TRACE_TOTAL_BT
        )

    def test_run_noc_rerecords_fixture(self, trace, tmp_path, capsys):
        """The capture path reproduces the fixture field for field."""
        from repro.cli import main
        from repro.workloads.traces import TrafficTrace

        path = tmp_path / "rerecorded.trace.gz"
        assert main([
            "run-noc", "--mesh", "3x3", "--mcs", "1", "--format",
            "fixed8", "--ordering", "O0", "--tasks", "2",
            "--trace", str(path),
        ]) == 0
        fresh = TrafficTrace.load(path)
        for name in ("links", "cycles", "vcs", "packet_ids", "packets",
                     "noc"):
            assert getattr(fresh, name) == getattr(trace, name), name
        assert fresh.per_link_transitions() == GOLDEN_TRACE_PER_LINK

    def test_reordered_replay_pinned(self, trace):
        from repro.workloads.traces import replay_through_network

        assert (
            trace.reordered("popcount_desc").total_transitions()
            == GOLDEN_TRACE_REORDERED_BT
        )
        replayed = replay_through_network(trace, ordering="popcount_desc")
        assert (
            replayed.stats.total_bit_transitions
            == GOLDEN_TRACE_REORDERED_BT
        )

    def test_replay_campaign_pins_table(self, tmp_path):
        """The pinned table survives the full `sweep --kind replay` path."""
        from repro.experiments import (
            CampaignRunner,
            ResultCache,
            SweepSpec,
        )

        spec = SweepSpec(
            name="golden_replay",
            kind="replay",
            base={"trace": str(GOLDEN_TRACE)},
            axes={"ordering": ["none", "popcount_desc"],
                  "core": ["offline", "both"]},
        )
        runner = CampaignRunner(
            cache=ResultCache(tmp_path / "cache"), workers=1
        )
        campaign = runner.run(spec)
        assert not campaign.errors, campaign.summary()
        for record in campaign.records:
            result = record["result"]
            expected = (
                GOLDEN_TRACE_TOTAL_BT
                if record["config"]["ordering"] == "none"
                else GOLDEN_TRACE_REORDERED_BT
            )
            assert result["total_bit_transitions"] == expected, (
                record["config"]
            )
            if record["config"]["ordering"] == "none":
                assert result["per_link"] == GOLDEN_TRACE_PER_LINK


@pytest.mark.parametrize("data_format", ["fixed8", "float32"])
def test_fig13_dnn_models_golden(
    data_format,
    golden_trained_lenet,
    golden_lenet_image,
    golden_darknet_model,
    golden_darknet_image,
):
    """Both models' normalised-BT rows reproduce Fig. 13."""
    tables = parse_series_tables(GOLDEN[f"fig13_dnn_models_{data_format}"])
    ((_, golden_norm),) = tables.items()

    workloads = {
        "LeNet": (golden_trained_lenet, golden_lenet_image),
        "DarkNet": (golden_darknet_model, golden_darknet_image),
    }
    assert set(golden_norm) == set(workloads)
    for name, (model, image) in workloads.items():
        raw = {}
        for method in OrderingMethod:
            config = AcceleratorConfig(
                data_format=data_format,
                ordering=method,
                max_tasks_per_layer=24,
            )
            result = run_model_on_noc(config, model, image)
            assert result.all_verified, f"{name} {method.value}"
            raw[method.value] = float(result.total_bit_transitions)
        for col, golden_value in golden_norm[name].items():
            assert raw[col] / raw["O0"] == pytest.approx(
                golden_value, abs=EPS
            ), f"{data_format} {name} {col}"


class TestServingConformance:
    """A lone tenant owning the whole mesh IS the paper's model job.

    The serving layer must be a pure re-scheduling of the same
    injection events: one lenet tenant, zero background, same seeds ->
    the fleet reproduces the model job's BT totals and per-link table
    bit-exactly.  This pins the template capture + replay path against
    the direct simulator path.
    """

    def test_single_tenant_matches_model_job_bit_exact(self):
        from repro.dnn.models import build_model
        from repro.dnn.datasets import synthetic_digits
        from repro.serving import ServingConfig, TenantSpec, run_serving

        serving = run_serving(
            ServingConfig(
                tenants=(
                    TenantSpec(
                        name="lenet", workload="model", model="lenet"
                    ),
                ),
                n_requests=1,
            )
        )

        acc = AcceleratorConfig(
            data_format="fixed8",
            ordering=OrderingMethod.BASELINE,
            max_tasks_per_layer=4,
            seed=2025,  # ServingConfig.task_seed default
        )
        model = build_model("lenet", rng=np.random.default_rng(1))
        image = synthetic_digits(1, seed=5).images[0]
        direct = run_model_on_noc(acc, model, image)

        assert (
            serving.total_bit_transitions == direct.total_bit_transitions
        )
        assert serving.per_link == direct.per_link
        assert serving.flit_hops == direct.flit_hops
        (tenant,) = serving.tenants
        assert tenant.bit_transitions == serving.total_bit_transitions
        # Pin the absolute number so template replay can't drift in
        # lockstep with the simulator: regenerating this golden is a
        # deliberate act, like the figure tables above.
        assert serving.total_bit_transitions == 58369
