"""NOC-DNA integration: tasks, flitisation, ordering unit, full runs."""

from repro.accelerator.config import (
    VALUES_PER_FLIT,
    AcceleratorConfig,
    link_width_for,
)
from repro.accelerator.flitize import DecodedTask, EncodedTask, TaskCodec
from repro.accelerator.mapping import Placement, make_placement
from repro.accelerator.orderer import OrderingLatencyModel, OrderingUnit
from repro.accelerator.simulator import (
    AcceleratorSimulator,
    LayerSummary,
    RunResult,
    aggregate_results,
    run_batch_on_noc,
    run_codings,
    run_model_on_noc,
)
from repro.accelerator.tasks import LayerTasks, NeuronTask, extract_tasks

__all__ = [
    "VALUES_PER_FLIT",
    "AcceleratorConfig",
    "link_width_for",
    "DecodedTask",
    "EncodedTask",
    "TaskCodec",
    "Placement",
    "make_placement",
    "OrderingLatencyModel",
    "OrderingUnit",
    "AcceleratorSimulator",
    "LayerSummary",
    "RunResult",
    "aggregate_results",
    "run_batch_on_noc",
    "run_codings",
    "run_model_on_noc",
    "LayerTasks",
    "NeuronTask",
    "extract_tasks",
]
