"""Neuron-task extraction from DNN models.

A *task* is the unit of work the NOC-DNA ships to a PE: the inputs and
weights of one output neuron plus its bias (Fig. 2 — "contents of one
task": k*k inputs, k*k weights, 1 bias).  For a convolution layer that
is one output-channel x spatial-position patch (C*k*k pairs); for a
linear layer it is one output neuron's full row.

Extraction runs a reference forward pass layer by layer, capturing the
activation entering every weighted layer, then enumerates (optionally
subsamples) the layer's output neurons.  The DNN's layer-by-layer
dataflow and order-insensitive MAC structure is exactly what the
ordering methods exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dnn.layers import Conv2d, Linear, im2col
from repro.dnn.models import ModelSpec

__all__ = [
    "NeuronTask",
    "TaskChunk",
    "LayerTasks",
    "chunk_bounds",
    "extract_tasks",
    "split_task",
]


@dataclass(frozen=True)
class NeuronTask:
    """One neuron computation to be shipped over the NoC.

    Attributes:
        task_id: global id within the extraction.
        layer_index: index of the weighted layer in the model walk.
        layer_name: e.g. "conv1".
        neuron_index: flat output index within the layer (channel-major
            for conv layers).
        group: weight-sharing group — the output channel for conv
            layers (all spatial positions of a channel share the same
            filter and bias), the neuron index for linear layers.
        inputs: real-valued input patch, length N.
        weights: real-valued weights, length N.
        bias: the neuron's bias.
        expected: reference output (dot(inputs, weights) + bias).
    """

    task_id: int
    layer_index: int
    layer_name: str
    neuron_index: int
    group: int
    inputs: np.ndarray
    weights: np.ndarray
    bias: float
    expected: float

    @property
    def n_pairs(self) -> int:
        return int(self.inputs.shape[0])


@dataclass(frozen=True)
class TaskChunk:
    """A k*k-sized slice of a neuron task — the packet unit of Fig. 2.

    The paper's task contents are "k*k inputs + k*k weights + 1 bias";
    neurons whose fan-in exceeds one kernel plane (multi-channel convs,
    linear layers) are decomposed into chunks of at most ``k*k`` pairs,
    each shipped as its own packet.  The PE accumulates the partial
    MACs and the bias arrives with the final chunk.

    Attributes:
        task_id: parent neuron task.
        chunk_index: position within the parent (0-based).
        n_chunks: total chunks of the parent.
        layer_index: weighted-layer index (formats are per layer).
        group: the parent's weight-sharing group; together with
            (layer_index, chunk_index) it identifies the weight block
            this chunk carries — the weight-stationary cache key.
        inputs / weights: this chunk's pair values.
        bias: parent bias on the final chunk, else 0.0.
    """

    task_id: int
    chunk_index: int
    n_chunks: int
    layer_index: int
    group: int
    inputs: np.ndarray
    weights: np.ndarray
    bias: float

    @property
    def n_pairs(self) -> int:
        return int(self.inputs.shape[0])

    @property
    def is_final(self) -> bool:
        return self.chunk_index == self.n_chunks - 1


def chunk_bounds(
    n_pairs: int, chunk_pairs: int | None
) -> list[tuple[int, int]]:
    """``(lo, hi)`` pair ranges of a task's chunks, in chunk order.

    Args:
        n_pairs: the task's pair count.
        chunk_pairs: maximum pairs per chunk (paper: k*k = 25); None
            keeps the whole task in one chunk.
    """
    if chunk_pairs is None or chunk_pairs >= n_pairs:
        return [(0, n_pairs)]
    if chunk_pairs <= 0:
        raise ValueError("chunk_pairs must be positive")
    return [
        (lo, min(lo + chunk_pairs, n_pairs))
        for lo in range(0, n_pairs, chunk_pairs)
    ]


def split_task(task: NeuronTask, chunk_pairs: int | None) -> list[TaskChunk]:
    """Decompose a neuron task into packet-sized chunks.

    Args:
        task: the neuron task.
        chunk_pairs: maximum pairs per chunk (paper: k*k = 25); None
            keeps the whole task in one chunk.
    """
    bounds = chunk_bounds(task.n_pairs, chunk_pairs)
    n_chunks = len(bounds)
    return [
        TaskChunk(
            task_id=task.task_id,
            chunk_index=c,
            n_chunks=n_chunks,
            layer_index=task.layer_index,
            group=task.group,
            inputs=task.inputs[lo:hi],
            weights=task.weights[lo:hi],
            bias=task.bias if c == n_chunks - 1 else 0.0,
        )
        for c, (lo, hi) in enumerate(bounds)
    ]


@dataclass(frozen=True)
class LayerTasks:
    """All sampled tasks of one weighted layer.

    Attributes:
        layer_index: position among weighted layers.
        layer_name: parameter prefix of the layer.
        tasks: the sampled neuron tasks.
        total_neurons: neurons the full layer would generate (before
            sampling) — used to report the scaling factor.
    """

    layer_index: int
    layer_name: str
    tasks: list[NeuronTask]
    total_neurons: int


def _conv_layer_tasks(
    layer: Conv2d,
    x: np.ndarray,
    layer_index: int,
    start_id: int,
    sample: np.ndarray | None,
) -> LayerTasks:
    """Tasks of a Conv2d layer given its input activation ``x`` (C,H,W)."""
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    cols = im2col(x[None], k, k, s, p)[0]  # (C*k*k, positions)
    n_positions = cols.shape[1]
    n_out = layer.out_channels * n_positions
    w2d = layer.weight.value.reshape(layer.out_channels, -1)
    indices = np.arange(n_out) if sample is None else sample
    name = layer.weight.name.rsplit(".", 1)[0]
    tasks = []
    for offset, neuron in enumerate(indices):
        channel, position = divmod(int(neuron), n_positions)
        inputs = cols[:, position].copy()
        weights = w2d[channel].copy()
        bias = float(layer.bias.value[channel])
        tasks.append(
            NeuronTask(
                task_id=start_id + offset,
                layer_index=layer_index,
                layer_name=name,
                neuron_index=int(neuron),
                group=channel,
                inputs=inputs,
                weights=weights,
                bias=bias,
                expected=float(inputs @ weights + bias),
            )
        )
    return LayerTasks(
        layer_index=layer_index,
        layer_name=name,
        tasks=tasks,
        total_neurons=n_out,
    )


def _linear_layer_tasks(
    layer: Linear,
    x: np.ndarray,
    layer_index: int,
    start_id: int,
    sample: np.ndarray | None,
) -> LayerTasks:
    """Tasks of a Linear layer given its input vector ``x`` (features,)."""
    n_out = layer.out_features
    indices = np.arange(n_out) if sample is None else sample
    name = layer.weight.name.rsplit(".", 1)[0]
    tasks = []
    for offset, neuron in enumerate(indices):
        weights = layer.weight.value[int(neuron)].copy()
        bias = float(layer.bias.value[int(neuron)])
        tasks.append(
            NeuronTask(
                task_id=start_id + offset,
                layer_index=layer_index,
                layer_name=name,
                neuron_index=int(neuron),
                group=int(neuron),
                inputs=x.copy(),
                weights=weights,
                bias=bias,
                expected=float(x @ weights + bias),
            )
        )
    return LayerTasks(
        layer_index=layer_index,
        layer_name=name,
        tasks=tasks,
        total_neurons=n_out,
    )


def extract_tasks(
    model: ModelSpec,
    sample_image: np.ndarray,
    max_tasks_per_layer: int | None = None,
    seed: int = 2025,
) -> list[LayerTasks]:
    """Run a reference forward pass and extract per-layer neuron tasks.

    Args:
        model: the DNN to run (eval mode is forced).
        sample_image: one input of shape ``model.input_shape``.
        max_tasks_per_layer: subsample cap per layer (None = all).
            Sampling is uniform without replacement, seeded — the
            workload-scaling substitution documented in DESIGN.md §5.
        seed: sampling seed.

    Returns:
        One :class:`LayerTasks` per weighted layer, in forward order.
    """
    if sample_image.shape != model.input_shape:
        raise ValueError(
            f"sample shape {sample_image.shape} != model input "
            f"{model.input_shape}"
        )
    rng = np.random.default_rng(seed)
    model.eval()
    x = sample_image[None].astype(np.float64)
    layer_tasks: list[LayerTasks] = []
    weighted_index = 0
    next_id = 0
    for layer in model.layers:
        if isinstance(layer, (Conv2d, Linear)):
            if isinstance(layer, Conv2d):
                n_out = _conv_output_count(layer, x.shape)
            else:
                n_out = layer.out_features
            sample = None
            if max_tasks_per_layer is not None and n_out > max_tasks_per_layer:
                sample = np.sort(
                    rng.choice(n_out, size=max_tasks_per_layer, replace=False)
                )
            if isinstance(layer, Conv2d):
                lt = _conv_layer_tasks(
                    layer, x[0], weighted_index, next_id, sample
                )
            else:
                lt = _linear_layer_tasks(
                    layer, x[0], weighted_index, next_id, sample
                )
            layer_tasks.append(lt)
            next_id += len(lt.tasks)
            weighted_index += 1
        x = layer.forward(x)
    model.train()
    return layer_tasks


def _conv_output_count(layer: Conv2d, x_shape: tuple[int, ...]) -> int:
    """Output neurons of a conv layer for the given input shape."""
    _, _, h, w = x_shape
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    out_h = (h + 2 * p - k) // s + 1
    out_w = (w + 2 * p - k) // s + 1
    return layer.out_channels * out_h * out_w
