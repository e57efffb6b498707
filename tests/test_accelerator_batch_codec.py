"""Batch-vs-scalar task codec conformance (the two-codec contract).

Mirrors the two-core pattern of ``tests/test_noc_eventcore.py``: the
scalar codec is the retained reference oracle, the batch codec is the
default data plane, and equivalence is pinned bit-identically —
payload ints, permutation metadata, decoded words, and whole-simulator
run results.  The property section mirrors the
``tests/test_workloads_traces.py`` style: random widths, pair counts,
methods, fills and geometries must round-trip and match the oracle.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.config import TASK_CODECS, AcceleratorConfig
from repro.accelerator.flitize import EncodedInputs, TaskCodec
from repro.accelerator.simulator import AcceleratorSimulator, run_model_on_noc
from repro.ordering.strategies import FillOrder, OrderingMethod


def _random_batch(rng, width, n_tasks, n_pairs):
    lim = 1 << min(width, 63)
    inputs = rng.integers(0, lim, size=(n_tasks, n_pairs), dtype=np.uint64)
    weights = rng.integers(0, lim, size=(n_tasks, n_pairs), dtype=np.uint64)
    biases = rng.integers(0, lim, size=n_tasks, dtype=np.uint64).tolist()
    return inputs, weights, biases


def _scalar_reference(codec, inputs, weights, biases, method, fill):
    return [
        codec.encode(
            [int(w) for w in inputs[t]],
            [int(w) for w in weights[t]],
            int(biases[t]),
            method,
            fill,
        )
        for t in range(len(biases))
    ]


class TestEncodeBatchEquivalence:
    @pytest.mark.parametrize("width", [8, 32])
    @pytest.mark.parametrize("method", list(OrderingMethod))
    @pytest.mark.parametrize("fill", list(FillOrder))
    def test_paper_geometries(self, width, method, fill):
        codec = TaskCodec(values_per_flit=16, word_width=width)
        rng = np.random.default_rng(width)
        for n_pairs in (1, 7, 25, 150):
            inputs, weights, biases = _random_batch(rng, width, 6, n_pairs)
            batch = codec.encode_batch(inputs, weights, biases, method, fill)
            assert batch == _scalar_reference(
                codec, inputs, weights, biases, method, fill
            )

    def test_ragged_tail_chunk_shape(self):
        # A 20-pair tail chunk of a 120-pair task (chunk_pairs=25):
        # padding fills the last flit and must sort identically.
        codec = TaskCodec(values_per_flit=16, word_width=8)
        rng = np.random.default_rng(9)
        inputs, weights, biases = _random_batch(rng, 8, 11, 20)
        for method in OrderingMethod:
            batch = codec.encode_batch(inputs, weights, biases, method)
            assert batch == _scalar_reference(
                codec,
                inputs,
                weights,
                biases,
                method,
                FillOrder.COLUMN_MAJOR_DEAL,
            )

    def test_index_payload_ablation(self):
        codec = TaskCodec(
            values_per_flit=8, word_width=8, include_index_payload=True
        )
        rng = np.random.default_rng(5)
        inputs, weights, biases = _random_batch(rng, 8, 4, 10)
        batch = codec.encode_batch(
            inputs, weights, biases, OrderingMethod.SEPARATED
        )
        ref = _scalar_reference(
            codec,
            inputs,
            weights,
            biases,
            OrderingMethod.SEPARATED,
            FillOrder.COLUMN_MAJOR_DEAL,
        )
        assert batch == ref
        assert len(batch[0].payloads) > batch[0].n_data_flits

    def test_exotic_width_falls_back_to_scalar(self):
        # 12-bit lanes have no numpy kernel; the batch API must still
        # return the scalar results.
        codec = TaskCodec(values_per_flit=4, word_width=12)
        rng = np.random.default_rng(6)
        inputs, weights, biases = _random_batch(rng, 12, 5, 5)
        batch = codec.encode_batch(
            inputs, weights, biases, OrderingMethod.AFFILIATED
        )
        assert batch == _scalar_reference(
            codec,
            inputs,
            weights,
            biases,
            OrderingMethod.AFFILIATED,
            FillOrder.COLUMN_MAJOR_DEAL,
        )

    def test_empty_batch(self):
        codec = TaskCodec(values_per_flit=16, word_width=8)
        assert codec.encode_batch(
            np.zeros((0, 25), dtype=np.uint8),
            np.zeros((0, 25), dtype=np.uint8),
            [],
            OrderingMethod.BASELINE,
        ) == []

    def test_rejects_mismatched_shapes(self):
        codec = TaskCodec(values_per_flit=16, word_width=8)
        with pytest.raises(ValueError, match="equal-shape"):
            codec.encode_batch(
                np.zeros((2, 3), dtype=np.uint8),
                np.zeros((3, 3), dtype=np.uint8),
                [0, 0],
                OrderingMethod.BASELINE,
            )
        with pytest.raises(ValueError, match="biases"):
            codec.encode_batch(
                np.zeros((2, 3), dtype=np.uint8),
                np.zeros((2, 3), dtype=np.uint8),
                [0],
                OrderingMethod.BASELINE,
            )

    def test_rejects_out_of_range_words(self):
        codec = TaskCodec(values_per_flit=4, word_width=8)
        with pytest.raises(ValueError, match="does not fit"):
            codec.encode_batch(
                np.array([[300]]), np.array([[1]]), [0],
                OrderingMethod.BASELINE,
            )
        with pytest.raises(ValueError, match="bias word.*does not fit"):
            codec.encode_batch(
                np.array([[1]], dtype=np.uint8),
                np.array([[1]], dtype=np.uint8),
                [300],
                OrderingMethod.BASELINE,
            )
        with pytest.raises(ValueError, match="bias word.*does not fit"):
            codec.encode_batch(
                np.array([[1]], dtype=np.uint8),
                np.array([[1]], dtype=np.uint8),
                [-1],
                OrderingMethod.BASELINE,
            )

    def test_mixed_magnitude_64bit_bias_list(self):
        # Regression: np.asarray([1, 2**64 - 1]) promotes to float64;
        # the batch path must accept every bias list the scalar oracle
        # accepts.
        codec = TaskCodec(values_per_flit=2, word_width=64)
        inputs = np.array([[1], [2]], dtype=np.uint64)
        weights = np.array([[3], [4]], dtype=np.uint64)
        biases = [1, 2**64 - 1]
        batch = codec.encode_batch(
            inputs, weights, biases, OrderingMethod.BASELINE
        )
        assert batch == _scalar_reference(
            codec,
            inputs,
            weights,
            biases,
            OrderingMethod.BASELINE,
            FillOrder.COLUMN_MAJOR_DEAL,
        )


class TestDecodeBatch:
    @pytest.mark.parametrize("method", list(OrderingMethod))
    def test_matches_scalar_decode_and_round_trips(self, method):
        codec = TaskCodec(values_per_flit=16, word_width=8)
        rng = np.random.default_rng(13)
        inputs, weights, biases = _random_batch(rng, 8, 8, 25)
        encoded = codec.encode_batch(inputs, weights, biases, method)
        decoded = codec.decode_batch(encoded)
        assert decoded == [codec.decode(e) for e in encoded]
        for t, d in enumerate(decoded):
            assert d.original_pairs() == list(
                zip(inputs[t].tolist(), weights[t].tolist())
            )
            assert d.bias == biases[t]

    def test_mixed_geometry_decodes_per_group(self):
        # A layer's ragged tail (or a whole arrival stream) mixes
        # geometries; decode must group, not raise or de-vectorise.
        codec = TaskCodec(values_per_flit=16, word_width=8)
        rng = np.random.default_rng(17)
        a, aw, ab = _random_batch(rng, 8, 2, 25)
        b, bw, bb = _random_batch(rng, 8, 2, 7)
        mixed = codec.encode_batch(
            a, aw, ab, OrderingMethod.BASELINE
        ) + codec.encode_batch(b, bw, bb, OrderingMethod.SEPARATED)
        # Interleave the geometries so group index lists are non-trivial.
        mixed = [mixed[0], mixed[2], mixed[1], mixed[3]]
        decoded = codec.decode_batch(mixed)
        assert decoded == [codec.decode(e) for e in mixed]

    def test_empty_batch(self):
        codec = TaskCodec(values_per_flit=16, word_width=8)
        assert codec.decode_batch([]) == []
        assert codec.decode_batch_words([]) == []
        assert codec.decode_inputs_only_batch([]) == []

    def test_rejects_inconsistent_flit_metadata(self):
        import dataclasses

        codec = TaskCodec(values_per_flit=16, word_width=8)
        rng = np.random.default_rng(23)
        inputs, weights, biases = _random_batch(rng, 8, 2, 25)
        encoded = codec.encode_batch(
            inputs, weights, biases, OrderingMethod.BASELINE
        )
        bad = [dataclasses.replace(encoded[0], n_data_flits=7), encoded[1]]
        with pytest.raises(ValueError, match="inconsistent flit count"):
            codec.decode_batch(bad)
        with pytest.raises(ValueError, match="inconsistent flit count"):
            codec.decode_batch_words(bad)

    def test_decode_batch_words_rejects_bad_permutation(self):
        import dataclasses

        codec = TaskCodec(values_per_flit=16, word_width=8)
        rng = np.random.default_rng(29)
        inputs, weights, biases = _random_batch(rng, 8, 3, 25)
        encoded = codec.encode_batch(
            inputs, weights, biases, OrderingMethod.SEPARATED
        )
        perm = list(encoded[0].input_perm)
        perm[0] = perm[1]  # duplicate: not a permutation
        bad = [dataclasses.replace(encoded[0], input_perm=tuple(perm))]
        bad += encoded[1:]
        with pytest.raises(ValueError, match="invalid permutation"):
            codec.decode_batch_words(bad)


class TestDecodeBatchWords:
    """The arrival-plane decode: original-order words, no DecodedTask."""

    @pytest.mark.parametrize("width", [8, 32, 12])
    @pytest.mark.parametrize("method", list(OrderingMethod))
    def test_matches_original_pairs(self, width, method):
        per_flit = 4 if width == 12 else 16
        codec = TaskCodec(values_per_flit=per_flit, word_width=width)
        rng = np.random.default_rng(width + 1)
        batches = [
            _random_batch(rng, width, 4, n_pairs)
            for n_pairs in (25, 7, 25, 1)
        ]
        encoded = [
            e
            for inputs, weights, biases in batches
            for e in codec.encode_batch(inputs, weights, biases, method)
        ]
        rows = codec.decode_batch_words(encoded)
        assert len(rows) == len(encoded)
        for e, (iw, ww, bias) in zip(encoded, rows):
            decoded = codec.decode(e)
            pairs = decoded.original_pairs()
            assert [int(v) for v in iw] == [p[0] for p in pairs]
            assert [int(v) for v in ww] == [p[1] for p in pairs]
            assert bias == decoded.bias


class TestDecodeInputsOnlyBatch:
    @pytest.mark.parametrize("width", [8, 32, 12])
    @pytest.mark.parametrize("method", list(OrderingMethod))
    def test_matches_scalar(self, width, method):
        per_flit = 4 if width == 12 else 16
        codec = TaskCodec(values_per_flit=per_flit, word_width=width)
        rng = np.random.default_rng(width + 3)
        lim = 1 << min(width, 63)
        encoded = []
        for n_values in (25, 9, 25, 2):
            matrix = rng.integers(
                0, lim, size=(3, n_values), dtype=np.uint64
            )
            encoded.extend(
                codec.encode_inputs_only_batch(matrix, method)
            )
        rows = codec.decode_inputs_only_batch(encoded)
        assert len(rows) == len(encoded)
        for e, row in zip(encoded, rows):
            assert [int(v) for v in row] == codec.decode_inputs_only(e)


class TestEncodeInputsOnlyBatch:
    @pytest.mark.parametrize("method", list(OrderingMethod))
    def test_matches_scalar(self, method):
        codec = TaskCodec(values_per_flit=16, word_width=8)
        rng = np.random.default_rng(21)
        values = rng.integers(0, 256, size=(7, 25), dtype=np.uint8)
        batch = codec.encode_inputs_only_batch(values, method)
        ref = [
            codec.encode_inputs_only([int(w) for w in values[t]], method)
            for t in range(7)
        ]
        assert batch == ref
        for t, e in enumerate(batch):
            assert codec.decode_inputs_only(e) == values[t].tolist()


class TestCodecProperties:
    """Hypothesis suite: random widths, pair counts, methods, fills."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from([8, 16, 24, 32, 64, 12]),
        st.integers(min_value=1, max_value=2),  # pairs_per_flit half
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(list(OrderingMethod)),
        st.sampled_from(list(FillOrder)),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batch_round_trip_equals_scalar(
        self, width, half, n_pairs, n_tasks, method, fill, seed
    ):
        codec = TaskCodec(values_per_flit=2 * half, word_width=width)
        rng = np.random.default_rng(seed)
        inputs, weights, biases = _random_batch(rng, width, n_tasks, n_pairs)
        batch = codec.encode_batch(inputs, weights, biases, method, fill)
        assert batch == _scalar_reference(
            codec, inputs, weights, biases, method, fill
        )
        decoded = codec.decode_batch(batch)
        assert decoded == [codec.decode(e) for e in batch]
        for t, d in enumerate(decoded):
            assert d.original_pairs() == list(
                zip(inputs[t].tolist(), weights[t].tolist())
            )

    @settings(deadline=None, max_examples=40)
    @given(
        st.sampled_from([8, 16, 32, 64, 12]),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=30),  # n_pairs
                st.integers(min_value=1, max_value=3),  # n_tasks
                st.sampled_from(list(OrderingMethod)),
                st.sampled_from(list(FillOrder)),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_mixed_geometry_decode_equals_scalar(
        self, width, shapes, seed
    ):
        """Grouped decode across widths x fills x ragged tails x
        mixed-geometry batches: every path must match the scalar
        reference element-for-element, in input order."""
        codec = TaskCodec(values_per_flit=4, word_width=width)
        rng = np.random.default_rng(seed)
        encoded = []
        for n_pairs, n_tasks, method, fill in shapes:
            inputs, weights, biases = _random_batch(
                rng, width, n_tasks, n_pairs
            )
            encoded.extend(
                codec.encode_batch(inputs, weights, biases, method, fill)
            )
        order = rng.permutation(len(encoded))
        encoded = [encoded[i] for i in order]

        decoded = codec.decode_batch(encoded)
        assert decoded == [codec.decode(e) for e in encoded]

        rows = codec.decode_batch_words(encoded)
        for e, (iw, ww, bias) in zip(encoded, rows):
            ref = codec.decode(e)
            pairs = ref.original_pairs()
            assert [int(v) for v in iw] == [p[0] for p in pairs]
            assert [int(v) for v in ww] == [p[1] for p in pairs]
            assert bias == ref.bias


def _run_config(codec_name: str, **overrides):
    from repro.workloads.figures import (
        figure_lenet_image,
        figure_trained_lenet,
    )

    kwargs = dict(width=4, height=4, n_mcs=2, max_tasks_per_layer=4, seed=11)
    kwargs.update(overrides)
    config = AcceleratorConfig(codec=codec_name, **kwargs)
    return run_model_on_noc(
        config, figure_trained_lenet(), figure_lenet_image()
    )


def _run_capturing_records(codec_name: str, **overrides):
    """``_run_config`` that also returns the run's task records."""
    records = []
    original = AcceleratorSimulator._encode_tasks

    def capture(self, *args):
        batch = original(self, *args)
        records.extend(batch)
        return batch

    with mock.patch.object(AcceleratorSimulator, "_encode_tasks", capture):
        run = _run_config(codec_name, **overrides)
    return records, run


class TestSimulatorCodecEquivalence:
    """Whole-run bit-identity: the codec twin of the event/stepped matrix."""

    MATRIX = [
        {"data_format": "fixed8", "ordering": OrderingMethod.SEPARATED},
        {"data_format": "float32", "ordering": OrderingMethod.AFFILIATED},
        {
            "data_format": "fixed8",
            "ordering": OrderingMethod.SEPARATED,
            "include_index_payload": True,
        },
        {
            "data_format": "fixed8",
            "ordering": OrderingMethod.SEPARATED,
            "mapping_policy": "group_affine",
            "weight_cache": True,
        },
        {
            "data_format": "fixed8",
            "ordering": OrderingMethod.BASELINE,
            "layer_barrier": False,
            "packet_scheduling": "count_desc",
        },
        {
            "data_format": "fixed8",
            "ordering": OrderingMethod.SEPARATED,
            "extra": {"model_ordering_latency": True},
        },
        # The Fig. 12 points the retired CI scalar-codec bench smoke
        # compared: trained LeNet, fixed8, seed 2025, MC2 meshes.
        {
            "data_format": "fixed8",
            "ordering": OrderingMethod.BASELINE,
            "seed": 2025,
        },
        {
            "data_format": "fixed8",
            "ordering": OrderingMethod.SEPARATED,
            "seed": 2025,
        },
        {
            "data_format": "fixed8",
            "ordering": OrderingMethod.SEPARATED,
            "seed": 2025,
            "width": 8,
            "height": 8,
            "max_tasks_per_layer": 2,
        },
        {
            "data_format": "fixed8",
            "ordering": OrderingMethod.SEPARATED,
            "seed": 2025,
            "width": 12,
            "height": 12,
            "max_tasks_per_layer": 2,
        },
    ]

    @pytest.mark.parametrize(
        "overrides", MATRIX, ids=lambda o: "-".join(str(v) for v in o.values())
    )
    def test_batch_run_identical_to_scalar_oracle(self, overrides):
        results = {}
        for codec_name in TASK_CODECS:
            run = _run_config(codec_name, **overrides)
            assert run.all_verified
            payload = run.to_dict()
            payload["config"].pop("codec")
            # codec.* telemetry describes *which* codec ran, so it is
            # the one result family allowed to differ; everything else
            # (including event.* / router.* metrics) must be identical.
            payload["metrics"] = {
                name: value
                for name, value in payload["metrics"].items()
                if not name.startswith("codec.")
            }
            # The batch codec must actually take the arrival-plane fast
            # path (grouped decode at encode time); the scalar oracle
            # must decode every chunk per packet at the sink.
            decode_batch = run.metrics["codec.decode_batch_chunks"]
            decode_scalar = run.metrics["codec.decode_scalar_chunks"]
            if codec_name == "batch":
                assert decode_batch > 0 and decode_scalar == 0
            else:
                assert decode_batch == 0 and decode_scalar > 0
            results[codec_name] = payload
        assert results["batch"] == results["scalar"]

    @pytest.mark.parametrize("include_responses", [True, False])
    @pytest.mark.parametrize("weight_cache", [True, False])
    @pytest.mark.parametrize("ordering", list(OrderingMethod))
    @pytest.mark.parametrize("data_format", ["fixed8", "float32"])
    def test_computed_macs_identical_across_codecs(
        self, data_format, ordering, weight_cache, include_responses
    ):
        """Every task's PE-side MAC is exactly (==) the scalar oracle's.

        The batch codec converts MAC operands per decode group and the
        oracle per packet at arrival; both must land on the same
        float64 bits, with and without weight-stationary parking.
        """
        computed = {}
        for codec_name in TASK_CODECS:
            records, run = _run_capturing_records(
                codec_name,
                data_format=data_format,
                ordering=ordering,
                weight_cache=weight_cache,
                include_responses=include_responses,
                mapping_policy="group_affine",
                max_tasks_per_layer=8,
            )
            assert run.all_verified
            values = {r.task.task_id: r.computed for r in records}
            assert None not in values.values()
            computed[codec_name] = values
            if codec_name == "scalar" and weight_cache:
                # The input-only (parked weight) path really ran.
                assert any(
                    isinstance(e, EncodedInputs)
                    for r in records
                    for e in r.encoded.values()
                )
        assert computed["batch"] == computed["scalar"]

    def test_config_rejects_unknown_codec(self):
        with pytest.raises(ValueError, match="unknown task codec"):
            AcceleratorConfig(codec="vector")

    def test_config_round_trips_codec_field(self):
        config = AcceleratorConfig(codec="scalar")
        assert AcceleratorConfig.from_dict(config.to_dict()) == config
