"""Model zoo: graph construction, fault space, probe models, file format."""

import numpy as np
import pytest

from seusim.model import (
    ALL_PARAM_KINDS,
    LayerNode,
    ModelGraph,
    ParamKind,
    build_bias_probe_model,
    build_unet,
    enumerate_fault_space,
    predict_classes,
    run_model,
    synthetic_input,
    validate_model,
)
from seusim.modelio import (
    ModelFormatError,
    ModelVersionError,
    deserialize_model,
    load_model,
    model_digest,
    save_model,
    serialize_model,
)
from seusim.tensor import QuantParams, Tensor

REF_FREQS = [0.0, 0.4491, 0.0441, 0.2695, 0.0747, 0.1627]
REF_BIASES = [-0.85, 0.32, -0.03, 0.04, -0.17, 0.11]


def single_conv_model(out_ch=2, in_ch=5, kh=1, kw=1, weights=None, biases=None):
    w = weights if weights is not None else np.zeros((out_ch, in_ch, kh, kw), dtype=np.float32)
    b = biases if biases is not None else np.zeros(out_ch, dtype=np.float32)
    node = LayerNode(
        id=0, kind="conv",
        params={
            ParamKind.ConvWeight: Tensor(np.asarray(w, dtype=np.float32), "f32"),
            ParamKind.ConvBias: Tensor(np.asarray(b, dtype=np.float32), "f32"),
        },
        inputs=[],
    )
    g = ModelGraph([node], n_classes=out_ch, n_input_channels=in_ch)
    validate_model(g)
    return g


class TestBuildUnet:
    def test_structure(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        kinds = [n.kind for n in g.nodes]
        assert kinds.count("concat") == 1
        assert kinds.count("max_pool2") == 1
        assert kinds.count("upsample2") == 1
        assert g.nodes[-1].kind == "conv"
        assert g.nodes[-1].params[ParamKind.ConvWeight].shape[0] == 6

    def test_output_shape_and_finiteness(self):
        g = build_unet(depth=2, base_channels=4, n_input_channels=2, n_classes=5, seed=3)
        x = synthetic_input(g, 16, 24, seed=1)
        out = run_model(g, x)
        assert out.shape == (5, 16, 24)
        assert np.isfinite(out.data).all()

    def test_same_seed_bit_identical(self):
        a = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=42)
        b = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=42)
        assert serialize_model(a) == serialize_model(b)

    def test_different_seed_differs(self):
        a = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=1)
        b = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=2)
        assert serialize_model(a) != serialize_model(b)

    def test_value_range_census_by_construction(self):
        g = build_unet(depth=2, base_channels=8, n_input_channels=3, n_classes=6, seed=0)
        values = np.concatenate([t.data.reshape(-1) for n in g.nodes for t in n.params.values()])
        assert np.mean(np.abs(values) < 2) >= 0.999

    @pytest.mark.parametrize("depth,base", [(0, 4), (1, 0)])
    def test_invalid_dimensions(self, depth, base):
        with pytest.raises(ValueError):
            build_unet(depth=depth, base_channels=base, n_input_channels=3, n_classes=6)

    def test_activation_recorded(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6,
                       activation_kind="hard_sigmoid", seed=0)
        assert g.meta["activation"] == "hard_sigmoid"
        assert all(n.act == "hard_sigmoid" for n in g.nodes if n.kind == "activation")


class TestBiasProbeModel:
    def test_requested_frequencies_realized(self):
        g, x = build_bias_probe_model(REF_BIASES, REF_FREQS, seed=0)
        golden = predict_classes(g, x)
        counts = np.bincount(golden.reshape(-1), minlength=6) / golden.size
        assert np.abs(counts - np.asarray(REF_FREQS)).max() <= 0.005

    def test_biases_exact(self):
        g, _ = build_bias_probe_model(REF_BIASES, REF_FREQS, seed=0)
        stored = g.nodes[-1].params[ParamKind.ConvBias].data
        np.testing.assert_array_equal(stored, np.asarray(REF_BIASES, dtype=np.float32))

    def test_degenerate_single_class(self):
        g, x = build_bias_probe_model([0.0] * 6, [1, 0, 0, 0, 0, 0], seed=0)
        assert np.all(predict_classes(g, x) == 0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            build_bias_probe_model([0.0] * 3, [0.5, 0.6, -0.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            build_bias_probe_model([0.0] * 3, [0.5, 0.3, 0.1])

    def test_deterministic(self):
        a = build_bias_probe_model(REF_BIASES, REF_FREQS, seed=9)
        b = build_bias_probe_model(REF_BIASES, REF_FREQS, seed=9)
        assert serialize_model(a[0]) == serialize_model(b[0])
        np.testing.assert_array_equal(a[1].data, b[1].data)


class TestFaultSpace:
    def test_f32_conv_all_kinds(self):
        g = single_conv_model()  # 10 weights + 2 biases, all f32
        assert enumerate_fault_space(g, ALL_PARAM_KINDS).total() == 12 * 32 == 384

    def test_bias_only(self):
        g = single_conv_model()
        assert enumerate_fault_space(g, frozenset({ParamKind.ConvBias})).total() == 64

    def test_int8_mixed_widths(self):
        wq = QuantParams(0.01, 0)
        node = LayerNode(
            id=0, kind="conv",
            params={
                ParamKind.ConvWeight: Tensor(np.zeros((2, 5, 1, 1), dtype=np.int8), "i8", wq),
                ParamKind.ConvBias: Tensor(np.zeros(2, dtype=np.int32), "i32", QuantParams(0.001, 0)),
            },
            inputs=[], out_quant=QuantParams(0.1, 0),
        )
        g = ModelGraph([node], n_classes=2, n_input_channels=5,
                       dtype_mode="int8", input_quant=QuantParams(0.1, 0))
        validate_model(g)
        assert enumerate_fault_space(g, ALL_PARAM_KINDS).total() == 10 * 8 + 2 * 32 == 144

    def test_totals_are_additive(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        space = enumerate_fault_space(g, ALL_PARAM_KINDS)
        assert space.total() == sum(space.layer_total(lid) for lid in space.layer_ids())


class TestModelFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        g = build_unet(depth=2, base_channels=4, n_input_channels=3, n_classes=6,
                       activation_kind="sigmoid", seed=7)
        path = tmp_path / "m.bin"
        save_model(g, path)
        loaded = load_model(path)
        assert g.bit_equal(loaded)
        assert loaded.meta == g.meta
        assert model_digest(loaded) == model_digest(g)

    def test_int8_roundtrip(self, tmp_path):
        from seusim.compress import fold_batch_norm, quantize_model

        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=1)
        q = quantize_model(fold_batch_norm(g), [synthetic_input(g, 16, 16, seed=0)])
        path = tmp_path / "q.bin"
        save_model(q, path)
        loaded = load_model(path)
        assert loaded.bit_equal(q)
        assert loaded.dtype_mode == "int8"
        assert loaded.input_quant == q.input_quant
        assert [n.out_quant for n in loaded.nodes] == [n.out_quant for n in q.nodes]

    def test_bit_equal_compares_execution_fields(self):
        from dataclasses import replace

        from seusim.compress import fold_batch_norm, quantize_model

        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=1)
        q = quantize_model(fold_batch_norm(g), [synthetic_input(g, 16, 16, seed=0)])
        conv = q.nodes[0]
        variants = [replace(q, input_quant=QuantParams(2 * q.input_quant.scale, q.input_quant.zero_point))]
        for change in ({"out_quant": QuantParams(1.0, 3)}, {"stride": 2}, {"padding": 0},
                       {"act": "relu"}, {"eps": 0.5}):
            variants.append(replace(q, nodes=[replace(conv, **change), *q.nodes[1:]]))
        assert q.bit_equal(q.copy())
        assert not any(q.bit_equal(v) or v.bit_equal(q) for v in variants)
        assert q.bit_equal(replace(q, meta={}))  # meta is not compared

    def test_truncated_file_reports_corrupt(self, tmp_path):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        blob = serialize_model(g)
        with pytest.raises(ModelFormatError):
            deserialize_model(blob[: len(blob) // 2])

    def test_flipped_byte_reports_corrupt(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        blob = bytearray(serialize_model(g))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ModelFormatError, match="checksum"):
            deserialize_model(bytes(blob))

    def test_future_version_rejected(self):
        g = single_conv_model()
        blob = bytearray(serialize_model(g))
        blob[4] = 99  # version field follows the magic
        with pytest.raises(ModelVersionError):
            deserialize_model(bytes(blob))

    def test_not_a_model_file(self):
        with pytest.raises(ModelFormatError, match="magic"):
            deserialize_model(b"PNG\x89 definitely not a model")


class TestValidation:
    def test_non_dense_ids_rejected(self):
        g = single_conv_model()
        g.nodes[0].id = 5
        with pytest.raises(ValueError, match="dense"):
            validate_model(g)

    def test_forward_reference_rejected(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        g.nodes[0].inputs = [3]
        with pytest.raises(ValueError, match="non-earlier"):
            validate_model(g)

    def test_output_must_match_class_count(self):
        g = single_conv_model()
        g.n_classes = 4
        with pytest.raises(ValueError, match="n_classes"):
            validate_model(g)

    def test_nonpositive_bn_variance_rejected(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        bn = next(n for n in g.nodes if n.kind == "batch_norm")
        bn.params[ParamKind.BNVar].data[1] = -1.0
        with pytest.raises(ValueError, match="positive"):
            validate_model(g)
        with pytest.raises(ValueError, match="positive"):
            deserialize_model(serialize_model(g))

    def test_synthetic_input_respects_pool_depth(self):
        g = build_unet(depth=2, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        with pytest.raises(ValueError, match="multiples"):
            synthetic_input(g, 10, 16)
