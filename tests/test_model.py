"""Model zoo: graph construction, fault space, probe models, file format."""

import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from seusim.model import (
    ALL_PARAM_KINDS,
    LAYER_KINDS,
    LayerNode,
    ModelGraph,
    ParamKind,
    build_bias_probe_model,
    build_unet,
    enumerate_fault_space,
    predict_classes,
    run_model,
    run_model_trace,
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
from seusim.tensor import ACTIVATION_KINDS, QuantParams, Tensor, quantize_affine

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


# what loading each of these model files must report; a NaN passes a `<= 0` test
UNLOADABLE_MODELS = {
    "bn_var_nan": r"batch_norm 5 var \+ eps must be positive",
    "bn_eps_nan": r"batch_norm 5 var \+ eps must be positive",
    "input_scale_inf": "scale must be positive and finite, got inf",
}


def save_unloadable_model(path, case: str) -> None:
    """A model file that must not load: batch_norm 5 of the depth-1 U-Net
    with a NaN variance or eps, or its int8 form with an infinite input scale."""
    from seusim.compress import fold_batch_norm, quantize_model

    g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
    if case == "bn_var_nan":
        g.nodes[5].params[ParamKind.BNVar].data[1] = np.nan
    if case == "bn_eps_nan":
        g.nodes[5].eps = float("nan")
    if case != "input_scale_inf":
        save_model(g, path)
        return
    q = quantize_model(fold_batch_norm(g), [synthetic_input(g, 8, 8, seed=0)])
    blob = serialize_model(q)
    scale = struct.pack("<di", q.input_quant.scale, q.input_quant.zero_point)
    assert blob.count(scale) == 1
    body = blob[:-4].replace(scale, struct.pack("<di", np.inf, q.input_quant.zero_point))
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


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

    @pytest.mark.parametrize("dtype_mode", ["float32", "int8"])
    @pytest.mark.parametrize("act", ACTIVATION_KINDS)
    def test_every_activation_and_layer_kind_round_trips(self, tmp_path, act, dtype_mode):
        from seusim.compress import fold_batch_norm, quantize_model

        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, activation_kind=act, seed=2)
        if dtype_mode == "int8":
            g = quantize_model(fold_batch_norm(g), [synthetic_input(g, 16, 16, seed=0)])
        # the f32 U-Net holds every layer kind, its int8 form all but batch_norm
        assert {n.kind for n in g.nodes} | {"batch_norm"} == set(LAYER_KINDS)
        assert {n.act for n in g.nodes if n.kind == "activation"} == {act}
        path = tmp_path / "m.bin"
        save_model(g, path)
        loaded = load_model(path)
        assert loaded.bit_equal(g) and loaded.dtype_mode == dtype_mode
        assert model_digest(loaded) == model_digest(g)

    def test_every_layer_and_activation_kind_has_a_file_tag(self):
        import seusim.modelio

        assert set(seusim.modelio._KIND_TAGS) == set(LAYER_KINDS)
        assert set(seusim.modelio._ACT_TAGS) == {None, *ACTIVATION_KINDS}

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

    @pytest.mark.parametrize("kind", [ParamKind.ConvWeight, ParamKind.ConvBias])
    def test_int8_conv_zero_point_does_not_load(self, tmp_path, kind):
        # the int8 conv kernel reads only the input's zero point
        from seusim.compress import fold_batch_norm, quantize_model

        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=1)
        q = quantize_model(fold_batch_norm(g), [synthetic_input(g, 16, 16, seed=0)])
        t = q.nodes[3].params[kind]
        q.nodes[3].params[kind] = Tensor(t.data, t.dtype, QuantParams(t.quant.scale, 40))
        path = tmp_path / "q.bin"
        save_model(q, path)
        with pytest.raises(ValueError, match=f"int8 conv 3 {kind.value} zero point must be 0, got 40"):
            load_model(path)

    @pytest.mark.parametrize("node, change, match", [
        (4, lambda p: p.pop(ParamKind.ConvBias), r"conv 4 must hold parameters \['ConvWeight', 'ConvBias'\], "
                                                 r"got \['ConvWeight'\]"),
        (2, lambda p: p.update({ParamKind.ConvBias: Tensor(np.zeros(4, np.float32), "f32")}),
         r"activation 2 must hold parameters \[\], got \['ConvBias'\]"),
    ], ids=["conv-without-bias", "activation-with-bias"])
    def test_node_parameter_set_does_not_load(self, tmp_path, node, change, match):
        # a missing parameter breaks the kernel; a stray one enters the fault space unread
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=1)
        change(g.nodes[node].params)
        path = tmp_path / "m.bin"
        save_model(g, path)
        with pytest.raises(ValueError, match=match):
            load_model(path)

    @pytest.mark.parametrize("case", sorted(UNLOADABLE_MODELS))
    def test_non_finite_values_do_not_load(self, tmp_path, case):
        path = tmp_path / "m.bin"
        save_unloadable_model(path, case)
        with pytest.raises(ValueError, match=UNLOADABLE_MODELS[case]):
            load_model(path)

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

    # each case breaks the f32 graph g or its int8 form q and returns the broken one
    @pytest.mark.parametrize("break_graph,match", [
        (lambda g, q: setattr(g.nodes[3], "kind", "avg_pool") or g, "unknown layer kind"),
        (lambda g, q: setattr(g.nodes[8], "inputs", [7]) or g, "at least two inputs"),
        (lambda g, q: setattr(g.nodes[3], "inputs", [2, 1]) or g, "single input"),
        (lambda g, q: g.nodes[4].params.update(
            {ParamKind.ConvWeight: Tensor(np.zeros((8, 3, 3, 3), np.float32), "f32")}) or g, "weight"),
        (lambda g, q: g.nodes[4].params.update(
            {ParamKind.ConvBias: Tensor(np.zeros(7, np.float32), "f32")}) or g, "bias inconsistent"),
        (lambda g, q: g.nodes[5].params.update(
            {ParamKind.BNMean: Tensor(np.zeros(4, np.float32), "f32")}) or g, "BNMean inconsistent"),
        (lambda g, q: setattr(g.nodes[6], "act", None) or g, "activation 6 .*None"),
        (lambda g, q: setattr(g.nodes[6], "act", "tanh") or g, "activation 6 .*tanh"),
        (lambda g, q: setattr(g.nodes[4], "stride", 0) or g, "stride"),
        (lambda g, q: g.nodes.pop() and g, "output node must be a conv"),
        (lambda g, q: setattr(q, "input_quant", None) or q, "input QuantParams"),
        (lambda g, q: q.nodes.__setitem__(2, replace(g.nodes[1], id=2, inputs=[1])) or q,
         "standalone batch_norm"),
        (lambda g, q: setattr(q.nodes[6], "out_quant", None) or q, "node 6 missing output QuantParams"),
    ])
    def test_malformed_graph_rejected(self, break_graph, match):
        from seusim.compress import fold_batch_norm, quantize_model

        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        q = quantize_model(fold_batch_norm(g), [synthetic_input(g, 8, 8, seed=0)])
        validate_model(g)
        validate_model(q)
        broken = break_graph(g, q)
        with pytest.raises(ValueError, match=match):
            validate_model(broken)

    def test_int8_conv_past_int32_sums_rejected(self):
        # 7311 channels of 3x3 are 65799 taps per output: the worst-case sum overflows int32
        def graph(c):
            conv = LayerNode(id=0, kind="conv", padding=1, out_quant=QuantParams(1.0), params={
                ParamKind.ConvWeight: Tensor(np.zeros((2, c, 3, 3), np.int8), "i8", QuantParams(1.0)),
                ParamKind.ConvBias: Tensor(np.zeros(2, np.int32), "i32", QuantParams(1.0)),
            })
            return ModelGraph([conv], n_classes=2, n_input_channels=c, dtype_mode="int8",
                              input_quant=QuantParams(1.0))

        validate_model(graph(7310))
        match = "int8 conv 0 sums 65799 taps per output, more than the 65793"
        with pytest.raises(ValueError, match=match):
            validate_model(graph(7311))
        with pytest.raises(ValueError, match=match):
            deserialize_model(serialize_model(graph(7311)))

    @pytest.mark.parametrize("change", [{"act": None}, {"stride": 0}])
    def test_unrunnable_model_does_not_load(self, change):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        node = 6 if "act" in change else 4
        g.nodes[node] = replace(g.nodes[node], **change)
        with pytest.raises(ValueError, match="activation 6|stride"):
            deserialize_model(serialize_model(g))

    def test_unknown_activation_tag_is_format_error(self, monkeypatch):
        import seusim.modelio

        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        monkeypatch.setitem(seusim.modelio._ACT_TAGS, "relu", 9)
        blob = serialize_model(g)  # tag 9 under a valid checksum
        with pytest.raises(ModelFormatError, match="activation tag"):
            deserialize_model(blob)

    @staticmethod
    def _with_mode_tag(blob: bytes, tag: int) -> bytes:
        """`blob` with its dtype mode byte set to `tag`, under a valid checksum."""
        (meta_len,) = struct.unpack_from("<I", blob, 6)
        at = 10 + meta_len + 4  # past magic, version, meta length, meta, n_classes and n_input_channels
        body = blob[:at] + bytes([tag]) + blob[at + 1 : -4]
        return body + struct.pack("<I", zlib.crc32(body))

    @pytest.mark.parametrize("tag", [2, 7, 255])
    @pytest.mark.parametrize("mode", ["float32", "int8"])
    def test_unknown_dtype_mode_tag_is_format_error(self, mode, tag):
        from seusim.compress import fold_batch_norm, quantize_model

        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        if mode == "int8":
            g = quantize_model(fold_batch_norm(g), [synthetic_input(g, 8, 8, seed=0)])
        blob = serialize_model(g)
        assert self._with_mode_tag(blob, {"float32": 0, "int8": 1}[mode]) == blob  # the pinned mode tags
        with pytest.raises(ModelFormatError, match="unknown dtype mode tag"):
            deserialize_model(self._with_mode_tag(blob, tag))

    def test_unknown_dtype_mode_is_refused(self):
        g = replace(build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0), dtype_mode="int4")
        with pytest.raises(ValueError, match="unknown dtype mode 'int4'"):
            validate_model(g)
        with pytest.raises(ValueError, match="unknown dtype mode 'int4'"):
            serialize_model(g)

    @pytest.mark.parametrize("field, value, match", [
        ("kind", "avg_pool", "node 3 has unknown layer kind 'avg_pool'"),
        ("act", "tanh", "node 3 has unknown activation function 'tanh'"),
    ])
    def test_serializer_names_what_it_cannot_store(self, field, value, match):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        g.nodes[3] = replace(g.nodes[3], **{field: value})
        with pytest.raises(ValueError, match=match):
            serialize_model(g)

    def test_float32_graph_with_quantized_parameters_is_refused(self):
        # quantize_model's i8/i32 parameters under a float32 mode: refused when
        # validated and when loaded, not first at the forward pass
        from seusim.compress import fold_batch_norm, quantize_model

        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        q = quantize_model(fold_batch_norm(g), [synthetic_input(g, 8, 8, seed=0)])
        mixed = replace(q, dtype_mode="float32", input_quant=None, nodes=[replace(n, out_quant=None) for n in q.nodes])
        match = r"conv 0 ConvWeight is i8, but float32 graphs store it as f32"
        with pytest.raises(ValueError, match=match):
            validate_model(mixed)
        with pytest.raises(ValueError, match=match):
            deserialize_model(serialize_model(mixed))

    def test_int8_graph_with_float_conv_parameters_is_refused(self):
        from seusim.compress import fold_batch_norm, quantize_model

        folded = fold_batch_norm(build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0))
        q = quantize_model(folded, [synthetic_input(folded, 8, 8, seed=0)])
        last = q.nodes[-1]
        f32_bias = folded.nodes[-1].params[ParamKind.ConvBias]
        q.nodes[-1] = replace(last, params={**last.params, ParamKind.ConvBias: f32_bias})
        match = rf"conv {last.id} ConvBias is f32, but int8 graphs store it as i32"
        with pytest.raises(ValueError, match=match):
            validate_model(q)
        with pytest.raises(ValueError, match=match):
            deserialize_model(serialize_model(q))

    def test_synthetic_input_respects_pool_depth(self):
        g = build_unet(depth=2, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        with pytest.raises(ValueError, match="multiples"):
            synthetic_input(g, 10, 16)


def int8_three_way_concat_model():
    """An int8 graph whose concat 3 joins two convs of the input and an
    activation of the first, each output under its own QuantParams."""
    rng = np.random.default_rng(2)

    def conv(nid, inputs, oc, ic, out_quant):
        return LayerNode(id=nid, kind="conv", inputs=inputs, out_quant=out_quant, params={
            ParamKind.ConvWeight: Tensor(rng.integers(-127, 128, (oc, ic, 1, 1)), "i8", QuantParams(0.01)),
            ParamKind.ConvBias: Tensor(rng.integers(-500, 500, oc), "i32", QuantParams(2e-4)),
        })

    nodes = [
        conv(0, [], 2, 3, QuantParams(0.05, -10)),
        conv(1, [], 3, 3, QuantParams(0.08, 7)),
        LayerNode(id=2, kind="activation", act="hard_sigmoid", inputs=[0], out_quant=QuantParams(1 / 255, -128)),
        LayerNode(id=3, kind="concat", inputs=[0, 1, 2], out_quant=QuantParams(0.06, 2)),
        conv(4, [3], 2, 7, QuantParams(0.1, 0)),
    ]
    g = ModelGraph(nodes, n_classes=2, n_input_channels=3, dtype_mode="int8", input_quant=QuantParams(0.02, 0))
    validate_model(g)
    return g


class TestInt8Forward:
    def test_three_way_concat_requantizes_each_input_like_the_formula(self):
        g = int8_three_way_concat_model()
        produced = run_model_trace(g, synthetic_input(g, 4, 4, seed=0))
        out = produced[3]
        assert out.quant == g.nodes[3].out_quant and out.shape == (1, 7, 4, 4)
        expect = np.concatenate([
            quantize_affine((produced[i].data.astype(np.float64) - produced[i].quant.zero_point)
                            * produced[i].quant.scale, out.quant)
            for i in (0, 1, 2)
        ], axis=1)
        np.testing.assert_array_equal(out.data, expect)

    @pytest.mark.parametrize("node", [2, 3])
    def test_missing_out_quant_is_refused_by_the_kernel(self, node):
        g = int8_three_way_concat_model()
        g.nodes[node].out_quant = None  # what validate_model refuses
        with pytest.raises(ValueError, match="requires out_quant"):
            run_model_trace(g, synthetic_input(g, 4, 4, seed=0))
