"""Pruning, batch-norm folding, and post-training quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seusim.compress import (
    PruningPlan,
    apply_prune,
    evaluate_model,
    fold_batch_norm,
    l1_filter_ranking,
    quantize_model,
    sensitivity_sweep,
    stopping_check,
)
from seusim.inject import FaultLocation, apply_fault
from seusim.model import (
    ALL_PARAM_KINDS,
    LayerNode,
    ModelGraph,
    ParamKind,
    build_unet,
    enumerate_fault_space,
    predict_classes,
    run_model,
    synthetic_input,
    validate_model,
)
from seusim.modelio import serialize_model
from seusim.tensor import ACTIVATION_KINDS, Tensor, dequantize


def t32(values):
    return Tensor(np.asarray(values, dtype=np.float32), "f32")


def conv_node(nid, weights, biases, inputs, **kw):
    return LayerNode(
        id=nid, kind="conv",
        params={ParamKind.ConvWeight: t32(weights), ParamKind.ConvBias: t32(biases)},
        inputs=inputs, **kw,
    )


class TestL1Ranking:
    def test_ascending_order(self):
        w = np.zeros((3, 1, 1, 2), dtype=np.float32)
        w[0] = 1.5  # L1 = 3
        w[1] = 0.5  # L1 = 1
        w[2] = 1.0  # L1 = 2
        np.testing.assert_array_equal(l1_filter_ranking(t32(w)), [1, 2, 0])

    def test_ties_keep_lower_index(self):
        w = np.ones((4, 2, 1, 1), dtype=np.float32)
        np.testing.assert_array_equal(l1_filter_ranking(t32(w)), [0, 1, 2, 3])

    def test_matches_abs_sum_oracle(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(8, 3, 3, 3)).astype(np.float32)
        got = l1_filter_ranking(t32(w))
        norms = [sum(abs(float(v)) for v in w[i].reshape(-1)) for i in range(8)]
        expect = sorted(range(8), key=lambda i: (norms[i], i))
        np.testing.assert_array_equal(got, expect)

    def test_requires_4d(self):
        with pytest.raises(ValueError):
            l1_filter_ranking(t32(np.zeros((3, 3))))


class TestApplyPrune:
    def unet(self, seed=0):
        return build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=seed)

    def test_zero_ratio_is_identity(self):
        g = self.unet()
        pruned = apply_prune(g, PruningPlan({0: 0.0}))
        assert serialize_model(pruned) == serialize_model(g)

    def test_filter_count_follows_floor(self):
        w = np.random.default_rng(0).normal(size=(10, 3, 1, 1)).astype(np.float32)
        g = ModelGraph([conv_node(0, w, np.zeros(10), [])], n_classes=10, n_input_channels=3)
        validate_model(g)
        # floor(0.3 * 10) = 3 filters go, so the plan targets a mid layer:
        # wrap the conv with a final classifier to keep n_classes fixed
        g.nodes.append(conv_node(1, np.random.default_rng(1).normal(size=(10, 10, 1, 1)), np.zeros(10), [0]))
        validate_model(g)
        pruned = apply_prune(g, PruningPlan({0: 0.3}))
        assert pruned.nodes[0].params[ParamKind.ConvWeight].shape[0] == 7
        # the three smallest-L1 filters are the ones removed
        dropped = set(int(i) for i in l1_filter_ranking(g.nodes[0].params[ParamKind.ConvWeight])[:3])
        kept = [i for i in range(10) if i not in dropped]
        np.testing.assert_array_equal(
            pruned.nodes[0].params[ParamKind.ConvWeight].data,
            g.nodes[0].params[ParamKind.ConvWeight].data[kept],
        )

    def test_output_shape_preserved_through_skips(self):
        g = self.unet()
        conv_ids = [n.id for n in g.nodes if n.kind == "conv"][:-1]
        pruned = apply_prune(g, PruningPlan({lid: 0.5 for lid in conv_ids}))
        x = synthetic_input(g, 16, 16, seed=1)
        assert run_model(pruned, x).shape == run_model(g, x).shape
        assert pruned.n_classes == g.n_classes
        assert pruned.n_input_channels == g.n_input_channels

    def test_fault_space_strictly_shrinks(self):
        g = self.unet()
        pruned = apply_prune(g, PruningPlan({0: 0.5}))
        before = enumerate_fault_space(g, ALL_PARAM_KINDS).total()
        after = enumerate_fault_space(pruned, ALL_PARAM_KINDS).total()
        assert after < before

    def test_output_shares_no_array_with_source(self):
        g = self.unet()
        before = g.copy()
        pruned = apply_prune(g, PruningPlan({0: 0.5, 9: 0.25}))  # convs 4 and 12 stay at ratio 0
        for n in pruned.nodes:
            for kind in n.params:
                apply_fault(pruned, FaultLocation(n.id, kind, 0, 30))
        assert g.bit_equal(before)
        assert not pruned.bit_equal(apply_prune(g, PruningPlan({0: 0.5, 9: 0.25})))

    def test_final_layer_protected(self):
        g = self.unet()
        with pytest.raises(ValueError, match="final"):
            apply_prune(g, PruningPlan({g.nodes[-1].id: 0.5}))

    def test_ratio_range_validated(self):
        with pytest.raises(ValueError):
            PruningPlan({0: 0.95})
        with pytest.raises(ValueError):
            PruningPlan({0: -0.1})

    def test_non_conv_layer_rejected(self):
        g = self.unet()
        with pytest.raises(ValueError, match="not a conv"):
            apply_prune(g, PruningPlan({1: 0.5}))

    def test_quantized_model_rejected(self):
        g = self.unet()
        x = synthetic_input(g, 16, 16, seed=1)
        q = quantize_model(fold_batch_norm(g), [x])
        with pytest.raises(ValueError, match="requires an f32 model"):
            apply_prune(q, PruningPlan({0: 0.5}))
        with pytest.raises(ValueError, match="requires an f32 model"):
            apply_prune(q, PruningPlan({}))


def essential_filter_model():
    """Four-filter model whose lowest-L1 filter carries the only signal."""
    conv1 = np.zeros((4, 2, 1, 1), dtype=np.float32)
    conv1[0, 0] = 0.5  # essential: reads the signal channel, smallest L1
    conv1[1, 1] = 1.0
    conv1[2, 1] = 1.5
    conv1[3, 1] = 2.0
    head = np.zeros((2, 4, 1, 1), dtype=np.float32)
    head[0, 1] = head[0, 2] = head[0, 3] = 0.1  # constant background logit
    head[1, 0] = 10.0  # signal class rides only on the essential filter
    g = ModelGraph(
        [conv_node(0, conv1, np.zeros(4), []), conv_node(1, head, np.zeros(2), [0])],
        n_classes=2, n_input_channels=2,
    )
    validate_model(g)
    rng = np.random.default_rng(0)
    signal = (rng.random((8, 8)) < 0.5).astype(np.float32)
    x = t32(np.stack([signal, np.ones((8, 8), dtype=np.float32)]))
    return g, x


def forbid_forward(monkeypatch):
    """Make any forward pass fail the test."""
    import seusim.model

    def no_forward(*args):
        raise AssertionError("forward pass ran")

    monkeypatch.setattr(seusim.model, "_execute", no_forward)


class TestSensitivitySweep:
    def test_ratio_zero_equals_baseline_exactly(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        x = synthetic_input(g, 16, 16, seed=1)
        labels = predict_classes(g, x)
        baseline = evaluate_model(g, [x], [labels])[0]
        curve = sensitivity_sweep(g, [x], [labels], 0)
        assert curve.ratios == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        assert curve.giou_values[0] == baseline == 100.0

    def test_curves_available_for_all_non_excluded_convs(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        x = synthetic_input(g, 16, 16, seed=1)
        labels = predict_classes(g, x)
        for n in g.nodes[:-1]:
            if n.kind == "conv":
                curve = sensitivity_sweep(g, [x], [labels], n.id)
                assert len(curve.giou_values) == 10

    def test_final_layer_excluded(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        with pytest.raises(ValueError, match="excluded"):
            sensitivity_sweep(g, [], [], g.nodes[-1].id)

    def test_quantized_model_rejected_before_any_forward(self, monkeypatch):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        x = synthetic_input(g, 16, 16, seed=1)
        q = quantize_model(fold_batch_norm(g), [x])
        forbid_forward(monkeypatch)
        with pytest.raises(ValueError, match="requires an f32 model"):
            sensitivity_sweep(q, [x], [np.zeros((16, 16), dtype=np.int64)], 0)

    def test_essential_filter_collapse(self):
        g, x = essential_filter_model()
        labels = predict_classes(g, x)
        curve = sensitivity_sweep(g, [x], [labels], 0)
        # floor(ratio * 4) removes nothing below 0.3, then drops the signal filter
        assert curve.giou_values[0] == curve.giou_values[1] == curve.giou_values[2] == 100.0
        assert curve.giou_values[3] < 50.0


class TestSensitivitySweepDifferential:
    """The sweep reuses the golden forward; every point must still equal a
    full forward of the pruned model."""

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 6), st.sampled_from(ACTIVATION_KINDS),
           st.integers(0, 2 ** 16), st.integers(1, 2))
    def test_curve_equals_prune_then_evaluate(self, depth, base, act, seed, n_inputs):
        g = build_unet(depth, base, 3, 5, act, seed=seed)
        other = build_unet(depth, base, 3, 5, act, seed=seed + 1)  # labels the curves move on
        inputs = [synthetic_input(g, 16, 16, seed=seed + i) for i in range(n_inputs)]
        labels = [predict_classes(other, x) for x in inputs]
        for n in g.nodes[:-1]:
            if n.kind != "conv":
                continue
            curve = sensitivity_sweep(g, inputs, labels, n.id)
            expected = tuple(
                evaluate_model(apply_prune(g, PruningPlan({n.id: r})) if r else g, inputs, labels)[0]
                for r in curve.ratios)
            assert curve.giou_values == expected

    @pytest.mark.parametrize("n_inputs, n_labels", [(1, 2), (2, 1), (0, 0)])
    def test_mismatched_inputs_raise_before_any_forward(self, monkeypatch, n_inputs, n_labels):
        forbid_forward(monkeypatch)
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        x = synthetic_input(g, 16, 16, seed=1)
        labels = np.zeros((16, 16), dtype=np.int64)
        with pytest.raises(ValueError, match="need matching, non-empty inputs and labels"):
            sensitivity_sweep(g, [x] * n_inputs, [labels] * n_labels, 0)

    @pytest.mark.parametrize("layer_id, message", [
        (99, "no layer 99"), (-1, "no layer -1"), (1, "layer 1 is not a conv layer")])
    def test_bad_layer_raises_before_any_forward(self, monkeypatch, layer_id, message):
        forbid_forward(monkeypatch)
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        x = synthetic_input(g, 16, 16, seed=1)
        with pytest.raises(ValueError, match=message):
            sensitivity_sweep(g, [x], [np.zeros((16, 16), dtype=np.int64)], layer_id)

    def test_each_distinct_drop_count_is_scored_once(self, monkeypatch):
        import seusim.compress
        import seusim.model

        kept = []

        def counting_replay(graph, golden, layer_id, output):
            kept.append(output.shape[1])
            return seusim.model.replay(graph, golden, layer_id, output)

        # the sweep reads replay at the binding compress imported it to
        monkeypatch.setattr(seusim.compress, "replay", counting_replay)
        g = build_unet(depth=1, base_channels=8, n_input_channels=3, n_classes=5, seed=3)
        other = build_unet(depth=1, base_channels=8, n_input_channels=3, n_classes=5, seed=4)
        inputs = [synthetic_input(g, 16, 16, seed=s) for s in (5, 6)]
        labels = [predict_classes(other, x) for x in inputs]
        assert g.nodes[0].params[ParamKind.ConvWeight].shape[0] == 8
        # drops per ratio: 0 0 1 2 3 4 4 5 6 7, so 7 distinct non-zero counts, each replayed per input
        curve = sensitivity_sweep(g, inputs, labels, 0)
        assert kept == [n for n in (7, 6, 5, 4, 3, 2, 1) for _ in inputs]
        monkeypatch.undo()
        expected = {r: evaluate_model(apply_prune(g, PruningPlan({0: r})), inputs, labels)[0]
                    for r in (0.0, 0.1, 0.5, 0.6)}
        values = dict(zip(curve.ratios, curve.giou_values))
        assert values[0.0] == values[0.1] == expected[0.0] == expected[0.1]
        assert values[0.5] == values[0.6] == expected[0.5] == expected[0.6]

    def test_sweep_leaves_its_model_unchanged(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        before = g.copy()
        x = synthetic_input(g, 16, 16, seed=1)
        labels = predict_classes(build_unet(1, 4, 3, 6, seed=1), x)
        for n in g.nodes[:-1]:
            if n.kind == "conv":
                sensitivity_sweep(g, [x], [labels], n.id)
        assert g.bit_equal(before)


class TestStoppingCheck:
    def test_reported_metrics_continue(self):
        assert stopping_check((94.71, 88.54), (94.46, 88.48)) == "continue"

    def test_boundary_is_strict(self):
        assert stopping_check((90.0, 90.0), (88.5, 88.5)) == "continue"

    def test_wiou_alone_can_stop(self):
        assert stopping_check((90.0, 90.0), (90.0, 88.4)) == "stop"

    def test_range_validated(self):
        with pytest.raises(ValueError):
            stopping_check((101.0, 90.0), (90.0, 90.0))


class TestFoldBatchNorm:
    def identity_bn_graph(self):
        nodes = [
            conv_node(0, np.random.default_rng(0).normal(size=(2, 3, 3, 3)), [0.1, -0.2], []),
            LayerNode(
                id=1, kind="batch_norm",
                params={
                    ParamKind.BNGamma: t32([1.0, 1.0]),
                    ParamKind.BNBeta: t32([0.0, 0.0]),
                    ParamKind.BNMean: t32([0.0, 0.0]),
                    ParamKind.BNVar: t32([1.0, 1.0]),
                },
                inputs=[0], eps=0.0,
            ),
            conv_node(2, np.random.default_rng(1).normal(size=(2, 2, 1, 1)), [0.0, 0.0], [1]),
        ]
        g = ModelGraph(nodes, n_classes=2, n_input_channels=3)
        validate_model(g)
        return g

    def test_identity_bn_leaves_weights_unchanged(self):
        g = self.identity_bn_graph()
        folded = fold_batch_norm(g)
        assert folded.nodes[0].params[ParamKind.ConvWeight].bit_equal(
            g.nodes[0].params[ParamKind.ConvWeight]
        )
        assert folded.nodes[0].params[ParamKind.ConvBias].bit_equal(
            g.nodes[0].params[ParamKind.ConvBias]
        )

    def test_no_bn_nodes_remain(self):
        g = build_unet(depth=2, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        folded = fold_batch_norm(g)
        assert all(n.kind != "batch_norm" for n in folded.nodes)
        validate_model(folded)

    def test_dual_path_outputs_agree(self):
        g = build_unet(depth=1, base_channels=8, n_input_channels=3, n_classes=6, seed=0)
        folded = fold_batch_norm(g)
        x = synthetic_input(g, 32, 32, seed=7)
        y0 = run_model(g, x).data.astype(np.float64)
        y1 = run_model(folded, x).data.astype(np.float64)
        assert np.max(np.abs(y0 - y1) / (np.abs(y0) + 1e-3)) < 1e-4

    @pytest.mark.parametrize("node, kind", [(0, ParamKind.ConvBias), (1, ParamKind.BNVar)])
    def test_non_finite_parameter_rejected(self, node, kind):
        g = self.identity_bn_graph()
        g.nodes[node].params[kind].data[1] = np.nan
        with pytest.raises(ValueError, match=f"^{g.nodes[node].kind} {node} {kind.value} holds non-finite values$"):
            fold_batch_norm(g)

    def test_bn_without_conv_rejected(self):
        g = self.identity_bn_graph()
        g.nodes[1].inputs = []  # now fed by the model input
        with pytest.raises(ValueError, match="conv"):
            fold_batch_norm(g)

    def test_conv_with_extra_consumers_rejected(self):
        bn = LayerNode(
            id=1, kind="batch_norm",
            params={
                ParamKind.BNGamma: t32([1.0, 1.0]), ParamKind.BNBeta: t32([0.0, 0.0]),
                ParamKind.BNMean: t32([0.0, 0.0]), ParamKind.BNVar: t32([1.0, 1.0]),
            },
            inputs=[0],
        )
        nodes = [
            conv_node(0, np.ones((2, 3, 1, 1)), [0.0, 0.0], []),
            bn,
            LayerNode(id=2, kind="concat", inputs=[1, 0]),
            conv_node(3, np.ones((2, 4, 1, 1)), [0.0, 0.0], [2]),
        ]
        g = ModelGraph(nodes, n_classes=2, n_input_channels=3)
        validate_model(g)
        with pytest.raises(ValueError, match="consumers"):
            fold_batch_norm(g)


class TestQuantizeModel:
    def folded_unet(self, seed=0, base=8):
        g = build_unet(depth=1, base_channels=base, n_input_channels=3, n_classes=6, seed=seed)
        return fold_batch_norm(g)

    def test_symmetric_weight_example(self):
        from seusim.tensor import choose_symmetric_scale, quantize_symmetric

        qp = choose_symmetric_scale(np.asarray([-1.0, 0.0, 1.0]))
        assert qp.scale == pytest.approx(1 / 127)
        np.testing.assert_array_equal(
            quantize_symmetric(np.asarray([-1.0, 0.0, 1.0]), qp), [-127, 0, 127]
        )

    def test_weight_roundtrip_within_half_scale(self):
        g = self.folded_unet()
        calib = [synthetic_input(g, 32, 32, seed=10)]
        q = quantize_model(g, calib)
        for orig, quant in zip(g.nodes, q.nodes):
            if orig.kind != "conv":
                continue
            w = orig.params[ParamKind.ConvWeight].data
            wq = quant.params[ParamKind.ConvWeight]
            err = np.abs(dequantize(wq.data, wq.quant) - w)
            assert err.max() <= wq.quant.scale / 2 + 1e-7
            assert np.abs(wq.data).max() <= 127

    def test_bias_scale_ties_weights_to_input(self):
        g = self.folded_unet()
        q = quantize_model(g, [synthetic_input(g, 32, 32, seed=10)])
        first = q.nodes[0]
        assert first.params[ParamKind.ConvBias].quant.zero_point == 0
        assert first.params[ParamKind.ConvBias].quant.scale == pytest.approx(
            first.params[ParamKind.ConvWeight].quant.scale * q.input_quant.scale
        )

    def test_quantized_golden_close_to_float(self):
        g = self.folded_unet(seed=0)
        calib = [synthetic_input(g, 32, 32, seed=10 + i) for i in range(2)]
        q = quantize_model(g, calib)
        for x in calib:
            mismatch = np.mean(predict_classes(g, x) != predict_classes(q, x))
            assert mismatch <= 0.02

    def test_quantized_inference_deterministic(self):
        g = self.folded_unet()
        q = quantize_model(g, [synthetic_input(g, 32, 32, seed=10)])
        x = synthetic_input(g, 16, 16, seed=3)
        a = run_model(q, x)
        b = run_model(q, x)
        assert a.dtype == "i8" and np.array_equal(a.data, b.data)

    def test_requires_folded_model(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        with pytest.raises(ValueError, match="fold"):
            quantize_model(g, [synthetic_input(g, 16, 16, seed=0)])

    def test_requires_calibration(self):
        g = self.folded_unet()
        with pytest.raises(ValueError, match="calibration"):
            quantize_model(g, [])

    def test_bias_scale_reads_through_upsample(self):
        # conv 3 reads an upsample2 output directly: its input carries
        # activation 1's QuantParams, which the upsample passes on
        rng = np.random.default_rng(5)
        g = ModelGraph([
            conv_node(0, rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4), [], padding=1),
            LayerNode(id=1, kind="activation", act="relu", inputs=[0]),
            LayerNode(id=2, kind="upsample2", inputs=[1]),
            conv_node(3, rng.normal(size=(2, 4, 1, 1)), rng.normal(size=2), [2]),
        ], n_classes=2, n_input_channels=3)
        x = synthetic_input(g, 8, 8, seed=1)
        q = quantize_model(g, [x])
        bias = q.nodes[3].params[ParamKind.ConvBias].quant
        assert bias.scale == q.nodes[3].params[ParamKind.ConvWeight].quant.scale * q.nodes[1].out_quant.scale
        assert q.nodes[1].out_quant != q.nodes[0].out_quant
        assert np.mean(predict_classes(q, x) != predict_classes(g, x)) <= 0.05

    def test_non_finite_calibration_input_rejected(self):
        g = self.folded_unet()
        calib = [synthetic_input(g, 16, 16, seed=i) for i in range(2)]
        calib[1].data[0, 3, 5] = np.nan
        with pytest.raises(ValueError, match="^calibration input 1 holds non-finite values$"):
            quantize_model(g, calib)

    def test_non_finite_weight_rejected(self):
        g = self.folded_unet()
        g.nodes[3].params[ParamKind.ConvWeight].data[1, 0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="^conv 3 ConvWeight holds non-finite values$"):
            quantize_model(g, [synthetic_input(g, 16, 16, seed=0)])

    def test_non_finite_calibrated_range_rejected(self):
        # finite weights whose products overflow float32: the conv's output is Inf
        g = ModelGraph([conv_node(0, np.full((2, 3, 1, 1), 3e38), np.zeros(2), [])],
                       n_classes=2, n_input_channels=3)
        x = t32(np.ones((3, 4, 4)))
        with pytest.raises(ValueError, match=r"^conv 0 output on calibration input 0 spans \[inf, inf\]"):
            quantize_model(g, [x])

    def test_double_quantization_rejected(self):
        g = self.folded_unet()
        q = quantize_model(g, [synthetic_input(g, 16, 16, seed=0)])
        with pytest.raises(ValueError, match="already"):
            quantize_model(q, [synthetic_input(g, 16, 16, seed=0)])


class TestPipeline:
    def test_prune_fold_quantize_composes(self):
        g = build_unet(depth=1, base_channels=8, n_input_channels=3, n_classes=6, seed=0)
        conv_ids = [n.id for n in g.nodes if n.kind == "conv"][:-1]
        pruned = apply_prune(g, PruningPlan({lid: 0.25 for lid in conv_ids}))
        folded = fold_batch_norm(pruned)
        q = quantize_model(folded, [synthetic_input(g, 32, 32, seed=1)])
        x = synthetic_input(g, 16, 16, seed=2)
        assert predict_classes(q, x).shape == (16, 16)
        before = enumerate_fault_space(g, ALL_PARAM_KINDS).total()
        after = enumerate_fault_space(q, ALL_PARAM_KINDS).total()
        assert after < before  # fewer elements and narrower weights

    def test_identity_at_ratio_zero(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        pruned = apply_prune(g, PruningPlan({}))
        assert serialize_model(pruned) == serialize_model(g)
