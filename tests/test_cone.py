"""Differential tests: the cone-only faulted forward against the full one.

`faulted_logits` and `faulted_classes` recompute only the faulted channel
and its descendants; with the fault applied, their logits must equal
`run_model`'s bit for bit, and their class map `predict_classes`'.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seusim.compress import fold_batch_norm, quantize_model
from seusim.inject import FaultLocation, apply_fault, revert
from seusim.model import (
    ALL_PARAM_KINDS,
    ParamKind,
    build_unet,
    fault_channel,
    faulted_classes,
    faulted_logits,
    golden_trace,
    predict_classes,
    run_model,
    synthetic_input,
)
from seusim.tensor import Tensor
from tests.test_model import single_conv_model


def _unet(act):
    return build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=5,
                      activation_kind=act, seed=3)


def _build():
    out = {}
    for act in ("relu", "hard_sigmoid", "sigmoid"):
        g = _unet(act)
        out[act] = (g, synthetic_input(g, 8, 8, seed=4))
    g = fold_batch_norm(_unet("relu"))
    x = synthetic_input(g, 8, 8, seed=5)
    out["int8"] = (quantize_model(g, [x]), x)
    return {name: (g, x, golden_trace(g, x)) for name, (g, x) in out.items()}


MODELS = _build()


def check_location(g, x, golden, loc):
    """Apply `loc`, compare the cone forward with the full one, revert.

    Returns whether the logits held a non-finite value."""
    handle = apply_fault(g, loc)
    try:
        channel = fault_channel(g.node(loc.layer_id), loc.kind, loc.index)
        full = run_model(g, x)
        cone = faulted_logits(g, golden, loc.layer_id, channel)
        assert cone.dtype == full.dtype and cone.quant == full.quant
        assert np.array_equal(cone.raw_bits(), full.raw_bits()), loc
        classes = faulted_classes(g, golden, loc.layer_id, channel)
        assert np.array_equal(classes, predict_classes(g, x)), loc
        return full.dtype == "f32" and not np.isfinite(full.data).all()
    finally:
        revert(handle)


def locations(g, kinds=ALL_PARAM_KINDS):
    return [(n.id, k, t) for n in g.nodes for k, t in n.params.items() if k in kinds]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_faults_match_full_forward(data):
    name = data.draw(st.sampled_from(sorted(MODELS)))
    g, x, golden = MODELS[name]
    lid, kind, t = data.draw(st.sampled_from(locations(g)))
    index = data.draw(st.integers(0, t.size - 1))
    bit = data.draw(st.integers(0, t.bit_width - 1))
    check_location(g, x, golden, FaultLocation(lid, kind, index, bit))


@pytest.mark.parametrize("name", ["relu", "hard_sigmoid", "sigmoid"])
def test_exponent_msb_and_sign_flips_of_every_kind(name):
    # bit 30 turns most parameters into huge values, Inf or NaN downstream
    g, x, golden = MODELS[name]
    pristine = g.copy()
    seen_kinds, non_finite = set(), 0
    for lid, kind, t in locations(g):
        for index in {0, t.size // 2, t.size - 1}:
            for bit in (30, 31):
                non_finite += check_location(g, x, golden, FaultLocation(lid, kind, index, bit))
        seen_kinds.add(kind)
    assert seen_kinds == ALL_PARAM_KINDS
    assert non_finite > 0
    assert g.bit_equal(pristine)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_output_layer_parameter_bit(name):
    # faults in the output conv are ranked against the golden top two keys
    g, x, golden = MODELS[name]
    last = g.nodes[-1]
    for kind, t in last.params.items():
        for index in range(0, t.size, 3):
            for bit in range(t.bit_width):
                check_location(g, x, golden, FaultLocation(last.id, kind, index, bit))


def test_all_minus_inf_pixel_falls_back_to_full_ranking():
    # class 0 is NaN everywhere and class 1 overflows to -inf where x < 0;
    # bit 30 turns class 2's weight 1.0 into +inf, so pixels with x < 0 end
    # up all -inf or NaN, where class 1 (the lowest non-NaN class) must win
    w = np.array([np.nan, 1e30, 1.0], dtype=np.float32).reshape(3, 1, 1, 1)
    g = single_conv_model(out_ch=3, in_ch=1, weights=w)
    x = Tensor(np.array([[[-1e30, 1.0], [-2.0, 0.5]]], dtype=np.float32), "f32")
    golden = golden_trace(g, x)
    np.testing.assert_array_equal(golden.classes, [[2, 1], [2, 1]])
    loc = FaultLocation(0, ParamKind.ConvWeight, 2, 30)
    check_location(g, x, golden, loc)
    handle = apply_fault(g, loc)
    classes = faulted_classes(g, golden, 0, 2)
    revert(handle)
    np.testing.assert_array_equal(classes, [[1, 2], [1, 2]])


def test_one_class_model():
    g = single_conv_model(out_ch=1, in_ch=2, weights=np.full((1, 2, 1, 1), 0.5))
    x = synthetic_input(g, 4, 4, seed=0)
    golden = golden_trace(g, x)
    assert golden.top is None
    for kind, t in g.nodes[0].params.items():
        for bit in range(32):
            check_location(g, x, golden, FaultLocation(0, kind, t.size - 1, bit))


def test_golden_trace_is_not_mutated():
    g, x, golden = MODELS["relu"]
    before = {i: t.data.copy() for i, t in golden.produced.items()}
    check_location(g, x, golden, FaultLocation(0, ParamKind.ConvBias, 1, 30))
    assert all(np.array_equal(before[i].view(np.uint8), t.data.view(np.uint8))
               for i, t in golden.produced.items())
