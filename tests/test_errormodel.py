"""Bias-flip error model, saturation profiles, and IoU metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seusim.errormodel import (
    SaturationProfile,
    bias_flip_contribution,
    bias_signs,
    class_frequencies,
    contributions,
    expected_bias_msb_error,
    expected_error_from_contributions,
    expected_quantized_bias_error,
    measured_weighted_rate,
    prediction_report,
    probabilities,
)
from seusim.metrics import confusion_matrix, giou, giou_wiou_from_confusion, wiou

# reference operating points for the error model: (contribution %, expected
# error %) per row; signs follow the classifier bias signs
UNCOMPRESSED_ROWS = {
    "relu": ([0.0, 55.09, 4.41, 73.05, 7.47, 83.73], 37.29),
    "sigmoid": ([0.0, 56.80, 95.11, 75.63, 92.17, 80.28], 66.66),
    "hard_sigmoid": ([0.0, 58.66, 4.71, 75.72, 93.63, 76.71], 51.57),
}
PRUNED_ROWS = {
    "relu": ([0.0, 55.66, 4.35, 72.93, 7.37, 83.13], 37.24),
    "sigmoid": ([0.0, 58.14, 95.30, 76.52, 93.30, 76.75], 66.67),
    "hard_sigmoid": ([0.0, 57.80, 5.01, 76.05, 93.66, 77.51], 51.67),
}
QUANTIZED_ROWS = {
    "relu": ([0.0, 55.68, 4.24, 73.03, 6.96, 82.48], 37.06),
    "sigmoid": ([0.0, 59.09, 95.48, 77.43, 94.07, 73.93], 66.66),
    "hard_sigmoid": ([0.0, 58.78, 5.23, 76.03, 93.82, 76.61], 51.75),
}

RELU_BIASES = [-0.85, 0.32, -0.03, 0.04, -0.17, 0.11]
RELU_FREQS = [0.0, 0.4491, 0.0441, 0.2695, 0.0747, 0.1627]


class TestClassFrequencies:
    def test_small_map(self):
        freqs = class_frequencies(np.asarray([[0, 0], [1, 2]]), 3)
        np.testing.assert_allclose(freqs, [0.5, 0.25, 0.25])

    def test_uniform_map(self):
        freqs = class_frequencies(np.zeros((4, 4), dtype=int), 5)
        np.testing.assert_allclose(freqs, [1, 0, 0, 0, 0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        freqs = class_frequencies(rng.integers(0, 6, (32, 32)), 6)
        assert freqs.sum() == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="^class id 7 out of range for 3 classes$"):
            class_frequencies(np.asarray([0, 7]), 3)

    def test_negative_class_id_is_named(self):
        with pytest.raises(ValueError, match="^class id -1 out of range for 3 classes$"):
            class_frequencies(np.full((4, 4), -1), 3)


class TestContributions:
    def test_relu_row_from_frequencies(self):
        got = contributions(RELU_FREQS, bias_signs(RELU_BIASES)) * 100
        np.testing.assert_allclose(got, UNCOMPRESSED_ROWS["relu"][0], atol=0.011)

    def test_negative_sign_zero_frequency(self):
        assert bias_flip_contribution([0.0, 1.0], ("negative", "positive"), 0) == 0.0

    def test_positive_sign_full_frequency(self):
        assert bias_flip_contribution([0.0, 1.0], ("negative", "positive"), 1) == 0.0

    def test_negative_zero_counts_as_negative(self):
        signs = bias_signs([-0.0, 0.0])
        assert signs == ("negative", "positive")

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=8))
    def test_contributions_in_unit_interval(self, freqs):
        freqs = np.asarray(freqs)
        total = freqs.sum() or 1.0
        freqs = freqs / total
        signs = tuple("negative" if i % 2 else "positive" for i in range(freqs.size))
        c = contributions(freqs, signs)
        assert np.all((0.0 <= c) & (c <= 1.0))


class TestExpectedError:
    @pytest.mark.parametrize("rows", [UNCOMPRESSED_ROWS, PRUNED_ROWS, QUANTIZED_ROWS])
    def test_reference_rows(self, rows):
        for name, (contribs, expected_pct) in rows.items():
            got = expected_error_from_contributions(np.asarray(contribs) / 100) * 100
            assert got == pytest.approx(expected_pct, abs=0.01), name

    def test_from_frequencies_and_signs(self):
        got = expected_bias_msb_error(RELU_FREQS, bias_signs(RELU_BIASES)) * 100
        assert got == pytest.approx(37.29, abs=0.01)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        freqs = rng.dirichlet(np.ones(6))
        signs = tuple(rng.choice(["negative", "positive"], 6))
        p_fi = rng.dirichlet(np.ones(6))
        base = expected_bias_msb_error(freqs, signs, p_fi)
        for _ in range(10):
            perm = rng.permutation(6)
            assert expected_bias_msb_error(
                freqs[perm], tuple(signs[i] for i in perm), p_fi[perm]
            ) == pytest.approx(base)

    def test_all_negative_bounded_by_max_frequency(self):
        rng = np.random.default_rng(2)
        freqs = rng.dirichlet(np.ones(6))
        got = expected_bias_msb_error(freqs, ("negative",) * 6)
        assert got == pytest.approx(freqs.mean())
        assert got <= freqs.max()

    def test_expected_below_max_contribution(self):
        c = contributions(RELU_FREQS, bias_signs(RELU_BIASES))
        assert expected_error_from_contributions(c) <= c.max()

    def test_p_fi_must_normalize(self):
        with pytest.raises(ValueError):
            expected_bias_msb_error(RELU_FREQS, bias_signs(RELU_BIASES), p_fi=[1, 1, 1, 1, 1, 1])

    def test_p_fi_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            expected_bias_msb_error(RELU_FREQS, bias_signs(RELU_BIASES), p_fi=[-0.5, 1.5, 0, 0, 0, 0])

    @pytest.mark.parametrize("values, n", [
        ([], None),
        ([0.5, 0.5], 3),
        ([[0.5, 0.5]], None),
        ([-0.5, 1.5], None),
        ([0.5, float("nan")], None),
        ([0.5, 0.4989], 2),  # off by 1.1e-3
        ([0.5, 0.5011], None),
    ])
    def test_probabilities_rejected(self, values, n):
        with pytest.raises(ValueError, match="^the name: expected"):
            probabilities(values, "the name", n)

    @pytest.mark.parametrize("values, n", [([0.1667] * 6, 6), ([0.1667] * 6, None), ([1], 1), ([0.5, 0.4991], 2)])
    def test_probabilities_accepted(self, values, n):
        assert probabilities(values, "the name", n).tolist() == values


class TestSaturationProfile:
    def test_saturated_only_equals_msb_expectation(self):
        prof = SaturationProfile(k_sat=17)
        signs = bias_signs(RELU_BIASES)
        assert expected_quantized_bias_error(RELU_FREQS, signs, prof) == pytest.approx(
            expected_bias_msb_error(RELU_FREQS, signs)
        )

    def test_quantized_reference_rows(self):
        for name, k_sat in (("relu", 17), ("sigmoid", 19), ("hard_sigmoid", 19)):
            contribs, expected_pct = QUANTIZED_ROWS[name]
            contribs = np.asarray(contribs) / 100
            signs = ("negative", "positive", "negative", "positive", "negative", "positive")
            freqs = np.where([s == "negative" for s in signs], contribs, 1 - contribs)
            prof = SaturationProfile(k_sat=k_sat, bit_range=(0, 30))
            got = expected_quantized_bias_error(freqs, signs, prof) * 100
            assert got == pytest.approx(expected_pct, abs=0.01), name

    def test_linear_ramp_degenerates_to_step(self):
        step = SaturationProfile(k_sat=1, bit_range=(0, 4), weighting="linear_ramp")
        np.testing.assert_allclose(step.weights(), [0, 1, 1, 1, 1])

    def test_linear_ramp_weights(self):
        prof = SaturationProfile(k_sat=4, bit_range=(0, 6), weighting="linear_ramp")
        np.testing.assert_allclose(prof.weights(), [0, 0.25, 0.5, 0.75, 1, 1, 1])

    def test_linear_ramp_expected_scales_by_mean_weight(self):
        prof = SaturationProfile(k_sat=4, bit_range=(0, 6), weighting="linear_ramp")
        signs = bias_signs(RELU_BIASES)
        full = expected_bias_msb_error(RELU_FREQS, signs)
        got = expected_quantized_bias_error(RELU_FREQS, signs, prof)
        assert got == pytest.approx(prof.weights().mean() * full)

    def test_ramp_requires_headroom(self):
        with pytest.raises(ValueError):
            SaturationProfile(k_sat=0, bit_range=(0, 6), weighting="linear_ramp")

    def test_k_sat_inside_range(self):
        with pytest.raises(ValueError):
            SaturationProfile(k_sat=31, bit_range=(0, 30))


class TestMeasuredWeightedRate:
    def test_constant_rates_pass_through(self):
        prof = SaturationProfile(k_sat=17)
        assert measured_weighted_rate([0.4] * 31, prof) == pytest.approx(0.4)
        ramp = SaturationProfile(k_sat=17, weighting="linear_ramp")
        assert measured_weighted_rate([0.4] * 31, ramp) == pytest.approx(0.4)

    def test_step_profile_reads_saturated_region(self):
        prof = SaturationProfile(k_sat=17, bit_range=(0, 30))
        rates = [0.0] * 17 + [1.0] * 14
        assert measured_weighted_rate(rates, prof) == 1.0

    def test_hand_computed_ramp(self):
        prof = SaturationProfile(k_sat=2, bit_range=(0, 3), weighting="linear_ramp")
        rates = np.asarray([0.1, 0.2, 0.3, 0.4])
        w = np.asarray([0.0, 0.5, 1.0, 1.0])
        expect = float(np.dot(w, rates) / w.sum())
        assert measured_weighted_rate(rates, prof) == pytest.approx(expect, abs=1e-12)

    def test_wrong_length_rejected(self):
        prof = SaturationProfile(k_sat=2, bit_range=(0, 3))
        with pytest.raises(ValueError):
            measured_weighted_rate([0.1, 0.2], prof)


class TestPredictionReport:
    def test_report_contents(self):
        prof = SaturationProfile(k_sat=17)
        report = prediction_report(RELU_FREQS, bias_signs(RELU_BIASES), profile=prof,
                                   measured_msb=0.34)
        assert report["expected_msb_error"] == pytest.approx(0.3729, abs=1e-4)
        assert report["expected_quantized_error"] == report["expected_msb_error"]
        assert report["msb_abs_deviation"] == pytest.approx(0.0329, abs=1e-4)
        assert report["profile"]["k_sat"] == 17


class TestIoUMetrics:
    def test_identical_maps_are_perfect(self):
        m = np.random.default_rng(0).integers(0, 4, (8, 8))
        assert giou(m, m.copy(), 4) == 100.0
        assert wiou(m, m.copy(), 4) == 100.0

    def test_disjoint_maps_are_zero(self):
        a = np.zeros((4, 4), dtype=int)
        b = np.ones((4, 4), dtype=int)
        assert giou(a, b, 2) == 0.0
        assert wiou(a, b, 2) == 0.0

    def test_two_class_confusion_example(self):
        # confusion [[3,1],[1,3]]: per-class IoU 0.6 -> GIoU = WIoU = 60
        labels = np.asarray([0, 0, 0, 0, 1, 1, 1, 1])
        preds = np.asarray([0, 0, 0, 1, 1, 1, 1, 0])
        assert giou(labels, preds, 2) == pytest.approx(60.0)
        assert wiou(labels, preds, 2) == pytest.approx(60.0)

    def test_confusion_matrix_layout(self):
        labels = np.asarray([0, 0, 1])
        preds = np.asarray([0, 1, 1])
        np.testing.assert_array_equal(confusion_matrix(labels, preds, 2), [[1, 1], [0, 1]])

    def test_giou_equals_wiou_when_per_class_iou_constant(self):
        # both classes at IoU 1/3, balanced labels
        labels = np.asarray([0, 0, 0, 1, 1, 1])
        preds = np.asarray([0, 1, 1, 1, 0, 0])
        g, w = giou_wiou_from_confusion(confusion_matrix(labels, preds, 2))
        assert g == pytest.approx(w)

    def test_absent_class_excluded(self):
        labels = np.asarray([0, 0, 1, 1])
        preds = np.asarray([0, 0, 1, 1])
        g, w = giou_wiou_from_confusion(confusion_matrix(labels, preds, 3))
        assert g == 100.0 and w == 100.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            giou(np.zeros((2, 2), dtype=int), np.zeros((3, 2), dtype=int), 2)
