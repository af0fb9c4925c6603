"""Closed-form expected error for bit flips in final-layer biases.

An exponent-MSB flip in a small negative bias drives that class's logit
to a huge negative value, so the class is never predicted and every
pixel that held it changes: the error contribution is the class's
golden frequency.  A flip in a positive bias forces the class
everywhere, changing every other pixel: contribution 1 - frequency.
The expected campaign error is the flip-location-weighted mean of the
contributions.

For integer biases, flips at or above a saturation bit position k_sat
always produce the full contribution, lower bits a reduced one; a
per-bit weighting turns all-bit campaign aggregates into a single
comparable rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEGATIVE = "negative"
POSITIVE = "positive"


def class_frequencies(golden: np.ndarray, n_classes: int) -> np.ndarray:
    """Normalized histogram of a golden class map."""
    flat = np.asarray(golden).reshape(-1)
    if flat.size == 0:
        raise ValueError("empty class map")
    if flat.min() < 0 or flat.max() >= n_classes:
        raise ValueError("class index out of range")
    return np.bincount(flat, minlength=n_classes) / flat.size


def bias_signs(bias_values) -> tuple[str, ...]:
    """Sign labels from IEEE sign bits (so -0.0 counts as negative)."""
    return tuple(NEGATIVE if s else POSITIVE for s in np.signbit(np.asarray(bias_values, dtype=np.float32)))


def _check(freqs, signs) -> np.ndarray:
    freqs = np.asarray(freqs, dtype=np.float64)
    if len(signs) != freqs.size:
        raise ValueError("freqs and signs length mismatch")
    bad = set(signs) - {NEGATIVE, POSITIVE}
    if bad:
        raise ValueError(f"unknown sign labels: {bad}")
    return freqs

def bias_flip_contribution(freqs, signs, j: int) -> float:
    """Error caused by an exponent-MSB flip in the bias of class j."""
    freqs = _check(freqs, signs)
    if not 0 <= j < freqs.size:
        raise ValueError(f"class {j} out of range")
    return float(freqs[j]) if signs[j] == NEGATIVE else float(1.0 - freqs[j])


def contributions(freqs, signs) -> np.ndarray:
    freqs = _check(freqs, signs)
    neg = np.asarray([s == NEGATIVE for s in signs])
    return np.where(neg, freqs, 1.0 - freqs)


def _p_fi(p_fi, n: int) -> np.ndarray:
    if p_fi is None:
        return np.full(n, 1.0 / n)
    p = np.asarray(p_fi, dtype=np.float64)
    if p.size != n:
        raise ValueError("p_fi length mismatch")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("p_fi must sum to 1")
    return p


def expected_error_from_contributions(contribs, p_fi=None) -> float:
    c = np.asarray(contribs, dtype=np.float64)
    return float(np.dot(_p_fi(p_fi, c.size), c))


def expected_bias_msb_error(freqs, signs, p_fi=None) -> float:
    """Expected campaign error for exponent-MSB flips across the biases."""
    return expected_error_from_contributions(contributions(freqs, signs), p_fi)


@dataclass(frozen=True)
class SaturationProfile:
    """Bit-significance weighting for integer-bias flips.

    k_sat is the first bit position at which a flip always causes the
    full class-flip effect.  `saturated_only` weights bits >= k_sat at 1
    and the rest at 0; `linear_ramp` ramps linearly from the bottom of
    `bit_range` up to 1 at k_sat.
    """

    k_sat: int
    bit_range: tuple[int, int] = (0, 30)  # inclusive
    weighting: str = "saturated_only"

    def __post_init__(self):
        k_min, k_max = self.bit_range
        if k_min > k_max:
            raise ValueError("empty bit range")
        if not k_min <= self.k_sat <= k_max:
            raise ValueError(f"k_sat {self.k_sat} outside bit range {self.bit_range}")
        if self.weighting not in ("saturated_only", "linear_ramp"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if self.weighting == "linear_ramp" and self.k_sat <= k_min:
            raise ValueError("linear_ramp needs k_sat above the bottom of the range")

    def bits(self) -> np.ndarray:
        return np.arange(self.bit_range[0], self.bit_range[1] + 1)

    def weights(self) -> np.ndarray:
        k = self.bits().astype(np.float64)
        if self.weighting == "saturated_only":
            return (k >= self.k_sat).astype(np.float64)
        return np.clip((k - self.bit_range[0]) / (self.k_sat - self.bit_range[0]), 0.0, 1.0)


def expected_quantized_bias_error(freqs, signs, profile: SaturationProfile, p_fi=None) -> float:
    """Expected error for integer-bias flips under a saturation profile.

    saturated_only reproduces the exponent-MSB expectation (any flip at or
    above k_sat has the full effect); linear_ramp averages the ramped
    per-bit effect over the whole bit range, for comparison against
    all-bit campaign aggregates.
    """
    full = expected_bias_msb_error(freqs, signs, p_fi)
    if profile.weighting == "saturated_only":
        return full
    return float(profile.weights().mean() * full)


def measured_weighted_rate(per_bit_rates, profile: SaturationProfile) -> float:
    """Collapse per-bit measured rates into one profile-weighted rate."""
    bits = profile.bits()
    if isinstance(per_bit_rates, dict):
        missing = [int(b) for b in bits if int(b) not in per_bit_rates]
        if missing:
            raise ValueError(f"missing rates for bits {missing}")
        rates = np.asarray([per_bit_rates[int(b)] for b in bits], dtype=np.float64)
    else:
        rates = np.asarray(per_bit_rates, dtype=np.float64)
        if rates.size != bits.size:
            raise ValueError(f"expected {bits.size} rates for bit range {profile.bit_range}")
    w = profile.weights()
    total = w.sum()
    if total == 0:
        raise ValueError("profile weights are all zero over the bit range")
    return float(np.dot(w, rates) / total)


def prediction_report(
    freqs,
    signs,
    profile: SaturationProfile | None = None,
    p_fi=None,
    measured_msb: float | None = None,
    measured_weighted: float | None = None,
) -> dict:
    """JSON-ready report of expected values and optional measured deviations."""
    freqs = _check(freqs, signs)
    c = contributions(freqs, signs)
    expected_msb = expected_error_from_contributions(c, p_fi)
    report = {
        "class_frequencies": [float(v) for v in freqs],
        "bias_signs": list(signs),
        "p_fi": [float(v) for v in _p_fi(p_fi, freqs.size)],
        "contributions": [float(v) for v in c],
        "expected_msb_error": expected_msb,
    }
    if profile is not None:
        report["profile"] = {
            "k_sat": profile.k_sat,
            "bit_range": list(profile.bit_range),
            "weighting": profile.weighting,
        }
        report["expected_quantized_error"] = expected_quantized_bias_error(freqs, signs, profile, p_fi)
    if measured_msb is not None:
        report["measured_msb_error"] = float(measured_msb)
        report["msb_abs_deviation"] = abs(float(measured_msb) - expected_msb)
    if measured_weighted is not None and profile is not None:
        report["measured_weighted_error"] = float(measured_weighted)
        report["weighted_abs_deviation"] = abs(
            float(measured_weighted) - report["expected_quantized_error"]
        )
    return report
