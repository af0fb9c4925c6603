"""Pinned `records.csv` digests: any change to a kernel, the executor or the
campaign scheduler that alters a single record bit fails here.

Each corpus entry is a (model, config, seed) triple at 32x32 or smaller.
Sigmoid is left out because `expit` may round differently across libm and
scipy builds.  To print the digests of the current code:

    PYTHONPATH=src python -m tests.test_digests
"""

import hashlib

import pytest

from seusim.campaign import CampaignConfig, run_campaign, write_records_csv
from seusim.compress import fold_batch_norm, quantize_model
from seusim.model import ALL_PARAM_KINDS, ParamKind, build_unet, synthetic_input


def _unet(act, seed):
    return build_unet(depth=2, base_channels=8, n_input_channels=3, n_classes=6,
                      activation_kind=act, seed=seed)


def _relu():
    g = _unet("relu", 11)
    return g, CampaignConfig(cap=12, seed=21, inputs=(synthetic_input(g, 32, 32, seed=31),))


def _hard_sigmoid():
    # exponent and sign bits only: a bounded activation masks nearly every mantissa flip
    g = _unet("hard_sigmoid", 12)
    return g, CampaignConfig(cap=12, seed=22, bits=tuple(range(23, 32)),
                             inputs=(synthetic_input(g, 32, 32, seed=32),))


def _int8():
    g = fold_batch_norm(_unet("relu", 13))
    x = synthetic_input(g, 32, 32, seed=33)
    q = quantize_model(g, [x, synthetic_input(g, 32, 32, seed=34)])
    return q, CampaignConfig(cap=16, seed=23, sampling="stratified_per_bit", inputs=(x,),
                             included_kinds=frozenset({ParamKind.ConvWeight, ParamKind.ConvBias}))


def _nan_bits():
    # exponent-MSB and sign flips over every parameter kind, two inputs
    g = _unet("relu", 14)
    xs = (synthetic_input(g, 16, 16, seed=35), synthetic_input(g, 16, 16, seed=36))
    return g, CampaignConfig(cap=6, seed=24, bits=(30, 31), included_kinds=ALL_PARAM_KINDS, inputs=xs)


# digests recorded before the cone-only faulted forward replaced the full one
CORPUS = {
    "relu": (_relu, "4d617db1c68b3d421f825c0f02b3de56376874c0ab63ea277fc2e418a70b219c"),
    "hard_sigmoid": (_hard_sigmoid, "6e04bb837bf72dcb2a8a72ce8fbde7a7a75e51cdd2571a602f09babf06cfb5d3"),
    "int8": (_int8, "c93e023fd3c95315a4cf478047ef061f0b32db5ebb9284a522950eebf0b31f63"),
    "nan_bits_30_31": (_nan_bits, "0c9924a954289bb2994317b34875c05fa33da7d0780bcb9b30cbfa79cb64e106"),
}


def records_digest(name, path):
    model, config = CORPUS[name][0]()
    records, _ = run_campaign(model, config)
    write_records_csv(path, records)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_records_digest_pinned(name, tmp_path):
    assert records_digest(name, tmp_path / "records.csv") == CORPUS[name][1]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        for name in sorted(CORPUS):
            print(name, records_digest(name, Path(d) / "records.csv"))
