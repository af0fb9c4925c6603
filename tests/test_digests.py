"""Pinned digests: any change to a kernel, the executor or the campaign
scheduler that alters a single `records.csv` bit fails here, and so does
any change to the sampler that moves a single drawn location, or to a
model transform that alters a single serialized bit.

Each campaign corpus entry is a (model, config, seed) triple at 32x32 or
smaller.  Sigmoid is left out of the campaigns because `expit` may round
differently across libm and scipy builds; the transform corpus keeps it,
and only its quantize step (calibration runs the sigmoid) depends on
`expit`.  To print the digests of the current code:

    PYTHONPATH=src python -m tests.test_digests
"""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seusim.campaign import SAMPLING_MODES, CampaignConfig, plan, run_campaign, write_records_csv
from seusim.compress import PRUNE_RATIOS, PruningPlan, apply_prune, fold_batch_norm, quantize_model
from seusim.inject import FaultLocation, apply_fault, revert
from seusim.model import ALL_PARAM_KINDS, ParamKind, build_bias_probe_model, build_unet, synthetic_input
from seusim.modelio import serialize_model


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


def _int8_wide():
    # base 24: the decoder convs read 144 and 72 channels, 1296 and 648 taps,
    # past the 514 for which the int8 conv's float32 GEMMs are exact
    g = fold_batch_norm(build_unet(depth=2, base_channels=24, n_input_channels=3, n_classes=6,
                                   activation_kind="relu", seed=15))
    x = synthetic_input(g, 32, 32, seed=37)
    q = quantize_model(g, [x, synthetic_input(g, 32, 32, seed=38)])
    return q, CampaignConfig(cap=16, seed=25, sampling="stratified_per_bit", inputs=(x,),
                             included_kinds=frozenset({ParamKind.ConvWeight, ParamKind.ConvBias}))


def _int8_hard_sigmoid():
    # every int8 activation a 256-entry hard_sigmoid table; model seed 26
    # predicts three classes at 32x32, where most seeds predict one
    g = fold_batch_norm(_unet("hard_sigmoid", 26))
    x = synthetic_input(g, 32, 32, seed=39)
    q = quantize_model(g, [x, synthetic_input(g, 32, 32, seed=40)])
    return q, CampaignConfig(cap=16, seed=26, sampling="stratified_per_bit", inputs=(x,),
                             included_kinds=frozenset({ParamKind.ConvWeight, ParamKind.ConvBias}))


def _nan_bits():
    # exponent-MSB and sign flips over every parameter kind, two inputs
    g = _unet("relu", 14)
    xs = (synthetic_input(g, 16, 16, seed=35), synthetic_input(g, 16, 16, seed=36))
    return g, CampaignConfig(cap=6, seed=24, bits=(30, 31), included_kinds=ALL_PARAM_KINDS, inputs=xs)


def _bias_probe():
    # every bit of every output bias (6 x 32 = 192 faults; e small enough
    # that n = N), on two class layouts; bit 30 turns +-1 and +-1.5 into
    # +-Inf and NaN
    biases, freqs = [0.25, -1.0, 1.5, -0.5, 1.0, -1.5], [0.0, 0.45, 0.05, 0.27, 0.07, 0.16]
    g, x = build_bias_probe_model(biases, freqs, seed=26, image_hw=(32, 32))
    _, x2 = build_bias_probe_model(biases, freqs, seed=27, image_hw=(32, 32))
    return g, CampaignConfig(e=0.001, cap=192, seed=0, layers=(g.nodes[-1].id,),
                             included_kinds=frozenset({ParamKind.ConvBias}), inputs=(x, x2))


# digests recorded before the cone-only faulted forward replaced the full one,
# bias_probe before output-layer faults were scored against per-class planes,
# int8_hard_sigmoid before int8 lookup tables were kept with the golden run
CORPUS = {
    "relu": (_relu, "4d617db1c68b3d421f825c0f02b3de56376874c0ab63ea277fc2e418a70b219c"),
    "hard_sigmoid": (_hard_sigmoid, "6e04bb837bf72dcb2a8a72ce8fbde7a7a75e51cdd2571a602f09babf06cfb5d3"),
    "int8": (_int8, "c93e023fd3c95315a4cf478047ef061f0b32db5ebb9284a522950eebf0b31f63"),
    "int8_hard_sigmoid": (_int8_hard_sigmoid, "36ffacbfd166b5e5cbadcefa4ccde4068140d4affd752fc084fe87e8bc9cc68a"),
    "int8_wide": (_int8_wide, "27c765d75a3fa7bdc4aa494943568ac404c41b2a3bb150b6401c04009fa7fdbc"),
    "nan_bits_30_31": (_nan_bits, "0c9924a954289bb2994317b34875c05fa33da7d0780bcb9b30cbfa79cb64e106"),
    "bias_probe": (_bias_probe, "aa8803ee6d224633e969f0deafd09f2622a48fdd2a3b04d1aad910655786a66a"),
}


def records_digest(name, path, jobs=1):
    model, config = CORPUS[name][0]()
    records, _ = run_campaign(model, config, jobs)
    write_records_csv(path, records)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# the same digests at every job count; jobs 1 keeps the bare corpus name as its id
@pytest.mark.parametrize("name, jobs", [
    pytest.param(name, jobs, id=name if jobs == 1 else f"{name}-jobs{jobs}")
    for name in sorted(CORPUS) for jobs in (1, 2, 3)
])
def test_records_digest_pinned(name, jobs, tmp_path):
    assert records_digest(name, tmp_path / "records.csv", jobs) == CORPUS[name][1]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_int8_digest_independent_of_blas_threads(threads, tmp_path):
    # Guards the int8 records against the BLAS thread count: were an int8 BLAS
    # call to grow past the size at which OpenBLAS threads it, the run with 2
    # threads would split it, and a bit that the split changed would show here.
    # It cannot see a thread-count dependence below the 2**18 multiply-add cap
    # per call: OpenBLAS 0.3.31 runs every call of that size on the calling
    # thread at either count, so both runs make the same calls.  A fresh
    # process reads the thread count at start-up.  The run at jobs 2 forks
    # its worker after OpenBLAS has started its threads.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    code = ("from pathlib import Path; from tests.test_digests import records_digest; "
            f"[print(records_digest('int8', Path({str(tmp_path / 'r.csv')!r}), jobs)) for jobs in (1, 2)]")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    assert done.stdout.split() == [CORPUS["int8"][1]] * 2


def _readme_unets():
    """The README U-Net in f32 and folded int8; sampling reads shapes only."""
    g = _unet("relu", 0)
    return g, quantize_model(fold_batch_norm(g), [synthetic_input(g, 16, 16, seed=1)])


SAMPLER_CAPS = (1, 7, 1550)
SAMPLER_BITS = (None, (30, 31), tuple(range(8)), (3, 9, 23, 31))
SAMPLER_KINDS = (ALL_PARAM_KINDS, frozenset({ParamKind.ConvBias}))


def sampler_digest():
    """SHA-256 over every corpus config of its plan entries' (layer, N) and
    the locations drawn for them, in draw order.  The injection counts are
    left out: the drawn locations carry them."""
    h = hashlib.sha256()
    for model in _readme_unets():
        for sampling, cap, bits, kinds in itertools.product(SAMPLING_MODES, SAMPLER_CAPS,
                                                            SAMPLER_BITS, SAMPLER_KINDS):
            config = CampaignConfig(cap=cap, seed=cap, sampling=sampling, bits=bits, included_kinds=kinds)
            for entry in plan(model, config).entries:
                h.update(f"{entry.layer_id} {entry.fault_space}\n".encode())
                for loc in entry.locations:
                    h.update(f"{loc.layer_id} {loc.kind.value} {loc.index} {loc.bit}\n".encode())
    return h.hexdigest()


# recorded before plan() and the sampler shared one draw schedule
SAMPLER_DIGEST = "328d1fee1eb8b86647637b956c97722821a668ee4eca0ac25c55f48f62433683"


def test_sampler_digest_pinned():
    assert sampler_digest() == SAMPLER_DIGEST


def _mixed_plan(g, seed):
    """A different ratio for every prunable conv, 0.0 and 0.9 included."""
    convs = [n.id for n in g.nodes[:-1] if n.kind == "conv"]
    return PruningPlan({lid: PRUNE_RATIOS[(3 * i + seed) % 10] for i, lid in enumerate(convs)})


def _derived(g, seed):
    """copy, prune, fold, quantize (and a copy of the int8 model) of `g`."""
    pruned = apply_prune(g, _mixed_plan(g, seed))
    folded = fold_batch_norm(pruned)
    calib = [synthetic_input(g, 32, 32, seed=seed + s) for s in (40, 41)]
    quantized = quantize_model(folded, calib)
    return [g.copy(), pruned, folded, quantized, quantized.copy()]


# digests recorded before the transforms were rewritten with dataclasses.replace
TRANSFORM_SEEDS = (0, 1, 2)
TRANSFORM_CORPUS = {
    "relu": "3491dfe58def524f6ca9fda00289e048f68d00744f2e52268687296586d72ce6",
    "hard_sigmoid": "409b70eeb1bb76a8b5215b95f649ea7c5cab018158f02a61e623e64b9bf5572c",
    "sigmoid": "cd7f70232d80f5080b4d3fed65fa5716ccfd6e37490c6b9439e03cc199a64e41",
}


def transform_digest(act):
    h = hashlib.sha256()
    for seed in TRANSFORM_SEEDS:
        for m in _derived(_unet(act, seed), seed):
            h.update(serialize_model(m))
    return h.hexdigest()


@pytest.mark.parametrize("act", sorted(TRANSFORM_CORPUS))
def test_transform_digest_pinned(act):
    assert transform_digest(act) == TRANSFORM_CORPUS[act]


def test_derived_models_accept_faults():
    # a derived model is a new view: the source's active fault stays behind
    g = _unet("relu", 5)
    handle = apply_fault(g, FaultLocation(0, ParamKind.ConvWeight, 3, 2))
    for m in _derived(g, 5):
        revert(apply_fault(m, FaultLocation(0, ParamKind.ConvBias, 0, 31)))
    revert(handle)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        for name in sorted(CORPUS):
            print(name, records_digest(name, Path(d) / "records.csv"))
    for act in sorted(TRANSFORM_CORPUS):
        print(act, transform_digest(act))
    print("sampler", sampler_digest())
