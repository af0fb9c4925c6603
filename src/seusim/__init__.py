"""Soft-error robustness toolkit for encoder-decoder segmentation CNNs.

Builds deterministic float32/int8 models, runs statistically-sized
single-bit-upset injection campaigns against their parameters, applies
pruning/quantization transforms, and cross-checks measured error rates
against a closed-form bias-flip error model.
"""

__version__ = "0.1.0"

from .campaign import (
    CampaignConfig,
    CampaignPlan,
    ErrorMatrix,
    InjectionRecord,
    aggregate,
    golden_run,
    injections,
    pixel_mismatch_rate,
    plan,
    run_campaign,
    sample_size,
)
from .compress import (
    PruningPlan,
    SensitivityCurve,
    apply_prune,
    evaluate_model,
    fold_batch_norm,
    l1_filter_ranking,
    quantize_model,
    sensitivity_sweep,
    stopping_check,
)
from .errormodel import (
    SaturationProfile,
    bias_flip_contribution,
    bias_signs,
    class_frequencies,
    expected_bias_msb_error,
    expected_error_from_contributions,
    expected_quantized_bias_error,
    measured_weighted_rate,
    prediction_report,
)
from .inject import (
    FaultLocation,
    FlipClassification,
    apply_fault,
    flip_bit,
    partial_exponent_census,
    revert,
    value_range_census,
)
from .metrics import confusion_matrix, giou, wiou
from .model import (
    DEFAULT_CAMPAIGN_KINDS,
    FaultSpace,
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
from .modelio import (
    ModelFormatError,
    ModelVersionError,
    load_model,
    model_digest,
    save_model,
)
from .tensor import (
    QuantParams,
    Tensor,
    activation,
    argmax_classes,
    batch_norm,
    concat_channels,
    conv2d,
    max_pool2,
    upsample2,
)
