"""Desk-scale laboratory for the sparse-plus-low-rank structure of rotary
3D attention: exact trigonometric logit expansions, energy-threshold
decompositions, positive-random-feature reconstructions, and the gated fused
mechanism with its alignment trainer."""

from .analysis import (
    GateMap,
    GramSpectrum,
    SpectralReport,
    gate_map,
    gram_spectral,
    interaction_magnitude,
    residual_stable_rank,
    residual_stable_rank_sweep,
    spectral_decay_report,
)
from .decomposition import (
    DESK_CAP,
    AttentionMatrix,
    Decomposition,
    RowEnergySplit,
    SparsityReport,
    background_inf_norm,
    energy_split,
    row_energy_split,
    softmax_attention,
    synthetic_attention,
    synthetic_qk,
    theorem_scaling_sweep,
    verify_sparsity_bound,
)
from .flops import (
    FlopsConfig,
    c_fusion,
    c_linear_branch,
    c_lowrank,
    c_sparse,
    lowrank_vs_linear_ratio,
    overhead_eta,
    total_ropeslr,
)
from .linalg import (
    SvdResult,
    numerical_rank,
    percentile,
    stable_rank,
    svd,
)
from .lowrank import (
    FavorMap,
    Reconstruction,
    approx_kernel,
    favor_features,
    favor_map,
    normalize_rows,
    reconstruct,
    residual_sparse,
)
from .mechanism import (
    AlignmentTask,
    Backbone,
    ForwardSettings,
    ForwardTrace,
    MechanismParams,
    SparseSettings,
    TrainResult,
    block_sparse_attention,
    build_pe3d,
    forward,
    full_attention_reference,
    grad_check,
    init_params,
    load_params,
    make_alignment_task,
    random_backbone,
    save_params,
    train_stage1,
)
from .rope3d import (
    FourierCoeffs,
    GridShape,
    RopeConfig,
    choose_truncation,
    fourier_coeffs,
    freq,
    frequency_term_matrix,
    logit_direct,
    logit_fourier,
    logit_matrix,
    rotate,
    rotate_rows,
)

__version__ = "0.1.0"
