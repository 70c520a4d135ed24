import math

import pytest

from ropeslr.flops import (
    FlopsConfig,
    c_full,
    c_fusion,
    c_linear_branch,
    c_lowrank,
    c_sparse,
    lowrank_vs_linear_ratio,
    overhead_eta,
    total_ropeslr,
)

CONFIGS = [
    FlopsConfig(b=1, h=1, l=118800, d_h=128, s=0.9, r=64),
    FlopsConfig(b=2, h=8, l=4096, d_h=64, s=0.5, r=32),
    FlopsConfig(b=1, h=4, l=1152, d_h=16, s=0.0, r=4),
    FlopsConfig(b=3, h=2, l=27, d_h=8, s=0.25, r=1),
]


@pytest.mark.parametrize("fc", CONFIGS)
def test_overhead_eta_is_compensator_plus_fusion_over_sparse(fc):
    assert math.isclose(overhead_eta(fc), (c_lowrank(fc) + c_fusion(fc)) / c_sparse(fc),
                        rel_tol=1e-12)


@pytest.mark.parametrize("fc", CONFIGS)
def test_lowrank_vs_linear_ratio_is_r_over_d_h(fc):
    ratio = lowrank_vs_linear_ratio(fc)
    assert ratio == fc.r / fc.d_h
    assert math.isclose(ratio, c_lowrank(fc) / c_linear_branch(fc), rel_tol=1e-12)


@pytest.mark.parametrize("fc", CONFIGS)
def test_total_and_dense_limit(fc):
    assert total_ropeslr(fc) == c_sparse(fc) + c_lowrank(fc) + c_fusion(fc)
    dense = FlopsConfig(b=fc.b, h=fc.h, l=fc.l, d_h=fc.d_h, s=0.0, r=fc.r)
    assert c_sparse(dense) == c_full(fc)


@pytest.mark.parametrize("kw", [dict(b=0), dict(r=0), dict(s=1.0), dict(s=-0.1),
                                dict(s=float("nan"))])
def test_flops_config_rejects_bad_values(kw):
    base = dict(b=1, h=1, l=64, d_h=8, s=0.5, r=4)
    with pytest.raises(ValueError):
        FlopsConfig(**{**base, **kw})
