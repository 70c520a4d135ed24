"""Multiply-accumulate cost model of the fused attention and its ratios.

Counts are real valued so fractional sparsity flows through exactly; rounding
is a display concern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import InvalidInput


@dataclass(frozen=True)
class FlopsConfig:
    b: int  # batch
    h: int  # heads
    l: int  # sequence length
    d_h: int  # head dim
    s: float  # sparsity fraction of the sparse branch
    r: int  # compensator rank

    def __post_init__(self):
        if min(self.b, self.h, self.l, self.d_h, self.r) < 1:
            raise InvalidInput("b, h, l, d_h and r must be positive counts")
        if not (np.isfinite(self.s) and 0.0 <= self.s < 1.0):
            raise InvalidInput(f"sparsity must lie in [0, 1), got {self.s}")


def c_sparse(cfg: FlopsConfig) -> float:
    return 4.0 * cfg.b * cfg.h * cfg.l ** 2 * (1.0 - cfg.s) * cfg.d_h


def c_full(cfg: FlopsConfig) -> float:
    """Dense attention cost, the s = 0 limit of the sparse branch."""
    return 4.0 * cfg.b * cfg.h * cfg.l ** 2 * cfg.d_h


def c_lowrank(cfg: FlopsConfig) -> float:
    return 4.0 * cfg.b * cfg.h * cfg.l * cfg.d_h * cfg.r


def c_fusion(cfg: FlopsConfig) -> float:
    return 2.0 * cfg.b * cfg.h * cfg.l * cfg.d_h


def c_linear_branch(cfg: FlopsConfig) -> float:
    return 4.0 * cfg.b * cfg.h * cfg.l * cfg.d_h ** 2


def lowrank_vs_linear_ratio(cfg: FlopsConfig) -> float:
    """Compensator cost over a linear-attention branch cost, exactly r / d_h."""
    return cfg.r / cfg.d_h


def overhead_eta(cfg: FlopsConfig) -> float:
    """Extra cost of compensator plus fusion relative to the sparse branch,
    exactly (r + 0.5) / (L (1 - s)); vanishes as L grows."""
    return (cfg.r + 0.5) / (cfg.l * (1.0 - cfg.s))


def total_ropeslr(cfg: FlopsConfig) -> float:
    return c_sparse(cfg) + c_lowrank(cfg) + c_fusion(cfg)
