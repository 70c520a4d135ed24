"""Desk-scale laboratory for the sparse-plus-low-rank structure of rotary
3D attention: exact trigonometric logit expansions, energy-threshold
decompositions, positive-random-feature reconstructions, and the gated fused
mechanism with its alignment trainer."""

__version__ = "0.1.0"
