"""Desk-scale laboratory for the sparse-plus-low-rank structure of rotary
3D attention: exact trigonometric logit expansions, energy-threshold
decompositions, positive-random-feature reconstructions, and the gated fused
mechanism with its alignment trainer."""

__version__ = "0.1.0"


class InvalidInput(ValueError):
    """An argument outside its valid range, raised by the checks a command-line
    value can trip; the command line reports it as bad input (exit 2).  Shape
    and consistency checks raise a plain ValueError, a library fault."""
