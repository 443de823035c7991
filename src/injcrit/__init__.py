"""Graded commutative-algebra kernel over prime fields, with mechanized
checkers for finite-injective-dimension criteria and an independent
dense-linear-algebra oracle."""

__version__ = "0.1.0"

from .field import DEFAULT_PRIME, PrimeField
from .modules import GradedModule, RingPresentation
from .poly import PolyRing

__all__ = ["DEFAULT_PRIME", "PrimeField", "PolyRing", "RingPresentation",
           "GradedModule", "__version__"]
