"""Exact Betti numbers of compact homogeneous spaces from Lie-theoretic data.

The package takes a compact reductive Lie algebra g with rational structure
constants, a subalgebra h, and (optionally) finitely many component
generators, and computes the real Betti numbers of the corresponding
quotient three independent ways: closed low-degree formulas, a complex built
on the free exterior algebra of primitive generators, and the relative
cochain complex of invariant horizontal forms.  All arithmetic is rational.
"""

from .betti import BettiReport, betti_low, corollary_checks
from .ce import RelativeComplex, betti_ce, poincare_check, relative_complex
from .invariant_forms import (InvariantFormSpace, invariant_polynomials,
                              psi_analysis)
from .koszul import betti_koszul, build_complex
from .liealg import LieAlgebra, ValidationError, ValidationReport, validate
from .pairs import HomogeneousPair, PairDecomposition, decompose, validate_pair

__all__ = [
    "BettiReport", "HomogeneousPair", "InvariantFormSpace", "LieAlgebra",
    "PairDecomposition", "RelativeComplex", "ValidationError",
    "ValidationReport", "betti_ce", "betti_koszul", "betti_low",
    "build_complex", "corollary_checks", "decompose", "invariant_polynomials",
    "poincare_check", "psi_analysis", "relative_complex", "validate",
    "validate_pair",
]

__version__ = "0.1.0"
