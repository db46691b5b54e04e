"""Exact finite-field FFTs on multiplicative, additive, and cyclic point sets."""

from .afft import (
    AddPlan,
    add_fft,
    add_ifft,
    add_plan,
    lch_to_standard,
    padic_expand,
    padic_reassemble,
    standard_to_lch,
)
from .cfft import CyclicPlan, cyclic_plan, q1_fft, q1_ifft, std_to_tilde, tilde_to_std
from .gf import (
    Field,
    FieldElement,
    OpCounter,
    field_make,
    find_primitive_element,
    find_primitive_quadratic,
)
from .mfft import MultPlan, mult_fft, mult_ifft, mult_plan
from .moebius import MoebiusMap, match_moebius
from .oracle import BasisMatrix, basis_matrix, lagrange_interpolate, mpe_horner
from .poly import INF, Poly, RatFn, compose_moebius
from .vectors import BASIS_CYCLIC, BASIS_LCH, BASIS_STANDARD, CoeffVec, CyclicEvalVec

__all__ = [
    "AddPlan", "BasisMatrix", "BASIS_CYCLIC", "BASIS_LCH", "BASIS_STANDARD",
    "CoeffVec", "CyclicEvalVec", "CyclicPlan", "Field", "FieldElement", "INF",
    "MoebiusMap", "MultPlan", "OpCounter", "Poly", "RatFn",
    "add_fft", "add_ifft", "add_plan", "basis_matrix", "compose_moebius",
    "cyclic_plan", "field_make", "find_primitive_element",
    "find_primitive_quadratic", "lagrange_interpolate", "lch_to_standard",
    "match_moebius", "mpe_horner", "mult_fft", "mult_ifft", "mult_plan",
    "padic_expand", "padic_reassemble", "q1_fft", "q1_ifft", "standard_to_lch",
    "std_to_tilde", "tilde_to_std",
]
