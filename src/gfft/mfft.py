"""Multiplicative transform: evaluation on a coset of the order-n subgroup of
F_q^* for smooth n | q-1, with the power-map tower x -> x^(p_i) per level.

The coefficient basis is the standard monomial basis; the points run in the
j-major order beta * omega^j, and engine.fiber_levels builds each level's
points by the power map and checks them constant on its fibers (every
(size/p)-th point of the level below).
"""

from __future__ import annotations

from math import prod

from . import engine
from .errors import RadixNotDividingGroupOrder, ValidationError
from .gf import Field, find_primitive_element, square_multiply
from .vectors import BASIS_STANDARD, CoeffVec, coeff_values, plan_list, standard_values, value_raws


class MultPlan:
    case = "mult"
    basis = BASIS_STANDARD

    def __init__(self, field: Field, radices, beta=1):
        radices, n = engine.check_radices(radices)
        if (field.q - 1) % n != 0:
            raise RadixNotDividingGroupOrder(f"{n} does not divide q-1 = {field.q - 1}")
        beta = field.raw(beta)
        if beta == 0:
            raise ValidationError("coset shift must be nonzero")

        self.field = field
        self.radices = radices
        self.n = n
        self.beta = beta
        self.alpha = find_primitive_element(field).raw
        self.omega = field.pow(self.alpha, (field.q - 1) // n)
        self.level_points, self.kernel = coset_kernel(field, radices, self.omega, beta)
        self.points = self.level_points[0]

    def fft(self, coeffs):
        return mult_fft(self, coeffs)

    def ifft(self, values) -> CoeffVec:
        return mult_ifft(self, values)

    def to_standard(self, coeffs) -> CoeffVec:
        """The identity, as the plan's basis is the standard one; the entries
        are read and checked as the transforms read them."""
        vals = coeff_values(self.field, coeffs, BASIS_STANDARD, self.n)
        return CoeffVec(tuple(vals), BASIS_STANDARD)

    def from_standard(self, coeffs) -> CoeffVec:
        return CoeffVec(tuple(standard_values(self.field, coeffs, self.n)), BASIS_STANDARD)

    def describe(self) -> list:
        return [f"multiplicative plan: n={self.n} radices={list(self.radices)}",
                f"omega = {self.omega}  beta = {self.beta}"]

    def to_json(self) -> dict:
        out = self.field.serialize_raw
        return {"radices": list(self.radices), "beta": out(self.beta),
                "tables": {"alpha": out(self.alpha), "omega": out(self.omega),
                           "points": [out(v) for v in self.points]}}

    @staticmethod
    def from_json(field: Field, obj) -> "MultPlan":
        return mult_plan(field, plan_list(obj, "radices", ints=True), field.parse_raw(obj["beta"]))

    def __repr__(self):
        return f"MultPlan(q={self.field.q}, n={self.n}, radices={self.radices}, beta={self.beta})"


def mult_plan(field: Field, radices, beta=1) -> MultPlan:
    return MultPlan(field, radices, beta)


def coset_kernel(field: Field, radices, omega, beta=1):
    """(level_points, levels) on the n = prod(radices) points beta * omega^j,
    omega of order n: x_i = x^(p_1...p_i), checked constant on each fiber, and
    the engine Levels with forward's tables, for MultPlan and a full cyclic
    plan's conversions (cfft.CyclicPlan.mult_route)."""
    pts, acc = [], beta
    for _ in range(prod(radices)):
        pts.append(acc)
        acc = field.mul(acc, omega)
    if len(set(pts)) != len(pts):
        raise ValidationError("evaluation points not distinct; omega order wrong")
    level_points = engine.fiber_levels(
        pts, radices, lambda i, xs: square_multiply(field.products, xs, radices[i - 1], None))
    levels = [engine.Level(p, xs) for p, xs in zip(radices, level_points)]
    engine.build_forward_locals(field, levels)
    return level_points, levels


def mult_fft(plan: MultPlan, coeffs):
    vals = coeff_values(plan.field, coeffs, BASIS_STANDARD, plan.n)
    return engine.forward(plan.field, plan.kernel, vals)


def mult_ifft(plan: MultPlan, values) -> CoeffVec:
    out = engine.inverse(plan.field, plan.kernel, value_raws(plan.field, values))
    return CoeffVec(tuple(out), BASIS_STANDARD)
