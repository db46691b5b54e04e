"""Multiplicative transform: evaluation on a coset of the order-n subgroup of
F_q^* for smooth n | q-1, with the power-map tower x -> x^(p_i) per level.

The coefficient basis is the standard monomial basis; the points run in the
j-major order beta * omega^j, and engine.fiber_levels builds each level's
points by the power map and checks them constant on its fibers (every
(size/p)-th point of the level below).  MultPlan is the one builder of these
kernels: a full cyclic plan's conversions run on one over F_q^*
(cfft.CyclicPlan.mult_route).
"""

from __future__ import annotations

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
        self.points, acc = [], beta
        for _ in range(n):
            self.points.append(acc)
            acc = field.mul(acc, self.omega)
        self.level_points = engine.fiber_levels(
            self.points, radices,
            lambda i, xs: square_multiply(field.products, xs, radices[i - 1], None))
        self.kernel = [engine.Level(p, xs) for p, xs in zip(radices, self.level_points)]
        engine.build_forward_locals(field, self.kernel)

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


def mult_fft(plan: MultPlan, coeffs):
    vals = coeff_values(plan.field, coeffs, BASIS_STANDARD, plan.n)
    return engine.forward(plan.field, plan.kernel, vals)


def mult_ifft(plan: MultPlan, values) -> CoeffVec:
    out = engine.inverse(plan.field, plan.kernel, value_raws(plan.field, values))
    return CoeffVec(tuple(out), BASIS_STANDARD)
