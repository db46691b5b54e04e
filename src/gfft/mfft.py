"""Multiplicative transform: evaluation on a coset of the order-n subgroup of
F_q^* for smooth n | q-1, with the power-map tower x -> x^(p_i) per level.

The coefficient basis is the standard monomial basis; fibers at each level
are strided subsequences of the j-major point order beta * omega^j.
"""

from __future__ import annotations

from . import engine
from .errors import LengthMismatch, RadixNotDividingGroupOrder, ValidationError
from .gf import Field, find_primitive_element
from .vectors import BASIS_STANDARD, CoeffVec, coeff_values, plan_list


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

        pts = []
        acc = beta
        for _ in range(n):
            pts.append(acc)
            acc = field.mul(acc, self.omega)
        if len(set(pts)) != n:
            raise ValidationError("evaluation points not distinct; omega order wrong")

        level_points = [pts]
        for p in radices:
            prev = level_points[-1]
            nq = len(prev) // p
            level_points.append([field.pow(prev[s], p) for s in range(nq)])
        self.level_points = level_points
        self.points = pts

        # fiber constancy: x_i = x^(p_1...p_i) is constant per strided fiber
        P_i = 1
        for i, p in enumerate(radices, start=1):
            P_i *= p
            nq = n // P_i
            for s, x in enumerate(pts):
                if field.pow(x, P_i) != level_points[i][s % nq]:
                    raise ValidationError(f"fiber constancy violated at level {i}")

        # fibers are strided: point t of fiber sq sits at t*nq + sq
        self.kernel = [
            engine.Level(p, len(pts) // p, 1, [pts] * (p - 1))
            for p, pts in zip(radices, level_points)
        ]
        engine.build_inverse_locals(field, self.kernel)

    def fft(self, coeffs):
        return mult_fft(self, coeffs)

    def ifft(self, values) -> CoeffVec:
        return mult_ifft(self, values)

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
    if len(values) != plan.n:
        raise LengthMismatch(f"expected {plan.n} values, got {len(values)}")
    out = engine.inverse(plan.field, plan.kernel, plan.field.raws(values))
    return CoeffVec(tuple(out), BASIS_STANDARD)
