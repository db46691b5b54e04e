"""Additive transform: evaluation on an F_p-subspace W of F_q, n = p^r.

The tower is the chain of subspace-vanishing linearized polynomials
ell_0 = x, ell_i = ell_{i-1}^p - b_i ell_{i-1} with b_i = ell_{i-1}(a_i)^(p-1);
coefficients live in the basis of products ell_0^{e_0} ... ell_{r-1}^{e_{r-1}}
("lch" tag).  Both conversions run a cascade of (x^p - b x)-adic
expansions, one level at a time.  In characteristic p, T^(p^k) for
T = x^p - b x is the binomial x^(p^(k+1)) - b^(p^k) x^(p^k): the way from
the standard basis divides by these binomials (_split_adic) and the way
back joins each level's expansion by Horner in them (_compose_adic), so
both cost O(p n log^2 n) field ops and neither forms a dense product.
Plan validation reads ell_i only at degrees p^j and evaluates it from the
Frobenius chain x, x^p, ..., x^(p^r) of each point, about n r^2 field ops.
"""

from __future__ import annotations

from . import engine
from .errors import (
    DegreeTooLarge,
    DependentBasis,
    LengthMismatch,
    SubspaceTooLarge,
    ValidationError,
)
from .gf import Field, field_make
from .linalg import nullspace_vector
from .poly import Poly, poly_str
from .vectors import BASIS_LCH, BASIS_STANDARD, CoeffVec, coeff_values, plan_list


def _frobenius(poly: Poly) -> Poly:
    """f -> f^p in characteristic p: raise coefficients, spread exponents."""
    f = poly.field
    out = [0] * (int(poly.degree) * f.p + 1 if not poly.is_zero() else 0)
    for i, c in enumerate(poly.coeffs):
        if c:
            out[i * f.p] = f.pow(c, f.p)
    return Poly(f, out)


class AddPlan:
    case = "add"
    basis = BASIS_LCH

    def __init__(self, field: Field, basis_elems):
        basis = field.raws(basis_elems)
        r = len(basis)
        if field.p**r > field.q:
            raise SubspaceTooLarge(f"p^{r} exceeds the field size {field.q}")
        # F_p-rank: the digit matrix has one column per basis vector
        digits = list(zip(*map(field.unpack, basis)))
        if basis and nullspace_vector(field_make(field.p), digits) is not None:
            raise DependentBasis("subspace basis is F_p-linearly dependent")

        self.field = field
        self.subspace_basis = tuple(basis)
        self.r = r
        self.n = field.p**r
        self.radices = (field.p,) * r

        # per-level images of the remaining basis vectors: their span is the
        # level's point set; the lead vector gives beta and the next ell poly
        f = field
        vs = list(basis)
        betas = []
        ells = [Poly.x(field)]
        level_points = []
        for _ in range(r):
            level_points.append(_span_points(f, vs))
            beta = f.pow(vs[0], f.p - 1)
            if beta == 0:
                raise DependentBasis("zero basis image; elements dependent")
            betas.append(beta)
            ells.append(_frobenius(ells[-1]) - ells[-1].scale(beta))
            vs = [f.sub(f.pow(v, f.p), f.mul(beta, v)) for v in vs[1:]]
        level_points.append([0])
        self.betas = tuple(betas)
        self.lin_polys = ells  # ells[i] vanishes exactly on span(basis[:i])
        self.level_points = level_points
        self.points = level_points[0]

        self._validate()
        # fibers are contiguous blocks: point t of fiber sq sits at t + sq*p
        self.kernel = [
            engine.Level(p, 1, p, [pts] * (p - 1)) for p, pts in zip(self.radices, level_points)
        ]
        engine.build_inverse_locals(field, self.kernel)

    def _validate(self):
        """ell_i must be monic linearized of degree p^i (nonzero only at degrees
        p^j); its values then come from each point's Frobenius chain x, x^p,
        ..., x^(p^r), about n r^2 field ops in all, and one dense Horner value
        per level cross-checks that route."""
        f, p, r = self.field, self.field.p, self.r

        def chain(x):
            out = [x]
            for _ in range(r):
                out.append(f.pow(out[-1], p))
            return out

        def lin_eval(lin, ch):
            acc = 0
            for c, y in zip(lin, ch):
                if c:
                    acc = f.add(acc, f.mul(c, y))
            return acc

        # the points are span(basis), of which span(basis[:i]) is the first p^i
        point_chains = [chain(x) for x in self.points]
        for i in range(1, r + 1):
            ell = self.lin_polys[i]
            block = p**i
            degrees = [p**j for j in range(i + 1)]
            lin = [ell[d] for d in degrees]
            others = [d for d, c in enumerate(ell.coeffs) if c and d not in degrees]
            if ell.degree != block or lin[-1] != 1 or others:
                raise ValidationError(
                    f"ell_{i} is not monic linearized of degree p^{i} (other degrees {others})")
            if ell.eval(self.points[-1]) != lin_eval(lin, point_chains[-1]):
                raise ValidationError(f"ell_{i}: dense and Frobenius-chain values differ")
            if any(lin_eval(lin, ch) for ch in point_chains[:block]):
                raise ValidationError(f"ell_{i} does not vanish on its subspace")
            if i < r and lin_eval(lin, chain(self.subspace_basis[i])) == 0:
                raise DependentBasis(f"ell_{i} kills basis element {i}; dependent input")
            # fiber constancy: ell_i on the full point set matches level list
            for m, ch in enumerate(point_chains):
                if lin_eval(lin, ch) != self.level_points[i][m // block]:
                    raise ValidationError(f"fiber constancy violated at level {i}")

    def fft(self, coeffs):
        return add_fft(self, coeffs)

    def ifft(self, values) -> CoeffVec:
        return add_ifft(self, values)

    def to_standard(self, coeffs) -> CoeffVec:
        return lch_to_standard(self, coeffs)

    def from_standard(self, coeffs) -> CoeffVec:
        return standard_to_lch(self, coeffs)

    def describe(self) -> list:
        lines = [f"additive plan: n={self.n} basis={list(self.subspace_basis)}",
                 f"betas = {list(self.betas)}"]
        return lines + [f"ell_{i} = {poly_str(ell)}" for i, ell in enumerate(self.lin_polys)]

    def to_json(self) -> dict:
        out = self.field.serialize_raw
        return {"basis": [out(v) for v in self.subspace_basis],
                "tables": {"betas": [out(v) for v in self.betas],
                           "lin_polys": [[out(c) for c in p.coeffs] for p in self.lin_polys],
                           "points": [out(v) for v in self.points]}}

    @staticmethod
    def from_json(field: Field, obj) -> "AddPlan":
        return add_plan(field, [field.parse_raw(v) for v in plan_list(obj, "basis")])

    def __repr__(self):
        return f"AddPlan(q={self.field.q}, n={self.n}, basis={self.subspace_basis})"


def _span_points(field, vecs):
    """All F_p-combinations of vecs, digit order (first vector fastest)."""
    pts = [0]
    for v in vecs:
        ev = 0
        block = []
        for _ in range(field.p):
            block.extend(field.add(x, ev) for x in pts)
            ev = field.add(ev, v)
        pts = block
    return pts


def add_plan(field: Field, basis_elems) -> AddPlan:
    return AddPlan(field, basis_elems)


def add_fft(plan: AddPlan, coeffs):
    vals = coeff_values(plan.field, coeffs, BASIS_LCH, plan.n)
    return engine.forward(plan.field, plan.kernel, vals)


def add_ifft(plan: AddPlan, values) -> CoeffVec:
    if len(values) != plan.n:
        raise LengthMismatch(f"expected {plan.n} values, got {len(values)}")
    out = engine.inverse(plan.field, plan.kernel, plan.field.raws(values))
    return CoeffVec(tuple(out), BASIS_LCH)


# ---------------------------------------------------------------------------
# (x^p - alpha x)-adic expansion


def padic_expand(f: Poly, alpha) -> list:
    """Expansion f = sum_m a_m(x) (x^p - alpha x)^m with deg a_m < p.

    Pads f to a power-of-p length and runs _split_adic, the binomial
    division that standard_to_lch uses, so the op count stays quasi-linear
    in deg f.  Trailing zero terms are dropped.
    """
    field = f.field
    p = field.p
    size = p
    while size < len(f.coeffs):
        size *= p
    terms = _split_adic(field, list(f.coeffs) + [0] * (size - len(f.coeffs)), field.raw(alpha))
    terms = [terms[i:i + p] for i in range(0, size, p)]
    while len(terms) > 1 and not any(terms[-1]):
        terms.pop()
    return [Poly(field, t) for t in terms]


def padic_reassemble(field, terms, alpha) -> Poly:
    """Oracle inverse of padic_expand: sum a_m * (x^p - alpha x)^m."""
    alpha = field.raw(alpha)
    T = Poly(field, [0, field.neg(alpha)] + [0] * (field.p - 2) + [1])
    acc = Poly.zero(field)
    for a_m in reversed(terms):
        acc = acc * T + a_m
    return acc


# ---------------------------------------------------------------------------
# standard basis <-> linearized-product basis


def standard_to_lch(plan: AddPlan, coeffs) -> CoeffVec:
    vals = coeff_values(plan.field, coeffs, BASIS_STANDARD)
    if len(vals) > plan.n:
        raise DegreeTooLarge(f"degree must be < {plan.n}")
    vals = vals + [0] * (plan.n - len(vals))
    out = _to_lch(plan.field, vals, plan.betas)
    return CoeffVec(tuple(out), BASIS_LCH)


def _to_lch(field, coeffs, betas) -> list:
    """Inverse of _from_lch: split f = sum_m a_m(x) T^m for
    T = x^p - betas[0] x, then expand the x^e coefficients of the a_m one
    level up."""
    if not betas:
        return coeffs[:1]
    p = field.p
    terms = _split_adic(field, coeffs, betas[0])
    out = [0] * len(coeffs)
    for e in range(p):
        out[e::p] = _to_lch(field, terms[e::p], betas[1:])
    return out


def lch_to_standard(plan: AddPlan, coeffs) -> CoeffVec:
    vals = coeff_values(plan.field, coeffs, BASIS_LCH, plan.n)
    return CoeffVec(tuple(_from_lch(plan.field, vals, plan.betas)), BASIS_STANDARD)


def _from_lch(field, coeffs, betas) -> list:
    """Inverse of _to_lch.  With g_e the standard form of coeffs[e::p] one
    level up, f = sum_e x^e g_e(T) = sum_m a_m(x) T^m for T = x^p - betas[0] x
    and a_m = sum_e g_e[m] x^e."""
    if not betas:
        return coeffs[:1]
    p = field.p
    subs = [_from_lch(field, coeffs[e::p], betas[1:]) for e in range(p)]
    # term-major layout: entry m*p + e is the x^e coefficient of a_m
    return _compose_adic(field, [g[m] for m in range(len(subs[0])) for g in subs], betas[0])


def _compose_adic(field, terms, beta) -> list:
    """sum_m a_m(x) T^m for T = x^p - beta x, where terms[m*p + e] is the x^e
    coefficient of a_m and the number of terms N is a power of p.

    The p blocks of s = N/p terms are reassembled recursively and joined by
    Horner in T^s, which in characteristic p is the binomial
    x^(ps) - beta^s x^s: one multiply-subtract per coefficient per step, so
    O(p n log n) ops for n = len(terms) and no dense product.
    """
    p = field.p
    if len(terms) == p:
        return terms
    s = len(terms) // (p * p)
    width = p * s  # coefficients per block, and the length of its result
    bs = field.pow(beta, s)
    acc = _compose_adic(field, terms[(p - 1) * width:], beta)
    for j in range(p - 2, -1, -1):
        # acc * x^(ps) + block_j lands without arithmetic; then subtract bs * acc * x^s
        new = _compose_adic(field, terms[j * width:(j + 1) * width], beta) + acc
        for i, a in enumerate(acc):
            if a:
                new[i + s] = field.sub(new[i + s], field.mul(bs, a))
        acc = new
    return acc


def _split_adic(field, coeffs, beta) -> list:
    """Inverse of _compose_adic: the terms of coeffs = sum_m a_m(x) T^m for
    T = x^p - beta x, with entry m*p + e the x^e coefficient of a_m, where
    len(coeffs) is a power of p.

    Dividing p - 1 times by the binomial T^s = x^(ps) - beta^s x^s, for
    s = len(coeffs)/p^2, leaves the p blocks of s terms as remainders, which
    are expanded recursively: one multiply-add per coefficient per division,
    so O(p n log n) ops for n = len(coeffs) and no dense product.
    """
    p = field.p
    if len(coeffs) == p:
        return coeffs
    s = len(coeffs) // (p * p)
    width = p * s  # coefficients per block
    bs = field.pow(beta, s)
    acc = list(coeffs)
    out = []
    for _ in range(p - 1):
        # from the top down, x^i = x^(i - ps) (T^s + bs x^s): the quotient stays
        # in acc[width:] and the remainder, the next block, in acc[:width]
        for i in range(len(acc) - 1, width - 1, -1):
            a = acc[i]
            if a:
                acc[i - width + s] = field.add(acc[i - width + s], field.mul(bs, a))
        out += _split_adic(field, acc[:width], beta)
        acc = acc[width:]
    return out + _split_adic(field, acc, beta)
