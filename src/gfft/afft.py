"""Additive transform: evaluation on an F_p-subspace W of F_q, n = p^r.

The tower is the chain of subspace-vanishing linearized polynomials
ell_0 = x, ell_i = ell_{i-1}^p - b_i ell_{i-1} with b_i = ell_{i-1}(a_i)^(p-1);
coefficients live in the basis of products ell_0^{e_0} ... ell_{r-1}^{e_{r-1}}
("lch" tag).  Both conversions run one (x^p - b_l x)-adic expansion per
level l, in place on all p^l interleaved digit sequences at once.  In
characteristic p, T^s for T = x^p - b x and s a power of p is the binomial
x^(ps) - b^s x^s: the way from the standard basis divides by these
binomials (_split) and the way back joins by Horner in them (_compose), one
pass per division depth and a few fused column ops per pass, so both cost
O(p n log^2 n) field ops with no recursion and no dense product.
Each level's points are the previous level's images under its map
T^p - b_i T, checked constant on every fiber (engine.fiber_levels).  The
kernel's points run first basis vector slowest, so that each level's fibers
fall on the engine's one layout; the public points run first vector fastest,
and one index list, the base-p digit reversal, gathers the transforms'
values between the two orders.  Each
ell_i is built from its i + 1 linearized coefficients, the x^(p^j) ones:
ell_{i-1}^p raises each to the p-th power and moves it up one place, so a
level costs O(i) field ops, and the dense ell_i tables are written from them.
Plan validation evaluates the dense tables at the r basis elements only, as
they are linearized, so F_p-linear: from their Frobenius chains x, x^p, ...,
x^(p^r), O(r^3) field ops.
"""

from __future__ import annotations

from itertools import repeat

from . import engine
from .errors import (
    DependentBasis,
    LengthMismatch,
    SubspaceTooLarge,
    ValidationError,
)
from .gf import Field, field_make, square_multiply
from .linalg import nullspace_vector
from .poly import Poly, poly_str
from .vectors import (BASIS_LCH, BASIS_STANDARD, CoeffVec, coeff_values, plan_list,
                      standard_values, value_raws)


class AddPlan:
    case = "add"
    basis = BASIS_LCH

    def __init__(self, field: Field, basis_elems):
        basis = field.raws(basis_elems)
        r = len(basis)
        if field.p**r > field.q:
            raise SubspaceTooLarge(f"p^{r} exceeds the field size {field.q}")
        radices, n = engine.check_radices((field.p,) * r)
        # F_p-rank: the digit matrix has one column per basis vector
        digits = list(zip(*map(field.unpack, basis)))
        if basis and nullspace_vector(field_make(field.p), digits) is not None:
            raise DependentBasis("subspace basis is F_p-linearly dependent")

        self.field = field
        self.subspace_basis = tuple(basis)
        self.r = r
        self.n = n
        self.radices = radices

        # the kernel's points run first vector slowest, so that each level's
        # fibers fall on the engine's layout; level i's are the images of
        # level i-1's under T^p - b_i T, b_i = (image of basis[i-1])^(p-1),
        # read at entry len(xs) // p of level i-1
        betas = []

        def step(i, xs):
            beta = field.pow(xs[len(xs) // field.p], field.p - 1)
            if beta == 0:
                raise DependentBasis("zero basis image; elements dependent")
            betas.append(beta)
            return field.sub_products(square_multiply(field.products, xs, field.p, None), xs,
                                      repeat(beta))

        self.level_points = engine.fiber_levels(_span_points(field, basis[::-1]), radices, step)
        self.betas = tuple(betas)
        # ell_i = sum_j c_j x^(p^j) from ell_(i-1)'s c_j, then its dense table
        p = field.p
        lin, ells = [1], [Poly.x(field)]
        for i, beta in enumerate(betas, start=1):
            lin = field.sub_products([0] + [field.pow(c, p) for c in lin], lin + [0], repeat(beta))
            dense = [0] * (p**i + 1)
            for j, c in enumerate(lin):
                dense[p**j] = c
            ells.append(Poly(field, dense))
        self.lin_polys = ells  # ells[i] vanishes exactly on span(basis[:i])

        self._validate()
        self.kernel = [engine.Level(p, pts) for p, pts in zip(radices, self.level_points)]
        engine.build_forward_locals(field, self.kernel)
        # public point j (first vector fastest) is kernel point
        # kernel_order[j]: the base-p digit reversal, which is the kernel's
        # leaf order on equal radices and its own inverse
        self.kernel_order = self.kernel[-1].leaf_order if r else [0]
        self.points = [self.level_points[0][i] for i in self.kernel_order]

    def _validate(self):
        """ell_i is written from its linearized coefficients alone, monic of
        degree p^i, so it is F_p-linear: it vanishes on span(basis[:i]) if it
        vanishes on basis[:i], read from the Frobenius chains x, x^p, ...,
        x^(p^r) of the r basis elements, O(r^3) field ops in all.  It must
        not kill basis[i]."""
        f, p, r = self.field, self.field.p, self.r
        chains = []
        for b in self.subspace_basis:
            chains.append([b])
            for _ in range(r):
                chains[-1].append(f.pow(chains[-1][-1], p))
        for i in range(1, r + 1):
            lin = [self.lin_polys[i][p**j] for j in range(i + 1)]
            if any(f.sum(f.products(lin, ch)) for ch in chains[:i]):
                raise ValidationError(f"ell_{i} does not vanish on its subspace")
            if i < r and f.sum(f.products(lin, chains[i])) == 0:
                raise DependentBasis(f"ell_{i} kills basis element {i}; dependent input")

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
    out = engine.forward(plan.field, plan.kernel, vals)
    return [out[i] for i in plan.kernel_order]


def add_ifft(plan: AddPlan, values) -> CoeffVec:
    values = value_raws(plan.field, values)
    if len(values) != plan.n:
        raise LengthMismatch(f"{len(values)} values for {plan.n} points")
    out = engine.inverse(plan.field, plan.kernel, [values[i] for i in plan.kernel_order])
    return CoeffVec(tuple(out), BASIS_LCH)


# ---------------------------------------------------------------------------
# (x^p - alpha x)-adic expansion


def padic_expand(f: Poly, alpha) -> list:
    """Expansion f = sum_m a_m(x) (x^p - alpha x)^m with deg a_m < p.

    Pads f to a power-of-p length and runs _split, the binomial division
    that standard_to_lch uses, so the op count stays quasi-linear in deg f.
    Trailing zero terms are dropped.
    """
    field = f.field
    p = field.p
    size = p
    while size < len(f.coeffs):
        size *= p
    terms = list(f.coeffs) + [0] * (size - len(f.coeffs))
    _split(field, terms, field.raw(alpha), 1)
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
    vals = standard_values(plan.field, coeffs, plan.n)
    for level, beta in enumerate(plan.betas):
        _split(plan.field, vals, beta, plan.field.p**level)
    return CoeffVec(tuple(vals), BASIS_LCH)


def lch_to_standard(plan: AddPlan, coeffs) -> CoeffVec:
    vals = coeff_values(plan.field, coeffs, BASIS_LCH, plan.n)
    for level in range(plan.r - 1, -1, -1):
        _compose(plan.field, vals, plan.betas[level], plan.field.p**level)
    return CoeffVec(tuple(vals), BASIS_STANDARD)


def _split(field, vec, beta, stride):
    """In place on each of the stride interleaved subvectors vec[e::stride],
    of power-of-p length L: the terms of sum_m a_m(x) T^m for
    T = x^p - beta x, entry m*p + e the x^e coefficient of a_m.

    One pass per division depth B = L, L/p, ..., p^2: every length-B block
    is divided p - 1 times by the binomial T^s = x^(ps) - beta^s x^s,
    s = B/p^2, which leaves the p blocks of length ps below it as
    remainders; x^i = x^(i - ps) (T^s + beta^s x^s) moves each coefficient
    (p - 1)s places down.  A division runs from the top of the block in
    chunks of at most (p - 1)s places, as the next chunk down reads what
    this one writes: one multiply-add per coefficient per division, so
    O(p n log n) ops for n = len(vec) and no dense product.
    """
    p = field.p
    B = len(vec) // stride
    while B >= p * p:
        s = B // (p * p)
        w, d = p * s, (p - 1) * s
        bs = field.pow(beta, s)
        for j in range(1, p):
            # division j moves [j w, B) down; [(j - 1) w, j w) is then a remainder
            top = B
            while top > j * w:
                a = max(top - d, j * w)
                _columns(field.add_products, vec, a, a - d, top - a, B, stride, bs)
                top = a
        B //= p


def _compose(field, vec, beta, stride):
    """Inverse of _split: sum_m a_m(x) T^m for T = x^p - beta x, in place on
    each of the stride interleaved subvectors, with entry m*p + e the x^e
    coefficient of a_m.

    One pass per depth B = p^2, p^3, ..., L joins each length-B block's p
    blocks of length w = ps, s = B/p^2, by Horner in the binomial
    T^s = x^(ps) - beta^s x^s: block j followed by the join of the blocks
    above it is already their sum times x^(ps), and one multiply-subtract
    per coefficient takes beta^s x^s times that join away.
    """
    p = field.p
    L = len(vec) // stride
    B = p * p
    while B <= L:
        s = B // (p * p)
        w = p * s
        bs = field.pow(beta, s)
        for j in range(p - 2, -1, -1):
            src = (j + 1) * w
            _columns(field.sub_products, vec, src, j * w + s, B - src, B, stride, bs)
        B *= p


def _columns(op, vec, src, dst, length, B, stride, c):
    """vec[dst + i] = op(vec[dst + i], vec[src + i], c) for i < length in
    every length-B block of the stride interleaved subvectors, every source
    read before it is written (dst < src).  A block's places
    [a, a + length) are one slice across the subvectors, and one place is
    one slice across the blocks: min(#blocks, length * stride) column ops."""
    step = B * stride
    n = length * stride
    cs = repeat(c)
    if len(vec) // step <= n:
        for b in range(0, len(vec), step):
            t, f = b + dst * stride, b + src * stride
            vec[t:t + n] = op(vec[t:t + n], vec[f:f + n], cs)
    else:
        # place by place, ascending: a source place read here lies below
        # any place it is written to
        for o in range(n):
            t, f = dst * stride + o, src * stride + o
            vec[t::step] = op(vec[t::step], vec[f::step], cs)
