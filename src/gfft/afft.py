"""Additive transform: evaluation on an F_p-subspace W of F_q, n = p^r.

The tower is the chain of subspace-vanishing linearized polynomials
ell_0 = x, ell_i = ell_{i-1}^p - b_i ell_{i-1} with b_i = ell_{i-1}(a_i)^(p-1);
coefficients live in the basis of products ell_0^{e_0} ... ell_{r-1}^{e_{r-1}}
("lch" tag).  Conversion from the standard basis runs through a cascade of
(x^p - b x)-adic expansions.
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
from .gf import Field
from .poly import Poly, poly_str
from .vectors import BASIS_LCH, BASIS_STANDARD, CoeffVec, coeff_values, field_values


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
        basis = [field(v).raw for v in basis_elems]
        r = len(basis)
        if field.p**r > field.q:
            raise SubspaceTooLarge(f"p^{r} exceeds the field size {field.q}")
        if not _independent_over_fp(field, basis):
            raise DependentBasis("subspace basis is F_p-linearly dependent")

        self.field = field
        self.subspace_basis = tuple(basis)
        self.r = r
        self.n = field.p**r
        self.radices = (field.p,) * r

        # per-level images of the remaining basis vectors, betas, ell polys
        f = field
        vs = list(basis)
        betas = []
        ells = [Poly.x(field)]
        for _ in range(r):
            lead = vs[0]
            beta = f.pow(lead, f.p - 1)
            if beta == 0:
                raise DependentBasis("zero basis image; elements dependent")
            betas.append(beta)
            ells.append(_frobenius(ells[-1]) - ells[-1].scale(beta))
            vs = [f.sub(f.pow(v, f.p), f.mul(beta, v)) for v in vs[1:]]
        self.betas = tuple(betas)
        self.lin_polys = ells  # ells[i] vanishes exactly on span(basis[:i])

        level_points = []
        vs = list(basis)
        for _ in range(r + 1):
            level_points.append(_span_points(f, vs))
            if vs:
                beta = f.pow(vs[0], f.p - 1)
                vs = [f.sub(f.pow(v, f.p), f.mul(beta, v)) for v in vs[1:]]
        self.level_points = level_points
        self.points = level_points[0]

        self._validate()
        # fibers are contiguous blocks: point t of fiber sq sits at t + sq*p
        self.kernel = [
            engine.Level(p, 1, p, [pts] * (p - 1)) for p, pts in zip(self.radices, level_points)
        ]
        engine.build_inverse_locals(field, self.kernel)

    def _validate(self):
        f = self.field
        for i in range(1, self.r + 1):
            ell = self.lin_polys[i]
            span = _span_points(f, list(self.subspace_basis[:i]))
            for w in span:
                if ell.eval(w) != 0:
                    raise ValidationError(f"ell_{i} does not vanish on its subspace")
            if i < self.r and ell.eval(self.subspace_basis[i]) == 0:
                raise DependentBasis(f"ell_{i} kills basis element {i}; dependent input")
            # fiber constancy: ell_i on the full point set matches level list
            block = f.p**i
            for m, x in enumerate(self.points):
                if ell.eval(x) != self.level_points[i][m // block]:
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
        return add_plan(field, [field.parse_raw(v) for v in obj["basis"]])

    def __repr__(self):
        return f"AddPlan(q={self.field.q}, n={self.n}, basis={self.subspace_basis})"


def _independent_over_fp(field, vecs) -> bool:
    p = field.p
    rows = [list(field.unpack(v)) for v in vecs]
    rank = 0
    cols = field.r
    for col in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank == len(vecs)


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
    out = engine.inverse(plan.field, plan.kernel, field_values(plan.field, values))
    return CoeffVec(tuple(out), BASIS_LCH)


# ---------------------------------------------------------------------------
# (x^p - alpha x)-adic expansion


def padic_expand(f: Poly, alpha) -> list:
    """Expansion f = sum_m a_m(x) (x^p - alpha x)^m with deg a_m < p.

    Runs the halving recursion on base-p^2 chunk regroupings, so the op
    count stays quasi-linear in deg f.
    """
    field = f.field
    alpha = field(alpha).raw
    p = field.p
    if f.is_zero():
        return [Poly.zero(field)]
    terms = _padic_rec(field, list(f.coeffs), alpha, p)
    while len(terms) > 1 and not any(terms[-1]):
        terms.pop()
    return [Poly(field, t) for t in terms]


def _padic_rec(field, coeffs, alpha, p):
    """Returns list of coefficient chunks (each a length<=p list)."""
    deg = len(coeffs) - 1
    if deg < p:
        return [coeffs]
    if deg == p:
        cp = coeffs[p]
        a0 = list(coeffs[:p])
        a0[1] = field.add(a0[1], field.mul(cp, alpha))
        return [a0, [cp]]
    rho = 2
    while p**rho <= deg:
        rho += 1
    chunk = p ** (rho - 2)
    alpha_m = field.pow(alpha, p ** (rho - 2))
    # chunks f_{k,l}, chunk index l + p*k
    chunks = {}
    for idx in range(0, len(coeffs), chunk):
        c = idx // chunk
        k, l = divmod(c, p)  # chunk index c = l + p*k
        piece = coeffs[idx : idx + chunk]
        if any(piece):
            chunks[(k, l)] = piece
    binom = _pascal_mod_p(field.p)
    # accumulators G[j][s]: coefficient chunks of x^(s*chunk) inside g_j
    G = [[None] * p for _ in range(p)]

    def acc_into(j, s, scalar, piece):
        if scalar == 0:
            return
        tgt = G[j][s]
        if tgt is None:
            tgt = G[j][s] = [0] * chunk
        if scalar == 1:
            for i, v in enumerate(piece):
                if v:
                    tgt[i] = field.add(tgt[i], v)
        else:
            for i, v in enumerate(piece):
                if v:
                    tgt[i] = field.add(tgt[i], field.mul(scalar, v))

    for (k, l), piece in chunks.items():
        for j in range(k + 1):
            scal = binom[k][j]
            if scal == 0:
                continue
            coef = field.mul(scal, field.pow(alpha_m, k - j))
            sigma = l + k - j
            if sigma < p:
                acc_into(j, sigma, coef, piece)
            else:
                acc_into(j, sigma - p + 1, field.mul(coef, alpha_m), piece)
                if j + 1 < p:
                    acc_into(j + 1, sigma - p, coef, piece)
    out = []
    for j in range(p):
        gj = []
        for s in range(p):
            gj.extend(G[j][s] if G[j][s] is not None else [0] * chunk)
        while gj and gj[-1] == 0:
            gj.pop()
        sub = _padic_rec(field, gj, alpha, p) if gj else [[0]]
        sub = sub + [[0]] * (chunk - len(sub))
        out.extend(sub[:chunk])
    return out


def _pascal_mod_p(p):
    rows = [[1]]
    for k in range(1, p):
        prev = rows[-1]
        rows.append([1] + [(prev[j - 1] + prev[j]) % p for j in range(1, k)] + [1])
    return rows


def padic_reassemble(field, terms, alpha) -> Poly:
    """Oracle inverse of padic_expand: sum a_m * (x^p - alpha x)^m."""
    alpha = field(alpha).raw
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


def _to_lch(field, coeffs, betas):
    if not betas:
        return [coeffs[0] if coeffs else 0]
    p = field.p
    n = p ** len(betas)
    terms = padic_expand(Poly(field, coeffs), betas[0])
    sub_n = n // p
    out = [0] * n
    for e0 in range(p):
        seq = [terms[m][e0] if m < len(terms) else 0 for m in range(sub_n)]
        rec = _to_lch(field, seq, betas[1:])
        out[e0::p] = rec
    return out


def lch_to_standard(plan: AddPlan, coeffs) -> CoeffVec:
    vals = coeff_values(plan.field, coeffs, BASIS_LCH, plan.n)
    poly = _from_lch(plan.field, vals, plan.betas)
    out = list(poly.coeffs) + [0] * (plan.n - len(poly.coeffs))
    return CoeffVec(tuple(out), BASIS_STANDARD)


def _from_lch(field, coeffs, betas) -> Poly:
    if not betas:
        return Poly(field, coeffs[:1])
    p = field.p
    T = Poly(field, [0, field.neg(betas[0])] + [0] * (p - 2) + [1])
    total = Poly.zero(field)
    for e0 in range(p - 1, -1, -1):
        g = _from_lch(field, coeffs[e0::p], betas[1:])
        # g(T(x)) by Horner, then shift by x^e0
        acc = Poly.zero(field)
        for c in reversed(g.coeffs):
            acc = acc * T + Poly.constant(field, c)
        shifted = Poly(field, [0] * e0 + list(acc.coeffs))
        total = total + shifted
    return total
