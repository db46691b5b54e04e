"""Fractional-linear maps x -> (ax+b)/(cx+d) over F_q and their group data.

Maps are stored projectively normalized: the first nonzero entry in the
order a, c, b, d is scaled to 1, so representation equality is equality in
the projective group.  The point action on F_q u {INF} used throughout is
the direct one, alpha -> (a*alpha+b)/(c*alpha+d); plan builders that depend
on the orientation cross-validate it against independent data.
"""

from __future__ import annotations

from .engine import affine
from .errors import NoMoebiusRelation, ValidationError
from .gf import Field, _int_entry, multiplicative_order, square_multiply
from .poly import INF, Poly, RatFn


class MoebiusMap:
    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field: Field, a, b, c, d):
        f = field
        a, b, c, d = f.raws((a, b, c, d))
        det = f.sub(f.mul(a, d), f.mul(b, c))
        if det == 0:
            raise ValidationError("degenerate map: ad - bc = 0")
        for lead in (a, c, b, d):
            if lead:
                inv = f.inv(lead)
                a, b, c, d = f.mul(a, inv), f.mul(b, inv), f.mul(c, inv), f.mul(d, inv)
                break
        self.field = f
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, field):
        return cls(field, 1, 0, 0, 1)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """Matrix product self * other: acts as self after other."""
        return MoebiusMap(self.field, *_product(self.field, self.entries(), other.entries()))

    def __mul__(self, other):
        return self.compose(other)

    def inverse(self) -> "MoebiusMap":
        f = self.field
        return MoebiusMap(f, self.d, f.neg(self.b), f.neg(self.c), self.a)

    def __pow__(self, e: int) -> "MoebiusMap":
        """By square and multiply on the raw 4-tuples, each product counted
        as compose counts it, normalized once, at the end."""
        f = self.field
        base = self if _int_entry(e) >= 0 else self.inverse()
        return MoebiusMap(f, *square_multiply(lambda u, v: _product(f, u, v), base.entries(),
                                              abs(e), (1, 0, 0, 1)))

    def order(self) -> int:
        """Least k >= 1 with self^k projectively the identity.  Every element
        order in PGL_2(q) divides p, q - 1 or q + 1, hence p (q^2 - 1)."""
        f = self.field
        return multiplicative_order(self, (f.p, f.q - 1, f.q + 1), pow, MoebiusMap.identity(f))

    def apply(self, point):
        """Direct point action on F_q u {INF}."""
        f = self.field
        if point is INF:
            return INF if self.c == 0 else f.div(self.a, self.c)
        x = f.raw(point)
        den = f.add(f.mul(self.c, x), self.d)
        if den == 0:
            return INF
        return f.div(f.add(f.mul(self.a, x), self.b), den)

    def __call__(self, point):
        return self.apply(point)

    def orbit(self, start, length):
        """The first `length` >= 1 places of start's orbit, in visiting
        order, on projective pairs (N, D) made points by one batched
        inversion (engine.affine); past q + 2 places no orbit closes."""
        f = self.field
        if _int_entry(length) < 1:
            raise ValidationError(f"orbit length must be at least 1, got {length}")
        if length > f.q + 2:
            raise ValidationError("orbit does not close")
        a, b, c, d = self.entries()
        add, mul = f.add, f.mul
        x, z = (1, 0) if start is INF else (f.raw(start), 1)
        nums, dens = [x], [z]
        for _ in range(length - 1):
            x, z = add(mul(a, x), mul(b, z)), add(mul(c, x), mul(d, z))
            nums.append(x)
            dens.append(z)
        return affine(f, nums, dens)

    def as_ratfn(self) -> RatFn:
        f = self.field
        return RatFn(f, Poly(f, (self.b, self.a)), Poly(f, (self.d, self.c)))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return (
            isinstance(other, MoebiusMap)
            and self.field == other.field
            and self.entries() == other.entries()
        )

    def __hash__(self):
        return hash((self.field.p, self.field.r) + self.entries())

    def __repr__(self):
        return f"MoebiusMap[[{self.a},{self.b}],[{self.c},{self.d}]]"


def _product(f, m, n):
    """The matrix product of raw 4-tuples (a, b, c, d), not normalized: 8
    muls and 4 adds."""
    a, b, c, d = m
    a2, b2, c2, d2 = n
    add, mul = f.add, f.mul
    return (add(mul(a, a2), mul(b, c2)), add(mul(a, b2), mul(b, d2)),
            add(mul(c, a2), mul(d, c2)), add(mul(c, b2), mul(d, d2)))


def match_moebius(g: RatFn, h: RatFn) -> MoebiusMap:
    """Solve g = M o h (M applied to the values of h) for a Moebius map M.

    Exists exactly when g and h generate the same subfield of F_q(x), h not
    constant; found by coefficient comparison (relation), verified exactly.
    """
    h = g._check(h)  # MixedFields for h over another field
    m = relation(g.field, (g.num.coeffs, g.den.coeffs), (h.num.coeffs, h.den.coeffs))
    if m is None:
        raise NoMoebiusRelation("no Moebius relation; functions generate different fields")
    return m


def relation(field, g, h):
    """The Moebius map M with g = M o h, or None, for g and h given as
    (numerator, denominator) pairs of ascending coefficient lists, each in
    lowest terms.

    For M = (A, B; C, D) with AD - BC != 0 the pair (A h_num + B h_den,
    C h_num + D h_den) is in lowest terms too, so g = M o h holds exactly
    when g_num = A h_num + B h_den and g_den = C h_num + D h_den, a common
    scalar absorbed into M.  A, B and C, D are solved by Cramer's rule at
    two degrees: h's top degree t and the highest s < t where the minor
    h_num[t] h_den[s] - h_den[t] h_num[s] is nonzero (there is none only when
    h is constant).  The solution is verified exactly: AD - BC != 0 and every
    coefficient equation holds, by two column ops over both equations.
    """
    f = field
    size = max(map(len, (*g, *h)))
    g_num, g_den, h_num, h_den = (list(c) + [0] * (size - len(c)) for c in (*g, *h))
    t = next((k for k in range(size - 1, -1, -1) if h_num[k] or h_den[k]), 0)
    nt, dt = h_num[t], h_den[t]
    for s in range(t - 1, -1, -1):
        minor = f.sub(f.mul(nt, h_den[s]), f.mul(dt, h_num[s]))
        if minor:
            break
    else:
        return None
    ns, ds, inv = h_num[s], h_den[s], f.inv(minor)

    def cramer(top, low):  # (X, Y) with X h_num + Y h_den = top at t, low at s
        return (f.mul(f.sub(f.mul(top, ds), f.mul(dt, low)), inv),
                f.mul(f.sub(f.mul(nt, low), f.mul(ns, top)), inv))

    (a, b), (c, d) = cramer(g_num[t], g_num[s]), cramer(g_den[t], g_den[s])
    if f.mul(a, d) == f.mul(b, c):
        return None
    lhs = f.add_products(f.products(h_num * 2, [a] * size + [c] * size),
                         h_den * 2, [b] * size + [d] * size)
    if lhs != g_num + g_den:
        return None
    return MoebiusMap(f, a, b, c, d)
