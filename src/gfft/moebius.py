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
from .linalg import nullspace_vector
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

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

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
        base = self if e >= 0 else self.inverse()
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

    Exists exactly when g and h generate the same subfield of F_q(x); found
    by linear coefficient comparison and verified exactly.
    """
    f = g.field
    # g_num*(c*h_num + d*h_den) - g_den*(a*h_num + b*h_den) = 0
    pa = -(g.den * h.num)
    pb = -(g.den * h.den)
    pc = g.num * h.num
    pd = g.num * h.den
    width = max(int(p.degree) for p in (pa, pb, pc, pd) if not p.is_zero()) + 1
    rows = [[pa[k], pb[k], pc[k], pd[k]] for k in range(width)]
    sol = nullspace_vector(f, rows)
    if sol is None:
        raise NoMoebiusRelation("no linear relation; functions generate different fields")
    a, b, c, d = sol
    if f.sub(f.mul(a, d), f.mul(b, c)) == 0:
        raise NoMoebiusRelation("relation degenerate; functions generate different fields")
    m = MoebiusMap(f, a, b, c, d)
    applied = RatFn(
        f,
        h.num.scale(m.a) + h.den.scale(m.b),
        h.num.scale(m.c) + h.den.scale(m.d),
    )
    if applied != g:
        raise NoMoebiusRelation("candidate relation fails exact verification")
    return m
