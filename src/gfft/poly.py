"""Dense univariate polynomials and reduced rational functions over F_q.

Coefficients are stored as raw field values, ascending degree, trailing
zeros trimmed.  Every coefficient, point and scalar passed in is read through
Field.raw or Field.raws, so it is checked, not reduced.  Rational places are
represented by a raw value alpha in F_q or the INF sentinel; evaluation of a
rational function returns a raw value or INF likewise.  mul_add is the one
product of coefficient lists, horner the one evaluation of one at a point and
homogeneous the one composition: Poly and RatFn run on them, and so do the
cyclic plan build and std_to_tilde.
"""

from __future__ import annotations

import operator
from itertools import repeat

from .errors import DivisionByZeroPoly, DuplicatePoint, MixedFields
from .gf import Field, square_multiply

NEG_INF = float("-inf")


class _InfType:
    """Singleton marker for the infinite place / the value at a pole."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _InfType()


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        self.field = field
        self.coeffs = tuple(trim(field.raws(coeffs)))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def from_roots(cls, field, roots):
        out = cls.one(field)
        for rt in roots:
            out = out * cls(field, (field.neg(field.raw(rt)), 1))
        return out

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __iter__(self):
        """The coefficients, ascending; __getitem__ alone would iterate
        forever, as it reads 0 past the degree."""
        return iter(self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly(self.field, (other,))
        if other.field != self.field:
            raise MixedFields("polynomials over different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = f.add(out[i], v)
        return Poly(f, out)

    def __sub__(self, other):
        other = self._check(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(f, [f.sub(self[i], other[i]) for i in range(n)])

    def __neg__(self):
        f = self.field
        return Poly(f, [f.neg(v) for v in self.coeffs])

    def __mul__(self, other):
        other = self._check(other)
        return Poly(self.field, mul_add(self.field, self.coeffs, other.coeffs))

    def scale(self, c) -> "Poly":
        f = self.field
        c = f.raw(c)
        return Poly(f, [f.mul(c, v) for v in self.coeffs])

    def __pow__(self, e: int):
        return square_multiply(operator.mul, self, e, Poly.one(self.field))

    def __divmod__(self, other):
        other = self._check(other)
        if other.is_zero():
            raise DivisionByZeroPoly("division by the zero polynomial")
        f = self.field
        rem = list(self.coeffs)
        d = other.degree
        if self.degree < d:
            return Poly.zero(f), self
        inv_lead = f.inv(other.lc())
        quot = [0] * (len(rem) - d)
        oc = other.coeffs
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c:
                factor = f.mul(c, inv_lead)
                quot[k - d] = factor
                for i in range(d + 1):
                    rem[k - d + i] = f.sub(rem[k - d + i], f.mul(factor, oc[i]))
        return Poly(f, quot), Poly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.lc()))

    def gcd(self, other) -> "Poly":
        other = self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    # -- evaluation -------------------------------------------------------------

    def eval(self, x) -> int:
        return horner(self.field, self.coeffs, self.field.raw(x))

    def __call__(self, x):
        return self.eval(x)

    def compose(self, inner: "Poly") -> "Poly":
        (out,) = homogeneous(self.field, [self], inner.coeffs, [1], max(len(self.coeffs) - 1, 0))
        return Poly(self.field, out)

    def roots(self):
        """All roots in F_q with multiplicity, by desk-scale scan + division."""
        out = []
        rem = self
        for alpha in range(self.field.q):
            while not rem.is_zero() and rem.degree >= 1 and rem.eval(alpha) == 0:
                rem = rem // Poly(self.field, (self.field.neg(alpha), 1))
                out.append(alpha)
        return out

    # -- misc ---------------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.r, self.coeffs))

    def __repr__(self):
        return f"Poly({poly_str(self)})"


def trim(coeffs: list) -> list:
    """coeffs with its trailing zeros popped, in place: Poly's stored form."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def horner(field: Field, coeffs, x: int) -> int:
    """g(x) for raw x and g with ascending raw coeffs, by Horner from the last
    coefficient: len(coeffs) - 1 adds and muls (on prime fields inline,
    reported through Field._tally), none for no coefficient.  Trimmed coeffs
    (trim, Poly's form) give the count of Poly.eval, which runs on it."""
    if not coeffs:
        return 0
    if field.r == 1:
        p = field.p
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        d = len(coeffs) - 1
        field._tally(d, d)
        return acc
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = field.add(field.mul(acc, x), c)
    return acc


def mul_add(field: Field, u, v, acc=()) -> list:
    """acc + u v on ascending coefficient lists, untrimmed: the one product of
    coefficient lists, counted as one mul and one add per pair of nonzero
    coefficients (on prime fields inline, reported through Field._tally)."""
    out = list(acc) + [0] * max(len(u) + len(v) - 1 - len(acc), 0)
    if field.r == 1:
        p = field.p
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v, i):
                    out[j] = (out[j] + ui * vj) % p
        pairs = (len(u) - u.count(0)) * (len(v) - v.count(0))
        field._tally(pairs, pairs)
    else:
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v, i):
                    if vj:
                        out[j] = field.add(out[j], field.mul(ui, vj))
    return out


def homogeneous(field: Field, polys, top, bottom, deg) -> list:
    """sum g_k top^k bottom^(deg - k) for each g in polys (read at degrees 0
    to deg), top and bottom coefficient lists, by Horner: the numerator of
    g(top / bottom) over the denominator bottom^deg, untrimmed.  For a
    Moebius map (a T + b) / (c T + d), top = [b, a] and bottom = [d, c]."""
    outs, power = [[g[deg]] for g in polys], [1]
    for k in range(deg - 1, -1, -1):
        power = mul_add(field, power, bottom)
        outs = [mul_add(field, out, top, field.products(power, repeat(g[k])))
                for out, g in zip(outs, polys)]
    return outs


def poly_str(poly: Poly) -> str:
    """Compact text form, highest degree first: x^3+2x+1."""
    if poly.is_zero():
        return "0"
    parts = []
    for i in range(len(poly.coeffs) - 1, -1, -1):
        c = poly.coeffs[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            xs = "x" if i == 1 else f"x^{i}"
            parts.append(xs if c == 1 else f"{c}{xs}")
    return "+".join(parts)


class RatFn:
    """Reduced ratio of polynomials; denominator monic, gcd(num, den) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: Field, num: Poly, den: Poly):
        if den.is_zero():
            raise DivisionByZeroPoly("zero denominator")
        g = num.gcd(den)
        if g.degree > 0:
            num, den = num // g, den // g
        if not den.is_monic():
            c = field.inv(den.lc())
            num, den = num.scale(c), den.scale(c)
        self.field = field
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, poly: Poly):
        return cls(poly.field, poly, Poly.one(poly.field))

    @classmethod
    def x(cls, field):
        return cls.from_poly(Poly.x(field))

    @classmethod
    def constant(cls, field, c):
        return cls.from_poly(Poly.constant(field, c))

    def is_zero(self):
        return self.num.is_zero()

    def map_degree(self) -> int:
        """max(deg num, deg den): the degree of the covering x-line map."""
        return int(max(self.num.degree, self.den.degree, 0))

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        return RatFn(self.field, self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        other = self._check(other)
        return RatFn(self.field, self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFn(self.field, -self.num, self.den)

    def __mul__(self, other):
        other = self._check(other)
        return RatFn(self.field, self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._check(other)
        if other.is_zero():
            raise DivisionByZeroPoly("division by zero rational function")
        return RatFn(self.field, self.num * other.den, self.den * other.num)

    def _check(self, other):
        if isinstance(other, RatFn):
            if other.field != self.field:
                raise MixedFields("rational functions over different fields")
            return other
        if isinstance(other, Poly):
            return RatFn.from_poly(other)
        return RatFn.constant(self.field, other)

    # -- evaluation --------------------------------------------------------------

    def eval_place(self, place):
        """Value at a rational place: raw field value or INF."""
        if self.is_zero():
            return 0
        if place is INF:
            dn, dd = self.num.degree, self.den.degree
            if dn > dd:
                return INF
            if dn < dd:
                return 0
            return self.field.div(self.num.lc(), self.den.lc())
        a = self.field.raw(place)
        dv = self.den.eval(a)
        if dv == 0:
            return INF  # num(a) != 0 by reducedness
        return self.field.div(self.num.eval(a), dv)

    def __call__(self, place):
        return self.eval_place(place)

    def __eq__(self, other):
        return (
            isinstance(other, RatFn)
            and self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFn({self.num!r} / {self.den!r})"


def compose_moebius(g: RatFn, mat) -> RatFn:
    """Substitute (a x + b)/(c x + d) for x in g; mat has raw attrs a,b,c,d."""
    return _substitute(g, [mat.b, mat.a], [mat.d, mat.c])


def _substitute(g: RatFn, top, bottom) -> RatFn:
    """g(top / bottom) for coefficient lists top and bottom, reduced: num and
    den (Poly reads 0 past the degree) composed at the map degree."""
    f = g.field
    num, den = homogeneous(f, (g.num, g.den), top, bottom, g.map_degree())
    return RatFn(f, Poly(f, num), Poly(f, den))


def mod_inverse(a: Poly, m: Poly) -> Poly:
    """Inverse of a modulo m via extended Euclid; requires gcd(a, m) = 1."""
    field = a.field
    r0, r1 = m, a % m
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r2 = divmod(r0, r1)
        r0, r1 = r1, r2
        t0, t1 = t1, t0 - q * t1
    if r0.degree != 0:
        raise DivisionByZeroPoly("element not invertible modulo m")
    return (t0.scale(field.inv(r0.lc()))) % m


def lagrange_basis_interpolate(field, xs, ys) -> Poly:
    """Unique interpolant of degree < len(xs); points must be distinct."""
    xs, ys = field.raws(xs), field.raws(ys)
    if len(set(xs)) != len(xs):
        raise DuplicatePoint("interpolation points must be distinct")
    total = Poly.zero(field)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        num = Poly.one(field)
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * Poly(field, (field.neg(xj), 1))
            denom = field.mul(denom, field.sub(xi, xj))
        total = total + num.scale(field.div(yi, denom))
    return total
