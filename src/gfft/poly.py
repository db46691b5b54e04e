"""Dense univariate polynomials and reduced rational functions over F_q.

Coefficients are stored as raw field values (see gf.Field), ascending degree,
trailing zeros trimmed.  Rational places are represented by a raw value
alpha in F_q or the INF sentinel; evaluation of a rational function returns a
raw value or INF likewise.
"""

from __future__ import annotations

from .errors import DivisionByZeroPoly, DuplicatePoint, MixedFields, ZeroFunction
from .gf import Field, FieldElement

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


def _raw(field, v):
    if isinstance(v, FieldElement):
        if v.field != field:
            raise MixedFields("coefficient from a different field")
        return v.raw
    return int(v) % field.q if field.r == 1 else int(v)


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        self.field = field
        c = [_raw(field, v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

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
            out = out * cls(field, (field.neg(_raw(field, rt)), 1))
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
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        if f.r == 1:
            p = f.p
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] = (out[i + j] + ai * bj) % p
            ctr = f._counter
            if ctr is not None:
                # as the extension branch counts: one mul and one add per nonzero pair
                pairs = (len(a) - a.count(0)) * (len(b) - b.count(0))
                ctr.muls += pairs
                ctr.adds += pairs
        else:
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        if bj:
                            out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return Poly(f, out)

    def scale(self, c) -> "Poly":
        f = self.field
        c = _raw(f, c)
        return Poly(f, [f.mul(c, v) for v in self.coeffs])

    def __pow__(self, e: int):
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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

    def derivative(self) -> "Poly":
        f = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            c = self.coeffs[i]
            k = i % f.p
            acc = 0
            for _ in range(k):
                acc = f.add(acc, c)
            out.append(acc)
        return Poly(f, out)

    # -- evaluation -------------------------------------------------------------

    def eval(self, x) -> int:
        f = self.field
        x = _raw(f, x)
        if not self.coeffs:
            return 0
        if f.r == 1:
            p = f.p
            ctr = f._counter
            acc = 0
            for c in reversed(self.coeffs):
                acc = (acc * x + c) % p
            if ctr is not None:
                d = len(self.coeffs) - 1
                ctr.muls += d
                ctr.adds += d
            return acc
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def __call__(self, x):
        return self.eval(x)

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.constant(self.field, c)
        return acc

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
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i in reversed(range(len(self.coeffs))):
            c = self.coeffs[i]
            if not c:
                continue
            cs = str(c) if (c != 1 or i == 0) else ""
            xs = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            terms.append(cs + ("*" if cs and xs else "") + xs)
        return "Poly(" + " + ".join(terms) + ")"


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

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree == 0

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
        a = _raw(self.field, place)
        dv = self.den.eval(a)
        if dv == 0:
            return INF  # num(a) != 0 by reducedness
        return self.field.div(self.num.eval(a), dv)

    def __call__(self, place):
        return self.eval_place(place)

    # -- valuations --------------------------------------------------------------

    def valuation(self, place) -> int:
        """Order of vanishing (negative at a pole) at a rational place."""
        if self.is_zero():
            raise ZeroFunction("valuation of the zero function")
        if place is INF:
            return int(self.den.degree - self.num.degree)
        a = _raw(self.field, place)
        lin = Poly(self.field, (self.field.neg(a), 1))
        return _multiplicity(self.num, lin) - _multiplicity(self.den, lin)

    def valuation_at_irreducible(self, prime: Poly) -> int:
        """Valuation at the finite place of a monic irreducible polynomial."""
        if self.is_zero():
            raise ZeroFunction("valuation of the zero function")
        return _multiplicity(self.num, prime) - _multiplicity(self.den, prime)

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


def _multiplicity(f: Poly, prime: Poly) -> int:
    if f.is_zero():
        raise ZeroFunction("multiplicity in the zero polynomial")
    count = 0
    while True:
        q, r = divmod(f, prime)
        if not r.is_zero():
            return count
        count += 1
        f = q


def compose_moebius(g: RatFn, mat) -> RatFn:
    """Substitute (a x + b)/(c x + d) for x in g; mat has raw attrs a,b,c,d."""
    field = g.field
    lin_num = Poly(field, (mat.b, mat.a))
    lin_den = Poly(field, (mat.d, mat.c))
    m = g.map_degree()
    num_pows = [Poly.one(field)]
    den_pows = [Poly.one(field)]
    for _ in range(m):
        num_pows.append(num_pows[-1] * lin_num)
        den_pows.append(den_pows[-1] * lin_den)

    def homog(poly: Poly) -> Poly:
        acc = Poly.zero(field)
        for k in range(m + 1):
            c = poly[k]
            if c:
                acc = acc + (num_pows[k] * den_pows[m - k]).scale(c)
        return acc

    return RatFn(field, homog(g.num), homog(g.den))


# ---------------------------------------------------------------------------
# desk-scale complete factorization (used by divisor-degree tests)


def _pth_root(f: Poly) -> Poly:
    field = f.field
    p = field.p
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(field.pow(f.coeffs[i], field.q // p))
    return Poly(field, out)


def _x_power_q_d_mod(f: Poly, d: int) -> Poly:
    field = f.field
    result = Poly.x(field)
    for _ in range(d):
        acc = Poly.one(field)
        base = result
        e = field.q
        while e:
            if e & 1:
                acc = (acc * base) % f
            base = (base * base) % f
            e >>= 1
        result = acc
    return result


def _equal_degree_split(f: Poly, d: int, rng) -> list:
    """Cantor-Zassenhaus for odd q: f squarefree, all factors of degree d."""
    field = f.field
    if f.degree == d:
        return [f.monic()]
    exponent = (field.q**d - 1) // 2
    while True:
        h = Poly(field, [rng.randrange(field.q) for _ in range(int(f.degree))])
        if h.degree < 1:
            continue
        g = f.gcd(h)
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)
        acc = Poly.one(field)
        base = h % f
        e = exponent
        while e:
            if e & 1:
                acc = (acc * base) % f
            base = (base * base) % f
            e >>= 1
        g = f.gcd(acc - Poly.one(field))
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


def factor_monic(f: Poly, rng) -> dict:
    """Complete factorization {monic irreducible Poly: multiplicity}; odd q."""
    field = f.field
    if field.q % 2 == 0:
        raise ValueError("factor_monic implemented for odd q only")
    if f.is_zero():
        raise ZeroFunction("cannot factor zero")
    factors = {}
    work = f.monic()

    def add_factor(prime, mult=1):
        factors[prime] = factors.get(prime, 0) + mult

    while work.degree > 0:
        deriv = work.derivative()
        if deriv.is_zero():
            work = _pth_root(work)
            # f = g(x^p) = (pth_root)^p: fold multiplicity p into recursion
            sub = factor_monic(work, rng)
            for prime, m in sub.items():
                add_factor(prime, m * field.p)
            return factors
        sqf = work // work.gcd(deriv)
        rem = sqf
        d = 1
        while rem.degree > 0:
            xq = _x_power_q_d_mod(rem, d)
            g = rem.gcd(xq - Poly.x(field))
            if g.degree > 0:
                for prime in _equal_degree_split(g, d, rng):
                    mult = _multiplicity(work, prime)
                    add_factor(prime, mult)
                    for _ in range(mult):
                        work = work // prime
                rem = rem // g
            d += 1
            if d > rem.degree:
                if rem.degree > 0:
                    mult = _multiplicity(work, rem.monic())
                    add_factor(rem.monic(), mult)
                    for _ in range(mult):
                        work = work // rem.monic()
                break
    return factors


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
    if len(set(xs)) != len(xs):
        raise DuplicatePoint("interpolation points must be distinct")
    total = Poly.zero(field)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        yi = _raw(field, yi)
        if yi == 0:
            continue
        num = Poly.one(field)
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * Poly(field, (field.neg(_raw(field, xj)), 1))
            denom = field.mul(denom, field.sub(_raw(field, xi), _raw(field, xj)))
        total = total + num.scale(field.div(yi, denom))
    return total
