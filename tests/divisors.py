"""Valuations and complete factorization over F_q (odd q), for the tests that
check the divisor structure of the rational function field.  The library
itself never factors or takes valuations."""

from gfft.errors import ValidationError
from gfft.poly import INF, Poly


class ZeroFunction(ValidationError):
    pass


def multiplicity(f: Poly, prime: Poly) -> int:
    if f.is_zero():
        raise ZeroFunction("multiplicity in the zero polynomial")
    count = 0
    while True:
        q, r = divmod(f, prime)
        if not r.is_zero():
            return count
        count += 1
        f = q


def valuation(g, place) -> int:
    """Order of vanishing of the rational function g (negative at a pole) at
    a rational place."""
    if g.is_zero():
        raise ZeroFunction("valuation of the zero function")
    if place is INF:
        return int(g.den.degree - g.num.degree)
    a = g.field.raw(place)
    lin = Poly(g.field, (g.field.neg(a), 1))
    return multiplicity(g.num, lin) - multiplicity(g.den, lin)


def valuation_at_irreducible(g, prime: Poly) -> int:
    """Valuation of g at the finite place of a monic irreducible polynomial."""
    if g.is_zero():
        raise ZeroFunction("valuation of the zero function")
    return multiplicity(g.num, prime) - multiplicity(g.den, prime)


def derivative(f: Poly) -> Poly:
    field = f.field
    out = []
    for i in range(1, len(f.coeffs)):
        c = f.coeffs[i]
        acc = 0
        for _ in range(i % field.p):
            acc = field.add(acc, c)
        out.append(acc)
    return Poly(field, out)


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
        deriv = derivative(work)
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
                    mult = multiplicity(work, prime)
                    add_factor(prime, mult)
                    for _ in range(mult):
                        work = work // prime
                rem = rem // g
            d += 1
            if d > rem.degree:
                if rem.degree > 0:
                    mult = multiplicity(work, rem.monic())
                    add_factor(rem.monic(), mult)
                    for _ in range(mult):
                        work = work // rem.monic()
                break
    return factors
