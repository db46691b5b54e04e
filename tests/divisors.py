"""Valuations and complete factorization over F_q (odd q), for the tests that
check the divisor structure of the rational function field, the cyclic
plan's subfield tower, level maps and lifts of sigma derived symbolically,
a Moebius-relation solve by elimination, the reference moebius.relation's
Cramer's rule is checked against, and the order of a root of a quadratic in
F_{q^2}, the reference the library's companion-map primitivity test
(gf.quadratic_failure) is checked against.  The library itself never
factors, takes valuations, sums rational functions or computes in F_{q^2}."""

from itertools import zip_longest

from gfft.errors import ValidationError
from gfft.gf import multiplicative_order, square_multiply
from gfft.linalg import nullspace_vector
from gfft.moebius import MoebiusMap
from gfft.poly import INF, Poly, RatFn, compose_moebius, mul_add


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


def relation_by_elimination(field, g, h):
    """The Moebius map M with g = M o h, or None, for g and h given as
    (numerator, denominator) pairs of ascending coefficient lists, solved
    without moebius.relation: M = (A, B; C, D) spans the kernel of g_num
    (C h_num + D h_den) = g_den (A h_num + B h_den), one equation per
    coefficient, found by linalg.nullspace_vector and verified exactly
    (AD - BC != 0 and every equation holds).  Cross-multiplied, it needs
    neither pair in lowest terms."""
    f = field
    (g_num, g_den), (h_num, h_den) = g, h
    rows = [[f.neg(a), f.neg(b), c, d] for a, b, c, d in zip_longest(
        mul_add(f, g_den, h_num), mul_add(f, g_den, h_den),
        mul_add(f, g_num, h_num), mul_add(f, g_num, h_den), fillvalue=0)]
    sol = nullspace_vector(f, rows)
    if (sol is None or f.mul(sol[0], sol[3]) == f.mul(sol[1], sol[2])
            or any(f.sum(f.products(row, sol)) for row in rows)):
        return None
    return MoebiusMap(f, *sol)


def ratfn_levels(plan):
    """(maps, poles, lifts) of a cyclic plan's tower, from sigma and the
    radices alone, on reduced rational functions: the level's induced map
    M = S_(i-1)^((q+1)/|G_i|), m_i = T + sum_t M^t(T) summed as RatFn, its
    poles M^t(INF) for t = 1..p_i-1, and the lift S_i solved from
    m_i o S_(i-1) = S_i o m_i by elimination (relation_by_elimination), not
    by the build's moebius.relation."""
    field, q = plan.field, plan.field.q
    maps, poles, lifts = [], [], [plan.sigma]
    size = 1
    for p in plan.radices:
        size *= p
        induced = lifts[-1] ** ((q + 1) // size)
        mi = RatFn.x(field)
        for t in range(1, p):
            mi = mi + (induced**t).as_ratfn()
        maps.append(mi)
        poles.append(tuple(induced.orbit(INF, length=p)[1:]))
        g = compose_moebius(mi, lifts[-1])
        lift = relation_by_elimination(field, (g.num.coeffs, g.den.coeffs),
                                       (mi.num.coeffs, mi.den.coeffs))
        if lift is None:
            raise ValidationError("sigma does not lift through the level map")
        lifts.append(lift)
    return maps, poles, lifts


def cyclic_tower(plan) -> list:
    """x_0 = x, x_1, ..., x_r of a cyclic plan as reduced rational functions
    of x, from sigma and the radices alone: x_i is the sum of the translates
    of x_{i-1} under tau_i, a generator of G_i.  x_i has degree |G_i|, so
    this costs dense products of degree up to n."""
    field, q = plan.field, plan.field.q
    tower = [RatFn.x(field)]
    for size, p in zip(plan.subgroup_sizes[1:], plan.radices):
        tau = plan.sigma ** ((q + 1) // size)
        acc = cur = tower[-1]
        for _ in range(1, p):
            cur = compose_moebius(cur, tau)
            acc = acc + cur
        tower.append(acc)
    return tower


def quadratic_root_order(field, a: int, b: int) -> int:
    """Multiplicative order of a root of irreducible x^2 + a x + b in
    F_{q^2}, with F_{q^2} as F_q[T]/(x^2 + a x + b) on raw pairs (c0, c1)."""
    f = field
    neg_a, neg_b = f.neg(a), f.neg(b)

    def mul2(u, v):
        u0, u1 = u
        v0, v1 = v
        t = f.mul(u1, v1)  # coefficient of T^2 -> reduce via T^2 = -aT - b
        c0 = f.add(f.mul(u0, v0), f.mul(t, neg_b))
        c1 = f.add(f.add(f.mul(u0, v1), f.mul(u1, v0)), f.mul(t, neg_a))
        return (c0, c1)

    def pow2(x, e):
        return square_multiply(mul2, x, e, (1, 0))

    return multiplicative_order((0, 1), (f.q - 1, f.q + 1), pow2, (1, 0))
