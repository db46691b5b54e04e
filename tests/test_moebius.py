import itertools

import pytest

from divisors import relation_by_elimination
from gfft.errors import NoMoebiusRelation, ValidationError
from gfft.gf import field_make, find_primitive_element
from gfft.moebius import MoebiusMap, match_moebius, relation
from gfft.poly import INF, Poly, RatFn, compose_moebius, mul_add


def test_projective_canonicalization(F127, rng):
    m = MoebiusMap(F127, 2, 5, 1, 9)
    for _ in range(10):
        lam = rng.randrange(1, 127)
        scaled = MoebiusMap(F127, *(F127.mul(lam, v) for v in (2, 5, 1, 9)))
        assert scaled == m


def test_degenerate_map_refused(F127):
    # ad - bc = 4 - 4 = 0: x -> (x + 2)/(2x + 4) is the constant 1/2
    with pytest.raises(ValidationError, match="degenerate"):
        MoebiusMap(F127, 1, 2, 2, 4)


def test_order_examples(F127):
    sigma = MoebiusMap(F127, 0, 1, 124, 1)
    assert sigma.order() == 128
    assert MoebiusMap.identity(F127).order() == 1
    g = find_primitive_element(F127).raw
    assert MoebiusMap(F127, g, 0, 0, 1).order() == 126


def _pgl2(field):
    f = field
    return {MoebiusMap(f, a, b, c, d)
            for a, b, c, d in itertools.product(range(f.q), repeat=4) if f.mul(a, d) != f.mul(b, c)}


@pytest.mark.parametrize("q", [5, 7])
def test_order_matches_composition_walk(q):
    # every element of PGL_2(q), against the least k with m^k the identity
    field = field_make(q)
    maps = _pgl2(field)
    assert len(maps) == q * (q * q - 1)
    for m in maps:
        acc, k = m, 1
        while acc != MoebiusMap.identity(field):
            acc, k = acc * m, k + 1
        assert m.order() == k


def test_order_power_relation(F127):
    sigma = MoebiusMap(F127, 0, 1, 124, 1)
    import math

    for k in (2, 3, 5, 8, 64):
        assert (sigma**k).order() == 128 // math.gcd(128, k)


def test_point_action(F127):
    sigma = MoebiusMap(F127, 0, 1, 124, 1)
    ident = MoebiusMap.identity(F127)
    assert ident.apply(INF) is INF and ident.apply(7) == 7
    pt = INF
    for _ in range(128):
        pt = sigma.apply(pt)
    assert pt is INF
    orbit = sigma.orbit(INF, 128)
    assert len(orbit) == 128
    assert sorted(v for v in orbit if v is not INF) == list(range(127))


def test_action_is_group_action(F127, rng):
    m1 = MoebiusMap(F127, 3, 1, 2, 5)
    m2 = MoebiusMap(F127, 0, 1, 124, 1)
    for pt in [INF] + [rng.randrange(127) for _ in range(20)]:
        assert (m1 * m2).apply(pt) == m1.apply(m2.apply(pt))


def test_match_moebius_identity(F127):
    x1 = RatFn(F127, Poly(F127, (42, 0, 1)), Poly(F127, (21, 1)))
    assert match_moebius(x1, x1) == MoebiusMap.identity(F127)


def test_match_moebius_read_off(F127):
    g = RatFn(F127, Poly(F127, (1, 1)), Poly.x(F127))  # (x+1)/x
    h = RatFn.x(F127)
    assert match_moebius(g, h) == MoebiusMap(F127, 1, 1, 1, 0)


def test_match_moebius_tower_level(F127):
    sigma = MoebiusMap(F127, 0, 1, 124, 1)
    x1 = RatFn(F127, Poly(F127, (42, 0, 1)), Poly(F127, (21, 1)))
    g = compose_moebius(x1, sigma)
    tbar = match_moebius(g, x1)
    rebuilt = RatFn(
        F127,
        x1.num.scale(tbar.a) + x1.den.scale(tbar.b),
        x1.num.scale(tbar.c) + x1.den.scale(tbar.d),
    )
    assert rebuilt == g


def test_match_moebius_rejects_unrelated(F127):
    g = RatFn.from_poly(Poly(F127, (0, 0, 1)))  # x^2
    h = RatFn.x(F127)
    with pytest.raises(NoMoebiusRelation):
        match_moebius(g, h)


def _applied(m, h):
    """M o h, M applied to the values of h (h not constant)."""
    return RatFn(m.field, h.num.scale(m.a) + h.den.scale(m.b), h.num.scale(m.c) + h.den.scale(m.d))


def _pairs(g, h):
    return (g.num.coeffs, g.den.coeffs), (h.num.coeffs, h.den.coeffs)


def _solved(g, h):
    """relation and match_moebius on g and h, checked to agree with each
    other and with the elimination reference: the map or None."""
    found = relation(g.field, *_pairs(g, h))
    assert found == relation_by_elimination(g.field, *_pairs(g, h))
    if found is None:
        with pytest.raises(NoMoebiusRelation):
            match_moebius(g, h)
    else:
        assert match_moebius(g, h) == found
    return found


def _random_ratfn(field, rng, lo, hi):
    """A reduced rational function of map degree lo to hi."""
    while True:
        num = Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(1, hi + 1))])
        den = Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(1, hi + 1))])
        if not den.is_zero():
            out = RatFn(field, num, den)
            if lo <= out.map_degree() <= hi:
                return out


def test_relation_agrees_with_a_search_of_pgl2(rng):
    """Against all of PGL_2(F_q) for F_5, GF(2^2) and GF(3^2) (120, 60 and
    720 maps): on g = M o h the solve returns exactly the one map the search
    finds, and on random pairs it refuses exactly when the search finds none;
    h of degree 1 to 3, g of 0 to 3."""
    for args, size in ((5,), 120), ((2, 2), 60), ((3, 2), 720):
        field = field_make(*args)
        maps = sorted(_pgl2(field), key=MoebiusMap.entries)
        assert len(maps) == size
        refused = 0
        for trial in range(120):
            h = _random_ratfn(field, rng, 1, 3)
            g = _applied(rng.choice(maps), h) if trial % 2 else _random_ratfn(field, rng, 0, 3)
            hits = [m for m in maps if _applied(m, h) == g]
            assert len(hits) <= 1
            found = _solved(g, h)
            assert (found is None) == (not hits), args
            if hits:
                assert found == hits[0], args
            refused += found is None
        assert 0 < refused < 120, args


@pytest.mark.parametrize("args", [(5,), (2, 2), (3, 2), (191,)])
def test_relation_needs_g_in_lowest_terms(args, rng):
    """relation reads g = M o h off g's coefficients, so a g whose numerator
    and denominator share a factor is refused (None), never mis-solved; the
    cross-multiplied elimination still finds M there."""
    field = field_make(*args)
    maps = [MoebiusMap(field, 1, 0, 0, 1), MoebiusMap(field, 0, 1, 1, 0),
            MoebiusMap(field, 1, 1, 1, 0), MoebiusMap(field, 1, 1, 0, 1)]
    for _ in range(30):
        h, m = _random_ratfn(field, rng, 1, 3), rng.choice(maps)
        g = _applied(m, h)
        factor = [rng.randrange(field.q), 1]  # x + c
        common = [mul_add(field, g.num.coeffs, factor), mul_add(field, g.den.coeffs, factor)]
        h_pair = (h.num.coeffs, h.den.coeffs)
        assert relation(field, (g.num.coeffs, g.den.coeffs), h_pair) == m
        assert relation(field, common, h_pair) is None
        assert relation_by_elimination(field, common, h_pair) == m


@pytest.mark.parametrize("args", [(5,), (2, 2), (191,)])
def test_relation_refuses_a_degenerate_solution(args, rng):
    """A constant g solves to A D = B C by Cramer's rule (its rows are
    proportional); relation returns None there before MoebiusMap would
    raise on the degenerate matrix."""
    field = field_make(*args)
    for _ in range(20):
        h = _random_ratfn(field, rng, 1, 3)
        k = rng.randrange(field.q)
        for g in ([k], [1]), ([k, 0, 0], [1, 0]), (h.den.coeffs, h.den.coeffs):
            assert relation(field, g, (h.num.coeffs, h.den.coeffs)) is None, (g, h)
    assert relation(field, ([1], [1]), ([1], [1])) is None  # h constant: no minor


@pytest.mark.parametrize("args", [(191,), (2, 6)])
def test_power_equals_repeated_compose(args):
    """__pow__ squares and multiplies raw 4-tuples and normalizes once; the
    result equals repeated compose (with the inverse for e < 0), and counts
    no more ops than the repeated compose's square and multiply did."""
    field = field_make(*args)
    m = MoebiusMap(field, 3, 1, 1, 5)
    for e in (-5, 0, 1, 2, 191):
        step = m if e >= 0 else m.inverse()
        want = MoebiusMap.identity(field)
        for _ in range(abs(e)):
            want = want.compose(step)
        assert m ** e == want, e
    for e in (2, 191):
        with field.count_ops() as ctr:
            m ** e
        products = e.bit_length() + bin(e).count("1") - 2  # square_multiply's calls
        assert (ctr.adds, ctr.muls, ctr.invs) == (4 * products + 1, 8 * products + 6, 1), e


@pytest.mark.parametrize("args", [(191,), (2, 6)])
def test_orbit_with_length_matches_apply(args):
    """The fixed-length orbit runs on projective pairs with one batched
    inversion; it visits the places apply visits, INF included."""
    field = field_make(*args)
    m = MoebiusMap(field, 0, 1, 1, 3)
    for start in (INF, 0, 5):
        want, cur = [], start
        for _ in range(12):
            want.append(cur)
            cur = m.apply(cur)
        with field.count_ops() as ctr:
            assert m.orbit(start, length=12) == want
        assert ctr.invs == 1
    with pytest.raises(ValidationError, match="orbit does not close"):
        m.orbit(0, length=field.q + 3)


@pytest.mark.parametrize("args", [(191,), (2, 6)])
def test_orbit_length_is_an_int_of_at_least_one(args):
    """An orbit has at least its start place: a length below 1 is refused,
    as a length that is no int, not read as [start]."""
    field = field_make(*args)
    m = MoebiusMap(field, 0, 1, 1, 3)
    for start in (INF, 0, 5):
        assert m.orbit(start, 1) == [start]
    for bad in (0, -1):
        with pytest.raises(ValidationError, match="at least 1"):
            m.orbit(5, bad)
    for bad in (True, 2.0, "3", None):
        with pytest.raises(ValidationError, match="not an integer"):
            m.orbit(5, bad)
