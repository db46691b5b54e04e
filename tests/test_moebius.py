import itertools

import pytest

from gfft.errors import NoMoebiusRelation, ValidationError
from gfft.gf import field_make, find_primitive_element
from gfft.moebius import MoebiusMap, match_moebius
from gfft.poly import INF, Poly, RatFn, compose_moebius


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


@pytest.mark.parametrize("q", [5, 7])
def test_order_matches_composition_walk(q):
    # every element of PGL_2(q), against the least k with m^k the identity
    field = field_make(q)
    maps = {MoebiusMap(field, a, b, c, d)
            for a, b, c, d in itertools.product(range(q), repeat=4) if (a * d - b * c) % q}
    assert len(maps) == q * (q * q - 1)
    for m in maps:
        acc, k = m, 1
        while not acc.is_identity():
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
    orbit = sigma.orbit(INF)
    assert len(orbit) == 128
    assert sorted(v for v in orbit if v is not INF) == list(range(127))


def test_action_is_group_action(F127, rng):
    m1 = MoebiusMap(F127, 3, 1, 2, 5)
    m2 = MoebiusMap(F127, 0, 1, 124, 1)
    for pt in [INF] + [rng.randrange(127) for _ in range(20)]:
        assert (m1 * m2).apply(pt) == m1.apply(m2.apply(pt))


def test_match_moebius_identity(F127):
    x1 = RatFn(F127, Poly(F127, (42, 0, 1)), Poly(F127, (21, 1)))
    assert match_moebius(x1, x1).is_identity()


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
