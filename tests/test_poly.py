import pytest

from divisors import ZeroFunction, factor_monic, valuation, valuation_at_irreducible
from gfft import cfft
from gfft.errors import DivisionByZeroPoly, InvalidFieldValue, MixedFields
from gfft.gf import field_make
from gfft.moebius import MoebiusMap
from gfft.poly import (
    INF,
    NEG_INF,
    Poly,
    RatFn,
    compose_moebius,
    lagrange_basis_interpolate,
    mod_inverse,
    mul_add,
)


def test_product_cancelling_cross_terms(F127):
    prod = Poly(F127, (21, 1)) * Poly(F127, (106, 1))
    assert prod == Poly(F127, (67, 0, 1))  # x^2 + 67


@pytest.mark.parametrize("name", ["F127", "F27"])
def test_product_op_counts(request, name):
    # one mul and one add per pair of nonzero coefficients, in both branches
    field = request.getfixturevalue(name)
    a, b = Poly(field, (3, 0, 1, 2)), Poly(field, (0, 5, 1))
    with field.count_ops() as ctr:
        a * b
    assert (ctr.muls, ctr.adds) == (6, 6)


@pytest.mark.parametrize("name", ["F127", "F27"])
def test_mul_add_accumulates_untrimmed(request, name):
    """acc + u v by element ops, at the length of the longer of acc and the
    product, trailing zeros kept; one mul and one add per pair of nonzero
    coefficients in both branches, none for an empty operand."""
    field = request.getfixturevalue(name)
    u, v = [3, 0, 1, 0], [0, 5, 0]

    def reference(acc):
        out = list(acc) + [0] * max(len(u) + len(v) - 1 - len(acc), 0)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                out[i + j] = field.add(out[i + j], field.mul(ui, vj))
        return out

    for acc in ((), [1, 2], [1, 2, 3, 4, 5, 6, 7, 8]):
        with field.count_ops() as ctr:
            out = mul_add(field, u, v, acc)
        assert out == reference(acc) and len(out) == max(len(acc), 6)
        assert (ctr.muls, ctr.adds, ctr.invs) == (2, 2, 0)
    assert out[6:] == [7, 8] and mul_add(field, u, v)[3:] == [5, 0, 0]
    with field.count_ops() as ctr:
        assert mul_add(field, [], v, [4]) == [4, 0] and mul_add(field, u, []) == [0, 0, 0]
    assert ctr.total() == 0


def test_coefficients_checked_not_reduced(F17):
    # Poly(F49, [100, 3]) used to keep the raw value 100, Poly(F11, [13]) became 2
    F49, F11 = field_make(7, 2), field_make(11)
    for field, bad in ((F49, 100), (F49, -1), (F11, 13), (F11, -1), (F11, True),
                       (F11, 1.0), (F11, "2"), (F11, None)):
        with pytest.raises(InvalidFieldValue):
            Poly(field, [bad, 3])
    with pytest.raises(MixedFields):
        Poly(F11, [F17(1)])
    # in-range ints and elements of an equal field are accepted
    assert Poly(F11, [field_make(11)(4), 10]).coeffs == (4, 10)
    assert Poly(F49, [48, 0]).coeffs == (48,)


def test_repr_prints_through_poly_str(F127):
    assert repr(Poly(F127, (85, 42, 1))) == "Poly(x^2+42x+85)"
    assert repr(Poly(F127, (0, 1, 0, 2))) == "Poly(2x^3+x)"
    assert repr(Poly.zero(F127)) == "Poly(0)"


def test_gcd_with_zero_is_monic(F127):
    f = Poly(F127, (4, 6, 2))
    assert f.gcd(Poly.zero(F127)) == f.monic()


def test_divmod_basic(F127):
    q, r = divmod(Poly(F127, (0, 0, 1)), Poly.x(F127))
    assert q == Poly.x(F127) and r.is_zero()
    with pytest.raises(DivisionByZeroPoly):
        divmod(Poly.x(F127), Poly.zero(F127))


def test_zero_degree_sentinel(F127):
    assert Poly.zero(F127).degree == NEG_INF
    assert Poly.zero(F127).eval(5) == 0


def test_eval_example(F127):
    assert Poly(F127, (42, 0, 1)).eval(5) == 67  # 25 + 42


def test_ratfn_eval_places(F127):
    x1 = RatFn(F127, Poly(F127, (42, 0, 1)), Poly(F127, (21, 1)))
    assert x1.eval_place(106) is INF  # 106 = -21
    assert x1.eval_place(INF) is INF  # deg 2 > deg 1
    g = RatFn(F127, Poly(F127, (0, 1)), Poly(F127, (1, 1)))
    assert g.eval_place(0) == 0  # num zero, den nonzero


def test_ratfn_eval_matches_poly_eval(F127, rng):
    for _ in range(20):
        coeffs = [rng.randrange(127) for _ in range(5)]
        f = Poly(F127, coeffs)
        rf = RatFn.from_poly(f)
        a = rng.randrange(127)
        assert rf.eval_place(a) == f.eval(a)


def test_valuations(F127):
    x1 = RatFn(F127, Poly(F127, (42, 0, 1)), Poly(F127, (21, 1)))
    assert valuation(x1, INF) == -1
    x = RatFn.x(F127)
    assert valuation(x, 0) == 1
    quad = Poly(F127, (85, 42, 1))
    num = Poly(F127, [0, 0, 1] + [0] * 125 + [125] + [0] * 125 + [1])
    y7 = RatFn(F127, num, quad**128 * Poly.constant(F127, 100))
    assert valuation_at_irreducible(y7, quad) == -128
    with pytest.raises(ZeroFunction):
        valuation(RatFn(F127, Poly.zero(F127), Poly.one(F127)), 0)


def test_compose_moebius_examples(F127):
    sigma = MoebiusMap(F127, 0, 1, 124, 1)
    g = compose_moebius(RatFn.x(F127), sigma)
    assert g == RatFn(F127, Poly.one(F127), Poly(F127, (1, 124)))  # 1/(124x+1)
    ident = MoebiusMap.identity(F127)
    x1 = RatFn(F127, Poly(F127, (42, 0, 1)), Poly(F127, (21, 1)))
    assert compose_moebius(x1, ident) == x1
    shift = MoebiusMap(F127, 1, 1, 0, 1)
    sq = RatFn.from_poly(Poly(F127, (0, 0, 1)))
    assert compose_moebius(sq, shift) == RatFn.from_poly(Poly(F127, (1, 2, 1)))


def test_compose_is_right_action(F127, rng):
    m1 = MoebiusMap(F127, 2, 5, 1, 9)
    m2 = MoebiusMap(F127, 0, 1, 124, 1)
    for _ in range(10):
        g = RatFn(
            F127,
            Poly(F127, [rng.randrange(127) for _ in range(4)]),
            Poly(F127, [rng.randrange(127) for _ in range(3)] + [1]),
        )
        if g.is_zero():
            continue
        assert compose_moebius(g, m1 * m2) == compose_moebius(compose_moebius(g, m1), m2)


@pytest.mark.parametrize("args", [(23,), (3, 2)])
def test_poly_compose_evaluates_the_inner_value(args, rng):
    """p.compose(r)(alpha) = p(r(alpha)) at every alpha of F_q, for the zero
    polynomial, constants and random p, and for r zero, constant or not."""
    field = field_make(*args)
    q = field.q
    polys = [Poly.zero(field), Poly.constant(field, 2)] + [
        Poly(field, [rng.randrange(q) for _ in range(rng.randint(1, 6))]) for _ in range(6)]
    inners = [Poly.zero(field), Poly.constant(field, q - 1), Poly.x(field)] + [
        Poly(field, [rng.randrange(q) for _ in range(rng.randint(2, 4))]) for _ in range(4)]
    for p in polys:
        for r in inners:
            composed = p.compose(r)
            assert [composed(a) for a in range(q)] == [p(r(a)) for a in range(q)], (p, r)


def test_ratfn_substitute_evaluates_place_by_place(F127, rng):
    """ratfn_substitute(outer, inner) takes at every place of F_127 u {INF}
    the value of outer at inner's value there, for non-constant inner."""
    def ratfn(dmax):
        while True:
            num = Poly(F127, [rng.randrange(127) for _ in range(rng.randint(1, dmax + 1))])
            den = Poly(F127, [rng.randrange(127) for _ in range(rng.randint(1, dmax + 1))])
            if not den.is_zero():
                return RatFn(F127, num, den)

    places = [INF, *range(127)]
    for _ in range(12):
        outer, inner = ratfn(3), ratfn(3)
        if inner.map_degree() == 0:
            continue
        composed = cfft.ratfn_substitute(outer, inner)
        assert [composed(pl) for pl in places] == [outer(inner(pl)) for pl in places]


def test_canonicalization_idempotent(F127, rng):
    for _ in range(20):
        num = Poly(F127, [rng.randrange(127) for _ in range(6)])
        den = Poly(F127, [rng.randrange(127) for _ in range(4)] + [1])
        if num.is_zero():
            continue
        g = RatFn(F127, num, den)
        again = RatFn(F127, g.num, g.den)
        assert again == g
        assert g.den.is_monic()
        assert g.num.gcd(g.den).degree == 0


def test_principal_divisor_degree_zero(F127, F9, rng):
    # valuations summed against a complete factorization over odd q
    for field in (F127, F9):
        for _ in range(5):
            num = Poly(field, [rng.randrange(field.q) for _ in range(7)])
            den = Poly(field, [rng.randrange(field.q) for _ in range(5)] + [1])
            if num.is_zero():
                continue
            g = RatFn(field, num, den)
            total = valuation(g, INF)
            for part, sign in ((g.num, 1), (g.den, -1)):
                if part.degree <= 0:
                    continue
                for prime, mult in factor_monic(part, rng).items():
                    assert valuation_at_irreducible(g, prime) == sign * mult
                    total += sign * mult * int(prime.degree)
            assert total == 0


def test_factor_monic_reassembles(F127, rng):
    for _ in range(10):
        f = Poly(F127, [rng.randrange(127) for _ in range(8)] + [1])
        factors = factor_monic(f, rng)
        prod = Poly.one(F127)
        for prime, mult in factors.items():
            prod = prod * prime**mult
        assert prod == f.monic()


def test_mod_inverse(F127, rng):
    m = Poly(F127, (85, 42, 1))  # irreducible
    for _ in range(10):
        a = Poly(F127, [rng.randrange(127) for _ in range(2)])
        if a.is_zero():
            continue
        inv = mod_inverse(a, m)
        assert (a * inv) % m == Poly.one(F127)


def test_interpolation_roundtrip(F127, rng):
    xs = rng.sample(range(127), 9)
    f = Poly(F127, [rng.randrange(127) for _ in range(9)])
    g = lagrange_basis_interpolate(F127, xs, [f.eval(x) for x in xs])
    assert g == f


@pytest.mark.parametrize("p, r", [(7, 1), (2, 4), (3, 2)])
def test_eval_counts_deg_adds_and_muls(p, r):
    # Horner from the leading coefficient on every field: deg adds and deg
    # muls, as cfft._horner counts on a one-point column
    field = field_make(p, r)
    poly = Poly(field, (1, 2, 3, 1))  # x^3 + 3x^2 + 2x + 1
    with field.count_ops() as ctr:
        value = poly.eval(2)
    with field.count_ops() as column:
        assert cfft._horner(field, poly.coeffs, [2]) == [value]
    assert (ctr.adds, ctr.muls) == (column.adds, column.muls) == (3, 3)
