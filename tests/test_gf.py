import itertools
import operator

import pytest

from divisors import quadratic_root_order, schoolbook_product
from gfft import gf
from gfft.errors import (InvalidFieldValue, MixedFields, NonPrimeP, ReducibleModulus,
                         ValidationError, ZeroInverse)
from gfft.gf import (
    field_make,
    find_primitive_element,
    find_primitive_quadratic,
    is_irreducible_modp,
    multiplicative_order,
    packed_product,
    product_modulus,
    quadratic_is_irreducible,
    square_multiply,
)


def _walk_order(mul, x, one):
    """Least k >= 1 with x^k == one, by repeated multiplication."""
    acc, k = x, 1
    while acc != one:
        acc, k = mul(acc, x), k + 1
    return k


def _divides(d, f, p):
    """Monic d divides f over F_p (ascending int lists), by long division."""
    rem = list(f)
    for k in range(len(f) - len(d), -1, -1):
        c = rem[k + len(d) - 1]
        for i, di in enumerate(d):
            rem[k + i] = (rem[k + i] - c * di) % p
    return not any(rem)


def test_field_make_prime_fields():
    assert field_make(127).q == 127
    assert field_make(2).q == 2
    assert field_make(2**31 - 1).q == 2**31 - 1  # the largest admitted prime field
    with pytest.raises(NonPrimeP):
        field_make(15)


def test_field_make_checks_the_bound_before_the_primality_test(monkeypatch):
    # trial division used to run first: on 10^18 + 3 it does not end in minutes
    def trial_division(n):
        raise AssertionError(f"is_prime({n}) ran before the size bound")

    monkeypatch.setattr(gf, "is_prime", trial_division)
    # primes: 10^18 + 3 and 2147483659 (the least above 2^31); then 2^31, GF(1031^2), GF(2^21)
    for p, r in ((10**18 + 3, 1), (2147483659, 1), (2**31, 1), (1031, 2), (2, 21)):
        with pytest.raises(ValidationError, match="beyond the"):
            field_make(p, r)


def test_field_make_refuses_degree_zero_and_a_prime_field_modulus():
    with pytest.raises(ValidationError, match="extension degree"):
        field_make(5, 0)
    for modulus in ([1, 2], 0, [], ()):  # a falsy modulus too
        with pytest.raises(ValidationError, match="prime field takes no modulus"):
            field_make(5, 1, modulus)


def test_field_make_f9_least_modulus():
    # exhaustive oracle over the 9 monic quadratics over F_3
    irreducible = []
    for c1 in range(3):
        for c0 in range(3):
            if all((t * t + c1 * t + c0) % 3 != 0 for t in range(3)):
                irreducible.append((c0, c1, 1))
    least = min(irreducible, key=lambda m: m[0] + 3 * m[1])
    F9 = field_make(3, 2)
    assert F9.modulus == least == (1, 0, 1)  # x^2 + 1


def test_field_make_rejects_reducible_modulus():
    with pytest.raises(ReducibleModulus):
        field_make(3, 2, (0, 0, 1))  # x^2
    with pytest.raises(ReducibleModulus):
        field_make(2, 3, (1, 0, 1))  # wrong degree


def test_field_make_checks_modulus_entries():
    # entries are checked, not reduced: [3, 1, 1] used to become x^2 + x + 1 over F_2
    for bad in ([3, 1, 1], [1, -1, 1], ["1", 1, 1], [1, 1, 1.9], [True, 1, 1]):
        with pytest.raises(InvalidFieldValue):
            field_make(2, 2, bad)
    assert field_make(2, 2, [1, 1, 1]).modulus == (1, 1, 1)


def test_field_make_refuses_a_non_iterable_modulus():
    # used to end in a TypeError from iterating the int
    with pytest.raises(InvalidFieldValue, match="not a sequence of integers"):
        field_make(2, 3, 5)


def test_irreducibility_degree6():
    assert is_irreducible_modp([1, 1, 0, 0, 0, 0, 1], 2)  # x^6+x+1
    assert not is_irreducible_modp([1, 0, 1, 0, 1, 0, 1], 2)  # (x^2+x+1)^... reducible


def _trial_division_irreducible(p, r):
    """Every monic irreducible of degree r over F_p, in packed order of its
    tail, by division by every monic polynomial of degree 1 ... r/2."""
    divisors = [list(tail) + [1] for k in range(1, r // 2 + 1)
                for tail in itertools.product(range(p), repeat=k)]
    tails = [list(reversed(t)) for t in itertools.product(range(p), repeat=r)]  # packed order
    return [tail + [1] for tail in tails
            if not any(_divides(d, tail + [1], p) for d in divisors)]


@pytest.mark.parametrize("p,max_r", [(2, 8), (3, 4), (5, 3)])
def test_irreducibility_matches_trial_division(p, max_r):
    # every monic polynomial of degree r, against trial division
    for r in range(1, max_r + 1):
        irreducible = _trial_division_irreducible(p, r)
        for tail in itertools.product(range(p), repeat=r):
            f = list(tail) + [1]
            assert is_irreducible_modp(f, p) == (f in irreducible), f


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                                 (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)])
def test_default_modulus_is_the_least_irreducible(p, r):
    # the least trial-division irreducible in packed order, c_0 + c_1 p + ...
    assert field_make(p, r).modulus == tuple(_trial_division_irreducible(p, r)[0])


def test_default_moduli_are_pinned():
    # the moduli plan files and the exp/log tables are built on
    assert field_make(2, 12).modulus == (1, 0, 0, 1) + (0,) * 8 + (1,)  # x^12 + x^3 + 1
    assert field_make(2, 16).modulus == (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,)  # x^16 + x^5 + x^3 + x + 1
    assert field_make(2, 20).modulus == (1, 0, 0, 1) + (0,) * 16 + (1,)  # x^20 + x^3 + 1
    assert field_make(3, 7).modulus == (2, 0, 1, 0, 0, 0, 0, 1)  # x^7 + x^2 + 2


@pytest.mark.parametrize("p,r", [(17, 1), (3, 2), (2, 4), (3, 3)])
def test_multiplicative_order_matches_power_walk(p, r):
    field = field_make(p, r)
    for x in range(1, field.q):
        walk = _walk_order(field.mul, x, 1)
        assert multiplicative_order(x, field.q - 1, field.pow, 1) == walk
        assert field.element_order(x) == walk


def test_multiplicative_order_checks_its_multiple(F17):
    # 2 has order 8 in F_17^*; 12 is not a multiple of it
    assert multiplicative_order(2, 16, F17.pow, 1) == 8
    assert multiplicative_order(2, (4, 4), F17.pow, 1) == 8  # 16 factored part by part
    assert gf.factorize(12, 10, 7) == {2: 3, 3: 1, 5: 1, 7: 1}
    with pytest.raises(ValidationError):
        multiplicative_order(2, 12, F17.pow, 1)


@pytest.mark.parametrize("p,r", [(2, k) for k in range(2, 21)] + [(3, 4), (5, 3), (7, 2), (101, 2)])
def test_packed_product_matches_the_schoolbook(p, r, rng):
    # random pairs, 0 and 1 as operands, and products with a term at or above
    # x^r, which the modulus reduces: in characteristic 2 the top bit shifted
    # into bit r, and the largest raw squared
    field = field_make(p, r)
    q, mod = field.q, product_modulus(field.modulus, p)
    top = p ** (r - 1)  # x^(r - 1)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(300)]
    pairs += [(x, y) for x in (0, 1) for y in (0, 1, q - 1, top)]
    pairs += [(y, x) for x, y in pairs[-8:]]
    pairs += [(top, p), (p, top), (top, top), (q - 1, q - 1), (q - 1, p), (top + 1, top + 1)]
    for x, y in pairs:
        assert packed_product(p, mod, x, y) == schoolbook_product(field, x, y), (x, y)
    assert packed_product(p, mod, top, p) == field.pack(-c % p for c in field.modulus[:r])  # x^r


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 6), (3, 4)])
def test_table_generator_is_least_by_walk(p, r):
    # the exp/log tables run over the least raw value of order q - 1
    field = field_make(p, r)
    least = next(c for c in range(2, field.q)
                 if _walk_order(lambda x, y: schoolbook_product(field, x, y), c, 1) == field.q - 1)
    assert field._exp[1] == least


@pytest.mark.parametrize("r", range(2, 15))
def test_char2_tables_match_the_product_walk(r):
    # the byte-table fill gives the lists a schoolbook walk from the generator gives
    field = field_make(2, r)
    q, gen = field.q, field._exp[1]
    exp, log, acc = [], [0] * q, 1
    for i in range(q - 1):
        exp.append(acc)
        log[acc] = i
        acc = schoolbook_product(field, acc, gen)
    assert acc == 1
    assert field._exp == exp + exp
    assert field._log == log


def test_char2_tables_take_no_product_per_entry(monkeypatch):
    # GF(2^16) has 65,535 table entries; Rabin's test on the 44 candidates
    # of the modulus search, the generator's order test and the r byte images
    # take 911 table-free products
    calls = [0]
    product = gf.packed_product

    def counted(*args):
        calls[0] += 1
        return product(*args)

    monkeypatch.setattr(gf, "packed_product", counted)
    field_make(2, 16)
    assert calls[0] <= 2000, calls[0]


def test_arithmetic_f127(F127):
    three = F127(3)
    assert (three.inverse()).raw == 85
    assert (three * three.inverse()).raw == 1
    assert (F127(100) + F127(50)).raw == 23
    assert (-F127(21)).raw == 106


def test_arithmetic_identity_random(F127, F9, rng):
    for field in (F127, F9):
        for _ in range(50):
            x = rng.randrange(field.q)
            assert field.mul(x, 1) == x
            if x:
                assert field.mul(x, field.inv(x)) == 1


def test_pow_group_order(F9):
    for g in range(1, 9):
        assert F9.pow(g, 8) == 1


def test_pow_negative_exponent_inverts(F127, F9):
    for field in (F127, F9):
        for x in range(1, 9):
            assert field.pow(x, -1) == field.inv(x)
            assert field.pow(x, -3) == field.inv(field.pow(x, 3))
        with pytest.raises(ZeroInverse):
            field.pow(0, -1)
    # one inverse, then square and multiply on the exponent 5
    with F127.count_ops() as ctr:
        F127.pow(3, -5)
    assert (ctr.muls, ctr.invs) == (3, 1)


def _sm_count(e):
    """square_multiply's product count: (bit length - 1) squarings and
    (popcount - 1) products."""
    return max(e.bit_length() + bin(e).count("1") - 2, 0)


def test_square_multiply_counts_its_products():
    calls = []

    def mul(u, v):
        calls.append(None)
        return u * v % 1009

    for e in range(301):
        calls.clear()
        assert square_multiply(mul, 3, e, 1) == pow(3, e, 1009), e
        assert len(calls) == _sm_count(e), e


@pytest.mark.parametrize("args", [(127,), (3, 2), (2, 6)])
def test_pow_charges_square_multiplys_count(args):
    """Field.pow keeps its native shortcut but charges square_multiply's
    count, at x = 0 and at x != 0 alike."""
    field = field_make(*args)
    for x in (0, 1, 5):
        for e in (0, 1, 2, 3, 7, 8, 13, 126, 300):
            with field.count_ops() as ctr:
                got = field.pow(x, e)
            assert got == square_multiply(field.mul, x, e, 1), (args, x, e)
            assert (ctr.adds, ctr.muls, ctr.invs) == (0, _sm_count(e), 0), (args, x, e)


@pytest.mark.parametrize("args", [(127,), (3, 2), (2, 6), (3, 4)])
def test_column_powers_match_pow(args):
    """square_multiply on Field.products powers a whole column, with
    square_multiply's count per entry."""
    field = field_make(*args)
    xs = list(range(min(field.q, 40)))
    for e in (2, 3, 5, 11, 13, 128):
        with field.count_ops() as ctr:
            got = square_multiply(field.products, xs, e, None)
        assert got == [field.pow(x, e) for x in xs], (args, e)
        assert (ctr.adds, ctr.muls) == (0, _sm_count(e) * len(xs)), (args, e)


@pytest.mark.parametrize("args", [(383,), (2**31 - 1,), (2, 6), (2, 12), (3, 2), (3, 4)])
def test_inverses_match_inv_at_montgomerys_count(args, rng):
    """Field.inverses equals Field.inv entry by entry, counted as one inv and
    3(N - 1) muls and no add for N entries, on the inline paths (F_p,
    GF(2^k)) and the mapped one (GF(3^k)) alike; the empty list costs
    nothing, and a zero anywhere raises ZeroInverse."""
    field = field_make(*args)
    for n in (1, 2, 3, 80, 1000):
        xs = [rng.randrange(1, field.q) for _ in range(n)]
        with field.count_ops() as ctr:
            got = field.inverses(xs)
        assert got == [field.inv(x) for x in xs], (args, n)
        assert (ctr.adds, ctr.muls, ctr.invs) == (0, 3 * (n - 1), 1), (args, n, ctr)
        for at in {0, n // 2, n - 1}:
            with pytest.raises(ZeroInverse):
                field.inverses(xs[:at] + [0] + xs[at + 1:])
    with field.count_ops() as ctr:
        assert field.inverses([]) == []
    assert (ctr.adds, ctr.muls, ctr.invs) == (0, 0, 0)


def test_pow_exponent_additivity(F127, rng):
    for _ in range(30):
        x = rng.randrange(1, 127)
        y, z = rng.randrange(500), rng.randrange(500)
        assert F127.mul(F127.pow(x, y), F127.pow(x, z)) == F127.pow(x, (y + z) % 126)


def test_extension_subtraction_and_packing(F27):
    x = F27.pack((1, 2, 0))
    y = F27.pack((2, 2, 1))
    assert F27.unpack(F27.sub(x, y)) == (2, 0, 2)
    assert F27.add(x, F27.neg(x)) == 0


def _digitwise(p, r, op, x, y=0):
    """op on the base-p digits of the packed values x and y, one digit at a
    time, mod p: the schoolbook rule for adding in F_p^r."""
    return sum(op(x // p**i % p, y // p**i % p) % p * p**i for i in range(r))


def _negate(a, _):
    return -a


@pytest.mark.parametrize("p, r, pairs", [
    (3, 2, None), (5, 2, None), (3, 3, None), (7, 2, None), (3, 4, None),
    (3, 7, 20000), (5, 4, 20000), (3, 9, 20000),
])
def test_zech_add_sub_neg_match_the_digit_rule(p, r, pairs, rng):
    # odd-characteristic add, sub and neg read the log tables (Zech's
    # logarithm); every pair of the small fields, random pairs of the larger
    # ones with zeros, x - x and x + (-x) among them, and one add per call
    field = field_make(p, r)
    q = field.q
    if pairs is None:
        xys = list(itertools.product(range(q), repeat=2))
    else:
        xys = [(rng.randrange(q), rng.randrange(q)) for _ in range(pairs)]
        xys += [(x, 0) for x, _ in xys[:50]] + [(0, y) for _, y in xys[:50]]
        xys += [(x, x) for x, _ in xys[:50]]
        xys += [(x, _digitwise(p, r, _negate, x)) for x, _ in xys[:50]]
    with field.count_ops() as ctr:
        for x, y in xys:
            assert field.add(x, y) == _digitwise(p, r, operator.add, x, y), (x, y)
            assert field.sub(x, y) == _digitwise(p, r, operator.sub, x, y), (x, y)
            assert field.neg(x) == _digitwise(p, r, _negate, x), x
    assert (ctr.adds, ctr.muls, ctr.invs) == (3 * len(xys), 0, 0)


def test_zero_inverse_raises(F127, F64):
    for field in (F127, F64):
        with pytest.raises(ZeroInverse):
            field.inv(0)


def test_mixed_fields_raises(F127, F17):
    with pytest.raises(MixedFields):
        F127(1) + F17(1)


def test_field_element_hash_agrees_with_equality(F9):
    F11 = field_make(11)
    assert 4 in {F11(4)}
    assert F11(4) in {4}
    assert len({F11(4), field_make(11)(4), 4}) == 1
    assert {F11(v) for v in (1, 2, 1, 3, 2)} == {1, 2, 3}
    assert {F9((1, 2)): "x"}[7] == "x"


def test_find_primitive_element_values(F127, F17):
    g = find_primitive_element(F127)
    assert g.raw == 3
    # oracle: g^((q-1)/l) != 1 for every prime l | 126 = 2*3^2*7
    for ell in (2, 3, 7):
        assert F127.pow(3, 126 // ell) != 1
    assert find_primitive_element(field_make(2)).raw == 1
    g17 = find_primitive_element(F17)
    assert g17.raw == 3
    for k in (2, 8):
        assert F17.pow(3, k) != 1


def test_find_primitive_element_extension(F9):
    g = find_primitive_element(F9)
    order = 1
    acc = g.raw
    while acc != 1:
        acc = F9.mul(acc, g.raw)
        order += 1
    assert order == 8


def test_primitive_quadratic_f2():
    F2 = field_make(2)
    a, b = find_primitive_quadratic(F2)
    assert (a.raw, b.raw) == (1, 1)


def test_primitive_quadratic_f3_order8():
    F3 = field_make(3)
    a, b = find_primitive_quadratic(F3)
    assert quadratic_is_irreducible(F3, a.raw, b.raw)
    assert quadratic_root_order(F3, a.raw, b.raw) == 8


NORM_FIELDS = [(191, 1), (383, 1), (1151, 1), (2, 4), (2, 6), (3, 3), (5, 2)]


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (127, 1), (2, 2), (3, 2)]
                         + NORM_FIELDS)
def test_primitive_quadratic_is_least_from_a_zero(p, r):
    # the search starts at a = 1; an exhaustive scan from a = 0 finds the same pair
    field = field_make(p, r)
    target = field.q * field.q - 1
    least = next((a, b) for a in range(field.q) for b in range(field.q)
                 if quadratic_is_irreducible(field, a, b)
                 and quadratic_root_order(field, a, b) == target)
    a, b = find_primitive_quadratic(field)
    assert (a.raw, b.raw) == least


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (13, 1), (2, 2), (2, 3), (2, 4), (3, 2)])
def test_quadratic_failure_matches_the_root_order(p, r):
    # on every (a, b): None exactly when a root has order q^2 - 1 by the
    # F_{q^2} reference, else the first test that fails, in order
    field = field_make(p, r)
    q = field.q
    failure = gf.quadratic_failure(field)
    for a in range(q):
        for b in range(q):
            if not quadratic_is_irreducible(field, a, b):
                why = "x^2 + a x + b is reducible"
            elif field.element_order(b) != q - 1:
                why = "x^2 + a x + b is irreducible but not primitive"
            elif quadratic_root_order(field, a, b) != q * q - 1:
                why = "companion map does not have order q+1"
            else:
                why = None
            assert failure(a, b) == why, (a, b)


@pytest.mark.parametrize("p, pair", [(2**31 - 1, (1, 11)), (131071, (1, 3))])
def test_primitive_quadratic_on_large_primes_passes_the_root_order(p, pair):
    # too large for a scan from a = 0: a = 0 never qualifies, so the pair is
    # the least when the F_{q^2} reference accepts it and no smaller b at a = 1
    field = field_make(p)

    def primitive(a, b):
        return (quadratic_is_irreducible(field, a, b)
                and quadratic_root_order(field, a, b) == p * p - 1)

    a, b = find_primitive_quadratic(field)
    assert (a.raw, b.raw) == pair
    assert primitive(*pair)
    assert not any(primitive(1, b) for b in range(1, pair[1]))


@pytest.mark.parametrize("p,r", [(2, 1)] + NORM_FIELDS)
def test_primitive_quadratic_norm_generates(p, r):
    # b = theta^(q+1) is the norm of a root theta, and the norm of a generator
    # of F_{q^2}^* generates F_q^* (on F_2, q - 1 = 1 and b = 1 does)
    field = field_make(p, r)
    _, b = find_primitive_quadratic(field)
    assert field.element_order(b.raw) == field.q - 1


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (5, 2),
                                 (3, 3), (7, 2)])
def test_quadratic_irreducibility_matches_a_root_scan(p, r):
    # the trace and discriminant tests, against a scan of F_q for a root, on every (a, b)
    field = field_make(p, r)
    for a in range(field.q):
        for b in range(field.q):
            no_root = all(field.add(field.mul(t, field.add(t, a)), b) for t in range(field.q))
            assert quadratic_is_irreducible(field, a, b) == no_root, (a, b)


def test_primitive_quadratic_accepts_published_f127_pair(F127):
    assert quadratic_is_irreducible(F127, 126, 3)
    assert quadratic_root_order(F127, 126, 3) == 127 * 127 - 1


def test_counter_additivity(F127):
    with F127.count_ops() as both:
        F127.mul(3, 5)
        F127.add(1, 2)
    with F127.count_ops() as first:
        F127.mul(3, 5)
    with F127.count_ops() as second:
        F127.add(1, 2)
    assert both.adds == first.adds + second.adds
    assert both.muls == first.muls + second.muls
    assert both.total() == first.total() + second.total()


def test_counter_scopes_nest(F127):
    with F127.count_ops() as outer:
        F127.mul(2, 2)
        with F127.count_ops() as inner:
            F127.mul(2, 2)
        F127.mul(2, 2)
    assert inner.muls == 1
    assert outer.muls == 2  # inner scope owns its own counts


def test_pow_counts_from_the_exponent_alone(F17, F9):
    # GF(9).pow(0, 5) used to count no muls where F_17's counted them
    for field in (F17, F9):
        for x in (0, 1, 2):
            for e, muls in ((5, 3), (0, 0)):
                with field.count_ops() as ctr:
                    field.pow(x, e)
                assert (ctr.adds, ctr.muls, ctr.invs) == (0, muls, 0), (field, x, e)
        assert field.pow(0, 5) == 0 and field.pow(0, 0) == 1


def test_serialization_forms(F127, F27):
    assert F127.serialize_raw(42) == 42
    assert F27.serialize_raw(F27.pack((1, 2, 0))) == [1, 2, 0]
    assert F27.parse_raw([1, 2, 0]) == F27.pack((1, 2, 0))


def test_parse_raw_checks_instead_of_reducing(F17, F27):
    assert F17.parse_raw(16) == 16 and F17.parse_raw([5]) == 5
    assert F27.parse_raw(26) == 26 and F27.parse_raw([2, 2]) == F27.pack((2, 2))
    for bad in (17, -1, 200, 1.0, [17], [1, 0]):
        with pytest.raises(InvalidFieldValue):
            F17.parse_raw(bad)
    for bad in (27, -1, [1, 2, 0, 0], [3, 0, 0], [0, -1], [1.5]):
        with pytest.raises(InvalidFieldValue):
            F27.parse_raw(bad)


def test_parse_raw_refuses_strings_and_bools(F17, F27):
    # int("3") and int(True) would accept these; a value file holds ints only
    for bad in ("3", " 1", "0", True, False, None):
        with pytest.raises(InvalidFieldValue):
            F17.parse_raw(bad)
    for bad in ("26", ["1", 2], [True, 0]):
        with pytest.raises(InvalidFieldValue):
            F27.parse_raw(bad)
