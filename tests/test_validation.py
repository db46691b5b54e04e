"""Raw-value validation at the public transform entry points."""

import pytest

from gfft.afft import add_fft, add_ifft, add_plan, lch_to_standard, padic_expand, padic_reassemble
from gfft.cfft import cyclic_plan, q1_fft, q1_ifft, std_to_tilde
from gfft.errors import InvalidFieldValue, MixedFields, PointMismatch, ValidationError
from gfft.gf import field_make
from gfft.mfft import mult_fft, mult_ifft, mult_plan
from gfft.moebius import MoebiusMap
from gfft.poly import Poly, RatFn
from gfft.vectors import CyclicEvalVec

CASES = {
    "mult": (lambda: mult_plan(field_make(17), (2, 2, 2, 2)), mult_fft, mult_ifft),
    "add": (lambda: add_plan(field_make(2, 12), [1, 2, 4]), add_fft, add_ifft),
    "cyclic": (lambda: cyclic_plan(field_make(7), (2, 2, 2)), q1_fft, q1_ifft),
}


def test_power_exponents_checked():
    """Every ** reads its exponent as an int, not a bool, before its sign:
    -1 inverts a field element and a Moebius map, and a polynomial has no
    negative power (square and multiply used to shift -1 forever)."""
    F17 = field_make(17)
    x, m, f = F17(3), MoebiusMap(F17, 3, 1, 1, 5), Poly(F17, [1, 1])
    assert x ** -1 == x.inverse() and m ** -1 == m.inverse()
    with pytest.raises(ValidationError, match="negative exponent"):
        f ** -1
    for base in (x, m, f):
        for e in (2.0, True, "3"):
            with pytest.raises(InvalidFieldValue):
                base ** e


@pytest.mark.parametrize("case", sorted(CASES))
def test_raw_values_checked_at_entry_points(case):
    make, fft, ifft = CASES[case]
    plan = make()
    field = plan.field
    good = [(3 * i + 1) % field.q for i in range(plan.n)]
    values = fft(plan, good)
    # FieldElements are accepted and unwrapped
    assert fft(plan, [field(v) for v in good]) == values
    for bad in (field.q, -3, 5000, 1.5, "2", None):
        with pytest.raises(InvalidFieldValue):
            fft(plan, [bad] + good[1:])
        raw_values = list(getattr(values, "values", values))
        with pytest.raises(InvalidFieldValue):
            ifft(plan, [bad] + raw_values[1:], *((values.a0,) if case == "cyclic" else ()))
    if case == "cyclic":
        assert list(ifft(plan, values).values) == good
        with pytest.raises(InvalidFieldValue):
            ifft(plan, values, a0=50)


def test_plan_parameters_checked():
    # each used to be reduced (beta 18 -> 1, m (24, 30) -> (1, 7), fiber 30 -> 7)
    # or to end in an IndexError
    F17, F23, F16 = field_make(17), field_make(23), field_make(2, 4)
    for build in (lambda: mult_plan(F17, (2, 2), beta=18),
                  lambda: mult_plan(F17, (2, 2), beta=-1),
                  lambda: mult_plan(F17, (2, 2), beta=True),
                  lambda: cyclic_plan(F23, (2, 2, 2, 3), m_pair=(24, 30)),
                  lambda: cyclic_plan(F23, (2, 2), fiber_key=30),
                  lambda: add_plan(F16, [1, 2, 100]),
                  # p, r and exponents are ints, not bools: 17.0 used to build
                  # a field whose add(3, 16) was 2.0, and 2.7 and True were
                  # used as the exponents 2 and 1
                  lambda: field_make(17.0),
                  lambda: field_make(2, 3.0),
                  lambda: field_make("17"),
                  lambda: field_make(17, True),
                  lambda: F17.pow(3, 2.7),
                  lambda: F17(3) ** 2.7,
                  lambda: F17(3) ** True):
        with pytest.raises(InvalidFieldValue):
            build()
    with pytest.raises(ValidationError, match="coset shift must be nonzero"):
        mult_plan(F17, (2, 2), beta=0)
    # radices are refused unless they are ints (not bools): these used to be
    # truncated to (2, 2), (2, 3, 2) and (2, 2)
    for build in (lambda: mult_plan(F17, [2.7, 2]),
                  lambda: cyclic_plan(F23, [2.9, 3, 2.2]),
                  lambda: mult_plan(F17, ["2", 2])):
        with pytest.raises(ValidationError):
            build()
    for m_pair in ((), (1,), (1, 7, 9)):
        with pytest.raises(ValidationError):
            cyclic_plan(F23, (2, 2, 2, 3), m_pair=m_pair)
    # in-range ints and FieldElements still build
    assert mult_plan(F17, (2, 2), beta=F17(3)).beta == 3
    assert cyclic_plan(F23, (2, 2, 2, 3), m_pair=(1, 7)).m_coeffs == (1, 7)
    assert cyclic_plan(F23, (2, 2), fiber_key=7).bucket_key == 7
    assert add_plan(F16, [1, 2, F16(4)]).subspace_basis == (1, 2, 4)
    assert F17.pow(3, 2) == (F17(3) ** 2).raw == 9


# A non-iterable where a vector, a basis, radices or an m pair belongs; each
# call used to end in a TypeError.
NON_ITERABLE_CALLS = {
    "mult_fft": lambda: mult_fft(mult_plan(field_make(17), (2, 2)), None),
    "mult_plan radices": lambda: mult_plan(field_make(17), None),
    "add_plan basis": lambda: add_plan(field_make(17), 3),
    "lch_to_standard": lambda: lch_to_standard(add_plan(field_make(2, 3), [1, 2]), None),
    "Poly": lambda: Poly(field_make(17), None),
    "std_to_tilde": lambda: std_to_tilde(cyclic_plan(field_make(17), (2, 3)), None),
    "q1_ifft": lambda: q1_ifft(cyclic_plan(field_make(17), (2, 3)), None),
    "cyclic_plan m_pair": lambda: cyclic_plan(field_make(17), (2, 3), m_pair=5),
}


@pytest.mark.parametrize("call", sorted(NON_ITERABLE_CALLS))
def test_non_iterable_refused(call):
    with pytest.raises(ValidationError, match="is not a sequence"):
        NON_ITERABLE_CALLS[call]()


# Each entry point reads a value through Field.raw; the table lists how one
# value v reaches it.
VALUE_ENTRY_POINTS = {
    "Field()": lambda F, v: F(v),
    "element + v": lambda F, v: F(1) + v,
    "v * element": lambda F, v: v * F(1),
    "v - element": lambda F, v: v - F(1),
    "Poly coefficient": lambda F, v: Poly(F, [1, v]),
    "Poly.scale": lambda F, v: Poly(F, [1, 1]).scale(v),
    "Poly.eval": lambda F, v: Poly(F, [1, 1]).eval(v),
    "Poly.from_roots": lambda F, v: Poly.from_roots(F, [v]),
    "RatFn.eval_place": lambda F, v: RatFn.x(F).eval_place(v),
    "MoebiusMap entry": lambda F, v: MoebiusMap(F, 1, v, 0, 1),
    "MoebiusMap.apply": lambda F, v: MoebiusMap.identity(F).apply(v),
    "CyclicPlan.tower_values": lambda F, v: cyclic_plan(F, (2,)).tower_values([v]),
    "padic_expand alpha": lambda F, v: padic_expand(Poly(F, [1, 2, 0, 1]), v),
    "padic_reassemble alpha": lambda F, v: padic_reassemble(F, [Poly.one(F)] * 2, v),
}


def _bad_values(F):
    """Values that are not in F: out of range, not an int, an element of
    another field, or a digit tuple F cannot hold."""
    return [F.q, -1, True, 1.5, "2", None, field_make(5)(1),
            (1,) * (F.r + 1), (0,) * (F.r - 1) + (F.p,)]


@pytest.mark.parametrize("entry", sorted(VALUE_ENTRY_POINTS))
@pytest.mark.parametrize("p,r", [(11, 1), (3, 2)])
def test_field_values_checked_not_reduced(entry, p, r):
    F, same = field_make(p, r), field_make(p, r)
    call = VALUE_ENTRY_POINTS[entry]
    for bad in _bad_values(F):
        with pytest.raises((InvalidFieldValue, MixedFields)):
            call(F, bad)
    # in-range ints and elements of an equal (not identical) field still pass
    for good in (0, 1, F.q - 1, same(F.q - 1)):
        call(F, good)


def test_field_element_equality_does_not_reduce():
    F11 = field_make(11)
    assert F11(4) == 4 and F11(4) != 15
    assert F11(4) == field_make(11)(4)
    assert field_make(3, 2)((1, 2)).raw == 7


def test_cyclic_ifft_refuses_values_of_another_fiber():
    # used to end in a bare KeyError from the point lookup
    F23 = field_make(23)
    plan, other = cyclic_plan(F23, (2, 3)), cyclic_plan(F23, (2, 3), fiber_key=7)
    ev = q1_fft(other, [1, 2, 3, 4, 5, 6])
    missing = next(pt for pt in plan.points if pt not in ev.points)
    with pytest.raises(PointMismatch, match=f"evaluation point {missing!r}"):
        q1_ifft(plan, ev)
    # the same values reordered still invert on their own plan
    shuffled = CyclicEvalVec(ev.points[::-1], ev.values[::-1], ev.tilde[::-1])
    assert list(q1_ifft(other, shuffled).values) == [1, 2, 3, 4, 5, 6]
    # the full plan's values cover this plan's points and more; the extra
    # ones used to be dropped
    ev = q1_fft(cyclic_plan(F23, (2, 2, 2, 3)), [i % 23 for i in range(1, 25)])
    assert set(plan.points) < set(ev.points)
    with pytest.raises(PointMismatch, match="holds an entry at inf, which is no evaluation point"):
        q1_ifft(plan, ev)


def test_transform_length_bound():
    # n = 2^21 is refused before any build, on every case
    field = field_make(2**31 - 1)
    with pytest.raises(ValidationError, match="transform length"):
        cyclic_plan(field, (2,) * 21)
    with pytest.raises(ValidationError, match="transform length"):
        mult_plan(field, (2,) * 21)
    # an additive plan over F_M31 with one basis element would list 2^31 points
    with pytest.raises(ValidationError, match="transform length"):
        add_plan(field, [1])
