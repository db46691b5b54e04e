"""Raw-value validation at the public transform entry points."""

import pytest

from gfft.afft import add_fft, add_ifft, add_plan, padic_expand, padic_reassemble
from gfft.cfft import cyclic_plan, q1_fft, q1_ifft
from gfft.errors import InvalidFieldValue, MixedFields, ValidationError
from gfft.gf import field_make
from gfft.mfft import mult_fft, mult_ifft, mult_plan
from gfft.moebius import MoebiusMap
from gfft.poly import Poly, RatFn

CASES = {
    "mult": (lambda: mult_plan(field_make(17), (2, 2, 2, 2)), mult_fft, mult_ifft),
    "add": (lambda: add_plan(field_make(2, 12), [1, 2, 4]), add_fft, add_ifft),
    "cyclic": (lambda: cyclic_plan(field_make(7), (2, 2, 2)), q1_fft, q1_ifft),
}


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
                  lambda: add_plan(F16, [1, 2, 100])):
        with pytest.raises(InvalidFieldValue):
            build()
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
