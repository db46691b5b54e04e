"""Raw-value validation at the public transform entry points."""

import pytest

from gfft.afft import add_fft, add_ifft, add_plan
from gfft.cfft import cyclic_plan, q1_fft, q1_ifft
from gfft.errors import InvalidFieldValue, ValidationError
from gfft.gf import field_make
from gfft.mfft import mult_fft, mult_ifft, mult_plan

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
    for m_pair in ((), (1,), (1, 7, 9)):
        with pytest.raises(ValidationError):
            cyclic_plan(F23, (2, 2, 2, 3), m_pair=m_pair)
    # in-range ints and FieldElements still build
    assert mult_plan(F17, (2, 2), beta=F17(3)).beta == 3
    assert cyclic_plan(F23, (2, 2, 2, 3), m_pair=(1, 7)).m_coeffs == (1, 7)
    assert cyclic_plan(F23, (2, 2), fiber_key=7).bucket_key == 7
    assert add_plan(F16, [1, 2, F16(4)]).subspace_basis == (1, 2, 4)
