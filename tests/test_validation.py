"""Raw-value validation at the public transform entry points."""

import pytest

from gfft.afft import add_fft, add_ifft, add_plan
from gfft.cfft import cyclic_plan, q1_fft, q1_ifft
from gfft.errors import InvalidFieldValue
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
