import pytest

from gfft import mfft
from gfft.errors import (BasisMismatch, DegreeTooLarge, InvalidFieldValue, LengthMismatch,
                         RadixNotDividingGroupOrder, ValidationError)
from gfft.gf import field_make, find_primitive_element
from gfft.mfft import mult_fft, mult_ifft, mult_plan
from gfft.oracle import mpe_horner
from gfft.poly import Poly
from gfft.vectors import BASIS_LCH, CoeffVec


def test_plan_points_f17(F17):
    plan = mult_plan(F17, (2, 2, 2, 2))
    omega = find_primitive_element(F17).raw  # (q-1)/n = 1
    pts, acc = [], 1
    for _ in range(16):
        pts.append(acc)
        acc = F17.mul(acc, omega)
    assert plan.points == pts


def test_plan_trivial(F17):
    plan = mult_plan(F17, (), beta=5)
    assert plan.points == [5]
    assert mult_fft(plan, [7]) == [7]


def test_plan_full_group_f127(F127):
    plan = mult_plan(F127, (2, 3, 3, 7))
    assert plan.n == 126
    assert sorted(plan.points) == list(range(1, 127))


def test_plan_radix_error(F17):
    with pytest.raises(RadixNotDividingGroupOrder):
        mult_plan(F17, (3,))


def test_fft_constant_and_x(F17):
    plan = mult_plan(F17, (2, 2, 2, 2))
    assert mult_fft(plan, [9] + [0] * 15) == [9] * 16
    assert mult_fft(plan, [0, 1] + [0] * 14) == plan.points


def test_fft_matches_oracle(F17, rng):
    plan = mult_plan(F17, (2, 2, 2, 2))
    for _ in range(100):
        c = [rng.randrange(17) for _ in range(16)]
        assert mult_fft(plan, c) == mpe_horner(Poly(F17, c), plan.points)


def test_ifft_examples_and_roundtrip(F17, rng):
    plan = mult_plan(F17, (2, 2, 2, 2))
    assert list(mult_ifft(plan, [4] * 16).values) == [4] + [0] * 15
    assert list(mult_ifft(plan, plan.points).values) == [0, 1] + [0] * 14
    for _ in range(100):
        c = [rng.randrange(17) for _ in range(16)]
        assert list(mult_ifft(plan, mult_fft(plan, c)).values) == c
        v = [rng.randrange(17) for _ in range(16)]
        assert mult_fft(plan, list(mult_ifft(plan, v).values)) == v


def test_linearity(F127, rng):
    plan = mult_plan(F127, (2, 3, 3, 7))
    f = [rng.randrange(127) for _ in range(126)]
    g = [rng.randrange(127) for _ in range(126)]
    a, b = rng.randrange(1, 127), rng.randrange(1, 127)
    combo = [(a * x + b * y) % 127 for x, y in zip(f, g)]
    vf, vg = mult_fft(plan, f), mult_fft(plan, g)
    assert mult_fft(plan, combo) == [(a * x + b * y) % 127 for x, y in zip(vf, vg)]


def test_shift_covariance(F17, rng):
    # a shifted-coset plan evaluates the same polynomial at the scaled points
    gamma = 3
    plan_b = mult_plan(F17, (2, 2), beta=2)
    plan_bg = mult_plan(F17, (2, 2), beta=F17.mul(2, gamma))
    assert plan_bg.points == [F17.mul(gamma, x) for x in plan_b.points]
    c = [rng.randrange(17) for _ in range(4)]
    assert mult_fft(plan_bg, c) == mpe_horner(Poly(F17, c), plan_bg.points)


def test_length_and_basis_errors(F17):
    plan = mult_plan(F17, (2, 2))
    with pytest.raises(LengthMismatch):
        mult_fft(plan, [1, 2, 3])
    with pytest.raises(BasisMismatch):
        mult_fft(plan, CoeffVec((1, 2, 3, 4), BASIS_LCH))
    with pytest.raises(LengthMismatch):
        mult_ifft(plan, [1, 2, 3])


def test_opcount_quasilinear_growth():
    field = field_make(257)
    counts = {}
    for k in (3, 4, 5, 6):
        plan = mult_plan(field, (2,) * k)
        c = list(range(1, plan.n + 1))
        with field.count_ops() as ctr:
            mult_fft(plan, c)
        counts[plan.n] = ctr.total()
    for n in (8, 16, 32):
        ratio = counts[2 * n] / counts[n]
        assert 2.0 <= ratio <= 2.0 + 8 / (n.bit_length() - 1)


def test_build_refuses_repeated_points(F17, monkeypatch):
    # a generator of order 1 in place of the primitive element
    monkeypatch.setattr(mfft, "find_primitive_element", lambda field: field.one())
    with pytest.raises(ValidationError, match="evaluation points not distinct"):
        mult_plan(F17, (2, 2))


@pytest.mark.parametrize("args, radices", [((17,), (2, 2, 2, 2)), ((3, 2), (2, 2, 2))])
def test_conversions_are_the_identity(args, radices):
    """A mult plan's basis is the standard one, so to_standard and
    from_standard return the coefficients unchanged, read as every
    conversion reads them: a Poly is padded to n, and a vector of another
    basis or with an entry outside F_q is refused.  A vector of another
    length is refused by to_standard, which reads the plan's basis, while
    from_standard reads a polynomial and pads a short one as it pads a Poly."""
    field = field_make(*args)
    plan = mult_plan(field, radices)
    c = [(5 * i + 2) % field.q for i in range(plan.n)]
    with pytest.raises(LengthMismatch):
        plan.to_standard(c[:-1])
    assert plan.from_standard(c[:-1]).values == tuple(c[:-1]) + (0,)
    for convert in (plan.to_standard, plan.from_standard):
        assert convert(c) == CoeffVec(tuple(c), "standard")
        assert convert(CoeffVec(tuple(c), "standard")).values == tuple(c)
        assert convert(Poly(field, (1, 2))).values == (1, 2) + (0,) * (plan.n - 2)
        with pytest.raises(BasisMismatch):
            convert(CoeffVec(tuple(c), BASIS_LCH))
        with pytest.raises(InvalidFieldValue):
            convert([field.q] + c[1:])
        with pytest.raises(DegreeTooLarge):
            convert(Poly(field, [1] * (plan.n + 1)))
