import pytest

from gfft import engine
from gfft.afft import (
    add_fft,
    add_ifft,
    add_plan,
    lch_to_standard,
    padic_expand,
    padic_reassemble,
    standard_to_lch,
)
from gfft.errors import (
    DegreeTooLarge,
    DependentBasis,
    LengthMismatch,
    SubspaceTooLarge,
    ValidationError,
)
from gfft.gf import field_make
from gfft.oracle import basis_matrix, mpe_horner
from gfft.poly import Poly
from gfft.vectors import BASIS_LCH, CoeffVec


def f8_plan():
    F8 = field_make(2, 3)
    return F8, add_plan(F8, [1, 2, 4])


def test_plan_covers_f8(F9):
    # a unit basis spans the packed values in order, first vector fastest:
    # the point order that plan files store
    F8, plan = f8_plan()
    assert plan.points == list(range(8))
    assert plan.n == 8
    assert add_plan(F9, [1, 3]).points == list(range(9))


def test_plan_trivial(F9):
    plan = add_plan(F9, [])
    assert plan.points == [0]
    assert add_fft(plan, [5]) == [5]


def test_plan_f9_beta_and_ell(F9):
    g = 3  # packed (0, 1)
    plan = add_plan(F9, [1, g])
    assert plan.betas[0] == 1  # ell_0(1)^(p-1) = 1
    assert plan.lin_polys[1] == Poly(F9, (0, 2, 0, 1))  # x^3 - x


def test_plan_errors(F9, F27):
    with pytest.raises(SubspaceTooLarge):
        add_plan(F9, [1, 3, 4])
    with pytest.raises(DependentBasis):
        add_plan(F9, [1, 2])  # 2 = 2*1 over F_3


def test_fft_constant(F9):
    plan = add_plan(F9, [1, 3])
    assert add_fft(plan, [7] + [0] * 8) == [7] * 9


def test_fft_top_linearized_vanishes_on_subspace():
    F8, plan = f8_plan()
    coeffs = [0] * 8
    coeffs[4] = 1  # the top-level linearized polynomial ell_2
    vals = add_fft(plan, coeffs)
    for m, x in enumerate(plan.points):
        expected = plan.lin_polys[2].eval(x)
        assert vals[m] == expected
    assert all(vals[m] == 0 for m in range(4))  # first block is the kernel subspace


def test_fft_matches_oracle(F9, rng):
    plan = add_plan(F9, [1, 3])
    for _ in range(100):
        c = [rng.randrange(9) for _ in range(9)]
        std = lch_to_standard(plan, CoeffVec(tuple(c), BASIS_LCH))
        f = Poly(F9, list(std.values))
        assert add_fft(plan, c) == mpe_horner(f, plan.points)


def test_ifft_examples_and_roundtrip(F9, rng):
    plan = add_plan(F9, [1, 3])
    assert list(add_ifft(plan, [0] * 9).values) == [0] * 9
    F8, plan8 = f8_plan()
    vals_x = list(plan8.points)  # f = x has a_1 = 1 only
    rec = list(add_ifft(plan8, vals_x).values)
    assert rec == [0, 1] + [0] * 6
    for _ in range(100):
        c = [rng.randrange(9) for _ in range(9)]
        assert list(add_ifft(plan, add_fft(plan, c)).values) == c
        v = [rng.randrange(9) for _ in range(9)]
        assert add_fft(plan, list(add_ifft(plan, v).values)) == v


def test_linearized_maps_are_additive(F27):
    plan = add_plan(F27, [1, 3, 9])
    for i in (1, 2, 3):
        ell = plan.lin_polys[i]
        for u in range(27):
            for c in range(3):
                cu = 0
                for _ in range(c):
                    cu = F27.add(cu, u)
                want = 0
                for _ in range(c):
                    want = F27.add(want, ell.eval(u))
                assert ell.eval(cu) == want
        for u in (1, 5, 11, 19):
            for v in (2, 7, 13, 26):
                assert ell.eval(F27.add(u, v)) == F27.add(ell.eval(u), ell.eval(v))


def test_kernel_property_exact(F27):
    plan = add_plan(F27, [1, 3, 9])
    for i in range(1, 4):
        span = set()
        pts = [0]
        for b in plan.subspace_basis[:i]:
            ev = 0
            new = []
            for _ in range(3):
                new.extend(F27.add(x, ev) for x in pts)
                ev = F27.add(ev, b)
            pts = new
        span = set(pts)
        kernel = {u for u in range(27) if plan.lin_polys[i].eval(u) == 0}
        assert kernel == span


def test_padic_small_cases(F9):
    f = Poly(F9, (1, 2))
    assert padic_expand(f, 1) == [f]
    T2 = Poly(F9, (0, 2, 0, 1)) ** 2  # (x^3 - x)^2
    terms = padic_expand(T2, 1)
    assert terms == [Poly.zero(F9), Poly.zero(F9), Poly.one(F9)]


def test_padic_reassembly_random(F9, rng):
    for _ in range(50):
        deg = rng.randrange(1, 90)
        f = Poly(F9, [rng.randrange(9) for _ in range(deg)] + [rng.randrange(1, 9)])
        alpha = rng.randrange(1, 9)
        terms = padic_expand(f, alpha)
        assert all(t.degree < 3 for t in terms)
        assert len(terms) == int(f.degree) // 3 + 1
        assert padic_reassemble(F9, terms, alpha) == f


def test_padic_degree_p_boundary(F9, rng):
    for _ in range(10):
        f = Poly(F9, [rng.randrange(9) for _ in range(3)] + [rng.randrange(1, 9)])
        terms = padic_expand(f, 2)
        assert padic_reassemble(F9, terms, 2) == f


def test_conversion_small_examples(F9):
    plan = add_plan(F9, [1, 3])
    one = standard_to_lch(plan, [1])
    assert list(one.values) == [1] + [0] * 8
    ell1_std = [0] * 9
    for i, c in enumerate(plan.lin_polys[1].coeffs):
        ell1_std[i] = c
    lch = standard_to_lch(plan, ell1_std)
    expected = [0] * 9
    expected[3] = 1  # index p
    assert list(lch.values) == expected
    assert list(lch_to_standard(plan, lch).values) == ell1_std


def test_conversion_roundtrip_and_pipeline(F27, rng):
    plan = add_plan(F27, [1, 3, 9])
    for _ in range(50):
        c = [rng.randrange(27) for _ in range(27)]
        lch = standard_to_lch(plan, c)
        assert list(lch_to_standard(plan, lch).values) == c
        assert add_fft(plan, lch) == mpe_horner(Poly(F27, c), plan.points)


def test_conversion_degree_error(F9):
    plan = add_plan(F9, [1, 3])
    with pytest.raises(DegreeTooLarge):
        standard_to_lch(plan, [0] * 10)


def test_length_error(F9):
    plan = add_plan(F9, [1, 3])
    with pytest.raises(LengthMismatch):
        add_fft(plan, [1, 2, 3])
    # refused before the kernel's gather, which would fail on a short list
    # and drop the tail of a long one
    for values in ([1, 2, 3], list(range(9)) + [1]):
        with pytest.raises(LengthMismatch, match=f"{len(values)} values for 9 points"):
            add_ifft(plan, values)


def _conversion_inputs(field, n, rng):
    one = [0] * n
    one[rng.randrange(n)] = rng.randrange(1, field.q)
    yield [0] * n
    yield one
    yield [rng.randrange(field.q) for _ in range(n // 2)] + [0] * (n - n // 2)
    for _ in range(3):
        yield [rng.randrange(field.q) for _ in range(n)]


# full-dimension configs keep their "p-r" ids; then dim 9 of 10 and dims 0-2
CONVERSION_CONFIGS = [pytest.param(p, r, r, id=f"{p}-{r}")
                      for p, r in ((2, 6), (3, 4), (5, 3), (7, 2))]
CONVERSION_CONFIGS += [(2, 10, 9), (3, 4, 0), (2, 5, 1), (3, 3, 1), (3, 4, 2), (5, 2, 2)]


@pytest.mark.parametrize("p,r,dim", CONVERSION_CONFIGS)
def test_lch_to_standard_matches_basis_matrix(p, r, dim, rng):
    # second route: columns are products of lin_polys powers, no binomial
    # composition or division; the dense matrix checks both directions, on
    # zero-heavy inputs too, each taken as lch and as standard coefficients
    field = field_make(p, r)
    plan = add_plan(field, [p**i for i in range(dim)])
    bm = basis_matrix(plan)
    for c in _conversion_inputs(field, plan.n, rng):
        std = bm.apply(c)
        assert list(lch_to_standard(plan, CoeffVec(tuple(c), BASIS_LCH)).values) == std
        assert list(standard_to_lch(plan, std).values) == c
        assert bm.apply(list(standard_to_lch(plan, c).values)) == c


@pytest.mark.parametrize("p,r,dim", CONVERSION_CONFIGS)
def test_conversion_op_counts_are_dense_and_symmetric(p, r, dim, rng):
    # the column ops count every entry, zero or not, and the two directions
    # run mirror passes: one count for both directions and every input, with
    # n (p - 1)/2 adds per division depth, dim - 1 - l depths at level l
    field = field_make(p, r)
    plan = add_plan(field, [p**i for i in range(dim)])
    counts = set()
    for c in _conversion_inputs(field, plan.n, rng):
        for convert, coeffs in ((standard_to_lch, c),
                                (lch_to_standard, CoeffVec(tuple(c), BASIS_LCH))):
            with field.count_ops() as ctr:
                convert(plan, coeffs)
            counts.add((ctr.adds, ctr.muls, ctr.invs))
    assert len(counts) == 1, counts
    adds, muls, invs = counts.pop()
    assert adds == plan.n * (p - 1) * dim * (dim - 1) // 4 and invs == 0


# -- plan validation: each check of the build and of AddPlan._validate rejects its own fault


def test_validate_rejects_corrupt_level_point(F27, monkeypatch):
    # the build checks each level's points constant on their fibers as it
    # makes them (engine.fiber_levels): corrupt one image on level 2
    real = engine.fiber_levels

    def corrupting(points, radices, step):
        def bad_step(i, xs):
            out = step(i, xs)
            if i == 2:
                out[1] = F27.add(out[1], 1)
            return out
        return real(points, radices, bad_step)

    monkeypatch.setattr(engine, "fiber_levels", corrupting)
    with pytest.raises(ValidationError, match="fiber constancy violated at level 2"):
        add_plan(F27, [1, 3, 9])


def test_lin_polys_are_monic_linearized():
    """Each ell_i is monic of degree p^i with nonzero coefficients only at
    degrees p^j, on GF(2^6), GF(3^3) and GF(2^12): the Frobenius-chain
    values read only those degrees, so the vanishing check proves ell_i
    F_p-linear only on this shape."""
    for args, basis in [((2, 6), [1, 2, 4, 8]), ((3, 3), [1, 3, 9]),
                        ((2, 12), [1 << k for k in range(10)])]:
        field = field_make(*args)
        p, plan = field.p, add_plan(field, basis)
        assert len(plan.lin_polys) == len(basis) + 1
        for i, ell in enumerate(plan.lin_polys):
            assert ell.degree == p**i and ell.is_monic(), (args, i)
            assert all(d in {p**j for j in range(i + 1)}
                       for d, c in enumerate(ell.coeffs) if c), (args, i)


def test_validate_rejects_vanishing_violation(F27):
    plan = add_plan(F27, [1, 3, 9])
    # changing the x coefficient keeps ell_1 linearized but moves its kernel
    coeffs = list(plan.lin_polys[1].coeffs)
    coeffs[1] = F27.add(coeffs[1], 1)
    plan.lin_polys[1] = Poly(F27, coeffs)
    with pytest.raises(ValidationError, match="ell_1 does not vanish on its subspace"):
        plan._validate()


def test_validate_rejects_killed_basis_element(F27):
    plan = add_plan(F27, [1, 3, 9])
    # b_2 := b_1 + 2 b_0 lies in span(b_0, b_1), so ell_2 kills it
    plan.subspace_basis = (1, 3, F27.add(3, 2))
    with pytest.raises(DependentBasis, match="ell_2 kills basis element 2"):
        plan._validate()
