import pytest

from divisors import cyclic_tower
from gfft.afft import add_plan
from gfft.cfft import cyclic_plan, tilde_to_std
from gfft.errors import DuplicatePoint
from gfft.gf import field_make
from gfft.mfft import mult_plan
from gfft.oracle import _cyclic_fibers, basis_matrix, lagrange_interpolate, mpe_horner
from gfft.poly import INF, Poly, RatFn
from gfft.repro import check_reproduction, tower_fraction


def test_horner_zero_and_random(F17, rng):
    assert mpe_horner(Poly.zero(F17), list(range(17))) == [0] * 17
    f = Poly(F17, [rng.randrange(17) for _ in range(6)])
    assert mpe_horner(f, [3, 5]) == [f.eval(3), f.eval(5)]


def test_horner_inf_aware(F127):
    f = Poly(F127, (1, 2))
    assert mpe_horner(f, [INF]) == [INF]
    assert mpe_horner(Poly.constant(F127, 9), [INF]) == [9]
    x1 = RatFn(F127, Poly(F127, (42, 0, 1)), Poly(F127, (21, 1)))
    assert mpe_horner(x1, [106, INF, 0]) == [INF, INF, F127.div(42, 21)]


def test_lagrange_examples(F17, rng):
    assert lagrange_interpolate(F17, [5], [9]) == Poly.constant(F17, 9)
    f = Poly(F17, [rng.randrange(17) for _ in range(8)])
    pts = rng.sample(range(17), 8)
    assert lagrange_interpolate(F17, pts, [f.eval(x) for x in pts]) == f
    with pytest.raises(DuplicatePoint):
        lagrange_interpolate(F17, [1, 1], [2, 3])


def test_lagrange_inverts_cyclic_values(rng):
    F23 = field_make(23)
    plan = cyclic_plan(F23, (2, 2, 2, 3))
    c = [rng.randrange(23) for _ in range(24)]
    from gfft.cfft import q1_fft

    ev = q1_fft(plan, c)
    finite = [(pt, v) for pt, v in zip(ev.points, ev.values) if pt is not INF]
    # 23 finite evaluations pin the interpolant of degree < 23; diff with the
    # converted polynomial (degree <= 23) is a multiple of x^23 - x
    f = Poly(F23, list(tilde_to_std(plan, c).values))
    interp = lagrange_interpolate(F23, [p for p, _ in finite], [v for _, v in finite])
    diff = f - interp
    vanishing = Poly(F23, [0, 22] + [0] * 21 + [1])  # x^23 - x
    assert diff.is_zero() or (diff % vanishing).is_zero()


def test_mult_basis_is_identity(F17):
    bm = basis_matrix(mult_plan(F17, (2, 2, 2, 2)))
    n = 16
    assert bm.matrix == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_trivial_basis_matrix(F17):
    bm = basis_matrix(mult_plan(F17, ()))
    assert bm.matrix == [[1]]


def test_additive_basis_column(F9):
    plan = add_plan(F9, [1, 3])
    bm = basis_matrix(plan)
    col = [bm.matrix[i][3] for i in range(9)]  # index e = p picks ell_1
    ell1 = plan.lin_polys[1]
    assert col == [ell1[i] for i in range(9)]


def test_basis_matrix_solve_inverts_apply(F9, rng):
    plan = add_plan(F9, [1, 3])
    bm = basis_matrix(plan)
    for _ in range(20):
        v = [rng.randrange(9) for _ in range(9)]
        assert bm.solve(bm.apply(v)) == v


# (p, r, radices, plan options): full and partial plans, prime and extension fields
TOWER_CONFIGS = [
    (127, 1, (2,) * 7, {"m_pair": (126, 3)}), (191, 1, (2,) * 6 + (3,), {}),
    (383, 1, (2,) * 7, {}), (2, 6, (5, 13), {}), (3, 4, (41,), {}), (3, 4, (2, 41), {}),
    (23, 1, (2, 3), {"fiber_key": 7}), (131, 1, (2, 3, 11), {}), (7, 2, (2, 5, 5), {}),
    (13, 1, (2, 7), {}),
]


@pytest.mark.parametrize("p, r, radices, options", TOWER_CONFIGS)
def test_cyclic_fibers_are_fibers_of_the_symbolic_tower(p, r, radices, options):
    """The oracle's fibers, taken from group data alone, against the tower
    built symbolically: each is |G_i| distinct places on which x_i takes one
    value (x_i has degree |G_i|, so that is a whole fiber), INF on the orbit
    through INF and the t-th pole of level i + 1 on the orbit through
    tau^t(INF)."""
    plan = cyclic_plan(field_make(p, r), radices, **options)
    tower = cyclic_tower(plan)
    for i, (fibers, lv) in enumerate(zip(_cyclic_fibers(plan), plan.levels)):
        assert [len(set(places)) for places in fibers] == [plan.subgroup_sizes[i]] * lv.radix
        assert [set(mpe_horner(tower[i], places)) for places in fibers] == (
            [{INF}] + [{pole} for pole in lv.poles])


@pytest.mark.parametrize("p, r, radices, options", TOWER_CONFIGS)
def test_tower_fraction_is_the_symbolic_tower(p, r, radices, options):
    # the level maps composed on coefficient lists give x_r in lowest terms
    plan = cyclic_plan(field_make(p, r), radices, **options)
    num, den = tower_fraction(plan)
    top = cyclic_tower(plan)[-1]
    assert (Poly(plan.field, num), Poly(plan.field, den)) == (top.num, top.den)


def test_oracle_and_repro_build_no_rational_function(monkeypatch):
    plan = cyclic_plan(field_make(127), (2,) * 7, m_pair=(126, 3))
    calls = []
    init = RatFn.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RatFn, "__init__", spy)
    basis_matrix(plan)
    assert check_reproduction()[0]
    assert calls == []
    RatFn.x(plan.field)  # the spy is live
    assert len(calls) == 1
