import itertools
import json
import sys
import time

import pytest

from divisors import ratfn_levels
from gfft import cfft, engine, fileio, gf, poly

from gfft.cfft import (
    cyclic_plan,
    q1_fft,
    q1_ifft,
    ratfn_substitute,
    std_to_tilde,
    tilde_to_std,
)
from gfft.afft import add_fft, add_ifft, add_plan, lch_to_standard, standard_to_lch
from gfft.errors import (
    BasisMismatch,
    DegreeTooLarge,
    InvalidFieldValue,
    LengthMismatch,
    MixedFields,
    PrimitivityFailure,
    RadixNotDividing,
    SplitValidationFailure,
    ValidationError,
)
from gfft.gf import field_make
from gfft.mfft import mult_fft, mult_ifft, mult_plan
from gfft.moebius import MoebiusMap
from gfft.oracle import basis_matrix, cyclic_tower, lagrange_interpolate, mpe_horner
from gfft.poly import INF, Poly, RatFn
from gfft.repro import WORKED_COEFFS, WORKED_VALUES
from gfft.vectors import BASIS_CYCLIC, BASIS_STANDARD, CoeffVec


@pytest.fixture(scope="module")
def plan127():
    return cyclic_plan(field_make(127), (2,) * 7, m_pair=(126, 3))


@pytest.fixture(scope="module")
def plan7():
    return cyclic_plan(field_make(7), (2, 2, 2))


@pytest.fixture(scope="module")
def plan23():
    return cyclic_plan(field_make(23), (2, 2, 2, 3))


@pytest.fixture(scope="module")
def plan11():
    return cyclic_plan(field_make(11), (2, 2))


def test_plan_errors():
    F7 = field_make(7)
    with pytest.raises(RadixNotDividing):
        cyclic_plan(F7, (3,))
    F127 = field_make(127)
    with pytest.raises(PrimitivityFailure):
        cyclic_plan(F127, (2, 2), m_pair=(0, 1))  # irreducible but root order 4


def test_published_structure(plan127):
    assert plan127.quads[0] == Poly(plan127.field, (85, 42, 1))
    assert [lv.poles[0] for lv in plan127.levels] == [106, 85, 43, 86, 45, 90, 53]
    x1 = plan127.levels[0]  # x_1 in x_0 = x coordinates
    assert x1.num == Poly(plan127.field, (42, 0, 1))
    assert x1.den == Poly(plan127.field, (21, 1))
    tower = cyclic_tower(plan127)
    assert tower[1] == RatFn(plan127.field, x1.num, x1.den)
    assert tower[-1].num == Poly(plan127.field, [85, 42] + [0] * 126 + [1])
    assert plan127.scale_const == 100


def test_worked_example_reproduces(plan127):
    ev = q1_fft(plan127, list(WORKED_COEFFS))
    expected = {a: (fv, tv) for a, fv, tv in WORKED_VALUES}
    for idx, pt in enumerate(ev.points):
        key = "inf" if pt is INF else pt
        assert (ev.values[idx], ev.tilde[idx]) == expected[key]
    assert ev.inf_value == 0
    assert ev.a0 == WORKED_COEFFS[0]


def test_worked_example_inverse_roundtrip(plan127):
    ev = q1_fft(plan127, list(WORKED_COEFFS))
    assert list(q1_ifft(plan127, ev).values) == list(WORKED_COEFFS)


def test_full_case_top_basis_element(plan7):
    # single coefficient a_0: the basis polynomial is x^q - x
    c = [1] + [0] * 7
    ev = q1_fft(plan7, c)
    assert all(v == 0 for v in ev.values)
    assert ev.a0 == 1
    std = tilde_to_std(plan7, c)
    assert list(std.values) == [0, 6] + [0] * 5 + [1]  # x^7 - x


def test_full_case_oracle_equivalence(plan7, plan23, rng):
    for plan in (plan7, plan23):
        q = plan.field.q
        bm = basis_matrix(plan)
        for _ in range(60):
            c = [rng.randrange(q) for _ in range(plan.n)]
            ev = q1_fft(plan, c)
            std = tilde_to_std(plan, c)
            assert bm.apply(c) == list(std.values)
            f = Poly(plan.field, list(std.values))
            for pt, v in zip(ev.points, ev.values):
                if pt is INF:
                    assert v == 0
                else:
                    assert v == f.eval(pt)


def test_partial_case_oracle_equivalence(plan11, rng):
    bm = basis_matrix(plan11)
    for _ in range(60):
        c = [rng.randrange(11) for _ in range(4)]
        ev = q1_fft(plan11, c)
        std = tilde_to_std(plan11, c)
        assert bm.apply(c) == list(std.values)
        f = Poly(plan11.field, list(std.values))
        assert list(ev.values) == [f.eval(pt) for pt in ev.points]


def test_roundtrips(plan7, plan11, plan23, rng):
    for plan in (plan7, plan11, plan23):
        q = plan.field.q
        for _ in range(60):
            c = [rng.randrange(q) for _ in range(plan.n)]
            assert list(q1_ifft(plan, q1_fft(plan, c)).values) == c


def test_fft_of_ifft_identity(plan23, plan11, rng):
    # full plans: attainable value vectors have a zero slot at infinity,
    # arbitrary finite values, and an arbitrary carried top coefficient
    for _ in range(30):
        vals = [0 if pt is INF else rng.randrange(23) for pt in plan23.points]
        a0 = rng.randrange(23)
        coeffs = q1_ifft(plan23, vals, a0=a0)
        ev = q1_fft(plan23, coeffs)
        assert list(ev.values) == vals and ev.a0 == a0
    for _ in range(30):
        vals = [rng.randrange(11) for _ in plan11.points]
        coeffs = q1_ifft(plan11, vals)
        assert list(q1_fft(plan11, coeffs).values) == vals


def test_ifft_requires_carried_coefficient(plan7):
    vals = [0] * 8
    with pytest.raises(ValidationError):
        q1_ifft(plan7, vals)
    assert list(q1_ifft(plan7, vals, a0=0).values) == [0] * 8


def test_conversion_roundtrip_and_horner_anchor(plan23, plan127, rng):
    for _ in range(40):
        c = [rng.randrange(23) for _ in range(24)]
        std = tilde_to_std(plan23, c)
        back = std_to_tilde(plan23, std)
        assert list(back.values) == c
    std = tilde_to_std(plan127, list(WORKED_COEFFS))
    f = Poly(plan127.field, list(std.values))
    assert f.eval(106) == 123  # published value pair at 106
    assert list(std_to_tilde(plan127, std).values) == list(WORKED_COEFFS)


def test_std_to_tilde_rejects_large_degree(plan11):
    with pytest.raises(DegreeTooLarge):
        std_to_tilde(plan11, [0] * 5)
    with pytest.raises(DegreeTooLarge):
        std_to_tilde(plan11, Poly(plan11.field, [1] * 5))


def test_std_to_tilde_checks_basis_and_values(plan11):
    with pytest.raises(BasisMismatch):
        std_to_tilde(plan11, CoeffVec((1, 2, 3, 4), BASIS_CYCLIC))
    with pytest.raises(InvalidFieldValue):
        std_to_tilde(plan11, [1, 11, 3])
    # checked, not reduced: [13] used to raise while Poly(F11, [13]) became 2
    for bad in (13, -1, True):
        with pytest.raises(InvalidFieldValue):
            std_to_tilde(plan11, [bad])
        with pytest.raises(InvalidFieldValue):
            std_to_tilde(plan11, Poly(plan11.field, [bad]))
    # a GF(49) coefficient 100 used to reach the plan as truncated digits
    plan49 = cyclic_plan(field_make(7, 2), (2, 5, 5))
    with pytest.raises(InvalidFieldValue):
        std_to_tilde(plan49, Poly(plan49.field, [100, 3]))
    with pytest.raises(InvalidFieldValue):
        std_to_tilde(plan49, [100, 3])


@pytest.mark.parametrize("config", ["plan7", "plan11", "plan23", "F49-255", "F27-227"])
def test_std_to_tilde_matches_basis_matrix(request, config, rng):
    """Both conversions against the dense oracle, whose columns are built
    from point-set data and share no code with the transform."""
    if config.startswith("plan"):
        plan = request.getfixturevalue(config)
    elif config == "F49-255":
        plan = cyclic_plan(field_make(7, 2), (2, 5, 5))
    else:
        plan = cyclic_plan(field_make(3, 3), (2, 2, 7))
    bm = basis_matrix(plan)
    q, n = plan.field.q, plan.n
    for trial in range(20):
        std = [rng.randrange(q) for _ in range(rng.randrange(n + 1))]
        expected = bm.solve(std + [0] * (n - len(std)))
        assert list(std_to_tilde(plan, std).values) == expected
        assert list(tilde_to_std(plan, expected).values) == std + [0] * (n - len(std))
        if trial == 0:
            assert list(std_to_tilde(plan, Poly(plan.field, std)).values) == expected


def test_radix_order_variants(rng):
    F23 = field_make(23)
    for radices in ((3, 2, 2, 2), (2, 3, 2, 2)):
        plan = cyclic_plan(F23, radices)
        for _ in range(25):
            c = [rng.randrange(23) for _ in range(24)]
            ev = q1_fft(plan, c)
            f = Poly(F23, list(tilde_to_std(plan, c).values))
            for pt, v in zip(ev.points, ev.values):
                if pt is not INF:
                    assert v == f.eval(pt)
            assert list(q1_ifft(plan, ev).values) == c


@pytest.mark.parametrize("field_args, radices", [
    ((5,), (2, 3)), ((5,), (3, 2)), ((5,), (3,)), ((7,), (4,)), ((11,), (4, 3)),
    ((11,), (3, 4)), ((11,), (6,)), ((13,), (7,)), ((13,), (2, 7)), ((3, 2), (5,)),
    ((5, 2), (13,)), ((3, 4), (41,)),
])
def test_large_radix_against_small_q(field_args, radices, rng):
    """Plans with a radix p_i > (q+1)/4, full (n = q+1) and partial: the
    level quadratics are read off the level identity, which holds whatever
    the radix, against the oracle, round trips and both conversions."""
    plan = cyclic_plan(field_make(*field_args), radices)
    field, bm = plan.field, basis_matrix(plan)
    for _ in range(5):
        c = [rng.randrange(field.q) for _ in range(plan.n)]
        std = bm.apply(c)
        f = Poly(field, std)
        ev = q1_fft(plan, c)
        assert list(ev.values) == [0 if pt is INF else f.eval(pt) for pt in ev.points]
        assert list(q1_ifft(plan, ev).values) == c
        assert list(tilde_to_std(plan, c).values) == std
        assert list(std_to_tilde(plan, std).values) == c


def test_trivial_plan(rng):
    F11 = field_make(11)
    plan = cyclic_plan(F11, ())
    ev = q1_fft(plan, [5])
    assert list(ev.values) == [5]
    assert list(q1_ifft(plan, ev).values) == [5]


def test_fiber_choice_override():
    F11 = field_make(11)
    default = cyclic_plan(F11, (2, 2))
    keys = set()
    xr = cyclic_tower(default)[2]
    for alpha in range(11):
        v = xr.eval_place(alpha)
        if v is not INF:
            keys.add(v)
    other = sorted(k for k in keys if k not in (0, default.bucket_key))
    if other:
        plan = cyclic_plan(F11, (2, 2), fiber_key=other[0])
        assert plan.bucket_key == other[0]
        c = [1, 2, 3, 4]
        f = Poly(F11, list(tilde_to_std(plan, c).values))
        ev = q1_fft(plan, c)
        assert list(ev.values) == [f.eval(pt) for pt in ev.points]
    # 0 is either not a fiber value or the unscalable one; both must raise
    with pytest.raises(ValidationError):
        cyclic_plan(F11, (2, 2), fiber_key=0)


def test_basis_and_length_errors(plan7):
    with pytest.raises(LengthMismatch):
        q1_fft(plan7, [1, 2, 3])
    with pytest.raises(BasisMismatch):
        q1_fft(plan7, CoeffVec((0,) * 8, BASIS_STANDARD))
    with pytest.raises(LengthMismatch):
        q1_ifft(plan7, [1, 2, 3])


def test_tower_identities_outside_build(plan23):
    # recheck, against the oracle's symbolic tower, what the build proves
    # from degree-p identities and projective point values
    field = plan23.field
    tower = cyclic_tower(plan23)
    for i in range(1, plan23.r + 1):
        lv = plan23.levels[i - 1]
        mi = RatFn(field, lv.num, lv.den)
        assert ratfn_substitute(mi, tower[i - 1]) == tower[i]
        assert sorted(lv.poles) == sorted(lv.den.roots())
    xr = tower[-1]
    assert xr.num.degree == plan23.n and xr.num.is_monic() and xr.den.degree == plan23.n - 1
    top = plan23.tower_values([*range(field.q), INF])[-1]
    assert top == [(xr.num.eval(alpha), xr.den.eval(alpha)) for alpha in range(field.q)] + [(1, 0)]


def test_scaling_guards_the_scale_identity():
    # on a partial fiber, a wrong Q_r fails the fiber's norm prod Q_0 = Q_r(key),
    # and a wrong level-denominator value, as the fiber pass kept it, the
    # per-point c Q_0^n = D^2 Q_r(key)
    plan = cyclic_plan(field_make(11), (2, 2))
    plan._build_scaling()
    f, qr, vs = plan.field, plan.quads[-1], plan.level_dens[-1]
    plan.quads[-1] = Poly(f, (f.add(qr[0], 1), qr[1], qr[2]))
    with pytest.raises(ValidationError, match="norm of Q_0"):
        plan._build_scaling()
    plan.quads[-1] = qr
    plan.level_dens[-1] = [f.add(vs[0], 1)] + vs[1:]
    with pytest.raises(ValidationError, match="tower identity"):
        plan._build_scaling()


@pytest.mark.parametrize("field_args, radices", [((383,), (2,) * 7), ((2, 6), (5, 13)),
                                                 ((3, 4), (41,))])
def test_tower_values_cost_per_place_and_level(field_args, radices):
    """Each level map costs 2p - 1 adds, 5p - 1 muls and no inversion a
    place, on every field kind, at INF too."""
    plan = cyclic_plan(field_make(*field_args), radices)
    f = plan.field
    places = [INF, 0, 1] + plan.points[:4]
    for upto in range(plan.r + 1):
        with f.count_ops() as ctr:
            plan.tower_values(places, upto)
        per_place = [(2 * p - 1, 5 * p - 1) for p in radices[:upto]]
        adds, muls = (sum(c) * len(places) for c in zip((0, 0), *per_place))
        assert (ctr.adds, ctr.muls, ctr.invs) == (adds, muls, 0), upto


@pytest.mark.parametrize("field_args, radices", [((383,), (2,) * 7), ((3, 4), (41,))])
def test_partial_build_evaluates_each_level_denominator_once(field_args, radices, monkeypatch):
    """The fiber pass evaluates v_i on level i - 1's points, and the scales
    reuse those values: one _horner call per level denominator."""
    calls = []
    horner = cfft._horner

    def spy(field, coeffs, xs):
        calls.append((tuple(coeffs), len(xs)))
        return horner(field, coeffs, xs)

    monkeypatch.setattr(cfft, "_horner", spy)
    plan = cyclic_plan(field_make(*field_args), radices)
    assert not plan.is_full
    for lv, xs in zip(plan.levels, plan.level_points):
        assert calls.count((tuple(lv.den.coeffs), len(xs))) == 1
    dens = {tuple(lv.den.coeffs) for lv in plan.levels}
    assert sum(c in dens for c, _ in calls) == plan.r


@pytest.mark.parametrize("field_args, radices", [((383,), (2,) * 7), ((3, 4), (2, 41))])
def test_norm_stage_builds_no_poly_arithmetic(field_args, radices, monkeypatch):
    """_build_quads runs the level identity on coefficient lists: no Poly
    product, power, scale or sum is formed while it runs, and its quadratics
    still satisfy Q_(i-1)^p = c_i den^2 Q_i(num/den)."""
    inside, calls = [False], {"inside": 0, "outside": 0}
    build_quads = cfft.CyclicPlan._build_quads

    def stage(self):
        inside[0] = True
        try:
            build_quads(self)
        finally:
            inside[0] = False

    def spy(name):
        method = getattr(Poly, name)

        def counted(*args, **kwargs):
            calls["inside" if inside[0] else "outside"] += 1
            return method(*args, **kwargs)
        return counted

    monkeypatch.setattr(cfft.CyclicPlan, "_build_quads", stage)
    for name in ("__mul__", "__pow__", "scale", "__add__"):
        monkeypatch.setattr(Poly, name, spy(name))
    plan = cyclic_plan(field_make(*field_args), radices)
    assert calls["inside"] == 0
    one, before = Poly.one(plan.field), calls["outside"]
    (one ** 2 + one).scale(1)  # the spies see Poly arithmetic outside the stage
    assert calls["outside"] - before >= 4 and calls["inside"] == 0
    monkeypatch.undo()
    for lv, prev, quad in zip(plan.levels, plan.quads, plan.quads[1:]):
        rhs = lv.num**2 * quad[2] + lv.num * lv.den * quad[1] + lv.den**2 * quad[0]
        assert prev**lv.radix == rhs.scale(lv.norm_const)


@pytest.mark.parametrize("field_args, radices", [
    ((7,), (2, 2, 2)), ((13,), (2, 7)), ((23,), (2, 2, 2, 3)), ((127,), (2,) * 7),
    ((191,), (2,) * 6 + (3,)), ((2, 2), (5,)), ((2, 3), (3, 3)), ((2, 4), (17,)),
    ((3, 2), (2, 5)), ((3, 3), (2, 2, 7)), ((5, 2), (2, 13)), ((7, 2), (2, 5, 5)),
])
def test_full_plan_top_map_is_the_cycle_trace(field_args, radices):
    """On a full plan x_r, the trace of x over the whole cycle, is
    (x^(q+1) - x^2 + Q_0) / (x^q - x) as the oracle's symbolic tower builds
    it, so the scales are c Q_0 at the finite points."""
    field = field_make(*field_args)
    plan = cyclic_plan(field, radices)
    assert plan.is_full
    x, quad0 = Poly.x(field), plan.quads[0]
    assert cyclic_tower(plan)[-1] == RatFn(field, x ** (field.q + 1) - x * x + quad0,
                                           x ** field.q - x)
    assert plan.scales == [None] + [field.mul(plan.scale_const, quad0.eval(pt))
                                    for pt in plan.points[1:]]
    _assert_symbolic_tower(plan)


@pytest.mark.parametrize("field_args, radices, key", [
    ((11,), (2, 2), None), ((23,), (2, 3), 7), ((131,), (2, 3, 11), None),
    ((383,), (2,) * 5, None), ((3, 4), (41,), None), ((2, 6), (5,), None),
    ((5, 2), (13,), None),
])
def test_partial_plan_scales_are_the_top_denominator(field_args, radices, key):
    """On a partial plan scale * base_value is the denominator of x_r in
    lowest terms (numerator monic) at each point, from the oracle's tower."""
    field = field_make(*field_args)
    plan = cyclic_plan(field, radices, fiber_key=key)
    assert not plan.is_full
    den = cyclic_tower(plan)[-1].den
    assert [field.mul(s, plan.base_value) for s in plan.scales] == \
        [den.eval(pt) for pt in plan.points]
    assert [field.mul(s, d) for s, d in zip(plan.inv_scales, map(den.eval, plan.points))] == \
        [1] * plan.n


def _assert_symbolic_tower(plan):
    """Level maps, poles and lifts equal the symbolic derivation."""
    maps, poles, lifts = ratfn_levels(plan)
    assert [(lv.num, lv.den) for lv in plan.levels] == [(m.num, m.den) for m in maps]
    assert [lv.poles for lv in plan.levels] == poles
    assert plan.lifts == lifts


def _buckets(plan):
    """Every place of the line keyed by its value of x_r: the scan over F_q
    that the build replaced by the orbit proof, kept as a test oracle."""
    f = plan.field
    places = [*range(f.q), INF]
    buckets = {}
    for place, (num, den) in zip(places, plan.tower_values(places)[-1]):
        buckets.setdefault(INF if den == 0 else f.div(num, den), []).append(place)
    return buckets


@pytest.mark.parametrize("q, radices", [
    (11, (2, 2, 3)), (11, (2, 2)), (23, (2, 2, 2, 3)), (23, (2, 3)), (23, (2, 2)),
    (131, (2, 2, 3, 11)), (131, (2, 2, 3)), (383, (2,) * 7 + (3,)), (383, (2,) * 7),
    (383, (2,) * 5), (1151, (2,) * 7 + (3, 3)), (1151, (2, 2, 2, 2, 3)),
    ((5, 2), (13,)), ((2, 6), (5,)),
])
def test_fibers_match_the_bucket_scan(q, radices):
    """The fibers split the q+1 places evenly, the plan's points are its
    key's whole fiber, the default fiber is that of the least alpha with
    x_r(alpha) finite and nonzero, and every other key builds on its own
    fiber from that fiber's least place.  A full plan takes only inf as its
    fiber, and a partial plan never takes it."""
    field = field_make(*q) if isinstance(q, tuple) else field_make(q)
    q = field.q
    plan = cyclic_plan(field, radices)
    _assert_symbolic_tower(plan)
    n, buckets = plan.n, _buckets(plan)
    assert len(buckets) == (q + 1) // n and all(len(b) == n for b in buckets.values())
    assert len(plan.points) == n and set(plan.points) == set(buckets[plan.bucket_key])
    assert set(plan.gen.orbit(INF, n)) == set(buckets[INF])
    if plan.is_full:
        assert plan.bucket_key is INF
        assert cyclic_plan(field, radices, fiber_key=INF).points == plan.points
        with pytest.raises(ValidationError, match="full plan"):
            cyclic_plan(field, radices, fiber_key=1)
        return
    with pytest.raises(ValidationError):
        cyclic_plan(field, radices, fiber_key=INF)
    assert plan.points[0] == min(a for key, b in buckets.items() if key not in (INF, 0) for a in b)
    for key, places in buckets.items():
        if key in (INF, 0, plan.bucket_key):
            continue
        other = cyclic_plan(field, radices, fiber_key=key)
        assert other.bucket_key == key and other.points[0] == min(places)
        assert set(other.points) == set(places)
    missing = next((v for v in range(1, q) if v not in buckets), None)
    if missing is not None:
        with pytest.raises(ValidationError, match="not an evaluation fiber value"):
            cyclic_plan(field, radices, fiber_key=missing)
    with pytest.raises(ValidationError):
        cyclic_plan(field, radices, fiber_key=0)


@pytest.mark.parametrize("q, radices", [(23, (2, 3)), (191, (2, 2, 2, 3)), (383, (2,) * 5),
                                        (1151, (2, 2, 2, 2, 3))])
def test_cross_fiber_extension(q, radices, rng):
    """The cyclic-z basis depends only on the tower, not on the fiber, so
    q1_ifft on one fiber followed by q1_fft on another evaluates the
    interpolant of degree < n at the second fiber: a low-degree extension
    with no basis conversion."""
    field = field_make(q)
    plan = cyclic_plan(field, radices)
    others = [key for key in _buckets(plan) if key not in (INF, 0, plan.bucket_key)]
    assert len(others) >= 2
    for key in others[:2]:
        other = cyclic_plan(field, radices, fiber_key=key)
        values = [rng.randrange(q) for _ in range(plan.n)]
        f = lagrange_interpolate(field, plan.points, values)
        ext = q1_fft(other, q1_ifft(plan, values))
        assert list(ext.values) == mpe_horner(f, other.points), key


M31 = 2**31 - 1


@pytest.mark.parametrize("k", [6, 10])
def test_m31_cyclic_plans(k, rng):
    """Over the Mersenne prime 2^31 - 1, q + 1 = 2^31 allows every power-of-two
    n: the build never scans F_q, the round trip is exact and the values are
    the standard-form polynomial's (Horner spot checks)."""
    field = field_make(M31)
    plan = cyclic_plan(field, (2,) * k)
    assert plan.n == 2**k and not plan.is_full
    c = [rng.randrange(M31) for _ in range(plan.n)]
    ev = q1_fft(plan, c)
    assert list(q1_ifft(plan, ev).values) == c
    f = Poly(field, list(tilde_to_std(plan, c).values))
    for idx in rng.sample(range(plan.n), 8):
        assert ev.values[idx] == f.eval(ev.points[idx])


def _x_r(plan, place, level=-1):
    num, den = plan.tower_values([place])[level][0]
    return INF if den == 0 else plan.field.div(num, den)


@pytest.mark.parametrize("q, radices", [(M31, (2,) * 6), (1151, (2,) * 7 + (3, 3)),
                                        ((3, 4), (41,))])
def test_sigma_lifts_to_the_top_line(q, radices, rng):
    """x_i o sigma = S_i o x_i at every level, S_i the lifts the build keeps,
    at random places (and at INF).  On the full F_1151 plan x_r is constant
    on the rational places, so there the lower levels carry the check."""
    field = field_make(*q) if isinstance(q, tuple) else field_make(q)
    plan = cyclic_plan(field, radices)
    assert len(plan.lifts) == plan.r + 1 and plan.lifts[0] == plan.sigma
    for place in [INF] + [rng.randrange(field.q) for _ in range(50)]:
        for i, lift in enumerate(plan.lifts):
            assert _x_r(plan, plan.sigma(place), i) == lift(_x_r(plan, place, i)), (place, i)


@pytest.mark.parametrize("q, radices", [(383, (2,) * 7), (1151, (2,) * 7 + (3, 3))])
def test_build_lifts_sigma_once_per_level(q, radices, monkeypatch):
    """One lift identity per level: r calls, not r(r-1)/2."""
    calls = []
    lift = cfft._lift_sigma
    monkeypatch.setattr(cfft, "_lift_sigma", lambda *a: calls.append(a) or lift(*a))
    cyclic_plan(field_make(q), radices)
    assert len(calls) == len(radices)


def test_tower_guards_refuse_foreign_maps():
    """The coefficient-list checks refuse what the group does not fix: a
    level map that sigma's lift does not pass through, a quadratic that
    sigma does not keep, an induced map with a pole at infinity, a level
    numerator that breaks the norm identity, poles out of orbit order, a
    reducible m_pair and a vector of the wrong length for the kernel."""
    plan = cyclic_plan(field_make(191), (2,) * 6 + (3,))
    f, lv = plan.field, plan.levels[0]
    assert cfft._lift_sigma(f, plan.sigma, lv.num.coeffs, lv.den.coeffs, 1) == plan.lifts[1]
    num = list(lv.num.coeffs)
    num[0] = f.add(num[0], 1)
    with pytest.raises(ValidationError, match="does not lift"):
        cfft._lift_sigma(f, plan.sigma, num, lv.den.coeffs, 1)
    with pytest.raises(ValidationError, match="not invariant"):
        plan._check_quad_invariance(Poly(f, (1, 0, 1)))
    with pytest.raises(SplitValidationFailure, match="level 1 denominator does not split"):
        cfft._level_map(f, MoebiusMap(f, 2, 0, 0, 1), 2, 1)  # x -> 2x: c = 0
    with pytest.raises(LengthMismatch, match="191 coefficients for 192 points"):
        engine.forward(f, plan.kernel, [0] * (plan.n - 1))
    lv, num = plan.levels[2], plan.levels[2].num
    lv.num = Poly(f, (f.add(num[0], 1),) + num.coeffs[1:])
    plan.quads = plan.quads[:1]
    with pytest.raises(ValidationError, match="level 3 norm identity failed"):
        plan._build_quads()
    lv.num = num  # the pole order check below applies this level
    top = plan.levels[-1]
    assert top.radix == 3
    top.poles = top.poles[::-1]
    with pytest.raises(SplitValidationFailure, match="level 7 induced-map orbit"):
        plan._check_pole_order()
    with pytest.raises(PrimitivityFailure, match="reducible"):
        cyclic_plan(field_make(127), (2, 2), m_pair=(0, 126))  # x^2 - 1


def test_build_guards_refuse_a_corrupted_input(monkeypatch):
    """The cyclic build guards a tower line trace of the other tests never
    fails: a repeated orbit place, a full plan's x_r that is not the trace of
    x, a non-monic level numerator and a level identity whose quadratic
    splits, each reached by corrupting one input."""
    full = cyclic_plan(field_make(23), (2, 2, 2, 3))
    f = full.field
    with pytest.raises(ValidationError, match="orbit of the order-n map repeats a place"):
        full._fiber_levels(full.points[:-1] + full.points[:1])
    full.quads = [Poly(f, (1, 0, 1))] + full.quads[1:]
    with pytest.raises(ValidationError, match="x_r is not the trace of x over the cycle"):
        full._build_scaling()
    level_map = cfft._level_map
    monkeypatch.setattr(cfft, "_level_map", lambda *a: (lambda num, den, poles: (
        num[:-1] + [2], den, poles))(*level_map(*a)))
    with pytest.raises(ValidationError, match="level 1 map numerator malformed"):
        cyclic_plan(f, (2, 3))
    monkeypatch.undo()
    # (T - 1)^2 (T - 3)^2 = num (num - 4 den) for num = (T - 1)^2, den = T - 2:
    # the level identity holds with Q_1 = lead * y (y - 4), which splits
    plan = cyclic_plan(f, (2, 3))
    lv = plan.levels[0]
    lv.num, lv.den, lv.poles = Poly(f, (1, 21, 1)), Poly(f, (21, 1)), (2,)
    plan.quads = [Poly(f, (3, 19, 1))]
    with pytest.raises(ValidationError, match="level 1 quadratic splits"):
        plan._build_quads()


def test_build_forms_no_rational_function(monkeypatch):
    """The build works on 2x2 matrices and coefficient lists: no RatFn is
    constructed and no compose_moebius, match_moebius or Poly.gcd runs, on
    full and partial plans over prime and extension fields (characteristic 2
    too), with an explicit m_pair and with a fiber named by its value."""
    configs = [(field_make(*args), radices, kw) for args, radices, kw in [
        ((191,), (2,) * 6 + (3,), {}), ((383,), (2,) * 7, {}), ((M31,), (2,) * 6, {}),
        ((127,), (2,) * 7, {"m_pair": (126, 3)}), ((23,), (2, 3), {"fiber_key": 7}),
        ((2, 2), (5,), {}), ((2, 4), (17,), {}), ((2, 6), (5, 13), {}), ((2, 6), (5,), {}),
        ((2, 10), (5, 5), {}), ((3, 4), (41,), {}), ((5, 2), (2, 13), {}),
    ]]  # field_make tests its modulus with Poly.gcd, so the fields come first
    calls = []

    def spy(name, fn):
        return lambda *a, **k: calls.append(name) or fn(*a, **k)

    for mod in [m for name, m in sys.modules.items() if name.startswith("gfft")]:
        for name in ("compose_moebius", "match_moebius"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    monkeypatch.setattr(RatFn, "__init__", spy("RatFn", RatFn.__init__))
    monkeypatch.setattr(Poly, "gcd", spy("Poly.gcd", Poly.gcd))
    for field, radices, kw in configs:
        cyclic_plan(field, radices, **kw)
    assert calls == []
    field = configs[0][0]
    poly.compose_moebius(RatFn.x(field), cyclic_plan(field, (2,)).sigma)  # the spies do record
    assert {"compose_moebius", "RatFn", "Poly.gcd"} == set(calls)


NOT_A_FIBER_VALUE = 5  # over M31, at n = 64 and n = 2^12 (there checked against all 2^19 fibers)


def test_m31_fibers_by_key(rng):
    """Fiber values read off random places over M31 (2^25 fibers at n = 64,
    2^19 at n = 2^12) build on the fiber through their place, starting at
    its least place, and a value that is no fiber's is refused at once."""
    field = field_make(M31)
    for k in (6, 12):
        plan = cyclic_plan(field, (2,) * k)
        assert cyclic_plan(field, (2,) * k, fiber_key=plan.bucket_key).points == plan.points
        for _ in range(2):
            place = rng.randrange(M31)
            key = _x_r(plan, place)
            other = cyclic_plan(field, (2,) * k, fiber_key=key)
            assert other.bucket_key == key and place in other.points
            assert other.points[0] == min(other.points)
            if k == 6:
                c = [rng.randrange(M31) for _ in range(other.n)]
                f = Poly(field, list(tilde_to_std(other, c).values))
                assert list(q1_fft(other, c).values) == mpe_horner(f, other.points)
            else:  # tilde_to_std is quadratic: check the fiber through std_to_tilde of
                # a short polynomial, whose cyclic-z coefficients do not depend on the fiber
                f = [rng.randrange(M31) for _ in range(8)]
                assert std_to_tilde(other, f).values == std_to_tilde(plan, f).values
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="not an evaluation fiber value"):
            cyclic_plan(field, (2,) * k, fiber_key=NOT_A_FIBER_VALUE)
        assert time.perf_counter() - start < 1.0, k


SAFE_PRIME = 2147483579  # 2P + 1 with P = 1073741789 prime


def test_safe_prime_build_factors_small_parts(monkeypatch, rng):
    """For a safe prime q = 2P + 1 near 2^31, q^2 - 1 has the prime factor P
    near q/2, so trial division on q^2 - 1 or p(q^2 - 1) runs about 5*10^8
    steps (the build took 45 s that way).  The build factors q - 1, q + 1 and
    p one by one, each at most 2^31, so no divisor passes 2^16."""
    parts = []
    factorize = gf.factorize

    def spy(*args):
        parts.extend(args)
        return factorize(*args)

    monkeypatch.setattr(gf, "factorize", spy)
    field = field_make(SAFE_PRIME)
    t0 = time.perf_counter()
    plan = cyclic_plan(field, (2, 2))
    assert time.perf_counter() - t0 < 10
    assert parts and max(parts) <= 2**31
    c = [rng.randrange(SAFE_PRIME) for _ in range(plan.n)]
    assert list(q1_ifft(plan, q1_fft(plan, c)).values) == c


@pytest.mark.parametrize("field_args, radices", [
    ((383,), (2,) * 7), ((1151,), (2, 2, 2, 2, 3)), ((131,), (2, 3, 11)), ((23,), (2, 3)),
    ((3, 4), (41,)), ((5, 2), (13,)), ((2, 6), (5,)), ((M31,), (2,) * 8), ((131071,), (2,) * 10),
    ((23,), (2, 2, 2, 3)), ((191,), (2,) * 6 + (3,)), ((2, 3), (3, 3)), ((3, 2), (2, 5)),
    ((5, 2), (2, 13)),
])
def test_fiber_tables_closed_forms(field_args, radices):
    """The closed-form fiber polynomial is prod (x - x_i) over the finite
    points (x^q - x on a full plan) and w_i M'(x_i) = 1 at every one of them;
    GF(3^4) with n = 41 > p takes C(n, k) mod p through Lucas' theorem."""
    field = field_make(*field_args)
    plan = cyclic_plan(field, radices)
    xs = [pt for pt in plan.points if pt is not INF]
    fiber = Poly(field, plan.fiber_poly)
    if plan.is_full:
        assert fiber == Poly.x(field) ** field.q - Poly.x(field)
        assert plan.weights == [field.neg(1)] * field.q
    else:
        assert fiber == Poly.from_roots(field, xs)
    slope = Poly(field, [field.mul(k % field.p, c) for k, c in enumerate(fiber.coeffs)][1:])
    assert len(plan.weights) == len(xs)
    assert [field.mul(w, slope.eval(x)) for w, x in zip(plan.weights, xs)] == [1] * len(xs)


def test_fiber_tables_guard_the_closed_forms():
    plan = cyclic_plan(field_make(383), (2,) * 5)
    q0s, dens = plan._build_scaling()
    plan._build_fiber_tables(q0s, dens)
    plan.points = plan.points[1:] + plan.points[:1]  # weights no longer match the points
    with pytest.raises(ValidationError, match="fiber polynomial or weights"):
        plan._build_fiber_tables(q0s, dens)


@pytest.mark.parametrize("at", [1, 17, 31])
def test_fiber_tables_guard_every_weight(at):
    """A wrong weight away from the first point fails the weight identities."""
    field = field_make(383)
    plan = cyclic_plan(field, (2,) * 5)
    q0s, dens = plan._build_scaling()
    q0s[at] = field.add(q0s[at], 1)
    with pytest.raises(ValidationError, match="identities of 1 / M'"):
        plan._build_fiber_tables(q0s, dens)


@pytest.mark.parametrize("field_args, radices", [
    ((7,), (2, 2, 2)), ((191,), (2,) * 6 + (3,)), ((383,), (2,) * 7), ((131,), (2, 3, 11)),
    ((3, 4), (41,)), ((2, 3), (3, 3)), ((M31,), (2,) * 6),
])
def test_tilde_to_std_inverts_nothing(field_args, radices, rng):
    """tilde_to_std runs on plan tables only: like the fft, it counts no
    inversion, from the first call of a fresh plan on."""
    field = field_make(*field_args)
    plan = cyclic_plan(field, radices)
    for _ in range(2):
        c = [rng.randrange(field.q) for _ in range(plan.n)]
        with field.count_ops() as ctr:
            tilde_to_std(plan, c)
        assert ctr.invs == 0 and ctr.muls > 0, (field_args, radices)


def test_poly_inputs_are_standard_vectors(rng):
    """A Poly is a standard-basis vector of its field: finite to iterate,
    zero-padded to a plan's length, refused where another basis, another
    field or a smaller length is expected."""
    f23 = field_make(23)
    poly = Poly(f23, [5, 0, 7])
    assert list(itertools.islice(iter(poly), 4)) == [5, 0, 7]
    cplan = cyclic_plan(f23, (2, 3))
    for convert in (q1_fft, tilde_to_std):
        with pytest.raises(BasisMismatch):
            convert(cplan, poly)
    assert std_to_tilde(cplan, poly) == std_to_tilde(cplan, [5, 0, 7])
    with pytest.raises(MixedFields):
        std_to_tilde(cplan, Poly(field_make(29), [5, 0, 7]))
    with pytest.raises(DegreeTooLarge):
        std_to_tilde(cplan, Poly(f23, [1] * 7))

    mplan = mult_plan(field_make(17), (2, 2, 2))
    c = [rng.randrange(17) for _ in range(5)]
    assert mult_fft(mplan, Poly(mplan.field, c)) == mult_fft(mplan, c + [0] * 3)
    with pytest.raises(DegreeTooLarge):
        mult_fft(mplan, Poly(mplan.field, [1] * 9))
    with pytest.raises(MixedFields):
        mult_fft(mplan, Poly(f23, c))

    aplan = add_plan(field_make(2, 4), [1, 2, 4])
    c = [rng.randrange(16) for _ in range(6)]
    assert standard_to_lch(aplan, Poly(aplan.field, c)) == standard_to_lch(aplan, c)
    with pytest.raises(DegreeTooLarge):
        standard_to_lch(aplan, Poly(aplan.field, [1] * 9))
    for convert in (add_fft, lch_to_standard):
        with pytest.raises(BasisMismatch):
            convert(aplan, Poly(aplan.field, c))

    # a Poly is no value vector, whatever its field
    for ifft, plan in ((q1_ifft, cplan), (mult_ifft, mplan), (add_ifft, aplan)):
        for field in (plan.field, field_make(29)):
            with pytest.raises(BasisMismatch, match="got a polynomial"):
                ifft(plan, Poly(field, [1] * plan.n))
            with pytest.raises(BasisMismatch, match="got a polynomial"):
                plan.ifft(Poly(field, [1] * plan.n))


@pytest.mark.parametrize("args, radices", [((23,), (2, 2, 2, 3)), ((3, 2), (2, 5))])
def test_explicit_m_accepted_exactly_when_primitive(args, radices):
    """Every irreducible x^2 + a x + b: the plan accepts it as m exactly when
    a root generates F_{q^2}^* (quadratic_root_order(m) = q^2 - 1).  The
    build tests that b, the norm of a root, generates F_q^*, then that sigma
    has order q + 1, and a refusal names the test that failed."""
    field = field_make(*args)
    q = field.q
    accepted = refused = 0
    for a, b in itertools.product(range(q), repeat=2):
        if not gf.quadratic_is_irreducible(field, a, b):
            continue
        if gf.quadratic_root_order(field, a, b) == q * q - 1:
            assert cyclic_plan(field, radices, m_pair=(a, b)).m_coeffs == (a, b)
            accepted += 1
            continue
        why = ("irreducible but not primitive" if field.element_order(b) != q - 1
               else r"companion map does not have order q\+1")
        with pytest.raises(PrimitivityFailure, match=why):
            cyclic_plan(field, radices, m_pair=(a, b))
        refused += 1
    assert accepted and refused


def test_reload_starts_at_the_stored_first_point(monkeypatch):
    """A plan file with its fiber and tables reloads from the stored first
    point: no scan for a start place and no baby-step giant-step search
    (CyclicPlan._start and _cycle_log never run), on a keyed M31 2^12 plan
    and the default F_383 2^7 plan, and the reload writes the file it read
    and costs no more ops than a default build.  A fiber given by value,
    and a file without tables, still search."""
    calls = []
    start, cycle_log = cfft.CyclicPlan._start, cfft._cycle_log
    monkeypatch.setattr(cfft.CyclicPlan, "_start",
                        lambda self, key: calls.append("_start") or start(self, key))
    monkeypatch.setattr(cfft, "_cycle_log", lambda *a: calls.append("_cycle_log") or cycle_log(*a))
    field = field_make(M31)
    with field.count_ops() as build:
        default = cyclic_plan(field, (2,) * 12)
    key = _x_r(default, 123456789)
    calls.clear()
    keyed = cyclic_plan(field, (2,) * 12, fiber_key=key)
    assert calls == ["_start", "_cycle_log"] and 123456789 in keyed.points
    for plan in (keyed, cyclic_plan(field_make(383), (2,) * 7)):
        obj = json.loads(json.dumps(fileio.plan_to_json(plan)))
        calls.clear()
        assert fileio.plan_to_json(fileio.plan_from_json(obj)) == obj
        assert calls == []
        bare = {k: v for k, v in obj.items() if k != "tables"}
        assert fileio.plan_to_json(fileio.plan_from_json(bare)) == obj
        assert calls[0] == "_start"
    with field.count_ops() as reload:
        cfft.CyclicPlan.from_json(field, json.loads(json.dumps(fileio.plan_to_json(keyed))))
    assert reload.total() <= build.total(), (reload, build)
