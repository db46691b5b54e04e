"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  All equality checks are exact; finite-field arithmetic admits no
tolerance.
"""

import math
import random
import time
from functools import partial

import pytest

from divisors import cyclic_tower
from gfft.afft import (
    add_fft,
    add_ifft,
    add_plan,
    lch_to_standard,
    padic_expand,
    padic_reassemble,
    standard_to_lch,
)
from gfft.cfft import cyclic_plan, q1_fft, q1_ifft, std_to_tilde, tilde_to_std
from gfft.engine import Level, build_inverse_locals, local_solve
from gfft.errors import SingularLocalSystem, ValidationError
from gfft.gf import field_make
from gfft.linalg import solve
from gfft.mfft import mult_fft, mult_ifft, mult_plan
from gfft.oracle import basis_matrix, mpe_horner
from gfft.poly import INF, Poly
from gfft.repro import (
    EXPECTED_POLES,
    EXPECTED_QUAD,
    EXPECTED_SCALE_CONST,
    PUBLISHED_LEVEL_CONSTANTS,
    TABLE_LEVEL_CONSTANTS,
    WORKED_COEFFS,
    WORKED_VALUES,
    image_below_level,
    tower_numerator_expected,
)
from gfft.vectors import BASIS_STANDARD, CoeffVec

SEED = 0xACCE


def _report(name, ok, detail=""):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}{': ' + detail if detail else ''}")


@pytest.fixture(scope="module")
def configs():
    """Every plan configuration named by the oracle-equivalence criterion."""
    F17 = field_make(17)
    F127 = field_make(127)
    F9 = field_make(3, 2)
    F27 = field_make(3, 3)
    F64 = field_make(2, 6)
    F7 = field_make(7)
    F11 = field_make(11)
    F23 = field_make(23)
    return {
        "mult-F17-n16": ("mult", mult_plan(F17, (2, 2, 2, 2))),
        "mult-F127-n126": ("mult", mult_plan(F127, (2, 3, 3, 7))),
        "add-F9-n9": ("add", add_plan(F9, [1, 3])),
        "add-F27-n27": ("add", add_plan(F27, [1, 3, 9])),
        "add-F64-n64": ("add", add_plan(F64, [1, 2, 4, 8, 16, 32])),
        "cyclic-F7-n8": ("cyclic", cyclic_plan(F7, (2, 2, 2))),
        "cyclic-F11-n4": ("cyclic", cyclic_plan(F11, (2, 2))),
        "cyclic-F23-n24": ("cyclic", cyclic_plan(F23, (2, 2, 2, 3))),
        "cyclic-F127-n128": ("cyclic", cyclic_plan(F127, (2,) * 7, m_pair=(126, 3))),
    }


@pytest.fixture(scope="module")
def oracle_matrices(configs):
    return {
        name: (basis_matrix(plan) if case != "mult" else None)
        for name, (case, plan) in configs.items()
    }


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_plan_data():
    t0 = time.perf_counter()
    field = field_make(127)
    plan = cyclic_plan(field, (2,) * 7, m_pair=(126, 3))
    checks = [
        tuple(plan.quads[0].coeffs) == EXPECTED_QUAD,
        tuple(lv.poles[0] for lv in plan.levels) == EXPECTED_POLES,
        plan.levels[0].num == Poly(field, (42, 0, 1)),
        plan.levels[0].den == Poly(field, (21, 1)),
        plan.scale_const == EXPECTED_SCALE_CONST,
    ]
    elapsed = time.perf_counter() - t0
    # the plan never forms the degree-128 tower; the oracle builds it symbolically
    checks.append(cyclic_tower(plan)[-1].num == tower_numerator_expected(field))
    ok = all(checks) and elapsed < 1.0
    _report("criterion-1 plan data", ok, f"quad/poles/x1/u/scale exact, {elapsed:.2f}s")
    assert ok


def test_criterion_1_published_level_constants():
    field = field_make(127)
    plan = cyclic_plan(field, (2,) * 7, m_pair=(126, 3))
    # the published list holds points in x-coordinates, one over each level's
    # pole: the level maps below level i carry entry i, finitely, to lambda_i
    images = [image_below_level(plan, i, c) for i, c in enumerate(PUBLISHED_LEVEL_CONSTANTS, 1)]
    poles = [lv.poles[0] for lv in plan.levels]
    consts = tuple(plan.example_constants())
    ok = images == poles and consts == TABLE_LEVEL_CONSTANTS
    _report(
        "criterion-1 published level constants",
        ok,
        f"published points {PUBLISHED_LEVEL_CONSTANTS} map to {images} over poles "
        f"{poles}; pole-fiber constants {consts} vs table-pinned {TABLE_LEVEL_CONSTANTS}",
    )
    assert ok


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    field = field_make(127)
    plan = cyclic_plan(field, (2,) * 7, m_pair=(126, 3))
    ev = q1_fft(plan, list(WORKED_COEFFS))
    expected = {a: (fv, tv) for a, fv, tv in WORKED_VALUES}
    matches = sum(
        (ev.values[i], ev.tilde[i]) == expected["inf" if pt is INF else pt]
        for i, pt in enumerate(ev.points)
    )
    elapsed = time.perf_counter() - t0
    ok = matches == 128 and ev.inf_value == 0 and elapsed < 1.0
    _report("criterion-1 table reproduction", ok, f"{matches}/128 pairs, {elapsed:.2f}s")
    assert ok


# -- criteria 2 and 3 ---------------------------------------------------------


def _forward(case, plan, coeffs):
    if case == "mult":
        return mult_fft(plan, coeffs)
    if case == "add":
        return add_fft(plan, coeffs)
    return q1_fft(plan, coeffs)


def test_criterion_2_oracle_equivalence(configs, oracle_matrices):
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    for name, (case, plan) in configs.items():
        q, n = plan.field.q, plan.n
        bm = oracle_matrices[name]
        for _ in range(100):
            c = [rng.randrange(q) for _ in range(n)]
            std = c if bm is None else bm.apply(c)
            f = Poly(plan.field, std)
            values = _forward(case, plan, c)
            if case == "cyclic":
                for pt, v in zip(values.points, values.values):
                    assert v == (0 if pt is INF else f.eval(pt)), name
            else:
                assert values == mpe_horner(f, plan.points), name
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _report("criterion-2 oracle equivalence", ok,
            f"9 configs x 100 vectors exact, {elapsed:.1f}s (< 30s)")
    assert ok


def test_criterion_3_roundtrips(configs):
    rng = random.Random(SEED + 1)
    for name, (case, plan) in configs.items():
        q, n = plan.field.q, plan.n
        for _ in range(100):
            c = [rng.randrange(q) for _ in range(n)]
            if case == "mult":
                vals = mult_fft(plan, c)
                assert list(mult_ifft(plan, vals).values) == c, name
                v = [rng.randrange(q) for _ in range(n)]
                assert mult_fft(plan, list(mult_ifft(plan, v).values)) == v, name
            elif case == "add":
                vals = add_fft(plan, c)
                assert list(add_ifft(plan, vals).values) == c, name
                v = [rng.randrange(q) for _ in range(n)]
                assert add_fft(plan, list(add_ifft(plan, v).values)) == v, name
            else:
                ev = q1_fft(plan, c)
                assert list(q1_ifft(plan, ev).values) == c, name
                if plan.is_full:
                    v = [0 if pt is INF else rng.randrange(q) for pt in plan.points]
                    a0 = rng.randrange(q)
                    back = q1_ifft(plan, v, a0=a0)
                    ev2 = q1_fft(plan, back)
                    assert list(ev2.values) == v and ev2.a0 == a0, name
                else:
                    v = [rng.randrange(q) for _ in range(n)]
                    back = q1_ifft(plan, v)
                    assert list(q1_fft(plan, back).values) == v, name
    _report("criterion-3 round trips", True, "ifft(fft) and fft(ifft) exact, 100 vectors each")


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_padic():
    rng = random.Random(SEED + 2)
    fields = {"F9": field_make(3, 2), "F27": field_make(3, 3), "F25": field_make(5, 2)}
    for name, field in fields.items():
        p = field.p
        for _ in range(100):
            deg = rng.randrange(1, 201)
            coeffs = [rng.randrange(field.q) for _ in range(deg)] + [rng.randrange(1, field.q)]
            f = Poly(field, coeffs)
            alpha = rng.randrange(1, field.q)
            terms = padic_expand(f, alpha)
            assert all(t.degree < p for t in terms), name
            assert padic_reassemble(field, terms, alpha) == f, name
    ratio_notes = []
    for name, field in fields.items():
        p = field.p
        # degree p is the O(1) base case; the recursion ladder starts at p^2
        kmax = 6 if p == 3 else 4
        counts = {}
        for k in range(2, kmax + 1):
            deg = p**k
            coeffs = [rng.randrange(1, field.q) for _ in range(deg + 1)]
            f = Poly(field, coeffs)
            with field.count_ops() as ctr:
                padic_expand(f, 1)
            counts[k] = max(ctr.total(), 1)
        for k in range(2, kmax):
            ratio = counts[k + 1] / counts[k]
            bound = p + 3 * p / k  # per-level work is linear, so excess decays as 1/log_p(n)
            assert ratio <= bound, (name, k, ratio, bound)
            ratio_notes.append(f"{name}:k{k}->{k+1} {ratio:.2f}<={bound:.2f}")
    _report("criterion-4 adic expansion", True,
            "reassembly exact, term degrees < p, ratios " + "; ".join(ratio_notes))


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_standard_pipeline():
    rng = random.Random(SEED + 3)
    F27 = field_make(3, 3)
    F64 = field_make(2, 6)
    for field, basis in ((F27, [1, 3, 9]), (F64, [1, 2, 4, 8, 16, 32])):
        plan = add_plan(field, basis)
        for _ in range(100):
            c = [rng.randrange(field.q) for _ in range(plan.n)]
            vals = add_fft(plan, standard_to_lch(plan, c))
            assert vals == mpe_horner(Poly(field, c), plan.points)
    counts = {}
    for dim in (4, 5, 6):
        plan = add_plan(F64, [1, 2, 4, 8, 16, 32][:dim])
        c = [rng.randrange(64) for _ in range(plan.n)]
        with F64.count_ops() as ctr:
            add_fft(plan, standard_to_lch(plan, c))
        counts[plan.n] = ctr.total()
    notes = []
    for n in (16, 32):
        lg, lg2 = math.log2(n), math.log2(2 * n)
        bound = 2 * (lg2 / lg) ** 2  # n log^2 n growth with nonnegative lower terms
        ratio = counts[2 * n] / counts[n]
        assert ratio <= bound, (n, ratio, bound)
        notes.append(f"n{n}->{2*n} {ratio:.2f}<={bound:.2f}")
    _report("criterion-5 standard-basis pipeline", True,
            "pipeline equals the evaluation oracle; " + "; ".join(notes))


def test_criterion_5_cyclic_std_to_tilde_ladder():
    """The cyclic conversions, gated like criterion 5: standard -> cyclic-z
    (n^2 Horner steps plus one kernel pass) and cyclic-z -> standard (one
    kernel pass plus power sums over the plan's fiber polynomial, about 3n^2
    ops and no inversion) keep count(2n) / count(n) near 4, where an n^3
    route grows by 6 to 7 per doubling.  The two are mirror images, so
    cyclic-z -> standard costs at most 1.6 times its partner.  Both are
    counted once a first call has built their tables (the surplus of that
    call is pinned by test_first_call_surplus_is_the_table_builds)."""
    rng = random.Random(SEED + 7)
    field = field_make(383)
    counts = {std_to_tilde: {}, tilde_to_std: {}}
    for k in (5, 6, 7):
        plan = cyclic_plan(field, (2,) * k)
        c = [rng.randrange(field.q) for _ in range(plan.n)]
        for convert, by_n in counts.items():
            convert(plan, c)  # builds the tables
            with field.count_ops() as ctr:
                convert(plan, c)
            by_n[plan.n] = ctr.total()
    notes = []
    for convert, by_n in counts.items():
        for n in (32, 64):
            ratio = by_n[2 * n] / by_n[n]
            assert ratio <= 4.5, (convert.__name__, n, ratio, by_n)
            notes.append(f"{convert.__name__} n{n}->{2*n} {ratio:.2f}<=4.50")
    for n in (32, 64, 128):
        ratio = counts[tilde_to_std][n] / counts[std_to_tilde][n]
        assert ratio <= 1.6, (n, ratio, counts)
        notes.append(f"tilde_to_std/std_to_tilde n{n} {ratio:.2f}<=1.60")
    _report("criterion-5 cyclic conversions", True, "; ".join(notes))


def test_criterion_5_additive_lch_to_standard_ladder():
    """lch -> standard, gated against its inverse: the binomial composition
    grows like n log^2 n (2.5 to 2.8 per doubling at these sizes), where a
    dense Horner composition grows by more than 4.  The two directions are
    mirror images (Horner in the binomials T^s, division by them), so each
    costs at most a small factor of the other, both ways round."""
    rng = random.Random(SEED + 8)
    field = field_make(2, 10)
    plans = [add_plan(field, [1 << i for i in range(k)]) for k in (6, 7, 8, 9)]
    plans += [add_plan(field_make(p, r), [p**i for i in range(r)])
              for p, r in ((3, 4), (5, 3), (7, 2))]
    counts = {}
    for plan in plans:
        c = [rng.randrange(plan.field.q) for _ in range(plan.n)]
        with plan.field.count_ops() as to_std:
            lch_to_standard(plan, c)
        with plan.field.count_ops() as from_std:
            standard_to_lch(plan, c)
        counts[plan.field.q, plan.n] = to_std.total()
        info = (plan.field.q, plan.n, to_std.total(), from_std.total())
        assert to_std.total() <= 2 * from_std.total(), info
        assert from_std.total() <= 1.1 * to_std.total(), info
    notes = []
    for n in (64, 128, 256):
        ratio = counts[1024, 2 * n] / counts[1024, n]
        assert ratio <= 3.0, (n, ratio, counts)
        notes.append(f"n{n}->{2*n} {ratio:.2f}<=3.00")
    _report("criterion-5 additive lch->standard", True, "; ".join(notes))


# -- criterion 6 ---------------------------------------------------------------


def _ladder_counts(case, field, sizes, rng, m_pair=None):
    counts = {}
    for n in sizes:
        if case == "mult":
            plan = mult_plan(field, (2,) * (n.bit_length() - 1))
            run = lambda pl, c: mult_fft(pl, c)
        elif case == "add":
            plan = add_plan(field, [2**i for i in range(n.bit_length() - 1)])
            run = lambda pl, c: add_fft(pl, c)
        else:
            plan = cyclic_plan(field, (2,) * (n.bit_length() - 1), m_pair=m_pair)
            run = lambda pl, c: q1_fft(pl, c)
        c = [rng.randrange(field.q) for _ in range(plan.n)]
        with field.count_ops() as ctr:
            run(plan, c)
        counts[n] = ctr.total()
    return counts


def test_criterion_6_recursion_counts():
    rng = random.Random(SEED + 4)
    ladders = {
        "mult-F257": ("mult", field_make(257), [8, 16, 32, 64, 128, 256], None),
        "add-F64": ("add", field_make(2, 6), [2, 4, 8, 16, 32, 64], None),
        "cyclic-F127": ("cyclic", field_make(127), [4, 8, 16, 32, 64, 128], (126, 3)),
    }
    for name, (case, field, sizes, m_pair) in ladders.items():
        counts = _ladder_counts(case, field, sizes, rng, m_pair)
        transitions = list(zip(sizes, sizes[1:]))
        fit_on, assert_on = transitions[:-2], transitions[-2:]
        c_fit = max((counts[b] - 2 * counts[a]) / b for a, b in fit_on)
        c_fit = max(c_fit, 0.0)
        for a, b in assert_on:
            assert counts[b] <= 2 * counts[a] + c_fit * b, (name, a, b, counts, c_fit)
        print(f"[criterion-6 {name}] fitted c = {c_fit:.3f}, counts = {counts}")
    _report("criterion-6 recursion counts", True,
            "count(2n) <= 2 count(n) + c*2n holds on the top two rungs of each ladder")


# -- criterion 7 ---------------------------------------------------------------


def _cyclic_level_identity(plan, rng, trials=50):
    """Check the per-level norm identity at sample points via two routes:
    a direct orbit product against the plan's stored constants."""
    field = plan.field
    q = field.q
    quad0 = plan.quads[0]
    checked = 0
    for _ in range(trials):
        alpha = rng.randrange(q)
        # route 1 ingredients: the coordinate chain of alpha up the tower
        chain = [alpha]
        for lv in plan.levels:
            prev = chain[-1]
            if prev is INF:
                chain.append(INF)
                continue
            den = lv.den.eval(prev)
            chain.append(INF if den == 0 else field.div(lv.num.eval(prev), den))
        y_prev = field.inv(quad0.eval(alpha))
        ok_levels = 0
        for i, lv in enumerate(plan.levels, start=1):
            if chain[i - 1] is INF:
                break
            # route 1: recursion through the stored norm constant
            prod = 1
            for lam in lv.poles:
                d = field.sub(chain[i - 1], lam)
                prod = field.mul(prod, field.mul(d, d))
            y_rec = field.mul(lv.norm_const, field.mul(field.pow(y_prev, lv.radix), prod))
            # route 2: independent orbit product of the base quadratic
            size = plan.subgroup_sizes[i]
            tau = plan.sigma ** ((q + 1) // size)
            pt = alpha
            y_orbit = 1
            dead = False
            for _ in range(size):
                if pt is INF or quad0.eval(pt) == 0:
                    dead = True
                    break
                y_orbit = field.mul(y_orbit, field.inv(quad0.eval(pt)))
                pt = tau.apply(pt)
            if dead:
                y_orbit = 0
            assert y_rec == y_orbit, (plan, alpha, i)
            y_prev = y_rec
            ok_levels += 1
        if ok_levels:
            checked += 1
    assert checked >= trials // 2


def test_criterion_7_structural_invariants(configs, oracle_matrices):
    rng = random.Random(SEED + 5)
    from gfft.cfft import ratfn_substitute
    from gfft.poly import RatFn

    for name, (case, plan) in configs.items():
        bm = oracle_matrices[name]
        if case == "mult":
            n = plan.n
            assert basis_matrix(plan).matrix == [
                [1 if i == j else 0 for j in range(n)] for i in range(n)
            ], name
        elif case == "add":
            bm.solve([0] * plan.n)  # raises SingularMatrix unless the basis is invertible
            field = plan.field
            for i in range(1, plan.r + 1):
                span = {0}
                for b in plan.subspace_basis[:i]:
                    ev = 0
                    acc = set()
                    for _ in range(field.p):
                        acc |= {field.add(x, ev) for x in span}
                        ev = field.add(ev, b)
                    span = acc
                kernel = {u for u in range(field.q) if plan.lin_polys[i].eval(u) == 0}
                assert kernel == span, (name, i)
        else:
            bm.solve([0] * plan.n)  # raises SingularMatrix unless the basis is invertible
            field = plan.field
            tower = cyclic_tower(plan)
            # the build proves x_i = m_i(x_{i-1}) through degree-p identities
            # only; check it against the symbolic tower of degree |G_i|
            for i in range(1, plan.r + 1):
                lv = plan.levels[i - 1]
                mi = RatFn(field, lv.num, lv.den)
                assert ratfn_substitute(mi, tower[i - 1]) == tower[i], name
                assert sorted(lv.poles) == sorted(lv.den.roots()), name
                orbit, cur = [], INF
                for _ in range(lv.radix - 1):
                    cur = lv.induced.apply(cur)
                    orbit.append(cur)
                assert orbit == list(lv.poles), name
                # fiber constancy and exact fiber sizes
                nq = plan.sizes[i]
                fibers = {}
                for s, pt in enumerate(plan.points):
                    fibers.setdefault(s % nq, []).append(tower[i].eval_place(pt))
                for vals in fibers.values():
                    assert len(vals) == plan.subgroup_sizes[i], name
                    assert len(set(map(repr, vals))) == 1, name
            # the scale identity c Q_0^n = D^2 Q_r(N/D) for x_r = N/D, which
            # the build derives from the per-level norm identities
            xr, qr = tower[-1], plan.quads[-1]
            assert (plan.quads[0] ** plan.n).scale(plan.scale_const) == (
                (xr.num * xr.num).scale(qr[2]) + (xr.num * xr.den).scale(qr[1])
                + (xr.den * xr.den).scale(qr[0])), name
            # the projective values the build buckets and scales by, at every
            # place: x_i itself, and for finite places its numerator and
            # denominator in lowest terms (numerator monic)
            places = [INF, *range(field.q)]
            for i, pairs in enumerate(plan.tower_values(places)):
                for place, (num, den) in zip(places, pairs):
                    value = INF if den == 0 else field.div(num, den)
                    assert value == tower[i].eval_place(place), (name, place, i)
                    if place is not INF:
                        assert (num, den) == (tower[i].num.eval(place),
                                              tower[i].den.eval(place)), (name, place, i)
            _cyclic_level_identity(plan, rng)
    _report("criterion-7 structural invariants", True,
            "towers, pole extraction, fibers, kernels, basis matrices all exact")


# -- criterion 8: the paper's cost theorem -------------------------------------

# (q, radices of a full cyclic plan, radices of a partial one)
COST_CYCLIC = (
    (131, (2, 2, 3, 11), (2, 3, 11)),
    (139, (2, 2, 5, 7), (2, 5, 7)),
    (181, (2, 7, 13), (7, 13)),
    (199, (2, 2, 2, 5, 5), (2, 2, 5, 5)),
    (239, (2, 2, 2, 2, 3, 5), (2, 2, 2, 3, 5)),
    (337, (2, 13, 13), (13, 13)),
)


def _cost_plans():
    for q, full, partial in COST_CYCLIC:
        field = field_make(q)
        for radices in (full, partial):
            yield f"cyclic-F{q}-{radices}", "cyclic", cyclic_plan(field, radices)
    for p, r in ((3, 4), (5, 3), (7, 2)):
        field = field_make(p, r)
        yield f"add-GF({p}^{r})", "add", add_plan(field, [p**i for i in range(r)])
    yield "mult-F181-(2, 2, 3, 3, 5)", "mult", mult_plan(field_make(181), (2, 2, 3, 3, 5))


def test_criterion_8_cost_theorem():
    """O(B n log n) for a B-smooth n, as an absolute bound on mixed-radix
    plans of all three cases: fft ops <= 2 n sum(p_i - 1), plus the O(n)
    term of a partial cyclic fiber.  The inverse solves each fiber in Newton
    form at the forward's count, so on mult and add plans ifft ops equal fft
    ops exactly.  On cyclic plans ifft ops <= 2 n sum(p_i - 1)
    + n #{i : p_i > 2} + scalings: a level of radix p > 2 first scales
    each point by prod_j (x - pole_j), n muls per level.  Neither direction
    inverts a field element once the first ifft has built the inverse's
    tables (test_first_call_surplus_is_the_table_builds pins that call)."""
    rng = random.Random(SEED + 9)
    notes = []
    for name, case, plan in _cost_plans():
        field, n, radices = plan.field, plan.n, plan.radices
        c = [rng.randrange(field.q) for _ in range(n)]
        plan.ifft(_forward(case, plan, c))  # builds the inverse's tables
        with field.count_ops() as fwd:
            values = _forward(case, plan, c)
        with field.count_ops() as inv:
            plan.ifft(values)
        assert fwd.invs == inv.invs == 0, (name, fwd.invs, inv.invs)
        # a partial cyclic fiber scales every point twice, by the base value
        # and by its scale (2n muls); the inverse multiplies once, by the
        # precomputed 1/(scale * base value).  Here the fft sits exactly 2n
        # and the ifft exactly n above the level terms.
        scalings = n if case == "cyclic" and not plan.is_full else 0
        fft_bound = 2 * n * sum(p - 1 for p in radices) + 2 * scalings
        assert fwd.total() <= fft_bound, (name, "fft", fwd.total(), fft_bound)
        if case == "cyclic":
            ifft_bound = (2 * n * sum(p - 1 for p in radices)
                          + n * sum(p > 2 for p in radices) + scalings)
            assert inv.total() <= ifft_bound, (name, "ifft", inv.total(), ifft_bound)
        else:
            assert inv.total() == fwd.total(), (name, "ifft", inv.total(), fwd.total())
        notes.append(f"{name} {fwd.total() / fft_bound:.2f}, ifft/fft "
                     f"{inv.total() / fwd.total():.2f}")
    _report("criterion-8 cost theorem", True,
            "fft ops as fractions of their bound, and ifft/fft op ratios: " + "; ".join(notes))


# fft and ifft (adds, muls, invs) of each _cost_plans() config and of the four
# benchmark configs.  The kernel counts its column ops in bulk, so a count
# that drifted below the bounds of the cost theorem would pass it unseen.
EXACT_OPS = {
    "cyclic-F131-(2, 2, 3, 11)": ((1173, 1304, 0), (1042, 1424, 0)),
    "cyclic-F131-(2, 3, 11)": ((858, 990, 0), (858, 1056, 0)),
    "cyclic-F139-(2, 2, 5, 7)": ((1217, 1356, 0), (1078, 1476, 0)),
    "cyclic-F139-(2, 5, 7)": ((770, 910, 0), (770, 980, 0)),
    "cyclic-F181-(2, 7, 13)": ((2323, 2504, 0), (2142, 2672, 0)),
    "cyclic-F181-(7, 13)": ((1638, 1820, 0), (1638, 1911, 0)),
    "cyclic-F199-(2, 2, 2, 5, 5)": ((1713, 1912, 0), (1514, 2072, 0)),
    "cyclic-F199-(2, 2, 5, 5)": ((1000, 1200, 0), (1000, 1300, 0)),
    "cyclic-F239-(2, 2, 2, 2, 3, 5)": ((1857, 2096, 0), (1618, 2288, 0)),
    "cyclic-F239-(2, 2, 2, 3, 5)": ((1080, 1320, 0), (1080, 1440, 0)),
    "cyclic-F337-(2, 13, 13)": ((6265, 6602, 0), (5928, 6914, 0)),
    "cyclic-F337-(13, 13)": ((4056, 4394, 0), (4056, 4563, 0)),
    "add-GF(3^4)": ((648, 648, 0), (648, 648, 0)),
    "add-GF(5^3)": ((1500, 1500, 0), (1500, 1500, 0)),
    "add-GF(7^2)": ((588, 588, 0), (588, 588, 0)),
    "mult-F181-(2, 2, 3, 3, 5)": ((1800, 1800, 0), (1800, 1800, 0)),
    "mult-65537-n4096": ((49152, 49152, 0), (49152, 49152, 0)),
    "add-2e12-n1024": ((10240, 10240, 0), (10240, 10240, 0)),
    "cyclic-191-n192": ((1281, 1472, 0), (1090, 1472, 0)),
    "cli-383-n128": ((896, 1152, 0), (896, 1024, 0)),
}


def test_criterion_8_exact_op_counts():
    """fft and ifft op counts, exact, on every cost-theorem config and on the
    four benchmark configs (the cli workload's plan is the default partial
    fiber of F_383, radices 2^7), counted once a first ifft has built the
    inverse's tables."""
    rng = random.Random(SEED + 12)
    plans = [(name, case, plan) for name, case, plan in _cost_plans()]
    plans += [("mult-65537-n4096", "mult", mult_plan(field_make(65537), (2,) * 12)),
              ("add-2e12-n1024", "add", add_plan(field_make(2, 12), [1 << i for i in range(10)])),
              ("cyclic-191-n192", "cyclic", cyclic_plan(field_make(191), (2,) * 6 + (3,))),
              ("cli-383-n128", "cyclic", cyclic_plan(field_make(383), (2,) * 7))]
    assert sorted(name for name, _, _ in plans) == sorted(EXACT_OPS)
    for name, case, plan in plans:
        field = plan.field
        c = [rng.randrange(field.q) for _ in range(plan.n)]
        plan.ifft(_forward(case, plan, c))  # builds the inverse's tables
        with field.count_ops() as fwd:
            values = _forward(case, plan, c)
        with field.count_ops() as inv:
            plan.ifft(values)
        counts = ((fwd.adds, fwd.muls, fwd.invs), (inv.adds, inv.muls, inv.invs))
        assert counts == EXACT_OPS[name], (name, counts)
    _report("criterion-8 exact op counts", True, f"{len(plans)} configs, fft and ifft")


def _first_use_tables(case, plan, job):
    """The tables a job builds on its first call on a fresh plan: "newton"
    is the Newton data of every kernel level, any other name a plan
    attribute built on first use."""
    if job == "fft" or (case != "cyclic" and job != "ifft"):
        return ()
    inverse = ("inv_scales", "newton") if case == "cyclic" else ("newton",)
    if job == "ifft":
        return inverse
    if job == "to_std":
        return ("mult_route",) if plan.is_full else ("inv_scales", "fiber_tables")
    return ("mult_route",) * plan.is_full + inverse


FIRST_USE_TABLES = ("newton", "inv_scales", "fiber_tables", "mult_route")


def _has_table(plan, table):
    if table == "newton":
        return all(lv.newton is not None for lv in plan.kernel)
    return table in vars(plan)


@pytest.mark.parametrize("job", ["fft", "ifft", "to_std", "from_std"])
def test_first_call_surplus_is_the_table_builds(job):
    """A plan builds only what its fft reads; each other table is built on
    the first call that reads it.  So a job's first call on a fresh plan
    costs exactly its second call plus the ops of the builders of those
    tables, run alone on a twin plan of the same config (adds, muls and
    invs each), and builds them and no other; a second call builds nothing."""
    rng = random.Random(SEED + 13)
    for (name, case, plan), (_, _, twin) in zip(_cost_plans(), _cost_plans()):
        field = plan.field
        tables = _first_use_tables(case, plan, job)
        assert not any(_has_table(plan, t) for t in FIRST_USE_TABLES), (name, job)
        c = [rng.randrange(field.q) for _ in range(plan.n)]
        run = {"fft": lambda: _forward(case, plan, c),
               "ifft": partial(plan.ifft, _forward(case, twin, c)),
               "to_std": partial(plan.to_standard, CoeffVec(tuple(c), plan.basis)),
               "from_std": partial(plan.from_standard, CoeffVec(tuple(c), BASIS_STANDARD))}[job]
        counts = []
        for _ in range(2):
            with field.count_ops() as ctr:
                run()
            counts.append((ctr.adds, ctr.muls, ctr.invs))
        assert {t for t in FIRST_USE_TABLES if _has_table(plan, t)} == set(tables), (name, job)
        with twin.field.count_ops() as ctr:
            for table in tables:
                if table == "newton":
                    build_inverse_locals(twin.field, twin.kernel)
                else:
                    getattr(twin, table)
        surplus = tuple(a - b for a, b in zip(*counts))
        assert surplus == (ctr.adds, ctr.muls, ctr.invs), (name, job, surplus, ctr)
    _report(f"first-use tables of {job}", True, "first call = second call + table builds")


def test_criterion_8_local_solve_oracle():
    """engine.local_solve against linalg.solve on the Horner-product rows
    [1, w_0, w_0 w_1, ...] of random fibers, on every level of full and
    partial cyclic, mult and add plans with radices 2, 3, 5, 11 and 13, once
    build_inverse_locals has set their Newton data, as a first ifft does; a
    fiber with a repeated node raises SingularLocalSystem there, and a point
    on a level pole raises ValidationError."""
    rng = random.Random(SEED + 11)
    plans = [(name, plan) for name, _, plan in _cost_plans()]
    plans += [(f"mult-F8581-{r}", mult_plan(field_make(8581), r))
              for r in ((2, 3, 5, 11, 13), (13, 11, 5, 3, 2))]
    plans += [(f"add-GF({p}^{r})", add_plan(field_make(p, r), [p**i for i in range(k)]))
              for p, r, k in ((2, 4, 4), (11, 2, 2), (13, 2, 2))]
    radices, checked = set(), 0
    for name, plan in plans:
        field = plan.field
        build_inverse_locals(field, plan.kernel)
        for depth, lv in enumerate(plan.kernel):
            values = [rng.randrange(field.q) for _ in range(lv.size)]
            subvals = local_solve(field, lv, values)
            # point t of fiber sq sits at t*nq + sq, and its weights at
            # t*(nq - first) + sq - first, as a full cyclic level's fiber 0,
            # over its point at infinity, has no local system
            nq = lv.size // lv.radix
            fibers = [(sq, [t * nq + sq for t in range(lv.radix)]) for sq in range(lv.first, nq)]
            for sq, points in rng.sample(fibers, min(len(fibers), 6)):
                rows = []
                for t in range(lv.radix):
                    row = [1]
                    for w in lv.weights:
                        row.append(field.mul(row[-1], w[t * (nq - lv.first) + sq - lv.first]))
                    rows.append(row)
                assert [sub[sq] for sub in subvals] == solve(field, rows, [values[s] for s in points]), \
                    (name, depth, sq)
                checked += 1
            if lv.pole_consts is not None:  # the pole fiber's sub-values
                assert all(sub[0] == 0 for sub in subvals), (name, depth)
            radices.add(lv.radix)
    assert {2, 3, 5, 11, 13} <= radices

    F7 = field_make(7)

    def cyclic_level(pts, poles):
        return Level(len(poles) + 1, pts, poles)

    repeated = [Level(3, [1, 4, 2, 5, 3, 4]),  # fibers (1, 2, 3), (4, 5, 4)
                cyclic_level([1, 2, 3, 2, 5, 6], (0, 4)),  # fibers (1, 3, 5), (2, 2, 6)
                cyclic_level([1, 2, 3, 2], (4,))]  # fibers (1, 3), (2, 2)
    for lv in repeated:
        with pytest.raises(SingularLocalSystem):
            build_inverse_locals(F7, [lv])
    for lv in (cyclic_level([1, 2, 3, 4], (3,)),  # a point on the pole
               cyclic_level([1, 2, 5, INF, 4, 6], (0, 3))):  # a point at infinity
        with pytest.raises(ValidationError, match="collides with a level pole"):
            build_inverse_locals(F7, [lv])
    _report("criterion-8 local solve", True,
            f"{checked} fibers over radices {sorted(radices)} equal the dense solve; "
            "repeated nodes raise")


def test_criterion_8_cyclic_plan_build_ops():
    """A full cyclic plan build costs O(n sum(p_i)) field ops, n = q + 1: it
    composes the degree-p level maps once per point of each level and never
    forms the degree-n tower, whose products and gcds grow the ratio below
    with n.  The scales come in closed form, with no second pass of every
    level at every point (that pass put the ratio at 12.6-17.8)."""
    notes = []
    for q, radices in ((127, (2,) * 7), (191, (2,) * 6 + (3,)), (383, (2,) * 7 + (3,)),
                       (1151, (2,) * 7 + (3, 3))):
        field = field_make(q)
        with field.count_ops() as ctr:
            cyclic_plan(field, radices)
        ratio = ctr.total() / ((q + 1) * sum(radices))
        assert ratio <= 12, (q, radices, ctr.total(), ratio)
        notes.append(f"q{q} {ratio:.1f}<=12")
    _report("criterion-8 cyclic plan build ops", True, "; ".join(notes))


def test_criterion_8_m31_partial_build_ladder():
    """Partial cyclic builds over M31 = 2^31 - 1, n = 2^8 ... 2^12: the
    fiber is evaluated once, level by level, and the scales come from the
    level points, so adds plus muls per point grow by at most 3 a doubling:
    each radix-2 level adds a squaring and a product a point to the top
    denominator D and a squaring a point to Q_0^n, while the fixed cost (the
    primitive-quadratic search, the tower's 2x2 matrices) spreads over n.
    They stay at most 170 at n = 2^12, with at most 4 inversions per point
    (a tower pass at every point, a probe fiber and the infinity fiber made
    282 and 9.5; a tower pass at every point alone adds 12 a doubling)."""
    field = field_make(2**31 - 1)
    per_point = {}
    for k in range(8, 13):
        with field.count_ops() as ctr:
            cyclic_plan(field, (2,) * k)
        per_point[k] = ((ctr.adds + ctr.muls) / 2**k, ctr.invs / 2**k)
    for k in range(8, 12):
        assert per_point[k + 1][0] <= per_point[k][0] + 3, (k, per_point)
    ops, invs = per_point[12]
    assert ops <= 170 and invs <= 4, per_point
    _report("criterion-8 M31 partial build ladder", True,
            "; ".join(f"n=2^{k} {a:.1f} ops {i:.2f} invs/point" for k, (a, i) in per_point.items()))


def test_criterion_8_m31_partial_build_inversions_grow_with_r():
    """Partial cyclic builds over M31, n = 2^8 ... 2^12, invert field
    elements per level, not per point: the orbit, each level's values and
    each level's kernel weights become affine through one batched inversion, so
    the build at n = 2^12 inverts at most twice as often as at n = 2^8 (one
    inversion per orbit or level value put 3.2 per point, 12,996 at 2^12)."""
    field = field_make(2**31 - 1)
    invs = {}
    for k in range(8, 13):
        with field.count_ops() as ctr:
            cyclic_plan(field, (2,) * k)
        invs[k] = ctr.invs
    assert invs[12] <= 2 * invs[8], invs
    _report("criterion-8 M31 build inversions", True,
            "; ".join(f"n=2^{k} {i}" for k, i in invs.items()) + " inversions")


def test_criterion_8_affine_plan_build_ops_linear():
    """Multiplicative and additive plan builds cost O(n) field ops: each
    level's points come from one level-map call per point of the level below
    (engine.fiber_levels), and the additive tables are checked on the r basis
    elements only.  From n = 2^6 to 2^12 the ops per point stay within 1.5
    times those at n = 2^6 (a per-point sweep of every level grew them 3.0x
    on mult and 2.2x on add)."""
    F, G = field_make(65537), field_make(2, 12)
    notes = []
    for case, build in (("mult", lambda k: mult_plan(F, (2,) * k)),
                        ("add", lambda k: add_plan(G, [1 << i for i in range(k)]))):
        field = F if case == "mult" else G
        per_point = {}
        for k in range(6, 13):
            with field.count_ops() as ctr:
                build(k)
            per_point[k] = ctr.total() / 2**k
        assert max(per_point.values()) <= 1.5 * per_point[6], (case, per_point)
        notes.append(f"{case} {per_point[6]:.1f} -> {per_point[12]:.1f} ops/point")
    _report("criterion-8 affine plan build ops", True, "; ".join(notes))


def test_criterion_8_cyclic_partial_build_flat_in_q():
    """A partial cyclic plan proves its fiber from the orbit of the order-n
    map and evaluates the tower on that fiber only, so at fixed n its build
    ops do not grow with q: n = 64 at q = 8191, 131071 and 2^31 - 1 each
    costs at most twice the q = 8191 count.  A scan of F_q for the fibers
    cost 9.7M ops at q = 131071."""
    counts = {}
    for q in (8191, 131071, 2**31 - 1):
        field = field_make(q)
        with field.count_ops() as ctr:
            cyclic_plan(field, (2,) * 6)
        counts[q] = ctr.total()
    for q, count in counts.items():
        assert count <= 2 * counts[8191], (q, counts)
    _report("criterion-8 partial cyclic build flat in q", True,
            "; ".join(f"q{q} {count}" for q, count in counts.items()) + " ops at n = 64")


def test_criterion_8_cyclic_1151_roundtrip():
    """n = q+1 = 1152 = 2^7 3^2: build, round trip, and Horner spot checks of
    the values against the standard-basis polynomial."""
    rng = random.Random(SEED + 10)
    field = field_make(1151)
    t0 = time.perf_counter()
    plan = cyclic_plan(field, (2,) * 7 + (3, 3))
    build = time.perf_counter() - t0
    assert plan.is_full and plan.n == 1152
    c = [rng.randrange(field.q) for _ in range(plan.n)]
    ev = q1_fft(plan, c)
    assert list(q1_ifft(plan, ev).values) == c
    f = Poly(field, list(tilde_to_std(plan, c).values))
    for idx in rng.sample(range(plan.n), 8) + [plan.points.index(INF)]:
        pt = plan.points[idx]
        assert ev.values[idx] == (0 if pt is INF else f.eval(pt)), pt
    _report("criterion-8 cyclic q=1151", True, f"round trip and 9 Horner spot checks; build {build:.2f}s")
