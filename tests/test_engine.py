"""The level-batched kernel on seeded random configurations: mixed radices up
to 13, full and partial cyclic fibers, and additive plans over GF(2^k),
GF(3^k) and GF(5^k), each checked against oracle Horner evaluation and by an
ifft-of-fft round trip; the fused forward step by its column-op calls; and
the level builder, engine.fiber_levels, on its fiber layout and against a
per-point sweep of every level of those plans."""

import math
import random

import pytest

from gfft.afft import add_plan
from gfft import engine
from gfft.cfft import cyclic_plan
from gfft.engine import fiber_levels
from gfft.errors import DependentBasis, SingularLocalSystem, ValidationError
from gfft.gf import Field, field_make, is_prime
from gfft.mfft import mult_plan
from gfft.oracle import basis_matrix
from gfft.poly import INF, Poly

RADICES = (2, 3, 5, 7, 11, 13)


def _radices(rng, bound, must=None):
    """A shuffled radix list with product <= bound, holding must if given."""
    out = [must] if must else []
    while True:
        p = rng.choice(RADICES)
        if math.prod(out) * p > bound:
            break
        out.append(p)
    rng.shuffle(out)
    return tuple(out)


def _mult_plans(rng):
    for must in (11, 13, 7, None, None):
        radices = _radices(rng, 300, must)
        n = math.prod(radices)
        k = rng.randrange(1, 40)
        while not is_prime(k * n + 1):
            k += 1
        field = field_make(k * n + 1)
        yield f"mult-F{field.q}-{radices}", mult_plan(field, radices, rng.randrange(1, field.q))


def _cyclic_plans(rng):
    """Full plans (n = q + 1) first, then partial fibers (n | q + 1, n < q + 1)."""
    for must in (11, 13, 3, None):
        while True:  # n - 1 must be an odd prime for a full plan
            radices = _radices(rng, 110, must)
            n = math.prod(radices)
            if n > 4 and is_prime(n - 1):
                break
        yield f"cyclic-F{n - 1}-{radices}-full", cyclic_plan(field_make(n - 1), radices)
    for must in (11, 13, 5, None):
        radices = _radices(rng, 64, must)
        n = math.prod(radices)
        k = rng.randrange(2, 30)
        while not is_prime(k * n - 1):
            k += 1
        field = field_make(k * n - 1)
        yield f"cyclic-F{field.q}-{radices}", cyclic_plan(field, radices)


def _add_plans(rng):
    for p, r in ((2, 6), (2, 10), (3, 4), (3, 6), (5, 3), (5, 4)):
        field = field_make(p, r)
        dim = r
        while p**dim > 64:
            dim -= 1
        dim -= rng.randrange(2)
        while True:  # random F_p-independent basis elements
            try:
                plan = add_plan(field, [rng.randrange(1, field.q) for _ in range(dim)])
            except DependentBasis:
                continue
            break
        yield f"add-GF({p}^{r})-{list(plan.subspace_basis)}", plan


def _random_plans():
    rng = random.Random(0x1E7E1)
    return rng, [*_mult_plans(rng), *_cyclic_plans(rng), *_add_plans(rng)]


def test_random_configurations_match_the_oracle():
    rng, plans = _random_plans()
    radices, cases = set(), set()
    for name, plan in plans:
        field = plan.field
        c = [rng.randrange(field.q) for _ in range(plan.n)]
        std = c if plan.case == "mult" else basis_matrix(plan).apply(c)
        f = Poly(field, std)
        out = plan.fft(c)
        if plan.case == "cyclic":
            assert list(out.values) == [0 if pt is INF else f.eval(pt) for pt in out.points], name
            cases.add("cyclic-full" if plan.is_full else "cyclic-partial")
        else:
            assert out == [f.eval(pt) for pt in plan.points], name
            cases.add("mult" if plan.case == "mult" else f"add-p{field.p}")
        assert list(plan.ifft(out).values) == c, name
        radices.update(plan.radices)
    assert {11, 13} <= radices
    assert cases == {"mult", "add-p2", "add-p3", "add-p5", "cyclic-full", "cyclic-partial"}


def test_fiber_levels_checks_every_fiber():
    # point t of fiber sq at t*nq + sq: the fibers of 12 points under radix 2
    # are {s, s + 6}, those of the 6 level-1 points under radix 3 {s, s + 2, s + 4}
    points = list(range(12))

    def good(i, xs):
        return [x % (6, 2)[i - 1] for x in xs]

    assert fiber_levels(points, (2, 3), good) == [points, [0, 1, 2, 3, 4, 5], [0, 1]]
    # a point off its fiber's value: the last point of level 2's input, and
    # a point of the entries level 1 keeps
    for level, entry in ((2, -1), (1, 3)):
        def bad(i, xs, level=level, entry=entry):
            out = good(i, xs)
            if i == level:
                out[entry] += 1
            return out

        with pytest.raises(ValidationError, match=f"fiber constancy violated at level {level}"):
            fiber_levels(points, (2, 3), bad)
    assert fiber_levels([7], (), None) == [[7]]


def test_level_points_match_a_per_point_sweep():
    """The sweeps fiber_levels replaced, as oracles at every point of every
    level: x^(p_1...p_i) on mult plans, the dense ell_i on add plans, and the
    projective tower values on cyclic plans, on the evaluation fiber and on
    the fiber over infinity."""
    _, plans = _random_plans()
    for name, plan in plans:
        field, n = plan.field, plan.n
        if plan.case == "cyclic":
            inf_fiber = plan.gen.orbit(INF, length=n)
            fibers = [(plan.points, plan.level_points),
                      (inf_fiber, plan._fiber_levels(inf_fiber)[0])]
            for points, levels in fibers:
                for i, pairs in enumerate(plan.tower_values(points)):
                    nq = plan.sizes[i]
                    for s, (num, den) in enumerate(pairs):
                        x = INF if den == 0 else field.div(num, den)
                        assert x == levels[i][s % nq], (name, i, s)
            continue
        size = 1
        for i, p in enumerate((1,) + plan.radices):
            size *= p
            for s, x in enumerate(plan.level_points[0]):  # kernel order
                y = field.pow(x, size) if plan.case == "mult" else plan.lin_polys[i].eval(x)
                assert y == plan.level_points[i][s % (n // size)], (name, i)


def test_forward_makes_one_column_op_per_horner_step(monkeypatch):
    """engine.forward makes p - 1 add_products calls on a level of radix p,
    one per Horner step over all its columns (one per step and column made
    p(p - 1)); a full cyclic level makes p(p - 1)/2 more, one per pole-fiber
    constant, each against a repeated constant in place of a weight list."""
    plans = [mult_plan(field_make(191), (19, 5, 2)), cyclic_plan(field_make(131), (2, 3, 11)),
             cyclic_plan(field_make(191), (2,) * 6 + (3,))]
    real, calls = Field.add_products, []

    def spy(self, ys, xs, ws):
        calls.append(isinstance(ws, list))
        return real(self, ys, xs, ws)

    monkeypatch.setattr(Field, "add_products", spy)
    for plan in plans:
        calls.clear()
        engine.forward(plan.field, plan.kernel, [i % plan.field.q for i in range(plan.n)])
        horner = sum(p - 1 for p in plan.radices)
        full = plan.case == "cyclic" and plan.is_full
        consts = sum(p * (p - 1) // 2 for p in plan.radices) if full else 0
        assert (calls.count(True), calls.count(False)) == (horner, consts), plan
    assert (horner, consts) == (8, 9)  # the full plan's 6 radix-2 levels and one radix-3


def test_pole_fiber_guards_refuse_a_corrupted_input():
    """A zero diagonal constant of the pole-fiber system, and a leaf order
    that sends two pole-fiber coefficients to one slot, are refused."""
    plan = cyclic_plan(field_make(23), (2, 2, 2, 3))
    lv = plan.kernel[0]
    lv.pole_consts = {**lv.pole_consts, (1, 1): 0}
    with pytest.raises(SingularLocalSystem, match="zero diagonal in the pole-fiber system"):
        engine.build_inverse_locals(plan.field, plan.kernel)
    plan = cyclic_plan(field_make(23), (2, 2, 2, 3))
    values = plan.fft([i % 23 for i in range(1, 25)]).tilde
    plan.kernel[-1].leaf_order = [0] * plan.n
    with pytest.raises(SingularLocalSystem, match="pole-fiber slot doubly determined"):
        engine.inverse(plan.field, plan.kernel, list(values))


@pytest.mark.parametrize("args", [(383,), (2**31 - 1,), (2, 6), (3, 4)])
def test_batch_inverse_matches_field_inv(args):
    """The batched inversion equals Field.inv entry by entry, at
    3(N-1) muls, one inversion and no add for N entries; a zero anywhere is
    refused."""
    field = field_make(*args)
    rng = random.Random(sum(args))
    for n in (1, 2, 3, 127, 4096):
        xs = [rng.randrange(1, field.q) for _ in range(n)]
        with field.count_ops() as ctr:
            (inv,) = engine._batch_inverse(field, [xs])
        assert inv == [field.inv(x) for x in xs], n
        assert (ctr.adds, ctr.muls, ctr.invs) == (0, 3 * (n - 1), 1), (n, ctr)
        for at in {0, n // 2, n - 1}:
            with pytest.raises(SingularLocalSystem, match="repeated node"):
                engine._batch_inverse(field, [xs[:at] + [0] + xs[at + 1:]])
    cols = [[rng.randrange(1, field.q) for _ in range(4)] for _ in range(3)]
    assert engine._batch_inverse(field, cols) == [[field.inv(x) for x in c] for c in cols]
    assert engine._batch_inverse(field, [[]]) == [[]]
    assert engine.affine(field, [1, 2, 3], [1, 0, 2]) == [1, INF, field.div(3, 2)]
