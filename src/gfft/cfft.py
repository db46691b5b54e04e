"""Cyclic-case transform: evaluation sets carved from the order-(q+1) cycle
of fractional-linear maps, for smooth n | q+1.

A plan builds the subfield tower x_0, x_1, ..., x_r level by level, never
whole, from 2x2 matrices (_build_tower): no rational function is formed.
The evaluation fiber is the orbit of the order-n map, proved a whole fiber
of x_r without scanning F_q (_build_points), and the tower is evaluated on
it only, level by level through engine.fiber_levels: O(n * sum(p_i)) field
operations, whatever q, inverting per level, not per point.  Coefficients
live in the "cyclic-z" basis: products of reciprocal linear factors of the
tower coordinates, scaled so the basis spans the polynomials of degree < n,
by per-point scales in closed form (_build_scaling).

The transforms run on the shared kernel in engine.py, given each level's
points and poles.  When n = q+1 the evaluation set is every rational point
including infinity; the kernel then routes the fiber over each level's point
at infinity through precomputed constants instead of direct evaluation.  A
plan builds what q1_fft reads; 1 / scale and the kernel's Newton data, which
the inverse reads, and the conversions' tables are built on first use.

The basis conversions mirror each other around the transform: standard ->
cyclic-z evaluates the polynomial at the plan's points and inverts the values
with q1_ifft; cyclic-z -> standard evaluates with q1_fft and interpolates at
the finite points, inverting nothing past its tables.  A full plan's finite
points are F_q, so both run on the kernel of a MultPlan over F_q^*
(mult_route): one forward each, O(n sum p_i) over the primes p_i of q - 1,
plus the point 0.  A partial plan evaluates by Horner at each point and
interpolates by a transposed Vandermonde solve, power sums of the values
times the weights 1/M'(x_i) over its square classes {x, -x}, combined
through the fiber polynomial M = prod (x - x_i): O(n^2), on one table
(fiber_tables) with M and the weights in closed form.
"""

from __future__ import annotations

from functools import cached_property, partial, reduce
from itertools import cycle, repeat
from math import isqrt

from . import engine
from .errors import (
    LengthMismatch,
    MismatchError,
    NoMoebiusRelation,
    PrimitivityFailure,
    RadixNotDividing,
    SplitValidationFailure,
    ValidationError,
)
from .gf import (Field, factorize, find_primitive_quadratic, quadratic_failure,
                 quadratic_is_irreducible, square_multiply)
# invert is unused here; perfbench's test_tracer_patches_every_binding_and_restores
# checks that the tracer rebinds it in this module too
from .linalg import invert  # noqa: F401
from .mfft import MultPlan
from .moebius import MoebiusMap, relation
from .poly import INF, Poly, RatFn, _substitute, homogeneous, horner, mul_add, poly_str, trim
from .vectors import (BASIS_CYCLIC, BASIS_STANDARD, CoeffVec, CyclicEvalVec, coeff_values,
                      plan_list, point_ordered, point_out, point_value, standard_values, value_raws)


def ratfn_substitute(outer: RatFn, inner: RatFn) -> RatFn:
    """outer(inner(x)) as a reduced rational function, by poly.homogeneous.

    The plan build never calls this (it would form the degree-n tower); the
    tests use it to check the level maps against the symbolic tower.
    """
    return _substitute(outer, inner.num.coeffs, inner.den.coeffs)


class CyclicLevel:
    """Connects the line in x_{i-1} to the line in x_i (radix p_i)."""

    __slots__ = ("radix", "induced", "num", "den", "poles", "norm_const")

    def __init__(self, radix, induced, num, den, poles):
        self.radix = radix
        self.induced = induced
        self.num = num  # u(T), monic of degree radix
        self.den = den  # prod (T - pole), monic of degree radix-1
        self.poles = tuple(poles)
        self.norm_const = None


class CyclicPlan:
    case = "cyclic"
    basis = BASIS_CYCLIC

    def __init__(self, field: Field, radices, m_pair=None, fiber_key=None, *, _start=None):
        radices, n = engine.check_radices(radices)
        if (field.q + 1) % n != 0:
            raise RadixNotDividing(f"{n} does not divide q+1 = {field.q + 1}")

        self.field = field
        self.radices = radices
        self.n = n
        self.r = len(radices)
        f = field

        if m_pair is None:
            a_el, b_el = find_primitive_quadratic(field)
            a, b = a_el.raw, b_el.raw
        else:
            m = f.raws(m_pair)
            if len(m) != 2:
                raise ValidationError(f"m_pair must hold two entries (a, b), got {m_pair!r}")
            a, b = m
            if failure := quadratic_failure(field)(a, b):
                raise PrimitivityFailure(failure)
        self.m_coeffs = (a, b)
        self.sigma = MoebiusMap(field, 0, 1, f.neg(b), f.neg(a))

        inv_b = f.inv(b)
        self.quads = [Poly(field, (inv_b, f.mul(a, inv_b), 1))]

        sizes = [1]
        for p in radices:
            sizes.append(sizes[-1] * p)
        self.subgroup_sizes = sizes  # |G_i|
        self.sizes = [n // s for s in sizes]  # evaluation count at each level

        self._build_tower()
        self._build_quads()
        self._build_points(fiber_key, _start)
        self._build_scaling()
        self._build_kernel()

    # -- construction --------------------------------------------------------

    def _build_tower(self):
        """Each level map m_i = x_i in x_{i-1}-coordinates, at degree p_i,
        from 2x2 matrices alone.

        sigma commutes with every G_i, so x_i o sigma = S_i o x_i: S_0 = sigma,
        and S_i is the Moebius map with m_i o S_{i-1} = S_i o m_i, solved by
        Cramer's rule at two degrees per level (_lift_sigma).  So tau_i = sigma^e,
        e = (q+1)/|G_i|, a generator of G_i, induces M = S_{i-1}^e on the
        x_{i-1}-line, and x_i, the sum of the translates of x_{i-1} under
        tau_i, is m_i(x_{i-1}) with m_i = sum_t M^t(T) (_level_map): the
        degree-|G_i| tower is never formed.  _level_map makes the numerator
        monic of degree p and the denominator monic of degree p - 1; p - 1
        distinct roots of the denominator show that it splits simply, and
        the numerator vanishes at none of them, so m_i is in lowest terms.
        The poles M^t(INF), t = 1..p-1, come in the order of x_{i-1} at
        tau_i^t(INF): x_{i-1} o tau_i = M o x_{i-1} by the lifts, and
        x_{i-1}(INF) = INF.  self.lifts keeps S_0..S_r.
        """
        f, q = self.field, self.field.q
        levels, lifts = [], [self.sigma]
        for i in range(1, self.r + 1):
            p = self.radices[i - 1]
            induced = lifts[-1] ** ((q + 1) // self.subgroup_sizes[i])
            num, den, poles = _level_map(f, induced, p, i)
            num, den = Poly(f, num), Poly(f, den)
            if not all(map(num.eval, poles)):
                raise ValidationError(f"level {i} map numerator malformed: {num!r}")
            if len(set(poles)) != p - 1 or any(map(den.eval, poles)):
                raise SplitValidationFailure(f"level {i} denominator does not split simply")
            levels.append(CyclicLevel(p, induced, num, den, poles))
            lifts.append(_lift_sigma(f, lifts[-1], num.coeffs, den.coeffs, i))
        self.levels, self.lifts = levels, lifts

    def tower_values(self, places, upto=None):
        """Projective values of x_0, ..., x_upto (x_r by default) at each
        place: entry i lists the pairs (N_i, D_i) in the order of `places`.

        Starts from (alpha, 1), or (1, 0) at INF, and applies each level map
        as (N, D) -> (D^p u(N/D), D^p v(N/D)) by homogeneous Horner, 2p - 1
        adds and 5p - 1 muls a place.  For finite alpha, N_i and D_i are the
        values at alpha of the numerator and denominator of x_i in lowest
        terms, N_i monic of degree |G_i|.
        """
        mul, add = self.field.mul, self.field.add
        out = [[(1, 0) if pl is INF else (self.field.raw(pl), 1) for pl in places]]
        for lv in self.levels[:upto]:
            p, ucs, vcs = lv.radix, lv.num.coeffs, lv.den.coeffs
            pairs = []
            for num, den in out[-1]:
                u, v, dk = 1, 1, 1
                for k in range(p - 1, -1, -1):
                    dk = mul(dk, den)
                    u = add(mul(u, num), mul(ucs[k], dk))
                    if k:
                        v = add(mul(v, num), mul(vcs[k - 1], dk))
                pairs.append((u, mul(v, den)))
            out.append(pairs)
        return out

    def _build_quads(self):
        """Per-level quadratics 1/y_i = Q_i(x_i) and the norm constants c_i,
        read off the level identity Q_{i-1}^p = c_i * den^2 * Q_i(num/den) and
        then verified in full.  lc(Q_i) is the norm of Q_{i-1} at infinity,
        lc(Q_{i-1}) * prod_j Q_{i-1}(pole_j), which fixes c_i; num monic of
        degree p and den monic of degree p - 1 make the top three
        coefficients of the identity a triangular system in the other two."""
        f = self.field
        prod = partial(mul_add, f)
        for i, lv in enumerate(self.levels, start=1):
            prev, p = self.quads[-1], lv.radix
            num, den = lv.num.coeffs, lv.den.coeffs
            lead = prev.lc()
            for pole in lv.poles:
                lead = f.mul(lead, prev.eval(pole))
            lhs = square_multiply(prod, prev.coeffs, p, [1])
            num2, num_den = prod(num, num), prod(num, den)
            top = lhs[2 * p]  # c_i * lc(Q_i)
            norm_const = f.div(top, lead)
            c1 = f.sub(lhs[2 * p - 1], f.mul(top, num2[2 * p - 1]))  # c_i * Q_i[1]
            c0 = f.sub(f.sub(lhs[2 * p - 2], f.mul(top, num2[2 * p - 2])),
                       f.mul(c1, num_den[2 * p - 2]))  # c_i * Q_i[0]
            quad = Poly(f, (f.div(c0, norm_const), f.div(c1, norm_const), lead))
            # c_i * den^2 * Q_i(num/den) on coefficient lists, c_i * Q_i[k] being c_k
            rhs = f.products(num2, repeat(top))
            rhs[:2 * p] = f.add_products(rhs, num_den, repeat(c1))
            rhs[:2 * p - 1] = f.add_products(rhs, prod(den, den), repeat(c0))
            if lhs != rhs:
                raise ValidationError(f"level {i} norm identity failed")
            monic = quad.coeffs if lead == 1 else f.products(quad.coeffs, repeat(f.inv(lead)))
            if not quadratic_is_irreducible(f, monic[1], monic[0]):
                raise ValidationError(f"level {i} quadratic splits; tower corrupted")
            lv.norm_const = norm_const
            self.quads.append(quad)

    def _build_points(self, fiber_key, start):
        """The evaluation fiber as the orbit of the order-n map through its
        least place, proved a whole fiber of x_r without scanning F_q.

        x_r = N/D with N monic of degree n and deg D < n (tower_values keeps
        that shape level by level).  So x_r takes a finite value c at most at
        the n roots of N - cD, and INF at most at INF and the n - 1 roots of
        D: n distinct places that share one value of x_r are the whole fiber
        over it, and _fiber_levels checks both.  The orbit starts at INF on a
        full plan.  A partial plan reloaded from its file starts at the stored
        first point, checked to lie on the stored fiber and to be the least
        place of its orbit, so the plan is the one a fresh build on that
        fiber makes; otherwise it starts as _start says."""
        f, q, n = self.field, self.field.q, self.n
        self.is_full = n == q + 1
        if self.is_full and fiber_key not in (None, INF):
            raise ValidationError(f"a full plan's fiber is every place (inf), not {fiber_key!r}")
        if not self.is_full and fiber_key is INF:
            raise ValidationError("a partial plan's fiber is a finite value, not inf")
        if not self.is_full and fiber_key is not None:
            fiber_key = f.raw(fiber_key)
            if fiber_key == 0:
                raise ValidationError("the fiber at 0 cannot be rescaled; choose another")
        self.gen = gen = self.sigma ** ((q + 1) // n)
        stored = start is not None and not self.is_full
        if not stored:
            start = INF if self.is_full else self._start(fiber_key)
        self.points = gen.orbit(start, n)
        self.level_points, self.level_dens = self._fiber_levels(self.points)
        self.bucket_key = self.level_points[-1][0]
        if stored and self.bucket_key != fiber_key:
            raise MismatchError(f"plan table 'points' starts at {point_out(f, start)}, "
                                f"off the stored fiber {point_out(f, fiber_key)}")
        if stored and min(self.points) != start:
            raise MismatchError(f"plan table 'points' starts at {point_out(f, start)}, "
                                "not at the least place of its fiber")

    def _start(self, key):
        """The least alpha where x_r is finite and nonzero (one of the first
        2n: x_r has n zeros and n - 1 finite poles) or, given key, the least
        place of key's fiber.  sigma is one (q+1)-cycle that commutes with
        gen, so sigma^k(alpha), k < (q+1)/n, lie one in each fiber, and
        x_r(sigma^k(alpha)) = S_r^k(x_r(alpha)): key is a fiber value exactly
        when S_r^k takes x_r(alpha) to it, and _cycle_log finds that k."""
        f = self.field
        for alpha in range(f.q):
            ((num, den),) = self.tower_values([alpha])[-1]
            if num and den:
                break
        else:
            raise ValidationError("no usable evaluation fiber")
        if key is None:
            return alpha
        k = _cycle_log(self.lifts[-1], f.div(num, den), key, (f.q + 1) // self.n)
        if k is None:
            raise ValidationError(f"{key} is not an evaluation fiber value")
        return min(self.gen.orbit((self.sigma ** k)(alpha), self.n))

    def _fiber_levels(self, points):
        """(levels, dens) on n orbit points: levels[i] lists x_i at the first
        n_i points, after checking that the points are distinct;
        engine.fiber_levels applies each level map to the previous list and
        checks that x_i at point s equals x_i at point s mod n_i (at level r:
        one value on all).  dens[i - 1] lists v_i at the finite entries of
        levels[i - 1], for _build_scaling; no plan state changes."""
        f = self.field
        if len(set(points)) != self.n:
            raise ValidationError("orbit of the order-n map repeats a place")
        dens = []

        def step(i, xs):  # u/v at each x, by Horner on the finite ones; INF goes to INF
            lv, finite = self.levels[i - 1], [x for x in xs if x is not INF]
            dens.append(_horner(f, lv.den.coeffs, finite))
            values = iter(engine.affine(f, _horner(f, lv.num.coeffs, finite), dens[-1]))
            return [INF if x is INF else next(values) for x in xs]

        return engine.fiber_levels(points, self.radices, step), dens

    def _build_scaling(self):
        """Scale constant c = lc(Q_r) and the per-point scales c Q_0^n / N for
        x_r = N/D (N monic, in lowest terms), in closed form.  Full plan: x_r
        is the trace of x over the cycle, (x^(q+1) - x^2 + Q_0) / (x^q - x),
        so N = Q_0 on F_q and the scale is c Q_0 (checked at one point).
        Partial plan: N = key D, D_i = D_{i-1}^p_i v_i(x_{i-1}) on the level
        points, and c Q_0^n = D^2 Q_r(key) makes scale * base_value = D; that
        identity is guarded at each point, and Q_r by the fiber's norm
        prod Q_0(points) = Q_r(key).  A partial plan keeps D and Q_0 at the
        points, for inv_scales and fiber_tables."""
        f, n, quad0 = self.field, self.n, self.quads[0]
        self.scale_const = c = self.quads[self.r].lc()
        if self.is_full:
            alpha = self.points[1]
            if self.tower_values([alpha])[-1] != [(quad0.eval(alpha), 0)]:
                raise ValidationError("x_r is not the trace of x over the cycle")
            self.base_value = 0  # the kernel zeroes a full plan's leaves
            self.scales = [None] + f.products(_horner(f, quad0.coeffs, self.points[1:]), repeat(c))
            return
        dens = [1] * n  # D at each point, from the v_i the fiber pass evaluated
        for p, vs in zip(self.radices, self.level_dens):
            dens = f.products(square_multiply(f.products, dens, p, None), cycle(vs))
        key = self.bucket_key
        q_key = self.quads[self.r].eval(key)
        q0s = _horner(f, quad0.coeffs, self.points)
        if reduce(f.mul, q0s) != q_key:
            raise ValidationError("Q_r disagrees with the norm of Q_0 over the fiber")
        lhs = f.products(square_multiply(f.products, q0s, n, None), repeat(c))
        if lhs != f.products(f.products(dens, dens), repeat(q_key)):
            raise ValidationError("scale constant fails the tower identity")
        self.base_value = f.div(key, q_key)
        self.scales = f.products(dens, repeat(f.div(q_key, key)))
        self._dens, self._q0s = dens, q0s

    @cached_property
    def inv_scales(self):
        """1 / scale at the finite points (None at INF), 1 / (scale *
        base_value) = 1 / D on a partial plan, on first use."""
        full = self.is_full
        return [None] * full + self.field.inverses(self.scales[1:] if full else self._dens)

    @cached_property
    def fiber_tables(self):
        """A partial plan's one table for tilde_to_std, built on first use:
        (M, weights, ys, (idx, xs), (neg, neg_xs)).  A square class y = x^2
        holds x and at most -x: ys lists the classes twice over, pairs first,
        idx and xs each class's first point and its x, neg and neg_xs a
        pair's -x (none in characteristic 2).  The fiber polynomial M = prod
        (x - x_i) over the points and the weights w_i = 1 / M'(x_i) are in
        closed form.  sigma fixes the roots theta, theta^q of Q_0, so ((x -
        theta) / (x - theta^q))^n is a constant c on the fiber and M = ((x -
        theta)^n - c (x - theta^q)^n) / (1 - c): M_k = (-1)^(n-k) C(n, k) t_(n-k), where t_j = (theta^j - c
        theta^(qj)) / (1 - c) has t_0 = 1, t_1 = sum x_i / n and the
        recurrence of Q_0.  M = N - key D for x_r = N/D, and x_r' = K / Q_0
        on the fiber, so w_i = Q_0(x_i) / (K D(x_i)); sum w_i D(x_i) = sum
        w_i x_i^(n-1) = 1, as D is monic of degree n - 1 (each level
        denominator is monic of degree one below its numerator's), so K =
        sum Q_0(x_i).  Guarded at every point by the other identity, sum w_i
        = 0 for n >= 2, then at x_0: M(x_0) = 0 and w_0 M'(x_0) = 1."""
        f, n, p, q0s = self.field, self.n, self.field.p, self._q0s
        a1, a0 = f.neg(self.quads[0][1]), f.neg(self.quads[0][0])
        t = [1, f.div(f.sum(self.points), n % p)]  # p does not divide n | q + 1
        for _ in range(n - 1):
            t.append(f.add(f.mul(a1, t[-1]), f.mul(a0, t[-2])))
        signed = [c if (n - k) % 2 == 0 else f.neg(c)
                  for k, c in enumerate(_binomials_mod_p(f, n))]
        fiber_poly = f.products(signed, reversed(t))
        weights = f.products(f.products(q0s, self.inv_scales), repeat(f.inv(f.sum(q0s))))
        if n > 1 and f.sum(weights) != 0:
            raise ValidationError("weights fail the identities of 1 / M'(x_i) over the fiber")
        x0, slope = self.points[0], f.products([k % p for k in range(1, n + 1)], fiber_poly[1:])
        if horner(f, fiber_poly, x0) != 0 or f.mul(weights[0], horner(f, slope, x0)) != 1:
            raise ValidationError("fiber polynomial or weights fail at the fiber's first point")
        xs, first, second = self.points, {}, {}
        for i, y in enumerate(f.products(xs, xs)):  # y = x^2 holds x and at most -x
            (second if y in first else first)[y] = i
        ys = [*second, *(y for y in first if y not in second)]
        pos, neg = [first[y] for y in ys], list(second.values())
        return (fiber_poly, weights, ys * 2,
                (pos, [xs[i] for i in pos]), (neg, [xs[i] for i in neg]))

    def _build_kernel(self):
        """engine Levels from each level's points and poles, plus, kept there
        alone, the pole-fiber constants on a full plan: w / u(lambda_t) times
        the pole differences, with w = 1 / lc(Q_r), the value of (tower map *
        reciprocal quadratic * level coordinate) at each level's point at
        infinity (every level numerator is monic)."""
        f = self.field
        w = f.inv(self.scale_const) if self.is_full else None
        kernel = []
        for lv, points in zip(self.levels, self.level_points):
            p, consts = lv.radix, None
            if self.is_full:
                consts = {}
                for t in range(1, p):  # k from p - 1 down to t, one product a step
                    lam_t = lv.poles[t - 1]
                    consts[(t, p - 1)] = val = f.div(w, lv.num.eval(lam_t))
                    for k in range(p - 2, t - 1, -1):
                        consts[(t, k)] = val = f.mul(val, f.sub(lam_t, lv.poles[k]))
            kernel.append(engine.Level(p, points, lv.poles, consts))
        engine.build_forward_locals(f, kernel)
        self.kernel = kernel

    @cached_property
    def mult_route(self):
        """A full plan's conversions' kernel over F_q^*, built on the first:
        (levels, idx), a MultPlan's on the primes of q - 1, largest first, at
        alpha^j (beta = 1), with forward's tables only, so nothing is
        inverted; idx[i] is the j of point i + 1, q - 1 for 0."""
        f = self.field
        radices = sorted((p for p, e in factorize(f.q - 1).items() for _ in range(e)), reverse=True)
        route = MultPlan(f, radices)
        index = {x: j for j, x in enumerate(route.points)}
        return route.kernel, [index.get(x, f.q - 1) for x in self.points[1:]]

    # -- introspection ---------------------------------------------------------

    def pole_sequence(self):
        """The per-level pole lists in cycle order."""
        return [list(lv.poles) for lv in self.levels]

    def example_constants(self):
        """For radix-2 full plans: each level's pole-fiber constant
        w_i / u_i(lambda_i), the one the recursion applies on the fiber over
        the level's pole."""
        if not self.is_full or any(lv.radix != 2 for lv in self.levels):
            return None
        return [lv.pole_consts[(1, 1)] for lv in self.kernel]

    # -- the interface MultPlan and AddPlan share ----------------------------

    def describe(self) -> list:
        lines = [f"cyclic plan: n={self.n} radices={list(self.radices)} "
                 f"m=(a={self.m_coeffs[0]}, b={self.m_coeffs[1]})",
                 f"Q = {poly_str(self.quads[0])}"]
        if self.r:  # a plan without radices has no tower level
            x1 = self.levels[0]
            lines.append(f"x_1 = ({poly_str(x1.num)})/({poly_str(x1.den)})")
        lines += [f"poles per level = {self.pole_sequence()}",
                  f"scale constant = {self.scale_const}"]
        consts = self.example_constants()
        if consts is not None:
            lines.append(f"pole-fiber constants = {consts}")
        lines.append(f"evaluation fiber = {'inf' if self.is_full else self.bucket_key}")
        return lines

    def fft(self, coeffs) -> CyclicEvalVec:
        return q1_fft(self, coeffs)

    def ifft(self, values) -> CoeffVec:
        return q1_ifft(self, values)

    def to_standard(self, coeffs) -> CoeffVec:
        return tilde_to_std(self, coeffs)

    def from_standard(self, coeffs) -> CoeffVec:
        return std_to_tilde(self, coeffs)

    def to_json(self) -> dict:
        out = self.field.serialize_raw
        pole_consts = {f"{i},{t},{k}": out(v) for i, lv in enumerate(self.kernel, start=1)
                       if lv.pole_consts for (t, k), v in sorted(lv.pole_consts.items())}
        return {"radices": list(self.radices), "m": [out(c) for c in self.m_coeffs],
                "fiber": point_out(self.field, self.bucket_key),
                "tables": {
                    "points": [point_out(self.field, v) for v in self.points],
                    "poles": [[out(v) for v in lv.poles] for lv in self.levels],
                    "quads": [[out(c) for c in q.coeffs] for q in self.quads],
                    "level_nums": [[out(c) for c in lv.num.coeffs] for lv in self.levels],
                    "scale_const": out(self.scale_const),
                    "pole_consts": pole_consts,
                }}

    @staticmethod
    def from_json(field: Field, obj) -> "CyclicPlan":
        """The plan of a file; one that stores its fiber and tables starts at
        the stored first point, without searching for the fiber."""
        fiber, tables = obj.get("fiber"), obj.get("tables")
        start = None
        if fiber is not None and isinstance(tables, dict) and "points" in tables:
            points = plan_list(tables, "points")
            start = point_value(field, points[0]) if points else None
        return CyclicPlan(
            field, plan_list(obj, "radices", ints=True),
            m_pair=tuple(field.parse_raw(v) for v in plan_list(obj, "m", length=2)),
            fiber_key=None if fiber is None else point_value(field, fiber), _start=start)

    def __repr__(self):
        return (
            f"CyclicPlan(q={self.field.q}, n={self.n}, radices={self.radices}, "
            f"m={self.m_coeffs}, fiber={'inf' if self.is_full else self.bucket_key})"
        )


def cyclic_plan(field: Field, radices, m_pair=None, fiber_key=None) -> CyclicPlan:
    return CyclicPlan(field, radices, m_pair, fiber_key)


def _level_map(field, induced, p, level):
    """(num, den, poles) of m = T + sum_(t < p) M^t(T) for the level's induced
    map M, from the matrices M^t = (a_t, b_t; c_t, d_t), one product a step.
    c_t != 0 is checked, so the pole M^t(INF) = a_t / c_t is finite, and
    M^t(T) = (a_t T + b_t) / (c_t T + d_t) joins the running sum over the
    common denominator den = prod (T - lambda_t), lambda_t = -d_t / c_t: num
    comes out monic of degree p, den monic of degree p - 1."""
    f = field
    num, den, poles = [0, 1], [1], []
    mt = induced
    for _ in range(p - 1):
        a, b, c, d = mt.entries()
        if c == 0:
            raise SplitValidationFailure(f"level {level} denominator does not split simply")
        ic = f.inv(c)
        poles.append(f.mul(a, ic))
        lin = [f.mul(d, ic), 1]  # T - lambda_t
        num = mul_add(f, num, lin, mul_add(f, den, [f.mul(b, ic), poles[-1]]))
        den = mul_add(f, den, lin)
        mt = mt * induced
    return num, den, poles


def _lift_sigma(field, prev, num, den, level):
    """The Moebius map S with m o prev = S o m, for the level map m = num/den
    (ascending coefficients) and prev, sigma's map one level down: with
    num_L / den_L = m o prev by homogeneous composition, S is the relation
    num_L / den_L = S o m (moebius.relation), read off by Cramer's rule and
    verified on all 2p + 2 coefficient equations.  relation needs both sides
    in lowest terms: m is (_build_tower checks it), and so is m o prev, as a
    Moebius substitution keeps num and den coprime (it is an invertible
    linear change of the homogeneous variables).  The minor it solves at,
    degrees p and p - 1 of m (num monic of degree p, den monic of degree
    p - 1), is 1."""
    p = len(num) - 1
    den = list(den) + [0]  # degree p - 1, read at degree p
    lift = relation(field, homogeneous(field, (num, den), [prev.b, prev.a], [prev.d, prev.c], p),
                    (num, den))
    if lift is None:
        raise NoMoebiusRelation(f"level {level}: sigma does not lift through the level map")
    return lift


def _cycle_log(step, start, target, length):
    """A k with step^k(start) = target, where step moves start round a cycle
    of `length` places, or None: baby-step giant-step, O(sqrt(length)) steps."""
    m = isqrt(length - 1) + 1
    baby = {v: j for j, v in enumerate(step.orbit(start, m))}
    back = step ** -m
    for i in range(m):
        if target in baby:
            return i * m + baby[target]
        target = back(target)
    return None


def _binomials_mod_p(field, n):
    """C(n, k) in field for k = 0..n by Lucas' theorem: the product of
    C(n_i, k_i) over the base-p digits of n and k, zero where some k_i > n_i.
    Each digit d < p gives the row C(d, j) = d! / (j! (d - j)!) from the
    factorials up to d! and one inversion, so all of it is counted field
    work: about 4 muls a point and one inversion per digit."""
    p = field.p
    rows, rest = [], n  # one row per digit of n, least significant first
    while rest:
        rest, d = divmod(rest, p)
        facts = [1]
        for j in range(1, d + 1):
            facts.append(field.mul(facts[-1], j))
        inv_facts = [field.inv(facts[d])]
        for j in range(d, 0, -1):
            inv_facts.append(field.mul(inv_facts[-1], j))
        inv_facts.reverse()  # inv_facts[j] = 1 / j!
        top = field.products(repeat(facts[d]), inv_facts)
        rows.append(field.products(top, reversed(inv_facts)))
    out = []
    for k in range(n + 1):
        entries = []
        for row in rows:
            k, j = divmod(k, p)
            if j >= len(row):
                entries = [0]
                break
            entries.append(row[j])
        out.append(reduce(field.mul, entries))
    return out


def _horner(field, coeffs, xs):
    """g(x) for each x of a list, g with ascending coeffs (at least one), by
    Horner on columns: deg g adds and muls an entry."""
    out = [coeffs[-1]] * len(xs)
    for c in reversed(coeffs[:-1]):
        out = field.add_products(repeat(c), out, xs)
    return out


# ---------------------------------------------------------------------------
# forward / inverse transforms


def q1_fft(plan: CyclicPlan, coeffs) -> CyclicEvalVec:
    f, full = plan.field, plan.is_full
    vals = coeff_values(f, coeffs, BASIS_CYCLIC, plan.n)
    tilde = engine.forward(f, plan.kernel, vals)
    if not full:
        tilde = f.products(tilde, repeat(plan.base_value))
    # the slot at INF is structurally zero; printed convention
    out = tilde[:full] + f.products(tilde[full:], plan.scales[full:])
    return CyclicEvalVec(plan.points, out, tilde, vals[0] if full else None)


def q1_tilde(plan: CyclicPlan, values) -> list:
    """The tilde q1_fft pairs with values in plan point order: value / scale,
    0 at INF.  inv_scales is 1 / (scale * base_value) on a partial plan."""
    f, full = plan.field, plan.is_full
    tilde = [0] * full + f.products(values[full:], plan.inv_scales[full:])
    return tilde if full else f.products(tilde, repeat(plan.base_value))


def q1_ifft(plan: CyclicPlan, values, a0=None) -> CoeffVec:
    """Invert q1_fft.  Accepts the CyclicEvalVec from the forward transform,
    or a value sequence in plan point order (with a0 supplied separately for
    full plans)."""
    f, full = plan.field, plan.is_full
    if isinstance(values, CyclicEvalVec):
        a0 = values.a0 if a0 is None else a0
        values = values.values if list(values.points) == plan.points else point_ordered(
            f, values.as_dict(), plan.points, "'values'", "the vector")
    seq = value_raws(f, values)
    if len(seq) != plan.n:
        raise LengthMismatch(f"expected {plan.n} values, got {len(seq)}")
    if (a0 is None) == full:
        raise ValidationError("full-length inversion needs the carried top coefficient a0"
                              if full else "a partial plan's values carry no a0")
    return _ifft(plan, seq, f.raw(a0) if full else None)


def _ifft(plan: CyclicPlan, seq, a0) -> CoeffVec:
    """q1_ifft past its checks, on n raw values in plan point order and a raw a0."""
    f, full = plan.field, plan.is_full
    tilde = [0] * full + f.products(seq[full:], plan.inv_scales[full:])
    out = engine.inverse(f, plan.kernel, tilde)
    if full:
        out[0] = a0
    return CoeffVec(tuple(out), BASIS_CYCLIC)


# ---------------------------------------------------------------------------
# basis conversions


def tilde_to_std(plan: CyclicPlan, coeffs) -> CoeffVec:
    """Express cyclic-z coefficients in the standard basis: q1_fft gives the
    values y at the finite points, interpolated there inverting nothing once
    the tables are built.

    Full plan: on F_q^* = <alpha>, of order q - 1 = -1 in F_q, the
    interpolant of degree < q - 1 is h_k = -sum_j y(alpha^j) alpha^(-jk), one
    forward of mult_route read backwards after index 0 and negated; through
    0 too it is h + (y(0) - h_0)(1 - x^(q-1)).  The multiple of x^q - x, the
    index-0 basis element, is the a0 that q1_fft carries.

    Partial plan: Lagrange, f = sum y_i w_i M(x) / (x - x_i), on the fiber
    polynomial M and weights w_i = 1 / M'(x_i).  With z = y * w and power
    sums P_e = sum z_i x_i^e, c_k = sum_(j > k) M_j P_(j-1-k); over the
    square classes, P_(2k+r) = sum U_(y,r) y^k with U_(y,r) = sum_(x^2 = y)
    z_x x^r, one column product a k stepping to the next power of y."""
    f = plan.field
    ev = q1_fft(plan, coeffs)
    if plan.is_full:
        levels, idx = plan.mult_route
        ys = [0] * f.q
        for j, y in zip(idx, ev.values[1:]):
            ys[j] = y
        y0 = ys.pop()  # the value at 0
        sums = engine.forward(f, levels, ys)  # sum_j y(alpha^j) alpha^(jk) at k
        h = f.products(sums[:1] + sums[:0:-1], repeat(f.neg(1)))
        out = h + [f.sub(h[0], y0), ev.a0]
        out[0], out[1] = y0, f.sub(out[1], ev.a0)
        return CoeffVec(tuple(out), BASIS_STANDARD)
    fiber_poly, weights, ys, (idx, xs), (neg, neg_xs) = plan.fiber_tables
    z = f.products(ev.values, weights)  # y_i w_i
    u = [z[i] for i in idx]  # U_(y,0) and U_(y,1) at each class's first point,
    v = f.products(u, xs)
    zs = [z[i] for i in neg]  # then at -x, on the pairs that lead ys
    u[:len(zs)] = map(f.add, u, zs)
    v[:len(zs)] = f.add_products(v, zs, neg_xs)
    m, c = len(z), len(ys) // 2
    row, sums = u + v, []
    for e in range(0, m, 2):  # row k: U_(y,r) y^k, r-major, whose r-th block sums to P_(e+r)
        if e:
            row = f.products(row if m - e >= 2 else row[:c], ys)
        sums += [f.sum(row[i:i + c]) for i in range(0, min(m - e, 2) * c, c)]
    out = [0] * plan.n
    for j, mj in enumerate(fiber_poly):
        if j and mj:
            out[:j] = f.add_products(out[:j], sums[j - 1::-1], repeat(mj))
    return CoeffVec(tuple(out), BASIS_STANDARD)


def std_to_tilde(plan: CyclicPlan, coeffs) -> CoeffVec:
    """Express a standard-coefficient polynomial of degree < n in cyclic-z:
    its values at the plan's points, inverted by q1_ifft's _ifft.  A partial
    plan evaluates by Horner at each point.  On a full plan f(0) = a_0, and the
    values on F_q^*, where x^(q-1) = 1, are one forward of mult_route on f
    folded mod x^(q-1) - 1; the index-0 basis element x^q - x vanishes on
    F_q, so its coefficient is the x^q coefficient, passed as a0.
    """
    f = plan.field
    a = standard_values(f, coeffs, plan.n)
    if not plan.is_full:
        g = trim(a)
        return _ifft(plan, [horner(f, g, x) for x in plan.points], None)
    levels, idx = plan.mult_route
    m = f.q - 1
    folded = a[:m]
    for k in range(m, plan.n):
        folded[k % m] = f.add(folded[k % m], a[k])
    ys = engine.forward(f, levels, folded) + [a[0]]  # f(alpha^j), then f(0)
    return _ifft(plan, [0] + [ys[j] for j in idx], a[-1])
