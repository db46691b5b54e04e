"""Cyclic-case transform: evaluation sets carved from the order-(q+1) cycle
of fractional-linear maps, for smooth n | q+1.

A plan builds the subfield tower x_0, x_1, ..., x_r level by level, never
whole: each level map m_i (x_i in x_{i-1}-coordinates) is a degree-p_i
rational function formed from the level's induced Moebius map, and the
induced maps are pushed up the tower through degree-p identities.  Values of
x_r come from composing the level maps projectively, point by point, so no
rational function of degree above 2p is formed and the tower costs
O(q * sum(p_i)) field operations.  The degree-n tower lives in
oracle.cyclic_tower, for the tests.  The finite poles ("lams") of each level
map are extracted by two independent routes, failing loudly on disagreement.
Coefficients live in the "cyclic-z" basis: products of reciprocal linear
factors of the tower coordinates, scaled so the basis spans the polynomials
of degree < n.

The transforms run on the shared kernel in engine.py, with Horner weights
1/(x - pole) per level.  When n = q+1 the evaluation set is every rational
point including infinity; the kernel then routes the fiber over each level's
point at infinity through precomputed constants instead of direct evaluation.
"""

from __future__ import annotations

from . import engine
from .errors import (
    DegreeTooLarge,
    LengthMismatch,
    PrimitivityFailure,
    RadixNotDividing,
    SingularLocalSystem,
    SplitValidationFailure,
    ValidationError,
)
from .gf import Field, find_primitive_quadratic, quadratic_is_irreducible, quadratic_root_order
# invert is unused here; perfbench's test_tracer_patches_every_binding_and_restores
# checks that the tracer rebinds it in this module too
from .linalg import invert, solve  # noqa: F401
from .moebius import MoebiusMap, match_moebius
from .poly import INF, Poly, RatFn, compose_moebius, poly_str
from .vectors import (BASIS_CYCLIC, BASIS_STANDARD, CoeffVec, CyclicEvalVec, coeff_values,
                      plan_list, point_out)


def ratfn_substitute(outer: RatFn, inner: RatFn) -> RatFn:
    """outer(inner(x)) as a reduced rational function.

    The plan build never calls this (it would form the degree-n tower); the
    tests use it to check the level maps against oracle.cyclic_tower.
    """
    field = outer.field
    m = outer.map_degree()
    num_p = [RatFn.constant(field, 1)]
    for _ in range(m):
        num_p.append(num_p[-1] * inner)

    def ev(poly):
        acc = RatFn.constant(field, 0)
        for k in range(m + 1):
            if poly[k]:
                acc = acc + num_p[k] * RatFn.constant(field, poly[k])
        return acc

    return ev(outer.num) / ev(outer.den)


def _quad_substitute_num(quad: Poly, num: Poly, den: Poly) -> Poly:
    """Numerator of quad(num/den) over den^2 for a quadratic quad."""
    return (num * num).scale(quad[2]) + (num * den).scale(quad[1]) + (den * den).scale(quad[0])


class CyclicLevel:
    """Connects the line in x_{i-1} to the line in x_i (radix p_i)."""

    __slots__ = ("radix", "induced", "num", "den", "poles", "wtails", "norm_const",
                 "pole_consts")

    def __init__(self, radix, induced, num, den, poles):
        self.radix = radix
        self.induced = induced
        self.num = num  # u(T), monic of degree radix
        self.den = den  # prod (T - pole), monic of degree radix-1
        self.poles = tuple(poles)
        self.wtails = None  # [prod_{u>k}(T - pole_u)]_k, set at build
        self.norm_const = None
        self.pole_consts = None  # {(t, k): value}, full plans only


class CyclicPlan:
    case = "cyclic"
    basis = BASIS_CYCLIC

    def __init__(self, field: Field, radices, m_pair=None, fiber_key=None):
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
            if len(m_pair) != 2:
                raise ValidationError(f"m_pair must hold two entries (a, b), got {m_pair!r}")
            a, b = f.raws(m_pair)
            if not quadratic_is_irreducible(field, a, b):
                raise PrimitivityFailure("x^2 + a x + b is reducible")
            if quadratic_root_order(field, a, b) != field.q**2 - 1:
                raise PrimitivityFailure("x^2 + a x + b is irreducible but not primitive")
        self.m_coeffs = (a, b)

        self.sigma = MoebiusMap(field, 0, 1, f.neg(b), f.neg(a))
        if self.sigma.order() != field.q + 1:
            raise PrimitivityFailure("companion map does not have order q+1")

        inv_b = f.inv(b)
        quad0 = Poly(field, (inv_b, f.mul(a, inv_b), 1))
        if not quadratic_is_irreducible(field, quad0[1], quad0[0]):
            raise ValidationError("ramified quadratic is reducible")
        self._check_quad_invariance(quad0)
        self.quads = [quad0]

        sizes = [1]
        for p in radices:
            sizes.append(sizes[-1] * p)
        self.subgroup_sizes = sizes  # |G_i|
        self.sizes = [n // s for s in sizes]  # evaluation count at each level

        self._build_tower()
        self._build_quads()
        top = self._build_points(fiber_key)
        self._extract_poles()
        self._build_scaling(top)
        self._build_kernel()

    # -- construction --------------------------------------------------------

    def _check_quad_invariance(self, quad):
        rf = compose_moebius(RatFn.from_poly(quad), self.sigma)
        den_lin = Poly(self.field, (self.sigma.d, self.sigma.c)).monic()
        if rf.num.monic() != quad or rf.den != den_lin * den_lin:
            raise ValidationError("quadratic is not invariant under the cyclic group")

    def _build_tower(self):
        """Each level map m_i = x_i in x_{i-1}-coordinates, at degree p_i.

        x_i is the sum of the translates of x_{i-1} under tau_i, a generator
        of G_i.  Its induced map M (x_{i-1} o tau_i = M o x_{i-1}) is found by
        pushing tau_i up the levels below: if x_{j-1} o tau_i = M o x_{j-1},
        then x_j o tau_i = M' o x_j for the M' with m_j o M = M' o m_j, a
        degree-p_j identity that match_moebius verifies exactly.  With
        m_i = sum_t M^t(T) these identities prove x_i = m_i(x_{i-1}), so the
        degree-|G_i| tower itself is never formed.
        """
        f, q = self.field, self.field.q
        levels, maps = [], []
        for i in range(1, self.r + 1):
            p = self.radices[i - 1]
            induced = self.sigma ** ((q + 1) // self.subgroup_sizes[i])
            for mj in maps:
                induced = match_moebius(compose_moebius(mj, induced), mj)
            mi = RatFn.x(f)
            for t in range(1, p):
                mi = mi + (induced**t).as_ratfn()
            num, den = mi.num, mi.den
            if num.degree != p or not num.is_monic():
                raise ValidationError(f"level {i} map numerator malformed: {num!r}")
            if den.degree != p - 1:
                raise ValidationError(f"level {i} map denominator degree {den.degree}")
            poles = sorted(den.roots())
            if len(poles) != p - 1 or len(set(poles)) != p - 1:
                raise SplitValidationFailure(f"level {i} denominator does not split simply")
            levels.append(CyclicLevel(p, induced, num, den, poles))
            maps.append(mi)
        self.levels = levels

    def tower_values(self, places):
        """Projective values of x_0, ..., x_r at each place: entry i lists
        the pairs (N_i, D_i) in the order of `places`.

        Starts from (alpha, 1), or (1, 0) at INF, and applies each level map
        as (N, D) -> (D^p u(N/D), D^p v(N/D)).  For finite alpha, N_i and D_i
        are the values at alpha of the numerator and denominator of x_i in
        lowest terms, N_i monic of degree |G_i|.
        """
        pairs = [(1, 0) if pl is INF else (self.field.raw(pl), 1) for pl in places]
        out = [pairs]
        for lv in self.levels:
            pairs = _apply_level(self.field, lv, pairs)
            out.append(pairs)
        return out

    def _build_quads(self):
        """Per-level quadratics 1/y_i = Q_i(x_i) and the norm constants
        relating consecutive levels, verified symbolically."""
        f = self.field
        for i in range(1, self.r + 1):
            lv = self.levels[i - 1]
            prev = self.quads[i - 1]
            p = lv.radix
            # product of prev over the induced-map translates of T
            rf = RatFn.constant(f, 1)
            for t in range(p):
                mob = (lv.induced**t).as_ratfn()
                num = _quad_substitute_num(prev, mob.num, mob.den)
                rf = rf * RatFn(f, num, mob.den * mob.den)
            mi = RatFn(f, lv.num, lv.den)
            samples, seen = [], set()
            tval = 0
            while len(samples) < 3:
                if tval >= f.q:
                    raise ValidationError("cannot sample the level map")
                mv = mi.eval_place(tval)
                rv = rf.eval_place(tval)
                if mv is not INF and rv is not INF and mv not in seen:
                    samples.append((mv, rv))
                    seen.add(mv)
                tval += 1
            rows = [[f.mul(mv, mv), mv, 1] for mv, _ in samples]
            c2, c1, c0 = solve(f, rows, [rv for _, rv in samples])
            quad = Poly(f, (c0, c1, c2))
            if quad.degree != 2:
                raise ValidationError(f"level {i} quadratic degenerate")
            # exact verification of the level identity prev^p = c * den^2 * quad(m)
            norm_const = f.div(f.pow(prev.lc(), p), quad.lc())
            lhs = prev**p
            rhs = _quad_substitute_num(quad, lv.num, lv.den).scale(norm_const)
            if lhs != rhs:
                raise ValidationError(f"level {i} norm identity failed")
            monic = quad.monic()
            if not quadratic_is_irreducible(f, monic[1], monic[0]):
                raise ValidationError(f"level {i} quadratic splits; tower corrupted")
            lv.norm_const = norm_const
            self.quads.append(quad)

    def _build_points(self, fiber_key):
        """Bucket every place by its value under x_r, take the chosen fiber
        as the orbit of the order-n map, and check fiber constancy at every
        level.  Returns the projective values of x_r at each alpha in F_q."""
        f, q, n = self.field, self.field.q, self.n
        chains = self.tower_values(range(q))
        top = chains[-1]
        buckets = {}
        for alpha, (num, den) in enumerate(top):
            buckets.setdefault(INF if den == 0 else f.div(num, den), []).append(alpha)
        buckets.setdefault(INF, []).append(INF)  # x_r(INF) = INF: every level map has a pole there
        if len(buckets) != (q + 1) // n or any(len(v) != n for v in buckets.values()):
            raise ValidationError("evaluation fibers do not split evenly")
        self.is_full = n == q + 1
        if self.is_full:
            key = INF
        elif fiber_key is not None:
            key = f.raw(fiber_key)
            if key not in buckets:
                raise ValidationError(f"{fiber_key} is not an evaluation fiber value")
            if key == 0:
                raise ValidationError("the fiber at 0 cannot be rescaled; choose another")
        else:
            finite = sorted(k for k in buckets if k is not INF and k != 0)
            if not finite:
                raise ValidationError("no usable evaluation fiber")
            key = finite[0]
        self.bucket_key = key

        start = INF if self.is_full else min(buckets[key])
        gen = self.sigma ** ((q + 1) // n)
        points = gen.orbit(start, length=n)
        if sorted(map(repr, points)) != sorted(map(repr, buckets[key])):
            raise ValidationError("orbit does not reproduce the evaluation fiber")
        self.points = points

        level_points = [points]
        for i in range(1, self.r + 1):
            lv = self.levels[i - 1]
            mi = RatFn(f, lv.num, lv.den)
            prev = level_points[-1]
            level_points.append([mi.eval_place(prev[s]) for s in range(self.sizes[i])])
        self.level_points = level_points

        # fiber constancy at every level: x_i(points[s]) depends on s mod n_i only
        for i in range(1, self.r + 1):
            nq, values = self.sizes[i], chains[i]
            for s, pt in enumerate(points):
                num, den = (1, 0) if pt is INF else values[pt]
                expected = level_points[i][s % nq]
                if (den != 0 if expected is INF else den == 0 or num != f.mul(expected, den)):
                    raise ValidationError(f"fiber constancy violated at level {i}")

        # the infinity fiber (poles of the full tower map), per level
        if self.is_full:
            self.inf_levels = level_points
        else:
            inf_pts = gen.orbit(INF, length=n)
            inf_levels = [inf_pts]
            for i in range(1, self.r + 1):
                lv = self.levels[i - 1]
                mi = RatFn(f, lv.num, lv.den)
                inf_levels.append([mi.eval_place(v) for v in inf_levels[-1][: self.sizes[i]]])
            self.inf_levels = inf_levels
        return top

    def _extract_poles(self):
        """Cross-validate each level's poles: cycle order read off the point
        sequence vs roots of the level denominator vs induced-map orbit."""
        for i in range(1, self.r + 1):
            lv = self.levels[i - 1]
            nq = self.sizes[i]
            seq = [self.inf_levels[i - 1][t * nq] for t in range(1, lv.radix)]
            if sorted(seq) != list(lv.poles):
                raise SplitValidationFailure(
                    f"level {i} pole sets disagree: orbit {seq} vs denominator {lv.poles}"
                )
            orbit = []
            cur = INF
            for _ in range(lv.radix - 1):
                cur = lv.induced.apply(cur)
                orbit.append(cur)
            if orbit != seq:
                raise SplitValidationFailure(
                    f"level {i} induced-map orbit {orbit} disagrees with point order {seq}"
                )
            lv.poles = tuple(seq)  # cycle order, used by the z-basis
            lv.wtails = _wtails(self.field, seq)

    def _build_scaling(self, top):
        """Scale constant and per-point scales from the values `top` of x_r
        at each alpha in F_q (numerator N monic, as in lowest terms)."""
        f, n = self.field, self.n
        for v in self.inf_levels[0]:
            if v is not INF and top[v][1] != 0:
                raise ValidationError("infinity fiber misidentified")

        self.scale_const = self.quads[self.r].lc()
        if not self.is_full:
            # independent single-point route: product of the quadratic over one orbit
            inf_fiber = set(self.inf_levels[0])
            probe = next(alpha for alpha in range(f.q)
                         if alpha not in inf_fiber and top[alpha][1] != 0)
            gen = self.sigma ** ((f.q + 1) // n)
            prod = 1
            cur = probe
            for _ in range(n):
                prod = f.mul(prod, self.quads[0].eval(cur))
                cur = gen.apply(cur)
            # 1/prod = den(probe)^2 / (c * quad0(probe)^n), so
            # c = den(probe)^2 * prod / quad0(probe)^n
            dval = top[probe][1]
            expected = f.div(f.mul(f.mul(dval, dval), prod), f.pow(self.quads[0].eval(probe), n))
            if expected != self.scale_const:
                raise ValidationError("scale constant disagrees with the orbit product")

        # c Q_0^n = D^2 Q_r(N/D) follows from the per-level norm identities
        # checked in _build_quads; guard it at each point the scales use
        qr = self.quads[self.r]
        scales = []
        for pt in self.points:
            if pt is INF:
                scales.append(None)
                continue
            num, den = top[pt]
            if num == 0:
                raise ValidationError("tower numerator vanishes on an evaluation point")
            cqn = f.mul(self.scale_const, f.pow(self.quads[0].eval(pt), n))
            if cqn != f.add(f.mul(f.add(f.mul(qr[2], num), f.mul(qr[1], den)), num),
                            f.mul(f.mul(qr[0], den), den)):
                raise ValidationError("scale constant fails the tower identity")
            scales.append(f.div(cqn, num))
        self.scales = scales

        if self.is_full:
            self.base_value = 0
        else:
            key = self.bucket_key
            self.base_value = f.div(key, self.quads[self.r].eval(key)) if key else 0
            if self.base_value == 0:
                raise ValidationError("base level value vanishes; fiber unusable")

    def _build_kernel(self):
        f = self.field
        # W chain: value of (tower map * reciprocal quadratic * level coordinate)
        # at each level's point at infinity
        w_chain = [None] * (self.r + 1)
        w_chain[self.r] = f.inv(self.quads[self.r].lc())
        for j in range(self.r - 1, 0, -1):
            w_chain[j] = f.div(w_chain[j + 1], self.levels[j].num.lc())

        kernel = []
        for i in range(1, self.r + 1):
            lv = self.levels[i - 1]
            p = lv.radix
            nq = self.sizes[i]
            pts = self.level_points[i - 1]
            if self.is_full:
                consts = {}
                for t in range(1, p):
                    lam_t = lv.poles[t - 1]
                    u_at = lv.num.eval(lam_t)
                    for k in range(t, p):
                        val = w_chain[i]
                        for u_ in range(k + 1, p):
                            val = f.mul(val, f.sub(lam_t, lv.poles[u_ - 1]))
                        consts[(t, k)] = f.div(val, u_at)
                    if consts[(t, t)] == 0:
                        raise SingularLocalSystem("zero diagonal in the pole-fiber system")
                lv.pole_consts = consts
            # Horner weight of step j at point s: 1/(x_s - pole_j); the pole
            # fiber of a full plan (s % nq == 0) goes through pole_consts
            weights = [[None] * len(pts) for _ in lv.poles]
            for s, xi in enumerate(pts):
                if self.is_full and s % nq == 0:
                    continue
                if xi is INF or xi in lv.poles:
                    raise ValidationError("evaluation point collides with a level pole")
                for col, lam in zip(weights, lv.poles):
                    col[s] = f.inv(f.sub(xi, lam))
            kernel.append(engine.Level(p, nq, 1, weights, lv.pole_consts))
        engine.build_inverse_locals(f, kernel)
        self.kernel = kernel

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
        return [lv.pole_consts[(1, 1)] for lv in self.levels]

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
        pole_consts = {
            f"{i},{t},{k}": out(v)
            for i, lv in enumerate(self.levels, start=1)
            if lv.pole_consts
            for (t, k), v in sorted(lv.pole_consts.items())
        }
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
        fiber = obj.get("fiber")
        return cyclic_plan(
            field, plan_list(obj, "radices", ints=True),
            m_pair=tuple(field.parse_raw(v) for v in plan_list(obj, "m", length=2)),
            fiber_key=None if fiber in (None, "inf") else field.parse_raw(fiber))

    def __repr__(self):
        return (
            f"CyclicPlan(q={self.field.q}, n={self.n}, radices={self.radices}, "
            f"m={self.m_coeffs}, fiber={'inf' if self.is_full else self.bucket_key})"
        )


def cyclic_plan(field: Field, radices, m_pair=None, fiber_key=None) -> CyclicPlan:
    return CyclicPlan(field, radices, m_pair, fiber_key)


def _apply_level(field, lv, pairs):
    """The level map u/v on projective pairs: (N, D) -> (D^p u(N/D), D^p v(N/D)),
    by homogeneous Horner; u is monic of degree p, v monic of degree p - 1."""
    p = lv.radix
    ucs, vcs = lv.num.coeffs, lv.den.coeffs
    out = []
    if field.r == 1:
        mod = field.p
        for num, den in pairs:
            u, v, dk = 1, 1, 1
            for k in range(p - 1, -1, -1):
                dk = dk * den % mod
                u = (u * num + ucs[k] * dk) % mod
                if k:
                    v = (v * num + vcs[k - 1] * dk) % mod
            out.append((u, v * den % mod))
        ctr = field._counter
        if ctr is not None:  # as the extension branch counts
            ctr.muls += (5 * p - 1) * len(pairs)
            ctr.adds += (2 * p - 1) * len(pairs)
        return out
    mul, add = field.mul, field.add
    for num, den in pairs:
        u, v, dk = 1, 1, 1
        for k in range(p - 1, -1, -1):
            dk = mul(dk, den)
            u = add(mul(u, num), mul(ucs[k], dk))
            if k:
                v = add(mul(v, num), mul(vcs[k - 1], dk))
        out.append((u, mul(v, den)))
    return out


def _wtails(field, poles):
    """wtails[k] = prod_{u > k} (T - pole_u), k = 0..len(poles)."""
    tails = [Poly.one(field)]
    for lam in reversed(poles):
        tails.append(tails[-1] * Poly(field, (field.neg(lam), 1)))
    tails.reverse()
    return tails


# ---------------------------------------------------------------------------
# forward / inverse transforms


def q1_fft(plan: CyclicPlan, coeffs) -> CyclicEvalVec:
    vals = coeff_values(plan.field, coeffs, BASIS_CYCLIC, plan.n)
    tilde = engine.forward(plan.field, plan.kernel, vals, plan.base_value)
    f = plan.field
    out = []
    for idx, pt in enumerate(plan.points):
        if pt is INF:
            out.append(tilde[idx])  # structurally zero; printed convention
        else:
            out.append(f.mul(plan.scales[idx], tilde[idx]))
    a0 = vals[0] if plan.is_full else None
    return CyclicEvalVec(plan.points, out, tilde, a0)


def q1_ifft(plan: CyclicPlan, values, a0=None) -> CoeffVec:
    """Invert q1_fft.  Accepts the CyclicEvalVec from the forward transform,
    or a value sequence in plan point order (with a0 supplied separately for
    full plans)."""
    if isinstance(values, CyclicEvalVec):
        a0 = values.a0 if a0 is None else a0
        seq = list(values.values)
        if list(values.points) != list(plan.points):
            lookup = values.as_dict()
            seq = [lookup[pt] for pt in plan.points]
    else:
        seq = list(values)
    if len(seq) != plan.n:
        raise LengthMismatch(f"expected {plan.n} values, got {len(seq)}")
    f = plan.field
    seq = f.raws(seq)
    tilde = []
    for idx, pt in enumerate(plan.points):
        if pt is INF:
            tilde.append(0)
        else:
            tilde.append(f.div(seq[idx], plan.scales[idx]))
    out = engine.inverse(f, plan.kernel, tilde, plan.base_value)
    if plan.is_full:
        if a0 is None:
            raise ValidationError(
                "full-length inversion needs the carried top coefficient a0"
            )
        out[0] = f.raw(a0)
    return CoeffVec(tuple(out), BASIS_CYCLIC)


# ---------------------------------------------------------------------------
# basis conversions


def tilde_to_std(plan: CyclicPlan, coeffs) -> CoeffVec:
    """Expand cyclic-z coefficients to standard polynomial coefficients."""
    vals = coeff_values(plan.field, coeffs, BASIS_CYCLIC, plan.n)
    poly = _expand(plan, 0, vals)
    if poly.degree >= plan.n:
        raise ValidationError("basis expansion exceeded the degree bound")
    out = list(poly.coeffs) + [0] * (plan.n - len(poly.coeffs))
    return CoeffVec(tuple(out), BASIS_STANDARD)


def _expand(plan, depth, vals):
    f = plan.field
    if depth == plan.r:
        return Poly.constant(f, vals[0])
    lv = plan.levels[depth]
    p = lv.radix
    nsub = plan.sizes[depth + 1]
    U, V = lv.num, lv.den
    vpow = [Poly.one(f)]
    for _ in range(nsub - 1):
        vpow.append(vpow[-1] * V)
    total = Poly.zero(f)
    for k in range(p):
        g = _expand(plan, depth + 1, vals[k::p])
        acc = Poly.constant(f, g[nsub - 1])
        for t in range(nsub - 2, -1, -1):
            acc = acc * U + vpow[nsub - 1 - t].scale(g[t])
        total = total + lv.wtails[k] * acc
    return total


def std_to_tilde(plan: CyclicPlan, coeffs) -> CoeffVec:
    """Express a standard-coefficient polynomial of degree < n in cyclic-z.

    The transform maps cyclic-z coefficients bijectively onto values at the
    plan's points, so the polynomial is evaluated there (Horner) and the
    values are inverted through the kernel.  On a full plan the slot at
    infinity is unused: the index-0 basis element x^q - x vanishes on F_q, so
    its coefficient is the x^q coefficient, passed as a0.
    """
    if isinstance(coeffs, Poly):
        vals = list(coeffs.coeffs)
    else:
        vals = coeff_values(plan.field, coeffs, BASIS_STANDARD)
    if len(vals) > plan.n:
        raise DegreeTooLarge(f"degree must be < {plan.n}")
    poly = Poly(plan.field, vals)
    values = [0 if pt is INF else poly.eval(pt) for pt in plan.points]
    return q1_ifft(plan, values, poly[plan.n - 1] if plan.is_full else None)
