"""Brute-force reference implementations the fast paths are tested against.

Nothing here shares code with the transform recursions beyond the gf/poly
primitives: multipoint evaluation is plain Horner, interpolation is textbook
Lagrange, basis conversion goes through a dense basis matrix whose
columns are expanded directly from point-set data, and the cyclic subfield
tower is built symbolically from the order-(q+1) map, not from the plan's
level maps.
"""

from __future__ import annotations

from .errors import DuplicatePoint, SingularMatrix, ValidationError
from .gf import _digits
from .linalg import invert, mat_vec
from .poly import INF, Poly, RatFn, compose_moebius, lagrange_basis_interpolate
from .vectors import BASIS_CYCLIC, BASIS_LCH, BASIS_STANDARD

DENSE_LIMIT = 4096


def mpe_horner(f, points):
    """Values of f at each point; INF-aware for rational functions and for
    polynomials at the infinite place."""
    out = []
    for pt in points:
        if isinstance(f, RatFn):
            out.append(f.eval_place(pt))
        elif pt is INF:
            if f.degree >= 1:
                out.append(INF)
            else:
                out.append(f[0])
        else:
            out.append(f.eval(pt))
    return out


def lagrange_interpolate(field, points, values) -> Poly:
    """Unique interpolant of degree < len(points) through finite points."""
    if any(pt is INF for pt in points):
        raise DuplicatePoint("interpolation needs finite points")
    if len(set(points)) != len(points):
        raise DuplicatePoint("interpolation points must be distinct")
    return lagrange_basis_interpolate(field, points, values)


class BasisMatrix:
    """Dense n x n change of basis: column e holds the standard coefficients
    of the plan's e-th basis polynomial.  The O(n^3) inverse is made on the
    first solve, so a check through apply alone stays O(n^2)."""

    def __init__(self, field, columns):
        n = len(columns)
        if n > DENSE_LIMIT:
            raise ValidationError(f"dense basis matrix beyond the {DENSE_LIMIT} budget")
        self.field = field
        self.n = n
        self.matrix = [[columns[j][i] for j in range(n)] for i in range(n)]
        self._inverse = None

    def apply(self, vec):
        """Basis coefficients -> standard coefficients."""
        return mat_vec(self.field, self.matrix, list(vec))

    def solve(self, vec):
        """Standard coefficients -> basis coefficients."""
        if self._inverse is None:
            try:
                self._inverse = invert(self.field, self.matrix)
            except SingularMatrix:
                raise SingularMatrix("basis matrix singular; plan corrupted")
        return mat_vec(self.field, self._inverse, list(vec))


def basis_matrix(plan) -> BasisMatrix:
    columns = {BASIS_STANDARD: _standard_columns, BASIS_LCH: _add_columns,
               BASIS_CYCLIC: _cyclic_columns}[plan.basis]
    return BasisMatrix(plan.field, columns(plan))


def _standard_columns(plan):
    return [[1 if i == j else 0 for i in range(plan.n)] for j in range(plan.n)]


def _add_columns(plan):
    field = plan.field
    cols = []
    for e in range(plan.n):
        basis_poly = Poly.one(field)
        for i, d in enumerate(_digits(e, field.p, plan.r)):
            if d:
                basis_poly = basis_poly * (plan.lin_polys[i] ** d)
        cols.append([basis_poly[i] for i in range(plan.n)])
    return cols


def cyclic_tower(plan, top=None) -> list:
    """x_0 = x, x_1, ..., x_top (default x_r) as rational functions of x:
    x_i is the sum of the translates of x_{i-1} under tau_i, a generator of
    G_i.  x_i has degree |G_i|, so this costs dense products of degree up
    to n."""
    field, q = plan.field, plan.field.q
    top = plan.r if top is None else top
    tower = [RatFn.x(field)]
    for size, p in zip(plan.subgroup_sizes[1:top + 1], plan.radices):
        tau = plan.sigma ** ((q + 1) // size)
        acc = cur = tower[-1]
        for _ in range(1, p):
            cur = compose_moebius(cur, tau)
            acc = acc + cur
        tower.append(acc)
    return tower


def _cyclic_columns(plan):
    """Columns from point-set data: the product over the infinity fiber,
    divided by each selected pole fiber and multiplied by each level's own
    pole set.  Independent of the plan's level-map composition route."""
    field = plan.field
    tower = cyclic_tower(plan, plan.r - 1)
    inf_finite = [v for v in plan.gen.orbit(INF, plan.n) if v is not INF]
    d_inf = Poly.from_roots(field, inf_finite)
    # per level i (0-based): points of the infinity fiber sorted by their
    # value under x_{i}: the fiber polynomials of each pole, and of infinity
    fiber_polys = []
    pole_fiber_at_inf = []
    for i in range(plan.r):
        xi = tower[i]
        by_value = {}
        for alpha in inf_finite:
            by_value.setdefault(xi.eval_place(alpha), []).append(alpha)
        lv = plan.levels[i]
        fiber_polys.append(
            [Poly.from_roots(field, by_value[lam]) for lam in lv.poles]
        )
        pole_fiber_at_inf.append(Poly.from_roots(field, by_value.get(INF, [])))
    cols = []
    for e in range(plan.n):
        digits = []
        v = e
        for lv in plan.levels:
            v, d = divmod(v, lv.radix)
            digits.append(d)
        col = d_inf
        for i, d in enumerate(digits):
            for s in range(d):
                q, rem = divmod(col, fiber_polys[i][s])
                if not rem.is_zero():
                    raise ValidationError("basis column does not clear its denominator")
                col = q
            if d:
                col = col * (pole_fiber_at_inf[i] ** d)
        cols.append([col[i] for i in range(plan.n)])
    return cols
