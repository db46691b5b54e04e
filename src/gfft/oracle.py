"""Brute-force reference implementations the fast paths are tested against.

Nothing here shares code with the transform recursions beyond the gf/poly
primitives: multipoint evaluation is plain Horner, interpolation is textbook
Lagrange, basis conversion goes through a dense basis matrix whose
columns are expanded directly from point-set data, and the cyclic columns
take each fiber of the subfield tower as an orbit of a subgroup of the
order-(q+1) cycle, not from the plan's level maps.
"""

from __future__ import annotations

from .errors import DuplicatePoint, SingularMatrix, ValidationError
from .gf import _digits
from .linalg import invert, mat_vec
from .poly import INF, Poly, RatFn, lagrange_basis_interpolate
from .vectors import BASIS_CYCLIC, BASIS_LCH, BASIS_STANDARD

DENSE_LIMIT = 4096


def mpe_horner(f, points):
    """Values of f at each point; INF-aware for rational functions and for
    polynomials at the infinite place."""
    out = []
    for pt in points:
        if pt is INF and not isinstance(f, RatFn):
            out.append(INF if f.degree >= 1 else f[0])
        else:
            out.append(f(pt))
    return out


def lagrange_interpolate(field, points, values) -> Poly:
    """Unique interpolant of degree < len(points) through finite points."""
    if any(pt is INF for pt in points):
        raise DuplicatePoint("interpolation needs finite points")
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


def _cyclic_fibers(plan):
    """Per level i < r, the places of the infinity fiber over INF (entry 0)
    and over each pole of level i + 1 (entry t, pole t - 1) of x_i, from
    group data alone: the fiber of x_i through a place is its orbit under
    G_i, generated by gen^(sizes[i]) = sigma^((q+1)/|G_i|), and the t-th
    pole of level i + 1 is x_i at tau^t(INF) for tau = gen^(sizes[i+1]), a
    generator of G_(i+1)."""
    fibers = []
    for i, size in enumerate(plan.subgroup_sizes[:plan.r]):
        g_i, tau = plan.gen ** plan.sizes[i], plan.gen ** plan.sizes[i + 1]
        fibers.append([g_i.orbit(start, size) for start in tau.orbit(INF, plan.radices[i])])
    return fibers


def _cyclic_columns(plan):
    """Columns from point-set data: the product over the infinity fiber,
    divided by each selected pole fiber and multiplied by each level's fiber
    over INF.  Independent of the plan's level maps and pole values."""
    field = plan.field
    d_inf = Poly.from_roots(field, plan.gen.orbit(INF, plan.n)[1:])  # the orbit starts at INF
    fiber_polys = [[Poly.from_roots(field, [v for v in places if v is not INF]) for places in level]
                   for level in _cyclic_fibers(plan)]
    cols = []
    for e in range(plan.n):
        col, v = d_inf, e
        for polys, p in zip(fiber_polys, plan.radices):
            v, d = divmod(v, p)  # the mixed-radix digits of e, level 0 first
            for s in range(1, d + 1):
                q, rem = divmod(col, polys[s])
                if not rem.is_zero():
                    raise ValidationError("basis column does not clear its denominator")
                col = q
            if d:
                col = col * (polys[0] ** d)
        cols.append([col[i] for i in range(plan.n)])
    return cols
