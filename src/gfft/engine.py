"""The one mixed-radix divide-and-conquer kernel behind all three cases.

A plan describes its tower as a list of Levels: radix, points and, in the
cyclic case, poles and (on full plans) pole-fiber constants, and builds the
level points with fiber_levels, which also proves them.  The P_d = p_1...p_d
subproblems at depth d all evaluate at levels[d]'s points, so forward and
inverse recurse once per level, not once per subproblem: each call works on
all P_d subproblems as one length-n vector through the fused, counted column
ops of gf.Field.  The coefficients stay where they are (subproblem r owns
r + P_d*s); values use slices only, in one layout: value s of the subproblem
at position j sits at s*P_d + j, subproblems in digit-reversed order, so
child k is V[k::p] and column t (point t of every fiber of every subproblem)
one contiguous block.  Only the leaves are permuted, by leaf_order.  An
additive plan orders its kernel points so that its fibers fall on this
layout and gathers its public point order from it.

Each level recombines the p children with p-1 Horner steps, whose weights
build_forward_locals derives: the point itself in the affine cases,
1/(x - pole_j) at step j in the cyclic case.  Step k is one column op over
the whole level: child k repeated p times against weight column k spread
over the subproblems.  On full cyclic plans the fiber over each level's
point at infinity goes through the pole-fiber constants, on coefficients
gathered through leaf_order, and the leaves, at the top level's point at
infinity, are 0.

forward and inverse take the same arguments in all three cases.  The inverse
solves each level's local systems in Newton form (local_solve), at the
forward's op count on affine and radix-2 levels and p more ops per fiber on
cyclic levels of radix p > 2.  A plan builds forward's tables; the first
inverse builds the Newton data, and no later call inverts a field element.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, repeat

from .errors import LengthMismatch, SingularLocalSystem, ValidationError
# invert is unused here; perfbench's test_tracer_patches_every_binding_and_restores
# checks that the tracer rebinds it in this module too
from .linalg import invert  # noqa: F401
from .poly import INF

MAX_N = 1 << 20  # the longest transform a plan builds


def check_radices(radices):
    """(radices as a tuple, their product n <= MAX_N).  Each radix must be an
    int, not a bool, and >= 2: a float is refused, not truncated."""
    try:
        radices = tuple(radices)
    except TypeError:
        raise ValidationError(f"radices {radices!r} is not a sequence of integers") from None
    n = 1
    for p in radices:
        if isinstance(p, bool) or not isinstance(p, int) or p < 2:
            raise ValidationError(f"radices must be integers >= 2, got {p!r}")
        n *= p
    if n > MAX_N:
        raise ValidationError(f"transform length {n} beyond the bound 2**20")
    return radices, n


class Level:
    """One tower level as the kernel sees it.

    Point t of fiber sq sits at t*nq + sq (nq = size/p fibers).  With poles
    None the level is affine.  On a full cyclic level, which alone has
    pole_consts {(t, k): c}, fiber 0 lies over the level's point at infinity
    and first is 1: the Horner steps skip it.

    The forward step's local system at point s has rows [1, w_0(s),
    w_0(s) w_1(s), ...], from the Horner weights w_j.  build_forward_locals
    sets weights (w_j at the points of columns 0..p-1, in that order) and
    leaf_order (last level only); the first inverse sets newton (the data of
    local_solve) and inv_diag (the inverse diagonal of the pole system).
    """

    __slots__ = ("radix", "size", "points", "poles", "pole_consts",
                 "first", "weights", "newton", "inv_diag", "leaf_order")

    def __init__(self, radix, points, poles=None, pole_consts=None):
        self.radix = radix
        self.size = len(points)
        self.points = points
        self.poles = poles
        self.pole_consts = pole_consts
        self.first = 0 if pole_consts is None else 1
        self.weights = self.newton = self.inv_diag = self.leaf_order = None

    def column(self, t, P=1):
        """Slice of point t of every fiber the Horner steps evaluate, over P
        subproblems."""
        m = self.size // self.radix * P
        return slice(t * m + self.first * P, (t + 1) * m)

    def store(self, vec, kids):
        """Write the p child vectors kids into vec; as a method, so that
        inverse's frame holds no child while the levels above it run."""
        for k, kid in enumerate(kids):
            vec[k::self.radix] = kid


def spread(col, P):
    """A column of per-point data with each entry P times over, one entry per
    value of the P subproblems at those points; a one-entry column endlessly."""
    if len(col) == 1:
        return repeat(col[0])
    if P == 1:
        return col
    if P > len(col):
        return list(chain.from_iterable(map(repeat, col, repeat(P))))
    out = [None] * (len(col) * P)
    for j in range(P):
        out[j::P] = col
    return out


def fiber_levels(points, radices, step):
    """The point lists of a tower's levels: entry 0 is points, and level i's
    list is step(i, level i-1's list), one value per entry, checked constant
    on each fiber of level i-1 (radix radices[i-1]) and cut to one entry per
    fiber, in the layout of Level.  So a value at entry s of level i is x_i
    at every point of level 0 over it, by induction, at sum(n_(i-1)) calls of
    the level map and not n*r."""
    out = [points]
    for i, p in enumerate(radices, start=1):
        values = step(i, out[-1])
        cut = values[:len(values) // p]
        if values != cut * p:
            raise ValidationError(f"fiber constancy violated at level {i}")
        out.append(cut)
    return out


def forward(field, levels, coeffs, depth=0):
    """Evaluate the coefficient vector at every point of levels[0]; exact.

    The call at depth d returns the values of all P_d subproblems of depth d
    at the points of levels[d], in that level's layout."""
    n = levels[0].size if levels else 1
    if len(coeffs) != n:
        raise LengthMismatch(f"{len(coeffs)} coefficients for {n} points")
    if depth == len(levels):
        if not levels:
            return list(coeffs)
        if levels[-1].pole_consts is not None:
            return [0] * n
        return [coeffs[i] for i in levels[-1].leaf_order]
    lv = levels[depth]
    p, P = lv.radix, n // lv.size
    out = forward(field, levels, coeffs, depth=depth + 1)
    kids = [out[k::p] for k in range(p)]
    if lv.first:  # the pole fiber goes through the constants below
        kids = [kid[P:] for kid in kids]
    acc = kids[-1] * p
    for k in range(p - 2, -1, -1):
        acc = field.add_products(kids[k] * p, acc, spread(lv.weights[k], P))
    if not lv.first:
        return acc
    m, L, nq, order = n // p, len(kids[0]), lv.size // p, levels[-1].leaf_order
    for t in range(p):
        out[t * m + P:(t + 1) * m] = acc[t * L:(t + 1) * L]
    out[:P] = [0] * P  # the level's point at infinity
    # coefficient k of every subproblem, in layout order, for k = 1..p-1
    c_k = [None] + [[coeffs[i] for i in order[k * nq::lv.size]] for k in range(1, p)]
    for t in range(1, p):
        acc = [0] * P
        for k in range(t, p):
            acc = field.add_products(acc, c_k[k], repeat(lv.pole_consts[(t, k)]))
        out[t * m:t * m + P] = acc
    return out


def inverse(field, levels, values, depth=0):
    """Interpolate: the coefficient vector whose forward image is values.

    The call at depth d takes the values of all P_d subproblems of depth d in
    levels[d]'s layout and, below the top call, which copies them, overwrites
    them with the values one level up.  On full cyclic plans the slot of the
    top coefficient comes back as None.
    """
    n = levels[0].size if levels else 1
    if len(values) != n:
        raise LengthMismatch(f"{len(values)} values for {n} points")
    if levels and levels[-1].newton is None:
        build_inverse_locals(field, levels)
    if depth == len(levels):
        if not levels:
            return list(values)
        out = [None] * n
        if levels[-1].pole_consts is None:
            for i, v in zip(levels[-1].leaf_order, values):
                out[i] = v
        return out
    lv = levels[depth]
    p, P, m = lv.radix, n // lv.size, n // lv.radix
    if not depth:  # the levels overwrite one vector in place
        values = list(values)
    pole_values = [values[t * m:t * m + P] for t in range(p)] if lv.first else None
    lv.store(values, local_solve(field, lv, values))
    out = inverse(field, levels, values, depth=depth + 1)
    if lv.pole_consts is not None:
        nq, order, consts = lv.size // p, levels[-1].leaf_order, lv.pole_consts
        recovered = {}
        for k in range(p - 1, 0, -1):
            acc = pole_values[k]
            for k2 in range(k + 1, p):
                acc = field.sub_products(acc, recovered[k2], repeat(consts[(k, k2)]))
            recovered[k] = field.products(acc, repeat(lv.inv_diag[k - 1]))
            slots = order[k * nq::lv.size]
            if any(out[i] is not None for i in slots):
                raise SingularLocalSystem("pole-fiber slot doubly determined")
            for i, v in zip(slots, recovered[k]):
                out[i] = v
    return out


def local_solve(field, lv, values):
    """The p child vectors whose forward image on level lv is values, for the
    len(values) / lv.size subproblems values holds; the pole fiber's
    sub-values, at the level's point at infinity, are 0.

    Divided differences give each fiber's interpolant in Newton form on its
    nodes, and a change of Newton centres rewrites it in the Horner-product
    basis: p(p-1)/2 subs and muls per fiber each, the forward step's count,
    plus p muls on a scaled level.  Each step runs on columns, all fibers of
    all subproblems at once: column t holds point t of every fiber.
    """
    scales, inv_diffs, shifts = lv.newton
    p, P = lv.radix, len(values) // lv.size
    d = [values[lv.column(t, P)] for t in range(p)]
    if scales is not None:
        d = [field.products(col, spread(s, P)) for col, s in zip(d, scales)]
    inv_diffs = iter(inv_diffs)
    for j in range(1, p):
        for i in range(p - 1, j - 1, -1):
            d[i] = field.diff_products(d[i], d[i - 1], spread(next(inv_diffs), P))
    # Horner in the Newton form, e <- d_k + (x - a_k) e, with e kept in the
    # basis N_i of the centres b_i: (x - a_k) N_i = N_(i+1) - (a_k - b_i) N_i
    e = [d[p - 1]]
    for k in range(p - 2, -1, -1):
        e.append(e[-1])
        shift = shifts[k]
        for i in range(len(e) - 2, 0, -1):
            e[i] = field.sub_products(e[i - 1], e[i], spread(shift[i], P))
        e[0] = field.sub_products(d[k], e[0], spread(shift[0], P))
    if scales is not None:
        e.reverse()
    return [[0] * P + col for col in e] if lv.first else e


def build_forward_locals(field, levels):
    """Set forward's tables: each level's Horner weights, the points on an
    affine level and w_j(x) = 1/(x - poles[j]) on a cyclic one, at the points
    off the pole fiber, where a pole or infinity is refused; and the last
    level's leaf_order, whose entry j is the natural index of the coefficient
    at leaf j: each level places child k of the subproblem at j at k + p*j.
    """
    for lv in levels:
        if lv.poles is None:
            lv.weights = [lv.points] * (lv.radix - 1)
        else:
            xs = _column_points(lv)
            if any(x is INF or x in lv.poles for x in xs):
                raise ValidationError("evaluation point collides with a level pole")
            lv.weights = _batch_inverse(field, [[field.sub(x, lam) for x in xs] for lam in lv.poles])
    order = [0]
    for lv in levels:
        P, ks = len(order), range(lv.radix)
        order = [a + P * k for a in order for k in ks]
    if levels:
        levels[-1].leaf_order = order


def build_inverse_locals(field, levels):
    """Set forward's tables (build_forward_locals) if unset, and each level's
    newton data and inv_diag.  The newton data, as columns over the fibers,
    are the scales (or None), the inverses of each fiber's p(p-1)/2 node
    differences, from one batched inversion, a column of one value as that
    one entry, and shifts[k][i] = a_k - b_i for node a_k and centre b_i.

    On an affine or a radix-2 level the rows are monomials in w_0 (the
    radix-2 row is [1, w_0]): the nodes are w_0 and the centres 0.  On a
    cyclic level of radix p > 2 the row at x, scaled by prod_j (x - pole_j),
    is [prod_(j>=k) (x - pole_j)]_k: the Newton basis in x with centres
    pole_(p-2), ..., pole_0, in reverse order.
    """
    if levels and levels[-1].leaf_order is None:
        build_forward_locals(field, levels)
    sub = field.sub
    for lv in levels:
        p = lv.radix
        if lv.pole_consts is not None:
            diag = [lv.pole_consts[(k, k)] for k in range(1, p)]
            if 0 in diag:
                raise SingularLocalSystem("zero diagonal in the pole-fiber system")
            lv.inv_diag = [field.inv(c) for c in diag]
        scaled = lv.poles is not None and p > 2
        nodes, centres = (_column_points(lv), lv.poles[::-1]) if scaled else (lv.weights[0], (0,) * (p - 1))
        L = len(nodes) // p
        a = [nodes[t * L:(t + 1) * L] for t in range(p)]
        shifts = [[col if not b else [sub(x, b) for x in col] for b in centres] for col in a]
        diffs = [list(map(sub, a[i], a[i - j])) for j in range(1, p) for i in range(p - 1, j - 1, -1)]
        scales = [reduce(field.products, row) for row in shifts] if scaled else None
        lv.newton = (scales, [col[:1] if len(set(col)) == 1 else col
                              for col in _batch_inverse(field, diffs)],
                     [row[:p - 1 - k] for k, row in enumerate(shifts[:-1])])


def _column_points(lv):
    """The points the Horner steps of level lv evaluate, column by column."""
    return [x for t in range(lv.radix) for x in lv.points[lv.column(t)]]


def _batch_inverse(field, cols):
    """Entrywise inverses of equal-length columns by one Field.inverses
    (Montgomery's trick): one field inversion and 3(N-1) muls for N entries."""
    flat = [x for col in cols for x in col]
    if not flat:
        return cols
    if 0 in flat:
        raise SingularLocalSystem("repeated node in a local system")
    out = field.inverses(flat)
    m = len(cols[0])
    return [out[i:i + m] for i in range(0, len(out), m)]


def affine(field, nums, dens):
    """The points N/D of the projective pairs (N, D) of two columns, INF
    where D = 0, through one batched inversion of the nonzero D."""
    inv = field.inverses([d for d in dens if d])
    values = iter(field.products([x for x, d in zip(nums, dens) if d], inv))
    return [next(values) if d else INF for d in dens]
