"""The one mixed-radix divide-and-conquer kernel behind all three cases.

A plan describes its tower as a list of Levels: radix, fiber layout, points
and, in the cyclic case, poles and (on full plans) pole-fiber constants.  A
length-n evaluation splits into radix-many subproblems one level up, then
recombines them with radix-1 Horner steps per point, whose weights
build_inverse_locals derives: the point itself in the affine cases,
1/(x - pole_j) at step j in the cyclic case.  On full cyclic plans the fiber
over each level's point at infinity goes through the pole-fiber constants,
and the leaves, at the top level's point at infinity, are 0.

forward and inverse take the same arguments in all three cases and invert no
field element.  The inverse solves each level's local systems in Newton form
(local_solve), at the forward's op count on affine and radix-2 levels and p
more ops per fiber on cyclic levels of radix p > 2.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate

from .errors import LengthMismatch, SingularLocalSystem, ValidationError
# invert is unused here; perfbench's test_tracer_patches_every_binding_and_restores
# checks that the tracer rebinds it in this module too
from .linalg import invert  # noqa: F401
from .poly import INF

MAX_N = 1 << 20  # the longest transform a plan builds


def check_radices(radices):
    """(radices as a tuple, their product n <= MAX_N).  Each radix must be an
    int, not a bool, and >= 2: a float is refused, not truncated."""
    radices = tuple(radices)
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

    Point t of fiber sq sits at t*t_step + sq*q_step: (nq, 1) for strided
    fibers, (1, p) for blocks.  With poles None the level is affine.  On a
    full cyclic level, which alone has pole_consts {(t, k): c}, fiber 0 lies
    over the level's point at infinity: fiber_of[s] is None on it, and
    fiber_of[s] is the fiber of point s elsewhere.

    The forward step's local system at point s has rows [1, w_0[s],
    w_0[s] w_1[s], ...], from the Horner weights w_j = weights[j].
    build_inverse_locals sets weights, newton (the data of local_solve) and
    inv_diag (the inverse diagonal of the pole-fiber system).
    """

    __slots__ = ("radix", "size", "t_step", "q_step", "points", "poles", "pole_consts",
                 "first", "fiber_of", "weights", "newton", "inv_diag")

    def __init__(self, radix, t_step, q_step, points, poles=None, pole_consts=None):
        self.radix = radix
        self.size = len(points)
        self.t_step = t_step
        self.q_step = q_step
        self.points = points
        self.poles = poles
        self.pole_consts = pole_consts
        self.first = 0 if pole_consts is None else 1
        self.fiber_of = [None] * self.size
        for sq, fiber in self.fibers():
            self.fiber_of[fiber] = [sq] * radix
        self.weights = self.newton = self.inv_diag = None

    def fibers(self):
        """(sq, slice of the points of fiber sq) for every fiber the Horner
        steps evaluate: all but the pole fiber of a full cyclic level."""
        span = self.radix * self.t_step
        for sq in range(self.first, self.size // self.radix):
            base = sq * self.q_step
            yield sq, slice(base, base + span, self.t_step)

    def column(self, t):
        """Slice of point t of every fiber the Horner steps evaluate, in
        fiber order: contiguous on strided levels, stride p on blocks."""
        start = t * self.t_step + self.first * self.q_step
        count = self.size // self.radix - self.first
        return slice(start, start + count * self.q_step, self.q_step)


def forward(field, levels, coeffs, depth=0):
    """Evaluate the coefficient vector at every point of levels[depth]; exact."""
    if depth == len(levels):
        if len(coeffs) != 1:
            raise LengthMismatch(f"{len(coeffs)} coefficients for 1 point")
        return [0 if depth and levels[-1].pole_consts is not None else coeffs[0]]
    lv = levels[depth]
    if len(coeffs) != lv.size:
        raise LengthMismatch(f"{len(coeffs)} coefficients for {lv.size} points")
    p = lv.radix
    subs = [forward(field, levels, coeffs[k::p], depth=depth + 1) for k in range(p)]
    add, mul = field.add, field.mul
    out = [0] * lv.size
    if lv.pole_consts is not None:
        consts = lv.pole_consts
        for t in range(1, p):
            acc = 0
            for k in range(t, p):
                acc = add(acc, mul(coeffs[k], consts[(t, k)]))
            out[t * lv.t_step] = acc
    top = subs[p - 1]
    steps = list(zip(lv.weights[::-1], subs[p - 2::-1]))
    for s, sq in enumerate(lv.fiber_of):
        if sq is None:
            continue
        acc = top[sq]
        for w, sub in steps:
            acc = add(sub[sq], mul(acc, w[s]))
        out[s] = acc
    return out


def inverse(field, levels, values, depth=0):
    """Interpolate: the coefficient vector whose forward image is values.

    On full cyclic plans the slot of the top coefficient comes back as None.
    """
    if depth == len(levels):
        if len(values) != 1:
            raise LengthMismatch(f"{len(values)} values for 1 point")
        return [None if depth and levels[-1].pole_consts is not None else values[0]]
    lv = levels[depth]
    if len(values) != lv.size:
        raise LengthMismatch(f"{len(values)} values for {lv.size} points")
    p = lv.radix
    subvals = local_solve(field, lv, values)
    subc = [inverse(field, levels, subvals[k], depth=depth + 1) for k in range(p)]
    if lv.pole_consts is not None:
        consts = lv.pole_consts
        recovered = {}
        for k in range(p - 1, 0, -1):
            acc = values[k * lv.t_step]
            for k2 in range(k + 1, p):
                acc = field.sub(acc, field.mul(recovered[k2], consts[(k, k2)]))
            recovered[k] = field.mul(acc, lv.inv_diag[k - 1])
        for k in range(1, p):
            if subc[k][0] is not None:
                raise SingularLocalSystem("pole-fiber slot doubly determined")
            subc[k][0] = recovered[k]
    out = [0] * lv.size
    for k in range(p):
        out[k::p] = subc[k]
    return out


def local_solve(field, lv, values):
    """The p sub-value vectors whose forward image on level lv is values; the
    pole fiber's sub-values, at the level's point at infinity, are 0.

    Divided differences give each fiber's interpolant in Newton form on its
    nodes, and a change of Newton centres rewrites it in the Horner-product
    basis: p(p-1)/2 subs and muls per fiber each, the forward step's count,
    plus p muls on a scaled level.  Each step runs on columns, all fibers at
    once: column t holds point t of every fiber.
    """
    sub, mul = field.sub, field.mul
    scales, inv_diffs, shifts = lv.newton
    p = lv.radix
    d = [values[lv.column(t)] for t in range(p)]
    if scales is not None:
        d = [list(map(mul, col, s)) for col, s in zip(d, scales)]
    inv_diffs = iter(inv_diffs)
    for j in range(1, p):
        for i in range(p - 1, j - 1, -1):
            d[i] = list(map(mul, map(sub, d[i], d[i - 1]), next(inv_diffs)))
    # Horner in the Newton form, e <- d_k + (x - a_k) e, with e kept in the
    # basis N_i of the centres b_i: (x - a_k) N_i = N_(i+1) - (a_k - b_i) N_i
    e = [d[p - 1]]
    for k in range(p - 2, -1, -1):
        e.append(e[-1])
        shift = shifts[k]
        for i in range(len(e) - 2, 0, -1):
            e[i] = list(map(sub, e[i - 1], map(mul, shift[i], e[i])))
        e[0] = list(map(sub, d[k], map(mul, shift[0], e[0])))
    if scales is not None:
        e.reverse()
    return [[0] + col for col in e] if lv.first else e


def build_inverse_locals(field, levels):
    """Set each level's weights, newton data and inv_diag.

    The Horner weights are the points on an affine level and w_j[s] =
    1/(points[s] - poles[j]) on a cyclic one, None on the pole fiber; a
    point on another fiber that is a pole or infinity is refused.  The newton
    data, as columns over the fibers, are the scales (or None), the inverses
    of each fiber's p(p-1)/2 node differences, from one batched inversion,
    and shifts[k][i] = a_k - b_i for node a_k and centre b_i.

    On an affine or a radix-2 level the rows are monomials in w_0 (the
    radix-2 row is [1, w_0]): the nodes are w_0 and the centres 0.  On a
    cyclic level of radix p > 2 the row at x, scaled by prod_j (x - pole_j),
    is [prod_(j>=k) (x - pole_j)]_k: the Newton basis in x with centres
    pole_(p-2), ..., pole_0, in reverse order.
    """
    sub, mul = field.sub, field.mul
    for lv in levels:
        p = lv.radix
        if lv.poles is None:
            lv.weights = [lv.points] * (p - 1)
        else:
            live = [s for s, sq in enumerate(lv.fiber_of) if sq is not None]
            xs = [lv.points[s] for s in live]
            if any(x is INF or x in lv.poles for x in xs):
                raise ValidationError("evaluation point collides with a level pole")
            lv.weights = [[None] * lv.size for _ in lv.poles]
            inv = _batch_inverse(field, [[sub(x, lam) for x in xs] for lam in lv.poles])
            for col, inv_col in zip(lv.weights, inv):
                for s, w in zip(live, inv_col):
                    col[s] = w
        if lv.pole_consts is not None:
            diag = [lv.pole_consts[(k, k)] for k in range(1, p)]
            if 0 in diag:
                raise SingularLocalSystem("zero diagonal in the pole-fiber system")
            lv.inv_diag = [field.inv(c) for c in diag]
        scaled = lv.poles is not None and p > 2
        nodes, centres = (lv.points, lv.poles[::-1]) if scaled else (lv.weights[0], (0,) * (p - 1))
        a = [nodes[lv.column(t)] for t in range(p)]
        shifts = [[col if not b else [sub(x, b) for x in col] for b in centres] for col in a]
        diffs = [list(map(sub, a[i], a[i - j])) for j in range(1, p) for i in range(p - 1, j - 1, -1)]
        scales = [reduce(lambda u, v: list(map(mul, u, v)), row) for row in shifts] if scaled else None
        lv.newton = (scales, _batch_inverse(field, diffs),
                     [row[:p - 1 - k] for k, row in enumerate(shifts[:-1])])


def _batch_inverse(field, cols):
    """Entrywise inverses of equal-length columns by Montgomery's trick: one
    field inversion and 3(N-1) muls for N entries."""
    flat = [x for col in cols for x in col]
    if not flat:
        return cols
    if 0 in flat:
        raise SingularLocalSystem("repeated node in a local system")
    mul = field.mul
    prefix = list(accumulate(flat, mul))
    inv = field.inv(prefix[-1])
    out = [0] * len(flat)
    for i in range(len(flat) - 1, 0, -1):
        out[i] = mul(inv, prefix[i - 1])
        inv = mul(inv, flat[i])
    out[0] = inv
    m = len(cols[0])
    return [out[i:i + m] for i in range(0, len(out), m)]
