"""The one mixed-radix divide-and-conquer kernel behind all three cases.

A plan describes its tower as a list of Levels.  A length-n evaluation splits
into radix-many subproblems one level up, then recombines them with radix-1
Horner steps per point.  The cases differ only in level data: the fiber
layout (strided for multiplicative and cyclic, contiguous blocks for
additive), the Horner weights (the point itself in the affine cases,
1/(x - pole_j) at step j in the cyclic case), and, on full cyclic plans, the
constants that route the fiber over the level's point at infinity.
"""

from __future__ import annotations

from .errors import LengthMismatch, SingularLocalSystem
from .linalg import invert, mat_vec


class Level:
    """One tower level as the kernel sees it.

    Point t of fiber sq sits at t*t_step + sq*q_step: (nq, 1) for strided
    fibers, (1, p) for blocks.  weights[j][s] is the Horner weight of step j
    at point s and fiber_of[s] the fiber of point s, both None on the pole
    fiber (fiber 0) of a full cyclic level, which alone has pole_consts.
    build_inverse_locals sets inv_locals, one matrix per fiber of fibers().
    """

    __slots__ = ("radix", "size", "t_step", "q_step", "weights", "pole_consts",
                 "fiber_of", "inv_locals")

    def __init__(self, radix, t_step, q_step, weights, pole_consts=None):
        self.radix = radix
        self.size = len(weights[0])
        self.t_step = t_step
        self.q_step = q_step
        self.weights = weights
        self.pole_consts = pole_consts
        self.fiber_of = [None] * self.size
        for sq, points in self.fibers():
            self.fiber_of[points] = [sq] * radix
        self.inv_locals = None

    def fibers(self):
        """(sq, slice of the points of fiber sq) for every fiber the Horner
        steps evaluate: all but the pole fiber of a full cyclic level."""
        span = self.radix * self.t_step
        first = 0 if self.pole_consts is None else 1
        for sq in range(first, self.size // self.radix):
            base = sq * self.q_step
            yield sq, slice(base, base + span, self.t_step)


def forward(field, levels, coeffs, leaf=None, depth=0):
    """Evaluate the coefficient vector at every point of levels[depth]; exact.

    leaf scales the leaves: None passes them through, 0 (full cyclic plans)
    zeroes them, and any other value multiplies them."""
    if depth == len(levels):
        if len(coeffs) != 1:
            raise LengthMismatch(f"{len(coeffs)} coefficients for 1 point")
        if leaf is None:
            return [coeffs[0]]
        return [field.mul(coeffs[0], leaf) if leaf else 0]
    lv = levels[depth]
    if len(coeffs) != lv.size:
        raise LengthMismatch(f"{len(coeffs)} coefficients for {lv.size} points")
    p = lv.radix
    subs = [forward(field, levels, coeffs[k::p], leaf, depth=depth + 1) for k in range(p)]
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


def inverse(field, levels, values, leaf=None, depth=0):
    """Interpolate: the coefficient vector whose forward image is values.

    On full cyclic plans the slot of the top coefficient comes back as None.
    """
    if depth == len(levels):
        if len(values) != 1:
            raise LengthMismatch(f"{len(values)} values for 1 point")
        if leaf is None:
            return [values[0]]
        return [field.div(values[0], leaf) if leaf else None]
    lv = levels[depth]
    if len(values) != lv.size:
        raise LengthMismatch(f"{len(values)} values for {lv.size} points")
    p, t_step, q_step = lv.radix, lv.t_step, lv.q_step
    span = p * t_step
    # the pole fiber of a full cyclic level is skipped: its sub-values, at the
    # level point at infinity, stay 0
    first = 0 if lv.pole_consts is None else 1
    subvals = [[0] * (lv.size // p) for _ in range(p)]
    for sq, local in enumerate(lv.inv_locals, first):
        base = sq * q_step
        sol = mat_vec(field, local, values[base:base + span:t_step])
        for k in range(p):
            subvals[k][sq] = sol[k]
    subc = [inverse(field, levels, subvals[k], leaf, depth=depth + 1) for k in range(p)]
    if lv.pole_consts is not None:
        consts = lv.pole_consts
        recovered = {}
        for k in range(p - 1, 0, -1):
            acc = values[k * t_step]
            for k2 in range(k + 1, p):
                acc = field.sub(acc, field.mul(recovered[k2], consts[(k, k2)]))
            recovered[k] = field.div(acc, consts[(k, k)])
        for k in range(1, p):
            if subc[k][0] is not None:
                raise SingularLocalSystem("pole-fiber slot doubly determined")
            subc[k][0] = recovered[k]
    out = [0] * lv.size
    for k in range(p):
        out[k::p] = subc[k]
    return out


def build_inverse_locals(field, levels):
    """Per level, per evaluated fiber (in Level.fibers order): the inverse of
    the local system whose row for point s is [1, w_0[s], w_0[s] w_1[s], ...],
    the Horner products of the forward step."""
    for lv in levels:
        inv_locals = []
        for _, points in lv.fibers():
            rows = []
            for s in range(lv.size)[points]:
                row, acc = [1], 1
                for w in lv.weights:
                    acc = field.mul(acc, w[s])
                    row.append(acc)
                rows.append(row)
            inv_locals.append(invert(field, rows))
        lv.inv_locals = inv_locals
