"""Walkthrough: the cyclic case, where neither q-1 nor q needs to be smooth.

Over F_23 we have q+1 = 24 = 2^3 * 3.  The evaluation set is an orbit of a
fractional-linear map of order 24; the tower coordinates x_i are rational
functions rather than polynomials, and the coefficient basis pairs each
mixed-radix digit with reciprocal linear factors of the tower maps.
"""

import random

from gfft import cyclic_plan, field_make, q1_fft, q1_ifft, tilde_to_std
from gfft.poly import INF, Poly, poly_str

field = field_make(23)
plan = cyclic_plan(field, (2, 2, 2, 3))
print(f"plan: {plan}")
print(f"order-24 map: {plan.sigma}")
print(f"ramified quadratic Q = {poly_str(plan.quads[0])}")
print(f"x_1 = ({poly_str(plan.levels[0].num)}) / ({poly_str(plan.levels[0].den)})")
print(f"poles per level: {plan.pole_sequence()}")
print(f"evaluation points (orbit order): {plan.points}")

rng = random.Random(5)
coeffs = [rng.randrange(23) for _ in range(24)]

ev = q1_fft(plan, coeffs)
std = tilde_to_std(plan, coeffs)
f = Poly(field, list(std.values))
agree = all(v == (0 if pt is INF else f.eval(pt)) for pt, v in zip(ev.points, ev.values))
print(f"values match direct evaluation of the converted polynomial: {agree}")
print(f"slot at infinity: {ev.inf_value} (always 0; the top coefficient "
      f"a0 = {ev.a0} rides along to keep the transform invertible)")

back = q1_ifft(plan, ev)
print(f"inverse recovers the coefficients exactly: {list(back.values) == coeffs}")

with field.count_ops() as ctr:
    q1_fft(plan, coeffs)
print(f"forward transform cost: {ctr.adds} adds, {ctr.muls} muls, {ctr.invs} invs")
