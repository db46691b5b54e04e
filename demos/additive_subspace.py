"""Walkthrough: evaluating on an additive subspace of F_64.

The whole field is an F_2-vector space, so evaluation points form a subspace
chain instead of a subgroup chain.  Coefficients live in the basis of
products of the subspace-vanishing maps ell_i (tag "lch"); a polynomial
given in the standard basis first runs through a cascade of (x^2 - bx)-adic
expansions.
"""

import random

from gfft import add_fft, add_ifft, add_plan, field_make, padic_expand, standard_to_lch
from gfft.oracle import mpe_horner
from gfft.poly import Poly, poly_str

field = field_make(2, 6)
plan = add_plan(field, [1, 2, 4, 8, 16, 32])
print(f"plan: {plan}")
for i, ell in enumerate(plan.lin_polys[:4]):
    print(f"  ell_{i} = {poly_str(ell)}  (vanishes on the {2**i}-point subspace)")

rng = random.Random(3)
coeffs = [rng.randrange(64) for _ in range(64)]

lch = standard_to_lch(plan, coeffs)
values = add_fft(plan, lch)
direct = mpe_horner(Poly(field, coeffs), plan.points)
print(f"standard-basis pipeline matches direct evaluation: {values == direct}")

back = add_ifft(plan, values)
print(f"inverse recovers the lch coefficients: {list(back.values) == list(lch.values)}")

f = Poly(field, [rng.randrange(64) for _ in range(50)])
terms = padic_expand(f, plan.betas[0])
print(f"adic expansion of a degree-{int(f.degree)} polynomial: "
      f"{len(terms)} terms, all of degree < 2: {all(t.degree < 2 for t in terms)}")
