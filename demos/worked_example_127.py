"""Walkthrough: the reference q = 127 construction, end to end.

Starting from the primitive quadratic x^2 + 126x + 3, the order-128 map
generates a radix-2 tower of seven levels whose evaluation set is all of
F_127 plus the point at infinity.  The embedded reference tables give a
128-coefficient input and all 128 evaluation pairs; this demo rebuilds the
plan, prints the derived data, and diffs every pair.
"""

from gfft import cyclic_plan, field_make, q1_fft
from gfft.poly import INF, poly_str
from gfft.repro import WORKED_COEFFS, WORKED_VALUES, check_reproduction

field = field_make(127)
plan = cyclic_plan(field, (2,) * 7, m_pair=(126, 3))

print(f"plan: {plan}")
print(f"Q = {poly_str(plan.quads[0])}")
print(f"x_1 = ({poly_str(plan.levels[0].num)}) / ({poly_str(plan.levels[0].den)})")
print(f"poles: {[lv.poles[0] for lv in plan.levels]}")
print(f"scale constant: {plan.scale_const}")
print(f"pole-fiber constants: {plan.example_constants()}")

ev = q1_fft(plan, list(WORKED_COEFFS))
expected = {a: (fv, tv) for a, fv, tv in WORKED_VALUES}
matches = sum(
    (ev.values[i], ev.tilde[i]) == expected["inf" if pt is INF else pt]
    for i, pt in enumerate(ev.points)
)
print(f"evaluation pairs matching the reference table: {matches}/128")

print()
print("full structured diff:")
lines = []
check_reproduction(lines)
for line in lines:
    print(" ", line)
print()
print("note: the reference's printed per-level list (106, 101, 64, 34, 35, 1, 0) "
      "holds points over the level poles, not the pole-fiber constants; "
      "the diff checks each against its own kind.")
