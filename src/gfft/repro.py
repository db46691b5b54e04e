"""Golden reproduction of the worked q = 127 construction.

The fixtures below are the published worked example for the cyclic case:
the coefficient vector (cyclic-z basis, mixed-radix index order) and the 128
evaluation pairs (f, f_scaled) keyed by evaluation point, with "inf" for the
point at infinity.  check_reproduction() rebuilds the plan from
m(x) = x^2 + 126x + 3 and diffs every derived quantity and every evaluation
pair, returning a structured report.
"""

from __future__ import annotations

from .cfft import cyclic_plan, q1_fft
from .gf import field_make
from .oracle import cyclic_tower
from .poly import INF, Poly

FIELD_P = 127
RADICES = (2, 2, 2, 2, 2, 2, 2)
M_PAIR = (126, 3)

EXPECTED_QUAD = (85, 42, 1)  # x^2 + 42x + 85, ascending
EXPECTED_POLES = (106, 85, 43, 86, 45, 90, 53)
# The paper's printed per-level list.  Entry i is a point in x-coordinates
# over level i's pole: the level maps m_1, ..., m_{i-1} carry it, finitely,
# onto EXPECTED_POLES[i-1].  Level i has 2^(i-1) such points; which one the
# paper meant to print is not settled by the published data, so only
# membership is checked.
PUBLISHED_LEVEL_CONSTANTS = (106, 101, 64, 34, 35, 1, 0)
# The pole-fiber constant w_i / u_i(lambda_i) of each level, as returned by
# CyclicPlan.example_constants().  Established from the published tables:
# with the other six levels held fixed, sweeping one level's constant over
# all of F_127 leaves exactly one value that reproduces all 128 pairs of
# WORKED_VALUES, and these are those values.
TABLE_LEVEL_CONSTANTS = (54, 77, 51, 108, 27, 102, 89)
EXPECTED_X1 = ((42, 0, 1), (21, 1))  # (x^2 + 42) / (x + 21)
EXPECTED_SCALE_CONST = 100

WORKED_COEFFS = (
    15, 4, 37, 109, 3, 87, 116, 18, 10, 90, 73, 51, 92, 66, 121, 86,
    70, 13, 21, 95, 29, 122, 78, 122, 78, 41, 26, 49, 44, 66, 19, 66,
    40, 121, 81, 3, 116, 4, 50, 40, 121, 85, 25, 66, 38, 55, 42, 98,
    37, 116, 15, 49, 33, 100, 86, 120, 104, 61, 114, 0, 10, 17, 68, 91,
    81, 98, 124, 44, 5, 23, 119, 115, 25, 73, 10, 113, 17, 91, 11, 86,
    118, 8, 31, 63, 32, 21, 62, 77, 51, 90, 53, 89, 48, 97, 11, 15,
    77, 8, 64, 63, 7, 62, 55, 92, 116, 116, 118, 53, 80, 39, 47, 84,
    53, 100, 4, 97, 40, 106, 108, 39, 107, 25, 67, 51, 87, 90, 111, 93,
)

WORKED_VALUES = (
    ("inf", 0, 0), (0, 86, 61), (1, 40, 102), (2, 79, 89), (3, 104, 43), (4, 0, 0), (5, 92, 104), (6, 54, 32),
    (7, 101, 101), (8, 55, 114), (9, 96, 83), (10, 40, 22), (11, 3, 62), (12, 31, 68), (13, 16, 100), (14, 29, 116),
    (15, 110, 69), (16, 41, 35), (17, 62, 44), (18, 89, 92), (19, 119, 34), (20, 68, 5), (21, 42, 64), (22, 85, 35),
    (23, 68, 48), (24, 91, 33), (25, 98, 111), (26, 117, 53), (27, 25, 48), (28, 77, 83), (29, 76, 109), (30, 23, 17),
    (31, 9, 99), (32, 116, 22), (33, 75, 81), (34, 114, 12), (35, 109, 6), (36, 69, 52), (37, 68, 9), (38, 61, 123),
    (39, 35, 22), (40, 83, 72), (41, 10, 79), (42, 122, 85), (43, 89, 11), (44, 58, 1), (45, 111, 107), (46, 108, 57),
    (47, 10, 16), (48, 109, 91), (49, 3, 63), (50, 123, 86), (51, 76, 8), (52, 93, 9), (53, 96, 62), (54, 102, 106),
    (55, 77, 79), (56, 105, 52), (57, 77, 83), (58, 77, 31), (59, 85, 121), (60, 72, 66), (61, 40, 48), (62, 126, 74),
    (63, 20, 68), (64, 98, 107), (65, 54, 60), (66, 11, 112), (67, 51, 57), (68, 105, 95), (69, 36, 71), (70, 23, 71),
    (71, 84, 82), (72, 30, 124), (73, 113, 84), (74, 110, 72), (75, 124, 119), (76, 93, 5), (77, 73, 22), (78, 106, 106),
    (79, 69, 55), (80, 3, 31), (81, 74, 71), (82, 120, 118), (83, 46, 47), (84, 22, 18), (85, 16, 97), (86, 36, 50),
    (87, 6, 31), (88, 4, 10), (89, 89, 93), (90, 36, 105), (91, 48, 71), (92, 75, 101), (93, 74, 14), (94, 38, 103),
    (95, 65, 114), (96, 48, 15), (97, 40, 104), (98, 15, 65), (99, 77, 6), (100, 120, 30), (101, 94, 2), (102, 105, 77),
    (103, 68, 94), (104, 34, 77), (105, 111, 59), (106, 123, 89), (107, 126, 91), (108, 69, 33), (109, 21, 100), (110, 42, 107),
    (111, 123, 108), (112, 0, 0), (113, 10, 75), (114, 43, 17), (115, 41, 5), (116, 96, 30), (117, 99, 31), (118, 37, 117),
    (119, 40, 11), (120, 53, 90), (121, 58, 17), (122, 73, 33), (123, 24, 95), (124, 68, 43), (125, 8, 126), (126, 48, 109),
)


def tower_numerator_expected(field):
    """x^128 + 42x + 85 as a Poly."""
    coeffs = [85, 42] + [0] * 126 + [1]
    return Poly(field, coeffs)


def image_below_level(plan, level, value):
    """Push x-coordinate `value` through the maps of the levels below `level`
    (1-based); None if it meets a pole on the way."""
    ((num, den),) = plan.tower_values([value])[level - 1]
    return None if den == 0 else plan.field.div(num, den)


def check_reproduction(report_lines=None):
    """Rebuild the worked plan and diff all published data.

    Returns (all_exact: bool, checks: list[(name, ok, detail)]).  The
    evaluation-pair diff and the structural constants are independent
    checks; each is reported separately.
    """
    out = report_lines if report_lines is not None else []
    checks = []

    field = field_make(FIELD_P)
    plan = cyclic_plan(field, RADICES, m_pair=M_PAIR)

    checks.append(("ramified quadratic", tuple(plan.quads[0].coeffs) == EXPECTED_QUAD,
                   f"got {tuple(plan.quads[0].coeffs)}, expected {EXPECTED_QUAD}"))
    poles = tuple(lv.poles[0] for lv in plan.levels)
    checks.append(("pole sequence", poles == EXPECTED_POLES,
                   f"got {poles}, expected {EXPECTED_POLES}"))
    x1 = plan.levels[0]
    checks.append(("first tower map", (tuple(x1.num.coeffs), tuple(x1.den.coeffs)) == EXPECTED_X1,
                   f"got {(tuple(x1.num.coeffs), tuple(x1.den.coeffs))}"))
    # the plan never forms the degree-128 tower; the oracle builds it symbolically
    checks.append(("tower numerator",
                   cyclic_tower(plan)[-1].num == tower_numerator_expected(field),
                   "full tower numerator"))
    checks.append(("scale constant", plan.scale_const == EXPECTED_SCALE_CONST,
                   f"got {plan.scale_const}, expected {EXPECTED_SCALE_CONST}"))
    images = tuple(image_below_level(plan, i, c) for i, c in enumerate(PUBLISHED_LEVEL_CONSTANTS, 1))
    checks.append(("published level points over the poles", images == poles,
                   f"published {PUBLISHED_LEVEL_CONSTANTS} map to {images}, poles {poles}"))
    consts = tuple(plan.example_constants())
    checks.append(("pole-fiber constants", consts == TABLE_LEVEL_CONSTANTS,
                   f"got {consts}, expected {TABLE_LEVEL_CONSTANTS}"))

    ev = q1_fft(plan, list(WORKED_COEFFS))
    expected = {a: (fv, tv) for a, fv, tv in WORKED_VALUES}
    matches = 0
    first_bad = None
    for idx, pt in enumerate(ev.points):
        key = "inf" if pt is INF else pt
        if (ev.values[idx], ev.tilde[idx]) == expected[key]:
            matches += 1
        elif first_bad is None:
            first_bad = (key, (ev.values[idx], ev.tilde[idx]), expected[key])
    checks.append((
        "evaluation pairs",
        matches == 128,
        f"{matches}/128 evaluation pairs match"
        + (f"; first mismatch at {first_bad[0]}: got {first_bad[1]}, expected {first_bad[2]}" if first_bad else ""),
    ))

    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        out.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok, checks
