"""Bit-identity hash of fields, plans, transforms and conversions, to compare
commits.

Run from the repository root:

    PYTHONPATH=src python tests/bitid.py        # one sha256
    PYTHONPATH=src python tests/bitid.py -v     # and a line per config

The hash covers, for each config: the plan's JSON text and describe()
lines (and a cyclic plan's lifts of sigma); fft and ifft outputs with their
(adds, muls, invs) on a first and a second call; to_standard and
from_standard outputs with their counts, first and second call; and the
JSON text and describe() lines of the plan reloaded from its JSON.  Two
commits that print the same hash build the same plans and compute the same
outputs at the same op counts on these configs.  Build and reload op counts
are printed with -v but left out of the hash, so a change that only makes a
build or a reload cheaper keeps it.

The configs are the cost-theorem plans of tests/test_acceptance.py
(_cost_plans), the four benchmark configs, and cyclic plans over F_131
(2, 3, 11), GF(3^4) (2, 41), GF(2^6) (5, 13), GF(7^2) (2, 5, 5), F_(2^31-1)
2^8 and F_1151 (2^7 3^2, full).  The hash also covers field construction:
for each field of FIELDS, (p, r), the default modulus, the table generator
exp[1] and a sha256 of the exp and log tables.  pytest does not collect
this file.
"""

import hashlib
import json
import random
import sys

from gfft.afft import add_plan
from gfft.cfft import cyclic_plan
from gfft.fileio import PLAN_CASES, field_from_json, plan_from_json, plan_to_json
from gfft.gf import field_make
from gfft.mfft import mult_plan
from gfft.vectors import BASIS_STANDARD, CoeffVec
from test_acceptance import _cost_plans

EXTRA = (  # name, field_make args, builder, builder args
    ("bench-mult-65537-n4096", (65537,), mult_plan, ((2,) * 12,)),
    ("bench-add-2e12-n1024", (2, 12), add_plan, ([1 << i for i in range(10)],)),
    ("bench-cyclic-191-n192", (191,), cyclic_plan, ((2,) * 6 + (3,),)),
    ("bench-cli-383-n128", (383,), cyclic_plan, ((2,) * 7,)),
    ("cyclic-F131-(2, 3, 11)", (131,), cyclic_plan, ((2, 3, 11),)),
    ("cyclic-GF(3^4)-(2, 41)", (3, 4), cyclic_plan, ((2, 41),)),
    ("cyclic-GF(2^6)-(5, 13)", (2, 6), cyclic_plan, ((5, 13),)),
    ("cyclic-GF(7^2)-(2, 5, 5)", (7, 2), cyclic_plan, ((2, 5, 5),)),
    ("cyclic-M31-2^8", (2**31 - 1,), cyclic_plan, ((2,) * 8,)),
    ("cyclic-F1151-full", (1151,), cyclic_plan, ((2,) * 7 + (3, 3),)),
)

FIELDS = (tuple((2, k) for k in range(2, 21)) + tuple((3, k) for k in range(2, 8))
          + ((5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (11, 2), (13, 3), (31, 2), (101, 2)))


def field_record(p, r):
    """The hashed record of field_make(p, r)."""
    field = field_make(p, r)
    tables = hashlib.sha256(json.dumps([field._exp, field._log]).encode()).hexdigest()
    return [p, r, list(field.modulus), field._exp[1], tables]


def _counted(field, run):
    with field.count_ops() as ctr:
        out = run()
    return out, (ctr.adds, ctr.muls, ctr.invs)


def _raws(out):
    """An output's raw values: values (and tilde, a0 on a cyclic fft)."""
    if hasattr(out, "tilde"):
        return [list(out.values), list(out.tilde), out.a0]
    return list(getattr(out, "values", out))


def _plan_text(plan):
    text = json.dumps(plan_to_json(plan), sort_keys=True)
    lines = plan.describe() + [repr(lift) for lift in getattr(plan, "lifts", ())]
    return text, lines


def record(name, plan, seed):
    """The hashed record of one plan, and its reload's op counts."""
    field, rng = plan.field, random.Random(seed)
    text, lines = _plan_text(plan)
    rec = [name, text, lines]
    coeffs = [rng.randrange(field.q) for _ in range(plan.n)]
    for _ in range(2):
        values, fc = _counted(field, lambda: plan.fft(coeffs))
        back, ic = _counted(field, lambda: plan.ifft(values))
        rec += [_raws(values), fc, _raws(back), ic]
    for _ in range(2):
        std, sc = _counted(field, lambda: plan.to_standard(CoeffVec(tuple(coeffs), plan.basis)))
        nat, nc = _counted(field, lambda: plan.from_standard(CoeffVec(tuple(coeffs), BASIS_STANDARD)))
        rec += [_raws(std), sc, _raws(nat), nc]
    obj = json.loads(text)
    rec += list(_plan_text(plan_from_json(obj)))
    fresh = field_from_json(obj["field"])
    _, reload_ops = _counted(fresh, lambda: PLAN_CASES[obj["case"]].from_json(fresh, obj))
    return rec, reload_ops


def main(argv):
    verbose = "-v" in argv
    digest = hashlib.sha256()
    for p, r in FIELDS:
        rec = field_record(p, r)
        digest.update(json.dumps(rec).encode())
        if verbose:
            print(f"GF({p}^{r}): modulus {rec[2]} exp[1] {rec[3]} tables {rec[4][:16]}")
    rows = [(name, plan, None) for name, _, plan in _cost_plans()]
    for name, args, build, build_args in EXTRA:
        field = field_make(*args)
        plan, build_ops = _counted(field, lambda: build(field, *build_args))
        rows.append((name, plan, build_ops))
    for seed, (name, plan, build_ops) in enumerate(rows):
        rec, reload_ops = record(name, plan, seed)
        digest.update(json.dumps(rec).encode())
        if verbose:
            built = "" if build_ops is None else f" build {build_ops}"
            print(f"{name}:{built} reload {reload_ops}")
    print(digest.hexdigest())


if __name__ == "__main__":
    main(sys.argv[1:])
