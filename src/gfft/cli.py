"""Command-line front end: plan construction, transforms on files, basis
conversion, op-count benchmarking, and the one-command worked-example check.

Exit codes: 0 success, 2 validation error, 3 numerical mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import fileio
from .afft import add_plan
from .cfft import cyclic_plan
from .errors import (InputError, InvalidFieldValue, MismatchError, SubspaceTooLarge,
                     ValidationError)
from .gf import factorize, field_make
from .mfft import mult_plan
from .vectors import BASIS_CYCLIC, BASIS_LCH, BASIS_STANDARD, point_in


def _int(text):
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"expected an integer, got {text!r}") from exc


def _parse_ints(text):
    return [_int(v) for v in (text or "").split(",") if v != ""]


def _values(field, text, option):
    """The field values in an option's text, comma separated as the entries
    of a plan file's list: JSON ints, or digit lists over an extension field,
    each read by Field.parse_raw."""
    try:
        entries = json.loads(f"[{text}]")
    except ValueError as exc:
        raise InputError(f"cannot parse {option} {text!r}: {exc}") from exc
    return [field.parse_raw(v) for v in entries]


def _read_input(path, parse):
    """parse(text) of an input file.  A file that cannot be opened, does not
    parse or holds an out-of-range value is bad input (exit 2), not a
    traceback."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, ValueError, KeyError, TypeError, InvalidFieldValue) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_output(path, text):
    """Write text, built before the file is opened so that a refused output
    leaves an existing file as it was; an unwritable path is bad input."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _counted(field, fn, arg, report=False):
    """(fn(arg), its op total, its wall time); report prints one ops: line."""
    with field.count_ops() as ctr:
        t0 = time.perf_counter()
        out = fn(arg)
        wall = time.perf_counter() - t0
    if report:
        print(f"ops: adds={ctr.adds} muls={ctr.muls} "
              f"invs={ctr.invs} wall={wall:.6f}s", file=sys.stderr)
    return out, ctr.total(), wall


def _build_plan(args):
    # the options each case reads: another case's option is refused, not dropped
    reads = {"mult": ("radices", "beta"), "add": ("basis",), "cyclic": ("radices", "m", "fiber")}
    stray = [opt for opt in ("radices", "beta", "basis", "m", "fiber")
             if getattr(args, opt) is not None and opt not in reads[args.case]]
    if stray:
        raise InputError(f"--{stray[0]} does not apply to {args.case} plans")
    field = field_make(args.p, args.r)
    if args.case == "mult":
        beta = [1] if args.beta is None else _values(field, args.beta, "--beta")
        if len(beta) != 1:
            raise InputError(f"--beta takes one value, got {args.beta!r}")
        return mult_plan(field, _parse_ints(args.radices), beta[0])
    if args.case == "add":
        if not args.basis:
            raise ValidationError("additive plans need --basis v1,v2,...")
        return add_plan(field, _values(field, args.basis, "--basis"))
    if args.case == "cyclic":
        m_pair = _values(field, args.m, "--m") if args.m else None
        fiber = None if args.fiber in (None, "") else point_in(field, args.fiber)
        return cyclic_plan(field, _parse_ints(args.radices), m_pair=m_pair, fiber_key=fiber)
    raise ValidationError(f"unknown case {args.case!r}")


def cmd_plan(args) -> int:
    plan = _build_plan(args)
    for line in plan.describe():
        print(line)
    if args.out:
        _write_output(args.out, json.dumps(fileio.plan_to_json(plan), indent=1))
        print(f"plan written to {args.out}")
    return 0


def _load_plan(path):
    return _read_input(path, lambda text: fileio.plan_from_json(json.loads(text)))


def _is_csv(path, fmt):
    return fmt == "csv" or (fmt is None and path.endswith(".csv"))


def _read_coeffs(field, path, fmt, basis):
    """Coefficients from a JSON or CSV file.  A CSV file carries no basis
    tag; its coefficients are taken to be in basis."""
    if _is_csv(path, fmt):
        return _read_input(path, lambda text: fileio.coeffs_from_csv(field, text, basis))
    return _read_input(path, lambda text: fileio.coeffs_from_json(field, json.loads(text)))


def _write_vector(args, field, vec, to_csv, to_json):
    """vec to args.out, as to_csv's text or to_json's object as JSON."""
    _write_output(args.out, to_csv(field, vec) if _is_csv(args.out, args.format)
                  else json.dumps(to_json(field, vec), indent=1))


def cmd_fft(args) -> int:
    plan = _load_plan(args.plan)
    field = plan.field
    coeffs = _read_coeffs(field, args.infile, args.format, plan.basis)
    values = _counted(field, plan.fft, coeffs, args.count_ops)[0]
    _write_vector(args, field, values, fileio.values_to_csv, fileio.values_to_json)
    print(f"values written to {args.out}")
    return 0


def cmd_ifft(args) -> int:
    plan = _load_plan(args.plan)
    field = plan.field
    if _is_csv(args.infile, args.format):
        values = _read_input(args.infile, lambda text: fileio.values_from_csv(field, text, plan))
    else:
        values = _read_input(
            args.infile, lambda text: fileio.values_from_json(field, json.loads(text), plan))
    coeffs = _counted(field, plan.ifft, values, args.count_ops)[0]
    _write_vector(args, field, coeffs, fileio.coeffs_to_csv, fileio.coeffs_to_json)
    print(f"coefficients written to {args.out}")
    return 0


def cmd_convert(args) -> int:
    """Convert between the standard basis and the plan's own basis."""
    plan = _load_plan(args.plan)
    field = plan.field
    dst = args.to
    # a CSV file holds the other basis of the pair {standard, plan.basis}
    coeffs = _read_coeffs(field, args.infile, args.format,
                          plan.basis if dst == BASIS_STANDARD else BASIS_STANDARD)
    src = coeffs.basis
    if src == dst or {src, dst} != {BASIS_STANDARD, plan.basis}:
        raise ValidationError(f"{plan.case} plans cannot convert {src!r} -> {dst!r}")
    out = plan.to_standard(coeffs) if dst == BASIS_STANDARD else plan.from_standard(coeffs)
    _write_vector(args, field, out, fileio.coeffs_to_csv, fileio.coeffs_to_json)
    print(f"converted coefficients written to {args.out}")
    return 0


def cmd_bench(args) -> int:
    import random

    rng = random.Random(args.seed)
    rows = []
    if args.case == "cyclic" and args.fields:
        for p in _parse_ints(args.fields):
            field = field_make(p)
            n = p + 1
            radices = _factor_smooth(n)
            plan = cyclic_plan(field, radices)
            rows.append(_bench_one(plan, rng, label=f"q={p} n={n}"))
    else:
        if args.p is None:
            raise InputError(f"bench --case {args.case} needs --p (or --fields for cyclic)")
        field = field_make(args.p, args.r)
        for n in _parse_ints(args.ladder):
            if n < 2:
                raise ValidationError(f"ladder size {n} is below 2")
            if args.case == "mult":
                plan = mult_plan(field, _factor_smooth(n))
            elif args.case == "add":
                dim, m = 0, n
                while m > 1 and m % field.p == 0:
                    m //= field.p
                    dim += 1
                if m != 1:
                    raise ValidationError(f"additive ladder sizes must be powers of {field.p}")
                if n > field.q:
                    raise SubspaceTooLarge(f"additive ladder size {n} exceeds q = {field.q}")
                basis = [field.p**i for i in range(dim)]  # unit coefficient vectors
                plan = add_plan(field, basis)
            else:
                plan = cyclic_plan(field, _factor_smooth(n))
            rows.append(_bench_one(plan, rng, label=f"n={plan.n}"))
    print(f"{'config':>14} {'ops':>10} {'wall_s':>9} {'ratio':>7}")
    prev = None
    for label, ops, wall in rows:
        ratio = f"{ops / prev:.2f}" if prev else "-"
        print(f"{label:>14} {ops:>10} {wall:>9.4f} {ratio:>7}")
        prev = ops
    return 0


def _factor_smooth(n):
    return [d for d, k in factorize(n).items() for _ in range(k)]


def _bench_one(plan, rng, label):
    coeffs = [rng.randrange(plan.field.q) for _ in range(plan.n)]
    _, ops, wall = _counted(plan.field, plan.fft, coeffs)
    return label, ops, wall


def cmd_repro127(args) -> int:
    from .repro import check_reproduction

    lines = []
    ok, checks = check_reproduction(lines)
    for line in lines:
        print(line)
    if ok:
        print("worked example reproduced exactly")
        return 0
    print("worked-example reproduction found mismatches (see FAIL lines)")
    return 3


@functools.cache
def build_parser():
    """The one parser of the process: parse_args leaves it as it was and
    returns a fresh namespace, so main builds it once and reuses it."""
    ap = argparse.ArgumentParser(prog="gfft", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="build a transform plan and write it to JSON")
    p.add_argument("--case", required=True, choices=list(fileio.PLAN_CASES))
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--radices", default=None)
    p.add_argument("--beta", default=None, help="mult coset shift (default 1)")
    p.add_argument("--basis", default=None, help="additive subspace basis, comma separated")
    p.add_argument("--m", default=None, help="cyclic quadratic coefficients a,b")
    p.add_argument("--fiber", default=None, help="cyclic evaluation fiber value, or inf")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plan)

    for name, fn in (("fft", cmd_fft), ("ifft", cmd_ifft)):
        p = sub.add_parser(name, help=f"run {name} on a coefficient/value file")
        p.add_argument("--plan", required=True)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=["json", "csv"], default=None)
        p.add_argument("--count-ops", action="store_true")
        p.set_defaults(func=fn)

    p = sub.add_parser("convert", help="change coefficient basis under a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--to", required=True, choices=[BASIS_STANDARD, BASIS_LCH, BASIS_CYCLIC])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["json", "csv"], default=None)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("bench", help="measure op counts over a size ladder")
    p.add_argument("--case", required=True, choices=list(fileio.PLAN_CASES))
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--ladder", default="")
    p.add_argument("--fields", default=None, help="cyclic: comma list of primes, n = q+1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("repro127", help="reproduce the published q=127 worked example")
    p.set_defaults(func=cmd_repro127)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MismatchError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
