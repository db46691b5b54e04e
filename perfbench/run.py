"""gfft benchmark: one workload, one closed-loop client, in this process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a gfft checkout; gfft is imported from its src/
directory, nothing is installed.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones.  Lines before it
print every metric with its unit, sample count, quartiles, raw wall time and
reference time.  Details and spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def import_gfft():
    """Import gfft from this checkout's src/, or exit 2 without a result."""
    pkg = os.path.join(SRC, "gfft")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"perfbench: no gfft sources at {os.path.relpath(pkg, ROOT)}")
    os.environ.pop("GFFT_THREADS", None)
    sys.path.insert(0, SRC)
    import gfft

    if os.path.dirname(os.path.abspath(gfft.__file__)) != pkg:
        sys.exit(f"perfbench: gfft imported from {gfft.__file__}, not from this checkout")
    import workloads

    workloads.import_cli_following_stdout()
    return workloads


def commit_id():
    """The checkout's commit from .git if present (no git process is run)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def print_table(metrics, out=sys.stdout):
    for name, entry in metrics.values.items():
        d = metrics.detail.get(name, {})
        extra = ""
        if "samples" in d and "q1" in d:
            extra = f"  n={d['samples']} q1={d['q1']:.6g} q3={d['q3']:.6g}"
        if "raw" in d:
            extra += f"  raw={d['raw']:.6g}"
        if "r_adj" in d:
            extra += f"  R_adj={d['r_adj']:.6g} R_nom={d['r_nom']:.6g}"
        print(f"{name:<36} {entry:>14.6g} {metrics.units[name]:<6}{extra}", file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads = import_gfft()
    import harness

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](workdir)
    started = time.time()
    try:
        if args.trace:
            metrics, tally, info, tracer = harness.run_traced(wl, args.seed, args.seconds)
            tracer.write(os.path.join(OUT_DIR, f"{tag}.spans.json.gz"))
        else:
            metrics, tally, info = harness.run_untraced(wl, args.seed, args.seconds)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics.complete(),
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_id(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "started": started, "fail_frac": tally.failed / tally.attempted,
        "failures": tally.messages, "info": info, "detail": metrics.detail, "result": result,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for msg in tally.messages:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={tally.attempted} failed={tally.failed} "
          f"fail_frac={tally.failed / tally.attempted:.6g}")
    print_table(metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
