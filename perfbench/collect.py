"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1,2,3] [--trace 0|1]
                                 [--seconds S] [--out summary.json]

Each run is a fresh `python3 perfbench/run.py` process, one after another.
For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread (q3 - q1) /
median, next to the metric's bound from BENCHMARK.json; "ok" means the
spread is below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import commit_id

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def summarise(values):
    """Median, quartiles and spread (q3 - q1) / median; no spread when the
    median is 0 (a layer or op the workload does not reach)."""
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    summary = {"commit": commit_id(), "python": platform.python_version(), "nproc": os.cpu_count(),
               "seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, elapsed = run_one(wl, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{wl} seed={seed} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} elapsed={elapsed:.1f}s", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values)
            s.update(unit=runs[0]["metrics"][name]["unit"], values=values, bound=bounds.get(name))
            metrics[name] = s
            bound, spread = s["bound"], s["spread"]
            verdict = "" if bound is None or spread is None else (
                "ok" if spread < bound / 3 else "WIDE")
            spread_text = "-" if spread is None else f"{spread:.4f}"
            print(f"  {name:<34} median={s['median']:<12.6g} q1={s['q1']:<12.6g} "
                  f"q3={s['q3']:<12.6g} spread={spread_text} bound={bound} {verdict}",
                  flush=True)
        summary["workloads"][wl] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
