"""Closed-loop runner: one client, one op at a time, in this process.

Times each op, takes reference-loop samples next to the ops, checks every
output on a path that bypasses the checked code, and turns the records into
end-to-end (untraced) or per-layer (traced) metrics.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import random
import resource
import statistics
import time

import gfft as G

import refloop
from tracer import OpCounts, Tracer

OPS = ("setup", "fft", "ifft", "to_std", "from_std")
SETUP_BUILDS = 5
HORNER_POINTS = 4
# after an op, one reference sample per REF_AFTER_EVERY seconds it took
REF_AFTER_EVERY = 0.1
REF_AFTER_MAX = 8
# The traced half runs at most TRACE_ROUNDS rounds and converts on every
# TRACE_CONV_EVERY-th from round 1, so spans stay a few hundred thousand.
TRACE_ROUNDS = 12
TRACE_CONV_EVERY = 4
MAX_ENGINE_DEPTH = 12

# layers with a span self time per op; gf and moebius only on setup
SELF_TIME_LAYERS = ("engine", "linalg", "poly", "mfft", "afft", "cfft", "fileio", "cli")


def end_to_end_metrics():
    return [
        ("setup_s", "s", "lower"),
        ("fft_ms_p50", "ms", "lower"),
        ("fft_ms_p90", "ms", "lower"),
        ("ifft_ms_p50", "ms", "lower"),
        ("ifft_ms_p90", "ms", "lower"),
        ("std_eval_ms_p50", "ms", "lower"),
        ("std_interp_ms_p50", "ms", "lower"),
        ("fft_pts_per_s", "1/s", "higher"),
        ("peak_rss_mb", "MB", "lower"),
    ]


def per_layer_metrics():
    out = []
    for op in OPS:
        for kind in ("adds", "muls", "invs"):
            out.append((f"gf.{kind}.{op}", "count", "lower"))
        out.append((f"gf.ops_per_s.{op}", "1/s", "higher"))
    out.append(("gf.self_s.setup", "s", "lower"))
    for layer in SELF_TIME_LAYERS:
        for op in OPS:
            out.append((f"{layer}.self_s.{op}", "s", "lower"))
    for d in range(MAX_ENGINE_DEPTH + 1):
        for op in ("fft", "ifft"):
            out.append((f"engine.level{d}.self_s.{op}", "s", "lower"))
    for op in OPS:
        out.append((f"poly.new.{op}", "count", "lower"))
    out.append(("poly.ratfn_reduced_frac.setup", "ratio", "lower"))
    out.append(("moebius.self_s.setup", "s", "lower"))
    out.append(("afft.padic_expand.calls.from_std", "count", "lower"))
    for op in OPS:
        out.append((f"fileio.bytes_in.{op}", "B", "lower"))
        out.append((f"fileio.bytes_out.{op}", "B", "lower"))
    out.append(("trace.overhead", "ratio", "lower"))
    return out


class Record:
    __slots__ = ("op", "op_id", "t0", "t1", "r_adj", "ok", "bytes_in", "bytes_out", "counts")

    def __init__(self, op, op_id):
        self.op = op
        self.op_id = op_id
        self.t0 = self.t1 = self.r_adj = 0.0
        self.ok = False
        self.bytes_in = self.bytes_out = 0
        self.counts = None

    @property
    def wall(self):
        return self.t1 - self.t0

    def normalised(self):
        """The op's wall time at nominal CPU speed."""
        return self.wall * refloop.R_NOM / self.r_adj


class Timer:
    """Times ops and samples the reference loop around them.

    Called as  with timer(op): ...  around exactly the call into gfft.  The
    reference loop runs once right before the op and once right after it,
    more times after a long op.  finish() sets each op's R_adj to the mean
    of the reference samples within one op-length of it (always including
    the nearest one on each side), so a long op is normalised by the speed
    around it rather than by two instants.  When a tracer is attached its
    spans are tagged with the op's id; when counts are attached the op runs
    inside a counting scope on `fields`.
    """

    def __init__(self, tracer=None, counts=None, keep=True):
        self.records = []
        self.ref_times = []  # midpoint of each reference sample
        self.ref_values = []
        self.tracer = tracer
        self.counts = counts
        self.fields = ()
        self.keep = keep
        self._next_id = 0

    def _reference(self):
        t0 = time.perf_counter()
        r = refloop.reference_sample()
        self.ref_times.append(t0 + r / 2)
        self.ref_values.append(r)

    @contextlib.contextmanager
    def __call__(self, op, files_in=(), file_out=None):
        rec = Record(op, self._next_id if self.keep else -1)
        self._next_id += 1
        rec.bytes_in = sum(os.path.getsize(p) for p in files_in)
        counting = self.counts.op(*self.fields) if self.counts else contextlib.nullcontext()
        self._reference()
        if self.tracer:
            self.tracer.current_op = rec.op_id
        try:
            with counting:
                rec.t0 = time.perf_counter()
                yield
                rec.t1 = time.perf_counter()
            rec.ok = True
        finally:
            if self.tracer:
                self.tracer.current_op = -1
            if self.counts:
                rec.counts = self.counts.snapshot()
            if rec.ok and file_out and os.path.exists(file_out):
                rec.bytes_out = os.path.getsize(file_out)
            if self.keep:
                self.records.append(rec)
        for _ in range(min(REF_AFTER_MAX, 1 + int(rec.wall / REF_AFTER_EVERY))):
            self._reference()

    def finish(self):
        """Set every kept op's R_adj; call once the timed loop is over."""
        times, values = self.ref_times, self.ref_values
        for rec in self.records:
            if not rec.ok:
                continue
            lo = min(bisect.bisect_left(times, rec.t0 - rec.wall), bisect.bisect_right(times, rec.t0) - 1)
            hi = max(bisect.bisect_right(times, rec.t1 + rec.wall), bisect.bisect_left(times, rec.t1) + 1)
            window = values[max(lo, 0):hi]
            rec.r_adj = sum(window) / len(window)
        return self

    def op_records(self, op):
        return [r for r in self.records if r.op == op and r.ok]


class Tally:
    """Ops attempted and failed (failed checks + raised exceptions)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, msg):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(msg)


def round_rng(seed, index):
    return random.Random(seed * 1_000_003 + index)


def run_round(wl, state, timer, tally, seed, index, convert):
    """One closed-loop round: fft + ifft, and on conversion rounds to_std +
    from_std.  Returns the round's outputs for comparison."""
    rng = round_rng(seed, index)
    coeffs = wl.make_input(rng)
    outputs = {}
    step = "fft"
    try:
        tally.attempted += 1
        values = wl.fft(state, coeffs, timer)
        step = "ifft"
        tally.attempted += 1
        back = wl.ifft(state, values, timer)
        outputs["fft"] = [v for _, v in wl.checkpoints(state, values)]
        outputs["ifft"] = back
        if back != coeffs:
            tally.fail(f"round {index}: ifft(fft(x)) != x")
        std = coeffs if wl.to_std is None else None
        if convert and wl.to_std is not None:
            step = "to_std"
            tally.attempted += 1
            std = wl.to_std(state, coeffs, timer)
            step = "from_std"
            tally.attempted += 1
            native = wl.from_std(state, std, timer)
            outputs["to_std"], outputs["from_std"] = std, native
            if native != coeffs:
                tally.fail(f"round {index}: from_std(to_std(x)) != x")
        if std is not None:
            sample = rng.sample(wl.checkpoints(state, values), HORNER_POINTS)
            poly = G.Poly(wl.horner_field, std)
            if G.mpe_horner(poly, [pt for pt, _ in sample]) != [v for _, v in sample]:
                tally.fail(f"round {index}: fft values differ from Horner")
    except Exception as exc:  # any raised op counts as failed; the run goes on
        tally.fail(f"round {index}: {step} raised {type(exc).__name__}: {exc}")
    return outputs


def build_setups(wl, timer, tally, count):
    state = None
    for _ in range(count):
        tally.attempted += 1
        try:
            state = wl.build(timer)
        except Exception as exc:  # a failed build counts; the run goes on
            tally.fail(f"setup raised {type(exc).__name__}: {exc}")
    if state is None:
        raise RuntimeError("no plan could be built")
    return state


def traced_conversion(index):
    return index % TRACE_CONV_EVERY == 1


def run_loop(wl, state, timer, tally, seed, seconds, max_rounds=None, converts=None):
    """Warm-up round 0 (untimed), then rounds 1, 2, ... for `seconds`.

    Which rounds also convert never changes a round's input.  By default
    round 1 converts, and later rounds convert once the plain rounds since
    the last conversion round have taken long enough that conversion rounds
    get the share `wl.conv_share` of the run, whatever they cost.
    `converts(index)` overrides that.
    """
    warm = Timer(keep=False)
    run_round(wl, state, warm, tally, seed, 0, convert=wl.to_std is not None)
    timer.fields = wl.fields(state)
    deadline = time.perf_counter() + seconds
    index = 1
    last_conv, plain = None, 0.0
    while time.perf_counter() < deadline and (max_rounds is None or index <= max_rounds):
        if wl.to_std is None:
            convert = False
        elif converts is not None:
            convert = converts(index)
        else:
            convert = last_conv is None or plain >= last_conv * (1 - wl.conv_share) / wl.conv_share
        t0 = time.perf_counter()
        run_round(wl, state, timer, tally, seed, index, convert)
        dt = time.perf_counter() - t0
        if convert:
            last_conv, plain = dt, 0.0
        else:
            plain += dt
        index += 1
    timer.finish()
    return index - 1


# ---------------------------------------------------------------------------
# statistics


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def p90(xs):
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


class Metrics:
    """Metric values plus, per metric, the detail written beside it."""

    def __init__(self, spec):
        self.units = {name: unit for name, unit, _ in spec}
        self.values = {}
        self.detail = {}

    def put(self, name, value, **detail):
        if name not in self.units:
            raise KeyError(name)
        self.values[name] = value
        if detail:
            self.detail[name] = detail

    def put_samples(self, name, samples, pick, scale):
        """Statistic `pick` of normalised times, with sample count, quartiles,
        the raw wall statistic and the median R_adj beside it.  `samples`
        holds (normalised s, wall s, R_adj s) triples."""
        norm = [s[0] * scale for s in samples]
        q1, med, q3 = quartiles(norm)
        self.put(name, pick(norm), samples=len(norm), q1=q1, median=med, q3=q3,
                 raw=pick([s[1] * scale for s in samples]),
                 r_adj=statistics.median(s[2] for s in samples), r_nom=refloop.R_NOM)

    def complete(self):
        missing = [n for n in self.units if n not in self.values]
        if missing:
            raise RuntimeError(f"metrics not produced: {missing}")
        return {n: {"value": self.values[n], "unit": self.units[n]} for n in self.units}


def samples_of(recs):
    return [(r.normalised(), r.wall, r.r_adj) for r in recs]


def untraced_metrics(wl, timer):
    m = Metrics(end_to_end_metrics())
    ffts, iffts = timer.op_records("fft"), timer.op_records("ifft")
    m.put_samples("setup_s", samples_of(timer.op_records("setup")), statistics.median, 1.0)
    m.put_samples("fft_ms_p50", samples_of(ffts), statistics.median, 1e3)
    m.put_samples("fft_ms_p90", samples_of(ffts), p90, 1e3)
    m.put_samples("ifft_ms_p50", samples_of(iffts), statistics.median, 1e3)
    m.put_samples("ifft_ms_p90", samples_of(iffts), p90, 1e3)
    eval_s, interp_s = pipeline_samples(wl, timer.records)
    m.put_samples("std_eval_ms_p50", eval_s, statistics.median, 1e3)
    m.put_samples("std_interp_ms_p50", interp_s, statistics.median, 1e3)
    m.put("fft_pts_per_s", wl.n * len(ffts) / sum(r.normalised() for r in ffts),
          samples=len(ffts))
    m.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return m


def pipeline_samples(wl, recs):
    """Standard-basis pipelines: evaluate a standard-form polynomial
    (from_std + fft) and interpolate values to standard form (ifft + to_std),
    summed per conversion round.  On mult the bases coincide, so they are
    the fft and the ifft."""
    def pair(a, b):
        return (a.normalised() + b.normalised(), a.wall + b.wall, (a.r_adj + b.r_adj) / 2)

    if wl.to_std is None:
        return (samples_of(r for r in recs if r.op == "fft" and r.ok),
                samples_of(r for r in recs if r.op == "ifft" and r.ok))
    eval_s, interp_s = [], []
    for i in range(2, len(recs) - 1):
        # a conversion round records fft, ifft, to_std, from_std in order
        fft, ifft, to_std, from_std = recs[i - 2:i + 2]
        if [r.op for r in (fft, ifft, to_std, from_std)] != ["fft", "ifft", "to_std", "from_std"]:
            continue
        if all(r.ok for r in (fft, ifft, to_std, from_std)):
            eval_s.append(pair(from_std, fft))
            interp_s.append(pair(ifft, to_std))
    return eval_s, interp_s


def traced_metrics(untraced, traced, tracer, counted):
    """Per-layer metrics from the untraced, traced and counted timers."""
    m = Metrics(per_layer_metrics())
    p50 = {}
    for op in OPS:
        recs = untraced.op_records(op)
        p50[op] = statistics.median(r.normalised() for r in recs) if recs else 0.0

    no_counts = dict.fromkeys(OpCounts.FIELDS, 0)
    for op in OPS:
        rec = next(iter(counted.op_records(op)), None)
        c = rec.counts if rec else no_counts
        m.put(f"gf.adds.{op}", c["adds"])
        m.put(f"gf.muls.{op}", c["muls"])
        m.put(f"gf.invs.{op}", c["invs"])
        total = c["adds"] + c["muls"] + c["invs"]
        m.put(f"gf.ops_per_s.{op}", total / p50[op] if p50[op] else 0.0, ops=total,
              p50_s=p50[op])
        m.put(f"poly.new.{op}", c["poly_new"])
        m.put(f"fileio.bytes_in.{op}", rec.bytes_in if rec else 0)
        m.put(f"fileio.bytes_out.{op}", rec.bytes_out if rec else 0)
        if op == "setup":
            builds, reduced = c["ratfn_builds"], c["ratfn_reduced"]
            m.put("poly.ratfn_reduced_frac.setup", reduced / builds if builds else 0.0,
                  builds=builds, reduced=reduced)
        if op == "from_std":
            m.put("afft.padic_expand.calls.from_std", c["padic_calls"])

    # self time per (layer, tag) per op instance, normalised by the op's R_adj
    per_op = tracer.by_op()
    by_kind = {op: [] for op in OPS}
    for rec in traced.records:
        if rec.ok:
            scale = refloop.R_NOM / rec.r_adj
            by_kind[rec.op].append({k: v * scale for k, v in per_op.get(rec.op_id, {}).items()})

    def median_self(op, layer, tag=None):
        vals = [sum(v for (lay, t), v in inst.items() if lay == layer and tag in (None, t))
                for inst in by_kind[op]]
        return statistics.median(vals) if vals else 0.0

    for layer in SELF_TIME_LAYERS:
        for op in OPS:
            m.put(f"{layer}.self_s.{op}", median_self(op, layer))
    m.put("gf.self_s.setup", median_self("setup", "gf"))
    m.put("moebius.self_s.setup", median_self("setup", "moebius"))
    for d in range(MAX_ENGINE_DEPTH + 1):
        for op in ("fft", "ifft"):
            m.put(f"engine.level{d}.self_s.{op}", median_self(op, "engine", d))

    def round_p50(timer):
        return sum(statistics.median(r.normalised() for r in timer.op_records(op))
                   for op in ("fft", "ifft"))

    base = round_p50(untraced)
    m.put("trace.overhead", round_p50(traced) / base, untraced_s=base)
    return m


def run_untraced(wl, seed, seconds):
    timer, tally = Timer(), Tally()
    state = build_setups(wl, timer, tally, SETUP_BUILDS)
    rounds = run_loop(wl, state, timer, tally, seed, seconds)
    return untraced_metrics(wl, timer), tally, {"rounds": rounds}


def run_traced(wl, seed, seconds):
    """Untraced half, traced half over the same inputs, then one counted pass."""
    tally = Tally()
    untraced = Timer()
    state = build_setups(wl, untraced, tally, 1)
    rounds = run_loop(wl, state, untraced, tally, seed, seconds / 2)

    tracer = Tracer()
    traced = Timer(tracer=tracer)
    with tracer.installed():
        state = build_setups(wl, traced, tally, 1)
        run_loop(wl, state, traced, tally, seed, seconds, max_rounds=min(rounds, TRACE_ROUNDS),
                 converts=traced_conversion)

    counts = OpCounts()
    counted = Timer(counts=counts)
    with counts.installed():
        state = build_setups(wl, counted, tally, 1)
        counted.fields = wl.fields(state)
        run_round(wl, state, counted, tally, seed, 0, convert=wl.to_std is not None)

    metrics = traced_metrics(untraced, traced, tracer, counted)
    info = {"rounds": rounds, "absent_targets": tracer.absent + counts.absent,
            "layer_calls": tracer.layer_calls(), "spans": len(tracer.start)}
    return metrics, tally, info, tracer
