"""Tests of the benchmark itself: tracer correctness and metric bookkeeping.

    python3 -m pytest perfbench -q

Each workload runs a set-up and two conversion rounds untraced, traced and
counted; the outputs must agree exactly and each layer must record calls on
the workload that exercises it.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

import run

workloads = run.import_gfft()

import harness  # noqa: E402  (needs gfft importable first)
import tracer as tr  # noqa: E402
import gfft  # noqa: E402
import gfft.linalg  # noqa: E402

SEED = 7
ROUNDS = (1, 2)

# layer -> workloads on which it must record spans
LAYER_WORKLOADS = {
    "engine": ["mult-65537-n4096", "add-2e12-n1024"],
    "linalg": ["mult-65537-n4096", "add-2e12-n1024"],
    "mfft": ["mult-65537-n4096"],
    "afft": ["add-2e12-n1024"],
    "poly": ["add-2e12-n1024", "cyclic-191-n192", "cli-383-n128"],
    "moebius": ["cyclic-191-n192", "cli-383-n128"],
    "cfft": ["cyclic-191-n192", "cli-383-n128"],
    "fileio": ["cli-383-n128"],
    "cli": ["cli-383-n128"],
}


def _rounds(wl, timer, tally):
    state = harness.build_setups(wl, timer, tally, 1)
    timer.fields = wl.fields(state)
    return [harness.run_round(wl, state, timer, tally, SEED, i, convert=True) for i in ROUNDS]


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def passes(request):
    """Untraced, traced and counted passes over the same inputs."""
    workdir = os.path.join(run.OUT_DIR, f"test-{request.param}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[request.param](workdir)
        tally = harness.Tally()
        plain = _rounds(wl, harness.Timer(), tally)
        tracer = tr.Tracer()
        traced_timer = harness.Timer(tracer=tracer)
        with tracer.installed():
            traced = _rounds(wl, traced_timer, tally)
        counts = tr.OpCounts()
        counted_timer = harness.Timer(counts=counts)
        with counts.installed():
            counted = _rounds(wl, counted_timer, tally)
        yield {"name": request.param, "wl": wl, "tally": tally, "plain": plain,
               "traced": traced, "counted": counted, "tracer": tracer,
               "counted_timer": counted_timer}
    finally:
        shutil.rmtree(workdir)


def test_outputs_correct_and_unchanged_by_tracing(passes):
    assert passes["tally"].failed == 0, passes["tally"].messages
    assert passes["plain"] == passes["traced"] == passes["counted"]
    assert all(out["fft"] for out in passes["plain"])
    if passes["wl"].to_std is not None:
        assert all("to_std" in out for out in passes["plain"])


def test_layers_record_calls(passes):
    calls = passes["tracer"].layer_calls()
    for layer, names in LAYER_WORKLOADS.items():
        if passes["name"] in names:
            assert calls.get(layer, 0) > 0, (layer, calls)
    assert passes["tracer"].absent == []


def test_gf_counts(passes):
    recs = {r.op: r.counts for r in passes["counted_timer"].records if r.ok}
    adds, muls = recs["fft"]["adds"], recs["fft"]["muls"]
    assert adds > 0 and muls > 0
    assert recs["setup"]["adds"] + recs["setup"]["muls"] > 0
    if passes["name"] == "cli-383-n128":
        # the CLI opens its own count_ops scope around the transform
        assert adds >= passes["wl"].n


def test_tracer_patches_every_binding_and_restores():
    import gfft.cfft
    import gfft.engine
    import gfft.oracle

    original = gfft.linalg.invert
    assert gfft.engine.invert is gfft.cfft.invert is gfft.oracle.invert is original
    t = tr.Tracer(targets=["gfft.linalg:invert", "gfft.poly:Poly.from_roots",
                           "gfft.nosuch:thing", "gfft.linalg:nosuch"])
    with t.installed():
        wrapped = gfft.linalg.invert
        assert wrapped is not original
        assert gfft.engine.invert is gfft.cfft.invert is gfft.oracle.invert is wrapped
        field = gfft.field_make(7)
        assert wrapped(field, [[2]]) == [[4]]
        gfft.Poly.from_roots(field, [1, 2])
    assert t.absent == ["gfft.nosuch:thing", "gfft.linalg:nosuch"]
    assert gfft.engine.invert is gfft.cfft.invert is gfft.oracle.invert is original
    assert isinstance(gfft.Poly.__dict__["from_roots"], classmethod)
    assert [t.names[i] for i in t.name] == [
        "gfft.linalg:invert", "gfft.poly:Poly.from_roots"]


def test_tracer_restores_on_error():
    original = gfft.linalg.mat_vec
    t = tr.Tracer(targets=["gfft.linalg:mat_vec"])
    with pytest.raises(RuntimeError):
        with t.installed():
            raise RuntimeError("boom")
    assert gfft.linalg.mat_vec is original


def test_self_time_subtracts_children():
    t = tr.Tracer(targets=[])
    # parent span 0 covers [0, 10]; children 1 and 2 cover 3 and 4 seconds
    for s, e, par in [(0, 10, -1), (1, 4, 0), (5, 9, 0)]:
        t.start.append(s)
        t.end.append(e)
        t.parent.append(par)
    assert list(t.self_times()) == [3, 3, 4]


def test_benchmark_json_matches_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        harness.end_to_end_metrics()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        harness.per_layer_metrics()
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(trace, capsys):
    assert run.main(["--workload", "cyclic-191-n192", "--seed", "3", "--seconds", "2",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = harness.per_layer_metrics() if trace else harness.end_to_end_metrics()
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {n: u for n, u, _ in spec} == {n: m["unit"] for n, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
