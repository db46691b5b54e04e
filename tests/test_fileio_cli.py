import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from divisors import cyclic_tower
from gfft import cli, fileio
from gfft.afft import add_plan
from gfft.cfft import cyclic_plan, q1_fft
from gfft.errors import LengthMismatch, MismatchError, PointMismatch, ValidationError
from gfft.gf import field_make
from gfft.mfft import mult_plan
from gfft.repro import WORKED_COEFFS, WORKED_VALUES
from gfft.vectors import BASIS_LCH, CoeffVec, point_out


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gfft.cli", *args], capture_output=True, text=True, env=env
    )


def test_coeff_json_roundtrip(F27):
    vec = CoeffVec((1, 5, F27.pack((1, 2, 0))), BASIS_LCH)
    obj = fileio.coeffs_to_json(F27, vec)
    assert obj["basis"] == "lch"
    assert obj["coeffs"][2] == [1, 2, 0]
    back = fileio.coeffs_from_json(F27, obj)
    assert back == vec


def test_coeff_csv_roundtrip(F27, F127):
    vec = CoeffVec((3, 0, F27.pack((0, 1, 2))), BASIS_LCH)
    text = fileio.coeffs_to_csv(F27, vec)
    assert "0:1:2" in text
    assert fileio.coeffs_from_csv(F27, text, BASIS_LCH) == vec
    vec2 = CoeffVec((1, 2, 126))
    assert fileio.coeffs_from_csv(F127, fileio.coeffs_to_csv(F127, vec2)) == vec2


def test_cyclic_values_json_roundtrip():
    F7 = field_make(7)
    plan = cyclic_plan(F7, (2, 2, 2))
    ev = q1_fft(plan, [1, 2, 3, 4, 5, 6, 0, 1])
    obj = fileio.values_to_json(F7, ev)
    assert "inf" in obj["values"]
    assert "a0" in obj
    back = fileio.values_from_json(F7, obj, plan)
    assert list(back.values) == list(ev.values)
    assert back.a0 == ev.a0


@pytest.mark.parametrize("q, radices", [(23, (2, 2, 2, 3)), (23, (2, 3)), (383, (2,) * 7)])
def test_cyclic_value_file_reads_back_unchanged(q, radices, rng):
    """A value file read back and written again is the same file, tilde map
    included (it used to read back as zeros); a point missing from either
    map is refused by name.  The list form, entries in plan point order,
    reads back alike, a0 included, and a list of another length is refused."""
    field = field_make(q)
    plan = cyclic_plan(field, radices)
    ev = q1_fft(plan, [rng.randrange(q) for _ in range(plan.n)])
    obj = json.loads(json.dumps(fileio.values_to_json(field, ev)))
    back = fileio.values_from_json(field, obj, plan)
    assert list(back.tilde) == list(ev.tilde)
    assert fileio.values_to_json(field, back) == obj
    listed = fileio.values_from_json(field, _listed(obj), plan)
    assert (listed, listed.tilde) == (back, back.tilde)
    with pytest.raises(LengthMismatch, match=f"'values' holds {plan.n - 1} entries, not {plan.n}"):
        fileio.values_from_json(field, {"values": _listed(obj)["values"][1:]}, plan)
    first = "inf" if plan.is_full else str(plan.points[0])
    for name in ("values", "tilde"):
        bad = json.loads(json.dumps(obj))
        del bad[name][first]
        with pytest.raises(PointMismatch, match=f"'{name}' holds no entry at evaluation point "
                                                f"{first}:"):
            fileio.values_from_json(field, bad, plan)


def _listed(obj):
    """A keyed cyclic value file in list form: each map's entries in the
    order written, which is the plan's point order."""
    return {k: list(v.values()) if isinstance(v, dict) else v for k, v in obj.items()}


def _cyclic_value_file(tmp_path, q, radices, seed):
    """(plan, q1_fft output, plan file, coefficient file, value file object)."""
    field = field_make(q)
    plan = cyclic_plan(field, radices)
    coeffs = [(seed * i + 1) % q for i in range(plan.n)]
    plan_path, cz = tmp_path / "plan.json", tmp_path / "cz.json"
    plan_path.write_text(json.dumps(fileio.plan_to_json(plan)))
    cz.write_text(json.dumps({"basis": "cyclic-z", "coeffs": coeffs}, indent=1))
    ev = q1_fft(plan, coeffs)
    return plan, ev, plan_path, cz, json.loads(json.dumps(fileio.values_to_json(field, ev)))


@pytest.mark.parametrize("q, radices", [(23, (2, 2, 2, 3)), (383, (2,) * 7)])
def test_cyclic_value_file_without_tilde_derives_it(tmp_path, q, radices):
    """tilde is value / scale, 0 at inf: a file without the map reads back
    with q1_fft's tilde and writes back the full file, and gfft ifft inverts
    it."""
    plan, ev, plan_path, cz, obj = _cyclic_value_file(tmp_path, q, radices, 7)
    bare = {k: v for k, v in obj.items() if k != "tilde"}
    back = fileio.values_from_json(plan.field, bare, plan)
    assert back.tilde == ev.tilde and back.values == ev.values
    assert fileio.values_to_json(plan.field, back) == obj
    values, out = tmp_path / "v.json", tmp_path / "back.json"
    values.write_text(json.dumps(bare))
    assert cli.main(["ifft", "--plan", str(plan_path), "--in", str(values),
                     "--out", str(out)]) == 0
    assert out.read_text() == cz.read_text()


@pytest.mark.parametrize("q, radices", [(23, (2, 2, 2, 3)), (383, (2,) * 7)])
def test_cyclic_value_file_with_a_wrong_tilde_is_a_mismatch(tmp_path, capsys, q, radices):
    plan, _, plan_path, _, obj = _cyclic_value_file(tmp_path, q, radices, 11)
    key = str(point_out(plan.field, plan.points[1]))
    obj["tilde"][key] = (obj["tilde"][key] + 1) % q
    with pytest.raises(MismatchError, match=f"'tilde' at {key} is not value / scale"):
        fileio.values_from_json(plan.field, obj, plan)
    values = tmp_path / "v.json"
    values.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["ifft", "--plan", str(plan_path), "--in", str(values),
                     "--out", str(tmp_path / "back.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"mismatch: 'tilde' at {key} is not value / scale"]
    assert not (tmp_path / "back.json").exists()


@pytest.mark.parametrize("with_tilde", [True, False])
def test_full_plan_value_file_with_a_nonzero_inf_value_is_a_mismatch(tmp_path, capsys,
                                                                     with_tilde):
    """q1_fft writes 0 at a full plan's inf and q1_ifft ignores the slot, so a
    file with another value there used to load and invert like the true one."""
    plan, _, plan_path, _, obj = _cyclic_value_file(tmp_path, 23, (2, 2, 2, 3), 13)
    assert obj["values"]["inf"] == 0
    obj["values"]["inf"] = 5
    if not with_tilde:
        del obj["tilde"]
    with pytest.raises(MismatchError, match="'values' at inf is not 0"):
        fileio.values_from_json(plan.field, obj, plan)
    values = tmp_path / "v.json"
    values.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["ifft", "--plan", str(plan_path), "--in", str(values),
                     "--out", str(tmp_path / "back.json")]) == 3
    assert capsys.readouterr().err.splitlines() == ["mismatch: 'values' at inf is not 0"]
    assert not (tmp_path / "back.json").exists()


def test_partial_plan_value_file_with_an_a0_is_a_mismatch(tmp_path, capsys):
    """A partial plan carries no top coefficient, so q1_fft writes no a0 and
    a file with one used to invert like the true file, the a0 dropped."""
    plan, _, plan_path, _, obj = _cyclic_value_file(tmp_path, 383, (2,) * 5, 11)
    assert not plan.is_full and "a0" not in obj
    obj["a0"] = 5
    with pytest.raises(MismatchError, match="a partial plan's values carry no 'a0'"):
        fileio.values_from_json(plan.field, obj, plan)
    values = tmp_path / "v.json"
    values.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["ifft", "--plan", str(plan_path), "--in", str(values),
                     "--out", str(tmp_path / "back.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "mismatch: a partial plan's values carry no 'a0'"]
    assert not (tmp_path / "back.json").exists()


@pytest.mark.parametrize("q, radices, edit, error", [
    (23, (2, 2, 2, 3), {}, None),
    (23, (2, 2, 2, 3), {"inf": 7}, "'values' at inf is not 0"),
    (383, (2,) * 5, {"a0": 5}, "a partial plan's values carry no 'a0'"),
], ids=["full-with-a0", "full-nonzero-inf", "partial-with-a0"])
def test_list_form_cyclic_value_file_is_read_as_the_keyed_form(tmp_path, capsys, q, radices,
                                                               edit, error):
    """Maps given as lists in plan point order are read on the keyed form's
    path: a full plan's a0 is kept (gfft ifft used to exit 2 without it), and
    a nonzero value at inf or a partial plan's a0 is a mismatch (both used to
    be read, the first exiting 2 and the second inverting with exit 0)."""
    plan, ev, plan_path, cz, obj = _cyclic_value_file(tmp_path, q, radices, 13)
    obj = _listed(obj)
    if "inf" in edit:
        obj["values"][0] = edit["inf"]
    if "a0" in edit:
        obj["a0"] = edit["a0"]
    values, out = tmp_path / "v.json", tmp_path / "back.json"
    values.write_text(json.dumps(obj))
    argv = ["ifft", "--plan", str(plan_path), "--in", str(values), "--out", str(out)]
    if error is None:
        back = fileio.values_from_json(plan.field, obj, plan)
        assert (back, back.tilde, back.a0) == (ev, ev.tilde, ev.a0)
        assert cli.main(argv) == 0
        assert out.read_text() == cz.read_text()
        return
    with pytest.raises(MismatchError, match=error):
        fileio.values_from_json(plan.field, obj, plan)
    capsys.readouterr()
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.splitlines() == [f"mismatch: {error}"]
    assert not out.exists()


def test_plan_json_roundtrip_all_cases(F17, F9):
    F23 = field_make(23)
    plans = [
        mult_plan(F17, (2, 2, 2, 2)),
        add_plan(F9, [1, 3]),
        cyclic_plan(F23, (2, 2, 2, 3)),
    ]
    for plan in plans:
        obj = fileio.plan_to_json(plan)
        back = fileio.plan_from_json(json.loads(json.dumps(obj)))
        assert type(back) is type(plan)
        assert back.points == plan.points


def test_plan_tamper_detected(F17):
    obj = fileio.plan_to_json(mult_plan(F17, (2, 2)))
    obj["tables"]["points"][0] = 99
    with pytest.raises(MismatchError):
        fileio.plan_from_json(obj)


def test_keyed_values_and_unknown_case_refused(F17):
    with pytest.raises(ValidationError, match="keyed value files need a cyclic plan"):
        fileio.values_from_json(F17, {"values": {"1": 2}}, mult_plan(F17, (2, 2)))
    obj = fileio.plan_to_json(mult_plan(F17, (2, 2)))
    obj["case"] = "dyadic"
    with pytest.raises(ValidationError, match="unknown plan case 'dyadic'"):
        fileio.plan_from_json(obj)


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["cyclic-23-full", "cyclic-383-n32"])
def test_plan_file_with_stored_tower_num_loads(tmp_path, name):
    """Plan, coefficient and value files written by the previous writer,
    whose cyclic tables still held tower_num (the degree-n tower numerator):
    the file loads, the key is ignored, and the transform is bit-identical."""
    plan_path = DATA / f"{name}.plan.json"
    obj = json.loads(plan_path.read_text())
    stored = obj["tables"]
    plan = fileio.plan_from_json(obj)
    fresh = fileio.plan_to_json(plan)["tables"]
    assert "tower_num" not in fresh
    assert fresh == {k: v for k, v in stored.items() if k != "tower_num"}
    tower_num = cyclic_tower(plan)[-1].num
    assert stored["tower_num"] == [plan.field.serialize_raw(c) for c in tower_num.coeffs]
    # the stored key is not diffed; level_nums still is
    obj["tables"]["tower_num"] = [0]
    fileio.plan_from_json(obj)
    obj["tables"]["level_nums"][0][0] += 1
    with pytest.raises(MismatchError):
        fileio.plan_from_json(obj)
    out = tmp_path / "v.json"
    assert cli.main(["fft", "--plan", str(plan_path), "--in", str(DATA / f"{name}.coeffs.json"),
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == json.loads((DATA / f"{name}.fft.json").read_text())


def test_cli_plan_summary_and_error(tmp_path):
    out = tmp_path / "plan.json"
    r = run_cli("plan", "--case", "cyclic", "--p", "127",
                "--radices", "2,2,2,2,2,2,2", "--m", "126,3", "--out", str(out))
    assert r.returncode == 0
    assert "Q = x^2+42x+85" in r.stdout
    assert "pole-fiber constants = [54, 77, 51, 108, 27, 102, 89]" in r.stdout
    assert out.exists()
    r = run_cli("plan", "--case", "mult", "--p", "17", "--radices", "3")
    assert r.returncode == 2
    assert "RadixNotDividingGroupOrder" in r.stderr


def test_cli_fft_ifft_convert_roundtrip(tmp_path):
    plan_path = tmp_path / "plan.json"
    r = run_cli("plan", "--case", "cyclic", "--p", "127",
                "--radices", "2,2,2,2,2,2,2", "--m", "126,3", "--out", str(plan_path))
    assert r.returncode == 0
    coeffs_path = tmp_path / "t2.json"
    coeffs_path.write_text(json.dumps({"basis": "cyclic-z", "coeffs": list(WORKED_COEFFS)}))
    vals_path = tmp_path / "vals.json"
    r = run_cli("fft", "--plan", str(plan_path), "--in", str(coeffs_path),
                "--out", str(vals_path), "--count-ops")
    assert r.returncode == 0
    assert "ops:" in r.stderr
    vals = json.loads(vals_path.read_text())
    expected = {str(a): (f, t) for a, f, t in WORKED_VALUES}
    assert all((vals["values"][k], vals["tilde"][k]) == expected[k] for k in expected)
    back_path = tmp_path / "back.json"
    r = run_cli("ifft", "--plan", str(plan_path), "--in", str(vals_path),
                "--out", str(back_path))
    assert r.returncode == 0
    assert json.loads(back_path.read_text())["coeffs"] == list(WORKED_COEFFS)
    # convert the zero vector there and back
    zero_path = tmp_path / "zero.json"
    zero_path.write_text(json.dumps({"basis": "cyclic-z", "coeffs": [0] * 128}))
    conv_path = tmp_path / "std.json"
    r = run_cli("convert", "--plan", str(plan_path), "--to", "standard",
                "--in", str(zero_path), "--out", str(conv_path))
    assert r.returncode == 0
    assert json.loads(conv_path.read_text())["coeffs"] == [0] * 128


@pytest.mark.parametrize("case", ["non-integer", "non-json", "missing-file", "bench-no-p",
                                  "basis-unclosed", "out-of-range", "m-short",
                                  "radices-not-list", "string-entry", "modulus-out-of-range",
                                  "beta-out-of-range", "m-one-entry", "m-out-of-range",
                                  "p-beyond-bound", "add-n-beyond-bound",
                                  "fiber-not-a-value", "fiber-on-full-plan",
                                  "inf-fiber-on-partial-plan", "radices-on-add", "fiber-on-mult",
                                  "beta-on-cyclic", "m-on-mult", "basis-on-mult",
                                  "basis-on-cyclic", "add-ladder-beyond-q", "ladder-zero",
                                  "ladder-negative", "ladder-beyond-bound", "beta-two-values",
                                  "fiber-not-json"])
def test_cli_bad_input_exits_2(tmp_path, capsys, case):
    plan_path = tmp_path / "plan.json"
    assert cli.main(["plan", "--case", "mult", "--p", "17", "--radices", "2,2",
                     "--out", str(plan_path)]) == 0
    error = "InputError"
    if case == "m-short":
        assert cli.main(["plan", "--case", "cyclic", "--p", "23", "--radices", "2,2,2,3",
                         "--out", str(plan_path)]) == 0
    if case == "modulus-out-of-range":
        # [3, 3, 0, 0, 1] used to reduce to x^4 + x + 1 over F_2, load and exit 0
        assert cli.main(["plan", "--case", "add", "--p", "2", "--r", "4", "--basis", "1,2",
                         "--out", str(plan_path)]) == 0
        plan = json.loads(plan_path.read_text())
        plan["field"]["modulus"] = [3, 3, 0, 0, 1]
        plan_path.write_text(json.dumps(plan))
    if case in ("m-short", "radices-not-list"):
        # a short "m" used to end in an IndexError traceback; "22" used to load as (2, 2)
        plan = json.loads(plan_path.read_text())
        plan.update({"m": [1]} if case == "m-short" else {"radices": "22"})
        plan_path.write_text(json.dumps(plan))
        error = "PlanFileError"
    coeffs_path = tmp_path / "c.json"
    if case == "non-integer":
        coeffs_path.write_text(json.dumps({"coeffs": [1, "x", 3, 4]}))
    elif case == "non-json":
        coeffs_path.write_text("not json")
    elif case == "out-of-range":
        # entries are checked, not reduced mod 17 to [13, 16, 3, 4]
        coeffs_path.write_text(json.dumps({"coeffs": [200, -1, 3, 4]}))
    elif case == "string-entry":
        # used to transform like [3, 1, 0, 2] and exit 0
        coeffs_path.write_text(json.dumps({"coeffs": ["3", " 1", "0", "2"]}))
    elif case == "modulus-out-of-range":
        coeffs_path.write_text(json.dumps({"coeffs": [1, 2, 3, 4]}))
    argv = ["fft", "--plan", str(plan_path), "--in", str(coeffs_path),
            "--out", str(tmp_path / "v.json")]
    if case == "bench-no-p":
        argv = ["bench", "--case", "mult", "--ladder", "4"]
    elif case == "basis-unclosed":
        argv = ["plan", "--case", "add", "--p", "3", "--r", "2", "--basis", "[1,0"]
    elif case == "beta-out-of-range":
        # used to build with beta 35 mod 17 = 1 and exit 0
        argv = ["plan", "--case", "mult", "--p", "17", "--radices", "2,2", "--beta", "35"]
        error = "InvalidFieldValue"
    elif case in ("m-one-entry", "m-out-of-range"):
        # "5" used to end in an IndexError traceback; "24,30" was reduced to (1, 7)
        argv = ["plan", "--case", "cyclic", "--p", "23", "--radices", "2,2,2,3",
                "--m", "5" if case == "m-one-entry" else "24,30"]
        error = "ValidationError" if case == "m-one-entry" else "InvalidFieldValue"
    elif case == "p-beyond-bound":
        # used to run trial division on a prime near 10^18 until killed
        argv = ["plan", "--case", "mult", "--p", "1000000000000000003", "--radices", "2"]
        error = "ValidationError"
    elif case == "add-n-beyond-bound":
        # a single basis element over F_M31 spans 2^31 points
        argv = ["plan", "--case", "add", "--p", "2147483647", "--basis", "1"]
        error = "ValidationError"
    elif case == "fiber-not-a-value":
        # 2^25 fibers over M31 at n = 64, and 5 is none of their values
        argv = ["plan", "--case", "cyclic", "--p", "2147483647", "--radices", "2,2,2,2,2,2",
                "--fiber", "5"]
        error = "ValidationError"
    elif case in ("fiber-on-full-plan", "inf-fiber-on-partial-plan"):
        # n = q+1 used to build the inf fiber for --fiber 5, and n = 8 the
        # default fiber for --fiber inf; each names its case's rule
        argv = ["plan", "--case", "cyclic", "--p", "23", "--radices",
                "2,2,2,3" if case == "fiber-on-full-plan" else "2,2,2",
                "--fiber", "5" if case == "fiber-on-full-plan" else "inf"]
        error = "ValidationError"
    elif case in ("beta-two-values", "fiber-not-json"):
        argv = (["plan", "--case", "mult", "--p", "17", "--radices", "2,2", "--beta", "1,2"]
                if case == "beta-two-values" else
                ["plan", "--case", "cyclic", "--p", "23", "--radices", "2,3", "--fiber", "x"])
        error = "InputError" if case == "beta-two-values" else "InvalidFieldValue"
    elif case == "add-ladder-beyond-q":
        # 32 points need a 5-dimensional subspace of GF(16); the basis element
        # 16 used to be refused as "not a raw value of F_16"
        argv = ["bench", "--case", "add", "--p", "2", "--r", "4", "--ladder", "32"]
        error = "SubspaceTooLarge"
    elif case in ("ladder-zero", "ladder-negative"):
        # used to benchmark a one-point plan and print it as n=1
        argv = ["bench", "--case", "mult", "--p", "17", "--ladder",
                "0" if case == "ladder-zero" else "-4"]
        error = "ValidationError"
    elif case == "ladder-beyond-bound":
        # refused before it is factored: trial division up to 1e9 used to
        # run for minutes
        argv = ["bench", "--case", "mult", "--p", "17", "--ladder", str(10**18 + 3)]
        error = "ValidationError"
    elif case.split("-on-")[0] in ("radices", "fiber", "beta", "m", "basis"):
        # an option of another case used to be dropped, with exit 0
        option, plan_case = case.split("-on-")
        argv = ["plan", "--case", plan_case, "--p", "2", "--r", "4",
                {"add": "--basis", "mult": "--radices", "cyclic": "--radices"}[plan_case],
                {"add": "1,2", "mult": "3,5", "cyclic": "17"}[plan_case],
                f"--{option}", {"radices": "2,2,2", "basis": "1,2"}.get(option, "1")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {error}:"), err


def test_cli_ifft_refuses_values_of_a_larger_plan(tmp_path, capsys):
    # the full F_23 plan's values hold every point of the partial (2, 3)
    # plan and more; they used to invert on it to 6 coefficients, exit 0
    full, part = tmp_path / "full.json", tmp_path / "part.json"
    cz, fv = tmp_path / "cz.json", tmp_path / "fv.json"
    assert cli.main(["plan", "--case", "cyclic", "--p", "23", "--radices", "2,2,2,3",
                     "--out", str(full)]) == 0
    assert cli.main(["plan", "--case", "cyclic", "--p", "23", "--radices", "2,3",
                     "--out", str(part)]) == 0
    cz.write_text(json.dumps({"basis": "cyclic-z", "coeffs": [i % 23 for i in range(1, 25)]}))
    assert cli.main(["fft", "--plan", str(full), "--in", str(cz), "--out", str(fv)]) == 0
    capsys.readouterr()
    assert cli.main(["ifft", "--plan", str(part), "--in", str(fv),
                     "--out", str(tmp_path / "back.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: PointMismatch: 'values' holds an entry at inf, which is no "
                   "evaluation point of the plan: the file is another plan's"], err
    # the inf key is the full plan's own point
    back = tmp_path / "fullback.json"
    assert cli.main(["ifft", "--plan", str(full), "--in", str(fv), "--out", str(back)]) == 0
    assert json.loads(back.read_text()) == json.loads(cz.read_text())


def test_cli_plan_basis_list_form(tmp_path):
    # extension-field elements as digit lists, the same form plan files use
    for basis in ("[1,0],[0,1]", "1,3"):
        out = tmp_path / "plan.json"
        assert cli.main(["plan", "--case", "add", "--p", "3", "--r", "2",
                         "--basis", basis, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["basis"] == [[1, 0], [0, 1]]


def test_cli_plan_options_take_the_plan_file_forms(tmp_path, capsys):
    """--m, --fiber and --beta read the values a plan file holds, as --basis
    does: digit lists over an extension field, and inf for a fiber."""
    def plan(*opts):
        out = tmp_path / "plan.json"
        assert cli.main(["plan", *opts, "--out", str(out)]) == 0
        return out.read_text()

    gf81 = ("--case", "cyclic", "--p", "3", "--r", "4", "--radices", "41")
    text = plan(*gf81)
    obj = json.loads(text)
    assert obj["m"] == [[1, 0, 0, 0], [1, 1, 0, 0]] and obj["fiber"] == [0, 2, 1, 2]
    m = ",".join(json.dumps(v) for v in obj["m"])
    # these used to end in "InputError: expected an integer, got '[1'"
    assert plan(*gf81, "--m", m, "--fiber", json.dumps(obj["fiber"])) == text
    for radices in ("2,3", "2,2,2,3"):  # a partial plan's fiber value, a full plan's inf
        f23 = ("--case", "cyclic", "--p", "23", "--radices", radices)
        text = plan(*f23)
        assert plan(*f23, "--fiber", str(json.loads(text)["fiber"])) == text
    gf9 = ("--case", "mult", "--p", "3", "--r", "2", "--radices", "2,2")
    text = plan(*gf9, "--beta", "3")
    assert json.loads(text)["beta"] == [0, 1]
    assert plan(*gf9, "--beta", "[0,1]") == text  # argparse used to refuse it
    obj = fileio.plan_to_json(cyclic_plan(field_make(23), (2, 3)))
    obj["fiber"] = str(obj["fiber"])  # a plan file holds the value, not its text
    with pytest.raises(ValidationError, match="is not an integer"):
        fileio.plan_from_json(obj)
    capsys.readouterr()
    assert cli.main(["plan", "--case", "cyclic", "--p", "7", "--radices", "2,2",
                     "--fiber", "inf"]) == 2
    assert capsys.readouterr().err == (
        "error: ValidationError: a partial plan's fiber is a finite value, not inf\n")


def test_cli_bench_ladders():
    r = run_cli("bench", "--case", "mult", "--p", "257", "--ladder", "8,16,32,64")
    assert r.returncode == 0
    lines = [l for l in r.stdout.splitlines() if l.strip().startswith("n=")]
    assert len(lines) == 4
    ratios = [float(l.split()[-1]) for l in lines[1:]]
    # butterfly counts are exactly 2n*log2(n), so ratios are 2(k+1)/k
    assert ratios == sorted(ratios, reverse=True)
    assert all(rt <= 2.5 for rt in ratios[1:]) and ratios[0] <= 2.7
    r = run_cli("bench", "--case", "cyclic", "--fields", "7,31,127")
    assert r.returncode == 0
    assert "q=127" in r.stdout
    r = run_cli("bench", "--case", "add", "--p", "3", "--r", "4", "--ladder", "9,27")
    assert r.returncode == 0
    assert [l.split()[0] for l in r.stdout.splitlines()[1:]] == ["n=9", "n=27"]


def test_cli_repro127_reports_and_exit():
    r = run_cli("repro127")
    assert "128/128 evaluation pairs match" in r.stdout
    assert "[FAIL]" not in r.stdout
    assert "worked example reproduced exactly" in r.stdout
    r2 = run_cli("repro127")
    assert r.stdout == r2.stdout
    assert r.returncode == r2.returncode == 0


CLI_PLANS = {
    "mult": ["--case", "mult", "--p", "17", "--radices", "2,2,2,2"],
    "add": ["--case", "add", "--p", "3", "--r", "2", "--basis", "1,3"],
    "cyclic": ["--case", "cyclic", "--p", "23", "--radices", "2,2,2,3"],
}


@pytest.mark.parametrize("case", sorted(CLI_PLANS))
def test_cli_contract_all_cases(tmp_path, capsys, case):
    plan_path = str(tmp_path / "plan.json")
    assert cli.main(["plan", *CLI_PLANS[case], "--out", plan_path]) == 0
    plan = fileio.plan_from_json(json.loads(Path(plan_path).read_text()))
    native = {"mult": "standard", "add": "lch", "cyclic": "cyclic-z"}[case]
    coeffs = [(7 * i + 3) % plan.field.q for i in range(plan.n)]
    src = tmp_path / "c.json"
    src.write_text(json.dumps(fileio.coeffs_to_json(plan.field, CoeffVec(tuple(coeffs), native))))

    def run(*argv):
        capsys.readouterr()
        rc = cli.main(list(argv))
        return rc, capsys.readouterr().err.splitlines()

    vals, back = str(tmp_path / "v.json"), str(tmp_path / "back.json")
    assert run("fft", "--plan", plan_path, "--in", str(src), "--out", vals)[0] == 0
    assert run("ifft", "--plan", plan_path, "--in", vals, "--out", back)[0] == 0
    assert json.loads(Path(back).read_text()) == json.loads(src.read_text())

    std, again = str(tmp_path / "std.json"), str(tmp_path / "again.json")
    if case == "mult":
        rc, err = run("convert", "--plan", plan_path, "--to", "standard",
                      "--in", str(src), "--out", std)
        assert rc == 2 and len(err) == 1 and err[0].startswith("error: ValidationError:"), err
        return
    assert run("convert", "--plan", plan_path, "--to", "standard",
               "--in", str(src), "--out", std)[0] == 0
    assert json.loads(Path(std).read_text())["basis"] == "standard"
    assert run("convert", "--plan", plan_path, "--to", native, "--in", std, "--out", again)[0] == 0
    assert json.loads(Path(again).read_text()) == json.loads(src.read_text())
    if case == "cyclic":
        rc, err = run("convert", "--plan", plan_path, "--to", "lch",
                      "--in", str(src), "--out", std)
        assert rc == 2 and len(err) == 1 and err[0].startswith("error: ValidationError:"), err


def test_cli_plan_summary_in_process(capsys):
    # the summary goes to the sys.stdout of the call, not of the import
    assert cli.main(["plan", *CLI_PLANS["add"]]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "additive plan: n=9 basis=[1, 3]", "betas = [1, 2]",
        "ell_0 = x", "ell_1 = x^3+2x", "ell_2 = x^9+2x"]
    # a cyclic plan without radices has no x_1 line, and no traceback
    assert cli.main(["plan", "--case", "cyclic", "--p", "7", "--radices", ""]) == 0
    assert "x_1" not in capsys.readouterr().out


def _add_plan_and_csv(tmp_path):
    """A GF(9) additive plan file and an lch coefficient CSV file under it."""
    plan_path = str(tmp_path / "plan.json")
    assert cli.main(["plan", *CLI_PLANS["add"], "--out", plan_path]) == 0
    lch = tmp_path / "lch.csv"
    lch.write_text("".join(f"{i % 3}:{i // 3 % 3}\n" for i in range(9)))
    return plan_path, lch


def test_cli_ifft_reads_fft_csv(tmp_path):
    plan_path, lch = _add_plan_and_csv(tmp_path)
    vals, back = str(tmp_path / "v.txt"), str(tmp_path / "back.txt")
    assert cli.main(["fft", "--plan", plan_path, "--in", str(lch), "--out", vals,
                     "--format", "csv"]) == 0
    assert cli.main(["ifft", "--plan", plan_path, "--in", vals, "--out", back,
                     "--format", "csv"]) == 0
    assert Path(back).read_text() == lch.read_text()


def test_cli_ifft_csv_refuses_cyclic_plan(tmp_path, capsys):
    # keyed cyclic values stay JSON-only
    plan_path = str(tmp_path / "plan.json")
    assert cli.main(["plan", *CLI_PLANS["cyclic"], "--out", plan_path]) == 0
    vals = tmp_path / "v.csv"
    vals.write_text("1\n" * 24)
    capsys.readouterr()
    assert cli.main(["ifft", "--plan", plan_path, "--in", str(vals),
                     "--out", str(tmp_path / "back.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValidationError:"), err


def test_cli_convert_writes_csv_by_suffix(tmp_path):
    plan_path, lch = _add_plan_and_csv(tmp_path)
    std_csv, std_json = str(tmp_path / "std.csv"), str(tmp_path / "std.json")
    for out in (std_csv, std_json):
        assert cli.main(["convert", "--plan", plan_path, "--to", "standard",
                         "--in", str(lch), "--out", out]) == 0
    F9 = field_make(3, 2)
    std = fileio.coeffs_from_json(F9, json.loads(Path(std_json).read_text()))
    assert std.basis == "standard"
    assert Path(std_csv).read_text() == fileio.coeffs_to_csv(F9, std)


def test_cli_convert_csv_input_takes_the_other_basis(tmp_path):
    plan_path, lch = _add_plan_and_csv(tmp_path)
    std, back = str(tmp_path / "std.txt"), str(tmp_path / "back.txt")
    assert cli.main(["convert", "--plan", plan_path, "--to", "standard",
                     "--in", str(lch), "--out", std, "--format", "csv"]) == 0
    assert cli.main(["convert", "--plan", plan_path, "--to", "lch",
                     "--in", std, "--out", back, "--format", "csv"]) == 0
    assert Path(back).read_text() == lch.read_text()
    assert Path(std).read_text() != lch.read_text()


def test_cli_output_refused_exits_2_and_keeps_the_file(tmp_path, capsys):
    # an unwritable --out used to end in a FileNotFoundError traceback (exit
    # 1), and a CSV --out for keyed cyclic values used to be emptied before
    # the refusal
    plan_path, cz = str(tmp_path / "plan.json"), tmp_path / "cz.json"
    assert cli.main(["plan", *CLI_PLANS["cyclic"], "--out", plan_path]) == 0
    cz.write_text(json.dumps({"basis": "cyclic-z", "coeffs": [i % 23 for i in range(1, 25)]}))
    missing = str(tmp_path / "missing" / "out.json")
    kept = tmp_path / "v.csv"
    kept.write_text("1\n2\n3\n")
    for argv, error in (
            (["plan", *CLI_PLANS["mult"], "--out", missing], "InputError: cannot write"),
            (["fft", "--plan", plan_path, "--in", str(cz), "--out", missing],
             "InputError: cannot write"),
            (["fft", "--plan", plan_path, "--in", str(cz), "--out", str(kept)],
             "ValidationError: keyed cyclic values")):
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {error}"), err
    assert kept.read_text() == "1\n2\n3\n"


def test_cli_count_ops_on_fft_and_ifft(tmp_path, capsys):
    """--count-ops counts the whole transform call (ifft used to accept it
    and print nothing).  A command reloads its plan, so the ifft's line also
    counts the Newton data that its first inverse builds: 15 subs for the
    node differences of the 8 + 4 + 2 + 1 fibers, and one batched inversion
    a level, 3(N - 1) muls for N fibers, over the transform's 64 and 64."""
    plan_path, src = str(tmp_path / "plan.json"), tmp_path / "c.json"
    vals, back = str(tmp_path / "v.json"), str(tmp_path / "back.json")
    assert cli.main(["plan", *CLI_PLANS["mult"], "--out", plan_path]) == 0
    src.write_text(json.dumps({"coeffs": list(range(16))}))
    capsys.readouterr()
    for argv, line in ((["fft", "--in", str(src), "--out", vals], "adds=64 muls=64 invs=0"),
                       (["ifft", "--in", vals, "--out", back], "adds=79 muls=97 invs=4")):
        assert cli.main([*argv, "--plan", plan_path, "--count-ops"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ops: {line} wall="), err
    assert json.loads(Path(back).read_text())["coeffs"] == list(range(16))


def _writer_plans():
    return [mult_plan(field_make(17), (2, 2, 2, 2)), mult_plan(field_make(3, 2), (2, 2), 3),
            add_plan(field_make(3, 2), [1, 3]), add_plan(field_make(2, 4), [1, 2]),
            cyclic_plan(field_make(23), (2, 2, 2, 3)), cyclic_plan(field_make(383), (2,) * 5),
            cyclic_plan(field_make(3, 4), (41,)), cyclic_plan(field_make(2, 4), (17,))]


def test_json_text_is_the_indented_dumps():
    """The CLI writes every JSON file through cli._json_text, whose text is
    json.dumps(obj, indent=1) exactly: plan, value and coefficient objects
    over prime and extension fields (nested digit lists), keyed cyclic value
    files with and without a0, and empty lists and maps."""
    objs = []
    for plan in _writer_plans():
        field = plan.field
        objs.append(fileio.plan_to_json(plan))
        coeffs = [(3 * i + 1) % field.q for i in range(plan.n)]
        values = plan.fft(coeffs)
        objs.append(fileio.values_to_json(field, values))
        objs.append(fileio.coeffs_to_json(field, plan.ifft(values)))
        objs.append(fileio.coeffs_to_json(field, CoeffVec((), plan.basis)))
    assert {"a0" in obj for obj in objs if "tilde" in obj} == {True, False}
    assert any(isinstance(obj["values"], list) for obj in objs if "values" in obj)
    objs += [{}, [], {"values": {}, "tilde": {}}, [[], {}], {"a": [[], [1]], "b": "\u00e9\n"}]
    for obj in objs:
        assert cli._json_text(obj) == json.dumps(obj, indent=1), obj


@pytest.mark.parametrize("plan", _writer_plans(), ids=repr)
def test_reloaded_plan_builds_only_what_fft_reads(plan):
    """A gfft command reloads its plan, and an fft on it builds no table of
    the inverse or of the conversions: no level's Newton data, no 1 / scale
    and no fiber table.  Its first ifft builds the Newton data."""
    reloaded = fileio.plan_from_json(json.loads(cli._json_text(fileio.plan_to_json(plan))))
    values = reloaded.fft([(5 * i + 2) % plan.field.q for i in range(plan.n)])
    assert all(lv.newton is None and lv.inv_diag is None for lv in reloaded.kernel)
    lazy = {"inv_scales", "fiber_tables", "class_table", "mult_route"}
    assert not lazy & set(vars(reloaded))
    reloaded.ifft(values)
    assert all(lv.newton is not None for lv in reloaded.kernel)


def test_cli_tampered_plan_file_exits_3(tmp_path, capsys):
    plan_path, src = tmp_path / "plan.json", tmp_path / "c.json"
    assert cli.main(["plan", *CLI_PLANS["mult"], "--out", str(plan_path)]) == 0
    plan = json.loads(plan_path.read_text())
    plan["tables"]["points"][0] = (plan["tables"]["points"][0] + 1) % 17
    plan_path.write_text(json.dumps(plan))
    src.write_text(json.dumps({"coeffs": list(range(16))}))
    capsys.readouterr()
    assert cli.main(["fft", "--plan", str(plan_path), "--in", str(src),
                     "--out", str(tmp_path / "v.json")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mismatch: plan table 'points'"), err


@pytest.mark.parametrize("table", ["scale_const", "pole_consts"])
def test_cli_tampered_cyclic_plan_file_exits_3(tmp_path, capsys, table):
    """A plan file is rebuilt and diffed in full at load, whatever tables
    the command then builds on first use."""
    plan_path, src = tmp_path / "plan.json", tmp_path / "c.json"
    assert cli.main(["plan", *CLI_PLANS["cyclic"], "--out", str(plan_path)]) == 0
    plan = json.loads(plan_path.read_text())
    tables = plan["tables"]
    if table == "scale_const":
        tables["scale_const"] = (tables["scale_const"] + 1) % 23
    else:
        key = sorted(tables["pole_consts"])[0]
        tables["pole_consts"][key] = (tables["pole_consts"][key] + 1) % 23
    plan_path.write_text(json.dumps(plan))
    src.write_text(json.dumps({"basis": "cyclic-z", "coeffs": list(range(24))}))
    capsys.readouterr()
    for cmd in ("fft", "ifft"):
        assert cli.main([cmd, "--plan", str(plan_path), "--in", str(src),
                         "--out", str(tmp_path / "v.json")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"mismatch: plan table {table!r}"), err


@pytest.mark.parametrize("edit, message", [
    ("point-on-the-fiber", "not at the least place of its fiber"),
    ("point-off-the-fiber", "off the stored fiber 216"),
    ("another-fiber", "starts at 0, off the stored fiber 218"),
])
def test_cli_refuses_an_edited_start_place(tmp_path, capsys, edit, message):
    """A reload starts at the plan file's first point, so gfft fft refuses a
    file whose first point or fiber was edited, as a mismatch (exit 3) like
    any other table that disagrees with the plan: a later place of the same
    fiber, a place off the fiber, and another fiber's value."""
    plan_path, src = tmp_path / "plan.json", tmp_path / "c.json"
    assert cli.main(["plan", "--case", "cyclic", "--p", "383", "--radices", "2,2,2,2,2,2,2",
                     "--out", str(plan_path)]) == 0
    obj = json.loads(plan_path.read_text())
    plan = fileio.plan_from_json(obj)
    assert fileio.plan_to_json(plan) == obj and obj["fiber"] == 216
    points = obj["tables"]["points"]
    if edit == "point-on-the-fiber":
        points[0] = points[1]
    elif edit == "point-off-the-fiber":
        points[0] = next(x for x in range(383) if x not in points)
    else:
        other = cyclic_plan(plan.field, (2,) * 7, fiber_key=plan.lifts[-1](216))
        assert other.bucket_key == 218 and points[0] == 0
        obj["fiber"] = other.bucket_key
    plan_path.write_text(json.dumps(obj))
    src.write_text(json.dumps({"basis": "cyclic-z", "coeffs": list(range(128))}))
    capsys.readouterr()
    assert cli.main(["fft", "--plan", str(plan_path), "--in", str(src),
                     "--out", str(tmp_path / "v.json")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mismatch: plan table 'points' starts at"), err
    assert message in err[0], err


@pytest.mark.parametrize("tables", [[], "x", 5])
@pytest.mark.parametrize("case", sorted(CLI_PLANS))
def test_cli_refuses_tables_that_are_not_an_object(tmp_path, capsys, case, tables):
    """A plan file's tables are diffed against the rebuilt plan, so a
    "tables" entry that is no object is refused (exit 2), not loaded with no
    table diffed ([] and "x" used to exit 0, 5 to fail on a raw TypeError)."""
    plan_path = tmp_path / "plan.json"
    assert cli.main(["plan", *CLI_PLANS[case], "--out", str(plan_path)]) == 0
    obj = json.loads(plan_path.read_text())
    obj["tables"] = tables
    plan_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["fft", "--plan", str(plan_path), "--in", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "v.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: PlanFileError: plan entry 'tables' must be an object, "
                   f"got {tables!r}"], err


def _main_output(capsys, argv):
    """(exit code, stdout, stderr) of one cli.main call, SystemExit included."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def test_cli_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    """main builds its argparse parser on the first call only; every later
    command, --help and bad commands included, prints and exits exactly as
    the first did, and a command's options do not leak into the next."""
    plan_path, src = str(tmp_path / "plan.json"), tmp_path / "c.json"
    assert cli.main(["plan", *CLI_PLANS["mult"], "--out", plan_path]) == 0
    src.write_text(json.dumps({"coeffs": list(range(16))}))
    fft = ["fft", "--plan", plan_path, "--in", str(src), "--out", str(tmp_path / "v.json")]
    commands = [(["--help"], 0), (["fft", "--help"], 0), (["nosuchcmd"], 2), (["fft"], 2),
                ([*fft, "--count-ops"], 0), (fft, 0)]
    cli.build_parser.cache_clear()
    capsys.readouterr()
    first = [_main_output(capsys, argv) for argv, _ in commands]
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    second = [_main_output(capsys, argv) for argv, _ in commands]
    assert built == []
    wall = re.compile(r"wall=[0-9.]+s")
    for (argv, code), a, b in zip(commands, first, second):
        assert a[0] == code, (argv, a)
        assert (a[0], a[1], wall.sub("wall", a[2])) == (b[0], b[1], wall.sub("wall", b[2])), argv
    assert first[0][1].startswith("usage: gfft") and "ops:" not in first[-1][2] + second[-1][2]
    assert second[-2][2].startswith("ops: adds=64 muls=64 invs=0 wall=")
