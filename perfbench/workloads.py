"""The four workloads.  Each drives gfft's public API (or gfft.cli.main) and
returns exactly what the program produced; the harness times and checks.

Every op method takes `timed`, a context manager factory from the harness,
and wraps only the call into gfft in it, so file writes, input generation
and output parsing stay outside the timed region.

A workload object holds:
  name, n               workload name, transform length
  conv_share            share of the run given to conversion rounds
  build(timed)          one set-up: fresh field + plan; returns the state
  make_input(rng)       native-basis coefficients (list of ints)
  fft / ifft            state, input -> output (values, native coefficients)
  to_std / from_std     native <-> standard coefficients (None on mult)
  checkpoints(state, values)  [(finite point, value)] for Horner checks
  horner_field          the field Horner checks evaluate over
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import gfft as G


class _Workload:
    """What every workload shares: inputs are uniform raw field values, and
    Horner checks evaluate over a field of their own."""

    field_args = ()  # field_make arguments
    to_std = from_std = None

    def __init__(self, workdir):
        self.horner_field = G.field_make(*self.field_args)
        self.q = self.horner_field.q

    def make_input(self, rng):
        return [rng.randrange(self.q) for _ in range(self.n)]

    def fields(self, plan):
        """Fields the op computes in, for op counting."""
        return (plan.field,)

    def checkpoints(self, plan, values):
        return list(zip(plan.points, values))


class MultWorkload(_Workload):
    """F_65537, radices 2^12: gf's prime path and engine's stride recursion."""

    name = "mult-65537-n4096"
    n = 4096
    conv_share = 0.0
    field_args = (65537,)

    def build(self, timed):
        with timed("setup"):
            field = G.field_make(*self.field_args)
            plan = G.mult_plan(field, [2] * 12)
        return plan

    def fft(self, plan, coeffs, timed):
        with timed("fft"):
            out = G.mult_fft(plan, coeffs)
        return list(out)

    def ifft(self, plan, values, timed):
        with timed("ifft"):
            out = G.mult_ifft(plan, values)
        return list(out.values)


class AddWorkload(_Workload):
    """GF(2^12), basis 1, 2, ..., 2^9: extension-field gf path, engine block
    mode and the afft conversions."""

    name = "add-2e12-n1024"
    n = 1024
    conv_share = 0.6
    field_args = (2, 12)

    def build(self, timed):
        with timed("setup"):
            field = G.field_make(*self.field_args)
            plan = G.add_plan(field, [1 << i for i in range(10)])
        return plan

    def fft(self, plan, coeffs, timed):
        with timed("fft"):
            out = G.add_fft(plan, coeffs)
        return list(out)

    def ifft(self, plan, values, timed):
        with timed("ifft"):
            out = G.add_ifft(plan, values)
        return list(out.values)

    def to_std(self, plan, coeffs, timed):
        vec = G.CoeffVec(tuple(coeffs), G.BASIS_LCH)
        with timed("to_std"):
            out = G.lch_to_standard(plan, vec)
        return list(out.values)

    def from_std(self, plan, std, timed):
        vec = G.CoeffVec(tuple(std), G.BASIS_STANDARD)
        with timed("from_std"):
            out = G.standard_to_lch(plan, vec)
        return list(out.values)


class CyclicWorkload(_Workload):
    """F_191, n = q+1 = 192 = 2^6 * 3: the full cycle with the infinity-fiber
    constant paths; set-up is mostly the symbolic tower."""

    name = "cyclic-191-n192"
    n = 192
    conv_share = 0.7
    field_args = (191,)

    def build(self, timed):
        with timed("setup"):
            field = G.field_make(*self.field_args)
            plan = G.cyclic_plan(field, [2] * 6 + [3])
        return plan

    def fft(self, plan, coeffs, timed):
        vec = G.CoeffVec(tuple(coeffs), G.BASIS_CYCLIC)
        with timed("fft"):
            out = G.q1_fft(plan, vec)
        return out

    def ifft(self, plan, values, timed):
        with timed("ifft"):
            out = G.q1_ifft(plan, values)
        return list(out.values)

    def to_std(self, plan, coeffs, timed):
        vec = G.CoeffVec(tuple(coeffs), G.BASIS_CYCLIC)
        with timed("to_std"):
            out = G.tilde_to_std(plan, vec)
        return list(out.values)

    def from_std(self, plan, std, timed):
        vec = G.CoeffVec(tuple(std), G.BASIS_STANDARD)
        with timed("from_std"):
            out = G.std_to_tilde(plan, vec)
        return list(out.values)

    def checkpoints(self, plan, values):
        # the slot at infinity holds the structural 0, not a polynomial value
        return [(pt, v) for pt, v in zip(values.points, values.values) if pt is not G.INF]


class _FollowStdout:
    """Writes to whatever sys.stdout is when write is called.

    gfft.cli binds sys.stdout as a default argument when it is imported, so
    redirect_stdout does not capture `gfft plan`'s summary.  Importing
    gfft.cli while this object stands in for sys.stdout makes that bound
    default follow later redirections.
    """

    def __init__(self, real):
        self._real = real

    def _target(self):
        out = sys.stdout
        return self._real if out is self else out

    def write(self, text):
        return self._target().write(text)

    def flush(self):
        self._target().flush()


def import_cli_following_stdout():
    """Import gfft.cli so that all its output can be redirected."""
    if "gfft.cli" in sys.modules:
        return sys.modules["gfft.cli"]
    real = sys.stdout
    sys.stdout = _FollowStdout(real)
    try:
        import gfft.cli as mod
    finally:
        sys.stdout = real
    return mod


class CliWorkload(_Workload):
    """The same operations as `gfft` commands on JSON files, in-process, on a
    partial cyclic fiber: q = 383, n = 128, radices 2^7, default fiber.  The
    state is the plan file's path."""

    name = "cli-383-n128"
    n = 128
    conv_share = 0.5
    field_args = (383,)

    def __init__(self, workdir):
        super().__init__(workdir)
        self.cli = import_cli_following_stdout()
        self.dir = workdir
        self.plan_path = os.path.join(workdir, "plan.json")

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _main(self, argv, op, timed):
        files_in = [argv[i + 1] for i, a in enumerate(argv) if a in ("--plan", "--in")]
        file_out = argv[argv.index("--out") + 1]
        with contextlib.redirect_stdout(io.StringIO()), timed(op, files_in, file_out):
            rc = self.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"gfft {argv[0]} exited with {rc}")

    def build(self, timed):
        argv = ["plan", "--case", "cyclic", "--p", str(self.q), "--radices", "2,2,2,2,2,2,2",
                "--out", self.plan_path]
        self._main(argv, "setup", timed)
        return self.plan_path

    def fields(self, plan_path):
        # the CLI makes its fields itself; op counting catches field_make
        return ()

    def _write_coeffs(self, name, coeffs, basis):
        path = self._path(name)
        with open(path, "w") as fh:
            json.dump({"basis": basis, "coeffs": coeffs}, fh)
        return path

    def _read(self, path):
        with open(path) as fh:
            return json.load(fh)

    def fft(self, plan_path, coeffs, timed):
        src = self._write_coeffs("coeffs.json", coeffs, G.BASIS_CYCLIC)
        out = self._path("values.json")
        self._main(["fft", "--plan", plan_path, "--in", src, "--out", out], "fft", timed)
        return self._read(out)

    def ifft(self, plan_path, values, timed):
        src = self._path("values.json")  # the file fft wrote
        out = self._path("back.json")
        self._main(["ifft", "--plan", plan_path, "--in", src, "--out", out], "ifft", timed)
        return self._coeffs_of(self._read(out), G.BASIS_CYCLIC)

    def to_std(self, plan_path, coeffs, timed):
        src = self._write_coeffs("tilde.json", coeffs, G.BASIS_CYCLIC)
        out = self._path("std.json")
        self._main(["convert", "--plan", plan_path, "--to", G.BASIS_STANDARD,
                    "--in", src, "--out", out], "to_std", timed)
        return self._coeffs_of(self._read(out), G.BASIS_STANDARD)

    def from_std(self, plan_path, std, timed):
        src = self._write_coeffs("std_in.json", std, G.BASIS_STANDARD)
        out = self._path("tilde_out.json")
        self._main(["convert", "--plan", plan_path, "--to", G.BASIS_CYCLIC,
                    "--in", src, "--out", out], "from_std", timed)
        return self._coeffs_of(self._read(out), G.BASIS_CYCLIC)

    @staticmethod
    def _coeffs_of(obj, basis):
        if obj.get("basis") != basis:
            raise ValueError(f"expected basis {basis!r}, file says {obj.get('basis')!r}")
        return list(obj["coeffs"])

    def checkpoints(self, plan_path, values):
        # keyed value file: {"values": {"<point>": value, ...}}
        return [(int(k), v) for k, v in values["values"].items() if k != "inf"]


WORKLOADS = {w.name: w for w in (MultWorkload, AddWorkload, CyclicWorkload, CliWorkload)}
