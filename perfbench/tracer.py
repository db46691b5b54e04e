"""Span tracing and op counting by wrapping gfft's public callables.

Nothing inside gfft is edited.  A target is named "module:qualname" (for
example "gfft.linalg:invert" or "gfft.poly:Poly.__mul__").  A module-level
function is replaced in every loaded gfft module that binds it, not only in
the module that defines it: "from .linalg import invert" in engine, cfft and
oracle makes three more bindings.  A method is replaced on its class.
Targets that do not exist (a module or function a later change deleted) are
listed in `absent` instead of failing.  Originals are restored on exit.

A span records name, start, end, parent span, op id and an integer tag (the
`depth` argument of the engine recursions, else -1).  Spans are kept in flat
in-memory columns and written out after the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from array import array

# Layer = the module a target is defined in.  gf's element operations are
# far too fine-grained to wrap; the gf layer is measured by op counts.
SPAN_TARGETS = [
    "gfft.gf:field_make",
    "gfft.gf:find_primitive_element",
    "gfft.gf:find_primitive_quadratic",
    "gfft.engine:forward",
    "gfft.engine:inverse",
    "gfft.engine:build_inverse_locals",
    "gfft.linalg:solve",
    "gfft.linalg:invert",
    "gfft.linalg:nullspace_vector",
    "gfft.linalg:mat_vec",
    "gfft.poly:Poly.from_roots",
    "gfft.poly:Poly.__add__",
    "gfft.poly:Poly.__sub__",
    "gfft.poly:Poly.__neg__",
    "gfft.poly:Poly.__mul__",
    "gfft.poly:Poly.scale",
    "gfft.poly:Poly.__pow__",
    "gfft.poly:Poly.__divmod__",
    "gfft.poly:Poly.__floordiv__",
    "gfft.poly:Poly.__mod__",
    "gfft.poly:Poly.monic",
    "gfft.poly:Poly.gcd",
    "gfft.poly:Poly.eval",
    "gfft.poly:Poly.compose",
    "gfft.poly:Poly.roots",
    "gfft.poly:RatFn.__init__",
    "gfft.poly:RatFn.__add__",
    "gfft.poly:RatFn.__sub__",
    "gfft.poly:RatFn.__mul__",
    "gfft.poly:RatFn.__truediv__",
    "gfft.poly:RatFn.eval_place",
    "gfft.poly:compose_moebius",
    "gfft.poly:mod_inverse",
    "gfft.poly:lagrange_basis_interpolate",
    "gfft.moebius:MoebiusMap.compose",
    "gfft.moebius:MoebiusMap.inverse",
    "gfft.moebius:MoebiusMap.__pow__",
    "gfft.moebius:MoebiusMap.order",
    "gfft.moebius:MoebiusMap.apply",
    "gfft.moebius:MoebiusMap.orbit",
    "gfft.moebius:MoebiusMap.as_ratfn",
    "gfft.moebius:match_moebius",
    "gfft.mfft:mult_plan",
    "gfft.mfft:mult_fft",
    "gfft.mfft:mult_ifft",
    "gfft.afft:add_plan",
    "gfft.afft:add_fft",
    "gfft.afft:add_ifft",
    "gfft.afft:lch_to_standard",
    "gfft.afft:standard_to_lch",
    "gfft.afft:padic_expand",
    "gfft.cfft:cyclic_plan",
    "gfft.cfft:q1_fft",
    "gfft.cfft:q1_ifft",
    "gfft.cfft:tilde_to_std",
    "gfft.cfft:std_to_tilde",
    "gfft.cfft:ratfn_substitute",
    "gfft.fileio:plan_to_json",
    "gfft.fileio:plan_from_json",
    "gfft.fileio:coeffs_to_json",
    "gfft.fileio:coeffs_from_json",
    "gfft.fileio:coeffs_to_csv",
    "gfft.fileio:coeffs_from_csv",
    "gfft.fileio:values_to_json",
    "gfft.fileio:values_from_json",
    "gfft.fileio:values_to_csv",
    "gfft.cli:main",
]

# The `depth` argument's position, for targets whose spans are tagged by it.
DEPTH_ARG = {"gfft.engine:forward": 5, "gfft.engine:inverse": 6}


def layer_of(target: str) -> str:
    return target.split(":")[0].rsplit(".", 1)[-1]


def _resolve(target):
    """(owner, attr, raw) where owner is a class or None for a function."""
    mod_name, qual = target.split(":")
    try:
        mod = importlib.import_module(mod_name)
    except ImportError:
        return None
    parts = qual.split(".")
    owner = mod
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if len(parts) == 1:
        fn = getattr(mod, parts[0], None)
        return None if fn is None else (None, parts[0], fn)
    raw = owner.__dict__.get(parts[-1])
    return None if raw is None else (owner, parts[-1], raw)


@contextlib.contextmanager
def patched(wrappers):
    """Install {target: make_wrapper(fn) -> fn'}; yields the absent targets.

    Functions are rebound in every loaded gfft module (and the package) that
    holds the same object; methods are replaced on the class.
    """
    undo = []
    absent = []
    try:
        for target, make in wrappers.items():
            found = _resolve(target)
            if found is None:
                absent.append(target)
                continue
            owner, attr, raw = found
            if owner is not None:
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(make(raw.__func__))
                else:
                    new = make(raw)
                undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            new = make(raw)
            for name, mod in list(sys.modules.items()):
                if (name == "gfft" or name.startswith("gfft.")) and mod is not None:
                    if mod.__dict__.get(attr) is raw:
                        undo.append((mod, attr, raw))
                        setattr(mod, attr, new)
        yield absent
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


class Tracer:
    """Collects spans in flat columns while installed."""

    def __init__(self, targets=SPAN_TARGETS):
        self.targets = list(targets)
        self.names = []  # name id -> target
        # flat columns keep a few hundred thousand spans small in memory
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.op, self.tag = (array("l") for _ in range(4))
        self.current_op = -1
        self._stack = [-1]
        self.absent = []

    def _wrap(self, target):
        name_id = len(self.names)
        self.names.append(target)
        depth_pos = DEPTH_ARG.get(target)
        start, end, names, parent, ops, tags = (
            self.start, self.end, self.name, self.parent, self.op, self.tag)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = len(start)
                if depth_pos is None:
                    tag = -1
                else:
                    tag = args[depth_pos] if len(args) > depth_pos else kwargs.get("depth", 0)
                names.append(name_id)
                parent.append(stack[-1])
                ops.append(tracer.current_op)
                tags.append(tag)
                end.append(0.0)
                stack.append(sid)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[sid] = clock()
                    stack.pop()

            return wrapper

        return make

    @contextlib.contextmanager
    def installed(self):
        with patched({t: self._wrap(t) for t in self.targets}) as absent:
            self.absent = absent
            yield self

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        selft = array("d", (e - s for s, e in zip(self.start, self.end)))
        for sid, par in enumerate(self.parent):
            if par >= 0:
                selft[par] -= self.end[sid] - self.start[sid]
        return selft

    def by_op(self):
        """{op id: {(layer, tag): self seconds}}."""
        layers = [layer_of(t) for t in self.names]
        out = {}
        for sid, st in enumerate(self.self_times()):
            key = (layers[self.name[sid]], self.tag[sid])
            per_op = out.setdefault(self.op[sid], {})
            per_op[key] = per_op.get(key, 0.0) + st
        return out

    def layer_calls(self):
        """{layer: spans recorded}."""
        out = {}
        for nid in self.name:
            layer = layer_of(self.names[nid])
            out[layer] = out.get(layer, 0) + 1
        return out

    def write(self, path):
        cols = {"names": self.names}
        for key in ("start", "end", "name", "parent", "op", "tag"):
            cols[key] = getattr(self, key).tolist()
        with gzip.open(path, "wt") as fh:
            json.dump(cols, fh)


class OpCounts:
    """Counters installed for one untimed pass.

    gf: every Field scope opened by Field.count_ops is tallied, so a scope the
    CLI opens itself is not lost, and every field made through field_make is
    counted for the whole op.  poly: Poly constructions and RatFn builds whose
    gcd reduction was nontrivial.  afft: padic_expand calls.
    """

    FIELDS = ("adds", "muls", "invs", "poly_new", "ratfn_builds", "ratfn_reduced", "padic_calls")

    def __init__(self):
        self.reset()
        self._scopes = None

    def reset(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def snapshot(self):
        return {name: getattr(self, name) for name in self.FIELDS}

    def _tally_scope(self, count_ops):
        counts = self

        @contextlib.contextmanager
        def wrapper(field):
            with count_ops(field) as ctr:
                try:
                    yield ctr
                finally:
                    counts.adds += ctr.adds
                    counts.muls += ctr.muls
                    counts.invs += ctr.invs

        return wrapper

    def _count_fields(self, field_make):
        counts = self

        @functools.wraps(field_make)
        def wrapper(*args, **kwargs):
            field = field_make(*args, **kwargs)
            if counts._scopes is not None:
                counts._scopes.enter_context(field.count_ops())
            return field

        return wrapper

    def _count_poly(self, init):
        counts = self

        @functools.wraps(init)
        def wrapper(poly, *args, **kwargs):
            counts.poly_new += 1
            return init(poly, *args, **kwargs)

        return wrapper

    def _count_ratfn(self, init):
        counts = self

        @functools.wraps(init)
        def wrapper(rf, field, num, den):
            init(rf, field, num, den)
            counts.ratfn_builds += 1
            if rf.den.degree < den.degree:
                counts.ratfn_reduced += 1

        return wrapper

    def _count_calls(self, fn):
        counts = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts.padic_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        wrappers = {
            "gfft.gf:Field.count_ops": self._tally_scope,
            "gfft.gf:field_make": self._count_fields,
            "gfft.poly:Poly.__init__": self._count_poly,
            "gfft.poly:RatFn.__init__": self._count_ratfn,
            "gfft.afft:padic_expand": self._count_calls,
        }
        with patched(wrappers) as absent:
            self.absent = absent
            yield self

    @contextlib.contextmanager
    def op(self, *fields):
        """Count one op: the given fields plus every field made inside it."""
        self.reset()
        with contextlib.ExitStack() as scopes:
            for field in fields:
                scopes.enter_context(field.count_ops())
            self._scopes = scopes
            try:
                yield self
            finally:
                self._scopes = None
