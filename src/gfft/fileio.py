"""JSON/CSV serialization for coefficient vectors, value vectors, and plans.

Field elements serialize as decimal residues for prime fields and as
little-endian coefficient lists for extensions (":"-joined in CSV cells).
Plan files carry the construction parameters plus derived tables for audit;
loading rebuilds the plan deterministically and diffs any embedded tables
the writer still produces, and refuses a `tables` entry that is no object.
A cyclic plan rebuilds from its stored start place, the first of its stored
points, with no search for the fiber; a start place that is not the least
place of the stored fiber is refused as a mismatch.  A stored table the
writer no longer produces is ignored: cyclic plan files from earlier
versions carry `tower_num`, the degree-n tower numerator, which is a
function of the `level_nums` table that is still written and diffed.
A cyclic value file's maps, point-keyed or lists in plan point order, are read
alike: tilde is value / scale (cfft.q1_tilde) and a full plan's value at inf
is the 0 q1_fft writes, both checked, and a partial plan's a0 is refused.
"""

from __future__ import annotations

from .afft import AddPlan
from .cfft import CyclicPlan, q1_tilde
from .errors import InputError, LengthMismatch, MismatchError, PlanFileError, ValidationError
from .gf import Field, field_make
from .mfft import MultPlan
from .vectors import (BASIS_CYCLIC, BASIS_STANDARD, CoeffVec, CyclicEvalVec, point_in,
                      point_ordered, point_out)


# ---------------------------------------------------------------------------
# coefficient files


def coeffs_to_json(field: Field, vec: CoeffVec) -> dict:
    return {"basis": vec.basis, "coeffs": [field.serialize_raw(v) for v in vec.values]}


def coeffs_from_json(field: Field, obj) -> CoeffVec:
    if not isinstance(obj, dict):
        raise InputError(f"a coefficient file must hold a JSON object, not {type(obj).__name__}")
    basis = obj.get("basis", BASIS_STANDARD)
    return CoeffVec(tuple(field.parse_raw(v) for v in obj["coeffs"]), basis)


def _cell_out(field, raw):
    if field.r == 1:
        return str(raw)
    return ":".join(str(d) for d in field.unpack(raw))


def _cell_in(field, cell):
    cell = cell.strip()
    if ":" in cell:
        return field.parse_raw([int(d) for d in cell.split(":")])
    return field.parse_raw(int(cell))


def coeffs_to_csv(field: Field, vec: CoeffVec) -> str:
    return "\n".join(_cell_out(field, v) for v in vec.values) + "\n"


def coeffs_from_csv(field: Field, text: str, basis=BASIS_STANDARD) -> CoeffVec:
    vals = [_cell_in(field, line) for line in text.splitlines() if line.strip()]
    return CoeffVec(tuple(vals), basis)


# ---------------------------------------------------------------------------
# value files


def values_to_json(field: Field, values) -> dict:
    if isinstance(values, CyclicEvalVec):
        out = {
            "values": {str(point_out(field, p)): field.serialize_raw(v)
                       for p, v in zip(values.points, values.values)},
            "tilde": {str(point_out(field, p)): field.serialize_raw(v)
                      for p, v in zip(values.points, values.tilde)},
        }
        if values.a0 is not None:
            out["a0"] = field.serialize_raw(values.a0)
        return out
    return {"values": [field.serialize_raw(v) for v in values]}


def values_from_json(field: Field, obj, plan=None):
    vals = obj["values"]
    if plan is None or plan.basis != BASIS_CYCLIC:
        if isinstance(vals, dict):
            raise ValidationError("keyed value files need a cyclic plan")
        return [field.parse_raw(v) for v in vals]
    seq = _ordered(field, obj, "values", plan.points)
    if plan.is_full and seq[0]:  # a full plan's points start at inf
        raise MismatchError("'values' at inf is not 0")
    if not plan.is_full and "a0" in obj:
        raise MismatchError("a partial plan's values carry no 'a0'")
    tilde = q1_tilde(plan, seq)
    stored = _ordered(field, obj, "tilde", plan.points) if "tilde" in obj else tilde
    bad = [pt for pt, a, b in zip(plan.points, stored, tilde) if a != b]
    if bad:
        raise MismatchError(f"'tilde' at {point_out(field, bad[0])} is not value / scale")
    a0 = field.parse_raw(obj["a0"]) if "a0" in obj else None
    return CyclicEvalVec(plan.points, seq, tilde, a0)


def _ordered(field, obj, name, points):
    """The entries of obj[name] in the order of points: a point-keyed map,
    or a list already in that order."""
    entries = obj[name]
    if isinstance(entries, dict):
        lookup = {point_in(field, k): field.parse_raw(v) for k, v in entries.items()}
        return point_ordered(field, lookup, points, repr(name), "the file")
    if len(entries) != len(points):
        raise LengthMismatch(f"{name!r} holds {len(entries)} entries, not {len(points)}")
    return [field.parse_raw(v) for v in entries]


def values_to_csv(field: Field, values) -> str:
    if isinstance(values, CyclicEvalVec):
        raise ValidationError("keyed cyclic values only serialize to JSON")
    return "\n".join(_cell_out(field, v) for v in values) + "\n"


def values_from_csv(field: Field, text: str, plan) -> list:
    """One value per line, in the plan's point order."""
    if plan.basis == BASIS_CYCLIC:
        raise ValidationError("keyed cyclic values only serialize to JSON")
    return [_cell_in(field, line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# plan files


def field_to_json(field: Field) -> dict:
    out = {"p": field.p, "r": field.r}
    if field.r > 1:
        out["modulus"] = list(field.modulus)
    return out


def field_from_json(obj) -> Field:
    return field_make(obj["p"], obj.get("r", 1), obj.get("modulus"))


# the plan file's "case" tag -> plan class
PLAN_CASES = {cls.case: cls for cls in (MultPlan, AddPlan, CyclicPlan)}


def plan_to_json(plan) -> dict:
    return {"case": plan.case, "field": field_to_json(plan.field), **plan.to_json()}


def plan_from_json(obj):
    field = field_from_json(obj["field"])
    cls = PLAN_CASES.get(obj["case"])
    if cls is None:
        raise ValidationError(f"unknown plan case {obj['case']!r}")
    stored = obj.get("tables", {})
    if not isinstance(stored, dict):
        raise PlanFileError(f"plan entry 'tables' must be an object, got {stored!r}")
    plan = cls.from_json(field, obj)
    if stored:
        fresh = plan_to_json(plan)["tables"]
        for key, val in fresh.items():
            if key in stored and stored[key] != val:
                raise MismatchError(f"plan table {key!r} does not match the regenerated plan")
    return plan
