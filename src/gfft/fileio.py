"""JSON/CSV serialization for coefficient vectors, value vectors, and plans.

Field elements serialize as decimal residues for prime fields and as
little-endian coefficient lists for extensions (":"-joined in CSV cells).
Plan files carry the construction parameters plus derived tables for audit;
loading rebuilds the plan deterministically and diffs any embedded tables.
"""

from __future__ import annotations

import json

from .afft import AddPlan, add_plan
from .cfft import CyclicPlan, cyclic_plan
from .errors import MismatchError, ValidationError
from .gf import Field, field_make
from .mfft import MultPlan, mult_plan
from .poly import INF
from .vectors import BASIS_CYCLIC, BASIS_STANDARD, CoeffVec, CyclicEvalVec


def _elem_out(field: Field, raw):
    return field.serialize_raw(raw)


def _elem_in(field: Field, obj):
    return field.parse_raw(obj)


def _point_out(field, pt):
    return "inf" if pt is INF else _elem_out(field, pt)


# ---------------------------------------------------------------------------
# coefficient files


def coeffs_to_json(field: Field, vec: CoeffVec) -> dict:
    return {"basis": vec.basis, "coeffs": [_elem_out(field, v) for v in vec.values]}


def coeffs_from_json(field: Field, obj) -> CoeffVec:
    basis = obj.get("basis", BASIS_STANDARD)
    return CoeffVec(tuple(_elem_in(field, v) for v in obj["coeffs"]), basis)


def _cell_out(field, raw):
    if field.r == 1:
        return str(raw)
    return ":".join(str(d) for d in field.unpack(raw))


def _cell_in(field, cell):
    cell = cell.strip()
    if ":" in cell:
        return _elem_in(field, [int(d) for d in cell.split(":")])
    return _elem_in(field, int(cell))


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
            "values": {str(_point_out(field, p)): _elem_out(field, v)
                       for p, v in zip(values.points, values.values)},
            "tilde": {str(_point_out(field, p)): _elem_out(field, v)
                      for p, v in zip(values.points, values.tilde)},
        }
        if values.a0 is not None:
            out["a0"] = _elem_out(field, values.a0)
        return out
    return {"values": [_elem_out(field, v) for v in values]}


def values_from_json(field: Field, obj, plan=None):
    vals = obj["values"]
    if isinstance(vals, dict):
        if plan is None or not isinstance(plan, CyclicPlan):
            raise ValidationError("keyed value files need a cyclic plan")
        lookup = {}
        for k, v in vals.items():
            pt = INF if k == "inf" else _elem_in(field, json.loads(k) if k.startswith("[") else int(k))
            lookup[pt] = _elem_in(field, v)
        seq = [lookup[pt] for pt in plan.points]
        a0 = _elem_in(field, obj["a0"]) if "a0" in obj else None
        tilde = [0] * len(seq)
        return CyclicEvalVec(plan.points, seq, tilde, a0)
    return [_elem_in(field, v) for v in vals]


def values_to_csv(field: Field, values) -> str:
    if isinstance(values, CyclicEvalVec):
        raise ValidationError("keyed cyclic values only serialize to JSON")
    return "\n".join(_cell_out(field, v) for v in values) + "\n"


def moebius_to_json(m) -> list:
    field = m.field
    return [_elem_out(field, v) for v in m.entries()]


def moebius_from_json(field: Field, obj):
    from .moebius import MoebiusMap

    return MoebiusMap(field, *(_elem_in(field, v) for v in obj))


# ---------------------------------------------------------------------------
# plan files


def field_to_json(field: Field) -> dict:
    out = {"p": field.p, "r": field.r}
    if field.r > 1:
        out["modulus"] = list(field.modulus)
    return out


def field_from_json(obj) -> Field:
    return field_make(obj["p"], obj.get("r", 1), obj.get("modulus"))


def plan_to_json(plan, include_tables=True) -> dict:
    field = plan.field
    if isinstance(plan, MultPlan):
        out = {"case": "mult", "field": field_to_json(field),
               "radices": list(plan.radices), "beta": _elem_out(field, plan.beta)}
        tables = {
            "alpha": _elem_out(field, plan.alpha),
            "omega": _elem_out(field, plan.omega),
            "points": [_elem_out(field, v) for v in plan.points],
        }
    elif isinstance(plan, AddPlan):
        out = {"case": "add", "field": field_to_json(field),
               "basis": [_elem_out(field, v) for v in plan.basis]}
        tables = {
            "betas": [_elem_out(field, v) for v in plan.betas],
            "lin_polys": [[_elem_out(field, c) for c in p.coeffs] for p in plan.lin_polys],
            "points": [_elem_out(field, v) for v in plan.points],
        }
    elif isinstance(plan, CyclicPlan):
        out = {"case": "cyclic", "field": field_to_json(field),
               "radices": list(plan.radices),
               "m": [_elem_out(field, plan.m_coeffs[0]), _elem_out(field, plan.m_coeffs[1])],
               "fiber": _point_out(field, plan.bucket_key)}
        tables = {
            "points": [_point_out(field, v) for v in plan.points],
            "poles": [[_elem_out(field, v) for v in lv.poles] for lv in plan.levels],
            "quads": [[_elem_out(field, c) for c in q.coeffs] for q in plan.quads],
            "level_nums": [[_elem_out(field, c) for c in lv.num.coeffs] for lv in plan.levels],
            "scale_const": _elem_out(field, plan.scale_const),
            "tower_num": [_elem_out(field, c) for c in plan.tower_num.coeffs],
            "pole_consts": {
                f"{i},{t},{k}": _elem_out(field, v)
                for i, lv in enumerate(plan.levels, start=1)
                if lv.pole_consts
                for (t, k), v in sorted(lv.pole_consts.items())
            },
        }
    else:
        raise ValidationError(f"unknown plan type {type(plan)!r}")
    if include_tables:
        out["tables"] = tables
    return out


def plan_from_json(obj):
    field = field_from_json(obj["field"])
    case = obj["case"]
    if case == "mult":
        plan = mult_plan(field, obj["radices"], _elem_in(field, obj["beta"]))
    elif case == "add":
        plan = add_plan(field, [_elem_in(field, v) for v in obj["basis"]])
    elif case == "cyclic":
        fiber = obj.get("fiber")
        fiber_key = None if fiber in (None, "inf") else _elem_in(field, fiber)
        plan = cyclic_plan(
            field, obj["radices"],
            m_pair=(_elem_in(field, obj["m"][0]), _elem_in(field, obj["m"][1])),
            fiber_key=fiber_key,
        )
    else:
        raise ValidationError(f"unknown plan case {case!r}")
    if "tables" in obj:
        fresh = plan_to_json(plan)["tables"]
        stored = obj["tables"]
        for key, val in fresh.items():
            if key in stored and stored[key] != val:
                raise MismatchError(f"plan table {key!r} does not match the regenerated plan")
    return plan
