"""Basis-tagged coefficient vectors and the keyed evaluation vector used by
the cyclic transform."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BasisMismatch, LengthMismatch, PlanFileError
from .poly import INF, _raw

BASIS_STANDARD = "standard"
BASIS_LCH = "lch"
BASIS_CYCLIC = "cyclic-z"


@dataclass(frozen=True)
class CoeffVec:
    """Coefficient sequence tagged with the basis it is expressed in."""

    values: tuple
    basis: str = BASIS_STANDARD

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def field_values(field, values):
    """Raw values of field, each checked by poly._raw: FieldElements are
    unwrapped, anything else must already be an int in [0, q).  An in-range
    int (not a bool) passes without the call, which transforms pay per value."""
    q = field.q
    return [v if type(v) is int and 0 <= v < q else _raw(field, v) for v in values]


def plan_list(obj, key, length=None, ints=False):
    """obj[key] of a plan file, checked to be a list (of length entries, of
    ints if asked) before a plan's from_json indexes or converts it."""
    val = obj[key]
    if (not isinstance(val, list) or (length is not None and len(val) != length)
            or (ints and not all(type(v) is int for v in val))):
        count = "" if length is None else f" {length}"
        shape = f"a list of{count} integers" if ints else f"a list of{count} entries"
        raise PlanFileError(f"plan entry {key!r} must be {shape}, got {val!r}")
    return val


def coeff_values(field, coeffs, expected_basis, n=None):
    """Unwrap a CoeffVec (tag-checked) or accept a sequence; the entries come
    back as checked raw values of field."""
    if isinstance(coeffs, CoeffVec):
        if coeffs.basis != expected_basis:
            raise BasisMismatch(f"expected {expected_basis!r} basis, got {coeffs.basis!r}")
        coeffs = coeffs.values
    vals = field_values(field, coeffs)
    if n is not None and len(vals) != n:
        raise LengthMismatch(f"expected length {n}, got {len(vals)}")
    return vals


class CyclicEvalVec:
    """Values of the cyclic transform, keyed by evaluation point.

    points follow the plan's orbit order.  values holds the multipoint
    evaluation of the input polynomial; tilde holds the scaled function the
    recursion actually evaluates.  The slot at INF (present only when the
    transform covers every rational point) reports 0 for both, which is what
    the function values converge to; because every basis polynomial with
    top-degree coefficient vanishes identically on the affine line in that
    case, the top coefficient a0 is carried alongside so the transform stays
    invertible.
    """

    __slots__ = ("points", "values", "tilde", "a0")

    def __init__(self, points, values, tilde, a0=None):
        if not (len(points) == len(values) == len(tilde)):
            raise LengthMismatch("points/values/tilde lengths differ")
        self.points = tuple(points)
        self.values = tuple(values)
        self.tilde = tuple(tilde)
        self.a0 = a0

    def __len__(self):
        return len(self.points)

    def as_dict(self):
        return {p: v for p, v in zip(self.points, self.values)}

    @property
    def inf_value(self):
        return self.values[self.points.index(INF)] if INF in self.points else None

    def __eq__(self, other):
        return (
            isinstance(other, CyclicEvalVec)
            and self.as_dict() == other.as_dict()
            and self.a0 == other.a0
        )

    def __repr__(self):
        return f"CyclicEvalVec({len(self.points)} points, a0={self.a0})"
