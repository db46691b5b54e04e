"""Basis-tagged coefficient vectors, the keyed evaluation vector used by the
cyclic transform, and the plan-file helpers the plan classes share.  Entries
are checked by Field.raws, the list form of the one field-value rule."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (BasisMismatch, DegreeTooLarge, InvalidFieldValue, LengthMismatch, MixedFields,
                     PlanFileError, PointMismatch)
from .poly import INF, Poly

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


def point_out(field, pt):
    """JSON form of an evaluation point: "inf" or the field's serialize_raw."""
    return "inf" if pt is INF else field.serialize_raw(pt)


def point_in(field, text):
    """Inverse of point_out, read from the JSON text of its form (a key of a
    point-keyed map, a command-line option): "inf" (quoted or not) is INF,
    and any other value is read by Field.parse_raw, so a string is refused.
    A residue's text, a key of every prime-field value file, skips the JSON
    decoder, at a tenth of its cost."""
    try:
        obj = "inf" if text == "inf" else int(text) if text.isdigit() else json.loads(text)
    except ValueError:
        raise InvalidFieldValue(f"{text!r} is not a point of F_{field.q}") from None
    return INF if obj == "inf" else field.parse_raw(obj)


def point_ordered(field, keyed, points, name, owner):
    """The entries of keyed, a map from evaluation points, in the order of
    points.  Its keys must be exactly the points: a missing or an extra key
    is refused, as the map is another plan's (owner says what holds it)."""
    missing = next((pt for pt in points if pt not in keyed), None)
    if missing is not None:
        raise PointMismatch(f"{name} holds no entry at evaluation point "
                            f"{point_out(field, missing)}: {owner} is another plan's")
    if len(keyed) != len(points):
        own = set(points)
        extra = next(pt for pt in keyed if pt not in own)
        raise PointMismatch(f"{name} holds an entry at {point_out(field, extra)}, which is "
                            f"no evaluation point of the plan: {owner} is another plan's")
    return [keyed[pt] for pt in points]


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
    """Unwrap a CoeffVec (tag-checked) or a Poly (a standard-basis vector of
    field, zero-padded to length n by standard_values) or accept a sequence;
    the entries come back as checked raw values of field."""
    if isinstance(coeffs, Poly):
        if coeffs.field != field:
            raise MixedFields(f"a polynomial over F_{coeffs.field.q} for a plan over F_{field.q}")
        if expected_basis != BASIS_STANDARD:
            raise BasisMismatch(f"expected {expected_basis!r} basis, got a polynomial "
                                f"({BASIS_STANDARD!r} basis)")
        return list(coeffs.coeffs) if n is None else standard_values(field, coeffs, n)
    if isinstance(coeffs, CoeffVec):
        if coeffs.basis != expected_basis:
            raise BasisMismatch(f"expected {expected_basis!r} basis, got {coeffs.basis!r}")
        coeffs = coeffs.values
    vals = field.raws(coeffs)
    if n is not None and len(vals) != n:
        raise LengthMismatch(f"expected length {n}, got {len(vals)}")
    return vals


def standard_values(field, coeffs, n):
    """Standard-basis coefficients of degree < n, read as coeff_values reads
    them and zero-padded to length n: the reader of every from_standard."""
    vals = coeff_values(field, coeffs, BASIS_STANDARD)
    if len(vals) > n:
        raise DegreeTooLarge(f"degree must be < {n}, got {len(vals)} coefficients")
    return vals + [0] * (n - len(vals))


def value_raws(field, values):
    """The entries of a value vector as checked raw values of field; a Poly
    is refused, as it is a standard-basis vector, not values."""
    if isinstance(values, Poly):
        raise BasisMismatch(f"expected values, got a polynomial ({BASIS_STANDARD!r} basis)")
    return field.raws(values)


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
