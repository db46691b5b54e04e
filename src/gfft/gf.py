"""Arithmetic in F_p and F_{p^r} with opt-in operation counting.

Elements are stored in a packed raw form: an integer in [0, q).  For prime
fields the raw value is the residue itself; for extension fields it encodes
the coefficient vector (c_0, ..., c_{r-1}) base p, i.e. raw = sum c_i p^i.
Hot code paths (polynomial cores, transforms) work on raw values through the
Field methods; FieldElement is a thin wrapper for user-facing code.

Field.raw is the one rule for what a value of F_q is: an int in [0, q) that
is not a bool, or a FieldElement of an equal field.  Values are checked,
never reduced.  Field.raws is its list form, and every public entry point
(Field(), FieldElement operands, Poly, MoebiusMap, the transforms) reads
values through one of the two.

All searches (modulus, table generator, primitive element, primitive
quadratic) take the least candidate in packed-integer order, so results are
reproducible.  The three order tests among them share one routine,
multiplicative_order, which is exact, so the least candidate is still the one
found.  Moduli are tested by Rabin's test on Poly over F_p.  Exhaustive checks
are fine at the documented desk scale q <= 2**20.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from .errors import (InvalidFieldValue, MixedFields, NonPrimeP, ReducibleModulus, ValidationError,
                     ZeroInverse)

DESK_Q_BOUND = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict:
    """Prime factorization by trial division, {prime: multiplicity}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass
class OpCounter:
    """Accumulates field operation counts inside one measurement scope."""

    adds: int = 0
    muls: int = 0
    invs: int = 0

    def total(self) -> int:
        return self.adds + self.muls + self.invs


def multiplicative_order(x, multiple, power, one) -> int:
    """Order of x in a group where power(x, multiple) == one: strip each
    prime factor of multiple while the power stays one.  The one order
    routine behind F_q^*, F_{q^2}^* and PGL_2(F_q)."""
    if power(x, multiple) != one:
        raise ValidationError(f"{x!r} has no order dividing {multiple}")
    order = multiple
    for ell in factorize(multiple):
        while order % ell == 0 and power(x, order // ell) == one:
            order //= ell
    return order


def _digits(n: int, p: int, width: int):
    """The width lowest base-p digits of n, least significant first."""
    out = []
    for _ in range(width):
        n, d = divmod(n, p)
        out.append(d)
    return tuple(out)


def is_irreducible_modp(coeffs, p: int) -> bool:
    """Rabin's test for a monic polynomial over F_p (dense int list)."""
    from .poly import Poly  # function level: poly imports gf

    r = len(coeffs) - 1
    if r < 1 or coeffs[-1] != 1:
        return False
    if r == 1:
        return True
    fp = Field(p, 1, ())
    m, x = Poly(fp, coeffs), Poly.x(fp)

    def x_pow(e):  # x^e mod m by square and multiply
        acc, base = Poly.one(fp), x
        while e:
            if e & 1:
                acc = acc * base % m
            base = base * base % m
            e >>= 1
        return acc

    # x^(p^r) == x mod m, and gcd(x^(p^(r/l)) - x, m) == 1 for prime l | r
    if x_pow(p**r) != x:
        return False
    return all((x_pow(p ** (r // ell)) - x).gcd(m).degree == 0 for ell in factorize(r))


# ---------------------------------------------------------------------------


def _int_entry(v) -> int:
    """One entry of a value file, which must be an int: a float is refused,
    not truncated, and a string or a bool is refused, not converted."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise InvalidFieldValue(f"{v!r} is not an integer")
    return v


class Field:
    """F_q for q = p^r.  Construct through field_make for validated setup."""

    def __init__(self, p: int, r: int, modulus):
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = tuple(modulus)  # monic, len r+1; () when r == 1
        self._counter = None
        self._inv_table = None
        if r > 1:
            self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _build_tables(self):
        p, r, q = self.p, self.r, self.q
        if q > DESK_Q_BOUND:
            raise ValidationError(f"extension field of size {q} beyond desk bound")
        # discrete log tables over the least multiplicative generator; the
        # order test runs square and multiply on the table-free product, and a
        # reducible modulus fails its check at a zero divisor (ValidationError)

        def power(x, e):
            acc = 1
            while e:
                if e & 1:
                    acc = self._mul_poly(acc, x)
                x = self._mul_poly(x, x)
                e >>= 1
            return acc

        gen = next(c for c in range(2, q) if multiplicative_order(c, q - 1, power, 1) == q - 1)
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            exp[i + q - 1] = acc
            log[acc] = i
            acc = self._mul_poly(acc, gen)
        self._exp = exp
        self._log = log

    def unpack(self, raw: int):
        """Raw value -> coefficient tuple (c_0, ..., c_{r-1}) over F_p."""
        return _digits(raw, self.p, self.r)

    def pack(self, coeffs) -> int:
        p = self.p
        raw = 0
        for c in reversed(list(coeffs)):
            raw = raw * p + c
        return raw

    def _mul_poly(self, x: int, y: int) -> int:
        """Product via coefficient arithmetic; table-free fallback."""
        a, b = self.unpack(x), self.unpack(y)
        prod = [0] * (2 * self.r - 1)
        p = self.p
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        m = self.modulus
        for k in range(len(prod) - 1, self.r - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(self.r):
                    prod[k - self.r + i] = (prod[k - self.r + i] - c * m[i]) % p
        return self.pack(prod[: self.r])

    # -- raw arithmetic ------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        c = self._counter
        if c is not None:
            c.adds += 1
        if self.r == 1:
            return (x + y) % self.p
        if self.p == 2:
            return x ^ y
        p = self.p
        out, mult = 0, 1
        for _ in range(self.r):
            x, dx = divmod(x, p)
            y, dy = divmod(y, p)
            out += ((dx + dy) % p) * mult
            mult *= p
        return out

    def sub(self, x: int, y: int) -> int:
        c = self._counter
        if c is not None:
            c.adds += 1
        if self.r == 1:
            return (x - y) % self.p
        if self.p == 2:
            return x ^ y
        p = self.p
        out, mult = 0, 1
        for _ in range(self.r):
            x, dx = divmod(x, p)
            y, dy = divmod(y, p)
            out += ((dx - dy) % p) * mult
            mult *= p
        return out

    def neg(self, x: int) -> int:
        c = self._counter
        if c is not None:
            c.adds += 1
        if self.r == 1:
            return (-x) % self.p
        if self.p == 2:
            return x
        p = self.p
        out, mult = 0, 1
        for _ in range(self.r):
            x, dx = divmod(x, p)
            out += ((-dx) % p) * mult
            mult *= p
        return out

    def mul(self, x: int, y: int) -> int:
        c = self._counter
        if c is not None:
            c.muls += 1
        if self.r == 1:
            return (x * y) % self.p
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroInverse("inverse of zero")
        c = self._counter
        if c is not None:
            c.invs += 1
        if self.r == 1:
            t = self._inv_table
            if t is None and self.p <= 4096:
                t = self._inv_table = [0] + [pow(v, -1, self.p) for v in range(1, self.p)]
            return t[x] if t is not None else pow(x, -1, self.p)
        return self._exp[self.q - 1 - self._log[x]]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        e = int(e)
        if e < 0:
            x = self.inv(x)
            e = -e
        if self.r == 1:
            c = self._counter
            if c is not None:
                c.muls += max(e.bit_length() * 2 - 2, 0) if e else 0
            return pow(x, e, self.p)
        if x == 0:
            return 0 if e else 1
        c = self._counter
        if c is not None:
            c.muls += max(e.bit_length() * 2 - 2, 0) if e else 0
        return self._exp[(self._log[x] * e) % (self.q - 1)]

    def element_order(self, x: int) -> int:
        """Multiplicative order of nonzero x."""
        if x == 0:
            raise ZeroInverse("order of zero undefined")
        return multiplicative_order(x, self.q - 1, self.pow, 1)

    # -- element API ---------------------------------------------------------

    def raw(self, v) -> int:
        """Raw value of v, checked, not reduced: an int in [0, q) that is not
        a bool, or a FieldElement of an equal field."""
        if isinstance(v, int) and not isinstance(v, bool) and 0 <= v < self.q:
            return v
        if isinstance(v, FieldElement):
            if v.field != self:
                raise MixedFields(f"{v!r} is from a different field than F_{self.q}")
            return v.raw
        raise InvalidFieldValue(f"{v!r} is not a raw value of F_{self.q}")

    def raws(self, values) -> list:
        """raw of each value.  An in-range int (not a bool) passes without the
        call, which transforms pay per value."""
        q = self.q
        return [v if type(v) is int and 0 <= v < q else self.raw(v) for v in values]

    def __call__(self, value) -> "FieldElement":
        """Element from an int or element (checked by raw) or from a digit
        tuple or list (checked by parse_raw)."""
        if isinstance(value, (tuple, list)):
            return FieldElement(self, self.parse_raw(list(value)))
        return FieldElement(self, self.raw(value))

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    # -- instrumentation -----------------------------------------------------

    @contextlib.contextmanager
    def count_ops(self):
        """Attach a fresh OpCounter for the duration of the scope.

        Counting state lives on this Field instance, so concurrent
        measurements need separate Field instances.
        """
        prev = self._counter
        ctr = OpCounter()
        self._counter = ctr
        try:
            yield ctr
        finally:
            self._counter = prev

    # -- misc ----------------------------------------------------------------

    def serialize_raw(self, raw: int):
        """JSON form: residue for r = 1, little-endian coefficient list else."""
        return raw if self.r == 1 else list(self.unpack(raw))

    def parse_raw(self, obj) -> int:
        """Inverse of serialize_raw.  Entries are checked, not reduced: an
        integer outside [0, q), a list longer than r, or a digit outside
        [0, p) raises InvalidFieldValue."""
        if isinstance(obj, list):
            digits = [_int_entry(d) for d in obj]
            if len(digits) > self.r or any(not 0 <= d < self.p for d in digits):
                raise InvalidFieldValue(f"{obj!r} is not a digit list of GF({self.q})")
            return self.pack(digits)
        return self.raw(_int_entry(obj))

    def __repr__(self):
        if self.r == 1:
            return f"Field(p={self.p})"
        return f"Field(p={self.p}, r={self.r}, modulus={list(self.modulus)})"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.r == other.r
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))


class FieldElement:
    """Canonical element of a Field; equality is representation equality."""

    __slots__ = ("field", "raw")

    def __init__(self, field: Field, raw: int):
        self.field = field
        self.raw = raw

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.raw, self.field.raw(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.raw, self.field.raw(other)))

    def __rsub__(self, other):
        return FieldElement(self.field, self.field.sub(self.field.raw(other), self.raw))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.raw, self.field.raw(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.div(self.raw, self.field.raw(other)))

    def __rtruediv__(self, other):
        return FieldElement(self.field, self.field.div(self.field.raw(other), self.raw))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.raw))

    def __pow__(self, e):
        return FieldElement(self.field, self.field.pow(self.raw, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.raw))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.raw == other.raw
        if isinstance(other, int):
            return self.raw == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.r, self.raw))

    def __bool__(self):
        return self.raw != 0

    def __repr__(self):
        if self.field.r == 1:
            return f"F{self.field.q}({self.raw})"
        return f"F{self.field.q}{self.field.unpack(self.raw)}"


# ---------------------------------------------------------------------------
# construction and searches


def field_make(p: int, r: int = 1, modulus=None) -> Field:
    """Build F_{p^r}; when r > 1 and no modulus is given, take the least
    monic irreducible of degree r in packed-integer order."""
    if not is_prime(p):
        raise NonPrimeP(f"{p} is not prime")
    if r < 1:
        raise ValidationError("extension degree must be >= 1")
    if p**r > DESK_Q_BOUND:
        raise ValidationError(f"q = {p**r} beyond desk bound 2**20")
    if r == 1:
        if modulus:
            raise ValidationError("prime field takes no modulus")
        return Field(p, 1, ())
    if modulus is not None:
        mod = [_int_entry(c) for c in modulus]
        if any(not 0 <= c < p for c in mod):
            raise InvalidFieldValue(f"modulus {list(modulus)!r} has an entry outside [0, {p})")
        if len(mod) != r + 1 or mod[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree r")
        if not is_irreducible_modp(mod, p):
            raise ReducibleModulus(f"{mod} is reducible over F_{p}")
        return Field(p, r, mod)
    for tail in range(p**r):
        mod = list(_digits(tail, p, r)) + [1]
        if is_irreducible_modp(mod, p):
            return Field(p, r, mod)
    raise ReducibleModulus("no irreducible modulus found")  # pragma: no cover


def find_primitive_element(field: Field) -> FieldElement:
    """Least element (packed order) of multiplicative order q - 1."""
    if field.q == 2:
        return field.one()
    for cand in range(2, field.q):
        if field.element_order(cand) == field.q - 1:
            return FieldElement(field, cand)
    raise ValidationError("no primitive element found")  # pragma: no cover


def quadratic_is_irreducible(field: Field, a: int, b: int) -> bool:
    """x^2 + a x + b irreducible over F_q (no roots; degree 2 suffices)."""
    if field.p != 2 and field.r == 1:
        disc = (a * a - 4 * b) % field.p
        return pow(disc, (field.p - 1) // 2, field.p) != 1 if disc else False
    for t in range(field.q):
        if field.add(field.mul(t, field.add(t, a)), b) == 0:
            return False
    return True


def quadratic_root_order(field: Field, a: int, b: int) -> int:
    """Multiplicative order of a root of irreducible x^2 + a x + b in F_{q^2}.

    Works in F_q[T]/(m) with elements as raw pairs (c0, c1).
    """
    f = field
    neg_a, neg_b = f.neg(a), f.neg(b)

    def mul2(u, v):
        u0, u1 = u
        v0, v1 = v
        t = f.mul(u1, v1)  # coefficient of T^2 -> reduce via T^2 = -aT - b
        c0 = f.add(f.mul(u0, v0), f.mul(t, neg_b))
        c1 = f.add(f.add(f.mul(u0, v1), f.mul(u1, v0)), f.mul(t, neg_a))
        return (c0, c1)

    def pow2(x, e):
        result = (1, 0)
        while e:
            if e & 1:
                result = mul2(result, x)
            x = mul2(x, x)
            e >>= 1
        return result

    return multiplicative_order((0, 1), f.q * f.q - 1, pow2, (1, 0))


def find_primitive_quadratic(field: Field):
    """Least (a, b) with x^2 + a x + b irreducible and a root generating
    F_{q^2}^*.  Returns a pair of FieldElements."""
    target = field.q * field.q - 1
    # a = 0 never qualifies: a root of an irreducible x^2 + b has alpha^2 = -b
    # in F_q^*, so its order divides 2(q - 1) < q^2 - 1
    for a in range(1, field.q):
        for b in range(field.q):
            if quadratic_is_irreducible(field, a, b) and quadratic_root_order(field, a, b) == target:
                return FieldElement(field, a), FieldElement(field, b)
    raise ValidationError("no primitive quadratic found")  # pragma: no cover
