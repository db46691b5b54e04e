"""Arithmetic in F_p and F_{p^r} with opt-in operation counting.

Elements are stored in a packed raw form: an integer in [0, q).  For prime
fields the raw value is the residue itself; for extension fields it encodes
the coefficient vector (c_0, ..., c_{r-1}) base p, i.e. raw = sum c_i p^i.
Hot code paths (polynomial cores, transforms) work on raw values through the
Field methods; FieldElement is a thin wrapper for user-facing code.

The column ops (add_products, sub_products, diff_products, products) fuse
an entrywise multiply with an add or subtract over whole lists, for the
transform kernels, and count as the element ops they fuse; sum adds up a
column, counted as its adds, and inverses inverts one by Montgomery's trick,
counted as its one inv and its muls.  Field._tally is the one way a loop that does
element ops inline, here or in another module (poly.mul_add and poly.horner),
reports them: no other module reads the counter.

Field.raw is the one rule for what a value of F_q is: an int in [0, q) that
is not a bool, or a FieldElement of an equal field.  Values are checked,
never reduced.  Field.raws is its list form, and every public entry point
(Field(), FieldElement operands, Poly, MoebiusMap, the transforms) reads
values through one of the two.

All searches (modulus, table generator, primitive element, primitive
quadratic) take the least candidate in packed-integer order, so results are
reproducible.  The three order tests among them share one routine,
multiplicative_order, which is exact, so the least candidate is still the one
found; it factors group orders part by part (q - 1, q + 1, p), so trial
division stays below 2**16.  Moduli are tested by Rabin's test on Poly over
F_p.  Extension fields build exp/log tables and stay within q <= 2**20; prime
fields go up to q < 2**31.  field_make checks the bound before the
trial-division prime test.

The tables are one walk over the powers of the generator.  In characteristic 2
a step is an F_2-linear map on the packed int, read from one XOR table per
byte: O(q) word operations.  In odd characteristic each step is still one
schoolbook product of r digits: O(q r^2) steps, and add, sub and neg read
the tables too: Zech's logarithm Z[k] = log(1 + g^k), filled from exp in
O(q), gives g^a + g^b = g^(a + Z[b - a]), and -x = x g^((q - 1)/2).
"""

from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

from .errors import (InvalidFieldValue, MixedFields, NonPrimeP, ReducibleModulus, ValidationError,
                     ZeroInverse)

DESK_Q_BOUND = 1 << 20  # extension fields
PRIME_Q_BOUND = 1 << 31  # prime fields: q < PRIME_Q_BOUND


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == {n: 1}


def factorize(*parts: int) -> dict:
    """Prime factorization of the product of parts, {prime: multiplicity} in
    increasing order, by trial division on each part: the divisor stays below
    the square root of the largest part, under 2**16 for parts up to 2**31."""
    out = {}
    for n in parts:
        d = 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1 if d == 2 else 2
        if n > 1:
            out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


@dataclass
class OpCounter:
    """Accumulates field operation counts inside one measurement scope."""

    adds: int = 0
    muls: int = 0
    invs: int = 0

    def total(self) -> int:
        return self.adds + self.muls + self.invs


def square_multiply(mul, x, e: int, one):
    """x^e for an associative product mul, left to right: (bit length - 1)
    squarings and (popcount - 1) products, so one is returned only for e = 0
    (a column power passes None).  The library's one power routine; e is an
    int (not a bool) and never negative, else ValidationError."""
    if _int_entry(e) < 0:
        raise ValidationError(f"negative exponent {e}")
    if e == 0:
        return one
    acc = x
    for bit in bin(e)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def multiplicative_order(x, multiple, power, one) -> int:
    """Order of x in a group where power(x, multiple) == one: strip each
    prime factor of multiple while the power stays one.  The one order
    routine behind F_q^*, F_{q^2}^* and PGL_2(F_q).  A tuple multiple is
    the product of its parts, factored one by one: q**2 - 1 as (q - 1, q + 1),
    as its largest prime factor can be near q / 2."""
    parts = multiple if isinstance(multiple, tuple) else (multiple,)
    multiple = math.prod(parts)
    if power(x, multiple) != one:
        raise ValidationError(f"{x!r} has no order dividing {multiple}")
    order = multiple
    for ell in factorize(*parts):
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

    def x_pow(e):  # x^e mod m
        return square_multiply(lambda u, v: u * v % m, x, e, Poly.one(fp))

    # x^(p^r) == x mod m, and gcd(x^(p^(r/l)) - x, m) == 1 for prime l | r
    if x_pow(p**r) != x:
        return False
    return all((x_pow(p ** (r // ell)) - x).gcd(m).degree == 0 for ell in factorize(r))


# ---------------------------------------------------------------------------


def _int_entry(v) -> int:
    """v, an int (p, r, an exponent, a value-file entry): a float is refused,
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
            return square_multiply(self._mul_poly, x, e, 1)

        gen = next(c for c in range(2, q) if multiplicative_order(c, q - 1, power, 1) == q - 1)
        exp = [0] * (q - 1)
        log = [0] * q
        acc = 1
        if p == 2:
            # x -> x gen is F_2-linear on the packed int, so it is the XOR of
            # the images of x's bytes, each read from a table built from the
            # images of single bits; q <= 2**20 makes three bytes, and a
            # byte above bit r is 0 and reads the 0 of its [0]
            tables = [[0], [0], [0]]
            for k in range(r):
                image = self._mul_poly(1 << k, gen)
                tables[k // 8] += [v ^ image for v in tables[k // 8]]
            t0, t1, t2 = tables
            for i in range(q - 1):
                exp[i] = acc
                log[acc] = i
                acc = t0[acc & 255] ^ t1[acc >> 8 & 255] ^ t2[acc >> 16]
        else:
            for i in range(q - 1):
                exp[i] = acc
                log[acc] = i
                acc = self._mul_poly(acc, gen)
            # Zech's logarithm Z[k] = log(1 + g^k), None where g^k = -1:
            # adding 1 raises packed digit 0 by one, mod p
            ones = [v + 1 if v % p < p - 1 else v + 1 - p for v in exp]
            self._zech = [log[v] if v else None for v in ones]
            self._half = (q - 1) // 2  # g^half = -1
        self._exp = exp * 2
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

    def _zech_add(self, x: int, y: int) -> int:
        """x + y on the tables, uncounted: g^a + g^b = g^(a + Z[b - a]),
        where a negative index wraps, as Z has period q - 1."""
        if x == 0 or y == 0:
            return x or y
        a = self._log[x]
        z = self._zech[self._log[y] - a]
        return 0 if z is None else self._exp[a + z]

    def add(self, x: int, y: int) -> int:
        c = self._counter
        if c is not None:
            c.adds += 1
        if self.r == 1:
            return (x + y) % self.p
        if self.p == 2:
            return x ^ y
        return self._zech_add(x, y)

    def sub(self, x: int, y: int) -> int:
        c = self._counter
        if c is not None:
            c.adds += 1
        if self.r == 1:
            return (x - y) % self.p
        if self.p == 2:
            return x ^ y
        return self._zech_add(x, y and self._exp[self._log[y] + self._half])

    def neg(self, x: int) -> int:
        c = self._counter
        if c is not None:
            c.adds += 1
        if self.r == 1:
            return (-x) % self.p
        if self.p == 2:
            return x
        return x and self._exp[self._log[x] + self._half]

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
            return pow(x, -1, self.p)
        return self._exp[self.q - 1 - self._log[x]]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    # -- column arithmetic ---------------------------------------------------
    # Fused entrywise ops over zipped columns, for the transform kernels.  xs
    # is a list, ys a list or iterable and ws any iterable, each at least as
    # long as xs; the result has len(xs) entries, counted as len(xs) of each
    # element op the column op fuses.  Prime fields and characteristic 2 run
    # inline and count in bulk; other extension fields map the counted
    # element ops.

    def _tally(self, adds: int, muls: int):
        c = self._counter
        if c is not None:
            c.adds += adds
            c.muls += muls

    def add_products(self, ys, xs, ws) -> list:
        """[y + x w]."""
        if self.r == 1:
            p = self.p
            out = [(y + x * w) % p for y, x, w in zip(ys, xs, ws)]
        elif self.p == 2:
            exp, log = self._exp, self._log
            out = [y ^ exp[log[x] + log[w]] if x and w else y for y, x, w in zip(ys, xs, ws)]
        else:
            return list(map(self.add, ys, map(self.mul, xs, ws)))
        self._tally(len(out), len(out))
        return out

    def sub_products(self, ys, xs, ws) -> list:
        """[y - x w]."""
        if self.r == 1:
            p = self.p
            out = [(y - x * w) % p for y, x, w in zip(ys, xs, ws)]
        elif self.p == 2:
            exp, log = self._exp, self._log
            out = [y ^ exp[log[x] + log[w]] if x and w else y for y, x, w in zip(ys, xs, ws)]
        else:
            return list(map(self.sub, ys, map(self.mul, xs, ws)))
        self._tally(len(out), len(out))
        return out

    def diff_products(self, xs, ys, ws) -> list:
        """[(x - y) w]."""
        if self.r == 1:
            p = self.p
            out = [(x - y) * w % p for x, y, w in zip(xs, ys, ws)]
        elif self.p == 2:
            exp, log = self._exp, self._log
            out = [exp[log[x ^ y] + log[w]] if x != y and w else 0 for x, y, w in zip(xs, ys, ws)]
        else:
            return list(map(self.mul, map(self.sub, xs, ys), ws))
        self._tally(len(out), len(out))
        return out

    def products(self, xs, ws) -> list:
        """[x w]."""
        if self.r == 1:
            p = self.p
            out = [x * w % p for x, w in zip(xs, ws)]
        elif self.p == 2:
            exp, log = self._exp, self._log
            out = [exp[log[x] + log[w]] if x and w else 0 for x, w in zip(xs, ws)]
        else:
            return list(map(self.mul, xs, ws))
        self._tally(0, len(out))
        return out

    def sum(self, xs) -> int:
        """x_0 + x_1 + ... over a list, counted as len(xs) - 1 adds."""
        if self.r == 1:
            out = sum(xs) % self.p
        elif self.p == 2:
            out = reduce(operator.xor, xs, 0)
        else:
            return reduce(self.add, xs) if xs else 0
        self._tally(max(len(xs) - 1, 0), 0)
        return out

    def inverses(self, xs) -> list:
        """[1 / x] over a list by Montgomery's trick: the prefix products,
        one inversion of the last, and a backward pass, counted as one inv
        and 3(N - 1) muls for N entries.  A zero entry raises ZeroInverse."""
        if 0 in xs:
            raise ZeroInverse("inverse of zero")
        n = len(xs)
        if not n:
            return []
        out = [0] * n
        if self.r == 1:
            p, prefix, acc = self.p, [], 1
            for x in xs:
                acc = acc * x % p
                prefix.append(acc)
            inv = self.inv(acc)
            for i in range(n - 1, 0, -1):
                out[i] = inv * prefix[i - 1] % p
                inv = inv * xs[i] % p
        else:
            if self.p == 2:
                exp, log = self._exp, self._log

                def mul(x, y):
                    return exp[log[x] + log[y]]
            else:
                mul = self.mul
            prefix = list(accumulate(xs, mul))
            inv = self.inv(prefix[-1])
            for i in range(n - 1, 0, -1):
                out[i] = mul(inv, prefix[i - 1])
                inv = mul(inv, xs[i])
        out[0] = inv
        if self.r == 1 or self.p == 2:
            self._tally(0, 3 * (n - 1))
        return out

    def pow(self, x: int, e: int) -> int:
        if type(e) is not int:
            _int_entry(e)
        if e < 0:
            x = self.inv(x)
            e = -e
        if self.r == 1:
            out = pow(x, e, self.p)
        elif x == 0:
            out = 0 if e else 1
        else:
            out = self._exp[(self._log[x] * e) % (self.q - 1)]
        c = self._counter
        if c is not None:  # square_multiply's count, from e alone, for every x
            c.muls += max(e.bit_length() + e.bit_count() - 2, 0)
        return out

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
        call, which transforms pay per value; a non-iterable is refused."""
        q = self.q
        try:
            return [v if type(v) is int and 0 <= v < q else self.raw(v) for v in values]
        except TypeError:
            raise InvalidFieldValue(f"{values!r} is not a sequence of values of F_{q}") from None

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
        # equal objects hash equally: F11(4) == 4, so both hash as 4
        return hash(self.raw)

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
    p, r = _int_entry(p), _int_entry(r)
    if r < 1:
        raise ValidationError("extension degree must be >= 1")
    if r == 1 and p >= PRIME_Q_BOUND:
        raise ValidationError(f"q = {p} beyond the prime-field bound 2**31")
    if r > 1 and (r > 20 or p**r > DESK_Q_BOUND):  # p >= 2, so r > 20 means q > 2**20
        raise ValidationError(f"q = {p}^{r} beyond the extension-field bound 2**20")
    if not is_prime(p):
        raise NonPrimeP(f"{p} is not prime")
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
    """x^2 + a x + b irreducible over F_q (no roots; degree 2 suffices).
    Odd q: the discriminant a^2 - 4b is a nonsquare (Euler's criterion on
    F_p, an odd log on the tables).  Even q: a != 0 (else it is a square) and Tr(b / a^2)
    = 1, as x = a y turns it into y^2 + y + b / a^2 (Artin-Schreier)."""
    p = field.p
    if p == 2:
        if not a:
            return False
        c = tr = field.div(b, field.mul(a, a))
        for _ in range(field.r - 1):
            c = field.mul(c, c)
            tr ^= c
        return tr == 1
    if field.r == 1:
        disc = (a * a - 4 * b) % p
        return pow(disc, (p - 1) // 2, p) != 1 if disc else False
    disc = field.sub(field.mul(a, a), field.mul(4 % p, b))
    return disc != 0 and field._log[disc] % 2 == 1


def quadratic_failure(field: Field):
    """The one primitivity test of m = x^2 + a x + b: a function of raw (a, b)
    that returns None when a root theta generates F_{q^2}^*, else the message
    of the first test that fails: m is irreducible; b = theta^(q+1)
    generates F_q^* (q - 1 is factored once, here); the companion map sigma:
    x -> 1 / (-b x - a) has order q + 1 in PGL_2, that of theta mod F_q^*.
    For theta of order k these are k / gcd(k, q + 1) and k / gcd(k, q - 1),
    and both together force k = q^2 - 1."""
    from .moebius import MoebiusMap  # function level: moebius imports gf

    q = field.q
    cofactors = [(q - 1) // ell for ell in factorize(q - 1)]  # none for q = 2
    identity = MoebiusMap.identity(field)

    def failure(a, b):
        if not quadratic_is_irreducible(field, a, b):
            return "x^2 + a x + b is reducible"
        if any(field.pow(b, e) == 1 for e in cofactors):
            return "x^2 + a x + b is irreducible but not primitive"
        sigma = MoebiusMap(field, 0, 1, field.neg(b), field.neg(a))
        if multiplicative_order(sigma, q + 1, pow, identity) != q + 1:
            return "companion map does not have order q+1"

    return failure


def find_primitive_quadratic(field: Field):
    """Least (a, b), a then b, that quadratic_failure passes: x^2 + a x + b
    irreducible with a root generating F_{q^2}^*.  Returns a pair of
    FieldElements."""
    failure = quadratic_failure(field)
    # a = 0 never qualifies: a root of an irreducible x^2 + b has alpha^2 = -b
    # in F_q^*, so its order divides 2(q - 1) < q^2 - 1
    for a in range(1, field.q):
        for b in range(1, field.q):  # b = 0 is the norm of no unit
            if failure(a, b) is None:
                return FieldElement(field, a), FieldElement(field, b)
    raise ValidationError("no primitive quadratic found")  # pragma: no cover
