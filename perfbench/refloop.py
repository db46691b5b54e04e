"""Pure-Python reference loop used to normalise wall times for CPU speed.

The benchmark VM's CPU speed drifts by up to 2x between runs and shifts
within a run on a scale of a fraction of a second.  A fixed piece of
interpreter work slows down along with the program, so every timing the
benchmark reports is

    wall * R_NOM / R_adj

where R_adj is this loop's time measured around the op (harness.Timer) and
R_NOM is the constant below.  Metrics are therefore in seconds "at nominal
speed".

The loop imports nothing from gfft.  Different kinds of interpreter work
slow down by different amounts when the machine is busy, so the loop mixes
the kinds gfft does, on a working set of a few thousand ints:
  - half: two radix-2 recursive transforms over F_65537 whose add/mul are
    methods of a field object with a counter slot (gf's prime path, engine);
  - a quarter: the same recursion over GF(2^12) with exp/log table gathers
    and XOR (gf's extension path);
  - a quarter: dense polynomial products through a small class whose
    constructor checks and trims every coefficient (poly's allocation-heavy
    work).
The weights come from five seeds of every workload, each op timed with each
part separately: this mix gave the smallest spread of the run medians
overall; the memory-bound variant tried alongside (large-list gathers) made
every spread worse.
"""

from __future__ import annotations

import time

MODULUS = 65537
SIZE = 128
POLY_COUNT = 6
POLY_LEN = 16

# reference_work() time on the 2-CPU Linux VM the first baseline was taken
# on (Intel Xeon, 2.1 GHz, Python 3.11.7) in its faster state; in its slower
# state the loop takes about 2.5 ms.
R_NOM = 0.0014


class _PrimeField:
    def __init__(self):
        self._counter = None

    def add(self, x, y):
        c = self._counter
        if c is not None:
            c[0] += 1
        return (x + y) % MODULUS

    def mul(self, x, y):
        c = self._counter
        if c is not None:
            c[1] += 1
        return (x * y) % MODULUS


def _gf2_tables(r=12):
    """exp/log tables of GF(2^r) for the least modulus with x primitive."""
    q = 1 << r
    for mod in range(q + 1, 2 * q, 2):
        exp, log, acc = [0] * (2 * (q - 1)), [0] * q, 1
        for i in range(q - 1):
            exp[i] = exp[i + q - 1] = acc
            log[acc] = i
            acc <<= 1
            if acc & q:
                acc ^= mod
            if acc == 1 and i < q - 2:
                break
        else:
            return exp, log
    raise RuntimeError("no primitive modulus")


class _TableField:
    def __init__(self):
        self._counter = None
        self._exp, self._log = _gf2_tables()

    def add(self, x, y):
        c = self._counter
        if c is not None:
            c[0] += 1
        return x ^ y

    def mul(self, x, y):
        c = self._counter
        if c is not None:
            c[1] += 1
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]


def _raw(v):
    if isinstance(v, _Poly):
        raise TypeError("coefficient expected")
    return int(v) % MODULUS


class _Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = [_raw(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % MODULUS
        return _Poly(out)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = (out[i] + v) % MODULUS
        return _Poly(out)


def _levels(pts):
    levels = [pts]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append(prev[0::2])
    return levels


_PF, _TF = _PrimeField(), _TableField()
_W = pow(3, (MODULUS - 1) // SIZE, MODULUS)
_P_LEVELS = _levels([pow(_W, i, MODULUS) for i in range(SIZE)])
_P_COEFFS = [pow(5, i, MODULUS) for i in range(SIZE)]
_T_LEVELS = _levels([_TF._exp[(7 * i) % 4095] for i in range(SIZE)])
_T_COEFFS = [_TF._exp[(11 * i) % 4095] for i in range(SIZE)]
_POLYS = [_Poly(pow(7, 13 * k + i, MODULUS) for i in range(POLY_LEN)) for k in range(POLY_COUNT)]
_EXPECTED = []


def _forward(f, levels, coeffs, depth):
    if len(coeffs) == 1:
        return [coeffs[0]]
    pts = levels[depth]
    even = _forward(f, levels, coeffs[0::2], depth + 1)
    odd = _forward(f, levels, coeffs[1::2], depth + 1)
    nq = len(pts) // 2
    add, mul = f.add, f.mul
    out = [0] * len(pts)
    for s, x in enumerate(pts):
        out[s] = add(even[s % nq], mul(odd[s % nq], x))
    return out


def _poly_work():
    acc = _Poly([1])
    total = _Poly([])
    for p in _POLYS:
        acc = _Poly((acc * p).coeffs[: 2 * POLY_LEN])
        total = total + acc
    return sum(total.coeffs)


def reference_work() -> int:
    a = 0
    for _ in range(2):
        a += sum(_forward(_PF, _P_LEVELS, _P_COEFFS, 0))
    b = 0
    for v in _forward(_TF, _T_LEVELS, _T_COEFFS, 0):
        b ^= v
    return (a + b + _poly_work()) % MODULUS


def reference_sample() -> float:
    """Time of one reference_work() call, in seconds."""
    t0 = time.perf_counter()
    acc = reference_work()
    dt = time.perf_counter() - t0
    if not _EXPECTED:
        _EXPECTED.append(acc)
    elif acc != _EXPECTED[0]:
        raise RuntimeError("reference loop is not deterministic")
    return dt
