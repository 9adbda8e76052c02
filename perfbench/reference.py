"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports padicdyn.  Values are handled as plain digit lists and
integers, maps are evaluated from their definitions (or from the raw entries
of a digit-function table), and counts come from exhaustive enumeration.
The checks therefore never compare the program against itself or against a
stored copy of its own output.
"""

from __future__ import annotations

import math
import re

_VALUE_RE = re.compile(r"^\s*(\d+)\^(-?\d+)\s*\*\s*\[([0-9 ]*)\]\s*$")


def to_int(digits, p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def to_digits(value: int, p: int, n: int) -> list:
    out = []
    for _ in range(n):
        value, d = divmod(value, p)
        out.append(d)
    return out


def val_p(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def parse_text(text: str):
    """``p^v * [d0 d1 ...]`` as (p, v, digits)."""
    m = _VALUE_RE.match(text)
    if m is None:
        raise ValueError(f"not a value encoding: {text!r}")
    return int(m.group(1)), int(m.group(2)), [int(t) for t in m.group(3).split()]


# ---------------------------------------------------------------- Z_p maps

class TableEval:
    """A (p^-k, p^m) digit-function table map evaluated from its raw entries.

    Output digit i reads input digits 0..a-1 with a = k for i < l and
    a = k-l+i+1 otherwise; past the stored depth a tail-projection table
    returns its last argument.
    """

    def __init__(self, p, k, m, tables, tail_projection):
        self.p, self.k, self.m, self.l = p, k, m, k - m
        self.tables = tables
        self.tail = tail_projection

    @classmethod
    def of(cls, table):
        """Read the fields of a padicdyn DigitFunctionTable (its data only)."""
        return cls(int(table.prime), table.klass.k, table.klass.m,
                   table.tables, table.tail_projection)

    def arity(self, i: int) -> int:
        return self.k if i < self.l else self.k - self.l + i + 1

    def __call__(self, xs):
        n_out = len(xs) - self.m
        if not self.tail:
            n_out = min(n_out, len(self.tables))
        if len(xs) < self.k or n_out < 1:
            raise ValueError("too few digits to determine an output digit")
        out = []
        for i in range(n_out):
            a = self.arity(i)
            if i < len(self.tables):
                out.append(self.tables[i][to_int(xs[:a], self.p)])
            else:
                out.append(xs[a - 1])
        return out


def shift(m):
    return lambda xs: xs[m:]


def tj(m, j):
    def f(xs):
        n_out = max(min(len(xs), j), len(xs) - m)
        return [xs[i] if i < j else xs[m + i] for i in range(n_out)]
    return f


def rmap(p, m):
    t1 = tj(m, 1)
    return lambda xs: xs[m:] if xs[0] != p - 1 else t1(xs)


def substitution(rules):
    def f(xs):
        out = []
        for d in xs:
            out.extend(rules[d])
        return out
    return f


def affine_then_shift(p, a, b, m):
    """x -> S^m(a x + b) for integers a (a unit) and b, on exact prefixes."""
    def f(xs):
        n = len(xs)
        y = (a * to_int(xs, p) + b) % p**n
        return to_digits(y, p, n)[m:]
    return f


def ga_mod_zp(p, K, A, width):
    """x -> (p^-K A x) mod Z_p with the unit A known to ``width`` digits."""
    def f(xs):
        n = min(len(xs), width) - K
        y = A * to_int(xs, p) % p ** (n + K)
        return to_digits(y, p, n + K)[K:]
    return f


def orbit_matches(f, y, points, want):
    """Digits 0..want-1 of f^n(y) equal those of points[n] for every n."""
    cur = list(y)
    for n, x in enumerate(points):
        if len(cur) < want or cur[:want] != list(x[:want]):
            return f"step {n}: f^n(y) does not match the orbit point to {want} digits"
        if n + 1 < len(points):
            cur = f(cur)
    return None


def brute_periodic_count(f, p: int, n: int, N: int) -> int:
    """x in Z/p^N with f^n(x) = x on every digit f^n determines."""
    count = 0
    for xi in range(p**N):
        xs = to_digits(xi, p, N)
        ys = xs
        for _ in range(n):
            ys = f(ys)
        if ys == xs[:len(ys)]:
            count += 1
    return count


def scaling_pairs(p: int, k: int, m: int, N: int) -> int:
    """Unordered pairs of N-digit residues at distance p^-j, k <= j < N-m."""
    return sum(p**N * p ** (N - j - 1) * (p - 1) // 2 for j in range(k, N - m))


def mahler_interpolates(f, p, coeffs, N):
    """sum_n a_n C(j, n) = f(j) mod p^N at j = 0..M, f evaluated on j's digits."""
    mod = p**N
    for j in range(len(coeffs)):
        want_digits = f(to_digits(j, p, N + 8))[:N]
        got = sum(a * math.comb(j, n) for n, a in enumerate(coeffs)) % mod
        if to_digits(got, p, N) != want_digits:
            return f"interpolation fails at j={j}"
    return None


# ---------------------------------------------------------------- Q_p values

class QV:
    """p^v X known modulo p^e: an exact representative plus its window end."""

    __slots__ = ("p", "v", "X", "e")

    def __init__(self, p, v, X, e):
        self.p, self.v, self.X, self.e = p, v, X, e

    @classmethod
    def of(cls, x):
        """Read a padicdyn QpApprox or ZpApprox (its digits only)."""
        p = int(x.prime)
        v = getattr(x, "valuation_offset", 0)
        return cls(p, v, to_int(x.digits, p), v + len(x.digits))

    @classmethod
    def text(cls, s):
        p, v, digits = parse_text(s)
        return cls(p, v, to_int(digits, p), v + len(digits))

    def val(self) -> int:
        """Exact valuation, or the window end when the value is zero there."""
        if self.X == 0:
            return self.e
        return min(self.v + val_p(self.X, self.p), self.e)

    def _aligned(self, other):
        v = min(self.v, other.v)
        return v, self.X * self.p ** (self.v - v), other.X * self.p ** (other.v - v)

    def __add__(self, other):
        v, a, b = self._aligned(other)
        return QV(self.p, v, a + b, min(self.e, other.e))

    def __sub__(self, other):
        v, a, b = self._aligned(other)
        return QV(self.p, v, a - b, min(self.e, other.e))

    def __mul__(self, other):
        e = min(self.e + other.val(), other.e + self.val(), self.e + other.e)
        return QV(self.p, self.v + other.v, self.X * other.X, e)

    def inverse(self):
        """1/x for x with a determined nonzero leading digit."""
        p = self.p
        w = val_p(self.X, p) if self.X else None
        if w is None or self.v + w >= self.e:
            raise ZeroDivisionError("no determined nonzero digit")
        vx = self.v + w
        unit = self.X // p**w
        width = self.e - vx
        inv = pow(unit % p**width, -1, p**width)
        return QV(p, -vx, inv, -vx + width)

    def scale(self, j: int):
        """Multiply by p^j, an exact window shift."""
        return QV(self.p, self.v + j, self.X, self.e + j)


def distance_within(x: QV, y: QV, delta_exp: int) -> bool:
    """d(x, y) <= p^-delta, certified: an exact distance or a window bound,
    never a bound whose window ends before delta."""
    return (x - y).val() >= delta_exp


def agree_on_window(x: QV, y: QV) -> bool:
    """Both determine the same digits where both windows are known."""
    return (x - y).val() >= min(x.e, y.e)
