"""Exact finite-precision arithmetic on Z_p and Q_p.

Values are integers with an explicit digit window (capped-absolute
precision).  A ``ZpApprox`` stores x mod p^N, an element of Z_p known
modulo p^N.  A ``QpApprox`` stores a window start v, a width N and X in
[0, p^N): the element p^v X of Q_p known up to O(p^(v+N)), whose digits
below v are exactly zero.  The integer is the only stored form: the
base-p ``digits`` are a view computed from it on each read, and
arithmetic never touches them.  Every operation returns exactly the
digits determined by its inputs, never a padded or heuristically rounded
value.

Norms and distances are powers of p and are reported as a :class:`PNorm`,
which distinguishes the exactly known value p^-e from the certified bound
"<= p^-e" that is all one can say when two values agree on every digit in
the window.  Finite precision can never certify equality, so there is no
"zero" norm.

All value types are immutable; operations are pure functions.
"""

from __future__ import annotations

import re
from functools import partial
from operator import attrgetter
from reprlib import recursive_repr


class PadicError(Exception):
    """Base class for all errors raised by this package."""


class PrimeMismatch(PadicError):
    """Two values with different primes were combined."""


class PrecisionError(PadicError):
    """An operation cannot determine even one digit of its result."""


class ZeroAtPrecision(PadicError):
    """A value indistinguishable from zero was used where a unit is needed."""


class FrozenInstanceError(AttributeError):
    """A field of a frozen :func:`record` was assigned or deleted."""


class factory(partial):
    """A :func:`record` field default made afresh for each instance: ``factory(dict)``."""


def record(cls):
    """Make ``cls`` a frozen record of its own annotated fields, with the
    methods ``dataclass(frozen=True)`` generates, built without compiling
    code.  A class's own ``__init__`` and ``__slots__`` are kept."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    slots = cls.__dict__.get("__slots__", ())  # a slot's descriptor is no default
    makers = {name: d if type(d) is factory else (lambda d=d: d)
              for name, d in cls.__dict__.items() if name in names and name not in slots}
    post_init = hasattr(cls, "__post_init__")
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)

    def bind(args, kwargs):  # keywords and defaults; every field once
        given = dict(zip(names, args), **kwargs)
        if len(given) < len(args) + len(kwargs) or given.keys() | makers.keys() != set(names):
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(names)}")
        return [given[name] if name in given else makers[name]() for name in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        return fields(self) == fields(other) if other.__class__ is self.__class__ else NotImplemented

    @recursive_repr()
    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    def __setattr__(self, name, *value):  # and __delattr__, without a value
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    def __setstate__(self, state):  # pickle and copy restore slots from (None, slots)
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    cls.__init__ = cls.__dict__.get("__init__", __init__)
    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, lambda self: hash(fields(self)), __repr__
    cls.__setattr__ = cls.__delattr__ = __setattr__
    cls.__match_args__ = names
    if slots:
        cls.__setstate__ = __setstate__
    return cls


# Miller-Rabin to these bases is exact below _MR_LIMIT (Sorenson-Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot certify {n} as prime: it is not below {_MR_LIMIT}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


class Prime(int):
    """A prime base below about 3.3e24, certified by deterministic Miller-Rabin."""

    def __new__(cls, p: int) -> "Prime":
        if type(p) is Prime:
            return p
        p = int(p)
        if not _is_prime(p):
            raise ValueError(f"not a prime: {p}")
        return super().__new__(cls, p)


@record
class PNorm:
    """A p-adic norm or distance, exact or bounded.

    ``PNorm(e)`` is the exact value p^-e; ``PNorm(e, exact=False)`` is the
    certified bound <= p^-e (all compared digits agreed, so only the window
    end is known).  A bound never compares equal to an exact value.
    """

    __slots__ = ("exponent", "exact")
    exponent: int
    exact: bool

    def __init__(self, exponent: int, exact: bool = True) -> None:
        _pn_exponent(self, exponent)  # a norm is built for every distance: two slot writes
        _pn_exact(self, exact)

    def leq_pow(self, e: int) -> bool:
        """Certified ``value <= p^-e``.  Holds for exact values and bounds alike."""
        return self.exponent >= e

    def gt_pow(self, e: int) -> bool:
        """Certified ``value > p^-e``.  Only an exact norm can certify this."""
        return self.exact and self.exponent < e

    def describe(self, p: int) -> str:
        if self.exact:
            return f"{p}^-{self.exponent}" if self.exponent >= 0 else f"{p}^{-self.exponent}"
        return f"<={p}^-{self.exponent}" if self.exponent >= 0 else f"<={p}^{-self.exponent}"


def pnorm_max(norms) -> PNorm:
    """Largest of several norms, honestly.

    If the largest exact value dominates every bound it is returned exactly;
    otherwise only the weakest bound can be certified and a bound is returned.
    """
    norms = list(norms)
    if not norms:
        raise ValueError("pnorm_max of empty sequence")
    exacts = [n.exponent for n in norms if n.exact]
    bounds = [n.exponent for n in norms if not n.exact]
    if not bounds:
        return PNorm(min(exacts))
    if not exacts:
        return PNorm(min(bounds), exact=False)
    ee, eb = min(exacts), min(bounds)
    if ee <= eb:
        return PNorm(ee)
    return PNorm(eb, exact=False)


def _int_from_digits(digits, p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def _digits_from_int(value: int, p: int, length: int) -> tuple:
    out = []
    for _ in range(length):
        value, d = divmod(value, p)
        out.append(d)
    return tuple(out)


# bytes 0..35 to the characters int() reads as those digits, others to "!"
_DIGIT_CHARS = b"0123456789abcdefghijklmnopqrstuvwxyz".ljust(256, b"!")


def _checked_digits(prime: int, digits, kind: str):
    """The validated prime, digit count and integer of a public digit constructor."""
    p = Prime(prime)
    digits = tuple(digits)
    if not digits:
        raise PrecisionError(f"a {kind} needs at least one digit")
    try:  # for p <= 36, int() checks and converts every digit in one call
        return p, len(digits), int(bytes(reversed(digits)).translate(_DIGIT_CHARS), p)
    except (TypeError, ValueError):
        for d in digits:
            if not 0 <= d < p:
                raise ValueError(f"digit {d} out of range [0, {p})") from None
        return p, len(digits), _int_from_digits(digits, p)


def _fill_zp(x, p, n, value):
    # the slot setters get past the frozen __setattr__; a loop doubles the cost
    _zp_prime(x, p)
    _zp_precision(x, n)
    _zp_value(x, value)
    return x


def _fill_qp(x, p, v, n, value):
    _qp_prime(x, p)
    _qp_offset(x, v)
    _qp_width(x, n)
    _qp_value(x, value)
    return x


def _val(x: int, p: int, cap: int) -> int:
    """p-adic valuation of the integer x, or ``cap`` if x is 0."""
    if not x:
        return cap
    if p == 2:
        return (x & -x).bit_length() - 1
    v = 0
    while not x % p:
        x //= p
        v += 1
    return v


# The precision rules of Q_p on digit windows (v, n, X): the value p^v X
# known on [v, v+n), X in [0, p^n).  QpApprox arithmetic and every Q_p
# map's kernel run on these, so each rule is stated once.

def _window_canonical(p: int, v: int, n: int, X: int) -> tuple:
    """The window without its leading zero digits (an all-zero one as it is)."""
    if X % p or not X:
        return v, n, X
    i = _val(X, p, 0)
    return v + i, n - i, X // p**i


def _window_addsub(p: int, v: int, n: int, X: int, w: int, m: int, Y: int,
                   sign: int) -> tuple:
    """x + sign*y, known from the lower start to the lower end: digits below
    a window are exact zeros, so disjoint windows still add."""
    lo = v if v < w else w
    end = v + n if v + n < w + m else w + m
    n = end - lo  # >= 1: both ends lie above lo, and widths are >= 1
    # a window starting n or more digits above lo contributes only zeros
    if v > lo:
        X *= p ** (v - lo if v - lo < n else n)
    elif w > lo:
        Y *= p ** (w - lo if w - lo < n else n)
    return lo, n, (X + sign * Y) % p**n


def _window_mul(p: int, v: int, n: int, X: int, w: int, m: int, Y: int) -> tuple:
    """x * y for canonical windows: leading zeros carry no information, so a
    canonical factor determines as many digits of the product as it has."""
    n = n if n < m else m
    return v + w, n, X * Y % p**n


def _window_norm(p: int, v: int, n: int, X: int) -> PNorm:
    """The norm p^-(v + val X), or the bound at the window end when X is 0."""
    return PNorm(v + _val(X, p, n), X != 0)


def _same_prime(x, y) -> Prime:
    if x.prime != y.prime:
        raise PrimeMismatch(f"primes {x.prime} and {y.prime}")
    return x.prime


@record
class ZpApprox:
    """An element of Z_p known modulo p^N, stored as the residue ``value``.

    ``digits[i]``, the coefficient of p^i, is computed from ``value`` on
    each read; nothing else is stored.  Two values are equal-at-precision
    iff primes, precisions and values (so all digits) agree.  Negative
    integers embed via their p-adic complement, e.g. -1 becomes all digits
    p-1.
    """

    __slots__ = ("prime", "precision", "value")
    prime: Prime
    precision: int
    value: int

    def __init__(self, prime: int, digits) -> None:
        _fill_zp(self, *_checked_digits(prime, digits, "ZpApprox"))

    @classmethod
    def _of(cls, p: Prime, n: int, value: int) -> "ZpApprox":
        """Unchecked constructor: ``value`` must lie in [0, p^n), n >= 1."""
        return _fill_zp(object.__new__(cls), p, n, value)

    @classmethod
    def from_int(cls, value: int, prime: int, precision: int) -> "ZpApprox":
        p = Prime(prime)
        if precision < 1:
            raise PrecisionError("a ZpApprox needs at least one digit")
        return cls._of(p, precision, value % p**precision)

    @property
    def digits(self) -> tuple:
        return _digits_from_int(self.value, self.prime, self.precision)

    def to_int(self) -> int:
        return self.value

    def truncate(self, n: int) -> "ZpApprox":
        if not 1 <= n <= self.precision:
            raise PrecisionError(f"cannot truncate precision {self.precision} to {n}")
        return ZpApprox._of(self.prime, n, self.value % self.prime**n)

    def norm(self) -> PNorm:
        return PNorm(_val(self.value, self.prime, self.precision), exact=self.value != 0)

    def _addsub(self, other, sign):
        if not isinstance(other, ZpApprox):
            return NotImplemented
        p = _same_prime(self, other)
        n = min(self.precision, other.precision)
        return ZpApprox._of(p, n, (self.value + sign * other.value) % p**n)

    def __add__(self, other):
        return self._addsub(other, 1)

    def __sub__(self, other):
        return self._addsub(other, -1)

    def __mul__(self, other):
        # a factor of valuation v determines v extra digits of the product:
        # the error is x*O(p^Ny) + y*O(p^Nx), of norm <= p^-min(vx+Ny, vy+Nx)
        if not isinstance(other, ZpApprox):
            return NotImplemented
        p = _same_prime(self, other)
        vx = _val(self.value, p, self.precision)
        vy = _val(other.value, p, other.precision)
        n = min(vx + other.precision, vy + self.precision)
        return ZpApprox._of(p, n, self.value * other.value % p**n)

    def __neg__(self):
        return ZpApprox._of(self.prime, self.precision, -self.value % self.prime**self.precision)

    def __str__(self):
        return encode_value(self)


@record
class QpApprox:
    """An element p^v X of Q_p known on the digit window [v, v+N).

    ``value`` is X in [0, p^N), with N the ``width``.  ``digits[i]``, the
    coefficient of p^(v+i), is computed from it on each read.
    Digits below the window are exactly zero; nothing is known from p^(v+N)
    on.  Two values are equal iff prime, window and digits agree.  Canonical
    form has a nonzero leading digit (or an all-zero window, which
    represents a value of norm <= p^-(v+N)); :meth:`normalize` shifts the
    window start forward past leading zeros.
    """

    __slots__ = ("prime", "valuation_offset", "width", "value")
    prime: Prime
    valuation_offset: int
    width: int
    value: int

    def __init__(self, prime: int, valuation_offset: int, digits) -> None:
        p, n, value = _checked_digits(prime, digits, "QpApprox")
        _fill_qp(self, p, valuation_offset, n, value)

    @classmethod
    def _of(cls, p: Prime, v: int, n: int, value: int) -> "QpApprox":
        """Unchecked constructor: ``value`` must lie in [0, p^n), n >= 1."""
        return _fill_qp(object.__new__(cls), p, v, n, value)

    @classmethod
    def from_zp(cls, x: ZpApprox) -> "QpApprox":
        return cls._of(x.prime, 0, x.precision, x.value)

    @classmethod
    def from_int(cls, value: int, prime: int, precision: int, v: int = 0) -> "QpApprox":
        p = Prime(prime)
        if precision < 1:
            raise PrecisionError("a QpApprox needs at least one digit")
        return cls._of(p, v, precision, value % p**precision)

    @property
    def digits(self) -> tuple:
        return _digits_from_int(self.value, self.prime, self.width)

    @property
    def window_end(self) -> int:
        return self.valuation_offset + self.width

    @property
    def is_canonical(self) -> bool:
        return self.value % self.prime != 0 or self.value == 0

    def normalize(self) -> "QpApprox":
        """Drop leading zero digits, shifting the window start forward."""
        if self.is_canonical:
            return self
        p = self.prime
        return QpApprox._of(p, *_window_canonical(p, self.valuation_offset, self.width,
                                                  self.value))

    def digit_at(self, i: int) -> int:
        """Digit of p^i; exactly zero below the window, an error above it."""
        if i < self.valuation_offset:
            return 0
        if i >= self.window_end:
            raise PrecisionError(f"digit p^{i} is beyond the window end {self.window_end}")
        return self.value // self.prime ** (i - self.valuation_offset) % self.prime

    def norm(self) -> PNorm:
        return _window_norm(self.prime, self.valuation_offset, self.width, self.value)

    def _addsub(self, other, sign):
        if not isinstance(other, QpApprox):
            return NotImplemented
        p = _same_prime(self, other)
        return QpApprox._of(p, *_window_addsub(
            p, self.valuation_offset, self.width, self.value,
            other.valuation_offset, other.width, other.value, sign))

    def __add__(self, other):
        return self._addsub(other, 1)

    def __sub__(self, other):
        return self._addsub(other, -1)

    def __neg__(self):
        return QpApprox._of(self.prime, self.valuation_offset, self.width,
                            -self.value % self.prime**self.width)

    def __mul__(self, other):
        if not isinstance(other, QpApprox):
            return NotImplemented
        p = _same_prime(self, other)
        # normalizing first keeps every digit the factors determine
        return QpApprox._of(p, *_window_mul(
            p, *_window_canonical(p, self.valuation_offset, self.width, self.value),
            *_window_canonical(p, other.valuation_offset, other.width, other.value)))

    def __str__(self):
        return encode_value(self)


# a slotted record lists its fields in __slots__ in declaration order
_pn_exponent, _pn_exact = (PNorm.__dict__[name].__set__ for name in PNorm.__slots__)
_zp_prime, _zp_precision, _zp_value = (
    ZpApprox.__dict__[name].__set__ for name in ZpApprox.__slots__)
_qp_prime, _qp_offset, _qp_width, _qp_value = (
    QpApprox.__dict__[name].__set__ for name in QpApprox.__slots__)


def norm(x) -> PNorm:
    return x.norm()


def distance(x, y) -> PNorm:
    """Ultrametric distance, i.e. the norm of the difference.

    This is p^-j with j the first index where the digits differ, or the
    bound <= p^-(window end) when every compared digit agrees.
    """
    return (x - y).norm()


def mod_zp(x: QpApprox) -> ZpApprox:
    """Drop all digits at negative indices (the map z -> z mod Z_p).

    The result keeps every nonnegative-index digit the input determines;
    digits between index 0 and a positive window start are exactly zero.
    """
    p, v, end = x.prime, x.valuation_offset, x.window_end
    if end <= 0:
        raise PrecisionError("no nonnegative digits are determined")
    return ZpApprox._of(p, end, x.value * p**v if v >= 0 else x.value // p**-v)


def inverse_unit(a) -> QpApprox:
    """Invert a nonzero value: factor out p^val(a), invert the unit mod p^N.

    Accepts a ZpApprox or QpApprox; the result is a QpApprox whose width
    equals the number of digits of ``a`` from its leading nonzero digit on.
    Raises :class:`ZeroAtPrecision` if ``a`` has no nonzero digit.
    """
    if isinstance(a, ZpApprox):
        a = QpApprox.from_zp(a)
    a = a.normalize()
    if not a.value:
        raise ZeroAtPrecision("cannot invert a value indistinguishable from zero")
    p, n = a.prime, a.width
    return QpApprox._of(p, -a.valuation_offset, n, pow(a.value, -1, p**n))


_VALUE_RE = re.compile(r"^\s*(\d+)\^(-?\d+)\s*\*\s*\[([0-9 ]*)\]\s*$")


def encode_value(x) -> str:
    """Textual encoding ``p^v * [d0 d1 ...]``, digits little-endian from the window start."""
    v = 0 if isinstance(x, ZpApprox) else x.valuation_offset
    return f"{x.prime}^{v} * [{' '.join(str(d) for d in x.digits)}]"


def parse_value(text: str, domain: str | None = None):
    """Parse the ``p^v * [d0 d1 ...]`` encoding.

    ``domain`` may be "zp" (requires v = 0) or "qp"; by default v = 0 parses
    to a ZpApprox and anything else to a QpApprox.  Round-trips with
    :func:`encode_value` digit for digit.
    """
    m = _VALUE_RE.match(text)
    if m is None:
        raise ValueError(f"not a p-adic value encoding: {text!r}")
    p = Prime(int(m.group(1)))
    v = int(m.group(2))
    digits = tuple(int(t) for t in m.group(3).split())
    if domain is None:
        domain = "zp" if v == 0 else "qp"
    if domain == "zp":
        if v != 0:
            raise ValueError(f"a Z_p value must have window start 0, got {v}")
        return ZpApprox(p, digits)
    if domain == "qp":
        return QpApprox(p, v, digits)
    raise ValueError(f"unknown domain {domain!r}")
