"""Dynamical systems on Z_p and Q_p and their digit-function representation.

A (p^-k, p^m) locally scaling map multiplies every distance <= p^-k by
exactly p^m.  Writing l = k - m, such a map is the same thing as a family
of digit functions: output digit i < l is a function of input digits
0..k-1, and output digit i >= l is a function of input digits 0..k-l+i
that is bijective in its last argument.  :class:`DigitFunctionTable` stores
these functions as dense lookup tables and verifies bijectivity eagerly at
construction; the m = k case (l = 0, every function bijective) runs through
the same code path with an empty head.

Tables may optionally extend past their stored depth with the canonical
projection f_i(x_0..x_{k-l+i}) = x_{k-l+i} (the digit functions of a shift
power).  This keeps deep orbit evaluation affordable -- dense tables grow
as p^arity -- while the extended family is still exactly locally scaling.

Every map object is a map specification, a :class:`MapSpec`:
:class:`ShiftPower`, :class:`Tj`, :class:`Rmap`, affine maps,
substitutions, Mahler series, compositions, and the table itself.  Each
answers to ``prime``, ``apply(x)`` and ``images(n)`` (``apply`` on every
residue mod p^n), which a Z_p map computes from one integer kernel,
``output_value(x, n)``, and a Q_p map from one on digit windows,
``output_window(v, n, X)``; a result carries exactly the digits the input
determines.  Each spec class states the facts its definition proves (see
:class:`MapSpec`).  Specs serialize to a stable JSON form, see
``docs/mapspec.md``.
"""

from __future__ import annotations

import json
from functools import reduce

from .core import (
    PadicError,
    PrecisionError,
    Prime,
    PrimeMismatch,
    QpApprox,
    ZeroAtPrecision,
    ZpApprox,
    _digits_from_int as _decode,
    _int_from_digits,
    _val,
    _window_addsub,
    _window_canonical,
    _window_mul,
    encode_value,
    inverse_unit,
    parse_value,
    record,
)
from .mahler import (MahlerSeries, legendre_valuation, mahler_eval, one_lipschitz_report,
                     series_from_values)


class BijectivityViolation(PadicError):
    """A digit function that must be bijective on its last variable is not."""

    def __init__(self, digit_index: int, prefix: tuple):
        self.digit_index = digit_index
        self.prefix = prefix
        super().__init__(
            f"digit function {digit_index} is not bijective on the last variable "
            f"for prefix {prefix}"
        )


class InconsistentScaling(PadicError):
    """A map's output digit depends on input digits beyond the claimed arity."""

    def __init__(self, digit_index: int, truncation: tuple, extension: tuple):
        self.digit_index = digit_index
        self.truncation = truncation
        self.extension = extension
        super().__init__(
            f"output digit {digit_index} changes when digits beyond the arity change: "
            f"truncation {truncation}, extension {extension}"
        )


class DepthExhausted(PadicError):
    """A table has no digit function at the requested output index."""


class CertificationError(PadicError):
    """A certified map property (Lipschitz bound, expansion constant) was
    contradicted by exact recomputation; the witness is in the message."""


# the most table entries, seeds or inputs one table build or point count
# enumerates; work that grows as p^arity is refused above it, not started
ENTRY_BUDGET = 2**20


def _check_budget(entries: int, what: str) -> None:
    if entries > ENTRY_BUDGET:
        raise PrecisionError(
            f"{what} would enumerate {entries} entries, over the budget of {ENTRY_BUDGET}")


def _check_power(p: int, e: int, what: str, times: int = 1) -> None:
    """:func:`_check_budget` on times * p^e entries, refused unbuilt when the
    exponent alone is over log_2 ENTRY_BUDGET >= log_p ENTRY_BUDGET."""
    if times and e >= ENTRY_BUDGET.bit_length():  # p^e >= 2^e > ENTRY_BUDGET
        raise PrecisionError(f"{what} would enumerate at least {p}^{e} entries, "
                             f"over the budget of {ENTRY_BUDGET}")
    _check_budget(times * p**e if times else 0, what)


@record
class ScalingClass:
    """The pair (k, m) of a (p^-k, p^m) locally scaling map, with l = k - m."""

    __slots__ = ("k", "m")
    k: int
    m: int

    def __post_init__(self):
        if not (1 <= self.m <= self.k):
            raise ValueError(f"need 1 <= m <= k, got k={self.k}, m={self.m}")

    @property
    def l(self) -> int:
        return self.k - self.m

    def delta_exponent(self, s: int) -> int:
        """delta = p^-(l+s) (p^-(k+s) when m = k) shadows at epsilon = p^-(k+s)."""
        return (self.l + s) if self.m < self.k else (self.k + s)


class MapSpec:
    """Base class for maps: the classical specs, affine maps, substitutions,
    Mahler series, compositions and :class:`DigitFunctionTable`, each with
    a serializable form.  Subclasses set ``domain`` to "zp" or "qp".  A Z_p
    class implements the integer kernel ``output_value(x, n) -> (y,
    length)`` on residues x mod p^n, and ``apply`` and ``images`` are
    defined once, on it; a Q_p class implements the kernel
    ``output_window(v, n, X) -> (v, n, X)`` on the value p^v X known on the
    digit window [v, v+n), and ``apply`` is defined on that.  Each kernel
    refuses a map of the other domain with ``apply``'s "domain mismatch".

    Each subclass states the facts its definition proves, "not known" (None)
    by default: ``klass``, the scaling class; ``structural_table()``;
    ``closed_form(n)``, the count of points of period dividing n; the route
    that certifies it 1-Lipschitz; e with ||f(x)-f(y)|| <= p^-e ||x-y||;
    its exact expansion exponent on Q_p; an exact ``inverse_spec()``; the
    coefficients (a, b) of z -> az + b.  Callers fall back to extraction or
    sampling, or refuse; a composition runs the Lipschitz fallback
    ``sample`` on each part without a route, and states an exponent only
    when every part states one.  A fact that fails for the instance raises
    CertificationError.
    """

    domain = "zp"
    klass = None

    def structural_table(self):
        return None

    def closed_form(self, n: int):
        return None

    def lipschitz_route(self, sample):
        return None

    def contraction_exponent(self):
        return None

    def expansion_exponent(self):
        return None

    def affine(self):
        return None

    def inverse_spec(self) -> "MapSpec":
        raise PrecisionError(f"no exact inverse available for {type(self).__name__}")

    def output_value(self, x: int, n: int) -> tuple:
        self._check_domain(ZpApprox._of(self.prime, n, x))  # a Q_p map refuses
        raise NotImplementedError

    def output_window(self, v: int, n: int, X: int) -> tuple:
        self._check_domain(QpApprox._of(self.prime, v, n, X))  # a Z_p map refuses
        raise NotImplementedError

    def apply(self, x):
        self._check_domain(x)
        if self.domain == "qp":
            return QpApprox._of(self.prime, *self.output_window(
                x.valuation_offset, x.width, x.value))
        y, n = self.output_value(x.value, x.precision)
        return ZpApprox._of(self.prime, n, y)

    def images(self, n: int) -> tuple:
        """``output_value`` on every residue x mod p^n, in order of x: (values, precisions)."""
        ys = [self.output_value(x, n) for x in range(self.prime**n)]
        return [y for y, _ in ys], [length for _, length in ys]

    def __call__(self, x):
        return self.apply(x)

    def _check_domain(self, x) -> None:
        want = QpApprox if self.domain == "qp" else ZpApprox
        if not isinstance(x, want):
            raise PrecisionError(
                f"domain mismatch: {type(self).__name__} acts on "
                f"{self.domain}, got {type(x).__name__}")
        if x.prime != self.prime:
            raise PrimeMismatch(f"primes {x.prime} and {self.prime}")

    def min_input_precision(self, n_out: int) -> int:
        """Input digits needed to determine n_out output digits."""
        raise NotImplementedError

    def spec_dict(self) -> dict:
        raise NotImplementedError


@record
class DigitFunctionTable(MapSpec):
    """Dense digit-function tables for a (p^-k, p^m) locally scaling map.

    ``tables[i]`` is the function for output digit i, indexed by the
    mixed-radix encoding of its arguments (digit t contributes x_t * p^t);
    the last argument is the highest-order position.  Arity is k for i < l
    and k-l+i+1 for i >= l.  Construction verifies digit ranges, table
    sizes, and bijectivity on the last variable for every i >= l, aborting
    with a witness on failure.

    With ``tail_projection`` set, output digits at i >= len(tables) use the
    projection onto the last variable, so the map is defined at every depth.
    An input known to N digits is the integer x mod p^N, and the mixed-radix
    index of its first t digits is x mod p^t, so :meth:`level_value` reads
    each row straight from that integer; it is the forward step of the
    solvers' digit streams (a solve step then adds one digit per stream with
    one :meth:`digit_value` read), and the table's kernel
    :meth:`output_value` is that step behind ``apply``'s refusal.  The table
    is a :class:`MapSpec` like any other: it inherits ``apply``, and
    :meth:`images` gives ``apply`` on every residue mod p^n, one list pass
    per function.

    Because every digit function at i >= l is a bijection in its last
    variable, it has an inverse in that variable: :meth:`inverse_value`
    finds it in the function's own table, so no inverse is stored.
    ``stored_depth`` (the number of stored functions) and ``l`` are plain
    attributes.
    """

    prime: Prime
    klass: ScalingClass
    tables: tuple
    tail_projection: bool = False

    def __post_init__(self):
        if not isinstance(self.prime, Prime):
            object.__setattr__(self, "prime", Prime(self.prime))
        object.__setattr__(self, "tables", tuple(tuple(t) for t in self.tables))
        object.__setattr__(self, "stored_depth", len(self.tables))
        object.__setattr__(self, "l", self.klass.l)
        p = self.prime
        for i, table in enumerate(self.tables):
            a = self.arity(i)
            if len(table) != p**a:
                raise ValueError(
                    f"digit function {i} has {len(table)} entries, expected {p}**{a}"
                )
            if min(table) < 0 or max(table) >= p:
                entry = next(e for e in table if not 0 <= e < p)
                raise ValueError(f"digit function {i} has out-of-range entry {entry}")
            if i >= self.l:
                P = p ** (a - 1)
                for prefix in range(P):
                    if len(set(table[prefix::P])) != p:
                        raise BijectivityViolation(i, _decode(prefix, p, a - 1))

    def arity(self, i: int) -> int:
        k, l = self.klass.k, self.l
        return k if i < l else k - l + i + 1

    def has_digit(self, i: int) -> bool:
        return i < self.stored_depth or (self.tail_projection and i >= self.l)

    def digit_value(self, i: int, idx: int) -> int:
        """Value of digit function i at the encoded argument tuple."""
        if i < self.stored_depth:
            return self.tables[i][idx]
        if self.tail_projection and i >= self.l:
            return idx // self.prime ** (self.klass.m + i)
        raise DepthExhausted(f"no digit function at output index {i}")

    def inverse_value(self, i: int, prefix: int, target: int) -> int:
        """The last argument c with f_i(prefix, c) = target, for a digit
        function i >= l; ``prefix`` encodes the first arity(i) - 1 arguments.

        Row ``prefix::P`` of ``tables[i]`` (P = p^(arity(i)-1)) holds the p
        values f_i(prefix, c), so c is the position of ``target`` in it; a
        projection digit inverts to ``target`` itself.  Raises ValueError
        when ``target`` is not a value of the row."""
        if i < self.stored_depth:
            row = self.tables[i]
            return row[prefix::len(row) // self.prime].index(target)
        if self.tail_projection and i >= self.l:
            return target
        raise DepthExhausted(f"no digit function at output index {i}")

    def level_value(self, x: int, n: int) -> tuple:
        """The digit streams' forward step: the output at an input known to
        ``n`` digits as ``x`` = input mod p^n, as (y, length) with every
        output digit those n digits determine, up to the table's depth, and
        (0, 0) where they determine none.  Digit function i >= l reads row
        x mod p^(m+i+1), a head function row x mod p^k.  Raises
        :class:`DepthExhausted` when a head function (i < l) is not stored."""
        k, m, l, depth = self.klass.k, self.klass.m, self.l, self.stored_depth
        if n < k:
            return 0, 0
        p, tables, y, i, pw = self.prime, self.tables, 0, 0, 1
        if l:
            if depth < l:
                raise DepthExhausted(f"no digit function at output index {depth}")
            row = x % p**k
            while i < l:
                y += tables[i][row] * pw
                pw *= p
                i += 1
        # output digit i >= l reads input digits 0..m+i
        stop = n - m
        stored_stop = stop if stop < depth else depth
        mod = pw * p ** (m + 1)
        while i < stored_stop:
            y += tables[i][x % mod] * pw
            pw *= p
            mod *= p
            i += 1
        if self.tail_projection and i < stop:
            # the projection tail: output digits i..stop-1 are input digits m+i..n-1
            return y + x // p ** (m + i) * pw, stop
        return y, i

    def output_value(self, x: int, n: int) -> tuple:
        """The kernel: :meth:`level_value`, refused where n input digits
        give no output digit."""
        k, m = self.klass.k, self.klass.m
        if n < k or n <= m:
            raise PrecisionError(
                f"precision {n} cannot determine any output digit of a "
                f"({self.prime}^-{k}, {self.prime}^{m}) table map"
            )
        if not (self.tail_projection or self.stored_depth):
            raise DepthExhausted("table depth exhausted before the first digit")
        return self.level_value(x, n)

    def images(self, n: int) -> tuple:
        """``apply`` on every residue x mod p^n, in order of x: (values, precisions)."""
        p, k, m, l = self.prime, self.klass.k, self.klass.m, self.l
        n_out = self.output_value(0, n)[1]  # the refusals, and DepthExhausted without the heads
        vals, stored = [0] * p**k, min(n_out, self.stored_depth)
        for i in range(stored):  # from the residues mod p^(m+i) to mod p^(m+i+1)
            pw = p**i
            vals = [v + t * pw for v, t in zip(vals * p if i >= l else vals, self.tables[i])]
        reps, pw = p ** (n - m - stored), p**stored  # a projection digit i >= stored is x_(m+i)
        vals = [v + q * pw for q in range(reps) for v in vals] if n_out > stored else vals * reps
        return vals, [n_out] * p**n

    def min_input_precision(self, n_out: int) -> int:
        k, l = self.klass.k, self.l
        return k if n_out <= l else k - l + n_out

    def structural_table(self) -> "DigitFunctionTable":
        return self

    def spec_dict(self) -> dict:
        return {
            "type": "table",
            "p": int(self.prime),
            "k": self.klass.k,
            "m": self.klass.m,
            "tail_projection": self.tail_projection,
            "arities": [self.arity(i) for i in range(self.stored_depth)],
            "tables": [list(t) for t in self.tables],
        }


def TableMap(table: DigitFunctionTable) -> DigitFunctionTable:
    """The table itself: a table is a map spec."""
    return table


def random_table(rng, prime: int, klass: ScalingClass, depth: int, *,
                 tail_projection: bool = True) -> DigitFunctionTable:
    """A uniformly random valid table: arbitrary heads, a random permutation of
    the alphabet per prefix for every tail function."""
    p = Prime(prime)
    arities = [klass.k if i < klass.l else klass.k - klass.l + i + 1 for i in range(depth)]
    _check_budget(sum(p**a for a in arities), "a random table")
    tables = []
    for i, a in enumerate(arities):
        if i < klass.l:
            tables.append(tuple(rng.randrange(p) for _ in range(p**a)))
        else:
            P = p ** (a - 1)
            entries = [0] * p**a
            for prefix in range(P):
                perm = list(range(p))
                rng.shuffle(perm)
                entries[prefix::P] = perm
            tables.append(tuple(entries))
    return DigitFunctionTable(p, klass, tuple(tables), tail_projection=tail_projection)


def perturb_table(rng, base: DigitFunctionTable, first_digit: int, depth: int) -> DigitFunctionTable:
    """Replace the digit functions at indices >= first_digit by random ones.

    The result agrees with ``base`` on every output digit below
    ``first_digit``, so the sup-distance between the two maps is at most
    p^-first_digit, while both remain exactly locally scaling.
    """
    if first_digit < base.klass.l:
        raise ValueError("cannot perturb head digit functions below l")
    p = base.prime
    # stored rows are kept as they are; only projection digits are densified
    dense = range(base.stored_depth, first_digit)
    _check_budget(sum(p**base.arity(i) for i in dense), "the densified projection digits")
    kept = base.tables[:first_digit] + tuple(
        tuple(base.digit_value(i, idx) for idx in range(p**base.arity(i))) for i in dense)
    rand = random_table(rng, p, base.klass, depth, tail_projection=base.tail_projection)
    tables = kept + rand.tables[first_digit:depth]
    return DigitFunctionTable(p, base.klass, tables,
                              tail_projection=base.tail_projection)


def table_sup_distance_exponent(f: DigitFunctionTable, g: DigitFunctionTable,
                                depth: int) -> int | None:
    """Exact ||f - g||_inf as an exponent: the first output digit where the
    tables differ, by exhaustive comparison through ``depth``.  None means the
    maps agree on every compared digit (sup distance <= p^-depth)."""
    if f.prime != g.prime:
        raise PrimeMismatch(f"tables over primes {f.prime} and {g.prime}")
    if f.klass != g.klass:
        raise ValueError(f"tables of classes {f.klass} and {g.klass}")
    p = f.prime
    _check_budget(sum(p**f.arity(i) for i in range(depth)), "the sup-distance comparison")
    for i in range(depth):
        for idx in range(p**f.arity(i)):
            if f.digit_value(i, idx) != g.digit_value(i, idx):
                return i
    return None


@record
class ShiftPower(MapSpec):
    """S^m: drop the lowest m digits."""

    prime: Prime
    m: int

    def __post_init__(self):
        object.__setattr__(self, "prime", Prime(self.prime))
        if self.m < 1:
            raise ValueError("shift power must be >= 1")
        object.__setattr__(self, "klass", ScalingClass(self.m, self.m))

    def output_value(self, x: int, n: int) -> tuple:
        if n <= self.m:
            raise PrecisionError(f"need more than {self.m} digits to shift by {self.m}")
        return x // self.prime**self.m, n - self.m

    def min_input_precision(self, n_out: int) -> int:
        return n_out + self.m

    def structural_table(self) -> DigitFunctionTable:
        return DigitFunctionTable(self.prime, self.klass, (), tail_projection=True)

    def closed_form(self, n: int) -> int:
        return int(self.prime) ** (self.m * n)

    def spec_dict(self) -> dict:
        return {"type": "shift_power", "p": int(self.prime), "m": self.m}


@record
class Tj(MapSpec):
    """T_j: keep digits 0..j-1, then continue from digit m+j.

    T_0 is S^m.  T_j is (p^-(m+j), p^m) locally scaling and has p^(m+j)
    fixed points.
    """

    prime: Prime
    m: int
    j: int

    def __post_init__(self):
        object.__setattr__(self, "prime", Prime(self.prime))
        if self.m < 1 or self.j < 0:
            raise ValueError("need m >= 1 and j >= 0")
        object.__setattr__(self, "klass", ScalingClass(self.m + self.j, self.m))

    def output_value(self, x: int, n: int) -> tuple:
        p, j = self.prime, self.j
        n_out = max(min(n, j), n - self.m)
        if n_out < 1:
            raise PrecisionError("not enough digits for T_j")
        return x % p**j + x // p**(self.m + j) * p**j, n_out  # x < p^(m+j) if n_out <= j

    def min_input_precision(self, n_out: int) -> int:
        return n_out if n_out <= self.j else n_out + self.m

    def structural_table(self) -> DigitFunctionTable:
        # head digit i < j copies input digit i; the tail is the projection
        p, k = self.prime, self.m + self.j
        _check_power(p, k, "the T_j head tables", self.j)
        heads = tuple(tuple(idx // p**i % p for idx in range(p**k)) for i in range(self.j))
        return DigitFunctionTable(p, self.klass, heads, tail_projection=True)

    def closed_form(self, n: int) -> int | None:
        return int(self.prime) ** (self.m + self.j) if n == 1 else None

    def spec_dict(self) -> dict:
        return {"type": "tj", "p": int(self.prime), "m": self.m, "j": self.j}


@record
class Rmap(MapSpec):
    """S^m on inputs with x_0 != p-1, T_1 on inputs with x_0 = p-1.

    A (p^-(m+1), p^m) locally scaling map whose fixed-point count separates
    it from every T_j.
    """

    prime: Prime
    m: int

    def __post_init__(self):
        object.__setattr__(self, "prime", Prime(self.prime))
        if self.m < 1:
            raise ValueError("need m >= 1")
        object.__setattr__(self, "klass", ScalingClass(self.m + 1, self.m))

    def output_value(self, x: int, n: int) -> tuple:
        p, m = self.prime, self.m
        if n <= m:
            raise PrecisionError("not enough digits for R")
        if x % p != p - 1:
            return x // p**m, n - m
        return x % p + x // p ** (m + 1) * p, n - m  # T_1: keep x_0, continue from x_(m+1)

    def min_input_precision(self, n_out: int) -> int:
        return n_out + self.m

    def structural_table(self) -> DigitFunctionTable:
        # the one head digit is x_m, or p-1 on the T_1 branch x_0 = p-1
        p, k = self.prime, self.m + 1
        _check_power(p, k, "the R head table")
        head = tuple(idx // p**self.m % p if idx % p != p - 1 else p - 1
                     for idx in range(p**k))
        return DigitFunctionTable(p, self.klass, (head,), tail_projection=True)

    def closed_form(self, n: int) -> int | None:
        # the traditional prediction; exhaustive counting gives
        # p^(m-1)(p-1) + p^m, so reports carry both
        p, m = int(self.prime), self.m
        return p ** (m - 1) * (p - 1) + p ** (m + 1) if n == 1 else None

    def spec_dict(self) -> dict:
        return {"type": "r_map", "p": int(self.prime), "m": self.m}


@record
class AffineZp(MapSpec):
    """z -> a z + b on Z_p; always 1-Lipschitz."""

    a: ZpApprox
    b: ZpApprox

    def __post_init__(self):
        if self.a.prime != self.b.prime:
            raise ValueError("a and b must share a prime")

    @property
    def prime(self) -> Prime:
        return self.a.prime

    def output_value(self, x: int, n: int) -> tuple:
        # ZpApprox's a * x + b: a factor of valuation v adds v digits
        p, a, b = self.prime, self.a, self.b
        n = min(_val(a.value, p, a.precision) + n, _val(x, p, n) + a.precision, b.precision)
        return (a.value * x + b.value) % p**n, n

    def min_input_precision(self, n_out: int) -> int:
        return n_out

    def lipschitz_route(self, sample) -> str:
        return "structural:affine"

    def contraction_exponent(self) -> int:
        # an inexact norm (a = 0 at its precision) is the bound <= p^-exponent
        return self.a.norm().exponent

    def spec_dict(self) -> dict:
        return {
            "type": "affine_zp",
            "p": int(self.prime),
            "a": encode_value(self.a),
            "b": encode_value(self.b),
        }


@record
class AffineQp(MapSpec):
    """z -> a z + b on Q_p, a homeomorphism for a != 0."""

    a: QpApprox
    b: QpApprox
    domain = "qp"

    def __post_init__(self):
        a, b = self.a, self.b
        if a.prime != b.prime:
            raise ValueError("a and b must share a prime")
        if not a.value:
            raise ZeroAtPrecision("a is indistinguishable from zero")
        object.__setattr__(self, "_a", _window_canonical(
            a.prime, a.valuation_offset, a.width, a.value))
        object.__setattr__(self, "_b", (b.valuation_offset, b.width, b.value))

    @property
    def prime(self) -> Prime:
        return self.a.prime

    def output_window(self, v: int, n: int, X: int) -> tuple:
        # QpApprox's a * x + b, with a canonical once and for all
        p = self.a.prime
        return _window_addsub(p, *_window_mul(p, *self._a, *_window_canonical(p, v, n, X)),
                              *self._b, 1)

    def expansion_exponent(self) -> int:
        return -self._a[0]

    def affine(self) -> tuple:
        return self.a, self.b

    def inverse_spec(self) -> "AffineQp":
        a_inv = inverse_unit(self.a)
        return AffineQp(a_inv, -(a_inv * self.b))

    def min_input_precision(self, n_out: int) -> int:
        return n_out

    def spec_dict(self) -> dict:
        return {
            "type": "affine_qp",
            "p": int(self.prime),
            "a": encode_value(self.a),
            "b": encode_value(self.b),
        }


@record
class GaModZp(MapSpec):
    """z -> (a z) mod Z_p on Z_p, for a in Q_p.

    For ||a||_p = p^k with k > 0 this is (p^-k, p^k) locally scaling; for
    a = 1/p it is the shift map itself.
    """

    a: QpApprox

    def __post_init__(self):
        if not self.a.value:
            raise ZeroAtPrecision("a is indistinguishable from zero")
        k = -self.a.norm().exponent
        object.__setattr__(self, "klass", ScalingClass(k, k) if k >= 1 else None)

    @property
    def prime(self) -> Prime:
        return self.a.prime

    def output_value(self, x: int, n: int) -> tuple:
        # mod_zp(a * x) on QpApprox windows without their leading zeros
        p, a, vx = self.prime, self.a.normalize(), _val(x, self.prime, 0)
        v, w = a.valuation_offset + vx, min(a.width, n - vx)
        if v + w <= 0:
            raise PrecisionError("no nonnegative digits are determined")
        y = a.value * (x // p**vx) % p**w
        return (y * p**v if v >= 0 else y // p**-v), v + w

    def min_input_precision(self, n_out: int) -> int:
        va = self.a.normalize().valuation_offset
        return max(n_out - va, 1)

    def lipschitz_route(self, sample) -> str:
        if self.a.norm().exponent >= 0:
            return "structural:ga-mod-zp"
        raise CertificationError("cannot certify ||a|| <= 1: g_a may expand")

    def contraction_exponent(self) -> int | None:
        e = self.a.norm().exponent  # for ||a|| <= 1, g_a(x) - g_a(y) = a(x - y)
        return e if e >= 0 else None

    def spec_dict(self) -> dict:
        return {"type": "ga_mod_zp", "p": int(self.prime), "a": encode_value(self.a)}


@record
class Substitution(MapSpec):
    """Digitwise concatenation map from letter-to-word rules; 1-Lipschitz by
    construction since a prefix of the input determines a prefix of the output."""

    prime: Prime
    rules: tuple

    def __post_init__(self):
        object.__setattr__(self, "prime", Prime(self.prime))
        object.__setattr__(self, "rules", tuple(tuple(w) for w in self.rules))
        if len(self.rules) != self.prime:
            raise ValueError(f"need one rule per letter, got {len(self.rules)}")
        for w in self.rules:
            if not w:
                raise ValueError("substitution images must be nonempty")
            for c in w:
                if not 0 <= c < self.prime:
                    raise ValueError(f"letter {c} out of range")

    def output_value(self, x: int, n: int) -> tuple:
        out = [c for d in _decode(x, self.prime, n) for c in self.rules[d]]
        return _int_from_digits(out, self.prime), len(out)

    def min_input_precision(self, n_out: int) -> int:
        return n_out

    def lipschitz_route(self, sample) -> str:
        return "structural:substitution"

    def contraction_exponent(self) -> int:
        return 0

    def spec_dict(self) -> dict:
        return {"type": "substitution", "p": int(self.prime),
                "rules": [list(w) for w in self.rules]}


@record
class MahlerMap(MapSpec):
    """A map given by a truncated Mahler series."""

    series: MahlerSeries

    @property
    def prime(self) -> Prime:
        return self.series.prime

    def output_value(self, x: int, n: int) -> tuple:
        y = mahler_eval(self.series, ZpApprox._of(self.prime, n, x))
        return y.value, y.precision

    def min_input_precision(self, n_out: int) -> int:
        return n_out + legendre_valuation(max(self.series.terms - 1, 0), self.prime)

    def lipschitz_route(self, sample) -> str:
        report = one_lipschitz_report(self.series)
        if report.passed:
            return "mahler-criterion"
        raise CertificationError(
            f"Mahler criterion violated first at n={report.first_violation}")

    def contraction_exponent(self) -> int | None:
        # p^-e-Lipschitz iff (f - a_0)/p^e is 1-Lipschitz: ||a_n|| <= p^-e-floor(log_p n)
        report = one_lipschitz_report(self.series)
        gaps = (entry.norm.exponent - entry.bound_exponent for entry in report.entries)
        return min(gaps, default=0) if report.passed else None

    def spec_dict(self) -> dict:
        return {
            "type": "mahler",
            "p": int(self.prime),
            "coefficients": [encode_value(a) for a in self.series.coefficients],
        }


@record
class Compose(MapSpec):
    """Apply ``parts`` in listed order: Compose([f, g]) maps x to g(f(x))."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("Compose needs at least one part")
        primes = {part.prime for part in self.parts}
        if len(primes) != 1:
            raise ValueError("all parts must share a prime")

    @property
    def prime(self) -> Prime:
        return self.parts[0].prime

    @property
    def domain(self):  # type: ignore[override]
        return self.parts[0].domain

    def output_value(self, x: int, n: int) -> tuple:
        return reduce(lambda y, part: part.output_value(*y), self.parts, (x, n))

    def output_window(self, v: int, n: int, X: int) -> tuple:
        return reduce(lambda w, part: part.output_window(*w), self.parts, (v, n, X))

    def min_input_precision(self, n_out: int) -> int:
        need = n_out
        for part in reversed(self.parts):
            need = part.min_input_precision(need)
        return need

    def lipschitz_route(self, sample) -> str:
        # each part is certified on its own: by its fact, else by ``sample``
        for part in self.parts:
            part.lipschitz_route(sample) or sample(part)
        return "structural:composition"

    def contraction_exponent(self) -> int | None:
        # Lipschitz exponents add up; a part without one leaves the sum unknown
        exps = [part.contraction_exponent() for part in self.parts]
        return None if None in exps else sum(exps)

    def expansion_exponent(self) -> int | None:
        # exact scaling constants add up; a part without one leaves the sum unknown
        exps = [part.expansion_exponent() for part in self.parts]
        return None if None in exps else sum(exps)

    def affine(self) -> tuple | None:
        # z -> a2 (a1 z + b1) + b2, when every part states its coefficients
        facts = [part.affine() for part in self.parts]
        if None in facts:
            return None
        a, b = facts[0]
        for a2, b2 in facts[1:]:
            a, b = a2 * a, a2 * b + b2
        return a, b

    def inverse_spec(self) -> "Compose":
        return Compose(tuple(part.inverse_spec() for part in reversed(self.parts)))

    def spec_dict(self) -> dict:
        return {"type": "compose", "p": int(self.prime),
                "parts": [part.spec_dict() for part in self.parts]}


def table_from_spec(spec: MapSpec, depth: int | None = None) -> DigitFunctionTable:
    """The spec's structural table, else :func:`extract_table` at its known
    scaling class, which needs an explicit depth.

    Shift powers, T_j and R have projection tails, so only the l head
    functions are stored and ``tail_projection`` covers every depth.
    """
    table = spec.structural_table()
    if table is not None:
        return table
    if spec.klass is None or depth is None:
        raise ValueError("no structural table; use extract_table with an explicit class")
    return extract_table(spec, spec.klass, depth)


def _eval_prefix(spec: MapSpec, prefix: int, length: int, n_out: int) -> tuple:
    """``output_value`` at the exact point whose first ``length`` digits are
    those of the integer ``prefix`` < p^length and whose further digits are
    zero, with enough zeros to determine n_out output digits."""
    need = max(spec.min_input_precision(n_out), length, 1)
    for attempt in range(3):
        y, got = spec.output_value(prefix, need)
        if got >= n_out:
            return y, got
        need += n_out - got
    raise PrecisionError(f"cannot reach {n_out} output digits for {spec!r}")


def extract_table(spec: MapSpec, klass: ScalingClass, depth: int) -> DigitFunctionTable:
    """Tabulate a map's digit functions for a claimed scaling class.

    The spec's ``output_value`` is read once at every truncation of full
    length L = max(k, m + depth) padded with zeros, and digit function i is
    read off as the p^i coefficient of the value at the truncations below its
    arity (the same exact points as its shorter arguments).  Construction
    verifies bijectivity on the last variable (aborting with a witness); the
    table's images of the truncations are then replayed against those
    evaluations and against one more per truncation, padded with digits
    p-1, so a map whose digit i depends on digits beyond the declared arity
    is rejected with an :class:`InconsistentScaling` witness.
    """
    p = spec.prime
    k, l = klass.k, klass.l
    L = max(k, k - l + depth)
    arities = [k if i < l else k - l + i + 1 for i in range(depth)]
    _check_budget(sum(p**a for a in arities) + p**L, "table extraction")
    zero_padded = [_eval_prefix(spec, idx, L, depth) for idx in range(p**L)]
    tables = tuple(tuple(y // p**i % p for y, _ in zero_padded[:p**a])
                   for i, a in enumerate(arities))
    table = DigitFunctionTable(p, klass, tables)
    predicted = table.images(L)[0]
    pad_width = max(spec.min_input_precision(depth) - L, 1)
    pad = (p**pad_width - 1) * p**L  # pad_width digits p-1 after the truncation
    for idx, (y, n) in enumerate(zero_padded):
        for d in (0, p - 1):
            if d:
                y, n = spec.output_value(idx + pad, L + pad_width)
            # the difference's valuation is the first digit that disagrees
            if diff := (y - predicted[idx]) % p**min(depth, n):
                raise InconsistentScaling(_val(diff, p, 0), _decode(idx, p, L),
                                          (d,) * pad_width)
    return table


def iterate(map_like, n: int, x: ZpApprox) -> ZpApprox:
    """n-fold application; precision shrinks by m per step for table maps."""
    if n < 1:
        raise ValueError("iterate count must be >= 1")
    for _ in range(n):
        x = map_like.apply(x)
    return x


def mahler_coefficients(spec: MapSpec, terms: int, precision: int) -> MahlerSeries:
    """Mahler coefficients a_0..a_terms of a Z_p spec, exactly mod p^precision.

    The binomial sums for a_0..a_terms have (terms+1)(terms+2)/2 terms in all;
    over ``ENTRY_BUDGET`` of them is refused before any evaluation.
    """
    p = spec.prime
    if terms < 0:
        raise ValueError(f"need terms >= 0, got {terms}")
    _check_budget((terms + 1) * (terms + 2) // 2, "the Mahler binomial sums")
    values = []
    for j in range(terms + 1):
        length = next(t for t in range(j + 1) if p**t > j)  # the digits of j
        y, n = _eval_prefix(spec, j, length, precision)
        values.append(ZpApprox._of(p, n, y).truncate(precision).value)
    return series_from_values(p, values, precision)


def _int(value, what: str) -> int:
    """A JSON integer, refused otherwise: int() would truncate 1.5 and read true as 1."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _bool(value, what: str) -> bool:
    """A JSON boolean, refused otherwise: bool() would read "false" as true."""
    if type(value) is not bool:
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def _digit_rows(rows) -> tuple:
    return tuple(tuple(_int(c, "a digit") for c in row) for row in rows)


def _prime(d: dict) -> Prime:
    return Prime(_int(d["p"], "p"))


# each spec type reads its fields; the classes check what their values mean
_SPEC_TYPES = {
    "shift_power": lambda d: ShiftPower(_prime(d), _int(d["m"], "m")),
    "tj": lambda d: Tj(_prime(d), _int(d["m"], "m"), _int(d["j"], "j")),
    "r_map": lambda d: Rmap(_prime(d), _int(d["m"], "m")),
    "affine_zp": lambda d: AffineZp(parse_value(d["a"], "zp"), parse_value(d["b"], "zp")),
    "affine_qp": lambda d: AffineQp(parse_value(d["a"], "qp"), parse_value(d["b"], "qp")),
    "ga_mod_zp": lambda d: GaModZp(parse_value(d["a"], "qp")),
    "substitution": lambda d: Substitution(_prime(d), _digit_rows(d["rules"])),
    "table": lambda d: DigitFunctionTable(
        _prime(d), ScalingClass(_int(d["k"], "k"), _int(d["m"], "m")),
        _digit_rows(d["tables"]),
        tail_projection=_bool(d.get("tail_projection", False), "tail_projection")),
    "mahler": lambda d: MahlerMap(MahlerSeries(
        _prime(d), tuple(parse_value(a, "zp") for a in d["coefficients"]))),
    "compose": lambda d: Compose(tuple(spec_from_dict(part) for part in d["parts"])),
}


def spec_from_dict(d: dict) -> MapSpec:
    if not isinstance(d, dict):
        raise ValueError(f"a map spec must be a JSON object, got {type(d).__name__}")
    try:
        builder = _SPEC_TYPES[d["type"]]
    except (KeyError, TypeError):
        raise ValueError(f"unknown map spec type {d.get('type')!r}") from None
    try:
        return builder(d)
    except TypeError as exc:
        raise ValueError(f"malformed {d['type']} map spec: {exc}") from exc


def dumps_spec(spec: MapSpec) -> str:
    """Byte-stable JSON encoding (sorted keys, compact separators)."""
    return json.dumps(spec.spec_dict(), sort_keys=True, separators=(",", ":"))


def loads_spec(text: str) -> MapSpec:
    return spec_from_dict(json.loads(text))


def save_spec(spec: MapSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_spec(spec) + "\n")


def load_spec(path) -> MapSpec:
    with open(path, encoding="utf-8") as fh:
        return loads_spec(fh.read())
