"""Mahler series: binomial-coefficient expansions of continuous maps on Z_p.

Any continuous f: Z_p -> Z_p has an expansion f(x) = sum a_n * C(x, n) in
the binomial coefficient polynomials C(x, n) = x(x-1)...(x-n+1)/n!.  The
coefficients of the truncation are recovered by finite differences at the
integer points 0..M, exactly, modulo p^N.  Evaluation tracks the valuation
of n! (Legendre's formula) so the precision of every term is certified
rather than guessed.

The 1-Lipschitz criterion checked here reads the coefficient bound as
||a_n||_p <= p^-floor(log_p n); a report entry is a certified pass, a
certified violation (with the witnessing coefficient), or undecided when
the coefficient is zero to its precision but the precision is too short
to certify the bound.
"""

from __future__ import annotations

import math

from .core import PNorm, PrecisionError, Prime, ZpApprox, inverse_unit, mod_zp, record


@record
class MahlerSeries:
    """A truncated Mahler expansion: coefficients a_0..a_M as Z_p values."""

    __slots__ = ("prime", "coefficients")
    prime: Prime
    coefficients: tuple

    def __post_init__(self):
        if not isinstance(self.prime, Prime):
            object.__setattr__(self, "prime", Prime(self.prime))
        if not isinstance(self.coefficients, tuple):
            object.__setattr__(self, "coefficients", tuple(self.coefficients))
        for a in self.coefficients:
            if a.prime != self.prime:
                raise ValueError("coefficient prime differs from series prime")

    @property
    def terms(self) -> int:
        return len(self.coefficients)


def legendre_valuation(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


def series_from_values(prime: int, values, precision: int) -> MahlerSeries:
    """Coefficients from the map's values at 0..M by finite differences.

    a_n = sum_{j<=n} (-1)^(n-j) C(n,j) f(j), computed in exact integer
    arithmetic modulo p^precision.  ``values[j]`` must be f(j) mod p^precision.
    """
    p = Prime(prime)
    mod = p**precision
    coeffs = []
    for n in range(len(values)):
        acc = 0
        for j in range(n + 1):
            term = math.comb(n, j) * values[j]
            acc += term if (n - j) % 2 == 0 else -term
        coeffs.append(ZpApprox.from_int(acc % mod, p, precision))
    return MahlerSeries(p, tuple(coeffs))


def binomial_value(x: ZpApprox, n: int) -> ZpApprox:
    """C(x, n) with exact carry tracking.

    The numerator x(x-1)...(x-n+1) is a product of exact Z_p values at x's
    precision; dividing by n! factors out p^v_p(n!) (certified: the low
    digits of the numerator vanish) and Hensel-inverts the unit part.  The
    result has precision N - v_p(n!); if that is not positive the denominator
    valuation has eaten the whole working precision and an error is raised.
    """
    p = x.prime
    N = x.precision
    if n == 0:
        return ZpApprox.from_int(1, p, N)
    v = legendre_valuation(n, p)
    if N - v < 1:
        raise PrecisionError(
            f"C(x,{n}): valuation of {n}! is {v}, at least {v + 1} digits needed, have {N}"
        )
    num = x
    for t in range(1, n):
        num = num * (x - ZpApprox.from_int(t, p, N))
    if num.value % p**v:
        raise PrecisionError(f"C(x,{n}): numerator not divisible by p^{v}")
    shifted = ZpApprox.from_int(num.value // p**v, p, num.precision - v) if v else num
    unit = math.factorial(n) // p**v
    inv = mod_zp(inverse_unit(ZpApprox.from_int(unit, p, N - v)))
    return shifted * inv


def mahler_eval(series: MahlerSeries, x: ZpApprox) -> ZpApprox:
    """Evaluate the truncated series at x.

    Result precision is the minimum over the terms, i.e. N - v_p(M!) for the
    last term; the core arithmetic propagates it without further bookkeeping.
    """
    if x.prime != series.prime:
        raise ValueError("prime mismatch between series and point")
    total = None
    for n, a in enumerate(series.coefficients):
        term = a * binomial_value(x, n)
        total = term if total is None else total + term
    if total is None:
        raise ValueError("empty series")
    return total


@record
class LipschitzEntry:
    __slots__ = ("n", "norm", "bound_exponent", "status")
    n: int
    norm: PNorm
    bound_exponent: int
    status: str  # "ok" | "violation" | "undecided"


@record
class OneLipschitzReport:
    __slots__ = ("entries", "passed", "first_violation", "undecided")
    entries: tuple
    passed: bool
    first_violation: int | None
    undecided: tuple

    def as_dict(self, p: int) -> dict:
        return {
            "passed": self.passed,
            "first_violation": self.first_violation,
            "undecided": list(self.undecided),
            "entries": [
                {
                    "n": e.n,
                    "norm": e.norm.describe(p),
                    "bound": f"{p}^-{e.bound_exponent}",
                    "status": e.status,
                }
                for e in self.entries
            ],
        }


def one_lipschitz_report(series: MahlerSeries) -> OneLipschitzReport:
    """Check ||a_n||_p <= p^-floor(log_p n) for every n >= 1 in the series.

    floor(log_p n) is this module's reading of the printed criterion, whose
    running index is typeset inconsistently in the source material; the
    report is not an authority on any other reading.
    """
    p = series.prime
    entries = []
    first_violation = None
    undecided = []
    for n in range(1, series.terms):
        bound = 0
        q = p
        while q <= n:
            bound += 1
            q *= p
        nrm = series.coefficients[n].norm()
        if nrm.leq_pow(bound):
            status = "ok"
        elif nrm.gt_pow(bound):
            status = "violation"
            if first_violation is None:
                first_violation = n
        else:
            status = "undecided"
            undecided.append(n)
        entries.append(LipschitzEntry(n, nrm, bound, status))
    return OneLipschitzReport(
        entries=tuple(entries),
        passed=first_violation is None and not undecided,
        first_violation=first_violation,
        undecided=tuple(undecided),
    )
