"""Brute-force oracles for small prime and precision.

Everything here is deliberately dumb: exhaustive enumeration of residues
mod p^N using plain integers and direct map evaluation, with none of the
seed-constraint or digit-solving machinery it is used to check.  An
enumeration over ``maps.ENTRY_BUDGET`` residues is refused before it starts.
"""

from __future__ import annotations

from .core import ZpApprox
from .maps import _check_budget


def brute_fixed_point_count(map_like, prime: int, precision: int) -> int:
    """Count x in Z/p^N with f(x) = x on every digit f determines.

    For a (p^-k, p^m) map each true fixed point corresponds to exactly one
    solution of this congruence (the tail digits are forced), so the count
    is the exact fixed-point count whenever N >= k.
    """
    return brute_periodic_point_count(map_like, prime, 1, precision)


def brute_periodic_point_count(map_like, prime: int, n: int, precision: int) -> int:
    """Count x in Z/p^N with f^n(x) = x on every determined digit."""
    p = prime
    if precision < 1:
        raise ValueError(f"need precision >= 1, got {precision}")
    _check_budget(p**precision, "the brute-force periodic-point count")
    count = 0
    for xi in range(p**precision):
        y = ZpApprox.from_int(xi, p, precision)
        for _ in range(n):
            y = map_like.apply(y)
        # an image longer than x has digits x lacks, so it cannot match
        if y.precision <= precision and y.value == xi % p**y.precision:
            count += 1
    return count


def brute_shadow_points(map_like, orbit_points, k: int, m: int, s: int,
                        precision: int) -> list:
    """All y in Z/p^N whose orbit matches the pseudo-orbit to p^-(k+s).

    A candidate matches when digits 0..k+s-1 of f^n(y) equal those of the
    n-th orbit point, for every n at which the candidate's precision still
    determines those digits.  Returns the matching residues as integers.
    """
    p = orbit_points[0].prime
    want, mod = k + s, p ** (k + s)
    if precision < 1:
        raise ValueError(f"need precision >= 1, got {precision}")
    _check_budget(p**precision, "the brute-force shadow search")
    # each orbit point's first k+s digits as a residue; a shorter point matches none
    targets = [x.value % mod if x.precision >= want else None for x in orbit_points]
    out = []
    for yi in range(p**precision):
        ok = True
        cur = ZpApprox.from_int(yi, p, precision)
        for target in targets:
            if cur.precision < want:
                break
            if cur.value % mod != target:
                ok = False
                break
            if cur.precision - m < want:
                break
            cur = map_like.apply(cur)
        if ok:
            out.append(yi)
    return out
