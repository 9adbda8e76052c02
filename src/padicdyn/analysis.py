"""Verification and invariant extraction for locally scaling maps.

Certifying a scaling class means checking the exact norm equality
||f(x)-f(y)|| = p^m ||x-y|| on pairs at every certifiable distance stratum;
expansivity means watching distinct truncations separate beyond p^-k under
iteration.  Both run exhaustively at desk scale and by seeded stratified
sampling above it, and both report witnesses rather than booleans alone.
At desk scale the scaling check reads the map's ``images`` once and runs
per residue class mod p^j, top-down in O(p^N), not per pair; only a failed
check walks the pairs, for the first violating one.

Fixed and periodic points are counted by the seed-constraint argument, not
root finding: a point of period dividing n is determined by its first
K = nm + l digits (the seed); the l head constraints on f^n select the
admissible seeds, and bijectivity on the last variable extends each
admissible seed digit by digit, uniquely.  The extension runs on the shadow
solver's digit streams and solve step, so no dense iterate table is built;
fixed points are the case n = 1.  The count is therefore exact, and for
shift powers, T_j and R it can be compared with the closed forms from the
conjugacy-class counting argument.
"""

from __future__ import annotations

import random

from .core import PadicError, PNorm, PrecisionError, ZpApprox, _val, distance, record
from .maps import (
    DepthExhausted,
    ScalingClass,
    _check_budget,
    _decode,
    table_from_spec,
)
from .shadowing import _solve_next_digit


@record
class ScalingReport:
    klass: ScalingClass
    verified: bool
    witness: tuple | None  # (x digits, y digits, expected exponent, got PNorm)
    pairs_checked: int
    mode: str  # "exhaustive" | "stratified"

    def as_dict(self, p: int) -> dict:
        d = {
            "k": self.klass.k,
            "m": self.klass.m,
            "verified": self.verified,
            "pairs_checked": self.pairs_checked,
            "mode": self.mode,
        }
        if self.witness is not None:
            x, y, expect, got = self.witness
            d["witness"] = {
                "x": list(x),
                "y": list(y),
                "expected_exponent": expect,
                "got": got.describe(p),
            }
        return d


def _scaling_miss(vx: int, nx: int, vy: int, ny: int, p: int, e: int) -> PNorm | None:
    """None when two images lie at distance exactly p^-e, else their distance.

    The images are the residues vx mod p^nx and vy mod p^ny, so their
    difference is known mod p^min(nx, ny); a zero difference is only the
    bound <= p^-min(nx, ny).
    """
    n = min(nx, ny)
    d = (vx - vy) % p**n
    if not d:
        return PNorm(n, exact=False)
    v = _val(d, p, n)
    return None if v == e else PNorm(v)


def _scales_per_class(values: list, p: int, N: int, k: int, m: int) -> bool:
    """Whether every pair of inputs mod p^N at distance p^-j, j in [k, N-m),
    has images at distance exactly p^-(j-m); ``values[x]`` is the image of x,
    all at one output precision.

    That holds iff the images mod p^(j-m+1) depend only on x mod p^(j+1),
    j in [k-1, N-m), and the p subclasses c + d p^j of each class c mod p^j,
    j in [k, N-m), take p distinct values at digit j-m.  Top-down, stratum j
    reduces the list stratum j+1 kept, so all strata cost O(p^N).  A digit
    beyond the output precision reads 0 everywhere, so that stratum fails.
    """
    head = values
    for j in range(N - m - 1, k - 2, -1):
        size, mod, pj = p ** (j + 1), p ** (j - m + 1), p**j
        low = [v % mod for v in head]
        head = low[:size]
        if low != head * (len(low) // size):
            return False
        # images mod p^(j-m) depend on x mod p^j (checked at j-1), so p
        # distinct images in a class are p distinct digits j-m
        if j >= k and len({h * pj + x % pj for x, h in enumerate(head)}) < size:
            return False
    return True


def verify_scaling(map_like, klass: ScalingClass, precision: int, *,
                   exhaustive_limit: int = 4096, per_stratum: int = 512,
                   seed: int = 0) -> ScalingReport:
    """Check ||f(x)-f(y)|| = p^m ||x-y|| on pairs with distance p^-j, j in [k, N-m).

    Exhaustive over all pairs of N-digit truncations when p^N is small: the
    map's ``images(N)`` are checked per residue class mod p^j, in O(p^N),
    and a verified report counts every pair of the strata.  When that check
    fails, or the images come back at mixed output precisions, the pairs are
    walked in (x, y) order and the first violating pair is the witness, with
    the pairs walked up to it as the count.  A caller-raised limit above
    ``maps.ENTRY_BUDGET`` is refused before any image is computed.  Above
    the limit, ``per_stratum`` seeded random pairs per distance stratum are
    checked on ``output_value``, and the first violating one is the witness.
    """
    p = map_like.prime
    k, m = klass.k, klass.m
    N = precision
    if N < k + m + 1:
        raise PrecisionError(f"precision {N} < k+m+1 = {k + m + 1} certifies nothing")
    strata = range(k, N - m)

    if p**N <= exhaustive_limit:
        mode = "exhaustive"
        _check_budget(p**N, "the exhaustive scaling images")
        values, precisions = map_like.images(N)
        if len(set(precisions)) == 1 and _scales_per_class(values, p, N, k, m):
            pairs = sum(p**N * (p - 1) * p ** (N - j - 1) // 2 for j in strata)
            return ScalingReport(klass, True, None, pairs, mode)
        pairs = 0
        for xi in range(p**N):
            for yi in range(xi + 1, p**N):
                j = _val(yi - xi, p, N)
                if j < k or j >= N - m:
                    continue
                pairs += 1
                got = _scaling_miss(values[xi], precisions[xi], values[yi], precisions[yi],
                                    p, j - m)
                if got is not None:
                    return ScalingReport(
                        klass, False,
                        (_decode(xi, p, N), _decode(yi, p, N), j - m, got),
                        pairs, mode)
        return ScalingReport(klass, True, None, pairs, mode)

    mode = "stratified"
    f, pairs = map_like.output_value, 0
    rng = random.Random(seed)
    for j in strata:
        pN, pj, rest = p**N, p**j, p ** (N - j - 1)
        for _ in range(per_stratum):
            xi = rng.randrange(pN)
            yj = (xi // pj % p + rng.randrange(1, p)) % p
            hi = rng.randrange(rest) if rest > 1 else 0
            yi = xi % pj + (yj + hi * p) * pj
            pairs += 1
            got = _scaling_miss(*f(xi, N), *f(yi, N), p, j - m)
            if got is not None:
                return ScalingReport(
                    klass, False, (_decode(xi, p, N), _decode(yi, p, N), j - m, got),
                    pairs, mode)
    return ScalingReport(klass, True, None, pairs, mode)


@record
class ExpansivityReport:
    expansivity_exponent: int
    horizon: int
    pairs_checked: int
    separated: int
    undecided: tuple  # capped list of unseparated pairs (x digits, y digits)
    separation_histogram: tuple  # (n, count) sorted by n
    mode: str

    @property
    def all_separated(self) -> bool:
        return not self.undecided and self.separated == self.pairs_checked

    def as_dict(self) -> dict:
        return {
            "expansivity_exponent": self.expansivity_exponent,
            "horizon": self.horizon,
            "pairs_checked": self.pairs_checked,
            "separated": self.separated,
            "undecided": [[list(x), list(y)] for x, y in self.undecided],
            "separation_histogram": [list(t) for t in self.separation_histogram],
            "mode": self.mode,
        }


def expansivity_check(map_like, expansivity_exponent: int, horizon: int,
                      precision: int, *, exhaustive_limit: int = 256) -> ExpansivityReport:
    """Find, for pairs of distinct truncations, the least n <= horizon with
    d(f^n x, f^n y) > p^-c: all pairs up to ``exhaustive_limit`` inputs,
    else 2048 seeded random pairs.  Pairs still below precision at the
    horizon are reported as undecided (the first 32 listed), never silently
    counted as separated."""
    p = map_like.prime
    f = map_like.apply
    N = precision
    c = expansivity_exponent

    if p**N <= exhaustive_limit:
        mode = "exhaustive"
        _check_budget(p**N * (p**N - 1) // 2, "the exhaustive expansivity pairs")
        points = [ZpApprox.from_int(i, p, N) for i in range(p**N)]
        pair_list = [(a, b) for a in range(len(points)) for b in range(a + 1, len(points))]
    else:
        mode = "sampled"
        rng = random.Random(0)
        points = []
        pair_list = []
        for _ in range(2048):
            xi = rng.randrange(p**N)
            yi = rng.randrange(p**N)
            if xi == yi:
                yi = (yi + 1 + rng.randrange(p**N - 1)) % p**N
            points.append(ZpApprox.from_int(xi, p, N))
            points.append(ZpApprox.from_int(yi, p, N))
            pair_list.append((len(points) - 2, len(points) - 1))

    # orbit levels; evaluation stops for a point once precision is exhausted
    levels = [points]
    for _ in range(horizon):
        nxt = []
        for v in levels[-1]:
            if v is None:
                nxt.append(None)
                continue
            try:
                nxt.append(f(v))
            except PadicError:
                nxt.append(None)
        levels.append(nxt)

    separated = 0
    histogram: dict[int, int] = {}
    undecided = []
    for a, b in pair_list:
        hit = None
        for n in range(horizon + 1):
            xa, xb = levels[n][a], levels[n][b]
            if xa is None or xb is None:
                break
            if distance(xa, xb).gt_pow(c):
                hit = n
                break
        if hit is None:
            if len(undecided) < 32:
                undecided.append((points[a].digits, points[b].digits))
        else:
            separated += 1
            histogram[hit] = histogram.get(hit, 0) + 1
    return ExpansivityReport(
        expansivity_exponent=c,
        horizon=horizon,
        pairs_checked=len(pair_list),
        separated=separated,
        undecided=tuple(undecided),
        separation_histogram=tuple(sorted(histogram.items())),
        mode=mode,
    )


@record
class FixedPointReport:
    map_id: str
    iterate_n: int
    klass: ScalingClass
    count: int
    seeds: tuple  # admissible seeds in A^K, K = klass.k
    points: tuple  # each seed extended to working precision (ZpApprox)
    closed_form: int | None  # the classical closed-form prediction, when one exists

    def as_dict(self, p: int) -> dict:
        return {
            "map": self.map_id,
            "iterate": self.iterate_n,
            "k": self.klass.k,
            "m": self.klass.m,
            "count": self.count,
            "closed_form": self.closed_form,
            "matches_closed_form": (None if self.closed_form is None
                                    else self.count == self.closed_form),
            "seeds": [list(s) for s in self.seeds],
            "points": [str(pt) for pt in self.points],
        }


def fixed_points(map_like, *, precision: int = 12) -> FixedPointReport:
    """Exact fixed points of a table map: :func:`periodic_points` at n = 1."""
    return periodic_points(map_like, 1, precision=precision)


def periodic_points(map_like, n: int, *, precision: int = 12) -> FixedPointReport:
    """Exact points of period dividing n, by seed enumeration.

    f^n is (p^-K, p^(nm)) locally scaling with K = nm + l, so such a point
    is fixed by its first K digits (the seed).  The level streams hold
    f^j(seed), j = 1..n; a seed is admissible when the l head digits of
    f^n(seed) equal its own, and it extends uniquely, one digit per solve
    step, until it has ``precision`` digits or the table has no digit
    function for the next one.  These counts are conjugacy invariants and
    are what separates scaling classes that share every fixed-point count.
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    table = table_from_spec(map_like, depth=precision)
    # "TableMap" is the id reports give a table, as for the "table" map files
    map_id = "TableMap" if table is map_like else type(map_like).__name__
    p = table.prime
    m, l = table.klass.m, table.klass.l
    K = n * m + l
    # each seed costs n kernel calls plus up to ``precision`` solve steps
    _check_budget(p**K * (n + precision), f"the seeds of period {n}")
    seeds = []
    points = []
    head = p**l
    for idx in range(p**K):
        levels = [(idx, K)]
        for j in range(n):
            levels.append(table.level_value(*levels[j]))
        if levels[n][1] < l:
            raise DepthExhausted(
                f"the table cannot give the {l} head digits of iterate {n}")
        if levels[n][0] != idx % head:
            continue
        seeds.append(_decode(idx, p, K))
        while levels[0][1] < precision and table.has_digit(levels[0][1] - m):
            i = levels[n][1]
            _solve_next_digit(table, levels, n, levels[0][0] // p**i % p)
        points.append(ZpApprox._of(p, levels[0][1], levels[0][0]))
    return FixedPointReport(
        map_id=map_id if n == 1 else f"{map_id}^({n})",
        iterate_n=n,
        klass=ScalingClass(K, n * m),
        count=len(seeds),
        seeds=tuple(seeds),
        points=tuple(points),
        closed_form=map_like.closed_form(n),
    )
