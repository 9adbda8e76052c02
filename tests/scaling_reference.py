"""Per-stratum scaling checks and per-entry extraction: references for the
one-pass forms.

``analysis._scales_per_class`` checks every distance stratum from the list
the stratum above it kept, ``verify_scaling``'s stratified loop computes
its powers once per stratum, and ``maps.extract_table`` evaluates the spec
once per truncation and replays the table's ``images``.  These are the
loops they replaced, kept as the tests' references: every stratum reduces
all p^N images again, every pair recomputes its powers and builds its
inputs with ``from_int``, and every table entry is its own spec evaluation,
replayed through ``apply`` one truncation at a time.  ``sampled_expansion``
is the seeded pair sampler that once certified a Q_p map's expansion
constant; the library now refuses a map that does not state it, and the
tests check every stated constant against the sampler.  The module is not
collected by pytest (no ``test_`` prefix); test modules import it by name,
since pytest puts their own directory on ``sys.path``.
"""

import random

from padicdyn.analysis import _scaling_miss
from padicdyn.core import QpApprox, ZpApprox, _val, distance
from padicdyn.maps import (
    CertificationError,
    DigitFunctionTable,
    InconsistentScaling,
    _check_budget,
    _decode,
    _eval_prefix,
)


def per_stratum_scales(values, p, N, k, m):
    """:func:`padicdyn.analysis._scales_per_class`, one full pass per stratum."""
    for j in range(k, N - m):
        s, pj = p ** (j - m), p**j
        low = [v % (p * s) for v in values]  # image digits 0..j-m
        head = low[: p * pj]
        if low != head * p ** (N - j - 1):
            return False
        subclasses = zip(*(head[d * pj:(d + 1) * pj] for d in range(p)))
        if any(sorted(t) != list(range(t[0] % s, p * s, s)) for t in subclasses):
            return False
    return True


def stratified_scaling(map_like, klass, N, per_stratum, seed):
    """The stratified branch of :func:`padicdyn.analysis.verify_scaling`:
    (verified, pairs checked, witness)."""
    p, f = map_like.prime, map_like.apply
    k, m = klass.k, klass.m
    pairs = 0
    rng = random.Random(seed)
    for j in range(k, N - m):
        for _ in range(per_stratum):
            xi = rng.randrange(p**N)
            xj = (xi // p**j) % p
            yj = (xj + rng.randrange(1, p)) % p
            hi = rng.randrange(p ** (N - j - 1)) if N - j - 1 > 0 else 0
            yi = xi % p**j + yj * p**j + hi * p ** (j + 1)
            pairs += 1
            fx = f(ZpApprox.from_int(xi, p, N))
            fy = f(ZpApprox.from_int(yi, p, N))
            got = _scaling_miss(fx.value, fx.precision, fy.value, fy.precision, p, j - m)
            if got is not None:
                return False, pairs, (_decode(xi, p, N), _decode(yi, p, N), j - m, got)
    return True, pairs, None


def entrywise_extract_table(spec, klass, depth):
    """:func:`padicdyn.maps.extract_table`, one evaluation per table entry and
    one ``apply`` per replayed truncation."""
    p = spec.prime
    k, l = klass.k, klass.l
    L = max(k, k - l + depth)
    arities = [k if i < l else k - l + i + 1 for i in range(depth)]
    _check_budget(sum(p**a for a in arities) + p**L, "table extraction")
    tables = tuple(tuple(_eval_prefix(spec, idx, a, i + 1)[0] // p**i % p
                         for idx in range(p**a)) for i, a in enumerate(arities))
    table = DigitFunctionTable(p, klass, tables)
    pad_width = max(spec.min_input_precision(depth) - L, 1)
    for idx in range(p**L):
        predicted = table.apply(ZpApprox._of(p, L, idx)).value
        for d in (0, p - 1):
            pad = d * (p**pad_width - 1) // (p - 1)  # pad_width digits d
            y = spec.apply(ZpApprox._of(p, L + pad_width, idx + pad * p**L))
            if diff := (y.value - predicted) % p**min(depth, y.precision):
                raise InconsistentScaling(_val(diff, p, 0), _decode(idx, p, L),
                                          (d,) * pad_width)
    return table


def sampled_expansion(spec):
    """The exponent k with ||f(x) - f(y)|| = p^k ||x - y|| on 128 seeded
    sample pairs of Q_p values; pairs without exact distances are skipped."""
    rng = random.Random(0)
    p = spec.prime
    k = None
    for _ in range(128):
        v = rng.randrange(-3, 3)
        x = QpApprox(p, v, tuple(rng.randrange(p) for _ in range(12)))
        y = QpApprox(p, v, tuple(rng.randrange(p) for _ in range(12)))
        din = distance(x, y)
        if not din.exact:
            continue
        dout = distance(spec.apply(x), spec.apply(y))
        if not dout.exact:
            continue
        scale = din.exponent - dout.exponent
        if k is None:
            k = scale
        elif k != scale:
            raise CertificationError(f"scaling is not exact: saw p^{k} and p^{scale}")
    if k is None:
        raise CertificationError("no pair with certifiable distances")
    return k
