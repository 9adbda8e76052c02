"""Pseudo-orbit generation and the four shadowing constructions.

A delta-pseudo-orbit stores its points together with the exact residuals
w_n = x_{n+1} - f(x_n); its certified delta is the honest maximum of the
residual norms, recomputable from the points at any time.  One seeded
generator, ``perturb_orbit``, builds them on Z_p and Q_p alike: forward
from x_0 through f, and backward through the map's exact inverse when
asked for backward steps (the two-sided orbits of Q_p homeomorphisms).

Solvers:

* ``shadow_locally_scaling`` -- the recursive digit construction for a
  (p^-k, p^m) table map.  With epsilon = p^-(k+s) and delta = p^-(l+s)
  (delta = p^-(k+s) when m = k), the shadow point y starts as the first
  k+s digits of x_0; step n then forces digits l+s..k+s-1 of f^n(y) to
  match the n-th orbit point, which pins down the next k-l digits of y,
  one at a time: each digit function is a bijection in its last variable,
  so each digit is read from that bijection's inverse, one lookup per
  stored iterate level from f^n down to y (a tail projection passes the
  digit through, and so does every level below it), and re-checked by one
  forward table read per stored level.  Only the levels from the walk's
  stop up to f^n gain the digit: the ones below it are projections that
  nothing reads again, so a digit costs O(depth/m) stream updates, not
  one per iterate level.  The solver never materializes the iterate
  tower; it maintains f^j(y) lazily as digit streams, each a pair (value,
  length) holding f^j(y) mod p^length, asserting the proof's progress
  index (y determined through nk-(n-1)l+s-1 after step n) at every step.
  The one-digit step, ``_solve_next_digit``, also inverts the isometry
  onto S^k in :mod:`padicdyn.conjugacy` and extends fixed and periodic
  points in :mod:`padicdyn.analysis`.

* ``shadow_lipschitz`` -- a 1-Lipschitz map is shadowed by x_0 itself;
  the certification method for the Lipschitz bound is recorded.

* ``shadow_affine_qp`` -- for f(z) = az + b on Q_p the shadow is explicit:
  x = x_0 + sum a^-i w_{i-1} when ||a|| > 1, the mirrored series through
  f^-1 on the backward residuals when ||a|| < 1 (the reader-completed
  branch), and x_0 itself when ||a|| = 1.

* ``shadow_dilatation`` -- for a certified expansion by p^k, iterate the
  sequence-space contraction Phi((y_n)) = (g^-1(x_{n+1}+y_{n+1}) - x_n)
  from the zero sequence; each sweep contracts corrections by p^-k, and
  the fixed point's 0-entry corrects x_0 into a true orbit.  An entry is
  recomputed only when its input entry changed in the previous sweep, so
  a window of n+1 entries costs at most n(n+1)/2 applications of g^-1.

Every solver verifies its point with one two-sided check, ``_certified``:
forward through f, backward through f^-1, every distance against the
solver's bound as it is computed.  The check, the dilatation sweep,
``perturb_orbit`` and the pseudo-orbit residuals walk digit windows
(v, n, X) through the maps' kernels, ``output_value`` on Z_p (v = 0) and
``output_window`` on Q_p, and build values only where they are returned.
"""

from __future__ import annotations

import math
import random
import re
from functools import partial

from .core import (
    PadicError,
    PNorm,
    PrecisionError,
    Prime,
    PrimeMismatch,
    QpApprox,
    ZpApprox,
    _val,
    _window_addsub,
    _window_norm,
    distance,
    encode_value,
    factory,
    inverse_unit,
    parse_value,
    pnorm_max,
    record,
)
from .maps import AffineQp, CertificationError, DigitFunctionTable, MapSpec


class ConstraintUnsolvable(PadicError):
    """A solve step found no admissible digit: either the orbit's certified
    delta is violated or the table lacks bijectivity."""

    def __init__(self, step: int, digit_index: int, reason: str):
        self.step = step
        self.digit_index = digit_index
        super().__init__(f"step {step}, output digit {digit_index}: {reason}")


@record
class PseudoOrbit:
    """A finite pseudo-orbit with exact residuals.

    ``points[i]`` is x_{start_index + i}; ``residuals[i]`` is
    w_{start_index + i} = x_{start_index + i + 1} - f(x_{start_index + i}).
    The orbit always holds x_0: start_index <= 0 <= end_index.
    """

    points: tuple
    residuals: tuple
    start_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "residuals", tuple(self.residuals))
        if len(self.points) < 2:
            raise ValueError("a pseudo-orbit needs at least two points")
        if len(self.residuals) != len(self.points) - 1:
            raise ValueError("need exactly one residual per step")
        if not self.start_index <= 0 <= self.end_index:
            raise ValueError(
                f"the orbit must hold x_0: indices {self.start_index}..{self.end_index}")

    @classmethod
    def from_map(cls, map_like, points, start_index: int = 0) -> "PseudoOrbit":
        return cls(tuple(points), tuple(_residuals(map_like, points)), start_index)

    @property
    def prime(self) -> Prime:
        return self.points[0].prime

    @property
    def end_index(self) -> int:
        return self.start_index + len(self.points) - 1

    @property
    def two_sided(self) -> bool:
        return self.start_index < 0

    def point(self, n: int):
        return self.points[n - self.start_index]

    def residual(self, n: int):
        return self.residuals[n - self.start_index]

    @property
    def certified_delta(self) -> PNorm:
        # pnorm_max of the residual norms: the least exact and bound exponents
        windows = [(w.prime, *_window(w)) for w in self.residuals]
        exact = min((v + _val(X, q, 0) for q, v, n, X in windows if X), default=math.inf)
        bound = min((v + n for q, v, n, X in windows if not X), default=math.inf)
        return PNorm(exact) if exact <= bound else PNorm(bound, exact=False)

    def validate(self, map_like) -> bool:
        """Recompute every residual from the points and compare digitwise."""
        return all(w == r for w, r in zip(_residuals(map_like, self.points), self.residuals))


def _window(x) -> tuple:
    """A value's digit window (v, n, X); a Z_p value's starts at 0."""
    qp = isinstance(x, QpApprox)
    return (x.valuation_offset, x.width, x.value) if qp else (0, x.precision, x.value)


def _value(like, v: int, n: int, X: int):
    """The value on a window, of ``like``'s type and prime."""
    qp = isinstance(like, QpApprox)
    return QpApprox._of(like.prime, v, n, X) if qp else ZpApprox._of(like.prime, n, X)


def _kernel(f, x):
    """f's kernel on windows, after ``apply``'s checks on x: ``output_window``
    on Q_p, ``output_value`` at v = 0 on Z_p."""
    f._check_domain(x)
    value = f.output_value
    return f.output_window if isinstance(x, QpApprox) else lambda v, n, X: (0, *value(X, n)[::-1])


def _residuals(f, points):
    """x_{i+1} - f(x_i) over consecutive points, f read through its kernel;
    a refusal is the one ``apply`` or the value subtraction gave."""
    for x, x1 in zip(points, points[1:]):
        fx = _kernel(f, x)(*_window(x))
        if type(x1) is type(x) and x1.prime == x.prime:
            yield _value(x, *_window_addsub(x.prime, *_window(x1), *fx, -1))
        else:  # the subtraction refuses it
            yield x1 - _value(x, *fx)


def _random_digits(rng, p: int, n: int) -> int:
    """n digits as n ``rng.randrange(p)`` calls draw them (CPython's rejection
    loop on getrandbits), as one integer with digit i at p^i."""
    k, getrandbits, value, place = p.bit_length(), rng.getrandbits, 0, 1
    for _ in range(n):
        r = getrandbits(k)
        while r >= p:
            r = getrandbits(k)
        value, place = value + r * place, place * p
    return value


def perturb_orbit(map_like, x0, delta_exponent: int, steps: int, seed: int,
                  back: int = 0) -> PseudoOrbit:
    """The pseudo-orbit x_{-back}, ..., x_steps of f through x0.

    Forward points are x_{n+1} = f(x_n) + w_n, then backward points are
    x_{n-1} = f^-1(x_n - w_{n-1}) through the map's exact ``inverse_spec()``,
    every w of norm <= p^-delta_exponent.  On Z_p, w is uniform over f(x_n)'s
    digit window; on Q_p it has x0's width from valuation delta_exponent.
    Residuals are stored as the points determine them: on Z_p the drawn w
    itself, on Q_p without the noise below a point's window, which is not
    recoverable and must not be claimed.

    Deterministic under the seed (mt19937), forward draws first.  Steps read
    the map's kernel and build only the values returned.  Precision decays by
    the map's digit loss each step; the orbit fails with a precision error
    rather than fabricate digits when x0 is too short.
    """
    if back < 0 or steps < 0:
        raise ValueError(f"step counts must be >= 0, got back={back}, steps={steps}")
    rng = random.Random(seed)
    p = x0.prime
    if isinstance(x0, ZpApprox):  # digits below delta_exponent are zeros
        zeros = lambda n: min(max(delta_exponent, 0), n)
        draw = lambda v, n, X: (0, n, _random_digits(rng, p, n - zeros(n)) * p**zeros(n))
    else:
        draw = lambda v, n, X: (delta_exponent, x0.width, _random_digits(rng, p, x0.width))
    points, residuals = [x0], []
    for _ in range(steps):
        fx = _kernel(map_like, points[-1])(*_window(points[-1]))
        x = _window_addsub(p, *fx, *draw(*fx), 1)
        points.append(_value(x0, *x))
        residuals.append(_value(x0, *_window_addsub(p, *x, *fx, -1)))
    inv = map_like.inverse_spec() if back else None
    for _ in range(back):
        x = _window(points[0])
        prev = _value(x0, *_kernel(inv, points[0])(*_window_addsub(p, *x, *draw(*x), -1)))
        residuals.insert(0, next(_residuals(map_like, (prev, points[0]))))
        points.insert(0, prev)
    return PseudoOrbit(points, residuals, -back)


def perturb_orbit_two_sided(spec: MapSpec, x0: QpApprox, delta_exponent: int,
                            back: int, forward: int, seed: int) -> PseudoOrbit:
    """:func:`perturb_orbit` with ``back`` backward and ``forward`` forward steps."""
    return perturb_orbit(spec, x0, delta_exponent, forward, seed, back)


@record
class ShadowResult:
    """A shadow point with its certification.

    Every listed per-step distance is <= the achieved epsilon (their honest
    maximum); ``details`` records solver-specific certificates.
    """

    point: object
    epsilon: PNorm
    step_distances: tuple
    start_index: int
    solver: str
    details: dict = factory(dict)

    @property
    def horizon(self) -> int:
        return self.start_index + len(self.step_distances) - 1


def _certified(f, f_inv, point, orbit: PseudoOrbit, bound: int, solver: str,
               details: dict, error: type) -> ShadowResult:
    """The one check every shadow result passes: d(x_n, f^n(point)) for each
    index n of the orbit, forward through ``f`` for n = 0..end_index and
    backward through ``f_inv`` for n = -1..start_index (a one-sided orbit
    never reads it), each against p^-bound as it is computed.  The point
    walks as a digit window through the maps' kernels, see :func:`_kernel`.

    Raises ``error`` at the first distance certifiably above p^-bound, before
    any later step is evaluated; a ``PadicError`` is marked internal.
    """
    p, q, points, start = orbit.prime, point.prime, orbit.points, orbit.start_index
    dists = {}
    for g, steps in ((f, range(orbit.end_index + 1)), (f_inv, range(-1, start - 1, -1))):
        cur, apply = _window(point), _kernel(g, point) if steps else None
        for n in steps:
            if n:
                cur = apply(*cur)
            x = points[n - start]
            if x.prime != q:
                raise PrimeMismatch(f"primes {x.prime} and {q}")
            d = dists[n] = _window_norm(p, *_window_addsub(p, *_window(x), *cur, -1))
            if d.gt_pow(bound):
                internal = "internal: " if error is PadicError else ""
                raise error(f"{internal}{solver} shadow violates {p}^-{bound} "
                            f"at step {n}: {d.describe(p)}")
    ordered = tuple(dists[n] for n in range(orbit.start_index, orbit.end_index + 1))
    return ShadowResult(point, pnorm_max(ordered), ordered, orbit.start_index,
                        solver, details)


def _solve_next_digit(table: DigitFunctionTable, levels: list, n: int,
                      target: int) -> None:
    """Append to ``levels[0]`` the one digit that makes the next digit of
    f^n (digit ``levels[n][1]``) equal ``target``, then extend by one digit
    each level that is read again: those from the walk's stop up to n.

    ``levels[j]`` is a digit stream (value, length): f^j(levels[0]) modulo
    p^length, with every digit that levels[0] determines, so level j-1 is m
    digits longer than level j.  The next digit of levels[j-1] is the last
    variable of the next digit function of levels[j], a bijection in that
    variable, whose other arguments are all of levels[j-1]; so the digit is
    found by walking down from level n with one inverse lookup per level
    (:meth:`DigitFunctionTable.inverse_value`, the position of the wanted
    value in that function's table row).  Lower levels have larger digit
    indices, so the walk stops at the first tail projection: a projection
    inverts to its target, and so does every level below it.  Levels from
    the walk's stop up to n are then extended by one forward read of their
    digit function on the level below (a projection level takes the walk's
    digit), and the digit is kept only if level n's new digit is ``target``.

    Levels 1..j-1 below the walk's stop j are left as they were and are
    never read again: their digit indices are at least depth + m, and the
    stop only rises as levels[0] grows.  So a digit writes at most
    ceil(depth/m) + 2 streams, levels[0] among them, whatever n is; level
    1 may be stale, so its digit index is read off level 0.  Raises
    :class:`ConstraintUnsolvable` at step ``n``.
    """
    p, m, depth = table.prime, table.klass.m, table.stored_depth
    # level 1, at digit index levels[0][1] - m, runs out of table first
    if not table.has_digit(levels[0][1] - m):
        raise ConstraintUnsolvable(n, levels[0][1] - m, "table depth exhausted")
    digit_index = levels[n][1]
    inverse, digit_value = table.inverse_value, table.digit_value
    d, j = target, n
    try:
        while j and levels[j][1] < depth:
            d = inverse(levels[j][1], levels[j - 1][0], d)
            j -= 1
    except ValueError:
        raise ConstraintUnsolvable(
            n, digit_index, "no admissible digit: a digit function misses "
            "a value, so the table lacks bijectivity") from None
    x, t = levels[0]
    x += d * p**t
    levels[0] = (x, t + 1)
    for j in range(j or 1, n + 1):
        y, i = levels[j]
        if i < depth:
            # digit function i reads input digits 0..m+i, now all of x
            d = digit_value(i, x % p ** (m + i + 1))
        x = y + d * p**i
        levels[j] = (x, i + 1)
    if d != target:
        raise ConstraintUnsolvable(
            n, digit_index, "no admissible digit: the solved digit fails the "
            "forward tables, so the table lacks bijectivity")


def shadow_locally_scaling(table: DigitFunctionTable, orbit: PseudoOrbit,
                           s: int = 0) -> ShadowResult:
    """The recursive digit solver for a (p^-k, p^m) table map.

    Requires the orbit certified at delta = p^-(l+s) (p^-(k+s) when m = k)
    and points with at least k+s digits; produces a shadow point verified
    at epsilon = p^-(k+s) over the whole orbit.
    """
    if orbit.two_sided:
        raise PrecisionError("the locally scaling solver is one-sided; got a two-sided orbit")
    if s < 0:
        raise ValueError("s must be >= 0")
    k, l = table.klass.k, table.klass.l
    p = table.prime
    delta_exp = table.klass.delta_exponent(s)
    if not orbit.certified_delta.leq_pow(delta_exp):
        raise PrecisionError(
            f"orbit certified at {orbit.certified_delta.describe(p)}, "
            f"need <= {p}^-{delta_exp}"
        )
    for x in orbit.points:
        if x.precision < k + s:
            raise PrecisionError(f"orbit points need at least {k + s} digits")

    T = len(orbit.points) - 1
    head = p ** (l + s)
    levels = [(orbit.points[0].value % p ** (k + s), k + s)]
    for n in range(1, T + 1):
        levels.append(table.level_value(*levels[n - 1]))
        zn, length = levels[n]
        x_n = orbit.points[n].value
        if length != l + s:
            raise PadicError(
                f"internal: level {n} has {length} digits, expected {l + s}"
            )
        if zn != x_n % head:
            raise ConstraintUnsolvable(
                n, _val(zn - x_n, p, 0), "automatic digits disagree: the orbit's "
                "certified delta is violated")
        for i in range(l + s, k + s):
            _solve_next_digit(table, levels, n, x_n // p**i % p)
        # the proof's progress invariant: y determined through (n+1)k - nl + s - 1
        if levels[0][1] != (n + 1) * k - n * l + s:
            raise PadicError(
                f"internal: progress invariant broken at step {n}: "
                f"{levels[0][1]} digits, expected {(n + 1) * k - n * l + s}"
            )

    # every distance compares at least k+s digits: each x_n has them, and
    # f^n(y) keeps (T+1)k - Tl + s - n(k-l) >= k+s, so no bound reads above
    # p^-(k+s) and gt_pow(k+s) is exactly "not leq_pow(k+s)"
    y = ZpApprox._of(p, levels[0][1], levels[0][0])
    return _certified(
        table, None, y, orbit, k + s, "locally-scaling",
        {"s": s, "epsilon_exponent": k + s, "delta_exponent": delta_exp}, PadicError)


def certify_one_lipschitz(map_like):
    """Certify that a Z_p map is 1-Lipschitz; returns the method used.

    The map's own route (:meth:`MapSpec.lipschitz_route`: substitutions,
    affine maps, g_a with ||a|| <= 1, the Mahler criterion, compositions
    part by part) is used when it states one; anything else is checked on
    256 seeded sample pairs.  Raises :class:`CertificationError` with a
    witness when the route fails or a sampled pair certifiably expands.
    """
    sample = partial(_sampled_contraction, min_exponent=0, samples=256,
                     precision=10, seed=0)
    return map_like.lipschitz_route(sample) or sample(map_like)


def _sampled_contraction(f, min_exponent: int, samples: int, precision: int,
                         seed: int) -> str:
    """Check ||f(x)-f(y)|| <= p^-min_exponent * ||x-y|| on seeded sample pairs
    of Z_p truncations; pairs without an exact input distance are skipped."""
    rng = random.Random(seed)
    p = f.prime
    for _ in range(samples):
        x = ZpApprox(p, tuple(rng.randrange(p) for _ in range(precision)))
        y = ZpApprox(p, tuple(rng.randrange(p) for _ in range(precision)))
        din = distance(x, y)
        if not din.exact:
            continue
        dout = distance(f.apply(x), f.apply(y))
        if dout.gt_pow(din.exponent + min_exponent):
            raise CertificationError(
                f"pair breaks the factor p^-{min_exponent}: d(x,y)={din.describe(p)}, "
                f"d(fx,fy)={dout.describe(p)}, x={encode_value(x)}, y={encode_value(y)}")
    return f"sampled:{samples}"


def shadow_lipschitz(map_like, orbit: PseudoOrbit, *,
                     certification: str | None = None) -> ShadowResult:
    """Shadow a 1-Lipschitz map's pseudo-orbit by its own starting point.

    The induction ||x_{n+1} - f^{n+1}(x_0)|| <= max_i ||w_i|| is re-verified
    step by step; a certified violation means the Lipschitz certificate was
    wrong and is raised as :class:`CertificationError` at the witness step.
    """
    if orbit.two_sided:
        raise PrecisionError("the Lipschitz shadow is one-sided; got a two-sided orbit")
    if certification is None:
        certification = certify_one_lipschitz(map_like)
    delta = orbit.certified_delta
    return _certified(
        map_like, None, orbit.points[0], orbit, delta.exponent, "lipschitz",
        {"certification": certification, "delta": delta.describe(orbit.prime)},
        CertificationError)


def shadow_affine_qp(a: QpApprox, b: QpApprox, orbit: PseudoOrbit) -> ShadowResult:
    """Explicit shadow for f(z) = az + b on Q_p, both directions.

    ||a|| > 1: x = x_0 + sum_{i>=1} a^-i w_{i-1} over the forward residuals.
    ||a|| < 1: x = x_0 - sum_{i>=1} a^{i-1} w_{-i} over the backward residuals
    (the mirror construction through f^-1).  ||a|| = 1: x = x_0.
    The achieved bound is verified to be <= the orbit's certified delta in
    both directions, matching the sup-of-residuals estimate.
    """
    spec = AffineQp(a, b)
    va = a.normalize().valuation_offset
    x = orbit.point(0)
    if va < 0:
        branch = "series"
        a_inv = inverse_unit(a)
        power = a_inv
        for j in range(orbit.end_index):
            x = x + power * orbit.residual(j)
            power = power * a_inv
    elif va > 0:
        branch = "mirror"
        power = None
        for i in range(1, 1 - orbit.start_index):
            w = orbit.residual(-i)
            x = x - (w if power is None else power * w)
            power = a if power is None else power * a
    else:
        branch = "isometry"
    delta = orbit.certified_delta
    return _certified(spec, spec.inverse_spec(), x, orbit, delta.exponent, "affine-qp",
                      {"branch": branch, "delta": delta.describe(spec.prime)}, PadicError)


def certify_expansion(spec: MapSpec) -> int:
    """The exact expansion constant p^k that a Q_p spec states (affine maps
    and compositions of them).  A spec that states none is refused with
    PrecisionError: sample pairs cannot certify an exact constant."""
    k = spec.expansion_exponent()
    if k is None:
        where = "" if spec.domain == "qp" else f" (domain mismatch: it acts on {spec.domain})"
        raise PrecisionError(f"{type(spec).__name__} states no exact expansion constant{where}")
    return k


def shadow_dilatation(g: MapSpec, orbit: PseudoOrbit, *,
                      max_iterations: int | None = None) -> ShadowResult:
    """Sequence-space contraction shadow for a certified dilatation on Q_p.

    Iterates Phi((y_n)) = (g^-1(x_{n+1} + y_{n+1}) - x_n) from the zero
    sequence on the forward window; every sweep shrinks the correction
    sup-norm by at least p^-k (asserted), so it often stops early at the
    precision floor.  Phi is triangular: entry n reads only entry n+1, so a
    sweep recomputes entry n only when entry n+1 changed in the previous
    sweep; a window of n+1 entries costs at most n(n+1)/2 applications of
    g^-1 and is exact after n+1 sweeps, the default cap, and a smaller
    ``max_iterations`` that stops it first is refused (PrecisionError).  The
    resulting point x_0 + y*_0 is verified against the orbit in both
    directions; the backward bound comes from g^-1 being a p^-k contraction.
    """
    k = certify_expansion(g)
    if k < 1:
        raise CertificationError(f"not a dilatation: certified constant p^{k}")
    g_inv = g.inverse_spec()
    p = g.prime
    if orbit.prime != p:
        raise PrimeMismatch(f"primes {orbit.prime} and {p}")
    eps_exp = orbit.certified_delta.exponent
    fwd_last = orbit.end_index
    # the sweep runs on digit windows (v, n, X), norms as exponents
    xs = [_window(x) for x in orbit.points[-orbit.start_index:]]
    width = max(x.width for x in orbit.points)
    ys = [(eps_exp, width, 0)] * (fwd_last + 1)
    moved = [True] * (fwd_last + 1)  # entry n changed in the last sweep
    step = g_inv.output_window

    # Phi is triangular (entry n reads only entry n+1), so the fixed point of
    # the finite window is reached exactly after fwd_last+1 sweeps; pending
    # tail influence after sweep t is below p^-(eps + k(t+1)), which also
    # permits an earlier geometric stop once it is below every window end.
    correction_exponents = []
    iterations = 0
    sweeps = fwd_last + 1 if max_iterations is None else max_iterations
    while iterations < sweeps:
        exact = bound = math.inf  # the correction's least exact and bound exponents
        for n in range(fwd_last + 1):  # ascending: ys[n+1] is the last sweep's
            old = ys[n]
            moved[n] = n < fwd_last and moved[n + 1]
            if moved[n]:
                v, w, Y = new = ys[n] = _window_addsub(p, *step(*_window_addsub(
                    p, *xs[n + 1], *ys[n + 1], 1)), *xs[n], -1)
                if Y and v + _val(Y, p, 0) < eps_exp:
                    raise CertificationError(
                        f"Phi left the epsilon ball at index {n}: the certified "
                        f"expansion constant is violated")
                moved[n] = new != old
            if not moved[n]:  # its distance to itself is a bound at its window end
                bound = min(bound, old[0] + old[1])
                continue
            v, w, D = _window_addsub(p, *old, *new, -1)
            if D:
                exact = min(exact, v + _val(D, p, 0))
            else:
                bound = min(bound, v + w)
        iterations += 1
        if exact <= bound:  # the sup-norm is exact, as pnorm_max finds it
            if correction_exponents and exact < correction_exponents[-1] + k:
                raise CertificationError(
                    f"correction decayed by less than p^-{k}: "
                    f"{correction_exponents[-1]} -> {exact}")
            correction_exponents.append(exact)
        floor = max(v + w for v, w, _ in ys)
        if (not any(moved) or iterations >= fwd_last + 1
                or eps_exp + k * (iterations + 1) >= floor):
            break
    else:
        raise PrecisionError(f"sweep budget of {sweeps} exhausted before convergence")
    point = QpApprox._of(p, *_window_addsub(p, *xs[0], *ys[0], 1))
    return _certified(
        g, g_inv, point, orbit, eps_exp, "dilatation",
        {"expansion_exponent": k, "iterations": iterations, "converged": True,
         "correction_exponents": tuple(correction_exponents)}, PadicError)


_HEADER_RE = re.compile(r"^#\s*(.*)$")


def save_orbit(orbit: PseudoOrbit, path) -> None:
    """Write the orbit file: one header line, then one textual value per line."""
    delta = orbit.certified_delta
    domain = "zp" if isinstance(orbit.points[0], ZpApprox) else "qp"
    header = (
        f"# prime={int(orbit.prime)} domain={domain} "
        f"delta_exponent={delta.exponent} delta_exact={int(delta.exact)} "
        f"start_index={orbit.start_index} count={len(orbit.points)}"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for x in orbit.points:
            fh.write(encode_value(x) + "\n")


def load_orbit_points(path):
    """Read an orbit file; returns (points, start_index, header dict).

    Residuals are not stored in the file; rebuild the orbit against a map
    with :meth:`PseudoOrbit.from_map`, which recomputes and recertifies them.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("orbit file is empty")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise ValueError("orbit file must start with a '#' header line")
    header = {}
    for part in m.group(1).split():
        key, _, value = part.partition("=")
        header[key] = value
    domain = header.get("domain", "zp")
    points = tuple(parse_value(ln, domain) for ln in lines[1:])
    start = int(header.get("start_index", "0"))
    if int(header.get("count", len(points))) != len(points):
        raise ValueError("orbit file count does not match the number of points")
    return points, start, header
