"""Constructive topological conjugacies on Z_p and Q_p.

Four constructions, each returning a :class:`ConjugacyMap` whose claims are
recomputable, with the pair f, g it conjugates (f∘h = h∘g):

* ``shift_conjugacy`` -- for a (p^-k, p^k) map f, the isometry h onto S^k:
  digit qk+r of h(x) is digit r of f^q(x).  Since digit j of h(x) depends
  only on digits 0..j of x, h preserves precision exactly, and the inverse
  recovers x block by block through bijectivity on the last variable.

* ``nearby_conjugacy`` -- two locally scaling maps within the shadowing
  modulus of each other are conjugate: h(x) is the f-shadow of the g-orbit
  of x.  A finite horizon yields the digits expansivity pins down, honestly
  truncated, never completed by guesswork.

* ``affine_shell_conjugacy`` -- for a contraction z -> az on Z_p perturbed
  by a small-Lipschitz psi with psi(0) = 0, h is the shell recursion
  h(az) = a h(z) + psi(h(z)) with h = id on the unit shell; each shell maps
  onto itself, which is asserted per call.  The fixed point (psi(0) != 0)
  and each shell's inverse are limits of contractions, iterated until the
  digits settle within a step cap that follows the working precision.

* ``qp_affine_conjugacy`` -- a map with certified exact dilation p^k on Q_p
  is conjugate to f_{1/p^k, 0} by the isometry whose digit block j is the
  first k digits of g^j(x - z*), for the fixed point z* = b/(1-a) of a map
  that states its affine fact z -> az + b (any other map is refused);
  backward blocks vanish because the backward orbit contracts to z*.  The
  exponent, translation, inverse and steps are computed once per map.
"""

from __future__ import annotations

from .core import (
    PadicError,
    PNorm,
    PrecisionError,
    Prime,
    PrimeMismatch,
    QpApprox,
    ZeroAtPrecision,
    ZpApprox,
    _val,
    _window_addsub,
    _window_canonical,
    _window_mul,
    distance,
    encode_value,
    factory,
    inverse_unit,
    mod_zp,
    pnorm_max,
    record,
)
from .maps import (AffineQp, AffineZp, DigitFunctionTable, MapSpec, ShiftPower,
                   table_sup_distance_exponent)
from .shadowing import (
    CertificationError,
    PseudoOrbit,
    _sampled_contraction,
    _solve_next_digit,
    certify_expansion,
    shadow_locally_scaling,
)


@record
class ConjugacyMap:
    """A computable conjugation h, the pair f, g it conjugates (f∘h = h∘g,
    checked by ``verify_conjugacy(cm, cm.f, cm.g, points)``; None where not
    stated) and verification metadata.  f, g are S^k and the class-(k,k)
    table for ``shift_conjugacy``, the two tables for ``nearby_conjugacy``,
    :class:`Perturbed` and z -> az for ``affine_shell_conjugacy_map``, and
    z -> p^-k z and the map for ``qp_affine_conjugacy_map``.
    ``isometry`` is one of "proven-by-construction", "sample-verified(n)"
    or "not-claimed"; ``details`` records the construction's certificates
    (hypothesis exponents, recorded translations, horizons).
    """

    forward: object
    tag: str
    inverse: object = None
    isometry: str = "not-claimed"
    details: dict = factory(dict)
    f: object = None
    g: object = None

    def __call__(self, x):
        return self.forward(x)

    def invert(self, y):
        if self.inverse is None:
            raise PadicError(f"{self.tag}: no inverse evaluator")
        return self.inverse(y)


def conjugate_to_shift(table: DigitFunctionTable, x: ZpApprox) -> ZpApprox:
    """h(x) for a class-(k,k) table map: blocks of f-iterate digits.

    Digit qk+r of h(x) is digit r of f^q(x), which depends only on digits
    0..qk+r of x, so the result has x's full precision.  Each iterate is
    read through the table's kernel ``output_value``.
    """
    if table.klass.m != table.klass.k:
        raise PadicError(f"shift conjugation needs class (k,k), got {table.klass}")
    k, p, N = table.klass.k, x.prime, x.precision
    if N > k:  # the blocks go past f^0(x): apply's checks, once
        table._check_domain(x)
    h, n, z, length = 0, 0, x.value, N
    while True:
        # a short iterate gives a short block, and the next kernel call refuses it
        t = min(k, N - n, length)
        h += z % p**t * p**n
        n += t
        if n >= N:
            break
        z, length = table.output_value(z, length)
    return ZpApprox._of(p, N, h)


def invert_shift_conjugacy(table: DigitFunctionTable, y: ZpApprox) -> ZpApprox:
    """Recover x with h(x) = y, block by block.

    Block 0 of y is x's first k digits; digit nk+r of y is digit r of f^n(x),
    whose last variable is x's next digit, solved by the shadow solver's
    digit step against the lazily maintained iterate streams.
    """
    if table.klass.m != table.klass.k:
        raise PadicError(f"shift conjugation needs class (k,k), got {table.klass}")
    k = table.klass.k
    p = table.prime
    N = y.precision
    t = min(k, N)
    levels = [(y.value % p**t, t)]
    while levels[0][1] < N:
        u = levels[0][1]
        n, r = divmod(u, k)
        if len(levels) <= n:
            levels.append(table.level_value(*levels[n - 1]))
        _solve_next_digit(table, levels, n, y.value // p**u % p)
    return ZpApprox._of(p, N, levels[0][0])


def shift_conjugacy(table: DigitFunctionTable) -> ConjugacyMap:
    """The isometry conjugating a class-(k,k) table map to S^k; another class
    is refused when it is built."""
    k = table.klass.k
    if table.klass.m != k:
        raise PrecisionError(f"shift conjugation needs class (k,k), got {table.klass}")
    return ConjugacyMap(
        forward=lambda x: conjugate_to_shift(table, x),
        inverse=lambda y: invert_shift_conjugacy(table, y),
        tag="to-shift-power",
        isometry="proven-by-construction",
        details={"k": k},
        f=ShiftPower(table.prime, k), g=table,
    )


def check_horizon_digits(klass, horizon: int, s: int, x) -> None:
    """Refuse x unless it has the k + s + horizon*m digits that h(x) reads
    for a class (k, m) map: the orbit points' k+s digits through the horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    need = klass.k + s + horizon * klass.m
    if x.precision < need:
        raise PrecisionError(
            f"horizon {horizon} needs {need} digits of x, got {x.precision}")


def conjugate_nearby(f_table: DigitFunctionTable, g_map, x: ZpApprox,
                     horizon: int, s: int = 0) -> ZpApprox:
    """h(x): the f-shadow of the g-orbit of x.

    Valid when ||f - g||_inf is within the shadowing modulus of f; the
    g-orbit of x is then a certified pseudo-orbit of f and the digit solver
    produces the unique shadow.  The returned value carries exactly the
    digits the horizon determines (k + s + horizon*m of them).
    """
    check_horizon_digits(f_table.klass, horizon, s, x)
    points = [x]
    for _ in range(horizon):
        points.append(g_map.apply(points[-1]))
    orbit = PseudoOrbit.from_map(f_table, points)
    delta_exp = f_table.klass.delta_exponent(s)
    if not orbit.certified_delta.leq_pow(delta_exp):
        raise CertificationError(
            f"||f-g|| hypothesis violated along the orbit: residuals reach "
            f"{orbit.certified_delta.describe(f_table.prime)}, need <= "
            f"p^-{delta_exp}")
    return shadow_locally_scaling(f_table, orbit, s).point


def nearby_conjugacy(f_table: DigitFunctionTable, g_table: DigitFunctionTable,
                     horizon: int, s: int = 0) -> ConjugacyMap:
    """The conjugation h of two nearby locally scaling maps, plus its inverse
    built with the roles of f and g swapped.

    The hypothesis ||f-g||_inf <= p^-(l+s) (p^-(k+s) for m = k) is checked
    exactly by exhaustive table comparison of the digit functions below
    that exponent, the only ones it constrains.
    """
    delta_exp = f_table.klass.delta_exponent(s)
    i0 = table_sup_distance_exponent(f_table, g_table, delta_exp)
    if i0 is not None and i0 < delta_exp:
        raise CertificationError(
            f"||f-g||_inf = p^-{i0} exceeds the shadowing modulus p^-{delta_exp}")
    return ConjugacyMap(
        forward=lambda x: conjugate_nearby(f_table, g_table, x, horizon, s),
        inverse=lambda y: conjugate_nearby(g_table, f_table, y, horizon, s),
        tag="nearby",
        isometry="not-claimed",
        details={"horizon": horizon, "s": s,
                 "sup_distance_exponent": i0, "delta_exponent": delta_exp},
        f=f_table, g=g_table,
    )


def certify_contraction_factor(psi: MapSpec, min_exponent: int) -> str:
    """Certify ||psi(x)-psi(y)|| <= p^-min_exponent * ||x-y||.

    A map that states its contraction exponent is certified by that fact,
    under the name of its Lipschitz route; otherwise 256 seeded sample pairs
    are checked and the method is recorded as sampled.
    """
    e = psi.contraction_exponent()
    if e is None:
        return _sampled_contraction(psi, min_exponent, 256, 12, 0)
    route = psi.lipschitz_route(_no_route)
    if e < min_exponent:
        raise CertificationError(f"{route}: contracts by p^-{e}, need p^-{min_exponent}")
    return route


def _no_route(part: MapSpec):
    raise CertificationError(
        f"{type(part).__name__} states a contraction exponent but no Lipschitz route")


def _limit(step, z, steps: int):
    """The limit of z, step(z), step(step(z)), ...: the first iterate with
    the same window and digits as the one before.  A contraction settles at
    least one more digit per step, so ``steps`` is the count of digits the
    iteration must gain; an iterate that has not settled by then is refused."""
    for _ in range(steps):
        nxt = step(z)
        if nxt == z:
            return z
        z = nxt
    raise CertificationError(f"contraction iteration did not settle in {steps} steps")


@record
class Perturbed(MapSpec):
    """z -> a z + psi(z) on Z_p, with a first truncated to z's precision:
    the map an affine-shell conjugacy carries z -> a z to."""

    a: ZpApprox
    psi: MapSpec

    @property
    def prime(self) -> Prime:
        return self.a.prime

    def output_value(self, x: int, n: int) -> tuple:
        # ZpApprox's a * z + psi(z): a factor of valuation v adds v digits
        p, a = self.prime, self.a
        A, na = (a.value, a.precision) if a.precision <= n else (a.value % p**n, n)
        y, m = self.psi.output_value(x, n)
        m = min(_val(A, p, na) + n, _val(x, p, n) + na, m)
        return (A * x + y) % p**m, m


@record
class Normalized(MapSpec):
    """u -> psi(u + z) - psi(z) on Z_p, with z first truncated to u's
    precision: psi moved to the fixed point z, where it vanishes."""

    psi: MapSpec
    z: ZpApprox

    @property
    def prime(self) -> Prime:
        return self.z.prime

    def output_value(self, x: int, n: int) -> tuple:
        p, z = self.prime, self.z
        Z, nz = (z.value, z.precision) if z.precision <= n else (z.value % p**n, n)
        y, m = self.psi.output_value((x + Z) % p**nz, nz)  # u + z, known to nz <= n digits
        w, k = self.psi.output_value(Z, nz)
        return (y - w) % p**min(m, k), min(m, k)

    def min_input_precision(self, n_out: int) -> int:
        return self.psi.min_input_precision(n_out)


def affine_shell_conjugacy(a: ZpApprox, psi: MapSpec, z: ZpApprox) -> ZpApprox:
    """Evaluate the shell-recursion conjugation h at z.

    Requires ||a|| = p^-K < 1 and psi with psi(0) = 0 and Lipschitz factor
    <= p^-(K+1) (certified by the builder).  z's shell index n comes from
    its exact norm; h is the n-fold application of u -> a u + psi(u) to the
    unit-shell representative z / a^n, and the result is asserted to land
    back in z's shell.
    """
    nz = z.norm()
    if not nz.exact:
        return z  # zero at precision: h(0) = 0
    na = a.norm()
    if not na.exact or na.exponent < 1:
        raise ZeroAtPrecision("need ||a|| < 1 with an exact norm")
    K = na.exponent
    n = nz.exponent // K
    p = a.prime
    if n == 0:
        return z
    a_inv_pow = inverse_unit(a)
    w_q = QpApprox.from_zp(z)
    for _ in range(n):
        w_q = w_q * a_inv_pow
    w = mod_zp(w_q)
    cur = w
    for _ in range(n):
        cur = a * cur + psi.apply(cur)
    got = cur.norm()
    if not (got.exact and got.exponent == nz.exponent):
        raise CertificationError(
            f"shell assertion failed: ||z|| = {nz.describe(p)} but "
            f"||h(z)|| = {got.describe(p)} (bad psi certificate)")
    return cur


def affine_shell_conjugacy_map(a: ZpApprox, psi: MapSpec, *,
                               precision: int | None = None) -> ConjugacyMap:
    """The conjugation between z -> az and z -> az + psi(z) on Z_p.

    If psi(0) != 0 at the working precision, the perturbed map is first
    translated to its fixed point so the normalized psi vanishes at 0; the
    translation is recorded and composed into the returned evaluators.
    """
    na = a.norm()
    if not na.exact or na.exponent < 1:
        raise ZeroAtPrecision("need ||a|| < 1 with an exact norm")
    K = na.exponent
    method = certify_contraction_factor(psi, K + 1)
    p = a.prime
    work = precision if precision is not None else a.precision
    psi0 = psi.apply(ZpApprox.from_int(0, p, work))
    translation = None
    psi_eff = psi
    if psi0.value:
        # the fixed point of z -> a z + psi(z), a contraction by ||a||
        translation = _limit(lambda z: a * z + psi.apply(z),
                             ZpApprox.from_int(0, p, work), work + 2)
        psi_eff = Normalized(psi, translation)

    # a sum keeps only the digits both terms know: h's precision bounds it
    def forward(z):
        h = affine_shell_conjugacy(a, psi_eff, z)
        return h if translation is None else h + translation

    def inverse(y):
        return _invert_shell(a, psi_eff, y if translation is None else y - translation)

    return ConjugacyMap(
        forward=forward,
        inverse=inverse,
        tag="affine-shell",
        isometry="proven-by-construction",  # shell-preserving: ||h(z)|| = ||z||
        details={
            "contraction_exponent": K,
            "lipschitz_certificate": method,
            "translation": None if translation is None else encode_value(translation),
        },
        f=Perturbed(a, psi), g=AffineZp(a, ZpApprox.from_int(0, p, a.precision)),
    )


def _invert_shell(a: ZpApprox, psi: MapSpec, y: ZpApprox) -> ZpApprox:
    """Invert the shell recursion: peel one shell at a time as the limit of
    the contraction t -> (y - psi(t)) / a, then scale the unit-shell
    representative back up by a^n."""
    ny = y.norm()
    if not ny.exact:
        return y
    K = a.norm().exponent
    n = ny.exponent // K
    if n == 0:
        return y
    a_inv = inverse_unit(a)
    cur = y
    for _ in range(n):
        # psi is p^-(K+1)-Lipschitz, so each step settles one digit or more
        cur = _limit(lambda t, u=cur: mod_zp(QpApprox.from_zp(u - psi.apply(t)) * a_inv),
                     cur, cur.precision + 2)
    for _ in range(n):
        cur = a * cur
    return cur


def _qp_affine_h(g: MapSpec, horizon: int):
    """(k, translation or None, h, f = z -> p^-k z): the certified exponent
    (0 refused first), b/(1-a), a^-1 and both steps are computed once; h walks
    x's orbit on digit windows and builds one value, its result."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    k = certify_expansion(g)
    if k == 0:
        raise CertificationError("||a|| = 1 is not an exact dilation or contraction")
    fact = g.affine()
    if fact is None:
        raise PrecisionError("the qp-affine conjugacy needs a map that states z -> az + b")
    K = abs(k)
    p = g.prime
    a, b = fact
    translation = t = None
    if b.value:  # b / (1 - a), the fixed point of z -> az + b
        one = QpApprox.from_int(1, p, max(a.width, b.width))
        translation = inverse_unit(one - a) * b
        t = (translation.valuation_offset, translation.width, translation.value)
    a_inv = inverse_unit(a)
    fwd, bwd = (a, a_inv) if k > 0 else (a_inv, a)
    fwd, bwd = (_window_canonical(p, c.valuation_offset, c.width, c.value) for c in (fwd, bwd))
    q = p**K

    def block(v, n, X):  # digits 0..K-1 of the window, which reaches p^K
        return (X * p**v if v >= 0 else X // p**-v) % q

    def h(x: QpApprox) -> QpApprox:
        if x.prime != p:
            raise PrimeMismatch(f"primes {x.prime} and {p}")
        start = x.valuation_offset, x.width, x.value
        if t is not None:
            start = _window_addsub(p, *start, *t, -1)
        forward, ahead, cur = 0, 0, start  # blocks 0..ahead-1 as one integer
        while ahead <= horizon:
            v, n, X = cur
            if v + n < K:
                break
            forward += block(v, n, X) * q**ahead
            ahead += 1
            cur = _window_mul(p, *fwd, *_window_canonical(p, v, n, X))
        if not ahead:
            raise PrecisionError("window too short to read even the 0-th block")

        backward, behind, cur = 0, 0, start  # blocks -1..-behind, lowest last
        while True:
            v, n, X = cur = _window_mul(p, *bwd, *_window_canonical(p, *cur))
            if v + _val(X, p, n) >= K:
                # contracted into p^K Z_p: this and every earlier block is zero
                break
            if behind == horizon:
                raise CertificationError(
                    "backward blocks did not vanish within the horizon budget")
            if v + n < K:
                raise PrecisionError("window too short to read a backward block")
            backward, behind = backward * q + block(v, n, X), behind + 1

        return QpApprox._of(p, *_window_canonical(
            p, -behind * K, (ahead + behind) * K, backward + forward * q**behind))

    # z -> p^-k z + 0, both as wide as a, the 0 known on [max(4K, 16), +width):
    # f(h(x)) keeps every digit of p^-k h(x) below that window's end
    f = AffineQp(QpApprox._of(p, -k, a.width, 1), QpApprox._of(p, max(4 * K, 16), a.width, 0))
    return k, translation, h, f


def qp_affine_conjugacy(g: MapSpec, x: QpApprox, horizon: int) -> QpApprox:
    """h(x) for a certified exact dilation or contraction on Q_p.

    For dilation constant p^k (k > 0), digit block j of h(x) holds digits
    0..k-1 of g^j(x); backward blocks are filled through the inverse until
    the backward orbit's valuation certifies that every remaining block is
    zero.  For k < 0 the same construction runs on g^-1, which conjugates g
    to f_{1/p^k, 0} with k's original sign.  g must state its affine fact
    z -> az + b (PrecisionError otherwise); with b != 0, x is first
    translated by the fixed point b/(1-a) (so the orbit iteration is a pure
    scalar multiplication and the backward fixed point is 0).
    """
    return _qp_affine_h(g, horizon)[2](x)


def qp_affine_conjugacy_map(g: MapSpec, horizon: int) -> ConjugacyMap:
    """The isometry conjugating a certified ||a|| != 1 map to f_{1/p^k, 0};
    the map's constants are computed once, not per point."""
    k, translation, h, f = _qp_affine_h(g, horizon)
    return ConjugacyMap(
        forward=h,
        tag="qp-affine",
        isometry="proven-by-construction",
        details={
            "dilation_exponent": k,
            "horizon": horizon,
            "translation": None if translation is None else encode_value(translation),
        },
        f=f, g=g,
    )


@record
class ConjugacyReport:
    samples_checked: int
    semiconjugacy_ok: bool
    max_semiconjugacy_residual: PNorm | None
    isometry_deviations: tuple
    injectivity_collisions: tuple

    def as_dict(self, p: int) -> dict:
        return {
            "samples_checked": self.samples_checked,
            "semiconjugacy_ok": self.semiconjugacy_ok,
            "max_semiconjugacy_residual": (
                None if self.max_semiconjugacy_residual is None
                else self.max_semiconjugacy_residual.describe(p)),
            "isometry_deviations": [
                [encode_value(x), encode_value(y)] for x, y in self.isometry_deviations],
            "injectivity_collisions": [
                [encode_value(x), encode_value(y)] for x, y in self.injectivity_collisions],
        }


def verify_conjugacy(h, f_map, g_map, samples) -> ConjugacyReport:
    """Measure the defining identities of a conjugation on sample points.

    Semiconjugacy residuals d(f(h(x)), h(g(x))) must all be below precision
    on the determined overlap; isometry deviations and injectivity
    collisions among the samples are collected as witnesses.  This is pure
    measurement: nothing is asserted, everything is reported.
    """
    samples = list(samples)
    hs = [h(x) for x in samples]
    residuals = [distance(f_map.apply(hx), h(g_map.apply(x)))
                 for x, hx in zip(samples, hs)]
    bad = [r for r in residuals if r.exact]
    deviations = []
    collisions = []
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            din = distance(samples[i], samples[j])
            dout = distance(hs[i], hs[j])
            if din.exact and not dout.exact:
                collisions.append((samples[i], samples[j]))
            elif din.exact and dout.exact and din.exponent != dout.exponent:
                deviations.append((samples[i], samples[j]))
    return ConjugacyReport(
        samples_checked=len(samples),
        semiconjugacy_ok=not bad,
        max_semiconjugacy_residual=pnorm_max(residuals) if residuals else None,
        isometry_deviations=tuple(deviations),
        injectivity_collisions=tuple(collisions),
    )
