"""Object walks: the reference for the orbit loops on the integer kernels.

The certificate walk of a shadow, the isometry h onto S^k, a pseudo-orbit's
certified delta and residuals, and the seeded orbit generator now compute on
digit windows through the maps' kernels (``output_value`` on Z_p,
``output_window`` on Q_p) and build a value only where one is returned.
These are the bodies they had before, on value objects: a Z_p point walked
through ``apply`` with each distance a value subtraction, h read block by
block from ``apply``, the delta as ``pnorm_max`` of the residual norms, and
every residual and orbit point computed with value arithmetic.  The tests
check that each loop gives the same result or the same refusal.  The module
is not collected by pytest (no ``test_`` prefix); test modules import it by
name, since pytest puts their own directory on ``sys.path``.
"""

import random

from padicdyn.core import (PadicError, PrimeMismatch, QpApprox, ZpApprox, _window_addsub,
                           _window_norm, distance, pnorm_max)
from padicdyn.shadowing import PseudoOrbit, ShadowResult, _random_digits


def object_certified(f, f_inv, point, orbit, bound: int, solver: str, details: dict,
                     error: type) -> ShadowResult:
    """``shadowing._certified`` as it walked a Z_p point through ``apply``."""
    p = orbit.prime
    if isinstance(point, QpApprox):
        if f.prime != p:
            raise PrimeMismatch(f"primes {p} and {f.prime}")
        start = (point.valuation_offset, point.width, point.value)
        step = lambda g: lambda w: g.output_window(*w)
        dist = lambda x, w: _window_norm(p, *_window_addsub(
            p, x.valuation_offset, x.width, x.value, *w, -1))
    else:
        start, step, dist = point, (lambda g: g.apply), distance
    dists = {}
    for g, steps in ((f, range(orbit.end_index + 1)),
                     (f_inv, range(-1, orbit.start_index - 1, -1))):
        cur, apply = start, step(g) if steps else None
        for n in steps:
            if n:
                cur = apply(cur)
            d = dists[n] = dist(orbit.point(n), cur)
            if d.gt_pow(bound):
                internal = "internal: " if error is PadicError else ""
                raise error(f"{internal}{solver} shadow violates {p}^-{bound} "
                            f"at step {n}: {d.describe(p)}")
    ordered = tuple(dists[n] for n in range(orbit.start_index, orbit.end_index + 1))
    return ShadowResult(point, pnorm_max(ordered), ordered, orbit.start_index,
                        solver, details)


def conjugate_to_shift(table, x: ZpApprox) -> ZpApprox:
    """``conjugacy.conjugate_to_shift`` as it read each block from ``apply``."""
    if table.klass.m != table.klass.k:
        raise PadicError(f"shift conjugation needs class (k,k), got {table.klass}")
    k, p, N = table.klass.k, x.prime, x.precision
    h, n, z = 0, 0, x
    while True:
        t = min(k, N - n, z.precision)
        h += z.value % p**t * p**n
        n += t
        if n >= N:
            break
        z = table.apply(z)
    return ZpApprox._of(p, N, h)


def certified_delta(orbit: PseudoOrbit):
    return pnorm_max(w.norm() for w in orbit.residuals)


def from_map(map_like, points, start_index: int = 0) -> PseudoOrbit:
    residuals = tuple(
        points[i + 1] - map_like.apply(points[i]) for i in range(len(points) - 1)
    )
    return PseudoOrbit(tuple(points), residuals, start_index)


def validate(orbit: PseudoOrbit, map_like) -> bool:
    for i in range(len(orbit.points) - 1):
        w = orbit.points[i + 1] - map_like.apply(orbit.points[i])
        if w != orbit.residuals[i]:
            return False
    return True


def _random_zp_residual(rng, p: int, precision: int, delta_exp: int) -> ZpApprox:
    zeros = min(max(delta_exp, 0), precision)
    return ZpApprox._of(p, precision, _random_digits(rng, p, precision - zeros) * p**zeros)


def perturb_orbit(map_like, x0, delta_exponent: int, steps: int, seed: int,
                  back: int = 0) -> PseudoOrbit:
    """``shadowing.perturb_orbit`` as it stepped through ``apply`` with value
    arithmetic."""
    if back < 0 or steps < 0:
        raise ValueError(f"step counts must be >= 0, got back={back}, steps={steps}")
    rng = random.Random(seed)
    p = x0.prime
    if isinstance(x0, ZpApprox):
        draw = lambda fx: _random_zp_residual(rng, p, fx.precision, delta_exponent)
    else:
        draw = lambda fx: QpApprox._of(p, delta_exponent, x0.width,
                                       _random_digits(rng, p, x0.width))
    points, residuals = [x0], []
    for _ in range(steps):
        fx = map_like.apply(points[-1])
        x = fx + draw(fx)
        points.append(x)
        residuals.append(x - fx)
    inv = map_like.inverse_spec() if back else None
    for _ in range(back):
        x = points[0]
        prev = inv.apply(x - draw(x))
        points.insert(0, prev)
        residuals.insert(0, x - map_like.apply(prev))
    return PseudoOrbit(points, residuals, -back)
