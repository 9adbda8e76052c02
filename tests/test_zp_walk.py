"""The orbit loops on the integer kernels, pinned against their object walks.

``zp_walk_reference`` keeps the bodies that walked value objects: the
certificate walk, the isometry onto S^k, the certified delta, the residuals
of ``from_map`` and ``validate``, and ``perturb_orbit``.  Each loop here must
give the same result or the same refusal, type and message.
"""

import math
import random
import re

import zp_walk_reference as ref

from padicdyn import conjugacy, shadowing
from padicdyn.core import PadicError, PrecisionError, Prime, QpApprox, ZpApprox
from padicdyn.mahler import MahlerSeries
from padicdyn.maps import (AffineQp, AffineZp, Compose, GaModZp, MahlerMap, MapSpec, Rmap,
                           ScalingClass, ShiftPower, Substitution, Tj, random_table,
                           table_from_spec)
from padicdyn.shadowing import CertificationError, PseudoOrbit

_OTHER_PRIME = {2: Prime(3), 3: Prime(5), 5: Prime(2)}


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # every refusal is pinned by type and message
        return type(exc), str(exc)


def _zp(rng, p, n, v=0):
    return ZpApprox.from_int(rng.randrange(p**n) * p**v, p, n)


def _zp_maps(rng, p):
    """Random tables, structural specs and their tables, 1-Lipschitz maps
    (g_a with ||a|| <= 1, a Mahler series, a substitution, affine maps) and
    compositions, all on Z_p at p."""
    P = Prime(p)
    k = rng.randrange(1, 4)
    klass = ScalingClass(k, rng.randrange(1, k + 1))
    table = random_table(rng, p, klass, rng.randrange(0, k + 4),
                         tail_projection=rng.random() < 0.7)

    def ga(v):
        return GaModZp(QpApprox(P, v, (rng.randrange(1, p),) + tuple(
            rng.randrange(p) for _ in range(rng.randrange(3, 12)))))

    # a_n of valuation >= floor(log_p n): the Mahler criterion for 1-Lipschitz
    mahler = MahlerMap(MahlerSeries(P, tuple(
        _zp(rng, p, rng.randrange(4, 14), int(math.log(n, p) + 1e-9) if n else 0)
        for n in range(rng.randrange(1, 5)))))
    sub = Substitution(P, tuple(tuple(rng.randrange(p) for _ in range(rng.randrange(1, 3)))
                                for _ in range(p)))
    affine = AffineZp(_zp(rng, p, 12) + ZpApprox.from_int(1, p, 12), _zp(rng, p, 9))
    shift, tj, rmap = ShiftPower(P, klass.m), Tj(P, klass.m, rng.randrange(0, 3)), Rmap(P, 1)
    return [table, shift, table_from_spec(shift), tj, table_from_spec(tj), rmap,
            table_from_spec(rmap), ga(0), ga(1), ga(-1), mahler, sub, affine,
            Compose((affine, ga(0))), Compose((sub, mahler, affine)), Compose((table, ga(1)))]


def _walks(f, f_inv, point, orbit, bounds):
    """(new, reference) outcomes of the certificate walk for each bound and
    each error type."""
    for bound in bounds:
        for error in (PadicError, CertificationError):
            args = (f, f_inv, point, orbit, bound, "walk", {"b": bound}, error)
            yield (_outcome(lambda: shadowing._certified(*args)),
                   _outcome(lambda: ref.object_certified(*args)))


def _kind(outcome):
    """The result's type, or the refusal's, with a walk's step as 0 or n."""
    if isinstance(outcome, tuple) and isinstance(outcome[0], type):
        typ, msg = outcome
        if step := re.search(r" at step (-?\d+):", msg):
            return f"{typ.__name__} at step {'0' if step[1] == '0' else 'n'}"
        return typ.__name__
    return type(outcome).__name__


def _check_orbit(f, g, orbit, seen):
    """Every loop that reads an orbit, against its object walk."""
    assert orbit.certified_delta == ref.certified_delta(orbit)
    x0 = orbit.point(0)
    e = orbit.certified_delta.exponent
    for h in (f, g):
        pairs = [(_outcome(lambda: orbit.validate(h)), _outcome(lambda: ref.validate(orbit, h))),
                 (_outcome(lambda: PseudoOrbit.from_map(h, orbit.points, orbit.start_index)),
                  _outcome(lambda: ref.from_map(h, orbit.points, orbit.start_index)))]
        for got, want in pairs:
            assert got == want
    p = x0.prime
    one = ZpApprox._of(p, x0.precision, p ** min(e + 1, x0.precision - 1))
    points = [x0, x0 + one, x0.truncate(max(1, x0.precision // 3))]
    for point in points:
        for got, want in _walks(f, None, point, orbit, (e, e + 1, e + 3)):
            assert got == want
            seen.add(_kind(got))
    if orbit.end_index >= 1:  # the backward walk, through another map
        two = PseudoOrbit(orbit.points, orbit.residuals, -1)
        for got, want in _walks(f, g, x0, two, (e, e + 2)):
            assert got == want
            seen.add(_kind(got))


def test_zp_loops_match_object_walks():
    seen = set()
    orbits = 0
    for p in (2, 3, 5):
        for seed in range(8):
            rng = random.Random(100 * p + seed)
            fs = _zp_maps(rng, p)
            for i, f in enumerate(fs):
                g = fs[(i + 1 + rng.randrange(len(fs) - 1)) % len(fs)]
                x0 = _zp(rng, p, rng.randrange(1, 22))
                args = (f, x0, rng.choice((0, 1, 2, 3, 99)), rng.randrange(0, 7),
                        rng.randrange(1 << 20))
                got = _outcome(lambda: shadowing.perturb_orbit(*args))
                assert got == _outcome(lambda: ref.perturb_orbit(*args))
                seen.add(_kind(got))
                if isinstance(got, PseudoOrbit):
                    orbits += 1
                    _check_orbit(f, g, got, seen)
    assert orbits > 250
    # every kind of outcome is reached: results, violations at step 0 and
    # later, kernel refusals of short points and orbits of too few points
    assert {"PseudoOrbit", "ShadowResult", "PadicError at step 0",
            "PadicError at step n", "CertificationError at step 0",
            "CertificationError at step n", "PrecisionError", "DepthExhausted",
            "ValueError"} <= seen, seen


def test_zero_residuals_give_bounds():
    # an orbit at the precision floor is a true orbit: every residual is a
    # bound, so the certified delta is a bound too, at the nearest window end
    rng = random.Random(5)
    for p in (2, 3):
        for f in _zp_maps(rng, p):
            got = _outcome(lambda: shadowing.perturb_orbit(f, _zp(rng, p, 16), 10**4, 4, 7))
            if isinstance(got, PseudoOrbit):
                assert not any(w.value for w in got.residuals)
                assert not got.certified_delta.exact
                assert got.certified_delta == ref.certified_delta(got)
                _check_orbit(f, f, got, set())


def test_another_prime_is_refused_as_before():
    # a point of another prime inside an orbit, an orbit of another prime
    # than its map, and a residual of another prime
    rng = random.Random(9)
    kinds = set()
    for p in (2, 3, 5):
        q = _OTHER_PRIME[p]
        for f in _zp_maps(rng, p):
            orbit = _outcome(lambda: shadowing.perturb_orbit(f, _zp(rng, p, 18), 2, 4, 3))
            if not isinstance(orbit, PseudoOrbit):
                continue
            for i in range(1, len(orbit.points)):
                x = orbit.points[i]
                points = list(orbit.points)
                points[i] = ZpApprox._of(q, x.precision, x.value % q**x.precision)
                mixed = PseudoOrbit(points, orbit.residuals)
                for got, want in _walks(f, None, orbit.points[0], mixed, (2, 4)):
                    assert got == want
                    kinds.add(_kind(got))
                for h in (f, ShiftPower(q, 1)):
                    got = _outcome(lambda: PseudoOrbit.from_map(h, points))
                    assert got == _outcome(lambda: ref.from_map(h, points))
                    got = _outcome(lambda: mixed.validate(h))
                    assert got == _outcome(lambda: ref.validate(mixed, h))
                    kinds.add(_kind(got))
                residuals = list(orbit.residuals)
                residuals[i - 1] = points[i]
                odd = PseudoOrbit(orbit.points, residuals)
                assert odd.certified_delta == ref.certified_delta(odd)
            elsewhere = ShiftPower(q, 1)
            for got, want in _walks(elsewhere, None, orbit.points[0], orbit, (2,)):
                assert got == want
                kinds.add(_kind(got))
    assert "PrimeMismatch" in kinds, kinds


def test_q_p_points_handed_to_z_p_maps():
    # every loop refuses a Q_p point as ``apply`` refused it; the certificate
    # walk now checks the domain once, before its first step, so a Z_p
    # composition is refused by name as its ``apply`` refuses it, where the
    # old walk named the part whose kernel refused
    rng = random.Random(13)
    for p in (2, 3):
        P = Prime(p)
        spec = AffineQp(QpApprox(P, -1, (1,) + (0,) * 29), QpApprox(P, 0, (1, 1) + (0,) * 28))
        x0 = QpApprox(P, -1, tuple(rng.randrange(p) for _ in range(16)))
        qorbit = shadowing.perturb_orbit(spec, x0, 2, 3, 5, back=1)
        for f in _zp_maps(rng, p):
            pairs = [(lambda: shadowing.perturb_orbit(f, x0, 2, 3, 1),
                      lambda: ref.perturb_orbit(f, x0, 2, 3, 1)),
                     (lambda: PseudoOrbit.from_map(f, qorbit.points, -1),
                      lambda: ref.from_map(f, qorbit.points, -1)),
                     (lambda: qorbit.validate(f), lambda: ref.validate(qorbit, f))]
            for new, old in pairs:
                got = _outcome(new)
                assert got == _outcome(old) and "domain mismatch" in got[1]
            args = (f, None, x0, qorbit, 2, "walk", {}, PadicError)
            walk = _outcome(lambda: shadowing._certified(*args))
            if isinstance(f, Compose):
                assert walk == _outcome(lambda: f.apply(x0))
            else:
                assert walk == _outcome(lambda: ref.object_certified(*args))
            assert "domain mismatch" in walk[1]
        # and a Z_p point handed to the Q_p map
        z = _zp(rng, p, 10)
        zorbit = PseudoOrbit((z, z), (z,))
        for run in (shadowing._certified, ref.object_certified):
            got = _outcome(lambda: run(spec, None, z, zorbit, 2, "walk", {}, PadicError))
            assert got == (PrecisionError, "domain mismatch: AffineQp acts on qp, got ZpApprox")


def test_q_p_generator_and_walk_match_object_walks():
    # the generator on Q_p (forward and back) and the walk of a Q_p point
    cases = 0
    for p in (2, 3, 5):
        P = Prime(p)
        for seed in range(6):
            rng = random.Random(10 * p + seed)
            a = QpApprox(P, rng.choice((-2, -1, 0, 1)), (rng.randrange(1, p),) + tuple(
                rng.randrange(p) for _ in range(24)))
            b = QpApprox(P, 0, tuple(rng.randrange(p) for _ in range(25)))
            spec = AffineQp(a, b)
            x0 = QpApprox(P, rng.randrange(-2, 2),
                          tuple(rng.randrange(p) for _ in range(rng.randrange(4, 20))))
            for back, steps, delta in ((3, 4, 2), (0, 5, 1), (2, 0, 3), (1, 1, 99)):
                args = (spec, x0, delta, steps, seed, back)
                got = _outcome(lambda: shadowing.perturb_orbit(*args))
                assert got == _outcome(lambda: ref.perturb_orbit(*args))
                if not isinstance(got, PseudoOrbit):
                    continue
                assert got.certified_delta == ref.certified_delta(got)
                e = got.certified_delta.exponent
                for point in (x0, x0 + QpApprox(P, e - 1, (1,))):
                    for new, old in _walks(spec, spec.inverse_spec(), point, got, (e, e + 2)):
                        assert new == old
                        cases += 1
    assert cases > 200


class _Counting(MapSpec):
    """``base`` counting its kernel calls and its ``apply`` calls."""

    def __init__(self, base):
        self.base, self.prime, self.klass = base, base.prime, base.klass
        self.kernel_calls = self.apply_calls = 0

    def output_value(self, x, n):
        self.kernel_calls += 1
        return self.base.output_value(x, n)

    def apply(self, x):
        self.apply_calls += 1
        return super().apply(x)


def test_walk_work_is_pinned():
    # a T-step Lipschitz shadow makes T kernel calls and no apply; h at
    # precision N reads ceil(N/k) blocks, so it makes ceil(N/k) - 1 calls
    rng = random.Random(4)
    sub = Substitution(Prime(2), ((0, 1), (1,)))
    for T in (1, 4, 9):
        orbit = shadowing.perturb_orbit(sub, _zp(rng, 2, 12), 3, T, T)
        f = _Counting(sub)
        shadowing.shadow_lipschitz(f, orbit, certification="given")
        assert (f.kernel_calls, f.apply_calls) == (T, 0)
    for k in (1, 2, 3):
        table = _Counting(random_table(rng, 3, ScalingClass(k, k), 4))
        for N in range(1, 14):
            table.kernel_calls = 0
            x = _zp(rng, 3, N)
            assert conjugacy.conjugate_to_shift(table, x) == ref.conjugate_to_shift(table.base, x)
            assert (table.kernel_calls, table.apply_calls) == (-(-N // k) - 1, 0)


def test_to_shift_h_matches_object_walk():
    # class (k, k) tables with and without tails, shallow ones that run out,
    # a class (k, m) refused, points too short for a block, a point of
    # another prime (refused once h reads past its first block) and a Q_p one
    rng = random.Random(21)
    kinds = set()
    for p in (2, 3, 5):
        for _ in range(12):
            k = rng.randrange(1, 4 if p < 5 else 3)
            m = k if k == 1 or rng.random() < 0.85 else rng.randrange(1, k)
            table = random_table(rng, p, ScalingClass(k, m), rng.randrange(0, 6),
                                 tail_projection=rng.random() < 0.6)
            for N in range(1, 16):
                for x in (_zp(rng, p, N), _zp(rng, _OTHER_PRIME[p], N),
                          QpApprox(Prime(p), 0, (1,) * N)):
                    got = _outcome(lambda: conjugacy.conjugate_to_shift(table, x))
                    assert got == _outcome(lambda: ref.conjugate_to_shift(table, x))
                    kinds.add(_kind(got))
    assert {"ZpApprox", "PadicError", "PrimeMismatch", "DepthExhausted",
            "AttributeError"} <= kinds, kinds


def test_shadows_match_object_walks(monkeypatch):
    # the solvers end in the walk; with the object walk in its place each
    # gives the same result or refusal
    rng = random.Random(2)
    runs = []
    for p in (2, 3):
        for _ in range(8):
            k = rng.randrange(1, 4)
            klass = ScalingClass(k, rng.randrange(1, k + 1))
            table = random_table(rng, p, klass, k + 4)
            orbit = shadowing.perturb_orbit(table, _zp(rng, p, k + 3 + 8 * klass.m),
                                            klass.delta_exponent(1), 8, rng.randrange(99))
            runs += [lambda t=table, o=orbit: shadowing.shadow_locally_scaling(t, o, 1),
                     lambda t=table, o=orbit: shadowing.shadow_lipschitz(t, o, certification="-")]
    got = [_outcome(run) for run in runs]
    assert {_kind(g) for g in got} == {"ShadowResult", "CertificationError at step n"}
    monkeypatch.setattr(shadowing, "_certified", ref.object_certified)
    assert got == [_outcome(run) for run in runs]
