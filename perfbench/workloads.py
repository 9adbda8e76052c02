"""The four workloads: seeded inputs, a fixed job list, and a check per job.

``build(name, seed, workdir)`` makes every input of a workload (tables,
orbits, point batches, spec and orbit files) and returns its jobs in their
fixed order.  A job's ``run`` is the timed call into padicdyn; its ``check``
runs outside the timing and returns None or what went wrong.  Checks use
``reference`` only: the benchmark's own evaluators, integer arithmetic and
enumerations, never a stored copy of the program's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

from padicdyn import analysis, cli, conjugacy, core, maps, oracle, shadowing

import reference as ref


@dataclass
class Job:
    kind: str
    run: object
    check: object
    argv: list = None       # the command line of a ``cli`` job


def _point(rng, p, n):
    return core.ZpApprox(p, tuple(rng.randrange(p) for _ in range(n)))


def _qp_point(rng, p, v, n):
    return core.QpApprox(p, v, (1 + rng.randrange(p - 1),) + tuple(
        rng.randrange(p) for _ in range(n - 1)))


def _from_qv(x: ref.QV):
    """A QpApprox holding exactly the digits a reference value determines."""
    width = x.e - x.v
    return core.QpApprox(x.p, x.v, tuple(ref.to_digits(x.X % x.p**width, x.p, width)))


def _digits(x):
    return list(x.digits)


# ------------------------------------------------------------------ zp-shadow

# (p, (k, m), source, horizon, count).  Random tables at m < k and m = k and
# the structural tables of T_j, R and S^m, at horizons spread up to 80.  The
# two large groups of equal-cost jobs hold the ranks of the median and the
# 90th percentile, so those latencies do not hop between unlike jobs.
_SHADOWS = [
    *[(p, klass, "random", T, 1) for p in (2, 3, 5) for T in (6, 8)
      for klass in ((1, 1), (2, 1), (2, 2), (3, 2)) if p < 5 or (T == 8 and klass != (3, 2))],
    *[(p, (2, 1), src, 10, 1) for p in (2, 3, 5) for src in ("tj", "rmap")],
    *[(p, (2, 2), "shift", 10, 1) for p in (2, 3, 5)],
    (3, (2, 1), "random", 24, 30),                      # the median's group
    *[(p, klass, "random", 40, 1) for p in (2, 3)
      for klass in ((1, 1), (2, 2), (3, 2))],
    (5, (1, 1), "random", 20, 1), (5, (2, 2), "random", 20, 1),
    (2, (2, 1), "tj", 60, 1), (2, (2, 1), "rmap", 60, 1), (2, (2, 2), "shift", 60, 1),
    (2, (2, 1), "random", 80, 18),                      # the 90th percentile's group
]
_TO_SHIFT = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]          # (p, k), class (k, k)
_NEARBY = [(2, (1, 1), 6), (2, (2, 1), 6), (2, (3, 2), 8),   # (p, class, horizon)
           (3, (1, 1), 5), (3, (2, 1), 5)]
_NEARBY_SAMPLES = 6
_BATCH = 8


def _structural(p, source):
    prime = core.Prime(p)
    spec = {"tj": maps.Tj(prime, 1, 1), "rmap": maps.Rmap(prime, 1),
            "shift": maps.ShiftPower(prime, 2)}[source]
    return maps.table_from_spec(spec)


def _shadow_job(table, orbit, s):
    f = ref.TableEval.of(table)
    want = table.klass.k + s
    points = [_digits(x) for x in orbit.points]

    def check(result):
        return ref.orbit_matches(f, _digits(result.point), points, want)

    return Job("shadow", lambda: shadowing.shadow_locally_scaling(table, orbit, s), check)


def _to_shift_jobs(table, xs):
    p, k = int(table.prime), table.klass.k
    f = ref.TableEval.of(table)
    cm = conjugacy.shift_conjugacy(table)
    hs = [cm(x) for x in xs]

    def check_forward(out):
        for x, h in zip(xs, out):
            # digit qk+r of h(x) is digit r of f^q(x)
            want, z = [], _digits(x)
            while len(want) < x.precision:
                want.extend(z[:k])
                z = f(z) if len(want) < x.precision else z
            if _digits(h) != want[:x.precision]:
                return "h(x) is not the block sequence of the f-orbit"
        return None

    def check_inverse(out):
        return None if out == xs else "invert(h(x)) != x"

    return [Job("to-shift", lambda: [cm(x) for x in xs], check_forward),
            Job("to-shift-inverse", lambda: [cm.invert(h) for h in hs], check_inverse)]


def _nearby_job(f_t, g_t, horizon, samples):
    f, g = ref.TableEval.of(f_t), ref.TableEval.of(g_t)
    p = int(f_t.prime)

    def run():
        cm = conjugacy.nearby_conjugacy(f_t, g_t, horizon)
        return conjugacy.verify_conjugacy(cm, f_t, g_t, samples)

    def check(report):
        if not report.semiconjugacy_ok or report.samples_checked != len(samples):
            return "verify_conjugacy reports a semiconjugacy residual"
        cm = conjugacy.nearby_conjugacy(f_t, g_t, horizon)
        for x in samples:
            lhs = f(_digits(cm(x)))
            rhs = _digits(cm(core.ZpApprox(p, tuple(g(_digits(x))))))
            n = min(len(lhs), len(rhs))
            if lhs[:n] != rhs[:n]:
                return "f(h(x)) and h(g(x)) differ on determined digits"
        return None

    return Job("nearby", run, check)


def _zp_shadow(seed, workdir):
    rng = random.Random(seed)
    jobs = []
    for p, (k, m), source, T, count in _SHADOWS:
        klass = maps.ScalingClass(k, m)
        for i in range(count):
            s = 1 if count == 1 and T <= 10 else 0
            table = (maps.random_table(rng, p, klass, k + s + 2) if source == "random"
                     else _structural(p, source))
            l = k - m
            x0 = _point(rng, p, k + s + T * m + 2)
            delta = (l + s) if m < k else (k + s)
            orbit = shadowing.perturb_orbit(table, x0, delta, T, rng.randrange(1 << 30))
            jobs.append(_shadow_job(table, orbit, s))
    for p, k in _TO_SHIFT:
        table = maps.random_table(rng, p, maps.ScalingClass(k, k), k + 4)
        jobs += _to_shift_jobs(table, [_point(rng, p, 16) for _ in range(_BATCH)])
    for p, (k, m), horizon in _NEARBY:
        klass = maps.ScalingClass(k, m)
        f_t = maps.random_table(rng, p, klass, k + 2)
        delta = (k - m) if m < k else k
        g_t = maps.perturb_table(rng, f_t, first_digit=delta, depth=k + 4)
        need = k + horizon * m + m
        jobs.append(_nearby_job(f_t, g_t, horizon,
                                [_point(rng, p, need) for _ in range(_NEARBY_SAMPLES)]))
    return jobs


# ---------------------------------------------------------- tables-and-counts

def _classical_specs(rng):
    """(spec, class, depth, reference digit map) for extraction and counting."""
    p2, p3 = core.Prime(2), core.Prime(3)
    out = [
        (maps.Tj(p2, 1, 2), (3, 1), 4, ref.tj(1, 2)),
        (maps.Tj(p3, 1, 1), (2, 1), 3, ref.tj(1, 1)),
        (maps.Rmap(p2, 1), (2, 1), 4, ref.rmap(2, 1)),
        (maps.Rmap(p3, 1), (2, 1), 3, ref.rmap(3, 1)),
    ]
    width = 12
    for p, K in ((2, 2), (3, 1)):
        A = 1 + p * rng.randrange(p ** (width - 1))         # a unit
        a = core.QpApprox(p, -K, tuple(ref.to_digits(A, p, width)))
        out.append((maps.GaModZp(a), (K, K), 4, ref.ga_mod_zp(p, K, A, width)))
    for p in (2, 3):
        A = 1 + p * rng.randrange(p ** (width - 1))
        B = rng.randrange(p**width)
        spec = maps.Compose((maps.AffineZp(core.ZpApprox.from_int(A, p, width),
                                           core.ZpApprox.from_int(B, p, width)),
                             maps.ShiftPower(core.Prime(p), 1)))
        out.append((spec, (1, 1), 4, ref.affine_then_shift(p, A, B, 1)))
    return out


def _extract_job(spec, klass, depth, f):
    p = int(spec.prime)

    def check(table):
        for i, entries in enumerate(table.tables):
            a = table.arity(i)
            for idx, got in enumerate(entries):
                xs = ref.to_digits(idx, p, a) + [0] * (klass[0] + depth + 4)
                if f(xs)[i] != got:
                    return f"entry {idx} of digit function {i} is wrong"
        return None

    return Job("extract", lambda: maps.extract_table(spec, maps.ScalingClass(*klass), depth),
               check)


def _scaling_job(spec, klass, N, per_stratum):
    p = int(spec.prime)
    k, m = klass
    exhaustive = p**N <= 4096
    pairs = ref.scaling_pairs(p, k, m, N) if exhaustive else per_stratum * (N - m - k)

    def check(report):
        if not report.verified:
            return "a locally scaling map failed verify_scaling"
        if report.pairs_checked != pairs or report.mode != (
                "exhaustive" if exhaustive else "stratified"):
            return f"checked {report.pairs_checked} pairs, expected {pairs}"
        return None

    return Job("verify-scaling", lambda: analysis.verify_scaling(
        spec, maps.ScalingClass(*klass), N, per_stratum=per_stratum), check)


def _count_job(kind, run, f, p, n, K, closed):
    """A fixed or periodic point count, checked by enumeration mod p^(K+2)
    (K the iterate's k, so every true periodic point has one residue)."""
    def check(result):
        count = result if isinstance(result, int) else result.count
        brute = ref.brute_periodic_count(f, p, n, K + 2)
        if count != brute:
            return f"count {count}, enumeration gives {brute}"
        if closed is not None and count != closed:
            return f"count {count}, closed form gives {closed}"
        if not isinstance(result, int):
            for pt in result.points:
                xs = _digits(pt)
                ys = xs
                for _ in range(n):
                    ys = f(ys)
                if ys != xs[:len(ys)]:
                    return "a reported periodic point is not periodic"
        return None

    return Job(kind, run, check)


_GROUP_PERIODIC = 24     # periodic_points on p=2 (2,1) tables: the median's group
_GROUP_EXHAUSTIVE = 14   # exhaustive verify_scaling at p=2, N=8: the 90th percentile's


def _tables_and_counts(seed, workdir):
    rng = random.Random(seed)
    jobs = []
    specs = _classical_specs(rng)
    for spec, klass, depth, f in specs:
        jobs.append(_extract_job(spec, klass, depth, f))
    # exhaustive (p^N <= 4096) and stratified verification
    for spec, klass, _, _ in specs:
        p = int(spec.prime)
        jobs.append(_scaling_job(spec, klass, 8 if p == 2 else 5, 16))
        jobs.append(_scaling_job(spec, klass, 13 if p == 2 else 9, 16))
    random_tables = [maps.random_table(rng, p, maps.ScalingClass(*klass), depth)
                     for p, klass, depth in ((2, (2, 1), 8), (2, (3, 2), 8), (3, (2, 1), 6),
                                             (3, (1, 1), 6), (5, (1, 1), 4), (2, (1, 1), 8),
                                             (2, (2, 2), 8), (3, (2, 2), 6), (3, (3, 2), 6),
                                             (5, (2, 1), 4), (5, (2, 2), 4), (2, (3, 1), 8),
                                             (3, (3, 1), 6))]
    for t in random_tables:
        p, k = int(t.prime), t.klass.k
        jobs.append(_count_job("fixed-points", lambda t=t: analysis.fixed_points(t, precision=10),
                               ref.TableEval.of(t), p, 1, k, None))
    for p in (2, 3, 5):
        prime = core.Prime(p)
        for spec, f, k, closed in (
                (maps.ShiftPower(prime, 1), ref.shift(1), 1, p),
                (maps.Tj(prime, 1, 1), ref.tj(1, 1), 2, p**2),
                (maps.Rmap(prime, 1), ref.rmap(p, 1), 2, (p - 1) + p)):
            jobs.append(_count_job("fixed-points",
                                   lambda s=spec: analysis.fixed_points(s, precision=10),
                                   f, p, 1, k, closed))
    # periodic points through iterate_table, at p = 2 and p = 3
    for spec_or_table, f, p, n, (k, m), closed, precision in (
            (maps.ShiftPower(core.Prime(2), 1), ref.shift(1), 2, 3, (1, 1), 8, 8),
            (maps.Tj(core.Prime(2), 1, 1), ref.tj(1, 1), 2, 2, (2, 1), None, 8),
            (maps.Tj(core.Prime(3), 1, 1), ref.tj(1, 1), 3, 2, (2, 1), None, 8),
            (random_tables[3], ref.TableEval.of(random_tables[3]), 3, 2, (1, 1), None, 6)):
        jobs.append(_count_job(
            "periodic-points",
            lambda s=spec_or_table, n=n, N=precision: analysis.periodic_points(s, n, precision=N),
            f, p, n, n * m + (k - m), closed))
    for _ in range(_GROUP_PERIODIC):
        t = maps.random_table(rng, 2, maps.ScalingClass(2, 1), 8)
        jobs.append(_count_job("periodic-points",
                               lambda t=t: analysis.periodic_points(t, 2, precision=8),
                               ref.TableEval.of(t), 2, 2, 3, None))
    for _ in range(_GROUP_EXHAUSTIVE):
        t = maps.random_table(rng, 2, maps.ScalingClass(2, 1), 8)
        jobs.append(_scaling_job(t, (2, 1), 8, 16))
    for t in random_tables[:4]:
        jobs.append(Job("mahler", lambda t=t: maps.mahler_coefficients(maps.TableMap(t), 8, 8),
                        lambda series, t=t: ref.mahler_interpolates(
                            ref.TableEval.of(t), int(t.prime),
                            [c.to_int() for c in series.coefficients], 8)))
    for spec, f, terms in ((maps.ShiftPower(core.Prime(2), 1), ref.shift(1), 8),
                           (maps.ShiftPower(core.Prime(3), 2), ref.shift(2), 12),
                           (maps.Tj(core.Prime(3), 1, 1), ref.tj(1, 1), 10),
                           (maps.Substitution(core.Prime(2), ((0, 1), (0,))),
                            ref.substitution(((0, 1), (0,))), 8)):
        p = int(spec.prime)
        jobs.append(Job("mahler",
                        lambda s=spec, t=terms: maps.mahler_coefficients(s, t, 8),
                        lambda series, f=f, p=p: ref.mahler_interpolates(
                            f, p, [c.to_int() for c in series.coefficients], 8)))
    for p, N in ((2, 8), (3, 6)):
        table = maps.table_from_spec(maps.Rmap(core.Prime(p), 1))
        jobs.append(_count_job("oracle-fixed",
                               lambda t=table, p=p, N=N: oracle.brute_fixed_point_count(t, p, N),
                               ref.rmap(p, 1), p, 1, 2, (p - 1) + p))
    for t, N in ((random_tables[0], 8), (random_tables[3], 5)):
        p, (k, m) = int(t.prime), (t.klass.k, t.klass.m)
        jobs.append(_count_job("oracle-periodic",
                               lambda t=t, p=p, N=N: oracle.brute_periodic_point_count(t, p, 2, N),
                               ref.TableEval.of(t), p, 2, 2 * m + (k - m), None))
    return jobs


# -------------------------------------------------------------------- qp-affine

_QP_PRIMES = (2, 3, 5)
# (p, val) with ||a|| = p^-val: dilatations and contractions, plus a group of
# equal-cost p=3 dilatations that holds the 90th percentile's rank
_QP_MAPS = ([(p, val) for p in _QP_PRIMES for val in (-2, -1, 1, 2)] + [(3, -1)] * 11
            + [(2, 1), (3, 1), (5, 1)])
_QP_WIDTH = 40
_QP_DELTA = 3
_QP_STEPS = 8


def _qv_affine(a, b):
    A, B = ref.QV.of(a), ref.QV.of(b)
    A_inv = A.inverse()
    return (lambda z: A * z + B), (lambda z: A_inv * (z - B))


def _affine_steps_within(orbit, point, fwd, bwd, delta):
    """Every d(x_n, f^n(y)), n in both directions, is certified <= p^-delta."""
    y = ref.QV.of(point)
    cur = y
    for n in range(0, orbit.end_index + 1):
        if not ref.distance_within(ref.QV.of(orbit.point(n)), cur, delta):
            return f"step {n}: distance above delta or not determined"
        cur = fwd(cur)
    cur = y
    for n in range(-1, orbit.start_index - 1, -1):
        cur = bwd(cur)
        if not ref.distance_within(ref.QV.of(orbit.point(n)), cur, delta):
            return f"step {n}: distance above delta or not determined"
    return None


def _qp_affine(seed, workdir):
    rng = random.Random(seed)
    jobs = []
    for p, val in _QP_MAPS:
        a = _qp_point(rng, p, val, _QP_WIDTH)
        b = _qp_point(rng, p, 0, _QP_WIDTH)
        spec = maps.AffineQp(a, b)
        fwd, bwd = _qv_affine(a, b)
        x0 = _qp_point(rng, p, -1, 30)
        oseed = rng.randrange(1 << 30)

        def make_orbit(spec=spec, x0=x0, oseed=oseed):
            return shadowing.perturb_orbit_two_sided(
                spec, x0, _QP_DELTA, _QP_STEPS, _QP_STEPS, oseed)

        orbit = make_orbit()

        def check_orbit(o, fwd=fwd):
            for x, y in zip(o.points, o.points[1:]):
                if not ref.distance_within(ref.QV.of(y), fwd(ref.QV.of(x)), _QP_DELTA):
                    return "a residual is above delta or not determined"
            return None

        jobs.append(Job("qp-orbit", make_orbit, check_orbit))
        series_point = shadowing.shadow_affine_qp(a, b, orbit).point

        def check_series(r, orbit=orbit, fwd=fwd, bwd=bwd):
            if not r.epsilon.leq_pow(_QP_DELTA):
                return "reported epsilon is above delta"
            return _affine_steps_within(orbit, r.point, fwd, bwd, _QP_DELTA)

        jobs.append(Job("affine-qp", lambda a=a, b=b, o=orbit: shadowing.shadow_affine_qp(a, b, o),
                        check_series))
        if val < 0:
            def check_dil(r, orbit=orbit, fwd=fwd, bwd=bwd, sp=series_point):
                if not ref.agree_on_window(ref.QV.of(r.point), ref.QV.of(sp)):
                    return "dilatation and series shadows disagree"
                return check_series(r, orbit, fwd, bwd)

            jobs.append(Job("dilatation",
                            lambda s=spec, o=orbit: shadowing.shadow_dilatation(s, o),
                            check_dil))
        xs = [_qp_point(rng, p, i % 4 - 2, 14) for i in range(_BATCH)]

        def run_conj(spec=spec, xs=xs):
            cm = conjugacy.qp_affine_conjugacy_map(spec, 12)
            return [cm(x) for x in xs]

        def check_conj(hs, spec=spec, xs=xs, fwd=fwd, val=val):
            # h(g(x)) = p^val h(x): g is conjugate to z -> p^-k z, k = -val
            cm = conjugacy.qp_affine_conjugacy_map(spec, 12)
            for x, h in zip(xs, hs):
                hg = ref.QV.of(cm(_from_qv(fwd(ref.QV.of(x)))))
                if not ref.agree_on_window(hg, ref.QV.of(h).scale(val)):
                    return "h(g(x)) and f(h(x)) differ on determined digits"
            return None

        jobs.append(Job("qp-conjugacy", run_conj, check_conj))
    for p in _QP_PRIMES:
        for K, translated in ((1, False), (2, True)):
            n = 14
            a = core.ZpApprox.from_int(p**K * (1 + p * rng.randrange(p**4)), p, n)
            c = core.ZpApprox.from_int(p ** (K + 1) * rng.randrange(1, p**4), p, n)
            b = core.ZpApprox.from_int(rng.randrange(1, p**n) if translated else 0, p, n)
            psi = maps.AffineZp(c, b)
            zs = [_point(rng, p, n) for _ in range(_BATCH)]

            def run_shell(a=a, psi=psi, zs=zs):
                cm = conjugacy.affine_shell_conjugacy_map(a, psi)
                hs = [cm(z) for z in zs]
                return hs, [cm.invert(h) for h in hs]

            def check_shell(out, a=a, c=c, b=b, zs=zs, p=p, psi=psi):
                hs, back = out
                cm = conjugacy.affine_shell_conjugacy_map(a, psi)
                A, C, B = a.to_int(), c.to_int(), b.to_int()
                for z, h, zb in zip(zs, hs, back):
                    N = min(z.precision, h.precision)
                    if _digits(zb)[:N] != _digits(z)[:N]:
                        return "invert(h(z)) != z"
                    h_az = cm(core.ZpApprox.from_int(A * z.to_int(), p, z.precision))
                    H = h.to_int()
                    if (h_az.to_int() - (A * H + C * H + B)) % p ** min(h_az.precision,
                                                                       h.precision):
                        return "h(a z) != a h(z) + psi(h(z))"
                return None

            jobs.append(Job("affine-shell", run_shell, check_shell))
    return jobs


# -------------------------------------------------------------------------- cli

_CLI_VARIANTS = 8     # 8 x 14 commands: p90 has more than ten jobs beyond it


def _cli_corpus(seed, workdir):
    """Spec and orbit files plus the argument lists of the corpus, with the
    reference check of each report: the 14 commands on 8 seeded variants."""
    rng = random.Random(seed)
    return [cmd for v in range(_CLI_VARIANTS)
            for cmd in _cli_variant(rng, rng.randrange(1 << 30), workdir, f"v{v}-")]


def _cli_variant(rng, seed, workdir, prefix):
    path = lambda name: os.path.join(workdir, prefix + name)
    p2, p3 = core.Prime(2), core.Prime(3)
    shift = maps.ShiftPower(p2, 1)
    tj = maps.Tj(p2, 1, 2)
    rm = maps.Rmap(p3, 1)
    rules = ((0, 1), (0,))
    sub = maps.Substitution(p2, rules)
    a = _qp_point(rng, 3, -1, 30)
    b = _qp_point(rng, 3, 0, 30)
    affq = maps.AffineQp(a, b)
    table = maps.random_table(rng, 2, maps.ScalingClass(1, 1), 6)
    other = maps.perturb_table(rng, table, first_digit=1, depth=8)
    for name, spec in (("shift", shift), ("tj", tj), ("rmap", rm), ("sub", sub),
                       ("affq", affq), ("table", maps.TableMap(table)),
                       ("other", maps.TableMap(other))):
        maps.save_spec(spec, path(f"{name}.json"))
    zorbit = shadowing.perturb_orbit(shift, _point(rng, 2, 16), 1, 6, rng.randrange(1 << 30))
    shadowing.save_orbit(zorbit, path("orbit_shift.txt"))
    sorbit = shadowing.perturb_orbit(sub, _point(rng, 2, 10), 3, 5, rng.randrange(1 << 30))
    shadowing.save_orbit(sorbit, path("orbit_sub.txt"))
    qorbit = shadowing.perturb_orbit_two_sided(affq, _qp_point(rng, 3, -2, 20), 2, 5, 5,
                                               rng.randrange(1 << 30))
    shadowing.save_orbit(qorbit, path("orbit_q.txt"))
    start = core.encode_value(_point(rng, 2, 16))
    oseed = rng.randrange(1 << 30)
    fwd, bwd = _qv_affine(a, b)
    f_shift, f_tj, f_sub = ref.shift(1), ref.tj(1, 2), ref.substitution(rules)
    f_table, f_other = ref.TableEval.of(table), ref.TableEval.of(other)

    def orbit_digits(name):
        with open(path(name), encoding="utf-8") as fh:
            return [ref.parse_text(ln)[2] for ln in fh.read().split("\n")[1:] if ln.strip()]

    def check_count(expect):
        return lambda r: None if r["report"]["count"] == expect else "wrong count"

    def check_scaling(r, orbit_file="orbit_shift.txt", key="point"):
        y = ref.parse_text(r[key])[2]
        return ref.orbit_matches(f_shift, y, orbit_digits(orbit_file), 1)

    def check_lipschitz(r):
        y = ref.parse_text(r["point"])[2]
        return ref.orbit_matches(f_sub, y, orbit_digits("orbit_sub.txt"), 3)

    def affine_points():
        with open(path("orbit_q.txt"), encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().split("\n")[1:] if ln.strip()]
        return [ref.QV.text(ln) for ln in lines]

    def check_affine(r):
        y = ref.QV.text(r["point"])
        pts = affine_points()
        back = -r["start_index"]          # pts[back] is x_0
        cur = y
        for n in range(back, len(pts)):
            if not ref.distance_within(pts[n], cur, 2):
                return f"step {n - back}: distance above p^-2"
            cur = fwd(cur)
        cur = y
        for n in range(back - 1, -1, -1):
            cur = bwd(cur)
            if not ref.distance_within(pts[n], cur, 2):
                return f"step {n - back}: distance above p^-2"
        return None

    def check_generated_orbit(r):
        pts = orbit_digits("orbit_gen.txt")
        if len(pts) != 7 or any(f_shift(x)[:1] != y[:1] for x, y in zip(pts, pts[1:])):
            return "the generated orbit has a residual above p^-1"
        return None

    def check_to_shift(r):
        if not r["verification"]["semiconjugacy_ok"]:
            return "semiconjugacy residual"
        for x_text, h_text in r["values"]:
            x, h = ref.parse_text(x_text)[2], ref.parse_text(h_text)[2]
            want, z = [], x
            while len(want) < len(x):
                want.extend(z[:1])
                if len(want) < len(x):
                    z = f_table(z)
            if h != want:
                return "h(x) is not the block sequence of the f-orbit"
        return None

    def check_nearby(r):
        if not r["verification"]["semiconjugacy_ok"]:
            return "semiconjugacy residual"
        for x_text, h_text in r["values"]:
            x, h = ref.parse_text(x_text)[2], ref.parse_text(h_text)[2]
            gs = [x]
            for _ in range(4):
                gs.append(f_other(gs[-1]))
            err = ref.orbit_matches(f_table, h, gs, 1)
            if err:
                return "h(x) does not shadow the g-orbit of x: " + err
        return None

    def check_mahler(r):
        coeffs = [ref.to_int(ref.parse_text(c)[2], 2) for c in r["coefficients"]]
        return ref.mahler_interpolates(f_shift, 2, coeffs, 8)

    def check_oracle_fixed(r):
        brute = ref.brute_periodic_count(ref.rmap(3, 1), 3, 1, 4)
        ok = r["agree"] and r["count"] == r["brute_force"] == brute == 2 + 3
        return None if ok else "R fixed-point count disagrees"

    def check_oracle_shadow(r):
        if not r["agree"] or r["solutions"] < 1:
            return "oracle reports disagreement"
        return check_scaling(r, key="solver_point")

    shift_j, tj_j = path("shift.json"), path("tj.json")
    corpus = [
        (["validate", "--map", tj_j, "--precision", "8"],
         lambda r: None if r["scaling"]["verified"] and r["scaling"]["pairs_checked"]
         == ref.scaling_pairs(2, 3, 1, 8) else "scaling not verified"),
        (["fixed-points", "--map", shift_j],
         check_count(ref.brute_periodic_count(f_shift, 2, 1, 3))),
        (["fixed-points", "--map", tj_j],
         check_count(ref.brute_periodic_count(f_tj, 2, 1, 5))),
        (["orbit", "--map", shift_j, "--start", start, "--delta-exp", "1", "--steps", "6",
          "--seed", str(oseed), "--out", path("orbit_gen.txt")], check_generated_orbit),
        (["shadow", "--map", shift_j, "--orbit", path("orbit_shift.txt"),
          "--solver", "scaling"], check_scaling),
        (["shadow", "--map", path("sub.json"), "--orbit", path("orbit_sub.txt"),
          "--solver", "lipschitz"], check_lipschitz),
        (["shadow", "--map", path("affq.json"), "--orbit", path("orbit_q.txt"),
          "--solver", "affine-qp"], check_affine),
        (["shadow", "--map", path("affq.json"), "--orbit", path("orbit_q.txt"),
          "--solver", "dilatation"], check_affine),
        (["conjugate", "--map", path("table.json"), "--constructor", "to-shift",
          "--samples", "8", "--precision", "12", "--seed", str(seed)], check_to_shift),
        (["conjugate", "--map", path("table.json"), "--other", path("other.json"),
          "--constructor", "nearby", "--horizon", "4", "--samples", "4",
          "--precision", "8", "--seed", str(seed)], check_nearby),
        (["mahler", "--map", shift_j, "--terms", "6", "--precision", "8"], check_mahler),
        (["oracle", "fixed-points", "--map", path("rmap.json"), "--precision", "6"],
         check_oracle_fixed),
        (["oracle", "shadow", "--map", shift_j, "--orbit", path("orbit_shift.txt"),
          "--precision", "10"], check_oracle_shadow),
        (["oracle", "arith", "--p", "3", "--precision", "8", "--samples", "200",
          "--seed", str(seed)],
         lambda r: None if r["agree"] and r["pairs_checked"] == 200 else "arith disagrees"),
    ]
    return corpus


def _subprocess_job(argv, check):
    cmd = [sys.executable, "-m", "padicdyn.cli", *argv]

    def run():
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return proc.stdout

    return Job(argv[0] if argv[0] != "oracle" else f"oracle-{argv[1]}", run,
               lambda out: check(json.loads(out)), argv)


def in_process_main(argv):
    """padicdyn.cli.main(argv) with its report captured; raises on a nonzero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"main exited {code}")
    return buf.getvalue()


def _cli(seed, workdir):
    return [_subprocess_job(argv, check) for argv, check in _cli_corpus(seed, workdir)]


WORKLOADS = {
    "zp-shadow": _zp_shadow,
    "tables-and-counts": _tables_and_counts,
    "qp-affine": _qp_affine,
    "cli": _cli,
}


def build(name, seed, workdir):
    return WORKLOADS[name](seed, workdir)
