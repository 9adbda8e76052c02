"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is exact (these are digit-exact constructions);
nothing is calibrated after the fact.

Criterion 1 is expected to FAIL on the R map: the closed form it pins,
p^(m-1)(p-1) + p^(m+1), over-counts the T_1 branch by a factor of p (the
branch condition x_0 = p-1 spends one digit of freedom).  Exhaustive
enumeration, the seed-constraint count, and hand computation all give
p^(m-1)(p-1) + p^m.  The criterion is asserted as stated and left red; see
the fixed-point tests for the verified true counts.
"""

import random

from padicdyn.analysis import fixed_points
from padicdyn.conjugacy import (
    conjugate_to_shift,
    invert_shift_conjugacy,
    nearby_conjugacy,
    qp_affine_conjugacy_map,
)
from padicdyn.core import Prime, QpApprox, ZpApprox, distance
from padicdyn.mahler import MahlerSeries, one_lipschitz_report
from padicdyn.maps import (
    AffineQp,
    Rmap,
    ScalingClass,
    ShiftPower,
    Substitution,
    Tj,
    _decode,
    mahler_coefficients,
    perturb_table,
    random_table,
    table_from_spec,
)
from padicdyn.oracle import brute_shadow_points
from padicdyn.shadowing import (
    perturb_orbit,
    perturb_orbit_two_sided,
    shadow_affine_qp,
    shadow_dilatation,
    shadow_locally_scaling,
)


def _report(num: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  ({extra})" if extra else ""
    print(f"[{status}] criterion {num}: {label}{tail}")


def test_criterion_1_fixed_point_closed_forms():
    failures = []
    for p in (2, 3, 5):
        for m in (1, 2):
            got = fixed_points(ShiftPower(Prime(p), m), precision=8).count
            if got != p**m:
                failures.append(f"S^{m} p={p}: {got} != {p**m}")
            for j in range(4):
                got = fixed_points(Tj(Prime(p), m, j), precision=10).count
                if got != p ** (m + j):
                    failures.append(f"T_{j} p={p} m={m}: {got} != {p**(m+j)}")
            stated = p ** (m - 1) * (p - 1) + p ** (m + 1)
            got = fixed_points(Rmap(Prime(p), m), precision=8).count
            if got != stated:
                failures.append(
                    f"R p={p} m={m}: count {got} != stated closed form {stated} "
                    f"(brute force confirms {got})")
    ok = not failures
    _report(1, "fixed-point closed forms (S^m, T_j, R)", ok,
            "" if ok else f"{len(failures)} mismatches; the stated R closed "
            "form over-counts, see the module docstring")
    assert ok, "; ".join(failures)


def test_criterion_2_shadowing_at_desk_scale():
    failures = 0
    runs = 0
    for p in (2, 3):
        for (k, m) in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
            l = k - m
            for s in (0, 1):
                for trial in range(200):
                    seed = (p * 1_000_003 + k * 10_007 + m * 101 + s) * 997 + trial
                    rng = random.Random(seed)
                    table = random_table(rng, p, ScalingClass(k, m), k + s + 2)
                    T = 10
                    x0 = ZpApprox(
                        p, tuple(rng.randrange(p) for _ in range(k + s + T * m + 2)))
                    delta_exp = (l + s) if m < k else (k + s)
                    orbit = perturb_orbit(table, x0, delta_exp, T, seed + 1)
                    result = shadow_locally_scaling(table, orbit, s)
                    runs += 1
                    # independent re-verification from scratch
                    cur = result.point
                    for n in range(T + 1):
                        if not distance(orbit.points[n], cur).leq_pow(k + s):
                            failures += 1
                            break
                        if n < T:
                            cur = table.apply(cur)
    ok = failures == 0
    _report(2, "shadowing property at desk scale", ok,
            f"{runs} solver runs, {failures} failures")
    assert ok


def test_criterion_3_brute_force_oracle_equivalence():
    failures = []
    for (k, m, s, N) in [(1, 1, 0, 12), (1, 1, 1, 12), (2, 1, 0, 12),
                         (2, 2, 0, 10), (2, 1, 1, 11)]:
        for trial in range(5):
            seed = 7_777 + 131 * (k + 3 * m + 9 * s + 27 * N) + trial
            rng = random.Random(seed)
            table = random_table(rng, 2, ScalingClass(k, m), k + s + 2)
            T = (N - k - s) // m
            x0 = ZpApprox(2, tuple(rng.randrange(2) for _ in range(k + s + T * m)))
            delta_exp = (k - m + s) if m < k else (k + s)
            orbit = perturb_orbit(table, x0, delta_exp, T, seed + 1)
            result = shadow_locally_scaling(table, orbit, s)
            sols = brute_shadow_points(table, orbit.points, k, m, s, N)
            if not sols:
                failures.append(f"(k={k},m={m},s={s}) trial {trial}: empty solution set")
                continue
            for yi in sols:
                cand = ZpApprox.from_int(yi, 2, N)
                n = min(cand.precision, result.point.precision)
                if cand.digits[:n] != result.point.digits[:n]:
                    failures.append(f"(k={k},m={m},s={s}) trial {trial}: mismatch")
                    break
    ok = not failures
    _report(3, "brute-force oracle equivalence at p=2, N<=12", ok,
            "" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_4_conjugation_to_shift_power():
    failures = []
    for k in (1, 2):
        shift = ShiftPower(Prime(2), k)
        for t_idx in range(50):
            rng = random.Random(40_000 + 1000 * k + t_idx)
            table = random_table(rng, 2, ScalingClass(k, k), 11)
            hv = [conjugate_to_shift(table, ZpApprox(2, _decode(i, 2, 8))).to_int()
                  for i in range(256)]
            for i in range(256):
                for j in range(i + 1, 256):
                    da = ((i ^ j) & -(i ^ j)).bit_length() - 1
                    db = ((hv[i] ^ hv[j]) & -(hv[i] ^ hv[j])).bit_length() - 1
                    if da != db:
                        failures.append(f"k={k} table {t_idx}: isometry breaks")
                        break
                else:
                    continue
                break
            for _ in range(25):
                x = ZpApprox(2, tuple(rng.randrange(2) for _ in range(12)))
                lhs = shift.apply(conjugate_to_shift(table, x))
                rhs = conjugate_to_shift(table, table.apply(x))
                if distance(lhs, rhs).exact:
                    failures.append(f"k={k} table {t_idx}: semiconjugacy residual")
                    break
            for i in range(1024):
                x = ZpApprox(2, _decode(i, 2, 10))
                if invert_shift_conjugacy(table, conjugate_to_shift(table, x)).digits \
                        != x.digits:
                    failures.append(f"k={k} table {t_idx}: invert round trip")
                    break
    ok = not failures
    _report(4, "conjugation to S^k: isometry, semiconjugacy, inversion", ok,
            "100 random class-(k,k) tables" if ok else "; ".join(failures[:3]))
    assert ok, failures[:10]


def test_criterion_5_nearby_map_conjugacy():
    failures = []
    for k in (1, 2):
        f_t = table_from_spec(ShiftPower(Prime(2), k))
        shift = ShiftPower(Prime(2), k)
        for t_idx in range(50):
            rng = random.Random(50_000 + 1000 * k + t_idx)
            g_t = perturb_table(rng, f_t, first_digit=k, depth=10)
            cm = nearby_conjugacy(f_t, g_t, horizon=5)
            for _ in range(5):
                x = ZpApprox(2, tuple(rng.randrange(2) for _ in range(k + 5 * k + 6)))
                hx = cm(x)
                lhs = shift.apply(hx)
                rhs = cm(g_t.apply(x))
                if distance(lhs, rhs).exact:
                    failures.append(f"k={k} table {t_idx}: semiconjugacy residual")
                    break
                back = cm.invert(hx)
                n = min(back.precision, x.precision)
                if back.digits[:n] != x.digits[:n]:
                    failures.append(f"k={k} table {t_idx}: swapped-roles identity")
                    break
    ok = not failures
    _report(5, "nearby-map conjugacy for perturbed shift powers", ok,
            "100 perturbed tables" if ok else "; ".join(failures[:3]))
    assert ok, failures[:10]


def test_criterion_6_qp_affine_shadowing_and_conjugacy():
    failures = []
    for p_int in (2, 3):
        p = Prime(p_int)
        W = 34
        for val in (2, 1, -1, -2):  # ||a|| = p^-val in {p^-2, p^-1, p, p^2}
            a = QpApprox(p, val, (1,) + tuple(
                random.Random(p_int * 10 + val).randrange(p) for _ in range(W - 1)))
            b = QpApprox(p, 0, (1,) + (0,) * (W - 1))
            spec = AffineQp(a, b)
            rng = random.Random(60_000 + p_int * 100 + val)
            for trial in range(10):
                x0 = QpApprox(p, rng.randrange(-2, 2),
                              tuple(rng.randrange(p) for _ in range(26)))
                orbit = perturb_orbit_two_sided(spec, x0, 2, 6, 6,
                                                seed=1000 * trial + val)
                result = shadow_affine_qp(a, b, orbit)
                # re-verify both directions at delta = p^-2
                cur = result.point
                ok_run = True
                for n in range(0, 7):
                    if not distance(orbit.point(n), cur).leq_pow(2):
                        ok_run = False
                    cur = spec.apply(cur)
                inv = spec.inverse_spec()
                cur = result.point
                for n in range(-1, -7, -1):
                    cur = inv.apply(cur)
                    if not distance(orbit.point(n), cur).leq_pow(2):
                        ok_run = False
                if not ok_run:
                    failures.append(f"p={p_int} val={val} trial {trial}: shadow bound")
            # exact isometry of the conjugation on 500 sampled pairs
            cm = qp_affine_conjugacy_map(spec, horizon=12)
            for _ in range(500):
                v = rng.randrange(-2, 2)
                x = QpApprox(p, v, tuple(rng.randrange(p) for _ in range(14)))
                y = QpApprox(p, v, tuple(rng.randrange(p) for _ in range(14)))
                din = distance(x, y)
                dout = distance(cm(x), cm(y))
                if din.exact and dout != din:
                    failures.append(f"p={p_int} val={val}: isometry deviation")
                    break
                if not din.exact and dout.exact:
                    failures.append(f"p={p_int} val={val}: collision")
                    break
    ok = not failures
    _report(6, "Q_p affine shadowing both directions + isometric conjugacy", ok,
            "2 primes x 4 norms, 500 pairs each" if ok else "; ".join(failures[:3]))
    assert ok, failures[:10]


def test_criterion_7_dilatation_contraction_iteration():
    failures = []
    for p_int in (2, 3):
        p = Prime(p_int)
        W = 34
        for k in (1, 2):
            a = QpApprox(p, -k, (1,) + (0,) * (W - 1))
            b = QpApprox(p, 0, (2 % p_int or 1,) + (0,) * (W - 1))
            spec = AffineQp(a, b)
            rng = random.Random(70_000 + p_int * 10 + k)
            for trial in range(10):
                x0 = QpApprox(p, rng.randrange(-1, 2),
                              tuple(rng.randrange(p) for _ in range(24)))
                orbit = perturb_orbit_two_sided(spec, x0, 2, 4, 6, seed=trial)
                r_phi = shadow_dilatation(spec, orbit)
                exps = r_phi.details["correction_exponents"]
                for e0, e1 in zip(exps, exps[1:]):
                    if e1 < e0 + k:
                        failures.append(f"p={p_int} k={k}: decay {e0}->{e1}")
                r_series = shadow_affine_qp(a, b, orbit)
                if distance(r_phi.point, r_series.point).exact:
                    failures.append(f"p={p_int} k={k} trial {trial}: "
                                    "solvers disagree on determined digits")
    ok = not failures
    _report(7, "dilatation Phi-iteration: geometric decay + series cross-check",
            ok, "" if ok else "; ".join(failures[:3]))
    assert ok, failures[:10]


def test_criterion_8_mahler_facts():
    # The stated criterion asks one_lipschitz_test to "pass" for S^k and T_j
    # while also asserting a_{p^k} = 1; a unit coefficient at n = p^k violates
    # the bound p^-k, so both cannot hold.  Implemented reading: the test must
    # CLASSIFY correctly -- exact coefficient facts for S^k, a certified first
    # violation at n = p^k for S^k, a certified violation for T_j, a clean
    # pass for substitutions, and a witnessed failure for a deliberately
    # scaled non-1-Lipschitz series.
    failures = []
    for p_int in (2, 3):
        p = Prime(p_int)
        for k in (1, 2):
            series = mahler_coefficients(ShiftPower(p, k), p_int**k + 2, 8)
            ints = [c.to_int() for c in series.coefficients]
            if any(ints[n] != 0 for n in range(p_int**k)):
                failures.append(f"S^{k} p={p_int}: low coefficients nonzero")
            if ints[p_int**k] != 1:
                failures.append(f"S^{k} p={p_int}: a_(p^k) != 1")
            report = one_lipschitz_report(series)
            if report.passed or report.first_violation != p_int**k:
                failures.append(f"S^{k} p={p_int}: first violation "
                                f"{report.first_violation} != {p_int**k}")
        tj = Tj(p, 1, 1)
        report = one_lipschitz_report(mahler_coefficients(tj, 3 * p_int + 2, 8))
        if report.passed or report.first_violation is None:
            failures.append(f"T_1 p={p_int}: expanding map not flagged")
        rules = tuple((i,) if i else (0, 1) for i in range(p_int))
        sub_series = mahler_coefficients(Substitution(p, rules), 2 * p_int + 3, 8)
        sub_report = one_lipschitz_report(sub_series)
        if not sub_report.passed:
            failures.append(f"substitution p={p_int}: false violation")
        # scale a coefficient up to a unit: a certified violation with witness
        coeffs = list(sub_series.coefficients)
        n_bad = 2 * p_int + 1
        coeffs[n_bad] = ZpApprox.from_int(1, p, 8)
        bad_report = one_lipschitz_report(MahlerSeries(p, tuple(coeffs)))
        if bad_report.passed or bad_report.first_violation != n_bad:
            failures.append(f"scaled series p={p_int}: violation not witnessed")
        else:
            entry = next(e for e in bad_report.entries if e.n == n_bad)
            if not coeffs[n_bad].norm().gt_pow(entry.bound_exponent):
                failures.append(f"scaled series p={p_int}: witness does not reproduce")
    ok = not failures
    _report(8, "Mahler facts: S^k coefficients + 1-Lipschitz classification",
            ok, "" if ok else "; ".join(failures[:3]))
    assert ok, failures


def test_criterion_9_core_arithmetic_oracle():
    p, N = 2, 10
    mod = p**N
    values = [ZpApprox.from_int(v, p, N) for v in range(mod)]
    add_fail = 0
    for a in range(mod):
        xa = values[a]
        for b in range(mod):
            if (xa + values[b]).to_int() != (a + b) % mod:
                add_fail += 1
    rng = random.Random(90_001)
    mul_fail = 0
    for _ in range(2**16):
        a, b = rng.randrange(mod), rng.randrange(mod)
        prod = values[a] * values[b]
        if prod.truncate(N).to_int() != (a * b) % mod:
            mul_fail += 1
    ok = add_fail == 0 and mul_fail == 0
    _report(9, "core arithmetic vs integers mod 2^10", ok,
            f"2^20 additions, 2^16 products, {add_fail + mul_fail} failures")
    assert ok
