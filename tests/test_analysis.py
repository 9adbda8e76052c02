"""Scaling certification, expansivity, exact fixed-point counts vs brute force."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicdyn.analysis import (
    ScalingClass,
    _scales_per_class,
    expansivity_check,
    fixed_points,
    periodic_points,
    verify_scaling,
)
from padicdyn.core import PNorm, PrecisionError, PrimeMismatch, QpApprox, ZpApprox, distance
from padicdyn.maps import (
    ENTRY_BUDGET,
    AffineQp,
    AffineZp,
    DepthExhausted,
    DigitFunctionTable,
    Prime,
    Rmap,
    ShiftPower,
    Tj,
    iterate,
    random_table,
    table_from_spec,
)
from padicdyn.oracle import (
    brute_fixed_point_count,
    brute_periodic_point_count,
    brute_shadow_points,
)

from dense_reference import fixed_seeds, iterate_table
from scaling_reference import per_stratum_scales, stratified_scaling


def _strata_pairs(p, k, m, N):
    """Unordered pairs of N-digit residues at distance p^-j, k <= j < N-m."""
    return sum(p**N * (p - 1) * p ** (N - j - 1) // 2 for j in range(k, N - m))


def test_verify_scaling_shift_exhaustive():
    report = verify_scaling(ShiftPower(Prime(2), 1), ScalingClass(1, 1), 8)
    assert report.verified and report.mode == "exhaustive"
    assert report.pairs_checked == _strata_pairs(2, 1, 1, 8) == 16128
    report = verify_scaling(ShiftPower(Prime(2), 2), ScalingClass(2, 2), 8)
    assert report.verified
    assert report.pairs_checked == _strata_pairs(2, 2, 2, 8) == 7680


def test_verify_scaling_tj():
    report = verify_scaling(Tj(Prime(2), 1, 1), ScalingClass(2, 1), 8)
    assert report.verified
    assert report.pairs_checked == _strata_pairs(2, 2, 1, 8) == 7936
    report = verify_scaling(Tj(Prime(3), 1, 2), ScalingClass(3, 1), 6)
    assert report.verified
    assert report.pairs_checked == _strata_pairs(3, 3, 1, 6) == 8748


def test_verify_scaling_wrong_class_gives_witness():
    # S^2 claimed as (1,1): pairs at distance 2^-1 contract by 2^-2, not 2^-1
    report = verify_scaling(ShiftPower(Prime(2), 2), ScalingClass(1, 1), 8)
    assert not report.verified
    # the first pair in (x, y) order already fails
    assert report.pairs_checked == 1
    x, y, expected, got = report.witness
    # the witness pair lies in the stratum it was checked at ...
    assert distance(ZpApprox(2, x), ZpApprox(2, y)) == PNorm(expected + 1)
    # ... and reproduces: recompute the image distance directly
    s = ShiftPower(Prime(2), 2)
    d = distance(s.apply(ZpApprox(2, x)), s.apply(ZpApprox(2, y)))
    assert d == got
    assert not (got.exact and got.exponent == expected)


def _pair_loop_scaling(f, p, k, m, N):
    """Reference: every pair of N-digit inputs at distance p^-j, j in
    [k, N-m), in (x, y) order, until the first whose images are not at
    distance exactly p^-(j-m).  Returns (verified, pairs, witness)."""
    points = [ZpApprox.from_int(x, p, N) for x in range(p**N)]
    images = [f.apply(x) for x in points]
    pairs = 0
    for a in range(p**N):
        for b in range(a + 1, p**N):
            j = distance(points[a], points[b]).exponent
            if not k <= j < N - m:
                continue
            pairs += 1
            got = distance(images[a], images[b])
            if not (got.exact and got.exponent == j - m):
                return False, pairs, (points[a].digits, points[b].digits, j - m, got)
    return True, pairs, None


@st.composite
def _scaling_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    top = {2: 8, 3: 5, 5: 3}[p]  # p^N <= 256 keeps the reference loop quick
    prime = Prime(p)
    kind = draw(st.sampled_from(["table"] * 3 + ["affine", "shift", "tj", "rmap"]))
    if kind == "table":
        k = draw(st.integers(1, min(3, top - 1)))
        klass = ScalingClass(k, draw(st.integers(1, k)))
        f = random_table(random.Random(draw(st.integers(0, 2**32 - 1))), p, klass,
                         draw(st.integers(max(klass.l, 1), klass.l + 4)),
                         tail_projection=draw(st.booleans()))
    elif kind == "affine":
        # a non-unit or zero a; a short a or b gives mixed output precisions
        na, nb = draw(st.integers(1, top + 1)), draw(st.integers(1, top + 1))
        a = p ** draw(st.integers(1, na)) * draw(st.integers(0, p**na))
        f = AffineZp(ZpApprox.from_int(a, p, na),
                     ZpApprox.from_int(draw(st.integers(0, p**nb)), p, nb))
    elif kind == "shift":
        f = ShiftPower(prime, draw(st.integers(1, 2)))
    elif kind == "tj":
        f = Tj(prime, draw(st.integers(1, 2)), draw(st.integers(0, 2)))
    else:
        f = Rmap(prime, draw(st.integers(1, 2)))
    # a table map needs more than k input digits to give an output digit
    least = f.klass.k + 1 if kind == "table" else 1
    klass = f.klass
    if klass is None or draw(st.booleans()):  # a claim that may be wrong
        k = draw(st.integers(1, top - 2))
        klass = ScalingClass(k, draw(st.integers(1, min(k, top - 1 - k))))
    if klass.k + klass.m + 1 > top:
        klass = ScalingClass(1, 1)
    return f, klass, draw(st.integers(max(klass.k + klass.m + 1, least), top))


def _bits(f, arity):
    return tuple(f(*((idx >> t) & 1 for t in range(arity))) for idx in range(2**arity))


@settings(max_examples=150, deadline=None)
@given(_scaling_cases())
# (3,1) claimed as (2,1): digit 1 splits every class mod 4, but digit 0
# does too, so images at distance 2^-2 do not agree mod 2
@example((DigitFunctionTable(2, ScalingClass(3, 1), (_bits(lambda a, b, c: c, 3),) * 2,
                             tail_projection=True), ScalingClass(2, 1), 6))
# (2,2) claimed as (1,1): digit 0 = x1 xor x2 splits each class mod 2 on the
# inputs below 4, but it is not a function of x mod 4
@example((DigitFunctionTable(2, ScalingClass(2, 2), (_bits(lambda a, b, c: b ^ c, 3),),
                             tail_projection=True), ScalingClass(1, 1), 3))
def test_verify_scaling_matches_pair_loop(case):
    f, klass, N = case
    p = int(f.prime)
    report = verify_scaling(f, klass, N)
    assert report.mode == "exhaustive"
    assert (report.verified, report.pairs_checked, report.witness) == \
        _pair_loop_scaling(f, p, klass.k, klass.m, N)
    if report.verified:
        assert report.pairs_checked == _strata_pairs(p, klass.k, klass.m, N)


def test_scales_per_class_matches_per_stratum_reference():
    # the top-down check against one full pass per stratum, on the images of
    # random tables (some too shallow for the deep strata) under their own
    # and wrong claims, and on the same lists with one entry perturbed
    rng = random.Random(21)
    verdicts = []
    while len(verdicts) < 2000:
        p = rng.choice((2, 3, 5))
        top = {2: 8, 3: 5, 5: 4}[p]
        k = rng.randint(1, min(3, top - 2))
        m = rng.randint(1, min(k, top - 1 - k))
        t = random_table(rng, p, ScalingClass(k, m), rng.randint(max(k - m, 1), k - m + 4),
                         tail_projection=rng.random() < 0.7)
        N = rng.randint(k + m + 1, top)
        values, precisions = t.images(N)
        claims = [(k, m)] + [(kk, rng.randint(1, min(kk, N - 1 - kk)))
                             for kk in [rng.randint(1, (N - 1) // 2)]]
        perturbed = list(values)
        perturbed[rng.randrange(len(values))] = rng.randrange(p ** precisions[0])
        for kk, mm in claims:
            for vals in (values, perturbed):
                want = per_stratum_scales(vals, p, N, kk, mm)
                assert _scales_per_class(vals, p, N, kk, mm) == want, (p, N, kk, mm)
                verdicts.append(want)
    assert 500 < sum(verdicts) < len(verdicts) - 500


def test_stratified_loop_matches_reference():
    # powers computed once per stratum and inputs built by _of leave the rng
    # draws as they were: the same pairs, count and witness, for true and
    # wrong claims at 1, 16 and 64 pairs per stratum
    outcomes = []
    for p in (2, 3, 5):
        N = {2: 8, 3: 6, 5: 6}[p]
        for seed in range(20):
            rng = random.Random(100 * p + seed)
            k = rng.randint(1, 2)
            t = random_table(rng, p, ScalingClass(k, rng.randint(1, k)), 3)
            kk = rng.randint(1, 2)
            for klass in (t.klass, ScalingClass(kk, rng.randint(1, kk))):
                for per_stratum in (1, 16, 64):
                    report = verify_scaling(t, klass, N, exhaustive_limit=1,
                                            per_stratum=per_stratum, seed=seed)
                    assert report.mode == "stratified"
                    got = (report.verified, report.pairs_checked, report.witness)
                    assert got == stratified_scaling(t, klass, N, per_stratum, seed)
                    outcomes.append(got)
    failed = [o for o in outcomes if not o[0]]
    assert len(failed) > 50 and any(pairs > 1 for _, pairs, _ in failed)


def test_verify_scaling_work_is_pinned(monkeypatch):
    # the exhaustive check reads a table's images and applies it nowhere,
    # under true and wrong claims, nor to raise apply's own refusal
    calls = []
    apply = DigitFunctionTable.apply
    monkeypatch.setattr(DigitFunctionTable, "apply",
                        lambda self, x: calls.append(x) or apply(self, x))
    rng = random.Random(12)
    for p, k, m, N in ((2, 2, 1, 8), (3, 1, 1, 5), (2, 3, 2, 9), (5, 2, 1, 5)):
        t = random_table(rng, p, ScalingClass(k, m), 6)
        assert verify_scaling(t, t.klass, N).verified
        assert not verify_scaling(t, ScalingClass(k + (m == k), m + 1), N).verified
    assert not calls
    with pytest.raises(DepthExhausted, match="before the first digit"):
        verify_scaling(DigitFunctionTable(2, ScalingClass(1, 1), ()), ScalingClass(1, 1), 4)
    assert not calls


def test_stratified_refusals_and_witness_are_kept():
    # the stratified check reads output_value; each refusal apply made there
    # is kept, type and message, and a wrong class keeps its first witness
    p2, p3 = Prime(2), Prime(3)
    affq = AffineQp(QpApprox(p3, -1, (1,) + (0,) * 9), QpApprox(p3, 0, (2,) + (0,) * 9))
    with pytest.raises(PrecisionError) as exc:
        verify_scaling(affq, ScalingClass(1, 1), 9)
    assert str(exc.value) == "domain mismatch: AffineQp acts on qp, got ZpApprox"
    for klass in (ScalingClass(1, 1), ScalingClass(2, 1)):
        with pytest.raises(DepthExhausted) as exc:
            verify_scaling(DigitFunctionTable(p2, klass, ()), ScalingClass(1, 1), 13)
        assert str(exc.value) == "table depth exhausted before the first digit"
    report = verify_scaling(Tj(p2, 1, 2), ScalingClass(2, 1), 13)
    assert (report.verified, report.pairs_checked, report.mode) == (False, 1, "stratified")
    assert report.witness == ((1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1),
                              (1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0), 1, PNorm(3))


def test_verify_scaling_stratified_mode():
    report = verify_scaling(ShiftPower(Prime(2), 1), ScalingClass(1, 1), 16,
                            exhaustive_limit=1024, per_stratum=64, seed=3)
    assert report.mode == "stratified"
    assert report.verified


def test_verify_scaling_on_extracted_table():
    rng = random.Random(7)
    for p, k, m in [(2, 2, 1), (3, 1, 1), (2, 3, 2)]:
        table = random_table(rng, p, ScalingClass(k, m), 5)
        report = verify_scaling(table, table.klass, k + m + 2)
        assert report.verified


def test_expansivity_shift():
    # the shift separates every distinct pair at n = its first differing index
    report = expansivity_check(ShiftPower(Prime(2), 1), 1, horizon=7, precision=8)
    assert report.mode == "exhaustive"
    assert report.all_separated
    hist = dict(report.separation_histogram)
    # pairs first differing at digit j separate at step j: 2^(14-j) of them
    for j in range(8):
        assert hist[j] == 2 ** (14 - j)


def test_expansivity_random_table():
    rng = random.Random(11)
    table = random_table(rng, 2, ScalingClass(2, 1), 8)
    report = expansivity_check(table, 2, horizon=6, precision=8)
    assert report.all_separated


def test_expansivity_budget_counts_exhaustive_pairs():
    # 2^11 points fit a raised exhaustive limit, but their 2^10 (2^11 - 1)
    # pairs do not fit the entry budget; no point is evaluated
    class NeverEvaluated:
        prime = Prime(2)
        apply = staticmethod(_refuse)

    N = 11
    assert 2**N * (2**N - 1) // 2 > ENTRY_BUDGET
    with pytest.raises(PrecisionError, match="over the budget"):
        expansivity_check(NeverEvaluated(), 1, horizon=1, precision=N,
                          exhaustive_limit=2**N)


def test_verify_scaling_budget_counts_exhaustive_images():
    # a raised exhaustive limit admits 2^21 inputs, over the entry budget;
    # the check refuses before it computes any image
    class NeverEvaluated:
        prime = Prime(2)
        apply = staticmethod(_refuse)

    N = ENTRY_BUDGET.bit_length()
    assert 2**N > ENTRY_BUDGET
    with pytest.raises(PrecisionError, match="over the budget"):
        verify_scaling(NeverEvaluated(), ScalingClass(1, 1), N, exhaustive_limit=2**N)


def test_expansivity_undecided_reported():
    # horizon 0: pairs differing only deep in the tail cannot separate yet
    report = expansivity_check(ShiftPower(Prime(2), 1), 1, horizon=0, precision=6)
    assert not report.all_separated
    assert report.undecided


def test_fixed_points_shift():
    for p in (2, 3, 5):
        for m in (1, 2):
            report = fixed_points(ShiftPower(Prime(p), m), precision=10)
            assert report.count == p**m == report.closed_form
            assert len(report.seeds) == report.count
            assert len(report.points) == report.count


def test_fixed_points_are_actually_fixed():
    report = fixed_points(Tj(Prime(3), 2, 1), precision=12)
    spec = Tj(Prime(3), 2, 1)
    for pt in report.points:
        y = spec.apply(pt)
        assert y.digits == pt.digits[: y.precision]


def test_fixed_points_tj_closed_form_and_brute_force():
    for p in (2, 3):
        for m in (1, 2):
            for j in (0, 1, 2):
                spec = Tj(Prime(p), m, j)
                report = fixed_points(spec, precision=10)
                assert report.count == p ** (m + j) == report.closed_form
                brute = brute_fixed_point_count(
                    table_from_spec(spec), p, m + j + 4)
                assert report.count == brute


def test_fixed_points_rmap_vs_brute_force():
    # the seed count matches exhaustive search; the traditional closed
    # form over-counts the T_1 branch by a factor p
    for p in (2, 3, 5):
        for m in (1, 2):
            spec = Rmap(Prime(p), m)
            report = fixed_points(spec, precision=10)
            brute = brute_fixed_point_count(table_from_spec(spec), p, m + 5)
            assert report.count == brute
            assert report.count == p ** (m - 1) * (p - 1) + p**m
            assert report.closed_form == p ** (m - 1) * (p - 1) + p ** (m + 1)
            assert report.count != report.closed_form


def test_fixed_points_random_table_vs_brute_force():
    rng = random.Random(13)
    for p, k, m in [(2, 2, 1), (2, 3, 2), (3, 2, 1)]:
        table = random_table(rng, p, ScalingClass(k, m), 6)
        report = fixed_points(table, precision=8)
        assert report.count == brute_fixed_point_count(table, p, k + 4)
        for pt in report.points:
            y = table.apply(pt)
            assert y.digits == pt.digits[: y.precision]


def test_periodic_points_shift():
    report = periodic_points(ShiftPower(Prime(2), 1), 2, precision=8)
    assert report.count == 4 == report.closed_form
    # equals the fixed points of S^(2m)
    assert report.count == fixed_points(ShiftPower(Prime(2), 2), precision=8).count


def test_periodic_points_n1_is_fixed_points():
    report = periodic_points(Tj(Prime(2), 1, 1), 1, precision=10)
    assert report.count == fixed_points(Tj(Prime(2), 1, 1), precision=10).count


def test_periodic_points_tj_vs_brute_force():
    for p, m, j, n in [(2, 1, 1, 2), (2, 2, 1, 2), (3, 1, 1, 2)]:
        spec = Tj(Prime(p), m, j)
        report = periodic_points(spec, n, precision=8)
        brute = brute_periodic_point_count(
            table_from_spec(spec), p, n, n * m + j + 4)
        assert report.count == brute


def test_periodic_points_random_table_vs_brute_force():
    rng = random.Random(17)
    table = random_table(rng, 2, ScalingClass(2, 1), 8)
    for n in (2, 3):
        report = periodic_points(table, n, precision=8)
        brute = brute_periodic_point_count(table, 2, n, n + 8)
        assert report.count == brute
    for seed, expect in [(0, 29), (1, 27), (2, 27)]:
        table = random_table(random.Random(seed), 3, ScalingClass(2, 1), 8)
        report = periodic_points(table, 3, precision=12)
        assert report.count == expect == brute_periodic_point_count(table, 3, 3, 7)
        for pt in report.points:
            y = iterate(table, 3, pt)
            assert pt.precision == 12 and y.digits == pt.digits[: y.precision]


def test_periodic_points_match_dense_iterate_table():
    # the dense iterate table is an independent route to the same points
    rng = random.Random(29)
    P = 9
    for p in (2, 3):
        for k, m in [(1, 1), (2, 1), (3, 2)]:
            klass = ScalingClass(k, m)
            table = random_table(rng, p, klass, klass.l + 2)
            for n in (2, 3):
                report = periodic_points(table, n, precision=P)
                it = iterate_table(table, n, max(klass.l + 1, P - n * m))
                dense = fixed_points(it, precision=P)
                assert (report.count, report.seeds, report.points) == (
                    dense.count, dense.seeds, dense.points), (p, k, m, n)
                assert report.klass == dense.klass
                # the seeds also follow from the dense head functions alone
                assert report.seeds == fixed_seeds(it), (p, k, m, n)


def test_periodic_points_stop_at_table_depth():
    # a table without tail projection gives the points of its projection copy,
    # cut where its last digit function ends
    rng = random.Random(31)
    table = random_table(rng, 2, ScalingClass(2, 1), 5, tail_projection=False)
    copy = DigitFunctionTable(table.prime, table.klass, table.tables,
                              tail_projection=True)
    short = periodic_points(table, 2, precision=12)
    full = periodic_points(copy, 2, precision=12)
    assert short.count == full.count > 0 and short.seeds == full.seeds
    for a, b in zip(short.points, full.points):
        assert a.precision == 6 < b.precision == 12
        assert a.digits == b.digits[: a.precision]
    # too shallow for the head digits of f^2 itself
    shallow = random_table(rng, 2, ScalingClass(2, 1), 1, tail_projection=False)
    with pytest.raises(DepthExhausted):
        periodic_points(shallow, 2, precision=12)


def test_conjugacy_invariance_of_counts():
    # a random (k,k) table is conjugate to S^k: counts must agree for n <= 3
    rng = random.Random(19)
    for k in (1, 2):
        table = random_table(rng, 2, ScalingClass(k, k), 10)
        shift = table_from_spec(ShiftPower(Prime(2), k))
        for n in (1, 2, 3):
            a = periodic_points(table, n, precision=8).count
            b = periodic_points(shift, n, precision=8).count
            assert a == b == 2 ** (k * n)


def test_shadowing_modulus_bounds():
    assert ScalingClass(3, 1).delta_exponent(0) == 2
    klass = ScalingClass(2, 2)
    assert klass.delta_exponent(1) == 3
    # shifting s shifts delta's exponent by one, as it does epsilon's k + s
    for s in range(3):
        assert klass.delta_exponent(s + 1) == klass.delta_exponent(s) + 1


def test_modulus_consistent_with_solver():
    # every pseudo-orbit at the returned delta is shadowed at the epsilon
    from padicdyn.shadowing import perturb_orbit, shadow_locally_scaling

    rng = random.Random(23)
    for p, k, m in [(2, 2, 1), (3, 2, 2)]:
        klass = ScalingClass(k, m)
        for s in (0, 1):
            table = random_table(rng, p, klass, k + s + 2)
            for trial in range(20):
                x0 = ZpApprox(p, tuple(rng.randrange(p) for _ in range(k + s + 14)))
                orbit = perturb_orbit(table, x0, klass.delta_exponent(s), 6,
                                      seed=trial)
                res = shadow_locally_scaling(table, orbit, s)
                assert res.epsilon.leq_pow(k + s)


def test_closed_forms():
    assert ShiftPower(Prime(5), 2).closed_form(1) == 25
    assert Tj(Prime(2), 1, 3).closed_form(1) == 16
    assert Rmap(Prime(3), 1).closed_form(1) == 2 + 9
    assert ShiftPower(Prime(2), 1).closed_form(3) == 8


def test_fixed_point_report_dict_shape():
    report = fixed_points(ShiftPower(Prime(2), 1), precision=6)
    d = report.as_dict(2)
    assert d["count"] == 2 and d["matches_closed_form"] is True
    r2 = fixed_points(Rmap(Prime(2), 1), precision=6)
    assert r2.as_dict(2)["matches_closed_form"] is False


def _refuse(*args, **kwargs):
    raise AssertionError("enumeration started before the budget check")


def test_periodic_points_budget_counts_extension_work(monkeypatch):
    # 2^19 seeds fit the entry budget, but with n kernel calls and up to
    # `precision` solve steps each the work does not; no seed is touched
    n, precision = ENTRY_BUDGET.bit_length() - 2, 12
    assert 2**n <= ENTRY_BUDGET < 2**n * (n + precision)
    table = table_from_spec(ShiftPower(Prime(2), 1))
    monkeypatch.setattr(DigitFunctionTable, "output_value", _refuse)
    with pytest.raises(PrecisionError, match="over the budget"):
        periodic_points(table, n, precision=precision)


def test_brute_force_oracles_refuse_over_budget():
    class NeverEvaluated:
        prime = Prime(2)
        apply = staticmethod(_refuse)

    f, precision = NeverEvaluated(), ENTRY_BUDGET.bit_length()
    assert 2**precision > ENTRY_BUDGET
    orbit = [ZpApprox(2, (0,) * 4)] * 2
    for call in (lambda: brute_fixed_point_count(f, 2, precision),
                 lambda: brute_periodic_point_count(f, 2, 3, precision),
                 lambda: brute_shadow_points(f, orbit, 1, 1, 0, precision)):
        with pytest.raises(PrecisionError, match="over the budget"):
            call()


def test_brute_shadow_points_short_orbit_point_matches_nothing():
    # y = 1 0 1 ... follows (1 0, 0 1) to k+s = 2 digits; an orbit point
    # known to 1 digit cannot be matched, and precision 0 is refused
    shift = table_from_spec(ShiftPower(Prime(2), 1))
    x0 = ZpApprox(2, (1, 0, 1))
    assert brute_shadow_points(shift, [x0, ZpApprox(2, (0, 1))], 1, 1, 1, 5) == [5, 13, 21, 29]
    assert brute_shadow_points(shift, [x0, ZpApprox(2, (0,))], 1, 1, 1, 5) == []
    for call in (lambda: brute_shadow_points(shift, [x0], 1, 1, 1, 0),
                 lambda: brute_periodic_point_count(shift, 2, 1, -1)):
        with pytest.raises(ValueError, match="precision >= 1"):
            call()


def test_brute_counts_raise_the_map_error():
    # the fixed-point count is the period-1 count, and neither rewraps what
    # the map raises into a bare PadicError
    f3 = table_from_spec(ShiftPower(Prime(3), 1))
    for call in (lambda: brute_fixed_point_count(f3, 2, 3),
                 lambda: brute_periodic_point_count(f3, 2, 2, 3)):
        with pytest.raises(PrimeMismatch):
            call()
    tj = table_from_spec(Tj(Prime(2), 1, 2))
    assert brute_fixed_point_count(tj, 2, 6) == brute_periodic_point_count(tj, 2, 1, 6)
