"""Pseudo-orbits and the four shadowing solvers, cross-checked exhaustively."""

import random

import pytest
from dilatation_reference import full_sweep_dilatation
from qp_reference import addsub, reference_apply

from padicdyn import shadowing
from padicdyn.analysis import periodic_points
from padicdyn.conjugacy import invert_shift_conjugacy
from padicdyn.core import (
    PadicError,
    PrecisionError,
    Prime,
    PrimeMismatch,
    QpApprox,
    ZpApprox,
    _window_addsub,
    distance,
)
from padicdyn.maps import (
    AffineQp,
    AffineZp,
    DigitFunctionTable,
    MapSpec,
    ScalingClass,
    ShiftPower,
    Substitution,
    TableMap,
    random_table,
    table_from_spec,
)
from padicdyn.oracle import brute_shadow_points
from padicdyn.shadowing import (
    CertificationError,
    ConstraintUnsolvable,
    PseudoOrbit,
    _solve_next_digit,
    certify_expansion,
    certify_one_lipschitz,
    load_orbit_points,
    perturb_orbit,
    perturb_orbit_two_sided,
    save_orbit,
    shadow_affine_qp,
    shadow_dilatation,
    shadow_lipschitz,
    shadow_locally_scaling,
)


def rand_point(rng, p, n):
    return ZpApprox(p, tuple(rng.randrange(p) for _ in range(n)))


def test_perturb_orbit_deterministic():
    table = table_from_spec(ShiftPower(Prime(2), 1))
    x0 = ZpApprox.from_int(0b1011011101, 2, 14)
    o1 = perturb_orbit(table, x0, 2, 5, seed=42)
    o2 = perturb_orbit(table, x0, 2, 5, seed=42)
    assert o1.points == o2.points and o1.residuals == o2.residuals
    o3 = perturb_orbit(table, x0, 2, 5, seed=43)
    assert o3.points != o1.points


def test_perturb_orbit_certified_delta():
    # oracle: recompute residual norms from the points
    table = table_from_spec(ShiftPower(Prime(3), 1))
    rng = random.Random(1)
    for trial in range(100):
        x0 = rand_point(rng, 3, 14)
        orbit = perturb_orbit(table, x0, 2, 4, seed=trial)
        assert orbit.validate(table)
        assert orbit.certified_delta.leq_pow(2)
        recomputed = [orbit.points[i + 1] - table.apply(orbit.points[i])
                      for i in range(4)]
        for w, r in zip(orbit.residuals, recomputed):
            assert w == r


def test_perturb_orbit_at_precision_floor_is_true_orbit():
    table = table_from_spec(ShiftPower(Prime(2), 1))
    x0 = ZpApprox.from_int(0b110101, 2, 10)
    orbit = perturb_orbit(table, x0, 99, 4, seed=0)
    for n in range(5):
        want = x0
        for _ in range(n):
            want = table.apply(want)
        assert orbit.points[n] == want


def test_one_generator_forward_and_back():
    # on Q_p the backward draws follow the forward ones, so a one-sided orbit
    # is the forward half of the two-sided orbit with the same seed
    p = Prime(3)
    spec = AffineQp(QpApprox(p, -1, (1,) + (0,) * 29), QpApprox(p, 0, (2, 1) + (0,) * 28))
    x0 = QpApprox(p, -2, tuple(random.Random(5).randrange(3) for _ in range(20)))
    one = perturb_orbit(spec, x0, 2, 5, 13)
    assert one.start_index == 0 and one.validate(spec)
    for back in (1, 4):
        both = perturb_orbit(spec, x0, 2, 5, 13, back=back)
        assert both.points[back:] == one.points and both.residuals[back:] == one.residuals
        assert both.start_index == -back and both.validate(spec)
        assert perturb_orbit_two_sided(spec, x0, 2, back, 5, 13) == both
    # on Z_p the stored residuals are the drawn ones
    table = random_table(random.Random(8), 2, ScalingClass(2, 1), 12)
    orbit = perturb_orbit(table, ZpApprox.from_int(0b1011011101101, 2, 16), 2, 6, 21)
    rng = random.Random(21)
    for x, w in zip(orbit.points, orbit.residuals):
        n = table.apply(x).precision  # digits 0 and 1 are zeros, the rest drawn
        assert w == ZpApprox._of(Prime(2), n, shadowing._random_digits(rng, 2, n - 2) * 4)
    # going back needs the map's exact inverse; a table map, p^m-to-one,
    # never has one
    for f in (ShiftPower(Prime(2), 1), table):
        with pytest.raises(PrecisionError,
                           match=f"no exact inverse available for {type(f).__name__}"):
            perturb_orbit(f, ZpApprox.from_int(5, 2, 8), 2, 2, 0, back=1)
    with pytest.raises(ValueError, match="step counts"):
        perturb_orbit(spec, x0, 2, 5, 13, back=-1)


def test_pseudo_orbit_validation_and_accessors():
    table = table_from_spec(ShiftPower(Prime(2), 1))
    x0 = ZpApprox.from_int(0b101101, 2, 10)
    orbit = perturb_orbit(table, x0, 3, 3, seed=5)
    assert orbit.point(0) == x0
    assert not orbit.two_sided
    with pytest.raises(ValueError):
        PseudoOrbit((x0,), ())
    # the orbit must hold x_0: start_index <= 0 <= end_index
    two = orbit.points[:2], orbit.residuals[:1]
    assert PseudoOrbit(*two, -1).end_index == 0
    for start in (1, -2):
        with pytest.raises(ValueError, match="must hold x_0"):
            PseudoOrbit(*two, start)


def test_shadow_true_orbit_is_trivial():
    table = table_from_spec(ShiftPower(Prime(2), 1))
    x0 = ZpApprox.from_int(0b1101011, 2, 12)
    orbit = perturb_orbit(table, x0, 99, 4, seed=0)
    res = shadow_locally_scaling(table, orbit, s=1)
    assert res.point.digits == x0.digits[: res.point.precision]
    assert all(not d.exact for d in res.step_distances)


def test_shadow_shift_matches_every_exhaustive_solution():
    # class (1,1), s=1: the solver's digits agree with every candidate found
    # by brute force over all of Z/2^N (uniqueness from expansivity)
    p, k, m, s, N = 2, 1, 1, 1, 12
    table = table_from_spec(ShiftPower(Prime(p), k))
    rng = random.Random(7)
    for trial in range(20):
        T = (N - k - s) // m
        x0 = rand_point(rng, p, k + s + T * m)
        orbit = perturb_orbit(table, x0, k + s, T, seed=100 + trial)
        res = shadow_locally_scaling(table, orbit, s=s)
        sols = brute_shadow_points(table, orbit.points, k, m, s, N)
        assert sols, "the solver's own output must appear among candidates"
        for yi in sols:
            cand = ZpApprox.from_int(yi, p, N)
            n = min(cand.precision, res.point.precision)
            assert cand.digits[:n] == res.point.digits[:n]


def test_shadow_epsilon_delta_pairing():
    # class (3,1), s=0: orbits at delta = p^-2 are shadowed at eps = p^-3
    rng = random.Random(11)
    table = random_table(rng, 2, ScalingClass(3, 1), 5)
    x0 = rand_point(rng, 2, 3 + 10 * 1 + 1)
    orbit = perturb_orbit(table, x0, 2, 10, seed=3)
    assert orbit.certified_delta.leq_pow(2)
    res = shadow_locally_scaling(table, orbit, s=0)
    assert res.epsilon.leq_pow(3)
    assert res.details["delta_exponent"] == 2
    # independent verification from scratch
    cur = res.point
    for n in range(len(orbit.points)):
        assert distance(orbit.points[n], cur).leq_pow(3)
        if n < len(orbit.points) - 1:
            cur = table.apply(cur)


def test_shadow_m_equals_k_delta():
    # m = k: delta = p^-(k+s), not p^-(l+s)
    rng = random.Random(13)
    table = random_table(rng, 3, ScalingClass(2, 2), 5)
    x0 = rand_point(rng, 3, 2 + 1 + 6 * 2)
    orbit = perturb_orbit(table, x0, 3, 6, seed=5)
    res = shadow_locally_scaling(table, orbit, s=1)
    assert res.details["delta_exponent"] == 3
    assert res.epsilon.leq_pow(3)


def test_shadow_rejects_insufficient_delta():
    table = table_from_spec(ShiftPower(Prime(2), 2))  # class (2,2): delta = p^-(2+s)
    rng = random.Random(17)
    x0 = rand_point(rng, 2, 16)
    orbit = perturb_orbit(table, x0, 1, 3, seed=1)    # residuals up to 2^-1
    if orbit.certified_delta.gt_pow(2):
        with pytest.raises(PrecisionError):
            shadow_locally_scaling(table, orbit, s=0)


def test_shadow_rejects_two_sided():
    p = Prime(3)
    a = QpApprox(p, -1, (1,) + (0,) * 19)
    b = QpApprox(p, 0, (0,) * 20)
    spec = AffineQp(a, b)
    x0 = QpApprox(p, 0, tuple(random.Random(0).randrange(3) for _ in range(12)))
    orbit = perturb_orbit_two_sided(spec, x0, 3, 2, 2, seed=9)
    table = table_from_spec(ShiftPower(p, 1))
    with pytest.raises(PrecisionError, match="one-sided"):
        shadow_locally_scaling(table, orbit, s=0)
    with pytest.raises(PrecisionError, match="one-sided"):
        shadow_lipschitz(Substitution(p, ((0,), (1,), (2,))), orbit)


def test_shadow_detects_lying_residuals():
    # a hand-built orbit whose stored residuals under-report the true error:
    # at s=1 the automatic digit of f(y) must match the orbit, and does not
    table = table_from_spec(ShiftPower(Prime(2), 1))
    x0 = ZpApprox.from_int(0b1010101, 2, 10)
    x1_true = table.apply(x0)
    x1_bad = x1_true + ZpApprox.from_int(1, 2, x1_true.precision)  # error 2^0
    zero = ZpApprox.from_int(0, 2, x1_true.precision)
    lying = PseudoOrbit((x0, x1_bad), (zero,))
    assert not lying.validate(table)
    with pytest.raises(ConstraintUnsolvable):
        shadow_locally_scaling(table, lying, s=1)


def _brute_next_digits(table, levels, n, target):
    """Every digit c whose cascade through the forward digit functions of
    levels 1..n gives ``target``: the p-candidate search, as a reference.
    ``levels`` must be a whole tower, as :func:`_tower` builds it."""
    p = table.prime
    found = []
    for c in range(p):
        d = c
        for j in range(1, n + 1):
            prev, t = levels[j - 1]
            d = table.digit_value(levels[j][1], prev + d * p**t)
        if d == target:
            found.append(c)
    return found


def _tower(table, level0, n):
    """The digit stream ``level0`` and its iterates 1..n, each a stream
    (value, length) computed afresh by the streams' forward step."""
    levels = [level0]
    for j in range(n):
        levels.append(table.level_value(*levels[j]))
    return levels


def _solve_levels(table, n, seed):
    """levels[0] a random start with the n * m + l digits the n-th level
    needs before its first solve, and levels 1..n its iterates."""
    rng = random.Random(seed)
    k, m = table.klass.k, table.klass.m
    p, t = table.prime, n * m + k - m
    return _tower(table, (sum(rng.randrange(p) * p**i for i in range(t)), t), n)


def _digit(stream, i, p):
    value, length = stream
    assert i < length
    return value // p**i % p


def test_solve_next_digit_agrees_with_candidate_search():
    rng = random.Random(29)
    for p, klass, tail in [(2, (1, 1), True), (2, (2, 1), False), (3, (2, 1), True),
                           (3, (3, 2), True), (5, (2, 2), False), (5, (1, 1), True)]:
        table = random_table(rng, p, ScalingClass(*klass), klass[0] + 3,
                             tail_projection=tail)
        m, depth = table.klass.m, table.stored_depth
        # deep levels sit in the tail projection region when there is one
        for n in range(1, 13):
            levels = _solve_levels(table, n, rng.randrange(2**32))
            while table.has_digit(levels[0][1] - m):
                # the reference reads only level 0, never the solver's streams
                tower = _tower(table, levels[0], n)
                target = rng.randrange(p)
                want = _brute_next_digits(table, tower, n, target)
                assert len(want) == 1
                i = tower[n][1]
                # the walk stops at the highest level past the stored depth
                stop = max([j for j in range(1, n + 1) if tower[j][1] >= depth],
                           default=0)
                _solve_next_digit(table, levels, n, target)
                assert _digit(levels[0], levels[0][1] - 1, p) == want[0]
                assert _digit(levels[n], i, p) == target
                tower = _tower(table, levels[0], n)
                assert levels[stop or 1:] == tower[stop or 1:]
                # the levels below the stop are never read again
                levels[1:stop] = [None] * len(levels[1:stop])
                if levels[0][1] > 40:
                    break


def test_shadow_solve_work_is_pinned(monkeypatch):
    # the walk down stops at the first tail projection level: on a depth-4
    # (2,1) table a step makes at most 3 inverse lookups, not one per level,
    # so T steps make 3T - 3 lookups instead of T(T+1)/2
    table = random_table(random.Random(7), 2, ScalingClass(2, 1), 4)
    calls = []
    inverse = DigitFunctionTable.inverse_value
    monkeypatch.setattr(DigitFunctionTable, "inverse_value",
                        lambda self, *args: calls.append(args) or inverse(self, *args))
    rng = random.Random(11)
    for T, lookups in ((20, 57), (40, 117), (80, 237)):
        orbit = perturb_orbit(table, rand_point(rng, 2, T + 4), 1, T, seed=T)
        calls.clear()
        result = shadow_locally_scaling(table, orbit, s=0)
        assert len(calls) == lookups
        assert result.epsilon.leq_pow(2)


class _CountingLevels(list):
    """Digit streams that count the levels written into them."""

    writes = 0

    def __setitem__(self, j, stream):
        self.writes += 1
        super().__setitem__(j, stream)


def test_solve_step_writes_are_pinned():
    # a digit writes level 0 and the levels from the walk's stop up to n, so
    # at most ceil(D/m) + 2 streams however high n is, not all n + 1; on a
    # depth-4 (2,1) table at n = 40 the first digits write 5, 4, 3, then 2
    table = random_table(random.Random(7), 2, ScalingClass(2, 1), 4)
    n = 40
    levels = _CountingLevels(_solve_levels(table, n, 13))
    rng = random.Random(17)
    per_digit = []
    for _ in range(30):
        before = levels.writes
        _solve_next_digit(table, levels, n, rng.randrange(2))
        per_digit.append(levels.writes - before)
    assert max(per_digit) <= -(-table.stored_depth // table.klass.m) + 2
    assert per_digit[:4] == [5, 4, 3, 2]
    assert sum(per_digit) == 66
    assert levels[n] == _tower(table, levels[0], n)[n]


def test_depth_verdicts_on_a_table_without_tail():
    # without a projection tail no level goes stale: level 1 runs out of
    # table first, and the solve step refuses the digit at index D (the
    # stored depth).  The shadow and the conjugacy inverse raise there, and
    # the periodic points stop at D + m digits, or at their K-digit seeds
    for p, klass, depth, shadow_step, inverse_step in [
            (2, (2, 1), 6, 6, None), (3, (3, 2), 5, 3, None),
            (2, (1, 1), 5, 6, 6), (5, (2, 2), 3, 2, 2)]:
        rng = random.Random(p * 100 + depth)
        table = random_table(rng, p, ScalingClass(*klass), depth,
                             tail_projection=False)
        m, l = table.klass.m, table.klass.l
        x0 = rand_point(rng, p, 40)
        # the orbit comes from the same table with its tail, so it is long
        tailed = DigitFunctionTable(p, table.klass, table.tables, tail_projection=True)
        orbit = perturb_orbit(tailed, x0, table.klass.delta_exponent(0), 12, seed=3)
        with pytest.raises(ConstraintUnsolvable, match="table depth exhausted") as err:
            shadow_locally_scaling(table, orbit, s=0)
        assert (err.value.step, err.value.digit_index) == (shadow_step, depth)
        if inverse_step is not None:
            with pytest.raises(ConstraintUnsolvable, match="table depth exhausted") as err:
                invert_shift_conjugacy(table, x0)
            assert (err.value.step, err.value.digit_index) == (inverse_step, depth)
        for period in (1, 2, 3):
            report = periodic_points(table, period, precision=30)
            assert report.count
            assert {x.precision for x in report.points} == {
                max(depth + m, period * m + l)}


def test_wrong_inverse_fails_the_forward_recheck():
    # an inverse lookup that answers the wrong digit must be caught by the
    # solve step's forward re-check, not passed on to the solver
    table = random_table(random.Random(31), 2, ScalingClass(2, 1), 8)
    n = 2
    levels = _solve_levels(table, n, 37)
    i = levels[n][1]
    want = _brute_next_digits(table, levels, n, 1)
    assert len(want) == 1
    # flip the answer at level n only; the lookup at level 1 is left true
    inverse = table.inverse_value
    object.__setattr__(table, "inverse_value",
                       lambda j, prefix, target: inverse(j, prefix, target) ^ (j == i))
    with pytest.raises(ConstraintUnsolvable, match="fails the forward tables"):
        _solve_next_digit(table, levels, n, 1)
    assert _digit(levels[0], levels[0][1] - 1, 2) == 1 - want[0]


def test_non_bijective_row_fails_the_solve():
    # a digit function row that misses a value has no inverse there; the solve
    # step reports it as a constraint it cannot meet
    table = random_table(random.Random(41), 3, ScalingClass(2, 1), 4)
    n = 1
    levels = _solve_levels(table, n, 43)
    i = levels[n][1]
    prefix = levels[0][0]
    row = list(table.tables[i])
    P = len(row) // 3
    row[prefix::P] = [0, 0, 0]
    object.__setattr__(table, "tables",
                       table.tables[:i] + (tuple(row),) + table.tables[i + 1:])
    with pytest.raises(ConstraintUnsolvable, match="misses a value"):
        _solve_next_digit(table, levels, n, 1)


def test_shadow_monotone_in_delta():
    # genuinely smaller residuals never worsen the achieved epsilon
    rng = random.Random(19)
    table = random_table(rng, 2, ScalingClass(2, 1), 6)
    x0 = rand_point(rng, 2, 24)
    loose = perturb_orbit(table, x0, 1, 6, seed=23)
    tight = perturb_orbit(table, x0, 3, 6, seed=23)
    res_loose = shadow_locally_scaling(table, loose, s=0)
    res_tight = shadow_locally_scaling(table, tight, s=2)
    assert res_tight.epsilon.exponent >= res_loose.epsilon.exponent


def test_lipschitz_shadow_substitution():
    sub = Substitution(Prime(2), ((0, 1), (0,)))
    rng = random.Random(29)
    for trial in range(20):
        x0 = rand_point(rng, 2, 12)
        orbit = perturb_orbit(sub, x0, 3, 8, seed=trial)
        res = shadow_lipschitz(sub, orbit)
        assert res.point == x0
        assert res.epsilon.leq_pow(3)
        assert res.details["certification"] == "structural:substitution"


def test_lipschitz_shadow_affine_isometry():
    # a = 1: an isometry; delta = p^-3 over 20 steps
    p = Prime(3)
    spec = AffineZp(ZpApprox.from_int(1, 3, 30), ZpApprox.from_int(5, 3, 30))
    x0 = ZpApprox.from_int(7, 3, 30)
    orbit = perturb_orbit(spec, x0, 3, 20, seed=31)
    res = shadow_lipschitz(spec, orbit)
    assert res.epsilon.leq_pow(3)
    # direct verification oracle
    cur = x0
    for n in range(len(orbit.points)):
        assert distance(orbit.points[n], cur).leq_pow(3)
        if n < len(orbit.points) - 1:
            cur = spec.apply(cur)


def test_lipschitz_shadow_below_precision_delta():
    sub = Substitution(Prime(2), ((1,), (0,)))
    x0 = ZpApprox.from_int(0b110, 2, 10)
    orbit = perturb_orbit(sub, x0, 99, 5, seed=0)
    res = shadow_lipschitz(sub, orbit)
    assert all(not d.exact for d in res.step_distances)


def test_certify_one_lipschitz_rejects_expanding_map():
    table = table_from_spec(ShiftPower(Prime(2), 1))
    with pytest.raises(CertificationError):
        certify_one_lipschitz(TableMap(table))


def test_certify_one_lipschitz_ga_mod_zp():
    from padicdyn.maps import GaModZp

    p = Prime(3)
    contraction = GaModZp(QpApprox(p, 1, (2,) + (0,) * 9))   # ||a|| = 1/3
    assert certify_one_lipschitz(contraction) == "structural:ga-mod-zp"
    expanding = GaModZp(QpApprox(p, -1, (1,) + (0,) * 9))    # ||a|| = 3
    with pytest.raises(CertificationError):
        certify_one_lipschitz(expanding)


def test_affine_qp_true_orbit():
    p = Prime(3)
    a = QpApprox(p, -1, (1,) + (0,) * 23)
    b = QpApprox(p, 0, (2, 1) + (0,) * 22)
    spec = AffineQp(a, b)
    x0 = QpApprox(p, -1, tuple(random.Random(2).randrange(3) for _ in range(16)))
    orbit = perturb_orbit_two_sided(spec, x0, 99, 4, 4, seed=0)
    res = shadow_affine_qp(a, b, orbit)
    assert distance(res.point, x0).exact is False


def test_affine_qp_series_branch():
    # ||a|| = 3 > 1: x = x_0 + sum a^-i w_{i-1}, verified both directions
    p = Prime(3)
    a = QpApprox(p, -1, (1,) + (0,) * 29)
    b = QpApprox(p, 0, (0,) * 30)
    spec = AffineQp(a, b)
    rng = random.Random(37)
    for trial in range(10):
        x0 = QpApprox(p, -2, tuple(rng.randrange(3) for _ in range(20)))
        orbit = perturb_orbit_two_sided(spec, x0, 2, 5, 5, seed=trial)
        res = shadow_affine_qp(a, b, orbit)
        assert res.details["branch"] == "series"
        assert res.epsilon.leq_pow(2)
        assert res.start_index == -5 and res.horizon == 5
        # the bound equals the certified sup of the residuals
        assert res.epsilon.leq_pow(orbit.certified_delta.exponent)


def test_affine_qp_mirror_branch():
    p = Prime(2)
    a = QpApprox(p, 2, (1,) + (0,) * 29)   # ||a|| = 1/4
    b = QpApprox(p, 0, (1,) + (0,) * 29)
    spec = AffineQp(a, b)
    rng = random.Random(41)
    x0 = QpApprox(p, -1, tuple(rng.randrange(2) for _ in range(20)))
    orbit = perturb_orbit_two_sided(spec, x0, 2, 5, 5, seed=7)
    res = shadow_affine_qp(a, b, orbit)
    assert res.details["branch"] == "mirror"
    assert res.epsilon.leq_pow(2)


def test_affine_qp_isometry_branch():
    p = Prime(3)
    a = QpApprox(p, 0, (2,) + (0,) * 23)   # ||a|| = 1
    b = QpApprox(p, 0, (1,) + (0,) * 23)
    spec = AffineQp(a, b)
    x0 = QpApprox(p, 0, tuple(random.Random(3).randrange(3) for _ in range(16)))
    orbit = perturb_orbit_two_sided(spec, x0, 2, 4, 4, seed=11)
    res = shadow_affine_qp(a, b, orbit)
    assert res.details["branch"] == "isometry"
    assert res.point == x0
    assert res.epsilon.leq_pow(2)


def test_dilatation_cross_check_with_series():
    p = Prime(3)
    a = QpApprox(p, -1, (1,) + (0,) * 29)
    b = QpApprox(p, 0, (0,) * 30)
    spec = AffineQp(a, b)
    rng = random.Random(43)
    for trial in range(5):
        x0 = QpApprox(p, -1, tuple(rng.randrange(3) for _ in range(18)))
        orbit = perturb_orbit_two_sided(spec, x0, 2, 4, 6, seed=trial)
        r_series = shadow_affine_qp(a, b, orbit)
        r_fixed = shadow_dilatation(spec, orbit)
        assert r_fixed.epsilon.leq_pow(2)
        d = distance(r_series.point, r_fixed.point)
        assert not d.exact, f"solvers disagree: {d.describe(3)}"


def test_dilatation_true_orbit_converges_immediately():
    # residuals vanish: Phi fixes the zero sequence, so y* = 0 and the point
    # is x_0 itself; the sweep loop notices within two sweeps
    p = Prime(2)
    a = QpApprox(p, -2, (1,) + (0,) * 29)
    b = QpApprox(p, 0, (1,) + (0,) * 29)
    spec = AffineQp(a, b)
    x0 = QpApprox(p, 0, tuple(random.Random(5).randrange(2) for _ in range(16)))
    orbit = perturb_orbit_two_sided(spec, x0, 99, 3, 4, seed=0)
    res = shadow_dilatation(spec, orbit)
    assert res.details["iterations"] <= 2
    assert res.details["converged"]
    assert res.details["correction_exponents"] == ()
    assert not distance(res.point, x0).exact


def test_dilatation_correction_decay():
    # corrections contract by at least p^-k per sweep (monotone exponents)
    p = Prime(2)
    a = QpApprox(p, -2, (1,) + (0,) * 29)
    b = QpApprox(p, 0, (0,) * 30)
    spec = AffineQp(a, b)
    x0 = QpApprox(p, 0, tuple(random.Random(7).randrange(2) for _ in range(20)))
    orbit = perturb_orbit_two_sided(spec, x0, 3, 2, 6, seed=3)
    res = shadow_dilatation(spec, orbit)
    exps = res.details["correction_exponents"]
    k = res.details["expansion_exponent"]
    assert k == 2
    for e0, e1 in zip(exps, exps[1:]):
        assert e1 >= e0 + k
    # geometric bound on the sweep count to reach the precision floor
    width = max(len(q.digits) for q in orbit.points)
    assert res.details["iterations"] <= (width // k) + 2


def test_certify_expansion():
    p = Prime(2)
    a = QpApprox(p, -2, (1,) + (0,) * 9)
    assert certify_expansion(AffineQp(a, QpApprox(p, 0, (0,) * 10))) == 2
    with pytest.raises(CertificationError):
        shadow_dilatation(
            AffineQp(QpApprox(p, 1, (1,) + (0,) * 9), QpApprox(p, 0, (0,) * 10)),
            perturb_orbit_two_sided(
                AffineQp(QpApprox(p, 1, (1,) + (0,) * 9), QpApprox(p, 0, (0,) * 10)),
                QpApprox(p, 0, tuple([1] + [0] * 9)), 2, 1, 2, seed=0))


class _Shifted(MapSpec):
    """A Q_p map that is ``base`` plus a constant: a planted wrong inverse.
    The solvers walk its kernel; the reference walk, its object ``apply``."""

    domain = "qp"

    def __init__(self, base, c):
        self.base, self.c, self.prime = base, c, base.prime

    def output_window(self, v, n, X):
        c = self.c
        return _window_addsub(self.prime, *self.base.output_window(v, n, X),
                              c.valuation_offset, c.width, c.value, 1)

    def apply(self, x):
        return addsub(reference_apply(self.base, x), self.c, 1)


def _plant(monkeypatch, *, point_shift=None, inverse_shift=None):
    """Hand the certificate walk a wrong point or a wrong inverse."""
    real = shadowing._certified

    def walk(f, f_inv, point, *rest):
        if point_shift is not None:
            point = point + point_shift
        if inverse_shift is not None:
            f_inv = _Shifted(f_inv, inverse_shift)
        return real(f, f_inv, point, *rest)

    monkeypatch.setattr(shadowing, "_certified", walk)


def test_certificate_walk_checks_forward_steps(monkeypatch):
    # a point off x_0 in digit 0 is p^0 from x_0 at step 0, far above the bound
    table = table_from_spec(ShiftPower(Prime(2), 1))
    orbit = perturb_orbit(table, ZpApprox.from_int(0b1011011, 2, 14), 2, 5, seed=3)
    one = ZpApprox.from_int(1, 2, 40)
    _plant(monkeypatch, point_shift=one)
    with pytest.raises(PadicError, match="internal: locally-scaling .* step 0") as exc:
        shadow_locally_scaling(table, orbit, s=1)
    assert exc.type is PadicError

    class Counting(MapSpec):
        prime, calls = Prime(2), 0

        def output_value(self, x, n):
            Counting.calls += 1
            return sub.output_value(x, n)

    sub = Substitution(Prime(2), ((0, 1), (0,)))
    orbit = perturb_orbit(sub, ZpApprox.from_int(0b1101, 2, 12), 3, 5, seed=1)
    with pytest.raises(CertificationError, match="step 0"):
        shadow_lipschitz(Counting(), orbit, certification="given")
    assert Counting.calls == 0  # raised before any later step was evaluated


def test_certificate_walk_checks_backward_steps(monkeypatch):
    # a wrong inverse moves only x_{-1}'s image, so only the backward
    # direction of the walk can see it
    p = Prime(3)
    spec = AffineQp(QpApprox(p, -1, (1,) + (0,) * 29), QpApprox(p, 0, (2,) + (0,) * 29))
    x0 = QpApprox(p, -1, tuple(random.Random(19).randrange(3) for _ in range(20)))
    orbit = perturb_orbit_two_sided(spec, x0, 2, 4, 4, seed=5)
    for solve in (lambda: shadow_affine_qp(spec.a, spec.b, orbit),
                  lambda: shadow_dilatation(spec, orbit)):
        solve()  # certifies without the planted fault
        with monkeypatch.context() as m:
            _plant(m, inverse_shift=QpApprox(p, 0, (1,) + (0,) * 20))
            with pytest.raises(PadicError, match="internal: .* step -1") as exc:
                solve()
        assert exc.type is PadicError


def test_q_p_walk_refuses_what_apply_refused():
    # the sweep and the certificate walk compute on digit windows, which
    # carry no prime, so both check it once, with the message the value
    # arithmetic gave (the isometry branch reaches the walk unchanged); a
    # Z_p table or spec walked with a Q_p point is refused by its kernel as
    # its ``apply`` refused the value
    p2, p3 = Prime(2), Prime(3)
    g3 = AffineQp(QpApprox(p3, -1, (1,) + (0,) * 29), QpApprox(p3, 0, (2,) + (0,) * 29))
    x0 = QpApprox(p3, -1, (1, 2, 0, 1, 0, 2, 1, 1))
    orbit = perturb_orbit(g3, x0, 2, 3, 1, back=2)
    unit, dilatation = (QpApprox(p2, v, (1,) + (0,) * 9) for v in (0, -1))
    for solve in (lambda: shadow_affine_qp(unit, QpApprox(p2, 0, (1,) * 10), orbit),
                  lambda: shadow_dilatation(AffineQp(dilatation, unit), orbit)):
        with pytest.raises(PrimeMismatch, match="primes 3 and 2"):
            solve()
    for f, name in ((table_from_spec(ShiftPower(p3, 1)), "DigitFunctionTable"),
                    (Substitution(p3, ((0,), (1,), (2,))), "Substitution")):
        with pytest.raises(PrecisionError,
                           match=f"domain mismatch: {name} acts on zp, got QpApprox"):
            shadow_lipschitz(f, perturb_orbit(g3, x0, 2, 3, 1), certification="given")


class _Rewired(MapSpec):
    """``base`` with a stated expansion exponent or a replaced inverse."""

    domain = "qp"

    def __init__(self, base, *, k=None, inverse=None):
        self.base, self.k, self.inverse, self.prime = base, k, inverse, base.prime

    def output_window(self, v, n, X):
        return self.base.output_window(v, n, X)

    def apply(self, x):
        return reference_apply(self.base, x)

    def expansion_exponent(self):
        return self.base.expansion_exponent() if self.k is None else self.k

    def inverse_spec(self):
        return self.base.inverse_spec() if self.inverse is None else self.inverse


class _Counting(MapSpec):
    """A Q_p ``base`` counting its kernel calls, which its ``apply`` makes too."""

    domain = "qp"

    def __init__(self, base):
        self.base, self.prime, self.calls = base, base.prime, 0

    def output_window(self, v, n, X):
        self.calls += 1
        return self.base.output_window(v, n, X)


def _dilatation_outcome(solve, g, orbit, **kw):
    try:
        r = solve(g, orbit, **kw)
    except PadicError as exc:
        return type(exc), str(exc)
    return r.point, r.epsilon, r.step_distances, r.start_index, r.details


def test_dilatation_matches_full_sweep_reference():
    # a sweep that recomputes only the entries whose input changed must give
    # the full sweep's point, distances, details and errors: on two-sided,
    # back-only, forward-only and true orbits, with a sweep budget too small
    # to converge, a planted wrong inverse, an overstated exponent and a
    # contraction stated as a dilatation
    seen = set()
    cases = 0
    for p in (2, 3, 5, 7):
        P = Prime(p)
        for k in (1, 2, 3):
            for seed in range(4):
                rng = random.Random(1000 * p + 10 * k + seed)
                a = QpApprox(P, -k, (rng.randrange(1, p),)
                             + tuple(rng.randrange(p) for _ in range(29)))
                b = QpApprox(P, 0, tuple(rng.randrange(p) for _ in range(30)))
                spec = AffineQp(a, b)
                shifted = _Shifted(spec.inverse_spec(), QpApprox(P, 3, (1,) + (0,) * 20))
                x0 = QpApprox(P, rng.randrange(-2, 1),
                              tuple(rng.randrange(p) for _ in range(rng.randrange(8, 24))))
                runs = []
                for back, steps, delta in ((4, 6, 2), (0, 8, 3), (5, 0, 2), (3, 5, 99)):
                    orbit = perturb_orbit(spec, x0, delta, steps, seed, back=back)
                    runs += [(spec, orbit, 64), (spec, orbit, 2),
                             (_Rewired(spec, inverse=shifted), orbit, 64),
                             (_Rewired(spec, k=k + 1), orbit, 64)]
                contraction = AffineQp(QpApprox(P, k, (1,) + (0,) * 29), b)
                runs.append((_Rewired(contraction, k=k),
                             perturb_orbit(contraction, x0, 2, 4, seed, back=2), 64))
                for g, orbit, max_iterations in runs:
                    got, want = (_dilatation_outcome(solve, g, orbit,
                                                     max_iterations=max_iterations)
                                 for solve in (shadow_dilatation, full_sweep_dilatation))
                    assert got == want
                    cases += 1
                    seen.add(got[1].split(" ")[0] if isinstance(got[0], type)
                             else f"converged={got[4]['converged']}")
    assert cases == 816  # on 240 orbits
    assert seen == {"converged=True", "sweep", "Phi", "correction", "internal:"}


def test_dilatation_sweep_cap_follows_the_window():
    # a 90-step forward window needs 91 sweeps; a fixed cap of 64 left the
    # point unconverged, and the certificate walk then failed it as an
    # internal error.  By default the cap is the window, and a smaller
    # explicit cap is refused by name before any certificate is checked.
    p = Prime(3)
    rng = random.Random(90)
    spec = AffineQp(QpApprox(p, -1, (1,) + (0,) * 119),
                    QpApprox(p, 0, tuple(rng.randrange(3) for _ in range(120))))
    x0 = QpApprox(p, 0, tuple(rng.randrange(3) for _ in range(120)))
    orbit = perturb_orbit(spec, x0, 2, 90, seed=1)
    res = shadow_dilatation(spec, orbit)
    assert res.details["iterations"] == 91 and res.details["converged"]
    with pytest.raises(PrecisionError, match="sweep budget of 64 exhausted") as exc:
        shadow_dilatation(spec, orbit, max_iterations=64)
    assert exc.type is PrecisionError


def test_dilatation_sweep_work_is_pinned():
    # entry n is recomputed only when entry n+1 changed: a forward window
    # x_0..x_8 costs 8 + 7 + ... + 1 = 36 applications of g^-1 over its 9
    # sweeps, where the full sweep applies it 9 * 8 = 72 times.  The orbit is
    # forward-only, so the certificate walk applies g^-1 nowhere.
    p = Prime(3)
    spec = AffineQp(QpApprox(p, -1, (2,) + (0,) * 29), QpApprox(p, 0, (1, 2) + (0,) * 28))
    x0 = QpApprox(p, -1, tuple(random.Random(23).randrange(3) for _ in range(24)))
    orbit = perturb_orbit(spec, x0, 2, 8, seed=4)
    for solve, applications in ((shadow_dilatation, 36), (full_sweep_dilatation, 72)):
        g_inv = _Counting(spec.inverse_spec())
        res = solve(_Rewired(spec, inverse=g_inv), orbit)
        assert res.details["iterations"] == 9 and res.details["converged"]
        assert g_inv.calls == applications


def test_random_digits_draw_as_randrange_does():
    # a residual's digits come as one integer, drawn exactly as that many
    # rng.randrange(p) calls draw them, so every seeded orbit is unchanged
    for p in (2, 3, 5, 7, 11, 13, 257):
        for seed in range(200):
            n = seed % 41
            ours, theirs = random.Random(seed), random.Random(seed)
            value = shadowing._random_digits(ours, p, n)
            digits = [theirs.randrange(p) for _ in range(n)]
            assert value == sum(d * p**i for i, d in enumerate(digits))
            assert ours.getstate() == theirs.getstate()


def test_orbit_file_round_trip(tmp_path):
    table = table_from_spec(ShiftPower(Prime(2), 1))
    x0 = ZpApprox.from_int(0b1011011, 2, 12)
    orbit = perturb_orbit(table, x0, 2, 4, seed=77)
    path = tmp_path / "orbit.txt"
    save_orbit(orbit, path)
    points, start, header = load_orbit_points(path)
    assert points == orbit.points and start == 0
    assert header["prime"] == "2" and header["domain"] == "zp"
    rebuilt = PseudoOrbit.from_map(table, points, start)
    assert rebuilt.certified_delta == orbit.certified_delta
    # byte stability
    path2 = tmp_path / "orbit2.txt"
    save_orbit(rebuilt, path2)
    assert path.read_bytes() == path2.read_bytes()
