"""The four conjugacy constructors and the verification harness."""

import random

import pytest
from qp_reference import reference_h

from padicdyn import conjugacy
from padicdyn.core import (PadicError, PNorm, PrecisionError, Prime, PrimeMismatch, QpApprox,
                           ZpApprox, distance, parse_value)
from padicdyn.maps import (
    AffineQp,
    AffineZp,
    Compose,
    MapSpec,
    ScalingClass,
    ShiftPower,
    Substitution,
    _decode,
    perturb_table,
    random_table,
    table_from_spec,
)
from padicdyn.conjugacy import (
    CertificationError,
    ConjugacyMap,
    ConjugacyReport,
    affine_shell_conjugacy,
    affine_shell_conjugacy_map,
    certify_contraction_factor,
    conjugate_nearby,
    conjugate_to_shift,
    invert_shift_conjugacy,
    nearby_conjugacy,
    qp_affine_conjugacy,
    qp_affine_conjugacy_map,
    shift_conjugacy,
    verify_conjugacy,
)
from padicdyn.shadowing import ConstraintUnsolvable


def rand_point(rng, p, n):
    return ZpApprox(p, tuple(rng.randrange(p) for _ in range(n)))


def zero_q(p, width=30, start=20):
    return QpApprox(p, start, (0,) * width)


# ---------------------------------------------------------------- to-shift


def test_shift_conjugacy_identity_on_shift():
    table = table_from_spec(ShiftPower(Prime(2), 2))
    rng = random.Random(1)
    for _ in range(50):
        x = rand_point(rng, 2, 11)
        assert conjugate_to_shift(table, x).digits == x.digits
        assert invert_shift_conjugacy(table, x).digits == x.digits


def test_shift_conjugacy_preserves_precision():
    rng = random.Random(2)
    table = random_table(rng, 2, ScalingClass(2, 2), 12)
    for n in (5, 8, 13):
        x = rand_point(rng, 2, n)
        assert conjugate_to_shift(table, x).precision == n


def test_shift_conjugacy_isometry_exhaustive():
    rng = random.Random(3)
    for k in (1, 2):
        table = random_table(rng, 2, ScalingClass(k, k), 10)
        vals = [conjugate_to_shift(table, ZpApprox(2, _decode(i, 2, 8)))
                for i in range(256)]
        for i in range(256):
            for j in range(i + 1, 256):
                din = distance(ZpApprox(2, _decode(i, 2, 8)),
                               ZpApprox(2, _decode(j, 2, 8)))
                assert distance(vals[i], vals[j]) == din


def test_shift_conjugacy_semiconjugacy():
    rng = random.Random(4)
    table = random_table(rng, 2, ScalingClass(2, 2), 12)
    shift = ShiftPower(Prime(2), 2)
    for _ in range(300):
        x = rand_point(rng, 2, 12)
        lhs = shift.apply(conjugate_to_shift(table, x))
        rhs = conjugate_to_shift(table, table.apply(x))
        assert not distance(lhs, rhs).exact


def test_shift_conjugacy_round_trips():
    rng = random.Random(5)
    for k in (1, 2):
        table = random_table(rng, 2, ScalingClass(k, k), 11)
        for i in range(2**10):
            x = ZpApprox(2, _decode(i, 2, 10))
            assert invert_shift_conjugacy(table, conjugate_to_shift(table, x)).digits \
                == x.digits
        for _ in range(50):
            y = rand_point(rng, 2, 10)
            assert conjugate_to_shift(table, invert_shift_conjugacy(table, y)).digits \
                == y.digits


def test_shift_conjugacy_rejects_wrong_class():
    rng = random.Random(6)
    table = random_table(rng, 2, ScalingClass(2, 1), 4)
    with pytest.raises(Exception):
        conjugate_to_shift(table, rand_point(rng, 2, 8))


def test_shift_conjugacy_refuses_short_iterates():
    # a depth-1 table without a projection tail leaves f(x) one digit long:
    # block 1 of h(x) is short, and f of it determines nothing, so h(x) is
    # refused rather than assembled from misplaced blocks like (1, 0, 0, 0)
    table = random_table(random.Random(3), 2, ScalingClass(2, 2), 1,
                         tail_projection=False)
    x = ZpApprox(2, (1, 0, 1, 1))
    with pytest.raises(PrecisionError):
        conjugate_to_shift(table, x)
    with pytest.raises(ConstraintUnsolvable, match="table depth exhausted"):
        invert_shift_conjugacy(table, x)


# ----------------------------------------------------------------- nearby


def test_nearby_identity_when_equal():
    f_t = table_from_spec(ShiftPower(Prime(2), 2))
    rng = random.Random(7)
    x = rand_point(rng, 2, 14)
    h = conjugate_nearby(f_t, f_t, x, horizon=5)
    assert h.digits == x.digits[: h.precision]


def test_nearby_conjugates_perturbed_shift():
    rng = random.Random(8)
    for k in (1, 2):
        f_t = table_from_spec(ShiftPower(Prime(2), k))
        g_t = perturb_table(rng, f_t, first_digit=k, depth=10)
        cm = nearby_conjugacy(f_t, g_t, horizon=5)
        shift = ShiftPower(Prime(2), k)
        for _ in range(20):
            x = rand_point(rng, 2, k + 5 * k + 6)
            hx = cm(x)
            lhs = shift.apply(hx)
            rhs = cm(g_t.apply(x))
            assert not distance(lhs, rhs).exact


def test_nearby_swapped_roles_identity():
    rng = random.Random(9)
    f_t = table_from_spec(ShiftPower(Prime(2), 1))
    g_t = perturb_table(rng, f_t, first_digit=1, depth=10)
    cm = nearby_conjugacy(f_t, g_t, horizon=6)
    for _ in range(20):
        x = rand_point(rng, 2, 16)
        hx = cm(x)
        back = cm.invert(hx)
        n = min(back.precision, x.precision)
        assert back.digits[:n] == x.digits[:n]


def test_nearby_hypothesis_violation():
    rng = random.Random(10)
    f_t = table_from_spec(ShiftPower(Prime(2), 2))
    # perturbing below digit k breaks ||f-g|| <= p^-k
    g_t = perturb_table(rng, f_t, first_digit=0, depth=8)
    while all(g_t.digit_value(i, idx) == f_t.digit_value(i, idx)
              for i in range(2) for idx in range(2 ** g_t.arity(i))):
        g_t = perturb_table(rng, f_t, first_digit=0, depth=8)
    with pytest.raises(CertificationError):
        nearby_conjugacy(f_t, g_t, horizon=4)


# ------------------------------------------------------------ affine shell


def _shell_psi(p, n, factor_val):
    c = ZpApprox.from_int(p**factor_val * 2, p, n)
    return AffineZp(c, ZpApprox.from_int(0, p, n))


def test_shell_identity_on_units():
    p, n = Prime(3), 12
    a = ZpApprox.from_int(3, p, n)
    psi = _shell_psi(p, n, 2)
    cm = affine_shell_conjugacy_map(a, psi, precision=n)
    for u in (1, 2, 7, 3 * 5 + 1):
        x = ZpApprox.from_int(u, p, n)
        assert cm(x).digits == x.digits


def test_shell_zero_psi_identity():
    p, n = Prime(3), 10
    a = ZpApprox.from_int(3, p, n)
    psi = AffineZp(ZpApprox.from_int(0, p, n), ZpApprox.from_int(0, p, n))
    cm = affine_shell_conjugacy_map(a, psi, precision=n)
    x = ZpApprox.from_int(3**2 * 7 + 3**5, p, n)
    h = cm(x)
    assert h.digits == x.digits[: h.precision]


def test_shell_preservation_per_call():
    p, n = Prime(3), 12
    a = ZpApprox.from_int(3, p, n)
    psi = _shell_psi(p, n, 2)
    rng = random.Random(11)
    for _ in range(100):
        x = rand_point(rng, p, n)
        if not any(x.digits):
            continue
        assert cmp_norm(affine_shell_conjugacy(a, psi, x), x)


def cmp_norm(a, b):
    return a.norm() == b.norm()


def test_shell_semiconjugacy_seeded():
    # g h = h f on determined digits for small-Lipschitz psi, p=3, N=9
    p, n = Prime(3), 9
    a = ZpApprox.from_int(3 * 2, p, n)
    rng = random.Random(12)
    sigma = Substitution(p, ((1, 0), (2,), (0, 1)))
    c = ZpApprox.from_int(9 * 2, p, n)
    psi = Compose((sigma, AffineZp(c, ZpApprox.from_int(0, p, n))))
    cm = affine_shell_conjugacy_map(a, psi, precision=n)
    f = AffineZp(a, ZpApprox.from_int(0, p, n))

    def g(z):
        az = a if a.precision <= z.precision else a.truncate(z.precision)
        return az * z + psi.apply(z)

    for _ in range(200):
        z = rand_point(rng, p, n)
        assert not distance(cm(f.apply(z)), g(cm(z))).exact


def test_shell_inverse_round_trip():
    p, n = Prime(2), 14
    a = ZpApprox.from_int(2, p, n)
    psi = _shell_psi(p, n, 2)
    cm = affine_shell_conjugacy_map(a, psi, precision=n)
    rng = random.Random(13)
    for _ in range(50):
        x = rand_point(rng, p, n)
        hx = cm(x)
        back = cm.invert(hx)
        m = min(back.precision, x.precision)
        assert back.digits[:m] == x.digits[:m]


def test_shell_inverse_round_trip_at_any_precision():
    # each shell's inverse iterates until its digits settle, about one step
    # per digit, so deep values invert as exactly as shallow ones
    p = Prime(3)
    rng = random.Random(23)
    for n in (80, 120, 200):
        a = ZpApprox.from_int(3, p, n)
        cm = affine_shell_conjugacy_map(a, AffineZp(ZpApprox.from_int(45, p, n),
                                                    ZpApprox.from_int(0, p, n)))
        for i in range(20):
            unit = 1 + 3 * rng.randrange(3 ** (n - 1))
            z = ZpApprox.from_int(3 ** (1 + i % 3) * unit, p, n)
            back = cm.invert(cm(z))
            m = min(back.precision, z.precision)
            assert back.value % p**m == z.value % p**m, (n, i)


def test_shell_fixed_point_at_any_precision():
    # psi(0) = 9 needs the fixed point of z -> 3z + psi(z), one digit per step
    p, n = Prime(3), 100
    a = ZpApprox.from_int(3, p, n)
    psi = AffineZp(ZpApprox.from_int(18, p, n), ZpApprox.from_int(9, p, n))
    cm = affine_shell_conjugacy_map(a, psi)
    zg = parse_value(cm.details["translation"])
    assert zg.precision == n
    assert not distance(a * zg + psi.apply(zg), zg).exact


def test_shell_iteration_that_never_settles_is_refused():
    # t -> (y - psi(t)) / a moves t by 1 + y/a every step: the shell's
    # step cap, its precision + 2, runs out and is reported
    p, n = Prime(3), 12
    a = ZpApprox.from_int(3, p, n)
    psi = AffineZp(ZpApprox.from_int(-3, p, n), ZpApprox.from_int(-3, p, n))
    with pytest.raises(CertificationError, match="did not settle in 14 steps"):
        conjugacy._invert_shell(a, psi, ZpApprox.from_int(3 * 5, p, n))


def test_shell_lipschitz_certificate_rejected():
    p, n = Prime(3), 10
    a = ZpApprox.from_int(3, p, n)
    # Lipschitz factor 3^-1 is not < 1/p: must be rejected for K=1
    bad_psi = AffineZp(ZpApprox.from_int(3, p, n), ZpApprox.from_int(0, p, n))
    with pytest.raises(CertificationError):
        affine_shell_conjugacy_map(a, bad_psi, precision=n)


def test_certify_contraction_factor():
    p, n = Prime(3), 10
    ok = AffineZp(ZpApprox.from_int(9, p, n), ZpApprox.from_int(0, p, n))
    assert certify_contraction_factor(ok, 2) == "structural:affine"
    comp = Compose((Substitution(p, ((0,), (1,), (2,))),
                    AffineZp(ZpApprox.from_int(9, p, n), ZpApprox.from_int(0, p, n))))
    assert certify_contraction_factor(comp, 2) == "structural:composition"
    # a = 0 mod 3^6 is only known as ||a|| <= 3^-6, a bound both rules accept
    zero = AffineZp(ZpApprox.from_int(0, p, 6), ZpApprox.from_int(0, p, 6))
    assert certify_contraction_factor(zero, 2) == "structural:affine"
    assert certify_contraction_factor(Compose((zero,)), 2) == "structural:composition"
    # and a bound too weak for the exponent is refused by both
    short = AffineZp(ZpApprox.from_int(0, p, 1), ZpApprox.from_int(0, p, 6))
    for psi in (short, Compose((short,))):
        with pytest.raises(CertificationError):
            certify_contraction_factor(psi, 2)
    # the fact reaches nested compositions, and a substitution states its
    # exponent 0 instead of being sampled
    assert certify_contraction_factor(Compose((Compose((ok,)),)), 2) == "structural:composition"
    with pytest.raises(CertificationError, match=r"structural:substitution: contracts by p\^-0"):
        certify_contraction_factor(Substitution(p, ((0,), (1,), (2,))), 2)
    # a part that states an exponent but no route is refused, not sampled
    with pytest.raises(CertificationError, match="_NoRoute states a contraction exponent"):
        certify_contraction_factor(Compose((_NoRoute(ok),)), 2)


class _NoRoute(MapSpec):
    """A Z_p map that states its contraction exponent but no Lipschitz route."""

    def __init__(self, spec):
        self.prime, self.domain = spec.prime, spec.domain
        self.apply, self.min_input_precision = spec.apply, spec.min_input_precision
        self.contraction_exponent = spec.contraction_exponent


# -------------------------------------------------------------- qp affine


def test_qp_affine_identity_for_canonical_shift():
    p = Prime(2)
    W = 24
    g = AffineQp(QpApprox(p, -1, (1,) + (0,) * (W - 1)), zero_q(p, W))
    cm = qp_affine_conjugacy_map(g, horizon=14)
    rng = random.Random(14)
    for _ in range(30):
        x = QpApprox(p, rng.randrange(-2, 2),
                     tuple(rng.randrange(2) for _ in range(12))).normalize()
        hx = cm(x)
        n = min(len(hx.digits), len(x.digits))
        assert hx.valuation_offset == x.valuation_offset or not any(x.digits)
        assert hx.digits[:n] == x.digits[:n]


def test_qp_affine_isometry_sampled():
    for p_int, val in [(2, -1), (2, -2), (3, -1), (3, 2)]:
        p = Prime(p_int)
        W = 30
        a = QpApprox(p, val, (1,) + (0,) * (W - 1))
        b = QpApprox(p, 0, (1, 1) + (0,) * (W - 2))
        cm = qp_affine_conjugacy_map(AffineQp(a, b), horizon=12)
        rng = random.Random(p_int * 100 + val)
        for _ in range(100):
            v = rng.randrange(-2, 2)
            x = QpApprox(p, v, tuple(rng.randrange(p) for _ in range(14)))
            y = QpApprox(p, v, tuple(rng.randrange(p) for _ in range(14)))
            din = distance(x, y)
            dout = distance(cm(x), cm(y))
            if din.exact:
                assert dout == din
            else:
                assert not dout.exact


def test_qp_affine_semiconjugacy_with_translation():
    # b != 0: pre-composing with z + b/(1-a) makes the composite conjugate
    p = Prime(3)
    W = 30
    a = QpApprox(p, -1, (2,) + (0,) * (W - 1))
    b = QpApprox(p, -1, (1, 2) + (0,) * (W - 2))
    g = AffineQp(a, b)
    cm = qp_affine_conjugacy_map(g, horizon=10)
    assert cm.details["translation"] is not None
    assert cm.details["dilation_exponent"] == 1
    # the target f_{1/p^k, 0} multiplies by p^-k
    target = AffineQp(QpApprox(p, -1, (1,) + (0,) * (W - 1)), zero_q(p, W))
    rng = random.Random(15)
    for _ in range(50):
        x = QpApprox(p, rng.randrange(-2, 2),
                     tuple(rng.randrange(3) for _ in range(16)))
        assert not distance(target.apply(cm(x)), cm(g.apply(x))).exact


def test_qp_affine_contraction_branch():
    p = Prime(2)
    W = 30
    a = QpApprox(p, 1, (1, 1) + (0,) * (W - 2))   # ||a|| = 1/2
    b = QpApprox(p, 0, (1,) + (0,) * (W - 1))
    g = AffineQp(a, b)
    cm = qp_affine_conjugacy_map(g, horizon=16)
    assert cm.details["dilation_exponent"] == -1
    # k = -1: the target multiplies by p^-k = p
    target = AffineQp(QpApprox(p, 1, (1,) + (0,) * (W - 1)), zero_q(p, W))
    rng = random.Random(16)
    for _ in range(50):
        x = QpApprox(p, rng.randrange(-2, 2),
                     tuple(rng.randrange(2) for _ in range(14)))
        assert not distance(target.apply(cm(x)), cm(g.apply(x))).exact
        y = QpApprox(p, x.valuation_offset,
                     tuple(rng.randrange(2) for _ in range(14)))
        din, dout = distance(x, y), distance(cm(x), cm(y))
        if din.exact:
            assert dout == din


def test_qp_affine_rejects_isometry():
    p = Prime(3)
    a = QpApprox(p, 0, (2,) + (0,) * 19)
    g = AffineQp(a, zero_q(p, 20))
    with pytest.raises(CertificationError):
        qp_affine_conjugacy(g, QpApprox(p, 0, (1, 2, 0, 1)), 6)


def _qp_affine_maps():
    """Affine dilations and contractions with and without b, each also as a
    one-part composition (which states the same affine fact)."""
    for p_int, val in ((2, -1), (3, -2), (2, 1), (3, 2)):
        p = Prime(p_int)
        a = QpApprox(p, val, (1, 1) + (0,) * 28)
        for b in (zero_q(p), QpApprox(p, 0, (1, p_int - 1) + (0,) * 28)):
            g = AffineQp(a, b)
            yield g
            yield Compose((g,))


def _h_outcome(h, x):
    try:
        return h(x)
    except PadicError as exc:
        return type(exc), str(exc)


def test_qp_affine_map_matches_the_per_point_conjugacy():
    # the map computes its constants once; its h(x) must equal the public
    # per-point function, which builds them for each call, errors included
    rng = random.Random(20)
    for g in _qp_affine_maps():
        p = g.prime
        for horizon in (4, 10):
            cm = qp_affine_conjugacy_map(g, horizon)
            for _ in range(12):
                x = QpApprox(p, rng.randrange(-3, 2),
                             tuple(rng.randrange(p) for _ in range(rng.randrange(2, 14))))
                assert _h_outcome(cm, x) == _h_outcome(
                    lambda x: qp_affine_conjugacy(g, x, horizon), x)


def test_qp_affine_h_matches_the_object_walk():
    # h walks digit windows; the object walk it replaced must give the same
    # value or the same refusal: on dilatations and contractions with k in
    # {1, 2}, with and without leading zeros in a and the translation
    # b/(1-a), as bare maps and as
    # compositions, at horizons where the backward blocks do and do not
    # vanish in time and on windows too short to read a block
    rng = random.Random(25)
    seen = set()
    for p_int in (2, 3, 5):
        p = Prime(p_int)
        for val in (-2, -1, 1, 2):
            for translated in (False, True):
                digits = lambda n: tuple(rng.randrange(p_int) for _ in range(n))
                z = rng.randrange(2)  # leading zero digits of a
                a = QpApprox(p, val - z, (0,) * z + (rng.randrange(1, p_int),) + digits(19))
                b = QpApprox(p, 0, digits(20)) if translated else zero_q(p)
                g = AffineQp(a, b)
                one = QpApprox(p, 0, (1,) + (0,) * 19)  # the identity, then g
                for spec in (g, Compose((AffineQp(one, zero_q(p)), g))):
                    for horizon in (0, 1, 3, 12):
                        h = qp_affine_conjugacy_map(spec, horizon)
                        want = reference_h(spec, horizon)
                        for _ in range(6):
                            x = QpApprox(p, rng.randrange(-4, 3), digits(rng.randrange(1, 16)))
                            got = _h_outcome(h, x)
                            assert got == _h_outcome(want, x), (spec, horizon, x)
                            seen.add(got[1].split(" ")[0] if isinstance(got, tuple)
                                     else "value")
    assert seen == {"value", "window", "backward"}
    # a point over another prime is refused before any digit is read, with
    # or without the translation, however short its window
    for b in (zero_q(Prime(2)), QpApprox(Prime(2), 0, (1,) + (0,) * 19)):
        h = qp_affine_conjugacy_map(AffineQp(QpApprox(Prime(2), -1, (1,) + (0,) * 19), b), 4)
        for width in (1, 12):
            with pytest.raises(PrimeMismatch, match="primes 3 and 2"):
                h(QpApprox(Prime(3), -2, (1,) * width))


class _NoAffineFact(MapSpec):
    """A Q_p map that states its expansion exponent and inverse but not its
    coefficients."""

    def __init__(self, spec):
        self.prime, self.domain = spec.prime, spec.domain
        self.apply, self.min_input_precision = spec.apply, spec.min_input_precision
        self.inverse_spec, self.expansion_exponent = spec.inverse_spec, spec.expansion_exponent


def test_qp_affine_h_depends_on_the_map_not_its_class():
    # z -> z/3 + 1/3 has the unit fixed point 1/2; a one-part composition
    # and a composition with the identity give bare g's h(x), errors
    # included, and a map without the affine fact is refused by name
    p3 = Prime(3)
    third = QpApprox(p3, -1, (1,) + (0,) * 29)
    bare = [g for g in _qp_affine_maps() if not isinstance(g, Compose)]
    rng = random.Random(22)
    for g in bare + [AffineQp(third, third)]:
        p = g.prime
        identity = AffineQp(QpApprox(p, 0, (1,) + (0,) * 29), zero_q(p))
        for horizon in (4, 10):
            want = qp_affine_conjugacy_map(g, horizon)
            others = [qp_affine_conjugacy_map(other, horizon) for other in
                      (Compose((g,)), Compose((g, identity)))]
            with pytest.raises(PrecisionError, match="needs a map that states z -> az"):
                qp_affine_conjugacy_map(_NoAffineFact(g), horizon)
            for _ in range(12):
                x = QpApprox(p, rng.randrange(-3, 2),
                             tuple(rng.randrange(p) for _ in range(rng.randrange(2, 14))))
                for cm in others:
                    assert _h_outcome(cm, x) == _h_outcome(want, x), (g, x)


def test_qp_affine_map_constants_are_computed_once(monkeypatch):
    calls = {"inverse_unit": 0, "certify_expansion": 0}

    def counted(name):
        real = getattr(conjugacy, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        return wrapper

    for name in calls:
        monkeypatch.setattr(conjugacy, name, counted(name))
    rng = random.Random(21)
    for g in _qp_affine_maps():
        p = g.prime
        xs = [QpApprox(p, rng.randrange(-2, 2), tuple(rng.randrange(p) for _ in range(12)))
              for _ in range(8)]
        # an affine map inverts a, and b/(1-a) inverts 1-a; a composition
        # states its folded coefficients, so it makes the same inversions
        inverses = 1 + (g.affine()[1].value != 0)
        for count in (1, 8):
            calls.update(inverse_unit=0, certify_expansion=0)
            cm = qp_affine_conjugacy_map(g, 10)
            for x in xs[:count]:
                _h_outcome(cm, x)
            assert calls == {"inverse_unit": inverses, "certify_expansion": 1}, (g, count)


# ---------------------------------------------------------- verification


def test_verify_conjugacy_identity():
    p = Prime(2)
    shift = ShiftPower(p, 1)
    ident = ConjugacyMap(forward=lambda x: x, tag="identity")
    rng = random.Random(17)
    samples = [rand_point(rng, 2, 10) for _ in range(12)]
    report = verify_conjugacy(ident, shift, shift, samples)
    assert report.semiconjugacy_ok
    assert report.max_semiconjugacy_residual is not None
    assert not report.max_semiconjugacy_residual.exact
    assert not report.isometry_deviations


def test_verify_conjugacy_shift_construction_exhaustive():
    rng = random.Random(18)
    table = random_table(rng, 2, ScalingClass(1, 1), 10)
    cm = shift_conjugacy(table)
    samples = [ZpApprox(2, _decode(i, 2, 8)) for i in range(0, 256, 5)]
    report = verify_conjugacy(cm, ShiftPower(Prime(2), 1), table, samples)
    assert report.semiconjugacy_ok
    assert not report.isometry_deviations
    assert not report.injectivity_collisions


def test_verify_conjugacy_flags_corruption():
    rng = random.Random(19)
    table = random_table(rng, 2, ScalingClass(1, 1), 10)

    def corrupted(x):
        h = conjugate_to_shift(table, x)
        digits = list(h.digits)
        digits[2] ^= 1
        return ZpApprox(2, tuple(digits))

    samples = [rand_point(rng, 2, 10) for _ in range(8)]
    report = verify_conjugacy(corrupted, ShiftPower(Prime(2), 1), table, samples)
    assert not report.semiconjugacy_ok
    assert report.max_semiconjugacy_residual.exact


def test_verify_conjugacy_evaluates_h_once_per_sample():
    # h = S is no isometry, so the pair loop has deviations and collisions
    # to report, all of them from the 2n evaluations of h
    shift = ShiftPower(Prime(2), 1)
    calls = []

    def h(x):
        calls.append(x)
        return shift.apply(x)

    samples = [ZpApprox(2, _decode(i, 2, 6)) for i in range(16)]
    report = verify_conjugacy(h, shift, shift, samples)
    assert len(calls) == 2 * len(samples)
    pairs = [(x, y) for i, x in enumerate(samples) for y in samples[i + 1:]]
    dists = [(distance(x, y), distance(shift.apply(x), shift.apply(y)))
             for x, y in pairs]
    assert report == ConjugacyReport(
        samples_checked=len(samples),
        semiconjugacy_ok=True,
        max_semiconjugacy_residual=PNorm(4, exact=False),
        isometry_deviations=tuple(
            pair for pair, (din, dout) in zip(pairs, dists)
            if din.exact and dout.exact and din.exponent != dout.exponent),
        injectivity_collisions=tuple(
            pair for pair, (din, dout) in zip(pairs, dists)
            if din.exact and not dout.exact),
    )
    assert report.isometry_deviations and report.injectivity_collisions


def test_lipschitz_stability_negative_example():
    # the identity map is shadowing but not Lipschitz structurally stable:
    # conjugating it to g(z) = z + p^k z demands h(x) = g(h(x)), i.e.
    # p^k h(x) = 0 at every precision, which forces h = 0
    p, k, N = Prime(2), 3, 12
    g_factor = ZpApprox.from_int(1 + 2**k, p, N)
    solutions = [
        v for v in range(2**N)
        if (g_factor * ZpApprox.from_int(v, p, N)).truncate(N).to_int() == v
    ]
    assert solutions == [v for v in range(2**N) if v % 2 ** (N - k) == 0]
    # at precision N the only admissible values lie in p^(N-k) Z_p: as the
    # precision grows the conjugation is squeezed to the zero map
