"""Digit-exact arithmetic against integer oracles, plus the ultrametric laws."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicdyn.core import (
    PNorm,
    PrecisionError,
    Prime,
    PrimeMismatch,
    QpApprox,
    ZeroAtPrecision,
    ZpApprox,
    distance,
    encode_value,
    inverse_unit,
    mod_zp,
    parse_value,
    pnorm_max,
)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_prime_validation():
    assert Prime(2) == 2
    assert Prime(97) == 97
    for bad in (0, 1, 4, 9, 91):
        with pytest.raises(ValueError):
            Prime(bad)
    for n in range(-3, 10**4):
        try:
            accepted = Prime(n) == n
        except ValueError:
            accepted = False
        assert accepted == _trial_division_is_prime(n), n
    # Carmichael numbers fool the Fermat test, not Miller-Rabin
    for bad in (561, 41041, 10**18 + 1):  # 10^18 + 1 = 101 * 9901 * 999999000001
        with pytest.raises(ValueError):
            Prime(bad)
    assert Prime(10**18 + 3) == 10**18 + 3
    # past the range where the fixed bases are proven, even a prime is refused
    with pytest.raises(ValueError, match="cannot certify"):
        Prime(2**89 - 1)


def test_int_embedding_round_trip():
    for p in (2, 3, 5):
        for v in range(p**4):
            x = ZpApprox.from_int(v, p, 6)
            assert x.to_int() == v


def test_negative_embedding_is_complement():
    x = ZpApprox.from_int(-1, 3, 7)
    assert x.digits == (2,) * 7
    assert (x + ZpApprox.from_int(1, 3, 7)).digits == (0,) * 7


def test_carry_example_p2():
    # 1 + 1 = 2 in Z_2: digits (0, 1)
    one = ZpApprox.from_int(1, 2, 4)
    assert (one + one).digits == (0, 1, 0, 0)


def test_product_example_p5():
    # 2 * 3 = 6 = 1 + 1*5
    x = ZpApprox.from_int(2, 5, 2)
    y = ZpApprox.from_int(3, 5, 2)
    assert (x * y).digits == (1, 1)


def test_zero_minus_one_p3():
    # oracle: add one back and check every digit vanishes
    n = 6
    z = ZpApprox.from_int(0, 3, n) - ZpApprox.from_int(1, 3, n)
    assert z.digits == (2,) * n
    back = z + ZpApprox.from_int(1, 3, n)
    assert back.digits == (0,) * n


def test_arith_matches_integers_exhaustive_small():
    p, n = 2, 6
    mod = p**n
    for a in range(mod):
        x = ZpApprox.from_int(a, p, n)
        for b in range(0, mod, 7):
            y = ZpApprox.from_int(b, p, n)
            assert (x + y).to_int() == (a + b) % mod
            assert (x - y).to_int() == (a - b) % mod
            assert (x * y).truncate(n).to_int() == (a * b) % mod


@settings(max_examples=200)
@given(st.integers(0, 3**8 - 1), st.integers(0, 3**8 - 1))
def test_arith_matches_integers_p3(a, b):
    p, n = 3, 8
    x = ZpApprox.from_int(a, p, n)
    y = ZpApprox.from_int(b, p, n)
    assert (x + y).to_int() == (a + b) % p**n
    assert (x * y).truncate(n).to_int() == (a * b) % p**n


def test_mul_precision_gains_from_valuation():
    # a long factor of valuation 1 damps the short factor's error by p
    x = ZpApprox.from_int(3, 3, 8)      # valuation 1, 8 digits
    y = ZpApprox.from_int(7, 3, 5)
    assert (x * y).precision == 6       # min(vx + Ny, vy + Nx) = min(6, 8)
    assert (x * y).to_int() == 21


def test_norm_examples():
    # ||3||_3 = 3^-1
    assert ZpApprox.from_int(3, 3, 5).norm() == PNorm(1)
    # identical vectors: only a bound
    x = ZpApprox.from_int(10, 2, 6)
    assert distance(x, x) == PNorm(6, exact=False)
    # ||1/4||_2 = 4
    q = QpApprox(2, -2, (1, 0, 1))
    assert q.norm() == PNorm(-2)


def test_pnorm_comparisons():
    assert PNorm(3) == PNorm(3)
    assert PNorm(3) != PNorm(3, exact=False)
    assert PNorm(3).leq_pow(3) and PNorm(3).leq_pow(2)
    assert not PNorm(3).leq_pow(4)
    assert PNorm(3).gt_pow(4)
    assert not PNorm(3, exact=False).gt_pow(10)


def test_pnorm_max():
    assert pnorm_max([PNorm(3), PNorm(5)]) == PNorm(3)
    assert pnorm_max([PNorm(3, exact=False), PNorm(5, exact=False)]) == PNorm(3, exact=False)
    # an exact value dominating all bounds stays exact
    assert pnorm_max([PNorm(2), PNorm(5, exact=False)]) == PNorm(2)
    # a bound that may exceed the largest exact value wins as a bound
    assert pnorm_max([PNorm(4), PNorm(1, exact=False)]) == PNorm(1, exact=False)


@settings(max_examples=300)
@given(
    st.integers(0, 2**8 - 1),
    st.integers(0, 2**8 - 1),
    st.integers(0, 2**8 - 1),
)
def test_ultrametric_inequality(a, b, c):
    n = 8
    x, y, z = (ZpApprox.from_int(v, 2, n) for v in (a, b, c))
    dxz = distance(x, z)
    bound = min(distance(x, y).exponent, distance(y, z).exponent)
    # d(x,z) <= max(d(x,y), d(y,z)): exponent of the max is the min exponent
    assert dxz.exponent >= bound


def test_ultrametric_exhaustive_tiny():
    p, n = 2, 4
    vals = [ZpApprox.from_int(v, p, n) for v in range(p**n)]
    for x in vals:
        for y in vals:
            dxy = distance(x, y)
            for z in vals:
                assert distance(x, z).exponent >= min(dxy.exponent, distance(y, z).exponent)


def test_strong_triangle_equality():
    # ||x|| != ||y|| forces ||x+y|| = max norm
    for a, b in [(4, 3), (8, 2), (1, 6)]:
        x = ZpApprox.from_int(a, 2, 8)
        y = ZpApprox.from_int(b, 2, 8)
        nx, ny = x.norm(), y.norm()
        if nx.exponent != ny.exponent:
            assert (x + y).norm() == PNorm(min(nx.exponent, ny.exponent))


def test_norm_multiplicativity():
    for a, b in [(6, 9), (2, 12), (3, 5)]:
        x = ZpApprox.from_int(a, 3, 8)
        y = ZpApprox.from_int(b, 3, 8)
        assert (x * y).norm() == PNorm(x.norm().exponent + y.norm().exponent)


def test_prime_mismatch_raises():
    with pytest.raises(PrimeMismatch):
        ZpApprox.from_int(1, 2, 4) + ZpApprox.from_int(1, 3, 4)
    with pytest.raises(PrimeMismatch):
        QpApprox(2, 0, (1,)) * QpApprox(3, 0, (1,))


def test_qp_window_alignment():
    x = QpApprox(3, -1, (1, 1, 0))   # 1/3 + 1
    y = QpApprox(3, 0, (2, 1, 0, 2))
    s = x + y
    assert s.valuation_offset == -1
    assert s.window_end == 2
    assert s.digits == (1, 0, 2)     # 1/3 + 3 + ...


def test_qp_disjoint_windows_use_known_zeros():
    # digits below a window are exactly zero, so disjoint windows still
    # combine: the higher window contributes nothing below its start
    x = QpApprox(3, -5, (1, 2))
    y = QpApprox(3, 2, (1, 2))
    s = x + y
    assert s.valuation_offset == -5 and s.window_end == -3
    assert s.digits == (1, 2)


def test_qp_mul_shifts_window():
    x = QpApprox(2, 0, (1, 1, 0, 1))
    p_shift = QpApprox(2, 1, (1, 0, 0, 0))
    y = p_shift * x
    assert y.valuation_offset == 1
    assert y.digits == x.digits


def test_mod_zp_examples():
    # 1/p + 1 -> 1 at the determined digits
    x = QpApprox(3, -1, (1, 1, 0))
    assert mod_zp(x).digits == (1, 0)
    # already integral: identity
    y = QpApprox(3, 0, (2, 1))
    assert mod_zp(y).digits == (2, 1)
    # 1/2 in Q_2 with window (-1, 2): all nonnegative digits zero
    z = QpApprox(2, -1, (1, 0, 0))
    assert mod_zp(z).digits == (0, 0)
    with pytest.raises(PrecisionError):
        mod_zp(QpApprox(2, -3, (1, 1)))


def test_inverse_unit_p3():
    # oracle: multiply back and check digits (1, 0, 0, ...)
    n = 8
    two = ZpApprox.from_int(2, 3, n)
    inv = inverse_unit(two)
    assert inv.digits[:4] == (2, 1, 1, 1)
    prod = inv * QpApprox.from_zp(two)
    assert prod.valuation_offset == 0
    assert prod.digits == (1,) + (0,) * (n - 1)


def test_inverse_unit_identity_and_shift():
    one = ZpApprox.from_int(1, 5, 6)
    assert inverse_unit(one).digits == (1, 0, 0, 0, 0, 0)
    # p * unit inverts to window starting at -1
    x = ZpApprox.from_int(2 * 5, 5, 6)
    inv = inverse_unit(x)
    assert inv.valuation_offset == -1
    prod = inv * QpApprox.from_zp(x)
    assert prod.normalize().digits[0] == 1
    with pytest.raises(ZeroAtPrecision):
        inverse_unit(ZpApprox.from_int(0, 5, 6))


def test_qp_normalize():
    x = QpApprox(2, -2, (0, 0, 1, 1))
    assert not x.is_canonical
    y = x.normalize()
    assert y.valuation_offset == 0 and y.digits == (1, 1)
    assert y.window_end == x.window_end


def test_encoding_round_trip():
    x = ZpApprox.from_int(11, 2, 6)
    assert parse_value(encode_value(x)) == x
    q = QpApprox(3, -2, (2, 0, 1))
    assert parse_value(encode_value(q)) == q
    assert parse_value(encode_value(q), "qp") == q
    # a Z_p value re-read explicitly as Q_p keeps its digits
    q0 = parse_value(encode_value(x), "qp")
    assert q0.valuation_offset == 0 and q0.digits == x.digits
    with pytest.raises(ValueError):
        parse_value("garbage")
    with pytest.raises(ValueError):
        parse_value("2^-1 * [1]", "zp")


# ------------------------------------------- integer storage vs digit reference
#
# The reference below works digit by digit, as the digit-tuple arithmetic did:
# align two windows with a digit_at read per place, convert the digits to an
# integer, compute, and split the result back into digits.

def _ref_int(digits, p):
    return sum(d * p**i for i, d in enumerate(digits))


def _ref_split(value, p, n):
    return tuple(value // p**i % p for i in range(n))


def _ref_digit_at(v, digits, i):
    if i < v:
        return 0
    if i >= v + len(digits):
        raise PrecisionError(i)
    return digits[i - v]


def _ref_normalize(v, digits):
    i = next((i for i, d in enumerate(digits) if d), None)
    return (v, digits) if i is None else (v + i, digits[i:])


def _ref_norm(v, digits):
    i = next((i for i, d in enumerate(digits) if d), None)
    return PNorm(v + len(digits), exact=False) if i is None else PNorm(v + i)


def _ref_addsub(p, x, y, sign):
    (vx, dx), (vy, dy) = x, y
    v, end = min(vx, vy), min(vx + len(dx), vy + len(dy))
    if end <= v:
        return None
    a = _ref_int([_ref_digit_at(vx, dx, i) for i in range(v, end)], p)
    b = _ref_int([_ref_digit_at(vy, dy, i) for i in range(v, end)], p)
    return v, _ref_split((a + sign * b) % p ** (end - v), p, end - v)


def _ref_mul(p, x, y):
    (vx, dx), (vy, dy) = _ref_normalize(*x), _ref_normalize(*y)
    n = min(len(dx), len(dy))
    return vx + vy, _ref_split(_ref_int(dx, p) * _ref_int(dy, p) % p**n, p, n)


def _ref_inverse(p, x):
    v, digits = _ref_normalize(*x)
    if not any(digits):
        return None
    u, inv = _ref_int(digits, p), 0
    for k in range(len(digits)):  # solve for one more digit of u * inv = 1
        inv += next(d for d in range(p)
                    if u * (inv + d * p**k) % p ** (k + 1) == 1) * p**k
    return -v, _ref_split(inv, p, len(digits))


def _check_stored(r, p):
    n = r.width if isinstance(r, QpApprox) else r.precision
    assert 0 <= r.value < p**n
    assert len(r.digits) == n and r.value == _ref_int(r.digits, p)


def _check_qp(r, p, want):
    _check_stored(r, p)
    assert (r.valuation_offset, r.digits) == want
    rebuilt = QpApprox(p, *want)
    assert rebuilt == r and hash(rebuilt) == hash(r)


@st.composite
def _windows(draw, p):
    width = draw(st.integers(1, 30))
    return (draw(st.integers(-6, 6)),
            tuple(draw(st.lists(st.integers(0, p - 1), min_size=width, max_size=width))))


@st.composite
def _qp_pairs(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    return p, draw(_windows(p)), draw(_windows(p))


@settings(max_examples=400)
@given(_qp_pairs())
@example((3, (-6, (1, 2)), (6, (2, 1, 1))))          # disjoint windows
@example((5, (6, (4,)), (-6, (0, 1, 0, 2))))         # disjoint, high window first
@example((2, (-6, (1,) * 30), (0, (0, 1, 1))))       # nested windows
@example((3, (-2, (0, 0, 0, 0)), (1, (0, 2, 0))))    # all-zero, non-canonical
def test_qp_ops_match_digit_reference(case):
    p, x, y = case
    a, b = QpApprox(p, *x), QpApprox(p, *y)
    for op, sign in ((QpApprox.__add__, 1), (QpApprox.__sub__, -1)):
        want = _ref_addsub(p, x, y, sign)
        if want is None:
            with pytest.raises(PrecisionError):
                op(a, b)
            continue
        _check_qp(op(a, b), p, want)
        if sign < 0:
            assert distance(a, b) == _ref_norm(*want)
    _check_qp(a * b, p, _ref_mul(p, x, y))
    _check_qp(-a, p, (x[0], _ref_split(-_ref_int(x[1], p) % p ** len(x[1]), p, len(x[1]))))
    _check_qp(a.normalize(), p, _ref_normalize(*x))
    assert a.norm() == _ref_norm(*x)
    assert [a.digit_at(i) for i in range(-7, a.window_end)] == [
        _ref_digit_at(*x, i) for i in range(-7, a.window_end)]
    end = x[0] + len(x[1])
    if end <= 0:
        with pytest.raises(PrecisionError):
            mod_zp(a)
    else:
        z = mod_zp(a)
        _check_stored(z, p)
        assert z.digits == tuple(_ref_digit_at(*x, i) for i in range(end))
    want = _ref_inverse(p, x)
    if want is None:
        with pytest.raises(ZeroAtPrecision):
            inverse_unit(a)
    else:
        _check_qp(inverse_unit(a), p, want)


@settings(max_examples=300)
@given(_qp_pairs())
def test_zp_ops_match_digit_reference(case):
    p, (_, dx), (_, dy) = case
    x, y = ZpApprox(p, dx), ZpApprox(p, dy)
    n = min(len(dx), len(dy))
    vx, vy = (next((i for i, d in enumerate(ds) if d), len(ds)) for ds in (dx, dy))
    m = min(vx + len(dy), vy + len(dx))
    a, b = _ref_int(dx, p), _ref_int(dy, p)
    for got, want in ((x + y, _ref_split((a + b) % p**n, p, n)),
                      (x - y, _ref_split((a - b) % p**n, p, n)),
                      (x * y, _ref_split(a * b % p**m, p, m)),
                      (-x, _ref_split(-a % p ** len(dx), p, len(dx)))):
        _check_stored(got, p)
        assert got.digits == want
        rebuilt = ZpApprox(p, want)
        assert rebuilt == got and hash(rebuilt) == hash(got)
    assert x.norm() == _ref_norm(0, dx)
    assert distance(x, y) == _ref_norm(0, (x - y).digits)
    from_int = ZpApprox.from_int(a, p, len(dx))
    assert from_int == x and hash(from_int) == hash(x) and from_int.digits == dx


def test_values_are_immutable():
    product = QpApprox(2, 0, (1,)) * QpApprox(2, 1, (1, 1))
    for x in (ZpApprox.from_int(5, 3, 4), QpApprox(3, -1, (1, 2)), product):
        assert x.digits  # reading the derived digits leaves x frozen
        for name in ("prime", "value", "digits", "precision", "width", "extra"):
            with pytest.raises((AttributeError, TypeError)):
                setattr(x, name, 1)
