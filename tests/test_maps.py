"""Digit-function tables, map evaluation, extraction, iteration, serialization."""

import ast
import hashlib
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicdyn
from padicdyn.analysis import expansivity_check, fixed_points, periodic_points, verify_scaling
from padicdyn.core import (
    PadicError,
    PNorm,
    PrecisionError,
    Prime,
    QpApprox,
    ZpApprox,
    distance,
)
from padicdyn.mahler import MahlerSeries, series_from_values
from padicdyn.maps import (
    ENTRY_BUDGET,
    AffineQp,
    AffineZp,
    BijectivityViolation,
    CertificationError,
    Compose,
    DepthExhausted,
    DigitFunctionTable,
    GaModZp,
    InconsistentScaling,
    MahlerMap,
    MapSpec,
    Rmap,
    ScalingClass,
    ShiftPower,
    Substitution,
    TableMap,
    Tj,
    _decode,
    dumps_spec,
    extract_table,
    iterate,
    loads_spec,
    mahler_coefficients,
    perturb_table,
    random_table,
    table_from_spec,
    table_sup_distance_exponent,
)
from padicdyn.oracle import brute_fixed_point_count
from padicdyn.shadowing import certify_one_lipschitz

import qp_reference
from apply_reference import reference_apply
from dense_reference import iterate_table
from scaling_reference import entrywise_extract_table

# sha256 of the outcomes (tables or errors) of ``_extraction_cases`` under the
# entrywise extraction, recorded from it
EXTRACTION_HASH = "25bea6a38e66afdc02afceffe64d394ad8d51080f56093d9d8c41ea311253be3"


def rand_point(rng, p, n):
    return ZpApprox(p, tuple(rng.randrange(p) for _ in range(n)))


def test_scaling_class_validation():
    ScalingClass(3, 1)
    ScalingClass(2, 2)
    with pytest.raises(ValueError):
        ScalingClass(2, 3)
    with pytest.raises(ValueError):
        ScalingClass(2, 0)


def test_shift_eval():
    s = ShiftPower(Prime(2), 1)
    x = ZpApprox(2, (1, 0, 1, 1))
    assert s.apply(x).digits == (0, 1, 1)
    with pytest.raises(PrecisionError):
        s.apply(ZpApprox(2, (1,)))


def test_tj_eval_example():
    # keep x_0, skip x_1, continue from x_2
    t = Tj(Prime(2), 1, 1)
    assert t.apply(ZpApprox(2, (1, 0, 1))).digits == (1, 1)


def test_rmap_branches():
    r = Rmap(Prime(2), 1)
    assert r.apply(ZpApprox(2, (1, 0, 1))).digits == (1, 1)   # T_1 branch
    assert r.apply(ZpApprox(2, (0, 1, 1))).digits == (1, 1)   # shift branch


def test_table_bijectivity_check():
    # a constant tail function aborts construction with a witness
    with pytest.raises(BijectivityViolation) as exc:
        DigitFunctionTable(Prime(2), ScalingClass(1, 1), ((0, 0, 0, 0),))
    assert exc.value.digit_index == 0
    # the witness is the first failing prefix: prefix 0 is a bijection, 1 is not
    with pytest.raises(BijectivityViolation) as exc:
        DigitFunctionTable(Prime(2), ScalingClass(1, 1), ((0, 0, 1, 0),))
    assert (exc.value.digit_index, exc.value.prefix) == (0, (1,))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]),
       st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_inverse_value_inverts_every_tail_function(p, km, tail, seed):
    # f_i(prefix, inverse(prefix, t)) = t for every tail function the table
    # has, stored or projected; prefixes are sampled where there are many
    rng = random.Random(seed)
    klass = ScalingClass(*km)
    depth = klass.l + (2 if p < 5 else 1)
    table = random_table(rng, p, klass, depth, tail_projection=tail)
    for i in range(klass.l, depth + 2):
        if not table.has_digit(i):
            assert not tail and i >= depth
            continue
        P = p ** (table.arity(i) - 1)
        prefixes = range(P) if P <= 128 else rng.sample(range(P), 128)
        for prefix in prefixes:
            for t in range(p):
                c = table.inverse_value(i, prefix, t)
                assert 0 <= c < p
                assert table.digit_value(i, prefix + c * P) == t


def _apply_digitwise(table, x):
    """Reference evaluation: each output digit is one ``digit_value`` call on
    its encoded argument tuple, from digit 0 while the input's digits cover
    the arity and the table has the function; a missing head raises."""
    p, digits = table.prime, x.digits
    out, i = [], 0
    while i < table.l or (table.arity(i) <= len(digits) and table.has_digit(i)):
        idx = sum(d * p**t for t, d in enumerate(digits[:table.arity(i)]))
        out.append(table.digit_value(i, idx))
        i += 1
    return ZpApprox(p, tuple(out))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]),
       st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]),
       st.booleans(), st.integers(1, 4), st.integers(0, 10), st.integers(0, 2**32 - 1))
def test_apply_matches_digitwise_evaluation(p, km, tail, depth, extra, seed):
    # the integer kernel behind apply gives the digits, and exactly the
    # precision, of evaluating every digit function on its own, and refuses
    # the same inputs: a stored depth below l, or no more than m digits
    rng = random.Random(seed)
    klass = ScalingClass(*km)
    table = random_table(rng, p, klass, depth, tail_projection=tail)
    x = rand_point(rng, p, klass.k + extra)

    def outcome(f):
        try:
            y = f(x)
        except PadicError as exc:
            return type(exc)
        return y.value, y.precision

    got = outcome(table.apply)
    assert got == outcome(lambda x: _apply_digitwise(table, x))
    if depth < klass.l:
        assert got is DepthExhausted


def test_table_size_check():
    with pytest.raises(ValueError):
        DigitFunctionTable(Prime(2), ScalingClass(1, 1), ((0, 1),))


def test_structural_tables_match_specs():
    rng = random.Random(0)
    for spec in [ShiftPower(Prime(2), 2), Tj(Prime(3), 1, 2), Rmap(Prime(2), 2),
                 Tj(Prime(2), 2, 0)]:
        table = table_from_spec(spec)
        for _ in range(200):
            x = rand_point(rng, spec.prime, 10)
            assert table.apply(x).digits == spec.apply(x).digits[: table.apply(x).precision]
            assert table.apply(x).precision == x.precision - table.klass.m


def test_table_eval_scaling_property_exhaustive():
    # the defining property: distance p^-j maps to exactly p^-(j-m)
    for p, k, m in [(2, 2, 1), (2, 2, 2), (3, 1, 1)]:
        rng = random.Random(p * 10 + k + m)
        table = random_table(rng, p, ScalingClass(k, m), 6)
        n = 6
        pts = [ZpApprox(p, _decode(i, p, n)) for i in range(p**n)]
        outs = [table.apply(x) for x in pts]
        for i in range(p**n):
            for j in range(i + 1, p**n):
                d = distance(pts[i], pts[j])
                if not d.exact or d.exponent < k or d.exponent >= n - m:
                    continue
                assert distance(outs[i], outs[j]) == PNorm(d.exponent - m)


def test_digit_triangularity_masking():
    # changing digits beyond the arity never changes output digit i
    rng = random.Random(5)
    table = random_table(rng, 2, ScalingClass(2, 1), 5)
    k, l = 2, 1
    for _ in range(500):
        x = rand_point(rng, 2, 10)
        y = table.apply(x)
        for i in range(y.precision):
            arity = k if i < l else k - l + i + 1
            digits = list(x.digits)
            for t in range(arity, len(digits)):
                digits[t] = rng.randrange(2)
            y2 = table.apply(ZpApprox(2, tuple(digits)))
            assert y2.digits[i] == y.digits[i]


def test_extract_table_shift_projections():
    table = extract_table(ShiftPower(Prime(2), 2), ScalingClass(2, 2), 4)
    # f_i(x_0..x_{k+i}) = x_{k+i}: the projection onto the last variable
    for i in range(4):
        a = table.arity(i)
        for idx in range(2**a):
            assert table.tables[i][idx] == _decode(idx, 2, a)[-1]


def test_extract_table_tj_projections():
    spec = Tj(Prime(2), 1, 2)
    table = extract_table(spec, ScalingClass(3, 1), 4)
    for i in range(2):  # head digits project to x_i
        for idx in range(2**3):
            assert table.tables[i][idx] == _decode(idx, 2, 3)[i]


def test_extract_table_agrees_with_eval():
    rng = random.Random(9)
    base = random_table(rng, 2, ScalingClass(2, 1), 5)
    spec = TableMap(base)
    table = extract_table(spec, ScalingClass(2, 1), 5)
    for idx in range(2**10):
        x = ZpApprox(2, _decode(idx, 2, 10))
        assert table.apply(x).digits == base.apply(x).digits[: table.apply(x).precision]


def test_extract_table_rejects_wrong_class():
    # S^2 claimed as class (1,1): digit 0 would need x_2, beyond the arity
    with pytest.raises((InconsistentScaling, BijectivityViolation)):
        extract_table(ShiftPower(Prime(2), 2), ScalingClass(1, 1), 3)


class _ReadsPastArity(MapSpec):
    """S^1 on Z_3, except that output digit 1 is x_2 + x_reach mod 3.  Class
    (1, 1) lets digit 1 read x_0..x_2 only.  At depth 3 extraction replays
    truncations x_0..x_3 with one padding digit x_4 after them."""

    prime = Prime(3)

    def __init__(self, reach):
        self.reach = reach

    def output_value(self, x, n):
        y, length = ShiftPower(self.prime, 1).output_value(x, n)
        d = list(_decode(y, 3, length))
        if n > self.reach:
            d[1] = (d[1] + _decode(x, 3, n)[self.reach]) % 3
        return sum(c * 3**i for i, c in enumerate(d)), length

    def min_input_precision(self, n_out):
        return n_out + 1


def test_extract_table_witness_past_the_arity():
    # the zero-padded evaluations that fill the table see x_3 and x_4 as 0:
    # x_3 shows at the first truncation with x_3 = 1, x_4 only under the
    # nonzero padding (2,)
    for reach, witness in ((3, (1, (0, 0, 0, 1), (0,))), (4, (1, (0, 0, 0, 0), (2,)))):
        with pytest.raises(InconsistentScaling) as exc:
            extract_table(_ReadsPastArity(reach), ScalingClass(1, 1), 3)
        assert (exc.value.digit_index, exc.value.truncation, exc.value.extension) == witness


def _images_outcome(call):
    try:
        return call()
    except PadicError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_images_match_apply(p, data):
    # every residue mod p^n, n from below k until p^n > 4096, on tables with
    # and without a projection tail from below the head count to l + 4
    # functions, and on specs whose images are their per-residue ``apply``;
    # a refusal must be ``apply``'s own, type and message
    draw, prime = data.draw, Prime(p)
    k = draw(st.integers(1, 3))
    klass = ScalingClass(k, draw(st.integers(1, k)))
    table = random_table(random.Random(draw(st.integers(0, 2**32 - 1))), p, klass,
                         draw(st.integers(max(klass.l - 1, 0), klass.l + 4)),
                         tail_projection=draw(st.booleans()))
    n = draw(st.integers(1, {2: 12, 3: 7, 5: 5}[p]))
    na, nb = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    affine = AffineZp(ZpApprox.from_int(draw(st.integers(0, p**na)), p, na),
                      ZpApprox.from_int(draw(st.integers(0, p**nb)), p, nb))
    for f in (table, Tj(prime, klass.m, draw(st.integers(0, 3))),
              Rmap(prime, klass.m), affine):
        ys = _images_outcome(lambda: [f.apply(ZpApprox._of(prime, n, x)) for x in range(p**n)])
        want = ys if isinstance(ys, tuple) else ([y.value for y in ys],
                                                 [y.precision for y in ys])
        assert _images_outcome(lambda: f.images(n)) == want, f


def _kernel_specs(draw, prime):
    """One spec of every Z_p class at ``prime``: an affine map with a unit
    a, one with a of positive valuation and one with a = 0 at its precision,
    and g_a with ||a|| above, at and below 1."""
    p = int(prime)

    def zp(v):  # a unit times p^v, or zero at its precision for v = None
        n = draw(st.integers(1, 8))
        if v is None:
            return ZpApprox.from_int(0, p, n)
        unit = draw(st.integers(1, p - 1)) + p * draw(st.integers(0, p**n))
        return ZpApprox.from_int(unit * p**v, p, n)

    def ga(e):  # ||a|| = p^-e, with up to two leading zero digits in the window
        z, width = draw(st.integers(0, 2)), draw(st.integers(1, 6))
        digits = [0] * z + [draw(st.integers(1, p - 1))] + [
            draw(st.integers(0, p - 1)) for _ in range(width - 1)]
        return GaModZp(QpApprox(prime, e - z, digits))

    rules = [tuple(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3)))
             for _ in range(p)]
    k = draw(st.integers(1, 3))
    klass = ScalingClass(k, draw(st.integers(1, k)))
    table = random_table(random.Random(draw(st.integers(0, 2**32 - 1))), p, klass,
                         draw(st.integers(0, klass.l + 3)), tail_projection=draw(st.booleans()))
    coefficients = tuple(ZpApprox.from_int(draw(st.integers(0, p**10)), p,
                                           draw(st.integers(1, 10)))
                         for _ in range(draw(st.integers(1, 4))))
    return [ShiftPower(prime, draw(st.integers(1, 4))),
            Tj(prime, draw(st.integers(1, 3)), draw(st.integers(0, 3))),
            Rmap(prime, draw(st.integers(1, 3))),
            AffineZp(zp(0), zp(draw(st.integers(0, 2)))),
            AffineZp(zp(draw(st.integers(1, 3))), zp(0)),
            AffineZp(zp(None), zp(draw(st.integers(0, 2)))),
            ga(-draw(st.integers(1, 3))), ga(0), ga(draw(st.integers(1, 3))),
            Substitution(prime, rules), table,
            MahlerMap(MahlerSeries(prime, coefficients))]


def _kernel_outcome(spec, x, n):
    """``output_value`` and the object ``apply`` it replaced, each as
    (value, precision) or (error type, message)."""
    def old():
        y = reference_apply(spec, ZpApprox._of(spec.prime, n, x))
        return y.value, y.precision

    return _images_outcome(lambda: spec.output_value(x, n)), _images_outcome(old)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_output_value_matches_object_apply(p, data):
    # every Z_p spec class and two- and three-part compositions of them, at
    # x = 0, at x divisible by p and at any residue mod p^n, n = 1..12
    draw = data.draw
    specs = _kernel_specs(draw, Prime(p))
    specs += [Compose(tuple(draw(st.sampled_from(specs)) for _ in range(parts)))
              for parts in (2, 3)]
    n = draw(st.integers(1, 12))
    x = draw(st.one_of(st.just(0), st.integers(0, p ** (n - 1) - 1).map(lambda q: q * p),
                       st.integers(0, p**n - 1)))
    for spec in specs:
        got, want = _kernel_outcome(spec, x, n)
        assert got == want, (spec, x, n)


def test_output_value_refuses_as_apply_did():
    # every residue mod p^n for n up to and past each refusal threshold:
    # shifts at n <= m, T_0 at n <= m, a table below k, with no function or
    # without its heads, g_a with no digit at index >= 0, a Mahler term whose
    # n! eats the precision, and a composition refused by its second part
    p2, p3 = Prime(2), Prime(3)
    specs = [ShiftPower(p2, 3), Tj(p3, 2, 0), Tj(p2, 3, 0), Rmap(p3, 2),
             TableMap(DigitFunctionTable(p2, ScalingClass(3, 2), ())),
             TableMap(DigitFunctionTable(p2, ScalingClass(3, 1), (), tail_projection=True)),
             TableMap(random_table(random.Random(5), 2, ScalingClass(3, 1), 3)),
             GaModZp(QpApprox(p2, -4, (1, 0, 1))), GaModZp(QpApprox(p3, -2, (0, 2, 1))),
             MahlerMap(MahlerSeries(p2, tuple(ZpApprox.from_int(c, 2, 6)
                                              for c in (1, 0, 0, 0, 3)))),
             Compose((Tj(p2, 1, 1), ShiftPower(p2, 2)))]
    for spec in specs:
        refused = False
        for n in range(1, 7):
            for x in range(spec.prime**n):
                got, want = _kernel_outcome(spec, x, n)
                assert got == want, (spec, x, n)
                refused |= isinstance(got[0], type)
        assert refused, spec


def _window_outcome(call):
    """A Q_p result as its window (start, width, value), or the refusal."""
    got = _images_outcome(call)
    return got if isinstance(got, tuple) else (got.valuation_offset, got.width, got.value)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_window_rules_match_object_arithmetic(p, data):
    # add, subtract and multiply, ``AffineQp``'s kernel and ``apply`` and
    # compositions of Q_p parts give the object bodies' window or refusal:
    # values that are zero, that have leading zero digits or that are any
    # residue, windows that overlap and windows that are disjoint or only
    # touch (their sums read the known zeros between them), an ``a`` with
    # leading zeros, which the map makes canonical once, and a composition
    # refused by its Z_p part
    draw, prime = data.draw, Prime(p)

    def window(start=None, nonzero=False):  # zero, leading zeros or any residue
        n = draw(st.integers(1, 8))
        v = draw(st.integers(-6, 6)) if start is None else start
        X = draw(st.one_of(st.just(0), st.integers(0, p ** (n - 1) - 1).map(lambda q: q * p),
                           st.integers(0, p**n - 1)))
        return QpApprox._of(prime, v, n, X or nonzero * p ** (n - 1))

    x, y = window(), window()
    far = window(start=x.window_end + draw(st.integers(0, 3)))  # disjoint from x
    for u, w in ((x, y), (y, x), (x, far), (far, x)):
        for sign, op in ((1, lambda: u + w), (-1, lambda: u - w)):
            assert _window_outcome(op) == _window_outcome(
                lambda: qp_reference.addsub(u, w, sign)), (u, w, sign)
        assert _window_outcome(lambda: u * w) == _window_outcome(
            lambda: qp_reference.mul(u, w)), (u, w)
    maps = [AffineQp(window(nonzero=True), window()) for _ in range(3)]
    maps += [Compose(tuple(draw(st.sampled_from(maps[:3])) for _ in range(parts)))
             for parts in (1, 2, 3)]
    maps.append(Compose((maps[0], ShiftPower(prime, 1))))  # refused by its Z_p part
    for spec in maps:
        want = _window_outcome(lambda: qp_reference.reference_apply(spec, x))
        assert _window_outcome(lambda: spec.apply(x)) == want, (spec, x)
        assert _images_outcome(lambda: spec.output_window(
            x.valuation_offset, x.width, x.value)) == want, (spec, x)


def _extraction_cases():
    """(spec, claimed class, depth): the specs the extraction tests use and
    the benchmark's classical specs at seeds 1..5, each at its own class and
    at wrong ones, and random tables as specs."""
    p2, p3 = Prime(2), Prime(3)
    specs = [(ShiftPower(p2, 2), (2, 2), 4), (ShiftPower(p3, 1), (1, 1), 3),
             (Tj(p2, 1, 2), (3, 1), 4), (Tj(p3, 1, 1), (2, 1), 3),
             (Rmap(p2, 1), (2, 1), 4), (Rmap(p3, 1), (2, 1), 3)]
    for seed in range(1, 6):
        rng = random.Random(seed)
        for p, K in ((2, 2), (3, 1)):
            A = 1 + p * rng.randrange(p**11)
            specs.append((GaModZp(QpApprox(p, -K, _decode(A, p, 12))), (K, K), 4))
        for p in (2, 3):
            A, B = 1 + p * rng.randrange(p**11), rng.randrange(p**12)
            specs.append((Compose((AffineZp(ZpApprox.from_int(A, p, 12),
                                            ZpApprox.from_int(B, p, 12)),
                                   ShiftPower(Prime(p), 1))), (1, 1), 4))
    rng = random.Random(8)
    for p, k, m, depth in ((2, 2, 1, 5), (3, 1, 1, 3), (2, 3, 2, 4), (5, 1, 1, 2)):
        specs.append((TableMap(random_table(rng, p, ScalingClass(k, m), depth)), (k, m), depth))
    wrong = [(spec, klass, 3) for spec, (k, m), _ in specs
             for klass in ((1, 1), (2, 1), (k + 1, m), (k, k)) if klass != (k, m)]
    return specs, wrong


def test_extract_table_matches_the_entrywise_reference():
    # one evaluation per truncation builds the tables, and refuses wrong
    # classes, exactly as one evaluation per entry with a replay through
    # apply did; the hash is that of the entrywise extraction's outcomes
    specs, wrong = _extraction_cases()
    outcomes = []
    for spec, klass, depth in specs + wrong:
        got, want = (_images_outcome(lambda: build(spec, ScalingClass(*klass), depth).tables)
                     for build in (extract_table, entrywise_extract_table))
        assert got == want, (spec, klass)
        outcomes.append(got)
    assert sum(isinstance(o[0], type) for o in outcomes) > 20  # wrong classes refused
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == EXTRACTION_HASH


class _CountingSpec(MapSpec):
    """``base`` counting its evaluations."""

    def __init__(self, base):
        self.base, self.prime, self.calls = base, base.prime, 0

    def output_value(self, x, n):
        self.calls += 1
        return self.base.output_value(x, n)

    def min_input_precision(self, n_out):
        return self.base.min_input_precision(n_out)


def test_extract_table_work_is_pinned(monkeypatch):
    # one spec evaluation per zero-padded and one per (p-1)-padded truncation
    # of full length L, and no table application: the replay reads the
    # table's images (one evaluation per entry and per truncation, plus p^L
    # table applications, before)
    table_calls = []
    apply = DigitFunctionTable.apply
    monkeypatch.setattr(DigitFunctionTable, "apply",
                        lambda self, x: table_calls.append(x) or apply(self, x))
    for spec, (k, m), depth in _extraction_cases()[0]:
        if spec.structural_table() is not spec:  # the pin is on specs, not tables
            counting = _CountingSpec(spec)
            extract_table(counting, ScalingClass(k, m), depth)
            assert counting.calls == 2 * spec.prime ** max(k, m + depth), spec
    assert not table_calls


def test_iterate_matches_repeated_eval():
    rng = random.Random(11)
    table = random_table(rng, 2, ScalingClass(2, 1), 8)
    x = rand_point(rng, 2, 12)
    assert iterate(table, 1, x).digits == table.apply(x).digits
    y3 = iterate(table, 3, x)
    assert y3.digits == table.apply(table.apply(table.apply(x))).digits


def test_triple_shift_example():
    table = table_from_spec(ShiftPower(Prime(2), 1))
    x = ZpApprox(2, (1, 1, 0, 1, 0))
    assert iterate(table, 3, x).digits == (1, 0)


def test_iterate_table_matches_double_eval_exhaustive():
    # oracle: compose eval twice, compare over every input long enough
    rng = random.Random(13)
    base = random_table(rng, 2, ScalingClass(2, 1), 6)
    it = iterate_table(base, 2, 6)
    assert it.klass == ScalingClass(3, 2)
    n = 2 * 1 + 1 + 6  # n(k-l) + l + depth
    for idx in range(2**n):
        x = ZpApprox(2, _decode(idx, 2, n))
        got = it.apply(x)
        want = base.apply(base.apply(x))
        assert got.digits == want.digits[: got.precision]


def test_every_map_answers_to_prime_and_apply():
    # a table, its one-fold iterate and the classical spec are three views
    # of one map: the same prime and the same output digits
    for spec in (ShiftPower(Prime(3), 1), Tj(Prime(2), 1, 2)):
        table = table_from_spec(spec)
        views = (table, iterate_table(table, 1, 6), spec)
        assert {v.prime for v in views} == {spec.prime}
        p = int(spec.prime)
        for idx in range(p**5):
            x = ZpApprox(p, _decode(idx, p, 5))
            assert len({v.apply(x).digits for v in views}) == 1
    # analysis and the oracles take an iterate's table as a map
    it = iterate_table(table_from_spec(ShiftPower(Prime(2), 1)), 2, 6)
    assert verify_scaling(it, it.klass, 7).verified
    assert expansivity_check(it, 2, horizon=4, precision=6).all_separated
    assert brute_fixed_point_count(it, 2, 6) == fixed_points(it).count == 4


def test_a_bare_table_goes_wherever_a_spec_goes():
    # a table is a map spec: Mahler coefficients, the Lipschitz check (a
    # locally scaling map expands, so the sampled route finds a pair), a
    # composition part, the JSON form and the fixed-point report's map id
    p2 = Prime(2)
    t = random_table(random.Random(41), p2, ScalingClass(2, 1), 6)
    values = [t.apply(ZpApprox.from_int(j, p2, 12)).truncate(8).value for j in range(9)]
    assert mahler_coefficients(t, 8, 8) == series_from_values(p2, values, 8)
    with pytest.raises(CertificationError, match="pair breaks the factor p\\^-0"):
        certify_one_lipschitz(t)
    shift = ShiftPower(p2, 1)
    for idx in range(2**6):
        x = ZpApprox.from_int(idx, p2, 6)
        assert Compose((t, shift)).apply(x) == shift.apply(t.apply(x))
    text = dumps_spec(t)
    again = loads_spec(text)
    assert type(again) is DigitFunctionTable and again == t and dumps_spec(again) == text
    assert fixed_points(t).map_id == "TableMap"
    assert periodic_points(t, 2).map_id == "TableMap^(2)"
    assert isinstance(t, MapSpec) and TableMap(t) is t and t.structural_table() is t


def test_no_isinstance_names_a_map_class():
    # every map answers to one protocol, so the library never asks which
    # kind of map it holds: no isinstance call names MapSpec or a subclass
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in pathlib.Path(padicdyn.__file__).parent.glob("*.py")}
    classes = [node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    map_classes, grew = {"MapSpec", "DigitFunctionTable"}, True
    while grew:
        found = {c.name for c in classes
                 if any(isinstance(b, ast.Name) and b.id in map_classes for b in c.bases)}
        grew = not found <= map_classes
        map_classes |= found
    hits = [(module, node.lineno, name)
            for module, tree in sorted(trees.items()) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            for arg in node.args[1:] for sub in ast.walk(arg)
            for name in [getattr(sub, "id", None) or getattr(sub, "attr", None)]
            if name in map_classes]
    assert not hits


def test_no_class_is_defined_inside_a_function():
    # a class statement in a function body makes a new class on every call;
    # every class the library uses is stated once, at module level
    hits = [(path.name, node.lineno, node.name)
            for path in sorted(pathlib.Path(padicdyn.__file__).parent.glob("*.py"))
            for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, ast.ClassDef)]
    assert not hits


def test_iterate_composition_law():
    rng = random.Random(17)
    table = random_table(rng, 3, ScalingClass(1, 1), 4)
    x = rand_point(rng, 3, 12)
    a, b = 2, 3
    lhs = iterate(table, a + b, x)
    rhs = iterate(table, a, iterate(table, b, x))
    assert lhs.digits == rhs.digits


def test_iterate_table_depth_guard():
    # the dense reference refuses a base too shallow for the iterate's depth
    rng = random.Random(19)
    base = random_table(rng, 2, ScalingClass(1, 1), 3, tail_projection=False)
    with pytest.raises(DepthExhausted, match="cannot support iterate depth"):
        iterate_table(base, 3, 4)


def test_substitution_identity_rules():
    sub = Substitution(Prime(2), ((0,), (1,)))
    x = ZpApprox(2, (1, 0, 1, 1))
    assert sub.apply(x).digits == x.digits


def test_substitution_concatenation_example():
    sub = Substitution(Prime(2), ((0, 1), (0,)))
    x = ZpApprox(2, (1, 0))
    assert sub.apply(x).digits == (0, 0, 1)


@settings(max_examples=300)
@given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
def test_substitution_one_lipschitz(a, b):
    sub = Substitution(Prime(2), ((0, 1), (0,)))
    x = ZpApprox.from_int(a, 2, 10)
    y = ZpApprox.from_int(b, 2, 10)
    din = distance(x, y)
    dout = distance(sub.apply(x), sub.apply(y))
    assert not dout.gt_pow(din.exponent)


def test_substitution_validation():
    with pytest.raises(ValueError):
        Substitution(Prime(2), ((0, 1),))          # one rule per letter
    with pytest.raises(ValueError):
        Substitution(Prime(2), ((0,), ()))         # nonempty images
    with pytest.raises(ValueError):
        Substitution(Prime(2), ((0,), (2,)))       # letters in range


def test_ga_mod_zp_is_shift_for_inverse_p():
    p = Prime(3)
    a = QpApprox(p, -1, (1,) + (0,) * 9)
    ga = GaModZp(a)
    s = ShiftPower(p, 1)
    rng = random.Random(23)
    for _ in range(100):
        x = rand_point(rng, p, 8)
        got, want = ga.apply(x), s.apply(x)
        n = min(got.precision, want.precision)
        assert got.digits[:n] == want.digits[:n]


def test_ga_mod_zp_scaling_class():
    # ||a|| = p^2: extraction at class (2,2) verifies the digit structure
    p = Prime(2)
    a = QpApprox(p, -2, (1, 1) + (0,) * 10)
    table = extract_table(GaModZp(a), ScalingClass(2, 2), 4)
    assert table.stored_depth == 4


def test_affine_qp_inverse():
    p = Prime(3)
    a = QpApprox(p, -1, (2,) + (0,) * 19)
    b = QpApprox(p, 0, (1, 2) + (0,) * 18)
    f = AffineQp(a, b)
    g = f.inverse_spec()
    rng = random.Random(29)
    for _ in range(50):
        x = QpApprox(p, rng.randrange(-2, 2), tuple(rng.randrange(3) for _ in range(12)))
        back = g.apply(f.apply(x))
        d = distance(back, x)
        assert not d.exact, d


def test_compose_order():
    p = Prime(2)
    s = ShiftPower(p, 1)
    sub = Substitution(p, ((0, 1), (0,)))
    comp = Compose((s, sub))   # x -> sub(s(x))
    x = ZpApprox(2, (1, 0, 1, 1))
    assert comp.apply(x).digits == sub.apply(s.apply(x)).digits


def test_spec_serialization_round_trip():
    p2, p3 = Prime(2), Prime(3)
    rng = random.Random(31)
    specs = [
        ShiftPower(p2, 2),
        Tj(p3, 1, 2),
        Rmap(p2, 1),
        AffineZp(ZpApprox.from_int(5, 3, 6), ZpApprox.from_int(1, 3, 6)),
        AffineQp(QpApprox(p3, -1, (1, 0, 2)), QpApprox(p3, 0, (2, 1, 0))),
        GaModZp(QpApprox(p2, -1, (1, 0))),
        Substitution(p2, ((0, 1), (0,))),
        TableMap(random_table(rng, 2, ScalingClass(2, 1), 3)),
        MahlerMap(mahler_coefficients(ShiftPower(p2, 1), 4, 6)),
        Compose((ShiftPower(p2, 1), Substitution(p2, ((0, 1), (0,))))),
    ]
    for spec in specs:
        text = dumps_spec(spec)
        again = loads_spec(text)
        assert again == spec
        assert dumps_spec(again) == text  # byte-stable


def test_table_sup_distance():
    rng = random.Random(37)
    base = table_from_spec(ShiftPower(Prime(2), 2))
    assert table_sup_distance_exponent(base, base, 6) is None
    g = perturb_table(rng, base, first_digit=2, depth=6)
    i0 = table_sup_distance_exponent(base, g, 6)
    assert i0 is not None and i0 >= 2


def _refuse(*args, **kwargs):
    raise AssertionError("enumeration started before the budget check")


def test_table_builders_refuse_over_budget(monkeypatch):
    # sum_{i<30} 2^arity(i) entries is far over the budget: each builder
    # refuses before its first rng draw and its first digit read
    shift = table_from_spec(ShiftPower(Prime(2), 1))
    depth = 30
    assert sum(2**shift.arity(i) for i in range(depth)) > ENTRY_BUDGET
    rng = random.Random(5)
    state = rng.getstate()
    monkeypatch.setattr(DigitFunctionTable, "digit_value", _refuse)
    for call in (lambda: random_table(rng, 2, shift.klass, depth),
                 lambda: perturb_table(rng, shift, first_digit=depth, depth=depth + 1),
                 lambda: table_sup_distance_exponent(shift, shift, depth)):
        with pytest.raises(PrecisionError, match="over the budget"):
            call()
        assert rng.getstate() == state


def test_mahler_coefficients_refuse_bad_term_counts(monkeypatch):
    # a_0..a_terms take (terms+1)(terms+2)/2 binomial-sum terms; over the
    # budget is refused before the map is evaluated once
    terms = math.isqrt(2 * ENTRY_BUDGET)
    assert (terms + 1) * (terms + 2) // 2 > ENTRY_BUDGET
    monkeypatch.setattr(ShiftPower, "apply", _refuse)
    shift = ShiftPower(Prime(2), 1)
    with pytest.raises(PrecisionError, match="over the budget"):
        mahler_coefficients(shift, terms, 8)
    with pytest.raises(ValueError, match="terms >= 0"):
        mahler_coefficients(shift, -1, 8)


# S^m, T_j and R as digit-tuple slicing: the definitions the integer maps
# replaced, kept here as their reference
def _sliced_shift(p, m, d):
    if len(d) <= m:
        raise PrecisionError(f"need more than {m} digits to shift by {m}")
    return ZpApprox(p, d[m:])


def _sliced_tj(p, m, j, d):
    n_out = max(min(len(d), j), len(d) - m)
    if n_out < 1:
        raise PrecisionError("not enough digits for T_j")
    return ZpApprox(p, tuple(d[i] if i < j else d[m + i] for i in range(n_out)))


def _sliced_r(p, m, d):
    if len(d) <= m:
        raise PrecisionError("not enough digits for R")
    if d[0] != p - 1:
        return ZpApprox(p, d[m:])
    return _sliced_tj(p, m, 1, d)


def _outcome(f, x):
    try:
        return f(x)
    except Exception as exc:
        return type(exc)


def test_integer_maps_match_digit_slicing():
    # every input while p^n <= 3^8 (all of p = 2 and 3), a seeded sample of
    # 1000 above it: p = 5 at 6..8 digits in full is about 9 million checks
    rng = random.Random(17)
    for p in map(Prime, (2, 3, 5)):
        pairs = []
        for m in (1, 2, 3):
            pairs.append((ShiftPower(p, m).apply, lambda d, m=m: _sliced_shift(p, m, d)))
            pairs.append((Rmap(p, m).apply, lambda d, m=m: _sliced_r(p, m, d)))
            pairs += [(Tj(p, m, j).apply, lambda d, m=m, j=j: _sliced_tj(p, m, j, d))
                      for j in range(4)]
        for n in range(1, 9):
            values = range(p**n) if p**n <= 3**8 else rng.sample(range(p**n), 1000)
            for v in values:
                x, d = ZpApprox.from_int(v, p, n), _decode(v, p, n)
                for apply, sliced in pairs:
                    assert _outcome(apply, x) == _outcome(sliced, d), (apply, d)


def test_eval_domain_mismatch():
    with pytest.raises(PadicError):
        ShiftPower(Prime(2), 1).apply(QpApprox(2, -1, (1, 0, 1)))
    a = QpApprox(3, -1, (1, 0, 0))
    with pytest.raises(PadicError):
        AffineQp(a, QpApprox(3, 0, (0, 0, 0))).apply(ZpApprox(3, (1, 2)))
    with pytest.raises(PadicError):
        ShiftPower(Prime(2), 1).apply(ZpApprox(3, (1, 2, 0)))


def test_eval_insufficient_precision():
    rng = random.Random(41)
    table = random_table(rng, 2, ScalingClass(3, 1), 4)
    with pytest.raises(PrecisionError):
        table.apply(ZpApprox(2, (1, 0)))


def test_bounded_depth_eval_caps_output():
    rng = random.Random(43)
    table = random_table(rng, 2, ScalingClass(1, 1), 3, tail_projection=False)
    y = table.apply(ZpApprox(2, (1, 0, 1, 1, 0, 1, 1, 0)))
    assert y.precision == 3
