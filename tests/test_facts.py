"""Map facts agree with the extraction and sampling fallbacks they bypass."""

import random

import pytest

import padicdyn
from padicdyn import conjugacy, maps, shadowing
from padicdyn.conjugacy import qp_affine_conjugacy_map
from padicdyn.core import PadicError, PrecisionError, Prime, QpApprox, ZpApprox, distance
from padicdyn.maps import (
    AffineQp,
    AffineZp,
    Compose,
    GaModZp,
    MahlerMap,
    MapSpec,
    Rmap,
    ScalingClass,
    ShiftPower,
    Substitution,
    TableMap,
    Tj,
    extract_table,
    mahler_coefficients,
    random_table,
    table_sup_distance_exponent,
)
from padicdyn.oracle import brute_fixed_point_count
from padicdyn.shadowing import (
    _sampled_contraction,
    certify_expansion,
    certify_one_lipschitz,
    perturb_orbit,
    shadow_dilatation,
)
from scaling_reference import sampled_expansion


class _Opaque(MapSpec):
    """A spec seen only through prime, domain, apply, output_value and
    min_input_precision, so every caller takes its fallback route."""

    def __init__(self, spec):
        self.prime, self.domain = spec.prime, spec.domain
        self.apply, self.min_input_precision = spec.apply, spec.min_input_precision
        self.output_value = spec.output_value


P2, P3 = Prime(2), Prime(3)


def _qp(p, v, digits, width=16):
    return QpApprox(p, v, tuple(digits) + (0,) * (width - len(digits)))


def _zp(value, p, n=12):
    return ZpApprox.from_int(value, p, n)


AFFINE_QP_EXPANDING = AffineQp(_qp(P3, -1, (2,)), _qp(P3, 0, (1, 2)))
AFFINE_QP_CONTRACTING = AffineQp(_qp(P2, 2, (1, 1)), _qp(P2, 0, (1,)))

# one spec of every class, with the facts its definition proves
CASES = [
    (ShiftPower(P2, 2), {"klass", "table", "count"}),
    (Tj(P3, 1, 1), {"klass", "table", "count"}),
    (Tj(P2, 2, 0), {"klass", "table", "count"}),
    (Rmap(P2, 2), {"klass", "table", "count"}),
    (TableMap(random_table(random.Random(3), P2, ScalingClass(2, 1), 4)),
     {"klass", "table"}),
    (GaModZp(_qp(P2, -2, (1, 1))), {"klass"}),
    (GaModZp(_qp(P3, 1, (2,))), {"lipschitz", "contraction"}),
    (Substitution(P2, ((0, 1), (0,))), {"lipschitz", "contraction"}),
    (AffineZp(_zp(6, P3), _zp(5, P3)), {"lipschitz", "contraction"}),
    (MahlerMap(mahler_coefficients(AffineZp(_zp(3, P3), _zp(1, P3)), 4, 8)),
     {"lipschitz", "contraction"}),
    (Compose((Substitution(P2, ((1,), (0,))), AffineZp(_zp(2, P2), _zp(1, P2)))),
     {"lipschitz", "contraction"}),
    (AFFINE_QP_EXPANDING, {"expansion", "inverse", "affine"}),
    (AFFINE_QP_CONTRACTING, {"expansion", "inverse", "affine"}),
    (Compose((AFFINE_QP_EXPANDING, AffineQp(_qp(P3, -2, (1,)), _qp(P3, 0, ())))),
     {"expansion", "inverse", "affine"}),
]


@pytest.mark.parametrize("spec, facts", CASES,
                         ids=[f"{type(s).__name__}-{i}" for i, (s, _) in enumerate(CASES)])
def test_facts_agree_with_fallbacks(spec, facts):
    opaque = _Opaque(spec)
    p = int(spec.prime)
    assert (spec.klass is not None) == ("klass" in facts)
    if "klass" in facts:
        # extraction verifies the claimed class against direct evaluation
        extracted = extract_table(opaque, spec.klass, 4)
    if "table" in facts:
        assert table_sup_distance_exponent(spec.structural_table(), extracted, 4) is None
    else:
        assert spec.structural_table() is None
    if "count" in facts:
        if isinstance(spec, Rmap):
            # pinned to its stated formula, which over-counts (see the README)
            m = spec.m
            assert spec.closed_form(1) == p ** (m - 1) * (p - 1) + p ** (m + 1)
        else:
            assert spec.closed_form(1) == brute_fixed_point_count(
                opaque, p, spec.klass.k + 3)
    else:
        assert spec.closed_form(1) is None
    if "lipschitz" in facts:
        assert spec.lipschitz_route(None).startswith(("structural:", "mahler-"))
        assert certify_one_lipschitz(opaque) == "sampled:256"
    if "contraction" in facts:
        # the contraction certificate is named by the map's Lipschitz route
        assert "lipschitz" in facts
        # sampled pairs contract by at least the stated exponent
        assert _sampled_contraction(opaque, spec.contraction_exponent(), 64, 10, 0)
    else:
        assert spec.contraction_exponent() is None
    if "affine" in facts:
        a, b = spec.affine()
        rng = random.Random(p)
        for _ in range(20):
            x = QpApprox(spec.prime, rng.randrange(-2, 2),
                         tuple(rng.randrange(p) for _ in range(12)))
            assert not distance(a * x + b, spec.apply(x)).exact
    else:
        assert spec.affine() is None
    if "expansion" in facts:
        assert spec.expansion_exponent() == sampled_expansion(opaque)
    else:
        assert spec.expansion_exponent() is None
    if "inverse" in facts:
        inv = spec.inverse_spec()
        rng = random.Random(p)
        for _ in range(20):
            x = QpApprox(spec.prime, rng.randrange(-2, 2),
                         tuple(rng.randrange(p) for _ in range(12)))
            assert not distance(inv.apply(spec.apply(x)), x).exact
    else:
        with pytest.raises(PadicError, match="no exact inverse available"):
            spec.inverse_spec()


def test_a_plain_spec_states_no_fact():
    opaque = _Opaque(ShiftPower(P2, 1))
    assert opaque.klass is None
    assert opaque.structural_table() is None
    assert opaque.closed_form(1) is None
    assert opaque.lipschitz_route(None) is None
    assert opaque.expansion_exponent() is None
    assert opaque.contraction_exponent() is None
    assert opaque.affine() is None
    with pytest.raises(PadicError, match="no exact inverse available for _Opaque"):
        opaque.inverse_spec()


def test_compose_certifies_parts_without_facts_by_the_fallback():
    # the opaque part has no route, so it is sampled on its own; an opaque
    # Q_p part states no expansion exponent, so neither does the composition
    sub = _Opaque(Substitution(P2, ((1,), (0,))))
    comp = Compose((sub, AffineZp(_zp(2, P2), _zp(1, P2))))
    seen = []

    def sample(part):
        seen.append(part)
        return _sampled_contraction(part, 0, 64, 10, 0)

    assert comp.lipschitz_route(sample) == "structural:composition"
    assert seen == [sub]
    qcomp = Compose((_Opaque(AFFINE_QP_EXPANDING),
                     AffineQp(_qp(P3, -2, (1,)), _qp(P3, 0, ()))))
    with pytest.raises(PrecisionError, match="states no exact expansion constant"):
        certify_expansion(qcomp)
    assert qcomp.expansion_exponent() is None


def test_a_q_p_map_without_a_stated_constant_is_refused():
    # sample pairs cannot certify an exact constant, so the dilatation
    # solver and the qp-affine conjugacy refuse a map that states none
    opaque = _Opaque(AFFINE_QP_EXPANDING)
    orbit = perturb_orbit(AFFINE_QP_EXPANDING, _qp(P3, -1, (1, 2)), 2, 3, seed=0)
    for refused in (lambda: certify_expansion(opaque),
                    lambda: shadow_dilatation(opaque, orbit),
                    lambda: qp_affine_conjugacy_map(opaque, 4)):
        with pytest.raises(PrecisionError, match="states no exact expansion constant"):
            refused()


def test_compose_lipschitz_reports_a_failing_part():
    expanding = GaModZp(_qp(P2, -1, (1,)))
    with pytest.raises(maps.CertificationError, match="g_a may expand"):
        certify_one_lipschitz(Compose((Substitution(P2, ((0,), (1,))), expanding)))


def test_delta_exponent_is_the_shadowing_modulus():
    for k, m in ((3, 1), (2, 2), (4, 3)):
        klass = ScalingClass(k, m)
        for s in range(3):
            assert klass.delta_exponent(s) == ((k - m + s) if m < k else (k + s))


def test_every_public_name_resolves():
    for name in padicdyn.__all__:
        assert getattr(padicdyn, name) is not None, name
    assert shadowing.CertificationError is maps.CertificationError
    assert conjugacy.CertificationError is maps.CertificationError
    for gone in ("scaling_class_of", "invert_spec", "_two_sided_distances",
                 "_sampled_expansion"):
        assert not hasattr(maps, gone) and not hasattr(shadowing, gone), gone
    assert not hasattr(AffineQp, "scaling_exponent")
    assert not hasattr(QpApprox, "shift")
