"""Object-arithmetic Q_p evaluation: the reference for the digit-window rules.

``QpApprox`` arithmetic, every Q_p map's ``output_window`` kernel and the
qp-affine conjugacy's h now compute on digit windows (v, n, X) with the
rules in ``padicdyn.core``.  These are the bodies they had before, on
``QpApprox`` objects: add and subtract, multiply after normalizing,
``AffineQp.apply`` as a * x + b, a composition applying its parts in turn,
and the h of ``conjugacy._qp_affine_h`` walking value objects.  The tests
check that every window computation gives the same window or the same
refusal.  The module is not collected by pytest (no ``test_`` prefix); test
modules import it by name, since pytest puts their own directory on
``sys.path``.
"""

from padicdyn.core import (PNorm, PrecisionError, PrimeMismatch, QpApprox, _val,
                           inverse_unit, mod_zp)
from padicdyn.maps import AffineQp, Compose
from padicdyn.shadowing import CertificationError, certify_expansion


def _same_prime(x, y):
    if x.prime != y.prime:
        raise PrimeMismatch(f"primes {x.prime} and {y.prime}")
    return x.prime


def addsub(x: QpApprox, y: QpApprox, sign: int) -> QpApprox:
    """``x + sign * y`` as ``QpApprox._addsub`` computed it."""
    p = _same_prime(x, y)
    sv, ov = x.valuation_offset, y.valuation_offset
    v = min(sv, ov)
    n = min(sv + x.width, ov + y.width) - v
    if n <= 0:
        raise PrecisionError("empty overlap of Q_p windows")
    a = x.value * p ** min(sv - v, n)
    b = y.value * p ** min(ov - v, n)
    return QpApprox._of(p, v, n, (a + sign * b) % p**n)


def normalize(x: QpApprox) -> QpApprox:
    p = x.prime
    if x.value % p or not x.value:
        return x
    i = _val(x.value, p, 0)
    return QpApprox._of(p, x.valuation_offset + i, x.width - i, x.value // p**i)


def mul(x: QpApprox, y: QpApprox) -> QpApprox:
    """``x * y`` as ``QpApprox.__mul__`` computed it."""
    p = _same_prime(x, y)
    a, b = normalize(x), normalize(y)
    v, n = a.valuation_offset + b.valuation_offset, min(a.width, b.width)
    return QpApprox._of(p, v, n, a.value * b.value % p**n)


def norm(x: QpApprox) -> PNorm:
    return PNorm(x.valuation_offset + _val(x.value, x.prime, x.width), exact=x.value != 0)


def distance(x: QpApprox, y: QpApprox) -> PNorm:
    return norm(addsub(x, y, -1))


def reference_apply(spec, x):
    """``spec`` applied to ``x`` as its class's old ``apply`` computed it;
    any other map (a Z_p part, a test double) through its own ``apply``."""
    if type(spec) is AffineQp:
        spec._check_domain(x)
        return addsub(mul(spec.a, x), spec.b, 1)
    if type(spec) is Compose and spec.domain == "qp":
        for part in spec.parts:
            x = reference_apply(part, x)
        return x
    return spec.apply(x)


def reference_h(g, horizon: int):
    """The h of ``conjugacy._qp_affine_h`` as it walked value objects."""
    k = certify_expansion(g)
    if k == 0:
        raise CertificationError("||a|| = 1 is not an exact dilation or contraction")
    fact = g.affine()
    if fact is None:
        raise PrecisionError("the qp-affine conjugacy needs a map that states z -> az + b")
    K = abs(k)
    p = g.prime
    a, b = fact
    translation = None
    if b.value:
        one = QpApprox.from_int(1, p, max(a.width, b.width))
        translation = mul(inverse_unit(addsub(one, a, -1)), b)
    a_inv = inverse_unit(a)
    if k > 0:
        fwd_step, bwd_step = (lambda z: mul(a, z)), (lambda z: mul(a_inv, z))
    else:
        fwd_step, bwd_step = (lambda z: mul(a_inv, z)), (lambda z: mul(a, z))
    q = p**K

    def h(x: QpApprox) -> QpApprox:
        if translation is not None:
            x = addsub(x, translation, -1)
        blocks = {}
        cur = x
        j = 0
        while j <= horizon and cur.window_end >= K:
            blocks[j] = mod_zp(cur).value % q
            cur = fwd_step(cur)
            j += 1
        if not blocks:
            raise PrecisionError("window too short to read even the 0-th block")
        j_max = max(blocks)

        cur = x
        j = 0
        while True:
            cur = bwd_step(cur)
            j -= 1
            if norm(cur).leq_pow(K):
                break
            if j < -horizon:
                raise CertificationError(
                    "backward blocks did not vanish within the horizon budget")
            if cur.window_end < K:
                raise PrecisionError("window too short to read a backward block")
            blocks[j] = mod_zp(cur).value % q
        j_min = min(blocks)

        value = sum(block * q ** (jj - j_min) for jj, block in blocks.items())
        return normalize(QpApprox.from_int(value, p, (j_max - j_min + 1) * K, j_min * K))

    return h
