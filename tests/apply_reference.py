"""Object-arithmetic evaluation of every Z_p spec class: the reference for
the integer kernels.

Each Z_p spec class in ``padicdyn.maps`` states ``output_value(x, n)``, its
output at the residue x mod p^n as an integer and a length, and ``apply``
is defined once on top of it.  These are the ``apply`` bodies the classes
had before: shifts, T_j and R slice the input's integer, affine maps run
``ZpApprox``/``QpApprox`` arithmetic, a substitution concatenates digit
words, a table refuses the precisions that give no output digit and then
takes its digit streams' forward step, and a composition applies its
parts in turn.  The tests check that every kernel gives the same value,
precision and refusal.  The module is not collected by pytest (no
``test_`` prefix); test modules import it by name, since pytest puts
their own directory on ``sys.path``.
"""

from padicdyn.core import PrecisionError, QpApprox, ZpApprox, mod_zp
from padicdyn.mahler import mahler_eval
from padicdyn.maps import (
    AffineZp,
    Compose,
    DepthExhausted,
    DigitFunctionTable,
    GaModZp,
    MahlerMap,
    Rmap,
    ShiftPower,
    Substitution,
    Tj,
)


def _shift(spec, x):
    if x.precision <= spec.m:
        raise PrecisionError(f"need more than {spec.m} digits to shift by {spec.m}")
    return ZpApprox._of(x.prime, x.precision - spec.m, x.value // x.prime**spec.m)


def _tj(spec, x):
    p, j = x.prime, spec.j
    n_out = max(min(x.precision, j), x.precision - spec.m)
    if n_out < 1:
        raise PrecisionError("not enough digits for T_j")
    if n_out <= j:
        return ZpApprox._of(p, n_out, x.value % p**n_out)
    return ZpApprox._of(p, n_out, x.value % p**j + x.value // p**(spec.m + j) * p**j)


def _rmap(spec, x):
    if x.precision <= spec.m:
        raise PrecisionError("not enough digits for R")
    if x.value % spec.prime != spec.prime - 1:
        return ZpApprox._of(x.prime, x.precision - spec.m, x.value // x.prime**spec.m)
    return _tj(Tj(spec.prime, spec.m, 1), x)


def _substitution(spec, x):
    out = []
    for d in x.digits:
        out.extend(spec.rules[d])
    return ZpApprox(x.prime, tuple(out))


def _table(table, x):
    n, k, m = x.precision, table.klass.k, table.klass.m
    if n < k or n <= m:
        raise PrecisionError(
            f"precision {n} cannot determine any output digit of a "
            f"({table.prime}^-{k}, {table.prime}^{m}) table map"
        )
    if not (table.tail_projection or table.stored_depth):
        raise DepthExhausted("table depth exhausted before the first digit")
    y, n = table.level_value(x.value, n)
    return ZpApprox._of(table.prime, n, y)


def _compose(spec, x):
    for part in spec.parts:
        x = reference_apply(part, x)
    return x


_BODIES = {
    ShiftPower: _shift,
    Tj: _tj,
    Rmap: _rmap,
    AffineZp: lambda spec, x: spec.a * x + spec.b,
    GaModZp: lambda spec, x: mod_zp(spec.a * QpApprox.from_zp(x)),
    Substitution: _substitution,
    DigitFunctionTable: _table,
    MahlerMap: lambda spec, x: mahler_eval(spec.series, x),
    Compose: _compose,
}


def reference_apply(spec, x: ZpApprox) -> ZpApprox:
    """``spec`` applied to ``x`` as its class's old ``apply`` computed it."""
    spec._check_domain(x)
    return _BODIES[type(spec)](spec, x)
