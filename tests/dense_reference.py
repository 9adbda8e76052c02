"""Dense iterate tables: an independent reference route to f^n.

The library counts periodic points on the solver's digit streams and never
tabulates f^n.  The tests compare those counts with this dense route: the
digit functions of every iterate level, built as whole tables.  The module
is not collected by pytest (no ``test_`` prefix); test modules import it by
name, since pytest puts their own directory on ``sys.path``.
"""

from padicdyn.core import ZpApprox
from padicdyn.maps import DepthExhausted, DigitFunctionTable, ScalingClass, _decode


def iterate_table(base: DigitFunctionTable, n: int, depth: int) -> DigitFunctionTable:
    """Materialize the digit functions of the n-th iterate.

    The iterate of a (p^-k, p^m) map is (p^-(nm+l), p^(nm)) locally scaling
    with the same head count l.  Built level by level: the digit functions
    of f^(j+1) are the base functions applied to the realized functions of
    f^j, evaluated on exactly the digits the composed arity provides.
    Bijectivity on the last variable is re-verified by construction of each
    level's table.
    """
    if n < 1:
        raise ValueError("iterate count must be >= 1")
    k, m, l = base.klass.k, base.klass.m, base.klass.l
    p = base.prime
    cur = base
    for step in range(2, n + 1):
        K = step * m + l
        want = depth + (n - step) * m
        if base.tail_projection and want >= base.stored_depth:
            # the composed tail is a projection exactly where the base tail is
            stored, proj = max(base.stored_depth, l), True
        else:
            stored, proj = want, False
            if not base.tail_projection and base.stored_depth < stored:
                raise DepthExhausted(
                    f"base depth {base.stored_depth} cannot support iterate depth {depth}"
                )
        tables = []
        for i in range(stored):
            a = K if i < l else K - l + i + 1
            base_arity = k if i < l else k - l + i + 1
            entries = []
            for idx in range(p**a):
                z = cur.apply(ZpApprox._of(p, a, idx))
                if z.precision < base_arity:
                    raise DepthExhausted(
                        f"iterate level {step} needs {base_arity} digits of the previous "
                        f"level, got {z.precision}"
                    )
                entries.append(base.digit_value(i, z.value % p**base_arity))
            tables.append(tuple(entries))
        cur = DigitFunctionTable(p, ScalingClass(K, step * m), tuple(tables),
                                 tail_projection=proj)
    return cur


def fixed_seeds(table: DigitFunctionTable) -> tuple:
    """The seeds (first k digits) of the fixed points, read off the dense
    head functions: x is admissible when digit function i < l maps x to x_i."""
    p, k, l = table.prime, table.klass.k, table.klass.l
    return tuple(_decode(idx, p, k) for idx in range(p**k)
                 if all(table.tables[i][idx] == idx // p**i % p for i in range(l)))
