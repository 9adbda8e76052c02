"""The conjugacy pairs as the CLI built them: the reference for the pairs the
constructors state.

Each constructor's ``ConjugacyMap`` now carries the pair f, g with
f∘h = h∘g, and the two helper maps are module-level records in
``conjugacy`` that state the Z_p kernel ``output_value``.  These are the
bodies they replaced: the four pair-building branches of
``cli.cmd_conjugate``, with the affine-shell target z -> a z + psi(z) as a
class with its own ``apply``, and the normalized psi
u -> psi(u + z*) - psi(z*) that ``affine_shell_conjugacy_map`` defined
inside its body.  The tests check that each record and each stated pair
gives the same values, precisions and refusals.  The module is not
collected by pytest (no ``test_`` prefix); test modules import it by name,
since pytest puts their own directory on ``sys.path``.
"""

from padicdyn.core import PrecisionError, QpApprox, ZpApprox
from padicdyn.maps import AffineQp, AffineZp, MapSpec, ShiftPower


def to_shift_pair(spec, table):
    if table.klass.m != table.klass.k:
        raise PrecisionError("to-shift needs a class (k,k) map")
    return ShiftPower(spec.prime, table.klass.k), table


def nearby_pair(f_t, g_t):
    return f_t, g_t


def affine_shell_pair(spec, a):
    class _Perturbed(MapSpec):
        prime = spec.prime

        def apply(self, z):
            az = a if a.precision <= z.precision else a.truncate(z.precision)
            return az * z + spec.apply(z)

    return _Perturbed(), AffineZp(a, ZpApprox.from_int(0, spec.prime, a.precision))


def qp_affine_pair(spec, cm):
    k = cm.details["dilation_exponent"]
    width = spec.affine()[0].width
    f_map = AffineQp(
        QpApprox(spec.prime, -k, (1,) + (0,) * (width - 1)),
        QpApprox(spec.prime, max(4 * abs(k), 16), (0,) * width))
    return f_map, spec


def normalized(psi, z_g):
    """``affine_shell_conjugacy_map``'s psi moved to the fixed point z_g."""
    class _Normalized(MapSpec):
        prime = z_g.prime

        def apply(self, u):
            zg = z_g if z_g.precision <= u.precision else z_g.truncate(u.precision)
            return psi.apply(u + zg) - psi.apply(zg)

        def min_input_precision(self, n_out):
            return psi.min_input_precision(n_out)

    return _Normalized()
