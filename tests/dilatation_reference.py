"""The full-sweep dilatation shadow: a reference for the sweep that skips.

``shadow_dilatation`` recomputes entry n of a sweep only when entry n+1
changed in the sweep before, on digit windows, and certifies its point by
walking the maps' ``output_window`` kernel.  This is the loop it replaced,
kept as the tests' reference: every sweep applies g^-1 to every entry of
the forward window again and compares the whole new sequence with the old
one, on ``QpApprox`` objects with the object arithmetic of
``qp_reference``, and the point is certified by its own copy of the object
walk (``apply`` plus distance).  The module is not collected by pytest (no
``test_`` prefix); test modules import it by name, since pytest puts their
own directory on ``sys.path``.
"""

from padicdyn.core import PadicError, PrecisionError, QpApprox, pnorm_max
from padicdyn.shadowing import CertificationError, ShadowResult, certify_expansion
from qp_reference import addsub, distance, norm, reference_apply


def object_certified(f, f_inv, point, orbit, bound: int, solver: str,
                     details: dict, error: type) -> ShadowResult:
    """The certificate walk as it ran on value objects: ``apply`` forward for
    n = 0..end_index and backward for n = -1..start_index, each distance
    against p^-bound as it is computed."""
    p = orbit.prime
    dists = {}
    for g, steps in ((f, range(orbit.end_index + 1)),
                     (f_inv, range(-1, orbit.start_index - 1, -1))):
        cur = point
        for n in steps:
            if n:
                cur = reference_apply(g, cur)
            d = dists[n] = distance(orbit.point(n), cur)
            if d.gt_pow(bound):
                internal = "internal: " if error is PadicError else ""
                raise error(f"{internal}{solver} shadow violates {p}^-{bound} "
                            f"at step {n}: {d.describe(p)}")
    ordered = tuple(dists[n] for n in range(orbit.start_index, orbit.end_index + 1))
    return ShadowResult(point, pnorm_max(ordered), ordered, orbit.start_index,
                        solver, details)


def full_sweep_dilatation(g, orbit, *, max_iterations: int | None = None):
    """:func:`padicdyn.shadowing.shadow_dilatation`, every entry every sweep."""
    k = certify_expansion(g)
    if k < 1:
        raise CertificationError(f"not a dilatation: certified constant p^{k}")
    g_inv = g.inverse_spec()
    p = g.prime
    eps_exp = orbit.certified_delta.exponent
    fwd_last = orbit.end_index
    width = max(x.width for x in orbit.points)
    zero = QpApprox(p, eps_exp, (0,) * width)
    ys = [zero] * (fwd_last + 1)

    correction_exponents = []
    iterations = 0
    converged = False
    sweeps = fwd_last + 1 if max_iterations is None else max_iterations
    while iterations < sweeps:
        new = []
        for n in range(fwd_last + 1):
            if n + 1 <= fwd_last:
                val = addsub(reference_apply(g_inv, addsub(orbit.point(n + 1), ys[n + 1], 1)),
                             orbit.point(n), -1)
            else:
                val = zero
            if norm(val).gt_pow(eps_exp):
                raise CertificationError(
                    f"Phi left the epsilon ball at index {n}: the certified "
                    f"expansion constant is violated")
            new.append(val)
        corr = pnorm_max(distance(a, b) for a, b in zip(ys, new))
        fixed = all(u == v for u, v in zip(ys, new))
        ys = new
        iterations += 1
        if corr.exact:
            if correction_exponents and corr.exponent < correction_exponents[-1] + k:
                raise CertificationError(
                    f"correction decayed by less than p^-{k}: "
                    f"{correction_exponents[-1]} -> {corr.exponent}")
            correction_exponents.append(corr.exponent)
        floor = max(v.window_end for v in ys)
        if (fixed or iterations >= fwd_last + 1
                or eps_exp + k * (iterations + 1) >= floor):
            converged = True
            break
    if not converged:
        raise PrecisionError(f"sweep budget of {sweeps} exhausted before convergence")
    return object_certified(
        g, g_inv, addsub(orbit.point(0), ys[0], 1), orbit, eps_exp, "dilatation",
        {"expansion_exponent": k, "iterations": iterations, "converged": converged,
         "correction_exponents": tuple(correction_exponents)}, PadicError)
