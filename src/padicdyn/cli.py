"""Command-line front end: experiment orchestration and report emission.

Subcommands: ``validate`` (scaling class + bijectivity), ``fixed-points``,
``shadow`` (solver selection), ``conjugate`` (constructor selection plus
verification), ``mahler`` (coefficients + 1-Lipschitz criterion), ``orbit``
(seeded pseudo-orbit generation), ``oracle`` (brute-force cross-checks).

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 verification failure, 5 internal error.  Reports are JSON with sorted
keys and no timestamps, so identical configurations and seeds produce
byte-identical files.  All randomness comes from explicitly seeded
mt19937 generators, recorded in the report header.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .analysis import (
    ScalingClass,
    fixed_points,
    periodic_points,
    verify_scaling,
)
from .conjugacy import (
    affine_shell_conjugacy_map,
    check_horizon_digits,
    nearby_conjugacy,
    qp_affine_conjugacy_map,
    shift_conjugacy,
    verify_conjugacy,
)
from .core import (
    PadicError,
    PrecisionError,
    Prime,
    PrimeMismatch,
    QpApprox,
    ZeroAtPrecision,
    ZpApprox,
    encode_value,
    parse_value,
)
from .maps import (
    AffineQp,
    BijectivityViolation,
    DepthExhausted,
    InconsistentScaling,
    MapSpec,
    ShiftPower,
    AffineZp,
    extract_table,
    load_spec,
    mahler_coefficients,
    table_from_spec,
)
from .mahler import one_lipschitz_report
from .oracle import brute_fixed_point_count, brute_shadow_points
from .shadowing import (
    CertificationError,
    ConstraintUnsolvable,
    PseudoOrbit,
    load_orbit_points,
    perturb_orbit,
    save_orbit,
    shadow_affine_qp,
    shadow_dilatation,
    shadow_lipschitz,
    shadow_locally_scaling,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4
EXIT_INTERNAL = 5


class VerificationFailure(Exception):
    """Raised by subcommands when a requested verification does not pass."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_map(path: str) -> MapSpec:
    try:
        return load_spec(path)
    except FileNotFoundError:
        raise
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise _ParseFailure(f"cannot parse map spec {path}: {exc}") from exc


def _load_orbit(path: str):
    try:
        return load_orbit_points(path)
    except ValueError as exc:
        raise _ParseFailure(f"cannot parse orbit file {path}: {exc}") from exc


class _ParseFailure(Exception):
    pass


def _rng_header(seed: int | None) -> dict:
    return {"algorithm": "mt19937", "seed": seed}


def cmd_validate(args) -> dict:
    if (args.k is None) != (args.m is None):
        raise _ParseFailure("--k and --m go together: pass both or neither")
    spec = _load_map(args.map)
    klass = ScalingClass(args.k, args.m) if args.k is not None else spec.klass
    if klass is None:
        raise PrecisionError("no scaling class known for this map; pass --k/--m")
    depth = args.depth if args.depth is not None else max(klass.l + 1, 4)
    table = extract_table(spec, klass, depth)  # bijectivity + arity consistency
    report = verify_scaling(spec, klass, args.precision, seed=args.seed or 0)
    out = {
        "command": "validate",
        "map": args.map,
        "bijectivity": "ok",
        "extracted_depth": table.stored_depth,
        "scaling": report.as_dict(int(spec.prime)),
        "rng": _rng_header(args.seed or 0),
    }
    if not report.verified:
        raise VerificationFailure("scaling class not verified", out)
    return out


def cmd_fixed_points(args) -> dict:
    spec = _load_map(args.map)
    report = periodic_points(spec, args.iterate, precision=args.precision)
    out = {
        "command": "fixed-points",
        "map": args.map,
        "report": report.as_dict(int(spec.prime)),
        "modulus": {
            "k": report.klass.k,
            "m": report.klass.m,
            "pairs": [{"s": s, "epsilon_exponent": report.klass.k + s,
                       "delta_exponent": report.klass.delta_exponent(s)}
                      for s in range(4)],
        },
    }
    if report.closed_form is not None and report.count != report.closed_form:
        raise VerificationFailure(
            f"count {report.count} differs from the closed form {report.closed_form}",
            out)
    return out


def _auto_solver(spec: MapSpec) -> str:
    if spec.affine() is not None:
        return "affine-qp"
    if spec.contraction_exponent() is not None:
        return "lipschitz"
    return "scaling"


def cmd_shadow(args) -> dict:
    spec = _load_map(args.map)
    points, start, header = _load_orbit(args.orbit)
    orbit = PseudoOrbit.from_map(spec, points, start)
    solver = args.solver if args.solver != "auto" else _auto_solver(spec)
    if solver == "scaling":
        table = table_from_spec(spec, depth=args.depth)
        result = shadow_locally_scaling(table, orbit, args.s)
    elif solver == "lipschitz":
        result = shadow_lipschitz(spec, orbit)
    elif solver == "affine-qp":
        fact = spec.affine()
        if fact is None:
            raise PrecisionError("the affine-qp solver needs a map that states z -> az + b")
        result = shadow_affine_qp(*fact, orbit)
    elif solver == "dilatation":
        result = shadow_dilatation(spec, orbit)
    else:
        raise _ParseFailure(f"unknown solver {solver}")
    p = int(spec.prime)
    return {
        "command": "shadow",
        "map": args.map,
        "orbit": args.orbit,
        "orbit_header": header,
        "solver": result.solver,
        "certified_delta": orbit.certified_delta.describe(p),
        "epsilon": result.epsilon.describe(p),
        "point": encode_value(result.point),
        "start_index": result.start_index,
        "step_distances": [d.describe(p) for d in result.step_distances],
        "details": {k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in result.details.items()},
    }


def _sample_points(spec: MapSpec, n: int, precision: int, seed: int):
    if n < 0:
        raise ValueError(f"--samples must be >= 0, got {n}")
    rng = random.Random(seed)
    p = spec.prime
    if spec.domain == "qp":
        return [QpApprox(p, rng.randrange(-2, 2),
                         tuple(rng.randrange(p) for _ in range(precision)))
                for _ in range(n)]
    return [ZpApprox(p, tuple(rng.randrange(p) for _ in range(precision)))
            for _ in range(n)]


def cmd_conjugate(args) -> dict:
    spec = _load_map(args.map)
    p = int(spec.prime)
    if args.points:
        points = [parse_value(t.strip(), spec.domain)
                  for t in args.points.split(";") if t.strip()]
    else:
        points = _sample_points(spec, args.samples, args.precision, args.seed or 0)
    constructor = args.constructor
    if constructor == "to-shift":
        table = table_from_spec(spec, depth=args.depth)
        if table.klass.m != table.klass.k:
            raise PrecisionError("to-shift needs a class (k,k) map")
        cm = shift_conjugacy(table)
        f_map, g_map = ShiftPower(spec.prime, table.klass.k), table
    elif constructor == "nearby":
        if not args.other:
            raise _ParseFailure("--other is required for the nearby constructor")
        other = _load_map(args.other)
        f_t = table_from_spec(spec, depth=args.depth)
        g_t = table_from_spec(other, depth=args.depth)
        # refuse short points before the sup-distance comparison, not after
        for x in points:
            check_horizon_digits(f_t.klass, args.horizon, args.s, x)
        cm = nearby_conjugacy(f_t, g_t, args.horizon, args.s)
        f_map, g_map = f_t, g_t
    elif constructor == "affine-shell":
        if not args.a:
            raise _ParseFailure("--a is required for the affine-shell constructor")
        a = parse_value(args.a, "zp")
        cm = affine_shell_conjugacy_map(a, spec)

        class _Perturbed(MapSpec):
            prime = spec.prime

            def apply(self, z):
                az = a if a.precision <= z.precision else a.truncate(z.precision)
                return az * z + spec.apply(z)

        # h conjugates the pure contraction to the perturbed map: h f = g h,
        # so the perturbed map is the verification target
        f_map = _Perturbed()
        g_map = AffineZp(a, ZpApprox.from_int(0, spec.prime, a.precision))
    elif constructor == "qp-affine":
        cm = qp_affine_conjugacy_map(spec, args.horizon)
        k = cm.details["dilation_exponent"]
        width = spec.affine()[0].width
        f_map = AffineQp(
            QpApprox(spec.prime, -k, (1,) + (0,) * (width - 1)),
            QpApprox(spec.prime, max(4 * abs(k), 16), (0,) * width))
        g_map = spec
    else:
        raise _ParseFailure(f"unknown constructor {constructor}")
    report = verify_conjugacy(cm, f_map, g_map, points)
    out = {
        "command": "conjugate",
        "map": args.map,
        "constructor": constructor,
        "details": cm.details,
        "isometry_status": cm.isometry,
        "values": [[encode_value(x), encode_value(cm(x))] for x in points],
        "verification": report.as_dict(p),
        "rng": _rng_header(args.seed or 0),
    }
    if not report.semiconjugacy_ok:
        raise VerificationFailure("semiconjugacy residual is nonzero", out)
    return out


def cmd_mahler(args) -> dict:
    spec = _load_map(args.map)
    series = mahler_coefficients(spec, args.terms, args.precision)
    report = one_lipschitz_report(series)
    return {
        "command": "mahler",
        "map": args.map,
        "terms": args.terms,
        "precision": args.precision,
        "coefficients": [encode_value(a) for a in series.coefficients],
        "one_lipschitz": report.as_dict(int(spec.prime)),
    }


def cmd_orbit(args) -> dict:
    spec = _load_map(args.map)
    start = parse_value(args.start, spec.domain)
    orbit = perturb_orbit(spec, start, args.delta_exp, args.steps, args.seed, args.back)
    save_orbit(orbit, args.out)
    return {
        "command": "orbit",
        "map": args.map,
        "out": args.out,
        "points": len(orbit.points),
        "certified_delta": orbit.certified_delta.describe(int(spec.prime)),
        "rng": _rng_header(args.seed),
    }


def cmd_oracle(args) -> dict:
    needs = {"fixed-points": ("map",), "shadow": ("map", "orbit")}
    for option in needs.get(args.oracle, ()):
        if getattr(args, option) is None:
            raise _ParseFailure(f"oracle {args.oracle} needs --{option}")
    if args.precision < 1:
        raise ValueError(f"oracle needs --precision >= 1, got {args.precision}")
    if args.oracle == "fixed-points":
        spec = _load_map(args.map)
        report = fixed_points(spec, precision=args.precision)
        brute = brute_fixed_point_count(
            table_from_spec(spec, depth=args.precision),
            int(spec.prime), args.precision)
        out = {
            "command": "oracle fixed-points",
            "map": args.map,
            "count": report.count,
            "brute_force": brute,
            "agree": report.count == brute,
        }
        if report.count != brute:
            raise VerificationFailure("fixed-point count disagrees with brute force", out)
        return out
    if args.oracle == "shadow":
        spec = _load_map(args.map)
        points, start, _ = _load_orbit(args.orbit)
        table = table_from_spec(spec, depth=args.precision)
        orbit = PseudoOrbit.from_map(table, points, start)
        result = shadow_locally_scaling(table, orbit, args.s)
        k, m = table.klass.k, table.klass.m
        sols = brute_shadow_points(table, points, k, m, args.s, args.precision)
        y = result.point
        n = min(args.precision, y.precision)
        agree = bool(sols) and all((yi - y.value) % spec.prime**n == 0 for yi in sols)
        out = {
            "command": "oracle shadow",
            "map": args.map,
            "orbit": args.orbit,
            "solver_point": encode_value(y),
            "solutions": len(sols),
            "agree": agree,
        }
        if not agree:
            raise VerificationFailure("solver disagrees with exhaustive search", out)
        return out
    if args.oracle == "arith":
        if args.samples < 0:
            raise ValueError(f"--samples must be >= 0, got {args.samples}")
        p = Prime(args.p)
        N = args.precision
        rng = random.Random(args.seed)
        mod = p**N
        checked = 0
        for _ in range(args.samples):
            xa, ya = rng.randrange(mod), rng.randrange(mod)
            x = ZpApprox.from_int(xa, p, N)
            y = ZpApprox.from_int(ya, p, N)
            if (x + y).to_int() != (xa + ya) % mod:
                raise VerificationFailure("add disagrees with integer oracle", {})
            prod = x * y
            if prod.truncate(N).to_int() != (xa * ya) % mod:
                raise VerificationFailure("mul disagrees with integer oracle", {})
            checked += 1
        return {
            "command": "oracle arith",
            "p": int(p),
            "precision": N,
            "pairs_checked": checked,
            "agree": True,
            "rng": _rng_header(args.seed),
        }
    raise _ParseFailure(f"unknown oracle {args.oracle}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicdyn",
        description="Exact-arithmetic shadowing, conjugacy and fixed-point "
                    "tools for p-adic dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="verify a scaling class and bijectivity")
    pv.add_argument("--map", required=True)
    pv.add_argument("--k", type=int)
    pv.add_argument("--m", type=int)
    pv.add_argument("--precision", type=int, default=8)
    pv.add_argument("--depth", type=int)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_validate)

    pf = sub.add_parser("fixed-points", help="exact fixed/periodic point counts")
    pf.add_argument("--map", required=True)
    pf.add_argument("--iterate", type=int, default=1)
    pf.add_argument("--precision", type=int, default=12)
    pf.add_argument("--out")
    pf.set_defaults(func=cmd_fixed_points)

    ps = sub.add_parser("shadow", help="shadow a pseudo-orbit")
    ps.add_argument("--map", required=True)
    ps.add_argument("--orbit", required=True)
    ps.add_argument("--solver", default="auto",
                    choices=["auto", "scaling", "lipschitz", "affine-qp", "dilatation"])
    ps.add_argument("--s", type=int, default=0)
    ps.add_argument("--depth", type=int, default=24)
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_shadow)

    pc = sub.add_parser("conjugate", help="build and verify a conjugation")
    pc.add_argument("--map", required=True)
    pc.add_argument("--constructor", required=True,
                    choices=["to-shift", "nearby", "affine-shell", "qp-affine"])
    pc.add_argument("--other", help="second map for the nearby constructor")
    pc.add_argument("--a", help="contraction factor for affine-shell (textual value)")
    pc.add_argument("--horizon", type=int, default=6)
    pc.add_argument("--s", type=int, default=0)
    pc.add_argument("--depth", type=int, default=16)
    pc.add_argument("--points", help="semicolon-separated textual values")
    pc.add_argument("--samples", type=int, default=16)
    pc.add_argument("--precision", type=int, default=14)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_conjugate)

    pm = sub.add_parser("mahler", help="Mahler coefficients and 1-Lipschitz test")
    pm.add_argument("--map", required=True)
    pm.add_argument("--terms", type=int, default=12)
    pm.add_argument("--precision", type=int, default=8)
    pm.add_argument("--out")
    pm.set_defaults(func=cmd_mahler)

    po = sub.add_parser("orbit", help="generate a seeded pseudo-orbit")
    po.add_argument("--map", required=True)
    po.add_argument("--start", required=True, help="textual start value")
    po.add_argument("--delta-exp", dest="delta_exp", type=int, required=True)
    po.add_argument("--steps", type=int, required=True)
    po.add_argument("--back", type=int, default=0,
                    help="backward steps through the map's exact inverse")
    po.add_argument("--seed", type=int, required=True)
    po.add_argument("--out", required=True, help="orbit file path (report goes to stdout)")
    po.set_defaults(func=cmd_orbit, report_to_out=False)

    pr = sub.add_parser("oracle", help="brute-force cross-checks at small N")
    pr.add_argument("oracle", choices=["shadow", "fixed-points", "arith"])
    pr.add_argument("--map")
    pr.add_argument("--orbit")
    pr.add_argument("--p", type=int, default=2)
    pr.add_argument("--precision", type=int, default=10)
    pr.add_argument("--s", type=int, default=0)
    pr.add_argument("--samples", type=int, default=4096)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_PARSE
    emit_path = getattr(args, "out", None) if getattr(args, "report_to_out", True) else None
    try:
        report = args.func(args)
    except VerificationFailure as exc:
        _emit(dict(exc.report, error=str(exc)), emit_path)
        return EXIT_VERIFICATION
    except (_ParseFailure, FileNotFoundError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (BijectivityViolation, InconsistentScaling, ConstraintUnsolvable,
            CertificationError) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFICATION
    except (PrecisionError, ZeroAtPrecision, DepthExhausted, PrimeMismatch,
            ValueError) as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return EXIT_PRECONDITION
    except PadicError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    _emit(report, emit_path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
