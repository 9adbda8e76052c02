"""Exact-arithmetic tools for p-adic dynamics.

Digit-exact arithmetic on Z_p and Q_p, locally scaling maps given by
digit-function tables, shadowing solvers for pseudo-orbits, constructive
topological conjugacies, and exact fixed-point counting, all verifiable
against brute-force oracles at small prime and precision.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    expansivity_check,
    fixed_points,
    periodic_points,
    verify_scaling,
)
from .conjugacy import (
    ConjugacyMap,
    affine_shell_conjugacy_map,
    nearby_conjugacy,
    qp_affine_conjugacy_map,
    shift_conjugacy,
    verify_conjugacy,
)
from .core import (
    PadicError,
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
    norm,
    parse_value,
    pnorm_max,
)
from .mahler import MahlerSeries, mahler_eval, one_lipschitz_report
from .maps import (
    AffineQp,
    AffineZp,
    Compose,
    DigitFunctionTable,
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
    iterate,
    load_spec,
    mahler_coefficients,
    random_table,
    save_spec,
    table_from_spec,
)
from .shadowing import (
    PseudoOrbit,
    ShadowResult,
    perturb_orbit,
    perturb_orbit_two_sided,
    shadow_affine_qp,
    shadow_dilatation,
    shadow_lipschitz,
    shadow_locally_scaling,
)

# the public API: every name imported above, each stated once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
