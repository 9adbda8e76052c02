"""Frozen records: ``core.record`` against stdlib dataclass twins, and the
CLI's import graph without ``dataclasses``."""

import copy
import dataclasses
import os
import pickle
import random
import shutil
import subprocess
import sys

import pytest

from padicdyn import analysis, conjugacy, core, mahler, maps, shadowing
from padicdyn.core import PNorm, Prime, QpApprox, ZpApprox

# every record class with its fields as they stood under @dataclass(frozen=True):
# a name, or (name, default), or (name, factory) for a default_factory
FIELDS = {
    core.PNorm: ("exponent", ("exact", True)),
    core.ZpApprox: ("prime", "precision", "value"),
    core.QpApprox: ("prime", "valuation_offset", "width", "value"),
    mahler.MahlerSeries: ("prime", "coefficients"),
    mahler.LipschitzEntry: ("n", "norm", "bound_exponent", "status"),
    mahler.OneLipschitzReport: ("entries", "passed", "first_violation", "undecided"),
    maps.ScalingClass: ("k", "m"),
    maps.DigitFunctionTable: ("prime", "klass", "tables", ("tail_projection", False)),
    maps.ShiftPower: ("prime", "m"),
    maps.Tj: ("prime", "m", "j"),
    maps.Rmap: ("prime", "m"),
    maps.AffineZp: ("a", "b"),
    maps.AffineQp: ("a", "b"),
    maps.GaModZp: ("a",),
    maps.Substitution: ("prime", "rules"),
    maps.MahlerMap: ("series",),
    maps.Compose: ("parts",),
    shadowing.PseudoOrbit: ("points", "residuals", ("start_index", 0)),
    shadowing.ShadowResult: ("point", "epsilon", "step_distances", "start_index", "solver",
                             ("details", dict)),
    analysis.ScalingReport: ("klass", "verified", "witness", "pairs_checked", "mode"),
    analysis.ExpansivityReport: ("expansivity_exponent", "horizon", "pairs_checked",
                                 "separated", "undecided", "separation_histogram", "mode"),
    analysis.FixedPointReport: ("map_id", "iterate_n", "klass", "count", "seeds", "points",
                                "closed_form"),
    conjugacy.ConjugacyMap: ("forward", "tag", ("inverse", None), ("isometry", "not-claimed"),
                             ("details", dict), ("f", None), ("g", None)),
    conjugacy.Perturbed: ("a", "psi"),
    conjugacy.Normalized: ("psi", "z"),
    conjugacy.ConjugacyReport: ("samples_checked", "semiconjugacy_ok",
                                "max_semiconjugacy_residual", "isometry_deviations",
                                "injectivity_collisions"),
}
# slots=True stood on these; init=False on the last two, which build themselves
SLOTTED = {core.PNorm, core.ZpApprox, core.QpApprox, mahler.MahlerSeries,
           mahler.LipschitzEntry, mahler.OneLipschitzReport, maps.ScalingClass}
OWN_INIT = {core.ZpApprox, core.QpApprox}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _names(cls):
    return tuple(f if isinstance(f, str) else f[0] for f in FIELDS[cls])


def _twin(cls):
    """The stdlib dataclass of ``cls``'s fields, under ``cls``'s qualified name."""
    spec = []
    for f in FIELDS[cls]:
        if isinstance(f, str):
            spec.append(f)
        elif f[1] is dict:
            spec.append((f[0], object, dataclasses.field(default_factory=dict)))
        else:
            spec.append((f[0], object, dataclasses.field(default=f[1])))
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True, slots=cls in SLOTTED)
    twin.__qualname__ = cls.__qualname__
    return twin


def _instances():
    """One seeded instance of each record class, most from the calls that make them."""
    rng = random.Random(28)
    p = Prime(3)
    table = maps.random_table(rng, p, maps.ScalingClass(1, 1), 6)
    shift, tj = maps.ShiftPower(p, 1), maps.Tj(p, 1, 2)
    x = ZpApprox(p, [rng.randrange(p) for _ in range(8)])
    q = QpApprox(p, -2, (1, 2, 0, 1))
    series = mahler.series_from_values(p, [rng.randrange(9) for _ in range(4)], 4)
    lipschitz = mahler.one_lipschitz_report(series)
    orbit = shadowing.perturb_orbit(table, x, 2, 5, seed=28)
    h = conjugacy.shift_conjugacy(table)
    samples = [ZpApprox(p, [rng.randrange(p) for _ in range(6)]) for _ in range(4)]
    return [
        PNorm(3, exact=False), x, q, series, lipschitz.entries[1], lipschitz, table.klass,
        table, shift, tj, maps.Rmap(p, 1), maps.AffineZp(x, x), maps.AffineQp(q, q),
        maps.GaModZp(q), maps.Substitution(p, ((0,), (1, 2), (2,))), maps.MahlerMap(series),
        maps.Compose((shift, tj)), orbit, shadowing.shadow_locally_scaling(table, orbit),
        analysis.verify_scaling(table, table.klass, 5),
        analysis.expansivity_check(shift, 1, horizon=4, precision=5),
        analysis.fixed_points(shift, precision=6), h,
        conjugacy.verify_conjugacy(h, shift, table, samples),
        conjugacy.Perturbed(x, maps.AffineZp(x, x)), conjugacy.Normalized(table, x),
    ]


INSTANCES = _instances()


def test_every_record_class_has_one_instance():
    records = {cls for mod in (core, mahler, maps, shadowing, analysis, conjugacy)
               for cls in vars(mod).values()
               if isinstance(cls, type) and cls.__setattr__.__qualname__.startswith("record.")}
    assert len(FIELDS) == 26
    assert records == set(FIELDS) == {type(r) for r in INSTANCES}
    assert len(INSTANCES) == 26


@pytest.mark.parametrize("rec", INSTANCES, ids=lambda r: type(r).__name__)
def test_record_matches_dataclass_twin(rec):
    cls, names = type(rec), _names(type(rec))
    twin_cls = _twin(cls)
    values = [getattr(rec, name) for name in names]
    twin = twin_cls(*values)
    assert cls.__match_args__ == names
    assert repr(rec) == repr(twin)
    # == and != within the class, and NotImplemented for another class
    same = copy.copy(rec)
    assert same is not rec and same == rec and not same != rec
    changed = copy.copy(rec)
    object.__setattr__(changed, names[-1], object())
    assert changed != rec and not changed == rec
    assert twin_cls(*values[:-1], object()) != twin
    assert rec.__eq__(twin) is NotImplemented and twin.__eq__(rec) is NotImplemented
    assert rec != twin and not rec == twin
    try:
        expected = hash(twin)
    except TypeError:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == expected == hash(tuple(values))
    # assignment and deletion are refused alike; a slotted twin's refusal of a
    # name that is not a field trips over its own class in CPython 3.11
    for obj, spare in ((rec, ("spare",)), (twin, ())):
        for name in (*names, *spare):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)
    assert [getattr(rec, name) for name in names] == values
    # slots where slots=True stood, and nowhere else
    assert ("__slots__" in cls.__dict__) == (cls in SLOTTED) == (not hasattr(rec, "__dict__"))
    if cls in SLOTTED and all(not callable(v) for v in values):
        assert pickle.loads(pickle.dumps(rec)) == rec
    # keyword construction, and the defaults and factories of the fields left out
    if cls not in OWN_INIT:
        assert repr(cls(**dict(zip(names, values)))) == repr(rec)
        required = [v for f, v in zip(FIELDS[cls], values) if isinstance(f, str)]
        made, twin_made = cls(*required), twin_cls(*required)
        for make in (cls, twin_cls):
            with pytest.raises(TypeError):
                make(*required[:-1])
        assert repr(made) == repr(twin_made)
        for f in FIELDS[cls]:
            if not isinstance(f, str) and f[1] is dict:
                assert getattr(made, f[0]) == {} and getattr(made, f[0]) is not getattr(
                    cls(*required), f[0])


def test_constructor_refusals_match_the_dataclass():
    twin_cls = _twin(shadowing.ShadowResult)
    point, eps = ZpApprox(2, (1, 0)), PNorm(1)
    for args, kwargs in (((point, eps, (eps,), 0), {}),                      # a field missing
                         ((point, eps, (eps,), 0, "s", {}, 7), {}),          # one too many
                         ((point, eps, (eps,), 0, "s"), {"point": point}),   # given twice
                         ((point, eps, (eps,), 0, "s"), {"spare": 1})):      # not a field
        with pytest.raises(TypeError):
            twin_cls(*args, **kwargs)
        with pytest.raises(TypeError):
            shadowing.ShadowResult(*args, **kwargs)


def test_post_init_writes_through_object_setattr():
    coeffs = [ZpApprox(3, (1, 2)), ZpApprox(3, (0, 1))]
    series = mahler.MahlerSeries(3, coeffs)
    assert type(series.prime) is Prime and series.coefficients == tuple(coeffs)
    with pytest.raises(AttributeError):
        series.prime = Prime(3)
    assert PNorm(4) == PNorm(4, True) != PNorm(4, False)


def _imports_and_runs(python, tmp_path):
    """The modules ``import padicdyn.cli`` leaves loaded that it must not, and a
    ``fixed-points`` run's exit code, under ``python -S``: this checks
    padicdyn's own imports, not what a site's ``.pth`` files load."""
    env = dict(os.environ, PYTHONPATH=SRC)
    spec = tmp_path / "shift.json"
    maps.save_spec(maps.ShiftPower(Prime(2), 1), spec)
    code = ("import padicdyn.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    loaded = subprocess.run([python, "-S", "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.strip()
    run = subprocess.run([python, "-S", "-m", "padicdyn.cli", "fixed-points", "--map",
                          str(spec), "--iterate", "2"], env=env, capture_output=True, text=True)
    return loaded, run


def test_cli_imports_neither_dataclasses_nor_inspect(tmp_path):
    loaded, run = _imports_and_runs(sys.executable, tmp_path)
    assert loaded == "[]"
    assert run.returncode == 0, run.stderr


def test_cli_on_python_3_10(tmp_path):
    """pyproject.toml states requires-python >= 3.10."""
    python = shutil.which("python3.10")
    probe = python and subprocess.run(
        [python, "-S", "-c", "import sys; print(sys.version_info[:2])"],
        capture_output=True, text=True)
    if not probe or probe.returncode or probe.stdout.strip() != "(3, 10)":
        pytest.skip("no working python3.10 on PATH")
    loaded, run = _imports_and_runs(python, tmp_path)
    assert loaded == "[]"
    assert run.returncode == 0, run.stderr
    assert '"count"' in run.stdout
