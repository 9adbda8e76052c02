"""CLI subcommands: reports, determinism, exit codes."""

import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import warnings

import pytest

import conjugacy_reference as ref

from padicdyn import cli
from padicdyn.cli import main
from padicdyn.conjugacy import (affine_shell_conjugacy_map, nearby_conjugacy,
                                qp_affine_conjugacy_map, shift_conjugacy, verify_conjugacy)
from padicdyn.core import PrecisionError, Prime, QpApprox, ZpApprox, encode_value, parse_value
from padicdyn.mahler import MahlerSeries
from padicdyn.maps import (
    AffineQp,
    AffineZp,
    Compose,
    GaModZp,
    MahlerMap,
    Rmap,
    ScalingClass,
    ShiftPower,
    Substitution,
    TableMap,
    Tj,
    dumps_spec,
    perturb_table,
    random_table,
    save_spec,
    table_from_spec,
)


@pytest.fixture
def specs(tmp_path):
    paths = {}
    p2 = Prime(2)
    for name, spec in {
        "shift": ShiftPower(p2, 1),
        "tj": Tj(p2, 1, 2),
        "rmap": Rmap(p2, 1),
        "sub": Substitution(p2, ((0, 1), (0,))),
        "affq": AffineQp(QpApprox(Prime(3), -1, (1,) + (0,) * 29),
                         QpApprox(Prime(3), 0, (2,) + (0,) * 29)),
    }.items():
        path = tmp_path / f"{name}.json"
        save_spec(spec, path)
        paths[name] = str(path)
    return paths


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_validate(specs, capsys):
    code, out = run(capsys, "validate", "--map", specs["shift"], "--precision", "8")
    assert code == 0
    report = json.loads(out)
    assert report["scaling"]["verified"] is True
    assert report["bijectivity"] == "ok"


def test_validate_wrong_class_fails(specs, capsys):
    code, _ = run(capsys, "validate", "--map", specs["shift"],
                  "--k", "2", "--m", "2", "--precision", "8")
    assert code == 4


def test_fixed_points_tj(specs, capsys):
    code, out = run(capsys, "fixed-points", "--map", specs["tj"])
    assert code == 0
    report = json.loads(out)
    assert report["report"]["count"] == 8  # p^(m+j) = 2^3
    assert report["report"]["matches_closed_form"] is True


def test_fixed_points_rmap_reports_closed_form_mismatch(specs, capsys):
    # the traditional closed form for R over-counts; the CLI
    # surfaces the disagreement as a verification failure with the report
    code, out = run(capsys, "fixed-points", "--map", specs["rmap"])
    assert code == 4
    report = json.loads(out)
    assert report["report"]["count"] == 3
    assert report["report"]["closed_form"] == 5
    assert "error" in report


def test_orbit_shadow_oracle_pipeline(specs, capsys, tmp_path):
    orbit_path = str(tmp_path / "orbit.txt")
    start = "2^0 * [" + " ".join("1 0 1 1 0 1 0 0 1 1 1 0 1 0 1 1".split()) + "]"
    code, _ = run(capsys, "orbit", "--map", specs["shift"], "--start", start,
                  "--delta-exp", "1", "--steps", "6", "--seed", "42",
                  "--out", orbit_path)
    assert code == 0
    first = open(orbit_path).readline()
    assert first.startswith("# prime=2 domain=zp")

    code, out = run(capsys, "shadow", "--map", specs["shift"],
                    "--orbit", orbit_path, "--solver", "scaling")
    assert code == 0
    report = json.loads(out)
    assert report["solver"] == "locally-scaling"
    assert report["epsilon"].endswith("2^-1")

    code, out = run(capsys, "oracle", "shadow", "--map", specs["shift"],
                    "--orbit", orbit_path, "--precision", "10")
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_shadow_lipschitz_auto(specs, capsys, tmp_path):
    orbit_path = str(tmp_path / "orbit.txt")
    start = "2^0 * [1 1 0 1 0 1 1 0 1 0]"
    run(capsys, "orbit", "--map", specs["sub"], "--start", start,
        "--delta-exp", "3", "--steps", "5", "--seed", "1", "--out", orbit_path)
    code, out = run(capsys, "shadow", "--map", specs["sub"], "--orbit", orbit_path)
    assert code == 0
    report = json.loads(out)
    assert report["solver"] == "lipschitz"
    assert report["details"]["certification"] == "structural:substitution"


def test_shadow_auto_takes_lipschitz_for_stated_contractions(capsys, tmp_path):
    # a 1-Lipschitz g_a (p=3, a = 3*2) and a Mahler map passing the
    # criterion (p=2, 1 + 2x) state a contraction exponent, so the automatic
    # choice gives the report of --solver lipschitz (it exited 3 before)
    p2, p3 = Prime(2), Prime(3)
    ga = GaModZp(QpApprox(p3, 1, (2,) + (0,) * 11))
    mahler = MahlerMap(MahlerSeries(p2, (ZpApprox.from_int(1, p2, 12),
                                         ZpApprox.from_int(2, p2, 12))))
    for name, spec, start, route in (
            ("ga", ga, "3^0 * [1 0 2 1 1 0 2 2 1 0 1 2]", "structural:ga-mod-zp"),
            ("mahler", mahler, "2^0 * [1 1 0 1 0 1 1 0 1 0 0 1]", "mahler-criterion")):
        map_path, orbit_path = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.txt")
        save_spec(spec, map_path)
        assert run(capsys, "orbit", "--map", map_path, "--start", start, "--delta-exp", "2",
                   "--steps", "5", "--seed", "1", "--out", orbit_path)[0] == 0
        auto = run(capsys, "shadow", "--map", map_path, "--orbit", orbit_path)
        assert auto == run(capsys, "shadow", "--map", map_path, "--orbit", orbit_path,
                           "--solver", "lipschitz")
        assert auto[0] == 0, name
        report = json.loads(auto[1])
        assert (report["solver"], report["details"]["certification"]) == ("lipschitz", route)


def test_shadow_affine_qp_two_sided(specs, capsys, tmp_path):
    orbit_path = str(tmp_path / "orbq.txt")
    start = "3^-2 * [1 2 0 1 0 2 1 1 0 2 1 0 1 2 0 1 1 1 2 0]"
    code, _ = run(capsys, "orbit", "--map", specs["affq"], "--start", start,
                  "--delta-exp", "2", "--steps", "5", "--back", "5",
                  "--seed", "7", "--out", orbit_path)
    assert code == 0
    for solver in ("affine-qp", "dilatation"):
        code, out = run(capsys, "shadow", "--map", specs["affq"],
                        "--orbit", orbit_path, "--solver", solver)
        assert code == 0, solver
        report = json.loads(out)
        assert report["start_index"] == -5


def test_conjugate_to_shift(specs, capsys):
    code, out = run(capsys, "conjugate", "--map", specs["shift"],
                    "--constructor", "to-shift", "--samples", "6",
                    "--precision", "12")
    assert code == 0
    report = json.loads(out)
    assert report["verification"]["semiconjugacy_ok"] is True
    assert report["isometry_status"] == "proven-by-construction"
    assert len(report["values"]) == 6


def test_conjugate_affine_shell(capsys, tmp_path):
    # psi = 18 z (Lipschitz factor 3^-2), a = 3
    psi_path = tmp_path / "psi.json"
    psi = __import__("padicdyn.maps", fromlist=["AffineZp"]).AffineZp(
        ZpApprox.from_int(18, 3, 12), ZpApprox.from_int(0, 3, 12))
    save_spec(psi, psi_path)
    code, out = run(capsys, "conjugate", "--map", str(psi_path),
                    "--constructor", "affine-shell", "--a", "3^0 * [0 1 0 0 0 0 0 0 0 0 0 0]",
                    "--samples", "8", "--precision", "12")
    assert code == 0
    report = json.loads(out)
    assert report["verification"]["semiconjugacy_ok"] is True


def test_conjugate_affine_shell_at_any_precision(capsys, tmp_path):
    # psi(0) = 9 at 100 digits: the fixed point takes about one step per digit
    n = 100
    psi_path = tmp_path / "psi.json"
    save_spec(AffineZp(ZpApprox.from_int(18, 3, n), ZpApprox.from_int(9, 3, n)), psi_path)
    code, out = run(capsys, "conjugate", "--map", str(psi_path),
                    "--constructor", "affine-shell", "--a", f"3^0 * [0 1{' 0' * (n - 2)}]",
                    "--samples", "4", "--precision", str(n))
    assert code == 0
    assert json.loads(out)["verification"]["semiconjugacy_ok"] is True


def test_affine_qp_solver_names_the_fact_it_needs(specs, capsys):
    code, _ = run(capsys, "orbit", "--map", specs["shift"], "--start", "2^0 * [1 0 1 1]",
                  "--delta-exp", "1", "--steps", "2", "--seed", "1",
                  "--out", specs["shift"] + ".orbit")
    assert code == 0
    assert main(["shadow", "--map", specs["shift"], "--orbit", specs["shift"] + ".orbit",
                 "--solver", "affine-qp"]) == 3
    assert "needs a map that states z -> az + b" in capsys.readouterr().err


def test_conjugate_qp_affine(specs, capsys):
    code, out = run(capsys, "conjugate", "--map", specs["affq"],
                    "--constructor", "qp-affine", "--horizon", "8",
                    "--samples", "5", "--precision", "12")
    assert code == 0
    report = json.loads(out)
    assert report["verification"]["semiconjugacy_ok"] is True


def test_mahler_report(specs, capsys):
    code, out = run(capsys, "mahler", "--map", specs["shift"],
                    "--terms", "6", "--precision", "8")
    assert code == 0
    report = json.loads(out)
    assert report["one_lipschitz"]["first_violation"] == 2
    code, out = run(capsys, "mahler", "--map", specs["sub"],
                    "--terms", "8", "--precision", "8")
    assert json.loads(out)["one_lipschitz"]["passed"] is True


def test_oracle_commands(specs, capsys):
    code, out = run(capsys, "oracle", "fixed-points", "--map", specs["tj"],
                    "--precision", "8")
    assert code == 0 and json.loads(out)["agree"] is True
    code, out = run(capsys, "oracle", "arith", "--p", "2", "--precision", "10",
                    "--samples", "200")
    assert code == 0 and json.loads(out)["agree"] is True


def test_deterministic_reports(specs, capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code = main(["conjugate", "--map", specs["shift"], "--constructor",
                     "to-shift", "--samples", "5", "--precision", "10",
                     "--seed", "9", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_codes(specs, capsys, tmp_path):
    # parse error: missing file
    assert main(["validate", "--map", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
    # parse error: malformed spec
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--map", str(bad)]) == 2
    capsys.readouterr()
    # parse error: JSON that is not an object, at the top level or as a part
    for text in ("[1, 2]", '{"type":"compose","p":2,"parts":[[1]]}'):
        bad.write_text(text)
        assert main(["validate", "--map", str(bad)]) == 2, text
        capsys.readouterr()
    # argparse usage error
    with pytest.raises(SystemExit) as exc:
        from padicdyn.cli import build_parser
        build_parser().parse_args(["shadow", "--map", "x"])
    assert exc.value.code == 2
    # precondition: orbit too short for the solver
    orbit_path = tmp_path / "tiny.txt"
    orbit_path.write_text(
        "# prime=2 domain=zp delta_exponent=9 delta_exact=0 start_index=0 count=2\n"
        "2^0 * [1]\n2^0 * [1]\n")
    shift_path = tmp_path / "s.json"
    shift_path.write_text(dumps_spec(ShiftPower(Prime(2), 1)))
    code = main(["shadow", "--map", str(shift_path), "--orbit", str(orbit_path),
                 "--solver", "scaling", "--s", "3"])
    capsys.readouterr()
    assert code == 3
    # parse error: an empty orbit file, a missing header, an unparseable value
    bad_orbit = tmp_path / "bad_orbit.txt"
    for text in ("", "2^0 * [1 0]\n2^0 * [1 1]\n",
                 "# prime=2 domain=zp count=2\n2^0 * [1 0]\nnot a value\n"):
        bad_orbit.write_text(text)
        for command in (["shadow"], ["oracle", "shadow"]):
            code = main(command + ["--map", str(shift_path), "--orbit", str(bad_orbit)])
            capsys.readouterr()
            assert code == 2, (command, text)
    # parse error: spec fields of the wrong JSON type
    for text in ('{"type":"shift_power","p":[2],"m":1}',
                 '{"type":"compose","p":2,"parts":5}',
                 '{"type":"table","p":2,"k":2,"m":1,"tables":7}',
                 '{"type":"substitution","p":2,"rules":[[0,1],5]}',
                 '{"type":[1]}'):
        bad.write_text(text)
        assert main(["validate", "--map", str(bad)]) == 2, text
        capsys.readouterr()
    # parse error: a JSON float or boolean for p, m, j or k, and a digit that is
    # not an integer in a table entry or a substitution rule
    table = json.loads(dumps_spec(TableMap(random_table(random.Random(1), 2, ScalingClass(1, 1), 4))))
    flags = [json.dumps(dict(table, tail_projection=v)) for v in ("false", 0)]  # not true/false
    table["tables"][0][0] = 1.5
    for text in ('{"type":"shift_power","p":1e400,"m":1}',
                 '{"type":"shift_power","p":2,"m":1e400}',
                 '{"type":"shift_power","p":2,"m":1.5}',
                 '{"type":"shift_power","p":2,"m":true}',
                 '{"type":"r_map","p":true,"m":1}',
                 '{"type":"tj","p":2.0,"m":1,"j":1}',
                 '{"type":"tj","p":2,"m":1,"j":1.5}',
                 json.dumps(dict(table, k=1.5)),
                 json.dumps(dict(table, k=True)),
                 json.dumps(table),
                 '{"type":"substitution","p":2,"rules":[[0],[0,1.5]]}', *flags):
        bad.write_text(text)
        for command in ("fixed-points", "validate", "mahler"):
            assert main([command, "--map", str(bad)]) == 2, (command, text)
            assert "cannot parse map spec" in capsys.readouterr().err, (command, text)
    # parse error: parts or coefficients over different primes
    for text in ('{"type":"compose","parts":[{"type":"shift_power","p":2,"m":1},'
                 '{"type":"shift_power","p":3,"m":1}]}',
                 '{"type":"affine_zp","a":"2^0 * [1 0]","b":"3^0 * [1 0]"}',
                 '{"type":"affine_qp","a":"2^-1 * [1 0]","b":"3^0 * [1 0]"}'):
        bad.write_text(text)
        for command in ("fixed-points", "validate", "mahler"):
            assert main([command, "--map", str(bad)]) == 2, (command, text)
            assert "cannot parse map spec" in capsys.readouterr().err, (command, text)
    # parse error: an oracle mode without the file options it reads
    for command in (["oracle", "shadow", "--map", str(shift_path)],
                    ["oracle", "fixed-points"]):
        assert main(command) == 2, command
        capsys.readouterr()
    # precondition: an oracle precision below 1, refused by name before any draw
    for n in ("-2", "0"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle", "arith", "--precision", n]) == 3, n
        assert "needs --precision >= 1" in capsys.readouterr().err, n
    # precondition: a period below 1
    for n in ("0", "-2"):
        assert main(["fixed-points", "--map", str(shift_path), "--iterate", n]) == 3, n
        capsys.readouterr()
    # precondition: a map and its inputs over different primes
    orbit3 = tmp_path / "orbit3.txt"
    orbit3.write_text(
        "# prime=3 domain=zp delta_exponent=1 delta_exact=0 start_index=0 count=2\n"
        "3^0 * [1 0 1 2 0]\n3^0 * [0 1 2 0]\n")
    table2, table3 = tmp_path / "t2.json", tmp_path / "t3.json"
    for path, p in ((table2, 2), (table3, 3)):
        save_spec(TableMap(random_table(random.Random(1), p, ScalingClass(1, 1), 4)), path)
    point3 = "3^0 * [1 0 1]"
    for command in (
            ["shadow", "--map", str(shift_path), "--orbit", str(orbit3)],
            ["shadow", "--map", str(table2), "--orbit", str(orbit3)],
            ["oracle", "shadow", "--map", str(shift_path), "--orbit", str(orbit3)],
            ["orbit", "--map", str(shift_path), "--start", point3, "--delta-exp", "1",
             "--steps", "2", "--seed", "0", "--out", str(tmp_path / "o.txt")],
            ["orbit", "--map", str(shift_path), "--start", "1000000000000000003^0 * [1]",
             "--delta-exp", "2", "--steps", "2", "--seed", "1", "--out", str(tmp_path / "o.txt")],
            ["conjugate", "--map", str(table2), "--constructor", "to-shift",
             "--points", point3],
            ["conjugate", "--map", str(table2), "--constructor", "nearby",
             "--other", str(table3)]):
        assert main(command) == 3, command
        capsys.readouterr()
    # precondition: nearby maps of one prime but different scaling classes
    table21 = tmp_path / "t21.json"
    save_spec(TableMap(random_table(random.Random(1), 2, ScalingClass(2, 1), 4)), table21)
    assert main(["conjugate", "--map", str(table2), "--constructor", "nearby",
                 "--other", str(table21)]) == 3
    capsys.readouterr()
    # precondition: a negative qp-affine horizon, refused by name (horizon 0
    # reads block 0 and needs the backward blocks to vanish at once)
    affq = tmp_path / "affq.json"
    save_spec(AffineQp(QpApprox(Prime(3), -1, (1,) + (0,) * 29),
                       QpApprox(Prime(3), 0, (2,) + (0,) * 29)), affq)
    assert main(["conjugate", "--map", str(affq), "--constructor", "qp-affine",
                 "--horizon", "-1"]) == 3
    assert "horizon must be >= 0" in capsys.readouterr().err
    # precondition: negative precision and sample counts
    for command in (["fixed-points", "--map", str(shift_path), "--precision", "0"],
                    ["fixed-points", "--map", str(shift_path), "--precision", "-1"],
                    ["oracle", "arith", "--samples", "-1"],
                    ["conjugate", "--map", str(table2), "--constructor", "to-shift",
                     "--samples", "-1"]):
        assert main(command) == 3, command
        capsys.readouterr()
    # precondition: a table, seed or sup-distance enumeration over the entry
    # budget, refused before it starts (a prime near 10^18 makes p^arity
    # astronomical; --s 30 compares 2^32 entries of the p = 2 shift, and
    # 40-digit points pass the 37 digits its horizon needs)
    huge_shift, huge_tj = tmp_path / "huge_shift.json", tmp_path / "huge_tj.json"
    huge_shift.write_text('{"type":"shift_power","p":1000000000000000003,"m":1}')
    huge_tj.write_text('{"type":"tj","p":1000000000000000003,"m":1,"j":1}')
    for command in (["fixed-points", "--map", str(huge_shift)],
                    ["validate", "--map", str(huge_shift)],
                    ["fixed-points", "--map", str(huge_tj)],
                    ["conjugate", "--map", str(shift_path), "--constructor", "nearby",
                     "--other", str(shift_path), "--s", "30", "--precision", "40"]):
        assert main(command) == 3, command
        assert "over the budget" in capsys.readouterr().err
    # precondition: a brute force over 2^40 residues, and 2^19 seeds of period
    # 19 that each cost 19 kernel calls and up to 12 solve steps
    for command in (["oracle", "fixed-points", "--map", str(shift_path), "--precision", "40"],
                    ["fixed-points", "--map", str(shift_path), "--iterate", "19"]):
        assert main(command) == 3, command
        assert "over the budget" in capsys.readouterr().err
    # precondition: negative step counts for a two-sided orbit
    for back, steps in (("-2", "3"), ("2", "-3")):
        assert main(["orbit", "--map", specs["affq"], "--back", back,
                     "--steps", steps, "--start", "3^-1 * [1 2 0 1]", "--delta-exp", "3",
                     "--seed", "1", "--out", str(tmp_path / "o2.txt")]) == 3, (back, steps)
        capsys.readouterr()
    # precondition: an orbit file whose indices miss x_0, for every solver, and
    # a two-sided orbit given to a one-sided solver
    sub_path = tmp_path / "sub.json"
    sub_path.write_text(dumps_spec(Substitution(Prime(2), ((0, 1), (0,)))))
    qstart = "3^-1 * [1 2 0 1 0 2 1 1 0 2 1 0 1 2 0 1 1 1 2 0]"
    zstart = "2^0 * [1 0 1 1 0 1 0 0 1 1]"
    made = {}
    for name, spec, start, steps in (
            ("q6", specs["affq"], qstart, "5"),
            ("q5", specs["affq"], qstart, "4"),
            ("z5", str(shift_path), zstart, "4"),
            ("s5", str(sub_path), zstart, "4")):
        made[name] = tmp_path / f"{name}.txt"
        assert main(["orbit", "--map", spec, "--start", start, "--delta-exp", "3",
                     "--steps", steps, "--seed", "1", "--out", str(made[name])]) == 0
        capsys.readouterr()

    def reindexed(name, start_index):
        path = tmp_path / f"{name}_{start_index}.txt"
        header, rest = made[name].read_text().split("\n", 1)
        assert "start_index=0 " in header
        path.write_text(header.replace("start_index=0 ", f"start_index={start_index} ")
                        + "\n" + rest)
        return str(path)

    for spec, orbit, solver in (
            (specs["affq"], reindexed("q6", 2), "affine-qp"),
            (specs["affq"], reindexed("q6", 2), "dilatation"),
            (specs["affq"], reindexed("q5", -9), "affine-qp"),
            (specs["affq"], reindexed("q5", -9), "dilatation"),
            (str(shift_path), reindexed("z5", 2), "scaling"),
            (str(shift_path), reindexed("z5", -2), "scaling"),
            (str(sub_path), reindexed("s5", -2), "lipschitz")):
        assert main(["shadow", "--map", spec, "--orbit", orbit, "--solver", solver]) == 3, \
            (orbit, solver)
        assert "precondition violated" in capsys.readouterr().err
    for start_index, reason in ((-2, "one-sided"), (2, "must hold x_0")):
        assert main(["oracle", "shadow", "--map", str(shift_path),
                     "--orbit", reindexed("z5", start_index)]) == 3
        assert reason in capsys.readouterr().err
    # parse error: a scaling class given by only one of --k and --m
    for option in (["--k", "2"], ["--m", "1"]):
        assert main(["validate", "--map", str(shift_path)] + option) == 2, option
        assert "go together" in capsys.readouterr().err
    # precondition: a brute-force precision below 1, a negative Mahler term
    # count, and a Mahler series whose binomial sums are over the entry budget
    for command, reason in (
            (["oracle", "shadow", "--map", str(shift_path), "--orbit", str(made["z5"]),
              "--precision", "-1"], "precision >= 1"),
            (["mahler", "--map", str(shift_path), "--terms", "-1"], "terms >= 0"),
            (["mahler", "--map", str(shift_path), "--terms", "100000000"], "over the budget")):
        assert main(command) == 3, command
        assert reason in capsys.readouterr().err
    # verification: a unit a is neither a dilation nor a contraction, the
    # translation z -> z + 2 (a = 1, b != 0) included, which is refused before
    # its fixed point b/(1-a) is formed
    unit_path = tmp_path / "unit.json"
    for a, b in ((1, 2), (2, 2), (2, 0)):
        p3 = Prime(3)
        save_spec(AffineQp(QpApprox(p3, 0, (a,) + (0,) * 19),
                           QpApprox(p3, 0, (b,) + (0,) * 19)), unit_path)
        assert main(["conjugate", "--map", str(unit_path),
                     "--constructor", "qp-affine"]) == 4, (a, b)
        assert "is not an exact dilation or contraction" in capsys.readouterr().err
    # the dilatation sweep's cap follows the orbit window: a 90-step forward
    # orbit of a 120-digit dilatation needs 91 sweeps and certifies, where a
    # fixed cap of 64 sweeps failed it as an internal error (exit 5)
    dil_map, dil_orbit = tmp_path / "dil.json", tmp_path / "dil90.txt"
    rng = random.Random(90)
    save_spec(AffineQp(QpApprox(Prime(3), -1, (1,) + (0,) * 119),
                       QpApprox(Prime(3), 0, tuple(rng.randrange(3) for _ in range(120)))),
              dil_map)
    start = "3^0 * [" + " ".join(str(rng.randrange(3)) for _ in range(120)) + "]"
    assert main(["orbit", "--map", str(dil_map), "--start", start, "--delta-exp", "2",
                 "--steps", "90", "--seed", "1", "--out", str(dil_orbit)]) == 0
    assert main(["shadow", "--map", str(dil_map), "--orbit", str(dil_orbit),
                 "--solver", "dilatation"]) == 0
    assert '"iterations": 91' in capsys.readouterr().out


def test_over_budget_exponents_exit_3_before_the_power_is_built(tmp_path):
    # 2^(10^11) is 12.5 GB: the seeds of S^m, and the head tables of R and
    # T_j, are refused on the exponent alone, so a child capped at 400 MB of
    # address space exits 3 where building the power would exit 1
    pytest.importorskip("resource")
    code = ("import resource, sys; cap = 400 << 20; "
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
            "from padicdyn.cli import main; sys.exit(main(sys.argv[1:]))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = tmp_path / "huge.json"
    for text in ('{"type":"shift_power","p":2,"m":100000000000}',
                 '{"type":"r_map","p":2,"m":100000000000}',
                 '{"type":"tj","p":2,"m":100000000000,"j":1}'):
        path.write_text(text)
        run = subprocess.run([sys.executable, "-S", "-c", code, "fixed-points", "--map",
                              str(path)], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 3, (text, run.stderr)
        assert "entries, over the budget" in run.stderr, text


def test_wrong_domain_inputs_exit_3(capsys, tmp_path):
    # a Z_p map given Q_p input, a Q_p map given Z_p input (also a Z_p part
    # of a Q_p composition), and --back on a map with no exact inverse are
    # preconditions: exit 3, never 1 or 5
    p3 = Prime(3)
    files = {}
    affq = AffineQp(QpApprox(p3, -1, (1,) + (0,) * 29), QpApprox(p3, 0, (2,) + (0,) * 29))
    for name, spec in (
            ("affq", affq),
            ("shift", ShiftPower(p3, 1)),
            ("table", TableMap(random_table(random.Random(1), p3, ScalingClass(1, 1), 4))),
            ("psi", AffineZp(ZpApprox.from_int(18, p3, 12), ZpApprox.from_int(0, p3, 12))),
            ("mixed", Compose((affq, ShiftPower(p3, 1))))):  # a Q_p part, then a Z_p part
        files[name] = str(tmp_path / f"{name}.json")
        save_spec(spec, files[name])
    zorbit, qorbit = str(tmp_path / "z.txt"), str(tmp_path / "q.txt")
    for name, start, out in (("shift", "3^0 * [1 0 2 1 1 0 2 2 1 0]", zorbit),
                             ("affq", "3^-1 * [1 2 0 1 0 2 1 1 0 2 1 0]", qorbit)):
        assert main(["orbit", "--map", files[name], "--start", start, "--delta-exp", "2",
                     "--steps", "3", "--seed", "1", "--out", out]) == 0
    capsys.readouterr()
    solvers = ("auto", "scaling", "lipschitz", "affine-qp", "dilatation")
    commands = [
        ["validate", "--map", files["affq"], "--k", "1", "--m", "1"],
        ["mahler", "--map", files["affq"]],
        ["conjugate", "--map", files["affq"], "--constructor", "affine-shell",
         "--a", "3^0 * [0 1 0 0]"],
        ["oracle", "shadow", "--map", files["shift"], "--orbit", qorbit],
    ] + [["shadow", "--map", files["affq"], "--orbit", zorbit, "--solver", s]
         for s in solvers]
    for name in ("shift", "table", "psi", "mixed"):
        commands += [["shadow", "--map", files[name], "--orbit", qorbit, "--solver", s]
                     for s in solvers]
        commands += [
            ["orbit", "--map", files[name], "--start", "3^0 * [1 0 2 1 1 0 2]",
             "--delta-exp", "2", "--steps", "2", "--back", "2", "--seed", "1",
             "--out", str(tmp_path / "o.txt")]]
        if name != "mixed":  # it states no expansion constant, refused as such
            commands.append(["conjugate", "--map", files[name], "--constructor", "qp-affine"])
    for command in commands:
        code = main(command)
        err = capsys.readouterr().err
        assert code == 3, (code, command, err)
        assert "domain mismatch" in err or "no exact inverse" in err, (command, err)


def test_nearby_refuses_short_points_before_comparing(specs, capsys, monkeypatch):
    # horizon 6 at s = 17 needs 1 + 17 + 6 = 24 digits of each 14-digit point;
    # that is known before the 2^20-entry sup-distance comparison starts
    def refuse(*args):
        raise AssertionError("the sup distance was compared before the horizon check")

    monkeypatch.setattr("padicdyn.conjugacy.table_sup_distance_exponent", refuse)
    assert main(["conjugate", "--map", specs["shift"], "--constructor", "nearby",
                 "--other", specs["shift"], "--s", "17"]) == 3
    assert "horizon 6 needs 24 digits of x, got 14" in capsys.readouterr().err


# ------------------------------------------------------- byte-identical corpus

def _corpus_specs():
    """The corpus's maps by file name, without the ``.json``."""
    p2, p3 = Prime(2), Prime(3)
    rng = random.Random(2020)
    t21 = random_table(rng, p2, ScalingClass(2, 1), 8)
    return {
        "shift": ShiftPower(p2, 1),
        "tj": Tj(p2, 1, 2),
        "rmap": Rmap(p2, 1),
        "sub": Substitution(p2, ((0, 1), (0,))),
        # the substitution followed by the identity, a map with the same orbits
        "subid": Compose((Substitution(p2, ((0, 1), (0,))),
                          AffineZp(ZpApprox.from_int(1, p2, 12), ZpApprox.from_int(0, p2, 12)))),
        "affq": AffineQp(QpApprox(p3, -1, (1,) + (0,) * 29),
                         QpApprox(p3, 0, (2,) + (0,) * 29)),
        "affc": AffineQp(QpApprox(p3, 1, (2, 1) + (0,) * 28),
                         QpApprox(p3, 0, (1,) + (0,) * 29)),
        # z -> z/3 + 1/3, whose fixed point 1/2 is a unit, as a composition
        "affu": Compose((AffineQp(QpApprox(p3, -1, (1,) + (0,) * 29),
                                  QpApprox(p3, -1, (1,) + (0,) * 29)),)),
        "psi": AffineZp(ZpApprox.from_int(18, p3, 12), ZpApprox.from_int(0, p3, 12)),
        "psi9": AffineZp(ZpApprox.from_int(18, p3, 12), ZpApprox.from_int(9, p3, 12)),
        "t21": TableMap(t21),
        "t21b": TableMap(perturb_table(rng, t21, first_digit=3, depth=8)),
        "t22": TableMap(random_table(rng, p2, ScalingClass(2, 2), 6)),
        # z -> 6z mod Z_2, 1-Lipschitz: it states a contraction exponent
        "ga": GaModZp(QpApprox(p2, 1, (1, 1) + (0,) * 10)),
    }


def _write_corpus_inputs():
    """Write the corpus's map files into the current directory."""
    for name, spec in _corpus_specs().items():
        save_spec(spec, f"{name}.json")


# (command line, exit code, SHA-256 of the report on stdout), run in order:
# the orbit commands write the orbit files the later commands read
CLI_CORPUS = [
    ('validate --map shift.json --precision 8', 0,
     "c7d804006ece7f6d6786facce0c513745659027aa92b3fa31ccca88e9d38494b"),
    ('validate --map t21.json --precision 7', 0,
     "7a95a8137e2fb3ca0851977a273b2f7eeaa26f9bde70a66430be3f284e7ca41a"),
    ('validate --map shift.json --k 2 --m 2 --precision 8', 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('fixed-points --map tj.json', 0,
     "dcfe1877b3c247c999917261b854141d73d13b5311a9f9cc9f416ba3500ef57a"),
    ('fixed-points --map shift.json --iterate 2', 0,
     "99b366dcd4e338a9f022209bf5c7289a1c74cf72fb65e1555507c260c6a3ef75"),
    ('fixed-points --map rmap.json', 4,
     "e8b503d0ee4af526c6ea6cf9116715ea97686bf82efcedf4c92310267a76af22"),
    ('fixed-points --map t21.json --iterate 2 --precision 8', 0,
     "c06b6103dd9e420f1fe6f9fdc0e298b2ca09b0d9349f9cbec8e29b5c723a402e"),
    ('mahler --map shift.json --terms 6 --precision 8', 0,
     "716db47a6d6e9e26c0b2d003eacb6dad2b9f3b1888bd4d65144014488a651209"),
    ('mahler --map sub.json --terms 8 --precision 8', 0,
     "7bfd38bf3c32eafd7ae6334f314d1061044319661ad326066a4d8e41f4e404b3"),
    ('orbit --map shift.json --start "2^0 * [1 0 1 1 0 1 0 0 1 1 1 0 1 0 1 1]" '
     '--delta-exp 1 --steps 6 --seed 42 --out orbit.txt', 0,
     "4d726adc82d97e76912daf9702d28bb01d015e7954f29402492103ae27f43bdd"),
    ('shadow --map shift.json --orbit orbit.txt --solver scaling', 0,
     "967356230e142014ce9ab295b296e92bfb51e1c908b3faeebe1af85f467fdc20"),
    ('oracle shadow --map shift.json --orbit orbit.txt --precision 10', 0,
     "1b6ef98ddefe7a21c96054e6e43cc8ef7c13a88e0cc7b607150f9f8ba9cd4b19"),
    ('shadow --map shift.json --orbit orbit.txt --solver lipschitz', 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('orbit --map t21.json --start "2^0 * [1 1 0 1 0 0 1 0 1 1 1 0 0 1 0 1 1 0 0 1]" '
     '--delta-exp 2 --steps 8 --seed 3 --out orbt.txt', 0,
     "49891a7eb0a1f5a3b61c719e76babf7d90d22554d877c8612b00a672f183c541"),
    ('shadow --map t21.json --orbit orbt.txt --solver scaling --s 1', 0,
     "0fafbe738c98cac9f245b264a34ec4ea7417b6380459a512559f0a93c9344c00"),
    ('orbit --map sub.json --start "2^0 * [1 1 0 1 0 1 1 0 1 0]" '
     '--delta-exp 3 --steps 5 --seed 1 --out orbs.txt', 0,
     "0e3c0ab912bc3458ce296a16a57fecc6b1d620e623afc35b80c9fc5c700b63d0"),
    ('shadow --map sub.json --orbit orbs.txt', 0,
     "0103b311883a28ec43ef50be87bc479c14a9b8a53d1df70f6c81e4aed48c40af"),
    # a composition that states a contraction exponent takes the Lipschitz solver
    ('shadow --map subid.json --orbit orbs.txt', 0,
     "48a84800447bf561679e68be7fceefee730125fbf5a36d859647ccd0f0cf9abc"),
    ('orbit --map affq.json --start "3^-2 * [1 2 0 1 0 2 1 1 0 2 1 0 1 2 0 1 1 1 2 0]" '
     '--delta-exp 2 --steps 5 --back 5 --seed 7 --out orbq.txt', 0,
     "181f461a8bd2c72359a288b0cf6378d7fa52f9c0a9a5bee9f35f73ca4195baf7"),
    ('shadow --map affq.json --orbit orbq.txt --solver affine-qp', 0,
     "f442e2c5b270dd59dfc357a0a675bbddb2dcc2f61dbfc7382de4a8519b46ba92"),
    ('shadow --map affq.json --orbit orbq.txt --solver dilatation', 0,
     "a9401d168558e829382b03e9b74af75bb9730889d9638dd1783e5fa09c8cebf4"),
    ('orbit --map affc.json --start "3^-1 * [2 1 0 1 2 2 0 1 1 0 2 1 0 0 1 2 1 0 2 1]" '
     '--delta-exp 2 --steps 4 --back 4 --seed 11 --out orbc.txt', 0,
     "ba83ade4566e4a0e522814d82b7cb2a4cc241c1c54fc74794cb48b84306deb7d"),
    ('shadow --map affc.json --orbit orbc.txt --solver affine-qp', 0,
     "841909197c569dbc07308413874ebd76fa611c4a1e8878ac9d2e6c2c5416b4a3"),
    ('conjugate --map shift.json --constructor to-shift --samples 6 --precision 12', 0,
     "dcc841a5b9ccca2df3c47b0159e6e82d6c4554dece72eff46210058db416867a"),
    ('conjugate --map t22.json --constructor to-shift --samples 8 --precision 10 --seed 3',
     0,
     "99ca509afb9d2cac3fe08d3550591342b1170bb35414b4f69ea1162ffdacbf42"),
    ('conjugate --map shift.json --constructor to-shift '
     '--points "2^0 * [1 0 1 1 0 1];2^0 * [0 0 1]"', 0,
     "ec92aea2ec7725cafb6795b9c122634581e6249bdfd715e02e820c2d310950a5"),
    ('conjugate --map t21.json --other t21b.json --constructor nearby --horizon 4 '
     '--samples 6 --precision 10', 0,
     "3c0e73a2c175c49543c1de6cfa640aadee476475efee9dd90fc993068a45afa4"),
    ('conjugate --map psi.json --constructor affine-shell '
     '--a "3^0 * [0 1 0 0 0 0 0 0 0 0 0 0]" --samples 8 --precision 12', 0,
     "95e5dacdfca36b379b67f2e57ad9ce7c0eb78ebab7006441ec6be76a45960e2c"),
    ('conjugate --map psi9.json --constructor affine-shell '
     '--a "3^0 * [0 1 0 0 0 0 0 0 0 0 0 0]" --samples 6 --precision 12 --seed 4', 0,
     "bc0435d926969dd3c5f8d435dbf10d7f763cff1794ed1c3ce2613011289cd8eb"),
    ('conjugate --map affq.json --constructor qp-affine --horizon 8 --samples 5 '
     '--precision 12', 0,
     "18ef3e613e5a7e6f5b8cca1ee412bb542d2cffba6d63dbe036d3a002e9a831f9"),
    # a composition states its folded affine fact, so it takes the bare map's routes
    ('orbit --map affu.json --start "3^-2 * [1 2 0 1 0 2 1 1 0 2 1 0 1 2 0 1 1 1 2 0]" '
     '--delta-exp 2 --steps 5 --back 5 --seed 7 --out orbu.txt', 0,
     "486902ee0c204b4c8a6ecd53eec213ee8048d38e621168887ab261a810c0fb4f"),
    ('shadow --map affu.json --orbit orbu.txt', 0,
     "8d32b1094f5eda9ea110c570355fd675fc6c28080c4029feb18046a0ab94f4ee"),
    ('shadow --map affu.json --orbit orbu.txt --solver affine-qp', 0,
     "8d32b1094f5eda9ea110c570355fd675fc6c28080c4029feb18046a0ab94f4ee"),
    ('conjugate --map affu.json --constructor qp-affine --horizon 8 --samples 5 '
     '--precision 12', 0,
     "f008865b598d314b9f9af124a188c25e5f9b8965a12f3d6960738609416821af"),
    ('oracle fixed-points --map tj.json --precision 8', 0,
     "eae8829e71216f1b3253f2e94144bdbe22df6f12d3b61691e3ad068eb5eea86f"),
    ('oracle arith --p 3 --precision 6 --samples 100 --seed 5', 0,
     "f0bd7804ab0fcc8364df6012761b6c211990e63a0d0e2ab6b8f5d84b504195a1"),
    # a 1-Lipschitz g_a takes the Lipschitz solver
    ('shadow --map ga.json --orbit orbs.txt', 0,
     "76fd3710ab77b049dd647c7c5da1e600f9ab9b9ca09f0e9c4636659e910b7740"),
]


def test_cli_corpus_byte_identical(capsys, tmp_path, monkeypatch):
    # reports echo their input paths, so the corpus runs on relative names
    monkeypatch.chdir(tmp_path)
    _write_corpus_inputs()
    for line, want_code, want_sha in CLI_CORPUS:
        code = main(shlex.split(line))
        out = capsys.readouterr().out
        assert code == want_code, line
        assert hashlib.sha256(out.encode()).hexdigest() == want_sha, line


def test_constructors_state_the_pairs_the_cli_built():
    # each constructor's stated pair verifies as the pair the CLI built by
    # hand (conjugacy_reference), on the corpus maps and on seeded ones, at
    # the points the CLI samples (or is given)
    specs, rng = _corpus_specs(), random.Random(29)
    points = lambda spec, n, precision, seed=0: cli._sample_points(spec, n, precision, seed)
    third = "3^0 * [0 1 0 0 0 0 0 0 0 0 0 0]"
    to_shift = [(specs["shift"], points(specs["shift"], 6, 12)),
                (specs["t22"], points(specs["t22"], 8, 10, 3)),
                (specs["shift"], [parse_value("2^0 * [1 0 1 1 0 1]"),
                                  parse_value("2^0 * [0 0 1]")])]
    for p, k in ((2, 1), (3, 1), (2, 3)):
        table = random_table(rng, p, ScalingClass(k, k), rng.randrange(k, 8))
        to_shift.append((table, points(table, 6, 10, p)))
    nearby = [(specs["t21"], specs["t21b"], 4, points(specs["t21"], 6, 10))]
    for p, k, m in ((2, 2, 1), (3, 1, 1), (2, 2, 2)):
        f_t = random_table(rng, p, ScalingClass(k, m), 8)
        g_t = perturb_table(rng, f_t, first_digit=k, depth=8)
        nearby.append((f_t, g_t, 3, points(f_t, 5, 12)))
    shell = [(specs["psi"], third, points(specs["psi"], 8, 12)),
             (specs["psi9"], third, points(specs["psi9"], 6, 12, 4))]
    for p, K, b in ((2, 1, 0), (3, 1, 5), (5, 2, 7)):
        a = ZpApprox.from_int(p**K * (1 + p * rng.randrange(p**4)), p, 14)
        psi = AffineZp(ZpApprox.from_int(p ** (K + 1) * rng.randrange(1, p**4), p, 14),
                       ZpApprox.from_int(b, p, 14))
        shell.append((psi, encode_value(a), points(psi, 6, 14, p)))
    qp = [specs["affq"], specs["affu"]] + [
        AffineQp(QpApprox(Prime(p), v, (1, rng.randrange(p)) + (0,) * 20),
                 QpApprox(Prime(p), rng.randrange(-1, 2), (rng.randrange(p),) * 22))
        for p, v in ((2, -1), (3, 1), (5, -2))]

    def same_report(cm, pair, xs):
        assert verify_conjugacy(cm, cm.f, cm.g, xs) == verify_conjugacy(cm, *pair, xs)

    for spec, xs in to_shift:
        table = table_from_spec(spec, depth=16)
        cm = shift_conjugacy(table)
        assert cm.f == ShiftPower(spec.prime, table.klass.k) and cm.g is table
        same_report(cm, ref.to_shift_pair(spec, table), xs)
    for f_t, g_t, horizon, xs in nearby:
        same_report(nearby_conjugacy(f_t, g_t, horizon), ref.nearby_pair(f_t, g_t), xs)
    for psi, a_text, xs in shell:
        a = parse_value(a_text, "zp")
        same_report(affine_shell_conjugacy_map(a, psi), ref.affine_shell_pair(psi, a), xs)
    for spec in qp:
        cm = qp_affine_conjugacy_map(spec, 8)
        pair = ref.qp_affine_pair(spec, cm)
        assert cm.f == pair[0] and cm.g is spec
        same_report(cm, pair, points(spec, 5, 12))
    # a class (k, m != k) table is refused by both, as a precondition
    for build in (lambda: shift_conjugacy(specs["t21"]),
                  lambda: ref.to_shift_pair(specs["t21"], specs["t21"])):
        with pytest.raises(PrecisionError):
            build()
