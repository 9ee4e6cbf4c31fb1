import json
import os
import subprocess
import sys
from math import pi
from pathlib import Path

import numpy as np
import pytest

import cavityscat as cs
from cavityscat import cli
from cavityscat.model import QuadratureConfig

from conftest import example1_spec, example4_spec


def _write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    cs.save_spec(spec, path)
    return path


def _tiny_tm(N=6, panels=8):
    return example1_spec("TM", N=N, panels=panels)


def _tiny_te(N=6, panels=8):
    return example1_spec("TE", N=N, panels=panels)


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_solve_roundtrip(tmp_path):
    spec_path = _write_spec(tmp_path, _tiny_tm())
    out = tmp_path / "out"
    assert cli.main(["solve", "--spec", str(spec_path), "--out", str(out)]) == 0
    body = (out / "coefficients.csv").read_text().splitlines()
    assert body[0] == "cavity,mode,re_u,im_u,abs_u"
    assert len(body) == 7
    man = _manifest(out)
    assert man["subcommand"] == "solve" and man["outputs"] == ["coefficients.csv"]
    assert man["diagnostics"]["size"] == 6
    _, sol = cs.solve(cs.load_spec(spec_path))
    assert man["diagnostics"]["backward_error"] == sol.backward_error < 1e-13


def test_solve_deterministic_reruns(tmp_path):
    spec_path = _write_spec(tmp_path, _tiny_tm())
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert cli.main(["solve", "--spec", str(spec_path), "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "coefficients.csv").read_bytes() == (outs[1] / "coefficients.csv").read_bytes()
    m1, m2 = _manifest(outs[0]), _manifest(outs[1])
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


def test_field_subcommand(tmp_path):
    spec_path = _write_spec(tmp_path, _tiny_te())
    out = tmp_path / "out"
    assert cli.main(["field", "--spec", str(spec_path), "--out", str(out),
                     "--grid", "9", "7"]) == 0
    lines = (out / "field.csv").read_text().splitlines()
    assert lines[0] == "x,y,cavity,layer,re_u,im_u,abs_u"
    assert len(lines) == 1 + 9 * 7


def test_rcs_subcommand_and_te_rejection(tmp_path):
    spec_path = _write_spec(tmp_path, _tiny_tm())
    out = tmp_path / "out"
    assert cli.main(["rcs", "--spec", str(spec_path), "--out", str(out),
                     "--angles", "9"]) == 0
    lines = (out / "rcs.csv").read_text().splitlines()
    assert lines[0] == "phi_rad,sigma,sigma_db" and len(lines) == 10
    diag = _manifest(out)["diagnostics"]
    assert diag["size"] == 6
    # the rcond of the one factorization that serves every angle
    _, sol = cs.solve(cs.load_spec(spec_path))
    assert diag["rcond"] == sol.rcond and 0.0 < diag["rcond"] <= 1.0
    # the backward error of that multi-angle solve, its worst angle
    sweep = cs.backscatter_sweep(cs.load_spec(spec_path), np.linspace(pi / 180, pi - pi / 180, 9))
    assert diag["backward_error"] == sweep.backward_error < 1e-13

    te_path = _write_spec(tmp_path, _tiny_te(), "te.json")
    code = cli.main(["rcs", "--spec", str(te_path), "--out", str(tmp_path / "out2")])
    assert code == cli.EXIT_INPUT


def test_enhance_subcommand(tmp_path, monkeypatch):
    spec = cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(1.5, 0.0), polarization="TE",
        cavities=(cs.Cavity(-0.025, 0.025, (cs.Layer(0.0, -1.0, 1.5 + 0j),)),),
        N=4, quad=QuadratureConfig(panels=12)))
    spec_path = _write_spec(tmp_path, spec)
    out = tmp_path / "out"
    factorizations = []
    init = cs.SystemFactorization.__init__

    def counted(self, system):
        init(self, system)
        factorizations.append(self.rcond)

    monkeypatch.setattr(cs.SystemFactorization, "__init__", counted)
    assert cli.main(["enhance", "--spec", str(spec_path), "--out", str(out),
                     "--kappa-min", "1.4", "--kappa-max", "1.55",
                     "--kappa-steps", "6"]) == 0
    lines = (out / "enhancement.csv").read_text().splitlines()
    assert lines[0] == "kappa,Q_E_0" and len(lines) == 7
    # one factorization per wavenumber; the manifest names the worst one
    kappas = np.linspace(1.4, 1.55, 6)
    assert len(factorizations) == 6
    diag = _manifest(out)["diagnostics"]
    assert diag["size"] == 5
    assert diag["rcond_min"] == min(factorizations)
    assert diag["rcond_min_kappa"] == kappas[int(np.argmin(factorizations))]
    assert diag["rcond_below_warn"] == 0
    assert 0.0 <= diag["backward_error_max"] < 1e-13


@pytest.mark.parametrize("error", [cs.ModalResonanceError(2, 0, 0),
                                   cs.ConnectionResonanceError(1, 0),
                                   cs.SingularSystemError("system singular (rcond = 0)")])
def test_enhance_survives_a_failed_wavenumber(tmp_path, monkeypatch, error):
    # the third of five wavenumbers raises: its row is NaN, the manifest
    # records it, the worst rcond is taken over the solved wavenumbers only,
    # and the sweep exits 0
    spec = cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(1.5, 0.0), polarization="TE",
        cavities=(cs.Cavity(-0.025, 0.025, (cs.Layer(0.0, -1.0, 1.5 + 0j),)),),
        N=4, quad=QuadratureConfig(panels=12)))
    spec_path = _write_spec(tmp_path, spec)
    kappas = np.linspace(1.4, 1.6, 5)
    solve_sweep, rconds, backward_errors = cs.assembly.solve_sweep, {}, []

    def flaky(spec, kappa0):
        if any(k == kappas[2] for k in kappa0):
            raise error
        tables, sols = solve_sweep(spec, kappa0)
        for k, sol in zip(kappa0, sols):
            rconds[k] = sol.rcond
            backward_errors.append(sol.backward_error)
        return tables, sols

    monkeypatch.setattr(cs.assembly, "solve_sweep", flaky)
    out = tmp_path / "out"
    assert cli.main(["enhance", "--spec", str(spec_path), "--out", str(out),
                     "--kappa-min", "1.4", "--kappa-max", "1.6", "--kappa-steps", "5"]) == 0
    rows = [line.split(",") for line in (out / "enhancement.csv").read_text().splitlines()[1:]]
    assert [r[1] == "nan" for r in rows] == [False, False, True, False, False]
    assert all(np.isfinite(float(r[1])) for i, r in enumerate(rows) if i != 2)
    diag = json.loads((out / "manifest.json").read_text(), parse_constant=_reject)["diagnostics"]
    assert diag["failed"] == [{"kappa": kappas[2], "error": str(error)}]
    worst = min(rconds, key=rconds.get)
    assert diag["rcond_min"] == rconds[worst] and diag["rcond_min_kappa"] == worst
    assert diag["backward_error_max"] == max(backward_errors)


@pytest.mark.parametrize("kappa_max,resonant", [(pi, 4), (2 * pi - 3.0, 2)])
def test_enhance_resonant_wavenumber_fails_alone(tmp_path, kappa_max, resonant):
    # no injected failure: at kappa0 = pi the layer kappa is pi, so mode 0
    # (beta = pi, depth 1) resonates.  All five wavenumbers form one stacked
    # chunk; that chunk fails and is solved again by halves down to single
    # wavenumbers, so only the resonant row is NaN, at the end of the sweep
    # or between solved neighbours
    spec = cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(1.5, 0.0), polarization="TE",
        cavities=(cs.Cavity(-0.025, 0.025, (cs.Layer(0.0, -1.0, 1.5 + 0j),)),),
        N=4, quad=QuadratureConfig(panels=12)))
    spec_path = _write_spec(tmp_path, spec)
    out = tmp_path / "out"
    assert cli.main(["enhance", "--spec", str(spec_path), "--out", str(out),
                     "--kappa-min", "3.0", "--kappa-max", repr(kappa_max),
                     "--kappa-steps", "5"]) == 0
    rows = [line.split(",") for line in (out / "enhancement.csv").read_text().splitlines()[1:]]
    assert [r[1] == "nan" for r in rows] == [i == resonant for i in range(5)]
    assert all(np.isfinite(float(r[1])) for i, r in enumerate(rows) if i != resonant)
    diag = json.loads((out / "manifest.json").read_text(), parse_constant=_reject)["diagnostics"]
    kappas = np.linspace(3.0, kappa_max, 5)
    assert diag["failed"] == [{"kappa": kappas[resonant],
                               "error": "modal resonance: mode n=0, layer 0, cavity 0"}]
    assert diag["rcond_below_warn"] == 0 and diag["backward_error_max"] < 1e-13


def test_enhance_with_no_solved_wavenumber_leaves_rcond_out(tmp_path, monkeypatch):
    def singular(spec, kappa0):
        raise cs.SingularSystemError("system singular (rcond = 0)")

    monkeypatch.setattr(cs.assembly, "solve_sweep", singular)
    spec_path = _write_spec(tmp_path, _tiny_te())
    out = tmp_path / "out"
    assert cli.main(["enhance", "--spec", str(spec_path), "--out", str(out),
                     "--kappa-min", "1.4", "--kappa-max", "1.6", "--kappa-steps", "3"]) == 0
    diag = json.loads((out / "manifest.json").read_text(), parse_constant=_reject)["diagnostics"]
    assert len(diag["failed"]) == 3 and diag["rcond_below_warn"] == 0
    assert "rcond_min" not in diag and "rcond_min_kappa" not in diag
    assert "backward_error_max" not in diag


def test_enhance_input_errors_still_exit_2(tmp_path, monkeypatch):
    def invalid(spec, kappa0):
        raise cs.ValidationError("N", "rejected")

    monkeypatch.setattr(cs.assembly, "solve_sweep", invalid)
    spec_path = _write_spec(tmp_path, _tiny_te())
    assert cli.main(["enhance", "--spec", str(spec_path), "--out", str(tmp_path / "out"),
                     "--kappa-min", "1.4", "--kappa-max", "1.6",
                     "--kappa-steps", "3"]) == cli.EXIT_INPUT


def test_convergence_subcommand(tmp_path):
    spec_path = _write_spec(tmp_path, _tiny_tm(N=8, panels=8))
    out = tmp_path / "out"
    assert cli.main(["convergence", "--spec", str(spec_path), "--out", str(out),
                     "--levels", "3"]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "level,panels,h,l2_error_vs_finest" and len(lines) == 4
    man = _manifest(out)
    assert "fitted_order" in man["diagnostics"]


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_convergence_manifest_is_strict_json(tmp_path):
    # one level leaves a single error, too few to fit an order: the NaN order
    # is written as null, not as the non-standard NaN token
    spec_path = _write_spec(tmp_path, _tiny_tm(N=4, panels=8))
    out = tmp_path / "out"
    assert cli.main(["convergence", "--spec", str(spec_path), "--out", str(out),
                     "--levels", "1"]) == 0
    man = json.loads((out / "manifest.json").read_text(), parse_constant=_reject)
    assert man["diagnostics"]["fitted_order"] is None


def test_input_errors_exit_2(tmp_path):
    assert cli.main(["solve", "--spec", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", "--spec", str(bad),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
    doc = cs.model.spec_to_dict(_tiny_tm())
    doc["cavities"][0]["b"] = doc["cavities"][0]["a"]  # invalid aperture
    p = tmp_path / "degenerate.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["solve", "--spec", str(p),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT


@pytest.mark.parametrize("argv", [["solve"], ["field"], ["rcs"],
                                  ["enhance", "--kappa-min", "1.4", "--kappa-max", "1.6"],
                                  ["convergence"]])
def test_invalid_spec_exits_2_before_out_exists(tmp_path, capsys, argv):
    doc = cs.model.spec_to_dict(_tiny_tm())
    doc["cavities"][0]["b"] = doc["cavities"][0]["a"]  # invalid aperture
    spec_path = tmp_path / "degenerate.json"
    spec_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main([argv[0], "--spec", str(spec_path), "--out", str(out)]
                    + argv[1:]) == cli.EXIT_INPUT
    assert "cavities[0].a" in capsys.readouterr().err
    assert not out.exists()


def test_validate_subcommand_passes(tmp_path):
    out = tmp_path / "val"
    code = cli.main(["validate", "--out", str(out), "--tolerance-profile", "default"])
    assert code == 0
    lines = (out / "oracle_report.csv").read_text().splitlines()
    assert lines[0].startswith("case,")
    assert all(line.rsplit(",", 1)[1] == "1" for line in lines[1:])


def test_tolerance_profile_choices_are_the_oracle_profiles():
    from cavityscat import oracle
    assert set(cli.TOLERANCE_PROFILE_NAMES) == set(oracle.TOLERANCE_PROFILES)


def test_import_loads_no_scipy_and_no_oracle():
    # the solve path and the CLI import numpy only; scipy serves the oracle,
    # which `validate` imports when it runs, and mpmath the exact moments of
    # `_moments`, which only the oracle and the tests read
    code = ("import sys, cavityscat, cavityscat.cli; "
            "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
            " or m == 'mpmath' or m.startswith('mpmath.')"
            " or m in ('cavityscat.oracle', 'cavityscat._moments')))")
    env = {**os.environ, "PYTHONPATH": str(Path(cs.__file__).resolve().parent.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == []


def test_enhance_and_field_runs_leave_numpy_ma_unimported(tmp_path):
    # np.unique without an index output imports numpy.ma in numpy 2.x, about
    # 16 ms the first time in a process; example 4 at 4 panels has graded
    # cross grids (gap 0.1 under the panel width 0.125) and layered cavities.
    # No run imports mpmath or `_moments` either: the log part is float code
    te = _write_spec(tmp_path, example4_spec("TE", N=4, panels=4), "te.json")
    tm = _write_spec(tmp_path, example4_spec("TM", N=4, panels=4), "tm.json")
    flags = {"enhance": [te, "--kappa-min", "6.0", "--kappa-max", "6.5", "--kappa-steps", "3"],
             "field": [te, "--grid", "5", "4"],
             "rcs": [tm, "--angles", "5"],
             "solve": [tm],
             "convergence": [tm, "--levels", "2"]}
    env = {**os.environ, "PYTHONPATH": str(Path(cs.__file__).resolve().parent.parent)}
    for cmd, (spec_path, *extra) in flags.items():
        argv = [cmd, "--spec", str(spec_path), "--out", str(tmp_path / cmd), *extra]
        code = ("import sys; from cavityscat import cli; "
                f"code = cli.main({argv!r}); "
                "print(code, 'numpy.ma' in sys.modules, 'mpmath' in sys.modules, "
                "'cavityscat._moments' in sys.modules)")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.split()[-4:] == ["0", "False", "False", "False"], \
            (cmd, run.stdout, run.stderr)


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def _no_solve(*args):
    raise AssertionError("a flag check must come before any solve")


@pytest.mark.parametrize("argv,flag", [
    (["rcs", "--angles", "0"], "--angles"),
    (["rcs", "--angles", "-3"], "--angles"),
    (["convergence", "--levels", "-1"], "--levels"),
    (["field", "--grid", "-2", "3"], "--grid"),
    (["enhance", "--kappa-min", "1.4", "--kappa-max", "1.6", "--kappa-steps", "0"],
     "--kappa-steps"),
    (["enhance", "--kappa-min", "0", "--kappa-max", "1.6"], "--kappa-min"),
    (["enhance", "--kappa-min", "-1.4", "--kappa-max", "1.6"], "--kappa-min"),
    (["enhance", "--kappa-min", "1.4", "--kappa-max", "0"], "--kappa-max"),
    (["enhance", "--kappa-min", "1.4", "--kappa-max", "-1.6"], "--kappa-max"),
    (["rcs", "--phi-min", "nan"], "--phi-min"),
    (["rcs", "--phi-max", "nan"], "--phi-max"),
    (["rcs", "--phi-min", "0"], "--phi-min"),
    (["rcs", "--phi-max", "4"], "--phi-max"),
])
def test_bad_flag_values_exit_2_naming_the_flag(tmp_path, capsys, monkeypatch, argv, flag):
    # counts must be >= 1, wavenumbers > 0 and angles in (0, pi): an empty
    # sweep, a negative grid or ladder, kappa_min = 0 or a NaN angle is an
    # input error, not a traceback or a NaN row
    monkeypatch.setattr(cs.assembly, "solve", _no_solve)
    monkeypatch.setattr(cs.assembly, "solve_sweep", _no_solve)
    monkeypatch.setattr(cs.postprocess, "backscatter_sweep", _no_solve)
    spec_path = _write_spec(tmp_path, _tiny_tm())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], "--spec", str(spec_path), "--out", str(out)] + argv[1:])
    assert exc.value.code == cli.EXIT_INPUT
    assert f"argument {flag}: must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cavity", ["5", "2", "-1"])
def test_enhance_cavity_index_out_of_range_exits_2(tmp_path, capsys, monkeypatch, cavity):
    # a two-cavity spec has indices 0 and 1 only; -1 would write a Q_E_-1 column
    monkeypatch.setattr(cs.assembly, "solve_sweep", _no_solve)
    cavs = (cs.Cavity(0.0, 0.05, (cs.Layer(0.0, -1.0, 1.5 + 0j),)),
            cs.Cavity(0.1, 0.15, (cs.Layer(0.0, -1.0, 1.5 + 0j),)))
    spec_path = _write_spec(tmp_path, cs.ProblemSpec(cs.IncidentWave(1.5, 0.0), "TE", cavs, N=3))
    out = tmp_path / "out"
    assert cli.main(["enhance", "--spec", str(spec_path), "--out", str(out),
                     "--kappa-min", "1.4", "--kappa-max", "1.6", "--kappa-steps", "3",
                     "--cavity", cavity]) == cli.EXIT_INPUT
    assert "--cavity: must be a cavity index in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_huge_aperture_exits_2_naming_the_cavity(tmp_path, capsys):
    doc = cs.model.spec_to_dict(_tiny_tm())
    doc["kappa0"] = 2e12 * pi  # w = 1, so kappa0*w/(2 pi) = 1e12
    spec_path = tmp_path / "huge.json"
    spec_path.write_text(json.dumps(doc))
    assert cli.main(["solve", "--spec", str(spec_path),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert "cavities[0]: aperture scale" in capsys.readouterr().err


def test_enhance_sweep_past_the_aperture_bound_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch):
    # the spec itself is valid (c = 0.24); the sweep's top wavenumber reaches c = 65
    monkeypatch.setattr(cs.assembly, "solve_sweep", _no_solve)
    spec_path = _write_spec(tmp_path, _tiny_te())
    out = tmp_path / "out"
    assert cli.main(["enhance", "--spec", str(spec_path), "--out", str(out),
                     "--kappa-min", "1.5", "--kappa-max", str(130 * pi),
                     "--kappa-steps", "3"]) == cli.EXIT_INPUT
    assert "cavities[0]: aperture scale" in capsys.readouterr().err
    assert not out.exists()
