"""Command-line front end.

Subcommands: solve, field, rcs, enhance, convergence, validate.  Every
subcommand is a pure function of (spec file, flags) to (files, exit code):
outputs are CSV plus a JSON manifest written atomically next to them.
Exit codes: 0 success, 1 validation-suite failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from math import pi
from pathlib import Path

import numpy as np

from . import _moments, assembly, postprocess, quadrature
from .errors import (CavityScatError, ConnectionResonanceError, ModalResonanceError,
                     SingularSystemError, ValidationError)
from .model import IncidentWave, load_spec, spec_to_dict
from .postprocess import _fmt

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
# the keys of oracle.TOLERANCE_PROFILES, named here so that parsing the
# command line does not import the oracle
TOLERANCE_PROFILE_NAMES = ("default", "strict")


@dataclass
class RunManifest:
    """What a subcommand ran and produced; written atomically next to outputs.

    wall_time_s is the only field that varies between identical reruns."""

    subcommand: str
    spec: str | None
    resolved: dict
    outputs: list
    wall_time_s: float
    diagnostics: dict = field(default_factory=dict)
    schema: int = 1

    def write(self, out_dir: Path) -> None:
        """Strict JSON: non-finite floats (a NaN fitted order, say) become null."""
        tmp = out_dir / "manifest.json.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(_finite_or_null(asdict(self)), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
        os.replace(tmp, out_dir / "manifest.json")


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def _write_manifest(out_dir: Path, subcommand: str, spec_path, resolved: dict,
                    outputs: list[str], wall_time: float, diagnostics: dict) -> None:
    RunManifest(subcommand=subcommand, spec=str(spec_path) if spec_path else None,
                resolved=resolved, outputs=outputs, wall_time_s=wall_time,
                diagnostics=diagnostics).write(out_dir)


def _solution_diag(sol) -> dict:
    return {"rcond": sol.rcond, "backward_error": sol.backward_error,
            "size": sol.layout.size, "warnings": list(sol.diagnostics)}


def _series_diag(specs) -> dict:
    """The log-series truncation K per cavity and the working digits of the
    fold, each the maximum over the given specs."""
    Ks, dps = [], 0
    for s in specs:
        scales = [s.wave.kappa0 * cav.w / (2.0 * pi) for cav in s.cavities]
        row = [quadrature.bessel_truncation(c, s.quad) for c in scales]
        dps = max(dps, *(_moments._series_dps(c, K) for c, K in zip(scales, row)))
        Ks.append(row)
    return {"bessel_K": [max(col) for col in zip(*Ks)], "series_dps": dps}


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    spec = load_spec(args.spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tables, sol = assembly.solve(spec)
    path = out / "coefficients.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["cavity", "mode", "re_u", "im_u", "abs_u"])
        for k in range(spec.K):
            for n in tables.modes():
                v = sol.coefficient(k, n)
                wr.writerow([k, n, _fmt(v.real), _fmt(v.imag), _fmt(abs(v))])
    _write_manifest(out, "solve", args.spec, {"quadrature": spec_to_dict(spec)["quadrature"]},
                    [path.name], time.perf_counter() - t0, _solution_diag(sol))
    print(f"solved {spec.polarization} system of size {sol.layout.size} "
          f"(rcond {sol.rcond:.2e}) -> {path}")
    return EXIT_OK


def cmd_field(args) -> int:
    t0 = time.perf_counter()
    spec = load_spec(args.spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    nx, ny = args.grid
    tables, sol = assembly.solve(spec)
    maps = [postprocess.field_grid(spec, tables, sol, k, nx, ny) for k in range(spec.K)]
    fm = postprocess.FieldMap(
        x=np.concatenate([m.x for m in maps]),
        y=np.concatenate([m.y for m in maps]),
        cavity=np.concatenate([m.cavity for m in maps]),
        layer=np.concatenate([m.layer for m in maps]),
        values=np.concatenate([m.values for m in maps]))
    path = out / "field.csv"
    postprocess.export_grid(fm, path)
    _write_manifest(out, "field", args.spec, {"grid": [nx, ny]}, [path.name],
                    time.perf_counter() - t0, _solution_diag(sol))
    print(f"field grid {nx}x{ny} per cavity -> {path}")
    return EXIT_OK


def cmd_rcs(args) -> int:
    t0 = time.perf_counter()
    spec = load_spec(args.spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    angles = np.linspace(args.phi_min, args.phi_max, args.angles)
    sweep = postprocess.backscatter_sweep(spec, angles)
    path = out / "rcs.csv"
    postprocess.export_sweep(sweep, path)
    _write_manifest(out, "rcs", args.spec,
                    {"angles": args.angles, "phi_min": args.phi_min, "phi_max": args.phi_max},
                    [path.name], time.perf_counter() - t0,
                    {"rcond": sweep.rcond, "backward_error": sweep.backward_error,
                     "size": spec.K * spec.N, **_series_diag([spec])})
    print(f"backscatter sweep over {args.angles} angles -> {path}")
    return EXIT_OK


def _rescaled_spec(spec, kappa0: float):
    """Scale the scenario to a new illumination wavenumber: every layer
    wavenumber scales proportionally (non-dispersive media)."""
    ratio = kappa0 / spec.wave.kappa0
    from .model import Cavity, Layer
    cavities = tuple(
        Cavity(c.a, c.b, tuple(Layer(l.y_top, l.y_bottom, l.kappa * ratio)
                               for l in c.layers))
        for c in spec.cavities)
    return replace(spec, wave=IncidentWave(kappa0=kappa0, theta=spec.wave.theta),
                   cavities=cavities)


def cmd_enhance(args) -> int:
    t0 = time.perf_counter()
    spec = load_spec(args.spec)
    if args.cavity is not None and not 0 <= args.cavity < spec.K:
        raise ValidationError("--cavity", f"must be a cavity index in [0, {spec.K - 1}], "
                                          f"got {args.cavity}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kappas = np.linspace(args.kappa_min, args.kappa_max, args.kappa_steps)
    cavs = [args.cavity] if args.cavity is not None else list(range(spec.K))
    # rcond, backward error, then Q_E per cavity
    rows = np.full((len(kappas), 2 + len(cavs)), np.nan)
    failed = []
    specs = [_rescaled_spec(spec, float(kap)) for kap in kappas]
    for i, sp in enumerate(specs):
        try:  # a failed wavenumber leaves NaN in its row and a record in the manifest
            tables, sol = assembly.solve(sp)
            rows[i] = [sol.rcond, sol.backward_error] + [
                postprocess.enhancement(sp, tables, sol, k) for k in cavs]
        except (ModalResonanceError, ConnectionResonanceError, SingularSystemError) as exc:
            failed.append({"kappa": float(kappas[i]), "error": str(exc)})
    rconds = rows[:, 0]
    path = out / "enhancement.csv"
    postprocess.export_enhancement(kappas, dict(zip(cavs, rows[:, 2:].T)), path)
    diagnostics = {"size": assembly.ModeLayout(spec.polarization, spec.N, spec.K).size,
                   "rcond_below_warn": int(np.count_nonzero(rconds < assembly.RCOND_WARN)),
                   "failed": failed, **_series_diag(specs)}
    if len(failed) < len(kappas):
        worst = int(np.nanargmin(rconds))
        diagnostics.update(rcond_min=float(rconds[worst]), rcond_min_kappa=float(kappas[worst]),
                           backward_error_max=float(np.nanmax(rows[:, 1])))
    _write_manifest(out, "enhance", args.spec,
                    {"kappa_min": args.kappa_min, "kappa_max": args.kappa_max,
                     "kappa_steps": args.kappa_steps, "cavities": cavs},
                    [path.name], time.perf_counter() - t0, diagnostics)
    print(f"enhancement spectrum over {args.kappa_steps} wavenumbers -> {path}")
    return EXIT_OK


def convergence_study(spec, levels: int):
    """Self-convergence ladder: panels double per level, errors measured in the
    discrete aperture-coefficient L2 norm against the finest level."""
    base = spec.quad.panels
    ladder = [base * 2 ** j for j in range(levels + 1)]
    solutions = []
    for panels in ladder:
        sp = replace(spec, quad=replace(spec.quad, panels=panels))
        _, sol = assembly.solve(sp)
        solutions.append(np.concatenate(sol.coefficients))
    ref = solutions[-1]
    hs = np.array([2.0 * pi / p for p in ladder[:-1]])
    errs = np.array([float(np.linalg.norm(u - ref)) for u in solutions[:-1]])
    keep = errs > 1e-13 * max(1.0, float(np.linalg.norm(ref)))
    if np.count_nonzero(keep) >= 2:
        order = float(np.polyfit(np.log(hs[keep]), np.log(errs[keep]), 1)[0])
    else:
        order = float("nan")
    return ladder, errs, order


def cmd_convergence(args) -> int:
    t0 = time.perf_counter()
    spec = load_spec(args.spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ladder, errs, order = convergence_study(spec, args.levels)
    path = out / "convergence.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["level", "panels", "h", "l2_error_vs_finest"])
        for j, (p, e) in enumerate(zip(ladder[:-1], errs)):
            wr.writerow([j, p, _fmt(2.0 * pi / p), _fmt(e)])
    _write_manifest(out, "convergence", args.spec,
                    {"levels": args.levels, "base_panels": spec.quad.panels},
                    [path.name], time.perf_counter() - t0,
                    {"fitted_order": order, "reference_panels": ladder[-1]})
    for j, (p, e) in enumerate(zip(ladder[:-1], errs)):
        print(f"  level {j}: panels {p:5d}  error {e:.3e}")
    print(f"fitted order: {order:.2f} ({spec.polarization})")
    return EXIT_OK


def cmd_validate(args) -> int:
    t0 = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    from . import oracle  # scipy.special: only this subcommand pays its import
    reports = oracle.validation_reports(oracle.TOLERANCE_PROFILES[args.tolerance_profile])
    path = out / "oracle_report.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["case", "oracle_re", "oracle_im", "production_re", "production_im",
                     "abs_err", "rel_err", "grid", "passed"])
        for r in reports:
            wr.writerow([r.case_id, _fmt(r.oracle_value.real), _fmt(r.oracle_value.imag),
                         _fmt(r.production_value.real), _fmt(r.production_value.imag),
                         _fmt(r.abs_err), _fmt(r.rel_err), r.grid, int(r.converged)])
    failures = [r for r in reports if not r.converged]
    _write_manifest(out, "validate", None, {"tolerance_profile": args.tolerance_profile},
                    [path.name], time.perf_counter() - t0,
                    {"cases": len(reports), "failures": len(failures)})
    for r in reports:
        mark = "ok  " if r.converged else "FAIL"
        print(f"  [{mark}] {r.case_id}: rel_err {r.rel_err:.3e}")
    print(f"validation: {len(reports) - len(failures)}/{len(reports)} cases passed -> {path}")
    return EXIT_OK if not failures else EXIT_VALIDATION


def _flag_type(convert, valid, requirement: str):
    """An argparse type: convert(text) where valid(value) holds.  Any other
    text exits 2 with a message that names the flag and the requirement."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


_COUNT = _flag_type(int, lambda v: v >= 1, "an integer >= 1")
_POSITIVE = _flag_type(float, lambda v: 0.0 < v < float("inf"), "a finite number > 0")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cavityscat",
                                 description="Modal solver for rectangular-cavity scattering")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, spec=True):
        if spec:
            p.add_argument("--spec", required=True, help="JSON scenario file")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("solve", help="solve and dump aperture coefficients")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("field", help="sample the interior field on a grid")
    add_common(p)
    p.add_argument("--grid", type=_COUNT, nargs=2, default=(61, 61), metavar=("NX", "NY"))
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("rcs", help="TM backscatter sweep")
    add_common(p)
    p.add_argument("--angles", type=_COUNT, default=181)
    p.add_argument("--phi-min", type=float, default=pi / 180.0)
    p.add_argument("--phi-max", type=float, default=pi - pi / 180.0)
    p.set_defaults(func=cmd_rcs)

    p = sub.add_parser("enhance", help="enhancement-factor spectrum over kappa0")
    add_common(p)
    p.add_argument("--kappa-min", type=_POSITIVE, required=True)
    p.add_argument("--kappa-max", type=_POSITIVE, required=True)
    p.add_argument("--kappa-steps", type=_COUNT, default=101)
    p.add_argument("--cavity", type=int, default=None, help="cavity index (default: all)")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("convergence", help="self-convergence table under panel refinement")
    add_common(p)
    p.add_argument("--levels", type=_COUNT, default=5)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("validate", help="run the oracle suites")
    add_common(p, spec=False)
    p.add_argument("--tolerance-profile", choices=TOLERANCE_PROFILE_NAMES, default="default")
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CavityScatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
