"""Command-line front end.

Subcommands: solve, field, rcs, enhance, convergence, validate.  Each is a
body `cmd_x(spec, args, out)` that computes, writes its CSV files and returns
a `Run`; `main` alone loads the spec, times the run, writes the JSON manifest
atomically next to the CSVs and maps input errors to exit 2.
Exit codes: 0 success, 1 validation-suite failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from math import pi
from pathlib import Path

import numpy as np

from . import _moments, assembly, postprocess
from .errors import (CavityScatError, ConnectionResonanceError, ModalResonanceError,
                     SingularSystemError, ValidationError)
from .model import IncidentWave, load_spec, spec_to_dict

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


def _output(out: Path, name: str) -> Path:
    """The path of one output; --out is created here, after the body's input checks."""
    out.mkdir(parents=True, exist_ok=True)
    return out / name


# what a subcommand body produced: output names, the resolved flags, the
# diagnostics, the lines to print and the exit code
Run = namedtuple("Run", "outputs resolved diagnostics lines code", defaults=(EXIT_OK,))


def _solution_diag(spec, sol) -> dict:
    return {"rcond": sol.rcond, "backward_error": sol.backward_error,
            "size": sol.layout.size, "warnings": list(sol.diagnostics), **_series_diag([spec])}


def _series_diag(specs) -> dict:
    """The log-series truncation K per cavity and the working digits of the
    fold, each the maximum over the given specs."""
    Ks, dps = [], 0
    for s in specs:
        scales = [s.wave.kappa0 * cav.w / (2.0 * pi) for cav in s.cavities]
        row = [_moments.bessel_K_for(c) for c in scales]
        dps = max(dps, *(_moments._series_dps(c, K) for c, K in zip(scales, row)))
        Ks.append(row)
    return {"bessel_K": [max(col) for col in zip(*Ks)], "series_dps": dps}


def cmd_solve(spec, args, out: Path) -> Run:
    tables, sol = assembly.solve(spec)
    path = _output(out, "coefficients.csv")
    postprocess.write_csv(path, ["cavity", "mode", "re_u", "im_u", "abs_u"],
                          ([k, n, v.real, v.imag, abs(v)]
                           for k in range(spec.K) for n in tables.modes()
                           for v in [sol.coefficient(k, n)]))
    return Run([path.name], {"quadrature": spec_to_dict(spec)["quadrature"]},
               _solution_diag(spec, sol),
               [f"solved {spec.polarization} system of size {sol.layout.size} "
                f"(rcond {sol.rcond:.2e}) -> {path}"])


def cmd_field(spec, args, out: Path) -> Run:
    nx, ny = args.grid
    tables, sol = assembly.solve(spec)
    maps = [postprocess.field_grid(spec, tables, sol, k, nx, ny) for k in range(spec.K)]
    fm = postprocess.FieldMap(
        x=np.concatenate([m.x for m in maps]),
        y=np.concatenate([m.y for m in maps]),
        cavity=np.concatenate([m.cavity for m in maps]),
        layer=np.concatenate([m.layer for m in maps]),
        values=np.concatenate([m.values for m in maps]))
    path = _output(out, "field.csv")
    postprocess.export_grid(fm, path)
    return Run([path.name], {"grid": [nx, ny]}, _solution_diag(spec, sol),
               [f"field grid {nx}x{ny} per cavity -> {path}"])


def cmd_rcs(spec, args, out: Path) -> Run:
    angles = np.linspace(args.phi_min, args.phi_max, args.angles)
    sweep = postprocess.backscatter_sweep(spec, angles)
    path = _output(out, "rcs.csv")
    postprocess.export_sweep(sweep, path)
    return Run([path.name],
               {"angles": args.angles, "phi_min": args.phi_min, "phi_max": args.phi_max},
               {"rcond": sweep.rcond, "backward_error": sweep.backward_error,
                "size": spec.K * spec.N, **_series_diag([spec])},
               [f"backscatter sweep over {args.angles} angles -> {path}"])


def _rescaled_spec(spec, kappa0: float):
    """Scale the scenario to a new illumination wavenumber: every layer
    wavenumber scales proportionally (non-dispersive media)."""
    ratio = kappa0 / spec.wave.kappa0
    cavities = tuple(replace(c, layers=tuple(replace(l, kappa=l.kappa * ratio) for l in c.layers))
                     for c in spec.cavities)
    return replace(spec, wave=IncidentWave(kappa0=kappa0, theta=spec.wave.theta),
                   cavities=cavities)


def cmd_enhance(spec, args, out: Path) -> Run:
    if args.cavity is not None and not 0 <= args.cavity < spec.K:
        raise ValidationError("--cavity", f"must be a cavity index in [0, {spec.K - 1}], "
                                          f"got {args.cavity}")
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
    path = _output(out, "enhancement.csv")
    postprocess.export_enhancement(kappas, dict(zip(cavs, rows[:, 2:].T)), path)
    diagnostics = {"size": assembly.ModeLayout(spec.polarization, spec.N, spec.K).size,
                   "rcond_below_warn": int(np.count_nonzero(rconds < assembly.RCOND_WARN)),
                   "failed": failed, **_series_diag(specs)}
    if len(failed) < len(kappas):
        worst = int(np.nanargmin(rconds))
        diagnostics.update(rcond_min=float(rconds[worst]), rcond_min_kappa=float(kappas[worst]),
                           backward_error_max=float(np.nanmax(rows[:, 1])))
    return Run([path.name], {"kappa_min": args.kappa_min, "kappa_max": args.kappa_max,
                             "kappa_steps": args.kappa_steps, "cavities": cavs},
               diagnostics, [f"enhancement spectrum over {args.kappa_steps} wavenumbers -> {path}"])


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


def cmd_convergence(spec, args, out: Path) -> Run:
    ladder, errs, order = convergence_study(spec, args.levels)
    levels = list(zip(ladder[:-1], errs))
    path = _output(out, "convergence.csv")
    postprocess.write_csv(path, ["level", "panels", "h", "l2_error_vs_finest"],
                          ([j, p, 2.0 * pi / p, e] for j, (p, e) in enumerate(levels)))
    return Run([path.name], {"levels": args.levels, "base_panels": spec.quad.panels},
               {"fitted_order": order, "reference_panels": ladder[-1]},
               [f"  level {j}: panels {p:5d}  error {e:.3e}" for j, (p, e) in enumerate(levels)]
               + [f"fitted order: {order:.2f} ({spec.polarization})"])


def cmd_validate(spec, args, out: Path) -> Run:
    from . import oracle  # scipy.special: only this subcommand pays its import
    reports = oracle.validation_reports(oracle.TOLERANCE_PROFILES[args.tolerance_profile])
    path = _output(out, "oracle_report.csv")
    postprocess.write_csv(path, ["case", "oracle_re", "oracle_im", "production_re",
                                 "production_im", "abs_err", "rel_err", "grid", "passed"],
                          ([r.case_id, r.oracle_value.real, r.oracle_value.imag,
                            r.production_value.real, r.production_value.imag, r.abs_err,
                            r.rel_err, r.grid, int(r.converged)]
                           for r in reports))
    failures = [r for r in reports if not r.converged]
    lines = [f"  [{'ok  ' if r.converged else 'FAIL'}] {r.case_id}: rel_err {r.rel_err:.3e}"
             for r in reports]
    lines.append(f"validation: {len(reports) - len(failures)}/{len(reports)} cases passed "
                 f"-> {path}")
    return Run([path.name], {"tolerance_profile": args.tolerance_profile},
               {"cases": len(reports), "failures": len(failures)}, lines,
               EXIT_VALIDATION if failures else EXIT_OK)


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

    def add(name, body, summary, spec=True):
        p = sub.add_parser(name, help=summary)
        if spec:
            p.add_argument("--spec", required=True, help="JSON scenario file")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=body)
        return p

    add("solve", cmd_solve, "solve and dump aperture coefficients")
    p = add("field", cmd_field, "sample the interior field on a grid")
    p.add_argument("--grid", type=_COUNT, nargs=2, default=(61, 61), metavar=("NX", "NY"))
    p = add("rcs", cmd_rcs, "TM backscatter sweep")
    p.add_argument("--angles", type=_COUNT, default=181)
    p.add_argument("--phi-min", type=float, default=pi / 180.0)
    p.add_argument("--phi-max", type=float, default=pi - pi / 180.0)
    p = add("enhance", cmd_enhance, "enhancement-factor spectrum over kappa0")
    p.add_argument("--kappa-min", type=_POSITIVE, required=True)
    p.add_argument("--kappa-max", type=_POSITIVE, required=True)
    p.add_argument("--kappa-steps", type=_COUNT, default=101)
    p.add_argument("--cavity", type=int, default=None, help="cavity index (default: all)")
    p = add("convergence", cmd_convergence, "self-convergence table under panel refinement")
    p.add_argument("--levels", type=_COUNT, default=5)
    p = add("validate", cmd_validate, "run the oracle suites", spec=False)
    p.add_argument("--tolerance-profile", choices=TOLERANCE_PROFILE_NAMES, default="default")
    return ap


def main(argv=None) -> int:
    """Parse, load the spec, run one subcommand body, then write its manifest
    and print its summary.  Any CavityScatError exits 2 with no manifest."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    spec_path = getattr(args, "spec", None)  # validate reads no spec
    out = Path(args.out)
    try:
        run = args.func(load_spec(spec_path) if spec_path else None, args, out)
    except CavityScatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    RunManifest(subcommand=args.command, spec=spec_path, resolved=run.resolved,
                outputs=run.outputs, wall_time_s=time.perf_counter() - t0,
                diagnostics=run.diagnostics).write(out)
    for line in run.lines:
        print(line)
    return run.code


if __name__ == "__main__":
    sys.exit(main())
