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

from . import assembly, oracle, postprocess, quadrature
from .errors import CavityScatError
from .model import IncidentWave, load_spec, spec_to_dict

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2


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
        tmp = out_dir / "manifest.json.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, out_dir / "manifest.json")


def _write_manifest(out_dir: Path, subcommand: str, spec_path, resolved: dict,
                    outputs: list[str], wall_time: float, diagnostics: dict) -> None:
    RunManifest(subcommand=subcommand, spec=str(spec_path) if spec_path else None,
                resolved=resolved, outputs=outputs, wall_time_s=wall_time,
                diagnostics=diagnostics).write(out_dir)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _solution_diag(sol) -> dict:
    return {"rcond": sol.rcond, "size": sol.layout.size,
            "warnings": list(sol.diagnostics)}


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
                    {"rcond": sweep.rcond, "size": spec.K * spec.N})
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kappas = np.linspace(args.kappa_min, args.kappa_max, args.kappa_steps)
    cavs = [args.cavity] if args.cavity is not None else list(range(spec.K))
    cols = {k: np.empty(len(kappas)) for k in cavs}
    rconds = np.empty(len(kappas))
    for i, kap in enumerate(kappas):
        sp = _rescaled_spec(spec, float(kap))
        tables, sol = assembly.solve(sp)
        rconds[i] = sol.rcond
        for k in cavs:
            cols[k][i] = postprocess.enhancement(sp, tables, sol, k)
    path = out / "enhancement.csv"
    postprocess.export_enhancement(kappas, cols, path)
    diagnostics = {"size": assembly.ModeLayout(spec.polarization, spec.N, spec.K).size,
                   "rcond_below_warn": int(np.count_nonzero(rconds < assembly.RCOND_WARN))}
    if len(kappas):
        worst = int(np.argmin(rconds))
        diagnostics.update(rcond_min=float(rconds[worst]), rcond_min_kappa=float(kappas[worst]))
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


# --- validation suites -------------------------------------------------------

_PROFILES = {
    "default": {"block_modes": [1, 2, 3, 5], "block_scales": [0.25, 1.0],
                "block_rtol": 1e-8, "tridiag_rtol": 1e-12, "fd_order_min": 1.9,
                "recursion_rtol": 1e-9},
    "strict": {"block_modes": [1, 2, 3, 4, 5, 8, 10], "block_scales": [0.25, 1.0, 4.0],
               "block_rtol": 1e-8, "tridiag_rtol": 1e-12, "fd_order_min": 1.9,
               "recursion_rtol": 1e-10},
}


def _validate_reports(profile: dict):
    from .model import Cavity, Layer, ProblemSpec, QuadratureConfig, validate
    reports = []
    cfg = QuadratureConfig(panels=96, points_per_panel=6)

    # production singular blocks vs graded oracle
    for c in profile["block_scales"]:
        for kind in ("sin", "cos"):
            for m in profile["block_modes"]:
                for n in profile["block_modes"]:
                    if (m + n) % 2 or m > n:
                        continue
                    prod = quadrature.singular_block(m, n, c, kind, cfg)
                    rep = oracle.kernel_block_report(kind, m, n, c, prod,
                                                     tol=0.1 * profile["block_rtol"])
                    rep.converged = rep.rel_err <= profile["block_rtol"]
                    reports.append(rep)

    # recursion identities on the exact moments
    for (k, n, m, kind) in [(1, 1, 1, "sin"), (3, 2, 4, "sin"), (5, 3, 3, "sin"),
                            (1, 0, 2, "cos"), (3, 1, 1, "cos"), (5, 2, 4, "cos")]:
        if kind == "sin":
            lhs = oracle.log_double_moment_sin(k, n, m)
            rhs = oracle.s_recursion_rhs(k, n, m)
        else:
            lhs = oracle.log_double_moment_cos(k, n, m)
            rhs = oracle.p_recursion_rhs(k, n, m)
        rep = oracle.OracleReport.from_values(
            f"recursion/{kind}/k{k}/n{n}/m{m}", rhs, lhs)
        rep.converged = rep.rel_err <= profile["recursion_rtol"]
        reports.append(rep)

    # dense re-solve of connection systems
    rng = np.random.default_rng(11)
    for trial in range(6):
        L = int(rng.integers(2, 9))
        edges = np.sort(rng.uniform(0.15, 1.6, L - 1))
        ys = [0.0] + list(-edges) + [-2.0]
        layers = []
        for li in range(L):
            kap = complex(rng.uniform(0.5, 9.0), rng.uniform(0.0, 2.0) * (li % 2))
            layers.append(Layer(y_top=ys[li], y_bottom=ys[li + 1], kappa=kap))
        cav = Cavity(a=-0.5, b=0.5, layers=tuple(layers))
        for polarization in ("TM", "TE"):
            n = int(rng.integers(1, 12))
            rep = oracle.dense_tridiag_check(cav, polarization, n, kappa0=2.0)
            rep.converged = rep.abs_err <= profile["tridiag_rtol"]
            reports.append(rep)

    # FD Helmholtz residual order on a small two-layer scenario (N small keeps
    # every retained mode in the stencil's asymptotic range)
    for polarization in ("TM", "TE"):
        spec = validate(ProblemSpec(
            wave=IncidentWave(kappa0=1.5, theta=pi / 9), polarization=polarization,
            cavities=(Cavity(a=-0.5, b=0.5, layers=(
                Layer(0.0, -0.7, 1.5 + 0j), Layer(-0.7, -1.5, 3.0 + 0.5j))),),
            N=10, quad=QuadratureConfig(panels=32)))
        tables, sol = assembly.solve(spec)
        rep = oracle.fd_interior_check(spec, tables, sol, points_per_layer=8)
        rep.converged = rep.oracle_value.real >= profile["fd_order_min"]
        reports.append(rep)
    return reports


def cmd_validate(args) -> int:
    t0 = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    profile = _PROFILES[args.tolerance_profile]
    reports = _validate_reports(profile)
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
    p.add_argument("--grid", type=int, nargs=2, default=(61, 61), metavar=("NX", "NY"))
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("rcs", help="TM backscatter sweep")
    add_common(p)
    p.add_argument("--angles", type=int, default=181)
    p.add_argument("--phi-min", type=float, default=pi / 180.0)
    p.add_argument("--phi-max", type=float, default=pi - pi / 180.0)
    p.set_defaults(func=cmd_rcs)

    p = sub.add_parser("enhance", help="enhancement-factor spectrum over kappa0")
    add_common(p)
    p.add_argument("--kappa-min", type=float, required=True)
    p.add_argument("--kappa-max", type=float, required=True)
    p.add_argument("--kappa-steps", type=int, default=101)
    p.add_argument("--cavity", type=int, default=None, help="cavity index (default: all)")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("convergence", help="self-convergence table under panel refinement")
    add_common(p)
    p.add_argument("--levels", type=int, default=5)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("validate", help="run the oracle suites")
    add_common(p, spec=False)
    p.add_argument("--tolerance-profile", choices=sorted(_PROFILES), default="default")
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
