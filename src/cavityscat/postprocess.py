"""Field reconstruction, radar cross-section, enhancement factor, CSV export."""

from __future__ import annotations

import cmath
import csv
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .assembly import (ApertureSolution, SystemFactorization, build_system,
                       exp_trig_integral)
from .errors import UnsupportedPolarizationError, ValidationError
from .modal import (ModalTables, build_modal_tables, interior_coefficients,
                    vertical_profile, vertical_profile_dy)
from .model import ProblemSpec, validate
from .quadrature import SingularBlockCache, composite_nodes, gauss_rule


@dataclass(frozen=True)
class FieldMap:
    """Sampled complex field values; every point lies inside a declared cavity."""

    x: np.ndarray
    y: np.ndarray
    cavity: np.ndarray  # cavity index per point
    layer: np.ndarray   # layer index per point
    values: np.ndarray  # complex


@dataclass(frozen=True)
class RcsSweep:
    angles: np.ndarray    # observation angles phi in (0, pi)
    sigma: np.ndarray     # linear RCS
    sigma_db: np.ndarray  # 10 log10 sigma
    rcond: float | None = None  # 1-norm rcond estimate of the shared system


def _interface_coefficients(spec: ProblemSpec, tables: ModalTables,
                            solution: ApertureSolution, k: int, n: int):
    cav = spec.cavities[k]
    u0 = solution.coefficient(k, n)
    return interior_coefficients(cav, spec.polarization, tables.coeffs(k, n),
                                 tables.connection(k, n), u0)


_SNAP = 1e-12  # relative slack for boundary samples hit by roundoff


def _locate_layer(cav, y: float) -> int:
    tol = _SNAP * max(1.0, cav.depth)
    if y > tol or y < -cav.depth - tol:
        raise ValidationError("y", f"point y = {y} outside cavity depth [{-cav.depth}, 0]")
    for li, lay in enumerate(cav.layers):
        if y >= lay.y_bottom:
            return li
    return cav.L - 1


def locate_cavity(spec: ProblemSpec, x: float) -> int:
    for k, cav in enumerate(spec.cavities):
        if cav.a <= x <= cav.b:
            return k
    raise ValidationError("x", f"point x = {x} lies outside every aperture")


def field_at(spec: ProblemSpec, tables: ModalTables, solution: ApertureSolution,
             x: float, y: float, k: int | None = None) -> complex:
    """Total field inside cavity k at (x, y): mode profiles times the
    sine (TM) or cosine (TE) transverse factors."""
    if k is None:
        k = locate_cavity(spec, x)
    cav = spec.cavities[k]
    tol = _SNAP * max(1.0, abs(cav.a), abs(cav.b))
    if not (cav.a - tol <= x <= cav.b + tol):
        raise ValidationError("x", f"point x = {x} outside cavity {k} aperture [{cav.a}, {cav.b}]")
    li = _locate_layer(cav, y)  # validates the y range before clamping
    x = min(max(x, cav.a), cav.b)
    y = min(max(y, -cav.depth), 0.0)
    lay = cav.layers[li]
    trig = np.sin if spec.polarization == "TM" else np.cos
    xi = pi * (x - cav.a) / cav.w
    total = 0.0 + 0.0j
    for n in tables.modes():
        ifc = _interface_coefficients(spec, tables, solution, k, n)
        prof = vertical_profile(lay, tables.coeffs(k, n).betas[li], ifc[li], ifc[li + 1], y)
        total += prof * trig(n * xi)
    return total


def field_grid(spec: ProblemSpec, tables: ModalTables, solution: ApertureSolution,
               k: int, nx: int, ny: int) -> FieldMap:
    """Field on an nx-by-ny grid spanning cavity k (boundaries included)."""
    cav = spec.cavities[k]
    xs = np.linspace(cav.a, cav.b, nx)
    ys = np.linspace(-cav.depth, 0.0, ny)
    trig = np.sin if spec.polarization == "TM" else np.cos
    xi = pi * (xs - cav.a) / cav.w
    layer_of = np.array([_locate_layer(cav, y) for y in ys])
    modes = list(tables.modes())
    # profile values per (mode, y)
    prof = np.zeros((len(modes), ny), dtype=complex)
    for mi, n in enumerate(modes):
        ifc = _interface_coefficients(spec, tables, solution, k, n)
        betas = tables.coeffs(k, n).betas
        for li in range(cav.L):
            sel = layer_of == li
            if not np.any(sel):
                continue
            prof[mi, sel] = vertical_profile(cav.layers[li], betas[li],
                                             ifc[li], ifc[li + 1], ys[sel])
    tr = trig(np.asarray(modes)[:, None] * xi[None, :])
    vals = prof.T @ tr  # (ny, nx)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    return FieldMap(x=X.ravel(), y=Y.ravel(),
                    cavity=np.full(X.size, k, dtype=int),
                    layer=np.repeat(layer_of, nx),
                    values=vals.ravel())


def diagonal_trace(spec: ProblemSpec, tables: ModalTables, solution: ApertureSolution,
                   k: int, samples: int = 200) -> FieldMap:
    """Field sampled along the cavity diagonal from (a, 0) to (b, -depth)."""
    cav = spec.cavities[k]
    ts = np.linspace(0.0, 1.0, samples)
    xs = cav.a + ts * cav.w
    ys = -ts * cav.depth
    vals = np.array([field_at(spec, tables, solution, x, y, k) for x, y in zip(xs, ys)])
    layers = np.array([_locate_layer(cav, y) for y in ys])
    return FieldMap(x=xs, y=ys, cavity=np.full(samples, k, dtype=int),
                    layer=layers, values=vals)


# ---------------------------------------------------------------------------
# Radar cross-section (TM only: the aperture formula has no TE analogue here)


def rcs_tm(spec: ProblemSpec, solution: ApertureSolution, phi: float) -> float:
    """sigma(phi) = kappa0 |sin(phi) I_Gamma u^s e^{i kappa0 cos(phi) x} dx|^2.

    On the aperture the TM incident and reflected traces cancel, so the
    scattered trace equals the total trace and the integral is a closed-form
    sum over modes.
    """
    if spec.polarization != "TM":
        raise UnsupportedPolarizationError("RCS aperture formula is defined for TM only")
    if not (0.0 < phi < pi):
        raise ValidationError("phi", f"observation angle must lie in (0, pi), got {phi}")
    k0 = spec.wave.kappa0
    ax = k0 * np.cos(phi)
    total = 0.0 + 0.0j
    for k, cav in enumerate(spec.cavities):
        phase = cmath.exp(1j * ax * cav.a)
        for n in range(1, spec.N + 1):
            total += (solution.coefficient(k, n) * phase
                      * exp_trig_integral(ax, n * pi / cav.w, cav.w, "sin"))
    return float(k0 * abs(np.sin(phi) * total) ** 2)


def _phase_integrals(p: np.ndarray, w: float) -> np.ndarray:
    """(e^{i p w} - 1)/(i p) elementwise, w at p = 0 (array form of the
    incident-vector phase integral)."""
    zero = p == 0.0
    ps = np.where(zero, 1.0, p)
    return np.where(zero, w, np.expm1(1j * ps * w) / (1j * ps))


def _aperture_phases(alphas: np.ndarray, cav, modes) -> np.ndarray:
    """e^{i alpha a} I_0^w e^{i alpha x} sin(m pi x/w) dx for every alpha (rows)
    and mode m (columns): `exp_trig_integral` in closed form over arrays."""
    mu = np.asarray(modes, dtype=float) * pi / cav.w
    a = alphas[:, None]
    sin_part = (_phase_integrals(a + mu, cav.w) - _phase_integrals(a - mu, cav.w)) / 2j
    return np.exp(1j * alphas * cav.a)[:, None] * sin_part


def backscatter_sweep(spec: ProblemSpec, angles) -> RcsSweep:
    """Monostatic sweep: for each observation angle phi the incident angle is
    theta = pi/2 - phi (observation equals incidence).  The system matrix is
    independent of theta, so one factorization serves every angle.

    With alpha = kappa0 cos(phi) the incident vector of a row is -2i beta
    times the same aperture phase integral that the far-field amplitude
    weights its coefficient with, so one phase matrix gives every right-hand
    side (one multi-column solve) and every amplitude (one product)."""
    if spec.polarization != "TM":
        raise UnsupportedPolarizationError("RCS aperture formula is defined for TM only")
    angles = np.asarray(angles, dtype=float)
    if np.any(angles <= 0.0) or np.any(angles >= pi):
        raise ValidationError("angles", "observation angles must lie in (0, pi)")
    spec = validate(spec)
    tables = build_modal_tables(spec)
    base = build_system(spec, tables, SingularBlockCache(spec.quad))
    fact = SystemFactorization(base)
    k0 = spec.wave.kappa0
    alpha = k0 * np.cos(angles)
    beta = k0 * np.sin(angles)
    phases = np.concatenate([_aperture_phases(alpha, cav, base.layout.modes)
                             for cav in spec.cavities], axis=1)
    sol = fact.solve((-2j * beta[:, None] * phases).T)
    coeffs = np.concatenate(sol.coefficients)  # (rows, angles)
    amp = np.sin(angles) * np.einsum("ar,ra->a", phases, coeffs)
    sigma = k0 * np.abs(amp) ** 2
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.where(sigma > 0, sigma, np.nan))
    return RcsSweep(angles=angles, sigma=sigma, sigma_db=db, rcond=fact.rcond)


# ---------------------------------------------------------------------------
# Field enhancement


def enhancement(spec: ProblemSpec, tables: ModalTables, solution: ApertureSolution,
                k: int, points_per_layer: int = 16) -> float:
    """Q_E = ||u||_{L2(cavity)} / ||u^i||_{L2(cavity)} for cavity k.

    Modal orthogonality turns the numerator into sum_n c_n I |u^(n)(y)|^2 dy
    with c_n = w/2 (w for the TE n = 0 mode); the y-integral runs per layer
    on the closed-form profile.  |u^i| = 1 for the plane wave, so the
    denominator is sqrt(w * depth).
    """
    cav = spec.cavities[k]
    rule = gauss_rule(4)
    panels = max(1, points_per_layer // 4)
    num = 0.0
    for n in tables.modes():
        ifc = _interface_coefficients(spec, tables, solution, k, n)
        betas = tables.coeffs(k, n).betas
        acc = 0.0
        for li, lay in enumerate(cav.layers):
            ys, wy = composite_nodes(lay.y_bottom, lay.y_top, panels, rule)
            vals = vertical_profile(lay, betas[li], ifc[li], ifc[li + 1], ys)
            acc += float(np.sum(wy * np.abs(vals) ** 2))
        c_n = cav.w if (spec.polarization == "TE" and n == 0) else 0.5 * cav.w
        num += c_n * acc
    return sqrt(num / (cav.w * cav.depth))


def interface_value_jump(spec: ProblemSpec, tables: ModalTables, solution: ApertureSolution,
                         k: int, li: int, x: float) -> tuple[complex, complex]:
    """Field exactly on interface li (1..L-1) of cavity k, evaluated from the
    closed-form profiles of the layers above and below."""
    cav = spec.cavities[k]
    y = cav.layers[li].y_top
    trig = np.sin if spec.polarization == "TM" else np.cos
    xi = pi * (x - cav.a) / cav.w
    above = below = 0.0 + 0.0j
    for n in tables.modes():
        ifc = _interface_coefficients(spec, tables, solution, k, n)
        betas = tables.coeffs(k, n).betas
        tr = trig(n * xi)
        above += vertical_profile(cav.layers[li - 1], betas[li - 1], ifc[li - 1], ifc[li], y) * tr
        below += vertical_profile(cav.layers[li], betas[li], ifc[li], ifc[li + 1], y) * tr
    return above, below


def te_flux_jump(spec: ProblemSpec, tables: ModalTables, solution: ApertureSolution,
                 k: int, li: int, x: float) -> tuple[complex, complex]:
    """(1/kappa^2) d_y u from above and below interface li (1..L-1) of cavity k,
    evaluated from the closed-form profile derivative."""
    cav = spec.cavities[k]
    y = cav.layers[li].y_top
    trig = np.sin if spec.polarization == "TM" else np.cos
    xi = pi * (x - cav.a) / cav.w
    above = below = 0.0 + 0.0j
    for n in tables.modes():
        ifc = _interface_coefficients(spec, tables, solution, k, n)
        betas = tables.coeffs(k, n).betas
        tr = trig(n * xi)
        above += vertical_profile_dy(cav.layers[li - 1], betas[li - 1], ifc[li - 1], ifc[li], y) * tr
        below += vertical_profile_dy(cav.layers[li], betas[li], ifc[li], ifc[li + 1], y) * tr
    ka = cav.layers[li - 1].kappa
    kb = cav.layers[li].kappa
    return above / (ka * ka), below / (kb * kb)


# ---------------------------------------------------------------------------
# CSV export (17 significant digits, deterministic row order)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def export_grid(fieldmap: FieldMap, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x", "y", "cavity", "layer", "re_u", "im_u", "abs_u"])
        for i in range(len(fieldmap.x)):
            v = fieldmap.values[i]
            wr.writerow([_fmt(fieldmap.x[i]), _fmt(fieldmap.y[i]),
                         int(fieldmap.cavity[i]), int(fieldmap.layer[i]),
                         _fmt(v.real), _fmt(v.imag), _fmt(abs(v))])


def export_sweep(sweep: RcsSweep, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["phi_rad", "sigma", "sigma_db"])
        for i in range(len(sweep.angles)):
            wr.writerow([_fmt(sweep.angles[i]), _fmt(sweep.sigma[i]), _fmt(sweep.sigma_db[i])])


def export_enhancement(kappas, q_columns: dict[int, np.ndarray], path) -> None:
    """Columns: kappa, then Q_E per cavity index (sorted)."""
    keys = sorted(q_columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["kappa"] + [f"Q_E_{k}" for k in keys])
        for i, kap in enumerate(kappas):
            wr.writerow([_fmt(kap)] + [_fmt(float(q_columns[k][i])) for k in keys])
