"""Field reconstruction, radar cross-section, enhancement factor, CSV export."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .assembly import (ApertureSolution, SystemFactorization, aperture_phases,
                       build_system)
from .errors import UnsupportedPolarizationError, ValidationError
from .modal import (ModalTables, build_modal_tables, interior_coefficients,
                    layer_profiles, mode_numbers)
from .model import ProblemSpec, validate
from .quadrature import SingularBlockCache, composite_nodes, gauss_rule

# Four-point Gauss panels of the enhancement y-integrals.
_ENHANCE_RULE = gauss_rule(4)


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


_SNAP = 1e-12  # relative slack for boundary samples hit by roundoff


def _locate_layer(cav, y) -> np.ndarray:
    """Layer index of each ordinate in y (an interface belongs to the layer
    above it)."""
    y = np.asarray(y, dtype=float)
    tol = _SNAP * max(1.0, cav.depth)
    outside = (y > tol) | (y < -cav.depth - tol)
    if np.any(outside):
        raise ValidationError("y", f"point y = {float(y[outside].flat[0])} outside cavity "
                                   f"depth [{-cav.depth}, 0]")
    bottoms = np.array([lay.y_bottom for lay in cav.layers])
    return np.minimum(np.searchsorted(-bottoms, -y), cav.L - 1)


def locate_cavity(spec: ProblemSpec, x: float) -> int:
    for k, cav in enumerate(spec.cavities):
        if cav.a <= x <= cav.b:
            return k
    raise ValidationError("x", f"point x = {x} lies outside every aperture")


def _mode_profiles(spec: ProblemSpec, tables: ModalTables, solution: ApertureSolution,
                   k: int, ys, layers):
    """Mode numbers of cavity k, and the profile values and y-derivatives of
    every mode at the ordinates ys lying in the given layers (modes x points).

    The interface coefficients of all modes (modes x L+1) are built once; each
    layer then evaluates all of its points in one array call."""
    cav = spec.cavities[k]
    modes = np.array(tables.modes())
    ifc = np.array([interior_coefficients(cav, spec.polarization, tables.coeffs(k, n),
                                          tables.connection(k, n), solution.coefficient(k, n))
                    for n in modes])
    betas = np.array([tables.coeffs(k, n).betas for n in modes])
    ys = np.asarray(ys, dtype=float)
    values = np.empty((len(modes), len(ys)), dtype=complex)
    dy = np.empty_like(values)
    for li in np.unique(layers):
        sel = layers == li
        values[:, sel], dy[:, sel] = layer_profiles(
            cav.layers[li], betas[:, li], ifc[:, li], ifc[:, li + 1], ys[sel],
            modes=modes, layer_index=int(li), cavity=k)
    return modes, values, dy


def _transverse(spec: ProblemSpec, cav, modes, xs) -> np.ndarray:
    """sin (TM) or cos (TE) of n pi (x - a)/w for every mode (rows) and x."""
    trig = np.sin if spec.polarization == "TM" else np.cos
    return trig(modes[:, None] * (pi * (np.asarray(xs, dtype=float) - cav.a) / cav.w)[None, :])


def _field_points(spec: ProblemSpec, tables: ModalTables, solution: ApertureSolution,
                  k: int, xs, ys):
    """Layer indices and total field at the points (xs, ys) of cavity k."""
    cav = spec.cavities[k]
    xs = np.asarray(xs, dtype=float)
    tol = _SNAP * max(1.0, abs(cav.a), abs(cav.b))
    outside = (xs < cav.a - tol) | (xs > cav.b + tol)
    if np.any(outside):
        raise ValidationError("x", f"point x = {float(xs[outside][0])} outside cavity {k} "
                                   f"aperture [{cav.a}, {cav.b}]")
    layers = _locate_layer(cav, ys)  # validates the y range before clamping
    ys = np.clip(ys, -cav.depth, 0.0)
    modes, prof, _ = _mode_profiles(spec, tables, solution, k, ys, layers)
    tr = _transverse(spec, cav, modes, np.clip(xs, cav.a, cav.b))
    return layers, np.einsum("mp,mp->p", prof, tr)


def field_at(spec: ProblemSpec, tables: ModalTables, solution: ApertureSolution,
             x: float, y: float, k: int | None = None) -> complex:
    """Total field inside cavity k at (x, y): mode profiles times the
    sine (TM) or cosine (TE) transverse factors."""
    if k is None:
        k = locate_cavity(spec, x)
    return complex(_field_points(spec, tables, solution, k, [x], [y])[1][0])


def field_grid(spec: ProblemSpec, tables: ModalTables, solution: ApertureSolution,
               k: int, nx: int, ny: int) -> FieldMap:
    """Field on an nx-by-ny grid spanning cavity k (boundaries included)."""
    cav = spec.cavities[k]
    xs = np.linspace(cav.a, cav.b, nx)
    ys = np.linspace(-cav.depth, 0.0, ny)
    layer_of = _locate_layer(cav, ys)
    modes, prof, _ = _mode_profiles(spec, tables, solution, k, ys, layer_of)
    vals = prof.T @ _transverse(spec, cav, modes, xs)  # (ny, nx)
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
    layers, vals = _field_points(spec, tables, solution, k, xs, ys)
    return FieldMap(x=xs, y=ys, cavity=np.full(samples, k, dtype=int),
                    layer=layers, values=vals)


# ---------------------------------------------------------------------------
# Radar cross-section (TM only: the aperture formula has no TE analogue here)


def _tm_phases(spec: ProblemSpec, alphas) -> np.ndarray:
    """`aperture_phases` (sin) of every cavity side by side: one row per
    alpha, one column per aperture coefficient in system order."""
    modes = mode_numbers("TM", spec.N)
    return np.concatenate([aperture_phases(alphas, cav, modes, "sin")
                           for cav in spec.cavities], axis=1)


def rcs_tm(spec: ProblemSpec, solution: ApertureSolution, phi: float) -> float:
    """sigma(phi) = kappa0 |sin(phi) I_Gamma u^s e^{i kappa0 cos(phi) x} dx|^2.

    On the aperture the TM incident and reflected traces cancel, so the
    scattered trace equals the total trace and the integral is the row of
    aperture phases at alpha = kappa0 cos(phi) times the coefficients.
    """
    if spec.polarization != "TM":
        raise UnsupportedPolarizationError("RCS aperture formula is defined for TM only")
    if not (0.0 < phi < pi):
        raise ValidationError("phi", f"observation angle must lie in (0, pi), got {phi}")
    k0 = spec.wave.kappa0
    total = _tm_phases(spec, k0 * np.cos(phi))[0] @ np.concatenate(solution.coefficients)
    return float(k0 * abs(np.sin(phi) * total) ** 2)


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
    phases = _tm_phases(spec, alpha)
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
    panels = max(1, points_per_layer // _ENHANCE_RULE.q)
    nodes = [composite_nodes(lay.y_bottom, lay.y_top, panels, _ENHANCE_RULE)
             for lay in cav.layers]
    ys = np.concatenate([n[0] for n in nodes])
    wy = np.concatenate([n[1] for n in nodes])
    layers = np.repeat(np.arange(cav.L), panels * _ENHANCE_RULE.q)
    modes, prof, _ = _mode_profiles(spec, tables, solution, k, ys, layers)
    c_n = np.where((modes == 0) & (spec.polarization == "TE"), cav.w, 0.5 * cav.w)
    num = float(c_n @ (np.abs(prof) ** 2 @ wy))
    return sqrt(num / (cav.w * cav.depth))


def interface_value_jump(spec: ProblemSpec, tables: ModalTables, solution: ApertureSolution,
                         k: int, li: int, x: float) -> tuple[complex, complex]:
    """Field exactly on interface li (1..L-1) of cavity k, evaluated from the
    closed-form profiles of the layers above and below."""
    cav = spec.cavities[k]
    y = cav.layers[li].y_top
    modes, prof, _ = _mode_profiles(spec, tables, solution, k, [y, y], np.array([li - 1, li]))
    above, below = _transverse(spec, cav, modes, [x])[:, 0] @ prof
    return complex(above), complex(below)


def te_flux_jump(spec: ProblemSpec, tables: ModalTables, solution: ApertureSolution,
                 k: int, li: int, x: float) -> tuple[complex, complex]:
    """(1/kappa^2) d_y u from above and below interface li (1..L-1) of cavity k,
    evaluated from the closed-form profile derivative."""
    cav = spec.cavities[k]
    y = cav.layers[li].y_top
    modes, _, dy = _mode_profiles(spec, tables, solution, k, [y, y], np.array([li - 1, li]))
    above, below = _transverse(spec, cav, modes, [x])[:, 0] @ dy
    return (complex(above / cav.layers[li - 1].kappa ** 2),
            complex(below / cav.layers[li].kappa ** 2))


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
