"""Field reconstruction, radar cross-section, enhancement factor, CSV export."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import pi

import numpy as np

from .assembly import ApertureSolution, SystemFactorization, build_system, system_phases
from .errors import UnsupportedPolarizationError, ValidationError
from .modal import (ModalTables, build_modal_tables, interior_coefficients,
                    layer_profiles, mode_norms)
from .model import ProblemSpec, validate
from .quadrature import composite_nodes, gauss_rule

# The enhancement y-integrals: 4 panels of four-point Gauss per layer.  The
# n >= 1 profiles of a narrow cavity decay within a small part of a layer, so
# for two w = 0.05, depth-1 cavities at kappa0 = 1.45 this rule leaves Q_E
# about 3e-8 (relative) off the value it converges to at 1024 points.
_ENHANCE_RULE = gauss_rule(4)
_ENHANCE_PANELS = 4


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
    rcond: float | None = None  # exact 1-norm rcond of the shared system
    backward_error: float | None = None  # of the multi-angle solve, worst angle


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


def _mode_profiles(spec: ProblemSpec, tables: ModalTables, solution, k: int, ys, layers):
    """Mode numbers of cavity k, and the profile values and y-derivatives of
    every mode at the ordinates ys lying in the given layers (modes x points).
    For a sweep (tables with an array kappa0, solution one per wavenumber)
    both arrays carry a leading wavenumber axis.

    The interface coefficients of all modes (modes x L+1) are built once; each
    layer then evaluates all of its points in one array call."""
    cav = spec.cavities[k]
    mc = tables.cavities[k]
    u0 = (np.array([sol.coefficients[k] for sol in solution]) if np.ndim(tables.kappa0)
          else solution.coefficients[k])
    ifc = interior_coefficients(spec.polarization, mc, u0)
    ys = np.asarray(ys, dtype=float)
    values = np.empty(ifc.shape[:-1] + (len(ys),), dtype=complex)
    dy = np.empty_like(values)
    for li in range(cav.L):  # not np.unique(layers), which imports numpy.ma
        sel = layers == li
        if not sel.any():
            continue
        values[..., sel], dy[..., sel] = layer_profiles(
            cav.layers[li], mc.betas[..., li], ifc[..., li], ifc[..., li + 1], ys[sel],
            modes=mc.n, layer_index=li, cavity=k)
    return mc.n, values, dy


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
    total = system_phases(spec, k0 * np.cos(phi))[0] @ np.concatenate(solution.coefficients)
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
    if angles.size == 0:
        raise ValidationError("angles", "at least one observation angle is required")
    if not np.all((angles > 0.0) & (angles < pi)):
        raise ValidationError("angles", "observation angles must lie in (0, pi)")
    spec = validate(spec)
    tables = build_modal_tables(spec)
    fact = SystemFactorization(build_system(spec, tables))
    k0 = spec.wave.kappa0
    alpha = k0 * np.cos(angles)
    beta = k0 * np.sin(angles)
    phases = system_phases(spec, alpha)
    sol = fact.solve((-2j * beta[:, None] * phases).T)
    coeffs = np.concatenate(sol.coefficients)  # (rows, angles)
    amp = np.sin(angles) * np.einsum("ar,ra->a", phases, coeffs)
    sigma = k0 * np.abs(amp) ** 2
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.where(sigma > 0, sigma, np.nan))
    return RcsSweep(angles=angles, sigma=sigma, sigma_db=db, rcond=fact.rcond,
                    backward_error=sol.backward_error)


# ---------------------------------------------------------------------------
# Field enhancement


def enhancement(spec: ProblemSpec, tables: ModalTables, solution, k: int):
    """Q_E = ||u||_{L2(cavity)} / ||u^i||_{L2(cavity)} for cavity k.

    Modal orthogonality turns the numerator into the sum over modes n of
    `mode_norms` times I |u^(n)(y)|^2 dy; the y-integral runs per layer
    on the closed-form profile.  |u^i| = 1 for the plane wave, so the
    denominator is sqrt(w * depth).  For a sweep (tables with an array
    kappa0, solution one per wavenumber) it returns the array of Q_E over
    the wavenumbers.
    """
    cav = spec.cavities[k]
    nodes = [composite_nodes(lay.y_bottom, lay.y_top, _ENHANCE_PANELS, _ENHANCE_RULE)
             for lay in cav.layers]
    ys = np.concatenate([n[0] for n in nodes])
    wy = np.concatenate([n[1] for n in nodes])
    layers = np.repeat(np.arange(cav.L), _ENHANCE_PANELS * _ENHANCE_RULE.q)
    modes, prof, _ = _mode_profiles(spec, tables, solution, k, ys, layers)
    # summed over the modes row by row: a wavenumber's Q_E is the same in any chunk
    q = np.sqrt(((np.abs(prof) ** 2 @ wy) * mode_norms(modes, cav.w)).sum(-1) / (cav.w * cav.depth))
    return float(q) if np.ndim(q) == 0 else q


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


def write_csv(path, header: list, rows) -> None:
    """The one CSV writer: floats (numpy floats too) as `_fmt` writes them,
    every other cell as it is."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([_fmt(v) if isinstance(v, (float, np.floating)) else v for v in row]
                     for row in rows)


def export_grid(fieldmap: FieldMap, path) -> None:
    # the scalar abs: np.abs rounds some moduli differently in the last bit
    v = fieldmap.values
    write_csv(path, ["x", "y", "cavity", "layer", "re_u", "im_u", "abs_u"],
              zip(fieldmap.x, fieldmap.y, fieldmap.cavity, fieldmap.layer,
                  v.real, v.imag, map(abs, v)))


def export_sweep(sweep: RcsSweep, path) -> None:
    write_csv(path, ["phi_rad", "sigma", "sigma_db"],
              zip(sweep.angles, sweep.sigma, sweep.sigma_db))


def export_enhancement(kappas, q_columns: dict[int, np.ndarray], path) -> None:
    """Columns: kappa, then Q_E per cavity index (sorted)."""
    keys = sorted(q_columns)
    write_csv(path, ["kappa"] + [f"Q_E_{k}" for k in keys],
              zip(kappas, *(q_columns[k] for k in keys)))
