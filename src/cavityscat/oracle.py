"""Slow, independent ground-truth evaluators.

Everything here deliberately avoids the production quadrature code paths:
the kernel blocks are integrated in the raw (s, t) coordinates on meshes
geometrically graded toward the diagonal and the corners (no kernel
splitting, no moment recursions), special functions come from scipy, and the
tri-diagonal connection solves are re-done densely.  These evaluators mint
the reference values that the production engine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi

import numpy as np
import scipy.special as sp

from .errors import OracleConvergenceError
from .modal import mode_coefficients
from .model import ProblemSpec

TWO_PI = 2.0 * pi

# Geometric grading toward singular points: panel sizes shrink by this ratio.
GRADING_RATIO = 0.15
DEFAULT_LEVELS = 12
DEFAULT_TOL = 1e-10


@dataclass
class OracleReport:
    case_id: str
    oracle_value: complex
    production_value: complex
    abs_err: float
    rel_err: float
    grid: str = ""
    converged: bool = True
    extra: dict = field(default_factory=dict)

    @staticmethod
    def from_values(case_id: str, oracle_value, production_value, grid: str = "",
                    converged: bool = True, **extra) -> "OracleReport":
        ov = complex(oracle_value)
        pv = complex(production_value)
        ae = abs(ov - pv)
        re = ae / abs(ov) if ov != 0 else (0.0 if ae == 0 else float("inf"))
        return OracleReport(case_id, ov, pv, ae, re, grid=grid, converged=converged,
                            extra=dict(extra))


def _cap_edges(edges: np.ndarray, max_h: float) -> np.ndarray:
    """Split any panel wider than max_h uniformly, so refining the uniform
    panel count refines every part of the mesh (the geometric panels near a
    singular point would otherwise keep their size across rounds)."""
    out = [edges[0]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        parts = int(np.ceil((hi - lo) / max_h))
        if parts > 1:
            out.extend(np.linspace(lo, hi, parts + 1)[1:])
        else:
            out.append(hi)
    return np.asarray(out)


def _unit_edges(levels: int, ratio: float, uniform: int) -> np.ndarray:
    """Partition of [0, 1] graded toward 0: geometric panels down to
    ratio**levels, then uniform panels on [ratio, 1]; no panel wider than
    the uniform width."""
    geo = ratio ** np.arange(levels, 0, -1)
    uni = np.linspace(ratio, 1.0, uniform + 1)[1:]
    return _cap_edges(np.concatenate(([0.0], geo, uni)), (1.0 - ratio) / uniform)


def _gauss(q: int):
    return np.polynomial.legendre.leggauss(q)


def _nodes_on_edges(edges: np.ndarray, q: int):
    x, w = _gauss(q)
    lo = edges[:-1]
    h = np.diff(edges)
    pts = (lo[:, None] + 0.5 * h[:, None] * (x[None, :] + 1.0)).ravel()
    wts = (0.5 * h[:, None] * w[None, :]).ravel()
    return pts, wts


def _graded_pass(f, levels: int, ratio: float, uniform: int, q: int) -> complex:
    """One full pass of the nested graded quadrature of f(t, s) over [0, 2*pi]^2.

    Outer t-mesh graded toward both corners; per outer node the inner s-mesh
    is the unit grading scaled onto [0, t] (singular end at s = t) and
    [t, 2*pi] (same), so the whole pass is two tensor evaluations.
    """
    ue = _unit_edges(levels, ratio, uniform)
    uv, uw = _nodes_on_edges(ue, q)

    half = _unit_edges(levels, ratio, uniform)  # graded toward 0
    outer_edges = np.unique(np.concatenate((pi * half, TWO_PI - pi * half)))
    t, wt = _nodes_on_edges(outer_edges, q)

    s_left = t[:, None] * (1.0 - uv[None, :])
    s_right = t[:, None] + (TWO_PI - t)[:, None] * uv[None, :]
    tmat = np.broadcast_to(t[:, None], s_left.shape)
    inner = (t * (f(tmat, s_left) @ uw)) + ((TWO_PI - t) * (f(tmat, s_right) @ uw))
    return complex(np.sum(wt * inner))


def graded_singular_integral(f, tol: float = DEFAULT_TOL, levels: int = DEFAULT_LEVELS,
                             ratio: float = GRADING_RATIO, uniform: int = 8, q: int = 10,
                             max_rounds: int = 5, atol: float = 1e-14):
    """II f(t, s) ds dt over [0, 2*pi]^2 for integrands with a log-type
    singularity on the diagonal (and at worst weak corner effects).

    f must accept (t, s) arrays of equal shape.  Refines (panels doubled,
    grading deepened) until two successive passes differ by < tol relative
    to the value (absolute floor atol), else raises OracleConvergenceError.
    Returns (value, history).
    """
    history = []
    prev = None
    for _ in range(max_rounds):
        val = _graded_pass(f, levels, ratio, uniform, q)
        history.append(val)
        if prev is not None and abs(val - prev) <= max(tol * abs(val), atol):
            return val, history
        prev = val
        uniform *= 2
        levels += 4
        q += 4  # the self-similar graded panels only refine through the order
    raise OracleConvergenceError(
        f"graded quadrature did not converge to {tol:g} in {max_rounds} rounds", history)


def kernel_block(kind: str, m: int, n: int, c: float, tol: float = DEFAULT_TOL,
                 uniform: int | None = None, atol: float = 1e-14):
    """Reference value of II trig(n s/2) H0^(1)(c|s-t|) trig(m t/2) ds dt."""
    trig = np.sin if kind == "sin" else np.cos

    def f(t, s):
        d = np.abs(s - t)
        d = np.where(d > 0, d, 1e-300)
        z = c * d
        return trig(0.5 * n * s) * (sp.j0(z) + 1j * sp.y0(z)) * trig(0.5 * m * t)

    if uniform is None:
        uniform = max(8, int(2.0 * (c + 0.5 * max(m, n))))
    return graded_singular_integral(f, tol=tol, uniform=uniform, atol=atol)


def kernel_block_report(kind: str, m: int, n: int, c: float, production: complex,
                        tol: float = DEFAULT_TOL) -> OracleReport:
    val, hist = kernel_block(kind, m, n, c, tol=tol)
    return OracleReport.from_values(
        f"block/{kind}/m{m}/n{n}/c{c:g}", val, production,
        grid=f"rounds={len(hist)}", converged=True)


def dense_tridiag_check(cavity, polarization: str, n: int, kappa0: float | None = None,
                        cavity_index: int | None = None) -> OracleReport:
    """Re-solve the unit-load connection system densely and report the max
    elementwise deviation from the production tri-diagonal elimination."""
    from .modal import connection_te, connection_tm
    mc = mode_coefficients(cavity, n, cavity_index=cavity_index)
    L = cavity.L
    if polarization == "TM":
        conn = connection_tm(cavity, n, coeffs=mc)
        dim = L - 1
        if dim == 0:
            return OracleReport.from_values(f"tridiag/TM/n{n}", 0.0, 0.0, grid="L=1")
        A = np.zeros((dim, dim), dtype=complex)
        for l in range(dim):
            A[l, l] = mc.b[l] + mc.b[l + 1]
            if l + 1 < dim:
                A[l, l + 1] = mc.a[l + 1]
                A[l + 1, l] = mc.a[l + 1]
    else:
        conn = connection_te(cavity, n, kappa0, coeffs=mc)
        dim = L
        k2 = [lay.kappa ** 2 for lay in cavity.layers]
        A = np.zeros((dim, dim), dtype=complex)
        for l in range(dim):
            A[l, l] = mc.b[l] / k2[l] + (mc.b[l + 1] / k2[l + 1] if l + 1 < L else 0.0)
            if l + 1 < dim:
                A[l, l + 1] = mc.a[l + 1] / k2[l + 1]
                A[l + 1, l] = mc.a[l + 1] / k2[l + 1]
    rhs = np.zeros(dim, dtype=complex)
    rhs[0] = 1.0
    dense = np.linalg.solve(A, rhs)
    prod = np.asarray(conn.u_hat)
    dev = float(np.max(np.abs(dense - prod)) / max(1.0, float(np.max(np.abs(dense)))))
    return OracleReport(f"tridiag/{polarization}/n{n}/L{L}", complex(dev), complex(0),
                        dev, dev, grid=f"dim={dim}")


def fd_interior_check(spec: ProblemSpec, tables, solution,
                      steps=(1e-2, 5e-3, 2.5e-3), points_per_layer: int = 20,
                      seed: int = 7) -> OracleReport:
    """Central-difference Helmholtz residual of the reconstructed field at
    random interior points; reports the observed order across the step ladder."""
    from .postprocess import _field_points
    rng = np.random.default_rng(seed)
    margin = 2.05 * max(steps)
    points = []  # fixed across the ladder, or the order measurement is noise
    for k, cav in enumerate(spec.cavities):
        for li, lay in enumerate(cav.layers):
            y0w, y1w = lay.y_bottom + margin, lay.y_top - margin
            x0w, x1w = cav.a + margin, cav.b - margin
            if y1w <= y0w or x1w <= x0w:
                continue
            for _ in range(points_per_layer):
                points.append((k, lay.kappa, rng.uniform(x0w, x1w), rng.uniform(y0w, y1w)))
    ks, kap, xs, ys = (np.array(col) for col in zip(*points))
    kap2 = kap * kap
    norms = []
    for h in steps:
        u0 = np.empty(len(points), dtype=complex)
        lap = np.empty_like(u0)
        for k in np.unique(ks):
            sel = ks == k
            u, xp, xm, yp, ym = (
                _field_points(spec, tables, solution, int(k), xs[sel] + dx, ys[sel] + dy)[1]
                for dx, dy in ((0.0, 0.0), (h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)))
            u0[sel] = u
            lap[sel] = (xp + xm + yp + ym - 4.0 * u) / (h * h)
        scale = np.abs(kap2) * np.maximum(np.abs(u0), 1e-6)
        norms.append(float(np.median(np.abs(lap + kap2 * u0) / scale)))
    ls = np.log(np.asarray(steps))
    ln = np.log(np.asarray(norms))
    order = float(np.polyfit(ls, ln, 1)[0])
    return OracleReport(f"fd/{spec.polarization}", complex(order), complex(2.0),
                        abs(order - 2.0), abs(order - 2.0) / 2.0,
                        grid=f"steps={list(steps)}", extra={"norms": norms})
