"""Slow ground-truth evaluators, and consistency identities on the exact moments.

The evaluators deliberately avoid the production quadrature code paths:
the kernel blocks are integrated in the raw (s, t) coordinates on meshes
geometrically graded toward the diagonal and the corners (no kernel
splitting, no moment recursions), special functions come from scipy, and the
tri-diagonal connection solves are re-done densely.  These evaluators mint
the reference values that the production engine is tested against.

The last section is not independent of production: it reads the exact
moment tables of `_moments` that the singular blocks use and checks them
against the downward recursion identities and against direct Gauss sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi

import mpmath as mp
import numpy as np
import scipy.special as sp

from . import _moments
from .errors import OracleConvergenceError, ValidationError
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
    grid = f"steps={list(steps)}"
    hs, res = np.asarray(steps), np.asarray(norms)
    pos = res > 0
    if np.count_nonzero(pos) < 2:
        # a vanishing residual (a zero field) has no order to fit: report it
        # as exact, at the expected order with no error
        return OracleReport(f"fd/{spec.polarization}", complex(2.0), complex(2.0), 0.0, 0.0,
                            grid=grid, extra={"norms": norms, "exact": True})
    order = float(np.polyfit(np.log(hs[pos]), np.log(res[pos]), 1)[0])
    return OracleReport(f"fd/{spec.polarization}", complex(order), complex(2.0),
                        abs(order - 2.0), abs(order - 2.0) / 2.0,
                        grid=grid, extra={"norms": norms})


# ---------------------------------------------------------------------------
# Consistency identities on `_moments` (not independent quadrature)
#
# The functions below read the exact moment tables of `_moments`, which the
# production singular blocks also use, and check them against the downward
# recursion family (one step from order k + 2 must give order k) and against
# direct Gauss sums that are only sound where the integrand is smooth enough.
# They confirm the tables are self-consistent; the graded-mesh kernel blocks
# above are what checks the production quadrature independently.


def poly_trig_integral(p: int, n: int, kind: str) -> float:
    """Exact I s^p trig(n s/2) ds over [0, 2*pi] (kind 'sin' or 'cos')."""
    if p < 0 or n < 0:
        raise ValidationError("poly_trig_integral", "p and n must be >= 0")
    if kind not in ("sin", "cos"):
        raise ValidationError("kind", f"expected 'sin' or 'cos', got {kind!r}")
    return float(_moments.trig_moment_mp(p, n, kind))


def double_poly_trig(k: int, n: int, m: int, kind_s: str, kind_t: str) -> float:
    """Exact II trig(n s/2) (t-s)^k trig(m t/2) ds dt by binomial expansion."""
    if k < 0:
        raise ValidationError("double_poly_trig", "k must be >= 0")
    if k > 40:
        raise ValidationError("double_poly_trig", f"order too high: k = {k} > 40")
    with mp.workdps(40 + k):
        total = mp.mpf(0)
        for j in range(k + 1):
            cj = mp.binomial(k, j) * (-1) ** (k - j)
            total += (cj * _moments.trig_moment_mp(k - j, n, kind_s)
                      * _moments.trig_moment_mp(j, m, kind_t))
        return float(total)


def log_power_moment(k: int, n: int, kind: str) -> float:
    """W_k(n) = I sin(n s/2) s^{k+1} ln s ds  (kind 'sin'), or
    X_k(n) = I cos(n s/2) s^k ln s ds  (kind 'cos'); exact values."""
    if kind == "sin":
        return float(_moments.log_trig_moment_mp(k + 1, n, "sin"))
    if kind == "cos":
        return float(_moments.log_trig_moment_mp(k, n, "cos"))
    raise ValidationError("kind", f"expected 'sin' or 'cos', got {kind!r}")


def log_double_moment_sin(k: int, n: int, m: int) -> float:
    """S_k(n, m) = II (t-s)^{k-1} ln|t-s| sin(m t/2) sin(n s/2); 0 for odd m+n."""
    if k < 1 or k % 2 == 0:
        raise ValidationError("log_double_moment_sin", f"k must be odd and >= 1, got {k}")
    return float(_moments.s_moment_mp(k, n, m))


def log_double_moment_cos(k: int, n: int, m: int) -> float:
    """P_k(n, m) = II (t-s)^{k-1} ln|t-s| cos(m t/2) cos(n s/2); 0 for odd m+n."""
    if k < 1 or k % 2 == 0:
        raise ValidationError("log_double_moment_cos", f"k must be odd and >= 1, got {k}")
    return float(_moments.p_moment_mp(k, n, m))


# -- the downward recursion family


def w_recurrence_rhs(k: int, n: int) -> float:
    """A_k(n) - (n/2)^2/((k+2)(k+3)) W_{k+2}(n); equals W_k(n)."""
    a_k = (0.5 * n / (k + 2) * (1.0 / (k + 2) + 1.0 / (k + 3)) * poly_trig_integral(k + 2, n, "cos")
           - (-1.0) ** n * n / (2.0 * (k + 2) * (k + 3)) * TWO_PI ** (k + 3) * np.log(TWO_PI))
    return a_k - (0.5 * n) ** 2 / ((k + 2) * (k + 3)) * log_power_moment(k + 2, n, "sin")


def x_recurrence_rhs(k: int, n: int) -> float:
    """Y_k(n) - (n/2)^2/((k+1)(k+2)) X_{k+2}(n); equals X_k(n)."""
    y_k = (-0.5 * n / (k + 1) * (1.0 / (k + 1) + 1.0 / (k + 2)) * poly_trig_integral(k + 1, n, "sin")
           + (-1.0) ** n * TWO_PI ** (k + 1) / (k + 1) ** 2 * ((k + 1) * np.log(TWO_PI) - 1.0))
    return y_k - (0.5 * n) ** 2 / ((k + 1) * (k + 2)) * log_power_moment(k + 2, n, "cos")


def s_recursion_rhs(k: int, n: int, m: int) -> float:
    """One step of the sine-family downward recursion from S_{k+2}; equals S_k."""
    par = (-1.0) ** (m + n) - (-1.0) ** k
    return (-(0.5 * m) ** 2 / (k * (k + 1)) * log_double_moment_sin(k + 2, n, m)
            + (0.5 * m) ** 2 / (k * (k + 1) ** 2) * double_poly_trig(k + 1, n, m, "sin", "sin")
            + 0.5 * m / (k * k) * double_poly_trig(k, n, m, "sin", "cos")
            - 0.5 * m / (k * (k + 1) ** 2) * par * poly_trig_integral(k + 1, n, "sin")
            + 0.5 * m / (k * (k + 1)) * par * log_power_moment(k, n, "sin"))


def p_recursion_rhs(k: int, n: int, m: int) -> float:
    """One step of the cosine-family downward recursion from P_{k+2}; equals P_k."""
    par = (-1.0) ** (m + n) - (-1.0) ** k
    return (-(0.5 * m) ** 2 / (k * (k + 1)) * log_double_moment_cos(k + 2, n, m)
            + (0.5 * m) ** 2 / (k * (k + 1) ** 2) * double_poly_trig(k + 1, n, m, "cos", "cos")
            - 0.5 * m / (k * k) * double_poly_trig(k, n, m, "cos", "sin")
            - par / (k * k) * poly_trig_integral(k, n, "cos")
            + par / k * log_power_moment(k, n, "cos"))


def log_double_moment_direct(kind: str, k: int, n: int, m: int,
                             panels: int = 48, q: int = 8) -> float:
    """Tensor-Gauss evaluation of S_k/P_k; only sound for large k (about
    k >= 11), where the integrand is C^{k-2} (validation path)."""
    f = np.sin if kind == "sin" else np.cos
    pts, wts = _nodes_on_edges(np.linspace(0.0, TWO_PI, panels + 1), q)
    S, T = np.meshgrid(pts, pts, indexing="ij")
    D = T - S
    A = np.abs(D)
    with np.errstate(divide="ignore"):
        lnA = np.where(A > 0, np.log(np.where(A > 0, A, 1.0)), 0.0)
    vals = D ** (k - 1) * lnA
    return (wts * f(0.5 * n * pts)) @ vals @ (wts * f(0.5 * m * pts))


def log_power_moment_direct(k: int, n: int, kind: str, levels: int = 40, q: int = 10) -> float:
    """Endpoint-graded composite Gauss for W_k/X_k (validation path)."""
    power = k + 1 if kind == "sin" else k
    f = np.sin if kind == "sin" else np.cos
    edges = np.concatenate(([0.0], TWO_PI * 0.5 ** np.arange(levels, -1.0, -1.0)))
    pts, wts = _nodes_on_edges(edges, q)
    return float(np.sum(wts * pts ** power * np.log(pts) * f(0.5 * n * pts)))
