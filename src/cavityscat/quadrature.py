"""Gauss-Legendre machinery and the aperture-kernel quadrature.

A singular block is the parameter-square integral

    II trig(n s/2) H0^(1)(c |s-t|) trig(m t/2) ds dt,   c = kappa0 w / (2 pi),

assembled in three exact pieces: (i) zero when m+n is odd (parity lemma);
(ii) a tensor composite Gauss pass over the log-regularized kernel, which is
an entire function of (s-t); (iii) the log part (2i/pi) sum_k (-1)^k
(c/2)^{2k}/(k!)^2 {S|P}_{2k+1} carried by the exact 2-D log moments, plus a
Gauss pass over the C^{2K+2} Bessel-tail remainder times ln|s-t|.  K is
raised until that remainder is below roundoff, so the series carries the
whole singular weight; the moments come from `_moments` which evaluates them
exactly (the float-seeded downward recursions printed in the recurrence
family lose too much accuracy once c exceeds ~1 -- see the recursion
evaluators below, which are kept as consistency checks).  The series is
folded into three sums per frequency (`_moments.log_series_matrix`), and
the smooth integrand, a function of |s-t| alone, is evaluated once per
(panel offset, node, node) of the uniform grid and gathered by index.

Off-diagonal (cross-cavity) blocks have a smooth kernel and use plain tensor
Gauss with panels graded toward the facing edges when the gap is small.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from . import _moments, special
from .errors import ValidationError
from .model import Cavity, QuadratureConfig
from .special import KernelScale

TWO_PI = 2.0 * pi


@dataclass(frozen=True)
class GaussRule:
    nodes: np.ndarray    # on [-1, 1]
    weights: np.ndarray  # positive, sum 2

    @property
    def q(self) -> int:
        return len(self.nodes)


def gauss_rule(q: int) -> GaussRule:
    """Gauss-Legendre rule with q points; exact for polynomials of degree 2q-1."""
    if q < 2:
        raise ValidationError("points_per_panel", f"Gauss order must be >= 2, got {q}")
    x, w = np.polynomial.legendre.leggauss(q)
    return GaussRule(nodes=x, weights=w)


def composite_nodes(a: float, b: float, panels: int, rule: GaussRule):
    """Nodes/weights of the composite rule with uniform panels on [a, b]."""
    if panels < 1:
        raise ValidationError("panels", f"must be >= 1, got {panels}")
    h = (b - a) / panels
    starts = a + h * np.arange(panels)
    pts = (starts[:, None] + 0.5 * h * (rule.nodes[None, :] + 1.0)).ravel()
    wts = np.tile(0.5 * h * rule.weights, panels)
    return pts, wts


def composite_nodes_edges(edges: np.ndarray, rule: GaussRule):
    """Composite rule on the panel partition given by sorted edges."""
    lo = edges[:-1]
    h = np.diff(edges)
    pts = (lo[:, None] + 0.5 * h[:, None] * (rule.nodes[None, :] + 1.0)).ravel()
    wts = (0.5 * h[:, None] * rule.weights[None, :]).ravel()
    return pts, wts


def composite_integral_1d(f, a: float, b: float, panels: int, rule: GaussRule):
    pts, wts = composite_nodes(a, b, panels, rule)
    return np.sum(wts * f(pts))


def composite_integral_2d(f, panels: int, rule: GaussRule, a: float = 0.0, b: float = TWO_PI):
    """Tensor-product composite Gauss of f(s, t) over [a, b]^2 (default [0, 2*pi]^2)."""
    pts, wts = composite_nodes(a, b, panels, rule)
    S, T = np.meshgrid(pts, pts, indexing="ij")
    vals = f(S, T)
    return wts @ vals @ wts


# ---------------------------------------------------------------------------
# Exact moment surface


def poly_trig_integral(p: int, n: int, kind: str) -> float:
    """Exact I s^p trig(n s/2) ds over [0, 2*pi] (kind 'sin' or 'cos')."""
    if p < 0 or n < 0:
        raise ValidationError("poly_trig_integral", "p and n must be >= 0")
    if kind not in ("sin", "cos"):
        raise ValidationError("kind", f"expected 'sin' or 'cos', got {kind!r}")
    return _moments.trig_moment(p, n, kind)


def double_poly_trig(k: int, n: int, m: int, kind_s: str, kind_t: str) -> float:
    """Exact II trig(n s/2) (t-s)^k trig(m t/2) ds dt by binomial expansion."""
    if k < 0:
        raise ValidationError("double_poly_trig", "k must be >= 0")
    if k > 40:
        raise ValidationError("double_poly_trig", f"order too high: k = {k} > 40")
    import mpmath as mp
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
        return _moments.log_trig_moment(k + 1, n, "sin")
    if kind == "cos":
        return _moments.log_trig_moment(k, n, "cos")
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


# -- the downward recursion family, kept as independently checkable identities


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
    pts, wts = composite_nodes(0.0, TWO_PI, panels, gauss_rule(q))
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
    pts, wts = composite_nodes_edges(edges, gauss_rule(q))
    return float(np.sum(wts * pts ** power * np.log(pts) * f(0.5 * n * pts)))


# ---------------------------------------------------------------------------
# Singular diagonal blocks


def bessel_truncation(c: float, cfg: QuadratureConfig) -> int:
    return _moments.bessel_K_for(c, cfg.bessel_K)


def _offset_distances(pts: np.ndarray, panels: int) -> np.ndarray:
    """|s - t| on a uniform composite grid, one value per (panel offset
    P - Q, node i of panel P, node j of panel Q); the offset axis runs from
    1 - panels to panels - 1."""
    blocks = pts.reshape(panels, -1)
    offsets = np.arange(1 - panels, panels)
    rows = blocks[np.maximum(offsets, 0)]
    cols = blocks[np.maximum(-offsets, 0)]
    return np.abs(rows[:, :, None] - cols[:, None, :])


def _gather_offsets(per_offset: np.ndarray) -> np.ndarray:
    """Full grid matrix [P*q + i, Q*q + j] = per_offset[P - Q + panels - 1, i, j]."""
    n_off, q, _ = per_offset.shape
    panels = (n_off + 1) // 2
    idx = np.arange(panels)[:, None] - np.arange(panels)[None, :] + panels - 1
    return per_offset[idx].transpose(0, 2, 1, 3).reshape(panels * q, panels * q)


def _grid_kernel(c: float, pts: np.ndarray, panels: int, K: int) -> np.ndarray:
    """Combined smooth integrand on the tensor grid: regularized kernel plus
    (2i/pi) times the Bessel-tail remainder against ln|s-t|.

    It depends on |s-t| only, so it is evaluated once per (panel offset,
    node, node) and gathered into the full matrix."""
    D = _offset_distances(pts, panels)
    kern = special.regularized_kernel_abs(D, KernelScale(c))
    with np.errstate(divide="ignore"):
        lnD = np.where(D > 0, np.log(np.where(D > 0, D, 1.0)), 0.0)
    rem = special.j0_series_remainder(c * D, K)
    return _gather_offsets(kern + (2j / pi) * rem * lnD)


def singular_block_matrix(modes_m, modes_n, c: float, kind: str,
                          cfg: QuadratureConfig) -> np.ndarray:
    """All blocks [m, n] for the given mode lists at kernel scale c."""
    if c <= 0:
        raise ValidationError("c", "kernel scale must be positive")
    K = bessel_truncation(c, cfg)
    rule = gauss_rule(cfg.points_per_panel)
    pts, wts = composite_nodes(0.0, TWO_PI, cfg.panels, rule)
    kern = _grid_kernel(c, pts, cfg.panels, K)
    f = np.sin if kind == "sin" else np.cos
    modes_m = np.asarray(list(modes_m), dtype=int)
    modes_n = np.asarray(list(modes_n), dtype=int)
    Tm = f(0.5 * pts[:, None] * modes_m[None, :]) * wts[:, None]
    Tn = f(0.5 * pts[:, None] * modes_n[None, :]) * wts[:, None]
    out = Tm.T @ kern @ Tn
    # exact parity zeros and the exact log-part series
    out[(modes_m[:, None] + modes_n[None, :]) % 2 == 1] = 0.0
    return out + _moments.log_series_matrix(kind, modes_m, modes_n, c, K)


def singular_block(m: int, n: int, c: float, kind: str, cfg: QuadratureConfig) -> complex:
    """II trig(n s/2) H0^(1)(c|s-t|) trig(m t/2) ds dt; exactly 0 for odd m+n."""
    if (m + n) % 2:
        return 0.0 + 0.0j
    return complex(singular_block_matrix([m], [n], c, kind, cfg)[0, 0])


def _c_key(c: float) -> float:
    return float(f"{c:.15g}")


def _modes_key(modes) -> tuple:
    return tuple(int(m) for m in modes)


class SingularBlockCache:
    """Memo of singular-block matrices keyed by (kind, row modes, column
    modes, c to 15 significant digits).

    matrix() returns the stored square matrix (read-only), filling it by
    populate() in one tensor-grid pass on a miss; get() reads an entry from
    any stored matrix that holds it and otherwise stores a one-off 1x1 block.
    """

    def __init__(self, cfg: QuadratureConfig):
        self.cfg = cfg
        self._mats: dict[tuple, np.ndarray] = {}

    def _store(self, kind: str, rows: tuple, cols: tuple, c: float) -> np.ndarray:
        mat = singular_block_matrix(rows, cols, c, kind, self.cfg)
        mat.setflags(write=False)
        self._mats[(kind, rows, cols, _c_key(c))] = mat
        return mat

    def populate(self, kind: str, modes, c: float) -> None:
        modes = _modes_key(modes)
        self._store(kind, modes, modes, c)

    def matrix(self, kind: str, modes, c: float) -> np.ndarray:
        modes = _modes_key(modes)
        key = (kind, modes, modes, _c_key(c))
        if key not in self._mats:
            self.populate(kind, modes, c)
        return self._mats[key]

    def get(self, kind: str, m: int, n: int, c: float) -> complex:
        if (m + n) % 2:
            return 0.0 + 0.0j
        ck = _c_key(c)
        for (k, rows, cols, kc), mat in self._mats.items():
            if k == kind and kc == ck and m in rows and n in cols:
                return complex(mat[rows.index(m), cols.index(n)])
        return complex(self._store(kind, (int(m),), (int(n),), c)[0, 0])


# ---------------------------------------------------------------------------
# Cross-cavity (smooth) blocks


def _graded_interval_edges(w: float, panels: int, facing_right: bool | None, gap: float):
    """Uniform panels on [0, w], geometrically refined toward the facing end
    until panel sizes reach the cavity gap."""
    edges = list(np.linspace(0.0, w, panels + 1))
    base = w / panels
    if facing_right is None or gap >= base:
        return np.asarray(edges)
    extra = []
    h = base / 2.0
    while h > gap and len(extra) < 40:
        extra.append(h)
        h /= 2.0
    if facing_right:
        edges.extend(w - np.asarray(extra))
    else:
        edges.extend(extra)
    return np.unique(np.asarray(edges))


def cross_block_matrix(cav_k: Cavity, cav_j: Cavity, modes_m, modes_n, kappa0: float,
                       kind: str, cfg: QuadratureConfig) -> np.ndarray:
    """Smooth cross blocks
    I_0^{w_k} I_0^{w_j} trig(m pi x/w_k) H0^(1)(kappa0|x+a_k-y-a_j|) trig(n pi y/w_j) dy dx
    for disjoint cavities k != j."""
    gap = max(cav_j.a - cav_k.b, cav_k.a - cav_j.b)
    if gap <= 0:
        raise ValidationError("cavities", "cross blocks require disjoint cavities")
    k_right_of_j = cav_k.a > cav_j.b
    rule = gauss_rule(cfg.points_per_panel)
    ek = _graded_interval_edges(cav_k.w, cfg.panels, not k_right_of_j, gap)
    ej = _graded_interval_edges(cav_j.w, cfg.panels, k_right_of_j, gap)
    xk, wk = composite_nodes_edges(ek, rule)
    yj, wj = composite_nodes_edges(ej, rule)
    dist = np.abs(xk[:, None] + cav_k.a - yj[None, :] - cav_j.a)
    kern = special.hankel1_0(kappa0 * dist)
    f = np.sin if kind == "sin" else np.cos
    modes_m = np.asarray(list(modes_m), dtype=int)
    modes_n = np.asarray(list(modes_n), dtype=int)
    Tm = f(pi * xk[:, None] * modes_m[None, :] / cav_k.w) * wk[:, None]
    Tn = f(pi * yj[:, None] * modes_n[None, :] / cav_j.w) * wj[:, None]
    return Tm.T @ kern @ Tn


def cross_block(m: int, n: int, cav_k: Cavity, cav_j: Cavity, kappa0: float,
                kind: str, cfg: QuadratureConfig) -> complex:
    return complex(cross_block_matrix(cav_k, cav_j, [m], [n], kappa0, kind, cfg)[0, 0])
