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
family lose too much accuracy once c exceeds ~1; `oracle` keeps them as
consistency identities on the exact moments).  The series is
folded into three sums per frequency (`_moments.log_series_matrix`), and
the smooth integrand, a function of |s-t| alone, is evaluated once per
(panel offset, node, node) of the uniform grid and gathered by index.

Off-diagonal (cross-cavity) blocks have a smooth kernel and use plain tensor
Gauss with panels graded toward the facing edges when the gap is small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache(maxsize=None)
def gauss_rule(q: int) -> GaussRule:
    """Gauss-Legendre rule with q points; exact for polynomials of degree 2q-1.

    Memoised: the nodes and weights are shared and read-only."""
    if q < 2:
        raise ValidationError("points_per_panel", f"Gauss order must be >= 2, got {q}")
    x, w = np.polynomial.legendre.leggauss(q)
    x.setflags(write=False)
    w.setflags(write=False)
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


# ---------------------------------------------------------------------------
# Singular diagonal blocks


def bessel_truncation(c: float, cfg: QuadratureConfig) -> int:
    """`_moments.bessel_K_for(c)`; cfg is not read.  The benchmark harness
    (`perfbench/job.py`) calls this two-argument form."""
    return _moments.bessel_K_for(c)


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
    if not 0.0 < c < float("inf"):
        raise ValidationError("c", f"kernel scale must be positive and finite, got {c}")
    K = _moments.bessel_K_for(c)
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


def _cache_key(kind: str, modes, c: float) -> tuple:
    return kind, tuple(int(m) for m in modes), float(f"{c:.15g}")


class SingularBlockCache:
    """Memo of square singular-block matrices keyed by (kind, modes, c to 15
    significant digits); the same modes index the rows and the columns.

    matrix() returns the stored matrix (read-only), filling it by populate()
    in one tensor-grid pass on a miss.
    """

    def __init__(self, cfg: QuadratureConfig):
        self.cfg = cfg
        self._mats: dict[tuple, np.ndarray] = {}

    def populate(self, kind: str, modes, c: float) -> None:
        key = _cache_key(kind, modes, c)
        mat = singular_block_matrix(key[1], key[1], c, kind, self.cfg)
        mat.setflags(write=False)
        self._mats[key] = mat

    def matrix(self, kind: str, modes, c: float) -> np.ndarray:
        key = _cache_key(kind, modes, c)
        if key not in self._mats:
            self.populate(kind, modes, c)
        return self._mats[key]


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
