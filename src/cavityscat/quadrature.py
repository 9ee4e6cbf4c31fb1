"""Gauss-Legendre machinery and the aperture-kernel quadrature.

A singular block is the parameter-square integral

    II trig(n s/2) H0^(1)(c |s-t|) trig(m t/2) ds dt,   c = kappa0 w / (2 pi),

split as in the paper into two parts (blocks with m+n odd are zero by
parity): (i) a tensor composite Gauss pass over the log-regularized kernel
H0^(1)(c d) - (2i/pi) J0(c d) ln d, an entire function of d = |s-t|; (ii) the
log part (2i/pi) II J0(c|s-t|) ln|s-t| trig trig ds dt.  The paper's exact
Bessel series for (ii) over 2-D log moments stays in `_moments` as the
reference; (ii) folds into two 1-D integrals per frequency
(`log_part_matrix`), Gauss sums on one node set graded toward the log
singularity, in float arithmetic at a cost about linear in c.

The regularized kernel, a function of |s-t| alone, is evaluated once per
distinct separation of the uniform grid (node of panel P >= 0 against node of
panel 0).  Its grid matrix is symmetric block-Toeplitz and is never laid out
whole: the block is contracted in slabs of whole panels of at most
`GRID_ENTRIES` entries, each a reshape of a sliding window over the panel
offsets, with real GEMMs on the float view.  An array of scales (a sweep)
takes the kernel and the log part in one call each.

Off-diagonal (cross-cavity) blocks have a smooth kernel and use plain tensor
Gauss with panels graded toward the facing edges when the gap is small.  The
grid repeats separations, so the kernel is evaluated once per distinct
separation, for every wavenumber of a sweep in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi

import numpy as np

from . import special
from .errors import ValidationError
from .model import MAX_APERTURE_SCALE, Cavity, QuadratureConfig

TWO_PI = 2.0 * pi

# The most grid entries laid out at once.  A singular block is contracted in
# slabs of whole panels of its grid rows of at most this many entries: one
# slab for grids of 96 nodes, 7 panels of 10 points at 960 nodes.  `enhance`
# sweeps in chunks of wavenumbers under the same budget (`cli.cmd_enhance`).
GRID_ENTRIES = 8 * 96 * 96


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
    """`_moments.bessel_K_for(c)`, the truncation of the exact reference
    series; cfg is not read.  The benchmark harness (`perfbench/job.py`)
    calls this two-argument form.  No solve does: it imports mpmath."""
    from . import _moments
    return _moments.bessel_K_for(c)


def _trig_weights(f, pts, wts, modes) -> np.ndarray:
    """f(mode s/2) times the weight at every node s (nodes x modes), in place."""
    T = np.multiply.outer(0.5 * pts, modes.astype(float))
    f(T, out=T)
    T *= wts[:, None]
    return T


def _offset_kernel(c, pts: np.ndarray, panels: int) -> np.ndarray:
    """Log-regularized kernel at the distinct separations of the tensor grid,
    |node i of panel P - node j of panel 0| for P >= 0, shape
    c.shape + (panels, q, q): the kernel depends on |s-t| only."""
    blocks = pts.reshape(panels, -1)
    D = np.abs(blocks[:, :, None] - blocks[0][None, None, :])
    return special.regularized_kernel_abs(D, c)


def _contract(per_offset: np.ndarray, Tm: np.ndarray, Tn: np.ndarray) -> np.ndarray:
    """Tm.T @ G @ Tn for the grid G[P*q + i, Q*q + j] = per_offset[P - Q, i, j],
    symmetric block-Toeplitz (offset -P is the transposed block of offset P),
    without laying G out whole.

    G is taken in slabs of whole panels of at most GRID_ENTRIES entries, a
    split that depends on the grid alone.  A slab of columns is one reshape
    of a sliding window over the 2*panels - 1 offsets, and since G = G.T its
    columns are also the slab's rows: Tm.T @ G @ Tn is the sum over slabs S
    of Tm[S].T @ (Tn.T @ G[:, S]).T.  Both products are real GEMMs, on the
    float view of the complex slab and of its product."""
    panels, q, _ = per_offset.shape
    n, modes_n = panels * q, Tn.shape[1]
    stacked = np.concatenate((per_offset[:0:-1].transpose(0, 2, 1), per_offset))
    # windows[w, i, j, P] = stacked[P + w]: row panel P against column panel panels - 1 - w
    windows = np.lib.stride_tricks.sliding_window_view(stacked, panels, axis=0)
    width = max(1, GRID_ENTRIES // (n * q))  # panels per slab
    out = np.zeros((Tm.shape[1], 2 * modes_n))
    for lo in range(0, panels, width):
        hi = min(lo + width, panels)
        # cols[P, i, Q - lo, j] = G[P*q + i, Q*q + j] for the column panels Q in [lo, hi)
        cols = windows[panels - hi:panels - lo][::-1].transpose(3, 1, 0, 2)
        # Tn.T @ G[:, S] with real and imaginary parts interleaved; the slab's
        # one copy (the reshape) is freed after the product
        tg = Tn.T @ np.ascontiguousarray(cols.reshape(n, -1)).view(float)
        gt = tg.reshape(modes_n, -1, 2).transpose(1, 0, 2).reshape(-1, 2 * modes_n)
        out += Tm[lo * q:hi * q].T @ gt  # gt is G[S, :] @ Tn, interleaved
    return out.view(complex)


@lru_cache(maxsize=8)  # a rule holds nodes x 2 (q_max + 1) floats: 3 MiB at N = 150, c = 1
def _log_rule(q_max: int, panels: int):
    """Nodes tau on [0, 2 pi] of the log part and the weights ln(tau) w
    sin(q tau/2) | (2 pi - tau) ln(tau) w cos(q tau/2), q = 0..q_max, side by
    side.  The first of `panels` uniform panels (24 points) is graded toward
    tau = 0 (ratio 1/4, 16 points, down to 1e-17 of its width).  Memoised:
    the arrays are read-only."""
    h = TWO_PI / panels
    geo = np.concatenate(([0.0], h * 0.25 ** np.arange(29, -1, -1)))
    tg, wg = composite_nodes_edges(geo, gauss_rule(16))
    tu, wu = composite_nodes_edges(h * np.arange(1, panels + 1), gauss_rule(24))
    tau, wts = np.concatenate((tg, tu)), np.concatenate((wg, wu))
    half = np.multiply.outer(0.5 * tau, np.arange(q_max + 1.0))
    lw = np.log(tau) * wts
    W = np.concatenate((np.sin(half) * lw[:, None],
                        np.cos(half) * ((TWO_PI - tau) * lw)[:, None]), axis=1)
    tau.setflags(write=False)
    W.setflags(write=False)
    return tau, W


def log_part_matrix(kind: str, modes_m, modes_n, c) -> np.ndarray:
    """(2i/pi) II trig(n s/2) J0(c|s-t|) ln|s-t| trig(m t/2) ds dt for every
    pair (m, n); an array of scales c gives one matrix per scale, stacked
    along its leading axes, each bitwise its scale's own.

    It folds into A_q = I J0(c tau) ln(tau) sin(q tau/2) dtau and
    D_q = I (2 pi - tau) J0(c tau) ln(tau) cos(q tau/2) dtau over [0, 2 pi],
    on `_log_rule` with uniform panels of at most 14 rad of (q_max/2 + c) tau:
    4/(m^2-n^2) (m A_n - n A_m) (sin) or 4/(m^2-n^2) (n A_n - m A_m) (cos)
    off the diagonal, D_m +- 2 A_m/m on it and 2 D_0 for the cos zero mode;
    odd m+n and the sin mode 0 are exact zeros."""
    m = np.asarray(modes_m, dtype=int)
    n = np.asarray(modes_n, dtype=int)
    c = np.asarray(c, dtype=float)
    scales = c.ravel()
    q_max = int(max(m.max(), n.max()))
    panels = np.ceil((0.5 * q_max + scales) * (TWO_PI / 14.0)).astype(int)
    AD = np.empty((scales.size, 2 * (q_max + 1)))
    # the scales of one panel count share a rule and one J0 call, a row each
    for p in set(panels.tolist()):
        tau, W = _log_rule(q_max, p)
        sel = np.flatnonzero(panels == p)
        for i, row in zip(sel.tolist(), special.bessel_j0_rows(scales[sel, None] * tau)):
            AD[i] = row @ W
    AD = AD.reshape(c.shape + (-1,))
    A, D = AD[..., :q_max + 1], AD[..., q_max + 1:]
    M, N = m[:, None], n[None, :]
    P, Q, sgn = (M, N, 1.0) if kind == "sin" else (N, M, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 4.0 / (M * M - N * N) * (P * A[..., None, n] - Q * A[..., m, None])
        diag = D[..., m] + sgn * 2.0 * A[..., m] / m
    diag[..., m == 0] = 0.0 if kind == "sin" else 2.0 * D[..., :1]
    rows, cols = np.nonzero(M == N)
    out[..., rows, cols] = diag[..., rows]
    out[..., (M + N) % 2 == 1] = 0.0
    return (2j / pi) * out


def singular_block_matrix(modes_m, modes_n, c, kind: str,
                          cfg: QuadratureConfig) -> np.ndarray:
    """All blocks [m, n] for the given mode lists at kernel scale c; an array
    of scales gives one matrix per scale, stacked along its leading axes.
    The kernel and the log part take every scale in one call; each scale
    is contracted on its own, so its matrix does not depend on the others."""
    c = np.asarray(c, dtype=float)
    if not np.all((c > 0.0) & (c <= MAX_APERTURE_SCALE)):  # NaN too, before any work
        raise ValidationError("c", f"aperture scale kappa0*w/(2 pi) must be positive and "
                                   f"at most {MAX_APERTURE_SCALE}, got {c}")
    rule = gauss_rule(cfg.points_per_panel)
    pts, wts = composite_nodes(0.0, TWO_PI, cfg.panels, rule)
    f = np.sin if kind == "sin" else np.cos
    modes_m = np.asarray(list(modes_m), dtype=int)
    modes_n = np.asarray(list(modes_n), dtype=int)
    Tm = _trig_weights(f, pts, wts, modes_m)
    Tn = Tm if np.array_equal(modes_m, modes_n) else _trig_weights(f, pts, wts, modes_n)
    kern = _offset_kernel(c, pts, cfg.panels)
    out = np.empty(c.shape + (len(modes_m), len(modes_n)), dtype=complex)
    for idx in np.ndindex(c.shape):
        out[idx] = _contract(kern[idx], Tm, Tn)
    out[..., (modes_m[:, None] + modes_n[None, :]) % 2 == 1] = 0.0  # exact parity zeros
    out += log_part_matrix(kind, modes_m, modes_n, c)
    return out


def singular_block(m: int, n: int, c: float, kind: str, cfg: QuadratureConfig) -> complex:
    """II trig(n s/2) H0^(1)(c|s-t|) trig(m t/2) ds dt; exactly 0 for odd m+n."""
    return complex(singular_block_matrix([m], [n], c, kind, cfg)[0, 0])


def _cache_key(kind: str, modes, c) -> tuple:
    return kind, tuple(int(m) for m in modes), tuple(float(f"{s:.15g}") for s in np.ravel(c))


class SingularBlockCache:
    """Memo of square singular-block matrices keyed by (kind, modes, every
    scale c to 15 significant digits); the same modes index the rows and the
    columns, and an array of scales keys its stack of matrices.

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


def _graded_interval_edges(w: float, panels: int, facing_right: bool, gap: float):
    """Uniform panels on [0, w], geometrically refined toward the facing end
    until panel sizes reach the cavity gap."""
    edges = list(np.linspace(0.0, w, panels + 1))
    base = w / panels
    if gap >= base:
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
    # sorted(set(...)) rather than np.unique, which imports numpy.ma (about 16 ms)
    return np.array(sorted(set(edges)))


@lru_cache(maxsize=64)
def _cross_grid(a_k: float, b_k: float, a_j: float, b_j: float, panels: int, q: int):
    """The quadrature of a cavity pair, which no wavenumber enters: the
    graded nodes and weights on either aperture, the distinct separations
    |x + a_k - y - a_j| of the tensor grid and the index of each grid entry
    among them.  Memoised: the arrays are shared and read-only."""
    gap = max(a_j - b_k, a_k - b_j)
    if gap <= 0:
        raise ValidationError("cavities", "cross blocks require disjoint cavities")
    k_right_of_j = a_k > b_j
    rule = gauss_rule(q)
    xk, wk = composite_nodes_edges(_graded_interval_edges(b_k - a_k, panels, not k_right_of_j,
                                                          gap), rule)
    yj, wj = composite_nodes_edges(_graded_interval_edges(b_j - a_j, panels, k_right_of_j,
                                                          gap), rule)
    dist = np.abs(xk[:, None] + a_k - yj[None, :] - a_j)
    seps, inverse = np.unique(dist, return_inverse=True)
    # the inverse is flat in numpy 1.x and shaped like dist in some 2.x releases
    grid = (xk, wk, yj, wj, seps, inverse.reshape(dist.shape))
    for arr in grid:
        arr.setflags(write=False)
    return grid


def cross_block_matrix(cav_k: Cavity, cav_j: Cavity, modes_m, modes_n, kappa0,
                       kind: str, cfg: QuadratureConfig) -> np.ndarray:
    """Smooth cross blocks
    I_0^{w_k} I_0^{w_j} trig(m pi x/w_k) H0^(1)(kappa0|x+a_k-y-a_j|) trig(n pi y/w_j) dy dx
    for disjoint cavities k != j; an array of wavenumbers kappa0 gives one
    block per wavenumber, stacked along its leading axes.  The kernel is
    evaluated once per distinct separation of the grid."""
    xk, wk, yj, wj, seps, inverse = _cross_grid(cav_k.a, cav_k.b, cav_j.a, cav_j.b,
                                                cfg.panels, cfg.points_per_panel)
    kappa0 = np.asarray(kappa0, dtype=float)
    kern = special.hankel1_0(kappa0[..., None] * seps)
    f = np.sin if kind == "sin" else np.cos
    modes_m = np.asarray(list(modes_m), dtype=int)
    modes_n = np.asarray(list(modes_n), dtype=int)
    Tm = f(pi * xk[:, None] * modes_m[None, :] / cav_k.w) * wk[:, None]
    Tn = f(pi * yj[:, None] * modes_n[None, :] / cav_j.w) * wj[:, None]
    # laid out on the grid one wavenumber at a time: a stack of full grids
    # would hold wavenumbers x nodes^2 entries at once
    blocks = [Tm.T @ row[inverse] @ Tn for row in kern.reshape(-1, len(seps))]
    return np.array(blocks).reshape(kappa0.shape + (len(modes_m), len(modes_n)))
