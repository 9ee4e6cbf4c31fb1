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
singularity, in float arithmetic at a cost about linear in c.  Their uniform
panels fold over the panel index as the kernel pass does (one length-2P
transform per scale), and the graded nodes' phases split into two small
factors (`_LogRule`), so no nodes x modes weight matrix is formed.

The regularized kernel, a function of |s-t| alone, is evaluated once per
distinct separation of the uniform grid (node of panel P >= 0 against node of
panel 0).  Its grid matrix is symmetric block-Toeplitz and is never laid out:
trig(m s/2) is a sum of e^{+-i m s/2}, geometric in the panel index, so the
tensor sum folds over the panels into geometric series, and one length-2P
transform of the P offset blocks per scale gives every mode pair
(`_PanelFold`).  An
array of scales (a sweep) takes the kernel, the fold and the log part in
one call each per slab of scales (`STACK_ENTRIES`), and TM's sin and cos
blocks share the kernel, the transforms and the 1-D sums of the log part.

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

# The most complex entries (0.75 MiB) a stack of sweep values lays out at
# once.  A chunk of `enhance` wavenumbers counts `assembly.sweep_entries` per
# wavenumber: 1,336 for two equal apertures of 24 x 4 points and N = 8 (628
# cross separations, one 384-entry offset kernel, an 18 x 18 system), so a
# chunk takes 36.  A slab of a singular block's scales counts its fold's
# transform sequences and transforms per scale (3,072 there).  Unequal,
# graded apertures have about nodes^2 separations, so their chunks hold
# fewer wavenumbers than the 8 x 96^2 / nodes^2 of a count of full grids.
STACK_ENTRIES = 48 * 1024


def stack_length(per_item: int) -> int:
    """The items of per_item complex entries each that fit STACK_ENTRIES
    (at least one)."""
    return max(1, STACK_ENTRIES // per_item)


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


def _offset_kernel(c, pts: np.ndarray, panels: int) -> np.ndarray:
    """Log-regularized kernel at the distinct separations of the tensor grid,
    |node i of panel P - node j of panel 0| for P >= 0, shape
    c.shape + (panels, q, q): the kernel depends on |s-t| only."""
    blocks = pts.reshape(panels, -1)
    D = np.abs(blocks[:, :, None] - blocks[0][None, None, :])
    return special.regularized_kernel_abs(D, c)


# A frequency bin k of the panel fold is summed with its geometric weights
# where |1 - omega^k| is below this, not divided by it: the division of a
# difference of two transforms would lose more than four bits there.
_EXACT_BIN = 1.0 / 16.0


class _PanelFold:
    """Tm.T @ G @ Tn for the sin or cos weights of two mode lists on the
    uniform grid of `panels` panels of q Gauss points, where
    G[P*q + a, Q*q + b] = K_{P-Q}[a, b] is symmetric block-Toeplitz
    (K_{-D} = K_D.T), folded over the panel index.  Only the entries with
    m + n even are formed; the others are the exact parity zeros of the block.

    With omega = e^{i pi/panels} a node is s = P h + x_a, so trig(m s/2)
    is a sum over the signs sigma = +-1 of e^{i sigma m x_a/2}
    omega^{sigma m P}: cos cos is 1/4 of the sum over the four sign pairs
    (sigma, rho) of X[m, n] = sum_{P,Q,a,b} u_a G v_b omega^{sigma m P + rho n Q},
    u_a = w_a e^{i sigma m x_a/2}, v_b = w_b e^{i rho n x_b/2}, and sin sin
    is -1/4 of the sum weighted by sigma rho.  For each offset D the sum
    over the panel pairs is geometric in k = sigma m + rho n, so with the
    length-2 panels transform R(j) = sum_{D >= 0} K_D omega^{jD} -
    sum_{D >= 1} K_D.T omega^{-jD},

        X[m, n] = u (R(sigma m) - R(-rho n)) v / (1 - omega^k)

    for m + n even.  A bin k where 1 - omega^k is small (k = 0 always) takes
    u Z_k(sigma m) v instead, the transform Z_k of g_k(D) K_D and of
    g_k(D) omega^{kD} K_D.T at -D, g_k(D) = sum_{Q < panels - D} omega^{kQ}.

    The set-up reads no kernel, so one fold serves every scale of a sweep."""

    def __init__(self, panels: int, q: int, modes_m, modes_n):
        pts, wts = composite_nodes(0.0, TWO_PI, panels, gauss_rule(q))
        x, w = pts[:q], wts[:q]
        m, n = np.asarray(modes_m), np.asarray(modes_n)
        two_p = 2 * panels
        self.panels, self.shape = panels, (len(m), len(n))
        k = np.arange(two_p)
        theta = pi * k / panels
        one_minus = 2.0 * np.sin(0.5 * theta) ** 2 - 1j * np.sin(theta)  # 1 - omega^k
        exact = k[(np.abs(one_minus) < _EXACT_BIN) & (k % 2 == 0)]  # m + n even: k even
        # the weights of the transformed sequences, R's (1 on K_D, -1 on K_D.T
        # at -D) and each Z_k's, at E = D for the offsets D >= 0 and at
        # E = 2 panels - D for -D (E = panels is empty);
        # g_k(D) = sum_{Q < panels - D} omega^{kQ} is panels - D for k = 0
        powers = np.exp(1j * pi / panels * (np.multiply.outer(exact, k[:panels]) % two_p))
        geo = np.cumsum(powers, axis=1)[:, ::-1]
        self.weights = np.zeros((1 + len(exact), two_p), dtype=complex)
        self.weights[0, :panels], self.weights[0, panels + 1:] = 1.0, -1.0
        self.weights[1:, :panels] = geo
        self.weights[1:, panels + 1:] = (geo * powers)[:, :0:-1]
        # 1/(1 - omega^k) at the even bins k that are not summed exactly; k is
        # odd exactly for the pairs of odd m + n, whose entries are zero
        self.inv = np.zeros(two_p, dtype=complex)
        self.inv[2::2] = 1.0 / one_minus[2::2]
        self.inv[exact] = 0.0
        bin_of = np.zeros(two_p, dtype=np.int32)  # 1 + index among the exact bins, 0 elsewhere
        bin_of[exact] = np.arange(1, len(exact) + 1)
        # the rows of sigma = +1 over those of -1, the columns of rho = +1
        # beside those of -1, with half weights: the 1/4 of the sums, exactly
        E = np.exp(0.5j * np.multiply.outer(m, x)) * (0.5 * w)
        F = np.exp(0.5j * np.multiply.outer(n, x)) * (0.5 * w)
        self.U, self.V = np.concatenate((E, E.conj())), np.concatenate((F, F.conj()))
        # R is read at sigma m and at -rho n
        self.jm = np.concatenate((m, -m)) % two_p
        self.jn = np.concatenate((-n, n)) % two_p
        # the bin k = sigma m + rho n of every entry
        self.kk = np.subtract.outer(self.jm.astype(np.int32), self.jn.astype(np.int32)) % two_p
        hi, hj = np.nonzero(np.take(bin_of, self.kk))
        self.exact = (hi, hj, bin_of[self.kk[hi, hj]])

    def __call__(self, per_offset: np.ndarray, kinds, out=None) -> np.ndarray:
        """The kernel pass of each kind, (kinds, scales, M, N), from the blocks
        per_offset[scale, D] = K_D, D = 0..panels-1, written into out when
        given.  No sum mixes scales, so a scale's matrices are bitwise what
        they are alone."""
        S, U, V, jm = len(per_offset), self.U, self.V, self.jm
        panels, (M, N) = self.panels, self.shape
        # seq[s, i, a, b, E]: K_E[a, b] for E < panels, K_D[b, a] at E = 2 panels - D
        seq = np.zeros((S, len(self.weights)) + per_offset.shape[2:] + (2 * panels,),
                       dtype=complex)
        W = self.weights[:, None, None, :]
        np.multiply(per_offset.transpose(0, 2, 3, 1)[:, None], W[..., :panels],
                    out=seq[..., :panels])
        np.multiply(per_offset[:, :0:-1].transpose(0, 3, 2, 1)[:, None], W[..., panels + 1:],
                    out=seq[..., panels + 1:])
        spectra = np.fft.ifft(seq, axis=-1, norm="forward")  # sum_E seq_E omega^{jE}
        del seq
        spectra = np.ascontiguousarray(spectra.transpose(0, 1, 4, 2, 3))  # s, i, j, a, b
        # u R(sigma m) and u Z_k(sigma m) for every row m
        uR = (U[:, None, :] @ spectra[:, :, jm])[..., 0, :]
        hi, hj, b = self.exact
        summed = (uR[:, b, hi] * V[hj]).sum(-1)
        left = np.concatenate((uR[:, 0], np.broadcast_to(U, (S,) + U.shape)), axis=-1)
        right = np.concatenate((np.broadcast_to(V, (S,) + V.shape),
                                -(spectra[:, 0, self.jn] @ V[:, :, None])[..., 0]), axis=-1)
        del spectra, uR
        X = left @ right.swapaxes(-1, -2)
        # the divisor one sign-pair quadrant at a time: its gather is a
        # quarter of X
        for rows in (slice(None, M), slice(M, None)):
            for cols in (slice(None, N), slice(N, None)):
                X[:, rows, cols] *= np.take(self.inv, self.kk[rows, cols])
        X[:, hi, hj] = summed
        X = X.reshape(S, 2, M, 2, N)  # scale, sigma, m, rho, n
        # cos: the sum of the four; sin: minus the sum weighted by sigma rho
        if out is None:
            out = np.empty((len(kinds), S, M, N), dtype=complex)
        for o, kind in zip(out, kinds):
            if kind == "cos":
                np.add(X[:, 0, :, 0], X[:, 1, :, 0], out=o)
                o += X[:, 0, :, 1]
                o += X[:, 1, :, 1]
            else:
                np.subtract(X[:, 1, :, 0], X[:, 0, :, 0], out=o)
                o += X[:, 0, :, 1]
                o -= X[:, 1, :, 1]
        return out


# the fold of two mode lists (tuples) on a grid, memoised: it reads no
# kernel, so a sweep's chunks and a build's cavities share it
_panel_fold = lru_cache(maxsize=8)(_PanelFold)


# the log part's rule: 30 panels of 16 points graded toward tau = 0 fill its
# first uniform panel, and each other uniform panel takes 24 points
_GRADED_NODES = 480
_UNIFORM_POINTS = 24


def _split_phases(t: np.ndarray, base: int, q_max: int):
    """e^{i q t/2} at the nodes t for q = base q1 + q0 = 0..q_max as two
    factors, lo[node, q0] = e^{i q0 t/2} (q0 < base) and
    hi[q1, node] = e^{i base q1 t/2}: each phase is then a product of two
    correctly rounded exponentials."""
    lo = np.exp(0.5j * np.multiply.outer(t, np.arange(min(base, q_max + 1))))
    hi = np.exp((0.5j * base) * np.multiply.outer(np.arange(q_max // base + 1), t))
    return lo, hi


def _by_frequency(split: np.ndarray, count: int) -> np.ndarray:
    """split[..., q1, q0] at q = base q1 + q0 as [..., q], q < count."""
    return split.reshape(split.shape[:-2] + (-1,))[..., :count]


class _LogRule:
    """The 1-D rule of the log part for the modes up to q_max on `panels`
    uniform panels of [0, 2 pi] (24 points each), the first graded toward
    tau = 0 (ratio 1/4, 16 points, down to 1e-17 of its width): the nodes
    tau, their log-weights ln(tau) w, and the phase factors
    (`_split_phases`) of the graded nodes in base 16 and of the nodes x_a of
    the first uniform panel in base 2 panels.  It holds no nodes x modes
    table: `sums` folds the uniform panels and splits the graded nodes'
    phases.  The arrays are read-only."""

    def __init__(self, q_max: int, panels: int):
        h = TWO_PI / panels
        geo = np.concatenate(([0.0], h * 0.25 ** np.arange(29, -1, -1)))
        tg, wg = composite_nodes_edges(geo, gauss_rule(16))
        tu, wu = composite_nodes_edges(h * np.arange(1, panels + 1),
                                       gauss_rule(_UNIFORM_POINTS))
        # the uniform nodes point-major, node a of every panel in a row
        tu, wu = (v.reshape(-1, _UNIFORM_POINTS).T.ravel() for v in (tu, wu))
        local = h + 0.5 * h * (gauss_rule(_UNIFORM_POINTS).nodes + 1.0)  # panel 1
        self.q_max, self.panels = q_max, panels
        self.tau = np.concatenate((tg, tu))
        self.lw = np.log(self.tau) * np.concatenate((wg, wu))
        self.graded = _split_phases(tg, 16, q_max)
        self.uniform = _split_phases(local, 2 * panels, q_max)
        for arr in (self.tau, self.lw) + self.graded + self.uniform:
            arr.setflags(write=False)

    def sums(self, j0: np.ndarray) -> np.ndarray:
        """A_q = sum_tau f sin(q tau/2) and D_q = sum_tau g cos(q tau/2) for
        f = J0 ln(tau) w and g = (2 pi - tau) f, q = 0..q_max, as
        (rows, 2, q_max + 1), from rows of J0(c tau), one per scale: the
        imaginary part of sum f e^{i q tau/2} and the real part of sum g
        e^{i q tau/2}.

        On the graded nodes the split phases make that one complex product
        per row.  A node of uniform panel P is P h + x_a, so e^{i q tau/2} =
        omega^{qP} e^{i q x_a/2} with omega = e^{i pi/panels}: one length-2
        panels transform over P gives F_a(j) = sum_P f omega^{jP}, read at
        j = q mod 2 panels, and the split phases of x_a sum it over a.
        Every product and transform runs per row, so no sum mixes scales."""
        rows, panels, count = len(j0), self.panels, self.q_max + 1
        terms = np.empty((rows, 2, len(self.tau)))  # f and g
        np.multiply(j0, self.lw, out=terms[:, 0])
        np.multiply(terms[:, 0], TWO_PI - self.tau, out=terms[:, 1])
        lo, hi = self.graded
        # f and g times the phase factors of each q1, cast and then multiplied
        # in place (a mixed float-complex product lays out casting buffers)
        product = np.empty((rows, 2) + hi.shape, dtype=complex)
        product[...] = terms[:, :, None, :_GRADED_NODES]
        product *= hi
        split = product.reshape(rows, -1, _GRADED_NODES) @ lo
        total = _by_frequency(split.reshape(rows, 2, len(hi), -1), count)
        # the uniform nodes are stored point-major: seq[row, kind, a, P - 1],
        # zero-padded to 2 panels (complex, as the panel fold's transforms)
        seq = np.zeros((rows, 2, _UNIFORM_POINTS, 2 * panels), dtype=complex)
        seq[..., :panels - 1] = terms[..., _GRADED_NODES:].reshape(
            rows, 2, _UNIFORM_POINTS, panels - 1)
        spectra = np.fft.ifft(seq, axis=-1, norm="forward")
        lo, hi = self.uniform
        total += _by_frequency(hi @ (spectra[..., :lo.shape[1]] * lo), count)
        return np.stack((total[:, 0].imag, total[:, 1].real), axis=1)


# the rule of a largest mode and a panel count, memoised: 0.24 MiB at
# N = 150, c = 1 (1,296 nodes)
_log_rule = lru_cache(maxsize=8)(_LogRule)


def _kinds(kind) -> tuple:
    """A kind, "sin" or "cos", or a tuple of kinds, as a tuple."""
    return (kind,) if isinstance(kind, str) else tuple(kind)


def _as_asked(kind, stack):
    """A stack with one entry per kind: the entry alone for a single kind."""
    return stack[0] if isinstance(kind, str) else stack


def log_part_matrix(kind, modes_m, modes_n, c) -> np.ndarray:
    """(2i/pi) II trig(n s/2) J0(c|s-t|) ln|s-t| trig(m t/2) ds dt for every
    pair (m, n); an array of scales c gives one matrix per scale, stacked
    along its leading axes, each bitwise its scale's own.  A tuple of kinds
    gives one such stack per kind along a new leading axis, from one pass of
    the 1-D sums.

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
    AD = np.empty((scales.size, 2, q_max + 1))
    # the scales of one panel count share a rule and one J0 call, a row each
    for p in set(panels.tolist()):
        rule = _log_rule(q_max, p)
        sel = np.flatnonzero(panels == p)
        AD[sel] = rule.sums(special.bessel_j0_rows(scales[sel, None] * rule.tau))
    A = AD[:, 0].reshape(c.shape + (-1,))
    D = AD[:, 1].reshape(c.shape + (-1,))
    rows, cols = np.nonzero(m[:, None] == n)
    mf, nf = m.astype(float), n.astype(float)
    Am, An = A[..., m], A[..., n]
    # Off the diagonal an entry is 4/(m^2 - n^2) (a_m b_n - c_m d_n).  One
    # complex rank-6 product puts the numerator in the real half of the
    # output and m^2 - n^2 in the imaginary half, with no full-size
    # temporary (broadcasting ufuncs would lay out buffers), on the complex
    # GEMM of the panel fold.  Each numerator term is split by the parity of
    # the modes, so the pairs of odd m + n are exact zeros.
    parity_m, parity_n = m[:, None] % 2 == (0, 1), n % 2 == [[0], [1]]
    left = np.empty(c.shape + (len(m), 6), dtype=complex)
    right = np.empty(c.shape + (6, len(n)), dtype=complex)
    left[..., 4], left[..., 5] = 1j * (mf * mf), 1j
    right[..., 4, :], right[..., 5, :] = 1.0, -(nf * nf)
    kinds = _kinds(kind)
    out = np.empty((len(kinds),) + c.shape + (len(m), len(n)), dtype=complex)
    for o, k in zip(out, kinds):
        # a_m b_n - c_m d_n: m A_n - n A_m (sin) or n A_n - m A_m (cos)
        if k == "sin":
            a, b, c_, d = mf, An, Am, nf
        else:
            a, b, c_, d = np.ones_like(mf), nf * An, mf * Am, np.ones_like(nf)
        np.multiply(a[..., None], parity_m, out=left[..., 0:2])
        np.multiply(c_[..., None], parity_m, out=left[..., 2:4])
        np.multiply(b[..., None, :], parity_n, out=right[..., 0:2, :])
        np.multiply(d[..., None, :], -1.0 * parity_n, out=right[..., 2:4, :])
        np.matmul(left, right, out=o)
        # part = 4/(m^2 - n^2) (a_m b_n - c_m d_n), formed in the imaginary half
        scratch, part = o.real, o.imag
        sgn = 1.0 if k == "sin" else -1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(4.0, part, out=part)
            part *= scratch
            diag = D[..., m] + sgn * 2.0 * Am / mf
        diag[..., m == 0] = 0.0 if k == "sin" else 2.0 * D[..., :1]
        part[..., rows, cols] = diag[..., rows]
        part *= 2.0 / pi
        scratch[...] = 0.0
    return _as_asked(kind, out)


def singular_block_matrix(modes_m, modes_n, c, kind, cfg: QuadratureConfig) -> np.ndarray:
    """All blocks [m, n] for the given mode lists at kernel scale c; an array
    of scales gives one matrix per scale, stacked along its leading axes,
    and a tuple of kinds one such stack per kind along a new leading axis.
    The kernel, the panel fold and the log part take a slab of scales and
    every kind in one call, the slabs as many scales as their fold's
    transforms fit STACK_ENTRIES; no sum mixes scales, so a scale's matrix
    does not depend on the others, and the kinds share the transforms of
    the fold."""
    c = np.asarray(c, dtype=float)
    if not np.all((c > 0.0) & (c <= MAX_APERTURE_SCALE)):  # NaN too, before any work
        raise ValidationError("c", f"aperture scale kappa0*w/(2 pi) must be positive and "
                                   f"at most {MAX_APERTURE_SCALE}, got {c}")
    pts, _ = composite_nodes(0.0, TWO_PI, cfg.panels, gauss_rule(cfg.points_per_panel))
    modes_m = tuple(int(m) for m in modes_m)
    modes_n = tuple(int(n) for n in modes_n)
    kinds = _kinds(kind)
    fold = _panel_fold(cfg.panels, cfg.points_per_panel, modes_m, modes_n)
    scales = c.ravel()
    # the fold lays out (1 + exact bins) q x q sequences of length 2 panels
    # per scale, and their transforms
    step = stack_length(2 * fold.weights.size * cfg.points_per_panel ** 2)
    # slabs write into one output; a single slab takes the fold's own, laid
    # out once its transforms are freed
    out = (np.empty((len(kinds), scales.size) + fold.shape, dtype=complex)
           if scales.size > step else None)
    for start in range(0, scales.size, step):
        part = slice(start, start + step)
        block = fold(_offset_kernel(scales[part], pts, cfg.panels), kinds,
                     None if out is None else out[:, part])
        block += log_part_matrix(kinds, modes_m, modes_n, scales[part])
    out = block if out is None else out
    return _as_asked(kind, out.reshape((len(kinds),) + c.shape + fold.shape))


def singular_block(m: int, n: int, c: float, kind: str, cfg: QuadratureConfig) -> complex:
    """II trig(n s/2) H0^(1)(c|s-t|) trig(m t/2) ds dt; exactly 0 for odd m+n."""
    return complex(singular_block_matrix([m], [n], c, kind, cfg)[0, 0])


def _cache_key(kind: str, modes, c) -> tuple:
    return kind, tuple(int(m) for m in modes), tuple(float(f"{s:.15g}") for s in np.ravel(c))


class SingularBlockCache:
    """Memo of square singular-block matrices keyed by (kind, modes, every
    scale c to 15 significant digits); the same modes index the rows and the
    columns, and an array of scales keys its stack of matrices.

    matrix() returns the stored matrix (read-only), or a tuple of them for a
    tuple of kinds, filling every kind asked by populate() in one panel fold
    per scale when any of them is missing.
    """

    def __init__(self, cfg: QuadratureConfig):
        self.cfg = cfg
        self._mats: dict[tuple, np.ndarray] = {}

    def populate(self, kind, modes, c: float) -> None:
        kinds = _kinds(kind)
        keys = [_cache_key(k, modes, c) for k in kinds]
        mats = singular_block_matrix(keys[0][1], keys[0][1], c, kinds, self.cfg)
        for key, mat in zip(keys, mats):
            mat.setflags(write=False)
            self._mats[key] = mat

    def matrix(self, kind, modes, c: float):
        keys = [_cache_key(k, modes, c) for k in _kinds(kind)]
        if any(key not in self._mats for key in keys):
            self.populate(kind, modes, c)
        return _as_asked(kind, tuple(self._mats[key] for key in keys))


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
                       kind, cfg: QuadratureConfig) -> np.ndarray:
    """Smooth cross blocks
    I_0^{w_k} I_0^{w_j} trig(m pi x/w_k) H0^(1)(kappa0|x+a_k-y-a_j|) trig(n pi y/w_j) dy dx
    for disjoint cavities k != j; an array of wavenumbers kappa0 gives one
    block per wavenumber, stacked along its leading axes, and a tuple of
    kinds one such stack per kind along a new leading axis.  The kernel is
    evaluated once per distinct separation of the grid, for every kind."""
    xk, wk, yj, wj, seps, inverse = _cross_grid(cav_k.a, cav_k.b, cav_j.a, cav_j.b,
                                                cfg.panels, cfg.points_per_panel)
    kappa0 = np.asarray(kappa0, dtype=float)
    kern = special.hankel1_0(kappa0[..., None] * seps)
    modes_m = np.asarray(list(modes_m), dtype=int)
    modes_n = np.asarray(list(modes_n), dtype=int)
    weights = []
    for k in _kinds(kind):
        f = np.sin if k == "sin" else np.cos
        weights.append((f(pi * xk[:, None] * modes_m[None, :] / cav_k.w) * wk[:, None],
                        f(pi * yj[:, None] * modes_n[None, :] / cav_j.w) * wj[:, None]))
    rows = kern.reshape(-1, len(seps))
    blocks = np.empty((len(weights), len(rows), len(modes_m), len(modes_n)), dtype=complex)
    # laid out on the grid one wavenumber at a time: a stack of full grids
    # would hold wavenumbers x nodes^2 entries at once
    for i, row in enumerate(rows):
        grid = row[inverse]
        for block, (Tm, Tn) in zip(blocks, weights):
            block[i] = Tm.T @ grid @ Tn
    return _as_asked(kind, blocks.reshape((len(weights),) + kappa0.shape
                                          + (len(modes_m), len(modes_n))))
