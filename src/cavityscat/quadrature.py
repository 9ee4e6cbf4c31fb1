"""Gauss-Legendre machinery and the aperture-kernel quadrature.

A singular block is the parameter-square integral

    II trig(n s/2) H0^(1)(c |s-t|) trig(m t/2) ds dt,   c = kappa0 w / (2 pi),

a kernel of tau = |s-t| alone, so it folds into two 1-D integrals per
frequency q over [0, 2 pi], A_q = I K sin(q tau/2) and
D_q = I (2 pi - tau) K cos(q tau/2), combined per mode pair (`_combine`;
blocks with m+n odd are zero by parity).  The kernel is split as in the
paper into two parts, each with its own 1-D rule: (i) the log-regularized
kernel R = H0^(1)(c tau) - (2i/pi) J0(c tau) ln tau, an entire function of
tau, on the spec's `panels` uniform panels of `points_per_panel` Gauss points
(`_KernelRule`), so a panel ladder still measures the convergence of the
rule; (ii) the log part (2i/pi) J0(c tau) ln tau on one node set graded
toward the log singularity (`_LogRule`, `log_part_matrix`), in float
arithmetic at a cost about linear in c.  The paper's exact Bessel series for
(ii) over 2-D log moments stays in `_moments` as the reference.

No nodes x modes weight matrix is formed.  A node of uniform panel P is
P h + x_a, so e^{i q tau/2} is geometric in P: one length-2P transform over
the panel index per row gives every frequency (`_fold_panels`, which both
rules use), and the phases of the nodes split into two small factors
(`_split_phases`).  An array of scales (a sweep) takes the kernel, the J0
rows and the sums in one call each per slab of scales (`STACK_ENTRIES`), and
TM's sin and cos blocks share the sums.

Every block is linear in its kernel row, and below the ascending series'
cutoff (`special`) a kernel row is a fixed combination of monomial rows:
H0(x s) = sum_k t_k(x) ((1 + i lam(x) - i (2/pi) H_k) s^{2k}
+ i (2/pi) s^{2k} ln s) over K = 20 terms (`special.moment_coefficients`).
So each rule runs its linear pipeline once on the monomial rows and
memoises the result, its moment tables (`_KernelRule.moments`,
`_CrossRule.moments`), and a row whose argument bound is below the cutoff
(2 pi c < 5 for a singular block; kappa0 times the pair's span < 4 for a
cross block) costs one K-term contraction per row (`_moment_sums`) in place
of kernel rows and their sums.  The path is a function of the row's own
bound, so a row is bitwise its own in any chunk or slab.  The tables are
summed in extended precision, since the contraction cancels terms up to
some seventy times its result.

Off-diagonal (cross-cavity) blocks have a smooth kernel, a function of the
separation tau = x - y + a_k - a_j alone, which never reaches 0.  Written
with e^{+-i mu x} and e^{+-i nu y} and integrated over x in closed form,
every mode pair becomes a sum of H0 against sines over four segments of
the separation range, folded with tables 1/(mu +- nu) that no wavenumber
enters (`_CrossRule`); the few pairs with mu close to nu take the x-integral
in its stable per-node form.  The rule is 16-point Gauss panels graded
toward the near end, sized by the wavenumber alone, so the wavenumbers of
a sweep that share a rule take H0 in one call (or the moment tables in one
contraction), a row each, and every other sum runs per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt, pi

import numpy as np

from . import special
from .errors import ValidationError
from .model import MAX_APERTURE_SCALE, Cavity, QuadratureConfig

TWO_PI = 2.0 * pi

# A singular block's row whose kernel arguments all stay below the ascending
# series' cutoff (2 pi c < 5) takes its sums from one contraction of its
# rule's moment tables (`_moment_sums`).  A cross block's row does where
# kappa0 times the pair's span is below 4: its kernel has no log part to
# outweigh the contraction's cancellation, which grows as I0(x)/|H0(x)| (28
# at 4, 76 at 5): from 4.95 to 5 its blocks are 2e-15 off normwise where H0
# at the nodes gives 3e-16, below 4 the two agree to 1e-15.
_MOMENT_CUTOFF = special._SERIES_CUTOFF
_CROSS_MOMENT_CUTOFF = 4.0

# The most complex entries (0.75 MiB) a stack of sweep values lays out at
# once.  A chunk of `enhance` wavenumbers counts `assembly.sweep_entries` per
# wavenumber: 1,108 for two equal apertures of 24 x 4 points and N = 8 (400
# of the cross rule's, `cross_entries`: its 160 H0 nodes and their planes or
# a product half of 240; a singular block's 384 kernel-rule sequence
# entries; an 18 x 18 system), so a chunk takes 44.  Those counts are of the
# kernel rows; below the moment cutoffs a chunk's blocks lay out less (a
# moment contraction row per wavenumber), but the chunk length stays a
# function of the spec alone.  A singular block splits its scales into equal
# slabs by what a scale lays out at once (`_slab_entries`: 2,112 for the
# kernel rows there, 180 for the moment contraction and `_combine`'s halves,
# so the 44 scales take one slab).  A cross rule's nodes grow with the modes
# and the wavenumber, not with the spec's panels, so unequal, graded
# apertures stack many wavenumbers too.
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


def _fold_panels(terms: np.ndarray, panels: int, phases, count: int, signs=(1,)) -> list:
    """sum_{P, a} terms[..., a, P] e^{i s q (P h + x_a)/2}, h = 2 pi/panels,
    for q < count and each sign s of `signs` (one entry per sign, shaped
    terms.shape[:-2] + (count,)), from `phases`, the factors
    `_split_phases(x, 2 panels, count - 1)` of the nodes x_a of the terms'
    first panel; terms.shape[-1] <= panels.

    With omega = e^{i pi/panels} the phase of a node is omega^{s q P}
    e^{i s q x_a/2}: one length-2 panels transform over P gives
    F_a(j) = sum_P terms omega^{jP}, read at j = s q mod 2 panels, and the
    split phases of x_a (conjugated for s = -1) sum it over a.  Every
    transform and product runs per row of the leading axes, so no sum mixes
    rows."""
    seq = np.zeros(terms.shape[:-1] + (2 * panels,), dtype=np.result_type(terms, 1j))
    seq[..., :terms.shape[-1]] = terms
    spectra = np.fft.ifft(seq, axis=-1, norm="forward")
    del seq
    bins = np.arange(phases[0].shape[1])  # q mod 2 panels
    sums = []
    for s in signs:
        lo, hi = phases if s > 0 else (phases[0].conj(), phases[1].conj())
        sums.append(_by_frequency(hi @ (spectra[..., s * bins % (2 * panels)] * lo), count))
    return sums


class _KernelRule:
    """The 1-D rule of the log-regularized kernel for the modes up to q_max:
    `panels` uniform panels of [0, 2 pi] of q Gauss points, which need no
    grading (the kernel is entire in tau).  It holds the nodes point-major,
    tau[a, P] = P h + x_a, the weights w_a and the phase factors
    (`_split_phases`) of the nodes x_a of the first panel in base 2 panels.
    The arrays are read-only."""

    def __init__(self, panels: int, q: int, q_max: int):
        pts, wts = composite_nodes(0.0, TWO_PI, panels, gauss_rule(q))
        self.panels, self.q_max = panels, q_max
        self.tau = np.ascontiguousarray(pts.reshape(panels, q).T)
        self.w = wts[:q, None]
        self.phases = _split_phases(pts[:q], 2 * panels, q_max)
        for arr in (self.tau, self.w) + self.phases:
            arr.setflags(write=False)

    def sums(self, scales: np.ndarray) -> np.ndarray:
        """`fold` of R = H0(c tau) - (2i/pi) J0(c tau) ln tau, one row per
        scale c."""
        return self.fold(special.regularized_kernel_abs(self.tau, scales))

    def fold(self, kernel: np.ndarray) -> np.ndarray:
        """A_q = sum_tau f sin(q tau/2) and D_q = sum_tau g cos(q tau/2) for
        f = K w and g = (2 pi - tau) f, q = 0..q_max, complex
        (rows, 2, q_max + 1), from rows of a kernel K at the nodes tau.  K may
        be complex, so each sum takes the folds of e^{+-i q tau/2}: sin is
        their difference over 2i, cos their mean."""
        terms = np.empty((len(kernel), 2) + self.tau.shape,
                         dtype=np.result_type(kernel, 1j))  # f and g
        np.multiply(kernel, self.w, out=terms[:, 0])
        np.multiply(terms[:, 0], TWO_PI - self.tau, out=terms[:, 1])
        plus, minus = _fold_panels(terms, self.panels, self.phases, self.q_max + 1, (1, -1))
        out = np.empty_like(plus)
        np.subtract(plus[:, 0], minus[:, 0], out=out[:, 0])
        out[:, 0] *= -0.5j
        np.add(plus[:, 1], minus[:, 1], out=out[:, 1])
        out[:, 1] *= 0.5
        return out

    @cached_property
    def moments(self) -> np.ndarray:
        """The moment tables of the whole kernel H0(c tau) for every scale
        below the cutoff (`_moment_sums`), real (MOMENT_TERMS, 2, 2,
        q_max + 1): [k, 0] = S_k, the sums (`fold`) of tau^{2k} on this rule,
        and [k, 1] = U_k = L_k - H_k S_k, with L_k the log part's sums of
        tau^{2k} ln tau on `_log_rule` at the cutoff scale's panel count (the
        most any scale below it takes).  Built on first use, read-only."""
        log = _log_rule(self.q_max, int(_log_panels(self.q_max, _MOMENT_SCALE)))
        table = np.empty((special.MOMENT_TERMS, 2, 2, self.q_max + 1))
        harmonic = np.array(special._HARMONIC[:len(table)])[:, None, None]
        log_powers = _even_powers(log.tau)
        for ks, powers in _power_slabs(_even_powers(self.tau),
                                       _node_entries(self, self.q_max, _MOMENT_SCALE)):
            s = self.fold(powers).real
            table[ks, 0] = s
            table[ks, 1] = log.sums(log_powers[ks].astype(powers.dtype)) - harmonic[ks] * s
        table.setflags(write=False)
        return table


# the rule of a uniform grid and a largest mode, memoised
_kernel_rule = lru_cache(maxsize=8)(_KernelRule)

# the aperture scale at the series cutoff: below it, c tau < 5 on [0, 2 pi]
_MOMENT_SCALE = _MOMENT_CUTOFF / TWO_PI


def _even_powers(s: np.ndarray) -> np.ndarray:
    """[k, ...] = s^{2k}, k < MOMENT_TERMS, by repeated products in
    np.longdouble."""
    square = np.square(s, dtype=np.longdouble)
    out = np.empty((special.MOMENT_TERMS,) + square.shape, dtype=np.longdouble)
    out[0] = 1.0
    np.cumprod(np.broadcast_to(square, out[1:].shape), axis=0, out=out[1:])
    return out


# A contraction of the moment tables cancels terms up to some seventy times
# its result (I0(5) over |H0(5)|), so a float sum's rounding, which differs
# from power to power, would grow by that factor.  The tables are summed in
# np.longdouble and then rounded, but for the powers from 8 on: below the
# cutoff their terms |t_k(x)| s^{2k} <= 2.5^{2k}/(k!)^2 (x s < 5) are under
# 1.5e-3, and they are summed in float.  Where longdouble is float (some
# platforms; numpy's FFT before 2.0 for the kernel rule's fold), all are float
# sums.
_EXTENDED_POWERS = 8


def _power_slabs(rows: np.ndarray, per_power: int):
    """(k range, rows[k range]) over the powers k in consecutive slabs of at
    most `stack_length(per_power)`, for a pipeline that lays out per_power
    entries per row; the rows in np.longdouble below _EXTENDED_POWERS and in
    float from it on."""
    step = stack_length(per_power)
    for lo, hi, dtype in ((0, _EXTENDED_POWERS, np.longdouble),
                          (_EXTENDED_POWERS, len(rows), float)):
        for k in range(lo, hi, step):
            ks = slice(k, min(k + step, hi))
            yield ks, rows[ks].astype(dtype, copy=False)


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
        e^{i q tau/2}.  On the graded nodes the split phases make that one
        complex product per row; the uniform panels are folded over the
        panel index (`_fold_panels`).  Every product and transform runs per
        row, so no sum mixes scales."""
        rows, panels, count = len(j0), self.panels, self.q_max + 1
        terms = np.empty((rows, 2, len(self.tau)), dtype=np.result_type(j0, 1.0))  # f and g
        np.multiply(j0, self.lw, out=terms[:, 0])
        np.multiply(terms[:, 0], TWO_PI - self.tau, out=terms[:, 1])
        lo, hi = self.graded
        # f and g times the phase factors of each q1, cast and then multiplied
        # in place (a mixed float-complex product lays out casting buffers)
        product = np.empty((rows, 2) + hi.shape, dtype=np.result_type(j0, 1j))
        product[...] = terms[:, :, None, :_GRADED_NODES]
        product *= hi
        split = product.reshape(rows, -1, _GRADED_NODES) @ lo
        del product
        total = _by_frequency(split.reshape(rows, 2, len(hi), -1), count)
        # the uniform nodes are stored point-major: [row, kind, a, P - 1]
        total += _fold_panels(terms[..., _GRADED_NODES:].reshape(
            rows, 2, _UNIFORM_POINTS, panels - 1), panels, self.uniform, count)[0]
        return np.stack((total[:, 0].imag, total[:, 1].real), axis=1)


# the rule of a largest mode and a panel count, memoised: 0.24 MiB at
# N = 150, c = 1 (1,296 nodes)
_log_rule = lru_cache(maxsize=8)(_LogRule)


def _log_panels(q_max: int, scales: np.ndarray) -> np.ndarray:
    """The uniform panel count of the log part's rule at each scale: panels
    of at most 14 rad of (q_max/2 + c) tau."""
    return np.ceil((0.5 * q_max + scales) * (TWO_PI / 14.0)).astype(int)


def _log_sums(q_max: int, scales: np.ndarray) -> np.ndarray:
    """A_q and D_q of J0(c tau) ln tau on `_log_rule`, (rows, 2, q_max + 1),
    one row per scale; the scales of one panel count share a rule and one
    J0 call, a row each."""
    panels = _log_panels(q_max, scales)
    out = np.empty((scales.size, 2, q_max + 1))
    for p in set(panels.tolist()):
        rule = _log_rule(q_max, p)
        sel = np.flatnonzero(panels == p)
        out[sel] = rule.sums(special.bessel_j0_rows(scales[sel, None] * rule.tau))
    return out


def _moment_sums(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_k t_k(x) (S_k + i (lam(x) S_k + (2/pi) U_k)), with t and lam of
    `special.moment_coefficients`, from table[k] = (S_k, U_k): the sums of a
    linear pipeline over the rows of H0(x s), one row per x, complex
    (x.size,) + table.shape[2:].  The contraction is one (1, K) @ (K, ...)
    product per row, so a row is bitwise its own in any array."""
    t, lam = special.moment_coefficients(x)
    rows = len(t)
    su = np.matmul(t[:, None, :], table.reshape(len(table), -1)).reshape(rows, 2, -1)
    out = np.empty((rows, su.shape[-1]), dtype=complex)
    out.real = su[:, 0]
    np.multiply(su[:, 0], lam[:, None], out=out.imag)
    su[:, 1] *= 2.0 / pi
    out.imag += su[:, 1]
    return out.reshape((rows,) + table.shape[2:])


def _whole_sums(rule: _KernelRule, q_max: int, scales: np.ndarray) -> np.ndarray:
    """A_q and D_q of the whole kernel H0(c tau), complex (rows, 2, q_max + 1),
    one row per scale: below the cutoff (2 pi c < 5) one contraction of the
    rule's moment tables, from it on R's sums on the rule plus the log
    part's on `_log_rule`.  The path is a function of each scale alone."""
    small = TWO_PI * scales < _MOMENT_CUTOFF
    if small.all():
        return _moment_sums(scales, rule.moments)
    if not small.any():
        AD = rule.sums(scales)
        AD.imag += (2.0 / pi) * _log_sums(q_max, scales)
        return AD
    AD = np.empty((scales.size, 2, q_max + 1), dtype=complex)
    for sel in (small, ~small):
        AD[sel] = _whole_sums(rule, q_max, scales[sel])
    return AD


def _kinds(kind) -> tuple:
    """A kind, "sin" or "cos", or a tuple of kinds, as a tuple."""
    return (kind,) if isinstance(kind, str) else tuple(kind)


def _as_asked(kind, stack):
    """A stack with one entry per kind: the entry alone for a single kind."""
    return stack[0] if isinstance(kind, str) else stack


def _combine(kinds, m: np.ndarray, n: np.ndarray, AD: np.ndarray, out: np.ndarray) -> None:
    """The block of each kind for every pair (m, n) from the real integrals
    AD[row] = (A_q, D_q), q = 0..q_max, of a kernel K, written into the
    imaginary half of out[kind, row], with zeros in its real half:
    A_q = I K(tau) sin(q tau/2) dtau and D_q = I (2 pi - tau) K(tau)
    cos(q tau/2) dtau over [0, 2 pi] give II trig(n s/2) K(|s-t|)
    trig(m t/2) ds dt as 4/(m^2-n^2) (m A_n - n A_m) (sin) or
    4/(m^2-n^2) (n A_n - m A_m) (cos) off the diagonal, D_m +- 2 A_m/m on it
    and 2 D_0 for the cos zero mode; odd m+n and the sin mode 0 are exact
    zeros.  The formula is linear in A and D, so a complex kernel's real and
    imaginary halves combine as rows of their own."""
    mf, nf = m.astype(float), n.astype(float)
    A, D = AD[:, 0], AD[:, 1]
    _, rows, cols = np.intersect1d(m, n, assume_unique=True, return_indices=True)  # m = n
    Am, An = A[:, m], A[:, n]
    # Off the diagonal an entry is 4/(m^2 - n^2) (a_m b_n - c_m d_n).  One
    # complex rank-6 product per row puts the numerator in the real half of
    # the output and m^2 - n^2 in the imaginary half, with no full-size
    # temporary (broadcasting ufuncs would lay out buffers).  Each numerator
    # term is split by the parity of the modes, so the pairs of odd m + n are
    # exact zeros.
    parity_m, parity_n = m[:, None] % 2 == (0, 1), n % 2 == [[0], [1]]
    left = np.empty((len(AD), len(m), 6), dtype=complex)
    right = np.empty((len(AD), 6, len(n)), dtype=complex)
    left[..., 4], left[..., 5] = 1j * (mf * mf), 1j
    right[..., 4, :], right[..., 5, :] = 1.0, -(nf * nf)
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
            diag = D[:, m] + sgn * 2.0 * Am / mf
        diag[:, m == 0] = 0.0 if k == "sin" else 2.0 * D[:, :1]
        part[:, rows, cols] = diag[:, rows]
        scratch[...] = 0.0


def log_part_matrix(kind, modes_m, modes_n, c) -> np.ndarray:
    """(2i/pi) II trig(n s/2) J0(c|s-t|) ln|s-t| trig(m t/2) ds dt for every
    pair (m, n); an array of scales c gives one matrix per scale, stacked
    along its leading axes, each bitwise its scale's own.  A tuple of kinds
    gives one such stack per kind along a new leading axis, from one pass of
    the 1-D sums: `_combine` of the integrals A_q, D_q of J0 ln on
    `_log_rule`, with uniform panels of at most 14 rad of
    (q_max/2 + c) tau."""
    m = np.asarray(modes_m, dtype=int)
    n = np.asarray(modes_n, dtype=int)
    c = np.asarray(c, dtype=float)
    kinds = _kinds(kind)
    q_max = int(max(m.max(), n.max()))
    AD = _log_sums(q_max, c.ravel())
    out = np.empty((len(kinds), c.size, len(m), len(n)), dtype=complex)
    _combine(kinds, m, n, AD, out)
    out.imag *= 2.0 / pi
    return _as_asked(kind, out.reshape((len(kinds),) + c.shape + (len(m), len(n))))


def _slab_entries(rule: _KernelRule, q_max: int, c: float, block: int) -> int:
    """The complex entries a scale lays out at once in
    `singular_block_matrix`: below the cutoff the moment contraction's row
    and the two halves of its `block` entries that `_combine` takes, from it
    on `_node_entries`."""
    if TWO_PI * c < _MOMENT_CUTOFF:
        return 2 * (q_max + 1) + 2 * block
    return _node_entries(rule, q_max, c)


def _node_entries(rule: _KernelRule, q_max: int, c: float) -> int:
    """The complex entries a row of the kernel rule's and the log part's
    sums lays out at once at scale c: the kernel rule's sequences of f and g
    and their transforms, and the log part's graded products and uniform
    sequences and transforms."""
    kernel = 2 * 2 * (2 * rule.panels) * rule.tau.shape[0]
    log = 2 * ((q_max // 16 + 1) * _GRADED_NODES
               + 2 * _UNIFORM_POINTS * 2 * int(_log_panels(q_max, c)))
    return kernel + log


def singular_block_matrix(modes_m, modes_n, c, kind, cfg: QuadratureConfig) -> np.ndarray:
    """All blocks [m, n] for the given mode lists at kernel scale c; an array
    of scales gives one matrix per scale, stacked along its leading axes,
    and a tuple of kinds one such stack per kind along a new leading axis.

    A block is `_combine` of the integrals A_q, D_q of the whole kernel
    H0(c tau) = R(tau) + (2i/pi) J0(c tau) ln tau: R's on the spec's
    `panels` uniform panels of `points_per_panel` points (`_KernelRule`),
    the log part's on `_log_rule`; below the series cutoff (2 pi c < 5) one
    contraction of the moment tables of both (`_whole_sums`).  The scales
    run in equal slabs, as few as keep a slab's working set within
    STACK_ENTRIES, and the kinds share the sums; no sum mixes scales, so a
    scale's matrix does not depend on the others."""
    c = np.asarray(c, dtype=float)
    if not np.all((c > 0.0) & (c <= MAX_APERTURE_SCALE)):  # NaN too, before any work
        raise ValidationError("c", f"aperture scale kappa0*w/(2 pi) must be positive and "
                                   f"at most {MAX_APERTURE_SCALE}, got {c}")
    m = np.asarray(modes_m, dtype=int)
    n = np.asarray(modes_n, dtype=int)
    kinds = _kinds(kind)
    q_max = int(max(m.max(), n.max()))
    rule = _kernel_rule(cfg.panels, cfg.points_per_panel, q_max)
    scales = c.ravel()
    block = len(kinds) * len(m) * len(n)
    slabs = -(-scales.size // stack_length(_slab_entries(rule, q_max, scales.max(), block)))
    step = -(-scales.size // slabs)
    out = np.empty((len(kinds), scales.size, len(m), len(n)), dtype=complex)
    # a slab's real and imaginary halves combined as rows of one call
    halves = np.empty((len(kinds), 2 * step, len(m), len(n)), dtype=complex)
    for start in range(0, scales.size, step):
        part = slice(start, start + step)
        AD = _whole_sums(rule, q_max, scales[part])
        rows = len(AD)
        _combine(kinds, m, n, np.concatenate((AD.real, AD.imag)), halves[:, :2 * rows])
        out[:, part].real = halves[:, :rows].imag
        out[:, part].imag = halves[:, rows:2 * rows].imag
    return _as_asked(kind, out.reshape((len(kinds),) + c.shape + (len(m), len(n))))


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
    tuple of kinds, filling every kind asked by populate() from one pass of
    the 1-D sums per scale when any of them is missing.
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

# a cross rule's uniform panels hold at most 12 rad of the largest frequency
# (mu_max + nu_max + kappa0) tau of its integrands, 16 Gauss points each
_CROSS_RADIANS = 12.0
_CROSS_POINTS = 16
# entries with |mu - nu| max(w) below this take the per-node form: at 1 the
# three-cavity cos blocks at kappa0 = 1.5 lose 1.0e-13 normwise to the
# division by mu - nu, at 1.5 8e-14
_NEAR = 1.5


def _cross_panels(cav_k: Cavity, cav_j: Cavity, q_m: int, q_n: int,
                  kappa0: np.ndarray) -> np.ndarray:
    """The uniform panel count of the cross rule of cavities k and j at each
    wavenumber kappa0: panels of [0, w_k + w_j] of at most 12 rad of
    (mu_max + nu_max + kappa0) tau.  A function of the wavenumber alone, so
    a wavenumber takes the same rule in any chunk."""
    top = pi * (q_m / cav_k.w + q_n / cav_j.w)
    return np.ceil((top + kappa0) * ((cav_k.w + cav_j.w) / _CROSS_RADIANS)).astype(int)


def _cross_edges(gap: float, cuts: tuple, total: float, h: float) -> np.ndarray:
    """Panel edges on [0, total], the distance v from the end of the
    separation range nearest tau = 0, with every cut an edge: panels of at
    most h, each no longer than its distance gap + v to tau = 0, so the
    distance doubles per panel until a panel reaches h."""
    edges = [0.0]
    for lo, hi in zip((0.0,) + cuts, cuts + (total,)):
        e = lo
        while e < hi and gap + e < h:
            e = min(2.0 * e + gap, hi)
            edges.append(e)
        if e < hi:
            edges.extend(np.linspace(e, hi, int(np.ceil((hi - e) / h)) + 1)[1:].tolist())
    return np.array(edges)


def _sine_factors(x: np.ndarray, width: float, q_max: int):
    """sin(m pi x/width) at the nodes x for m = base m1 + m0 = 0..q_max as two
    real factors, outer[m1, :, node] = (sin, cos)(base m1 theta) and
    inner[:, m0] = (cos, sin)(m0 theta) stacked over the nodes, theta =
    pi x/width: the sine is outer @ inner, summed over both halves.  Each
    argument is one product with theta (the complex factors of
    `_split_phases` round theirs twice, which costs the three-cavity cos
    blocks up to 2e-14 normwise)."""
    base = isqrt(q_max) + 1
    theta = (pi / width) * x
    lo = np.multiply.outer(np.arange(base), theta)
    hi = np.multiply.outer(base * np.arange(q_max // base + 1), theta)
    outer = np.stack((np.sin(hi), np.cos(hi)), axis=1)
    return outer, np.concatenate((np.cos(lo), np.sin(lo)), axis=1).T.copy()


class _CrossRule:
    """The 1-D rule of the cross blocks of cavities k and j for the modes up
    to q_m (on k) and q_n (on j), with `panels` uniform panels.

    A block entry is II trig(mu x) H0(kappa0 |tau|) trig(nu y) dy dx, tau =
    x - y + delta, delta = a_k - a_j, mu = m pi/w_k, nu = n pi/w_j.  Written
    with e^{ipx}, e^{iqy} (p = +-mu, q = +-nu, s = p + q) and integrated over
    x at fixed tau, each sign pair is a 1-D integral of H0 over the
    separations [delta - w_j, delta + w_k], which never reach tau = 0: the
    x-integral (e^{is hi(tau)} - e^{is lo(tau)})/(is) has breakpoints at
    tau = delta and delta + w_k - w_j.  The four sign pairs then fold into
    sine sums of H0 over four segments of that range, each in its own local
    coordinate x in [0, w] (A, D on cavity k's modes, B, C on cavity j's),
    times the tables 1/(2(mu +- nu)), which no wavenumber enters.  Where
    |mu - nu| max(w) < 1.5 (`_NEAR`) the division would cancel, and the near
    entry is a sum of H0 against the x-integral in its stable per-node form.

    The nodes are 16-point Gauss panels in the distance v from the range's
    end nearest tau = 0 (`_cross_edges`).  No nodes x modes table is held:
    the sines split into two small factors per segment (`_sine_factors`).
    The arrays are read-only."""

    def __init__(self, a_k: float, b_k: float, a_j: float, b_j: float, q_m: int, q_n: int,
                 panels: int):
        w_k, w_j = b_k - a_k, b_j - a_j
        right = a_k > b_j  # cavity k right of j: tau > 0, nearest 0 where x = 0, y = w_j
        gap = a_k - b_j if right else a_j - b_k
        if not gap > 0.0:
            raise ValidationError("cavities", "cross blocks require disjoint cavities")
        total = w_k + w_j
        cuts = tuple(sorted({w_k, w_j}))
        v, wts = composite_nodes_edges(_cross_edges(gap, cuts, total, total / panels),
                                       gauss_rule(_CROSS_POINTS))
        self.dist, self.w = gap + v, wts
        self.far = gap + total  # kappa0 far bounds every argument of H0
        # the segments A, D (modes of k) and B, C (modes of j), each as (first
        # node, last node + 1, local coordinate at every node, width)
        below_k, below_j = (int(np.searchsorted(v, w)) for w in (w_k, w_j))
        if right:
            local = ((0, below_k, v, w_k), (below_j, len(v), v - w_j, w_k),
                     (below_k, len(v), total - v, w_j), (0, below_j, w_j - v, w_j))
        else:
            local = ((below_j, len(v), total - v, w_k), (0, below_k, w_k - v, w_k),
                     (0, below_j, v, w_j), (below_k, len(v), v - w_k, w_j))
        self.segments = []
        for (start, stop, x, width), q in zip(local, (q_m, q_m, q_n, q_n)):
            self.segments.append((slice(start, stop),) + _sine_factors(x[start:stop], width, q))
        # 1/(2(mu + nu)) and 1/(2(mu - nu)), zero where near
        mu = (pi / w_k) * np.arange(q_m + 1)
        nu = (pi / w_j) * np.arange(q_n + 1)
        reach = _NEAR / max(w_k, w_j)
        tables = []
        for s in (np.add.outer(mu, nu), np.subtract.outer(mu, nu)):
            tables.append(np.divide(0.5, s, out=np.zeros_like(s), where=np.abs(s) >= reach))
        self.plus, self.minus = tables
        # the near entries: the real part of e^{i q x_C} (e^{is hi} - e^{is lo})/(is)
        # at p = mu, q = -nu, which with its conjugate (the sign pair -p, -q)
        # gives both near sign pairs, over 4 for the coefficients 1/4; the
        # x-integral as (sin(s l) + 2i sin^2(s l/2))/s, l = hi - lo, l at s = 0
        m_e, n_e = np.nonzero(np.abs(np.subtract.outer(mu, nu)) < reach)
        self.index = np.full((q_m + 1, q_n + 1), -1)
        self.index[m_e, n_e] = np.arange(len(m_e))
        u = v if right else total - v
        lo = np.maximum(u - w_j, 0.0) if right else np.maximum(w_k - v, 0.0)
        span = np.minimum(u, w_k) - lo
        x_c = w_j - v if right else v - w_k
        s = (mu[m_e] - nu[n_e])[:, None]
        arg = s * span
        with np.errstate(divide="ignore", invalid="ignore"):
            re = np.where(s == 0.0, span, np.sin(arg) / s)
            im = np.where(s == 0.0, 0.0, 2.0 * np.sin(0.5 * arg) ** 2 / s)
        phase = s * lo - nu[n_e][:, None] * x_c
        self.near = 0.5 * (np.cos(phase) * re - np.sin(phase) * im)  # [entry, node]
        # the (0, 0) entry is near in all four sign pairs: twice for cos, none for sin
        zero = (m_e == 0) & (n_e == 0)
        self.weights = {"cos": np.where(zero, 2.0, 1.0), "sin": np.where(zero, 0.0, 1.0)}
        for arr in (self.dist, self.w, self.plus, self.minus, self.index, self.near,
                    *self.weights.values()):
            arr.setflags(write=False)
        for seg in self.segments:
            for arr in seg[1:]:
                arr.setflags(write=False)

    def entries(self, size_m: int, size_n: int) -> int:
        """The complex entries a wavenumber lays out at once in `blocks` for
        size_m x size_n blocks: the real and imaginary planes of the H0 row,
        with the row itself, one half of the longest segment's product or
        the fold's two block-sized arrays."""
        longest = max(len(outer) * (part.stop - part.start)
                      for part, outer, _ in self.segments)
        return len(self.dist) + max(len(self.dist), longest, 2 * size_m * size_n)

    def _linear(self, pairs: np.ndarray):
        """The near sums [row, entry, plane] and each segment's sine sums
        [row, m1, plane, m0] (m = base m1 + m0, `_sine_factors`) of real
        planes pairs[row, node, plane] that hold a kernel times the weights
        (H0's real and imaginary parts, or the moment rows).  Every product
        runs per row, so no sum mixes rows."""
        rows, _, count = pairs.shape
        near = np.matmul(self.near, pairs)
        planes = np.ascontiguousarray(pairs.transpose(0, 2, 1))  # [row, plane, node]
        del pairs
        sums = []
        for part, outer, inner in self.segments:
            # sum over both halves of the sines' split, one half at a time
            nodes = part.stop - part.start
            folded = 0.0
            for half in range(2):
                prod = outer[None, :, half, None] * planes[:, None, :, part]
                folded = folded + prod.reshape(rows, count * len(outer), nodes) @ inner[
                    half * nodes:(half + 1) * nodes]
            sums.append(folded.reshape(rows, len(outer), count, -1))
        return near, sums

    def _weighted_h0(self, kappa0: np.ndarray) -> np.ndarray:
        """H0(kappa0 tau) w at the nodes as real pairs [row, node, re/im], a
        row per wavenumber, from one `special.hankel1_0` call."""
        h = special.hankel1_0(kappa0[:, None] * self.dist)
        h *= self.w
        return h.view(float).reshape(len(kappa0), -1, 2)

    @cached_property
    def moments(self) -> np.ndarray:
        """The moment tables of the linear part (`_linear`, near sums then
        each segment's sums flattened), real (MOMENT_TERMS, 2, columns):
        [k, 0] of the rows s^{2k} w and [k, 1] of s^{2k} (ln s - H_k) w, in
        s = tau/far.  With `_moment_sums` at x = kappa0 far they give the
        linear part of H0(kappa0 tau) w = H0(x s) w for kappa0 far < 5.
        Built on first use, read-only."""
        s = self.dist / self.far
        harmonic = np.array(special._HARMONIC[:special.MOMENT_TERMS])[:, None]
        pairs = np.empty((special.MOMENT_TERMS, len(s), 2), dtype=np.longdouble)
        np.multiply(_even_powers(s), self.w, out=pairs[..., 0])
        np.multiply(pairs[..., 0], np.log(s) - harmonic, out=pairs[..., 1])
        parts = []
        for _, part in _power_slabs(pairs, self.entries(0, 0)):
            near, sums = self._linear(part)
            parts.append(np.concatenate([near.transpose(0, 2, 1)] + [
                f.transpose(0, 2, 1, 3).reshape(len(f), 2, -1) for f in sums], axis=2))
        table = np.concatenate(parts).astype(float)
        table.setflags(write=False)
        return table

    def blocks(self, kappa0: np.ndarray, m: np.ndarray, n: np.ndarray, kinds, out) -> None:
        """The blocks [kind, wavenumber, m, n] into out for the wavenumbers
        kappa0 of this rule.  Each wavenumber with kappa0 far below the
        series cutoff takes the linear part from one contraction of the
        moment tables, the others from H0 at the nodes, one call with a row
        per wavenumber; the sine sums, the near sums, the contraction and
        the fold over the sign pairs run per row, so no sum mixes
        wavenumbers."""
        rows = len(kappa0)
        small = kappa0 * self.far < _CROSS_MOMENT_CUTOFF
        if small.any() and not small.all():
            for sel in (small, ~small):
                part = np.empty((len(out), np.count_nonzero(sel)) + out.shape[2:], dtype=complex)
                self.blocks(kappa0[sel], m, n, kinds, part)
                out[:, sel] = part
            return
        if small.all():
            both = _moment_sums(kappa0 * self.far, self.moments)
            near, sums = both[:, :len(self.near)], []
            start = len(self.near)
            for _, outer, inner in self.segments:
                sums.append(both[:, start:start + len(outer) * inner.shape[1]])
                start += len(outer) * inner.shape[1]
        else:
            near, sums = self._linear(self._weighted_h0(kappa0))
            near = near.view(complex)[..., 0]
            sums = [(f[:, :, 0] + 1j * f[:, :, 1]).reshape(rows, -1) for f in sums]
        a, d = (s[:, m] for s in sums[:2])
        b, c = (s[:, n] for s in sums[2:])
        del sums
        # Y = (-1)^n a - d and Z = (-1)^m b - c; then cos = U + V and
        # sin = V - U for U = (Y + Z)/(2(mu + nu)), V = (Y - Z)/(2(mu - nu)),
        # U formed in the first kind's block and written last
        y = a[:, :, None] * np.where(n % 2, -1.0, 1.0)
        y -= d[:, :, None]
        z = b[:, None, :] * np.where(m % 2, -1.0, 1.0)[:, None]
        z -= c[:, None, :]
        plus = np.add(y, z, out=out[0])
        plus *= self.plus[np.ix_(m, n)]
        minus = np.subtract(y, z, out=y)
        minus *= self.minus[np.ix_(m, n)]
        del z
        sel = self.index[np.ix_(m, n)]
        i, j = np.nonzero(sel >= 0)
        e = sel[i, j]
        for o, k in reversed(list(zip(out, kinds))):
            (np.add if k == "cos" else np.subtract)(minus, plus, out=o)
            o[:, i, j] += near[:, e] * self.weights[k][e]


# the rule of a cavity pair, largest modes and panel count, memoised: 1.6 to
# 1.9 MiB for a pair of three_cavity_fields (N = 90, 1,600 to 1,888 nodes)
_cross_rule = lru_cache(maxsize=16)(_CrossRule)


def cross_entries(cav_k: Cavity, cav_j: Cavity, modes_m, modes_n, kappa0: float) -> int:
    """The complex entries one wavenumber kappa0 lays out at once in
    `cross_block_matrix` (`_CrossRule.entries`)."""
    q_m, q_n = max(modes_m), max(modes_n)
    (panels,) = _cross_panels(cav_k, cav_j, q_m, q_n, np.array([float(kappa0)]))
    rule = _cross_rule(cav_k.a, cav_k.b, cav_j.a, cav_j.b, q_m, q_n, int(panels))
    return rule.entries(len(modes_m), len(modes_n))


def cross_block_matrix(cav_k: Cavity, cav_j: Cavity, modes_m, modes_n, kappa0,
                       kind, cfg: QuadratureConfig) -> np.ndarray:
    """Smooth cross blocks
    I_0^{w_k} I_0^{w_j} trig(m pi x/w_k) H0^(1)(kappa0|x+a_k-y-a_j|) trig(n pi y/w_j) dy dx
    for disjoint cavities k != j; an array of wavenumbers kappa0 gives one
    block per wavenumber, stacked along its leading axes, and a tuple of
    kinds one such stack per kind along a new leading axis.  The blocks are
    1-D sums over the separation on `_cross_rule` (cfg is not read); the
    wavenumbers of one panel count share a rule and one H0 call, a row
    each, and the kinds share the sums."""
    m = np.asarray(list(modes_m), dtype=int)
    n = np.asarray(list(modes_n), dtype=int)
    kinds = _kinds(kind)
    kappa0 = np.asarray(kappa0, dtype=float)
    waves = kappa0.ravel()
    if not np.all(waves > 0.0):  # NaN too
        raise ValidationError("kappa0", f"wavenumber must be positive, got {kappa0}")
    q_m, q_n = int(m.max()), int(n.max())
    panels = _cross_panels(cav_k, cav_j, q_m, q_n, waves)
    out = np.empty((len(kinds), waves.size, len(m), len(n)), dtype=complex)
    for p in sorted(set(panels.tolist())):
        rule = _cross_rule(cav_k.a, cav_k.b, cav_j.a, cav_j.b, q_m, q_n, p)
        sel = np.flatnonzero(panels == p)
        if len(sel) == waves.size:
            rule.blocks(waves, m, n, kinds, out)
        else:
            part = np.empty((len(kinds), len(sel), len(m), len(n)), dtype=complex)
            rule.blocks(waves[sel], m, n, kinds, part)
            out[:, sel] = part
    return _as_asked(kind, out.reshape((len(kinds),) + kappa0.shape + (len(m), len(n))))
