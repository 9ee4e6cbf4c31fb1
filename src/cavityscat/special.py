"""Real-argument Bessel and Hankel functions of order 0.

Evaluation strategy: ascending power series (Abramowitz & Stegun 9.1.12-13)
for x < 5, Hankel asymptotic expansion with Cephes-style rational
amplitude/phase functions for x >= 5.  The crossover at 5 keeps the series
free of cancellation (largest term ~10) while the asymptotic side is well
inside its validity range; both sides agree to ~1e-15 at the joint.

One routine, `_series`, sums the ascending series for every evaluator: by
Horner's rule along the last axis, over a coefficient sequence (ones give
J0, the harmonic numbers the log-free part of Y0).  Its row rule: each row
(index into the leading axes) starts at the term that `_series_terms` gives
at that row's largest entry, so a row's values are bitwise those of a call
with that row alone.  Each caller sets a cutoff, and the entries past it
enter as zeros: the series takes x < 5 for J0 by rows, H0 and the
log-regularized Hankel kernel (at z = c*d there).  `moment_coefficients`
gives the same series' coefficients over monomials of the separation, for
the moment tables of `quadrature`: a singular block whose arguments stay
below the cutoff (2 pi c < 5), and a cross block whose wavenumber times the
pair's span is below 4, contracts them in place of calling the evaluators
here.

Also provides the truncated Bessel power-series remainder, which only the
tests call (to check the truncation K of `_moments.bessel_K_for`).

All functions accept floats or numpy arrays and are pure.
"""

from __future__ import annotations

from itertools import accumulate
from math import lgamma, pi

import numpy as np

from .errors import ValidationError

# Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

_SERIES_CUTOFF = 5.0
_SQ2OPI = 0.79788456080286535588  # sqrt(2/pi)
_PIO4 = pi / 4.0

# Cephes Math Library rational coefficients (Moshier, release 2.1) for the
# asymptotic amplitude P and phase Q functions of J0/Y0.
_PP0 = np.array([
    7.96936729297347051624e-4, 8.28352392107440799803e-2, 1.23953371646414299388e0,
    5.44725003058768775090e0, 8.74716500199817011941e0, 5.30324038235394892183e0,
    9.99999999999999997821e-1])
_PQ0 = np.array([
    9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0,
    5.47097740330417105182e0, 8.76190883237069594232e0, 5.30605288235394617618e0,
    1.00000000000000000218e0])
_QP0 = np.array([
    -1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1,
    -9.32060152123768231369e1, -1.77681167980488050595e2, -1.47077505154951170175e2,
    -5.14105326766599330220e1, -6.05014350600728481186e0])
_QQ0 = np.array([  # monic: Cephes' p1evl leaves the leading 1.0 implicit
    1.0, 6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3,
    7.24046774195652478189e3, 5.93072701187316984827e3, 2.06209331660327847417e3,
    2.42005740240291393179e2])


# Coefficients a_k of the ascending series sum_k a_k (-q)^k/(k!)^2, q = (x/2)^2:
# ones give J0, the harmonic numbers H_k = 1 + 1/2 + ... + 1/k give minus the
# log-free part of Y0.
_ONES = (1.0,) * 40
_HARMONIC = (0.0, *accumulate(1.0 / k for k in range(1, 40)))


def _series_terms(q: float) -> int:
    """The last index k of the ascending series at (x/2)^2 = q that `_series`
    adds: the first whose J0 term times (H_k + 1) is below 1e-18."""
    term = 1.0
    for k in range(1, 40):
        term *= q / (k * k)
        if term * (_HARMONIC[k] + 1.0) <= 1e-18:
            break
    return k


def _series(x, small, *coefs):
    """The ascending series sum_k a_k (-q)^k/(k!)^2, q = (x/2)^2, for each
    coefficient sequence a, by Horner's rule along the last axis of x; the
    entries outside `small` enter as zeros.  Each row (index into the leading
    axes) starts at the term that `_series_terms` gives at its largest entry."""
    quarter = np.where(small, x, 0.0)
    quarter /= 2.0
    quarter *= quarter
    terms = np.array([_series_terms(q) for q in
                      quarter.max(axis=-1, initial=0.0).ravel().tolist()]).reshape(x.shape[:-1])
    top = int(terms.max(initial=0))
    sums = []
    for a in coefs:
        acc = np.full_like(quarter, a[top])
        for k in range(top, 0, -1):
            acc *= quarter
            acc /= k * k
            np.subtract(a[k - 1], acc, out=acc)
            acc[terms < k] = a[k - 1]  # a row starts at its own last term
        sums.append(acc)
    return sums


# the terms of the ascending series that a row below the cutoff takes at most
MOMENT_TERMS = _series_terms((_SERIES_CUTOFF / 2.0) ** 2) + 1


def moment_coefficients(x):
    """The coefficients of H0^(1)(x s) over the monomials s^{2k} and
    s^{2k} ln s, k < MOMENT_TERMS, for each x (a 1-D array, each entry below
    the cutoff times the largest s): t[row, k] = (-(x/2)^2)^k/(k!)^2 and
    lam[row] = (2/pi)(gamma + ln(x/2)), so that from `_series`

        H0(x s) = sum_k t_k ((1 + i lam - i (2/pi) H_k) s^{2k} + i (2/pi) s^{2k} ln s)

    with H_k the harmonic numbers; J0(x s) is sum_k t_k s^{2k}.  Every
    operation is elementwise, so a row is bitwise its own in any array."""
    x = np.asarray(x, dtype=float)
    quarter = x / 2.0
    quarter *= quarter
    t = np.empty((x.size, MOMENT_TERMS))
    t[:, 0] = 1.0
    for k in range(1, MOMENT_TERMS):
        np.multiply(t[:, k - 1], quarter, out=t[:, k])
        t[:, k] /= -float(k * k)
    lam = np.log(x / 2.0)
    lam += EULER_GAMMA
    lam *= 2.0 / pi
    return t, lam


def _asym_j0_y0(x):
    w = 5.0 / x
    z = 25.0 / (x * x)
    p = np.polyval(_PP0, z) / np.polyval(_PQ0, z)
    q = np.polyval(_QP0, z) / np.polyval(_QQ0, z)
    xn = x - _PIO4
    cn, sn = np.cos(xn), np.sin(xn)
    amp = _SQ2OPI / np.sqrt(x)
    return amp * (p * cn - w * q * sn), amp * (p * sn + w * q * cn)


def bessel_j0_rows(x):
    """J0(x) for x >= 0; each row's values are bitwise those of a call with
    that row alone."""
    x = np.asarray(x, dtype=float)
    small = x < _SERIES_CUTOFF
    j0, = _series(x, small, _ONES)
    big = ~small
    if np.any(big):
        j0[big] = _asym_j0_y0(x[big])[0]
    return j0


def _scalar_like(value, x):
    return value.item() if np.ndim(x) == 0 else value


def hankel1_0(x):
    """H0^(1)(x) = J0(x) + i Y0(x) for x > 0 (NaN is rejected too), by rows
    as in `bessel_j0_rows`: its real part is bitwise that function's J0."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xa > 0.0):
        raise ValidationError("hankel1_0", "argument must be > 0")
    small = xa < _SERIES_CUTOFF
    j, h = _series(xa, small, _ONES, _HARMONIC)
    # Y0 = (2/pi) ((ln(x/2) + gamma) J0 - h), formed in place
    y = np.log(xa / 2.0)
    y += EULER_GAMMA
    y *= j
    y -= h
    y *= 2.0 / pi
    big = ~small
    if np.any(big):
        j[big], y[big] = _asym_j0_y0(xa[big])
    out = np.empty(xa.shape, dtype=complex)
    out.real, out.imag = j, y
    return _scalar_like(out, x)


def regularized_kernel_abs(d, c):
    """H0^(1)(c d) - (2i/pi) J0(c d) ln d for separations d = |s - t| >= 0,
    c = kappa0*w/(2*pi) the aperture scale, or an array of scales, each > 0;
    the result has shape c.shape + d.shape.

    The subtraction removes the logarithmic singularity: the result is an
    entire function of d^2.  For c*d < 5, as for J0 and H0, it is summed
    directly from the ascending series (no cancellation against the log; at
    d = 0 the series is the closed-form limit 1 + (2i/pi)(gamma + ln(c/2))),
    and from 5 on the two terms are evaluated separately, which is safe since
    ln d is O(1) there.
    The series runs one row per scale, so the values of each scale are
    bitwise those of a call with that scale alone.
    """
    c = np.asarray(c, dtype=float)
    if not np.all(c > 0.0):
        raise ValidationError("c", f"kernel scale must be positive, got {c}")
    d = np.asarray(d, dtype=float)
    if not np.all(d >= 0.0):
        raise ValidationError("regularized_kernel_abs", "separations must be >= 0")
    cs = c.reshape(c.shape + (1,) * d.ndim)
    z = cs * d
    out = np.empty(z.shape, dtype=complex)
    small = z < _SERIES_CUTOFF
    if np.any(small):
        # J0 lim - (2i/pi) h with lim = 1 + (2i/pi)(gamma + ln(c/2)), one
        # half at a time (the other entries are set below); the halves take
        # only products and differences, rounded alike at any stride
        j0, h = (s.reshape(z.shape) for s in _series(z.reshape(c.size, -1),
                                                     small.reshape(c.size, -1), _ONES, _HARMONIC))
        out.real = j0
        np.multiply(j0, (2.0 / pi) * (EULER_GAMMA + np.log(cs / 2.0)), out=out.imag)
        h *= 2.0 / pi
        out.imag -= h
    big = ~small
    if np.any(big):
        j, y = _asym_j0_y0(z[big])
        y -= (2.0 / pi) * j * np.log(np.broadcast_to(d, z.shape)[big])
        out.real[big], out.imag[big] = j, y
    return out


def j0_series_remainder(z, K: int):
    """J0(z) minus its first K+1 power-series terms, summed as the explicit tail.

    The tail form stays accurate near z = 0 (leading behaviour
    (-1)^{K+1} (z/2)^{2K+2} / ((K+1)!)^2) where the difference of J0 and the
    partial sum would round to zero.  No solve path calls it.
    """
    if K < 0:
        raise ValidationError("K", "series truncation must be >= 0")
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0.0):
        raise ValidationError("j0_series_remainder", "argument must be >= 0")
    out = np.zeros(z.shape, dtype=float)
    pos = z > 0.0
    zp = z[pos]
    # first tail term via logs to dodge pow overflow at large K
    lead = (2 * K + 2) * np.log(zp / 2.0) - 2.0 * lgamma(K + 2)
    term = (-1.0) ** (K + 1) * np.exp(lead)
    acc = np.zeros_like(zp)
    k = K + 1
    for _ in range(400):
        acc = acc + term
        k += 1
        term = term * (-((zp / 2.0) ** 2)) / (k * k)
        if np.all(np.abs(term) <= 1e-25 * (1.0 + np.abs(acc))):
            break
    out[pos] = acc
    return _scalar_like(out, z)
