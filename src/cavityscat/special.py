"""Real-argument Bessel and Hankel functions of order 0.

Evaluation strategy: ascending power series for x < 5, Hankel asymptotic
expansion with Cephes-style rational amplitude/phase functions for x >= 5.
The crossover at 5 keeps the series free of cancellation (largest term
~10) while the asymptotic side is well inside its validity range; both
sides agree to ~1e-15 at the joint.

Also provides the log-regularized Hankel kernel and J0 by rows, used by the
aperture quadrature, and the truncated Bessel power-series remainder, which
only the tests call (to check the truncation K of `_moments.bessel_K_for`).

All functions accept floats or numpy arrays and are pure.
"""

from __future__ import annotations

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


def _j0_ysum(x):
    """Ascending series of J0(x) and of ysum = sum_k (-1)^{k+1} H_k q^k/(k!)^2,
    q = (x/2)^2, the log-free part of Y0, along the last axis of x.  Each row
    (index into the leading axes) stops on its own once all of its terms are
    below 1e-18, so no row's values depend on another row."""
    q = (x / 2.0) ** 2
    term = np.ones_like(x)
    j0 = np.ones_like(x)
    ysum = np.zeros_like(x)
    hk = 0.0
    for k in range(1, 40):
        term = term * (-q) / (k * k)
        j0 = j0 + term
        hk += 1.0 / k
        ysum = ysum - term * hk  # (-1)^{k+1} H_k q^k/(k!)^2
        done = np.all(np.abs(term) * (hk + 1.0) <= 1e-18, axis=-1)
        if np.all(done):
            break
        term[done] = 0.0  # a stopped row adds signed zeros from here on: its sums stay put
    return j0, ysum


def _series_j0_y0(x):
    """Ascending series for J0 and Y0, x in [0, 5]."""
    x = np.asarray(x, dtype=float)
    j0, ysum = _j0_ysum(x)
    with np.errstate(divide="ignore"):
        lx = np.log(np.where(x > 0, x, 1.0) / 2.0)
    y0 = (2.0 / pi) * ((lx + EULER_GAMMA) * j0 + ysum)
    return j0, y0


def _asym_j0_y0(x):
    w = 5.0 / x
    z = 25.0 / (x * x)
    p = np.polyval(_PP0, z) / np.polyval(_PQ0, z)
    q = np.polyval(_QP0, z) / np.polyval(_QQ0, z)
    xn = x - _PIO4
    cn, sn = np.cos(xn), np.sin(xn)
    amp = _SQ2OPI / np.sqrt(x)
    return amp * (p * cn - w * q * sn), amp * (p * sn + w * q * cn)


def _j0_y0(x):
    x = np.asarray(x, dtype=float)
    j = np.empty_like(x)
    y = np.empty_like(x)
    lo = x < _SERIES_CUTOFF
    if np.any(lo):
        j[lo], y[lo] = _series_j0_y0(x[lo])
    hi = ~lo
    if np.any(hi):
        j[hi], y[hi] = _asym_j0_y0(x[hi])
    return j, y


def bessel_j0_rows(x):
    """J0(x) for x >= 0.  The ascending series runs one row (index into the
    leading axes) at a time with its own stop rule, as `_j0_ysum` does, so
    each row's values are bitwise those of a call with that row alone."""
    x = np.asarray(x, dtype=float)
    small = x < _SERIES_CUTOFF
    j0 = _j0_ysum(np.where(small, x, 0.0))[0]  # entries past the cutoff enter as zeros
    big = ~small
    if np.any(big):
        j0[big] = _asym_j0_y0(x[big])[0]
    return j0


def _scalar_like(value, x):
    return value.item() if np.ndim(x) == 0 else value


def hankel1_0(x):
    """H0^(1)(x) = J0(x) + i Y0(x) for x > 0 (NaN is rejected too)."""
    xa = np.asarray(x, dtype=float)
    if not np.all(xa > 0.0):
        raise ValidationError("hankel1_0", "argument must be > 0")
    j, y = _j0_y0(xa)
    return _scalar_like(j + 1j * y, x)


def regularized_kernel_abs(d, c):
    """H0^(1)(c d) - (2i/pi) J0(c d) ln d for separations d = |s - t| >= 0,
    c = kappa0*w/(2*pi) the aperture scale, or an array of scales, each > 0;
    the result has shape c.shape + d.shape.

    The subtraction removes the logarithmic singularity: the result is an
    entire function of d^2.  For c*d <= 8 it is summed directly from the
    ascending series (no cancellation against the log; at d = 0 the series
    is the closed-form limit 1 + (2i/pi)(gamma + ln(c/2))), above that the
    two terms are evaluated separately, which is safe since ln d is O(1) there.
    The series runs one row per scale with its own stop rule, so the values
    of each scale are bitwise those of a call with that scale alone.
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
    small = z <= 8.0
    if np.any(small):
        # the entries past 8 enter the series as zeros, whose terms vanish, so
        # each scale's stop rule reads its own entries up to 8 only
        j0, hsum = _j0_ysum(np.where(small, z, 0.0).reshape(c.size, -1))
        j0, hsum = j0.reshape(z.shape), hsum.reshape(z.shape)
        lim = 1.0 + (2j / pi) * (EULER_GAMMA + np.log(cs / 2.0))
        out[small] = (j0 * lim + (2j / pi) * hsum)[small]
    big = ~small
    if np.any(big):
        j, y = _asym_j0_y0(z[big])
        out[big] = j + 1j * y - (2j / pi) * j * np.log(np.broadcast_to(d, z.shape)[big])
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
