"""Exact trigonometric moments over [0, 2*pi], including logarithmic weights.

The recursion families that lift the kernel's log singularity all bottom out
in four 1-D moment tables at half-integer frequency q/2:

    m_s(p, q) = I s^p sin(q s/2) ds          m_c(p, q) = I s^p cos(q s/2) ds
    l_s(p, q) = I s^p ln(s) sin(q s/2) ds    l_c(p, q) = I s^p ln(s) cos(q s/2) ds

Each family satisfies a two-term integration-by-parts recurrence in p with
seeds at p = 0 (the log seeds are Si(q pi) and Cin(q pi)).  Run upward in p
the recurrences are exact but cancel heavily once p >> q, so the chains are
run on Python integers in fixed point, value * 2^bits, with bits sized to the
predictable digit loss plus guard bits.  A table is a pure function of
(q, size), memoised per process.  mpmath only rounds the seeds Si(q pi),
Cin(q pi), 2 pi and ln 2 pi once per table; the powers (2 pi)^p and
(2 pi)^p ln 2 pi and every recurrence step are integer products and one
rounded division.  Callers get exact mpf entries and round once, after any
sum that itself cancels.

The 2-D log moments

    S_k(n, m) = II (t-s)^{k-1} ln|t-s| sin(m t/2) sin(n s/2) ds dt
    P_k(n, m) = II (t-s)^{k-1} ln|t-s| cos(m t/2) cos(n s/2) ds dt

reduce, for m+n even (they vanish for odd m+n), to single integrals of the
1-D tables against the closed-form inner product

    g(tau) = I trig(m (s+tau)/2) trig(n s/2) ds   over s in [0, 2*pi - tau],

which is what `s_moment_mp` / `p_moment_mp` evaluate.

`log_series_sum` is the paper's exact log part of a singular block per pair,
(2i/pi) sum_{k<=K} (-1)^k (c/2)^{2k}/(k!)^2 {S|P}_{2k+1}(n, m), K from
`bessel_K_for`.  No solve imports this module (or mpmath): it is the
reference that the tests and the `oracle` identities check the tables and
the 1-D rule of `quadrature.log_part_matrix` against.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, lgamma, log, log10, log2, pi
from typing import NamedTuple

import mpmath as mp

from .errors import ValidationError
from .model import MAX_APERTURE_SCALE

_TABLE_DPS_MARGIN = 25
_GUARD_BITS = 32


def _dps_for(pmax: int, q: int) -> int:
    """Working precision for an upward chain to power pmax at frequency q/2.

    The q = 0 closed forms lose no digits, but their entries reach
    (2 pi)^{pmax+1} and the log series sums them against coefficients whose
    absolute sum is I0(c) < e^c, so they are kept to an absolute
    10^-margin: the digits of the largest entry come on top."""
    if q == 0:
        return _TABLE_DPS_MARGIN + int((pmax + 1) * log10(2 * pi)) + pmax // 8 + 5
    lost = (lgamma(pmax + 1) - pmax * log(q * pi / 2.0)) / log(10.0)
    return _TABLE_DPS_MARGIN + max(0, int(lost)) + pmax // 8 + 5


def _bits(dps: int) -> int:
    """Fixed-point fraction bits carrying dps decimal digits, plus guard bits."""
    return ceil(dps * log2(10.0)) + _GUARD_BITS


def _rdiv(a: int, b: int) -> int:
    """a / b rounded to the nearest integer (halves up), for b > 0."""
    return (2 * a + b) // (2 * b)


def _fixed(x, bits: int) -> int:
    """The mpf x as a fixed-point integer, round(x 2^bits)."""
    return int(mp.nint(mp.ldexp(x, bits)))


class _Table(NamedTuple):
    """The four moment families for one frequency to power pmax, as
    fixed-point integers, value * 2^bits; `two_pi` is 2 pi on the same scale."""

    pmax: int
    bits: int
    two_pi: int
    ms: tuple[int, ...]
    mc: tuple[int, ...]
    ls: tuple[int, ...]
    lc: tuple[int, ...]


@lru_cache(maxsize=None)
def _si_cin(q: int, prec: int) -> tuple:
    """Si(q pi) and Cin(q pi) at prec bits, shared by tables of nearby precision."""
    with mp.workprec(prec):
        return mp.si(q * mp.pi), mp.euler + mp.log(q * mp.pi) - mp.ci(q * mp.pi)


@lru_cache(maxsize=None)
def _table(q: int, pmax: int) -> _Table:
    """The tables at frequency q/2 for p = 0 .. max(pmax, 16), a pure
    function of (q, pmax): a larger pmax is another entry, never a regrowth."""
    pmax = max(pmax, 16)
    bits = _bits(_dps_for(pmax, q))
    one = 1 << bits
    prec = -(-(bits + 16) // 8) * 8  # a multiple of 8 bits, for `_si_cin` to share
    with mp.workprec(prec):
        two_pi = _fixed(2 * mp.pi, bits)
        lt = _fixed(mp.log(2 * mp.pi), bits)
        if q:
            si, cin = (_fixed(x, bits) for x in _si_cin(q, prec))
    # (2 pi)^p and (2 pi)^p ln(2 pi), p = 0 .. pmax + 1
    pw = [one]
    for _ in range(pmax + 1):
        pw.append(_rdiv(pw[-1] * two_pi, one))
    lpw = [_rdiv(x * lt, one) for x in pw]
    ms, mc, ls, lc = ([0] * (pmax + 1) for _ in range(4))
    if q == 0:
        for p in range(pmax + 1):
            mc[p] = _rdiv(pw[p + 1], p + 1)
            lc[p] = _rdiv((p + 1) * lpw[p + 1] - pw[p + 1], (p + 1) ** 2)
    else:
        sgn = -1 if q % 2 else 1
        ms[0] = _rdiv(2 * (1 - sgn) * one, q)
        lc[0] = _rdiv(-2 * si, q)
        ls[0] = _rdiv(2 * (lt * (1 - sgn) - cin), q)
        for p in range(1, pmax + 1):
            mc[p] = _rdiv(-2 * p * ms[p - 1], q)
            ms[p] = _rdiv(-2 * sgn * pw[p] + 2 * p * mc[p - 1], q)
            lc[p] = _rdiv(-2 * p * ls[p - 1] - 2 * ms[p - 1], q)
            ls[p] = _rdiv(-2 * sgn * lpw[p] + 2 * p * lc[p - 1] + 2 * mc[p - 1], q)
    return _Table(pmax, bits, two_pi, tuple(ms), tuple(mc), tuple(ls), tuple(lc))


def _entry_table(q: int, p: int) -> _Table:
    """The table the per-entry accessors read for power p: the next power of
    two minus one (at least 16), so no entry depends on earlier reads."""
    return _table(q, max(16, (1 << int(p).bit_length()) - 1))


def _entry(family: str, p: int, q: int, size: int | None = None):
    """Entry p of one family (ms, mc, ls or lc) as an exact mpf, read from the
    table of `size` powers if given, else from `_entry_table`."""
    tab = _entry_table(q, p) if size is None else _table(q, size)
    return mp.make_mpf(mp.libmp.from_man_exp(getattr(tab, family)[p], -tab.bits))


def trig_moment_mp(p: int, q: int, kind: str):
    """mpf value of I s^p trig(q s/2) ds."""
    return _entry("ms" if kind == "sin" else "mc", p, q)


def log_trig_moment_mp(p: int, q: int, kind: str, size: int | None = None):
    """mpf value of I s^p ln(s) trig(q s/2) ds (`_entry` reads `size`)."""
    return _entry("ls" if kind == "sin" else "lc", p, q, size)


def s_moment_mp(k: int, n: int, m: int, size: int | None = None):
    """mpf S_k(n, m); exact zero when m + n is odd (`_entry` reads `size`)."""
    if (m + n) % 2:
        return mp.mpf(0)

    def lm(p, q, kind):
        return log_trig_moment_mp(p, q, kind, size)

    if m == n:
        return 2 * mp.pi * lm(k - 1, m, "cos") - lm(k, m, "cos") + 2 * lm(k - 1, m, "sin") / m
    return (mp.mpf(4) / (m * m - n * n)) * (m * lm(k - 1, n, "sin") - n * lm(k - 1, m, "sin"))


def p_moment_mp(k: int, n: int, m: int, size: int | None = None):
    """mpf P_k(n, m); exact zero when m + n is odd (`_entry` reads `size`)."""
    if (m + n) % 2:
        return mp.mpf(0)

    def lm(p, q, kind):
        return log_trig_moment_mp(p, q, kind, size)

    if m == 0 and n == 0:
        return 2 * (2 * mp.pi * lm(k - 1, 0, "cos") - lm(k, 0, "cos"))
    if m == 0:
        return -(mp.mpf(4) / n) * lm(k - 1, n, "sin")
    if n == 0:
        return -(mp.mpf(4) / m) * lm(k - 1, m, "sin")
    if m == n:
        return 2 * mp.pi * lm(k - 1, m, "cos") - lm(k, m, "cos") - 2 * lm(k - 1, m, "sin") / m
    return (mp.mpf(4) / (m * m - n * n)) * (n * lm(k - 1, n, "sin") - m * lm(k - 1, m, "sin"))


# the least log-series truncation K, whatever the aperture scale c
BESSEL_K_FLOOR = 8


def bessel_K_for(c: float) -> int:
    """Series truncation: smallest K >= BESSEL_K_FLOOR with
    (c pi)^{2K+2}/((K+1)!)^2 < 1e-16; c outside (0, MAX_APERTURE_SCALE] raises.

    Invariant (tested): the dropped J0 tail R_K keeps |(2/pi) R_K(c d) ln d|
    below 2**-53 for every d in [0, 2 pi], so the alternating S/P series
    carries the entire log-part weight and no remainder pass is needed.
    """
    if not 0.0 < c <= MAX_APERTURE_SCALE:
        raise ValidationError("c", f"aperture scale kappa0*w/(2 pi) must be positive and "
                                   f"at most {MAX_APERTURE_SCALE}, got {c}")
    K = BESSEL_K_FLOOR
    while (2 * K + 2) * log10(c * pi) - 2.0 * lgamma(K + 2) / log(10.0) >= -16.0:
        K += 1
    return K


def _series_dps(c: float, K: int) -> int:
    """Working digits of the alternating log series: enough headroom over the
    largest term magnitude, (c pi)^{2K+2} relative to the sum."""
    return 40 + int(max(0.0, (2 * K + 2) * log10(max(c, 1e-300) * pi)))


def log_series_sum(kind: str, n: int, m: int, c: float, K: int) -> complex:
    """(2i/pi) * sum_{k=0}^{K} (-1)^k (c/2)^{2k}/(k!)^2 * {S|P}_{2k+1}(n, m).

    The terms peak far above the sum once c exceeds ~1 (the truncated J0
    series diverges pointwise before the factorial wins), so the sum is
    accumulated in mpmath with exact table values and rounded once at the end.
    Every power comes from the one table of 2K + 1 powers per frequency: the
    smaller tables of `_entry_table` hold too few digits for the series'
    cancellation from c ~ 16 on (mixed, they left pairs 1.6e-9 off at c = 16).
    This is the per-pair reference of `quadrature.log_part_matrix`.
    """
    if (m + n) % 2:
        return 0.0 + 0.0j
    moment = s_moment_mp if kind == "sin" else p_moment_mp
    with mp.workdps(_series_dps(c, K)):
        ch = mp.mpf(c) / 2
        coeff = mp.mpf(1)
        total = mp.mpf(0)
        for k in range(K + 1):
            if k > 0:
                coeff = -coeff * ch * ch / (k * k)
            total += coeff * moment(2 * k + 1, n, m, 2 * K + 1)
        return complex(0.0, 2.0 / pi) * float(total)
