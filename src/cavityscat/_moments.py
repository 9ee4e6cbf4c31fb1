"""Exact trigonometric moments over [0, 2*pi], including logarithmic weights.

The recursion families that lift the kernel's log singularity all bottom out
in four 1-D moment tables at half-integer frequency q/2:

    m_s(p, q) = I s^p sin(q s/2) ds          m_c(p, q) = I s^p cos(q s/2) ds
    l_s(p, q) = I s^p ln(s) sin(q s/2) ds    l_c(p, q) = I s^p ln(s) cos(q s/2) ds

Each family satisfies a two-term integration-by-parts recurrence in p with
seeds at p = 0 (the log seeds are Si(q pi) and Cin(q pi)).  Run upward in p
the recurrences are exact but cancel heavily once p >> q, so the chains are
evaluated in mpmath at a working precision sized to the predictable digit
loss and cached; callers get mpf values and round once, after any sum that
itself cancels.

The 2-D log moments

    S_k(n, m) = II (t-s)^{k-1} ln|t-s| sin(m t/2) sin(n s/2) ds dt
    P_k(n, m) = II (t-s)^{k-1} ln|t-s| cos(m t/2) cos(n s/2) ds dt

reduce, for m+n even (they vanish for odd m+n), to single integrals of the
1-D tables against the closed-form inner product

    g(tau) = I trig(m (s+tau)/2) trig(n s/2) ds   over s in [0, 2*pi - tau],

which is what `s_moment` / `p_moment` evaluate.

The singular blocks need the log series sum_k coeff_k {S|P}_{2k+1}(n, m)
with coeff_k = (-1)^k (c/2)^{2k}/(k!)^2 for every mode pair.  Those closed
forms are linear in the tables of one frequency at a time, so
`log_series_matrix` folds the series into three sums per frequency q,

    A_q = sum_k coeff_k l_s(2k, q)     B_q = sum_k coeff_k l_c(2k, q)
    C_q = sum_k coeff_k l_c(2k+1, q),

and combines them per pair: 4/(m^2-n^2) (m A_n - n A_m) (sin) or
4/(m^2-n^2) (n A_n - m A_m) (cos, zero modes included) off the diagonal, and
2 pi B_m - C_m +- 2 A_m/m (2 (2 pi B_0 - C_0) for the cos zero mode) on it.
`log_series_sum` is the per-pair reference.
"""

from __future__ import annotations

from math import lgamma, log, log10, pi

import mpmath as mp
import numpy as np

_TABLE_DPS_MARGIN = 25


def _dps_for(pmax: int, q: int) -> int:
    """Working precision for an upward chain to power pmax at frequency q/2."""
    if q == 0:
        return 30
    lost = (lgamma(pmax + 1) - pmax * log(max(q, 1) * pi / 2.0)) / log(10.0)
    return _TABLE_DPS_MARGIN + max(0, int(lost)) + pmax // 8 + 5


class _MomentTable:
    """The four moment families for one frequency q, grown on demand."""

    __slots__ = ("q", "pmax", "dps", "ms", "mc", "ls", "lc")

    def __init__(self, q: int):
        self.q = q
        self.pmax = -1
        self.dps = 0
        self.ms = self.mc = self.ls = self.lc = None

    def ensure(self, pmax: int) -> None:
        if pmax <= self.pmax:
            return
        pmax = max(pmax, 16, 2 * max(self.pmax, 0))
        q = self.q
        dps = _dps_for(pmax, q)
        with mp.workdps(dps):
            two_pi = 2 * mp.pi
            lt = mp.log(two_pi)
            ms = [mp.mpf(0)] * (pmax + 1)
            mc = [mp.mpf(0)] * (pmax + 1)
            ls = [mp.mpf(0)] * (pmax + 1)
            lc = [mp.mpf(0)] * (pmax + 1)
            if q == 0:
                for p in range(pmax + 1):
                    mc[p] = two_pi ** (p + 1) / (p + 1)
                    lc[p] = two_pi ** (p + 1) * (lt / (p + 1) - mp.mpf(1) / (p + 1) ** 2)
            else:
                sgn = -1 if q % 2 else 1
                ms[0] = mp.mpf(2) / q * (1 - sgn)
                si = mp.si(q * mp.pi)
                cin = mp.euler + mp.log(q * mp.pi) - mp.ci(q * mp.pi)
                lc[0] = -2 * si / q
                ls[0] = (mp.mpf(2) / q) * (lt * (1 - sgn) - cin)
                for p in range(1, pmax + 1):
                    mc[p] = -(mp.mpf(2) * p / q) * ms[p - 1]
                    ms[p] = -(mp.mpf(2) / q) * sgn * two_pi ** p + (mp.mpf(2) * p / q) * mc[p - 1]
                    lc[p] = -(mp.mpf(2) * p / q) * ls[p - 1] - (mp.mpf(2) / q) * ms[p - 1]
                    ls[p] = (-(mp.mpf(2) / q) * sgn * two_pi ** p * lt
                             + (mp.mpf(2) * p / q) * lc[p - 1] + (mp.mpf(2) / q) * mc[p - 1])
        self.pmax, self.dps = pmax, dps
        self.ms, self.mc, self.ls, self.lc = ms, mc, ls, lc


_tables: dict[int, _MomentTable] = {}


def _table(q: int, pmax: int) -> _MomentTable:
    tab = _tables.get(q)
    if tab is None:
        tab = _tables[q] = _MomentTable(q)
    tab.ensure(pmax)
    return tab


def trig_moment_mp(p: int, q: int, kind: str):
    """mpf value of I s^p trig(q s/2) ds."""
    tab = _table(q, p)
    return tab.ms[p] if kind == "sin" else tab.mc[p]


def log_trig_moment_mp(p: int, q: int, kind: str):
    """mpf value of I s^p ln(s) trig(q s/2) ds."""
    tab = _table(q, p)
    return tab.ls[p] if kind == "sin" else tab.lc[p]


def s_moment_mp(k: int, n: int, m: int):
    """mpf S_k(n, m); exact zero when m + n is odd."""
    if (m + n) % 2:
        return mp.mpf(0)
    if m == n:
        return (2 * mp.pi * log_trig_moment_mp(k - 1, m, "cos")
                - log_trig_moment_mp(k, m, "cos")
                + 2 * log_trig_moment_mp(k - 1, m, "sin") / m)
    return (mp.mpf(4) / (m * m - n * n)) * (m * log_trig_moment_mp(k - 1, n, "sin")
                                            - n * log_trig_moment_mp(k - 1, m, "sin"))


def p_moment_mp(k: int, n: int, m: int):
    """mpf P_k(n, m); exact zero when m + n is odd."""
    if (m + n) % 2:
        return mp.mpf(0)
    if m == 0 and n == 0:
        return 2 * (2 * mp.pi * log_trig_moment_mp(k - 1, 0, "cos")
                    - log_trig_moment_mp(k, 0, "cos"))
    if m == 0:
        return -(mp.mpf(4) / n) * log_trig_moment_mp(k - 1, n, "sin")
    if n == 0:
        return -(mp.mpf(4) / m) * log_trig_moment_mp(k - 1, m, "sin")
    if m == n:
        return (2 * mp.pi * log_trig_moment_mp(k - 1, m, "cos")
                - log_trig_moment_mp(k, m, "cos")
                - 2 * log_trig_moment_mp(k - 1, m, "sin") / m)
    return (mp.mpf(4) / (m * m - n * n)) * (n * log_trig_moment_mp(k - 1, n, "sin")
                                            - m * log_trig_moment_mp(k - 1, m, "sin"))


def bessel_K_for(c: float, floor: int = 8) -> int:
    """Series truncation: smallest K >= floor with (c pi)^{2K+2}/((K+1)!)^2 < 1e-16.

    Keeps the J0 remainder below roundoff over the whole parameter square, so
    the alternating S/P series carries the entire log-part weight.
    """
    K = floor
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
    This is the per-pair reference of `log_series_matrix`.
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
            total += coeff * moment(2 * k + 1, n, m)
        return complex(0.0, 2.0 / pi) * float(total)


def log_series_matrix(kind: str, modes_m, modes_n, c: float, K: int) -> np.ndarray:
    """`log_series_sum` for every pair (m, n) in modes_m x modes_n.

    The series is folded into the per-frequency sums A_q, B_q, C_q (module
    docstring), each accumulated in mpmath at the reference's working
    precision and rounded once.  Off-diagonal pairs combine the rounded A_q
    in one float expression; diagonal pairs combine in mpf and round once;
    odd m+n pairs are exact zeros.
    """
    m = np.asarray(modes_m, dtype=int)
    n = np.asarray(modes_n, dtype=int)
    diag_q = set(m.tolist()) & set(n.tolist())
    A: dict[int, float] = {}
    diag: dict[int, float] = {}
    with mp.workdps(_series_dps(c, K)):
        ch2 = (mp.mpf(c) / 2) ** 2
        coeffs = [mp.mpf(1)]
        for k in range(1, K + 1):
            coeffs.append(-coeffs[-1] * ch2 / (k * k))
        for q in sorted(set(m.tolist()) | set(n.tolist())):
            tab = _table(q, 2 * K + 1)
            a = mp.fdot(coeffs, tab.ls[0:2 * K + 1:2])
            A[q] = float(a)
            if q not in diag_q:
                continue
            b = mp.fdot(coeffs, tab.lc[0:2 * K + 1:2])
            cc = mp.fdot(coeffs, tab.lc[1:2 * K + 2:2])
            if q == 0:  # sin(0 s/2) vanishes; the cos zero mode is P's own case
                diag[q] = 0.0 if kind == "sin" else float(2 * (2 * mp.pi * b - cc))
            else:
                sgn = 1 if kind == "sin" else -1
                diag[q] = float(2 * mp.pi * b - cc + sgn * 2 * a / q)
    am = np.array([A[q] for q in m.tolist()])[:, None]
    an = np.array([A[q] for q in n.tolist()])[None, :]
    M, N = m[:, None], n[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "sin":
            out = 4.0 / (M * M - N * N) * (M * an - N * am)
        else:
            out = 4.0 / (M * M - N * N) * (N * an - M * am)
    rows, cols = np.nonzero(M == N)
    out[rows, cols] = [diag[q] for q in m[rows].tolist()]
    out[(M + N) % 2 == 1] = 0.0
    return (2j / pi) * out
