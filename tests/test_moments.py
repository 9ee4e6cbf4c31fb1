"""Gauss rules, the exact moment families and their downward recursions.

The moment identities live in `oracle` as consistency checks on `_moments`.
The fixed-point tables are checked against the mpf upward recurrence, and
the 1-D log-part rule of the singular blocks (`quadrature.log_part_matrix`)
against the exact series: per pair (`_moments.log_series_sum`) and folded
in mpf (`_mpf_log_series_matrix`, kept here as a reference)."""

from functools import lru_cache

import numpy as np
import pytest
from math import log, pi

import mpmath as mp

from cavityscat import _moments
from cavityscat import oracle as o
from cavityscat import quadrature as q
from cavityscat.errors import ValidationError

from conftest import composite_integral_1d, composite_integral_2d

TWO_PI = 2 * pi
# mpmath dps=30 references
INT_S_SIN_HALF = 12.5663706143591729538505735331       # I s sin(s/2) ds = 4 pi
INT_LN = 5.26453687288593418024809453321               # I ln s ds = 2 pi (ln 2pi - 1)
P1_00 = 13.338851926643350720279786356                 # II ln|t-s| = 4 pi^2 (ln 2pi - 3/2)


def test_gauss_rule_weights_sum():
    for n in (2, 4, 7, 16):
        rule = q.gauss_rule(n)
        assert abs(np.sum(rule.weights) - 2.0) <= 1e-14
        assert np.all(rule.weights > 0)


def test_gauss_rule_degree_exactness():
    rule = q.gauss_rule(2)
    # degree 3 exactness: I_{-1}^{1} x^2 dx = 2/3
    val = np.sum(rule.weights * rule.nodes ** 2)
    assert abs(val - 2.0 / 3.0) <= 1e-15
    with pytest.raises(ValidationError):
        q.gauss_rule(1)


def test_gauss_rule_is_cached_and_read_only():
    rule = q.gauss_rule(6)
    assert q.gauss_rule(6) is rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_composite_1d_periodic_and_exponential():
    rule = q.gauss_rule(4)
    assert abs(composite_integral_1d(np.sin, 0, TWO_PI, 4, rule)) <= 1e-12
    want = 534.491655524764736503049329589  # e^{2 pi} - 1
    got = composite_integral_1d(np.exp, 0, TWO_PI, 8, rule)
    assert abs(got - want) <= 1e-10 * want


def test_composite_2d():
    rule = q.gauss_rule(4)
    got = composite_integral_2d(lambda s, t: np.sin(s) * np.cos(t / 2), 6, rule)
    # I sin(s) ds * I cos(t/2) dt = 0 * 0 = 0
    assert abs(got) <= 1e-12


def test_poly_trig_trivial_cases():
    assert o.poly_trig_integral(0, 2, "sin") == 0.0
    assert abs(o.poly_trig_integral(0, 0, "cos") - TWO_PI) <= 1e-15
    # n = 0 cosine: (2 pi)^{p+1}/(p+1)
    for p in (1, 3, 6):
        assert abs(o.poly_trig_integral(p, 0, "cos") - TWO_PI ** (p + 1) / (p + 1)) \
            <= 1e-14 * TWO_PI ** (p + 1)
    assert o.poly_trig_integral(5, 0, "sin") == 0.0


def test_poly_trig_by_parts_value():
    # I s sin(s/2) ds = 4 pi (by parts; cross-checked with composite Gauss)
    got = o.poly_trig_integral(1, 1, "sin")
    assert abs(got - INT_S_SIN_HALF) <= 1e-14 * INT_S_SIN_HALF
    rule = q.gauss_rule(8)
    gauss = composite_integral_1d(lambda s: s * np.sin(s / 2), 0, TWO_PI, 16, rule)
    assert abs(got - gauss) <= 1e-11 * abs(got)


def test_poly_trig_against_gauss_sweep():
    rule = q.gauss_rule(10)
    rng = np.random.default_rng(2)
    for _ in range(25):
        p = int(rng.integers(0, 15))
        n = int(rng.integers(0, 12))
        kind = "sin" if rng.integers(2) else "cos"
        f = np.sin if kind == "sin" else np.cos
        want = composite_integral_1d(lambda s: s ** p * f(0.5 * n * s), 0, TWO_PI, 32, rule)
        got = o.poly_trig_integral(p, n, kind)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (p, n, kind)


def test_double_poly_trig_factorizes_at_k0():
    # (t-s)^0 = 1: the double integral is the product of single moments
    for (n, m, ks, kt) in [(2, 2, "sin", "sin"), (1, 2, "sin", "sin"), (0, 4, "cos", "cos")]:
        got = o.double_poly_trig(0, n, m, ks, kt)
        want = o.poly_trig_integral(0, n, ks) * o.poly_trig_integral(0, m, kt)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_double_poly_trig_against_2d_gauss():
    rule = q.gauss_rule(10)
    for (k, n, m, ks, kt) in [(1, 1, 1, "sin", "sin"), (2, 1, 2, "sin", "cos"),
                              (3, 2, 2, "cos", "cos"), (4, 0, 3, "cos", "sin")]:
        fs = np.sin if ks == "sin" else np.cos
        ft = np.sin if kt == "sin" else np.cos
        want = composite_integral_2d(
            lambda s, t: fs(0.5 * n * s) * (t - s) ** k * ft(0.5 * m * t), 24, rule)
        got = o.double_poly_trig(k, n, m, ks, kt)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (k, n, m)


def test_double_poly_trig_order_guard():
    with pytest.raises(ValidationError):
        o.double_poly_trig(41, 1, 1, "sin", "sin")


def test_log_power_moment_closed_forms():
    # X_0(0) = I ln s ds = 2 pi (ln 2pi - 1)
    assert abs(o.log_power_moment(0, 0, "cos") - INT_LN) <= 1e-14 * INT_LN
    # W_k(0) = 0
    for k in (0, 1, 5):
        assert o.log_power_moment(k, 0, "sin") == 0.0


def test_log_power_moment_rejects_negative_power():
    # W_{-1}(n) = I sin(n s/2) ln s ds is the p = 0 entry; below it there is
    # no table entry, and a negative index must not read one from the end
    assert o.log_power_moment(-1, 1, "sin") == float(_moments.log_trig_moment_mp(0, 1, "sin"))
    for k, kind in ((-1, "cos"), (-2, "sin")):
        with pytest.raises(ValidationError):
            o.log_power_moment(k, 1, kind)


def test_log_power_moment_vs_graded_direct():
    for (k, n, kind) in [(1, 1, "sin"), (0, 2, "cos"), (3, 5, "sin"), (2, 4, "cos")]:
        exact = o.log_power_moment(k, n, kind)
        direct = o.log_power_moment_direct(k, n, kind)
        assert abs(direct - exact) <= 1e-9 * max(1.0, abs(exact)), (k, n, kind)


def test_log_power_moment_vs_mpmath():
    with mp.workdps(35):
        for (k, n, kind) in [(1, 1, "sin"), (4, 3, "sin"), (0, 1, "cos"), (5, 2, "cos")]:
            p = k + 1 if kind == "sin" else k
            f = mp.sin if kind == "sin" else mp.cos
            want = float(mp.quad(lambda s: s ** p * mp.log(s) * f(n * s / 2),
                                 mp.linspace(0, 2 * mp.pi, n + 3)))
            got = o.log_power_moment(k, n, kind)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_w_and_x_recurrences_hold():
    for (k, n) in [(0, 1), (1, 1), (2, 3), (5, 2), (8, 6), (3, 11)]:
        w_lhs = o.log_power_moment(k, n, "sin")
        assert abs(o.w_recurrence_rhs(k, n) - w_lhs) <= 1e-11 * max(1.0, abs(w_lhs))
        x_lhs = o.log_power_moment(k, n, "cos")
        assert abs(o.x_recurrence_rhs(k, n) - x_lhs) <= 1e-11 * max(1.0, abs(x_lhs))


def test_log_double_moment_parity_zero():
    assert o.log_double_moment_sin(1, 1, 2) == 0.0
    assert o.log_double_moment_cos(3, 0, 5) == 0.0


def test_log_double_moment_rejects_even_k():
    with pytest.raises(ValidationError):
        o.log_double_moment_sin(2, 1, 1)


def test_p1_00_closed_form():
    got = o.log_double_moment_cos(1, 0, 0)
    assert abs(got - P1_00) <= 1e-14 * P1_00


def test_s_and_p_recursions_hold():
    # the downward recursions reproduce the exact 2-D log moments
    for (k, n, m) in [(1, 1, 1), (1, 2, 4), (3, 3, 1), (5, 2, 2), (7, 4, 6), (9, 1, 3)]:
        lhs = o.log_double_moment_sin(k, n, m)
        assert abs(o.s_recursion_rhs(k, n, m) - lhs) <= 1e-9 * max(1.0, abs(lhs))
    for (k, n, m) in [(1, 0, 0), (1, 2, 0), (3, 1, 1), (5, 4, 2), (7, 0, 4), (9, 3, 5)]:
        lhs = o.log_double_moment_cos(k, n, m)
        assert abs(o.p_recursion_rhs(k, n, m) - lhs) <= 1e-9 * max(1.0, abs(lhs))


def test_direct_tensor_gauss_at_lift_threshold():
    # k in {lift, lift+2}: direct quadrature of the C^{k-2} integrand agrees
    lift = 11
    for k in (lift, lift + 2):
        for (kind, n, m) in [("sin", 1, 1), ("cos", 2, 4)]:
            exact = (o.log_double_moment_sin if kind == "sin"
                     else o.log_double_moment_cos)(k, n, m)
            direct = o.log_double_moment_direct(kind, k, n, m, panels=64, q=8)
            assert abs(direct - exact) <= 1e-9 * max(1.0, abs(exact)), (kind, k, n, m)


def test_s_moment_vs_graded_oracle():
    # S_1(1,1): weakly singular; graded-mesh oracle is the minting source
    from cavityscat.oracle import graded_singular_integral

    def f(t, s):
        d = np.abs(t - s)
        return np.log(np.where(d > 0, d, 1.0)) * np.sin(0.5 * t) * np.sin(0.5 * s)

    want, _ = graded_singular_integral(f, tol=1e-11)
    got = o.log_double_moment_sin(1, 1, 1)
    assert abs(got - want.real) <= 1e-8 * abs(want.real)


def test_bessel_truncation_rule():
    from cavityscat.model import QuadratureConfig
    cfg = QuadratureConfig()
    for c in (0.25, 1.0, 4.0):
        K = q.bessel_truncation(c, cfg)
        assert K >= _moments.BESSEL_K_FLOOR
        # remainder scale bound below 1e-16 at the domain corner
        assert (2 * K + 2) * log(c * pi) - 2 * sum(log(j) for j in range(1, K + 2)) < -16 * log(10)
        assert (2 * K) * log(c * pi) - 2 * sum(log(j) for j in range(1, K + 1)) >= -16 * log(10) \
            or K == _moments.BESSEL_K_FLOOR


# the scales and mode counts of the log-part checks: the former fold's set,
# a large aperture, and enhance_pair's scale kappa0 w/(2 pi) at N = 8
LOG_PART_SET = [(30, 0.24), (150, 1.0), (40, 4.0), (60, 8.0), (40, 16.0), (8, 0.0115)]


@pytest.mark.parametrize("N, c", LOG_PART_SET)
def test_folded_log_series_matches_per_pair(N, c):
    # the 1-D log-part rule against the per-pair mpmath series, on the
    # diagonal, the zero-mode row/column and a sample of off-diagonal pairs
    K = _moments.bessel_K_for(c)
    rng = np.random.default_rng(N)
    sample = rng.integers(0, N + 1, size=(80, 2)).tolist()
    for kind, lo in (("sin", 1), ("cos", 0)):
        modes = list(range(lo, N + 1))
        folded = q.log_part_matrix(kind, modes, modes, c)
        pairs = [(m, m) for m in modes] + [(m, n) for m, n in sample if m >= lo and n >= lo]
        pairs += [(0, n) for n in range(0, N + 1, 2) if kind == "cos"]
        got = np.array([folded[m - lo, n - lo] for m, n in pairs])
        want = np.array([_moments.log_series_sum(kind, n, m, c, K) for m, n in pairs])
        assert np.array_equal(got == 0, want == 0), (kind, N, c)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), (kind, N, c)
        diag = np.array([folded[i, i] for i in range(len(modes))])
        ref = want[:len(modes)]
        assert np.linalg.norm(diag - ref) <= 1e-14 * np.linalg.norm(ref), (kind, N, c)


def _dense_sums(rule, j0):
    """A_q and D_q as the former dense weight matrix of the rule's nodes:
    ln(tau) w sin(q tau/2) | (2 pi - tau) ln(tau) w cos(q tau/2), side by side,
    one product per J0 row."""
    half = np.multiply.outer(0.5 * rule.tau, np.arange(rule.q_max + 1.0))
    W = np.concatenate((np.sin(half) * rule.lw[:, None],
                        np.cos(half) * ((2 * pi - rule.tau) * rule.lw)[:, None]), axis=1)
    return np.stack([(row @ W).reshape(2, -1) for row in j0])


@pytest.mark.parametrize("N, c", LOG_PART_SET)
def test_log_part_matches_the_dense_rule(N, c, monkeypatch):
    # the panel fold and the split phases sum the same rule as the dense
    # weight matrix did; both feed the same combination into the blocks
    for kind, lo in (("sin", 1), ("cos", 0)):
        modes = list(range(lo, N + 1))
        got = q.log_part_matrix(kind, modes, modes, c)
        with monkeypatch.context() as patch:
            patch.setattr(q._LogRule, "sums", _dense_sums)
            want = q.log_part_matrix(kind, modes, modes, c)
        assert np.array_equal(got == 0, want == 0), (kind, N, c)
        assert np.linalg.norm(got - want) <= 4e-15 * np.linalg.norm(want), (kind, N, c)


def test_folded_log_series_over_an_array_of_scales():
    # one matrix per scale, each bitwise its scale's own; at 8 modes 0.24 and
    # 0.3 share a rule of two uniform panels, 1.0 and 4.0 take others
    c = np.array([[0.24, 4.0, 0.3], [1.0, 0.24, 0.3]])
    for kind, modes_m, modes_n in (("sin", range(1, 9), range(2, 7)),
                                   ("cos", range(0, 9), range(0, 9))):
        stack = q.log_part_matrix(kind, list(modes_m), list(modes_n), c)
        assert stack.shape == c.shape + (len(modes_m), len(modes_n))
        for idx in np.ndindex(c.shape):
            single = q.log_part_matrix(kind, list(modes_m), list(modes_n), float(c[idx]))
            assert np.array_equal(stack[idx], single), (kind, idx)


def test_folded_log_series_zero_modes_and_parity():
    K = _moments.bessel_K_for(1.0)
    sin = q.log_part_matrix("sin", [0, 1, 2, 3], [0, 1, 2, 3, 4], 1.0)
    assert np.all(sin[0] == 0) and np.all(sin[:, 0] == 0)  # sin(0 s/2) vanishes
    cos = q.log_part_matrix("cos", [0, 1, 2], [0, 1, 2, 3, 4], 1.0)
    for i, m in enumerate((0, 1, 2)):
        for j, n in enumerate((0, 1, 2, 3, 4)):
            want = _moments.log_series_sum("cos", n, m, 1.0, K)
            if (m + n) % 2:
                assert cos[i, j] == 0
            else:
                assert abs(cos[i, j] - want) <= 1e-15 * abs(want), (m, n)


# ---------------------------------------------------------------------------
# Fixed-point tables against the mpf recurrence; the log-part rule against
# the mpf fold


@lru_cache(maxsize=None)
def _mpf_tables(q_: int, pmax: int, dps: int):
    """(m_s, m_c, l_s, l_c) for p = 0..pmax by the upward recurrence (the
    q = 0 closed forms) in mpf arithmetic at dps digits."""
    with mp.workdps(dps):
        two_pi = 2 * mp.pi
        lt = mp.log(two_pi)
        ms = [mp.mpf(0)] * (pmax + 1)
        mc, ls, lc = list(ms), list(ms), list(ms)
        if q_ == 0:
            for p in range(pmax + 1):
                mc[p] = two_pi ** (p + 1) / (p + 1)
                lc[p] = two_pi ** (p + 1) * (lt / (p + 1) - mp.mpf(1) / (p + 1) ** 2)
        else:
            sgn = -1 if q_ % 2 else 1
            ms[0] = mp.mpf(2) / q_ * (1 - sgn)
            si = mp.si(q_ * mp.pi)
            cin = mp.euler + mp.log(q_ * mp.pi) - mp.ci(q_ * mp.pi)
            lc[0] = -2 * si / q_
            ls[0] = (mp.mpf(2) / q_) * (lt * (1 - sgn) - cin)
            for p in range(1, pmax + 1):
                mc[p] = -(mp.mpf(2) * p / q_) * ms[p - 1]
                ms[p] = -(mp.mpf(2) / q_) * sgn * two_pi ** p + (mp.mpf(2) * p / q_) * mc[p - 1]
                lc[p] = -(mp.mpf(2) * p / q_) * ls[p - 1] - (mp.mpf(2) / q_) * ms[p - 1]
                ls[p] = (-(mp.mpf(2) / q_) * sgn * two_pi ** p * lt
                         + (mp.mpf(2) * p / q_) * lc[p - 1] + (mp.mpf(2) / q_) * mc[p - 1])
    return ms, mc, ls, lc


def _mpf_log_series_matrix(kind, modes, c, K, extra):
    """The exact series folded into A_q, B_q, C_q per frequency with mpf
    tables and mpf sums (`mp.fdot`), every working precision `extra` digits
    above `_moments`' own; the float combination of `log_part_matrix` off the
    diagonal, with D_q = 2 pi B_q - C_q."""
    pmax = max(2 * K + 1, 16)
    A, diag = {}, {}
    with mp.workdps(_moments._series_dps(c, K) + extra):
        ch2 = (mp.mpf(c) / 2) ** 2
        coeffs = [mp.mpf(1)]
        for k in range(1, K + 1):
            coeffs.append(-coeffs[-1] * ch2 / (k * k))
        for q_ in modes:
            _, _, ls, lc = _mpf_tables(q_, pmax, _moments._dps_for(pmax, q_) + extra)
            a = mp.fdot(coeffs, ls[0:2 * K + 1:2])
            b = mp.fdot(coeffs, lc[0:2 * K + 1:2])
            cc = mp.fdot(coeffs, lc[1:2 * K + 2:2])
            A[q_] = float(a)
            if q_ == 0:
                diag[q_] = 0.0 if kind == "sin" else float(2 * (2 * mp.pi * b - cc))
            else:
                sgn = 1 if kind == "sin" else -1
                diag[q_] = float(2 * mp.pi * b - cc + sgn * 2 * a / q_)
    m = np.asarray(modes)
    M, N = m[:, None], m[None, :]
    am, an = np.array([A[x] for x in modes])[:, None], np.array([A[x] for x in modes])[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "sin":
            out = 4.0 / (M * M - N * N) * (M * an - N * am)
        else:
            out = 4.0 / (M * M - N * N) * (N * an - M * am)
    out[np.diag_indices(len(modes))] = [diag[x] for x in modes]
    out[(M + N) % 2 == 1] = 0.0
    return (2j / pi) * out


def test_rdiv_rounds_to_nearest():
    rdiv = _moments._rdiv
    assert [rdiv(a, 4) for a in (5, 6, 7, -5, -6, -7)] == [1, 2, 2, -1, -1, -2]
    assert [rdiv(a, 3) for a in (4, 5, -4, -5, 0)] == [1, 2, -1, -2, 0]
    big = 3 ** 200
    assert rdiv(big * 7 + 3, 7) == big and rdiv(big * 7 + 4, 7) == big + 1


@pytest.mark.parametrize("q_", [0, 1, 2, 7, 150])
def test_fixed_point_tables_match_mpf_recurrence(q_):
    # the fixed-point tables against the mpf chain at +40 digits; their guard
    # bits make them more accurate than the mpf chain at the same digits.
    # The accessors read one size class per power; each table they read for
    # p = 0..165 is checked over the powers read from it.
    pmax = 2 * 82 + 1
    read: dict[int, list[int]] = {}
    for p in range(pmax + 1):
        read.setdefault(_moments._entry_table(q_, p).pmax, []).append(p)
    assert len(read) > 1
    for size, powers in read.items():
        tab = _moments._table(q_, size)
        dps = _moments._dps_for(tab.pmax, q_)
        ref = _mpf_tables(q_, tab.pmax, dps + 40)
        same = _mpf_tables(q_, tab.pmax, dps)
        worst = worst_same = 0.0
        with mp.workdps(dps + 60):
            for i, (family, kind) in enumerate([(_moments.trig_moment_mp, "sin"),
                                                (_moments.trig_moment_mp, "cos"),
                                                (_moments.log_trig_moment_mp, "sin"),
                                                (_moments.log_trig_moment_mp, "cos")]):
                ints = (tab.ms, tab.mc, tab.ls, tab.lc)[i]
                for p in powers:
                    got = family(p, q_, kind)
                    assert mp.ldexp(got, tab.bits) == ints[p]  # exact, no rounding
                    scale = max(abs(ref[i][p]), 1)
                    worst = max(worst, float(abs(got - ref[i][p]) / scale))
                    worst_same = max(worst_same,
                                     float(abs(same[i][p] - ref[i][p]) / scale))
        assert worst <= 1e-3 * worst_same, (q_, size, worst, worst_same)
        assert worst <= 10.0 ** -(_moments._TABLE_DPS_MARGIN + 1), (q_, size)


@pytest.mark.parametrize("N, c", LOG_PART_SET)
def test_integer_fold_matches_mpf_fold(N, c):
    K = _moments.bessel_K_for(c)
    for kind, lo in (("sin", 1), ("cos", 0)):
        modes = list(range(lo, N + 1))
        got = q.log_part_matrix(kind, modes, modes, c)
        want = _mpf_log_series_matrix(kind, modes, c, K, 0)
        assert np.array_equal(got == 0, want == 0), (kind, N, c)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), (kind, N, c)


def test_zero_mode_fold_against_80_digit_reference():
    # the q = 0 entries of the exact tables reach (2 pi)^{2K+2} and the fold
    # cancels against them; the 1-D rule meets the 80-digit reference there
    c, N = 8.0, 60
    K = _moments.bessel_K_for(c)
    assert K == 82
    modes = list(range(N + 1))
    got = q.log_part_matrix("cos", modes, modes, c)
    want = _mpf_log_series_matrix("cos", modes, c, K, 80)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    assert abs(got[0, 0] - want[0, 0]) <= 1e-15 * abs(want[0, 0])


def test_tables_do_not_depend_on_call_order():
    # a table is a pure function of (q, size): reading high powers after low
    # ones neither regrows nor re-rounds the entries read before; the log
    # part reads the same rule on a fresh memo as after other rules' fills
    _moments._table.cache_clear()
    _moments._si_cin.cache_clear()
    q._log_rule.cache_clear()
    modes = list(range(1, 151))
    fresh = {kind: q.log_part_matrix(kind, modes, modes, 1.0) for kind in ("sin", "cos")}
    before = [_moments.log_trig_moment_mp(p, 1, "sin") for p in range(40)]
    for p in range(166):
        _moments.log_trig_moment_mp(p, 1, "sin")
    for q_ in modes:
        _moments.log_trig_moment_mp(165, q_, "cos")
    after = [_moments.log_trig_moment_mp(p, 1, "sin") for p in range(40)]
    assert all(x == y for x, y in zip(before, after))
    for c in (0.01, 4.0, 40.0):
        q.log_part_matrix("cos", modes[:40], modes[:40], c)
    for kind, want in fresh.items():
        got = q.log_part_matrix(kind, modes, modes, 1.0)
        assert np.array_equal(got, want), kind
    K = _moments.bessel_K_for(1.0)
    assert _moments._table(1, 2 * K + 1) is _moments._table(1, 2 * K + 1)
    assert q._log_rule(150, 35) is q._log_rule(150, 35)


@pytest.mark.parametrize("c", [0.012, 0.5, 1.0, 4.0, 16.0, 64.0])
def test_truncation_leaves_the_log_tail_below_roundoff(c):
    # the invariant that lets a singular block drop the J0 tail: beyond
    # k = K, (2/pi) R_K(c d) ln d is below 2**-53 on the whole square
    from cavityscat.special import j0_series_remainder
    d = np.linspace(0.0, 2 * pi, 4001)
    rem = j0_series_remainder(c * d, _moments.bessel_K_for(c))
    with np.errstate(divide="ignore"):
        lnd = np.where(d > 0, np.log(np.where(d > 0, d, 1.0)), 0.0)
    assert np.max(np.abs((2 / pi) * rem * lnd)) < 2.0 ** -53


def test_truncation_rejects_a_huge_aperture_at_once():
    # the search for K used to run for ever at c = 1e12
    assert _moments.bessel_K_for(_moments.MAX_APERTURE_SCALE) == 560
    for c in (1e12, float("inf"), float("nan"), 64.000001, 0.0, -1.0):
        with pytest.raises(ValidationError) as exc:
            _moments.bessel_K_for(c)
        assert exc.value.field == "c"
