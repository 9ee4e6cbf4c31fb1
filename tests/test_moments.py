"""Exact moment families and their downward recursions."""

import numpy as np
import pytest
from math import factorial, log, pi

import mpmath as mp

from cavityscat import quadrature as q
from cavityscat.errors import ValidationError

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


def test_composite_1d_periodic_and_exponential():
    rule = q.gauss_rule(4)
    assert abs(q.composite_integral_1d(np.sin, 0, TWO_PI, 4, rule)) <= 1e-12
    want = 534.491655524764736503049329589  # e^{2 pi} - 1
    got = q.composite_integral_1d(np.exp, 0, TWO_PI, 8, rule)
    assert abs(got - want) <= 1e-10 * want


def test_composite_2d():
    rule = q.gauss_rule(4)
    got = q.composite_integral_2d(lambda s, t: np.sin(s) * np.cos(t / 2), 6, rule)
    # I sin(s) ds * I cos(t/2) dt = 0 * 0 = 0
    assert abs(got) <= 1e-12


def test_poly_trig_trivial_cases():
    assert q.poly_trig_integral(0, 2, "sin") == 0.0
    assert abs(q.poly_trig_integral(0, 0, "cos") - TWO_PI) <= 1e-15
    # n = 0 cosine: (2 pi)^{p+1}/(p+1)
    for p in (1, 3, 6):
        assert abs(q.poly_trig_integral(p, 0, "cos") - TWO_PI ** (p + 1) / (p + 1)) \
            <= 1e-14 * TWO_PI ** (p + 1)
    assert q.poly_trig_integral(5, 0, "sin") == 0.0


def test_poly_trig_by_parts_value():
    # I s sin(s/2) ds = 4 pi (by parts; cross-checked with composite Gauss)
    got = q.poly_trig_integral(1, 1, "sin")
    assert abs(got - INT_S_SIN_HALF) <= 1e-14 * INT_S_SIN_HALF
    rule = q.gauss_rule(8)
    gauss = q.composite_integral_1d(lambda s: s * np.sin(s / 2), 0, TWO_PI, 16, rule)
    assert abs(got - gauss) <= 1e-11 * abs(got)


def test_poly_trig_against_gauss_sweep():
    rule = q.gauss_rule(10)
    rng = np.random.default_rng(2)
    for _ in range(25):
        p = int(rng.integers(0, 15))
        n = int(rng.integers(0, 12))
        kind = "sin" if rng.integers(2) else "cos"
        f = np.sin if kind == "sin" else np.cos
        want = q.composite_integral_1d(lambda s: s ** p * f(0.5 * n * s), 0, TWO_PI, 32, rule)
        got = q.poly_trig_integral(p, n, kind)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (p, n, kind)


def test_double_poly_trig_factorizes_at_k0():
    # (t-s)^0 = 1: the double integral is the product of single moments
    for (n, m, ks, kt) in [(2, 2, "sin", "sin"), (1, 2, "sin", "sin"), (0, 4, "cos", "cos")]:
        got = q.double_poly_trig(0, n, m, ks, kt)
        want = q.poly_trig_integral(0, n, ks) * q.poly_trig_integral(0, m, kt)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_double_poly_trig_against_2d_gauss():
    rule = q.gauss_rule(10)
    for (k, n, m, ks, kt) in [(1, 1, 1, "sin", "sin"), (2, 1, 2, "sin", "cos"),
                              (3, 2, 2, "cos", "cos"), (4, 0, 3, "cos", "sin")]:
        fs = np.sin if ks == "sin" else np.cos
        ft = np.sin if kt == "sin" else np.cos
        want = q.composite_integral_2d(
            lambda s, t: fs(0.5 * n * s) * (t - s) ** k * ft(0.5 * m * t), 24, rule)
        got = q.double_poly_trig(k, n, m, ks, kt)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (k, n, m)


def test_double_poly_trig_order_guard():
    with pytest.raises(ValidationError):
        q.double_poly_trig(41, 1, 1, "sin", "sin")


def test_log_power_moment_closed_forms():
    # X_0(0) = I ln s ds = 2 pi (ln 2pi - 1)
    assert abs(q.log_power_moment(0, 0, "cos") - INT_LN) <= 1e-14 * INT_LN
    # W_k(0) = 0
    for k in (0, 1, 5):
        assert q.log_power_moment(k, 0, "sin") == 0.0


def test_log_power_moment_vs_graded_direct():
    for (k, n, kind) in [(1, 1, "sin"), (0, 2, "cos"), (3, 5, "sin"), (2, 4, "cos")]:
        exact = q.log_power_moment(k, n, kind)
        direct = q.log_power_moment_direct(k, n, kind)
        assert abs(direct - exact) <= 1e-9 * max(1.0, abs(exact)), (k, n, kind)


def test_log_power_moment_vs_mpmath():
    with mp.workdps(35):
        for (k, n, kind) in [(1, 1, "sin"), (4, 3, "sin"), (0, 1, "cos"), (5, 2, "cos")]:
            p = k + 1 if kind == "sin" else k
            f = mp.sin if kind == "sin" else mp.cos
            want = float(mp.quad(lambda s: s ** p * mp.log(s) * f(n * s / 2),
                                 mp.linspace(0, 2 * mp.pi, n + 3)))
            got = q.log_power_moment(k, n, kind)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_w_and_x_recurrences_hold():
    for (k, n) in [(0, 1), (1, 1), (2, 3), (5, 2), (8, 6), (3, 11)]:
        w_lhs = q.log_power_moment(k, n, "sin")
        assert abs(q.w_recurrence_rhs(k, n) - w_lhs) <= 1e-11 * max(1.0, abs(w_lhs))
        x_lhs = q.log_power_moment(k, n, "cos")
        assert abs(q.x_recurrence_rhs(k, n) - x_lhs) <= 1e-11 * max(1.0, abs(x_lhs))


def test_log_double_moment_parity_zero():
    assert q.log_double_moment_sin(1, 1, 2) == 0.0
    assert q.log_double_moment_cos(3, 0, 5) == 0.0


def test_log_double_moment_rejects_even_k():
    with pytest.raises(ValidationError):
        q.log_double_moment_sin(2, 1, 1)


def test_p1_00_closed_form():
    got = q.log_double_moment_cos(1, 0, 0)
    assert abs(got - P1_00) <= 1e-14 * P1_00


def test_s_and_p_recursions_hold():
    # the downward recursions reproduce the exact 2-D log moments
    for (k, n, m) in [(1, 1, 1), (1, 2, 4), (3, 3, 1), (5, 2, 2), (7, 4, 6), (9, 1, 3)]:
        lhs = q.log_double_moment_sin(k, n, m)
        assert abs(q.s_recursion_rhs(k, n, m) - lhs) <= 1e-9 * max(1.0, abs(lhs))
    for (k, n, m) in [(1, 0, 0), (1, 2, 0), (3, 1, 1), (5, 4, 2), (7, 0, 4), (9, 3, 5)]:
        lhs = q.log_double_moment_cos(k, n, m)
        assert abs(q.p_recursion_rhs(k, n, m) - lhs) <= 1e-9 * max(1.0, abs(lhs))


def test_direct_tensor_gauss_at_lift_threshold():
    # k in {lift, lift+2}: direct quadrature of the C^{k-2} integrand agrees
    lift = 11
    for k in (lift, lift + 2):
        for (kind, n, m) in [("sin", 1, 1), ("cos", 2, 4)]:
            exact = (q.log_double_moment_sin if kind == "sin"
                     else q.log_double_moment_cos)(k, n, m)
            direct = q.log_double_moment_direct(kind, k, n, m, panels=64, q=8)
            assert abs(direct - exact) <= 1e-9 * max(1.0, abs(exact)), (kind, k, n, m)


def test_s_moment_vs_graded_oracle():
    # S_1(1,1): weakly singular; graded-mesh oracle is the minting source
    from cavityscat.oracle import graded_singular_integral

    def f(t, s):
        d = np.abs(t - s)
        return np.log(np.where(d > 0, d, 1.0)) * np.sin(0.5 * t) * np.sin(0.5 * s)

    want, _ = graded_singular_integral(f, tol=1e-11)
    got = q.log_double_moment_sin(1, 1, 1)
    assert abs(got - want.real) <= 1e-8 * abs(want.real)


def test_bessel_truncation_rule():
    from cavityscat.model import QuadratureConfig
    cfg = QuadratureConfig()
    for c in (0.25, 1.0, 4.0):
        K = q.bessel_truncation(c, cfg)
        assert K >= cfg.bessel_K
        # remainder scale bound below 1e-16 at the domain corner
        assert (2 * K + 2) * log(c * pi) - 2 * sum(log(j) for j in range(1, K + 2)) < -16 * log(10)
        assert (2 * K) * log(c * pi) - 2 * sum(log(j) for j in range(1, K + 1)) >= -16 * log(10) \
            or K == cfg.bessel_K


@pytest.mark.parametrize("N, c", [(30, 0.24), (150, 1.0), (40, 4.0), (60, 8.0)])
def test_folded_log_series_matches_per_pair(N, c):
    # the per-frequency fold against the per-pair mpmath series, on the
    # diagonal, the zero-mode row/column and a sample of off-diagonal pairs
    from cavityscat import _moments
    K = _moments.bessel_K_for(c, 8)
    rng = np.random.default_rng(N)
    sample = rng.integers(0, N + 1, size=(80, 2)).tolist()
    for kind, lo in (("sin", 1), ("cos", 0)):
        modes = list(range(lo, N + 1))
        folded = _moments.log_series_matrix(kind, modes, modes, c, K)
        pairs = [(m, m) for m in modes] + [(m, n) for m, n in sample if m >= lo and n >= lo]
        pairs += [(0, n) for n in range(0, N + 1, 2) if kind == "cos"]
        got = np.array([folded[m - lo, n - lo] for m, n in pairs])
        want = np.array([_moments.log_series_sum(kind, n, m, c, K) for m, n in pairs])
        assert np.array_equal(got == 0, want == 0), (kind, N, c)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), (kind, N, c)
        diag = np.array([folded[i, i] for i in range(len(modes))])
        ref = want[:len(modes)]
        assert np.all(np.abs(diag - ref) <= 1e-14 * np.abs(ref)), (kind, N, c)


def test_folded_log_series_zero_modes_and_parity():
    from cavityscat import _moments
    K = _moments.bessel_K_for(1.0, 8)
    sin = _moments.log_series_matrix("sin", [0, 1, 2, 3], [0, 1, 2, 3, 4], 1.0, K)
    assert np.all(sin[0] == 0) and np.all(sin[:, 0] == 0)  # sin(0 s/2) vanishes
    cos = _moments.log_series_matrix("cos", [0, 1, 2], [0, 1, 2, 3, 4], 1.0, K)
    for i, m in enumerate((0, 1, 2)):
        for j, n in enumerate((0, 1, 2, 3, 4)):
            want = _moments.log_series_sum("cos", n, m, 1.0, K)
            if (m + n) % 2:
                assert cos[i, j] == 0
            else:
                assert abs(cos[i, j] - want) <= 1e-15 * abs(want), (m, n)
