"""Bessel/Hankel functions and the regularized kernel.

Reference values are frozen from a 30-digit mpmath evaluation (independent
of the production series/asymptotic split).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from math import log, pi

import mpmath as mp

from cavityscat import special
from cavityscat.errors import ValidationError
from cavityscat.special import (bessel_j0_rows, hankel1_0, j0_series_remainder,
                                regularized_kernel_abs)

# mpmath dps=30
H10_AT_1 = 0.765197686557966551449717526103 + 0.0882569642156769579829267660235j
J0_ZERO1 = 2.40482555769577276862163187933
REG_AT_PI_C1 = -0.304242177644093864202034912818 + 0.55008513185716440434628853558j
REMAINDER_1_3 = 6.71433574432922749530388048482e-6


def test_j0_first_zero():
    assert abs(hankel1_0(J0_ZERO1).real) <= 1e-12


def test_y_domain_errors():
    with pytest.raises(ValidationError):
        hankel1_0(0.0)
    with pytest.raises(ValidationError):
        hankel1_0(-1.0)


def test_hankel_frozen_values():
    assert abs(hankel1_0(1.0) - H10_AT_1) <= 1e-14


def test_hankel_magnitude_decays():
    assert abs(hankel1_0(50.0)) < abs(hankel1_0(10.0))


def test_accuracy_against_mpmath_sweep():
    # random arguments across (0, 200]; tolerance 1e-13 relative with an
    # envelope guard near the zeros of each function
    rng = np.random.default_rng(42)
    xs = np.concatenate([rng.uniform(1e-3, 5.0, 60), rng.uniform(5.0, 200.0, 90),
                         [4.999999, 5.0, 5.000001]])
    with mp.workdps(30):
        for name, ours, ref in [("j0", lambda x: hankel1_0(x).real, lambda x: mp.besselj(0, x)),
                                ("y0", lambda x: hankel1_0(x).imag, lambda x: mp.bessely(0, x))]:
            for x in xs:
                want = float(ref(mp.mpf(x)))
                got = ours(float(x))
                amp = min(1.0, (2.0 / (pi * x)) ** 0.5)  # oscillation envelope
                if abs(want) >= 0.05 * amp:
                    assert abs(got - want) <= 1e-13 * abs(want), (name, x, got, want)
                else:
                    # near a zero: absolute accuracy at the envelope scale
                    assert abs(got - want) <= 1e-13 * amp, (name, x, got, want)


# rows whose largest entries below the series cutoff need different term
# counts: 0.01, 0.7, the first zero of J0 (where a term added after the row's
# own stop would show in the last bits), 4.99, and a row that crosses x = 5
_ROWS = np.array([np.linspace(1e-3, 0.01, 9), np.linspace(0.1, 0.7, 9),
                  np.linspace(0.5, J0_ZERO1, 9), np.linspace(1.0, 4.99, 9),
                  np.linspace(3.0, 12.0, 9)])


def test_hankel_real_part_is_j0_by_rows():
    # one ascending series: H0's J0 is the J0 of the log part's rows, bitwise
    assert np.array_equal(hankel1_0(_ROWS).real, bessel_j0_rows(_ROWS))
    assert np.array_equal(hankel1_0(_ROWS[2]).real, bessel_j0_rows(_ROWS[2]))


def test_hankel_rows_are_their_own_calls():
    stack = hankel1_0(_ROWS)
    assert stack.shape == _ROWS.shape
    for row, got in zip(_ROWS, stack):
        assert np.array_equal(got, hankel1_0(row))
    assert np.array_equal(hankel1_0(_ROWS.reshape(5, 3, 3)).reshape(_ROWS.shape), stack)


def test_moment_coefficients_sum_to_the_series():
    # sum_k t_k ((1 + i lam - i (2/pi) H_k) s^{2k} + i (2/pi) s^{2k} ln s) is
    # H0(x s) for x s below the cutoff, and sum_k t_k s^{2k} is J0(x s); every
    # row is bitwise its own
    x = np.array([1e-3, 0.3, 2.0, 4.99])
    t, lam = special.moment_coefficients(x)
    assert t.shape == (4, special.MOMENT_TERMS) == (4, 20) and lam.shape == (4,)
    s = np.linspace(1e-3, 1.0, 50)
    powers = s ** (2.0 * np.arange(special.MOMENT_TERMS))[:, None]
    harmonic = np.array(special._HARMONIC[:special.MOMENT_TERMS])[:, None]
    for i, xi in enumerate(x):
        j0 = t[i] @ powers
        y = (lam[i] * t[i]) @ powers - (2 / pi) * ((t[i, :, None] * harmonic * powers).sum(0)
                                                   - (t[i] @ powers) * np.log(s))
        h = hankel1_0(xi * s)
        assert np.max(np.abs(j0 - h.real)) <= 1e-14
        assert np.max(np.abs(y - h.imag)) <= 1e-14 * np.max(np.abs(h.imag))
        ti, li = special.moment_coefficients(x[i:i + 1])
        assert np.array_equal(ti[0], t[i]) and li[0] == lam[i]


@pytest.mark.parametrize("c,d", [(1.0, 5.0), (2.0, 2.5), (1.0, 8.0), (2.0, 4.0)])
def test_regularized_kernel_at_the_series_edge(c, d):
    # the series branch stops below c*d = 5, as for J0 and H0; it and the
    # branch from 5 agree with mpmath at 5 and one ulp either side (c*d is
    # exact for these c), to an absolute 1e-13: at 5 the series' largest
    # terms are ~10, the value ~0.3.  c*d = 8, the former edge, is now inside
    # the branch from 5
    with mp.workdps(30):
        for dd in (np.nextafter(d, 0.0), d, np.nextafter(d, np.inf)):
            z = mp.mpf(c) * mp.mpf(dd)
            want = complex(mp.hankel1(0, z) - 2j / mp.pi * mp.besselj(0, z) * mp.log(dd))
            got = complex(regularized_kernel_abs(dd, c))
            assert abs(got - want) <= 1e-13, (c, dd, got, want)


def test_regularized_kernel_against_mpmath_over_the_aperture():
    # 2000 separations in (0, 2 pi] at the scales 0.25 to 64: within an
    # absolute 5e-15 of 30-digit mpmath (1.96e-15 with the series below
    # c*d = 5; summed up to c*d = 8 the series was off by 3.3e-14 near 8)
    d = np.linspace(0.0, 2 * pi, 2001)[1:]
    with mp.workdps(30):
        for c in (0.25, 1.0, 4.0, 16.0, 64.0):
            want = []
            for dd in d.tolist():
                z = mp.mpf(c) * mp.mpf(dd)
                j, y = mp.besselj(0, z), mp.bessely(0, z)
                want.append(complex(j, y - 2 / mp.pi * j * mp.log(dd)))
            err = np.abs(regularized_kernel_abs(d, c) - np.array(want))
            assert err.max() <= 5e-15, (c, d[err.argmax()], err.max())


def test_kernel_scale_validation():
    for c in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError) as exc:
            regularized_kernel_abs(1.0, c)
        assert exc.value.field == "c", c


def test_regularized_kernel_over_an_array_of_scales():
    # each row is bitwise its scale's own call: c = 0.01 and 0.7 stay below
    # the z = 5 branch with series of different lengths, c = 3 and 40 cross it;
    # at z = 0.7 d = 2.4048..., the first zero of J0, a term added after the
    # row's own stop would show in the last bits
    d = np.concatenate(([0.0, 1e-12, 2.404825557695773 / 0.7],
                        np.linspace(0.0, 2 * pi, 400)[1:]))
    c = np.array([0.01, 0.7, 3.0, 40.0])
    stack = regularized_kernel_abs(d, c)
    assert stack.shape == (4, len(d))
    for i, s in enumerate(c):
        assert np.array_equal(stack[i], regularized_kernel_abs(d, float(s))), s
    grid = regularized_kernel_abs(d.reshape(3, -1), c[::-1].reshape(2, 2))
    assert grid.shape == (2, 2, 3, len(d) // 3)
    assert np.array_equal(grid.reshape(4, -1)[::-1], stack)
    with pytest.raises(ValidationError) as exc:
        regularized_kernel_abs(d, np.array([1.0, np.nan]))
    assert exc.value.field == "c"


def _former_hankel1_0(x):
    """H0 as J0 + 1j Y0 of the series and asymptotic pieces, the expression
    that formed the complex output before it was written in place."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    small = xa < 5.0
    j, h = special._series(xa, small, special._ONES, special._HARMONIC)
    y = (2.0 / pi) * ((np.log(xa / 2.0) + special.EULER_GAMMA) * j - h)
    big = ~small
    if np.any(big):
        j[big], y[big] = special._asym_j0_y0(xa[big])
    return (j + 1j * y).reshape(np.shape(x))


def _former_regularized_kernel_abs(d, c):
    """The kernel as J0 lim - (2i/pi) h below c d = 5 and J0 + i Y0 -
    (2i/pi) J0 ln d from there, complex expressions then masked."""
    c, d = np.asarray(c, dtype=float), np.asarray(d, dtype=float)
    cs = c.reshape(c.shape + (1,) * d.ndim)
    z = cs * d
    out = np.empty(z.shape, dtype=complex)
    small = z < 5.0
    j0, h = (s.reshape(z.shape) for s in special._series(
        z.reshape(c.size, -1), small.reshape(c.size, -1), special._ONES, special._HARMONIC))
    lim = 1.0 + (2j / pi) * (special.EULER_GAMMA + np.log(cs / 2.0))
    out[small] = (j0 * lim - (2j / pi) * h)[small]
    big = ~small
    if np.any(big):
        j, y = special._asym_j0_y0(z[big])
        out[big] = j + 1j * y - (2j / pi) * j * np.log(np.broadcast_to(d, z.shape)[big])
    return out


def _bitwise(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_in_place_kernels_are_bitwise_the_complex_expressions():
    # the real and imaginary halves written in place hold the bits of the
    # complex expressions, on both sides of x = 5 (H0) and c d = 5 (kernel):
    # 0-d and 1-d arguments, and a stack of scales
    x = np.concatenate((np.linspace(1e-3, 12.0, 397), np.nextafter(5.0, [0.0, 9.0]), [5.0]))
    for arg in (x, x.reshape(4, -1)[:, :99], np.float64(4.9), np.float64(5.0), 7.5):
        got = hankel1_0(arg)
        assert _bitwise(np.asarray(got), _former_hankel1_0(arg)), arg
    assert isinstance(hankel1_0(7.5), complex)
    d = np.concatenate(([0.0], np.linspace(0.0, 2 * pi, 300)[1:], np.nextafter(5.0, [0.0, 9.0]),
                        [5.0]))
    for dd, c in ((d, 1.0), (d, np.array([0.01, 1.0, 1.3, 2.0, 40.0])),
                  (d[:-3].reshape(3, 4, -1), np.array([[0.5, 1.4], [3.0, 7.0]])),
                  (np.float64(5.0), 1.0), (np.float64(3.1), np.array([1.0, 2.0, 3.0]))):
        assert _bitwise(regularized_kernel_abs(dd, c), _former_regularized_kernel_abs(dd, c)), c


def test_regularized_kernel_diagonal_limit():
    # limit 1 + (2i/pi) gamma + (2i/pi) ln(c/2) with c = kappa0 w/(2 pi)
    for c in (0.25, 1.0, 4.0):
        want = 1.0 + (2j / pi) * (special.EULER_GAMMA + log(c / 2.0))
        got = complex(regularized_kernel_abs(0.0, c))
        assert abs(got - want) <= 1e-15


def test_regularized_kernel_continuity_at_diagonal():
    val = complex(regularized_kernel_abs(1e-8, 0.25))
    lim = complex(regularized_kernel_abs(0.0, 0.25))
    assert abs(val - lim) <= 1e-6


def test_regularized_kernel_off_diagonal_frozen():
    got = complex(regularized_kernel_abs(pi, 1.0))
    assert abs(got - REG_AT_PI_C1) <= 1e-13


@given(st.floats(0.0, 2 * pi), st.floats(0.0, 2 * pi),
       st.sampled_from([0.25, 1.0, 4.0]))
def test_regularized_kernel_symmetric(s, t, c):
    assert regularized_kernel_abs(abs(s - t), c) == regularized_kernel_abs(abs(t - s), c)


def test_remainder_trivial():
    assert j0_series_remainder(0.0, 0) == 0.0


def test_remainder_small_z_limit():
    # remainder(z, K)/z^{2K+2} -> (-1)^{K+1}/(4^{K+1} ((K+1)!)^2)
    from math import factorial
    for K in (0, 2, 5):
        lim = (-1.0) ** (K + 1) / (4.0 ** (K + 1) * factorial(K + 1) ** 2)
        for z in (1e-3, 1e-2):
            got = j0_series_remainder(z, K) / z ** (2 * K + 2)
            assert abs(got - lim) <= 1e-5 * abs(lim)


def test_remainder_frozen_value():
    assert abs(j0_series_remainder(1.0, 3) - REMAINDER_1_3) <= 1e-18


def test_remainder_plus_partial_sum_is_j0():
    from math import factorial
    rng = np.random.default_rng(5)
    for z in rng.uniform(0.05, 20.0, 40):
        K = int(rng.integers(0, 11))
        terms = [(-1.0) ** k * (z / 2.0) ** (2 * k) / factorial(k) ** 2
                 for k in range(K + 1)]
        partial = sum(terms)
        scale = max(1.0, max(abs(t) for t in terms))
        err = abs(partial + j0_series_remainder(z, K) - hankel1_0(z).real)
        assert err <= 5e-14 * scale


def test_remainder_rejects_bad_args():
    with pytest.raises(ValidationError):
        j0_series_remainder(1.0, -1)
    with pytest.raises(ValidationError):
        j0_series_remainder(-1.0, 2)


# NaN compares False with every bound, so each domain check asks that every
# argument lies inside it rather than that none lies outside


@pytest.mark.parametrize("x", [float("nan"), np.array([1.0, float("nan")]), -1.0,
                               np.array([2.0, 0.0])])
def test_hankel_rejects_nan_and_nonpositive_arguments(x):
    with pytest.raises(ValidationError):
        hankel1_0(x)


@pytest.mark.parametrize("z", [float("nan"), np.array([1.0, float("nan")]), -1.0,
                               np.array([0.5, -0.5])])
def test_remainder_rejects_nan_and_negative_arguments(z):
    with pytest.raises(ValidationError):
        j0_series_remainder(z, 3)


@pytest.mark.parametrize("d", [-1.0, float("nan"), np.array([0.0, float("nan")]),
                               np.array([0.5, -0.5])])
def test_regularized_kernel_rejects_nan_and_negative_separations(d):
    with pytest.raises(ValidationError):
        regularized_kernel_abs(d, 1.0)
