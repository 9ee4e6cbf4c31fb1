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
from cavityscat.special import (KernelScale, hankel1_0, j0_series_remainder,
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


def test_kernel_scale_validation():
    with pytest.raises(ValidationError):
        KernelScale(0.0)
    with pytest.raises(ValidationError):
        KernelScale(-1.0)


def test_regularized_kernel_diagonal_limit():
    # limit 1 + (2i/pi) gamma + (2i/pi) ln(c/2) with c = kappa0 w/(2 pi)
    for c in (0.25, 1.0, 4.0):
        want = 1.0 + (2j / pi) * (special.EULER_GAMMA + log(c / 2.0))
        got = complex(regularized_kernel_abs(0.0, KernelScale(c)))
        assert abs(got - want) <= 1e-15


def test_regularized_kernel_continuity_at_diagonal():
    val = complex(regularized_kernel_abs(1e-8, KernelScale(0.25)))
    lim = complex(regularized_kernel_abs(0.0, KernelScale(0.25)))
    assert abs(val - lim) <= 1e-6


def test_regularized_kernel_off_diagonal_frozen():
    got = complex(regularized_kernel_abs(pi, KernelScale(1.0)))
    assert abs(got - REG_AT_PI_C1) <= 1e-13


@given(st.floats(0.0, 2 * pi), st.floats(0.0, 2 * pi),
       st.sampled_from([0.25, 1.0, 4.0]))
def test_regularized_kernel_symmetric(s, t, c):
    scale = KernelScale(c)
    assert regularized_kernel_abs(abs(s - t), scale) == regularized_kernel_abs(abs(t - s), scale)


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
