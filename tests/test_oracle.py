import warnings

import numpy as np
import pytest
from math import pi

import cavityscat as cs
from cavityscat.errors import ModalResonanceError
from cavityscat.oracle import (dense_tridiag_check, fd_interior_check,
                               graded_singular_integral, kernel_block)
from cavityscat.quadrature import composite_integral_2d, gauss_rule

P1_00 = 13.338851926643350720279786356  # 4 pi^2 (ln 2pi - 3/2), mpmath dps=30


def test_graded_integral_log_closed_form():
    def f(t, s):
        d = np.abs(t - s)
        return np.log(np.where(d > 0, d, 1.0)) + 0j

    val, hist = graded_singular_integral(f, tol=1e-11)
    assert abs(val - P1_00) <= 1e-10 * P1_00
    assert len(hist) >= 2
    # oracle convergence invariant: final two refinements differ well below tol
    assert abs(hist[-1] - hist[-2]) <= 1e-11 * abs(val)


def test_graded_integral_matches_composite_gauss_on_smooth():
    def f(t, s):
        return np.cos(t - s) * np.exp(-0.1 * (t + s)) + 0j

    val, _ = graded_singular_integral(f, tol=1e-11)
    want = composite_integral_2d(lambda s, t: np.cos(t - s) * np.exp(-0.1 * (t + s)),
                                 24, gauss_rule(10))
    assert abs(val - want) <= 1e-10 * max(1.0, abs(want))


def test_kernel_block_is_minting_source():
    # reference value for the quadrature module: converged and reproducible
    v1, h1 = kernel_block("sin", 1, 1, 0.25, tol=1e-9)
    v2, _ = kernel_block("sin", 1, 1, 0.25, tol=1e-10)
    assert abs(v1 - v2) <= 1e-8 * abs(v1)


def test_dense_tridiag_small_and_mixed():
    lay = (cs.Layer(0.0, -0.6, 2.0 + 0j), cs.Layer(-0.6, -1.2, 3.0 + 1j))
    cav2 = cs.Cavity(0.0, 1.0, lay)
    rep = dense_tridiag_check(cav2, "TM", 3)
    assert rep.abs_err <= 1e-14
    ys = [0.0, -0.3, -0.5, -0.8, -1.1, -1.5, -2.0]
    kappas = [2 + 0j, 5 + 1j, 1 + 0j, 7 + 2j, 3 + 0j, 9 + 0.5j]
    lay6 = tuple(cs.Layer(ys[i], ys[i + 1], kappas[i]) for i in range(6))
    cav6 = cs.Cavity(-0.2, 1.1, lay6)
    for pol in ("TM", "TE"):
        rep = dense_tridiag_check(cav6, pol, 4, kappa0=1.3)
        assert rep.abs_err <= 1e-12


def test_resonant_case_fails_identically():
    # beta real with beta*h in pi*Z: production and oracle hit the same error
    w = 1.0
    kap = complex(np.sqrt(2.0) * pi)  # beta_1 = pi for n = 1, h = -1
    cav = cs.Cavity(0.0, w, (cs.Layer(0.0, -1.0, kap), cs.Layer(-1.0, -1.5, 2 + 0j)))
    from cavityscat.modal import connection_tm
    with pytest.raises(ModalResonanceError):
        connection_tm(cav, 1)
    with pytest.raises(ModalResonanceError):
        dense_tridiag_check(cav, "TM", 1)


def test_fd_check_zero_field_is_exact(tm_example1):
    spec, tables, sol = tm_example1
    from cavityscat.assembly import ApertureSolution
    zero = ApertureSolution(coefficients=tuple(0 * u for u in sol.coefficients),
                            layout=sol.layout, rcond=sol.rcond)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fd_interior_check(spec, tables, zero, steps=(1e-2, 5e-3), points_per_layer=4)
    assert all(v == 0.0 for v in rep.extra["norms"])
    assert rep.extra["exact"] is True
    assert rep.abs_err == 0.0 and rep.rel_err == 0.0 and rep.converged


def test_oracle_convergence_error_has_history():
    from cavityscat.errors import OracleConvergenceError

    def nasty(t, s):
        # oscillation far beyond any round's resolution: passes never agree
        return np.sin(1e5 * t * s) + 0j

    with pytest.raises(OracleConvergenceError) as exc:
        graded_singular_integral(nasty, tol=1e-13, atol=0.0, max_rounds=2)
    assert len(exc.value.history) == 2
