import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cavityscat as cs
from cavityscat import modal
from cavityscat.errors import ModalResonanceError
from cavityscat.modal import (beta, connection_te, connection_tm, interior_coefficients,
                              layer_coeffs, mode_coefficients,
                              layer_profiles, single_layer_impedance_te,
                              single_layer_impedance_tm)

SQRT_PI2_M_225 = 2.76036309225604569175440409845  # sqrt(pi^2 - 2.25), mpmath dps=30
PI_SQRT3 = 5.44139809270265355178223477293


def test_beta_exact_zero_mode():
    assert beta(complex(math.pi), 1.0, 1) == 0.0


def test_beta_evanescent_example():
    got = beta(1.5 + 0j, 1.0, 1)
    assert abs(got - 1j * SQRT_PI2_M_225) <= 1e-15 * SQRT_PI2_M_225


def test_beta_propagating_example():
    got = beta(2 * math.pi + 0j, 1.0, 1)
    assert abs(got - PI_SQRT3) <= 1e-14 * PI_SQRT3


@given(st.floats(0.1, 30), st.floats(0, 10), st.floats(0.05, 4), st.integers(0, 40))
def test_beta_branch_nonnegative_imag(kre, kim, w, n):
    b = beta(complex(kre, kim), w, n)
    assert b.imag >= 0


def test_layer_coeffs_beta_zero_branch():
    a, b = layer_coeffs(0.0 + 0.0j, -0.5)
    assert a == 2.0 and b == -2.0


def test_layer_coeffs_identity_bulk():
    # draws within |1 - e^{-2 i beta h}| < 0.1 are redrawn: that close to an
    # interior resonance the identity check itself is ill-conditioned in
    # double precision (residual amplified like 1/|zeta|^2)
    rng = np.random.default_rng(123)
    worst = 0.0
    kept = 0
    while kept < 10_000:
        bl = complex(rng.normal(0, 4), abs(rng.normal(0, 4)))
        h = -abs(rng.uniform(0.02, 3.0))
        if abs(1 - cmath.exp(-2j * bl * h)) < 0.1:
            continue
        kept += 1
        a, b = layer_coeffs(bl, h)
        worst = max(worst, abs(a * a - b * b - bl * bl) / abs(bl * bl))
    assert worst <= 1e-12


def test_layer_coeffs_even_in_beta():
    rng = np.random.default_rng(7)
    for _ in range(200):
        bl = complex(rng.normal(0, 3), abs(rng.normal(0, 3)))
        h = -abs(rng.uniform(0.05, 2.0))
        ap, bp = layer_coeffs(bl, h)
        am, bm = layer_coeffs(-bl, h)
        assert abs(ap - am) <= 1e-13 * max(1.0, abs(ap))
        assert abs(bp - bm) <= 1e-13 * max(1.0, abs(bp))


def test_layer_resonance_raises():
    # real beta with beta*h in pi*Z makes zeta vanish
    with pytest.raises(ModalResonanceError) as exc:
        layer_coeffs(complex(math.pi), -1.0, modes=3)
    assert (exc.value.mode, exc.value.layer) == (3, 0)


def test_connection_tm_single_layer():
    cav = cs.Cavity(0.0, 1.0, (cs.Layer(0.0, -1.5, 1.5 + 0j),))
    conn = connection_tm(cav, 2)
    mc = mode_coefficients(cav, 2)
    assert conn.u_hat.shape == (0,)
    assert conn.impedance == -mc.b[0]


def test_connection_tm_two_layers_closed_form():
    cav = cs.Cavity(0.0, 1.0, (cs.Layer(0.0, -0.6, 2.0 + 0j),
                               cs.Layer(-0.6, -1.5, 4.0 + 1.0j)))
    mc = mode_coefficients(cav, 1)
    conn = connection_tm(cav, 1, coeffs=mc)
    want = 1.0 / (mc.b[0] + mc.b[1])
    assert abs(conn.u_hat[0] - want) <= 1e-14 * abs(want)


def test_single_layer_equivalence_tm():
    # L = 1, kappa = kappa0: s_hat == closed-form s^(n) of the empty cavity
    for kap, w, h in [(1.5, 1.0, 1.5), (7.3, 0.4, 0.9), (32 * math.pi, 1 / 16, 1 / 64)]:
        cav = cs.Cavity(0.0, w, (cs.Layer(0.0, -h, complex(kap)),))
        for n in (1, 2, 5, 9):
            got = connection_tm(cav, n).impedance
            want = single_layer_impedance_tm(complex(kap), w, h, n)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_single_layer_equivalence_te():
    for kap, w, h in [(1.5, 1.0, 1.5), (7.3, 0.4, 0.9)]:
        cav = cs.Cavity(0.0, w, (cs.Layer(0.0, -h, complex(kap)),))
        for n in (0, 1, 2, 5, 9):
            got = connection_te(cav, n, kap).impedance
            want = single_layer_impedance_te(complex(kap), w, h, n)
            if want == 0:
                assert abs(got) <= 1e-12
            else:
                assert abs(got - want) <= 1e-12 * abs(want)


def test_te_impedance_vanishes_at_beta_zero():
    # n0 mode of the empty cavity: beta = 0 -> t = 0
    w = 1.0
    cav = cs.Cavity(0.0, w, (cs.Layer(0.0, -0.8, complex(2 * math.pi)),))
    conn = connection_te(cav, 2, 2 * math.pi)  # kappa w = 2 pi = n pi -> n0 = 2
    assert conn.impedance == 0


def test_layer_splitting_invariance():
    rng = np.random.default_rng(17)
    for _ in range(25):
        kap = complex(rng.uniform(0.5, 8), rng.uniform(0, 2))
        w = rng.uniform(0.2, 2.0)
        depth = rng.uniform(0.3, 2.5)
        cut = rng.uniform(0.2, 0.8) * depth
        whole = cs.Cavity(0.0, w, (cs.Layer(0.0, -depth, kap),))
        split = cs.Cavity(0.0, w, (cs.Layer(0.0, -cut, kap),
                                   cs.Layer(-cut, -depth, kap)))
        n = int(rng.integers(1, 9))
        s1 = connection_tm(whole, n).impedance
        s2 = connection_tm(split, n).impedance
        assert abs(s1 - s2) <= 1e-11 * abs(s1)
        k0 = rng.uniform(0.5, 5)
        t1 = connection_te(whole, n, k0).impedance
        t2 = connection_te(split, n, k0).impedance
        assert abs(t1 - t2) <= 1e-11 * max(abs(t1), 1e-30)


def test_tridiagonal_matches_dense():
    from cavityscat.oracle import dense_tridiag_check
    rng = np.random.default_rng(11)
    for _ in range(12):
        L = int(rng.integers(2, 9))
        edges = np.sort(rng.uniform(0.1, 1.9, L - 1))
        ys = [0.0] + list(-edges) + [-2.0]
        layers = tuple(cs.Layer(ys[i], ys[i + 1],
                                complex(rng.uniform(0.4, 9), rng.uniform(0, 2.5) * (i % 2)))
                       for i in range(L))
        cav = cs.Cavity(-0.4, 0.7, layers)
        n = int(rng.integers(1, 14))
        for pol in ("TM", "TE"):
            rep = dense_tridiag_check(cav, pol, n, kappa0=1.9)
            assert rep.abs_err <= 1e-12, (pol, L, n, rep.abs_err)


def test_interior_coefficients_zero_input():
    cav = cs.Cavity(0.0, 1.0, (cs.Layer(0.0, -0.6, 2 + 0j), cs.Layer(-0.6, -1.2, 3 + 0j)))
    mc = mode_coefficients(cav, 1)
    conn = connection_tm(cav, 1, coeffs=mc)
    vals = interior_coefficients("TM", conn, 0.0)
    assert all(v == 0 for v in vals)


def test_interior_coefficients_tm_bottom_zero_and_l2():
    cav = cs.Cavity(0.0, 1.0, (cs.Layer(0.0, -0.6, 2 + 0j), cs.Layer(-0.6, -1.2, 3 + 0j)))
    mc = mode_coefficients(cav, 1)
    conn = connection_tm(cav, 1, coeffs=mc)
    vals = interior_coefficients("TM", conn, 1.0)
    assert vals[0] == 1.0
    assert vals[-1] == 0.0
    want_u1 = -mc.a[0] / (mc.b[0] + mc.b[1])
    assert abs(vals[1] - want_u1) <= 1e-13 * abs(want_u1)


def _profile(lay, bl, ut, ub, y, n=1):
    """Values and y-derivatives of one mode at the points y (or one point)."""
    vals, dy = layer_profiles(lay, [bl], [ut], [ub], np.atleast_1d(y), modes=[n], layer_index=0)
    return (vals[0], dy[0]) if np.ndim(y) else (vals[0, 0], dy[0, 0])


def test_vertical_profile_interpolates_interfaces():
    lay = cs.Layer(-0.2, -0.9, 3.0 + 0.7j)
    bl = beta(lay.kappa, 1.3, 2)
    ut, ub = 0.3 - 0.1j, -0.7 + 0.4j
    vals, _ = _profile(lay, bl, ut, ub, np.array([-0.2, -0.9]), n=2)
    assert abs(vals[0] - ut) <= 1e-13
    assert abs(vals[1] - ub) <= 1e-13


def test_vertical_profile_beta_zero_is_linear():
    lay = cs.Layer(0.0, -1.0, 1 + 0j)
    ys = np.linspace(-1.0, 0.0, 11)
    vals, dy = _profile(lay, 0.0 + 0.0j, 1.0, 0.25, ys)
    want = 0.25 + (1.0 - 0.25) * (ys + 1.0)
    assert np.max(np.abs(vals - want)) <= 1e-14
    assert np.max(np.abs(dy - 0.75)) <= 1e-14


def test_vertical_profile_matches_empty_cavity_closed_form():
    # single empty TM cavity: u^(n)(y) = (e^{-i b y} - e^{2 i b h} e^{i b y})/(1 - e^{2 i b h})
    kap, w, h = 1.5, 1.0, 1.5
    lay = cs.Layer(0.0, -h, complex(kap))
    rng = np.random.default_rng(3)
    for n in (1, 2, 7):
        bl = beta(complex(kap), w, n)
        u0 = complex(rng.normal(), rng.normal())
        ys = rng.uniform(-h, 0.0, 10)
        got, _ = _profile(lay, bl, u0, 0.0, ys, n=n)
        for y, g in zip(ys, got):
            e2 = cmath.exp(2j * bl * h)
            want = (cmath.exp(-1j * bl * y) - e2 * cmath.exp(1j * bl * y)) / (1 - e2) * u0
            assert abs(g - want) <= 1e-12 * max(1.0, abs(want))


def test_vertical_profile_evanescent_stays_finite():
    # deep strongly evanescent mode: naive exponentials would overflow
    lay = cs.Layer(0.0, -1.0, 1.0 + 0j)
    bl = beta(1.0 + 0j, 0.05, 30)  # |beta| ~ 1885
    vals, dy = _profile(lay, bl, 1.0, 0.5, np.linspace(-1.0, 0.0, 21), n=30)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(dy))
    assert abs(_profile(lay, bl, 1.0, 0.5, 0.0, n=30)[0] - 1.0) <= 1e-12


def test_vertical_profile_ode_residual_order():
    # (u^(n))'' + beta^2 u^(n) = 0, central differences, observed order >= 1.9
    lay = cs.Layer(-0.1, -1.1, 2.5 + 0.4j)
    bl = beta(lay.kappa, 0.9, 1)
    ut, ub = 1.0 + 0.2j, 0.4 - 0.5j
    ys = np.linspace(-0.95, -0.25, 9)
    resid = []
    for d in (1e-2, 5e-3, 2.5e-3):
        u0 = _profile(lay, bl, ut, ub, ys)[0]
        up = _profile(lay, bl, ut, ub, ys + d)[0]
        um = _profile(lay, bl, ut, ub, ys - d)[0]
        r = (up + um - 2 * u0) / d ** 2 + bl * bl * u0
        resid.append(float(np.median(np.abs(r))))
    order = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(resid), 1)[0]
    assert order >= 1.9


def test_profile_derivative_matches_fd():
    lay = cs.Layer(-0.1, -1.1, 2.5 + 0.4j)
    bl = beta(lay.kappa, 0.9, 2)
    ut, ub = 0.8 - 0.3j, -0.2 + 0.6j
    y, d = -0.5, 1e-6
    fd = (_profile(lay, bl, ut, ub, y + d, n=2)[0]
          - _profile(lay, bl, ut, ub, y - d, n=2)[0]) / (2 * d)
    got = _profile(lay, bl, ut, ub, y, n=2)[1]
    assert abs(got - fd) <= 1e-8 * max(1.0, abs(got))


def test_layer_profiles_batch_matches_single_modes():
    # kappa*w = n*pi makes mode 2 flat (beta = 0), mode 400 is evanescent
    # (e^{|beta h|} would overflow) and mode 1 propagates: the batch equals
    # each mode evaluated alone
    w = 0.5
    lay = cs.Layer(-0.3, -1.4, complex(4 * math.pi))
    modes = [2, 400, 1]
    betas = [beta(lay.kappa, w, n) for n in modes]
    assert betas[0] == 0 and betas[1].imag > 2000 and betas[2].imag == 0
    ut = np.array([0.4 + 0.1j, 1.0 - 0.3j, -0.6j])
    ub = np.array([-0.2 + 0.5j, 0.7, 0.3 + 0.3j])
    ys = np.linspace(-1.4, -0.3, 13)
    vals, dy = layer_profiles(lay, betas, ut, ub, ys, modes=modes, layer_index=1, cavity=0)
    assert vals.shape == dy.shape == (3, 13)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(dy))
    for i, n in enumerate(modes):
        v1, d1 = _profile(lay, betas[i], ut[i], ub[i], ys, n=n)
        assert np.array_equal(vals[i], v1) and np.array_equal(dy[i], d1)
    assert np.max(np.abs(vals[0] - (ub[0] + (ut[0] - ub[0]) * (ys + 1.4) / 1.1))) <= 1e-14
    assert abs(vals[:, 0] - ub).max() <= 1e-13 and abs(vals[:, -1] - ut).max() <= 1e-13


def test_layer_profiles_resonance_names_mode_layer_and_cavity():
    # beta h = -pi: e^{-2 i beta h} = 1, the layer formulas are undefined
    lay = cs.Layer(0.0, -1.0, complex(math.pi))
    with pytest.raises(ModalResonanceError) as exc:
        layer_profiles(lay, [2.0 + 0j, math.pi + 0j], [1.0, 1.0], [0.0, 0.0], [-0.5],
                       modes=[3, 5], layer_index=2, cavity=1)
    assert (exc.value.mode, exc.value.layer, exc.value.cavity) == (5, 2, 1)


def test_connection_resonance_raises():
    # two-layer stack whose tri-diagonal pivot b_1 + b_2 vanishes: with
    # beta = pi (kappa = pi*sqrt(2), w = 1, n = 1), b = beta*cot(beta*h), so
    # h_1 = -1/4 gives b_1 = -pi and h_2 = -3/4 gives b_2 = +pi.  The exact
    # cancellation is injected through coeffs (floating kappa leaves the
    # pivot a few ulp off zero).
    from cavityscat.errors import ConnectionResonanceError
    kap = complex(math.pi * math.sqrt(2.0))
    cav = cs.Cavity(0.0, 1.0, (cs.Layer(0.0, -0.25, kap), cs.Layer(-0.25, -1.0, kap)))
    mc = mode_coefficients(cav, 1)
    exact = replace(mc, b=np.array([-math.pi, math.pi], dtype=complex))
    with pytest.raises(ConnectionResonanceError):
        connection_tm(cav, 1, coeffs=exact)


def test_lossless_impedances_are_real():
    # for real layer wavenumbers the aperture impedances must be real; this
    # is what makes the lossless solver conserve energy (no absorption term)
    rng = np.random.default_rng(29)
    for _ in range(30):
        L = int(rng.integers(1, 5))
        edges = np.sort(rng.uniform(0.1, 1.9, L - 1)) if L > 1 else []
        ys = [0.0] + list(-np.asarray(edges)) + [-2.0]
        layers = tuple(cs.Layer(ys[i], ys[i + 1], complex(rng.uniform(0.4, 9)))
                       for i in range(L))
        cav = cs.Cavity(0.0, rng.uniform(0.3, 1.5), layers)
        n = int(rng.integers(1, 10))
        s = connection_tm(cav, n).impedance
        t = connection_te(cav, n, rng.uniform(0.5, 5)).impedance
        assert abs(s.imag) <= 1e-12 * abs(s)
        assert abs(t.imag) <= 1e-12 * max(abs(t), 1e-12)


def test_build_modal_tables_covers_modes():
    from conftest import example4_spec
    spec = example4_spec("TE", N=6)
    tables = modal.build_modal_tables(spec)
    assert len(tables.cavities) == 3
    for conn, cav in zip(tables.cavities, spec.cavities):
        assert np.array_equal(conn.n, np.arange(0, 7))
        assert conn.betas.shape == (7, cav.L) and conn.impedance.shape == (7,)
    spec = example4_spec("TM", N=6)
    tables = modal.build_modal_tables(spec)
    assert len(tables.cavities) == 3
    for conn, cav in zip(tables.cavities, spec.cavities):
        assert np.array_equal(conn.n, np.arange(1, 7))
        assert conn.u_hat.shape == (6, cav.L - 1)


def _dense_unit_load(a, b, weights, dim):
    """Reference: one mode's connection system assembled densely, u_hat from
    np.linalg.solve."""
    gb, ga = b / weights, a / weights
    A = np.zeros((dim, dim), dtype=complex)
    for l in range(dim):
        A[l, l] = gb[l] + (gb[l + 1] if l + 1 < len(gb) else 0.0)
        if l + 1 < dim:
            A[l, l + 1] = A[l + 1, l] = ga[l + 1]
    rhs = np.zeros(dim, dtype=complex)
    rhs[0] = 1.0
    return np.linalg.solve(A, rhs)


def _stack(rng, L, w):
    edges = np.sort(rng.uniform(0.1, 1.9, L - 1))
    ys = [0.0] + list(-edges) + [-2.0]
    return cs.Cavity(0.0, w, tuple(
        cs.Layer(ys[i], ys[i + 1], complex(rng.uniform(0.4, 9), rng.uniform(0, 2.5) * (i % 2)))
        for i in range(L)))


def test_batched_tables_match_dense_resolve():
    # one call per cavity solves every mode; each mode is re-solved densely.
    # Random 2-8 layer stacks with lossy layers; a stack whose layer 1 has
    # kappa w = 2 pi (TE/TM mode 2 has beta = 0 there); a deep evanescent
    # stack (w = 0.05, |beta h| ~ 1900 at n = 30) where e^{-i beta h}
    # underflows to zero.  The oracle's batched dense check agrees too.
    from cavityscat.oracle import dense_tridiag_check
    rng = np.random.default_rng(41)
    cavities = [_stack(rng, L, rng.uniform(0.3, 1.5)) for L in range(2, 9)]
    cavities.append(cs.Cavity(0.0, 1.0, (cs.Layer(0.0, -0.4, 3.0 + 0.5j),
                                         cs.Layer(-0.4, -1.1, complex(2 * math.pi)),
                                         cs.Layer(-1.1, -1.5, 1.2 + 0j))))
    cavities.append(cs.Cavity(0.0, 0.05, (cs.Layer(0.0, -0.3, 2.0 + 0j),
                                          cs.Layer(-0.3, -1.3, 1.0 + 0.2j),
                                          cs.Layer(-1.3, -2.3, 1.0 + 0j))))
    flat_seen = underflow_seen = False
    k0 = 1.9
    for cav in cavities:
        for pol in ("TM", "TE"):
            modes = np.array(modal.mode_numbers(pol, 30))
            if pol == "TM":
                conn = connection_tm(cav, modes, cavity_index=0)
                weights, dim, factor = np.ones(cav.L), cav.L - 1, 1.0
            else:
                conn = connection_te(cav, modes, k0, cavity_index=0)
                weights = np.array([lay.kappa ** 2 for lay in cav.layers])
                dim, factor = cav.L, (k0 / cav.layers[0].kappa) ** 2
            mc = conn
            assert conn.u_hat.shape == (len(modes), dim) and conn.impedance.shape == modes.shape
            hs = np.array([lay.h for lay in cav.layers])
            flat_seen |= bool(np.any(mc.betas == 0))
            underflow_seen |= bool(np.any((np.exp(-1j * mc.betas * hs) == 0) & (mc.a == 0)))
            for i, n in enumerate(modes):
                dense = _dense_unit_load(mc.a[i], mc.b[i], weights, dim)
                scale = max(1.0, float(np.max(np.abs(dense))))
                assert np.max(np.abs(conn.u_hat[i] - dense)) <= 1e-12 * scale, (pol, cav.L, n)
                a1, b1 = mc.a[i, 0], mc.b[i, 0]
                want = factor * (a1 * a1 * dense[0] / weights[0] - b1)
                tol = 1e-12 * abs(factor) * (abs(a1 * a1 * dense[0] / weights[0]) + abs(b1))
                assert abs(conn.impedance[i] - want) <= tol, (pol, cav.L, n)
            rep = dense_tridiag_check(cav, pol, modes, kappa0=k0)
            assert rep.abs_err <= 1e-12, (pol, cav.L, rep.abs_err)
    assert flat_seen and underflow_seen


def test_layer_resonance_names_smallest_mode_then_layer_then_cavity():
    # rows are modes 1..4 and columns layers 0..2; beta h in pi*Z marks a
    # resonance at (mode 3, layer 0), (mode 2, layer 2) and (mode 2, layer 1)
    hs = np.array([-1.0, -0.5, -1.0])
    betas = np.full((4, 3), 1.3 + 0.2j)
    betas[2, 0], betas[1, 2], betas[1, 1] = math.pi, 2 * math.pi, 4 * math.pi
    with pytest.raises(ModalResonanceError) as exc:
        layer_coeffs(betas, hs, modes=np.arange(1, 5), cavity=4)
    assert (exc.value.mode, exc.value.layer, exc.value.cavity) == (2, 1, 4)

    # the same through the tables: in cavity 1, layer 0 (h = -1/2, kappa =
    # pi sqrt(13)) resonates at mode 3 (beta = 2 pi), layers 1 and 2 (h = -1,
    # kappa = pi sqrt(2)) at mode 1 (beta = pi)
    k13, k2 = complex(math.pi * math.sqrt(13)), complex(math.pi * math.sqrt(2))
    bad = cs.Cavity(0.0, 1.0, (cs.Layer(0.0, -0.5, k13), cs.Layer(-0.5, -1.5, k2),
                               cs.Layer(-1.5, -2.5, k2)))
    good = cs.Cavity(-2.0, -1.0, (cs.Layer(0.0, -0.7, 2.0 + 0.3j),))
    for pol in ("TM", "TE"):
        spec = cs.validate(cs.ProblemSpec(wave=cs.IncidentWave(1.0, 0.0), polarization=pol,
                                          cavities=(good, bad), N=6))
        with pytest.raises(ModalResonanceError) as exc:
            modal.build_modal_tables(spec)
        assert (exc.value.mode, exc.value.layer, exc.value.cavity) == (1, 1, 1)


def test_connection_resonance_names_smallest_mode():
    # modes 1..4 of the two-layer stack of test_connection_resonance_raises;
    # modes 2 and 4 get the exact cancellation b_1 + b_2 = 0
    from cavityscat.errors import ConnectionResonanceError
    kap = complex(math.pi * math.sqrt(2.0))
    cav = cs.Cavity(0.0, 1.0, (cs.Layer(0.0, -0.25, kap), cs.Layer(-0.25, -1.0, kap)))
    mc = mode_coefficients(cav, np.arange(1, 5))
    b = mc.b.copy()
    b[[1, 3]] = [-math.pi, math.pi]
    exact = replace(mc, b=b)
    with pytest.raises(ConnectionResonanceError) as exc:
        connection_tm(cav, mc.n, cavity_index=2, coeffs=exact)
    assert (exc.value.mode, exc.value.cavity) == (2, 2)


def test_layer_resonances_are_checked_before_connection_pivots():
    # mode 1 alone: b_1 + b_2 cancels to roundoff (beta = pi, h = -1/4 and
    # -3/4), a connection resonance.  With modes 1..4 the layer check of all
    # modes runs first, so mode 3's resonance in layer 3 (beta = 2 pi,
    # h = -1/2) is reported although mode 1 is smaller.
    from cavityscat.errors import ConnectionResonanceError
    kap, k13 = complex(math.pi * math.sqrt(2.0)), complex(math.pi * math.sqrt(13.0))
    ys = [0.0, -0.25, -1.0, -1.5, -2.0]
    cav = cs.Cavity(0.0, 1.0, tuple(cs.Layer(ys[i], ys[i + 1], kp)
                                    for i, kp in enumerate([kap, kap, kap, k13])))
    with pytest.raises(ConnectionResonanceError) as exc:
        connection_tm(cav, 1, cavity_index=1)
    assert (exc.value.mode, exc.value.cavity) == (1, 1)
    with pytest.raises(ModalResonanceError) as exc:
        connection_tm(cav, np.arange(1, 5), cavity_index=1)
    assert (exc.value.mode, exc.value.layer, exc.value.cavity) == (3, 3, 1)
