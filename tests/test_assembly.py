import numpy as np
import pytest
from math import pi

import cavityscat as cs
from cavityscat import assembly
from cavityscat.assembly import (SystemFactorization, aperture_phases, build_system,
                                 solve_system)
from cavityscat.errors import SingularSystemError
from cavityscat.modal import build_modal_tables, single_layer_impedance_tm
from cavityscat.model import QuadratureConfig
from cavityscat.quadrature import SingularBlockCache, composite_integral_1d, gauss_rule

from conftest import example1_spec, example4_spec, scalar_aperture_phase


def test_incident_te_normal_incidence_m0():
    wave = cs.IncidentWave(kappa0=2.0, theta=0.0)
    cav = cs.Cavity(-0.3, 0.9, (cs.Layer(0.0, -1.0, 2.0 + 0j),))
    g0 = 2.0 * aperture_phases(wave.alpha, cav, [0], "cos")[0, 0]
    assert abs(g0 - 2.0 * cav.w) <= 1e-14


def test_incident_tm_normal_incidence_closed_form():
    # F(m) = -2 i kappa0 (w/(m pi)) (1 - (-1)^m) at alpha = 0
    wave = cs.IncidentWave(kappa0=1.7, theta=0.0)
    cav = cs.Cavity(0.0, 1.3, (cs.Layer(0.0, -1.0, 1.7 + 0j),))
    modes = (1, 2, 3, 8)
    got = -2j * wave.beta * aperture_phases(wave.alpha, cav, modes, "sin")[0]
    for m, f in zip(modes, got):
        want = -2j * 1.7 * (cav.w / (m * pi)) * (1 - (-1.0) ** m)
        assert abs(f - want) <= 1e-13 * max(1.0, abs(want))


def test_incident_degenerate_direction_matches_gauss():
    # alpha = m pi / w hits the resonant branch; a = 0 leaves the bare integral
    w, m = 1.2, 3
    mu = m * pi / w
    cav = cs.Cavity(0.0, w, (cs.Layer(0.0, -1.0, 2.0 + 0j),))
    alphas = (mu, -mu, mu * (1 + 1e-12), 0.37)
    sins = aperture_phases(alphas, cav, [m], "sin")[:, 0]
    coss = aperture_phases(alphas, cav, [m], "cos")[:, 0]
    rule = gauss_rule(10)
    for alpha, got, gotc in zip(alphas, sins, coss):
        want = composite_integral_1d(
            lambda x: np.exp(1j * alpha * x) * np.sin(mu * x), 0.0, w, 24, rule)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        wantc = composite_integral_1d(
            lambda x: np.exp(1j * alpha * x) * np.cos(mu * x), 0.0, w, 24, rule)
        assert abs(gotc - wantc) <= 1e-12 * max(1.0, abs(wantc))


@pytest.mark.parametrize("pol", ["TM", "TE"])
def test_rhs_matches_scalar_closed_form(pol):
    # three cavities; incidences with alpha = +m pi/w of one aperture and
    # -m pi/w of another (the p = 0 branch), and a generic one
    from dataclasses import replace

    spec = example4_spec(pol, N=6, panels=8, kappa0=4 * pi)
    k0 = spec.wave.kappa0
    w0, w2 = spec.cavities[0].w, spec.cavities[2].w
    tables = build_modal_tables(spec)
    cache = SingularBlockCache(spec.quad)
    kind = "sin" if pol == "TM" else "cos"
    for theta in (np.arcsin(pi / (w0 * k0)), -np.arcsin(pi / (w2 * k0)), 0.3):
        wave = cs.IncidentWave(k0, float(theta))
        got = build_system(replace(spec, wave=wave), tables, cache).rhs
        scale = -2j * wave.beta if pol == "TM" else 2.0
        want = np.array([scale * scalar_aperture_phase(wave.alpha, cav, m, kind)
                         for cav in spec.cavities for m in tables.modes()])
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), theta


def test_system_dimensions():
    tm = build_system(example1_spec("TM", N=7, panels=8))
    assert tm.lhs.shape == (7, 7)
    te = build_system(example1_spec("TE", N=7, panels=8))
    assert te.lhs.shape == (8, 8)
    tm3 = build_system(example4_spec("TM", N=5, panels=16))
    assert tm3.lhs.shape == (15, 15)
    te3 = build_system(example4_spec("TE", N=5, panels=16))
    assert te3.lhs.shape == (18, 18)


def test_example4_assembles_finite():
    sys = build_system(example4_spec("TM", N=12, panels=24))
    assert np.all(np.isfinite(sys.lhs)) and np.all(np.isfinite(sys.rhs))


def test_linearity_in_incident_amplitude():
    spec = example1_spec("TM", N=10, panels=16)
    sys = build_system(spec)
    sol1 = solve_system(sys)
    sys.rhs = 3.7j * sys.rhs
    sol2 = solve_system(sys)
    u1 = np.concatenate(sol1.coefficients)
    u2 = np.concatenate(sol2.coefficients)
    assert np.max(np.abs(u2 - 3.7j * u1)) <= 1e-12 * np.max(np.abs(u2))


def test_deterministic_bitwise_repeat():
    spec = example4_spec("TE", N=8, panels=16)
    a = np.concatenate(cs.solve(spec)[1].coefficients)
    b = np.concatenate(cs.solve(spec)[1].coefficients)
    assert np.array_equal(a.view(np.float64), b.view(np.float64))


def test_single_cavity_path_matches_dedicated_impedance():
    # multi-cavity assembly with L = 1, kappa = kappa0 must reproduce the
    # dedicated empty-cavity diagonal s^(n): swap the connection impedance for
    # the closed form and compare solutions
    spec = example1_spec("TM", N=12, panels=32)
    tables = build_modal_tables(spec)
    sys = build_system(spec, tables)
    got = np.concatenate(solve_system(sys).coefficients)

    w = spec.cavities[0].w
    s_closed = np.array([single_layer_impedance_tm(1.5 + 0j, w, 1.5, n)
                         for n in range(1, 13)])
    s_conn = np.array([tables.connection(0, n).impedance for n in range(1, 13)])
    lhs2 = sys.lhs + np.diag(0.5 * w * (s_closed - s_conn))
    direct = np.linalg.solve(lhs2, sys.rhs)
    assert np.max(np.abs(direct - got)) <= 1e-10 * np.max(np.abs(got))


def test_solve_zero_rhs_gives_zero():
    spec = example1_spec("TE", N=6, panels=8)
    sys = build_system(spec)
    sys.rhs = np.zeros_like(sys.rhs)
    sol = solve_system(sys)
    assert np.all(np.concatenate(sol.coefficients) == 0)


def test_dense_solve_residual_random():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50)) + 10 * np.eye(50)
    b = rng.normal(size=50) + 1j * rng.normal(size=50)
    from cavityscat.assembly import ApertureSystem, ModeLayout
    sys = ApertureSystem(lhs=A, rhs=b, layout=ModeLayout("TM", 50, 1))
    sol = solve_system(sys)
    x = np.concatenate(sol.coefficients)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-12
    assert sol.rcond > 1e-14
    assert sol.diagnostics == []


def test_singular_matrix_raises():
    from cavityscat.assembly import ApertureSystem, ModeLayout
    A = np.zeros((4, 4), dtype=complex)
    sys = ApertureSystem(lhs=A, rhs=np.ones(4, dtype=complex),
                         layout=ModeLayout("TM", 4, 1))
    with pytest.raises(SingularSystemError):
        solve_system(sys)


def test_rcond_warning_attached():
    from cavityscat.assembly import ApertureSystem, ModeLayout
    A = np.diag([1.0, 1.0, 1.0, 1e-16]).astype(complex)
    sys = ApertureSystem(lhs=A, rhs=np.ones(4, dtype=complex),
                         layout=ModeLayout("TM", 4, 1))
    sol = solve_system(sys)
    assert sol.diagnostics and "rcond" in sol.diagnostics[0]


def test_factorization_reuse_matches_fresh_solve():
    spec = example1_spec("TM", N=8, panels=16)
    sys = build_system(spec)
    fact = SystemFactorization(sys)
    a = np.concatenate(fact.solve(sys.rhs).coefficients)
    b = np.concatenate(solve_system(sys).coefficients)
    assert np.array_equal(a, b)


def test_solution_stable_under_panel_doubling():
    # quadrature already converged at defaults: doubling panels moves the
    # solution by < 1e-8 in max norm
    a = np.concatenate(cs.solve(example1_spec("TM", N=30, panels=64))[1].coefficients)
    b = np.concatenate(cs.solve(example1_spec("TM", N=30, panels=128))[1].coefficients)
    assert np.max(np.abs(a - b)) < 1e-8


def test_te_single_cavity_against_independent_assembly():
    # end-to-end cross-check of the TE path: kernel blocks from the graded
    # oracle, closed-form impedances and incident vector, dense solve
    from math import pi

    from cavityscat.modal import single_layer_impedance_te
    from cavityscat.oracle import kernel_block

    spec = example1_spec("TE", N=8, panels=48)
    _, sol = __import__("cavityscat").solve(spec)
    prod = np.concatenate(sol.coefficients)

    cav = spec.cavities[0]
    w, k0 = cav.w, spec.wave.kappa0
    c = k0 * w / (2 * pi)
    N = spec.N
    M = np.zeros((N + 1, N + 1), dtype=complex)
    for m in range(N + 1):
        for n in range(m, N + 1):
            if (m + n) % 2:
                continue
            val, _ = kernel_block("cos", m, n, c, tol=1e-10)
            M[m, n] = M[n, m] = -0.5j * (w / (2 * pi)) ** 2 * val
    t = np.array([single_layer_impedance_te(complex(k0), w, cav.depth, n)
                  for n in range(N + 1)])
    D = np.diag([w] + [w / 2] * N).astype(complex)
    G = np.array([2.0 * scalar_aperture_phase(spec.wave.alpha, cav, m, "cos")
                  for m in range(N + 1)])
    ref = np.linalg.solve(D - M * t[None, :], G)
    assert np.max(np.abs(prod - ref)) <= 1e-8 * np.max(np.abs(ref))


def _two_call_cross_blocks(spec, tables):
    """Reference: every ordered cavity pair (k, j) from its own cross-block
    integrals, as -M_{k,j} (TM) or -M_hat_{k,j} (TE)."""
    from cavityscat.quadrature import cross_block_matrix
    k0 = spec.wave.kappa0
    modes = np.array(list(tables.modes()))
    blocks = {}
    for k, cav_k in enumerate(spec.cavities):
        for j, cav_j in enumerate(spec.cavities):
            if j == k:
                continue
            cc = cross_block_matrix(cav_k, cav_j, modes, modes, k0, "cos", spec.quad)
            if spec.polarization == "TM":
                ss = cross_block_matrix(cav_k, cav_j, modes, modes, k0, "sin", spec.quad)
                mn = modes[:, None] * modes[None, :]
                blocks[k, j] = -(0.5j * k0 * k0 * ss - 0.5j * mn * pi * pi / (cav_j.w * cav_k.w) * cc)
            else:
                t_j = np.array([tables.connection(j, n).impedance for n in modes])
                blocks[k, j] = 0.5j * cc * t_j[None, :]
    return blocks


@pytest.mark.parametrize("pol", ["TM", "TE"])
def test_cross_pairs_integrated_once(pol, monkeypatch):
    # block (j, k) is the transpose of block (k, j); three cavities
    spec = example4_spec(pol, N=6, panels=16)
    tables = build_modal_tables(spec)
    calls = []
    cross = assembly.cross_block_matrix

    def counted(*args):
        calls.append(args)
        return cross(*args)

    monkeypatch.setattr(assembly, "cross_block_matrix", counted)
    lhs = build_system(spec, tables).lhs
    monkeypatch.undo()
    per_kind = 2 if pol == "TM" else 1
    assert len(calls) == 3 * per_kind  # 3 pairs, not 6 ordered pairs
    ref = lhs.copy()
    lay = assembly.ModeLayout(spec.polarization, spec.N, spec.K)
    for (k, j), block in _two_call_cross_blocks(spec, tables).items():
        ref[lay.block_slice(k), lay.block_slice(j)] = block
    assert np.linalg.norm(lhs - ref) <= 1e-13 * np.linalg.norm(ref)
