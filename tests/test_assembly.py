import warnings

import numpy as np
import pytest
from math import pi

import cavityscat as cs
from cavityscat import assembly
from cavityscat.assembly import (SystemFactorization, aperture_phases, build_system,
                                 solve_system)
from cavityscat.errors import SingularSystemError, ValidationError
from cavityscat.modal import build_modal_tables, single_layer_impedance_tm
from cavityscat.quadrature import gauss_rule

from conftest import (composite_integral_1d, example1_spec, example4_spec,
                      scalar_aperture_phase)


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
    kind = "sin" if pol == "TM" else "cos"
    for theta in (np.arcsin(pi / (w0 * k0)), -np.arcsin(pi / (w2 * k0)), 0.3):
        wave = cs.IncidentWave(k0, float(theta))
        got = build_system(replace(spec, wave=wave), tables).rhs
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
    s_conn = tables.cavities[0].impedance
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
    # one structured error and no warning: an exactly singular matrix, one
    # whose inverse overflows, and one whose norm product 1/rcond overflows
    from cavityscat.assembly import ApertureSystem, ModeLayout
    for A in (np.zeros((4, 4), dtype=complex),
              np.diag([1.0, 1.0, 1.0, 1e-310]).astype(complex),
              np.diag([1e300, 1.0, 1.0, 1e-300]).astype(complex)):
        sys = ApertureSystem(lhs=A, rhs=np.ones(4, dtype=complex),
                             layout=ModeLayout("TM", 4, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError):
                solve_system(sys)


@pytest.mark.parametrize("pol", ["TM", "TE"])
def test_rcond_is_exact_and_below_lapack_estimate(pol):
    # the exact 1-norm rcond; LAPACK's gecon estimates ||A^-1||_1 from below,
    # so its rcond can only be larger
    import scipy.linalg as sla
    sys = build_system(example4_spec(pol, N=20))
    fact, A = SystemFactorization(sys), sys.lhs
    exact = 1.0 / np.linalg.cond(A, 1)
    assert abs(fact.rcond - exact) <= 1e-12 * exact
    lu, _ = sla.lu_factor(A)
    gecon = sla.get_lapack_funcs("gecon", (lu,))
    estimate, info = gecon(lu, np.linalg.norm(A, 1), norm="1")
    assert info == 0 and fact.rcond <= estimate * (1 + 1e-12)


@pytest.mark.parametrize("pol", ["TM", "TE"])
def test_backward_error_of_every_solve(pol):
    sys = build_system(example4_spec(pol, N=20))
    fact = SystemFactorization(sys)
    sol = fact.solve(sys.rhs)
    x = np.concatenate(sol.coefficients)
    assert 0.0 <= sol.backward_error < 1e-13
    assert sol.backward_error == fact.backward_error(x, sys.rhs)
    assert fact.backward_error(x * (1 + 1e-9), sys.rhs) > 1e-11
    # a matrix right-hand side (a zero column included) reports its worst column
    rhs = np.stack([sys.rhs, 1j * sys.rhs, np.zeros_like(sys.rhs)], axis=1)
    multi = fact.solve(rhs)
    assert 0.0 <= multi.backward_error < 1e-13
    cols = np.concatenate(multi.coefficients)
    cols[:, 1] *= 1 + 1e-9
    assert fact.backward_error(cols, rhs) == pytest.approx(
        fact.backward_error(cols[:, 1], rhs[:, 1]), rel=1e-6)


@pytest.mark.parametrize("pol", ["TM", "TE"])
def test_sweep_rows_are_the_single_solves_of_their_rows(pol):
    # one stacked solve over the chunk: each row's x is bitwise solve_system
    # on that row's system, its backward error the same to 1e-13
    from cavityscat.assembly import ApertureSystem
    spec, kappas = example4_spec(pol, N=6, panels=16), np.linspace(5.0, 7.0, 5)
    tables, sols = assembly.solve_sweep(spec, kappas)
    stack = build_system(spec, build_modal_tables(spec, kappas))
    for i, sol in enumerate(sols):
        single = solve_system(ApertureSystem(stack.lhs[i], stack.rhs[i], stack.layout))
        for a, b in zip(sol.coefficients, single.coefficients):
            assert np.array_equal(a, b)
        assert sol.rcond == single.rcond
        assert abs(sol.backward_error - single.backward_error) <= 1e-13 * single.backward_error


def test_sweep_factors_each_wavenumber_once(monkeypatch):
    # every wavenumber keeps its own factorization (its rcond and singular
    # check), which the benchmark harness counts; the stack is solved once
    inits, solves = [], []
    init, solve_stack = SystemFactorization.__init__, assembly._solve_stack

    def counted(self, system):
        init(self, system)
        inits.append(self.rcond)

    def stacked(lhs, rhs):
        solves.append(lhs.shape)
        return solve_stack(lhs, rhs)

    monkeypatch.setattr(SystemFactorization, "__init__", counted)
    monkeypatch.setattr(assembly, "_solve_stack", stacked)
    spec = example4_spec("TE", N=4, panels=16)
    _, sols = assembly.solve_sweep(spec, np.linspace(5.0, 7.0, 7))
    assert inits == [sol.rcond for sol in sols] and len(inits) == 7
    assert solves == [(7, 15, 15)]


def test_singular_row_fails_its_chunk_and_is_isolated_by_halves(tmp_path, monkeypatch):
    # a singular system at the third of five wavenumbers fails the stacked
    # chunk before any solve; the chunk is solved again by halves, so only
    # that row is NaN, with the single solve's error
    from cavityscat import cli
    spec = cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(1.5, 0.0), polarization="TE",
        cavities=(cs.Cavity(-0.025, 0.025, (cs.Layer(0.0, -1.0, 1.5 + 0j),)),),
        N=4, quad=cs.QuadratureConfig(panels=12)))
    spec_path = tmp_path / "spec.json"
    cs.save_spec(spec, spec_path)
    kappas = np.linspace(1.4, 1.6, 5)
    build, chunks = assembly.build_system, []

    def singular_at_third(spec, tables=None):
        system = build(spec, tables)
        k0 = np.atleast_1d(tables.kappa0)
        chunks.append(len(k0))
        system.lhs[k0 == kappas[2]] = 0.0
        return system

    monkeypatch.setattr(assembly, "build_system", singular_at_third)
    out = tmp_path / "out"
    assert cli.main(["enhance", "--spec", str(spec_path), "--out", str(out),
                     "--kappa-min", "1.4", "--kappa-max", "1.6", "--kappa-steps", "5"]) == 0
    assert chunks == [5, 2, 3, 1, 2]
    rows = [line.split(",") for line in (out / "enhancement.csv").read_text().splitlines()[1:]]
    assert [r[1] == "nan" for r in rows] == [False, False, True, False, False]
    import json
    failed = json.loads((out / "manifest.json").read_text())["diagnostics"]["failed"]
    assert failed == [{"kappa": kappas[2], "error": "system singular (rcond = 0)"}]


def test_matrix_right_hand_side_is_one_plain_solve():
    # backscatter_sweep's path: a matrix of right-hand sides is solved by one
    # np.linalg.solve and its backward error is the worst column's, in the
    # same operations as before the stacked solve, so rcs outputs keep their bits
    sys = build_system(example1_spec("TM", N=12, panels=16))
    fact = SystemFactorization(sys)
    rhs = np.stack([sys.rhs * (1.0 + 0.1j * k) for k in range(5)], axis=1)
    sol = fact.solve(rhs)
    x = np.linalg.solve(sys.lhs, rhs)
    assert np.array_equal(np.concatenate(sol.coefficients), x)
    resid = np.abs(rhs - sys.lhs @ x).max(axis=0)
    scale = np.linalg.norm(sys.lhs, np.inf) * np.abs(x).max(axis=0) + np.abs(rhs).max(axis=0)
    assert sol.backward_error == float(np.max(resid / scale))


def test_rcond_warning_attached():
    from cavityscat.assembly import ApertureSystem, ModeLayout
    A = np.diag([1.0, 1.0, 1.0, 1e-16]).astype(complex)
    sys = ApertureSystem(lhs=A, rhs=np.ones(4, dtype=complex),
                         layout=ModeLayout("TM", 4, 1))
    sol = solve_system(sys)
    assert sol.diagnostics and "rcond" in sol.diagnostics[0]


def test_coefficient_outside_the_layout_raises():
    # n - modes.start would wrap to the last mode at TM n = 0, and k = -1 to the last cavity
    from cavityscat.assembly import ApertureSystem, ModeLayout
    for pol, modes in (("TM", range(1, 5)), ("TE", range(0, 5))):
        rhs = np.array(modes, dtype=complex) + 1.0
        sol = solve_system(ApertureSystem(lhs=np.eye(len(modes), dtype=complex), rhs=rhs,
                                          layout=ModeLayout(pol, 4, 1)))
        assert [sol.coefficient(0, n) for n in modes] == list(rhs)
        for k, n in ((0, modes.start - 1), (0, 5), (-1, 1), (1, 1)):
            with pytest.raises(ValidationError):
                sol.coefficient(k, n)


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


def _block_reference(spec, tables):
    """Reference lhs assembled block by block: every ordered cavity pair
    (k, j) from its own kernel integrals, cross blocks from
    `cross_block_matrix` and diagonal blocks from `singular_block_matrix`
    scaled by (w/2pi)^2, as -M_{k,j} (TM) or -M_hat_{k,j} (TE); the diagonal
    blocks add w/2 s_hat (TM) or the norms w, w/2, ..., w/2 (TE)."""
    from cavityscat.quadrature import cross_block_matrix, singular_block_matrix
    k0 = spec.wave.kappa0
    modes = np.array(list(tables.modes()))
    mn = modes[:, None] * modes[None, :]
    lay = assembly.ModeLayout(spec.polarization, spec.N, spec.K)
    lhs = np.zeros((lay.size, lay.size), dtype=complex)
    for k, cav_k in enumerate(spec.cavities):
        for j, cav_j in enumerate(spec.cavities):
            if j == k:
                c = k0 * cav_k.w / (2 * pi)
                integral = lambda kind: ((cav_k.w / (2 * pi)) ** 2
                                         * singular_block_matrix(modes, modes, c, kind, spec.quad))
            else:
                integral = lambda kind: cross_block_matrix(cav_k, cav_j, modes, modes, k0, kind,
                                                           spec.quad)
            if spec.polarization == "TM":
                block = -(0.5j * k0 * k0 * integral("sin")
                          - 0.5j * mn * pi * pi / (cav_j.w * cav_k.w) * integral("cos"))
                if j == k:
                    block += np.diag(0.5 * cav_k.w * tables.cavities[k].impedance)
            else:
                block = 0.5j * integral("cos") * tables.cavities[j].impedance[None, :]
                if j == k:
                    block += np.diag([cav_k.w] + [cav_k.w / 2] * spec.N)
            lhs[lay.block_slice(k), lay.block_slice(j)] = block
    return lhs


@pytest.mark.parametrize("pol", ["TM", "TE"])
def test_cross_pairs_integrated_once(pol, monkeypatch):
    # block (j, k) is the transpose of block (k, j); three cavities of
    # widths 0.5, 0.2 and 0.3, so every diagonal block has its own scale
    spec = example4_spec(pol, N=6, panels=16)
    assert [cav.w for cav in spec.cavities] == pytest.approx([0.5, 0.2, 0.3])
    tables = build_modal_tables(spec)
    calls = []
    cross = assembly.cross_block_matrix

    def counted(*args):
        calls.append(args)
        return cross(*args)

    monkeypatch.setattr(assembly, "cross_block_matrix", counted)
    lhs = build_system(spec, tables).lhs
    monkeypatch.undo()
    assert len(calls) == 3  # 3 pairs, not 6 ordered pairs; TM's two kinds in one call
    kinds = ("sin", "cos") if pol == "TM" else ("cos",)
    assert all(tuple(args[5]) == kinds for args in calls)
    ref = _block_reference(spec, tables)
    assert np.linalg.norm(lhs - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("pol", ["TM", "TE"])
def test_build_evaluates_each_kernel_once_for_every_kind(pol, monkeypatch):
    # three_cavity_fields' geometry (N = 90, 64 panels), warm: three aperture
    # scales and three cavity pairs.  At kappa0 = 8 pi every argument bound
    # is above the moment tables' cutoffs (kappa0 w >= 5.03 on the apertures,
    # where the cutoff is 5; kappa0 times the pair's span >= 15.1, where it is
    # 4), and TM takes its sin and cos blocks from one regularized-kernel call
    # per scale and one Hankel call per pair (six of each when every kind had
    # its own pass).  At kappa0 = pi every bound is below them (at most 1.57
    # and 3.77), and the blocks come from the moment tables with no kernel
    # call.  TE forms no sin block
    from cavityscat import quadrature, special
    for kappa0, want in ((8 * pi, ["hankel"] * 3 + ["kernel"] * 3), (pi, [])):
        spec = example4_spec(pol, N=90, panels=64, kappa0=kappa0)
        tables = build_modal_tables(spec)
        build_system(spec, tables)
        calls, kinds = [], set()

        def wrap(module, name, record):
            original = getattr(module, name)

            def wrapper(*args):
                record(args)
                return original(*args)
            monkeypatch.setattr(module, name, wrapper)

        wrap(special, "regularized_kernel_abs", lambda args: calls.append("kernel"))
        wrap(special, "hankel1_0", lambda args: calls.append("hankel"))
        wrap(quadrature, "singular_block_matrix", lambda args: kinds.add(tuple(args[3])))
        wrap(quadrature, "log_part_matrix", lambda args: kinds.add(tuple(args[0])))
        wrap(assembly, "cross_block_matrix", lambda args: kinds.add(tuple(args[5])))
        build_system(spec, tables)
        monkeypatch.undo()
        assert sorted(calls) == want, kappa0
        assert kinds == ({("sin", "cos")} if pol == "TM" else {("cos",)})
