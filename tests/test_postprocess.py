import cmath

import numpy as np
import pytest
from math import pi, sqrt

import cavityscat as cs
from cavityscat import postprocess
from cavityscat.errors import UnsupportedPolarizationError, ValidationError
from cavityscat.modal import ModalTables
from cavityscat.model import QuadratureConfig
from cavityscat.postprocess import (FieldMap, backscatter_sweep, diagonal_trace,
                                    enhancement, export_grid, export_sweep, field_at,
                                    field_grid, interface_value_jump, rcs_tm,
                                    te_flux_jump)

from conftest import cexpm1, scalar_aperture_phase


def test_tm_field_vanishes_on_walls_and_bottom(tm_example1):
    spec, tables, sol = tm_example1
    scale = max(abs(field_at(spec, tables, sol, x, y))
                for x in (-0.2, 0.1, 0.3) for y in (-0.2, -0.8, -1.2))
    for y in np.linspace(-1.5, 0.0, 7):
        assert abs(field_at(spec, tables, sol, -0.5, float(y))) <= 1e-12 * scale
        assert abs(field_at(spec, tables, sol, 0.5, float(y))) <= 1e-12 * scale
    for x in np.linspace(-0.5, 0.5, 7):
        assert abs(field_at(spec, tables, sol, float(x), -1.5)) <= 1e-12 * scale


def test_aperture_trace_matches_coefficients(tm_example1):
    spec, tables, sol = tm_example1
    cav = spec.cavities[0]
    for x in (-0.31, 0.07, 0.44):
        want = sum(sol.coefficient(0, n) * np.sin(n * pi * (x - cav.a) / cav.w)
                   for n in range(1, spec.N + 1))
        got = field_at(spec, tables, sol, x, 0.0)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_point_outside_cavities_is_domain_error(tm_example1):
    spec, tables, sol = tm_example1
    with pytest.raises(ValidationError):
        field_at(spec, tables, sol, 3.0, -0.5)
    with pytest.raises(ValidationError):
        field_at(spec, tables, sol, 0.0, -2.5)


def test_tm_interface_continuity(tm_two_layer):
    spec, tables, sol = tm_two_layer
    scale = abs(field_at(spec, tables, sol, 0.1, -0.7))
    for x in np.linspace(-0.45, 0.45, 9):
        above, below = interface_value_jump(spec, tables, sol, 0, 1, float(x))
        assert abs(above - below) <= 1e-10 * max(scale, abs(above))


def test_te_flux_continuity(te_two_layer):
    spec, tables, sol = te_two_layer
    for x in np.linspace(-0.45, 0.45, 9):
        above, below = te_flux_jump(spec, tables, sol, 0, 1, float(x))
        assert abs(above - below) <= 1e-8 * max(abs(above), abs(below))


def test_field_grid_matches_field_at(tm_two_layer):
    spec, tables, sol = tm_two_layer
    fm = field_grid(spec, tables, sol, 0, 7, 9)
    for i in range(0, len(fm.x), 11):
        want = field_at(spec, tables, sol, float(fm.x[i]), float(fm.y[i]), 0)
        assert abs(fm.values[i] - want) <= 1e-12 * max(1.0, abs(want))


def test_diagonal_trace_has_requested_samples(tm_two_layer):
    spec, tables, sol = tm_two_layer
    fm = diagonal_trace(spec, tables, sol, 0, samples=200)
    assert len(fm.x) == 200
    assert fm.x[0] == spec.cavities[0].a and fm.y[-1] == -spec.cavities[0].depth


def test_helmholtz_residual_order():
    # N = 10 keeps all retained modes inside the asymptotic FD regime at the
    # pinned step ladder (mu_max * step <= 0.32)
    from cavityscat.oracle import fd_interior_check
    from conftest import two_layer_spec
    for pol in ("TM", "TE"):
        spec = two_layer_spec(pol, N=10)
        tables, sol = cs.solve(spec)
        rep = fd_interior_check(spec, tables, sol, points_per_layer=8)
        assert rep.production_value.real >= 1.9, (pol, rep.production_value)


def _scalar_profile(lay, bl, ut, ub, y, dy=False):
    """Reference: one mode's closed-form profile (or its y-derivative) at one
    ordinate, with the hand expm1 series."""
    h = lay.h
    if bl == 0:
        return (ub - ut) / h if dy else ((ub - ut) * y + ut * lay.y_bottom - ub * lay.y_top) / h
    ib = 1j * bl
    sgn = 1.0 if dy else -1.0
    num = (ub * (cmath.exp(ib * (y - lay.y_bottom)) + sgn * cmath.exp(-ib * (y - lay.y_top + h)))
           - ut * (cmath.exp(ib * (y - lay.y_bottom - h))
                   + sgn * cmath.exp(-ib * (y - lay.y_bottom + h))))
    return (ib if dy else 1.0) * num / -cexpm1(-2j * bl * h)


def _loop_mode(spec, tables, sol, k, n, li, y, dy=False):
    """Reference: mode n's profile (or its y-derivative) in layer li of cavity k,
    from its interface coefficients built one by one: u_0, then
    -(a_1/g_1) u_0 u_hat_l (g_1 = kappa_1^2 for TE, 1 for TM), then 0 at a
    TM bottom."""
    cav = spec.cavities[k]
    mc = tables.cavities[k]
    i = n - tables.modes().start
    u0 = sol.coefficient(k, n)
    g1 = cav.layers[0].kappa ** 2 if spec.polarization == "TE" else 1.0
    ifc = ([u0] + [-(complex(mc.a[i, 0]) / g1) * u0 * complex(uh) for uh in mc.u_hat[i]]
           + ([0j] if spec.polarization == "TM" else []))
    return _scalar_profile(cav.layers[li], complex(mc.betas[i, li]),
                           ifc[li], ifc[li + 1], y, dy)


def _loop_field(spec, tables, sol, k, x, y, li, dy=False):
    """Reference: the field (or its y-derivative) in layer li of cavity k at
    (x, y), summed mode by mode."""
    cav = spec.cavities[k]
    trig = np.sin if spec.polarization == "TM" else np.cos
    return sum(_loop_mode(spec, tables, sol, k, n, li, y, dy) * trig(n * pi * (x - cav.a) / cav.w)
               for n in tables.modes())


def _loop_enhancement(spec, tables, sol, k):
    from cavityscat.quadrature import composite_nodes, gauss_rule
    cav = spec.cavities[k]
    num = 0.0
    for n in tables.modes():
        acc = 0.0
        for li, lay in enumerate(cav.layers):
            ys, wy = composite_nodes(lay.y_bottom, lay.y_top, 4, gauss_rule(4))
            vals = np.array([_loop_mode(spec, tables, sol, k, n, li, y) for y in ys])
            acc += float(np.sum(wy * np.abs(vals) ** 2))
        num += (cav.w if (spec.polarization == "TE" and n == 0) else 0.5 * cav.w) * acc
    return sqrt(num / (cav.w * cav.depth))


def _layer_of(cav, y):
    return next((li for li, lay in enumerate(cav.layers) if y >= lay.y_bottom), cav.L - 1)


def _close(got, want, rtol=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    return np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.mark.parametrize("fixture", ["tm_two_layer", "te_two_layer"])
def test_array_paths_match_per_mode_loop(fixture, request):
    # two layers, the lower one lossy; every array path against the scalar
    # per-mode loop it replaced
    spec, tables, sol = request.getfixturevalue(fixture)
    cav = spec.cavities[0]
    rng = np.random.default_rng(5)
    pts = [(float(x), float(y)) for x, y in zip(rng.uniform(cav.a, cav.b, 12),
                                               rng.uniform(-cav.depth, 0.0, 12))]
    pts += [(cav.a, 0.0), (cav.b, -cav.depth), (0.1, -0.7)]  # corners, the interface
    assert _close([field_at(spec, tables, sol, x, y) for x, y in pts],
                  [_loop_field(spec, tables, sol, 0, x, y, _layer_of(cav, y)) for x, y in pts])
    fm = field_grid(spec, tables, sol, 0, 7, 9)
    assert _close(fm.values, [_loop_field(spec, tables, sol, 0, x, y, _layer_of(cav, y))
                              for x, y in zip(fm.x, fm.y)])
    tr = diagonal_trace(spec, tables, sol, 0, samples=41)
    assert _close(tr.values, [_loop_field(spec, tables, sol, 0, min(x, cav.b), y,
                                          _layer_of(cav, y)) for x, y in zip(tr.x, tr.y)])
    assert list(tr.layer) == [_layer_of(cav, y) for y in tr.y]
    ys = [0.0, -0.3, cav.layers[1].y_top, -1.1, -cav.depth]  # interfaces go to the layer above
    assert list(postprocess._locate_layer(cav, ys)) == [_layer_of(cav, y) for y in ys] == [0, 0, 0, 1, 1]
    assert abs(enhancement(spec, tables, sol, 0) - _loop_enhancement(spec, tables, sol, 0)) \
        <= 1e-13 * _loop_enhancement(spec, tables, sol, 0)
    y = cav.layers[1].y_top
    for x in (-0.37, 0.05, 0.41):
        for dy, jump in ((False, interface_value_jump), (True, te_flux_jump)):
            want = [_loop_field(spec, tables, sol, 0, x, y, li, dy) for li in (0, 1)]
            if dy:
                want = [want[0] / cav.layers[0].kappa ** 2, want[1] / cav.layers[1].kappa ** 2]
            assert _close(jump(spec, tables, sol, 0, 1, x), want), (x, jump.__name__)


# --- RCS ---------------------------------------------------------------------


def test_rcs_vanishes_toward_grazing(tm_example1):
    spec, tables, sol = tm_example1
    near0 = rcs_tm(spec, sol, 1e-6)
    mid = rcs_tm(spec, sol, pi / 2)
    assert near0 <= 1e-9 * mid
    assert rcs_tm(spec, sol, pi - 1e-6) <= 1e-9 * mid


def test_rcs_invariant_under_phase_rotation(tm_example1):
    spec, tables, sol = tm_example1
    rot = postprocess.ApertureSolution(
        coefficients=tuple(np.exp(0.7j) * u for u in sol.coefficients),
        layout=sol.layout, rcond=sol.rcond)
    for phi in (0.3, 1.2, 2.5):
        assert abs(rcs_tm(spec, sol, phi) - rcs_tm(spec, rot, phi)) \
            <= 1e-12 * max(1.0, rcs_tm(spec, sol, phi))


def test_rcs_rejects_te(te_two_layer):
    spec, tables, sol = te_two_layer
    with pytest.raises(UnsupportedPolarizationError):
        rcs_tm(spec, sol, 1.0)
    with pytest.raises(UnsupportedPolarizationError):
        backscatter_sweep(spec, [1.0])


def test_backscatter_sweep_nonnegative_and_finite():
    # 721-point sweep on a moderate configuration: no NaN, no negatives
    k0 = 8 * pi
    lam = 2 * pi / k0
    spec = cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(k0, pi / 3), polarization="TM",
        cavities=(cs.Cavity(-lam / 2, lam / 2, (cs.Layer(0.0, -lam / 4, complex(k0)),)),),
        N=40, quad=QuadratureConfig(panels=48, points_per_panel=6)))
    angles = np.linspace(pi / 720, pi - pi / 720, 721)
    sweep = backscatter_sweep(spec, angles)
    assert np.all(np.isfinite(sweep.sigma))
    assert np.all(sweep.sigma >= 0)
    # continuity: no jumps beyond a factor bound between neighbouring angles
    ratio = np.abs(np.diff(sweep.sigma)) / (np.maximum.reduce(
        [sweep.sigma[1:], sweep.sigma[:-1], np.full(720, 1e-12)]))
    assert np.max(ratio) < 1.0


def test_backscatter_rejects_bad_angles(tm_example1):
    # NaN fails every comparison, so the check must require (0, pi), not reject outside it
    spec, _, _ = tm_example1
    for angles in ([0.0, 1.0], [float("nan")], [1.0, float("nan")], [pi]):
        with pytest.raises(ValidationError) as exc:
            backscatter_sweep(spec, angles)
        assert exc.value.field == "angles", angles


def test_backscatter_rejects_no_angles(tm_example1):
    # an empty sweep is an input error, not a zero-size reduction in the solve
    spec, _, _ = tm_example1
    with pytest.raises(ValidationError) as exc:
        backscatter_sweep(spec, [])
    assert exc.value.field == "angles"


# --- enhancement -------------------------------------------------------------


def test_enhancement_identity_field_is_one():
    # constant field u = 1 via a synthetic flat n = 0 mode: Q_E = 1 to
    # quadrature tolerance (checks the norm plumbing and the w*h denominator)
    from dataclasses import replace

    from cavityscat.modal import connection_te
    w, h = 0.4, 1.3
    spec = cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(1.0, 0.0), polarization="TE",
        cavities=(cs.Cavity(0.0, w, (cs.Layer(0.0, -h, 1.0 + 0j),)),), N=1))
    cav = spec.cavities[0]
    # flat mode 0: beta = 0 branch with u_hat chosen so u_1 = u_0 = 1; mode 1
    # as production builds it
    conn1 = connection_te(cav, 1, 1.0)
    a0 = 1.0 / h
    conn = replace(conn1, n=np.array([0, 1]),
                   betas=np.array([[0.0 + 0.0j], conn1.betas]),
                   a=np.array([[a0], conn1.a]),
                   b=np.array([[-1.0 / h], conn1.b]),
                   u_hat=np.array([[-1.0 / a0], conn1.u_hat]),
                   impedance=np.array([0.0, conn1.impedance]))
    tables = ModalTables(polarization="TE", N=1, kappa0=1.0, cavities=(conn,))
    from cavityscat.assembly import ApertureSolution, ModeLayout
    sol = ApertureSolution(coefficients=(np.array([1.0 + 0.0j, 0.0 + 0.0j]),),
                           layout=ModeLayout("TE", 1, 1), rcond=1.0)
    q = enhancement(spec, tables, sol, 0)
    assert abs(q - 1.0) <= 1e-12


def test_enhancement_denominator_scaling(te_two_layer):
    spec, tables, sol = te_two_layer
    q = enhancement(spec, tables, sol, 0)
    # doubling all coefficients doubles Q_E (norm ratio linear in the field)
    from cavityscat.assembly import ApertureSolution
    sol2 = ApertureSolution(coefficients=tuple(2.0 * u for u in sol.coefficients),
                            layout=sol.layout, rcond=sol.rcond)
    assert abs(enhancement(spec, tables, sol2, 0) - 2.0 * q) <= 1e-12 * q


# --- export ------------------------------------------------------------------


def test_export_empty_grid_header_only(tmp_path):
    fm = FieldMap(x=np.empty(0), y=np.empty(0), cavity=np.empty(0, int),
                  layer=np.empty(0, int), values=np.empty(0, complex))
    path = tmp_path / "empty.csv"
    export_grid(fm, path)
    assert path.read_text().strip() == "x,y,cavity,layer,re_u,im_u,abs_u"


def test_export_deterministic_bytes(tmp_path, tm_two_layer):
    spec, tables, sol = tm_two_layer
    fm = field_grid(spec, tables, sol, 0, 5, 5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_grid(fm, p1)
    export_grid(fm, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_sweep_schema(tmp_path):
    sweep = postprocess.RcsSweep(angles=np.array([0.5, 1.0]),
                                 sigma=np.array([1.0, 2.0]),
                                 sigma_db=np.array([0.0, 3.0103]))
    path = tmp_path / "rcs.csv"
    export_sweep(sweep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "phi_rad,sigma,sigma_db"
    assert len(lines) == 3


def _per_angle_sweep(spec, angles):
    """Per-angle reference: a spec per incidence theta = pi/2 - phi, the
    scalar closed-form incident vector per mode, one solve per angle, and the
    RCS summed mode by mode from the same scalar form.  Also returns `rcs_tm`
    of each per-angle solution."""
    from dataclasses import replace

    from cavityscat.assembly import SystemFactorization, build_system
    from cavityscat.modal import build_modal_tables
    base = build_system(spec, build_modal_tables(spec))
    fact = SystemFactorization(base)
    modes = base.layout.modes
    k0 = spec.wave.kappa0
    sigma, via_rcs_tm = [], []
    for phi in angles:
        sp = replace(spec, wave=cs.IncidentWave(k0, pi / 2.0 - phi))
        rhs = np.array([-2j * sp.wave.beta * scalar_aperture_phase(sp.wave.alpha, cav, m, "sin")
                        for cav in sp.cavities for m in modes])
        sol = fact.solve(rhs)
        amp = sum(sol.coefficient(k, m) * scalar_aperture_phase(k0 * np.cos(phi), cav, m, "sin")
                  for k, cav in enumerate(sp.cavities) for m in modes)
        sigma.append(k0 * abs(np.sin(phi) * amp) ** 2)
        via_rcs_tm.append(rcs_tm(sp, sol, phi))
    return np.array(sigma), fact.rcond, np.array(via_rcs_tm)


def test_backscatter_matches_per_angle_path():
    # two unequal cavities; the angles include the degenerate directions
    # kappa0 cos(phi) = +-m pi/w of both apertures
    k0 = 4 * pi
    lay = (cs.Layer(0.0, -0.3, complex(2 * k0, 0.5)),)
    spec = cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(k0, 0.4), polarization="TM",
        cavities=(cs.Cavity(-1.2, -0.2, lay), cs.Cavity(0.3, 0.8, lay)),
        N=10, quad=QuadratureConfig(panels=16, points_per_panel=4)))
    degenerate = [np.arccos(sgn * m * pi / (w * k0)) for w in (1.0, 0.5)
                  for m in range(1, 4) for sgn in (1, -1) if m * pi / (w * k0) < 1]
    angles = np.sort(np.concatenate([np.linspace(0.05, pi - 0.05, 23), degenerate, [pi / 2]]))
    sweep = backscatter_sweep(spec, angles)
    want, rcond, via_rcs_tm = _per_angle_sweep(spec, angles)
    assert np.all(np.abs(sweep.sigma - want) <= 1e-13 * np.abs(want))
    assert np.all(np.abs(via_rcs_tm - want) <= 1e-13 * np.abs(want))
    assert sweep.rcond == rcond


def test_phase_integrals_match_scalar_form_through_zero():
    # the cos phase of mode 0 on an aperture at a = 0 is the bare
    # (e^{i p w} - 1)/(i p) at p = alpha
    from cavityscat.assembly import aperture_phases
    cav = cs.Cavity(0.0, 0.7, (cs.Layer(0.0, -1.0, 2.0 + 0j),))
    ps = np.array([0.0, 1e-300, -1e-300, 1e-12, -1e-9, 0.3, -2.0, 50.0])
    got = aperture_phases(ps, cav, [0], "cos")[:, 0]
    assert got[0] == 0.7
    for p, g in zip(ps, got):
        want = 0.7 if p == 0.0 else cexpm1(1j * p * 0.7) / (1j * p)
        assert abs(g - want) <= 1e-15 * abs(want), p


def test_numpy_expm1_matches_hand_series_near_zero():
    # the phase integrals and the layer formulas use numpy's complex expm1;
    # sweep it against the hand series (|z| < 0.5), on and off the
    # imaginary axis, and against exp(z) - 1 beyond, where both are O(1)
    ys = np.concatenate([np.logspace(-14, np.log10(0.49), 200),
                         -np.logspace(-14, np.log10(0.49), 200)])
    rng = np.random.default_rng(0)
    zs = np.concatenate([1j * ys, (rng.uniform(-0.35, 0.35, 400) + 1j * rng.uniform(-0.35, 0.35, 400))
                         * 10.0 ** rng.uniform(-12, 0, 400)])
    for z in zs:
        hand = cexpm1(complex(z))
        assert abs(np.expm1(z) - hand) <= 1e-15 * abs(hand), z
    for y in np.linspace(-40.0, 40.0, 801):
        z = 1j * y
        assert abs(np.expm1(z) - cexpm1(z)) <= 1e-15 * max(1.0, abs(z)), z
