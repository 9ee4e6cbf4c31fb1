"""A wavenumber sweep as one stacked computation: stacked modal tables,
kernel matrices and Q_E against the single-spec path, the cross kernel from
its distinct separations, and the resonance checks over a leading axis."""

import math
from dataclasses import replace
from math import pi

import numpy as np
import pytest

import cavityscat as cs
from cavityscat import assembly, cli, modal, postprocess, quadrature, special
from cavityscat.errors import ConnectionResonanceError, ModalResonanceError
from cavityscat.model import QuadratureConfig

from conftest import example4_spec


def _enhance_pair_spec():
    """The enhance_pair benchmark scenario at seed 0: two TE cavities of width
    0.05, depth 1, one width apart, theta = -pi/9, N = 8, 24 panels."""
    w, gap = 0.05, 0.05
    layers = (cs.Layer(0.0, -1.0, 1.0 + 0j),)
    return cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(1.0, -pi / 9), polarization="TE",
        cavities=(cs.Cavity(-gap / 2 - w, -gap / 2, layers),
                  cs.Cavity(gap / 2, gap / 2 + w, layers)),
        N=8, quad=QuadratureConfig(panels=24)))


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


def _rescaled(spec, kappa0: float):
    """spec at kappa0 with every layer kappa scaled by kappa0/spec.kappa0,
    built as a spec of its own: the single solve a sweep row stands for."""
    ratio = kappa0 / spec.wave.kappa0
    cavities = tuple(replace(c, layers=tuple(replace(lay, kappa=lay.kappa * ratio)
                                             for lay in c.layers)) for c in spec.cavities)
    return replace(spec, wave=cs.IncidentWave(kappa0, spec.wave.theta), cavities=cavities)


@pytest.mark.parametrize("spec,kappas", [
    (_enhance_pair_spec(), np.linspace(1.35, 1.62, 5)),   # equal widths
    (example4_spec("TM", N=6, panels=16), np.linspace(5.0, 7.0, 4)),  # w = 0.5, 0.2, 0.3
])
def test_stacked_sweep_matches_single_solves(spec, kappas):
    tables, sols = assembly.solve_sweep(spec, kappas)
    assert len(sols) == len(kappas)
    assert tables.cavities[0].impedance.shape == (len(kappas), len(tables.modes()))
    q = [postprocess.enhancement(spec, tables, sols, k) for k in range(spec.K)]
    for i, k0 in enumerate(kappas):
        sp = _rescaled(spec, float(k0))
        tables1, sol1 = assembly.solve(sp)
        assert isinstance(sols[i].rcond, float)
        assert _rel(sols[i].rcond, sol1.rcond) <= 1e-13
        assert _rel(sols[i].backward_error, sol1.backward_error) <= 1e-13
        for k in range(spec.K):
            assert _rel(q[k][i], postprocess.enhancement(sp, tables1, sol1, k)) <= 1e-13


def test_stacked_system_is_the_single_systems():
    # the same floats per wavenumber: the stack holds the single matrices
    spec, kappas = _enhance_pair_spec(), [1.4, 1.5, 1.6]
    stack = assembly.build_system(spec, modal.build_modal_tables(spec, kappas))
    assert stack.lhs.shape == (3, 18, 18) and stack.rhs.shape == (3, 18)
    for i, k0 in enumerate(kappas):
        single = assembly.build_system(_rescaled(spec, k0))
        assert np.array_equal(stack.lhs[i], single.lhs)
        assert np.array_equal(stack.rhs[i], single.rhs)


def _full_grid_cross(cav_k, cav_j, modes, kappa0, kind, cfg):
    """The cross block from the kernel at every grid separation, the former
    evaluation, with the graded nodes built here."""
    gap = max(cav_j.a - cav_k.b, cav_k.a - cav_j.b)
    rule = quadrature.gauss_rule(cfg.points_per_panel)
    right = cav_k.a > cav_j.b
    xk, wk = quadrature.composite_nodes_edges(
        quadrature._graded_interval_edges(cav_k.w, cfg.panels, not right, gap), rule)
    yj, wj = quadrature.composite_nodes_edges(
        quadrature._graded_interval_edges(cav_j.w, cfg.panels, right, gap), rule)
    dist = np.abs(xk[:, None] + cav_k.a - yj[None, :] - cav_j.a)
    kern = special.hankel1_0(kappa0 * dist)
    f = np.sin if kind == "sin" else np.cos
    modes = np.asarray(modes)
    Tm = f(pi * xk[:, None] * modes[None, :] / cav_k.w) * wk[:, None]
    Tn = f(pi * yj[:, None] * modes[None, :] / cav_j.w) * wj[:, None]
    return dist, kern, Tm.T @ kern @ Tn


def _layers():
    return (cs.Layer(0.0, -1.0, 1.0 + 0j),)


@pytest.mark.parametrize("cav_k,cav_j,graded", [
    (cs.Cavity(-0.075, -0.025, _layers()), cs.Cavity(0.025, 0.075, _layers()), False),  # equal
    (cs.Cavity(-0.6, -0.1, _layers()), cs.Cavity(0.0, 0.2, _layers()), False),        # unequal
    (cs.Cavity(0.0, 0.5, _layers()), cs.Cavity(0.501, 0.8, _layers()), True),          # small gap
])
def test_cross_kernel_from_distinct_separations(cav_k, cav_j, graded):
    cfg = QuadratureConfig(panels=8)
    modes = np.arange(1, 6)
    xk, _, yj, _, seps, inverse = quadrature._cross_grid(cav_k.a, cav_k.b, cav_j.a, cav_j.b,
                                                         cfg.panels, cfg.points_per_panel)
    assert (len(xk) > cfg.panels * cfg.points_per_panel) == graded
    for kappa0 in (1.5, 2 * pi):
        for a, b in ((cav_k, cav_j), (cav_j, cav_k)):
            dist, kern, block = _full_grid_cross(a, b, modes, kappa0, "sin", cfg)
            *_, seps_ab, inv_ab = quadrature._cross_grid(a.a, a.b, b.a, b.b, cfg.panels,
                                                         cfg.points_per_panel)
            assert inv_ab.shape == dist.shape and len(seps_ab) <= dist.size
            assert np.array_equal(special.hankel1_0(kappa0 * seps_ab)[inv_ab], kern)
            assert np.array_equal(quadrature.cross_block_matrix(a, b, modes, modes, kappa0,
                                                                "sin", cfg), block)
    # a vector of wavenumbers stacks the blocks of its entries
    k0 = np.array([1.5, 2.0, 2 * pi])
    stack = quadrature.cross_block_matrix(cav_k, cav_j, modes, modes, k0, "cos", cfg)
    assert stack.shape == (3, 5, 5)
    for i, kappa0 in enumerate(k0):
        single = quadrature.cross_block_matrix(cav_k, cav_j, modes, modes, kappa0, "cos", cfg)
        assert np.allclose(stack[i], single, rtol=1e-15, atol=0.0)


def test_singular_blocks_over_a_vector_of_scales():
    # each matrix of the stack is bitwise its scale's own
    cfg = QuadratureConfig(panels=8)
    modes = np.arange(0, 5)
    c = np.array([0.3, 0.1, 0.3])
    stack = quadrature.singular_block_matrix(modes, modes, c, "cos", cfg)
    assert stack.shape == (3, 5, 5)
    for i, s in enumerate(c):
        single = quadrature.singular_block_matrix(modes, modes, float(s), "cos", cfg)
        assert np.array_equal(stack[i], single)


def _two_layer_spec(top=1.0 + 0j):
    """One two-layer TE cavity at kappa0 = 1: swept, the layer kappa scale
    with kappa0, so the TE weights change along the sweep, and the factor
    (kappa0/kappa_1)^2 with them unless the top layer kappa is kappa0."""
    cav = cs.Cavity(0.0, 0.4, (cs.Layer(0.0, -0.3, top), cs.Layer(-0.3, -1.0, 2.0 + 0.5j)))
    return cs.validate(cs.ProblemSpec(cs.IncidentWave(1.0, 0.0), "TE", (cav,), N=5,
                                      quad=QuadratureConfig(panels=8)))


def test_te_connection_with_stacked_weights_matches_single_wavenumbers():
    spec, kappas = _two_layer_spec(), np.array([1.0, 1.7, 2.9])
    modes = np.arange(0, 6)
    stacked = modal.connection_te(spec.cavities[0], modes, 1.0, kappas, cavity_index=0)
    assert stacked.impedance.shape == (3, 6) and stacked.u_hat.shape == (3, 6, 2)
    for i, kappa0 in enumerate(kappas):
        cav = _rescaled(spec, float(kappa0)).cavities[0]
        single = modal.connection_te(cav, modes, kappa0, cavity_index=0)
        assert np.array_equal(stacked.betas[i], single.betas)
        assert np.array_equal(stacked.u_hat[i], single.u_hat)
        assert np.array_equal(stacked.impedance[i], single.impedance)
    tables = modal.build_modal_tables(spec, kappas)
    assert np.array_equal(tables.cavities[0].impedance, stacked.impedance)


def test_sweep_rows_do_not_depend_on_the_chunking():
    # a lossy top layer with kappa_1 != kappa0: each row is bitwise the row of
    # its wavenumber swept alone, and within roundoff of the single solve of
    # the rescaled spec (whose TE factor (kappa0/kappa_1)^2 rounds apart; the
    # backward error, itself of roundoff size, then agrees only absolutely)
    spec, kappas = _two_layer_spec(1.3 + 0.4j), np.linspace(1.0, 2.9, 5)
    alone = [assembly.solve_sweep(spec, kappas[i:i + 1]) for i in range(len(kappas))]
    for chunks in ([slice(0, 5)], [slice(0, 3), slice(3, 5)]):
        for part in chunks:
            tables, sols = assembly.solve_sweep(spec, kappas[part])
            q = postprocess.enhancement(spec, tables, sols, 0)
            for j, i in enumerate(range(part.start, part.stop)):
                tables1, (sol1,) = alone[i]
                assert sols[j].rcond == sol1.rcond
                assert sols[j].backward_error == sol1.backward_error
                assert np.array_equal(tables.cavities[0].impedance[j],
                                      tables1.cavities[0].impedance[0])
                assert q[j] == postprocess.enhancement(spec, tables1, [sol1], 0)[0]
    tables, sols = assembly.solve_sweep(spec, kappas)
    q = postprocess.enhancement(spec, tables, sols, 0)
    for i, k0 in enumerate(kappas):
        tables1, sol1 = assembly.solve(_rescaled(spec, float(k0)))
        assert _rel(sols[i].rcond, sol1.rcond) <= 1e-13
        assert abs(sols[i].backward_error - sol1.backward_error) <= 1e-13
        assert np.max(np.abs(tables.cavities[0].impedance[i] - tables1.cavities[0].impedance)
                      / np.abs(tables1.cavities[0].impedance)) <= 1e-13
        assert _rel(q[i], postprocess.enhancement(_rescaled(spec, float(k0)), tables1, sol1,
                                                  0)) <= 1e-13


def test_layer_resonance_over_a_leading_axis_names_smallest_mode_then_layer():
    # wavenumbers x modes 1..4 x layers 0..2; beta h in pi*Z marks resonances
    # at (wavenumber 2, mode 4, layer 0), (wavenumber 1, mode 2, layer 2) and
    # (wavenumber 0, mode 2, layer 1): mode 2 is the smallest, layer 1 its first
    hs = np.array([-1.0, -0.5, -1.0])
    betas = np.full((3, 4, 3), 1.3 + 0.2j)
    betas[2, 3, 0], betas[1, 1, 2], betas[0, 1, 1] = pi, pi, 2 * pi
    with pytest.raises(ModalResonanceError) as exc:
        modal.layer_coeffs(betas, hs, modes=np.arange(1, 5), cavity=3)
    assert (exc.value.mode, exc.value.layer, exc.value.cavity) == (2, 1, 3)
    betas[0, 1, 1] = 1.3 + 0.2j
    with pytest.raises(ModalResonanceError) as exc:
        modal.layer_coeffs(betas, hs, modes=np.arange(1, 5), cavity=3)
    assert (exc.value.mode, exc.value.layer, exc.value.cavity) == (2, 2, 3)


def test_connection_resonance_over_a_leading_axis_names_smallest_mode():
    # the cancellation b_1 + b_2 = 0 of test_connection_resonance_names_smallest_mode,
    # at mode 4 of wavenumber 0 and mode 2 of wavenumber 1
    kap = complex(math.pi * math.sqrt(2.0))
    cav = cs.Cavity(0.0, 1.0, (cs.Layer(0.0, -0.25, kap), cs.Layer(-0.25, -1.0, kap)))
    mc = modal.mode_coefficients(cav, np.arange(1, 5), np.ones(2))
    assert mc.b.shape == (2, 4, 2)
    b = mc.b.copy()
    b[0, 3] = b[1, 1] = [-math.pi, math.pi]
    with pytest.raises(ConnectionResonanceError) as exc:
        modal.connection_tm(cav, mc.n, cavity_index=1, coeffs=replace(mc, b=b))
    assert (exc.value.mode, exc.value.cavity) == (2, 1)


def test_enhance_sweep_chunks_of_the_grid_budget(tmp_path, monkeypatch):
    # 24 panels of 4 points: eight wavenumbers per stacked solve, the last
    # chunk holds the remainder; every wavenumber is solved exactly once
    spec_path = tmp_path / "spec.json"
    cs.save_spec(_enhance_pair_spec(), spec_path)
    solve_sweep, chunks = assembly.solve_sweep, []

    def recorded(spec, kappa0):
        chunks.append(list(kappa0))
        return solve_sweep(spec, kappa0)

    monkeypatch.setattr(assembly, "solve_sweep", recorded)
    assert cli.main(["enhance", "--spec", str(spec_path), "--out", str(tmp_path / "out"),
                     "--kappa-min", "1.35", "--kappa-max", "1.62", "--kappa-steps", "10"]) == 0
    assert [len(c) for c in chunks] == [8, 2]
    assert [k for c in chunks for k in c] == list(np.linspace(1.35, 1.62, 10))
