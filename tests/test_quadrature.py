"""Singular diagonal blocks and smooth cross-cavity blocks."""

import numpy as np
import pytest
from math import pi

import cavityscat as cs
from cavityscat import oracle
from cavityscat.model import QuadratureConfig
from cavityscat.quadrature import (SingularBlockCache, cross_block_matrix, singular_block,
                                   singular_block_matrix)

CFG = QuadratureConfig(panels=64, points_per_panel=6)


def cross_block(m, n, cav_k, cav_j, kappa0, kind, cfg):
    """One entry of `cross_block_matrix`, for the mode pair (m, n)."""
    return complex(cross_block_matrix(cav_k, cav_j, [m], [n], kappa0, kind, cfg)[0, 0])


def test_singular_block_odd_parity_exact_zero():
    for (m, n) in [(1, 2), (2, 5), (3, 10), (0, 7)]:
        assert singular_block(m, n, 1.0, "cos", CFG) == 0.0
        if m >= 1 and n >= 1:
            assert singular_block(m, n, 1.0, "sin", CFG) == 0.0


@pytest.mark.parametrize("c", [0.0, -1.0, float("inf"), float("nan")])
def test_singular_block_rejects_bad_scale(c):
    # an infinite scale made the truncation search loop for ever
    with pytest.raises(cs.ValidationError) as exc:
        singular_block(1, 1, c, "sin", CFG)
    assert exc.value.field == "c"


def test_singular_block_vs_oracle_spot():
    prod = singular_block(1, 1, 0.25, "sin", CFG)
    ref, _ = oracle.kernel_block("sin", 1, 1, 0.25, tol=1e-9)
    assert abs(prod - ref) <= 1e-8 * abs(ref)


def test_singular_block_cos_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(6):
        m = int(rng.integers(0, 9))
        n = m + 2 * int(rng.integers(0, 4))
        a = singular_block(m, n, 0.7, "cos", CFG)
        b = singular_block(n, m, 0.7, "cos", CFG)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_singular_block_matrix_matches_scalar():
    modes = [1, 2, 3, 4]
    mat = singular_block_matrix(modes, modes, 0.5, "sin", CFG)
    for i, m in enumerate(modes):
        for j, n in enumerate(modes):
            assert abs(mat[i, j] - singular_block(m, n, 0.5, "sin", CFG)) \
                <= 1e-13 * max(1.0, abs(mat[i, j]))


def test_refinement_convergence_order():
    # panel halving at q = 4 shows the O(h^8) regime
    ref = singular_block(10, 10, 4.0, "sin", QuadratureConfig(panels=192, points_per_panel=4))
    errs, hs = [], []
    for panels in (8, 16, 32):
        got = singular_block(10, 10, 4.0, "sin",
                             QuadratureConfig(panels=panels, points_per_panel=4))
        errs.append(abs(got - ref))
        hs.append(2 * pi / panels)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 7.5, (order, errs)


def test_cache_parity_and_consistency():
    cache = SingularBlockCache(CFG)
    sin = cache.matrix("sin", range(1, 5), 1.0)
    assert sin[0, 1] == 0.0  # modes (1, 2)
    direct = singular_block(2, 4, 1.0, "sin", CFG)
    assert abs(sin[1, 3] - direct) <= 1e-14 * abs(direct)
    mat = cache.matrix("cos", range(0, 5), 1.0)
    assert mat[0, 1] == 0.0
    assert abs(mat[2, 4] - singular_block(2, 4, 1.0, "cos", CFG)) \
        <= 1e-13 * max(1.0, abs(mat[2, 4]))


def _pair(gap, w=1.0):
    lay = (cs.Layer(0.0, -1.0, 2.0 + 0j),)
    return (cs.Cavity(0.0, w, lay), cs.Cavity(w + gap, 2 * w + gap, lay))


def test_cross_block_decays_with_gap():
    from cavityscat.special import hankel1_0
    k0 = 2.0
    vals = []
    for gap in (0.5, 2.0, 8.0):
        ck, cj = _pair(gap)
        v = cross_block(1, 1, cj, ck, k0, "sin", CFG)  # cj right of ck
        vals.append(abs(v) / abs(hankel1_0(k0 * gap)))
    # magnitude tracks the kernel bound within a geometry factor
    assert vals[0] < 10.0 and vals[1] < 10.0 and vals[2] < 10.0
    ck, cj = _pair(0.5)
    near = abs(cross_block(1, 1, cj, ck, k0, "sin", CFG))
    ck, cj = _pair(8.0)
    far = abs(cross_block(1, 1, cj, ck, k0, "sin", CFG))
    assert far < near


def test_cross_block_stable_under_panel_doubling():
    ck, cj = _pair(0.1)
    a = cross_block(2, 3, ck, cj, 2.0, "cos", QuadratureConfig(panels=48, points_per_panel=6))
    b = cross_block(2, 3, ck, cj, 2.0, "cos", QuadratureConfig(panels=96, points_per_panel=6))
    assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_cross_block_swap_symmetry():
    # equal widths: swapping (cavity, mode) pairs of a sin-sin kernel is symmetric
    ck, cj = _pair(0.4)
    a = cross_block(2, 5, ck, cj, 1.7, "sin", CFG)
    b = cross_block(5, 2, cj, ck, 1.7, "sin", CFG)
    assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


def test_cross_block_matrix_matches_scalar():
    ck, cj = _pair(0.3)
    mat = cross_block_matrix(ck, cj, [1, 2], [1, 2, 3], 2.0, "sin", CFG)
    for i, m in enumerate((1, 2)):
        for j, n in enumerate((1, 2, 3)):
            v = cross_block(m, n, ck, cj, 2.0, "sin", CFG)
            assert abs(mat[i, j] - v) <= 1e-13 * max(1.0, abs(v))


def test_cross_block_requires_disjoint():
    lay = (cs.Layer(0.0, -1.0, 2.0 + 0j),)
    ck = cs.Cavity(0.0, 1.0, lay)
    cj = cs.Cavity(0.5, 1.5, lay)
    with pytest.raises(cs.ValidationError):
        cross_block(1, 1, ck, cj, 2.0, "sin", CFG)


@pytest.mark.parametrize("panels, ppp, c", [(16, 4, 0.5), (32, 6, 1.0), (24, 6, 4.0), (24, 6, 8.0)])
def test_panel_offset_kernel_matches_direct_grid(panels, ppp, c):
    from cavityscat import special
    from cavityscat.quadrature import (_gather_offsets, _grid_kernel, _offset_distances,
                                       bessel_truncation, composite_nodes, gauss_rule)
    from cavityscat.special import KernelScale
    rule = gauss_rule(ppp)
    K = bessel_truncation(c, CFG)
    pts, _ = composite_nodes(0.0, 2 * pi, panels, rule)
    D = np.abs(pts[:, None] - pts[None, :])
    offsets = _offset_distances(pts, panels)
    assert offsets.shape == (2 * panels - 1, ppp, ppp)
    gathered = _gather_offsets(offsets)
    assert np.array_equal(gathered == 0, D == 0)
    assert np.max(np.abs(gathered - D)) <= 8 * np.finfo(float).eps * 2 * pi
    with np.errstate(divide="ignore"):
        lnD = np.where(D > 0, np.log(np.where(D > 0, D, 1.0)), 0.0)
    direct = (special.regularized_kernel_abs(D, KernelScale(c))
              + (2j / pi) * special.j0_series_remainder(c * D, K) * lnD)
    got = _grid_kernel(c, pts, panels, K)
    assert np.linalg.norm(got - direct) <= 3e-15 * max(1.0, c) * np.linalg.norm(direct)


def test_cache_stores_whole_matrices():
    cache = SingularBlockCache(CFG)
    modes = range(1, 7)
    mat = cache.matrix("sin", modes, 0.8)
    assert cache.matrix("sin", list(modes), 0.8) is mat  # a hit, same stored matrix
    assert not mat.flags.writeable
    assert np.array_equal(mat, singular_block_matrix(modes, modes, 0.8, "sin", CFG))
    assert mat[1, 2] == 0.0  # modes (2, 3)
    # another mode list is its own stored matrix, evaluated once and kept
    wide = cache.matrix("sin", range(1, 10), 0.8)
    assert wide is not mat and cache.matrix("sin", range(1, 10), 0.8) is wide
    far = wide[2, 8]  # modes (3, 9)
    assert abs(far - singular_block(3, 9, 0.8, "sin", CFG)) <= 1e-14 * abs(far)
    assert cache.matrix("cos", modes, 0.8) is not mat
