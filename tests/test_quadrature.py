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
    # an infinite scale made the truncation search loop for ever; an odd pair
    # gets the same check as an even one
    for m, n in [(1, 1), (1, 2)]:
        with pytest.raises(cs.ValidationError) as exc:
            singular_block(m, n, c, "sin", CFG)
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


def _gather_offsets(per_offset, rows=slice(None)):
    """The dense grid [P*q + i, Q*q + j] from the blocks per_offset[P - Q, i, j]
    at the non-negative panel offsets (offset -P is the transposed block of
    offset P), or its rows of the row panels P in `rows`: the dense layout,
    the reference of the panel fold."""
    panels, q, _ = per_offset.shape
    stacked = np.concatenate((per_offset[:0:-1].transpose(0, 2, 1), per_offset))
    windows = np.lib.stride_tricks.sliding_window_view(stacked, panels, axis=0)
    return windows[rows][..., ::-1].transpose(0, 1, 3, 2).reshape(-1, panels * q)


@pytest.mark.parametrize("panels, ppp, c", [(16, 4, 0.5), (32, 6, 1.0), (24, 6, 4.0), (24, 6, 8.0)])
def test_panel_offset_kernel_matches_direct_grid(panels, ppp, c):
    from cavityscat import special
    from cavityscat.quadrature import (_offset_kernel, bessel_truncation, composite_nodes,
                                       gauss_rule)
    rule = gauss_rule(ppp)
    K = bessel_truncation(c, CFG)
    pts, _ = composite_nodes(0.0, 2 * pi, panels, rule)
    D = np.abs(pts[:, None] - pts[None, :])
    blocks = pts.reshape(panels, ppp)
    offsets = np.abs(blocks[:, :, None] - blocks[0][None, None, :])
    assert offsets.shape == (panels, ppp, ppp)
    gathered = _gather_offsets(offsets)
    assert np.array_equal(gathered == 0, D == 0)
    assert np.max(np.abs(gathered - D)) <= 8 * np.finfo(float).eps * 2 * pi
    with np.errstate(divide="ignore"):
        lnD = np.where(D > 0, np.log(np.where(D > 0, D, 1.0)), 0.0)
    direct = (special.regularized_kernel_abs(D, c)
              + (2j / pi) * special.j0_series_remainder(c * D, K) * lnD)
    got = _gather_offsets(_offset_kernel(c, pts, panels))
    assert np.linalg.norm(got - direct) <= 3e-15 * max(1.0, c) * np.linalg.norm(direct)


def test_grid_kernel_from_distinct_separations_is_bitwise_the_full_offset_layout(monkeypatch):
    from cavityscat import quadrature, special
    kernel, seen = special.regularized_kernel_abs, []

    def counting(d, c):
        seen.append(np.size(d))
        return kernel(d, c)

    monkeypatch.setattr(special, "regularized_kernel_abs", counting)
    for c, panels, ppp in [(1, 96, 10), (0.0123, 24, 4), (4, 64, 4), (16, 96, 10),
                           (0.5, 8, 4), (64, 64, 6), (2, 1, 4)]:
        pts, _ = quadrature.composite_nodes(0.0, 2 * pi, panels, quadrature.gauss_rule(ppp))
        # reference: the kernel at all 2*panels - 1 offsets, gathered by index
        blocks = pts.reshape(panels, ppp)
        off = np.arange(1 - panels, panels)
        D = np.abs(blocks[np.maximum(off, 0)][:, :, None]
                   - blocks[np.maximum(-off, 0)][:, None, :])
        per_offset = kernel(D, c)
        idx = np.arange(panels)[:, None] - np.arange(panels)[None, :] + panels - 1
        ref = per_offset[idx].transpose(0, 2, 1, 3).reshape(panels * ppp, panels * ppp)
        seen.clear()
        got = _gather_offsets(quadrature._offset_kernel(c, pts, panels))
        # the negative offsets are exact negations of the non-negative ones
        # before abs, so the kernel sees the same set of values; the stop
        # rule of its ascending series then runs the same number of terms,
        # and every value is bitwise the reference's
        assert seen == [panels * ppp * ppp], (c, panels, ppp)
        assert np.array_equal(got, ref), (c, panels, ppp)
        assert np.array_equal(got, got.T), (c, panels, ppp)


@pytest.mark.parametrize("kind", ["sin", "cos"])
@pytest.mark.parametrize("panels", [1, 2, 7, 96, 512])
@pytest.mark.parametrize("ppp", [4, 10])
@pytest.mark.parametrize("c", [1.0, 16.0])
def test_panel_fold_matches_the_dense_product(kind, panels, ppp, c):
    # modes 0..24 against 0..16 meet the bins k = m +- n = 0 (mod 2 panels),
    # which are summed with geometric weights: every even pair on 1 panel,
    # m +- n = 0 (mod 4) on 2, m +- n in {0, 14, 28} on 7, the diagonal on
    # 96, and on 512 panels also |k| <= 10, where 1 - omega^k is below 1/16.
    # The reference is Tm.T @ G @ Tn on the dense grid, in row slabs of at
    # most 2^20 entries (the 5120-node grid is 419 MiB); it is off by up to
    # 3.2e-15 from an 80-bit evaluation of the same sum on 1 and 2 panels,
    # where modes to 24 alias on 4 to 20 nodes, and the fold by up to 2.2e-15
    from cavityscat import quadrature
    pts, wts = quadrature.composite_nodes(0.0, 2 * pi, panels, quadrature.gauss_rule(ppp))
    modes_m, modes_n = np.arange(0, 25), np.arange(0, 17)
    per_offset = quadrature._offset_kernel(c, pts, panels)
    fold = quadrature._PanelFold(panels, ppp, modes_m, modes_n)
    block = fold(per_offset[None], (kind,))[0, 0]
    f = np.sin if kind == "sin" else np.cos
    Tm = f(0.5 * pts[:, None] * modes_m[None, :]) * wts[:, None]
    Tn = f(0.5 * pts[:, None] * modes_n[None, :]) * wts[:, None]
    step = max(1, 2 ** 20 // (panels * ppp * ppp))  # row panels per slab
    want = sum(Tm[lo * ppp:(lo + step) * ppp].T
               @ (_gather_offsets(per_offset, slice(lo, lo + step)) @ Tn)
               for lo in range(0, panels, step))
    assert np.all(block[(modes_m[:, None] + modes_n[None, :]) % 2 == 1] == 0.0)
    assert np.linalg.norm(block - want) <= 4e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["sin", "cos"])
@pytest.mark.parametrize("panels", [1, 7, 96])
@pytest.mark.parametrize("ppp", [4, 10])
@pytest.mark.parametrize("slab_scales", [None, 5])
def test_slab_contraction_matches_the_dense_product(kind, panels, ppp, slab_scales):
    # the c = 1 block contracted alone (None), or as one slab of a stack of
    # 5 scales folded with both kinds in one call, as a sweep chunk of a TM
    # build is: the same Tm.T @ G @ Tn, and bitwise the block alone.  The
    # block keeps the pairs with m + n even and has exact zeros elsewhere,
    # where the dense product holds roundoff (up to 2.9e-15 of its norm on
    # 1 x 4 points, from a kernel that is persymmetric only to roundoff)
    from cavityscat import quadrature
    f = np.sin if kind == "sin" else np.cos
    pts, wts = quadrature.composite_nodes(0.0, 2 * pi, panels, quadrature.gauss_rule(ppp))
    modes_m, modes_n = np.arange(1, 25), np.arange(0, 17)
    Tm = f(0.5 * pts[:, None] * modes_m[None, :]) * wts[:, None]
    Tn = f(0.5 * pts[:, None] * modes_n[None, :]) * wts[:, None]
    per_offset = quadrature._offset_kernel(1.0, pts, panels)
    want = Tm.T @ _gather_offsets(per_offset) @ Tn
    fold = quadrature._PanelFold(panels, ppp, modes_m, modes_n)
    alone = fold(per_offset[None], (kind,))[0, 0]
    if slab_scales is None:
        got = alone
    else:
        scales = np.array([0.5, 1.0, 4.0, 16.0, 64.0])
        both = fold(quadrature._offset_kernel(scales, pts, panels), ("sin", "cos"))
        got = both[("sin", "cos").index(kind), 1]
        assert both.shape == (2, slab_scales, len(modes_m), len(modes_n))
        assert np.array_equal(got, alone)
    assert got.shape == want.shape
    even = (modes_m[:, None] + modes_n[None, :]) % 2 == 0
    assert np.all(got[~even] == 0.0)
    assert np.linalg.norm((got - want)[even]) <= 2e-15 * np.linalg.norm(want)


def test_singular_block_lays_out_no_full_grid():
    # 96 x 10 points, modes 1..150, c = 1 (the rcs_lossy block): the dense
    # 960 x 960 complex grid alone is 14.1 MiB; the log-part rule is warm
    import tracemalloc
    cfg = QuadratureConfig(panels=96, points_per_panel=10)
    modes = range(1, 151)
    singular_block_matrix(modes, modes, 1.0, "sin", cfg)
    tracemalloc.start()
    try:
        singular_block_matrix(modes, modes, 1.0, "sin", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, peak / 2 ** 20


def test_log_part_builds_its_rule_in_under_a_mebibyte():
    # modes 1..150 at c = 1 (the rcs_lossy log part, 1,296 nodes on 35
    # panels) from a cleared rule memo: the returned sin and cos matrices are
    # 0.69 MiB of the peak; the former dense rule alone held 3 MiB
    import tracemalloc
    from cavityscat import quadrature
    modes = range(1, 151)
    quadrature.log_part_matrix(("sin", "cos"), range(1, 5), range(1, 5), 1.0)  # imports
    quadrature._log_rule.cache_clear()
    tracemalloc.start()
    try:
        quadrature.log_part_matrix(("sin", "cos"), modes, modes, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak / 2 ** 20
    rule = quadrature._log_rule(150, 35)
    assert quadrature._log_rule.cache_info().hits >= 1
    held = sum(a.nbytes for a in (rule.tau, rule.lw) + rule.graded + rule.uniform)
    assert held < 2 ** 19, held / 2 ** 20


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
