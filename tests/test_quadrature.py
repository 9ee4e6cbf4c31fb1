"""Singular diagonal blocks and smooth cross-cavity blocks."""

import numpy as np
import pytest
from math import pi

import cavityscat as cs
from cavityscat import oracle
from cavityscat.model import QuadratureConfig
from cavityscat.quadrature import (SingularBlockCache, composite_nodes_edges,
                                   cross_block_matrix, gauss_rule, singular_block,
                                   singular_block_matrix)
from cavityscat.special import hankel1_0

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


def _layers():
    return (cs.Layer(0.0, -1.0, 1.0 + 0j),)


def _tensor_cross(cav_k, cav_j, modes, kappa0):
    """The sin and cos cross blocks by tensor Gauss over both apertures: 128
    panels of 16 points each, halved toward the facing ends down to the gap,
    summed 256 rows at a time."""
    gap = max(cav_j.a - cav_k.b, cav_k.a - cav_j.b)
    right = cav_k.a > cav_j.b

    def nodes(w, facing_right):
        edges, h = list(np.linspace(0.0, w, 129)), w / 256
        while h > gap:
            edges.append(w - h if facing_right else h)
            h /= 2
        return composite_nodes_edges(np.array(sorted(edges)), gauss_rule(16))

    (x, wx), (y, wy) = nodes(cav_k.w, not right), nodes(cav_j.w, right)
    out = []
    for f in (np.sin, np.cos):
        tm = f(pi * np.outer(x, modes) / cav_k.w) * wx[:, None]
        tn = f(pi * np.outer(y, modes) / cav_j.w) * wy[:, None]
        out.append(sum(tm[r:r + 256].T @ hankel1_0(kappa0 * np.abs(
            x[r:r + 256, None] + cav_k.a - y - cav_j.a)) @ tn for r in range(0, len(x), 256)))
    return out


_THREE = (cs.Cavity(-0.6, -0.1, _layers()), cs.Cavity(0.0, 0.2, _layers()),
          cs.Cavity(0.3, 0.6, _layers()))


@pytest.mark.parametrize("cav_k,cav_j,modes", [
    (cs.Cavity(-0.075, -0.025, _layers()), cs.Cavity(0.025, 0.075, _layers()), range(1, 9)),
    (cs.Cavity(-0.6, -0.1, _layers()), cs.Cavity(0.0, 0.2, _layers()), range(1, 9)),
    (cs.Cavity(0.0, 0.5, _layers()), cs.Cavity(0.501, 0.8, _layers()), range(1, 9)),
    (_THREE[0], _THREE[1], range(1, 91)),
    (_THREE[0], _THREE[2], range(1, 91)),
    (_THREE[1], _THREE[2], range(1, 91)),
], ids=["equal", "unequal", "gap-0.001", "three-01", "three-02", "three-12"])
def test_cross_blocks_against_a_tensor_reference(cav_k, cav_j, modes):
    # the 1-D rule over the separation against 128 x 16-point tensor Gauss:
    # the sin blocks agree to 5e-15, the cos blocks without mode 0 (small
    # entries, formed from sums up to 100 times larger) to 8e-14
    modes = np.array(modes)
    for kappa0 in (1.5, 2 * pi):
        got = cross_block_matrix(cav_k, cav_j, modes, modes, kappa0, ("sin", "cos"), CFG)
        for block, ref in zip(got, _tensor_cross(cav_k, cav_j, modes, kappa0)):
            assert np.linalg.norm(block - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("cav_k,cav_j,modes", [
    (cs.Cavity(-0.075, -0.025, _layers()), cs.Cavity(0.025, 0.075, _layers()), range(0, 9)),
    (cs.Cavity(0.0, 0.5, _layers()), cs.Cavity(0.501, 0.8, _layers()), range(0, 5)),
    (cs.Cavity(0.0, 0.5, _layers()), cs.Cavity(0.501, 0.8, _layers()), range(0, 41)),
    (_THREE[0], _THREE[2], range(0, 91)),
])
def test_cross_block_of_the_swapped_pair_is_the_transpose(cav_k, cav_j, modes):
    # the rule of (j, k) is the rule of (k, j) read from the other end, its
    # local coordinates rounded apart (modes 1..90 of the three-cavity cos
    # block, small entries from large sums, agree to 1.1e-14 of the largest)
    for kappa0 in (1.5, 2 * pi):
        for kind in ("sin", "cos"):
            a = cross_block_matrix(cav_k, cav_j, modes, modes, kappa0, kind, CFG)
            b = cross_block_matrix(cav_j, cav_k, modes, modes, kappa0, kind, CFG)
            assert np.abs(b.T - a).max() <= 1e-14 * np.abs(a).max()


def test_cross_rule_grades_toward_the_near_end():
    # 16-point panels of at most 12 rad of (mu_max + nu_max + kappa0) tau,
    # each no longer than its distance to tau = 0, with the x-integral's
    # breakpoints among the edges; the equal pair of enhance_pair takes 160
    # nodes, the gap-0.001 pair is graded toward the gap
    from cavityscat import quadrature
    cav_k, cav_j = cs.Cavity(-0.075, -0.025, _layers()), cs.Cavity(0.025, 0.075, _layers())
    (panels,) = quadrature._cross_panels(cav_k, cav_j, 8, 8, np.array([1.5]))
    assert panels == 9 and len(quadrature._cross_rule(
        cav_k.a, cav_k.b, cav_j.a, cav_j.b, 8, 8, panels).dist) == 160
    edges = quadrature._cross_edges(0.001, (0.3, 0.5), 0.8, 0.8 / 46)
    assert {0.3, 0.5, 0.8} <= set(edges) and np.all(np.diff(edges) > 0.0)
    lengths = np.diff(edges)
    assert np.all(lengths <= 0.001 + edges[:-1]) and np.all(lengths <= 0.8 / 46 * (1 + 1e-12))
    assert np.array_equal(lengths[:5], 0.001 * 2.0 ** np.arange(5))


@pytest.mark.parametrize("panels", [1, 7, 24, 96, 512])
@pytest.mark.parametrize("ppp", [4, 10])
def test_uniform_panel_fold_matches_the_direct_sums(panels, ppp):
    # the folds of the kernel rule, sum w f e^{+-i q tau/2} for q = 0..24 over
    # its f = R and g = (2 pi - tau) R, against the direct sums over the same
    # nodes at c = 0.012, 1 and 16; modes to 24 alias on 1 panel.  Its A_q
    # and D_q are the sin and cos sums, and an array of the three scales
    # gives each scale's own bits
    from cavityscat import quadrature, special
    q_max, scales = 24, np.array([0.012, 1.0, 16.0])
    rule = quadrature._kernel_rule(panels, ppp, q_max)
    pts, _ = quadrature.composite_nodes(0.0, 2 * pi, panels, quadrature.gauss_rule(ppp))
    assert np.array_equal(rule.tau.T.ravel(), pts)
    f = special.regularized_kernel_abs(rule.tau, scales) * rule.w
    terms = np.stack((f, (2 * pi - rule.tau) * f), axis=1)
    half = 0.5 * np.multiply.outer(rule.tau.ravel(), np.arange(q_max + 1))
    flat = terms.reshape(len(scales), 2, -1)
    folds = quadrature._fold_panels(terms, panels, rule.phases, q_max + 1, (1, -1))
    AD = rule.sums(scales)
    direct = np.stack((flat[:, 0] @ np.sin(half), flat[:, 1] @ np.cos(half)), axis=1)
    for i, c in enumerate(scales):
        for sign, got in zip((1, -1), folds):
            want = flat[i] @ np.exp(sign * 1j * half)
            assert np.linalg.norm(got[i] - want) <= 2e-15 * np.linalg.norm(want), (c, sign)
        assert np.linalg.norm(AD[i] - direct[i]) <= 2e-15 * np.linalg.norm(direct[i]), c
        assert np.array_equal(AD[i], rule.sums(scales[i:i + 1])[0]), c


def _block_from_sums(kind, m, n, A, D):
    """The block [m, n] of a kernel from its integrals A_q and D_q, one entry
    at a time: 4/(m^2-n^2) (m A_n - n A_m) (sin) or (n A_n - m A_m) (cos) off
    the diagonal, D_m +- 2 A_m/m on it, 2 D_0 for the cos zero mode, and
    zero for odd m + n and the sin mode 0."""
    out = np.zeros((len(m), len(n)), dtype=complex)
    for i, mi in enumerate(m):
        for j, nj in enumerate(n):
            if (mi + nj) % 2 or (kind == "sin" and 0 in (mi, nj)):
                continue
            if mi != nj:
                num = mi * A[nj] - nj * A[mi] if kind == "sin" else nj * A[nj] - mi * A[mi]
                out[i, j] = 4.0 / (mi * mi - nj * nj) * num
            elif mi == 0:
                out[i, j] = 2.0 * D[0]
            else:
                out[i, j] = D[mi] + (2.0 if kind == "sin" else -2.0) * A[mi] / mi
    return out


def _dense_sums(f, tau, q_max):
    """sum f sin(q tau/2) and sum (2 pi - tau) f cos(q tau/2), q = 0..q_max,
    as dense products with the nodes x frequencies tables."""
    f, tau = np.ravel(f), np.ravel(tau)
    half = 0.5 * np.multiply.outer(tau, np.arange(q_max + 1))
    return f @ np.sin(half), ((2 * pi - tau) * f) @ np.cos(half)


def _dense_kernel_sums(c, panels, ppp, q_max):
    """A_q, D_q of the log-regularized kernel over the kernel rule's nodes."""
    from cavityscat import quadrature, special
    rule = quadrature._kernel_rule(panels, ppp, q_max)
    f = special.regularized_kernel_abs(rule.tau, np.array([c]))[0] * rule.w
    return _dense_sums(f, rule.tau, q_max)


@pytest.mark.parametrize("kind", ["sin", "cos"])
@pytest.mark.parametrize("panels", [1, 2, 7, 96, 512])
@pytest.mark.parametrize("ppp", [4, 10])
@pytest.mark.parametrize("c", [1.0, 16.0])
def test_panel_fold_matches_the_dense_product(kind, panels, ppp, c):
    # the log-regularized kernel's block of one kind, modes 0..24 against
    # 0..16, from the kernel rule's sums folded over the panel index and
    # combined as a singular block combines them (real and imaginary halves
    # as rows of their own), against the block built entry by entry from the
    # dense products of the same terms with the sin and cos tables; modes to
    # 24 alias on 1 and 2 panels.  Pairs of odd m + n are exact zeros
    from cavityscat import quadrature
    modes_m, modes_n = np.arange(0, 25), np.arange(0, 17)
    AD = quadrature._kernel_rule(panels, ppp, 24).sums(np.array([c]))
    halves = np.empty((1, 2, len(modes_m), len(modes_n)), dtype=complex)
    quadrature._combine((kind,), modes_m, modes_n, np.concatenate((AD.real, AD.imag)), halves)
    block = halves[0, 0].imag + 1j * halves[0, 1].imag
    want = _block_from_sums(kind, modes_m, modes_n, *_dense_kernel_sums(c, panels, ppp, 24))
    assert np.all(block[(modes_m[:, None] + modes_n[None, :]) % 2 == 1] == 0.0)
    assert np.linalg.norm(block - want) <= 4e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["sin", "cos"])
@pytest.mark.parametrize("panels", [1, 7, 96])
@pytest.mark.parametrize("ppp", [4, 10])
@pytest.mark.parametrize("slab_scales", [None, 5])
def test_slab_contraction_matches_the_dense_product(kind, panels, ppp, slab_scales):
    # the whole c = 1 singular block computed alone (None), or within a stack
    # of 5 scales of both kinds in one call, as a sweep chunk of a TM build
    # is (one slab of 5 on 1 and 7 panels, slabs of 3 and 2 on 96):
    # bitwise the block alone, and the block built entry by entry from dense
    # products, the kernel rule's sums of R plus (2i/pi) the log rule's sums
    # of J0 ln over its own nodes.  Pairs of odd m + n are exact zeros
    from cavityscat import quadrature, special
    modes_m, modes_n, q_max = np.arange(1, 25), np.arange(0, 17), 24
    cfg = QuadratureConfig(panels=panels, points_per_panel=ppp)
    log = quadrature._log_rule(q_max, int(quadrature._log_panels(q_max, np.array([1.0]))[0]))
    LA, LD = _dense_sums(special.bessel_j0_rows(log.tau[None])[0] * log.lw, log.tau, q_max)
    A, D = _dense_kernel_sums(1.0, panels, ppp, q_max)
    want = _block_from_sums(kind, modes_m, modes_n, A + (2j / pi) * LA, D + (2j / pi) * LD)
    alone = singular_block_matrix(modes_m, modes_n, 1.0, kind, cfg)
    if slab_scales is None:
        got = alone
    else:
        scales = np.array([0.5, 1.0, 4.0, 16.0, 64.0])
        both = singular_block_matrix(modes_m, modes_n, scales, ("sin", "cos"), cfg)
        assert both.shape == (2, slab_scales, len(modes_m), len(modes_n))
        got = both[("sin", "cos").index(kind), 1]
        assert np.array_equal(got, alone)
    even = (modes_m[:, None] + modes_n[None, :]) % 2 == 0
    assert np.all(got[~even] == 0.0)
    assert np.linalg.norm(got - want) <= 2e-15 * np.linalg.norm(want)


def _fine(cfg):
    """The same rule at 4x the panels and 10 points per panel."""
    return QuadratureConfig(panels=4 * cfg.panels, points_per_panel=10)


@pytest.mark.parametrize("modes, c, kinds, cfg, bound", [
    # enhance_pair: two apertures of width 0.05 swept over kappa0 1.35..1.62
    (range(0, 9), np.linspace(0.0107, 0.0129, 12), ("cos",),
     QuadratureConfig(panels=24, points_per_panel=4), 5e-11),
    # rcs_lossy: one large aperture at c = 1, TM
    (range(1, 151), 1.0, ("sin", "cos"), QuadratureConfig(panels=96, points_per_panel=10), 1e-14),
])
def test_singular_blocks_at_the_benchmark_settings_are_converged(modes, c, kinds, cfg, bound):
    got = singular_block_matrix(modes, modes, c, kinds, cfg)
    want = singular_block_matrix(modes, modes, c, kinds, _fine(cfg))
    got, want = (b.reshape((-1,) + b.shape[-2:]) for b in (got, want))
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= bound * np.linalg.norm(w)


def test_singular_block_slabs_do_not_change_the_bits(monkeypatch):
    # 36 scales above the series cutoff (2 pi c from 5.03 to 6.28, so every
    # scale sums its kernel rows) at enhance_pair's rule: in equal slabs of
    # the default stack (18) and of smaller ones (12, 1), or in one slab,
    # every matrix is bitwise the same
    from cavityscat import quadrature, special
    kernel, slabs = special.regularized_kernel_abs, []

    def recorded(d, c):
        slabs.append(np.size(c))
        return kernel(d, c)

    monkeypatch.setattr(special, "regularized_kernel_abs", recorded)
    cfg, modes = QuadratureConfig(panels=24, points_per_panel=4), range(0, 9)
    scales = np.linspace(0.8, 1.0, 36)
    base = singular_block_matrix(modes, modes, scales, ("cos",), cfg)
    assert slabs == [18, 18]
    for entries, lengths in ((10 ** 6, [36]), (30_000, [12] * 3), (1, [1] * 36)):
        monkeypatch.setattr(quadrature, "STACK_ENTRIES", entries)
        slabs.clear()
        assert np.array_equal(singular_block_matrix(modes, modes, scales, ("cos",), cfg), base)
        assert slabs == lengths, entries


def _counted_kernels(monkeypatch) -> list:
    """Record every kernel-row evaluation that the blocks make."""
    from cavityscat import special
    calls = []
    for name in ("regularized_kernel_abs", "bessel_j0_rows", "hankel1_0"):
        def counted(*args, _original=getattr(special, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(special, name, counted)
    return calls


@pytest.mark.parametrize("N, panels", [(8, 24), (40, 32), (90, 64)])
def test_singular_moment_path_matches_the_kernel_rows(N, panels, monkeypatch):
    # below the series cutoff (2 pi c < 5) a block is one contraction of its
    # rule's moment tables, with no kernel row; against the sums of the
    # kernel rows on the same rules (a zero cutoff), sin and cos
    from cavityscat import quadrature
    cfg = QuadratureConfig(panels=panels, points_per_panel=4)
    scales = np.array([0.001, 0.01, 0.1, 0.3, 0.5, 0.79])
    kinds = (("sin", range(1, N + 1)), ("cos", range(0, N + 1)))
    calls = _counted_kernels(monkeypatch)
    got = [singular_block_matrix(modes, modes, scales, kind, cfg) for kind, modes in kinds]
    assert calls == []
    monkeypatch.setattr(quadrature, "_MOMENT_CUTOFF", 0.0)
    for (kind, modes), stack in zip(kinds, got):
        want = singular_block_matrix(modes, modes, scales, kind, cfg)
        for c, g, w in zip(scales, stack, want):
            assert np.linalg.norm(g - w) <= 2e-15 * np.linalg.norm(w), (kind, c)
    assert calls


@pytest.mark.parametrize("cav_k,cav_j", [
    (cs.Cavity(-0.075, -0.025, _layers()), cs.Cavity(0.025, 0.075, _layers())),  # equal
    (cs.Cavity(-0.6, -0.1, _layers()), cs.Cavity(0.0, 0.2, _layers())),          # unequal
    (cs.Cavity(0.0, 0.5, _layers()), cs.Cavity(0.501, 0.8, _layers())),          # small gap
])
def test_cross_moment_path_matches_the_hankel_rows(cav_k, cav_j, monkeypatch):
    # kappa0 times the pair's span from 0.05 to 3.99: the linear part is one
    # contraction of the rule's moment tables, with no H0 row; against H0 at
    # the nodes of the same rules (a zero cutoff), sin and cos.  Up to 7.3e-16
    # on the default OpenBLAS kernels, 1.2e-15 on Haswell's
    from cavityscat import quadrature
    modes = np.arange(0, 9)
    span = max(cav_k.b, cav_j.b) - min(cav_k.a, cav_j.a)
    k0 = np.array([0.05, 1.0, 2.5, 3.5, 3.99]) / span
    calls = _counted_kernels(monkeypatch)
    got = cross_block_matrix(cav_k, cav_j, modes, modes, k0, ("sin", "cos"), None)
    assert calls == []
    monkeypatch.setattr(quadrature, "_CROSS_MOMENT_CUTOFF", 0.0)
    want = cross_block_matrix(cav_k, cav_j, modes, modes, k0, ("sin", "cos"), None)
    for g, w in zip(got.reshape(-1, 9, 9), want.reshape(-1, 9, 9)):
        assert np.linalg.norm(g - w) <= 2e-15 * np.linalg.norm(w)


def test_singular_block_lays_out_no_full_grid():
    # 96 x 10 points, modes 1..150, c = 1 (the rcs_lossy block): the dense
    # 960 x 960 complex grid alone is 14.1 MiB; the rules are warm
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
