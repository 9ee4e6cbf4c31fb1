"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All tolerances are pinned here; nothing is deferred to later calibration.

Criterion 7 and the aperture end correction: the empty-cavity enhancement
peaks of a slit of width w sit below the quarter-wave values pi/2 + n*pi by
the aperture end correction, which is O(w ln(1/w)) (narrow-slit resonance
asymptotics: Lin & Zhang, SIAM J. Appl. Math., 2017; Babadjian, Bonnetier &
Triki, Multiscale Model. Simul., 2010).  At the stated width w = 0.05 the
refined peaks are 6.30%, 4.69% and 3.94% below pi/2 + n*pi for n = 0, 1, 2,
so pi/2 + n*pi itself is only the w -> 0 limit.  The criterion therefore
compares each peak with the end-corrected resonance k_n of an independent
one-mode aperture model (`_end_corrected_resonance`) to within 0.25% of
pi/2 + n*pi; the width ladder w = 0.05, 0.02, 0.005 checks that the
fundamental keeps tracking k_0 while its deviation from pi/2 shrinks toward 0
(6.30%, 3.14%, 1.01%).
"""

import json
import time
from math import log, pi, tan

import numpy as np
from scipy.optimize import brentq

import cavityscat as cs
from cavityscat import cli, oracle, quadrature
from cavityscat.model import QuadratureConfig

from conftest import example1_spec, example4_spec, two_layer_spec


def _line(num: int, ok: bool, msg: str) -> None:
    print(f"[criterion-{num:02d}] {'PASS' if ok else 'FAIL'}: {msg}")


# -- 1 -------------------------------------------------------------------


def test_criterion_1_convergence_order():
    t0 = time.perf_counter()
    orders = {}
    for pol in ("TM", "TE"):
        spec = example1_spec(pol, N=30, panels=8)  # 4-point Gauss default
        _, errs, order = cli.convergence_study(spec, 5)
        orders[pol] = order
    elapsed = time.perf_counter() - t0
    ok = orders["TM"] >= 7.5 and orders["TE"] >= 7.5 and elapsed <= 120
    _line(1, ok, f"self-convergence order TM {orders['TM']:.2f}, TE {orders['TE']:.2f} "
                 f"(>= 7.5), {elapsed:.0f}s (<= 120s)")
    assert ok


# -- 2 -------------------------------------------------------------------


def test_criterion_2_parity_lemma():
    cfg = QuadratureConfig(panels=48, points_per_panel=6)
    odd_pairs = [(m, n) for m in range(1, 6) for n in range(1, 6) if (m + n) % 2][:10]
    worst = 0.0
    checked = 0
    for c in (0.3, 1.0, 5.0):
        even_scale = max(abs(quadrature.singular_block(m, n, c, k, cfg))
                         for (m, n) in [(1, 1), (2, 2), (1, 3)] for k in ("sin", "cos"))
        for m, n in odd_pairs:
            assert quadrature.singular_block(m, n, c, "sin", cfg) == 0.0
            assert quadrature.singular_block(m, n, c, "cos", cfg) == 0.0
            val, _ = oracle.kernel_block("sin" if checked % 2 else "cos", m, n, c,
                                         tol=1e-9, atol=1e-11 * even_scale)
            worst = max(worst, abs(val) / even_scale)
            checked += 1
    ok = worst <= 1e-9 and checked == 30
    _line(2, ok, f"odd-parity blocks exactly 0; oracle residual {worst:.2e} "
                 f"(<= 1e-9 of even magnitude) over {checked} cases")
    assert ok


# -- 3 -------------------------------------------------------------------


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    cfg = QuadratureConfig(panels=128, points_per_panel=4)
    modes = range(1, 11)
    worst = 0.0
    cases = 0
    for c in (0.25, 1.0, 4.0):
        for kind in ("sin", "cos"):
            prod = quadrature.singular_block_matrix(modes, modes, c, kind, cfg)
            refs = {}
            for m in modes:
                for n in modes:
                    if (m + n) % 2:
                        continue
                    key = (min(m, n), max(m, n))
                    if key not in refs:
                        refs[key], _ = oracle.kernel_block(kind, key[0], key[1], c, tol=1e-9)
                    rel = abs(prod[m - 1, n - 1] - refs[key]) / abs(refs[key])
                    worst = max(worst, rel)
                    cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and cases == 300 and elapsed <= 300
    _line(3, ok, f"{cases} singular blocks vs graded oracle: worst rel {worst:.2e} "
                 f"(<= 1e-8), {elapsed:.0f}s (<= 300s)")
    assert ok


# -- 4 -------------------------------------------------------------------


def test_criterion_4_algebraic_identities():
    from cavityscat.modal import (connection_te, connection_tm, layer_coeffs,
                                  single_layer_impedance_te, single_layer_impedance_tm)
    import cmath
    rng = np.random.default_rng(101)
    worst_ab = 0.0
    kept = 0
    # near-resonance draws (|1 - e^{-2 i beta h}| < 0.1) are redrawn: the
    # identity check is ill-conditioned there (residual ~ eps/|zeta|^2)
    while kept < 10_000:
        bl = complex(rng.normal(0, 4), abs(rng.normal(0, 4)))
        h = -abs(rng.uniform(0.02, 3.0))
        if abs(1 - cmath.exp(-2j * bl * h)) < 0.1:
            continue
        kept += 1
        a, b = layer_coeffs(bl, h)
        worst_ab = max(worst_ab, abs(a * a - b * b - bl * bl) / abs(bl * bl))

    worst_split = 0.0
    worst_closed = 0.0
    for trial in range(40):
        kap = complex(rng.uniform(0.5, 9), rng.uniform(0, 2) * (trial % 2))
        w = rng.uniform(0.2, 2.0)
        depth = rng.uniform(0.3, 2.5)
        cut = rng.uniform(0.2, 0.8) * depth
        n = int(rng.integers(1, 10))
        whole = cs.Cavity(0.0, w, (cs.Layer(0.0, -depth, kap),))
        split = cs.Cavity(0.0, w, (cs.Layer(0.0, -cut, kap), cs.Layer(-cut, -depth, kap)))
        k0 = rng.uniform(0.5, 5)
        s1, s2 = connection_tm(whole, n).impedance, connection_tm(split, n).impedance
        t1, t2 = connection_te(whole, n, k0).impedance, connection_te(split, n, k0).impedance
        # near the n0 mode t ~ beta^2 sinks to roundoff scale; measure against
        # the natural impedance scale of the mode instead of |t| alone
        t_scale = max(abs(t1), abs(s1) * (k0 / abs(kap)) ** 2)
        worst_split = max(worst_split, abs(s1 - s2) / abs(s1), abs(t1 - t2) / t_scale)
        # single-layer closed forms: t_hat carries the (kappa0/kappa_1)^2
        # transmission factor; it reduces to t^(n) itself when kappa_1 = kappa0
        tc = (k0 / kap) ** 2 * single_layer_impedance_te(kap, w, depth, n)
        worst_closed = max(
            worst_closed,
            abs(s1 - single_layer_impedance_tm(kap, w, depth, n)) / abs(s1),
            abs(t1 - tc) / t_scale)
        if kap.imag == 0.0:  # empty-cavity case kappa_1 = kappa0 exactly
            te_eq = connection_te(whole, n, kap.real).impedance
            tc_eq = single_layer_impedance_te(kap, w, depth, n)
            worst_closed = max(worst_closed, abs(te_eq - tc_eq) / t_scale)
    ok = worst_ab <= 1e-12 and worst_split <= 1e-11 and worst_closed <= 1e-12
    _line(4, ok, f"a^2-b^2=beta^2 worst {worst_ab:.2e} (<= 1e-12); layer splitting "
                 f"{worst_split:.2e} (<= 1e-11); closed forms {worst_closed:.2e} (<= 1e-12)")
    assert ok


# -- 5 -------------------------------------------------------------------


def test_criterion_5_connection_vs_dense():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        L = int(rng.integers(2, 9))
        edges = np.sort(rng.uniform(0.1, 1.9, L - 1))
        ys = [0.0] + list(-edges) + [-2.0]
        layers = tuple(cs.Layer(ys[i], ys[i + 1],
                                complex(rng.uniform(0.4, 9), rng.uniform(0, 2.5) * (i % 2)))
                       for i in range(L))
        cav = cs.Cavity(-0.4, 0.7, layers)
        n = int(rng.integers(1, 14))
        for pol in ("TM", "TE"):
            rep = oracle.dense_tridiag_check(cav, pol, n, kappa0=1.9)
            worst = max(worst, rep.abs_err)
    ok = worst <= 1e-12
    _line(5, ok, f"tri-diagonal vs dense re-solve worst deviation {worst:.2e} (<= 1e-12)")
    assert ok


# -- 6 -------------------------------------------------------------------


def test_criterion_6_pde_and_boundary_fidelity(tm_two_layer, te_two_layer):
    from cavityscat.postprocess import field_at, interface_value_jump, te_flux_jump
    spec_tm, tab_tm, sol_tm = tm_two_layer
    spec_te, tab_te, sol_te = te_two_layer

    orders = []
    for pol in ("TM", "TE"):
        # N = 10 keeps mu_max * step small so the pinned ladder sits in the
        # asymptotic regime of the second-order stencil
        spec = two_layer_spec(pol, N=10)
        tab, sol = cs.solve(spec)
        orders.append(oracle.fd_interior_check(spec, tab, sol, points_per_layer=8)
                      .production_value.real)

    xs = np.linspace(-0.45, 0.45, 9)
    scale = max(abs(field_at(spec_tm, tab_tm, sol_tm, float(x), -0.4)) for x in xs)
    wall = max(max(abs(field_at(spec_tm, tab_tm, sol_tm, side, float(y)))
                   for y in np.linspace(-1.4, -0.1, 7)) for side in (-0.5, 0.5))
    bottom = max(abs(field_at(spec_tm, tab_tm, sol_tm, float(x), -1.5)) for x in xs)

    jump_tm = max(abs(a - b) / max(scale, abs(a))
                  for a, b in (interface_value_jump(spec_tm, tab_tm, sol_tm, 0, 1, float(x))
                               for x in xs))
    jump_te = max(abs(a - b) / max(abs(a), abs(b))
                  for a, b in (te_flux_jump(spec_te, tab_te, sol_te, 0, 1, float(x))
                               for x in xs))

    ok = (min(orders) >= 1.9 and wall <= 1e-12 * scale and bottom <= 1e-12 * scale
          and jump_tm <= 1e-10 and jump_te <= 1e-8)
    _line(6, ok, f"FD orders {orders[0]:.2f}/{orders[1]:.2f} (>= 1.9); walls "
                 f"{wall / scale:.1e}, bottom {bottom / scale:.1e} (<= 1e-12); "
                 f"TM interface {jump_tm:.1e} (<= 1e-10); TE flux {jump_te:.1e} (<= 1e-8)")
    assert ok


# -- 7 -------------------------------------------------------------------


def _qe_single(kap: float, w: float, theta: float = 0.0, N: int = 8, gap_pair=None):
    layers = (cs.Layer(0.0, -1.0, complex(kap)),)
    if gap_pair is None:
        cavs = (cs.Cavity(-w / 2, w / 2, layers),)
    else:
        d = gap_pair
        cavs = (cs.Cavity(-d / 2 - w, -d / 2, layers), cs.Cavity(d / 2, d / 2 + w, layers))
    spec = cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(float(kap), theta), polarization="TE",
        cavities=cavs, N=N, quad=QuadratureConfig(panels=24)))
    tables, sol = cs.solve(spec)
    return [cs.enhancement(spec, tables, sol, k) for k in range(spec.K)]


def _local_maxima(ks, qs, floor=2.0):
    return [ks[i] for i in range(1, len(qs) - 1)
            if qs[i] > qs[i - 1] and qs[i] > qs[i + 1] and qs[i] >= floor]


def _end_corrected_resonance(n: int, w: float, h: float = 1.0) -> float:
    """Quarter-wave resonance k_n of an empty TE slit of width w and depth h,
    corrected for the aperture end (independent of the cavityscat solver).

    One uniform aperture mode: inside, u = A cos(k(y + h)) (Neumann walls and
    bottom), so on the aperture u = A cos(kh) and u_y = -A k sin(kh).  Above,
    u = 2 u^i - int G u_y dx' with the half-plane Neumann Green's function
    G = (i/2) H0^(1)(k|x - x'|).  For k w << 1, H0^(1)(z) ~ 1 + (2i/pi)
    (ln(z/2) + gamma), and the aperture mean of ln|x - x'| is ln w - 3/2, so
    the aperture average of G is i/2 + L/pi, L = ln(2/(k w)) - gamma + 3/2.
    Matching the means: A [cos(kh) - k w sin(kh) (L/pi + i/2)] = 2, and the
    real part of the bracket vanishes at cot(kh) = (k w/pi) L.  The root in
    (n pi, n pi + pi/2)/h sits below pi/2 + n pi by O(w ln(1/w)).
    """
    def real_part(k):
        end = log(2.0 / (k * w)) - np.euler_gamma + 1.5
        return 1.0 / tan(k * h) - (k * w / pi) * end
    return brentq(real_part, (n * pi + 1e-9) / h, (n * pi + pi / 2) / h, xtol=1e-13)


def _refined_peak(ks, qs) -> float:
    """Vertex of the parabola through the grid argmax and its two neighbours
    (uniform ks); the argmax itself when it lies on the sweep's edge."""
    i = int(np.argmax(qs))
    if i == 0 or i == len(qs) - 1:
        return float(ks[i])
    q0, q1, q2 = qs[i - 1], qs[i], qs[i + 1]
    return float(ks[i] + 0.5 * (ks[1] - ks[0]) * (q0 - q2) / (q0 - 2 * q1 + q2))


def _single_peak(n: int, w: float) -> float:
    """Refined Q_E peak of the single w-wide, depth-1 cavity at theta = 0 over
    81 points in [0.88, 1.04] (pi/2 + n*pi)."""
    ks = np.linspace(0.88 * (pi / 2 + n * pi), 1.04 * (pi / 2 + n * pi), 81)
    return _refined_peak(ks, np.array([_qe_single(k, w)[0] for k in ks]))


# peaks agree with the one-mode k_n to within this fraction of pi/2 + n*pi;
# the one-mode model leaves out an O(w) multi-mode correction (0.094% at
# w = 0.05, n = 2), while the uncorrected pi/2 + n*pi is 3.8-6.3% away
PEAK_TOL = 0.0025


def test_criterion_7_enhancement_resonances():
    # single cavity w = 0.05, h = 1, theta = 0: peaks at the end-corrected
    # quarter-wave resonances k_n, below pi/2 + n*pi
    rows = []
    for n in range(3):
        peak, k_n = _single_peak(n, 0.05), _end_corrected_resonance(n, 0.05)
        rows.append((peak, k_n, abs(peak - k_n) / (pi / 2 + n * pi)))
    peaks_ok = all(gap <= PEAK_TOL for _, _, gap in rows)

    # two-cavity reproduction: isolated member one peak, a pair member two peaks
    ks = np.linspace(1.38, 1.58, 101)
    singles = np.array([_qe_single(k, 0.05)[0] for k in ks])
    pair = np.array([_qe_single(k, 0.05, theta=-pi / 9, gap_pair=0.05) for k in ks])
    n_single = len(_local_maxima(ks, singles))
    pair_counts = [len(_local_maxima(ks, pair[:, k])) for k in (0, 1)]
    # "two peaks for one member of the pair": at least one member splits in two
    topology_ok = n_single == 1 and 2 in pair_counts

    ok = peaks_ok and topology_ok
    below = "/".join(f"{100 * (1 - p / (pi / 2 + n * pi)):.2f}%"
                     for n, (p, _, _) in enumerate(rows))
    report = "; ".join(f"n={n} peak {p:.5f} k_n {k:.5f} gap {100 * g:.3f}%"
                       for n, (p, k, g) in enumerate(rows))
    _line(7, ok, f"{report} (<= {100 * PEAK_TOL:.2f}% of pi/2 + n*pi); "
                 f"two-cavity peak split: isolated {n_single} peak(s), pair members "
                 f"{pair_counts} peak(s)")
    assert topology_ok
    assert peaks_ok, (
        f"w=0.05 enhancement peaks off the end-corrected resonances k_n: {report}; "
        f"the peaks sit below pi/2 + n*pi by the aperture end correction "
        f"O(w ln(1/w)) ({below} here), see the module docstring")


def test_criterion_7_end_correction_width_ladder():
    # the fundamental peak tracks the end-corrected k_0 as the aperture
    # narrows, and its deviation below pi/2 shrinks toward 0 with w
    rows = []
    for w in (0.05, 0.02, 0.005):
        peak, k_0 = _single_peak(0, w), _end_corrected_resonance(0, w)
        rows.append((w, (pi / 2 - peak) / (pi / 2), abs(peak - k_0) / (pi / 2)))
    devs = [dev for _, dev, _ in rows]
    ok = (all(gap <= PEAK_TOL for _, _, gap in rows)
          and all(0 < b < a for a, b in zip(devs, devs[1:])))
    print(f"[criterion-07 ladder] {'PASS' if ok else 'FAIL'}: "
          + "; ".join(f"w={w} below pi/2 {100 * d:.2f}%, gap to k_0 {100 * g:.3f}%"
                      for w, d, g in rows)
          + f" (gap <= {100 * PEAK_TOL:.2f}%, deviation decreasing)")
    assert ok


# -- 8 -------------------------------------------------------------------


def test_criterion_8_rcs_self_consistency():
    k0 = 32 * pi
    lam = 2 * pi / k0
    angles = np.linspace(pi / 180, pi - pi / 180, 181)
    sweeps = {}
    for N in (150, 200):
        spec = cs.validate(cs.ProblemSpec(
            wave=cs.IncidentWave(k0, pi / 3), polarization="TM",
            cavities=(cs.Cavity(-lam / 2, lam / 2, (cs.Layer(0.0, -lam / 4, complex(k0)),)),),
            N=N, quad=QuadratureConfig(panels=96, points_per_panel=10)))
        sweeps[N] = cs.backscatter_sweep(spec, angles).sigma
    rel = np.max(np.abs(sweeps[150] - sweeps[200]) / np.abs(sweeps[200]))
    peak = float(np.max(sweeps[200]))
    edges_small = max(sweeps[200][0], sweeps[200][-1]) <= 1e-6 * peak
    ok = rel < 0.01 and edges_small
    _line(8, ok, f"backscatter N150 vs N200 max rel change {100 * rel:.3f}% (< 1%); "
                 f"sigma at grazing {max(sweeps[200][0], sweeps[200][-1]):.2e} -> 0")
    assert ok


# -- 9 -------------------------------------------------------------------


def test_criterion_9_three_cavity_stability():
    results = {}
    for pol in ("TM", "TE"):
        t0 = time.perf_counter()
        traces = {}
        for N in (90, 135):
            spec = example4_spec(pol, N=N, panels=64)
            tables, sol = cs.solve(spec)
            traces[N] = np.stack([np.abs(cs.diagonal_trace(spec, tables, sol, k, 200).values)
                                  for k in range(3)])
        rel = float(np.max(np.abs(traces[90] - traces[135])) / np.max(traces[135]))
        results[pol] = (rel, time.perf_counter() - t0)
    ok = all(r < 0.01 and t <= 60 for r, t in results.values())
    _line(9, ok, "; ".join(f"{pol}: diag-trace change {100 * r:.3f}% (< 1%) in {t:.0f}s (<= 60s)"
                           for pol, (r, t) in results.items()))
    assert ok


# -- 10 ------------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    spec_tm = example1_spec("TM", N=6, panels=8)
    spec_te = example1_spec("TE", N=6, panels=8)
    enh_spec = cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(1.5, 0.0), polarization="TE",
        cavities=(cs.Cavity(-0.025, 0.025, (cs.Layer(0.0, -1.0, 1.5 + 0j),)),),
        N=4, quad=QuadratureConfig(panels=12)))
    tm_path, te_path, enh_path = (tmp_path / f"{n}.json" for n in ("tm", "te", "enh"))
    cs.save_spec(spec_tm, tm_path)
    cs.save_spec(spec_te, te_path)
    cs.save_spec(enh_spec, enh_path)

    runs = {
        "solve": ["solve", "--spec", str(tm_path)],
        "field": ["field", "--spec", str(te_path), "--grid", "7", "5"],
        "rcs": ["rcs", "--spec", str(tm_path), "--angles", "9"],
        "enhance": ["enhance", "--spec", str(enh_path), "--kappa-min", "1.4",
                    "--kappa-max", "1.5", "--kappa-steps", "4"],
        "convergence": ["convergence", "--spec", str(tm_path), "--levels", "2"],
        "validate": ["validate", "--tolerance-profile", "default"],
    }
    identical = {}
    for name, argv in runs.items():
        outs = []
        for rep in ("r1", "r2"):
            out = tmp_path / name / rep
            assert cli.main(argv + ["--out", str(out)]) == 0, name
            outs.append(out)
        same = True
        manifests = []
        for out in outs:
            for f in sorted(out.iterdir()):
                if f.name == "manifest.json":
                    manifests.append(json.loads(f.read_text()))
        for f in sorted(outs[0].iterdir()):
            if f.name == "manifest.json":
                continue
            same &= f.read_bytes() == (outs[1] / f.name).read_bytes()
        for m in manifests:
            m.pop("wall_time_s")
        same &= manifests[0] == manifests[1]
        identical[name] = same
    ok = all(identical.values())
    _line(10, ok, "byte-identical reruns: " +
          ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in identical.items()) +
          " (manifests compared without wall_time_s)")
    assert ok
