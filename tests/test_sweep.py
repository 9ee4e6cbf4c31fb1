"""A wavenumber sweep as one stacked computation: stacked modal tables,
kernel matrices, cross blocks, solves and Q_E against the single-spec path,
the chunks of an `enhance` sweep, and the resonance checks over a leading
axis."""

import json
import math
import tracemalloc
from dataclasses import replace
from math import pi

import numpy as np
import pytest

import cavityscat as cs
from cavityscat import assembly, cli, modal, postprocess, quadrature
from cavityscat.errors import ConnectionResonanceError, ModalResonanceError
from cavityscat.model import QuadratureConfig

from conftest import enhance_pair_spec as _enhance_pair_spec, example4_spec


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


def _layers():
    return (cs.Layer(0.0, -1.0, 1.0 + 0j),)


@pytest.mark.parametrize("cav_k,cav_j", [
    (cs.Cavity(-0.075, -0.025, _layers()), cs.Cavity(0.025, 0.075, _layers())),  # equal
    (cs.Cavity(-0.6, -0.1, _layers()), cs.Cavity(0.0, 0.2, _layers())),          # unequal
    (cs.Cavity(0.0, 0.5, _layers()), cs.Cavity(0.501, 0.8, _layers())),          # small gap
])
def test_cross_blocks_over_a_vector_of_wavenumbers(cav_k, cav_j):
    # each block of the stack is bitwise its wavenumber's own, also across
    # the wavenumber where the rule gains a panel: the panel count is a
    # function of the wavenumber alone, and the chunk is grouped by it
    modes = np.arange(1, 6)
    (panels,) = quadrature._cross_panels(cav_k, cav_j, 5, 5, np.array([2.0]))
    step = 12.0 * panels / (cav_k.w + cav_j.w) - pi * 5 * (1 / cav_k.w + 1 / cav_j.w)
    k0 = np.array([1.5, step - 0.01, 2 * pi, step + 0.01, 2.0])
    assert len(set(quadrature._cross_panels(cav_k, cav_j, 5, 5, k0).tolist())) == 2
    stack = quadrature.cross_block_matrix(cav_k, cav_j, modes, modes, k0, ("sin", "cos"), None)
    assert stack.shape == (2, 5, 5, 5)
    for i, kappa0 in enumerate(k0):
        single = quadrature.cross_block_matrix(cav_k, cav_j, modes, modes, kappa0,
                                               ("sin", "cos"), None)
        assert np.array_equal(stack[:, i], single)


@pytest.mark.parametrize("cav_k,cav_j", [
    (cs.Cavity(-0.075, -0.025, _layers()), cs.Cavity(0.025, 0.075, _layers())),  # equal
    (cs.Cavity(-0.6, -0.1, _layers()), cs.Cavity(0.0, 0.2, _layers())),          # unequal
    (cs.Cavity(0.0, 0.5, _layers()), cs.Cavity(0.501, 0.8, _layers())),          # small gap
])
def test_cross_blocks_straddling_the_moment_cutoff(cav_k, cav_j):
    # kappa0 times the pair's span on both sides of the cross moment cutoff
    # (4): each block of the stack is bitwise its wavenumber's own, whichever
    # path the other wavenumbers take
    modes = np.arange(0, 9)
    span = max(cav_k.b, cav_j.b) - min(cav_k.a, cav_j.a)
    k0 = np.array([3.99, 4.01, 0.3, 7.0, 2.0, 4.0]) / span
    stack = quadrature.cross_block_matrix(cav_k, cav_j, modes, modes, k0, ("sin", "cos"), None)
    for i, kappa0 in enumerate(k0):
        single = quadrature.cross_block_matrix(cav_k, cav_j, modes, modes, kappa0,
                                               ("sin", "cos"), None)
        assert np.array_equal(stack[:, i], single)


def test_singular_blocks_straddling_the_moment_cutoff(monkeypatch):
    # scales on both sides of 2 pi c = 5, in enhance_pair's rule: each matrix
    # of the stack is bitwise its scale's own, whichever path the other
    # scales take, in one slab or in slabs of one scale
    cfg = QuadratureConfig(panels=24, points_per_panel=4)
    modes = np.arange(0, 9)
    c = np.array([0.5, 0.9, 0.7957, 0.7959, 1.2, 0.0107, 5.0 / (2 * pi)])
    assert len(set((2 * pi * c < 5.0).tolist())) == 2
    stack = quadrature.singular_block_matrix(modes, modes, c, ("sin", "cos"), cfg)
    for i, s in enumerate(c):
        single = quadrature.singular_block_matrix(modes, modes, float(s), ("sin", "cos"), cfg)
        assert np.array_equal(stack[:, i], single)
    monkeypatch.setattr(quadrature, "STACK_ENTRIES", 1)
    assert np.array_equal(quadrature.singular_block_matrix(modes, modes, c, ("sin", "cos"), cfg),
                          stack)


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


def _recorded_chunks(monkeypatch) -> list:
    """The wavenumbers of every `solve_sweep` call, in order."""
    solve_sweep, chunks = assembly.solve_sweep, []

    def recorded(spec, kappa0):
        chunks.append(list(kappa0))
        return solve_sweep(spec, kappa0)

    monkeypatch.setattr(assembly, "solve_sweep", recorded)
    return chunks


def _enhance(tmp_path, spec_path, name: str, kappa_min: float, kappa_max: float, steps: int):
    """The CSV bytes and the manifest, without its wall time, of a CLI sweep."""
    out = tmp_path / name
    assert cli.main(["enhance", "--spec", str(spec_path), "--out", str(out),
                     "--kappa-min", repr(kappa_min), "--kappa-max", repr(kappa_max),
                     "--kappa-steps", str(steps)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest.pop("wall_time_s") > 0.0
    return (out / "enhancement.csv").read_bytes(), manifest


def test_enhance_sweep_chunks_of_the_grid_budget(tmp_path, monkeypatch):
    # two equal apertures, N = 8: a wavenumber lays out the cross rule's 160
    # H0 nodes with the larger of their planes (160), one half of the longest
    # segment's product (3 x 80) and the fold (2 x 9 x 9), the 384 entries of
    # one singular block's 1-D sums (f and g, 2 x 24 long per point; the
    # second cavity's block is the first one's) and the 18 x 18 system, so a
    # chunk takes the 44 that fit STACK_ENTRIES; the last chunk holds the
    # remainder, and every wavenumber is solved exactly once
    spec = _enhance_pair_spec()
    a, b = spec.cavities
    assert quadrature.cross_entries(a, b, range(9), range(9), 1.62) == 160 + 240
    assert assembly.sweep_entries(spec) == 400 + 2 * (2 * 24) * 4 + 18 * 18
    assert quadrature.stack_length(assembly.sweep_entries(spec)) == 44
    spec_path = tmp_path / "spec.json"
    cs.save_spec(spec, spec_path)
    chunks = _recorded_chunks(monkeypatch)
    _enhance(tmp_path, spec_path, "out", 1.35, 1.62, 50)
    assert [len(c) for c in chunks] == [44, 6]
    assert [k for c in chunks for k in c] == list(np.linspace(1.35, 1.62, 50))


def _graded_three_cavities():
    """Three TE cavities of unequal widths, 64 panels of 4 points, gaps of
    0.001 and 0.002: the cross rules grade toward the gaps."""
    lay = (cs.Layer(0.0, -0.5, 1.0 + 0j),)
    return cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(2.0, pi / 7), polarization="TE",
        cavities=(cs.Cavity(-0.6, -0.1, lay), cs.Cavity(-0.099, 0.2, lay),
                  cs.Cavity(0.202, 0.6, lay)),
        N=4, quad=QuadratureConfig(panels=64)))


def test_graded_unequal_pairs_stack_many_wavenumbers(tmp_path, monkeypatch):
    # a cross rule's nodes grow with the modes and the wavenumber, not with
    # the spec's panels, and its grading adds a few panels per gap: the three
    # pairs lay out 560 + 240 + 480 entries per wavenumber where their tensor
    # grids held about 256^2 separations each (one wavenumber per chunk),
    # so with the three singular blocks' 3 x 1,024 and the 15 x 15 system a
    # chunk takes ten wavenumbers
    spec = _graded_three_cavities()
    pairs = [(0, 1), (0, 2), (1, 2)]
    assert [quadrature.cross_entries(spec.cavities[a], spec.cavities[b], range(5), range(5),
                                     2.0) for a, b in pairs] == [560, 240, 480]
    assert assembly.sweep_entries(spec) == 1280 + 3 * 2 * (2 * 64) * 4 + 15 * 15
    assert quadrature.stack_length(assembly.sweep_entries(spec)) == 10
    spec_path = tmp_path / "spec.json"
    cs.save_spec(spec, spec_path)
    chunks = _recorded_chunks(monkeypatch)
    _enhance(tmp_path, spec_path, "out", 1.5, 1.6, 12)
    assert [len(c) for c in chunks] == [10, 2]


def test_enhance_chunk_memory_is_bounded():
    # one chunk of enhance_pair's sweep, after a first chunk has filled the
    # memoised rules and moment tables: 44 wavenumbers stack 1.21 MiB with
    # the singular and the cross blocks from one moment contraction each
    # (numpy 2.4)
    spec = _enhance_pair_spec()
    kappas = np.linspace(1.35, 1.62, 361)
    chunk = quadrature.stack_length(assembly.sweep_entries(spec))
    assert chunk == 44
    cli._enhance_rows(spec, kappas[:chunk], [0, 1])
    tracemalloc.start()
    try:
        rows = cli._enhance_rows(spec, kappas[96:96 + chunk], [0, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (chunk, 4) and np.all(np.isfinite(rows))
    assert peak <= 1.4 * 2 ** 20, peak / 2 ** 20


def test_enhance_outputs_do_not_depend_on_the_chunk_length(tmp_path, monkeypatch):
    # enhance_pair's grid over 40 wavenumbers: the default chunk (all 40),
    # chunks of 8 or 16 and one wavenumber per chunk write the same bytes,
    # and the same manifest but for the wall time
    spec_path = tmp_path / "spec.json"
    cs.save_spec(_enhance_pair_spec(), spec_path)
    entries = assembly.sweep_entries(_enhance_pair_spec())
    csv, manifest = _enhance(tmp_path, spec_path, "default", 1.35, 1.62, 40)
    chunks = _recorded_chunks(monkeypatch)
    for length in (8, 16, 1):
        monkeypatch.setattr(quadrature, "STACK_ENTRIES", length * entries)
        chunks.clear()
        assert _enhance(tmp_path, spec_path, f"chunks{length}", 1.35, 1.62, 40) == (csv,
                                                                                    manifest)
        assert {len(c) for c in chunks[:-1]} == {length}


def test_enhance_rows_are_their_own_in_any_chunk():
    # enhance_pair's 361 wavenumbers in chunks of 1, 3, 8, 32 and 361: every
    # row, rcond, backward error and Q_E, is bitwise the same, so no chunk
    # length is special, whatever BLAS kernels sum the modes
    spec = _enhance_pair_spec()
    kappas = np.linspace(1.35, 1.62, 361)

    def swept(length):
        return np.concatenate([cli._enhance_rows(spec, kappas[s:s + length], [0, 1])
                               for s in range(0, len(kappas), length)])

    rows = swept(1)
    assert np.all(np.isfinite(rows))
    for length in (3, 8, 32, 361):
        assert np.array_equal(swept(length), rows), length


def _resonant_single_cavity():
    """One TE cavity of depth 1 filled with kappa = kappa0: swept, mode 0
    resonates at kappa0 = pi (beta = pi)."""
    return cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(1.5, 0.0), polarization="TE",
        cavities=(cs.Cavity(-0.025, 0.025, (cs.Layer(0.0, -1.0, 1.5 + 0j),)),),
        N=4, quad=QuadratureConfig(panels=12)))


def test_resonance_inside_a_large_chunk_costs_only_its_row(tmp_path, monkeypatch):
    # 41 wavenumbers in one chunk with kappa0 = pi at the middle: the chunk
    # fails and is solved again by halves down to the resonant wavenumber
    # (11 stacked solves, not 42), so only its row is NaN, and the CSV is
    # byte for byte that of one wavenumber per chunk
    spec = _resonant_single_cavity()
    assert quadrature.stack_length(assembly.sweep_entries(spec)) >= 41
    spec_path = tmp_path / "spec.json"
    cs.save_spec(spec, spec_path)
    kappa_max = 2 * pi - 3.0
    assert np.linspace(3.0, kappa_max, 41)[20] == pi
    chunks = _recorded_chunks(monkeypatch)
    csv, manifest = _enhance(tmp_path, spec_path, "chunk", 3.0, kappa_max, 41)
    assert [len(c) for c in chunks] == [41, 20, 21, 10, 5, 2, 1, 1, 3, 5, 11]
    rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
    assert [r[1] == "nan" for r in rows] == [i == 20 for i in range(41)]
    assert all(np.isfinite(float(r[1])) for i, r in enumerate(rows) if i != 20)
    assert manifest["diagnostics"]["failed"] == [
        {"kappa": pi, "error": "modal resonance: mode n=0, layer 0, cavity 0"}]
    monkeypatch.setattr(quadrature, "STACK_ENTRIES", 1)
    assert _enhance(tmp_path, spec_path, "one", 3.0, kappa_max, 41) == (csv, manifest)
