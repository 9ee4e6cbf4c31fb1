"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench -q"""

import math
import sys
from pathlib import Path

import pytest

from checks import check_solves
from layers import TARGETS, layer_metrics
from spans import Span, SpanRecorder, root_coverage, self_times
from workloads import NAMES, make_inputs, write_inputs

SRC = Path(__file__).resolve().parent.parent / "src"


def test_self_times_subtract_covered_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("a.child", 2.0, 3.0, 1, 1),
        Span("b", 5.0, 6.0, 0, 1),
        Span("b.x", 5.0, 5.5, 3, 1),
        Span("b.y", 5.25, 5.75, 3, 1),  # overlaps b.x: the union is counted once
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 0.25, 0.5, 0.5])
    assert sum(self_times(spans)) == pytest.approx(10.0 + 0.25)  # b.x and b.y overlap
    assert root_coverage(spans + [Span("late", 9.0, 12.0, None, 1)], 0.0, 11.0) == 11.0


def test_layer_metrics_count_cache_hits_and_coverage():
    spans = [
        Span("quadrature.cache_matrix", 0.0, 2.0, None, 1),
        Span("quadrature.cache_populate", 0.5, 1.5, 0, 1),
        Span("quadrature.cache_matrix", 2.0, 2.5, None, 1),
        Span("moments.series", 3.0, 4.0, None, 20),
    ]
    m = layer_metrics(spans, 0.0, 5.0)
    assert m["quadrature.cache_hit_ratio"] == 0.5
    assert m["quadrature.singular_s"] == pytest.approx(2.5)
    assert m["moments.series_terms"] == 20 and m["quadrature.bessel_K_max"] == 19
    assert m["trace.coverage"] == pytest.approx(0.7)
    assert m["trace.unattributed_s"] == pytest.approx(1.5)


REFERENCE = [[1.0, 2.0], [3.0, 4.0]]


def test_checker_accepts_the_reference_itself():
    assert check_solves([(1e-3, r) for r in REFERENCE], 1e-14, REFERENCE) == []


@pytest.mark.parametrize("bad", [4.0 * (1 + 1e-6), math.nan, math.inf])
def test_checker_rejects_perturbed_or_non_finite_output(bad):
    solves = [(1e-3, REFERENCE[0]), (1e-3, [3.0, bad])]
    problems = check_solves(solves, 1e-14, REFERENCE)
    assert len(problems) == 1 and problems[0].startswith("solve 1")
    # non-finite values fail without a reference too
    assert bool(check_solves(solves, 1e-14)) == (not math.isfinite(bad))


def test_checker_rejects_ill_conditioned_solve():
    assert len(check_solves([(1e-15, [1.0]), (math.nan, [1.0])], 1e-14)) == 2


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    def files(seed, sub):
        d = tmp_path / sub
        write_inputs(name, seed, d)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


@pytest.mark.parametrize("name", NAMES)
def test_seeds_jitter_values_but_not_sizes(name):
    def sizes(seed):
        doc = make_inputs(name, seed)
        return (doc["params"],
                [(s["N"], s["kappa0"], s["quadrature"],
                  [(round(c["b"] - c["a"], 12), len(c["layers"])) for c in s["cavities"]])
                 for s in doc["specs"].values()])

    assert sizes(0) == sizes(1) == sizes(12345)


def test_recorder_wraps_every_binding_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    cs = pytest.importorskip("cavityscat")
    from cavityscat import assembly, modal, postprocess, quadrature

    originals = (assembly.build_system, postprocess.build_system, cs.build_system,
                 assembly.cross_block_matrix, postprocess.build_modal_tables)
    rec = SpanRecorder()
    rec.install("cavityscat", [t for t in TARGETS if f"cavityscat.{t[0]}" in sys.modules])
    try:
        assert postprocess.build_system is assembly.build_system is cs.build_system
        assert assembly.build_system is not originals[0]
        assert assembly.cross_block_matrix is quadrature.cross_block_matrix
        assert postprocess.build_modal_tables is modal.build_modal_tables
        lay = (cs.Layer(0.0, -0.5, 1.0 + 0j),)
        spec = cs.validate(cs.ProblemSpec(
            wave=cs.IncidentWave(kappa0=1.0, theta=0.2), polarization="TE",
            cavities=(cs.Cavity(-0.3, -0.1, lay), cs.Cavity(0.1, 0.3, lay)),
            N=2, quad=cs.QuadratureConfig(panels=4)))
        cs.solve(spec)
        names = {s.name for s in rec.spans}
        assert {"assembly.build", "modal.tables", "quadrature.cross", "assembly.lu",
                "quadrature.cache_matrix", "moments.series", "special.kernel"} <= names
        assert layer_metrics(rec.spans, rec.spans[0].start, rec.spans[0].end)[
            "quadrature.cache_hit_ratio"] == 0.5  # the second, identical cavity hits
    finally:
        rec.uninstall()
    assert (assembly.build_system, postprocess.build_system, cs.build_system,
            assembly.cross_block_matrix, postprocess.build_modal_tables) == originals
