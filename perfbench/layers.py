"""Which public functions are traced, and how their spans become per-layer metrics.

Span names carry the layer (package module) they belong to.  Self time is
attributed to the span's own layer, so the layers partition the traced job:
the log series and the grid kernels are children of the singular-block span,
the Hankel kernel is a child of the cross-block span, and so on.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Span, root_coverage, self_times


def _size(x, *args, **kwargs) -> int:
    return int(getattr(x, "size", 1))


def _series_terms(kind, n, m, c, K) -> int:
    return K + 1


def _block_entries(modes_m, modes_n, *args, **kwargs) -> int:
    return len(modes_m) * len(modes_n)


def _cross_entries(cav_k, cav_j, modes_m, modes_n, *args, **kwargs) -> int:
    return len(modes_m) * len(modes_n)


def _matrix_order(self, sys) -> int:
    return int(sys.lhs.shape[0])


def _solve_flops(self, rhs) -> int:
    # forward and back substitution: 8 real flops per complex multiply-add
    return 8 * int(rhs.shape[0]) * int(rhs.size)


def _grid_points(spec, tables, solution, k, nx, ny) -> int:
    return nx * ny


def _none(*args, **kwargs) -> int:
    return 0


# (module, attribute, span name, work count from the call's arguments)
TARGETS = [
    ("_moments", "log_series_sum", "moments.series", _series_terms),
    ("special", "regularized_kernel_abs", "special.kernel", _size),
    ("special", "j0_series_remainder", "special.kernel", _size),
    ("special", "hankel1_0", "special.kernel", _size),
    ("quadrature", "singular_block_matrix", "quadrature.singular", _block_entries),
    ("quadrature", "SingularBlockCache.matrix", "quadrature.cache_matrix", None),
    ("quadrature", "SingularBlockCache.populate", "quadrature.cache_populate", None),
    ("quadrature", "cross_block_matrix", "quadrature.cross", _cross_entries),
    ("modal", "build_modal_tables", "modal.tables", None),
    ("assembly", "build_system", "assembly.build", None),
    ("assembly", "solve", "assembly.build", None),
    ("assembly", "solve_system", "assembly.build", None),
    ("assembly", "SystemFactorization.__init__", "assembly.lu", _matrix_order),
    ("assembly", "SystemFactorization.solve", "assembly.lu_solve", _solve_flops),
    ("postprocess", "field_at", "postprocess.field", None),
    ("postprocess", "field_grid", "postprocess.field", _grid_points),
    ("postprocess", "diagonal_trace", "postprocess.field", _none),  # points via field_at
    ("postprocess", "enhancement", "postprocess.enhancement", None),
    ("postprocess", "backscatter_sweep", "postprocess.rcs", None),
    ("postprocess", "export_grid", "postprocess.export", None),
    ("postprocess", "export_sweep", "postprocess.export", None),
    ("postprocess", "export_enhancement", "postprocess.export", None),
    ("model", "load_spec", "model.spec", None),
    ("model", "validate", "model.spec", None),
    ("cli", "main", "cli", None),
]

# Per-layer metrics -> unit; the order is the order of BENCHMARK.json.
UNITS = {
    "moments.series_s": "s", "moments.series_calls": "count",
    "moments.series_terms": "count", "moments.table_fill_s": "s",
    "special.kernel_s": "s", "special.kernel_evals": "count",
    "quadrature.singular_s": "s", "quadrature.singular_calls": "count",
    "quadrature.block_entries": "count", "quadrature.cache_hit_ratio": "ratio",
    "quadrature.bessel_K_max": "count",
    "quadrature.cross_s": "s", "quadrature.cross_calls": "count",
    "modal.tables_s": "s", "modal.tables_calls": "count",
    "assembly.build_s": "s", "assembly.lu_s": "s", "assembly.lu_calls": "count",
    "assembly.lu_solve_s": "s", "assembly.lu_solve_calls": "count",
    "assembly.size": "count", "assembly.lu_flops_computed": "flop",
    "postprocess.field_s": "s", "postprocess.field_points": "count",
    "postprocess.enhancement_s": "s", "postprocess.enhancement_calls": "count",
    "postprocess.rcs_s": "s", "postprocess.export_s": "s",
    "model.spec_s": "s", "cli.self_s": "s",
    "trace.job_s": "s", "trace.unattributed_s": "s", "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], start: float, end: float) -> dict:
    """Per-layer metrics of one traced job that ran from start to end."""
    own = self_times(spans)
    busy = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    for s, t in zip(spans, own):
        busy[s.name] += t
        calls[s.name] += 1
        work[s.name] += s.work
    # a cache read served without a populate child is a hit
    missed = {s.parent for s in spans if s.name == "quadrature.cache_populate"}
    reads = [i for i, s in enumerate(spans) if s.name == "quadrature.cache_matrix"]
    hits = sum(1 for i in reads if i not in missed)
    lu = [s.work for s in spans if s.name == "assembly.lu"]
    # complex LU: n^3/3 multiply-adds of 8 real flops each
    flops = sum(8 * n ** 3 // 3 for n in lu) + work["assembly.lu_solve"]
    covered = root_coverage(spans, start, end)
    job = end - start
    return {
        "moments.series_s": busy["moments.series"],
        "moments.series_calls": calls["moments.series"],
        "moments.series_terms": work["moments.series"],
        "special.kernel_s": busy["special.kernel"],
        "special.kernel_evals": work["special.kernel"],
        # the block cache's own bookkeeping is singular-block work too
        "quadrature.singular_s": (busy["quadrature.singular"] + busy["quadrature.cache_matrix"]
                                  + busy["quadrature.cache_populate"]),
        "quadrature.singular_calls": calls["quadrature.singular"],
        "quadrature.block_entries": work["quadrature.singular"],
        "quadrature.cache_hit_ratio": hits / len(reads) if reads else 0.0,
        "quadrature.bessel_K_max": max((s.work - 1 for s in spans if s.name == "moments.series"),
                                       default=0),
        "quadrature.cross_s": busy["quadrature.cross"],
        "quadrature.cross_calls": calls["quadrature.cross"],
        "modal.tables_s": busy["modal.tables"],
        "modal.tables_calls": calls["modal.tables"],
        "assembly.build_s": busy["assembly.build"],
        "assembly.lu_s": busy["assembly.lu"],
        "assembly.lu_calls": calls["assembly.lu"],
        "assembly.lu_solve_s": busy["assembly.lu_solve"],
        "assembly.lu_solve_calls": calls["assembly.lu_solve"],
        "assembly.size": max(lu, default=0),
        "assembly.lu_flops_computed": flops,
        "postprocess.field_s": busy["postprocess.field"],
        "postprocess.field_points": work["postprocess.field"],
        "postprocess.enhancement_s": busy["postprocess.enhancement"],
        "postprocess.enhancement_calls": calls["postprocess.enhancement"],
        "postprocess.rcs_s": busy["postprocess.rcs"],
        "postprocess.export_s": busy["postprocess.export"],
        "model.spec_s": busy["model.spec"],
        "cli.self_s": busy["cli"],
        "trace.job_s": job,
        "trace.unattributed_s": job - covered,
        "trace.coverage": covered / job if job > 0 else 0.0,
    }
