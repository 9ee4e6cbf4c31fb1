"""One benchmark job process.

    python3 perfbench/job.py MODE JOB_JSON WORK_DIR [REFERENCE_JSON]

Run from the root of a checkout, with PYTHONPATH pointing at its `src`.
Set-up is interpreter start, `import cavityscat` (and `cavityscat.cli` for the
CLI workloads) and loading and validating the scenario files; the process then
prints READY, which the parent times.  The modes:

    setup   stop after READY
    plain   the job cold (fresh moment tables), then twice again warm, untraced
    cold    the job cold only, untraced
    traced  the job cold, then warm, with every layer wrapped in spans
    record  the job cold, then write its outputs to REFERENCE_JSON

The result (timings, per-solve check outcome, counts, host facts) goes to
WORK_DIR/result.json.
"""

import json
import os
import sys
import time
from pathlib import Path


def _load(job_path: Path):
    job = json.loads(job_path.read_text(encoding="utf-8"))
    import cavityscat
    src = (Path.cwd() / "src").resolve()
    if Path(cavityscat.__file__).resolve().parent.parent != src:
        raise SystemExit(f"cavityscat imported from {cavityscat.__file__}, not from {src}")
    if "argv" in job["params"]:
        import cavityscat.cli  # noqa: F401  (a CLI user pays this import)
    specs = {name: cavityscat.load_spec(job_path.parent / f) for name, f in job["specs"].items()}
    return job, specs


# -- the jobs: run() is timed, outputs() turns what it produced into per-solve
#    records (rcond, values) outside the timed region


def _run_cli(job, specs, inputs: Path, out: Path):
    from cavityscat import cli
    argv = job["params"]["argv"]
    code = cli.main([argv[0], "--spec", str(inputs / job["specs"]["spec"]),
                     "--out", str(out)] + argv[1:])
    if code != 0:
        raise RuntimeError(f"cavityscat {argv[0]} exited with code {code}")


def _cli_outputs(job, result, out: Path, rconds):
    import csv
    with open(out / job["params"]["output"], newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    column = job["params"]["column"]
    if column is None:  # every column after the first is one output
        values = [[float(v) for v in list(r.values())[1:]] for r in rows]
    else:
        values = [[float(r[column])] for r in rows]
    if len(rconds) == 1:  # one factorization serves every right-hand side
        rconds = rconds * len(values)
    if len(rconds) != len(values):
        raise RuntimeError(f"{len(rconds)} factorizations for {len(values)} outputs")
    return list(zip(rconds, values))


def _run_fields(job, specs, inputs: Path, out: Path):
    import cavityscat as cs
    samples = job["params"]["trace_samples"]
    nx, ny = job["params"]["grid"]
    results = []
    for pol in ("TM", "TE"):
        spec = specs[pol]
        tables, sol = cs.solve(spec)
        traces = [cs.diagonal_trace(spec, tables, sol, k, samples=samples) for k in range(spec.K)]
        grids = [cs.field_grid(spec, tables, sol, k, nx, ny) for k in range(spec.K)]
        results.append((sol, traces, grids))
    return results


# Every GRID_STRIDE-th row and column of each field grid is checked against the
# reference (the full grids would make the reference files ~20x larger).
GRID_STRIDE = 4


def _field_outputs(job, results, out: Path, rconds):
    import numpy as np
    nx, ny = job["params"]["grid"]
    solves = []
    for sol, traces, grids in results:
        parts = [np.abs(t.values) for t in traces]
        parts += [np.abs(g.values).reshape(ny, nx)[::GRID_STRIDE, ::GRID_STRIDE].ravel()
                  for g in grids]
        solves.append((sol.rcond, np.concatenate(parts).tolist()))
    return solves


def _jobs(job):
    if "argv" in job["params"]:
        return _run_cli, _cli_outputs
    return _run_fields, _field_outputs


def _rcond_probe():
    """Record the rcond of every factorization (the CLI does not report it)."""
    from cavityscat import assembly
    rconds = []
    init = assembly.SystemFactorization.__init__

    def probed(self, system):
        init(self, system)
        rconds.append(self.rcond)

    assembly.SystemFactorization.__init__ = probed
    return rconds


def _host() -> dict:
    import platform

    import mpmath
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _counts(specs) -> dict:
    """Deterministic sizes from the public API, per scenario file."""
    from math import pi

    from cavityscat.assembly import ModeLayout
    from cavityscat.quadrature import bessel_truncation
    return {name: {"bessel_K": [bessel_truncation(s.wave.kappa0 * c.w / (2 * pi), s.quad)
                                for c in s.cavities],
                   "size": ModeLayout(s.polarization, s.N, s.K).size}
            for name, s in specs.items()}


def main(argv) -> int:
    mode, job_path, work = argv[1], Path(argv[2]), Path(argv[3])
    job, specs = _load(job_path)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    import resource

    from cavityscat import assembly
    from checks import check_solves, load_reference, save_reference

    run, outputs = _jobs(job)
    rconds = _rcond_probe()
    reference = None
    ref_path = Path(argv[4]) if len(argv) > 4 else None
    if mode != "record" and ref_path is not None:
        reference = load_reference(ref_path)
    recorder = None
    if mode == "traced":
        from layers import TARGETS, layer_metrics
        from spans import SpanRecorder
        recorder = SpanRecorder()
        recorder.install("cavityscat", [t for t in TARGETS
                                        if f"cavityscat.{t[0]}" in sys.modules])

    passes = {"cold": ["cold"], "record": ["cold"], "traced": ["cold", "warm"],
              "plain": ["cold", "warm", "warm"]}[mode]
    expected = job["params"]["solves"]
    res = {"mode": mode, "workload": job["workload"], "seed": job["seed"],
           "attempted": 0, "failed": 0, "problems": [], "times": {}, "layers": {}}
    for i, name in enumerate(passes):
        out = work / f"{i}-{name}"
        out.mkdir(parents=True, exist_ok=True)
        rconds.clear()
        if recorder is not None:
            recorder.clear()
        res["attempted"] += expected
        try:
            t0 = time.perf_counter()
            produced = run(job, specs, job_path.parent, out)
            t1 = time.perf_counter()
            solves = outputs(job, produced, out, list(rconds))
        except Exception as exc:  # a failed job counts every solve as failed
            res["failed"] += expected
            res["problems"].append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        if mode == "record":
            save_reference(ref_path, job["workload"], solves)
        problems = check_solves(solves, assembly.RCOND_WARN, reference)
        if len(solves) != expected:
            problems.append(f"{len(solves)} solves, expected {expected}")
        res["failed"] += min(expected, len(problems))
        res["problems"] += [f"{name}: {p}" for p in problems[:5]]
        res["times"].setdefault(name, []).append(t1 - t0)
        if recorder is not None:
            res["layers"][name] = layer_metrics(recorder.spans, t0, t1)
    if recorder is not None:
        recorder.uninstall()
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res["host"] = _host()
    res["counts"] = _counts(specs)
    (work / "result.json").write_text(json.dumps(res), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
