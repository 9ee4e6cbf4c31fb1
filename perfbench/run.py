#!/usr/bin/env python3
"""cavityscat benchmark: the paper's experiments as fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A single closed-loop client starts one job
at a time, each in a fresh Python process (perfbench/job.py) importing the
checkout's `src`, with BLAS and OpenMP pinned to one thread.  It keeps
starting cold-and-warm job processes while the next one still fits in S
seconds (at least one), then fills the rest with cold-only job processes.

--trace 0 reports the end-to-end metrics, untraced:
    job_s        the job with cold moment tables, what a CLI user pays
    rerun_s      the same job again in that process, warm process caches
                 (twice per cold-and-warm process)
    setup_s      interpreter start, import, spec load and validation
                 (a set-up-only process before each cold-and-warm one adds samples)
    peak_rss_mb  peak resident memory of a cold-and-warm job process
--trace 1 reports the per-layer metrics of perfbench/layers.py from traced
jobs, plus trace.overhead_s against untraced cold jobs run alongside.

Every solve's outputs are checked (perfbench/checks.py); on the default seed
also against perfbench/reference/<workload>.json, recorded with
`python3 perfbench/run.py --workload NAME --record`.  The last line of
standard output is the JSON result; the lines before it give every metric
with its unit, the failed fraction of solves, the samples and a host record.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import UNITS  # noqa: E402
from workloads import DEFAULT_SEED, NAMES, write_inputs  # noqa: E402

END_TO_END = {"job_s": "s", "rerun_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
HARD_LIMIT_S = 170.0  # every run ends within the 180 s a run may take


class JobError(RuntimeError):
    pass


def _spawn(mode: str, job: Path, work: Path, deadline: float, reference: Path | None) -> dict:
    """Run one job process to completion; its result with setup_s and wall_s."""
    # set-up imports from cached bytecode, as an installed package does,
    # whatever the caller's PYTHONDONTWRITEBYTECODE
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(Path.cwd() / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "job.py"), mode, str(job), str(work)]
    if reference is not None:
        cmd.append(str(reference))
    work.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
        line = proc.stdout.readline() if ready else ""
        t_ready = time.perf_counter()
        _, err = proc.communicate(timeout=max(0.0, deadline - t_ready))
    except subprocess.TimeoutExpired:
        raise JobError(f"{mode} job did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    if line.strip() != "READY" or proc.returncode != 0:
        raise JobError(f"{mode} job exited with code {proc.returncode}: {err.strip()[-2000:]}")
    res = {} if mode == "setup" else json.loads((work / "result.json").read_text("utf-8"))
    shutil.rmtree(work)
    res.update(setup_s=t_ready - t0, wall_s=wall)
    return res


def _median(values):
    return statistics.median(values) if values else 0.0


def _measure(args, job: Path, scratch: Path, reference: Path | None) -> tuple[dict, dict]:
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    counter = itertools.count()

    def spawn(mode):
        return _spawn(mode, job, scratch / f"p{next(counter)}", deadline, reference)

    def fits(batch_s: float) -> bool:
        return time.perf_counter() - start + batch_s <= args.seconds

    setups, procs, traced = [], [], []
    if args.trace:
        while True:  # untraced cold job, then traced cold and warm job
            t = time.perf_counter()
            procs.append(spawn("cold"))
            traced.append(spawn("traced"))
            if not fits(time.perf_counter() - t):
                break
    else:
        while True:  # set-up-only processes spread set-up samples over the run
            t = time.perf_counter()
            setups.append(spawn("setup")["setup_s"])
            procs.append(spawn("plain"))
            setups.append(procs[-1]["setup_s"])
            if not fits(time.perf_counter() - t):
                break
        # the time a further cold-and-warm process would not fit in goes to cold jobs
        cold_s = procs[-1]["wall_s"] - sum(procs[-1]["times"].get("warm", []))
        while fits(cold_s):
            procs.append(spawn("cold"))
            setups.append(procs[-1]["setup_s"])

    ran = procs + traced
    samples = {"job_s": [t for p in procs for t in p["times"].get("cold", [])]}
    if args.trace:
        cold = [t["layers"]["cold"] for t in traced if "cold" in t["layers"]]
        warm = [t["layers"]["warm"] for t in traced if "warm" in t["layers"]]
        metrics = {m: _median([c[m] for c in cold if m in c]) for m in UNITS}
        metrics["moments.table_fill_s"] = _median(
            [c["moments.series_s"] - w["moments.series_s"] for c, w in zip(cold, warm)])
        metrics["trace.overhead_s"] = (metrics["trace.job_s"] - _median(samples["job_s"]))
        units = UNITS
    else:
        samples.update(rerun_s=[t for p in procs for t in p["times"].get("warm", [])],
                       setup_s=setups,
                       peak_rss_mb=[p["peak_rss_mb"] for p in procs if p["mode"] == "plain"])
        metrics = {m: _median(samples[m]) for m in END_TO_END}
        units = END_TO_END
    attempted = sum(p["attempted"] for p in ran)
    failed = sum(p["failed"] for p in ran)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "host": ran[0]["host"],
        "processes": len(ran), "samples": samples,
        "failed_frac": failed / attempted, "problems": [q for p in ran for q in p["problems"]],
        "counts": ran[0]["counts"], "wall_s": time.perf_counter() - start,
    }
    result = {"correct": failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write the reference outputs of the default seed and exit")
    args = ap.parse_args(argv)
    if not (Path.cwd() / "src" / "cavityscat" / "__init__.py").is_file():
        print("error: run from the root of a cavityscat checkout (no src/cavityscat)",
              file=sys.stderr)
        return 2
    reference = HERE / "reference" / f"{args.workload}.json"
    scratch = Path.cwd() / ".bench_run" / str(os.getpid())
    try:
        job = write_inputs(args.workload, DEFAULT_SEED if args.record else args.seed,
                           scratch / "inputs")
        if args.record:
            res = _spawn("record", job, scratch / "record", time.perf_counter() + HARD_LIMIT_S,
                         reference)
            print(f"recorded {reference} ({res['failed']} failed solves)")
            return 1 if res["failed"] else 0
        result, record = _measure(args, job, scratch,
                                  reference if args.seed == DEFAULT_SEED else None)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for name, m in result["metrics"].items():
        print(f"{args.workload:>20} {name:<32} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:>20} {'failed_frac':<32} {record['failed_frac']:.6g} "
          f"({result['failed']}/{result['attempted']} solves)")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
