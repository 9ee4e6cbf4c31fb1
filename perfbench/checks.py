"""Correctness checks on one job's outputs.

A job yields one record per linear solve: the solve's rcond and the output
values that depend on it (sigma for one backscatter angle, Q_E of both
cavities for one wavenumber, |u| of one polarization's traces and grids).  A
solve fails if any value is non-finite, if rcond < assembly.RCOND_WARN, or,
when a reference is given, if ||v_i - r_i|| > rtol * ||r|| with r the
workload's whole reference output (normwise relative error).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-9


def _norm(values) -> float:
    return math.sqrt(sum(float(v) * float(v) for v in values))


def check_solves(solves, rcond_min: float, reference=None, rtol: float = RTOL) -> list[str]:
    """solves: [(rcond, [values...]), ...].  Returns one problem string per failed solve."""
    problems = []
    if reference is not None:
        if len(reference) != len(solves):
            return [f"solve {i}: no matching reference output" for i in range(len(solves))]
        ref_norm = _norm(v for r in reference for v in r)
    for i, (rcond, values) in enumerate(solves):
        values = [float(v) for v in values]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"solve {i}: non-finite output")
        elif not rcond >= rcond_min:
            problems.append(f"solve {i}: rcond {rcond:.3e} below {rcond_min:.1e}")
        elif reference is not None:
            ref = reference[i]
            if len(ref) != len(values):
                problems.append(f"solve {i}: {len(values)} outputs, reference has {len(ref)}")
                continue
            err = _norm(v - r for v, r in zip(values, ref))
            if err > rtol * ref_norm:
                problems.append(f"solve {i}: normwise error {err / ref_norm:.3e} > {rtol:g}")
    return problems


def load_reference(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))["solves"]


def save_reference(path: Path, workload: str, solves) -> None:
    head = json.dumps({"workload": workload, "seed": 0, "rtol": RTOL})[:-1]
    rows = ",\n".join(json.dumps([float(v) for v in values]) for _, values in solves)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'{head}, "solves": [\n{rows}\n]}}\n', encoding="utf-8")
