"""The three benchmark workloads: the paper's own experiments, as inputs.

Each workload is a set of scenario files in the `cavityscat` JSON schema plus
the job parameters (CLI flags or library-call sizes).  The inputs are a pure
function of (workload, seed) and are generated here without importing
`cavityscat`, so the program under test receives only files.

Seed 0 reproduces the paper parameters exactly.  Any other seed jitters
material values, depths, gaps and incidence angles by a few percent, but never
a size: N, the panels, the sweep lengths, the grids and every aperture's
electrical size c = kappa0*w/(2*pi) stay fixed, so the Bessel truncation K,
the moment frequencies and the matrix sizes -- the work -- are the same for
every seed.
"""

from __future__ import annotations

import cmath
import json
import random
from math import pi
from pathlib import Path

DEFAULT_SEED = 0


def _quad(panels: int, points: int = 4) -> dict:
    return {"panels": panels, "points_per_panel": points, "bessel_K": 8, "lift_threshold": 11}


def _spec(polarization: str, kappa0: float, theta: float, N: int, quad: dict,
          cavities: list) -> dict:
    """Scenario dict; cavities are (a, b, [(y_bottom, kappa), ...])."""
    return {
        "schema": 1, "polarization": polarization, "kappa0": kappa0, "theta": theta,
        "N": N, "quadrature": quad,
        "cavities": [{"a": a, "b": b,
                      "layers": [{"y_bottom": yb, "kappa": [complex(k).real, complex(k).imag]}
                                 for yb, k in layers]}
                     for a, b, layers in cavities],
    }


class _Jitter:
    """Multiplicative jitter in [1 - rel, 1 + rel]; the identity for the default seed."""

    def __init__(self, workload: str, seed: int):
        self._rng = None if seed == DEFAULT_SEED else random.Random(f"{workload}:{seed}")

    def __call__(self, value: float, rel: float) -> float:
        if self._rng is None:
            return value
        return value * (1.0 + rel * (2.0 * self._rng.random() - 1.0))


def _rcs_lossy(j: _Jitter) -> dict:
    # TM backscatter of a lossy cavity: w = lambda, depth lambda/4 at
    # kappa0 = 32 pi, eps = 4 + i (mu = 1); N = 150, 96 panels x 10 points.
    k0 = 32 * pi
    lam = 2 * pi / k0
    eps = complex(j(4.0, 0.02), j(1.0, 0.05))
    kappa = cmath.sqrt(k0 * k0 * eps)
    spec = _spec("TM", k0, j(pi / 3, 0.05), 150, _quad(96, 10),
                 [(-lam / 2, lam / 2, [(-j(lam / 4, 0.02), kappa)])])
    return {"specs": {"spec": spec},
            "params": {"argv": ["rcs", "--angles", "181"], "output": "rcs.csv",
                       "column": "sigma", "solves": 181}}


def _enhance_pair(j: _Jitter) -> dict:
    # TE coupled pair: two w = 0.05, depth 1 cavities one width apart,
    # theta = -pi/9, N = 8, 24 panels; kappa0 swept over [1.35, 1.62].
    w = 0.05
    gap = j(0.05, 0.05)
    depth = j(1.0, 0.02)
    layers = [(-depth, 1.0)]
    spec = _spec("TE", 1.0, j(-pi / 9, 0.05), 8, _quad(24),
                 [(-gap / 2 - w, -gap / 2, layers), (gap / 2, gap / 2 + w, layers)])
    return {"specs": {"spec": spec},
            "params": {"argv": ["enhance", "--kappa-min", "1.35", "--kappa-max", "1.62",
                                "--kappa-steps", "361"],
                       "output": "enhancement.csv", "column": None, "solves": 361}}


def _three_cavity_fields(j: _Jitter) -> dict:
    # The three mixed-layer cavities at kappa0 = 2 pi, theta = pi/6, N = 90,
    # 64 panels; the same geometry in TM and in TE.
    k0 = 2 * pi
    theta = j(pi / 6, 0.05)
    cavities = [
        (-0.6, -0.1, [(-0.1, complex(j(k0, 0.01)))]),
        (0.0, 0.2, [(-1 / 6, complex(j(pi, 0.01))), (-1 / 3, complex(j(2 * pi, 0.01))),
                    (-0.5, complex(j(10 * pi, 0.01)))]),
        (0.3, 0.6, [(-0.15, complex(j(1.0, 0.01), j(0.5, 0.05))),
                    (-0.3, complex(j(0.5, 0.01)))]),
    ]
    specs = {pol: _spec(pol, k0, theta, 90, _quad(64), cavities) for pol in ("TM", "TE")}
    return {"specs": specs, "params": {"trace_samples": 200, "grid": [81, 61], "solves": 2}}


# BENCHMARK.json gates only rcs_lossy and enhance_pair: on a shared 2-vCPU host
# the speed drifts over minutes, so each run takes the longest time allowed
# (60 s), and the time allowed for all runs fits two workloads at that length.
# three_cavity_fields, the only workload that loads the field evaluator
# (postprocess.field_s), stays runnable by name.
_INPUTS = {
    "rcs_lossy": _rcs_lossy,
    "enhance_pair": _enhance_pair,
    "three_cavity_fields": _three_cavity_fields,
}
NAMES = tuple(_INPUTS)


def make_inputs(workload: str, seed: int) -> dict:
    """{"workload", "seed", "specs": {name: scenario dict}, "params": {...}}."""
    doc = _INPUTS[workload](_Jitter(workload, seed))
    return {"workload": workload, "seed": seed, **doc}


def write_inputs(workload: str, seed: int, directory: Path) -> Path:
    """Write one spec file per scenario and job.json; return job.json's path."""
    directory.mkdir(parents=True, exist_ok=True)
    doc = make_inputs(workload, seed)
    files = {}
    for name, spec in doc["specs"].items():
        files[name] = f"{name}.json"
        (directory / files[name]).write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n",
                                             encoding="utf-8")
    job = {"workload": workload, "seed": seed, "specs": files, "params": doc["params"]}
    path = directory / "job.json"
    path.write_text(json.dumps(job, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
