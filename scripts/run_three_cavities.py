#!/usr/bin/env python3
"""Three multi-layered cavities, both polarizations.

Geometry: [-0.6,-0.1] depth 0.1 (empty), [0,0.2] depth 0.5 with three layers
(kappa = pi, 2pi, 10pi split at y = -1/6 and -1/3), [0.3,0.6] depth 0.3 with
two layers (kappa = 1+0.5i and 0.5, split mid-depth).  Illumination
kappa0 = 2 pi at theta = pi/6.

Writes the solved aperture coefficients, a field map per cavity, and |u|
along each cavity diagonal (200 samples).

Usage: python scripts/run_three_cavities.py [outdir]
"""

import sys
from math import pi
from pathlib import Path

import cavityscat as cs
from cavityscat.postprocess import export_grid, write_csv

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results/three_cavities")
K0 = 2 * pi


def spec(polarization, N=90):
    c1 = cs.Cavity(-0.6, -0.1, (cs.Layer(0.0, -0.1, complex(K0)),))
    c2 = cs.Cavity(0.0, 0.2, (cs.Layer(0.0, -1 / 6, complex(pi)),
                              cs.Layer(-1 / 6, -1 / 3, complex(2 * pi)),
                              cs.Layer(-1 / 3, -0.5, complex(10 * pi))))
    c3 = cs.Cavity(0.3, 0.6, (cs.Layer(0.0, -0.15, 1.0 + 0.5j),
                              cs.Layer(-0.15, -0.3, 0.5 + 0j)))
    return cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(kappa0=K0, theta=pi / 6), polarization=polarization,
        cavities=(c1, c2, c3), N=N, quad=cs.QuadratureConfig(panels=64)))


def main():
    for pol in ("TM", "TE"):
        out = OUT / pol.lower()
        out.mkdir(parents=True, exist_ok=True)
        sp = spec(pol)
        cs.save_spec(sp, out / "spec.json")
        tables, sol = cs.solve(sp)
        print(f"{pol}: solved system of size {sol.layout.size} (rcond {sol.rcond:.2e})")
        traces = [cs.diagonal_trace(sp, tables, sol, k, samples=200) for k in range(3)]
        write_csv(out / "diagonal_traces.csv", ["cavity", "x", "y", "abs_u"],
                  ([k, x, y, abs(v)] for k, tr in enumerate(traces)
                   for x, y, v in zip(tr.x, tr.y, tr.values)))
        for k in range(3):
            fm = cs.field_grid(sp, tables, sol, k, 81, 61)
            export_grid(fm, out / f"field_cavity{k}.csv")
        print(f"  wrote diagonal traces and field maps -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
