"""The names the benchmark in `perfbench/` reads from the package.

`perfbench/layers.py::TARGETS` lists the functions and methods a traced run
wraps, `perfbench/job.py` counts sizes with `quadrature.bessel_truncation`
and `assembly.ModeLayout`, and probes `SystemFactorization.rcond`.  A rename
or removal in `cavityscat` would break those runs without failing any other
test; these tests pin the names without importing the harness's job code."""

import importlib
from pathlib import Path

import numpy as np

from cavityscat import _moments, assembly, quadrature
from cavityscat.model import QuadratureConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for modname, attr, _, _ in layers.TARGETS:
        owner = importlib.import_module(f"cavityscat.{modname}")
        if "." in attr:  # wrapped through the class's own __dict__
            cls_name, meth = attr.split(".")
            assert callable(getattr(owner, cls_name).__dict__.get(meth)), (modname, attr)
        else:
            assert callable(getattr(owner, attr, None)), (modname, attr)


def test_size_counters_and_rcond_probe_names():
    K = quadrature.bessel_truncation(1.0, QuadratureConfig())
    assert isinstance(K, int) and K >= _moments.BESSEL_K_FLOOR
    assert assembly.ModeLayout("TE", 4, 2).size == 10
    layout = assembly.ModeLayout("TM", 2, 1)
    system = assembly.ApertureSystem(lhs=np.diag([2.0 + 0j, 4.0]), rhs=np.ones(2, complex),
                                     layout=layout)
    assert assembly.SystemFactorization(system).rcond == 0.5
