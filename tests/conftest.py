import cmath

import numpy as np
import pytest
from math import pi

import cavityscat as cs
from cavityscat.modal import _cexpm1
from cavityscat.model import QuadratureConfig


def example1_spec(polarization: str, N: int = 30, panels: int = 32) -> cs.ProblemSpec:
    """Single empty cavity [-0.5, 0.5], depth 1.5, kappa0 = 1.5, theta = pi/9."""
    return cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(kappa0=1.5, theta=pi / 9),
        polarization=polarization,
        cavities=(cs.Cavity(a=-0.5, b=0.5, layers=(cs.Layer(0.0, -1.5, 1.5 + 0j),)),),
        N=N, quad=QuadratureConfig(panels=panels)))


def example4_spec(polarization: str, N: int = 36, panels: int = 48,
                  kappa0: float = 2 * pi, theta: float = pi / 6) -> cs.ProblemSpec:
    """Three cavities: empty / three layers (pi, 2pi, 10pi) / two layers (lossy, 0.5)."""
    c1 = cs.Cavity(-0.6, -0.1, (cs.Layer(0.0, -0.1, complex(kappa0)),))
    c2 = cs.Cavity(0.0, 0.2, (cs.Layer(0.0, -1 / 6, complex(pi)),
                              cs.Layer(-1 / 6, -1 / 3, complex(2 * pi)),
                              cs.Layer(-1 / 3, -0.5, complex(10 * pi))))
    c3 = cs.Cavity(0.3, 0.6, (cs.Layer(0.0, -0.15, 1.0 + 0.5j),
                              cs.Layer(-0.15, -0.3, 0.5 + 0j)))
    return cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(kappa0=kappa0, theta=theta), polarization=polarization,
        cavities=(c1, c2, c3), N=N, quad=QuadratureConfig(panels=panels)))


def two_layer_spec(polarization: str, N: int = 16, panels: int = 32) -> cs.ProblemSpec:
    return cs.validate(cs.ProblemSpec(
        wave=cs.IncidentWave(kappa0=1.5, theta=pi / 9), polarization=polarization,
        cavities=(cs.Cavity(a=-0.5, b=0.5, layers=(
            cs.Layer(0.0, -0.7, 1.5 + 0j), cs.Layer(-0.7, -1.5, 3.0 + 0.5j))),),
        N=N, quad=QuadratureConfig(panels=panels)))


@pytest.fixture(scope="session")
def tm_two_layer():
    spec = two_layer_spec("TM")
    tables, sol = cs.solve(spec)
    return spec, tables, sol


@pytest.fixture(scope="session")
def te_two_layer():
    spec = two_layer_spec("TE")
    tables, sol = cs.solve(spec)
    return spec, tables, sol


@pytest.fixture(scope="session")
def tm_example1():
    spec = example1_spec("TM")
    tables, sol = cs.solve(spec)
    return spec, tables, sol


def rel_err(a, b) -> float:
    b = complex(b)
    return abs(complex(a) - b) / (abs(b) if b != 0 else 1.0)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def scalar_aperture_phase(alpha: float, cav, m: int, kind: str) -> complex:
    """e^{i alpha a} I_0^w e^{i alpha x} trig(m pi x/w) dx for one alpha and
    one mode: the scalar closed form, half the difference (sin) or sum (cos)
    of (e^{i p w} - 1)/(i p) at p = alpha +- m pi/w, w at p = 0, with the
    hand-written expm1 series.  Reference for the array builder."""
    def phase(p):
        return complex(cav.w) if p == 0.0 else _cexpm1(1j * p * cav.w) / (1j * p)

    mu = m * pi / cav.w
    ip, im = phase(alpha + mu), phase(alpha - mu)
    trig = (ip - im) / 2j if kind == "sin" else (ip + im) / 2.0
    return cmath.exp(1j * alpha * cav.a) * trig
