"""Aperture linear systems: diagonal impedance blocks, kernel blocks,
incident-wave vectors, and the dense solve."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import pi

import numpy as np
import scipy.linalg as sla

from .errors import SingularSystemError
from .modal import ModalTables, build_modal_tables, mode_numbers
from .model import Cavity, ProblemSpec
from .quadrature import SingularBlockCache, cross_block_matrix

RCOND_WARN = 1e-14


@dataclass(frozen=True)
class ModeLayout:
    polarization: str
    N: int
    K: int

    @property
    def modes(self) -> range:
        return mode_numbers(self.polarization, self.N)

    @property
    def block(self) -> int:
        return len(self.modes)

    @property
    def size(self) -> int:
        return self.K * self.block

    def block_slice(self, k: int) -> slice:
        return slice(k * self.block, (k + 1) * self.block)


@dataclass
class ApertureSystem:
    lhs: np.ndarray
    rhs: np.ndarray
    layout: ModeLayout


@dataclass
class ApertureSolution:
    """Aperture Fourier coefficients per cavity, plus solver diagnostics."""

    coefficients: tuple[np.ndarray, ...]
    layout: ModeLayout
    rcond: float
    diagnostics: list = field(default_factory=list)

    def coefficient(self, k: int, n: int) -> complex:
        return complex(self.coefficients[k][n - self.layout.modes.start])


def aperture_phases(alphas, cav: Cavity, modes, kind: str) -> np.ndarray:
    """e^{i alpha a} I_0^w e^{i alpha x} trig(m pi x/w) dx, trig = sin or cos,
    for every alpha (rows) and mode m (columns), in closed form.

    With mu = m pi/w the integral is half the difference (sin) or sum (cos)
    of (e^{i p w} - 1)/(i p) at p = alpha + mu and alpha - mu, taken as w at
    p = 0: the degenerate directions alpha = +-mu need no separate formula.
    This is the TM/TE incident vector (times -2 i beta or 2) and the TM
    far-field weight of every aperture coefficient.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    mu = np.asarray(modes, dtype=float) * pi / cav.w

    def phase(p):
        zero = p == 0.0
        ps = np.where(zero, 1.0, p)
        return np.where(zero, cav.w, np.expm1(1j * ps * cav.w) / (1j * ps))

    ip = phase(alphas[:, None] + mu)
    im = phase(alphas[:, None] - mu)
    trig = (ip - im) / 2j if kind == "sin" else (ip + im) / 2.0
    return np.exp(1j * alphas * cav.a)[:, None] * trig


def _tm_diag_block(spec: ProblemSpec, cache: SingularBlockCache, k: int) -> np.ndarray:
    cav = spec.cavities[k]
    k0 = spec.wave.kappa0
    w = cav.w
    c = k0 * w / (2.0 * pi)
    modes = np.array(mode_numbers("TM", spec.N))
    sin_b = cache.matrix("sin", modes, c)
    cos_b = cache.matrix("cos", modes, c)
    scale = (w / (2.0 * pi)) ** 2
    mn = modes[:, None] * modes[None, :]
    return (0.5j * k0 * k0 * scale * sin_b
            - 0.5j * mn * pi * pi / (w * w) * scale * cos_b)


def _tm_cross_block(spec: ProblemSpec, k: int, j: int) -> np.ndarray:
    cav_k, cav_j = spec.cavities[k], spec.cavities[j]
    k0 = spec.wave.kappa0
    modes = np.array(mode_numbers("TM", spec.N))
    ss = cross_block_matrix(cav_k, cav_j, modes, modes, k0, "sin", spec.quad)
    cc = cross_block_matrix(cav_k, cav_j, modes, modes, k0, "cos", spec.quad)
    mn = modes[:, None] * modes[None, :]
    return 0.5j * k0 * k0 * ss - 0.5j * mn * pi * pi / (cav_j.w * cav_k.w) * cc


def build_system(spec: ProblemSpec, tables: ModalTables | None = None,
                 cache: SingularBlockCache | None = None) -> ApertureSystem:
    """Assemble (D - M) U = F (TM) or (D_hat - M_hat) U = G (TE)."""
    tables = tables or build_modal_tables(spec)
    cache = cache or SingularBlockCache(spec.quad)
    layout = ModeLayout(spec.polarization, spec.N, spec.K)
    size = layout.size
    lhs = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    k0 = spec.wave.kappa0
    wave = spec.wave

    # Block (j, k) of a cavity pair is the transpose of block (k, j): both
    # integrate the same graded grids against the symmetric kernel, so each
    # pair is integrated once.
    pairs = itertools.combinations(range(spec.K), 2)
    if spec.polarization == "TM":
        for k, cav in enumerate(spec.cavities):
            sl = layout.block_slice(k)
            imped = np.array([tables.connection(k, n).impedance for n in layout.modes])
            lhs[sl, sl] = np.diag(0.5 * cav.w * imped) - _tm_diag_block(spec, cache, k)
            # F_k(m) = -2 i beta I_0^w e^{i alpha (x + a)} sin(m pi x/w) dx
            rhs[sl] = -2j * wave.beta * aperture_phases(wave.alpha, cav, layout.modes, "sin")[0]
        for k, j in pairs:
            cross = _tm_cross_block(spec, k, j)
            lhs[layout.block_slice(k), layout.block_slice(j)] = -cross
            lhs[layout.block_slice(j), layout.block_slice(k)] = -cross.T
    else:
        modes = np.array(layout.modes)
        t_hats = []
        for k, cav in enumerate(spec.cavities):
            sl = layout.block_slice(k)
            c = k0 * cav.w / (2.0 * pi)
            cos_b = cache.matrix("cos", modes, c)
            t_hat = np.array([tables.connection(k, n).impedance for n in layout.modes])
            t_hats.append(t_hat)
            mhat = (-0.5j) * (cav.w / (2.0 * pi)) ** 2 * cos_b * t_hat[None, :]
            dvec = np.full(layout.block, 0.5 * cav.w)
            dvec[0] = cav.w
            lhs[sl, sl] = np.diag(dvec) - mhat
            # G_k(m) = 2 I_0^w e^{i alpha (x + a)} cos(m pi x/w) dx
            rhs[sl] = 2.0 * aperture_phases(wave.alpha, cav, layout.modes, "cos")[0]
        for k, j in pairs:
            cc = cross_block_matrix(spec.cavities[k], spec.cavities[j], modes, modes, k0,
                                    "cos", spec.quad)
            # -M_hat_{k,j} and -M_hat_{j,k}
            lhs[layout.block_slice(k), layout.block_slice(j)] = 0.5j * cc * t_hats[j][None, :]
            lhs[layout.block_slice(j), layout.block_slice(k)] = 0.5j * cc.T * t_hats[k][None, :]

    if not np.all(np.isfinite(lhs)):
        raise SingularSystemError("assembled matrix contains non-finite entries")
    return ApertureSystem(lhs=lhs, rhs=rhs, layout=layout)


class SystemFactorization:
    """LU factorization of an aperture matrix, reusable across right-hand sides."""

    def __init__(self, sys: ApertureSystem):
        self.layout = sys.layout
        try:
            self._lu, self._piv = sla.lu_factor(sys.lhs)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise SingularSystemError(f"LU factorization failed: {exc}") from exc
        if not np.all(np.isfinite(self._lu)):
            raise SingularSystemError("system singular: non-finite LU factors")
        anorm = np.linalg.norm(sys.lhs, 1)
        gecon = sla.get_lapack_funcs("gecon", (self._lu,))
        self.rcond, info = gecon(self._lu, anorm, norm="1")
        self.rcond = float(self.rcond)
        if info != 0 or self.rcond == 0.0:
            raise SingularSystemError(f"system singular (rcond = {self.rcond:g})")

    def solve(self, rhs: np.ndarray) -> ApertureSolution:
        """Solve for one right-hand side, or for one per column of a matrix;
        then every coefficient array keeps that column axis."""
        x = sla.lu_solve((self._lu, self._piv), rhs)
        lay = self.layout
        coeffs = tuple(x[lay.block_slice(k)].copy() for k in range(lay.K))
        diags = []
        if self.rcond < RCOND_WARN:
            diags.append(f"ill-conditioned system: rcond = {self.rcond:.3e}")
        return ApertureSolution(coefficients=coeffs, layout=lay, rcond=self.rcond,
                                diagnostics=diags)


def solve_system(sys: ApertureSystem) -> ApertureSolution:
    """Dense LU with partial pivoting; attaches the 1-norm rcond estimate."""
    return SystemFactorization(sys).solve(sys.rhs)


def solve(spec: ProblemSpec):
    """Convenience end-to-end solve; returns (tables, solution)."""
    tables = build_modal_tables(spec)
    cache = SingularBlockCache(spec.quad)
    solution = solve_system(build_system(spec, tables, cache))
    return tables, solution
