"""Aperture linear systems: D - M from whole-system kernel matrices, the
aperture phases behind the incident vectors, and the dense solve (numpy
only).

A wavenumber sweep (one spec and an array of kappa0, read from its modal
tables) is assembled as one stack of systems, (wavenumbers x size x size);
each of its systems is then factored and solved on its own."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import cos, pi, sin

import numpy as np

from .errors import SingularSystemError, ValidationError
from .modal import ModalTables, build_modal_tables, mode_norms, mode_numbers
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
    backward_error: float | None = None  # of the solve that produced the coefficients

    def coefficient(self, k: int, n: int) -> complex:
        """Coefficient of mode n in cavity k; raises ValidationError outside the layout."""
        if not (0 <= k < self.layout.K and n in self.layout.modes):
            raise ValidationError("coefficient", f"no mode {n} in cavity {k} of {self.layout}")
        return complex(self.coefficients[k][n - self.layout.modes.start])


def aperture_phases(alphas, cav: Cavity, modes, kind: str, out=None) -> np.ndarray:
    """e^{i alpha a} I_0^w e^{i alpha x} trig(m pi x/w) dx, trig = sin or cos,
    for every alpha (rows) and mode m (columns), in closed form; written
    into out (a complex view of that shape) when given.

    With mu = m pi/w the integral is half the difference (sin) or sum (cos)
    of (e^{i p w} - 1)/(i p) = (sin t + 2i sin^2(t/2))/p, t = p w, at
    p = alpha + mu and alpha - mu, taken as w at p = 0: the degenerate
    directions alpha = +-mu need no separate formula.  The real sines are
    summed into the halves of out in place.  This is the TM/TE incident
    vector (times -2 i beta or 2) and the TM far-field weight of every
    aperture coefficient.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    mu = np.asarray(modes, dtype=float) * pi / cav.w
    if out is None:
        out = np.empty((alphas.size, mu.size), dtype=complex)
    out[...] = 0.0
    # S = sin(t)/p and C = 2 sin^2(t/2)/p over p = alpha +- mu: sin takes
    # (C+ - C-)/2 - i (S+ - S-)/2, cos (S+ + S-)/2 + i (C+ + C-)/2
    s_half, c_half = (out.imag, out.real) if kind == "sin" else (out.real, out.imag)
    p, term = np.empty(out.shape), np.empty(out.shape)
    for sign in (1.0, -1.0):
        s_add, c_add = (sign < 0, sign > 0) if kind == "sin" else (True, True)
        np.add(alphas[:, None], sign * mu, out=p)
        zero = p == 0.0
        p[zero] = 1.0
        np.multiply(p, cav.w, out=term)
        np.sin(term, out=term)
        term /= p
        term[zero] = cav.w
        (np.add if s_add else np.subtract)(s_half, term, out=s_half)
        np.multiply(p, 0.5 * cav.w, out=term)
        np.sin(term, out=term)
        np.square(term, out=term)
        term *= 2.0
        term /= p
        term[zero] = 0.0
        (np.add if c_add else np.subtract)(c_half, term, out=c_half)
    out *= 0.5
    out *= np.exp(1j * alphas * cav.a)[:, None]
    return out


def system_phases(spec: ProblemSpec, alphas) -> np.ndarray:
    """`aperture_phases` of every cavity side by side (sin for TM, cos for TE):
    one row per alpha, one column per aperture coefficient in system order."""
    kind = "sin" if spec.polarization == "TM" else "cos"
    modes = mode_numbers(spec.polarization, spec.N)
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    out = np.empty((alphas.size, spec.K * len(modes)), dtype=complex)
    for k, cav in enumerate(spec.cavities):
        aperture_phases(alphas, cav, modes, kind, out[:, k * len(modes):(k + 1) * len(modes)])
    return out


def _kernel_matrices(spec: ProblemSpec, k0: np.ndarray, cache: SingularBlockCache,
                     layout: ModeLayout, kinds: tuple) -> list:
    """G[kind] for each of kinds: I I trig_i(x) H0^(1)(kappa0 |x - y|) trig_j(y) dy dx
    over the apertures for every pair of aperture coefficients i, j in system
    order, trig_i(x) = trig(n pi (x - a)/w) for the mode n and cavity of i;
    one matrix per wavenumber k0 of a sweep.  Diagonal blocks are the weakly
    singular blocks scaled by (w/2pi)^2; the kernel is symmetric, so each
    cavity pair is integrated once: block (j, k) = (k, j)^T.  The kinds share
    each block's kernel evaluation."""
    modes = np.array(layout.modes)
    G = [np.empty(k0.shape + (layout.size, layout.size), dtype=complex) for _ in kinds]
    for k, cav in enumerate(spec.cavities):
        sl = layout.block_slice(k)
        blocks = cache.matrix(kinds, modes, k0 * cav.w / (2.0 * pi))
        for g, block in zip(G, blocks):
            g[..., sl, sl] = (cav.w / (2.0 * pi)) ** 2 * block
    for k, j in itertools.combinations(range(spec.K), 2):
        cross = cross_block_matrix(spec.cavities[k], spec.cavities[j], modes, modes, k0, kinds,
                                   spec.quad)
        for g, block in zip(G, cross):
            g[..., layout.block_slice(k), layout.block_slice(j)] = block
            g[..., layout.block_slice(j), layout.block_slice(k)] = block.swapaxes(-1, -2)
    return G


def build_system(spec: ProblemSpec, tables: ModalTables | None = None) -> ApertureSystem:
    """Assemble (D - M) U = F (TM) or (D_hat - M_hat) U = G (TE) from the kernel
    matrices, with per aperture coefficient the mode norm, the impedance (s_hat
    or t_hat) and mu = n pi/w; F and G are -2 i beta and 2 times the phases.

    The wavenumber is the tables' kappa0; for a sweep (tables with an array
    kappa0) lhs and rhs hold one system per wavenumber along a leading axis."""
    tables = tables or build_modal_tables(spec)
    cache = SingularBlockCache(spec.quad)
    layout = ModeLayout(spec.polarization, spec.N, spec.K)
    n = np.tile(np.array(layout.modes), spec.K)
    w = np.repeat([cav.w for cav in spec.cavities], layout.block)
    norms = mode_norms(n, w)
    impedance = np.concatenate([mc.impedance for mc in tables.cavities], axis=-1)
    k0 = np.asarray(tables.kappa0)
    # math, not np: a single solve keeps IncidentWave's alpha and beta
    alpha = k0 * sin(spec.wave.theta)
    phases = system_phases(spec, alpha).reshape(alpha.shape + (layout.size,))
    diag = np.arange(layout.size)
    if spec.polarization == "TM":
        beta = (k0 * cos(spec.wave.theta))[..., None]
        mu = n * pi / w
        # -0.5j (k0^2 G_sin - mu mu^T G_cos), formed in place on the two kernel matrices
        lhs, g_cos = _kernel_matrices(spec, k0, cache, layout, ("sin", "cos"))
        lhs *= k0[..., None, None] ** 2
        g_cos *= np.outer(mu, mu)
        lhs -= g_cos
        del g_cos
        lhs *= -0.5j
        lhs[..., diag, diag] += norms * impedance
        rhs = -2j * beta * phases
    else:
        (g_cos,) = _kernel_matrices(spec, k0, cache, layout, ("cos",))
        lhs = 0.5j * g_cos * impedance[..., None, :]
        lhs[..., diag, diag] += norms
        rhs = 2.0 * phases
    if not np.all(np.isfinite(lhs)):
        raise SingularSystemError("assembled matrix contains non-finite entries")
    return ApertureSystem(lhs=lhs, rhs=rhs, layout=layout)


class SystemFactorization:
    """An aperture matrix with its exact 1-norm reciprocal condition number
    1/(||A||_1 ||A^-1||_1), from `np.linalg.cond(A, 1)`: that is inf, with
    no warning, for a singular matrix and for an inverse or a norm product
    that overflows, so those all raise SingularSystemError.  It keeps no
    LU: each solve() factors afresh, so pass all right-hand sides as the
    columns of one matrix, as `backscatter_sweep` does."""

    def __init__(self, sys: ApertureSystem):
        self.layout = sys.layout
        self._lhs = sys.lhs
        self._norm_inf = float(np.linalg.norm(sys.lhs, np.inf))
        self.rcond = 1.0 / float(np.linalg.cond(sys.lhs, 1))
        if not self.rcond > 0.0:
            raise SingularSystemError(f"system singular (rcond = {self.rcond:g})")

    def solve(self, rhs: np.ndarray) -> ApertureSolution:
        """Solve for one right-hand side, or for one per column of a matrix;
        then every coefficient array keeps that column axis."""
        x = np.linalg.solve(self._lhs, rhs)
        lay = self.layout
        coeffs = tuple(x[lay.block_slice(k)] for k in range(lay.K))  # row blocks of x
        diags = []
        if self.rcond < RCOND_WARN:
            diags.append(f"ill-conditioned system: rcond = {self.rcond:.3e}")
        return ApertureSolution(coefficients=coeffs, layout=lay, rcond=self.rcond,
                                diagnostics=diags, backward_error=self.backward_error(x, rhs))

    def backward_error(self, x: np.ndarray, rhs: np.ndarray) -> float:
        """Normwise backward error ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf)
        of a solution x, the largest over the columns of a matrix right-hand
        side; 0 where b and x are both zero."""
        resid = self._lhs @ x
        np.subtract(rhs, resid, out=resid)
        resid = np.abs(resid).max(axis=0)
        scale = self._norm_inf * np.abs(x).max(axis=0) + np.abs(rhs).max(axis=0)
        return float(np.max(np.divide(resid, scale, out=np.zeros_like(resid),
                                      where=scale > 0)))


def solve_system(sys: ApertureSystem) -> ApertureSolution:
    """Dense LU with partial pivoting; attaches the exact 1-norm rcond and
    the backward error."""
    return SystemFactorization(sys).solve(sys.rhs)


def solve(spec: ProblemSpec):
    """Convenience end-to-end solve; returns (tables, solution)."""
    tables = build_modal_tables(spec)
    solution = solve_system(build_system(spec, tables))
    return tables, solution


def solve_sweep(spec: ProblemSpec, kappa0):
    """Solve spec at every wavenumber of the array kappa0 (layer kappa scaled
    by kappa0/spec.wave.kappa0) from one stacked assembly.  Returns the tables,
    with a leading wavenumber axis, and one solution per wavenumber in order,
    each from its own factorization."""
    tables = build_modal_tables(spec, kappa0)
    stack = build_system(spec, tables)
    return tables, [solve_system(ApertureSystem(lhs, rhs, stack.layout))
                    for lhs, rhs in zip(stack.lhs, stack.rhs)]
