"""Per-mode vertical wavenumbers, layer coefficients, connection solves, and
the mode profiles inside a layer.

Index conventions match the layered geometry: inside a cavity of width w the
n-th mode has vertical wavenumber beta_l = (kappa_l^2 - (n pi/w)^2)^{1/2}
with Im beta >= 0 in layer l, and the layer coefficient pair

    a_l = -2 i beta / zeta,   b_l = i beta (e^{i beta h} + e^{-i beta h}) / zeta,
    zeta = e^{i beta h} - e^{-i beta h},       h = y_bottom - y_top < 0,

degenerating to a = -1/h, b = 1/h at beta = 0.  All exponential ratios are
evaluated with the dominant factor e^{i beta h} divided out so deep lossy or
evanescent layers cannot overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConnectionResonanceError, ModalResonanceError
from .model import Cavity, Layer

# Relative size under which beta is routed to the beta = 0 branch.
_BETA_ZERO_RTOL = 1e-14
# Relative size of |1 - e^{-2 i beta h}| under which a layer counts as resonant.
_RESONANCE_RTOL = 1e-14


@dataclass(frozen=True)
class ModeCoefficients:
    n: int
    betas: tuple[complex, ...]
    a: tuple[complex, ...]
    b: tuple[complex, ...]


@dataclass(frozen=True)
class ConnectionSolution:
    """Unit-load connection solve: u_hat on interior interfaces, plus the
    aperture impedance coefficient (s_hat for TM, t_hat for TE)."""

    u_hat: tuple[complex, ...]
    impedance: complex


@dataclass(frozen=True)
class ModalTables:
    """(cavity index, mode) -> (ModeCoefficients, ConnectionSolution)."""

    polarization: str
    N: int
    entries: dict

    def coeffs(self, k: int, n: int) -> ModeCoefficients:
        return self.entries[(k, n)][0]

    def connection(self, k: int, n: int) -> ConnectionSolution:
        return self.entries[(k, n)][1]

    def modes(self):
        return range(1, self.N + 1) if self.polarization == "TM" else range(0, self.N + 1)


def _cexpm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small |z|."""
    if abs(z) < 0.5:
        term = z
        acc = z
        for k in range(2, 24):
            term = term * z / k
            acc += term
            if abs(term) <= 1e-18 * abs(acc):
                break
        return acc
    return cmath.exp(z) - 1.0


def beta(kappa: complex, w: float, n: int) -> complex:
    """Principal vertical wavenumber (kappa^2 - (n pi/w)^2)^{1/2} with Im >= 0.

    Returns exactly 0 when kappa is real with kappa*w = n*pi, and routes
    near-zero values (|beta| below 1e-14 of the mode scale) to zero so the
    callers' beta = 0 branch takes over.
    """
    mu = n * math.pi / w
    if kappa.imag == 0.0 and kappa.real * w == n * math.pi:
        return 0.0 + 0.0j
    z = kappa * kappa - mu * mu
    root = cmath.sqrt(z)
    if root.imag < 0.0:
        root = -root
    scale = max(abs(kappa), mu)
    if abs(root) <= _BETA_ZERO_RTOL * scale:
        return 0.0 + 0.0j
    return root


def layer_coeffs(beta_l: complex, h: float, *, mode: int = -1, layer: int = -1,
                 cavity: int | None = None) -> tuple[complex, complex]:
    """Diagonal/off-diagonal layer coefficients (a_l, b_l) for thickness h < 0."""
    if beta_l == 0:
        return (-1.0 / h, 1.0 / h)
    r = cmath.exp(-2j * beta_l * h)  # |r| <= 1 for Im beta >= 0, h < 0
    one_minus_r = -_cexpm1(-2j * beta_l * h)
    if abs(one_minus_r) <= _RESONANCE_RTOL * (1.0 + abs(r)):
        raise ModalResonanceError(mode, layer, cavity)
    e_small = cmath.exp(-1j * beta_l * h)  # the subdominant exponential, |.| <= 1
    a = -2j * beta_l * e_small / one_minus_r
    b = 1j * beta_l * (1.0 + r) / one_minus_r
    return (a, b)


def mode_coefficients(cavity: Cavity, n: int, *, cavity_index: int | None = None) -> ModeCoefficients:
    betas, avals, bvals = [], [], []
    for li, lay in enumerate(cavity.layers):
        bl = beta(lay.kappa, cavity.w, n)
        al, bbl = layer_coeffs(bl, lay.h, mode=n, layer=li, cavity=cavity_index)
        betas.append(bl)
        avals.append(al)
        bvals.append(bbl)
    return ModeCoefficients(n=n, betas=tuple(betas), a=tuple(avals), b=tuple(bvals))


def _thomas(diag, lower, upper, rhs, *, mode: int, cavity: int | None):
    """Solve a tri-diagonal system in place; structured error on a tiny pivot."""
    L = len(diag)
    d = list(diag)
    r = list(rhs)
    scale = max(max(abs(v) for v in diag), max((abs(v) for v in upper), default=0.0), 1e-300)
    for i in range(1, L):
        if abs(d[i - 1]) <= 1e-300 + 1e-15 * scale:
            raise ConnectionResonanceError(mode, cavity)
        m = lower[i - 1] / d[i - 1]
        d[i] = d[i] - m * upper[i - 1]
        r[i] = r[i] - m * r[i - 1]
    if abs(d[L - 1]) <= 1e-300 + 1e-15 * scale:
        raise ConnectionResonanceError(mode, cavity)
    x = [0j] * L
    x[L - 1] = r[L - 1] / d[L - 1]
    for i in range(L - 2, -1, -1):
        x[i] = (r[i] - upper[i] * x[i + 1]) / d[i]
    return x


def connection_tm(cavity: Cavity, n: int, *, cavity_index: int | None = None,
                  coeffs: ModeCoefficients | None = None) -> ConnectionSolution:
    """TM connection solve with unit load; impedance s_hat = -b_1 + a_1^2 u_hat_1."""
    mc = coeffs or mode_coefficients(cavity, n, cavity_index=cavity_index)
    L = cavity.L
    if L == 1:
        return ConnectionSolution(u_hat=(), impedance=-mc.b[0])
    diag = [mc.b[l] + mc.b[l + 1] for l in range(L - 1)]
    off = [mc.a[l + 1] for l in range(L - 2)]
    rhs = [1.0 + 0j] + [0j] * (L - 2)
    u_hat = _thomas(diag, off, off, rhs, mode=n, cavity=cavity_index)
    s_hat = -mc.b[0] + mc.a[0] * mc.a[0] * u_hat[0]
    return ConnectionSolution(u_hat=tuple(u_hat), impedance=s_hat)


def connection_te(cavity: Cavity, n: int, kappa0: float, *, cavity_index: int | None = None,
                  coeffs: ModeCoefficients | None = None) -> ConnectionSolution:
    """TE connection solve (1/kappa^2-weighted fluxes); impedance
    t_hat = (kappa0/kappa_1)^2 [a_1^2 u_hat_1 / kappa_1^2 - b_1]."""
    mc = coeffs or mode_coefficients(cavity, n, cavity_index=cavity_index)
    L = cavity.L
    k2 = [lay.kappa * lay.kappa for lay in cavity.layers]
    diag = [mc.b[l] / k2[l] + (mc.b[l + 1] / k2[l + 1] if l + 1 < L else 0.0)
            for l in range(L)]
    off = [mc.a[l + 1] / k2[l + 1] for l in range(L - 1)]
    rhs = [1.0 + 0j] + [0j] * (L - 1)
    u_hat = _thomas(diag, off, off, rhs, mode=n, cavity=cavity_index)
    t_hat = (kappa0 / cavity.layers[0].kappa) ** 2 * (mc.a[0] * mc.a[0] * u_hat[0] / k2[0] - mc.b[0])
    return ConnectionSolution(u_hat=tuple(u_hat), impedance=t_hat)


def interior_coefficients(cavity: Cavity, polarization: str, coeffs: ModeCoefficients,
                          conn: ConnectionSolution, u0: complex) -> tuple[complex, ...]:
    """Fourier coefficients of the mode on all interfaces y_0 .. y_L.

    TM: u_l = -a_1 u0 u_hat_l for interior interfaces, u_L = 0 (PEC bottom).
    TE: u_l = -(a_1/kappa_1^2) u0 u_hat_l down to and including the bottom.
    """
    a1 = coeffs.a[0]
    if polarization == "TM":
        interior = tuple(-a1 * u0 * uh for uh in conn.u_hat)
        return (u0,) + interior + (0.0 + 0.0j,)
    k1sq = cavity.layers[0].kappa ** 2
    interior = tuple(-(a1 / k1sq) * u0 * uh for uh in conn.u_hat)
    return (u0,) + interior


def layer_profiles(layer: Layer, betas, u_top, u_bottom, y, *, modes, layer_index: int,
                   cavity: int | None = None):
    """Profiles of several modes inside one layer, and their y-derivatives.

    betas, u_top, u_bottom and modes hold one entry per mode; y holds points
    in [y_bottom, y_top].  Returns (values, dy), each of shape (modes, points):
    the profile of mode i interpolates u_top[i] at y_top and u_bottom[i] at
    y_bottom, and both arrays come from the same four exponentials, each of
    modulus <= 1, so evanescent modes with large |beta| |h| stay finite.  Modes
    with beta = 0 are linear in y.  A resonant layer raises
    ModalResonanceError naming the mode, the layer and the cavity.
    """
    betas = np.asarray(betas, dtype=complex)[:, None]
    u_top = np.asarray(u_top, dtype=complex)[:, None]
    u_bottom = np.asarray(u_bottom, dtype=complex)[:, None]
    y = np.asarray(y, dtype=float)[None, :]
    h = layer.h
    flat = betas == 0
    # beta = 1j stands in on flat rows: never resonant, and np.where drops it
    ib = 1j * np.where(flat, 1j, betas)
    one_minus_r = -np.expm1(-2.0 * ib * h)
    resonant = ~flat & (np.abs(one_minus_r) <= _RESONANCE_RTOL * (1.0 + np.abs(1.0 - one_minus_r)))
    if np.any(resonant):
        raise ModalResonanceError(int(np.asarray(modes)[np.argmax(resonant)]),
                                  layer_index, cavity)
    e1 = np.exp(ib * (y - layer.y_bottom))
    e2 = np.exp(-ib * (y - layer.y_top + h))
    e3 = np.exp(ib * (y - layer.y_bottom - h))
    e4 = np.exp(-ib * (y - layer.y_bottom + h))
    values = np.where(flat, ((u_bottom - u_top) * y + u_top * layer.y_bottom
                             - u_bottom * layer.y_top) / h,
                      (u_bottom * (e1 - e2) - u_top * (e3 - e4)) / one_minus_r)
    dy = np.where(flat, (u_bottom - u_top) / h,
                  ib * (u_bottom * (e1 + e2) - u_top * (e3 + e4)) / one_minus_r)
    return values, dy


def single_layer_impedance_tm(kappa: complex, w: float, depth: float, n: int) -> complex:
    """Closed-form s^(n) of the empty/single-layer cavity:
    -i beta (1 + e^{2 i beta h}) / (1 - e^{2 i beta h}), and 1/h at beta = 0."""
    bl = beta(kappa, w, n)
    if bl == 0:
        return 1.0 / depth
    e = cmath.exp(2j * bl * depth)  # |e| <= 1 for Im beta >= 0, depth > 0
    denom = -_cexpm1(2j * bl * depth)
    if abs(denom) <= _RESONANCE_RTOL * (1.0 + abs(e)):
        raise ModalResonanceError(n, 0)
    return -1j * bl * (1.0 + e) / denom


def single_layer_impedance_te(kappa: complex, w: float, depth: float, n: int) -> complex:
    """Closed-form t^(n) = i beta (e^{2 i beta h} - 1)/(1 + e^{2 i beta h}); 0 at beta = 0."""
    bl = beta(kappa, w, n)
    if bl == 0:
        return 0.0 + 0.0j
    e = cmath.exp(2j * bl * depth)
    denom = 1.0 + e
    if abs(denom) <= _RESONANCE_RTOL * (1.0 + abs(e)):
        raise ModalResonanceError(n, 0)
    return 1j * bl * _cexpm1(2j * bl * depth) / denom


def build_modal_tables(spec) -> ModalTables:
    """Connection data for every (cavity, mode) pair required by the polarization."""
    pol = spec.polarization
    entries = {}
    modes = range(1, spec.N + 1) if pol == "TM" else range(0, spec.N + 1)
    for k, cav in enumerate(spec.cavities):
        for n in modes:
            mc = mode_coefficients(cav, n, cavity_index=k)
            if pol == "TM":
                conn = connection_tm(cav, n, cavity_index=k, coeffs=mc)
            else:
                conn = connection_te(cav, n, spec.wave.kappa0, cavity_index=k, coeffs=mc)
            entries[(k, n)] = (mc, conn)
    return ModalTables(polarization=pol, N=spec.N, entries=entries)
