"""Vertical wavenumbers, layer coefficients, connection solves, and the mode
profiles inside a layer, for arrays of modes.

Index conventions match the layered geometry: inside a cavity of width w the
n-th mode has vertical wavenumber beta_l = (kappa_l^2 - (n pi/w)^2)^{1/2}
with Im beta >= 0 in layer l, and the layer coefficient pair

    a_l = -2 i beta / zeta,   b_l = i beta (e^{i beta h} + e^{-i beta h}) / zeta,
    zeta = e^{i beta h} - e^{-i beta h},       h = y_bottom - y_top < 0,

degenerating to a = -1/h, b = 1/h at beta = 0.  All exponential ratios are
evaluated with the dominant factor e^{i beta h} divided out so deep lossy or
evanescent layers cannot overflow.

Every mode reduces to the same tri-diagonal unit-load problem, so the
functions take an array of mode numbers (one number gives 0-d results): a
cavity's betas, a and b are (modes x layers) arrays, and one elimination over
the layers solves all modes.  TM is TE's elimination with unit weights in
place of 1/kappa_l^2 and a zero at the PEC bottom.

A wavenumber sweep scales every layer kappa of one cavity by each of an
array of factors (non-dispersive media), and every array gains a leading
wavenumber axis, (wavenumbers x modes x layers).  The TE factor
(kappa0/kappa_1)^2 does not depend on the scale: it comes from the cavity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConnectionResonanceError, ModalResonanceError
from .model import Cavity, Layer

# Relative size under which beta is routed to the beta = 0 branch.
_BETA_ZERO_RTOL = 1e-14
# Relative size of |1 - e^{-2 i beta h}| under which a layer counts as resonant.
_RESONANCE_RTOL = 1e-14


def mode_numbers(polarization: str, N: int) -> range:
    """Mode numbers of an N-mode expansion: 1..N (TM, sines), 0..N (TE, cosines)."""
    return range(1, N + 1) if polarization == "TM" else range(0, N + 1)


def mode_norms(n, w):
    """I_0^w trig(n pi x/w)^2 dx: w/2, and w for the TE mode n = 0 (TM has none)."""
    return np.where(np.asarray(n) == 0, w, 0.5 * w)


@dataclass(frozen=True)
class ModeCoefficients:
    """One cavity's modes n: the layer kappa ((wavenumbers x) layers), and
    betas, a and b (one row per mode, one column per layer) and, once the
    connection systems are solved, u_hat on the interior interfaces (L-1 for
    TM; L for TE, bottom included) and the impedances (s_hat TM, t_hat TE)."""

    n: np.ndarray
    kappa: np.ndarray
    betas: np.ndarray
    a: np.ndarray
    b: np.ndarray
    u_hat: np.ndarray | None = None
    impedance: np.ndarray | None = None


@dataclass(frozen=True)
class ModalTables:
    """The solved ModeCoefficients of every cavity, over every mode, at the
    free-space wavenumber kappa0: a float, or an array for a sweep."""

    polarization: str
    N: int
    kappa0: float | np.ndarray
    cavities: tuple[ModeCoefficients, ...]

    def modes(self) -> range:
        return mode_numbers(self.polarization, self.N)


def _per_mode(x, n):
    """x, (wavenumbers...) x layers, with one axis per axis of the mode
    numbers n inserted before the layers."""
    x = np.asarray(x)
    return x.reshape(x.shape[:-1] + (1,) * np.ndim(n) + x.shape[-1:])


def beta(kappa, w: float, n):
    """Principal vertical wavenumbers (kappa^2 - (n pi/w)^2)^{1/2} with Im >= 0,
    for kappa and n broadcast against each other.

    Exactly 0 where kappa is real with kappa*w = n*pi; near-zero values (|beta|
    below 1e-14 of the mode scale) are routed to zero so the callers' beta = 0
    branch takes over.
    """
    kappa = np.asarray(kappa, dtype=complex)
    npi = np.asarray(n) * math.pi
    mu = npi / w
    root = np.sqrt(kappa * kappa - mu * mu)
    root = np.where(root.imag < 0.0, -root, root)
    zero = (((kappa.imag == 0.0) & (kappa.real * w == npi))
            | (np.abs(root) <= _BETA_ZERO_RTOL * np.maximum(np.abs(kappa), mu)))
    return np.where(zero, 0j, root)


def _layer_factors(betas, h, modes, layers, cavity):
    """The beta = 0 mask, i beta (beta = 1j, never resonant, on masked
    entries) and 1 - r = 1 - e^{-2 i beta h} from complex expm1: what every
    layer formula shares.  betas (modes on the first axis, layers on the
    last) broadcast against the thicknesses h.  A resonant entry raises
    ModalResonanceError naming the smallest such mode, then its layer
    (`layers[column]`, or the column itself), and the cavity; leading
    wavenumber axes are searched as one."""
    flat = betas == 0
    ib = 1j * np.where(flat, 1j, betas)
    one_minus_r = -np.expm1(-2.0 * ib * h)
    resonant = ~flat & (np.abs(one_minus_r) <= _RESONANCE_RTOL * (1.0 + np.abs(1.0 - one_minus_r)))
    if np.any(resonant):
        resonant = np.atleast_2d(resonant)
        i, col = np.argwhere(resonant.reshape((-1,) + resonant.shape[-2:]).any(0))[0]
        raise ModalResonanceError(int(np.ravel(modes)[i]),
                                  int(col if layers is None else layers[col]), cavity)
    return flat, ib, one_minus_r


def layer_coeffs(betas, h, *, modes=-1, cavity: int | None = None):
    """Diagonal/off-diagonal layer coefficients (a_l, b_l) for thicknesses h < 0.

    betas hold one row per mode and one column per layer, h one entry per
    layer; scalars give 0-d results.  `modes` names the rows in a
    ModalResonanceError.
    """
    flat, ib, one_minus_r = _layer_factors(np.asarray(betas, complex), h, modes, None, cavity)
    r = np.exp(-2.0 * ib * h)  # |r| <= 1 for Im beta >= 0, h < 0
    e_small = np.exp(-ib * h)  # the subdominant exponential, |.| <= 1
    a = np.where(flat, -1.0 / h, -2.0 * ib * e_small / one_minus_r)
    b = np.where(flat, 1.0 / h, ib * (1.0 + r) / one_minus_r)
    return a, b


def _square(kappa: np.ndarray) -> np.ndarray:
    """kappa^2 rounded as Python rounds a complex product: numpy's array
    product may fuse a multiply-add in the real part."""
    return (kappa.real * kappa.real - kappa.imag * kappa.imag) + 2j * (kappa.real * kappa.imag)


def mode_coefficients(cavity: Cavity, n, scale=1.0, *,
                      cavity_index: int | None = None) -> ModeCoefficients:
    """Vertical wavenumbers and layer coefficients of the modes n in every
    layer, with the layer kappa times scale (a float, or an array for a
    sweep)."""
    n = np.asarray(n)
    kappa = np.multiply.outer(scale, [lay.kappa for lay in cavity.layers])
    betas = beta(_per_mode(kappa, n), cavity.w, n[..., None])
    a, b = layer_coeffs(betas, np.array([lay.h for lay in cavity.layers]), modes=n,
                        cavity=cavity_index)
    return ModeCoefficients(n=n, kappa=kappa, betas=betas, a=a, b=b)


def _connection(mc: ModeCoefficients, weights, factor, dim: int, cavity_index):
    """mc with u_hat, the solution of T u_hat = e_1 for every mode at once,
    and the impedances factor [a_1^2 u_hat_1 / g_1 - b_1].  T is the leading
    dim x dim block of the symmetric tri-diagonal matrix with diagonal
    b_l/g_l + b_{l+1}/g_{l+1} (b_L/g_L = 0) and off-diagonal a_{l+1}/g_{l+1},
    g the layer weights ((wavenumbers x) layers).

    The elimination loops over layers only.  A pivot at most 1e-15 of its
    mode's largest entry raises ConnectionResonanceError naming the smallest
    such mode at any wavenumber.
    """
    weights = _per_mode(weights, mc.n)
    d = mc.b / weights
    d[..., :-1] += d[..., 1:]
    d, off = d[..., :dim], (mc.a / weights)[..., 1:dim]
    tiny = 1e-300 + 1e-15 * np.maximum(np.abs(d).max(-1, initial=1e-300),
                                       np.abs(off).max(-1, initial=0.0))
    u = np.zeros_like(d)
    u[..., :1] = 1.0
    bad = np.zeros(d.shape[:-1], dtype=bool)
    for i in range(1, dim):
        bad |= np.abs(d[..., i - 1]) <= tiny
        m = off[..., i - 1] / np.where(bad, 1.0, d[..., i - 1])
        d[..., i] -= m * off[..., i - 1]
        u[..., i] -= m * u[..., i - 1]
    if dim:
        bad |= np.abs(d[..., -1]) <= tiny
    if np.any(bad):
        bad = bad.reshape((-1,) + mc.n.shape).any(0)
        raise ConnectionResonanceError(int(np.ravel(mc.n)[np.argmax(np.ravel(bad))]),
                                       cavity_index)
    for i in reversed(range(dim)):  # back substitution, in place
        if i + 1 < dim:
            u[..., i] -= off[..., i] * u[..., i + 1]
        u[..., i] /= d[..., i]
    a1, u1 = mc.a[..., 0], u[..., 0] if dim else 0.0
    return replace(mc, u_hat=u,
                   impedance=factor * (a1 * a1 * u1 / weights[..., 0] - mc.b[..., 0]))


def connection_tm(cavity: Cavity, n, scale=1.0, *, cavity_index: int | None = None,
                  coeffs: ModeCoefficients | None = None) -> ModeCoefficients:
    """TM connection solves with unit load; impedance s_hat = -b_1 + a_1^2 u_hat_1."""
    mc = coeffs or mode_coefficients(cavity, n, scale, cavity_index=cavity_index)
    return _connection(mc, np.ones(cavity.L), 1.0, cavity.L - 1, cavity_index)


def connection_te(cavity: Cavity, n, kappa0, scale=1.0, *, cavity_index: int | None = None,
                  coeffs: ModeCoefficients | None = None) -> ModeCoefficients:
    """TE connection solves (1/kappa^2-weighted fluxes); impedance
    t_hat = (kappa0/kappa_1)^2 [a_1^2 u_hat_1 / kappa_1^2 - b_1], kappa0 and
    kappa_1 unscaled."""
    mc = coeffs or mode_coefficients(cavity, n, scale, cavity_index=cavity_index)
    return _connection(mc, _square(mc.kappa), (kappa0 / cavity.layers[0].kappa) ** 2,
                       cavity.L, cavity_index)


def interior_coefficients(polarization: str, mc: ModeCoefficients, u0) -> np.ndarray:
    """Fourier coefficients of every mode on all interfaces y_0 .. y_L
    ((wavenumbers x) modes x L+1), from the solved mc and the aperture
    coefficients u0 ((wavenumbers x) modes).

    TM: u_l = -a_1 u0 u_hat_l for interior interfaces, u_L = 0 (PEC bottom).
    TE: u_l = -(a_1/kappa_1^2) u0 u_hat_l down to and including the bottom.
    """
    u0 = np.asarray(u0, dtype=complex)
    k1sq = 1.0
    if polarization == "TE":
        k1sq = _per_mode(_square(mc.kappa[..., :1]), mc.n)[..., 0]
    dim = mc.u_hat.shape[-1]
    ifc = np.zeros(u0.shape + (mc.kappa.shape[-1] + 1,), dtype=complex)
    ifc[..., 0] = u0
    ifc[..., 1:dim + 1] = (-(mc.a[..., 0] / k1sq) * u0)[..., None] * mc.u_hat
    return ifc


def layer_profiles(layer: Layer, betas, u_top, u_bottom, y, *, modes, layer_index: int,
                   cavity: int | None = None):
    """Profiles of several modes inside one layer, and their y-derivatives.

    betas, u_top and u_bottom hold one entry per mode (after any leading
    wavenumber axes), modes one per mode; y holds points in [y_bottom, y_top].
    Returns (values, dy), each of shape ((wavenumbers x) modes x points):
    the profile of mode i interpolates u_top[i] at y_top and u_bottom[i] at
    y_bottom.  With s = y - y_bottom, t = -h and E = e^{i beta t}, the
    profile is P + Q and its derivative i beta (P - Q), where
    P = (u_bottom - u_top E)/(1 - E^2) e^{i beta s} and
    Q = (u_top - u_bottom E)/(1 - E^2) e^{i beta (t - s)}: two exponentials
    per point, each of modulus <= 1, so evanescent modes with large
    |beta| |h| stay finite.  Modes with beta = 0 are linear in y.  A
    resonant layer raises ModalResonanceError naming the mode, the layer and
    the cavity.
    """
    betas = np.asarray(betas, dtype=complex)[..., None]
    u_top = np.asarray(u_top, dtype=complex)[..., None]
    u_bottom = np.asarray(u_bottom, dtype=complex)[..., None]
    y = np.asarray(y, dtype=float)
    h = layer.h
    flat, ib, one_minus_r = _layer_factors(betas, h, modes, (layer_index,), cavity)
    e_t = np.exp(-ib * h)
    p = (u_bottom - u_top * e_t) / one_minus_r * np.exp(ib * (y - layer.y_bottom))
    q = (u_top - u_bottom * e_t) / one_minus_r * np.exp(ib * (layer.y_top - y))
    values = p + q
    dy = ib * (p - q)
    if np.any(flat):  # linear in y; np.where keeps every other entry its own
        values = np.where(flat, ((u_bottom - u_top) * y + u_top * layer.y_bottom
                                 - u_bottom * layer.y_top) / h, values)
        dy = np.where(flat, (u_bottom - u_top) / h, dy)
    return values, dy


def single_layer_impedance_tm(kappa: complex, w: float, depth: float, n: int) -> complex:
    """Closed-form s^(n) of the empty/single-layer cavity:
    -i beta (1 + e^{2 i beta h}) / (1 - e^{2 i beta h}), and 1/h at beta = 0."""
    bl = beta(kappa, w, n)
    if bl == 0:
        return 1.0 / depth
    e = np.exp(2j * bl * depth)  # |e| <= 1 for Im beta >= 0, depth > 0
    denom = -np.expm1(2j * bl * depth)
    if abs(denom) <= _RESONANCE_RTOL * (1.0 + abs(e)):
        raise ModalResonanceError(n, 0)
    return -1j * bl * (1.0 + e) / denom


def single_layer_impedance_te(kappa: complex, w: float, depth: float, n: int) -> complex:
    """Closed-form t^(n) = i beta (e^{2 i beta h} - 1)/(1 + e^{2 i beta h}); 0 at beta = 0."""
    bl = beta(kappa, w, n)
    if bl == 0:
        return 0.0 + 0.0j
    e = np.exp(2j * bl * depth)
    denom = 1.0 + e
    if abs(denom) <= _RESONANCE_RTOL * (1.0 + abs(e)):
        raise ModalResonanceError(n, 0)
    return 1j * bl * np.expm1(2j * bl * depth) / denom


def build_modal_tables(spec, kappa0=None) -> ModalTables:
    """Layer coefficients and connection solves of every mode, one array call
    per cavity.  An array kappa0 makes a sweep: spec at each of those
    wavenumbers, with every layer kappa scaled by kappa0/spec.wave.kappa0
    (non-dispersive media), and tables with a leading wavenumber axis."""
    modes = np.array(mode_numbers(spec.polarization, spec.N))
    kappa0 = spec.wave.kappa0 if kappa0 is None else np.asarray(kappa0, dtype=float)
    scale = kappa0 / spec.wave.kappa0
    return ModalTables(spec.polarization, spec.N, kappa0, tuple(
        connection_tm(cav, modes, scale, cavity_index=k) if spec.polarization == "TM"
        else connection_te(cav, modes, spec.wave.kappa0, scale, cavity_index=k)
        for k, cav in enumerate(spec.cavities)))
