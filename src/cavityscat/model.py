"""Scattering-scenario data model, validation, and JSON round-trip.

Conventions follow the layered-cavity geometry: interface ordinates run
0 = y_0 > y_1 > ... > y_L = -h inside each cavity, so layer "thicknesses"
h_l = y_l - y_{l-1} are negative.  All lengths are dimensionless consistent
units.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

from .errors import SpecFileError, ValidationError

SCHEMA_VERSION = 1

# Cavities closer than this fraction of the widest aperture are rejected:
# the cross-cavity kernel degenerates at touching corners.
MIN_GAP_FRACTION = 1e-9


@dataclass(frozen=True)
class IncidentWave:
    """Plane wave e^{i(alpha x - beta y)} with alpha = k0 sin(theta), beta = k0 cos(theta)."""

    kappa0: float
    theta: float

    @property
    def alpha(self) -> float:
        return self.kappa0 * math.sin(self.theta)

    @property
    def beta(self) -> float:
        return self.kappa0 * math.cos(self.theta)


@dataclass(frozen=True)
class Layer:
    """Homogeneous horizontal slab between ordinates y_bottom < y_top <= 0."""

    y_top: float
    y_bottom: float
    kappa: complex

    @property
    def h(self) -> float:
        """Signed thickness y_bottom - y_top (negative by convention)."""
        return self.y_bottom - self.y_top


@dataclass(frozen=True)
class Cavity:
    """Rectangular cavity with aperture [a, b] on y = 0, filled top-down by layers."""

    a: float
    b: float
    layers: tuple[Layer, ...]

    @property
    def w(self) -> float:
        return self.b - self.a

    @property
    def depth(self) -> float:
        return -self.layers[-1].y_bottom

    @property
    def L(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class QuadratureConfig:
    panels: int = 64
    points_per_panel: int = 4


@dataclass(frozen=True)
class ProblemSpec:
    wave: IncidentWave
    polarization: str  # "TM" | "TE"
    cavities: tuple[Cavity, ...]
    N: int
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    @property
    def K(self) -> int:
        return len(self.cavities)


def kappa_from_material(omega: float, eps: complex, mu: complex, sigma: float = 0.0) -> complex:
    """kappa = (omega^2 eps mu + i omega mu sigma)^{1/2} on the Im >= 0 branch."""
    k = cmath.sqrt(omega * omega * eps * mu + 1j * omega * mu * sigma)
    if k.imag < 0.0:
        k = -k
    return k


def _finite(x) -> bool:
    return math.isfinite(x.real) and math.isfinite(getattr(x, "imag", 0.0))


def validate(spec: ProblemSpec) -> ProblemSpec:
    """Check every invariant; return the spec with cavities sorted by aperture.

    Raises ValidationError naming the offending field.  Idempotent.
    """
    w = spec.wave
    if not _finite(complex(w.kappa0, 0)) or w.kappa0 <= 0.0:
        raise ValidationError("kappa0", f"free-space wavenumber must be positive, got {w.kappa0}")
    if not (-math.pi / 2 < w.theta < math.pi / 2):
        raise ValidationError("theta", f"incident angle must lie in (-pi/2, pi/2), got {w.theta}")
    if spec.polarization not in ("TM", "TE"):
        raise ValidationError("polarization", f"must be 'TM' or 'TE', got {spec.polarization!r}")
    if spec.N < 1:
        raise ValidationError("N", f"truncation must be >= 1, got {spec.N}")
    if not spec.cavities:
        raise ValidationError("cavities", "at least one cavity is required")

    q = spec.quad
    if q.panels < 1:
        raise ValidationError("quadrature.panels", "must be >= 1")
    if q.points_per_panel < 2:
        raise ValidationError("quadrature.points_per_panel", "must be >= 2")

    for ci, cav in enumerate(spec.cavities):
        tag = f"cavities[{ci}]"
        for name, x in (("a", cav.a), ("b", cav.b)):
            if not math.isfinite(x):
                raise ValidationError(f"{tag}.{name}", f"must be finite, got {x}")
        if not (cav.a < cav.b):
            raise ValidationError(f"{tag}.a", f"aperture needs a < b, got [{cav.a}, {cav.b}]")
        if cav.L < 1:
            raise ValidationError(f"{tag}.layers", "at least one layer is required")
        if cav.layers[0].y_top != 0.0:
            raise ValidationError(f"{tag}.layers[0].y_top",
                                  f"first layer must start at the aperture y = 0, got {cav.layers[0].y_top}")
        prev_bottom = 0.0
        for li, lay in enumerate(cav.layers):
            ltag = f"{tag}.layers[{li}]"
            if li > 0 and lay.y_top != prev_bottom:
                raise ValidationError(f"{ltag}.y_top",
                                      f"layers must be contiguous: expected {prev_bottom}, got {lay.y_top}")
            if not math.isfinite(lay.y_bottom):
                raise ValidationError(f"{ltag}.y_bottom", f"must be finite, got {lay.y_bottom}")
            if not (lay.y_bottom < lay.y_top):
                raise ValidationError(f"{ltag}.y_bottom",
                                      f"interfaces must descend: y_bottom {lay.y_bottom} >= y_top {lay.y_top}")
            if not _finite(lay.kappa):
                raise ValidationError(f"{ltag}.kappa", "wavenumber must be finite")
            if lay.kappa.imag < 0.0:
                raise ValidationError(f"{ltag}.kappa",
                                      f"Im(kappa) must be >= 0, got {lay.kappa}")
            if lay.kappa == 0:
                raise ValidationError(f"{ltag}.kappa", "wavenumber must be nonzero")
            prev_bottom = lay.y_bottom

    cavities = tuple(sorted(spec.cavities, key=lambda c: c.a))
    min_gap = MIN_GAP_FRACTION * max(c.w for c in cavities)
    for ci in range(len(cavities) - 1):
        gap = cavities[ci + 1].a - cavities[ci].b
        if gap <= min_gap:
            raise ValidationError(
                f"cavities[{ci + 1}].a",
                f"cavities must be disjoint with a positive gap (> {min_gap:g}), got gap {gap:g}")

    return replace(spec, cavities=cavities)


# ---------------------------------------------------------------------------
# JSON config round-trip


def spec_to_dict(spec: ProblemSpec) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "polarization": spec.polarization,
        "kappa0": spec.wave.kappa0,
        "theta": spec.wave.theta,
        "N": spec.N,
        "quadrature": {
            "panels": spec.quad.panels,
            "points_per_panel": spec.quad.points_per_panel,
        },
        "cavities": [
            {
                "a": cav.a,
                "b": cav.b,
                "layers": [
                    {"y_bottom": lay.y_bottom, "kappa": [lay.kappa.real, lay.kappa.imag]}
                    for lay in cav.layers
                ],
            }
            for cav in spec.cavities
        ],
    }


def _require(obj: dict, key: str, path):
    if key not in obj:
        raise SpecFileError(path, "missing required field", field=key)
    return obj[key]


def _object(value, path, field: str) -> dict:
    if not isinstance(value, dict):
        raise SpecFileError(path, f"must be an object, got {value!r}", field=field)
    return value


def _integer(value, path, field: str) -> int:
    """A JSON integer (an integral float such as 4.0 counts; true and 2.7 do not)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise SpecFileError(path, f"must be an integer, got {value!r}", field=field)
    return int(value)


def _number(value, path, field: str) -> float:
    """A JSON number as a float (true and "1.5" are not numbers)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecFileError(path, f"must be a number, got {value!r}", field=field)
    return float(value)


def _list(value, path, field: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise SpecFileError(path, f"must be a list, got {value!r}", field=field)
    return value


def spec_from_dict(doc: dict, path="<dict>") -> ProblemSpec:
    if not isinstance(doc, dict):
        raise SpecFileError(path, "top-level document must be an object")
    schema = _require(doc, "schema", path)
    if schema != SCHEMA_VERSION:
        raise SpecFileError(path, f"unsupported schema version {schema} (expected {SCHEMA_VERSION})",
                            field="schema")
    wave = IncidentWave(kappa0=_number(_require(doc, "kappa0", path), path, "kappa0"),
                        theta=_number(_require(doc, "theta", path), path, "theta"))
    polarization = str(_require(doc, "polarization", path))
    N = _integer(_require(doc, "N", path), path, "N")
    # unknown keys are ignored; older files carry "lift_threshold" and
    # "bessel_K", settings that are gone (K is worked out from the aperture)
    qd = _object(doc.get("quadrature", {}), path, "quadrature")
    quad = QuadratureConfig(**{
        key: _integer(qd.get(key, default), path, f"quadrature.{key}")
        for key, default in asdict(QuadratureConfig()).items()})
    cavities = []
    for ci, cd in enumerate(_list(_require(doc, "cavities", path), path, "cavities")):
        tag = f"cavities[{ci}]"
        cd = _object(cd, path, tag)
        layers = []
        y_top = 0.0
        for li, ld in enumerate(_list(cd.get("layers", []), path, f"{tag}.layers")):
            ltag = f"{tag}.layers[{li}]"
            ld = _object(ld, path, ltag)
            if "y_bottom" not in ld:
                raise SpecFileError(path, "missing required field", field=f"{ltag}.y_bottom")
            kp = ld.get("kappa")
            if not (isinstance(kp, (list, tuple)) and len(kp) == 2):
                raise SpecFileError(path, "kappa must be a [re, im] pair", field=f"{ltag}.kappa")
            y_bottom = _number(ld["y_bottom"], path, f"{ltag}.y_bottom")
            kappa = complex(*(_number(v, path, f"{ltag}.kappa") for v in kp))
            layers.append(Layer(y_top=y_top, y_bottom=y_bottom, kappa=kappa))
            y_top = y_bottom
        if "a" not in cd or "b" not in cd:
            raise SpecFileError(path, "missing required field", field=f"{tag}.a/b")
        cavities.append(Cavity(a=_number(cd["a"], path, f"{tag}.a"),
                               b=_number(cd["b"], path, f"{tag}.b"), layers=tuple(layers)))
    return ProblemSpec(wave=wave, polarization=polarization, cavities=tuple(cavities), N=N, quad=quad)


def load_spec(path) -> ProblemSpec:
    """Load and validate a scenario from a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(path, f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(path, f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return validate(spec_from_dict(doc, path))


def save_spec(spec: ProblemSpec, path) -> None:
    """Write a scenario as JSON; load_spec(save_spec(s)) == s field-for-field."""
    doc = spec_to_dict(spec)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
