import json
import math

import pytest
from hypothesis import given, strategies as st

import cavityscat as cs
from cavityscat.errors import SpecFileError, ValidationError
from cavityscat.model import kappa_from_material, spec_from_dict, spec_to_dict

from conftest import example1_spec, example4_spec


def test_example1_configuration_is_valid():
    spec = example1_spec("TM")
    assert spec.cavities[0].w == 1.0
    assert spec.cavities[0].depth == 1.5
    assert abs(spec.wave.alpha ** 2 + spec.wave.beta ** 2 - 1.5 ** 2) <= 1e-14
    assert spec.wave.beta > 0


def test_example4_configuration_is_valid():
    spec = example4_spec("TE")
    assert spec.K == 3
    assert [c.L for c in spec.cavities] == [1, 3, 2]
    assert spec.cavities[1].layers[1].h == pytest.approx(-1 / 6)


def test_overlapping_cavities_rejected():
    cavs = (cs.Cavity(0.0, 1.0, (cs.Layer(0.0, -1.0, 1 + 0j),)),
            cs.Cavity(0.5, 1.5, (cs.Layer(0.0, -1.0, 1 + 0j),)))
    spec = cs.ProblemSpec(cs.IncidentWave(1.0, 0.0), "TM", cavs, N=4)
    with pytest.raises(ValidationError) as exc:
        cs.validate(spec)
    assert "cavities" in exc.value.field


def test_touching_cavities_rejected():
    cavs = (cs.Cavity(0.0, 1.0, (cs.Layer(0.0, -1.0, 1 + 0j),)),
            cs.Cavity(1.0, 2.0, (cs.Layer(0.0, -1.0, 1 + 0j),)))
    with pytest.raises(ValidationError):
        cs.validate(cs.ProblemSpec(cs.IncidentWave(1.0, 0.0), "TM", cavs, N=4))


@pytest.mark.parametrize("field,build", [
    ("kappa0", lambda: cs.ProblemSpec(cs.IncidentWave(-1.0, 0.0), "TM",
                                      (cs.Cavity(0, 1, (cs.Layer(0, -1, 1 + 0j),)),), 4)),
    ("theta", lambda: cs.ProblemSpec(cs.IncidentWave(1.0, 2.0), "TM",
                                     (cs.Cavity(0, 1, (cs.Layer(0, -1, 1 + 0j),)),), 4)),
    ("N", lambda: cs.ProblemSpec(cs.IncidentWave(1.0, 0.0), "TM",
                                 (cs.Cavity(0, 1, (cs.Layer(0, -1, 1 + 0j),)),), 0)),
    ("polarization", lambda: cs.ProblemSpec(cs.IncidentWave(1.0, 0.0), "TEM",
                                            (cs.Cavity(0, 1, (cs.Layer(0, -1, 1 + 0j),)),), 4)),
    ("a", lambda: cs.ProblemSpec(cs.IncidentWave(1.0, 0.0), "TM",
                                 (cs.Cavity(1, 0, (cs.Layer(0, -1, 1 + 0j),)),), 4)),
    ("y_top", lambda: cs.ProblemSpec(cs.IncidentWave(1.0, 0.0), "TM",
                                     (cs.Cavity(0, 1, (cs.Layer(-0.1, -1, 1 + 0j),)),), 4)),
    ("y_bottom", lambda: cs.ProblemSpec(cs.IncidentWave(1.0, 0.0), "TM",
                                        (cs.Cavity(0, 1, (cs.Layer(0, 0.5, 1 + 0j),)),), 4)),
    ("kappa", lambda: cs.ProblemSpec(cs.IncidentWave(1.0, 0.0), "TM",
                                     (cs.Cavity(0, 1, (cs.Layer(0, -1, 1 - 0.2j),)),), 4)),
])
def test_invariant_violations_name_offending_field(field, build):
    with pytest.raises(ValidationError) as exc:
        cs.validate(build())
    assert field in exc.value.field


@pytest.mark.parametrize("quad,field", [
    (cs.QuadratureConfig(panels=0), "panels"),
    (cs.QuadratureConfig(points_per_panel=1), "points_per_panel"),
])
def test_quadrature_config_validation(quad, field):
    spec = cs.ProblemSpec(cs.IncidentWave(1.0, 0.0), "TM",
                          (cs.Cavity(0, 1, (cs.Layer(0, -1, 1 + 0j),)),), 4, quad)
    with pytest.raises(ValidationError) as exc:
        cs.validate(spec)
    assert field in exc.value.field


def test_validate_is_idempotent():
    spec = example4_spec("TM")
    assert cs.validate(spec) == spec


def test_validate_sorts_cavities():
    cavs = (cs.Cavity(2.0, 3.0, (cs.Layer(0, -1, 1 + 0j),)),
            cs.Cavity(0.0, 1.0, (cs.Layer(0, -1, 1 + 0j),)))
    spec = cs.validate(cs.ProblemSpec(cs.IncidentWave(1.0, 0.0), "TM", cavs, 4))
    assert spec.cavities[0].a == 0.0


def test_roundtrip_example4(tmp_path):
    spec = example4_spec("TE")
    path = tmp_path / "spec.json"
    cs.save_spec(spec, path)
    assert cs.load_spec(path) == spec


def test_roundtrip_lossy_kappa(tmp_path):
    # epsilon = 4 + i, mu = 1 at omega = kappa0 -> Im kappa > 0 accepted
    k0 = 32 * math.pi
    kap = kappa_from_material(k0, 4 + 1j, 1.0)
    assert kap.imag > 0
    assert abs(kap - k0 * (4 + 1j) ** 0.5) <= 1e-9 * abs(kap)
    spec = cs.validate(cs.ProblemSpec(
        cs.IncidentWave(k0, math.pi / 3), "TM",
        (cs.Cavity(-0.03125, 0.03125, (cs.Layer(0.0, -0.015625, kap),)),), N=8))
    path = tmp_path / "lossy.json"
    cs.save_spec(spec, path)
    assert cs.load_spec(path) == spec


def test_ignored_lift_threshold_key_loads(tmp_path):
    # older spec files carry quadrature.lift_threshold and quadrature.bessel_K,
    # settings that are gone
    doc = spec_to_dict(example4_spec("TM"))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(doc))
    for key, value in [("lift_threshold", 7), ("bessel_K", 12)]:
        assert key not in doc["quadrature"]
        legacy = tmp_path / f"{key}.json"
        legacy.write_text(json.dumps({**doc, "quadrature": {**doc["quadrature"], key: value}}))
        assert cs.load_spec(legacy) == cs.load_spec(plain)


def test_missing_field_names_it(tmp_path):
    doc = spec_to_dict(example1_spec("TM"))
    del doc["kappa0"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecFileError) as exc:
        cs.load_spec(path)
    assert exc.value.field == "kappa0"


def test_schema_version_mismatch(tmp_path):
    doc = spec_to_dict(example1_spec("TM"))
    doc["schema"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecFileError) as exc:
        cs.load_spec(path)
    assert exc.value.field == "schema"


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"schema\": 1,\n")
    with pytest.raises(SpecFileError) as exc:
        cs.load_spec(path)
    assert "line" in str(exc.value)


def test_missing_file(tmp_path):
    with pytest.raises(SpecFileError):
        cs.load_spec(tmp_path / "nope.json")


@given(a=st.floats(-3, 3, allow_nan=False), w=st.floats(0.01, 2),
       d1=st.floats(0.05, 1), d2=st.floats(0.05, 1),
       kre=st.floats(0.1, 20), kim=st.floats(0, 5),
       kappa0=st.floats(0.1, 50), theta=st.floats(-1.5, 1.5),
       n=st.integers(1, 100))
def test_roundtrip_is_lossless(a, w, d1, d2, kre, kim, kappa0, theta, n):
    spec = cs.ProblemSpec(
        cs.IncidentWave(kappa0, theta), "TE",
        (cs.Cavity(a, a + w, (cs.Layer(0.0, -d1, complex(kre, kim)),
                              cs.Layer(-d1, -d1 - d2, complex(kre / 2, 0.0)))),),
        N=n)
    spec = cs.validate(spec)
    assert spec_from_dict(spec_to_dict(spec)) == spec


def _edited(edit):
    doc = spec_to_dict(example4_spec("TM"))
    edit(doc)
    return doc


@pytest.mark.parametrize("edit,field", [
    (lambda d: d.update(cavities=[1]), "cavities[0]"),
    (lambda d: d["cavities"].append("cavity"), "cavities[3]"),
    (lambda d: d["cavities"][1].update(layers=[{"y_bottom": -0.5, "kappa": [1, 0]}, 2]),
     "cavities[1].layers[1]"),
    (lambda d: d.update(quadrature=[1]), "quadrature"),
    (lambda d: d.update(cavities=5), "cavities"),
    (lambda d: d.update(cavities={"a": 0.0}), "cavities"),
    (lambda d: d["cavities"][2].update(layers=5), "cavities[2].layers"),
    (lambda d: d["cavities"][2].update(layers="layer"), "cavities[2].layers"),
])
def test_non_object_entries_name_the_field(edit, field):
    # a list or number where an object belongs, or a non-list where a list
    # belongs, is a spec error naming the field, not an AttributeError or a
    # TypeError from deep inside the parser
    with pytest.raises(SpecFileError) as exc:
        spec_from_dict(_edited(edit))
    assert exc.value.field == field


@pytest.mark.parametrize("key", ["N", "panels", "points_per_panel"])
@pytest.mark.parametrize("value", [2.7, True, "4"])
def test_integer_fields_reject_fractions_and_booleans(key, value):
    # int() would truncate 2.7 to 2 and read true as 1
    def edit(doc):
        (doc if key == "N" else doc["quadrature"])[key] = value
    with pytest.raises(SpecFileError) as exc:
        spec_from_dict(_edited(edit))
    assert exc.value.field == (key if key == "N" else f"quadrature.{key}")


def _layer(d, ci, li):
    return d["cavities"][ci]["layers"][li]


_FLOAT_FIELDS = [
    ("kappa0", lambda d, v: d.update(kappa0=v)),
    ("theta", lambda d, v: d.update(theta=v)),
    ("cavities[1].a", lambda d, v: d["cavities"][1].update(a=v)),
    ("cavities[1].b", lambda d, v: d["cavities"][1].update(b=v)),
    ("cavities[1].layers[2].y_bottom", lambda d, v: _layer(d, 1, 2).update(y_bottom=v)),
    ("cavities[2].layers[0].kappa", lambda d, v: _layer(d, 2, 0).update(kappa=[v, 0.0])),
    ("cavities[2].layers[0].kappa", lambda d, v: _layer(d, 2, 0).update(kappa=[1.0, v])),
]


@pytest.mark.parametrize("field,edit", _FLOAT_FIELDS)
@pytest.mark.parametrize("value", [True, False, "1.5", None, [1.0]])
def test_float_fields_reject_booleans_and_non_numbers(field, edit, value):
    # float() would read true as 1.0 and "1.5" as 1.5
    with pytest.raises(SpecFileError) as exc:
        spec_from_dict(_edited(lambda d: edit(d, value)))
    assert exc.value.field == field


@pytest.mark.parametrize("field,edit", [f for f in _FLOAT_FIELDS
                                        if f[0].endswith((".a", ".b", ".y_bottom"))])
@pytest.mark.parametrize("value", [float("inf"), -float("inf")])
def test_non_finite_geometry_names_the_field(tmp_path, field, edit, value):
    # an infinite aperture edge made the solve loop for ever
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_edited(lambda d: edit(d, value))))
    with pytest.raises(ValidationError) as exc:
        cs.load_spec(path)
    assert exc.value.field == field


def test_integer_valued_floats_load_as_floats():
    doc = _edited(lambda d: (d.update(kappa0=2, theta=0),
                             d["cavities"][0]["layers"][0].update(kappa=[3, 0])))
    spec = spec_from_dict(doc)
    assert (spec.wave.kappa0, spec.wave.theta) == (2.0, 0.0)
    assert type(spec.wave.kappa0) is float and spec.cavities[0].layers[0].kappa == 3 + 0j


def test_integral_float_counts_as_integer():
    doc = _edited(lambda d: (d.update(N=12.0), d["quadrature"].update(panels=32.0)))
    spec = spec_from_dict(doc)
    assert (spec.N, spec.quad.panels) == (12, 32)
    assert type(spec.N) is int and type(spec.quad.panels) is int
