"""Bundle serialization: canonical round-trips and malformed inputs."""

import json

import pytest

from orthokit import bundle, geom
from orthokit.build import build_phi_family, catalog_family
from orthokit.check import standard
from orthokit.errors import MalformedBundle


def test_round_trip_projective(tmp_path):
    fam = build_phi_family(2, 5, 3, 5)
    path = tmp_path / "fam.json"
    bundle.write_bundle(str(path), fam, {"construction": "phi-family",
                                         "parameters": {"q": 2, "r": 5}})
    spaces, prov = bundle.read_bundle(str(path))
    assert len(spaces) == 6
    assert prov["construction"] == "phi-family"
    for a, b in zip(fam, spaces):
        assert a.perm.tolist() == b.perm.tolist()
    assert spaces[0].geometry.same_as(fam[0].geometry)


def test_round_trip_affine(tmp_path):
    fam = catalog_family("AG3_F3_X8")
    path = tmp_path / "fam.json"
    bundle.write_bundle(str(path), fam)
    spaces, _ = bundle.read_bundle(str(path))
    assert len(spaces) == 8


def test_reserialization_is_byte_identical(tmp_path):
    fam = build_phi_family(3, 3, 7, 1)
    path = tmp_path / "fam.json"
    bundle.write_bundle(str(path), fam, {"reference": "x"})
    text = path.read_text()
    spaces, prov = bundle.read_bundle(str(path))
    assert bundle.canonical_json(bundle.bundle_dict(spaces, prov)) == text


def test_header_rebuilds_standard_space_bit_exactly(tmp_path):
    g = geom.projective(3, 3, labeling_modulus=[2, 0, 0, 2, 1], basis="desc")
    path = tmp_path / "s.json"
    bundle.write_bundle(str(path), [standard(g)])
    (s2,), _ = bundle.read_bundle(str(path))
    g2 = s2.geometry
    assert g2.same_as(g)
    assert g2.points() == g.points()
    assert (g2.lines() == g.lines()).all()


def test_cycles_accepted_on_read(tmp_path):
    g = geom.affine(2, 3)
    doc = bundle.bundle_dict([standard(g)])
    doc["spaces"] = [{"name": "cyc", "cycles": [[0, 1, 2]]}]
    spaces, _ = bundle.load_bundle(doc)
    assert spaces[0].perm.tolist()[:4] == [1, 2, 0, 3]


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("format_version"),
    lambda d: d.update(format_version=99),
    lambda d: d.pop("header"),
    lambda d: d["header"].pop("field"),
    lambda d: d["header"].update(kind="weird"),
    lambda d: d.update(spaces=[]),
    lambda d: d["spaces"][0].update(permutation=[0, 0, 2, 3, 4, 5, 6, 7, 8]),
    lambda d: d["spaces"][0].pop("permutation"),
    lambda d: d.update(provenance=[1, 2]),
    lambda d: d["spaces"][0]["permutation"].__setitem__(3, 3.0),
    lambda d: d["spaces"][0]["permutation"].__setitem__(3, "3"),
    lambda d: d["spaces"][0]["permutation"].__setitem__(1, True),
    lambda d: d["spaces"][0]["permutation"].__setitem__(3, 2 ** 70),
    lambda d: d["spaces"].__setitem__(0, {"cycles": [[-1, 0]]}),
    lambda d: d["spaces"].__setitem__(0, {"cycles": {"0": 1}}),
    lambda d: d["spaces"].__setitem__(0, [0, 1, 2]),
    # cycles that repeat a point, within one cycle or across two
    lambda d: d["spaces"].__setitem__(0, {"cycles": [[0, 1], [1, 0]]}),
    lambda d: d["spaces"].__setitem__(0, {"cycles": [[0, 1], [0, 1]]}),
    lambda d: d["spaces"].__setitem__(0, {"cycles": [[2, 2]]}),
])
def test_malformed_bundles_rejected(mangle):
    g = geom.affine(2, 3)
    doc = bundle.bundle_dict([standard(g)])
    doc = json.loads(json.dumps(doc))
    mangle(doc)
    with pytest.raises(MalformedBundle):
        bundle.load_bundle(doc)


def test_not_json_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{nope")
    with pytest.raises(MalformedBundle):
        bundle.read_bundle(str(path))


def test_mixed_geometries_rejected():
    a = standard(geom.affine(2, 3))
    b = standard(geom.affine(3, 3))
    with pytest.raises(MalformedBundle):
        bundle.bundle_dict([a, b])
