"""Bundle serialization: canonical round-trips and malformed inputs."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orthokit import bundle, geom, gf
from orthokit.build import (build_phi_family, catalog_family, catalog_names,
                            phi_space)
from orthokit.check import from_map, standard
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
    # a space name is a string or absent
    lambda d: d["spaces"][0].update(name={"a": 1}),
    lambda d: d["spaces"][0].update(name=3),
    lambda d: d["spaces"][0].update(name=None),
    lambda d: d["spaces"][0].update(name=["x"]),
    lambda d: d["spaces"][0].update(name=False),
])
def test_malformed_bundles_rejected(mangle):
    g = geom.affine(2, 3)
    doc = bundle.bundle_dict([standard(g)])
    doc = json.loads(json.dumps(doc))
    mangle(doc)
    with pytest.raises(MalformedBundle):
        bundle.load_bundle(doc)


@pytest.mark.parametrize("g, part", [
    (geom.affine(2, 9), "field"),
    (geom.projective(2, 3), "field"),
    (geom.projective(2, 3), "labeling"),
    (geom.projective(2, 4), "labeling"),
])
def test_header_primitive_must_be_the_fields(g, part):
    # the labelling field's primitive fixes the Singer labels, so another
    # one would reinterpret every permutation; an absent key is accepted
    doc = json.loads(json.dumps(bundle.bundle_dict([standard(g), standard(g)])))
    desc = doc["header"][part]
    right = desc["primitive"]
    for wrong in ([(c + 1) % desc["p"] for c in right], right + [0],
                  [bool(c) for c in right], "x", None):
        desc["primitive"] = wrong
        with pytest.raises(MalformedBundle, match="primitive"):
            bundle.load_bundle(doc)
    del desc["primitive"]
    spaces, _ = bundle.load_bundle(doc)
    assert spaces[0].geometry.same_as(g)


@pytest.mark.parametrize("part", ["field", "labeling"])
def test_header_moduli_must_be_integer_lists(part):
    g = geom.projective(2, 4)
    doc = json.loads(json.dumps(bundle.bundle_dict([standard(g)])))
    right = doc["header"][part]["modulus"]
    for wrong in ([float(c) for c in right], [bool(c) for c in right],
                  right[:-1] + [1.0], "x", {"0": 1}):
        doc["header"][part]["modulus"] = wrong
        with pytest.raises(MalformedBundle, match="moduli"):
            bundle.load_bundle(doc)


def test_refused_float_modulus_leaves_the_field_cache_as_it_was(tmp_path):
    # 1.0 == 1, so a float labelling modulus once built a field cached
    # under the integer key, and a later canonical read got its floats
    g = geom.projective(2, 4)
    text = bundle.canonical_json(bundle.bundle_dict([standard(g)]))
    doc = json.loads(text)
    doc["header"]["labeling"]["modulus"] = [
        float(c) for c in doc["header"]["labeling"]["modulus"]]
    (tmp_path / "float.json").write_text(json.dumps(doc))
    (tmp_path / "canon.json").write_text(text)
    gf._cached_field.cache_clear()
    with pytest.raises(MalformedBundle, match="moduli"):
        bundle.read_bundle(str(tmp_path / "float.json"))
    spaces, prov = bundle.read_bundle(str(tmp_path / "canon.json"))
    bundle.write_bundle(str(tmp_path / "again.json"), spaces, prov)
    assert (tmp_path / "again.json").read_text() == text


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


def test_missing_name_defaults_to_the_space_index():
    doc = bundle.bundle_dict([standard(geom.affine(2, 3))] * 2)
    del doc["spaces"][1]["name"]
    spaces, _ = bundle.load_bundle(doc)
    assert [s.name for s in spaces] == ["standard", "space[1]"]


# ----------------------------------------------------------------------
# the writer gives the bytes of canonical_json(bundle_dict(...))
# ----------------------------------------------------------------------

def assert_writes_oracle(path, spaces, provenance=None):
    bundle.write_bundle(str(path), spaces, provenance)
    oracle = bundle.canonical_json(bundle.bundle_dict(spaces, provenance))
    assert path.read_bytes() == oracle.encode("ascii")


def named(spaces, names):
    return [from_map(s.geometry, s.perm, name=n) for s, n in zip(spaces, names)]


def test_writer_equals_oracle_desc_basis_and_labeling_modulus(tmp_path):
    g = geom.projective(3, 3, labeling_modulus=[2, 0, 0, 2, 1], basis="desc")
    assert_writes_oracle(tmp_path / "b.json",
                         [standard(g), phi_space(g, 1), phi_space(g, 7)])


def test_writer_equals_oracle_catalog_family(tmp_path):
    assert_writes_oracle(tmp_path / "b.json", catalog_family("AG3_F3_X8"),
                         {"construction": "catalog",
                          "parameters": {"name": "AG3_F3_X8"}})


def test_writer_equals_oracle_after_a_cycle_form_read(tmp_path):
    g = geom.affine(2, 3)
    doc = bundle.bundle_dict([standard(g)] * 2)
    doc["spaces"] = [{"name": "cyc", "cycles": [[0, 1, 2], [5, 8]]},
                     {"cycles": []}]
    spaces, prov = bundle.load_bundle(doc)
    assert_writes_oracle(tmp_path / "b.json", spaces, prov)


@pytest.mark.parametrize("name", ['say "x"', "back\\slash", "tab\tnul\x00",
                                  "ëλ→ℤ", "\U0001d53d_q", ""])
def test_writer_equals_oracle_on_awkward_names(tmp_path, name):
    g = geom.affine(2, 3)
    spaces = named([standard(g), standard(g)], [name, name + "!"])
    assert_writes_oracle(tmp_path / "b.json", spaces)
    back, _ = bundle.read_bundle(str(tmp_path / "b.json"))
    assert [s.name for s in back] == [name, name + "!"]


def test_writer_equals_oracle_on_nested_provenance(tmp_path):
    prov = {"construction": "phi-family",
            "parameters": {"q": 2, "w": [3, {"z": None, "a": [1.5, True]}],
                           "nested": {"b": {"c": "\u00e9"}, "a": []}},
            "reference": "x", "extra": {"y": 1, "x": 2}}
    assert_writes_oracle(tmp_path / "b.json", build_phi_family(2, 5, 3, 5), prov)


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(names=st.lists(st.text(max_size=8), min_size=1, max_size=4))
def test_writer_equals_oracle_on_random_names(tmp_path, names):
    g = geom.affine(2, 3)
    assert_writes_oracle(tmp_path / "b.json",
                         named([standard(g)] * len(names), names))


@pytest.mark.parametrize("refused", [
    [],
    [standard(geom.affine(2, 3)), standard(geom.affine(3, 3))],
])
def test_refused_write_keeps_the_existing_file(tmp_path, refused):
    path = tmp_path / "b.json"
    bundle.write_bundle(str(path), build_phi_family(2, 5, 3, 5))
    before = path.read_bytes()
    with pytest.raises(MalformedBundle):
        bundle.write_bundle(str(path), refused)
    assert path.read_bytes() == before


# ----------------------------------------------------------------------
# a bad permutation list is refused by Space, and the refusal names its space
# ----------------------------------------------------------------------

def _entry(value):
    """Set the entry of the last space's permutation that equals value's
    number to value itself, so only the type test can refuse it."""
    def mangle(perms):
        perms[2][perms[2].index(int(value))] = value
    return mangle


@pytest.mark.parametrize("space, mangle", [
    (1, lambda perms: perms[1].pop()),
    (1, lambda perms: perms[1].append(0)),
    (2, lambda perms: perms[2].__setitem__(5, -1)),
    (1, lambda perms: perms[1].__setitem__(4, 2 ** 70)),
    (1, lambda perms: perms[1].__setitem__(4, -2 ** 70)),
    (2, _entry(True)),
    (2, _entry(3.0)),
    (1, lambda perms: perms[1].__setitem__(0, perms[1][1])),
    (0, lambda perms: perms[0].__setitem__(7, 27)),
])
def test_batched_read_refuses_a_bad_permutation(space, mangle):
    doc = json.loads(json.dumps(
        bundle.bundle_dict(catalog_family("AG3_F3_X8")[:3])))
    mangle([item["permutation"] for item in doc["spaces"]])
    with pytest.raises(MalformedBundle, match=f"space {space}"):
        bundle.load_bundle(doc)


def _cycles(perm):
    """The cycles of a permutation, fixed points left out."""
    seen, out = set(), []
    for a in range(len(perm)):
        cyc = []
        while a not in seen:
            seen.add(a)
            cyc.append(a)
            a = int(perm[a])
        if len(cyc) > 1:
            out.append(cyc)
    return out


def test_mixed_cycle_and_permutation_spaces_read_back():
    fam = catalog_family("AG3_F3_X8")[:4]
    doc = json.loads(json.dumps(bundle.bundle_dict(fam)))
    for i in (0, 2):
        doc["spaces"][i] = {"name": f"c{i}", "cycles": _cycles(fam[i].perm)}
    spaces, _ = bundle.load_bundle(doc)
    assert [s.name for s in spaces] == ["c0", fam[1].name, "c2", fam[3].name]
    assert all(a.perm.tolist() == b.perm.tolist() for a, b in zip(fam, spaces))


# ----------------------------------------------------------------------
# read_bundle against the oracle load_bundle(json.loads(text))
# ----------------------------------------------------------------------

LAYOUTS = {
    "canonical": bundle.canonical_json,
    "json.dumps": json.dumps,
    "indent=2": lambda doc: json.dumps(doc, indent=2),
}
FAMILIES = {name: lambda name=name: catalog_family(name)
            for name in catalog_names()}
FAMILIES["PG(6,3) phi x78"] = lambda: build_phi_family(3, 7, 25, 77)


def _listed(doc, path=()):
    """A document of ``bundle._parse`` as json.loads gives it: each int64
    row made a list, where it must be a space's permutation."""
    if isinstance(doc, np.ndarray):
        assert path[::2] == ("spaces", "permutation"), path
        assert doc.dtype == np.int64
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _listed(v, path + (k,)) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_listed(v, path + (i,)) for i, v in enumerate(doc)]
    return doc


def assert_parses_like_json(text):
    """``bundle._parse(text)`` is ``json.loads(text)`` but for its int64
    rows, down to key order and number types, or raises what it raises."""
    def outcome(parse):
        try:
            return json.dumps(_listed(parse(text)))
        except ValueError as exc:
            return type(exc), str(exc)
    assert outcome(bundle._parse) == outcome(json.loads)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("family", FAMILIES)
def test_reader_equals_oracle_on_every_family(assert_reads_like_json,
                                              family, layout):
    fam = FAMILIES[family]()
    text = LAYOUTS[layout](bundle.bundle_dict(fam, {"construction": family}))
    names, perms, prov = assert_reads_like_json(text)
    assert names == [s.name for s in fam]
    assert perms == [s.perm.tolist() for s in fam]
    assert prov["construction"] == family
    # every row took the numpy path
    rows = [item["permutation"] for item in bundle._parse(text)["spaces"]]
    assert all(type(row) is np.ndarray for row in rows)
    assert_parses_like_json(text)


@pytest.mark.parametrize("body, row", [
    ("0", [0]), ("0,10,0", [0, 10, 0]), (" 1 ,\t2\r\n", [1, 2]),
    ("1" * 18, [int("1" * 18)]),
])
def test_int_row_reads_plain_integers(body, row):
    assert bundle._int_row(body).tolist() == row


@pytest.mark.parametrize("body", [
    "0,01", "00", "-0", "+1", "1 2", "1\n0", "", " ", "\n\n", "1,,2", ",1",
    "1,", "1.0", "1e0", "NaN", '"1"', "[0]", "\uff11", "1\f2", "1" * 19,
    "9" * 25,
])
def test_int_row_leaves_any_other_body_to_json(body):
    # numpy would misread or half-read each of these
    assert bundle._int_row(body) is None


def _two_spaces():
    g = geom.affine(2, 3)
    return bundle.canonical_json(bundle.bundle_dict(
        named([standard(g), standard(g)], ["a", "b"]), {"reference": "r"}))


ROW = "[0,1,2,3,4,5,6,7,8]"
FIRST = '{"name":"a","permutation":' + ROW + "}"


def _row(new):
    return lambda text: text.replace(ROW, new, 1)


def _sub(old, new):
    return lambda text: text.replace(old, new, 1)


RAW_EDITS = {
    "leading zero": _row("[0,01,2,3,4,5,6,7,8]"),
    "leading zero first": _row("[00,1,2,3,4,5,6,7,8]"),
    "leading zero last": _row("[0,1,2,3,4,5,6,7,08]"),
    "minus zero": _row("[-0,1,2,3,4,5,6,7,8]"),
    "plus sign": _row("[0,+1,2,3,4,5,6,7,8]"),
    "18 digits": _row("[0,1,2,3,4,5,6,7,100000000000000008]"),
    "19 digits": _row("[0,1,2,3,4,5,6,7,1000000000000000008]"),
    "19 digits in int64": _row("[0,1,2,3,4,5,6,7,9223372036854775807]"),
    "25 digits": _row("[0,1,2,3,4,5,6,7,1000000000000000000000008]"),
    "space inside an entry": _row("[0,1 2,3,4,5,6,7,8]"),
    "newline before a comma": _row("[0,1,2,3,4,5,6,7\n,8]"),
    "whitespace around entries": _row("[ 0 ,\t1,\r\n2 , 3,4,5,6,7,8\n ]"),
    "whitespace split entry": _row("[0,1,2,3,4,5,6,7,1\n0]"),
    "empty": _row("[]"),
    "blank": _row("[ ]"),
    "blank lines": _row("[\n\n]"),
    "double comma": _row("[0,1,,2,3,4,5,6,7,8]"),
    "leading comma": _row("[,0,1,2,3,4,5,6,7,8]"),
    "trailing comma": _row("[0,1,2,3,4,5,6,7,8,]"),
    "float": _row("[0,1.0,2,3,4,5,6,7,8]"),
    "exponent": _row("[0,1e0,2,3,4,5,6,7,8]"),
    "bool": _row("[0,true,2,3,4,5,6,7,8]"),
    "NaN": _row("[0,NaN,2,3,4,5,6,7,8]"),
    "Infinity": _row("[0,1,2,3,4,5,6,7,Infinity]"),
    "a string holding a bracket": _row('[0,"]",2,3,4,5,6,7,8]'),
    "nested": _row("[[0],1,2,3,4,5,6,7,8]"),
    "full-width digit": _row("[0,\uff11,2,3,4,5,6,7,8]"),
    "unclosed row": lambda text: text[:text.index(ROW) + 6],
    "row as a string": _row('"0,1,2,3,4,5,6,7,8"'),
    "duplicate permutation": _sub(FIRST, FIRST[:-1] + ',"permutation":'
                                  + "[1,0,2,3,4,5,6,7,8]}"),
    "duplicate spaces, the last kept": _sub('"spaces":[',
                                            '"spaces":[],"spaces":['),
    "duplicate spaces, empty last": lambda text: text[:-2] + ',"spaces":[]}\n',
    "permutation in the provenance":
        _sub('"provenance":{', '"provenance":{"permutation":[0,1],'),
    "permutation in the header": _sub('"header":{',
                                      '"header":{"permutation":[0,1],'),
    "escaped key": _sub('"permutation"', '"permut\\u0061tion"'),
    "non-ASCII name": _sub('"name":"a"', '"name":"\u00ebλ→ℤ"'),
    "tab in a name": _sub('"name":"a"', '"name":"a\tb"'),
    "space not an object": _sub(FIRST, ROW),
    "spaces not a list":
        lambda text: text[:text.index('"spaces":')] + '"spaces":{}}',
    "trailing data": lambda text: text + "x",
    "trailing object": lambda text: text + "{}",
    "trailing whitespace": lambda text: text + " \n\t",
    "leading whitespace": lambda text: "\r\n " + text,
    "byte order mark": lambda text: "\ufeff" + text,
    "truncated": lambda text: text[:-10],
    "empty text": lambda text: "",
    "root a list": lambda text: "[" + text + "]",
    "integer past the digit limit": _sub('"reference":"r"',
                                         '"reference":' + "1" * 5000),
}


@pytest.mark.parametrize("edit", RAW_EDITS)
def test_reader_equals_oracle_on_raw_text(assert_reads_like_json, edit):
    text = RAW_EDITS[edit](_two_spaces())
    assert text != _two_spaces()
    assert_reads_like_json(text)
    assert_parses_like_json(text)


def test_nesting_past_the_recursion_limit_is_malformed(tmp_path):
    path = tmp_path / "deep.json"
    text = _two_spaces()
    path.write_text(text.replace('"reference":"r"',
                                 '"reference":' + "[" * 200_000))
    with pytest.raises(MalformedBundle, match="recursion"):
        bundle.read_bundle(str(path))


def test_repeated_reads_build_the_field_once(tmp_path, monkeypatch):
    # the header's field comes from the field cache, so five reads of one
    # AG(2,9) bundle build GF(9) once
    from orthokit.build import build_char_p_pair
    path = str(tmp_path / "ag29.json")
    bundle.write_bundle(path, list(build_char_p_pair(3, 2, 2)[:2]))
    built = []
    init = gf.GF.__init__

    def counting(self, p, n, modulus=None):
        built.append((p, n))
        init(self, p, n, modulus)
    gf._cached_field.cache_clear()
    monkeypatch.setattr(gf.GF, "__init__", counting)
    for _ in range(5):
        spaces, _ = bundle.read_bundle(path)
        assert len(spaces) == 2
    assert built == [(3, 2)]


@pytest.mark.parametrize("modulus", [[1, 0, 1], [2, 1, 2], [2, 1]],
                         ids=["reducible", "non-monic", "wrong-degree"])
def test_bad_header_modulus_exits_3(tmp_path, capsys, modulus):
    # x^2 + 1 = (x + 1)^2 over GF(2); a cached field never stands in for
    # a modulus the field constructor refuses
    from orthokit import cli
    g = geom.affine(2, 4)
    doc = json.loads(json.dumps(bundle.bundle_dict([standard(g), standard(g)])))
    doc["header"]["field"]["modulus"] = modulus
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for _ in range(2):
        assert cli.main(["verify", str(path)]) == 3
        assert "malformed" in capsys.readouterr().err
