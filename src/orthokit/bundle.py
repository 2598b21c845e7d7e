"""Canonical on-disk format for families of spaces.

A bundle is a single JSON document holding a geometry header (enough to
rebuild the standard space bit-exactly, including the field modulus and
the labelling basis), every space as an explicit point permutation or
cycle list, and free-form provenance.  Serialization is canonical
(sorted keys, fixed separators, trailing newline) so writing the same
family twice gives byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from . import geom
from .check import Space, from_map, perm_from_cycles
from .errors import MalformedBundle, OrthokitError
from .gf import GF

FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def bundle_dict(spaces: list[Space], provenance: dict = None) -> dict:
    if not spaces:
        raise MalformedBundle("a bundle needs at least one space")
    g = spaces[0].geometry
    for s in spaces[1:]:
        if not g.same_as(s.geometry):
            raise MalformedBundle("all spaces in a bundle share one geometry")
    header = {
        "kind": g.kind,
        "dim": g.dim,
        "q": g.q,
        "field": g.field.describe(),
    }
    if g.kind == geom.PROJECTIVE:
        header["basis"] = list(g.basis)
        header["labeling"] = g.labeling_field.describe()
    prov = {"construction": "", "parameters": {}, "reference": ""}
    prov.update(provenance or {})
    return {
        "format_version": FORMAT_VERSION,
        "header": header,
        "spaces": [
            {"name": s.name, "permutation": s.perm.tolist()}
            for s in spaces
        ],
        "provenance": prov,
    }


def write_bundle(path: str, spaces: list[Space], provenance: dict = None):
    with open(path, "w") as fh:
        fh.write(canonical_json(bundle_dict(spaces, provenance)))


def _header_int(obj: dict, key: str, lo: int, hi: int) -> int:
    value = obj.get(key)
    if type(value) is not int or not lo <= value <= hi:
        raise MalformedBundle(
            f"header {key!r} must be an integer in [{lo}, {hi}], got {value!r}")
    return value


def _geometry_from_header(header: dict) -> geom.Geometry:
    """The standard geometry a header describes.  Sizes are checked
    before anything is built, so a bad header allocates nothing large,
    and any construction error is a malformed bundle."""
    if not isinstance(header, dict):
        raise MalformedBundle("bundle header must be an object")
    kind = header.get("kind")
    if kind not in (geom.AFFINE, geom.PROJECTIVE):
        raise MalformedBundle(f"unknown geometry kind {kind!r}")
    fdesc = header.get("field")
    if not isinstance(fdesc, dict):
        raise MalformedBundle("geometry header is incomplete: no field")
    q = _header_int(header, "q", 2, geom.MAX_POINTS)
    p = _header_int(fdesc, "p", 2, q)
    n = _header_int(fdesc, "n", 1, q.bit_length())
    if p ** n != q:
        raise MalformedBundle(f"header q = {q} disagrees with the field GF({p}^{n})")
    dim = _header_int(header, "dim", 1, geom.MAX_POINTS)
    labeling, basis, modulus = {}, "phi", None
    if kind == geom.PROJECTIVE:
        labeling = header.get("labeling", {})
        basis = header.get("basis", "phi")
        if not isinstance(labeling, dict) or not (
                basis in ("phi", "desc") or (
                    isinstance(basis, list) and len(basis) == dim + 1
                    and all(type(b) is int for b in basis))):
            raise MalformedBundle("projective header needs a labeling object "
                                  "and a basis of dim+1 exponents")
        modulus = labeling.get("modulus")
    try:
        field = GF(p, n, modulus=fdesc["modulus"])
        g = geom.Geometry(kind, dim, field=field, labeling_modulus=modulus,
                          basis=basis)
        g._check_cap()
        if kind == geom.PROJECTIVE:
            # the label map refuses basis exponents that give no basis
            g._basis_matrix()
    except (KeyError, OrthokitError, TypeError, ValueError) as exc:
        raise MalformedBundle(f"geometry header is malformed: {exc}")
    return g


def _point_list(value, n: int, what: str) -> list[int]:
    """A JSON list of point indices: integers in [0, n).  Types, then
    the range, are checked by builtins over the whole list; a bool is
    not an int here."""
    if not isinstance(value, list) or not set(map(type, value)) <= {int} or (
            value and not 0 <= min(value) <= max(value) < n):
        raise MalformedBundle(f"{what} must be a list of integers in [0, {n})")
    return value


def _space_perm(item, n: int, i: int) -> np.ndarray:
    if not isinstance(item, dict):
        raise MalformedBundle(f"space {i} must be an object")
    if "permutation" in item:
        perm = _point_list(item["permutation"], n, f"space {i}: permutation")
    elif "cycles" in item:
        cycles = item["cycles"]
        if not isinstance(cycles, list):
            raise MalformedBundle(f"space {i}: cycles must be a list")
        points = [x for cyc in cycles
                  for x in _point_list(cyc, n, f"space {i}: cycle")]
        if len(set(points)) != len(points):
            raise MalformedBundle(f"space {i}: cycles repeat a point")
        perm = perm_from_cycles(n, cycles)
    else:
        raise MalformedBundle(f"space {i} has neither permutation nor cycles")
    perm = np.asarray(perm, dtype=np.int64)
    if len(perm) != n or (np.bincount(perm, minlength=n) != 1).any():
        raise MalformedBundle(
            f"space {i}: permutation is not a bijection on {n} points")
    return perm


def load_bundle(data) -> tuple[list[Space], dict]:
    """Spaces and provenance from a parsed bundle document."""
    if not isinstance(data, dict):
        raise MalformedBundle("bundle root must be a JSON object")
    if data.get("format_version") != FORMAT_VERSION:
        raise MalformedBundle(
            f"unsupported format_version {data.get('format_version')!r}")
    g = _geometry_from_header(data.get("header"))
    raw = data.get("spaces")
    if not isinstance(raw, list) or not raw:
        raise MalformedBundle("bundle has no spaces")
    n = g.point_count
    spaces = [from_map(g, _space_perm(item, n, i),
                       name=item.get("name", f"space[{i}]"))
              for i, item in enumerate(raw)]
    prov = data.get("provenance", {})
    if not isinstance(prov, dict):
        raise MalformedBundle("provenance must be an object")
    return spaces, prov


def read_bundle(path: str) -> tuple[list[Space], dict]:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MalformedBundle(f"not valid JSON: {exc}")
    return load_bundle(data)
