"""Canonical on-disk format for families of spaces.

A bundle is a single JSON document holding a geometry header (enough to
rebuild the standard space bit-exactly, including the field modulus and
the labelling basis), every space as an explicit point permutation or
cycle list, and free-form provenance.  Serialization is canonical
(sorted keys, fixed separators, trailing newline) so writing the same
family twice gives byte-identical files.

``canonical_json(bundle_dict(spaces, provenance))`` defines the bytes.
``write_bundle`` writes those bytes without encoding one Python int at a
time: the header and provenance are encoded by the same code, with the
space list left empty, and each permutation is joined from one table of
the N decimal point labels, made once per bundle.  The whole text is
built, and every refusal raised, before the file is opened, so a
refused write leaves an existing file as it was.  ``load_bundle`` runs
a builtin type test on each permutation list (a bool is not an int),
converts all of them with one ``np.array`` and checks range and
bijection once on that S x N array; spaces given as cycles are checked
one by one.  On the 78-space PG(6,3) family (1,093 points, a 343 kB
file), best of 9 x 10 in one process on a 2-core box (Python 3.11,
numpy 2.4): ``write_bundle`` 12.2 -> 3.4 ms, ``read_bundle`` 14.0 ->
11.7 ms, of which ``json.load`` alone is about 7 ms.
"""

from __future__ import annotations

import json

import numpy as np

from . import geom
from .check import Space, from_map, perm_from_cycles
from .errors import MalformedBundle, OrthokitError
from .gf import GF

FORMAT_VERSION = 1

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(obj) -> str:
    return _encode(obj) + "\n"


def _frame(spaces: list[Space], provenance: dict = None) -> dict:
    """The bundle document of ``spaces`` with its space list left empty:
    the family checks, the header and the provenance."""
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
        "spaces": [],
        "provenance": prov,
    }


def bundle_dict(spaces: list[Space], provenance: dict = None) -> dict:
    doc = _frame(spaces, provenance)
    doc["spaces"] = [{"name": s.name, "permutation": s.perm.tolist()}
                     for s in spaces]
    return doc


def _bundle_text(spaces: list[Space], provenance: dict = None) -> str:
    """``canonical_json(bundle_dict(spaces, provenance))``, with each
    permutation joined from one table of decimal point labels."""
    frame = canonical_json(_frame(spaces, provenance))
    labels = np.array([str(i) for i in range(spaces[0].geometry.point_count)],
                      dtype=object)
    items = ",".join(
        '{"name":' + _encode(s.name) + ',"permutation":['
        + ",".join(labels[s.perm]) + "]}" for s in spaces)
    # "spaces" sorts last: the frame ends '"spaces":[]}\n', and the
    # items go between those brackets
    return frame[:-3] + items + frame[-3:]


def write_bundle(path: str, spaces: list[Space], provenance: dict = None):
    text = _bundle_text(spaces, provenance)
    with open(path, "w") as fh:
        fh.write(text)


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


def _int_list(value, n: int, what: str) -> list[int]:
    """A JSON list of integers, by a builtin type test over the whole
    list; a bool is not an int here."""
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise MalformedBundle(f"{what} must be a list of integers in [0, {n})")
    return value


def _point_list(value, n: int, what: str) -> list[int]:
    """A JSON list of point indices: integers in [0, n)."""
    if _int_list(value, n, what) and not 0 <= min(value) <= max(value) < n:
        raise MalformedBundle(f"{what} must be a list of integers in [0, {n})")
    return value


def _space_perm(item: dict, n: int, i: int) -> np.ndarray:
    """The permutation of a space given as disjoint cycles."""
    if "cycles" not in item:
        raise MalformedBundle(f"space {i} has neither permutation nor cycles")
    cycles = item["cycles"]
    if not isinstance(cycles, list):
        raise MalformedBundle(f"space {i}: cycles must be a list")
    points = [x for cyc in cycles
              for x in _point_list(cyc, n, f"space {i}: cycle")]
    if len(set(points)) != len(points):
        raise MalformedBundle(f"space {i}: cycles repeat a point")
    return perm_from_cycles(n, cycles)


def _perm_rows(rows: list[list[int]], which: list[int], n: int) -> np.ndarray:
    """The integer lists ``rows``, the permutations of spaces ``which``,
    as one S x n array: one conversion, then one range and one bijection
    check over the whole array."""
    for i, row in zip(which, rows):
        if len(row) != n:
            raise MalformedBundle(
                f"space {i}: permutation has {len(row)} entries, not {n}")
    try:
        perms = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    except OverflowError:
        # an entry beyond int64 is out of range; find a row that has one
        bad = [not 0 <= min(row) <= max(row) < n for row in rows]
    else:
        bad = (perms.min(axis=1) < 0) | (perms.max(axis=1) >= n)
    if np.any(bad):
        raise MalformedBundle(f"space {which[np.argmax(bad)]}: permutation "
                              f"must be a list of integers in [0, {n})")
    # n entries in [0, n) are a bijection when they hit every point
    hit = np.zeros((len(rows), n), dtype=bool)
    hit[np.arange(len(rows))[:, None], perms] = True
    bad = ~hit.all(axis=1)
    if bad.any():
        raise MalformedBundle(f"space {which[np.argmax(bad)]}: permutation "
                              f"is not a bijection on {n} points")
    return perms


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
    names, perms, rows, which = [], [], [], []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise MalformedBundle(f"space {i} must be an object")
        name = item.get("name", f"space[{i}]")
        if not isinstance(name, str):
            raise MalformedBundle(f"space {i}: name must be a string, "
                                  f"got {type(name).__name__}")
        names.append(name)
        if "permutation" in item:
            rows.append(_int_list(item["permutation"], n,
                                  f"space {i}: permutation"))
            which.append(i)
            perms.append(None)
        else:
            perms.append(_space_perm(item, n, i))
    for i, perm in zip(which, _perm_rows(rows, which, n)):
        perms[i] = perm
    spaces = [from_map(g, perm, name=name) for perm, name in zip(perms, names)]
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
