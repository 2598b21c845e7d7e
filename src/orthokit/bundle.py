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
space list left empty, and each permutation is joined from one
fixed-width byte table of the N decimal point labels, made once per
bundle: the row's gathered labels, less their zero padding.  The whole
text is built, and every refusal raised, before the file is opened, so
a refused write leaves an existing file as it was.

``read_bundle`` makes no Python int per point.  It walks the top object
and its ``spaces`` with the json module's own C pieces: keys by
``scanstring``, every other value by ``raw_decode``.  A ``permutation``
array whose body holds only integers with no sign and no leading zero,
between commas and JSON whitespace (as ``bytes.translate`` and a few
numpy comparisons over its bytes show), is parsed by ``np.fromstring``
into an int64 array, kept when each entry is below 10^18, that is of at
most 18 digits.  Any other array goes to ``raw_decode``, and any text
the walk does not expect goes to ``json.loads`` whole, so what is
accepted and every refusal stay json's own.  ``load_bundle`` is the one
validator: it takes such an int64 row as type-tested, type-tests a
permutation list with builtins (a bool is not an int) and makes one
``np.array`` of it, and ``Space``, the one permutation check, decides
length, range and bijection; spaces given as cycles are checked for
range and repeats first.  In one process on a 2-core box (Python 3.11,
numpy 2.4), the 78-space PG(6,3) family (1,093 points, a 343 kB file)
writes in about 1.8 ms and reads in 4.4 ms (best of 5 per process, least
over 10 processes; 11.9 ms through ``json.load``), and the 630-space
PG(12,2) transversal (8,191 points, 25 MB) reads in 0.26-0.33 s at a
peak RSS of 109 MB (0.85 s and 263 MB through ``json.load``).
"""

from __future__ import annotations

import json

import numpy as np

from . import geom
from .check import Space, from_map, perm_from_cycles
from .errors import MalformedBundle, OrthokitError
from .gf import GF, field_create

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
    permutation joined from one fixed-width table of decimal point
    labels."""
    frame = canonical_json(_frame(spaces, provenance))
    # label i is b"i," in a fixed-width bytes array, padded with zero
    # bytes: a row is its gathered bytes less the zeros and the last comma
    labels = np.array([b"%d," % i
                       for i in range(spaces[0].geometry.point_count)])
    items = ",".join(
        '{"name":' + _encode(s.name) + ',"permutation":['
        + labels.take(s.perm).tobytes().translate(None, b"\0")[:-1].decode()
        + "]}" for s in spaces)
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
    # a float or bool coefficient equals an integer one, so it would be
    # taken for it, and written back as a float
    if not _is_int_list(fdesc.get("modulus")) or not (
            modulus is None or _is_int_list(modulus)):
        raise MalformedBundle("header field and labeling moduli must be "
                              "lists of integers")
    try:
        field = field_create(p, n, fdesc["modulus"])
        g = geom.Geometry(kind, dim, field=field, labeling_modulus=modulus,
                          basis=basis)
        g._check_cap()
        if kind == geom.PROJECTIVE:
            # the label map refuses basis exponents that give no basis
            g._basis_matrix()
    except (KeyError, OrthokitError, TypeError, ValueError) as exc:
        raise MalformedBundle(f"geometry header is malformed: {exc}")
    _check_primitive(fdesc, g.field, "field")
    if kind == geom.PROJECTIVE:
        _check_primitive(labeling, g.labeling_field, "labeling")
    return g


def _check_primitive(desc: dict, field: GF, what: str):
    """A header's ``primitive``, when given, must be the one the field
    fixes: the labelling field's primitive fixes the Singer labels, so
    another one would silently reinterpret every permutation."""
    if "primitive" not in desc:
        return
    value, want = desc["primitive"], field.describe()["primitive"]
    if not _is_int_list(value) or value != want:
        raise MalformedBundle(f"header {what} primitive {value!r} disagrees "
                              f"with the field's {want}")


def _is_int_list(value) -> bool:
    """A JSON list of integers, by a builtin type test over the whole
    list; a bool is not an int here."""
    return isinstance(value, list) and set(map(type, value)) <= {int}


def _int_list(value, n: int, what: str) -> list[int]:
    if not _is_int_list(value):
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
    spaces = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise MalformedBundle(f"space {i} must be an object")
        name = item.get("name", f"space[{i}]")
        if not isinstance(name, str):
            raise MalformedBundle(f"space {i}: name must be a string, "
                                  f"got {type(name).__name__}")
        if "permutation" in item:
            perm = item["permutation"]
            # read_bundle parses a row of plain integers straight to an
            # int64 array; Space refuses an array of any other kind
            if type(perm) is not np.ndarray:
                row = _int_list(perm, n, f"space {i}: permutation")
                try:
                    perm = np.array(row, dtype=np.int64)
                except OverflowError:
                    raise MalformedBundle(f"space {i}: permutation must be "
                                          f"a list of integers in [0, {n})")
        else:
            perm = _space_perm(item, n, i)
        try:
            spaces.append(from_map(g, perm, name=name))
        except ValueError as exc:
            raise MalformedBundle(f"space {i}: {exc}")
    prov = data.get("provenance", {})
    if not isinstance(prov, dict):
        raise MalformedBundle("provenance must be an object")
    return spaces, prov


# ----------------------------------------------------------------------
# reading: the json module's own C pieces, and permutation rows in numpy
# ----------------------------------------------------------------------

_ws = json.decoder.WHITESPACE.match
_scan_key = json.decoder.scanstring
_decode = json.JSONDecoder().raw_decode

_JSON_WS = b" \t\n\r"
# an entry of at most 18 digits with no leading zero is below this, and
# numpy reads a longer one as at least this (it saturates at int64's top)
_ENTRY_LIMIT = 10 ** 18


class _Surprise(Exception):
    """The text leaves the layout the bundle walker reads."""


def _int_row(body: str):
    """The entries of the JSON array body ``body`` as an int64 array, when
    it holds only integers of 1 to 18 digits with no sign and no leading
    zero, separated by commas and whitespace; None for any other body."""
    if not body.isascii():
        return None
    raw = body.encode("ascii")
    spaces = raw.translate(None, b"0123456789,")
    if spaces.translate(None, _JSON_WS):
        return None
    compact = raw.translate(None, _JSON_WS) if spaces else raw
    # entry i follows comma i, counting one put in front: refuse an
    # empty entry and an entry that starts with 0 and goes on
    b = np.frombuffer(b"," + compact, dtype=np.uint8)
    comma = b == ord(",")
    if (comma[-1] or (comma[1:] & comma[:-1]).any()
            or ((b[1:-1] == ord("0")) & comma[:-2] & ~comma[2:]).any()):
        return None
    if spaces:
        # as many digit runs as entries: no whitespace inside an entry
        # (digits are the only bytes left above ",")
        digit = np.frombuffer(raw, dtype=np.uint8) > ord(",")
        runs = np.count_nonzero(digit[1:] > digit[:-1]) + digit[0]
        if runs != np.count_nonzero(comma):
            return None
    row = np.fromstring(compact, dtype=np.int64, sep=",")
    return row if row.max() < _ENTRY_LIMIT else None


def _items(text: str, i: int, read, keyed: bool) -> tuple[list, int]:
    """The items of the JSON object (``keyed``) or array at ``text[i]``,
    each value read by ``read(key, text, j)`` (key None in an array), an
    object's as (key, value) pairs; and the index just past it."""
    if text[i] != ("{" if keyed else "["):
        raise _Surprise
    close = "}" if keyed else "]"
    out = []
    i = _ws(text, i + 1).end()
    if text[i] == close:
        return out, i + 1
    while True:
        key = None
        if keyed:
            if text[i] != '"':
                raise _Surprise
            key, i = _scan_key(text, i + 1)
            i = _ws(text, i).end()
            if text[i] != ":":
                raise _Surprise
            i = _ws(text, i + 1).end()
        value, i = read(key, text, i)
        out.append((key, value) if keyed else value)
        i = _ws(text, i).end()
        if text[i] == close:
            return out, i + 1
        if text[i] != ",":
            raise _Surprise
        i = _ws(text, i + 1).end()


def _top_member(key: str, text: str, i: int):
    if key == "spaces":
        return _items(text, i, _space, keyed=False)
    return _decode(text, i)


def _space(_, text: str, i: int):
    if text[i] != "{":
        return _decode(text, i)
    members, i = _items(text, i, _space_member, keyed=True)
    return dict(members), i


def _space_member(key: str, text: str, i: int):
    if key == "permutation" and text[i] == "[":
        end = text.find("]", i)
        row = _int_row(text[i + 1:end]) if end > 0 else None
        if row is not None:
            return row, end + 1
    return _decode(text, i)


def _parse(text: str) -> dict:
    """``json.loads(text)``, except that a space's ``permutation`` array of
    plain integers comes back as an int64 array: the top object and its
    ``spaces`` are walked with the json module's key scanner and value
    decoder, and any text the walk does not expect goes to ``json.loads``
    whole, so what is accepted and every refusal stay json's own."""
    try:
        members, i = _items(text, _ws(text, 0).end(), _top_member, keyed=True)
        if _ws(text, i).end() != len(text):
            raise _Surprise
        return dict(members)
    except (_Surprise, IndexError, ValueError):
        return json.loads(text)


def read_bundle(path: str) -> tuple[list[Space], dict]:
    with open(path, encoding="utf-8") as fh:
        try:
            data = _parse(fh.read())
        except (ValueError, RecursionError) as exc:
            # undecodable bytes, bad JSON, an integer past Python's digit
            # limit or nesting past the recursion limit
            raise MalformedBundle(f"not valid JSON: {exc}")
    return load_bundle(data)
