"""Constructions: no-root coefficient search, characteristic-p maps,
product families, power maps on Singer labels, and the explicit
permutation catalog.

Constructors only build; verification lives in :mod:`orthokit.check`, so
a failing family yields a witness rather than an exception.
"""

from __future__ import annotations

import functools
import json
import math
from importlib import resources

import numpy as np

from . import geom
from .check import (
    Space,
    are_mutually_orthogoval,
    compose,
    from_form,
    from_map,
    perm_from_cycles,
    standard,
)
from .errors import (
    BadDimension,
    FieldMismatch,
    KPlus1NotPrime,
    NotCoprime,
    NotPrime,
    SizeMismatch,
    UnknownName,
    UnverifiedCertificate,
)
from .gf import GF, is_prime

BIG_SETS_TABLE = [
    # (q, r, admissible w values, chain length n); family size is n+1
    (2, 5, (3, 11, 13, 17), 5),
    (2, 7, (3, 7), 17),
    (3, 5, (17, 19), 9),
    (3, 7, (25,), 77),
    (4, 5, (7,), 2),
    (4, 7, (23,), 10),
    (5, 5, (3, 9), 6),
]


# ----------------------------------------------------------------------
# coefficient search and characteristic-p pairs
# ----------------------------------------------------------------------

def find_no_root_coeffs(field: GF, m: int) -> tuple[int, int]:
    """Least (a, b), as field codes, such that x^m + a*x + b has no root
    in the field.  Existence is guaranteed; the scan is exhaustive in
    code order for determinism.
    """
    q = field.order
    values = [field.pow(x, m) for x in range(q)]
    for a in range(q):
        ax = [field.mul(a, x) for x in range(q)]
        for b in range(q):
            if all(field.add(field.add(values[x], ax[x]), b) != 0 for x in range(q)):
                return a, b
    raise AssertionError("no rootless shift found; field arithmetic is broken")


def build_char_p_pair(p: int, n: int, k: int) -> tuple[Space, Space, np.ndarray]:
    """Pair of p-orthogoval AG(k, F_{p^n}) from the Frobenius-shear map
    (x_1, ..., x_k) -> (x_1^p - x_2, ..., x_{k-1}^p - x_k,
                        x_k^p + A x_2 + B x_1).

    The map is taken on all points at once: their coordinates are the
    base-q digits of the point indices, x^p is antilog(p log x) with 0
    kept at 0, the shear is read off the field's add, mul and neg
    tables, and the images are encoded back to base-q indices."""
    if k < 2:
        raise ValueError("need dimension k >= 2")
    if n < 1:
        raise ValueError(f"need extension degree n >= 1, got n = {n}")
    # a larger p is refused by the point cap, with no trial division
    if p <= geom.MAX_POINTS and not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    # p >= 2, so p^n passes the cap within 14 steps: refuse before p ** n
    # is computed for a large n
    q = 1
    for _ in range(n):
        q *= p
        if q > geom.MAX_POINTS:
            raise BadDimension(
                f"q = p^n exceeds the enumeration cap of {geom.MAX_POINTS} "
                f"points")
    g = geom.affine(k, q)
    g._check_cap()
    f, q = g.field, g.q
    m = (p ** k - 1) // (p - 1)
    A, B = find_no_root_coeffs(f, m)
    add, mul, neg, _ = f.tables()
    frob = np.zeros(q, dtype=np.int64)
    frob[1:] = f.antilog_array[f.log_array[1:].astype(np.int64) * p % (q - 1)]
    x = geom._base_q_digits(np.arange(g.point_count, dtype=np.int64), q, k)
    y = frob[x]
    y[:, :-1] = add[y[:, :-1], neg[x[:, 1:]]]
    y[:, -1] = add[y[:, -1], add[mul[A, x[:, 1]], mul[B, x[:, 0]]]]
    perm = geom._base_q_codes(y, q).astype(np.int64)
    image = from_map(g, perm, name=f"char{p}-image")
    return standard(g), image, perm


# ----------------------------------------------------------------------
# product construction
# ----------------------------------------------------------------------

def build_product_family(family_a: list[Space], family_b: list[Space]) -> list[Space]:
    """Componentwise products of two equally-sized mutually orthogoval
    affine families, giving a family on the dimension-sum space."""
    if not family_a or len(family_a) != len(family_b):
        raise SizeMismatch(
            f"need two non-empty families of one size, got "
            f"{len(family_a)} and {len(family_b)}")
    ga, gb = family_a[0].geometry, family_b[0].geometry
    if ga.field != gb.field or ga.kind != "affine" or gb.kind != "affine":
        raise FieldMismatch("product construction needs affine spaces over one field")
    q = ga.q
    g = geom.affine(ga.dim + gb.dim, q)
    nb = gb.point_count
    out = []
    for sa, sb in zip(family_a, family_b):
        perm = (sa.perm[:, None] * nb + sb.perm[None, :]).reshape(-1)
        out.append(from_map(g, perm, name=f"({sa.name})x({sb.name})"))
    return out


# ----------------------------------------------------------------------
# power maps on Singer labels
# ----------------------------------------------------------------------

def _power_multiplier(g: geom.Geometry, i: int) -> int:
    """The multiplier mod N of the i-th power map on the Singer labels:
    on log indices, raising labels to the i-th power is multiplication by
    i.  The exponent must be a unit mod q^(dim+1) - 1."""
    big = g.labeling_field.order - 1
    i = i % big
    if math.gcd(i, big) != 1:
        raise NotCoprime(f"exponent {i} shares a factor with {big}")
    return i % g.point_count


def build_phi_map(g: geom.Geometry, i: int) -> np.ndarray:
    """Permutation induced on projective points by raising labels to the
    i-th power.  On log indices this is multiplication by i mod N."""
    n = g.point_count
    return (np.arange(n, dtype=np.int64) * _power_multiplier(g, i)) % n


def phi_space(g: geom.Geometry, i: int) -> Space:
    """The i-th power map as a space built from its form x -> u*x."""
    return from_form(g, _power_multiplier(g, i), name=f"power{i}")


def build_phi_family(q: int, r: int, w: int, n: int) -> list[Space]:
    """Standard PG(r-1, q) plus its images under the w^i power maps,
    1 <= i <= n, each built from its form.  No property is claimed;
    verify separately."""
    g = geom.projective(r - 1, q)
    spaces = [standard(g)]
    if n:
        # the w^i-th power map multiplies by u^i, u that of the w-th
        u, x = _power_multiplier(g, w), 1
        for i in range(1, n + 1):
            x = x * u % g.point_count
            spaces.append(from_form(g, x, name=f"power{w}^{i}"))
    return spaces


def build_askew_pair(k: int, q: int) -> tuple[Space, Space]:
    """Standard PG(k, q) and its label-inversion image; askew when k+1
    is prime (the construction is refused otherwise)."""
    if not is_prime(k + 1):
        raise KPlus1NotPrime(f"k+1 = {k + 1} is not prime")
    g = geom.projective(k, q)
    return standard(g), phi_space(g, -1)


# ----------------------------------------------------------------------
# explicit catalog
# ----------------------------------------------------------------------

@functools.cache
def _load_catalog() -> dict:
    text = resources.files("orthokit").joinpath("data/catalog.json").read_text()
    catalog = json.loads(text)
    for entry in catalog.values():
        entry["resolved_modulus"] = _resolve_modulus(entry)
    return catalog


def catalog_names() -> list[str]:
    return sorted(_load_catalog())


def catalog_entry(name: str) -> dict:
    catalog = _load_catalog()
    if name not in catalog:
        raise UnknownName(f"no catalog entry named {name!r}")
    return catalog[name]


def _resolve_modulus(entry: dict):
    """The entry's labelling modulus.  Entries with several admissible
    moduli are resolved by checking the family under each candidate and
    keeping the first one that verifies; None if none does."""
    candidates = entry.get("modulus_candidates")
    if candidates is None:
        return entry.get("modulus")
    for modulus in candidates:
        g = _entry_geometry(entry, modulus)
        if are_mutually_orthogoval(_entry_spaces(g, entry)):
            return modulus
    return None


def catalog_family(name: str) -> list[Space]:
    """Build a named family from stored permutation data, under the
    labelling modulus resolved when the catalog was loaded.  An entry
    whose candidate moduli all fail is unverified and raises (cycle data
    is never altered)."""
    entry = catalog_entry(name)
    modulus = entry["resolved_modulus"]
    if modulus is None and "modulus_candidates" in entry:
        raise UnverifiedCertificate(
            f"catalog entry {name!r}: no candidate labelling modulus verifies")
    return _entry_spaces(_entry_geometry(entry, modulus), entry)


def _entry_geometry(entry: dict, modulus) -> geom.Geometry:
    if entry["kind"] == "affine":
        return geom.affine(entry["dim"], entry["q"])
    return geom.projective(entry["dim"], entry["q"], labeling_modulus=modulus,
                           basis=entry.get("basis", "phi"))


def _entry_spaces(g: geom.Geometry, entry: dict) -> list[Space]:
    if "perms" in entry:
        return [from_map(g, p, name=f"{entry['name']}[{i}]")
                for i, p in enumerate(entry["perms"])]
    gen = perm_from_cycles(g.point_count, entry["cycles"])
    spaces = [standard(g)]
    perm = np.arange(g.point_count, dtype=np.int64)
    for i in range(1, entry["powers"]):
        perm = compose(gen, perm)
        spaces.append(from_map(g, perm.copy(), name=f"{entry['name']}[{i}]"))
    return spaces
