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
    from_map,
    perm_from_cycles,
    standard,
)
from .errors import (
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
                        x_k^p + A x_2 + B x_1)."""
    if k < 2:
        raise ValueError("need dimension k >= 2")
    # a larger p is refused by the point cap, with no trial division
    if p <= geom.MAX_POINTS and not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    g = geom.affine(k, p ** n)
    f = g.field
    m = (p ** k - 1) // (p - 1)
    A, B = find_no_root_coeffs(f, m)
    perm = np.empty(g.point_count, dtype=np.int64)
    for idx, x in enumerate(g.points()):
        y = [f.sub(f.frobenius(x[i]), x[i + 1]) for i in range(k - 1)]
        last = f.add(f.frobenius(x[k - 1]),
                     f.add(f.mul(A, x[1]), f.mul(B, x[0])))
        y.append(last)
        perm[idx] = g.point_index(tuple(y))
    image = from_map(g, perm, name=f"char{p}-image")
    return standard(g), image, perm


# ----------------------------------------------------------------------
# product construction
# ----------------------------------------------------------------------

def build_product_family(family_a: list[Space], family_b: list[Space]) -> list[Space]:
    """Componentwise products of two equally-sized mutually orthogoval
    affine families, giving a family on the dimension-sum space."""
    if len(family_a) != len(family_b):
        raise SizeMismatch(
            f"family sizes differ: {len(family_a)} vs {len(family_b)}")
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

def build_phi_map(g: geom.Geometry, i: int) -> np.ndarray:
    """Permutation induced on projective points by raising labels to the
    i-th power.  On log indices this is multiplication by i mod N."""
    big = g.labeling_field.order - 1
    i = i % big
    if math.gcd(i, big) != 1:
        raise NotCoprime(f"exponent {i} shares a factor with {big}")
    n = g.point_count
    return (np.arange(n, dtype=np.int64) * i) % n


def phi_space(g: geom.Geometry, i: int) -> Space:
    return from_map(g, build_phi_map(g, i), name=f"power{i}")


def build_phi_family(q: int, r: int, w: int, n: int) -> list[Space]:
    """Standard PG(r-1, q) plus its images under the w^i power maps,
    1 <= i <= n.  No property is claimed; verify separately."""
    g = geom.projective(r - 1, q)
    spaces = [standard(g)]
    big = g.labeling_field.order - 1
    for i in range(1, n + 1):
        e = pow(w, i, big)
        spaces.append(from_map(g, build_phi_map(g, e), name=f"power{w}^{i}"))
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
