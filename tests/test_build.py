"""Constructions: rootless coefficient search, characteristic-p pairs,
power-map families, products, askew pairs, and the stored catalog."""

import numpy as np
import pytest

from orthokit import build, check, geom
from orthokit.errors import (
    FieldMismatch,
    KPlus1NotPrime,
    NotCoprime,
    SizeMismatch,
    UnknownName,
)
from orthokit.gf import field_create


def test_find_no_root_coeffs_is_rootless_and_least():
    f = field_create(2, 2)
    # x^3 + a x + b with no root in GF(4)
    a, b = build.find_no_root_coeffs(f, 3)
    for x in range(4):
        x3 = f.pow(x, 3)
        assert f.add(f.add(x3, f.mul(a, x)), b) != 0
    # least pair: nothing lexicographically smaller works
    for aa in range(a + 1):
        for bb in range(b if aa == a else 4):
            assert any(
                f.add(f.add(f.pow(x, 3), f.mul(aa, x)), bb) == 0
                for x in range(4))


@pytest.mark.parametrize("p,n,k", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3)])
def test_char_p_pair_verifies(p, n, k, assert_additive):
    s, t, perm = build.build_char_p_pair(p, n, k)
    assert_additive(s.geometry, perm)
    assert check.is_k_orthogoval_pair(s, t, p)


def _char_p_perm_by_points(p, n, k):
    """The Frobenius-shear map one point at a time, with the field's
    scalar operations and a coordinate lookup per image."""
    g = geom.affine(k, p ** n)
    f = g.field
    A, B = build.find_no_root_coeffs(f, (p ** k - 1) // (p - 1))
    perm = np.empty(g.point_count, dtype=np.int64)
    for idx, x in enumerate(g.points()):
        y = [f.sub(f.frobenius(x[i]), x[i + 1]) for i in range(k - 1)]
        y.append(f.add(f.frobenius(x[k - 1]),
                       f.add(f.mul(A, x[1]), f.mul(B, x[0]))))
        perm[idx] = g.point_index(tuple(y))
    return perm


@pytest.mark.parametrize("p,n,k", [
    (2, 1, 2), (2, 1, 3), (2, 1, 5), (2, 2, 2), (2, 2, 3), (2, 2, 5),
    (2, 3, 2), (2, 3, 3), (2, 4, 2), (2, 4, 3), (3, 1, 2), (3, 1, 5),
    (3, 2, 2), (3, 2, 3), (3, 3, 2), (5, 1, 2), (5, 1, 4), (5, 2, 2),
    (7, 1, 3), (11, 1, 2), (13, 1, 2), (13, 1, 3)])
def test_char_p_map_equals_the_per_point_loop(p, n, k):
    s, t, perm = build.build_char_p_pair(p, n, k)
    assert perm.dtype == np.int64
    assert np.array_equal(perm, _char_p_perm_by_points(p, n, k))
    assert s.is_standard and np.array_equal(t.perm, perm)


def test_phi_map_is_index_multiplication():
    g = geom.projective(4, 2)
    perm = build.build_phi_map(g, 3)
    assert perm.tolist() == [(3 * i) % 31 for i in range(31)]


def test_phi_map_rejects_non_coprime():
    g = geom.projective(2, 3)  # labels mod 3^3 - 1 = 26
    with pytest.raises(NotCoprime):
        build.build_phi_map(g, 2)


def test_phi_family_shape():
    fam = build.build_phi_family(2, 5, 3, 5)
    assert len(fam) == 6
    assert fam[0].is_standard
    assert bool(check.are_mutually_orthogoval(fam))


def test_phi_minus_one_pairs():
    for r, q in ((1, 2), (1, 3), (2, 2)):
        g = geom.projective(2 * r, q)
        s = check.standard(g)
        t = build.phi_space(g, -1)
        assert check.is_k_orthogoval_pair(s, t, 2)


def test_askew_pair_guard():
    with pytest.raises(KPlus1NotPrime):
        build.build_askew_pair(3, 2)
    s, t = build.build_askew_pair(2, 2)
    assert check.is_askew_pair(s, t)


def test_product_family():
    fam = build.catalog_family("AG2_F3_X7")
    prod = build.build_product_family(fam, fam)
    assert len(prod) == 7
    g = prod[0].geometry
    assert g.kind == "affine" and g.dim == 4 and g.q == 3
    assert bool(check.are_mutually_orthogoval(prod))


def test_product_family_guards():
    fam = build.catalog_family("AG2_F3_X7")
    with pytest.raises(SizeMismatch):
        build.build_product_family(fam, fam[:3])
    with pytest.raises(SizeMismatch):
        build.build_product_family([], [])
    other = [check.standard(geom.affine(2, 2))] * 7
    with pytest.raises(FieldMismatch):
        build.build_product_family(fam, other)


def test_product_of_standards_is_standard():
    a = [check.standard(geom.affine(2, 3))]
    b = [check.standard(geom.affine(1, 3))]
    (prod,) = build.build_product_family(a, b)
    assert prod.is_standard


def test_catalog_names_and_unknown():
    names = build.catalog_names()
    assert {"AG2_F3_X7", "AG3_F3_X8", "PG3_F2_X7", "PG3_F3_X2"} <= set(names)
    with pytest.raises(UnknownName):
        build.catalog_entry("NOPE")


@pytest.mark.parametrize("name,size", [
    ("AG2_F3_X7", 7), ("AG3_F3_X8", 8), ("PG3_F2_X7", 7), ("PG3_F3_X2", 2)])
def test_catalog_families_verify(name, size):
    fam = build.catalog_family(name)
    assert len(fam) == size
    assert bool(check.are_mutually_orthogoval(fam))


def test_pg3_f2_modulus_resolution_is_recorded():
    # a fresh catalog carries the resolved modulus before any family is built
    build._load_catalog.cache_clear()
    entry = build.catalog_entry("PG3_F2_X7")
    assert entry["resolved_modulus"] == [1, 1, 0, 0, 1]
    fam = build.catalog_family("PG3_F2_X7")
    assert fam[0].geometry.labeling_field.modulus == (1, 1, 0, 0, 1)
    assert build.catalog_entry("PG3_F2_X7") is entry


def test_ag3_f3_generator_has_order_eight():
    entry = build.catalog_entry("AG3_F3_X8")
    perm = check.perm_from_cycles(27, entry["cycles"])
    p = np.arange(27)
    order = 0
    while True:
        p = check.compose(perm, p)
        order += 1
        if np.array_equal(p, np.arange(27)):
            break
    assert order == 8


def test_big_sets_table_shape():
    assert len(build.BIG_SETS_TABLE) == 7
    qs = [(q, r) for q, r, _, _ in build.BIG_SETS_TABLE]
    assert qs == [(2, 5), (2, 7), (3, 5), (3, 7), (4, 5), (4, 7), (5, 5)]
