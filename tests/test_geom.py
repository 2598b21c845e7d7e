"""Point/line/flat enumeration against closed-form counts and frozen
hand-checked incidences."""

import itertools

import numpy as np
import pytest

from orthokit import geom
from orthokit.errors import BadDimension, EqualPoints, GeometryMismatch


AFFINE_CASES = [(2, 2), (2, 3), (3, 3), (2, 4), (4, 2), (2, 5), (3, 4)]
PROJECTIVE_CASES = [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (4, 2), (2, 5)]


def affine_counts(d, q):
    npts = q ** d
    nlines = q ** (d - 1) * (npts - 1) // (q - 1)
    return npts, nlines


def projective_counts(d, q):
    npts = (q ** (d + 1) - 1) // (q - 1)
    nlines = 0
    if d == 1:
        nlines = 1
    else:
        # Gaussian binomial [d+1 choose 2]_q
        nlines = ((q ** (d + 1) - 1) * (q ** d - 1)) // ((q ** 2 - 1) * (q - 1))
    return npts, nlines


@pytest.mark.parametrize("d,q", AFFINE_CASES)
def test_affine_counts(d, q):
    g = geom.affine(d, q)
    npts, nlines = affine_counts(d, q)
    assert g.point_count == npts
    assert g.points_per_line == q
    lines = g.lines()
    assert lines.shape == (nlines, q)
    assert g.line_count == nlines


@pytest.mark.parametrize("d,q", PROJECTIVE_CASES)
def test_projective_counts(d, q):
    g = geom.projective(d, q)
    npts, nlines = projective_counts(d, q)
    assert g.point_count == npts
    assert g.points_per_line == q + 1
    lines = g.lines()
    assert lines.shape == (nlines, q + 1)


@pytest.mark.parametrize("d,q", AFFINE_CASES + PROJECTIVE_CASES)
def test_every_pair_on_exactly_one_line(d, q):
    for mk in (geom.affine, geom.projective):
        g = mk(d, q)
        if g.point_count > 200:
            continue
        count = {}
        for line in g.lines():
            for i in range(len(line)):
                for j in range(i + 1, len(line)):
                    key = (int(line[i]), int(line[j]))
                    count[key] = count.get(key, 0) + 1
        n = g.point_count
        assert len(count) == n * (n - 1) // 2
        assert set(count.values()) == {1}


def test_affine_indexing_is_positional():
    g = geom.affine(3, 3)
    # index = 9a + 3b + c for point (a, b, c)
    assert g.point_index((0, 0, 0)) == 0
    assert g.point_index((1, 1, 1)) == 13
    assert g.points()[22] == (2, 1, 1)


def test_affine_line_through_known_points():
    g = geom.affine(3, 3)
    assert g.line_through(0, 1) == (0, 1, 2)
    assert g.line_through(5, 13) == (5, 13, 21)
    with pytest.raises(EqualPoints):
        g.line_through(4, 4)


def test_projective_singer_labels():
    # PG(3, 3) with modulus z^4 = z^3 + 1 and descending basis:
    # point index i has homogeneous coords of z^i
    g = geom.projective(3, 3, labeling_modulus=[2, 0, 0, 2, 1], basis="desc")
    assert g.point_count == 40
    # z^0 = 1 -> (0:0:0:1), normalized leading-1
    assert g.points()[0] == (0, 0, 0, 1)
    assert g.points()[1] == (0, 0, 1, 0)
    # z^5 = z^4*z = (z^3+1)z = z^4 + z = z^3 + z + 1
    assert g.points()[5] == (1, 0, 1, 1)


def test_line_through_symmetry_and_membership():
    for g in (geom.affine(2, 5), geom.projective(2, 4)):
        n = g.point_count
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, b = rng.choice(n, size=2, replace=False)
            line = g.line_through(int(a), int(b))
            assert g.line_through(int(b), int(a)) == line
            assert int(a) in line and int(b) in line
            assert len(line) == g.points_per_line


def test_rank_of_colinear_vs_triangle():
    g = geom.affine(2, 3)
    line = tuple(int(x) for x in g.lines()[0])
    assert g.rank_of(line) == 2
    assert g.rank_of([0, 1, 3]) == 3
    gp = geom.projective(2, 2)
    line = tuple(int(x) for x in gp.lines()[0])
    assert gp.rank_of(line) == 2


def test_flats_counts_pg42():
    g = geom.projective(4, 2)
    assert len(g.flats(1)) == 155
    assert len(g.flats(2)) == 155  # planes of PG(4, 2)


def test_flats_counts_ag42():
    g = geom.affine(4, 2)
    assert len(g.flats(1)) == 120
    assert len(g.flats(2)) == 140
    g3 = geom.affine(4, 3)
    planes = g3.flats(2)
    assert len(planes) == 1170 and len(set(planes)) == 1170
    for f in planes:
        assert len(f) == 9
        fs = set(f)
        for a, b in itertools.combinations(f, 2):
            assert set(g3.line_through(a, b)) <= fs


def test_flat_sizes_and_closure():
    g = geom.affine(2, 3)
    for f in g.flats(1):
        assert len(f) == 3
    g2 = geom.projective(3, 2)
    for f in g2.flats(2):
        assert len(f) == 7
        # closed under line_through
        fs = set(f)
        for a in f:
            for b in f:
                if a != b:
                    assert set(g2.line_through(a, b)) <= fs


def test_size_cap_applies_to_enumeration_only():
    g = geom.projective(13, 3)
    assert g.point_count == (3 ** 14 - 1) // 2  # counting still works
    with pytest.raises(BadDimension):
        g.points()
    with pytest.raises(BadDimension):
        g.lines()


def test_same_as_and_mismatch():
    a = geom.affine(2, 3)
    assert a.same_as(geom.affine(2, 3))
    assert not a.same_as(geom.affine(3, 3))
    assert not a.same_as(geom.projective(2, 3))


def test_basis_changes_coords_not_indices():
    g1 = geom.projective(3, 3, labeling_modulus=[2, 0, 0, 2, 1], basis="phi")
    g2 = geom.projective(3, 3, labeling_modulus=[2, 0, 0, 2, 1], basis="desc")
    assert np.array_equal(g1.lines(), g2.lines())
    assert g1.points() != g2.points()


def test_subfield_geometry_builds():
    g = geom.projective(2, 4)
    assert g.point_count == 21
    assert g.lines().shape == (21, 5)
