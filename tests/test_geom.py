"""Point/line/flat enumeration against closed-form counts and frozen
hand-checked incidences."""

import functools
import hashlib
import itertools

import numpy as np
import pytest

from orthokit import check, geom
from orthokit.build import phi_space
from orthokit.errors import BadDimension, EqualPoints, GeometryMismatch
from orthokit.gf import GF


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


def singer_label(g, idx):
    """Code in the labelling field of the label of point idx's normalised
    vector, by the F_p label map of ``Geometry._basis_matrix``."""
    p, e = g.field.p, g.field.n
    x = np.array(g.points()[idx])
    digits = (x[:, None] // p ** np.arange(e) % p).reshape(-1) @ g._basis_matrix() % p
    return int(digits @ p ** np.arange(len(digits)))


def reference_label(g, x):
    """sum_j embed(x_j) z^{b_j}, one scalar GF operation at a time."""
    ext = g.labeling_field
    acc = 0
    for xj, b in zip(x, g.basis):
        acc = ext.add(acc, ext.mul(g.embed(xj), ext.antilog(b)))
    return acc


@pytest.mark.parametrize("make", [
    lambda: geom.projective(2, 4),
    lambda: geom.projective(3, 4),
    lambda: geom.projective(2, 8),
    lambda: geom.projective(2, 9),
    lambda: geom.projective(2, 25),
    lambda: geom.projective(2, 27),
    lambda: geom.projective(3, 3, basis="desc"),
    lambda: geom.projective(3, 3, labeling_modulus=[2, 0, 0, 2, 1], basis="desc"),
    lambda: geom.projective(3, 2, labeling_modulus=[1, 0, 0, 1, 1]),
    lambda: geom.projective(1, 4),
    lambda: geom.projective(1, 27),
    lambda: geom.projective(2, 9, basis=[5, 0, 2]),
], ids=["PG(2,4)", "PG(3,4)", "PG(2,8)", "PG(2,9)", "PG(2,25)", "PG(2,27)",
        "PG(3,3) desc", "PG(3,3) desc x^4+2x^3+2", "PG(3,2) x^4+x^3+1",
        "PG(1,4)", "PG(1,27)", "PG(2,9) [5,0,2]"])
def test_coordinates_are_the_label_map(make):
    g = make()
    ext, base, N = g.labeling_field, g.field, g.point_count
    pts = g.points()
    assert len(pts) == N and len(set(pts)) == N
    for i, x in enumerate(pts):
        assert next(v for v in x if v) == 1
        label = reference_label(g, x)
        assert ext.log(label) % N == i
        assert singer_label(g, i) == label
        assert g.point_index(x) == i
        c = base.antilog(i)
        assert g.point_index(tuple(base.mul(c, v) for v in x)) == i


@pytest.mark.parametrize("d,q,basis", [(2, 2, [1, 1, 1]), (3, 4, [0, 2, 5, 7])])
def test_non_basis_exponents_are_refused(d, q, basis):
    with pytest.raises(ValueError, match="do not give a basis"):
        geom.projective(d, q, basis=basis).points()


def loop_lines_through_origin(g):
    """Reference for ``Geometry.lines_through_origin``: one scalar field
    operation at a time, a line kept at its least nonzero point j."""
    ext = g.labeling_field
    N = g.point_count
    scalars = [g.embed(c) for c in range(1, g.q)]
    rows = []
    for j in range(1, N):
        zj = ext.antilog(j)
        members = [0, j]
        for s in scalars:
            members.append(ext.log(ext.add(1, ext.mul(s, zj))) % N)
        if min(members[1:]) == j:
            rows.append(sorted(members))
    return np.array(rows, dtype=np.int32)


def shift_sort_dedupe_lines(g):
    """Reference for projective ``Geometry.lines``: all N Singer shifts of
    every line through 0, mod N, each row sorted, a shifted line kept
    where its least point is the shift, then lexsorted."""
    N = g.point_count
    A = g.lines_through_origin()
    shifts = np.arange(N, dtype=np.int32)
    T = (A[None, :, :] + shifts[:, None, None]) % np.int32(N)
    T = T.reshape(-1, g.points_per_line)
    T.sort(axis=1)
    mask = T[:, 0] == np.repeat(shifts, len(A))
    arr = T[mask]
    return arr[np.lexsort(arr.T[::-1])]


LINE_ORACLE_GEOMETRIES = [
    ("PG(1,3)", lambda: geom.projective(1, 3)),
    ("PG(1,27)", lambda: geom.projective(1, 27)),
    ("PG(2,9)", lambda: geom.projective(2, 9)),
    ("PG(2,25)", lambda: geom.projective(2, 25)),
    ("PG(2,27)", lambda: geom.projective(2, 27)),
    ("PG(3,3) desc", lambda: geom.projective(
        3, 3, labeling_modulus=[2, 0, 0, 2, 1], basis="desc")),
    ("PG(3,2) x^4+x^3+1", lambda: geom.projective(
        3, 2, labeling_modulus=[1, 0, 0, 1, 1])),
    ("PG(4,5)", lambda: geom.projective(4, 5)),
    ("PG(6,3)", lambda: geom.projective(6, 3)),
]


# the lines through 0 and their table, on both kinds of geometry
ORIGIN_GEOMETRIES = LINE_ORACLE_GEOMETRIES + [
    (f"AG({d},{q})", functools.partial(geom.affine, d, q))
    for d, q in ((1, 7), (2, 8), (2, 25), (3, 4), (3, 9), (4, 3))]


@pytest.mark.parametrize("make", [m for _, m in ORIGIN_GEOMETRIES],
                         ids=[name for name, _ in ORIGIN_GEOMETRIES])
def test_lines_through_origin_equal_line_through(make):
    g = make()
    A = g.lines_through_origin()
    assert A.dtype == np.int32 and not A.flags.writeable
    assert A is g.lines_through_origin()
    through = sorted({g.line_through(0, j) for j in range(1, g.point_count)},
                     key=lambda line: line[1])
    assert A.tolist() == [list(line) for line in through]
    if g.kind == "affine":
        # the rows through 0 lead the lexsorted lines
        lines = g.lines()
        ref = lines[lines[:, 0] == 0]
        assert (lines[:len(A)] == A).all()
    else:
        ref = loop_lines_through_origin(g)
    assert A.dtype == ref.dtype and A.shape == ref.shape and (A == ref).all()


def test_affine_lines_through_origin_enumerate_no_line(monkeypatch):
    # built from the field's log tables alone, with no q x q table
    g = geom.affine(3, 9)

    def boom(*args):
        raise AssertionError("the lines through 0 enumerated lines")
    monkeypatch.setattr(geom.Geometry, "lines", boom)
    monkeypatch.setattr(geom.Geometry, "_echelon_flats", boom)
    monkeypatch.setattr(type(g.field), "tables", boom)
    A = g.lines_through_origin()
    assert A.shape == ((9 ** 3 - 1) // 8, 9)
    assert g.origin_line_ids()[A[:, 1:]].tolist() == [
        [i] * 8 for i in range(len(A))]


@pytest.mark.parametrize("make", [m for _, m in LINE_ORACLE_GEOMETRIES],
                         ids=[name for name, _ in LINE_ORACLE_GEOMETRIES])
def test_projective_lines_equal_shift_sort_dedupe(make):
    g = make()
    lines = g.lines()
    assert lines.dtype == np.int32 and not lines.flags.writeable
    ref = shift_sort_dedupe_lines(g)
    assert lines.dtype == ref.dtype and lines.shape == ref.shape
    assert (lines == ref).all()


@pytest.mark.parametrize("make", [m for _, m in ORIGIN_GEOMETRIES],
                         ids=[name for name, _ in ORIGIN_GEOMETRIES])
def test_origin_line_ids_name_the_line_through_0(make):
    g = make()
    ids = g.origin_line_ids()
    assert ids.dtype == np.int32 and not ids.flags.writeable
    assert ids is g.origin_line_ids() and ids[0] == -1
    A = g.lines_through_origin().tolist()
    assert [tuple(A[i]) for i in ids[1:]] == [
        g.line_through(0, x) for x in range(1, g.point_count)]


def test_split_prime_power_by_trial_division_to_the_square_root():
    # the Mersenne prime 2^31 - 1 needs only 46,340 trial divisors
    assert geom._split_prime_power(2 ** 31 - 1) == (2 ** 31 - 1, 1)
    assert geom._split_prime_power(2) == (2, 1)
    assert geom._split_prime_power(3 ** 7) == (3, 7)
    assert geom._split_prime_power(65_537 ** 2) == (65_537, 2)
    for bad in (0, 1, 6, 12, 2 * 65_537):
        with pytest.raises(ValueError, match="not a prime power"):
            geom._split_prime_power(bad)


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


def difference_rank(g, pts):
    """The reference for affine ``Geometry.rank_of``: 1 + the rank of the
    difference vectors from the least point."""
    coords = [g.points()[i] for i in sorted(set(pts))]
    rows = [[g.field.sub(x, y) for x, y in zip(c, coords[0])]
            for c in coords[1:]]
    return 1 + geom._gf_rank(rows, g.field)


def difference_span(g, pts):
    """The reference for affine ``Geometry.span``: the least point plus
    every combination of a basis of the difference vectors."""
    coords = [g.points()[i] for i in sorted(set(pts))]
    base, origin = g.field, coords[0]
    basis = geom._gf_row_basis(
        [[base.sub(x, y) for x, y in zip(c, origin)] for c in coords[1:]], base)
    out = set()
    for combo in itertools.product(range(g.q), repeat=len(basis)):
        vec = list(origin)
        for c, bv in zip(combo, basis):
            vec = [base.add(x, base.mul(c, y)) for x, y in zip(vec, bv)]
        out.add(g.point_index(vec))
    return tuple(sorted(out))


@pytest.mark.parametrize("kind, d, q", [
    ("affine", 2, 3), ("affine", 2, 4), ("affine", 3, 3), ("affine", 2, 8),
    ("affine", 2, 9), ("affine", 4, 2), ("affine", 3, 4), ("affine", 1, 5),
    ("projective", 2, 4), ("projective", 3, 3), ("projective", 2, 9),
    ("projective", 4, 2),
])
def test_rank_and_span_from_homogeneous_coordinates(kind, d, q):
    g = (geom.affine if kind == "affine" else geom.projective)(d, q)
    h = g.homogeneous()
    assert not h.flags.writeable and h.shape == (g.point_count, g.dim + 1)
    if kind == "affine":
        assert (h[:, 0] == 1).all() and h[:, 1:].tolist() == list(map(list, g.points()))
    else:
        assert h.tolist() == list(map(list, g.points()))
    rng = np.random.default_rng(q * 100 + d)
    for _ in range(40):
        pts = rng.choice(g.point_count, size=rng.integers(1, d + 2),
                         replace=False).tolist()
        rank, span = g.rank_of(pts), g.span(pts)
        # the span is every point that leaves the rank unchanged
        assert span == tuple(x for x in range(g.point_count)
                             if g.rank_of(pts + [x]) == rank)
        assert len(span) == (q ** (rank - 1) if kind == "affine"
                             else (q ** rank - 1) // (q - 1))
        if kind == "affine":
            assert rank == difference_rank(g, pts)
            assert span == difference_span(g, pts)


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def flat_count(g, j):
    d, q = g.dim, g.q
    if g.kind == "affine":
        return q ** (d - j) * gaussian_binomial(d, j, q)
    return gaussian_binomial(d + 1, j + 1, q)


def span_closure_flats(g):
    """The reference for ``Geometry.flats``: every flat by dimension,
    each j-flat found as ``Geometry.span`` of a (j-1)-flat and a point
    outside it, the points of a span already found being skipped.  Only
    points above the (j-1)-flat's largest are tried: a j-flat X has a
    (j-1)-flat avoiding max(X), and X is its span with max(X)."""
    levels = [sorted({g.span([p]) for p in range(g.point_count)})]
    for _ in range(g.dim):
        seen = set()
        for flat in levels[-1]:
            done = set(flat)
            for pnt in range(flat[-1] + 1, g.point_count):
                if pnt not in done:
                    new = g.span(flat + (pnt,))
                    done.update(new)
                    seen.add(new)
        levels.append(sorted(seen))
    return levels


def flat_list_holds(g, j, flats):
    """``flats`` is the list of j-flats: the Gaussian-binomial count,
    distinct, and each one closed under span with rank j+1."""
    return (len(flats) == flat_count(g, j) and len(set(flats)) == len(flats)
            and all(g.span(f) == tuple(f) and g.rank_of(f) == j + 1
                    for f in flats))


ORACLE_GEOMETRIES = [
    ("AG(2,3)", lambda: geom.affine(2, 3)),
    ("AG(3,2)", lambda: geom.affine(3, 2)),
    ("AG(3,4)", lambda: geom.affine(3, 4)),
    ("AG(4,2)", lambda: geom.affine(4, 2)),
    ("AG(4,3)", lambda: geom.affine(4, 3)),
    ("PG(3,2)", lambda: geom.projective(3, 2)),
    ("PG(3,3)", lambda: geom.projective(3, 3)),
    ("PG(3,4)", lambda: geom.projective(3, 4)),
    ("PG(4,2)", lambda: geom.projective(4, 2)),
    ("PG(5,2)", lambda: geom.projective(5, 2)),
    # Singer indices depend on the basis and on the labelling modulus
    ("PG(3,3) desc", lambda: geom.projective(
        3, 3, labeling_modulus=[2, 0, 0, 2, 1], basis="desc")),
    ("PG(3,2) x^4+x^3+1", lambda: geom.projective(
        3, 2, labeling_modulus=[1, 0, 0, 1, 1])),
]


@pytest.mark.parametrize("make", [m for _, m in ORACLE_GEOMETRIES],
                         ids=[name for name, _ in ORACLE_GEOMETRIES])
def test_flats_equal_span_closure(make):
    g = make()
    reference = span_closure_flats(g)
    for j in range(g.dim + 1):
        flats = g.flats(j)
        assert flats.tolist() == [list(f) for f in reference[j]]
        assert len(flats) == flat_count(g, j)
    assert g.flats(1) is g.lines()


@pytest.mark.parametrize("make,j,count", [
    (lambda: geom.affine(6, 2), 3, 11_160),
    (lambda: geom.projective(4, 4), 2, 5_797),
    (lambda: geom.projective(6, 2), 3, 11_811),
], ids=["AG(6,2)", "PG(4,4)", "PG(6,2)"])
def test_flats_counts_at_half_dimension(make, j, count):
    g = make()
    flats = list(map(tuple, g.flats(j).tolist()))
    assert len(flats) == count == flat_count(g, j)
    assert len(set(flats)) == count
    size = len(flats[0])
    assert all(len(f) == size and list(f) == sorted(f) for f in flats)
    assert list(flats) == sorted(flats)
    for f in flats[::97]:
        assert g.rank_of(f) == j + 1


@pytest.mark.parametrize("make,j,digest", [
    (lambda: geom.affine(3, 9), 1, "a511a44c2730309b29660844c0f011a3fc7eb3c4"),
    (lambda: geom.affine(2, 49), 1, "8ee1b96db34bbc3a0844f662208556af3fa7e6bf"),
    (lambda: geom.affine(4, 5), 1, "e5283c85c8187cfd454559e0702989ce791cac53"),
    (lambda: geom.affine(4, 3), 2, "83048a02798edad994f81de614c3943d286aefa7"),
    (lambda: geom.projective(4, 4), 2,
     "547e5aea0ef15e57ae83b03f6266ec09590f79e9"),
    (lambda: geom.affine(6, 2), 3, "3e189d87156c030c2d58a9252f3f16fd52a7d58b"),
    (lambda: geom.projective(2, 27), 1,
     "bd19efecbd0c08522152c4f7c18d1082e99d4f3f"),
], ids=["AG(3,9) lines", "AG(2,49) lines", "AG(4,5) lines", "AG(4,3) planes",
        "PG(4,4) planes", "AG(6,2) 3-flats", "PG(2,27) lines"])
def test_flats_are_in_full_row_order(make, j, digest):
    # the short sort key must give the full-width order: checked directly,
    # and against frozen digests of that order's int32 bytes
    flats = make().flats(j)
    assert np.array_equal(flats, flats[np.lexsort(flats.T[::-1])])
    assert hashlib.sha1(flats.astype("<i4").tobytes()).hexdigest() == digest


def test_flat_list_check_negative_controls():
    g = geom.projective(3, 3)
    planes = list(map(tuple, g.flats(2).tolist()))
    assert flat_list_holds(g, 2, planes)
    first = planes[0]
    outside = next(p for p in range(g.point_count) if p not in first)
    swapped = tuple(sorted(first[1:] + (outside,)))
    assert g.span(swapped) != swapped and g.rank_of(swapped) == 4
    assert not flat_list_holds(g, 2, [swapped] + planes[1:])
    assert not flat_list_holds(g, 2, planes[1:])
    assert not flat_list_holds(g, 2, planes[:-1] + [planes[0]])
    ga = geom.affine(3, 3)
    lines = list(map(tuple, ga.flats(1).tolist()))
    assert flat_list_holds(ga, 1, lines)
    bent = (lines[0][0], lines[0][1], next(
        p for p in range(ga.point_count) if p not in lines[0]))
    assert ga.rank_of(bent) == 3
    assert not flat_list_holds(ga, 1, [bent] + lines[1:])


def test_cached_lines_and_flats_are_read_only():
    g = geom.projective(4, 2)
    s, t = check.standard(g), phi_space(g, -1)
    before = check.is_half_dimension_orthogoval(s, t)
    pair = check.is_k_orthogoval_pair(s, t, 2)
    assert not before.ok
    for j in range(g.dim + 1):
        with pytest.raises(ValueError):
            g.flats(j)[:] = 0
    with pytest.raises(ValueError):
        g.lines()[:] = 0
    assert check.is_half_dimension_orthogoval(s, t) == before
    assert check.is_k_orthogoval_pair(s, t, 2) == pair
    assert len(g.flats(2)) == 155


@pytest.mark.parametrize("make", [
    lambda: geom.projective(2, 4),
    lambda: geom.projective(3, 4),
    lambda: geom.projective(2, 9),
    lambda: geom.projective(2, 8),
    lambda: geom.projective(2, 4, labeling_modulus=[1, 0, 0, 0, 0, 1, 1]),
    lambda: geom.projective(3, 2, labeling_modulus=[1, 1, 0, 0, 1]),
    lambda: geom.projective(3, 2, labeling_modulus=[1, 0, 0, 1, 1]),
], ids=["PG(2,4)", "PG(3,4)", "PG(2,9)", "PG(2,8)", "PG(2,4) x^6+x^5+1",
        "PG(3,2) x^4+x+1", "PG(3,2) x^4+x^3+1"])
def test_cached_embedding_equals_fresh(make):
    g = make()
    ext = g.labeling_field
    assert geom._embedding(g.field, ext) == geom._embedding.__wrapped__(g.field, ext)
    again = make()
    again.labeling_field
    assert again._embed is g._embed


def full_scan_embedding(base, ext):
    """The reference for ``_embedding``: the least root of the base
    modulus found by scanning every code of the extension."""
    p = base.p
    root = next(t for t in range(ext.order) if functools.reduce(
        lambda acc, c: ext.add(ext.mul(acc, t), c % p),
        reversed(base.modulus), 0) == 0)
    table = []
    for code in range(base.order):
        acc, tp = 0, 1
        for c in base._digits(code):
            acc = ext.add(acc, ext.mul(c, tp))
            tp = ext.mul(tp, root)
        table.append(acc)
    return tuple(table)


@pytest.mark.parametrize("q, d, modulus", [
    (4, 1, None), (4, 2, None), (4, 3, None), (8, 1, None), (8, 2, None),
    (9, 1, None), (9, 2, None), (16, 1, None), (25, 1, None), (27, 1, None),
    (49, 1, None), (4, 2, [1, 0, 0, 0, 0, 1, 1]), (9, 1, [2, 0, 0, 2, 1]),
    (2, 2, None), (3, 2, None), (5, 1, None), (7, 2, None),
])
def test_embedding_from_the_subfield_equals_full_scan(q, d, modulus):
    g = geom.projective(d, q, labeling_modulus=modulus)
    ext = g.labeling_field
    assert geom._embedding(g.field, ext) == full_scan_embedding(g.field, ext)


def test_embedding_of_a_prime_field_with_modulus_x_is_the_identity():
    # x is irreducible of degree 1, and its one root is 0
    g = geom.Geometry(geom.PROJECTIVE, 2, field=GF(3, 1, modulus=[0, 1]))
    ext = g.labeling_field
    assert geom._embedding(g.field, ext) == full_scan_embedding(
        g.field, ext) == (0, 1, 2)


def test_embedding_cache_is_keyed_by_labelling_field():
    a = geom.projective(2, 4)
    b = geom.projective(2, 4, labeling_modulus=[1, 0, 0, 0, 0, 1, 1])
    assert a.labeling_field != b.labeling_field
    assert a._embed != b._embed
    # the two candidate moduli of the PG3_F2_X7 catalog entry: over F_2
    # both embeddings are the identity, but the coordinates differ
    g1 = geom.projective(3, 2, labeling_modulus=[1, 1, 0, 0, 1])
    g2 = geom.projective(3, 2, labeling_modulus=[1, 0, 0, 1, 1])
    assert g1.labeling_field != g2.labeling_field
    assert g1.points() != g2.points()


def test_flats_counts_pg42():
    g = geom.projective(4, 2)
    assert len(g.flats(1)) == 155
    assert len(g.flats(2)) == 155  # planes of PG(4, 2)


def test_flats_counts_ag42():
    g = geom.affine(4, 2)
    assert len(g.flats(1)) == 120
    assert len(g.flats(2)) == 140
    g3 = geom.affine(4, 3)
    planes = g3.flats(2).tolist()
    assert len(planes) == 1170 and len(set(map(tuple, planes))) == 1170
    for f in planes:
        assert len(f) == 9
        fs = set(f)
        for a, b in itertools.combinations(f, 2):
            assert set(g3.line_through(a, b)) <= fs


def test_flat_sizes_and_closure():
    g = geom.affine(2, 3)
    for f in g.flats(1).tolist():
        assert len(f) == 3
    g2 = geom.projective(3, 2)
    for f in g2.flats(2).tolist():
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
    with pytest.raises(BadDimension):
        g.origin_line_ids()
    assert g._lines0 is None and g._origin_ids is None


@pytest.mark.parametrize("make", [geom.affine, geom.projective])
def test_cached_points_cannot_change_through_the_returned_value(make):
    g = make(2, 3)
    pts = g.points()
    assert isinstance(pts, tuple) and g.points() is pts
    with pytest.raises(AttributeError):
        pts.reverse()
    with pytest.raises(TypeError):
        pts[0] = pts[1]
    first, last = pts[0], pts[-1]
    assert g.homogeneous()[-1, -len(last):].tolist() == list(last)
    assert g.point_index(first) == 0 and g.point_index(last) == len(pts) - 1


def test_a_q_too_long_to_print_is_refused_by_the_cap():
    # str() refuses ints of over 4,300 digits: the message must not need it
    with pytest.raises(BadDimension, match="enumeration cap"):
        geom.affine(2, 3 ** 10000)
    with pytest.raises(BadDimension, match="enumeration cap"):
        geom.affine(10000, 3).points()


def test_ag42_planes_are_the_zero_sum_4_subsets():
    # a second route to the half-dimension flats of AG(4, 2): with base-2
    # indices XOR is vector addition, a plane {a, a+x, a+y, a+x+y} sums to
    # 0, and in a zero-sum 4-set each point is the sum of the other three,
    # the fourth point of their plane
    planes = geom.affine(4, 2).flats(2).tolist()
    zero_sum = [list(s) for s in itertools.combinations(range(16), 4)
                if s[0] ^ s[1] ^ s[2] ^ s[3] == 0]
    assert len(planes) == 140 and planes == zero_sum


def test_flat_incidence_cap_refuses_before_enumerating():
    # PG(6,3) and PG(6,4) are under MAX_POINTS, but their 3-flats hold
    # 37 million and 2 billion points in all
    for g, j in ((geom.projective(6, 3), 3), (geom.projective(6, 4), 3),
                 (geom.projective(4, 7), 2)):
        count, size = g._flat_shape(j)
        assert count * size > geom.MAX_FLAT_INCIDENCES
        with pytest.raises(BadDimension, match="flat enumeration cap"):
            g.flats(j)
        assert g._coords is None and g._flats == {}
    g = geom.projective(4, 5)  # 20,306 planes of 31 points: under the cap
    assert len(g.flats(2)) == 20_306


@pytest.mark.parametrize("make,j", [
    (lambda: geom.affine(4, 3), 2),
    (lambda: geom.affine(3, 4), 1),
    (lambda: geom.projective(4, 2), 2),
    (lambda: geom.projective(3, 3, labeling_modulus=[2, 0, 0, 2, 1],
                             basis="desc"), 2),
], ids=["AG(4,3)", "AG(3,4)", "PG(4,2)", "PG(3,3) desc"])
def test_echelon_chunks_do_not_change_flats(monkeypatch, make, j):
    whole = make()._echelon_flats(j)
    monkeypatch.setattr(geom, "_ECHELON_CHUNK", 1)  # one filling a chunk
    assert (make()._echelon_flats(j) == whole).all()


@pytest.mark.parametrize("kind", ["affine", "projective"])
@pytest.mark.parametrize("d,q", [
    (1, 2), (1, 5), (1, 9), (2, 2), (2, 3), (2, 4), (2, 7), (3, 2), (3, 3),
    (4, 2)])
def test_points_and_whole_space_are_shortcut_rows(kind, d, q):
    # the echelon bases give the points as the column of indices at j = 0
    # and the whole space as one row at j = dim; lines are the lines() array
    g = (geom.affine if kind == "affine" else geom.projective)(d, q)
    n = g.point_count
    assert g.flats(0).tolist() == [[i] for i in range(n)]
    assert g.flats(d).tolist() == [list(range(n))]
    assert g._echelon_flats(d).tolist() == [list(range(n))]
    assert g.flats(1) is g.lines()
    for j in range(d + 1):
        assert g.flats(j).dtype == np.int32 and g.flats(j) is g.flats(j)


def test_affine_lines_over_a_large_prime_field():
    # codes above 255 need wider field tables than one byte
    g = geom.affine(1, 257)
    assert g.lines().tolist() == [list(range(257))]
    assert g.flats(1) is g.lines()


def test_same_as_and_mismatch():
    a = geom.affine(2, 3)
    assert a.same_as(geom.affine(2, 3))
    assert not a.same_as(geom.affine(3, 3))
    assert not a.same_as(geom.projective(2, 3))


# ----------------------------------------------------------------------
# one shared geometry per parameters
# ----------------------------------------------------------------------

def test_affine_and_projective_share_one_geometry_per_parameters():
    g = geom.affine(2, 9)
    assert geom.affine(2, 9) is g and geom.affine(dim=2, q=9) is g
    assert g.lines() is geom.affine(2, 9).lines()
    assert geom.affine(3, 9) is not g
    h = geom.projective(3, 3)
    assert geom.projective(dim=3, q=3) is h
    assert geom.projective(3, 3, None, "phi") is h
    assert geom.projective(3, 3, basis=[1, 2, 3, 4]) is h
    # a labelling modulus as a list or a tuple, and a basis by name or by
    # its exponents, are one key
    desc = geom.projective(3, 3, labeling_modulus=[2, 0, 0, 2, 1], basis="desc")
    assert geom.projective(3, 3, (2, 0, 0, 2, 1), "desc") is desc
    assert geom.projective(3, 3, [2, 0, 0, 2, 1], [3, 2, 1, 0]) is desc
    assert desc is not h and desc is not geom.projective(
        3, 3, labeling_modulus=[2, 0, 0, 2, 1])


def test_only_the_most_recent_shared_geometries_are_kept():
    # the least recently asked for is dropped first, and a new instance,
    # its tables built again, takes its place
    qs = [q for q in range(2, 1000)
          if all(q % p for p in range(2, q))][:geom._SHARED_GEOMETRIES + 1]
    first = geom.affine(1, qs[0])
    kept = [geom.affine(1, q) for q in qs[1:-1]]
    assert geom.affine(1, qs[0]) is first
    geom.affine(1, qs[-1])  # drops AG(1, qs[1]), the least recent
    assert geom.affine(1, qs[0]) is first
    assert all(geom.affine(1, q) is g for q, g in zip(qs[2:-1], kept[1:]))
    again = geom.affine(1, qs[1])
    assert again is not kept[0] and again.same_as(kept[0])


def test_a_direct_geometry_is_private():
    shared = geom.affine(2, 9)
    shared.lines()
    for _ in range(2):
        fresh = geom.Geometry(geom.AFFINE, 2, 9)
        assert fresh is not shared and fresh.same_as(shared)
        assert fresh._lines is None
    assert geom.affine(2, 9) is shared


@pytest.mark.parametrize("make", [
    lambda: geom.affine(2.0, 9), lambda: geom.affine(2, 9.0),
    lambda: geom.projective(3.0, 3), lambda: geom.projective(3, 3.0),
    lambda: geom.projective(3, 3, [2.0, 0, 0, 2, 1]),
    lambda: geom.projective(3, 3, basis=[1.0, 2, 3, 4]),
], ids=["affine-dim", "affine-q", "projective-dim", "projective-q",
        "modulus", "basis"])
def test_a_non_integer_parameter_is_refused_and_never_shared(make):
    # 2.0 == 2 hashes alike: a float must not reach the shared key, where
    # the geometry built from it would be every later int call's
    for _ in range(2):
        with pytest.raises(TypeError):
            make()
    g = geom.affine(2, 9)
    assert type(g.point_count) is int and g.point_count == 81
    h = geom.projective(3, 3, [2, 0, 0, 2, 1], [1, 2, 3, 4])
    assert h.labeling_field.order == 81 and h is geom.projective(3, 3, (2, 0, 0, 2, 1))
    # integer types other than int are one key with the int
    assert geom.affine(np.int64(2), True + 8) is g


@pytest.mark.parametrize("make", [geom.affine, geom.projective])
def test_a_q_past_the_cap_is_refused_on_every_call(monkeypatch, make):
    # the refusal is never cached, and comes before any field is built
    def boom(*args):
        raise AssertionError("a field was built")
    monkeypatch.setattr(geom, "field_create", boom)
    for _ in range(2):
        with pytest.raises(BadDimension, match="enumeration cap"):
            make(2, 10_007)


def test_basis_changes_coords_not_indices():
    g1 = geom.projective(3, 3, labeling_modulus=[2, 0, 0, 2, 1], basis="phi")
    g2 = geom.projective(3, 3, labeling_modulus=[2, 0, 0, 2, 1], basis="desc")
    assert np.array_equal(g1.lines(), g2.lines())
    assert g1.points() != g2.points()


def test_subfield_geometry_builds():
    g = geom.projective(2, 4)
    assert g.point_count == 21
    assert g.lines().shape == (21, 5)
