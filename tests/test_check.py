"""Verification engines: fast triple-index checker vs the naive
line-pair oracle, the group-reduced paths vs the triple index,
askew and half-dimension checks, determinism."""

import contextlib
import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthokit import check, explore, geom
from orthokit.build import (
    BIG_SETS_TABLE,
    build_askew_pair,
    build_char_p_pair,
    build_product_family,
    build_phi_family,
    build_phi_map,
    phi_space,
)
from orthokit.errors import GeometryMismatch, OddDimension
from orthokit.gf import prime_factors


def random_space(g, rng):
    perm = rng.permutation(g.point_count).astype(np.int64)
    return check.from_map(g, perm)


def test_standard_vs_itself_fails_immediately():
    g = geom.affine(2, 3)
    s = check.standard(g)
    v = check.is_k_orthogoval_pair(s, check.from_map(g, np.arange(9)), 2)
    assert not v
    assert "triple" in v.witness


def test_witness_is_a_real_shared_triple():
    g = geom.projective(2, 3)
    s = check.standard(g)
    t = phi_space(g, 3)  # Frobenius: a collineation, so far from orthogoval
    v = check.is_k_orthogoval_pair(s, t, 2)
    assert not v
    tri = v.witness["triple"]
    assert set(tri) <= set(v.witness["line_a"])
    assert set(tri) <= set(v.witness["line_b"])


def test_k_at_least_line_size_is_vacuous():
    g = geom.affine(2, 3)
    s = check.standard(g)
    t = check.from_map(g, np.arange(9))
    assert check.is_k_orthogoval_pair(s, t, 3)


def triple_reference(s, t):
    """k=2 witness from the least key shared by the two triple indexes,
    with the lines found by scanning every line."""
    g = s.geometry
    common = np.intersect1d(check.packed_triples(g, s.lines()),
                            check.packed_triples(g, t.lines()),
                            assume_unique=True)
    if len(common) == 0:
        return None
    tri = check.unpack_triple(int(common[0]), g.point_count)

    def line_of(space):
        return next(tuple(row) for row in space.lines().tolist()
                    if set(tri) <= set(row))

    return {"triple": tri, "line_a": line_of(s), "line_b": line_of(t)}


def test_fast_equals_naive_on_seeded_bijections():
    rng = np.random.default_rng(20260823)
    cases = [geom.affine(2, 3), geom.affine(2, 4), geom.affine(2, 5),
             geom.affine(3, 3), geom.projective(2, 2), geom.projective(2, 3),
             geom.projective(3, 2), geom.projective(2, 4)]
    outcomes = set()
    for g in cases:
        s = check.standard(g)
        n = g.point_count
        pairs = [(s, random_space(g, rng)) for _ in range(5)]
        pairs.append((random_space(g, rng), random_space(g, rng)))
        # negative controls: the identity map and a duplicated space
        pairs.append((s, check.from_map(g, np.arange(n))))
        dup = random_space(g, rng)
        pairs.append((dup, check.from_map(g, dup.perm)))
        for a, b in pairs:
            for k in range(1, g.points_per_line):
                fast = check.is_k_orthogoval_pair(a, b, k)
                slow = check.naive_k_orthogoval_pair(a, b, k)
                assert bool(fast) == bool(slow), (g, k)
                outcomes.add((k, bool(fast)))
                if k == 2:
                    assert fast.witness == triple_reference(a, b), g
                else:
                    assert fast.witness == slow.witness, (g, k)
        assert not check.is_k_orthogoval_pair(pairs[-2][0], pairs[-2][1], 2)
        assert not check.is_k_orthogoval_pair(pairs[-1][0], pairs[-1][1], 2)
    # every decider path both passed and failed somewhere
    assert outcomes >= {(k, v) for k in (2, 3) for v in (True, False)}


@pytest.mark.parametrize("kind, d, q", [
    ("affine", 2, 7), ("affine", 2, 9), ("affine", 2, 16), ("affine", 2, 25),
    ("affine", 3, 4), ("projective", 2, 7), ("projective", 3, 3),
])
def test_pair_witness_equals_least_shared_triple(kind, d, q):
    # random pairs fail with many hits; a linear map as t fails with few
    g = (geom.affine if kind == "affine" else geom.projective)(d, q)
    rng = np.random.default_rng(q * 10 + d)
    pairs = [(random_space(g, rng), random_space(g, rng)) for _ in range(4)]
    pairs.append((random_space(g, rng), check.standard(g)))
    if kind == "affine" and q in (9, 25):
        from orthokit.build import build_char_p_pair
        pairs.append(build_char_p_pair(g.field.p, 2, 2)[:2])
    for s, t in pairs:
        v = check.is_k_orthogoval_pair(s, t, 2)
        ref = check._least_shared_triple([s, t], g, None)
        assert not v and ref is not None
        assert v.witness == {key: ref[key] for key in ("triple", "line_a", "line_b")}


def test_linear_maps_agree_with_naive(assert_additive):
    from orthokit.build import build_char_p_pair
    for p, n, k in ((2, 1, 3), (3, 1, 2), (2, 2, 2)):
        s, t, perm = build_char_p_pair(p, n, k)
        assert_additive(s.geometry, perm)
        for kk in range(1, s.geometry.points_per_line):
            fast = check.is_k_orthogoval_pair(s, t, kk)
            slow = check.naive_k_orthogoval_pair(s, t, kk)
            assert bool(fast) == bool(slow) == (kk >= p)
            if kk != 2:
                assert fast.witness == slow.witness


def dense_pair_reference(s, t, k):
    """The reference for the pair decider's chunked scan: the dense scan it
    replaced, one int32 n*n table of s's line rows and every point pair
    id of every line of t gathered, pair by pair, and sorted at once; the
    k=2 witness from a stable re-sort of the hit lines' ids, packed as
    int64; else the least line of s, then of t."""
    g = s.geometry
    n = g.point_count
    if k >= g.points_per_line:
        return check.Verdict(True)
    ls, lt = (np.sort(x.perm[g.lines()], axis=1) for x in (s, t))
    table = np.empty(n * n, dtype=np.int32)
    pairs = np.array(list(itertools.combinations(range(ls.shape[1]), 2)))
    for i, j in pairs:
        table[ls[:, i] * n + ls[:, j]] = np.arange(len(ls), dtype=np.int32)

    def pair_ids(lines):
        ids = np.empty((len(lines), len(pairs)), dtype=np.int32)
        for c, (i, j) in enumerate(pairs):
            ids[:, c] = table[lines[:, i] * n + lines[:, j]]
        return ids

    ids = pair_ids(lt)
    ids.sort(axis=1)
    r = k * (k - 1) // 2
    hit = ids[:, r:] == ids[:, :-r]
    if not hit.any():
        return check.Verdict(True)
    hit[:, 1:] &= ~hit[:, :-1]
    rows, cols = np.nonzero(hit)
    sids = ids[rows, cols]
    if k == 2:
        hit_rows, at = np.unique(rows, return_inverse=True)
        order = np.argsort(pair_ids(lt[hit_rows]), axis=1, kind="stable")
        pos = np.column_stack([pairs[order[at, cols]],
                               pairs[order[at, cols + 1], 1]])
        tri = lt[rows[:, None], pos].astype(np.int64)
        first = np.argmin((tri[:, 0] * n + tri[:, 1]) * n + tri[:, 2])
        return check.Verdict(False, {"triple": tuple(tri[first].tolist()),
                                     "line_a": tuple(ls[sids[first]].tolist()),
                                     "line_b": tuple(lt[rows[first]].tolist())})
    first = np.lexsort((rows, sids))[0]
    a, b = ls[sids[first]].tolist(), lt[rows[first]].tolist()
    return check.Verdict(False, {"line_a": tuple(a), "line_b": tuple(b),
                                 "intersection": tuple(sorted(set(a) & set(b)))})


def assert_pair_equals_dense_reference(s, t, outcomes):
    for a, b in ((s, t), (t, s)):
        for k in (2, 3, 4):
            got = check.is_k_orthogoval_pair(a, b, k)
            assert got == dense_pair_reference(a, b, k), k
            outcomes.add((k, got.ok))


# AG and PG planes and 3-spaces, AG(4,3) and PG(4,2)
DENSE_REFERENCE_GEOMETRIES = [
    ("affine", 2, 3), ("affine", 2, 4), ("affine", 2, 5), ("affine", 2, 7),
    ("affine", 2, 8), ("affine", 2, 9), ("affine", 3, 3), ("affine", 3, 4),
    ("affine", 3, 5), ("affine", 4, 3), ("projective", 2, 2),
    ("projective", 2, 3), ("projective", 2, 4), ("projective", 2, 5),
    ("projective", 2, 7), ("projective", 3, 2), ("projective", 3, 3),
    ("projective", 3, 4), ("projective", 4, 2),
]


@pytest.mark.parametrize("chunk", [check._OVERLAP_CHUNK, 1],
                         ids=["default", "one-line"])
@pytest.mark.parametrize("kind, d, q", DENSE_REFERENCE_GEOMETRIES)
def test_pair_decider_equals_dense_reference(monkeypatch, chunk, kind, d, q):
    # a chunk of one id makes every line of t its own chunk
    monkeypatch.setattr(check, "_OVERLAP_CHUNK", chunk)
    g = (geom.affine if kind == "affine" else geom.projective)(d, q)
    rng = np.random.default_rng(d * 1000 + q)
    std = check.standard(g)
    outcomes = set()
    for s, t in ((std, random_space(g, rng)),
                 (random_space(g, rng), random_space(g, rng))):
        # w = t^-1 . s has no form, so the line index decides
        assert check._form(t.inverse()[s.perm], g) is None
        assert_pair_equals_dense_reference(s, t, outcomes)
    assert (2, False) in outcomes


def test_pair_witness_packs_triples_past_int32():
    # PG(2,37) has n^3 > 2^31: a triple packed in int32 would wrap, and
    # the least key would name another triple
    g = geom.projective(2, 37)
    s, t = check.standard(g), random_space(g, np.random.default_rng(37))
    for a, b in ((s, t), (t, s)):
        assert check.is_k_orthogoval_pair(a, b, 2) == dense_pair_reference(a, b, 2)


@pytest.mark.parametrize("chunk", [check._OVERLAP_CHUNK, 1],
                         ids=["default", "one-line"])
def test_pair_decider_equals_dense_reference_on_char_p_pairs(monkeypatch, chunk):
    monkeypatch.setattr(check, "_OVERLAP_CHUNK", chunk)
    outcomes = set()
    for p, n, k in ((2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2),
                    (3, 1, 2), (3, 1, 3), (3, 2, 2), (3, 2, 3), (5, 1, 2),
                    (5, 1, 3)):
        if chunk == 1 and (p, n, k) == (3, 2, 3):
            continue  # AG(3,9): 7,371 one-line chunks a call, 3 s in all
        s, t, _ = build_char_p_pair(p, n, k)
        assert_pair_equals_dense_reference(s, t, outcomes)
    # the pairs hold exactly at k >= p, so both verdicts show at k=2 and 3
    assert outcomes >= {(k, v) for k in (2, 3) for v in (True, False)}


def reference_block_scan(s, t, blocks, limit, names):
    """The reference for ``check._first_overlap``: the frozenset scan it
    replaced, each block's image built one point at a time, s-blocks
    outer and t-blocks inner in standard block order."""
    images_s = [frozenset(int(s.perm[p]) for p in f) for f in blocks]
    images_t = [frozenset(int(t.perm[p]) for p in f) for f in blocks]
    for a in images_s:
        for b in images_t:
            inter = a & b
            if len(inter) > limit:
                return check.Verdict(False, dict(zip(names, (
                    tuple(sorted(a)), tuple(sorted(b)), tuple(sorted(inter))))))
    return check.Verdict(True)


# half-dimension certificates of AG(2,3) and AG(2,4)
HALF_DIM_CERTIFICATES = {
    3: [0, 1, 3, 2, 4, 7, 6, 8, 5],
    4: [0, 1, 4, 5, 2, 3, 6, 7, 9, 8, 13, 12, 11, 10, 15, 14],
}


@pytest.mark.parametrize("kind, d, q", [
    ("affine", 2, 3), ("affine", 2, 4), ("affine", 2, 7), ("affine", 2, 9),
    ("affine", 3, 3), ("affine", 3, 4), ("affine", 4, 2), ("affine", 4, 3),
    ("projective", 2, 3), ("projective", 2, 7), ("projective", 4, 2),
])
def test_block_scan_equals_frozenset_reference(kind, d, q):
    g = (geom.affine if kind == "affine" else geom.projective)(d, q)
    rng = np.random.default_rng(d * 100 + q)
    n = g.point_count
    std = check.standard(g)
    pairs = [(std, random_space(g, rng)),
             (random_space(g, rng), random_space(g, rng))]
    # negative control: the identity map fails at every k below the line
    pairs.append((std, check.from_map(g, np.arange(n))))
    char_p = None
    if kind == "affine" and q in (4, 9) and d <= 3:
        # positive control: the char-p pair holds exactly at k >= p
        p = g.field.p
        char_p = build_char_p_pair(p, 2, d)[:2]
        pairs.append(char_p)
    if kind == "affine" and d == 2 and q in HALF_DIM_CERTIFICATES:
        # positive control: a known half-dimension-orthogoval pair
        pairs.append((std, check.from_map(g, HALF_DIM_CERTIFICATES[q])))
    lines = g.lines()
    outcomes = set()
    for s, t in pairs:
        for k in (0, 1, 2, 3):
            got = check.naive_k_orthogoval_pair(s, t, k)
            want = reference_block_scan(
                s, t, lines, k, ("line_a", "line_b", "intersection"))
            assert got == want, (k, got, want)
            outcomes.add(("naive", got.ok))
            if (s, t) == char_p:
                assert got.ok == (k >= g.field.p), k
        if d % 2 == 0:
            half = d // 2
            got = check.is_half_dimension_orthogoval(s, t)
            want = reference_block_scan(
                s, t, g.flats(half), half + 1,
                ("flat_a", "flat_b", "intersection"))
            assert got == want, (got, want)
            outcomes.add(("half", got.ok))
    assert ("naive", False) in outcomes
    if char_p is not None:
        assert ("naive", True) in outcomes
    if d % 2 == 0:
        assert ("half", False) in outcomes
    if kind == "affine" and d == 2 and q in HALF_DIM_CERTIFICATES:
        assert ("half", True) in outcomes


@pytest.mark.parametrize("chunk", [check._OVERLAP_CHUNK, 1],
                         ids=["default", "one-id"])
def test_block_scan_witness_beyond_the_first_chunk(monkeypatch, chunk):
    # the first line of s to meet a line of t in 5 points is row 25, in
    # the third chunk (rows 12..27) at the default size; with a chunk of
    # one id the scan takes one row at a time
    monkeypatch.setattr(check, "_OVERLAP_CHUNK", chunk)
    g = geom.projective(2, 7)
    s, t = check.standard(g), random_space(g, np.random.default_rng(0))
    names = ("line_a", "line_b", "intersection")
    got = check.naive_k_orthogoval_pair(s, t, 4)
    assert not got
    assert got == reference_block_scan(s, t, g.lines(), 4, names)
    assert s.lines().tolist().index(list(got.witness["line_a"])) == 25
    assert len(got.witness["intersection"]) == 5


def test_negative_k_is_refused():
    g = geom.affine(2, 3)
    rng = np.random.default_rng(3)
    s, t = random_space(g, rng), random_space(g, rng)
    for decide in (check.is_k_orthogoval_pair, check.naive_k_orthogoval_pair):
        with pytest.raises(ValueError, match="k must be >= 0"):
            decide(s, t, -1)
    with pytest.raises(ValueError, match="k must be >= 0"):
        check.are_mutually_orthogoval([s, t], -1)
    # k = 0 keeps a real witness: two lines sharing a point
    v = check.is_k_orthogoval_pair(s, t, 0)
    assert not v and len(v.witness["intersection"]) >= 1
    assert set(v.witness["intersection"]) <= (
        set(v.witness["line_a"]) & set(v.witness["line_b"]))


@pytest.mark.parametrize("d, q", [(2, 41), (4, 2), (6, 3)])
def test_projective_line_of_equals_line_through(d, q):
    # _line_of shifts the line through 0 and b - a by a; line_through
    # builds the line through a and b one field operation at a time
    g = geom.projective(d, q)
    n = g.point_count
    rng = np.random.default_rng(n)
    t = random_space(g, rng)
    for _ in range(300):
        a, b = (int(x) for x in rng.choice(n, 2, replace=False))
        want = g.line_through(a, b)
        on = int(rng.choice([x for x in want if x not in (a, b)]))
        off = int(rng.choice(sorted(set(range(n)) - set(want))))
        tri = [int(t.perm[x]) for x in (a, b, on)]
        assert check._line_of(t, tri) == tuple(sorted(
            int(t.perm[x]) for x in want))
        assert check._line_of(t, [int(t.perm[x]) for x in (a, b, off)]) is None


def test_family_check_matches_pairwise():
    g = geom.projective(4, 2)
    spaces = [check.standard(g)] + [phi_space(g, w) for w in (3, 5, 11)]
    fam = check.are_mutually_orthogoval(spaces)
    pair = all(
        bool(check.is_k_orthogoval_pair(spaces[i], spaces[j], 2))
        for i in range(4) for j in range(i + 1, 4))
    assert bool(fam) == pair


@pytest.mark.parametrize("d", [2, 3, 4])
def test_family_check_on_two_point_lines_matches_pairs(d):
    # lines of AG(d, 2) have two points and no triples, so every k >= 2
    # holds; k = 1 fails on every pair
    g = geom.affine(d, 2)
    rng = np.random.default_rng(d)
    for size in (2, 3, 4):
        spaces = [random_space(g, rng) for _ in range(size)]
        for k in (1, 2, 3):
            fam = check.are_mutually_orthogoval(spaces, k)
            pairs = [check.is_k_orthogoval_pair(a, b, k)
                     for a, b in itertools.combinations(spaces, 2)]
            assert bool(fam) == all(pairs) == (k >= 2), (size, k)
            if not fam:
                assert fam.witness == dict(pairs[0].witness, space_a=0,
                                           space_b=1)


def test_family_witness_names_the_offenders():
    g = geom.affine(2, 3)
    s = check.standard(g)
    t = random_space(g, np.random.default_rng(1))
    dup = check.from_map(g, t.perm, name="copy")
    v = check.are_mutually_orthogoval([s, t, dup])
    assert not v
    assert (v.witness["space_a"], v.witness["space_b"]) == (1, 2)
    ref = triple_reference(t, dup)
    assert {key: v.witness[key] for key in ref} == ref


def test_geometry_mismatch_rejected():
    s = check.standard(geom.affine(2, 3))
    t = check.standard(geom.affine(3, 3))
    with pytest.raises(GeometryMismatch):
        check.is_k_orthogoval_pair(s, t, 2)


def test_space_perm_is_a_read_only_copy():
    g = geom.affine(2, 3)
    perm = np.arange(9, dtype=np.int64)
    s = check.from_map(g, perm)
    perm[:2] = [1, 0]  # the caller's array is not aliased
    assert s.is_standard
    with pytest.raises(ValueError):
        s.perm[0] = 1


def test_spaces_compare_by_identity():
    # the map is an array, so == compares the objects, never their maps
    g = geom.affine(2, 3)
    s = check.standard(g)
    assert s == s and not (s != s)
    assert check.standard(g) != check.standard(g)
    assert check.standard(geom.affine(2, 3)) != check.standard(geom.affine(2, 3))
    assert len({s, check.standard(g)}) == 2  # and they hash


@pytest.mark.parametrize("perm", [
    np.arange(9, dtype=np.float64),
    np.arange(9) + 0.5,
    list(range(8)) + [8.0],
    np.array(list(range(8)) + [2 ** 70], dtype=object),
    np.array(list(range(8)) + [-2 ** 70], dtype=object),
    np.arange(9) < 9,
    np.arange(9) < 5,
    np.arange(8),
    np.arange(10),
    np.arange(9).reshape(3, 3),
    np.array([-9] + list(range(1, 9))),
    np.array(list(range(8)) + [9]),
    np.arange(9) - 1,
    np.arange(1, 10),
    np.array(list(range(8)) + [2 ** 63], dtype=np.uint64),
    np.array([0, 0] + list(range(2, 9))),
], ids=["float", "float-array", "float-in-list", "object-2^70",
        "object--2^70", "bool", "bool-mixed", "short", "long", "2-D",
        "negative", "too-large", "-1..7", "1..9", "uint64-2^63",
        "duplicate"])
def test_space_refuses_a_map_that_is_not_a_permutation(perm):
    # each refusal of the linear check: kind (a float map is refused, not
    # rounded down to the identity), shape, range (distinct values of the
    # right count, but not the indices 0..8), then a point hit twice; -9
    # would index point 0, the one missing
    with pytest.raises(ValueError, match="not a permutation"):
        check.from_map(geom.affine(2, 3), perm)


@pytest.mark.parametrize("perm", [
    np.arange(9, dtype=np.int8)[::-1],
    np.arange(9, dtype=np.uint16)[::-1],
    np.arange(9, dtype=np.int64)[::-1],
    np.arange(9, dtype=np.uint64)[::-1],
    list(range(9))[::-1],
], ids=["int8", "uint16", "int64", "uint64", "list"])
def test_space_accepts_any_integer_map(perm):
    s = check.from_map(geom.affine(2, 3), perm)
    assert s.perm.dtype == np.int64
    assert s.perm.tolist() == list(range(9))[::-1]


def singer_shift(g, c):
    """Multiplication of Singer labels by z^c: a projective collineation."""
    n = g.point_count
    return (np.arange(n) + c) % n


def test_translations_and_singer_shifts_are_collineations(translation_map):
    g = geom.affine(3, 3)
    perm = translation_map(g, (1, 2, 0))
    t = check.from_map(g, perm)
    assert ({frozenset(r) for r in t.lines().tolist()}
            == {frozenset(r) for r in check.standard(g).lines().tolist()})
    gp = geom.projective(2, 2)
    t2 = check.from_map(gp, singer_shift(gp, 3))
    assert ({frozenset(r) for r in t2.lines().tolist()}
            == {frozenset(r) for r in check.standard(gp).lines().tolist()})


def test_compose_order():
    a = np.array([1, 2, 0])
    b = np.array([0, 2, 1])
    # compose(outer, inner)[x] = outer[inner[x]]
    assert check.compose(a, b).tolist() == [1, 0, 2]


def test_in_general_position():
    g = geom.projective(2, 2)
    s = check.standard(g)
    line = [int(x) for x in g.lines()[0]]
    assert not check.in_general_position(s, line)
    # a triangle is in general position in the plane
    others = [p for p in range(7) if p not in line]
    assert check.in_general_position(s, [line[0], line[1]])


def test_askew_pair_phi_inverse():
    from orthokit.build import build_askew_pair
    s, t = build_askew_pair(2, 3)
    assert check.is_askew_pair(s, t)


def test_askew_fails_for_identity():
    g = geom.projective(2, 2)
    s = check.standard(g)
    t = check.from_map(g, np.arange(7))
    assert not check.is_askew_pair(s, t)


# ----------------------------------------------------------------------
# batched askew decider against the per-line oracle
# ----------------------------------------------------------------------

ASKEW_ROWS = [(2, 2), (2, 3), (2, 5), (4, 2), (4, 3), (6, 2)]
# the inversion is not askew on these: k+1 is not prime
ASKEW_NEGATIVE = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]


def assert_askew_equals_naive(s, t):
    fast, slow = check.is_askew_pair(s, t), check.naive_askew_pair(s, t)
    assert (fast.ok, fast.witness) == (slow.ok, slow.witness)
    return fast


@pytest.mark.parametrize("k, q", ASKEW_ROWS)
def test_askew_equals_naive_on_reproduce_pairs(k, q):
    from orthokit.build import build_askew_pair
    assert assert_askew_equals_naive(*build_askew_pair(k, q))


@pytest.mark.parametrize("k, q", ASKEW_NEGATIVE)
def test_askew_negative_controls_fail_with_the_oracle_witness(k, q):
    g = geom.projective(k, q)
    v = assert_askew_equals_naive(check.standard(g), phi_space(g, -1))
    assert not v
    assert v.witness["line_of"] == "first"


def _refuse_line_list(monkeypatch):
    def refuse(self):
        raise AssertionError("Geometry.lines called")

    monkeypatch.setattr(geom.Geometry, "lines", refuse)


@pytest.mark.parametrize("k, q, u", [(k, q, -1) for k, q in ASKEW_NEGATIVE]
                         + [(2, 4, 2), (3, 4, 2), (2, 9, 3)])
@pytest.mark.parametrize("power_first", [False, True])
def test_failing_singer_askew_pair_reports_from_lines_through_0(
        monkeypatch, k, q, u, power_first):
    # lines through 0 come first in lines(), and failing is kept by Singer
    # shifts, so the oracle's witness is found without the line list
    g = geom.projective(k, q)
    s, t = check.standard(g), phi_space(g, u)
    if power_first:
        s, t = t, s
    slow = check.naive_askew_pair(s, t)
    assert not slow
    _refuse_line_list(monkeypatch)
    fast = check.is_askew_pair(s, t)
    assert (fast.ok, fast.witness) == (slow.ok, slow.witness)


def test_failing_multiplier_pair_pg49_needs_no_line_list(monkeypatch):
    # u = 2 on PG(4, 9), whose 605,242 lines the per-line oracle would scan
    g = geom.projective(4, 9)
    s = check.standard(g)
    t = check.from_map(g, 2 * np.arange(g.point_count) % g.point_count)
    _refuse_line_list(monkeypatch)
    v = check.is_askew_pair(s, t)
    assert not v and v.witness["line_of"] == "first"
    line = v.witness["line"]
    assert line[0] == 0 and list(line) == sorted(line)
    assert g.rank_of(line) == 2 and not check.in_general_position(t, line)


ASKEW_SWEEP = [("projective", 2, 2), ("projective", 2, 3), ("projective", 2, 4),
               ("projective", 3, 2), ("affine", 2, 3), ("affine", 2, 4),
               ("affine", 3, 2)]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(ASKEW_SWEEP), seed=st.integers(0, 2 ** 32 - 1),
       standard_first=st.booleans())
def test_askew_equals_naive_on_random_bijections(case, seed, standard_first):
    kind, d, q = case
    g = geom.Geometry(kind, d, q)
    rng = np.random.default_rng(seed)
    s = check.standard(g) if standard_first else random_space(g, rng)
    assert_askew_equals_naive(s, random_space(g, rng))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 256]), rows=st.integers(1, 5),
       cols=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_full_rank_equals_gf_rank(q, rows, cols, seed):
    field = geom.projective(1, q).field
    rng = np.random.default_rng(seed)
    mats = rng.integers(0, q, size=(8, rows, cols))
    # sparse entries and repeated rows, so that zero pivots and dependent
    # rows are common
    mats[rng.random(mats.shape) < 0.4] = 0
    mats[::2, -1] = mats[::2, 0]
    got = check._full_rank(mats, field)
    assert got.tolist() == [geom._gf_rank(m, field) == rows for m in mats.tolist()]


@pytest.mark.parametrize("k, q", [(4, 3), (6, 2)])
def test_singer_askew_path_makes_no_rank_call_and_no_line_scan(monkeypatch, k, q):
    from orthokit.build import build_askew_pair
    s, t = build_askew_pair(k, q)
    calls = []

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return wrapper

    for name in ("rank_of", "lines"):
        monkeypatch.setattr(geom.Geometry, name,
                            counted(name, getattr(geom.Geometry, name)))
    assert check.is_askew_pair(s, t)
    assert calls == []


# PG(d, q) with d even: the askew construction x -> -x lives here
MIRROR_GEOMETRIES = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8),
                     (4, 2), (4, 3), (6, 2)]


def _mirrored_units(g):
    """The units u mod N with 1/u in u*<p>, p the characteristic."""
    n, p = g.point_count, g.field.p
    frobenius = {pow(p, j, n) for j in range(n)}
    return [u for u in range(1, n) if math.gcd(u, n) == 1
            and any(pow(u, -1, n) == u * f % n for f in frobenius)]


@pytest.mark.parametrize("d, q", MIRROR_GEOMETRIES)
def test_askew_directions_agree_on_every_mirrored_unit(d, q):
    # the second direction of (S, uS) is the first of (S, u^-1 S), and
    # x -> p*x keeps lines and ranks: so for every such unit both
    # directions, each run on every line, give one verdict
    g = geom.projective(d, q)
    std = check.standard(g)
    units = _mirrored_units(g)
    assert g.point_count - 1 in units  # u = -1, the askew construction
    for u in units:
        t = _multiplier_space(g, u)
        first = check._first_outside_general_position(std.lines(), t)
        second = check._first_outside_general_position(t.lines(), std)
        assert (first is None) is (second is None), u


@pytest.mark.parametrize("k, q", ASKEW_ROWS)
def test_askew_skips_the_mirror_direction_and_equals_naive(monkeypatch, k, q):
    g = geom.projective(k, q)
    n = g.point_count
    rng = np.random.default_rng(n)
    calls = []
    scan = check._first_outside_general_position

    def counting(rows, space):
        calls.append(space)
        return scan(rows, space)
    monkeypatch.setattr(check, "_first_outside_general_position", counting)
    mirrored = _mirrored_units(g)
    for u in mirrored[:4] + [n - 1]:
        # shifted on both sides: the shifts keep every rank
        s = check.from_map(g, singer_shift(g, int(rng.integers(n))))
        t = check.from_map(g, (np.arange(n) * u + rng.integers(n)) % n)
        for a, b in ((s, t), (t, s)):
            calls.clear()
            assert_askew_equals_naive(a, b)
            assert len(calls) == 1, u
    # a passing pair whose ratio is not mirrored runs both directions;
    # on PG(2, 2) every unit is mirrored
    for u in _units(n):
        if u not in mirrored and check.is_askew_pair(
                check.standard(g), _multiplier_space(g, u)):
            calls.clear()
            assert_askew_equals_naive(check.standard(g), _multiplier_space(g, u))
            assert len(calls) == 2, u
            break
    else:
        assert (k, q) == (2, 2) and mirrored == _units(n)


def test_half_dim_known_pair_ag23():
    g = geom.affine(2, 3)
    s = check.standard(g)
    t = check.from_map(g, [0, 1, 3, 2, 4, 7, 6, 8, 5])
    assert check.is_half_dimension_orthogoval(s, t)


def test_half_dim_identity_fails():
    g = geom.affine(2, 3)
    s = check.standard(g)
    assert not check.is_half_dimension_orthogoval(s, check.from_map(g, np.arange(9)))


def _first_flat_holding(flats, pts):
    """The first row of ``flats`` that contains every point of ``pts``."""
    return next(f for f in flats if set(pts) <= set(f.tolist()))


@pytest.mark.parametrize("kind, d, q", [("affine", 4, 3), ("affine", 4, 4),
                                        ("affine", 6, 2), ("projective", 4, 2),
                                        ("projective", 4, 3)])
def test_dependent_set_argument_rules_out_half_dimension_mates(kind, d, q):
    # In dimension d = 2k, a standard (k-1)-flat with k+1 points Y defeats
    # every bijection pi: pi^-1(Y) lies in some standard k-flat F, a point
    # z of pi(F) outside Y and Y span at most a standard k-flat G, and
    # pi(F) and G share the k+2 points of Y and z.
    g = (geom.affine if kind == "affine" else geom.projective)(d, q)
    k, std = d // 2, check.standard(g)
    rng = np.random.default_rng(d * 100 + q)
    for _ in range(20):
        perm = rng.permutation(g.point_count)
        inv = np.argsort(perm)
        y = g.flats(k - 1)[rng.integers(len(g.flats(k - 1)))][:k + 1].tolist()
        image = perm[_first_flat_holding(g.flats(k), inv[y])]
        z = next(x for x in image.tolist() if x not in y)
        big = _first_flat_holding(g.flats(k), y + [z])
        assert len(set(image.tolist()) & set(big.tolist())) >= k + 2
        assert not check.is_half_dimension_orthogoval(
            std, check.from_map(g, perm))


@pytest.mark.parametrize("d, q", [(4, 2), (2, 3), (2, 5)])
def test_dependent_set_argument_leaves_ag42_and_planes(d, q):
    # no standard (k-1)-flat of these has k+1 points
    k = d // 2
    assert geom.affine(d, q).flats(k - 1).shape[1] < k + 1


def test_half_dim_odd_dimension_rejected():
    g = geom.affine(3, 3)
    s = check.standard(g)
    with pytest.raises(OddDimension):
        check.is_half_dimension_orthogoval(s, check.from_map(g, np.arange(27)))


def test_triple_pack_roundtrip():
    g = geom.affine(2, 3)
    keys = check.packed_triples(g, g.lines())
    n = g.point_count
    assert len(keys) == len(set(keys.tolist())) == 12  # 12 lines, one triple each
    for key in keys[:5]:
        a, b, c = check.unpack_triple(int(key), n)
        assert a < b < c
        assert set(g.line_through(a, b)) == {a, b, c}


def test_failing_full_index_packs_each_space_once(monkeypatch):
    g = geom.affine(2, 3)
    rng = np.random.default_rng(1)
    t = random_space(g, rng)
    fam = [check.standard(g), t, random_space(g, rng),
           check.from_map(g, t.perm, name="copy")]
    calls = []

    def counting(*args):
        calls.append(1)
        return pack(*args)

    pack = check.packed_triples
    monkeypatch.setattr(check, "_TRIPLE_CACHE_LIMIT", 0)
    monkeypatch.setattr(check, "packed_triples", counting)
    v = check.are_mutually_orthogoval(fam)
    assert not v
    assert (v.witness["space_a"], v.witness["space_b"]) == (1, 3)
    assert len(calls) == len(fam)


# ----------------------------------------------------------------------
# Singer reduction: spaces x -> u*x + c (mod N) on projective points
# ----------------------------------------------------------------------

@contextlib.contextmanager
def full_index_off():
    """Make the full line enumeration and the triple packer raise: a
    decider that returns inside took the reduced path."""
    def boom(*args):
        raise AssertionError("the reduced path used the full index")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(geom.Geometry, "lines", boom)
        m.setattr(check, "packed_triples", boom)
        yield


def family_reference(spaces, through_zero=False):
    """k=2 family witness from the triple indexes built by
    ``packed_triples``: the least key packed by two spaces, its first two
    owners and ``triple_reference`` on them, or None.  With
    ``through_zero`` each space packs only its lines through point 0,
    found in the full line enumeration, and keeps the triples (0, b, c)."""
    g = spaces[0].geometry
    n = g.point_count
    keys = []
    for s in spaces:
        if through_zero:
            std = g.lines()
            k = check.packed_triples(
                g, s.perm[std[(std == s.inverse()[0]).any(axis=1)]])
            keys.append(k[k < n * n])
        else:
            keys.append(check.packed_triples(g, s.lines()))
    every = np.sort(np.concatenate(keys))
    dup = every[1:][every[1:] == every[:-1]]
    if len(dup) == 0:
        return None
    i, j = [i for i, k in enumerate(keys) if dup[0] in k][:2]
    return dict(triple_reference(spaces[i], spaces[j]), space_a=i, space_b=j)


def multiplier_space(g, rng):
    n = g.point_count
    u = int(rng.integers(1, n))
    while np.gcd(u, n) != 1:
        u = int(rng.integers(1, n))
    c = int(rng.integers(0, n))
    return check.from_map(g, (np.arange(n) * u + c) % n, name=f"{u}x+{c}")


# Chains one step longer than their big-sets row: each family must fail.
OVER_LONG_CHAINS = ((2, 5, 3, 6), (2, 7, 3, 18), (3, 5, 17, 10), (5, 5, 3, 7))
BIG_SETS_FAMILIES = (
    [pytest.param((q, r, w, n), True, id=f"row-{q},{r},{w},{n}")
     for q, r, ws, n in BIG_SETS_TABLE for w in ws]
    + [pytest.param(row, False, id="over-long-" + ",".join(map(str, row)))
       for row in OVER_LONG_CHAINS])


@pytest.mark.parametrize("row,holds", BIG_SETS_FAMILIES)
def test_reduced_family_check_equals_triple_index_on_big_sets(row, holds):
    fam = build_phi_family(*row)
    g = fam[0].geometry
    # the PG(6,3) and PG(6,4) rows pack 31M and 164M triples in all, so
    # on those two only the triples through point 0 are compared
    small = g.line_count * check._c3(g.points_per_line) * len(fam) <= 4_000_000
    ref = family_reference(fam, through_zero=not small)
    assert (ref is None) == holds
    with full_index_off():
        v = check.are_mutually_orthogoval(fam)
    assert bool(v) == holds
    assert v.witness == ref


def test_reduced_checks_equal_triple_index_on_seeded_maps():
    rng = np.random.default_rng(20261018)
    outcomes = set()
    for dim, q in ((1, 2), (1, 5), (2, 2), (2, 4), (3, 3), (4, 2), (4, 5)):
        g = geom.projective(dim, q)
        for _ in range(6):
            s, t = multiplier_space(g, rng), multiplier_space(g, rng)
            ref = triple_reference(s, t)
            with full_index_off():
                v = check.is_k_orthogoval_pair(s, t, 2)
            assert bool(v) == (ref is None) and v.witness == ref, (g, s, t)
            outcomes.add(bool(v))
        for _ in range(3):
            fam = [multiplier_space(g, rng) for _ in range(3)]
            ref = family_reference(fam)
            with full_index_off():
                v = check.are_mutually_orthogoval(fam)
            assert bool(v) == (ref is None) and v.witness == ref, (g, fam)
            outcomes.add(bool(v))
    # negative controls: the standard space against itself shifted
    g = geom.projective(2, 4)
    with full_index_off():
        assert not check.is_k_orthogoval_pair(
            check.standard(g), check.from_map(g, singer_shift(g, 5)), 2)
    assert outcomes == {True, False}


def test_near_multiplier_maps_fall_back_to_the_full_index():
    g = geom.projective(4, 2)
    for w in (3, 5, 11):
        perm = build_phi_map(g, w)
        for i, j in ((0, 1), (7, 19)):
            bad = perm.copy()
            bad[[i, j]] = bad[[j, i]]
            t = check.from_map(g, bad)
            assert check._singer_multiplier(t.perm, g) is None
            s = check.standard(g)
            v = check.is_k_orthogoval_pair(s, t, 2)
            ref = triple_reference(s, t)
            assert bool(v) == (ref is None) and v.witness == ref
            fam = [s, phi_space(g, 3), t]
            v = check.are_mutually_orthogoval(fam)
            ref = family_reference(fam)
            assert bool(v) == (ref is None) and v.witness == ref


def test_cycle_catalog_family_falls_back_and_verifies():
    from orthokit.build import catalog_family
    fam = catalog_family("PG3_F2_X7")
    assert any(check._singer_multiplier(s.perm, s.geometry) is None
               for s in fam)
    assert check.are_mutually_orthogoval(fam)
    assert family_reference(fam) is None


def test_failing_non_singer_family_builds_no_line_table(monkeypatch):
    # the witness comes from the least duplicate key and its owners, so no
    # pair decider runs and no n*n line table is built
    g = geom.projective(4, 2)
    swapped = np.arange(g.point_count)
    swapped[[0, 1]] = swapped[[1, 0]]
    fam = [phi_space(g, 3), check.from_map(g, swapped), check.standard(g)]
    assert check._singer_multiplier(fam[1].perm, g) is None
    ref = family_reference(fam)

    def boom(*args):
        raise AssertionError("the family check built a line table")
    monkeypatch.setattr(check, "_line_index", boom)
    v = check.are_mutually_orthogoval(fam)
    assert not v and v.witness == ref


def _fallback_families(rng):
    from orthokit.build import catalog_family, catalog_names
    # the catalog families hold; random families fail, and so do families
    # with a copied space, which must name the copy's first owner
    fams = [catalog_family(name) for name in catalog_names()]
    for g in (geom.affine(2, 3), geom.affine(2, 5), geom.affine(3, 3),
              geom.projective(2, 3), geom.projective(3, 2)):
        for size in (2, 3, 4):
            fams.append([random_space(g, rng) for _ in range(size)])
        t = random_space(g, rng)
        fams.append([check.standard(g), t, random_space(g, rng),
                     check.from_map(g, t.perm, name="copy")])
    # multiplier spaces among others: the pairs of two of them take the
    # Singer path
    g = geom.projective(4, 2)
    fams.append([check.standard(g), phi_space(g, 3), random_space(g, rng),
                 phi_space(g, 5)])
    return fams


def test_pairwise_family_fallback_equals_the_triple_index(monkeypatch):
    fams = _fallback_families(np.random.default_rng(20261019))
    want = [check.are_mutually_orthogoval(fam) for fam in fams]
    assert {v.ok for v in want} == {True, False}

    def boom(*args):
        raise AssertionError("the fallback packed a triple index")
    monkeypatch.setattr(check, "_FAMILY_KEYS", 0)
    monkeypatch.setattr(check, "packed_triples", boom)
    for fam, v in zip(fams, want):
        assert None in [check._form(s.perm, s.geometry) for s in fam]
        got = check.are_mutually_orthogoval(fam)
        assert got == v, fam[0].geometry


def test_family_key_budget_is_checked_before_packing(monkeypatch):
    # a family exactly at the budget packs its index; one key more and it
    # goes pair by pair, each of its three pairs through the line index
    g = geom.affine(2, 3)
    rng = np.random.default_rng(3)
    fam = [check.standard(g), random_space(g, rng), random_space(g, rng)]
    assert [check._form(s.perm, g) is None for s in fam] == [False, True, True]
    keys = len(fam) * g.line_count * check._c3(g.points_per_line)
    pairs = []
    hit = check._least_hit

    def counting(*args):
        pairs.append(1)
        return hit(*args)
    monkeypatch.setattr(check, "_least_hit", counting)
    monkeypatch.setattr(check, "_FAMILY_KEYS", keys)
    check.are_mutually_orthogoval(fam)
    assert pairs == []
    monkeypatch.setattr(check, "_FAMILY_KEYS", keys - 1)
    check.are_mutually_orthogoval(fam)
    assert pairs == [1, 1, 1]


def test_pairwise_fallback_builds_one_line_index_per_space(monkeypatch):
    # space i's index serves every j > i, so a 4-space family builds 3
    # indices for its 6 pairs, and a pair of two multipliers builds none
    calls = []
    index = check._line_index

    def counting(space):
        calls.append(space)
        return index(space)
    monkeypatch.setattr(check, "_FAMILY_KEYS", 0)
    monkeypatch.setattr(check, "_line_index", counting)
    g = geom.projective(3, 2)
    rng = np.random.default_rng(5)
    fam = [random_space(g, rng) for _ in range(4)]
    assert check.are_mutually_orthogoval(fam).witness == family_reference(fam)
    assert calls == fam[:3]
    calls.clear()
    fam = [random_space(g, rng), check.standard(g), phi_space(g, 2)]
    assert check.are_mutually_orthogoval(fam).witness == family_reference(fam)
    assert calls == fam[:1]


# ----------------------------------------------------------------------
# the ratio path: a family of spaces x -> u*x + c holds at k=2 exactly when
# every ratio u_j/u_i is in O, decided once per orbit under u -> p*u, 1/u
# ----------------------------------------------------------------------

SEEDED_PROJECTIVE = ((1, 5), (2, 2), (2, 4), (3, 3), (4, 2), (4, 3), (4, 5))


def _seeded_multiplier_cases(rng):
    """Seeded pairs and three-space families of multiplier spaces, with
    random shifts c, each with the triple-index reference witness."""
    pairs, fams = [], []
    for dim, q in SEEDED_PROJECTIVE:
        g = geom.projective(dim, q)
        for _ in range(6):
            s, t = multiplier_space(g, rng), multiplier_space(g, rng)
            pairs.append(((s, t), triple_reference(s, t)))
        for _ in range(4):
            fam = [multiplier_space(g, rng) for _ in range(3)]
            fams.append((fam, family_reference(fam)))
    return pairs, fams


def test_passing_multiplier_families_pack_no_keys(monkeypatch):
    rows = [build_phi_family(q, r, w, n)
            for q, r, ws, n in BIG_SETS_TABLE for w in ws]
    pairs, fams = _seeded_multiplier_cases(np.random.default_rng(20261020))
    pairs = [pair for pair, ref in pairs if ref is None]
    fams = [fam for fam, ref in fams if ref is None]
    assert len(pairs) >= 5 and len(fams) >= 3

    def boom(*args):
        raise AssertionError("a passing multiplier family packed keys")
    monkeypatch.setattr(check, "_origin_keys", boom)
    with full_index_off():
        for fam in rows + fams:
            assert check.are_mutually_orthogoval(fam)
        for s, t in pairs:
            assert check.is_k_orthogoval_pair(s, t, 2)
            assert check.is_k_orthogoval_pair(t, s, 2)


def _failing_multiplier_families():
    fams = [build_phi_family(*row) for row in OVER_LONG_CHAINS]
    # a repeated multiplier under another shift: the ratio 1
    g = geom.projective(4, 2)
    n = g.point_count
    fams.append([check.standard(g), phi_space(g, 3),
                 check.from_map(g, (np.arange(n) * 3 + 5) % n)])
    fams.append([check.from_map(g, (np.arange(n) + 7) % n), phi_space(g, 5),
                 check.standard(g)])
    _, seeded = _seeded_multiplier_cases(np.random.default_rng(20261021))
    fams += [fam for fam, ref in seeded if ref is not None]
    return fams


def test_failing_multiplier_families_keep_the_index_witness(monkeypatch):
    fams = _failing_multiplier_families()
    assert len(fams) > 10
    refs = [family_reference(fam, through_zero=True) for fam in fams]
    packed = []
    keys = check._origin_keys

    def counting(spaces, g):
        packed.append(1)
        return keys(spaces, g)
    monkeypatch.setattr(check, "_origin_keys", counting)
    with full_index_off():
        for fam, ref in zip(fams, refs):
            assert ref is not None
            packed.clear()
            v = check.are_mutually_orthogoval(fam)
            assert not v and v.witness == ref, fam
            assert packed == [1]  # the keys are packed once, for the witness
            i, j = ref["space_a"], ref["space_b"]
            v = check.is_k_orthogoval_pair(fam[i], fam[j], 2)
            assert not v
            assert v.witness == {key: ref[key]
                                 for key in ("triple", "line_a", "line_b")}


def test_ratio_path_calls_the_decider_once_per_orbit(
        monkeypatch, multiplier_orbit):
    # every ratio goes through the memoized decider, which gathers once per
    # orbit of the ratios under u -> p*u and u -> 1/u
    fam = build_phi_family(3, 7, 25, 77)
    g = fam[0].geometry
    n, p = g.point_count, g.field.p
    us = [int(s.perm[1]) for s in fam]  # x -> u*x sends 1 to u
    ratios = {us[j] * pow(us[i], -1, n) % n
              for i, j in itertools.combinations(range(len(us)), 2)}
    orbits = {multiplier_orbit(u, n, p) for u in ratios}
    assert (len(ratios), len(orbits)) == (77, 39)
    calls = []
    gather = check._multiplier_gather

    def counting(g, u):
        calls.append(u)
        return gather(g, u)
    monkeypatch.setattr(check, "_multiplier_gather", counting)
    assert check.are_mutually_orthogoval(fam)
    assert len(calls) == len(orbits)
    assert {multiplier_orbit(u, n, p) for u in calls} == orbits
    # a second check of the family is all lookups
    calls.clear()
    assert check.are_mutually_orthogoval(fam)
    assert calls == []
    # a pair takes one gather on w = t^-1 . s, the multiplier u_3/u_1
    gathers = []
    repeat = check._origin_repeat

    def gathering(g, images, k):
        gathers.append(k)
        return repeat(g, images, k)
    monkeypatch.setattr(check, "_origin_repeat", gathering)
    assert check.is_k_orthogoval_pair(fam[3], fam[1], 2)
    assert gathers == [2] and calls == []


# ----------------------------------------------------------------------
# the multiplier decider against the key index and the line oracle
# ----------------------------------------------------------------------

def _prime_powers(limit):
    return [q for q in range(2, limit) if len(prime_factors(q)) == 1]


# every PG(d, q), d >= 2, with N < 2,000; on PG(1, q) the one line is the
# whole space, so every unit fails, and q < 10 stands for the rest
MULTIPLIER_GEOMETRIES = [(1, q) for q in _prime_powers(10)] + [
    (d, q) for d in range(2, 11) for q in _prime_powers(50)
    if (q ** (d + 1) - 1) // (q - 1) < 2_000]
# a passing unit costs the line oracle every line pair: on geometries
# with more pairs than this it checks the failing units and the least
# passing one
_NAIVE_LINE_PAIRS = 10 ** 6


def _units(n):
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def _multiplier_space(g, u):
    n = g.point_count
    return check.from_map(g, np.arange(n) * u % n)


def _key_index_set(g):
    """The units u mod N whose x -> u*x shares no colinear triple with
    the standard space of the projective g, by the pair decider's Singer
    key index: the pair decider's own verdict comes from the multiplier
    decider."""
    std = check.standard(g)
    out = set()
    for u in _units(g.point_count):
        pair = [std, _multiplier_space(g, u)]
        if check._least_shared_triple(pair, g, check._origin_keys(pair, g)) is None:
            out.add(u)
    return frozenset(out)


@functools.lru_cache(maxsize=None)
def _key_index_multipliers(d, q):
    """``_key_index_set`` of the standard PG(d, q)."""
    return _key_index_set(geom.projective(d, q))


@pytest.mark.parametrize("d, q", MULTIPLIER_GEOMETRIES)
def test_multiplier_decider_equals_pair_decider_on_every_unit(d, q):
    # units mod N, not build_phi_map's exponents: it refuses u = 12 on
    # PG(4, 3), a unit mod 121 but not mod 242
    g = geom.projective(d, q)
    passing = _key_index_multipliers(d, q)
    for u in _units(g.point_count):
        assert check._multiplier_gather(g, u) is (u in passing), u
        assert check.is_multiplier_orthomorphism(g, u) is (u in passing), u


@pytest.mark.parametrize("d, q", MULTIPLIER_GEOMETRIES)
def test_multiplier_set_is_closed_under_frobenius_and_inversion(d, q):
    # the two moves the ratio path makes: x -> p*x is the Frobenius
    # collineation, so u and p*u give one space, and (S, uS) is carried
    # onto (S, u^-1 S) by x -> u^-1 x; checked on the key index
    g = geom.projective(d, q)
    n, p = g.point_count, g.field.p
    passing = _key_index_multipliers(d, q)
    for u in _units(n):
        assert (p * u % n in passing) is (u in passing), u
        assert (pow(u, -1, n) in passing) is (u in passing), u


@pytest.mark.parametrize("d, q", [
    (d, q) for d, q in MULTIPLIER_GEOMETRIES
    if (q ** (d + 1) - 1) // (q - 1) < 150])
def test_multiplier_decider_equals_line_oracle(d, q):
    g = geom.projective(d, q)
    std = check.standard(g)
    passing_left = 1 if g.line_count ** 2 > _NAIVE_LINE_PAIRS else math.inf
    for u in _units(g.point_count):
        fast = check._multiplier_gather(g, u)
        assert check.is_multiplier_orthomorphism(g, u) is fast, u
        if fast:
            if not passing_left:
                continue
            passing_left -= 1
        slow = check.naive_k_orthogoval_pair(std, _multiplier_space(g, u), 2)
        assert fast is bool(slow), u


@pytest.mark.parametrize("d, q", MULTIPLIER_GEOMETRIES)
def test_multiplier_memo_does_not_depend_on_query_order(d, q):
    # a fresh geometry queried in a seeded shuffle: each verdict, whether
    # gathered or looked up, is the raw gather's
    g = geom.projective(d, q)
    units = _units(g.point_count)
    random.Random(20261021 + 100 * d + q).shuffle(units)
    got = {u: check.is_multiplier_orthomorphism(g, u) for u in units}
    assert got == {u: check._multiplier_gather(g, u) for u in units}
    assert {u for u, ok in got.items() if ok} == _key_index_multipliers(d, q)


@pytest.mark.parametrize("make_a, make_b", [
    # PG(4, 3) under two labelling moduli: the moduli relabel the points
    # by a unit, which commutes with every multiplier, so O is the same
    (lambda: geom.projective(4, 3),
     lambda: geom.projective(4, 3, labeling_modulus=[1, 0, 0, 0, 2, 1])),
    # PG(4, 2) and PG(2, 5) both have N = 31 and different sets O
    (lambda: geom.projective(4, 2), lambda: geom.projective(2, 5)),
])
def test_each_geometry_keeps_its_own_multiplier_memo(make_a, make_b):
    a, b = make_a(), make_b()
    n = a.point_count
    assert b.point_count == n
    got = {id(a): set(), id(b): set()}
    for u in _units(n):
        for g in (a, b):
            if check.is_multiplier_orthomorphism(g, u):
                got[id(g)].add(u)
    assert got[id(a)] == _key_index_set(a)
    assert got[id(b)] == _key_index_set(b)
    assert a._multipliers[0] is not b._multipliers[0]


def test_multiplier_decider_returns_a_bool_and_refuses_before_the_memo():
    g = geom.projective(4, 3)
    # a non-unit on a fresh geometry makes no memo
    with pytest.raises(ValueError, match="not a unit"):
        check.is_multiplier_orthomorphism(g, 11)
    assert g._multipliers is None
    passing = _key_index_multipliers(4, 3)
    for u in (min(passing), 1, min(passing) + 121, 1 + 121):
        for _ in range(2):  # gathered, then looked up
            ok = check.is_multiplier_orthomorphism(g, u)
            assert type(ok) is bool and ok is (u % 121 in passing), u
    memo = g._multipliers[0].copy()
    for u in (0, 11, 121 + 22, -11):
        with pytest.raises(ValueError, match="not a unit"):
            check.is_multiplier_orthomorphism(g, u)
    assert np.array_equal(g._multipliers[0], memo)
    # an affine geometry has no Singer labels: refused, not looped on
    with pytest.raises(ValueError, match="projective"):
        check.is_multiplier_orthomorphism(geom.affine(2, 3), 2)


@pytest.mark.parametrize("q, r, w, n", [
    (2, 5, 3, 5), (2, 7, 3, 17), (3, 5, 17, 9), (5, 5, 3, 6)])
def test_multiplier_decider_negative_controls(q, r, w, n):
    # the identity, and the first power past each big-sets chain, must fail
    g = geom.projective(r - 1, q)
    big, size = q ** r - 1, g.point_count
    assert not check.is_multiplier_orthomorphism(g, 1)
    assert all(check.is_multiplier_orthomorphism(g, pow(w, i, big) % size)
               for i in range(1, n + 1))
    past = pow(w, n + 1, big)
    assert not check.is_multiplier_orthomorphism(g, past % size)
    assert not check.is_k_orthogoval_pair(check.standard(g), phi_space(g, past), 2)


def test_multiplier_decider_refuses_non_units():
    g = geom.projective(4, 3)
    for u in (0, 11, 121 + 22):
        with pytest.raises(ValueError, match="not a unit"):
            check.is_multiplier_orthomorphism(g, u)
    # a unit given unreduced is reduced mod N
    assert check.is_multiplier_orthomorphism(g, 12) is (
        check.is_multiplier_orthomorphism(g, 12 + 121))


# when r = d + 1 is even, the subfield GF(q^2) is the line
# L = {0, M, 2M, ..., qM}, M = N/(q+1), and every multiplier maps L onto
# itself, so no x -> u*x is an orthomorphism: the paper's "one less than
# a prime" at its simplest
@pytest.mark.parametrize("d, q", [
    (3, 2), (5, 2), (3, 3), (7, 2), (5, 3), (3, 4), (3, 5)])
def test_subfield_line_fixes_every_multiplier_when_r_is_even(d, q):
    g = geom.projective(d, q)
    n = g.point_count
    step = n // (q + 1)
    line = list(range(0, n, step))
    assert len(line) == q + 1
    assert list(g.line_through(0, step)) == line
    assert any(row.tolist() == line for row in g.lines())
    for u in _units(n):
        assert sorted(u * x % n for x in line) == line, u
        assert not check._multiplier_gather(g, u), u
        assert not check.is_multiplier_orthomorphism(g, u), u


def test_odd_r_keeps_multiplier_orthomorphisms():
    # control: on PG(8, 2), r = 9 is odd and 189 of the 432 units pass
    g = geom.projective(8, 2)
    units = _units(g.point_count)
    assert len(units) == 432
    raw = [check._multiplier_gather(g, u) for u in units]
    assert sum(raw) == 189
    assert [check.is_multiplier_orthomorphism(g, u) for u in units] == raw


# ----------------------------------------------------------------------
# translation reduction: affine spaces x -> A(x) + c, A additive over F_p
# on the base-p digits of the point index
# ----------------------------------------------------------------------

# the benchmark's char-p pairs (p, n, k), and the AG(3, 9) one
CHAR_P_ROWS = ((2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2),
               (3, 1, 2), (3, 1, 3), (3, 2, 2), (3, 2, 3))
TRANSLATION_GEOMETRIES = ((2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (3, 3),
                          (3, 4))


def _fp_digits(g):
    p, m = g.field.p, g.dim * g.field.n
    weights = p ** np.arange(m)
    return np.arange(g.point_count)[:, None] // weights % p, weights


def linear_space(g, rng, shift=True):
    """x -> A(x) + c on the base-p digits of the point index: A a seeded
    invertible F_p matrix, c a seeded point, or 0 without ``shift``."""
    digits, weights = _fp_digits(g)
    p = g.field.p
    c = digits[rng.integers(g.point_count)] if shift else 0
    while True:
        a = rng.integers(0, p, (len(weights), len(weights)))
        image = (digits @ a + c) % p @ weights
        if len(np.unique(image)) == g.point_count:
            return check.from_map(g, image, name="linear")


def translate(g, c):
    """The standard space moved by the translation x -> x + c."""
    digits, weights = _fp_digits(g)
    return check.from_map(g, (digits + digits[c]) % g.field.p @ weights)


def test_translation_form_is_read_from_the_permutation():
    rng = np.random.default_rng(20261101)
    accepted, refused = [], []
    for p, n, k in CHAR_P_ROWS:
        s, t, perm = build_char_p_pair(p, n, k)
        accepted += [s, t]
        if len(perm) > 4:  # every bijection of AG(2, 2) is affine
            i, j = rng.choice(len(perm), 2, replace=False)
            bad = perm.copy()
            bad[[i, j]] = bad[[j, i]]
            refused.append(check.from_map(s.geometry, bad))
    s, t, _ = build_char_p_pair(3, 1, 2)
    accepted += build_product_family([s, t], [t, s])
    for d, q in TRANSLATION_GEOMETRIES:
        g = geom.affine(d, q)
        accepted += [linear_space(g, rng, False), linear_space(g, rng),
                     translate(g, 5)]
        refused.append(random_space(g, rng))
    assert any(s.perm[0] for s in accepted)
    for s in accepted:
        assert check._translation_offset(s.perm, s.geometry) == s.perm[0], s.name
        assert check._form(s.perm, s.geometry) == s.perm[0], s.name
    for s in refused:
        assert check._translation_offset(s.perm, s.geometry) is None
        assert check._form(s.perm, s.geometry) is None
    # a projective space's form is its multiplier, not an offset
    g = geom.projective(2, 4)
    n = g.point_count
    assert check._form(check.standard(g).perm, g) == 1
    assert check._form((np.arange(n) * 2 + 3) % n, g) == 2


def _translation_pairs(rng):
    pairs = [build_char_p_pair(*row)[:2] for row in CHAR_P_ROWS]
    for d, q in TRANSLATION_GEOMETRIES:
        g = geom.affine(d, q)
        std = check.standard(g)
        pairs += [(linear_space(g, rng, False), linear_space(g, rng))
                  for _ in range(3)]
        pairs.append((std, linear_space(g, rng)))
        # negative controls: a translate of the standard space, and a
        # shifted linear space against a copy of itself
        t = linear_space(g, rng)
        pairs += [(std, translate(g, 7)), (t, check.from_map(g, t.perm))]
    return pairs


def test_translation_pair_verdict_equals_the_line_oracle():
    outcomes = set()
    for s, t in _translation_pairs(np.random.default_rng(20261102)):
        g = s.geometry
        assert check._translation_offset(t.perm, g) is not None
        for k in range(2, g.q):
            fast = check.is_k_orthogoval_pair(s, t, k)
            slow = check.naive_k_orthogoval_pair(s, t, k)
            assert bool(fast) == bool(slow), (g, k)
            # k = 2 takes the least shared triple, k >= 3 the line index's
            # witness, which is the oracle's
            if k == 2:
                assert fast.witness == triple_reference(s, t), g
            else:
                assert fast.witness == slow.witness, (g, k)
            outcomes.add((k == 2, bool(fast)))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def _translation_families(rng):
    fams = [list(build_char_p_pair(*row)[:2]) for row in CHAR_P_ROWS
            if row[0] ** row[1] > 2]
    # the product of two 2-orthogoval AG(2, 4) pairs, on AG(4, 4)
    s, t, _ = build_char_p_pair(2, 2, 2)
    fams.append(build_product_family([s, t], [t, s]))
    for d, q in TRANSLATION_GEOMETRIES:
        g = geom.affine(d, q)
        for size in (2, 3, 4):
            fams.append([linear_space(g, rng, i % 2 == 1) for i in range(size)])
        fams.append([check.standard(g), linear_space(g, rng), translate(g, 3)])
    return fams


def test_translation_family_witnesses_equal_the_full_index():
    fams = _translation_families(np.random.default_rng(20261103))
    refs = [check._least_shared_triple(fam, fam[0].geometry, None)
            for fam in fams]
    outcomes = []
    with full_index_off():
        for fam, ref in zip(fams, refs):
            v = check.are_mutually_orthogoval(fam)
            assert bool(v) == (ref is None) and v.witness == ref, fam[0].geometry
            outcomes.append(bool(v))
    assert outcomes.count(True) >= 5 and outcomes.count(False) >= 20


def test_translation_path_enumerates_no_lines(monkeypatch):
    rng = np.random.default_rng(20261104)
    s, t, _ = build_char_p_pair(3, 2, 3)
    g = geom.affine(2, 9)
    fam = [check.standard(g), linear_space(g, rng), linear_space(g, rng)]
    ref = family_reference(fam)
    assert ref is not None

    def boom(*args):
        raise AssertionError("the translation path enumerated lines")
    monkeypatch.setattr(geom.Geometry, "lines", boom)
    monkeypatch.setattr(geom.Geometry, "_echelon_flats", boom)
    assert check.is_k_orthogoval_pair(s, t, 3)
    v = check.are_mutually_orthogoval(fam)
    assert not v and v.witness == ref


def test_pairwise_fallback_reads_each_form_once(monkeypatch):
    # [standard, power 3, random, power 5] on PG(4, 2): the builders give
    # three of the forms, so only the random map is read, and its form is
    # kept on the space, so a second check reads nothing; the three pairs
    # of multipliers pass by their ratios and pack no key, and only the
    # pairs with the random space build a line index
    g = geom.projective(4, 2)
    fam = [check.standard(g), phi_space(g, 3),
           random_space(g, np.random.default_rng(9)), phi_space(g, 5)]
    ref = family_reference(fam)
    assert ref is not None and 2 in (ref["space_a"], ref["space_b"])
    reads, packed, hits = [], [], []

    def counting(calls, f):
        def wrapper(*args):
            calls.append(args[0])
            return f(*args)
        return wrapper

    def read_once(mapped):
        # each map-built space's own permutation, read once, in order, and
        # no other map
        return (len(reads) == len(mapped)
                and all(r is s.perm for r, s in zip(reads, mapped)))
    monkeypatch.setattr(check, "_FAMILY_KEYS", 0)
    monkeypatch.setattr(check, "_singer_multiplier",
                        counting(reads, check._singer_multiplier))
    monkeypatch.setattr(check, "_origin_keys", counting(packed, check._origin_keys))
    monkeypatch.setattr(check, "_least_hit", counting(hits, check._least_hit))
    for _ in range(2):
        v = check.are_mutually_orthogoval(fam)
        assert not v and v.witness == ref
    assert read_once(fam[2:3]) and packed == [] and len(hits) == 6
    # the same on AG(2, 9), whose spaces are all built from maps: each form
    # read once over both checks, and only the pairs with the random space
    # take the line index
    rng = np.random.default_rng(10)
    s, t, _ = build_char_p_pair(3, 2, 2)
    fam = [s, t, random_space(s.geometry, rng), linear_space(s.geometry, rng)]
    ref = family_reference(fam)
    reads.clear()
    hits.clear()
    monkeypatch.setattr(check, "_translation_offset",
                        counting(reads, check._translation_offset))
    for _ in range(2):
        v = check.are_mutually_orthogoval(fam)
        assert not v and v.witness == ref
    assert read_once(fam) and len(hits) == 6


# ----------------------------------------------------------------------
# the group reduction decides a pair by w = t^-1 . s alone, so pairs
# (h.s, h.t) that share a relabelling h take it too
# ----------------------------------------------------------------------

def relabel(space, h):
    """The space moved by the point map h: x -> h(space(x))."""
    return check.from_map(space.geometry, h[space.perm])


def _multiplier_pairs(rng):
    pairs = []
    for dim, q in ((2, 4), (2, 7), (3, 3), (4, 2)):
        g = geom.projective(dim, q)
        pairs += [(multiplier_space(g, rng), multiplier_space(g, rng))
                  for _ in range(3)]
        # negative controls: a Singer shift, and a copy of itself
        s = multiplier_space(g, rng)
        pairs += [(check.standard(g), check.from_map(g, singer_shift(g, 3))),
                  (s, check.from_map(g, s.perm))]
    return pairs


def _relabelled_pairs(rng):
    """Char-p and PG multiplier pairs, each as it is and moved by one
    seeded random point map h, with w = t^-1 . s of a form; and the
    negative controls (h.s, h.s)."""
    pairs = [build_char_p_pair(*row)[:2] for row in CHAR_P_ROWS]
    pairs += _multiplier_pairs(rng)
    out = []
    for s, t in pairs:
        h = rng.permutation(s.geometry.point_count)
        out += [(s, t), (relabel(s, h), relabel(t, h)),
                (relabel(s, h), relabel(s, h))]
    return out


def test_relabelled_pairs_equal_the_line_oracle_at_every_k():
    outcomes = set()
    for s, t in _relabelled_pairs(np.random.default_rng(20261201)):
        g = s.geometry
        assert check._form(t.inverse()[s.perm], g) is not None
        for k in range(1, g.points_per_line):
            fast = check.is_k_orthogoval_pair(s, t, k)
            slow = check.naive_k_orthogoval_pair(s, t, k)
            assert bool(fast) == bool(slow), (g, k)
            if k == 2:
                assert fast.witness == triple_reference(s, t), g
            else:
                assert fast.witness == slow.witness, (g, k)
            outcomes.add((g.kind, k == 2, bool(fast)))
    assert outcomes == {(kind, two, ok) for kind in ("affine", "projective")
                        for two in (True, False) for ok in (True, False)}


def test_relabelled_and_multiplier_pairs_pass_k3_without_the_line_index(
        monkeypatch):
    rng = np.random.default_rng(20261202)
    pairs = [p for p in _multiplier_pairs(rng)
             if check.naive_k_orthogoval_pair(*p, 3)]
    for p, n, k in CHAR_P_ROWS:
        if p <= 3:  # the char-p pairs hold exactly at k >= p
            s, t, _ = build_char_p_pair(p, n, k)
            h = rng.permutation(s.geometry.point_count)
            pairs.append((relabel(s, h), relabel(t, h)))
    assert sum(s.geometry.kind == "projective" for s, _ in pairs) >= 5

    def boom(*args):
        raise AssertionError("the pair decider built a line index")
    monkeypatch.setattr(check, "_line_index", boom)
    for s, t in pairs:
        assert check.is_k_orthogoval_pair(s, t, 3), s.geometry


def test_askew_equals_naive_on_relabelled_and_translation_pairs():
    rng = np.random.default_rng(20261203)
    pairs = []
    for k, q in ((2, 3), (2, 4), (3, 2), (4, 2)):
        g = geom.projective(k, q)
        h = rng.permutation(g.point_count)
        # x -> -x: askew on PG(2, q) and PG(4, 2), not on PG(3, 2)
        for s, t in [(multiplier_space(g, rng), multiplier_space(g, rng))
                     for _ in range(3)] + [(check.standard(g), phi_space(g, -1))]:
            pairs += [(relabel(s, h), relabel(t, h)), (relabel(t, h), s)]
    for s, t in _translation_pairs(rng):
        if s.geometry.point_count <= 27:
            pairs.append((s, t))
    outcomes = set()
    for s, t in pairs:
        outcomes.add((s.geometry.kind, assert_askew_equals_naive(s, t).ok))
    assert outcomes == {(kind, ok) for kind in ("affine", "projective")
                        for ok in (True, False)}


def test_standard_affine_space_against_a_random_map_reads_one_form(monkeypatch):
    # only w = t^-1 . s is read, and its quick refusal decides
    for d, q in ((2, 5), (3, 3), (2, 9)):
        g = geom.affine(d, q)
        s, t = check.standard(g), random_space(g, np.random.default_rng(q))
        reads = []
        offset = check._translation_offset

        def counting(perm, g):
            reads.append(perm)
            return offset(perm, g)
        monkeypatch.setattr(check, "_translation_offset", counting)
        v = check.is_k_orthogoval_pair(s, t, 2)
        monkeypatch.undo()
        assert len(reads) == 1 and not v
        assert v.witness == triple_reference(s, t)


@pytest.mark.parametrize("d, q", [(2, 9), (3, 4), (4, 3)])
def test_affine_line_of_equals_line_through(d, q):
    # _line_of translates the line through 0 and b - a by a, digit by digit
    g = geom.affine(d, q)
    n = g.point_count
    rng = np.random.default_rng(n)
    t = random_space(g, rng)
    for _ in range(200):
        a, b = (int(x) for x in rng.choice(n, 2, replace=False))
        want = g.line_through(a, b)
        on = int(rng.choice([x for x in want if x not in (a, b)]))
        off = int(rng.choice(sorted(set(range(n)) - set(want))))
        assert check._line_of(t, [int(t.perm[x]) for x in (a, b, on)]) == (
            tuple(sorted(int(t.perm[x]) for x in want)))
        assert check._line_of(t, [int(t.perm[x]) for x in (a, b, off)]) is None


# ----------------------------------------------------------------------
# projective spaces built from their form (u, c): the reduced paths read
# the form and make no permutation; the same family rebuilt from its maps
# is the reference
# ----------------------------------------------------------------------

def from_maps(fam):
    """The family rebuilt from its permutations, forms read from them."""
    return [check.from_map(s.geometry, s.perm, name=s.name) for s in fam]


def form_space(g, rng):
    """A seeded space x -> u*x + c, c != 0, built from its form."""
    n = g.point_count
    u = int(rng.integers(1, n))
    while math.gcd(u, n) != 1:
        u = int(rng.integers(1, n))
    return check.from_form(g, u, int(rng.integers(1, n)), name=f"{u}x+c")


@contextlib.contextmanager
def no_permutation():
    """Make ``Space.perm`` raise: a form space's map is never made."""
    def boom(self):
        raise AssertionError("a permutation was made")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(check.Space, "perm", property(boom))
        yield


@pytest.mark.parametrize("row,holds", BIG_SETS_FAMILIES)
def test_form_built_big_sets_equal_their_maps(row, holds):
    with no_permutation():
        v = check.are_mutually_orthogoval(build_phi_family(*row))
    ref = check.are_mutually_orthogoval(from_maps(build_phi_family(*row)))
    assert bool(v) == bool(ref) == holds
    assert v.witness == ref.witness


def test_seeded_form_families_and_pairs_equal_their_maps_and_the_oracle():
    rng = np.random.default_rng(20261104)
    outcomes = set()
    for dim, q in SEEDED_PROJECTIVE:
        g = geom.projective(dim, q)
        for size in (2, 3, 4):
            fam = [form_space(g, rng) for _ in range(size)]
            with no_permutation():
                v = check.are_mutually_orthogoval(fam)
            ref = check.are_mutually_orthogoval(from_maps(fam))
            assert bool(v) == bool(ref) and v.witness == ref.witness, fam
            outcomes.add(("family", bool(v)))
        for _ in range(4):
            s, t = form_space(g, rng), form_space(g, rng)
            for k in (2, 3):
                # a failing pair's k=3 witness comes from the line index
                with no_permutation() if k == 2 else contextlib.nullcontext():
                    fast = check.is_k_orthogoval_pair(s, t, k)
                slow = check.naive_k_orthogoval_pair(s, t, k)
                assert bool(fast) == bool(slow), (g, k)
                if k == 2:
                    assert fast.witness == triple_reference(s, t), g
                else:
                    assert fast.witness == slow.witness, g
                outcomes.add((k, bool(fast)))
    assert outcomes == {(kind, ok) for kind in ("family", 2, 3)
                        for ok in (True, False)}


@pytest.mark.parametrize("d, q", [(4, 2), (4, 3), (6, 2)])
def test_form_families_equal_the_full_triple_index(d, q):
    g = geom.projective(d, q)
    rng = np.random.default_rng(g.point_count)
    fams = [[form_space(g, rng) for _ in range(size)]
            for size in (2, 3, 3, 4, 5)]
    rows = [(qq, r, w, n) for qq, r, ws, n in BIG_SETS_TABLE for w in ws]
    fams += [build_phi_family(*row) for row in rows + list(OVER_LONG_CHAINS)
             if row[:2] == (q, d + 1)]
    outcomes = set()
    for fam in fams:
        with no_permutation():
            v = check.are_mutually_orthogoval(fam)
        assert v.witness == check._least_shared_triple(fam, g, None), fam
        outcomes.add(bool(v))
    assert outcomes == {True, False}


def test_power_chain_checks_make_no_permutation():
    # the (3,7,25,77) row passes and the (2,7,3,18) chain fails with the
    # witness CI pins, each read off the forms alone; so do its first
    # failing pair, and the askew inversion pair of PG(4,3)
    fam = build_phi_family(3, 7, 25, 77)
    bad = build_phi_family(2, 7, 3, 18)
    with no_permutation():
        assert check.are_mutually_orthogoval(fam)
        v = check.are_mutually_orthogoval(bad)
        pair = check.is_k_orthogoval_pair(bad[0], bad[18], 2)
        assert check.is_askew_pair(*build_askew_pair(4, 3))
    assert not v and not pair
    assert (v.witness["triple"], v.witness["space_a"],
            v.witness["space_b"]) == ((0, 1, 7), 0, 18)
    assert v.witness == check.are_mutually_orthogoval(from_maps(bad)).witness
    assert pair.witness == {key: v.witness[key]
                            for key in ("triple", "line_a", "line_b")}


@pytest.mark.parametrize("q, r, e", [(2, 5, 3), (2, 5, -1), (3, 5, 17),
                                     (3, 7, 25 ** 5), (4, 7, 23 ** 3)])
def test_form_permutation_is_made_on_first_use_as_build_phi_map(q, r, e):
    g = geom.projective(r - 1, q)
    s = phi_space(g, e)
    inv = s.inverse()  # from the form, before the map is made
    lines = s.image(g.lines_through_origin())
    perm = s.perm
    assert perm.dtype == np.int64
    assert np.array_equal(perm, build_phi_map(g, e))
    assert s.perm is perm  # made once
    with pytest.raises(ValueError):
        perm[0] = 1
    assert np.array_equal(inv, s.inverse())
    assert np.array_equal(lines, s.image(g.lines_through_origin()))
    assert not s.is_standard and check.standard(g).is_standard


@pytest.mark.parametrize("d, q", [(2, 41), (4, 2), (6, 3)])
def test_form_line_of_equals_the_map_line_of(d, q):
    g = geom.projective(d, q)
    n = g.point_count
    rng = np.random.default_rng(n)
    for _ in range(20):
        s = form_space(g, rng)
        t = check.from_map(g, (np.arange(n) * s.form[0] + s.form[1]) % n)
        tri = [int(x) for x in rng.choice(n, 3, replace=False)]
        line = t.lines()[rng.integers(g.line_count)]
        on = [int(x) for x in rng.choice(line, 3, replace=False)]
        with no_permutation():
            got = [check._line_of(s, tri), check._line_of(s, on)]
        assert got == [check._line_of(t, tri), tuple(line.tolist())]


@pytest.mark.parametrize("kind, u, c", [
    ("projective", 0, 0),
    ("projective", 3, 0),
    ("projective", 1, -1),
    ("projective", 1, 21),
    ("affine", 1, 0),
    ("projective", 2.0, 0),
    ("projective", 1, True),
], ids=["u=0", "u-shares-a-factor", "c=-1", "c=N", "affine", "u-float",
        "c-bool"])
def test_space_refuses_a_form_that_is_not_a_bijection(kind, u, c):
    # PG(2, 4) has N = 21 = 3 * 7 points; AG spaces are built from maps
    g = geom.projective(2, 4) if kind == "projective" else geom.affine(2, 3)
    with pytest.raises(ValueError, match="form"):
        check.from_form(g, u, c)


# ----------------------------------------------------------------------
# a family of two is a pair: its pair decider decides it at every k, and
# no triple index is packed
# ----------------------------------------------------------------------

def assert_family_of_two_is_its_pair(s, t):
    """The family [s, t], in both orders and at k = 2, 3, 4, decided with
    ``packed_triples`` made to raise, equals its references: at k=2
    ``family_reference`` and the pair decider, at k = 3 and 4
    ``dense_pair_reference``, a failing witness naming spaces 0 and 1.
    Returns the k=2 verdict."""
    def boom(*args):
        raise AssertionError("a family of two packed a triple index")
    oks = set()
    for a, b in ((s, t), (t, s)):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(check, "packed_triples", boom)
            got = {k: check.are_mutually_orthogoval([a, b], k)
                   for k in (2, 3, 4)}
        # lines of two points hold no triple
        ref = (family_reference([a, b]) if a.geometry.points_per_line > 2
               else None)
        assert got[2] == check.Verdict(ref is None, ref)
        for k in (2, 3, 4):
            want = (check.is_k_orthogoval_pair(a, b, 2) if k == 2
                    else dense_pair_reference(a, b, k))
            if not want:
                want.witness = dict(want.witness, space_a=0, space_b=1)
            assert got[k] == want, k
        oks.add(got[2].ok)
    (ok,) = oks
    return ok


@pytest.mark.parametrize("kind, d, q", DENSE_REFERENCE_GEOMETRIES)
def test_family_of_two_is_its_pair(kind, d, q):
    g = (geom.affine if kind == "affine" else geom.projective)(d, q)
    rng = np.random.default_rng((20261022, d, q))
    std = check.standard(g)
    if kind == "projective":
        def form():
            return form_space(g, rng)
    else:
        def form():
            return linear_space(g, rng)
    h = rng.permutation(g.point_count)
    # negative controls: random maps, except on PG(2,2), whose 7 lines
    # are 7 of its 35 triples, so that a random pair may share none
    for s, t in ((std, random_space(g, rng)),
                 (random_space(g, rng), random_space(g, rng))):
        ok = assert_family_of_two_is_its_pair(s, t)
        assert not ok or g.point_count == 7
    # form spaces, a form space and a random map, and two form spaces
    # relabelled by one random point map h
    for s, t in ((form(), form()), (std, form()),
                 (form(), random_space(g, rng)),
                 (relabel(form(), h), relabel(form(), h))):
        assert_family_of_two_is_its_pair(s, t)
    # positive controls: multipliers whose ratio u is in O, and the
    # half-dimension certificates of AG(2,3) and AG(2,4)
    controls = []
    if kind == "projective":
        n = g.point_count
        inside = [u for u in range(2, n) if math.gcd(u, n) == 1
                  and check.is_multiplier_orthomorphism(g, u)]
        if inside:
            s = form()
            u, _ = s.form
            controls.append((s, check.from_form(
                g, u * inside[0] % n, int(rng.integers(n)))))
    elif d == 2 and q in HALF_DIM_CERTIFICATES:
        controls.append((std, check.from_map(g, HALF_DIM_CERTIFICATES[q])))
    for s, t in controls:
        assert assert_family_of_two_is_its_pair(s, t)


@pytest.mark.parametrize("p, n, k", CHAR_P_ROWS)
def test_char_p_family_of_two_is_its_pair(p, n, k):
    s, t, _ = build_char_p_pair(p, n, k)
    # the pair holds exactly at k >= p: a positive control at k = p
    assert assert_family_of_two_is_its_pair(s, t) == (p == 2)
    assert check.are_mutually_orthogoval([s, t], p)


# ----------------------------------------------------------------------
# the shared geometry, its tables and memo filled, against a fresh one
# ----------------------------------------------------------------------

def _decisions(g, seed):
    """Verdicts, witnesses included, of every pair of four seeded spaces
    at k = 2 and 3, and of two three-space families, all on g."""
    rng = np.random.default_rng(seed)
    make = form_space if g.kind == geom.PROJECTIVE else linear_space
    std = check.standard(g)
    a, b, r = make(g, rng), make(g, rng), random_space(g, rng)
    out = [check.is_k_orthogoval_pair(s, t, k) for k in (2, 3)
           for s, t in itertools.combinations((std, a, b, r), 2)]
    return out + [check.are_mutually_orthogoval(fam)
                  for fam in ([std, a, b], [a, b, r])]


@pytest.mark.parametrize("kind, d, q", DENSE_REFERENCE_GEOMETRIES)
def test_shared_geometry_decides_as_a_fresh_one(kind, d, q):
    shared = (geom.affine if kind == "affine" else geom.projective)(d, q)
    seed = (20261022, d, q)
    first = _decisions(shared, seed)
    assert shared._lines0 is not None
    assert _decisions(shared, seed) == first
    assert _decisions(geom.Geometry(kind, d, q), seed) == first
    assert not all(first)  # the random space is a negative control


def test_memo_filled_by_a_power_chain_decides_as_a_fresh_one():
    shared = geom.projective(4, 3)
    assert explore.power_chain(3, 5, 17) == 9
    assert np.count_nonzero(shared._multipliers[0])
    fresh = geom.Geometry(geom.PROJECTIVE, 4, 3)
    for u in _units(shared.point_count):
        assert (check.is_multiplier_orthomorphism(shared, u)
                is check.is_multiplier_orthomorphism(fresh, u)), u
