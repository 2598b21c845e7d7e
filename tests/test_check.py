"""Verification engines: fast triple-index checker vs the naive
line-pair oracle, the Singer-reduced k=2 path vs the triple index,
askew and half-dimension checks, determinism."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthokit import check, geom
from orthokit.build import BIG_SETS_TABLE, build_phi_family, build_phi_map, phi_space
from orthokit.errors import GeometryMismatch, OddDimension


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
        ref = check._least_shared_triple([s, t], g)
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


def test_family_check_matches_pairwise():
    g = geom.projective(4, 2)
    spaces = [check.standard(g)] + [phi_space(g, w) for w in (3, 5, 11)]
    fam = check.are_mutually_orthogoval(spaces)
    pair = all(
        bool(check.is_k_orthogoval_pair(spaces[i], spaces[j], 2))
        for i in range(4) for j in range(i + 1, 4))
    assert bool(fam) == pair


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


@pytest.mark.parametrize("perm", [np.arange(9) - 1, np.arange(1, 10)],
                         ids=["-1..7", "1..9"])
def test_space_rejects_values_outside_the_point_range(perm):
    # distinct values of the right count, but not the indices 0..8
    with pytest.raises(ValueError):
        check.from_map(geom.affine(2, 3), perm)


def test_translations_and_singer_shifts_are_collineations():
    g = geom.affine(3, 3)
    perm = check.translation_map(g, (1, 2, 0))
    t = check.from_map(g, perm)
    assert set(t.line_sets()) == set(check.standard(g).line_sets())
    gp = geom.projective(2, 2)
    t2 = check.from_map(gp, check.singer_shift(gp, 3))
    assert set(t2.line_sets()) == set(check.standard(gp).line_sets())


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


def test_half_dim_known_pair_ag23():
    g = geom.affine(2, 3)
    s = check.standard(g)
    t = check.from_map(g, [0, 1, 3, 2, 4, 7, 6, 8, 5])
    assert check.is_half_dimension_orthogoval(s, t)


def test_half_dim_identity_fails():
    g = geom.affine(2, 3)
    s = check.standard(g)
    assert not check.is_half_dimension_orthogoval(s, check.from_map(g, np.arange(9)))


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
            check.standard(g), check.from_map(g, check.singer_shift(g, 5)), 2)
    assert outcomes == {True, False}


def test_near_multiplier_maps_fall_back_to_the_full_index():
    g = geom.projective(4, 2)
    for w in (3, 5, 11):
        perm = build_phi_map(g, w)
        for i, j in ((0, 1), (7, 19)):
            bad = perm.copy()
            bad[[i, j]] = bad[[j, i]]
            t = check.from_map(g, bad)
            assert check._singer_multiplier(t) is None
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
    assert any(check._singer_multiplier(s) is None for s in fam)
    assert check._singer_keys(fam) is None
    assert check.are_mutually_orthogoval(fam)
    assert family_reference(fam) is None


def test_failing_non_singer_family_builds_no_line_table(monkeypatch):
    # the witness comes from the least duplicate key and its owners, so no
    # pair decider runs and no n*n line table is built
    g = geom.projective(4, 2)
    swapped = np.arange(g.point_count)
    swapped[[0, 1]] = swapped[[1, 0]]
    fam = [phi_space(g, 3), check.from_map(g, swapped), check.standard(g)]
    assert check._singer_multiplier(fam[1]) is None
    ref = family_reference(fam)

    def boom(*args):
        raise AssertionError("the family check built a line table")
    monkeypatch.setattr(check, "_line_index", boom)
    v = check.are_mutually_orthogoval(fam)
    assert not v and v.witness == ref
