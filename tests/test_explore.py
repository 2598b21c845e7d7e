"""Search engines: scans, chains, clique search, the half-dimension
exhaustive search (canonicity rule, budget, checkpoint, resume), and the
plane-structure partition search."""

import itertools
import json
import math
import os
import random

import numpy as np
import pytest

from orthokit import check, cli, explore, geom
from orthokit.build import BIG_SETS_TABLE, build_phi_map, phi_space
from orthokit.errors import BudgetExceeded, NotCoprime, OddDimension


def test_exponent_scan_q5_r5():
    res = explore.exponent_scan(5, 5, 10)
    assert 3 in res["orthomorphisms"]
    assert res["sufficient_conditions"] == [3]
    # Frobenius powers are collineations, never orthomorphisms
    assert 5 not in res["sufficient_conditions"]


def test_exponent_scan_q2_r5():
    res = explore.exponent_scan(2, 5, 17)
    for w in (3, 11, 13, 17):
        assert w in res["orthomorphisms"]
    for w in (2, 4, 8, 16):  # powers of the characteristic
        assert w not in res["orthomorphisms"]


def test_sufficient_exponents_are_orthomorphisms():
    for q, r in ((2, 5), (3, 5), (5, 5)):
        res = explore.exponent_scan(q, r, 8)
        assert set(res["sufficient_conditions"]) <= set(res["orthomorphisms"])


def test_sufficient_exponents_equal_the_factorial_definition():
    for q, p in ((2, 2), (3, 3), (4, 2), (5, 5), (7, 7), (8, 2), (9, 3)):
        powers = {p ** e for e in range(1, 6)}
        for r in range(1, 13):
            want = [w for w in range(2, 41)
                    if math.gcd(w, q ** r - 1) == 1 and w not in powers
                    and math.gcd(r, math.factorial(w)) == 1]
            assert explore.sufficient_exponents(q, r, 40) == want, (q, r)


def test_power_chain_values():
    assert explore.power_chain(2, 5, 3) == 5
    assert explore.power_chain(5, 5, 3) == 6
    assert explore.power_chain(5, 5, 9) == 6


def test_power_chain_runs_up_to_the_order():
    # every power below w's order passes, so each walk ends at the identity
    for q, r, w, n in ((2, 5, 6, 5), (3, 3, 5, 3), (2, 7, 24, 17), (2, 5, 32, 0)):
        big = q ** r - 1
        order = next(i for i in itertools.count(1) if pow(w, i, big) == 1)
        assert explore.power_chain(q, r, w) == n == order - 1, (q, r, w)


def test_power_chain_matches_every_big_sets_row():
    # the pair decider against the family table: each row's chain stops
    # exactly at its n
    for q, r, ws, n in BIG_SETS_TABLE:
        for w in ws:
            assert explore.power_chain(q, r, w) == n, (q, r, w)


def test_power_chain_rejects_non_coprime():
    with pytest.raises(NotCoprime):
        explore.power_chain(3, 3, 2)  # gcd(2, 26) = 2


def test_clique_search_exhaustive_and_deterministic():
    g = geom.projective(4, 2)
    ws = (3, 5, 7, 11, 13, 17)
    cands = [build_phi_map(g, w) for w in ws]
    r1 = explore.clique_search(cands, g)
    r2 = explore.clique_search(cands, g)
    assert r1.exhaustive
    assert r1.members == r2.members and r1.nodes == r2.nodes
    # the members really are pairwise orthogoval
    spaces = [check.from_map(g, cands[i]) for i in r1.members]
    if len(spaces) >= 2:
        assert bool(check.are_mutually_orthogoval(spaces))


def test_clique_budget():
    # the full search visits 5 nodes; a budget B stops before node B+1
    g = geom.projective(4, 2)
    cands = [build_phi_map(g, w) for w in (3, 5, 7, 11, 13, 17)]
    assert explore.clique_search(cands, g).nodes == 5
    for budget, exhaustive in ((0, False), (1, False), (4, False), (5, True)):
        r = explore.clique_search(cands, g, budget=budget)
        assert (r.nodes, r.exhaustive) == (budget, exhaustive)


def test_half_dim_small_case_finds_pair():
    for q, nodes, first in (
            (3, 14, [0, 1, 3, 2, 4, 7, 6, 8, 5]),
            (4, 232, [0, 1, 4, 5, 2, 3, 6, 7, 9, 8, 13, 12, 11, 10, 15, 14])):
        res = explore.half_dim_exhaustive(2, q)
        assert res.certificates == [first] and res.nodes == nodes
        perm = res.certificates[0]
        g = geom.affine(2, q)
        v = check.is_half_dimension_orthogoval(check.standard(g),
                                               check.from_map(g, perm))
        assert v


def _lex_least_prefixes(perms, n, length):
    """Oracle: every sequence of `length` distinct nonzero images that no
    map of the group (a points x maps array) sends to a lex-smaller one.
    Sequences compare as base-n keys, which fit int32 for the cases here."""
    pre = np.array(list(itertools.permutations(range(1, n), length)),
                   dtype=np.int64)
    own = pre @ n ** np.arange(length - 1, -1, -1)
    keep = []
    for lo in range(0, len(pre), 256):
        chunk = pre[lo:lo + 256]
        key = np.zeros((len(chunk), perms.shape[1]), dtype=np.int32)
        for i in range(length):
            key = key * n + perms[chunk[:, i]]
        keep.append(chunk[key.min(axis=1) == own[lo:lo + 256]])
    return {tuple(p) for p in np.concatenate(keep).tolist()}


def _rule_prefixes(n, q, length):
    """The sequences the closed-form rule admits: each image at most
    `_canonical_top` of the images before it (origin included)."""
    out = set()

    def grow(path):
        if len(path) == length + 1:
            out.add(tuple(path[1:]))
            return
        for v in range(1, min(explore._canonical_top(path, q) + 1, n)):
            if v not in path:
                grow(path + [v])

    grow([0])
    return out


@pytest.mark.parametrize("d,q,longest", [
    (2, 3, 4), (2, 4, 4), (2, 5, 4), (3, 2, 4), (4, 2, 3)])
def test_canonicity_rule_equals_gl_lex_min(d, q, longest):
    g = geom.affine(d, q)
    perms = np.array(explore._gl_point_perms(g), dtype=np.int32).T.copy()
    for length in range(1, longest + 1):
        assert (_rule_prefixes(g.point_count, q, length)
                == _lex_least_prefixes(perms, g.point_count, length))


def _reference_candidates(g, path):
    """Oracle: the images up to the canonical top that leave every k-flat
    completed by the next point with no k+2 images in a common k-flat,
    each tested with `_flat_image_ok` (ranks from `Geometry.rank_of`)."""
    k = g.dim // 2
    flats = g.flats(k)
    flats = flats[flats[:, -1] == len(path)].tolist()
    top = min(explore._canonical_top(path, g.q) + 1, g.point_count)
    return [v for v in range(top) if v not in path and all(
        explore._flat_image_ok(g, [(path + [v])[p] for p in f], k)
        for f in flats)]


@pytest.mark.parametrize("d,q,budget", [
    (2, 3, None), (2, 4, 2500), (4, 2, 800), (2, 5, 2000), (4, 3, 600),
    (6, 2, 500)])
def test_span_table_candidates_equal_flat_test(d, q, budget):
    # walk the search tree depth first, in search order, comparing the
    # candidates at every node (every node of AG(2,3); the first nodes
    # elsewhere, which on AG(2,4) include the whole run to its first
    # certificate).  AG(4,2) and AG(2,3) take the generator's 4-tuple
    # fold, the others its generic one; AG(6,2), with k = 3, pads nothing
    g = geom.affine(d, q)
    candidates = explore._half_dim_candidates(g)
    stack, seen = [[0]], 0
    while stack and seen != budget:
        path = stack.pop()
        got = candidates(path)
        assert got == _reference_candidates(g, path), path
        seen += 1
        if len(path) + 1 < g.point_count:
            stack.extend(path + [v] for v in reversed(got))
    assert not stack if budget is None else seen == budget


@pytest.mark.parametrize("d,q", [(4, 2), (2, 3)])
def test_four_tuple_fold_spaces_put_each_subset_in_one_flat(d, q):
    # the generator's 4-tuple fold runs where a k-flat's other points are
    # its only (k+1)-subset; there every (k+1)-subset of the points lies in
    # exactly one k-flat, so the span table holds no None for it to test
    g = geom.affine(d, q)
    k = d // 2
    assert q ** k - 1 == k + 1
    flats = g.flats(k).tolist()
    assert len(flats) * math.comb(q ** k, k + 1) == math.comb(q ** d, k + 1)
    subsets = [s for f in flats for s in itertools.combinations(f, k + 1)]
    assert len(set(subsets)) == len(subsets)


def test_span_table_negative_controls():
    # AG(4,2): the plane {0, 1, 2, 3} completes at point 3; its image is
    # degenerate exactly when the four images xor to 0, so after 0, 1, 2
    # the image 3 is refused and only 4 (up to the canonical top) is left
    g = geom.affine(4, 2)
    assert not explore._flat_image_ok(g, [0, 1, 2, 0 ^ 1 ^ 2], 2)
    assert explore._half_dim_candidates(g)([0, 1, 2]) == [4] == (
        _reference_candidates(g, [0, 1, 2]))
    # AG(2,4): the line {0, 1, 2, 3} completes at point 3, and its images
    # 0, 1, 2 so far are collinear, so no image can complete it
    g = geom.affine(2, 4)
    assert g.line_through(0, 1) == (0, 1, 2, 3)
    assert explore._half_dim_candidates(g)([0, 1, 2]) == [] == (
        _reference_candidates(g, [0, 1, 2]))
    # AG(4,3): the plane {0, ..., 8} completes at point 8, and its images
    # 0, 1, 2 are collinear, a dependent triple of the span table
    g = geom.affine(4, 3)
    assert g.rank_of([0, 1, 2]) == 2
    assert explore._half_dim_candidates(g)(list(range(8))) == [] == (
        _reference_candidates(g, list(range(8))))


def _walk(g, start, budget):
    """The first `budget` nodes of the depth-first search below `start`,
    in search order, each with the candidates that one generator, asked in
    that order, gives for it."""
    candidates = explore._half_dim_candidates(g)
    walk, stack = [], [start]
    while stack and len(walk) < budget:
        path = stack.pop()
        got = candidates(path)
        walk.append((path, got))
        if len(path) + 1 < g.point_count:
            stack.extend(path + [v] for v in reversed(got))
    return walk


@pytest.mark.parametrize("d,q,start,budget", [
    (4, 2, [0], 3000),
    # AG(4,3)'s search stays below depth 9 for its first 170k nodes, so
    # this walk starts at a node of depth 9
    (4, 3, [0, 1, 3, 9, 13, 27, 41, 69, 77], 1500),
    # a fold never fails on AG(4,2), where three points are never
    # dependent, nor with a live sibling in the AG(4,3) walk; on AG(2,5)
    # it does
    (2, 5, [0], 2000)])
def test_candidates_do_not_depend_on_call_order(d, q, start, budget):
    # the candidates are a function of the path alone; asked for the
    # walk's prefixes out of order, the generator must answer as the walk
    # did
    g = geom.affine(d, q)
    fresh = explore._half_dim_candidates(g)
    assert all(start[i] in fresh(start[:i]) for i in range(1, len(start)))
    walk = _walk(g, start, budget)
    want = {tuple(path): got for path, got in walk}
    paths = [path for path, _ in walk]
    rng = random.Random(1)
    order = paths[:]
    rng.shuffle(order)
    # pairs that share their last image but not the images before it
    by_tail, by_parent = {}, {}
    for path in paths:
        by_tail.setdefault((len(path), path[-1]), []).append(path)
        by_parent.setdefault(tuple(path[:-1]), []).append(path)
    tails = [(a, b) for same in by_tail.values() for a, b in zip(same, same[1:])
             if a[:-1] != b[:-1]]
    # a path left with no candidates, then its sibling, those with
    # candidates first
    dead = [(a, b) for kin in by_parent.values() for a in kin
            if not want[tuple(a)] for b in kin if b != a]
    dead.sort(key=lambda pair: not want[tuple(pair[1])])
    assert len(tails) >= 200 and len(dead) >= 200
    for a, b in tails[:200] + dead[:200]:
        order += [a, b]
    order += [path for path in paths[::7] for _ in range(2)]  # asked twice
    candidates = explore._half_dim_candidates(g)
    for path in order:
        assert candidates(path) == want[tuple(path)], path
    for path in rng.sample(paths, 30):
        assert want[tuple(path)] == _reference_candidates(g, path), path


def _domain_maps(g, r):
    """Oracle: every affine map of the domain subspace D_r = [0, q^r) of
    AG(d, q), as the list of its images of 0, 1, ..., q^r - 1, from
    coordinates and field arithmetic (AGL(r, q) in full)."""
    q, d, field = g.q, g.dim, g.field
    m = q ** r
    vec = [g.points()[i][d - r:] for i in range(m)]  # the last r coordinates
    index = {v: i for i, v in enumerate(vec)}

    def combine(base, coeffs, dirs):
        out = base
        for c, u in zip(coeffs, dirs):
            out = tuple(field.add(x, field.mul(c, y)) for x, y in zip(out, u))
        return out

    def bases(chosen):
        if len(chosen) == r:
            yield chosen
            return
        span = {combine(vec[0], cs, chosen)
                for cs in itertools.product(range(q), repeat=len(chosen))}
        for v in vec:
            if v not in span:
                yield from bases(chosen + [v])

    # position i has base-q digits i_j, the coefficients of the frame
    digits = [[i // q ** j % q for j in range(r)] for i in range(m)]
    return [[index[combine(a, ds, dirs)] for ds in digits]
            for dirs in bases([]) for a in vec]


def _left_canonical(g, seq):
    """Oracle: translate the first point to 0, then write each point as
    q^j if it is the j-th to leave the span of those before it, else as
    its coordinates c in that basis, sum c_j q^j; spans are listed from
    coordinates and field arithmetic."""
    field, pts = g.field, g.points()
    origin = pts[seq[0]]
    span = {(0,) * g.dim: 0}
    out = []
    for y in seq:
        v = tuple(field.sub(a, b) for a, b in zip(pts[y], origin))
        if v not in span:
            top = len(span)
            span.update({tuple(field.add(a, field.mul(c, b))
                               for a, b in zip(w, v)): e + c * top
                         for w, e in list(span.items()) for c in range(1, g.q)})
        out.append(span[v])
    return out


def _level_prefixes(g, m):
    """Every prefix of length m = q^r the generator offers below a node
    the reduced search reaches (the smaller levels filtered)."""
    generate = explore._half_dim_candidates(g)
    keep = explore._level_filters(g)
    out, stack = [], [[0]]
    while stack:
        path = stack.pop()
        got = generate(path)
        if len(path) + 1 == m:
            out.extend(path + [v] for v in got)
        else:
            if got and keep[len(path)]:
                got = keep[len(path)](path, got)
            stack.extend(path + [v] for v in reversed(got))
    return out


@pytest.mark.parametrize("d,q,r,count,kept", [
    (4, 2, 3, 464, 4), (2, 4, 1, 7, 2), (2, 5, 1, 66, 6)])
def test_level_test_equals_brute_force_over_agl(d, q, r, count, kept):
    g = geom.affine(d, q)
    tables = explore._vector_tables(g)
    maps = _domain_maps(g, r)
    prefixes = _level_prefixes(g, q ** r)
    assert len(prefixes) == count
    least = []
    for p in prefixes:
        assert _left_canonical(g, p) == p
        want = all(_left_canonical(g, [p[s] for s in sigma]) >= p
                   for sigma in maps)
        assert explore._least_at_level(tables, p) == want, p
        if want:
            least.append(p)
    assert len(least) == kept
    # the kept prefixes' orbits cover every level prefix
    orbits = {tuple(_left_canonical(g, [p[s] for s in sigma]))
              for p in least for sigma in maps}
    assert {tuple(p) for p in prefixes} <= orbits
    # negative control: an image that differs from a kept prefix is larger,
    # so it is dropped
    images = ((p, _left_canonical(g, [p[s] for s in sigma]))
              for p in least for sigma in maps)
    p, other = next((p, x) for p, x in images if x != p)
    assert other > p and not explore._least_at_level(tables, other)


@pytest.mark.parametrize("d,q,count", [(4, 3, 12), (4, 4, 1)])
def test_level_test_equals_brute_force_on_random_orbits(d, q, count):
    # two-frame walks with q > 2, on left-canonical injective sequences of
    # length q^2 that need not be search prefixes: each sequence, its
    # orbit's least member (kept) and another member (dropped)
    g = geom.affine(d, q)
    tables = explore._vector_tables(g)
    maps = _domain_maps(g, 2)
    rng = random.Random(q)
    for _ in range(count):
        seq = [0]
        while len(seq) < q * q:
            top = min(explore._canonical_top(seq, q), g.point_count - 1)
            seq.append(rng.choice([v for v in range(top + 1) if v not in seq]))
        orbit = sorted({tuple(_left_canonical(g, [seq[s] for s in sigma]))
                        for sigma in maps})
        assert explore._least_at_level(tables, seq) == (tuple(seq) == orbit[0])
        assert explore._least_at_level(tables, list(orbit[0]))
        if len(orbit) > 1:
            assert not explore._least_at_level(tables, list(orbit[-1]))


def test_level_filters_sit_at_subspace_completions():
    keep = explore._level_filters(geom.affine(4, 2))
    assert [L for L, f in enumerate(keep) if f] == [1, 3, 7]
    keep = explore._level_filters(geom.affine(2, 5))
    assert [L for L, f in enumerate(keep) if f] == [4]


def test_half_dim_rejects_odd_dimension_and_no_certificates():
    with pytest.raises(OddDimension):
        explore.half_dim_exhaustive(3, 2)
    for m in (0, -1):
        with pytest.raises(ValueError):
            explore.half_dim_exhaustive(2, 3, max_certificates=m)


def test_half_dim_ag42_is_exhaustive_with_no_certificates():
    res = explore.half_dim_exhaustive(4, 2)
    assert (res.exhaustive, res.certificates, res.nodes) == (True, [], 1_071)


def test_half_dim_budget_and_partial_result():
    with pytest.raises(BudgetExceeded) as exc:
        explore.half_dim_exhaustive(4, 2, budget=1000)
    res = exc.value.result
    assert res.nodes == 1000
    assert not res.exhaustive
    assert res.certificates == []


def test_half_dim_checkpoint_resume_matches_straight_run(tmp_path):
    full = explore.half_dim_exhaustive(2, 3, max_certificates=10 ** 9)
    assert full.exhaustive
    assert full.certificates  # AG(2, F_3) has orthogoval mates
    cp = str(tmp_path / "cp.json")
    with pytest.raises(BudgetExceeded):
        explore.half_dim_exhaustive(2, 3, budget=full.nodes // 3,
                                    max_certificates=10 ** 9,
                                    checkpoint_path=cp)
    resumed = explore.half_dim_exhaustive(2, 3, max_certificates=10 ** 9,
                                          checkpoint_path=cp)
    assert resumed.nodes == full.nodes
    assert resumed.certificates == full.certificates


def test_half_dim_checkpoint_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ORTHOKIT_CHECKPOINT_DIR", str(tmp_path))
    with pytest.raises(BudgetExceeded):
        explore.half_dim_exhaustive(4, 2, budget=500)
    assert os.path.exists(tmp_path / "half-dim-4-2.json")
    # resume picks up where the first leg stopped
    with pytest.raises(BudgetExceeded) as exc:
        explore.half_dim_exhaustive(4, 2, budget=700)
    assert exc.value.result.nodes == 700


def test_half_dim_ag42_resumes_through_budget_legs(tmp_path):
    # each leg resumes the previous one's checkpoint and stops at its own
    # budget, until a leg finishes the straight run's search
    cp = str(tmp_path / "cp.json")
    for budget in (350, 700):
        with pytest.raises(BudgetExceeded) as exc:
            explore.half_dim_exhaustive(4, 2, budget=budget, checkpoint_path=cp)
        assert exc.value.result.nodes == budget
        assert not exc.value.result.exhaustive
    res = explore.half_dim_exhaustive(4, 2, budget=1_100, checkpoint_path=cp)
    assert (res.exhaustive, res.certificates, res.nodes) == (True, [], 1_071)


def _search_cli(capsys, *extra):
    code = cli.main(["search", "half-dim", "--dim", "2", "--q", "3", *extra])
    out = capsys.readouterr()
    return code, json.loads(out.out)["verdicts"] if out.out else out.err


def test_half_dim_rerun_of_finished_checkpoint_returns_stored_result(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ORTHOKIT_CHECKPOINT_DIR", str(tmp_path))
    first = _search_cli(capsys, "--max-certificates", "100000")
    assert first == (0, {"certificates": 192, "exhaustive": True,
                         "nodes": 833})
    assert _search_cli(capsys, "--max-certificates", "100000") == first


def test_half_dim_rerun_after_certificate_stop(tmp_path, monkeypatch):
    straight = [explore.half_dim_exhaustive(2, 3, max_certificates=m)
                for m in (1, 2)]
    monkeypatch.setenv("ORTHOKIT_CHECKPOINT_DIR", str(tmp_path))
    for _ in range(2):
        again = explore.half_dim_exhaustive(2, 3)
        assert (again.certificates, again.nodes) == (
            straight[0].certificates, straight[0].nodes)
    more = explore.half_dim_exhaustive(2, 3, max_certificates=2)
    assert (more.certificates, more.nodes) == (
        straight[1].certificates, straight[1].nodes)


def test_half_dim_periodic_checkpoint_resumes_exactly(tmp_path, monkeypatch):
    full = explore.half_dim_exhaustive(2, 3, max_certificates=10 ** 9)
    cp = tmp_path / "cp.json"
    saved = []
    replace = os.replace

    def keep_first(src, dst):
        # keep the first save, a periodic one, as if the run died after it
        replace(src, dst)
        if not saved:
            saved.append(cp.read_text())

    monkeypatch.setattr(explore.os, "replace", keep_first)
    monkeypatch.setattr(explore, "_CHECKPOINT_EVERY", 100)
    explore.half_dim_exhaustive(2, 3, max_certificates=10 ** 9,
                                checkpoint_path=str(cp))
    monkeypatch.undo()
    assert json.loads(saved[0])["nodes"] == 100
    cp.write_text(saved[0])
    resumed = explore.half_dim_exhaustive(2, 3, max_certificates=10 ** 9,
                                          checkpoint_path=str(cp))
    assert (resumed.nodes, resumed.certificates) == (full.nodes,
                                                     full.certificates)


def _forge_path(cp):
    cp["path"] = [0, 5, 3]


def _forge_path_of_finished(cp):
    cp["path"], cp["idx"] = [0, 5, 3], []


def _drop_idx(cp):
    del cp["idx"]


def _skip_first_candidate(cp):
    cp["idx"][0] += 1


def _idx_past_the_candidates(cp):
    cp["idx"][-1] = 10 ** 6


def _old_version(cp):
    del cp["task"]["version"]


def _fake_certificate(cp):
    cp["certificates"] = [list(range(9))]


def _not_a_permutation(cp):
    cp["certificates"] = [[0] * 9]


@pytest.mark.parametrize("edit", [
    _forge_path, _forge_path_of_finished, _drop_idx, _skip_first_candidate,
    _idx_past_the_candidates, _old_version, _fake_certificate,
    _not_a_permutation, "truncate"])
def test_half_dim_bad_checkpoint_exits_3(tmp_path, monkeypatch, capsys, edit):
    monkeypatch.setenv("ORTHOKIT_CHECKPOINT_DIR", str(tmp_path))
    assert _search_cli(capsys, "--budget", "5")[0] == 4
    path = tmp_path / "half-dim-2-3.json"
    if edit == "truncate":
        path.write_text(path.read_text()[:20])
    else:
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    code, err = _search_cli(capsys)
    assert code == 3 and "MALFORMED_CHECKPOINT" in err


def test_half_dim_version_2_checkpoint_exits_3(tmp_path, monkeypatch, capsys):
    # a checkpoint of the tree before the level reduction names positions
    # of another tree, so it is refused, not resumed
    assert explore._SEARCH_VERSION == 3
    monkeypatch.setenv("ORTHOKIT_CHECKPOINT_DIR", str(tmp_path))
    argv = ["search", "half-dim", "--dim", "4", "--q", "2"]
    assert cli.main(argv + ["--budget", "300"]) == 4
    path = tmp_path / "half-dim-4-2.json"
    doc = json.loads(path.read_text())
    doc["task"]["version"] = 2
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "MALFORMED_CHECKPOINT" in err and "Traceback" not in err


def test_phi_half_dim_probe():
    res = explore.phi_half_dim_probe([(2, 1), (2, 2)])
    assert res[0]["half_dimension_orthogoval"] is True
    assert res[1]["half_dimension_orthogoval"] is False


@pytest.mark.parametrize("q,k", [(3, 2), (4, 2), (2, 3)],
                         ids=["PG(4,3)", "PG(4,4)", "PG(6,2)"])
def test_phi_half_dim_probe_fails_with_a_flat_witness(q, k):
    res = explore.phi_half_dim_probe([(q, k)])
    assert res == [{"q": q, "k": k, "half_dimension_orthogoval": False}]
    g = geom.projective(2 * k, q)
    s, t = check.standard(g), phi_space(g, -1)
    verdict = check.is_half_dimension_orthogoval(s, t)
    assert not verdict.ok
    w = verdict.witness
    shared = set(w["flat_a"]) & set(w["flat_b"])
    assert len(shared) > k + 1 and shared == set(w["intersection"])
    size = (q ** (k + 1) - 1) // (q - 1)
    for space, flat in ((s, w["flat_a"]), (t, w["flat_b"])):
        inv = space.inverse()
        assert len(set(flat)) == size
        assert g.rank_of([int(inv[x]) for x in flat]) == k + 1


def test_half_dim_ag62_budget_is_exhausted():
    with pytest.raises(BudgetExceeded) as exc:
        explore.half_dim_exhaustive(6, 2, budget=300)
    assert exc.value.result.nodes == 300
    assert not exc.value.result.exhaustive


def brute_force_covers(columns, rows):
    """Every set of rows covering each column exactly once, as sorted
    tuples of row indices."""
    return sorted(
        combo for m in range(len(columns) + 1)
        for combo in itertools.combinations(range(len(rows)), m)
        if sorted(c for i in combo for c in rows[i]) == sorted(columns))


def test_exact_covers_of_k6_are_its_15_perfect_matchings():
    edges = list(itertools.combinations(range(6), 2))
    covers = list(explore._exact_covers(list(range(6)), edges))
    assert len(covers) == 15
    assert sorted(map(tuple, covers)) == brute_force_covers(range(6), edges)
    # the first cover is the lex-least: 01 23 45
    assert covers[0] == [0, 9, 14] and covers == sorted(covers)


@pytest.mark.parametrize("seed", range(6))
def test_exact_covers_equal_brute_force_and_come_lex_least_first(seed):
    rng = random.Random(seed)
    columns = list(range(7))
    rows = [rng.sample(columns, rng.randint(1, 3)) for _ in range(14)]
    covers = list(explore._exact_covers(columns, rows))
    ref = brute_force_covers(columns, rows)
    assert sorted(tuple(sorted(c)) for c in covers) == ref

    def least_columns_first(cover):
        return sorted(cover, key=lambda i: min(rows[i]))

    # each cover lists its rows by least column, in lexicographic order
    assert covers == sorted(least_columns_first(c) for c in map(list, ref))


def test_plane_structure_count():
    assert len(explore.plane_structures_f3()) == 840


def test_partition_covers_all_triples_once():
    part = explore.partition_plane_structures()
    assert len(part) == 7
    seen = [t for s in part for t in s]
    assert len(seen) == 84
    assert len(set(seen)) == 84


def test_structure_bijection_maps_lines_onto_target():
    g = geom.affine(2, 3)
    target = explore.partition_plane_structures()[2]
    perm = explore.structure_bijection(g, target)
    space = check.from_map(g, perm)
    assert ({frozenset(r) for r in space.lines().tolist()}
            == {frozenset(t) for t in target})


def test_seven_family_is_mutually_orthogoval_and_maximum():
    fam = explore.seven_ag2_f3()
    assert len(fam) == 7
    assert bool(check.are_mutually_orthogoval(fam))
    from orthokit.bounds import triple_bound
    assert len(fam) == triple_bound(geom.affine(2, 3))


def test_seven_family_matches_catalog():
    from orthokit.build import catalog_entry
    fam = explore.seven_ag2_f3()
    stored = catalog_entry("AG2_F3_X7")["perms"]
    assert [s.perm.tolist() for s in fam] == stored
