"""Search engines.

Four task kinds: exponent scans for orthomorphism power maps, power
chains, branch-and-bound clique search over candidate bijections, and
the exhaustive search over affine structures used for the
half-dimension nonexistence question, reduced by GL(d, q) through a
closed-form test of lex-least prefixes, reduced on the domain side by
the affine maps of each subspace [0, q^r) a prefix completes, and pruned
per node through a table of the spans of the standard k-flats'
(k+1)-subsets; and one exact-cover routine, which finds the 840 line
structures of AG(2, F_3) and their partition into seven.  All searches
are deterministic: candidate orders are canonical and results never
depend on timing.  Every certificate emitted here is re-verified
through :mod:`orthokit.check` before it is reported.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import geom
from .build import phi_space
from .check import (
    Space,
    from_map,
    is_half_dimension_orthogoval,
    is_k_orthogoval_pair,
    standard,
)
from .errors import (
    BudgetExceeded,
    MalformedCheckpoint,
    NotCoprime,
    OddDimension,
)
from .geom import _gf_rank
from .gf import prime_factors


@dataclass
class SearchResult:
    certificates: list
    nodes: int
    exhaustive: bool


# ----------------------------------------------------------------------
# orthomorphism exponent scans
# ----------------------------------------------------------------------

def sufficient_exponents(q: int, r: int, w_max: int) -> list[int]:
    """Exponents w in [2, w_max] meeting the sufficient conditions:
    coprime to q^r - 1, not a power of char p, and r coprime to w!, that
    is, w below every prime factor of r."""
    p = prime_factors(q)[0]
    big = q ** r - 1
    out = []
    for w in range(2, min([w_max + 1] + prime_factors(r))):
        if math.gcd(w, big) != 1:
            continue
        x = w
        while x % p == 0:
            x //= p
        if x == 1:
            continue
        out.append(w)
    return out


def exponent_scan(q: int, r: int, w_max: int) -> dict:
    """All w in [2, w_max] coprime to q^r - 1 whose power map is an
    orthomorphism of PG(r-1, q), plus the sufficient-condition subset."""
    g = geom.projective(r - 1, q)
    std = standard(g)
    big = q ** r - 1
    found = [w for w in range(2, w_max + 1) if math.gcd(w, big) == 1
             and is_k_orthogoval_pair(std, phi_space(g, w), 2)]
    return {
        "q": q,
        "r": r,
        "w_max": w_max,
        "orthomorphisms": found,
        "sufficient_conditions": sufficient_exponents(q, r, w_max),
    }


def power_chain(q: int, r: int, w: int) -> int:
    """Largest n with the w^i power map an orthomorphism for all
    1 <= i <= n.  The walk x <- x*w mod q^r - 1 stops at the first
    failure, or when x comes back to 1, the identity, after w's
    multiplicative order of steps."""
    big = q ** r - 1
    if math.gcd(w, big) != 1:
        raise NotCoprime(f"w = {w} shares a factor with {big}")
    g = geom.projective(r - 1, q)
    std = standard(g)
    n, x = 0, w % big
    while x != 1 and is_k_orthogoval_pair(std, phi_space(g, x), 2):
        n += 1
        x = x * w % big
    return n


# ----------------------------------------------------------------------
# maximum clique over candidate bijections
# ----------------------------------------------------------------------

@dataclass
class CliqueResult:
    members: list
    nodes: int
    exhaustive: bool


def clique_search(candidates: list, g: geom.Geometry,
                  budget: int = None) -> CliqueResult:
    """Largest found set of candidate maps whose induced spaces are
    mutually orthogoval: exact branch-and-bound with greedy-coloring
    bounds and canonical tie-breaking."""
    spaces = [from_map(g, p) for p in candidates]
    m = len(spaces)
    adj = [[False] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        ok = bool(is_k_orthogoval_pair(spaces[i], spaces[j], 2))
        adj[i][j] = adj[j][i] = ok

    best: list[int] = []
    nodes = 0
    exhausted = True

    class _Stop(Exception):
        pass

    def color_sort(cand):
        # greedy coloring; returns candidates with color numbers, ascending
        colors = []
        classes = []
        for v in cand:
            placed = False
            for ci, cls in enumerate(classes):
                if all(not adj[v][u] for u in cls):
                    cls.append(v)
                    colors.append((v, ci + 1))
                    placed = True
                    break
            if not placed:
                classes.append([v])
                colors.append((v, len(classes)))
        colors.sort(key=lambda t: (t[1], t[0]))
        return colors

    def expand(clique, cand):
        nonlocal best, nodes, exhausted
        for v, color in reversed(color_sort(cand)):
            if len(clique) + color <= len(best):
                return
            if budget is not None and nodes >= budget:
                exhausted = False
                raise _Stop
            nodes += 1
            new_clique = clique + [v]
            new_cand = [u for u in cand if u > v and adj[v][u]]
            if not new_cand:
                if len(new_clique) > len(best):
                    best = new_clique
            else:
                expand(new_clique, new_cand)

    try:
        expand([], list(range(m)))
    except _Stop:
        pass
    return CliqueResult(members=sorted(best), nodes=nodes, exhaustive=exhausted)


# ----------------------------------------------------------------------
# exhaustive search over affine structures (half-dimension question)
# ----------------------------------------------------------------------

# Identifies the search tree a checkpoint belongs to.  Bump it whenever a
# change to the candidate order or the pruning changes the tree, so that
# an old checkpoint is refused instead of resumed into the wrong tree.
_SEARCH_VERSION = 3
# a checkpointed half-dimension search also saves every this many nodes
_CHECKPOINT_EVERY = 250_000


def _gl_point_perms(g: geom.Geometry) -> list:
    """Point permutations of all invertible linear maps (origin fixed): the
    test reference for the canonicity rule of :func:`half_dim_exhaustive`."""
    base, d, q = g.field, g.dim, g.q
    pts = g.points()
    perms = []
    for entries in itertools.product(range(q), repeat=d * d):
        mat = [entries[i * d:(i + 1) * d] for i in range(d)]
        if _gf_rank([list(r) for r in mat], base) != d:
            continue
        perm = [0] * g.point_count
        for i, x in enumerate(pts):
            y = []
            for row in mat:
                acc = 0
                for c, xv in zip(row, x):
                    acc = base.add(acc, base.mul(c, xv))
                y.append(acc)
            perm[i] = g.point_index(tuple(y))
        perms.append(perm)
    return perms


def _flat_image_ok(g: geom.Geometry, image: list[int], k: int) -> bool:
    """No k+2 of the image points may lie in a common k-flat: the test
    reference for the candidates of :func:`_half_dim_candidates`."""
    s = k + 2
    if len(image) == s:
        return g.rank_of(image) == s
    for sub in itertools.combinations(sorted(image), s):
        if g.rank_of(sub) != s:
            return False
    return True


def _half_dim_candidates(g: geom.Geometry):
    """The candidate generator of :func:`half_dim_exhaustive` on AG(d, q):
    ``candidates(path)`` lists, ascending, the images the next point
    ``len(path)`` may take after the images ``path``.

    An image is admissible when it is unused, at most
    :func:`_canonical_top`, and completes every standard k-flat whose
    largest point is the next one to an image with no k+2 points in a
    common k-flat.  For such a flat, with other images I, that holds
    exactly when every (k+1)-subset S of I is independent, no other point
    of I lies in span(S), and the new image avoids span(S).  A span table,
    built once, maps the bitmask of every (k+1)-subset of a k-flat to the
    bitmask of that flat, or to None when the subset lies in two k-flats
    and so is dependent; every (k+1)-subset of the points lies in some
    k-flat, so every one is a key.  So each flat forbids its spans with no
    test per image."""
    k = g.dim // 2
    n, q = g.point_count, g.q
    rest = q ** k - 1  # the other points of a k-flat
    # A key is the OR of the images of four points: a (k+1)-subset is
    # padded with position -1, where a 0 is appended to the image bits.
    # The flat cap of Geometry.flats keeps k at most 3, so four always
    # suffice.
    pad = (-1,) * (3 - k)
    table = {}
    by_last = [[] for _ in range(n)]  # L -> the other points of its flats
    for f in g.flats(k).tolist():
        fbits = [1 << p for p in f]
        span = sum(fbits)
        for key in map(sum, itertools.combinations(fbits, k + 1)):
            table[key] = None if key in table else span
        others = (*f[:-1], *pad) if rest == k + 1 else itemgetter(*f[:-1], -1)
        by_last[f[-1]].append(others)
    # the images at most _canonical_top, by the largest image so far
    window = [(1 << min(_canonical_top([m], q) + 1, n)) - 1
              for m in range(n)]

    if rest == k + 1:
        # a flat's other points are its only (k+1)-subset, so no other
        # image can lie in its span; this is AG(4, 2) and AG(2, 3), where
        # every (k+1)-subset lies in exactly one k-flat, so no lookup gives None
        def fold(acc, flats, bits):
            for a, b, c, d in flats:
                acc |= table[bits[a] | bits[b] | bits[c] | bits[d]]
            return acc
    else:
        # each (k+1)-subset of a flat's other points, as positions among
        # them, padded with position rest, the appended 0
        subsets = [c + (rest,) * (3 - k)
                   for c in itertools.combinations(range(rest), k + 1)]

        def fold(acc, flats, bits):
            for get in flats:
                imgs = get(bits)
                whole = sum(imgs)
                for a, b, c, d in subsets:
                    key = imgs[a] | imgs[b] | imgs[c] | imgs[d]
                    span = table[key]
                    if span is None or span & whole != key:
                        return None
                    acc |= span
            return acc

    def candidates(path):
        bits = [1 << v for v in path]
        used = sum(bits)
        bits.append(0)
        acc = fold(used, by_last[len(path)], bits)
        if acc is None:
            return []
        free = window[used.bit_length() - 1] & ~acc
        out = []
        while free:
            low = free & -free
            out.append(low.bit_length() - 1)
            free ^= low
        return out

    return candidates


def _vector_tables(g: geom.Geometry) -> tuple[list, list, list]:
    """(add, mul, neg) on the points of AG(d, q) as vectors of F_q^d:
    add[a][b] = a + b, mul[c][a] = c * a for a field code c, and
    neg[a] = -a, read off the field's tables digit by digit."""
    q, d = g.q, g.dim
    fadd, fmul, fneg, _ = g.field.tables()
    digits = geom._base_q_digits(np.arange(g.point_count), q, d)
    weights = q ** np.arange(d - 1, -1, -1)
    return ((fadd[digits[:, None], digits[None, :]] @ weights).tolist(),
            (fmul[np.arange(q)[:, None, None], digits] @ weights).tolist(),
            (fneg[digits] @ weights).tolist())


def _least_at_level(tables: tuple, p: list) -> bool:
    """Whether the left-canonical prefix ``p`` of length q^r is least among
    the left-canonical images of p . s over the affine maps s of the
    domain subspace D_r = [0, q^r); ``tables`` are :func:`_vector_tables`.

    The left-canonical image of a sequence translates its first entry to
    0, then writes the j-th entry that leaves the span of those before it
    as q^j and every other entry as its coordinates c in the basis so
    far, sum c_j q^j: the closed form of :func:`_canonical_top`.  A map s
    is set by its frame, the images of 0, 1, q, ..., q^(r-1), and the
    entries of positions [q^j, q^(j+1)) follow from the first j+1 of
    them.  The frames are walked depth first; a branch stops as soon as
    an entry exceeds that of p, and the test as soon as one is smaller.
    The span of a branch's entries is kept as its points, listed by
    entry, so no rank is computed and AGL(r, q) is never listed."""
    add, mul, neg = tables
    q, m = len(mul), len(p)

    def walk(dom, pts, ent):
        # dom: the images under s of positions [0, w); pts and ent: the
        # span of their images in p, as points by entry and back
        w = len(dom)
        if w == m:
            return True
        seen = set(dom)
        na, no = neg[dom[0]], neg[pts[0]]
        for f in range(m):
            if f in seen:
                continue
            u = add[f][na]
            more = [add[x][mul[c][u]] for c in range(1, q) for x in dom]
            span, index = pts, ent
            for i, s in enumerate(more, w):
                z, top = p[s], len(span)
                e = index.get(z, top)
                if e != p[i]:
                    if e < p[i]:
                        return False
                    break
                if e == top:
                    dz = add[z][no]
                    span = span + [add[y][mul[c][dz]]
                                   for c in range(1, q) for y in span]
                    index = {y: j for j, y in enumerate(span)}
            else:
                if not walk(dom + more, span, index):
                    return False
        return True

    return all(walk([a], [p[a]], {p[a]: 0}) for a in range(m))


def _level_filters(g: geom.Geometry) -> list:
    """The domain-side reduction of :func:`half_dim_exhaustive`, per path
    length L: None, or where point L completes a domain subspace
    D_r = [0, q^r) with 1 <= r < d, a function of a path and its
    candidate images that keeps those whose completed prefix
    :func:`_least_at_level` accepts.  The search applies it to non-empty
    candidate lists only: on AG(4, 3) nearly every list for point 8 is
    empty, and a wrapper around the generator would cost a call each."""
    tables = _vector_tables(g)

    def keep(path, images):
        return [v for v in images if _least_at_level(tables, path + [v])]

    levels = {g.q ** r - 1 for r in range(1, g.dim)}
    return [keep if L in levels else None for L in range(g.point_count)]


def _canonical_top(path: list, q: int) -> int:
    """The least power of q above every image in ``path``: appending an
    image keeps the prefix lex-least under GL(d, q) exactly when the
    image is at most this."""
    top = 1
    while top <= max(path):
        top *= q
    return top


def _checkpoint_path(d, q, override=None):
    if override is not None:
        return override
    root = os.environ.get("ORTHOKIT_CHECKPOINT_DIR")
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, f"half-dim-{d}-{q}.json")


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(x) is int for x in value)


def _load_checkpoint(cpath: str, task: dict, std: Space, candidates):
    """The search position saved in ``cpath`` (path, idx, nodes and
    certificates) and its rebuilt candidate stack; ``std`` is the
    standard space of the searched geometry.
    Raises MalformedCheckpoint unless the file holds a state of this task
    and search version that the search itself can reach, with every
    stored certificate passing re-verification."""
    def bad(why):
        return MalformedCheckpoint(f"checkpoint {cpath}: {why}")

    try:
        with open(cpath) as fh:
            saved = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise bad(f"unreadable: {exc}")
    if not isinstance(saved, dict) or saved.get("task") != task:
        raise bad(f"not a checkpoint of {task}; delete it to start over")
    path, idx, nodes, certs = (saved.get(key) for key in
                               ("path", "idx", "nodes", "certificates"))
    if not (_int_list(path) and _int_list(idx) and type(nodes) is int
            and nodes >= 0 and isinstance(certs, list)
            and all(_int_list(c) for c in certs)):
        raise bad("path, idx, nodes or certificates has the wrong type")
    g = std.geometry
    n = g.point_count
    cands = []
    if idx:
        # the loop invariant of half_dim_exhaustive, which every save keeps
        if not (path[:1] == [0] and len(idx) == len(path) < n):
            raise bad("path and idx do not describe a search position")
        for i in range(1, len(path) + 1):
            cands.append(candidates(path[:i]))
            j = idx[i - 1]
            if i < len(path) and not (0 <= j < len(cands[-1])
                                      and cands[-1][j] == path[i]):
                raise bad(f"path[{i}] = {path[i]} is not candidate {j}")
        if not 0 <= idx[-1] <= len(cands[-1]):
            raise bad(f"idx[-1] = {idx[-1]} is out of range")
    elif path != [0]:
        raise bad("a finished search must have path [0]")
    for c in certs:
        if sorted(c) != list(range(n)) or not is_half_dimension_orthogoval(
                std, from_map(g, c)):
            raise bad("a stored certificate fails re-verification")
    return path, idx, nodes, certs, cands


def half_dim_exhaustive(d: int, q: int, budget: int = None,
                        checkpoint_path: str = None,
                        max_certificates: int = 1) -> SearchResult:
    """Search all affine structures on the AG(d, q) point set for one
    forming a half-dimension-orthogoval pair with the standard space.

    Structures are swept as point bijections with the image of the
    origin pinned to the origin.  Composing with an invertible linear map
    keeps the standard space and the verdict, so only bijections whose
    image sequence is lex-least in its GL(d, q) orbit are visited, at
    every depth.  In base-q point indices the span of the first r new
    images of a lex-least prefix is the index range [0, q^r), and its
    stabiliser moves any point outside that span to any other, so a
    prefix is lex-least exactly when each image is at most the least
    power of q above every earlier one.  The images a point may take are
    read off a span table (see :func:`_half_dim_candidates`), so no rank
    is computed per image.

    Composing with an affine map s on the domain side gives the very
    same space, since s permutes the standard flats.  So where point
    q^r - 1 completes the domain subspace D_r = [0, q^r), 1 <= r < d, an
    image is dropped unless the completed prefix is least among its
    left-canonical images under the affine maps of D_r (see
    :func:`_least_at_level`).  That is sound: the lex-least
    left-canonical bijection pi of a class (bijections that differ by
    affine maps on either side) is never dropped.  Each map of D_r
    extends to an affine map of AG(d, q) that keeps D_r, so pi . s has a
    left-canonical image in the class, never below pi, and left-canonical
    images of prefixes are the prefixes of left-canonical images.  A run
    with no certificate still proves nonexistence, and the first
    certificate, the least of all, is unchanged.  The full AG(4, 2) run
    visits 1,071 nodes in about 0.05 s on a 2-core box (168,439 nodes
    without the domain-side levels).  The search stacks are locals; a
    save writes out path, idx, nodes and certificates.

    Raises OddDimension for odd ``d``, ValueError when
    ``max_certificates`` is below 1, and BudgetExceeded (with the partial
    result attached) when the node budget runs out.  A checkpoint file
    is written so the run can resume: on a budget stop, on the last
    certificate, at the end, and every _CHECKPOINT_EVERY nodes between.
    A finished checkpoint, or one already holding ``max_certificates``
    certificates, returns its stored result, and one of another task or
    search version, or naming a position the search cannot reach, raises
    MalformedCheckpoint.
    """
    if d % 2:
        raise OddDimension(f"dimension {d} is odd")
    if max_certificates < 1:
        raise ValueError(f"max_certificates must be at least 1, "
                         f"not {max_certificates}")
    g = geom.affine(d, q)
    n = g.point_count
    std = standard(g)
    generate = _half_dim_candidates(g)
    keep = _level_filters(g)

    def candidates(path):
        out = generate(path)
        if out and keep[len(path)]:
            out = keep[len(path)](path, out)
        return out

    cpath = _checkpoint_path(d, q, checkpoint_path)
    task = {"kind": "HALF_DIM_EXHAUSTIVE", "d": d, "q": q,
            "version": _SEARCH_VERSION}

    if cpath and os.path.exists(cpath):
        path, idx, nodes, certificates, cands = _load_checkpoint(
            cpath, task, std, candidates)
        if not idx or len(certificates) >= max_certificates:
            return SearchResult(certificates, nodes, not idx)
    else:
        path, idx, nodes, certificates = [0], [0], 0, []
        cands = [candidates(path)]

    def save_checkpoint(nodes):
        if not cpath:
            return
        payload = {"task": task, "path": path, "idx": idx, "nodes": nodes,
                   "certificates": certificates}
        tmp = cpath + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, cpath)

    # Loop invariant, and the state every save records: len(path) ==
    # len(idx) == len(cands), cands[i] lists the candidates after
    # path[:i+1], path[i+1] == cands[i][idx[i]], and cands[-1][idx[-1]]
    # is the next node to visit.
    while True:
        cur = cands[-1]
        pos = idx[-1]
        if pos >= len(cur):
            # backtrack
            cands.pop()
            idx.pop()
            if not idx:
                save_checkpoint(nodes)
                return SearchResult(certificates, nodes, True)
            path.pop()
            idx[-1] += 1
            continue
        if budget is not None and nodes >= budget:
            save_checkpoint(nodes)
            raise BudgetExceeded(
                f"node budget {budget} exhausted",
                SearchResult(certificates, nodes, False))
        if cpath and nodes and nodes % _CHECKPOINT_EVERY == 0:
            save_checkpoint(nodes)
        nodes += 1
        v = cur[pos]
        if len(path) + 1 == n:
            perm = path + [v]
            idx[-1] += 1
            if is_half_dimension_orthogoval(std, from_map(g, perm)):
                certificates.append(perm)
                if len(certificates) >= max_certificates:
                    save_checkpoint(nodes)
                    return SearchResult(certificates, nodes, False)
            continue
        path.append(v)
        cands.append(candidates(path))
        idx.append(0)


def phi_half_dim_probe(cases: list) -> list[dict]:
    """For each (q, k), whether the standard PG(2k, q) and its
    label-inversion image are half-dimension orthogoval."""
    out = []
    for q, k in cases:
        g = geom.projective(2 * k, q)
        verdict = is_half_dimension_orthogoval(standard(g), phi_space(g, -1))
        out.append({"q": q, "k": k, "half_dimension_orthogoval": bool(verdict)})
    return out


# ----------------------------------------------------------------------
# the seven-space affine plane family over F_3
# ----------------------------------------------------------------------

def _exact_covers(columns: list, rows: list):
    """Knuth's Algorithm X: each exact cover of ``columns`` by ``rows``
    (iterables of columns), as the row indices in the order chosen.  The
    first uncovered column is covered next, by its rows in index order,
    so covers come in lexicographic order, the lex-least first."""
    through = {c: [] for c in columns}
    for i, row in enumerate(rows):
        for c in row:
            through[c].append(i)

    def search(at, covered, chosen):
        while at < len(columns) and columns[at] in covered:
            at += 1
        if at == len(columns):
            yield chosen
            return
        for i in through[columns[at]]:
            if covered.isdisjoint(rows[i]):
                yield from search(at + 1, covered.union(rows[i]), chosen + [i])

    return search(0, frozenset(), [])


def plane_structures_f3() -> list[tuple]:
    """All line structures on 9 points isomorphic to AG(2, F_3): the
    exact covers of the 36 point pairs by point triples, sorted."""
    triples = list(itertools.combinations(range(9), 3))
    covers = _exact_covers(list(itertools.combinations(range(9), 2)),
                           [list(itertools.combinations(t, 2)) for t in triples])
    return sorted(tuple(triples[i] for i in cover) for cover in covers)


def partition_plane_structures() -> list[tuple]:
    """Partition of all 84 point triples of a 9-set into 7 plane
    structures (each triple colinear in exactly one): the first exact
    cover of the triples by the structure list, in canonical order."""
    structures = plane_structures_f3()
    cover = next(_exact_covers(list(itertools.combinations(range(9), 3)),
                               structures), None)
    if cover is None:  # pragma: no cover
        raise AssertionError("no partition found; structure enumeration is broken")
    return [structures[i] for i in cover]


def structure_bijection(g: geom.Geometry, target_lines) -> np.ndarray:
    """A point bijection sending the standard line set onto the target
    line structure (first one in lex order of image tuples)."""
    std = [tuple(r) for r in g.lines().tolist()]
    target = {frozenset(t) for t in target_lines}
    n = g.point_count
    by_max = [[] for _ in range(n)]
    for line in std:
        by_max[max(line)].append(line)
    assign = [-1] * n
    used = [False] * n

    def backtrack(i):
        if i == n:
            return True
        for v in range(n):
            if used[v]:
                continue
            assign[i] = v
            used[v] = True
            ok = all(
                frozenset(assign[p] for p in line) in target
                for line in by_max[i]
            )
            if ok and backtrack(i + 1):
                return True
            used[v] = False
            assign[i] = -1
        return False

    if not backtrack(0):
        raise ValueError("target structure is not isomorphic to the geometry")
    return np.array(assign, dtype=np.int64)


def seven_ag2_f3() -> list[Space]:
    """Seven mutually orthogoval AG(2, F_3), derived from the triple
    partition; their colinear triple sets are disjoint by construction."""
    g = geom.affine(2, 3)
    return [
        from_map(g, structure_bijection(g, s), name=f"plane7[{i}]")
        for i, s in enumerate(partition_plane_structures())
    ]
