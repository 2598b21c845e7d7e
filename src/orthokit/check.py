"""Property deciders: k-orthogoval, orthomorphism, askew, half-dimension.

Pair checks run off a line index.  Two points lie on exactly one line,
so a dense table maps each point pair a<b to the row of ``s.lines()``
holding the line of ``s`` through it.  Gathering those ids for every
point pair of a line of ``t`` counts, for each line of ``s``, the pairs
the two lines share: a line of ``t`` meets a line of ``s`` in c >= 2
points exactly when that line's id repeats C(c, 2) times in its row.
One sort per row thus decides k-orthogovality for every k >= 2.  A
failing pair at k=2 reads its witness off the same ids: sorted stably,
a hit's first two point pairs are (p0, p1) and (p0, p2), the least
triple the two lines share.

Family checks at k=2 run off a triple index: one packed 64-bit key per
colinear point triple, sorted globally so that a triple colinear in two
spaces shows up as a duplicate.  One scan of all block pairs is the
independent oracle ``naive_k_orthogoval_pair`` over lines, also deciding
k <= 1 (every pair fails; the scan stops within the first line of
``s``), and the half-dimension decider over k-flats.

Singer reduction.  When every space is projective and its permutation
is x -> u*x + c (mod N) on the Singer labels, as the power maps are,
both k=2 deciders (pair and family) take the family path, one sort of
all the spaces' keys, on only the triples through point 0.  Such a
space's lines are u times the standard lines, and the Singer cycle
x -> x+1 permutes them, so a triple (a, b, c) colinear in two such
spaces shifts to (0, b-a, c-a), also colinear in both and no larger as
a key.  The least shared triple thus always starts with 0 and
the verdicts and witnesses are those of the full index, from
(N-1)(q-1)/2 keys per space.  The form is read from the permutation
itself; any other family, and any k != 2, takes the paths above.

Askew pairs run off one batched rank.  A line is in general position in
the other space when every min(|line|, dim+1)-subset of its preimages,
as homogeneous coordinates (affine points as (1, x)), has full rank
over GF(q); all subsets of a chunk of lines go through one numpy
Gaussian elimination on the field's tables.  The Singer reduction holds
here too: when both spaces are x -> u*x + c, every line of one is a
Singer shift of the image u*L + c of a standard line L through 0, and
a shift moves the preimages in the other space by a Singer shift too,
which keeps every rank.  So only the images of the (N-1)/q standard
lines through 0 are tested, and a failing pair needs no more: those
lines are the first rows of ``lines()``, and a failing line's shift
through 0 fails too, so the first failing line through 0 is the first
failing line of all.  Any other pair scans every line in ``lines()``
order.  Either way the witness is the first failing line, first space
before second, as in the per-line oracle ``naive_askew_pair``.

All predicates are pure and deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryMismatch, OddDimension
from .geom import PROJECTIVE, Geometry

_TRIPLE_CACHE_LIMIT = 2_000_000
# matrix entries per working array of the askew decider
_ASKEW_CHUNK = 1 << 20


@dataclass
class Space:
    """A geometry together with a point bijection from the standard space."""

    geometry: Geometry
    perm: np.ndarray
    name: str = ""
    _triples: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # a private read-only copy, so the cached triples cannot go stale
        self.perm = np.array(self.perm, dtype=np.int64)
        self.perm.flags.writeable = False
        n = self.geometry.point_count
        if not np.array_equal(np.sort(self.perm), np.arange(n)):
            raise ValueError("map is not a permutation of the point indices")

    @property
    def is_standard(self) -> bool:
        return bool(np.array_equal(self.perm, np.arange(len(self.perm))))

    def inverse(self) -> np.ndarray:
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm))
        return inv

    def lines(self) -> np.ndarray:
        out = self.perm[self.geometry.lines()]
        out.sort(axis=1)
        return out

    def triples(self) -> np.ndarray:
        """Packed keys of all colinear triples of this space, unsorted."""
        if self._triples is not None:
            return self._triples
        out = packed_triples(self.geometry, self.lines())
        if len(out) <= _TRIPLE_CACHE_LIMIT:
            self._triples = out
        return out


def standard(g: Geometry, name: str = "standard") -> Space:
    g._check_cap()  # before the identity map over every point
    return Space(g, np.arange(g.point_count), name=name)


def from_map(g: Geometry, perm, name: str = "") -> Space:
    return Space(g, perm, name=name)


@dataclass
class Verdict:
    ok: bool
    witness: dict = None

    def __bool__(self):
        return self.ok


# ----------------------------------------------------------------------
# line index and triple index
# ----------------------------------------------------------------------

def _line_index(space: Space) -> tuple[np.ndarray, np.ndarray]:
    """The space's lines, and a flat n*n table whose entry a*n+b, for
    points a<b, is the row of the line through a and b.  Entries with
    a>=b are never written."""
    lines = space.lines()
    n = space.geometry.point_count
    table = np.empty(n * n, dtype=np.int32)
    rows = np.arange(len(lines), dtype=np.int32)
    for i, j in itertools.combinations(range(lines.shape[1]), 2):
        table[lines[:, i] * n + lines[:, j]] = rows
    return lines, table


def packed_triples(g: Geometry, lines: np.ndarray) -> np.ndarray:
    """One uint64 key per colinear triple: ((a*N)+b)*N+c with a<b<c,
    unsorted; the family check sorts all spaces' keys together."""
    n = np.uint64(g.point_count)
    b = g.points_per_line
    rows = np.sort(lines, axis=1).astype(np.uint64)
    parts = []
    for i, j, k in itertools.combinations(range(b), 3):
        parts.append((rows[:, i] * n + rows[:, j]) * n + rows[:, k])
    return np.concatenate(parts)


def unpack_triple(key: int, n: int) -> tuple[int, int, int]:
    key = int(key)
    c = key % n
    key //= n
    return (key // n, key % n, c)


def _singer_multiplier(space: Space):
    """u if the space's permutation is x -> u*x + c (mod N) on the
    Singer labels of a projective geometry, else None."""
    if space.geometry.kind != PROJECTIVE:
        return None
    perm = space.perm
    n = len(perm)
    c = int(perm[0])
    u = (int(perm[1]) - c) % n
    if np.array_equal(perm, (np.arange(n) * u + c) % n):
        return u
    return None


def _singer_keys(spaces: list[Space]):
    """Each space's packed keys of its colinear triples through point 0,
    unsorted, or None unless every space is x -> u*x + c (mod N).  The
    lines through 0 of such a space are u times the standard ones, so
    a triple (0, lo, hi) packs as lo*N + hi, its full-index key."""
    us = [_singer_multiplier(s) for s in spaces]
    if None in us:
        return None
    g = spaces[0].geometry
    n = g.point_count
    rest = g.lines_through_origin()[:, 1:].astype(np.uint64)
    i, j = np.triu_indices(rest.shape[1], 1)
    out = []
    for u in us:
        pts = rest * np.uint64(u) % np.uint64(n)
        a, b = pts[:, i], pts[:, j]
        out.append((np.minimum(a, b) * np.uint64(n) + np.maximum(a, b)).ravel())
    return out


def _line_of(space: Space, tri) -> tuple | None:
    """The line of ``space`` through the point triple, or None if the
    triple is not colinear in it: ``line_through`` on the preimages,
    mapped back through the permutation."""
    inv = space.inverse()
    a, b, c = (int(inv[x]) for x in tri)
    line = space.geometry.line_through(a, b)
    if c not in line:
        return None
    return tuple(sorted(int(space.perm[x]) for x in line))


def _check_same_geometry(spaces):
    g = spaces[0].geometry
    for s in spaces[1:]:
        if not g.same_as(s.geometry):
            raise GeometryMismatch("spaces live on different geometries")
    return g


def _first_overlap(s: Space, t: Space, blocks: np.ndarray, limit: int,
                   names: tuple) -> Verdict:
    """Intersect the images in s and t of every pair of standard blocks
    (rows of ``blocks``), s outer and t inner in row order.  The first
    pair sharing more than ``limit`` points is the witness: ``names`` map
    to the two blocks and their intersection, as sorted tuples."""
    blocks_t = [frozenset(b) for b in t.perm[blocks].tolist()]
    for a in map(frozenset, s.perm[blocks].tolist()):
        for b in blocks_t:
            if len(a & b) > limit:
                return Verdict(False, dict(zip(names, (
                    tuple(sorted(x)) for x in (a, b, a & b)))))
    return Verdict(True)


# ----------------------------------------------------------------------
# pair checks
# ----------------------------------------------------------------------

def is_k_orthogoval_pair(s: Space, t: Space, k: int = 2) -> Verdict:
    """Every line of s meets every line of t in at most k points."""
    g = _check_same_geometry([s, t])
    if k >= g.points_per_line:
        return Verdict(True)
    if k <= 1:
        return naive_k_orthogoval_pair(s, t, k)
    keys = _singer_keys([s, t]) if k == 2 else None
    if keys is not None:
        witness = _least_shared_triple([s, t], g, keys)
        if witness is None:
            return Verdict(True)
        return Verdict(False, {key: witness[key]
                               for key in ("triple", "line_a", "line_b")})
    n = g.point_count
    ls, table = _line_index(s)
    lt = t.lines()
    pairs = np.array(list(itertools.combinations(range(lt.shape[1]), 2)))
    ids = _pair_ids(table, lt, pairs, n)
    ids.sort(axis=1)
    # lines meeting in more than k points share more than C(k, 2) point
    # pairs, so some id equals the one C(k, 2) places further on
    r = k * (k - 1) // 2
    hit = ids[:, r:] == ids[:, :-r]
    hit[:, 1:] &= ~hit[:, :-1]  # one hit per (line of t, line of s)
    rows, cols = np.nonzero(hit)
    if len(rows) == 0:
        return Verdict(True)
    sids = ids[rows, cols]
    if k == 2:
        # a hit starts a run of one line's id; sorted stably, the run's
        # point pairs keep their combinations order, so it starts with
        # (p0, p1), (p0, p2): the least triple the two lines share
        hit_rows, at = np.unique(rows, return_inverse=True)
        order = np.argsort(_pair_ids(table, lt[hit_rows], pairs, n),
                           axis=1, kind="stable")
        pos = np.column_stack([pairs[order[at, cols]],
                               pairs[order[at, cols + 1], 1]])
        tri = lt[rows[:, None], pos]
        first = np.argmin((tri[:, 0] * n + tri[:, 1]) * n + tri[:, 2])
        return Verdict(False, {"triple": tuple(tri[first].tolist()),
                               "line_a": tuple(ls[sids[first]].tolist()),
                               "line_b": tuple(lt[rows[first]].tolist())})
    # the naive oracle's witness: least line of s, then least line of t
    first = np.lexsort((rows, sids))[0]
    a, b = ls[sids[first]].tolist(), lt[rows[first]].tolist()
    return Verdict(False, {
        "line_a": tuple(a),
        "line_b": tuple(b),
        "intersection": tuple(sorted(set(a) & set(b))),
    })


def _pair_ids(table, lines, pairs, n: int) -> np.ndarray:
    """Per row of ``lines``, the line ids in ``table`` (see
    :func:`_line_index`) of its point pairs at the positions ``pairs``."""
    ids = np.empty((len(lines), len(pairs)), dtype=np.int32)
    for c, (i, j) in enumerate(pairs):
        ids[:, c] = table[lines[:, i] * n + lines[:, j]]
    return ids


def naive_k_orthogoval_pair(s: Space, t: Space, k: int) -> Verdict:
    """Oracle path: intersect every line pair directly."""
    g = _check_same_geometry([s, t])
    return _first_overlap(s, t, g.lines(), k, ("line_a", "line_b", "intersection"))


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------

def are_mutually_orthogoval(spaces: list[Space], k: int = 2) -> Verdict:
    """No point triple colinear in two spaces of the family (k=2), or
    pairwise k-orthogoval for general k."""
    if len(spaces) < 2:
        raise ValueError("need at least 2 spaces")
    g = _check_same_geometry(spaces)
    if k >= g.points_per_line:
        return Verdict(True)  # no two lines share more points than a line has
    if k == 2:
        witness = _least_shared_triple(spaces, g, _singer_keys(spaces))
        return Verdict(witness is None, witness)
    for i, j in itertools.combinations(range(len(spaces)), 2):
        v = is_k_orthogoval_pair(spaces[i], spaces[j], k)
        if not v:
            v.witness = dict(v.witness, space_a=i, space_b=j)
            return v
    return Verdict(True)


def _least_shared_triple(spaces: list[Space], g: Geometry, keys):
    """The least triple colinear in two spaces of the family, with the
    first two such spaces and their lines through it, or None if there is
    no such triple.  No lesser triple is shared by those two, so this is
    also their pair decider's witness.  ``keys`` is ``_singer_keys(spaces)``:
    each space's keys through point 0, or None for every space's full
    triple index.  All keys go into one buffer, sorted once, and its
    least duplicate is the triple.  Each space's keys are packed once:
    the owners are found by testing the triple against each space's
    lines directly."""
    if keys is None:
        per_space = g.line_count * _c3(g.points_per_line)
        keys = (s.triples() for s in spaces)
    else:
        per_space = len(keys[0])
    buf = np.empty(per_space * len(spaces), dtype=np.uint64)
    for i, arr in enumerate(keys):
        buf[i * per_space:(i + 1) * per_space] = arr
    del keys
    buf.sort()
    eq = buf[1:] == buf[:-1]
    at = int(np.argmax(eq))
    if not eq[at]:
        return None
    tri = unpack_triple(buf[at], g.point_count)
    del buf, eq
    lines = ((i, _line_of(s, tri)) for i, s in enumerate(spaces))
    (i, line_a), (j, line_b) = itertools.islice(
        ((i, line) for i, line in lines if line is not None), 2)
    return {"triple": tri, "line_a": line_a, "line_b": line_b,
            "space_a": i, "space_b": j}


def _c3(m: int) -> int:
    return m * (m - 1) * (m - 2) // 6


# ----------------------------------------------------------------------
# orthomorphisms, general position, askew, half-dimension
# ----------------------------------------------------------------------

def is_orthomorphism(g: Geometry, perm) -> Verdict:
    """Bijection whose line images are caps of the standard space."""
    return is_k_orthogoval_pair(standard(g), from_map(g, perm), 2)


def in_general_position(space: Space, pts) -> bool:
    """Every subset of size min(|pts|, dim+1) spans a flat of full rank,
    measured in the line structure of the given space."""
    g = space.geometry
    if space.is_standard:
        inv_pts = list(pts)
    else:
        inv = space.inverse()
        inv_pts = [int(inv[p]) for p in pts]
    m = len(inv_pts)
    if m < 2:
        return True
    s = min(m, g.dim + 1)
    if m == s:
        return g.rank_of(inv_pts) == m
    for sub in itertools.combinations(sorted(inv_pts), s):
        if g.rank_of(sub) != s:
            return False
    return True


def is_askew_pair(s: Space, t: Space) -> Verdict:
    """Every line of each space is in general linear position in the
    other, decided by batched GF(q) ranks (see the module docstring).
    The witness is that of ``naive_askew_pair``: the first failing line
    of the first space, else of the second."""
    g = _check_same_geometry([s, t])
    if _general_position_size(g) <= 2:
        return Verdict(True)  # two distinct points always have rank 2
    singer = (_singer_multiplier(s) is not None
              and _singer_multiplier(t) is not None)
    for line_of, src, other in (("first", s, t), ("second", t, s)):
        if singer:
            # the first rows of src.lines(), sorted as it sorts them
            rows = np.sort(src.perm[g.lines_through_origin()], axis=1)
        else:
            rows = src.lines()
        bad = _first_outside_general_position(rows, other)
        if bad is not None:
            return Verdict(False, {"line_of": line_of,
                                   "line": tuple(rows[bad].tolist())})
    return Verdict(True)


def naive_askew_pair(s: Space, t: Space) -> Verdict:
    """Oracle path: test each line with ``in_general_position``."""
    _check_same_geometry([s, t])
    for line_of, src, other in (("first", s, t), ("second", t, s)):
        for row in src.lines().tolist():
            if not in_general_position(other, row):
                return Verdict(False, {"line_of": line_of, "line": tuple(row)})
    return Verdict(True)


def _general_position_size(g: Geometry) -> int:
    """Size of the point subsets a line's general position is tested on."""
    return min(g.points_per_line, g.dim + 1)


def _first_outside_general_position(rows: np.ndarray, space: Space):
    """Index of the first row of points that is not in general position
    in the space, or None.  Every min(|row|, dim+1)-subset of the row's
    preimages, as homogeneous coordinates (affine points as (1, x)), must
    have full rank; rows are taken in chunks of about _ASKEW_CHUNK
    matrix entries."""
    g = space.geometry
    coords = g.homogeneous()
    size = _general_position_size(g)
    subsets = np.array(list(itertools.combinations(range(rows.shape[1]), size)))
    step = max(1, _ASKEW_CHUNK // (len(subsets) * size * coords.shape[1]))
    inv = space.inverse()
    for lo in range(0, len(rows), step):
        pre = inv[rows[lo:lo + step]][:, subsets]
        ok = _full_rank(coords[pre].reshape(-1, size, coords.shape[1]), g.field)
        ok = ok.reshape(len(pre), -1).all(axis=1)
        if not ok.all():
            return lo + int(np.argmin(ok))
    return None


def _full_rank(mats: np.ndarray, base) -> np.ndarray:
    """Whether each m x r matrix of a stack of field codes has rank m.
    Gaussian elimination by rows, batched with the field's tables: the
    first nonzero entry of row i, scaled to 1, is cleared from the rows
    below it, and a row left all zero is dependent."""
    add, mul, neg, inv = base.tables()
    m = np.array(mats, dtype=add.dtype)
    ok = np.ones(len(m), dtype=bool)
    each = np.arange(len(m))
    for i in range(m.shape[1]):
        row = m[:, i, :]
        piv = np.argmax(row != 0, axis=1)
        lead = row[each, piv]
        ok &= lead != 0
        if i + 1 < m.shape[1]:
            row = mul[inv[lead][:, None], row]
            below = m[:, i + 1:, :]
            factor = neg[below[each, :, piv]]
            m[:, i + 1:, :] = add[below, mul[factor[:, :, None], row[:, None, :]]]
    return ok


def is_half_dimension_orthogoval(s: Space, t: Space) -> Verdict:
    """In dimension 2k, k-flats of one space meet k-flats of the other in
    at most k+1 points."""
    g = _check_same_geometry([s, t])
    if g.dim % 2:
        raise OddDimension(f"dimension {g.dim} is odd")
    k = g.dim // 2
    return _first_overlap(s, t, g.flats(k), k + 1,
                          ("flat_a", "flat_b", "intersection"))


# ----------------------------------------------------------------------
# handy maps for tests and invariance checks
# ----------------------------------------------------------------------

def translation_map(g: Geometry, t_coords) -> np.ndarray:
    """Index permutation of an affine translation."""
    base = g.field
    pts = g.points()
    out = np.empty(g.point_count, dtype=np.int64)
    for i, pt in enumerate(pts):
        out[i] = g.point_index(tuple(base.add(a, b) for a, b in zip(pt, t_coords)))
    return out


def singer_shift(g: Geometry, c: int) -> np.ndarray:
    """Multiplication of Singer labels by z^c: a projective collineation."""
    n = g.point_count
    return (np.arange(n) + c) % n


def compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Permutation composition: (outer . inner)(x) = outer[inner[x]]."""
    return np.asarray(outer)[np.asarray(inner)]


def perm_from_cycles(n: int, cycles) -> np.ndarray:
    """The map of n points sending each entry of each cycle (a list) to
    the next, the last to the first, and every other point to itself.
    The cycles are disjoint: no point is in two, or twice in one."""
    perm = np.arange(n, dtype=np.int64)
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    return perm
