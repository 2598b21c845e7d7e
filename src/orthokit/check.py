"""Property deciders: k-orthogoval, orthomorphism, askew, half-dimension.

Pair checks run off a line index.  Two points lie on exactly one line,
so a dense table maps each point pair a<b to the row of ``s.lines()``
holding the line of ``s`` through it.  Gathering those ids for every
point pair of a line of ``t`` counts, for each line of ``s``, the pairs
the two lines share: a line of ``t`` meets a line of ``s`` in c >= 2
points exactly when that line's id repeats C(c, 2) times in its row.
One sort per row thus decides k-orthogovality for every k >= 2.  At k=2
it reads the witness off the same ids: sorted stably, a hit's first two
point pairs are (p0, p1) and (p0, p2), the least triple the two lines
share.  The working set is the table plus one chunk: the rows of t go
in chunks of at most _OVERLAP_CHUNK ids, each keeping its least witness
candidate (the least packed triple at k=2, else the least s-line and
then t-line); at k=2 a chunk with a hit gathers its hit rows again for
the stable sort.  The table and the ids are int16 while s has fewer
than 2^15 lines, and a triple is packed in int64 (n^3 passes 2^31 at
n = 1,291).  On a
random PG(2,97) pair (2-core box) k=2 takes 4.2 s and 345 MB peak RSS,
against 10.3 s and 1.6 GB for one dense pass over int32 ids; k=3 takes
2.1 s and 310 MB (was 3.6 s, 770 MB).

Family checks at k=2 run off a triple index: one packed 64-bit key per
colinear point triple, sorted globally so that a triple colinear in two
spaces shows up as a duplicate.  A family whose index would pass
_FAMILY_KEYS keys (1 GiB) is decided pair by pair instead: the least of
the pairs' witness triples is the least shared triple, and its first
two owners are found as the index finds them.  A two-space PG(2,97)
family would need 2.9 billion keys (21.5 GiB).

One scan of all block pairs is the independent oracle
``naive_k_orthogoval_pair`` over lines, also deciding k <= 1 (every pair
fails; the scan stops at the first line of ``s``), and the
half-dimension decider over k-flats.  It shares no table with the line
index: one stable argsort of the standard blocks by point gives the ids
of the blocks through each point, and every point of AG/PG lies on as
many j-flats.  With w = t^-1 . s, gathering those rows at the w-images
of a block's points and sorting them counts each t-block as often as
its image meets the block's s-image, so an id repeated more than the
limit is an overlap.  The first such row and its least such id are the
first failing pair in standard order, s-blocks outer.  Chunks of rows
start small and double up to about 2^20 ids, so a pair that fails early
stays cheap.  A full scan costs about 6 ns per id gathered.  Measured
on a 2-core x86 box against the frozenset double loop it replaced: the
AG(3,4) char-p pair passes k=2 in 0.3 ms (was 34 ms), a full scan of
PG(4,3)'s planes takes 18 ms (was 0.96 s), and PG(4,5)'s take 3.2 s.

Group reduction.  The Singer cycle x -> x+1 on the labels of PG (the
group Z/N) and the translations of AG (F_p^m on the base-p digits of
the point index, m = dim*n) act regularly and keep the standard line
set.  A map has a form when it is x -> A(x) + c, A an automorphism of
that group: x -> u*x on PG, u a unit mod N, as the power maps are; A
additive over F_p on AG, as the char-p maps and their products are.
Its lines are the shifts of A(L), L a standard line through 0, so the
group keeps them too.  Relabelling both spaces by t^-1 keeps the
relation, so (s, t) is k-orthogoval exactly when (standard, w) is,
w = t^-1 . s.  When w has a form, two lines meeting in c points shift
to two lines through 0 meeting in c points, so at any 2 <= k < |line|
one gather of ``origin_line_ids`` at the A_w-images of the nonzero
points of every standard line through 0 decides the pair: it fails
exactly when k ids in a row are equal.  This also reaches pairs
(h.s, h.t) that share any relabelling h.  A space's form comes from
its builder or from its map.  The power maps, ``standard`` on PG and
``from_form`` build a projective space from its form (u, c), and make
its permutation only when a path that enumerates lines asks for it;
the reduced paths read the form alone, and ``_line_of`` maps a triple
by x -> (x - c)/u and a line back by x -> u*x + c.  Any other space's
form is read from its map once and kept on the space: on PG the
multiplier u, by one comparison of consecutive labels; on AG the
offset c, with A read off the images of the basis points p^i and the
map it predicts compared with the permutation in one pass.  When both
spaces of a PG pair have a form, w is x -> (u_s/u_t)*x +
(c_s - c_t)/u_t, read off the two forms with no map made.  Only w's
multiplier matters: its lines through 0 are u_w times the standard
ones.  When s has a form as well, so does t = s . w^-1, and a
failing pair's k=2 witness comes from the keys through 0: a triple
(a, b, c) colinear in both shifts to (0, b-a, c-a), also colinear in
both and no larger as a key, so the least shared triple is that of the
full index, from (N-1)(q-1)/2 keys per PG space, or 2,548 per AG(3,9)
space instead of 619,164.  Any other failing pair takes the line
index's witness.  A k=2 family of spaces that all have a form holds,
for a pair, when the gather on w passes; on PG, for 3 or more, when
every ratio u_j/u_i of their multipliers lies in O, the units u for
which x -> u*x is an orthomorphism, as x -> x/u_i carries
(u_i S, u_j S) onto (S, (u_j/u_i) S).  O is closed under u -> p*u, p
the characteristic, as x -> p*x is the Frobenius collineation
z -> z^p; and under u -> 1/u, as the relation is symmetric.  So
``is_multiplier_orthomorphism``, the gather for w = x -> u*x, decides
O once per orbit {u*p^i, u^-1*p^i}: the geometry keeps an int8 memo of
N entries (0 undecided, 1 in O, -1 not), made on first use with the
powers of p, and a gather marks its whole orbit in one write.  O
depends only on the geometry's standard lines, fixed when it is made,
so the memo cannot go stale.  Every consumer of O goes through it: the
ratios are marked in one boolean array of N entries and each is
queried, 39 gathers for the 77 ratios of the 78-space PG(6,3) power
chain; ``orthokit.explore``'s scans, chains and cliques query their
exponents and ratios the same way.  A ratio of 1, a repeated
multiplier, is not in O.  Any other such family, and one that fails,
sorts the keys through 0 of all its spaces together.  A family past
_FAMILY_KEYS reads every space's form once and takes each pair of two
spaces with a form through the gather.  The key index,
``_least_shared_triple`` on a pair's keys through 0, is the gather's
oracle.

Askew pairs run off one batched rank.  A line is in general position in
the other space when every min(|line|, dim+1)-subset of its preimages,
as homogeneous coordinates (affine points as (1, x)), has full rank
over GF(q); all subsets of a chunk of lines go through one numpy
Gaussian elimination on the field's tables.  The group reduction holds
here too: when w = t^-1 . s has a form, the preimages in t of a line
of s are the w-image of a standard line, a group shift of the image of
a line through 0, and a shift is a collineation, which keeps every
rank; w^-1 has a form as well.  So in either direction only the images
of the standard lines through 0 are tested, and a failing pair needs
no more: those lines are the first rows of ``lines()``, and a failing
line's shift through 0 fails too, so the first failing line through 0
is the first failing line of all.  On PG, with w's multiplier u, the
second direction (lines of t in s) is the first with u replaced by
1/u, and x -> p*x, the Frobenius collineation, keeps the lines and
every rank; so when 1/u is in u*<p> mod N, that is u^2 in <p>, the
second direction is skipped.  Every inversion pair, u = -1, qualifies.
The witness stays exact: a failing first direction returns before the
second.  Any other pair scans every line in ``lines()`` order.  Either
way the witness is the first failing line, first space before second,
as in the per-line oracle ``naive_askew_pair``.

All predicates are pure and deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch, OddDimension
from .geom import PROJECTIVE, Geometry

_TRIPLE_CACHE_LIMIT = 2_000_000
# matrix entries per working array of the askew decider
_ASKEW_CHUNK = 1 << 20
# block ids per working array of the block-pair scan, point-pair ids per
# working array of the pair decider, and ratios per block of the ratio path
_OVERLAP_CHUNK = 1 << 20
# packed keys (8 bytes each) a k=2 family's triple index may hold; past
# it, the family is decided pair by pair
_FAMILY_KEYS = 1 << 27


_UNREAD = object()  # a map's form before its one read


class Space:
    """A geometry together with a point bijection from the standard space,
    given by its map, or on a projective geometry by its form (u, c):
    x -> u*x + c (mod N) on the Singer labels.  A form space makes its
    permutation only when a path that enumerates lines first asks for
    ``perm``; the group-reduced paths read ``form`` alone.  Spaces compare
    by identity: the map is an array."""

    def __init__(self, geometry: Geometry, perm=None, name: str = "",
                 form=_UNREAD):
        self.geometry = geometry
        self.name = name
        self._perm = perm
        self._form = form
        self._triples = None
        self.__post_init__()

    def __post_init__(self):
        # the one check, bundle reads included.  A map, in O(n): integers
        # only (a float or bool map is refused, not rounded), n of them in
        # 0..n-1, each hit once; kept as a private read-only int64 copy,
        # so the cached triples cannot go stale.  A form (u, c): integers,
        # u a unit mod N, 0 <= c < N, on a projective geometry
        g = self.geometry
        n = g.point_count
        if self._perm is None and self._form is not _UNREAD:
            u, c = self._form
            if not (g.kind == PROJECTIVE and _is_int(u) and _is_int(c)
                    and 0 <= c < n and math.gcd(int(u), n) == 1):
                raise ValueError(
                    f"form ({u!r}, {c!r}) is not x -> u*x + c with u a unit "
                    f"mod N and 0 <= c < N on a projective geometry")
            self._form = (int(u) % n, int(c))
            return
        perm = np.array(self._perm)
        ok = (perm.dtype.kind in ("i", "u") and perm.shape == (n,)
              and perm.min() >= 0 and perm.max() < n)
        if ok:
            hit = np.zeros(n, dtype=bool)
            hit[perm] = True
            ok = np.count_nonzero(hit) == n
        if not ok:
            raise ValueError("map is not a permutation of the point indices")
        self._perm = perm.astype(np.int64, copy=False)
        self._perm.flags.writeable = False

    def __repr__(self):
        return f"Space({self.geometry!r}, name={self.name!r})"

    @property
    def perm(self) -> np.ndarray:
        """The map as a read-only int64 array, made from the form on first
        use."""
        if self._perm is None:
            u, c = self._form
            n = self.geometry.point_count
            perm = np.arange(c, c + n * u, u, dtype=np.int64)
            perm %= n
            perm.flags.writeable = False
            self._perm = perm
        return self._perm

    @property
    def form(self):
        """(u, c) when the space is x -> u*x + c (mod N) on the Singer labels
        of a projective geometry, the offset c when it is x -> A(x) + c on
        an affine one (see the module docstring), else None: the
        builder's form, or the map's, read once and kept."""
        if self._form is _UNREAD:
            g = self.geometry
            if g.kind == PROJECTIVE:
                u = _singer_multiplier(self._perm, g)
                self._form = None if u is None else (u, int(self._perm[0]))
            else:
                self._form = _translation_offset(self._perm, g)
        return self._form

    def image(self, x) -> np.ndarray:
        """The map at the points x, from the form while no permutation is
        made: x -> u*x + c."""
        if self._perm is not None:
            return self._perm[x]
        u, c = self._form
        y = np.multiply(x, u, dtype=np.int64)
        y += c
        y %= self.geometry.point_count
        return y

    def preimage(self, x) -> np.ndarray:
        """The inverse map at the points x, from the form while no
        permutation is made: x -> (x - c)/u."""
        if self._perm is not None:
            return self.inverse()[x]
        u, c = self._form
        n = self.geometry.point_count
        y = np.subtract(x, c, dtype=np.int64)
        y *= pow(u, -1, n)
        y %= n
        return y

    @property
    def is_standard(self) -> bool:
        if self._perm is None:
            return self._form == (1, 0)
        return bool(np.array_equal(self._perm, np.arange(len(self._perm))))

    def inverse(self) -> np.ndarray:
        n = self.geometry.point_count
        if self._perm is None:
            return self.preimage(np.arange(n))
        inv = np.empty_like(self._perm)
        inv[self._perm] = np.arange(n)
        return inv

    def lines(self) -> np.ndarray:
        """The images of the standard lines, as sorted int32 rows."""
        out = self.perm.astype(np.int32)[self.geometry.lines()]
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


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def standard(g: Geometry, name: str = "standard") -> Space:
    g._check_cap()  # before a map over every point, made now or on first use
    if g.kind == PROJECTIVE:
        return from_form(g, 1, 0, name=name)
    return Space(g, np.arange(g.point_count), name=name)


def from_map(g: Geometry, perm, name: str = "") -> Space:
    return Space(g, perm, name=name)


def from_form(g: Geometry, u: int, c: int = 0, name: str = "") -> Space:
    """The space x -> u*x + c (mod N) on the Singer labels of a projective
    g, u a unit mod N and 0 <= c < N, with no permutation made."""
    return Space(g, None, name=name, form=(u, c))


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
    points a<b, is the row of the line through a and b: int16 when the
    rows fit, so the table and the ids gathered from it are half as
    large.  Entries with a>=b are never written."""
    lines = space.lines()
    n = space.geometry.point_count
    dtype = np.int16 if len(lines) <= np.iinfo(np.int16).max else np.int32
    table = np.empty(n * n, dtype=dtype)
    rows = np.arange(len(lines), dtype=dtype)
    for i in range(lines.shape[1] - 1):
        table[lines[:, i, None] * n + lines[:, i + 1:]] = rows[:, None]
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


def _group(g: Geometry) -> tuple[int, int]:
    """(M, m): the regular group keeping the standard lines of g is
    (Z/M)^m on the base-M digits of the point index, the Singer cycle
    (N, 1) on a projective g and the translations (p, dim*n) on an
    affine one."""
    if g.kind == PROJECTIVE:
        return g.point_count, 1
    return g.field.p, g.dim * g.field.n


def _shift(x, y, g: Geometry, sign: int = 1):
    """x + sign*y in the group of g (``_group``): mod N on a projective
    g, digit by digit mod p on an affine one."""
    mod, m = _group(g)
    if m == 1:
        return (x + sign * y) % mod
    return (_digits(x, mod, m) + sign * _digits(y, mod, m)) % mod @ (
        mod ** np.arange(m))


def _digits(x, p: int, m: int) -> np.ndarray:
    """The m base-p digits of each entry of x, least significant first,
    along a new last axis: the F_p coordinates of affine points."""
    return np.asarray(x)[..., None] // p ** np.arange(m) % p


def _singer_multiplier(perm: np.ndarray, g: Geometry):
    """u if perm is x -> u*x + c (mod N) on the Singer labels of a
    projective g, else None."""
    n = len(perm)
    u = (int(perm[1]) - int(perm[0])) % n
    if (int(perm[2]) - int(perm[1])) % n != u:
        return None  # most other maps are refused at once
    # such a map steps by u mod N from each label to the next: the
    # difference is u, or u - N where it wraps
    step = perm[1:] - perm[:-1]
    if np.logical_or(step == u, step == u - n).all():
        return u
    return None


def _translation_offset(perm: np.ndarray, g: Geometry):
    """c if perm is x -> A(x) + c on an affine g, A additive over F_p on
    the base-p digits of the point index, else None.  A is read off the
    images of the basis points p^i, and the map it predicts is compared
    with the permutation in one pass."""
    p, m = _group(g)
    if m > 1:
        # most other maps are refused at once: digit by digit, the image
        # of 1 + p must be pi(1) + pi(p) - pi(0)
        z, x, y, xy = (int(perm[i]) for i in (0, 1, p, 1 + p))
        for _ in range(m):
            if (x + y - z - xy) % p:
                return None
            z, x, y, xy = z // p, x // p, y // p, xy // p
    weights = p ** np.arange(m)
    c, *images = _digits(perm[np.append(0, weights)], p, m)
    a = (np.array(images) - c) % p
    predicted = (_digits(np.arange(len(perm)), p, m) @ a + c) % p
    if np.array_equal(predicted @ weights, perm):
        return int(perm[0])
    return None


def _form(perm: np.ndarray, g: Geometry):
    """The form of a map x -> A(x) + c of g (see the module docstring):
    the multiplier u of x -> u*x + c on a projective g, the offset c on
    an affine one; None for a map of no form."""
    if g.kind == PROJECTIVE:
        return _singer_multiplier(perm, g)
    return _translation_offset(perm, g)


def _w_form(s: Space, t: Space, g: Geometry):
    """(``_form`` of w = t^-1 . s, w's map or None).  When both spaces of
    a projective g have a form, w is x -> (u_s/u_t)*x + (c_s - c_t)/u_t,
    and its multiplier, all that is kept, comes with no map made.  Else
    w's map is made and its form read."""
    if g.kind == PROJECTIVE and s.form is not None and t.form is not None:
        n = g.point_count
        return s.form[0] * pow(t.form[0], -1, n) % n, None
    w = t.inverse()[s.perm]
    return _form(w, g), w


def _linear_images(perm: np.ndarray, g: Geometry) -> np.ndarray:
    """perm[x] - perm[0] in the group of g at the nonzero points x of
    every standard line L through 0, one row per line: the nonzero points
    of A(L) for a map x -> A(x) + c."""
    return _shift(perm[g.lines_through_origin()[:, 1:]], perm[0], g, -1)


def _multiplier_images(g: Geometry, u: int) -> np.ndarray:
    """``_linear_images`` of x -> u*x + c on a projective g, from u alone:
    u*x mod N at the nonzero points x of every standard line through 0,
    read from one contiguous int64 copy of them kept on g."""
    if g._rest0 is None:
        rest = g.lines_through_origin()[:, 1:].astype(np.int64)
        rest.flags.writeable = False
        g._rest0 = rest
    n = g.point_count
    x = g._rest0 * (u % n)
    x -= x // n * n  # x mod N: numpy divides by a scalar faster than % does
    return x


def _origin_repeat(g: Geometry, images: np.ndarray, k: int) -> bool:
    """Whether some row of ``images`` holds k points of one standard line
    through 0, by a gather of ``origin_line_ids``."""
    ids = g.origin_line_ids()[images]
    if k == 2:
        # row i: for each row of images, the through-0 line of its i-th
        # point (rows contiguous, so compared fast)
        ids = ids.T.copy()
        return any(np.count_nonzero(ids[i] == ids[i + 1:])
                   for i in range(len(ids) - 1))
    ids.sort(axis=1)
    return bool((ids[:, k - 1:] == ids[:, :ids.shape[1] - k + 1]).any())


def _origin_keys(spaces: list[Space], g: Geometry) -> list[np.ndarray]:
    """Each space's packed keys, unsorted, of its colinear triples
    (0, a, b), for spaces that all have a form: their lines through 0
    are the rows of ``_linear_images``, from the multiplier alone on a
    projective g.  lo*N + hi is the triple's full-index key."""
    n = np.uint64(g.point_count)
    i, j = np.triu_indices(g.points_per_line - 1, 1)
    out = []
    for s in spaces:
        if g.kind == PROJECTIVE:
            rest = _multiplier_images(g, s.form[0])
        else:
            rest = _linear_images(s.perm, g)
        rest = rest.astype(np.uint64)
        a, b = rest[:, i], rest[:, j]
        out.append((np.minimum(a, b) * n + np.maximum(a, b)).ravel())
    return out


def _powers_of_p(g: Geometry) -> list[int]:
    """The subgroup <p> of the units mod N, p the characteristic, as
    1, p, p^2, ... mod N."""
    n, p = g.point_count, g.field.p
    powers = [1]
    while powers[-1] * p % n != 1:
        powers.append(powers[-1] * p % n)
    return powers


def _ratios_pass(g: Geometry, us) -> bool:
    """Whether every ratio u_j/u_i (i != j) of the multipliers ``us`` is
    in O, by ``is_multiplier_orthomorphism``: one gather per orbit of the
    ratios (see the module docstring).  A repeated multiplier gives the
    ratio 1, which is not in O."""
    n = g.point_count
    us = np.array(us, dtype=np.int64)
    inv = np.array([pow(int(u), -1, n) for u in us], dtype=np.int64)
    ratio = np.zeros(n, dtype=bool)
    step = max(1, _OVERLAP_CHUNK // len(us))
    for lo in range(0, len(us), step):
        block = inv[lo:lo + step, None] * us % n
        # u_i/u_i is no ratio: 0 marks it, and 0 is never a unit
        block[np.arange(len(block)), np.arange(lo, lo + len(block))] = 0
        ratio[block] = True
    ratio[0] = False
    return all(is_multiplier_orthomorphism(g, u)
               for u in np.flatnonzero(ratio).tolist())


def _least_reduced_triple(spaces: list[Space], g: Geometry):
    """``_least_shared_triple`` for a family whose every space has a form:
    None, with no key packed, when a pair's w = t^-1 . s passes the
    gather or a projective family's ratios pass; else from the keys
    through point 0."""
    if len(spaces) == 2:
        s, t = spaces
        if g.kind == PROJECTIVE:
            images = _multiplier_images(g, _w_form(s, t, g)[0])
        else:
            # w = t^-1 . s has a form, as both spaces do: it is not read
            images = _linear_images(t.inverse()[s.perm], g)
        if not _origin_repeat(g, images, 2):
            return None
    elif g.kind == PROJECTIVE and _ratios_pass(
            g, [s.form[0] for s in spaces]):
        return None
    return _least_shared_triple(spaces, g, _origin_keys(spaces, g))


def _line_of(space: Space, tri) -> tuple | None:
    """The line of ``space`` through the point triple, or None if the
    triple is not colinear in it: the standard line through the
    preimages a and b, the shift by a of the line through 0 and b - a,
    mapped back through the space.  A space built from its form maps the
    points by its form, with no N-sized array."""
    g = space.geometry
    a, b, c = space.preimage(list(tri)).tolist()
    through0 = g.origin_line_ids()[_shift(b, a, g, -1)]
    line = _shift(g.lines_through_origin()[through0], a, g)
    if c not in line.tolist():
        return None
    return tuple(sorted(space.image(line).tolist()))


def _check_same_geometry(spaces):
    g = spaces[0].geometry
    for s in spaces[1:]:
        if s.geometry is not g and not g.same_as(s.geometry):
            raise GeometryMismatch("spaces live on different geometries")
    return g


def _check_k(k: int):
    # lines meet in at least 0 points: a negative bound fails every pair
    # with no witness to show for it
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


def _first_overlap(s: Space, t: Space, blocks: np.ndarray, limit: int,
                   names: tuple) -> Verdict:
    """Intersect the images in s and t of every pair of standard blocks
    (rows of ``blocks``), s outer and t inner in row order.  The first
    pair sharing more than ``limit`` >= 0 points is the witness: ``names``
    map to the two blocks and their intersection, as sorted tuples.

    The point x of a block goes to s(x), which lies on t's image of the
    block j exactly when j passes through w(x), w = t^-1 . s.  So one
    row of the standard blocks through each point of a block's w-image,
    sorted, holds each t-block id as often as the two images share
    points (see the module docstring)."""
    count, size = blocks.shape
    if limit >= size:
        return Verdict(True)
    # every point lies on as many blocks: one stable sort by point gives
    # the ids of the blocks through each point as a row
    through = (np.argsort(blocks.ravel(), kind="stable") // size).astype(
        np.int32).reshape(len(s.perm), -1)
    w = t.inverse()[s.perm]
    width = size * through.shape[1]
    most = max(1, _OVERLAP_CHUNK // width)
    step, lo = min(4, most), 0
    while lo < count:
        ids = through[w[blocks[lo:lo + step]]].reshape(-1, width)
        ids.sort(axis=1)
        # an id seen more than limit times equals the one limit further on
        hit = ids[:, limit:] == ids[:, :width - limit]
        if hit.any():
            row, col = divmod(int(np.argmax(hit)), hit.shape[1])
            a = np.sort(s.perm[blocks[lo + row]]).tolist()
            b = np.sort(t.perm[blocks[ids[row, col]]]).tolist()
            return Verdict(False, dict(zip(names, (
                tuple(a), tuple(b), tuple(sorted(set(a) & set(b)))))))
        lo += step
        step = min(2 * step, most)
    return Verdict(True)


# ----------------------------------------------------------------------
# pair checks
# ----------------------------------------------------------------------

def is_k_orthogoval_pair(s: Space, t: Space, k: int = 2) -> Verdict:
    """Every line of s meets every line of t in at most k points."""
    g = _check_same_geometry([s, t])
    _check_k(k)
    if k >= g.points_per_line:
        return Verdict(True)
    if k <= 1:
        return naive_k_orthogoval_pair(s, t, k)
    form, w = _w_form(s, t, g)
    if form is not None:
        # the pair is k-orthogoval exactly when (standard, w) is, and w's
        # lines through 0 decide that (see the module docstring)
        images = (_multiplier_images(g, form) if w is None
                  else _linear_images(w, g))
        if not _origin_repeat(g, images, k):
            return Verdict(True)
        if k == 2 and s.form is not None:
            # t = s . w^-1 has a form too: the witness is through 0
            witness = _least_shared_triple([s, t], g, _origin_keys([s, t], g))
            return Verdict(False, {key: witness[key]
                                   for key in ("triple", "line_a", "line_b")})
    ls, table = _line_index(s)
    lt = t.lines()
    best = _least_hit(table, lt, k, g.point_count)
    if best is None:
        return Verdict(True)
    if k == 2:
        key, sid, row = best
        return Verdict(False, {"triple": unpack_triple(key, g.point_count),
                               "line_a": tuple(ls[sid].tolist()),
                               "line_b": tuple(lt[row].tolist())})
    sid, row = best
    a, b = ls[sid].tolist(), lt[row].tolist()
    return Verdict(False, {
        "line_a": tuple(a),
        "line_b": tuple(b),
        "intersection": tuple(sorted(set(a) & set(b))),
    })


def _least_hit(table, lt, k: int, n: int):
    """The least line pair of s and t (``table`` from :func:`_line_index`
    of s, ``lt`` the lines of t) sharing more than k points, or None: at
    k=2 as (packed least shared triple, s-line id, t-row), else as
    (s-line id, t-row).  The rows of ``lt`` go in chunks of at most
    _OVERLAP_CHUNK ids, each keeping its least candidate; both are global
    minima, so every chunk is scanned."""
    pairs = np.array(list(itertools.combinations(range(lt.shape[1]), 2)))
    # lines meeting in more than k points share more than C(k, 2) point
    # pairs, so some id equals the one C(k, 2) places further on
    r = k * (k - 1) // 2
    step = max(1, _OVERLAP_CHUNK // len(pairs))
    best = None
    for lo in range(0, len(lt), step):
        chunk = lt[lo:lo + step]
        ids = _pair_ids(table, chunk, n)
        ids.sort(axis=1)
        hit = ids[:, r:] == ids[:, :-r]
        if not hit.any():
            continue
        if k == 2:
            hit[:, 1:] &= ~hit[:, :-1]  # one hit per (line of t, line of s)
        rows, cols = np.nonzero(hit)
        sids = ids[rows, cols]
        if k == 2:
            # a hit starts a run of one line's id; sorted stably, the run's
            # point pairs keep their combinations order, so it starts with
            # (p0, p1), (p0, p2): the least triple the two lines share
            hit_rows, at = np.unique(rows, return_inverse=True)
            order = np.argsort(_pair_ids(table, chunk[hit_rows], n),
                               axis=1, kind="stable")
            pos = np.column_stack([pairs[order[at, cols]],
                                   pairs[order[at, cols + 1], 1]])
            # int64 before packing: n^3 overflows int32 from n = 1291
            tri = chunk[rows[:, None], pos].astype(np.int64)
            key = (tri[:, 0] * n + tri[:, 1]) * n + tri[:, 2]
            first = int(np.argmin(key))
            cand = (int(key[first]), int(sids[first]), lo + int(rows[first]))
        else:
            # the naive oracle's witness: least line of s, then least line
            # of t; nonzero lists hits row by row, so argmin takes both
            first = int(np.argmin(sids))
            cand = (int(sids[first]), lo + int(rows[first]))
        if best is None or cand < best:
            best = cand
    return best


def _pair_ids(table, lines, n: int) -> np.ndarray:
    """Per row of ``lines``, the line ids in ``table`` (see
    :func:`_line_index`) of its point pairs in combinations order.  The
    pairs (i, j > i) of one position i come in one gather, each row's
    from one row of the table."""
    b = lines.shape[1]
    ids = np.empty((len(lines), b * (b - 1) // 2), dtype=table.dtype)
    at = 0
    for i in range(b - 1):
        ids[:, at:at + b - 1 - i] = table[lines[:, i, None] * n + lines[:, i + 1:]]
        at += b - 1 - i
    return ids


def naive_k_orthogoval_pair(s: Space, t: Space, k: int) -> Verdict:
    """Oracle path: intersect every line pair directly."""
    g = _check_same_geometry([s, t])
    _check_k(k)
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
    _check_k(k)
    if k >= g.points_per_line:
        return Verdict(True)  # no two lines share more points than a line has
    if k == 2:
        if None not in [s.form for s in spaces]:
            witness = _least_reduced_triple(spaces, g)
        elif len(spaces) * g.line_count * _c3(
                g.points_per_line) > _FAMILY_KEYS:
            witness = _least_pairwise_triple(spaces)
        else:
            witness = _least_shared_triple(spaces, g, None)
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
    also their pair decider's witness.  ``keys`` is
    ``_origin_keys(spaces, g)``, each space's keys through point 0, or
    None for every space's full triple index.  All keys go into one
    buffer, sorted once, and its least duplicate is the triple.  Each
    space's keys are packed once: the owners come from :func:`_owners`."""
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
    return _owners(spaces, tri)


def _least_pairwise_triple(spaces: list[Space]):
    """``_least_shared_triple`` for a family whose triple index would not
    fit: the least of the pair deciders' k=2 witnesses, each the least
    triple its two spaces share, with its first two owners.  Space i's
    line index is built once for all j > i, and only one is alive at a
    time; a pair of two spaces with a form keeps the reduced path."""
    g = spaces[0].geometry
    n = g.point_count
    best = None
    for i, s in enumerate(spaces):
        table = None
        for j in range(i + 1, len(spaces)):
            t = spaces[j]
            if s.form is not None and t.form is not None:
                w = _least_reduced_triple([s, t], g)
                tri = None if w is None else w["triple"]
            else:
                if table is None:
                    table = _line_index(s)[1]
                hit = _least_hit(table, t.lines(), 2, n)
                tri = None if hit is None else unpack_triple(hit[0], n)
            if tri is not None and (best is None or tri < best):
                best = tri
    return None if best is None else _owners(spaces, best)


def _owners(spaces: list[Space], tri) -> dict:
    """The witness of a triple shared by the family: its first two owners,
    found by testing it against each space's lines directly."""
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


def is_multiplier_orthomorphism(g: Geometry, u: int) -> bool:
    """Whether x -> u*x (mod N) on the Singer labels of a projective g,
    u a unit mod N, is an orthomorphism: the verdict of
    ``is_orthomorphism`` with no witness, read off the lines through 0.
    The first query in an orbit {u*p^i, u^-1*p^i} runs the gather and
    marks the whole orbit in g's memo; any later one is a lookup (see
    the module docstring)."""
    n = g.point_count
    if math.gcd(u, n) != 1:
        raise ValueError(f"multiplier {u} is not a unit mod {n}")
    u = int(u) % n
    if g._multipliers is None:
        if g.kind != PROJECTIVE:
            # no Singer labels, and p^i mod q^d never comes back to 1
            raise ValueError(f"multipliers act on a projective geometry, "
                             f"not on {g!r}")
        # 0 undecided, 1 in O, -1 not; with <p> as a column
        powers = np.array(_powers_of_p(g), dtype=np.int64)[:, None]
        g._multipliers = np.zeros(n, dtype=np.int8), powers
    memo, powers = g._multipliers
    if not memo.item(u):
        orbit = powers * [u, pow(u, -1, n)] % n
        memo[orbit] = 1 if _multiplier_gather(g, u) else -1
    return memo.item(u) > 0


def _multiplier_gather(g: Geometry, u: int) -> bool:
    """``is_multiplier_orthomorphism`` with no memo, for u a unit mod N:
    one gather, which the memo runs once per orbit."""
    # u fails when two images of one line lie on one line through 0
    return not _origin_repeat(g, _multiplier_images(g, u), 2)


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
    form = _w_form(s, t, g)[0]
    directions = (("first", s, t), ("second", t, s))
    if form is not None and g.kind == PROJECTIVE:
        # w's multiplier u: when 1/u is in u*<p>, that is u^2 is in <p>,
        # the second direction decides what the first does
        n = g.point_count
        if form * form % n in _powers_of_p(g):
            directions = directions[:1]
    for line_of, src, other in directions:
        if form is not None:
            # the first rows of src.lines(), sorted as it sorts them
            rows = np.sort(src.image(g.lines_through_origin()), axis=1)
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
# permutations
# ----------------------------------------------------------------------

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
