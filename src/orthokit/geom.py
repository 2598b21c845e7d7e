"""Canonical models of AG(d, q) and PG(d, q).

Point indexing:
  * affine: base-q positional over the coordinate tuple, first coordinate
    most significant (so AG(3, F_3) point (a, b, c) gets index 9a+3b+c).
  * projective: Singer labelling.  Points are identified with nonzero
    elements of the extension field GF(q^{d+1}) modulo F_q-scalars; the
    index of a point is the discrete log of any of its labels reduced
    mod N = (q^{d+1}-1)/(q-1).

The label of a coordinate tuple (x_1 : ... : x_r) is sum_j x_j z^{b_j}
for a basis exponent list (b_1, ..., b_r).  Two built-in bases:
  * "phi":  (z^1, ..., z^r)
  * "desc": (z^{r-1}, ..., z^0)
Changing basis relabels coordinates by a collineation; the index set,
the line set and every incidence property are basis-independent.
Coordinates come from this forward map alone: the F_p digits of every
normalised vector (first nonzero coordinate 1), times one F_p matrix,
are the digits of its label, and the log of the label mod N is its
index.  Exponents that give no basis of GF(q^r) over GF(q) are refused.
Ranks and spans are taken on one array of homogeneous coordinates: a
projective point's normalised vector, and an affine point x as (1, x).

Flats of every dimension 0 <= j <= d, all but projective lines, are
enumerated from reduced row-echelon bases, each exactly once: an affine
j-flat is the row space W of a j x d echelon matrix plus a coset
representative that is zero on W's pivot columns, and a projective
j-flat is the set of normalised vectors in the row space of a
(j+1) x (d+1) echelon matrix, looked up in a table of q^(d+1) entries,
no more than MAX_LABELING_FIELD.  So flats(0) is the column of point
indices, and flats(d) the one row of all points.
Projective lines through point 0 come from one numpy pass over the
labelling field's log tables, and every other line is one of their
Singer shifts x -> x + m that does not wrap past N, with least point m.
Affine lines through 0 are the multiples {c v} of the normalised
directions v, from the base field's log tables with no line enumerated;
they are the first rows of lines().  On either kind a table of one
entry per point names the line through 0 of each point.
Echelon-built rows, each sorted, are put in lexicographic order by a
sort on their first |(j-1)-flat| + 1 points, which no two distinct
j-flats share.
Lines and flats are cached read-only int32 arrays (flats(1) is lines()),
and flats of more than MAX_FLAT_INCIDENCES points in all are refused.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import (
    BadDimension,
    EmptySet,
    EqualPoints,
)
from .gf import GF, field_create, prime_factors

AFFINE = "affine"
PROJECTIVE = "projective"

MAX_POINTS = 10_000
# a projective space's labelling field GF(q^(dim+1)) holds at most this
# many elements; under the point cap only PG(1, q > 1024) exceeds it
MAX_LABELING_FIELD = 1 << 20
# flats() refuses arrays with more points in all: a half-dimension scan
# of a passing pair gathers about incidences^2 / points block ids, at some
# 6 ns each (3.2 s over the 629,486 of PG(4,5)'s planes), so deciding
# near the cap would take minutes
MAX_FLAT_INCIDENCES = 1 << 22
# coordinates per working array when flats are built from echelon bases
_ECHELON_CHUNK = 1 << 18


def _basis_exponents(basis, r: int) -> tuple[int, ...]:
    if basis == "phi":
        return tuple(range(1, r + 1))
    if basis == "desc":
        return tuple(range(r - 1, -1, -1))
    return tuple(basis)


class Geometry:
    """Descriptor of a standard AG(d, q) or PG(d, q)."""

    def __init__(self, kind: str, dim: int, q: int = None, field: GF = None,
                 labeling_modulus=None, basis="phi"):
        if kind not in (AFFINE, PROJECTIVE):
            raise ValueError(f"kind must be affine or projective, got {kind!r}")
        if dim < 1:
            raise BadDimension(f"dimension must be >= 1, got {dim}")
        if field is None:
            if q is None:
                raise ValueError("need q or an explicit base field")
            if q > MAX_POINTS:
                # every geometry over GF(q) has at least q points: refuse
                # before the field's tables are built
                raise BadDimension(
                    f"q = {_shown(q)} exceeds the enumeration cap of "
                    f"{MAX_POINTS} points")
            p, e = _split_prime_power(q)
            field = field_create(p, e)
        self.kind = kind
        self.dim = dim
        self.field = field
        self.q = field.order
        self._labeling_modulus = tuple(labeling_modulus) if labeling_modulus else None
        self.basis = _basis_exponents(basis, dim + 1) if kind == PROJECTIVE else None
        self._ext = None
        self._embed = None
        self._coords = None
        self._homogeneous = None
        self._index_of = None
        self._lines = None
        self._lines0 = None
        self._origin_ids = None
        # kept by orthokit.check for the multiplier decider: the nonzero
        # points of the lines through 0 as one contiguous int64 array, and
        # the memo of O with the powers of p (see check's module docstring)
        self._rest0 = None
        self._multipliers = None
        self._flats = {}

    # -- counting -------------------------------------------------------

    @property
    def point_count(self) -> int:
        q, d = self.q, self.dim
        if self.kind == AFFINE:
            return q ** d
        return (q ** (d + 1) - 1) // (q - 1)

    @property
    def points_per_line(self) -> int:
        return self.q if self.kind == AFFINE else self.q + 1

    @property
    def line_count(self) -> int:
        n, b = self.point_count, self.points_per_line
        return (n * (n - 1)) // (b * (b - 1))

    # -- labelling field and coordinates --------------------------------

    @property
    def labeling_field(self) -> GF:
        """Extension field GF(q^{dim+1}) carrying the Singer labels."""
        if self.kind != PROJECTIVE:
            raise BadDimension("labeling field is a projective-only notion")
        if self._ext is None:
            # the field has q^(dim+1) elements: refuse before building it
            self._check_cap()
            p, e = self.field.p, self.field.n
            self._ext = field_create(p, e * (self.dim + 1), self._labeling_modulus)
            self._embed = _embedding(self.field, self._ext)
        return self._ext

    def embed(self, small_code: int) -> int:
        self.labeling_field
        return self._embed[small_code]

    def _basis_matrix(self) -> np.ndarray:
        """The label map over F_p: row (j, i) holds the F_p digits of
        root^i z^{b_j}, root the embedded generator of GF(q) over F_p, so
        the F_p digits of a vector x times this matrix are the digits of
        its label sum_j x_j z^{b_j}.  Raises ValueError when the basis
        exponents do not give a basis."""
        ext = self.labeling_field
        p, e = self.field.p, self.field.n
        rows = [ext._digits(ext.mul(self.embed(p ** i), ext.antilog(b)))
                for b in self.basis for i in range(e)]
        if _gf_rank(rows, field_create(p, 1)) < len(rows):
            raise ValueError(
                f"basis exponents {list(self.basis)} do not give a basis "
                f"of GF({ext.order}) over GF({self.q})")
        return np.array(rows, dtype=np.int64)

    # -- points ---------------------------------------------------------

    def _check_cap(self):
        # counting is closed-form at any size; enumeration is capped
        if self.point_count > MAX_POINTS:
            raise BadDimension(
                f"geometry has {_shown(self.point_count)} points; "
                f"enumeration cap is {MAX_POINTS}")
        labels = self.q ** (self.dim + 1)
        if self.kind == PROJECTIVE and labels > MAX_LABELING_FIELD:
            raise BadDimension(
                f"labeling field has {_shown(labels)} elements; "
                f"enumeration cap is {MAX_LABELING_FIELD}")

    def points(self) -> tuple[tuple[int, ...], ...]:
        """Coordinate tuples in canonical index order, as the cached
        tuple itself, so no caller can reorder it.  Projective points
        are the normalised vectors, placed by the label map of
        :meth:`_basis_matrix`."""
        if self._coords is None:
            self._check_cap()
            if self.kind == AFFINE:
                coords = list(itertools.product(range(self.q), repeat=self.dim))
            else:
                ext, p, e = self.labeling_field, self.field.p, self.field.n
                vecs = np.array(list(
                    _normalized_directions(self.field, self.dim + 1)))
                digits = (vecs[:, :, None] // p ** np.arange(e) % p).reshape(
                    len(vecs), -1) @ self._basis_matrix() % p
                labels = digits @ p ** np.arange(digits.shape[1])
                N = self.point_count
                order = np.argsort(ext.log_array[labels] % N)
                coords = list(map(tuple, vecs[order].tolist()))
            self._coords = tuple(coords)
            self._index_of = {c: i for i, c in enumerate(coords)}
        return self._coords

    def homogeneous(self) -> np.ndarray:
        """Homogeneous coordinates of every point, one row per point
        index: a projective point's normalised vector, an affine point x
        as (1, x).  Built once, read-only, in the least unsigned type
        that holds a field code."""
        if self._homogeneous is None:
            coords = np.array(self.points(), dtype=np.min_scalar_type(self.q - 1))
            if self.kind == AFFINE:
                coords = np.hstack([np.ones((len(coords), 1), coords.dtype), coords])
            coords.flags.writeable = False
            self._homogeneous = coords
        return self._homogeneous

    def point_index(self, coords) -> int:
        self.points()
        if self.kind == AFFINE:
            return self._index_of[tuple(coords)]
        x = tuple(coords)
        for v in x:
            if v:
                s = self.field.inv(v)
                x = tuple(self.field.mul(v2, s) for v2 in x)
                break
        return self._index_of[x]

    # -- lines ----------------------------------------------------------

    def lines(self) -> np.ndarray:
        """All lines as an array of sorted point-index rows, lexsorted:
        affine lines from echelon bases as in :meth:`flats`, projective
        lines as the Singer shifts of :meth:`lines_through_origin` that
        do not wrap (:meth:`_projective_lines`)."""
        if self._lines is None:
            self._check_cap()
            if self.kind == AFFINE:
                self._lines = self._echelon_flats(1)
            else:
                self._lines = self._projective_lines()
            expect = self.line_count
            if len(self._lines) != expect:  # pragma: no cover
                raise ValueError(
                    f"line enumeration produced {len(self._lines)}, expected {expect}")
            self._lines.flags.writeable = False
        return self._lines

    def lines_through_origin(self) -> np.ndarray:
        """The lines through point 0, as sorted rows, one per line, in the
        order of their least nonzero point: the first rows of
        :meth:`lines`.  Built once, read-only, after the cap check.

        Projective: rows {0, j, log(1 + c z^j) mod N} over the nonzero
        scalars c, kept at their least nonzero point j.  The Singer cycle
        x -> x+1 carries them onto every other line.  One numpy pass over
        the labelling field's log tables: the nonzero scalars are the
        powers z^(N t), and adding 1 to a code steps only its z^0 digit
        mod p.

        Affine: rows {c v : c in F_q}, one per normalised direction v
        (first nonzero coordinate 1), which is the row's least nonzero
        point, in order of v's index.  The multiples c v come from the
        base field's log tables.  The translations carry them onto every
        other line."""
        if self._lines0 is None:
            self._check_cap()
            if self.kind == AFFINE:
                rows = self._affine_lines_through_origin()
            else:
                rows = self._projective_lines_through_origin()
            rows.sort(axis=1)
            self._lines0 = rows.astype(np.int32)
            self._lines0.flags.writeable = False
        return self._lines0

    def _projective_lines_through_origin(self) -> np.ndarray:
        ext = self.labeling_field
        N, p = self.point_count, ext.p
        j = np.arange(1, N)
        # c z^j for c = z^(N t): exponents stay below q^(dim+1) - 1
        cz = ext.antilog_array[np.arange(0, ext.order - 1, N)[:, None] + j]
        # 1 + c z^j is never 0, as c z^j = -1 would put z^j in GF(q)
        logs = ext.log_array[cz + np.where(cz % p == p - 1, 1 - p, 1)] % N
        keep = logs.min(axis=0) >= j
        return np.column_stack([np.zeros(keep.sum(), dtype=np.int64),
                                j[keep], logs[:, keep].T])

    def _affine_lines_through_origin(self) -> np.ndarray:
        q, d, f = self.q, self.dim, self.field
        # the directions with i coordinates after the leading 1 have the
        # indices q^i .. 2q^i - 1
        v = np.concatenate([q ** i + np.arange(q ** i) for i in range(d)])
        logs = f.log_array[_base_q_digits(v, q, d)].astype(np.int64)
        # coordinate x of c v, c = g^t, is g^(t + log x), or 0 where x is
        logs = logs[:, None, :]
        multiples = np.where(logs < 0, 0, f.antilog_array[
            (logs + np.arange(q - 1)[:, None]) % (q - 1)])
        rows = np.zeros((len(v), q), dtype=np.int64)
        rows[:, 1:] = _base_q_codes(multiples, q)
        return rows

    def origin_line_ids(self) -> np.ndarray:
        """Entry x, for every point x != 0, is the row of
        :meth:`lines_through_origin` holding x, affine or projective;
        entry 0, on every row, is -1.  Built once, read-only, after the
        cap check of :meth:`lines_through_origin`."""
        if self._origin_ids is None:
            rows = self.lines_through_origin()
            ids = np.full(self.point_count, -1, dtype=np.int32)
            ids[rows[:, 1:]] = np.arange(len(rows), dtype=np.int32)[:, None]
            ids.flags.writeable = False
            self._origin_ids = ids
        return self._origin_ids

    def _projective_lines(self) -> np.ndarray:
        """Every line as A_i + m, A the lines through 0, over the pairs
        with m + max(A_i) < N: a shift that does not wrap has least point
        m, so each line comes exactly once.  The rows of A start 0, j with
        j rising, so pairs in (m, i) order give the lines lexsorted."""
        N = self.point_count
        A = self.lines_through_origin()
        m, i = np.nonzero(np.arange(N)[:, None] < N - A[:, -1])
        out = A[i]
        out += m.astype(np.int32)[:, None]
        return out

    def line_through(self, a: int, b: int) -> tuple[int, ...]:
        if a == b:
            raise EqualPoints(f"line through equal points {a}")
        base = self.field
        if self.kind == AFFINE:
            pa, pb = self.points()[a], self.points()[b]
            u = tuple(base.sub(x, y) for x, y in zip(pb, pa))
            out = []
            for t in range(self.q):
                tp = tuple(base.add(pc, base.mul(t, uc)) for pc, uc in zip(pa, u))
                out.append(self._index_of[tp])
            return tuple(sorted(out))
        ext = self.labeling_field
        N = self.point_count
        la, lb = ext.antilog(a % N), ext.antilog(b % N)
        members = {a % N, b % N}
        for c in range(1, base.order):
            members.add(ext.log(ext.add(la, ext.mul(self.embed(c), lb))) % N)
        return tuple(sorted(members))

    # -- rank and flats --------------------------------------------------

    def rank_of(self, point_set) -> int:
        """Rank over GF(q) of the points' homogeneous coordinates: one
        more than the dimension of the flat they span."""
        pts = sorted(set(point_set))
        if not pts:
            raise EmptySet("rank of empty point set")
        return _gf_rank(self.homogeneous()[pts].tolist(), self.field)

    def span(self, point_set) -> tuple[int, ...]:
        """All points of the flat spanned by the given points: the
        normalised vectors of the row space of their homogeneous
        coordinates, for an affine space those with a nonzero first
        entry, (1, x) for the point x."""
        pts = sorted(set(point_set))
        if not pts:
            raise EmptySet("span of empty point set")
        base = self.field
        affine_ = self.kind == AFFINE
        basis = _gf_row_basis(self.homogeneous()[pts].tolist(), base)
        out = []
        # over an echelon basis the normalised combinations give the
        # normalised vectors, each once; for an affine space only the
        # first row has a nonzero first entry, so combo[0] is vec[0]
        for combo in _normalized_directions(base, len(basis)):
            if affine_ and not combo[0]:
                continue  # a point at infinity
            vec = [0] * len(basis[0])
            for c, bv in zip(combo, basis):
                if c:
                    vec = [base.add(x, base.mul(c, y)) for x, y in zip(vec, bv)]
            out.append(self._index_of[tuple(vec[1:] if affine_ else vec)])
        return tuple(sorted(out))

    def _flat_shape(self, j: int) -> tuple[int, int]:
        """Number of j-flats and number of points on each."""
        q, d = self.q, self.dim
        if self.kind == AFFINE:
            return q ** (d - j) * _gaussian_binomial(d, j, q), q ** j
        return (_gaussian_binomial(d + 1, j + 1, q),
                (q ** (j + 1) - 1) // (q - 1))

    def flats(self, j: int) -> np.ndarray:
        """All j-dimensional flats as sorted point rows, lexsorted, in a
        cached read-only int32 array: ``flats(1)`` is :meth:`lines`, and
        for every other j each flat comes from exactly one reduced
        row-echelon basis (see the module docstring).  Raises BadDimension
        when the flats hold more than MAX_FLAT_INCIDENCES points in all."""
        if j < 0 or j > self.dim:
            raise BadDimension(f"flat dimension {j} out of range 0..{self.dim}")
        if j not in self._flats:
            count, size = self._flat_shape(j)
            if count * size > MAX_FLAT_INCIDENCES:
                raise BadDimension(
                    f"{count} {j}-flats of {size} points exceed the flat "
                    f"enumeration cap of {MAX_FLAT_INCIDENCES} incidences")
            rows = self.lines() if j == 1 else self._echelon_flats(j)
            rows.flags.writeable = False
            self._flats[j] = rows
        return self._flats[j]

    def _echelon_flats(self, j: int) -> np.ndarray:
        """Sorted point rows of every j-flat, 0 <= j <= dim, lexsorted.

        Per pivot set, every filling of the entries right of the pivots
        gives one echelon basis.  Affine: its row space W is the q^j
        coefficient combinations, shifted by the q^(d-j) vectors that are
        zero on the pivots; a point's index is its base-q code.
        Projective: the normalised coefficient vectors give normalised
        points, mapped to Singer indices by one table over base-q codes.
        Fillings are taken in chunks of about _ECHELON_CHUNK coordinates,
        so working memory stays small beside the result.  The sorted rows
        are lexsorted on their first |(j-1)-flat| + 1 points only: two
        distinct j-flats share at most a (j-1)-flat, so no two rows agree
        that far, and the short key gives the order of the full one."""
        self._check_cap()
        q, affine_ = self.q, self.kind == AFFINE
        r, n = (j, self.dim) if affine_ else (j + 1, self.dim + 1)
        add, mul, _, _ = self.field.tables()
        if affine_:
            coeffs = _all_vectors(q, r)
        else:
            coeffs = np.array(list(_normalized_directions(self.field, r)))
            lookup = np.zeros(q ** n, dtype=np.int32)
            lookup[_base_q_codes(self.homogeneous(), q)] = np.arange(
                self.point_count)
        coeffs = coeffs.astype(add.dtype)
        count, size = self._flat_shape(j)
        out = np.empty((count, size), dtype=np.int32)
        at = 0
        for piv in itertools.combinations(range(n), r):
            free = [(i, c) for i, p in enumerate(piv)
                    for c in range(p + 1, n) if c not in piv]
            rest = [c for c in range(n) if c not in piv]
            shifts = np.zeros((q ** len(rest) if affine_ else 1, n), add.dtype)
            if affine_:
                shifts[:, rest] = _all_vectors(q, len(rest))
            rows, cols = zip(*free) if free else ((), ())
            fillings = q ** len(free)
            step = max(1, _ECHELON_CHUNK // (len(shifts) * size * n))
            for lo in range(0, fillings, step):
                codes = np.arange(lo, min(lo + step, fillings), dtype=np.int64)
                basis = np.zeros((len(codes), r, n), add.dtype)
                basis[:, range(r), piv] = 1
                basis[:, rows, cols] = _base_q_digits(codes, q, len(free))
                pts = np.zeros((len(codes), size, n), add.dtype)
                for i in range(r):
                    pts = add[pts, mul[coeffs[None, :, i, None], basis[:, None, i, :]]]
                if affine_:
                    pts = add[pts[:, None], shifts[None, :, None]]
                    block = _base_q_codes(pts, q).reshape(-1, size)
                else:
                    block = lookup[_base_q_codes(pts, q)]
                out[at:at + len(block)] = block
                at += len(block)
        if at != count:  # pragma: no cover
            raise ValueError(
                f"{j}-flat enumeration produced {at}, expected {count}")
        out.sort(axis=1)
        width = 1 if j == 0 else self._flat_shape(j - 1)[1] + 1
        return out[np.lexsort(out[:, :width].T[::-1])]

    # -- identity --------------------------------------------------------

    def describe(self) -> dict:
        out = {"kind": self.kind, "dim": self.dim, "field": self.field.describe()}
        if self.kind == PROJECTIVE:
            out["basis"] = list(self.basis)
            out["labeling"] = self.labeling_field.describe()
        return out

    def same_as(self, other: "Geometry") -> bool:
        return (
            self.kind == other.kind
            and self.dim == other.dim
            and self.field == other.field
            and (self.kind == AFFINE
                 or (self.basis == other.basis
                     and self.labeling_field == other.labeling_field))
        )

    def __repr__(self):
        name = "AG" if self.kind == AFFINE else "PG"
        return f"{name}({self.dim}, F_{self.q})"


def affine(dim: int, q: int) -> Geometry:
    return Geometry(AFFINE, dim, q=q)


def projective(dim: int, q: int, labeling_modulus=None, basis="phi") -> Geometry:
    return Geometry(PROJECTIVE, dim, q=q, labeling_modulus=labeling_modulus,
                    basis=basis)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _shown(x: int) -> str:
    """x in decimal for a message, or its size when it is too long to
    print (str() refuses ints of more than 4,300 digits)."""
    return str(x) if x.bit_length() <= 64 else f"about 2^{x.bit_length() - 1}"


def _split_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e, p the only prime factor of q."""
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, e = factors[0], 1
    while p ** e < q:
        e += 1
    return p, e


@lru_cache(maxsize=None)
def _embedding(base: GF, ext: GF) -> tuple[int, ...]:
    """Codes in ``ext`` of the elements of ``base``: the residue of x in
    the base field goes to the least root of the base modulus in the
    extension, extended F_p-linearly.  Cached per field pair; a GF is
    immutable and hashed by p, n and its modulus."""
    p = base.p
    # the roots of the modulus lie in the copy of GF(q) in ext: 0 and
    # the powers z^(N i).  Only a degree-1 modulus x has the root 0.
    step = (ext.order - 1) // (base.order - 1)
    root = None
    for t in sorted([0, *ext.antilog_array[::step].tolist()]):
        acc = 0
        for c in reversed(base.modulus):
            acc = ext.add(ext.mul(acc, t), c % p)
        if acc == 0:
            root = t
            break
    if root is None:  # pragma: no cover
        raise ValueError("base modulus has no root in the extension")
    table = []
    for code in range(base.order):
        acc, tp = 0, 1
        for c in base._digits(code):
            acc = ext.add(acc, ext.mul(c, tp))
            tp = ext.mul(tp, root)
        table.append(acc)
    return tuple(table)


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _base_q_digits(codes: np.ndarray, q: int, m: int) -> np.ndarray:
    """The m base-q digits of each code as a row, most significant first."""
    return codes[:, None] // q ** np.arange(m - 1, -1, -1, dtype=np.int64) % q


def _base_q_codes(vectors: np.ndarray, q: int) -> np.ndarray:
    """Base-q code of each vector along the last axis, first coordinate
    most significant, built one coordinate at a time."""
    code = np.zeros(vectors.shape[:-1], dtype=np.int32)
    for c in range(vectors.shape[-1]):
        code = code * q + vectors[..., c]
    return code


def _all_vectors(q: int, m: int) -> np.ndarray:
    """The q^m vectors of {0..q-1}^m as rows, in lexicographic order."""
    return _base_q_digits(np.arange(q ** m, dtype=np.int64), q, m)


def _normalized_directions(field: GF, d: int):
    """Nonzero vectors of F_q^d with first nonzero coordinate 1."""
    q = field.order
    for lead in range(d):
        for tail in itertools.product(range(q), repeat=d - lead - 1):
            yield (0,) * lead + (1,) + tail


def _gf_row_basis(rows, field: GF):
    """A basis over GF(q) of the row space, in row-echelon form: each
    row's first nonzero entry is 1, in columns rising down the rows."""
    basis = {}  # first nonzero column -> row
    for row in rows:
        for pc, bv in basis.items():
            c = field.neg(row[pc])
            if c:
                row = [field.add(x, field.mul(c, y)) for x, y in zip(row, bv)]
        pc = next((i for i, x in enumerate(row) if x), None)
        if pc is not None:
            s = field.inv(row[pc])
            basis[pc] = [field.mul(s, x) for x in row]
    return [basis[pc] for pc in sorted(basis)]


def _gf_rank(rows, field: GF) -> int:
    return len(_gf_row_basis(rows, field))

