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
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    BadDimension,
    EmptySet,
    EqualPoints,
)
from .gf import GF, FieldElement, field_create

AFFINE = "affine"
PROJECTIVE = "projective"

MAX_POINTS = 10_000


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
        self._index_of = None
        self._lines = None
        self._lines0 = None
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
            p, e = self.field.p, self.field.n
            self._ext = field_create(p, e * (self.dim + 1), self._labeling_modulus)
            self._build_embedding()
        return self._ext

    def _build_embedding(self):
        """Embed the base field into the labelling field.

        The embedding sends the residue of x in GF(q) to the least root
        of the base modulus in the extension, extended F_p-linearly.
        """
        base, ext = self.field, self._ext
        p, e = base.p, base.n
        if e == 1:
            root = None
            table = list(range(p))
        else:
            root = None
            for t in range(ext.order):
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
                digs = base._digits(code)
                acc, tp = 0, 1
                for c in digs:
                    acc = ext.add(acc, ext.mul(c, tp))
                    tp = ext.mul(tp, root)
                table.append(acc)
        self._embed = table
        self._unembed = {big: small for small, big in enumerate(table)}

    def embed(self, small_code: int) -> int:
        self.labeling_field
        return self._embed[small_code]

    def _label_digits_to_coords(self) -> np.ndarray:
        """Inverse over F_p of the basis matrix, whose columns are the
        F_p digits of root^i z^{b_j}: it maps the digits of a label to
        the F_p digits of its coordinates.  Raises ValueError ("singular
        matrix mod p") when the basis exponents do not give a basis."""
        ext = self.labeling_field
        p, e, r = self.field.p, self.field.n, self.dim + 1
        basis_elems = [ext.antilog(b) for b in self.basis]
        # powers of the embedding root, for assembling small digits
        root_pows = [1]
        if e > 1:
            root = self._embed[p]  # embed of x
            for _ in range(e - 1):
                root_pows.append(ext.mul(root_pows[-1], root))
        cols = []
        for j in range(r):
            for i in range(e):
                u = ext.mul(root_pows[i], basis_elems[j])
                cols.append(ext._digits(u))
        A = np.array(cols, dtype=np.int64).T % p  # m x m
        return _mat_inv_mod_p(A, p)

    def _build_coords(self):
        """Coordinates of every projective point, normalized."""
        ext = self.labeling_field
        base = self.field
        p, e, r = base.p, base.n, self.dim + 1
        Ainv = self._label_digits_to_coords()
        N = self.point_count
        labels = np.array([ext._digits(ext.antilog_table[i]) for i in range(N)],
                          dtype=np.int64)
        Y = (labels @ Ainv.T) % p  # N x m, F_p coords per (j, i)
        coords = []
        index_of = {}
        pmul = [p ** i for i in range(e)]
        for idx in range(N):
            x = []
            for j in range(r):
                cval = 0
                for i in range(e):
                    cval += int(Y[idx, j * e + i]) * pmul[i]
                x.append(cval)
            # normalize: first nonzero coordinate becomes 1
            for v in x:
                if v:
                    s = base.inv(v)
                    x = tuple(base.mul(v2, s) for v2 in x)
                    break
            coords.append(x)
            index_of[x] = idx
        if len(index_of) != N:  # pragma: no cover
            raise ValueError("labelling is not a bijection on points")
        self._coords = coords
        self._index_of = index_of

    # -- points ---------------------------------------------------------

    def _check_cap(self):
        # counting is closed-form at any size; enumeration is capped
        if self.point_count > MAX_POINTS:
            raise BadDimension(
                f"geometry has {self.point_count} points; "
                f"enumeration cap is {MAX_POINTS}")

    def points(self) -> list[tuple[int, ...]]:
        """Coordinate tuples in canonical index order."""
        if self._coords is None:
            self._check_cap()
            if self.kind == AFFINE:
                q, d = self.q, self.dim
                coords = list(itertools.product(range(q), repeat=d))
                self._coords = coords
                self._index_of = {c: i for i, c in enumerate(coords)}
            else:
                self._build_coords()
        return self._coords

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

    def singer_label(self, idx: int) -> FieldElement:
        """Label of the normalized representative of a projective point."""
        ext = self.labeling_field
        x = self.points()[idx]
        acc = 0
        for xj, b in zip(x, self.basis):
            acc = ext.add(acc, ext.mul(self.embed(xj), ext.antilog(b)))
        return FieldElement(ext, acc)

    def label_to_point(self, label) -> int:
        ext = self.labeling_field
        code = label.code if isinstance(label, FieldElement) else int(label)
        return ext.log(code) % self.point_count

    # -- lines ----------------------------------------------------------

    def lines(self) -> np.ndarray:
        """All lines as an array of sorted point-index rows, lexsorted."""
        if self._lines is None:
            self._check_cap()
            if self.kind == AFFINE:
                self._lines = self._affine_lines()
            else:
                self._lines = self._projective_lines()
            expect = self.line_count
            if len(self._lines) != expect:  # pragma: no cover
                raise ValueError(
                    f"line enumeration produced {len(self._lines)}, expected {expect}")
        return self._lines

    def _affine_lines(self) -> np.ndarray:
        base, q, d = self.field, self.q, self.dim
        pts = self.points()
        rows = []
        for u in _normalized_directions(base, d):
            seen = bytearray(self.point_count)
            for i, pt in enumerate(pts):
                if seen[i]:
                    continue
                line = []
                for t in range(q):
                    tp = tuple(base.add(pc, base.mul(t, uc)) for pc, uc in zip(pt, u))
                    j = self._index_of[tp]
                    seen[j] = 1
                    line.append(j)
                rows.append(sorted(line))
        arr = np.array(rows, dtype=np.int32)
        return arr[np.lexsort(arr.T[::-1])]

    def lines_through_origin(self) -> np.ndarray:
        """The lines of a projective space through point 0, as sorted
        rows {0, j, log(1 + s z^j)} over the nonzero scalars s, one per
        line, in the order of their least nonzero point j.  The Singer
        cycle x -> x+1 carries them onto every other line."""
        if self._lines0 is None:
            self._check_cap()
            ext = self.labeling_field
            N = self.point_count
            scalars = [self.embed(c) for c in range(1, self.q)]
            rows = []
            for j in range(1, N):
                zj = ext.antilog_table[j]
                members = [0, j]
                for s in scalars:
                    members.append(ext.log_table[ext.add(1, ext.mul(s, zj))] % N)
                if min(members[1:]) == j:
                    rows.append(sorted(members))
            self._lines0 = np.array(rows, dtype=np.int32)
            self._lines0.flags.writeable = False
        return self._lines0

    def _projective_lines(self) -> np.ndarray:
        N = self.point_count
        A = self.lines_through_origin()
        shifts = np.arange(N, dtype=np.int32)
        T = (A[None, :, :] + shifts[:, None, None]) % np.int32(N)
        T = T.reshape(-1, self.points_per_line)
        T.sort(axis=1)
        mask = T[:, 0] == np.repeat(shifts, len(A))
        arr = T[mask]
        return arr[np.lexsort(arr.T[::-1])]

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
        la, lb = ext.antilog_table[a % N], ext.antilog_table[b % N]
        members = {a % N, b % N}
        for c in range(1, base.order):
            members.add(ext.log_table[ext.add(la, ext.mul(self.embed(c), lb))] % N)
        return tuple(sorted(members))

    # -- rank and flats --------------------------------------------------

    def rank_of(self, point_set) -> int:
        """Rank over GF(q): projective homogeneous rank, or affine
        1 + rank of difference vectors from a base point."""
        pts = sorted(set(point_set))
        if not pts:
            raise EmptySet("rank of empty point set")
        coords = self.points()
        if self.kind == PROJECTIVE:
            rows = [list(coords[i]) for i in pts]
            return _gf_rank(rows, self.field)
        base = coords[pts[0]]
        rows = [
            [self.field.sub(x, y) for x, y in zip(coords[i], base)]
            for i in pts[1:]
        ]
        return 1 + _gf_rank(rows, self.field)

    def span(self, point_set) -> tuple[int, ...]:
        """All points of the flat spanned by the given points."""
        pts = sorted(set(point_set))
        if not pts:
            raise EmptySet("span of empty point set")
        base = self.field
        coords = self.points()
        if self.kind == PROJECTIVE:
            basis = _gf_row_basis([list(coords[i]) for i in pts], base)
            out = set()
            for combo in _normalized_directions(base, len(basis)):
                vec = [0] * (self.dim + 1)
                for c, bv in zip(combo, basis):
                    for t in range(self.dim + 1):
                        vec[t] = base.add(vec[t], base.mul(c, bv[t]))
                out.add(self.point_index(vec))
            return tuple(sorted(out))
        origin = coords[pts[0]]
        diffs = [
            [base.sub(x, y) for x, y in zip(coords[i], origin)]
            for i in pts[1:]
        ]
        basis = _gf_row_basis(diffs, base)
        out = set()
        for combo in itertools.product(range(self.q), repeat=len(basis)):
            vec = list(origin)
            for c, bv in zip(combo, basis):
                for t in range(self.dim):
                    vec[t] = base.add(vec[t], base.mul(c, bv[t]))
            out.add(self._index_of[tuple(vec)])
        return tuple(sorted(out))

    def flats(self, j: int) -> list[tuple[int, ...]]:
        """All j-dimensional flats as sorted point tuples."""
        if j < 0 or j > self.dim:
            raise BadDimension(f"flat dimension {j} out of range 0..{self.dim}")
        if j in self._flats:
            return self._flats[j]
        if j == 0:
            result = [(i,) for i in range(self.point_count)]
        elif j == 1:
            result = [tuple(row) for row in self.lines().tolist()]
        elif j == self.dim:
            result = [tuple(range(self.point_count))]
        else:
            lower = self.flats(j - 1)
            seen = set()
            for flat in lower:
                # a point of a span already found spans that flat again
                done = set(flat)
                for pnt in range(self.point_count):
                    if pnt in done:
                        continue
                    new = self.span(flat + (pnt,))
                    done.update(new)
                    seen.add(new)
            result = sorted(seen)
        self._flats[j] = result
        return result

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


def affine(dim: int, q: int, field: GF = None) -> Geometry:
    return Geometry(AFFINE, dim, q=q, field=field)


def projective(dim: int, q: int, labeling_modulus=None, basis="phi") -> Geometry:
    return Geometry(PROJECTIVE, dim, q=q, labeling_modulus=labeling_modulus,
                    basis=basis)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _split_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


def _normalized_directions(field: GF, d: int):
    """Nonzero vectors of F_q^d with first nonzero coordinate 1."""
    q = field.order
    for lead in range(d):
        for tail in itertools.product(range(q), repeat=d - lead - 1):
            yield (0,) * lead + (1,) + tail


def _gf_row_basis(rows, field: GF):
    """Row-reduce over GF(q); returns an independent spanning subset."""
    basis = []
    pivots = []
    for row in rows:
        row = list(row)
        for bv, pc in zip(basis, pivots):
            c = row[pc]
            if c:
                f = field.mul(c, field.inv(bv[pc]))
                row = [field.sub(x, field.mul(f, y)) for x, y in zip(row, bv)]
        for idx, c in enumerate(row):
            if c:
                basis.append(row)
                pivots.append(idx)
                break
    return basis


def _gf_rank(rows, field: GF) -> int:
    return len(_gf_row_basis(rows, field))


def _mat_inv_mod_p(A: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix over F_p by Gauss-Jordan."""
    n = A.shape[0]
    M = np.concatenate([A % p, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r, col] % p:
                piv = r
                break
        if piv is None:
            raise ValueError("singular matrix mod p")
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
        M[col] = (M[col] * pow(int(M[col, col]), -1, p)) % p
        for r in range(n):
            if r != col and M[r, col]:
                M[r] = (M[r] - M[r, col] * M[col]) % p
    return M[:, n:]
