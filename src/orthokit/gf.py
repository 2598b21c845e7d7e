"""Arithmetic in GF(p^n) with an explicit irreducible modulus.

Field elements are integer codes in ``[0, p^n)``, and a ``GF`` owns all
arithmetic on them: the base-p digits of a code are the coefficients of
z^0 .. z^{n-1}.  Scalar multiplication and inversion go through discrete
log / antilog tables built at construction time, kept both as lists and
as read-only numpy arrays; ``tables()`` gives read-only numpy add, mul,
neg and inv tables for batched work.  A field object is immutable and
cheap to share.

Conventions (all deterministic, recorded in serialized output):
  * AUTO modulus = the monic primitive polynomial of degree n with the
    least integer encoding sum(c_i * p^i), c_n = 1 included.
  * The designated primitive element is the nonzero code of least
    integer value whose multiplicative order is p^n - 1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DivideByZero, LogOfZero, NotPrime, ReducibleModulus


def is_prime(m: int) -> bool:
    return prime_factors(m) == [m]


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending, by trial division up to
    the square root of what is left; [] for m < 2."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# ----------------------------------------------------------------------
# Dense polynomial helpers over GF(p).  Polynomials are tuples of
# coefficients (c0, c1, ...), highest nonzero last.
# ----------------------------------------------------------------------

def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mod(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a by monic b over GF(p)."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - db
            for i in range(db + 1):
                a[shift + i] = (a[shift + i] - lead * b[i]) % p
        a.pop()
    return _trim(a)


def _irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    n = len(modulus) - 1
    if n == 1:
        return True
    for deg in range(1, n // 2 + 1):
        for enc in range(p ** deg):
            div = []
            e = enc
            for _ in range(deg):
                div.append(e % p)
                e //= p
            div.append(1)
            if not _poly_mod(modulus, tuple(div), p):
                return False
    return True


class GF:
    """Descriptor for GF(p^n): modulus, primitive element, log tables."""

    def __init__(self, p: int, n: int, modulus=None):
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        self.p = p
        self.n = n
        self.order = p ** n
        if modulus is None:
            modulus = self._auto_modulus()
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree n")
            if not _irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {list(modulus)} is reducible over GF({p})")
        self.modulus = modulus

        q1 = self.order - 1
        self._q1_factors = prime_factors(q1) if q1 > 1 else []
        self.primitive = self._find_primitive()
        self._build_tables()
        self._tables = None

    # -- bootstrap arithmetic (digit based, used before tables exist) --

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.n):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits) -> int:
        v = 0
        for c in reversed(list(digits)):
            v = v * self.p + (c % self.p)
        return v

    def _mul_raw(self, a: int, b: int) -> int:
        p, n = self.p, self.n
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by monic modulus
        for i in range(len(prod) - 1, n - 1, -1):
            lead = prod[i]
            if lead:
                prod[i] = 0
                for j in range(n):
                    prod[i - n + j] = (prod[i - n + j] - lead * self.modulus[j]) % p
        return self._encode(prod[:n])

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _has_full_order(self, a: int) -> bool:
        q1 = self.order - 1
        for r in self._q1_factors:
            if self._pow_raw(a, q1 // r) == 1:
                return False
        return True

    def _auto_modulus(self) -> tuple[int, ...]:
        p, n = self.p, self.n
        for enc in range(p ** n, 2 * p ** n):
            coeffs = []
            e = enc
            for _ in range(n + 1):
                coeffs.append(e % p)
                e //= p
            cand = tuple(coeffs)
            if cand[0] == 0:
                continue
            if not _irreducible(cand, p):
                continue
            # require the residue of x (the z of the labelling) to be primitive
            self.modulus = cand
            self._q1_factors = prime_factors(p ** n - 1) if p ** n > 2 else []
            zcode = (-cand[0]) % p if n == 1 else p
            if p ** n == 2 or self._has_full_order(zcode):
                return cand
        raise ReducibleModulus(f"no primitive polynomial found for GF({p}^{n})")  # pragma: no cover

    def _find_primitive(self) -> int:
        if self.order == 2:
            return 1
        for a in range(1, self.order):
            if self._has_full_order(a):
                return a
        raise ReducibleModulus("no primitive element")  # pragma: no cover

    def _build_tables(self):
        """Antilog table by doubling, as rows of F_p digits: powers m..2m-1
        of the primitive element g are powers 0..m-1 times the F_p matrix
        of multiplication by g^m, which is squared at each step."""
        p, n, q = self.p, self.n, self.order
        # row j holds the digits of g * z^j, so digits(x) @ mat = digits(x*g)
        mat = np.array([self._digits(self._mul_raw(self.primitive, p ** j))
                        for j in range(n)], dtype=np.int64)
        rows = np.zeros((1, n), dtype=np.int64)
        rows[0, 0] = 1
        while len(rows) < q - 1:
            rows = np.concatenate([rows, rows @ mat % p])
            mat = mat @ mat % p
        # the smallest signed type that holds a code, as log[0] is -1;
        # sums of logs need a wider type
        dtype = np.min_scalar_type(-q)
        codes = (rows[:q - 1] @ p ** np.arange(n, dtype=np.int64)).astype(dtype)
        log = np.full(q, -1, dtype=dtype)
        log[codes] = np.arange(q - 1)
        if (log[1:] < 0).any():
            raise ReducibleModulus("primitive element order mismatch")  # pragma: no cover
        codes.flags.writeable = log.flags.writeable = False
        self.antilog_array, self.log_array = codes, log
        self.antilog_table = codes.tolist()
        self.log_table = log.tolist()

    # -- public integer-code arithmetic ---------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.n == 1:
            return (a + b) % self.p
        p, r, mult = self.p, 0, 1
        for _ in range(self.n):
            r += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return r

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.n == 1:
            return (-a) % self.p
        p, r, mult = self.p, 0, 1
        for _ in range(self.n):
            r += ((-a) % p) * mult
            a //= p
            mult *= p
        return r

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.antilog_table[(self.log_table[a] + self.log_table[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivideByZero("inverse of zero")
        return self.antilog_table[(-self.log_table[a]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise DivideByZero("negative power of zero")
            return 1 if e == 0 else 0
        return self.antilog_table[(self.log_table[a] * e) % (self.order - 1)]

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def log(self, a: int) -> int:
        if a == 0:
            raise LogOfZero("discrete log of zero")
        return self.log_table[a]

    def antilog(self, e: int) -> int:
        return self.antilog_table[e % (self.order - 1)]

    def tables(self) -> tuple[np.ndarray, ...]:
        """(add, mul, neg, inv) over all codes, in the smallest unsigned
        type that holds a code: add[a, b] = a + b, mul[a, b] = a * b,
        neg[a] = -a, and inv[a] = 1 / a with inv[0] = 0.  Built once per
        field and read-only, so every caller shares them."""
        if self._tables is None:
            p, q = self.p, self.order
            add = np.zeros((q, q), dtype=np.int64)
            for w in p ** np.arange(self.n, dtype=np.int64):
                digit = np.arange(q) // w % p
                add += (digit[:, None] + digit) % p * w
            # log[0] is -1; the zero row and column are cleared after
            log = self.log_array.astype(np.int64)
            antilog = self.antilog_array
            mul = antilog[(log[:, None] + log) % (q - 1)]
            mul[0, :] = mul[:, 0] = 0
            # row 0 of mul holds no 1, so inv[0] = 0
            neg, inv = np.argmax(add == 0, axis=1), np.argmax(mul == 1, axis=1)
            dtype = np.min_scalar_type(q - 1)
            self._tables = tuple(t.astype(dtype) for t in (add, mul, neg, inv))
            for table in self._tables:
                table.flags.writeable = False
        return self._tables

    def describe(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "modulus": list(self.modulus),
            "primitive": self._digits(self.primitive),
        }

    def __repr__(self):
        return f"GF({self.p}^{self.n}, modulus={list(self.modulus)})"

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and self.p == other.p
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))


# ----------------------------------------------------------------------
# Cached construction: one GF object per (p, n, modulus).
# ----------------------------------------------------------------------

AUTO = None


@lru_cache(maxsize=None)
def _cached_field(p: int, n: int, modulus) -> GF:
    return GF(p, n, modulus)


def field_create(p: int, n: int, modulus=AUTO) -> GF:
    key = tuple(c % p for c in modulus) if modulus is not None else None
    return _cached_field(p, n, key)
