"""Field arithmetic against independent oracles and algebraic laws."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthokit import gf
from orthokit.errors import DivideByZero, LogOfZero, NotPrime, ReducibleModulus

import sympy


SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (2, 4),
                (3, 2), (3, 3), (5, 2), (2, 8)]


def test_is_prime_matches_sympy():
    for m in [*range(-3, 500), 2 ** 31 - 1, 2 ** 31 + 1, 65_537 ** 2]:
        assert gf.is_prime(m) == sympy.isprime(m)


def test_prime_factors_matches_sympy():
    for m in (2, 12, 31, 360, 3124, 2 ** 14 - 1):
        assert gf.prime_factors(m) == sorted(sympy.factorint(m))


def test_non_prime_characteristic_rejected():
    with pytest.raises(NotPrime):
        gf.GF(4, 1)
    with pytest.raises(NotPrime):
        gf.GF(6, 2)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ReducibleModulus):
        gf.GF(2, 2, modulus=[1, 0, 1])


def test_auto_modulus_irreducible_over_sympy():
    for p, n in SMALL_FIELDS:
        f = gf.field_create(p, n)
        x = sympy.symbols("x")
        poly = sum(c * x ** i for i, c in enumerate(f.modulus))
        assert sympy.Poly(poly, x, modulus=p).is_irreducible


def test_gf4_multiplication_table():
    # GF(4) with z^2 = z + 1: codes 0,1,2=z,3=z+1
    f = gf.field_create(2, 2)
    expect = {
        (0, 0): 0, (1, 2): 2, (2, 2): 3, (2, 3): 1, (3, 3): 2,
    }
    for (a, b), c in expect.items():
        assert f.mul(a, b) == c
        assert f.mul(b, a) == c


def test_gf3_inverse():
    f = gf.field_create(3, 1)
    assert f.inv(2) == 2
    assert f.inv(1) == 1


def test_zero_division_and_log():
    f = gf.field_create(3, 2)
    with pytest.raises(DivideByZero):
        f.inv(0)
    with pytest.raises(LogOfZero):
        f.log(0)


def test_log_antilog_roundtrip():
    for p, n in SMALL_FIELDS:
        f = gf.field_create(p, n)
        for a in range(1, f.order):
            assert f.antilog(f.log(a)) == a
        if f.order > 2:
            assert f.log(f.primitive) == 1


def test_primitive_element_order():
    for p, n in SMALL_FIELDS:
        f = gf.field_create(p, n)
        seen = set()
        x = 1
        for _ in range(f.order - 1):
            seen.add(x)
            x = f.mul(x, f.primitive)
        assert len(seen) == f.order - 1 and x == 1


def test_frobenius_is_pth_power_and_additive():
    for p, n in SMALL_FIELDS:
        f = gf.field_create(p, n)
        for a in range(f.order):
            assert f.frobenius(a) == f.pow(a, p)
        for a in range(min(f.order, 16)):
            for b in range(min(f.order, 16)):
                assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a),
                                                         f.frobenius(b))


def test_explicit_modulus_f81():
    # z^4 = z^3 + 1 over F_3, i.e. modulus z^4 - z^3 - 1
    f = gf.GF(3, 4, modulus=[2, 0, 0, 2, 1])
    z = 3  # code of z
    assert f.pow(z, 4) == f.add(f.pow(z, 3), 1)
    # z is primitive in this field
    x, order = z, 1
    while x != 1 or order == 1:
        x = f.mul(x, z)
        order += 1
        assert order <= 80
    assert order == 80


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_field_axioms(pn, data):
    f = gf.field_create(*pn)
    a = data.draw(st.integers(0, f.order - 1))
    b = data.draw(st.integers(0, f.order - 1))
    c = data.draw(st.integers(0, f.order - 1))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_log_is_homomorphism(pn, data):
    f = gf.field_create(*pn)
    a = data.draw(st.integers(1, f.order - 1))
    b = data.draw(st.integers(1, f.order - 1))
    assert f.log(f.mul(a, b)) == (f.log(a) + f.log(b)) % (f.order - 1)


@pytest.mark.parametrize("p, n", SMALL_FIELDS)
def test_tables_equal_the_scalar_methods(p, n):
    f = gf.field_create(p, n)
    add, mul, neg, inv = tables = f.tables()
    codes = range(f.order)
    assert add.tolist() == [[f.add(a, b) for b in codes] for a in codes]
    assert mul.tolist() == [[f.mul(a, b) for b in codes] for a in codes]
    assert neg.tolist() == [f.neg(a) for a in codes]
    assert inv.tolist() == [0] + [f.inv(a) for a in codes if a]
    for table in tables:
        assert table.dtype == np.min_scalar_type(f.order - 1)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1
    assert all(a is b for a, b in zip(f.tables(), tables))


def test_field_identity_is_cached():
    assert gf.field_create(3, 2) is gf.field_create(3, 2)
    assert gf.field_create(2, 4) == gf.GF(2, 4)


def test_modulus_coefficients_must_be_integers():
    # 1.0 == 1: a float modulus would share the integer one's cache key
    int_modulus = gf.field_create(2, 2).modulus
    for make in (gf.field_create, gf.GF):
        with pytest.raises(TypeError):
            make(2, 2, [float(c) for c in int_modulus])
    f = gf.field_create(2, 2, list(int_modulus))
    assert f is gf.field_create(2, 2, int_modulus)
    assert set(map(type, f.modulus)) == {int}


def sequential_tables(f):
    """Antilog and log tables from one _mul_raw step per power."""
    antilog, log = [], [-1] * f.order
    v = 1
    for i in range(f.order - 1):
        antilog.append(v)
        log[v] = i
        v = f._mul_raw(v, f.primitive)
    return antilog, log


@pytest.mark.parametrize("p, n", [(2, n) for n in range(1, 15)]
                         + [(3, n) for n in range(1, 8)] + [(5, 5)])
def test_doubled_tables_match_sequential_walk(p, n):
    f = gf.field_create(p, n)
    antilog, log = sequential_tables(f)
    assert (f.antilog_array.tolist(), f.log_array.tolist()) == (antilog, log)
    assert [f.antilog(e) for e in range(f.order - 1)] == antilog
    assert [f.log(a) for a in range(1, f.order)] == log[1:]


@pytest.mark.parametrize("p, n, dtype", [
    (2, 7, np.int8), (2, 8, np.int16), (3, 9, np.int16), (2, 16, np.int32)])
def test_table_arrays_are_read_only_in_the_least_signed_type(p, n, dtype):
    f = gf.field_create(p, n)
    for array in (f.antilog_array, f.log_array):
        assert array.dtype == dtype and not array.flags.writeable
        with pytest.raises(ValueError):
            array[1] = 1
    assert f.antilog_array.tolist() == [f.antilog(e) for e in range(f.order - 1)]
    assert f.log_array[1:].tolist() == [f.log(a) for a in range(1, f.order)]
    assert f.log_array[0] == -1
    assert f.antilog_array.max() == f.order - 1


@pytest.mark.parametrize("p, n, modulus, primitive", [
    (2, 4, (1, 1, 1, 1, 1), 3),         # x^4+x^3+x^2+x+1: z has order 5
    (3, 2, (1, 0, 1), 4),               # x^2+1: z has order 4
    (2, 6, (1, 0, 0, 1, 0, 0, 1), 3),   # x^6+x^3+1: z has order 9
])
def test_doubled_tables_with_a_primitive_other_than_z(p, n, modulus, primitive):
    f = gf.field_create(p, n, modulus)
    assert f.primitive == primitive != p
    assert (f.antilog_array.tolist(), f.log_array.tolist()) == sequential_tables(f)


PRIMITIVE_NOT_Z = [(2, 4, (1, 1, 1, 1, 1)), (3, 2, (1, 0, 1)),
                   (2, 6, (1, 0, 0, 1, 0, 0, 1))]


@pytest.mark.parametrize("block", [1, 2, 3, 5])
@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 5), (3, 4), (5, 3),
                                  (7, 2), *PRIMITIVE_NOT_Z])
def test_blocked_tables_match_sequential_walk(monkeypatch, block, spec):
    # blocks of 1, 2, 4 and 8 powers (3 and 5 round up to a power of
    # two), most not dividing q - 1, so the last block is partial
    monkeypatch.setattr(gf, "_TABLE_BLOCK", block)
    f = gf.GF(*spec)
    assert (f.antilog_array.tolist(), f.log_array.tolist()) == sequential_tables(f)


@pytest.mark.parametrize("p, n", [(97, 3), (3, 13)])
def test_table_build_memory_is_bounded_by_the_tables(p, n):
    # the working set is one block of digits besides the two tables: the
    # whole digit matrix of GF(3^13) would peak above 400 MB
    tracemalloc.start()
    try:
        f = gf.GF(p, n)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = f.antilog_array.nbytes + f.log_array.nbytes
    assert peak <= 2 * tables + (8 << 20)
    assert tables <= kept <= tables + (1 << 20)


@pytest.mark.parametrize("p, n", [(2, 3), (2, 8), (3, 9), (2, 16)])
def test_scalar_methods_return_python_ints(p, n):
    f = gf.field_create(p, n)
    a, b = f.order - 1, 2
    for value in (f.mul(a, b), f.inv(a), f.pow(a, 5), f.frobenius(a),
                  f.log(a), f.antilog(7), f.add(a, b), f.sub(a, b), f.neg(a)):
        assert type(value) is int
