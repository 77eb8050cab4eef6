from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from toruskit import exact
from toruskit.exact import QI


def test_scalar_arithmetic():
    a = QI(Fraction(1, 2), Fraction(-3, 7))
    b = QI(2, 1)
    assert (a + b) - b == a
    assert a * b / b == a
    assert (QI(0, 1) * QI(0, 1)) == QI(-1)
    assert not QI(0, 0)
    assert a.conjugate().im == Fraction(3, 7)


def test_rref_and_nullspace():
    m = exact.frac_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    r, pivots = exact.rref(m)
    assert pivots == [0, 1]
    null = exact.nullspace(m)
    assert len(null) == 1
    v = null[0]
    prod = m.dot(v)
    assert all(x == 0 for x in prod)


def test_solve_and_inverse():
    m = exact.frac_matrix([[2, 1], [1, 1]])
    inv = exact.solve_exact(m, exact.eye_exact(2))
    ident = exact.mm(m, inv)
    assert ident[0, 0] == 1 and ident[0, 1] == 0
    b = np.array([Fraction(1), Fraction(3)], dtype=object)
    x = exact.solve_exact(m, b)
    assert all(exact.mm(m, x.reshape(2, 1))[i, 0] == b[i] for i in range(2))


def test_solve_singular_raises():
    m = exact.frac_matrix([[1, 2], [2, 4]])
    with pytest.raises(ZeroDivisionError):
        exact.solve_exact(m, exact.eye_exact(2))


def test_qi_matrix_rank():
    m = exact.qi_matrix([[QI(1), QI(0, 1)], [QI(0, -1), QI(1)]])
    assert exact.rank_exact(m) == 1  # second row = -i * first row


def test_clear_denominators():
    v = [Fraction(1, 2), Fraction(-3, 4), Fraction(5)]
    ints = exact.clear_denominators(v)
    assert list(ints) == [2, -3, 20]


def _clear_by_fractions(vec):
    # the reference: every entry wrapped in a Fraction
    fr = [Fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in fr))
    ints = [x.numerator * (den // x.denominator) for x in fr]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def test_clear_denominators_int_entries_skip_fractions():
    # Python ints are not wrapped in Fractions; the output must not change,
    # for int, numpy-integer, bool and mixed Fraction entries alike
    rng = np.random.default_rng(11)
    vecs = [[0, 0, 0], [0, -7], [5], [-(3 ** 80), 6 ** 40, 0], [True, 2],
            [Fraction(1, 2), 3, Fraction(-5, 4)], [np.int64(4), 6, Fraction(2, 3)]]
    for _ in range(200):
        x = rng.integers(-50, 51, rng.integers(1, 16)) * int(rng.integers(1, 9))
        vecs += [x, np.array([int(v) for v in x], dtype=object), [int(v) for v in x]]
    for vec in vecs:
        got = exact.clear_denominators(vec)
        assert got.dtype == object
        want = _clear_by_fractions(vec)
        assert [(type(a), a) for a in got] == [(type(b), b) for b in want]


def test_integer_kernel_saturated():
    # kernel of [1 1 1; 0 2 4] is spanned by the primitive (1, -2, 1)
    kern = exact.integer_kernel([[1, 1, 1], [0, 2, 4]])
    assert len(kern) == 1
    v = [int(x) for x in kern[0]]
    assert v == [1, -2, 1] or v == [-1, 2, -1]


def test_integer_kernel_full_rank_empty():
    assert exact.integer_kernel([[1, 0], [0, 1]]) == []


def test_integer_kernel_annihilates():
    rng = np.random.default_rng(3)
    m = rng.integers(-4, 5, (2, 6))
    for v in exact.integer_kernel(m):
        prod = m @ np.array([int(x) for x in v])
        assert np.array_equal(prod, np.zeros(2, dtype=prod.dtype))
