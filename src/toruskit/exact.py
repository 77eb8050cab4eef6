"""Exact Gaussian-rational backend.

Scalars are p/q + (r/s)i with Fraction components; matrices are numpy object
arrays over these scalars (or over plain Fractions for real data). Row
reduction, nullspaces and solves are exact, which is what the hodge module
needs to decide integral (p,p) kernels and rational invariant planes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np


class GaussianRational:
    """Complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, complex):
            if x.real != int(x.real) or x.imag != int(x.imag):
                raise TypeError("float complex cannot be coerced exactly")
            return GaussianRational(int(x.real), int(x.imag))
        return GaussianRational(x)

    def __add__(self, o):
        o = GaussianRational.coerce(o)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = GaussianRational.coerce(o)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return GaussianRational.coerce(o) - self

    def __mul__(self, o):
        o = GaussianRational.coerce(o)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = GaussianRational.coerce(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / d,
                                (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, o):
        return GaussianRational.coerce(o) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, o):
        try:
            o = GaussianRational.coerce(o)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"({self.re}+{self.im}i)"


QI = GaussianRational
I_Q = QI(0, 1)


def qi_matrix(rows) -> np.ndarray:
    """Object array of GaussianRational from nested lists of scalars."""
    return np.frompyfunc(QI.coerce, 1, 1)(np.asarray(rows, dtype=object))


def frac_matrix(rows) -> np.ndarray:
    return np.frompyfunc(Fraction, 1, 1)(np.asarray(rows, dtype=object))


def eye_exact(n, field=Fraction) -> np.ndarray:
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = field(1 if i == j else 0)
    return out


def to_complex(m: np.ndarray) -> np.ndarray:
    return m.astype(complex)


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact matrix product (np.matmul does not support object dtype everywhere)."""
    return a.dot(b)


def rref(m: np.ndarray):
    """Reduced row echelon form over an exact field. Returns (R, pivot columns)."""
    r = m.copy()
    rows, cols = r.shape
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot = None
        for i in range(pr, rows):
            if r[i, pc] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != pr:
            r[[pr, pivot]] = r[[pivot, pr]]
        inv = r[pr, pc]
        r[pr, :] = [x / inv for x in r[pr, :]]
        for i in range(rows):
            if i != pr and r[i, pc] != 0:
                f = r[i, pc]
                r[i, :] = [a - f * b for a, b in zip(r[i, :], r[pr, :])]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    return r, pivots


def rank_exact(m: np.ndarray) -> int:
    return len(rref(m)[1])


def nullspace(m: np.ndarray) -> list:
    """Basis of {x : m x = 0} over the scalar field, one object array per vector."""
    r, pivots = rref(m)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    zero = m[0, 0] * 0 if m.size else Fraction(0)
    one = zero + 1
    basis = []
    for f in free:
        v = np.array([zero] * cols, dtype=object)
        v[f] = one
        for i, p in enumerate(pivots):
            v[p] = -r[i, f]
        basis.append(v)
    return basis


def solve_exact(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve m x = b exactly; raises if m is singular. b may be a matrix."""
    n = m.shape[0]
    bb = b.reshape(n, -1)
    aug = np.concatenate([m, bb], axis=1)
    r, pivots = rref(aug)
    if pivots[: n] != list(range(n)) or len(pivots) < n:
        raise ZeroDivisionError("singular exact system")
    x = r[:, n:]
    return x.reshape(b.shape) if b.ndim > 1 else x[:, 0]


def split_re_im(m: np.ndarray):
    """Fraction matrices (Re, Im) of a GaussianRational matrix."""
    q = qi_matrix(m)
    return np.frompyfunc(lambda x: x.re, 1, 1)(q), np.frompyfunc(lambda x: x.im, 1, 1)(q)


def clear_denominators(vec) -> np.ndarray:
    """Scale a Fraction vector to a primitive integer vector (gcd 1).

    A Python int already has a numerator and a denominator of 1, so it is
    used as it is; every other entry is wrapped in a Fraction."""
    fr = [x if type(x) is int else Fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in fr))
    ints = [x.numerator * (den // x.denominator) for x in fr]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return np.array(ints, dtype=object)


def integer_kernel(m) -> list:
    """Basis of the integer kernel lattice {x in Z^d : m x = 0}.

    Column-reduction with unimodular operations; the returned basis is
    saturated (it generates the full kernel subgroup, not a finite-index one).
    """
    a = [[int(x) for x in row] for row in np.asarray(m, dtype=object)]
    rows = len(a)
    d = len(a[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    active = list(range(d))

    def col_op(j, k, q):
        # column j -= q * column k
        for i in range(rows):
            a[i][j] -= q * a[i][k]
        for i in range(d):
            u[i][j] -= q * u[i][k]

    for r in range(rows):
        while True:
            nz = [j for j in active if a[r][j] != 0]
            if len(nz) <= 1:
                break
            k = min(nz, key=lambda j: abs(a[r][j]))
            for j in nz:
                if j == k:
                    continue
                q = a[r][j] // a[r][k]
                if q:
                    col_op(j, k, q)
        nz = [j for j in active if a[r][j] != 0]
        if nz:
            active.remove(nz[0])
    return [np.array([u[i][j] for i in range(d)], dtype=object) for j in active]
