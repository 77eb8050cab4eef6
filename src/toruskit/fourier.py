"""Truncated Fourier-side Dolbeault complex of the flat torus.

A mode is a lattice character m in Z^{2n}; on the mode e^{2 pi i m.x} the
d-bar operator wedges with the (0,1) part of the covector, whose components
in the chosen frame are frame^T m. The Laplacian is scalar per mode
(Clifford identity), so the Green operator is an explicit mode-diagonal
contraction: that is the whole reason the Massey recursion is cheap here.
Only the zero mode is harmonic.

Forms are stored sparsely per mode. Coefficients are arrays of shape
(ncomp(q),) for scalar forms or (ncomp(q), R, R) for End-valued ones; the
wedge composes matrix factors (form factor of the left operand first).
dbar, green and wedge read their signs from hodge.wedge_table and give the
bits of the loops that the tests keep as their oracles.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .hodge import basis_subsets, complex_product, wedge_table

TWO_PI = 2.0 * np.pi


def canonical_frame(n: int) -> np.ndarray:
    """V^{0,1} frame of the standard structure: columns (e_a + i e_{n+a})/2."""
    b = np.zeros((2 * n, n), dtype=complex)
    for a in range(n):
        b[a, a] = 0.5
        b[n + a, a] = 0.5j
    return b


class FourierFormSpace:
    """(0,q)-forms with Fourier modes in the cube |m_k| <= mode_bound."""

    def __init__(self, n: int, mode_bound: int = 4, frame: np.ndarray | None = None):
        if mode_bound < 1:
            raise ValueError("mode bound must be >= 1")
        self.n = int(n)
        self.mode_bound = int(mode_bound)
        self.frame = canonical_frame(n) if frame is None else np.asarray(frame, complex)
        if self.frame.shape != (2 * n, n):
            raise ValueError(f"frame must be 2n x n, got {self.frame.shape}")

    def ncomp(self, q: int) -> int:
        return len(basis_subsets(self.n, q))

    def in_bounds(self, mode) -> bool:
        return max(map(abs, map(int, mode)), default=0) <= self.mode_bound

    def zeta(self, mode) -> np.ndarray:
        return self.frame.T @ np.asarray(mode, dtype=float)

    def check_same(self, other: "FourierFormSpace") -> None:
        """Raise ValueError naming the mismatch unless other holds the same
        forms: the same n, mode bound and frame."""
        if other is self:
            return
        for what, same in (("n", self.n == other.n),
                           ("mode bound", self.mode_bound == other.mode_bound),
                           ("frame", np.array_equal(self.frame, other.frame))):
            if not same:
                raise ValueError(f"forms live in different spaces: their {what} differs")

    def constant(self, q: int, coeff: np.ndarray) -> "FourierForm":
        """Mode-0 form with the given coefficient array."""
        coeff = np.asarray(coeff, dtype=complex)
        extra = coeff.shape[1:]
        zero_mode = (0,) * (2 * self.n)
        return FourierForm(self, q, {zero_mode: coeff}, extra=extra)


class FourierForm:
    """Sparse (0,q)-form: mode tuple -> coefficient array."""

    def __init__(self, space: FourierFormSpace, q: int, modes: dict,
                 extra: tuple = ()):
        self.space = space
        self.q = int(q)
        self.extra = tuple(extra)
        want = (space.ncomp(q),) + self.extra
        self.modes = {}
        for m, c in modes.items():
            c = np.asarray(c, dtype=complex)
            if c.shape != want:
                raise ValueError(f"coefficient shape {c.shape}, expected {want}")
            if space.in_bounds(m) and c.any():
                self.modes[tuple(map(int, m))] = c.copy()

    def norm(self) -> float:
        return float(np.sqrt(sum(np.sum(np.abs(c) ** 2) for c in self.modes.values())))

    def __add__(self, other: "FourierForm") -> "FourierForm":
        self.space.check_same(other.space)
        if (self.q, self.extra) != (other.q, other.extra):
            raise ValueError("form degree/value shape mismatch")
        out = dict(self.modes)
        for m, c in other.modes.items():
            out[m] = out[m] + c if m in out else c
        return FourierForm(self.space, self.q, out, extra=self.extra)

    def __sub__(self, other: "FourierForm") -> "FourierForm":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "FourierForm":
        return FourierForm(self.space, self.q,
                           {m: c * scalar for m, c in self.modes.items()},
                           extra=self.extra)

    __rmul__ = __mul__


def _value_product(a: np.ndarray, b: np.ndarray, ea: int, eb: int) -> np.ndarray:
    """a * b of coefficients whose last ea and eb axes are matrix values:
    matrices compose, a scalar scales by numpy's array multiply, and two
    scalars multiply as numpy scalars do."""
    if ea and eb:
        return a @ b
    if ea or eb:
        return a.reshape(a.shape + (1,) * eb) * b.reshape(b.shape + (1,) * ea)
    return complex_product(a, b)


def _covector_terms(comp, ncomp: int, x, c) -> np.ndarray:
    """Sum of x[row] * c[row] into component comp[row], in row order."""
    out = np.zeros((ncomp,) + c.shape[1:], dtype=complex)
    np.add.at(out, comp, _value_product(x, c, 0, c.ndim - 1))
    return out


def dbar(form: FourierForm) -> FourierForm:
    """Wedge with the covector 2 pi i zeta on each mode, through the wedge
    table of (q, 1): e_a ^ e_s = (-1)^q e_s ^ e_a."""
    space, q = form.space, form.q
    s, a, comp, sign = wedge_table(space.n, q, 1)
    out = {}
    for m, c in form.modes.items():
        z = (-1) ** q * sign * (TWO_PI * 1j * space.zeta(m))[a]
        out[m] = _covector_terms(comp, space.ncomp(q + 1), z, c[s])
    return FourierForm(space, q + 1, out, extra=form.extra)


def laplace_scalar(space: FourierFormSpace, mode) -> float:
    z = space.zeta(mode)
    return float(TWO_PI ** 2 * np.sum(np.abs(z) ** 2))


def green(form: FourierForm) -> FourierForm:
    """Partial inverse of d-bar on its image: dbar^* / Laplacian, zero on
    the harmonic (zero) mode.

    Contraction with the conjugate covector reads the wedge table of
    (1, q - 1): e_l ^ e_t = sign e_s gives i_l e_s = sign e_t."""
    space, q = form.space, form.q
    ell, t, comp, sign = wedge_table(space.n, 1, q - 1)
    out = {}
    for m, c in form.modes.items():
        lam = laplace_scalar(space, m)
        if lam < 1e-24:
            continue
        v = sign * space.zeta(m).conj()[ell]
        out[m] = (-TWO_PI * 1j / lam) * _covector_terms(t, space.ncomp(q - 1), v, c[comp])
    return FourierForm(space, q - 1, out, extra=form.extra)


def harmonic_part(form: FourierForm) -> FourierForm:
    """The zero mode of the form, the only harmonic one."""
    zero = (0,) * (2 * form.space.n)
    out = {zero: form.modes[zero]} if zero in form.modes else {}
    return FourierForm(form.space, form.q, out, extra=form.extra)


# Bound on the temporaries of one batch of mode pairs in `wedge`, so that a
# large call does not raise peak memory.
_CHUNK_BYTES = 1 << 18


def wedge(f: FourierForm, g: FourierForm) -> FourierForm:
    """Composition wedge: form factors wedge, value factors compose (f's
    matrix on the left). Modes outside the cube are truncated away.

    Batched over mode pairs with the arithmetic of the plain loop over f's
    modes, g's modes and wedge-table rows: each product rounds as the loop's
    does, is multiplied by the sign as a complex number, and each output
    entry receives its terms in loop order. The result is bit for bit the
    loop's, output modes in order of first encounter."""
    space = f.space
    space.check_same(g.space)
    q_out = f.q + g.q
    if f.extra and g.extra:
        extra = (f.extra[0], g.extra[1])
    else:
        extra = f.extra or g.extra
    i1, i2, comp, sign = wedge_table(space.n, f.q, g.q)
    if not (f.modes and g.modes and len(sign)):
        return FourierForm(space, q_out, {}, extra=extra)
    sums = np.array(list(f.modes))[:, None] + np.array(list(g.modes))
    inside = np.maximum.reduce(np.abs(sums), axis=2) <= space.mode_bound
    j1, j2 = inside.nonzero()
    slot_of = {}
    slots = np.array([slot_of.setdefault(m, len(slot_of))
                      for m in map(tuple, sums[inside].tolist())], dtype=np.intp)
    c1 = np.array(list(f.modes.values()))
    c2 = np.array(list(g.modes.values()))
    # Accumulate entry by entry into a flat array: np.add.at adds the terms of
    # each entry one at a time, in index order, which is the loop's order.
    ncomp, size = space.ncomp(q_out), prod(extra)
    acc = np.zeros(len(slot_of) * ncomp * size, dtype=complex)
    entries = comp[:, None] * size + np.arange(size)
    # Per pair: both gathered operands, the product and its entry indices.
    pair_bytes = len(sign) * (16 * (prod(f.extra) + prod(g.extra) + size) + 8 * size)
    step = max(1, _CHUNK_BYTES // pair_bytes)
    sign = sign.astype(complex).reshape(sign.shape + (1,) * len(extra))
    for lo in range(0, len(j1), step):
        a = c1[j1[lo:lo + step, None], i1]
        b = c2[j2[lo:lo + step, None], i2]
        ab = _value_product(a, b, len(f.extra), len(g.extra))
        np.multiply(sign, ab, out=ab)
        at = slots[lo:lo + step, None, None] * (ncomp * size) + entries
        np.add.at(acc, at.ravel(), ab.ravel())
    acc = acc.reshape((len(slot_of), ncomp) + extra)
    return FourierForm(space, q_out, dict(zip(slot_of, acc)), extra=extra)
