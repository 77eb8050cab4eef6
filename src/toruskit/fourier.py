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
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from .hodge import basis_subsets, merge_sign, subset_index

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


def _wedge_covector(space: FourierFormSpace, zeta: np.ndarray,
                    coeff: np.ndarray, q: int) -> np.ndarray:
    n = space.n
    idx = subset_index(n, q + 1)
    out = np.zeros((space.ncomp(q + 1),) + coeff.shape[1:], dtype=complex)
    for pos, s in enumerate(basis_subsets(n, q)):
        c = coeff[pos]
        for a in range(n):
            if zeta[a] == 0:
                continue
            merged, sign = merge_sign((a,), s)
            if merged is not None:
                out[idx[merged]] += sign * zeta[a] * c
    return out


def _contract_vector(space: FourierFormSpace, v: np.ndarray,
                     coeff: np.ndarray, q: int) -> np.ndarray:
    n = space.n
    idx = subset_index(n, q - 1)
    out = np.zeros((space.ncomp(q - 1),) + coeff.shape[1:], dtype=complex)
    for pos, s in enumerate(basis_subsets(n, q)):
        c = coeff[pos]
        for j, sj in enumerate(s):
            rest = s[:j] + s[j + 1:]
            out[idx[rest]] += ((-1) ** j) * v[sj] * c
    return out


def dbar(form: FourierForm) -> FourierForm:
    space = form.space
    out = {}
    for m, c in form.modes.items():
        z = TWO_PI * 1j * space.zeta(m)
        out[m] = _wedge_covector(space, z, c, form.q)
    return FourierForm(space, form.q + 1, out, extra=form.extra)


def laplace_scalar(space: FourierFormSpace, mode) -> float:
    z = space.zeta(mode)
    return float(TWO_PI ** 2 * np.sum(np.abs(z) ** 2))


def green(form: FourierForm) -> FourierForm:
    """Partial inverse of d-bar on its image: dbar^* / Laplacian, zero on
    the harmonic (zero) mode."""
    space = form.space
    out = {}
    for m, c in form.modes.items():
        lam = laplace_scalar(space, m)
        if lam < 1e-24:
            continue
        z = space.zeta(m)
        out[m] = (-TWO_PI * 1j / lam) * _contract_vector(space, z.conj(), c, form.q)
    return FourierForm(space, form.q - 1, out, extra=form.extra)


def harmonic_part(form: FourierForm) -> FourierForm:
    """The zero mode of the form, the only harmonic one."""
    zero = (0,) * (2 * form.space.n)
    out = {zero: form.modes[zero]} if zero in form.modes else {}
    return FourierForm(form.space, form.q, out, extra=form.extra)


# Bound on the temporaries of one batch of mode pairs in `wedge`, so that a
# large call does not raise peak memory.
_CHUNK_BYTES = 1 << 18


@lru_cache(maxsize=None)
def _merge_table(n: int, q_f: int, q_g: int) -> tuple:
    """Nonzero products e_{s1} ^ e_{s2} of (0,q_f) and (0,q_g) basis forms, as
    arrays (i1, i2, output component, complex sign) in (i1, i2) order."""
    idx = subset_index(n, q_f + q_g)
    rows = []
    for i1, s1 in enumerate(basis_subsets(n, q_f)):
        for i2, s2 in enumerate(basis_subsets(n, q_g)):
            merged, sign = merge_sign(s1, s2)
            if merged is not None:
                rows.append((i1, i2, idx[merged], sign))
    i1, i2, comp, sign = (np.array([r[k] for r in rows], dtype=np.intp)
                          for k in range(4))
    table = (i1, i2, comp, sign.astype(complex))
    for arr in table:
        arr.flags.writeable = False
    return table


def wedge(f: FourierForm, g: FourierForm) -> FourierForm:
    """Composition wedge: form factors wedge, value factors compose (f's
    matrix on the left). Modes outside the cube are truncated away.

    Batched over mode pairs with the arithmetic of the plain loop over f's
    modes, g's modes and merge-table rows: each product rounds as the loop's
    does, is multiplied by the sign as a complex number, and each output
    entry receives its terms in loop order. The result is bit for bit the
    loop's, output modes in order of first encounter."""
    space = f.space
    if g.space is not space and (g.space.n != space.n
                                 or g.space.mode_bound != space.mode_bound):
        raise ValueError("forms live in different spaces")
    q_out = f.q + g.q
    if f.extra and g.extra:
        extra = (f.extra[0], g.extra[1])
    else:
        extra = f.extra or g.extra
    i1, i2, comp, sign = _merge_table(space.n, f.q, g.q)
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
    sign = sign.reshape(sign.shape + (1,) * len(extra))
    for lo in range(0, len(j1), step):
        a = c1[j1[lo:lo + step, None], i1]
        b = c2[j2[lo:lo + step, None], i2]
        if f.extra and g.extra:
            ab = a @ b
        elif f.extra:
            ab = a * b.reshape(b.shape + (1,) * len(f.extra))
        elif g.extra:
            ab = a.reshape(a.shape + (1,) * len(g.extra)) * b
        else:
            # The products of numpy scalars round each partial product; an
            # array multiply may fuse them (FMA). Spell the product out.
            ab = np.empty(a.shape, dtype=complex)
            ab.real = a.real * b.real - a.imag * b.imag
            ab.imag = a.real * b.imag + a.imag * b.real
        np.multiply(sign, ab, out=ab)
        at = slots[lo:lo + step, None, None] * (ncomp * size) + entries
        np.add.at(acc, at.ravel(), ab.ravel())
    acc = acc.reshape((len(slot_of), ncomp) + extra)
    return FourierForm(space, q_out, dict(zip(slot_of, acc)), extra=extra)
