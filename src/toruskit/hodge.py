"""Exterior algebra over the lattice, (p,q) decomposition, genericity reports.

The Hodge decomposition of Lambda^k is realized through the derivation
extension of J: the (p,q) component is the i(p-q)-eigenspace, and the
projectors are Lagrange polynomials in the derivation matrix. That route
works unchanged over floats and over Gaussian rationals, which is what lets
the exact backend decide integral (p,p) kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import exact, lattice
from .errors import BackendRequired, DimensionTooSmall, IllConditioned
from .torus import ComplexStructure, MarkedTorus

PP_RESIDUAL_TOL = 1e-7


@lru_cache(maxsize=None)
def basis_subsets(dim: int, degree: int) -> tuple:
    return tuple(combinations(range(dim), degree))


@lru_cache(maxsize=None)
def subset_index(dim: int, degree: int) -> dict:
    return {s: i for i, s in enumerate(basis_subsets(dim, degree))}


def merge_sign(s1: tuple, s2: tuple):
    """Sorted union and sign of e_{s1} ^ e_{s2}; (None, 0) on a repeated index."""
    if set(s1) & set(s2):
        return None, 0
    inv = sum(1 for a in s1 for b in s2 if a > b)
    return tuple(sorted(s1 + s2)), -1 if inv % 2 else 1


class MultiVector:
    """Element of Lambda^k of the (complexified) lattice Z^{2n}.

    Coefficients are dense over the lexicographic basis of k-subsets of
    {1..2n}; dtype complex128 for the float backend, Gaussian rational
    objects for the exact one.
    """

    def __init__(self, dim: int, degree: int, coeffs=None, backend: str = "f64"):
        self.dim = int(dim)
        self.degree = int(degree)
        self.backend = backend
        size = len(basis_subsets(self.dim, self.degree))
        if coeffs is None:
            if backend == "f64":
                coeffs = np.zeros(size, dtype=complex)
            else:
                coeffs = np.array([exact.QI(0)] * size, dtype=object)
        else:
            coeffs = np.asarray(coeffs)
            if coeffs.shape != (size,):
                raise ValueError(f"expected {size} coefficients, got {coeffs.shape}")
        self.coeffs = coeffs

    @classmethod
    def from_terms(cls, dim: int, degree: int, terms: dict, backend: str = "f64"):
        w = cls(dim, degree, backend=backend)
        idx = subset_index(dim, degree)
        coeffs = w.coeffs.copy()
        for subset, c in terms.items():
            s = tuple(sorted(subset))
            if len(s) != degree or len(set(s)) != degree:
                raise ValueError(f"bad index set {subset}")
            coeffs[idx[s]] = coeffs[idx[s]] + c
        w.coeffs = coeffs
        return w

    @classmethod
    def basis_element(cls, dim: int, *indices, backend: str = "f64"):
        one = 1.0 if backend == "f64" else exact.QI(1)
        return cls.from_terms(dim, len(indices), {tuple(indices): one}, backend)

    def terms(self):
        for s, c in zip(basis_subsets(self.dim, self.degree), self.coeffs):
            if c != 0:
                yield s, c

    def to_float(self) -> "MultiVector":
        if self.backend == "f64":
            return self
        return MultiVector(self.dim, self.degree,
                           np.array([complex(c) for c in self.coeffs]))

    def norm(self) -> float:
        return float(np.linalg.norm(self.to_float().coeffs))

    def conj(self) -> "MultiVector":
        if self.backend == "f64":
            return MultiVector(self.dim, self.degree, self.coeffs.conj())
        cc = np.array([c.conjugate() for c in self.coeffs], dtype=object)
        return MultiVector(self.dim, self.degree, cc, backend=self.backend)

    def __add__(self, other: "MultiVector") -> "MultiVector":
        self._check_like(other)
        return MultiVector(self.dim, self.degree, self.coeffs + other.coeffs,
                           backend=self.backend)

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        self._check_like(other)
        return MultiVector(self.dim, self.degree, self.coeffs - other.coeffs,
                           backend=self.backend)

    def __mul__(self, scalar) -> "MultiVector":
        return MultiVector(self.dim, self.degree, self.coeffs * scalar,
                           backend=self.backend)

    __rmul__ = __mul__

    def _check_like(self, other):
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("degree/dimension mismatch")

    def wedge(self, other: "MultiVector") -> "MultiVector":
        self._check_like_dim(other)
        out = MultiVector(self.dim, self.degree + other.degree, backend=self.backend)
        idx = subset_index(self.dim, out.degree)
        coeffs = out.coeffs.copy()
        for s1, c1 in self.terms():
            for s2, c2 in other.terms():
                merged, sign = merge_sign(s1, s2)
                if merged is not None:
                    coeffs[idx[merged]] = coeffs[idx[merged]] + sign * c1 * c2
        out.coeffs = coeffs
        return out

    def _check_like_dim(self, other):
        if self.dim != other.dim:
            raise ValueError("ambient dimension mismatch")

    def __repr__(self):
        items = ", ".join(f"{s}:{c}" for s, c in list(self.terms())[:4])
        return f"MultiVector(deg={self.degree}, dim={self.dim}, {items} ...)"


def vector_wedge(dim: int, *vectors, backend: str = "f64") -> MultiVector:
    """Wedge of plain vectors (each of length dim) as a MultiVector."""
    out = None
    for v in vectors:
        w = MultiVector(dim, 1, np.asarray(
            v, dtype=object if backend != "f64" else complex), backend=backend)
        out = w if out is None else out.wedge(w)
    return out


def derivation_matrix(jm: np.ndarray, degree: int) -> np.ndarray:
    """Matrix of the derivation extension of J on Lambda^degree.

    Works for float and object (exact) matrices alike.
    """
    dim = jm.shape[0]
    subs = basis_subsets(dim, degree)
    idx = subset_index(dim, degree)
    is_object = jm.dtype == object
    if is_object:
        zero = jm[0, 0] * 0
        d = np.full((len(subs), len(subs)), zero, dtype=object)
    else:
        d = np.zeros((len(subs), len(subs)), dtype=jm.dtype)
    for col, s in enumerate(subs):
        sset = set(s)
        for p, sp in enumerate(s):
            for m in range(dim):
                c = jm[m, sp]
                if (is_object and c == 0) or (not is_object and c == 0.0):
                    continue
                if m == sp:
                    d[col, col] = d[col, col] + c  # diagonal slot, sign +1
                    continue
                if m in sset:
                    continue
                rest = s[:p] + s[p + 1:]
                pos_new = sum(1 for x in rest if x < m)
                sign = -1 if (pos_new - p) % 2 else 1
                target = tuple(sorted(rest + (m,)))
                r = idx[target]
                d[r, col] = d[r, col] + sign * c
    return d


def pq_labels(n: int, degree: int) -> list[tuple[int, int]]:
    return [(p, degree - p) for p in range(max(0, degree - n), min(n, degree) + 1)]


def pq_projectors(j: ComplexStructure, degree: int, exact_mode: bool = False) -> dict:
    """Spectral projectors of the derivation: Lagrange polynomials in D_J."""
    n = j.dim // 2
    labels = pq_labels(n, degree)
    if exact_mode:
        if j.j_exact is None:
            raise BackendRequired("exact projectors need a rational structure")
        d = derivation_matrix(j.j_exact, degree)
        dq = np.empty(d.shape, dtype=object)
        for idx in np.ndindex(d.shape):
            dq[idx] = exact.QI(d[idx])
        size = d.shape[0]
        out = {}
        for (p, q) in labels:
            acc = exact.eye_exact(size, exact.QI)
            lam = exact.I_Q * (p - q)
            for (pp, qq) in labels:
                if (pp, qq) == (p, q):
                    continue
                mu = exact.I_Q * (pp - qq)
                shifted = dq.copy()
                for i in range(size):
                    shifted[i, i] = shifted[i, i] - mu
                acc = exact.mm(acc, shifted)
                denom = lam - mu
                acc = np.vectorize(lambda v: v / denom, otypes=[object])(acc)
            out[(p, q)] = acc
        return out
    d = derivation_matrix(j.j.astype(complex), degree)
    size = d.shape[0]
    out = {}
    for (p, q) in labels:
        acc = np.eye(size, dtype=complex)
        lam = 1j * (p - q)
        for (pp, qq) in labels:
            if (pp, qq) == (p, q):
                continue
            mu = 1j * (pp - qq)
            acc = acc @ (d - mu * np.eye(size)) / (lam - mu)
        out[(p, q)] = acc
    return out


def pq_decompose(w: MultiVector, j: ComplexStructure,
                 exact_mode: bool | None = None) -> dict:
    """Split w into its Hodge (p,q) components. Components sum back to w."""
    if exact_mode is None:
        exact_mode = w.backend != "f64" and j.j_exact is not None
    projs = pq_projectors(j, w.degree, exact_mode=exact_mode)
    out = {}
    if exact_mode:
        coeffs = np.array([exact.QI.coerce(c) for c in w.coeffs], dtype=object)
        for label, pi in projs.items():
            out[label] = MultiVector(w.dim, w.degree, pi.dot(coeffs), backend="rational")
        return out
    coeffs = w.to_float().coeffs
    resid = 0.0
    for label, pi in projs.items():
        comp = pi @ coeffs
        out[label] = MultiVector(w.dim, w.degree, comp)
        resid = max(resid, float(np.linalg.norm(pi @ pi - pi)))
    if resid > 1e-6:
        raise IllConditioned(f"projector algebra degraded (||P^2-P|| = {resid:.2e})")
    return out


def hodge_type(w: MultiVector, j: ComplexStructure, tol: float = 1e-9):
    """(p,q) if w is pure of that type at tolerance, else None for mixed w."""
    if w.dim != j.dim:
        raise ValueError(f"multivector of dim {w.dim} does not match the "
                         f"structure of dim {j.dim}")
    total = w.norm()
    if total == 0:
        return None
    comps = pq_decompose(w, j)
    best, best_norm = None, -1.0
    for label, comp in comps.items():
        nn = comp.norm()
        if nn > best_norm:
            best, best_norm = label, nn
    for label, comp in comps.items():
        if label != best and comp.norm() >= tol * total:
            return None
    return best


@dataclass
class GenericityReport:
    """Machine-checkable genericity verdict for a marked torus."""

    verdict: str                      # "non_generic" | "no_obstruction_found"
    mode: str                         # "exact" | "heuristic"
    bound: int | None = None
    subtorus: tuple | None = None     # (integer basis rows, l)
    pp_class: tuple | None = None     # (p, integral MultiVector)

    def re_verify(self, torus: MarkedTorus, tol: float = PP_RESIDUAL_TOL) -> bool:
        """Re-check every certificate against the torus it was issued for."""
        if self.verdict != "non_generic":
            return True
        ok = True
        if self.subtorus is not None:
            basis, ell = self.subtorus
            got = verify_sublattice(torus, basis, tol=tol)
            ok = ok and got is not None and got[1] == ell
        if self.pp_class is not None:
            p, w = self.pp_class
            j = torus.induced_structure()
            ok = ok and hodge_type(w.to_float(), j, tol=tol) == (p, p)
        return ok


def integral_pp_kernel(torus: MarkedTorus, p: int) -> list[MultiVector]:
    """Basis of the rational pure-(p,p) subspace of Lambda^{2p} of the lattice.

    Exact backend only. Kernel vectors are returned with cleared denominators,
    so a nonempty result exhibits integral (p,p) classes directly.
    """
    if torus.backend != "rational":
        raise BackendRequired("integral_pp_kernel needs the rational backend")
    if not 1 <= p <= torus.n:
        raise ValueError(f"p must lie in 1..n, got {p}")
    j = torus.induced_structure()
    projs = pq_projectors(j, 2 * p, exact_mode=True)
    size = len(basis_subsets(2 * torus.n, 2 * p))
    non_pp = exact.eye_exact(size, exact.QI)
    pi = projs[(p, p)]
    for i in range(size):
        for k in range(size):
            non_pp[i, k] = non_pp[i, k] - pi[i, k]
    re, im = exact.split_re_im(non_pp)
    stacked = np.concatenate([re, im], axis=0)
    kernel = exact.nullspace(stacked)
    out = []
    for vec in kernel:
        ints = exact.clear_denominators(vec)
        out.append(MultiVector(2 * torus.n, 2 * p,
                               np.array([exact.QI(int(v)) for v in ints], dtype=object),
                               backend="rational"))
    return out


def pp_class_heuristic(torus: MarkedTorus, p: int, bound: int = 10):
    """Integral class of type (p,p) with |coefficients| <= bound, or None.

    Integer-relation search: LLL on the rows of the non-(p,p) projector scaled
    by a large constant; hits are re-verified against the float projector.
    Absence is not a proof.
    """
    if bound < 1:
        return None
    j = torus.induced_structure()
    projs = pq_projectors(j, 2 * p)
    size = len(basis_subsets(2 * torus.n, 2 * p))
    non_pp = np.eye(size) - projs[(p, p)]
    a = np.vstack([non_pp.real, non_pp.imag])
    x = lattice.small_relation(a, bound, PP_RESIDUAL_TOL)
    if x is None:
        return None
    xf = np.array([int(v) for v in x], dtype=float)
    if np.linalg.norm(non_pp @ xf) >= PP_RESIDUAL_TOL * np.linalg.norm(xf):
        return None
    return MultiVector(2 * torus.n, 2 * p, xf.astype(complex))


def verify_sublattice(torus: MarkedTorus, basis, tol: float = PP_RESIDUAL_TOL):
    """Check a candidate sublattice: returns (basis, l) when phi(L) spans a
    complex subspace of dimension rank(L)/2, else None."""
    rows = np.asarray(basis, dtype=object)
    if rows.ndim != 2 or rows.shape[0] % 2:
        return None
    if torus.backend == "rational":
        bq = exact.frac_matrix(rows)
        if exact.rank_exact(bq) < rows.shape[0]:
            return None
        img = exact.mm(torus.periods_exact, exact.qi_matrix(rows).T)
        rank = exact.rank_exact(img)
    else:
        bf = rows.astype(float)
        if np.linalg.matrix_rank(bf) < rows.shape[0]:
            return None
        img = torus.periods @ bf.T
        sv = np.linalg.svd(img, compute_uv=False)
        rank = int(np.sum(sv > tol * max(sv[0], 1.0)))
    ell = rows.shape[0] // 2
    return (rows, ell) if rank == ell else None


def _plane_sublattice_exact(torus: MarkedTorus, v: np.ndarray):
    """span_Q{v, Jv} intersected with Z^{2n}, as a saturated integer basis."""
    j = torus.induced_structure()
    jv = j.j_exact.dot(np.array([Fraction(int(x)) for x in v], dtype=object))
    plane = np.empty((2, len(v)), dtype=object)
    plane[0, :] = [Fraction(int(x)) for x in v]
    plane[1, :] = jv
    ann = exact.nullspace(plane)   # functionals vanishing on the plane
    if not ann:
        return None
    n_mat = np.vstack([exact.clear_denominators(a) for a in ann])
    kernel = exact.integer_kernel(n_mat)
    if len(kernel) != 2:
        return None
    return np.vstack(kernel)


def subtorus_search(torus: MarkedTorus, mode: str = "auto", bound: int = 10,
                    candidate=None):
    """Find (sublattice basis, l) witnessing a proper subtorus, or None.

    exact     -- rational J: span{v, Jv} meets Z^{2n} in a rank-2 invariant
                 sublattice for every lattice vector v; returns the first.
    heuristic -- float J: for each basis vector, LLL-search for a second short
                 integer vector in the real plane span{v, Jv} within 1e-7.
    verify    -- check a user-supplied candidate of any rank.
    """
    if mode == "verify":
        if candidate is None:
            raise ValueError("verify mode needs a candidate basis")
        return verify_sublattice(torus, candidate)
    if mode == "auto":
        mode = "exact" if torus.backend == "rational" else "heuristic"
    two_n = 2 * torus.n
    if mode == "exact":
        if torus.backend != "rational":
            raise BackendRequired("exact subtorus search needs rational periods")
        for k in range(two_n):
            v = np.zeros(two_n, dtype=int)
            v[k] = 1
            basis = _plane_sublattice_exact(torus, v)
            if basis is None:
                continue
            got = verify_sublattice(torus, basis)
            if got is not None and got[1] == 1:
                return got
        return None
    if mode != "heuristic":
        raise ValueError(f"unknown mode {mode!r}")
    if torus.backend == "rational":
        raise BackendRequired("heuristic subtorus search expects a float torus")
    j = torus.induced_structure().j
    for k in range(two_n):
        v = np.zeros(two_n)
        v[k] = 1.0
        plane = np.stack([v, j @ v], axis=1)
        q, _ = np.linalg.qr(plane)
        resid_op = np.eye(two_n) - q @ q.T
        found = []
        for x in lattice.relation_candidates(resid_op):
            xf = np.array([int(t) for t in x], dtype=float)
            if np.max(np.abs(xf)) > bound:
                continue
            if np.linalg.norm(resid_op @ xf) >= PP_RESIDUAL_TOL * np.linalg.norm(xf):
                continue
            if all(np.linalg.matrix_rank(np.vstack([f, xf])) == 2 for f in found):
                found.append(xf)
            if len(found) == 2:
                break
        if len(found) < 2:
            continue
        ints = np.vstack([[int(round(t)) for t in f] for f in found]).astype(object)
        ann = exact.nullspace(exact.frac_matrix(ints))
        if not ann:
            continue
        n_mat = np.vstack([exact.clear_denominators(a) for a in ann])
        kernel = exact.integer_kernel(n_mat)
        if len(kernel) != 2:
            continue
        got = verify_sublattice(torus, np.vstack(kernel))
        if got is not None and got[1] == 1:
            return got
    return None


def is_generic(torus: MarkedTorus, bound: int = 10) -> GenericityReport:
    """Genericity certification.

    Exact tori are provably never generic (the rational structure makes
    span{v, Jv} invariant for every lattice vector), so exact mode always
    returns a witness. Float mode is a bounded heuristic: a clean sweep is
    reported as NoObstructionFound(bound), never as a proof.
    """
    if torus.n < 3:
        raise DimensionTooSmall(f"genericity needs n >= 3, got n = {torus.n}")
    mode = "exact" if torus.backend == "rational" else "heuristic"
    sub = subtorus_search(torus, mode=mode, bound=bound)
    if sub is not None:
        return GenericityReport(verdict="non_generic", mode=mode,
                                bound=None if mode == "exact" else bound,
                                subtorus=sub)
    for p in (1, 2):
        if mode == "exact":
            kernel = integral_pp_kernel(torus, p)
            if kernel:
                return GenericityReport(verdict="non_generic", mode=mode,
                                        pp_class=(p, kernel[0]))
        else:
            w = pp_class_heuristic(torus, p, bound=bound)
            if w is not None:
                return GenericityReport(verdict="non_generic", mode=mode,
                                        bound=bound, pp_class=(p, w))
    if mode == "exact":
        # Unreachable in practice (the subtorus construction always fires), but
        # the honest verdict would still not be "generic".
        return GenericityReport(verdict="no_obstruction_found", mode=mode, bound=None)
    return GenericityReport(verdict="no_obstruction_found", mode=mode, bound=bound)
