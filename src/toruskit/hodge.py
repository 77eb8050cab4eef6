"""Exterior algebra over the lattice, (p,q) decomposition, genericity reports.

The Hodge decomposition of Lambda^k is realized through the derivation
extension of J: the (p,q) component is the i(p-q)-eigenspace, and the
projectors are Lagrange polynomials in the derivation matrix. One loop builds
them over floats, which decompose every class, or over Gaussian rationals,
which decide the integral (p,p) kernels of a rational torus exactly.

Every route is read from the data: a torus with Gaussian-rational periods
takes the exact route, any other the float one, and a MultiVector is exact
when its coefficients are an object array. Genericity asks for a proper
subtorus or an integral (p,p) class with 0 < p < n. A rational J always has
the subtorus span_Q{e1, Je1}; a float torus gets a bounded LLL search, whose
clean sweep is no proof.

One cached wedge table of the signed products e_s ^ e_t carries the sign rule
for MultiVector.wedge, derivation_matrix and fourier's dbar, green and wedge;
the tests keep the loops it replaced as its oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@lru_cache(maxsize=None)
def wedge_table(dim: int, p: int, q: int) -> tuple:
    """The nonzero products e_s ^ e_t of basis p- and q-forms, the one sign
    rule of the exterior algebra: read-only arrays (index of s, index of t,
    index of the sorted union, sign +-1), in (s, t) order."""
    idx = subset_index(dim, p + q)
    rows = []
    for i, s in enumerate(basis_subsets(dim, p)):
        for k, t in enumerate(basis_subsets(dim, q)):
            merged, sign = merge_sign(s, t)
            if merged is not None:
                rows.append((i, k, idx[merged], sign))
    table = np.array(rows, dtype=np.intp).reshape(-1, 4).T.copy()
    table.flags.writeable = False
    return tuple(table)


def complex_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a * b, rounded as numpy rounds a product of complex scalars:
    each partial product on its own, where an array multiply may fuse (FMA)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class MultiVector:
    """Element of Lambda^k of the (complexified) lattice Z^{2n}.

    Coefficients are dense over the lexicographic basis of k-subsets of
    {1..2n}. The field is read from them: an object array holds exact
    (Gaussian-rational) coefficients, any other array is held as complex128.
    """

    def __init__(self, dim: int, degree: int, coeffs=None):
        self.dim = int(dim)
        self.degree = int(degree)
        size = len(basis_subsets(self.dim, self.degree))
        if coeffs is None:
            coeffs = np.zeros(size, dtype=complex)
        else:
            coeffs = np.asarray(coeffs)
            if coeffs.dtype != object:
                coeffs = coeffs.astype(complex, copy=False)
            if coeffs.shape != (size,):
                raise ValueError(f"expected {size} coefficients, got {coeffs.shape}")
        self.coeffs = coeffs

    @property
    def backend(self) -> str:
        return "rational" if self.coeffs.dtype == object else "f64"

    @classmethod
    def from_terms(cls, dim: int, degree: int, terms: dict):
        idx = subset_index(dim, degree)
        exact_terms = np.asarray(list(terms.values())).dtype == object
        coeffs = np.zeros(len(idx), dtype=object if exact_terms else complex)
        for subset, c in terms.items():
            s = tuple(sorted(subset))
            if len(s) != degree or len(set(s)) != degree:
                raise ValueError(f"bad index set {subset}")
            coeffs[idx[s]] += c
        return cls(dim, degree, coeffs)

    @classmethod
    def basis_element(cls, dim: int, *indices):
        return cls.from_terms(dim, len(indices), {tuple(indices): 1.0})

    def terms(self):
        for s, c in zip(basis_subsets(self.dim, self.degree), self.coeffs):
            if c != 0:
                yield s, c

    def to_float(self) -> "MultiVector":
        return MultiVector(self.dim, self.degree,
                           self.coeffs.astype(complex, copy=False))

    def norm(self) -> float:
        c = self.to_float().coeffs
        with np.errstate(over="ignore"):
            total = float(np.linalg.norm(c))
            if not np.isfinite(total):
                # the sum of squares overflowed: scale by the largest part
                big = float(np.max(np.abs(np.concatenate([c.real, c.imag]))))
                total = big * float(np.linalg.norm(c / big))
        return total

    def conj(self) -> "MultiVector":
        return MultiVector(self.dim, self.degree, self.coeffs.conj())

    def __add__(self, other: "MultiVector") -> "MultiVector":
        self._check_like(other)
        return MultiVector(self.dim, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        self._check_like(other)
        return MultiVector(self.dim, self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "MultiVector":
        return MultiVector(self.dim, self.degree, self.coeffs * scalar)

    __rmul__ = __mul__

    def _check_like(self, other):
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("degree/dimension mismatch")

    def wedge(self, other: "MultiVector") -> "MultiVector":
        """The products (sign * c1) * c2, rounded as scalars and summed in table
        order. Zero terms are skipped, as coefficients may be infinite."""
        if self.dim != other.dim:
            raise ValueError("ambient dimension mismatch")
        degree = self.degree + other.degree
        i, k, comp, sign = wedge_table(self.dim, self.degree, other.degree)
        live = (self.coeffs[i] != 0) & (other.coeffs[k] != 0)
        a, b, sign = self.coeffs[i[live]], other.coeffs[k[live]], sign[live]
        coeffs = np.zeros(len(basis_subsets(self.dim, degree)), dtype=np.result_type(a, b))
        terms = sign * a * b if coeffs.dtype == object else complex_product(sign * a, b)
        np.add.at(coeffs, comp[live], terms)
        return MultiVector(self.dim, degree, coeffs)

    def __repr__(self):
        items = ", ".join(f"{s}:{c}" for s, c in list(self.terms())[:4])
        return f"MultiVector(deg={self.degree}, dim={self.dim}, {items} ...)"


def derivation_matrix(jm: np.ndarray, degree: int) -> np.ndarray:
    """Matrix of the derivation extension of J on Lambda^degree, the sum of
    J[m, l] e_m ^ i_l: as e_l ^ e_t = sign e_s gives i_l e_s = sign e_t, each
    pair of rows of the (1, degree - 1) wedge table sharing t is one term.

    Works for float and object (exact) matrices alike; the entries an object
    J never reaches stay the integer 0.
    """
    dim = jm.shape[0]
    size = len(basis_subsets(dim, degree))
    d = np.zeros((size, size), dtype=jm.dtype)
    if degree == 0:
        return d
    m, t, comp, sign = wedge_table(dim, 1, degree - 1)
    # Row pairs in row order: a diagonal entry gets its J[l, l] in rising l.
    x, y = np.nonzero(t[:, None] == t)
    x, y = np.array((x, y))[:, jm[m[x], m[y]] != 0]
    np.add.at(d, (comp[x], comp[y]), sign[x] * sign[y] * jm[m[x], m[y]])
    return d


def pq_labels(n: int, degree: int) -> list[tuple[int, int]]:
    return [(p, degree - p) for p in range(max(0, degree - n), min(n, degree) + 1)]


def pq_projectors(j: ComplexStructure, degree: int, exact_mode: bool = False) -> dict:
    """Spectral projectors of the derivation: Lagrange polynomials in D_J.

    Exact mode works over Gaussian rationals from the rational J and needs
    one (integral_pp_kernel is its caller); float mode works over complex
    floats. Both run the same loop.
    """
    labels = pq_labels(j.dim // 2, degree)
    if exact_mode:
        if j.j_exact is None:
            raise BackendRequired("exact projectors need a rational structure")
        d = exact.qi_matrix(derivation_matrix(j.j_exact, degree))
        eye, unit, mul = exact.eye_exact(d.shape[0], exact.QI), exact.I_Q, exact.mm
    else:
        d = derivation_matrix(j.j.astype(complex), degree)
        eye, unit, mul = np.eye(d.shape[0], dtype=complex), 1j, np.matmul
    diag = np.diag_indices(d.shape[0])
    out = {}
    for (p, q) in labels:
        acc = eye
        lam = unit * (p - q)
        for (pp, qq) in labels:
            if (pp, qq) == (p, q):
                continue
            mu = unit * (pp - qq)
            shifted = d.copy()
            shifted[diag] -= mu
            acc = mul(acc, shifted) / (lam - mu)
        out[(p, q)] = acc
    return out


def pq_decompose(w: MultiVector, j: ComplexStructure) -> dict:
    """Split w into its Hodge (p,q) components over complex floats; an exact
    class is decomposed through to_float(). Components sum back to w."""
    coeffs = w.to_float().coeffs
    out = {}
    resid = 0.0
    for label, pi in pq_projectors(j, w.degree).items():
        out[label] = MultiVector(w.dim, w.degree, pi @ coeffs)
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
    norms = {label: comp.norm() for label, comp in pq_decompose(w, j).items()}
    best = max(norms, key=norms.get)
    mixed = any(nn >= tol * total for label, nn in norms.items() if label != best)
    return None if mixed else best


@dataclass
class GenericityReport:
    """Machine-checkable genericity verdict for a marked torus."""

    verdict: str                      # "non_generic" | "no_obstruction_found"
    mode: str                         # "exact" | "heuristic"
    bound: int | None = None
    subtorus: tuple | None = None     # (integer basis rows, l)
    pp_class: tuple | None = None     # (p, integral MultiVector)

    def re_verify(self, torus: MarkedTorus) -> bool:
        """Re-check every certificate against the torus it was issued for, at
        PP_RESIDUAL_TOL."""
        if self.verdict != "non_generic":
            return True
        ok = True
        if self.subtorus is not None:
            got = verify_sublattice(torus, self.subtorus[0])
            ok = got is not None and got[1] == self.subtorus[1]
        if self.pp_class is not None:
            p, w = self.pp_class
            j = torus.induced_structure()
            ok = ok and hodge_type(w, j, tol=PP_RESIDUAL_TOL) == (p, p)
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
    pi = pq_projectors(j, 2 * p, exact_mode=True)[(p, p)]
    non_pp = exact.eye_exact(pi.shape[0], exact.QI) - pi
    re, im = exact.split_re_im(non_pp)
    kernel = exact.nullspace(np.concatenate([re, im], axis=0))
    return [MultiVector(2 * torus.n, 2 * p, np.array(
        [exact.QI(int(v)) for v in exact.clear_denominators(vec)], dtype=object))
        for vec in kernel]


def pp_class_heuristic(torus: MarkedTorus, p: int, bound: int = 10):
    """Integral class of type (p,p) with |coefficients| <= bound, or None.

    Integer-relation search: LLL on the rows of the non-(p,p) projector scaled
    by a large constant; hits are re-verified against the float projector.
    Absence is not a proof.
    """
    pi = pq_projectors(torus.induced_structure(), 2 * p)[(p, p)]
    non_pp = np.eye(pi.shape[0]) - pi
    a = np.vstack([non_pp.real, non_pp.imag])
    x = lattice.small_relation(a, bound, PP_RESIDUAL_TOL)
    if x is None:
        return None
    xf = x.astype(float)
    if np.linalg.norm(non_pp @ xf) >= PP_RESIDUAL_TOL * np.linalg.norm(xf):
        return None
    return MultiVector(2 * torus.n, 2 * p, xf.astype(complex))


def verify_sublattice(torus: MarkedTorus, basis):
    """Check a candidate sublattice: returns (basis, l) when phi(L) spans a
    complex subspace of dimension rank(L)/2, else None. A float torus counts
    singular values above PP_RESIDUAL_TOL times the largest (or 1)."""
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
        rank = int(np.sum(sv > PP_RESIDUAL_TOL * max(sv[0], 1.0)))
    ell = rows.shape[0] // 2
    return (rows, ell) if rank == ell else None


def _saturated_plane(rows) -> np.ndarray:
    """Integer basis of span_Q(rows) intersected with Z^d, for two independent
    rational rows with d > 2. The basis is saturated: it generates the whole
    intersection, not a finite-index sublattice of it."""
    ann = exact.nullspace(exact.frac_matrix(rows))  # functionals vanishing on rows
    return np.vstack(exact.integer_kernel(
        [exact.clear_denominators(a) for a in ann]))


def subtorus_search(torus: MarkedTorus, bound: int = 10):
    """Find (sublattice basis, l) witnessing a proper subtorus, or None.

    Rational torus: span_Q{e1, Je1} is J-invariant and 2-dimensional for a
    rational J, so its saturated lattice plane is returned, verified (l = 1).
    Float torus: for each basis vector v, LLL-search for two independent
    integer vectors with |coefficients| <= bound in the real plane
    span{v, Jv}, within PP_RESIDUAL_TOL; the first saturated plane that
    verifies is returned. None from the float search is not a proof.
    """
    if torus.n < 2:
        return None  # a curve has no proper subtorus
    two_n = 2 * torus.n
    if torus.backend == "rational":
        jm = torus.induced_structure().j_exact
        e1 = exact.frac_matrix(np.eye(two_n, dtype=int)[0])
        return verify_sublattice(torus, _saturated_plane(np.vstack([e1, jm[:, 0]])))
    j = torus.induced_structure().j
    for k in range(two_n):
        v = np.zeros(two_n)
        v[k] = 1.0
        plane = np.stack([v, j @ v], axis=1)
        q, _ = np.linalg.qr(plane)
        resid_op = np.eye(two_n) - q @ q.T
        found = []
        for x in lattice.small_relations(resid_op, bound, PP_RESIDUAL_TOL):
            if all(np.linalg.matrix_rank(np.vstack([f, x]).astype(float)) == 2
                   for f in found):
                found.append(x)
            if len(found) == 2:
                got = verify_sublattice(torus, _saturated_plane(np.vstack(found)))
                if got is not None:
                    return got
                break
    return None


def is_generic(torus: MarkedTorus, bound: int = 10) -> GenericityReport:
    """Genericity certification: a proper subtorus or an integral (p,p) class
    with 0 < p < n makes a torus non-generic.

    Rational tori are provably never generic: subtorus_search returns the
    saturated plane of span_Q{e1, Je1} as the witness. A float torus gets the
    bounded subtorus search and then pp_class_heuristic for each p in
    1..n-1; a clean sweep is reported as no_obstruction_found at that bound,
    never as a proof.
    """
    if torus.n < 3:
        raise DimensionTooSmall(f"genericity needs n >= 3, got n = {torus.n}")
    if torus.backend == "rational":
        sub = subtorus_search(torus)
        assert sub is not None, "span{e1, Je1} is invariant for a rational J"
        return GenericityReport(verdict="non_generic", mode="exact", subtorus=sub)
    mode = "heuristic"
    sub = subtorus_search(torus, bound=bound)
    if sub is not None:
        return GenericityReport(verdict="non_generic", mode=mode, bound=bound,
                                subtorus=sub)
    for p in range(1, torus.n):
        w = pp_class_heuristic(torus, p, bound=bound)
        if w is not None:
            return GenericityReport(verdict="non_generic", mode=mode,
                                    bound=bound, pp_class=(p, w))
    return GenericityReport(verdict="no_obstruction_found", mode=mode, bound=bound)
