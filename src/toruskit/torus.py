"""Period matrices, flat metrics, complex structures, isotropic frames.

Conventions used throughout the package:

* V = R^{2n} carries the lattice Z^{2n}; a marked torus is a complex n x 2n
  period matrix whose columns are the images of the lattice generators.
* For a complex structure J, V^{1,0} is the (+i)-eigenspace of J on the
  complexification and V^{0,1} the (-i)-eigenspace. Isotropic frames span
  V^{0,1}.
* Two numeric backends for tori and structures: "f64" (numpy, default) and
  "rational" (Gaussian-rational periods with their exact rational J, as
  object arrays). The backend is read from the data: a torus is rational
  when it carries exact periods, a structure when it carries its exact J.
  Frames are float only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exact
from .errors import DegenerateLattice, IllConditioned, NotCompatible
from .linalg import DEFAULT_TOL, frob, haar_orthogonal

_DEGENERATE_RTOL = 1e-12
# structure_from_frame: the smallest singular value of [conj(B) | B], relative
# to the largest, below which V^{0,1} counts as meeting its conjugate.
_CONJUGATE_RTOL = 1e-10
# frame_from_structure: remaining column norms of the eigenprojector within
# this relative gap of the largest are a tie, broken towards the lowest index.
_PIVOT_TIE_RTOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def real_stack(periods: np.ndarray) -> np.ndarray:
    """Stack Re over Im of an n x 2n period matrix into a real 2n x 2n matrix."""
    return np.vstack([periods.real, periods.imag])


@dataclass(frozen=True)
class MarkedTorus:
    """Compact complex torus C^n / phi(Z^{2n}) with a marked lattice basis."""

    n: int
    periods: np.ndarray                  # complex n x 2n (float view in both backends)
    periods_exact: np.ndarray | None = None
    cond: float = field(default=0.0, compare=False)

    @property
    def backend(self) -> str:
        return "f64" if self.periods_exact is None else "rational"

    def induced_structure(self) -> "ComplexStructure":
        """Multiplication by i on C^n pulled back to R^{2n} through the periods.

        Rational for Gaussian-rational periods, which is what makes the exact
        backend a non-genericity oracle.
        """
        if self.periods_exact is not None:
            re, im = exact.split_re_im(self.periods_exact)
            a = np.concatenate([re, im], axis=0)
            b = np.concatenate([-im, re], axis=0)
            j = exact.solve_exact(a, b)
            return ComplexStructure(j=exact.to_complex(j).real, j_exact=j)
        a = real_stack(self.periods)
        b = np.vstack([-self.periods.imag, self.periods.real])
        return ComplexStructure(j=np.linalg.solve(a, b))


def make_torus(periods) -> MarkedTorus:
    """Validate a period matrix. Backend is inferred from the entry type.

    Raises DegenerateLattice when the stacked real 2n x 2n matrix is singular
    beyond tolerance (the columns fail to span R^{2n}).
    """
    arr = np.asarray(periods)
    if arr.dtype == object:
        pex = exact.qi_matrix(arr)
        n, two_n = pex.shape
        if two_n != 2 * n:
            raise ValueError(f"period matrix must be n x 2n, got {pex.shape}")
        re, im = exact.split_re_im(pex)
        stacked = np.concatenate([re, im], axis=0)
        if exact.rank_exact(stacked) < 2 * n:
            raise DegenerateLattice("periods have real rank < 2n (exact)")
        pfloat = exact.to_complex(pex)
        cond = float(np.linalg.cond(real_stack(pfloat)))
        return MarkedTorus(n=n, periods=_freeze(pfloat), periods_exact=pex,
                           cond=cond)

    p = np.asarray(periods, dtype=complex)
    if p.ndim != 2 or p.shape[1] != 2 * p.shape[0]:
        raise ValueError(f"period matrix must be n x 2n, got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("period matrix has non-finite entries")
    a = real_stack(p)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= _DEGENERATE_RTOL * sv[0]:
        raise DegenerateLattice(
            f"periods have real rank < 2n (sigma_min/sigma_max = {sv[-1] / sv[0]:.2e})")
    return MarkedTorus(n=p.shape[0], periods=_freeze(p), cond=float(sv[0] / sv[-1]))


def random_torus(n: int, seed, backend: str = "f64") -> MarkedTorus:
    """Seeded random marked torus.

    Float: period entries with i.i.d. uniform(-1, 1) real and imaginary parts.
    Rational: [Id | X + iY] with small integer/half-integer X and integer Y,
    resampled until the stacked real matrix is invertible.
    """
    rng = np.random.default_rng(seed)
    if backend == "f64":
        while True:
            p = rng.uniform(-1, 1, (n, 2 * n)) + 1j * rng.uniform(-1, 1, (n, 2 * n))
            try:
                return make_torus(p)
            except DegenerateLattice:  # pragma: no cover - measure zero
                continue
    if backend != "rational":
        raise ValueError(f"unknown backend {backend!r}")
    from fractions import Fraction
    while True:
        x = rng.integers(-2, 3, (n, n))
        y = rng.integers(-1, 2, (n, n))
        if abs(np.linalg.det(y.astype(float))) < 0.5:
            continue
        m = np.empty((n, 2 * n), dtype=object)
        for i in range(n):
            for j in range(n):
                m[i, j] = exact.QI(1 if i == j else 0)
                m[i, n + j] = exact.QI(Fraction(int(x[i, j]), 2), int(y[i, j]))
        try:
            return make_torus(m)
        except DegenerateLattice:
            continue


@dataclass(frozen=True)
class Metric:
    """Flat Riemannian metric on V = R^{2n}: symmetric positive definite."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        g = 0.5 * (g + g.T)
        # Positive definiteness is read off the eigh that gives g^{-1/2}:
        # eigvalsh can round the smallest eigenvalue above 0 where eigh
        # rounds it to 0 or below, which would leave sqrt_inv non-finite.
        w, q = np.linalg.eigh(g)
        if w[0] <= 0:
            raise ValueError(f"metric is not positive definite (min eig {w[0]:.3e})")
        object.__setattr__(self, "g", _freeze(g))
        object.__setattr__(self, "_sqrt_inv", _freeze((q / np.sqrt(w)) @ q.T))

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    def sqrt_inv(self) -> np.ndarray:
        """g^{-1/2}, read-only, from the eigh that checked g."""
        return self._sqrt_inv


def identity_metric(two_n: int) -> Metric:
    return Metric(np.eye(two_n))


@dataclass(frozen=True)
class ComplexStructure:
    """Real operator J with J^2 = -Id (float view always present), and the
    exact rational J for the rational backend."""

    j: np.ndarray
    j_exact: np.ndarray | None = None

    def __post_init__(self):
        j = np.asarray(self.j, dtype=float)
        if j.ndim != 2 or j.shape[0] != j.shape[1] or j.shape[0] % 2:
            raise ValueError(f"J must be square of even size, got {j.shape}")
        two_n = j.shape[0]
        if not np.all(np.isfinite(j)):
            raise ValueError("J has non-finite entries")
        # Besides the relative bound, allow the rounding floor of the float
        # product J @ J, about 2n eps ||J||^2, which dominates for large ||J||.
        norm = frob(j)
        res = frob(j @ j + np.eye(two_n))
        floor = two_n * np.finfo(float).eps * norm * norm
        if res > 1e-10 * max(norm, 1.0) + floor:
            raise ValueError(f"J^2 != -Id (residual {res / max(norm, 1.0):.3e})")
        object.__setattr__(self, "j", _freeze(j))

    @property
    def dim(self) -> int:
        return self.j.shape[0]

    @property
    def backend(self) -> str:
        return "f64" if self.j_exact is None else "rational"

    def compatibility_residual(self, metric: Metric) -> float:
        g = metric.g
        return frob(self.j.T @ g @ self.j - g) / frob(g)

    def is_compatible(self, metric: Metric) -> bool:
        return self.compatibility_residual(metric) <= DEFAULT_TOL

    def __neg__(self) -> "ComplexStructure":
        jx = None if self.j_exact is None else -self.j_exact
        return ComplexStructure(j=-self.j, j_exact=jx)


def standard_structure(n: int) -> ComplexStructure:
    """J0 with J0 e_k = e_{k+n} and J0 e_{k+n} = -e_k."""
    z = np.zeros((n, n))
    i = np.eye(n)
    return ComplexStructure(np.block([[z, -i], [i, z]]))


@dataclass(frozen=True)
class IsotropicFrame:
    """Complex 2n x n basis of V^{0,1}, the (-i)-eigenspace of J.

    Isotropy B^T g B = 0 is metric-relative and checked where a metric is in
    scope (frame_from_structure, TwistorPoint); the frame itself only pins the
    subspace.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        two_n, n = b.shape
        if two_n != 2 * n:
            raise ValueError(f"frame must be 2n x n, got {b.shape}")
        sv = np.linalg.svd(b, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise ValueError("frame columns are linearly dependent")
        object.__setattr__(self, "basis", _freeze(b))

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    def combined(self) -> np.ndarray:
        """[conj(B) | B]: the V^{1,0} basis followed by the V^{0,1} basis."""
        return np.hstack([self.basis.conj(), self.basis])

    def isotropy_residual(self, metric: Metric) -> float:
        b = self.basis
        return frob(b.T @ metric.g @ b) / frob(b.conj().T @ metric.g @ b)

    def conjugated(self) -> "IsotropicFrame":
        return IsotropicFrame(basis=self.basis.conj())


def frame_from_structure(j: ComplexStructure, metric: Metric) -> IsotropicFrame:
    """Basis of the (-i)-eigenspace of J, g-isotropic for a compatible metric.

    Raises NotCompatible when ||J^T g J - g|| / ||g|| exceeds DEFAULT_TOL.
    Returns unitary columns, from the float J also for a rational structure:
    the QR factor of n columns of P = (I + iJ)/2, each the column of largest
    norm once the earlier ones are projected out (LAPACK geqp3's pivoting).
    Norms within _PIVOT_TIE_RTOL of the largest tie, and the lowest column
    wins: for a metric-orthogonal J all columns of P have norm 1/sqrt(2), and
    rounding must not pick the frame.
    """
    res = j.compatibility_residual(metric)
    if res > DEFAULT_TOL:
        raise NotCompatible(f"J^T g J != g (relative residual {res:.3e})")
    proj = 0.5 * (np.eye(j.dim) + 1j * j.j)
    rest = proj
    order = []
    for _ in range(j.dim // 2):
        norms = np.linalg.norm(rest, axis=0)
        k = int(np.argmax(norms >= (1.0 - _PIVOT_TIE_RTOL) * norms.max()))
        order.append(k)
        q = rest[:, k] / norms[k]
        rest = rest - np.outer(q, q.conj() @ rest)
    basis, _ = np.linalg.qr(proj[:, order])
    return IsotropicFrame(basis=basis)


def structure_from_frame(frame: IsotropicFrame) -> ComplexStructure:
    """Real J whose (-i)-eigenspace is span(frame).

    Raises IllConditioned when the natural projection V^{0,1} -> V is
    near-singular, i.e. [conj(B) | B] is close to rank-deficient.
    """
    c = frame.combined()
    sv = np.linalg.svd(c, compute_uv=False)
    if sv[-1] <= _CONJUGATE_RTOL * sv[0]:
        raise IllConditioned(
            f"V^(0,1) nearly meets its conjugate (sigma ratio {sv[-1] / sv[0]:.2e})")
    n = frame.n
    d = np.concatenate([np.full(n, 1j), np.full(n, -1j)])
    j = c @ (d[:, None] * np.linalg.inv(c))
    if frob(j.imag) > 1e-9 * max(frob(j.real), 1.0):
        raise IllConditioned("reconstructed J has a large imaginary part")
    return ComplexStructure(j=j.real)


def torus_from_structure(j: ComplexStructure) -> MarkedTorus:
    """Marked torus whose lattice is Z^{2n} and whose structure is j.

    The period rows are the holomorphic coordinate functionals of j (the dz
    rows of the inverse frame matrix), so the induced structure of the result
    reproduces j.
    """
    g = Metric(0.5 * (np.eye(j.dim) + j.j.T @ j.j))
    frame = frame_from_structure(j, g)
    c = frame.combined()
    periods = np.linalg.inv(c)[: j.dim // 2, :]
    return make_torus(periods)


def random_structure(metric: Metric, seed) -> ComplexStructure:
    """Seeded g-compatible complex structure.

    Conjugates the standard block J0 by a Haar-random g-orthogonal matrix, so
    the law is invariant under the g-orthogonal group and deterministic per
    seed.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    two_n = metric.dim
    u = haar_orthogonal(two_n, rng)
    k = u @ standard_structure(two_n // 2).j @ u.T
    ell = np.linalg.cholesky(metric.g)
    j = np.linalg.solve(ell.T, k @ ell.T)
    return ComplexStructure(j)
