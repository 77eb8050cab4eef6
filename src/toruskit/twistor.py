"""The isotropic Grassmannian S, universal-bundle fibers, and two-point
section interpolation.

A point of S is an isotropic frame together with the metric it is isotropic
for. The fiber of the quotient bundle at a point is modeled as V^{0,1} with
the projection along V^{1,0}, so the quotient map kappa is a concrete
projector and a section of the quotient bundle is just a vector in C^{2n}
(the space of global sections).

Frames inside TwistorPoint are orthonormalized for the Hermitian form of the
metric; with that normalization the Grassmannian tangent space at the point
is exactly the space of skew-symmetric n x n complex matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NotSkew, NotTransversal
from .linalg import frob
from .torus import ComplexStructure, IsotropicFrame, Metric, frame_from_structure, \
    random_structure, structure_from_frame

TRANSVERSALITY_RTOL = 1e-10
ISOTROPY_TOL = 1e-10
SKEW_TOL = 1e-9


@dataclass(frozen=True)
class TwistorPoint:
    """Point of S = SO(2n)/U(n): a g-isotropic frame plus its metric."""

    frame: IsotropicFrame
    metric: Metric

    def __post_init__(self):
        res = self.frame.isotropy_residual(self.metric)
        if res > ISOTROPY_TOL:
            raise ValueError(f"frame is not g-isotropic (residual {res:.3e})")

    @property
    def n(self) -> int:
        return self.frame.n

    def structure(self) -> ComplexStructure:
        return structure_from_frame(self.frame)


def twistor_point(j: ComplexStructure, metric: Metric) -> TwistorPoint:
    """Point of S from a compatible structure, with a g-orthonormal frame."""
    frame = frame_from_structure(j, metric)
    b = frame.basis
    h = b.conj().T @ metric.g @ b
    ell = np.linalg.cholesky(0.5 * (h + h.conj().T))
    b_on = np.linalg.solve(ell, b.T.conj()).T.conj()  # b @ inv(ell)^H
    return TwistorPoint(frame=IsotropicFrame(basis=b_on), metric=metric)


def conjugate_point(s: TwistorPoint) -> TwistorPoint:
    """The anticomplex involution I -> -I: entrywise conjugate frame."""
    return TwistorPoint(frame=s.frame.conjugated(), metric=s.metric)


@dataclass(frozen=True)
class SectionVector:
    """Element of C^{2n}, identified with the global sections of the quotient
    bundle (a holomorphic section is determined by this single vector)."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError("section vector has non-finite entries")
        v.flags.writeable = False
        object.__setattr__(self, "v", v)


def horizontal_section(x) -> SectionVector:
    """Constant section through the real point x (a horizontal twistor section)."""
    x = np.asarray(x, dtype=float)
    return SectionVector(x.astype(complex))


@dataclass(frozen=True)
class FiberValue:
    """Quotient-bundle fiber element: coordinates in the V^{0,1} basis of `at`."""

    w: np.ndarray
    at: TwistorPoint

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex).reshape(-1)
        if w.shape[0] != self.at.n:
            raise ValueError(f"fiber value length {w.shape[0]} != n = {self.at.n}")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)


def transversal(i: TwistorPoint, j: TwistorPoint) -> bool:
    """True iff V^{0,1}_I and V^{0,1}_J intersect trivially.

    Criterion: smallest singular value of [frame_I | frame_J] above
    TRANSVERSALITY_RTOL times the largest. The condition itself does not
    involve the metric; a mismatch only gets a warning.
    """
    if i.metric is not j.metric and frob(i.metric.g - j.metric.g) > 1e-12:
        warnings.warn("transversality of points with different metrics",
                      stacklevel=2)
    m = np.hstack([i.frame.basis, j.frame.basis])
    sv = np.linalg.svd(m, compute_uv=False)
    return bool(sv[-1] > TRANSVERSALITY_RTOL * sv[0])


def kappa(v: SectionVector, point: TwistorPoint) -> FiberValue:
    """Evaluate the section v at the point: project onto V^{0,1} along V^{1,0}."""
    c = point.frame.combined()
    sv = np.linalg.svd(c, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise IllConditioned("fiber projector is near-singular")
    coords = np.linalg.solve(c, v.v)
    return FiberValue(w=coords[point.n:], at=point)


def _as_fiber(value, point: TwistorPoint) -> FiberValue:
    if isinstance(value, FiberValue):
        if value.at is not point and frob(value.at.frame.basis - point.frame.basis) > 1e-12:
            raise ValueError("fiber value tagged with a different point")
        return value
    return FiberValue(w=np.asarray(value, dtype=complex), at=point)


def section_solve(i: TwistorPoint, j: TwistorPoint, wi, wj) -> SectionVector:
    """The unique section with values wi at I and wj at J.

    The combined restriction map C^{2n} -> fiber_I + fiber_J is a square
    system (global sections have dimension twice the fiber rank); it is
    invertible exactly when the two points are transversal, otherwise
    NotTransversal is raised.
    """
    wi = _as_fiber(wi, i)
    wj = _as_fiber(wj, j)
    if not transversal(i, j):
        raise NotTransversal("V^{0,1}_I meets V^{0,1}_J; interpolation is singular")
    bi, bj = i.frame.basis, j.frame.basis
    lhs = np.hstack([bi.conj(), -bj.conj()])
    rhs = bj @ wj.w - bi @ wi.w
    ab = np.linalg.solve(lhs, rhs)
    v = bi @ wi.w + bi.conj() @ ab[: i.n]
    return SectionVector(v)


def psi_transport(i: TwistorPoint, target: TwistorPoint, source: TwistorPoint,
                  t) -> FiberValue:
    """Linearized germ transport through the reference point I.

    Solves for the unique section through (0, I) and (t, source) and evaluates
    it at target. Linear in t; transport source -> source is the identity and
    the transports through a fixed I compose.
    """
    t = _as_fiber(t, source)
    zero = FiberValue(w=np.zeros(i.n, dtype=complex), at=i)
    v = section_solve(i, source, zero, t)
    return kappa(v, target)


def component_flip(j: ComplexStructure, metric: Metric) -> ComplexStructure:
    """Conjugate by a g-orthogonal reflection.

    The g-compatible structures form two components (the two families of
    maximal isotropics); conjugation by a determinant -1 isometry swaps them.
    """
    ell = np.linalg.cholesky(metric.g)
    e = np.linalg.inv(ell.T)        # columns g-orthonormal
    d = np.ones(metric.dim)
    d[0] = -1.0
    r = (e * d) @ np.linalg.inv(e)
    return ComplexStructure(r @ j.j @ np.linalg.inv(r))


def random_transversal_pair(metric: Metric, seed) -> tuple:
    """Seeded pair of points of S with trivially intersecting (0,1)-spaces.

    Two independent draws land in the same component half the time, and
    same-component pairs always share a line when n is odd (isotropic
    intersection parity), so the second draw is reflected across components
    whenever the pair comes out non-transversal.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p1 = twistor_point(random_structure(metric, rng), metric)
    for _ in range(32):
        j2 = random_structure(metric, rng)
        p2 = twistor_point(j2, metric)
        if transversal(p1, p2):
            return p1, p2
        p2 = twistor_point(component_flip(j2, metric), metric)
        if transversal(p1, p2):
            return p1, p2
    raise RuntimeError("could not sample a transversal pair")  # pragma: no cover


def b_minus_curvature(s: TwistorPoint, xi: np.ndarray, b: np.ndarray) -> float:
    """<Theta(xi, conj xi) b, b> on the tautological subbundle fiber.

    xi is a tangent vector in the skew model (n x n complex, skew-symmetric in
    the orthonormalized frame basis); b holds coordinates in the conjugate
    (V^{1,0)) basis. The sign convention Theta(xi, conj xi) = -xi* xi gives
    exactly -||xi b||^2: nonpositive, strictly negative unless xi kills b.
    NotSkew when ||xi + xi^T|| exceeds SKEW_TOL relative to max(||xi||, 1).
    """
    xi = np.asarray(xi, dtype=complex)
    n = s.n
    if xi.shape != (n, n):
        raise ValueError(f"tangent matrix must be {n} x {n}")
    skew_defect = frob(xi + xi.T)
    if skew_defect > SKEW_TOL * max(frob(xi), 1.0):
        raise NotSkew(f"tangent matrix fails skew symmetry ({skew_defect:.3e})")
    b = np.asarray(b, dtype=complex).reshape(n)
    image = xi @ b
    return -float(np.real(np.vdot(image, image)))
