"""Flat Hermitian bundles on the torus and their constant-coefficient
deformations.

A graded flat bundle is a sum of character line-bundle blocks; an extension
class is a strictly block-lower-triangular tuple of constant (0,1)-forms.
The Maurer-Cartan obstruction, the Massey recursion on the truncated Fourier
complex, gauge scaling, two-point twistor extension of the class, and the
flat-connection/holonomy check all live here.

Wedge convention, pinned once: (nu ^ nu)[i][j] = sum_k nu[k][j] ^ nu[i][k]
with the form factor of the left operand first, so the integrability
statement reads dbar^2 = dbar_gr(nu) + nu ^ nu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier
from .errors import Diverged, IndexOrder, NotTransversal, Obstructed
from .hodge import basis_subsets
from .linalg import frob
from .twistor import TwistorPoint, transversal


@dataclass(frozen=True)
class Character:
    """Unitary character of Z^{2n}: chi(alpha_k) = exp(2 pi i phase_k)."""

    phases: tuple

    def __post_init__(self):
        ph = tuple(float(p) % 1.0 for p in self.phases)
        object.__setattr__(self, "phases", ph)

    @classmethod
    def trivial(cls, two_n: int) -> "Character":
        return cls(phases=(0.0,) * two_n)

    @property
    def n(self) -> int:
        return len(self.phases) // 2

    def values(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.asarray(self.phases))


@dataclass(frozen=True)
class GradedFlatBundle:
    """Ordered blocks (character, rank). Block indices are 0-based."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple((ch, int(r)) for ch, r in self.blocks)
        if not blocks or any(r < 1 for _, r in blocks):
            raise ValueError("bundle needs blocks of rank >= 1")
        two_n = len(blocks[0][0].phases)
        if any(len(ch.phases) != two_n for ch, _ in blocks):
            raise ValueError("blocks live on different tori")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return self.blocks[0][0].n

    @property
    def total_rank(self) -> int:
        return sum(r for _, r in self.blocks)

    def slices(self) -> list[slice]:
        out, start = [], 0
        for _, r in self.blocks:
            out.append(slice(start, start + r))
            start += r
        return out


def ext_dimension(bundle: GradedFlatBundle, i: int, j: int) -> int:
    """dim Ext^1(B_i, B_j): n r_i r_j when the characters agree, else 0.

    The Fourier picture behind this: harmonic twisted (0,1)-forms are the n
    constant forms for the trivial relative twist and nothing otherwise.
    """
    if i <= j:
        raise IndexOrder(f"need i > j, got ({i}, {j})")
    chi_i, r_i = bundle.blocks[i]
    chi_j, r_j = bundle.blocks[j]
    return bundle.n * r_i * r_j if chi_i.phases == chi_j.phases else 0


@dataclass(frozen=True)
class ExtClass:
    """Constant-coefficient extension data: forms[(i, j)] for i > j is an
    array of shape (n, r_j, r_i), the dzbar coefficients of a map B_i -> B_j.

    Entries between blocks of different characters are structurally zero
    (the twisted complex has no harmonic (0,1)-forms), so supplying one is an
    error rather than data.
    """

    bundle: GradedFlatBundle
    forms: dict

    def __post_init__(self):
        n = self.bundle.n
        ranks = [r for _, r in self.bundle.blocks]
        clean = {}
        for (i, j), arr in self.forms.items():
            if i <= j:
                raise IndexOrder(f"extension data must have i > j, got ({i}, {j})")
            arr = np.asarray(arr, dtype=complex)
            want = (n, ranks[j], ranks[i])
            if arr.shape != want:
                raise ValueError(f"forms[{i},{j}] has shape {arr.shape}, want {want}")
            if ext_dimension(self.bundle, i, j) == 0 and np.any(arr != 0):
                raise ValueError(
                    f"blocks {i} and {j} have different characters; "
                    "Ext^1 vanishes and the entry must be zero")
            if np.any(arr != 0):
                clean[(i, j)] = arr
        object.__setattr__(self, "forms", clean)

    @property
    def n(self) -> int:
        return self.bundle.n

    def norm(self) -> float:
        return float(np.sqrt(sum(np.sum(np.abs(a) ** 2)
                                 for a in self.forms.values())))

    def big_matrices(self) -> np.ndarray:
        """Shape (n, R, R): the full End matrix per dzbar direction."""
        r_tot = self.bundle.total_rank
        sl = self.bundle.slices()
        big = np.zeros((self.n, r_tot, r_tot), dtype=complex)
        for (i, j), arr in self.forms.items():
            big[:, sl[j], sl[i]] = arr
        return big

    def __add__(self, other: "ExtClass") -> "ExtClass":
        out = dict(self.forms)
        for key, arr in other.forms.items():
            out[key] = out[key] + arr if key in out else arr
        return ExtClass(bundle=self.bundle, forms=out)

    def __mul__(self, scalar) -> "ExtClass":
        return ExtClass(bundle=self.bundle,
                        forms={k: a * scalar for k, a in self.forms.items()})

    __rmul__ = __mul__


def obstruction_big(nu: ExtClass) -> np.ndarray:
    """nu ^ nu as full matrices over the 2-subset basis, shape
    (n(n-1)/2, R, R): (nu ^ nu)[i][j] = sum_k nu[k][j] ^ nu[i][k] sits in the
    rows of block j and the columns of block i, as in big_matrices."""
    big = nu.big_matrices()
    n = nu.n
    pairs = basis_subsets(n, 2)
    out = np.zeros((len(pairs),) + big.shape[1:], dtype=complex)
    for pos, (a, b) in enumerate(pairs):
        out[pos] = big[a] @ big[b] - big[b] @ big[a]
    return out


def mc_obstruction(nu: ExtClass) -> dict:
    """The blocks of obstruction_big: {(i, j): array (n(n-1)/2, r_j, r_i)}
    for i > j, constant (0,2)-forms; zero entries are omitted. An empty dict
    means dbar_gr + nu squares to zero, i.e. the class defines a holomorphic
    structure.
    """
    stack = obstruction_big(nu)
    sl = nu.bundle.slices()
    blocks = {(i, j): stack[:, sl[j], sl[i]]
              for i in range(len(sl)) for j in range(i)}
    return {key: arr for key, arr in blocks.items() if np.any(np.abs(arr) > 0)}


def obstruction_norm(nu: ExtClass) -> float:
    """Operator norm of multiplication by nu ^ nu on (0,0)-sections:
    the largest singular value of the stacked component matrices."""
    stack = obstruction_big(nu)
    r = stack.shape[1]
    flat = stack.reshape(-1, r)
    if flat.size == 0:
        return 0.0
    return float(np.linalg.svd(flat, compute_uv=False)[0])


def dbar_square_residual(nu: ExtClass, j_structure, mode_bound: int = 4) -> float:
    """Operator norm of (dbar_gr + nu)^2 on (0,0)-sections of the truncated
    complex, assembled by actually applying the operator to a section basis.

    The square is mode-preserving (constant coefficients), so three modes are
    sampled: zero, the first unit mode and the last. The value agrees with
    obstruction_norm because the cross terms dbar(nu .) + nu ^ dbar(.) cancel
    for closed constant forms.
    """
    from .moduli import compatible_metric
    from .twistor import twistor_point

    n = nu.n
    point = twistor_point(j_structure, compatible_metric(j_structure))
    space = fourier.FourierFormSpace(n, mode_bound, frame=point.frame.basis)
    big = nu.big_matrices()
    r = big.shape[1]
    theta = space.constant(1, big)
    worst = 0.0
    ncomp2 = space.ncomp(2)
    for mode in [(0,) * (2 * n), (1,) + (0,) * (2 * n - 1),
                 (0,) * (2 * n - 1) + (1,)]:
        cols = []
        for a in range(r):
            for b in range(r):
                coeff = np.zeros((1, r, r), dtype=complex)
                coeff[0, a, b] = 1.0
                s = fourier.FourierForm(space, 0, {tuple(mode): coeff}, extra=(r, r))
                first = fourier.dbar(s) + fourier.wedge(theta, s)
                second = fourier.dbar(first) + fourier.wedge(theta, first)
                col = np.zeros((ncomp2, r, r), dtype=complex)
                for c in second.modes.values():
                    col += c  # the square preserves the mode, one entry
                cols.append(col.reshape(-1))
        mat = np.stack(cols, axis=1)
        if mat.size:
            worst = max(worst, float(np.linalg.svd(mat, compute_uv=False)[0]))
    return worst


@dataclass
class MasseyResult:
    theta: fourier.FourierForm
    mc_residual: float
    n_terms: int
    converged: bool


def massey_solve(theta0: fourier.FourierForm, tol: float = 1e-9,
                 max_terms: int = 30) -> MasseyResult:
    """Iterate theta_k = -G(sum_{i+j=k-1} theta_i ^ theta_j) and sum.

    Requires dbar theta0 = 0 (checked). Raises Obstructed when the harmonic
    projection of the wedge sums stays above tolerance, Diverged when the
    partial sums blow past 1e6 times the seed. On success the summed form
    satisfies the integrability equation dbar theta + theta ^ theta = 0 up to
    the reported residual.
    """
    if theta0.q != 1:
        raise ValueError("Massey seed must be a (0,1)-form")
    base = theta0.norm()
    if base == 0:
        return MasseyResult(theta=theta0, mc_residual=0.0, n_terms=1, converged=True)
    closed = fourier.dbar(theta0).norm()
    if closed > 1e-8 * base:
        raise ValueError(f"seed is not dbar-closed (residual {closed:.3e})")
    terms = [theta0]
    total = theta0
    converged = False
    for _ in range(1, max_terms):
        k = len(terms)
        s = None
        for i in range(k):
            w = fourier.wedge(terms[i], terms[k - 1 - i])
            s = w if s is None else s + w
        h = fourier.harmonic_part(s)
        if h.norm() > tol:
            raise Obstructed(
                f"harmonic obstruction of norm {h.norm():.3e} at order {k}",
                obstruction_norm=h.norm())
        nxt = -1.0 * fourier.green(s)
        terms.append(nxt)
        total = total + nxt
        if total.norm() > 1e6 * base:
            raise Diverged(f"partial sums exceeded 1e6 x ||theta0|| at order {k}")
        if nxt.norm() < tol:
            converged = True
            break
    residual = (fourier.dbar(total) + fourier.wedge(total, total)).norm()
    return MasseyResult(theta=total, mc_residual=residual,
                        n_terms=len(terms), converged=converged)


def gauge_scale(nu: ExtClass, alpha) -> ExtClass:
    """Diagonal gauge action: block (i, j) scales by alpha_i / alpha_j.

    The obstruction scales bilinearly by the same products, so a vanishing
    obstruction stays zero; with alpha_j >> alpha_i for i > j the class
    becomes arbitrarily small.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (len(nu.bundle.blocks),) or np.any(alpha <= 0):
        raise ValueError("need one positive scale per block")
    return ExtClass(bundle=nu.bundle,
                    forms={(i, j): arr * (alpha[i] / alpha[j])
                           for (i, j), arr in nu.forms.items()})


def twistor_extend(nu: ExtClass, j_point: TwistorPoint, i_point: TwistorPoint,
                   l_point: TwistorPoint) -> ExtClass:
    """Extend nu (expressed in j_point's frame) across the twistor base and
    restrict at l_point: the unique family vanishing at i_point and equal to
    nu at j_point.

    Each scalar entry is a functional on V_C interpolated through two points
    in the dual model: zero component along V^{0,1}_I, prescribed along
    V^{0,1}_J; the value at L is its component along V^{0,1}_L.
    """
    if not transversal(i_point, j_point):
        raise NotTransversal("extension needs transversal (I, J)")
    n = nu.n
    bi = i_point.frame.basis
    bj = j_point.frame.basis
    bl = l_point.frame.basis
    m = np.hstack([bi, bj])
    out = {}
    for key, arr in nu.forms.items():
        rj, ri = arr.shape[1], arr.shape[2]
        w = arr.reshape(n, rj * ri).T            # one functional per entry
        rhs = np.hstack([np.zeros_like(w), w])   # (entries, 2n)
        v = np.linalg.solve(m.T, rhs.T).T        # v @ [B_I | B_J] = [0 | w]
        w_l = v @ bl
        out[key] = w_l.T.reshape(n, rj, ri)
    return ExtClass(bundle=nu.bundle, forms=out)


@dataclass
class FlatConnectionReport:
    curvature_norm: float
    max_commutator: float
    holonomy: list


def flat_connection_check(nu: ExtClass, j_structure) -> FlatConnectionReport:
    """Constant connection form omega = nu on the graded flat frame.

    Curvature d omega + omega ^ omega reduces to the obstruction tensor
    (constant forms are closed). Holonomy rho(lambda_k) = exp(omega(lambda_k))
    chi(lambda_k) on the lattice generators; the report carries the curvature
    norm and the worst holonomy commutator, which vanish together.

    omega is strictly block upper triangular, so omega^B = 0 for B blocks and
    its exponential is the finite sum of omega^m / m! over m < B.
    """
    from .moduli import compatible_metric
    from .twistor import twistor_point

    n = nu.n
    point = twistor_point(j_structure, compatible_metric(j_structure))
    c = point.frame.combined()
    dzbar_rows = np.linalg.inv(c)[n:, :]          # dzbar_a evaluated on e_k
    big = nu.big_matrices()
    chi = np.hstack([np.repeat(ch.values()[:, None], r, axis=1)
                     for ch, r in nu.bundle.blocks])   # chi(lambda_k) per row k
    holonomy = []
    for k in range(2 * n):
        omega_k = np.tensordot(dzbar_rows[:, k], big, axes=(0, 0))
        term = exp_k = np.eye(big.shape[1], dtype=complex)
        for m in range(1, len(nu.bundle.blocks)):
            term = term @ omega_k / m
            exp_k = exp_k + term
        holonomy.append(exp_k @ np.diag(chi[k]))
    worst = 0.0
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            worst = max(worst, frob(holonomy[a] @ holonomy[b]
                                    - holonomy[b] @ holonomy[a]))
    return FlatConnectionReport(curvature_norm=obstruction_norm(nu),
                                max_commutator=worst, holonomy=holonomy)
