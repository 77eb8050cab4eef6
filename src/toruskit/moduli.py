"""Moduli connectivity: hop adjacency through shared flat metrics.

Two complex structures are adjacent when one flat metric is preserved by
both; the criterion is that the metric ratio has all eigenvalues in pairs.
Chains of at most 6 hops are built by factoring the target metric ratio into
two paired factors (a nonsmooth eigenvalue-matching problem solved by a
Gauss-Newton polish on the pair gaps from closed-form warm starts, then from
a fixed list of random starts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ChainNotFound, FactorizationFailed, NotPaired
from .linalg import frob, haar_orthogonal, min_eig_sym, random_spd, rel_residual
from .torus import ComplexStructure, Metric, identity_metric, random_structure

PAIRED_TOL = 1e-9
FACTORIZE_PAIRED_TOL = 1e-7
FACTORIZE_DEFECT_TOL = 1e-10
HOP_TOL = 1e-8
INVARIANT_RTOL = 1e-10


@dataclass(frozen=True)
class Pairing:
    """Perfect matching of eigenvalue positions (ascending order, 0-based)."""

    pairs: tuple
    eigenvalues: np.ndarray = field(compare=False, default=None)


def _ratio_eigs(g: Metric, g1: Metric) -> np.ndarray:
    w = g.sqrt_inv()
    return np.linalg.eigvalsh(w @ g1.g @ w)


def paired_eigenvalues(g: Metric, g1: Metric, tol: float = PAIRED_TOL):
    """Pairing of the eigenvalues of the symmetrized ratio, or None.

    Sorts the eigenvalues of g^{-1/2} g1 g^{-1/2} and pairs consecutive
    values; succeeds iff every pair gap is below tol relative to the value.
    """
    w = _ratio_eigs(g, g1)
    pairs = []
    for i in range(0, len(w), 2):
        gap = w[i + 1] - w[i]
        if gap > tol * max(abs(w[i + 1]), 1e-300):
            return None
        pairs.append((i, i + 1))
    return Pairing(pairs=tuple(pairs), eigenvalues=w)


def pair_defect(g: Metric, g1: Metric) -> float:
    """Sum of squared consecutive gaps of the sorted ratio eigenvalues."""
    w = _ratio_eigs(g, g1)
    gaps = w[1::2] - w[0::2]
    return float(np.sum(gaps * gaps))


def common_structure_from_metrics(g: Metric, g1: Metric,
                                  tol: float = PAIRED_TOL) -> ComplexStructure:
    """Complex structure compatible with both metrics of a paired ratio.

    Builds the common orthogonal eigenbasis, rotates by the standard 2x2
    block on each eigenvalue pair, and conjugates back. Raises NotPaired when
    the ratio eigenvalues do not pair at tolerance.
    """
    if paired_eigenvalues(g, g1, tol) is None:
        raise NotPaired("ratio eigenvalues do not occur in pairs")
    w = g.sqrt_inv()
    _, q = np.linalg.eigh(w @ g1.g @ w)
    e = w @ q
    n2 = g.dim
    k = np.zeros((n2, n2))
    for i in range(0, n2, 2):
        k[i, i + 1] = 1.0
        k[i + 1, i] = -1.0
    j = e @ k @ np.linalg.inv(e)
    return ComplexStructure(j)


@lru_cache(maxsize=None)
def _symmetric_basis(n2: int) -> np.ndarray:
    """Orthonormal basis of the symmetric n2 x n2 matrices, entries (a, b)
    with a <= b in row order, as one read-only stack."""
    rows, cols = np.triu_indices(n2)
    basis = np.zeros((len(rows), n2, n2))
    k = np.arange(len(rows))
    off = np.where(rows == cols, 1.0, 1.0 / np.sqrt(2.0))
    basis[k, rows, cols] = off
    basis[k, cols, rows] = off
    basis.flags.writeable = False
    return basis


def invariant_metric_subspace(i: ComplexStructure, j: ComplexStructure) -> np.ndarray:
    """Orthonormal basis of {M symmetric : I^T M I = M and J^T M J = M},
    as a (k, n2, n2) stack; k = 0 when only M = 0 is invariant.

    The nullspace (at INVARIANT_RTOL) of M -> (I^T M I - M, J^T M J - M) in the
    coordinates of _symmetric_basis: rows are indexed by (structure, g),
    columns by the basis element e it is applied to.
    """
    basis = _symmetric_basis(i.dim)
    a = np.concatenate([
        np.tensordot(basis, s.T @ basis @ s - basis, axes=([1, 2], [1, 2]))
        for s in (i.j, j.j)])
    _, sv, vt = np.linalg.svd(a)
    null = vt[sv <= INVARIANT_RTOL * max(sv[0], 1.0)]
    return np.tensordot(null, basis, axes=1)


def _average(m: np.ndarray, s: ComplexStructure) -> np.ndarray:
    """The {1, s}-average of a symmetric matrix: preserved by s."""
    return 0.5 * (m + s.j.T @ m @ s.j)


# common_metric's cap on {1, I}, {1, J} averaging rounds, and the smallest
# eigenvalue (at trace 2n) that counts as positive definite.
AVERAGE_ROUNDS = 100
MIN_EIG = 1e-7


def common_metric(i: ComplexStructure, j: ComplexStructure):
    """A flat metric preserved by both structures, or None.

    None for an empty invariant span is a proof that no shared metric exists.
    Otherwise the identity is averaged over {1, I} and over {1, J} in turn,
    and each average is projected onto the span and scaled to trace 2n; the
    first positive definite projection is returned. If a shared metric g
    exists, both averages are orthogonal projections in the inner product
    tr(g^-1 A g^-1 B), so by von Neumann's theorem the averages converge to
    the average of Id over the compact group generated by I and J, which is
    positive definite and invariant. A None after AVERAGE_ROUNDS proves
    nothing.
    """
    span = invariant_metric_subspace(i, j)
    if len(span) == 0:
        return None
    n2 = i.dim
    m = np.eye(n2)
    for _ in range(AVERAGE_ROUNDS):
        for s in (i, j):
            m = _average(m, s)
            x = np.tensordot(np.tensordot(span, m, axes=2), span, axes=1)
            tr = float(np.trace(x))
            if tr > 0:
                x *= n2 / tr
                if min_eig_sym(x) > MIN_EIG:
                    return Metric(x)
    return None


# ---------------------------------------------------------------------------
# Pair factorization


# Random-start Gauss-Newton probes run after the warm starts.
N_PROBES = 32
CYCLE_STARTS = 12  # the cap on the cycle-arrangement warm starts


def _doubled(vals: np.ndarray) -> np.ndarray:
    return np.repeat(vals, 2, axis=-1)


@lru_cache(maxsize=None)
def _upper_indices(n2: int):
    return np.triu_indices(n2, 1)


def _skew_from_params(theta: np.ndarray, n2: int) -> np.ndarray:
    """Skew matrix with theta on the strict upper triangle, row by row.

    The lower triangle takes -theta elementwise, so a zero parameter leaves
    -0.0 there.
    """
    rows, cols = _upper_indices(n2)
    k = np.zeros((n2, n2))
    k[rows, cols] = theta
    k[cols, rows] = -theta
    return k


@lru_cache(maxsize=None)
def _skew_generators(n2: int) -> np.ndarray:
    """The unit skew generators in parameter order, as one read-only stack."""
    ntheta = n2 * (n2 - 1) // 2
    gens = np.stack([_skew_from_params(e, n2) for e in np.eye(ntheta)])
    gens.flags.writeable = False
    return gens


# The polish's backtracking scales of a Gauss-Newton step: 1, 1/2, ..., 1/2^11.
BACKTRACK_SCALES = 0.5 ** np.arange(12)


def _rotations(mu: np.ndarray, v: np.ndarray, scales) -> np.ndarray:
    """exp(s K) for a scale s, or a stack of them for an array of scales,
    from the eigendecomposition iK = V diag(mu) V^H of a real skew K.

    exp(s K) = V diag(exp(-i s mu)) V^H: the eigenvector method, which is
    stable for a normal matrix (Moler and Van Loan, "Nineteen dubious ways
    to compute the exponential of a matrix", SIAM Review 2003). The
    imaginary part is rounding and dropped. Each rotation gets the same bits
    alone as in a stack.
    """
    phases = np.exp(-1j * np.multiply.outer(scales, mu))
    return ((v * phases[..., None, :]) @ v.conj().T).real


def _cyclic_chain(d: np.ndarray):
    """Closed-form interleaved-pairing solve for a diagonal target.

    Chain (0-based): alpha_0 = d_0, d_{2k+1} = alpha_k beta_k,
    d_{2k+2} = alpha_{k+1} beta_k, closing onto d_0 through beta_{n-1} = 1.
    The cycle is exactly consistent iff the products of alternate entries
    agree; otherwise the chain is still a warm start and the returned closure
    measures the mismatch.
    """
    n = len(d) // 2
    alpha = np.empty(n)
    beta = np.empty(n)
    alpha[0] = d[0]
    for k in range(n):
        beta[k] = d[2 * k + 1] / alpha[k]
        if k + 1 < n:
            alpha[k + 1] = d[2 * k + 2] / beta[k]
    return alpha, beta, abs(np.log(beta[n - 1]))


def _cycle_arrangement_starts(wv: np.ndarray, qv: np.ndarray):
    """At most CYCLE_STARTS warm starts from eigenvalue arrangements around
    the pairing cycle, each yielded as soon as it is solved.

    wv, qv is the eigendecomposition of the target. The interleaved matchings
    close exactly when an n-subset of eigenvalues balances the alternating
    product, so the subsets are taken in order of their closure mismatch.
    Each gives one arrangement, its eigenvalues alternating with the
    remaining ones in index order, and one start, solved least-squares in
    logs.
    """
    from itertools import combinations
    n2 = len(wv)
    n = n2 // 2
    logd = np.log(wv)
    cands = []
    for sub in combinations(range(n2), n):
        rest = tuple(i for i in range(n2) if i not in sub)
        eps = abs(logd[list(sub)].sum() - logd[list(rest)].sum())
        cands.append((eps, sub, rest))
    cands.sort()
    # the pairing cycle in logs: row 2k is alpha_k beta_k, row 2k+1 is
    # alpha_{k+1} beta_k (indices mod n)
    a = np.zeros((n2, n2))
    for k in range(n):
        a[2 * k, k] += 1
        a[2 * k, n + k] += 1
        a[2 * k + 1, (k + 1) % n] += 1
        a[2 * k + 1, n + k] += 1
    for _, sub, rest in cands[:CYCLE_STARTS]:
        order = [i for pair in zip(sub, rest) for i in pair]
        sol, *_ = np.linalg.lstsq(a, np.log(wv[order]), rcond=None)
        yield qv[:, order], -0.5 * sol[:n]


def _warm_starts(h_hat: np.ndarray):
    """(q, t) starts in job order, yielded lazily: the interleaved-pairing
    closed form (on the diagonal itself for a diagonal target, then in the
    eigenframe), the eigenframe at the pair means, and the cycle
    arrangements, which are built only if every earlier start fails."""
    n2 = h_hat.shape[0]
    off_diag = frob(h_hat - np.diag(np.diag(h_hat)))
    if off_diag <= 1e-12 * max(frob(h_hat), 1.0):
        alpha, _, _ = _cyclic_chain(np.diag(h_hat))
        yield np.eye(n2), -0.5 * np.log(alpha)
    wv, qv = np.linalg.eigh(h_hat)
    alpha, _, _ = _cyclic_chain(wv)
    yield qv, -0.5 * np.log(np.abs(alpha))
    pair_means = np.sqrt(wv[0::2] * wv[1::2])
    yield qv, -0.5 * np.log(pair_means)
    yield from _cycle_arrangement_starts(wv, qv)


def _pair_gap_defect(w: np.ndarray):
    """Sum of the squared eigenvalue-pair gaps over their pair means, along
    the last axis of the sorted eigenvalues w."""
    means = np.maximum(0.5 * (w[..., 1::2] + w[..., 0::2]), 1e-300)
    gaps = (w[..., 1::2] - w[..., 0::2]) / means
    return (gaps * gaps).sum(axis=-1)


class _FactorizeProblem:
    """Work in the frame where g = Id and h is scale-normalized.

    The unknown is Y = X^{-1/2} = Q diag(exp(t) doubled) Q^T; X automatically
    has doubled spectrum, and the defect measures how far Y h Y is from having
    one too. The internal objective uses gaps relative to the pair mean:
    the absolute gaps have a degenerate descent direction (collapse a whole
    eigenvalue pair of the ratio towards zero) that fakes convergence without
    ever satisfying the relative pairing criterion.
    """

    def __init__(self, h_hat: np.ndarray):
        self.h = h_hat
        self.n2 = h_hat.shape[0]
        self.n = self.n2 // 2
        self.ntheta = self.n2 * (self.n2 - 1) // 2
        self.gens = _skew_generators(self.n2)
        # row k selects the pair k of the doubled exp(t): its scale direction
        self.pair_sel = np.repeat(np.eye(self.n), 2, axis=1)
        self.evals = 0

    def x_matrix(self, q: np.ndarray, t: np.ndarray) -> np.ndarray:
        """X = Y^{-2} at the raw (uncentered) scale of t."""
        return (q * _doubled(np.exp(-2.0 * t))) @ q.T

    def evaluate(self, q: np.ndarray, t: np.ndarray):
        """Relative pair-gap defect (internal objective) at (q, t), and the
        pieces it is built from: the doubled exp(t), Y, Y @ H and
        R = (Y @ H) @ Y, which polish and jacobian reuse.

        Takes one point, whose defect comes back as an np.float64, or a stack
        of them (q of shape (k, n2, n2), t of shape (k, n)), and returns the
        defects and pieces stacked alike. The products and eigvalsh run slice
        by slice, so a point in a stack gets the bits it gets alone. A point
        whose R is not finite has defect inf.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            # det-1 gauge: the overall scale of Y is invisible to relative
            # gaps. sum / size and maximum/minimum give np.mean's and
            # np.clip's bits without their wrapper cost.
            t = t - t.sum(axis=-1, keepdims=True) / t.shape[-1]
            d_exp = _doubled(np.exp(np.minimum(np.maximum(t, -40.0), 40.0)))
            y = (q * d_exp[..., None, :]) @ np.swapaxes(q, -1, -2)
            yh = y @ self.h
            r_mat = yh @ y
            pieces = (d_exp, y, yh, r_mat)
            if q.ndim == 2:
                # one point, the polish's common case: no mask to carry
                if not np.isfinite(r_mat).all():
                    return np.float64(np.inf), pieces
                w = np.linalg.eigvalsh(r_mat)
                if not np.isfinite(w).all():
                    return np.float64(np.inf), pieces
                return _pair_gap_defect(w), pieces
            # a non-finite slice would make eigvalsh raise for the whole stack
            finite = np.isfinite(r_mat).all(axis=(-2, -1))
            w = np.linalg.eigvalsh(np.where(finite[..., None, None], r_mat, 0.0))
            ok = finite & np.isfinite(w).all(axis=-1)
            return np.where(ok, _pair_gap_defect(w), np.inf), pieces

    def jacobian(self, q: np.ndarray, pieces, v: np.ndarray,
                 means: np.ndarray) -> np.ndarray:
        """Jacobian of the pair residuals at the point `pieces` of evaluate
        came from, reusing its doubled exp(t), Y and Y @ H.

        Columns: the unit skew generators acting on q, then the log-scale of
        each eigenvalue pair of Y. Rows: per pair (a, b) of eigenvectors v,
        the diagonal difference and twice the off-diagonal of dR, both over
        the pair mean. Every product is a batched matmul (u = v_a^T dR for
        every eigenvector at once, then u v_a and u_a v_b), which runs the same
        BLAS call on each slice as the one-column-at-a-time form, so the
        result is the same to the bit. Keep the association orders and the
        v^T dR side: dR @ v, v^T dR v as one product or an einsum would round
        differently.
        """
        d_exp, y, yh, _ = pieces
        sel = self.pair_sel * d_exp
        dy = np.concatenate([self.gens @ y - y @ self.gens,
                             (q * sel[:, None, :]) @ q.T])
        dr = dy @ self.h @ y + yh @ dy
        cols = v.T[:, None, :, None]
        u = v.T[:, None, None, :] @ dr
        diag = (u @ cols)[..., 0, 0]
        off = (u[0::2] @ cols[1::2])[..., 0, 0]
        jac = np.empty((2 * self.n, len(dr)))
        jac[0::2] = (diag[0::2] - diag[1::2]) / means[:, None]
        jac[1::2] = 2.0 * off / means[:, None]
        return jac

    def polish(self, q: np.ndarray, t: np.ndarray, max_iter: int = 60):
        """Gauss-Newton on the relative pair-gap residuals.

        Near a solution each eigenvalue pair behaves like a 2x2 symmetric
        block; the smooth residuals (difference of diagonal, twice the
        off-diagonal in the frozen eigenbasis, both over the pair mean)
        vanish exactly when the pair coalesces, so the iteration converges
        quadratically to machine level. Each iteration starts from the
        pieces evaluate built for the accepted point, so no point is
        evaluated twice.
        """
        ntheta = self.ntheta
        best, pieces = self.evaluate(q, t)
        best = float(best)
        self.evals += 1
        # On an infeasible target the residuals can grow so large that their
        # squared sum overflows to inf, which reads as not converged.
        with np.errstate(over="ignore"):
            for _ in range(max_iter):
                r_mat = pieces[3]
                w, v = np.linalg.eigh(r_mat)
                means = np.maximum(0.5 * (w[0::2] + w[1::2]), 1e-300)
                res = np.empty(2 * self.n)
                res[0::2] = (w[0::2] - w[1::2]) / means
                # (v_a^T R) v_b per pair, batched as in jacobian: the same bits
                off = (v.T[0::2, None, :] @ r_mat) @ v.T[1::2, :, None]
                res[1::2] = 2.0 * off[:, 0, 0] / means
                if (res * res).sum() < 1e-28:
                    break
                jac = self.jacobian(q, pieces, v, means)
                step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
                norm = np.linalg.norm(step)
                if norm > 3.0:
                    step *= 3.0 / norm
                # Backtracking: the first point below best along the halving
                # scales. The full step is accepted most of the time, so its
                # rotation is built and evaluated alone; the shorter steps are
                # built from the same eigh and evaluated as one stack only
                # after it fails. evals counts the points a one-at-a-time
                # search examines.
                mu, vk = np.linalg.eigh(1j * _skew_from_params(step[:ntheta], self.n2))
                dt = step[ntheta:]
                q_new, t_new = _rotations(mu, vk, BACKTRACK_SCALES[0]) @ q, t + dt
                val, new_pieces = self.evaluate(q_new, t_new)
                self.evals += 1
                if not val < best:
                    scales = BACKTRACK_SCALES[1:]
                    qs = _rotations(mu, vk, scales) @ q
                    ts = t + scales[:, None] * dt
                    vals, stack = self.evaluate(qs, ts)
                    below = np.flatnonzero(vals < best)
                    if len(below) == 0:
                        self.evals += len(vals)
                        break
                    k = int(below[0])
                    self.evals += k + 1
                    q_new, t_new, val = qs[k], ts[k], vals[k]
                    new_pieces = tuple(p[k] for p in stack)
                q, t, best, pieces = q_new, t_new, float(val), new_pieces
        return q, t, best


def _jobs(h_hat: np.ndarray):
    """(q, t) starts in job order: the warm starts, then N_PROBES random
    starts, probe m drawn from default_rng(m). The list depends on the target
    alone."""
    yield from _warm_starts(h_hat)
    n2 = h_hat.shape[0]
    for m in range(N_PROBES):
        rng = np.random.default_rng(m)
        yield haar_orthogonal(n2, rng), rng.normal(scale=1.0, size=n2 // 2)


def pair_factorize(g: Metric, h: Metric) -> Metric:
    """Middle metric g1 with both ratios g->g1 and g1->h eigenvalue-paired.

    Normalizes to g = Id and parametrizes the candidate as an orthogonal
    conjugate of a doubled diagonal. One search runs a Gauss-Newton polish on
    the pair gaps of the remaining ratio, first from the warm starts (the
    interleaved-pairing closed form, which answers near-diagonal targets
    outright, and the cycle arrangements), then from N_PROBES fixed random
    starts, and stops at the first job that converges. The start list is
    fixed, so the result is a function of (g, h) alone. Success means a
    pairing defect at most FACTORIZE_DEFECT_TOL and both ratios paired at
    FACTORIZE_PAIRED_TOL. Every failure raises FactorizationFailed: with the
    best candidate, the smallest (defect, job index), or with best=None when
    rounding leaves that candidate indefinite.
    """
    w = g.sqrt_inv()
    h_t = w @ h.g @ w
    h_t = 0.5 * (h_t + h_t.T)
    n2 = h_t.shape[0]
    _, logdet = np.linalg.slogdet(h_t)
    scale = float(np.exp(logdet / n2))
    h_hat = h_t / scale
    problem = _FactorizeProblem(h_hat)

    success_defect = 1e-26

    # The first job reaching full convergence wins, else the smallest
    # (defect, index): the strict < keeps the lower index on ties.
    best = None
    for q0, t0 in _jobs(h_hat):
        res = problem.polish(q0, t0)
        if res[2] <= success_defect:
            best = res
            break
        if best is None or res[2] < best[2]:
            best = res
    best_q, best_t, _ = best
    # Warm starts carry a meaningful raw scale (the cyclic chain's); clamp
    # only runaway means so a wandering probe cannot blow up the report.
    mean = float(np.clip(np.mean(best_t), -20.0, 20.0))
    best_t = best_t - np.mean(best_t) + mean

    x_hat = problem.x_matrix(best_q, best_t)
    x_mat = 0.5 * scale * (x_hat + x_hat.T)
    w_inv = np.linalg.inv(w)
    try:
        g1 = Metric(w_inv @ x_mat @ w_inv)
    except ValueError as err:
        # X is positive definite, but a wide spread of t can leave it so
        # ill-conditioned that the conjugation rounds it indefinite
        raise FactorizationFailed(f"best candidate {err}") from None
    best_defect = pair_defect(g1, h)
    ok = (best_defect <= FACTORIZE_DEFECT_TOL
          and paired_eigenvalues(g, g1, FACTORIZE_PAIRED_TOL) is not None
          and paired_eigenvalues(g1, h, FACTORIZE_PAIRED_TOL) is not None)
    if not ok:
        raise FactorizationFailed(
            f"pairing defect {best_defect:.3e} above tolerance "
            f"{FACTORIZE_DEFECT_TOL:.1e}", best=g1, defect=best_defect)
    return g1


# ---------------------------------------------------------------------------
# Chains


@dataclass(frozen=True)
class Chain:
    """Hop path: structures with a shared compatible metric per hop."""

    structures: tuple
    metrics: tuple

    def __post_init__(self):
        structures = tuple(self.structures)
        metrics = tuple(self.metrics)
        if len(structures) == 0:
            raise ValueError("chain needs at least one structure")
        if len(metrics) != len(structures) - 1:
            raise ValueError("chain needs one metric per consecutive pair")
        if len(metrics) > 6:
            raise ValueError(f"chain exceeds 6 hops ({len(metrics)})")
        object.__setattr__(self, "structures", structures)
        object.__setattr__(self, "metrics", metrics)

    @property
    def hops(self) -> int:
        return len(self.metrics)


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    max_residual: float
    hops: int
    hop_residuals: tuple


def verify_chain(chain: Chain) -> ChainReport:
    """Check every hop at HOP_TOL: both endpoint structures preserve the hop
    metric, structures square to -Id, metrics are positive definite."""
    residuals = []
    worst = 0.0
    ok = True
    for k, metric in enumerate(chain.metrics):
        if min_eig_sym(metric.g) <= 0:
            ok = False
        r = max(chain.structures[k].compatibility_residual(metric),
                chain.structures[k + 1].compatibility_residual(metric))
        n2 = chain.structures[k].dim
        r = max(r, rel_residual(chain.structures[k].j @ chain.structures[k].j,
                                -np.eye(n2)))
        residuals.append(r)
        worst = max(worst, r)
    if chain.metrics:
        last = chain.structures[-1]
        worst = max(worst, rel_residual(last.j @ last.j, -np.eye(last.dim)))
    if worst > HOP_TOL:
        ok = False
    return ChainReport(ok=ok, max_residual=worst, hops=chain.hops,
                       hop_residuals=tuple(residuals))


# connect's budget: random middles for the 6-hop route, and attempts per
# 3-hop route (the first from the {1, J}-averages of Id).
MAX_ATTEMPTS = 8
DIRECT_RETRIES = 3


@dataclass(frozen=True)
class ConnectOptions:
    """seed draws the retries' compatible metrics and the 6-hop middles;
    certify_generic checks middles at `bound`."""

    seed: int = 0
    certify_generic: bool = False
    bound: int = 10


def compatible_metric(j: ComplexStructure, rng=None) -> Metric:
    """A metric preserved by j: the {1, j}-average of Id (or of a seeded SPD)."""
    n2 = j.dim
    if rng is None:
        base = np.eye(n2)
    else:
        base = random_spd(n2, rng, cond=4.0)
    return Metric(_average(base, j))


def _three_hops(i: ComplexStructure, j: ComplexStructure, rng) -> Chain:
    last_err = None
    for attempt in range(DIRECT_RETRIES):
        g = compatible_metric(i, None if attempt == 0 else rng)
        h = compatible_metric(j, None if attempt == 0 else rng)
        try:
            g1 = pair_factorize(g, h)
        except FactorizationFailed as err:
            last_err = err
            continue
        i1 = common_structure_from_metrics(g, g1, tol=FACTORIZE_PAIRED_TOL)
        i2 = common_structure_from_metrics(g1, h, tol=FACTORIZE_PAIRED_TOL)
        chain = Chain(structures=(i, i1, i2, j), metrics=(g, g1, h))
        if verify_chain(chain).ok:
            return chain
    raise last_err or FactorizationFailed("no verified 3-hop chain", None, None)


def _middle_is_generic(m: ComplexStructure, bound: int) -> bool:
    from .hodge import is_generic
    from .torus import torus_from_structure
    report = is_generic(torus_from_structure(m), bound=bound)
    return report.verdict == "no_obstruction_found"


def connect(i: ComplexStructure, j: ComplexStructure,
            opts: ConnectOptions | None = None) -> Chain:
    """Chain of at most 6 hops between two structures on the same lattice.

    Strategy: 1 hop when a common metric exists; otherwise the direct 3-hop
    route through a pair factorization, tried DIRECT_RETRIES times; otherwise
    meet-in-the-middle through a random intermediate structure (3 + 3 hops),
    retried with up to MAX_ATTEMPTS fresh middles. Each candidate chain is
    checked with verify_chain at HOP_TOL; ChainNotFound when none passes.
    """
    opts = opts or ConnectOptions()
    if i.dim != j.dim:
        raise ValueError("structures live on different lattices")
    if frob(i.j - j.j) == 0.0:
        return Chain(structures=(i,), metrics=())
    rng = np.random.default_rng(opts.seed)
    g = common_metric(i, j)
    if g is not None:
        chain = Chain(structures=(i, j), metrics=(g,))
        if verify_chain(chain).ok:
            return chain
    try:
        return _three_hops(i, j, rng)
    except FactorizationFailed:
        pass
    for _ in range(MAX_ATTEMPTS):
        middle = random_structure(identity_metric(i.dim),
                                  int(rng.integers(0, 2 ** 32)))
        if opts.certify_generic and not _middle_is_generic(middle, opts.bound):
            continue
        try:
            left = _three_hops(i, middle, rng)
            right = _three_hops(middle, j, rng)
        except FactorizationFailed:
            continue
        chain = Chain(structures=left.structures + right.structures[1:],
                      metrics=left.metrics + right.metrics)
        if verify_chain(chain).ok:
            return chain
    raise ChainNotFound(f"no chain within {MAX_ATTEMPTS} random middles")
