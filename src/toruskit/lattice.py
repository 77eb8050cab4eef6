"""LLL reduction and integer-relation search.

The basis rows are kept as exact Python ints; Gram-Schmidt data is float.
Sizes here are small (at most a few dozen rows): the Gram-Schmidt data is
updated in place, O(n) per swap, and recomputed from the rows every 512 swaps
against float drift.
"""

from __future__ import annotations

import numpy as np

from . import exact

LLL_DELTA = 0.99
RELATION_SCALE = 1e10


def lll_reduce(basis: list[list[int]]) -> list[list[int]]:
    """LLL-reduce integer row vectors (Lovasz constant LLL_DELTA). Returns a
    new list of rows.

    The rows stay exact Python ints. The float Gram-Schmidt data is updated
    incrementally: under size reductions, and by the classical O(n) update
    on a swap. It is recomputed in full every 512 swaps, and whenever the
    update would leave a non-positive norm.
    """
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n <= 1:
        return b

    def gram_schmidt():
        bf = np.array(b, dtype=float)
        mu = np.zeros((n, n))
        bstar = np.zeros_like(bf)
        norms = np.zeros(n)
        for i in range(n):
            bstar[i] = bf[i]
            for j in range(i):
                mu[i, j] = 0.0 if norms[j] == 0 else bf[i] @ bstar[j] / norms[j]
                bstar[i] -= mu[i, j] * bstar[j]
            norms[i] = bstar[i] @ bstar[i]
        return mu, norms

    mu, norms = gram_schmidt()
    k = 1
    steps = 0
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu[k, :j] -= q * mu[j, :j]
                mu[k, j] -= q
        if norms[k] >= (LLL_DELTA - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        steps += 1
        if steps % 512 == 0:
            mu, norms = gram_schmidt()  # periodic refresh against float drift
            k = max(k - 1, 1)
            continue
        # O(n) swap update of the Gram-Schmidt data (classical step 2)
        mu_old = mu[k, k - 1]
        b_new = norms[k] + mu_old * mu_old * norms[k - 1]
        if b_new <= 0:
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
            continue
        mu[k, k - 1] = mu_old * norms[k - 1] / b_new
        norms[k] = norms[k - 1] * norms[k] / b_new
        norms[k - 1] = b_new
        if k > 1:
            mu[[k - 1, k], : k - 1] = mu[[k, k - 1], : k - 1]
        for i in range(k + 1, n):
            t = mu[i, k]
            mu[i, k] = mu[i, k - 1] - mu_old * t
            mu[i, k - 1] = t + mu[k, k - 1] * mu[i, k]
        k = max(k - 1, 1)
    return b


def primitive(vec) -> np.ndarray:
    """The primitive integer vector on the ray of vec, first nonzero entry > 0."""
    v = exact.clear_denominators(vec)
    lead = next((x for x in v if x != 0), 0)
    return -v if lead < 0 else v


def relation_candidates(a: np.ndarray) -> list[np.ndarray]:
    """Integer vectors x with a @ x near zero, by LLL on [I | RELATION_SCALE*a^T].

    `a` is a real m x d matrix of constraints. Candidates come back ordered by
    the reduced basis; callers re-verify residuals and coefficient bounds.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    m, d = a.shape
    rows = []
    for j in range(d):
        tail = [int(round(RELATION_SCALE * a[i, j])) for i in range(m)]
        rows.append([1 if t == j else 0 for t in range(d)] + tail)
    reduced = lll_reduce(rows)
    out = []
    for row in reduced:
        x = np.array(row[:d], dtype=object)
        if any(v != 0 for v in x):
            out.append(primitive(x))
    return out


def small_relations(a: np.ndarray, bound: int, residual_tol: float):
    """The LLL candidates x with |x|_inf <= bound and ||a x|| < residual_tol * |x|,
    in the order of relation_candidates. Yields nothing when bound < 1."""
    if bound < 1:
        return
    a = np.atleast_2d(np.asarray(a, dtype=float))
    for x in relation_candidates(a):
        xf = x.astype(float)
        if (np.max(np.abs(xf)) <= bound
                and np.linalg.norm(a @ xf) < residual_tol * np.linalg.norm(xf)):
            yield x


def small_relation(a: np.ndarray, bound: int, residual_tol: float):
    """The first of small_relations(a, bound, residual_tol), or None."""
    return next(small_relations(a, bound, residual_tol), None)
