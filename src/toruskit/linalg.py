"""Small shared numerical helpers (float backend)."""

import numpy as np

DEFAULT_TOL = 1e-9


def frob(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def rel_residual(a, b) -> float:
    """||a - b|| / max(||b||, 1)."""
    return frob(np.asarray(a) - np.asarray(b)) / max(frob(b), 1.0)


def haar_orthogonal(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random orthogonal matrix: QR of a standard normal with sign-fixed diagonal."""
    a = rng.standard_normal((m, m))
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def random_spd(m: int, rng: np.random.Generator, cond: float = 10.0) -> np.ndarray:
    """Random symmetric positive definite matrix with condition number <= cond."""
    q = haar_orthogonal(m, rng)
    lo, hi = 1.0 / np.sqrt(cond), np.sqrt(cond)
    d = np.exp(rng.uniform(np.log(lo), np.log(hi), size=m))
    g = (q * d) @ q.T
    return 0.5 * (g + g.T)


def min_eig_sym(g: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (g + g.T))[0])
