import numpy as np
import pytest

import toruskit as tk
from toruskit.linalg import random_spd


@pytest.fixture
def idm6():
    return tk.identity_metric(6)


@pytest.fixture
def j0():
    return tk.standard_structure(3)


def t0_periods(n=3):
    return np.hstack([np.eye(n), 1j * np.eye(n)])


def t0_exact(n=3):
    from toruskit import exact
    per = np.empty((n, 2 * n), dtype=object)
    for i in range(n):
        for j in range(n):
            per[i, j] = exact.QI(1 if i == j else 0)
            per[i, n + j] = exact.QI(0, 1 if i == j else 0)
    return tk.make_torus(per)


def twisted_laplacian(space, mode, twist):
    """Laplacian eigenvalue 4 pi^2 |frame^T (m + twist)|^2 of the mode m of
    the complex twisted by a character with phases `twist`."""
    z = space.frame.T @ (np.asarray(mode, dtype=float) + twist)
    return float(4 * np.pi ** 2 * np.sum(np.abs(z) ** 2))


def principal_angles(a, b):
    """Principal angles between the column spans of a and b, in [0, pi/2].

    Sine-based: the arccos formula cannot resolve angles below sqrt(eps).
    Both bases are orthonormalized by a thin SVD (full rank assumed).
    """
    qa, qb = (np.linalg.svd(x, full_matrices=False)[0] for x in (a, b))
    perp = qb - qa @ (qa.conj().T @ qb)
    s = np.linalg.svd(perp, compute_uv=False)[::-1]
    return np.arcsin(np.clip(s, 0.0, 1.0))[::-1]


def general_position_pair(seed, n2=6):
    """Structures compatible with independent random metrics (no shared one)."""
    rng = np.random.default_rng(seed)
    ga = tk.Metric(random_spd(n2, rng, cond=10.0))
    gb = tk.Metric(random_spd(n2, rng, cond=10.0))
    return tk.random_structure(ga, rng), tk.random_structure(gb, rng)
