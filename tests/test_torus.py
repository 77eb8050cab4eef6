import numpy as np
import pytest

import toruskit as tk
from toruskit.linalg import random_spd

from conftest import principal_angles, t0_exact, t0_periods


def test_t0_is_valid():
    t = tk.make_torus(t0_periods())
    assert t.n == 3 and t.backend == "f64"


def test_real_dependent_columns_degenerate():
    with pytest.raises(tk.DegenerateLattice):
        tk.make_torus(np.hstack([np.eye(3), np.eye(3)]))


def test_random_periods_valid_with_probability_one():
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        p = rng.uniform(-1, 1, (3, 6)) + 1j * rng.uniform(-1, 1, (3, 6))
        tk.make_torus(p)  # must not raise


def test_t0_induced_structure_is_standard():
    t = tk.make_torus(t0_periods())
    assert np.allclose(t.induced_structure().j, tk.standard_structure(3).j)


def test_exact_t0_structure_is_rational():
    t = t0_exact()
    j = t.induced_structure()
    assert j.backend == "rational"
    assert np.array_equal(j.j, tk.standard_structure(3).j)


def test_canonical_frame_gives_j0(j0):
    # V^{0,1} of J0 is spanned by (e_k + i e_{k+3})/2; with the pinned sign
    # convention the (e_k - i e_{k+3}) basis spans V^{1,0} and yields -J0.
    b = np.zeros((6, 3), complex)
    for a in range(3):
        b[a, a] = 0.5
        b[3 + a, a] = 0.5j
    assert np.allclose(tk.structure_from_frame(tk.IsotropicFrame(basis=b)).j, j0.j)
    assert np.allclose(tk.structure_from_frame(tk.IsotropicFrame(basis=b.conj())).j,
                       -j0.j)


def test_conjugate_frame_flips_sign(idm6):
    j = tk.random_structure(idm6, 11)
    fr = tk.frame_from_structure(j, idm6)
    assert np.allclose(tk.structure_from_frame(fr.conjugated()).j, -j.j, atol=1e-12)


def test_roundtrip_structure_frame(idm6):
    for seed in range(50):
        rng = np.random.default_rng(seed)
        g = tk.Metric(random_spd(6, rng, cond=8.0))
        j = tk.random_structure(g, rng)
        fr = tk.frame_from_structure(j, g)
        assert fr.isotropy_residual(g) < 1e-10
        back = tk.structure_from_frame(fr)
        assert np.abs(back.j - j.j).max() < 1e-10
        # subspace-level round trip
        fr2 = tk.frame_from_structure(back, g)
        assert principal_angles(fr.basis, fr2.basis).max() < 1e-8


def test_frame_isotropic_for_paired_metric(j0):
    # J0 pairs coordinates (k, k+3), so its compatible doubled diagonals
    # repeat with that stride.
    g_ok = tk.Metric(np.diag([2.0, 3, 5, 2, 3, 5]))
    fr = tk.frame_from_structure(j0, g_ok)
    assert fr.isotropy_residual(g_ok) < 1e-12
    with pytest.raises(tk.NotCompatible):
        tk.frame_from_structure(j0, tk.Metric(np.diag([1.0, 2, 3, 4, 5, 6])))


def _pivots(j, frame):
    """The columns of P = (I + iJ)/2 that the frame's QR took, in order: on
    them the factor B^H P is upper triangular with a real diagonal."""
    r = frame.basis.conj().T @ (0.5 * (np.eye(j.dim) + 1j * j.j))
    small = 1e-10 * np.abs(r).max()
    order = []
    for k in range(frame.n):
        found = [c for c in range(j.dim) if c not in order
                 and np.abs(r[k + 1:, c]).max(initial=0.0) < small
                 and abs(r[k, c].imag) < small]
        assert len(found) == 1
        order.append(found[0])
    return order


def _seeded_structures(metric_of):
    for n in (2, 3, 4):
        for s in range(20):
            rng = np.random.default_rng([5300, n, s])
            g = metric_of(2 * n, rng)
            yield g, tk.random_structure(g, rng)


def _spd(two_n, rng):
    return tk.Metric(random_spd(two_n, rng, cond=10.0))


def _identity(two_n, rng):
    return tk.identity_metric(two_n)


def test_frame_pivots_match_geqp3_off_ties():
    # Off ties the greedy largest-remaining-norm pivots are LAPACK geqp3's,
    # and the frame is scipy's pivoted QR factor.
    import scipy.linalg
    for g, j in _seeded_structures(_spd):
        n = g.dim // 2
        fr = tk.frame_from_structure(j, g)
        q, _, piv = scipy.linalg.qr(0.5 * (np.eye(2 * n) + 1j * j.j), pivoting=True)
        assert _pivots(j, fr) == list(piv[:n])
        assert np.abs(fr.basis - q[:, :n]).max() <= 1e-12


def test_frame_tie_takes_lowest_column_and_ignores_ulps():
    # For a metric-orthogonal J every column of P has norm 1/sqrt(2), so the
    # first pivot is a tie: column 0 takes it, and a few ulps of J do not move
    # any pivot, or the frame beyond rounding.
    for make in (_identity, _spd):
        for g, j in _seeded_structures(make):
            fr = tk.frame_from_structure(j, g)
            order = _pivots(j, fr)
            if make is _identity:
                assert order[0] == 0
            rng = np.random.default_rng(order)
            j2 = tk.ComplexStructure(j.j + rng.integers(-4, 5, j.j.shape)
                                     * np.spacing(j.j))
            fr2 = tk.frame_from_structure(j2, g)
            assert _pivots(j2, fr2) == order
            assert np.abs(fr2.basis - fr.basis).max() <= 1e-12


def test_rational_structure_frame_is_float(idm6):
    j = t0_exact().induced_structure()
    fr = tk.frame_from_structure(j, idm6)
    float_fr = tk.frame_from_structure(tk.ComplexStructure(j.j), idm6)
    assert np.array_equal(fr.basis, float_fr.basis)
    assert tk.structure_from_frame(fr).backend == "f64"


def test_random_structure_properties(idm6):
    j = tk.random_structure(idm6, 0)
    assert np.abs(j.j @ j.j + np.eye(6)).max() < 1e-12
    assert np.abs(j.j.T @ j.j - np.eye(6)).max() < 1e-12


def test_random_structure_determinism(idm6):
    a = tk.random_structure(idm6, 123)
    b = tk.random_structure(idm6, 123)
    assert np.array_equal(a.j, b.j)


def test_random_structures_distinct(idm6):
    far = 0
    for s in range(100):
        a = tk.random_structure(idm6, 2 * s)
        b = tk.random_structure(idm6, 2 * s + 1)
        if np.linalg.norm(a.j - b.j) > 0.1:
            far += 1
    assert far >= 95


def test_minus_j_compatible(idm6):
    j = tk.random_structure(idm6, 5)
    assert (-j).is_compatible(idm6)


def test_torus_from_structure_roundtrip(idm6):
    for seed in range(10):
        j = tk.random_structure(idm6, seed)
        t = tk.torus_from_structure(j)
        assert np.abs(t.induced_structure().j - j.j).max() < 1e-9


def test_structure_validation_rejects_non_square_root():
    with pytest.raises(ValueError):
        tk.ComplexStructure(np.eye(6))


@pytest.mark.parametrize("j", [5.0, [1.0, 0.0], np.zeros((3, 3)), np.zeros((2, 4))])
def test_structure_validation_rejects_shape(j):
    with pytest.raises(ValueError, match="square of even size"):
        tk.ComplexStructure(j)


@pytest.mark.parametrize("entry", [float("nan"), float("inf")])
def test_structure_validation_rejects_non_finite(j0, entry):
    # a NaN residual compares False against any bound
    j = np.array(j0.j)
    j[1, 4] = entry
    with pytest.raises(ValueError, match="non-finite"):
        tk.ComplexStructure(j)


def _large_structure():
    # Near-degenerate periods: columns 5 and 6 differ by 1e-6, so the induced
    # structure, computed by a backward-stable solve, has ||J||_F about 3e6.
    rng = np.random.default_rng(18)
    p = rng.uniform(-1, 1, (3, 6)) + 1j * rng.uniform(-1, 1, (3, 6))
    p[:, 5] = p[:, 4] + 1e-6 * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
    return tk.make_torus(p).induced_structure()


def test_structure_validation_accepts_large_norm():
    j = _large_structure().j
    norm = np.linalg.norm(j)
    assert 1e6 < norm < 1e7
    # above the relative 1e-10 bound: only the rounding floor admits it
    assert np.linalg.norm(j @ j + np.eye(6)) / norm > 1e-10


def test_structure_validation_rejects_large_norm_perturbed():
    j = np.array(_large_structure().j)
    k = np.unravel_index(np.argmax(np.abs(j)), j.shape)
    j[k] *= 1 + 1e-6
    with pytest.raises(ValueError):
        tk.ComplexStructure(j)


def test_metric_validation():
    with pytest.raises(ValueError):
        tk.Metric(np.diag([1.0, -1, 1, 1, 1, 1]))


def test_near_singular_metric_rejects_or_has_finite_sqrt_inv():
    # Q diag(delta, e^N(0,1), ...) Q^T with delta far below the rounding of
    # the other eigenvalues: a metric that is accepted must have a finite
    # g^{-1/2}, or every ratio built from it is NaN
    from toruskit.linalg import haar_orthogonal
    accepted = 0
    for s in range(400):
        rng = np.random.default_rng([77, s])
        q = haar_orthogonal(6, rng)
        d = np.exp(rng.normal(size=6))
        d[0] = 10.0 ** rng.uniform(-20, -14)
        try:
            g = tk.Metric((q * d) @ q.T)
        except ValueError:
            continue
        accepted += 1
        assert np.isfinite(g.sqrt_inv()).all()
    assert 0 < accepted < 400


def test_metric_sqrt_inv_is_kept_read_only():
    g = tk.Metric(random_spd(6, np.random.default_rng(4), cond=50.0))
    w = g.sqrt_inv()
    assert g.sqrt_inv() is w and not w.flags.writeable
    lam, q = np.linalg.eigh(g.g)
    assert w.tobytes() == ((q / np.sqrt(lam)) @ q.T).tobytes()
    assert np.abs(w @ g.g @ w - np.eye(6)).max() < 1e-12
