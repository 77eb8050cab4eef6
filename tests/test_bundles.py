import numpy as np
import pytest

import toruskit as tk
from toruskit import bundles
from toruskit.bundles import Character, ExtClass, GradedFlatBundle
from toruskit.fourier import FourierForm, FourierFormSpace, dbar, laplace_scalar
from toruskit.twistor import component_flip, random_transversal_pair, twistor_point

from conftest import twisted_laplacian


def trivial_chain_bundle(k, two_n=6):
    ch = Character.trivial(two_n)
    return GradedFlatBundle(blocks=tuple((ch, 1) for _ in range(k)))


def line_form(n, a, value):
    arr = np.zeros((n, 1, 1), complex)
    arr[a, 0, 0] = value
    return arr


def random_ext_class(seed, blocks=3, n=3):
    rng = np.random.default_rng(seed)
    bundle = trivial_chain_bundle(blocks, 2 * n)
    forms = {}
    for i in range(blocks):
        for j in range(i):
            forms[(i, j)] = (rng.standard_normal((n, 1, 1))
                             + 1j * rng.standard_normal((n, 1, 1)))
    return ExtClass(bundle=bundle, forms=forms)


# ---------------------------------------------------------------------------
# ext dimension


def test_ext_dimension_values():
    ch0 = Character.trivial(6)
    ch1 = Character(phases=(0.5, 0, 0, 0, 0, 0))
    bundle = GradedFlatBundle(blocks=((ch0, 2), (ch0, 3), (ch1, 1)))
    assert bundles.ext_dimension(bundle, 1, 0) == 3 * 3 * 2
    assert bundles.ext_dimension(bundle, 2, 0) == 0
    with pytest.raises(tk.IndexOrder):
        bundles.ext_dimension(bundle, 0, 1)


def test_ext_dimension_fourier_oracle():
    """Harmonic twisted (0,1)-forms: n constants for the trivial twist,
    none otherwise (the twisted Laplacian has no zero mode)."""
    sp = FourierFormSpace(3, 2)
    modes = [tuple(m) for m in
             np.stack(np.meshgrid(*[range(-2, 3)] * 2), -1).reshape(-1, 2)]
    # scan a slice of the mode cube; the zero mode is the only harmonic one
    trivial = [m2 + (0, 0, 0, 0) for m2 in modes]
    zero_count = sum(1 for m in trivial if laplace_scalar(sp, m) < 1e-12)
    assert zero_count == 1  # dim of harmonic (0,1) = n * that = n
    twist = np.zeros(6)
    twist[0] = 0.5
    assert all(twisted_laplacian(sp, m, twist) > 1e-6 for m in trivial)


def test_character_reduction_mod_one():
    ch = Character(phases=(1.25, -0.5, 0, 0, 0, 0))
    assert ch.phases[0] == 0.25 and ch.phases[1] == 0.5


def test_ext_class_rejects_mismatched_characters():
    ch0 = Character.trivial(6)
    ch1 = Character(phases=(0.5, 0, 0, 0, 0, 0))
    bundle = GradedFlatBundle(blocks=((ch0, 1), (ch1, 1)))
    with pytest.raises(ValueError):
        ExtClass(bundle=bundle, forms={(1, 0): line_form(3, 0, 1.0)})


def test_ext_class_rejects_upper_indices():
    with pytest.raises(tk.IndexOrder):
        ExtClass(bundle=trivial_chain_bundle(2), forms={(0, 1): line_form(3, 0, 1.0)})


# ---------------------------------------------------------------------------
# Maurer-Cartan obstruction


def test_obstruction_two_blocks_always_zero():
    nu = ExtClass(bundle=trivial_chain_bundle(2),
                  forms={(1, 0): line_form(3, 0, 2.0) + line_form(3, 1, 1j)})
    assert bundles.mc_obstruction(nu) == {}
    assert bundles.obstruction_norm(nu) == 0.0


def test_obstruction_same_direction_vanishes():
    nu = ExtClass(bundle=trivial_chain_bundle(3),
                  forms={(1, 0): line_form(3, 0, 2.0),
                         (2, 1): line_form(3, 0, 5.0)})
    assert bundles.mc_obstruction(nu) == {}


def test_obstruction_cross_direction():
    nu = ExtClass(bundle=trivial_chain_bundle(3),
                  forms={(1, 0): line_form(3, 0, 2.0),
                         (2, 1): line_form(3, 1, 3.0)})
    obs = bundles.mc_obstruction(nu)
    assert list(obs) == [(2, 0)]
    # (nu ^ nu)[2][0] = nu[1][0] ^ nu[2][1] = (2 dz1) ^ (3 dz2) = 6 dz1^dz2
    assert np.allclose(obs[(2, 0)][:, 0, 0], [6.0, 0, 0])
    assert bundles.obstruction_norm(nu) == pytest.approx(6.0)


def test_dbar_square_matches_obstruction(j0):
    for seed in range(25):
        nu = random_ext_class(seed)
        res = bundles.dbar_square_residual(nu, j0, 3)
        assert abs(res - bundles.obstruction_norm(nu)) < 1e-10
    # and on a structure that is not the standard one
    j = tk.random_structure(tk.identity_metric(6), 5)
    nu = random_ext_class(100)
    assert abs(bundles.dbar_square_residual(nu, j, 3)
               - bundles.obstruction_norm(nu)) < 1e-10


def test_zero_class_zero_residual(j0):
    nu = ExtClass(bundle=trivial_chain_bundle(2), forms={})
    assert bundles.dbar_square_residual(nu, j0, 2) < 1e-14


# ---------------------------------------------------------------------------
# Massey recursion


def embed_line(space, rank, entry, a, value, mode=(0,) * 6):
    c = np.zeros((3, rank, rank), complex)
    c[a][entry] = value
    return FourierForm(space, 1, {mode: c}, extra=(rank, rank))


def test_massey_trivial_wedge():
    sp = FourierFormSpace(3, 3)
    theta0 = embed_line(sp, 3, (0, 1), 0, 2.0)
    res = bundles.massey_solve(theta0)
    assert res.converged and res.n_terms == 2
    assert res.mc_residual < 1e-14
    assert (res.theta - theta0).norm() < 1e-14


def test_massey_obstructed():
    sp = FourierFormSpace(3, 3)
    theta0 = embed_line(sp, 3, (0, 1), 0, 2.0) + embed_line(sp, 3, (1, 2), 1, 3.0)
    with pytest.raises(tk.Obstructed) as err:
        bundles.massey_solve(theta0)
    assert err.value.obstruction_norm == pytest.approx(6.0)


def test_massey_solvable_mode_one_potential():
    """theta0 ^ theta0 = dbar(eta) for an explicit mode-1 potential eta;
    the first correction is exactly -eta and the sum solves the equation."""
    sp = FourierFormSpace(3, 3)
    a, b = 2.0, 3.0
    m = (0, 1, 0, 0, 0, 0)          # zeta = (0, 1/2, 0): dz2-closed direction
    theta0 = embed_line(sp, 3, (0, 1), 0, a) + embed_line(sp, 3, (1, 2), 1, b, mode=m)
    assert dbar(theta0).norm() < 1e-14
    eta = embed_line(sp, 3, (0, 2), 0, 1j * a * b / np.pi, mode=m)
    # substitution oracle: dbar eta equals the wedge
    from toruskit.fourier import wedge
    assert (dbar(eta) - wedge(theta0, theta0)).norm() < 1e-12
    res = bundles.massey_solve(theta0, tol=1e-12)
    assert res.converged
    assert res.mc_residual < 1e-9
    assert (res.theta - theta0 + eta).norm() < 1e-12


def test_massey_diverges_on_large_noncommuting_seed():
    sp = FourierFormSpace(3, 3)
    rng = np.random.default_rng(3)
    m1 = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * 3e3
    m2 = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * 3e3
    c1 = np.zeros((3, 3, 3), complex)
    c1[0] = m1
    c2 = np.zeros((3, 3, 3), complex)
    c2[1] = m2
    theta0 = (FourierForm(sp, 1, {(1, 0, 0, 0, 0, 0): c1}, extra=(3, 3))
              + FourierForm(sp, 1, {(0, 1, 0, 0, 0, 0): c2}, extra=(3, 3)))
    with pytest.raises(tk.Diverged):
        bundles.massey_solve(theta0, max_terms=25)


def test_massey_rejects_non_closed_seed():
    sp = FourierFormSpace(3, 3)
    c = np.zeros((3, 1, 1), complex)
    c[1, 0, 0] = 1.0                 # dz2 component
    theta0 = FourierForm(sp, 1, {(1, 0, 0, 0, 0, 0): c}, extra=(1, 1))
    # zeta points along dz1, so dbar theta0 = pi i f dz1^dz2 != 0
    with pytest.raises(ValueError):
        bundles.massey_solve(theta0)


# ---------------------------------------------------------------------------
# gauge action


def test_gauge_identity():
    nu = random_ext_class(0)
    out = bundles.gauge_scale(nu, np.ones(3))
    for key in nu.forms:
        assert np.array_equal(out.forms[key], nu.forms[key])


def test_gauge_preserves_zero_obstruction():
    rng = np.random.default_rng(1)
    for seed in range(100):
        nu = ExtClass(bundle=trivial_chain_bundle(2),
                      forms={(1, 0): (rng.standard_normal((3, 1, 1))
                                      + 1j * rng.standard_normal((3, 1, 1)))})
        alpha = np.exp(rng.uniform(-2, 2, 2))
        out = bundles.gauge_scale(nu, alpha)
        assert bundles.obstruction_norm(out) == 0.0


def test_gauge_obstruction_scales_bilinearly():
    nu = random_ext_class(7)
    alpha = np.array([1.0, 3.0, 5.0])
    lhs = bundles.mc_obstruction(bundles.gauge_scale(nu, alpha))
    rhs = bundles.mc_obstruction(nu)
    for (i, j), arr in rhs.items():
        assert np.allclose(lhs[(i, j)], arr * (alpha[i] / alpha[j]))


def test_gauge_shrinks_class():
    nu = random_ext_class(8)
    alpha = np.array([1.0, 1e3, 1e6])  # alpha_j >> alpha_i for i > j
    out = bundles.gauge_scale(nu, 1.0 / alpha)
    assert out.norm() <= nu.norm() / 1e3


def test_nonzero_class_survives_gauge():
    # shadow of "simple objects are line bundles": the harmonic class of a
    # non-split filtration cannot be gauged to zero
    nu = random_ext_class(9, blocks=2)
    assert nu.norm() > 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        out = bundles.gauge_scale(nu, np.exp(rng.uniform(-3, 3, 2)))
        assert out.norm() > 0


# ---------------------------------------------------------------------------
# twistor extension


def test_twistor_extend_endpoints(idm6):
    p_i, p_j = random_transversal_pair(idm6, 0)
    nu = random_ext_class(10, blocks=2)
    at_j = bundles.twistor_extend(nu, p_j, p_i, p_j)
    assert np.abs(at_j.forms[(1, 0)] - nu.forms[(1, 0)]).max() < 1e-10
    at_i = bundles.twistor_extend(nu, p_j, p_i, p_i)
    assert all(np.abs(arr).max() < 1e-10 for arr in at_i.forms.values()) \
        or at_i.forms == {}


def test_twistor_extend_reextension_roundtrip(idm6):
    for seed in range(20):
        p_i, p_j = random_transversal_pair(idm6, seed)
        nu = random_ext_class(200 + seed, blocks=2)
        j2 = tk.random_structure(idm6, 300 + seed)
        p_l = twistor_point(j2, idm6)
        if not tk.transversal(p_i, p_l):
            p_l = twistor_point(component_flip(j2, idm6), idm6)
        nu_l = bundles.twistor_extend(nu, p_j, p_i, p_l)
        back = bundles.twistor_extend(nu_l, p_l, p_i, p_j)
        assert np.abs(back.forms[(1, 0)] - nu.forms[(1, 0)]).max() < 1e-9


def test_twistor_extend_linear(idm6):
    p_i, p_j = random_transversal_pair(idm6, 5)
    nu1 = random_ext_class(11, blocks=2)
    nu2 = random_ext_class(12, blocks=2)
    j2 = tk.random_structure(idm6, 400)
    p_l = twistor_point(j2, idm6)
    if not tk.transversal(p_i, p_l):
        p_l = twistor_point(component_flip(j2, idm6), idm6)
    lhs = bundles.twistor_extend(2.0 * nu1 + nu2, p_j, p_i, p_l)
    rhs = (2.0 * bundles.twistor_extend(nu1, p_j, p_i, p_l)
           + bundles.twistor_extend(nu2, p_j, p_i, p_l))
    assert np.abs(lhs.forms[(1, 0)] - rhs.forms[(1, 0)]).max() < 1e-10


def test_twistor_extend_block_inclusion(idm6):
    p_i, p_j = random_transversal_pair(idm6, 6)
    nu2 = random_ext_class(13, blocks=2)
    # embed into a 3-block bundle (third block inert)
    big = ExtClass(bundle=trivial_chain_bundle(3),
                   forms={(1, 0): nu2.forms[(1, 0)]})
    j2 = tk.random_structure(idm6, 500)
    p_l = twistor_point(j2, idm6)
    if not tk.transversal(p_i, p_l):
        p_l = twistor_point(component_flip(j2, idm6), idm6)
    small_ext = bundles.twistor_extend(nu2, p_j, p_i, p_l)
    big_ext = bundles.twistor_extend(big, p_j, p_i, p_l)
    assert np.abs(big_ext.forms[(1, 0)] - small_ext.forms[(1, 0)]).max() < 1e-12


def test_twistor_extend_requires_transversal(idm6, j0):
    p = twistor_point(j0, idm6)
    nu = random_ext_class(14, blocks=2)
    with pytest.raises(tk.NotTransversal):
        bundles.twistor_extend(nu, p, p, p)


# ---------------------------------------------------------------------------
# flat connections


def test_flat_connection_two_blocks(j0):
    rng = np.random.default_rng(2)
    ch = Character(phases=tuple(rng.integers(0, 8, 6) / 8.0))
    bundle = GradedFlatBundle(blocks=((ch, 1), (ch, 1)))
    nu = ExtClass(bundle=bundle,
                  forms={(1, 0): rng.standard_normal((3, 1, 1))
                         + 1j * rng.standard_normal((3, 1, 1))})
    rep = bundles.flat_connection_check(nu, j0)
    assert rep.curvature_norm == 0.0
    assert rep.max_commutator < 1e-10


def test_flat_connection_obstructed_three_blocks(j0):
    nu = ExtClass(bundle=trivial_chain_bundle(3),
                  forms={(1, 0): line_form(3, 0, 2.0),
                         (2, 1): line_form(3, 1, 3.0)})
    rep = bundles.flat_connection_check(nu, j0)
    assert rep.curvature_norm == pytest.approx(bundles.obstruction_norm(nu))
    assert rep.max_commutator > 1e-3


def test_flat_connection_pure_characters(j0):
    rng = np.random.default_rng(3)
    blocks = tuple((Character(phases=tuple(rng.integers(0, 8, 6) / 8.0)), 1)
                   for _ in range(3))
    nu = ExtClass(bundle=GradedFlatBundle(blocks=blocks), forms={})
    rep = bundles.flat_connection_check(nu, j0)
    assert rep.max_commutator < 1e-14  # diagonal unitaries commute exactly


def test_holonomy_commutes_iff_flat(j0):
    for seed in range(30):
        nu = random_ext_class(600 + seed)
        rep = bundles.flat_connection_check(nu, j0)
        if bundles.obstruction_norm(nu) < 1e-12:
            assert rep.max_commutator < 1e-10
        else:
            assert rep.max_commutator > 1e-8


def test_holonomy_is_the_matrix_exponential(j0):
    # flat_connection_check sums exp(omega_k) in finitely many terms because
    # omega_k is nilpotent; scipy's expm is the reference.
    import scipy.linalg

    from toruskit.moduli import compatible_metric
    j1 = tk.random_structure(tk.identity_metric(6), 5)
    for blocks in (2, 3, 4):
        for seed in range(4):
            rng = np.random.default_rng(800 + 10 * blocks + seed)
            ch = Character(phases=tuple(rng.integers(0, 8, 6) / 8.0))
            ranks = [int(r) for r in rng.integers(1, 3, blocks)]
            forms = {(i, j): rng.standard_normal((3, ranks[j], ranks[i]))
                     + 1j * rng.standard_normal((3, ranks[j], ranks[i]))
                     for i in range(blocks) for j in range(i)}
            nu = ExtClass(bundle=GradedFlatBundle(
                blocks=tuple((ch, r) for r in ranks)), forms=forms)
            for j in (j0, j1):
                rep = bundles.flat_connection_check(nu, j)
                frame = twistor_point(j, compatible_metric(j)).frame
                dzbar_rows = np.linalg.inv(frame.combined())[3:, :]
                for k in range(6):
                    omega = np.tensordot(dzbar_rows[:, k], nu.big_matrices(),
                                         axes=(0, 0))
                    chi_k = np.diag(np.full(sum(ranks), ch.values()[k]))
                    want = scipy.linalg.expm(omega) @ chi_k
                    err = np.linalg.norm(rep.holonomy[k] - want)
                    assert err <= 1e-12 * np.linalg.norm(want), (blocks, seed, k)
