import numpy as np
import pytest

import toruskit as tk
from toruskit.linalg import random_spd
from toruskit.twistor import component_flip, random_transversal_pair, twistor_point


def lift(value):
    """The V^{0,1} representative of a fiber value, as a vector in C^{2n}."""
    return value.at.frame.basis @ value.w


def tangent_dimension(n):
    """Complex dimension of T_s S in the skew-matrix model: n(n-1)/2."""
    return n * (n - 1) // 2


def test_conjugate_transversal(idm6, j0):
    p = twistor_point(j0, idm6)
    q = tk.conjugate_point(p)
    assert tk.transversal(p, q)
    assert not tk.transversal(p, p)


def test_random_pairs_transversal(idm6):
    for seed in range(100):
        a, b = random_transversal_pair(idm6, seed)
        assert tk.transversal(a, b)


def test_same_component_shares_a_line(idm6):
    # isotropic intersection parity: n = 3 is odd, so same-component pairs
    # always meet in at least a line
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = twistor_point(tk.random_structure(idm6, rng), idm6)
        j2 = tk.random_structure(idm6, rng)
        b = twistor_point(j2, idm6)
        if tk.transversal(a, b):
            b = twistor_point(component_flip(j2, idm6), idm6)
        assert not tk.transversal(a, b)


@pytest.mark.parametrize("cond", [1.0, 10.0, 1e3])
def test_twistor_point_frame_is_g_isotropic_and_orthonormal(cond):
    for s in range(20):
        rng = np.random.default_rng([5400, s])
        g = tk.Metric(random_spd(6, rng, cond=cond)) if cond > 1 else tk.identity_metric(6)
        j = tk.random_structure(g, rng)
        b = twistor_point(j, g).frame.basis
        assert np.abs(b.T @ g.g @ b).max() < 1e-12 * cond
        assert np.abs(b.conj().T @ g.g @ b - np.eye(3)).max() < 1e-12 * cond
        assert np.abs(j.j @ b + 1j * b).max() < 1e-12 * cond


def test_conjugate_point_involution_and_sign(idm6):
    p = twistor_point(tk.random_structure(idm6, 3), idm6)
    pp = tk.conjugate_point(tk.conjugate_point(p))
    assert np.array_equal(pp.frame.basis, p.frame.basis)
    j = p.structure()
    jc = tk.conjugate_point(p).structure()
    assert np.abs(jc.j + j.j).max() < 1e-10


def test_kappa_on_subspaces(idm6, j0):
    p = twistor_point(j0, idm6)
    col = tk.SectionVector(p.frame.basis[:, 2])
    w = tk.kappa(col, p).w
    assert np.abs(w - np.array([0, 0, 1])).max() < 1e-12
    hol = tk.SectionVector(p.frame.basis[:, 0].conj())
    assert np.abs(tk.kappa(hol, p).w).max() < 1e-12


def test_kappa_reconstruction(idm6):
    rng = np.random.default_rng(2)
    for seed in range(20):
        g = tk.Metric(random_spd(6, np.random.default_rng(seed), cond=5.0))
        p = twistor_point(tk.random_structure(g, seed), g)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w = tk.kappa(tk.SectionVector(v), p)
        v10 = v - lift(w)
        # remainder lies in V^{1,0} = conj span
        coords = np.linalg.solve(p.frame.combined(), v10)
        assert np.abs(coords[3:]).max() < 1e-10
        assert np.abs(lift(w) + v10 - v).max() < 1e-10


def test_section_solve_zero_is_zero(idm6):
    a, b = random_transversal_pair(idm6, 0)
    v = tk.section_solve(a, b, np.zeros(3), np.zeros(3))
    assert np.abs(v.v).max() < 1e-12


def test_section_solve_conjugate_closed_form(idm6, j0):
    p = twistor_point(j0, idm6)
    q = tk.conjugate_point(p)
    rng = np.random.default_rng(1)
    wi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    wj = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = tk.section_solve(p, q, wi, wj)
    expect = p.frame.basis @ wi + q.frame.basis @ wj
    assert np.abs(v.v - expect).max() < 1e-12
    assert np.abs(tk.kappa(v, p).w - wi).max() < 1e-12
    assert np.abs(tk.kappa(v, q).w - wj).max() < 1e-12


def test_section_solve_roundtrip(idm6):
    rng = np.random.default_rng(3)
    for seed in range(50):
        a, b = random_transversal_pair(idm6, seed)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        back = tk.section_solve(a, b, tk.kappa(tk.SectionVector(v), a),
                                tk.kappa(tk.SectionVector(v), b))
        assert np.abs(back.v - v).max() < 1e-9


def test_section_solve_not_transversal(idm6, j0):
    p = twistor_point(j0, idm6)
    with pytest.raises(tk.NotTransversal):
        tk.section_solve(p, p, np.zeros(3), np.ones(3))


def test_horizontal_section_fixed_point(idm6):
    x = np.array([1.0, -2, 0, 0.5, 3, -1])
    sec = tk.horizontal_section(x)
    a, b = random_transversal_pair(idm6, 9)
    back = tk.section_solve(a, b, tk.kappa(sec, a), tk.kappa(sec, b))
    assert np.abs(back.v - x).max() < 1e-10


def test_horizontal_zero():
    assert np.abs(tk.horizontal_section(np.zeros(6)).v).max() == 0


def test_psi_transport_properties(idm6):
    rng = np.random.default_rng(4)
    for seed in range(20):
        i_pt, l2 = random_transversal_pair(idm6, 100 + seed)
        # further points transversal to i_pt live in l2's component
        j3 = tk.random_structure(idm6, 5000 + seed)
        l1 = twistor_point(j3, idm6)
        if not tk.transversal(i_pt, l1):
            l1 = twistor_point(component_flip(j3, idm6), idm6)
        j4 = tk.random_structure(idm6, 6000 + seed)
        l3 = twistor_point(j4, idm6)
        if not tk.transversal(i_pt, l3):
            l3 = twistor_point(component_flip(j4, idm6), idm6)
        t = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        # t = 0 fixed point
        zero = tk.psi_transport(i_pt, l1, l2, np.zeros(3))
        assert np.abs(zero.w).max() < 1e-12
        # identity at equal points
        ident = tk.psi_transport(i_pt, l2, l2, t)
        assert np.abs(ident.w - t).max() < 1e-10
        # linearity
        s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = tk.psi_transport(i_pt, l1, l2, 2.0 * t + s)
        rhs = (2.0 * tk.psi_transport(i_pt, l1, l2, t).w
               + tk.psi_transport(i_pt, l1, l2, s).w)
        assert np.abs(lhs.w - rhs).max() < 1e-9
        # composition through the same reference point
        comp = tk.psi_transport(i_pt, l1, l2, tk.psi_transport(i_pt, l2, l3, t))
        direct = tk.psi_transport(i_pt, l1, l3, t)
        assert np.abs(comp.w - direct.w).max() < 1e-9


def test_tangent_dimension_rank(idm6):
    # linearized isotropy constraint on frame perturbations B + conj(B) X:
    # with an orthonormal frame the constraint is X + X^T = 0, so the tangent
    # space is the skew matrices, complex dimension n(n-1)/2
    p = twistor_point(tk.random_structure(idm6, 8), idm6)
    b = p.frame.basis
    g = idm6.g
    rows = []
    for a in range(3):
        for c in range(3):
            x = np.zeros((3, 3), complex)
            x[a, c] = 1.0
            db = b.conj() @ x
            constraint = db.T @ g @ b + b.T @ g @ db
            rows.append(constraint[np.triu_indices(3)])
    m = np.array(rows)                      # C-linear map X -> sym constraint
    rank = np.linalg.matrix_rank(m, tol=1e-10)
    assert rank == 6
    assert 9 - rank == tangent_dimension(3) == 3


def test_curvature_values(idm6):
    p = twistor_point(tk.random_structure(idm6, 10), idm6)
    assert tk.b_minus_curvature(p, np.zeros((3, 3)), np.ones(3)) == 0.0
    xi = np.zeros((3, 3), complex)
    xi[0, 1], xi[1, 0] = 1.5, -1.5
    b = np.array([2.0, 1j, 0.0])
    val = tk.b_minus_curvature(p, xi, b)
    assert abs(val + np.linalg.norm(xi @ b) ** 2) < 1e-12
    # kernel direction gives zero
    assert tk.b_minus_curvature(p, xi, np.array([0, 0, 1.0])) == 0.0
    with pytest.raises(tk.NotSkew):
        tk.b_minus_curvature(p, np.eye(3), b)


def test_curvature_negativity_sweep(idm6):
    rng = np.random.default_rng(0)
    for trial in range(100):
        p = twistor_point(tk.random_structure(idm6, 400 + trial), idm6)
        xi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        xi = 0.5 * (xi - xi.T)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        val = tk.b_minus_curvature(p, xi, b)
        assert val <= 0
        if np.linalg.norm(xi @ b) > 1e-12:
            assert val < 0
    # odd-dimensional skew matrices are singular: the trivial-kernel premise
    # of strict negativity is vacuous at n = 3, so exercise it at n = 4
    g8 = tk.identity_metric(8)
    strict = 0
    for trial in range(50):
        p = twistor_point(tk.random_structure(g8, trial), g8)
        xi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        xi = 0.5 * (xi - xi.T)
        if np.linalg.svd(xi, compute_uv=False)[-1] > 1e-8:
            b4 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert tk.b_minus_curvature(p, xi, b4) < 0
            strict += 1
    assert strict > 40
