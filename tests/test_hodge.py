from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toruskit as tk
from toruskit import exact, hodge
from toruskit.hodge import (MultiVector, basis_subsets, derivation_matrix, merge_sign,
                           pq_labels, pq_projectors, subset_index, verify_sublattice)

from conftest import t0_exact, t0_periods


def vector_wedge(dim, *vectors):
    """Wedge of plain vectors (each of length dim) as a MultiVector."""
    out = None
    for v in vectors:
        w = MultiVector(dim, 1, v)
        out = w if out is None else out.wedge(w)
    return out


def u_basis_vector(a, n=3):
    """(1,0) vector u_a = (e_a - i e_{a+n})/2 for the standard structure."""
    u = np.zeros(2 * n, complex)
    u[a] = 0.5
    u[a + n] = -0.5j
    return u


def test_e14_is_pure_11(j0):
    w = MultiVector.basis_element(6, 0, 3)
    comps = tk.pq_decompose(w, j0)
    # hand oracle: e1 ^ e4 = -2i u ^ conj(u)
    u = u_basis_vector(0)
    oracle = -2j * vector_wedge(6, u, u.conj()).coeffs
    assert np.abs(oracle - w.coeffs).max() < 1e-15
    assert comps[(1, 1)].norm() > 0.9
    for label, comp in comps.items():
        if label != (1, 1):
            assert comp.norm() < 1e-12
    assert tk.hodge_type(w, j0) == (1, 1)


def test_e12_is_mixed(j0):
    w = MultiVector.basis_element(6, 0, 1)
    comps = tk.pq_decompose(w, j0)
    u1, u2 = u_basis_vector(0), u_basis_vector(1)
    expect = {
        (2, 0): vector_wedge(6, u1, u2),
        (1, 1): vector_wedge(6, u1, u2.conj()) + vector_wedge(6, u1.conj(), u2),
        (0, 2): vector_wedge(6, u1.conj(), u2.conj()),
    }
    for label, mv in expect.items():
        assert np.abs(comps[label].coeffs - mv.coeffs).max() < 1e-12
        assert comps[label].norm() > 0.1
    assert tk.hodge_type(w, j0) is None


def test_zero_decomposes_to_zero(j0):
    w = MultiVector(6, 2)
    comps = tk.pq_decompose(w, j0)
    assert all(c.norm() == 0 for c in comps.values())
    assert tk.hodge_type(w, j0) is None


def test_volume_form_is_nn(j0):
    w = MultiVector.basis_element(6, 0, 1, 2, 3, 4, 5)
    assert tk.hodge_type(w, j0) == (3, 3)


def _exact_class(terms):
    return MultiVector.from_terms(6, 2, {s: exact.QI(*c) for s, c in terms.items()})


def test_field_comes_from_the_coefficients():
    qi = np.array([exact.QI(k, -k) for k in range(15)], dtype=object)
    assert MultiVector(6, 2, qi).backend == "rational"
    w = _exact_class({(0, 3): (Fraction(1, 2), 1), (1, 4): (Fraction(1, 3), 0)})
    assert w.backend == "rational" and w.coeffs.dtype == object
    assert w.coeffs[hodge.subset_index(6, 2)[(0, 3)]] == exact.QI(Fraction(1, 2), 1)
    f = MultiVector.from_terms(6, 2, {(0, 3): 0.5 + 1j})
    assert f.backend == "f64" and f.coeffs.dtype == np.complex128
    assert MultiVector(6, 2, np.arange(15)).coeffs.dtype == np.complex128


def test_exact_classes_stay_exact():
    a = _exact_class({(0, 3): (Fraction(1, 2), 1), (1, 4): (Fraction(1, 3), 0)})
    b = _exact_class({(2, 5): (2, 0), (0, 1): (0, -1)})
    wedge = a.wedge(b)
    assert list(wedge.terms())
    for w in (wedge, a.conj(), a + b, a - b, a * exact.I_Q):
        assert w.backend == "rational" and w.coeffs.dtype == object
        assert all(isinstance(c, exact.QI) for _, c in w.terms())
    at_03 = hodge.subset_index(6, 2)[(0, 3)]
    assert a.conj().coeffs[at_03] == exact.QI(Fraction(1, 2), -1)
    # exact, then rounded: the float wedge of the rounded classes agrees
    rounded = a.to_float().wedge(b.to_float())
    assert wedge.to_float().coeffs.dtype == np.complex128
    assert np.abs(wedge.to_float().coeffs - rounded.coeffs).max() < 1e-15


def test_float_classes_keep_complex128():
    a = MultiVector(6, 2, np.random.default_rng(2).standard_normal(15))
    b = MultiVector.basis_element(6, 2, 5)
    for w in (a, b, a.wedge(b), a.conj(), a + b, a - b, 2.0 * a, a.to_float(),
              vector_wedge(6, np.arange(6.0), np.ones(6))):
        assert w.backend == "f64" and w.coeffs.dtype == np.complex128


def test_exact_class_decomposes_through_to_float(j0):
    w = _exact_class({(0, 3): (Fraction(1, 2), 1), (0, 1): (Fraction(1, 3), 0)})
    got, want = tk.pq_decompose(w, j0), tk.pq_decompose(w.to_float(), j0)
    assert list(got) == list(want)
    for label in want:
        assert got[label].coeffs.tobytes() == want[label].coeffs.tobytes()


def test_projector_algebra(idm6):
    for seed in range(5):
        j = tk.random_structure(idm6, seed)
        for degree in (2, 4):
            projs = pq_projectors(j, degree)
            size = next(iter(projs.values())).shape[0]
            total = sum(projs.values())
            assert np.abs(total - np.eye(size)).max() < 1e-9
            labels = list(projs)
            for a in labels:
                assert np.abs(projs[a] @ projs[a] - projs[a]).max() < 1e-9
                for b in labels:
                    if a != b:
                        assert np.abs(projs[a] @ projs[b]).max() < 1e-9


def _float_projectors_oracle(j, degree):
    """The float Lagrange loop as it was before both fields shared one loop;
    the byte oracle of pq_projectors."""
    n = j.dim // 2
    labels = pq_labels(n, degree)
    d = derivation_matrix(j.j.astype(complex), degree)
    size = d.shape[0]
    out = {}
    for (p, q) in labels:
        acc = np.eye(size, dtype=complex)
        lam = 1j * (p - q)
        for (pp, qq) in labels:
            if (pp, qq) == (p, q):
                continue
            mu = 1j * (pp - qq)
            acc = acc @ (d - mu * np.eye(size)) / (lam - mu)
        out[(p, q)] = acc
    return out


def _exact_projectors_oracle(j, degree):
    """The Gaussian-rational Lagrange loop as it was before both fields
    shared one loop; the entrywise oracle of pq_projectors(exact_mode=True)."""
    n = j.dim // 2
    labels = pq_labels(n, degree)
    d = derivation_matrix(j.j_exact, degree)
    dq = np.empty(d.shape, dtype=object)
    for idx in np.ndindex(d.shape):
        dq[idx] = exact.QI(d[idx])
    size = d.shape[0]
    out = {}
    for (p, q) in labels:
        acc = exact.eye_exact(size, exact.QI)
        lam = exact.I_Q * (p - q)
        for (pp, qq) in labels:
            if (pp, qq) == (p, q):
                continue
            mu = exact.I_Q * (pp - qq)
            shifted = dq.copy()
            for i in range(size):
                shifted[i, i] = shifted[i, i] - mu
            acc = exact.mm(acc, shifted)
            denom = lam - mu
            acc = np.vectorize(lambda v: v / denom, otypes=[object])(acc)
        out[(p, q)] = acc
    return out


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_float_projectors_match_oracle_bytes(idm6, degree):
    for seed in range(3):
        j = tk.random_structure(idm6, seed)
        got = pq_projectors(j, degree)
        want = _float_projectors_oracle(j, degree)
        assert list(got) == list(want)
        for label in want:
            assert got[label].dtype == complex
            assert got[label].tobytes() == want[label].tobytes()


@pytest.mark.parametrize("degree", [2, 4])
def test_exact_projectors_match_oracle(degree):
    for seed in range(3):
        j = tk.random_torus(3, seed, backend="rational").induced_structure()
        got = pq_projectors(j, degree, exact_mode=True)
        want = _exact_projectors_oracle(j, degree)
        assert list(got) == list(want)
        for label in want:
            assert got[label].shape == want[label].shape
            assert all(isinstance(a, exact.QI) and a == b
                       for a, b in zip(got[label].ravel(), want[label].ravel()))


def test_exact_projectors_need_rational_structure(j0):
    with pytest.raises(tk.BackendRequired):
        pq_projectors(j0, 2, exact_mode=True)


def test_conjugation_symmetry(idm6):
    j = tk.random_structure(idm6, 7)
    rng = np.random.default_rng(0)
    w = MultiVector(6, 2, rng.standard_normal(15).astype(complex))  # real class
    comps = tk.pq_decompose(w, j)
    assert np.abs(comps[(2, 0)].conj().coeffs - comps[(0, 2)].coeffs).max() < 1e-10


def test_minus_j_swaps_pq(idm6):
    j = tk.random_structure(idm6, 8)
    rng = np.random.default_rng(1)
    w = MultiVector(6, 2, rng.standard_normal(15) + 1j * rng.standard_normal(15))
    a = tk.pq_decompose(w, j)
    b = tk.pq_decompose(w, -j)
    for (p, q) in a:
        assert np.abs(a[(p, q)].coeffs - b[(q, p)].coeffs).max() < 1e-9


def _common_11_dimension(idm6, seeds):
    stack = []
    for s in seeds:
        j = tk.random_structure(idm6, s)
        stack.append(np.eye(15) - pq_projectors(j, 2)[(1, 1)])
    sv = np.linalg.svd(np.vstack(stack), compute_uv=False)
    return int(np.sum(sv < 1e-7))


def test_lemma_statistical_shadow(idm6):
    """Enough independent (1,1)-subspaces of Lambda^2 meet only in 0.

    On R^6 the threshold is four structures: any three orthogonal complex
    structures share a commuting complex structure, whose bivector is a
    common (1,1) class, so the triple intersection is always a line.
    """
    hits = 0
    for trial in range(100):
        if _common_11_dimension(idm6, range(1000 + 4 * trial, 1004 + 4 * trial)) == 0:
            hits += 1
    assert hits == 100


def test_three_structures_share_a_line(idm6):
    for trial in range(20):
        assert _common_11_dimension(idm6, range(7000 + 3 * trial,
                                                7003 + 3 * trial)) == 1


def test_pq_labels_respect_rank():
    assert pq_labels(3, 2) == [(0, 2), (1, 1), (2, 0)]
    assert pq_labels(3, 4) == [(1, 3), (2, 2), (3, 1)]
    assert pq_labels(3, 6) == [(3, 3)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=6, max_size=6),
       st.lists(st.integers(-4, 4), min_size=6, max_size=6))
def test_wedge_anticommutes_on_vectors(xs, ys):
    a = vector_wedge(6, np.array(xs, dtype=complex))
    b = vector_wedge(6, np.array(ys, dtype=complex))
    assert np.abs(a.wedge(b).coeffs + b.wedge(a).coeffs).max() == 0


# ---------------------------------------------------------------------------
# The term loops the wedge table replaced, kept as its byte oracles


def _wedge_loop(v, w):
    """MultiVector.wedge as a loop over the nonzero terms of both factors."""
    degree = v.degree + w.degree
    idx = subset_index(v.dim, degree)
    coeffs = np.zeros(len(idx), dtype=np.result_type(v.coeffs, w.coeffs))
    for s1, c1 in v.terms():
        for s2, c2 in w.terms():
            merged, sign = merge_sign(s1, s2)
            if merged is not None:
                coeffs[idx[merged]] += sign * c1 * c2
    return MultiVector(v.dim, degree, coeffs)


def _derivation_loop(jm, degree):
    """derivation_matrix as a loop over each basis subset's positions, with
    the sign of the replaced index counted from its new position."""
    dim = jm.shape[0]
    subs = basis_subsets(dim, degree)
    idx = subset_index(dim, degree)
    d = np.zeros((len(subs), len(subs)), dtype=jm.dtype)
    for col, s in enumerate(subs):
        sset = set(s)
        for p, sp in enumerate(s):
            for m in range(dim):
                c = jm[m, sp]
                if c == 0:
                    continue
                if m == sp:
                    d[col, col] = d[col, col] + c  # diagonal slot, sign +1
                    continue
                if m in sset:
                    continue
                rest = s[:p] + s[p + 1:]
                pos_new = sum(1 for x in rest if x < m)
                sign = -1 if (pos_new - p) % 2 else 1
                r = idx[tuple(sorted(rest + (m,)))]
                d[r, col] = d[r, col] + sign * c
    return d


def _assert_same_entries(got, want):
    """Same dtype and bytes, or for object arrays the same types and values."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if want.dtype == object:
        assert [type(x) for x in got.flat] == [type(x) for x in want.flat]
        assert (got == want).all()
    else:
        assert got.tobytes() == want.tobytes()


def _sparse_normal(rng, shape, zeros=0.3):
    """Standard normal entries, about `zeros` of them exactly 0 and a few -0."""
    x = rng.standard_normal(shape)
    x[rng.random(shape) < zeros] = 0.0
    x[rng.random(shape) < 0.05] = -0.0
    return x


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_derivation_matrix_matches_loop_over_floats(dim):
    rng = np.random.default_rng(dim)
    j = tk.random_structure(tk.identity_metric(dim), rng).j
    for jm in (j, j.astype(complex), _sparse_normal(rng, (dim, dim)).astype(complex),
               _sparse_normal(rng, (dim, dim)) + 1j * _sparse_normal(rng, (dim, dim))):
        for degree in range(dim + 1):
            _assert_same_entries(derivation_matrix(jm, degree), _derivation_loop(jm, degree))


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_derivation_matrix_matches_loop_over_fractions(dim):
    rng = np.random.default_rng(100 + dim)
    num = rng.integers(-3, 4, (dim, dim))
    den = rng.integers(1, 5, (dim, dim))
    jm = np.array([[Fraction(int(a), int(b)) for a, b in zip(r, e)]
                   for r, e in zip(num, den)], dtype=object)
    for degree in range(dim + 1):
        got = derivation_matrix(jm, degree)
        _assert_same_entries(got, _derivation_loop(jm, degree))
    assert degree == dim and got.shape == (1, 1)
    assert derivation_matrix(jm, 0).tolist() == [[0]]
    j = t0_exact().induced_structure().j_exact
    for degree in range(7):
        _assert_same_entries(derivation_matrix(j, degree), _derivation_loop(j, degree))


def test_multivector_wedge_matches_loop_over_floats():
    rng = np.random.default_rng(7)
    for dim in (4, 6):
        for p in range(dim + 1):
            for q in range(dim + 1 - p):
                size_p, size_q = len(basis_subsets(dim, p)), len(basis_subsets(dim, q))
                v = MultiVector(dim, p, _sparse_normal(rng, size_p)
                                + 1j * _sparse_normal(rng, size_p))
                w = MultiVector(dim, q, _sparse_normal(rng, size_q)
                                + 1j * _sparse_normal(rng, size_q))
                _assert_same_entries(v.wedge(w).coeffs, _wedge_loop(v, w).coeffs)
    # zero terms are skipped, so an infinite coefficient meets no zero factor
    v = MultiVector(4, 1, [np.inf, 0, 1, 0])
    w = MultiVector(4, 1, [0, 2, 0, 1j])
    with np.errstate(invalid="ignore"):
        _assert_same_entries(v.wedge(w).coeffs, _wedge_loop(v, w).coeffs)


def test_multivector_wedge_matches_loop_over_gaussian_rationals():
    a = _exact_class({(0, 3): (Fraction(1, 2), 1), (1, 4): (Fraction(1, 3), 0),
                      (2, 5): (0, 0)})
    b = _exact_class({(2, 5): (2, 0), (0, 1): (0, -1), (1, 2): (Fraction(-3, 7), 2)})
    for v, w in ((a, b), (b, a), (a, a), (a, MultiVector.basis_element(6, 2))):
        _assert_same_entries(v.wedge(w).coeffs, _wedge_loop(v, w).coeffs)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_components_sum_to_input(seed):
    rng = np.random.default_rng(seed)
    j = tk.random_structure(tk.identity_metric(6), rng)
    w = MultiVector(6, 2, rng.standard_normal(15) + 1j * rng.standard_normal(15))
    comps = tk.pq_decompose(w, j)
    total = None
    for c in comps.values():
        total = c if total is None else total + c
    assert (total - w).norm() < 1e-9 * max(w.norm(), 1)


# ---------------------------------------------------------------------------
# exact kernels and search


def test_t0_exact_kernel_contains_e14():
    t = t0_exact()
    kernel = tk.integral_pp_kernel(t, 1)
    assert kernel, "T0 must have integral (1,1) classes"
    target = MultiVector.basis_element(6, 0, 3)
    hits = [k for k in kernel
            if np.allclose(np.abs(k.to_float().coeffs), np.abs(target.coeffs))]
    assert hits, "e1 ^ e4 should appear among the cleared kernel basis"


def test_top_degree_kernel_is_everything():
    t = t0_exact()
    kernel = tk.integral_pp_kernel(t, 3)
    assert len(kernel) == 1


def test_kernel_needs_exact_backend():
    with pytest.raises(tk.BackendRequired):
        tk.integral_pp_kernel(tk.make_torus(t0_periods()), 1)


def diag_rational_torus():
    from fractions import Fraction
    per = np.empty((3, 6), dtype=object)
    for i in range(3):
        for j in range(3):
            per[i, j] = exact.QI(1 if i == j else 0)
            per[i, 3 + j] = exact.QI(0)
        per[i, 3 + i] = exact.QI(Fraction(i + 1, 2), Fraction(i + 2, 3))
    return tk.make_torus(per)


def test_diagonal_rational_kernel_contains_coordinate_planes():
    # e_k ^ e_{k+3} lies exactly in the rational (1,1) span: adding it to the
    # kernel basis leaves the exact rank unchanged
    basis = np.array([w.coeffs for w in tk.integral_pp_kernel(diag_rational_torus(), 1)])
    rank = exact.rank_exact(basis)
    assert 0 < rank < 15
    for k in range(3):
        w = MultiVector.from_terms(6, 2, {(k, k + 3): exact.QI(1)})
        assert exact.rank_exact(np.vstack([basis, w.coeffs])) == rank
    mixed = MultiVector.from_terms(6, 2, {(0, 1): exact.QI(1)})
    assert exact.rank_exact(np.vstack([basis, mixed.coeffs])) == rank + 1


def test_pp_heuristic_finds_t0_witness(j0):
    t = tk.make_torus(t0_periods())
    w = tk.pp_class_heuristic(t, 1, bound=2)
    assert w is not None
    assert tk.hodge_type(w, j0) == (1, 1)
    coeffs = np.abs(w.coeffs)
    assert coeffs.max() <= 2


def test_pp_heuristic_bound_zero():
    t = tk.make_torus(t0_periods())
    assert tk.pp_class_heuristic(t, 1, bound=0) is None


def test_pp_heuristic_random_tori_clean():
    for seed in range(20):
        t = tk.random_torus(3, seed)
        assert tk.pp_class_heuristic(t, 1, bound=10) is None


def test_subtorus_exact_t0():
    basis, ell = tk.subtorus_search(t0_exact())
    assert ell == 1
    rows = {tuple(int(x) for x in row) for row in basis}
    assert rows == {(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)}


def test_subtorus_verify_candidate():
    cand = np.zeros((4, 6), dtype=int)
    cand[0, 0] = cand[1, 1] = 1
    cand[2, 3] = cand[3, 4] = 1
    got = verify_sublattice(t0_exact(), cand)
    assert got is not None and got[1] == 2


def test_subtorus_heuristic_float_t0():
    t = tk.make_torus(t0_periods())
    got = tk.subtorus_search(t, bound=2)
    assert got is not None and got[1] == 1


def test_subtorus_search_curve_has_none():
    # at n = 1 the plane span{e1, Je1} is the whole lattice, not a subtorus
    assert tk.subtorus_search(tk.make_torus(np.array([[1, 1j]]))) is None
    curve = tk.make_torus(np.array([[exact.QI(1), exact.QI(0, 1)]], dtype=object))
    assert tk.subtorus_search(curve) is None


def test_subtorus_heuristic_random_clean():
    for seed in range(20):
        t = tk.random_torus(3, seed)
        assert tk.subtorus_search(t, bound=10) is None


def test_is_generic_t0():
    report = tk.is_generic(t0_exact())
    assert report.verdict == "non_generic"
    assert report.subtorus is not None
    assert report.re_verify(t0_exact())


def test_is_generic_rational_always_non_generic():
    for seed in range(5):
        t = tk.random_torus(3, seed, backend="rational")
        report = tk.is_generic(t)
        assert report.verdict == "non_generic"
        assert report.re_verify(t)


def test_norm_of_huge_coefficients(j0):
    # the plain sum of squares overflows above about 1e154
    w = MultiVector.basis_element(6, 0, 3) * 1e300
    assert w.norm() == 1e300
    assert tk.hodge_type(w, j0) == (1, 1)
    mixed = w + MultiVector.basis_element(6, 0, 1) * 1e300
    assert np.isclose(mixed.norm(), np.sqrt(2) * 1e300, rtol=1e-15)
    assert tk.hodge_type(mixed, j0) is None
    small = MultiVector(6, 2, np.random.default_rng(0).standard_normal(15) + 0j)
    assert small.norm() == float(np.linalg.norm(small.coeffs))


def test_is_generic_rational_witness_is_e1_plane():
    # for a rational J, span_Q{e1, Je1} is J-invariant and 2-dimensional, so
    # the exact witness is its saturated plane, found at the first basis vector
    e1 = np.eye(6, dtype=int)[0]
    for seed in range(20):
        t = tk.random_torus(3, seed, backend="rational")
        report = tk.is_generic(t)
        assert report.mode == "exact" and report.pp_class is None
        basis, ell = report.subtorus
        assert ell == 1
        assert exact.rank_exact(exact.frac_matrix(np.vstack([basis, e1]))) == 2
        assert report.re_verify(t)


def test_is_generic_asks_every_p_below_n(monkeypatch):
    # Hodge classes in degrees 2p and 2n - 2p are dual only under a
    # polarization, which a non-algebraic torus need not have: p = 3 at n = 4
    # is its own question
    asked = []

    def spy(torus, p, bound=10):
        asked.append(p)
        return None

    monkeypatch.setattr(hodge, "pp_class_heuristic", spy)
    report = tk.is_generic(tk.random_torus(4, 0), bound=10)
    assert asked == [1, 2, 3]
    assert report.verdict == "no_obstruction_found"


def test_is_generic_random_float_clean():
    for seed in range(10):
        t = tk.random_torus(3, 100 + seed)
        report = tk.is_generic(t, bound=10)
        assert report.verdict == "no_obstruction_found"
        assert report.bound == 10


def test_is_generic_dimension_guard():
    p = np.hstack([np.eye(2), 1j * np.eye(2)])
    with pytest.raises(tk.DimensionTooSmall):
        tk.is_generic(tk.make_torus(p))
