import numpy as np
import pytest

from toruskit import fourier
from toruskit.fourier import (TWO_PI, FourierForm, FourierFormSpace,
                              canonical_frame, dbar, green, harmonic_part,
                              laplace_scalar, wedge)
from toruskit.hodge import basis_subsets, merge_sign, subset_index, wedge_table

from conftest import twisted_laplacian


def make_space(n=3, bound=3):
    return FourierFormSpace(n, bound)


def random_form(space, q, extra=(), nmodes=4, seed=0):
    rng = np.random.default_rng(seed)
    modes = {}
    for _ in range(nmodes):
        m = tuple(int(x) for x in rng.integers(-2, 3, 2 * space.n))
        shape = (space.ncomp(q),) + extra
        modes[m] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return FourierForm(space, q, modes, extra=extra)


def _wedge_covector(space, zeta, coeff, q):
    """zeta ^ coeff as the loop over basis subsets and covector indices that
    dbar ran before the wedge table; dbar's byte oracle."""
    n = space.n
    idx = subset_index(n, q + 1)
    out = np.zeros((space.ncomp(q + 1),) + coeff.shape[1:], dtype=complex)
    for pos, s in enumerate(basis_subsets(n, q)):
        c = coeff[pos]
        for a in range(n):
            if zeta[a] == 0:
                continue
            merged, sign = merge_sign((a,), s)
            if merged is not None:
                out[idx[merged]] += sign * zeta[a] * c
    return out


def _contract_vector(space, v, coeff, q):
    """The contraction of coeff by v as the loop over basis subsets and their
    positions that green ran before the wedge table; green's byte oracle."""
    n = space.n
    idx = subset_index(n, q - 1)
    out = np.zeros((space.ncomp(q - 1),) + coeff.shape[1:], dtype=complex)
    for pos, s in enumerate(basis_subsets(n, q)):
        c = coeff[pos]
        for j, sj in enumerate(s):
            rest = s[:j] + s[j + 1:]
            out[idx[rest]] += ((-1) ** j) * v[sj] * c
    return out


def dbar_star(form, twist=0.0):
    """The formal adjoint of dbar (of the twisted dbar for a nonzero twist):
    contraction with the conjugate covector of each mode."""
    space = form.space
    out = {m: (-TWO_PI * 1j) * _contract_vector(
        space, space.zeta(np.add(m, twist)).conj(), c, form.q)
        for m, c in form.modes.items()}
    return FourierForm(space, form.q - 1, out, extra=form.extra)


def twisted_dbar(form, twist):
    """dbar on the twisted complex: mode m carries e^{2 pi i (m + twist).x}."""
    space = form.space
    out = {m: _wedge_covector(
        space, TWO_PI * 1j * space.zeta(np.add(m, twist)), c, form.q)
        for m, c in form.modes.items()}
    return FourierForm(space, form.q + 1, out, extra=form.extra)


def twisted_green(form, twist):
    """dbar_star / Laplacian on the twisted complex, where no mode is harmonic."""
    out = {m: c / twisted_laplacian(form.space, m, twist)
           for m, c in dbar_star(form, twist).modes.items()}
    return FourierForm(form.space, form.q - 1, out, extra=form.extra)


def inner(x, y):
    total = 0.0 + 0j
    for m, c in x.modes.items():
        if m in y.modes:
            total += np.vdot(c, y.modes[m])
    return total


def test_zeta_matches_standard_coordinates():
    sp = make_space()
    z = sp.zeta((1, 0, 0, 0, 0, 0))
    assert np.allclose(z, [0.5, 0, 0])
    z = sp.zeta((0, 0, 0, 1, 0, 0))
    assert np.allclose(z, [0.5j, 0, 0])


def test_dbar_squares_to_zero():
    sp = make_space()
    for q, extra in ((0, (2, 2)), (1, ()), (0, ())):
        f = random_form(sp, q, extra, seed=q)
        assert dbar(dbar(f)).norm() < 1e-12 * max(f.norm(), 1)


def test_adjointness():
    sp = make_space()
    a = random_form(sp, 1, seed=1)
    b = random_form(sp, 2, seed=1)  # same seed -> same mode support
    assert abs(inner(dbar(a), b) - inner(a, dbar_star(b))) < 1e-10


def test_clifford_scalar_laplacian():
    sp = make_space()
    m = (1, -2, 0, 3, 0, 1)
    lam = laplace_scalar(sp, m)
    f = random_form(sp, 1, seed=2)
    f = FourierForm(sp, 1, {m: f.modes[next(iter(f.modes))]})
    delta = dbar_star(dbar(f)) + dbar(dbar_star(f))
    for mm, c in delta.modes.items():
        assert np.abs(c - lam * f.modes[mm]).max() < 1e-9


def test_hodge_identity_on_01():
    sp = make_space()
    a = random_form(sp, 1, seed=3)
    lhs = harmonic_part(a) + dbar(green(a)) + green(dbar(a))
    assert (lhs - a).norm() < 1e-12


def test_harmonic_is_zero_mode():
    sp = make_space()
    a = random_form(sp, 1, seed=4)
    zero_mode = (0,) * 6
    coeff = np.ones((3,), complex)
    a = a + FourierForm(sp, 1, {zero_mode: coeff})
    h = harmonic_part(a)
    assert list(h.modes) == [zero_mode]


def test_twisted_sector_has_no_harmonics():
    sp = make_space()
    twist = np.zeros(6)
    twist[2] = 0.25
    a = random_form(sp, 1, seed=5)
    zero_mode = (0,) * 6
    a = a + FourierForm(sp, 1, {zero_mode: np.ones(3, complex)})
    # twisted Laplacian is invertible on every mode
    for m in a.modes:
        assert twisted_laplacian(sp, m, twist) > 1e-3
    lhs = (twisted_dbar(twisted_green(a, twist), twist)
           + twisted_green(twisted_dbar(a, twist), twist))
    assert (lhs - a).norm() < 1e-12


def test_wedge_truncates_to_cube():
    sp = FourierFormSpace(3, 1)
    m = (1, 0, 0, 0, 0, 0)
    c = np.zeros(3, complex)
    c[0] = 1.0
    f = FourierForm(sp, 1, {m: c})
    g = FourierForm(sp, 1, {m: np.array([0, 1.0, 0], complex)})
    prod = wedge(f, g)
    assert prod.modes == {}  # mode (2,0,...) is outside |m| <= 1


def test_wedge_composition_order():
    sp = make_space()
    a = np.zeros((3, 2, 2), complex)
    a[0] = [[0, 1], [0, 0]]
    b = np.zeros((3, 2, 2), complex)
    b[1] = [[0, 0], [1, 0]]
    f = FourierForm(sp, 1, {(0,) * 6: a}, extra=(2, 2))
    g = FourierForm(sp, 1, {(0,) * 6: b}, extra=(2, 2))
    fg = wedge(f, g)
    coeff = fg.modes[(0,) * 6]
    # dz1^dz2 component carries f's matrix on the left: E12 @ E21 = E11
    assert np.allclose(coeff[0], [[1, 0], [0, 0]])
    gf = wedge(g, f)
    # opposite composition, opposite form order sign
    assert np.allclose(gf.modes[(0,) * 6][0], [[0, 0], [0, -1]])


def test_canonical_frame_shape():
    b = canonical_frame(3)
    assert b.shape == (6, 3)
    c = np.hstack([b.conj(), b])
    assert np.linalg.matrix_rank(c) == 6


def test_coefficient_shape_validation():
    sp = make_space()
    with pytest.raises(ValueError):
        FourierForm(sp, 1, {(0,) * 6: np.zeros(4, complex)})


def _wedge_loop(f, g):
    """Reference: the composition wedge as a plain loop over mode pairs and
    basis subset pairs. `wedge` must reproduce it bit for bit."""
    space = f.space
    n = space.n
    q_out = f.q + g.q
    idx = subset_index(n, q_out)
    subs_f = basis_subsets(n, f.q)
    subs_g = basis_subsets(n, g.q)
    if f.extra and g.extra:
        extra = (f.extra[0], g.extra[1])
    else:
        extra = f.extra or g.extra
    out_modes = {}
    for m1, c1 in f.modes.items():
        for m2, c2 in g.modes.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            if not space.in_bounds(m):
                continue
            acc = out_modes.get(m)
            if acc is None:
                acc = np.zeros((space.ncomp(q_out),) + extra, dtype=complex)
                out_modes[m] = acc
            for i1, s1 in enumerate(subs_f):
                a1 = c1[i1]
                for i2, s2 in enumerate(subs_g):
                    merged, sign = merge_sign(s1, s2)
                    if merged is None:
                        continue
                    if f.extra and g.extra:
                        acc[idx[merged]] += sign * (a1 @ c2[i2])
                    else:
                        acc[idx[merged]] += sign * (a1 * c2[i2])
    return FourierForm(space, q_out, out_modes, extra=extra)


def _oracle_form(space, q, extra, nmodes, seed):
    """Random form on modes spread over the whole cube (so sums leave it),
    with exact and negative zeros among the coefficients."""
    rng = np.random.default_rng(seed)
    b = space.mode_bound
    shape = (space.ncomp(q),) + extra
    modes = {}
    for _ in range(nmodes):
        m = tuple(int(x) for x in rng.integers(-b, b + 1, 2 * space.n))
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c.real[rng.random(shape) < 0.2] = 0.0
        c.real[rng.random(shape) < 0.1] = -0.0
        c.imag[rng.random(shape) < 0.2] = -0.0
        modes[m] = c
    return FourierForm(space, q, modes, extra=extra)


def _assert_same_bits(got, want):
    assert (got.q, got.extra) == (want.q, want.extra)
    assert list(got.modes) == list(want.modes)
    for m, c in want.modes.items():
        assert got.modes[m].tobytes() == c.tobytes()


VALUE_KINDS = {"scalar^scalar": ((), ()), "End^scalar": ((2, 2), ()),
               "scalar^End": ((), (3, 3)), "End^End": ((3, 3), (3, 3))}


@pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
def test_wedge_matches_loop_bitwise(kind):
    sp = FourierFormSpace(3, 2)
    ef, eg = VALUE_KINDS[kind]
    truncated = 0
    for q_f in range(4):
        for q_g in range(4 - q_f):
            f = _oracle_form(sp, q_f, ef, 7, seed=10 * q_f + q_g)
            g = _oracle_form(sp, q_g, eg, 5, seed=100 + 10 * q_f + q_g)
            _assert_same_bits(wedge(f, g), _wedge_loop(f, g))
            truncated += sum(not sp.in_bounds(np.add(m1, m2))
                             for m1 in f.modes for m2 in g.modes)
            if q_f == q_g and ef == eg:
                _assert_same_bits(wedge(f, f), _wedge_loop(f, f))
    assert truncated  # some mode sums left the cube


def test_wedge_matches_loop_rectangular_values():
    sp = FourierFormSpace(3, 2)
    f = _oracle_form(sp, 1, (2, 3), 6, seed=1)
    g = _oracle_form(sp, 1, (3, 4), 6, seed=2)
    _assert_same_bits(wedge(f, g), _wedge_loop(f, g))


def test_wedge_empty_operand():
    sp = FourierFormSpace(3, 2)
    f = _oracle_form(sp, 1, (2, 2), 4, seed=3)
    empty = FourierForm(sp, 1, {}, extra=(2, 2))
    for left, right in ((f, empty), (empty, f), (empty, empty)):
        got = wedge(left, right)
        _assert_same_bits(got, _wedge_loop(left, right))
        assert got.modes == {}


def test_wedge_matches_loop_across_chunks():
    sp = FourierFormSpace(3, 3)
    f = _oracle_form(sp, 1, (4, 4), 60, seed=4)
    g = _oracle_form(sp, 1, (4, 4), 60, seed=5)
    # A chunk holds at most this many pairs: each pair's products alone take
    # 16 bytes per entry of every merge-table row.
    rows = len(wedge_table(3, 1, 1)[0])
    most_per_chunk = fourier._CHUNK_BYTES // (16 * rows * 16)
    pairs = sum(sp.in_bounds(np.add(m1, m2)) for m1 in f.modes for m2 in g.modes)
    assert pairs > 2 * most_per_chunk
    _assert_same_bits(wedge(f, g), _wedge_loop(f, g))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_merge_table_agrees_with_merge_sign(n):
    for q_f in range(n + 1):
        for q_g in range(n + 1):
            i1, i2, comp, sign = wedge_table(n, q_f, q_g)
            want = []
            for a, s1 in enumerate(basis_subsets(n, q_f)):
                for b, s2 in enumerate(basis_subsets(n, q_g)):
                    merged, sg = merge_sign(s1, s2)
                    if merged is not None:
                        want.append((a, b, subset_index(n, q_f + q_g)[merged], sg))
            got = list(zip(i1.tolist(), i2.tolist(), comp.tolist(), sign.tolist()))
            assert got == want


def _dbar_loop(form):
    space = form.space
    out = {m: _wedge_covector(space, TWO_PI * 1j * space.zeta(m), c, form.q)
           for m, c in form.modes.items()}
    return FourierForm(space, form.q + 1, out, extra=form.extra)


def _green_loop(form):
    space = form.space
    out = {}
    for m, c in form.modes.items():
        lam = laplace_scalar(space, m)
        if lam < 1e-24:
            continue
        out[m] = (-TWO_PI * 1j / lam) * _contract_vector(
            space, space.zeta(m).conj(), c, form.q)
    return FourierForm(space, form.q - 1, out, extra=form.extra)


def _frame(n, seed):
    """The canonical frame, or a random one (seed > 0): the canonical one
    has zeta components that are exactly zero, real or imaginary."""
    if seed == 0:
        return canonical_frame(n)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))


@pytest.mark.parametrize("op, loop", [(dbar, _dbar_loop), (green, _green_loop)],
                         ids=["dbar", "green"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dbar_and_green_match_loop_bitwise(op, loop, n):
    cases = 0
    for frame_seed in (0, n):
        sp = FourierFormSpace(n, 2, frame=_frame(n, frame_seed))
        for q in range(n + 1):
            for extra in ((), (2, 2), (3, 3)):
                seed = 1000 * n + 10 * q + len(extra)
                f = _oracle_form(sp, q, extra, 6, seed=seed + frame_seed)
                zero_mode, lone = (0,) * (2 * n), (1,) + (0,) * (2 * n - 1)
                f.modes[zero_mode] = f.modes[lone] = _oracle_form(
                    sp, q, extra, 1, seed=seed + 1).modes.popitem()[1]
                empty = FourierForm(sp, q, {}, extra=extra)
                for form in (f, empty):
                    if op is green and q == 0:  # there is no (0,-1) form
                        for fn in (op, loop):
                            with pytest.raises(ValueError):
                                fn(form)
                        continue
                    _assert_same_bits(op(form), loop(form))
                    cases += 1
    assert cases == 2 * 3 * 2 * (n + 1 if op is dbar else n)
    # in the canonical frame the lone mode meets the loop's skip of zero zeta
    assert (FourierFormSpace(n, 2).zeta(lone)[1:] == 0).all()


def _space_pair(**change):
    base = dict(n=2, mode_bound=2, frame=canonical_frame(2))
    return FourierFormSpace(**base), FourierFormSpace(**{**base, **change})


@pytest.mark.parametrize("change, what", [
    ({"n": 3, "frame": canonical_frame(3)}, "their n differs"),
    ({"mode_bound": 3}, "their mode bound differs"),
    ({"frame": 2 * canonical_frame(2)}, "their frame differs"),
], ids=["n", "mode_bound", "frame"])
def test_forms_from_different_spaces_do_not_combine(change, what):
    left, right = _space_pair(**change)
    f = FourierForm(left, 1, {(1, 0, 0, 0): np.ones(2, complex)})
    g = FourierForm(right, 1, {(1, 0, 0, 0): np.ones(right.n, complex)})
    for combine in (lambda: f + g, lambda: g + f, lambda: wedge(f, g), lambda: wedge(g, f)):
        with pytest.raises(ValueError, match=what):
            combine()


def test_forms_from_equal_spaces_combine():
    left, right = _space_pair()
    f = FourierForm(left, 1, {(1, 0, 0, 0): np.ones(2, complex)})
    g = FourierForm(right, 1, {(0, 1, 0, 0): np.ones(2, complex)})
    assert (f + g).space is left and set((f + g).modes) == {(1, 0, 0, 0), (0, 1, 0, 0)}
    assert wedge(f, g).space is left
