import numpy as np
import pytest

import toruskit as tk
from toruskit.linalg import haar_orthogonal, random_spd
from toruskit.moduli import (BACKTRACK_SCALES, FACTORIZE_PAIRED_TOL,
                             _cycle_arrangement_starts, _cyclic_chain,
                             _FactorizeProblem, _rotation_ladder, _rotations,
                             _skew_from_params, _warm_starts, compatible_metric,
                             invariant_metric_subspace, pair_defect)

from conftest import general_position_pair


def test_paired_eigenvalues_doubled_diag(idm6):
    g1 = tk.Metric(np.diag([2.0, 2, 3, 3, 5, 5]))
    pairing = tk.paired_eigenvalues(idm6, g1)
    assert pairing is not None
    assert pairing.pairs == ((0, 1), (2, 3), (4, 5))
    assert np.allclose(pairing.eigenvalues, [2, 2, 3, 3, 5, 5])


def test_paired_eigenvalues_distinct_fails(idm6):
    assert tk.paired_eigenvalues(idm6, tk.Metric(np.diag([1.0, 2, 3, 4, 5, 6]))) is None


def test_paired_eigenvalues_tiny_gap(idm6):
    g1 = tk.Metric(np.diag([1.0, 1 + 1e-12, 2, 2, 3, 3]))
    assert tk.paired_eigenvalues(idm6, g1, tol=1e-9) is not None


def test_common_structure_block_form(idm6):
    g1 = tk.Metric(np.diag([2.0, 2, 3, 3, 5, 5]))
    j = tk.common_structure_from_metrics(idm6, g1)
    block = np.zeros((6, 6))
    for k in range(0, 6, 2):
        block[k, k + 1] = 1.0
        block[k + 1, k] = -1.0
    assert np.abs(np.abs(j.j) - np.abs(block)).max() < 1e-12
    assert j.compatibility_residual(idm6) < 1e-12
    assert j.compatibility_residual(g1) < 1e-12


def test_common_structure_identical_metrics(idm6):
    j = tk.common_structure_from_metrics(idm6, idm6)
    assert j.compatibility_residual(idm6) < 1e-12


def test_common_structure_not_paired(idm6):
    with pytest.raises(tk.NotPaired):
        tk.common_structure_from_metrics(idm6, tk.Metric(np.diag([1.0, 2, 3, 4, 5, 6])))


def test_common_metric_single_structure(j0):
    g = tk.common_metric(j0, j0)
    assert g is not None
    assert j0.compatibility_residual(g) < 1e-8


def test_common_metric_orthogonal_conjugate(idm6, j0):
    from toruskit.linalg import haar_orthogonal
    u = haar_orthogonal(6, np.random.default_rng(0))
    j2 = tk.ComplexStructure(u @ j0.j @ u.T)
    g = tk.common_metric(j0, j2)
    assert g is not None
    assert j0.compatibility_residual(g) < 1e-8
    assert j2.compatibility_residual(g) < 1e-8


def test_common_metric_general_position_none():
    # dimension count: 9 + 9 < 21, so the invariant span is empty, which
    # proves that no shared metric exists
    for seed in range(20):
        i, j = general_position_pair(seed)
        assert len(invariant_metric_subspace(i, j)) == 0
        assert tk.common_metric(i, j) is None


def shared_metric_pair(seed, cond):
    """A random SPD metric and two random structures that both preserve it."""
    rng = np.random.default_rng([8800, seed])
    g = tk.Metric(random_spd(6, rng, cond=cond))
    return g, tk.random_structure(g, rng), tk.random_structure(g, rng)


@pytest.mark.parametrize("cond", [10.0, 1e4])
def test_common_metric_shared_random_metric(cond):
    for seed in range(5):
        _, i, j = shared_metric_pair(seed, cond)
        g = tk.common_metric(i, j)
        assert g is not None
        assert max(i.compatibility_residual(g), j.compatibility_residual(g)) < 1e-8
        chain = tk.connect(i, j, tk.ConnectOptions(seed=seed))
        assert chain.hops == 1
        assert tk.verify_chain(chain).ok


def test_invariant_metric_subspace_orientation():
    # the span is the kernel of M -> (I^T M I - M, J^T M J - M), not of its
    # adjoint M -> (I M I^T - M, J M J^T - M); the two differ unless I and J
    # are orthogonal
    g, i, j = shared_metric_pair(0, 10.0)
    span = invariant_metric_subspace(i, j)
    in_span = np.tensordot(np.tensordot(span, g.g, axes=2), span, axes=1)
    assert np.abs(in_span - g.g).max() < 1e-10 * np.abs(g.g).max()
    for m in span:
        for s in (i, j):
            assert np.abs(s.j.T @ m @ s.j - m).max() < 1e-10


def test_cyclic_chain_oracle():
    # consistent cycle: alternating products agree
    alpha = np.array([1.0, 2.0, 1.0])
    beta = np.array([2.0, 2.0, 1.0])
    d = np.empty(6)
    for k in range(3):
        d[2 * k] = alpha[k] * beta[k]
        d[2 * k + 1] = alpha[(k + 1) % 3] * beta[k]
    a2, b2, closure = _cyclic_chain(np.array([1.0, 2, 4, 4, 2, 1]))
    assert np.allclose(a2, alpha) and np.allclose(b2, beta)
    assert closure < 1e-12
    # inconsistent iff alternating product mismatch
    d_bad = np.array([1.0, 2, 4, 4, 2, 2])
    *_, closure_bad = _cyclic_chain(d_bad)
    expect = abs(np.log(np.prod(d_bad[1::2]) / np.prod(d_bad[0::2])))
    assert abs(closure_bad - expect) < 1e-12
    assert closure_bad > 0.1


def test_pair_factorize_identity(idm6):
    g1 = tk.pair_factorize(idm6, idm6)
    assert pair_defect(idm6, g1) < 1e-12
    assert pair_defect(g1, idm6) < 1e-12


def test_pair_factorize_closed_form(idm6):
    h = tk.Metric(np.diag([1.0, 2, 4, 4, 2, 1]))
    g1 = tk.pair_factorize(idm6, h)
    assert np.abs(g1.g - np.diag([1.0, 1, 2, 2, 1, 1])).max() < 1e-12
    assert pair_defect(idm6, g1) < 1e-12
    assert pair_defect(g1, h) < 1e-12
    ratios = np.diag(h.g) / np.diag(g1.g)
    assert np.allclose(sorted(ratios), [1, 1, 2, 2, 2, 2])


def test_pair_factorize_random_spd(idm6):
    ok = 0
    for seed in range(20):
        h = tk.Metric(random_spd(6, np.random.default_rng(800 + seed), cond=50.0))
        try:
            g1 = tk.pair_factorize(idm6, h, seed=seed)
        except tk.FactorizationFailed:
            continue
        assert tk.paired_eigenvalues(idm6, g1, 1e-7) is not None
        assert tk.paired_eigenvalues(g1, h, 1e-7) is not None
        assert pair_defect(g1, h) < 1e-10
        ok += 1
    # roughly a tenth of uniform SPD targets are genuinely outside the
    # paired-times-paired set; this stream happens to contain five of them
    assert ok >= 14


def test_pair_factorize_scale_invariance(idm6):
    # success is a scale-invariant property of (g, h); the returned witness
    # may land elsewhere on the solution manifold
    h = tk.Metric(random_spd(6, np.random.default_rng(801), cond=50.0))
    for c in (7.5, 1e-3):
        g1 = tk.pair_factorize(idm6, tk.Metric(c * h.g), seed=1)
        assert tk.paired_eigenvalues(idm6, g1, 1e-7) is not None
        assert tk.paired_eigenvalues(g1, tk.Metric(c * h.g), 1e-7) is not None
    # and an infeasible target stays infeasible under scaling
    h_bad = tk.Metric(random_spd(6, np.random.default_rng(805), cond=50.0))
    for c in (1.0, 3.0):
        with pytest.raises(tk.FactorizationFailed):
            tk.pair_factorize(idm6, tk.Metric(c * h_bad.g), seed=5)


def test_pair_factorize_failure_reports_best(idm6):
    # seed chosen from the infeasibility survey: stalls at a positive
    # relative defect in every basin
    h = tk.Metric(random_spd(6, np.random.default_rng([6100, 25]), cond=100.0))
    with pytest.raises(tk.FactorizationFailed) as err:
        tk.pair_factorize(idm6, h, seed=0)
    assert err.value.best is not None
    assert err.value.defect > 1e-10


@pytest.mark.parametrize("key,cond,seed,defect", [
    ([7700, 100, 122], 100.0, 122, 4.07), ([7700, 1000, 185], 1e3, 185, 1.25)])
def test_pair_factorize_residual_overflow_fails_cleanly(idm6, key, cond, seed, defect):
    # the polish's squared residual sum overflows on these infeasible targets;
    # under the RuntimeWarning-as-error filter that once escaped as a warning
    h = tk.Metric(random_spd(6, np.random.default_rng(key), cond=cond))
    with pytest.raises(tk.FactorizationFailed) as err:
        tk.pair_factorize(idm6, h, seed=seed)
    assert err.value.defect == pytest.approx(defect, abs=0.005)


# The (g, h) of the second 3-hop route of connect(i, j) for
# i = random_structure(identity_metric(6), 68) and
# j = random_structure(Metric(diag(exp(default_rng(34).normal(size=6)))), 69):
# the best candidate of every start, conjugated back to the input frame,
# rounds to a matrix with min eig -2.974e+01.
S34_G = np.array([
    [1.118395635068167, 0.10904621512887427, 0.06493461832269669,
     -0.021675269535452138, -0.02750154693006355, -0.13944911527278564],
    [0.10904621512887427, 1.0715779117789785, 0.04344301720495544,
     0.16113051038840942, -0.0636744279671951, -0.06536585827631367],
    [0.06493461832269669, 0.04344301720495544, 1.0401939352077307,
     0.12910435364208941, -0.038746090355122824, -0.019258770832371517],
    [-0.021675269535452138, 0.16113051038840942, 0.12910435364208941,
     1.1246962770315174, -0.09518781316898173, 0.10935440749116944],
    [-0.02750154693006355, -0.0636744279671951, -0.038746090355122824,
     -0.09518781316898173, 0.8979844776487151, -0.07314775024479231],
    [-0.13944911527278564, -0.06536585827631367, -0.019258770832371517,
     0.10935440749116944, -0.07314775024479231, 1.2144096359568586],
])
S34_H = np.array([
    [1.2102027046422201, 0.06465479653793793, -1.6677988178641656,
     0.2645533088767368, 0.0980411305243501, 0.06700755088237095],
    [0.06465479653793793, 0.7136838408347973, -0.09753346321845785,
     -0.15074497236991485, 0.010594550243729087, -0.08212567769651394],
    [-1.6677988178641656, -0.09753346321845785, 28.79653570352906,
     -1.9869480915334428, -0.26723949796178403, -0.6277409693259357],
    [0.2645533088767368, -0.15074497236991485, -1.9869480915334428,
     1.3975844176759809, -0.010982067580537186, 0.1983419393807121],
    [0.0980411305243501, 0.010594550243729087, -0.26723949796178403,
     -0.010982067580537186, 1.3713364063297733, -0.14283730063541078],
    [0.06700755088237095, -0.08212567769651394, -0.6277409693259357,
     0.1983419393807121, -0.14283730063541078, 0.8658895851825128],
])


def test_pair_factorize_indefinite_candidate_fails_cleanly(monkeypatch):
    # The S34 pair once led the search to an indefinite best candidate; its
    # trajectory has since moved, so it only checks that nothing but
    # FactorizationFailed escapes.
    with pytest.raises(tk.FactorizationFailed):
        tk.pair_factorize(tk.Metric(S34_G), tk.Metric(S34_H), seed=2702703890)
    # A polish that ends at t = (-a, 0, a), a in [8, 10], in a Haar frame leaves
    # X with condition number e^(4a) or more: the conjugation rounds some of
    # these indefinite and some to a tiny positive eigenvalue. Either way only
    # FactorizationFailed may escape, and a reported best must be checkable.
    from toruskit import moduli
    indefinite = 0
    for s in range(40):
        rng = np.random.default_rng([4100, s])
        q = haar_orthogonal(6, rng)
        a = rng.uniform(8.0, 10.0)
        t = np.array([-a, 0.0, a])
        monkeypatch.setattr(moduli._FactorizeProblem, "polish",
                            lambda self, q0, t0, max_iter=60: (q, t, 1.0))
        with pytest.raises(tk.FactorizationFailed) as err:
            tk.pair_factorize(tk.identity_metric(6), tk.identity_metric(6))
        if err.value.best is None:
            assert "not positive definite" in str(err.value)
            assert err.value.defect is None
            indefinite += 1
        else:
            assert np.isfinite(err.value.best.sqrt_inv()).all()
    assert indefinite > 0


def test_connect_first_factorization_seed(monkeypatch):
    # perfbench screens chain pairs with pair_factorize(g, h) at its default
    # seed, so connect's first factorization must take seed 0 whatever its
    # own seed is, unless factorize_seed says otherwise
    from toruskit import moduli
    seeds = []
    original = moduli.pair_factorize

    def record(g, h, seed=0):
        seeds.append(seed)
        return original(g, h, seed)

    monkeypatch.setattr(moduli, "pair_factorize", record)
    i, j = general_position_pair(7)
    for opts, first in ((tk.ConnectOptions(seed=7), 0),
                        (tk.ConnectOptions(seed=7, factorize_seed=11), 11)):
        seeds.clear()
        tk.connect(i, j, opts)
        assert seeds[0] == first


def test_factorize_implies_three_hop_chain(idm6):
    h = tk.Metric(random_spd(6, np.random.default_rng(802), cond=30.0))
    g1 = tk.pair_factorize(idm6, h, seed=2)
    i1 = tk.common_structure_from_metrics(idm6, g1, tol=1e-7)
    i2 = tk.common_structure_from_metrics(g1, h, tol=1e-7)
    i0 = tk.common_structure_from_metrics(idm6, idm6)
    j3 = tk.common_structure_from_metrics(h, h)
    chain = tk.Chain(structures=(i0, i1, i2, j3), metrics=(idm6, g1, h))
    assert tk.verify_chain(chain).ok


def test_connect_identical_structures(j0):
    chain = tk.connect(j0, j0)
    assert chain.hops == 0
    assert tk.verify_chain(chain).ok


def test_connect_shared_metric_one_hop(idm6):
    i = tk.random_structure(idm6, 1)
    j = tk.random_structure(idm6, 2)
    chain = tk.connect(i, j, tk.ConnectOptions(seed=0))
    assert chain.hops == 1
    report = tk.verify_chain(chain)
    assert report.ok and report.max_residual < 1e-8


def test_connect_general_position(idm6):
    direct = 0
    for seed in range(20):
        i, j = general_position_pair(100 + seed)
        chain = tk.connect(i, j, tk.ConnectOptions(seed=seed))
        report = tk.verify_chain(chain)
        assert report.ok and chain.hops <= 6
        assert np.abs(chain.structures[0].j - i.j).max() == 0
        assert np.abs(chain.structures[-1].j - j.j).max() == 0
        if chain.hops <= 3:
            direct += 1
    assert direct >= 18


def test_verify_chain_detects_perturbation(idm6):
    i, j = general_position_pair(7)
    chain = tk.connect(i, j, tk.ConnectOptions(seed=7))
    bad_metric = tk.Metric(chain.metrics[0].g + 1e-3 * np.eye(6))
    bad = tk.Chain(structures=chain.structures,
                   metrics=(bad_metric,) + chain.metrics[1:])
    report = tk.verify_chain(bad)
    assert not report.ok
    assert 1e-5 < report.max_residual < 1e-1


def test_verify_chain_empty(j0):
    chain = tk.Chain(structures=(j0,), metrics=())
    report = tk.verify_chain(chain)
    assert report.ok and report.hops == 0


def test_chain_rejects_more_than_six_hops(idm6, j0):
    with pytest.raises(ValueError):
        tk.Chain(structures=(j0,) * 8, metrics=(idm6,) * 7)


def test_chain_basis_independence(idm6):
    i, j = general_position_pair(11)
    chain = tk.connect(i, j, tk.ConnectOptions(seed=11))
    rng = np.random.default_rng(0)
    p = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
    p_inv = np.linalg.inv(p)
    conj = tk.Chain(
        structures=tuple(tk.ComplexStructure(p_inv @ s.j @ p)
                         for s in chain.structures),
        metrics=tuple(tk.Metric(p.T @ m.g @ p) for m in chain.metrics))
    assert tk.verify_chain(conj).ok


def test_compatible_metric_invariance(idm6):
    j = tk.random_structure(idm6, 13)
    for rng in (None, np.random.default_rng(5)):
        g = compatible_metric(j, rng)
        assert j.compatibility_residual(g) < 1e-12


def test_import_defers_scipy_optimize(tmp_path):
    # The runtime is numpy alone: importing the package, a connect, a failing
    # pair_factorize, `toruskit connect` and a frame load neither
    # scipy.optimize nor scipy.linalg.
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(tk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "\n".join([
        "import json, sys, numpy as np, toruskit as tk",
        "from toruskit import cli, serialize",
        "from toruskit.linalg import random_spd",
        "def loaded(): return ['scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules]",
        "print('import', *loaded())",
        "rng = np.random.default_rng(3)",
        "i, j = (tk.random_structure(tk.Metric(random_spd(6, rng, cond=10.0)), rng)",
        "        for _ in range(2))",
        "assert tk.verify_chain(tk.connect(i, j)).ok",
        "print('connect', *loaded())",
        "h = tk.Metric(random_spd(6, np.random.default_rng([6100, 25]), cond=100.0))",
        "try:",
        "    tk.pair_factorize(tk.identity_metric(6), h)",
        "except tk.FactorizationFailed:",
        "    print('failed', *loaded())",
        "paths = []",
        "for name, s in (('i', i), ('j', j)):",
        "    paths.append(sys.argv[1] + '/' + name + '.json')",
        "    with open(paths[-1], 'w') as f:",
        "        json.dump(serialize.encode_structure(s), f)",
        "out = sys.argv[1] + '/chain.json'",
        "code = cli.main(['connect', '--i', paths[0], '--j', paths[1], '--out', out])",
        "print('cli', code, *loaded())",
        "frame = tk.frame_from_structure(i, tk.common_metric(i, i))",
        "print('frame', frame.n, *loaded())",
    ])
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert out.split() == ["import", "False", "False", "connect", "False", "False",
                           "failed", "False", "False", "cli", "0", "False", "False",
                           "frame", "3", "False", "False"]


def _skew_from_params_loop(theta, n2):
    """The double loop that _skew_from_params replaced: the bit-for-bit oracle."""
    k = np.zeros((n2, n2))
    idx = 0
    for a in range(n2):
        for b in range(a + 1, n2):
            k[a, b] = theta[idx]
            k[b, a] = -theta[idx]
            idx += 1
    return k


def _jacobian_loop(problem, q, t, y, v, means):
    """The column-at-a-time Jacobian that _FactorizeProblem.jacobian replaced:
    the bit-for-bit oracle."""
    n2, n = problem.n2, problem.n
    ntheta = n2 * (n2 - 1) // 2
    pairs = [(2 * i, 2 * i + 1) for i in range(n)]
    cols = []
    d_exp = np.repeat(np.exp(np.clip(t - np.mean(t), -40.0, 40.0)), 2)
    for k in range(ntheta):
        e = _skew_from_params_loop(np.eye(ntheta)[k], n2)
        dy = e @ y - y @ e
        cols.append(dy @ problem.h @ y + y @ problem.h @ dy)
    for idx in range(n):
        sel = np.zeros(n2)
        sel[2 * idx] = sel[2 * idx + 1] = d_exp[2 * idx]
        dy = (q * sel) @ q.T
        cols.append(dy @ problem.h @ y + y @ problem.h @ dy)
    jac = np.zeros((2 * n, ntheta + n))
    for c, dr in enumerate(cols):
        for pi, (a, b) in enumerate(pairs):
            jac[2 * pi, c] = (v[:, a] @ dr @ v[:, a]
                              - v[:, b] @ dr @ v[:, b]) / means[pi]
            jac[2 * pi + 1, c] = 2.0 * float(v[:, a] @ dr @ v[:, b]) / means[pi]
    return jac


def _assert_jacobian_matches_loop(problem, q, t):
    # the frame polish linearizes at
    _, pieces = problem.evaluate(q, t)
    y = pieces[1]
    w, v = np.linalg.eigh(pieces[3])
    means = np.maximum(0.5 * (w[0::2] + w[1::2]), 1e-300)
    jac = problem.jacobian(q, pieces, v, means)
    assert jac.tobytes() == _jacobian_loop(problem, q, t, y, v, means).tobytes()


def _criterion6_problem(seed):
    h = random_spd(6, np.random.default_rng([6100, seed]), cond=100.0)
    h_hat = h / np.exp(np.linalg.slogdet(h)[1] / 6)
    return _FactorizeProblem(h_hat), list(_warm_starts(h_hat))


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_jacobian_matches_loop(seed):
    problem, starts = _criterion6_problem(seed)
    # every warm start, the eigh frame among them as eigh returns it
    for q0, t0 in starts:
        _assert_jacobian_matches_loop(problem, q0, t0)
    for k in range(len(starts), len(starts) + 4):
        rng = np.random.default_rng([seed, k])
        _assert_jacobian_matches_loop(problem, haar_orthogonal(6, rng),
                                      rng.normal(scale=1.0, size=3))


def test_jacobian_matches_loop_near_convergence():
    # six Gauss-Newton steps from the closed form: one short of convergence
    problem, starts = _criterion6_problem(0)
    q, t, defect = problem.polish(*starts[0], max_iter=6)
    assert 1e-26 < defect < 1e-10
    _assert_jacobian_matches_loop(problem, q, t)


def test_skew_from_params_matches_loop():
    theta = np.random.default_rng(3).standard_normal(15)
    theta[[0, 4, 14]] = 0.0
    theta[7] = -0.0
    for th in (theta, np.eye(15)[5], np.zeros(15)):
        new, old = _skew_from_params(th, 6), _skew_from_params_loop(th, 6)
        assert new.tobytes() == old.tobytes()
        assert np.array_equal(np.signbit(new), np.signbit(old))


def test_rotation_ladder_matches_expm():
    # every rung of the ladder against scipy's expm, for skew steps up to
    # polish's clamp (parameter norm 3)
    import scipy.linalg
    rng = np.random.default_rng(19)
    for norm in (1e-8, 0.1, 1.0, 2.0, 3.0, 3.0, 3.0):
        theta = rng.standard_normal(15)
        k = _skew_from_params(norm * theta / np.linalg.norm(theta), 6)
        ladder = _rotation_ladder(k)
        assert ladder.shape == (12, 6, 6)
        for rot, scale in zip(ladder, BACKTRACK_SCALES):
            assert np.abs(rot - scipy.linalg.expm(scale * k)).max() <= 1e-14
            assert np.abs(rot.T @ rot - np.eye(6)).max() <= 1e-14


def test_full_step_and_deferred_rungs_match_the_ladder():
    # polish builds the full step's rotation alone and the 11 shorter ones
    # only after it is rejected, from the same eigh: each must carry the bits
    # of its rung of the ladder, also once applied to a frame
    rng = np.random.default_rng(23)
    for norm in (1e-8, 1e-3, 0.1, 1.0, 2.0, 3.0, 3.0, 3.0):
        theta = rng.standard_normal(15)
        k = _skew_from_params(norm * theta / np.linalg.norm(theta), 6)
        q = haar_orthogonal(6, rng)
        ladder = _rotation_ladder(k)
        mu, v = np.linalg.eigh(1j * k)
        full = _rotations(mu, v, BACKTRACK_SCALES[0])
        rest = _rotations(mu, v, BACKTRACK_SCALES[1:])
        assert full.shape == (6, 6) and rest.shape == (11, 6, 6)
        assert full.tobytes() == ladder[0].tobytes()
        assert rest.tobytes() == ladder[1:].tobytes()
        assert (full @ q).tobytes() == (ladder @ q)[0].tobytes()
        assert (rest @ q).tobytes() == (ladder @ q)[1:].tobytes()


def test_one_point_evaluate_matches_a_one_point_stack():
    # the one-point path skips the stack's mask and where: same bits, and a
    # non-finite point reads np.float64 inf
    problem, starts = _criterion6_problem(7)
    rng = np.random.default_rng(8)
    points = starts + [(haar_orthogonal(6, rng), rng.normal(scale=s, size=3))
                       for s in (1.0, 10.0, 40.0, 400.0)]
    for q, t in points:
        val, pieces = problem.evaluate(q, t)
        vals, stack = problem.evaluate(q[None], t[None])
        assert type(val) is np.float64
        assert val.tobytes() == vals[0].tobytes()
        for a, b in zip(pieces, stack):
            assert a.tobytes() == b[0].tobytes()
    q = haar_orthogonal(6, rng)
    for bad in (np.nan, np.inf):
        q_bad = q.copy()
        q_bad[1, 4] = bad
        val, _ = problem.evaluate(q_bad, np.zeros(3))
        assert type(val) is np.float64 and val == np.inf


def test_stacked_evaluate_matches_one_at_a_time():
    # polish evaluates the shorter backtracking steps as one stack: each point
    # must get the bits it gets alone, and a non-finite point must read inf
    # without spoiling the others
    problem, _ = _criterion6_problem(7)
    rng = np.random.default_rng(5)
    qs = np.stack([haar_orthogonal(6, rng) for _ in range(11)])
    ts = rng.normal(scale=3.0, size=(11, 3))
    qs[4, 2, 3] = np.nan
    vals, stack = problem.evaluate(qs, ts)
    for k in range(11):
        val, pieces = problem.evaluate(qs[k], ts[k])
        assert vals[k].tobytes() == val.tobytes()
        for a, b in zip(stack, pieces):
            assert a[k].tobytes() == b.tobytes()
    assert vals[4] == np.inf and np.isfinite(np.delete(vals, 4)).all()


def test_cycle_arrangement_starts_are_built_one_at_a_time(monkeypatch):
    from toruskit import moduli
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    problem, _ = _criterion6_problem(2)
    wv, qv = np.linalg.eigh(problem.h)
    monkeypatch.setattr(moduli.np.linalg, "lstsq", counting)
    starts = _cycle_arrangement_starts(wv, qv)
    assert calls == []
    next(starts)
    assert len(calls) == 1
    assert len(list(starts)) == moduli.CYCLE_STARTS - 1


# sha256 of best.g.tobytes() + repr(defect) of a failed factorization,
# recorded with the eigh rotation ladder in the polish.
FAILED_FACTORIZATION_GOLDEN = {
    "criterion6_seed7": "f5a16b35c8b7fe3343c55b5010ce671bd3759f4935e8e38dd391a0f02395bbbc",
    "weyl_infeasible": "95800e0984641cbcc9cd77dce43d163b28c9dd8a2fe0994f8c3fd6729e610192",
}


def _weyl_infeasible_target(rng):
    # log-spectrum (t, 0, 0, 0, 0, 0), t > 0, in a Haar frame: the Weyl
    # inequalities for a product of two doubled spectra rule it out
    q = haar_orthogonal(6, rng)
    spec = np.ones(6)
    spec[0] = np.exp(float(rng.uniform(1.0, 2.0)))
    return tk.Metric((q * spec) @ q.T)


@pytest.mark.parametrize("name", sorted(FAILED_FACTORIZATION_GOLDEN))
def test_failed_factorization_golden_bytes(idm6, name):
    import hashlib
    if name == "criterion6_seed7":
        h = tk.Metric(random_spd(6, np.random.default_rng([6100, 7]), cond=100.0))
        seed = 7
    else:
        h = _weyl_infeasible_target(np.random.default_rng(2024))
        seed = 0
    with pytest.raises(tk.FactorizationFailed) as err:
        tk.pair_factorize(idm6, h, seed=seed)
    payload = err.value.best.g.tobytes() + repr(err.value.defect).encode()
    assert hashlib.sha256(payload).hexdigest() == FAILED_FACTORIZATION_GOLDEN[name]


def _criterion6_target(seed):
    return tk.Metric(random_spd(6, np.random.default_rng([6100, seed]), cond=100.0))


# sha256 over pair_factorize(identity_metric(6), h_s, seed=s).g.tobytes() for
# the criterion-6 targets s in 0..29 that factor, recorded with the eigh
# rotation ladder in the polish. The winning jobs cover every kind of start: a
# closed form (job 0 wins s = 0, job 1 wins s = 1), a cycle arrangement (job 3
# wins s = 2, job 11 wins s = 23) and a random probe (job 15, the first, wins
# s = 24).
SUCCESS_GOLDEN = "7979c878e647ef91e63fbc272eacdfbc472388f6a10187d23cc5355804be6799"


def test_successful_factorization_golden_bytes(idm6):
    import hashlib
    digest = hashlib.sha256()
    failed = []
    for s in range(30):
        try:
            digest.update(tk.pair_factorize(idm6, _criterion6_target(s), seed=s).g.tobytes())
        except tk.FactorizationFailed:
            failed.append(s)
    assert failed == [7, 10, 13, 25]
    assert digest.hexdigest() == SUCCESS_GOLDEN


@pytest.mark.parametrize("seed, evals, polishes", [(0, 8, 1), (7, 3981, 47)])
def test_factorization_work_is_pinned(monkeypatch, idm6, seed, evals, polishes):
    # defect evaluations and polishes per pair_factorize; evals counts the
    # points a one-at-a-time backtracking search examines, also where polish
    # evaluates the shorter steps as one stack
    from toruskit import moduli
    problems = []

    class Counting(moduli._FactorizeProblem):
        def __init__(self, h_hat):
            super().__init__(h_hat)
            self.polishes = 0
            problems.append(self)

        def polish(self, q, t, max_iter=60):
            self.polishes += 1
            return super().polish(q, t, max_iter)

    monkeypatch.setattr(moduli, "_FactorizeProblem", Counting)
    try:
        tk.pair_factorize(idm6, _criterion6_target(seed), seed=seed)
    except tk.FactorizationFailed:
        pass
    assert [(p.evals, p.polishes) for p in problems] == [(evals, polishes)]


@pytest.mark.parametrize("target", ["criterion6_seed0", "diagonal"])
def test_closed_form_winner_builds_no_cycle_starts(monkeypatch, idm6, target):
    # job 0 wins both targets, so the cycle arrangements are never asked for
    from toruskit import moduli

    def forbidden(wv, qv):
        raise AssertionError("cycle arrangements built for a closed-form win")

    monkeypatch.setattr(moduli, "_cycle_arrangement_starts", forbidden)
    h = (_criterion6_target(0) if target == "criterion6_seed0"
         else tk.Metric(np.diag([1.0, 2, 4, 4, 2, 1])))
    g1 = tk.pair_factorize(idm6, h)
    assert pair_defect(g1, h) < 1e-10


# sha256 over every hop metric's g.tobytes() in the chains connect builds for
# criterion 7's first 20 pairs: a change to the polish that is meant to keep
# every bit must keep this digest.
CRITERION7_CHAINS_GOLDEN = "f8db063fb04959c4048c050201423c35669a32846d002b0f27bdc7534bb1eb45"


def test_criterion7_chain_metrics_golden_bytes():
    import hashlib
    digest = hashlib.sha256()
    for seed in range(20):
        i, j = general_position_pair(40_000 + seed)
        for metric in tk.connect(i, j, tk.ConnectOptions(seed=seed)).metrics:
            digest.update(metric.g.tobytes())
    assert digest.hexdigest() == CRITERION7_CHAINS_GOLDEN


def _change_of_basis(seed=0):
    # a seeded draw from GL(6, R); its condition number is about 10 for
    # seed 0 and about 100 for seed 1
    return np.random.default_rng(seed).standard_normal((6, 6))


def test_pair_factorize_after_a_change_of_basis():
    # in g = Id units A^T g A and A^T h A are an orthogonal conjugate of (g, h),
    # so the same criterion-6 targets must factor, each to a metric that
    # pairs with both of its ends; this checks the one basis A of seed 0
    a = _change_of_basis()
    g = tk.Metric(a.T @ a)
    failed = []
    for s in range(20):
        h = tk.Metric(a.T @ _criterion6_target(s).g @ a)
        try:
            g1 = tk.pair_factorize(g, h, seed=s)
        except tk.FactorizationFailed:
            failed.append(s)
            continue
        assert tk.paired_eigenvalues(g, g1, FACTORIZE_PAIRED_TOL) is not None
        assert tk.paired_eigenvalues(g1, h, FACTORIZE_PAIRED_TOL) is not None
    assert failed == [7, 10, 13]


def test_connect_after_a_change_of_basis():
    # J -> A^{-1} J A keeps a pair in general position; every chain must pass
    # verify_chain (pair 3 takes the 6-hop route in this basis). This checks
    # the one basis A of seed 0 and does not show that connect is
    # basis-independent: it is not (the next test)
    a = _change_of_basis()
    a_inv = np.linalg.inv(a)
    for seed in range(5):
        i, j = general_position_pair(40_000 + seed)
        chain = tk.connect(tk.ComplexStructure(a_inv @ i.j @ a),
                           tk.ComplexStructure(a_inv @ j.j @ a),
                           tk.ConnectOptions(seed=seed))
        report = tk.verify_chain(chain)
        assert report.ok and chain.hops <= 6


def test_connect_fails_on_pair_4_after_the_seed_1_change_of_basis():
    # A pinned reproducer of a known defect: connect is not basis-covariant
    # (the FOUND on moduli.connect in CHANGES.md). Criterion 7's pair 4 takes
    # 3 hops in its own basis, but through the A of seed 1 it ends in
    # ChainNotFound, because the {1, J}-averages of the identity metric that
    # connect factors first do not move with A. A mend turns this into a
    # verified chain: flip the assertion then.
    a = _change_of_basis(1)
    a_inv = np.linalg.inv(a)
    i, j = general_position_pair(40_004)
    assert tk.connect(i, j, tk.ConnectOptions(seed=4)).hops == 3
    with pytest.raises(tk.ChainNotFound):
        tk.connect(tk.ComplexStructure(a_inv @ i.j @ a),
                   tk.ComplexStructure(a_inv @ j.j @ a),
                   tk.ConnectOptions(seed=4))
