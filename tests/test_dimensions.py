"""Structural checks away from n = 3: the machinery is dimension-generic."""

import numpy as np

import toruskit as tk
from toruskit.hodge import pq_projectors
from toruskit.linalg import random_spd
from toruskit.twistor import random_transversal_pair

from conftest import principal_angles


def test_roundtrips_n4_n5():
    for n in (4, 5):
        rng = np.random.default_rng(n)
        g = tk.Metric(random_spd(2 * n, rng, cond=6.0))
        j = tk.random_structure(g, rng)
        fr = tk.frame_from_structure(j, g)
        back = tk.structure_from_frame(fr)
        assert np.abs(back.j - j.j).max() < 1e-9
        fr2 = tk.frame_from_structure(back, g)
        assert principal_angles(fr.basis, fr2.basis).max() < 1e-8


def test_projector_completeness_n4():
    j = tk.random_structure(tk.identity_metric(8), 0)
    projs = pq_projectors(j, 2)
    size = next(iter(projs.values())).shape[0]
    assert size == 28
    total = sum(projs.values())
    assert np.abs(total - np.eye(size)).max() < 1e-9


def test_section_solve_n4():
    g = tk.identity_metric(8)
    rng = np.random.default_rng(1)
    for seed in range(10):
        a, b = random_transversal_pair(g, seed)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        back = tk.section_solve(a, b, tk.kappa(tk.SectionVector(v), a),
                                tk.kappa(tk.SectionVector(v), b))
        assert np.abs(back.v - v).max() < 1e-9


def test_even_n_intersection_parity():
    # isotropic intersection parity at n = 4: independent draws meet in
    # dimension 0 (same component, generic) or 1 (opposite components),
    # and transversality is exactly the dimension-0 case
    g = tk.identity_metric(8)
    seen = set()
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        a = tk.twistor_point(tk.random_structure(g, rng), g)
        b = tk.twistor_point(tk.random_structure(g, rng), g)
        m = np.hstack([a.frame.basis, b.frame.basis])
        sv = np.linalg.svd(m, compute_uv=False)
        dim = int(np.sum(sv < 1e-8 * sv[0]))
        seen.add(dim)
        assert dim in (0, 1)
        assert tk.transversal(a, b) == (dim == 0)
    assert seen == {0, 1}


def test_connect_n4():
    rng = np.random.default_rng(2)
    ga = tk.Metric(random_spd(8, rng, cond=5.0))
    gb = tk.Metric(random_spd(8, rng, cond=5.0))
    i = tk.random_structure(ga, rng)
    j = tk.random_structure(gb, rng)
    chain = tk.connect(i, j, tk.ConnectOptions(seed=3))
    report = tk.verify_chain(chain)
    assert report.ok and chain.hops <= 6


def test_paired_eigenvalues_n4(idm6):
    g = tk.identity_metric(8)
    g1 = tk.Metric(np.diag([2.0, 2, 3, 3, 5, 5, 7, 7]))
    pairing = tk.paired_eigenvalues(g, g1)
    assert pairing is not None and len(pairing.pairs) == 4
    j = tk.common_structure_from_metrics(g, g1)
    assert j.compatibility_residual(g) < 1e-10
    assert j.compatibility_residual(g1) < 1e-10
