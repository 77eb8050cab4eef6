"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines. Tolerances are
pinned here, straight from the criteria; nothing is deferred to calibration.
"""

import json
import time

import numpy as np
import toruskit as tk
from toruskit import bundles, serialize
from toruskit.fourier import FourierForm, FourierFormSpace
from toruskit.hodge import pq_projectors
from toruskit.linalg import random_spd
from toruskit.moduli import HOP_TOL, pair_defect
from toruskit.twistor import component_flip, random_transversal_pair, twistor_point

from conftest import general_position_pair, principal_angles


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_conversion_roundtrips():
    start = time.time()
    worst_angle = 0.0
    worst_square = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        g = tk.Metric(random_spd(6, rng, cond=10.0))
        j = tk.random_structure(g, rng)
        fr = tk.frame_from_structure(j, g)
        back = tk.structure_from_frame(fr)
        fr2 = tk.frame_from_structure(back, g)
        worst_angle = max(worst_angle, principal_angles(fr.basis, fr2.basis).max())
        for s in (j, back):
            worst_square = max(worst_square,
                               np.linalg.norm(s.j @ s.j + np.eye(6)))
    elapsed = time.time() - start
    ok = worst_angle < 1e-8 and worst_square < 1e-10 and elapsed < 5.0
    assert report(1, ok, f"200 pairs, max angle {worst_angle:.2e}, "
                         f"max ||J^2+I|| {worst_square:.2e}, {elapsed:.1f}s")


def test_criterion_02_projector_algebra():
    start = time.time()
    worst = 0.0
    for seed in range(50):
        j = tk.random_structure(tk.identity_metric(6), 9000 + seed)
        for degree in (2, 4):
            projs = pq_projectors(j, degree)
            size = next(iter(projs.values())).shape[0]
            total = sum(projs.values())
            worst = max(worst, np.abs(total - np.eye(size)).max())
            for (p, q), pi in projs.items():
                worst = max(worst, np.abs(pi @ pi - pi).max())
                worst = max(worst, np.abs(pi.conj() - projs[(q, p)]).max())
                for lab2, pi2 in projs.items():
                    if lab2 != (p, q):
                        worst = max(worst, np.abs(pi @ pi2).max())
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 30.0
    assert report(2, ok, f"50 structures, Lambda^2 and Lambda^4, "
                         f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_genericity_oracles():
    start = time.time()
    agree = 0
    for seed in range(20):
        t_exact = tk.random_torus(3, seed, backend="rational")
        rep = tk.is_generic(t_exact)
        assert rep.verdict == "non_generic" and rep.re_verify(t_exact)
        t_float = tk.make_torus(np.array(t_exact.periods))
        rep_f = tk.is_generic(t_float, bound=10)
        if (rep_f.verdict == "non_generic" and rep_f.re_verify(t_float)
                and (rep_f.subtorus is None) == (rep.subtorus is None)):
            agree += 1
    clean = 0
    for seed in range(100):
        t = tk.random_torus(3, 50_000 + seed)
        if tk.is_generic(t, bound=10).verdict == "no_obstruction_found":
            clean += 1
    elapsed = time.time() - start
    ok = agree >= 18 and clean == 100 and elapsed < 120.0
    assert report(3, ok, f"exact witnesses 20/20 re-verified, heuristic agreement "
                         f"{agree}/20, clean sweeps {clean}/100, {elapsed:.1f}s")


def test_criterion_04_section_interpolation():
    start = time.time()
    g = tk.identity_metric(6)
    worst = 0.0
    rng = np.random.default_rng(0)
    for seed in range(200):
        a, b = random_transversal_pair(g, seed)
        wi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        wj = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = tk.section_solve(a, b, wi, wj)
        worst = max(worst,
                    np.abs(tk.kappa(v, a).w - wi).max(),
                    np.abs(tk.kappa(v, b).w - wj).max())
    raised = 0
    for seed in range(20):
        a = twistor_point(tk.random_structure(g, 700 + seed), g)
        j2 = tk.random_structure(g, 800 + seed)
        b = twistor_point(j2, g)
        if tk.transversal(a, b):
            b = twistor_point(component_flip(j2, g), g)
        assert not tk.transversal(a, b)
        try:
            tk.section_solve(a, b, np.zeros(3), np.ones(3))
        except tk.NotTransversal:
            raised += 1
    elapsed = time.time() - start
    ok = worst < 1e-9 and raised == 20 and elapsed < 10.0
    assert report(4, ok, f"200 interpolations, max residual {worst:.2e}; "
                         f"NotTransversal {raised}/20 exactly at criterion failure, "
                         f"{elapsed:.1f}s")


def test_criterion_05_curvature_negativity():
    start = time.time()
    g = tk.identity_metric(6)
    rng = np.random.default_rng(1)
    worst_err = 0.0
    strict = 0
    for seed in range(500):
        s = twistor_point(tk.random_structure(g, rng), g)
        xi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        xi = 0.5 * (xi - xi.T)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        val = tk.b_minus_curvature(s, xi, b)
        direct = -float(np.linalg.norm(xi @ b) ** 2)
        worst_err = max(worst_err, abs(val - direct))
        if np.linalg.norm(xi @ b) > 1e-12:
            if val < 0:
                strict += 1
    elapsed = time.time() - start
    ok = worst_err < 1e-12 and strict == 500 and elapsed < 5.0
    assert report(5, ok, f"500 draws, max |value + ||xi b||^2| = {worst_err:.2e}, "
                         f"strictly negative {strict}/500, {elapsed:.1f}s")


def test_criterion_06_pair_factorization():
    start = time.time()
    idm = tk.identity_metric(6)
    h0 = tk.Metric(np.diag([1.0, 2, 4, 4, 2, 1]))
    g1 = tk.pair_factorize(idm, h0)
    closed_ok = (np.abs(g1.g - np.diag([1.0, 1, 2, 2, 1, 1])).max() < 1e-9
                 and pair_defect(idm, g1) < 1e-12 and pair_defect(g1, h0) < 1e-12)
    successes = 0
    for seed in range(100):
        h = tk.Metric(random_spd(6, np.random.default_rng([6100, seed]), cond=100.0))
        try:
            gm = tk.pair_factorize(idm, h, seed=seed)
            if pair_defect(gm, h) < 1e-10:
                successes += 1
        except tk.FactorizationFailed:
            pass
    elapsed = time.time() - start
    ok = closed_ok and successes >= 95 and elapsed < 300.0
    assert report(
        6, ok,
        f"closed form {'ok' if closed_ok else 'BAD'}; random SPD successes "
        f"{successes}/100 against the >= 95 target (about a tenth of uniform "
        f"SPD targets provably lie outside the paired-times-paired set; no "
        f"optimizer budget crosses that, see README), {elapsed:.0f}s")


def test_criterion_07_chain_construction():
    assert HOP_TOL == 1e-8  # the criterion's pinned hop tolerance
    start = time.time()
    verified = 0
    direct = 0
    worst = 0.0
    for seed in range(100):
        i, j = general_position_pair(40_000 + seed)
        chain = tk.connect(i, j, tk.ConnectOptions(seed=seed))
        rep = tk.verify_chain(chain)
        if rep.ok and chain.hops <= 6:
            verified += 1
            worst = max(worst, rep.max_residual)
        if chain.hops <= 3:
            direct += 1
    elapsed = time.time() - start
    ok = verified == 100 and direct >= 90 and elapsed < 600.0
    assert report(7, ok, f"verified {verified}/100 within 6 hops "
                         f"(max residual {worst:.2e}), direct <=3 hops "
                         f"{direct}/100, {elapsed:.0f}s")


def _random_ext_class(seed, blocks=3):
    rng = np.random.default_rng(seed)
    ch = bundles.Character.trivial(6)
    ranks = [int(r) for r in rng.integers(1, 3, blocks)]
    bundle = bundles.GradedFlatBundle(blocks=tuple((ch, r) for r in ranks))
    forms = {}
    for i in range(blocks):
        for j in range(i):
            forms[(i, j)] = (rng.standard_normal((3, ranks[j], ranks[i]))
                             + 1j * rng.standard_normal((3, ranks[j], ranks[i])))
    return bundles.ExtClass(bundle=bundle, forms=forms)


def test_criterion_08_maurer_cartan_suite():
    start = time.time()
    j0 = tk.standard_structure(3)
    worst_agree = 0.0
    for seed in range(100):
        nu = _random_ext_class(seed, blocks=2 + seed % 2)
        res = bundles.dbar_square_residual(nu, j0, 4)
        worst_agree = max(worst_agree, abs(res - bundles.obstruction_norm(nu)))
    # solvable case with a mode-1 potential
    sp = FourierFormSpace(3, 4)
    a, b = 2.0, 3.0
    m = (0, 1, 0, 0, 0, 0)
    c1 = np.zeros((3, 3, 3), complex)
    c1[0][0, 1] = a
    c2 = np.zeros((3, 3, 3), complex)
    c2[1][1, 2] = b
    theta0 = (FourierForm(sp, 1, {(0,) * 6: c1}, extra=(3, 3))
              + FourierForm(sp, 1, {m: c2}, extra=(3, 3)))
    solved = bundles.massey_solve(theta0, tol=1e-12)
    solvable_ok = solved.converged and solved.mc_residual < 1e-8
    # constant AB != 0 case reports Obstructed
    c3 = np.zeros((3, 3, 3), complex)
    c3[0][0, 1] = a
    c3[1][1, 2] = b
    obstructed_ok = False
    try:
        bundles.massey_solve(FourierForm(sp, 1, {(0,) * 6: c3}, extra=(3, 3)))
    except tk.Obstructed:
        obstructed_ok = True
    gauge_ok = True
    rng = np.random.default_rng(5)
    for seed in range(100):
        nu = _random_ext_class(3000 + seed, blocks=2)
        alpha = np.exp(rng.uniform(-2, 2, 2))
        if bundles.obstruction_norm(bundles.gauge_scale(nu, alpha)) != 0.0:
            gauge_ok = False
    elapsed = time.time() - start
    ok = (worst_agree < 1e-10 and solvable_ok and obstructed_ok and gauge_ok
          and elapsed < 120.0)
    assert report(8, ok, f"operator/tensor agreement {worst_agree:.2e} over 100 "
                         f"classes; solvable residual {solved.mc_residual:.2e}; "
                         f"obstructed {'raised' if obstructed_ok else 'MISSED'}; "
                         f"gauge vanishing {'stable' if gauge_ok else 'BROKEN'} "
                         f"over 100 draws, {elapsed:.0f}s (mode bound 4)")


def test_criterion_09_twistor_extension():
    start = time.time()
    g = tk.identity_metric(6)
    worst_j = worst_i = worst_round = 0.0
    for seed in range(100):
        p_i, p_j = random_transversal_pair(g, seed)
        rng = np.random.default_rng(seed)
        ch = bundles.Character.trivial(6)
        nu = bundles.ExtClass(
            bundle=bundles.GradedFlatBundle(blocks=((ch, 1), (ch, 1))),
            forms={(1, 0): rng.standard_normal((3, 1, 1))
                   + 1j * rng.standard_normal((3, 1, 1))})
        at_j = bundles.twistor_extend(nu, p_j, p_i, p_j)
        worst_j = max(worst_j, np.abs(at_j.forms[(1, 0)] - nu.forms[(1, 0)]).max())
        at_i = bundles.twistor_extend(nu, p_j, p_i, p_i)
        worst_i = max(worst_i, at_i.norm())
        j2 = tk.random_structure(g, 10_000 + seed)
        p_l = twistor_point(j2, g)
        if not tk.transversal(p_i, p_l):
            p_l = twistor_point(component_flip(j2, g), g)
        nu_l = bundles.twistor_extend(nu, p_j, p_i, p_l)
        back = bundles.twistor_extend(nu_l, p_l, p_i, p_j)
        worst_round = max(worst_round,
                          np.abs(back.forms[(1, 0)] - nu.forms[(1, 0)]).max())
    elapsed = time.time() - start
    ok = (worst_j < 1e-10 and worst_i < 1e-10 and worst_round < 1e-9
          and elapsed < 30.0)
    assert report(9, ok, f"100 seeds: at J {worst_j:.2e}, at I {worst_i:.2e}, "
                         f"re-extension {worst_round:.2e}, {elapsed:.1f}s")


def test_criterion_10_cli_contract(tmp_path):
    from toruskit.cli import main
    start = time.time()

    def run_to(name, args):
        out = tmp_path / name
        code = main(args + ["--out", str(out)])
        return code, out.read_bytes()

    ok = True
    notes = []
    # determinism, byte identical, and round-trip across kinds and seeds
    for kind in ("torus", "structure", "metric", "ext-class"):
        for seed in ("3", "4"):
            c1, b1 = run_to(f"{kind}{seed}a.json",
                            ["sample-torus", "--kind", kind, "--seed", seed])
            c2, b2 = run_to(f"{kind}{seed}b.json",
                            ["sample-torus", "--kind", kind, "--seed", seed])
            if not (c1 == c2 == 0 and b1 == b2):
                ok = False
                notes.append(f"determinism {kind}")
            serialize.decode(json.loads(b1))
    # exit code contract
    p = np.hstack([np.eye(3), 1j * np.eye(3)])
    t0_path = tmp_path / "t0.json"
    t0_path.write_text(serialize.dumps(serialize.encode_torus(tk.make_torus(p))))
    code = main(["check-generic", "--in", str(t0_path), "--out",
                 str(tmp_path / "gen.json")])
    if code != 10:
        ok = False
        notes.append(f"check-generic T0 exit {code}")
    rnd_path = tmp_path / "rnd.json"
    rnd_path.write_text(serialize.dumps(serialize.encode_torus(tk.random_torus(3, 1))))
    if main(["check-generic", "--in", str(rnd_path), "--out",
             str(tmp_path / "gen2.json")]) != 20:
        ok = False
        notes.append("check-generic random exit")
    i, j = general_position_pair(2)
    ip = tmp_path / "i.json"
    jp = tmp_path / "j.json"
    ip.write_text(serialize.dumps(serialize.encode_structure(i)))
    jp.write_text(serialize.dumps(serialize.encode_structure(j)))
    code, chain_bytes = run_to("chain.json",
                               ["connect", "--i", str(ip), "--j", str(jp),
                                "--seed", "7"])
    chain_doc = json.loads(chain_bytes)
    if code != 0 or chain_doc["hops"] > 6:
        ok = False
        notes.append("connect")
    if not tk.verify_chain(serialize.decode(chain_doc)).ok:
        ok = False
        notes.append("chain round-trip")
    gp = tmp_path / "g.json"
    gp.write_text(serialize.dumps(serialize.encode_metric(tk.identity_metric(6))))
    wi = tmp_path / "wi.json"
    wi.write_text(json.dumps([[1.0, 0], [0, 0], [0, 0]]))
    sp = tmp_path / "s.json"
    sp.write_text(serialize.dumps(serialize.encode_structure(
        tk.random_structure(tk.identity_metric(6), 0))))
    if main(["section", "--i", str(sp), "--j", str(sp), "--metric", str(gp),
             "--wi", str(wi), "--wj", str(wi)]) != 10:
        ok = False
        notes.append("section NotTransversal exit")
    if main(["no-such"]) != 1:
        ok = False
        notes.append("usage exit")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    if main(["check-generic", "--in", str(bad)]) != 2:
        ok = False
        notes.append("malformed exit")
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    assert report(10, ok, "subcommand round-trips, exit codes, determinism"
                          + (f"; issues: {notes}" if notes else " all hold")
                          + f", {elapsed:.1f}s")
