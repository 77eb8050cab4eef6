import json
import os

import numpy as np
import pytest

import toruskit as tk
from toruskit import serialize
from toruskit.cli import main

from conftest import t0_periods


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def validate(doc, schema):
    import jsonschema
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "schemas",
                        f"{schema}.schema.json")
    with open(path, encoding="utf-8") as fh:
        jsonschema.validate(doc, json.load(fh))


@pytest.fixture
def t0_file(tmp_path):
    return write(tmp_path, "t0.json",
                 serialize.encode_torus(tk.make_torus(t0_periods())))


def test_sample_torus_deterministic(capsys):
    code1, out1 = run(["sample-torus", "--n", "3", "--seed", "11"], capsys)
    code2, out2 = run(["sample-torus", "--n", "3", "--seed", "11"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    tk.make_torus(serialize.decode(doc).periods)  # revalidates


def test_sample_kinds_roundtrip(capsys):
    for kind in ("torus", "structure", "metric", "ext-class"):
        code, out = run(["sample-torus", "--kind", kind, "--seed", "5"], capsys)
        assert code == 0
        serialize.decode(json.loads(out))


def test_sample_ext_class_obstruction_free(capsys):
    from toruskit import bundles
    code, out = run(["sample-torus", "--kind", "ext-class", "--seed", "9"], capsys)
    nu = serialize.decode(json.loads(out))
    assert bundles.obstruction_norm(nu) == 0.0


def test_sample_corpus_roundtrips(capsys):
    # 100-document corpus: every emitted document re-parses and re-validates
    for seed in range(25):
        for kind in ("torus", "structure", "metric", "ext-class"):
            code, out = run(["sample-torus", "--kind", kind,
                             "--seed", str(seed)], capsys)
            assert code == 0
            serialize.decode(json.loads(out))


@pytest.mark.parametrize("kind,backend,schema", [
    ("torus", "f64", "torus"), ("torus", "rational", "torus"),
    ("structure", "f64", "structure"), ("metric", "f64", "metric"),
    ("ext-class", "f64", "ext_class")])
def test_sample_torus_matches_schema(capsys, kind, backend, schema):
    for seed in range(3):
        code, out = run(["sample-torus", "--kind", kind, "--backend", backend,
                         "--seed", str(seed)], capsys)
        assert code == 0
        validate(json.loads(out), schema)


def _golden_torus(kind):
    if kind == "float":
        return tk.random_torus(3, 77)
    rational = tk.random_torus(3, 5, backend="rational")
    return rational if kind == "rational" else tk.make_torus(rational.periods)


# sha256 of `toruskit check-generic --seed 3` stdout on a seeded float torus
# (no obstruction found), the float copy of a rational torus (the float
# search finds a subtorus) and the rational torus itself (the exact plane
# span{e1, Je1}), recorded before the two routes lost their `mode` switch.
CHECK_GENERIC_GOLDEN = {
    "float": (20, "a5c28c88d602a39ab12f5c44f1857312f14a8fa83fdeb9f5fec5bdb2e7d73c46"),
    "planted": (10, "1a8e4bbb8dfa70b46f41c1a7cece60f3df9c7d68fa904c5773f3811c0e3f65f5"),
    "rational": (10, "b805b8994dce5659c52a789a129084118a7783713c9b5b1bf76136a3e41d6ae9"),
}


@pytest.mark.parametrize("kind", sorted(CHECK_GENERIC_GOLDEN))
def test_check_generic_golden_bytes(tmp_path, capsys, kind):
    import hashlib
    path = write(tmp_path, "t.json", serialize.encode_torus(_golden_torus(kind)))
    code, out = run(["check-generic", "--in", path, "--seed", "3"], capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CHECK_GENERIC_GOLDEN[kind]
    validate(json.loads(out), "genericity_report")


def test_check_generic_t0_negative(t0_file, capsys):
    code, out = run(["check-generic", "--in", t0_file], capsys)
    assert code == 10
    doc = json.loads(out)
    assert doc["verdict"] == "non_generic"
    assert sorted(map(tuple, doc["subtorus"]["basis"])) == [
        (0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, 0)]
    assert doc["reverified"] is True


def test_check_generic_random_inconclusive(tmp_path, capsys):
    path = write(tmp_path, "t.json",
                 serialize.encode_torus(tk.random_torus(3, 77)))
    code, out = run(["check-generic", "--in", path], capsys)
    assert code == 20
    assert json.loads(out)["verdict"] == "no_obstruction_found"


def test_hodge_type_pure_and_mixed(tmp_path, t0_file, capsys):
    w = tk.MultiVector.basis_element(6, 0, 3)
    path = write(tmp_path, "w.json", serialize.encode_multivector(w))
    code, out = run(["hodge-type", "--in", path, "--torus", t0_file], capsys)
    assert code == 0 and json.loads(out)["pq"] == [1, 1]
    w2 = tk.MultiVector.basis_element(6, 0, 1)
    path2 = write(tmp_path, "w2.json", serialize.encode_multivector(w2))
    code, out = run(["hodge-type", "--in", path2, "--torus", t0_file], capsys)
    assert code == 10 and json.loads(out)["pq"] is None


def _multivector_doc(**term):
    doc = serialize.encode_multivector(tk.MultiVector.basis_element(6, 0, 3))
    doc["terms"][0].update(term)
    return doc


@pytest.mark.parametrize("term,message", [
    ({"re": float("nan")}, "terms[0] 're' must be a finite number"),
    ({"re": "x"}, "terms[0] 're' must be a finite number"),
    ({"indices": [0, 4]}, "terms[0] indices must be 2 strictly increasing "
                          "1-based indices in 1..6, got [0, 4]"),
    ({"indices": [1, 7]}, "terms[0] indices must be 2 strictly increasing "
                          "1-based indices in 1..6, got [1, 7]"),
], ids=["nan", "string", "index-0", "index-past-dim"])
def test_hodge_type_rejects_malformed_multivector(tmp_path, t0_file, capsys,
                                                  term, message):
    path = write(tmp_path, "w.json", _multivector_doc(**term))
    assert main(["hodge-type", "--in", path, "--torus", t0_file]) == 2
    assert message in capsys.readouterr().err


def test_hodge_type_rejects_dimension_mismatch(tmp_path, t0_file, capsys):
    path = write(tmp_path, "w.json",
                 serialize.encode_multivector(tk.MultiVector.basis_element(4, 0, 1)))
    assert main(["hodge-type", "--in", path, "--torus", t0_file]) == 2
    assert ("multivector of dim 4 does not match the structure of dim 6"
            in capsys.readouterr().err)


# One mutation that makes a dim-6, degree-2 multivector document malformed
# for the 6-dimensional torus T0: (target, key, value), where target "doc"
# sets a document key, "term" sets a key of the chosen term, "drop" deletes
# it, and "dup" appends a copy of the chosen term.
_MALFORMING = (
    [("doc", "dim", v) for v in (0, 1, 4, 8, -6, 6.0, "6", None, True)]
    + [("doc", "degree", v) for v in (-1, 0, 1, 3, 7, 2.0, "2", None, True)]
    + [("doc", "terms", v) for v in ({}, None, "x", 5)]
    + [("term", part, v) for part in ("re", "im")
       for v in (float("nan"), float("inf"), -float("inf"), "x", None, True,
                 [1.0], 10 ** 400)]
    + [("term", "indices", v) for v in ([0, 1], [1, 7], [2, 1], [3, 3], [1],
                                        [1, 2, 3], [1.0, 2], [True, 2], "12",
                                        None, [])]
    + [("drop", key, None) for key in ("indices", "re", "im")]
    + [("dup", None, None)]
)


def _mutated_multivector_strategy():
    from itertools import combinations

    from hypothesis import strategies as st
    subsets = [list(s) for s in combinations(range(1, 7), 2)]
    coeff = st.floats(allow_nan=False, allow_infinity=False, width=64)
    term = st.fixed_dictionaries({"indices": st.sampled_from(subsets),
                                  "re": coeff, "im": coeff})
    terms = st.lists(term, min_size=1, max_size=4,
                     unique_by=lambda t: tuple(t["indices"]))
    return st.tuples(terms, st.none() | st.sampled_from(_MALFORMING),
                     st.integers(0, 3))


def _apply_mutation(terms, mutation, k):
    doc = {"type": "multivector", "dim": 6, "degree": 2,
           "terms": [dict(t) for t in terms]}
    if mutation is None:
        return doc
    target, key, value = mutation
    term = doc["terms"][k % len(terms)]
    if target == "doc":
        doc[key] = value
    elif target == "term":
        term[key] = value
    elif target == "drop":
        del term[key]
    else:
        doc["terms"].append(dict(term))
    return doc


def test_hodge_type_fuzz_mutated_multivectors(tmp_path):
    # Malformed documents exit 2; well-formed ones get a verdict, 0 or 10.
    # No exception may escape cli.main.
    import contextlib
    import io

    from hypothesis import given, settings
    t0 = write(tmp_path, "t0.json",
               serialize.encode_torus(tk.make_torus(t0_periods())))
    path = tmp_path / "w.json"

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_mutated_multivector_strategy())
    def check(case):
        terms, mutation, k = case
        path.write_text(json.dumps(_apply_mutation(terms, mutation, k)))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["hodge-type", "--in", str(path), "--torus", t0])
        assert code in ((0, 10) if mutation is None else (2,))

    check()


def test_connect_cli(tmp_path, capsys):
    from conftest import general_position_pair
    i, j = general_position_pair(3)
    pi = write(tmp_path, "i.json", serialize.encode_structure(i))
    pj = write(tmp_path, "j.json", serialize.encode_structure(j))
    code, out = run(["connect", "--i", pi, "--j", pj, "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["hops"] <= 6 and doc["residual"] < 1e-8
    chain = serialize.decode(doc)
    assert tk.verify_chain(chain).ok


# sha256 of `toruskit connect` stdout for (general_position_pair seed,
# --seed), recorded with a factorizer that also ran Nelder-Mead restarts after
# the probes: the single search must give the same bytes. The first
# factorization of (100, 100) fails, so its chain comes from a retry.
CONNECT_GOLDEN = {
    (3, 7): "7c2a46e85c13ca14eddc98c34970f867a8e7e7f6f1ff38a4b1445562ec9ed36f",
    (100, 100): "a1c7ca0fb77e9c8de793db879fda7903f735969438d0ec86a30922d40fec03c5",
}


@pytest.mark.parametrize("pair,seed", sorted(CONNECT_GOLDEN))
def test_connect_cli_golden_bytes(tmp_path, capsys, pair, seed):
    import hashlib
    from conftest import general_position_pair
    i, j = general_position_pair(pair)
    pi = write(tmp_path, "i.json", serialize.encode_structure(i))
    pj = write(tmp_path, "j.json", serialize.encode_structure(j))
    code, out = run(["connect", "--i", pi, "--j", pj, "--seed", str(seed)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONNECT_GOLDEN[pair, seed]
    validate(json.loads(out), "chain")


def test_connect_rejects_non_finite_structure(tmp_path, capsys):
    from conftest import general_position_pair
    i, j = general_position_pair(3)
    doc = serialize.encode_structure(i)
    doc["j"][0][1] = float("nan")
    pi = write(tmp_path, "i.json", doc)
    pj = write(tmp_path, "j.json", serialize.encode_structure(j))
    assert main(["connect", "--i", pi, "--j", pj, "--seed", "7"]) == 2
    assert "bad input: J has non-finite entries" in capsys.readouterr().err


def test_section_cli_and_not_transversal(tmp_path, capsys):
    g = tk.identity_metric(6)
    from toruskit.twistor import random_transversal_pair
    a, b = random_transversal_pair(g, 4)
    pi = write(tmp_path, "i.json", serialize.encode_structure(a.structure()))
    pj = write(tmp_path, "j.json", serialize.encode_structure(b.structure()))
    pg = write(tmp_path, "g.json", serialize.encode_metric(g))
    wi = write(tmp_path, "wi.json", [[1.0, 0], [0, 1], [0, 0]])
    wj = write(tmp_path, "wj.json", [[0.5, 0], [0, 0], [1, 0]])
    code, out = run(["section", "--i", pi, "--j", pj, "--metric", pg,
                     "--wi", wi, "--wj", wj], capsys)
    assert code == 0
    assert json.loads(out)["residual"] < 1e-9
    code, _ = run(["section", "--i", pi, "--j", pi, "--metric", pg,
                   "--wi", wi, "--wj", wj], capsys)
    assert code == 10


def test_section_rational_structure_uses_float_frame(tmp_path, capsys):
    # frames are float only: a rational structure document gives the bytes
    # of the document of its float J
    from conftest import t0_exact
    j0 = t0_exact().induced_structure()
    exact_doc = serialize.encode_structure(j0)
    assert exact_doc["backend"] == "rational"
    float_doc = serialize.encode_structure(tk.ComplexStructure(j0.j))
    pj = write(tmp_path, "j.json",
               serialize.encode_structure(tk.ComplexStructure(-j0.j)))
    pg = write(tmp_path, "g.json", serialize.encode_metric(tk.identity_metric(6)))
    wi = write(tmp_path, "wi.json", [[1.0, 0], [0, 1], [0, 0]])
    wj = write(tmp_path, "wj.json", [[0.5, 0], [0, 0], [1, 0]])
    outs = []
    for doc in (exact_doc, float_doc):
        pi = write(tmp_path, "i.json", doc)
        code, out = run(["section", "--i", pi, "--j", pj, "--metric", pg,
                         "--wi", wi, "--wj", wj], capsys)
        assert code == 0 and json.loads(out)["residual"] < 1e-12
        outs.append(out)
    assert outs[0] == outs[1]


def _section_files(tmp_path):
    from toruskit.twistor import random_transversal_pair
    g = tk.identity_metric(6)
    a, b = random_transversal_pair(g, 4)
    return (write(tmp_path, "i.json", serialize.encode_structure(a.structure())),
            write(tmp_path, "j.json", serialize.encode_structure(b.structure())),
            serialize.encode_metric(g))


def test_section_rejects_flat_vector(tmp_path, capsys):
    pi, pj, gdoc = _section_files(tmp_path)
    pg = write(tmp_path, "g.json", gdoc)
    wi = write(tmp_path, "wi.json", [1.0, 0.0, 0.5])
    wj = write(tmp_path, "wj.json", [[0.5, 0], [0, 0], [1, 0]])
    code = main(["section", "--i", pi, "--j", pj, "--metric", pg,
                 "--wi", wi, "--wj", wj])
    assert code == 2
    assert "wi" in capsys.readouterr().err


@pytest.mark.parametrize("g", [[[1.0, 5.0], [-5.0, 1.0]],
                               [[1.0, 0.0], [0.0, float("nan")]]])
def test_section_rejects_malformed_metric(tmp_path, capsys, g):
    pi, pj, gdoc = _section_files(tmp_path)
    gdoc["g"] = g
    pg = write(tmp_path, "g.json", gdoc)
    wi = write(tmp_path, "wi.json", [[1.0, 0], [0, 1], [0, 0]])
    code = main(["section", "--i", pi, "--j", pj, "--metric", pg,
                 "--wi", wi, "--wj", wi])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad input" in err and "'g'" in err


def test_transport_cli(tmp_path, capsys):
    g = tk.identity_metric(6)
    from toruskit.twistor import random_transversal_pair
    a, b = random_transversal_pair(g, 8)
    pi = write(tmp_path, "i.json", serialize.encode_structure(a.structure()))
    pl = write(tmp_path, "l.json", serialize.encode_structure(b.structure()))
    pg = write(tmp_path, "g.json", serialize.encode_metric(g))
    t = write(tmp_path, "t.json", [[0.3, 0], [0, -0.2], [1, 0]])
    code, out = run(["transport", "--i", pi, "--l", pl, "--lp", pl,
                     "--metric", pg, "--t", t], capsys)
    assert code == 0
    w = np.array(json.loads(out)["w"])
    assert np.abs(w - [[0.3, 0], [0, -0.2], [1, 0]]).max() < 1e-9


def test_bundle_extend_cli(tmp_path, capsys):
    from toruskit.bundles import Character, ExtClass, GradedFlatBundle
    from toruskit.twistor import random_transversal_pair
    g = tk.identity_metric(6)
    a, b = random_transversal_pair(g, 12)
    ch = Character.trivial(6)
    rng = np.random.default_rng(0)
    nu = ExtClass(bundle=GradedFlatBundle(blocks=((ch, 1), (ch, 1))),
                  forms={(1, 0): rng.standard_normal((3, 1, 1))
                         + 1j * rng.standard_normal((3, 1, 1))})
    pe = write(tmp_path, "e.json", serialize.encode_ext_class(nu))
    pi = write(tmp_path, "i.json", serialize.encode_structure(a.structure()))
    pj = write(tmp_path, "j.json", serialize.encode_structure(b.structure()))
    pg = write(tmp_path, "g.json", serialize.encode_metric(g))
    code, out = run(["bundle-extend", "--ext", pe, "--i", pi, "--j", pj,
                     "--l", pi, "--metric", pg], capsys)
    assert code == 0
    back = serialize.decode(json.loads(out))
    assert back.norm() < 1e-9  # restriction at I vanishes


@pytest.mark.parametrize("forms", [[], {"2,1": 5}, {"1,0": [[[[1.0, 0.0]]]] * 3}])
def test_bundle_extend_malformed_ext_class(tmp_path, capsys, forms):
    from toruskit.bundles import Character, ExtClass, GradedFlatBundle
    ch = Character.trivial(6)
    doc = serialize.encode_ext_class(
        ExtClass(bundle=GradedFlatBundle(blocks=((ch, 1), (ch, 1))), forms={}))
    doc["forms"] = forms
    pe = write(tmp_path, "e.json", doc)
    unused = str(tmp_path / "unused.json")
    code = main(["bundle-extend", "--ext", pe, "--i", unused, "--j", unused,
                 "--l", unused, "--metric", unused])
    assert code == 2
    assert "bad input" in capsys.readouterr().err


def test_massey_cli(tmp_path, capsys):
    from toruskit.fourier import FourierForm, FourierFormSpace
    sp = FourierFormSpace(3, 3)
    c = np.zeros((3, 2, 2), complex)
    c[0] = [[0, 2.0], [0, 0]]
    theta = FourierForm(sp, 1, {(0,) * 6: c}, extra=(2, 2))
    path = write(tmp_path, "theta.json", serialize.encode_fourier_form(theta))
    code, out = run(["massey", "--in", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] and doc["mc_residual"] < 1e-12

    c2 = np.zeros((3, 3, 3), complex)
    c2[0] = np.diag([0, 0, 0.0])
    c2[0][0, 1] = 2.0
    c2[1][1, 2] = 3.0
    theta2 = FourierForm(sp, 1, {(0,) * 6: c2}, extra=(3, 3))
    path2 = write(tmp_path, "theta2.json", serialize.encode_fourier_form(theta2))
    code, _ = run(["massey", "--in", path2], capsys)
    assert code == 10  # obstructed


def _fourier_doc():
    from toruskit.fourier import FourierForm, FourierFormSpace
    c = np.zeros((3, 2, 2), complex)
    c[0] = [[0, 2.0], [0, 0]]
    form = FourierForm(FourierFormSpace(3, 3), 1,
                       {(0,) * 6: c, (1, 0, 0, 0, 0, 0): 0.5 * c}, extra=(2, 2))
    return serialize.encode_fourier_form(form)


def _set_mode(k, m):
    return lambda doc: doc["modes"][k].update(m=m)


@pytest.mark.parametrize("edit,message", [
    (_set_mode(1, [0.7, 0, 0, 0, 0, 0]), "modes[1] 'm' must be 6 integers in -3..3"),
    (_set_mode(1, [1, 0, 0]), "modes[1] 'm' must be 6 integers in -3..3"),
    (_set_mode(1, [4, 0, 0, 0, 0, 0]), "modes[1] 'm' must be 6 integers in -3..3"),
    (_set_mode(1, [True, 0, 0, 0, 0, 0]), "modes[1] 'm' must be 6 integers"),
    (_set_mode(1, [0, 0, 0, 0, 0, 0]), "modes[1] repeats the mode [0, 0, 0, 0, 0, 0]"),
    (lambda doc: doc["modes"][0]["coeffs"][2][1].__setitem__(0, [float("nan"), 0.0]),
     "modes[0] 'coeffs' is not a 3-d array of finite [re, im] pairs"),
    (lambda doc: doc["modes"][0].update(coeffs=[[1.0, 0.0]] * 3),
     "modes[0] 'coeffs' is not a 3-d array"),
    (lambda doc: doc["modes"][0].update(coeffs=[[[[1.0, 0.0]]]] * 3),
     "modes[0] 'coeffs' has shape (3, 1, 1), expected (3, 2, 2)"),
    (lambda doc: doc["modes"][0].pop("coeffs"), "modes[0] must be an object"),
    (lambda doc: doc.update(n=True), "n must be an integer >= 1, got True"),
    (lambda doc: doc.update(mode_bound=0), "mode_bound must be an integer >= 1"),
    (lambda doc: doc.update(q=4), "q must be an integer in 0..3, got 4"),
    (lambda doc: doc.update(q=1.0), "q must be an integer in 0..3, got 1.0"),
    (lambda doc: doc.update(value_shape=[2, "2"]), "value_shape must be a list"),
    (lambda doc: doc.update(modes={}), "'modes' must be a list"),
], ids=["float-entry", "short", "out-of-cube", "bool-entry", "repeated",
        "nan-coeff", "coeffs-rank", "coeffs-shape", "no-coeffs", "bool-n",
        "mode-bound-0", "q-above-n", "float-q", "value-shape", "modes-dict"])
def test_massey_rejects_malformed_fourier_form(tmp_path, capsys, edit, message):
    doc = _fourier_doc()
    validate(doc, "fourier_form")
    assert main(["massey", "--in", write(tmp_path, "ok.json", doc)]) == 0
    capsys.readouterr()
    edit(doc)
    assert main(["massey", "--in", write(tmp_path, "bad.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad input: fourier_form ") and message in err


def _exact_theta0(rank, seed):
    """dbar of a (0,0)-form with strictly upper-triangular End values on six
    modes with |m_k| <= 1: a seeded Massey seed that converges."""
    from toruskit.fourier import FourierForm, FourierFormSpace, dbar
    rng = np.random.default_rng(seed)
    modes = {}
    while len(modes) < 6:
        m = tuple(int(v) for v in rng.integers(-1, 2, 6))
        if any(m):
            modes[m] = None
    iu = np.triu_indices(rank, 1)
    for m in modes:
        c = np.zeros((1, rank, rank), complex)
        c[0][iu] = 0.3 * (rng.standard_normal(len(iu[0]))
                          + 1j * rng.standard_normal(len(iu[0])))
        modes[m] = c
    return dbar(FourierForm(FourierFormSpace(3, 4), 0, modes, extra=(rank, rank)))


# sha256 of `toruskit massey` stdout on two seeded documents. The answer is
# pinned bit for bit: any drift in a float or in the mode order fails here.
MASSEY_GOLDEN = {
    (3, 11): "a29732881d3cffdea565b5ed041dd087a45d215c189c09fb581474b42d6d99c3",
    (4, 12): "f9380943519911d1a6728d701e9e627af06c405099d15df631005ea5ae13daea",
}


@pytest.mark.parametrize("rank,seed", sorted(MASSEY_GOLDEN))
def test_massey_cli_golden_bytes(tmp_path, capsys, rank, seed):
    import hashlib
    path = write(tmp_path, "theta0.json",
                 serialize.encode_fourier_form(_exact_theta0(rank, seed)))
    code, out = run(["massey", "--in", path], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MASSEY_GOLDEN[rank, seed]


def test_curvature_scan_cli(capsys):
    code, out = run(["curvature-scan", "--n", "3", "--count", "40",
                     "--seed", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["violation"] is False
    assert doc["max_formula_error"] < 1e-12
    assert doc["seed"] == 2


def test_usage_error(capsys):
    assert main(["no-such-command"]) == 1


def test_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["check-generic", "--in", str(path)]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["check-generic", "--in", missing]) == 2


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORUSKIT_SEED", "33")
    code, out1 = run(["sample-torus", "--n", "3"], capsys)
    assert code == 0 and json.loads(out1)["seed"] == 33
    monkeypatch.delenv("TORUSKIT_SEED")
    code, out2 = run(["sample-torus", "--n", "3"], capsys)
    assert json.loads(out2)["seed"] == 0


def test_out_flag(tmp_path, capsys):
    target = str(tmp_path / "out.json")
    code, out = run(["sample-torus", "--seed", "1", "--out", target], capsys)
    assert code == 0 and out == ""
    serialize.decode(json.loads(open(target).read()))
