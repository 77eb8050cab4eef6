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


def test_structure_schema_pins_j_exact():
    import jsonschema
    doc = serialize.encode_structure(
        tk.random_torus(3, 2, backend="rational").induced_structure())
    validate(doc, "structure")
    without = {k: v for k, v in doc.items() if k != "j_exact"}
    for bad in (dict(doc, backend="f64"), without,
                dict(doc, j_exact=[["1/0"] * 6] * 6)):
        with pytest.raises(jsonschema.ValidationError):
            validate(bad, "structure")


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
    ({"indices": [0, 4]}, "terms[0] 'indices'[0] must be an integer in 1..6, got 0"),
    ({"indices": [1, 7]}, "terms[0] 'indices'[1] must be an integer in 1..6, got 7"),
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
# --seed), recorded with the eigh rotation ladder in the polish. The first
# factorization of (100, 100) fails, so its chain comes from a retry.
CONNECT_GOLDEN = {
    (3, 7): "ce36312f75925f7542239911079617496659c03c9fb374de7dc45ff87eb2c377",
    (100, 100): "490e427ab3ebaf5d60bce92d338fe6180755dadaecfe5ff85bf492182f88d580",
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
    assert ("bad input: structure j[0][1] must be a finite number, got nan"
            in capsys.readouterr().err)


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
    assert "bad input: metric g" in err


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
    validate(json.loads(out), "ext_class")
    back = serialize.decode(json.loads(out))
    assert back.norm() < 1e-9  # restriction at I vanishes


# Form keys that int() reads as the blocks 2 and 1 but that are not two runs of
# ASCII digits around one comma
_LAX_FORM_KEYS = (" 2,1", "+2,1", "\uff12,1", "2 , 1")


def test_ext_class_schema_rejects_what_the_reader_rejects():
    import jsonschema

    from toruskit.bundles import Character, ExtClass, GradedFlatBundle
    ch = Character.trivial(6)
    nu = ExtClass(bundle=GradedFlatBundle(blocks=((ch, 1), (ch, 1))),
                  forms={(1, 0): np.full((3, 1, 1), 0.5 + 0.25j)})
    doc = serialize.encode_ext_class(nu)
    validate(doc, "ext_class")
    bad = [dict(doc, forms={key: doc["forms"]["2,1"]}) for key in _LAX_FORM_KEYS]
    bad.append(dict(doc, forms={"2,1": [[[["0.5", 0.25]]]] * 3}))
    for d in bad:
        with pytest.raises(jsonschema.ValidationError):
            validate(d, "ext_class")
        with pytest.raises(ValueError, match=r"^ext_class forms"):
            serialize.decode(d)


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
    (_set_mode(1, [0.7, 0, 0, 0, 0, 0]), "modes[1] 'm'[0] must be an integer in -3..3"),
    (_set_mode(1, [1, 0, 0]), "modes[1] 'm' must be 6 integers in -3..3"),
    (_set_mode(1, [4, 0, 0, 0, 0, 0]), "modes[1] 'm'[0] must be an integer in -3..3"),
    (_set_mode(1, [True, 0, 0, 0, 0, 0]), "modes[1] 'm'[0] must be an integer"),
    (_set_mode(1, [0, 0, 0, 0, 0, 0]), "modes[1] repeats the mode [0, 0, 0, 0, 0, 0]"),
    (lambda doc: doc["modes"][0]["coeffs"][2][1].__setitem__(0, [float("nan"), 0.0]),
     "modes[0] 'coeffs'[2][1][0] must be a finite number, got nan"),
    (lambda doc: doc["modes"][0].update(coeffs=[[1.0, 0.0]] * 3),
     "modes[0] 'coeffs'[0][0] must be a non-empty list"),
    (lambda doc: doc["modes"][0].update(coeffs=[[[[1.0, 0.0]]]] * 3),
     "modes[0] 'coeffs' has shape (3, 1, 1), expected (3, 2, 2)"),
    (lambda doc: doc["modes"][0].pop("coeffs"), "modes[0] key 'coeffs' is missing"),
    (lambda doc: doc.update(n=True), "n must be an integer in 1..12, got True"),
    (lambda doc: doc.update(n=60), "n must be an integer in 1..12, got 60"),
    (lambda doc: doc.update(mode_bound=0), "mode_bound must be an integer >= 1"),
    (lambda doc: doc.update(q=4), "q must be an integer in 0..3, got 4"),
    (lambda doc: doc.update(q=1.0), "q must be an integer in 0..3, got 1.0"),
    (lambda doc: doc.update(value_shape=[2, "2"]),
     "value_shape[1] must be an integer >= 1, got '2'"),
    (lambda doc: doc.update(modes={}), "'modes' must be a list"),
], ids=["float-entry", "short", "out-of-cube", "bool-entry", "repeated",
        "nan-coeff", "coeffs-rank", "coeffs-shape", "no-coeffs", "bool-n", "n-60",
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


def test_main_shares_one_parser(capsys, monkeypatch):
    # main builds its parser once per process, so a parse must leave nothing
    # behind: each call gives the exit code and bytes of a fresh parser
    from toruskit import cli
    monkeypatch.delenv("TORUSKIT_SEED", raising=False)
    calls = (["no-such-command"], ["sample-torus", "--kind", "metric", "--seed", "5"],
             ["sample-torus", "--kind", "metric"])

    def call(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    cli.build_parser.cache_clear()
    shared = [call(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(call(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 0]
    assert [json.loads(out)["seed"] for _, out, _ in shared[1:]] == [5, 0]
    assert cli.build_parser() is cli.build_parser()


def test_out_flag(tmp_path, capsys):
    target = str(tmp_path / "out.json")
    code, out = run(["sample-torus", "--seed", "1", "--out", target], capsys)
    assert code == 0 and out == ""
    serialize.decode(json.loads(open(target).read()))


# Refuses every scipy module: installed first on sys.meta_path, so a package
# that imported scipy anywhere would fail with ModuleNotFoundError.
_NO_SCIPY = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split('.')[0] == 'scipy':
            raise ModuleNotFoundError(f'{name} is refused')
sys.meta_path.insert(0, NoScipy())
from toruskit import cli
got = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    got.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps([got, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))
"""


def test_every_subcommand_runs_without_scipy(tmp_path, capsys):
    # The runtime is numpy only: with scipy refused, `import toruskit` and
    # every subcommand of the benchmark's cli cycle give the exit code and
    # stdout they give here, where scipy can be imported.
    import hashlib
    import subprocess
    import sys
    from conftest import general_position_pair
    from toruskit.bundles import Character, ExtClass, GradedFlatBundle
    from toruskit.twistor import random_transversal_pair, twistor_point
    g = tk.identity_metric(6)
    a, b = random_transversal_pair(g, 4)
    c = twistor_point(tk.random_structure(g, 9), g)
    ci, cj = general_position_pair(3)
    ch = Character.trivial(6)
    nu = ExtClass(bundle=GradedFlatBundle(blocks=((ch, 1), (ch, 1))),
                  forms={(1, 0): np.full((3, 1, 1), 0.5 + 0.25j)})
    f = {name: write(tmp_path, f"{name}.json", doc) for name, doc in {
        "float": serialize.encode_torus(tk.random_torus(3, 5)),
        "rational": serialize.encode_torus(tk.make_torus(t0_periods())),
        "mv": serialize.encode_multivector(tk.MultiVector.basis_element(6, 0, 3)),
        "ci": serialize.encode_structure(ci), "cj": serialize.encode_structure(cj),
        "i": serialize.encode_structure(a.structure()),
        "j": serialize.encode_structure(b.structure()),
        "l": serialize.encode_structure(c.structure()),
        "g": serialize.encode_metric(g), "w": [[1.0, 0], [0, 1], [0.5, -0.5]],
        "ext": serialize.encode_ext_class(nu), "theta": _fourier_doc()}.items()}
    argvs = [
        ["sample-torus", "--kind", "structure", "--seed", "3"],
        ["check-generic", "--in", f["float"], "--seed", "3"],
        ["check-generic", "--in", f["rational"]],
        ["hodge-type", "--in", f["mv"], "--torus", f["float"]],
        ["connect", "--i", f["ci"], "--j", f["cj"], "--seed", "7"],
        ["section", "--i", f["i"], "--j", f["j"], "--metric", f["g"],
         "--wi", f["w"], "--wj", f["w"]],
        ["transport", "--i", f["i"], "--l", f["l"], "--lp", f["j"],
         "--metric", f["g"], "--t", f["w"]],
        ["bundle-extend", "--ext", f["ext"], "--i", f["i"], "--j", f["j"],
         "--l", f["l"], "--metric", f["g"]],
        ["massey", "--in", f["theta"]],
        ["curvature-scan", "--count", "20", "--seed", "3"],
    ]
    want = []
    for argv in argvs:
        code, out = run(argv, capsys)
        want.append([code, hashlib.sha256(out.encode()).hexdigest()])
    assert [code for code, _ in want] == [0, 20, 10, 10, 0, 0, 0, 0, 0, 0]
    src = os.path.dirname(os.path.dirname(tk.__file__))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, json.dumps(argvs)],
                          env=dict(os.environ, PYTHONPATH=src), check=True,
                          capture_output=True, text=True, timeout=120)
    assert json.loads(proc.stdout) == [want, []]


_DELETE = object()


def _set(path, value):
    """An edit that sets doc[path[0]][path[1]]... to value, or deletes the
    entry for _DELETE."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        if value is _DELETE:
            del doc[path[-1]]
        else:
            doc[path[-1]] = value
    return edit


def _wrap_in_array(doc):
    return [doc]


def _unknown_backend(doc):
    # float periods, which a decoder that read any backend but "rational" as
    # f64 would accept
    doc.update(backend="f32",
               periods=serialize.complex_array(tk.make_torus(t0_periods()).periods))


def _form_key(key):
    def edit(doc):
        doc["forms"][key] = doc["forms"].pop("2,1")
    return edit


def _both_phases_nan(doc):
    for block in doc["blocks"]:
        block["phases"][0] = float("nan")
    doc["forms"] = {}


# (subcommand, edit of its main document, text the error must contain). Each
# edit makes a document that a lax decoder crashes on or silently repairs.
_BAD_INPUT = [
    ("check-generic", _set(["periods", 0, 3], ["1/0", "0"]), "torus periods[0][3]"),
    ("check-generic", _set(["periods", 0, 3], 1),
     "torus periods[0][3] must be an [re, im] pair"),
    ("check-generic", _set(["periods", 0, 3], [float("inf"), "0"]),
     "torus periods[0][3]"),
    ("check-generic", _set(["periods", 0, 3], [True, "0"]), "torus periods[0][3]"),
    ("check-generic", _set(["periods"], None),
     "torus periods must be a non-empty list"),
    ("check-generic", _unknown_backend, "torus key 'backend'"),
    ("check-generic", _wrap_in_array, "the torus document must be a JSON object"),
    ("connect", _set(["j_exact", 0, 3], None), "structure j_exact[0][3]"),
    ("connect", _set(["j_exact", 0, 3], "1/0"), "structure j_exact[0][3]"),
    ("connect", lambda doc: doc["j"][0].__setitem__(3, doc["j"][0][3] + 0.5),
     "structure key 'j' differs from float(j_exact)"),
    ("connect", _set(["j_exact"], _DELETE), "'j_exact' must be present exactly"),
    ("connect", _set(["backend"], "f64"), "'j_exact' must be present exactly"),
    ("connect", _wrap_in_array, "the structure document must be a JSON object"),
    ("bundle-extend", _set(["blocks"], 3), "ext_class key 'blocks' must be a list"),
    ("bundle-extend", _set(["blocks", 0, "phases"], None),
     "ext_class blocks[0] 'phases'"),
    ("bundle-extend", _set(["blocks", 0, "phases", 2], True),
     "ext_class blocks[0] 'phases'"),
    ("bundle-extend", _both_phases_nan, "ext_class blocks[0] 'phases'"),
    ("bundle-extend", _set(["blocks", 1, "rank"], 1.5), "ext_class blocks[1] 'rank'"),
    ("bundle-extend", _set(["blocks", 1, "rank"], True), "ext_class blocks[1] 'rank'"),
    ("bundle-extend", _wrap_in_array, "the ext_class document must be"),
    ("hodge-type", _wrap_in_array, "the multivector document must be"),
    ("section", _wrap_in_array, "the metric document must be"),
    ("massey", _wrap_in_array, "the fourier_form document must be"),
    *[("bundle-extend", _form_key(key), f"ext_class forms key {key!r} is not")
      for key in _LAX_FORM_KEYS],
    ("section", _set(["g"], [["1", "0"], [0, True]]),
     "metric g[0][0] must be a finite number, got '1'"),
    ("section", _set(["g"], _DELETE), "metric key 'g' is missing"),
]


def _command_files(tmp_path, command, edit):
    """argv of a valid run of `command`, with `edit` applied to its main
    document (the torus, the structure, the ext class, the multivector, the
    metric or the Fourier form)."""
    from toruskit.bundles import Character, ExtClass, GradedFlatBundle
    from toruskit.twistor import random_transversal_pair
    g = tk.identity_metric(6)
    a, b = random_transversal_pair(g, 12)
    i = write(tmp_path, "i.json", serialize.encode_structure(a.structure()))
    j = write(tmp_path, "j.json", serialize.encode_structure(b.structure()))
    ch = Character.trivial(6)
    nu = ExtClass(bundle=GradedFlatBundle(blocks=((ch, 1), (ch, 1))),
                  forms={(1, 0): np.full((3, 1, 1), 0.5 + 0.25j)})
    rational = tk.random_torus(3, 2, backend="rational")
    docs = {
        "check-generic": serialize.encode_torus(rational),
        "connect": serialize.encode_structure(rational.induced_structure()),
        "bundle-extend": serialize.encode_ext_class(nu),
        "hodge-type": serialize.encode_multivector(
            tk.MultiVector.basis_element(6, 0, 3)),
        "section": serialize.encode_metric(g),
        "massey": _fourier_doc(),
    }
    doc = docs[command]
    main_doc = write(tmp_path, "main.json", edit(doc) or doc)
    wi = write(tmp_path, "wi.json", [[1.0, 0], [0, 1], [0, 0]])
    t0 = write(tmp_path, "t0.json", serialize.encode_torus(tk.make_torus(t0_periods())))
    return {
        "check-generic": ["check-generic", "--in", main_doc],
        "connect": ["connect", "--i", main_doc, "--j", main_doc],
        "bundle-extend": ["bundle-extend", "--ext", main_doc, "--i", i, "--j", j,
                          "--l", i, "--metric",
                          write(tmp_path, "g.json", serialize.encode_metric(g))],
        "hodge-type": ["hodge-type", "--in", main_doc, "--torus", t0],
        "section": ["section", "--i", i, "--j", j, "--metric", main_doc,
                    "--wi", wi, "--wj", wi],
        "massey": ["massey", "--in", main_doc],
    }[command]


@pytest.mark.parametrize("command,edit,message", _BAD_INPUT,
                         ids=[f"{c}-{k}" for k, (c, _, _) in enumerate(_BAD_INPUT)])
def test_malformed_documents_exit_2(tmp_path, capsys, command, edit, message):
    assert main(_command_files(tmp_path, command, lambda doc: None)) in (0, 10, 20)
    capsys.readouterr()
    assert main(_command_files(tmp_path, command, edit)) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad input: ") and message in err


def test_hodge_type_checks_dim_before_building_coefficients(tmp_path, t0_file,
                                                            capsys, monkeypatch):
    from toruskit import hodge
    built = []
    real = hodge.basis_subsets

    def spy(dim, degree):
        built.append(dim)
        if dim > 6:
            raise MemoryError(f"C({dim}, {degree}) coefficients")
        return real(dim, degree)

    monkeypatch.setattr(hodge, "basis_subsets", spy)
    path = write(tmp_path, "w.json", {"type": "multivector", "dim": 10 ** 9,
                                      "degree": 2, "terms": []})
    assert main(["hodge-type", "--in", path, "--torus", t0_file]) == 2
    assert ("multivector of dim 1000000000 does not match the structure of dim 6"
            in capsys.readouterr().err)
    assert 10 ** 9 not in built


# One valid document per decoder (two backends for torus and structure) and
# the subcommand that reads it, for the fuzz test below. No subcommand reads
# a chain document, and "vector" is a section vector read by parse_complex.
_FUZZ_KINDS = ("torus", "torus-rational", "metric", "structure",
               "structure-rational", "multivector", "chain", "ext_class",
               "fourier_form", "vector")
# top-level keys the fuzz leaves alone: "type" picks the decoder and
# "backend" is a string
_UNREAD = {"type", "backend"}
# keys a document may leave out, so the fuzz does not drop them
_OPTIONAL = {"value_shape", "seed", "cond"}
_DROP = object()


def _fuzz_setup(tmp_path):
    from toruskit.bundles import Character, ExtClass, GradedFlatBundle
    from toruskit.twistor import random_transversal_pair
    g = tk.identity_metric(6)
    a, b = random_transversal_pair(g, 12)
    rational = tk.random_torus(3, 2, backend="rational")
    nu = ExtClass(bundle=GradedFlatBundle(blocks=((Character.trivial(6), 1),) * 2),
                  forms={(1, 0): np.full((3, 1, 1), 0.5 + 0.25j)})
    one_hop = tk.connect(tk.random_structure(g, 1), tk.random_structure(g, 2),
                         tk.ConnectOptions(seed=0))
    docs = {
        "torus": serialize.encode_torus(tk.random_torus(3, 77)),
        "torus-rational": serialize.encode_torus(rational),
        "metric": serialize.encode_metric(g),
        "structure": serialize.encode_structure(a.structure()),
        "structure-rational": serialize.encode_structure(rational.induced_structure()),
        "multivector": serialize.encode_multivector(tk.MultiVector.from_terms(
            6, 2, {(0, 3): 2.5 - 1j, (1, 4): 3.0})),
        "chain": serialize.encode_chain(one_hop),
        "ext_class": serialize.encode_ext_class(nu),
        "fourier_form": _fourier_doc(),
        "vector": [[1.0, 0], [0, 1], [0, 0]],
    }
    for kind in _FUZZ_KINDS[:-1]:  # as the CLI writes them, with the seed used
        docs[kind]["seed"] = 5
    i = write(tmp_path, "i.json", docs["structure"])
    j = write(tmp_path, "j.json", serialize.encode_structure(b.structure()))
    gp = write(tmp_path, "g.json", docs["metric"])
    w = write(tmp_path, "w.json", docs["vector"])
    t0 = write(tmp_path, "t0.json", serialize.encode_torus(tk.make_torus(t0_periods())))
    torus = ["check-generic", "--in"]
    structure = ["connect", "--j", j, "--i"]
    argv = {
        "torus": torus, "torus-rational": torus,
        "metric": ["section", "--i", i, "--j", j, "--wi", w, "--wj", w, "--metric"],
        "structure": structure, "structure-rational": structure,
        "multivector": ["hodge-type", "--torus", t0, "--in"],
        "chain": None,
        "ext_class": ["bundle-extend", "--i", i, "--j", j, "--l", i, "--metric", gp,
                      "--ext"],
        "fourier_form": ["massey", "--in"],
        "vector": ["section", "--i", i, "--j", j, "--metric", gp, "--wj", w, "--wi"],
    }
    return docs, argv


def _entry_name(kind, path):
    """The name a decoder error gives the entry at `path` of a `kind`
    document: top-level keys bare, keys inside entries quoted, forms keys and
    list indices in brackets, and a number inside an [re, im] pair named by
    its pair."""
    if path and (kind == "vector" or {"periods", "coeffs", "forms"} & set(path)):
        path = path[:-1] if isinstance(path[-1], int) else path
    name = "w" if kind == "vector" else kind.split("-")[0]
    for depth, key in enumerate(path):
        if isinstance(key, int):
            name += f"[{key}]"
        elif depth and path[depth - 1] == "forms":
            name += f"[{key!r}]"
        else:
            name += f" {key}" if depth == 0 else f" {key!r}"
    return name


def _fuzz_cases(kind, doc):
    """(path, value, message) triples: each number of `doc` replaced by a
    numeric string, true, null, NaN or a one-entry list, and each key
    dropped, with the text the error must contain."""
    from fractions import Fraction
    cases = []

    def visit(x, path):
        if isinstance(x, dict):
            for key, v in x.items():
                if path or key not in _UNREAD:
                    missing = f"{_entry_name(kind, path)} key {key!r} is missing"
                    if key == "j_exact":
                        missing = "'j_exact' must be present exactly"
                    if key not in _OPTIONAL and path != ("forms",):
                        cases.append((path + (key,), _DROP, missing))
                    visit(v, path + (key,))
        elif isinstance(x, list):
            for k, v in enumerate(x):
                visit(v, path + (k,))
        else:
            name = _entry_name(kind, path)
            for value in (repr(float(Fraction(x))), True, None, float("nan"), [x]):
                cases.append((path, value, name + " must be"))

    visit(doc, ())
    return cases


def _mutate(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_fuzz_every_decoder_names_the_entry(tmp_path):
    # One numeric leaf replaced by a string, a bool, null, NaN or a list, or
    # one required key dropped: serialize raises ValueError naming the entry
    # or key, and the subcommand that reads the document exits 2.
    import contextlib
    import io

    from hypothesis import example, given, settings
    from hypothesis import strategies as st
    docs, argv = _fuzz_setup(tmp_path)
    cases = {kind: _fuzz_cases(kind, docs[kind]) for kind in _FUZZ_KINDS}
    path = tmp_path / "doc.json"

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.sampled_from(_FUZZ_KINDS).flatmap(
        lambda kind: st.tuples(st.just(kind), st.sampled_from(cases[kind]))))
    @example(("torus", (("seed",), "5.0", "torus seed must be")))
    @example(("structure", (("seed",), True, "structure seed must be")))
    @example(("torus", (("cond",), [1.5], "torus cond must be")))
    def check(case):
        kind, (where, value, message) = case
        doc = _mutate(docs[kind], where, value)
        with pytest.raises(ValueError) as err:
            if kind == "vector":
                serialize.parse_complex(doc, "w", 1)
            else:
                serialize.decode(doc)
        assert message in str(err.value), (kind, where, value)
        if argv[kind] is not None:
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main([*argv[kind], str(path)]) == 2, (kind, where, value)

    check()


# Relations between two entries, which a draft-07 schema cannot state; the
# decoder alone rejects a document that breaks one.
_CROSS_ENTRY = ("structure key 'j' differs from float(j_exact)",
                "torus n must be 3, the number of period rows, got 5",
                "chain hops must be 0, one per metric, got 4")


def _differential_corpus(tmp_path):
    """(schema, document, message) triples. message is one of _CROSS_ENTRY
    for a document only the decoder can reject, and None otherwise."""
    docs, _ = _fuzz_setup(tmp_path)
    corpus = []
    for kind in _FUZZ_KINDS[:-1]:  # every kind but the bare section vector
        schema = kind.split("-")[0]
        corpus.append((schema, docs[kind], None))
        corpus += [(schema, _mutate(docs[kind], where, value), None)
                   for where, value, _ in _fuzz_cases(kind, docs[kind])]
    schema_of = {"check-generic": "torus", "connect": "structure", "section": "metric"}
    for command, edit, message in _BAD_INPUT:
        if command in schema_of:
            _command_files(tmp_path, command, edit)
            doc = json.loads((tmp_path / "main.json").read_text())
            corpus.append((schema_of[command], doc,
                           message if message in _CROSS_ENTRY else None))
    torus, chain = docs["torus"], docs["chain"]
    no_key = lambda doc, key: {k: v for k, v in doc.items() if k != key}  # noqa: E731
    periods = json.loads(json.dumps(torus["periods"]))
    periods[0][0] = ["1", "0"]
    corpus += [
        ("torus", dict(torus, periods=periods), None),
        ("torus", dict(torus, n=5), _CROSS_ENTRY[1]),
        ("torus", no_key(torus, "n"), None),
        ("torus", no_key(torus, "backend"), None),
        ("chain", dict(chain, hops=4, structures=chain["structures"][:1], metrics=[]),
         _CROSS_ENTRY[2]),
        ("chain", no_key(chain, "residual"), None),
        ("fourier_form", dict(docs["fourier_form"], n=60), None),
        ("multivector", dict(docs["multivector"], dim=60), None),
    ]
    return corpus


def test_schemas_accept_exactly_what_the_decoders_accept(tmp_path):
    import jsonschema
    validators = {}
    for schema in ("torus", "metric", "structure", "multivector", "chain",
                   "ext_class", "fourier_form"):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                            "schemas", f"{schema}.schema.json")
        with open(path, encoding="utf-8") as fh:
            validators[schema] = jsonschema.Draft7Validator(json.load(fh))
    checked = 0
    for schema, doc, cross_entry in _differential_corpus(tmp_path):
        try:
            json.dumps(doc, allow_nan=False)
        except ValueError:
            continue  # NaN and infinity are not JSON, so no schema can rule on them
        try:
            serialize.decode(doc)
            error = None
        except ValueError as err:
            error = str(err)
        accepted = validators[schema].is_valid(doc)
        if cross_entry is None:
            assert accepted == (error is None), (schema, doc, error)
        else:
            assert accepted and error == cross_entry, (schema, error)
        checked += 1
    assert checked > 1000


def _determinism_argv(tmp_path, command):
    from toruskit.twistor import random_transversal_pair
    if command.startswith("sample-torus"):
        return ["sample-torus", "--kind", command.split(":")[1]]
    if command == "curvature-scan":
        return ["curvature-scan", "--count", "20"]
    g = tk.identity_metric(6)
    if command == "connect":  # a 1-hop pair: both structures are g-compatible
        return ["connect",
                "--i", write(tmp_path, "ci.json", serialize.encode_structure(
                    tk.random_structure(g, 1))),
                "--j", write(tmp_path, "cj.json", serialize.encode_structure(
                    tk.random_structure(g, 2)))]
    if command == "transport":
        a, b = random_transversal_pair(g, 8)
        pi = write(tmp_path, "i.json", serialize.encode_structure(a.structure()))
        pl = write(tmp_path, "l.json", serialize.encode_structure(b.structure()))
        return ["transport", "--i", pi, "--l", pl, "--lp", pl,
                "--metric", write(tmp_path, "g.json", serialize.encode_metric(g)),
                "--t", write(tmp_path, "t.json", [[0.3, 0], [0, -0.2], [1, 0]])]
    return _command_files(tmp_path, command, lambda doc: None)


@pytest.mark.parametrize("command", [
    "sample-torus:torus", "sample-torus:structure", "sample-torus:metric",
    "sample-torus:ext-class", "check-generic", "hodge-type", "section",
    "transport", "bundle-extend", "massey", "curvature-scan", "connect"])
def test_subcommand_reruns_are_byte_identical(tmp_path, capsys, command):
    argv = [*_determinism_argv(tmp_path, command), "--seed", "3"]
    first, second = run(argv, capsys), run(argv, capsys)
    assert first == second
    assert first[0] in (0, 10, 20) and first[1]
    if command == "connect":
        assert json.loads(first[1])["hops"] == 1
