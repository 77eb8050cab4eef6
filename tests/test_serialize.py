import json

import numpy as np
import pytest

import toruskit as tk
from toruskit import hodge, serialize
from toruskit.bundles import Character, ExtClass, GradedFlatBundle
from toruskit.fourier import FourierForm, FourierFormSpace

from conftest import general_position_pair, t0_exact, t0_periods


def roundtrip(doc):
    return serialize.decode(json.loads(serialize.dumps(doc)))


def test_torus_roundtrip_float():
    t = tk.make_torus(t0_periods())
    back = roundtrip(serialize.encode_torus(t))
    assert back.backend == "f64"
    assert np.abs(back.periods - t.periods).max() == 0


def test_torus_roundtrip_rational():
    t = t0_exact()
    back = roundtrip(serialize.encode_torus(t))
    assert back.backend == "rational"
    assert np.array_equal(back.induced_structure().j, t.induced_structure().j)


def test_metric_structure_roundtrip(idm6):
    j = tk.random_structure(idm6, 3)
    assert np.abs(roundtrip(serialize.encode_structure(j)).j - j.j).max() == 0
    g = tk.Metric(np.diag([1.0, 2, 3, 1, 2, 3]))
    assert np.abs(roundtrip(serialize.encode_metric(g)).g - g.g).max() == 0


def test_exact_structure_roundtrip():
    j = t0_exact().induced_structure()
    back = roundtrip(serialize.encode_structure(j))
    assert back.backend == "rational"
    assert all(back.j_exact[i, k] == j.j_exact[i, k]
               for i in range(6) for k in range(6))


def test_multivector_roundtrip():
    w = tk.MultiVector.from_terms(6, 2, {(0, 3): 2.5 - 1j, (1, 4): 3.0})
    back = roundtrip(serialize.encode_multivector(w))
    assert np.abs(back.coeffs - w.coeffs).max() == 0
    doc = serialize.encode_multivector(w)
    assert all(min(t["indices"]) >= 1 for t in doc["terms"])  # 1-based wire


def test_chain_roundtrip(idm6):
    i = tk.random_structure(idm6, 1)
    j = tk.random_structure(idm6, 2)
    chain = tk.connect(i, j, tk.ConnectOptions(seed=0))
    doc = serialize.encode_chain(chain)
    back = roundtrip(doc)
    assert back.hops == chain.hops
    assert tk.verify_chain(back).ok
    assert doc["residual"] < 1e-8


def _chain_doc():
    i, j = general_position_pair(3)
    return serialize.encode_chain(tk.connect(i, j, tk.ConnectOptions(seed=7)))


def test_chain_roundtrip_connect_output():
    doc = _chain_doc()
    back = roundtrip(doc)
    assert doc["hops"] == 3 and back.hops == 3
    assert serialize.dumps(serialize.encode_chain(back)) == serialize.dumps(doc)


@pytest.mark.parametrize("g", [[[1.0, 5.0], [-5.0, 1.0]],
                               [[1.0, 0.0], [0.0, float("nan")]]])
def test_chain_rejects_malformed_hop_metric(g):
    # the antisymmetric part of [[1, 5], [-5, 1]] would be dropped by Metric,
    # leaving the identity, which verify_chain accepts
    doc = _chain_doc()
    doc["metrics"][1] = g
    with pytest.raises(ValueError, match=r"metrics\[1\]"):
        serialize.decode(doc)


@pytest.mark.parametrize("entry", [float("nan"), float("inf")])
def test_chain_rejects_non_finite_structure(entry):
    doc = _chain_doc()
    doc["structures"][2][0][3] = entry
    with pytest.raises(ValueError, match=r"structures\[2\] has non-finite"):
        serialize.decode(doc)


def test_ext_class_roundtrip():
    ch = Character(phases=(0.25, 0, 0.5, 0, 0, 0))
    bundle = GradedFlatBundle(blocks=((ch, 1), (ch, 2)))
    rng = np.random.default_rng(0)
    nu = ExtClass(bundle=bundle,
                  forms={(1, 0): rng.standard_normal((3, 1, 2))
                         + 1j * rng.standard_normal((3, 1, 2))})
    back = roundtrip(serialize.encode_ext_class(nu))
    assert np.abs(back.forms[(1, 0)] - nu.forms[(1, 0)]).max() == 0
    assert back.bundle.blocks[0][0].phases == ch.phases


def test_fourier_form_roundtrip():
    sp = FourierFormSpace(3, 2)
    rng = np.random.default_rng(1)
    modes = {(1, 0, -1, 0, 2, 0): rng.standard_normal((3, 2, 2))
             + 1j * rng.standard_normal((3, 2, 2))}
    form = FourierForm(sp, 1, modes, extra=(2, 2))
    back = roundtrip(serialize.encode_fourier_form(form))
    assert (back - form).norm() == 0


def test_genericity_report_encoding():
    rep = tk.is_generic(t0_exact())
    doc = json.loads(serialize.dumps(serialize.encode_genericity(rep)))
    assert doc["verdict"] == "non_generic"
    assert doc["subtorus"]["l"] == 1
    basis = np.array(doc["subtorus"]["basis"])
    assert hodge.verify_sublattice(t0_exact(), basis) is not None


def test_unknown_type_rejected():
    import pytest
    with pytest.raises(ValueError):
        serialize.decode({"type": "nonsense"})


def _ext_doc(forms):
    ch = Character.trivial(6)
    doc = serialize.encode_ext_class(
        ExtClass(bundle=GradedFlatBundle(blocks=((ch, 1), (ch, 1))), forms={}))
    doc["forms"] = forms
    return doc


def test_ext_class_rejects_forms_list():
    with pytest.raises(ValueError, match="'forms'"):
        serialize.decode(_ext_doc([]))


def test_ext_class_rejects_non_matrix_entry():
    with pytest.raises(ValueError, match="'2,1'"):
        serialize.decode(_ext_doc({"2,1": 5}))


def test_ext_class_rejects_zero_block_index():
    # 1-based on the wire: "1,0" would alias the last block as index -1
    with pytest.raises(ValueError, match="'1,0'"):
        serialize.decode(_ext_doc({"1,0": [[[[1.0, 0.0]]]] * 3}))


@pytest.mark.parametrize("g", [[[1.0, 5.0], [-5.0, 1.0]], [[1.0, 0.0, 0.0]],
                               [[1.0, 0.0], [0.0, float("inf")]], [1.0, 2.0],
                               [[1.0], [2.0, 3.0]]])
def test_metric_rejects_malformed_g(g):
    with pytest.raises(ValueError, match="'g'"):
        serialize.decode({"type": "metric", "backend": "f64", "g": g})


@pytest.mark.parametrize("doc", [[1.0, 2.0], [[1.0, 2.0, 3.0]], [[1.0, float("nan")]],
                                 [[1.0, 0.0], [2.0]], 3.0])
def test_complex_vector_rejects_malformed(doc):
    with pytest.raises(ValueError, match="^w is not"):
        serialize.parse_complex(doc, "w", 1)


def test_complex_vector_roundtrip():
    v = np.array([1.5 - 2j, 0.25j, -3.0])
    back = serialize.parse_complex(serialize.complex_array(v), "v", 1)
    assert back.tobytes() == v.tobytes()
