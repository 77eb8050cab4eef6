"""JSON encoding of the public value types.

Matrix conventions: real matrices are row-major arrays of numbers, complex
matrices row-major arrays of [re, im] pairs. The rational backend serializes
entries as "p/q" strings instead of numbers. Every document carries a
"backend" field where the distinction matters. MultiVector indices and
ExtClass block keys are 1-based on the wire.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from . import exact
from .bundles import Character, ExtClass, GradedFlatBundle
from .hodge import GenericityReport, MultiVector
from .linalg import frob
from .moduli import Chain, verify_chain
from .torus import ComplexStructure, IsotropicFrame, MarkedTorus, Metric, make_torus


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


def real_matrix(m) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def complex_matrix(m) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def rational_matrix(m) -> list:
    out = []
    for row in m:
        out.append([[str(exact.QI.coerce(x).re), str(exact.QI.coerce(x).im)]
                    for x in row])
    return out


def parse_real_matrix(doc) -> np.ndarray:
    return np.asarray(doc, dtype=float)


def parse_complex_matrix(doc) -> np.ndarray:
    a = np.asarray(doc, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def parse_rational_matrix(doc) -> np.ndarray:
    rows = []
    for row in doc:
        rows.append([exact.QI(Fraction(re), Fraction(im)) for re, im in row])
    return np.array(rows, dtype=object)


def encode_torus(t: MarkedTorus) -> dict:
    doc = {"type": "torus", "backend": t.backend, "n": t.n, "cond": t.cond}
    if t.backend == "rational":
        doc["periods"] = rational_matrix(t.periods_exact)
    else:
        doc["periods"] = complex_matrix(t.periods)
    return doc


def decode_torus(doc: dict) -> MarkedTorus:
    if doc.get("backend") == "rational":
        return make_torus(parse_rational_matrix(doc["periods"]))
    return make_torus(parse_complex_matrix(doc["periods"]))


def encode_metric(m: Metric) -> dict:
    return {"type": "metric", "backend": "f64", "g": real_matrix(m.g)}


def _square_matrix(doc, name: str) -> np.ndarray:
    """A finite, non-empty, square real matrix; errors name it as `name`."""
    try:
        m = parse_real_matrix(doc)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not a matrix of numbers") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _parse_metric(doc, name: str) -> Metric:
    """Metric from a document matrix, which must be finite, square and
    symmetric. A document is rejected, never repaired; the symmetrization
    inside Metric is for matrices computed in the library."""
    g = _square_matrix(doc, name)
    if frob(g - g.T) > 1e-12 * frob(g):
        raise ValueError(f"{name} is not symmetric")
    try:
        return Metric(g)
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from None


def decode_metric(doc: dict) -> Metric:
    return _parse_metric(doc["g"], "metric key 'g'")


def encode_structure(j: ComplexStructure) -> dict:
    doc = {"type": "structure", "backend": j.backend, "j": real_matrix(j.j)}
    if j.backend == "rational" and j.j_exact is not None:
        doc["j_exact"] = [[str(Fraction(x)) for x in row] for row in j.j_exact]
    return doc


def decode_structure(doc: dict) -> ComplexStructure:
    if doc.get("backend") == "rational" and "j_exact" in doc:
        jx = np.array([[Fraction(x) for x in row] for row in doc["j_exact"]],
                      dtype=object)
        jf = np.array([[float(x) for x in row] for row in jx], dtype=float)
        return ComplexStructure(j=jf, backend="rational", j_exact=jx)
    return ComplexStructure(parse_real_matrix(doc["j"]))


def encode_frame(f: IsotropicFrame) -> dict:
    doc = {"type": "frame", "backend": f.backend, "tag": f.tag,
           "basis": complex_matrix(f.basis)}
    if f.backend == "rational" and f.basis_exact is not None:
        doc["basis_exact"] = rational_matrix(f.basis_exact)
    return doc


def decode_frame(doc: dict) -> IsotropicFrame:
    if doc.get("backend") == "rational" and "basis_exact" in doc:
        bx = parse_rational_matrix(doc["basis_exact"])
        return IsotropicFrame(basis=exact.to_complex(bx), backend="rational",
                              basis_exact=bx)
    return IsotropicFrame(basis=parse_complex_matrix(doc["basis"]),
                          tag=doc.get("tag", "v01"))


def encode_twistor_point(p) -> dict:
    return {"type": "twistor_point", "frame": encode_frame(p.frame),
            "metric": encode_metric(p.metric)}


def decode_twistor_point(doc: dict):
    from .twistor import TwistorPoint
    return TwistorPoint(frame=decode_frame(doc["frame"]),
                        metric=decode_metric(doc["metric"]))


def complex_vector(v) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, complex)]


def parse_complex_vector(doc, name: str) -> np.ndarray:
    """A finite (k, 2) array of [re, im] pairs as a complex k-vector."""
    try:
        a = np.asarray(doc, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.ndim != 2 or a.shape[1] != 2 or not np.all(np.isfinite(a)):
        raise ValueError(f"{name} is not a list of finite [re, im] pairs")
    return a[:, 0] + 1j * a[:, 1]


def encode_section_vector(s) -> dict:
    return {"type": "section_vector", "v": complex_vector(s.v)}


def decode_section_vector(doc: dict):
    from .twistor import SectionVector
    return SectionVector(v=parse_complex_vector(doc["v"], "v"))


def encode_fiber_value(f) -> dict:
    return {"type": "fiber_value", "w": complex_vector(f.w),
            "at": encode_twistor_point(f.at)}


def decode_fiber_value(doc: dict):
    from .twistor import FiberValue
    return FiberValue(w=parse_complex_vector(doc["w"], "w"),
                      at=decode_twistor_point(doc["at"]))


def encode_multivector(w: MultiVector) -> dict:
    terms = []
    wf = w.to_float()
    for subset, c in wf.terms():
        terms.append({"indices": [i + 1 for i in subset],
                      "re": float(c.real), "im": float(c.imag)})
    return {"type": "multivector", "degree": w.degree, "dim": w.dim,
            "terms": terms}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def decode_multivector(doc: dict) -> MultiVector:
    """MultiVector from its document. dim and degree are integers with
    dim >= 2 and 0 <= degree <= dim. Each term has degree strictly increasing
    1-based indices in 1..dim and finite numbers 're' and 'im', and no index
    set occurs twice. An error names the entry as terms[k]."""
    dim, degree, terms = doc["dim"], doc["degree"], doc["terms"]
    if not (_is_int(dim) and dim >= 2):
        raise ValueError(f"multivector dim must be an integer >= 2, got {dim!r}")
    if not (_is_int(degree) and 0 <= degree <= dim):
        raise ValueError(f"multivector degree must be an integer in 0..{dim}, "
                         f"got {degree!r}")
    if not isinstance(terms, list):
        raise ValueError("multivector key 'terms' must be a list")
    coeffs = {}
    for k, t in enumerate(terms):
        name = f"multivector terms[{k}]"
        if not (isinstance(t, dict) and {"indices", "re", "im"} <= t.keys()):
            raise ValueError(f"{name} must be an object with keys 'indices', "
                             "'re' and 'im'")
        idx = t["indices"]
        if not (isinstance(idx, list) and len(idx) == degree
                and all(_is_int(i) and 1 <= i <= dim for i in idx)
                and all(a < b for a, b in zip(idx, idx[1:]))):
            raise ValueError(f"{name} indices must be {degree} strictly "
                             f"increasing 1-based indices in 1..{dim}, "
                             f"got {idx!r}")
        for part in ("re", "im"):
            if not _is_finite_number(t[part]):
                raise ValueError(f"{name} {part!r} must be a finite number, "
                                 f"got {t[part]!r}")
        subset = tuple(i - 1 for i in idx)
        if subset in coeffs:
            raise ValueError(f"{name} repeats the indices {idx!r}")
        coeffs[subset] = complex(t["re"], t["im"])
    return MultiVector.from_terms(dim, degree, coeffs)


def encode_genericity(report: GenericityReport) -> dict:
    doc = {"type": "genericity_report", "verdict": report.verdict,
           "mode": report.mode, "bound": report.bound,
           "subtorus": None, "pp_class": None}
    if report.subtorus is not None:
        basis, ell = report.subtorus
        doc["subtorus"] = {"basis": [[int(x) for x in row] for row in basis],
                           "l": int(ell)}
    if report.pp_class is not None:
        p, w = report.pp_class
        doc["pp_class"] = {"p": int(p), "multivector": encode_multivector(w)}
    return doc


def encode_chain(chain: Chain) -> dict:
    report = verify_chain(chain)
    return {"type": "chain", "hops": chain.hops,
            "residual": report.max_residual,
            "structures": [real_matrix(s.j) for s in chain.structures],
            "metrics": [real_matrix(m.g) for m in chain.metrics]}


def decode_chain(doc: dict) -> Chain:
    """Chain from its document. Each structure must be a finite square
    matrix and each hop metric passes decode_metric's checks; an error names
    the entry as structures[k] or metrics[k]."""
    for key in ("structures", "metrics"):
        if not isinstance(doc[key], list):
            raise ValueError(f"chain key {key!r} must be a list")
    structures = []
    for k, m in enumerate(doc["structures"]):
        name = f"chain structures[{k}]"
        j = _square_matrix(m, name)
        try:
            structures.append(ComplexStructure(j))
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from None
    metrics = tuple(_parse_metric(m, f"chain metrics[{k}]")
                    for k, m in enumerate(doc["metrics"]))
    return Chain(structures=tuple(structures), metrics=metrics)


def encode_ext_class(nu: ExtClass) -> dict:
    blocks = [{"phases": [float(p) for p in ch.phases], "rank": r}
              for ch, r in nu.bundle.blocks]
    forms = {}
    for (i, j), arr in nu.forms.items():
        forms[f"{i + 1},{j + 1}"] = [complex_matrix(arr[a]) for a in range(arr.shape[0])]
    return {"type": "ext_class", "blocks": blocks, "forms": forms}


def decode_ext_class(doc: dict) -> ExtClass:
    bundle = GradedFlatBundle(blocks=tuple(
        (Character(tuple(b["phases"])), int(b["rank"])) for b in doc["blocks"]))
    if not isinstance(doc["forms"], dict):
        raise ValueError("ext_class key 'forms' must map \"i,j\" block keys "
                         "to lists of complex matrices")
    forms = {}
    for key, mats in doc["forms"].items():
        try:
            i, j = (int(x) for x in key.split(","))
        except ValueError:
            raise ValueError(f"forms key {key!r} is not \"i,j\"") from None
        if not (1 <= i <= len(bundle.blocks) and 1 <= j <= len(bundle.blocks)):
            raise ValueError(f"forms key {key!r} is not a pair of 1-based block "
                             f"indices up to {len(bundle.blocks)}")
        try:
            forms[(i - 1, j - 1)] = np.stack([parse_complex_matrix(m) for m in mats])
        except (IndexError, TypeError, ValueError):
            raise ValueError(f"forms[{key!r}] is not a non-empty list of complex "
                             "matrices of one shape") from None
    return ExtClass(bundle=bundle, forms=forms)


def encode_fourier_form(form) -> dict:
    modes = []
    for m, c in sorted(form.modes.items()):
        modes.append({"m": list(m),
                      "coeffs": _nested_complex(c)})
    return {"type": "fourier_form", "n": form.space.n,
            "mode_bound": form.space.mode_bound, "q": form.q,
            "value_shape": list(form.extra), "modes": modes}


def _nested_complex(arr: np.ndarray):
    if arr.ndim == 0:
        return [float(arr.real), float(arr.imag)]
    return [_nested_complex(x) for x in arr]


def _parse_nested_complex(doc) -> np.ndarray:
    a = np.asarray(doc, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def decode_fourier_form(doc: dict, space=None):
    from .fourier import FourierForm, FourierFormSpace
    if space is None:
        space = FourierFormSpace(doc["n"], doc["mode_bound"])
    extra = tuple(doc.get("value_shape", []))
    modes = {tuple(m["m"]): _parse_nested_complex(m["coeffs"])
             for m in doc["modes"]}
    return FourierForm(space, doc["q"], modes, extra=extra)


_DECODERS = {
    "torus": decode_torus,
    "metric": decode_metric,
    "structure": decode_structure,
    "frame": decode_frame,
    "twistor_point": decode_twistor_point,
    "section_vector": decode_section_vector,
    "fiber_value": decode_fiber_value,
    "multivector": decode_multivector,
    "chain": decode_chain,
    "ext_class": decode_ext_class,
    "fourier_form": decode_fourier_form,
}


def decode(doc: dict):
    kind = doc.get("type")
    if kind not in _DECODERS:
        raise ValueError(f"unknown or missing document type: {kind!r}")
    return _DECODERS[kind](doc)
