"""JSON documents of the CLI, one per schema in docs/schemas/: torus,
metric, structure, multivector, chain, ext_class and fourier_form, which
decode() dispatches on their "type", and the genericity report, which is only
written. Section and transport vectors are bare lists of [re, im] pairs.

Matrix conventions: real matrices are row-major arrays of numbers, complex
matrices row-major arrays of [re, im] pairs. The rational backend serializes
entries as "p/q" strings instead of numbers. Every document carries a
"backend" field where the distinction matters. MultiVector indices and
ExtClass block keys are 1-based on the wire.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

from . import exact
from .bundles import Character, ExtClass, GradedFlatBundle
from .hodge import GenericityReport, MultiVector
from .linalg import frob
from .moduli import Chain, verify_chain
from .torus import ComplexStructure, MarkedTorus, Metric, make_torus


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


def real_matrix(m) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def complex_array(a) -> list:
    """Nested lists of [re, im] pairs, one pair per entry of a complex array."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def rational_matrix(m) -> list:
    return [[[str(x.re), str(x.im)] for x in map(exact.QI.coerce, row)] for row in m]


def parse_complex(doc, name: str, ndim: int) -> np.ndarray:
    """A complex array of ndim dimensions from nested lists of finite
    [re, im] pairs; errors name it as `name`."""
    try:
        a = np.asarray(doc, dtype=float)
    except (TypeError, ValueError):
        a = None
    if (a is None or a.ndim != ndim + 1 or a.shape[-1] != 2
            or not np.all(np.isfinite(a))):
        raise ValueError(f"{name} is not a {ndim}-d array of finite [re, im] pairs")
    return a[..., 0] + 1j * a[..., 1]


_FRACTION = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # "p" or "p/q", q > 0


def _fraction(x, name: str) -> Fraction:
    if _is_finite_number(x) or isinstance(x, str) and _FRACTION.fullmatch(x):
        return Fraction(x)
    raise ValueError(f"{name} must be a \"p/q\" string with q > 0 or a finite "
                     f"number, got {x!r}")


def _gaussian(pair, name: str) -> exact.QI:
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError(f"{name} must be an [re, im] pair, got {pair!r}")
    return exact.QI(_fraction(pair[0], name), _fraction(pair[1], name))


def _exact_matrix(doc, name: str, entry) -> np.ndarray:
    """Object matrix from rows of one length; entry(x, "name[r][c]") parses x."""
    if not (isinstance(doc, list) and doc and all(
            isinstance(row, list) and len(row) == len(doc[0]) > 0 for row in doc)):
        raise ValueError(f"{name} must be a non-empty list of rows of one length")
    out = np.empty((len(doc), len(doc[0])), dtype=object)
    for r, c in np.ndindex(out.shape):
        out[r, c] = entry(doc[r][c], f"{name}[{r}][{c}]")
    return out


def _document(doc, kind: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"the {kind} document must be a JSON object")
    return doc


def _is_rational(doc: dict, kind: str) -> bool:
    if doc.get("backend", "f64") not in ("f64", "rational"):
        raise ValueError(f"{kind} key 'backend' must be \"f64\" or \"rational\"")
    return doc.get("backend") == "rational"


def encode_torus(t: MarkedTorus) -> dict:
    doc = {"type": "torus", "backend": t.backend, "n": t.n, "cond": t.cond}
    if t.backend == "rational":
        doc["periods"] = rational_matrix(t.periods_exact)
    else:
        doc["periods"] = complex_array(t.periods)
    return doc


def decode_torus(doc: dict) -> MarkedTorus:
    if _is_rational(_document(doc, "torus"), "torus"):
        return make_torus(_exact_matrix(doc["periods"], "torus periods", _gaussian))
    return make_torus(parse_complex(doc["periods"], "torus key 'periods'", 2))


def encode_metric(m: Metric) -> dict:
    return {"type": "metric", "backend": "f64", "g": real_matrix(m.g)}


def _square_matrix(doc, name: str) -> np.ndarray:
    """A finite, non-empty, square real matrix; errors name it as `name`."""
    try:
        m = np.asarray(doc, dtype=float)
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
    return _parse_metric(_document(doc, "metric")["g"], "metric key 'g'")


def encode_structure(j: ComplexStructure) -> dict:
    doc = {"type": "structure", "backend": j.backend, "j": real_matrix(j.j)}
    if j.j_exact is not None:
        doc["j_exact"] = [[str(Fraction(x)) for x in row] for row in j.j_exact]
    return doc


def decode_structure(doc: dict) -> ComplexStructure:
    """ComplexStructure from its document. Only a rational one carries
    j_exact, and its j must equal float(j_exact), as encode_structure writes."""
    rational = _is_rational(_document(doc, "structure"), "structure")
    if rational != ("j_exact" in doc):
        raise ValueError("structure key 'j_exact' must be present exactly when "
                         "the backend is \"rational\"")
    if not rational:
        return ComplexStructure(np.asarray(doc["j"], dtype=float))
    jx = _exact_matrix(doc["j_exact"], "structure j_exact", _fraction)
    jf = jx.astype(float)
    if not np.array_equal(_square_matrix(doc["j"], "structure key 'j'"), jf):
        raise ValueError("structure key 'j' differs from float(j_exact)")
    return ComplexStructure(j=jf, j_exact=jx)


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
    dim, degree, terms = _document(doc, "multivector")["dim"], doc["degree"], doc["terms"]
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
    _document(doc, "chain")
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
        forms[f"{i + 1},{j + 1}"] = complex_array(arr)
    return {"type": "ext_class", "blocks": blocks, "forms": forms}


def _parse_block(b, name: str) -> tuple:
    if not (isinstance(b, dict) and {"phases", "rank"} <= b.keys()):
        raise ValueError(f"{name} must be an object with keys 'phases' and 'rank'")
    phases, rank = b["phases"], b["rank"]
    if not (isinstance(phases, list) and all(_is_finite_number(p) for p in phases)):
        raise ValueError(f"{name} 'phases' must be a list of finite numbers, "
                         f"got {phases!r}")
    if not (_is_int(rank) and rank >= 1):
        raise ValueError(f"{name} 'rank' must be an integer >= 1, got {rank!r}")
    return Character(tuple(phases)), rank


def decode_ext_class(doc: dict) -> ExtClass:
    if not isinstance(_document(doc, "ext_class")["blocks"], list):
        raise ValueError("ext_class key 'blocks' must be a list")
    bundle = GradedFlatBundle(blocks=tuple(
        _parse_block(b, f"ext_class blocks[{k}]") for k, b in enumerate(doc["blocks"])))
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
            forms[(i - 1, j - 1)] = np.stack([parse_complex(m, key, 2) for m in mats])
        except (IndexError, TypeError, ValueError):
            raise ValueError(f"forms[{key!r}] is not a non-empty list of complex "
                             "matrices of one shape") from None
    return ExtClass(bundle=bundle, forms=forms)


def encode_fourier_form(form) -> dict:
    modes = []
    for m, c in sorted(form.modes.items()):
        modes.append({"m": list(m), "coeffs": complex_array(c)})
    return {"type": "fourier_form", "n": form.space.n,
            "mode_bound": form.space.mode_bound, "q": form.q,
            "value_shape": list(form.extra), "modes": modes}


def decode_fourier_form(doc: dict):
    """FourierForm from its document. n and mode_bound are integers >= 1, q
    an integer in 0..n and value_shape a list of integers >= 1. Each mode m
    is a list of 2n integers with |m_k| <= mode_bound, no mode occurs twice,
    and its coeffs are finite [re, im] pairs of shape (C(n, q), *value_shape).
    An error names the entry as modes[k]."""
    from .fourier import FourierForm, FourierFormSpace
    n, bound, q = _document(doc, "fourier_form")["n"], doc["mode_bound"], doc["q"]
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"fourier_form n must be an integer >= 1, got {n!r}")
    if not (_is_int(bound) and bound >= 1):
        raise ValueError("fourier_form mode_bound must be an integer >= 1, "
                         f"got {bound!r}")
    if not (_is_int(q) and 0 <= q <= n):
        raise ValueError(f"fourier_form q must be an integer in 0..{n}, got {q!r}")
    extra = doc.get("value_shape", [])
    if not (isinstance(extra, list) and all(_is_int(e) and e >= 1 for e in extra)):
        raise ValueError("fourier_form value_shape must be a list of integers "
                         f">= 1, got {extra!r}")
    if not isinstance(doc["modes"], list):
        raise ValueError("fourier_form key 'modes' must be a list")
    space = FourierFormSpace(n, bound)
    want = (space.ncomp(q), *extra)
    modes = {}
    for k, entry in enumerate(doc["modes"]):
        name = f"fourier_form modes[{k}]"
        if not (isinstance(entry, dict) and {"m", "coeffs"} <= entry.keys()):
            raise ValueError(f"{name} must be an object with keys 'm' and 'coeffs'")
        m = entry["m"]
        if not (isinstance(m, list) and len(m) == 2 * n
                and all(_is_int(x) and abs(x) <= bound for x in m)):
            raise ValueError(f"{name} 'm' must be {2 * n} integers in "
                             f"-{bound}..{bound}, got {m!r}")
        if tuple(m) in modes:
            raise ValueError(f"{name} repeats the mode {m!r}")
        c = parse_complex(entry["coeffs"], f"{name} 'coeffs'", len(want))
        if c.shape != want:
            raise ValueError(f"{name} 'coeffs' has shape {c.shape}, expected {want}")
        modes[tuple(m)] = c
    return FourierForm(space, q, modes, extra=tuple(extra))


_DECODERS = {
    "torus": decode_torus,
    "metric": decode_metric,
    "structure": decode_structure,
    "multivector": decode_multivector,
    "chain": decode_chain,
    "ext_class": decode_ext_class,
    "fourier_form": decode_fourier_form,
}


def decode(doc: dict):
    kind = _document(doc, "toruskit").get("type")
    if kind not in _DECODERS:
        raise ValueError(f"unknown or missing document type: {kind!r}")
    return _DECODERS[kind](doc)
