"""JSON documents of the CLI, one per schema in docs/schemas/: torus,
metric, structure, multivector, chain, ext_class and fourier_form, which
decode() dispatches on their "type", and the genericity report, which is only
written. Section and transport vectors are bare lists of [re, im] pairs.

Matrix conventions: real matrices are row-major arrays of numbers, complex
matrices row-major arrays of [re, im] pairs. The rational backend serializes
entries as "p/q" strings instead of numbers. Every document carries a
"backend" field where the distinction matters. MultiVector indices and
ExtClass block keys are 1-based on the wire.

Reading rule: one walk, _nested, reads every entry. Numbers are JSON numbers,
never strings or booleans; "p/q" strings appear only in rational periods and
j_exact. A document is rejected, never repaired, and every error names its
entry, such as `chain structures[2][0][1]`, `ext_class forms['2,1'][0][0][0]`
or `metric key 'g' is missing`.
"""

from __future__ import annotations

import json
import math
import re
import sys
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


def _number(x, what: str = "a finite number") -> float:
    """A finite JSON number, never a bool; errors say it must be `what`."""
    if type(x) in (int, float) and abs(x) <= sys.float_info.max:
        return float(x)
    raise ValueError(f"must be {what}, got {x!r}")


def _integer(lo: float = -math.inf, hi: float = math.inf):
    """Reader of an integer in lo..hi, never a bool."""
    def read(x) -> int:
        if type(x) is int and lo <= x <= hi:
            return x
        span = (f" in {lo}..{hi}" if hi != math.inf
                else f" >= {lo}" if lo != -math.inf else "")
        raise ValueError(f"must be an integer{span}, got {x!r}")
    return read


_FRACTION = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # "p" or "p/q", q > 0


def _fraction(x) -> Fraction:
    """A "p/q" string with q > 0 or a finite number, exactly."""
    if not (isinstance(x, str) and _FRACTION.fullmatch(x)):
        _number(x, 'a "p/q" string with q > 0 or a finite number')
    return Fraction(x)


def _pair(x, part=_number) -> tuple:
    """An [re, im] pair, each part read by `part`."""
    if not (isinstance(x, list) and len(x) == 2):
        raise ValueError(f"must be an [re, im] pair, got {x!r}")
    return part(x[0]), part(x[1])


def _nested(doc, name: str, ndim: int, leaf, empty: bool = False) -> list:
    """leaf(x) for every entry x of doc, as nested lists of the same shape.
    doc is ndim levels of non-empty lists of one length per level, but the
    outermost may be empty if `empty` is set. leaf raises ValueError("must be
    ..."), and every error names its entry by its path, such as name[2][0]."""
    shape = []

    def fail(index, what):
        raise ValueError(f"{name}{''.join(f'[{i}]' for i in index)} {what}") from None

    def walk(x, index):
        depth = len(index)
        if depth == ndim:
            try:
                return leaf(x)
            except ValueError as err:
                fail(index, err)
        if depth < len(shape):
            if not (isinstance(x, list) and len(x) == shape[depth]):
                fail(index, f"must be a list of length {shape[depth]}")
        elif isinstance(x, list) and (x or empty and depth == 0):
            shape.append(len(x))
        else:
            fail(index, "must be a list" if empty and depth == 0
                 else "must be a non-empty list")
        return [walk(y, (*index, i)) for i, y in enumerate(x)]

    return walk(doc, ())


def _field(doc, key: str, kind: str):
    """doc[key] of the JSON object doc; errors name the object as `kind`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} must be a JSON object")
    if key not in doc:
        raise ValueError(f"{kind} key {key!r} is missing")
    return doc[key]


def _read(doc, key: str, kind: str, ndim: int, leaf, empty: bool = False):
    """_nested over doc[key], named after its object: a document's own key
    bare (`metric g`), the key of a list entry quoted (`terms[0] 're'`)."""
    name = f"{kind} {key!r}" if kind.endswith("]") else f"{kind} {key}"
    return _nested(_field(doc, key, kind), name, ndim, leaf, empty)


def _complex(pairs: list) -> np.ndarray:
    a = np.array(pairs)
    return a[..., 0] + 1j * a[..., 1]


def parse_complex(doc, name: str, ndim: int) -> np.ndarray:
    """A complex array of ndim dimensions from nested lists of finite
    [re, im] pairs; errors name the entry by its path from `name`."""
    return _complex(_nested(doc, name, ndim, _pair))


def _document(doc, kind: str) -> dict:
    """doc, which must be a JSON object whose `seed`, if any, is an integer."""
    if not isinstance(doc, dict):
        raise ValueError(f"the {kind} document must be a JSON object")
    if "seed" in doc:
        _read(doc, "seed", kind, 0, _integer())
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
    """MarkedTorus from its document: a backend and n x 2n periods, of
    numbers for f64 and of "p/q" strings or numbers for rational. A `cond`,
    if any, must be a finite number; it is recomputed, not kept."""
    _field(_document(doc, "torus"), "backend", "torus")
    n = _read(doc, "n", "torus", 0, _integer(1))
    if "cond" in doc:
        _read(doc, "cond", "torus", 0, _number)
    if _is_rational(doc, "torus"):
        t = make_torus(np.array(_read(doc, "periods", "torus", 2, lambda x: exact.QI(
            *_pair(x, _fraction))), dtype=object))
    else:
        t = make_torus(_complex(_read(doc, "periods", "torus", 2, _pair)))
    if n != t.n:
        raise ValueError(f"torus n must be {t.n}, the number of period rows, got {n}")
    return t


def encode_metric(m: Metric) -> dict:
    return {"type": "metric", "backend": "f64", "g": real_matrix(m.g)}


def _parse_metric(g: np.ndarray, name: str) -> Metric:
    """Metric from a matrix read from a document, which must be square and
    symmetric. A document is rejected, never repaired; the symmetrization
    inside Metric is for matrices computed in the library."""
    if g.shape[0] != g.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {g.shape}")
    if frob(g - g.T) > 1e-12 * frob(g):
        raise ValueError(f"{name} is not symmetric")
    try:
        return Metric(g)
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from None


def decode_metric(doc: dict) -> Metric:
    g = np.array(_read(_document(doc, "metric"), "g", "metric", 2, _number))
    return _parse_metric(g, "metric g")


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
    j = np.array(_read(doc, "j", "structure", 2, _number))
    if not rational:
        return ComplexStructure(j)
    jx = np.array(_read(doc, "j_exact", "structure", 2, _fraction), dtype=object)
    jf = jx.astype(float)
    if not np.array_equal(j, jf):
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


def decode_multivector(doc: dict) -> MultiVector:
    """MultiVector from its document: integers dim >= 2 and degree in 0..dim,
    and terms of degree strictly increasing 1-based indices with finite 're'
    and 'im'. No index set occurs twice."""
    _document(doc, "multivector")
    dim = _read(doc, "dim", "multivector", 0, _integer(2))
    degree = _read(doc, "degree", "multivector", 0, _integer(0, dim))
    terms = _field(doc, "terms", "multivector")
    if not isinstance(terms, list):
        raise ValueError("multivector key 'terms' must be a list")
    coeffs = {}
    for k, t in enumerate(terms):
        name = f"multivector terms[{k}]"
        idx = _read(t, "indices", name, 1, _integer(1, dim), empty=True)
        if len(idx) != degree or any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"{name} 'indices' must be {degree} strictly "
                             f"increasing 1-based indices in 1..{dim}, got {idx!r}")
        re_part, im_part = (_read(t, part, name, 0, _number) for part in ("re", "im"))
        subset = tuple(i - 1 for i in idx)
        if subset in coeffs:
            raise ValueError(f"{name} repeats the indices {idx!r}")
        coeffs[subset] = complex(re_part, im_part)
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
    """Chain from its document: lists of finite matrices of one shape (no
    metrics for one structure), hops equal to the number of metrics, and a
    finite residual, which is not kept. Each structure must square to -Id and
    each hop metric passes decode_metric's checks; errors name structures[k]
    or metrics[k]."""
    _document(doc, "chain")
    hops = _read(doc, "hops", "chain", 0, _integer(0, 6))
    _read(doc, "residual", "chain", 0, _number)
    js = np.array(_read(doc, "structures", "chain", 3, _number))
    gs = np.array(_read(doc, "metrics", "chain", 3, _number, empty=True))
    structures = []
    for k, j in enumerate(js):
        try:
            structures.append(ComplexStructure(j))
        except ValueError as err:
            raise ValueError(f"chain structures[{k}]: {err}") from None
    metrics = tuple(_parse_metric(g, f"chain metrics[{k}]") for k, g in enumerate(gs))
    if hops != len(metrics):
        raise ValueError(f"chain hops must be {len(metrics)}, one per metric, got {hops}")
    return Chain(structures=tuple(structures), metrics=metrics)


def encode_ext_class(nu: ExtClass) -> dict:
    blocks = [{"phases": [float(p) for p in ch.phases], "rank": r}
              for ch, r in nu.bundle.blocks]
    forms = {}
    for (i, j), arr in nu.forms.items():
        forms[f"{i + 1},{j + 1}"] = complex_array(arr)
    return {"type": "ext_class", "blocks": blocks, "forms": forms}


def _parse_block(b, name: str) -> tuple:
    return Character(tuple(_read(b, "phases", name, 1, _number))), _read(
        b, "rank", name, 0, _integer(1))


def decode_ext_class(doc: dict) -> ExtClass:
    """ExtClass from its document. A forms key is "i,j", two 1-based block
    indices in ASCII digits, and maps to complex matrices of one shape."""
    blocks = _field(_document(doc, "ext_class"), "blocks", "ext_class")
    if not isinstance(blocks, list):
        raise ValueError("ext_class key 'blocks' must be a list")
    bundle = GradedFlatBundle(blocks=tuple(
        _parse_block(b, f"ext_class blocks[{k}]") for k, b in enumerate(blocks)))
    if not isinstance(_field(doc, "forms", "ext_class"), dict):
        raise ValueError("ext_class key 'forms' must be a JSON object")
    forms = {}
    for key, mats in doc["forms"].items():
        ij = re.fullmatch(r"([0-9]+),([0-9]+)", key)
        if not (ij and all(1 <= int(x) <= len(bundle.blocks) for x in ij.groups())):
            raise ValueError(f"ext_class forms key {key!r} is not \"i,j\" with "
                             f"1-based block indices up to {len(bundle.blocks)}")
        i, j = (int(x) - 1 for x in ij.groups())
        forms[i, j] = parse_complex(mats, f"ext_class forms[{key!r}]", 3)
    return ExtClass(bundle=bundle, forms=forms)


def encode_fourier_form(form) -> dict:
    modes = []
    for m, c in sorted(form.modes.items()):
        modes.append({"m": list(m), "coeffs": complex_array(c)})
    return {"type": "fourier_form", "n": form.space.n,
            "mode_bound": form.space.mode_bound, "q": form.q,
            "value_shape": list(form.extra), "modes": modes}


def decode_fourier_form(doc: dict):
    """FourierForm from its document: integers n, mode_bound >= 1, q in 0..n
    and value_shape entries >= 1. Each mode m is 2n integers with |m_k| <=
    mode_bound, no mode occurs twice, and its coeffs are complex of shape
    (C(n, q), *value_shape)."""
    from .fourier import FourierForm, FourierFormSpace
    kind = "fourier_form"
    _document(doc, kind)
    n, bound = (_read(doc, key, kind, 0, _integer(1)) for key in ("n", "mode_bound"))
    q = _read(doc, "q", kind, 0, _integer(0, n))
    extra = tuple(_nested(doc.get("value_shape", []), f"{kind} value_shape", 1,
                          _integer(1), empty=True))
    if not isinstance(_field(doc, "modes", kind), list):
        raise ValueError(f"{kind} key 'modes' must be a list")
    space = FourierFormSpace(n, bound)
    want = (space.ncomp(q), *extra)
    modes = {}
    for k, entry in enumerate(doc["modes"]):
        name = f"{kind} modes[{k}]"
        m = _read(entry, "m", name, 1, _integer(-bound, bound))
        if len(m) != 2 * n:
            raise ValueError(f"{name} 'm' must be {2 * n} integers in "
                             f"-{bound}..{bound}, got {m!r}")
        if tuple(m) in modes:
            raise ValueError(f"{name} repeats the mode {m!r}")
        c = _complex(_read(entry, "coeffs", name, len(want), _pair))
        if c.shape != want:
            raise ValueError(f"{name} 'coeffs' has shape {c.shape}, expected {want}")
        modes[tuple(m)] = c
    return FourierForm(space, q, modes, extra=extra)


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
    if not isinstance(doc, dict):
        raise ValueError("the toruskit document must be a JSON object")
    kind = doc.get("type")
    if kind not in _DECODERS:
        raise ValueError(f"unknown or missing document type: {kind!r}")
    return _DECODERS[kind](doc)
