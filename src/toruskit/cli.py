"""Command-line front end: JSON in, JSON out, exit codes for scripting.

Exit codes: 0 success/affirmative, 10 negative finding (NonGeneric,
NotTransversal, Obstructed, mixed Hodge type), 20 inconclusive
(NoObstructionFound, FactorizationFailed, ChainNotFound, Diverged),
1 usage error, 2 malformed input. The seed comes from --seed, then the
TORUSKIT_SEED environment variable, then 0, and is logged in every output
document that consumed randomness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

import numpy as np

from . import bundles, hodge, moduli, serialize, twistor
from .errors import (ChainNotFound, Diverged, FactorizationFailed, NotTransversal,
                     Obstructed, ToruskitError)
from .linalg import random_spd
from .torus import Metric, identity_metric, random_structure, random_torus

EXIT_OK = 0
EXIT_NEGATIVE = 10
EXIT_INCONCLUSIVE = 20
EXIT_USAGE = 1
EXIT_BAD_INPUT = 2


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(doc: dict, out_path: str | None) -> None:
    text = serialize.dumps(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _seed_of(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    return int(os.environ.get("TORUSKIT_SEED", "0"))


def _sample(kind: str, n: int, seed: int, backend: str):
    rng = np.random.default_rng([seed, {"torus": 0, "structure": 1,
                                        "metric": 2, "ext-class": 3}[kind], n])
    if kind == "torus":
        doc = serialize.encode_torus(random_torus(n, rng, backend=backend))
    elif kind == "structure":
        doc = serialize.encode_structure(random_structure(identity_metric(2 * n), rng))
    elif kind == "metric":
        doc = serialize.encode_metric(Metric(random_spd(2 * n, rng)))
    else:
        phases = tuple(float(x) for x in rng.integers(0, 8, size=2 * n) / 8.0)
        ch = bundles.Character(phases)
        bundle = bundles.GradedFlatBundle(blocks=((ch, 1), (ch, 1)))
        form = rng.standard_normal((n, 1, 1)) + 1j * rng.standard_normal((n, 1, 1))
        doc = serialize.encode_ext_class(bundles.ExtClass(bundle=bundle,
                                                          forms={(1, 0): form}))
    doc["seed"] = seed
    return doc


def _point(structure_doc, g: Metric) -> twistor.TwistorPoint:
    return twistor.twistor_point(serialize.decode_structure(structure_doc), g)


def _cmd_sample_torus(args) -> int:
    seed = _seed_of(args)
    _emit(_sample(args.kind, args.n, seed, args.backend), args.out)
    return EXIT_OK


def _cmd_check_generic(args) -> int:
    torus = serialize.decode_torus(_read_json(args.infile))
    report = hodge.is_generic(torus, bound=args.bound)
    doc = serialize.encode_genericity(report)
    doc["seed"] = _seed_of(args)
    doc["reverified"] = bool(report.re_verify(torus))
    _emit(doc, args.out)
    return EXIT_NEGATIVE if report.verdict == "non_generic" else EXIT_INCONCLUSIVE


def _cmd_hodge_type(args) -> int:
    if args.torus:
        j = serialize.decode_torus(_read_json(args.torus)).induced_structure()
    elif args.structure:
        j = serialize.decode_structure(_read_json(args.structure))
    else:
        raise UsageError("hodge-type needs --torus or --structure")
    doc = _read_json(args.infile)
    if isinstance(doc, dict) and doc.get("dim") != j.dim:  # before C(dim, degree) terms
        raise ValueError(f"multivector of dim {doc.get('dim')!r} does not match "
                         f"the structure of dim {j.dim}")
    label = hodge.hodge_type(serialize.decode_multivector(doc), j, tol=args.tol)
    doc = {"type": "hodge_type", "pq": None if label is None else list(label)}
    _emit(doc, args.out)
    return EXIT_OK if label is not None else EXIT_NEGATIVE


def _cmd_connect(args) -> int:
    i = serialize.decode_structure(_read_json(args.i))
    j = serialize.decode_structure(_read_json(args.j))
    seed = _seed_of(args)
    opts = moduli.ConnectOptions(seed=seed, certify_generic=args.certify_generic,
                                 bound=args.bound)
    chain = moduli.connect(i, j, opts)
    doc = serialize.encode_chain(chain)
    doc["seed"] = seed
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_section(args) -> int:
    g = serialize.decode_metric(_read_json(args.metric))
    pi = _point(_read_json(args.i), g)
    pj = _point(_read_json(args.j), g)
    wi = serialize.parse_complex(_read_json(args.wi), "wi", 1)
    wj = serialize.parse_complex(_read_json(args.wj), "wj", 1)
    v = twistor.section_solve(pi, pj, wi, wj)
    ri = twistor.kappa(v, pi).w - wi
    rj = twistor.kappa(v, pj).w - wj
    doc = {"type": "section", "v": serialize.complex_array(v.v),
           "residual": float(max(np.linalg.norm(ri), np.linalg.norm(rj)))}
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_transport(args) -> int:
    g = serialize.decode_metric(_read_json(args.metric))
    pi = _point(_read_json(args.i), g)
    pl = _point(_read_json(args.l), g)
    plp = _point(_read_json(args.lp), g)
    t = serialize.parse_complex(_read_json(args.t), "t", 1)
    out = twistor.psi_transport(pi, pl, plp, t)
    _emit({"type": "transport", "w": serialize.complex_array(out.w)}, args.out)
    return EXIT_OK


def _cmd_bundle_extend(args) -> int:
    nu = serialize.decode_ext_class(_read_json(args.ext))
    g = serialize.decode_metric(_read_json(args.metric))
    pj = _point(_read_json(args.j), g)
    pi = _point(_read_json(args.i), g)
    pl = _point(_read_json(args.l), g)
    extended = bundles.twistor_extend(nu, pj, pi, pl)
    _emit(serialize.encode_ext_class(extended), args.out)
    return EXIT_OK


def _cmd_massey(args) -> int:
    theta0 = serialize.decode_fourier_form(_read_json(args.infile))
    result = bundles.massey_solve(theta0, tol=args.tol, max_terms=args.max_terms)
    doc = serialize.encode_fourier_form(result.theta)
    doc.update({"type": "massey_result", "mc_residual": result.mc_residual,
                "n_terms": result.n_terms, "converged": result.converged})
    _emit(doc, args.out)
    return EXIT_OK if result.converged else EXIT_INCONCLUSIVE


def _cmd_curvature_scan(args) -> int:
    seed = _seed_of(args)
    rng = np.random.default_rng(seed)
    n = args.n
    g = identity_metric(2 * n)
    worst = 0.0
    strict_neg = 0
    for _ in range(args.count):
        s = twistor.twistor_point(random_structure(g, rng), g)
        xi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        xi = 0.5 * (xi - xi.T)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        val = twistor.b_minus_curvature(s, xi, b)
        direct = -float(np.linalg.norm(xi @ b) ** 2)
        worst = max(worst, abs(val - direct))
        if np.linalg.norm(xi @ b) > 1e-12 and val < 0:
            strict_neg += 1
        elif np.linalg.norm(xi @ b) > 1e-12:
            _emit({"type": "curvature_scan", "seed": seed, "violation": True},
                  args.out)
            return EXIT_NEGATIVE
    doc = {"type": "curvature_scan", "seed": seed, "count": args.count,
           "max_formula_error": worst, "strictly_negative": strict_neg,
           "violation": False}
    _emit(doc, args.out)
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> Parser:
    """The argument parser, built once per process: a parse leaves it as it
    was, so every call of main can share it."""
    p = Parser(prog="toruskit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("sample-torus", help="deterministic sample documents")
    sp.add_argument("--kind", choices=["torus", "structure", "metric", "ext-class"],
                    default="torus")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--backend", choices=["f64", "rational"], default="f64")
    common(sp)
    sp.set_defaults(func=_cmd_sample_torus)

    sp = sub.add_parser("check-generic", help="genericity certification")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--bound", type=int, default=10)
    common(sp)
    sp.set_defaults(func=_cmd_check_generic)

    sp = sub.add_parser("hodge-type", help="pure (p,q) type of a lattice class")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--torus", default=None)
    sp.add_argument("--structure", default=None)
    sp.add_argument("--tol", type=float, default=1e-9)
    common(sp)
    sp.set_defaults(func=_cmd_hodge_type)

    sp = sub.add_parser("connect", help="hop chain between two structures")
    sp.add_argument("--i", required=True)
    sp.add_argument("--j", required=True)
    sp.add_argument("--certify-generic", action="store_true")
    sp.add_argument("--bound", type=int, default=10)
    common(sp)
    sp.set_defaults(func=_cmd_connect)

    sp = sub.add_parser("section", help="two-point section interpolation")
    for flag in ("--i", "--j", "--metric", "--wi", "--wj"):
        sp.add_argument(flag, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_section)

    sp = sub.add_parser("transport", help="germ transport through a reference point")
    for flag in ("--i", "--l", "--lp", "--metric", "--t"):
        sp.add_argument(flag, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_transport)

    sp = sub.add_parser("bundle-extend", help="two-point extension of an ext class")
    for flag in ("--ext", "--i", "--j", "--l", "--metric"):
        sp.add_argument(flag, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_bundle_extend)

    sp = sub.add_parser("massey", help="Maurer-Cartan solve by Massey recursion")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--max-terms", type=int, default=30)
    common(sp)
    sp.set_defaults(func=_cmd_massey)

    sp = sub.add_parser("curvature-scan", help="curvature negativity sampling")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--count", type=int, default=100)
    common(sp)
    sp.set_defaults(func=_cmd_curvature_scan)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (NotTransversal, Obstructed) as err:
        print(f"negative: {err}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (FactorizationFailed, ChainNotFound, Diverged) as err:
        print(f"inconclusive: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (json.JSONDecodeError, OSError, KeyError, ValueError,
            ToruskitError) as err:
        print(f"bad input: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
