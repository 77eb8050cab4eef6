"""Span recorder that wraps toruskit's public functions from outside.

The library has no tracing of its own yet, so the traced run replaces each
listed function with a timing wrapper in every namespace that holds it:
the defining module, the package re-exports, modules that imported the name
with ``from .x import y``, and module-level dicts such as the serialize
decoder table. Only coarse public calls are wrapped; per-element helpers
(``hodge.merge_sign``, ``FourierFormSpace.in_bounds``) run hundreds of
thousands of times per op and are never touched.

A span is ``[name, start, end, parent, op, extra]``. Spans stay in memory
and are written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> public functions to wrap. Prefix entries ending in "*" match
# every module-level function whose name starts with the prefix.
TARGETS = {
    "torus": ["make_torus", "random_torus", "frame_from_structure",
              "structure_from_frame", "torus_from_structure", "random_structure"],
    "hodge": ["is_generic", "subtorus_search", "pp_class_heuristic",
              "integral_pp_kernel", "pq_projectors", "pq_decompose", "hodge_type",
              "verify_sublattice"],
    "lattice": ["lll_reduce", "relation_candidates", "small_relation"],
    "exact": ["mm", "rref", "nullspace", "rank_exact", "solve_exact",
              "integer_kernel"],
    "twistor": ["twistor_point", "transversal", "section_solve", "kappa",
                "psi_transport", "random_transversal_pair", "component_flip"],
    "moduli": ["connect", "common_metric", "pair_factorize", "verify_chain",
               "common_structure_from_metrics", "compatible_metric"],
    "bundles": ["massey_solve", "dbar_square_residual", "obstruction_norm",
                "twistor_extend"],
    "fourier": ["wedge", "green", "dbar", "harmonic_part"],
    "serialize": ["encode_*", "decode*", "dumps"],
    "cli": ["main"],
}

MODULES = tuple(TARGETS)

NAME, START, END, PARENT, OP, EXTRA = range(6)


def _hop_tol():
    from toruskit.moduli import HOP_TOL
    return HOP_TOL


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Counters measured where the work happens: name -> hook(args, kwargs,
# result, error) returning the span's extra value. Pre-call hooks see no
# result and run before the clock starts.
def _connect_post(args, kwargs, result, error):
    return None if result is None else result.hops


def _common_metric_post(args, kwargs, result, error):
    if result is None:
        return False
    i, j = args[0], args[1]
    res = max(i.compatibility_residual(result), j.compatibility_residual(result))
    return bool(res <= _hop_tol())


def _ok_post(args, kwargs, result, error):
    return error is None


def _not_none_post(args, kwargs, result, error):
    return result is not None


def _massey_post(args, kwargs, result, error):
    from toruskit.errors import Obstructed
    if isinstance(error, Obstructed):
        return "obstructed"
    return None if result is None else result.n_terms


def _projector_pre(args, kwargs):
    return bool(_arg(args, kwargs, 2, "exact_mode", False))


def _rows_pre(args, kwargs):
    return len(_arg(args, kwargs, 0, "basis"))


def _mode_pairs_pre(args, kwargs):
    return len(args[0].modes) * len(args[1].modes)


PRE_HOOKS = {
    "hodge.pq_projectors": _projector_pre,
    "lattice.lll_reduce": _rows_pre,
    "fourier.wedge": _mode_pairs_pre,
}

POST_HOOKS = {
    "moduli.connect": _connect_post,
    "moduli.common_metric": _common_metric_post,
    "moduli.pair_factorize": _ok_post,
    "hodge.pp_class_heuristic": _not_none_post,
    "bundles.massey_solve": _massey_post,
}


class Tracer:
    """Records spans of wrapped toruskit calls; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, original):
        pre = PRE_HOOKS.get(name)
        post = POST_HOOKS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            extra = pre(args, kwargs) if pre else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, extra]
            stack.append(len(spans))
            spans.append(rec)
            result = error = None
            rec[START] = clock()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                if post:
                    rec[EXTRA] = post(args, kwargs, result, error)

        return wrapper

    def _originals(self):
        """(qualified name, function) for every target present in the library."""
        out = []
        for mod_name, names in TARGETS.items():
            mod = sys.modules[f"toruskit.{mod_name}"]
            for entry in names:
                if entry.endswith("*"):
                    prefix = entry[:-1]
                    found = [(k, v) for k, v in vars(mod).items()
                             if k.startswith(prefix) and callable(v)
                             and getattr(v, "__module__", None) == mod.__name__]
                else:
                    found = [(entry, getattr(mod, entry))]
                for fname, func in sorted(found):
                    out.append((f"{mod_name}.{fname}", func))
        return out

    def install(self):
        """Replace every target in every toruskit namespace that holds it."""
        import toruskit.cli  # noqa: F401  (the cli re-exports need patching too)
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(func): self._wrap(name, func)
                    for name, func in self._originals()}
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "toruskit"
                                   or mod_name.startswith("toruskit.")):
                continue
            space = vars(mod)
            for attr, value in list(space.items()):
                if id(value) in wrappers:
                    space[attr] = wrappers[id(value)]
                    self._patched.append((space, attr, value))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]
                            self._patched.append((value, key, item))

    def uninstall(self):
        for space, key, original in reversed(self._patched):
            space[key] = original
        self._patched.clear()

    # -- spans the benchmark records itself ---------------------------------

    def span(self, name):
        return _ManualSpan(self, name)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, default=str) + "\n")


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.rec = [self.name, 0.0, 0.0, t._stack[-1] if t._stack else -1, t.op, None]
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[START] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc):
        self.rec[END] = time.perf_counter()
        self.tracer._stack.pop()
        return False


# ---------------------------------------------------------------------------
# Aggregation


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - child[k] for k, rec in enumerate(spans)]


def outermost(spans, prefix):
    """Spans whose name starts with prefix (a string or a tuple of strings) and
    whose ancestors' names do not."""
    out = []
    for rec in spans:
        if not rec[NAME].startswith(prefix):
            continue
        p = rec[PARENT]
        nested = False
        while p >= 0:
            if spans[p][NAME].startswith(prefix):
                nested = True
                break
            p = spans[p][PARENT]
        if not nested:
            out.append(rec)
    return out
