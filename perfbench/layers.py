"""Per-layer metrics from the spans of a traced pass.

``X.time_s`` sums the outermost spans of X (a call nested in another call of
the same family is not counted twice); ``<module>.self_s`` sums span
durations minus their direct children. The benchmark's own time is measured
the same way, from its ``bench.*`` spans. ``trace.accounted_ratio`` is the
share of the traced wall time that these self times cover: time spent
outside every span (library code that no wrapper covers, loop bookkeeping)
shows as a ratio below 1.
"""

from __future__ import annotations

from tracer import END, EXTRA, MODULES, NAME, OP, START, outermost, self_times


def _dur(rec):
    return rec[END] - rec[START]


def _named(spans, name):
    return [rec for rec in outermost(spans, name) if rec[NAME] == name]


def _calls_time(out, spans, name, calls=True):
    recs = _named(spans, name)
    if calls:
        out[f"{name}.calls"] = len(recs)
    out[f"{name}.time_s"] = sum(_dur(r) for r in recs)
    return recs


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, op_kinds: dict, wall: float) -> dict:
    out: dict = {}

    # moduli
    recs = _calls_time(out, spans, "moduli.connect")
    for hops in (1, 3, 6):
        out[f"moduli.connect.route_{hops}hop"] = sum(r[EXTRA] == hops for r in recs)
    recs = _calls_time(out, spans, "moduli.common_metric")
    out["moduli.common_metric.hit_ratio"] = _ratio(sum(bool(r[EXTRA]) for r in recs),
                                                   len(recs))
    recs = [r for r in spans if r[NAME] == "moduli.pair_factorize"]
    ok = [r for r in recs if r[EXTRA]]
    out["moduli.pair_factorize.calls"] = len(recs)
    out["moduli.pair_factorize.ok_ratio"] = _ratio(len(ok), len(recs))
    out["moduli.pair_factorize.ok.time_s"] = sum(_dur(r) for r in ok)
    out["moduli.pair_factorize.failed.time_s"] = sum(_dur(r) for r in recs if not r[EXTRA])
    for name in ("moduli.verify_chain", "moduli.common_structure_from_metrics"):
        _calls_time(out, spans, name, calls=False)

    # hodge
    _calls_time(out, spans, "hodge.is_generic")
    _calls_time(out, spans, "hodge.subtorus_search", calls=False)
    recs = _calls_time(out, spans, "hodge.pp_class_heuristic")
    planted = [r for r in recs if op_kinds.get(r[OP]) == "planted"]
    out["hodge.pp_class_heuristic.hit_ratio"] = _ratio(sum(bool(r[EXTRA]) for r in planted),
                                                       len(planted))
    recs = _named(spans, "hodge.pq_projectors")
    out["hodge.pq_projectors.float_s"] = sum(_dur(r) for r in recs if not r[EXTRA])
    out["hodge.pq_projectors.exact_s"] = sum(_dur(r) for r in recs if r[EXTRA])
    _calls_time(out, spans, "hodge.integral_pp_kernel")

    # lattice
    recs = _calls_time(out, spans, "lattice.lll_reduce")
    out["lattice.lll_reduce.rows"] = sum(r[EXTRA] for r in recs)
    _calls_time(out, spans, "lattice.relation_candidates", calls=False)

    # exact
    for name in ("exact.mm", "exact.rref", "exact.nullspace"):
        _calls_time(out, spans, name)

    # fourier
    recs = _calls_time(out, spans, "fourier.wedge")
    out["fourier.wedge.mode_pairs"] = sum(r[EXTRA] for r in recs)
    for name in ("fourier.green", "fourier.dbar", "fourier.harmonic_part"):
        _calls_time(out, spans, name, calls=False)

    # bundles
    recs = _calls_time(out, spans, "bundles.massey_solve")
    out["bundles.massey_solve.terms"] = sum(r[EXTRA] for r in recs
                                            if isinstance(r[EXTRA], int))
    out["bundles.massey_solve.obstructed"] = sum(r[EXTRA] == "obstructed" for r in recs)
    for name in ("bundles.dbar_square_residual", "bundles.obstruction_norm",
                 "bundles.twistor_extend"):
        _calls_time(out, spans, name, calls=False)

    # twistor
    _calls_time(out, spans, "twistor.twistor_point")
    for name in ("twistor.section_solve", "twistor.kappa"):
        _calls_time(out, spans, name, calls=False)

    # torus
    _calls_time(out, spans, "torus.frame_from_structure")
    for name in ("torus.random_structure", "torus.make_torus"):
        _calls_time(out, spans, name, calls=False)

    # serialize: decoders and encoders, each family counted once when nested
    out["serialize.decode.time_s"] = sum(_dur(r) for r in outermost(spans, "serialize.decode"))
    out["serialize.encode.time_s"] = sum(
        _dur(r) for r in outermost(spans, ("serialize.encode", "serialize.dumps")))

    # self times: every module, then the benchmark's own spans
    own = self_times(spans)
    for module in MODULES:
        out[f"{module}.self_s"] = 0.0
    bench_own = 0.0
    for rec, s in zip(spans, own):
        module = rec[NAME].split(".")[0]
        if module == "bench":
            bench_own += s
        else:
            out[f"{module}.self_s"] += s
    out["trace.wall_s"] = wall
    out["trace.bench_own_s"] = bench_own
    out["trace.accounted_ratio"] = (sum(out[f"{m}.self_s"] for m in MODULES)
                                    + bench_own) / wall
    out["trace.spans"] = len(spans)
    return out
