"""Self-tests of the benchmark: determinism of the corpus, checks that reject
tampered answers, an op stopped at its limit counted as failed, wrappers
that restore the originals, span nesting and accounting.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import layers  # noqa: E402
import workloads as wls  # noqa: E402
from tracer import NAME, PARENT, Tracer  # noqa: E402
from worker import run_ops, tail, weighted_throughput  # noqa: E402


def first_ops(workload_cls, seed, count, kinds=None):
    wl = workload_cls(seed, str(ROOT))
    wl.build_corpus()
    out = []
    for op in wl.ops(wls.TIMED):
        if kinds is None or op.kind in kinds:
            out.append(op)
        if len(out) == count:
            return wl, out


def answers(ops):
    return [wls.digest(op.run()) for op in ops]


@pytest.mark.parametrize("cls,kinds", [
    (wls.GenericityWorkload, {"float", "planted"}),
    (wls.DeformWorkload, {"twistor", "residual", "massey3", "obstructed"}),
    (wls.ChainWorkload, {"gp", "shared"}),
])
def test_corpus_is_deterministic_per_seed(cls, kinds):
    _, a = first_ops(cls, 5, 3, kinds)
    _, b = first_ops(cls, 5, 3, kinds)
    _, c = first_ops(cls, 6, 3, kinds)
    assert [op.kind for op in a] == [op.kind for op in b]
    assert answers(a) == answers(b)
    assert answers(a) != answers(c)


def test_forms_interleaves_its_parts_deterministically():
    runs = []
    for seed in (5, 5, 6):
        wl = wls.FormsWorkload(seed, str(ROOT))
        wl.build_corpus()
        try:
            stream = wl.ops(wls.TIMED)
            ops = [next(stream) for _ in range(6)]
            runs.append(([op.kind for op in ops],
                         answers([op for op in ops if op.kind != "massey5"])))
        finally:
            wl.close()
    assert runs[0] == runs[1]
    assert runs[0][1] != runs[2][1]
    assert runs[0][0] == ["float", "massey5", "sample", "planted", "twistor", "check-float"]
    weights = wls.FormsWorkload(5, str(ROOT)).weights()
    assert abs(sum(weights.values()) - 1.0) < 1e-12 and "connect" not in weights


def test_chain_check_rejects_broken_chain():
    _, (op,) = first_ops(wls.ChainWorkload, 3, 1, {"gp"})
    i, j = op.meta["pair"]
    chain, report = op.run()
    assert wls.check_chain(i, j, (chain, report)) is None
    bent = dataclasses.replace(chain, metrics=(chain.metrics[0],
                                               wls.tk.Metric(chain.metrics[1].g * 1.01
                                                             + 0.01 * np.eye(6)),
                                               *chain.metrics[2:]))
    assert wls.check_chain(i, j, (bent, report)) is not None
    swapped = dataclasses.replace(chain, structures=(j,) + chain.structures[1:])
    assert wls.check_chain(i, j, (swapped, report)) is not None
    assert wls.check_chain(i, j, (chain, dataclasses.replace(report, ok=False))) is not None


def test_infeasible_check_rejects_a_factorization():
    wl = wls.ChainWorkload(3, str(ROOT))
    op = wl._infeasible_op(wls.tk.identity_metric(6))
    assert op.check(wls.tk.identity_metric(6)) is not None
    assert op.check(wls.Raised(wls.tk.FactorizationFailed("x"))) is None


def test_genericity_checks_reject_flipped_verdicts():
    _, (op,) = first_ops(wls.GenericityWorkload, 4, 1, {"exact1"})
    torus, report, kernel = op.run()
    assert op.check((torus, report, kernel)) is None
    flipped = dataclasses.replace(report, verdict="no_obstruction_found", subtorus=None)
    assert op.check((torus, flipped, kernel)) is not None
    wrong = wls.hodge.MultiVector(6, 2, np.eye(15)[0].astype(complex))
    assert op.check((torus, report, [wrong])) is not None
    _, (fop,) = first_ops(wls.GenericityWorkload, 4, 1, {"float"})
    ftorus, freport = fop.run()
    forged = dataclasses.replace(freport, verdict="non_generic",
                                 subtorus=(np.eye(6, dtype=int)[:2].astype(object), 1))
    assert fop.check((ftorus, forged)) is not None


def test_deform_checks_reject_tampered_answers():
    _, (op,) = first_ops(wls.DeformWorkload, 2, 1, {"massey3"})
    res = op.run()
    assert op.check(res) is None
    assert op.check(dataclasses.replace(res, mc_residual=1e-3)) is not None
    assert op.check(dataclasses.replace(res, converged=False)) is not None
    _, (obs,) = first_ops(wls.DeformWorkload, 2, 1, {"obstructed"})
    assert obs.check(obs.run()) is None
    assert obs.check(res) is not None
    _, (tw,) = first_ops(wls.DeformWorkload, 2, 1, {"twistor"})
    ans = tw.run()
    assert tw.check(ans) is None
    assert tw.check((ans[0] + 1e-6,) + ans[1:]) is not None
    _, (rs,) = first_ops(wls.DeformWorkload, 2, 1, {"residual"})
    a, b = rs.run()
    assert rs.check((a, b)) is None
    assert rs.check((a, b + 1e-8)) is not None


def test_cli_check_rejects_wrong_exit_and_bytes():
    wl = wls.CliWorkload(1, str(ROOT))
    argv = ["sample-torus", "--kind", "metric", "--seed", "3"]
    ref = wls.cli_in_process(argv)
    op = wl._op("sample", argv, ref)
    assert op.check(ref) is None
    assert op.check((10, ref[1])) is not None
    assert op.check((0, ref[1] + b" ")) is not None
    neg = wl._op("check-rational", argv, ref)
    assert neg.check(ref) is not None  # exit 0 where the contract says 10


def test_wrappers_restore_the_originals():
    import toruskit
    from toruskit import cli, moduli, serialize
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "toruskit" or name.startswith("toruskit.")}
    decoders = dict(serialize._DECODERS)
    tracer = Tracer()
    tracer.install()
    try:
        assert moduli.pair_factorize is not before["toruskit.moduli"]["pair_factorize"]
        assert toruskit.connect is moduli.connect
        assert serialize._DECODERS["chain"] is serialize.decode_chain
        assert serialize._DECODERS["chain"] is not decoders["chain"]
        assert cli.random_structure is not before["toruskit.cli"]["random_structure"]
        assert "merge_sign" not in {name.split(".")[-1] for name, _ in tracer._originals()}
    finally:
        tracer.uninstall()
    after = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name in before}
    for name, space in before.items():
        for attr, value in space.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"
    assert serialize._DECODERS == decoders


def test_traced_connect_nests_pair_factorize():
    _, (op,) = first_ops(wls.ChainWorkload, 3, 1, {"gp"})
    untraced = wls.digest(op.run())
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        traced = wls.digest(op.run())
    finally:
        tracer.uninstall()
    assert traced == untraced
    spans = tracer.spans
    connect = [k for k, r in enumerate(spans) if r[NAME] == "moduli.connect"]
    factor = [r for r in spans if r[NAME] == "moduli.pair_factorize"]
    assert len(connect) == 1 and factor
    for rec in factor:
        p = rec[PARENT]
        while p >= 0 and p != connect[0]:
            p = spans[p][PARENT]
        assert p == connect[0]
    metrics = layers.per_layer(spans, {0: "gp"}, wall=1.0)
    assert metrics["moduli.connect.route_3hop"] == 1


def test_accounted_ratio_shows_time_outside_spans():
    spans = [["moduli.connect", 0.0, 1.0, -1, 0, 3],
             ["moduli.pair_factorize", 0.2, 0.6, 0, 0, True],
             ["bench.check", 1.0, 1.5, -1, 0, None]]
    metrics = layers.per_layer(spans, {0: "gp"}, wall=2.0)
    assert metrics["moduli.self_s"] == 1.0
    assert metrics["trace.bench_own_s"] == 0.5
    assert metrics["trace.accounted_ratio"] == 0.75


class _SlowWorkload(wls.Workload):
    name = "slow"
    cycle = ("slow",)

    def ops(self, stream):
        while True:
            yield wls.Op("slow", lambda: time.sleep(2.0), lambda ans: None, limit_s=0.1)


def test_op_past_its_limit_is_timed_and_failed():
    done: list = []
    lat, failures, _ = run_ops(_SlowWorkload(1, str(ROOT)), 0.01, done)
    assert len(done) == 1 and len(failures) == 1
    assert 0.1 <= lat[0] < 1.0


def test_tail_and_throughput():
    xs = list(range(1, 101))
    value, pct, above = tail(xs)
    assert (value, above) == (90, 10) and pct == 90.0
    assert tail([5.0, 1.0, 3.0]) == (3.0, 50.0, 1)
    kinds = ["a", "a", "b"]
    assert weighted_throughput(kinds, [1.0, 1.0, 4.0], {"a": 0.5, "b": 0.5}) == 0.4


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
