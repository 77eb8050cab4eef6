"""Parameters that the benchmark's span hooks (perfbench/tracer.py) read
and that its workloads pass by position.

The hooks take arguments by position or by name: pq_projectors' exact_mode
splits hodge.pq_projectors.exact_s from float_s, lll_reduce's basis gives
the row count, and common_metric's (i, j) re-check its answer at HOP_TOL.
The chain workload also calls pair_factorize(g, h) by position to screen its
pairs, and the tracer wraps that call inside connect's span. A
renamed or moved parameter would leave a hook reading its default, and a
per-layer number would silently read 0, so the signatures are pinned here.
"""

import inspect

from toruskit import hodge, lattice, moduli

from conftest import t0_exact


def params(fn) -> list:
    return list(inspect.signature(fn).parameters)


def test_pq_projectors_takes_exact_mode_third():
    assert params(hodge.pq_projectors)[:3] == ["j", "degree", "exact_mode"]


def test_lll_reduce_takes_basis_first():
    assert params(lattice.lll_reduce)[0] == "basis"


def test_common_metric_takes_i_j_first():
    assert params(moduli.common_metric)[:2] == ["i", "j"]
    assert isinstance(moduli.HOP_TOL, float)


def test_pair_factorize_takes_g_h_seed():
    assert params(moduli.pair_factorize) == ["g", "h", "seed"]


def test_exact_projectors_are_asked_for_visibly(monkeypatch):
    # the hook reads exact_mode at position 2 or as a keyword, so the exact
    # kernel's call must pass it one of those ways
    calls = []
    real = hodge.pq_projectors

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(hodge, "pq_projectors", spy)
    hodge.integral_pp_kernel(t0_exact(), 1)
    assert calls
    for args, kwargs in calls:
        assert (args[2] if len(args) > 2 else kwargs.get("exact_mode")) is True
