"""Seeded corpora, operations and answer checks for the workloads.

Every input comes from ``numpy.random.default_rng([seed, workload tag,
stream, position, ...])``: stream 0 is the timed corpus and stream 1 the
warm-up, so warm-up never touches a timed input. The warm-up stream uses
seed 0 whatever the run's seed, so set-up does the same work on every run.
Each workload repeats a fixed cycle of op kinds, so a second seed gives the
same mix; the shares that depend on the drawn inputs are measured and
reported.

An op is built untimed (``Op.run`` holds everything the client calls), then
timed, then checked. A check returns None or a one-line reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import toruskit as tk
from toruskit import bundles, cli, exact, fourier, hodge, moduli, serialize, twistor
from toruskit.fourier import FourierForm, FourierFormSpace
from toruskit.linalg import random_spd

from env import worker_env

TIMED, WARMUP = 0, 1
N = 3
TWO_N = 2 * N


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    meta: dict = field(default_factory=dict)
    limit_s: float | None = None  # give up on the op after this long


    def run_limited(self):
        if self.limit_s is None:
            return self.run()
        with deadline(self.limit_s):
            return self.run()


class Raised:
    """The answer of an op whose contract is to raise."""

    def __init__(self, err: Exception):
        self.type = type(err).__name__

    def canon(self):
        return ("raised", self.type)


def expect_raise(call, exc_type):
    try:
        return call()
    except exc_type as err:
        return Raised(err)


def canon(x):
    """Exact, hashable-by-repr form of an answer; floats keep every bit."""
    if isinstance(x, Raised):
        return x.canon()
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return ("obj", x.shape, tuple(repr(v) for v in x.ravel()))
        return ("arr", str(x.dtype), x.shape, x.tobytes().hex())
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((repr(k), canon(v)) for k, v in x.items()))
    if isinstance(x, FourierForm):
        return ("form", x.q, x.extra, canon(x.modes))
    if isinstance(x, hodge.MultiVector):
        return canon(x.coeffs)
    if hasattr(x, "__dataclass_fields__"):
        return (type(x).__name__,
                tuple((k, canon(getattr(x, k))) for k in x.__dataclass_fields__))
    if isinstance(x, float):
        return float.hex(x)
    return repr(x)


def digest(x) -> bytes:
    return repr(canon(x)).encode()


def rng_for(seed: int, tag: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, *key])


def _close(a, b, tol) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) < tol)


class Workload:
    name = ""
    tag = 0
    cycle: tuple = ()
    warm_kinds: tuple = ()
    skips: tuple = ()

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def build_corpus(self):
        """Draw the timed corpus (set-up)."""

    def warmup(self):
        """Run the first op of each warm-up kind on the warm-up stream (set-up):
        first calls pay lazy imports and cache fills that users pay once."""
        todo = set(self.warm_kinds or self.cycle)
        for op in self.ops(WARMUP):
            if not todo:
                break
            if op.kind not in todo:
                continue
            todo.discard(op.kind)
            why = op.check(op.run_limited())
            if why:
                raise RuntimeError(f"warm-up {op.kind} failed its check: {why}")

    def ops(self, stream: int):
        raise NotImplementedError

    def rng(self, stream: int, *key: int) -> np.random.Generator:
        return rng_for(self.seed if stream == TIMED else 0, self.tag, stream, *key)

    def kind_at(self, pos: int) -> str:
        return self.cycle[pos % len(self.cycle)]

    def shares(self, done: list[Op]) -> dict:
        """Measured share of each input property over the ops run."""
        total = max(len(done), 1)
        out = {f"kind.{k}": sum(op.kind == k for op in done) / total
               for k in sorted(set(self.cycle))}
        return out

    def weights(self) -> dict:
        """Design share of each op kind in the cycle."""
        return {k: self.cycle.count(k) / len(self.cycle) for k in set(self.cycle)}

    def close(self):
        pass


# ---------------------------------------------------------------------------
# chain: moduli.connect + verify_chain


class Abandoned(Exception):
    """An op still running at its limit_s."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise Abandoned in the main thread after `seconds` of wall time."""
    def fire(signum, frame):
        raise Abandoned()
    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# A feasible first factorization takes at most about 0.3 s; an infeasible one
# exhausts every start (3 s or more) before connect retries or takes 6 hops.
SCREEN_LIMIT_S = 1.5
# A connect whose first factorization succeeds finishes in well under 1 s. One
# that runs this long has left the screened route: it is timed up to here and
# counted as failed.
TIMED_CONNECT_LIMIT_S = 10.0


def first_attempt_feasible(i, j, limit: float = SCREEN_LIMIT_S) -> bool:
    """Does connect's first factorization target (the {1,J}-averages of Id)
    factorize within `limit` seconds? The call is the one connect makes first,
    with the same inputs and seed, so a pair that passes takes the 3-hop route
    on its first attempt."""
    g = moduli.compatible_metric(i)
    h = moduli.compatible_metric(j)
    try:
        with deadline(limit):
            moduli.pair_factorize(g, h)
        return True
    except (tk.FactorizationFailed, Abandoned):
        return False


def general_position_pair(rng):
    """Structures compatible with two independent random SPD metrics (cond 10)."""
    ga = tk.Metric(random_spd(TWO_N, rng, cond=10.0))
    gb = tk.Metric(random_spd(TWO_N, rng, cond=10.0))
    return (tk.random_structure(ga, int(rng.integers(2 ** 32))),
            tk.random_structure(gb, int(rng.integers(2 ** 32))))


def shared_metric_pair(rng):
    """Two structures compatible with one random non-identity metric."""
    g = tk.Metric(random_spd(TWO_N, rng, cond=10.0))
    return (tk.random_structure(g, int(rng.integers(2 ** 32))),
            tk.random_structure(g, int(rng.integers(2 ** 32))))


def infeasible_target(rng) -> tk.Metric:
    """An SPD target with log-spectrum (t, 0, 0, 0, 0, 0), t > 0, in a Haar frame.

    No product X^{1/2} Y X^{1/2} of two doubled-spectrum factors has it: the
    multiplicative Weyl inequalities c_2 >= a_{i} + b_{8-i} for i = 2, 4, 6
    sum to 3 c_2 >= sum(c) / 2, which fails for c = (t, 0, ..., 0).
    """
    from toruskit.linalg import haar_orthogonal
    q = haar_orthogonal(TWO_N, rng)
    t = float(rng.uniform(1.0, 2.0))
    spec = np.ones(TWO_N)
    spec[0] = np.exp(t)
    return tk.Metric((q * spec) @ q.T)


def check_chain(i, j, answer) -> str | None:
    """Independent re-check of a chain: endpoints, J^2 = -1, every hop metric
    positive definite and preserved by both of its structures."""
    chain, report = answer
    if not report.ok:
        return "verify_chain reported not ok"
    if chain.hops > 6 or report.hops != chain.hops:
        return f"{chain.hops} hops"
    s = chain.structures
    if not (np.array_equal(s[0].j, i.j) and np.array_equal(s[-1].j, j.j)):
        return "chain endpoints differ from the inputs"
    for k, metric in enumerate(chain.metrics):
        g = metric.g
        if np.linalg.eigvalsh(0.5 * (g + g.T))[0] <= 0:
            return f"hop {k} metric not positive definite"
        scale = np.linalg.norm(g)
        for a in (s[k], s[k + 1]):
            if np.linalg.norm(a.j.T @ g @ a.j - g) > moduli.HOP_TOL * scale:
                return f"hop {k} metric not preserved"
    for a in s:
        if np.linalg.norm(a.j @ a.j + np.eye(TWO_N)) > 1e-8:
            return "structure does not square to -1"
    return None


class ChainWorkload(Workload):
    """General-position pairs, shared-metric pairs, one infeasible target.

    A connect whose first factorization target is infeasible runs for 5-20 s
    (every start fails, then retries or 6 hops), too rare and too variable for
    one run. So each drawn pair is screened while its op is built,
    untimed, by the factorization connect makes first; a pair that fails the
    screen is counted in the infeasible_first_attempt share and replaced by
    the next draw. The failing factorization itself is timed on a provably
    infeasible target once per cycle. The retry and 6-hop routes are not
    timed.
    """

    name = "chain"
    tag = 1
    # 150 general-position pairs and 50 shared-metric pairs per infeasible
    # target: one or two failing factorizations per run, the rest connects.
    cycle = ("infeasible",) + ("gp", "gp", "gp", "shared") * 50
    # A failing factorization takes seconds and runs the same code as gp.
    warm_kinds = ("gp", "shared")
    skips = ("hodge", "fourier", "bundles", "exact", "lattice", "twistor", "serialize",
             "cli")

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.screened = self.screened_out = 0

    def _screened_pair(self, stream, kind, draws):
        """The next drawn pair of this kind whose first factorization succeeds."""
        draw = general_position_pair if kind == "gp" else shared_metric_pair
        while True:
            k = draws[kind]
            draws[kind] += 1
            pair = draw(self.rng(stream, k, int(kind == "gp")))
            if first_attempt_feasible(*pair):
                self.screened += 1
                return pair
            self.screened_out += 1

    def ops(self, stream):
        draws = {"gp": 0, "shared": 0}
        pos = 0
        while True:
            kind = self.kind_at(pos)
            if kind == "infeasible":
                yield self._infeasible_op(infeasible_target(self.rng(stream, pos, 7)))
            else:
                yield self._connect_op(kind, self._screened_pair(stream, kind, draws),
                                       seed=pos)
            pos += 1

    def _connect_op(self, kind, pair, seed):
        i, j = pair

        def run():
            chain = moduli.connect(i, j, moduli.ConnectOptions(seed=seed))
            return chain, moduli.verify_chain(chain)

        return Op(kind, run, lambda ans: check_chain(i, j, ans), meta={"pair": pair},
                  limit_s=TIMED_CONNECT_LIMIT_S)

    def warmup(self):
        super().warmup()
        self.screened = self.screened_out = 0  # shares count timed draws only

    def _infeasible_op(self, target):
        idm = tk.identity_metric(TWO_N)

        def run():
            return expect_raise(lambda: moduli.pair_factorize(idm, target),
                                tk.FactorizationFailed)

        def check(ans):
            if not isinstance(ans, Raised):
                return "provably infeasible target factorized"
            return None

        return Op("infeasible", run, check)

    def shares(self, done):
        out = super().shares(done)
        connects = [op for op in done if op.kind != "infeasible"]
        out["shared_metric"] = (sum(op.kind == "shared" for op in connects)
                                / max(len(connects), 1))
        out["infeasible_first_attempt"] = (self.screened_out
                                           / max(self.screened + self.screened_out, 1))
        return out


# ---------------------------------------------------------------------------
# genericity: hodge float heuristic + exact (p,p) kernel


def rational_periods(rng) -> np.ndarray:
    """[Id | X/2 + iY] with small integer X, Y and Y invertible, as Gaussian
    rationals (the law of random_torus's rational backend)."""
    while True:
        x = rng.integers(-2, 3, (N, N))
        y = rng.integers(-1, 2, (N, N))
        if abs(np.linalg.det(y.astype(float))) >= 0.5:
            break
    m = np.empty((N, TWO_N), dtype=object)
    for a in range(N):
        for b in range(N):
            m[a, b] = exact.QI(1 if a == b else 0)
            m[a, N + b] = exact.QI(Fraction(int(x[a, b]), 2), int(y[a, b]))
    return m


def float_periods(rng) -> np.ndarray:
    return rng.uniform(-1, 1, (N, TWO_N)) + 1j * rng.uniform(-1, 1, (N, TWO_N))


def check_report(torus, report, must_be_non_generic: bool) -> str | None:
    if report.verdict not in ("non_generic", "no_obstruction_found"):
        return f"unknown verdict {report.verdict!r}"
    if must_be_non_generic and report.verdict != "non_generic":
        return "rational torus not reported non_generic"
    if report.verdict == "non_generic" and not report.re_verify(torus):
        return "non_generic witness fails re_verify"
    return None


class GenericityWorkload(Workload):
    """Float sweeps (median), planted float copies, exact kernels (tail)."""

    name = "genericity"
    tag = 2
    # The exact ops set the tail; p = 1 and p = 2 are separate kinds at fixed
    # places in the cycle, so each run holds the same number of each.
    cycle = ("float", "planted", "float", "float", "exact1", "float", "planted",
             "float", "float", "planted", "float", "exact2", "float", "planted")
    # p = 2 runs the same exact code as p = 1, and each takes about 0.5 s.
    warm_kinds = ("float", "planted", "exact1")
    skips = ("moduli", "fourier", "bundles", "twistor", "serialize", "cli")
    corpus_size = 420

    def build_corpus(self):
        self.inputs = [self._draw(TIMED, pos) for pos in range(self.corpus_size)]

    def _draw(self, stream, pos):
        rng = self.rng(stream, pos)
        kind = self.kind_at(pos)
        if kind == "float":
            return float_periods(rng)
        q = rational_periods(rng)
        if kind == "planted":
            return exact.to_complex(q)
        return q

    def ops(self, stream):
        pos = 0
        while True:
            kind = self.kind_at(pos)
            if stream == TIMED:
                periods = self.inputs[pos % len(self.inputs)]
            else:
                periods = self._draw(stream, pos)
            if kind == "float":
                yield self._float_op(periods)
            elif kind == "planted":
                yield self._planted_op(periods)
            else:
                yield self._exact_op(periods, p=int(kind[-1]))
            pos += 1

    def _float_op(self, periods):
        def run():
            torus = tk.make_torus(periods)
            return torus, hodge.is_generic(torus, bound=10)
        return Op("float", run, lambda ans: check_report(ans[0], ans[1], False))

    def _planted_op(self, periods):
        def run():
            torus = tk.make_torus(periods)
            return (torus, hodge.is_generic(torus, bound=10),
                    hodge.pp_class_heuristic(torus, 1, bound=10))

        def check(ans):
            torus, report, w = ans
            why = check_report(torus, report, False)
            if why is None and w is not None:
                j = torus.induced_structure()
                if hodge.hodge_type(w.to_float(), j, tol=hodge.PP_RESIDUAL_TOL) != (1, 1):
                    why = "heuristic (1,1) class is not of type (1,1)"
            return why
        return Op("planted", run, check)

    def _exact_op(self, periods, p):
        def run():
            torus = tk.make_torus(periods)
            return (torus, hodge.is_generic(torus),
                    hodge.integral_pp_kernel(torus, p))

        def check(ans):
            torus, report, kernel = ans
            why = check_report(torus, report, True)
            if why:
                return why
            j = torus.induced_structure()
            for w in kernel:
                if hodge.hodge_type(w.to_float(), j) != (p, p):
                    return f"kernel vector not of type ({p},{p})"
            return None
        return Op(f"exact{p}", run, check, meta={"p": p})


# ---------------------------------------------------------------------------
# deform: fourier / bundles / twistor


def random_frame_space(structure_seed: int) -> FourierFormSpace:
    g = tk.identity_metric(TWO_N)
    point = twistor.twistor_point(tk.random_structure(g, structure_seed), g)
    return FourierFormSpace(N, 4, frame=point.frame.basis)


def exact_seed_params(rng, rank: int, n_modes: int = 6):
    """A handful of modes with |m_k| <= 1 carrying strictly upper-triangular
    End values; dbar of this (0,0)-form is the Massey seed."""
    modes = {}
    while len(modes) < n_modes:
        m = tuple(int(v) for v in rng.integers(-1, 2, TWO_N))
        if any(m):
            modes[m] = None
    iu = np.triu_indices(rank, 1)
    for m in modes:
        c = np.zeros((1, rank, rank), complex)
        c[0][iu] = 0.3 * (rng.standard_normal(len(iu[0]))
                          + 1j * rng.standard_normal(len(iu[0])))
        modes[m] = c
    return int(rng.integers(2 ** 32)), modes


# Block ranks of the residual ops' ext classes, one per residual op of a
# deform cycle, cheapest first (about 4 to 21 ms). Every seed gets the same
# layouts in the same places; only the entries are drawn. The spread of
# sizes keeps the ops around the median of `forms` from all costing the same.
RESIDUAL_LAYOUTS = ((1, 1), (2, 1), (1, 1, 1), (1, 2, 1), (2, 2), (2, 1, 1), (3, 2),
                    (2, 1, 2), (2, 2, 1), (2, 2, 2))


def random_ext_class(rng, ranks) -> bundles.ExtClass:
    ch = bundles.Character.trivial(TWO_N)
    bundle = bundles.GradedFlatBundle(blocks=tuple((ch, r) for r in ranks))
    forms = {}
    for a in range(len(ranks)):
        for b in range(a):
            forms[(a, b)] = (rng.standard_normal((N, ranks[b], ranks[a]))
                             + 1j * rng.standard_normal((N, ranks[b], ranks[a])))
    return bundles.ExtClass(bundle=bundle, forms=forms)


class DeformWorkload(Workload):
    """Massey solves of rank 3-5 (tail), obstruction and twistor ops (median)."""

    name = "deform"
    tag = 3
    # Sorted by cost: obstructed < twistor < residual < massey3 < massey4 <
    # massey5. The median falls inside the 10 residual ops of 32 and the tail
    # (10 samples above) inside the rank-4 solves, well away from a boundary
    # between kinds, so neither jumps between kinds from run to run.
    _half = ("twistor", "residual", "massey4", "residual", "obstructed", "twistor",
             "massey4", "residual", "massey3", "twistor", "residual", "massey4",
             "residual", "twistor", "massey4")
    cycle = ("massey5",) + _half + ("massey4",) + _half
    # Rank 3 runs the same code as ranks 4 and 5 in a fraction of the time.
    warm_kinds = ("massey3", "obstructed", "residual", "twistor")
    skips = ("moduli", "hodge", "exact", "lattice", "serialize", "cli")

    def ops(self, stream):
        pos = residuals = 0
        while True:
            rng = self.rng(stream, pos)
            kind = self.kind_at(pos)
            if kind.startswith("massey"):
                yield self._massey_op(rng, int(kind[-1]))
            elif kind == "obstructed":
                yield self._obstructed_op(rng)
            elif kind == "residual":
                yield self._residual_op(rng, RESIDUAL_LAYOUTS[residuals % len(RESIDUAL_LAYOUTS)])
                residuals += 1
            else:
                yield self._twistor_op(rng)
            pos += 1

    def _massey_op(self, rng, rank):
        structure_seed, modes = exact_seed_params(rng, rank)

        def run():
            space = random_frame_space(structure_seed)
            f = FourierForm(space, 0, modes, extra=(rank, rank))
            return bundles.massey_solve(fourier.dbar(f))

        def check(res):
            if not res.converged:
                return "exact seed did not converge"
            if not res.mc_residual < 1e-9:
                return f"mc_residual {res.mc_residual:.2e}"
            return None
        return Op(f"massey{rank}", run, check, meta={"rank": rank})

    def _obstructed_op(self, rng):
        rank = int(rng.integers(3, 6))
        structure_seed = int(rng.integers(2 ** 32))
        a, b = np.exp(1j * rng.uniform(0, 2 * np.pi, 2)) * rng.uniform(0.5, 2.0, 2)
        k = int(rng.integers(0, rank - 2))
        c = np.zeros((N, rank, rank), complex)
        c[0][k, k + 1] = a
        c[1][k + 1, k + 2] = b

        def run():
            space = random_frame_space(structure_seed)
            theta0 = FourierForm(space, 1, {(0,) * TWO_N: c}, extra=(rank, rank))
            return expect_raise(lambda: bundles.massey_solve(theta0), tk.Obstructed)

        def check(ans):
            return None if isinstance(ans, Raised) else "AB != 0 seed not Obstructed"
        return Op("obstructed", run, check, meta={"rank": rank})

    def _residual_op(self, rng, ranks):
        nu = random_ext_class(rng, ranks)
        structure_seed = int(rng.integers(2 ** 32))

        def run():
            j = tk.random_structure(tk.identity_metric(TWO_N), structure_seed)
            return (bundles.dbar_square_residual(nu, j, 4),
                    bundles.obstruction_norm(nu))

        def check(ans):
            op_norm, tensor_norm = ans
            if not abs(op_norm - tensor_norm) < 1e-10:
                return f"operator {op_norm!r} vs tensor {tensor_norm!r}"
            return None
        return Op("residual", run, check)

    def _twistor_op(self, rng):
        pair_seed, l_seed = (int(v) for v in rng.integers(2 ** 32, size=2))
        ch = bundles.Character.trivial(TWO_N)
        nu = bundles.ExtClass(
            bundle=bundles.GradedFlatBundle(blocks=((ch, 1), (ch, 1))),
            forms={(1, 0): rng.standard_normal((N, 1, 1))
                   + 1j * rng.standard_normal((N, 1, 1))})
        wi = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        wj = rng.standard_normal(N) + 1j * rng.standard_normal(N)

        def run():
            g = tk.identity_metric(TWO_N)
            p_i, p_j = twistor.random_transversal_pair(g, pair_seed)
            at_j = bundles.twistor_extend(nu, p_j, p_i, p_j)
            j2 = tk.random_structure(g, l_seed)
            p_l = twistor.twistor_point(j2, g)
            if not twistor.transversal(p_i, p_l):
                p_l = twistor.twistor_point(twistor.component_flip(j2, g), g)
            nu_l = bundles.twistor_extend(nu, p_j, p_i, p_l)
            back = bundles.twistor_extend(nu_l, p_l, p_i, p_j)
            v = twistor.section_solve(p_i, p_j, wi, wj)
            ki = twistor.kappa(v, p_i).w
            kj = twistor.kappa(v, p_j).w
            same = twistor.psi_transport(p_i, p_j, p_j, wj).w
            return (at_j.forms[(1, 0)], back.forms[(1, 0)], ki, kj, same)

        def check(ans):
            at_j, back, ki, kj, same = ans
            want = nu.forms[(1, 0)]
            if not _close(at_j, want, 1e-9):
                return "extension does not restrict to nu at J"
            if not _close(back, want, 1e-9):
                return "re-extension round trip drifted"
            if not (_close(ki, wi, 1e-9) and _close(kj, wj, 1e-9)):
                return "section does not interpolate"
            if not _close(same, wj, 1e-9):
                return "transport source -> source is not the identity"
            return None
        return Op("twistor", run, check)

    def shares(self, done):
        out = super().shares(done)
        ranks = [op.meta["rank"] for op in done if op.kind.startswith("massey")]
        for r in (3, 4, 5):
            out[f"massey_rank{r}"] = ranks.count(r) / max(len(ranks), 1)
        return out


# ---------------------------------------------------------------------------
# cli: every subcommand through cli.main on seeded documents


EXPECTED_EXIT = {"sample": 0, "check-float": cli.EXIT_INCONCLUSIVE,
                 "check-rational": cli.EXIT_NEGATIVE, "hodge-type": cli.EXIT_NEGATIVE,
                 "connect": 0, "section": 0, "transport": 0, "bundle-extend": 0,
                 "massey": 0, "curvature-scan": 0}


def cli_in_process(argv) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode("utf-8")


def cli_process(argv, root: str) -> tuple[int, bytes]:
    """The same command as a fresh `python -m toruskit.cli` process."""
    proc = subprocess.run([sys.executable, "-m", "toruskit.cli", *argv], cwd=root,
                          env=worker_env(root), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=120, check=False)
    return proc.returncode, proc.stdout


def check_cli(kind, reference, answer) -> str | None:
    code, out = answer
    if code != EXPECTED_EXIT[kind]:
        return f"exit {code}, contract says {EXPECTED_EXIT[kind]}"
    if reference[0] != code:
        return f"exit {code}, reference run gave {reference[0]}"
    if out != reference[1]:
        return "stdout differs from the reference run"
    return None


class CliWorkload(Workload):
    """Every subcommand through cli.main: argument parsing, document decoding,
    the library call, encoding. Interpreter start and import, the rest of
    what a shell script pays, are in setup_s and in the traced run's
    cli.process_ms."""

    name = "cli"
    tag = 4
    cycle = ("sample", "check-float", "check-rational", "hodge-type", "connect",
             "section", "transport", "bundle-extend", "massey", "curvature-scan",
             "sample")
    skips = ()
    # Two cycles of documents, reused in order.
    corpus_cycles = 2

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.screened = self.screened_out = 0
        self.dir = os.path.join(root, ".perfbench", f"cli-{os.getpid()}")

    def _write(self, name, doc) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else serialize.dumps(doc))
        return path

    def _commands(self, c):
        """One cycle of (kind, argv) on documents drawn for cycle index c."""
        rng = self.rng(TIMED, c)
        tag = str(c)
        g = tk.identity_metric(TWO_N)
        seed = int(rng.integers(1_000_000))
        cmds = []
        kinds = ("torus", "structure") if c % 2 == 0 else ("metric", "ext-class")
        cmds.append(("sample", ["sample-torus", "--kind", kinds[0], "--seed", str(seed)]))
        ft = self._write(f"float-{tag}.json",
                         serialize.encode_torus(tk.make_torus(float_periods(rng))))
        cmds.append(("check-float", ["check-generic", "--in", ft, "--seed", str(seed)]))
        rt = self._write(f"rational-{tag}.json",
                         serialize.encode_torus(tk.make_torus(rational_periods(rng))))
        cmds.append(("check-rational", ["check-generic", "--in", rt]))
        coeffs = rng.integers(-3, 4, 15).astype(float)
        coeffs[0] = coeffs[0] or 1.0
        mv = self._write(f"mv-{tag}.json", serialize.encode_multivector(
            hodge.MultiVector(TWO_N, 2, coeffs.astype(complex))))
        cmds.append(("hodge-type", ["hodge-type", "--in", mv, "--torus", ft]))
        if "connect" in self.cycle:
            while True:
                i, j = general_position_pair(rng)
                if first_attempt_feasible(i, j):
                    break
                self.screened_out += 1
            self.screened += 1
            ip = self._write(f"ci-{tag}.json", serialize.encode_structure(i))
            jp = self._write(f"cj-{tag}.json", serialize.encode_structure(j))
            cmds.append(("connect", ["connect", "--i", ip, "--j", jp, "--seed", str(seed)]))
        p_i, p_j = twistor.random_transversal_pair(g, int(rng.integers(2 ** 32)))
        p_l = twistor.twistor_point(tk.random_structure(g, int(rng.integers(2 ** 32))), g)
        gp = self._write(f"g-{tag}.json", serialize.encode_metric(g))
        sp = {name: self._write(f"{name}-{tag}.json",
                                serialize.encode_structure(p.structure()))
              for name, p in (("si", p_i), ("sj", p_j), ("sl", p_l))}

        def vec(name):
            w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            return self._write(f"{name}-{tag}.json",
                               json.dumps([[float(x.real), float(x.imag)] for x in w]))
        cmds.append(("section", ["section", "--i", sp["si"], "--j", sp["sj"],
                                 "--metric", gp, "--wi", vec("wi"), "--wj", vec("wj")]))
        cmds.append(("transport", ["transport", "--i", sp["si"], "--l", sp["sl"],
                                   "--lp", sp["sj"], "--metric", gp, "--t", vec("t")]))
        ch = bundles.Character.trivial(TWO_N)
        nu = bundles.ExtClass(
            bundle=bundles.GradedFlatBundle(blocks=((ch, 1), (ch, 1))),
            forms={(1, 0): rng.standard_normal((N, 1, 1))
                   + 1j * rng.standard_normal((N, 1, 1))})
        ep = self._write(f"ext-{tag}.json", serialize.encode_ext_class(nu))
        cmds.append(("bundle-extend", ["bundle-extend", "--ext", ep, "--i", sp["si"],
                                       "--j", sp["sj"], "--l", sp["sl"], "--metric", gp]))
        _, modes = exact_seed_params(rng, 3)
        form = fourier.dbar(FourierForm(FourierFormSpace(N, 4), 0, modes, extra=(3, 3)))
        fp = self._write(f"massey-{tag}.json", serialize.encode_fourier_form(form))
        cmds.append(("massey", ["massey", "--in", fp]))
        cmds.append(("curvature-scan", ["curvature-scan", "--count", "20",
                                        "--seed", str(seed)]))
        cmds.append(("sample", ["sample-torus", "--kind", kinds[1], "--seed", str(seed)]))
        return cmds

    def build_corpus(self):
        """Write the documents and run each command once for its reference."""
        os.makedirs(self.dir, exist_ok=True)
        self.corpus = []
        for c in range(self.corpus_cycles):
            for kind, argv in self._commands(c):
                self.corpus.append((kind, argv, cli_in_process(argv)))

    def warmup(self):
        seed = int(self.rng(WARMUP).integers(1_000_000))
        argv = ["sample-torus", "--kind", "structure", "--seed", str(seed)]
        op = self._op("sample", argv, cli_in_process(argv))
        why = op.check(op.run())
        if why:
            raise RuntimeError(f"warm-up sample-torus failed its check: {why}")

    def _op(self, kind, argv, reference):
        return Op(kind, lambda: cli_in_process(argv),
                  lambda ans: check_cli(kind, reference, ans),
                  meta={"argv": argv, "reference": reference})

    def ops(self, stream):
        pos = 0
        while True:
            kind, argv, reference = self.corpus[pos % len(self.corpus)]
            yield self._op(kind, argv, reference)
            pos += 1

    def shares(self, done):
        out = super().shares(done)
        if "connect" in self.cycle:
            out["connect_infeasible_first_attempt"] = (
                self.screened_out / max(self.screened + self.screened_out, 1))
        return out

    def close(self):
        if os.path.isdir(self.dir):
            for name in os.listdir(self.dir):
                os.remove(os.path.join(self.dir, name))
            os.rmdir(self.dir)


# ---------------------------------------------------------------------------
# forms: genericity, deform and cli ops in one loop


class FormsCli(CliWorkload):
    """The cli ops of `forms`: every subcommand except connect (moduli)."""

    cycle = tuple(k for k in CliWorkload.cycle if k != "connect")


class FormsWorkload(Workload):
    """The genericity, deform and cli streams taken in turn, one op each.

    Everything except moduli: the workload that bypasses chain's layers, and
    whose latency mix is broad enough that its median and tail move smoothly
    with the speed of the machine."""

    name = "forms"
    skips = ("moduli",)
    parts = (GenericityWorkload, DeformWorkload, FormsCli)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.subs = [cls(seed, root) for cls in self.parts]
        self.cycle = tuple(k for sub in self.subs for k in sub.cycle)

    def build_corpus(self):
        for sub in self.subs:
            sub.build_corpus()

    def warmup(self):
        for sub in self.subs:
            sub.warmup()

    def ops(self, stream):
        streams = [sub.ops(stream) for sub in self.subs]
        while True:
            for it in streams:
                yield next(it)

    def weights(self):
        out = {}
        for sub in self.subs:
            for k, w in sub.weights().items():
                out[k] = out.get(k, 0.0) + w / len(self.subs)
        return out

    def shares(self, done):
        out = super().shares(done)
        for sub in self.subs:
            mine = [op for op in done if op.kind in sub.cycle]
            out.update({f"{sub.name}.{k}": v for k, v in sub.shares(mine).items()
                        if not k.startswith("kind.")})
        return out

    def close(self):
        for sub in self.subs:
            sub.close()


WORKLOADS = {w.name: w for w in (ChainWorkload, FormsWorkload, GenericityWorkload,
                                 DeformWorkload, CliWorkload)}
