"""One workload process: set-up, the timed closed loop, checks, and the
optional traced pass. Started by run.py; prints one JSON line.

The parent pins BLAS/OpenMP to one thread in this process's environment
before numpy loads, and measures set-up from the moment it starts us.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_threads() -> list:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    out = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            func = getattr(handle, sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                out.append({"lib": os.path.basename(lib), "threads": int(func())})
                break
    return out


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration")}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above): the highest percentile that leaves
    at least 10 samples above it; the median when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return statistics.median(xs), 50.0, n // 2
    idx = n - 11
    return xs[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def weighted_throughput(kinds, latencies, weights) -> float:
    """Ops per second of one closed-loop client at the workload's design mix:
    1 / sum_k w_k * mean latency_k over the kinds present in the run."""
    acc = wsum = 0.0
    for kind, w in weights.items():
        xs = [t for k, t in zip(kinds, latencies) if k == kind]
        if xs:
            acc += w * statistics.fmean(xs)
            wsum += w
    return wsum / acc


def run_ops(wl, seconds, done):
    """Closed loop, one client: build the next op untimed, time it, check it.

    An op still running at its limit_s is stopped there; it counts as failed
    and its time so far is kept as a latency sample (a lower bound)."""
    from workloads import Abandoned, digest
    lat, failures, digests = [], [], []
    stream = wl.ops(0)
    end_at = time.monotonic() + seconds
    while time.monotonic() < end_at:
        op = next(stream)
        answer = why = None
        t0 = time.perf_counter()
        try:
            answer = op.run_limited()
        except Abandoned:
            why = f"still running after its {op.limit_s:g} s limit"
        except Exception as err:  # outside the op's contract: counted, reported
            why = f"raised {type(err).__name__}: {err}"
        t1 = time.perf_counter()
        if why is None:
            why = op.check(answer)
        if op.kind in ("gp", "shared") and why is None:
            op.meta["hops"] = answer[0].hops
        done.append(op)
        lat.append(t1 - t0)
        digests.append(digest(answer) if answer is not None else b"")
        if why:
            failures.append((op.kind, why))
    return lat, failures, digests


def end_to_end(wl, done, lat, failures) -> dict:
    kinds = [op.kind for op in done]
    value, pct, above = tail(lat)
    hops = [op.meta["hops"] for op in done if "hops" in op.meta]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": weighted_throughput(kinds, lat, wl.weights()),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * value,
        "op_tail_percentile": pct,
        "op_tail_samples_above": above,
        "failed_ratio": len(failures) / len(done),
        "peak_rss_mb": rss_kb / 1024.0,
        "hops_mean": statistics.fmean(hops) if hops else None,
        "attempted": len(done),
        "failed": len(failures),
        "busy_s": sum(lat),
        "mean_ms_by_kind": {k: 1e3 * statistics.fmean(t for kk, t in zip(kinds, lat) if kk == k)
                            for k in sorted(set(kinds))},
    }


def traced(wl, seconds) -> dict:
    """Untraced pass for half the time, then the same ops again with every
    listed library function wrapped; answers must match byte for byte.

    The benchmark's own work in the traced pass runs inside ``bench.*``
    spans: the answer comparison, and the first cli op of each subcommand
    run again as a fresh process. Time spent in neither a wrapped call nor a
    bench span is left unaccounted."""
    import layers
    from tracer import END, START, Tracer
    from workloads import cli_process, digest

    done: list = []
    lat, failures, digests = run_ops(wl, seconds / 2.0, done)
    tracer = Tracer()
    tracer.install()
    traced_lat, mismatched, process_ms, spawned = [], 0, [], set()
    try:
        t_start = time.perf_counter()
        for k, op in enumerate(done):
            tracer.op = k
            t0 = time.perf_counter()
            try:
                answer = op.run_limited()
            except Exception:  # already counted in the untraced pass
                answer = None
            traced_lat.append(time.perf_counter() - t0)
            with tracer.span("bench.check"):
                mismatched += (digest(answer) if answer is not None else b"") != digests[k]
            if "argv" in op.meta and op.kind not in spawned:
                spawned.add(op.kind)
                with tracer.span("bench.cli_process") as rec:
                    answer = cli_process(op.meta["argv"], wl.root)
                process_ms.append(1e3 * (rec[END] - rec[START]))
                mismatched += answer != op.meta["reference"]
        wall = time.perf_counter() - t_start
    finally:
        tracer.uninstall()
    spans_path = ROOT / ".perfbench" / f"spans-{wl.name}-{wl.seed}-{os.getpid()}.jsonl"
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    kinds = {k: op.kind for k, op in enumerate(done)}
    metrics = layers.per_layer(tracer.spans, kinds, wall)
    main_s = [t for op, t in zip(done, lat) if "argv" in op.meta]
    metrics["cli.process_ms"] = statistics.median(process_ms) if process_ms else 0.0
    metrics["cli.main_ms"] = 1e3 * statistics.median(main_s) if main_s else 0.0
    metrics["cli.startup_ms"] = metrics["cli.process_ms"] - metrics["cli.main_ms"]
    metrics["trace.overhead_ratio"] = sum(traced_lat) / sum(lat)
    return {"metrics": metrics, "attempted": len(done), "failed": len(failures),
            "failures": failures[:5], "trace_mismatches": mismatched,
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
            "shares": wl.shares(done),
            "kinds": {k: sum(op.kind == k for op in done) for k in sorted(set(wl.cycle))}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "toruskit" / "__init__.py").is_file():
        print(f"no toruskit source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import toruskit  # noqa: F401
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, str(ROOT))
    try:
        t1 = time.perf_counter()
        wl.build_corpus()
        t2 = time.perf_counter()
        wl.warmup()
        t3 = time.perf_counter()
        setup = {"t_first_op": time.monotonic(), "import_s": import_s,
                 "corpus_s": t2 - t1, "warmup_s": t3 - t2}
        if args.setup_only:
            print(json.dumps({"setup": setup}))
            return 0
        if args.trace:
            out = traced(wl, args.seconds)
            out["metrics"].update({"import.toruskit_s": import_s,
                                   "setup.corpus_s": setup["corpus_s"],
                                   "setup.warmup_s": setup["warmup_s"]})
        else:
            done: list = []
            lat, failures, _ = run_ops(wl, args.seconds, done)
            out = {"e2e": end_to_end(wl, done, lat, failures),
                   "failures": failures[:5], "shares": wl.shares(done),
                   "kinds": {k: sum(op.kind == k for op in done)
                             for k in sorted(set(wl.cycle))}}
    finally:
        wl.close()
    out["setup"] = setup
    out["blas_threads"] = blas_threads()
    out["machine"] = machine()
    out["skips"] = list(wl.skips)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
