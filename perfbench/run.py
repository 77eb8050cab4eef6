#!/usr/bin/env python3
"""toruskit benchmark: closed-loop workloads, one client each.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 58 --trace 0

Run from the root of a checkout that holds ``src/toruskit``. Each workload
runs in a fresh worker process with BLAS/OpenMP pinned to one thread; the
benchmark starts at most one child at a time. With ``--trace 0`` it prints
the end-to-end metrics (set-up is repeated SETUP_REPEATS times and the
median reported); with ``--trace 1`` it prints the per-layer metrics of a
traced pass. ``--workload all`` runs every workload in turn. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Details of each run are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from env import PIN, worker_env  # noqa: E402

# BENCHMARK.json lists chain and forms; genericity, deform and cli are the
# three parts of forms, runnable alone for a focused comparison.
WORKLOAD_NAMES = ("chain", "forms", "genericity", "deform", "cli")
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0

# Printed for every workload; BENCHMARK.json bounds the subset that is
# defined and nonzero on all of them (failed_ratio is 0 when all is well,
# hops_mean exists only for chain).
E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "failed_ratio": "1", "setup_s": "s", "peak_rss_mb": "MB",
             "hops_mean": "hops"}


class BenchError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; returns (monotonic start, its JSON).

    The worker leads its own process group, so a timeout also stops any
    toruskit process it started."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(str(ROOT)), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired as err:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return t_spawn, json.loads(stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, deadline) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        _, out = spawn(base + ["--trace", "1"], deadline)
        return out

    def setup_only():
        t_spawn, out = spawn(base + ["--setup-only"], deadline)
        return out["setup"]["t_first_op"] - t_spawn

    # Set-up repeats come before and after the timed run, so they sample
    # the machine at different moments rather than in one burst.
    setups = [setup_only() for _ in range(SETUP_REPEATS // 2)]
    t_spawn, out = spawn(base + ["--trace", "0"], deadline)
    setups.append(out["setup"]["t_first_op"] - t_spawn)
    setups += [setup_only() for _ in range(SETUP_REPEATS - len(setups))]
    out["e2e"]["setup_s"] = statistics.median(setups)
    out["setup_runs_s"] = setups
    return out


def machine_record(out: dict) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(), **out.get("machine", {}),
            "blas_threads": out.get("blas_threads"),
            "pin": PIN}


def fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def report(name, seed, seconds, trace, out, spec) -> dict:
    """Print the human-readable lines and return this workload's JSON result."""
    lines = []
    if trace:
        metrics = out["metrics"]
        correct = out["failed"] == 0 and out["trace_mismatches"] == 0
        lines.append(f"workload {name} (traced): {out['attempted']} ops replayed, "
                     f"{out['trace_mismatches']} answers differ from the untraced pass, "
                     f"{out['spans']} spans -> {out['spans_file']}")
        for m in spec["per_layer"]:
            lines.append(f"  {m['name']:44s} {fmt(metrics.get(m['name']))} {m['unit']}")
        wanted = spec["per_layer"]
    else:
        metrics = out["e2e"]
        correct = out["e2e"]["failed"] == 0
        lines.append(f"workload {name}: {metrics['attempted']} ops attempted, "
                     f"{metrics['failed']} failed (seed {seed}, {seconds:g} s timed, "
                     f"closed loop, 1 client, n=3)")
        for key, unit in E2E_UNITS.items():
            note = ""
            if key == "op_tail_ms":
                note = (f"  (p{metrics['op_tail_percentile']:.1f} of "
                        f"{metrics['attempted']} samples, "
                        f"{metrics['op_tail_samples_above']} above)")
            elif key == "setup_s":
                note = "  (median of " + ", ".join(f"{s:.3f}" for s in out["setup_runs_s"]) + ")"
            elif key == "hops_mean" and metrics[key] is None:
                note = "  (chain only)"
            lines.append(f"  {key:14s} {fmt(metrics[key])} {unit}{note}")
        wanted = spec["end_to_end"]
    lines.append("  ops by kind: " + json.dumps(out.get("kinds", {})))
    lines.append("  measured shares: " + json.dumps(out["shares"], sort_keys=True))
    lines.append(f"  skips layers: {', '.join(out['skips']) or 'none'}")
    lines.append("  machine: " + json.dumps(machine_record(out), sort_keys=True))
    for kind, why in out["failures"]:
        lines.append(f"  FAILED {kind}: {why}")
    print("\n".join(lines), flush=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_record(out), **out}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{name}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    attempted = out["attempted"] if trace else metrics["attempted"]
    failed = out["failed"] if trace else metrics["failed"]
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "toruskit" / "__init__.py").is_file():
        print(f"perfbench: no toruskit source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            out = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except BenchError as err:
            print(f"perfbench: {name}: {err}", file=sys.stderr)
            return 1
        results[name] = report(name, args.seed, args.seconds, args.trace, out, spec)
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, res in results.items():
            print(json.dumps({"workload": name, **res}))
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
