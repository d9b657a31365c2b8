"""Benchmark harness for handpair: one workload per process, closed loop.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client issues the workload's ops back to back for about S seconds (at
least MIN_OPS ops), with BLAS on one thread. With --trace 0 the workload is
set up SETUP_REPEATS times and the last line printed is the end-to-end
result: the median CPU times of the set-ups and of the ops, and the peak
resident set. With --trace 1 the first MIN_OPS ops run untraced, then the
workload is set up again with every layer wrapped by spans.Tracer, the ops
run traced, and the last line holds the per-layer metrics. The line before
the last is a JSON report: environment, checksums, wall and CPU times of
every op and the workload's own named rates. Both lines, and the spans of a
traced run, are also written under bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPEATS = 3
MIN_OPS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = [("op_cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_blas_threads() -> None:
    """Run BLAS on one thread; must run before numpy is imported.

    With one thread the process's CPU time is the work done, without the
    busy-waiting of idle BLAS threads, and a neighbour slowing the other
    vCPU cannot stall every BLAS call at its barrier.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import handpair from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "handpair" / "__init__.py").is_file():
        raise SystemExit(f"bench: no handpair package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import handpair

    if Path(handpair.__file__).resolve().parent != (src / "handpair").resolve():
        raise SystemExit(f"bench: imported handpair from {handpair.__file__}, not {src}")


def git_sha() -> str | None:
    """HEAD of the checkout, read without starting git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(),
        "seed": seed,
    }


def run_ops(work, seconds: float, tracer=None, min_ops: int = MIN_OPS) -> dict:
    """Closed loop: ops back to back until the next one would pass ``seconds``.

    Runs at least ``min_ops`` ops; ``seconds=0`` runs exactly that many.
    """
    from workloads import digest

    times, cpu_times, outs, problems = [], [], [], []
    failed = 0
    checksum = None
    start = time.perf_counter()
    r = 0
    while r < min_ops or time.perf_counter() - start + times[-1] <= seconds:
        inp = work.inputs(r)
        t, c = time.perf_counter(), time.process_time()
        try:
            with tracer.recording("ops", r) if tracer else nullcontext():
                out = work.op(inp)
            times.append(time.perf_counter() - t)
            cpu_times.append(time.process_time() - c)
            found = work.check(inp, out)
            if r == 0:
                checksum = work.output_bytes(out)
            if tracer and "degenerate_cov" in out:
                tracer.count("ops", "degenerate_cov", out["degenerate_cov"])
            outs.append(out)
        except Exception:  # one failed op is reported, the loop goes on
            times.append(time.perf_counter() - t)
            cpu_times.append(time.process_time() - c)
            found = [traceback.format_exc(limit=4)]
        if found:
            failed += 1
            problems += [f"op {r}: {p}" for p in found]
        r += 1
    return {"times": times, "cpu_times": cpu_times, "outs": outs, "failed": failed, "problems": problems,
            "checksum": checksum, "input_sha256": digest(work.fixed, work.inputs(0))}


def run_untraced(cls, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    setup_times, setup_cpu = [], []
    for _ in range(SETUP_REPEATS):
        work = None
        gc.collect()
        t, c = time.perf_counter(), time.process_time()
        work = cls(seed)
        setup_times.append(time.perf_counter() - t)
        setup_cpu.append(time.process_time() - c)
    ops = run_ops(work, seconds)
    median_s = statistics.median(ops["times"])
    summary = cls.summary(ops["outs"], median_s) if ops["outs"] else {}
    summary["failed_share"] = (ops["failed"] / len(ops["times"]), "ratio")
    metrics = {
        "op_cpu_s": statistics.median(ops["cpu_times"]),
        "setup_s": statistics.median(setup_cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {"setup_times_s": setup_times, "setup_cpu_s": setup_cpu,
              "named": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()}}
    return ops, report, metrics


def run_traced(cls, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    from spans import Tracer

    # The first ops, untraced, from a set-up of their own: op r gets the same
    # inputs and state in both loops, so their outputs must match.
    untraced = run_ops(cls(seed), 0)
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.recording("setup"):
            work = cls(seed)
        ops = run_ops(work, seconds, tracer)
    finally:
        tracer.restore()
    # Traced over untraced wall time of the same ops. Host noise moves it by
    # more than tracing costs, so the per-layer metric is built from the
    # wrapper's own cost instead (Tracer.call_cost_ns).
    measured = sum(ops["times"][:MIN_OPS]) / sum(untraced["times"]) - 1.0
    checks = {
        "untraced_ops_ok": untraced["failed"] == 0,
        "traced_checksum_matches": ops["checksum"] == untraced["checksum"],
        "originals_restored": tracer.originals_in_place(),
        "self_times_nonnegative": tracer.self_times_ok(),
    }
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{cls.name}-seed{seed}-spans.jsonl")
    call_cost_ns = Tracer.call_cost_ns()
    report = {"untraced_op_times_s": untraced["times"],
              "measured_overhead_share": measured, "call_cost_ns": call_cost_ns,
              "untraced_checksum": untraced["checksum"],
              "checks": checks, "missing_targets": tracer.missing,
              "calls": {k: v for k, v in tracer.phases["ops"].calls.items()}}
    return ops, report, tracer.metrics("ops", "setup", call_cost_ns)


def execute(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload in this process; returns (report, result)."""
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    runner = run_traced if trace else run_untraced
    ops, extra, values = runner(cls, seed, seconds)
    checks = extra.pop("checks", {})
    correct = ops["failed"] == 0 and all(checks.values())
    if trace:
        from spans import per_layer_metrics

        units = dict(per_layer_metrics())
    else:
        units = dict(END_TO_END)
    result = {
        "correct": correct,
        "attempted": len(ops["times"]),
        "failed": ops["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = {
        "workload": workload, "seconds": seconds, "trace": int(trace),
        "env": environment(seed),
        "output_sha256": ops["checksum"],
        "input_sha256": ops["input_sha256"],
        "op_times_s": ops["times"],
        "op_cpu_s": ops["cpu_times"],
        "problems": ops["problems"][:20],
        "checks": checks,
        **extra,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_small", "train_paper", "sample", "evaluate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pin_blas_threads()
    import_program()
    report, result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"report": report, "result": result},
                                                 indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
