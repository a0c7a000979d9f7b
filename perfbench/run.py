"""Benchmark entry point.

    python3 perfbench/run.py --workload sim-default --seed 0 --seconds 40 --trace 0

Runs one workload closed-loop (one caller, the next op issued only after the
previous one returns) for about --seconds, checks every output, prints each
metric by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced passes and
reports the per-layer metrics. Details go to .perfbench_out/ in the
current directory. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def import_library():
    """Import senseauction from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import senseauction
        from senseauction import assignment, pricing, sensing, simengine
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import senseauction from {SRC}: {exc}")
    if not Path(senseauction.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: senseauction resolved outside {SRC}")
    return {"simengine": simengine, "pricing": pricing,
            "assignment": assignment, "sensing": sensing}


def metadata(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload_seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def git_sha() -> str:
    """HEAD commit read from .git without running git; "unknown" outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def untraced_metrics(summary, setup_s: float) -> dict:
    from harness import peak_rss_mb
    return {
        "setup_s": (setup_s, "s"),
        "epochs_per_s": (summary.epochs_per_s, "1/s"),
        "epoch_ms_p50": (summary.epoch_ms_p50, "ms"),
        "epoch_ms_tail": (summary.epoch_ms_tail, "ms"),
        "ok_frac": (1.0 - summary.failed / summary.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_run(workload, ops, seconds: float, modules: dict):
    """Alternate untraced and traced passes; returns (passes, metrics, tracer).

    Alternating keeps slow drift in machine speed out of the overhead
    estimate. Per-layer metrics come from the traced passes only.
    """
    from harness import run_op
    from tracer import Tracer, per_layer_metrics

    tracer = Tracer()
    traced_ops = [replace(op, run=_root_span(tracer, op.run)) for op in ops]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append([run_op(op, workload.budget_s) for op in ops])
        tracer.install(modules)
        try:
            records = []
            for op in traced_ops:
                records.append(run_op(op, workload.budget_s))
                tracer.repair()
            traced.append(records)
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            break

    # Overhead over the ops that settled in every pass.
    settled = [i for i in range(len(ops))
               if all(p[i].status == "ok" for p in plain + traced)]
    base = sum(p[i].seconds for p in plain for i in settled)
    with_trace = sum(t[i].seconds for t in traced for i in settled)
    overhead = with_trace / base - 1.0 if base > 0 else 0.0
    metrics = per_layer_metrics(tracer, len(traced), overhead)
    return plain + traced, metrics, tracer


def _root_span(tracer, run):
    def op_span(*args):
        idx = tracer.open("bench.op")
        try:
            return run(*args)
        finally:
            tracer.close(idx)
    return op_span


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    modules = import_library()
    sys.path.insert(0, str(HERE))
    from harness import run_passes, summarize
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - _T0

    # Set-up is repeated and its median reported, so work moved into set-up
    # shows; the last build is the one that runs.
    builds, workload = [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        t = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed)
        builds.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(builds)
    ops = workload.ops()
    # The saved inputs and their references live for the whole run but are
    # not the program's objects: freeze them out of the collector so that a
    # full collection inside an op scans only what the program allocated.
    gc.collect()
    gc.freeze()

    out_dir = Path.cwd() / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        passes, metrics, tracer = traced_run(workload, ops, args.seconds, modules)
        tracer.write(out_dir / f"spans-{stem}.jsonl")
        extra = {"absent_hooks": tracer.absent}
    else:
        passes = run_passes(ops, workload.budget_s, args.seconds,
                            workload.rounds)
        extra = {}
    workload.close()
    summary = summarize(passes)
    if not args.trace:
        metrics = untraced_metrics(summary, setup_s)
        extra = {"epoch_ms_tail_percentile": round(summary.tail_pct, 3),
                 "epoch_ms_tail_samples": summary.samples,
                 "fail_frac": summary.failed / summary.attempted}

    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail = {"workload": args.workload, "trace": args.trace,
              "passes": len(passes), "budget_s": workload.budget_s,
              "rounds": 1 if args.trace else workload.rounds,
              **metadata(args.seed), **extra,
              "setup_import_s": import_s, "setup_build_s": builds,
              "failures_first_pass": summary.failures,
              "op_seconds_first_pass": {r.label: round(r.seconds, 6) for r in passes[0]},
              "metrics": values}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(detail, indent=2))

    for key in ("workload", "workload_seed", "git_sha", "nproc", "python",
                "numpy", "scipy", "src_lines", "passes", "rounds", "budget_s"):
        print(f"# {key} {detail[key]}")
    for label, what in summary.failures.items():
        print(f"# failed {label}: {' '.join(what)}")
    for key in ("fail_frac", "absent_hooks"):
        if key in extra:
            print(f"# {key} {extra[key]}")
    for name, (value, unit) in metrics.items():
        beside = (f"  (p{summary.tail_pct:.3f} of {summary.samples} samples)"
                  if name == "epoch_ms_tail" else "")
        print(f"{name} {value:.6g} {unit}{beside}")
    print(json.dumps({
        "correct": summary.wrong == 0,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
