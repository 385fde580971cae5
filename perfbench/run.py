"""Benchmark one coins workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload joint_train --seed 0 --seconds 10 --trace 0

Run from the repository root. The program is imported from ``src/`` of
the checkout the script sits in. ``--trace 0`` times a cold set-up and
then repeats the workload's operation until ``--seconds`` have passed,
and prints the end-to-end metrics. ``--trace 1`` runs a fixed number of
operations untraced, then the same operations with per-module timers
installed, and prints the per-module metrics plus the tracing overhead.
"""

import time

_START = time.perf_counter()  # set-up time counts from here, before any import

import os

# one BLAS thread: as fast as two at this model size, and steadier
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    if not (SRC / "coins" / "__init__.py").is_file():
        sys.exit(f"error: no coins sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coins

    if Path(coins.__file__).resolve().parent != SRC / "coins":
        sys.exit(f"error: imported coins from {coins.__file__}, not from {SRC}")


def _best_rate(samples, k: int) -> float:
    """Rate of the fastest operation: interference from other processes
    only ever adds time, so the fastest of several equal operations is
    the steadiest reading of the program's own speed."""
    return max(s[k] / s[2] for s in samples)


def run_timed(wl, seconds: float):
    """Repeat whole operations until ``seconds`` have passed; returns
    (items, tokens, seconds) per operation that succeeded, the number of
    operations attempted and the set-up seconds."""
    from workloads import CommandFailed

    wl.setup()
    setup_s = time.perf_counter() - _START
    samples, attempted = [], 0
    t_end = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < t_end:
        attempted += 1
        t = time.perf_counter()
        try:
            items, tokens = wl.run_op()
        except CommandFailed as e:
            print(f"operation failed: {e}", file=sys.stderr)
            continue
        samples.append((items, tokens, time.perf_counter() - t))
    return samples, attempted, setup_s


def run_traced(wl):
    """Set-up with the set-up timers on, then ``trace_ops`` operations
    untraced and the same ones traced."""
    from tracing import PER_MODULE, SETUP_METRICS, Tracer

    with Tracer().install(setup_only=True) as setup_tracer:
        wl.setup()
    first = wl.ops_done

    def block():
        items, t = 0, time.perf_counter()
        for _ in range(wl.trace_ops):
            items += wl.run_op()[0]
        return items, time.perf_counter() - t

    items, plain_s = block()
    wl.ops_done = first  # the traced block repeats the same operations
    with Tracer().install() as tracer:
        traced_items, traced_s = block()
    if traced_items != items:
        raise RuntimeError(f"traced block did {traced_items} items, untraced {items}")
    values = tracer.metrics(name for name, _, _ in PER_MODULE)
    metrics = {name: (values[name], unit) for name, unit, _ in PER_MODULE}
    for name in SETUP_METRICS:
        metrics["setup." + name] = (setup_tracer.metrics([name])[name], "s")
    plain_rate, traced_rate = items / plain_s, items / traced_s
    metrics["trace.items"] = (items, "count")
    metrics["trace.untraced_items_per_s"] = (plain_rate, "items/s")
    metrics["trace.traced_items_per_s"] = (traced_rate, "items/s")
    metrics["trace.overhead"] = (plain_rate / traced_rate - 1.0, "share")
    return metrics, 2 * wl.trace_ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            metrics, attempted = run_traced(wl)
            failed = 0
        else:
            samples, attempted, setup_s = run_timed(wl, args.seconds)
            if not samples:
                sys.exit("error: every operation failed")
            failed = attempted - len(samples)
            metrics = {
                "setup_s": (setup_s, "s"),
                "items_per_s": (_best_rate(samples, 0), "items/s"),
                "tokens_per_s": (_best_rate(samples, 1), "tokens/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        problems = wl.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
