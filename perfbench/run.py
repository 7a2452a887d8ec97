"""lcak benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload catalog_exact --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 15 [--trace 1]

With ``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it measures the per-layer metrics from spans recorded around lcak's public
functions.  ``--all`` runs every workload, each in a fresh process, and
prints one table.  The last line of a ``--workload`` run is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Run it from the root of a checkout: lcak is imported from ``src/`` there.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# one single-threaded process: no BLAS thread pools
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

IMPORT_REPEATS = 5
INPUT_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END = {"items_per_s": "1/s", "item_ms_p50": "ms", "item_ms_tail": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_lcak():
    if not (SRC / "lcak" / "__init__.py").is_file():
        raise SetupError(f"no lcak package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lcak
    if Path(lcak.__file__).resolve().parent != (SRC / "lcak").resolve():
        raise SetupError(f"imported lcak from {lcak.__file__}, not from {SRC}")
    return lcak


def environment(seed):
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lcak").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], "seed": seed,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {k: os.environ.get(k) for k in THREAD_VARS}}


def fresh_import_seconds():
    """Time to import lcak in a new interpreter, measured inside it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import lcak; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], text=True,
                          capture_output=True, check=True, timeout=120)
    return float(proc.stdout.strip())


def tail(times_ms):
    """Value at the highest percentile with at least TAIL_BEYOND items beyond
    it (nearest rank), that percentile and the items beyond it; the maximum
    when there are too few items."""
    ordered = sorted(times_ms)
    n = len(ordered)
    rank = max(1, n - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def run_checked(lcak, workload, item):
    """Run one item and its oracle; returns (seconds of the call, failure)."""
    start = time.perf_counter()
    try:
        out = workload.run(lcak, item)
    except Exception as e:  # an exception is a failed item, never fatal
        return time.perf_counter() - start, ("error", f"{type(e).__name__}: {e}")
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check(lcak, item, out)
    except Exception as e:
        return elapsed, ("wrong", f"oracle could not read output: {type(e).__name__}: {e}")


def setup(lcak, workload, seed):
    imports = [fresh_import_seconds() for _ in range(IMPORT_REPEATS)]
    gens = []
    for _ in range(INPUT_REPEATS):
        start = time.perf_counter()
        items = workload.make(lcak, seed)
        gens.append(time.perf_counter() - start)
    return items, statistics.median(imports) + statistics.median(gens)


def measure(lcak, workload, items, seconds, min_items=None):
    """Closed loop over the item pool for at least ``seconds`` and at least
    ``min_items`` items (the workload's own minimum by default); only the
    calls themselves are timed."""
    min_items = workload.min_items if min_items is None else min_items
    for item in items[:workload.warmup]:
        run_checked(lcak, workload, item)
    times, failures = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < min_items:
        item = items[len(times) % len(items)]
        elapsed, failure = run_checked(lcak, workload, item)
        times.append(elapsed)
        if failure:
            failures.append((item.id, *failure))
    return times, failures


def end_to_end(lcak, workload, seed, seconds, min_items=None):
    items, setup_s = setup(lcak, workload, seed)
    times, failures = measure(lcak, workload, items, seconds, min_items)
    ms = [t * 1e3 for t in times]
    tail_ms, tail_pct, beyond = tail(ms)
    metrics = {
        "items_per_s": len(times) / sum(times),
        "item_ms_p50": statistics.median(ms),
        "item_ms_tail": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"items": len(times), "tail_percentile": round(tail_pct, 2),
             "items_beyond_tail": beyond}
    return metrics, END_TO_END, failures, len(times), notes


def traced(lcak, workload, seed, seconds, trace_items=None, profile_items=None):
    """Alternate untraced and traced passes over a fixed item list, then
    count fraction calls in one profiled pass."""
    from perfbench import trace
    items = workload.make(lcak, seed)[:trace_items or workload.trace_items]
    for item in items[:workload.warmup]:
        run_checked(lcak, workload, item)
    tracer = trace.Tracer()
    first_pass_spans = None
    plain_s = traced_s = 0.0
    failures = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        for item in items:
            run_checked(lcak, workload, item)
        t1 = time.perf_counter()
        try:
            tracer.install()
            for item in items:
                _, failure = tracer.run_item(f"{passes}/{item.id}", run_checked,
                                             lcak, workload, item)
                if failure:
                    failures.append((item.id, *failure))
        finally:
            tracer.uninstall()
        plain_s += t1 - t0
        traced_s += time.perf_counter() - t1
        passes += 1
        first_pass_spans = first_pass_spans or len(tracer.spans)
    profiled = items[:profile_items or workload.profile_items]
    fraction_calls = trace.count_fraction_calls(
        lambda: [run_checked(lcak, workload, item) for item in profiled])
    count = passes * len(items)
    metrics = trace.per_layer_metrics(tracer, count, fraction_calls / len(profiled),
                                      traced_s / plain_s - 1)
    notes = {"passes": passes, "items_per_pass": len(items), "spans": len(tracer.spans),
             "tracing_overhead_frac": metrics["tracing.overhead_frac"]}
    return metrics, trace.metric_units(), failures, count, notes, tracer.spans[:first_pass_spans]


def run_workload(args):
    try:
        lcak = import_lcak()
    except (SetupError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    from perfbench import trace
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if args.trace:
        metrics, units, failures, attempted, notes, spans = traced(
            lcak, workload, args.seed, args.seconds)
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace_{workload.name}_{args.seed}.json"
        trace.dump(path, spans, {"env": env, "workload": workload.name, **notes})
        notes["trace_file"] = str(path.relative_to(ROOT))
    else:
        metrics, units, failures, attempted, notes = end_to_end(
            lcak, workload, args.seed, args.seconds)
    wrong = [f for f in failures if f[1] != "undecided"]
    notes["failed_frac"] = len(failures) / attempted
    notes["failed_items"] = sorted({f[0] for f in failures},
                                   key=lambda s: int(s.split(":", 1)[0]))
    print(f"# workload {workload.name} {json.dumps(notes, sort_keys=True)}")
    for item_id, kind, reason in failures[:20]:
        print(f"# failed {item_id} {kind}: {reason}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; one table of the results."""
    from perfbench.workloads import WORKLOADS
    status = 0
    print(f"{'workload':<22} {'metric':<40} {'value':>12}  unit")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, text=True, capture_output=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name:<22} failed (exit {proc.returncode}): {proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(lines[-1])
        notes = next(json.loads(line.split(" ", 3)[3]) for line in lines
                     if line.startswith(f"# workload {name} "))
        for metric, m in result["metrics"].items():
            print(f"{name:<22} {metric:<40} {m['value']:>12.6g}  {m['unit']}")
        print(f"{name:<22} {'(attempted / failed / failed_frac)':<40} "
              f"{result['attempted']} / {result['failed']} / {notes['failed_frac']:.4g}")
        for key in ("tail_percentile", "items_beyond_tail", "tracing_overhead_frac"):
            if key in notes:
                print(f"{name:<22} {'(' + key + ')':<40} {notes[key]:>12.6g}")
        if notes["failed_items"]:
            print(f"{name:<22} failed items: {' '.join(notes['failed_items'])}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=list(WORKLOADS))
    group.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
