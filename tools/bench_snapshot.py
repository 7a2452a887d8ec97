"""Write a benchmark snapshot: the medians of perfbench runs, each in a fresh process.

    python3 tools/bench_snapshot.py --out BENCH_2.json
    python3 tools/bench_snapshot.py --out BENCH_1.json --checkout ../parent

For every workload in the checkout's ``BENCHMARK.json`` and each of the seeds
0, 1 and 2 this runs ``python3 perfbench/run.py --workload W --seed S`` from
the checkout's root, in a new process, for run.py's default run length.
The last line a run prints is its JSON result (see ``perfbench/README.md``);
the ``# env`` line before it is the environment.
The snapshot holds the environment, the attempted and failed item counts,
the median of each end-to-end metric over the seeds with every run's value,
and the median of each per-layer metric from one more run per seed with
``--trace 1``.  Runs are made one after the other, never in parallel.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)


def parse_run(stdout):
    """The environment and the JSON result of one ``run.py --workload`` run:
    the ``# env`` line and the last line of its output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), None)
    result = json.loads(lines[-1])
    if not {"correct", "attempted", "failed", "metrics"} <= result.keys():
        raise ValueError(f"not a run result: {lines[-1][:80]}")
    return env, result


def run_once(checkout, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout, text=True, capture_output=True, check=False)
    if proc.returncode:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return parse_run(proc.stdout)


def medians(results):
    """{metric: {"median", "unit", "values"}} over the runs' results."""
    names = results[0]["metrics"]
    return {name: {"median": statistics.median(r["metrics"][name]["value"] for r in results),
                   "unit": names[name]["unit"],
                   "values": [r["metrics"][name]["value"] for r in results]}
            for name in names}


def snapshot(checkout, workloads):
    out = {"checkout_env": None, "seeds": list(SEEDS), "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            env, result = run_once(checkout, workload, seed, 0)
            out["checkout_env"] = out["checkout_env"] or {k: v for k, v in env.items()
                                                          if k != "seed"}
            runs.append(result)
            print(f"{workload} seed {seed}: p50 "
                  f"{result['metrics']['item_ms_p50']['value']:.4g} ms", file=sys.stderr)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs),
                 "end_to_end": medians(runs)}
        entry["per_layer"] = {name: m["median"] for name, m in medians(
            [run_once(checkout, workload, seed, 1)[1] for seed in SEEDS]).items()}
        out["workloads"][workload] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in json.loads(
        (args.checkout / "BENCHMARK.json").read_text())["workloads"]]
    data = snapshot(args.checkout.resolve(), workloads)
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0 if all(w["correct"] for w in data["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
