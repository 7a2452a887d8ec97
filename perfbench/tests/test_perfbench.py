"""Tests of the benchmark itself: metric names, oracles, count stability.

    python3 -m pytest -q perfbench/tests
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import lcak  # noqa: E402
from perfbench import run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted(name):
    w = WORKLOADS[name]
    metrics, units, _failures, attempted, _notes = run.end_to_end(
        lcak, w, seed=3, seconds=0, min_items=2)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == units
    assert set(metrics) == END_TO_END and attempted == 2
    assert all(metrics[m] > 0 for m in END_TO_END)
    metrics, units, _failures, _n, _notes, _spans = run.traced(
        lcak, w, seed=3, seconds=0, trace_items=2, profile_items=1)
    assert set(metrics) == PER_LAYER
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == units


def test_cli_last_line_is_the_result():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz_float", "--seed", "5",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert '"seed": 5' in proc.stdout and '"nproc"' in proc.stdout


def _flip_flag(text):
    report = json.loads(text)
    flags = report["condition_report"]["flags"]
    flags["is_lcs"] = not flags["is_lcs"]
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _change_byte(text):
    pos = text.index("true")
    return text[:pos] + "tRue" + text[pos + 4:]


def test_planted_wrong_outputs_are_counted():
    """One changed golden byte and one flipped flag both count as failed."""
    w = WORKLOADS["catalog_exact"]
    plants = {"0:A4_1": _change_byte, "1:A4_1@basis": _flip_flag}

    def planted_run(lc, item):
        out = w.run(lc, item)
        return plants[item.id](out) if item.id in plants else out

    items = w.make(lcak, 7)[:4]
    times, failures = run.measure(lcak, dataclasses.replace(w, run=planted_run, warmup=0),
                                  items, seconds=0, min_items=4)
    assert len(times) == 4
    assert [(f[0], f[1]) for f in failures] == [("0:A4_1", "wrong"),
                                                ("1:A4_1@basis", "wrong")]


def test_oracles_reject_planted_outputs():
    aa = WORKLOADS["almost_abelian_exact"]
    item = aa.make(lcak, 2)[0]
    structure, report = aa.run(lcak, item)
    assert aa.check(lcak, item, (structure, report)) is None
    key = next(iter(report.extras["theta"]), "1")
    report.extras["theta"][key] = "12345"
    assert aa.check(lcak, item, (structure, report))[0] == "wrong"

    feas = WORKLOADS["feasibility_exact"]
    item = feas.make(lcak, 2)[5]             # abelian_kahler in a new basis
    out = feas.run(lcak, item)
    assert out["status"] == "feasible" and feas.check(lcak, item, out) is None
    out["witness"] = {k: str(-lcak.arith.parse_scalar(v)) for k, v in out["witness"].items()}
    assert feas.check(lcak, item, out) == ("wrong", "witness fails: ['positive']")

    fuzz = WORKLOADS["fuzz_float"]
    item = fuzz.make(lcak, 2)[0]
    summary = fuzz.run(lcak, item)
    assert fuzz.check(lcak, item, summary) is None
    summary["identity_failures"].append({"check": "bochner"})
    assert fuzz.check(lcak, item, summary)[0] == "wrong"


@pytest.mark.parametrize("name", ["catalog_exact", "feasibility_exact"])
def test_traced_calls_repeat_exactly(name):
    w = WORKLOADS[name]
    runs = [run.traced(lcak, w, seed=4, seconds=0, trace_items=2, profile_items=1)[0]
            for _ in range(2)]
    counts = [{k: v for k, v in m.items()
               if k.endswith((".calls", "fraction_calls", "eigh_calls"))} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["specfile.run_report.calls"] == 1


def test_tail_has_ten_items_beyond():
    assert run.tail(list(range(30))) == (19, pytest.approx(200 / 3), 10)
    assert run.tail([5.0, 1.0]) == (1.0, 50.0, 1)


def test_refuses_without_sources():
    """A directory with only the benchmark's own files cannot run it."""
    bare = ROOT / "perfbench" / "out" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "catalog_exact",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
