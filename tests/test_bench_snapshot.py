"""The snapshot writer reads a perfbench run's output and takes medians."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_snapshot.py"
spec = importlib.util.spec_from_file_location("bench_snapshot", PATH)
bench_snapshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_snapshot)

RUN_OUTPUT = """\
# env {"commit": null, "nproc": 2, "numpy": "2.4.6", "python": "3.11.7", "seed": 1, \
"src_sha256": "0123456789abcdef", "threads": {"OMP_NUM_THREADS": "1"}}
# workload feasibility_exact {"failed_frac": 0.0, "failed_items": [], "items": 45}
# item_ms_p50 = 2.9 ms
{"correct": true, "attempted": 45, "failed": 0, "metrics": {\
"items_per_s": {"value": 310.5, "unit": "1/s"}, "item_ms_p50": {"value": 2.9, "unit": "ms"}}}
"""


def _result(p50, items_per_s):
    return {"correct": True, "attempted": 45, "failed": 0,
            "metrics": {"items_per_s": {"value": items_per_s, "unit": "1/s"},
                        "item_ms_p50": {"value": p50, "unit": "ms"}}}


def test_parse_run_reads_the_env_line_and_the_last_line():
    env, result = bench_snapshot.parse_run(RUN_OUTPUT)
    assert env["seed"] == 1 and env["src_sha256"] == "0123456789abcdef"
    assert result == _result(2.9, 310.5)


@pytest.mark.parametrize("text", ["", "# env {}\n# item_ms_p50 = 2.9 ms\n",
                                  "# env {}\n" + json.dumps({"correct": True})])
def test_parse_run_refuses_output_without_a_result(text):
    with pytest.raises(ValueError):
        bench_snapshot.parse_run(text)


def test_medians_over_the_seeds():
    runs = [_result(3.0, 300.0), _result(2.0, 330.0), _result(9.0, 100.0)]
    assert bench_snapshot.medians(runs) == {
        "items_per_s": {"median": 300.0, "unit": "1/s", "values": [300.0, 330.0, 100.0]},
        "item_ms_p50": {"median": 3.0, "unit": "ms", "values": [3.0, 2.0, 9.0]},
    }


def test_snapshot_runs_each_seed_plain_and_traced(monkeypatch):
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        return subprocess.CompletedProcess(argv, 0, RUN_OUTPUT, "")

    monkeypatch.setattr(bench_snapshot.subprocess, "run", fake_run)
    data = bench_snapshot.snapshot(Path("."), ["feasibility_exact"])
    # run.py's own default run length holds: no --seconds is passed
    assert not any("--seconds" in argv for argv in calls)
    assert [(argv[argv.index("--seed") + 1], argv[argv.index("--trace") + 1])
            for argv in calls] == [("0", "0"), ("1", "0"), ("2", "0"),
                                   ("0", "1"), ("1", "1"), ("2", "1")]
    entry = data["workloads"]["feasibility_exact"]
    assert data["seeds"] == [0, 1, 2] and entry["attempted"] == 135
    assert entry["per_layer"] == {"items_per_s": 310.5, "item_ms_p50": 2.9}
