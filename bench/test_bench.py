"""Self-test of the benchmark: small mode end to end, and the refusal without sources.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_small_mode_runs_every_workload_and_check():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {(r["workload"], r["trace"]) for r in results} == {
        (w["name"], t) for w in spec["workloads"] for t in (0, 1)
    }
    for result in results:
        assert result["correct"], result
        # the deep-chain ic-build is the one operation allowed to fail
        allowed = 1 if result["workload"] == "taxonomy-scores" else 0
        assert result["failed"] <= allowed, result
        wanted = spec["per_layer"] if result["trace"] else spec["end_to_end"]
        assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
        for metric in wanted:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zipf-wordsim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
