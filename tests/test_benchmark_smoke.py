"""The benchmark's own self-test, run as part of the test suite: a change
that renames or stops calling a boundary the benchmark traces (such as
`functors.push_star`, `quiver.local_ops` or `linalg.char_poly`) fails here
rather than only when the benchmark runs."""

import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE = os.path.join(ROOT, "perfbench", "smoke.py")


def test_benchmark_smoke_passes():
    done = subprocess.run([sys.executable, SMOKE], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_committed_bench_trajectory_is_complete():
    """Every committed BENCH_*.json parses and holds its seeds, a claim
    that is null or names a benchmark workload and end-to-end metric, and,
    per workload of BENCHMARK.json and per side (parent, change), one
    failed count per seed and a median of each end-to-end metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    assert len(metrics) == 6
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
        name = os.path.basename(path)
        seeds = record["seeds"]
        assert seeds and all(type(s) is int for s in seeds), name
        claimed = record["claimed"]
        assert claimed is None or (claimed["workload"] in workloads
                                   and claimed["metric"] in metrics), name
        for w in workloads:
            entry = record["workloads"][w]
            for side in ("parent", "change"):
                failed = entry["failed"][side]
                assert len(failed) == len(seeds), (name, w, side)
                assert all(type(n) is int and n >= 0 for n in failed), (name, w, side)
                for m in metrics:
                    median = entry["metrics"][m][side]["median"]
                    assert isinstance(median, (int, float)) and median == median, (name, w, m)
