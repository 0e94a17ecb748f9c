"""Run the benchmark over several seeds and summarise it as one JSON file.

    python3 perfbench/summarize.py --seeds 1-10 --out perfbench/baseline.json

For every workload: one fresh process per seed with tracing off, giving
each end-to-end metric's median, quartiles and spread (interquartile
distance over median); then two traced runs on the first seed, giving the
per-layer numbers, the self-time share of each module and of the largest
boundaries, and whether the exact counts repeated.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

EXACT = ("oscomplex.space_builds", "linalg.rref.calls", "linalg.rref.cells",
         "equivariant.group_law_products")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1))


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in reversed(lines)
                  if l.startswith("detail "))
    return json.loads(lines[-1]), detail


def spread_of(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def self_shares(layer):
    """Self seconds per module and the five largest per boundary, each with
    its share of their sum: the traced time inside library boundaries."""
    selfs = {k[:-len(".self_s")]: v for k, v in layer.items() if k.endswith(".self_s")}
    base = sum(selfs.values())
    by_module = {}
    for name, v in selfs.items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + v

    def ranked(d, top=None):
        items = sorted(d.items(), key=lambda kv: -kv[1])[:top]
        return {k: {"self_s": v, "share": v / base if base else 0.0} for k, v in items}

    return {"base_self_s": base, "modules": ranked(by_module),
            "top_boundaries": ranked(selfs, 5)}


def summarize(workload, seed_list, seconds):
    runs = [bench(workload, s, seconds, 0) for s in seed_list]
    e2e = {}
    for name in runs[0][0]["metrics"]:
        e2e[name] = spread_of([r["metrics"][name]["value"] for r, _ in runs])
    tail_pct = [d["latency_tail_percentile"] for _, d in runs]
    traced = [bench(workload, seed_list[0], seconds, 1) for _ in range(2)]
    layer = {k: v["value"] for k, v in traced[0][0]["metrics"].items()}
    repeat = {k: [t[0]["metrics"][k]["value"] for t in traced] for k in EXACT}
    ops = layer["bench.traced_ops"]
    return {
        "runs": len(runs),
        "attempted": sum(r["attempted"] for r, _ in runs),
        "failed": sum(r["failed"] for r, _ in runs),
        "latency_tail_percentile": {"min": min(tail_pct), "max": max(tail_pct)},
        "end_to_end": e2e,
        "trace": {
            "seed": seed_list[0],
            "ops": ops,
            "space_builds_per_op": layer["oscomplex.space_builds"] / ops,
            "exact_counts_repeat": all(a == b for a, b in repeat.values()),
            "exact_counts": {k: v[0] for k, v in repeat.items()},
            "self_time": self_shares(layer),
            "slowest_tenth": traced[0][1]["slowest_tenth"],
            "per_layer": layer,
        },
    }


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--out", required=True)
    args = p.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    result = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "processor": platform.processor() or platform.machine()},
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in names:
        result["workloads"][name] = summarize(name, args.seeds, spec["run_seconds"])
        print(f"{name}: " + ", ".join(
            f"{k} {v['median']:.4g} (spread {v['spread']:.3f})"
            for k, v in result["workloads"][name]["end_to_end"].items()), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
