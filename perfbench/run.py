"""quiverarr benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
checkout's ``src/quiverarr``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it describe the run.
"""

import argparse
import collections
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
# The reference unit (see Reference), and its wall time when the host was
# quiet, on the machine the benchmark was written on (2 vCPUs, Python 3.11).
REF_ENTRIES = 16000
REF_READS = 1500
REF_NOMINAL_S = 0.0045


def load_program():
    """Import quiverarr from the checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "quiverarr", "__init__.py")):
        raise SystemExit(f"error: no quiverarr sources under {SRC}")
    sys.path.insert(0, SRC)
    import quiverarr
    if not os.path.abspath(quiverarr.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: quiverarr imported from {quiverarr.__file__}")


def tail(latencies):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count).  The samples are one per op of the
    workload's fixed op list, so the percentile is the same on every
    commit."""
    n = len(latencies)
    beyond = min(10, n - 1)
    return sorted(latencies)[n - beyond - 1], 100.0 * (n - beyond) / n, n


Sample = collections.namedtuple("Sample", "label wall cpu problem")


def run_op(op, tracer=None, op_id=-1):
    """One op: timed call, then its check outside the timed region.  An
    exception or a failed check makes the op a failure."""
    if tracer is not None:
        tracer.op = op_id
        tracer.open("bench.op")
    problem = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failing op is counted, not fatal
        problem = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    c1 = time.process_time()
    if tracer is not None:
        tracer.close()
    if problem is None:
        try:
            problem = op.check(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    return Sample(op.label, t1 - t0, c1 - c0, problem)


class Reference:
    """A fixed pure-Python load that shares no code with quiverarr: sums of
    Fractions read at random from a dict of about 5 MB, more than a core's
    own caches.  On a shared host it slows down with the neighbours' load
    as the program's ops do, so a time divided by the reference units
    measured around it, times REF_NOMINAL_S, is that time at a fixed host
    speed."""

    def __init__(self):
        rng = random.Random(0)
        keys = [(rng.randrange(10 ** 6), rng.randrange(10 ** 6)) for _ in range(REF_ENTRIES)]
        self.table = {k: Fraction(rng.randrange(1, 999), rng.randrange(1, 999)) for k in keys}
        self.walk = [rng.choice(keys) for _ in range(REF_READS)]

    def _walk(self):
        total = Fraction(0)
        for k in self.walk:
            total += self.table[k]
        return total

    def unit(self):
        """Wall and CPU seconds of one walk.  An untimed walk first brings
        the table back into the caches, so that the time does not depend on
        how much of it the op before evicted."""
        self._walk()
        c0 = time.process_time()
        t0 = time.perf_counter()
        self._walk()
        return time.perf_counter() - t0, time.process_time() - c0


def scale(seconds, ref_before, ref_after):
    return seconds * 2 * REF_NOMINAL_S / (ref_before + ref_after)


Loop = collections.namedtuple("Loop", "samples walls cpus passes ref_walls")


def closed_loop(ops, seconds, rng, ref):
    """Whole passes over the ops, each in a new seeded order, while one more
    pass fits in `seconds`; at least one.  A reference unit runs between
    consecutive ops.  Per op, `walls` and `cpus` are the medians over the
    passes of its times scaled by the two units around it: the host's
    slow and fast phases last from one to about thirty seconds, and the
    scaling and the median take them out."""
    start = time.perf_counter()
    samples, ref_walls = [], []
    walls = [[] for _ in ops]
    cpus = [[] for _ in ops]
    before = ref.unit()
    passes = 0
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        for i in order:
            s = run_op(ops[i])
            after = ref.unit()
            samples.append(s)
            walls[i].append(scale(s.wall, before[0], after[0]))
            cpus[i].append(scale(s.cpu, before[1], after[1]))
            ref_walls.append(after[0])
            before = after
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    return Loop(samples, [statistics.median(w) for w in walls],
                [statistics.median(c) for c in cpus], passes, ref_walls)


def timed_setup(make, ref):
    """Set up SETUP_REPEATS times from scratch, each between two reference
    units; keep the last state, the median scaled time and the raw times."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = ref.unit()[0]
        t0 = time.perf_counter()
        state = make().setup()
        raw.append(time.perf_counter() - t0)
        scaled.append(scale(raw[-1], before, ref.unit()[0]))
    return state, statistics.median(scaled), raw


def end_to_end(loop, setup_s):
    """The end-to-end metrics over each op's scaled median time."""
    walls = loop.walls
    value, pct, n = tail(walls)
    metrics = {
        "throughput_ops_s": (len(walls) / sum(walls), "ops/s"),
        "latency_p50_ms": (1000 * statistics.median(walls), "ms"),
        "latency_tail_ms": (1000 * value, "ms"),
        "cpu_ms_per_op": (1000 * sum(loop.cpus) / len(loop.cpus), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = [s.wall for s in loop.samples]
    detail = {"latency_tail_percentile": round(pct, 2), "latency_samples": n,
              "passes": loop.passes,
              "host_speed": REF_NOMINAL_S / statistics.median(loop.ref_walls),
              "unscaled_throughput_ops_s": len(raw) / sum(raw),
              "unscaled_latency_p50_ms": 1000 * statistics.median(raw)}
    return metrics, detail


def per_layer(tracer, untraced, traced):
    """Per-layer metrics of the traced pass, plus the tracing overhead."""
    units = {"calls": "count", "total_s": "s", "self_s": "s"}
    metrics = {}
    for name, value in tracer.summary().items():
        unit = units.get(name.rsplit(".", 1)[1], "count")
        metrics[name] = (value, unit)
    metrics["bench.traced_ops"] = (len(traced), "count")
    metrics["bench.trace_overhead_ops_s"] = (
        len(traced) / sum(s.wall for s in traced)
        - len(untraced) / sum(s.wall for s in untraced), "ops/s")
    return metrics


def slowest_tenth_leader(tracer, traced):
    """The boundary with the most self time over the slowest tenth of the
    traced ops, with its share of their time."""
    ranked = sorted(range(len(traced)), key=lambda i: traced[i].wall, reverse=True)
    slow = set(ranked[:max(1, len(traced) // 10)])
    by_name = tracer.self_time_by_name(slow)
    by_name.pop("bench.op", None)
    total = sum(traced[i].wall for i in slow)
    name = max(by_name, key=by_name.get)
    return {"ops": len(slow), "leader": name,
            "leader_self_s": round(by_name[name], 4), "ops_wall_s": round(total, 4)}


def traced_run(make, tracer_cls, trace_path):
    """One pass over the seed's ops untraced, then one traced, each right
    after its own set-up: cache misses left by the set-up show in the
    counts, and the overhead compares like with like.  The op list is
    fixed by the seed, so the counts repeat exactly."""
    untraced = [run_op(op) for op in make().setup().ops()]
    ops = make().setup().ops()
    tracer = tracer_cls()
    tracer.install()
    try:
        traced = [run_op(op, tracer, i) for i, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    return tracer, untraced, traced


def report(samples, metrics, detail):
    failures = [s for s in samples if s.problem]
    for s in failures[:10]:
        print(f"FAILED {s.label}: {s.problem}")
    detail = dict(detail, error_rate=len(failures) / len(samples))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load_program()
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORKDIR, f"{args.workload}-{args.seed}-{os.getpid()}")

    def make():
        return cls(args.seed, workdir)

    try:
        if args.trace:
            os.makedirs(WORKDIR, exist_ok=True)
            path = os.path.join(WORKDIR, f"trace-{args.workload}-{args.seed}.jsonl")
            tracer, untraced, traced = traced_run(make, spans.Tracer, path)
            detail = {"workload": args.workload, "seed": args.seed,
                      "spans": len(tracer.spans), "trace_file": os.path.relpath(path, ROOT),
                      "slowest_tenth": slowest_tenth_leader(tracer, traced)}
            report(untraced + traced, per_layer(tracer, untraced, traced), detail)
        else:
            ref = Reference()
            state, setup_s, setup_times = timed_setup(make, ref)
            rng = random.Random(f"{args.workload}:order:{args.seed}")
            loop = closed_loop(state.ops(), args.seconds, rng, ref)
            metrics, detail = end_to_end(loop, setup_s)
            detail.update(workload=args.workload, seed=args.seed,
                          unscaled_setup_runs_s=[round(t, 4) for t in setup_times])
            report(loop.samples, metrics, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
