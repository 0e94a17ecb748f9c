"""Self-test of the benchmark on tiny inputs (three_lines, C_{1,3}, A1 with
N <= 2): every workload's op path, its checks, the traced path, the metric
names against BENCHMARK.json, and that a corrupted result is counted as a
failure.  Takes a few seconds.

    python3 perfbench/smoke.py

Exits 0 when every check passes.
"""

import json
import math
import os
import random
import re
import shutil
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# The boundaries each workload is meant to exercise; together they cover
# every traced boundary.
EXERCISES = {
    "cold_cli": ("cli.main", "arrangement.build_graph", "oscomplex.os_space",
                 "oscomplex.flag_space", "functors.j0_star", "functors.j0_shriek",
                 "functors.s0", "functors.macpherson", "quiver.c_plus",
                 "linalg.rref", "linalg.rank", "linalg.betti", "linalg.solve_matrix",
                 "linalg.image_basis", "cohomology.local_system_cohomology",
                 "cohomology.intersection_cohomology"),
    "level_tower": ("functors.push_star", "functors.push_shriek", "functors.restrict",
                    "functors.fourier_dual", "functors.specialize", "quiver.dual",
                    "quiver.check_quiver", "quiver.check_nonresonance_class",
                    "quiver.local_ops", "linalg.char_poly"),
    "kz_grid": ("equivariant.build_action", "equivariant.equivariant_c_plus",
                "equivariant.equivariant_cohomology", "liecheck.kz_check",
                "liecheck.bwb_dims"),
}


# Per workload, a function spoiling one op's result so that its check
# must fail: a CLI exit code, a Betti number, a relation violation, a verdict.
CORRUPT = {
    "cold_cli": lambda code: 4,
    "level_tower": lambda r: (r[0], r[1][:-1] + [[("(b)", ((), ()))]], r[2]),
    "kz_grid": lambda out: dict(out, verdict="MISMATCH"),
}


def spoiled(op, corrupt):
    return op._replace(call=lambda: corrupt(op.call()))


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    expect(len(names) == len(set(names)), "metric and workload names are unique")
    expect(all(NAME.fullmatch(n) for n in names), "names are valid")
    expect(all(UNIT.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in spec[key]), "units are valid")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()), "bounds within 0.25")
    expect(bounds["setup_s"] == max(bounds.values()), "setup_s has the largest bound")


def check_metrics(metrics, declared, where):
    expect(list(metrics) == [m["name"] for m in declared],
           f"{where}: emitted metric names match BENCHMARK.json")
    for m in declared:
        value, unit = metrics[m["name"]]
        expect(unit == m["unit"], f"{where}: unit of {m['name']}")
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{where}: {m['name']} is a finite number")


def main():
    run.load_program()
    import spans
    import workloads
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json lists every workload")
    expect(set().union(*EXERCISES.values()) ==
           {f"{m}.{f}" for m, f in spans.BOUNDARIES}, "every boundary is exercised")
    expect(run.tail(list(range(40))) == (29, 75.0, 40), "the tail has ten samples beyond it")
    workdir = os.path.join(run.WORKDIR, f"smoke-{os.getpid()}")
    try:
        for name, cls in workloads.WORKLOADS.items():
            def make():
                return cls(0, workdir, tiny=True)

            ref = run.Reference()
            state, setup_s, _ = run.timed_setup(make, ref)
            loop = run.closed_loop(state.ops(), 0, random.Random(0), ref)
            bad = [(s.label, s.problem) for s in loop.samples if s.problem]
            expect(not bad, f"{name}: tiny ops pass their checks: {bad}")
            expect(loop.passes == 1 and len(loop.samples) == len(loop.walls),
                   f"{name}: a run makes at least one whole pass")
            metrics, _ = run.end_to_end(loop, setup_s)
            check_metrics(metrics, spec["end_to_end"], name)
            expect(all(v > 0 for v, _ in metrics.values()), f"{name}: metrics are nonzero")

            ops = state.ops()
            ops[0] = spoiled(ops[0], CORRUPT[name])
            results = [run.run_op(op) for op in ops]
            expect([bool(s.problem) for s in results] == [True] + [False] * (len(ops) - 1),
                   f"{name}: exactly the corrupted op is counted as failed")

            path = os.path.join(workdir, "trace.jsonl")
            os.makedirs(workdir, exist_ok=True)
            tracer, untraced, traced = run.traced_run(make, spans.Tracer, path)
            expect(not any(s.problem for s in untraced + traced), f"{name}: traced ops pass")
            layer = run.per_layer(tracer, untraced, traced)
            check_metrics(layer, spec["per_layer"], f"{name} traced")
            for boundary in EXERCISES[name]:
                expect(layer[f"{boundary}.calls"][0] > 0, f"{name}: {boundary} is called")
            again = run.traced_run(make, spans.Tracer, path)[0].summary()
            expect({k: v for k, v in again.items() if not k.endswith("_s")} ==
                   {k: v for k, v in tracer.summary().items() if not k.endswith("_s")},
                   f"{name}: traced counts repeat exactly")
            print(f"smoke ok: {name} ({len(loop.samples)} ops, {len(tracer.spans)} spans)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
