"""Seeded inputs, operations and result checks of the benchmark workloads.

A workload's set-up builds its state from the seed; its `ops()` are one
fixed list.  Every seed gives the same mix of op kinds, with seeded
values, so that runs on different seeds pay for the same work.  An op is
one closed-loop request; its check runs after it, outside the timed
region, and returns None or a description of the failure.
"""

import collections
import contextlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction

from quiverarr import (arrangement, cli, cohomology, corpus, errors, functors,
                       liecheck, linalg, oscomplex, quiver)

# Exponents are n/64 with 0 < |n| <= 6, so every sum over at most ten
# hyperplanes stays inside (-1, 1): the "maps close to zero" hypothesis
# holds and the CLI reports it verified.
DENOMINATOR = 64
NUMERATORS = [n for n in range(-6, 7) if n]


# call() is the timed request; check(result) returns None or a failure.
Op = collections.namedtuple("Op", "label call check")


def draw_exponents(rng, graph, kind):
    """Exponents on the hyperplanes of a central arrangement.  "generic"
    has a nonzero sum on every stratum; "zero_sum" is zero at the centre
    only, which makes the tables nonzero; "zero" is the constant system.
    Ruling out zero sums on the other strata keeps the work of one kind
    nearly the same from draw to draw."""
    size = graph.arrangement.size
    if kind == "zero":
        return {j: Fraction(0) for j in range(1, size + 1)}
    centre = tuple(range(1, size + 1))
    strata = [k for k in graph.vertices if graph.level[k] > 0 and k != centre]
    while True:
        nums = [rng.choice(NUMERATORS) for _ in range(size)]
        if kind == "zero_sum":
            nums[-1] -= sum(nums)
            if nums[-1] not in NUMERATORS:
                continue
        elif sum(nums) == 0:
            continue
        if all(sum(nums[j - 1] for j in k) for k in strata):
            return {j: Fraction(n, DENOMINATOR) for j, n in enumerate(nums, start=1)}


def level_zero(graph, values, mixer=None):
    """The level-zero quiver with loop operators mixer * a_j (rank 1 when
    there is no mixer)."""
    base = linalg.Matrix.identity(1) if mixer is None else mixer
    return quiver.level_zero_quiver(
        graph, base.rows, {j: base.scale(v) for j, v in values.items()})


def table(report_betti):
    return {int(k): int(v) for k, v in report_betti.items()}


def aomoto_table(graph, values):
    """Betti table of the Aomoto complex: the oracle for rank-1 local
    tables."""
    rep = cohomology.aomoto_report(graph, oscomplex.ExponentAssignment(values))
    return table(rep.betti)


def vanishing_or_none(name, got, values):
    """A nonzero exponent sum at the centre of a central arrangement
    kills the whole table (Yuzvinsky 1995; for IH, the C*-monodromy
    of the conic extension is nontrivial)."""
    if sum(values.values()) != 0 and any(got.values()):
        return f"{name} table {got} is not zero for exponent sum {sum(values.values())}"
    return None


def compare(name, got, want):
    return None if got == want else f"{name} table {got} != expected {want}"


# -- cold_cli -----------------------------------------------------------------------

# Central arrangements in C^3 and C^4 with 6-8 hyperplanes.  The seed moves
# each one by an integer change of coordinates and reorders its
# hyperplanes, so the intersection lattice, and with it the work, is the
# same on every seed while the files differ.
TEMPLATES = (
    (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1))),
    (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1),
         (1, -1, 0))),
    (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (0, 1, 1),
         (0, 1, -1), (1, 1, 1))),
    (4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1),
         (1, -1, 0, 0))),
    (4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, -1, 0, 0),
         (0, 0, 1, -1), (1, 1, 1, 1))),
    (4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, -1, 0, 0),
         (0, 1, -1, 0), (0, 0, 1, -1), (1, 0, 0, 1))),
)
MAX_ENTRY = 3
# The ops run on each arrangement: (model, exponent kind), one zero-sum
# and one generic draw per model.  Zero-sum exponents give nonzero tables,
# generic ones zero tables.  C_{1,4}, whose ops take 1-3 s, runs the
# zero-sum pair only.
COLD_OPS = (("local", "zero_sum"), ("ih", "zero_sum"), ("local", "generic"),
            ("ih", "generic"))


def _canonical(normal):
    """The primitive normal with its first nonzero entry positive."""
    g = 0
    for x in normal:
        g = math.gcd(g, x)
    normal = tuple(x // g for x in normal)
    first = next(x for x in normal if x)
    return normal if first > 0 else tuple(-x for x in normal)


def _unimodular(rng, n):
    """A random integer matrix of determinant +-1: a signed permutation
    times elementary row operations with coefficients +-1."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[(rng.choice((1, -1)) if perm[i] == j else 0) for j in range(n)]
         for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def realize(rng, n, normals):
    """Normals of the template moved by a seeded unimodular change of
    coordinates, reordered; entries stay within MAX_ENTRY."""
    while True:
        u = _unimodular(rng, n)
        moved = [_canonical(tuple(sum(v[i] * u[i][j] for i in range(n))
                                  for j in range(n))) for v in normals]
        if max(abs(x) for v in moved for x in v) <= MAX_ENTRY:
            break
    if len(set(moved)) != len(moved):
        raise ValueError("template normals are not distinct")
    rng.shuffle(moved)
    return moved


def write_arrangement(path, n, normals):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {n}\n")
        for v in normals:
            fh.write("H 0 " + " ".join(str(x) for x in v) + "\n")


def write_exponents(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        for j in sorted(values):
            fh.write(f"a {j} {values[j]}\n")


def to_arrangement(n, normals):
    return arrangement.Arrangement(
        n, [arrangement.Hyperplane(0, list(v)) for v in normals])


def _normals(arr):
    return [tuple(int(x) for x in h.normal) for h in arr.hyperplanes]


class ColdCli:
    """Each op is one in-process `quiverarr cohomology --model local|ih`
    run on a generated .arr/.exp pair; every call rebuilds the graph and
    its spaces."""

    name = "cold_cli"

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.workdir = workdir
        # (dimension, normals, moved by the seed, ops)
        if tiny:
            self.shapes = [(2, _normals(corpus.three_lines()), False, COLD_OPS)]
        else:
            self.shapes = [(n, normals, True, COLD_OPS) for n, normals in TEMPLATES]
            self.shapes.append((4, _normals(corpus.c14()), False, COLD_OPS[:2]))

    def setup(self):
        rng = random.Random(f"cold_cli:{self.seed}")
        os.makedirs(self.workdir, exist_ok=True)
        pool = []
        for idx, (n, normals, moved, ops) in enumerate(self.shapes):
            if moved:
                normals = realize(rng, n, normals)
            arr_path = os.path.join(self.workdir, f"a{idx}.arr")
            write_arrangement(arr_path, n, normals)
            graph = arrangement.build_graph(to_arrangement(n, normals))
            for draw, (model, kind) in enumerate(ops):
                values = draw_exponents(rng, graph, kind)
                exp_path = os.path.join(self.workdir, f"a{idx}-{draw}-{model}-{kind}.exp")
                write_exponents(exp_path, values)
                pool.append({"graph": graph, "arr": arr_path, "exp": exp_path,
                             "model": model, "values": values,
                             "out": exp_path + ".json"})
        self.pool = pool
        self.oracle = {}
        # one call ahead of the timed loop loads the CLI's code paths
        warm = pool[0]
        self._run_cli(warm)
        return self

    def _run_cli(self, item):
        argv = ["--output", item["out"], "cohomology", item["arr"],
                "--model", item["model"], "--exp", item["exp"]]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def ops(self):
        return [self._op(item) for item in self.pool]

    def _op(self, item):
        def call():
            if os.path.exists(item["out"]):
                os.remove(item["out"])
            return self._run_cli(item)

        def check(code):
            if code != 0:
                return f"exit code {code}"
            with open(item["out"], encoding="utf-8") as fh:
                rep = json.load(fh)
            bad = [h["name"] for h in rep["hypotheses"] if h["status"] != "verified"]
            if bad:
                return f"hypotheses not verified: {bad}"
            got = table(rep["betti"])
            values = item["values"]
            if item["model"] == "local" and sum(values.values()) == 0:
                return compare("local", got, self._aomoto(item))
            return vanishing_or_none(item["model"], got, values)

        return Op(f"{item['model']} {os.path.basename(item['exp'])}", call, check)

    def _aomoto(self, item):
        key = item["exp"]
        if key not in self.oracle:
            self.oracle[key] = aomoto_table(item["graph"], item["values"])
        return self.oracle[key]


# -- level_tower --------------------------------------------------------------------

def warm_graph(graph):
    """Fill the graph's cached spaces and functor structures with one
    local and one IH table of the constant system."""
    w = level_zero(graph, draw_exponents(None, graph, "zero"))
    cohomology.local_system_cohomology(graph, w)
    cohomology.intersection_cohomology(graph, w)


# Rank-2 ops cycle through these loop-operator mixers, one of each kind a
# small integer matrix can be: a Jordan block, distinct rational
# eigenvalues, eigenvalues +-1, and irreducible characteristic polynomials
# with complex and with irrational roots.  Cycling them, and the
# specialization strata, gives every seed the same mix of work, so that
# the seed changes only the exponents.
MIXERS = tuple(linalg.Matrix.from_rows([[Fraction(x) for x in row] for row in m])
               for m in (((1, 1), (0, 1)), ((2, 0), (0, -1)), ((0, 1), (1, 0)),
                         ((1, -1), (1, 1)), ((2, 1), (1, 1))))


def specializable(graph):
    """Strata strictly between the open one and the centre at which the
    specialization graph exists (its classes keep one codimension)."""
    out = []
    for k in graph.vertices:
        if 0 < graph.level[k] < graph.max_level:
            try:
                arrangement.specialization_graph(graph, k)
            except errors.UnsupportedError:
                continue
            out.append(k)
    return out


class LevelTower:
    """C_{1,3} built once; each op pushes a level-zero quiver
    to the top both ways, restricts back, takes the dual, Fourier dual and a
    specialization, and runs the relation and non-resonance checkers."""

    name = "level_tower"

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        # (arrangement, (rank, exponent kind) of each op).  C_{1,4} is left
        # out: a rank-1 tower there takes about 3 s, a rank-2 one about 11 s.
        both = ("generic", "zero_sum")
        if tiny:
            self.plan = ((corpus.c13, [(r, k) for r in (1, 2) for k in both]),)
        else:
            self.plan = ((corpus.c13, [(1, k) for k in both] * 15
                          + [(2, k) for k in both] * 10),)

    def setup(self):
        self.graphs = [arrangement.build_graph(make()) for make, _ in self.plan]
        self.bases = [specializable(g) for g in self.graphs]
        for g in self.graphs:
            warm_graph(g)
        return self

    def ops(self):
        rng = random.Random(f"level_tower:{self.seed}")
        ops = []
        for g, bases, (_, draws) in zip(self.graphs, self.bases, self.plan):
            for n, (rank, kind) in enumerate(draws):
                values = draw_exponents(rng, g, kind)
                mixer = None if rank == 1 else MIXERS[n % len(MIXERS)]
                ops.append(self._op(g, level_zero(g, values, mixer), bases[n % len(bases)]))
        return ops

    def _op(self, g, w, alpha):
        top = g.max_level

        def call():
            star = functors.push_star(w, top)
            shriek = functors.push_shriek(w, top)
            back = functors.restrict(star, 0)
            full = quiver.Quiver(g, dict(star.spaces), dict(star.maps))
            outputs = [star, shriek, back, quiver.dual(full),
                       functors.fourier_dual(full), functors.specialize(full, alpha)[0]]
            violations = [quiver.check_quiver(v) for v in outputs]
            nonres = quiver.check_nonresonance_class(full)
            return back, violations, nonres

        def check(result):
            back, violations, nonres = result
            bad = [i for i, v in enumerate(violations) if v]
            if bad:
                return f"relation violations in outputs {bad}: {violations[bad[0]][:3]}"
            if back != w:
                return "restricting the * tower back to level 0 does not give w"
            if len(nonres) != len(g.vertices) - 1:
                return f"non-resonance report covers {len(nonres)} vertices"
            return None

        return Op(f"tower {g.arrangement.size} rank {w.dim(g.top())}", call, check)


# -- kz_grid ------------------------------------------------------------------------

# A fixed slice of the KZ cross-check grid.  Every N = 3 instance with a
# highest weight of size at most 2: cheap, they set the median.  Then N = 4
# instances in two cost bands: five with S3 (~0.5 s) and seven with S3 or
# S2 x S2 (~0.3 s).  The tail latency (the 11th largest) falls inside the
# last band.  Instances with the group S4 (3-4 s each) are left
# out: one alone would take a third of a pass.
KZ_SLICE = (
    [("A1", (m,), (3,)) for m in (1, 2, 3)]
    + [(t, hw, w) for t, hws in (("A2", ((1, 0), (0, 1), (1, 1), (2, 0))),
                                 ("B2", ((1, 0), (0, 1), (1, 1))))
       for hw in hws for w in ((0, 3), (1, 2), (2, 1), (3, 0))]
    + [("A3", hw, w) for hw in ((1, 0, 0), (0, 1, 0))
       for w in itertools.product(range(4), repeat=3) if sum(w) == 3]
    + [("A2", (1, 0), (3, 1)), ("B2", (1, 0), (3, 1)), ("A3", (0, 1, 0), (0, 3, 1)),
       ("A3", (0, 1, 0), (1, 3, 0)), ("A2", (0, 1), (1, 3))]
    + [("B2", (0, 1), (3, 1)), ("A2", (0, 1), (3, 1)), ("B2", (1, 0), (2, 2)),
       ("A2", (1, 0), (2, 2)), ("A2", (2, 0), (2, 2)), ("B2", (1, 0), (1, 3)),
       ("A2", (1, 0), (1, 3))]
)
KZ_TINY = (("A1", (1,), (1,)), ("A1", (1,), (2,)), ("A1", (2,), (1,)))
KZ_WARM = {3: ("A3", (1, 0, 0), (1, 1, 1)), 4: ("A3", (1, 0, 0), (2, 1, 1)),
           1: ("A1", (1,), (1,)), 2: ("A1", (1,), (2,))}


def reset_kz_cache():
    """Drop kz_check's per-N graph cache so that each set-up starts cold."""
    cache = getattr(liecheck, "_GRAPH_BY_N", None)
    if cache is not None:
        cache.clear()


class KzGrid:
    """Each op is one kz_check on the fixed slice; the per-N graph cache is
    warmed in set-up."""

    name = "kz_grid"

    def __init__(self, seed, workdir, tiny=False):
        self.slice = KZ_TINY if tiny else KZ_SLICE

    def setup(self):
        reset_kz_cache()
        self.instances = [liecheck.KZInstance(*spec) for spec in self.slice]
        for n in sorted({inst.n for inst in self.instances}):
            liecheck.kz_check(liecheck.KZInstance(*KZ_WARM[n]))
        return self

    def ops(self):
        return [self._op(spec, inst) for spec, inst in zip(self.slice, self.instances)]

    def _op(self, spec, inst):
        def call():
            return liecheck.kz_check(inst)

        def check(out):
            if out["verdict"] != "MATCH":
                return f"verdict {out['verdict']}: {out['quiver_betti']} vs {out['bwb_dims']}"
            return None

        return Op(f"kz {spec}", call, check)


WORKLOADS = {cls.name: cls for cls in (ColdCli, LevelTower, KzGrid)}
