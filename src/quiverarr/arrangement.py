"""Stratification combinatorics of affine hyperplane arrangements.

An arrangement in C^N determines a labeled graph: vertices are the
nonempty intersections of hyperplanes (closed strata), labeled by their
codimension, with edges between strata adjacent in codimension one.  This
module builds that graph, its truncations, the specialization graph at a
stratum of a central arrangement (an `AdmissibleGraph` whose vertices,
the classes, are the sorted tuples of their member keys), and the
discriminantal family.  The
level-n truncation is a graph of the same kind (`TruncatedGraph`, an
`AdmissibleGraph` on the strata of level <= n and the edges among them)
that also lists its loops, one per edge from level n to level n+1, and
keeps the graph it was cut from as `full`.  Every graph is its own top
truncation: its level is its `max_level`, `full` is the graph itself and
it has no loops, so `truncated_graph`, the one place a truncation is
made, returns the graph itself at its top level.

A stratum is its key: the sorted tuple of its *maximal* set of hyperplane
indices, every hyperplane containing the stratum listed.  The key is the
vertex in every graph, quiver and functor call; the geometry is
`ArrangementGraph.equations[key]`, the stratum's RREF equations, whose
row count is its level.  Hyperplane indices are 1-based throughout,
matching the text file formats; the open stratum is the empty tuple ().

`build_graph` works on each stratum once, over the integers: it reduces
every hyperplane outside the stratum's id set against the stratum's
echelon rows (the echelon kernel of `linalg`), and each class of
proportional residues is one child stratum with its maximal id set.
Strata are deduplicated by their ids, and the edges are the (parent,
child) pairs of that closure.
`verify_graph_properties` re-checks maximal containment independently,
by one elimination per (stratum, hyperplane) pair.
"""

from __future__ import annotations

import warnings
from functools import wraps

from .errors import ParseError, ShapeError, UnsupportedError
from .linalg import (Matrix, Q0, Q1, _clear, _primitive, _reduce, _rref_rows, frac,
                     parse_rational, rref)


class Hyperplane:
    """The affine hyperplane {c0 + sum c_i z_i = 0}, stored normalized so
    the first nonzero normal coefficient is 1."""

    __slots__ = ("constant", "normal")

    def __init__(self, constant, normal):
        normal = tuple(frac(x) for x in normal)
        constant = frac(constant)
        lead = next((x for x in normal if x != 0), None)
        if lead is None:
            raise ShapeError("hyperplane normal vector is zero")
        self.constant = constant / lead
        self.normal = tuple(x / lead for x in normal)

    def equation_row(self):
        """Row (c_1 .. c_N, c_0): z-coefficients first, constant last."""
        return self.normal + (self.constant,)

    def is_central(self):
        return self.constant == 0

    def __eq__(self, other):
        return (isinstance(other, Hyperplane) and self.constant == other.constant
                and self.normal == other.normal)

    def __hash__(self):
        return hash((self.constant, self.normal))

    def __repr__(self):
        return f"Hyperplane({self.constant}, {self.normal})"


class Arrangement:
    __slots__ = ("ambient_dim", "hyperplanes")

    def __init__(self, ambient_dim, hyperplanes):
        hyperplanes = list(hyperplanes)
        for h in hyperplanes:
            if len(h.normal) != ambient_dim:
                raise ShapeError("hyperplane dimension differs from ambient dimension")
        if len(set(hyperplanes)) != len(hyperplanes):
            raise ShapeError("duplicate hyperplanes after normalization")
        self.ambient_dim = ambient_dim
        self.hyperplanes = hyperplanes

    @property
    def size(self):
        return len(self.hyperplanes)

    def hyperplane(self, j):
        """1-based lookup."""
        return self.hyperplanes[j - 1]

    def is_central(self):
        return all(h.is_central() for h in self.hyperplanes)

    def __repr__(self):
        return f"Arrangement(dim {self.ambient_dim}, {self.size} hyperplanes)"


def _canonicalize(eqs: Matrix, ambient_dim):
    """RREF of an affine system; returns (matrix, codim) or None if the
    solution set is empty (a pivot lands in the constant column)."""
    r, pivots = rref(eqs)
    if ambient_dim in pivots:
        return None
    r = r.submatrix(range(len(pivots)), range(ambient_dim + 1))
    return r, len(pivots)


_UNSET = object()


class AdmissibleGraph:
    """The combinatorial core: vertices with levels, edges with level gap
    one, and the closure partial order generated by the edges.

    Quivers, flags, and the Orlik-Solomon algebra depend only on this
    structure, so specialization graphs reuse it with synthetic keys."""

    def __init__(self, levels, edges):
        self.level = dict(levels)
        self.vertices = tuple(sorted(self.level, key=lambda k: (self.level[k], k)))
        self._edges = set()
        self._pairs = set()  # both orientations of every edge
        for a, b in edges:
            if abs(self.level[a] - self.level[b]) != 1:
                raise ShapeError(f"edge {a},{b} does not change level by one")
            self._edges.add(frozenset((a, b)))
            self._pairs.update(((a, b), (b, a)))
        self._down = {v: [] for v in self.vertices}
        self._up = {v: [] for v in self.vertices}
        for e in self._edges:
            a, b = tuple(e)
            if self.level[a] > self.level[b]:
                a, b = b, a
            self._down[a].append(b)
            self._up[b].append(a)
        for v in self.vertices:
            self._down[v].sort()
            self._up[v].sort()
        self._descendants = {}
        for v in sorted(self.vertices, key=lambda k: -self.level[k]):
            acc = {v}
            for w in self._down[v]:
                acc |= self._descendants[w]
            self._descendants[v] = frozenset(acc)
        self.max_level = max(self.level.values())
        self.loops = {}
        self._wedge_cache = {}
        self.memo = {}  # see `per_graph`

    @property
    def full(self):
        """The graph this one truncates: itself, its own top truncation (a
        property, so the graph holds no reference to itself)."""
        return self

    def levels(self, n):
        return [v for v in self.vertices if self.level[v] == n]

    def down(self, v):
        """Vertices one level deeper, adjacent to v (v > them)."""
        return self._down[v]

    def up(self, v):
        """Vertices one level shallower, adjacent to v (them > v)."""
        return self._up[v]

    def adjacent(self, a, b):
        """Whether a and b span an edge: one lookup of the ordered pair in
        the set of both orientations."""
        return (a, b) in self._pairs

    @property
    def edges(self):
        return self._edges

    def geq(self, a, b):
        """a >= b: the closure of stratum a contains stratum b."""
        return b in self._descendants[a]

    def leq(self, a, b):
        return self.geq(b, a)

    def epsilon(self, a, b):
        if (a, b) in self._pairs:
            if self.level[a] < self.level[b]:
                return 1
            return -1
        return 0

    def wedge_key(self, a, b):
        """Key of the unique maximal common lower vertex, or None."""
        if a > b:
            a, b = b, a
        cached = self._wedge_cache.get((a, b), _UNSET)
        if cached is not _UNSET:
            return cached
        common = self._descendants[a] & self._descendants[b]
        if not common:
            out = None
        else:
            best = min(common, key=lambda k: (self.level[k], k))
            out = best if all(self.geq(best, c) for c in common) else None
        self._wedge_cache[(a, b)] = out
        return out

    def top(self):
        """The unique level-0 vertex."""
        tops = self.levels(0)
        if len(tops) != 1:
            raise ShapeError("graph has no unique level-0 vertex")
        return tops[0]


def per_graph(fn):
    """Memoize fn(graph, *args) in `graph.memo`, keyed by fn and args: the
    structures built from a graph live and die with it."""
    @wraps(fn)
    def memoized(graph, *args):
        key = (fn, args)
        memo = graph.memo
        if key not in memo:
            memo[key] = fn(graph, *args)
        return memo[key]
    return memoized


class ArrangementGraph(AdmissibleGraph):
    """AdmissibleGraph plus the geometry: `equations[key]`, the RREF of a
    stratum's defining affine system with columns (z_1 .. z_N, 1); its row
    count is the stratum's level."""

    def __init__(self, arrangement, equations, edges):
        self.arrangement = arrangement
        self.equations = equations
        super().__init__({k: m.rows for k, m in equations.items()}, edges)

    def is_central(self):
        return self.arrangement.is_central()

    def __repr__(self):
        return f"ArrangementGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def build_graph(arrangement: Arrangement) -> ArrangementGraph:
    """Enumerate all nonempty intersections of hyperplanes by breadth-first
    closure, working on each stratum once.

    A stratum X keeps its defining rows as a reduced echelon form of the
    `linalg` kernel.  Every hyperplane row outside its id set is reduced
    at each of their pivot columns once, and made primitive: its residue.
    A residue nonzero only in the constant column means X and H_j do not
    meet.  Otherwise H_k contains X ^ H_j exactly when residue_k is
    proportional to residue_j, that is equal to it, so each class of equal
    residues is one child stratum X ^ H_j, whose maximal id set is the ids
    of X plus the class.  The child's rows are X's rows reduced by the
    residue, with the residue inserted.  A stratum is its maximal id set,
    so ids are the dedup key.  Each child has codim one more than its
    parent, and every codim-one containment a > b is a ^ H_j for any j in
    ids(b) - ids(a), so the edges are the (parent, child) pairs of the
    closure."""
    n = arrangement.ambient_dim
    hyps = Matrix.from_rows([h.equation_row() for h in arrangement.hyperplanes],
                            cols=n + 1)._form
    echelon = {(): {}}
    equations = {(): Matrix.zero(0, n + 1)}
    edges = []
    frontier = [()]
    while frontier:
        nxt = []
        for ids in frontier:
            rows = echelon[ids]
            inside = set(ids)
            children = {}
            for j, (_, h) in enumerate(hyps, start=1):
                if j in inside:
                    continue
                res = dict(h)
                _reduce(res, rows)
                if min(res, default=n) == n:
                    continue
                _primitive(res)
                children.setdefault(frozenset(res.items()), (res, []))[1].append(j)
            for res, js in children.values():
                child = tuple(sorted(ids + tuple(js)))
                edges.append((ids, child))
                if child not in echelon:
                    q = min(res)
                    meet = {q: res}
                    for c, r in rows.items():
                        if q in r:
                            r = dict(r)
                            _clear(r, q, res)
                        meet[c] = r
                    echelon[child] = meet
                    equations[child] = Matrix._raw(len(meet), n + 1, _rref_rows(meet))
                    nxt.append(child)
        frontier = nxt
    return ArrangementGraph(arrangement, equations, edges)


class TruncatedGraph(AdmissibleGraph):
    """The level-n truncation, n below the top: the vertices of level <= n
    of a full graph and the edges among them, plus one loop (a, a)^b per
    pair a > b with level(a) = n.  `loops` lists them in the order of the
    full graph's levels and `down`, as the keys of a dict; n is the
    truncation's `max_level`.

    Keeps the full graph around: the defining relations of level-n quivers
    read the adjacency of levels n+1 and n+2."""

    def __init__(self, full: AdmissibleGraph, n):
        self._full = full
        super().__init__({v: l for v, l in full.level.items() if l <= n},
                         [e for e in full.edges if all(full.level[v] <= n for v in e)])
        self.loops = dict.fromkeys((a, b) for a in full.levels(n) for b in full.down(a))

    @property
    def full(self):
        return self._full

    def __repr__(self):
        return (f"TruncatedGraph(level {self.max_level}: {len(self.vertices)} vertices, "
                f"{len(self.edges)} edges, {len(self.loops)} loops)")


def truncated_graph(g: AdmissibleGraph, n) -> AdmissibleGraph:
    """The level-n truncation of g: g itself at its top level, and
    otherwise cut from the full graph, so that a truncation of a
    truncation still reads levels n+1 and n+2 off the full graph."""
    if not 0 <= n <= g.max_level:
        raise ShapeError(f"truncation level {n} out of range 0..{g.max_level}")
    return g if n == g.max_level else TruncatedGraph(g.full, n)


def specialization_base(g: ArrangementGraph, alpha):
    """alpha, checked to be the key of a stratum of a central arrangement:
    the base of a specialization."""
    if not g.is_central():
        raise UnsupportedError("specialization requires a central arrangement")
    if alpha not in g.level:
        raise ShapeError(f"vertex {format_vertex_key(alpha)} is not a stratum of the arrangement")
    return alpha


def specialization_graph(g: ArrangementGraph, alpha) -> AdmissibleGraph:
    """The class graph at alpha: the vertices of g merged along the
    specialization equivalence, each class keyed by the sorted tuple of
    its members, with an edge between two classes when some members span
    one."""
    alpha = specialization_base(g, alpha)

    def signature(beta):
        # in a central arrangement every two strata meet, in their wedge
        upset = frozenset(d for d in g.vertices if g.geq(d, alpha) and g.geq(d, beta))
        return (g.wedge_key(alpha, beta), upset)

    groups = {}
    for bk in g.vertices:
        groups.setdefault(signature(bk), []).append(bk)
    levels = {}
    for members in groups.values():
        ck = tuple(sorted(members))
        ls = {g.level[m] for m in ck}
        if len(ls) != 1:
            raise UnsupportedError("specialization classes mix codimensions")
        levels[ck] = ls.pop()
    # two classes are adjacent when some members are: each edge of g
    # joins the classes of its ends, which lie one level apart
    owner = {m: ck for ck in levels for m in ck}
    edges = {(owner[x], owner[y]) for x, y in g.edges}
    return AdmissibleGraph(levels, edges)


def discriminantal(weights):
    """The arrangement C_{1,N}, N = sum of weights: hyperplanes t_i = 0
    for 1 <= i <= N and t_i - t_j = 0 for i < j.  Returns the arrangement
    and the map sending each coordinate to its root index (1-based)."""
    weights = list(weights)
    if not weights:
        raise ShapeError("empty weight list")
    if any(k < 0 for k in weights):
        raise ShapeError("weights must be nonnegative")
    n = sum(weights)
    hyps = []
    for i in range(n):
        normal = [Q0] * n
        normal[i] = Q1
        hyps.append(Hyperplane(0, normal))
    for i in range(n):
        for j in range(i + 1, n):
            normal = [Q0] * n
            normal[i] = Q1
            normal[j] = -Q1
            hyps.append(Hyperplane(0, normal))
    pi = {}
    coord = 1
    for root_index, k in enumerate(weights, start=1):
        for _ in range(k):
            pi[coord] = root_index
            coord += 1
    return Arrangement(n, hyps), pi


def verify_graph_properties(g: AdmissibleGraph):
    """Re-verify the defining properties of an admissible graph; raises on
    violation of (i)-(iii), warns on the opportunistic part of (iv)."""
    g.top()
    for e in g.edges:
        a, b = tuple(e)
        if abs(g.level[a] - g.level[b]) != 1:
            raise ShapeError(f"edge {a},{b} violates the level gap")
    for a in g.vertices:
        for b in g.vertices:
            common = [c for c in g.vertices if g.geq(a, c) and g.geq(b, c)]
            if not common:
                continue
            w = g.wedge_key(a, b)
            if w is None or not all(g.geq(w, c) for c in common):
                raise ShapeError(f"no unique maximal intersection for {a}, {b}")
            if g.level[w] > g.level[a] + g.level[b]:
                raise ShapeError(f"wedge level bound fails at {a}, {b}")
            bound = g.level[a] + g.level[b] - g.level[w]
            upper = [d for d in g.vertices if g.geq(d, a) and g.geq(d, b)]
            for d in upper:
                if g.level[d] > bound:
                    raise ShapeError(f"upper-set level bound fails at {a}, {b}, {d}")
            tight = [d for d in upper if g.level[d] == bound]
            if tight:
                minimal = [d for d in tight if all(g.geq(e, d) for e in upper)]
                if len(minimal) != 1:
                    warnings.warn(f"minimal upper element not unique for {a}, {b}")
    if isinstance(g, ArrangementGraph):
        n = g.arrangement.ambient_dim
        for k, eqs in g.equations.items():
            for j, h in enumerate(g.arrangement.hyperplanes, start=1):
                stacked = eqs.vstack(Matrix(1, n + 1, h.equation_row()))
                if (_canonicalize(stacked, n) == (eqs, g.level[k])) != (j in k):
                    raise ShapeError(f"id of {k} is not the maximal containment set")


# -- text format ----------------------------------------------------------------

# The largest size an input may ask for: the `dim` of a .arr file, the
# --dim rank of the CLI and a .qvr space dimension.  A size read from a
# few bytes of input is otherwise only bounded by memory; every size in
# the tests, the corpus and the benchmark is at most 6, and runs at 1000
# take under a second.
SIZE_CAP = 1000


def parse_arrangement(text, path=None) -> Arrangement:
    """Parse the .arr format: a `dim N` line, then `H c0 c1 ... cN` lines;
    `#` starts a comment."""
    dim = None
    hyps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "dim":
            if dim is not None:
                raise ParseError("duplicate dim line", path, lineno)
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ParseError("malformed dim line", path, lineno)
            dim = int(parts[1])
            if dim > SIZE_CAP:
                raise ParseError(f"dim {dim} exceeds the size cap {SIZE_CAP}", path, lineno)
        elif parts[0] == "H":
            if dim is None:
                raise ParseError("H line before dim line", path, lineno)
            if len(parts) != dim + 2:
                raise ParseError(f"expected {dim + 1} coefficients", path, lineno)
            coeffs = [parse_rational(p, path, lineno) for p in parts[1:]]
            try:
                hyps.append(Hyperplane(coeffs[0], coeffs[1:]))
            except ShapeError as exc:
                raise ParseError(str(exc), path, lineno)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", path, lineno)
    if dim is None:
        raise ParseError("missing dim line", path)
    try:
        return Arrangement(dim, hyps)
    except ShapeError as exc:
        raise ParseError(str(exc), path)


def format_arrangement(arr: Arrangement) -> str:
    lines = [f"dim {arr.ambient_dim}"]
    for h in arr.hyperplanes:
        lines.append("H " + " ".join(str(x) for x in (h.constant,) + h.normal))
    return "\n".join(lines) + "\n"


def format_vertex_key(key) -> str:
    return "(" + ",".join(str(j) for j in key) + ")"


def parse_vertex_key(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"bad vertex reference {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    try:
        return tuple(int(p) for p in inner.split(","))
    except ValueError:
        raise ParseError(f"bad vertex reference {text!r}")
