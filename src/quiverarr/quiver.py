"""Quivers of an arrangement graph and of its truncations.

A quiver attaches a finite-dimensional Q-vector space to every vertex and
a matrix to every oriented edge, subject to quadratic relations; a level-n
quiver lives on the truncated graph and carries an extra loop operator per
forgotten adjacency.  A full graph is its own top truncation, without
loops, so both kinds share one code path: `Quiver` holds the loop
operators of its graph's loops (none on a full graph), the relation
checker, the morphism check and the Hom equations read the graph's
loops, and a top-level quiver is a `LevelQuiver` on the full graph
itself; `LevelQuiver` only names the level.  The duality tau and the sign
conjugation rebuild a quiver of the input's class, every sum of round
trips A_{b,a} A_{a,b} at a vertex is one product (`_through`) and every
sum of loops at a vertex is `_loop_sum`, one integer pass over the
loops' rows.  This module owns the relation
checker, the duality tau, the complexes C+ and C-, the local and
monodromy operators with their spectra, non-resonance reports, and Hom
spaces.  It also owns the boundary sum at a vertex (`_boundary`): the
spaces one level up, with the maps between them and the level above,
from which `functors` builds the one-step direct images and `local_ops`
takes Tbar.  "A nonzero integer" is tested in one place,
`is_resonant_lambda`.

All of them work on level-to-level block matrices of the maps
(`_level_map`), where a target with one map takes that map's stored rows.
The relation checker forms the products of those matrices once per pair
of levels and reads relations (b) and (c) off one sparse scan of their
nonzero entries, never per vertex pair.

Maps (and loop operators) absent from the data tables are implicitly zero.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import lcm
from operator import add
from typing import NamedTuple

from .arrangement import (SIZE_CAP, AdmissibleGraph, ArrangementGraph,
                          format_vertex_key, parse_vertex_key, per_graph,
                          truncated_graph)
from .errors import (InvalidComplexError, InvalidQuiverError,
                     MissingLoopError, ParseError, ShapeError)
from .linalg import (_ZERO_ROW, ChainComplex, Matrix, Q0, Subspace, _cleared,
                     _from_int_rows, _int_product, _joined, _shifted, block_diag,
                     block_offsets, char_poly_roots, frac, kernel_basis,
                     parse_rational, poly_format, products_equal)


class Quiver:
    """Spaces V_alpha and maps A_{alpha,beta}: V_beta -> V_alpha on
    adjacent ordered pairs of an admissible graph, and a loop operator
    A_at^via on V_at per loop (at, via) of the graph (a truncation's)."""

    def __init__(self, graph: AdmissibleGraph, spaces, maps, loop_ops=None):
        self.graph = graph
        self.spaces = dict(spaces)
        for v in graph.vertices:
            self.spaces.setdefault(v, 0)
            if self.spaces[v] < 0:
                raise ShapeError("negative dimension")
        unknown = set(self.spaces) - set(graph.vertices)
        if unknown:
            raise ShapeError(f"spaces at unknown vertices {sorted(unknown)}")
        self.maps = {}
        pairs = graph._pairs
        for (a, b), m in maps.items():
            if (a, b) not in pairs:
                raise ShapeError(f"map on non-adjacent pair {a}, {b}")
            if (m.rows, m.cols) != (self.spaces[a], self.spaces[b]):
                raise ShapeError(f"map {a},{b} has shape {m.rows}x{m.cols}, "
                                 f"expected {self.spaces[a]}x{self.spaces[b]}")
            if not m.is_zero():
                self.maps[(a, b)] = m
        self.loop_ops = {}
        for (at, via), m in (loop_ops or {}).items():
            if (at, via) not in graph.loops:
                raise MissingLoopError(f"no loop ({at},{at})^{via} in the level-"
                                       f"{graph.max_level} graph")
            if (m.rows, m.cols) != (self.spaces[at], self.spaces[at]):
                raise ShapeError(f"loop {at}^{via} shape mismatch")
            if not m.is_zero():
                self.loop_ops[(at, via)] = m

    @property
    def level(self):
        return None

    @cached_property
    def violated_relations(self):
        """`check_quiver(self)`, computed on first read and kept: a quiver
        is a value, never changed after construction, so each input is
        checked once however many readers ask."""
        return check_quiver(self)

    def dim(self, v):
        return self.spaces[v]

    def map(self, a, b) -> Matrix:
        """A_{a,b}: V_b -> V_a (zero when absent)."""
        m = self.maps.get((a, b))
        if m is None:
            return Matrix.zero(self.spaces[a], self.spaces[b])
        return m

    def loop(self, at, via) -> Matrix:
        if (at, via) not in self.graph.loops:
            raise MissingLoopError(f"no loop ({at},{at})^{via}")
        m = self.loop_ops.get((at, via))
        if m is None:
            return Matrix.zero(self.spaces[at], self.spaces[at])
        return m

    def total_dim(self):
        return sum(self.spaces.values())

    def is_zero(self):
        return all(d == 0 for d in self.spaces.values())

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.level == other.level
                and self.graph.vertices == other.graph.vertices
                and self.spaces == other.spaces and self.maps == other.maps
                and self.loop_ops == other.loop_ops)

    def __repr__(self):
        return f"Quiver(dims {[self.spaces[v] for v in self.graph.vertices]})"


class LevelQuiver(Quiver):
    """A quiver of a truncation (`arrangement.truncated_graph`), whose
    level is the truncation's top level: at the top of the full graph, the
    full graph itself."""

    @property
    def level(self):
        return self.graph.max_level

    def __repr__(self):
        return (f"LevelQuiver(level {self.level}, "
                f"dims {[self.spaces[v] for v in self.graph.vertices]})")


def level_zero_quiver(graph, dim, operators) -> LevelQuiver:
    """Convenience: the level-0 quiver with one space of dimension `dim`
    and loop operator `operators[j]` on the loop through hyperplane j."""
    t = truncated_graph(graph, 0)
    top = graph.top()
    loops = {}
    for via, m in operators.items():
        via_key = via if isinstance(via, tuple) else (via,)
        loops[(top, via_key)] = m
    return LevelQuiver(t, {top: dim}, {}, loops)


class QuiverMorphism:
    """A vertex-indexed family f_alpha: V_alpha -> W_alpha intertwining
    two quivers over the same graph (and their loops, at level)."""

    def __init__(self, source, target, components):
        if source.graph is not target.graph and source.graph.vertices != target.graph.vertices:
            raise ShapeError("morphism between quivers on different graphs")
        self.source = source
        self.target = target
        self.components = {}
        for v in source.graph.vertices:
            f = components.get(v)
            if f is None:
                f = Matrix.zero(target.dim(v), source.dim(v))
            if (f.rows, f.cols) != (target.dim(v), source.dim(v)):
                raise ShapeError(f"component {v} shape mismatch")
            self.components[v] = f
        bad = self.violations()
        if bad:
            raise InvalidQuiverError(f"not a morphism: fails at {bad[:3]}")

    def violations(self):
        """The edges (a, b) where f_a A_ab != B_ab f_b, and the loops where
        f_a A_a^via != B_a^via f_a, compared on integer numerators
        (`linalg.products_equal`)."""
        out = []
        g = self.source.graph
        f = self.components
        for a in g.vertices:
            for b in _neighbors(g, a):
                if not products_equal(f[a], self.source.map(a, b),
                                      self.target.map(a, b), f[b]):
                    out.append((a, b))
        for (at, via) in g.loops:
            if not products_equal(f[at], self.source.loop(at, via),
                                  self.target.loop(at, via), f[at]):
                out.append((at, at, via))
        return out

    def component(self, v):
        return self.components[v]

    def is_identity(self):
        return all(f == Matrix.identity(f.rows) for f in self.components.values())


def _neighbors(g, a):
    return list(g.up(a)) + list(g.down(a))


# -- relation checking -----------------------------------------------------------

def check_quiver(v: Quiver):
    """All violated defining relations, as (name, vertex-tuple) pairs;
    empty when v is a valid quiver.

    The sum over b of A_{a,b} A_{b,c} for a pair (a, c) is the (a, c)
    block of a product of level-to-level map matrices (a missing edge is a
    zero block), so each product is formed once per pair of levels, on
    integer numerators (`linalg._int_product`): level p+2 <- p, level
    p <- p+2, and level p <- p as the sum of the products through levels
    p - 1 and p + 1.  One sparse scan of each product's rows maps every
    nonzero entry, through the owner of its row and of its column, to a
    vertex pair.  Across two levels every such pair violates (b); within a
    level it violates (c) when its two vertices are distinct and lie above
    a shared vertex (`_shared_below`), and a level with no such pair forms
    no product.  The pairs come out in the graph's vertex order, first
    vertex first, followed by the loop relations (`_check_loops`), which
    a full graph, without loops, does not reach."""
    g = v.graph
    lv = g.level
    by_level = _level_blocks(v)
    top = len(by_level) - 1
    owners = [[k for k in keys for _ in range(v.spaces[k])] for keys in by_level]
    down = [_level_map(v, by_level[p + 1], by_level[p]) for p in range(top)]
    up = [_level_map(v, by_level[p], by_level[p + 1]) for p in range(top)]
    hits = set()
    for p in range(top - 1):
        hits |= _nonzero_pairs(owners[p + 2], owners[p], [(down[p + 1], down[p])])
        hits |= _nonzero_pairs(owners[p], owners[p + 2], [(up[p], up[p + 1])])
    shared = _shared_below(g)
    for p in range(top + 1):
        if shared.get(p):
            products = ([(down[p - 1], up[p - 1])] if p > 0 else []) + \
                ([(up[p], down[p])] if p < top else [])
            hits |= shared[p] & _nonzero_pairs(owners[p], owners[p], products)
    pos = {k: i for i, k in enumerate(g.vertices)}
    out = [("(b)" if lv[a] != lv[c] else "(c)", (a, c))
           for a, c in sorted(hits, key=lambda h: (pos[h[0]], pos[h[1]]))]
    out.extend(_check_loops(v))
    return out


@per_graph
def _shared_below(g):
    """{level: the ordered pairs of distinct vertices of that level that
    lie above a shared vertex}, the pairs relation (c) constrains: the
    union over b of up(b) x up(b) off the diagonal."""
    out = {}
    for b in g.vertices:
        ups = g.up(b)
        if len(ups) > 1:
            out.setdefault(g.level[b] - 1, set()).update(
                (a, c) for a in ups for c in ups if a != c)
    return out


def _nonzero_pairs(row_owner, col_owner, products):
    """The (row owner, column owner) pairs of the nonzero entries of the
    sum of the products a b over the pairs (a, b): each row of the sum is
    kept as integer numerators over a running denominator, and its nonzero
    columns are picked out without a per-entry loop."""
    out = set()
    for a, parts in zip(row_owner, zip(*[_int_product(x, y) for x, y in products])):
        acc, d = parts[0]
        for acc2, d2 in parts[1:]:
            acc = list(map(add, map(d2.__mul__, acc), map(d.__mul__, acc2)))
            d *= d2
        out.update(zip(repeat(a), set(compress(col_owner, acc))))
    return out


def _check_loops(v: Quiver):
    """Relations (iv) and (v) of the loops, at the vertices that carry
    them.  A loop's via and the c of (v) lie one and two levels past the
    truncation, so their adjacency is read off the full graph."""
    out = []
    g = v.graph
    full = g.full
    for (at, via) in g.loops:
        for d in g.up(at):
            s = _through(v, d, [c for c in g.down(d) if c != at and full.adjacent(c, via)])
            loop, ad, da = v.loop(at, via), v.map(at, d), v.map(d, at)
            if not products_equal(loop, ad, ad, s):
                out.append(("(iv)", (at, via, d)))
            if not products_equal(da, loop, s, da):
                out.append(("(iv)*", (at, via, d)))
    for at in dict.fromkeys(at for at, _ in g.loops):
        deep = {c for b in full.down(at) for c in full.down(b)}
        for c in deep:
            betas = [b for b in full.down(at) if full.adjacent(b, c)]
            s = _loop_sum(v, at, betas)
            for b in betas:
                lb = v.loop(at, b)
                if not products_equal(lb, s, s, lb):
                    out.append(("(v)", (at, b, c)))
    return out


# -- duality -----------------------------------------------------------------------

def dual(v: Quiver) -> Quiver:
    """tau: V_alpha -> V_alpha^*, A_{a,b} -> eps(b,a) A_{b,a}^t, and each
    loop A -> -A^t."""
    eps = v.graph.epsilon
    maps = {(b, a): m.transpose().scale(eps(a, b)) for (a, b), m in v.maps.items()}
    return type(v)(v.graph, dict(v.spaces), maps,
                   {k: -m.transpose() for k, m in v.loop_ops.items()})


def sign_conjugate(v):
    """Conjugation by diag((-1)^level): recovers v from tau(tau(v))."""
    lv = v.graph.level
    maps = {(a, b): m.scale(Fraction((-1) ** (lv[a] + lv[b]))) for (a, b), m in v.maps.items()}
    return type(v)(v.graph, dict(v.spaces), maps, dict(v.loop_ops))


# -- complexes --------------------------------------------------------------------

def _level_blocks(v: Quiver):
    """The vertex keys of each level, in the graph's (sorted) order: the
    block order of C(V) in every degree."""
    g = v.graph
    return [g.levels(p) for p in range(g.max_level + 1)]


def c_plus(v: Quiver) -> ChainComplex:
    """(C(V), d): degree k holds the sum of the level-k spaces, d collects
    the maps toward deeper vertices."""
    return _complex_from(v, downward=True)


def c_minus(v: Quiver) -> ChainComplex:
    """(C(V), boundary), stored as a cochain complex by negating degrees."""
    return _complex_from(v, downward=False)


def _complex_from(v, downward):
    by_level = _level_blocks(v)
    dims = [sum(v.dim(k) for k in level) for level in by_level]
    diffs = []
    for p in range(len(by_level) - 1):
        src, tgt = by_level[p], by_level[p + 1]
        if not downward:
            src, tgt = by_level[p + 1], by_level[p]
        diffs.append(_level_map(v, tgt, src))
    try:
        if downward:
            return ChainComplex(0, dims, diffs)
        top = len(dims) - 1
        return ChainComplex(-top, tuple(reversed(dims)), tuple(reversed(diffs)))
    except InvalidComplexError as exc:
        raise InvalidQuiverError(f"quiver relations fail: {exc}") from exc


def _level_map(v, tgt, src):
    """The maps A_{t,s} from the spaces at `src` to those at `tgt` (vertex
    keys) as one block matrix; a pair without a stored map, every
    non-adjacent one among them, is a zero block.  A target with one
    stored map among `src` takes that map's rows, shared at offset 0 and
    shifted otherwise; only a target with several is joined row by row
    over one lcm (`linalg._joined`)."""
    offsets, width = block_offsets(src, v.spaces.__getitem__)
    maps = v.maps
    form = []
    for t in tgt:
        blocks = [(maps[(t, s)]._form, offsets[s]) for s in src if (t, s) in maps]
        if len(blocks) == 1:
            form.extend(_shifted(*blocks[0]))
        elif blocks:
            form.extend(_joined([(m[i], o) for m, o in blocks]) for i in range(v.spaces[t]))
        else:
            form.extend([_ZERO_ROW] * v.spaces[t])
    return Matrix._raw(len(form), width, form)


# -- local and monodromy operators ---------------------------------------------------

class LocalOps:
    """S, T, Tbar and Stilde at a vertex.  S, T and Tbar are kept as factor
    pairs (`T_factors` = (C, R) gives T = C R and S = R C, `Tbar_factors`
    = (X, Y) gives Tbar = X Y) and formed only when read, since the char
    polys of T and Tbar come from the smaller products
    (`linalg.char_poly_roots`)."""

    def __init__(self, T_factors, Tbar_factors, stilde):
        self.T_factors = T_factors
        self.Tbar_factors = Tbar_factors
        self._stilde = stilde

    @cached_property
    def S(self):
        c, r = self.T_factors
        return r * c

    @cached_property
    def T(self):
        c, r = self.T_factors
        return c * r

    @cached_property
    def Tbar(self):
        x, y = self.Tbar_factors
        return x * y

    @cached_property
    def Stilde(self):
        return self._stilde()


class _Boundary(NamedTuple):
    """The sum over the vertices one level up from a vertex beta, in the
    graph's (sorted) order of `up`, with their offsets, and the maps
    between them and the vertices two levels up (deltas): `up` (deltas x
    ambient) carries the * constraints of a new vertex, the columns of
    `down` (ambient x deltas) its ! relations, and Tbar = down up."""
    ups: list
    offsets: dict
    ambient: int
    up: Matrix
    down: Matrix


def _boundary(v: Quiver, beta) -> _Boundary:
    full = v.graph.full
    ups = full.up(beta)
    offsets, ambient = block_offsets(ups, v.dim)
    deltas = sorted({d for g in ups for d in full.up(g)})
    return _Boundary(ups, offsets, ambient, _level_map(v, deltas, ups),
                     _level_map(v, ups, deltas))


def local_ops(v: Quiver, beta) -> LocalOps:
    """S, T, Tbar, Stilde at a vertex; T and Tbar act on the sum of the
    spaces one level up, in the graph's (sorted) order of `up`.

    Each operator is one product of two level-to-level map matrices (see
    `_level_map`): with R the maps from the spaces above back to beta and
    C those into them, S = R C and T = C R; Tbar is the same product taken
    through the spaces two levels up, the boundary sum's (`_boundary`)."""
    bd = _boundary(v, beta)
    r, c = _level_map(v, [beta], bd.ups), _level_map(v, bd.ups, [beta])
    return LocalOps((c, r), (bd.down, bd.up), lambda: _stilde(v, beta))


def _through(v: Quiver, b, keys):
    """Sum over a in `keys` of A_{b,a} A_{a,b}, as one product."""
    return _level_map(v, [b], keys) * _level_map(v, keys, [b])


def _loop_sum(v: Quiver, at, vias):
    """Sum over via in `vias` of the loop A_at^via, in one integer pass
    over the loops' canonical rows, each row over the lcm of its
    denominators; a single nonzero loop is the sum itself."""
    n = v.dim(at)
    loops = [m for m in (v.loop(at, via) for via in vias) if not m.is_zero()]
    if len(loops) < 2:
        return loops[0] if loops else Matrix.zero(n, n)
    rows = []
    for parts in zip(*[m._form for m in loops]):
        d = lcm(*[r for r, _ in parts])
        acc = [0] * n
        for r, nz in parts:
            f = d // r
            for j, x in nz:
                acc[j] += x * f
        rows.append((acc, d))
    return _from_int_rows(n, n, rows)


def _stilde(v: Quiver, b):
    g = v.graph
    if g.level[b] == g.max_level:
        return _loop_sum(v, b, g.full.down(b))
    return _through(v, b, g.down(b))


def global_S(v: Quiver) -> Matrix:
    """S = sum over vertices of (S_alpha + Stilde_alpha), block diagonal on
    the sum of all vertex spaces in canonical order.  Each block is the
    sum of the products through the vertices above and below (`_through`);
    the T and Tbar operators of `local_ops` are not formed."""
    blocks = []
    for k in v.graph.vertices:
        blocks.append(_through(v, k, v.graph.up(k)) + _stilde(v, k))
    return block_diag(blocks)


class Spectrum:
    """One eigenvalue per hyperplane of a scalar level-zero quiver."""

    def __init__(self, values):
        self.values = {int(j): frac(x) for j, x in values.items()}

    def of(self, j):
        return self.values[j]


def spectrum_lambda(g: ArrangementGraph, s: Spectrum, alpha) -> Fraction:
    """lambda_alpha = sum of lambda_i over hyperplanes containing the stratum."""
    return sum((s.of(j) for j in alpha), Q0)


def is_resonant_lambda(lam) -> bool:
    """Whether lambda_alpha = lam breaks non-resonance: a nonzero integer."""
    return lam != 0 and lam.denominator == 1


def is_nonresonant_spectrum(g: ArrangementGraph, s: Spectrum) -> bool:
    """No lambda_alpha is a nonzero integer."""
    return not any(is_resonant_lambda(spectrum_lambda(g, s, k)) for k in g.vertices)


def check_nonresonance_class(v: Quiver):
    """Per-vertex monodromy report: characteristic polynomials of T and
    Tbar, the positive-integer-eigenvalue flag for Tbar, and whether the
    eigenvalues of T fit in some non-resonant set (decidable only when the
    polynomial splits over Q).  Each char poly and its rational roots come
    from one `linalg.char_poly_roots` call on the factor pair, which takes
    the smaller side, char(T) = char(C R) from S = R C, and reads the
    roots off the integer factors of that char poly."""
    g = v.graph
    report = []
    for b in g.vertices:
        if g.level[b] == 0:
            continue
        ops = local_ops(v, b)
        pt, t_roots, split = char_poly_roots(*ops.T_factors)
        ptbar, tbar_roots, _ = char_poly_roots(*ops.Tbar_factors)
        tbar_flag = any(r > 0 and r.denominator == 1 for r in tbar_roots)
        if not split:
            status = "undetermined"
        else:
            vals = set(t_roots)
            bad = any(is_resonant_lambda(x - y) for x in vals for y in vals | {Q0})
            status = "violated" if bad else "verified"
        report.append({
            "vertex": b,
            "char_poly_T": poly_format(pt),
            "char_poly_Tbar": poly_format(ptbar),
            "tbar_has_positive_integer_eigenvalue": tbar_flag,
            "t_nonresonant": status,
        })
    return report


# -- Hom spaces ------------------------------------------------------------------

def hom_offsets(v: Quiver, w: Quiver):
    """The layout of hom coordinates: per vertex in canonical order, the
    w.dim x v.dim entries of its component row-major, at its offset."""
    return block_offsets(v.graph.vertices, lambda k: w.dim(k) * v.dim(k))


def hom_equations(v: Quiver, w: Quiver) -> Matrix:
    """The intertwining equations of morphisms v -> w, one row per scalar
    equation of f_a A_{a,b} = B_{a,b} f_b over the edges and the loops,
    in the coordinates of `hom_offsets`.  Each row is
    its nonzero terms summed by column (for a loop, a == b, two terms can
    share one) and cleared once into canonical form."""
    g = v.graph
    if w.graph is not g and w.graph.vertices != g.vertices:
        raise ShapeError("hom between quivers on different graphs")
    if v.level != w.level:
        raise ShapeError("hom between quivers of different levels")
    offsets, total = hom_offsets(v, w)
    rows = []

    def add_equations(A, Ap, a, b):
        # f_a * A = A' * f_b, one scalar equation per (i, j)
        va, vb, wb = v.dim(a), v.dim(b), w.dim(b)
        ea, ep = A.entries, Ap.entries
        for i in range(w.dim(a)):
            for j in range(vb):
                terms = {}
                for k2 in range(va):
                    if ea[k2 * vb + j]:
                        c = offsets[a] + i * va + k2
                        terms[c] = terms.get(c, 0) + ea[k2 * vb + j]
                for k2 in range(wb):
                    if ep[i * wb + k2]:
                        c = offsets[b] + k2 * vb + j
                        terms[c] = terms.get(c, 0) - ep[i * wb + k2]
                rows.append(_cleared(sorted(terms.items())))

    for a in g.vertices:
        for b in _neighbors(g, a):
            add_equations(v.map(a, b), w.map(a, b), a, b)
    for (at, via) in g.loops:
        add_equations(v.loop(at, via), w.loop(at, via), at, at)
    return Matrix._raw(len(rows), total, rows)


def hom_space(v: Quiver, w: Quiver) -> Subspace:
    """The solution space of all intertwining equations for morphisms
    v -> w (`hom_equations`), in the coordinates of `hom_offsets`."""
    return kernel_basis(hom_equations(v, w))


def morphism_from_coords(v: Quiver, w: Quiver, coords) -> QuiverMorphism:
    """Materialize a morphism from a hom_space coordinate vector."""
    offsets, _ = hom_offsets(v, w)
    components = {k: Matrix(w.dim(k), v.dim(k), coords[o:o + w.dim(k) * v.dim(k)])
                  for k, o in offsets.items()}
    return QuiverMorphism(v, w, components)


# -- serialization (.qvr) ----------------------------------------------------------

def _format_key(key):
    if key and isinstance(key[0], tuple):
        return "|".join(format_vertex_key(k) for k in key)
    return format_vertex_key(key)


def _matrix_json(m: Matrix):
    return [[str(x) for x in m.row(i)] for i in range(m.rows)]


def _matrix_from_json(data, rows, cols):
    entries = [parse_rational(x) for row in data for x in row]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ParseError(f"matrix should be {rows}x{cols}")
    return Matrix(rows, cols, entries)


def quiver_to_json(v: Quiver, witness=None):
    out = {
        "level": v.level,
        "spaces": {_format_key(k): v.dim(k) for k in v.graph.vertices},
        "maps": [{"from": _format_key(b), "to": _format_key(a),
                  "matrix": _matrix_json(m)}
                 for (a, b), m in sorted(v.maps.items())],
    }
    if isinstance(v, LevelQuiver):
        out["loops"] = [{"at": _format_key(at), "via": _format_key(via),
                         "matrix": _matrix_json(m)}
                        for (at, via), m in sorted(v.loop_ops.items())]
    if witness is not None:
        out["witness"] = witness
    return out


def _json_size(value, what):
    """A level or a dimension: a JSON integer from 0 to `SIZE_CAP` (not a
    float, a string or a boolean, which int() would truncate or coerce)."""
    if type(value) is not int or value < 0:
        raise ParseError(f"{what} must be a nonnegative integer, got {value!r}")
    if value > SIZE_CAP:
        raise ParseError(f"{what} {value} exceeds the size cap {SIZE_CAP}")
    return value


def _put_once(table, key, value, what):
    """table[key] = value for a key not given before: a JSON key, or a
    vertex, map or loop (in any spelling of its vertices), written twice
    is malformed."""
    if key in table:
        raise ParseError(f"malformed quiver JSON: {what} {key!r} given twice")
    table[key] = value


def quiver_from_json(graph: AdmissibleGraph, data):
    """Load a .qvr object against a built graph; level null gives a plain
    quiver, an integer gives a level quiver of that truncation.  Keys it
    does not read (such as a pushed quiver's "witness") are ignored."""
    if not isinstance(data, dict):
        raise ParseError("malformed quiver JSON: expected an object at the top level")
    try:
        level = data.get("level")
        spaces = {}
        for k, d in data["spaces"].items():
            _put_once(spaces, parse_vertex_key(k), _json_size(d, "space dimension"), "space")
        maps = {}
        for item in data.get("maps", []):
            a = parse_vertex_key(item["to"])
            b = parse_vertex_key(item["from"])
            _put_once(maps, (a, b), _matrix_from_json(item["matrix"], spaces.get(a, 0),
                                                      spaces.get(b, 0)), "map")
        loops = {}
        if level is None and data.get("loops"):
            raise ParseError("malformed quiver JSON: loops need an integer level")
        if level is not None:
            level = _json_size(level, "level")
            for item in data.get("loops", []):
                at = parse_vertex_key(item["at"])
                via = parse_vertex_key(item["via"])
                _put_once(loops, (at, via), _matrix_from_json(
                    item["matrix"], spaces.get(at, 0), spaces.get(at, 0)), "loop")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed quiver JSON: {exc}")
    if level is None:
        return Quiver(graph, spaces, maps)
    try:
        t = truncated_graph(graph, level)
    except ShapeError as exc:
        raise ParseError(f"malformed quiver JSON: {exc}")
    return LevelQuiver(t, spaces, maps, loops)


def _json_object(pairs):
    """A JSON object as a dict; a key written twice in it is malformed."""
    out = {}
    for k, x in pairs:
        _put_once(out, k, x, "key")
    return out


def parse_quiver(text, graph, path=None):
    try:
        return quiver_from_json(graph, json.loads(text, parse_float=Fraction,
                                                  object_pairs_hook=_json_object))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}", path)
    except ParseError as exc:
        raise ParseError(str(exc), path)
