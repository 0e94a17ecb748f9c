"""Orlik-Solomon algebra, flag spaces, and the scalar complexes built on
them: the flag complex, the Aomoto complex, the duality pairing between
them, the Shapovalov chain map, and its image, the complex of flag forms.

Both algebras are presented by generators and relations read off the
arrangement graph.  Bases are the lexicographically least independent
generator subsets, so coordinates are deterministic across runs.
`_PresentedSpace` reads the basis and every generator's coordinates off
the reduced echelon form of the relations, each pivoted at its last
generator: the echelon kernel of `linalg`, on Python ints, with a
`Fraction` only per coordinate.  Coordinates are per vertex and sparse:
`OSBasis.expand` and `FlagDegree.expand` take a hyperplane tuple or a
flag to its one vertex, a sign, and (basis position, value) pairs in
that vertex's space.  A flag space (`FlagBasis`) is itself a presented
space; the OS vertex spaces are plain ones.  A whole degree lists its
vertices in sorted key order (`graph.levels(p)`), each space at its
running offset (`linalg.block_offsets`).  The spaces and degrees are
memoized on their graph (`arrangement.per_graph`) and dropped with it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .arrangement import ArrangementGraph, per_graph
from .errors import ParseError, ShapeError
from .linalg import (ChainComplex, ChainMap, Matrix, Q0, Q1, _back_substitute,
                     _cleared, _forward, block_offsets, frac, image_complex,
                     parse_rational, sort_with_sign)


class _PresentedSpace:
    """A quotient of the free span of `generators` by sparse relation
    rows, with the lexicographically least generator subset as basis and
    a precomputed sparse expansion of every generator in that basis.

    The relations, cleared of denominators, go through the echelon
    kernel of `linalg` with generator i as column ngen-1-i, so each row
    pivots at its last generator.  Generator i is left out of the basis
    exactly when a row of the reduced echelon form pivots at it; the row
    then reads e_i = -(the rest of the row) / (its pivot entry), all of it
    on basis generators.  Coordinates are given as Fractions."""

    def __init__(self, generators, relation_rows):
        self.generators = list(generators)
        last = len(self.generators) - 1
        echelon = _back_substitute(_forward(
            {last - i: v for i, v in _cleared(rel.items())[1]} for rel in relation_rows))
        basis = [i for i in range(len(self.generators)) if last - i not in echelon]
        self.basis = [self.generators[i] for i in basis]
        self.dim = len(basis)
        position = {last - i: k for k, i in enumerate(basis)}
        self._coords = {}
        for i, gen in enumerate(self.generators):
            row = echelon.get(last - i)
            if row is None:
                self._coords[gen] = ((position[last - i], Q1),)
            else:
                p = row.pop(last - i)
                self._coords[gen] = tuple(sorted((position[c], Fraction(-v, p))
                                                 for c, v in row.items()))

    def coords(self, gen):
        """The coordinates of a generator in the basis, sparse: (basis
        position, value) pairs in position order, zeros left out."""
        return self._coords[gen]

    def coords_of_generator(self, gen):
        """The same coordinates as a dense tuple of length dim."""
        out = [Q0] * self.dim
        for i, c in self._coords[gen]:
            out[i] = c
        return tuple(out)


class OSBasis:
    """Degree-p component of the Orlik-Solomon algebra, organized per
    vertex of codimension p.

    generators: sorted general-position p-subsets, grouped by their
    intersection vertex.  expand() resolves any p-tuple of hyperplane
    indices to one vertex: its vertex, the sign that sorts it, and the
    sparse coordinates of the sorted tuple in that vertex's space (zero
    for repeated or dependent tuples).  The whole degree is the sum of the
    vertex spaces in `vertex_keys` order, at `offsets`."""

    def __init__(self, graph: ArrangementGraph, p):
        self.degree = p
        self.vertex_keys = graph.levels(p)
        per_vertex_gens = {vk: [] for vk in self.vertex_keys}
        for comb, vk in _combination_vertices(graph, p).items():
            if vk in per_vertex_gens:
                per_vertex_gens[vk].append(comb)
        gen_index = {vk: {t: i for i, t in enumerate(gens)}
                     for vk, gens in per_vertex_gens.items()}
        rel_rows = {vk: [] for vk in self.vertex_keys}
        for comb, vk in _combination_vertices(graph, p + 1).items():
            if vk not in rel_rows:
                continue
            row = {}
            for k in range(p + 1):
                idx = gen_index[vk].get(comb[:k] + comb[k + 1:])
                if idx is not None:
                    row[idx] = row.get(idx, 0) + (1 if k % 2 else -1)
            if any(v != 0 for v in row.values()):
                rel_rows[vk].append(row)
        self.spaces = {vk: _PresentedSpace(per_vertex_gens[vk], rel_rows[vk])
                       for vk in self.vertex_keys}
        self._vertex_of = {t: vk for vk, gens in per_vertex_gens.items() for t in gens}
        self.offsets, self.dim = block_offsets(self.vertex_keys,
                                               lambda vk: self.spaces[vk].dim)

    @property
    def generators(self):
        return [t for vk in self.vertex_keys for t in self.spaces[vk].generators]

    @property
    def basis(self):
        return [t for vk in self.vertex_keys for t in self.spaces[vk].basis]

    def expand(self, tup):
        """The class of (H_{j_1},...,H_{j_p}) as (vertex, sign, coords):
        coords are the sparse coordinates of the sorted tuple in
        spaces[vertex] (see `_PresentedSpace.coords`), to be multiplied by
        sign.  A zero class gives (None, 0, ())."""
        if len(tup) != self.degree:
            raise ShapeError("tuple degree mismatch")
        srt, sign = sort_with_sign(tup)
        vk = self._vertex_of.get(srt) if sign else None
        if vk is None:
            return None, 0, ()
        return vk, sign, self.spaces[vk].coords(srt)


@per_graph
def _combination_vertices(graph: ArrangementGraph, size):
    """{sorted hyperplane index tuple of this size: key of its intersection
    vertex}, in lexicographic order, for the tuples that meet.  Each tuple's
    vertex is the wedge of its prefix's vertex with its last hyperplane."""
    if size == 0:
        return {(): graph.top()}
    n = graph.arrangement.size
    out = {}
    for comb, vk in _combination_vertices(graph, size - 1).items():
        for j in range(comb[-1] + 1 if comb else 1, n + 1):
            wk = graph.wedge_key(vk, (j,))
            if wk is not None:
                out[comb + (j,)] = wk
    return out


@per_graph
def os_space(graph: ArrangementGraph, p) -> OSBasis:
    return OSBasis(graph, p)


class FlagBasis(_PresentedSpace):
    """The flag space of one vertex: complete flags from the open stratum
    down to the vertex, modulo the incomplete-flag relations."""

    def __init__(self, graph, vertex_key):
        p = graph.level[vertex_key]
        flags = []
        # depth first in graph.down order, which fixes the basis
        stack = [(graph.top(),)]
        while stack:
            chain = stack.pop()
            if graph.level[chain[-1]] == p:
                flags.append(chain)
            else:
                stack.extend(chain + (w,) for w in reversed(graph.down(chain[-1]))
                             if graph.geq(w, vertex_key))
        gen_index = {f: i for i, f in enumerate(flags)}
        incomplete = set()
        for f in flags:
            for k in range(1, p):
                incomplete.add((f[:k], f[k + 1:]))
        rel_rows = []
        for prefix, suffix in sorted(incomplete):
            row = {}
            for b in graph.down(prefix[-1]):
                f = prefix + (b,) + suffix
                idx = gen_index.get(f)
                if idx is not None:
                    row[idx] = row.get(idx, 0) + 1
            rel_rows.append(row)
        super().__init__(flags, rel_rows)


@per_graph
def flag_space(graph, vertex_key) -> FlagBasis:
    return FlagBasis(graph, vertex_key)


class FlagDegree:
    """All flag spaces of one codimension, summed in `vertex_keys` order at
    `offsets`.  expand() resolves a complete flag to its last vertex, as
    OSBasis.expand does a hyperplane tuple: (vertex, 1, sparse coordinates
    in that vertex's flag space)."""

    def __init__(self, graph, p):
        self.degree = p
        self.vertex_keys = graph.levels(p)
        self.spaces = {vk: flag_space(graph, vk) for vk in self.vertex_keys}
        self.offsets, self.dim = block_offsets(self.vertex_keys,
                                               lambda vk: self.spaces[vk].dim)

    def expand(self, flag):
        vk = flag[-1]
        return vk, 1, self.spaces[vk].coords(flag)


@per_graph
def flag_degree(graph, p) -> FlagDegree:
    return FlagDegree(graph, p)


def flag_complex(graph) -> ChainComplex:
    """(F^., d_F) with d_F extending a flag by one step, sign (-1)^p."""
    top_level = graph.max_level
    degs = [flag_degree(graph, p) for p in range(top_level + 1)]
    dims = [d.dim for d in degs]
    diffs = []
    for p in range(top_level):
        src, tgt = degs[p], degs[p + 1]
        cols = []
        sign = Q1 if p % 2 == 0 else -Q1
        for vk in src.vertex_keys:
            for f in src.spaces[vk].basis:
                vec = [Q0] * tgt.dim
                for b in graph.down(vk):
                    _, _, coords = tgt.expand(f + (b,))
                    _add_at(vec, tgt.offsets[b], sign, coords)
                cols.append(vec)
        diffs.append(Matrix.from_cols(cols, tgt.dim))
    return ChainComplex(0, dims, diffs)


class ExponentAssignment:
    """Exponent a(H) per hyperplane, with an optional common divisor kappa;
    the effective exponent is a(H)/kappa."""

    def __init__(self, values, kappa=None):
        self.values = {int(j): frac(v) for j, v in values.items()}
        self.kappa = None if kappa is None else frac(kappa)
        if self.kappa is not None and self.kappa <= 0:
            raise ShapeError("kappa must be positive")

    def of(self, j):
        v = self.values[j]
        return v if self.kappa is None else v / self.kappa

    def for_arrangement(self, arrangement):
        missing = [j for j in range(1, arrangement.size + 1) if j not in self.values]
        if missing:
            raise ShapeError(f"exponents missing for hyperplanes {missing}")
        return self

    @staticmethod
    def zero(arrangement):
        return ExponentAssignment({j: 0 for j in range(1, arrangement.size + 1)})


def aomoto_complex(graph: ArrangementGraph, a: ExponentAssignment) -> ChainComplex:
    """(A^., multiplication by omega(a))."""
    a.for_arrangement(graph.arrangement)
    top_level = graph.max_level
    degs = [os_space(graph, p) for p in range(top_level + 1)]
    dims = [d.dim for d in degs]
    js = range(1, graph.arrangement.size + 1)
    diffs = []
    for p in range(top_level):
        src, tgt = degs[p], degs[p + 1]
        cols = []
        for t in src.basis:
            vec = [Q0] * tgt.dim
            for j in js:
                aj = a.of(j)
                if aj == 0:
                    continue
                vk, sign, coords = tgt.expand((j,) + t)
                if coords:
                    _add_at(vec, tgt.offsets[vk], sign * aj, coords)
            cols.append(vec)
        diffs.append(Matrix.from_cols(cols, tgt.dim))
    return ChainComplex(0, dims, diffs)


def _add_at(vec, off, f, coords):
    """vec[off + i] += f * c over the sparse coordinates (i, c)."""
    for i, c in coords:
        vec[off + i] += f * c


def duality_pairing(os: OSBasis, fl: FlagDegree) -> Matrix:
    """Pairing matrix <os basis, flag basis>; rows run over the OS basis."""
    if os.degree != fl.degree:
        raise ShapeError("pairing requires equal degrees")
    rows = []
    flag_basis = [f for vk in fl.vertex_keys for f in fl.spaces[vk].basis]
    for t in os.basis:
        rows.append([_pair_generators(t, f) for f in flag_basis])
    return Matrix.from_rows(rows, cols=fl.dim)


def _pair_generators(tup, flag):
    """<(H_{j_1},..,H_{j_p}), F_{a_0,..,a_p}> = sign of the unique ordering
    of the tuple tracing the flag, else 0.  A flag member is a vertex key,
    which is its maximal id tuple."""
    p = len(tup)
    remaining = set(tup)
    perm = []
    for k in range(1, p + 1):
        ids = set(flag[k])
        stage = [j for j in tup if j in ids]
        if len(stage) != k:
            return Q0
        new = [j for j in stage if j in remaining]
        if len(new) != 1:
            return Q0
        perm.append(new[0])
        remaining.discard(new[0])
    return Fraction(sort_with_sign([tup.index(j) for j in perm])[1])


def shapovalov_scalar(graph: ArrangementGraph, a: ExponentAssignment) -> ChainMap:
    """The Shapovalov chain map from the flag complex to the Aomoto complex:
    a flag goes to the sum over hyperplane tuples tracing it, weighted by
    the product of their exponents."""
    a.for_arrangement(graph.arrangement)
    f = flag_complex(graph)
    am = aomoto_complex(graph, a)
    comps = []
    for p in range(graph.max_level + 1):
        fd = flag_degree(graph, p)
        osd = os_space(graph, p)
        cols = []
        for vk in fd.vertex_keys:
            for flag in fd.spaces[vk].basis:
                vec = [Q0] * osd.dim
                for tup in product(*flag[1:]):
                    coef = Q1
                    for j in tup:
                        coef *= a.of(j)
                    if coef == 0:
                        continue
                    vk, sign, coords = osd.expand(tup)
                    if coords:
                        _add_at(vec, osd.offsets[vk], sign * coef, coords)
                cols.append(vec)
        comps.append(Matrix.from_cols(cols, osd.dim))
    return ChainMap(f, am, comps)


def flag_form_complex(graph: ArrangementGraph, a: ExponentAssignment) -> ChainComplex:
    """The image of the Shapovalov map inside the Aomoto complex."""
    return image_complex(shapovalov_scalar(graph, a))


# -- text format ----------------------------------------------------------------

def parse_exponents(text, path=None) -> ExponentAssignment:
    """Parse the .exp format: `a <hyperplane-index> <rational>` lines and an
    optional `kappa <rational>` line."""
    values = {}
    kappa = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "a" and len(parts) == 3:
            try:
                j = int(parts[1])
            except ValueError:
                raise ParseError("bad exponent line", path, lineno)
            v = parse_rational(parts[2], path, lineno)
            if j in values:
                raise ParseError(f"duplicate exponent for hyperplane {j}", path, lineno)
            values[j] = v
        elif parts[0] == "kappa" and len(parts) == 2:
            kappa = parse_rational(parts[1], path, lineno)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", path, lineno)
    try:
        return ExponentAssignment(values, kappa)
    except ShapeError as exc:
        raise ParseError(str(exc), path)


def format_exponents(a: ExponentAssignment) -> str:
    lines = [f"a {j} {a.values[j]}" for j in sorted(a.values)]
    if a.kappa is not None:
        lines.append(f"kappa {a.kappa}")
    return "\n".join(lines) + "\n"
