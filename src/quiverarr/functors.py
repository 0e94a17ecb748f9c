"""The functor calculus on quivers: restriction between levels, the two
one-step direct images (as an explicit subspace and an explicit quotient
of the sum of the spaces one level up), their composites, adjunction
transport, the explicit level-zero direct images through flag and
Orlik-Solomon coordinates, the quiver Shapovalov morphism and form, the
MacPherson extension, specialization at a stratum, and the Fourier dual.

Subspaces and quotients are carried as explicit inclusion / projection
matrices over the canonical bases (kernel bases in RREF, non-pivot
coordinates for quotients), so induced maps reduce to exact solves.
A full graph is its own top truncation (`arrangement.truncated_graph`,
which makes every truncation here), so `restrict` and `_push` read a
full quiver in place, at the top level, and a push to the top ends on
the full graph itself.  Each one-step image builds a new vertex's boundary sum, space, witness
entry, maps and loops in one pass, and one driver (`_push`) iterates
either step.  The adjunction reuses the witness of the * step, and the
canonical morphism from the ! image to the * image is one solve of the
identity constraints and `quiver.hom_equations`, and one rank.

The level-zero direct images J_{0,*} (Orlik-Solomon coordinates) and
J_{0,!} (flag coordinates) share one form.  A level-zero quiver w is a
local system, one space W and one operator B^j per hyperplane, read once
into the tuple ops = (I_W, B^1, ..., B^n) (`_local_system`, after w's
relation check, kept on w).  A per-graph skeleton (`_star_structure`,
`_shriek_structure`) gives, per source basis element, a list of (k,
sparse coordinates) terms, and `_tensor_map` assembles any such matrix
as the sum of coordinates tensor ops[k], on integer numerators over one
denominator, as it does S_0's prefix maps and `equivariant`'s actions.
A skeleton also marks its identity edges, whose every term has k = 0:
the upward maps of J_{0,*} and the downward maps of J_{0,!}.  Their maps
read only ops[:1], the same for every W of one dimension, so they are a
per-graph value (`_unit_maps`, keyed by ops[:1]), built in one pass and
shared by the local systems on a graph; so are the prefix maps of flags
(`_prefix_structure`), every edge of which is an identity edge.
Skeletons and maps are memoized on their graph (`arrangement.per_graph`).
The Shapovalov morphism S_0 between the images is built level by level
from the * image's downward maps and the prefix maps.  The MacPherson
extension keeps, at each vertex where S_0 is onto (its image basis has
the full dimension), the * image's space and maps, with S_0's component
as the projection, and makes no solve there; at every other vertex it
solves for all its induced maps and its projection in one solve against
the inclusion of an RREF basis, which `linalg.solve_matrix` reads off
its unit rows.

Every sum of vertex spaces here (the ambient sum at a new vertex, which
is `quiver._boundary`, and the hom coordinates) lists its vertices in
the graph's sorted order, each block at its running offset
(`linalg.block_offsets`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations, product
from math import lcm

from .arrangement import (ArrangementGraph, per_graph, specialization_base,
                          specialization_graph, truncated_graph)
from .errors import (InternalInconsistencyError, InvalidQuiverError,
                     ShapeError, UnsupportedError)
from .linalg import (Matrix, Q0, _canonical, _from_int_rows, block_diag,
                     char_poly_roots, image_basis, kernel_basis, kernel_rows,
                     poly_format, product_is_zero, rank, solve_matrix,
                     sort_with_sign)
from .oscomplex import flag_space, os_space
from .quiver import (LevelQuiver, Quiver, QuiverMorphism, _Boundary, _boundary,
                     _format_key, _level_map, _loop_sum, _matrix_json, _neighbors,
                     _through, hom_equations, hom_offsets, is_resonant_lambda,
                     morphism_from_coords)


class SubquotientWitness:
    """How the spaces of a constructed quiver sit in the sums they came
    from: per vertex, an inclusion or projection matrix against the listed
    ambient summands."""

    def __init__(self):
        self.entries = {}

    def record(self, vertex, kind, ambient, matrix):
        self.entries[vertex] = {"kind": kind, "ambient": tuple(ambient),
                                "matrix": matrix}

    def __getitem__(self, vertex):
        return self.entries[vertex]

    def to_json(self):
        return [{"vertex": _format_key(v), "kind": e["kind"],
                 "ambient": [_format_key(a) for a in e["ambient"]],
                 "matrix": _matrix_json(e["matrix"])}
                for v, e in sorted(self.entries.items())]


# -- restriction -------------------------------------------------------------------

def restrict(v: Quiver, k) -> LevelQuiver:
    """The level-k restriction of a level quiver, or of a full one at the
    top level: spaces and maps survive unchanged, and each forgotten
    adjacency leaves the composite loop A_{a,b} A_{b,a}."""
    g = v.graph
    if not 0 <= k < g.max_level:
        raise ShapeError(f"restriction level {k} must be below {g.max_level}")
    t = truncated_graph(g.full, k)
    spaces = {a: v.dim(a) for a in t.vertices}
    maps = {(a, b): m for (a, b), m in v.maps.items() if a in spaces and b in spaces}
    loops = {(at, via): v.map(at, via) * v.map(via, at) for (at, via) in t.loops}
    return LevelQuiver(t, spaces, maps, loops)


# -- one-step direct images -----------------------------------------------------------

def _boundary_op(v: LevelQuiver, beta, bd: _Boundary) -> Matrix:
    """The operator on the ambient sum at beta whose column block a is the
    downward map of the * image at a, and whose row block a is the upward
    map of the ! image at a: the loop A_a^beta on the diagonal block, and
    minus the paths A_{a2,d} A_{d,a} through the deltas d off it."""
    through = (bd.down * bd.up)._form
    form = []
    for a in bd.ups:
        o, loop = bd.offsets[a], v.loop(a, beta)
        hi = o + loop.cols
        for i, (d, nz) in enumerate(loop._form):
            rd, rnz = through[o + i]
            dd = lcm(rd, d)
            f, g = -(dd // rd), dd // d
            row = [(j, x * f) for j, x in rnz if j < o]
            row += [(j + o, x * g) for j, x in nz]
            row += [(j, x * f) for j, x in rnz if j >= hi]
            form.append(_canonical(dd, row))
    return Matrix._raw(bd.ambient, bd.ambient, form)


def _loop_sum_ambient(v, bd: _Boundary, beta, c):
    """The block-diagonal operator sum of the input loops A_g^d over
    d != beta with g > d > c, acting on the ambient sum of bd."""
    full = v.graph.full
    return block_diag([_loop_sum(v, g, [d for d in full.down(g)
                                        if d != beta and full.adjacent(d, c)])
                       for g in bd.ups])


def _next_level(v: LevelQuiver):
    """What both one-step direct images start from: the full graph, the
    truncation one level deeper (the full graph itself at the top), copies
    of v's spaces and maps, and an empty witness."""
    full = v.graph.full
    t = truncated_graph(full, v.level + 1)
    return full, t, dict(v.spaces), dict(v.maps), SubquotientWitness()


def push_star_step(v: LevelQuiver):
    """One-step direct image of the * kind: at each new vertex the space is
    the subspace of the sum one level up cut out by the downward relations,
    recorded in the witness as its inclusion (the kernel of
    `_Boundary.up`, basis in RREF, as columns).  The downward maps into a
    new vertex, and its loops, come from solves against that inclusion.
    Returns (level quiver, witness)."""
    full, t, spaces, maps, witness = _next_level(v)
    loops = {}
    for beta in full.levels(t.max_level):
        bd = _boundary(v, beta)
        inc = kernel_basis(bd.up).basis.transpose()
        spaces[beta] = inc.cols
        witness.record(beta, "inclusion", bd.ups, inc)
        x = solve_matrix(inc, _boundary_op(v, beta, bd))
        if x is None:
            raise InternalInconsistencyError(
                f"downward image misses the subspace at {beta}")
        for a in bd.ups:
            block = range(bd.offsets[a], bd.offsets[a] + v.dim(a))
            # projection of the subspace onto the summand V_a
            maps[(a, beta)] = inc.submatrix(block, range(inc.cols))
            # downward map, landing inside the subspace
            maps[(beta, a)] = x.submatrix(range(x.rows), block)
        for via in full.down(beta):
            x = solve_matrix(inc, _loop_sum_ambient(v, bd, beta, via) * inc)
            if x is None:
                raise InternalInconsistencyError(
                    f"loop does not preserve the subspace at {beta}")
            loops[(beta, via)] = x
    return LevelQuiver(t, spaces, maps, loops), witness


def push_shriek_step(v: LevelQuiver):
    """One-step direct image of the ! kind: at each new vertex the space is
    the quotient of the sum one level up by the images of the downward
    maps (the columns of `_Boundary.down`).  Returns (level quiver,
    witness)."""
    full, t, spaces, maps, witness = _next_level(v)
    loops = {}
    for beta in full.levels(t.max_level):
        bd = _boundary(v, beta)
        for a, a2 in permutations(bd.ups, 2):
            if len(set(full.up(a)) & set(full.up(a2))) > 1:
                raise InternalInconsistencyError(
                    f"multiple connecting vertices above {a}, {a2}")
        # the quotient in coordinates on the free columns (`kernel_rows`);
        # the lift is the inclusion of their unit vectors
        proj, free = kernel_rows(bd.down.transpose())
        spaces[beta] = proj.rows
        witness.record(beta, "projection", bd.ups, proj)
        op = _boundary_op(v, beta, bd)
        if not product_is_zero(op, bd.down):
            raise InternalInconsistencyError(
                f"upward map not defined on the quotient at {beta}")
        for a in bd.ups:
            block = range(bd.offsets[a], bd.offsets[a] + v.dim(a))
            maps[(beta, a)] = proj.submatrix(range(proj.rows), block)
            # upward map: the three-case rule on single-summand representatives
            maps[(a, beta)] = op.submatrix(block, free)
        for via in full.down(beta):
            amb_op = proj * _loop_sum_ambient(v, bd, beta, via)
            if not product_is_zero(amb_op, bd.down):
                raise InternalInconsistencyError(
                    f"loop not defined on the quotient at {beta}")
            loops[(beta, via)] = amb_op.submatrix(range(amb_op.rows), free)
    return LevelQuiver(t, spaces, maps, loops), witness


def _push(v, l, step):
    """Iterate the one-step direct image `step` from v up to level l, above
    v's level (a full quiver is at the top, with no level above it).
    Returns (level quiver, witness of the last step)."""
    if not v.graph.max_level < l <= v.graph.full.max_level:
        raise ShapeError(f"bad target level {l}")
    while v.level < l:
        v, witness = step(v)
    return v, witness


def push_star(v: LevelQuiver, l) -> LevelQuiver:
    """Iterated one-step * direct image up to level l."""
    return _push(v, l, push_star_step)[0]


def push_shriek(v: LevelQuiver, l) -> LevelQuiver:
    """Iterated one-step ! direct image up to level l."""
    return _push(v, l, push_shriek_step)[0]


def adjoint_transport(u: LevelQuiver, phi: QuiverMorphism) -> QuiverMorphism:
    """Transport phi: restrict(u) -> v through the adjunction to a morphism
    u -> push_star_step(v): unchanged below the boundary, and the sum of
    phi after the downward maps of u at the boundary, solved against the
    inclusion of each new vertex that the step's witness records."""
    v = phi.target
    if v.level != u.level - 1:
        raise ShapeError("adjoint_transport needs a morphism at one level down")
    w, witness = push_star_step(v)
    comps = {a: phi.component(a) for a in v.graph.vertices}
    for beta, entry in witness.entries.items():
        blocks = [phi.component(a) * u.map(a, beta) for a in entry["ambient"]]
        sol = solve_matrix(entry["matrix"], blocks[0].vstack(*blocks[1:]))
        if sol is None:
            raise InternalInconsistencyError("transported morphism misses the subspace")
        comps[beta] = sol
    return QuiverMorphism(u, w, comps)


# -- explicit level-zero direct images ----------------------------------------------

def _local_system(graph: ArrangementGraph, w: LevelQuiver):
    """The operator tuple ops = (I_W, B^1, ..., B^n) of a level-zero
    quiver w, once its relations hold (`Quiver.violated_relations`, one
    check per quiver): the identity on W, then the loop operator of each
    hyperplane j, the only operators the skeletons and the prefix maps
    read."""
    if w.level != 0:
        raise ShapeError("expected a level-zero quiver")
    bad = w.violated_relations
    if bad:
        raise InvalidQuiverError(f"level-zero relations fail: {bad[:5]}")
    top = graph.top()
    return (Matrix.identity(w.dim(top)),) + tuple(
        w.loop(top, (j,)) for j in range(1, graph.arrangement.size + 1))


def _tensor_map(entries, rows, ops):
    """The matrix on (coordinates tensor W) whose dw = dim W columns for
    source basis element s are the sum, over its terms (k, coords) in
    entries[s], of the sparse coordinates tensored with ops[k]: rows*dw
    rows, len(entries)*dw columns.  Every direct-image matrix is
    assembled here, on integers: every term's products are summed as
    numerators over one denominator d, the lcm over all terms of
    (coordinate denominator x denominator of the operator's integer
    form), and each row of sums is made canonical over d."""
    dw = ops[0].rows
    ncols = len(entries) * dw
    terms = [(si * dw, coords, ops[k]._common_ints())
             for si, ts in enumerate(entries) for k, coords in ts]
    d = lcm(*{c.denominator * wd for _, coords, (wd, _) in terms for _, c in coords})
    acc = [0] * (rows * dw * ncols)
    for col, coords, (wd, wrows) in terms:
        for ti, c in coords:
            f = c.numerator * (d // (c.denominator * wd))
            base = ti * dw * ncols + col
            for tk, wrow in enumerate(wrows):
                o = base + tk * ncols
                for sk, x in wrow:
                    acc[o + sk] += f * x
    return _from_int_rows(rows * dw, ncols, [(acc[r * ncols:(r + 1) * ncols], d)
                                             for r in range(rows * dw)])


@per_graph
def _unit_maps(graph, skeleton, unit):
    """{edge: map} for the identity edges of a skeleton, assembled in one
    pass against unit = ops[:1]: they read only the identity on W, so
    they are the same for every W of one dimension."""
    edges, dims, identity_edges = skeleton(graph)
    return {e: _tensor_map(edges[e], dims[e[0]], unit) for e in identity_edges}


def _direct_image(graph, skeleton, ops) -> Quiver:
    """The quiver with spaces dims[a] tensor W and, per edge, the map
    assembled from its terms (the skeleton's (terms per edge, dims,
    identity edges)); an identity edge's map is the graph's `_unit_maps`
    one."""
    edges, dims, identity_edges = skeleton(graph)
    kept = _unit_maps(graph, skeleton, ops[:1])
    maps = {e: kept[e] if e in identity_edges else _tensor_map(entries, dims[e[0]], ops)
            for e, entries in edges.items()}
    return Quiver(graph, {a: dims[a] * ops[0].rows for a in graph.vertices}, maps)


@per_graph
def _shriek_structure(graph):
    """Per-graph skeleton of the flag-coordinate direct image: (terms,
    dims, identity edges).  terms[(target, source)] lists, per basis flag
    of the source, its (k, sparse target coordinates) terms; dims are
    the flag space dimensions.  A downward edge, an identity edge, has the
    one term (0, coords of the extended flag, signed); an upward edge has
    one term (j, coords of the cutoff flag, signed) per live hyperplane j
    of the single live cutoff.  For a basis flag f of level m and a cutoff flag cut that
    agrees with it up to member k, j is live when j ^ f[k] = f[k+1] and
    j ^ cut[t] = f[t+1] for t = k+1 .. m-1.  Flag members are vertex keys,
    the sets of hyperplanes through their strata, and each of these pairs
    lies one level apart, so j ^ x = y exactly when j is in y but not in
    x: the live set is (f[k+1] - f[k]) intersected with every
    (f[t+1] - cut[t]), found by set arithmetic on the keys."""
    down = {}
    up = {}
    for b in graph.vertices:
        m = graph.level[b]
        fb = flag_space(graph, b)
        for b2 in graph.down(b):
            coords = flag_space(graph, b2).coords
            down[(b2, b)] = [[(0, _signed((-1) ** m, coords(f + (b2,))))] for f in fb.basis]
        for a in graph.up(b):
            coords = flag_space(graph, a).coords
            entries = []
            for f in fb.basis:
                # at most one candidate cutoff carries a nonempty
                # hyperplane sum; summing over candidates agrees with the
                # single-cutoff formulation and stays total
                live = []
                for cut in _cutoff_candidates(graph, f, a):
                    agree = 0
                    while agree < m and f[agree] == cut[agree]:
                        agree += 1
                    k = agree - 1
                    hits = set(f[k + 1]).difference(f[k])
                    for t in range(k + 1, m):
                        hits.intersection_update(f[t + 1])
                        hits.difference_update(cut[t])
                    if not hits:
                        continue
                    if live:
                        raise InternalInconsistencyError(
                            "two cutoff flags carry nonempty sums")
                    vec = _signed((-1) ** k, coords(cut))
                    live = [(j, vec) for j in sorted(hits)]
                entries.append(live)
            up[(a, b)] = entries
    return ({**down, **up}, {a: flag_space(graph, a).dim for a in graph.vertices},
            frozenset(down))


def j0_shriek(graph: ArrangementGraph, w: LevelQuiver) -> Quiver:
    """The full direct image of the ! kind in flag coordinates: spaces
    F_alpha tensor W, downward maps extend the flag with sign (-1)^level,
    upward maps are the cutoff rule."""
    return _direct_image(graph, _shriek_structure, _local_system(graph, w))


def _signed(sign, coords):
    """Sparse coordinates times sign, which is 1 or -1."""
    return coords if sign > 0 else tuple((i, -c) for i, c in coords)


def _cutoff_candidates(graph, flag, a):
    """Flags ending at `a` whose members each contain the next member of
    `flag`, walked up from `a`: member k lies one level above member k+1
    and above flag[k+1]."""
    cands = [(a,)]
    for k in range(len(flag) - 3, -1, -1):
        above = set(graph.up(flag[k + 1]))
        cands = [(u,) + c for c in cands for u in graph.up(c[0]) if u in above]
    return cands


@per_graph
def _star_structure(graph):
    """Per-graph skeleton of the Orlik-Solomon direct image: (terms,
    dims, identity edges).  terms[(target, source)] lists, per basis
    generator t of the source, its (k, sparse target coordinates) terms;
    dims are the OS space dimensions.  A downward edge has one term (j,
    coords of (j,) + t) per hyperplane j whose insertion lands there; an
    upward edge, an identity edge, has the one term (0, coords of the
    signed deletion sum)."""
    os_by_level = {p: os_space(graph, p) for p in range(graph.max_level + 1)}
    hyperplanes = range(1, graph.arrangement.size + 1)
    down = {}
    up = {}
    for b in graph.vertices:
        m = graph.level[b]
        basis = os_by_level[m].spaces[b].basis
        below = {b2: [[] for _ in basis] for b2 in graph.down(b)}
        if below:
            for si, t in enumerate(basis):
                for j in hyperplanes:
                    b2, sign, coords = os_by_level[m + 1].expand((j,) + t)
                    if coords and b2 in below:
                        below[b2][si].append((j, _signed(sign, coords)))
        for b2, entries in below.items():
            down[(b2, b)] = entries
        above = {a: [{} for _ in basis] for a in graph.up(b)}
        for si, t in enumerate(basis):
            for k in range(m):
                a, _, coords = os_by_level[m - 1].expand(t[:k] + t[k + 1:])
                if a in above:
                    acc = above[a][si]
                    for i, c in _signed((-1) ** k, coords):
                        acc[i] = acc.get(i, Q0) + c
        for a, entries in above.items():
            up[(a, b)] = [[(0, tuple(sorted((i, c) for i, c in acc.items() if c)))]
                          for acc in entries]
    return ({**down, **up}, {a: os_by_level[graph.level[a]].spaces[a].dim
                             for a in graph.vertices}, frozenset(up))


def j0_star(graph: ArrangementGraph, w: LevelQuiver) -> Quiver:
    """The full direct image of the * kind in Orlik-Solomon coordinates:
    spaces P_alpha(A) tensor W, downward maps insert a hyperplane symbol
    against its loop operator, upward maps delete with alternating signs."""
    return _direct_image(graph, _star_structure, _local_system(graph, w))


def _prefix_structure(graph):
    """The skeleton of the prefix maps P_{a,b} of flags, for every vertex
    a and b in up(a), all identity edges: P_{a,b} sends a basis flag g of
    a with g[-2] == b to the coordinates of g[:-1] in the flag space at
    b, and every other basis flag to zero."""
    edges, dims = {}, {}
    for a in graph.vertices:
        basis = flag_space(graph, a).basis
        for b in graph.up(a):
            fb = flag_space(graph, b)
            dims[b] = fb.dim
            edges[(b, a)] = [[(0, fb.coords(g[:-1]))] if g[-2] == b else [] for g in basis]
    return edges, dims, edges.keys()


def s0(graph: ArrangementGraph, w: LevelQuiver) -> QuiverMorphism:
    """The quiver Shapovalov morphism from the flag-coordinate direct image
    to the Orlik-Solomon one: a flag goes to the sum over hyperplane tuples
    tracing it, against the reversed product of their loop operators.
    Inserting a tuple's last hyperplane in front is the * image's downward
    map up to the sign (-1)^(m-1), so at a of level m, S_0(a) = (-1)^(m-1)
    sum over b in up(a) of star(a, b) S_0(b) P_{a,b} (`_prefix_structure`),
    and S_0 is the identity on W at the top: the downward relation S_0(a)
    shriek(a, b) = star(a, b) S_0(b) read through the flags ending at a.
    The morphism check against the independently built ! image still tests
    both relations on every edge."""
    shriek = j0_shriek(graph, w)
    star = j0_star(graph, w)
    unit = _local_system(graph, w)[:1]
    prefix = _unit_maps(graph, _prefix_structure, unit)
    comps = {graph.top(): unit[0]}
    for a in graph.vertices[1:]:
        ups = graph.up(a)
        lifted = [comps[b] * prefix[(b, a)] for b in ups]
        comps[a] = (_level_map(star, [a], ups)
                    * lifted[0].vstack(*lifted[1:])).scale((-1) ** (graph.level[a] - 1))
    return QuiverMorphism(shriek, star, comps)


def shapovalov_form(graph: ArrangementGraph, w: LevelQuiver):
    """The quiver Shapovalov form: a function of two flags (of the same
    vertex-chain shape) with values in endomorphisms of W: per tuple
    through flag1, the signed count of the permutations matching it to
    flag2 times the reversed product of its loop operators."""
    ops = _local_system(graph, w)
    dw = ops[0].rows

    def form(flag1, flag2):
        flag1, flag2 = tuple(flag1), tuple(flag2)
        if len(flag1) != len(flag2) or flag1[0] != flag2[0]:
            raise ShapeError("flags must share length and start")
        m = len(flag1) - 1
        ids1, ids2 = flag1[1:], flag2[1:]
        signs = [(sigma, sort_with_sign(sigma)[1]) for sigma in permutations(range(m))]
        total = Matrix.zero(dw, dw)
        for tup in product(*ids1):
            count = sum(s for sigma, s in signs
                        if all(tup[sigma[k]] in ids2[k] for k in range(m)))
            if count:
                loops = ops[0]
                for j in tup:
                    loops = ops[j] * loops
                total = total + loops.scale(count)
        return total

    return form


class MacPhersonResult:
    """The image of the Shapovalov morphism, with the maps realizing it as
    a quotient of the ! image and a subobject of the * image.

    `inclusion` and `projection` are built on first read, through
    `QuiverMorphism` with its full check.  Both checks restate what holds
    by construction: the inclusion's equations are the ones `solve_matrix`
    solved exactly, or hold because incl[a] is the identity at a vertex a
    where S_0 is onto, and the projection's follow from the checked `s0`
    morphism, since incl[a] is injective.  The CLI and the cohomology
    routines read only `quiver` and `witness`."""

    def __init__(self, quiver, witness, incl, proj, shriek, star):
        self.quiver = quiver
        self.witness = witness
        self._incl = incl
        self._proj = proj
        self.shriek = shriek
        self.star = star

    @cached_property
    def inclusion(self):
        return QuiverMorphism(self.quiver, self.star, self._incl)

    @cached_property
    def projection(self):
        return QuiverMorphism(self.shriek, self.quiver, self._proj)


def macpherson(graph: ArrangementGraph, w: LevelQuiver) -> MacPhersonResult:
    """The MacPherson extension: per-vertex images of the Shapovalov
    morphism inside the * direct image, with the induced maps.  A vertex a
    where S_0 is onto ("whole": its image basis, the RREF of the whole
    space, has dimension star.dim(a)) keeps the * space: incl[a] is the
    identity, the projection is S_0 at a, and the map of each star edge
    (a, b) is star(a, b) incl[b], star(a, b) itself when b is whole; the
    image is then preserved trivially.  At any other vertex, one
    elimination against the inclusion incl[a] solves for all those maps
    and for the projection; incl[a] has full column rank, so each
    solution is unique."""
    s = s0(graph, w)
    shriek, star = s.source, s.target
    incl = {}
    spaces = {}
    whole = set()
    for a in graph.vertices:
        basis = image_basis(s.component(a))
        spaces[a] = basis.dim
        if basis.dim == star.dim(a):
            whole.add(a)
            incl[a] = Matrix.identity(basis.dim)
        else:
            incl[a] = basis.basis.transpose()
    edges = {a: [] for a in graph.vertices}
    for e in star.maps:
        edges[e[0]].append(e)
    solved = {}
    proj_comps = {}
    for a in graph.vertices:
        blocks = [star.maps[e] if e[1] in whole else star.maps[e] * incl[e[1]]
                  for e in edges[a]] + [s.component(a)]
        if a in whole:
            parts = blocks
        else:
            x = solve_matrix(incl[a], blocks[0].hstack(*blocks[1:]))
            if x is None:
                raise InternalInconsistencyError("image not preserved by the quiver maps")
            parts = []
            o = 0
            for t in blocks:
                parts.append(x.submatrix(range(x.rows), range(o, o + t.cols)))
                o += t.cols
        proj_comps[a] = parts.pop()
        solved.update(zip(edges[a], parts))
    quiver = Quiver(graph, spaces, {e: solved[e] for e in star.maps})
    witness = SubquotientWitness()
    for a in graph.vertices:
        witness.record(a, "inclusion", (a,), incl[a])
    return MacPhersonResult(quiver, witness, incl, proj_comps, shriek, star)


# -- the general Shapovalov morphism -------------------------------------------------

def unique_morphism_restricting_to_identity(p, q, k) -> QuiverMorphism:
    """The unique morphism p -> q whose components at levels <= k are the
    identity; raises when it does not exist or is not unique.  One solve:
    unit rows pinning the low hom coordinates, first so that they clear
    those columns from every row below, then `hom_equations`; the
    solution is unique when that system has full column rank."""
    eqs = hom_equations(p, q)
    offsets, total = hom_offsets(p, q)
    g = p.graph
    pinned, values = [], []
    for vtx in g.vertices:
        if g.level[vtx] <= k:
            n = p.dim(vtx)
            if n != q.dim(vtx):
                raise ShapeError("low-level spaces differ; no identity restriction")
            pinned += [(1, [(c, 1)]) for c in range(offsets[vtx], offsets[vtx] + n * n)]
            values += Matrix.identity(n).entries
    system = Matrix._raw(len(pinned), total, pinned).vstack(eqs)
    sol = solve_matrix(system, Matrix(system.rows, 1, values + [0] * eqs.rows))
    if sol is None:
        raise InternalInconsistencyError("no morphism restricts to the identity")
    if rank(system) < total:
        raise InternalInconsistencyError("identity-restricting morphism is not unique")
    return morphism_from_coords(p, q, sol.col(0))


def s_general(v: LevelQuiver, l) -> QuiverMorphism:
    """The canonical morphism from the ! to the * direct image at level l,
    characterized as the unique one restricting to the identity."""
    k = v.level
    if not k < l:
        raise ShapeError("target level must exceed the source level")
    p = push_shriek(v, l)
    q = push_star(v, l)
    return unique_morphism_restricting_to_identity(p, q, k)


# -- specialization and Fourier duality ------------------------------------------------

def specialize(v: Quiver, alpha):
    """The specialization of a quiver of a central arrangement at a vertex:
    class spaces are the sums over class members, class maps the sums of
    the member maps.  Returns (quiver on the class graph, the classes: that
    graph's vertices)."""
    if isinstance(v, LevelQuiver):
        raise ShapeError("specialization takes a full quiver, not a level quiver")
    g = v.graph
    if not isinstance(g, ArrangementGraph):
        raise UnsupportedError("specialization needs the arrangement geometry")
    cg = specialization_graph(g, alpha)
    spaces = {ck: sum(v.dim(m) for m in ck) for ck in cg.vertices}
    maps = {}
    for ck in cg.vertices:
        for ck2 in _neighbors(cg, ck):
            maps[(ck, ck2)] = _level_map(v, ck, ck2)
    return Quiver(cg, spaces, maps), cg.vertices


def spec_nonres_ops(v: Quiver, alpha):
    """The per-vertex operators controlling specialization: at each vertex
    b, the sum of the round trips through neighbors g whose intersection
    with the base stratum agrees with that of b."""
    g = v.graph
    if isinstance(v, LevelQuiver) or not isinstance(g, ArrangementGraph):
        raise UnsupportedError("specialization needs the arrangement geometry")
    a = specialization_base(g, alpha)
    return {b: _through(v, b, [c for c in _neighbors(g, b)
                               if g.wedge_key(a, c) == g.wedge_key(b, c)])
            for b in g.vertices}


def spec_nonres_report(v: Quiver, alpha):
    """Characteristic polynomials of the specialization operators, with
    the integer-eigenvalue exclusion the specialization theorem needs;
    both from one `linalg.char_poly_roots` call per vertex."""
    ops = spec_nonres_ops(v, alpha)
    out = []
    for b, m in sorted(ops.items()):
        p, roots, _ = char_poly_roots(m)
        out.append({
            "vertex": b,
            "char_poly": poly_format(p),
            "nonzero_integer_eigenvalues": sorted({int(r) for r in roots
                                                   if is_resonant_lambda(r)}),
        })
    return out


def fourier_dual(v: Quiver) -> Quiver:
    """The combinatorial Fourier dual: same spaces, every map scaled by
    the sign eps(source-end, target-end); applying it twice is the
    identity."""
    if isinstance(v, LevelQuiver):
        raise ShapeError("Fourier duality takes a full quiver, not a level quiver")
    g = v.graph
    if isinstance(g, ArrangementGraph) and not g.is_central():
        raise UnsupportedError("Fourier duality requires a central arrangement")
    maps = {}
    for (a, b), m in v.maps.items():
        maps[(a, b)] = m.scale(g.epsilon(b, a))
    return Quiver(g, dict(v.spaces), maps)
