"""Finite symmetry groups of an arrangement and the invariant-subcomplex
cohomology endpoints.

A group element is an affine map preserving the arrangement; it permutes
hyperplanes, hence strata, hence flag and Orlik-Solomon generators (the
latter pick up the skew-symmetry sign when re-sorted).  Tensoring with a
representation on the level-zero space gives chain automorphisms of the
C+ complexes of the direct-image quivers.  The invariants of the complex
twisted by a character chi are computed from generators only: for G
generated by S, V^{G,chi} is the intersection over s in S of
ker(A_s - chi(s)).  Only the generators' automorphisms are built; the
identities over the whole group (the group law, the Reynolds projector
and its image) are checked by `quiverarr selftest` and the tests.

A group action is built per call and not kept: `build_action` closes the
maps and finds each generator's hyperplane permutation with one matrix
product against one lookup table.  What depends only on the graph and a
hyperplane permutation is kept with the graph (`arrangement.per_graph`):
the permuted Orlik-Solomon and flag bases of each degree, so a chain
automorphism tensors only rho.  The MacPherson degree inclusions are
built once per `chain_automorphisms` call, for all its elements.
`FUNCTORS` is the one table of the direct images a table is taken of,
each with the model its report names; the CLI reads its `--functor`
choices from it."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .arrangement import ArrangementGraph, per_graph
from .cohomology import CohomologyReport, _betti_map, _require_central, smallness_status
from .errors import (InternalInconsistencyError, NotFiniteError, ParseError,
                     ShapeError, SymmetryError)
from .functors import _tensor_map, j0_shriek, j0_star, macpherson
from .linalg import (Matrix, Q0, Q1, _primitive, block_diag, det, kernel_basis,
                     parse_rational, products_equal, rank, solve_matrix,
                     subcomplex)
from .oscomplex import flag_degree, os_space
from .quiver import LevelQuiver, c_plus


class AffineMap:
    """z -> linear z + translation with invertible linear part."""

    __slots__ = ("linear", "translation")

    def __init__(self, linear: Matrix, translation=None):
        if linear.rows != linear.cols:
            raise ShapeError("linear part must be square")
        if translation is None:
            translation = tuple([Q0] * linear.rows)
        translation = tuple(Fraction(x) for x in translation)
        if len(translation) != linear.rows:
            raise ShapeError("translation length mismatch")
        if linear.rows and rank(linear) != linear.rows:
            raise ShapeError("linear part must be invertible")
        self.linear = linear
        self.translation = translation

    def compose(self, other):
        """self after other; invertible as both are, so unchecked."""
        out = AffineMap.__new__(AffineMap)
        out.linear = self.linear * other.linear
        out.translation = tuple(x + y for x, y in zip(
            self.linear.apply(other.translation), self.translation))
        return out

    def is_identity(self):
        return (self.linear == Matrix.identity(self.linear.rows)
                and all(x == 0 for x in self.translation))

    def key(self):
        """Equal for equal maps; hashes the linear part by its integer rows."""
        return (self.linear, self.translation)

    @staticmethod
    def identity(n):
        return AffineMap(Matrix.identity(n))

    @staticmethod
    def permutation(perm):
        """Coordinate permutation z_i -> z_{perm^{-1}(i)}; perm is a tuple
        with perm[i] = image of coordinate i+1 (1-based values)."""
        n = len(perm)
        rows = [[Q0] * n for _ in range(n)]
        for i in range(n):
            rows[perm[i] - 1][i] = Q1
        return AffineMap(Matrix.from_rows(rows, cols=n))


class GroupAction:
    """A finite group of affine symmetries: closed element list with the
    identity first, the generator indices, and the induced hyperplane
    permutations.  The multiplication table is built on first use."""

    def __init__(self, elements, hyperplane_perm, generators):
        self.elements = list(elements)
        self.hyperplane_perm = [dict(p) for p in hyperplane_perm]
        self.generators = list(generators)
        if not self.elements or not self.elements[0].is_identity():
            raise SymmetryError("identity must come first")

    @property
    def order(self):
        return len(self.elements)

    def perm(self, gi, j):
        return self.hyperplane_perm[gi][j]

    @cached_property
    def table(self):
        index = {e.key(): i for i, e in enumerate(self.elements)}
        return [[index[a.compose(b).key()] for b in self.elements]
                for a in self.elements]

    def mul(self, gi, gj):
        return self.table[gi][gj]


def _hyperplane_perms(arrangement, maps):
    """For each affine map T of `maps`, j -> the index of the image
    hyperplane T(H_j); raises SymmetryError unless T permutes the
    hyperplanes.  T(z) = L z + t takes {c0 + c.z = 0} to
    {(c0 - c L^-1 t) + c L^-1 . z = 0}, so the equation rows (c, c0) of
    all hyperplanes times [[L^-1, -L^-1 t], [0, 1]], one product, are the
    rows of the images.  Rows are looked up by their primitive integer
    form, which proportional rows share, in one table for all the maps."""
    n = arrangement.ambient_dim
    rows = Matrix.from_rows([h.equation_row() for h in arrangement.hyperplanes],
                            cols=n + 1)
    where = {_projective_key(r): j for j, r in enumerate(rows._form, start=1)}
    out = []
    for amap in maps:
        linv = solve_matrix(amap.linear, Matrix.identity(n))
        shift = linv.apply(amap.translation)
        homogeneous = Matrix.from_rows([linv.row(i) + (-shift[i],) for i in range(n)]
                                       + [(Q0,) * n + (Q1,)])
        perm = {}
        for j, r in enumerate((rows * homogeneous)._form, start=1):
            img = where.get(_projective_key(r))
            if img is None:
                raise SymmetryError(f"map does not preserve hyperplane {j}")
            perm[j] = img
        if sorted(perm.values()) != list(range(1, arrangement.size + 1)):
            raise SymmetryError("hyperplane images are not a permutation")
        out.append(perm)
    return out


def _projective_key(row):
    """The numerators of the nonzero canonical row (d, nz) made primitive:
    the same for exactly the rows proportional to it."""
    x = dict(row[1])
    _primitive(x)
    return tuple(x.items())


def build_action(arrangement, maps, bound=4096) -> GroupAction:
    """Close the given affine maps under composition (which checks that
    they generate a finite group) and verify that each permutes the
    hyperplanes.  The distinct non-identity maps are the generators; the
    closure takes words in them, and the permutation of s after e is
    composed from those of s and e."""
    n = arrangement.ambient_dim
    elements = [AffineMap.identity(n)]
    index = {elements[0].key(): 0}
    for m in maps:
        if m.key() not in index:
            index[m.key()] = len(elements)
            elements.append(m)
    generators = list(range(1, len(elements)))
    factors = {}            # element index -> (s, e): the element is s after e
    ei = 1
    while ei < len(elements):           # the list grows as it is walked
        for si in generators:
            c = elements[si].compose(elements[ei])
            if c.key() not in index:
                if len(elements) >= bound:
                    raise NotFiniteError(f"group closure exceeds {bound}")
                index[c.key()] = len(elements)
                factors[len(elements)] = (si, ei)
                elements.append(c)
        ei += 1
    perms = [{j: j for j in range(1, arrangement.size + 1)}]
    perms += _hyperplane_perms(arrangement, [elements[gi] for gi in generators])
    for ci in range(len(perms), len(elements)):
        ps, pe = (perms[f] for f in factors[ci])
        perms.append({j: ps[k] for j, k in pe.items()})
    return GroupAction(elements, perms, generators)


def det_character(act: GroupAction):
    """Determinant of the linear part, per element; multiplicative."""
    return {gi: det(e.linear) for gi, e in enumerate(act.elements)}


class EquivariantLevelZero:
    """A level-zero quiver with a compatible representation on its space:
    rho(g) B^j = B^{g(j)} rho(g).  For a representation it suffices to
    test that on the generators, since products of intertwiners
    intertwine.  The |G|^2 test that rho is a homomorphism is skipped for
    the trivial assignment, which always is one."""

    def __init__(self, graph: ArrangementGraph, base: LevelQuiver, rho,
                 action: GroupAction):
        self.graph = graph
        self.base = base
        self.action = action
        top = graph.top()
        dim = base.dim(top)
        self.rho = {int(g): m for g, m in rho.items()}
        for gi in range(action.order):
            if gi not in self.rho:
                raise ShapeError(f"missing representation matrix for element {gi}")
            m = self.rho[gi]
            if (m.rows, m.cols) != (dim, dim):
                raise ShapeError("representation matrix shape mismatch")
        ident = Matrix.identity(dim)
        if any(self.rho[gi] != ident for gi in range(action.order)):
            for gi in range(action.order):
                for gj in range(action.order):
                    if self.rho[gi] * self.rho[gj] != self.rho[action.mul(gi, gj)]:
                        raise SymmetryError("rho is not a representation")
        for gi in action.generators:
            for j in range(1, graph.arrangement.size + 1):
                if not products_equal(self.rho[gi], base.loop(top, (j,)),
                                      base.loop(top, (action.perm(gi, j),)), self.rho[gi]):
                    raise SymmetryError(f"rho does not intertwine the loop at {j}")

    @staticmethod
    def trivial(graph, base, action):
        top = graph.top()
        ident = Matrix.identity(base.dim(top))
        return EquivariantLevelZero(graph, base,
                                    {gi: ident for gi in range(action.order)},
                                    action)


# The direct images an equivariant table is taken of, each with the model
# its report names.
FUNCTORS = {"star": "local_system", "shriek": "flag", "macpherson": "intersection"}


def _functor_quiver(graph, eq: EquivariantLevelZero, functor):
    if functor == "star":
        return j0_star(graph, eq.base), None
    if functor == "shriek":
        return j0_shriek(graph, eq.base), None
    if functor == "macpherson":
        mac = macpherson(graph, eq.base)
        return mac.quiver, mac
    raise ShapeError(f"unknown functor {functor!r}; expected one of {tuple(FUNCTORS)}")


def _vertex_image(perm, key):
    return tuple(sorted(perm[j - 1] for j in key))


@per_graph
def _os_images(graph, p, perm):
    """The degree-p piece of C+(j0_star) under the hyperplane permutation
    perm (perm[j - 1] the image of H_j), before W: each OS generator
    permuted and re-sorted, as `_tensor_map` entries, with the degree's
    dimension.  Kept per graph, so only rho is tensored per call."""
    osd = os_space(graph, p)
    entries = []
    for k in osd.vertex_keys:
        k2 = _vertex_image(perm, k)
        for t in osd.spaces[k].basis:
            vk, sign, coords = osd.expand(tuple(perm[j - 1] for j in t))
            if vk != k2:
                raise InternalInconsistencyError(
                    f"image of generator {t} is not a generator at {k2}")
            entries.append([(0, [(osd.offsets[vk] + i, sign * c) for i, c in coords])])
    return entries, osd.dim


@per_graph
def _flag_images(graph, p, perm):
    """As `_os_images` for C+(j0_shriek): permuted flags, no sign."""
    fd = flag_degree(graph, p)
    entries = []
    for k in fd.vertex_keys:
        for f in fd.spaces[k].basis:
            vk, _, coords = fd.expand(tuple(_vertex_image(perm, v) for v in f))
            entries.append([(0, [(fd.offsets[vk] + i, c) for i, c in coords])])
    return entries, fd.dim


def chain_automorphisms(eq: EquivariantLevelZero, functor, elements, mac=None):
    """{gi: the chain automorphism of element gi on C+ of the chosen
    direct image, one matrix per degree} for each gi in `elements`: the
    permuted basis of the degree (`_os_images`, `_flag_images`) tensored
    with rho(gi).  On the MacPherson image it is the * action restricted
    to the image `mac` (macpherson(graph, eq.base), computed when not
    given), through its degree inclusions, built once; raises
    SymmetryError when the action does not preserve that image."""
    graph = eq.graph
    if functor not in FUNCTORS:
        raise ShapeError(f"unknown functor {functor!r}; expected one of {tuple(FUNCTORS)}")
    degrees = range(graph.max_level + 1)
    if functor == "macpherson":
        if mac is None:
            mac = macpherson(graph, eq.base)
        incs = [block_diag([mac.witness[k]["matrix"] for k in graph.levels(p)])
                for p in degrees]
    images = _flag_images if functor == "shriek" else _os_images
    hyperplanes = range(1, graph.arrangement.size + 1)
    out = {}
    for gi in elements:
        perm = tuple(eq.action.perm(gi, j) for j in hyperplanes)
        per_degree = []
        for p in degrees:
            entries, dim = images(graph, p, perm)
            m = _tensor_map(entries, dim, (eq.rho[gi],))
            if functor == "macpherson":
                m = solve_matrix(incs[p], m * incs[p])
                if m is None:
                    raise SymmetryError("group action does not preserve the image")
            per_degree.append(m)
        out[gi] = per_degree
    return out


def equivariant_c_plus(act: GroupAction, eq: EquivariantLevelZero, functor):
    """C+ of the chosen direct image together with the chain automorphisms
    of the generators: (complex, {generator index: per-degree matrices}).
    Each is checked to preserve the MacPherson image and to commute with
    d; as the generators' automorphisms determine every element's, the
    group law is an identity of this construction, not of its input, and
    is checked by `quiverarr selftest` and the tests."""
    quiver, mac = _functor_quiver(eq.graph, eq, functor)
    comp = c_plus(quiver)
    autos = chain_automorphisms(eq, functor, act.generators, mac)
    for per_degree in autos.values():
        for p, d in enumerate(comp.differentials):
            if not products_equal(per_degree[p + 1], d, d, per_degree[p]):
                raise SymmetryError("action does not commute with the differential")
    return comp, autos


def generator_kernels(act: GroupAction, comp, autos, twist_by_det=False):
    """Per degree p, K_p = the intersection over the generators s of
    ker(A_{s,p} - chi(s)), chi = det of the linear part or 1: the
    (twisted) invariants, since chi is multiplicative and every element
    is a product of generators.  With no generators K_p is the whole
    space."""
    chars = {gi: det(act.elements[gi].linear) if twist_by_det else Q1 for gi in autos}
    out = []
    for p, dim in enumerate(comp.dims):
        shifted = [per_degree[p] - Matrix.identity(dim).scale(chars[gi])
                   for gi, per_degree in autos.items()]
        out.append(kernel_basis(Matrix.zero(0, dim).vstack(*shifted)))
    return out


def equivariant_cohomology(act: GroupAction, eq: EquivariantLevelZero,
                           functor, twist_by_det=False) -> CohomologyReport:
    """Betti numbers of the invariant subcomplex of C+ (optionally
    twisted by the determinant character): the differential restricted
    to the generators' common eigenspaces K_p (`generator_kernels`),
    which are the image of the Reynolds projector."""
    graph = eq.graph
    _require_central(graph)
    comp, autos = equivariant_c_plus(act, eq, functor)
    invariants = subcomplex(comp, generator_kernels(act, comp, autos, twist_by_det))
    n = graph.arrangement.ambient_dim
    hyps = [("central arrangement", "verified"),
            ("equivariant structure", "verified"),
            ("maps close to zero", smallness_status(graph, eq.base))]
    note = f"invariants of (C+ tensor {'det' if twist_by_det else 'trivial'})"
    return CohomologyReport(FUNCTORS[functor], _betti_map(invariants, 0, n), hyps, note)

# -- text format (.grp) -----------------------------------------------------------------

def parse_group(text, arrangement, path=None) -> GroupAction:
    """Parse the .grp format: blocks starting `g`, then N rows of the
    linear matrix and one translation row; identity required.  The loader
    closes and verifies the action."""
    n = arrangement.ambient_dim
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    maps = []
    i = 0
    while i < len(lines):
        lineno, ln = lines[i]
        if ln != "g":
            raise ParseError("expected a `g` block header", path, lineno)
        block = lines[i + 1:i + n + 2]
        if len(block) != n + 1:
            raise ParseError("malformed group block", path, lineno)
        rows = [[parse_rational(x, path, row_lineno) for x in row.split()]
                for row_lineno, row in block]
        translation = rows.pop()
        if any(len(r) != n for r in rows) or len(translation) != n:
            raise ParseError("group block has wrong width", path, lineno)
        try:
            maps.append(AffineMap(Matrix.from_rows(rows, cols=n), translation))
        except ShapeError as exc:
            raise ParseError(str(exc), path, lineno)
        i += n + 2
    if not any(m.is_identity() for m in maps):
        raise ParseError("identity element required", path)
    try:
        return build_action(arrangement, maps)
    except (SymmetryError, NotFiniteError) as exc:
        raise ParseError(str(exc), path)


def format_group(act: GroupAction) -> str:
    out = []
    for e in act.elements:
        out.append("g")
        for i in range(e.linear.rows):
            out.append(" ".join(str(x) for x in e.linear.row(i)))
        out.append(" ".join(str(x) for x in e.translation))
    return "\n".join(out) + "\n"
