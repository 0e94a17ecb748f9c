"""Independent Lie-theoretic oracle for the discriminantal application.

For a small root system, a dominant integral highest weight, and a weight
of the root lattice, the Borel-Weil-Bott theorem computes the nilpotent
homology weight spaces by a Weyl-group enumeration.  kz_check runs the
matching quiver pipeline (discriminantal arrangement, exponents from the
bilinear form, symmetric-group equivariance, determinant twist,
MacPherson extension) and compares the two tables degree by degree.

What does not depend on the instance is built once and shared.  The Weyl
group is closed once per root-system type (`weyl_group`), and `bwb_dims`
applies all its elements to Lambda + rho in one product.  C_{1,N} and its
strata graph are built once per N (`_GRAPH_BY_N`, which a caller may
clear to start cold): the hyperplanes do not depend on how N splits into
weights, and the exponents are read off the Gram matrix without an
arrangement.  What the equivariant pipeline keeps hangs off that graph
(`arrangement.per_graph`).  The symmetry group itself is built on every
call (`equivariant.build_action`, one product per generator): the
benchmark's traced kz_grid pass exercises that boundary, and a memo
would pay only on repeated instances."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import mul

from .arrangement import build_graph, discriminantal
from .cohomology import scalar_from_exponents
from .equivariant import (AffineMap, EquivariantLevelZero, build_action,
                          equivariant_cohomology)
from .errors import HypothesisError, ShapeError
from .linalg import Matrix, Q0, Q1, solve_matrix
from .oscomplex import ExponentAssignment
from .quiver import Spectrum, is_resonant_lambda, spectrum_lambda

CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -2], [-1, 2]],
}

GRAM = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -1], [-1, 1]],
}

WEYL_ORDER = {"A1": 2, "A2": 6, "A3": 24, "B2": 8}


class RootSystem:
    """Cartan and Gram data of one of the supported small types, with
    fundamental weights and rho in root-basis coordinates."""

    def __init__(self, type_):
        if type_ not in CARTAN:
            raise ShapeError(f"unsupported root system {type_!r}; "
                             f"supported: {sorted(CARTAN)}")
        self.type = type_
        self.cartan = Matrix.from_rows([[Fraction(x) for x in row]
                                        for row in CARTAN[type_]])
        self.bilinear = Matrix.from_rows([[Fraction(x) for x in row]
                                          for row in GRAM[type_]])
        self.rank = self.cartan.rows
        for i in range(self.rank):
            for j in range(self.rank):
                expect = 2 * self.bilinear[i, j] / self.bilinear[j, j]
                if self.cartan[i, j] != expect:
                    raise ShapeError("Cartan and Gram matrices disagree")
        # fundamental weights: row i solves <w_i, alpha_j^vee> = delta_ij
        ct = self.cartan.transpose()
        inv = solve_matrix(ct, Matrix.identity(self.rank))
        self.fundamental_weights = inv.transpose()
        self.rho = tuple(sum(self.fundamental_weights.col(j), Q0)
                         for j in range(self.rank))

    def weight_from_fundamental(self, coords):
        coords = list(coords)
        if len(coords) != self.rank:
            raise ShapeError("highest-weight coordinate count mismatch")
        out = [Q0] * self.rank
        for i, c in enumerate(coords):
            for j in range(self.rank):
                out[j] += Fraction(c) * self.fundamental_weights[i, j]
        return tuple(out)

    def pairing(self, v, w):
        """(v, w) for root-basis coordinate vectors."""
        acc = Q0
        for i in range(self.rank):
            for j in range(self.rank):
                acc += v[i] * self.bilinear[i, j] * w[j]
        return acc

    def simple_reflection(self, j):
        # on root-basis coordinates: x_j -> x_j - sum_i C_ij x_i, rest fixed
        m = [[Q1 if i == k else Q0 for k in range(self.rank)] for i in range(self.rank)]
        for i in range(self.rank):
            m[j][i] = (Q1 if i == j else Q0) - self.cartan[i, j]
        return Matrix.from_rows(m, cols=self.rank)


class WeylGroup:
    """All elements as matrices on root-basis coordinates, with Coxeter
    lengths from breadth-first closure over the simple reflections;
    `stacked` is the elements one below the other, so that one product
    applies every element to a vector."""

    def __init__(self, rs: RootSystem):
        self.root_system = rs
        gens = [rs.simple_reflection(j) for j in range(rs.rank)]
        ident = Matrix.identity(rs.rank)
        lengths = {ident: 0}
        order = [ident]
        frontier = [ident]
        while frontier:
            nxt = []
            for w in frontier:
                for s in gens:
                    c = s * w
                    if c not in lengths:
                        lengths[c] = lengths[w] + 1
                        order.append(c)
                        nxt.append(c)
            frontier = nxt
        self.elements = order
        self.lengths = [lengths[w] for w in order]
        self.stacked = ident.vstack(*order[1:])

    def __len__(self):
        return len(self.elements)


_WEYL_BY_TYPE = {}


def weyl_group(rs: RootSystem) -> WeylGroup:
    """The Weyl group of rs's type: closed once per type, then shared."""
    w = _WEYL_BY_TYPE.get(rs.type)
    if w is None:
        w = WeylGroup(rs)
        if len(w) != WEYL_ORDER[rs.type]:
            raise ShapeError(f"Weyl closure produced {len(w)} elements, "
                             f"expected {WEYL_ORDER[rs.type]}")
        _WEYL_BY_TYPE[rs.type] = w
    return w


class KZInstance:
    """A root system, a dominant integral highest weight (fundamental
    coordinates), nonnegative integer weights per simple root, and the
    positive deformation parameter kappa."""

    def __init__(self, type_, highest, weights, kappa=None):
        self.root_system = RootSystem(type_)
        self.highest = tuple(int(x) for x in highest)
        if any(x < 0 for x in self.highest):
            raise ShapeError("highest weight must be dominant integral")
        self.weights = tuple(int(k) for k in weights)
        if len(self.weights) != self.root_system.rank:
            raise ShapeError("need one weight per simple root")
        if any(k < 0 for k in self.weights):
            raise ShapeError("weights must be nonnegative")
        self.n = sum(self.weights)
        if kappa is None:
            kappa = default_kappa(self)
        self.kappa = Fraction(kappa)
        if self.kappa <= 0:
            raise ShapeError("kappa must be positive")

    def capital_lambda(self):
        return self.root_system.weight_from_fundamental(self.highest)


def unscaled_exponents(inst: KZInstance):
    """Exponent numerators before division by kappa, by hyperplane index
    of C_{1,N} (the order of `discriminantal`): -(alpha_pi(i), Lambda) on
    t_i = 0, then (alpha_pi(i), alpha_pi(j)) on t_i = t_j, i < j, read off
    the Gram matrix; pi(i) is the simple root of coordinate i."""
    gram = inst.root_system.bilinear
    lam = inst.capital_lambda()
    pi = [r for r, k in enumerate(inst.weights) for _ in range(k)]
    values = {i: -sum(map(mul, gram.row(r), lam))
              for i, r in enumerate(pi, start=1)}
    pairs = [gram[r, s] for i, r in enumerate(pi) for s in pi[i + 1:]]
    values.update(enumerate(pairs, start=inst.n + 1))
    return values


def default_kappa(inst: KZInstance):
    """2 (1 + sum of |unscaled exponent|): past the bound that forces
    every |lambda_alpha| below one."""
    if inst.n == 0:
        return Fraction(2)
    return 2 * (1 + sum(abs(v) for v in unscaled_exponents(inst).values()))


def kz_exponents(inst: KZInstance):
    """The discriminantal arrangement (that of the per-N graph), its
    exponent assignment, and the block-permutation symmetry group."""
    arrangement = _discriminantal_graph(inst.n).arrangement
    exponents = ExponentAssignment(unscaled_exponents(inst), kappa=inst.kappa)
    gens = []
    start = 1
    for k in inst.weights:
        for i in range(start, start + k - 1):
            perm = list(range(1, inst.n + 1))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            gens.append(AffineMap.permutation(tuple(perm)))
        start += k
    action = build_action(arrangement, gens)
    return arrangement, exponents, action


def bwb_dims(inst: KZInstance):
    """dims[k] = number of Weyl elements w with length N-k and
    w(Lambda+rho) - rho = Lambda - lambda_bar; at most one each for
    regular Lambda+rho.  Every element is applied to Lambda+rho in one
    product."""
    rs = inst.root_system
    w = weyl_group(rs)
    lr = tuple(a + b for a, b in zip(inst.capital_lambda(), rs.rho))
    flat = (w.stacked * Matrix.from_cols([lr], rs.rank)).entries
    images = [flat[i:i + rs.rank] for i in range(0, len(flat), rs.rank)]
    if [i for i, x in enumerate(images) if x == lr] != [0]:
        raise ShapeError("Lambda + rho is not regular")
    target = tuple(x - k for x, k in zip(lr, inst.weights))
    counts = Counter(ln for x, ln in zip(images, w.lengths) if x == target)
    dims = {}
    for k in range(0, inst.n + 1):
        if counts[inst.n - k] > 1:
            raise ShapeError("weight space dimension exceeds one")
        dims[k] = counts[inst.n - k]
    return dims


_GRAPH_BY_N = {}


def _discriminantal_graph(n):
    """The strata graph of C_{1,n}, built once per n: its hyperplanes do
    not depend on how n splits into weights."""
    if n not in _GRAPH_BY_N:
        _GRAPH_BY_N[n] = build_graph(discriminantal([n])[0])
    return _GRAPH_BY_N[n]


def kz_check(inst: KZInstance, grid_bound=5):
    """Compare the equivariant intersection-cohomology table of the
    discriminantal local system against the Borel-Weil-Bott oracle."""
    if inst.n > grid_bound:
        raise ShapeError(f"instance size {inst.n} exceeds the bound {grid_bound}")
    oracle = bwb_dims(inst)
    arrangement, exponents, action = kz_exponents(inst)
    graph = _discriminantal_graph(inst.n)
    spectrum = Spectrum({j: exponents.of(j)
                         for j in range(1, arrangement.size + 1)})
    lams = [spectrum_lambda(graph, spectrum, k) for k in graph.vertices]
    if any(is_resonant_lambda(lam) for lam in lams):
        raise HypothesisError("resonant spectrum; enlarge kappa")
    bad = [k for k, lam in zip(graph.vertices, lams) if abs(lam) >= 1]
    if bad:
        raise HypothesisError(f"|lambda| >= 1 at {bad[:3]}; enlarge kappa")
    w = scalar_from_exponents(graph, exponents)
    eq = EquivariantLevelZero.trivial(graph, w, action)
    report = equivariant_cohomology(action, eq, "macpherson", twist_by_det=True)
    quiver_table = {k: report.betti.get(k, 0) for k in range(inst.n + 1)}
    verdict = "MATCH" if quiver_table == oracle else "MISMATCH"
    return {
        "type": inst.root_system.type,
        "highest": list(inst.highest),
        "weights": list(inst.weights),
        "kappa": str(inst.kappa),
        "quiver_betti": {str(k): v for k, v in sorted(quiver_table.items())},
        "bwb_dims": {str(k): v for k, v in sorted(oracle.items())},
        "verdict": verdict,
    }
