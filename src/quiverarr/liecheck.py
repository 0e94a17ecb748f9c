"""Independent Lie-theoretic oracle for the discriminantal application.

For a small root system, a dominant integral highest weight, and a weight
of the root lattice, the Borel-Weil-Bott theorem computes the nilpotent
homology weight spaces by a Weyl-group enumeration.  kz_check runs the
matching quiver pipeline (discriminantal arrangement, exponents from the
bilinear form, symmetric-group equivariance, determinant twist,
MacPherson extension) and compares the two tables degree by degree."""

from __future__ import annotations

from fractions import Fraction

from .arrangement import build_graph, discriminantal
from .cohomology import scalar_from_exponents
from .equivariant import (AffineMap, EquivariantLevelZero, build_action,
                          equivariant_cohomology)
from .errors import HypothesisError, ShapeError
from .linalg import Matrix, Q0, Q1, solve_matrix
from .oscomplex import ExponentAssignment
from .quiver import Spectrum, is_nonresonant_spectrum, spectrum_lambda

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
    lengths from breadth-first closure over the simple reflections."""

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

    def __len__(self):
        return len(self.elements)


def weyl_group(rs: RootSystem) -> WeylGroup:
    w = WeylGroup(rs)
    if len(w) != WEYL_ORDER[rs.type]:
        raise ShapeError(f"Weyl closure produced {len(w)} elements, "
                         f"expected {WEYL_ORDER[rs.type]}")
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

    def lambda_bar(self):
        return tuple(Fraction(k) for k in self.weights)

    def capital_lambda(self):
        return self.root_system.weight_from_fundamental(self.highest)


def unscaled_exponents(inst: KZInstance):
    """Exponent numerators before division by kappa, in the hyperplane
    order of the discriminantal arrangement."""
    rs = inst.root_system
    arrangement, pi = discriminantal(inst.weights)
    lam = inst.capital_lambda()
    values = {}
    n = inst.n
    unit = [tuple(Q1 if i == j else Q0 for i in range(rs.rank))
            for j in range(rs.rank)]
    for i in range(1, n + 1):
        values[i] = -rs.pairing(unit[pi[i] - 1], lam)
    idx = n + 1
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            values[idx] = rs.pairing(unit[pi[i] - 1], unit[pi[j] - 1])
            idx += 1
    return arrangement, pi, values


def default_kappa(inst: KZInstance):
    """2 (1 + sum of |unscaled exponent|): past the bound that forces
    every |lambda_alpha| below one."""
    if inst.n == 0:
        return Fraction(2)
    _, _, values = unscaled_exponents(inst)
    return 2 * (1 + sum(abs(v) for v in values.values()))


def kz_exponents(inst: KZInstance):
    """The discriminantal arrangement, its exponent assignment, and the
    block-permutation symmetry group."""
    arrangement, pi, values = unscaled_exponents(inst)
    exponents = ExponentAssignment(values, kappa=inst.kappa)
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
    regular Lambda+rho."""
    rs = inst.root_system
    w = weyl_group(rs)
    lam = inst.capital_lambda()
    rho = rs.rho
    lr = tuple(a + b for a, b in zip(lam, rho))
    stab = [i for i, m in enumerate(w.elements) if m.apply(lr) == lr]
    if stab != [0]:
        raise ShapeError("Lambda + rho is not regular")
    target = tuple(a - Fraction(k) for a, k in zip(lam, inst.lambda_bar()))
    dims = {}
    for k in range(0, inst.n + 1):
        count = 0
        for m, ln in zip(w.elements, w.lengths):
            if ln == inst.n - k and \
                    tuple(x - r for x, r in zip(m.apply(lr), rho)) == target:
                count += 1
        if count > 1:
            raise ShapeError("weight space dimension exceeds one")
        dims[k] = count
    return dims


_GRAPH_BY_N = {}


def _discriminantal_graph(arrangement):
    n = arrangement.ambient_dim
    if n not in _GRAPH_BY_N:
        _GRAPH_BY_N[n] = build_graph(arrangement)
    return _GRAPH_BY_N[n]


def kz_check(inst: KZInstance, grid_bound=4):
    """Compare the equivariant intersection-cohomology table of the
    discriminantal local system against the Borel-Weil-Bott oracle."""
    if inst.n > grid_bound:
        raise ShapeError(f"instance size {inst.n} exceeds the bound {grid_bound}")
    oracle = bwb_dims(inst)
    arrangement, exponents, action = kz_exponents(inst)
    graph = _discriminantal_graph(arrangement)
    spectrum = Spectrum({j: exponents.of(j)
                         for j in range(1, arrangement.size + 1)})
    if not is_nonresonant_spectrum(graph, spectrum):
        raise HypothesisError("resonant spectrum; enlarge kappa")
    bad = [k for k in graph.vertices
           if abs(spectrum_lambda(graph, spectrum, k)) >= 1]
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
