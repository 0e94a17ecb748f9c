"""Theorem oracles on random arrangements: central ones in dimension 2 or
3 with at most six hyperplanes, and affine ones in dimension 1 to 4 with
at most seven, parallel copies among them; small integer coefficients, no
hyperplane twice.

The intersection lattice of a central arrangement is rebuilt here by brute
force (ranks of hyperplane subsets), independently of the strata graph,
and serves as the reference for the Orlik-Solomon dimensions and for the
vertex of every hyperplane tuple."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverarr import corpus
from quiverarr.arrangement import Arrangement, Hyperplane, build_graph
from quiverarr.functors import j0_shriek, j0_star, s0
from quiverarr.linalg import Matrix, Q0, betti, block_diag, rank, sort_with_sign
from quiverarr.oscomplex import (ExponentAssignment, aomoto_complex,
                                 flag_complex, flag_degree, os_space,
                                 shapovalov_scalar)
from quiverarr.quiver import c_plus, level_zero_quiver


@st.composite
def central_arrangements(draw):
    n = draw(st.sampled_from((2, 3)))
    normal = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    hyperplanes = []
    for v in draw(st.lists(normal, min_size=1, max_size=6)):
        h = Hyperplane(0, v)
        if h not in hyperplanes:
            hyperplanes.append(h)
    return Arrangement(n, hyperplanes)


@st.composite
def affine_arrangements(draw):
    """Each drawn hyperplane may bring a parallel copy one unit away, so
    empty intersections are common."""
    n = draw(st.integers(1, 4))
    normal = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    drawn = draw(st.lists(st.tuples(normal, st.integers(-2, 2), st.booleans()),
                          min_size=1, max_size=7))
    hyperplanes = []
    for v, c, parallel in drawn:
        for const in ((c, c + 1) if parallel else (c,)):
            h = Hyperplane(const, v)
            if h not in hyperplanes and len(hyperplanes) < 7:
                hyperplanes.append(h)
    return Arrangement(n, hyperplanes)


def random_arrangements():
    return st.one_of(central_arrangements(), affine_arrangements())


def exponent_values(size, data):
    return {j: Fraction(data.draw(st.integers(-9, 9)), 97) for j in range(1, size + 1)}


class Lattice:
    """The flats of a central arrangement from subset ranks: a flat is a
    closed set of hyperplane indices, keyed like a strata-graph vertex."""

    def __init__(self, arr):
        self.size = arr.size
        self.rows = {j: arr.hyperplane(j).normal for j in range(1, arr.size + 1)}
        self._rank = {}
        flats = {self.closure(s) for p in range(arr.size + 1)
                 for s in combinations(range(1, arr.size + 1), p)}
        self.flats = sorted(flats, key=lambda f: (self.rank(f), f))

    def rank(self, subset):
        subset = tuple(sorted(set(subset)))
        if subset not in self._rank:
            rows = [self.rows[j] for j in subset]
            self._rank[subset] = rank(Matrix.from_rows(rows)) if rows else 0
        return self._rank[subset]

    def closure(self, subset):
        r = self.rank(subset)
        return tuple(j for j in range(1, self.size + 1)
                     if self.rank(tuple(subset) + (j,)) == r)

    def mobius(self):
        mu = {}
        for f in self.flats:
            mu[f] = 1 if not f else -sum(mu[g] for g in mu if set(g) < set(f))
        return mu


@settings(max_examples=60, deadline=None)
@given(central_arrangements())
def test_os_poincare_polynomial_is_the_mobius_characteristic_polynomial(arr):
    # Orlik-Solomon 1980: dim A^p = (-1)^p sum of mu(X) over flats of rank p
    g = build_graph(arr)
    lat = Lattice(arr)
    mu = lat.mobius()
    assert sorted(g.vertices) == sorted(lat.flats)
    for p in range(arr.ambient_dim + 1):
        want = (-1) ** p * sum(mu[f] for f in lat.flats if lat.rank(f) == p)
        assert os_space(g, p).dim == want


def nbc_sets(lat, p):
    """The p-subsets of hyperplane indices that contain no broken circuit:
    a circuit is a minimal dependent subset, and a broken circuit is a
    circuit minus its least hyperplane."""
    indices = range(1, lat.size + 1)
    broken = [set(c[1:]) for q in range(2, lat.size + 1)
              for c in combinations(indices, q)
              if lat.rank(c) == q - 1
              and all(lat.rank(c[:i] + c[i + 1:]) == q - 1 for i in range(q))]
    return [s for s in combinations(indices, p) if not any(b <= set(s) for b in broken)]


def assert_os_basis_is_nbc(arr):
    # Bjorner 1982, Orlik-Terao 1992 Thm 3.55: the nbc sets of each flat
    # are a basis of the OS algebra there, free over Z; they are the
    # lexicographically least independent generators
    g = build_graph(arr)
    lat = Lattice(arr)
    for p in range(g.max_level + 1):
        osd = os_space(g, p)
        nbc = nbc_sets(lat, p)
        assert osd.basis == [s for vk in osd.vertex_keys for s in nbc
                             if lat.closure(s) == vk]
        assert sorted(osd.basis) == nbc


@pytest.mark.parametrize("name", corpus.CENTRAL)
def test_os_basis_is_the_nbc_sets_on_the_corpus(name):
    assert_os_basis_is_nbc(corpus.CORPUS[name]())


@settings(max_examples=60, deadline=None)
@given(central_arrangements())
def test_os_basis_is_the_nbc_sets_on_random_arrangements(arr):
    assert_os_basis_is_nbc(arr)


@settings(max_examples=60, deadline=None)
@given(central_arrangements())
def test_sparse_expansion_is_the_dense_whole_degree_vector(arr):
    """Every p-tuple of hyperplane indices, repeats and any order allowed,
    expands to its vertex with the signed coordinates of its sorted tuple;
    densified at the vertex's offset, that is the whole-degree vector of
    the dense expansion it replaces.  The same holds for every flag."""
    g = build_graph(arr)
    lat = Lattice(arr)
    for p in range(g.max_level + 1):
        osd = os_space(g, p)
        for tup in product(range(1, arr.size + 1), repeat=p):
            srt, sign = sort_with_sign(tup)
            dense = [Q0] * osd.dim
            if sign is not None and lat.rank(srt) == p:
                vk = lat.closure(srt)
                coords = osd.spaces[vk].coords_of_generator(srt)
                for i, c in enumerate(coords):
                    dense[osd.offsets[vk] + i] = sign * c
            assert densify(osd, *osd.expand(tup)) == dense
        fd = flag_degree(g, p)
        for vk in fd.vertex_keys:
            for f in fd.spaces[vk].generators:
                dense = [Q0] * fd.dim
                coords = fd.spaces[vk].coords_of_generator(f)
                dense[fd.offsets[vk]:fd.offsets[vk] + len(coords)] = coords
                assert densify(fd, *fd.expand(f)) == dense


def densify(degree, vk, sign, coords):
    out = [Q0] * degree.dim
    for i, c in coords:
        assert c != 0
        out[degree.offsets[vk] + i] = sign * c
    return out


@settings(max_examples=50, deadline=None)
@given(central_arrangements(), st.data())
def test_level_zero_images_are_the_scalar_oracles(arr, data):
    # criterion 5's identities off the corpus: C+(j0_star) = Aomoto,
    # C+(j0_shriek) = flag complex, s0 = scalar Shapovalov blockwise
    g = build_graph(arr)
    vals = exponent_values(arr.size, data)
    a = ExponentAssignment(vals)
    w = level_zero_quiver(g, 1, {j: Matrix.from_rows([[v]]) for j, v in vals.items()})
    assert c_plus(j0_star(g, w)) == aomoto_complex(g, a)
    assert c_plus(j0_shriek(g, w)) == flag_complex(g)
    s = s0(g, w)
    scalar = shapovalov_scalar(g, a)
    for p in range(g.max_level + 1):
        keys = sorted(k for k in g.vertices if g.level[k] == p)
        assert block_diag([s.component(k) for k in keys]) == scalar.components[p]


def os_euler_characteristic(g):
    """chi(M) = sum of (-1)^p dim A^p (Orlik-Solomon 1980)."""
    return sum((-1) ** p * os_space(g, p).dim for p in range(g.max_level + 1))


def alternating_sum(bs):
    return sum((-1) ** p * b for p, b in enumerate(bs))


@settings(max_examples=80, deadline=None)
@given(random_arrangements(), st.data())
def test_complex_euler_characteristics_are_the_os_one(arr, data):
    g = build_graph(arr)
    chi = os_euler_characteristic(g)
    a = ExponentAssignment(exponent_values(arr.size, data))
    assert alternating_sum(betti(aomoto_complex(g, a))) == chi
    assert alternating_sum(betti(flag_complex(g))) == chi


@settings(max_examples=80, deadline=None)
@given(random_arrangements(), st.data())
def test_generic_aomoto_cohomology_is_the_top_degree(arr, data):
    """Esnault-Schechtman-Viehweg 1992, Yuzvinsky 1995: if the exponent
    sum of every dense edge of the projective closure is nonzero, the
    Aomoto complex has cohomology in the top degree only, of dimension
    |chi(M)|.  Positive exponents are such a choice: an edge at infinity
    sums to minus the exponents of the hyperplanes missing it."""
    g = build_graph(arr)
    top = g.max_level
    a = ExponentAssignment({j: Fraction(data.draw(st.integers(1, 9)), 97)
                            for j in range(1, arr.size + 1)})
    want = tuple(abs(os_euler_characteristic(g)) if p == top else 0
                 for p in range(top + 1))
    assert betti(aomoto_complex(g, a)) == want


@settings(max_examples=30, deadline=None)
@given(central_arrangements(), st.data())
def test_central_aomoto_complex_with_nonzero_sum_is_acyclic(arr, data):
    vals = exponent_values(arr.size, data)
    if sum(vals.values()) == 0:
        vals[1] += 1
    g = build_graph(arr)
    assert not any(betti(aomoto_complex(g, ExponentAssignment(vals))))


@settings(max_examples=80, deadline=None)
@given(random_arrangements())
def test_flag_complex_is_exact_below_the_top_degree(arr):
    # Schechtman-Varchenko 1991
    g = build_graph(arr)
    assert not any(betti(flag_complex(g))[:g.max_level])
