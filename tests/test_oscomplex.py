import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverarr import corpus, linalg
from quiverarr.arrangement import build_graph
from quiverarr.errors import ShapeError
from quiverarr.linalg import Matrix, Q0, Q1, betti, rank, solve_matrix
from quiverarr.oscomplex import (
    ExponentAssignment, aomoto_complex, duality_pairing, flag_complex,
    _PresentedSpace, flag_degree, flag_form_complex, flag_space,
    format_exponents, os_space, parse_exponents, shapovalov_scalar,
)


def mobius(g):
    """Poset Mobius function mu(top, v) computed by direct recursion."""
    mu = {}
    for v in sorted(g.vertices, key=lambda k: g.level[k]):
        if g.level[v] == 0:
            mu[v] = 1
        else:
            mu[v] = -sum(mu[w] for w in g.vertices if w != v and g.geq(w, v))
    return mu


def os_dims(g):
    return [os_space(g, p).dim for p in range(g.max_level + 1)]


def graph(name):
    return build_graph(corpus.CORPUS[name]())


def exponents(g, vals, kappa=None):
    return ExponentAssignment({j + 1: v for j, v in enumerate(vals)}, kappa)


def test_three_lines_os_dims():
    assert os_dims(graph("three_lines")) == [1, 3, 2]


def test_boolean2_os_dims():
    assert os_dims(graph("boolean2")) == [1, 2, 1]


def test_os_space_above_rank_is_zero():
    g = graph("parallel")
    assert os_space(g, 2).dim == 0


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_os_dims_match_mobius_oracle(name):
    g = graph(name)
    mu = mobius(g)
    for p in range(g.max_level + 1):
        expected = sum(abs(mu[v]) for v in g.vertices if g.level[v] == p)
        assert os_space(g, p).dim == expected


def test_three_lines_flag_space():
    g = graph("three_lines")
    fb = flag_space(g, (1, 2, 3))
    assert len(fb.generators) == 3
    assert fb.dim == 2
    # the one relation, the sum of the three flags, vanishes
    assert [sum(c) for c in zip(*map(fb.coords_of_generator, fb.generators))] == [0, 0]
    # the dropped flag is minus the sum of the two basis flags
    last = fb.generators[-1]
    assert fb.coords_of_generator(last) == (Fraction(-1), Fraction(-1))
    assert flag_degree(g, 2).expand(last) == (
        (1, 2, 3), 1, ((0, Fraction(-1)), (1, Fraction(-1))))


def test_presented_spaces_do_no_rref_or_rank(monkeypatch):
    calls = []

    def counting(fn):
        return lambda *args: calls.append(fn.__name__) or fn(*args)

    for name in ("rref", "rank"):
        monkeypatch.setattr(linalg, name, counting(getattr(linalg, name)))
    graphs = [graph(name) for name in sorted(corpus.CORPUS)]
    for g in graphs:
        for p in range(g.max_level + 1):
            os_space(g, p)
            flag_degree(g, p)
    assert calls == []
    g = graphs[-1]
    betti(aomoto_complex(g, exponents(g, [1] * g.arrangement.size)))
    assert calls


def test_flag_space_of_top_vertex():
    g = graph("three_lines")
    assert flag_space(g, ()).dim == 1


def test_boolean2_deep_flag_space():
    g = graph("boolean2")
    fb = flag_space(g, (1, 2))
    assert len(fb.generators) == 2
    assert fb.dim == 1


def test_spaces_live_and_die_with_their_graph():
    """The OS and flag spaces are kept on the graph that built them: the
    same objects while it lives, new ones for a new graph, and gone once
    it is dropped (no module-level or lru_cache memo keeps them)."""
    g = graph("c13")
    deep = g.levels(g.max_level)[0]
    os1, fl = os_space(g, 1), flag_space(g, deep)
    assert os_space(g, 1) is os1 and flag_space(g, deep) is fl
    assert flag_degree(g, 1) is flag_degree(g, 1)
    g2 = graph("c13")
    assert os_space(g2, 1) is not os1 and flag_space(g2, deep) is not fl
    assert os_space(g2, 1).basis == os1.basis and flag_space(g2, deep).basis == fl.basis
    refs = [weakref.ref(os1), weakref.ref(fl)]
    del g, os1, fl
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_flag_complex_three_lines():
    g = graph("three_lines")
    c = flag_complex(g)
    assert c.dims == (1, 3, 2)
    # d(F_empty) = sum of the three one-step flags, sign (+1)
    d0 = c.differentials[0]
    assert d0.col(0) == (1, 1, 1)


def test_flag_complex_empty_arrangement():
    g = graph("empty")
    c = flag_complex(g)
    assert c.dims == (1,)


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_flag_and_aomoto_differentials_square_to_zero(name):
    g = graph(name)
    flag_complex(g)  # constructor validates d*d = 0
    a = exponents(g, [Fraction(i + 1, 97) for i in range(g.arrangement.size)])
    aomoto_complex(g, a)


def test_duality_pairing_degree0():
    g = graph("three_lines")
    m = duality_pairing(os_space(g, 0), flag_degree(g, 0))
    assert m == Matrix.from_rows([[1]])


def test_duality_pairing_degree1_identity():
    g = graph("three_lines")
    m = duality_pairing(os_space(g, 1), flag_degree(g, 1))
    assert m == Matrix.identity(3)


def test_duality_pairing_degree2_nondegenerate():
    g = graph("three_lines")
    m = duality_pairing(os_space(g, 2), flag_degree(g, 2))
    assert m.rows == m.cols == 2
    assert rank(m) == 2


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_duality_pairing_nondegenerate_everywhere(name):
    g = graph(name)
    for p in range(g.max_level + 1):
        m = duality_pairing(os_space(g, p), flag_degree(g, p))
        assert m.rows == m.cols
        assert rank(m) == m.rows


def os_boundary_matrix(g, p):
    """The deletion boundary A^p -> A^{p-1} used only to check adjointness
    with the flag differential; a single hyperplane maps to the empty word."""
    src = os_space(g, p)
    tgt = os_space(g, p - 1)
    cols = []
    for t in src.basis:
        vec = [Fraction(0)] * tgt.dim
        for k in range(p):
            sub = t[:k] + t[k + 1:]
            vk, sign, coords = tgt.expand(sub)
            for i, c in coords:
                vec[tgt.offsets[vk] + i] += (-1) ** k * sign * c
        cols.append(vec)
    return Matrix.from_rows(
        [[cols[j][i] for j in range(src.dim)] for i in range(tgt.dim)], cols=src.dim)


@pytest.mark.parametrize("name", ["single", "boolean2", "three_lines", "generic3", "c13"])
def test_os_boundary_adjoint_to_flag_differential(name):
    # <delta_A x, F> = <x, d_F F> for x in A^p, F in F^{p-1}
    g = graph(name)
    fc = flag_complex(g)
    for p in range(1, g.max_level + 1):
        pair_low = duality_pairing(os_space(g, p - 1), flag_degree(g, p - 1))
        pair_high = duality_pairing(os_space(g, p), flag_degree(g, p))
        delta = os_boundary_matrix(g, p)
        d = fc.differentials[p - 1]
        assert delta.transpose() * pair_low == pair_high * d


def test_aomoto_zero_exponents():
    g = graph("three_lines")
    c = aomoto_complex(g, ExponentAssignment.zero(g.arrangement))
    assert betti(c) == (1, 3, 2)


def test_aomoto_degree_zero_row():
    g = graph("three_lines")
    a = exponents(g, [Fraction(1, 100), Fraction(1, 100), Fraction(2, 100)])
    c = aomoto_complex(g, a)
    # d(1) = a1 (H1) + a2 (H2) + a3 (H3) in the degree-1 basis
    assert c.differentials[0].col(0) == (Fraction(1, 100), Fraction(1, 100), Fraction(2, 100))


def test_aomoto_single_hyperplane_betti():
    g = graph("single")
    c = aomoto_complex(g, exponents(g, [Fraction(3, 100)]))
    assert c.dims == (1, 1)
    assert c.differentials[0] == Matrix.from_rows([[Fraction(3, 100)]])
    assert betti(c) == (0, 0)


def test_shapovalov_scalar_three_lines():
    g = graph("three_lines")
    a1, a2, a3 = Fraction(3, 7), Fraction(5, 11), Fraction(2, 13)
    s = shapovalov_scalar(g, exponents(g, [a1, a2, a3]))
    # degree 0: identity
    assert s.components[0] == Matrix.identity(1)
    # degree 1: diag(a_i)
    assert s.components[1] == Matrix.from_rows(
        [[a1, 0, 0], [0, a2, 0], [0, 0, a3]])
    # degree 2 on the first basis flag (0,a1,beta):
    # a1a2 (H1,H2) + a1a3 (H1,H3)
    assert s.components[2].col(0) == (a1 * a2, a1 * a3)


def test_shapovalov_zero_exponents():
    g = graph("three_lines")
    s = shapovalov_scalar(g, ExponentAssignment.zero(g.arrangement))
    assert s.components[0] == Matrix.identity(1)
    assert s.components[1].is_zero()
    assert s.components[2].is_zero()


@pytest.mark.parametrize("name", ["single", "boolean2", "boolean3", "three_lines", "generic3"])
def test_shapovalov_is_chain_map(name):
    # ChainMap's constructor asserts S_a d_F = d_a S_a; also exercise the image
    g = graph(name)
    vals = [Fraction(2 * i + 1, 101) for i in range(g.arrangement.size)]
    flag_form_complex(g, exponents(g, vals))


def test_flag_form_complex_generic_exponents_matches_flag_dims():
    g = graph("three_lines")
    vals = [Fraction(1, 100), Fraction(1, 100), Fraction(2, 100)]
    ffc = flag_form_complex(g, exponents(g, vals))
    assert ffc.dims == (1, 3, 2)


def test_exponent_kappa_division():
    a = ExponentAssignment({1: Fraction(3)}, kappa=Fraction(100))
    assert a.of(1) == Fraction(3, 100)
    with pytest.raises(ShapeError):
        ExponentAssignment({1: 1}, kappa=0)


def test_exp_round_trip():
    text = "a 1 -1\na 2 -1\na 3 2\nkappa 100\n"
    a = parse_exponents(text)
    assert a.of(3) == Fraction(2, 100)
    assert format_exponents(a) == text


# -- presented spaces against the two-pass reference -----------------------------

class _ReferenceRREF:
    """Row space in reduced echelon form, each row pivoted at its first
    column, rows stored as sparse dicts keyed by column."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        vec = {c: v for c, v in vec.items() if v}
        for c in sorted(vec):
            v = vec.get(c)
            if not v or c not in self.rows:
                continue
            for cc, val in self.rows[c].items():
                nv = vec.get(cc, Q0) - v * val
                if nv:
                    vec[cc] = nv
                else:
                    vec.pop(cc, None)
        return vec

    def add(self, vec):
        """Insert the vector; its pivot column, or None if it was already
        in the span."""
        r = self.reduce(vec)
        if not r:
            return None
        pivot = min(r)
        r = {c: v / r[pivot] for c, v in r.items()}
        for row in self.rows.values():
            f = row.get(pivot)
            if f:
                for cc, val in r.items():
                    nv = row.get(cc, Q0) - f * val
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
        self.rows[pivot] = r
        return pivot


def reference_presentation(ngen, relation_rows):
    """Basis indices and generator coordinates by the two-pass algorithm:
    reduce every unit vector modulo the relations, pick the basis with a
    second elimination of the reduced vectors, and take coordinates from
    the inverse of the basis block on the free columns."""
    span = _ReferenceRREF()
    for r in relation_rows:
        span.add({c: Fraction(v) for c, v in r.items()})
    reduced = [span.reduce({i: Q1}) for i in range(ngen)]
    chooser = _ReferenceRREF()
    basis = [i for i in range(ngen) if chooser.add(dict(reduced[i])) is not None]
    free_cols = [c for c in range(ngen) if c not in span.rows]
    b = Matrix.from_rows([[reduced[j].get(c, Q0) for j in basis] for c in free_cols],
                         cols=len(basis))
    binv = solve_matrix(b, Matrix.identity(len(basis)))
    coords = []
    for i in range(ngen):
        vec = Matrix.from_rows([[reduced[i].get(c, Q0)] for c in free_cols], cols=1)
        coords.append((binv * vec).col(0) if basis else ())
    return basis, coords


@st.composite
def presentations(draw):
    """A generator count and sparse relation rows over it, with zero
    entries, repeated rows and rows dependent on earlier ones; entries are
    ints, integral Fractions or non-integral Fractions."""
    ngen = draw(st.integers(0, 8))
    entry = (st.integers(-3, 3) | st.integers(-3, 3).map(Fraction)
             | st.builds(Fraction, st.integers(-4, 4), st.sampled_from((2, 3, 4))))
    if not ngen:
        return 0, draw(st.lists(st.just({}), max_size=2))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ngen - 1), entry, max_size=4),
                         max_size=8))
    if rows:
        picks = st.integers(0, len(rows) - 1)
        for i, j, c in draw(st.lists(st.tuples(picks, picks, entry), max_size=4)):
            combo = dict(rows[i])
            for col, v in rows[j].items():
                combo[col] = combo.get(col, Q0) + c * v
            rows.append(combo)
        rows += [dict(rows[i]) for i in draw(st.lists(picks, max_size=2))]
    return ngen, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(presentations())
def test_presented_space_matches_two_pass_reference(data):
    ngen, rows = data
    gens = [f"g{i}" for i in range(ngen)]
    given_rows = [dict(r) for r in rows]
    space = _PresentedSpace(gens, rows)
    assert rows == given_rows
    basis, coords = reference_presentation(ngen, rows)
    assert space.basis == [gens[i] for i in basis]
    assert space.dim == len(basis)
    for i, g in enumerate(gens):
        assert space.coords_of_generator(g) == tuple(coords[i])
        assert all(type(c) is Fraction for _, c in space.coords(g))
    # every relation vanishes in the quotient
    for r in rows:
        assert all(sum((v * space.coords_of_generator(gens[c])[k] for c, v in r.items()), Q0) == 0
                   for k in range(space.dim))
    relations = Matrix.from_rows([[r.get(c, Q0) for c in range(ngen)] for r in rows],
                                 cols=ngen)
    assert space.dim == ngen - rank(relations)


def test_presented_space_without_relations_or_generators():
    space = _PresentedSpace(["a", "b"], [])
    assert space.basis == ["a", "b"]
    assert space.coords_of_generator("b") == (Q0, Q1)
    empty = _PresentedSpace([], [])
    assert (empty.generators, empty.basis, empty.dim) == ([], [], 0)
    # a relation ending at b removes b, not a; the pivot is no unit, and
    # the entries of the last row are not integral
    for row, b in (({0: Fraction(2), 1: Fraction(-4)}, Fraction(1, 2)),
                   ({0: 2, 1: -4}, Fraction(1, 2)),
                   ({0: Fraction(1, 2), 1: Fraction(-3, 4)}, Fraction(2, 3))):
        given = dict(row)
        quotient = _PresentedSpace(["a", "b"], [row])
        assert quotient.basis == ["a"]
        assert quotient.coords("b") == ((0, b),)
        assert type(quotient.coords("b")[0][1]) is Fraction
        assert row == given
