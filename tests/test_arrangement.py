from itertools import combinations

import pytest
from hypothesis import given, settings

from quiverarr import arrangement, corpus, linalg
from quiverarr.arrangement import (
    Arrangement, Hyperplane, build_graph, discriminantal,
    format_arrangement, format_vertex_key, parse_arrangement,
    parse_vertex_key, specialization_graph, truncated_graph,
    verify_graph_properties, _canonicalize,
)
from quiverarr.errors import ParseError, ShapeError, UnsupportedError
from quiverarr.linalg import Matrix

from test_random_arrangements import affine_arrangements, random_arrangements


def graph_signature(equations, edges):
    """Every vertex's ids, codim and equation entries, and the edges as
    sets of two id tuples."""
    return ({k: (m.rows, m.entries) for k, m in equations.items()},
            {frozenset(e) for e in edges})


def brute_force_graph(arr):
    """Oracle: intersect every subset of hyperplanes and dedup by canonical
    form; a stratum's ids are the hyperplanes whose equation adds nothing
    to its system, and a > b is an edge when b has codim one more and
    a's equations add nothing to b's."""
    n = arr.ambient_dim
    rows = [arr.hyperplane(j).equation_row() for j in range(1, arr.size + 1)]
    strata = {}
    for r in range(arr.size + 1):
        for subset in combinations(range(arr.size), r):
            mat = Matrix.from_rows([rows[j] for j in subset], cols=n + 1)
            canon = _canonicalize(mat, n)
            if canon is not None:
                strata[canon[0].entries] = canon
    equations = {}
    for mat, codim in strata.values():
        ids = tuple(j + 1 for j, row in enumerate(rows)
                    if _canonicalize(mat.vstack(Matrix.from_rows([row])), n) == (mat, codim))
        equations[ids] = mat
    edges = [(a, b) for a, x in equations.items() for b, y in equations.items()
             if x.rows + 1 == y.rows and _canonicalize(x.vstack(y), n) == (y, y.rows)]
    return graph_signature(equations, edges)


def two_pass_graph(arr):
    """The earlier `build_graph`, kept as a second reference: one
    elimination per (stratum, hyperplane) pair for the closure, a second
    per pair for the ids, and an all-pairs containment test for the
    edges."""
    n = arr.ambient_dim
    empty = Matrix(0, n + 1, ())
    seen = {empty.entries: (empty, 0)}
    frontier = [empty]
    while frontier:
        nxt = []
        for eqs in frontier:
            for h in arr.hyperplanes:
                canon = _canonicalize(eqs.vstack(Matrix.from_rows([h.equation_row()])), n)
                if canon is not None and canon[0].entries not in seen:
                    seen[canon[0].entries] = canon
                    nxt.append(canon[0])
        frontier = nxt
    equations = {}
    for mat, codim in seen.values():
        ids = tuple(j for j in range(1, arr.size + 1)
                    if _canonicalize(mat.vstack(Matrix.from_rows([arr.hyperplane(j).equation_row()])), n)
                    == (mat, codim))
        equations[ids] = mat
    edges = [(a, b) for a in equations for b in equations
             if equations[a].rows + 1 == equations[b].rows and set(a) <= set(b)]
    return graph_signature(equations, edges)


def built_signature(arr):
    g = build_graph(arr)
    return graph_signature(g.equations, g.edges)


def test_three_lines_graph():
    g = build_graph(corpus.three_lines())
    assert len(g.vertices) == 5
    assert sorted(g.vertices) == [(), (1,), (1, 2, 3), (2,), (3,)]
    assert len(g.edges) == 6
    assert g.level[(1, 2, 3)] == 2


def test_empty_arrangement_graph():
    g = build_graph(Arrangement(4, []))
    assert g.vertices == ((),)
    assert not g.edges


def test_boolean2_graph_matches_oracle():
    g = build_graph(corpus.boolean2())
    assert len(g.vertices) == 4
    assert len(g.edges) == 4
    assert set(g.vertices) == {(), (1,), (2,), (1, 2)}


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_graph_matches_brute_force_oracle(name):
    arr = corpus.CORPUS[name]()
    built = built_signature(arr)
    assert built == brute_force_graph(arr)
    assert built == two_pass_graph(arr)


@settings(max_examples=80, deadline=None)
@given(affine_arrangements())
def test_graph_matches_oracles_on_affine_arrangements(arr):
    built = built_signature(arr)
    assert built == brute_force_graph(arr)
    assert built == two_pass_graph(arr)


def test_build_graph_does_no_elimination(monkeypatch):
    calls = []

    def counting(fn):
        return lambda *args: calls.append(fn.__name__) or fn(*args)

    for module, name in ((linalg, "rref"), (arrangement, "rref"),
                         (arrangement, "_canonicalize")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    for arr in (corpus.c14(), corpus.parallel_lines(), corpus.generic_lines()):
        build_graph(arr)
    assert calls == []
    verify_graph_properties(build_graph(corpus.three_lines()))
    assert calls


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_graph_properties_hold(name):
    verify_graph_properties(build_graph(corpus.CORPUS[name]()))


def test_wedge_three_lines():
    g = build_graph(corpus.three_lines())
    assert g.wedge_key((1,), (2,)) == (1, 2, 3)
    assert g.wedge_key((1,), (1,)) == (1,)
    assert g.leq((1, 2, 3), (1,))
    assert g.epsilon((), (1,)) == 1
    assert g.epsilon((1,), ()) == -1
    assert g.epsilon((1,), (2,)) == 0


def test_wedge_parallel_lines_absent():
    g = build_graph(corpus.parallel_lines())
    assert g.wedge_key((1,), (2,)) is None


def test_truncated_graph_levels():
    g = build_graph(corpus.three_lines())
    t0 = truncated_graph(g, 0)
    assert len(t0.vertices) == 1
    assert len(t0.loops) == 3
    t1 = truncated_graph(g, 1)
    assert len(t1.vertices) == 4
    assert len(t1.edges) == 3
    assert len(t1.loops) == 3
    t2 = truncated_graph(g, 2)
    assert len(t2.vertices) == len(g.vertices)
    assert not t2.loops
    with pytest.raises(ShapeError):
        truncated_graph(g, 3)


def test_truncation_of_any_graph_at_zero_has_loops_per_hyperplane():
    for name in ("single", "boolean3", "c13"):
        arr = corpus.CORPUS[name]()
        g = build_graph(arr)
        t = truncated_graph(g, 0)
        assert len(t.vertices) == 1
        assert len(t.loops) == arr.size


def assert_truncation_is_the_filtered_graph(g):
    """For every n, truncated_graph(g, n) is g filtered to the levels <= n,
    and its loops are listed as the tuple they were first kept as; at the
    top level it is g itself."""
    for n in range(g.max_level + 1):
        t = truncated_graph(g, n)
        keep = [v for v in g.vertices if g.level[v] <= n]
        assert t.full is g and n == t.max_level
        assert (t is g) == (n == g.max_level)
        assert t.vertices == tuple(keep)
        assert t.level == {v: g.level[v] for v in keep}
        assert t.edges == {e for e in g.edges if all(g.level[v] <= n for v in e)}
        for k in range(n + 1):
            assert t.levels(k) == g.levels(k)
        for a in keep:
            assert t.up(a) == g.up(a)
            assert t.down(a) == [b for b in g.down(a) if g.level[b] <= n]
            for b in keep:
                assert t.adjacent(a, b) == g.adjacent(a, b)
                assert t.epsilon(a, b) == g.epsilon(a, b)
                assert t.geq(a, b) == g.geq(a, b)
        loops = tuple((a, b) for a in g.levels(n) for b in g.down(a))
        assert tuple(t.loops) == loops
        assert all(loop in t.loops for loop in loops)
        assert not any((b, a) in t.loops for a, b in loops)


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_truncation_is_the_filtered_graph_on_the_corpus(name):
    assert_truncation_is_the_filtered_graph(build_graph(corpus.CORPUS[name]()))


@settings(max_examples=40, deadline=None)
@given(random_arrangements())
def test_truncation_is_the_filtered_graph_on_random_arrangements(arr):
    assert_truncation_is_the_filtered_graph(build_graph(arr))


def test_specialization_single_hyperplane_identity():
    g = build_graph(corpus.single_hyperplane())
    sp = specialization_graph(g, (1,))
    assert len(sp.classes) == 2
    assert all(len(ck) == 1 for ck in sp.classes)
    assert len(sp.graph.edges) == 1


def test_specialization_at_top_is_identity():
    g = build_graph(corpus.three_lines())
    sp = specialization_graph(g, ())
    assert len(sp.classes) == len(g.vertices)
    assert len(sp.graph.edges) == len(g.edges)


def test_specialization_three_lines_merges_other_lines():
    g = build_graph(corpus.three_lines())
    sp = specialization_graph(g, (1,))
    assert sorted(sp.classes) == [((),), ((1,),), ((1, 2, 3),), ((2,), (3,))]
    assert all(ck == tuple(sorted(ck)) for ck in sp.classes)
    assert len(sp.graph.edges) == 4
    assert sp.graph.level[sp.class_of((2,))] == 1


def assert_specialization_edges_are_the_pairwise_scan(g):
    """At every vertex where the specialization graph exists, its edges
    are the pairs of classes one level apart with some adjacent pair of
    members, found by testing every pair of classes and of members."""
    for alpha in g.vertices:
        try:
            sp = specialization_graph(g, alpha)
        except UnsupportedError:
            continue
        classes, level = sp.classes, sp.graph.level
        assert sp.graph.edges == {
            frozenset((a, b)) for a in classes for b in classes
            if level[a] + 1 == level[b]
            and any(g.adjacent(x, y) for x in a for y in b)}


@pytest.mark.parametrize("name", corpus.CENTRAL)
def test_specialization_edges_are_the_pairwise_scan_on_the_corpus(name):
    assert_specialization_edges_are_the_pairwise_scan(build_graph(corpus.CORPUS[name]()))


@settings(max_examples=40, deadline=None)
@given(random_arrangements().filter(lambda arr: arr.is_central()))
def test_specialization_edges_are_the_pairwise_scan_on_random_arrangements(arr):
    assert_specialization_edges_are_the_pairwise_scan(build_graph(arr))


def assert_elimination_meets_are_wedges(g):
    """In a central arrangement every two strata meet; stacking their
    equations and eliminating gives the equations of their wedge."""
    n = g.arrangement.ambient_dim
    for a in g.vertices:
        for b in g.vertices:
            eqs, _ = _canonicalize(g.equations[a].vstack(g.equations[b]), n)
            assert eqs.entries == g.equations[g.wedge_key(a, b)].entries


@pytest.mark.parametrize("name", sorted(n for n, f in corpus.CORPUS.items()
                                        if f().is_central()))
def test_elimination_meet_is_the_wedge_on_the_corpus(name):
    assert_elimination_meets_are_wedges(build_graph(corpus.CORPUS[name]()))


@settings(max_examples=60, deadline=None)
@given(random_arrangements().filter(lambda arr: arr.is_central()))
def test_elimination_meet_is_the_wedge_on_random_arrangements(arr):
    assert_elimination_meets_are_wedges(build_graph(arr))


def test_specialization_does_no_elimination(monkeypatch):
    from quiverarr.functors import j0_star, spec_nonres_ops, specialize
    from quiverarr.quiver import level_zero_quiver
    calls = []
    for module, name in ((linalg, "rref"), (arrangement, "rref"),
                         (arrangement, "_canonicalize")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, fn=fn: calls.append(fn.__name__) or fn(*args))
    g = build_graph(corpus.three_lines())
    v = j0_star(g, level_zero_quiver(g, 1, {j: Matrix.identity(1) for j in (1, 2, 3)}))
    specialization_graph(g, (1,))
    specialize(v, (1,))
    spec_nonres_ops(v, (1,))
    assert calls == []


def test_specialization_requires_central():
    g = build_graph(corpus.parallel_lines())
    with pytest.raises(UnsupportedError):
        specialization_graph(g, (1,))


@pytest.mark.parametrize("alpha", [(9,), (1, 2), (2, 1), (1, 1)])
def test_specialization_at_a_non_stratum_is_a_shape_error(alpha):
    from quiverarr.functors import spec_nonres_ops
    from quiverarr.quiver import Quiver
    g = build_graph(corpus.three_lines())
    with pytest.raises(ShapeError, match="is not a stratum"):
        specialization_graph(g, alpha)
    with pytest.raises(ShapeError, match="is not a stratum"):
        spec_nonres_ops(Quiver(g, {}, {}), alpha)


def test_discriminantal_weights_2_matches_three_lines():
    arr, pi = discriminantal([2])
    assert arr.size == 3
    assert pi == {1: 1, 2: 1}
    g = build_graph(arr)
    h = build_graph(corpus.three_lines())
    assert sorted(map(len, (g.vertices, h.vertices))) == [5, 5]
    assert len(g.edges) == len(h.edges) == 6


def test_discriminantal_single_weight():
    arr, pi = discriminantal([1])
    assert arr.ambient_dim == 1
    assert arr.size == 1
    assert pi == {1: 1}


def test_discriminantal_split_weights():
    arr, pi = discriminantal([1, 1])
    arr2, _ = discriminantal([2])
    assert [h.equation_row() for h in arr.hyperplanes] == \
        [h.equation_row() for h in arr2.hyperplanes]
    assert pi == {1: 1, 2: 2}


def test_discriminantal_rejects_empty():
    with pytest.raises(ShapeError):
        discriminantal([])


def test_c14_vertex_count():
    # strata of C_{1,4} = partitions of a 5-element set
    g = build_graph(corpus.c14())
    assert len(g.vertices) == 52


def test_arr_round_trip():
    arr = corpus.generic_lines()
    text = format_arrangement(arr)
    back = parse_arrangement(text)
    assert back.ambient_dim == arr.ambient_dim
    assert [h.equation_row() for h in back.hyperplanes] == \
        [h.equation_row() for h in arr.hyperplanes]


def test_arr_parse_errors():
    with pytest.raises(ParseError):
        parse_arrangement("H 1 1\n")
    with pytest.raises(ParseError):
        parse_arrangement("dim 2\nH 1 1\n")
    with pytest.raises(ParseError):
        parse_arrangement("dim 2\nH 0 x y\n")
    with pytest.raises(ParseError):
        parse_arrangement("dim 1\nH 0 1\nH 0 2\n")  # duplicate after normalization


def test_vertex_key_format():
    assert format_vertex_key(()) == "()"
    assert format_vertex_key((1, 3)) == "(1,3)"
    assert parse_vertex_key("(1,3)") == (1, 3)
    assert parse_vertex_key("()") == ()
    assert parse_vertex_key("(2)") == (2,)
    with pytest.raises(ParseError):
        parse_vertex_key("1,3")


def test_hyperplane_normalization_detects_duplicates():
    with pytest.raises(ShapeError):
        Arrangement(2, [Hyperplane(0, [2, 0]), Hyperplane(0, [1, 0])])


def test_maximal_ids():
    g = build_graph(corpus.generic_lines())
    # double points of the generic arrangement list exactly two lines
    deep = [k for k in g.vertices if g.level[k] == 2]
    assert sorted(deep) == [(1, 2), (1, 3), (2, 3)]
