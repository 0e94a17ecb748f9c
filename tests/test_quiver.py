import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverarr import corpus
from quiverarr.arrangement import (AdmissibleGraph, TruncatedGraph, build_graph,
                                   specialization_graph, truncated_graph)
from quiverarr.errors import (InvalidQuiverError, MissingLoopError, ShapeError,
                              UnsupportedError)
from quiverarr.linalg import Matrix, betti, char_poly
from quiverarr.quiver import (
    LevelQuiver, Quiver, QuiverMorphism, Spectrum, c_minus, c_plus,
    check_nonresonance_class, check_quiver, dual, global_S,
    hom_space, is_nonresonant_spectrum, level_zero_quiver, local_ops,
    morphism_from_coords, parse_quiver, quiver_to_json, sign_conjugate,
    spectrum_lambda,
)

import json


def graph(name):
    return build_graph(corpus.CORPUS[name]())


def M(rows):
    return Matrix.from_rows(rows)


def one_hyperplane_quiver(a, b, dim=1):
    """V_empty = V_alpha = Q^dim with scalar up/down maps."""
    g = graph("single")
    return Quiver(g, {(): dim, (1,): dim},
                  {((1,), ()): Matrix.identity(dim).scale(a),
                   ((), (1,)): Matrix.identity(dim).scale(b)})


def scalar_level0(g, values, dim=1, seed=None):
    """Level-zero quiver with loop operators a_j * M for one common M."""
    if seed is None:
        m = Matrix.identity(dim)
    else:
        rng = random.Random(seed)
        m = Matrix(dim, dim, [Fraction(rng.randint(-3, 3)) for _ in range(dim * dim)])
    ops = {j: m.scale(v) for j, v in values.items()}
    return level_zero_quiver(g, dim, ops)


def test_zero_quiver_passes():
    g = graph("three_lines")
    v = Quiver(g, {k: 1 for k in g.vertices}, {})
    assert check_quiver(v) == []


def test_three_lines_valid_quiver_passes():
    # down maps only, zero into the deep vertex: relations hold
    g = graph("three_lines")
    spaces = {(): 1, (1,): 1, (2,): 1, (3,): 1, (1, 2, 3): 0}
    maps = {((i,), ()): M([[i]]) for i in (1, 2, 3)}
    assert check_quiver(Quiver(g, spaces, maps)) == []


def test_three_lines_all_ones_violates_b():
    g = graph("three_lines")
    spaces = {k: 1 for k in g.vertices}
    maps = {}
    for i in (1, 2, 3):
        maps[((i,), ())] = M([[1]])
        maps[((), (i,))] = M([[1]])
        maps[((1, 2, 3), (i,))] = M([[1]])
        maps[((i,), (1, 2, 3))] = M([[1]])
    bad = check_quiver(Quiver(g, spaces, maps))
    assert ("(b)", ((1, 2, 3), ())) in bad


def test_map_on_non_adjacent_pair_rejected():
    g = graph("three_lines")
    with pytest.raises(ShapeError):
        Quiver(g, {k: 1 for k in g.vertices}, {((1, 2, 3), ()): M([[1]])})


def test_level_zero_relations():
    g = graph("three_lines")
    rng = random.Random(5)
    m = Matrix(2, 2, [Fraction(rng.randint(-3, 3)) for _ in range(4)])
    v = level_zero_quiver(g, 2, {1: m.scale(2), 2: m.scale(3), 3: m})
    assert check_quiver(v) == []
    # non-commuting loops violate relation (v)
    n1 = M([[0, 1], [0, 0]])
    n2 = M([[0, 0], [1, 0]])
    w = level_zero_quiver(g, 2, {1: n1, 2: n2, 3: Matrix.zero(2, 2)})
    assert any(name == "(v)" for name, _ in check_quiver(w))


def test_loop_on_missing_edge_rejected():
    g = graph("three_lines")
    t = truncated_graph(g, 1)
    with pytest.raises(MissingLoopError):
        LevelQuiver(t, {k: 1 for k in t.vertices}, {}, {((), (1,)): M([[1]])})


def test_dual_level_zero_is_transpose():
    g = graph("single")
    m = M([[1, 2], [3, 4]])
    v = level_zero_quiver(g, 2, {1: m})
    w = dual(v)
    assert w.loop((), (1,)) == -m.transpose()
    # tau^2 then sign conjugation recovers the original
    assert sign_conjugate(dual(dual(v))) == v


def test_dual_one_hyperplane_epsilon_table():
    a, b = Fraction(2), Fraction(5)
    v = one_hyperplane_quiver(a, b)
    w = dual(v)
    assert w.map((1,), ()) == M([[b]])
    assert w.map((), (1,)) == M([[-a]])


def test_dual_zero_quiver():
    g = graph("three_lines")
    v = Quiver(g, {k: 1 for k in g.vertices}, {})
    assert dual(v).maps == {}


def test_tau_squared_sign_conjugation():
    rng = random.Random(1)
    g = graph("three_lines")
    spaces = {(): 1, (1,): 1, (2,): 1, (3,): 1, (1, 2, 3): 0}
    maps = {((i,), ()): M([[rng.randint(1, 5)]]) for i in (1, 2, 3)}
    v = Quiver(g, spaces, maps)
    vv = dual(dual(v))
    for (a, b), m in v.maps.items():
        assert vv.map(a, b) == -m
    assert sign_conjugate(vv) == v


def test_c_plus_single_hyperplane_shape():
    a = Fraction(3, 100)
    v = one_hyperplane_quiver(a, Fraction(0))
    c = c_plus(v)
    assert c.dims == (1, 1)
    assert c.differentials[0] == M([[a]])


def test_c_plus_zero_maps():
    g = graph("three_lines")
    v = Quiver(g, {k: 2 for k in g.vertices}, {})
    c = c_plus(v)
    assert all(d.is_zero() for d in c.differentials)
    assert c.dims == (2, 6, 2)


def test_c_plus_three_lines_blocks():
    g = graph("three_lines")
    spaces = {(): 1, (1,): 1, (2,): 1, (3,): 1, (1, 2, 3): 0}
    maps = {((i,), ()): M([[10 + i]]) for i in (1, 2, 3)}
    v = Quiver(g, spaces, maps)
    c = c_plus(v)
    assert c.dims == (1, 3, 0)
    assert c.differentials[0].col(0) == (11, 12, 13)
    cm = c_minus(v)
    assert cm.min_degree == -2
    assert cm.dims == (0, 3, 1)


def test_c_plus_rejects_invalid():
    g = graph("three_lines")
    spaces = {k: 1 for k in g.vertices}
    maps = {}
    for i in (1, 2, 3):
        maps[((i,), ())] = M([[1]])
        maps[((1, 2, 3), (i,))] = M([[1]])
    with pytest.raises(InvalidQuiverError):
        c_plus(Quiver(g, spaces, maps))


def test_local_ops_one_hyperplane():
    a, b = Fraction(2), Fraction(7)
    v = one_hyperplane_quiver(a, b)
    ops_alpha = local_ops(v, (1,))
    assert ops_alpha.S == M([[a * b]])
    assert ops_alpha.T == M([[a * b]])
    assert ops_alpha.Tbar == Matrix.zero(1, 1)
    ops_top = local_ops(v, ())
    assert ops_top.S == Matrix.zero(1, 1)
    assert ops_top.Stilde == M([[a * b]])


def test_local_ops_zero_quiver():
    g = graph("three_lines")
    v = Quiver(g, {k: 1 for k in g.vertices}, {})
    for k in g.vertices:
        ops = local_ops(v, k)
        assert ops.S.is_zero() and ops.T.is_zero()
        assert ops.Tbar.is_zero() and ops.Stilde.is_zero()


def test_check_nonresonance_class_leaves_S_unformed(monkeypatch):
    """The monodromy report reads only the factor pairs of T and Tbar, so
    no vertex forms S = R C; read afterwards, S is the sum of the round
    trips through the vertices above."""
    import quiverarr.quiver as quiver
    from quiverarr.functors import j0_star
    from quiverarr.quiver import _through
    g = graph("c13")
    v = j0_star(g, scalar_level0(g, {j: Fraction(j, 7) for j in range(1, 7)}, dim=2, seed=3))
    made = []
    real = quiver.local_ops
    monkeypatch.setattr(quiver, "local_ops", lambda v, b: made.append((b, real(v, b))) or made[-1][1])
    check_nonresonance_class(v)
    assert len(made) == len(g.vertices) - 1
    assert all("S" not in ops.__dict__ for _, ops in made)
    assert all(ops.S == _through(v, b, g.up(b)) for b, ops in made)


def test_global_S_block_structure():
    v = one_hyperplane_quiver(Fraction(2), Fraction(3))
    s = global_S(v)
    assert s == M([[6, 0], [0, 6]])


def test_s_commutes_with_local_algebra():
    # S_beta is central: commutes with every A_beta^alpha
    rng = random.Random(9)
    g = graph("three_lines")
    m = Matrix(2, 2, [Fraction(rng.randint(-2, 2)) for _ in range(4)])
    v = scalar_level0(g, {1: Fraction(1), 2: Fraction(2), 3: Fraction(3)}, dim=2, seed=9)
    for k in v.graph.vertices:
        ops = local_ops(v, k)
        for a in v.graph.up(k):
            comp = v.map(k, a) * v.map(a, k)
            assert ops.S * comp == comp * ops.S


def test_spectrum_lambda_and_nonresonance():
    g = graph("three_lines")
    s = Spectrum({1: Fraction(1, 100), 2: Fraction(1, 100), 3: Fraction(2, 100)})
    assert spectrum_lambda(g, s, (1, 2, 3)) == Fraction(4, 100)
    assert spectrum_lambda(g, s, ()) == 0
    assert is_nonresonant_spectrum(g, s)
    zero = Spectrum({1: 0, 2: 0, 3: 0})
    assert is_nonresonant_spectrum(g, zero)
    g1 = graph("single")
    assert not is_nonresonant_spectrum(g1, Spectrum({1: 1}))


def test_nonresonance_report_zero_quiver():
    g = graph("three_lines")
    v = Quiver(g, {k: 2 for k in g.vertices}, {})
    rep = check_nonresonance_class(v)
    assert all(not r["tbar_has_positive_integer_eigenvalue"] for r in rep)
    assert all(r["t_nonresonant"] == "verified" for r in rep)


def test_nonresonance_report_flags_integer_monodromy():
    v = one_hyperplane_quiver(Fraction(1), Fraction(2))  # T at the deep vertex = 2
    rep = check_nonresonance_class(v)
    entry = {r["vertex"]: r for r in rep}[(1,)]
    assert entry["t_nonresonant"] == "violated"


def test_hom_space_identity_and_scalars():
    g = graph("single")
    v = level_zero_quiver(g, 1, {1: M([[Fraction(1, 2)]])})
    w = level_zero_quiver(g, 1, {1: M([[Fraction(1, 3)]])})
    assert hom_space(v, v).dim >= 1
    assert hom_space(v, w).dim == 0
    u = level_zero_quiver(g, 1, {1: M([[Fraction(1, 2)]])})
    assert hom_space(v, u).dim == 1


def test_hom_space_of_loop_intertwiners_between_ranks():
    # a Jordan block J and the scalar 1 on every loop of three_lines: the
    # intertwiners of loops J -> 1 and 1 -> J span one line each, and the
    # commutant of J is two-dimensional
    g = graph("three_lines")
    j = level_zero_quiver(g, 2, {k: M([[1, 1], [0, 1]]) for k in (1, 2, 3)})
    s = level_zero_quiver(g, 1, {k: M([[1]]) for k in (1, 2, 3)})
    for v, w, dim in ((j, s, 1), (s, j, 1), (j, j, 2), (s, s, 1)):
        basis = hom_space(v, w)
        assert basis.dim == dim
        for i in range(dim):
            morphism_from_coords(v, w, basis.basis.row(i))  # constructor validates


def test_hom_space_yields_valid_morphisms():
    g = graph("single")
    v = one_hyperplane_quiver(Fraction(2), Fraction(3))
    basis = hom_space(v, v)
    for i in range(basis.dim):
        morphism_from_coords(v, v, basis.basis.row(i))  # constructor validates


def test_morphism_validation():
    v = one_hyperplane_quiver(Fraction(2), Fraction(3))
    w = one_hyperplane_quiver(Fraction(2), Fraction(3))
    QuiverMorphism(v, w, {(): Matrix.identity(1), (1,): Matrix.identity(1)})
    with pytest.raises(InvalidQuiverError):
        QuiverMorphism(v, w, {(): Matrix.identity(1), (1,): M([[2]])})


def test_qvr_round_trip():
    g = graph("three_lines")
    v = scalar_level0(g, {1: Fraction(1, 2), 2: Fraction(3), 3: Fraction(-1, 7)})
    blob = json.dumps(quiver_to_json(v), sort_keys=True)
    w = parse_quiver(blob, g)
    assert w == v
    assert w.level == 0


def test_qvr_round_trip_full_quiver():
    v = one_hyperplane_quiver(Fraction(2), Fraction(-5, 3))
    blob = json.dumps(quiver_to_json(v), sort_keys=True)
    w = parse_quiver(blob, v.graph)
    assert w == v
    assert w.level is None


def test_char_poly_of_global_s_spectrum_case():
    g = graph("single")
    v = one_hyperplane_quiver(Fraction(1, 3), Fraction(1, 5))
    s = global_S(v)
    p = char_poly(s)
    lam = Fraction(1, 15)
    assert p == (lam * lam, -2 * lam, 1)


# -- check_quiver against a blockwise reference ------------------------------------

def entrywise(a, b):
    """a b by the definition, over Fractions, as a list of rows."""
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0))
             for j in range(b.cols)] for i in range(a.rows)]


def summed(n, m, terms):
    acc = [[Fraction(0)] * m for _ in range(n)]
    for t in terms:
        acc = [[x + y for x, y in zip(r, s)] for r, s in zip(acc, t)]
    return acc


def reference_violations(v):
    """The relations of check_quiver, each summed block by block from its
    definition: (b) and (c) as sums of A_{a,b} A_{b,c} over the middle
    vertices, (iv) and (v) from the loop operators."""
    g = v.graph
    lv = g.level
    out = []
    for a in g.vertices:
        for c in g.vertices:
            if abs(lv[a] - lv[c]) == 2:
                name = "(b)"
            elif lv[a] == lv[c] and a != c and set(g.down(a)) & set(g.down(c)):
                name = "(c)"
            else:
                continue
            mids = [b for b in g.vertices if g.adjacent(a, b) and g.adjacent(b, c)]
            s = summed(v.dim(a), v.dim(c), [entrywise(v.map(a, b), v.map(b, c)) for b in mids])
            if any(any(r) for r in s):
                out.append((name, (a, c)))
    if not isinstance(v, LevelQuiver):
        return out
    full, n = v.graph.full, v.level
    for (at, via) in v.graph.loops:
        lp = v.loop(at, via)
        for d in full.up(at):
            mids = [c for c in full.down(d)
                    if c != at and full.level[c] == n and full.adjacent(c, via)]
            s = Matrix.from_rows(summed(v.dim(d), v.dim(d),
                                        [entrywise(v.map(d, c), v.map(c, d)) for c in mids]),
                                 cols=v.dim(d))
            if entrywise(lp, v.map(at, d)) != entrywise(v.map(at, d), s):
                out.append(("(iv)", (at, via, d)))
            if entrywise(v.map(d, at), lp) != entrywise(s, v.map(d, at)):
                out.append(("(iv)*", (at, via, d)))
    for at in full.levels(n):
        for c in {c for b in full.down(at) for c in full.down(b)}:
            betas = [b for b in full.down(at) if full.adjacent(b, c)]
            s = Matrix.from_rows(summed(v.dim(at), v.dim(at),
                                        [v.loop(at, b).row_list() for b in betas]),
                                 cols=v.dim(at))
            for b in betas:
                if entrywise(v.loop(at, b), s) != entrywise(s, v.loop(at, b)):
                    out.append(("(v)", (at, b, c)))
    return out


@functools.lru_cache(maxsize=None)
def relation_bases():
    """Valid quivers to inject violations into: j0 images (full quivers)
    and one-step pushes (level quivers with loops), at ranks 1 and 2; and
    on C_{1,3} the kinds of quiver a tower of pushes yields, at rank 2
    with loop operators mixer * a_j for a non-scalar mixer: the pushes to
    the top level, a push to an intermediate level (loops between deeper
    levels), and the dual, the Fourier dual and a specialization (a graph
    keyed by tuples of tuples) of the full quiver of the * push."""
    from quiverarr.functors import (fourier_dual, j0_shriek, j0_star, push_shriek,
                                    push_star, specialize)
    out = []
    for name in ("three_lines", "boolean3", "c13"):
        g = graph(name)
        rng = random.Random(name)
        for dim, seed in ((1, None), (2, 3)):
            vals = {j: Fraction(rng.randint(-6, 6), 5) for j in range(1, g.arrangement.size + 1)}
            w = scalar_level0(g, vals, dim=dim, seed=seed)
            out += [j0_star(g, w), j0_shriek(g, w), push_star(w, 1), push_shriek(w, 1)]
    g = graph("c13")
    top = g.max_level
    mixer = M([[2, 1], [1, 1]])
    w = level_zero_quiver(g, 2, {j: mixer.scale(Fraction(j - 2, 5))
                                 for j in range(1, g.arrangement.size + 1)})
    star = push_star(w, top)
    full = Quiver(g, dict(star.spaces), dict(star.maps))
    for alpha in g.vertices:
        if 0 < g.level[alpha] < top:
            try:
                specialization_graph(g, alpha)
            except UnsupportedError:
                continue
            break
    out += [star, push_shriek(w, top), push_star(w, top - 1), full, dual(full),
            fourier_dual(full), specialize(full, alpha)[0]]
    return out


def inject(v, draw):
    """A copy of v with one entry of a map or loop operator changed; the
    map may be one absent from v.  `draw` picks one item of a list."""
    g = v.graph
    maps, loop_ops = dict(v.maps), dict(v.loop_ops)
    loops = [k for k in v.graph.loops if v.dim(k[0])] if isinstance(v, LevelQuiver) else []
    if loops and draw([False, True]):
        table, key = loop_ops, draw(loops)
        shape = (v.dim(key[0]), v.dim(key[0]))
    else:
        table = maps
        key = draw([(a, b) for a in g.vertices for b in g.vertices
                    if g.adjacent(a, b) and v.dim(a) and v.dim(b)])
        shape = (v.dim(key[0]), v.dim(key[1]))
    m = table.get(key, Matrix.zero(*shape))
    e = list(m.entries)
    e[draw(range(m.rows)) * m.cols + draw(range(m.cols))] += \
        Fraction(draw([-2, -1, 1, 3]), draw([1, 2]))
    table[key] = Matrix(m.rows, m.cols, e)
    if isinstance(v, LevelQuiver):
        return LevelQuiver(v.graph, dict(v.spaces), maps, loop_ops)
    return Quiver(g, dict(v.spaces), maps)


def test_check_quiver_valid_bases():
    for v in relation_bases():
        assert check_quiver(v) == reference_violations(v) == []


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_check_quiver_matches_blockwise_reference(data):
    bases = relation_bases()
    v = inject(data.draw(st.sampled_from(bases)),
               lambda xs: data.draw(st.sampled_from(list(xs))))
    got = check_quiver(v)
    assert got == reference_violations(v)
    assert len(set(got)) == len(got)


def test_injected_violations_cover_every_relation():
    rng = random.Random(11)
    seen = set()
    for v in relation_bases():
        for _ in range(6):
            w = inject(v, lambda xs: rng.choice(list(xs)))
            got = check_quiver(w)
            assert got == reference_violations(w)
            seen |= {name for name, _ in got}
    assert seen == {"(b)", "(c)", "(iv)", "(iv)*", "(v)"}


# -- monodromy char polys against the explicitly formed operators --------------------

@pytest.mark.parametrize("name", corpus.SMALL_CENTRAL)
def test_nonresonance_report_matches_explicit_monodromy(name):
    from quiverarr.functors import j0_shriek, j0_star
    from quiverarr.linalg import poly_format
    g = graph(name)
    rng = random.Random(name)
    for dim, seed in ((1, None), (2, 5)):
        vals = {j: Fraction(rng.randint(-5, 5), 7) for j in range(1, g.arrangement.size + 1)}
        w = scalar_level0(g, vals, dim=dim, seed=seed)
        for v in (j0_star(g, w), j0_shriek(g, w)):
            report = check_nonresonance_class(v)
            assert [r["vertex"] for r in report] == [k for k in g.vertices if g.level[k]]
            for r in report:
                ops = local_ops(v, r["vertex"])
                assert r["char_poly_T"] == poly_format(char_poly(ops.T))
                assert r["char_poly_Tbar"] == poly_format(char_poly(ops.Tbar))


def test_level_quiver_rejects_negative_dimension():
    g = graph("three_lines")
    with pytest.raises(ShapeError):
        LevelQuiver(TruncatedGraph(g, 0), {(): -1}, {})
    with pytest.raises(ShapeError):
        LevelQuiver(TruncatedGraph(g, 1), {(1,): -2}, {})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_level_map_joins_blocks_over_different_denominators(data):
    """`_level_map` lays the blocks of one row side by side over one lcm:
    its stored rows are the canonical rows of the Fraction block matrix,
    with pairs that have no map as zero blocks.  A target with one stored
    map among the sources takes that map's rows: the same row objects
    when the block starts at column 0.  Besides the level pairs, the
    target and source lists may be any lists of vertices, as `specialize`
    and `local_ops` pass them."""
    from quiverarr.linalg import _cleared
    from quiverarr.quiver import _level_map
    g = graph("three_lines")
    dims = {v: data.draw(st.integers(0, 2)) for v in g.vertices}
    entry = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 9)))
    maps = {(a, b): Matrix(dims[a], dims[b], data.draw(st.lists(
                entry, min_size=dims[a] * dims[b], max_size=dims[a] * dims[b])))
            for a in g.vertices for b in g.vertices
            if a != b and g.adjacent(a, b) and data.draw(st.booleans())}
    v = Quiver(g, dims, maps)
    keys = st.lists(st.sampled_from(g.vertices), unique=True)
    for tgt, src in ((g.levels(1), g.levels(0)), (g.levels(1), g.levels(2)),
                     (g.levels(2), g.levels(1)), (data.draw(keys), data.draw(keys))):
        want = [[x for s in src for x in (v.maps[(t, s)].row(i) if (t, s) in v.maps
                                          else [Fraction(0)] * dims[s])]
                for t in tgt for i in range(dims[t])]
        got = _level_map(v, tgt, src)
        assert got._form == [_cleared(enumerate(r)) for r in want]
        assert got.row_list() == want
        row = 0
        for t in tgt:
            stored = [s for s in src if (t, s) in v.maps]
            if len(stored) == 1 and not sum(dims[s] for s in src[:src.index(stored[0])]):
                assert all(got._form[row + i] is r
                           for i, r in enumerate(v.maps[(t, stored[0])]._form))
            row += dims[t]


def test_check_quiver_forms_one_product_per_level_pair(monkeypatch):
    """A check of a full C_{1,3} quiver (top level 3) forms at most three
    integer products per level and does no work per vertex pair: no
    adjacency test, and `up` read at most once per vertex (for the (c)
    pairs, on the first check of a graph)."""
    import quiverarr.quiver as qmod
    bases = [v for v in relation_bases() if v.level is None and v.graph.max_level == 3]
    assert len(bases) >= 4
    calls = {"_int_product": 0, "adjacent": 0, "down": 0, "up": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(qmod, "_int_product", counted("_int_product", qmod._int_product))
    for name in ("adjacent", "down", "up"):
        monkeypatch.setattr(AdmissibleGraph, name, counted(name, getattr(AdmissibleGraph, name)))
    rng = random.Random(3)
    for v in bases:
        for w in (v, inject(v, lambda xs: rng.choice(list(xs)))):
            calls.update(dict.fromkeys(calls, 0))
            check_quiver(w)
            assert calls["_int_product"] <= 3 * w.graph.max_level
            assert calls["adjacent"] == calls["down"] == 0
            assert calls["up"] <= len(w.graph.vertices)


def test_check_quiver_sees_a_shared_vertex_with_a_falsy_key():
    """Relation (c) binds 1 and 2 through the vertex keyed 0 below both."""
    g = AdmissibleGraph({3: 0, 1: 1, 2: 1, 0: 2}, [(3, 1), (3, 2), (1, 0), (2, 0)])
    one = M([[1]])
    v = Quiver(g, dict.fromkeys(g.vertices, 1), {(1, 0): one, (0, 2): one})
    assert check_quiver(v) == reference_violations(v) == [("(c)", (1, 2))]
    w = Quiver(g, dict.fromkeys(g.vertices, 1), {(1, 0): one, (0, 2): one, (1, 3): one,
                                                   (3, 2): -one})
    assert check_quiver(w) == []


def test_truncations_and_quiver_kinds_are_decided_in_one_place_each():
    """`truncated_graph` is the only caller of `TruncatedGraph(`, and an
    `isinstance(..., LevelQuiver)` test appears only where the kind carries
    meaning: the CLI's input requirements, the `.qvr` output, the
    refusals of specialization, the Fourier dual and the perverse model,
    and the kind check of the Hom equations.  Loops, the top level and
    the full graph are read off the graph everywhere else."""
    import ast
    from pathlib import Path

    import quiverarr
    truncators, kind_tests = set(), set()
    for path in Path(quiverarr.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for n in ast.walk(fn):
                if not isinstance(n, ast.Call):
                    continue
                name = getattr(n.func, "id", None)
                if name == "TruncatedGraph":
                    truncators.add((path.name, fn.name))
                if name == "isinstance" and "LevelQuiver" in {
                        getattr(x, "id", None) for x in ast.walk(n.args[1])}:
                    kind_tests.add((path.name, fn.name))
    assert truncators == {("arrangement.py", "truncated_graph")}
    assert kind_tests == {
        ("cli.py", "_level_zero"), ("cli.py", "cmd_push"),
        ("quiver.py", "quiver_to_json"), ("quiver.py", "hom_equations"),
        ("functors.py", "specialize"), ("functors.py", "spec_nonres_ops"),
        ("functors.py", "fourier_dual"), ("cohomology.py", "perverse_cohomology")}


def test_truncating_a_truncation_cuts_from_the_full_graph():
    """A truncation of a truncation reads levels n+1 and n+2 off the full
    graph: on boolean3, rank-2 random loops at level 1 with zero maps
    break relation (v) the same 6 times through either truncation."""
    g = graph("boolean3")
    once, twice = truncated_graph(g, 1), truncated_graph(truncated_graph(g, 2), 1)
    assert twice.full is g
    assert (twice.vertices, twice.edges, list(twice.loops)) == (once.vertices, once.edges,
                                                               list(once.loops))
    rng = random.Random(0)
    loops = {k: Matrix(2, 2, [Fraction(rng.randint(-3, 3)) for _ in range(4)])
             for k in once.loops}
    found = [[x for x in check_quiver(LevelQuiver(t, dict.fromkeys(t.vertices, 2), {}, loops))
              if x[0] == "(v)"] for t in (once, twice)]
    assert len(found[0]) == 6 and found[0] == found[1]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_loop_sum_is_the_chained_sum(data):
    """`_loop_sum` equals the loops added one `+` at a time, zero loops
    and mixed denominators included, and a single nonzero loop is
    returned as it is."""
    from quiverarr.quiver import _loop_sum
    g = graph("c13")
    dim = data.draw(st.integers(0, 3))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 9))))
    ops = {j: Matrix.zero(dim, dim) if data.draw(st.booleans()) else
           Matrix(dim, dim, data.draw(st.lists(entry, min_size=dim * dim, max_size=dim * dim)))
           for j in range(1, g.arrangement.size + 1)}
    v = level_zero_quiver(g, dim, ops)
    top = g.top()
    vias = data.draw(st.lists(st.sampled_from(g.down(top)), unique=True))
    chained = Matrix.zero(dim, dim)
    for via in vias:
        chained = chained + v.loop(top, via)
    got = _loop_sum(v, top, vias)
    assert got == chained
    nonzero = [v.loop(top, via) for via in vias if not v.loop(top, via).is_zero()]
    if len(nonzero) == 1:
        assert got is nonzero[0]
