import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverarr import corpus
from quiverarr.arrangement import TruncatedGraph, build_graph, truncated_graph
from quiverarr.errors import (InternalInconsistencyError, MissingLoopError, ShapeError,
                              UnsupportedError)
from quiverarr.functors import (
    _cutoff_candidates, _shriek_structure, adjoint_transport, fourier_dual, j0_shriek, j0_star,
    macpherson, push_shriek, push_shriek_step, push_star, push_star_step,
    restrict, s0, s_general, shapovalov_form, spec_nonres_ops, specialize,
    unique_morphism_restricting_to_identity,
)
from quiverarr.linalg import Matrix, block_offsets, rank
from quiverarr.oscomplex import (ExponentAssignment, aomoto_complex, flag_complex,
                                 flag_degree, flag_space, os_space, shapovalov_scalar)
from quiverarr.quiver import (
    LevelQuiver, Quiver, QuiverMorphism, _level_blocks, c_plus, check_quiver,
    dual, hom_equations, hom_space, level_zero_quiver, local_ops,
    morphism_from_coords, quiver_to_json,
)

from test_random_arrangements import central_arrangements, random_arrangements

A1, A2, A3 = Fraction(3, 7), Fraction(5, 11), Fraction(2, 13)


def M(rows):
    return Matrix.from_rows(rows)


def graph(name):
    return build_graph(corpus.CORPUS[name]())


def scalar_family_level0(g, values, dim=1, seed=None):
    """Loops a_j * M for a single matrix M: relations hold automatically."""
    if seed is None:
        m = Matrix.identity(dim)
    else:
        rng = random.Random(seed)
        while True:
            m = Matrix(dim, dim, [Fraction(rng.randint(-2, 2)) for _ in range(dim * dim)])
            if not m.is_zero():
                break
    return level_zero_quiver(g, dim, {j: m.scale(v) for j, v in values.items()})


def three_lines_w(dim=1, seed=None):
    return scalar_family_level0(graph("three_lines"), {1: A1, 2: A2, 3: A3},
                                dim=dim, seed=seed)


# -- restriction -------------------------------------------------------------------

def test_restrict_level_two_to_one_golden():
    g = graph("three_lines")
    w = three_lines_w(dim=2, seed=3)
    v = j0_shriek(g, w)
    r = restrict(v, 1)
    assert r.level == 1
    for i in (1, 2, 3):
        assert r.loop((i,), (1, 2, 3)) == v.map((i,), (1, 2, 3)) * v.map((1, 2, 3), (i,))
        assert r.map((i,), ()) == v.map((i,), ())
    assert check_quiver(r) == []


def test_restrict_composition_law():
    g = graph("three_lines")
    v = j0_shriek(g, three_lines_w(dim=2, seed=4))
    assert restrict(v, 0) == restrict(restrict(v, 1), 0)


def test_restrict_zero_quiver():
    g = graph("three_lines")
    v = Quiver(g, {k: 0 for k in g.vertices}, {})
    r = restrict(v, 1)
    assert r.is_zero()


def test_restrict_level_errors():
    g = graph("three_lines")
    v = j0_shriek(g, three_lines_w())
    with pytest.raises(ShapeError):
        restrict(v, 2)
    with pytest.raises(ShapeError):
        restrict(restrict(v, 1), 1)


# -- a graph is its own top truncation ---------------------------------------------

def full_outputs(g, rank):
    """The full * and ! images and the MacPherson extension of a rank-1 or
    rank-2 level-zero quiver with generic loops."""
    m = Matrix.identity(1) if rank == 1 else M([[1, 1], [0, 1]])
    w = level_zero_quiver(g, rank, {j: m.scale(Fraction(j, 7 * j + 3))
                                    for j in range(1, g.arrangement.size + 1)})
    return w, [j0_star(g, w), j0_shriek(g, w), macpherson(g, w).quiver]


@pytest.mark.parametrize("name", corpus.CENTRAL)
def test_full_quiver_is_its_top_level_quiver(name):
    """A full quiver and the level quiver on its own graph, at the top
    level, agree on the relations, the Hom equations, C+, the duality and
    every restriction; the graph is its own top truncation.  The Hom
    dimensions are compared on every quiver but the rank-2 C_{1,4} ones,
    whose kernels take about 14 s a side: their equations are the same
    matrix."""
    g = graph(name)
    top = g.max_level
    assert g.full is g and not g.loops and truncated_graph(g, top) is g
    for rank in (1, 2):
        w, outputs = full_outputs(g, rank)
        if top:
            assert push_star(w, top).graph is g and push_shriek(w, top).graph is g
        else:
            assert w.graph is g
        for v in outputs:
            lv = LevelQuiver(v.graph, v.spaces, v.maps)
            assert isinstance(lv, LevelQuiver) and lv.level == top
            assert lv.graph is v.graph and lv.spaces == v.spaces and lv.maps == v.maps
            assert check_quiver(lv) == check_quiver(v) == []
            assert hom_equations(lv, lv) == hom_equations(v, v)
            if (name, rank) != ("c14", 2):
                assert hom_space(lv, lv).dim == hom_space(v, v).dim
            cl, cv = c_plus(lv), c_plus(v)
            assert (cl.min_degree, cl.dims, cl.differentials) == \
                (cv.min_degree, cv.dims, cv.differentials)
            dv = dual(v)
            assert dual(lv) == LevelQuiver(dv.graph, dv.spaces, dv.maps)
            for k in range(top):
                assert restrict(lv, k) == restrict(v, k)


def test_restrict_of_a_full_quiver_truncates_once(monkeypatch):
    """Restricting a full quiver constructs only its level-k truncation,
    not a copy of the whole graph at the top."""
    g = graph("c13")
    v = j0_star(g, full_outputs(g, 2)[0])
    made = []
    real = TruncatedGraph.__init__
    monkeypatch.setattr(TruncatedGraph, "__init__",
                        lambda self, full, n: made.append((full, n)) or real(self, full, n))
    for k in range(g.max_level):
        made.clear()
        r = restrict(v, k)
        assert made == [(g, k)] and r.graph.full is g and r.level == k


def test_spec_nonres_ops_refuses_a_top_level_quiver():
    g = graph("three_lines")
    v = j0_star(g, three_lines_w())
    v = LevelQuiver(v.graph, v.spaces, v.maps)
    assert v.graph is g
    with pytest.raises(UnsupportedError):
        spec_nonres_ops(v, (1,))


def test_a_full_graph_refuses_loops():
    g = graph("three_lines")
    v = j0_star(g, three_lines_w())
    with pytest.raises(MissingLoopError):
        LevelQuiver(g, dict(v.spaces), dict(v.maps), {((1, 2, 3), (1,)): M([[0]])})
    with pytest.raises(MissingLoopError):
        Quiver(g, dict(v.spaces), dict(v.maps), {((), (1,)): M([[1]])})
    with pytest.raises(MissingLoopError):
        v.loop((), (1,))


def dual_level(v):
    """The duality of a level quiver as its own function computed it
    before `dual` took both kinds: the reference for `dual` at level."""
    g = v.graph
    maps = {}
    for a in g.vertices:
        for b in list(g.up(a)) + list(g.down(a)):
            m = v.map(b, a)
            if not m.is_zero():
                maps[(a, b)] = m.transpose().scale(g.full.epsilon(b, a))
    loops = {}
    for (at, via) in g.loops:
        m = v.loop(at, via)
        if not m.is_zero():
            loops[(at, via)] = -m.transpose()
    return LevelQuiver(g, dict(v.spaces), maps, loops)


def assert_dual_is_the_level_reference(v):
    assert isinstance(v, LevelQuiver)
    d = dual(v)
    assert isinstance(d, LevelQuiver) and d.graph is v.graph
    assert d == dual_level(v)
    assert quiver_to_json(d) == quiver_to_json(dual_level(v))


@pytest.mark.parametrize("name", ["three_lines", "boolean3", "c13", "parallel", "generic3"])
def test_dual_of_level_quivers_is_the_reference(name):
    """On every one-step push of rank-1 and rank-2 level-zero quivers, and
    on every restriction of their full direct images and of the pushes."""
    g = graph(name)
    values = {j: Fraction(j, 7) - 1 for j in range(1, g.arrangement.size + 1)}
    for dim, seed in ((1, None), (2, 9)):
        w = scalar_family_level0(g, values, dim=dim, seed=seed)
        assert_dual_is_the_level_reference(w)
        for step in (push_star_step, push_shriek_step):
            v = w
            while v.level < g.max_level:
                v, _ = step(v)
                assert_dual_is_the_level_reference(v)
                for k in range(v.level):
                    assert_dual_is_the_level_reference(restrict(v, k))
        for full in (j0_star(g, w), j0_shriek(g, w)):
            for k in range(g.max_level):
                assert_dual_is_the_level_reference(restrict(full, k))


@settings(max_examples=40, deadline=None)
@given(random_arrangements(), st.data())
def test_dual_of_random_level_zero_quivers_is_the_reference(arr, data):
    """Loop operators drawn freely, relations not imposed."""
    g = build_graph(arr)
    dim = data.draw(st.integers(1, 2))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    ops = {j: Matrix(dim, dim, data.draw(st.lists(entry, min_size=dim * dim,
                                                  max_size=dim * dim)))
           for j in range(1, arr.size + 1)}
    assert_dual_is_the_level_reference(level_zero_quiver(g, dim, ops))


def test_restrict_commutes_with_duality():
    g = graph("three_lines")
    v = j0_shriek(g, three_lines_w(dim=2, seed=11))
    assert restrict(dual(v), 1) == dual(restrict(v, 1))


# -- one-step direct images -----------------------------------------------------------

def test_push_star_step_three_lines_golden():
    g = graph("three_lines")
    w = three_lines_w(dim=2, seed=5)
    a = {i: w.loop((), (i,)) for i in (1, 2, 3)}
    v, witness = push_star_step(w)
    assert v.level == 1
    for i in (1, 2, 3):
        assert v.dim((i,)) == 2
        assert v.map(((), (i,))[0], ((), (i,))[1]) == Matrix.identity(2)
        assert v.map((i,), ()) == a[i]
        expect = Matrix.zero(2, 2)
        for j in (1, 2, 3):
            if j != i:
                expect = expect + a[j]
        assert v.loop((i,), (1, 2, 3)) == expect
    assert witness[(1,)]["kind"] == "inclusion"
    assert check_quiver(v) == []


def test_push_star_step_single_hyperplane_golden():
    g = graph("single")
    b = M([[2, 1], [0, 2]])
    w = level_zero_quiver(g, 2, {1: b})
    v, _ = push_star_step(w)
    assert v.dim(()) == 2 and v.dim((1,)) == 2
    assert v.map((), (1,)) == Matrix.identity(2)
    assert v.map((1,), ()) == b


def test_push_shriek_step_single_hyperplane_golden():
    g = graph("single")
    b = M([[2, 1], [0, 2]])
    w = level_zero_quiver(g, 2, {1: b})
    v, witness = push_shriek_step(w)
    assert v.map((1,), ()) == Matrix.identity(2)
    assert v.map((), (1,)) == b
    assert witness[(1,)]["kind"] == "projection"


def test_push_shriek_step_three_lines_golden():
    g = graph("three_lines")
    w = three_lines_w(dim=2, seed=6)
    a = {i: w.loop((), (i,)) for i in (1, 2, 3)}
    v, _ = push_shriek_step(w)
    for i in (1, 2, 3):
        assert v.map((i,), ()) == Matrix.identity(2)
        assert v.map((), (i,)) == a[i]
        expect = Matrix.zero(2, 2)
        for j in (1, 2, 3):
            if j != i:
                expect = expect + a[j]
        assert v.loop((i,), (1, 2, 3)) == expect
    assert check_quiver(v) == []


def test_push_star_second_step_three_lines_table():
    # the deep space is the kernel of the stacked upward maps, the downward
    # map is the loop minus the cross round trips
    g = graph("three_lines")
    w = three_lines_w(dim=1)
    lvl1, _ = push_star_step(w)
    lvl2, witness = push_star_step(lvl1)
    entry = witness[(1, 2, 3)]
    inc = entry["matrix"]
    assert entry["ambient"] == ((1,), (2,), (3,))
    assert lvl2.dim((1, 2, 3)) == 2
    # constraint: sum of the upward maps vanishes on the subspace
    stacked = lvl1.map((), (1,)).hstack(lvl1.map((), (2,))).hstack(lvl1.map((), (3,)))
    assert (stacked * inc).is_zero()
    for idx, i in enumerate((1, 2, 3)):
        proj = inc.submatrix([idx], range(inc.cols))
        assert lvl2.map((i,), (1, 2, 3)) == proj
        # ambient image of the downward map per the worked table
        amb = inc * lvl2.map((1, 2, 3), (i,))
        expect_rows = []
        for jdx, j in enumerate((1, 2, 3)):
            if j == i:
                expect_rows.append(lvl1.loop((i,), (1, 2, 3)).row(0))
            else:
                expect_rows.append((-(lvl1.map((j,), ()) * lvl1.map((), (i,))))
                                   .row(0))
        assert amb == M(expect_rows)
    assert check_quiver(lvl2) == []


def test_push_round_trips():
    for name in ("single", "boolean2", "three_lines"):
        g = graph(name)
        vals = {j: Fraction(2 * j + 1, 103) for j in range(1, g.arrangement.size + 1)}
        w = scalar_family_level0(g, vals, dim=2, seed=7)
        n = g.max_level
        assert restrict(push_star(w, n), 0) == w
        assert restrict(push_shriek(w, n), 0) == w
        if n > 1:
            mid = push_star(w, 1)
            assert restrict(push_star(mid, n), 1) == mid


def test_push_functors_give_valid_quivers():
    for name in ("boolean2", "three_lines", "generic3", "parallel"):
        g = graph(name)
        vals = {j: Fraction(j, 11) for j in range(1, g.arrangement.size + 1)}
        w = scalar_family_level0(g, vals, dim=2, seed=8)
        for l in range(1, g.max_level + 1):
            assert check_quiver(push_star(w, l)) == []
            assert check_quiver(push_shriek(w, l)) == []


def test_push_shriek_agrees_with_dual_route():
    # push_shriek vs tau^{-1} . push_star . tau: an invertible intertwiner exists
    g = graph("three_lines")
    w = three_lines_w(dim=2, seed=10)
    lhs = push_shriek(w, 2)
    rhs = dual(push_star(dual(w), 2))
    basis = hom_space(lhs, rhs)
    assert basis.dim >= 1
    rng = random.Random(0)
    found = False
    for _ in range(basis.dim + 2):
        coords = [Fraction(0)] * basis.basis.cols
        for i in range(basis.dim):
            c = Fraction(rng.randint(-5, 5))
            coords = [x + c * y for x, y in zip(coords, basis.basis.row(i))]
        phi = morphism_from_coords(lhs, rhs, coords)
        if all(f.rows == f.cols and rank(f) == f.rows for f in phi.components.values()):
            found = True
            break
    assert found


def test_adjunction_dimensions():
    g = graph("three_lines")
    rng = random.Random(21)
    for trial in range(4):
        w = scalar_family_level0(
            g, {j: Fraction(rng.randint(-3, 3), 7) for j in (1, 2, 3)},
            dim=rng.randint(1, 2), seed=rng.randint(0, 99))
        u = j0_shriek(g, scalar_family_level0(
            g, {j: Fraction(rng.randint(-3, 3), 5) for j in (1, 2, 3)},
            dim=1, seed=rng.randint(0, 99)))
        ul = LevelQuiver(u.graph, u.spaces, u.maps)
        # Hom(J_! w, u) = Hom(w, J* u)   and   Hom(u, J_* w) = Hom(J* u, w)
        assert hom_space(push_shriek(w, 2), ul).dim == \
            hom_space(w, restrict(u, 0)).dim
        assert hom_space(ul, push_star(w, 2)).dim == \
            hom_space(restrict(u, 0), w).dim


def test_adjoint_transport_counit_is_identity():
    g = graph("three_lines")
    w = three_lines_w(dim=2, seed=12)
    u, _ = push_star_step(w)
    counit = QuiverMorphism(restrict(u, 0), w,
                            {(): Matrix.identity(2)})
    tilde = adjoint_transport(u, counit)
    assert tilde.is_identity()


def test_adjoint_transport_formula_and_bijection():
    g = graph("single")
    b = M([[1, 1], [0, 1]])
    w = level_zero_quiver(g, 2, {1: b})
    u = j0_shriek(g, w)
    u = LevelQuiver(u.graph, u.spaces, u.maps)
    basis = hom_space(restrict(u, 0), w)
    for i in range(basis.dim):
        phi = morphism_from_coords(restrict(u, 0), w, basis.basis.row(i))
        tilde = adjoint_transport(u, phi)
        # boundary component follows the transport formula
        assert tilde.component((1,)) is not None
    assert basis.dim == hom_space(u, push_star(w, 1)).dim


def rebuilt_adjoint_transport(u, phi):
    """Reference: the adjunction transport with the boundary sum and the
    kernel of its * constraints rebuilt at every new vertex."""
    from quiverarr.functors import _boundary
    from quiverarr.linalg import kernel_basis, solve_matrix
    v = phi.target
    w, _ = push_star_step(v)
    comps = {a: phi.component(a) for a in v.graph.vertices}
    for beta in u.graph.full.levels(u.level):
        bd = _boundary(v, beta)
        blocks = [phi.component(a) * u.map(a, beta) for a in bd.ups]
        comps[beta] = solve_matrix(kernel_basis(bd.up).basis.transpose(),
                                   blocks[0].vstack(*blocks[1:]))
    return QuiverMorphism(u, w, comps)


def transport_inputs(g, dim, rng):
    """(u, phi: restrict(u) -> v) at every level of g: v is the * tower of
    a rank-dim level-zero quiver one level below u, u either one-step
    image of v, phi the identity and, on small graphs, a random
    combination of the hom basis."""
    values = {j: Fraction(rng.randint(-5, 5), 7) for j in range(1, g.arrangement.size + 1)}
    v = scalar_family_level0(g, values, dim=dim, seed=None if dim == 1 else rng.randint(0, 99))
    while v.level < g.max_level:
        for step in (push_star_step, push_shriek_step):
            u, _ = step(v)
            low = restrict(u, v.level)
            yield u, QuiverMorphism(low, v, {a: Matrix.identity(v.dim(a))
                                             for a in v.graph.vertices})
            if len(g.vertices) <= 8:
                basis = hom_space(low, v)
                if basis.dim:
                    c = Matrix(1, basis.dim, [rng.randint(-2, 2) for _ in range(basis.dim)])
                    yield u, morphism_from_coords(low, v, (c * basis.basis).row(0))
        v, _ = push_star_step(v)


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_adjoint_transport_is_the_rebuilt_reference_on_the_corpus(name):
    g = graph(name)
    rng = random.Random(name)
    for dim in (1, 2):
        for u, phi in transport_inputs(g, dim, rng):
            got = adjoint_transport(u, phi)
            assert got.components == rebuilt_adjoint_transport(u, phi).components


@settings(max_examples=30, deadline=None)
@given(random_arrangements(), st.integers(1, 2), st.integers(0, 99))
def test_adjoint_transport_is_the_rebuilt_reference_on_random_arrangements(arr, dim, seed):
    g = build_graph(arr)
    for u, phi in transport_inputs(g, dim, random.Random(seed)):
        got = adjoint_transport(u, phi)
        assert got.components == rebuilt_adjoint_transport(u, phi).components


def test_adjoint_transport_reuses_the_step_witness(monkeypatch):
    """The transport makes no `kernel_basis` or `_boundary` call beyond
    those of the `push_star_step` it runs: it reads each new vertex's
    summands and inclusion off the step's witness."""
    import quiverarr.functors as functors
    g = graph("c13")
    v = push_star(scalar_family_level0(g, {j: Fraction(j, 5) for j in range(1, 7)},
                                       dim=2, seed=4), 1)
    u, _ = push_shriek_step(v)
    phi = QuiverMorphism(restrict(u, 1), v, {a: Matrix.identity(v.dim(a))
                                             for a in v.graph.vertices})
    calls = []
    for name in ("kernel_basis", "_boundary"):
        real = getattr(functors, name)
        monkeypatch.setattr(functors, name,
                            lambda *args, _n=name, _f=real: calls.append(_n) or _f(*args))
    push_star_step(v)
    in_step = sorted(calls)
    calls.clear()
    adjoint_transport(u, phi)
    assert sorted(calls) == in_step and in_step.count("_boundary") == len(g.levels(2))


# -- explicit level-zero direct images ------------------------------------------------

def test_j0_shriek_three_lines_golden():
    g = graph("three_lines")
    w = three_lines_w()
    v = j0_shriek(g, w)
    assert [v.dim(k) for k in ((), (1,), (2,), (3,), (1, 2, 3))] == [1, 1, 1, 1, 2]
    for i, a in ((1, A1), (2, A2), (3, A3)):
        assert v.map((i,), ()) == M([[1]])
        assert v.map((), (i,)) == M([[a]])
    # downward maps into the deep flag space, basis (F1, F2), F3 = -F1-F2
    assert v.map((1, 2, 3), (1,)) == M([[-1], [0]])
    assert v.map((1, 2, 3), (2,)) == M([[0], [-1]])
    assert v.map((1, 2, 3), (3,)) == M([[1], [1]])
    # upward maps per the cutoff rule
    assert v.map((1,), (1, 2, 3)) == M([[-(A2 + A3), A2]])
    assert v.map((2,), (1, 2, 3)) == M([[A1, -(A1 + A3)]])
    assert v.map((3,), (1, 2, 3)) == M([[A1, A2]])
    assert check_quiver(v) == []


def test_j0_star_three_lines_golden():
    g = graph("three_lines")
    w = three_lines_w()
    v = j0_star(g, w)
    assert [v.dim(k) for k in ((), (1,), (2,), (3,), (1, 2, 3))] == [1, 1, 1, 1, 2]
    for i, a in ((1, A1), (2, A2), (3, A3)):
        assert v.map((i,), ()) == M([[a]])
        assert v.map((), (i,)) == M([[1]])
    # downward maps in the basis ((H1,H2), (H1,H3)) with (H2,H3) = (H1,H3)-(H1,H2)
    assert v.map((1, 2, 3), (1,)) == M([[-A2], [-A3]])
    assert v.map((1, 2, 3), (2,)) == M([[A1 + A3], [-A3]])
    assert v.map((1, 2, 3), (3,)) == M([[-A2], [A1 + A2]])
    # upward maps delete a symbol with alternating signs
    assert v.map((1,), (1, 2, 3)) == M([[-1, -1]])
    assert v.map((2,), (1, 2, 3)) == M([[1, 0]])
    assert v.map((3,), (1, 2, 3)) == M([[0, 1]])
    assert check_quiver(v) == []


def test_j0_give_valid_quivers_matrix_coefficients():
    for name in ("boolean2", "three_lines", "generic3", "parallel"):
        g = graph(name)
        vals = {j: Fraction(j + 1, 13) for j in range(1, g.arrangement.size + 1)}
        w = scalar_family_level0(g, vals, dim=2, seed=name.__hash__() % 100)
        assert check_quiver(j0_shriek(g, w)) == []
        assert check_quiver(j0_star(g, w)) == []


def test_j0_zero_quiver():
    g = graph("three_lines")
    w = level_zero_quiver(g, 0, {})
    assert j0_shriek(g, w).is_zero()
    assert j0_star(g, w).is_zero()


def test_j0_single_hyperplane_reproduces_level_one_tables():
    g = graph("single")
    b = M([[5, 1], [0, 5]])
    w = level_zero_quiver(g, 2, {1: b})
    sh = j0_shriek(g, w)
    assert sh.map((1,), ()) == Matrix.identity(2)
    assert sh.map((), (1,)) == b
    st = j0_star(g, w)
    assert st.map((), (1,)) == Matrix.identity(2)
    assert st.map((1,), ()) == b


def test_scalar_equivalences_cplus_matrices():
    # C+(j0_star) = Aomoto, C+(j0_shriek) = flag complex, C+(s0) = scalar Shapovalov
    for name in ("single", "boolean2", "three_lines", "generic3"):
        g = graph(name)
        vals = {j: Fraction(2 * j - 1, 107) for j in range(1, g.arrangement.size + 1)}
        a = ExponentAssignment(vals)
        w = level_zero_quiver(g, 1, {j: M([[a.of(j)]]) for j in vals})
        assert c_plus(j0_star(g, w)) == aomoto_complex(g, a)
        assert c_plus(j0_shriek(g, w)) == flag_complex(g)
        s = s0(g, w)
        scalar = shapovalov_scalar(g, a)
        for p in range(g.max_level + 1):
            keys = sorted(k for k in g.vertices if g.level[k] == p)
            blocks = [s.component(k) for k in keys]
            assembled = _block_diag(blocks)
            assert assembled == scalar.components[p]


def _block_diag(blocks):
    from quiverarr.linalg import block_diag
    return block_diag(blocks)


def test_s0_three_lines_golden():
    g = graph("three_lines")
    w = three_lines_w()
    s = s0(g, w)
    assert s.component(()) == M([[1]])
    for i, a in ((1, A1), (2, A2), (3, A3)):
        assert s.component((i,)) == M([[a]])
    assert s.component((1, 2, 3)) == M([[A1 * A2, -A1 * A2 - A2 * A3],
                                        [A1 * A3, A2 * A3]])


def test_s0_degree_zero_identity_and_zero_ops():
    g = graph("three_lines")
    w = level_zero_quiver(g, 2, {})
    s = s0(g, w)
    assert s.component(()) == Matrix.identity(2)
    for k in g.vertices:
        if g.level[k] > 0:
            assert s.component(k).is_zero()


def test_shapovalov_form_symmetric_for_commuting_ops():
    g = graph("three_lines")
    w = three_lines_w(dim=2, seed=13)
    form = shapovalov_form(g, w)
    f1 = ((), (1,), (1, 2, 3))
    f2 = ((), (2,), (1, 2, 3))
    assert form(f1, f2) == form(f2, f1)
    # cross-check against the matrix morphism through the duality pairing
    from quiverarr.oscomplex import duality_pairing, flag_degree, os_space
    s = s0(g, w)
    pair = duality_pairing(os_space(g, 2), flag_degree(g, 2))
    fd = flag_degree(g, 2)
    fb = fd.spaces[(1, 2, 3)]
    dw = 2
    comp = s.component((1, 2, 3))

    # form(F, F') = sum over the OS basis b of coords(s0 F)[b] <b, F'>
    def form_via_pairing(fa, fbp):
        ca = fb.coords_of_generator(fa)
        out = Matrix.zero(dw, dw)
        for osi in range(fb.dim):
            coeff = sum((pair[osi, j] * fb.coords_of_generator(fbp)[j]
                         for j in range(fb.dim)),
                        Fraction(0))
            if coeff == 0:
                continue
            col = Matrix.zero(dw, dw)
            for si, c in enumerate(ca):
                if c:
                    blk = comp.submatrix(range(osi * dw, osi * dw + dw),
                                         range(si * dw, si * dw + dw))
                    col = col + blk.scale(c)
            out = out + col.scale(coeff)
        return out

    for fa in fb.generators:
        for fbp in fb.generators:
            assert form(fa, fbp) == form_via_pairing(fa, fbp)


# -- MacPherson extension --------------------------------------------------------------

def test_macpherson_single_hyperplane_example():
    g = graph("single")
    b = M([[0, 1], [0, 0]])
    w = level_zero_quiver(g, 2, {1: b})
    mac = macpherson(g, w)
    assert mac.quiver.dim(()) == 2
    assert mac.quiver.dim((1,)) == 1          # rank of b
    # inclusion and projection intertwine by construction (validated);
    # the composite inclusion . projection equals s0 at every vertex
    s = s0(g, w)
    for k in g.vertices:
        assert mac.inclusion.component(k) * mac.projection.component(k) == \
            s.component(k)


def test_macpherson_restricts_to_input():
    g = graph("three_lines")
    w = three_lines_w(dim=2, seed=14)
    mac = macpherson(g, w)
    assert restrict(mac.quiver, 0) == w


def test_macpherson_invertible_ops_give_star_dims():
    g = graph("three_lines")
    w = three_lines_w(dim=1)   # nonzero scalars: every operator invertible
    mac = macpherson(g, w)
    star = j0_star(g, w)
    for k in g.vertices:
        assert mac.quiver.dim(k) == star.dim(k)


def test_macpherson_zero_ops_keeps_only_top():
    g = graph("three_lines")
    w = level_zero_quiver(g, 2, {})
    mac = macpherson(g, w)
    assert mac.quiver.dim(()) == 2
    for k in g.vertices:
        if g.level[k] > 0:
            assert mac.quiver.dim(k) == 0


# -- the general Shapovalov morphism ---------------------------------------------------

def test_s_general_single_hyperplane():
    g = graph("single")
    b = M([[3, 1], [0, 3]])
    w = level_zero_quiver(g, 2, {1: b})
    s = s_general(w, 1)
    assert s.component(()) == Matrix.identity(2)
    assert s.component((1,)) == b


def test_s_general_matches_s0_through_flag_models():
    g = graph("three_lines")
    w = three_lines_w(dim=2, seed=15)
    explicit = s0(g, w)
    p, q = explicit.source, explicit.target
    solved = unique_morphism_restricting_to_identity(
        LevelQuiver(p.graph, p.spaces, p.maps), LevelQuiver(q.graph, q.spaces, q.maps), 0)
    for k in g.vertices:
        assert solved.component(k) == explicit.component(k)


def test_s_general_low_part_identity():
    g = graph("three_lines")
    w = three_lines_w(dim=2, seed=16)
    s = s_general(w, 2)
    assert s.component(()) == Matrix.identity(2)
    assert check_quiver(s.source) == [] and check_quiver(s.target) == []


def three_elimination_morphism(p, q, k):
    """Reference: the canonical morphism through the hom basis, a dense
    system restricted to the low coordinates, its kernel for uniqueness,
    and the solution expanded over the basis coordinate by coordinate."""
    from quiverarr.linalg import Q0, kernel_basis, solve_matrix
    from quiverarr.quiver import hom_offsets
    basis = hom_space(p, q)
    g = p.graph
    offsets, total = hom_offsets(p, q)
    rows, rhs = [], []
    for vtx in [vtx for vtx in g.vertices if g.level[vtx] <= k]:
        if p.dim(vtx) != q.dim(vtx):
            raise ShapeError("low-level spaces differ; no identity restriction")
        n = p.dim(vtx)
        ident = Matrix.identity(n)
        for i in range(n):
            for j in range(n):
                rows.append([basis.basis[bi, offsets[vtx] + i * n + j]
                             for bi in range(basis.dim)])
                rhs.append(ident[i, j])
    system = Matrix.from_rows(rows, cols=basis.dim)
    sol = solve_matrix(system, Matrix(len(rhs), 1, rhs))
    if sol is None:
        raise InternalInconsistencyError("no morphism restricts to the identity")
    if kernel_basis(system).dim != 0:
        raise InternalInconsistencyError("identity-restricting morphism is not unique")
    coords = [Q0] * total
    for bi in range(basis.dim):
        c = sol[bi, 0]
        if c:
            coords = [x + c * y for x, y in zip(coords, basis.basis.row(bi))]
    return morphism_from_coords(p, q, coords)


def outcome(f, *args):
    """The components f returns, or the type and message of its error."""
    try:
        return f(*args).components
    except (InternalInconsistencyError, ShapeError) as exc:
        return type(exc), str(exc)


def assert_canonical_morphisms_are_the_reference(g, w, top):
    for l in range(1, top + 1):
        p, q = push_shriek(w, l), push_star(w, l)
        for k in range(l):
            assert outcome(unique_morphism_restricting_to_identity, p, q, k) == \
                outcome(three_elimination_morphism, p, q, k)


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_canonical_morphism_is_the_three_elimination_reference_on_the_corpus(name):
    """At every target level (C_{1,4} up to level 2) and every level k
    below it, ranks 1 and 2: the same morphism, or the same error."""
    g = graph(name)
    values = {j: Fraction(j, 9) - Fraction(1, 2) for j in range(1, g.arrangement.size + 1)}
    top = min(g.max_level, 2 if name == "c14" else g.max_level)
    for dim, seed in ((1, None), (2, 13)):
        assert_canonical_morphisms_are_the_reference(
            g, scalar_family_level0(g, values, dim=dim, seed=seed), top)


@settings(max_examples=30, deadline=None)
@given(random_arrangements(), st.integers(1, 2), st.integers(0, 99))
def test_canonical_morphism_is_the_three_elimination_reference_on_random_arrangements(
        arr, dim, seed):
    g = build_graph(arr)
    rng = random.Random(seed)
    values = {j: Fraction(rng.randint(-4, 4), 5) for j in range(1, arr.size + 1)}
    assert_canonical_morphisms_are_the_reference(
        g, scalar_family_level0(g, values, dim=dim, seed=None if dim == 1 else seed), g.max_level)


def test_canonical_morphism_error_paths():
    """On the single hyperplane, with k = 0: the zero-map quiver to itself
    (any scalar at (1)), a map (1) -> () into the zero-map quiver (no
    morphism), and ranks 1 and 2 at the top (no identity)."""
    g = graph("single")
    zero = Quiver(g, {(): 1, (1,): 1}, {})
    onto = Quiver(g, {(): 1, (1,): 1}, {((), (1,)): M([[1]])})
    cases = [(zero, zero, InternalInconsistencyError,
              "identity-restricting morphism is not unique"),
             (onto, zero, InternalInconsistencyError, "no morphism restricts to the identity"),
             (Quiver(g, {(): 1}, {}), Quiver(g, {(): 2}, {}), ShapeError,
              "low-level spaces differ; no identity restriction")]
    for p, q, error, message in cases:
        with pytest.raises(error, match=f"^{message}$"):
            unique_morphism_restricting_to_identity(p, q, 0)
        assert outcome(three_elimination_morphism, p, q, 0) == (error, message)


def test_canonical_morphism_is_one_solve_and_one_rank(monkeypatch):
    """One `solve_matrix` call on the stacked system and one `rank` call,
    without the hom basis (`kernel_basis`)."""
    import quiverarr.functors as functors
    import quiverarr.quiver as quiver
    g = graph("three_lines")
    w = three_lines_w(dim=2, seed=16)
    p, q = push_shriek(w, 2), push_star(w, 2)
    calls = []
    for module, name in ((functors, "solve_matrix"), (functors, "rank"),
                         (functors, "kernel_basis"), (quiver, "kernel_basis")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, _n=name, _f=real: calls.append(_n) or _f(*args))
    s = unique_morphism_restricting_to_identity(p, q, 0)
    assert sorted(calls) == ["rank", "solve_matrix"]
    assert s.component(()) == Matrix.identity(2)


# -- specialization --------------------------------------------------------------------

def test_specialize_single_hyperplane_identified_with_input():
    g = graph("single")
    v = Quiver(g, {(): 2, (1,): 2},
               {((1,), ()): M([[1, 0], [0, 2]]), ((), (1,)): M([[3, 0], [0, 4]])})
    spq, sp = specialize(v, (1,))
    assert sorted(spq.spaces.values()) == [2, 2]
    assert len(spq.maps) == 2
    assert sorted(m.entries for m in spq.maps.values()) == \
        sorted(m.entries for m in v.maps.values())
    assert check_quiver(spq) == []


def test_specialize_at_top_is_same_quiver():
    g = graph("three_lines")
    w = three_lines_w(dim=2, seed=17)
    v = j0_star(g, w)
    spq, sp = specialize(v, ())
    assert sorted(spq.spaces.values()) == sorted(v.spaces.values())
    assert len(spq.maps) == len(v.maps)
    assert check_quiver(spq) == []


def test_specialize_three_lines_merges_and_sums():
    g = graph("three_lines")
    w = three_lines_w(dim=1)
    v = j0_star(g, w)
    spq, classes = specialize(v, (1,))
    assert classes == spq.graph.vertices
    merged = next(ck for ck in classes if (2,) in ck)
    assert set(merged) == {(2,), (3,)}
    assert spq.dim(merged) == v.dim((2,)) + v.dim((3,))
    down = spq.map(merged, ((),))
    assert down.col(0) == (v.map((2,), ())[0, 0], v.map((3,), ())[0, 0])
    assert check_quiver(spq) == []


def test_specialize_requires_central():
    g = graph("parallel")
    v = Quiver(g, {k: 1 for k in g.vertices}, {})
    with pytest.raises(UnsupportedError):
        specialize(v, (1,))


def test_spec_nonres_ops_single_hyperplane():
    g = graph("single")
    a, b = Fraction(2), Fraction(7)
    v = Quiver(g, {(): 1, (1,): 1},
               {((1,), ()): M([[a]]), ((), (1,)): M([[b]])})
    ops = spec_nonres_ops(v, (1,))
    assert ops[()] == M([[b * a]])
    assert ops[(1,)] == M([[a * b]])


def test_spec_nonres_ops_zero_quiver():
    g = graph("three_lines")
    v = Quiver(g, {k: 2 for k in g.vertices}, {})
    ops = spec_nonres_ops(v, (1,))
    assert all(m.is_zero() for m in ops.values())


def test_spec_nonres_ops_at_top_matches_brute_force():
    # at the open stratum the condition keeps exactly the deeper neighbors
    g = graph("three_lines")
    w = three_lines_w(dim=1)
    v = j0_star(g, w)
    ops = spec_nonres_ops(v, ())
    for b in g.vertices:
        expect = Matrix.zero(v.dim(b), v.dim(b))
        for c in list(g.up(b)) + list(g.down(b)):
            if g.leq(c, b):
                expect = expect + v.map(b, c) * v.map(c, b)
        assert ops[b] == expect


# -- Fourier duality ---------------------------------------------------------------------

def test_fourier_single_hyperplane_signs():
    g = graph("single")
    v = Quiver(g, {(): 1, (1,): 1},
               {((1,), ()): M([[2]]), ((), (1,)): M([[3]])})
    f = fourier_dual(v)
    assert f.map((1,), ()) == M([[2]])      # downward kept
    assert f.map((), (1,)) == M([[-3]])     # upward negated
    assert check_quiver(f) == []


def test_fourier_involution_and_validity():
    g = graph("three_lines")
    w = three_lines_w(dim=2, seed=18)
    v = j0_star(g, w)
    f = fourier_dual(v)
    assert check_quiver(f) == []
    assert fourier_dual(f) == v


def test_fourier_requires_central():
    g = graph("parallel")
    v = Quiver(g, {k: 1 for k in g.vertices}, {})
    with pytest.raises(UnsupportedError):
        fourier_dual(v)


def random_full_quiver(g, rng):
    """Spaces of dimension 0 to 2 and a random map on every oriented edge,
    relations not imposed."""
    spaces = {k: rng.randint(0, 2) for k in g.vertices}
    maps = {}
    for e in g.edges:
        a, b = tuple(e)
        for x, y in ((a, b), (b, a)):
            entries = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(spaces[x] * spaces[y])]
            maps[(x, y)] = Matrix(spaces[x], spaces[y], entries)
    return Quiver(g, spaces, maps)


@pytest.mark.parametrize("name", corpus.CENTRAL)
def test_spec_nonres_ops_is_the_sum_of_its_round_trips(name):
    """At every base vertex, each operator is the sum, term by term, of
    A_{b,c} A_{c,b} over the neighbors c with a ^ c = b ^ c."""
    g = graph(name)
    rng = random.Random(name)
    for v in (random_full_quiver(g, rng), random_full_quiver(g, rng)):
        for a in g.vertices:
            ops = spec_nonres_ops(v, a)
            assert list(ops) == list(g.vertices)
            for b in g.vertices:
                expect = Matrix.zero(v.dim(b), v.dim(b))
                for c in list(g.up(b)) + list(g.down(b)):
                    if g.wedge_key(a, c) == g.wedge_key(b, c):
                        expect = expect + v.map(b, c) * v.map(c, b)
                assert ops[b] == expect


def test_spec_nonres_report_flags_integer_eigenvalues():
    from quiverarr.functors import spec_nonres_report
    g = graph("single")
    v = Quiver(g, {(): 1, (1,): 1},
               {((1,), ()): M([[2]]), ((), (1,)): M([[1]])})
    rep = spec_nonres_report(v, (1,))
    by_vertex = {r["vertex"]: r for r in rep}
    assert by_vertex[()]["nonzero_integer_eigenvalues"] == [2]
    assert by_vertex[(1,)]["nonzero_integer_eigenvalues"] == [2]


def test_nonresonant_spectrum_quiver_has_clean_monodromy_report():
    from quiverarr.quiver import check_nonresonance_class
    g = graph("three_lines")
    w = scalar_family_level0(
        g, {1: Fraction(1, 100), 2: Fraction(1, 100), 3: Fraction(2, 100)})
    for v in (j0_shriek(g, w), j0_star(g, w)):
        rep = check_nonresonance_class(v)
        assert all(not r["tbar_has_positive_integer_eigenvalue"] for r in rep)
        assert all(r["t_nonresonant"] == "verified" for r in rep)


def test_push_steps_reject_a_boundary_that_breaks_relations():
    # A_{(),(1)} changed on a valid level-1 quiver: the downward images at
    # the centre leave the * subspace, and the upward maps do not vanish
    # on the ! relations
    v = push_star(three_lines_w(), 1)
    m = v.map((), (1,))
    maps = dict(v.maps)
    maps[((), (1,))] = m + Matrix.identity(1)
    u = LevelQuiver(v.graph, dict(v.spaces), maps, dict(v.loop_ops))
    with pytest.raises(InternalInconsistencyError,
                       match=r"^downward image misses the subspace at \(1, 2, 3\)$"):
        push_star_step(u)
    with pytest.raises(InternalInconsistencyError,
                       match=r"^upward map not defined on the quotient at \(1, 2, 3\)$"):
        push_shriek_step(u)


# -- cutoff candidates ------------------------------------------------------------

def scanned_cutoff_candidates(g, flag, a):
    """Reference: every generator flag of `a` whose members each contain
    the next member of `flag`."""
    m = len(flag) - 1
    return [cand for cand in flag_space(g, a).generators
            if all(g.adjacent(cand[k], flag[k + 1]) for k in range(m))]


def assert_cutoff_walk_is_the_scan(g):
    for b in g.vertices:
        for f in flag_space(g, b).generators:
            for a in g.up(b):
                walked = _cutoff_candidates(g, f, a)
                assert len(set(walked)) == len(walked)
                assert set(walked) == set(scanned_cutoff_candidates(g, f, a))


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_cutoff_candidates_walk_is_the_scan_on_the_corpus(name):
    assert_cutoff_walk_is_the_scan(graph(name))


@settings(max_examples=40, deadline=None)
@given(random_arrangements())
def test_cutoff_candidates_walk_is_the_scan_on_random_arrangements(arr):
    assert_cutoff_walk_is_the_scan(build_graph(arr))


# -- skeletons against the scans over every hyperplane ------------------------------

def signed(sign, coords):
    return coords if sign > 0 else tuple((i, -c) for i, c in coords)


def scanned_s0_terms(g):
    """Reference for the components of `s0`: per vertex and basis flag f,
    every tuple of product(*f[1:]) expanded in the OS space, the zero
    classes dropped, the word being the tuple itself."""
    out = {}
    for a in g.vertices:
        osd = os_space(g, g.level[a])
        entries = []
        for f in flag_space(g, a).basis:
            terms = []
            for tup in product(*f[1:]):
                vk, sign, coords = osd.expand(tup)
                if vk == a and coords:
                    terms.append((tup, signed(sign, coords)))
            entries.append(terms)
        out[a] = entries
    return out


def cutoff_sum_condition(g, flag, cut, k, jk):
    """Reference: hyperplane j, given as its vertex key jk = (j,),
    contributes when j ^ flag[k] = flag[k+1] and j ^ cut[t] = flag[t+1]
    for t = k+1 .. m-1."""
    m = len(flag) - 1
    if g.wedge_key(jk, flag[k]) != flag[k + 1]:
        return False
    for t in range(k + 1, m):
        if g.wedge_key(jk, cut[t]) != flag[t + 1]:
            return False
    return True


def scanned_upward_shriek_terms(g):
    """Reference for the upward terms of `_shriek_structure`: every
    hyperplane tested against every candidate cutoff, the terms of all
    candidates concatenated, each term keyed by its hyperplane j."""
    up = {}
    for b in g.vertices:
        m = g.level[b]
        for a in g.up(b):
            coords = flag_space(g, a).coords
            entries = []
            for f in flag_space(g, b).basis:
                terms = []
                for cut in _cutoff_candidates(g, f, a):
                    agree = 0
                    while agree < m and f[agree] == cut[agree]:
                        agree += 1
                    k = agree - 1
                    terms += [(j, signed((-1) ** k, coords(cut)))
                              for j in range(1, g.arrangement.size + 1)
                              if cutoff_sum_condition(g, f, cut, k, (j,))]
                entries.append(terms)
            up[(a, b)] = entries
    return up


def assert_skeletons_are_the_scans(g):
    terms = _shriek_structure(g)[0]
    up = scanned_upward_shriek_terms(g)
    assert {e: terms[e] for e in up} == up


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_skeletons_are_the_scans_on_the_corpus(name):
    assert_skeletons_are_the_scans(graph(name))


@settings(max_examples=60, deadline=None)
@given(random_arrangements())
def test_skeletons_are_the_scans_on_random_arrangements(arr):
    assert_skeletons_are_the_scans(build_graph(arr))


def rank2_level0(g, seed):
    """A valid rank-2 level-zero quiver on g.  When every hyperplane
    passes through the one stratum of level 2 (a pencil), the only
    relation asks each loop to commute with the sum of all of them: here
    random loops whose sum is a scalar, so they do not commute.  Else
    a_j M for one random M."""
    n = g.arrangement.size
    if n > 2 and g.levels(2) == [tuple(range(1, n + 1))]:
        rng = random.Random(seed)
        ops = {j: Matrix(2, 2, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(4)]) for j in range(1, n)}
        rest = Matrix.identity(2).scale(Fraction(1, 3))
        for m in ops.values():
            rest = rest - m
        ops[n] = rest
        return level_zero_quiver(g, 2, ops)
    values = {j: Fraction(2 * j - 5, 7) for j in range(1, n + 1)}
    return scalar_family_level0(g, values, dim=2, seed=seed)


def assert_s0_is_the_tuple_enumeration(g, w):
    """Every component of s0 is the scanned tuple enumeration assembled
    by the Fraction column loop, word(t) = A_{t_m} ... A_{t_1}."""
    top = g.top()
    dw = w.dim(top)

    def word(tup):
        m = Matrix.identity(dw)
        for j in tup:
            m = w.loop(top, (j,)) * m
        return m

    s = s0(g, w)
    terms = scanned_s0_terms(g)
    for a in g.vertices:
        rows = os_space(g, g.level[a]).spaces[a].dim
        assert s.component(a) == column_loop_tensor_map(terms[a], rows, dw, word)


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_s0_is_the_tuple_enumeration_on_the_corpus(name):
    g = graph(name)
    n = g.arrangement.size
    assert_s0_is_the_tuple_enumeration(
        g, scalar_family_level0(g, {j: Fraction(j, 17) for j in range(1, n + 1)}))
    for seed in (3, 8):
        w = rank2_level0(g, seed)
        if name == "three_lines":
            ops = [w.loop(g.top(), (j,)) for j in (1, 2)]
            assert ops[0] * ops[1] != ops[1] * ops[0]
        assert_s0_is_the_tuple_enumeration(g, w)


@settings(max_examples=40, deadline=None)
@given(central_arrangements(), st.integers(0, 2 ** 16))
def test_s0_is_the_tuple_enumeration_on_random_central_arrangements(arr, seed):
    g = build_graph(arr)
    n = g.arrangement.size
    rng = random.Random(seed)
    values = {j: Fraction(rng.randint(-9, 9), 97) for j in range(1, n + 1)}
    assert_s0_is_the_tuple_enumeration(g, scalar_family_level0(g, values))
    assert_s0_is_the_tuple_enumeration(g, rank2_level0(g, seed))


# -- one vertex-space layout ------------------------------------------------------

@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_os_flag_and_c_plus_share_one_layout(name):
    """Per degree p, the OS degree, the flag degree and C+ of the *
    direct image list the same vertices in the same order; C+ puts each
    vertex's block at its OS offset times dim W, and its differential
    holds every map A_{b2,b} at those offsets."""
    g = graph(name)
    values = {j: Fraction(j, 7) for j in range(1, g.arrangement.size + 1)}
    for dim, seed in ((1, None), (2, 5)):
        q = j0_star(g, scalar_family_level0(g, values, dim=dim, seed=seed))
        c = c_plus(q)
        blocks = _level_blocks(q)
        layout = [block_offsets(keys, q.dim) for keys in blocks]
        for p, (offsets, total) in enumerate(layout):
            osd = os_space(g, p)
            assert osd.vertex_keys == flag_degree(g, p).vertex_keys == blocks[p]
            assert offsets == {k: o * dim for k, o in osd.offsets.items()}
            assert total == osd.dim * dim == c.dims[p]
        for p, d in enumerate(c.differentials):
            src, tgt = layout[p][0], layout[p + 1][0]
            for b in blocks[p]:
                for b2 in g.down(b):
                    rows = range(tgt[b2], tgt[b2] + q.dim(b2))
                    assert d.submatrix(rows, range(src[b], src[b] + q.dim(b))) == q.map(b2, b)


def test_only_per_graph_writes_the_graph_memo():
    """The graph's memo is made by the graph and written only by the
    `per_graph` decorator: no function of any other module reads or
    writes it."""
    import ast
    from pathlib import Path

    import quiverarr
    users = set()
    for path in Path(quiverarr.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Attribute) and n.attr == "memo" for n in ast.walk(fn)):
                users.add((path.name, fn.name))
    assert users == {("arrangement.py", "__init__"), ("arrangement.py", "per_graph"),
                     ("arrangement.py", "memoized")}


# -- one column assembler ---------------------------------------------------------

def test_s0_checks_its_quiver_once(monkeypatch):
    """s0 and the two images it builds read one check of w, kept on w:
    a second s0 of the same quiver checks nothing."""
    import quiverarr.quiver as quiver
    calls = []
    real = quiver.check_quiver
    monkeypatch.setattr(quiver, "check_quiver", lambda v: calls.append(v) or real(v))
    g = graph("c13")
    w = scalar_family_level0(g, {j: Fraction(j, 17) for j in range(1, g.arrangement.size + 1)})
    s0(g, w)
    assert calls == [w]
    s0(g, w)
    assert calls == [w]


def test_direct_images_follow_the_quiver():
    """The graph keeps nothing of a local system beyond its rank: another
    quiver on the same graph gets its own images, equal to a fresh
    graph's, and an invalid one is still refused."""
    from quiverarr.errors import InvalidQuiverError
    g = graph("three_lines")
    w1, w2 = three_lines_w(dim=2, seed=3), three_lines_w(dim=2, seed=8)
    first = s0(g, w1)
    second = s0(g, w2)
    assert first.source != second.source and first.target != second.target
    fresh = graph("three_lines")
    assert second.components == s0(fresh, w2).components
    assert j0_star(g, w1) == j0_star(fresh, w1)
    bad = level_zero_quiver(g, 2, {1: M([[0, 1], [0, 0]]), 2: M([[0, 0], [1, 0]])})
    with pytest.raises(InvalidQuiverError, match="level-zero relations fail"):
        j0_shriek(g, bad)


def test_word_free_maps_are_shared_per_graph_and_dimension(monkeypatch):
    """The skeletons mark their identity edges, whose terms all read
    ops[0] (the upward maps of j0_star, the downward maps of j0_shriek),
    and only those: two level-zero quivers of one dimension on one graph
    share those maps as objects, the second assembles none of them, and
    every map equals a fresh graph's."""
    import quiverarr.functors as functors
    g = graph("c13")
    values = {j: Fraction(j, 17) for j in range(1, g.arrangement.size + 1)}
    w1, w2 = (scalar_family_level0(g, values, dim=2, seed=s) for s in (3, 8))
    assembled = []
    real = functors._tensor_map
    monkeypatch.setattr(functors, "_tensor_map",
                        lambda entries, *args: assembled.append(entries) or real(entries, *args))
    for image, skeleton in ((j0_star, functors._star_structure),
                            (j0_shriek, functors._shriek_structure)):
        terms, _, free = skeleton(g)
        assert free and free < set(terms)
        assert all(k == 0 for e in free for ts in terms[e] for k, _ in ts)
        assert any(k != 0 for e in set(terms) - free for ts in terms[e] for k, _ in ts)
        first = image(g, w1)
        assembled.clear()
        second = image(g, w2)
        assert len(assembled) == len(terms) - len(free)
        assert not any(entries is terms[e] for entries in assembled for e in free)
        assert any(e in first.maps for e in free)
        assert all(second.maps[e] is first.maps[e] for e in free if e in first.maps)
        assert second != first
        fresh = graph("c13")
        assert second == image(fresh, w2) and first == image(fresh, w1)


def test_only_tensor_map_assembles_columns():
    """Every direct-image matrix is assembled in `functors._tensor_map`:
    no function of `functors` or `equivariant` fills columns
    (`_t_acc_cols`, `from_cols`) or reads the integer forms of the words
    (`_common_ints`) outside it, and the images, the per-graph identity
    edge and prefix maps (`_unit_maps`) and the group actions, its only
    callers, build no matrix of their own."""
    import ast
    import inspect

    from quiverarr import equivariant, functors
    calls = {}
    for mod in (functors, equivariant):
        for fn in ast.walk(ast.parse(inspect.getsource(mod))):
            if isinstance(fn, ast.FunctionDef):
                for n in ast.walk(fn):
                    if isinstance(n, ast.Call):
                        name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                        calls.setdefault(name, set()).add(fn.name)
    assert "_t_acc_cols" not in calls and "from_cols" not in calls
    assert calls["_common_ints"] == {"_tensor_map"}
    builders = calls["_tensor_map"]
    assert builders == {"_direct_image", "_unit_maps", "chain_automorphisms"}
    assert not any(builders & calls.get(name, set())
                   for name in ("Matrix", "_raw", "from_rows", "from_cols", "zero", "identity"))


def column_loop_tensor_map(entries, rows, dw, word):
    """Reference: the Fraction column loop that assembled the direct
    images before the integer assembly, one column per source basis
    element and W coordinate."""
    cols = [[Fraction(0)] * (rows * dw) for _ in range(len(entries) * dw)]
    for si, terms in enumerate(entries):
        for key, coords in terms:
            wmat = word(key)
            if dw == 1:
                w = wmat.entries[0]
                if w:
                    col = cols[si]
                    for ti, c in coords:
                        col[ti] += c * w
                continue
            for sk in range(dw):
                col = cols[si * dw + sk]
                wcol = [(tk, x) for tk, x in enumerate(wmat.col(sk)) if x]
                for ti, c in coords:
                    for tk, x in wcol:
                        col[ti * dw + tk] += c * x
    return Matrix.from_cols(cols, rows * dw)


fractions_over_2_3_4 = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4]))


@st.composite
def tensor_map_inputs(draw):
    """(entries, rows, ops): per source basis element a list of (k,
    sparse coordinates) terms, k indexing the tuple ops of three dw x dw
    operators, coordinates and operator entries drawn over the
    denominators 1 to 4."""
    rows = draw(st.integers(0, 4))
    dw = draw(st.integers(1, 3))
    ops = tuple(Matrix(dw, dw, draw(st.lists(fractions_over_2_3_4, min_size=dw * dw,
                                              max_size=dw * dw)))
                for _ in range(3))
    coords = st.lists(st.tuples(st.integers(0, rows - 1), fractions_over_2_3_4),
                      max_size=3).map(tuple) if rows else st.just(())
    term = st.tuples(st.integers(0, len(ops) - 1), coords)
    entries = draw(st.lists(st.lists(term, max_size=3), max_size=4))
    return entries, rows, ops


@settings(max_examples=300, deadline=None)
@given(tensor_map_inputs())
@example(([[(0, ((0, Fraction(1, 2)),))]], 1, (M([[Fraction(1, 2)]]),)))
@example(([[(0, ((0, Fraction(1, 2)), (1, Fraction(2, 3))))], []], 2,
          (M([[Fraction(1, 2), 0], [Fraction(3, 4), Fraction(-1, 3)]]),)))
def test_tensor_map_matches_the_column_loop(args):
    """The integer assembly over one denominator gives the column loop's
    matrix, every entry a Fraction, also where both a coordinate and an
    operator entry are non-integral (1/2 x 1/2 needs the denominator 4)."""
    from quiverarr.functors import _tensor_map
    entries, rows, ops = args
    got = _tensor_map(entries, rows, ops)
    assert got == column_loop_tensor_map(entries, rows, ops[0].rows, ops.__getitem__)
    assert all(type(x) is Fraction for x in got.entries)


def per_edge_macpherson(s, incl):
    """Reference: the maps of the MacPherson image solved edge by edge,
    and the projection solved vertex by vertex, against the inclusions."""
    from quiverarr.linalg import solve_matrix
    maps = {e: solve_matrix(incl[e[0]], m * incl[e[1]]) for e, m in s.target.maps.items()}
    proj = {a: solve_matrix(incl[a], s.component(a)) for a in s.source.graph.vertices}
    return {e: x for e, x in maps.items() if not x.is_zero()}, proj


def macpherson_inputs(g):
    """Level-zero quivers on g: rank 1 generic and zero, rank 2 from three
    random matrices and from a nilpotent one."""
    n = g.arrangement.size
    generic = {j: Fraction(j, 17) for j in range(1, n + 1)}
    yield scalar_family_level0(g, generic)
    yield scalar_family_level0(g, {j: Fraction(0) for j in range(1, n + 1)})
    for seed in (1, 2, 3):
        yield scalar_family_level0(g, generic, dim=2, seed=seed)
    yield level_zero_quiver(g, 2, {j: M([[0, j], [0, 0]]) for j in range(1, n + 1)})


def whole_vertices(s):
    """The vertices where the Shapovalov morphism s is onto."""
    return {a for a in s.source.graph.vertices if rank(s.component(a)) == s.target.dim(a)}


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_macpherson_is_the_per_edge_solve(name, monkeypatch):
    """One solve per vertex where S_0 is not onto gives the maps and the
    projection that one solve per star edge and per projection give, in
    the same order.  A vertex where S_0 is onto makes no solve: the maps
    into it are the * maps after the inclusion at their source, the *
    maps themselves where S_0 is onto there too, and its projection is
    the S_0 component."""
    import quiverarr.functors as functors
    g = graph(name)
    for w in macpherson_inputs(g):
        calls = []
        real = functors.solve_matrix
        monkeypatch.setattr(functors, "solve_matrix",
                            lambda m, rhs: calls.append(m) or real(m, rhs))
        mac = macpherson(g, w)
        monkeypatch.setattr(functors, "solve_matrix", real)
        s = s0(g, w)
        whole = whole_vertices(s)
        assert len(calls) == len(g.vertices) - len(whole)
        incl = {a: mac.inclusion.component(a) for a in g.vertices}
        maps, proj = per_edge_macpherson(s, incl)
        assert list(mac.quiver.maps.items()) == list(maps.items())
        assert mac.projection.components == proj
        for a in whole:
            assert incl[a] == Matrix.identity(s.target.dim(a))
            assert mac.projection.component(a) == s.component(a)
            for (t, b), m in s.target.maps.items():
                if t == a:
                    assert mac.quiver.map(a, b) == m * incl[b]
                    if b in whole:
                        assert mac.quiver.map(a, b) == m


def assert_macpherson_is_the_star_image(g, w):
    """Every S_0 component onto, the MacPherson quiver the * image, each
    inclusion component the identity and the projection S_0."""
    s = s0(g, w)
    assert whole_vertices(s) == set(g.vertices)
    mac = macpherson(g, w)
    assert mac.quiver == j0_star(g, w)
    for a in g.vertices:
        assert mac.inclusion.component(a) == Matrix.identity(s.target.dim(a))
    assert mac.projection.components == s.components


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_macpherson_is_the_star_image_without_zero_stratum_sums(name):
    """Schechtman-Varchenko determinant formula, rank 1: where no stratum
    above the open one has exponent sum zero, S_0 is invertible at every
    vertex, so the MacPherson extension is the * image itself."""
    g = graph(name)
    n = g.arrangement.size
    w = scalar_family_level0(g, {j: Fraction(j, 17) for j in range(1, n + 1)})
    assert_macpherson_is_the_star_image(g, w)


@settings(max_examples=40, deadline=None)
@given(central_arrangements(), st.integers(0, 2 ** 16))
def test_macpherson_is_the_star_image_on_random_central_arrangements(arr, seed):
    """The determinant formula's case above, on random central
    arrangements, with exponents of either sign drawn until no stratum
    above the open one sums to zero."""
    g = build_graph(arr)
    n = g.arrangement.size
    rng = random.Random(seed)
    while True:
        values = {j: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), 97)
                  for j in range(1, n + 1)}
        if all(sum(values[j] for j in a) for a in g.vertices if a):
            break
    assert_macpherson_is_the_star_image(g, scalar_family_level0(g, values))


def test_macpherson_refuses_a_star_map_leaving_the_image(monkeypatch):
    """A star map carrying the image at its source outside the image at
    its target is an internal inconsistency (exit 4)."""
    import quiverarr.functors as functors
    g = graph("three_lines")
    w = level_zero_quiver(g, 2, {})
    real = functors.s0
    top = g.top()
    a = next(k for k in g.vertices if g.level[k] == 1)

    def corrupt_s0(graph_, w_):
        s = real(graph_, w_)
        star = s.target
        star.maps[(a, top)] = Matrix(star.dim(a), star.dim(top),
                                     [1] * (star.dim(a) * star.dim(top)))
        return s

    assert a not in whole_vertices(real(g, w))
    monkeypatch.setattr(functors, "s0", corrupt_s0)
    with pytest.raises(InternalInconsistencyError, match="image not preserved"):
        macpherson(g, w)


def test_macpherson_builds_its_morphisms_when_read(monkeypatch):
    """One QuiverMorphism, the checked s0, per macpherson call; the
    inclusion and the projection are built and checked on first read
    only, once each."""
    import quiverarr.quiver as quiver_module
    g = graph("three_lines")
    built = []
    real = quiver_module.QuiverMorphism.__init__

    def counted(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(quiver_module.QuiverMorphism, "__init__", counted)
    for w in macpherson_inputs(g):
        del built[:]
        mac = macpherson(g, w)
        assert len(built) == 1
        assert mac.quiver.total_dim() >= 0 and mac.witness is not None
        assert len(built) == 1
        assert mac.inclusion is mac.inclusion
        assert len(built) == 2
        assert mac.projection is mac.projection
        assert len(built) == 3


@pytest.mark.parametrize("which", ["inclusion", "projection"])
def test_macpherson_morphisms_are_checked_when_read(which, monkeypatch):
    """A wrong inclusion or projection component is refused when the
    morphism is first read."""
    from quiverarr.errors import InvalidQuiverError
    g = graph("three_lines")
    mac = macpherson(g, three_lines_w())
    comps = mac._incl if which == "inclusion" else mac._proj
    top = g.top()
    monkeypatch.setitem(comps, top, comps[top].scale(2))
    with pytest.raises(InvalidQuiverError, match="not a morphism"):
        getattr(mac, which)


def per_term_shapovalov_form(g, w, flag1, flag2):
    """Reference: the form summed term by term, each word multiplied out
    on its own."""
    from itertools import permutations

    from quiverarr.linalg import sort_with_sign
    top = g.top()
    dw = w.dim(top)
    m = len(flag1) - 1
    ids1, ids2 = flag1[1:], flag2[1:]
    total = Matrix.zero(dw, dw)
    for sigma in permutations(range(m)):
        sign = sort_with_sign(sigma)[1]
        for tup in product(*ids1):
            if all(tup[sigma[k]] in ids2[k] for k in range(m)):
                word = Matrix.identity(dw)
                for j in tup:
                    word = w.loop(top, (j,)) * word
                total = total + word.scale(sign)
    return total


@pytest.mark.parametrize("name", ["three_lines", "boolean3", "c13"])
def test_shapovalov_form_is_the_per_term_sum(name):
    g = graph(name)
    w = scalar_family_level0(g, {j: Fraction(2 * j - 5, 7) for j in range(1, g.arrangement.size + 1)},
                             dim=2, seed=5)
    form = shapovalov_form(g, w)
    for a in g.vertices:
        flags = flag_space(g, a).generators
        for f1 in flags:
            for f2 in flags:
                assert form(f1, f2) == per_term_shapovalov_form(g, w, f1, f2)


def test_boundary_op_rows_are_canonical():
    """`_boundary_op` writes each row of -(down up) with the loop's row
    in its diagonal block straight as a canonical row: the same as the
    Fraction assembly, over the loops' and the paths' denominators."""
    from types import SimpleNamespace

    from quiverarr.functors import _Boundary, _boundary, _boundary_op
    from quiverarr.linalg import _cleared

    def check(v, beta, bd):
        want = [[-x for x in r] for r in (bd.down * bd.up).row_list()]
        for a in bd.ups:
            o, loop = bd.offsets[a], v.loop(a, beta)
            for i, r in enumerate(loop.row_list()):
                want[o + i][o:o + loop.cols] = r
        got = _boundary_op(v, beta, bd)
        assert got._form == [_cleared(enumerate(r)) for r in want]
        assert got.row_list() == want

    g = graph("three_lines")
    for v in (three_lines_w(dim=2, seed=3), push_star_step(three_lines_w(dim=2, seed=5))[0]):
        for beta in g.levels(v.level + 1):
            check(v, beta, _boundary(v, beta))
    # a path row (1/2, 1) whose diagonal entry gives way to the loop 2:
    # (2, -1) only after dividing the numerators (4, -2) over 2 by 2
    bd = _Boundary(["a", "b"], {"a": 0, "b": 1}, 2, M([[1, 2]]), M([[Fraction(1, 2)], [1]]))
    check(SimpleNamespace(loop=lambda a, beta: M([[2]])), None, bd)


def test_hot_paths_never_read_fraction_entries(monkeypatch):
    """The MacPherson extension, both towers of direct images and the
    relation checker run on canonical integer rows only: on C_{1,3} at
    ranks 1 and 2 no matrix builds its Fraction entries inside them."""
    from quiverarr import linalg
    g = graph("c13")
    values = {j: Fraction(j, 13) - Fraction(1, 5) for j in range(1, g.arrangement.size + 1)}
    quivers = [level_zero_quiver(g, m.rows, {j: m.scale(a) for j, a in values.items()})
               for m in (Matrix.identity(1), M([[1, 1], [0, 1]]))]
    built = []
    real = linalg._fraction_entries
    monkeypatch.setattr(linalg, "_fraction_entries",
                        lambda form, cols: built.append(cols) or real(form, cols))
    for w in quivers:
        outputs = [macpherson(g, w).quiver, push_star(w, g.max_level),
                   push_shriek(w, g.max_level)]
        assert [check_quiver(v) for v in outputs] == [[], [], []]
    assert built == []
    assert quivers[1].loop(g.top(), (1,)).row(0) == (values[1], values[1])
    assert len(built) == 1
