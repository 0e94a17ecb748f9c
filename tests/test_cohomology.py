import gc
import weakref
from fractions import Fraction

import pytest

from quiverarr import corpus
from quiverarr.arrangement import build_graph
from quiverarr.cohomology import (
    aomoto_report, flag_report, intersection_cohomology,
    local_system_cohomology, perverse_cohomology, scalar_from_exponents,
    smallness_status, spectrum_of_level_zero,
)
from quiverarr.errors import UnsupportedError
from quiverarr.functors import j0_star, push_star, restrict
from quiverarr.linalg import Matrix, betti
from quiverarr.oscomplex import (ExponentAssignment, aomoto_complex, flag_degree,
                                 os_space)
from quiverarr.quiver import Quiver, c_minus, c_plus, level_zero_quiver


def graph(name):
    return build_graph(corpus.CORPUS[name]())


def exponents(g, vals, kappa=None):
    return ExponentAssignment({j + 1: v for j, v in enumerate(vals)}, kappa)


def M(rows):
    return Matrix.from_rows(rows)


def test_scalar_from_exponents_three_lines():
    g = graph("three_lines")
    a = exponents(g, [Fraction(1, 100), Fraction(1, 100), Fraction(2, 100)])
    w = scalar_from_exponents(g, a)
    for j, v in ((1, Fraction(1, 100)), (2, Fraction(1, 100)), (3, Fraction(2, 100))):
        assert w.loop((), (j,)) == M([[v]])
    w2 = scalar_from_exponents(g, ExponentAssignment.zero(g.arrangement), dim=2)
    assert all(m.is_zero() for m in w2.loop_ops.values()) or not w2.loop_ops


def test_scalar_from_exponents_discriminantal_table():
    # sl2 with m = 1, two marked points: a(H_i) = -1/kappa, a(H_12) = 2/kappa
    g = graph("three_lines")
    a = ExponentAssignment({1: -1, 2: -1, 3: 2}, kappa=100)
    w = scalar_from_exponents(g, a)
    assert w.loop((), (1,)) == M([[Fraction(-1, 100)]])
    assert w.loop((), (3,)) == M([[Fraction(2, 100)]])


def test_perverse_single_hyperplane_small_scalar():
    g = graph("single")
    a = Fraction(1, 50)
    v = Quiver(g, {(): 1, (1,): 1},
               {((1,), ()): M([[a]]), ((), (1,)): M([[1]])})
    rep = perverse_cohomology(v)
    assert rep.betti == {-1: 0, 0: 0}
    assert dict(rep.hypotheses)["central arrangement"] == "verified"


def test_perverse_single_hyperplane_zero_map():
    g = graph("single")
    v = Quiver(g, {(): 1, (1,): 1}, {})
    rep = perverse_cohomology(v)
    assert rep.betti == {-1: 1, 0: 1}
    assert rep.euler == 0


def test_euler_characteristics_are_ints():
    # the degrees of a perverse report and of C- are negative, where
    # (-1) ** k is a float
    g = graph("three_lines")
    w = scalar_from_exponents(g, exponents(g, [Fraction(1, 3), Fraction(-1, 2),
                                               Fraction(2, 7)]))
    v = j0_star(g, w)
    assert type(perverse_cohomology(v).euler) is int
    assert type(c_minus(v).euler_characteristic()) is int


def test_perverse_degrees_follow_ambient_shift():
    g = graph("empty")   # no hyperplanes in C^2
    v = Quiver(g, {(): 1}, {})
    rep = perverse_cohomology(v)
    assert rep.betti == {-2: 1, -1: 0, 0: 0}


def test_perverse_requires_central():
    g = graph("parallel")
    v = Quiver(g, {k: 1 for k in g.vertices}, {})
    with pytest.raises(UnsupportedError):
        perverse_cohomology(v)


def test_local_system_single_hyperplane():
    g = graph("single")
    w = scalar_from_exponents(g, exponents(g, [Fraction(3, 100)]))
    rep = local_system_cohomology(g, w)
    assert rep.betti == {0: 0, 1: 0}
    assert dict(rep.hypotheses)["maps close to zero"] == "verified"
    w0 = scalar_from_exponents(g, exponents(g, [Fraction(0)]))
    rep0 = local_system_cohomology(g, w0)
    assert rep0.betti == {0: 1, 1: 1}


def test_local_system_matches_aomoto_betti():
    for name in ("boolean2", "three_lines", "c13"):
        g = graph(name)
        vals = [Fraction(2 * j + 1, 211) for j in range(g.arrangement.size)]
        a = exponents(g, vals)
        w = scalar_from_exponents(g, a)
        rep = local_system_cohomology(g, w)
        am = betti(aomoto_complex(g, a))
        for k, v in rep.betti.items():
            assert v == (am[k] if k < len(am) else 0)


def test_constant_coefficients_give_os_dims():
    for name in ("boolean2", "three_lines", "c13"):
        g = graph(name)
        w = scalar_from_exponents(g, ExponentAssignment.zero(g.arrangement))
        rep = local_system_cohomology(g, w)
        for k in rep.betti:
            assert rep.betti[k] == os_space(g, k).dim


def test_intersection_single_hyperplane():
    g = graph("single")
    w0 = scalar_from_exponents(g, exponents(g, [Fraction(0)]))
    rep0 = intersection_cohomology(g, w0)
    assert rep0.betti == {0: 1, 1: 0}
    wa = scalar_from_exponents(g, exponents(g, [Fraction(3, 100)]))
    rep = intersection_cohomology(g, wa)
    assert rep.betti == {0: 0, 1: 0}


def test_intersection_dims_bounded_by_star_dims():
    g = graph("three_lines")
    w = scalar_from_exponents(g, exponents(g, [Fraction(1, 30), 0, 0]))
    from quiverarr.functors import macpherson
    mac = macpherson(g, w)
    star = j0_star(g, w)
    for k in g.vertices:
        assert mac.quiver.dim(k) <= star.dim(k)


def test_euler_characteristic_of_star_image():
    g = graph("three_lines")
    for dim in (1, 2):
        w = level_zero_quiver(g, dim, {})
        c = c_plus(j0_star(g, w))
        expect = sum((-1) ** p * os_space(g, p).dim * dim
                     for p in range(g.max_level + 1))
        assert c.euler_characteristic() == expect


def test_smallness_status_spectrum_detection():
    g = graph("three_lines")
    w = scalar_from_exponents(g, exponents(g, [Fraction(1, 10)] * 3))
    assert smallness_status(g, w) == "verified"
    big = scalar_from_exponents(g, exponents(g, [Fraction(2)] * 3))
    assert smallness_status(g, big) == "undetermined"
    s = spectrum_of_level_zero(g, w)
    assert s.of(1) == Fraction(1, 10)
    # non-split loop operator: no spectrum
    w2 = level_zero_quiver(g, 2, {1: M([[0, 1], [-1, 0]])})
    assert spectrum_of_level_zero(g, w2) is None


def test_report_json_shape():
    g = graph("single")
    w = scalar_from_exponents(g, exponents(g, [Fraction(3, 100)]))
    blob = intersection_cohomology(g, w).to_json()
    assert blob["model"] == "intersection"
    assert blob["betti"] == {"0": 0, "1": 0}
    assert blob["euler"] == 0
    assert {h["name"] for h in blob["hypotheses"]} == \
        {"central arrangement", "maps close to zero"}


def test_aomoto_and_flag_reports():
    g = graph("three_lines")
    a = exponents(g, [0, 0, 0])
    rep = aomoto_report(g, a)
    assert rep.betti == {0: 1, 1: 3, 2: 2}
    fr = flag_report(g)
    assert fr.model == "flag"
    assert sum(fr.betti.values()) >= 0


@pytest.mark.parametrize("name", ["three_lines", "c13"])
@pytest.mark.parametrize("work", ["spaces", "j0_star", "ih", "push"])
def test_dropped_graph_is_freed_without_the_cycle_collector(name, work):
    """No reference cycle runs through a graph, its memoized spaces, a
    level-zero quiver with its cached relation check or the truncations
    of a tower pushed to the top (the graph itself there) and restricted
    back: all are freed on the last `del`, with the cyclic garbage
    collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = graph(name)
        refs = [weakref.ref(x) for x in (g, os_space(g, 1), flag_degree(g, 1))]
        if work != "spaces":
            w = scalar_from_exponents(g, exponents(
                g, [Fraction(1, 7 * j + 3) for j in range(g.arrangement.size)]))
            if work == "push":
                top = push_star(w, g.max_level)
                back = restrict(top, 0)
                assert top.graph is g and back == w
                refs += [weakref.ref(x) for x in (w.graph, top, back, back.graph)]
                del top, back
            else:
                (j0_star if work == "j0_star" else intersection_cohomology)(g, w)
                assert vars(w)["violated_relations"] == []
                refs.append(weakref.ref(w))
            del w
        del g
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()
