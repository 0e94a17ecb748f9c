import contextlib
import hashlib
import io
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from quiverarr import corpus
from quiverarr.arrangement import Hyperplane, build_graph, discriminantal
from quiverarr.cohomology import intersection_cohomology, scalar_from_exponents
from quiverarr.equivariant import (
    AffineMap, EquivariantLevelZero, build_action, chain_automorphisms,
    _hyperplane_perms, det_character, equivariant_c_plus, equivariant_cohomology,
    format_group, generator_kernels, parse_group,
)
from quiverarr.errors import NotFiniteError, ParseError, ShapeError, SymmetryError
from quiverarr.liecheck import KZInstance, kz_exponents
from quiverarr.linalg import Matrix, Q1, solve_matrix
from quiverarr.oscomplex import ExponentAssignment
from quiverarr.quiver import level_zero_quiver
from quiverarr.selftest import check_full_group


def M(rows):
    return Matrix.from_rows(rows)


def graph(name):
    return build_graph(corpus.CORPUS[name]())


def swap2():
    return AffineMap.permutation((2, 1))


def test_build_action_swap_on_boolean2():
    arr = corpus.boolean2()
    act = build_action(arr, [swap2()])
    assert act.order == 2
    assert act.perm(1, 1) == 2 and act.perm(1, 2) == 1
    assert act.mul(1, 1) == 0


def test_build_action_swap_on_c12():
    # swapping t1, t2 exchanges the coordinate hyperplanes, fixes t1 - t2
    arr = corpus.three_lines()
    act = build_action(arr, [swap2()])
    assert act.order == 2
    assert act.perm(1, 1) == 2
    assert act.perm(1, 3) == 3


def test_build_action_trivial():
    arr = corpus.three_lines()
    act = build_action(arr, [])
    assert act.order == 1


def test_build_action_rejects_non_symmetry():
    arr = corpus.parallel_lines()
    with pytest.raises(SymmetryError):
        build_action(arr, [swap2()])


def test_build_action_not_finite():
    arr = corpus.single_hyperplane()
    stretch = AffineMap(M([[2]]))
    with pytest.raises(NotFiniteError):
        build_action(arr, [stretch], bound=32)


def test_det_character_swap():
    arr = corpus.three_lines()
    act = build_action(arr, [swap2()])
    dets = det_character(act)
    assert dets[0] == 1
    assert dets[1] == -1


def test_det_character_multiplicative_on_sigma3():
    arr, _ = discriminantal([3])
    gens = [AffineMap.permutation((2, 1, 3)), AffineMap.permutation((1, 3, 2))]
    act = build_action(arr, gens)
    assert act.order == 6
    dets = det_character(act)
    for i in range(act.order):
        for j in range(act.order):
            assert dets[i] * dets[j] == dets[act.mul(i, j)]
    assert sorted(dets.values()) == [-1, -1, -1, 1, 1, 1]


def sl2_weight2_quiver():
    """C_{1,2} with the sl2 exponents for m = 1, two marked points."""
    g = graph("three_lines")
    a = ExponentAssignment({1: -1, 2: -1, 3: 2}, kappa=100)
    return g, scalar_from_exponents(g, a)


def test_equivariant_structure_validation():
    g, w = sl2_weight2_quiver()
    act = build_action(g.arrangement, [swap2()])
    EquivariantLevelZero.trivial(g, w, act)
    bad_rho = {0: Matrix.identity(1), 1: M([[-1]])}
    EquivariantLevelZero(g, w, bad_rho, act)  # sign rep also intertwines
    unbalanced = level_zero_quiver(
        g, 1, {1: M([[Fraction(1, 2)]]), 2: M([[Fraction(1, 3)]]),
               3: M([[Fraction(1, 5)]])})
    with pytest.raises(SymmetryError):
        EquivariantLevelZero.trivial(g, unbalanced, act)


def test_rho_must_be_representation():
    g, w = sl2_weight2_quiver()
    act = build_action(g.arrangement, [swap2()])
    with pytest.raises(SymmetryError):
        EquivariantLevelZero(g, w, {0: Matrix.identity(1), 1: M([[2]])}, act)


def test_equivariant_c_plus_trivial_group():
    g, w = sl2_weight2_quiver()
    act = build_action(g.arrangement, [])
    eq = EquivariantLevelZero.trivial(g, w, act)
    comp, autos = equivariant_c_plus(act, eq, "star")
    assert autos == {}          # the trivial group has no generators
    identity = chain_automorphisms(eq, "star", [0])[0]
    assert [m.rows for m in identity] == list(comp.dims)
    assert all(m == Matrix.identity(m.rows) for m in identity)


def test_equivariant_c_plus_swap_action_degree1():
    # on degree one of the * image the swap permutes (H1),(H2), fixes (H3)
    g, w = sl2_weight2_quiver()
    act = build_action(g.arrangement, [swap2()])
    eq = EquivariantLevelZero.trivial(g, w, act)
    comp, autos = equivariant_c_plus(act, eq, "star")
    assert autos[1][1] == M([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    # autos is keyed by generator index (the swap is element 1);
    # commutation with d is validated inside equivariant_c_plus, and all
    # three functors go through
    for functor in ("shriek", "macpherson"):
        equivariant_c_plus(act, eq, functor)


def test_equivariant_trivial_group_matches_plain_report():
    g, w = sl2_weight2_quiver()
    act = build_action(g.arrangement, [])
    eq = EquivariantLevelZero.trivial(g, w, act)
    rep = equivariant_cohomology(act, eq, "macpherson", twist_by_det=False)
    plain = intersection_cohomology(g, w)
    assert rep.betti == plain.betti


def test_equivariant_sl2_intersection_betti():
    # the discriminantal instance for sl2, m = 1, two points: det twist on
    g, w = sl2_weight2_quiver()
    act = build_action(g.arrangement, [swap2()])
    eq = EquivariantLevelZero.trivial(g, w, act)
    rep = equivariant_cohomology(act, eq, "macpherson", twist_by_det=True)
    assert rep.betti == {0: 0, 1: 1, 2: 0}


def test_equivariant_requires_central():
    g = graph("parallel")
    w = level_zero_quiver(g, 1, {})
    act = build_action(g.arrangement, [])
    eq = EquivariantLevelZero.trivial(g, w, act)
    with pytest.raises(Exception):
        equivariant_cohomology(act, eq, "star")


def test_grp_round_trip():
    arr = corpus.three_lines()
    act = build_action(arr, [swap2()])
    text = format_group(act)
    back = parse_group(text, arr)
    assert back.order == 2
    assert back.hyperplane_perm == act.hyperplane_perm


def test_grp_parse_errors():
    arr = corpus.three_lines()
    with pytest.raises(ParseError):
        parse_group("g\n1 0\n0 1\n", arr)          # missing translation row
    with pytest.raises(ParseError):
        parse_group("g\n0 1\n1 0\n0 0\n", arr)     # identity missing
    with pytest.raises(ParseError):
        parse_group("h\n", arr)


def test_generators_are_the_distinct_non_identity_maps():
    arr, _ = discriminantal([3])
    s12, s23 = AffineMap.permutation((2, 1, 3)), AffineMap.permutation((1, 3, 2))
    act = build_action(arr, [AffineMap.identity(3), s12, s12, s23])
    assert act.order == 6
    assert act.generators == [1, 2]
    assert [act.elements[gi].key() for gi in act.generators] == [s12.key(), s23.key()]
    # the permutations composed in the closure are the ones the maps induce
    assert act.hyperplane_perm == _hyperplane_perms(arr, act.elements)


def test_generator_kernels_of_the_swap():
    # degree 1 of the * image: the swap exchanges (H1), (H2) and fixes (H3),
    # so the invariants are 2-dimensional and the det-twisted ones 1-dimensional
    g, w = sl2_weight2_quiver()
    act = build_action(g.arrangement, [swap2()])
    eq = EquivariantLevelZero.trivial(g, w, act)
    comp, autos = equivariant_c_plus(act, eq, "star")
    trivial = generator_kernels(act, comp, autos)
    twisted = generator_kernels(act, comp, autos, twist_by_det=True)
    assert trivial[1].basis == M([[1, 1, 0], [0, 0, 1]])
    assert twisted[1].basis == M([[1, -1, 0]])
    assert [k.dim for k in trivial] == [1, 2, 1] and [k.dim for k in twisted] == [0, 1, 1]


# -- hyperplane permutations against the per-hyperplane loop -------------------------

def _fraction_loop_perm(arrangement, amap):
    """The hyperplane permutation of amap computed one hyperplane at a
    time: its normal mapped through L^-1 as Fractions, its constant
    shifted, the image looked up as a `Hyperplane`."""
    n = arrangement.ambient_dim
    linv = solve_matrix(amap.linear, Matrix.identity(n))
    where = {h: k for k, h in enumerate(arrangement.hyperplanes, start=1)}
    perm = {}
    for j, h in enumerate(arrangement.hyperplanes, start=1):
        normal = (Matrix(1, n, h.normal) * linv).row(0)
        const = h.constant - sum(x * t for x, t in zip(normal, amap.translation))
        img = where.get(Hyperplane(const, normal))
        if img is None:
            raise SymmetryError(f"map does not preserve hyperplane {j}")
        perm[j] = img
    if sorted(perm.values()) != list(range(1, arrangement.size + 1)):
        raise SymmetryError("hyperplane images are not a permutation")
    return perm


def _agrees_with_the_loop(arr, maps):
    """_hyperplane_perms and build_action give the loop's permutations,
    on every element of the closed group, or all three refuse."""
    try:
        want = [_fraction_loop_perm(arr, m) for m in maps]
    except SymmetryError:
        with pytest.raises(SymmetryError):
            _hyperplane_perms(arr, maps)
        with pytest.raises(SymmetryError):
            build_action(arr, maps)
        return False
    assert _hyperplane_perms(arr, maps) == want
    act = build_action(arr, maps)
    assert act.hyperplane_perm == [_fraction_loop_perm(arr, e) for e in act.elements]
    return True


PERMUTED = dict(corpus.CORPUS, c12=lambda: discriminantal([2])[0],
                c15=lambda: discriminantal([5])[0])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_hyperplane_perms_are_the_fraction_loop(data):
    """Signed coordinate permutations of the corpus and discriminantal
    arrangements: symmetries or not, the one-product images agree with the
    per-hyperplane loop."""
    name = data.draw(st.sampled_from(sorted(PERMUTED)))
    arr = PERMUTED[name]()
    n = arr.ambient_dim
    order = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    rows = [[0] * n for _ in range(n)]
    for i, (j, sign) in enumerate(zip(order, signs)):
        rows[j][i] = sign
    event(f"{name}: {'symmetry' if _agrees_with_the_loop(arr, [AffineMap(M(rows))]) else 'refused'}")


def test_translated_symmetries_of_generic_lines():
    """z -> (1 - z1 - z2, z2) exchanges z1 = 0 and z1 + z2 = 1 and fixes
    z2 = 0; with the swap of coordinates it generates S3.  Moved by 2
    instead of 1 it is no symmetry."""
    arr = corpus.generic_lines()
    fold = AffineMap(M([[-1, -1], [0, 1]]), (1, 0))
    assert _hyperplane_perms(arr, [fold]) == [{1: 3, 2: 2, 3: 1}]
    assert _agrees_with_the_loop(arr, [swap2(), fold])
    assert build_action(arr, [swap2(), fold]).order == 6
    assert not _agrees_with_the_loop(arr, [AffineMap(M([[-1, -1], [0, 1]]), (2, 0))])


# -- the whole group against the generators -------------------------------------------

def _kz_group(type_, highest, weights):
    arrangement, exponents, act = kz_exponents(KZInstance(type_, highest, weights))
    g = build_graph(arrangement)
    return g, scalar_from_exponents(g, exponents), act


def _swap_group(name, values):
    g = graph(name)
    w = scalar_from_exponents(g, ExponentAssignment(values, kappa=10))
    return g, w, build_action(g.arrangement, [swap2()])


GROUPS = {
    "boolean2/swap": lambda: _swap_group("boolean2", {1: -1, 2: -1}),
    "three_lines/swap": lambda: _swap_group("three_lines", {1: 1, 2: 1, 3: -2}),
    "C_{1,2}/swap": lambda: _kz_group("A1", (1,), (2,)),
    "C_{1,3}/S3": lambda: _kz_group("A1", (1,), (3,)),
    "C_{1,4}/S2xS2": lambda: _kz_group("A2", (1, 0), (2, 2)),
}
_GROUP_CACHE = {}


@pytest.mark.parametrize("twist", [False, True], ids=["trivial", "det"])
@pytest.mark.parametrize("functor", ["star", "shriek", "macpherson"])
@pytest.mark.parametrize("name", list(GROUPS))
def test_full_group_oracle(name, functor, twist):
    """Every element's chain automorphism composes as act.mul says and
    commutes with d, and the Reynolds projector's image is the generators'
    kernel K_p (quiverarr.selftest.check_full_group)."""
    if name not in _GROUP_CACHE:
        _GROUP_CACHE[name] = GROUPS[name]()
    g, w, act = _GROUP_CACHE[name]
    assert act.order == {"S3": 6, "S2xS2": 4}.get(name.split("/")[1], 2)
    check_full_group(act, EquivariantLevelZero.trivial(g, w, act), functor, twist)


def test_full_group_oracle_catches_a_wrong_kernel(monkeypatch):
    # the oracle is not vacuous: dropping a generator from K_p is caught
    import quiverarr.selftest as selftest
    g, w, act = _kz_group("A1", (1,), (3,))
    real = selftest.generator_kernels

    def first_generator_only(act, comp, autos, twist):
        return real(act, comp, dict(list(autos.items())[:1]), twist)

    monkeypatch.setattr(selftest, "generator_kernels", first_generator_only)
    with pytest.raises(AssertionError):
        check_full_group(act, EquivariantLevelZero.trivial(g, w, act), "star", True)


# -- golden reports -------------------------------------------------------------------

def _grp(*blocks):
    """A .grp file: one `g` block per element, each given as its rows."""
    return "".join("g\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
                   for rows in blocks)


def _perm_block(perm):
    """Rows of the permutation matrix sending coordinate i to perm[i], then
    the zero translation."""
    n = len(perm)
    return [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)] + [[0] * n]


SL2_EXP = "a 1 -1\na 2 -1\na 3 2\nkappa 100\n"
C13_EXP = "a 1 -1\na 2 -1\na 3 -1\na 4 2\na 5 2\na 6 2\nkappa 20\n"
SWAP = _grp(_perm_block((0, 1)), _perm_block((1, 0)))
S3_GENERATORS = _grp(*map(_perm_block, [(0, 1, 2), (1, 0, 2), (0, 2, 1)]))
S3_ELEMENTS = _grp(*map(_perm_block, [(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0),
                                      (2, 0, 1), (2, 1, 0)]))
# name -> (arrangement, exponents, group)
GOLDEN_EQUIVARIANT = {
    "boolean2-swap-zero": ("boolean2", "a 1 0\na 2 0\n", SWAP),
    "boolean2-swap-sym": ("boolean2", "a 1 1/5\na 2 1/5\n", SWAP),
    "three_lines-swap-sl2": ("three_lines", SL2_EXP, SWAP),
    "three_lines-swap-zero": ("three_lines", "a 1 0\na 2 0\na 3 0\n", SWAP),
    "three_lines-trivial": ("three_lines", SL2_EXP, _grp(_perm_block((0, 1)))),
    "c13-s3-gens": ("c13", C13_EXP, S3_GENERATORS),
    "c13-s3-all": ("c13", C13_EXP, S3_ELEMENTS),
    "c13-s3-zero-sum": ("c13", "a 1 -2\na 2 -2\na 3 -2\na 4 2\na 5 2\na 6 2\nkappa 30\n",
                        S3_GENERATORS),
    # z1 -> 1 - z1 swaps the parallel lines: not central, exit 3
    "parallel-mirror": ("parallel", "a 1 1/3\na 2 1/3\n",
                        _grp(_perm_block((0, 1)), [[-1, 0], [0, 1], [1, 0]])),
    # z2 -> 2 z2 has infinite order: the closure stops at its bound, exit 2
    # before any functor runs, so it is run once
    "three_lines-stretch": ("three_lines", "a 1 0\na 2 0\na 3 0\n",
                            _grp(_perm_block((0, 1)), [[1, 0], [0, 2], [0, 0]])),
}
RUN_ONCE = ("three_lines-stretch",)
GOLDEN_KZ = (
    ("A1", (1,), (2,)), ("A1", (2,), (3,)), ("A1", (1,), (3,)),
    ("A2", (1, 0), (1, 2)), ("A2", (1, 1), (2, 1)), ("A2", (0, 1), (1, 3)),
    ("A2", (1, 0), (2, 2)), ("B2", (0, 1), (3, 1)), ("B2", (1, 0), (1, 1)),
    ("A3", (1, 0, 0), (1, 1, 1)), ("A3", (0, 1, 0), (1, 3, 0)),
    ("A3", (1, 0, 0), (2, 1, 1)), ("A1", (3,), (4,)),
)


def golden_reports(tmp_path):
    """Exit code and stdout of `equivariant` on each golden case, with every
    functor, twisted and not, and of `kz-check` on each golden instance
    (groups of order 1 to 24)."""
    from quiverarr.arrangement import format_arrangement
    from quiverarr.cli import main

    def cli(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        return f"{code}\n{out.getvalue()}"

    reports = {}
    for name, (arr_name, exp_text, grp_text) in GOLDEN_EQUIVARIANT.items():
        paths = []
        for ext, text in (("arr", format_arrangement(corpus.CORPUS[arr_name]())),
                          ("exp", exp_text), ("grp", grp_text)):
            path = tmp_path / f"{name}.{ext}"
            path.write_text(text)
            paths.append(str(path))
        for functor in ("star", "shriek", "macpherson"):
            argv = ("equivariant", paths[0], "--exp", paths[1], "--grp", paths[2],
                    "--functor", functor)
            reports[f"equivariant/{name}/{functor}/trivial"] = cli(*argv)
            if name in RUN_ONCE:
                break
            reports[f"equivariant/{name}/{functor}/det"] = cli(*argv, "--twist-det")
    for type_, highest, weights in GOLDEN_KZ:
        reports[f"kz-check/{type_} {highest} {weights}"] = cli(
            "kz-check", "--type", type_, "--highest", *map(str, highest),
            "--weights", *map(str, weights))
    return reports


# sha256 of each report, recorded before the generator-only endpoint,
# when every element's automorphism and the Reynolds projector were built
GOLDEN_DIGESTS = {
    "equivariant/boolean2-swap-zero/star/trivial":
        "e32c4ee9af40577fe3687c809a1a574610a9656f4e60b66b9db9f47e652e0122",
    "equivariant/boolean2-swap-zero/star/det":
        "89ca87d440fdc378a7314b19cc7a0259677d894925c5679db14cef1dfe90f34b",
    "equivariant/boolean2-swap-zero/shriek/trivial":
        "9a4893e8f2d01aa05340aeb61fbeb26b1e4ca50ec96b8fd9bc75d0802e7619df",
    "equivariant/boolean2-swap-zero/shriek/det":
        "6e710f75c0ec56c5f5e4c16e5ba49290d13254d9f9e64947b6871fb8b7da3fdf",
    "equivariant/boolean2-swap-zero/macpherson/trivial":
        "b73af973290d332148d5c2a24e95204a685a872aa10ad21d1c34ab3047e4cf35",
    "equivariant/boolean2-swap-zero/macpherson/det":
        "75a94a15874a923f2202bd6718991ea2662818be4e592f5380335a106f5bb0f8",
    "equivariant/boolean2-swap-sym/star/trivial":
        "ef0af257f8c651bf6ff3e62d7e9123ac51871b0983826b2b2320b000590ca559",
    "equivariant/boolean2-swap-sym/star/det":
        "c0339650cbc85ca8f1223926454abc3255dc8e8c53254baaae244d3ea9b9b5ba",
    "equivariant/boolean2-swap-sym/shriek/trivial":
        "9a4893e8f2d01aa05340aeb61fbeb26b1e4ca50ec96b8fd9bc75d0802e7619df",
    "equivariant/boolean2-swap-sym/shriek/det":
        "6e710f75c0ec56c5f5e4c16e5ba49290d13254d9f9e64947b6871fb8b7da3fdf",
    "equivariant/boolean2-swap-sym/macpherson/trivial":
        "4e59cc507d8a954941ceb37bf0aded68f74ca2fbd111f3c8dc3b91e012285fe9",
    "equivariant/boolean2-swap-sym/macpherson/det":
        "75a94a15874a923f2202bd6718991ea2662818be4e592f5380335a106f5bb0f8",
    "equivariant/three_lines-swap-sl2/star/trivial":
        "ef0af257f8c651bf6ff3e62d7e9123ac51871b0983826b2b2320b000590ca559",
    "equivariant/three_lines-swap-sl2/star/det":
        "89ca87d440fdc378a7314b19cc7a0259677d894925c5679db14cef1dfe90f34b",
    "equivariant/three_lines-swap-sl2/shriek/trivial":
        "9a4893e8f2d01aa05340aeb61fbeb26b1e4ca50ec96b8fd9bc75d0802e7619df",
    "equivariant/three_lines-swap-sl2/shriek/det":
        "6e710f75c0ec56c5f5e4c16e5ba49290d13254d9f9e64947b6871fb8b7da3fdf",
    "equivariant/three_lines-swap-sl2/macpherson/trivial":
        "4e59cc507d8a954941ceb37bf0aded68f74ca2fbd111f3c8dc3b91e012285fe9",
    "equivariant/three_lines-swap-sl2/macpherson/det":
        "4365b463285b4c487bdda86768cde006c4f692ccda68093ee981b85a44c146f8",
    "equivariant/three_lines-swap-zero/star/trivial":
        "7b0a636ab554d2d46a48cd97871a1b883c2d7842bbfa2be174174173532b70d1",
    "equivariant/three_lines-swap-zero/star/det":
        "89ca87d440fdc378a7314b19cc7a0259677d894925c5679db14cef1dfe90f34b",
    "equivariant/three_lines-swap-zero/shriek/trivial":
        "9a4893e8f2d01aa05340aeb61fbeb26b1e4ca50ec96b8fd9bc75d0802e7619df",
    "equivariant/three_lines-swap-zero/shriek/det":
        "6e710f75c0ec56c5f5e4c16e5ba49290d13254d9f9e64947b6871fb8b7da3fdf",
    "equivariant/three_lines-swap-zero/macpherson/trivial":
        "b73af973290d332148d5c2a24e95204a685a872aa10ad21d1c34ab3047e4cf35",
    "equivariant/three_lines-swap-zero/macpherson/det":
        "75a94a15874a923f2202bd6718991ea2662818be4e592f5380335a106f5bb0f8",
    "equivariant/three_lines-trivial/star/trivial":
        "204296d447fb8076f3cc60660c71389e04fdbe8bb689ec0bb6eeb46f1fc76861",
    "equivariant/three_lines-trivial/star/det":
        "3190eed9a5726d3cf3cf1afc1cf4253c88c3090f8fe65b7dc02ea3ad2af0a95d",
    "equivariant/three_lines-trivial/shriek/trivial":
        "fe3f43b195ea86beb29d51d21466511a33f593208380514d26ebc949afa52588",
    "equivariant/three_lines-trivial/shriek/det":
        "0fb31a60f61dce647ae3cae1ba44459fc4a764d510bd7f6325d06428ef86c02e",
    "equivariant/three_lines-trivial/macpherson/trivial":
        "fe952d74842d6de494d88160d52e0a4ae2ac2f0a1d22adba699285c29a5b535d",
    "equivariant/three_lines-trivial/macpherson/det":
        "c68a4b352e2f9ae1bd86e63747e7ebd3f85edec8009b52ac0c26ad0df14792d1",
    "equivariant/c13-s3-gens/star/trivial":
        "0c7d88c1496f40f7e43bf3fca3c0763cb41eb829e323d8bc0e2e8fb595e254b2",
    "equivariant/c13-s3-gens/star/det":
        "382892114cf84d13977055283213aff2c187ef6c61334f0ce463af15008c29d0",
    "equivariant/c13-s3-gens/shriek/trivial":
        "d32ae1ccd490f75cb8477134a31e0a3c1b2a4f6a4463af478741bd82c84c45c9",
    "equivariant/c13-s3-gens/shriek/det":
        "10e67d978960703653d39c12fcaa7791ca936ee3b1518358544fdd9cd6dcc889",
    "equivariant/c13-s3-gens/macpherson/trivial":
        "1b319851a4c23d03cf1f5adbe6b6fa46d27c3eea0f45fb9493d1da872b27bb09",
    "equivariant/c13-s3-gens/macpherson/det":
        "4139b40248bf802d09a97d57eedbacda8ad0c8f640bab4759482717d7e0c99da",
    "equivariant/c13-s3-all/star/trivial":
        "0c7d88c1496f40f7e43bf3fca3c0763cb41eb829e323d8bc0e2e8fb595e254b2",
    "equivariant/c13-s3-all/star/det":
        "382892114cf84d13977055283213aff2c187ef6c61334f0ce463af15008c29d0",
    "equivariant/c13-s3-all/shriek/trivial":
        "d32ae1ccd490f75cb8477134a31e0a3c1b2a4f6a4463af478741bd82c84c45c9",
    "equivariant/c13-s3-all/shriek/det":
        "10e67d978960703653d39c12fcaa7791ca936ee3b1518358544fdd9cd6dcc889",
    "equivariant/c13-s3-all/macpherson/trivial":
        "1b319851a4c23d03cf1f5adbe6b6fa46d27c3eea0f45fb9493d1da872b27bb09",
    "equivariant/c13-s3-all/macpherson/det":
        "4139b40248bf802d09a97d57eedbacda8ad0c8f640bab4759482717d7e0c99da",
    "equivariant/c13-s3-zero-sum/star/trivial":
        "c4560457afea45a3ceb5d440df46791f07215e502ee407db7a39a1cdb76c7228",
    "equivariant/c13-s3-zero-sum/star/det":
        "526db75c11354490306fa1b7a51418a2600eead202828df5a8fedade51ad388e",
    "equivariant/c13-s3-zero-sum/shriek/trivial":
        "d32ae1ccd490f75cb8477134a31e0a3c1b2a4f6a4463af478741bd82c84c45c9",
    "equivariant/c13-s3-zero-sum/shriek/det":
        "10e67d978960703653d39c12fcaa7791ca936ee3b1518358544fdd9cd6dcc889",
    "equivariant/c13-s3-zero-sum/macpherson/trivial":
        "1e652d20f4b9e65f063ed632eb44e4b2db3f5d583aa176fd080168042c11ebb0",
    "equivariant/c13-s3-zero-sum/macpherson/det":
        "841595a6fd3fb0c8a78e9059b5c3722d2c91efb4b79e131b571e29113333a927",
    "equivariant/parallel-mirror/star/trivial":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "equivariant/parallel-mirror/star/det":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "equivariant/parallel-mirror/shriek/trivial":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "equivariant/parallel-mirror/shriek/det":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "equivariant/parallel-mirror/macpherson/trivial":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "equivariant/parallel-mirror/macpherson/det":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "equivariant/three_lines-stretch/star/trivial":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "kz-check/A1 (1,) (2,)":
        "dee2f13598186394976745487527b1cf45669066b9ce8bbf13d91e24a6c93e3e",
    "kz-check/A1 (2,) (3,)":
        "651a763da005f6ae5ae08c2d2a1e35ba2212f4b4786427234a8b4ad99fb6e39e",
    "kz-check/A1 (1,) (3,)":
        "d0202517a4a48110a319854a49e59a87e94931d42026a806a5d839dbbdf472ac",
    "kz-check/A2 (1, 0) (1, 2)":
        "952f53060cb5ef2d7dab37a4285c397ac1fd62c199575103240823609ccfced2",
    "kz-check/A2 (1, 1) (2, 1)":
        "570bb40814eae09f3886e212ae151b7618d51a5597ee5236251a3c6ab19afd35",
    "kz-check/A2 (0, 1) (1, 3)":
        "a527fbf7468ba8d52752bf49c30ff402e2edd089440acbc5d85c33cc357551d9",
    "kz-check/A2 (1, 0) (2, 2)":
        "58e39add304daa2e117ac06a90dcee87fd0bb12522aa727dc143cecd8879a250",
    "kz-check/B2 (0, 1) (3, 1)":
        "e2db5db66a69be06f2514810618de6e5090e695b46b8e3fd36ef35751a866ec4",
    "kz-check/B2 (1, 0) (1, 1)":
        "0ea0a0358ab9b5881c9aad09950cbb2a7a6e75001ccbae9caca489fcd8a82004",
    "kz-check/A3 (1, 0, 0) (1, 1, 1)":
        "47567b36fc1eb82bcd690abf0fc08674c686d5edc24faceea55cfd91bf2ff842",
    "kz-check/A3 (0, 1, 0) (1, 3, 0)":
        "d04bf763cd456b89594e9d0251758c837ea66af00c99d787ad03e71568f94f7f",
    "kz-check/A3 (1, 0, 0) (2, 1, 1)":
        "3d50233c8faf5e345570827ebd9157017357fc199ddc34d827bb65774c715e6d",
    "kz-check/A1 (3,) (4,)":
        "a459297dabac448b4e3feb5c28ccc31321db22004fcab8a8bcc3bec2e5df67c0",
}


def test_golden_equivariant_and_kz_reports(tmp_path):
    reports = golden_reports(tmp_path)
    digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in reports.items()}
    assert digests == GOLDEN_DIGESTS
