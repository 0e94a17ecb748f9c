"""The invariant corpus runner behind `quiverarr selftest`: every module's
standing invariants evaluated over the built-in arrangements, one
pass/fail line per suite."""

from __future__ import annotations

import random
from fractions import Fraction

from . import corpus
from .arrangement import build_graph, verify_graph_properties
from .cohomology import scalar_from_exponents
from .equivariant import (AffineMap, EquivariantLevelZero, build_action,
                          chain_automorphisms, det_character, equivariant_c_plus,
                          generator_kernels)
from .functors import (fourier_dual, j0_shriek, j0_star, macpherson,
                       push_shriek, push_star, restrict)
from .linalg import Matrix, Q0, Q1, char_poly, image_basis, poly_mul, rank
from .liecheck import KZInstance, kz_check, kz_exponents
from .oscomplex import (ExponentAssignment, aomoto_complex, duality_pairing,
                        flag_complex, flag_degree, os_space)
from .quiver import (Spectrum, c_minus, c_plus, check_quiver, dual,
                     global_S, level_zero_quiver, local_ops, sign_conjugate,
                     spectrum_lambda)

GRAPH_CACHE = {}


def _graph(name):
    if name not in GRAPH_CACHE:
        GRAPH_CACHE[name] = build_graph(corpus.CORPUS[name]())
    return GRAPH_CACHE[name]


def _mobius(g):
    mu = {}
    for v in sorted(g.vertices, key=lambda k: g.level[k]):
        mu[v] = 1 if g.level[v] == 0 else \
            -sum(mu[w] for w in g.vertices if w != v and g.geq(w, v))
    return mu


def _random_exponents(g, rng, denominator=211):
    return ExponentAssignment({j: Fraction(rng.randint(-5, 5), denominator)
                               for j in range(1, g.arrangement.size + 1)})


def check_graph_properties(seed):
    for name in corpus.CORPUS:
        verify_graph_properties(_graph(name))


def check_os_mobius(seed):
    for name in corpus.CORPUS:
        g = _graph(name)
        mu = _mobius(g)
        for p in range(g.max_level + 1):
            expect = sum(abs(mu[v]) for v in g.vertices if g.level[v] == p)
            assert os_space(g, p).dim == expect, (name, p)


def check_complexes(seed):
    rng = random.Random(seed)
    for name in corpus.CORPUS:
        g = _graph(name)
        flag_complex(g)
        aomoto_complex(g, _random_exponents(g, rng))


def check_pairing(seed):
    for name in corpus.CORPUS:
        g = _graph(name)
        for p in range(g.max_level + 1):
            m = duality_pairing(os_space(g, p), flag_degree(g, p))
            assert m.rows == m.cols and rank(m) == m.rows, (name, p)


def check_functor_relations(seed):
    rng = random.Random(seed)
    for name in corpus.CORPUS:
        g = _graph(name)
        dim = 1 if g.arrangement.size > 6 else 2
        w = scalar_from_exponents(g, _random_exponents(g, rng), dim=dim)
        for v in (j0_star(g, w), j0_shriek(g, w), macpherson(g, w).quiver):
            assert check_quiver(v) == [], name
            c_plus(v)
            c_minus(v)


def check_round_trips(seed):
    rng = random.Random(seed)
    for name in ("single", "boolean2", "three_lines"):
        g = _graph(name)
        w = scalar_from_exponents(g, _random_exponents(g, rng), dim=2)
        n = g.max_level
        assert restrict(push_star(w, n), 0) == w, name
        assert restrict(push_shriek(w, n), 0) == w, name
        v = j0_star(g, w)
        assert sign_conjugate(dual(dual(v))) == v, name
        assert fourier_dual(fourier_dual(v)) == v, name
        assert restrict(macpherson(g, w).quiver, 0) == w, name


def check_spectrum_laws(seed):
    rng = random.Random(seed)
    for name in ("single", "boolean2", "three_lines"):
        g = _graph(name)
        s = Spectrum({j: Fraction(rng.randint(-9, 9), 101)
                      for j in range(1, g.arrangement.size + 1)})
        w = level_zero_quiver(
            g, 1, {j: Matrix.from_rows([[s.of(j)]])
                   for j in range(1, g.arrangement.size + 1)})
        for v in (j0_shriek(g, w), j0_star(g, w)):
            for k in g.vertices:
                lam = spectrum_lambda(g, s, k)
                ops = local_ops(v, k)
                assert ops.S == Matrix.identity(v.dim(k)).scale(lam), (name, k)
            p = char_poly(global_S(v))
            lam_inf = sum((s.of(j) for j in range(1, g.arrangement.size + 1)), Q0)
            total = v.total_dim()
            expect = (Fraction(1),)
            for _ in range(total):
                expect = poly_mul(expect, (-lam_inf, Fraction(1)))
            assert p == expect, name


def check_full_group(act, eq, functor, twist_by_det):
    """The identities over every element that the generator-only endpoint
    rests on: the chain automorphisms compose as the group and commute
    with d, the generators' are those equivariant_c_plus returns, and the
    Reynolds projector (1/|G|) sum chi(g) A_g is idempotent with image the
    generators' kernel K_p."""
    comp, autos = equivariant_c_plus(act, eq, functor)
    mac = macpherson(eq.graph, eq.base) if functor == "macpherson" else None
    full = chain_automorphisms(eq, functor, range(act.order), mac)
    chars = det_character(act) if twist_by_det else dict.fromkeys(range(act.order), Q1)
    kernels = generator_kernels(act, comp, autos, twist_by_det)
    for gi, per_degree in autos.items():
        assert per_degree == full[gi], gi
    for p, dim in enumerate(comp.dims):
        for gi in range(act.order):
            for gj in range(act.order):
                assert full[gi][p] * full[gj][p] == full[act.mul(gi, gj)][p], (gi, gj, p)
            if p < len(comp.differentials):
                d = comp.differentials[p]
                assert full[gi][p + 1] * d == d * full[gi][p], (gi, p)
        proj = sum((full[gi][p].scale(chars[gi]) for gi in range(act.order)),
                   Matrix.zero(dim, dim)).scale(Fraction(1, act.order))
        assert proj * proj == proj, p
        assert image_basis(proj) == kernels[p], p


def check_equivariant(seed):
    g = _graph("three_lines")
    w = scalar_from_exponents(g, ExponentAssignment({1: -1, 2: -1, 3: 2}, kappa=100))
    swap = build_action(g.arrangement, [AffineMap.permutation((2, 1))])
    assert sorted(det_character(swap).values()) == [-1, 1]
    check_full_group(swap, EquivariantLevelZero.trivial(g, w, swap), "macpherson", True)
    # S3 permuting the points of C_{1,3}, as kz_check builds it
    arrangement, exponents, s3 = kz_exponents(KZInstance("A1", [1], [3]))
    g = _graph("c13")
    assert g.arrangement.hyperplanes == arrangement.hyperplanes and s3.order == 6
    eq = EquivariantLevelZero.trivial(g, scalar_from_exponents(g, exponents), s3)
    for twist in (False, True):
        check_full_group(s3, eq, "macpherson", twist)


def check_kz(seed):
    for weights in ([0], [1], [2]):
        out = kz_check(KZInstance("A1", [1], weights))
        assert out["verdict"] == "MATCH", weights


SUITES = [
    ("graph-properties", check_graph_properties),
    ("os-mobius-dims", check_os_mobius),
    ("complex-squares-to-zero", check_complexes),
    ("duality-pairing", check_pairing),
    ("functor-relations", check_functor_relations),
    ("round-trips", check_round_trips),
    ("spectrum-laws", check_spectrum_laws),
    ("equivariant-projector", check_equivariant),
    ("kz-oracle", check_kz),
]


def run_selftest(seed=0):
    checks = []
    ok = True
    for name, fn in SUITES:
        try:
            fn(seed)
            checks.append({"name": name, "status": "pass"})
        except Exception as exc:   # report, do not abort the run
            ok = False
            checks.append({"name": name, "status": "fail",
                           "detail": f"{type(exc).__name__}: {exc}"})
    return {"ok": ok, "seed": seed, "checks": checks}
