from fractions import Fraction

import pytest

from quiverarr.errors import HypothesisError, ShapeError
from quiverarr.liecheck import (
    KZInstance, RootSystem, WeylGroup, bwb_dims, default_kappa, kz_check,
    kz_exponents, weyl_group,
)
from quiverarr.linalg import Matrix


def test_root_system_data():
    a2 = RootSystem("A2")
    assert a2.rank == 2
    assert a2.rho == (1, 1)
    assert a2.pairing((1, 0), (0, 1)) == -1
    b2 = RootSystem("B2")
    assert b2.cartan.row_list() == [[2, -2], [-1, 2]]
    with pytest.raises(ShapeError):
        RootSystem("G2")


def test_weyl_group_orders_and_lengths():
    w1 = weyl_group(RootSystem("A1"))
    assert len(w1) == 2
    assert sorted(w1.lengths) == [0, 1]
    w2 = weyl_group(RootSystem("A2"))
    assert len(w2) == 6
    assert max(w2.lengths) == 3
    w3 = weyl_group(RootSystem("A3"))
    assert len(w3) == 24
    assert max(w3.lengths) == 6
    wb = weyl_group(RootSystem("B2"))
    assert len(wb) == 8
    assert max(wb.lengths) == 4


def test_weyl_elements_preserve_bilinear_form():
    for t in ("A1", "A2", "A3", "B2"):
        rs = RootSystem(t)
        w = weyl_group(rs)
        g = rs.bilinear
        for m in w.elements:
            assert m.transpose() * g * m == g


def test_bwb_dims_a1_identity_case():
    inst = KZInstance("A1", [1], [0])
    assert bwb_dims(inst) == {0: 1}
    inst3 = KZInstance("A1", [3], [0])
    assert bwb_dims(inst3) == {0: 1}


def test_bwb_dims_a1_reflection_case():
    inst = KZInstance("A1", [1], [2])
    assert bwb_dims(inst) == {0: 0, 1: 1, 2: 0}


def test_bwb_dims_a1_empty_case():
    inst = KZInstance("A1", [1], [1])
    assert bwb_dims(inst) == {0: 0, 1: 0}


def test_bwb_values_at_most_one():
    for highest in ([1], [2], [3]):
        for k in range(0, 5):
            inst = KZInstance("A1", highest, [k])
            assert all(v in (0, 1) for v in bwb_dims(inst).values())


def test_kz_exponents_sl2():
    inst = KZInstance("A1", [1], [2], kappa=100)
    arrangement, exponents, action = kz_exponents(inst)
    assert arrangement.size == 3
    assert exponents.of(1) == Fraction(-1, 100)
    assert exponents.of(2) == Fraction(-1, 100)
    assert exponents.of(3) == Fraction(2, 100)
    assert action.order == 2


def test_kz_exponents_kappa_scaling():
    inst1 = KZInstance("A1", [1], [2], kappa=100)
    inst2 = KZInstance("A1", [1], [2], kappa=200)
    _, e1, _ = kz_exponents(inst1)
    _, e2, _ = kz_exponents(inst2)
    assert e1.of(3) == 2 * e2.of(3)


def test_kz_exponents_a2_mixed_weights():
    inst = KZInstance("A2", [1, 1], [1, 1], kappa=100)
    _, exponents, action = kz_exponents(inst)
    # a(H_1) = a(H_2) = -1/kappa, a(H_12) = (alpha_1, alpha_2)/kappa = -1/kappa
    assert exponents.of(1) == Fraction(-1, 100)
    assert exponents.of(2) == Fraction(-1, 100)
    assert exponents.of(3) == Fraction(-1, 100)
    assert action.order == 1


def test_default_kappa_bounds_lambda():
    inst = KZInstance("A1", [2], [3])
    assert inst.kappa == default_kappa(inst)
    from quiverarr.arrangement import build_graph
    from quiverarr.quiver import Spectrum, spectrum_lambda
    arrangement, exponents, _ = kz_exponents(inst)
    g = build_graph(arrangement)
    s = Spectrum({j: exponents.of(j) for j in range(1, arrangement.size + 1)})
    assert all(abs(spectrum_lambda(g, s, k)) < 1 for k in g.vertices)


def test_kz_check_sl2_m1_k2():
    out = kz_check(KZInstance("A1", [1], [2]))
    assert out["verdict"] == "MATCH"
    assert out["quiver_betti"] == {"0": 0, "1": 1, "2": 0}
    assert out["bwb_dims"] == {"0": 0, "1": 1, "2": 0}


def test_kz_check_sl2_m2_k1():
    out = kz_check(KZInstance("A1", [2], [1]))
    assert out["verdict"] == "MATCH"
    assert set(out["quiver_betti"].values()) == {0}


def test_kz_check_degenerate_n0():
    out = kz_check(KZInstance("A1", [1], [0]))
    assert out["verdict"] == "MATCH"
    assert out["quiver_betti"] == {"0": 1}


def test_kz_check_rejects_resonant_kappa():
    with pytest.raises(HypothesisError):
        kz_check(KZInstance("A1", [1], [2], kappa=Fraction(1, 2)))


def test_kz_check_bound():
    with pytest.raises(ShapeError):
        kz_check(KZInstance("A1", [3], [5]), grid_bound=4)


def test_weyl_group_is_closed_once_per_type():
    for t in ("A1", "A2", "A3", "B2"):
        w = weyl_group(RootSystem(t))
        assert weyl_group(RootSystem(t)) is w
        fresh = WeylGroup(RootSystem(t))
        assert w.elements == fresh.elements and w.lengths == fresh.lengths
        assert w.stacked == Matrix.zero(0, fresh.stacked.cols).vstack(*fresh.elements)


def _bwb_double_loop(inst):
    """bwb_dims as one stabilizer pass and one pass per degree over a
    freshly closed Weyl group, applying elements one at a time."""
    rs = inst.root_system
    w = WeylGroup(rs)
    lam = inst.capital_lambda()
    lr = tuple(a + b for a, b in zip(lam, rs.rho))
    if [i for i, m in enumerate(w.elements) if m.apply(lr) == lr] != [0]:
        raise ShapeError("Lambda + rho is not regular")
    target = tuple(a - Fraction(k) for a, k in zip(lam, inst.weights))
    dims = {}
    for k in range(0, inst.n + 1):
        count = 0
        for m, ln in zip(w.elements, w.lengths):
            if ln == inst.n - k and \
                    tuple(x - r for x, r in zip(m.apply(lr), rs.rho)) == target:
                count += 1
        if count > 1:
            raise ShapeError("weight space dimension exceeds one")
        dims[k] = count
    return dims


def test_bwb_dims_is_the_double_loop():
    """On the criterion-9 grid, N = 5 included, and on every B2 instance
    with highest weight coordinates below 3 and N <= 5."""
    from itertools import product

    from test_acceptance import KZ_GRID
    b2 = [("B2", hw, w) for hw in product(range(3), repeat=2)
          for w in product(range(6), repeat=2) if sum(w) <= 5]
    assert any(sum(w) == 5 for _, _, w in KZ_GRID)
    for spec in list(KZ_GRID) + b2:
        inst = KZInstance(*spec)
        assert bwb_dims(inst) == _bwb_double_loop(inst), spec


MUTATORS = {"append", "add", "clear", "discard", "extend", "insert", "pop",
            "popitem", "remove", "setdefault", "update"}


def test_only_the_graph_and_weyl_memos_are_module_state():
    """liecheck and equivariant keep no module-level state but the per-N
    graphs (`_GRAPH_BY_N`, which a caller may clear to start cold) and the
    per-type Weyl groups (which depend on the type alone): whatever else
    outlives a call hangs off a graph through `per_graph`.  The other
    module-level tables (CARTAN, GRAM, ...) are constants that no code
    writes, and no function is memoized by functools."""
    import ast
    import inspect

    from quiverarr import equivariant, liecheck
    allowed = {liecheck: {"_GRAPH_BY_N", "_WEYL_BY_TYPE"}, equivariant: set()}
    for mod, memos in allowed.items():
        tree = ast.parse(inspect.getsource(mod))
        mutable = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and (
                    isinstance(node.value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                            ast.ListComp, ast.SetComp))
                    or (isinstance(node.value, ast.Call)
                        and getattr(node.value.func, "id", None) in ("dict", "list", "set"))):
                mutable.update(t.id for t in node.targets)
        written = set()
        for node in ast.walk(tree):
            assert not isinstance(node, (ast.Global, ast.Nonlocal)), mod.__name__
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {getattr(d, "id", getattr(d, "attr", None)) for d in node.decorator_list}
                assert not names & {"cache", "lru_cache"}, node.name
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load) \
                    and isinstance(node.value, ast.Name):
                written.add(node.value.id)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Name):
                written.add(node.func.value.id)
        assert memos <= mutable and written & mutable == memos, mod.__name__
