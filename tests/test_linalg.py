import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverarr.errors import InvalidComplexError, ShapeError
from quiverarr.linalg import (
    ChainComplex, ChainMap, Matrix, betti, block_offsets, char_poly,
    char_poly_roots, det, image_basis, image_complex, integer_roots,
    kernel_basis, kernel_rows, poly_eval, poly_format, poly_mul, poly_sub,
    poly_trim, rank, rational_roots, rref, solve, solve_matrix,
)
from quiverarr import linalg
from quiverarr.linalg import _canonical, _cleared, block_diag


def M(rows):
    return Matrix.from_rows(rows)


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return Matrix(rows, cols, [Fraction(rng.randint(lo, hi)) for _ in range(rows * cols)])


def rand_invertible(rng, n):
    while True:
        p = rand_matrix(rng, n, n)
        if rank(p) == n:
            return p


def invert(m):
    x = solve_matrix(m, Matrix.identity(m.rows))
    assert x is not None
    return x


def test_rref_identity():
    r, piv = rref(Matrix.identity(2))
    assert r == Matrix.identity(2)
    assert piv == (0, 1)


def test_rref_rank_one():
    r, piv = rref(M([[2, 4], [1, 2]]))
    assert r == M([[1, 2], [0, 0]])
    assert piv == (0,)


def test_rref_zero():
    r, piv = rref(Matrix.zero(3, 2))
    assert r == Matrix.zero(3, 2)
    assert piv == ()


def test_kernel_of_identity_is_zero():
    assert kernel_basis(Matrix.identity(3)).dim == 0


def test_kernel_of_sum_functional():
    k = kernel_basis(M([[1, 1]]))
    assert k.dim == 1
    v = k.basis.row(0)
    assert v[0] + v[1] == 0 and v != (0, 0)


def test_kernel_rows_at_the_free_columns():
    m = M([[1, 2, 3], [2, 4, 7]])
    rows, free = kernel_rows(m)
    assert free == [1]
    assert rows == M([[-2, 1, 0]])
    assert (m * rows.transpose()).is_zero()
    rows, free = kernel_rows(Matrix.zero(0, 2))
    assert (rows, free) == (Matrix.identity(2), [0, 1])


def test_block_offsets_in_key_order():
    sizes = {"a": 2, "b": 0, "c": 3, "d": 0}
    assert block_offsets([], sizes.get) == ({}, 0)
    assert block_offsets(["b", "d"], sizes.get) == ({"b": 0, "d": 0}, 0)
    assert block_offsets("abcd", sizes.get) == ({"a": 0, "b": 2, "c": 2, "d": 5}, 5)
    assert block_offsets("dcba", sizes.get) == ({"d": 0, "c": 0, "b": 3, "a": 3}, 5)


def test_solve_underdetermined():
    x = solve(M([[1, 0]]), (Fraction(3),))
    assert x is not None and x[0] == 3


def test_solve_inconsistent():
    assert solve(M([[1, 1], [1, 1]]), (0, 1)) is None


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = rand_matrix(rng, rows, cols)
        assert kernel_basis(m).dim + rank(m) == cols
        assert image_basis(m).dim == rank(m)


def test_matrix_shape_errors():
    with pytest.raises(ShapeError):
        M([[1, 2]]) * M([[1, 2]])
    with pytest.raises(ShapeError):
        char_poly(M([[1, 2]]))


def test_char_poly_basics():
    assert char_poly(Matrix.zero(3, 3)) == (0, 0, 0, 1)
    assert integer_roots(char_poly(Matrix.zero(3, 3))) == {0}
    assert char_poly(M([[2, 0], [0, 2]])) == (4, -4, 1)
    assert integer_roots((4, -4, 1)) == {2}
    assert char_poly(M([[0, 1], [0, 0]])) == (0, 0, 1)
    assert char_poly(Matrix.zero(0, 0)) == (1,)


def test_char_poly_conjugation_invariant():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        p = rand_invertible(rng, n)
        assert char_poly(p * m * invert(p)) == char_poly(m)


def test_char_poly_known_factorization():
    # companion-style matrix of (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    m = M([[1, 5, 0], [0, 2, 7], [0, 0, 3]])
    assert char_poly(m) == (-6, 11, -6, 1)
    assert integer_roots(char_poly(m)) == {1, 2, 3}


def test_integer_roots_rational_coefficients():
    # (x - 2)(x + 1/2) has the single integer root 2
    p = poly_mul((-2, 1), (Fraction(1, 2), 1))
    assert integer_roots(p) == {2}
    assert poly_eval(p, 2) == 0


def test_poly_format():
    assert poly_format((1, Fraction(-3, 2), 1)) == "x^2 - 3/2*x + 1"


def test_betti_rank_nullity():
    c = ChainComplex(0, (1, 1), (M([[Fraction(1, 2)]]),))
    assert betti(c) == (0, 0)
    c = ChainComplex(0, (1, 1), (Matrix.zero(1, 1),))
    assert betti(c) == (1, 1)
    c = ChainComplex(0, (1, 3, 2), (Matrix.zero(3, 1), Matrix.zero(2, 3)))
    assert betti(c) == (1, 3, 2)


def test_invalid_complex_rejected():
    with pytest.raises(InvalidComplexError):
        ChainComplex(0, (1, 1, 1), (M([[1]]), M([[1]])))


def test_betti_basis_change_invariant():
    rng = random.Random(3)
    d0 = M([[1, 0], [0, 0], [0, 0]])
    d1 = M([[0, 0, 1]])
    c = ChainComplex(0, (2, 3, 1), (d0, d1))
    b = betti(c)
    for _ in range(5):
        p0 = rand_invertible(rng, 2)
        p1 = rand_invertible(rng, 3)
        p2 = rand_invertible(rng, 1)
        cc = ChainComplex(0, (2, 3, 1), (p1 * d0 * invert(p0), p2 * d1 * invert(p1)))
        assert betti(cc) == b


def test_euler_characteristic_matches_betti():
    c = ChainComplex(-1, (2, 3, 1), (M([[1, 0], [0, 0], [0, 0]]), M([[0, 0, 1]])))
    b = betti(c)
    assert sum((-1) ** (d) * b[d - c.min_degree] for d in c.degrees) == c.euler_characteristic()


def betti_ranking_both_sides(c):
    """Reference: each Betti number from the ranks of the differentials
    out of and into its degree, every differential ranked twice."""
    return tuple(c.dims[k] - rank(c.differential(c.min_degree + k))
                 - rank(c.differential(c.min_degree + k - 1)) for k in range(len(c.dims)))


@st.composite
def complexes(draw):
    """(complex, Betti numbers): a standard complex, where d_k carries r_k
    basis vectors of degree k onto the first r_k of degree k+1, in bases
    changed at random."""
    length = draw(st.integers(0, 5))
    ranks = [0] + [draw(st.integers(0, 2)) for _ in range(length - 1)] + [0]
    homology = tuple(draw(st.integers(0, 2)) for _ in range(length))
    dims = [ranks[k] + ranks[k + 1] + homology[k] for k in range(length)]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    bases = [rand_invertible(rng, n) for n in dims]
    diffs = []
    for k in range(length - 1):
        std = Matrix(dims[k + 1], dims[k], [int(i < ranks[k + 1] and j == ranks[k] + i)
                                            for i in range(dims[k + 1]) for j in range(dims[k])])
        diffs.append(bases[k + 1] * std * invert(bases[k]))
    return ChainComplex(draw(st.integers(-3, 3)), dims, diffs), homology


@settings(max_examples=100, deadline=None)
@given(complexes())
def test_betti_ranks_each_differential_once(drawn):
    import quiverarr.linalg as linalg
    c, homology = drawn
    assert betti_ranking_both_sides(c) == homology
    ranked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rank", lambda m: ranked.append(m) or rank(m))
        assert betti(c) == homology
    assert [id(m) for m in ranked] == [id(d) for d in c.differentials]


def test_image_complex():
    source = ChainComplex(0, (1, 2), (M([[1], [1]]),))
    target = ChainComplex(0, (2, 2), (M([[1, 0], [1, 0]]),))
    f = ChainMap(source, target, (M([[1], [0]]), Matrix.identity(2)))
    img = image_complex(f)
    assert img.dims == (1, 2)
    assert (img.differentials[0]).col(0) == (1, 1)


# -- the integer kernels against plain Fraction arithmetic ---------------------

def fraction_rref(m):
    """Reference Gauss-Jordan elimination over Fractions: first nonzero
    row as pivot, pivot row scaled to 1, column cleared in every other
    row.  Returns (rows, pivots)."""
    rows = m.row_list()
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def entrywise_product(a, b):
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0))
             for j in range(b.cols)] for i in range(a.rows)]


DENOMINATORS = (1, 2, 3, 4, 6, 7, 12, 64)
SPARSE_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from(DENOMINATORS)))


@st.composite
def matrices(draw, rows=None, max_dim=6, cols=None):
    """Zero, integer, mixed-denominator and low-rank matrices, including
    0-row and 0-column shapes."""
    n = draw(st.integers(0, max_dim)) if rows is None else rows
    m = draw(st.integers(0, max_dim)) if cols is None else cols
    kind = draw(st.sampled_from(("zero", "integer", "mixed", "low-rank")))
    if kind == "zero":
        return Matrix.zero(n, m)
    if kind == "integer":
        ints = draw(st.lists(st.integers(-5, 5), min_size=n * m, max_size=n * m))
        return Matrix(n, m, ints)
    if kind == "mixed":
        return Matrix(n, m, draw(st.lists(SPARSE_ENTRIES, min_size=n * m,
                                          max_size=n * m)))
    k = draw(st.integers(1, 3))
    left = Matrix(n, k, draw(st.lists(SPARSE_ENTRIES, min_size=n * k, max_size=n * k)))
    right = Matrix(k, m, draw(st.lists(SPARSE_ENTRIES, min_size=k * m, max_size=k * m)))
    return Matrix.from_rows(entrywise_product(left, right), cols=m)


@st.composite
def sparse_matrices(draw):
    """Mostly zero matrices up to 12x12, with duplicate rows, rows with a
    common factor and sums of rows."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                        st.sampled_from(DENOMINATORS))
    rows = []
    for _ in range(n):
        row = [Fraction(0)] * m
        for j in draw(st.lists(st.integers(0, m - 1), max_size=3)):
            row[j] = draw(nonzero)
        rows.append(row)
    picks = st.integers(0, n - 1)
    factors = st.sampled_from((1, -1, 2, 6, -12, Fraction(3, 4)))
    for i, j, k, f in draw(st.lists(st.tuples(picks, picks, picks, factors), max_size=6)):
        rows[k] = [f * x + y for x, y in zip(rows[i], rows[j] if i != j else [0] * m)]
    return Matrix.from_rows(rows, cols=m)


@settings(max_examples=500, deadline=None)
@given(matrices() | sparse_matrices())
@example(Matrix.zero(0, 3))
@example(Matrix.zero(3, 0))
@example(Matrix.zero(0, 0))
def test_rref_matches_fraction_elimination(m):
    kept = [(d, list(nz)) for d, nz in m._form]
    r, piv = rref(m)
    ref_rows, ref_piv = fraction_rref(m)
    assert (r.rows, r.cols) == (m.rows, m.cols)
    assert piv == ref_piv
    assert r.row_list() == ref_rows
    assert all(type(x) is Fraction for x in r.entries)
    assert rank(m) == len(ref_piv)
    # the elimination reads the matrix's kept integer form and leaves it
    assert m._form == kept


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    sm = sympy.Matrix(m.rows, m.cols,
                      [sympy.Rational(x.numerator, x.denominator) for x in m.entries])
    expect, expect_piv = sm.rref()
    r, piv = rref(m)
    assert piv == tuple(expect_piv)
    assert [Fraction(int(x.p), int(x.q)) for x in expect] == list(r.entries)


@settings(max_examples=300, deadline=None)
@given(st.data(), matrices())
def test_matmul_matches_entrywise_product(data, a):
    b = data.draw(matrices(rows=a.cols))
    prod = a * b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert prod.row_list() == entrywise_product(a, b)
    assert all(type(x) is Fraction for x in prod.entries)


def test_matmul_empty_inner_dimension():
    assert M([[1], [2]]).transpose() * Matrix.zero(2, 0) == Matrix.zero(1, 0)
    assert Matrix.zero(2, 0) * Matrix.zero(0, 3) == Matrix.zero(2, 3)
    assert Matrix.zero(0, 2) * M([[1, 2], [3, 4]]) == Matrix.zero(0, 2)


# -- the integer characteristic polynomial ------------------------------------

def fraction_hessenberg_char_poly(m):
    """Reference characteristic polynomial over Fractions: similarity to
    upper Hessenberg form, then the recurrence over its leading blocks.
    Lowest degree first."""
    n = m.rows
    h = m.row_list()
    for c in range(n - 2):
        pr = next((i for i in range(c + 1, n) if h[i][c] != 0), None)
        if pr is None:
            continue
        if pr != c + 1:
            h[c + 1], h[pr] = h[pr], h[c + 1]
            for i in range(n):
                h[i][c + 1], h[i][pr] = h[i][pr], h[i][c + 1]
        piv = h[c + 1][c]
        for i in range(c + 2, n):
            if h[i][c] != 0:
                f = h[i][c] / piv
                h[i] = [x - f * y for x, y in zip(h[i], h[c + 1])]
                for k in range(n):
                    h[k][c + 1] += f * h[k][i]
    polys = [(Fraction(1),)]
    for k in range(1, n + 1):
        p = poly_mul(polys[k - 1], (-h[k - 1][k - 1], Fraction(1)))
        coef = Fraction(1)
        for i in range(k - 1, 0, -1):
            coef *= h[i][i - 1]
            if coef == 0:
                break
            term = coef * h[i - 1][k - 1]
            if term:
                p = poly_sub(p, tuple(term * c for c in polys[i - 1]))
        polys.append(p)
    return polys[n]


@st.composite
def square_matrices(draw, max_dim=7):
    """Dense integer, sparse mixed-denominator and low-rank square
    matrices, and block-triangular ones whose nonzero pattern splits into
    strongly connected components."""
    n = draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(("dense", "sparse", "low-rank", "triangular")))
    if kind == "dense":
        return Matrix(n, n, draw(st.lists(st.integers(-6, 6), min_size=n * n, max_size=n * n)))
    if kind == "low-rank":
        k = draw(st.integers(0, 2))
        return draw(matrices(rows=n, cols=k)) * draw(matrices(rows=k, cols=n))
    entries = draw(st.lists(SPARSE_ENTRIES, min_size=n * n, max_size=n * n))
    if kind == "triangular":
        cut = draw(st.integers(0, n))
        entries = [Fraction(0) if i >= cut > j else entries[i * n + j]
                   for i in range(n) for j in range(n)]
    return Matrix(n, n, entries)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
@example(Matrix.zero(0, 0))
@example(Matrix.from_rows([[Fraction(1, 2), 3], [Fraction(-2, 7), Fraction(5, 3)]]))
def test_integer_char_poly_matches_fraction_hessenberg(m):
    from quiverarr.linalg import _char_poly_dense
    expect = fraction_hessenberg_char_poly(m)
    # det(dt I - dm) = d^n det(tI - m), d the lcm of the denominators of m
    scale = math.lcm(*(x.denominator for x in m.entries)) ** m.rows
    dense = _char_poly_dense(m)
    assert all(type(c) is int for c in dense)
    assert tuple(Fraction(c, scale) for c in dense) == expect
    assert char_poly(m) == expect
    assert all(type(x) is Fraction for x in char_poly(m))


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_char_poly_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    sm = sympy.Matrix(m.rows, m.cols,
                      [sympy.Rational(x.numerator, x.denominator) for x in m.entries])
    t = sympy.Symbol("t")
    expect = sm.charpoly(t).all_coeffs()[::-1]
    assert char_poly(m) == tuple(Fraction(int(c.p), int(c.q)) for c in expect)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 6), st.integers(0, 6))
@example(None, 0, 3)
@example(None, 3, 0)
@example(None, 0, 0)
def test_char_poly_of_product_is_char_poly_of_the_product(data, n, k):
    if data is None:
        x, y = Matrix.zero(n, k), Matrix.zero(k, n)
    else:
        x = data.draw(matrices(rows=n, cols=k))
        y = data.draw(matrices(rows=k, cols=n))
    for a, b in ((x, y), (y, x)):
        p, roots, split = char_poly_roots(a, b)
        assert p == char_poly(a * b)
        assert (sorted(roots), split) == sorted_roots(fraction_rational_roots(p))


def test_char_poly_of_product_shape_check():
    with pytest.raises(ShapeError):
        char_poly_roots(Matrix.zero(2, 3), Matrix.zero(2, 3))
    with pytest.raises(ShapeError):
        char_poly_roots(Matrix.zero(2, 3))


# -- roots by Euclid over Fractions: the reference for the integer path ------

def poly_monic(p):
    p = tuple(Fraction(c) for c in poly_trim(p))
    return tuple(c / p[-1] for c in p)


def poly_mod(p, q):
    """Remainder of p modulo q (q nonzero), both lowest degree first."""
    p = [Fraction(c) for c in poly_trim(p)]
    q = poly_trim(q)
    dq = len(q) - 1
    while len(p) - 1 >= dq and any(p):
        f = p[-1] / q[-1]
        shift = len(p) - 1 - dq
        for i, c in enumerate(q):
            p[shift + i] -= f * c
        while len(p) > 1 and p[-1] == 0:
            p.pop()
    return poly_trim(p)


def poly_gcd(p, q):
    """Monic gcd over Q."""
    p, q = poly_trim(p), poly_trim(q)
    while any(q):
        p, q = q, poly_mod(p, q)
        if any(q):
            q = poly_monic(q)
    return poly_monic(p)


def divide_exactly(p, g):
    """p / g over Fractions by long division, g dividing p."""
    out = []
    rem = [Fraction(c) for c in poly_trim(p)]
    while len(rem) >= len(g):
        f = rem[-1] / g[-1]
        out.append(f)
        shift = len(rem) - len(g)
        for i, c in enumerate(g):
            rem[shift + i] -= f * c
        rem.pop()
    return tuple(reversed(out))


def squarefree_part(p):
    """The monic squarefree part of p: p over its gcd with p', by Euclid
    over Q."""
    d = poly_trim([i * c for i, c in enumerate(p)][1:] or [0])
    if not any(d):
        return poly_monic(p)
    return poly_monic(divide_exactly(p, poly_gcd(p, d)))


def divisors(n):
    """The positive divisors of n != 0, from its prime factorization."""
    n = abs(n)
    out = {1}
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            out |= {d * p for d in out}
        p += 1
    return out | {d * n for d in out}


def fraction_rational_roots(p):
    """Reference: the rational roots of p with multiplicity, zero first and
    then ascending, and whether p splits.  Candidates come from the
    rational root theorem on the Fraction squarefree part and are tested
    by evaluation; a root is divided out while it is one."""
    coeffs = [Fraction(c) for c in poly_trim(p)]
    roots = []
    while len(coeffs) > 1 and coeffs[0] == 0:
        roots.append(Fraction(0))
        coeffs.pop(0)
    if len(coeffs) == 1:
        return roots, True
    sq = squarefree_part(coeffs)
    d = math.lcm(*(c.denominator for c in sq))
    ints = [int(c * d) for c in sq]
    n = len(ints) - 1
    # Cauchy's bound on the roots of the monic sq; b^n sq(a/b) over Z
    bound = 1 + max(abs(c) for c in sq[:-1])
    numerators = divisors(ints[0])
    candidates = {Fraction(a, b) for b in divisors(ints[-1]) for x in numerators
                  if x <= bound * b for a in (x, -x)
                  if sum(c * a ** i * b ** (n - i) for i, c in enumerate(ints)) == 0}
    rest = tuple(coeffs)
    for r in sorted(candidates):
        while len(rest) > 1 and poly_eval(rest, r) == 0:
            rest = divide_exactly(rest, (-r, Fraction(1)))
            roots.append(r)
    return roots, len(rest) == 1


def sorted_roots(result):
    roots, split = result
    return sorted(roots), split


def test_fraction_euclid_reference():
    assert poly_monic((2, 4)) == (Fraction(1, 2), Fraction(1))
    assert all(type(c) is Fraction for c in poly_monic((2, 4)) + poly_monic((3, 1)))
    assert poly_mod((1, 0, 1), (1, 2)) == (Fraction(5, 4),)
    assert poly_gcd((-1, 0, 1), (1, 2, 1)) == (1, 1)
    # (t - 1)^2 (t + 2)^3 (2t - 1)
    p = poly_mul(poly_mul((1, -2, 1), (8, 12, 6, 1)), (-1, 2))
    assert squarefree_part(p) == poly_monic(poly_mul(poly_mul((-1, 1), (2, 1)), (-1, 2)))
    assert fraction_rational_roots(p) == ([-2, -2, -2, Fraction(1, 2), 1, 1], True)
    assert fraction_rational_roots((0, 0, 1, 0, 1)) == ([0, 0], False)


@st.composite
def root_polynomials(draw):
    """Integer polynomials with repeated rational roots: a product of
    powers of linear factors (qt - p) and an integer cofactor."""
    p = (1,)
    for _ in range(draw(st.integers(0, 3))):
        den = draw(st.integers(1, 6))
        root = (-draw(st.integers(-8, 8)), den)
        for _ in range(draw(st.integers(1, 4))):
            p = poly_mul(p, root)
    cofactor = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(lambda c: c[-1]))
    return [int(c) for c in poly_mul(p, tuple(cofactor))]


@settings(max_examples=300, deadline=None)
@given(root_polynomials())
@example([1, -2, 1])
@example([4, 0, 1])
@example([-8, 12, -6, 1])
def test_integer_squarefree_part_is_the_fraction_one(c):
    """The gcd of c and c' by primitive pseudo-remainders over Z is the
    Euclid gcd over Q up to a unit, so c over it is the squarefree part."""
    from quiverarr.linalg import _int_poly_gcd, _primitive_part
    c = _primitive_part(c)
    if len(c) < 2:
        return
    g = _int_poly_gcd(c, _primitive_part([i * x for i, x in enumerate(c)][1:]))
    assert all(type(x) is int for x in g) and g[-1] > 0
    assert math.gcd(*g) == 1
    assert poly_monic(g) == poly_gcd(c, [i * x for i, x in enumerate(c)][1:])
    assert poly_monic(divide_exactly(c, g)) == squarefree_part(c)
    # the squarefree part's ends, which the rational root theorem reads
    assert c[-1] % g[-1] == 0
    if c[0]:
        assert c[0] % g[0] == 0


@settings(max_examples=300, deadline=None)
@given(root_polynomials())
def test_rational_roots_match_the_fraction_euclid(c):
    expect = fraction_rational_roots(c)
    assert rational_roots(c) == expect
    assert rational_roots(tuple(Fraction(x, 3) for x in c)) == expect


def jordan(value, n):
    return Matrix(n, n, [value if i == j else 1 if j == i + 1 else 0
                         for i in range(n) for j in range(n)])


@settings(max_examples=300, deadline=None)
@given(square_matrices())
@example(Matrix.zero(0, 0))
@example(jordan(2, 3))
@example(block_diag([jordan(Fraction(-1, 2), 2), jordan(3, 2), Matrix.identity(1)]))
@example(Matrix.from_rows([[0, -1], [1, 0]]))
@example(Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]))
@example(Matrix.from_rows([[Fraction(1, 2), 1, 0], [0, Fraction(1, 2), 1],
                           [Fraction(1, 64), 0, Fraction(1, 2)]]))
def test_char_poly_roots_are_the_rational_roots_of_the_char_poly(m):
    p, roots, split = char_poly_roots(m)
    assert p == char_poly(m)
    expect = fraction_rational_roots(p)
    assert (sorted(roots), split) == sorted_roots(expect)
    assert (roots, split) == rational_roots(p) == expect
    assert all(type(r) is Fraction for r in roots)


@settings(max_examples=100, deadline=None)
@given(square_matrices())
@example(jordan(2, 3))
@example(Matrix.from_rows([[0, -1], [1, 0]]))
def test_char_poly_roots_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    sm = sympy.Matrix(m.rows, m.cols,
                      [sympy.Rational(x.numerator, x.denominator) for x in m.entries])
    t = sympy.Symbol("t")
    found = sympy.roots(sympy.Poly(sm.charpoly(t).as_expr(), t), filter="Q")
    expect = sorted(Fraction(int(r.p), int(r.q)) for r, k in found.items() for _ in range(k))
    _, roots, split = char_poly_roots(m)
    assert sorted(roots) == expect
    assert split == (len(expect) == m.rows)


def test_char_poly_roots_with_large_denominators_are_quick():
    # P diag(1, 2, 3) P^-1 has denominators of the size of det P, about
    # 4 10^10; read on d^3 det(tI - m) instead of its primitive part, the
    # constant term 6 d^3 would be factored by trial division past 10^16
    p = Matrix.from_rows([[1009, 2003, 3001], [4001, 1013, 5003], [6007, 7001, 1019]])
    m = p * Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]]) * invert(p)
    assert max(x.denominator for x in m.entries) > 10 ** 10
    t0 = time.perf_counter()
    got = char_poly_roots(m)
    assert time.perf_counter() - t0 < 0.5
    assert got == ((-6, 11, -6, 1), [1, 2, 3], True)


@settings(max_examples=200, deadline=None)
@given(st.data(), matrices())
def test_product_is_zero_matches_the_product(data, a):
    from quiverarr.linalg import product_is_zero
    b = data.draw(matrices(rows=a.cols))
    assert product_is_zero(a, b) == (a * b).is_zero()


@settings(max_examples=200, deadline=None)
@given(st.data(), matrices(), st.sampled_from(DENOMINATORS), st.integers(1, 5))
def test_products_equal_matches_the_products(data, a, den, num):
    from quiverarr.linalg import products_equal
    b = data.draw(matrices(rows=a.cols))
    # the same product over other denominators
    q = Fraction(num, den)
    assert products_equal(a, b, a.scale(q), b.scale(1 / q))
    c = data.draw(matrices(rows=a.rows))
    d = data.draw(matrices(rows=c.cols, cols=b.cols))
    assert products_equal(a, b, c, d) == (entrywise_product(a, b) == entrywise_product(c, d))
    with pytest.raises(ShapeError):
        products_equal(a, b, c, Matrix.zero(d.rows + 1, d.cols))


# -- rational roots of integer coefficient tuples ------------------------------

def test_rational_roots_of_int_coefficients():
    # ints with a non-unit leading coefficient used to turn into floats
    assert rational_roots((2, 2)) == ([Fraction(-1)], True)
    assert rational_roots((4, 0, 2)) == ([], False)
    assert rational_roots((-3, 2)) == ([Fraction(3, 2)], True)
    assert rational_roots((0, 0, 6, -5, 1)) == ([0, 0, Fraction(2), Fraction(3)], True)
    assert all(type(r) is Fraction for r in rational_roots((0, 0, 6, -5, 1))[0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=7).filter(any))
def test_rational_roots_ints_match_fractions(coeffs):
    ints = rational_roots(tuple(coeffs))
    fracs = rational_roots(tuple(Fraction(c) for c in coeffs))
    assert ints == fracs
    roots, _ = ints
    assert all(poly_eval(tuple(coeffs), r) == 0 for r in roots)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_from_cols_is_from_rows_transposed(m):
    assert Matrix.from_cols([m.col(j) for j in range(m.cols)], m.rows) == m
    assert Matrix.from_cols([m.row(i) for i in range(m.rows)], m.cols) == m.transpose()


def test_from_cols_rejects_ragged_columns():
    with pytest.raises(ShapeError):
        Matrix.from_cols([[1, 2], [3]], 2)


# -- integer roots and determinants -----------------------------------------------

def test_integer_roots_of_a_high_power_are_quick():
    # trial division of the full constant term 3^40 never finished
    p = (Fraction(1),)
    for _ in range(40):
        p = poly_mul(p, (-3, 1))
    roots = integer_roots(p)
    assert roots == {3}
    assert all(type(r) is int for r in roots)
    assert integer_roots(poly_mul(p, (0, 0, 2, 1))) == {-2, 0, 3}


def brute_force_integer_roots(p):
    """Every integer root lies within Cauchy's bound 1 + max |p_i / p_n|."""
    coeffs = [Fraction(c) for c in p]
    while coeffs[-1] == 0:
        coeffs.pop()
    bound = 1 + max((abs(c / coeffs[-1]) for c in coeffs[:-1]), default=0)
    return {r for r in range(-int(bound), int(bound) + 1) if poly_eval(tuple(coeffs), r) == 0}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-4, 4), max_size=4),
       st.lists(st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3))),
                min_size=1, max_size=4).filter(lambda c: c[-1] != 0))
def test_integer_roots_match_a_brute_force_search(roots, cofactor):
    p = tuple(cofactor)
    for r in roots:
        p = poly_mul(p, (-r, 1))
    expect = brute_force_integer_roots(p)
    assert expect >= set(roots)
    assert integer_roots(p) == expect


def elimination_det(m):
    """Reference: the determinant by Fraction Gaussian elimination."""
    n = m.rows
    rows = m.row_list()
    out = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            out = -out
        out *= rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / rows[c][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


@settings(max_examples=300, deadline=None)
@given(square_matrices(max_dim=5))
@example(Matrix.zero(0, 0))
@example(Matrix.zero(3, 3))
@example(Matrix.from_rows([[1, 2], [2, 4]]))
@example(Matrix.from_rows([[0, 1], [1, 0]]))
def test_det_matches_fraction_elimination(m):
    d = det(m)
    assert type(d) is Fraction
    assert d == elimination_det(m)


def test_det_rejects_non_square():
    with pytest.raises(ShapeError, match="determinant of a non-square matrix"):
        det(Matrix.zero(2, 3))


def cleared_rows(rows):
    """The canonical rows of a list of Fraction rows."""
    return [_cleared(enumerate(r)) for r in rows]


def assert_canonical(m):
    """m's stored rows are the canonical rows of its Fraction entries."""
    assert m._form == cleared_rows(m.row_list())


SCALARS = st.sampled_from((0, 1, -1, -2, 3, Fraction(-3, 4), Fraction(6, 5), Fraction(1, 64)))


@st.composite
def producer_inputs(draw):
    """(m, other of m's shape, right factor, row picks, column picks, a
    column range lo:hi, scalar)."""
    m = draw(matrices() | sparse_matrices())
    other = draw(matrices(rows=m.rows, cols=m.cols))
    right = draw(matrices(rows=m.cols, max_dim=4))
    rows = draw(st.lists(st.integers(0, m.rows - 1), max_size=5)) if m.rows else []
    cols = draw(st.lists(st.integers(0, m.cols - 1), max_size=5)) if m.cols else []
    lo = draw(st.integers(0, m.cols))
    return m, other, right, rows, cols, lo, draw(st.integers(lo, m.cols)), draw(SCALARS)


@settings(max_examples=300, deadline=None)
@given(producer_inputs())
@example((Matrix.zero(0, 3), Matrix.zero(0, 3), Matrix.identity(3), [], [2, 0], 1, 3,
          Fraction(-3, 4)))
@example((Matrix.zero(3, 0), M([[], [], []]), Matrix.zero(0, 2), [2, 2], [], 0, 0, -2))
@example((M([[0, 0, 0], [-2, 4, 6], [0, -3, Fraction(1, 2)]]), Matrix.zero(3, 3),
          M([[1], [Fraction(-1, 2)], [2]]), [1, 0], [2, 1], 1, 2, 0))
@example((M([[-4, 6], [-6, 9]]), M([[4, -6], [0, Fraction(1, 3)]]), Matrix.identity(2),
          [0], [1], 0, 1, -1))
def test_every_producer_writes_the_canonical_form(args):
    """Each matrix producer stores exactly the canonical rows of the
    Fraction matrix it stands for (compared before its entries are ever
    read), and equals and hashes like that matrix built from Fractions:
    products, scaling by negative and zero numbers, sums, transposes,
    slices, stacks, rref (negative pivots too), solutions and kernels;
    shapes 0 x n and n x 0 and zero rows included."""
    m, other, right, rows, cols, lo, hi, c = args
    e, o = m.row_list(), other.row_list()
    c = Fraction(c)
    n = m.cols
    expected = {
        "product": (m * right, entrywise_product(m, right)),
        "scale": (m.scale(c), [[c * x for x in r] for r in e]),
        "negation": (-m, [[-x for x in r] for r in e]),
        "sum": (m + other, [[x + y for x, y in zip(r, s)] for r, s in zip(e, o)]),
        "difference": (m - other, [[x - y for x, y in zip(r, s)] for r, s in zip(e, o)]),
        "transpose": (m.transpose(), [[e[i][j] for i in range(m.rows)] for j in range(n)]),
        "submatrix": (m.submatrix(rows, cols), [[e[i][j] for j in cols] for i in rows]),
        "column range": (m.submatrix(range(m.rows), range(lo, hi)), [r[lo:hi] for r in e]),
        "hstack": (m.hstack(other, m), [r + s + r for r, s in zip(e, o)]),
        "vstack": (m.vstack(other, m), e + o + e),
        "block_diag": (block_diag([m, other]), [r + [Fraction(0)] * n for r in e]
                       + [[Fraction(0)] * n + s for s in o]),
        "rref": (rref(m)[0], fraction_rref(m)[0]),
        "identity": (Matrix.identity(n), [[Fraction(int(i == j)) for j in range(n)]
                                          for i in range(n)]),
        "zero": (Matrix.zero(m.rows, n), [[Fraction(0)] * n for _ in range(m.rows)]),
    }
    for name, (got, want) in expected.items():
        assert got._form == cleared_rows(want), name
        built = Matrix.from_rows(want, cols=got.cols)
        assert got == built and hash(got) == hash(built), name
        assert got.row_list() == want, name
    kernel, _ = kernel_rows(m)
    assert_canonical(kernel)
    assert (m * kernel.transpose()).is_zero()
    rhs = m * right
    x = solve_matrix(m, rhs)
    assert_canonical(x)
    assert m * x == rhs


def test_form_built_and_fraction_built_matrices_are_equal():
    """A matrix written as canonical rows and the same matrix read from
    Fractions are ==, hash alike and compare without reading entries."""
    prod = M([[Fraction(1, 2), 3], [0, Fraction(-2, 3)]]) * M([[2, 0], [Fraction(3, 4), 6]])
    same = Matrix(2, 2, [Fraction(13, 4), 18, Fraction(-1, 2), -4])
    assert prod._entries is None
    assert prod == same and hash(prod) == hash(same)
    assert prod._entries is None and not prod != same
    assert prod != same.scale(2) and prod != Matrix.zero(2, 2)


def augmented_solution(m, rhs):
    """Reference: the solution read off the Fraction elimination of the
    augmented matrix [m | rhs], None when a pivot falls in rhs's columns,
    free unknowns 0."""
    rows, piv = fraction_rref(m.hstack(rhs))
    n = m.cols
    if any(p >= n for p in piv):
        return None
    x = [[Fraction(0)] * rhs.cols for _ in range(n)]
    for r, p in zip(rows, piv):
        x[p] = r[n:]
    return Matrix.from_rows(x, cols=rhs.cols)


@st.composite
def unit_row_systems(draw):
    """(m, rhs): m the transpose of a random RREF basis, so every column
    has a unit row, rhs inside its span or drawn freely, and some unit
    rows repeated below with rhs rows of their own."""
    ambient = draw(st.integers(1, 6))
    basis = image_basis(draw(matrices(rows=ambient, cols=draw(st.integers(1, 4))))).basis
    m = basis.transpose()
    n, k = m.cols, draw(st.integers(0, 3))
    if draw(st.booleans()):
        rhs = m * draw(matrices(rows=n, cols=k))
    else:
        rhs = draw(matrices(rows=ambient, cols=k))
    pivots = rref(basis)[1]
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else []:
        again = rhs.submatrix([pivots[j]], range(k))
        m = m.vstack(m.submatrix([pivots[j]], range(n)))
        rhs = rhs.vstack(again if draw(st.booleans()) else draw(matrices(rows=1, cols=k)))
    return m, rhs


@settings(max_examples=300, deadline=None)
@given(unit_row_systems())
@example((Matrix.zero(3, 0), M([[1], [0], [0]])))
@example((Matrix.zero(2, 0), Matrix.zero(2, 2)))
@example((M([[1], [1]]), M([[2], [3]])))
@example((M([[1], [Fraction(1, 2)], [1]]), M([[2], [1], [2]])))
def test_unit_row_solve_is_the_augmented_elimination(system):
    """When every column of m has a unit row, `solve_matrix` runs no
    elimination and gives what the elimination of [m | rhs] gives: the
    unique solution, or None, also for conflicting repeated unit rows and
    for m without columns."""
    m, rhs = system

    def no_rref(_):
        raise AssertionError("the unit-row solve eliminated")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rref", no_rref)
        got = solve_matrix(m, rhs)
    assert got == augmented_solution(m, rhs)
    if got is not None:
        assert_canonical(got)


@settings(max_examples=200, deadline=None)
@given(matrices() | sparse_matrices())
def test_scale_by_one_and_minus_one_is_the_general_path(m):
    """scale(1) is the matrix itself and scale(-1) its negation, with the
    forms the general path writes: each row's numerators times c over its
    denominator, made canonical."""
    for c in (1, -1, Fraction(1), Fraction(-1)):
        p, q = Fraction(c).numerator, Fraction(c).denominator
        assert m.scale(c)._form == [_canonical(d * q, [(j, x * p) for j, x in nz])
                                    for d, nz in m._form]
    assert m.scale(1) is m
