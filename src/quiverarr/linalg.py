"""Exact rational linear algebra.

Everything in the package reduces to the operations here: matrices over
Q, row reduction, kernels and images, characteristic polynomials, and
Betti numbers of finite complexes.  No floating point anywhere.

Matrices are immutable values; operations return new matrices.  A matrix
is stored as its canonical integer rows (see `Matrix`), and every
operation here, as well as the assemblers of `functors` and `quiver`,
writes that form directly; `Fraction` entries are built only where they
are read (reports, indexing, `apply`).  A vector is a tuple of Fractions.
A polynomial is a tuple of Fractions, lowest degree first; inside this
module an integer polynomial is a list of ints, lowest degree first.

Every row reduction in the package, `rref`, `rank`, the presented
spaces of `oscomplex` and the strata of `arrangement.build_graph`, runs on
one private echelon kernel (`_forward`, `_back_substitute`, `_reduce`).  It
works on sparse integer rows, {column: int} without zeros, read from the
canonical rows.  The forward pass pivots every row at its least column;
the back substitution clears each row at the pivots it contains, in
descending pivot order.  A step divides exactly when the pivot divides the
row's entry; otherwise it is fraction-free in the manner of Bareiss
(1968), and the new row is divided by its content, so the integers stay
small.  A reduced row read over its pivot entry is a canonical row again.
`solve_matrix` eliminates the augmented matrix, except when every column
of m has a unit row, as the inclusion of an RREF basis does: then the
one candidate solution is read off those rows of the right-hand side and
checked by one product.

The matrix product (`_int_product`) sums integer numerators over one
denominator per output row; its integer core also serves zero and
equality tests (`product_is_zero`, `products_equal`).

Characteristic polynomials and their rational roots run on Python ints.
`char_poly` takes one integer factor per strongly connected block of the
nonzero pattern, a larger block's from Berkowitz's division-free
algorithm (1984), and makes one Fraction per coefficient of their
product; `char_poly_roots` reads the roots off the same factors.  Results
are exactly those of the plain Fraction algorithms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, lcm

from .errors import InvalidComplexError, ParseError, ShapeError

Q0 = Fraction(0)
Q1 = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/100', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def parse_rational(text, path=None, line=None) -> Fraction:
    """The rational written as `text` ('3/100', '-2', '0.25'); a zero
    denominator or anything else that is not a finite rational is a
    ParseError.  Every text format and the --kappa options read their
    rationals here; a JSON boolean is not one."""
    try:
        if type(text) is not bool:
            return Fraction(text)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        pass
    raise ParseError(f"bad rational {text!r}", path, line)


def sort_with_sign(seq):
    """(sorted tuple, sign of the permutation that sorts seq), the sign
    None when an entry repeats; for a permutation of 0..n-1 the sign is
    the permutation's own.  Insertion sort: the tuples are short."""
    items = list(seq)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(items)):
        if items[i - 1] == items[i]:
            return tuple(items), None
    return tuple(items), sign


def _cleared(items):
    """(d, [(key, numerator)]): the nonzero values of the (key, value)
    pairs, ints or Fractions, as integers over d, the lcm of their
    denominators (1 when there are none).  With the keys ascending this is
    the canonical row of the values (see `Matrix`)."""
    nz = [(j, x) for j, x in items if x]
    d = lcm(*{x.denominator for _, x in nz})
    return d, [(j, x.numerator * (d // x.denominator)) for j, x in nz]


# Canonical rows are shared between matrices and never changed in place.
_ZERO_ROW = (1, [])


def _canonical(d, nz):
    """The canonical row of the entries nz over d: nz holds (column, int)
    pairs in ascending column order without zeros, d is a nonzero int, and
    both are divided by the gcd of d and the numerators, signed so that
    the denominator is positive."""
    if d == 1:
        return d, nz
    if not nz:
        return _ZERO_ROW
    g = gcd(d, *[x for _, x in nz])
    if d < 0:
        g = -g
    if g == 1:
        return d, nz
    return d // g, [(j, x // g) for j, x in nz]


def _joined(parts):
    """The canonical row of canonical rows laid side by side: `parts` holds
    (row, column offset) pairs in ascending order of offset.  Over the lcm
    of the rows' denominators the numerators need no gcd: a prime dividing
    that lcm to its full power divides one row's denominator to it, and
    that row's scaled numerators then share no factor with it."""
    parts = [(r, o) for r, o in parts if r[1]]
    if not parts:
        return _ZERO_ROW
    if len(parts) == 1:
        (d, nz), o = parts[0]
        return (d, nz) if o == 0 else (d, [(j + o, x) for j, x in nz])
    d = lcm(*[r for (r, _), _ in parts])
    out = []
    for (r, nz), o in parts:
        f = d // r
        out.extend([(j + o, x * f) for j, x in nz])
    return d, out


def _shifted(rows, o):
    """Canonical rows with every column moved right by o; at o = 0 the
    rows themselves, shared."""
    if not o:
        return rows
    return [(d, [(j + o, x) for j, x in nz]) for d, nz in rows]


def _fraction_entries(form, cols):
    """The Fraction entries, row-major, of a matrix given by its canonical
    rows."""
    out = []
    for d, nz in form:
        row = [Q0] * cols
        for j, x in nz:
            row[j] = Fraction(x, d)
        out.extend(row)
    return tuple(out)


class Matrix:
    """Immutable matrix over Q, stored as its canonical integer rows: row
    i is (d, [(column, numerator), ...]) with d > 0, columns ascending, no
    zero numerators and gcd(d, numerators) = 1; a zero row is (1, []).
    The form is unique, so equal matrices have equal forms, and every
    producer in the package writes it directly.  `entries`, the row-major
    tuple of Fractions, is built from the form when first read and kept;
    only the edges read it (reports, `.qvr` output, indexing, `apply`).
    The constructor and `from_rows`/`from_cols` take any rationals and
    clear them once (`_cleared`)."""

    __slots__ = ("rows", "cols", "_form", "_entries", "_common_form")

    def __init__(self, rows, cols, entries):
        entries = [x if type(x) is int or type(x) is Fraction else Fraction(x)
                   for x in entries]
        if len(entries) != rows * cols:
            raise ShapeError(f"expected {rows}x{cols}={rows*cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._form = [_cleared(enumerate(entries[i * cols:(i + 1) * cols]))
                      for i in range(rows)]
        self._entries = self._common_form = None

    @staticmethod
    def _raw(rows, cols, form):
        """Internal constructor for a list of rows known to be canonical."""
        m = Matrix.__new__(Matrix)
        m.rows = rows
        m.cols = cols
        m._form = form
        m._entries = m._common_form = None
        return m

    @property
    def entries(self):
        """The entries, row-major, as a tuple of Fractions."""
        if self._entries is None:
            self._entries = _fraction_entries(self._form, self.cols)
        return self._entries

    def _common_ints(self):
        """(d, rows): every row's nonzero entries as (column, numerator)
        pairs over one common denominator d, computed on first use and
        kept."""
        if self._common_form is None:
            rows = self._form
            d = lcm(*[r for r, _ in rows])
            self._common_form = (d, [[(j, x * (d // r)) for j, x in nz] if r != d else nz
                                     for r, nz in rows])
        return self._common_form

    @staticmethod
    def from_rows(rows_of_entries, cols=None):
        rows = list(rows_of_entries)
        if not rows:
            if cols is None:
                cols = 0
            return Matrix(0, cols, ())
        cols = len(rows[0])
        for r in rows:
            if len(r) != cols:
                raise ShapeError("ragged rows")
        return Matrix(len(rows), cols, [x for r in rows for x in r])

    @staticmethod
    def from_cols(cols_of_entries, rows):
        """The matrix with these columns, each of `rows` entries."""
        cols = list(cols_of_entries)
        if any(len(c) != rows for c in cols):
            raise ShapeError("ragged columns")
        return Matrix(rows, len(cols), [c[i] for i in range(rows) for c in cols])

    @staticmethod
    def identity(n):
        if n < 0:
            raise ShapeError(f"negative matrix size {n}x{n}")
        return Matrix._raw(n, n, [(1, [(i, 1)]) for i in range(n)])

    @staticmethod
    def zero(rows, cols):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative matrix size {rows}x{cols}")
        return Matrix._raw(rows, cols, [_ZERO_ROW] * rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        """Each column of m over the lcm of the row denominators, made
        canonical."""
        form = self._form
        d = lcm(*[r for r, _ in form])
        cols = [[] for _ in range(self.cols)]
        for i, (r, nz) in enumerate(form):
            f = d // r
            for j, x in nz:
                cols[j].append((i, x * f))
        return Matrix._raw(self.cols, self.rows, [_canonical(d, c) for c in cols])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._form == other._form)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple((d, tuple(nz)) for d, nz in self._form)))

    def _combine(self, other, sign):
        """self + sign * other, row by row over the lcm of the two rows'
        denominators."""
        form = []
        for (d1, a), (d2, b) in zip(self._form, other._form):
            if not b:
                form.append((d1, a))
            elif not a:
                form.append((d2, b if sign > 0 else [(j, -x) for j, x in b]))
            else:
                d = lcm(d1, d2)
                f1, f2 = d // d1, sign * (d // d2)
                acc = {j: x * f1 for j, x in a}
                for j, x in b:
                    acc[j] = acc.get(j, 0) + x * f2
                form.append(_canonical(d, sorted((j, x) for j, x in acc.items() if x)))
        return Matrix._raw(self.rows, self.cols, form)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition shape mismatch")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return self._combine(other, 1)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix subtraction shape mismatch")
        return self._combine(other, -1)

    def __neg__(self):
        return Matrix._raw(self.rows, self.cols,
                           [(d, [(j, -x) for j, x in nz]) for d, nz in self._form])

    def scale(self, c):
        """c times the matrix: itself at c = 1 and its negation at c = -1,
        whose rows stay canonical."""
        if c == 1:
            return self
        if c == -1:
            return -self
        c = frac(c)
        if not c:
            return Matrix.zero(self.rows, self.cols)
        p, q = c.numerator, c.denominator
        return Matrix._raw(self.rows, self.cols,
                           [_canonical(d * q, [(j, x * p) for j, x in nz])
                            for d, nz in self._form])

    def __mul__(self, other):
        """Matrix product (see `_int_product`), or scaling by a number.
        An all-zero operand gives the zero product at once."""
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if self.is_zero() or other.is_zero():
            return Matrix.zero(self.rows, other.cols)
        return _from_int_rows(self.rows, other.cols, _int_product(self, other))

    __rmul__ = scale

    def apply(self, vec):
        """Matrix times column vector (tuple of Fractions), summed over the
        nonzero entries of each row only."""
        if len(vec) != self.cols:
            raise ShapeError("vector length mismatch")
        out = []
        for d, nz in self._form:
            acc = Q0
            for j, x in nz:
                y = vec[j]
                if y:
                    acc += x * y
            out.append(acc / d if d != 1 else acc)
        return tuple(out)

    def is_zero(self):
        for _, nz in self._form:
            if nz:
                return False
        return True

    def hstack(self, *others):
        """self and the matrices `others` side by side."""
        if any(b.rows != self.rows for b in others):
            raise ShapeError("hstack row mismatch")
        blocks = (self,) + others
        offsets, cols = block_offsets(range(len(blocks)), lambda k: blocks[k].cols)
        return Matrix._raw(self.rows, cols,
                           [_joined([(b._form[i], offsets[k]) for k, b in enumerate(blocks)])
                            for i in range(self.rows)])

    def vstack(self, *others):
        """self and the matrices `others` one below the other."""
        if any(b.cols != self.cols for b in others):
            raise ShapeError("vstack column mismatch")
        form = list(self._form)
        for b in others:
            form.extend(b._form)
        return Matrix._raw(len(form), self.cols, form)

    def submatrix(self, row_idx, col_idx):
        """The rows row_idx and columns col_idx of m, in those orders.  A
        contiguous ascending range of columns is cut out of each row, all
        of them share the rows themselves."""
        form = [self._form[i] for i in row_idx]
        if col_idx == range(self.cols):
            return Matrix._raw(len(form), self.cols, form)
        if isinstance(col_idx, range) and col_idx.step == 1:
            lo, hi = col_idx.start, col_idx.stop
            form = [_canonical(d, [(j - lo, x) for j, x in nz if lo <= j < hi])
                    for d, nz in form]
        else:
            where = {}
            for k, c in enumerate(col_idx):
                where.setdefault(c, []).append(k)
            form = [_canonical(d, sorted((k, x) for j, x in nz if j in where
                                         for k in where[j]))
                    for d, nz in form]
        return Matrix._raw(len(form), len(col_idx), form)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.row_list()!r})"


def _from_int_rows(rows, cols, int_rows):
    """The rows x cols matrix whose row i is int_rows[i] = (numerators,
    d): a dense list of ints over d > 0."""
    return Matrix._raw(rows, cols, [_canonical(d, [(j, x) for j, x in enumerate(acc) if x])
                                    for acc, d in int_rows])


def _int_product(a: Matrix, b: Matrix):
    """The product a b over the integers: one pair (numerators, d) per row
    of a, that row of a b being the numerators over d.  Each row of a is
    on its own common denominator and b on one common denominator (the
    matrices' kept integer forms), so the sums run over Python ints and
    zero entries are skipped.  Shapes are the caller's to check."""
    p = b.cols
    db, bnz = b._common_ints()
    out = []
    for da, nz in a._form:
        acc = [0] * p
        for k, x in nz:
            for j, y in bnz[k]:
                acc[j] += x * y
        out.append((acc, da * db))
    return out


def product_is_zero(a: Matrix, b: Matrix) -> bool:
    """Whether a b = 0, decided on the integer numerators of the product
    without forming its Fractions."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return not any(any(acc) for acc, _ in _int_product(a, b))


def products_equal(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> bool:
    """Whether a b = c d, decided row by row on the integer numerators of
    the two products, each cross-multiplied by the other's denominator,
    without forming their Fractions."""
    if a.cols != b.rows or c.cols != d.rows:
        raise ShapeError("cannot multiply: inner sizes differ")
    if (a.rows, b.cols) != (c.rows, d.cols):
        raise ShapeError("products of different shapes")
    for (x, dx), (y, dy) in zip(_int_product(a, b), _int_product(c, d)):
        if dx == dy:
            if x != y:
                return False
        elif any(u * dy != v * dx for u, v in zip(x, y)):
            return False
    return True


def block_offsets(keys, size):
    """Blocks laid end to end in the order of `keys`, block k being
    size(k) long: ({key: offset of its block}, total length)."""
    offsets = {}
    total = 0
    for k in keys:
        offsets[k] = total
        total += size(k)
    return offsets, total


def block_diag(blocks):
    form = []
    c = 0
    for b in blocks:
        form.extend(_shifted(b._form, c))
        c += b.cols
    return Matrix._raw(len(form), c, form)


# -- the echelon kernel -------------------------------------------------------
#
# A row is a dict {column: int} without zeros.  An echelon form is a dict
# {pivot column: row}, each row pivoting at its least column.

def _primitive(x):
    """Divide the nonzero row x, in place, by the gcd of its entries, signed
    so that the entry at its least column turns positive: proportional
    rows become equal."""
    g = gcd(*x.values())
    if x[min(x)] < 0:
        g = -g
    if g != 1:
        for k in x:
            x[k] //= g


def _clear(x, c, r):
    """Make row x zero at column c, in place, with the row r that pivots
    there: x - (x[c] / r[c]) r when r[c] divides x[c], and otherwise the
    fraction-free a x - b r, a : b being r[c] : x[c] in lowest terms,
    made primitive."""
    a, f = r[c], x[c]
    q, m = divmod(f, a)
    if m:
        g = gcd(a, f)
        a, q = a // g, f // g
        for k in x:
            x[k] *= a
    for k, v in r.items():
        nv = x.get(k, 0) - q * v
        if nv:
            x[k] = nv
        else:
            del x[k]
    if m and x:
        _primitive(x)


def _forward(rows):
    """The forward pass: the echelon form of the rows, which it consumes.
    Each row is cleared at its least column while a kept row pivots there;
    a row left nonzero is kept at that column, a zero row dropped."""
    echelon = {}
    for x in rows:
        while x:
            c = min(x)
            r = echelon.get(c)
            if r is None:
                echelon[c] = x
                break
            _clear(x, c, r)
    return echelon


def _reduce(x, echelon):
    """Clear x, in place, at every pivot column of `echelon` it contains;
    each row of `echelon` must be zero at the other rows' pivots."""
    for c in [c for c in x if c in echelon]:
        _clear(x, c, echelon[c])


def _back_substitute(echelon):
    """The reduced echelon form of a forward echelon form, whose rows it
    reuses: in descending pivot order, each row is cleared at the pivots
    above its own, whose rows are reduced already."""
    reduced = {}
    for c in sorted(echelon, reverse=True):
        _reduce(echelon[c], reduced)
        reduced[c] = echelon[c]
    return reduced


def _rref_rows(echelon):
    """The rows of a reduced echelon form in ascending pivot order, each
    over its pivot entry: the nonzero rows of the RREF, canonical."""
    return [_canonical(echelon[c][c], sorted(echelon[c].items())) for c in sorted(echelon)]


def _int_echelon(m: Matrix):
    """The forward echelon form of the rows of m, read from its canonical
    rows, which stay as they are."""
    return _forward(dict(nz) for _, nz in m._form)


def rref(m: Matrix):
    """Reduced row-echelon form.  Returns (rref_matrix, pivot_columns).

    The echelon kernel's forward pass and back substitution on the rows
    of m; each row is read over its pivot entry."""
    echelon = _back_substitute(_int_echelon(m))
    form = _rref_rows(echelon)
    form.extend([_ZERO_ROW] * (m.rows - len(echelon)))
    return Matrix._raw(m.rows, m.cols, form), tuple(sorted(echelon))


def rank(m: Matrix) -> int:
    """The number of pivots of the echelon kernel's forward pass on the
    rows of m."""
    return len(_int_echelon(m))


class Subspace:
    """A subspace of Q^n, stored as independent basis rows in RREF."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis: Matrix):
        if basis.cols != ambient_dim:
            raise ShapeError("basis width differs from ambient dimension")
        r, piv = rref(basis)
        self.ambient_dim = ambient_dim
        self.basis = r.submatrix(range(len(piv)), range(ambient_dim))

    @property
    def dim(self):
        return self.basis.rows

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_rows(m: Matrix):
    """{x : m x = 0} as (rows, free columns): one row per free column fc
    of the RREF, 1 at fc and minus the RREF's column fc at the pivots.
    As a matrix the rows also project Q^cols onto the free coordinates
    with kernel the row space of m: the quotient by that row space."""
    r, pivots = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    at = {fc: [] for fc in free}
    for pc, (d, nz) in zip(pivots, r._form):
        for fc, x in nz:
            if fc != pc:
                at[fc].append((pc, x, d))
    rows = []
    for fc in free:
        d = lcm(*[rd for _, _, rd in at[fc]])
        rows.append(_canonical(d, sorted([(fc, d)] + [(pc, -x * (d // rd))
                                                       for pc, x, rd in at[fc]])))
    return Matrix._raw(len(rows), m.cols, rows), free


def kernel_basis(m: Matrix) -> Subspace:
    """Basis of {x : m x = 0}, one row per free column of the RREF."""
    return Subspace(m.cols, kernel_rows(m)[0])


def image_basis(m: Matrix) -> Subspace:
    """Column space of m, as a subspace of Q^rows."""
    return Subspace(m.rows, m.transpose())


def solve(m: Matrix, rhs):
    """One solution x of m x = rhs, or None if inconsistent."""
    if len(rhs) != m.rows:
        raise ShapeError("rhs length differs from row count")
    x = solve_matrix(m, Matrix(m.rows, 1, rhs))
    return None if x is None else x.col(0)


def solve_matrix(m: Matrix, rhs: Matrix):
    """One solution X of m X = rhs, or None if any column is inconsistent;
    a single elimination of the block-augmented matrix solves all columns.

    When every column j of m has a unit row e_j, as the inclusion of an
    RREF basis has at each pivot, m has full column rank and X can only be
    rhs read at those rows: it is returned when m X = rhs, without an
    elimination."""
    if rhs.rows != m.rows:
        raise ShapeError("rhs row count mismatch")
    n = m.cols
    unit = {}
    for i, (d, nz) in enumerate(m._form):
        if d == 1 and len(nz) == 1 and nz[0][1] == 1:
            unit.setdefault(nz[0][0], i)
    if len(unit) == n:
        x = Matrix._raw(n, rhs.cols, [rhs._form[unit[j]] for j in range(n)])
        return x if m * x == rhs else None
    r, pivots = rref(m.hstack(rhs))
    if any(p >= n for p in pivots):
        return None
    form = [_ZERO_ROW] * n
    for p, (d, nz) in zip(pivots, r._form):
        form[p] = _canonical(d, [(j - n, x) for j, x in nz if j >= n])
    return Matrix._raw(n, rhs.cols, form)


# -- polynomials (tuple of Fractions, lowest degree first) --------------------

def poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_mul(p, q):
    out = [Q0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return poly_trim(out)


def poly_format(p):
    """Human-readable form, e.g. 'x^2 - 3/2*x + 1'."""
    p = poly_trim(p)
    if len(p) == 1:     # a constant, zero included
        return str(p[0])
    parts = []
    for d in range(len(p) - 1, -1, -1):
        c = p[d]
        if c == 0:
            continue
        if d == 0:
            term = str(abs(c))
        else:
            xs = "x" if d == 1 else f"x^{d}"
            term = xs if abs(c) == 1 else f"{abs(c)}*{xs}"
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


def _strongly_connected_components(n, succ):
    """Tarjan; returns components in reverse topological order."""
    index = count()
    idx = [None] * n
    low = [0] * n
    on = [False] * n
    stack = []
    comps = []

    def visit(v0):
        work = [(v0, iter(succ[v0]))]
        idx[v0] = low[v0] = next(index)
        stack.append(v0)
        on[v0] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if idx[w] is None:
                    idx[w] = low[w] = next(index)
                    stack.append(w)
                    on[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                elif on[w]:
                    low[v] = min(low[v], idx[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == idx[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)

    for v in range(n):
        if idx[v] is None:
            visit(v)
    return comps


def _berkowitz(a):
    """det(tI - a) for a square integer matrix a (a list of rows), highest
    degree first, by Berkowitz's division-free algorithm (1984).  Step k
    borders the leading k x k block B with the column c above the
    diagonal, the row r left of it and the corner x; the new polynomial is
    the old one convolved with (1, -x, -r c, -r B c, ..., -r B^(k-1) c),
    truncated to degree k + 1."""
    p = [1]
    for k, row in enumerate(a):
        block = [[(j, y) for j, y in enumerate(a[i][:k]) if y] for i in range(k)]
        r = row[:k]
        v = [a[i][k] for i in range(k)]
        t = [1, -row[k]]
        for s in range(k):
            t.append(-sum(x * y for x, y in zip(r, v) if x))
            if s < k - 1:
                v = [sum(y * v[j] for j, y in brow) for brow in block]
        p = [sum(t[i - j] * p[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return p


def _char_poly_dense(m: Matrix):
    """det(dt I - dm) = d^n det(tI - m), d the lcm of the denominators of
    m, as an integer polynomial: with c_i the coefficient of s^(n-i) in
    det(sI - dm) from Berkowitz, the coefficient of t^k is c_(n-k) d^k."""
    n = m.rows
    d, rows = m._common_ints()
    c = _berkowitz([[dict(nz).get(j, 0) for j in range(n)] for nz in rows])
    return [c[n - k] * d ** k for k in range(n + 1)]


def char_poly(m: Matrix, factors=None):
    """Monic characteristic polynomial det(tI - m), exact over Q.

    One primitive integer factor per strongly connected component of the
    nonzero pattern: (bt - a) for a 1 x 1 block a/b, and for a larger
    block B the primitive part of `_char_poly_dense(B)`.  The factors
    multiply as integer lists, and each coefficient becomes one Fraction
    over the leading coefficient of the product.  A list passed as
    `factors` receives the factors (`char_poly_roots` reads roots off
    them)."""
    if m.rows != m.cols:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    succ = [[j for j, _ in nz if j != i] for i, (_, nz) in enumerate(m._form)]
    found = []
    for comp in _strongly_connected_components(m.rows, succ):
        if len(comp) == 1:
            d, nz = m._form[comp[0]]
            found.append(_primitive_part([-dict(nz).get(comp[0], 0), d]))
        else:
            found.append(_primitive_part(_char_poly_dense(m.submatrix(comp, comp))))
    if factors is not None:
        factors.extend(found)
    p = [1]
    for f in found:
        p = _int_poly_mul(p, f)
    return tuple(Fraction(c, p[-1]) if c else Q0 for c in p)


def char_poly_roots(x: Matrix, y: Matrix = None):
    """(char poly, rational roots with multiplicity, whether it splits over
    Q) of x, or of x y when y is given: `rational_roots(char_poly(...))`,
    each root found in the factor of `char_poly` that has it.  A product
    is taken from its smaller side, det(tI_n - x y) = t^(n-k) det(tI_k -
    y x) when n >= k, with n - k zero roots."""
    pad = 0
    if y is None:
        m = x
    elif x.cols != y.rows or x.rows != y.cols:
        raise ShapeError(f"x y is not square for {x.rows}x{x.cols} by {y.rows}x{y.cols}")
    elif x.rows <= x.cols:
        m = x * y
    else:
        m, pad = y * x, x.rows - x.cols
    factors = []
    p = char_poly(m, factors)
    roots = {(0, 1): pad} if pad else {}
    left = sum(_add_roots(f, roots) for f in factors)
    return (Q0,) * pad + p, _root_list(roots), left == 0


def integer_roots(p):
    """The set of integer roots of p, as ints: the integral members of
    `rational_roots(p)`."""
    return {int(r) for r in rational_roots(p)[0] if r.denominator == 1}


def det(m: Matrix) -> Fraction:
    """Determinant, (-1)^n times the constant term of det(tI - m)."""
    if m.rows != m.cols:
        raise ShapeError("determinant of a non-square matrix")
    c = char_poly(m)[0]
    return -c if m.rows % 2 else c


def rational_roots(p):
    """All rational roots of p with multiplicity, zero first and then
    ascending, read off p times the lcm of its denominators
    (`_add_roots`).  Returns (roots, fully_split)."""
    p = poly_trim(p)
    if all(c == 0 for c in p):
        raise ShapeError("rational_roots of the zero polynomial")
    d = lcm(*{c.denominator for c in p})
    roots = {}
    left = _add_roots([c.numerator * (d // c.denominator) for c in p], roots)
    return _root_list(roots), left == 0


# -- integer polynomials (lists of ints, lowest degree first) ----------------

def _int_poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _primitive_part(p):
    """The nonzero polynomial p over the gcd of its coefficients, signed
    so that the leading one is positive."""
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    return p if g == 1 else [c // g for c in p]


def _int_poly_gcd(a, b):
    """The primitive gcd of integer polynomials a and b, b primitive, by
    primitive pseudo-remainders; by Gauss's lemma it is the gcd over Q and
    divides a and b in Z[x]."""
    while b:
        db, lb = len(b) - 1, b[-1]
        while a and len(a) > db:
            g = gcd(a[-1], lb)
            fa, fb = lb // g, a[-1] // g
            shift = len(a) - 1 - db
            a = [c * fa for c in a]
            for j, c in enumerate(b):
                a[shift + j] -= fb * c
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, _primitive_part(a) if a else a
    return a


def _divisors(n):
    """The positive divisors of the int n != 0, by trial division that
    divides out each prime found (the numbers read here are smooth)."""
    n = abs(n)
    out = [1]
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out = [d * p ** e for d in out for e in range(k + 1)]
        p += 1 if p == 2 else 2
    return out + [d * n for d in out] if n > 1 else out


def _divide_linear(c, pn, qd):
    """The integer quotient of the polynomial c by (qd x - pn), or None
    when it does not divide c.  With gcd(pn, qd) = 1, Gauss's lemma makes
    divisibility over Q and over Z the same, so None means pn/qd is not a
    root."""
    q = [0] * (len(c) - 1)
    acc = c[-1]
    for i in range(len(c) - 1, 0, -1):
        # acc = c_i + pn q_i, and c_i = qd q_(i-1) - pn q_i
        if acc % qd:
            return None
        q[i - 1] = acc // qd
        acc = c[i - 1] + pn * q[i - 1]
    return q if acc == 0 else None


def _add_roots(c, roots):
    """Count the rational roots of the nonzero integer polynomial c into
    `roots`, {(numerator, denominator > 0): multiplicity}; return the
    degree of what is left of c with them divided out.  Candidates p/q
    come from the rational root theorem on the squarefree part c / gcd(c,
    c') of c's primitive part, which keeps the integers to factor small:
    p divides its constant, q its leading coefficient.  A candidate
    passing the tests at 1 and -1 is divided out of c while it divides."""
    z = 0
    while c[z] == 0:
        z += 1
    if z:
        roots[(0, 1)] = roots.get((0, 1), 0) + z
        c = c[z:]
    if len(c) == 1:
        return 0
    c = _primitive_part(c)
    if len(c) == 2:
        roots[(-c[0], c[1])] = roots.get((-c[0], c[1]), 0) + 1
        return 0
    g = _int_poly_gcd(c, _primitive_part([i * x for i, x in enumerate(c)][1:]))
    leads = _divisors(c[-1] // g[-1])
    # a root pn/qd of c makes (qd - pn) divide c(1) and (qd + pn) divide c(-1)
    at1, at_minus1 = sum(c), sum(c[::2]) - sum(c[1::2])
    for p in _divisors(c[0] // g[0]):
        for qd in leads:
            for pn in (p, -p) if gcd(p, qd) == 1 else ():
                if (at1 % (qd - pn) if qd != pn else at1) or \
                        (at_minus1 % (qd + pn) if qd != -pn else at_minus1):
                    continue
                k = 0
                q = _divide_linear(c, pn, qd)
                while q is not None:
                    c, k = q, k + 1
                    q = _divide_linear(c, pn, qd)
                if k:
                    roots[(pn, qd)] = roots.get((pn, qd), 0) + k
                    if len(c) == 1:
                        return 0
    return len(c) - 1


def _root_list(roots):
    """The roots counted by `_add_roots` as a list of Fractions with
    multiplicity: zero first, then the others ascending."""
    zeros = roots.pop((0, 1), 0)
    found = sorted((Fraction(p, q), k) for (p, q), k in roots.items())
    return [Q0] * zeros + [r for r, k in found for _ in range(k)]


# -- chain complexes -----------------------------------------------------------

class ChainComplex:
    """A finite complex of Q-vector spaces, cochain convention (d raises
    degree).  differentials[k] maps degree min_degree+k to min_degree+k+1
    and has shape dims[k+1] x dims[k]."""

    __slots__ = ("min_degree", "dims", "differentials")

    def __init__(self, min_degree, dims, differentials):
        dims = tuple(int(d) for d in dims)
        differentials = tuple(differentials)
        if len(differentials) != max(len(dims) - 1, 0):
            raise ShapeError("need one differential per consecutive degree pair")
        for k, d in enumerate(differentials):
            if (d.rows, d.cols) != (dims[k + 1], dims[k]):
                raise ShapeError(f"differential {k} has shape {d.rows}x{d.cols}, "
                                 f"expected {dims[k+1]}x{dims[k]}")
        for k in range(len(differentials) - 1):
            if not product_is_zero(differentials[k + 1], differentials[k]):
                raise InvalidComplexError(f"d_{k+1} d_{k} != 0")
        self.min_degree = min_degree
        self.dims = dims
        self.differentials = differentials

    @property
    def degrees(self):
        return range(self.min_degree, self.min_degree + len(self.dims))

    def differential(self, degree) -> Matrix:
        """d: degree -> degree+1 (zero matrix outside the stored range)."""
        k = degree - self.min_degree
        if 0 <= k < len(self.differentials):
            return self.differentials[k]
        src = self.dims[k] if 0 <= k < len(self.dims) else 0
        tgt = self.dims[k + 1] if 0 <= k + 1 < len(self.dims) else 0
        return Matrix.zero(tgt, src)

    def euler_characteristic(self):
        return sum(-n if d % 2 else n for d, n in zip(self.degrees, self.dims))

    def __eq__(self, other):
        return (isinstance(other, ChainComplex) and self.min_degree == other.min_degree
                and self.dims == other.dims and self.differentials == other.differentials)


def betti(c: ChainComplex):
    """Betti numbers, indexed like c.dims: b[k] = dim ker d_k - rank d_{k-1}.
    Each stored differential is ranked once; the maps into the lowest
    degree and out of the highest are zero."""
    ranks = [0] + [rank(d) for d in c.differentials] + [0]
    return tuple(n - ranks[k + 1] - ranks[k] for k, n in enumerate(c.dims))


class ChainMap:
    """A degreewise map of complexes commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: ChainComplex, target: ChainComplex, components):
        if source.min_degree != target.min_degree or len(source.dims) != len(target.dims):
            raise ShapeError("chain map requires equal gradings")
        components = tuple(components)
        if len(components) != len(source.dims):
            raise ShapeError("need one component per degree")
        for k, f in enumerate(components):
            if (f.rows, f.cols) != (target.dims[k], source.dims[k]):
                raise ShapeError(f"component {k} shape mismatch")
        for k in range(len(components) - 1):
            if not products_equal(components[k + 1], source.differentials[k],
                                  target.differentials[k], components[k]):
                raise InvalidComplexError(f"does not commute with d in degree {k}")
        self.source = source
        self.target = target
        self.components = components


def subcomplex(c: ChainComplex, subspaces) -> ChainComplex:
    """The differential of c restricted to one Subspace per degree, in the
    coordinates of their bases; raises when d does not carry each
    subspace into the next."""
    incs = [s.basis.transpose() for s in subspaces]
    diffs = []
    for k in range(len(incs) - 1):
        d = solve_matrix(incs[k + 1], c.differentials[k] * incs[k])
        if d is None:
            raise InvalidComplexError("subspaces not preserved by the differential")
        diffs.append(d)
    return ChainComplex(c.min_degree, [s.dim for s in subspaces], diffs)


def image_complex(f: ChainMap) -> ChainComplex:
    """The image of a chain map, with the differential induced from the target."""
    return subcomplex(f.target, [image_basis(comp) for comp in f.components])
