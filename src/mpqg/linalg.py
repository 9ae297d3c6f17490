"""Exact linear algebra over any field-like coefficient type.

Entries must support +, -, *, /, unary - and truthiness (nonzero test).
Works for Fraction, Scalar and CyclotomicElement alike.  Vectors are plain
dicts key -> coefficient that never store a zero; `add_into` sums them in
place and `Echelon` is the one elimination.  Over Q an `Echelon` keeps its
rows as primitive integer vectors and eliminates fraction-free (Bareiss's
idea, with the gcd of each pair of multipliers cancelled), decoding to
`Fraction`s whatever it hands out; other fields keep rows scaled to one.
`Matrix` is a dense container (module action matrices and their products)
whose `det`, `solve` and `kernel_basis` run on an `Echelon` keyed by column
index.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def add_into(d, terms, c=None):
    """d += c * terms in place on a plain key -> coefficient dict (c = None
    adds terms unscaled).  A key whose coefficient cancels is dropped, so d
    never stores a zero; surviving keys keep their place and new ones are
    appended.  Every sum of word maps goes through it (products,
    coproducts, `Echelon` row operations, antipodes, adjoint actions,
    twists, relation expressions, ideal generators) except the final sum
    of the product walk (`CotensorAlgebra._walk`, behind both the cached
    `word_product` and the uncached `walk_product`), which adds one
    coefficient per path, and the cross-check oracles."""
    if c is not None and not c:
        return
    get = d.get
    for w, v in terms.items():
        if c is not None:
            v = c * v
        s = get(w)
        if s is None:
            d[w] = v
        else:
            s = s + v
            if s:
                d[w] = s
            else:
                del d[w]


class Echelon:
    """Incremental Gauss--Jordan form of a span of dict vectors.

    ``rows`` maps each pivot key to a row with coefficient ``one`` there, in
    insertion order.  The rows are mutually reduced (no row has support on
    another row's pivot), so one pass of `reduce` gives the canonical
    remainder.  A new row pivots on its least key under ``key`` (None: the
    keys' own order, as for column indices).  Row operations run in place
    on plain dicts through `add_into`; a stored row is never mutated but
    replaced, so rows handed out earlier keep their value.

    Over Q (``one`` a `Fraction`) the stored rows are primitive integer
    vectors with a positive pivot entry: each incoming vector is cleared to
    integers over the lcm of its denominators, a row operation is
    d <- a*d - c*row with a the row's pivot entry (after cancelling
    gcd(a, c)), and remainders, pivot values and ``rows`` are decoded back
    to the `Fraction`s that field rows hold.  A vector over Q meets only
    the rows whose pivots it carries, in the order of its own entries:
    clearing one pivot brings in no other, since the rows are mutually
    reduced.  The reduced echelon form and its remainders are unique, so
    only the cost changes.  Other fields keep rows scaled to ``one`` and
    meet every row in insertion order: `Scalar` has no gcd, and the order
    of row operations sets the size of its denominators.
    """

    def __init__(self, one, key=None):
        self.one = one
        self.key = key
        self._int_rows = isinstance(one, Fraction)
        self._rows = {}

    def __len__(self):
        return len(self._rows)

    @property
    def rows(self):
        """Pivot key -> row with coefficient ``one`` at its pivot, in
        insertion order; over Q a fresh decoding of the integer rows."""
        if not self._int_rows:
            return self._rows
        return {pw: {w: Fraction(v, row[pw]) for w, v in row.items()}
                for pw, row in self._rows.items()}

    def _clear(self, d, row, pw):
        """Cancel d's entry at pw, row's pivot, by one row operation in
        place; returns the factor that multiplied d (1 on field rows)."""
        c = d[pw]
        if not self._int_rows:
            add_into(d, row, -c)
            return 1
        g = gcd(row[pw], c)
        a = row[pw] // g
        if a != 1:
            for w in d:
                d[w] *= a
        add_into(d, row, -(c // g))
        return a

    def _eliminate(self, vec):
        """(d, den): the remainder of vec is d / den (den is 1 on field
        rows)."""
        rows = self._rows
        if not self._int_rows:
            d = dict(vec)
            for pw, row in rows.items():
                if pw in d:
                    self._clear(d, row, pw)
            return d, 1
        den = lcm(*[v.denominator for v in vec.values()])
        d = {w: v.numerator * (den // v.denominator) for w, v in vec.items()}
        for pw in [w for w in d if w in rows]:
            den *= self._clear(d, rows[pw], pw)
        return d, den

    def reduce(self, vec):
        """The remainder of vec modulo the span, as a new dict."""
        d, den = self._eliminate(vec)
        if self._int_rows:
            return {w: Fraction(v, den) for w, v in d.items()}
        return d

    def add(self, vec):
        """(pivot key, pivot value before normalisation) when vec was
        independent of the span (it is now inside), else None."""
        d, den = self._eliminate(vec)
        if not d:
            return None
        pw = min(d, key=self.key)
        piv = d[pw]
        if self._int_rows:
            _primitive(d, -1 if piv < 0 else 1)
            piv = Fraction(piv, den)
        else:
            inv = self.one / piv
            for w, v in d.items():
                d[w] = inv * v
        for qw, row in self._rows.items():
            if pw in row:
                new = dict(row)
                self._clear(new, d, pw)
                if self._int_rows:
                    _primitive(new, 1)
                self._rows[qw] = new
        self._rows[pw] = d
        return pw, piv


def _primitive(d, sign):
    """Divide the integer vector d in place by sign times its content."""
    g = sign * gcd(*d.values())
    if g != 1:
        for w, v in d.items():
            d[w] = v // g


def _echelon(rows):
    """Eliminate dense rows in one `Echelon` keyed by column index; returns
    it with what `add` gave for each row.  Its ``one`` is read off the
    first nonzero entry (1 when there is none)."""
    ech = Echelon(next((x / x for row in rows for x in row if x), 1))
    pivots = [ech.add({c: x for c, x in enumerate(row) if x})
              for row in rows]
    return ech, pivots


class Matrix:
    """Dense exact matrix; thin wrapper over a list of rows."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")

    def det(self):
        """The product of the pivot values, signed by the permutation that
        takes each row to its pivot column.  Each row enters the echelon
        minus a combination of the rows before it, which leaves the
        determinant unchanged, and has no support on their pivot columns,
        so the reduced rows are triangular up to that column order."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if not self.rows:
            raise ValueError("determinant of an empty matrix")
        ech, pivots = _echelon(self.rows)
        if not all(pivots):
            return ech.one - ech.one
        cols, vals = zip(*pivots)
        det = vals[0]
        for piv in vals[1:]:
            det = det * piv
        swaps = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1:])
        return -det if swaps % 2 else det

    def solve(self, rhs):
        """One exact solution of self * x = rhs, or None if inconsistent
        (a pivot in the right-hand-side column).  Free variables are set to
        zero."""
        n = self.ncols
        ech, _pivots = _echelon([r + [b] for r, b in zip(self.rows, rhs)])
        if n in ech.rows:
            return None
        zero = ech.one - ech.one
        x = [zero] * n
        for c, row in ech.rows.items():
            x[c] = row.get(n, zero)
        return x

    def kernel_basis(self):
        """Basis of the right kernel, each vector verified by substitution."""
        if self.ncols == 0:
            return []
        ech, _pivots = _echelon(self.rows)
        one, zero = ech.one, ech.one - ech.one
        basis = []
        for fc in range(self.ncols):
            if fc in ech.rows:
                continue
            vec = [zero] * self.ncols
            vec[fc] = one
            for pc, row in ech.rows.items():
                if fc in row:
                    vec[pc] = -row[fc]
            basis.append(vec)
        for vec in basis:
            for row in self.rows:
                acc = None
                for a, b in zip(row, vec):
                    t = a * b
                    acc = t if acc is None else acc + t
                if acc:
                    raise ArithmeticError(
                        "kernel vector failed back-substitution")
        return basis

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("matrix product of mismatched shapes")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = None
                for k in range(self.ncols):
                    t = self.rows[i][k] * other.rows[k][j]
                    acc = t if acc is None else acc + t
                row.append(acc)
            out.append(row)
        return Matrix(out)

    def __sub__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix sum of mismatched shapes")
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix sum of mismatched shapes")
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def scale(self, c):
        return Matrix([[c * a for a in r] for r in self.rows])

    def is_zero(self):
        return all(not x for r in self.rows for x in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(
            a == b for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2)
        )

    __hash__ = None

    def __repr__(self):
        return "Matrix([" + ", ".join(str(r) for r in self.rows) + "])"
