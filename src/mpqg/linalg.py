"""Exact linear algebra over any field-like coefficient type.

Entries must support +, -, *, /, unary - and truthiness (nonzero test).
Works for Fraction, Scalar and CyclotomicElement alike.  Vectors are plain
dicts key -> coefficient that never store a zero; `add_into` sums them in
place and `Echelon` is the one elimination.  `Matrix` is a dense container
(module action matrices and their products) whose `det`, `solve` and
`kernel_basis` run on an `Echelon` keyed by column index.
"""

from __future__ import annotations


def add_into(d, terms, c=None):
    """d += c * terms in place on a plain key -> coefficient dict (c = None
    adds terms unscaled).  A key whose coefficient cancels is dropped, so d
    never stores a zero; surviving keys keep their place and new ones are
    appended.  Every sum of word maps goes through it (products,
    coproducts, `Echelon` row operations, antipodes, adjoint actions,
    twists, relation expressions) except the product walk's `emit` and the
    cross-check oracles."""
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
    """

    def __init__(self, one, key=None):
        self.one = one
        self.key = key
        self.rows = {}

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec):
        """The remainder of vec modulo the span, as a new dict."""
        d = dict(vec)
        for pw, row in self.rows.items():
            c = d.get(pw)
            if c is not None:
                add_into(d, row, -c)
        return d

    def add(self, vec):
        """(pivot key, pivot value before normalisation) when vec was
        independent of the span (it is now inside), else None."""
        d = self.reduce(vec)
        if not d:
            return None
        pw = min(d, key=self.key)
        piv = d[pw]
        inv = self.one / piv
        for w, v in d.items():
            d[w] = inv * v
        for qw, row in self.rows.items():
            c = row.get(pw)
            if c is not None:
                new = dict(row)
                add_into(new, d, -c)
                self.rows[qw] = new
        self.rows[pw] = d
        return pw, piv


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
