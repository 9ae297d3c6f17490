"""Exact Gaussian elimination over any field-like coefficient type.

Entries must support +, -, *, /, unary -, ** and truthiness (nonzero test).
Works for Fraction, Scalar and CyclotomicElement alike.  Pivots are chosen
by smallest term count to keep symbolic entries from ballooning.
"""

from __future__ import annotations


def _complexity(x):
    num = getattr(x, "num", None)
    if num is not None:  # Scalar
        return len(num.terms) + len(x.den.terms)
    coeffs = getattr(x, "coeffs", None)
    if coeffs is not None:  # CyclotomicElement
        return sum(1 for c in coeffs if c)
    return 1


def _rref(rows, width):
    """Row-reduce in place; returns (rows, pivot_cols)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(width):
        best = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                if best is None or _complexity(rows[i][col]) < _complexity(rows[best][col]):
                    best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][col]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


class Matrix:
    """Dense exact matrix; thin wrapper over a list of rows."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")

    def rank(self):
        if not self.rows:
            return 0
        _, piv = _rref(self.rows, self.ncols)
        return len(piv)

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            raise ValueError("determinant of an empty matrix")
        rows = [list(r) for r in self.rows]
        sign = 1
        det = None
        for col in range(n):
            best = None
            for i in range(col, n):
                if rows[i][col]:
                    if best is None or _complexity(rows[i][col]) < _complexity(rows[best][col]):
                        best = i
            if best is None:
                x = rows[0][0]
                return x - x
            if best != col:
                rows[col], rows[best] = rows[best], rows[col]
                sign = -sign
            piv = rows[col][col]
            det = piv if det is None else det * piv
            for i in range(col + 1, n):
                if rows[i][col]:
                    f = rows[i][col] / piv
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
        if sign < 0:
            det = -det
        return det

    def solve(self, rhs):
        """One exact solution of self * x = rhs, or None if inconsistent.
        Free variables are set to zero."""
        aug = [list(r) + [b] for r, b in zip(self.rows, rhs)]
        red, piv = _rref(aug, self.ncols)
        # inconsistent iff a pivot appears in the rhs column
        for row in red:
            if not any(row[:-1]) and row[-1]:
                return None
        x = [None] * self.ncols
        zero = 0
        for r, c in zip(red, piv):
            x[c] = r[-1]
            zero = r[-1] - r[-1]
        for i in range(self.ncols):
            if x[i] is None:
                x[i] = zero
        return x

    def kernel_basis(self):
        """Basis of the right kernel, each vector verified by substitution."""
        if self.ncols == 0:
            return []
        red, piv = _rref(self.rows, self.ncols)
        one, zero = 1, 0
        for r in red:
            for v in r:
                if v:
                    one, zero = v / v, v - v
                    break
            else:
                continue
            break
        free = [c for c in range(self.ncols) if c not in piv]
        basis = []
        for fc in free:
            vec = [zero] * self.ncols
            vec[fc] = one
            for r, pc in zip(red, piv):
                if r[fc]:
                    vec[pc] = -r[fc]
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

    def mul_vec(self, vec):
        out = []
        for row in self.rows:
            acc = None
            for a, b in zip(row, vec):
                t = a * b
                acc = t if acc is None else acc + t
            out.append(acc)
        return out

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
