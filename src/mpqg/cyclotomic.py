"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are represented by their coordinates in the power basis
1, z, ..., z^(phi(n)-1) modulo the n-th cyclotomic polynomial Phi_n.

* Coefficients follow the rule of `scalars`: an ``int`` when integral and a
  ``Fraction`` otherwise, never a float or bool.  Every division builds
  ``Fraction(a, b)``, never ``a / b``.  ``cyclotomic_polynomial`` is monic
  with ``int`` coefficients.
* Products reduce through a table built once per order: row k holds
  x^k mod Phi_n as an ``int`` tuple, for 0 <= k < max(n, 2*phi - 1).
  ``zeta(n, k)`` is row k.  A product of two one-term elements is a scaled
  row; any other product convolves the coefficient lists and folds each
  coefficient of degree phi or more back through the table.
* Rational operands (``int``, ``Fraction``) act on the coefficients
  directly.
* The extended Euclidean algorithm over Q is used only by ``inverse``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .scalars import _rational


def _exact(values):
    """A coefficient tuple from ints and Fractions: integral values as int."""
    return tuple(v if type(v) is int or v.denominator != 1 else v.numerator
                 for v in values)


def _poly_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _poly_divmod(a, b):
    """Quotient and remainder of coefficient lists (low to high) over Q;
    b has a nonzero leading coefficient."""
    a = _poly_trim(list(a))
    q = [0] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b):
        c = _rational(Fraction(a[-1], lead))
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] -= c * y
        _poly_trim(a)
    return _poly_trim(q), a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("order must be positive")
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod(num, cyclotomic_polynomial(d))
            if r:
                raise ArithmeticError("cyclotomic division left a remainder")
            num = q
    return tuple(num)


@lru_cache(maxsize=None)
def reduction_table(n: int):
    """Row k is x^k mod Phi_n (an int tuple of length phi), for
    0 <= k < max(n, 2*phi - 1): every power a product of two reduced
    elements reaches, and every exponent of zeta_n."""
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    row = [1] + [0] * (phi - 1)
    rows = []
    for _ in range(max(n, 2 * phi - 1)):
        rows.append(tuple(row))
        # times x: x^phi = -(poly[0] + ... + poly[phi-1] x^(phi-1))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            for i in range(phi):
                row[i] -= top * poly[i]
    return tuple(rows)


def _fold(c, rows):
    """Coefficients c of 1, x, x^2, ... (len(c) <= len(rows)) reduced
    modulo Phi_n: each one of degree phi or more goes through its row."""
    phi = len(rows[0])
    out = c[:phi]
    for k in range(phi, len(c)):
        t = c[k]
        if t:
            for i, r in enumerate(rows[k]):
                if r:
                    out[i] += t * r
    return _exact(out)


def _reduced(order, coeffs):
    """The element with an already reduced coefficient tuple."""
    out = object.__new__(CyclotomicElement)
    out.order = order
    out.coeffs = coeffs
    return out


def _rational_operand(other):
    """other as an exact rational, or None when it is not an int or Fraction."""
    return _rational(other) if isinstance(other, (int, Fraction)) else None


class CyclotomicElement:
    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        rows = reduction_table(order)
        c = [0] * len(rows)
        for k, v in enumerate(coeffs):
            c[k % order] += _rational(v)  # x^n = 1 modulo Phi_n
        self.order = order
        self.coeffs = _fold(c, rows)

    def _check_order(self, other):
        if other.order != self.order:
            raise ValueError(
                f"mixed cyclotomic orders {self.order} and {other.order}"
            )

    def _shift(self, c):
        """self + c for a rational c."""
        if not c:
            return self
        head = self.coeffs[0] + c
        if type(head) is not int and head.denominator == 1:
            head = head.numerator
        return _reduced(self.order, (head,) + self.coeffs[1:])

    def __add__(self, other):
        if type(other) is CyclotomicElement:
            self._check_order(other)
            return _reduced(self.order, _exact(
                [a + b for a, b in zip(self.coeffs, other.coeffs)]))
        c = _rational_operand(other)
        if c is None:
            return NotImplemented
        return self._shift(c)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if type(other) is CyclotomicElement:
            self._check_order(other)
            return _reduced(self.order, _exact(
                [a - b for a, b in zip(self.coeffs, other.coeffs)]))
        c = _rational_operand(other)
        if c is None:
            return NotImplemented
        return self._shift(-c)

    def __rsub__(self, other):
        c = _rational_operand(other)
        if c is None:
            return NotImplemented
        return (-self)._shift(c)

    def __mul__(self, other):
        n = self.order
        if type(other) is not CyclotomicElement:
            c = _rational_operand(other)
            if c is None:
                return NotImplemented
            return _reduced(n, _exact([c * a for a in self.coeffs]))
        self._check_order(other)
        rows = reduction_table(n)
        a = [(i, x) for i, x in enumerate(self.coeffs) if x]
        b = [(j, y) for j, y in enumerate(other.coeffs) if y]
        if len(a) == 1 and len(b) == 1:
            (i, x), = a
            (j, y), = b
            row = rows[i + j]
            c = x * y
            if type(c) is int:
                return _reduced(n, row if c == 1 else tuple(c * r for r in row))
            return _reduced(n, _exact([c * r for r in row]))
        phi = len(self.coeffs)
        out = [0] * (2 * phi - 1)
        for i, x in a:
            for j, y in b:
                out[i + j] += x * y
        return _reduced(n, _fold(out, rows))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is CyclotomicElement:
            self._check_order(other)
            return self * other.inverse()
        c = _rational_operand(other)
        if c is None:
            return NotImplemented
        return self * Fraction(1, c)

    def __rtruediv__(self, other):
        c = _rational_operand(other)
        if c is None:
            return NotImplemented
        return self.inverse() * c

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverting zero cyclotomic element")
        # extended Euclid: s*self + t*Phi = 1 in Q[x]
        r0, r1 = list(cyclotomic_polynomial(self.order)), _poly_trim(list(self.coeffs))
        s0, s1 = [], [1]
        while True:
            q, r = _poly_divmod(r0, r1)
            if not r:
                break
            # s = s0 - q*s1
            s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))
            for i, x in enumerate(q):
                for j, y in enumerate(s1):
                    s[i + j] -= x * y
            r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)
        lead = r1[-1]
        if len(r1) != 1:
            raise ArithmeticError("cyclotomic polynomial is not irreducible")
        return CyclotomicElement(self.order, [Fraction(c, lead) for c in s1])

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("cyclotomic power must be int")
        if k < 0:
            return self.inverse() ** (-k)
        out = zeta(self.order, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if type(other) is CyclotomicElement:
            self._check_order(other)
            return self.coeffs == other.coeffs
        c = _rational_operand(other)
        if c is None:
            return NotImplemented
        return self.coeffs[0] == c and not any(self.coeffs[1:])

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def multiplicative_order(self):
        """Smallest d with self^d == 1, or None if self is not a root of
        unity of order dividing self.order."""
        for d in sorted(_divisors(self.order)):
            if self ** d == 1:
                return d
        return None

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"z{self.order}^{i}" if i > 1 else f"z{self.order}")
            else:
                parts.append(f"{c}*z{self.order}^{i}" if i > 1 else f"{c}*z{self.order}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def zeta(order: int, k: int = 1):
    """zeta_order^k as a CyclotomicElement."""
    k %= order
    return _reduced(order, reduction_table(order)[k])


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


class RootOfUnity:
    """Symbolic marker: zeta_order^exponent, used in specialization
    assignments so fractional exponents resolve exactly."""

    __slots__ = ("order", "exponent")

    def __init__(self, order: int, exponent: int = 1):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        self.exponent = exponent % order

    def __repr__(self):
        return f"RootOfUnity({self.order}, {self.exponent})"
