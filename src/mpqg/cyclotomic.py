"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are represented by their coordinates in the power basis
1, z, ..., z^(phi(n)-1) modulo the n-th cyclotomic polynomial, with
Fraction coefficients.  Division is by the extended Euclidean algorithm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

F0 = Fraction(0)
F1 = Fraction(1)


def _poly_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _poly_mul(a, b):
    out = [F0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    a = list(a)
    q = [F0] * max(0, len(a) - len(b) + 1)
    inv = F1 / b[-1]
    while len(a) >= len(b) and _poly_trim(a):
        if len(a) < len(b):
            break
        c = a[-1] * inv
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
    num = [F0] * (n + 1)
    num[0], num[n] = -F1, F1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            if r:
                raise ArithmeticError("cyclotomic division left a remainder")
            num = q
    return tuple(num)


class CyclotomicElement:
    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        phi = len(cyclotomic_polynomial(order)) - 1
        c = list(coeffs) + [F0] * (phi - len(coeffs))
        if len(c) > phi:
            _, c = _poly_divmod(c, list(cyclotomic_polynomial(order)))
            c = c + [F0] * (phi - len(c))
        self.order = order
        self.coeffs = tuple(c[:phi])

    @staticmethod
    def from_rational(order, c):
        return CyclotomicElement(order, [Fraction(c)])

    def _coerce(self, other):
        if isinstance(other, CyclotomicElement):
            if other.order != self.order:
                raise ValueError(
                    f"mixed cyclotomic orders {self.order} and {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.from_rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicElement(
            self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = _poly_mul(list(self.coeffs), list(o.coeffs))
        return CyclotomicElement(self.order, prod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self.inverse()

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverting zero cyclotomic element")
        # extended Euclid: s*self + t*Phi = 1 in Q[x]
        r0, r1 = list(cyclotomic_polynomial(self.order)), _poly_trim(list(self.coeffs))
        s0, s1 = [], [F1]
        while True:
            q, r = _poly_divmod(r0, r1)
            if not r:
                break
            s = _poly_trim(
                [
                    (s0[i] if i < len(s0) else F0) - c
                    for i, c in enumerate(_poly_mul(q, s1) + [F0] * len(s0))
                ]
            )
            r0, r1, s0, s1 = r1, r, s1, s
        lead = r1[-1]
        if len(r1) != 1:
            raise ArithmeticError("cyclotomic polynomial is not irreducible")
        inv = [c / lead for c in s1]
        return CyclotomicElement(self.order, inv)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("cyclotomic power must be int")
        if k < 0:
            return self.inverse() ** (-k)
        out = CyclotomicElement.from_rational(self.order, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

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
    coeffs = [F0] * (k + 1)
    coeffs[k] = F1
    return CyclotomicElement(order, coeffs)


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

    def value(self, ambient=None):
        amb = ambient or self.order
        if amb % self.order:
            raise ValueError("ambient order must be a multiple of the root order")
        return zeta(amb, self.exponent * (amb // self.order))

    def __repr__(self):
        return f"RootOfUnity({self.order}, {self.exponent})"
