"""Exact coefficient arithmetic.

Everything downstream runs over the fraction field of Laurent polynomials in
finitely many commuting parameters with integer exponents and rational
coefficients.  No floats anywhere; zero-testing is literal.

Conventions
-----------
* A variable is a tuple: ``('q',)`` for a single parameter, ``('q', i, j)``
  for the (i, j) entry of a parameter matrix (0-based indices).
* Exponents are ``int``.  Coefficients are ``int`` when integral and
  ``Fraction`` otherwise (an integral ``Fraction`` may also occur; it has the
  same ``==``, ``hash`` and ``str`` as its ``int``).  Every division builds
  ``Fraction(a, b)``, never ``a / b``, which is a float on two ints.
* A monomial is a tuple of ``(var, exponent)`` pairs sorted by variable, with
  all exponents nonzero.  The empty tuple is the monomial 1.
* Monomials are ordered lexicographically along the fixed variable order,
  then by exponent; the leading term of a polynomial is the maximal one.
* ``Scalar`` (the fraction field) is normalized by clearing the denominator's
  monomial content and scaling its leading coefficient to 1, then attempting
  exact division.  No multivariate gcd: equality is decided by
  cross-multiplication, which is exact because polynomial arithmetic is
  canonical.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = 0
ONE = 1


def _rational(c):
    """c as an int when integral, else as a Fraction; never a float or bool."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact rational: {c!r}")


def _quotient(a, b):
    """The exact rational a / b (int when integral)."""
    return _rational(Fraction(a, b))


def var_name(v) -> str:
    if len(v) == 1:
        return str(v[0])
    base, i, j = v
    if i < 9 and j < 9:
        return f"{base}{i + 1}{j + 1}"
    return f"{base}{i + 1}_{j + 1}"


# ---------------------------------------------------------------------------
# monomials


def mono_mul(a, b):
    """Product of two monomials: a merge of the two variable-sorted tuples."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            out.append(a[i])
            i += 1
        elif vb < va:
            out.append(b[j])
            j += 1
        else:
            e = ea + eb
            if e:
                out.append((va, e))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_pow(a, k):
    if k == 0:
        return ()
    return tuple((v, e * k) for v, e in a)


def mono_div(a, b):
    return mono_mul(a, mono_pow(b, -1))


def mono_cmp(a, b):
    """Lex along the variable order; larger exponent on the first differing
    variable wins."""
    ia, ib = 0, 0
    while ia < len(a) or ib < len(b):
        if ia < len(a) and (ib >= len(b) or a[ia][0] < b[ib][0]):
            ea = a[ia][1]
            eb = ZERO
            ia += 1
        elif ib < len(b) and (ia >= len(a) or b[ib][0] < a[ia][0]):
            eb = b[ib][1]
            ea = ZERO
            ib += 1
        else:
            ea = a[ia][1]
            eb = b[ib][1]
            ia += 1
            ib += 1
        if ea != eb:
            return 1 if ea > eb else -1
    return 0


def mono_str(m) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        parts.append(var_name(v) if e == 1 else f"{var_name(v)}^{e}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Sparse Laurent polynomial: dict monomial -> nonzero rational."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def const(c):
        c = _rational(c)
        return LaurentPoly({(): c} if c else {})

    @staticmethod
    def variable(v, exp=1):
        # type, not isinstance: True is not an exponent of 1
        if type(exp) is not int:
            raise TypeError(f"exponent must be an int, not {exp!r}")
        if not exp:
            return LaurentPoly({(): ONE})
        return LaurentPoly({((v, exp),): ONE})

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_one(self):
        return self.terms == {(): ONE}

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == LaurentPoly.const(other).terms
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            c2 = out.get(m, ZERO) + c
            if c2:
                out[m] = c2
            else:
                out.pop(m, None)
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _rational(other)
            if not c:
                return LaurentPoly({})
            return LaurentPoly({m: c0 * c for m, c0 in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        st, ot = self.terms, other.terms
        if len(st) == 1 and len(ot) == 1:
            (m1, c1), = st.items()
            (m2, c2), = ot.items()
            return LaurentPoly({mono_mul(m1, m2): c1 * c2})
        out = {}
        for m1, c1 in st.items():
            for m2, c2 in ot.items():
                m = mono_mul(m1, m2)
                c = out.get(m, ZERO) + c1 * c2
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power must be a nonnegative int")
        out = LaurentPoly({(): ONE})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def leading(self):
        """(monomial, coeff) maximal in the monomial order."""
        if not self.terms:
            raise ValueError("leading term of zero")
        best = None
        for m in self.terms:
            if best is None or mono_cmp(m, best) > 0:
                best = m
        return best, self.terms[best]

    def monomial_content(self):
        """Per-variable minimum exponent over all terms (0 if a variable is
        missing from some term)."""
        lo = {}
        seen = {}
        for m in self.terms:
            for v, e in m:
                if v in lo:
                    if e < lo[v]:
                        lo[v] = e
                    seen[v] += 1
                else:
                    lo[v] = e
                    seen[v] = 1
        n = len(self.terms)
        return tuple(sorted(
            (v, e) for v, e in lo.items() if e < 0 or (e > 0 and seen[v] == n)))

    def shift(self, mono):
        """Multiply by a monomial."""
        if not mono:
            return self
        return LaurentPoly({mono_mul(m, mono): c for m, c in self.terms.items()})

    def divide_exact(self, d):
        """Return self / d if the division is exact in the Laurent ring,
        else None.  Both operands are first cleared to genuine polynomials;
        the quotient loop then cancels leading terms, which terminates
        because the leading monomial strictly decreases on a grid bounded
        below."""
        if d.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return LaurentPoly({})
        if len(d.terms) == 1:
            (dm, dc), = d.terms.items()
            return LaurentPoly({mono_div(m, dm): _quotient(c, dc)
                                for m, c in self.terms.items()})
        mc_n = self.monomial_content()
        mc_d = d.monomial_content()
        num = self.shift(mono_pow(mc_n, -1))
        den = d.shift(mono_pow(mc_d, -1))
        dm, dc = den.leading()
        quo = {}
        rem = num
        while not rem.is_zero:
            rm, rc = rem.leading()
            t = mono_div(rm, dm)
            if any(e < 0 for _, e in t):
                return None
            c = _quotient(rc, dc)
            quo[t] = quo.get(t, ZERO) + c
            rem = rem - den * LaurentPoly({t: c})
        shift = mono_div(mc_n, mc_d)
        return LaurentPoly(quo).shift(shift)

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda mc: _render_rank(mc[0]), reverse=True)
        out = []
        for m, c in items:
            s = mono_str(m)
            if s == "1":
                piece = str(c)
            elif c == 1:
                piece = s
            elif c == -1:
                piece = f"-{s}"
            else:
                piece = f"{c}*{s}"
            out.append(piece)
        text = " + ".join(out).replace("+ -", "- ")
        return text

    __repr__ = __str__


def _render_rank(m):
    # total order key used only for printing; pads sparse monomials
    return tuple((v, e) for v, e in m) or ((("",), ZERO),)


_P_ZERO = LaurentPoly({})
_P_ONE = LaurentPoly({(): ONE})


# ---------------------------------------------------------------------------
# fraction field


class Scalar:
    """Element of the fraction field of LaurentPoly.

    Representation is not unique (no full gcd); equality compares the
    numerators when the denominators agree and cross-multiplies otherwise.
    The denominator is kept content-cleared and monic, and an exact-division
    pass collapses the fraction to a polynomial whenever possible, which is
    what the identities in this library cancel down to.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_P_ONE):
        num, den = _scalar_normalize(num, den)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(c):
        return Scalar(LaurentPoly.const(c))

    @staticmethod
    def variable(v, exp=1):
        return Scalar(LaurentPoly.variable(v, exp))

    @staticmethod
    def coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, LaurentPoly):
            return Scalar(x)
        if isinstance(x, (int, Fraction)):
            return Scalar(LaurentPoly.const(x))
        raise TypeError(f"cannot coerce {x!r} to Scalar")

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        if self.den.terms == other.den.terms:
            return self.num.terms == other.num.terms
        return (self.num * other.den) == (other.num * self.den)

    __hash__ = None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        if self.den.terms == other.den.terms:
            return Scalar(self.num + other.num, self.den)
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(Scalar)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        if self.den is _P_ONE and other.den is _P_ONE:
            # polynomial times polynomial is already normal
            out = object.__new__(Scalar)
            num = self.num * other.num
            out.num = num if num.terms else _P_ZERO
            out.den = _P_ONE
            return out
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("scalar power must be int")
        if k < 0:
            if self.num.is_zero:
                raise ZeroDivisionError("inverting zero scalar")
            inv = Scalar(self.den, self.num)
            return inv ** (-k)
        out = Scalar.from_int(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self):
        if self.den.is_one:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def _scalar_normalize(num, den):
    if den.is_zero:
        raise ZeroDivisionError("scalar with zero denominator")
    if num.is_zero:
        return _P_ZERO, _P_ONE
    if den.is_one:
        return num, _P_ONE
    # strip the denominator's unit part (monomial content and leading coeff)
    mc = den.monomial_content()
    if mc:
        inv = mono_pow(mc, -1)
        den = den.shift(inv)
        num = num.shift(inv)
    lm, lc = den.leading()
    if lc != 1:
        scale = _quotient(1, lc)
        den = den * scale
        num = num * scale
    if den.is_one:
        return num, _P_ONE
    q = num.divide_exact(den)
    if q is not None:
        return q, _P_ONE
    return num, den


# ---------------------------------------------------------------------------
# q-combinatorics

def q_int(n, v):
    """(n)_v = 1 + v + ... + v^(n-1), the value of (v^n - 1)/(v - 1)."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("q_int needs n >= 0")
    out = v ** 0 - v ** 0
    for k in range(n):
        out = out + v ** k
    return out


def q_factorial(n, v):
    """(n)_v! = (1)_v (2)_v ... (n)_v."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("q_factorial needs n >= 0")
    out = v ** 0
    for k in range(1, n + 1):
        out = out * q_int(k, v)
    return out


def q_binomial(n, k, v):
    """Gaussian binomial coefficient at v, by the Pascal recurrence
    binom(n,k) = binom(n-1,k-1) + v^k binom(n-1,k).  It uses only ring
    operations, so it is exact on every coefficient type, also where a
    q-factorial vanishes (roots of unity)."""
    if not isinstance(n, int) or not isinstance(k, int) or k < 0 or n < 0 or k > n:
        raise ValueError(f"q_binomial out of range: n={n}, k={k}")
    row = [v ** 0]
    for m in range(1, n + 1):
        new = [v ** 0]
        for j in range(1, m):
            new.append(row[j - 1] + (v ** j) * row[j])
        new.append(v ** 0)
        row = new
    return row[k]


# ---------------------------------------------------------------------------
# specialization


class SpecializationError(ValueError):
    pass


def specialize(s, assignment):
    """Evaluate a Scalar under var -> value.

    Values may be int, Fraction or CyclotomicElement (``zeta(n, k)`` for a
    root of unity); an int is lifted to a Fraction, so a negative power
    stays exact.  Raises SpecializationError if a variable has no value, if
    a variable with a negative exponent is given 0, or if the denominator
    vanishes.
    """
    s = Scalar.coerce(s)
    values = {v: Fraction(x) if isinstance(x, int) else x
              for v, x in assignment.items()}

    def eval_poly(p):
        total = Fraction(0)
        for m, c in p.terms.items():
            for v, e in m:
                if v not in values:
                    raise SpecializationError(f"no value for variable {var_name(v)}")
                val = values[v]
                if e < 0 and not val:
                    raise SpecializationError(
                        f"negative power of {var_name(v)} at the value 0")
                c = c * val ** e
            total = total + c
        return total

    den_val = eval_poly(s.den)
    if not den_val:
        raise SpecializationError(f"denominator vanishes under assignment: {s.den}")
    return eval_poly(s.num) / den_val
