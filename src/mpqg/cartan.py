"""Symmetrizable Cartan data, root/weight lattice vectors, and the parameter
matrices that drive every coefficient in the library.

A Cartan datum takes integer entries only (a float, a string or a bool is
refused, not rounded).  A parameter matrix q = (q_ij) must satisfy the
compatibility constraint

    q_ij * q_ji = q_ii ^ a_ij        for all i, j,

which is checked exactly at construction in every mode.

Because the constraint holds for every ordered pair, it forces
q_ii^a_ij = q_jj^a_ji: within a connected component of the Cartan graph the
diagonal entries are powers of one shared parameter.  A mode fixes the
diagonal and the free entries q_ij with i < j; except in the two modes with
a closed form, ``ParamMatrix._completed`` alone derives the entries below
the diagonal as q_ji = q_ii^a_ij / q_ij, refusing a zero free entry.  The
modes are:

* ``symbolic``        -- per component a diagonal variable (named after the
                         component's representative index) with
                         q_ii = rep^(d_i/d_rep); off-diagonal q_ij free for
                         i<j.
* ``one_parameter``   -- q_ij = q ^ (d_i a_ij) in a single variable q.
* ``mixed``           -- q_ii = q^(2 d_i), off-diagonal free (twist base).
* ``numeric``         -- explicit Fractions for the diagonal and the free
                         entries (a missing free entry is 1; the caller
                         must supply a consistent diagonal).
* ``root_of_unity``   -- q_ii of uniform odd multiplicative order ell, exact
                         cyclotomic values in Q(zeta_ell); the lower
                         triangle is derived on the integer exponents of
                         zeta_ell, which ``power`` reads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclotomic import CyclotomicElement, zeta
from .linalg import Matrix
from .scalars import LaurentPoly, Scalar

PRESETS = {
    "A1": (((2,),), (1,)),
    "A1xA1": (((2, 0), (0, 2)), (1, 1)),
    "A2": (((2, -1), (-1, 2)), (1, 1)),
    "B2": (((2, -1), (-2, 2)), (2, 1)),
    "G2": (((2, -1), (-3, 2)), (3, 1)),
}


class CartanDatum:
    """Generalized Cartan matrix with a fixed symmetrizer."""

    __slots__ = ("a", "d", "n", "name")

    def __init__(self, a, d, name=None):
        a = tuple(tuple(row) for row in a)
        d = tuple(d)
        # type, not isinstance: True is not an entry of 1
        if any(type(x) is not int for x in d + sum(a, ())):
            raise ValueError("Cartan matrix and symmetrizer entries must be "
                             "integers")
        n = len(a)
        if n == 0 or any(len(row) != n for row in a):
            raise ValueError("Cartan matrix must be square and nonempty")
        if len(d) != n or any(x <= 0 for x in d):
            raise ValueError("symmetrizer entries must be positive integers")
        for i in range(n):
            if a[i][i] != 2:
                raise ValueError(f"a[{i}][{i}] must be 2")
            for j in range(n):
                if i != j:
                    if a[i][j] > 0:
                        raise ValueError(f"a[{i}][{j}] must be <= 0")
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise ValueError(f"zero pattern not symmetric at ({i},{j})")
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise ValueError(f"d does not symmetrize a at ({i},{j})")
        self.a = a
        self.d = d
        self.n = n
        self.name = name

    @staticmethod
    def preset(name: str) -> "CartanDatum":
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
        a, d = PRESETS[name]
        return CartanDatum(a, d, name=name)

    def sym(self, i, j):
        """Symmetrized matrix entry (alpha_i, alpha_j) = d_i a_ij."""
        return self.d[i] * self.a[i][j]

    def is_finite_type(self) -> bool:
        """Positive definiteness of the symmetrization, by leading principal
        minors (exact)."""
        for k in range(1, self.n + 1):
            rows = [[Fraction(self.sym(i, j)) for j in range(k)] for i in range(k)]
            if Matrix(rows).det() <= 0:
                return False
        return True

    def components(self):
        """Connected components of the Cartan graph, each sorted."""
        seen, comps = set(), []
        for s in range(self.n):
            if s in seen:
                continue
            comp, stack = [], [s]
            seen.add(s)
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in range(self.n):
                    if j not in seen and self.a[i][j] != 0:
                        seen.add(j)
                        stack.append(j)
            comps.append(sorted(comp))
        return comps

    def __repr__(self):
        return f"CartanDatum({self.name or self.a})"


class LatticeVector:
    """Vector in the rational span of the simple roots, coordinates in the
    alpha-basis."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(Fraction(c) for c in coords)

    def __add__(self, other):
        return LatticeVector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        return LatticeVector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return LatticeVector(-a for a in self.coords)

    def __rmul__(self, c):
        return LatticeVector(Fraction(c) * a for a in self.coords)

    def __eq__(self, other):
        return isinstance(other, LatticeVector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    @property
    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    @property
    def is_positive(self):
        return self.is_integral and all(c >= 0 for c in self.coords) and any(self.coords)

    def height(self):
        if not all(c.denominator == 1 and c >= 0 for c in self.coords):
            raise ValueError("height needs a nonnegative integral vector")
        return int(sum(self.coords))

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def simple_root(datum, i):
    return LatticeVector(tuple(1 if j == i else 0 for j in range(datum.n)))


def sym_form(datum, mu, nu) -> Fraction:
    """Symmetric bilinear form (mu, nu) = sum mu_i nu_j d_i a_ij."""
    total = Fraction(0)
    for i, x in enumerate(mu.coords):
        if not x:
            continue
        for j, y in enumerate(nu.coords):
            if y:
                total += x * y * datum.sym(i, j)
    return total


def coweight_pairing(datum, lam, beta) -> Fraction:
    """<lam, beta^vee> = 2 (lam, beta) / (beta, beta)."""
    bb = sym_form(datum, beta, beta)
    if not bb:
        raise ValueError("coroot of an isotropic vector")
    return 2 * sym_form(datum, lam, beta) / bb


def marks(datum, lam):
    """The marks m_i = <lam, alpha_i^vee> of a dominant integral weight, as
    ints; a ValueError for any other weight."""
    out = []
    for i in range(datum.n):
        m = coweight_pairing(datum, lam, simple_root(datum, i))
        if m.denominator != 1 or m < 0:
            raise ValueError(f"weight is not dominant integral: pairing with "
                             f"coroot {i} is {m}")
        out.append(int(m))
    return tuple(out)


def fundamental_weight(datum, i) -> LatticeVector:
    """varpi_i in alpha-coordinates: column i of the inverse Cartan matrix."""
    n = datum.n
    rows = [[Fraction(datum.a[r][c]) for c in range(n)] for r in range(n)]
    rhs = [Fraction(1) if r == i else Fraction(0) for r in range(n)]
    sol = Matrix(rows).solve(rhs)
    if sol is None:
        raise ValueError("Cartan matrix is singular")
    return LatticeVector(sol)


def positive_roots(datum):
    """All positive roots of a finite-type datum, by closing the simple
    roots under simple reflections."""
    if not datum.is_finite_type():
        raise ValueError("positive roots require a finite-type datum")
    simples = [simple_root(datum, i) for i in range(datum.n)]

    def reflect(beta, i):
        return beta - coweight_pairing(datum, beta, simples[i]) * simples[i]

    roots = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for i in range(datum.n):
            g = reflect(beta, i)
            if g.is_positive and g not in roots:
                roots.add(g)
                frontier.append(g)
    return sorted(roots, key=lambda b: (b.height(), b.coords))


def rho(datum) -> LatticeVector:
    """Half the sum of the positive roots (= sum of fundamental weights)."""
    out = LatticeVector((0,) * datum.n)
    for beta in positive_roots(datum):
        out = out + beta
    return Fraction(1, 2) * out


def weyl_dim(datum, lam) -> int:
    """Weyl dimension formula, used as an independent oracle for modules."""
    r = rho(datum)
    num = Fraction(1)
    den = Fraction(1)
    for beta in positive_roots(datum):
        num *= sym_form(datum, lam + r, beta)
        den *= sym_form(datum, r, beta)
    val = num / den
    if val.denominator != 1 or val <= 0:
        raise ValueError(f"Weyl dimension {val} is not a positive integer: "
                         "the weight is not dominant integral")
    return int(val)


def kostant_count(datum, beta) -> int:
    """Number of ways to write beta as a multiset of positive roots."""
    roots = positive_roots(datum)

    def count(target, idx):
        if not any(target.coords):
            return 1
        if idx == len(roots):
            return 0
        if any(c < 0 for c in target.coords):
            return 0
        total = 0
        cur = target
        while all(c >= 0 for c in cur.coords):
            total += count(cur, idx + 1)
            cur = cur - roots[idx]
        return total

    return count(beta, 0)


# ---------------------------------------------------------------------------
# parameter matrices


class ParamMatrix:
    """Compatibility-checked matrix of parameters plus the coefficient field
    the rest of the library computes in.

    ``power(i, j, e)`` returns q_ij^e for an integral exponent e (an int or
    a Fraction with denominator 1); any other exponent is a ValueError.
    """

    def __init__(self, datum, mode, entries, *, orders=None, ell=None,
                 zexp=None):
        self.datum = datum
        self.mode = mode
        self.entries = entries  # (i, j) -> field element
        self.orders = orders    # per-index multiplicative order of q_ii, or None
        self.ell = ell          # cyclotomic order, or None
        self.zexp = zexp        # (i, j) -> int exponent of zeta_ell, cyclotomic mode
        if mode == "root_of_unity":
            self.one = zeta(ell, 0)
        elif mode == "numeric":
            self.one = Fraction(1)
        else:
            self.one = Scalar.from_int(1)
        self.zero = self.one - self.one
        self._check_constraint()

    # -- constructors --------------------------------------------------------

    @staticmethod
    def symbolic(datum):
        diag = {}
        for comp in datum.components():
            rep = min(comp, key=lambda i: (datum.d[i], i))
            base = Scalar.variable(("q", rep, rep))
            for i in comp:
                e = Fraction(datum.d[i], datum.d[rep])
                diag[i] = _scalar_fract_power(base, e)
        upper = {(i, j): Scalar.variable(("q", i, j))
                 for i in range(datum.n) for j in range(i + 1, datum.n)}
        return ParamMatrix._completed(datum, "symbolic", diag, upper)

    @staticmethod
    def one_parameter(datum):
        q = Scalar.variable(("q",))
        entries = {
            (i, j): q ** (datum.d[i] * datum.a[i][j])
            for i in range(datum.n)
            for j in range(datum.n)
        }
        return ParamMatrix(datum, "one_parameter", entries)

    @staticmethod
    def mixed_diagonal(datum):
        """q_ii = q^(2 d_i); off-diagonal entries free (i<j).  The base of
        the one-parameter cocycle twist."""
        q = Scalar.variable(("q",))
        diag = [q ** (2 * d) for d in datum.d]
        upper = {(i, j): Scalar.variable(("q", i, j))
                 for i in range(datum.n) for j in range(i + 1, datum.n)}
        return ParamMatrix._completed(datum, "mixed", diag, upper)

    @staticmethod
    def numeric(datum, assignment):
        """assignment: {(i, j): Fraction} for i <= j free entries; a missing
        off-diagonal one is 1.  A key that names no free entry (below the
        diagonal or beyond the rank) is a ValueError, not dropped."""
        n = datum.n
        free = {(i, j) for i in range(n) for j in range(i, n)}
        stray = [key for key in assignment if key not in free]
        if stray:
            raise ValueError(f"keys {stray} name no free entry (i, j) with "
                             f"0 <= i <= j < {n}")
        diag = [Fraction(assignment[(i, i)]) for i in range(datum.n)]
        for i, v in enumerate(diag):
            if not v or v == 1:
                raise ValueError(f"q_{i}{i} must be invertible and != 1")
        upper = {(i, j): Fraction(assignment.get((i, j), 1))
                 for i in range(datum.n) for j in range(i + 1, datum.n)}
        return ParamMatrix._completed(datum, "numeric", diag, upper)

    @staticmethod
    def _completed(datum, mode, diag, upper):
        """The matrix with diagonal ``diag[i]`` and free entries
        ``upper[(i, j)]`` for i < j; below the diagonal the constraint
        gives q_ji = q_ii^a_ij / q_ij."""
        entries = {(i, i): diag[i] for i in range(datum.n)}
        for (i, j), q in upper.items():
            if not q:
                raise ValueError(f"q_{i}{j} must be invertible")
            entries[(i, j)] = q
            entries[(j, i)] = diag[i] ** datum.a[i][j] * q ** -1
        return ParamMatrix(datum, mode, entries)

    @staticmethod
    def root_of_unity(datum, ell, *, offdiag=None):
        """All q_ii of multiplicative order exactly ell (odd, >= 3).

        Within a component with symmetrizer gcd g, q_ii = zeta_ell^(d_i/g);
        the order is uniformly ell precisely when gcd(d_i/g, ell) = 1 for
        all i -- hence the oddness requirement, and 3 must not divide ell
        when a component has a triple bond.  Off-diagonal entries are
        zeta_ell^k with k from ``offdiag`` (default 0) for i < j.  Values
        live in Q(zeta_ell).
        """
        if ell < 3 or ell % 2 == 0:
            raise ValueError("the order must be an odd integer >= 3")
        zexp = {}
        for comp in datum.components():
            g = 0
            for i in comp:
                g = gcd(g, datum.d[i])
            for i in comp:
                c = datum.d[i] // g
                if gcd(c, ell) != 1:
                    raise ValueError(
                        f"order {ell} shares a factor with the relative "
                        f"symmetrizer {c} at index {i}; the diagonal orders "
                        f"cannot all equal {ell}"
                    )
                zexp[(i, i)] = c
        for i in range(datum.n):
            for j in range(datum.n):
                if i < j:
                    zexp[(i, j)] = (offdiag or {}).get((i, j), 0)
                elif i > j:
                    zexp[(i, j)] = zexp[(j, j)] * datum.a[j][i] - zexp[(j, i)]
        entries = {key: zeta(ell, e % ell) for key, e in zexp.items()}
        orders = []
        for i in range(datum.n):
            got = entries[(i, i)].multiplicative_order()
            if got != ell:
                raise ValueError(
                    f"q_{i}{i} has order {got}, not the requested {ell}")
            orders.append(got)
        return ParamMatrix(datum, "root_of_unity", entries,
                           orders=tuple(orders), ell=ell, zexp=zexp)

    # -- operations -----------------------------------------------------------

    def _check_constraint(self):
        d = self.datum
        for i in range(d.n):
            for j in range(d.n):
                lhs = self.entries[(i, j)] * self.entries[(j, i)]
                rhs = self.entries[(i, i)] ** d.a[i][j]
                if lhs != rhs:
                    raise ValueError(
                        f"parameter constraint violated at ({i},{j}): "
                        f"q_ij*q_ji != q_ii^a_ij"
                    )

    def entry(self, i, j):
        return self.entries[(i, j)]

    def power(self, i, j, e):
        e = Fraction(e)
        if e.denominator != 1:
            raise ValueError(f"non-integral power {e} of q_{i}{j}")
        if self.mode == "root_of_unity":
            return zeta(self.ell, self.zexp[(i, j)] * int(e) % self.ell)
        return self.entries[(i, j)] ** int(e)

    def q_pairing(self, mu, nu):
        """q_{mu,nu} = prod q_ij^(mu_i nu_j)."""
        out = self.one
        for i, x in enumerate(mu.coords):
            if not x:
                continue
            for j, y in enumerate(nu.coords):
                if y:
                    out = out * self.power(i, j, x * y)
        return out

    def coerce(self, x):
        if self.mode == "root_of_unity":
            if isinstance(x, CyclotomicElement):
                return x
            return self.one * Fraction(x)
        if self.mode == "numeric":
            return Fraction(x)
        return Scalar.coerce(x)


def _scalar_fract_power(s: Scalar, e: Fraction):
    """Fractional power of a symbolic scalar; only defined when the scalar is
    a single monomial (all parameter-matrix entries are)."""
    if e.denominator == 1:
        return s ** int(e)
    if len(s.num.terms) != 1 or not s.den.is_one:
        raise ValueError(f"fractional power of a non-monomial scalar: {s}")
    (mono, coeff), = s.num.terms.items()
    if coeff != 1:
        raise ValueError(f"fractional power of a non-monic monomial: {s}")
    new = tuple((v, ex * e) for v, ex in mono)
    return Scalar(LaurentPoly({new: 1}))
