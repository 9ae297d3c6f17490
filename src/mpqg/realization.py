"""Presented-generator side: the realization map into the cotensor
machinery, the defining relations, adjoint powers with their closed forms,
and reduction modulo the distinguished Hopf ideal.

The ideal is generated by r_i = xi_i - K_i K'_i^{-1} + 1.  Reduction is a
three-valued decision procedure: "zero" when `IdealReducer.xi_rewrite`
leaves nothing (it settles every R5(i,i) residual) or, failing that, when
the element reduces to nothing against the `NormalFormTable` of ideal
elements u * r_i * v closed over its words; "nonzero" is only certified on
the filtration-1 contraction-free part (group algebra plus single
raising/lowering letters), where the realization is injective so the ideal
meets it trivially; everything else is "undecided" at the given bound.
"""

from __future__ import annotations

from fractions import Fraction

from .cotensor import CotensorAlgebra, Word, word_key
from .linalg import Echelon, add_into
from .scalars import Scalar, q_binomial, q_factorial


class FreeExpr:
    """Formal noncommutative polynomial over the presented generators.

    Atoms: ('e', i), ('f', i), ('w', i, s), ('wp', i, s) with s = +-1.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def atom(a):
        return FreeExpr({(a,): Fraction(1)})

    @staticmethod
    def one():
        return FreeExpr({(): Fraction(1)})

    def __add__(self, other):
        out = dict(self.terms)
        add_into(out, other.terms)
        return FreeExpr(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FreeExpr({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, FreeExpr):
            return self.scale(other)
        out = {}
        for m1, c1 in self.terms.items():
            add_into(out, {m1 + m2: c2 for m2, c2 in other.terms.items()}, c1)
        return FreeExpr(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        return FreeExpr({m: c * v for m, v in self.terms.items()})

    def __pow__(self, r):
        out = FreeExpr.one()
        for _ in range(int(r)):
            out = out * self
        return out


def e(i):
    return FreeExpr.atom(("e", i))


def f(i):
    return FreeExpr.atom(("f", i))


def w(i, s=1):
    return FreeExpr.atom(("w", i, s))


def wp(i, s=1):
    return FreeExpr.atom(("wp", i, s))


class Realization:
    """The machinery together with the generator images and relation
    checks."""

    def __init__(self, datum, params, lam=None):
        self.datum = datum
        self.params = params
        self.alg = CotensorAlgebra(datum, params, lam)

    # -- generator images -------------------------------------------------------

    def e_elt(self, i):
        return self.alg.letter_element(("E", i))

    def f_elt(self, i):
        """Image of the lowering generator: lowering letter with torus tail."""
        g = self.alg.group
        return self.alg.element({self.alg.word([("F", i)],
                                                g.basis(("Kp", i))): self.alg.one})

    def k_elt(self, i, s=1):
        return self.alg.group_like(self.alg.group.basis(("K", i), s))

    def kp_elt(self, i, s=1):
        return self.alg.group_like(self.alg.group.basis(("Kp", i), s))

    def _atom_elt(self, a):
        kind = a[0]
        if kind == "e":
            return self.e_elt(a[1])
        if kind == "f":
            return self.f_elt(a[1])
        if kind == "w":
            return self.k_elt(a[1], a[2])
        if kind == "wp":
            return self.kp_elt(a[1], a[2])
        raise ValueError(f"unknown atom {a}")

    def psi(self, expr: FreeExpr, product=None):
        """Algebra map from presented generators into the machinery: each
        monomial is the fold of `product` (default the machinery's own;
        the twist passes its twisted product) over the generator images."""
        alg = self.alg
        product = alg.product if product is None else product
        out = {}
        for mono, coeff in expr.terms.items():
            acc = alg.unit()
            for a in mono:
                acc = product(acc, self._atom_elt(a))
            add_into(out, acc.terms, alg.coerce(coeff))
        return alg.element(out)

    # -- adjoint action ----------------------------------------------------------

    def ad_left(self, x, y):
        """ad_l(x)(y) = sum x_(1) * y * S(x_(2))."""
        alg = self.alg
        out = {}
        for (a, b), c in alg.coproduct(x).items():
            term = alg.product(alg.product(alg.element({a: alg.one}), y),
                               alg.antipode_word(b))
            add_into(out, term.terms, c)
        return alg.element(out)

    def ad_right(self, x, y):
        """ad_r(x)(y) = sum S(x_(1)) * y * x_(2)."""
        alg = self.alg
        out = {}
        for (a, b), c in alg.coproduct(x).items():
            term = alg.product(alg.product(alg.antipode_word(a), y),
                               alg.element({b: alg.one}))
            add_into(out, term.terms, c)
        return alg.element(out)

    def ad_power(self, side, i, j, s):
        """Iterated adjoint of the i-th generator on the j-th, s >= 1 times."""
        if side == "left":
            x = self.e_elt(i)
            acc = self.e_elt(j)
            for _ in range(s):
                acc = self.ad_left(x, acc)
        elif side == "right":
            x = self.f_elt(i)
            acc = self.f_elt(j)
            for _ in range(s):
                acc = self.ad_right(x, acc)
        else:
            raise ValueError("side must be 'left' or 'right'")
        return acc

    def ad_power_closed(self, side, i, j, s):
        """Closed form of the iterated adjoint (factorial times a product of
        parameter factors on a single chain word)."""
        alg = self.alg
        pm = self.params
        qii = pm.entry(i, i)
        coeff = q_factorial(s, qii)
        if side == "left":
            for k in range(s):
                coeff = coeff * (alg.one - qii ** k * pm.entry(i, j)
                                 * pm.entry(j, i))
            word = alg.word([("E", i)] * s + [("E", j)])
        elif side == "right":
            for k in range(s):
                coeff = coeff * (pm.entry(i, j)
                                 - qii ** (-k) * pm.entry(j, i) ** -1)
            g = alg.group
            tail = g.element([(("Kp", i), s), (("Kp", j), 1)])
            word = alg.word([("F", j)] + [("F", i)] * s, tail)
        else:
            raise ValueError("side must be 'left' or 'right'")
        return alg.element({word: coeff})

    def power_closed_e(self, i, r):
        alg = self.alg
        coeff = q_factorial(r, self.params.entry(i, i))
        return alg.element({alg.word([("E", i)] * r): coeff})

    def power_closed_f(self, i, r):
        alg = self.alg
        coeff = q_factorial(r, self.params.entry(i, i))
        tail = alg.group.basis(("Kp", i), r)
        return alg.element({alg.word([("F", i)] * r, tail): coeff})

    # -- defining relations --------------------------------------------------------

    def relation_ids(self):
        n = self.datum.n
        out = []
        for tag in ("R1", "R2", "R3", "R4", "R5"):
            for i in range(n):
                for j in range(n):
                    out.append((tag, i, j))
        for tag in ("R6", "R7"):
            for i in range(n):
                for j in range(n):
                    if i != j:
                        out.append((tag, i, j))
        return out

    def relation_residuals(self, rid):
        """Realized left-hand minus right-hand sides; a relation holds in the
        quotient iff every residual reduces to zero."""
        return [self.psi(x)
                for x in relation_exprs(self.datum, self.params, rid)]


def graded_closure(one, weight, vec, steps, spans):
    """The one graded span (highest-weight modules, realized Borel halves):
    yields layers of (weight, index path, image), seed (weight, (), vec)
    first, until one adds nothing.  A layer applies each step (shift, act)
    to each vector the last one added, vector first, then step index, and
    keeps the images independent of ``spans[weight + shift]`` (`Echelon`s
    over ``one``, filled in place)."""
    spans[weight] = Echelon(one, word_key)
    spans[weight].add(vec.terms)
    layer = [(weight, (), vec)]
    while layer:
        yield layer
        nxt = []
        for mu, path, v in layer:
            for i, (shift, act) in enumerate(steps):
                img = act(v)
                if img.is_zero:
                    continue
                nu = mu + shift
                spn = spans.setdefault(nu, Echelon(one, word_key))
                if spn.add(img.terms):
                    nxt.append((nu, path + (i,), img))
        layer = nxt


def relation_exprs(datum, params, rid):
    """The defining relation rid as left-hand minus right-hand sides over the
    presented generators, with the constants of the given parameter matrix.
    This is the one relation table: the realization, the twisted product
    and the module matrices all evaluate these expressions."""
    tag, i, j = rid
    q = params.entry
    one = FreeExpr.one()
    if tag == "R1":
        return [w(i) * wp(j) - wp(j) * w(i), w(i) * w(i, -1) - one,
                wp(i) * wp(i, -1) - one]
    if tag == "R2":
        return [w(i) * w(j) - w(j) * w(i), wp(i) * wp(j) - wp(j) * wp(i)]
    if tag == "R3":
        return [w(i) * e(j) * w(i, -1) - e(j).scale(q(i, j)),
                wp(i) * e(j) * wp(i, -1) - e(j).scale(q(j, i) ** -1)]
    if tag == "R4":
        return [w(i) * f(j) * w(i, -1) - f(j).scale(q(i, j) ** -1),
                wp(i) * f(j) * wp(i, -1) - f(j).scale(q(j, i))]
    if tag == "R5":
        res = e(i) * f(j) - f(j) * e(i)
        if i == j:
            res = res - (w(i) - wp(i)).scale(q(i, i) / (q(i, i) - params.one))
        return [res]
    if tag in ("R6", "R7"):
        # the higher-order vanishing sum, ladder k = 0 .. 1 - a_ij
        a = datum.a[i][j]
        qii = q(i, i)
        total = FreeExpr()
        for k in range(0, 1 - a + 1):
            coeff = q_binomial(1 - a, k, qii)
            coeff = coeff * qii ** (k * (k - 1) // 2) * q(i, j) ** k
            if k % 2:
                coeff = -coeff
            if tag == "R6":
                word = e(i) ** (1 - a - k) * e(j) * e(i) ** k
            else:
                word = f(i) ** k * f(j) * f(i) ** (1 - a - k)
            total = total + word.scale(coeff)
        return [total]
    raise ValueError(f"unknown relation tag {tag}")


def relation_verdict(reducer, rid, parts, bound):
    """Three-valued verdict on the residuals of relation rid: pass with an
    exact or mod-ideal certificate, fail on a certified nonzero, undecided
    when the membership search is exhausted.  Only the same-index
    commutator R5(i,i) holds modulo the ideal; every other residual must
    vanish literally."""
    if all(p.is_zero for p in parts):
        return "pass", "zero"
    tag, i, j = rid
    if tag != "R5" or i != j:
        return "fail", "nonzero residual"
    statuses = [reducer.reduce(p, bound=bound)[0] for p in parts
                if not p.is_zero]
    if any(s == "nonzero" for s in statuses):
        return "fail", "certified nonzero mod ideal"
    if any(s.startswith("undecided") for s in statuses):
        return "undecided", f"membership search exhausted at bound {bound}"
    return "pass", f"zero-mod-J({bound})"


def _kkp(g, i):
    """K_i K'_i^{-1} in the grading group g."""
    return g.element([(("K", i), 1), (("Kp", i), -1)])


class IdealReducer:
    """Bounded reduction modulo the two-sided ideal (r_i : i)."""

    def __init__(self, realization):
        self.alg = realization.alg

    # -- fast path ----------------------------------------------------------------

    def xi_rewrite(self, x):
        """Rewrite every length-1 contraction word (xi_i; K) into its
        group-algebra congruent K_i K'_i^{-1} K - K.  One pass suffices:
        the rewrite yields only length-0 words."""
        alg = self.alg
        g = alg.group
        out = {}
        for word, c in x.terms.items():
            if len(word.letters) == 1 and word.letters[0][0] == "X":
                kkp = _kkp(g, word.letters[0][1])
                add_into(out, {Word((), g.mul(kkp, word.tail)): c})
                add_into(out, {Word((), word.tail): -c})
            else:
                add_into(out, {word: c})
        return alg.element(out)

    # -- generators and membership --------------------------------------------------

    def targeted_generator(self, wrd, p):
        """The ideal element u * r_i * v that replaces exactly the
        contraction letter X_i at position p of the word: u is the prefix,
        v the suffix together with the tail.

        It is built from cached `CotensorAlgebra.word_product`s alone.
        With k = K_i K'_i^{-1} and r_i = X_i - k + 1, u * r_i * v is the
        sum of c * (w * v) over the words w of u * X_i with coefficient c,
        minus (u k) * v, plus u * v.  No two of the three parts share a
        word (they differ in letter counts or by k in the tail), so the
        terms come out in the order that the product (u * r_i) * v gives
        them."""
        alg = self.alg
        g = alg.group
        i = wrd.letters[p][1]
        u = Word(wrd.letters[:p], g.identity)
        v = Word(wrd.letters[p + 1:], wrd.tail)
        one = alg.one
        out = {}
        for w, c in alg.word_product(u, Word((("X", i),), g.identity)).items():
            add_into(out, alg.word_product(w, v), None if c == one else c)
        add_into(out, alg.word_product(Word(u.letters, _kkp(g, i)), v), -one)
        add_into(out, alg.word_product(u, v))
        return alg.element(out)

    def reduce(self, x, bound=4):
        """Decide membership of x in the ideal.

        Returns (status, witness): status in {"zero", "nonzero",
        "undecided(bound)"}; for "zero" the witness is the rewritten
        element, for "nonzero" the certified component.  Each weight
        component is reduced against a fresh table closed over its words:
        the generators are weight-homogeneous and the echelon remainder is
        zero exactly when the component lies in their span.
        """
        alg = self.alg
        x = self.xi_rewrite(x)
        if x.is_zero:
            return "zero", x
        if self._filtration_one(x):
            return "nonzero", x
        any_undecided = False
        for _wt, comp in alg.weight_components(x).items():
            if self._filtration_one(comp):
                return "nonzero", comp
            table = NormalFormTable(self, bound=bound)
            table.ensure(comp.terms)
            if table.rows.reduce(comp.terms):
                any_undecided = True
        if any_undecided:
            return f"undecided({bound})", None
        return "zero", x

    def _filtration_one(self, x):
        """True when x lives in the span of group-likes and single
        raising/lowering letters with group tails -- where the ideal is
        known to intersect trivially."""
        for word in x.terms:
            if len(word.letters) > 1:
                return False
            if word.letters and word.letters[0][0] not in ("E", "F"):
                return False
        return True


def has_contraction(w):
    """True when the word carries a contraction letter."""
    return any(t[0] == "X" for t in w.letters)


class NormalFormTable:
    """Persistent Gauss-Jordan table of ideal elements, pivoting on
    contraction-bearing words whenever possible.

    Every subtraction the table performs is by an explicit member of the
    ideal, so a residual is always congruent to its input; it is reported
    as a normal form only when it is contraction-free.  The table grows
    deterministically, so one table can serve many reductions.  It is the
    membership fallback of `IdealReducer.reduce`, for a residual that
    `xi_rewrite` leaves nonzero (no CLI run reaches it: every R5(i,i)
    residual, plain or twisted, is zero after the rewrite), and the oracle
    the letter-deletion module actions are tested against.

    `ensure` first collects a whole closure of generators, then adds them
    in descending order of each generator's least word under `_pivot_key`
    (stable, so ties keep discovery order), as F4 sorts its batch before
    eliminating: each new pivot then lies below the older ones, which
    rarely need back-elimination.  The reduced echelon form of a span is
    unique, so rows and normal forms do not depend on that order.  With
    symbolic `Scalar` coefficients the generators keep discovery order:
    `Scalar` has no gcd, so the order of row operations sets the size of
    its coefficients (sorted, reducing the raising images of the symbolic
    A1 module at weight 3/2 ran past 120 s instead of 0.2 s).  That
    exception goes once `Scalar` keeps factored denominators (ROADMAP
    item 5).  `max_rows` caps the rows held plus the generators collected,
    so a saturated closure adds nothing past it.
    """

    def __init__(self, reducer: IdealReducer, *, bound=8, max_rows=4000):
        self.reducer = reducer
        self.alg = reducer.alg
        self.bound = bound
        self.max_rows = max_rows
        self.rows = Echelon(self.alg.one, self._pivot_key)
        self._ensured = set()   # words whose targeted generators are present
        self.saturated = False

    @staticmethod
    def _pivot_key(w):
        return (0 if has_contraction(w) else 1,) + word_key(w)

    def _lead_key(self, gen):
        return min(map(self._pivot_key, gen.terms), default=())

    def ensure(self, words):
        """Add the targeted replacement generators for every contraction
        letter reachable from the given words (finite closure: letter
        counts never grow under replacement)."""
        queue = sorted({w for w in words if w not in self._ensured},
                       key=word_key)
        room = self.max_rows - len(self.rows)
        gens = []
        while queue and not self.saturated:
            wrd = queue.pop()
            if wrd in self._ensured:
                continue
            self._ensured.add(wrd)
            if not has_contraction(wrd) or len(wrd.letters) > self.bound:
                continue
            for p, letter in enumerate(wrd.letters):
                if letter[0] != "X":
                    continue
                if len(gens) >= room:
                    self.saturated = True
                    break
                gen = self.reducer.targeted_generator(wrd, p)
                queue.extend(sorted(
                    (w for w in gen.terms if w not in self._ensured),
                    key=word_key))
                gens.append(gen)
        if not isinstance(self.alg.one, Scalar):
            gens.sort(key=self._lead_key, reverse=True)
        for gen in gens:
            self.rows.add(gen.terms)

    def normal_form(self, x):
        """(residual, ok): ok means the residual is contraction-free, hence
        a sound representative of x modulo the ideal."""
        x = self.reducer.xi_rewrite(x)
        while True:
            x = self.alg.element(self.rows.reduce(x.terms))
            pending = [w for w in x.terms if has_contraction(w)]
            if not pending:
                return x, True
            fresh = [w for w in pending if w not in self._ensured]
            if not fresh:
                return x, False
            before = len(self.rows)
            self.ensure(fresh)
            if len(self.rows) == before:
                return x, False
