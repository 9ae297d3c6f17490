"""Cotensor coalgebra over a group algebra, with the quasi-symmetric
product, coproduct, counit, and antipode.

Data model
----------
A basis word is ``(letters, tail)``: a finite sequence of letter tags and a
group element.  It encodes the chain

    slot_j = a_j . ( grading(a_{j+1}) ... grading(a_n) . tail )

so the compatibility of neighbouring slots holds by construction and the
representation is canonical.  A length-0 word is the group-like ``tail``
alone.  Elements are finitely supported maps word -> coefficient.

The product is the universal induced map of the coalgebra pairing: expand
the iterated cut coproduct of both factors, apply the slotwise rules

    (group, letter)  -> left action   (coefficient chi_letter(group))
    (letter, group)  -> right action  (tail multiplication)
    (letter, letter) -> contraction   (sparse rules, with the transfer
                                       coefficient chi_right(group_left))

and kill every other slot shape.  An independently coded first-letter-peel
recursion is kept as a cross-check oracle.  The antipode is computed by the
convolution-inverse recursion on word length.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import NamedTuple

from .cartan import marks
from .grouplike import Character, standard_group
from .linalg import add_into


_UNSET = object()


class Word(NamedTuple):
    letters: tuple
    tail: tuple


class LetterData(NamedTuple):
    tag: tuple
    grading: tuple           # group element
    char: Character          # how the torus acts on this letter
    weight: tuple            # root-lattice weight, Fraction coordinates


def word_key(w):
    """Canonical sort key for basis words."""
    return (len(w.letters), w.letters, w.tail)


def render_letter(tag) -> str:
    kind = tag[0]
    if kind in ("E", "F", "X"):
        return f"{kind}{tag[1]}"
    if kind == "V":
        return "V"
    return repr(tag)


class Element:
    """Finitely supported coefficient map on basis words, bound to its
    algebra."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = {w: c for w, c in terms.items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        add_into(out, other.terms)
        return Element(self.alg, out)

    def __sub__(self, other):
        out = dict(self.terms)
        add_into(out, other.terms, -self.alg.one)
        return Element(self.alg, out)

    def __neg__(self):
        return Element(self.alg, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.alg.product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.alg.coerce(c)
        if not c:
            return Element(self.alg, {})
        return Element(self.alg, {w: c * v for w, v in self.terms.items()})

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self - other).is_zero

    __hash__ = None

    def __repr__(self):
        return self.alg.render(self)


class CotensorAlgebra:
    """The full machinery for one Cartan datum / parameter matrix (and an
    optional highest-weight letter)."""

    def __init__(self, datum, params, lam=None):
        self.datum = datum
        self.params = params
        self.lam = lam
        self.one = params.one
        self.zero = params.zero
        n = datum.n
        # finite at a root of unity, weight letter or not: every character
        # value is an integral power of the order-ell parameters
        self.group = g = standard_group(n, moduli=params.orders)
        self.letters = {}
        zero_w = (Fraction(0),) * n

        def add_letter(tag, grading, values, weight):
            self.letters[tag] = LetterData(tag, grading, Character(g, values),
                                           tuple(weight))

        # character values listed on K_0..K_{n-1}, then K'_0..K'_{n-1}
        for j in range(n):
            ew, fw = list(zero_w), list(zero_w)
            ew[j] = Fraction(1)
            fw[j] = Fraction(-1)
            col = [params.entry(i, j) for i in range(n)]
            row = [params.entry(j, i) for i in range(n)]
            add_letter(("E", j), g.basis(("K", j)),
                       col + [v ** -1 for v in row], ew)
            add_letter(("F", j), g.basis(("Kp", j), -1),
                       [v ** -1 for v in col] + row, fw)
            add_letter(("X", j),
                       g.element([(("K", j), 1), (("Kp", j), -1)]),
                       [self.one] * (2 * n), zero_w)
        if lam is not None:
            # graded by the identity, with K_i -> 1 and K'_i -> q_ii^-m_i:
            # the mutual braiding of F_i and V is q_ii^m_i, which makes the
            # adjoint orbit of V the module L(lam) (Rosso 1998)
            m = marks(datum, lam)
            add_letter(("V",), g.identity,
                       [self.one] * n
                       + [params.power(i, i, -m[i]) for i in range(n)],
                       lam.coords)
        self.alpha = {}
        for i in range(n):
            coeff = params.entry(i, i) / (params.entry(i, i) - self.one)
            self.alpha[(("E", i), ("F", i))] = (("X", i), coeff)
        self._prod_cache = {}
        self._anti_cache = {}
        # (letter, group element) -> the letter's character there, None for one
        self._left_cache = {}

    # -- element constructors -------------------------------------------------

    def coerce(self, c):
        return self.params.coerce(c)

    def word(self, letters, tail=None):
        letters = tuple(letters)
        for t in letters:
            if t not in self.letters:
                raise ValueError(f"unknown letter {t}")
        if tail is None:
            tail = self.group.identity
        return Word(letters, tail)

    def element(self, terms):
        return Element(self, terms)

    def zero_element(self):
        return Element(self, {})

    def group_like(self, gelt, coeff=None):
        return Element(self, {Word((), gelt): self.one if coeff is None
                              else self.coerce(coeff)})

    def unit(self):
        return self.group_like(self.group.identity)

    def letter_element(self, tag, tail=None):
        return Element(self, {self.word((tag,), tail): self.one})

    # -- gradings and weights --------------------------------------------------

    def suffix_groups(self, letters, tail):
        """sg[t] = grading(letters[t:]) . tail; sg[len] = tail."""
        g = self.group
        sg = [tail]
        for t in range(len(letters) - 1, -1, -1):
            sg.append(g.mul(self.letters[letters[t]].grading, sg[-1]))
        sg.reverse()
        return sg

    def slot_tails(self, w):
        """Group element attached to each slot (grading of the strictly
        later letters times the tail)."""
        return self.suffix_groups(w.letters, w.tail)[1:]

    def total_grading(self, w):
        return self.suffix_groups(w.letters, w.tail)[0]

    def weight_of_word(self, w):
        acc = None
        for tag in w.letters:
            wt = self.letters[tag].weight
            acc = wt if acc is None else tuple(a + b for a, b in zip(acc, wt))
        if acc is None:
            acc = (Fraction(0),) * self.datum.n
        return acc

    def weight_components(self, x):
        out = {}
        for w, c in x.terms.items():
            out.setdefault(self.weight_of_word(w), {})[w] = c
        return {wt: Element(self, d) for wt, d in sorted(out.items())}

    # -- coalgebra --------------------------------------------------------------

    def coproduct_word(self, w):
        """All cut components (left word, right word) of one basis word."""
        sg = self.suffix_groups(w.letters, w.tail)
        n = len(w.letters)
        return [(Word(w.letters[:j], sg[j]), Word(w.letters[j:], w.tail))
                for j in range(n + 1)]

    def coproduct(self, x):
        out = {}
        for w, c in x.terms.items():
            add_into(out, dict.fromkeys(self.coproduct_word(w), c))
        return out

    def coproduct_iter(self, x, parts):
        """Iterated coproduct with ``parts`` tensor factors."""
        if parts < 1:
            raise ValueError("need at least one tensor factor")
        out = {}
        for w, c in x.terms.items():
            n = len(w.letters)
            sg = self.suffix_groups(w.letters, w.tail)
            keys = []
            for cuts in combinations_with_replacement(range(n + 1), parts - 1):
                bounds = (0,) + cuts + (n,)
                keys.append(tuple(
                    Word(w.letters[bounds[t]:bounds[t + 1]], sg[bounds[t + 1]])
                    for t in range(parts)))
            add_into(out, dict.fromkeys(keys, c))
        return out

    def counit(self, x):
        out = self.zero
        for w, c in x.terms.items():
            if not w.letters:
                out = out + c
        return out

    # -- product ----------------------------------------------------------------

    def word_product(self, wx, wy):
        """Product of two basis words as a word -> coefficient map, cached
        for the algebra's lifetime.

        A group-like tail acts on letters only through their characters,
        so (u.s) * (v.t) = chi_v(s) shift_st(u * v), where chi_v is the
        product of the characters of v's letters and shift_st sets every
        tail to st.  Only words with identity tails are walked; a product
        with a tail is derived from the cached identity-tail product, and
        its words share that product's letter tuples.  `walk_product`
        gives the same map without the cache."""
        key = (wx, wy)
        got = self._prod_cache.get(key)
        if got is not None:
            return got
        e = self.group.identity
        base_key = (Word(wx.letters, e), Word(wy.letters, e))
        base = self._prod_cache.get(base_key)
        if base is None:
            base = self._prod_cache[base_key] = self.walk_product(*base_key)
        got = self._prod_cache[key] = self._shift(base, wx.tail, wy)
        return got

    def walk_product(self, wx, wy):
        """`word_product` without the cache: one walk of the two letter
        tuples with the tails applied, for products that are used once."""
        return self._shift(self._walk(wx.letters, wy.letters), wx.tail, wy)

    def _shift(self, base, s, wy):
        """(u.s) * (v.t) from base = u * v on identity tails:
        chi_v(s) shift_st(base), and base itself when s and t are the
        identity."""
        e = self.group.identity
        t = wy.tail
        if s == e and t == e:
            return base
        chi = None
        if s != e:
            cache = self._left_cache
            for b in wy.letters:
                c = cache.get((b, s), _UNSET)
                if c is _UNSET:
                    c = cache[b, s] = self._unless_one(self.letters[b].char(s))
                if c is not None:
                    chi = c if chi is None else chi * c
        st = self.group.mul(s, t)
        if chi is None:
            return {Word(w.letters, st): c for w, c in base.items()}
        return {Word(w.letters, st): chi * c for w, c in base.items()}

    def _unless_one(self, c):
        return None if c == self.one else c

    def _walk(self, lx, ly):
        """Product of the identity-tail words on letters lx and ly.

        A path through the (i, j) grid (i letters of x and j of y consumed)
        spells one output word.  Each edge's letter and coefficient depend
        only on its start node, so they are computed once per edge; a
        coefficient equal to one is stored as None and not multiplied in,
        and the left-action coefficients are cached per letter and group
        element for the algebra's lifetime.  The left and right actions
        keep the slot chain by construction; every contraction edge,
        the one out of (0, 0) included, is checked to keep it, which on
        the algebra's own rules says that the contraction letter is graded
        by the product of the two letters it replaces."""
        g = self.group
        one = self.one
        letters = self.letters
        unless_one = self._unless_one
        p, q = len(lx), len(ly)
        tail = g.identity
        sgx = self.suffix_groups(lx, tail)
        sgy = self.suffix_groups(ly, tail)

        # left[i][j]: coefficient of the left action of the not-yet-consumed
        # part of x on y's letter j; contract[i, j]: (letter, coefficient).
        # The cache lookup stays inline: a method call per entry made cold
        # symbolic A2 walks about 8% slower
        cache = self._left_cache
        left = []
        for s in sgx:
            row = []
            for b in ly:
                c = cache.get((b, s), _UNSET)
                if c is _UNSET:
                    c = cache[b, s] = unless_one(letters[b].char(s))
                row.append(c)
            left.append(row)
        contract = {}
        for i, a in enumerate(lx):
            for j, b in enumerate(ly):
                rule = self.alpha.get((a, b))
                if rule is None:
                    continue
                cl, rc = rule
                if (g.mul(letters[cl].grading, g.mul(sgx[i + 1], sgy[j + 1]))
                        != g.mul(sgx[i], sgy[j])):
                    raise ArithmeticError("slot chain violated")
                contract[i, j] = (cl, unless_one(
                    rc * letters[b].char(sgx[i + 1])))
        out = {}
        acc = []

        def walk(i, j, coeff):
            if i == p:
                # only left actions remain
                for c in left[p][j:]:
                    if c is not None:
                        coeff = coeff * c
                w = Word(tuple(acc) + ly[j:], tail)
            elif j == q:
                # only right actions remain
                w = Word(tuple(acc) + lx[i:], tail)
            else:
                w = None
            if w is not None:
                s = out.get(w)
                out[w] = coeff if s is None else s + coeff
                return
            if j < q:
                c = left[i][j]
                acc.append(ly[j])
                walk(i, j + 1, coeff if c is None else coeff * c)
                acc.pop()
            if i < p:
                # right action of the rest of y on a letter of x
                acc.append(lx[i])
                walk(i + 1, j, coeff)
                acc.pop()
                rule = contract.get((i, j))
                if rule is not None:
                    cl, c = rule
                    acc.append(cl)
                    walk(i + 1, j + 1, coeff if c is None else coeff * c)
                    acc.pop()

        walk(0, 0, one)
        return {w: c for w, c in out.items() if c}

    def product(self, x, y):
        acc = {}
        for wx, cx in x.terms.items():
            for wy, cy in y.terms.items():
                add_into(acc, self.word_product(wx, wy), cx * cy)
        return Element(self, acc)

    def product_recursive(self, wx, wy):
        """Independent oracle: peel the first letter of either factor."""
        g = self.group
        if not wx.letters:
            coeff = self.one
            for b in wy.letters:
                coeff = coeff * self.letters[b].char(wx.tail)
            return {Word(wy.letters, g.mul(wx.tail, wy.tail)): coeff}
        if not wy.letters:
            return {Word(wx.letters, g.mul(wx.tail, wy.tail)): self.one}
        out = {}

        def add(dic, letter, scale):
            if not scale:
                return
            for w, c in dic.items():
                nw = Word((letter,) + w.letters, w.tail)
                v = scale * c
                s = out.get(nw)
                out[nw] = v if s is None else s + v

        a, b = wx.letters[0], wy.letters[0]
        xr = Word(wx.letters[1:], wx.tail)
        yr = Word(wy.letters[1:], wy.tail)
        add(self.product_recursive(xr, wy), a, self.one)
        add(self.product_recursive(wx, yr), b,
            self.letters[b].char(self.total_grading(wx)))
        rule = self.alpha.get((a, b))
        if rule is not None:
            cl, rc = rule
            add(self.product_recursive(xr, yr), cl,
                rc * self.letters[b].char(self.total_grading(xr)))
        return {w: c for w, c in out.items() if c}

    def power(self, x, r):
        if r < 0:
            raise ValueError("negative powers are not defined")
        out = self.unit()
        for _ in range(r):
            out = self.product(out, x)
        return out

    # -- antipode -----------------------------------------------------------------

    def antipode_word(self, w):
        got = self._anti_cache.get(w)
        if got is not None:
            return got
        g = self.group
        if not w.letters:
            res = self.group_like(g.inv(w.tail))
        else:
            sg = self.suffix_groups(w.letters, w.tail)
            acc = dict(self.product(self.group_like(g.inv(sg[0])),
                                    self.element({w: self.one})).terms)
            for j in range(1, len(w.letters)):
                left = Word(w.letters[:j], sg[j])
                right = Word(w.letters[j:], w.tail)
                add_into(acc, self.product(self.antipode_word(left),
                                           self.element({right: self.one})
                                           ).terms)
            res = self.product(-self.element(acc),
                               self.group_like(g.inv(w.tail)))
        self._anti_cache[w] = res
        return res

    # -- rendering ----------------------------------------------------------------

    def render_word(self, w) -> str:
        if not w.letters:
            return self.group.render(w.tail)
        tails = self.slot_tails(w)
        parts = []
        for tag, t in zip(w.letters, tails):
            s = render_letter(tag)
            if t != self.group.identity:
                s += "." + self.group.render(t)
            parts.append(s)
        return " (x) ".join(parts) + " | tail=" + self.group.render(w.tail)

    def render(self, x) -> str:
        if not x.terms:
            return "0"
        keys = sorted(x.terms, key=word_key)
        bits = []
        for w in keys:
            bits.append(f"({x.terms[w]})*[{self.render_word(w)}]")
        return " + ".join(bits)

