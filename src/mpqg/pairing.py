"""Skew bilinear pairing between the lower half (lowering generators and
primed torus) and the upper half (raising generators and unprimed torus).

The pairing is fixed by its generator values -- a lowering/raising pair of
equal index pairs to q_ii/(1-q_ii), primed against unprimed torus elements
pairs to the parameter bicharacter, mixed generator/torus pairs vanish --
and extends by the two product axioms.  Peeling one lowering generator
against the comultiplication of the right argument strips exactly one
leading raising letter per word, so the recursion runs directly on cotensor
words.  A transposed recursion (peeling the right argument against cuts of
the left) provides an independent evaluation path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .cartan import LatticeVector, simple_root
from .cotensor import word_key
from .linalg import Matrix
from .realization import Realization, graded_closure


class SkewPairing:
    def __init__(self, real: Realization):
        self.real = real
        self.alg = real.alg
        self.params = real.params
        self.datum = real.datum
        self._zero = LatticeVector((Fraction(0),) * self.datum.n)
        # per sign: the graded closure of the half and the layers it built
        self._halves = {}
        for sign, gen in (("+", real.e_elt), ("-", real.f_elt)):
            steps = [(simple_root(self.datum, i),
                      lambda v, x=gen(i): self.alg.product(v, x))
                     for i in range(self.datum.n)]
            self._halves[sign] = (graded_closure(
                self.alg.one, self._zero, self.alg.unit(), steps, {}), [])

    # -- torus-exponent extraction ------------------------------------------------

    def _torus_vector(self, g, family):
        """Exponent vector of a group element required to lie in one torus
        family ("K" or "Kp")."""
        group = self.alg.group
        n = self.datum.n
        out = []
        for tag, e in zip(group.gens, g):
            if tag[0] == family:
                out.append(Fraction(e))
            elif e:
                raise ValueError(
                    f"group element {group.render(g)} leaves the "
                    f"{family}-torus")
        return LatticeVector(tuple(out[:n]))

    def base_value(self, i):
        qii = self.params.entry(i, i)
        return qii / (self.alg.one - qii)

    def _torus_pair(self, mu, nu):
        """Value on a primed torus element (exponents nu) against an
        unprimed one (exponents mu)."""
        return self.params.q_pairing(mu, nu)

    # -- recursion on the lowering monomial --------------------------------------

    def pair_monomial(self, fseq, nu, x):
        """Pairing of the lowering monomial (f_{i1} ... f_{ik} times the
        primed torus element with exponents nu) against an element of the
        upper half."""
        alg = self.alg
        if not isinstance(nu, LatticeVector):
            nu = LatticeVector(tuple(Fraction(c) for c in nu))
        out = alg.zero
        for word, c in x.terms.items():
            if len(word.letters) != len(fseq):
                continue
            ok = True
            for letter, i in zip(word.letters, fseq):
                if letter != ("E", i):
                    ok = False
                    break
            if not ok:
                continue
            val = c
            for i in fseq:
                val = val * self.base_value(i)
            mu = self._torus_vector(word.tail, "K")
            out = out + val * self._torus_pair(mu, nu)
        return out

    # -- transposed recursion on the raising monomial -----------------------------

    def pair_transposed(self, y, eseq, mu):
        """Pairing of an element of the lower half against the raising
        monomial (e_{j1} ... e_{jm} times the unprimed torus element with
        exponents mu), peeling the raising letters against cuts of y.

        The product axiom on the right argument reverses tensor factors, so
        the first raising generator meets the *last* cut of y; stripping
        lowering letters from the right end implements that.
        """
        alg = self.alg
        if not isinstance(mu, LatticeVector):
            mu = LatticeVector(tuple(Fraction(c) for c in mu))
        group = self.alg.group
        if not eseq:
            out = alg.zero
            for word, c in y.terms.items():
                if word.letters:
                    continue
                nu = self._torus_vector(word.tail, "Kp")
                out = out + c * self._torus_pair(mu, nu)
            return out
        j = eseq[0]
        stripped = {}
        for word, c in y.terms.items():
            if not word.letters or word.letters[-1] != ("F", j):
                continue
            cut_tail = group.mul(
                self.alg.letters[("F", j)].grading, word.tail)
            rest = word._replace(letters=word.letters[:-1], tail=cut_tail)
            stripped[rest] = stripped.get(rest, alg.zero) + c
        rest_elt = alg.element(stripped)
        if rest_elt.is_zero:
            return alg.zero
        return self.base_value(j) * self.pair_transposed(
            rest_elt, eseq[1:], mu)

    # -- pairing of realized elements ----------------------------------------------

    def decompose_lower(self, y):
        """Write an element of the lower half as a combination of realized
        lowering monomials; returns a list of ((fseq, nu), coeff)."""
        alg = self.alg
        monos = []
        columns = []
        seen = set()
        for word in y.terms:
            if any(letter[0] != "F" for letter in word.letters):
                raise ValueError("element leaves the lower half")
            fseq = [letter[1] for letter in word.letters]
            base = alg.group.element([(("Kp", i), -1) for i in fseq])
            nu_g = alg.group.mul(base, word.tail)
            nu = self._torus_vector(nu_g, "Kp")
            for seq in _distinct_orders(tuple(sorted(fseq))):
                key = (seq, nu.coords)
                if key in seen:
                    continue
                seen.add(key)
                monos.append((seq, nu))
                columns.append(self.realize_lower(seq, nu))
        if not columns:
            return []
        support = sorted(set(y.terms).union(*(col.terms for col in columns)),
                         key=word_key)
        rows = [[col.terms.get(w, alg.zero) for col in columns]
                for w in support]
        sol = Matrix(rows).solve([y.terms.get(w, alg.zero) for w in support])
        if sol is None:
            raise ValueError("element is not a combination of realized "
                             "lowering monomials")
        return [(monos[k], c) for k, c in enumerate(sol) if c]

    def realize_lower(self, fseq, nu):
        """Realized image of the lowering monomial f_seq times the primed
        torus element with exponents nu."""
        alg = self.alg
        out = alg.unit()
        for i in fseq:
            out = alg.product(out, self.real.f_elt(i))
        tail = alg.group.element(
            [(("Kp", i), _int_exp(c)) for i, c in enumerate(nu.coords)])
        return alg.product(out, alg.group_like(tail))

    def realize_upper(self, eseq, mu):
        alg = self.alg
        out = alg.unit()
        for j in eseq:
            out = alg.product(out, self.real.e_elt(j))
        tail = alg.group.element(
            [(("K", i), _int_exp(c)) for i, c in enumerate(mu.coords)])
        return alg.product(out, alg.group_like(tail))

    def pair(self, y, x):
        """Pairing of realized elements: lower-half y against upper-half x."""
        out = self.alg.zero
        for (fseq, nu), c in self.decompose_lower(y):
            out = out + c * self.pair_monomial(fseq, nu, x)
        return out

    # -- graded bases and Gram matrices ----------------------------------------------

    def graded_basis(self, sign, beta):
        """(paths, elements): index paths whose realized products (the unit
        times e_elt, sign "+", or f_elt, sign "-", along the path) are a
        basis of the graded component of weight beta, built by the graded
        closure of the half: degree beta is spanned by (degree beta -
        alpha_i) times the i-th generator."""
        if sign not in self._halves:
            raise ValueError("sign must be '+' or '-'")
        grown, layers = self._halves[sign]
        h = beta.height()
        while len(layers) <= h:
            layers.append(next(grown, []))
        found = [(path, x) for mu, path, x in layers[h] if mu == beta]
        return [path for path, _ in found], [x for _, x in found]

    def gram_matrix(self, beta):
        """Gram matrix of the pairing on the graded bases at weight beta:
        rows indexed by the lowering basis, columns by the raising one."""
        f_basis, _ = self.graded_basis("-", beta)
        e_basis, e_elts = self.graded_basis("+", beta)
        rows = [[self.pair_monomial(fseq, self._zero, x) for x in e_elts]
                for fseq in f_basis]
        return f_basis, e_basis, Matrix(rows)


def _int_exp(c):
    c = Fraction(c)
    if c.denominator != 1:
        raise ValueError("torus exponents must be integers")
    return int(c)


def _distinct_orders(items):
    """All distinct orderings of a multiset, as a sorted list of tuples."""
    return sorted(set(permutations(items)))


def weights_of_height(datum, h):
    """All nonnegative integer root-lattice vectors of the given height."""
    n = datum.n
    out = []

    def rec(pos, left, acc):
        if pos == n - 1:
            out.append(LatticeVector(tuple(Fraction(c)
                                           for c in acc + [left])))
            return
        for c in range(left + 1):
            rec(pos + 1, left - c, acc + [c])

    if n == 1:
        return [LatticeVector((Fraction(h),))]
    rec(0, h, [])
    return sorted(out, key=lambda v: v.coords)
