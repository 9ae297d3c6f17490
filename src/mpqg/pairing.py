"""Skew bilinear pairing between the lower half (lowering generators and
primed torus) and the upper half (raising generators and unprimed torus).

The pairing is fixed by its generator values -- a lowering/raising pair of
equal index pairs to q_ii/(1-q_ii), primed against unprimed torus elements
pairs to the parameter bicharacter, mixed generator/torus pairs vanish --
and extends by the two product axioms.  Peeling one lowering generator
against the comultiplication of the right argument strips exactly one
leading raising letter per word, so the recursion runs directly on cotensor
words and closes to

    <f_{i1} ... f_{ik} K'_nu, x> = D_f * C_f(x),

with D_f = prod_{i in f} q_ii/(1-q_ii) one scalar per index multiset
(memoized on the pairing) and C_f(x) the sum of c_w q_{mu_w, nu} over the
words c_w e_{i1} ... e_{ik} K_{mu_w} of x.  A Gram matrix comes back in that
factored form, diag(D_f) times the coefficient matrix C, so its determinant
is prod D_f * det C and elimination never meets the (1-q_ii)^k
denominators.  A transposed recursion (peeling the right argument against
cuts of the left) provides an independent evaluation path.
"""

from __future__ import annotations

from fractions import Fraction

from .cartan import LatticeVector, simple_root
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
        diagonal = [self.params.entry(i, i) for i in range(self.datum.n)]
        self._base = [q / (self.alg.one - q) for q in diagonal]
        # sorted index multiset -> D_f, one entry per multiset asked for
        self._factors = {}

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
        """q_ii/(1-q_ii): the pairing of f_i with e_i."""
        return self._base[i]

    def _row_factor(self, fseq):
        """D_f = prod over i in f of q_ii/(1-q_ii): the factor every pairing
        of the lowering monomial along fseq carries, whatever the right
        argument.  It depends only on the multiset of indices."""
        key = tuple(sorted(fseq))
        out = self._factors.get(key)
        if out is None:
            out = self.alg.one
            for i in key:
                out = out * self._base[i]
            self._factors[key] = out
        return out

    # -- recursion on the lowering monomial --------------------------------------

    def _coefficient(self, fseq, nu, x):
        """C_f(x): the sum of c_w q_{mu_w, nu} over the words c_w E_f K_{mu_w}
        of x whose letters are exactly the raising letters along fseq."""
        letters = tuple(("E", i) for i in fseq)
        out = self.alg.zero
        for word, c in x.terms.items():
            if word.letters == letters:
                mu = self._torus_vector(word.tail, "K")
                out = out + c * self.params.q_pairing(mu, nu)
        return out

    def pair_monomial(self, fseq, nu, x):
        """Pairing of the lowering monomial (f_{i1} ... f_{ik} times the
        primed torus element with exponents nu) against an element of the
        upper half: D_f C_f(x)."""
        return self._row_factor(fseq) * self._coefficient(fseq, nu, x)

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
        group = self.alg.group
        if not eseq:
            out = alg.zero
            for word, c in y.terms.items():
                if word.letters:
                    continue
                nu = self._torus_vector(word.tail, "Kp")
                out = out + c * self.params.q_pairing(mu, nu)
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
        """(f_basis, e_basis, factors, coeffs): the Gram matrix of the
        pairing on the graded bases at weight beta, rows indexed by the
        lowering basis and columns by the raising one, factored as
        diag(factors) * coeffs with factors[r] = D_f of row r."""
        f_basis, _ = self.graded_basis("-", beta)
        e_basis, e_elts = self.graded_basis("+", beta)
        factors = [self._row_factor(fseq) for fseq in f_basis]
        coeffs = Matrix([[self._coefficient(fseq, self._zero, x)
                          for x in e_elts] for fseq in f_basis])
        return f_basis, e_basis, factors, coeffs


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
