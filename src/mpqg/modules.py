"""Integrable irreducible highest-weight modules carved out of the cotensor
machinery enlarged by a highest-weight letter.

Construction: breadth-first lowering closure from the highest-weight word,
with exact Gauss--Jordan elimination per weight space.  E_i acts as c_i
times the q-derivation that deletes a leading F_i (Kashiwara's e'_i; Rosso
1998), which is its adjoint action modulo the ideal on module vectors; the
other generators act by the adjoint action.  Weights are tracked by letter
bookkeeping -- every lowering step subtracts one simple root -- which stays
valid in every parameter mode, including roots of unity where distinct
weights may share torus eigenvalues.  The defining relations can be
re-verified as exact matrix identities on every weight space, and the total
dimension is meant to be compared against the Weyl-dimension oracle by
callers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .cartan import (LatticeVector, ParamMatrix, coweight_pairing, marks,
                     positive_roots, rho, simple_root)
from .cotensor import Word
from .linalg import Matrix
from .realization import Realization, graded_closure, relation_exprs


def render_weight(mu) -> str:
    return "(" + ", ".join(str(c) for c in mu.coords) + ")"


class ClosureError(RuntimeError):
    """Lowering closure did not stabilize within the depth cutoff."""

    def __init__(self, depth, pending):
        names = ", ".join(render_weight(mu) for mu in pending)
        super().__init__(
            f"lowering closure still open at depth {depth}; pending weight "
            f"spaces: {names}")
        self.depth = depth
        self.pending = tuple(pending)


class FiniteTypeError(ValueError):
    """The check needs a finite-type datum and met another one: out of its
    scope, so the verdict is undecided, not a failure."""


class HighestWeightModule:
    """Lowering closure of the highest-weight word, with exact weight-space
    bases and the actions of all presented generators.

    The weight must be dominant integral (`marks` holds its pairings with
    the simple coroots).  `max_depth` cuts the lowering closure off; left
    out, it is derived from the weight, which needs a finite-type datum.
    """

    def __init__(self, datum, params, lam, *, max_depth=None):
        self.datum = datum
        self.params = params
        self.lam = lam
        self.marks = marks(datum, lam)
        if max_depth is None:
            if not datum.is_finite_type():
                raise ValueError(
                    "an explicit depth cutoff is required outside finite type")
            # All module weights lie in the convex hull of the Weyl orbit,
            # so the lowering depth never exceeds the height of twice the
            # highest weight.
            max_depth = 2 * int(sum(Fraction(c) for c in lam.coords)) + 2
        self.max_depth = int(max_depth)
        self.real = Realization(datum, params, lam)
        self.alg = self.real.alg
        self.highest_vector = self.alg.letter_element(("V",))
        self._mat_cache = {}
        self._spans = {}
        self._build()

    # -- closure -----------------------------------------------------------------

    def _weight_key(self, mu):
        return ((self.lam - mu).height(), tuple(mu.coords))

    def _build(self):
        steps = [(-simple_root(self.datum, i), partial(self.act, ("f", i)))
                 for i in range(self.datum.n)]
        layers = graded_closure(self.alg.one, self.lam, self.highest_vector,
                                steps, self._spans)
        for depth, layer in enumerate(layers):
            if depth >= self.max_depth:
                pending = sorted({mu for mu, _, _ in layer},
                                 key=self._weight_key)
                raise ClosureError(depth, pending)
        self.weights = sorted(
            (mu for mu, s in self._spans.items() if s.rows),
            key=self._weight_key)
        self.closure_certified = self._certify()

    def _certify(self):
        """All lowering images of all basis vectors lie in the computed
        span (the explicit closure certificate)."""
        for mu in self.weights:
            for vec in self.basis(mu):
                for i in range(self.datum.n):
                    img = self.act(("f", i), vec)
                    if img.is_zero:
                        continue
                    spn = self._spans.get(mu - simple_root(self.datum, i))
                    if spn is None or spn.reduce(img.terms):
                        return False
        return True

    # -- table access ------------------------------------------------------------

    def basis(self, mu):
        spn = self._spans.get(mu)
        return [self.alg.element(r) for r in spn.rows.values()] if spn else []

    def weight_dims(self):
        return [(mu, len(self._spans[mu])) for mu in self.weights]

    @property
    def dimension(self):
        return sum(d for _mu, d in self.weight_dims())

    def coords_at(self, mu, vec):
        """Coordinates of vec in the weight-mu basis; None when outside."""
        spn = self._spans.get(mu)
        if spn is None:
            return [] if vec.is_zero else None
        if spn.reduce(vec.terms):
            return None
        # the rows are mutually reduced: each coordinate is read off at its
        # pivot word
        return [vec.terms.get(pw, self.alg.zero) for pw in spn.rows]

    # -- actions -------------------------------------------------------------------

    def _raise(self, i, vec):
        """c_i d_i(vec), c_i = -q_ii / (q_ii - 1): d_i keeps the words that
        start with F_i and drops that letter, tail and all else unchanged."""
        qii = self.params.entry(i, i)
        c = self.alg.coerce(-qii / (qii - self.params.one))
        first = ("F", i)
        return self.alg.element({
            Word(w.letters[1:], w.tail): c * v for w, v in vec.terms.items()
            if w.letters and w.letters[0] == first})

    def act(self, atom, vec):
        """Action of a presented atom (("e", i), ("f", i), ("w", i, s) or
        ("wp", i, s)) on a module vector: E_i by the scaled q-derivation,
        the others by the adjoint action, whose images must keep one weight
        letter and no contraction letter in every word."""
        if atom[0] == "e":
            return self._raise(atom[1], vec)
        x = self.real.ad_left(self.real._atom_elt(atom), vec)
        for w in x.terms:
            kinds = [t[0] for t in w.letters]
            if kinds.count("V") != 1 or "X" in kinds:
                raise ValueError(
                    "module vector left the contraction-free words with one "
                    "weight letter: " + self.alg.render_word(w))
        return x

    def nilpotency_threshold(self, i):
        """First r with the r-th lowering power of the highest vector zero,
        or marks[i] + 2 if the chain outlives the expected threshold."""
        vec = self.highest_vector
        r = 0
        while not vec.is_zero and r <= self.marks[i] + 1:
            vec = self.act(("f", i), vec)
            r += 1
        return r

    # -- matrices -----------------------------------------------------------------

    def _atom_shift(self, atom):
        if atom[0] == "e":
            return simple_root(self.datum, atom[1])
        if atom[0] == "f":
            return -simple_root(self.datum, atom[1])
        return LatticeVector((0,) * self.datum.n)

    def act_matrix(self, atom, mu):
        """(target weight, matrix) of the atom's action out of the
        weight-mu space, columns indexed by the stored basis there; a None
        matrix encodes the verified zero map onto an absent weight space."""
        key = (atom, mu)
        got = self._mat_cache.get(key)
        if got is not None:
            return got
        target = mu + self._atom_shift(atom)
        images = [self.act(atom, b) for b in self.basis(mu)]
        if target in self._spans:
            cols = []
            for img in images:
                cc = self.coords_at(target, img)
                if cc is None:
                    raise ValueError(
                        f"action image of a weight-{render_weight(mu)} "
                        f"vector left the computed module")
                cols.append(cc)
            got = (target, Matrix([[col[t] for col in cols]
                                   for t in range(len(self._spans[target]))]))
        elif all(img.is_zero for img in images):
            got = (target, None)
        else:
            raise ValueError(
                "action image outside the weight ladder at "
                + render_weight(mu))
        self._mat_cache[key] = got
        return got

    # -- defining relations as matrix identities -------------------------------------

    def _operator_parts(self, rid):
        """Lists of (monomial, coefficient) pairs whose summed action must
        annihilate every module vector."""
        return [list(x.terms.items())
                for x in relation_exprs(self.datum, self.params, rid)]

    def _identity_matrix(self, d):
        return Matrix([[self.alg.one if r == c else self.alg.zero
                        for c in range(d)] for r in range(d)])

    def _mono_matrix(self, mono, mu):
        """(end weight, matrix/None) of the composed monomial out of
        weight mu; atoms apply right to left."""
        end = mu
        for atom in mono:
            end = end + self._atom_shift(atom)
        if not mono:
            return end, self._identity_matrix(len(self._spans[mu]))
        cur = mu
        m = None
        for atom in reversed(mono):
            cur, am = self.act_matrix(atom, cur)
            if am is None:
                return end, None
            m = am if m is None else am * m
        return end, m

    def check_matrix_relation(self, rid):
        """Whether the relation holds as a sum of composed action matrices
        vanishing on every weight space."""
        for part in self._operator_parts(rid):
            for mu in self.weights:
                total = None
                end_seen = None
                for mono, coeff in part:
                    end, m = self._mono_matrix(mono, mu)
                    if end_seen is None:
                        end_seen = end
                    elif end != end_seen:
                        raise ValueError(
                            "relation monomials shift weights inconsistently")
                    if m is None:
                        continue
                    sm = m.scale(self.alg.coerce(coeff))
                    total = sm if total is None else total + sm
                if total is not None and not total.is_zero():
                    return False
        return True

    def relation_matrix_report(self):
        return {rid: self.check_matrix_relation(rid)
                for rid in self.real.relation_ids()}


def build_module(datum, params, lam, *, max_depth=None):
    return HighestWeightModule(datum, params, lam, max_depth=max_depth)


# -- root-of-unity variant ----------------------------------------------------------

def alcove_check(datum, lam, ell):
    """Strict-interior test of a dominant integral weight against the
    order-ell alcove; raises on hypothesis violations."""
    if not datum.is_finite_type():
        raise FiniteTypeError("alcove membership needs a finite-type datum")
    ell = int(ell)
    if ell < 3 or ell % 2 == 0:
        raise ValueError("the order must be an odd integer >= 3")
    triple = any(datum.a[i][j] <= -3
                 for i in range(datum.n) for j in range(datum.n) if i != j)
    if triple and ell % 3 == 0:
        raise ValueError("a triple bond requires an order prime to 3")
    marks(datum, lam)  # raises unless lam is dominant integral
    shifted = lam + rho(datum)
    for beta in positive_roots(datum):
        v = coweight_pairing(datum, shifted, beta)
        if not 0 < v < ell:
            return False
    return True


def root_of_unity_module(datum, lam, ell, *, offdiag=None, max_depth=None):
    """Module over order-ell cyclotomic parameters, in Q(zeta_ell) and over
    the finite grading group; refuses weights outside the alcove."""
    if not alcove_check(datum, lam, ell):
        raise ValueError(
            f"weight {render_weight(lam)} lies outside the order-{ell} alcove")
    params = ParamMatrix.root_of_unity(datum, ell, offdiag=offdiag)
    return build_module(datum, params, lam, max_depth=max_depth)
