"""Cocycle twisting: the group bicharacter built from a source/target
parameter pair deforms the product, and the comparison map identifies the
twisted machinery with the machinery of the target parameters.

On basis words the three-fold convolution product collapses: only the
outermost coproduct cuts are group-like, so x twisted-times y equals
sigma(total grading x, total grading y) * sigma^{-1}(tail x, tail y) times
the untwisted product.  The comparison map scales each letter of a word by
sigma(letter grading, inverse slot tail) and is the identity on group-likes.
"""

from __future__ import annotations

from .grouplike import build_bicharacter
from .linalg import add_into
from .realization import Realization, relation_exprs


class TwistContext:
    """A base realization, a target parameter matrix satisfying the
    compatibility constraints, and the connecting bicharacter."""

    def __init__(self, real: Realization, qhat, sigma=None):
        self.real = real
        self.alg = real.alg
        self.datum = real.datum
        self.q = real.params
        self.qhat = qhat
        self.hat_real = Realization(real.datum, qhat)
        self.hat_alg = self.hat_real.alg
        if sigma is None:
            sigma = build_bicharacter(self.alg.group, self.q, qhat)
        self.sigma = sigma
        self.sigma_inv = sigma.inverse()
        g = self.alg.group
        one = self.alg.one
        for i in range(self.datum.n):
            if sigma(g.basis(("K", i)), g.basis(("Kp", i))) != one:
                raise ValueError(
                    "cocycle gauge must pair the unprimed torus trivially "
                    "against the primed one")

    # -- twisted structures ---------------------------------------------------------

    def twisted_product(self, x, y):
        """x twisted-times y: per word pair, the cocycle evaluated on total
        gradings times its inverse on tails, times the untwisted product."""
        alg = self.alg
        out = {}
        for wx, cx in x.terms.items():
            gx = alg.total_grading(wx)
            for wy, cy in y.terms.items():
                gy = alg.total_grading(wy)
                s = self.sigma(gx, gy) * self.sigma_inv(wx.tail, wy.tail)
                add_into(out, alg.word_product(wx, wy), cx * cy * s)
        return alg.element(out)

    # -- comparison map ----------------------------------------------------------------

    def phi_scalar(self, w):
        """The comparison map's scaling factor on one basis word."""
        alg = self.alg
        group = alg.group
        s = alg.one
        for tag, slot in zip(w.letters, alg.slot_tails(w)):
            s = s * self.sigma(alg.letters[tag].grading, group.inv(slot))
        return s

    def phi_map(self, x, invert=False):
        """Comparison map into the target machinery (or back when
        inverted): words are preserved, coefficients are rescaled."""
        dst = self.alg if invert else self.hat_alg
        terms = {}
        for w, c in x.terms.items():
            s = self.phi_scalar(w)
            terms[w] = c / s if invert else c * s
        return dst.element(terms)

    # -- contraction comparison -----------------------------------------------------

    def _contraction_term(self, alg, i, j, tail_e, tail_f):
        """The letter-contraction part of (E_i; tail_e) * (F_j; tail_f) in
        the given machinery."""
        rule = alg.alpha.get((("E", i), ("F", j)))
        if rule is None:
            return alg.zero_element()
        xtag, rc = rule
        coeff = rc * alg.letters[("F", j)].char(tail_e)
        word = alg.word([xtag], alg.group.mul(tail_e, tail_f))
        return alg.element({word: coeff})

    def alpha_twist_residual(self, i, j, tail_e, tail_f):
        """Difference between the twisted contraction (cocycle conjugation
        of the base one) and the pullback of the target contraction through
        the comparison map; zero when the structures agree."""
        alg = self.alg
        g = alg.group
        x = alg.element({alg.word([("E", i)], tail_e): alg.one})
        y = alg.element({alg.word([("F", j)], tail_f): alg.one})
        gx = g.mul(alg.letters[("E", i)].grading, tail_e)
        gy = g.mul(alg.letters[("F", j)].grading, tail_f)
        conj = self._contraction_term(alg, i, j, tail_e, tail_f).scale(
            self.sigma(gx, gy) * self.sigma_inv(tail_e, tail_f))
        hat = self._contraction_term(self.hat_alg, i, j, tail_e, tail_f)
        hat = hat.scale(self.phi_scalar(next(iter(x.terms)))
                        * self.phi_scalar(next(iter(y.terms))))
        pulled = self.phi_map(hat, invert=True)
        return conj - pulled

    def contraction_verdict(self):
        """Contraction transport on every raising/lowering letter pair over
        a sample of tails: ("pass", how many combinations) or ("fail",
        where it breaks)."""
        g = self.alg.group
        n = self.datum.n
        samples = [g.identity]
        for i in range(n):
            samples.append(g.basis(("K", i)))
            samples.append(g.element([(("Kp", i), -1), (("K", i), 1)]))
        for i in range(n):
            for j in range(n):
                for te in samples:
                    for tf in samples:
                        if not self.alpha_twist_residual(i, j, te, tf).is_zero:
                            return "fail", (
                                f"contraction transport broken at ({i},{j})")
        return "pass", (f"{n ** 2 * len(samples) ** 2} "
                        "letter/tail combinations")

    # -- twisted defining relations ----------------------------------------------------

    def twisted_residuals(self, rid):
        """Left minus right sides of the defining relations with target
        constants, products taken twisted."""
        return [self.real.psi(x, self.twisted_product)
                for x in relation_exprs(self.datum, self.qhat, rid)]


def build_twist(datum, target="one-parameter"):
    """Standard twisting setup over the mixed-diagonal base: diagonal
    parameters tied to one variable, off-diagonal ones free.  Targets:
    "one-parameter" collapses all entries to powers of the single variable;
    "identity" keeps the base parameters (trivial cocycle)."""
    from .cartan import ParamMatrix

    base = ParamMatrix.mixed_diagonal(datum)
    real = Realization(datum, base)
    if target == "one-parameter":
        qhat = ParamMatrix.one_parameter(datum)
    elif target == "identity":
        qhat = base
    else:
        raise ValueError("target must be 'one-parameter' or 'identity'")
    return TwistContext(real, qhat)
