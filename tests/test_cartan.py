"""Cartan data, lattice combinatorics, and parameter matrices."""

import random
from fractions import Fraction
from itertools import product

import pytest

from mpqg.cartan import (
    CartanDatum,
    LatticeVector,
    ParamMatrix,
    coweight_pairing,
    fundamental_weight,
    kostant_count,
    positive_roots,
    rho,
    simple_root,
    sym_form,
    weyl_dim,
)
from mpqg.cyclotomic import zeta
from mpqg.scalars import Scalar


ALL_PRESETS = ["A1", "A1xA1", "A2", "B2", "G2"]


def weight_from_marks(datum, marks):
    """Dominant weight sum m_i varpi_i from nonnegative integer marks."""
    out = LatticeVector((0,) * datum.n)
    for i, m in enumerate(marks):
        out = out + m * fundamental_weight(datum, i)
    return out


def test_preset_validation():
    for name in ALL_PRESETS:
        d = CartanDatum.preset(name)
        assert d.is_finite_type()
    with pytest.raises(ValueError):
        CartanDatum(((2, -1), (-1, 3)), (1, 1))  # diagonal not 2
    with pytest.raises(ValueError):
        CartanDatum(((2, 1), (1, 2)), (1, 1))  # positive off-diagonal
    with pytest.raises(ValueError):
        CartanDatum(((2, -1), (0, 2)), (1, 1))  # asymmetric zero pattern
    with pytest.raises(ValueError):
        CartanDatum(((2, -1), (-2, 2)), (1, 1))  # wrong symmetrizer
    # entries int() would round or parse into A2 are refused
    with pytest.raises(ValueError, match="integers"):
        CartanDatum(((2, -1.7), (-1.2, 2)), (1.9, 1))
    with pytest.raises(ValueError, match="integers"):
        CartanDatum(((2, "-1"), ("-1", 2)), (1, 1))
    with pytest.raises(ValueError, match="integers"):
        CartanDatum(((2, -1), (-1, 2)), (True, 1))


def test_affine_not_finite_type():
    # affine A1: determinant of symmetrization is 0
    aff = CartanDatum(((2, -2), (-2, 2)), (1, 1))
    assert not aff.is_finite_type()


def test_positive_roots_hand_lists():
    a2 = CartanDatum.preset("A2")
    got = {r.coords for r in positive_roots(a2)}
    assert got == {(1, 0), (0, 1), (1, 1)}

    b2 = CartanDatum.preset("B2")
    got = {r.coords for r in positive_roots(b2)}
    assert got == {(1, 0), (0, 1), (1, 1), (1, 2)}

    g2 = CartanDatum.preset("G2")
    got = {r.coords for r in positive_roots(g2)}
    assert got == {(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)}


def test_fundamental_weights_and_pairing():
    a2 = CartanDatum.preset("A2")
    w1 = fundamental_weight(a2, 0)
    assert w1.coords == (Fraction(2, 3), Fraction(1, 3))
    for i in range(2):
        for j in range(2):
            wi = fundamental_weight(a2, i)
            assert coweight_pairing(a2, wi, simple_root(a2, j)) == (1 if i == j else 0)

    b2 = CartanDatum.preset("B2")
    assert fundamental_weight(b2, 0).coords == (1, 1)
    assert weight_from_marks(b2, (1, 0)).coords == (1, 1)

    # rho = sum of fundamental weights
    for name in ALL_PRESETS:
        d = CartanDatum.preset(name)
        s = weight_from_marks(d, (1,) * d.n)
        assert rho(d) == s


def test_sym_form_matches_cartan_pairing():
    for name in ALL_PRESETS:
        d = CartanDatum.preset(name)
        for i in range(d.n):
            for j in range(d.n):
                ai, aj = simple_root(d, i), simple_root(d, j)
                assert sym_form(d, ai, aj) == d.sym(i, j)
                assert coweight_pairing(d, aj, ai) == d.a[i][j]


def test_weyl_dimensions():
    a2 = CartanDatum.preset("A2")
    assert weyl_dim(a2, weight_from_marks(a2, (1, 0))) == 3
    assert weyl_dim(a2, weight_from_marks(a2, (0, 1))) == 3
    assert weyl_dim(a2, weight_from_marks(a2, (1, 1))) == 8
    assert weyl_dim(a2, weight_from_marks(a2, (2, 0))) == 6

    b2 = CartanDatum.preset("B2")
    assert weyl_dim(b2, weight_from_marks(b2, (1, 0))) == 5
    assert weyl_dim(b2, weight_from_marks(b2, (0, 1))) == 4

    # with d = (3, 1) the first simple root is the long one, so the first
    # fundamental weight is the adjoint highest weight (dim 14) and the
    # second gives the 7-dimensional representation
    g2 = CartanDatum.preset("G2")
    assert weyl_dim(g2, weight_from_marks(g2, (1, 0))) == 14
    assert weyl_dim(g2, weight_from_marks(g2, (0, 1))) == 7

    a1 = CartanDatum.preset("A1")
    for m in range(6):
        assert weyl_dim(a1, weight_from_marks(a1, (m,))) == m + 1


def test_kostant_counts():
    a2 = CartanDatum.preset("A2")
    # alpha1 + alpha2 = (alpha1)+(alpha2) or (alpha1+alpha2)
    assert kostant_count(a2, LatticeVector((1, 1))) == 2
    assert kostant_count(a2, LatticeVector((1, 0))) == 1
    assert kostant_count(a2, LatticeVector((0, 0))) == 1
    assert kostant_count(a2, LatticeVector((2, 1))) == 2
    # 2a1+2a2: {t,t}, {t,a1,a2}, {a1,a1,a2,a2} with t = a1+a2
    assert kostant_count(a2, LatticeVector((2, 2))) == 3

    b2 = CartanDatum.preset("B2")
    assert kostant_count(b2, LatticeVector((1, 1))) == 2
    assert kostant_count(b2, LatticeVector((1, 2))) == 3


def test_kostant_count_matches_generating_function():
    # the coefficients of prod over positive roots beta of 1/(1 - x^beta),
    # truncated at height 8: multiplying by 1/(1 - x^beta) adds to each
    # coefficient the (already updated) one at weight - beta
    top = 8
    for name in ALL_PRESETS:
        datum = CartanDatum.preset(name)
        weights = sorted((w for w in product(range(top + 1), repeat=datum.n)
                          if sum(w) <= top), key=sum)
        series = {w: int(not any(w)) for w in weights}
        for beta in positive_roots(datum):
            b = tuple(int(c) for c in beta.coords)
            for w in weights:
                rest = tuple(x - y for x, y in zip(w, b))
                if min(rest) >= 0:
                    series[w] += series[rest]
        for w in weights:
            assert kostant_count(datum, LatticeVector(w)) == series[w], (
                name, w)


def test_positive_roots_are_a_fresh_list_each_call():
    for name in ALL_PRESETS:
        datum = CartanDatum.preset(name)
        first = positive_roots(datum)
        want = list(first)
        first.append(simple_root(datum, 0))
        first.reverse()
        again = positive_roots(datum)
        assert again == want and again is not first


def test_root_of_unity_diagonal_orders():
    for name in ALL_PRESETS:
        datum = CartanDatum.preset(name)
        for ell in (5, 7):
            pm = ParamMatrix.root_of_unity(datum, ell)
            assert pm.orders == (ell,) * datum.n
            for i in range(datum.n):
                assert pm.entry(i, i).multiplicative_order() == ell, (
                    name, ell, i)


def test_constraint_holds_in_all_modes():
    for name in ALL_PRESETS:
        d = CartanDatum.preset(name)
        for pm in (ParamMatrix.symbolic(d), ParamMatrix.one_parameter(d),
                   ParamMatrix.mixed_diagonal(d)):
            for i in range(d.n):
                for j in range(d.n):
                    lhs = pm.entry(i, j) * pm.entry(j, i)
                    rhs = pm.entry(i, i) ** d.a[i][j]
                    assert lhs == rhs, (name, pm.mode, i, j)


def test_symbolic_diagonal_tied_per_component():
    # q_ij q_ji = q_ii^a_ij for all ordered pairs forces
    # q_ii^a_ij = q_jj^a_ji, so a component has one diagonal parameter
    b2 = CartanDatum.preset("B2")
    pm = ParamMatrix.symbolic(b2)
    assert pm.entry(0, 0) == pm.entry(1, 1) ** 2
    g2 = CartanDatum.preset("G2")
    pm = ParamMatrix.symbolic(g2)
    assert pm.entry(0, 0) == pm.entry(1, 1) ** 3
    # disconnected: the two diagonals stay independent
    aa = CartanDatum.preset("A1xA1")
    pm = ParamMatrix.symbolic(aa)
    assert pm.entry(0, 0) != pm.entry(1, 1)


def test_symbolic_diagonal_from_the_gcd_base():
    # d = (2, 3): the least symmetrizer does not divide the other, and with
    # g = gcd(2, 3) = 1 the diagonal is t^2, t^3 in one base variable t
    hyp = CartanDatum(((2, -3), (-2, 2)), (2, 3))
    pm = ParamMatrix.symbolic(hyp)
    t = Scalar.variable(("q", 0, 0))
    assert pm.entry(0, 0) == t ** 2 and pm.entry(1, 1) == t ** 3
    assert str(pm.entry(1, 1)) == "q11^3"
    for d in [CartanDatum.preset(name) for name in ALL_PRESETS] + [hyp]:
        pm = ParamMatrix.symbolic(d)
        for s in pm.entries.values():
            for poly in (s.num, s.den):
                assert all(type(e) is int
                           for m in poly.terms for _, e in m), (d, s)


def test_numeric_mode():
    a2 = CartanDatum.preset("A2")
    pm = ParamMatrix.numeric(a2, {(0, 0): 4, (1, 1): 4, (0, 1): Fraction(3, 5)})
    assert pm.entry(1, 0) == Fraction(4) ** -1 / Fraction(3, 5)
    assert pm.entry(0, 1) * pm.entry(1, 0) == Fraction(1, 4)
    with pytest.raises(ValueError):
        ParamMatrix.numeric(a2, {(0, 0): 1, (1, 1): 4})
    # constraint violation is impossible by construction; a doctored entry set
    # must be rejected
    with pytest.raises(ValueError):
        ParamMatrix(a2, "numeric",
                    {(0, 0): Fraction(4), (1, 1): Fraction(4),
                     (0, 1): Fraction(2), (1, 0): Fraction(2)})


@pytest.mark.parametrize("stray", [(1, 0), (2, 2), (0, 2), (-1, 0)])
def test_numeric_refuses_keys_that_name_no_free_entry(stray):
    # was dropped: {(1, 0): 3} gave q_01 = 1 without an error
    a2 = CartanDatum.preset("A2")
    with pytest.raises(ValueError, match="no free entry"):
        ParamMatrix.numeric(a2, {(0, 0): 4, (1, 1): 4, stray: 3})


def test_one_parameter_entries():
    b2 = CartanDatum.preset("B2")
    q = Scalar.variable(("q",))
    pm = ParamMatrix.one_parameter(b2)
    assert pm.entry(0, 0) == q ** 4
    assert pm.entry(1, 1) == q ** 2
    assert pm.entry(0, 1) == q ** -2
    assert pm.entry(1, 0) == q ** -2


def test_q_pairing_biadditive():
    a2 = CartanDatum.preset("A2")
    pm = ParamMatrix.symbolic(a2)
    rng = random.Random(20260819)
    vecs = [LatticeVector((rng.randint(-2, 2), rng.randint(-2, 2)))
            for _ in range(6)]
    for mu in vecs[:3]:
        for nu in vecs[3:]:
            for extra in vecs[:2]:
                lhs = pm.q_pairing(mu + extra, nu)
                rhs = pm.q_pairing(mu, nu) * pm.q_pairing(extra, nu)
                assert lhs == rhs
                lhs = pm.q_pairing(nu, mu + extra)
                rhs = pm.q_pairing(nu, mu) * pm.q_pairing(nu, extra)
                assert lhs == rhs


def test_q_pairing_simple_roots():
    b2 = CartanDatum.preset("B2")
    pm = ParamMatrix.symbolic(b2)
    for i in range(2):
        for j in range(2):
            assert pm.q_pairing(simple_root(b2, i), simple_root(b2, j)) \
                == pm.entry(i, j)


def test_fractional_powers_symbolic():
    a1 = CartanDatum.preset("A1")
    for pm in (ParamMatrix.symbolic(a1),
               ParamMatrix.numeric(a1, {(0, 0): Fraction(4)}),
               ParamMatrix.root_of_unity(a1, 5)):
        assert pm.power(0, 0, Fraction(-2)) == pm.entry(0, 0) ** -2
        # a non-integral exponent is refused in every mode
        with pytest.raises(ValueError, match="non-integral"):
            pm.power(0, 0, Fraction(1, 2))


def test_root_of_unity_mode():
    a1 = CartanDatum.preset("A1")
    pm = ParamMatrix.root_of_unity(a1, 5)
    assert pm.ell == 5
    assert pm.entry(0, 0) == zeta(5, 1)
    assert pm.entry(0, 0).multiplicative_order() == 5
    alpha = simple_root(a1, 0)
    assert pm.q_pairing(3 * alpha, alpha) == zeta(5, 3)

    a2 = CartanDatum.preset("A2")
    pm2 = ParamMatrix.root_of_unity(a2, 5, offdiag={(0, 1): 2})
    assert pm2.entry(0, 1) * pm2.entry(1, 0) == pm2.entry(0, 0) ** -1

    # B2: the long root carries zeta^2, preserving order 5 and the constraint
    b2 = CartanDatum.preset("B2")
    pm3 = ParamMatrix.root_of_unity(b2, 5)
    assert pm3.entry(0, 0) == zeta(5, 2)
    assert pm3.entry(1, 1) == zeta(5, 1)
    assert pm3.entry(0, 0) == pm3.entry(1, 1) ** 2
    assert pm3.orders == (5, 5)


def test_root_of_unity_hypothesis_violations():
    a1 = CartanDatum.preset("A1")
    b2 = CartanDatum.preset("B2")
    g2 = CartanDatum.preset("G2")
    with pytest.raises(ValueError):
        ParamMatrix.root_of_unity(a1, 1)
    with pytest.raises(ValueError):
        ParamMatrix.root_of_unity(a1, 4)  # even order
    with pytest.raises(ValueError):
        ParamMatrix.root_of_unity(g2, 9)  # 3 | order on a triple bond
    assert ParamMatrix.root_of_unity(g2, 5).orders == (5, 5)
    assert ParamMatrix.root_of_unity(b2, 9).orders == (9, 9)
