"""Grading group, characters, bicharacters, and the twist gauge."""

import random
from fractions import Fraction

import pytest

from mpqg.cartan import CartanDatum, ParamMatrix
from mpqg.cyclotomic import zeta
from mpqg.grouplike import (
    Bicharacter,
    Character,
    GradingGroup,
    build_bicharacter,
    standard_group,
)
from mpqg.scalars import Scalar


def test_group_laws_and_moduli():
    g = standard_group(2)
    a = g.element([(("K", 0), 2), (("Kp", 1), -1)])
    b = g.element([(("K", 0), -2), (("Kp", 1), 1)])
    assert g.mul(a, b) == g.identity
    assert g.inv(a) == b
    assert g.mul(a, g.mul(a, a)) == g.element([(("K", 0), 6), (("Kp", 1), -3)])
    assert g.order() is None

    f = standard_group(1, moduli=(5,))
    k = f.basis(("K", 0))
    k2 = f.mul(k, k)
    k4 = f.mul(k2, k2)
    assert f.mul(k4, k) == f.identity
    assert f.element([(("K", 0), 7)]) == k2
    assert f.inv(k) == k4
    assert f.order() == 25


def test_free_group_mul_matches_the_modulus_path():
    rng = random.Random(5)
    free = standard_group(2)
    mixed = GradingGroup(free.gens, (5, 0, 3, 0))
    assert free.free and not mixed.free
    for _ in range(200):
        a = tuple(rng.randint(-9, 9) for _ in free.gens)
        b = tuple(rng.randint(-9, 9) for _ in free.gens)
        s = [x + y for x, y in zip(a, b)]
        for g in (free, mixed):
            want = tuple(e % m if m else e for e, m in zip(s, g.moduli))
            assert g.mul(a, b) == want
            assert g.reduce(s) == want
    finite = standard_group(1, moduli=(5,))
    assert not finite.free
    assert finite.mul((3, 4), (4, 3)) == (2, 2)
    assert finite.basis(("K", 0), 7) == (2, 0)
    assert finite.inv((1, 2)) == (4, 3)


def test_render():
    g = standard_group(2)
    assert g.render(g.identity) == "1"
    e = g.element([(("K", 0), 1), (("Kp", 1), -2)])
    assert g.render(e) == "K0*K'1^-2"


def test_character_values_and_multiplicativity():
    a2 = CartanDatum.preset("A2")
    pm = ParamMatrix.symbolic(a2)
    g = standard_group(2)
    # the character by which the second raising letter transforms:
    # value q_i1 on K_i and q_1i^-1 on K'_i
    vals = [pm.entry(i, 1) for i in range(2)] + \
           [pm.entry(1, i) ** -1 for i in range(2)]
    chi = Character(g, vals)
    assert chi(g.basis(("K", 0))) == pm.entry(0, 1)
    x = g.element([(("K", 0), 2), (("K", 1), 1)])
    assert chi(x) == pm.entry(0, 1) ** 2 * pm.entry(1, 1)
    assert chi(g.identity) == pm.one
    rng = random.Random(11)
    for _ in range(20):
        u = g.reduce(tuple(rng.randint(-2, 2) for _ in g.gens))
        v = g.reduce(tuple(rng.randint(-2, 2) for _ in g.gens))
        assert chi(g.mul(u, v)) == chi(u) * chi(v)


def test_character_finite_order_validation():
    g = standard_group(1, moduli=(5,))
    Character(g, [zeta(5, 1), zeta(5, 3)])  # fine
    with pytest.raises(ValueError):
        Character(g, [zeta(5, 1) * 0 + 2, zeta(5, 3)])


def test_bicharacter_biexponential_and_cocycle():
    g = standard_group(2)
    q = Scalar.variable(("q",))
    sigma = Bicharacter(g, {(("K", 0), ("K", 1)): q,
                            (("Kp", 0), ("K", 1)): q ** -2})
    k0, k1 = g.basis(("K", 0)), g.basis(("K", 1))
    assert sigma(g.mul(k0, k0), k1) == q ** 2
    assert sigma(k0, g.element([(("K", 1), 3)])) == q ** 3
    assert sigma(k1, k0) == q ** 0
    rng = random.Random(23)
    for _ in range(25):
        u, v, w = (g.reduce(tuple(rng.randint(-2, 2) for _ in g.gens))
                   for _ in range(3))
        # bicharacters are group 2-cocycles
        assert sigma(u, v) * sigma(g.mul(u, v), w) \
            == sigma(v, w) * sigma(u, g.mul(v, w))
        assert sigma.inverse()(u, v) * sigma(u, v) == q ** 0


def test_build_bicharacter_gauge_and_constraints():
    for name in ("A2", "B2"):
        datum = CartanDatum.preset(name)
        q = ParamMatrix.mixed_diagonal(datum)
        qhat = ParamMatrix.one_parameter(datum)
        g = standard_group(datum.n)
        sigma = build_bicharacter(g, q, qhat)
        n = datum.n
        K = [g.basis(("K", i)) for i in range(n)]
        Kp = [g.basis(("Kp", i)) for i in range(n)]
        for i in range(n):
            for j in range(n):
                ratio = qhat.entry(i, j) / q.entry(i, j)
                assert sigma(K[i], K[j]) / sigma(K[j], K[i]) == ratio
                assert sigma(Kp[i], Kp[j]) / sigma(Kp[j], Kp[i]) == ratio
                assert sigma(Kp[i], K[j]) / sigma(K[j], Kp[i]) \
                    == qhat.entry(j, i) ** -1 * q.entry(j, i)
            assert sigma(K[i], Kp[i]) == q.one


def test_build_bicharacter_gauge_value():
    a2 = CartanDatum.preset("A2")
    q = ParamMatrix.mixed_diagonal(a2)
    qhat = ParamMatrix.one_parameter(a2)
    g = standard_group(2)
    sigma = build_bicharacter(g, q, qhat)
    qv = Scalar.variable(("q",))
    q01 = Scalar.variable(("q", 0, 1))
    assert sigma(g.basis(("K", 0)), g.basis(("K", 1))) == qv ** -1 * q01 ** -1


def test_build_bicharacter_identity_target():
    a2 = CartanDatum.preset("A2")
    q = ParamMatrix.symbolic(a2)
    g = standard_group(2)
    sigma = build_bicharacter(g, q, q)
    rng = random.Random(5)
    for _ in range(10):
        u = g.reduce(tuple(rng.randint(-2, 2) for _ in g.gens))
        v = g.reduce(tuple(rng.randint(-2, 2) for _ in g.gens))
        assert sigma(u, v) == q.one


def test_build_bicharacter_rejects_incompatible_target():
    a2 = CartanDatum.preset("A2")
    q = ParamMatrix.one_parameter(a2)
    bad = ParamMatrix.symbolic(a2)
    g = standard_group(2)
    with pytest.raises(ValueError) as err:
        build_bicharacter(g, q, bad)
    assert "(0, 0)" in str(err.value)
