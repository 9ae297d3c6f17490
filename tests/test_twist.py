"""Cocycle twisting: actions, products, comparison map, twisted relations."""

import random

import pytest

from mpqg.cartan import CartanDatum, ParamMatrix
from mpqg.cotensor import Word
from mpqg.realization import IdealReducer, Realization, relation_verdict
from mpqg.twist import TwistContext, build_twist


def test_standard_setup_satisfies_constraints():
    for preset in ("A2", "B2"):
        ctx = build_twist(CartanDatum.preset(preset))
        g = ctx.alg.group
        one = ctx.alg.one
        q, qh = ctx.q, ctx.qhat
        n = ctx.datum.n
        for i in range(n):
            assert qh.entry(i, i) == q.entry(i, i)
            assert ctx.sigma(g.basis(("K", i)), g.basis(("Kp", i))) == one
            for j in range(n):
                assert (qh.entry(i, j) * qh.entry(j, i)
                        == q.entry(i, j) * q.entry(j, i))
                # the defining ratio of the cocycle on both torus families
                for fam in ("K", "Kp"):
                    ratio = (ctx.sigma(g.basis((fam, i)), g.basis((fam, j)))
                             / ctx.sigma(g.basis((fam, j)), g.basis((fam, i))))
                    assert ratio == qh.entry(i, j) / q.entry(i, j)


def test_identity_target_means_no_twist():
    ctx = build_twist(CartanDatum.preset("A2"), target="identity")
    alg = ctx.alg
    g = alg.group
    rng = random.Random(20260819)
    letters = [("E", 0), ("E", 1), ("F", 0), ("F", 1), ("X", 0)]
    for _ in range(12):
        lx = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        ly = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        tx = g.element([(t, rng.randint(-1, 1)) for t in g.gens])
        ty = g.element([(t, rng.randint(-1, 1)) for t in g.gens])
        x = alg.element({Word(lx, tx): alg.one})
        y = alg.element({Word(ly, ty): alg.one})
        assert ctx.twisted_product(x, y) == alg.product(x, y)


def test_group_likes_multiply_untwisted():
    ctx = build_twist(CartanDatum.preset("A2"))
    alg = ctx.alg
    g = alg.group
    a = g.element([(("K", 0), 1), (("Kp", 1), -2)])
    b = g.element([(("K", 1), 3), (("Kp", 0), 1)])
    got = ctx.twisted_product(alg.group_like(a), alg.group_like(b))
    assert got == alg.group_like(g.mul(a, b))


def test_torus_conjugation_example():
    # the twisted product moves a torus generator past a raising generator
    # at the cost of the target parameter entry
    ctx = build_twist(CartanDatum.preset("A2"))
    for i in range(2):
        for j in range(2):
            lhs = ctx.twisted_product(ctx.real.k_elt(i), ctx.real.e_elt(j))
            rhs = ctx.twisted_product(ctx.real.e_elt(j), ctx.real.k_elt(i))
            assert lhs == rhs.scale(ctx.qhat.entry(i, j))


def test_twisted_product_associative():
    ctx = build_twist(CartanDatum.preset("A2"))
    alg = ctx.alg
    g = alg.group
    rng = random.Random(4207)
    letters = [("E", 0), ("E", 1), ("F", 0), ("F", 1), ("X", 1)]
    for _ in range(10):
        words = []
        for _k in range(3):
            ls = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            tl = g.element([(t, rng.randint(-1, 1)) for t in g.gens])
            words.append(alg.element({Word(ls, tl): alg.one}))
        x, y, z = words
        left = ctx.twisted_product(ctx.twisted_product(x, y), z)
        right = ctx.twisted_product(x, ctx.twisted_product(y, z))
        assert left == right


def test_phi_hand_values_and_coalgebra():
    ctx = build_twist(CartanDatum.preset("A2"))
    alg = ctx.alg
    g = alg.group
    # identity on group-likes
    k = alg.group_like(g.element([(("K", 0), 2), (("Kp", 1), -1)]))
    assert ctx.phi_map(k) == ctx.hat_alg.element(k.terms)
    # single letter with tail: one cocycle factor
    tail = g.element([(("K", 1), 1), (("Kp", 0), 1)])
    x = alg.element({Word((("E", 0),), tail): alg.one})
    want = ctx.sigma(g.basis(("K", 0)), g.inv(tail))
    got = ctx.phi_map(x)
    assert got.terms == {Word((("E", 0),), tail): want}
    # coalgebra map: cuts commute with the letterwise scaling
    rng = random.Random(99)
    letters = [("E", 0), ("E", 1), ("F", 0), ("F", 1), ("X", 0)]
    for _ in range(10):
        ls = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        tl = g.element([(t, rng.randint(-1, 1)) for t in g.gens])
        x = alg.element({Word(ls, tl): alg.one})
        lhs = {}
        for (a, b), c in ctx.hat_alg.coproduct(ctx.phi_map(x)).items():
            lhs[(a, b)] = c
        rhs = {}
        for (a, b), c in alg.coproduct(x).items():
            ea = alg.element({a: alg.one})
            eb = alg.element({b: alg.one})
            pa = ctx.phi_map(ea)
            pb = ctx.phi_map(eb)
            for wa, ca in pa.terms.items():
                for wb, cb in pb.terms.items():
                    key = (wa, wb)
                    val = rhs.get(key, alg.zero) + c * ca * cb
                    rhs[key] = val
        rhs = {k2: v for k2, v in rhs.items() if v != alg.zero}
        assert lhs == rhs


def test_phi_intertwines_products():
    ctx = build_twist(CartanDatum.preset("A2"))
    alg = ctx.alg
    g = alg.group
    rng = random.Random(31415)
    letters = [("E", 0), ("E", 1), ("F", 0), ("F", 1), ("X", 1)]
    for _ in range(14):
        lx = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        ly = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        tx = g.element([(t, rng.randint(-1, 1)) for t in g.gens])
        ty = g.element([(t, rng.randint(-1, 1)) for t in g.gens])
        x = alg.element({Word(lx, tx): alg.one})
        y = alg.element({Word(ly, ty): alg.one})
        lhs = ctx.phi_map(ctx.twisted_product(x, y))
        rhs = ctx.hat_alg.product(ctx.phi_map(x), ctx.phi_map(y))
        assert lhs == rhs


def test_phi_connects_realizations():
    ctx = build_twist(CartanDatum.preset("B2"))
    for i in range(2):
        assert ctx.phi_map(ctx.real.e_elt(i)) == ctx.hat_real.e_elt(i)
        assert ctx.phi_map(ctx.real.f_elt(i)) == ctx.hat_real.f_elt(i)
        assert ctx.phi_map(ctx.real.k_elt(i)) == ctx.hat_real.k_elt(i)


@pytest.mark.parametrize("preset", ["A2", "B2"])
def test_twisted_relations(preset):
    ctx = build_twist(CartanDatum.preset(preset))
    reducer = IdealReducer(ctx.real)
    for rid in ctx.real.relation_ids():
        status = relation_verdict(reducer, rid, ctx.twisted_residuals(rid), 4)
        tag, i, j = rid
        if tag == "R5" and i == j:
            assert status == ("pass", "zero-mod-J(4)"), (rid, status)
        else:
            assert status == ("pass", "zero"), (rid, status)
    status, detail = ctx.contraction_verdict()
    assert status == "pass", detail


def test_twisted_commutator_residual_matches_untwisted():
    ctx = build_twist(CartanDatum.preset("A2"))
    (twisted,) = ctx.twisted_residuals(("R5", 0, 0))
    (plain,) = ctx.real.relation_residuals(("R5", 0, 0))
    assert twisted == plain
    # the identity target twists by the trivial cocycle: every residual
    # is the plain one
    for preset in ("A1", "A1xA1", "A2", "B2", "G2"):
        ctx = build_twist(CartanDatum.preset(preset), "identity")
        for rid in ctx.real.relation_ids():
            assert ctx.twisted_residuals(rid) \
                == ctx.real.relation_residuals(rid), (preset, rid)


def test_rejects_incompatible_target():
    datum = CartanDatum.preset("A2")
    base = ParamMatrix.mixed_diagonal(datum)
    real = Realization(datum, base)
    bad = ParamMatrix.one_parameter(CartanDatum.preset("B2"))
    with pytest.raises(Exception):
        TwistContext(real, bad)
