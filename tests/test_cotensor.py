"""Cotensor machinery: coproduct, product, counit, antipode, actions."""

import random
from fractions import Fraction

import pytest

from mpqg.cartan import CartanDatum, ParamMatrix, fundamental_weight, rho
from mpqg.cotensor import CotensorAlgebra, Word, word_key
from mpqg.linalg import Echelon, add_into
from mpqg.scalars import q_factorial, q_int


def _a2():
    datum = CartanDatum.preset("A2")
    return CotensorAlgebra(datum, ParamMatrix.symbolic(datum))


def q(alg, i, j):
    return alg.params.entry(i, j)


def _letter(alg, tag, i):
    return alg.letter_element((tag, i))


def test_coproduct_group_like():
    alg = _a2()
    k = alg.group.element([(("K", 0), 2), (("Kp", 1), -1)])
    x = alg.group_like(k)
    cp = alg.coproduct(x)
    kw = Word((), k)
    assert cp == {(kw, kw): alg.one}
    assert alg.counit(x) == alg.one


def test_coproduct_single_letter():
    alg = _a2()
    e0 = _letter(alg, "E", 0)
    cp = alg.coproduct(e0)
    kw = Word((), alg.group.basis(("K", 0)))
    ew = alg.word([("E", 0)])
    unit_w = Word((), alg.group.identity)
    assert cp == {(kw, ew): alg.one, (ew, unit_w): alg.one}


def test_coproduct_two_letter_hand_case():
    # cuts of a two-letter chain: group-like | first letter | whole word
    alg = _a2()
    w = alg.word([("E", 0), ("E", 1)])
    x = alg.element({w: alg.one})
    g = alg.group
    k0k1 = g.element([(("K", 0), 1), (("K", 1), 1)])
    cp = alg.coproduct(x)
    assert cp == {
        (Word((), k0k1), w): alg.one,
        (Word((("E", 0),), g.basis(("K", 1))), alg.word([("E", 1)])): alg.one,
        (w, Word((), g.identity)): alg.one,
    }


def test_counit_laws():
    alg = _a2()
    rng = random.Random(3)
    words = _random_words(alg, rng, 12, max_len=3)
    for w in words:
        x = alg.element({w: alg.one})
        # (counit (x) id) and (id (x) counit) both recover x
        left = {}
        right = {}
        for (a, b), c in alg.coproduct(x).items():
            if not a.letters:
                left[b] = left.get(b, alg.zero) + c
            if not b.letters:
                right[Word(a.letters, a.tail)] = c
        assert alg.element(left) == x
        # the right-hand components keep the same letters but carry the cut
        # group; only the full-word cut contributes a counit-1 factor
        assert alg.element(right) == x


def test_product_group_times_letter():
    alg = _a2()
    ki = alg.group.basis(("K", 0))
    out = alg.product(alg.group_like(ki), _letter(alg, "E", 1))
    expect = alg.element({alg.word([("E", 1)], ki): q(alg, 0, 1)})
    assert out == expect
    # right action just extends the tail
    out = alg.product(_letter(alg, "E", 1), alg.group_like(ki))
    assert out == alg.element({alg.word([("E", 1)], ki): alg.one})


def test_product_e_times_f_same_index():
    alg = _a2()
    g = alg.group
    out = alg.product(_letter(alg, "E", 0), _letter(alg, "F", 0))
    coeff = q(alg, 0, 0) / (q(alg, 0, 0) - alg.one)
    expect = alg.element({
        alg.word([("E", 0), ("F", 0)]): alg.one,
        alg.word([("F", 0), ("E", 0)]): q(alg, 0, 0) ** -1,
        alg.word([("X", 0)]): coeff,
    })
    assert out == expect
    # slot groups carried by the first term: E0 against K'0^-1
    w = alg.word([("E", 0), ("F", 0)])
    assert alg.slot_tails(w)[0] == g.basis(("Kp", 0), -1)


def test_product_e_times_f_different_index():
    alg = _a2()
    out = alg.product(_letter(alg, "E", 0), _letter(alg, "F", 1))
    expect = alg.element({
        alg.word([("E", 0), ("F", 1)]): alg.one,
        alg.word([("F", 1), ("E", 0)]): q(alg, 0, 1) ** -1,
    })
    assert out == expect


def test_product_e_times_e():
    alg = _a2()
    out = alg.product(_letter(alg, "E", 0), _letter(alg, "E", 1))
    expect = alg.element({
        alg.word([("E", 0), ("E", 1)]): alg.one,
        alg.word([("E", 1), ("E", 0)]): q(alg, 0, 1),
    })
    assert out == expect


def test_contraction_transfer_coefficient():
    # contracting against a letter whose slot carries a group element picks
    # up the character of that group element
    alg = _a2()
    k = alg.group.basis(("K", 0))
    x = alg.element({alg.word([("E", 0)], k): alg.one})
    y = _letter(alg, "F", 0)
    out = alg.product(x, y)
    c = (q(alg, 0, 0) / (q(alg, 0, 0) - alg.one)) * q(alg, 0, 0) ** -1
    assert out.terms[alg.word([("X", 0)], k)] == c


def test_product_tail_and_grading_multiplicative():
    alg = _a2()
    rng = random.Random(17)
    g = alg.group
    for _ in range(12):
        wx = _random_word(alg, rng, max_len=2)
        wy = _random_word(alg, rng, max_len=2)
        gx, gy = alg.total_grading(wx), alg.total_grading(wy)
        for w in alg.word_product(wx, wy):
            assert w.tail == g.mul(wx.tail, wy.tail)
            assert alg.total_grading(w) == g.mul(gx, gy)


def test_slot_chain_violation_raises(monkeypatch):
    # a contraction letter must be graded by the product of the two letters
    # it replaces; X1 is not graded like E0 (x) F0.  In the first two
    # products a letter comes before the contraction; in the last the
    # contraction fills the first slot (the grid edge out of (0, 0))
    for wx, wy in (([("E", 1), ("E", 0)], [("F", 0)]),
                   ([("E", 0)], [("F", 1), ("F", 0)]),
                   ([("E", 0)], [("F", 0)])):
        alg = _a2()
        rule = alg.alpha[(("E", 0), ("F", 0))]
        monkeypatch.setitem(alg.alpha, (("E", 0), ("F", 0)),
                            (("X", 1), rule[1]))
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="slot chain violated"):
                alg.word_product(alg.word(wx), alg.word(wy))


def test_walk_matches_recursive_oracle(preset_params):
    alg = CotensorAlgebra(*preset_params)
    rng = random.Random(20260819)
    for _ in range(30):
        wx = _random_word(alg, rng, max_len=3)
        wy = _random_word(alg, rng, max_len=3)
        got = alg.word_product(wx, wy)
        oracle = alg.product_recursive(wx, wy)
        assert set(got) == set(oracle)
        for w in got:
            assert got[w] == oracle[w], (wx, wy, w)


def test_left_tail_factors_out_of_products(preset_params):
    # (u.s) * (v.t) = chi_v(s) shift_st(u * v): word_product walks only
    # identity tails and derives every tailed product from that walk, so
    # each tail variant is checked against the recursive oracle, which
    # carries the tails through every step.  Tails have negative exponents
    # (reduced modulo the finite grading group at a root of unity), and the
    # second variant of a letter pair is derived from the cached walk
    datum, params = preset_params
    rng = random.Random(20261019)
    lam = rho(datum)  # the weight letter needs a dominant integral weight
    for alg in (CotensorAlgebra(datum, params),
                CotensorAlgebra(datum, params, lam)):
        g = alg.group

        def tail():
            exps = [rng.randint(-2, 1) for _ in g.gens]
            exps[rng.randrange(len(exps))] = -1
            return g.reduce(exps)

        for _ in range(8):
            u = _random_word(alg, rng, max_len=3)
            v = _random_word(alg, rng, max_len=3)
            if ("V",) in alg.letters:
                t = rng.randint(0, len(v.letters))
                v = Word(v.letters[:t] + (("V",),) + v.letters[t:], v.tail)
            for s, t in ((tail(), tail()), (tail(), g.identity),
                         (g.identity, tail()), (g.identity, g.identity)):
                wx, wy = Word(u.letters, s), Word(v.letters, t)
                assert alg.word_product(wx, wy) \
                    == alg.product_recursive(wx, wy), (wx, wy)


def test_associativity_on_letter_triples():
    alg = _a2()
    singles = [_letter(alg, tag, i) for tag in "EF" for i in (0, 1)]
    singles += [_letter(alg, "X", 0),
                alg.group_like(alg.group.basis(("K", 1))),
                alg.group_like(alg.group.basis(("Kp", 0), -1))]
    for x in singles:
        for y in singles:
            for z in singles:
                assert alg.product(alg.product(x, y), z) \
                    == alg.product(x, alg.product(y, z))


def test_bialgebra_law_on_pairs():
    alg = _a2()
    rng = random.Random(7)
    for _ in range(8):
        wx = _random_word(alg, rng, max_len=2)
        wy = _random_word(alg, rng, max_len=2)
        x = alg.element({wx: alg.one})
        y = alg.element({wy: alg.one})
        lhs = alg.coproduct(alg.product(x, y))
        rhs = {}
        for (a1, a2), c1 in alg.coproduct(x).items():
            for (b1, b2), c2 in alg.coproduct(y).items():
                left = alg.word_product(a1, b1)
                right = alg.word_product(a2, b2)
                for wl, cl in left.items():
                    for wr, cr in right.items():
                        key = (wl, wr)
                        add = c1 * c2 * cl * cr
                        rhs[key] = rhs.get(key, alg.zero) + add
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs


def test_coassociativity_exhaustive_short():
    alg = _a2()
    tags = [("E", 0), ("E", 1), ("F", 0), ("F", 1), ("X", 0), ("X", 1)]
    tails = [alg.group.identity, alg.group.element([(("K", 0), 1),
                                                    (("Kp", 1), -1)])]
    words = [Word((), t) for t in tails]
    words += [Word((a,), t) for a in tags for t in tails]
    words += [Word((a, b), tails[1]) for a in tags for b in tags]
    for w in words:
        x = alg.element({w: alg.one})
        via_left = {}
        for (a, b), c in alg.coproduct(x).items():
            for (a1, a2) in alg.coproduct_word(a):
                key = (a1, a2, b)
                via_left[key] = via_left.get(key, alg.zero) + c
        via_right = {}
        for (a, b), c in alg.coproduct(x).items():
            for (b1, b2) in alg.coproduct_word(b):
                key = (a, b1, b2)
                via_right[key] = via_right.get(key, alg.zero) + c
        assert {k: v for k, v in via_left.items() if v} \
            == {k: v for k, v in via_right.items() if v}
        assert via_left == alg.coproduct_iter(x, 3)


def test_antipode_group_like_and_letters():
    alg = _a2()
    g = alg.group
    k = g.element([(("K", 0), 2), (("Kp", 1), -1)])
    assert alg.antipode_word(Word((), k)) == alg.group_like(g.inv(k))
    s = alg.antipode_word(alg.word([("E", 0)]))
    expect = alg.element({alg.word([("E", 0)], g.basis(("K", 0), -1)):
                          -(q(alg, 0, 0) ** -1)})
    assert s == expect
    # lowering letter with its torus tail: the presented-side generator
    sf = alg.antipode_word(alg.word([("F", 0)], g.basis(("Kp", 0))))
    assert sf == alg.element({alg.word([("F", 0)]): -alg.one})


def test_antipode_law_short_words():
    alg = _a2()
    rng = random.Random(31)
    words = _random_words(alg, rng, 10, max_len=3)
    for w in words:
        x = alg.element({w: alg.one})
        left = alg.zero_element()
        right = alg.zero_element()
        for (a, b), c in alg.coproduct(x).items():
            left = left + alg.product(alg.antipode_word(a),
                                      alg.element({b: alg.one})).scale(c)
            right = right + alg.product(alg.element({a: alg.one}),
                                        alg.antipode_word(b)).scale(c)
        target = alg.unit().scale(alg.counit(x))
        assert left == target
        assert right == target


def test_counit_multiplicative():
    alg = _a2()
    rng = random.Random(41)
    for _ in range(10):
        x = alg.element({_random_word(alg, rng, max_len=2): alg.one})
        y = alg.element({_random_word(alg, rng, max_len=2): alg.one})
        assert alg.counit(alg.product(x, y)) == alg.counit(x) * alg.counit(y)


def test_power_closed_forms():
    alg = _a2()
    qv = q(alg, 0, 0)
    for r in range(5):
        ew = alg.power(_letter(alg, "E", 0), r)
        expect = alg.element({
            alg.word([("E", 0)] * r): q_factorial(r, qv)
        })
        assert ew == expect
        fk = alg.element({alg.word([("F", 0)],
                                   alg.group.basis(("Kp", 0))): alg.one})
        fw = alg.power(fk, r)
        expect = alg.element({
            alg.word([("F", 0)] * r, alg.group.basis(("Kp", 0), r)):
            q_factorial(r, qv)
        })
        assert fw == expect
    # sanity on the q-integer coefficient at r=2
    two = alg.power(_letter(alg, "E", 0), 2)
    coeff, = two.terms.values()
    assert coeff == q_int(2, qv)


def test_weight_grading_additive_under_product():
    alg = _a2()
    rng = random.Random(53)
    for _ in range(10):
        wx = _random_word(alg, rng, max_len=2)
        wy = _random_word(alg, rng, max_len=2)
        target = tuple(a + b for a, b in zip(alg.weight_of_word(wx),
                                             alg.weight_of_word(wy)))
        for w in alg.word_product(wx, wy):
            assert alg.weight_of_word(w) == target


def test_highest_weight_letter_machinery():
    datum = CartanDatum.preset("A2")
    lam = fundamental_weight(datum, 0)
    alg = CotensorAlgebra(datum, ParamMatrix.symbolic(datum), lam)
    v = alg.letter_element(("V",))
    g = alg.group
    # graded by the identity: v is primitive
    cp = alg.coproduct(v)
    unit = Word((), g.identity)
    assert cp == {(unit, alg.word([("V",)])): alg.one,
                  (alg.word([("V",)]), unit): alg.one}
    # the torus eigenvalues: K_i -> 1, K'_i -> q_ii^-m_i with marks (1, 0)
    for tag, ev in ((("K", 0), alg.one), (("K", 1), alg.one),
                    (("Kp", 0), alg.params.entry(0, 0) ** -1),
                    (("Kp", 1), alg.one)):
        out = alg.product(alg.group_like(g.basis(tag)), v)
        assert out == alg.element({alg.word([("V",)], g.basis(tag)): ev})
    assert alg.weight_of_word(alg.word([("V",)])) == lam.coords


def test_render_is_deterministic():
    alg = _a2()
    x = alg.product(_letter(alg, "E", 0), _letter(alg, "F", 0))
    r1 = alg.render(x)
    r2 = alg.render(alg.product(_letter(alg, "E", 0), _letter(alg, "F", 0)))
    assert r1 == r2
    assert "tail=" in r1


# -- the elimination kernel ----------------------------------------------------


def test_add_into_scales_cancels_and_keeps_order():
    d = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(3)}
    add_into(d, {"b": Fraction(1), "d": Fraction(5), "a": Fraction(-1, 2)},
             Fraction(-2))
    # b cancels and is dropped; survivors keep their place, d is appended
    assert list(d.items()) == [("a", 2), ("c", 3), ("d", -10)]
    add_into(d, {"c": Fraction(-3), "e": Fraction(1)})
    assert list(d.items()) == [("a", 2), ("d", -10), ("e", 1)]
    add_into(d, {"a": Fraction(7)}, Fraction(0))
    assert list(d.items()) == [("a", 2), ("d", -10), ("e", 1)]


def _coefficient_algebras():
    """One rank-one algebra per coefficient field: Fraction, symbolic
    Scalar and cyclotomic (the last over a finite grading group)."""
    a1 = CartanDatum.preset("A1")
    return [
        CotensorAlgebra(a1, ParamMatrix.numeric(a1, {(0, 0): Fraction(5)})),
        CotensorAlgebra(a1, ParamMatrix.symbolic(a1)),
        CotensorAlgebra(a1, ParamMatrix.root_of_unity(a1, 5)),
    ]


def _random_coefficient(alg, rng):
    q = alg.params.entry(0, 0)
    return (alg.coerce(rng.randint(-3, 3))
            + alg.coerce(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
            * q ** rng.randint(-1, 2))


def _combination(alg, rng, vecs):
    x = alg.zero_element()
    for v in rng.sample(vecs, min(3, len(vecs))):
        x = x + v.scale(_random_coefficient(alg, rng))
    return x


def _random_vectors(alg, rng, words, count):
    vecs = []
    for _ in range(count):
        if vecs and rng.random() < 0.3:
            vecs.append(_combination(alg, rng, vecs))
        else:
            vecs.append(alg.element({w: _random_coefficient(alg, rng)
                                     for w in rng.sample(words, 3)}))
    return vecs


def _rank(alg, vecs):
    """Rank of the vectors by plain forward elimination on dense rows over
    their joint support, an oracle independent of `Echelon`."""
    support = sorted({w for v in vecs for w in v.terms}, key=word_key)
    rows = [[v.terms.get(w, alg.zero) for w in support] for v in vecs]
    rank = 0
    for col in range(len(support)):
        k = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if k is None:
            continue
        rows[rank], rows[k] = rows[k], rows[rank]
        piv = rows[rank]
        for r in rows[rank + 1:]:
            if r[col]:
                f = r[col] / piv[col]
                r[:] = [a - f * b for a, b in zip(r, piv)]
        rank += 1
    return rank


def test_echelon_matches_dense_elimination():
    rng = random.Random(20261018)
    for alg in _coefficient_algebras():
        words = sorted(set(_random_words(alg, rng, 12, max_len=2)),
                       key=word_key)
        vecs = _random_vectors(alg, rng, words, 9)
        ech = Echelon(alg.one, word_key)
        independent = 0
        for k, x in enumerate(vecs):
            handed_out = list(ech.rows.values())
            before = {qw: dict(r) for qw, r in ech.rows.items()}
            got = ech.add(x.terms)
            # rows handed out earlier are replaced, never mutated
            assert handed_out == list(before.values())
            if got is not None:
                # the pivot is the least word of the remainder, which is x
                # minus x's coefficient at each old pivot times its row;
                # its value is reported before normalisation
                pw, piv = got
                assert pw == min(ech.rows[pw], key=word_key)
                assert piv == x.terms.get(pw, alg.zero) - sum(
                    (x.terms.get(qw, alg.zero) * row.get(pw, alg.zero)
                     for qw, row in before.items()), alg.zero)
                independent += 1
            assert independent == _rank(alg, vecs[:k + 1])
            for pw, row in ech.rows.items():
                assert row[pw] == alg.one
                assert all(row.values())
                assert not any(qw in row for qw in ech.rows if qw != pw)
        probes = (vecs + _random_vectors(alg, rng, words, 6)
                  + [_combination(alg, rng, vecs) for _ in range(4)])
        seen = set()
        rank = _rank(alg, vecs)
        for y in probes:
            rem = ech.reduce(y.terms)
            assert all(rem.values())
            assert not set(rem) & set(ech.rows)
            assert (not rem) == (_rank(alg, vecs + [y]) == rank)
            seen.add(not rem)
            if not rem:
                # mutually reduced monic rows: each coordinate is the
                # coefficient at its pivot word
                rebuilt = alg.zero_element()
                for pw, row in ech.rows.items():
                    rebuilt = rebuilt + alg.element(row).scale(
                        y.terms.get(pw, alg.zero))
                assert rebuilt == y
        assert seen == {True, False}


# -- helpers -------------------------------------------------------------------


def _random_word(alg, rng, max_len=3):
    tags = [t for t in alg.letters if t[0] != "V"]
    n = rng.randint(0, max_len)
    letters = tuple(rng.choice(tags) for _ in range(n))
    tail = alg.group.reduce(tuple(rng.randint(-1, 1)
                                  for _ in alg.group.gens))
    return Word(letters, tail)


def _random_words(alg, rng, count, max_len=3):
    return [_random_word(alg, rng, max_len) for _ in range(count)]
