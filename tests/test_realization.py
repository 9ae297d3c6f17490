"""Generator images, defining relations, adjoint closed forms, and ideal
reduction."""

import random
from fractions import Fraction

import pytest

from mpqg.cartan import CartanDatum, LatticeVector, ParamMatrix, rho
from mpqg.cotensor import Word
from mpqg.realization import (FreeExpr, IdealReducer, NormalFormTable,
                              Realization, e, f, relation_verdict, w, wp)


def r_elt(alg, i):
    """The ideal generator r_i = xi_i - K_i K'_i^{-1} + 1."""
    g = alg.group
    kkp = g.element([(("K", i), 1), (("Kp", i), -1)])
    return alg.element({alg.word([("X", i)]): alg.one,
                        Word((), kkp): -alg.one,
                        Word((), g.identity): alg.one})


def make_real(preset, mode="symbolic", **kw):
    datum = CartanDatum.preset(preset)
    if mode == "symbolic":
        pm = ParamMatrix.symbolic(datum)
    elif mode == "numeric":
        pm = ParamMatrix.numeric(datum, kw["entries"])
    elif mode == "root_of_unity":
        pm = ParamMatrix.root_of_unity(datum, kw["ell"])
    else:
        raise ValueError(mode)
    return Realization(datum, pm)


def test_psi_generator_images():
    real = make_real("A2")
    alg = real.alg
    g = alg.group
    assert real.psi(e(0)) == alg.element({alg.word([("E", 0)]): alg.one})
    fw = Word((("F", 1),), g.basis(("Kp", 1)))
    assert real.psi(f(1)) == alg.element({fw: alg.one})
    assert real.psi(w(0) * w(0, -1)) == alg.unit()
    assert real.psi(wp(1)) == alg.group_like(g.basis(("Kp", 1)))
    # algebra map on a sample product
    lhs = real.psi(e(0) * f(0))
    rhs = alg.product(real.psi(e(0)), real.psi(f(0)))
    assert lhs == rhs


def test_psi_image_coproduct_is_skew_primitive():
    real = make_real("A2")
    alg = real.alg
    g = alg.group
    ff = real.psi(f(0))
    cop = alg.coproduct(ff)
    fw = Word((("F", 0),), g.basis(("Kp", 0)))
    empty1 = Word((), g.identity)
    kp = Word((), g.basis(("Kp", 0)))
    assert cop == {(empty1, fw): alg.one, (fw, kp): alg.one}
    ee = real.psi(e(0))
    cop = alg.coproduct(ee)
    k = Word((), g.basis(("K", 0)))
    ew = Word((("E", 0),), g.identity)
    assert cop == {(k, ew): alg.one, (ew, empty1): alg.one}
    assert alg.counit(ff) == alg.zero
    assert alg.counit(real.psi(w(0))) == alg.one


EXPECT_MOD_J = ("pass", "zero-mod-J(4)")


def run_all_relations(real):
    reducer = IdealReducer(real)
    seen = {}
    for rid in real.relation_ids():
        parts = real.relation_residuals(rid)
        status = relation_verdict(reducer, rid, parts, 4)
        tag, i, j = rid
        want = EXPECT_MOD_J if (tag == "R5" and i == j) else ("pass", "zero")
        seen[rid] = (status, want)
    return seen


@pytest.mark.parametrize("preset", ["A1", "A1xA1", "A2", "B2", "G2"])
def test_relations_symbolic(preset):
    seen = run_all_relations(make_real(preset))
    for rid, (status, want) in seen.items():
        assert status == want, f"{rid}: {status} != {want}"


def test_relations_numeric_a2():
    entries = {(0, 0): Fraction(4), (1, 1): Fraction(4), (0, 1): Fraction(2)}
    seen = run_all_relations(make_real("A2", "numeric", entries=entries))
    for rid, (status, want) in seen.items():
        assert status == want, f"{rid}: {status} != {want}"


def test_relations_root_of_unity_a2():
    seen = run_all_relations(make_real("A2", "root_of_unity", ell=5))
    for rid, (status, want) in seen.items():
        assert status == want, f"{rid}: {status} != {want}"


def test_commutator_residual_diagonal_form():
    real = make_real("A2")
    alg = real.alg
    g = alg.group
    pm = real.params
    (res,) = real.relation_residuals(("R5", 0, 0))
    c = pm.entry(0, 0) / (pm.entry(0, 0) - alg.one)
    kp0 = g.basis(("Kp", 0))
    expected = alg.element({
        Word((("X", 0),), kp0): c,
        Word((), g.basis(("K", 0))): -c,
        Word((), kp0): c,
    })
    assert res == expected
    reducer = IdealReducer(real)
    assert reducer.xi_rewrite(res).is_zero
    status, _ = reducer.reduce(res)
    assert status == "zero"


def test_commutator_off_diagonal_literally_zero():
    real = make_real("B2")
    for i, j in [(0, 1), (1, 0)]:
        (res,) = real.relation_residuals(("R5", i, j))
        assert res.is_zero


@pytest.mark.parametrize("preset,i,j", [("A2", 0, 1), ("B2", 1, 0)])
def test_adjoint_powers_match_closed_form(preset, i, j):
    real = make_real(preset)
    a = real.datum.a[i][j]
    top = 1 - a
    for side in ("left", "right"):
        for s in range(1, top + 1):
            got = real.ad_power(side, i, j, s)
            want = real.ad_power_closed(side, i, j, s)
            assert got == want, f"{side} s={s}"
            if s < top:
                assert not got.is_zero
        # the Serre threshold: the adjoint string dies exactly at 1 - a_ij
        assert real.ad_power(side, i, j, top).is_zero
        assert real.ad_power_closed(side, i, j, top).is_zero


def test_power_closed_forms():
    real = make_real("A2")
    alg = real.alg
    for r in (2, 3):
        assert alg.power(real.e_elt(0), r) == real.power_closed_e(0, r)
        assert alg.power(real.f_elt(0), r) == real.power_closed_f(0, r)


def test_reduce_three_valued():
    real = make_real("A2")
    alg = real.alg
    g = alg.group
    reducer = IdealReducer(real)
    # pure group-algebra differences are certified nonzero
    x = alg.group_like(g.basis(("K", 0))) - alg.group_like(g.basis(("Kp", 0)))
    status, _ = reducer.reduce(x, bound=4)
    assert status == "nonzero"
    # the ideal generators themselves reduce to zero (fast path)
    status, _ = reducer.reduce(r_elt(alg, 0))
    assert status == "zero"
    # a sandwiched generator needs the general membership search
    mid = alg.product(real.e_elt(1), r_elt(alg, 0))
    mid = alg.product(mid, alg.group_like(g.basis(("K", 1))))
    assert not mid.is_zero
    status, _ = reducer.reduce(mid)
    assert status == "zero"
    # an honest unknown: a two-letter raising word is neither certified
    # member nor certified non-member at a small bound
    y = alg.element({Word((("E", 0), ("E", 1)), g.identity): alg.one})
    status, _ = reducer.reduce(y, bound=3)
    assert status == "undecided(3)"


def test_reduce_filtration_one_witnesses():
    real = make_real("A2")
    alg = real.alg
    reducer = IdealReducer(real)
    two = alg.one + alg.one
    x = real.e_elt(0) + real.f_elt(1).scale(two) - real.k_elt(0)
    status, _ = reducer.reduce(x)
    assert status == "nonzero"


def test_normal_form():
    real = make_real("A2")
    alg = real.alg
    g = alg.group
    reducer = IdealReducer(real)
    # a lone contraction word rewrites into the group algebra
    x = alg.element({Word((("X", 0),), g.basis(("Kp", 0))): alg.one})
    nf, ok = NormalFormTable(reducer).normal_form(x)
    assert ok
    want = alg.group_like(g.basis(("K", 0))) - alg.group_like(g.basis(("Kp", 0)))
    assert nf == want
    # an interior contraction needs the table's elimination
    y = alg.element({Word((("E", 1), ("X", 0)), g.identity): alg.one})
    nf, ok = NormalFormTable(reducer, bound=4).normal_form(y)
    assert ok
    assert all(t[0] != "X" for wd in nf.terms for t in wd.letters)
    status, _ = reducer.reduce(y - nf, bound=4)
    assert status == "zero"


A2_NUMERIC = {(0, 0): 5, (1, 1): 5, (0, 1): 3}


def test_reduction_cost_is_bounded():
    real = make_real("A2")
    alg = real.alg
    reducer = IdealReducer(real)
    y = alg.element({Word((("E", 1), ("X", 0)), alg.group.identity): alg.one})
    # the row cap stops the closure and marks the table saturated
    capped = NormalFormTable(reducer, bound=4, max_rows=1)
    _, ok = capped.normal_form(y)
    assert not ok and capped.saturated
    # a word longer than the bound is left alone: no rows, no saturation
    short = NormalFormTable(reducer, bound=1)
    _, ok = short.normal_form(y)
    assert not ok and not short.saturated and len(short.rows) == 0
    assert reducer.reduce(y, bound=1) == ("undecided(1)", None)
    # a cap inside a closure: the generators collected count against it,
    # in discovery order (symbolic) and in sorted order (numeric)
    for mode, kw in (("symbolic", {}), ("numeric", {"entries": A2_NUMERIC})):
        real = make_real("A2", mode, **kw)
        alg = real.alg
        reducer = IdealReducer(real)
        y = alg.element({Word((("E", 1), ("X", 0), ("F", 0)),
                              alg.group.identity): alg.one})
        full = NormalFormTable(reducer, bound=4)
        assert full.normal_form(y)[1] and len(full.rows) == 6
        capped = NormalFormTable(reducer, bound=4, max_rows=3)
        _, ok = capped.normal_form(y)
        assert not ok and capped.saturated and len(capped.rows) <= 3


SOUNDNESS_CASES = [
    ("A1", "symbolic", {}),
    ("A2", "symbolic", {}),
    ("A2", "numeric", {"entries": A2_NUMERIC}),
    ("A2", "root_of_unity", {"ell": 5}),
    ("B2", "symbolic", {}),
]


@pytest.mark.parametrize("preset,mode,kw", SOUNDNESS_CASES)
def test_reduce_is_sound_on_random_ideal_elements(preset, mode, kw):
    real = make_real(preset, mode, **kw)
    alg = real.alg
    g = alg.group
    n = real.datum.n
    reducer = IdealReducer(real)
    rng = random.Random(f"{preset}-{mode}")
    letters = [()] + [((k, i),) for k in ("E", "F") for i in range(n)]

    def sandwich():
        u = Word(rng.choice(letters), g.identity)
        v = Word(rng.choice(letters),
                 g.basis(("K", rng.randrange(n)), rng.choice((-1, 1))))
        mid = alg.product(alg.element({u: alg.one}),
                          r_elt(alg, rng.randrange(n)))
        return alg.product(mid, alg.element({v: alg.one}))

    for _ in range(6):
        member = alg.zero_element()
        for _ in range(2):
            member = member + sandwich().scale(
                rng.choice((-3, -2, -1, 1, 2, 3)))
        assert reducer.reduce(member)[0] == "zero"
        assert reducer.reduce(member + real.e_elt(0))[0] != "zero"


def test_serre_sum_shape_differs_between_sides():
    # raising side puts the growing power on the left, lowering side on the
    # right; on a preset with a_ij = -1 the two residuals live on different
    # word shapes, so both vanishing is a genuine double check
    real = make_real("A2")
    (res6,) = real.relation_residuals(("R6", 0, 1))
    (res7,) = real.relation_residuals(("R7", 0, 1))
    assert res6.is_zero and res7.is_zero


def test_free_expr_arithmetic():
    x = (e(0) + f(1)) * w(0)
    assert x.terms == {
        (("e", 0), ("w", 0, 1)): Fraction(1),
        (("f", 1), ("w", 0, 1)): Fraction(1),
    }
    y = e(0) * e(0) - (e(0) ** 2)
    assert y.terms == {}
    z = FreeExpr.one().scale(Fraction(3, 2))
    assert z.terms == {(): Fraction(3, 2)}


def _product_formula(reducer, wrd, p):
    """u * r_i * v as two `Element` products, (u * r_i) * v: the reference
    for `IdealReducer.targeted_generator`."""
    alg = reducer.alg
    prefix = alg.element({Word(wrd.letters[:p], alg.group.identity): alg.one})
    suffix = alg.element({Word(wrd.letters[p + 1:], wrd.tail): alg.one})
    return alg.product(alg.product(prefix, r_elt(alg, wrd.letters[p][1])),
                       suffix)


def _random_contraction_words(alg, rng, tags, count, max_len, extra=()):
    """Seeded words over tags, each with an X letter and the extra letters
    inserted at random places, and with a random tail."""
    xs = [t for t in tags if t[0] == "X"]
    out = []
    for _ in range(count):
        letters = [rng.choice(tags) for _ in range(rng.randint(0, max_len))]
        for t in (rng.choice(xs),) + tuple(extra):
            letters.insert(rng.randint(0, len(letters)), t)
        tail = alg.group.reduce(tuple(rng.randint(-1, 1)
                                      for _ in alg.group.gens))
        out.append(Word(tuple(letters), tail))
    return out


def test_targeted_generator_matches_product_formula(preset_params):
    # every X position of words with E letters, as the membership check
    # reaches them, and of module-shaped words carrying the weight letter
    datum, params = preset_params
    rng = random.Random(20261019)
    lam = rho(datum)  # the weight letter needs a dominant integral weight
    cases = []
    for real, extra in ((Realization(datum, params), ()),
                        (Realization(datum, params, lam), (("V",),))):
        alg = real.alg
        tags = [t for t in alg.letters if t[0] != "V"]
        if extra:
            tags = [t for t in tags if t[0] != "E"]
        cases.append((IdealReducer(real), _random_contraction_words(
            alg, rng, tags, 12, 4, extra)))
    checked = 0
    for reducer, words in cases:
        for wrd in words:
            for p, letter in enumerate(wrd.letters):
                if letter[0] != "X":
                    continue
                got = reducer.targeted_generator(wrd, p).terms
                want = _product_formula(reducer, wrd, p).terms
                assert list(got) == list(want), (wrd, p)
                assert all(got[w] == want[w] for w in want), (wrd, p)
                checked += 1
    assert checked >= 24


def test_targeted_generator_leaves_product_cache_alone():
    # generators are single-use: building them must not grow the algebra's
    # word-product cache, which module actions keep for their own products
    datum = CartanDatum.preset("A2")
    params = ParamMatrix.numeric(datum, {(0, 0): 5, (1, 1): 5, (0, 1): 3})
    real = Realization(datum, params, LatticeVector((Fraction(2),
                                                     Fraction(1))))
    alg = real.alg
    reducer = IdealReducer(real)
    tags = [t for t in alg.letters if t[0] not in ("E", "V")]
    words = _random_contraction_words(alg, random.Random(20261020), tags,
                                      12, 5, (("V",),))
    checked = 0
    for wrd in words:
        for p, letter in enumerate(wrd.letters):
            if letter[0] != "X":
                continue
            cached = len(alg._prod_cache)
            got = reducer.targeted_generator(wrd, p).terms
            assert len(alg._prod_cache) == cached, (wrd, p)
            want = _product_formula(reducer, wrd, p).terms
            assert list(got) == list(want), (wrd, p)
            assert all(got[w] == want[w] for w in want), (wrd, p)
            checked += 1
    assert checked >= 12
