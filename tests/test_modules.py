"""Integrable highest-weight modules: closure, dimensions, nilpotency
thresholds, relation matrix identities, coinvariants, and the root-of-unity
alcove variant."""

import random
from fractions import Fraction

import pytest

from mpqg.cartan import CartanDatum, LatticeVector, ParamMatrix, simple_root, weyl_dim
from mpqg.cotensor import Word, word_key
from mpqg.linalg import Echelon, add_into
from mpqg.modules import (ClosureError, alcove_check, build_module,
                          root_of_unity_module)
from mpqg.realization import (IdealReducer, NormalFormTable, e, f,
                              has_contraction)
from mpqg.scalars import q_factorial


A1 = CartanDatum.preset("A1")
A2 = CartanDatum.preset("A2")
B2 = CartanDatum.preset("B2")
G2 = CartanDatum.preset("G2")


def a1_module(m, mode="symbolic"):
    lam = LatticeVector((Fraction(m, 2),))
    if mode == "symbolic":
        pm = ParamMatrix.symbolic(A1)
    else:
        pm = ParamMatrix.numeric(A1, {(0, 0): Fraction(2)})
    return build_module(A1, pm, lam)


def a2_module(coords, mode="symbolic"):
    lam = LatticeVector(tuple(Fraction(c) for c in coords))
    if mode == "symbolic":
        pm = ParamMatrix.symbolic(A2)
    else:
        pm = ParamMatrix.numeric(
            A2, {(0, 0): Fraction(4), (1, 1): Fraction(4), (0, 1): Fraction(3)})
    return build_module(A2, pm, lam)


def b2_module(coords, mode="symbolic"):
    lam = LatticeVector(tuple(Fraction(c) for c in coords))
    if mode == "symbolic":
        pm = ParamMatrix.symbolic(B2)
    else:
        pm = ParamMatrix.numeric(
            B2, {(0, 0): Fraction(9), (1, 1): Fraction(3), (0, 1): Fraction(5)})
    return build_module(B2, pm, lam)


# -- input validation ---------------------------------------------------------------


def test_rejects_non_dominant_or_non_integral_weights():
    pm = ParamMatrix.symbolic(A2)
    with pytest.raises(ValueError, match="dominant"):
        build_module(A2, pm, LatticeVector((Fraction(1), Fraction(0))))
    pm1 = ParamMatrix.symbolic(A1)
    with pytest.raises(ValueError, match="dominant"):
        build_module(A1, pm1, LatticeVector((Fraction(1, 3),)))


# -- helpers: the lowering closed form and the coinvariant projection ---------------


def lowering_closed_form(mod, i, r):
    """The r-th lowering power of the highest-weight word: factorial at the
    inverse diagonal parameter times a telescoping product of weight factors
    q_ii^(k - 1 - m_i) - 1 on a single chain word."""
    pm, alg = mod.params, mod.alg
    qii = pm.entry(i, i)
    coeff = q_factorial(r, qii ** -1)
    for k in range(1, r + 1):
        coeff = coeff * (qii ** (k - 1 - mod.marks[i]) - pm.one)
    word = alg.word([("F", i)] * r + [("V",)])
    return alg.element({word: alg.coerce(coeff)})


def coinvariant_project(alg, x):
    """a -> sum a_(1) (incl . proj . antipode)(a_(2)), with proj the
    projection onto the length-zero (group-algebra) part.  Lands in the
    right-coinvariant subspace and is the identity there."""
    out = {}
    for (wa, wb), c in alg.coproduct(x).items():
        anti = alg.antipode_word(wb)
        proj = {w: cc for w, cc in anti.terms.items() if not w.letters}
        if not proj:
            continue
        add_into(out, alg.product(alg.element({wa: alg.one}),
                                  alg.element(proj)).terms, c)
    return alg.element(out)


def is_right_coinvariant(alg, x):
    """Whether (id (x) proj) applied to the coproduct returns x (x) 1."""
    got = {}
    for (wa, wb), c in alg.coproduct(x).items():
        if not wb.letters:
            add_into(got, {(wa, wb.tail): c})
    want = {(w, alg.group.identity): c for w, c in x.terms.items()}
    return got == want


# -- highest-weight vector ----------------------------------------------------------


def test_highest_vector_axioms():
    mod = a2_module((1, 1))
    alg, pm, g = mod.alg, mod.params, mod.alg.group
    v = mod.highest_vector
    lam = mod.lam
    for i in range(2):
        assert mod.act(("e", i), v).is_zero
        assert mod.act(("w", i, 1), v) == v
        assert mod.act(("wp", i, 1), v) == \
            v.scale(pm.entry(i, i) ** -mod.marks[i])
    assert {LatticeVector(alg.weight_of_word(w)) for w in v.terms} == {lam}
    # the weight letter is graded by the identity: the coproduct of the
    # highest-weight word is v (x) 1 + 1 (x) v
    vw = Word((("V",),), g.identity)
    unit_w = Word((), g.identity)
    assert alg.coproduct(v) == {(unit_w, vw): alg.one, (vw, unit_w): alg.one}
    # torus characters carried by the weight letter: K_i -> 1 and
    # K'_i -> q_ii^-m_i, so the mutual braiding of F_i and V is q_ii^m_i
    vletter = alg.letters[("V",)]
    for i in range(2):
        assert vletter.char(g.basis(("K", i))) == alg.one
        assert vletter.char(g.basis(("Kp", i))) == \
            pm.entry(i, i) ** -mod.marks[i]
        fletter = alg.letters[("F", i)]
        assert fletter.char(vletter.grading) * \
            vletter.char(fletter.grading) == pm.entry(i, i) ** mod.marks[i]


def test_first_lowering_matches_hand_value():
    mod = a2_module((1, 1))
    alg, pm = mod.alg, mod.params
    for i in range(2):
        coeff = pm.entry(i, i) ** -mod.marks[i] - pm.one
        want = alg.element({alg.word([("F", i), ("V",)]): coeff})
        assert mod.act(("f", i), mod.highest_vector) == want
        assert lowering_closed_form(mod, i, 1) == want


def test_lowering_closed_form_and_threshold():
    mod = a1_module(3)
    vec = mod.highest_vector
    for r in range(5):
        assert vec == lowering_closed_form(mod, 0, r), f"r={r}"
        vec = mod.act(("f", 0), vec)
    assert mod.nilpotency_threshold(0) == 4
    # the weight-compatibility constraint forces the telescoping factor to
    # vanish exactly at the threshold, identically in the parameters
    short = a1_module(1)
    assert not lowering_closed_form(short, 0, 1).is_zero
    assert lowering_closed_form(short, 0, 2).is_zero
    assert short.nilpotency_threshold(0) == 2
    # a chain that outlives the expected threshold stops one step past it
    mod.marks = (1,)
    assert mod.nilpotency_threshold(0) == 3


# -- dimensions against the independent oracle ---------------------------------------


def test_dimensions_a1_family():
    for m in range(4):
        mod = a1_module(m)
        lam = LatticeVector((Fraction(m, 2),))
        assert mod.dimension == m + 1 == weyl_dim(A1, lam)
        assert mod.nilpotency_threshold(0) == m + 1
    for m in (4, 5):
        mod = a1_module(m, "numeric")
        assert mod.dimension == m + 1
        assert mod.nilpotency_threshold(0) == m + 1


def test_dimensions_a2():
    lam = LatticeVector((Fraction(2, 3), Fraction(1, 3)))
    mod = a2_module((Fraction(2, 3), Fraction(1, 3)))
    assert mod.dimension == 3 == weyl_dim(A2, lam)
    a0, a1_ = simple_root(A2, 0), simple_root(A2, 1)
    assert set(mod.weights) == {lam, lam - a0, lam - a0 - a1_}
    adj = a2_module((1, 1))
    assert adj.dimension == 8 == weyl_dim(A2, LatticeVector((Fraction(1), Fraction(1))))
    assert [d for _, d in adj.weight_dims()] == [1, 1, 1, 2, 1, 1, 1]
    assert adj.nilpotency_threshold(0) == adj.nilpotency_threshold(1) == 2


def test_dimensions_b2():
    lam = LatticeVector((Fraction(1), Fraction(1)))
    mod = b2_module((1, 1))
    assert mod.dimension == 5 == weyl_dim(B2, lam)
    assert [d for _, d in mod.weight_dims()] == [1, 1, 1, 1, 1]
    assert (mod.nilpotency_threshold(0), mod.nilpotency_threshold(1)) == (2, 1)


def test_dimensions_g2():
    # builds only: the golden report cfg-g2-numeric-module pins the other
    # module records at (2, 3)
    pm = ParamMatrix.numeric(
        G2, {(0, 0): Fraction(8), (1, 1): Fraction(2), (0, 1): Fraction(3)})
    zero = LatticeVector((Fraction(0), Fraction(0)))
    for coords, dim in (((1, 2), 7), ((2, 3), 14)):
        lam = LatticeVector(tuple(Fraction(c) for c in coords))
        mod = build_module(G2, pm, lam)
        assert mod.closure_certified
        assert mod.dimension == dim == weyl_dim(G2, lam)
    # the adjoint module: every root once, the zero weight twice
    dims = dict(mod.weight_dims())
    assert dims.pop(zero) == 2
    assert set(dims.values()) == {1} and len(dims) == 12


# -- defining relations as matrix identities ------------------------------------------


@pytest.mark.parametrize("factory,args,mode", [
    (a1_module, (2,), "symbolic"),
    (a2_module, ((Fraction(2, 3), Fraction(1, 3)),), "symbolic"),
    (a2_module, ((1, 1),), "numeric"),
    (b2_module, ((1, 1),), "numeric"),
])
def test_relation_matrix_identities(factory, args, mode):
    mod = factory(*args, mode)
    report = mod.relation_matrix_report()
    bad = [rid for rid, ok in report.items() if not ok]
    assert not bad, f"relations failing as matrix identities: {bad}"
    assert mod.closure_certified


def test_relation_check_detects_wrong_coefficients():
    mod = a2_module((Fraction(2, 3), Fraction(1, 3)))
    # sabotage: drop the torus compensation from the commutator relation
    parts = mod._operator_parts(("R5", 0, 0))
    broken = [parts[0][:2]]
    found = False
    for mu in mod.weights:
        total = None
        for mono, coeff in broken[0]:
            _, m = mod._mono_matrix(mono, mu)
            if m is not None:
                sm = m.scale(mod.alg.coerce(coeff))
                total = sm if total is None else total + sm
        if total is not None and not total.is_zero():
            found = True
    assert found


# -- action matrices ------------------------------------------------------------------


def test_action_matrices_a1():
    mod = a1_module(1)
    lam = mod.lam
    a0 = simple_root(A1, 0)
    low, mf = mod.act_matrix(("f", 0), lam)
    up, me = mod.act_matrix(("e", 0), lam - a0)
    assert (low, up) == (lam - a0, lam)
    assert (mf.nrows, mf.ncols) == (1, 1) and (me.nrows, me.ncols) == (1, 1)
    # out of the ladder's ends the actions are verified zero maps
    assert mod.act_matrix(("e", 0), lam) == (lam + a0, None)
    assert mod.act_matrix(("f", 0), lam - a0) == (lam - a0 - a0, None)
    # on the highest vector the commutator reduces to the torus part
    pm = mod.params
    c = pm.entry(0, 0) / (pm.entry(0, 0) - pm.one)
    want = c * (pm.one - pm.entry(0, 0) ** -mod.marks[0])
    assert (me * mf).rows[0][0] == want


def _torus_eigenvalue(mod, i, mu, primed):
    # each F_j lowered below the highest weight contributes q_ij^-1 to K_i
    # and q_ji to K'_i; the weight letter contributes 1 and q_ii^-m_i
    pm, ai, beta = mod.params, simple_root(mod.datum, i), mod.lam - mu
    if primed:
        return pm.entry(i, i) ** -mod.marks[i] * pm.q_pairing(beta, ai)
    return pm.q_pairing(ai, beta) ** -1


def test_torus_matrices_are_diagonal():
    mod = a2_module((Fraction(2, 3), Fraction(1, 3)))
    for mu in mod.weights:
        d = len(mod.basis(mu))
        for i in range(2):
            for atom, primed in ((("w", i, 1), False), (("wp", i, 1), True)):
                target, m = mod.act_matrix(atom, mu)
                assert target == mu
                ev = _torus_eigenvalue(mod, i, mu, primed)
                for r in range(d):
                    for s in range(d):
                        want = ev if r == s else mod.alg.zero
                        assert m.rows[r][s] == want


# -- the ideal route as the oracle of the raising action -------------------------------


def ideal_table(mod):
    """A reduction table of ideal elements for the module's algebra: module
    words hold at most max_depth lowering letters plus the weight letter,
    and reduction never lengthens them."""
    return NormalFormTable(IdealReducer(mod.real), bound=mod.max_depth + 2)


ORACLE_NUMERIC = {
    "A1": {(0, 0): 4},
    "A1xA1": {(0, 0): 4, (1, 1): 9, (0, 1): 3},
    "A2": {(0, 0): 4, (1, 1): 4, (0, 1): 3},
    "B2": {(0, 0): 9, (1, 1): 3, (0, 1): 5},
    "G2": {(0, 0): 8, (1, 1): 2, (0, 1): 3},
}


@pytest.mark.parametrize("preset,mode,coords", [
    ("A1", "numeric", (2,)),
    ("A1", "symbolic", ("3/2",)),
    ("A1", 5, ("3/2",)),
    ("A1xA1", "numeric", (1, 1)),
    ("A1xA1", "symbolic", ("1/2", "1/2")),
    ("A1xA1", 5, (1, "1/2")),
    ("A2", "numeric", (1, 1)),
    ("A2", "symbolic", ("2/3", "1/3")),
    ("A2", 5, (1, 1)),
    ("B2", "numeric", (1, 1)),
    ("B2", "symbolic", ("1/2", 1)),
    ("B2", 5, ("1/2", 1)),
    ("B2", 7, (1, 1)),
    # the ideal route does not finish within minutes on symbolic or
    # root-of-unity G2, nor on numeric G2 at (2, 3)
    ("G2", "numeric", (1, 2)),
], ids=str)
def test_raising_matches_ideal_reduction(preset, mode, coords):
    # E_i acts as c_i times the deletion of a leading F_i; reducing the
    # adjoint action of E_i modulo the ideal gives the same vector on every
    # basis vector (an integer mode is the order of a root of unity)
    datum = CartanDatum.preset(preset)
    lam = LatticeVector(tuple(Fraction(c) for c in coords))
    if mode == "numeric":
        mod = build_module(datum, ParamMatrix.numeric(
            datum, {k: Fraction(v) for k, v in ORACLE_NUMERIC[preset].items()}),
            lam)
    elif mode == "symbolic":
        mod = build_module(datum, ParamMatrix.symbolic(datum), lam)
    else:
        mod = root_of_unity_module(datum, lam, mode)
    table = ideal_table(mod)
    for mu in mod.weights:
        for b in mod.basis(mu):
            for i in range(datum.n):
                adj = mod.real.ad_left(mod.real.e_elt(i), b)
                assert any(has_contraction(w) for w in adj.terms) or adj.is_zero
                want, ok = table.normal_form(adj)
                assert ok
                assert mod.act(("e", i), b) == want


# -- composing atom actions agrees with the one-shot adjoint --------------------------


def _adjoint_act(mod, expr, vec):
    """Action of a presented-generator polynomial by iterated adjoint steps
    (one reduction per generator application)."""
    out = {}
    for mono, coeff in expr.terms.items():
        acc = vec
        for atom in reversed(mono):
            acc = mod.act(atom, acc)
            if acc.is_zero:
                break
        add_into(out, acc.terms, mod.alg.coerce(coeff))
    return mod.alg.element(out)


def test_adjoint_act_matches_wholesale_adjoint():
    mod = a2_module((Fraction(2, 3), Fraction(1, 3)))
    real = mod.real
    table = ideal_table(mod)
    exprs = [e(0) * f(0) - f(0) * e(0), f(1) * f(0), e(1) * f(1) * f(0)]
    vecs = [mod.highest_vector, mod.act(("f", 0), mod.highest_vector)]
    for expr in exprs:
        for vec in vecs:
            stepwise = _adjoint_act(mod, expr, vec)
            whole = real.ad_left(real.psi(expr), vec)
            whole, ok = table.normal_form(whole)
            assert ok
            assert stepwise == whole


# -- coinvariants of the degree-zero projection ---------------------------------------


def test_coinvariant_projection():
    mod = a2_module((1, 1))
    alg, g = mod.alg, mod.alg.group
    v = mod.highest_vector
    # group-likes project to the unit
    x = alg.group_like(g.basis(("K", 0)))
    assert coinvariant_project(alg, x) == alg.unit()
    # the highest-weight word is already right coinvariant and fixed
    assert is_right_coinvariant(alg, v)
    assert coinvariant_project(alg, v) == v
    # a twisted tail is not coinvariant; projection strips the tail
    tw = alg.element({Word((("V",),), g.basis(("K", 0))): alg.one})
    assert not is_right_coinvariant(alg, tw)
    proj = coinvariant_project(alg, tw)
    assert proj == v
    # idempotence on a mixed sample
    sample = v + alg.unit().scale(alg.one + alg.one) + tw
    once = coinvariant_project(alg, sample)
    assert is_right_coinvariant(alg, once)
    assert coinvariant_project(alg, once) == once


def test_module_vectors_are_coinvariant():
    mod = a2_module((Fraction(2, 3), Fraction(1, 3)))
    for mu in mod.weights:
        for b in mod.basis(mu):
            assert is_right_coinvariant(mod.alg, b)
            assert coinvariant_project(mod.alg, b) == b


# -- alcove test and root-of-unity modules --------------------------------------------


def test_alcove_check():
    for m in range(4):
        assert alcove_check(A1, LatticeVector((Fraction(m, 2),)), 5)
    assert not alcove_check(A1, LatticeVector((Fraction(2),)), 5)
    with pytest.raises(ValueError, match="odd"):
        alcove_check(A1, LatticeVector((Fraction(1, 2),)), 4)
    g2 = CartanDatum.preset("G2")
    with pytest.raises(ValueError, match="triple bond"):
        alcove_check(g2, LatticeVector((Fraction(1), Fraction(0))), 9)
    aff = CartanDatum(((2, -2), (-2, 2)), (1, 1))
    with pytest.raises(ValueError, match="finite"):
        alcove_check(aff, LatticeVector((Fraction(0), Fraction(0))), 5)
    # a product datum: its positive roots give the product alcove
    a1xa1 = CartanDatum.preset("A1xA1")
    assert alcove_check(a1xa1, LatticeVector((Fraction(1, 2), Fraction(0))), 5)
    with pytest.raises(ValueError, match="dominant"):
        alcove_check(A2, LatticeVector((Fraction(1), Fraction(0))), 5)


def test_root_of_unity_modules():
    for m in range(4):
        mod = root_of_unity_module(A1, LatticeVector((Fraction(m, 2),)), 5)
        assert mod.params.mode == "root_of_unity"
        assert mod.dimension == m + 1
        report = mod.relation_matrix_report()
        assert all(report.values()), report
    with pytest.raises(ValueError, match="alcove"):
        root_of_unity_module(A1, LatticeVector((Fraction(2),)), 5)


# -- guard rails ----------------------------------------------------------------------


def test_closure_depth_guard():
    pm = ParamMatrix.symbolic(A1)
    with pytest.raises(ClosureError, match="pending"):
        build_module(A1, pm, LatticeVector((Fraction(3, 2),)), max_depth=2)


def test_non_finite_type_needs_explicit_depth():
    aff = CartanDatum(((2, -2), (-2, 2)), (1, 1))
    pm = ParamMatrix.symbolic(aff)
    lam = LatticeVector((Fraction(1), Fraction(1)))  # level zero: trivial
    with pytest.raises(ValueError, match="depth"):
        build_module(aff, pm, lam)
    mod = build_module(aff, pm, lam, max_depth=3)
    assert mod.dimension == 1


def test_coords_at_rebuilds_basis_combinations():
    datum = CartanDatum.preset("A2")
    params = ParamMatrix.numeric(datum, {(0, 0): 5, (1, 1): 5, (0, 1): 3})
    mod = build_module(datum, params, LatticeVector((1, 1)))
    assert [d for _, d in mod.weight_dims()].count(2) == 1
    rng = random.Random(3)
    for mu in mod.weights:
        basis = mod.basis(mu)
        coords = [mod.alg.coerce(Fraction(rng.randint(-4, 4),
                                          rng.randint(1, 3)))
                  for _ in basis]
        vec = mod.alg.zero_element()
        for c, b in zip(coords, basis):
            vec = vec + b.scale(c)
        assert mod.coords_at(mu, vec) == coords


@pytest.mark.parametrize("mode", ["numeric", "root_of_unity"])
def test_table_does_not_depend_on_insertion_order(mode):
    # `ensure` adds a closure sorted by leading word; the reduced echelon
    # form of a span is unique, so a shuffled order gives the same table
    if mode == "numeric":
        mod = a2_module((1, 1), "numeric")
    else:
        mod = root_of_unity_module(A2, LatticeVector((Fraction(1),
                                                      Fraction(1))), 5)
    alg = mod.alg
    images = [mod.real.ad_left(mod.real._atom_elt((k, i)), vec)
              for mu in mod.weights for vec in mod.basis(mu)
              for k in "ef" for i in range(2)]
    x = max(images, key=lambda y: len(y.terms))
    table = ideal_table(mod)
    table.ensure([w for w in x.terms if has_contraction(w)])
    assert len(table.rows) > 30 and not table.saturated
    gens = [table.reducer.targeted_generator(wrd, p)
            for wrd in sorted(table._ensured, key=word_key)
            if has_contraction(wrd) and len(wrd.letters) <= table.bound
            for p, letter in enumerate(wrd.letters) if letter[0] == "X"]
    random.Random(7).shuffle(gens)
    shuffled = Echelon(alg.one, NormalFormTable._pivot_key)
    for gen in gens:
        shuffled.add(gen.terms)
    assert list(shuffled.rows) != list(table.rows.rows)
    assert set(shuffled.rows) == set(table.rows.rows)
    for pw, row in table.rows.rows.items():
        assert shuffled.rows[pw] == row
    twin = NormalFormTable(table.reducer, bound=table.bound)
    twin.rows, twin._ensured = shuffled, set(table._ensured)
    assert table.normal_form(x)[1]
    for y in [x] + [alg.element({w: alg.one})
                    for w in sorted(table._ensured, key=word_key)]:
        got, ok = table.normal_form(y)
        want, twin_ok = twin.normal_form(y)
        assert ok == twin_ok and got.terms == want.terms
