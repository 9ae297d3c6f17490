"""Skew pairing: generator values, axiom cross-checks, graded bases, Gram
matrices."""

from fractions import Fraction
from itertools import permutations
from math import prod
from pathlib import Path

import pytest

from mpqg.cartan import (CartanDatum, LatticeVector, ParamMatrix, kostant_count,
                         positive_roots)
from mpqg.cli import parse_config_text
from mpqg.cotensor import word_key
from mpqg.linalg import Echelon, Matrix
from mpqg.pairing import SkewPairing, weights_of_height
from mpqg.realization import FreeExpr, Realization, e, f, w, wp


def make_pairing(preset):
    datum = CartanDatum.preset(preset)
    pm = ParamMatrix.symbolic(datum)
    return SkewPairing(Realization(datum, pm))


def lat(*coords):
    return LatticeVector(tuple(Fraction(c) for c in coords))


def realized(sp, sign, seq, exps):
    """Realized monomial of one half: the generators along seq (e for sign
    "+", f for "-") times the torus element with exponent vector exps (K
    for "+", K' for "-"), mapped into the machinery by `Realization.psi`."""
    gen, torus = (e, w) if sign == "+" else (f, wp)
    expr = FreeExpr.one()
    for i in seq:
        expr = expr * gen(i)
    for i, c in enumerate(exps.coords):
        expr = expr * torus(i, 1 if c > 0 else -1) ** abs(c)
    return sp.real.psi(expr)


def test_generator_values():
    sp = make_pairing("A2")
    real = sp.real
    alg = sp.alg
    zero = lat(0, 0)
    cbar0 = sp.params.entry(0, 0) / (alg.one - sp.params.entry(0, 0))
    assert sp.pair_monomial((0,), zero, real.e_elt(0)) == cbar0
    assert sp.pair_monomial((0,), zero, real.e_elt(1)) == alg.zero
    # mixed generator/torus pairs vanish
    assert sp.pair_monomial((), lat(1, 0), real.e_elt(0)) == alg.zero
    assert sp.pair_monomial((1,), zero, real.k_elt(0)) == alg.zero


def test_torus_pairing_values():
    sp = make_pairing("A2")
    alg = sp.alg
    g = alg.group
    for mu, nu in [((1, 0), (0, 1)), ((2, -1), (1, 1)), ((0, 0), (3, -2))]:
        x = alg.group_like(g.element([(("K", i), c)
                                      for i, c in enumerate(mu)]))
        got = sp.pair_monomial((), lat(*nu), x)
        assert got == sp.params.q_pairing(lat(*mu), lat(*nu))


def test_pairing_independent_of_right_torus_factor():
    # a lowering generator against a raising generator times any unprimed
    # torus element gives the same base value
    sp = make_pairing("A2")
    alg = sp.alg
    cbar = sp.base_value(0)
    for mu in [(0, 0), (1, 0), (-2, 3)]:
        x = realized(sp, "+", (0,), lat(*mu))
        assert sp.pair_monomial((0,), lat(0, 0), x) == cbar


def test_weight_orthogonality():
    sp = make_pairing("A2")
    alg = sp.alg
    pairs = [((0,), (1,)), ((0, 1), (0,)), ((0, 0), (0, 1)),
             ((0, 1, 1), (0, 1))]
    zero = lat(0, 0)
    for fseq, eseq in pairs:
        x = realized(sp, "+", eseq, zero)
        assert sp.pair_monomial(fseq, zero, x) == alg.zero


def all_sequences(n, max_len):
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [s + (i,) for s in layer for i in range(n)]
        out.extend(layer)
    return out


def test_two_recursion_directions_agree(preset_params):
    datum, pm = preset_params
    sp = SkewPairing(Realization(datum, pm))
    n = datum.n
    mu = lat(*(1, -1)[:n])
    nu = lat(*(0, 2)[:n])
    for fseq in all_sequences(n, 3):
        y = realized(sp, "-", fseq, nu)
        for eseq in all_sequences(n, 3):
            x = realized(sp, "+", eseq, mu)
            forward = sp.pair_monomial(fseq, nu, x)
            transposed = sp.pair_transposed(y, eseq, mu)
            assert forward == transposed, (fseq, eseq)


def test_hand_gram_rank_one():
    sp = make_pairing("A1")
    alg = sp.alg
    q = sp.params.entry(0, 0)
    cbar = q / (alg.one - q)
    _, _, factors, coeffs = sp.gram_matrix(lat(1))
    assert factors == [cbar] and coeffs.rows == [[alg.one]]
    _, _, factors, coeffs = sp.gram_matrix(lat(2))
    two_q = alg.one + q
    assert factors == [cbar * cbar] and coeffs.rows == [[two_q]]
    assert factors[0] * coeffs.rows[0][0] == two_q * cbar * cbar
    assert coeffs.det() != alg.zero


def test_hand_gram_a2_mixed_weight():
    sp = make_pairing("A2")
    alg = sp.alg
    pm = sp.params
    cb = sp.base_value(0) * sp.base_value(1)
    f_basis, e_basis, factors, coeffs = sp.gram_matrix(lat(1, 1))
    assert f_basis == [(0, 1), (1, 0)] and e_basis == [(0, 1), (1, 0)]
    assert factors == [cb, cb]
    assert coeffs.rows == [[alg.one, pm.entry(1, 0)],
                           [pm.entry(0, 1), alg.one]]
    want_det = cb * cb * (alg.one - pm.entry(0, 1) * pm.entry(1, 0))
    assert factors[0] * factors[1] * coeffs.det() == want_det
    assert coeffs.det() != alg.zero


@pytest.mark.parametrize("preset,max_h", [("A1", 4), ("A2", 4), ("B2", 4)])
def test_graded_dimensions_match_partition_counts(preset, max_h):
    sp = make_pairing(preset)
    datum = sp.datum
    for h in range(1, max_h + 1):
        for beta in weights_of_height(datum, h):
            want = kostant_count(datum, beta)
            plus, _ = sp.graded_basis("+", beta)
            minus, _ = sp.graded_basis("-", beta)
            assert len(plus) == want, (beta.coords, len(plus), want)
            assert len(minus) == want, (beta.coords, len(minus), want)


def enumerated_orders(beta):
    """Every distinct index order of the weight beta.  Realizing them all
    and eliminating spans the graded component the slow way; it is the
    small-case oracle for the graded closure behind `graded_basis`."""
    letters = [i for i, c in enumerate(beta.coords) for _ in range(int(c))]
    return sorted(set(permutations(letters)))


def config_numeric(name):
    text = (Path(__file__).resolve().parents[1] / "configs" / name).read_text(
        encoding="utf-8")
    return parse_config_text(text)["numeric"]


PARAMS = {
    "symbolic": ParamMatrix.symbolic,
    "numeric": lambda datum: ParamMatrix.numeric(datum, {
        "A1": {(0, 0): 5},
        "A2": {(0, 0): 5, (1, 1): 5, (0, 1): 3},
        "B2": config_numeric("b2-numeric.cfg"),
        "G2": config_numeric("g2-numeric.cfg"),
    }[datum.name]),
    "root-of-unity": lambda datum: ParamMatrix.root_of_unity(datum, 5),
}


@pytest.mark.parametrize("mode", sorted(PARAMS))
@pytest.mark.parametrize("preset", ["A1", "A2", "B2"])
def test_closure_spans_every_index_order(preset, mode):
    datum = CartanDatum.preset(preset)
    sp = SkewPairing(Realization(datum, PARAMS[mode](datum)))
    zero = lat(*(0,) * datum.n)
    for h in range(1, 5):
        for beta in weights_of_height(datum, h):
            for sign in "+-":
                _, elts = sp.graded_basis(sign, beta)
                closure = Echelon(sp.alg.one, word_key)
                for x in elts:
                    assert closure.add(x.terms)
                enumerated = Echelon(sp.alg.one, word_key)
                for seq in enumerated_orders(beta):
                    y = realized(sp, sign, seq, zero)
                    assert not closure.reduce(y.terms), (sign, seq)
                    enumerated.add(y.terms)
                assert len(enumerated) == len(elts), (sign, beta.coords)


@pytest.mark.parametrize("preset,top", [("A2", (4, 4)), ("B2", (6, 8))])
def test_small_borel_halves_reach_top_degree(preset, top):
    # at ell = 3 each realized half is the small quantum group's, of
    # dimension 3^N (N positive roots) with a one-dimensional top degree
    # twice the sum of the positive roots; nothing lies above it
    datum = CartanDatum.preset(preset)
    sp = SkewPairing(Realization(datum, ParamMatrix.root_of_unity(datum, 3)))
    top_height = sum(top)
    for sign in "+-":
        dims = {}
        for h in range(top_height + 2):
            for beta in weights_of_height(datum, h):
                paths, _ = sp.graded_basis(sign, beta)
                if paths:
                    dims[tuple(beta.coords)] = len(paths)
        assert sum(dims.values()) == 3 ** len(positive_roots(datum)), sign
        assert dims[top] == 1, sign
        assert all(sum(b) < top_height for b in dims if b != top), sign


def test_gram_nondegenerate_low_heights():
    for preset, max_h in [("A2", 3), ("B2", 3)]:
        sp = make_pairing(preset)
        for h in range(1, max_h + 1):
            for beta in weights_of_height(sp.datum, h):
                _, _, factors, coeffs = sp.gram_matrix(beta)
                if not coeffs.rows:
                    continue
                assert all(factors), (preset, beta.coords)
                assert coeffs.det() != sp.alg.zero, (preset, beta.coords)


@pytest.mark.parametrize("mode", sorted(PARAMS))
@pytest.mark.parametrize("preset,max_h",
                         [("A1", 4), ("A2", 4), ("B2", 4), ("G2", 3)])
def test_factored_gram_matches_transposed_recursion(preset, max_h, mode):
    # diag(factors) * coeffs is the Gram matrix entry by entry, against the
    # recursion on the raising argument, and so is its determinant
    datum = CartanDatum.preset(preset)
    sp = SkewPairing(Realization(datum, PARAMS[mode](datum)))
    zero = lat(*(0,) * datum.n)
    for h in range(1, max_h + 1):
        for beta in weights_of_height(datum, h):
            f_basis, e_basis, factors, coeffs = sp.gram_matrix(beta)
            entries = [[sp.pair_transposed(realized(sp, "-", fseq, zero),
                                           eseq, zero) for eseq in e_basis]
                       for fseq in f_basis]
            for r, row in enumerate(entries):
                for c, want in enumerate(row):
                    got = factors[r] * coeffs.rows[r][c]
                    assert got == want, (beta.coords, r, c)
            if entries:
                assert (prod(factors) * coeffs.det()
                        == Matrix(entries).det()), beta.coords


def test_weights_of_height_enumeration():
    datum = CartanDatum.preset("B2")
    hs = weights_of_height(datum, 2)
    assert [tuple(int(c) for c in b.coords) for b in hs] == [
        (0, 2), (1, 1), (2, 0)]
