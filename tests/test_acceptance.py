"""End-to-end acceptance matrix.

Eight independent verification criteria, one test (and one printed
PASS/FAIL line) each, every check exact -- no tolerances anywhere:

 1. defining relations across all shipped Cartan data, symbolically;
 2. iterated-adjoint closed forms and their top-degree vanishing;
 3. exhaustive Hopf-axiom checks on bounded word lengths;
 4. skew-pairing generator values, graded dimensions, Gram regularity;
 5. highest-weight modules: dimensions, thresholds, relation matrices;
 6. root-of-unity degeneration: nilpotency, finite grading, alcove;
 7. cocycle twist to the one-parameter constants;
 8. exact scalar arithmetic: q-combinatorics, field axioms,
    specialization.
"""

import random
import time
from fractions import Fraction
from math import comb

from mpqg.cartan import (CartanDatum, LatticeVector, ParamMatrix,
                         kostant_count, weyl_dim)
from mpqg.cli import DEFAULTS, RunConfig, cmd_check_hopf
from mpqg.modules import alcove_check, build_module, root_of_unity_module
from mpqg.pairing import SkewPairing, weights_of_height
from mpqg.realization import IdealReducer, Realization, relation_verdict
from mpqg.scalars import Scalar, q_binomial, specialize
from mpqg.twist import build_twist

SEED = 20260819


def _report(num, title, ok, summary):
    print(f"CRITERION {num} [{title}]: {'PASS' if ok else 'FAIL'} "
          f"-- {summary}")
    assert ok, f"criterion {num} ({title}): {summary}"


# -- 1: defining relations ------------------------------------------------------------


def test_criterion_1_defining_relations():
    t0 = time.perf_counter()
    presets = ("A1", "A1xA1", "A2", "B2", "G2")
    literal = 0
    reduced = 0
    for preset in presets:
        datum = CartanDatum.preset(preset)
        real = Realization(datum, ParamMatrix.symbolic(datum))
        reducer = IdealReducer(real)
        for rid in real.relation_ids():
            tag, i, j = rid
            for part in real.relation_residuals(rid):
                if part.is_zero:
                    literal += 1
                    continue
                # only the equal-index commutator bracket may need the
                # contraction ideal
                assert tag == "R5" and i == j, (preset, rid)
                status, _ = reducer.reduce(part, bound=4)
                assert status == "zero", (preset, rid, status)
                reduced += 1
    elapsed = time.perf_counter() - t0
    _report(1, "defining relations", elapsed < 300,
            f"{len(presets)} Cartan data, {literal} residuals literally "
            f"zero, {reduced} commutator residuals zero mod the contraction "
            f"ideal at bound 4, {elapsed:.1f}s (< 300s)")


# -- 2: adjoint closed forms ----------------------------------------------------------


def test_criterion_2_adjoint_closed_forms():
    compared = 0
    for preset in ("A2", "B2", "G2"):
        datum = CartanDatum.preset(preset)
        real = Realization(datum, ParamMatrix.symbolic(datum))
        for i in range(datum.n):
            for j in range(datum.n):
                if i == j:
                    continue
                top = 1 - datum.a[i][j]
                for side in ("left", "right"):
                    for s in range(1, top + 1):
                        got = real.ad_power(side, i, j, s)
                        assert got == real.ad_power_closed(side, i, j, s), \
                            (preset, side, i, j, s)
                        # strictly below the top the iterate must survive
                        assert got.is_zero == (s == top), \
                            (preset, side, i, j, s)
                        compared += 1
    _report(2, "adjoint closed forms", True,
            f"{compared} iterates match the closed form exactly, each "
            "chain vanishing first at s = 1 - a_ij (both adjoint sides, "
            "single/double/triple bonds)")


# -- 3: Hopf axioms -------------------------------------------------------------------


def test_criterion_3_hopf_axioms():
    cfg = RunConfig({**DEFAULTS, "word_length": 4})
    records = cmd_check_hopf(cfg)
    bad = [r for r in records if r["status"] != "pass"]
    assert not bad, bad
    details = {r["check"].split("/")[1]: r["detail"] for r in records}
    _report(3, "Hopf axioms", len(records) == 4,
            "exhaustive: coassociativity on "
            + details["coassociativity"]
            + "; associativity on " + details["associativity"]
            + "; coproduct multiplicativity on " + details["bialgebra"]
            + "; antipode law on " + details["antipode"])


# -- 4: skew pairing ------------------------------------------------------------------


def test_criterion_4_skew_pairing():
    gens = 0
    torus = 0
    grams = 0
    for preset, max_h in (("A2", 4), ("B2", 3)):
        datum = CartanDatum.preset(preset)
        real = Realization(datum, ParamMatrix.symbolic(datum))
        pairing = SkewPairing(real)
        alg = real.alg
        pm = real.params
        zero = LatticeVector((Fraction(0),) * datum.n)
        for i in range(datum.n):
            for j in range(datum.n):
                got = pairing.pair_monomial((i,), zero, real.e_elt(j))
                if i == j:
                    want = pm.entry(i, i) / (alg.one - pm.entry(i, i))
                else:
                    want = alg.zero
                assert got == want, (preset, i, j)
                gens += 1
        vectors = [(1, 0), (0, 1), (1, 2), (3, 1)]
        for mu in vectors:
            for nu in vectors:
                primed = LatticeVector(tuple(Fraction(c) for c in mu))
                unprimed = alg.group_like(alg.group.element(
                    [(("K", k), c) for k, c in enumerate(nu)]))
                got = pairing.pair_monomial((), primed, unprimed)
                want = pm.q_pairing(
                    LatticeVector(tuple(Fraction(c) for c in nu)), primed)
                assert got == want, (preset, mu, nu)
                torus += 1
        for h in range(1, max_h + 1):
            for beta in weights_of_height(datum, h):
                f_basis, e_basis, gram = pairing.gram_matrix(beta)
                want = kostant_count(datum, beta)
                assert len(f_basis) == want == len(e_basis), (preset, beta)
                assert gram.det() != pm.zero, (preset, beta)
                grams += 1
    _report(4, "skew pairing", True,
            f"{gens} generator pairs match delta_ij q_ii/(1-q_ii); "
            f"{torus} torus pairs match the parameter bicharacter; "
            f"{grams} graded components (heights <= 4 and <= 3) have "
            "partition-count dimensions and nonvanishing Gram determinants")


# -- 5: highest-weight modules --------------------------------------------------------


def _a1_case(m):
    datum = CartanDatum.preset("A1")
    lam = LatticeVector((Fraction(m, 2),))
    if m <= 3:
        params = ParamMatrix.symbolic(datum)
    else:
        params = ParamMatrix.numeric(datum, {(0, 0): Fraction(2)})
    return datum, params, lam, m + 1


def _rank2_case(preset, coords, numeric):
    datum = CartanDatum.preset(preset)
    lam = LatticeVector(tuple(Fraction(c) for c in coords))
    params = ParamMatrix.numeric(datum, numeric) if numeric \
        else ParamMatrix.symbolic(datum)
    return datum, params, lam, weyl_dim(datum, lam)


def test_criterion_5_highest_weight_modules():
    cases = [_a1_case(m) for m in (1, 2, 3, 4, 5)]
    cases.append(_rank2_case("A2", (Fraction(2, 3), Fraction(1, 3)), None))
    cases.append(_rank2_case("A2", (1, 1),
                             {(0, 0): 4, (1, 1): 4, (0, 1): 3}))
    cases.append(_rank2_case("B2", (1, 1),
                             {(0, 0): 9, (1, 1): 3, (0, 1): 5}))
    dims = []
    relation_checks = 0
    for datum, params, lam, want_dim in cases:
        mod = build_module(datum, params, lam)
        assert mod.dimension == want_dim, (datum.name, lam, mod.dimension)
        assert mod.closure_certified
        for i in range(datum.n):
            want_thr = 1 + mod.marks[i]
            assert mod.nilpotency_threshold(i) == want_thr, (datum.name, i)
        report = mod.relation_matrix_report()
        bad = [rid for rid, ok in report.items() if not ok]
        assert not bad, (datum.name, lam, bad)
        relation_checks += len(report)
        dims.append(mod.dimension)
    _report(5, "highest-weight modules", True,
            f"dimensions {dims} all match the character oracle "
            "(rank-one ladder 2..6, both fundamental-type weights of "
            "dimension 3 and 5, the eight-dimensional weight (1,1)); "
            "every raising operator dies at exactly 1 + the coroot "
            f"pairing; {relation_checks} relation instances hold as exact "
            "matrix identities on every module")


# -- 6: root-of-unity degeneration ---------------------------------------------------


def test_criterion_6_root_of_unity():
    ell = 5
    datum = CartanDatum.preset("A1")
    params = ParamMatrix.root_of_unity(datum, ell)
    real = Realization(datum, params)
    alg = real.alg
    assert alg.power(real.e_elt(0), ell).is_zero
    assert real.power_closed_e(0, ell).is_zero
    assert alg.power(real.f_elt(0), ell).is_zero
    assert real.power_closed_f(0, ell).is_zero
    # one step below the order both powers must survive
    assert not alg.power(real.e_elt(0), ell - 1).is_zero
    assert not alg.power(real.f_elt(0), ell - 1).is_zero
    assert alg.group.moduli == (ell, ell)
    assert alg.group.order() == ell ** 2
    dims = []
    for m in (1, 2, 3):
        lam = LatticeVector((Fraction(m, 2),))
        assert alcove_check(datum, lam, ell)
        mod = root_of_unity_module(datum, lam, ell)
        assert mod.dimension == m + 1, (m, mod.dimension)
        bad = [rid for rid, ok in mod.relation_matrix_report().items()
               if not ok]
        assert not bad, (m, bad)
        dims.append(mod.dimension)
    flagged = LatticeVector((Fraction(4, 2),))
    assert not alcove_check(datum, flagged, ell)
    try:
        root_of_unity_module(datum, flagged, ell)
        raised = False
    except ValueError as ex:
        raised = "alcove" in str(ex)
    _report(6, "root-of-unity degeneration", raised,
            f"generator powers vanish at exponent {ell} exactly (and "
            f"survive at {ell - 1}) over the cyclotomic field; grading "
            f"group finite of order {ell}**2 = {ell ** 2}; alcove modules "
            f"have dimensions {dims}; the first weight past the alcove is "
            "refused")


# -- 7: cocycle twist -----------------------------------------------------------------


def test_criterion_7_cocycle_twist():
    q = Scalar.variable(("q",))
    stats = []
    for preset in ("A2", "B2"):
        datum = CartanDatum.preset(preset)
        ctx = build_twist(datum, "one-parameter")
        for i in range(datum.n):
            for j in range(datum.n):
                assert ctx.qhat.entry(i, j) == \
                    q ** (datum.d[i] * datum.a[i][j]), (preset, i, j)
        g = ctx.alg.group
        for i in range(datum.n):
            assert ctx.sigma(g.basis(("K", i)),
                             g.basis(("Kp", i))) == ctx.alg.one, (preset, i)
        reducer = IdealReducer(ctx.real)
        report = {rid: relation_verdict(reducer, rid,
                                        ctx.twisted_residuals(rid), 4)
                  for rid in ctx.real.relation_ids()}
        report[("alpha", -1, -1)] = ctx.contraction_verdict()
        for rid, (status, detail) in report.items():
            assert status == "pass", (preset, rid, detail)
            if rid[0] != "alpha":
                assert detail in ("zero", "zero-mod-J(4)"), (preset, rid)
        gens = []
        hat_gens = []
        for i in range(datum.n):
            gens.extend([ctx.real.e_elt(i), ctx.real.f_elt(i),
                         ctx.real.k_elt(i), ctx.real.kp_elt(i)])
            hat_gens.extend([ctx.hat_real.e_elt(i), ctx.hat_real.f_elt(i),
                             ctx.hat_real.k_elt(i), ctx.hat_real.kp_elt(i)])
        for x, hx in zip(gens, hat_gens):
            assert ctx.phi_map(x) == hx, preset
        pairs = 0
        for x in gens:
            for y in gens:
                lhs = ctx.phi_map(ctx.twisted_product(x, y))
                rhs = ctx.hat_alg.product(ctx.phi_map(x), ctx.phi_map(y))
                assert lhs == rhs, preset
                pairs += 1
        stats.append(f"{preset}: {len(report)} twisted relations, "
                     f"{pairs} intertwined generator products")
    _report(7, "cocycle twist", True,
            "target constants equal q**(d_i a_ij); the cocycle pairs the "
            "torus halves trivially; twisted relations vanish (commutators "
            "mod the contraction ideal at bound 4) and the comparison map "
            "intertwines twisted and target products -- "
            + "; ".join(stats))


# -- 8: exact scalar arithmetic -------------------------------------------------------


def _random_scalar(rng, vars_, *, monomials=2, spread=3):
    out = Scalar.from_int(0)
    for _ in range(rng.randint(1, monomials)):
        term = Scalar.from_int(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for v in vars_:
            term = term * Scalar.variable(v) ** rng.randint(-spread, spread)
        out = out + term
    return out


def test_criterion_8_exact_scalars():
    q = Scalar.variable(("q",))
    binom_checks = 0
    for n in range(1, 13):
        for k in range(0, n + 1):
            b = q_binomial(n, k, q)
            # both Pascal recurrences, the reflection symmetry, and the
            # counting specialization
            if 0 < k < n:
                assert b == q_binomial(n - 1, k - 1, q) \
                    + q ** k * q_binomial(n - 1, k, q)
                assert b == q ** (n - k) * q_binomial(n - 1, k - 1, q) \
                    + q_binomial(n - 1, k, q)
            assert b == q_binomial(n, n - k, q)
            assert specialize(b, {("q",): Fraction(1)}) == comb(n, k)
            binom_checks += 1

    rng = random.Random(SEED)
    vars_ = [("a",), ("b",)]
    cases = 0
    specialized = 0
    for _ in range(1000):
        x = _random_scalar(rng, vars_)
        y = _random_scalar(rng, vars_)
        z = _random_scalar(rng, vars_)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == Scalar.from_int(0)
        assert x + Scalar.from_int(0) == x
        assert x * Scalar.from_int(1) == x
        if not y.is_zero:
            assert (x / y) * y == x
            assert y * y ** -1 == Scalar.from_int(1)
        cases += 1
        if cases % 5 == 0:
            assignment = {v: Fraction(rng.randint(1, 7),
                                      rng.randint(1, 7)) for v in vars_}
            sx = specialize(x, assignment)
            sy = specialize(y, assignment)
            assert specialize(x + y, assignment) == sx + sy
            assert specialize(x * y, assignment) == sx * sy
            if not y.is_zero and sy != 0:
                assert specialize(x / y, assignment) == sx / sy
            specialized += 1
    _report(8, "exact scalar arithmetic", cases >= 1000,
            f"Gaussian binomials n <= 12 ({binom_checks} instances) "
            "satisfy both Pascal recurrences, reflection symmetry, and "
            f"count subsets at q = 1; {cases} seeded random field-axiom "
            f"cases over two-variable rational functions; {specialized} "
            "specialization-homomorphism cases (+, *, /)")
