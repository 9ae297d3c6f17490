import random
from fractions import Fraction

import pytest

from mpqg.scalars import (
    LaurentPoly,
    Scalar,
    SpecializationError,
    _scalar_normalize,
    mono_cmp,
    mono_mul,
    mono_pow,
    q_binomial,
    q_factorial,
    q_int,
    specialize,
)
from mpqg.cyclotomic import zeta

Q11 = ("q", 0, 0)
Q12 = ("q", 0, 1)
V = ("q",)


def _poly(terms):
    """The Laurent polynomial with these terms, zero coefficients dropped."""
    return LaurentPoly({m: c for m, c in terms.items() if c})


def s_var(v, e=1):
    return Scalar.variable(v, e)


def test_monomial_order_lex_then_exponent():
    a = ((Q11, Fraction(2)),)
    b = ((Q11, Fraction(1)), (Q12, Fraction(5)),)
    # first variable Q11 decides: 2 > 1
    assert mono_cmp(a, b) > 0
    assert mono_cmp(b, a) < 0
    assert mono_cmp(a, a) == 0


def test_poly_basic_identities():
    q = LaurentPoly.variable(Q11)
    assert (q - q).is_zero
    assert (q * LaurentPoly.variable(Q11, -1)).is_one
    p = (q + 1) * (q - 1)
    assert p == q * q - 1


def test_exact_division_collapses_fraction():
    # (q11^2 - 1) / (q11 - 1) -> q11 + 1, verified by multiplying back
    q = s_var(Q11)
    ratio = (q * q - 1) / (q - 1)
    assert ratio.den.is_one
    assert ratio == q + 1
    assert ratio * (q - 1) == q * q - 1


def test_fraction_without_exact_division_kept_and_eq_by_cross_mult():
    q = s_var(Q11)
    r = s_var(Q12)
    a = (q + 1) / (r + 1)
    assert not a.den.is_one
    b = ((q + 1) * (q - 1)) / ((r + 1) * (q - 1))
    assert a == b  # different representations, same value


def test_denominator_normal_form_monic_content_cleared():
    q = s_var(Q11)
    a = q / (2 * q * q - 2 * q)  # den content: 2q, leading coeff after: 1
    assert str(a.den) == "q11 - 1"
    # q12 is missing from the second term, so only q11^2 is content
    r = s_var(Q12)
    b = q / (q * q * r + 2 * q ** 3)
    assert str(b.den) == "1/2*q12 + q11"
    assert str(b.num) == "1/2*q11^-1"
    p = LaurentPoly({((Q11, 2), (Q12, -1)): 1, ((Q11, 3),): 1})
    assert p.monomial_content() == ((Q11, 2), (Q12, -1))
    p = LaurentPoly({((Q11, 2), (Q12, 1)): 1, ((Q11, 3),): 1})
    assert p.monomial_content() == ((Q11, 2),)


@pytest.mark.parametrize("exp", [Fraction(1, 2), Fraction(2), True, 1.0])
def test_variable_takes_only_int_exponents(exp):
    with pytest.raises(TypeError):
        Scalar.variable(Q11, exp)
    with pytest.raises(TypeError):
        LaurentPoly.variable(Q11, exp)


def test_q_int_matches_quotient_form():
    q = s_var(Q11)
    for n in range(0, 8):
        assert q_int(n, q) * (q - 1) == q ** n - 1


def test_q_binomial_4_2_hand_expansion():
    # oracle: (v^2+1)(v^2+v+1) expanded by hand = v^4+v^3+2v^2+v+1
    v = s_var(V)
    expected = (v ** 2 + 1) * (v ** 2 + v + 1)
    assert expected == v ** 4 + v ** 3 + 2 * v ** 2 + v + 1
    assert q_binomial(4, 2, v) == expected


def test_q_binomial_pascal_recurrence_up_to_12():
    v = s_var(V)
    for n in range(1, 13):
        for k in range(0, n + 1):
            lhs = q_binomial(n, k, v)
            rhs = Scalar.from_int(0)
            if k > 0:
                rhs = rhs + q_binomial(n - 1, k - 1, v)
            if k < n:
                rhs = rhs + v ** k * q_binomial(n - 1, k, v)
            if 0 < k < n:
                assert lhs == rhs
            else:
                assert lhs == 1


@pytest.mark.parametrize("v", [s_var(V), s_var(V, 2), s_var(V, -3),
                               s_var(Q11, 3)], ids=["q", "q2", "q-3", "q11^3"])
def test_q_binomial_matches_factorial_quotient(v):
    # oracle: the factorial quotient, collapsed to a polynomial by exact
    # division; the recurrence must give the same canonical terms
    for n in range(7):
        for k in range(n + 1):
            want = q_factorial(n, v) / (q_factorial(k, v)
                                        * q_factorial(n - k, v))
            got = q_binomial(n, k, v)
            assert want.den.is_one and got.den.is_one
            assert got.num.terms == want.num.terms, (n, k)


def test_q_binomial_range_errors():
    v = s_var(V)
    with pytest.raises(ValueError):
        q_binomial(2, 3, v)
    with pytest.raises(ValueError):
        q_binomial(2, -1, v)


def test_specialize_numeric():
    q = s_var(Q11)
    val = specialize(q_binomial(2, 1, q), {Q11: Fraction(2)})
    assert val == 3


def test_specialize_root_of_unity_kills_q_int_5():
    q = s_var(Q11)
    val = specialize(q_int(5, q), {Q11: zeta(5)})
    assert not val


def test_specialize_vanishing_denominator_reports_factor():
    q = s_var(Q11)
    bad = 1 / (q - 1)
    with pytest.raises(SpecializationError) as err:
        specialize(bad, {Q11: 1})
    assert "q11" in str(err.value)


@pytest.mark.parametrize("zero", [0, Fraction(0), zeta(5) * 0])
def test_specialize_zero_under_negative_exponent(zero):
    # q11^-1 + 1 has the denominator 1: the pole sits in a numerator term
    q = s_var(Q11)
    for s in (q ** -1 + 1, 1 / q, s_var(Q12) / (q * q)):
        with pytest.raises(SpecializationError) as err:
            specialize(s, {Q11: zero, Q12: 3})
        assert "q11" in str(err.value)
    # a zero under a positive exponent is a value like any other
    assert specialize(q * q + 1, {Q11: zero}) == 1


def _random_scalar(rng, nvars=2, max_terms=3):
    vars_ = [("q", 0, 0), ("q", 0, 1), ("q", 1, 1)][:nvars]
    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            mono = []
            for v in vars_:
                e = rng.randint(-2, 2)
                if e:
                    mono.append((v, e))
            c = Fraction(rng.randint(-4, 4))
            if c:
                terms[tuple(sorted(mono))] = terms.get(tuple(sorted(mono)), 0) + c
        return _poly(terms)

    num = rand_poly()
    den = rand_poly()
    while den.is_zero:
        den = rand_poly()
    return Scalar(num, den)


def test_field_axioms_randomized():
    rng = random.Random(20260819)
    checked = 0
    while checked < 1000:
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a and a * 1 == a
        assert a - a == 0
        if b:
            assert (a / b) * b == a
        checked += 1


def test_normalization_idempotent_randomized():
    rng = random.Random(7)
    for _ in range(200):
        a = _random_scalar(rng)
        b = Scalar(a.num, a.den)
        assert b.num == a.num and b.den == a.den


def test_eq_matches_cross_multiplication_randomized():
    # equal denominators compare numerators, others cross-multiply; the
    # pairs include equal values over different denominators (a fraction
    # left unreduced) and unequal values over one denominator
    rng = random.Random(20261019)

    def cross_equal(x, y):
        return x.num * y.den == y.num * x.den

    equal_apart = unequal_shared = 0
    for _ in range(300):
        a = _random_scalar(rng)
        h = _random_scalar(rng).num
        if h.is_zero:
            continue
        unreduced = Scalar(a.num * h, a.den * h)
        shifted = Scalar(a.num + _random_scalar(rng).num, a.den)
        for x, y in ((a, unreduced), (a, shifted), (unreduced, shifted),
                     (a, _random_scalar(rng)), (a, a.num)):
            y = Scalar.coerce(y)
            assert (x == y) == cross_equal(x, y)
            assert (y == x) == cross_equal(x, y)
        assert a == unreduced
        if a.den.terms != unreduced.den.terms:
            equal_apart += 1
        if a.den.terms == shifted.den.terms and not cross_equal(a, shifted):
            unequal_shared += 1
    assert equal_apart > 50 and unequal_shared > 50
    # equal values over different denominators with as many terms
    q, r = s_var(Q11), s_var(Q12)
    x = (q + 1) / (r * r + 1)
    y = ((q + 1) * (r * r - 1)) / (r ** 4 - 1)
    assert len(x.den.terms) == len(y.den.terms)
    assert x.den.terms != y.den.terms
    assert x == y and y == x and x != y + 1


def test_division_by_zero_scalar():
    q = s_var(Q11)
    with pytest.raises(ZeroDivisionError):
        q / (q - q)


def test_str_deterministic():
    q = s_var(Q11)
    r = s_var(Q12)
    a = (q ** 2 * r + 2 * q - 1) / (q - 1)
    assert str(a) == str((q ** 2 * r + 2 * q - 1) / (q - 1))


# ---------------------------------------------------------------------------
# the small-number kernel: exact types and a differential oracle

VARS3 = [Q11, Q12, ("q", 1, 1)]


def _rand_mono(rng):
    return tuple((v, rng.choice([-3, -2, -1, 1, 2, 3]))
                 for v in VARS3 if rng.random() < 0.5)


def _rand_poly(rng, max_terms=3, fraction_coeffs=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = _rand_mono(rng)
        c = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        if fraction_coeffs and rng.random() < 0.5:
            c = Fraction(c, rng.choice([2, 3, 5]))
        terms[m] = terms.get(m, 0) + c
    return _poly(terms)


def _is_exact(x):
    return type(x) is int or isinstance(x, Fraction)


def _assert_exact(x):
    polys = (x.num, x.den) if isinstance(x, Scalar) else (x,)
    for p in polys:
        for m, c in p.terms.items():
            assert _is_exact(c), f"coefficient {c!r} in {p}"
            for _, e in m:
                assert type(e) is int, f"exponent {e!r} in {p}"


def test_no_float_reaches_a_scalar():
    rng = random.Random(20261018)
    for case in range(150):
        kw = dict(fraction_coeffs=case % 2 == 1)
        p, q = _rand_poly(rng, **kw), _rand_poly(rng, **kw)
        for out in (p + q, p - q, p * q, p * 3, p * Fraction(2, 3), p ** 2,
                    -p, 1 - p):
            _assert_exact(out)
        _assert_exact((p * q).divide_exact(q))
        r = p.divide_exact(q)
        if r is not None:
            _assert_exact(r)
        # a one-term divisor with an int coefficient that does not divide
        (m, c), = _rand_poly(rng, max_terms=1).terms.items()
        _assert_exact(p.divide_exact(LaurentPoly({m: 3 * c})))
        _assert_exact(LaurentPoly({(): 3}).divide_exact(LaurentPoly({(): 2})))
        num, den = _scalar_normalize(p, q)
        _assert_exact(num)
        _assert_exact(den)
        a, b = Scalar(p, q), Scalar(q, p)
        for out in (a + b, a - b, a * b, a / b, a ** 2, a ** -2, a * 2,
                    Fraction(1, 3) / a):
            _assert_exact(out)
        values = {v: rng.choice([-3, -2, 2, 3, Fraction(1, 2), Fraction(-2, 3)])
                  for v in VARS3}
        try:
            val = specialize(a, values)
        except SpecializationError:
            continue
        assert isinstance(val, Fraction), repr(val)
    # int assignment values are lifted to Fractions, so a negative power and
    # the final quotient stay exact
    q = s_var(Q11)
    assert specialize((q * q + 1) / (q * q + q + 3), {Q11: 2}) == Fraction(5, 9)
    assert isinstance(specialize(q ** -1, {Q11: 2}), Fraction)
    assert isinstance(specialize(q ** 2, {Q11: 2}), Fraction)
    # a rational denominator under a root-of-unity numerator
    r, t = s_var(Q12), s_var(("q", 1, 1))
    val = specialize(q / (r + t), {Q11: zeta(5), Q12: 2, ("q", 1, 1): 3})
    assert all(type(c) is int or type(c) is Fraction and c.denominator > 1
               for c in val.coeffs)
    assert val * 5 == zeta(5, 1)


def _ref_mono_mul(a, b):
    exps = dict(a)
    for v, e in b:
        e2 = exps.get(v, 0) + e
        if e2:
            exps[v] = e2
        else:
            exps.pop(v, None)
    return tuple(sorted(exps.items()))


def _ref_product(p, q):
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = _ref_mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def test_monomial_product_matches_dict_and_sort_reference():
    rng = random.Random(11)
    for _ in range(400):
        a = _rand_mono(rng)
        b = _rand_mono(rng)
        # exponents that cancel, partly or entirely
        for other in (b, mono_pow(a, -1), mono_pow(a[:1], -1) + a[1:2], ()):
            other = tuple(sorted(dict(other).items()))
            m = mono_mul(a, other)
            assert m == _ref_mono_mul(a, other)
            assert m == mono_mul(other, a)
            assert all(e for _, e in m)
            assert [v for v, _ in m] == sorted({v for v, _ in m})
    assert mono_mul((), ()) == ()
    assert mono_mul(((Q11, 1),), ((Q11, -1),)) == ()


def test_polynomial_product_matches_reference():
    rng = random.Random(12)
    for _ in range(300):
        p = _rand_poly(rng, max_terms=rng.choice([1, 1, 4]), fraction_coeffs=True)
        q = _rand_poly(rng, max_terms=rng.choice([1, 1, 4]), fraction_coeffs=True)
        assert (p * q).terms == _ref_product(p, q)
        inv = LaurentPoly({mono_pow(m, -1): c for m, c in q.terms.items()})
        assert (p * inv).terms == _ref_product(p, inv)
        assert (p * LaurentPoly.const(1)).terms == p.terms


def _to_sympy(sympy, p, syms):
    total = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in m:
            term *= syms[v] ** e
        total += term
    return total


def test_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    syms = {v: sympy.Symbol(f"y{i}") for i, v in enumerate(VARS3)}
    gens = list(syms.values())
    rng = random.Random(13)
    exact = inexact = 0
    for case in range(60):
        p = _rand_poly(rng, fraction_coeffs=True)
        q = _rand_poly(rng, fraction_coeffs=True)
        sp, sq = _to_sympy(sympy, p, syms), _to_sympy(sympy, q, syms)
        assert sympy.expand(_to_sympy(sympy, p * q, syms) - sp * sq) == 0
        assert sympy.expand(_to_sympy(sympy, p + q, syms) - (sp + sq)) == 0
        assert sympy.expand(_to_sympy(sympy, p - q, syms) - (sp - sq)) == 0
        d = p * q if case % 2 else p
        got = d.divide_exact(q)
        n, den = sympy.fraction(sympy.cancel(_to_sympy(sympy, d, syms) / sq))
        # exact in the Laurent ring iff what is left below is a monomial
        if sympy.Poly(den, *gens).is_monomial:
            exact += 1
            assert got is not None
            assert sympy.expand(_to_sympy(sympy, got, syms) * den - n) == 0
        else:
            inexact += 1
            assert got is None
    assert exact and inexact
