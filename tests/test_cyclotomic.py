import random
from fractions import Fraction

import pytest

from mpqg.cyclotomic import (
    CyclotomicElement,
    _reduced,
    cyclotomic_polynomial,
    reduction_table,
    zeta,
)


def test_cyclotomic_polynomials_small():
    assert list(cyclotomic_polynomial(1)) == [-1, 1]
    assert list(cyclotomic_polynomial(2)) == [1, 1]
    assert list(cyclotomic_polynomial(4)) == [1, 0, 1]
    assert list(cyclotomic_polynomial(5)) == [1, 1, 1, 1, 1]
    # Phi_10(x) = x^4 - x^3 + x^2 - x + 1
    assert list(cyclotomic_polynomial(10)) == [1, -1, 1, -1, 1]


def test_zeta_5_powers_sum_to_minus_one():
    z = zeta(5)
    total = z + z ** 2 + z ** 3 + z ** 4
    assert total == -1
    assert z ** 5 == 1


def test_inverse_and_division():
    z = zeta(5)
    x = z + 2
    assert x * x.inverse() == 1
    assert (1 / x) * x == 1
    y = z ** 3 - z
    assert (y / x) * x == y


def test_multiplicative_order():
    assert zeta(5).multiplicative_order() == 5
    assert zeta(10, 2).multiplicative_order() == 5
    assert zeta(10).multiplicative_order() == 10
    assert (zeta(5) * 0 + 1).multiplicative_order() == 1


def test_zero_division():
    z = zeta(5)
    with pytest.raises(ZeroDivisionError):
        (z - z).inverse()


def test_mixed_order_rejected():
    with pytest.raises(ValueError):
        zeta(5) + zeta(7)


def test_field_axioms_sampled():
    z = zeta(12)
    xs = [z, z ** 2 + 1, 3 - z ** 5, z ** 7 * Fraction(1, 2) + z]
    for a in xs:
        for b in xs:
            for c in xs:
                assert (a + b) * c == a * c + b * c
                assert a * b == b * a
            if b:
                assert (a / b) * b == a


# Differential tests against the Fraction long-division reduction that the
# table kernel replaced: products are reduced by dividing the full
# convolution by Phi_n.

ORDERS = (1, 2, 3, 4, 5, 6, 9, 12, 15, 20, 45)


def _ref_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _ref_trim(out)


def _ref_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = Fraction(1) / b[-1]
    while len(a) >= len(b) and _ref_trim(a):
        if len(a) < len(b):
            break
        c = a[-1] * inv
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] -= c * y
        _ref_trim(a)
    return _ref_trim(q), a


def _ref_phi(n):
    num = [Fraction(0)] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    for d in range(1, n):
        if n % d == 0:
            num, r = _ref_divmod(num, _ref_phi(d))
            assert not r
    return num


def _ref_reduce(c, n):
    phi = _ref_phi(n)
    _, r = _ref_divmod([Fraction(v) for v in c], phi)
    return r + [Fraction(0)] * (len(phi) - 1 - len(r))


def _ref_product(x, y):
    return _ref_reduce(_ref_mul(list(x.coeffs), list(y.coeffs)), x.order)


def _rand_coeff(rng):
    if rng.random() < 0.2:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return rng.randint(-3, 3)


def _rand_elements(rng, n, count=8):
    """Dense, sparse and one-term elements of Q(zeta_n)."""
    phi = len(cyclotomic_polynomial(n)) - 1
    out = []
    for case in range(count):
        if case % 3 == 0:
            c = [0] * phi
            c[rng.randrange(phi)] = _rand_coeff(rng) or 1
        elif case % 3 == 1:
            c = [_rand_coeff(rng) if rng.random() < 0.3 else 0 for _ in range(phi)]
        else:
            c = [_rand_coeff(rng) for _ in range(phi)]
        out.append(CyclotomicElement(n, c))
    out.append(zeta(n, rng.randrange(n)))
    return out


def _assert_exact(x):
    """Every coefficient is an int, or a Fraction that is not integral."""
    for c in x.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), \
            f"coefficient {c!r} of {x}"


@pytest.mark.parametrize("n", ORDERS)
def test_table_and_zeta_match_long_division(n):
    table = reduction_table(n)
    phi = len(cyclotomic_polynomial(n)) - 1
    assert list(cyclotomic_polynomial(n)) == _ref_phi(n)
    assert all(type(c) is int for c in cyclotomic_polynomial(n))
    assert len(table) == max(n, 2 * phi - 1)
    for k, row in enumerate(table):
        assert all(type(c) is int for c in row)
        assert list(row) == _ref_reduce([0] * k + [1], n), k
    for k in range(n):
        assert list(zeta(n, k).coeffs) == _ref_reduce([0] * k + [1], n), k


@pytest.mark.parametrize("n", ORDERS)
def test_arithmetic_matches_long_division(n):
    rng = random.Random(1000 + n)
    xs = _rand_elements(rng, n)
    for x in xs:
        for y in xs:
            assert list((x * y).coeffs) == _ref_product(x, y)
            assert list((x + y).coeffs) == [a + b for a, b in zip(x.coeffs, y.coeffs)]
            assert list((x - y).coeffs) == [a - b for a, b in zip(x.coeffs, y.coeffs)]
        for c in (0, 1, -2, 3, Fraction(2, 3), Fraction(-4, 2)):
            const = CyclotomicElement(n, [c])
            assert x * c == c * x
            assert list((x * c).coeffs) == _ref_product(x, const)
            assert list((x + c).coeffs) == list((c + x).coeffs) == \
                [a + b for a, b in zip(x.coeffs, const.coeffs)]
            assert list((x - c).coeffs) == [a - b for a, b in zip(x.coeffs, const.coeffs)]
            assert list((c - x).coeffs) == [b - a for a, b in zip(x.coeffs, const.coeffs)]
            assert (x == c) == (list(x.coeffs) == list(const.coeffs))
            if c:
                assert list((x / c).coeffs) == [a / Fraction(c) for a in x.coeffs]
        power = CyclotomicElement(n, [1])
        for k in range(5):
            assert list((x ** k).coeffs) == list(power.coeffs)
            power = CyclotomicElement(n, _ref_product(power, x))
        if x:
            inv = x.inverse()
            assert _ref_product(x, inv) == _ref_reduce([1], n)
            assert x * inv == 1
            assert (x ** -2) * (x * x) == 1
            assert list((3 / x).coeffs) == [3 * a for a in inv.coeffs]


def test_one_term_products_match_long_division():
    for n in ORDERS:
        phi = len(cyclotomic_polynomial(n)) - 1
        for i in range(phi):
            for j in range(phi):
                x = CyclotomicElement(n, [0] * i + [Fraction(3, 2)])
                y = CyclotomicElement(n, [0] * j + [-2])
                assert list((x * y).coeffs) == _ref_product(x, y)
        for i in range(n):
            for j in range(n):
                assert zeta(n, i) * zeta(n, j) == zeta(n, i + j)


def test_kernel_matches_sympy_cyclotomics():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in ORDERS:
        phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
        assert list(cyclotomic_polynomial(n)) == list(reversed(phi.all_coeffs()))
        for k, row in enumerate(reduction_table(n)):
            rem = sympy.Poly(x ** k, x).rem(phi)
            want = list(reversed(rem.all_coeffs())) if not rem.is_zero else []
            assert list(row) == want + [0] * (len(row) - len(want)), (n, k)


def test_no_float_reaches_a_cyclotomic():
    rng = random.Random(20261019)
    for n in (3, 5, 12, 20):
        xs = _rand_elements(rng, n, count=6)
        for x in xs:
            for y in xs:
                outs = [x * y, x + y, x - y, -x, x * 2, x * Fraction(1, 2),
                        2 * x, x + Fraction(1, 2), Fraction(3, 2) - x, x ** 3,
                        x / 4, x * Fraction(4, 2)]
                if y:
                    outs += [x / y, y.inverse(), y ** -1, 1 / y, Fraction(1, 3) / y]
                for out in outs:
                    _assert_exact(out)
    _assert_exact(CyclotomicElement(5, [Fraction(4, 2), Fraction(1, 3), 0, 7]))
    # a float or a bool is never stored
    with pytest.raises(TypeError):
        CyclotomicElement(5, [1, 0.5])
    one = CyclotomicElement(5, [True])
    assert one == 1 and type(one.coeffs[0]) is int
    z = zeta(5)
    for bad in (0.5, 1.5):
        with pytest.raises(TypeError):
            z * bad
        with pytest.raises(TypeError):
            z + bad
        with pytest.raises(TypeError):
            z - bad


def test_rtruediv_checks_operand_before_inverting():
    z = zeta(5)
    with pytest.raises(TypeError, match="unsupported operand"):
        "a" / (z - z)
    with pytest.raises(TypeError, match="unsupported operand"):
        1.5 / z
    with pytest.raises(ZeroDivisionError):
        1 / (z - z)


def test_int_and_fraction_coefficients_agree():
    ints = CyclotomicElement(5, [1, 2, 0, -3])
    fracs = CyclotomicElement(5, [Fraction(1), Fraction(4, 2), Fraction(0), Fraction(-3)])
    assert ints == fracs and hash(ints) == hash(fracs)
    assert ints.coeffs == fracs.coeffs
    # an unnormalized tuple of integral Fractions still compares and hashes equal
    raw = _reduced(5, tuple(Fraction(c) for c in ints.coeffs))
    assert raw == ints and hash(raw) == hash(ints)
    assert str(raw) == str(ints)
