import random
from fractions import Fraction

import pytest

from mpqg.linalg import Matrix
from mpqg.scalars import Scalar


def F(n, d=1):
    return Fraction(n, d)


def test_rank_and_det_fractions():
    m = Matrix([[F(1), F(2)], [F(2), F(4)]])
    assert m.rank() == 1
    assert m.det() == 0
    m2 = Matrix([[F(1), F(2)], [F(3), F(5)]])
    assert m2.det() == -1
    assert m2.rank() == 2


def test_ragged_rows_rejected():
    with pytest.raises(ValueError, match="ragged"):
        Matrix([[F(1), F(2)], [F(3)]])


def test_solve_and_kernel():
    m = Matrix([[F(1), F(1), F(0)], [F(0), F(1), F(1)]])
    x = m.solve([F(3), F(2)])
    assert m.mul_vec(x) == [F(3), F(2)]
    k = m.kernel_basis()
    assert len(k) == 1
    assert m.mul_vec(k[0]) == [0, 0]
    # inconsistent system
    m3 = Matrix([[F(1), F(1)], [F(2), F(2)]])
    assert m3.solve([F(1), F(3)]) is None


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def test_det_matches_cofactor_expansion_random():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        assert Matrix(rows).det() == _det_cofactor(rows)


def test_symbolic_entries():
    q = Scalar.variable(("q", 0, 0))
    m = Matrix([[q, q * q], [Scalar.from_int(1), q]])
    assert not m.det()  # q*q - q*q = 0
    m2 = Matrix([[q, 1 + q], [1 - q, q]])
    d = m2.det()
    assert d == q * q - (1 + q) * (1 - q)
    sol = m2.solve([q, q])
    assert sol is not None
    lhs = [m2.rows[0][0] * sol[0] + m2.rows[0][1] * sol[1],
           m2.rows[1][0] * sol[0] + m2.rows[1][1] * sol[1]]
    assert lhs[0] == q and lhs[1] == q


def test_kernel_back_substitution_symbolic():
    q = Scalar.variable(("q", 0, 0))
    m = Matrix([[q, q ** 2]])
    k = m.kernel_basis()
    assert len(k) == 1
    acc = m.rows[0][0] * k[0][0] + m.rows[0][1] * k[0][1]
    assert not acc
