import random
from fractions import Fraction

import pytest

from mpqg.cartan import CartanDatum, ParamMatrix
from mpqg.cotensor import Word, word_key
from mpqg.linalg import Echelon, Matrix
from mpqg.scalars import Scalar


def F(n, d=1):
    return Fraction(n, d)


def _mul_vec(m, vec):
    out = []
    for row in m.rows:
        acc = None
        for a, b in zip(row, vec):
            t = a * b
            acc = t if acc is None else acc + t
        out.append(acc)
    return out


def test_rank_and_det_fractions():
    m = Matrix([[F(1), F(2)], [F(2), F(4)]])
    assert m.ncols - len(m.kernel_basis()) == 1
    assert m.det() == 0
    m2 = Matrix([[F(1), F(2)], [F(3), F(5)]])
    assert m2.det() == -1
    assert m2.kernel_basis() == []


def test_ragged_rows_rejected():
    with pytest.raises(ValueError, match="ragged"):
        Matrix([[F(1), F(2)], [F(3)]])


def test_solve_and_kernel():
    m = Matrix([[F(1), F(1), F(0)], [F(0), F(1), F(1)]])
    x = m.solve([F(3), F(2)])
    assert _mul_vec(m, x) == [F(3), F(2)]
    # the free variable (the last column) is zero
    assert x == [F(1), F(2), F(0)]
    k = m.kernel_basis()
    assert len(k) == 1
    assert _mul_vec(m, k[0]) == [0, 0]
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


def _fields():
    """Parameter tables over Fraction, symbolic Scalar and cyclotomic
    entries; their diagonal entry q makes nonconstant field elements."""
    a1 = CartanDatum.preset("A1")
    return [ParamMatrix.numeric(a1, {(0, 0): Fraction(5)}),
            ParamMatrix.symbolic(a1),
            ParamMatrix.root_of_unity(a1, 5)]


def _entry(pm, rng):
    if rng.random() < 0.2:
        return pm.zero
    q = pm.entry(0, 0)
    return (pm.coerce(rng.randint(-3, 3))
            + pm.coerce(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
            * q ** rng.randint(-1, 2))


def _random_rows(pm, rng, nrows, ncols, singular=False):
    rows = [[_entry(pm, rng) for _ in range(ncols)] for _ in range(nrows)]
    if singular and nrows > 1:
        # one row becomes a combination of the others
        k = rng.randrange(nrows)
        row = [pm.zero] * ncols
        for r, other in enumerate(rows):
            if r != k:
                c = _entry(pm, rng)
                row = [a + c * b for a, b in zip(row, other)]
        rows[k] = row
    return rows


def test_det_matches_cofactor_expansion_in_every_field():
    rng = random.Random(20261019)
    for pm in _fields():
        seen = set()
        for _ in range(12):
            n = rng.randint(1, 4)
            singular = rng.random() < 0.4
            rows = _random_rows(pm, rng, n, n, singular)
            det = Matrix(rows).det()
            assert det == _det_cofactor(rows)
            if singular and n > 1:
                assert not det
            seen.add(bool(det))
        assert seen == {True, False}


def test_solve_by_substitution_in_every_field():
    rng = random.Random(7)
    for pm in _fields():
        for _ in range(8):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            m = Matrix(_random_rows(pm, rng, nrows, ncols,
                                    singular=rng.random() < 0.5))
            rhs = _mul_vec(m, [_entry(pm, rng) for _ in range(ncols)])
            x = m.solve(rhs)
            assert x is not None and _mul_vec(m, x) == rhs
        # a zero row against a nonzero right-hand side is inconsistent
        m = Matrix(_random_rows(pm, rng, 2, 3) + [[pm.zero] * 3])
        assert m.solve([pm.one, pm.one, pm.one]) is None
        # so is a row that repeats another with a different right-hand side
        row = [_entry(pm, rng) or pm.one for _ in range(3)]
        assert Matrix([row, row]).solve([pm.one, pm.zero]) is None


def test_echelon_on_integer_column_keys():
    ech = Echelon(F(1))
    # the pivot is the least column; its value is reported unnormalised
    assert ech.add({2: F(3), 1: F(2)}) == (1, F(2))
    assert ech.rows == {1: {2: F(3, 2), 1: F(1)}}
    assert ech.add({1: F(4), 2: F(6)}) is None
    # reduced by row 1 first: the remainder is {0: 5, 3: 1, 2: -3/2}
    assert ech.add({0: F(5), 1: F(1), 3: F(1)}) == (0, F(5))
    assert ech.rows[0] == {0: F(1), 2: F(-3, 10), 3: F(1, 5)}
    # a pivot at column 2 clears column 2 from both older rows
    assert ech.add({2: F(-1)}) == (2, F(-1))
    assert list(ech.rows) == [1, 0, 2]
    assert ech.rows[1] == {1: F(1)}
    assert ech.rows[0] == {0: F(1), 3: F(1, 5)}
    assert ech.rows[2] == {2: F(1)}
    assert ech.reduce({0: F(5), 1: F(1), 3: F(2)}) == {3: F(1)}
    assert ech.reduce({1: F(7), 2: F(1)}) == {}
    assert len(ech) == 3


class _GaussJordan:
    """Oracle for `Echelon` over Q: Fraction rows scaled to 1 at the pivot
    and kept mutually reduced, written out without `add_into`."""

    def __init__(self, key):
        self.key = key
        self.rows = {}

    def reduce(self, vec):
        d = {k: v for k, v in vec.items() if v}
        for pw, row in self.rows.items():
            c = d.get(pw)
            if c:
                for k in set(d) | set(row):
                    d[k] = d.get(k, F(0)) - c * row.get(k, F(0))
                d = {k: v for k, v in d.items() if v}
        return d

    def add(self, vec):
        d = self.reduce(vec)
        if not d:
            return None
        pw = min(d, key=self.key)
        piv = d[pw]
        d = {k: v / piv for k, v in d.items()}
        for qw, row in self.rows.items():
            c = row.get(pw)
            if c:
                new = {k: row.get(k, F(0)) - c * d.get(k, F(0))
                       for k in set(row) | set(d)}
                self.rows[qw] = {k: v for k, v in new.items() if v}
        self.rows[pw] = d
        return pw, piv


def _sparse_fractions(rng, keys, count):
    """(vector, dependent) pairs: sparse Fraction vectors, about a third of
    them combinations of earlier ones (the empty combination included)."""
    out = []
    for _ in range(count):
        if out and rng.random() < 0.35:
            vec = {}
            for v, _dep in rng.sample(out, min(len(out), rng.randint(0, 3))):
                c = F(rng.randint(-5, 5), rng.randint(1, 6))
                for k, x in v.items():
                    vec[k] = vec.get(k, F(0)) + c * x
            out.append(({k: x for k, x in vec.items() if x}, True))
        else:
            out.append(({k: F(rng.choice([-1, 1]) * rng.randint(1, 40),
                              rng.choice([1, 1, 2, 3, 4, 7, 12, 60]))
                         for k in rng.sample(keys, rng.randint(1, 5))},
                        False))
    return out


def test_rational_echelon_matches_gauss_jordan_oracle():
    # every other vector lists its entries against the pivot order
    # (greatest key first): the rows, remainders and pivot values must
    # not depend on the order of a vector's entries
    rng = random.Random(20261019)
    letters = [("E", 0), ("E", 1), ("F", 0), ("F", 1), ("X", 0), ("V",)]
    words = sorted({Word(tuple(rng.choice(letters)
                               for _ in range(rng.randint(0, 3))),
                         (rng.randint(-1, 1), rng.randint(-1, 1)))
                    for _ in range(14)}, key=word_key)
    for keys, key in ((words, word_key), (list(range(12)), None)):

        def against_pivots(vec):
            return dict(sorted(vec.items(), key=lambda kv: kv[0]
                               if key is None else key(kv[0]), reverse=True))

        for _trial in range(6):
            ech, oracle = Echelon(F(1), key), _GaussJordan(key)
            vecs = _sparse_fractions(rng, keys, 16)
            for n, (vec, dependent) in enumerate(vecs):
                if n % 2:
                    vec = against_pivots(vec)
                got = ech.add(vec)
                assert got == oracle.add(vec)
                if dependent:
                    assert got is None
                assert list(ech.rows) == list(oracle.rows)
                assert ech.rows == oracle.rows
                assert all(type(v) is Fraction
                           for row in ech.rows.values() for v in row.values())
                for probe, _dep in _sparse_fractions(rng, keys, 3):
                    rem = ech.reduce(probe)
                    assert rem == oracle.reduce(probe)
                    assert ech.reduce(against_pivots(probe)) == rem
                    assert all(type(v) is Fraction for v in rem.values())
            assert len(ech) == len(oracle.rows)


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
