"""The abelian grading group, its characters, and bicharacters.

Generators are tagged tuples: ("K", i) and ("Kp", i) for the two torus
families.  Group elements are plain exponent tuples, reduced componentwise
by the per-generator modulus (0 means infinite order).  Characters and
bicharacters are stored by their values on generators and extended
(bi)multiplicatively.
"""

from __future__ import annotations

import math
from operator import add


def render_tag(tag) -> str:
    kind = tag[0]
    if kind == "K":
        return f"K{tag[1]}"
    if kind == "Kp":
        return f"K'{tag[1]}"
    return repr(tag)


class GradingGroup:
    """Finitely generated abelian group with per-generator moduli."""

    __slots__ = ("gens", "moduli", "free", "index", "identity")

    def __init__(self, gens, moduli=None):
        self.gens = tuple(gens)
        if moduli is None:
            moduli = (0,) * len(self.gens)
        self.moduli = tuple(int(m) for m in moduli)
        if len(self.moduli) != len(self.gens) or any(m < 0 for m in self.moduli):
            raise ValueError("need one nonnegative modulus per generator")
        # every modulus 0: exponent tuples are already reduced
        self.free = not any(self.moduli)
        self.index = {t: k for k, t in enumerate(self.gens)}
        if len(self.index) != len(self.gens):
            raise ValueError("duplicate generator tags")
        self.identity = (0,) * len(self.gens)

    def reduce(self, exps):
        if self.free:
            return tuple(exps)
        return tuple(
            e % m if m else e for e, m in zip(exps, self.moduli)
        )

    def basis(self, tag, e=1):
        k = self.index[tag]
        out = [0] * len(self.gens)
        out[k] = e
        return self.reduce(out)

    def element(self, pairs):
        """Element from an iterable of (tag, exponent) pairs."""
        out = [0] * len(self.gens)
        for tag, e in pairs:
            out[self.index[tag]] += e
        return self.reduce(out)

    def mul(self, a, b):
        if self.free:
            return tuple(map(add, a, b))
        return self.reduce(map(add, a, b))

    def inv(self, a):
        return self.reduce(tuple(-x for x in a))

    def order(self):
        """Group order, or None when infinite."""
        if any(m == 0 for m in self.moduli):
            return None
        return math.prod(self.moduli)

    def render(self, a) -> str:
        parts = []
        for tag, e in zip(self.gens, a):
            if not e:
                continue
            name = render_tag(tag)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def standard_group(n, *, moduli=None) -> GradingGroup:
    """The grading group on K_0..K_{n-1}, K'_0..K'_{n-1}.  ``moduli`` gives
    the common finite order of K_i and K'_i per index."""
    gens = [("K", i) for i in range(n)] + [("Kp", i) for i in range(n)]
    if moduli is None:
        mods = [0] * (2 * n)
    else:
        mods = list(moduli) + list(moduli)
        if len(moduli) != n:
            raise ValueError(f"need {n} moduli")
    return GradingGroup(gens, mods)


class Character:
    """Group character determined by invertible values on the generators."""

    __slots__ = ("group", "values", "_cache")

    def __init__(self, group, values):
        self.group = group
        if len(values) != len(group.gens):
            raise ValueError("need one value per generator")
        self.values = tuple(values)
        for v, m in zip(self.values, group.moduli):
            if m and v ** m != v ** 0:
                raise ValueError(
                    f"character value {v} is not an {m}-th root of unity"
                )
        self._cache = {}

    def __call__(self, g):
        got = self._cache.get(g)
        if got is None:
            out = None
            for v, e in zip(self.values, g):
                if e:
                    p = v ** e
                    out = p if out is None else out * p
            if out is None:
                out = self.values[0] ** 0
            got = self._cache[g] = out
        return got


class Bicharacter:
    """Map Gamma x Gamma -> field units, biexponential in the exponents."""

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        """values: {(tagA, tagB): field element}; omitted pairs mean 1."""
        self.group = group
        self.values = {}
        one = None
        for pair, v in values.items():
            if pair[0] not in group.index or pair[1] not in group.index:
                raise ValueError(f"unknown generator pair {pair}")
            one = v ** 0
            self.values[pair] = v
        for (ta, tb), v in self.values.items():
            for tag, other in ((ta, tb), (tb, ta)):
                m = group.moduli[group.index[tag]]
                if m and v ** m != one:
                    raise ValueError(
                        f"bicharacter value at ({ta},{tb}) incompatible with "
                        f"the order-{m} generator {tag}"
                    )

    def __call__(self, g, h):
        out = None
        for ta, e in zip(self.group.gens, g):
            if not e:
                continue
            for tb, f in zip(self.group.gens, h):
                if not f:
                    continue
                v = self.values.get((ta, tb))
                if v is None:
                    continue
                p = v ** (e * f)
                out = p if out is None else out * p
        if out is None:
            for v in self.values.values():
                return v ** 0
            return 1
        return out

    def inverse(self):
        return Bicharacter(
            self.group, {pair: v ** -1 for pair, v in self.values.items()}
        )


def build_bicharacter(group, q, qhat) -> Bicharacter:
    """Cocycle data carrying parameters q to qhat.

    Requires the deformation-compatibility conditions qhat_ii = q_ii and
    qhat_ij qhat_ji = q_ij q_ji; the chosen upper-triangular gauge is

        sigma(K_i, K_j)  = qhat_ij / q_ij   (i < j, else 1)
        sigma(K'_i,K'_j) = qhat_ij / q_ij   (i < j, else 1)
        sigma(K'_i, K_j) = qhat_ji^-1 q_ji  (all i, j)
        sigma(K_j, K'_i) = 1                (all i, j).

    It satisfies the antisymmetrized constraints for all pairs and
    sigma(K_i, K'_i) = 1.
    """
    n = q.datum.n
    if qhat.datum is not q.datum and qhat.datum.a != q.datum.a:
        raise ValueError("parameter matrices live on different Cartan data")
    violations = []
    for i in range(n):
        if qhat.entry(i, i) != q.entry(i, i):
            violations.append((i, i))
    for i in range(n):
        for j in range(i + 1, n):
            if qhat.entry(i, j) * qhat.entry(j, i) != q.entry(i, j) * q.entry(j, i):
                violations.append((i, j))
    if violations:
        raise ValueError(
            "deformation target violates the compatibility conditions at "
            + ", ".join(str(v) for v in violations)
        )
    values = {}
    for i in range(n):
        for j in range(n):
            if i < j:
                ratio = qhat.entry(i, j) / q.entry(i, j)
                values[(("K", i), ("K", j))] = ratio
                values[(("Kp", i), ("Kp", j))] = ratio
            values[(("Kp", i), ("K", j))] = qhat.entry(j, i) ** -1 * q.entry(j, i)
    return Bicharacter(group, values)
