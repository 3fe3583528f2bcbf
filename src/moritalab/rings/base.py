"""Finite unital rings presented by structure constants.

A ring is a finite abelian group together with a multiplication tensor
on its generators: ``mult[i][j]`` holds the coordinates of e_i * e_j.
Construction validates well-definedness, associativity on generator
triples (biadditivity extends this to everything), and the unit laws.
The zero ring is rejected: a presentation whose unit has additive order
below 2 raises UnitDegenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..errors import UnitDegenerate
from ..exact import FiniteAbelianGroup, IntegerMatrix, cokernel

Vector = tuple[int, ...]


@dataclass(frozen=True)
class FiniteRing:
    """Finite ring on an invariant-factor presentation of its additive group."""

    additive: FiniteAbelianGroup
    mult: tuple[tuple[Vector, ...], ...]
    unit: Vector
    name: str = field(default="", compare=False)

    def __post_init__(self):
        g = self.additive
        k = g.rank
        mult = tuple(tuple(g.reduce(v) for v in row) for row in self.mult)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "unit", g.reduce(self.unit))
        if len(mult) != k or any(len(row) != k for row in mult):
            raise ValueError("multiplication tensor shape mismatch")
        fs = g.invariant_factors
        for i in range(k):
            for j in range(k):
                # (d_i e_i) e_j = 0 and e_i (d_j e_j) = 0 must be respected
                if g.scale(fs[i], mult[i][j]) != g.zero():
                    raise ValueError("product not well-defined in first slot")
                if g.scale(fs[j], mult[i][j]) != g.zero():
                    raise ValueError("product not well-defined in second slot")
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    left = self.mul(mult[i][j], self._gen(l))
                    right = self.mul(self._gen(i), mult[j][l])
                    if left != right:
                        raise ValueError("multiplication not associative")
        if g.element_order(self.unit) < 2:
            raise UnitDegenerate("unit of additive order < 2 (zero ring)")
        for i in range(k):
            e = self._gen(i)
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                raise ValueError("unit law fails on a generator")

    def _gen(self, i: int) -> Vector:
        return tuple(1 if j == i else 0 for j in range(self.additive.rank))

    # ------------------------------------------------------ element ops

    @property
    def rank(self) -> int:
        return self.additive.rank

    @property
    def order(self) -> int:
        return self.additive.order

    @property
    def characteristic(self) -> int:
        return self.additive.element_order(self.unit)

    def zero(self) -> Vector:
        return self.additive.zero()

    def one(self) -> Vector:
        return self.unit

    def add(self, a: Sequence[int], b: Sequence[int]) -> Vector:
        return self.additive.add(a, b)

    def neg(self, a: Sequence[int]) -> Vector:
        return self.additive.neg(a)

    def mul(self, a: Sequence[int], b: Sequence[int]) -> Vector:
        g = self.additive
        acc = [0] * g.rank
        for i, x in enumerate(a):
            if not x:
                continue
            row = self.mult[i]
            for j, y in enumerate(b):
                if not y:
                    continue
                prod_ij = row[j]
                coeff = x * y
                for l in range(g.rank):
                    acc[l] += coeff * prod_ij[l]
        return g.reduce(acc)

    def left_mult_matrix(self, a: Sequence[int]) -> IntegerMatrix:
        """Matrix of x -> a*x on generator coordinates."""
        cols = [self.mul(a, self._gen(j)) for j in range(self.rank)]
        return IntegerMatrix.from_columns(cols, self.rank)

    def right_mult_matrix(self, a: Sequence[int]) -> IntegerMatrix:
        """Matrix of x -> x*a on generator coordinates."""
        cols = [self.mul(self._gen(j), a) for j in range(self.rank)]
        return IntegerMatrix.from_columns(cols, self.rank)

    def elements(self):
        return self.additive.elements()

    def __repr__(self) -> str:
        label = self.name or f"order {self.order}"
        return f"FiniteRing({label}, factors={self.additive.invariant_factors})"


# --------------------------------------------------------- constructors

def cyclic_ring(n: int) -> FiniteRing:
    """Z/n with its usual multiplication."""
    if n < 2:
        raise UnitDegenerate("Z/n needs n >= 2")
    g = FiniteAbelianGroup((n,))
    return FiniteRing(g, (((1,),),), (1,), name=f"Z/{n}")


def truncated_polynomial_ring(p: int, k: int) -> FiniteRing:
    """(Z/p)[x] / (x^k); generators 1, x, ..., x^(k-1)."""
    if p < 2 or k < 1:
        raise ValueError("need p >= 2 and k >= 1")
    g = FiniteAbelianGroup((p,) * k)
    mult = tuple(
        tuple(tuple(1 if l == i + j else 0 for l in range(k)) if i + j < k
              else (0,) * k for j in range(k))
        for i in range(k))
    unit = tuple(1 if l == 0 else 0 for l in range(k))
    return FiniteRing(g, mult, unit, name=f"Z/{p}[x]/(x^{k})")


def matrix_ring(R: FiniteRing, n: int) -> FiniteRing:
    """n x n matrices over R.

    Additive generators are indexed (l, i, j) with the ring-factor index
    l major so the invariant factors still form a divisibility chain.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    k = R.rank
    fs = R.additive.invariant_factors
    factors = tuple(fs[l] for l in range(k) for _ in range(n * n))
    g = FiniteAbelianGroup(factors)
    rank = k * n * n

    def idx(l: int, i: int, j: int) -> int:
        return l * n * n + i * n + j

    zero = (0,) * rank
    mult_rows = []
    for l in range(k):
        for i in range(n):
            for j in range(n):
                row = []
                for l2 in range(k):
                    prod_ll2 = R.mult[l][l2]
                    for i2 in range(n):
                        for j2 in range(n):
                            if j != i2:
                                row.append(zero)
                            else:
                                vec = [0] * rank
                                for m, c in enumerate(prod_ll2):
                                    if c:
                                        vec[idx(m, i, j2)] = c
                                row.append(tuple(vec))
                mult_rows.append(tuple(row))
    unit = [0] * rank
    for i in range(n):
        for m, c in enumerate(R.unit):
            unit[idx(m, i, i)] = c
    name = f"M_{n}({R.name})" if R.name else f"M_{n}"
    return FiniteRing(g, tuple(mult_rows), tuple(unit), name=name)


def opposite_ring(R: FiniteRing) -> FiniteRing:
    """Same group, multiplication reversed."""
    k = R.rank
    mult = tuple(tuple(R.mult[j][i] for j in range(k)) for i in range(k))
    name = R.name[:-3] if R.name.endswith("^op") else (R.name + "^op" if R.name else "")
    return FiniteRing(R.additive, mult, R.unit, name=name)


def direct_product_ring(R: FiniteRing, S: FiniteRing) -> FiniteRing:
    """R x S with componentwise operations, re-presented canonically.

    The concatenated factor list usually breaks the divisibility chain,
    so the additive group is renormalized through a cokernel presentation
    and the structure constants are transported along it.
    """
    combined = list(R.additive.invariant_factors) + list(S.additive.invariant_factors)
    n = len(combined)
    group, proj = cokernel(IntegerMatrix.zeros(n, 0), combined)
    kR = R.rank

    def old_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
        ra = R.mul(a[:kR], b[:kR])
        sa = S.mul(a[kR:], b[kR:])
        return list(ra) + list(sa)

    mult = tuple(
        tuple(proj.apply(old_mul(proj.section(i), proj.section(j)))
              for j in range(group.rank))
        for i in range(group.rank))
    unit = proj.apply(list(R.unit) + list(S.unit))
    name = f"({R.name} x {S.name})" if R.name and S.name else ""
    return FiniteRing(group, mult, unit, name=name)

