"""Finite unital rings and the one exact law checker of the ring layer.

A ring is a finite abelian group together with a multiplication tensor
on its generators: ``mult[i][j]`` holds the coordinates of e_i * e_j.

Every ring and bimodule law is checked on generator matrices by
``broken_law``, which names the first law a family of integer matrices
breaks as an (anti-)representation of a ring: well shaped (one square
matrix per generator), well defined (each matrix is a group
endomorphism), additive in the ring argument, (anti-)multiplicative
against the ring's table, or unital.  Its two
companions are ``is_group_map`` (a matrix defines a homomorphism between
two invariant-factor groups) and ``intertwines`` (a matrix commutes with
two families of actions).  A ring states its laws through its
left-regular matrices L_i (column j is e_i * e_j): they represent the
table exactly when the product is well defined in both slots and
associative.  The zero ring is rejected: a presentation whose unit has
additive order below 2 raises UnitDegenerate.

The laws run as one stacked-array kernel.  A family of k matrices on a
carrier with invariant factors f_1 | ... | f_n becomes one (k, n, n)
array with row a reduced modulo f_a, and ring coefficients are read
modulo the exponent N = lcm(f).  Every law compares row a modulo f_a, so
this changes no verdict once "well defined" has passed: A[a][b] * f_b = 0
(mod f_a) means that moving row b of a factor by f_b moves row a of a
product by a multiple of f_a.  "Well defined", "additive" and "unital"
are single broadcasts; "multiplicative" checks row i of the table
against all j at once, in O(k n^2) memory.  Sums of w products of
reduced entries stay below w (N - 1)^2, so ``law_dtype`` picks int64 when
that is below 2^63 for w = max(n, k), and object (exact Python integers)
above it; both dtypes run the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Sequence

import numpy as np

from ..errors import UnitDegenerate
from ..exact import FiniteAbelianGroup, IntegerMatrix, cokernel, direct_sum

Vector = tuple[int, ...]


# ------------------------------------------------------- law checker

def combine_matrices(mats: Sequence[IntegerMatrix], coeffs: Sequence[int]) -> IntegerMatrix:
    """Integer linear combination sum_i coeffs[i] * mats[i]."""
    if not mats:
        return IntegerMatrix.zeros(0, 0)
    rows, cols = mats[0].rows, mats[0].cols
    acc = [[0] * cols for _ in range(rows)]
    for c, m in zip(map(int, coeffs), mats):
        if not c:
            continue
        for i in range(rows):
            mrow = m.data[i]
            arow = acc[i]
            for j in range(cols):
                arow[j] += c * mrow[j]
    return IntegerMatrix.adopt(acc, rows, cols)


def matrices_congruent(A: IntegerMatrix, B: IntegerMatrix,
                       row_moduli: Sequence[int]) -> bool:
    """Entry-wise congruence modulo the order of each target generator."""
    if A.rows != B.rows or A.cols != B.cols:
        return False
    for i in range(A.rows):
        d = row_moduli[i]
        ra, rb = A.data[i], B.data[i]
        for j in range(A.cols):
            if (ra[j] - rb[j]) % d:
                return False
    return True


def is_group_map(M: IntegerMatrix, src_factors: Sequence[int],
                 tgt_factors: Sequence[int]) -> bool:
    """M is a well-defined map of the groups: M[i][j] * s_j = 0 (mod t_i)."""
    if M.rows != len(tgt_factors) or M.cols != len(src_factors):
        return False
    return not any((v * s) % t for row, t in zip(M.data, tgt_factors)
                   for v, s in zip(row, src_factors))


def law_dtype(width: int, exponent: int) -> type:
    """int64 when width products of entries below exponent sum exactly, else object."""
    return np.int64 if width * (exponent - 1) ** 2 < 2 ** 63 else object


def _reduced_array(values, shape: tuple[int, ...], modulus, dtype: type) -> np.ndarray:
    """Nested integers reduced modulo modulus, then cast: exact at any size."""
    try:
        arr = np.array(values, dtype=dtype)
    except OverflowError:
        arr = np.array(values, dtype=object)
    return (arr.reshape(shape) % modulus).astype(dtype, copy=False)


def stack_actions(mats: Sequence[IntegerMatrix], f: np.ndarray, dtype: type) -> np.ndarray:
    """mats as one (k, n, n) array, row a reduced modulo the column f[a]."""
    return _reduced_array([M.data for M in mats], (len(mats), len(f), len(f)), f, dtype)


def reduced_stack(mats: Sequence[IntegerMatrix], factors: Sequence[int]) -> np.ndarray:
    """mats as one exact (k, n, n) array, row a reduced modulo factors[a]."""
    return stack_actions(mats, np.array(factors, dtype=object).reshape(-1, 1), object)


def kron_differences(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X[g] (x) 1 - 1 (x) Y[g] for every g, as one (k, a b, a b) array.

    X is (k, a, a) and Y is (k, b, b); row and column (i, j) sit at
    i * b + j, the pair index of ``kron``.
    """
    k, a, b = len(X), X.shape[1], Y.shape[1]
    D = np.zeros((k, a, b, a, b), dtype=object)
    # D[g, i, j, i', j'] = X[g, i, i'] [j = j'] - [i = i'] Y[g, j, j']
    D[:, :, np.arange(b), :, np.arange(b)] = X
    D[:, np.arange(a), :, np.arange(a), :] -= Y
    return D.reshape(k, a * b, a * b)


def _intertwined(X: np.ndarray, A: np.ndarray, B: np.ndarray, f: np.ndarray) -> bool:
    """X @ A[j] = B[j] @ X modulo the row moduli f, for every j at once."""
    return not ((X @ A - B @ X) % f).any()


def intertwines(M: IntegerMatrix, src_mats: Sequence[IntegerMatrix],
                tgt_mats: Sequence[IntegerMatrix], src_factors: Sequence[int],
                tgt_factors: Sequence[int]) -> bool:
    """M @ A = B @ M modulo the target orders, for each pair (A, B).

    M must be a group map (``is_group_map``) and the actions well defined,
    which makes reducing each row modulo its factor exact.
    """
    dtype = law_dtype(max(len(src_factors), len(tgt_factors)),
                      max(lcm(*src_factors), lcm(*tgt_factors)))
    s, t = (np.array(fs, dtype=dtype).reshape(-1, 1) for fs in (src_factors, tgt_factors))
    X = _reduced_array(M.data, (M.rows, M.cols), t, dtype)
    return _intertwined(X, stack_actions(src_mats, s, dtype),
                        stack_actions(tgt_mats, t, dtype), t)


def stacks_commute(L: np.ndarray, P: np.ndarray, factors: Sequence[int]) -> bool:
    """L[i] @ P[j] = P[j] @ L[i] for all pairs of reduced stacks, one i at a time."""
    f = np.array(factors, dtype=np.result_type(L, P)).reshape(-1, 1)
    return all(_intertwined(Li, P, P, f) for Li in L)


def checked_stack(mats: Sequence[IntegerMatrix], factors: Sequence[int],
                  ring: "FiniteRing", anti: bool = False
                  ) -> tuple[str | None, np.ndarray | None]:
    """``broken_law`` and the reduced stack it checked (None if ill-shaped)."""
    n, k = len(factors), ring.rank
    if len(mats) != k or any(M.rows != n or M.cols != n for M in mats):
        return "well shaped", None
    N = lcm(*factors)
    dtype = law_dtype(max(n, k), N)
    f = np.array(factors, dtype=dtype).reshape(n, 1)
    A = stack_actions(mats, f, dtype)
    if (A * (f.T % f) % f).any():  # A[l, a, b] * f_b (mod f_a)
        return "well defined", A
    orders = _reduced_array(ring.additive.invariant_factors, (k, 1, 1), N, dtype)
    if (orders * A % f).any():
        return "additive", A
    table = _reduced_array(ring.table, (k, k, k), N, dtype)
    flat = A.reshape(k, n * n)
    for i in range(k):
        product = A @ A[i] if anti else A[i] @ A
        if ((product - (table[i] @ flat).reshape(k, n, n)) % f).any():
            return ("anti-multiplicative" if anti else "multiplicative"), A
    unit = _reduced_array(ring.unit, (k,), N, dtype)
    if (((unit @ flat).reshape(n, n) - np.eye(n, dtype=np.int64)) % f).any():
        return "unital", A
    return None, A


def broken_law(mats: Sequence[IntegerMatrix], factors: Sequence[int],
               ring: "FiniteRing", anti: bool = False) -> str | None:
    """The first law mats break as an (anti-)representation of ring, or None.

    mats[l] acts for the l-th additive generator of ring on the group with
    invariant factors ``factors``.  The laws, in the order checked: "well
    shaped" (one square matrix per generator), "well defined" (each is a
    group endomorphism), "additive" (ord(e_l) * mats[l] = 0), then
    "multiplicative" (mats[i] @ mats[j] = sum_l mult[i][j][l] mats[l]), or
    "anti-multiplicative" with the product reversed when anti, and
    "unital" (sum_l unit[l] mats[l] = I).
    """
    return checked_stack(mats, factors, ring, anti)[0]


# what each law of the left-regular matrices means for the table
_TABLE_LAWS = {
    "well shaped": "multiplication tensor shape mismatch",
    "well defined": "product not well-defined in second slot",
    "additive": "product not well-defined in first slot",
    "multiplicative": "multiplication not associative",
    "unital": "unit law fails on a generator",
}


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
        law, L = checked_stack([IntegerMatrix.from_columns(row, k) for row in mult],
                               g.invariant_factors, self)
        if law in (None, "unital") and g.element_order(self.unit) < 2:
            raise UnitDegenerate("unit of additive order < 2 (zero ring)")
        if law is not None:
            raise ValueError(_TABLE_LAWS[law])
        # the left unit law passed in checked_stack; (L_i u)_a = [i == a] is the right one
        u, f = (np.array(v, dtype=L.dtype) for v in (self.unit, g.invariant_factors))
        if ((L @ u - np.eye(k, dtype=np.int64)) % f).any():
            raise ValueError("unit law fails on a generator")

    @cached_property
    def table(self) -> np.ndarray:
        """The read-only (k, k, k) array table[i, j] = e_i * e_j."""
        dtype = np.int64 if self.additive.exponent <= 2 ** 63 else object
        table = np.array(self.mult, dtype=dtype).reshape((self.rank,) * 3)
        table.flags.writeable = False
        return table

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

    @property
    def is_commutative(self) -> bool:
        return all(self.mult[i][j] == self.mult[j][i]
                   for i in range(self.rank) for j in range(i))

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
    # row i of the table is left multiplication by section i, transported
    mult = tuple(tuple(proj.transport(direct_sum(R.left_mult_matrix(a[:kR]),
                                                 S.left_mult_matrix(a[kR:]))).columns())
                 for a in proj.section_matrix.columns())
    unit = proj.apply(list(R.unit) + list(S.unit))
    name = f"({R.name} x {S.name})" if R.name and S.name else ""
    return FiniteRing(group, mult, unit, name=name)

