"""Finite unital rings and the one exact law checker of the ring layer.

A ring is a finite abelian group together with a multiplication tensor
on its generators: ``mult[i][j]`` holds the coordinates of e_i * e_j,
and ``table`` holds the same tensor as one exact (k, k, k) object array.
Products and the left and right multiplication matrices are
contractions of that array with an element's coordinates.  Like every
``IntegerMatrix``, the matrices here and the helpers below
(``matrices_congruent``, ``is_group_map``, ``reduced_stack``) work on
object-dtype arrays of Python ints, so they are exact at any size.

Every ring and bimodule law is checked on a stack of generator matrices
by ``broken_law``, which names the first law a (k, n, n) stack breaks as
an (anti-)representation of a ring: well shaped (one square matrix per
generator), well defined (each matrix is a group endomorphism), additive
in the ring argument, (anti-)multiplicative against the ring's table, or
unital.  Its two companions are ``is_group_map`` (a matrix defines a
homomorphism between two invariant-factor groups) and ``intertwines`` (a
matrix commutes with two stacks of actions).  A ring states its laws
through its left-regular stack L, L[i] the matrix of x -> e_i * x
(column j is e_i * e_j), which is ``table`` with its last two axes
swapped: it represents the table exactly when the product is well
defined in both slots and associative.  The zero ring is rejected: a
presentation whose unit has additive order below 2 raises UnitDegenerate.

The public ``FiniteRing`` constructor checks every law.  Endomorphism
rings (tables read off composites of maps) and the matrix, opposite and
direct product rings of checked rings are lawful by construction, so
``FiniteRing._lawful`` only reduces their table and unit, as one array.

A stack of k matrices on a carrier with invariant factors
f_1 | ... | f_n is read with row a reduced modulo f_a (``reduced_stack``,
exact), and ring coefficients modulo the exponent N = lcm(f).  Every law
compares row a modulo f_a, so this changes no verdict once "well
defined" has passed: A[a][b] * f_b = 0 (mod f_a) means that moving row b
of a factor by f_b moves row a of a product by a multiple of f_a.  "Well
defined", "additive" and "unital" are single broadcasts;
"multiplicative" checks row i of the table against all j at once, in
O(k n^2) memory.  Sums of w products of reduced entries stay below
w (N - 1)^2, so inside the kernel ``law_dtype`` picks int64 when that is
below 2^63 for w = max(n, k), and object (exact Python integers) above
it; both dtypes run the same code.  Entries are always reduced in object
dtype first and cast afterwards, so an unreduced entry past 2^63 never
meets an int64, and what the kernel hands back is the exact reduced
stack, whatever dtype it checked in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Iterator, Sequence

import numpy as np

from ..errors import UnitDegenerate
from ..exact import FiniteAbelianGroup, IntegerMatrix, as_int, cokernel, direct_sum, moduli_column

Vector = tuple[int, ...]


# ------------------------------------------------------- law checker

def matrices_congruent(A: IntegerMatrix, B: IntegerMatrix,
                       row_moduli: Sequence[int]) -> bool:
    """Entry-wise congruence modulo the order of each target generator."""
    return (A.array.shape == B.array.shape
            and not ((A.array - B.array) % moduli_column(row_moduli)).any())


def is_group_map(M: IntegerMatrix, src_factors: Sequence[int],
                 tgt_factors: Sequence[int]) -> bool:
    """M is a well-defined map of the groups: M[i][j] * s_j = 0 (mod t_i)."""
    if M.array.shape != (len(tgt_factors), len(src_factors)):
        return False
    s = np.array(src_factors, dtype=object)
    return not (M.array * s % moduli_column(tgt_factors)).any()


def law_dtype(width: int, exponent: int) -> type:
    """int64 when width products of entries below exponent sum exactly, else object."""
    return np.int64 if width * (exponent - 1) ** 2 < 2 ** 63 else object


def _reduced(values, modulus, dtype: type = object) -> np.ndarray:
    """Integers reduced modulo modulus in exact arithmetic, then cast to dtype."""
    return (np.asarray(values, dtype=object) % modulus).astype(dtype, copy=False)


def reduced_stack(stack: np.ndarray, factors: Sequence[int]) -> np.ndarray:
    """A (k, n, n) stack of integer matrices with row a reduced modulo factors[a], exact."""
    return _reduced(stack, moduli_column(factors))


def kron_difference_columns(X: np.ndarray, Y: np.ndarray) -> Iterator[tuple[int, dict[int, int]]]:
    """The columns of X[g] (x) 1 - 1 (x) Y[g] that hold an entry, g first, as dicts.

    X is (k, a, a) and Y is (k, b, b), both exact (object dtype); row and
    column (i, j) sit at i * b + j, the pair index of ``kron``.  Each
    column comes with its index g * a * b + i * b + j in the stacked
    columns.  Column (i', j') holds X[g, i, i'] at (i, j') and
    -Y[g, j, j'] at (i', j), so only the nonzeros of X and Y are read; a
    column they miss is skipped, and an entry that cancels stays as 0.
    """
    a, b = X.shape[1], Y.shape[1]
    for g, (Xg, Yg) in enumerate(zip(X.tolist(), Y.tolist())):
        x_cols = [[(i * b, v) for i, v in enumerate(c) if v] for c in zip(*Xg)]
        y_cols = [[(j, v) for j, v in enumerate(c) if v] for c in zip(*Yg)]
        for i_, xc in enumerate(x_cols):
            base = (g * a + i_) * b
            for j_, yc in enumerate(y_cols):
                if xc or yc:
                    col = {r + j_: v for r, v in xc}
                    for j, v in yc:
                        r = i_ * b + j
                        col[r] = col.get(r, 0) - v
                    yield base + j_, col


def _intertwined(X: np.ndarray, A: np.ndarray, B: np.ndarray, f: np.ndarray) -> bool:
    """X @ A[j] = B[j] @ X modulo the row moduli f, for every j at once."""
    return not ((X @ A - B @ X) % f).any()


def intertwines(M: IntegerMatrix, src_stack: np.ndarray, tgt_stack: np.ndarray,
                src_factors: Sequence[int], tgt_factors: Sequence[int]) -> bool:
    """M @ A[j] = B[j] @ M modulo the target orders, for every j.

    A = src_stack and B = tgt_stack are two families of actions as exact
    reduced stacks (``reduced_stack``, or a bimodule's ``left_action`` or
    ``right_action``), read at ``law_dtype``.  M must be a group map
    (``is_group_map``) and the actions well defined, which makes reducing
    each row modulo its factor exact.
    """
    dtype = law_dtype(max(len(src_factors), len(tgt_factors)),
                      max(lcm(*src_factors), lcm(*tgt_factors)))
    X = _reduced(M.array, moduli_column(tgt_factors), dtype)
    return _intertwined(X, src_stack.astype(dtype, copy=False),
                        tgt_stack.astype(dtype, copy=False),
                        np.array(tgt_factors, dtype=dtype).reshape(-1, 1))


def stacks_commute(L: np.ndarray, P: np.ndarray, factors: Sequence[int]) -> bool:
    """L[i] @ P[j] = P[j] @ L[i] for all pairs of reduced stacks, one i at a time."""
    dtype = law_dtype(len(factors), lcm(*factors))
    L, P = L.astype(dtype, copy=False), P.astype(dtype, copy=False)
    f = np.array(factors, dtype=dtype).reshape(-1, 1)
    return all(_intertwined(Li, P, P, f) for Li in L)


def checked_stack(stack: np.ndarray, factors: Sequence[int], ring: "FiniteRing",
                  anti: bool = False) -> tuple[str | None, np.ndarray | None]:
    """``broken_law`` and the exact reduced stack it checked (None if ill-shaped)."""
    n, k = len(factors), ring.rank
    if np.shape(stack) != (k, n, n):
        return "well shaped", None
    N = lcm(*factors)
    exact = reduced_stack(stack, factors)
    dtype = law_dtype(max(n, k), N)
    A = exact.astype(dtype, copy=False)
    f = np.array(factors, dtype=dtype).reshape(n, 1)
    if (A * (f.T % f) % f).any():  # A[l, a, b] * f_b (mod f_a)
        return "well defined", exact
    orders = _reduced(ring.additive.invariant_factors, N, dtype).reshape(k, 1, 1)
    if (orders * A % f).any():
        return "additive", exact
    table = ring.reduced_table(N, dtype)
    flat = A.reshape(k, n * n)
    for i in range(k):
        product = A @ A[i] if anti else A[i] @ A
        if ((product - (table[i] @ flat).reshape(k, n, n)) % f).any():
            return ("anti-multiplicative" if anti else "multiplicative"), exact
    unit = _reduced(ring.unit, N, dtype)
    if (((unit @ flat).reshape(n, n) - np.eye(n, dtype=np.int64)) % f).any():
        return "unital", exact
    return None, exact


def broken_law(stack: np.ndarray, factors: Sequence[int], ring: "FiniteRing",
               anti: bool = False) -> str | None:
    """The first law a stack breaks as an (anti-)representation of ring, or None.

    stack[l] acts for the l-th additive generator of ring on the group with
    invariant factors ``factors``.  The laws, in the order checked: "well
    shaped" (a (k, n, n) stack, one square matrix per generator), "well
    defined" (each is a group endomorphism), "additive"
    (ord(e_l) * stack[l] = 0), then "multiplicative"
    (stack[i] @ stack[j] = sum_l mult[i][j][l] stack[l]), or
    "anti-multiplicative" with the product reversed when anti, and
    "unital" (sum_l unit[l] stack[l] = I).
    """
    return checked_stack(stack, factors, ring, anti)[0]


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
        object.__setattr__(self, "mult", tuple(tuple(g.reduce(v) for v in row) for row in self.mult))
        object.__setattr__(self, "unit", g.reduce(self.unit))
        k = g.rank
        if len(self.mult) != k or any(len(row) != k for row in self.mult):
            raise ValueError(_TABLE_LAWS["well shaped"])
        # the left-regular matrices: column j of L_i is e_i * e_j = table[i, j]
        law, L = checked_stack(self.table.transpose(0, 2, 1), g.invariant_factors, self)
        if law in (None, "unital") and g.element_order(self.unit) < 2:
            raise UnitDegenerate("unit of additive order < 2 (zero ring)")
        if law is not None:
            raise ValueError(_TABLE_LAWS[law])
        # the left unit law passed in checked_stack; (L_i u)_a = [i == a] is the right one
        u, f = (np.array(v, dtype=object) for v in (self.unit, g.invariant_factors))
        if ((L @ u - np.eye(k, dtype=np.int64)) % f).any():
            raise ValueError("unit law fails on a generator")

    @classmethod
    def _lawful(cls, additive: FiniteAbelianGroup, mult: Sequence[Sequence[Sequence[int]]],
                unit: Sequence[int], name: str = "") -> "FiniteRing":
        """A ring associative and unital by construction: reduced as one array, not re-checked."""
        k = additive.rank
        f = np.array(additive.invariant_factors, dtype=object)
        table = np.array(mult, dtype=object).reshape(k, k, k) % f
        table.flags.writeable = False
        R = object.__new__(cls)
        vars(R).update(additive=additive, name=name, table=table,
                       mult=tuple(tuple(map(tuple, row)) for row in table.tolist()),
                       unit=tuple((np.array(unit, dtype=object) % f).tolist()))
        return R

    @cached_property
    def table(self) -> np.ndarray:
        """The read-only exact (k, k, k) array table[i, j] = e_i * e_j."""
        table = np.array(self.mult, dtype=object).reshape((self.rank,) * 3)
        table.flags.writeable = False
        return table

    def reduced_table(self, N: int, dtype: np.dtype) -> np.ndarray:
        """``table`` modulo N in dtype, built once per (N, dtype) the laws ask for."""
        cache = self.__dict__.setdefault("_reduced_tables", {})
        if (N, dtype) not in cache:
            cache[N, dtype] = _reduced(self.table, N, dtype)
        return cache[N, dtype]

    def _contract(self, a: Sequence[int], axes: tuple[int, int, int]) -> np.ndarray:
        """sum_i a_i table[...] with the table's axes permuted: a mult matrix."""
        return self.table.transpose(axes) @ np.array(self.additive.reduce(a), dtype=object)

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
        return bool((self.table == self.table.transpose(1, 0, 2)).all())

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
        return g.reduce(self._contract(a, (2, 1, 0)) @ np.array(g.reduce(b), dtype=object))

    def left_mult_matrix(self, a: Sequence[int]) -> IntegerMatrix:
        """Matrix of x -> a*x on generator coordinates: entry (l, j) is (a e_j)_l."""
        return self.additive.reduce_columns(IntegerMatrix.adopt(self._contract(a, (2, 1, 0))))

    def right_mult_matrix(self, a: Sequence[int]) -> IntegerMatrix:
        """Matrix of x -> x*a on generator coordinates: entry (l, j) is (e_j a)_l."""
        return self.additive.reduce_columns(IntegerMatrix.adopt(self._contract(a, (2, 0, 1))))

    def elements(self):
        return self.additive.elements()

    def __repr__(self) -> str:
        label = self.name or f"order {self.order}"
        return f"FiniteRing({label}, factors={self.additive.invariant_factors})"


# --------------------------------------------------------- constructors

def cyclic_ring(n: int) -> FiniteRing:
    """Z/n with its usual multiplication."""
    n = as_int(n)
    if n < 2:
        raise UnitDegenerate("Z/n needs n >= 2")
    g = FiniteAbelianGroup((n,))
    return FiniteRing(g, (((1,),),), (1,), name=f"Z/{n}")


def truncated_polynomial_ring(p: int, k: int) -> FiniteRing:
    """(Z/p)[x] / (x^k); generators 1, x, ..., x^(k-1)."""
    p, k = as_int(p), as_int(k)
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
    The product of r_l e_ij and r_l2 e_i2j2 is [j = i2] (r_l r_l2) e_ij2.
    """
    n = as_int(n)
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    fs = R.additive.invariant_factors
    g = FiniteAbelianGroup(tuple(f for f in fs for _ in range(n * n)))
    rank = R.rank * n * n
    I = np.identity(n, dtype=object)
    # axes (l, i, j) x (l2, i2, j2) -> (m, i3, j3) of the product table
    table = (R.table[:, None, None, :, None, None, :, None, None]
             * I[None, None, :, None, :, None, None, None, None]   # j = i2
             * I[None, :, None, None, None, None, None, :, None]   # i3 = i
             * I[None, None, None, None, None, :, None, None, :])  # j3 = j2
    unit = np.array(R.unit, dtype=object)[:, None, None] * I
    name = f"M_{n}({R.name})" if R.name else f"M_{n}"
    return FiniteRing._lawful(g, table.reshape(rank, rank, rank).tolist(),
                              unit.reshape(rank).tolist(), name=name)


def opposite_ring(R: FiniteRing) -> FiniteRing:
    """Same group, multiplication reversed."""
    mult = R.table.transpose(1, 0, 2).tolist()
    name = R.name[:-3] if R.name.endswith("^op") else (R.name + "^op" if R.name else "")
    return FiniteRing._lawful(R.additive, mult, R.unit, name=name)


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
    return FiniteRing._lawful(group, mult, unit, name=name)

