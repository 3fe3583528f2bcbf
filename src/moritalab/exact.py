"""Exact linear algebra over the integers.

Everything in this module is exact and deterministic.  Matrices carry
arbitrary-precision Python integers, Smith normal form uses a fixed
pivoting rule (smallest absolute value, ties broken by lowest (row, col)),
and group presentations derived from it are therefore reproducible across
runs.  Downstream code leans on that: quotient presentations, solution
lattices and hom bases all come out of the functions here.

Conventions:

* relations are stored as matrix *columns* — ``cokernel(A, moduli)``
  presents ``Z^n / (col_span(A) + diag(moduli) Z^n)``;
* finite abelian groups are kept in invariant-factor form
  ``d_1 | d_2 | ... | d_k`` with every ``d_i >= 2`` (factors equal to 1
  are dropped, so the trivial group has an empty factor list);
* elements of such a group are integer vectors read modulo the factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Iterator, Sequence

from .errors import InfiniteQuotient, NoSolution


class IntegerMatrix:
    """Dense matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]], rows: int | None = None,
                 cols: int | None = None):
        mat = [list(map(int, row)) for row in data]
        if rows is None:
            rows = len(mat)
        if cols is None:
            cols = len(mat[0]) if mat else 0
        self.rows = rows
        self.cols = cols
        self.data = mat
        if len(mat) != rows or any(len(r) != cols for r in mat):
            raise ValueError("inconsistent matrix shape")

    @classmethod
    def adopt(cls, data: list[list[int]], rows: int, cols: int) -> "IntegerMatrix":
        """Take freshly built, unshared int rows as they are: no copy or shape check."""
        M = cls.__new__(cls)
        M.rows, M.cols, M.data = rows, cols, data
        return M

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls.adopt([[1 if i == j else 0 for j in range(n)] for i in range(n)], n, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls.adopt([[0] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int | None = None) -> "IntegerMatrix":
        cols = list(columns)
        if rows is None:
            rows = len(cols[0]) if cols else 0
        return cls.adopt([[int(c[i]) for c in cols] for i in range(rows)], rows, len(cols))

    def column(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> list[list[int]]:
        return [self.column(j) for j in range(self.cols)]

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        support = [(j, v) for j, v in enumerate(vec) if v]
        return [sum(row[j] * v for j, v in support) for row in self.data]

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        od = other.data
        out = []
        for row in self.data:
            acc = [0] * other.cols
            for k, a in enumerate(row):
                if a:
                    ok = od[k]
                    for j in range(other.cols):
                        acc[j] += a * ok[j]
            out.append(acc)
        return IntegerMatrix.adopt(out, self.rows, other.cols)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntegerMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):  # pragma: no cover - mutable, do not hash
        raise TypeError("IntegerMatrix is unhashable")

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.data!r})"


def kron(A: IntegerMatrix, B: IntegerMatrix) -> IntegerMatrix:
    """Kronecker product: entry (i * B.rows + k, j * B.cols + l) is A[i][j] * B[k][l]."""
    data = []
    for arow in A.data:
        for brow in B.data:
            data.append([a * b for a in arow for b in brow])
    return IntegerMatrix.adopt(data, A.rows * B.rows, A.cols * B.cols)


def direct_sum(A: IntegerMatrix, B: IntegerMatrix) -> IntegerMatrix:
    """Block-diagonal matrix with A above left and B below right."""
    data = [row + [0] * B.cols for row in A.data] + [[0] * A.cols + row for row in B.data]
    return IntegerMatrix.adopt(data, A.rows + B.rows, A.cols + B.cols)


def determinant(A: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    M = [row[:] for row in A.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


@dataclass
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D in Smith normal form."""

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix
    U_inv: IntegerMatrix

    def diagonal(self) -> list[int]:
        k = min(self.D.rows, self.D.cols)
        return [self.D.data[i][i] for i in range(k)]

    def solve(self, target: Sequence[int]) -> list[int] | None:
        """One integer solution x of ``A x = target`` exactly, or None.

        With A = U^-1 D V^-1 this is x = V w for D w = U target, so every
        right-hand side reuses the same factorization.
        """
        diag = self.diagonal()
        c = self.U.apply(list(target))
        w = [0] * self.V.rows
        for i, ci in enumerate(c):
            d = diag[i] if i < len(diag) else 0
            if d:
                q, r = divmod(ci, d)
                if r:
                    return None
                w[i] = q
            elif ci:
                return None
        return self.V.apply(w)


def smith_normal_form(A: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with tracked transforms and the inverse of U.

    The diagonal of D is nonnegative and satisfies d_1 | d_2 | ... with
    zeros last.  Pivot choice is the smallest nonzero absolute value in
    the trailing submatrix, ties broken by the lowest (row, col), which
    makes the output deterministic.  A matrix already in Smith form is
    returned with U = V = I.
    """
    m, n = A.rows, A.cols
    D = [row[:] for row in A.data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Uinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_sub(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j; inverse transform gains column_j += q * column_i
        if not q:
            return
        Di, Dj = D[i], D[j]
        for c in range(n):
            Di[c] -= q * Dj[c]
        Ui, Uj = U[i], U[j]
        for c in range(m):
            Ui[c] -= q * Uj[c]
        for r in range(m):
            Uinv[r][j] += q * Uinv[r][i]

    def col_sub(j: int, i: int, q: int) -> None:
        # col_j -= q * col_i
        if not q:
            return
        for r in range(m):
            D[r][j] -= q * D[r][i]
        for r in range(n):
            V[r][j] -= q * V[r][i]

    def row_swap(i: int, j: int) -> None:
        if i == j:
            return
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for r in range(m):
            Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def col_swap(i: int, j: int) -> None:
        if i == j:
            return
        for r in range(m):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def row_negate(i: int) -> None:
        D[i] = [-v for v in D[i]]
        U[i] = [-v for v in U[i]]
        for r in range(m):
            Uinv[r][i] = -Uinv[r][i]

    t = 0
    bound = min(m, n)
    while t < bound:
        best = None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                v = row[j]
                if v:
                    a = -v if v < 0 else v
                    if best is None or a < best[0]:
                        best = (a, i, j)
                        if a == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        row_swap(t, best[1])
        col_swap(t, best[2])
        if D[t][t] < 0:
            row_negate(t)

        while True:
            restarted = False
            for i in range(t + 1, m):
                v = D[i][t]
                if v:
                    row_sub(i, t, v // D[t][t])
                    if D[i][t]:
                        row_swap(t, i)  # remainder is a strictly smaller pivot
                        restarted = True
                        break
            if restarted:
                continue
            for j in range(t + 1, n):
                v = D[t][j]
                if v:
                    col_sub(j, t, v // D[t][t])
                    if D[t][j]:
                        col_swap(t, j)
                        restarted = True
                        break
            if restarted:
                continue
            p = D[t][t]
            offender = None
            if p != 1:
                for i in range(t + 1, m):
                    row = D[i]
                    for j in range(t + 1, n):
                        if row[j] % p:
                            offender = i
                            break
                    if offender is not None:
                        break
            if offender is None:
                break
            row_sub(t, offender, -1)  # fold the offending row in, shrink the pivot gcd
        t += 1

    return SmithDecomposition(
        IntegerMatrix.adopt(U, m, m), IntegerMatrix.adopt(D, m, n),
        IntegerMatrix.adopt(V, n, n), IntegerMatrix.adopt(Uinv, m, m))


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group in invariant-factor form d_1 | d_2 | ... | d_k.

    Elements are integer vectors of length ``rank``; coordinate i is read
    modulo ``invariant_factors[i]``.  The trivial group has rank 0.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        if any(d < 2 for d in fs):
            raise ValueError("invariant factors must be >= 2")
        if any(b % a for a, b in zip(fs, fs[1:])):
            raise ValueError("invariant factors must form a divisibility chain")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.rank:
            raise ValueError("element length mismatch")
        return tuple(int(v) % d for v, d in zip(vec, self.invariant_factors))

    def reduce_columns(self, M: IntegerMatrix) -> IntegerMatrix:
        """M with every column reduced to an element of this group."""
        if M.rows != self.rank:
            raise ValueError("element length mismatch")
        return IntegerMatrix.adopt([[v % d for v in row]
                                    for row, d in zip(M.data, self.invariant_factors)],
                                   M.rows, M.cols)

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return self.reduce([x + y for x, y in zip(a, b)])

    def neg(self, a: Sequence[int]) -> tuple[int, ...]:
        return self.reduce([-x for x in a])

    def scale(self, k: int, a: Sequence[int]) -> tuple[int, ...]:
        return self.reduce([k * x for x in a])

    def element_order(self, a: Sequence[int]) -> int:
        v = self.reduce(a)
        return lcm(*[d // gcd(d, x) for d, x in zip(self.invariant_factors, v)]) if v else 1

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All elements in mixed-radix order (deterministic)."""
        if self.rank == 0:
            yield ()
            return
        vec = [0] * self.rank
        fs = self.invariant_factors
        while True:
            yield tuple(vec)
            i = self.rank - 1
            while i >= 0:
                vec[i] += 1
                if vec[i] < fs[i]:
                    break
                vec[i] = 0
                i -= 1
            if i < 0:
                return


@dataclass
class CokernelProjection:
    """Surjection from ambient integer vectors onto a quotient presentation.

    ``apply`` sends an ambient vector to quotient coordinates; ``section``
    returns a preimage of the given quotient generator.  The kernel of
    ``apply`` is exactly the relation lattice the quotient was built from;
    ``relations`` holds a basis of it, one column per ambient direction.
    """

    group: FiniteAbelianGroup
    matrix: IntegerMatrix          # rank x ambient
    section_matrix: IntegerMatrix  # ambient x rank
    relations: IntegerMatrix       # ambient x ambient, basis of the kernel

    @property
    def ambient_dim(self) -> int:
        return self.matrix.cols

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return self.group.reduce(self.matrix.apply(vec))

    def section(self, index: int) -> list[int]:
        return self.section_matrix.column(index)

    def transport(self, K: IntegerMatrix,
                  section: IntegerMatrix | None = None) -> IntegerMatrix:
        """Matrix of ``apply . K`` on the columns of a section.

        K is an integer matrix on the ambient group; the section defaults
        to this quotient's own, so an ambient map that preserves the
        relations becomes a map of the quotient.
        """
        if section is None:
            section = self.section_matrix
        return self.group.reduce_columns(self.matrix @ (K @ section))


def _scaled_columns(M: IntegerMatrix, scales: Sequence[int]) -> IntegerMatrix:
    """The columns scales[i] * M[:, i] for every nonzero scale, in order."""
    cols = [[d * v for v in M.column(i)] for i, d in enumerate(scales) if d]
    return IntegerMatrix.from_columns(cols, M.rows)


def _with_moduli(A: IntegerMatrix, moduli: Sequence[int]) -> IntegerMatrix:
    """[A | diag(moduli)]: A's columns followed by one modulus relation per row."""
    n = A.rows
    return IntegerMatrix.adopt([row + [moduli[i] if j == i else 0 for j in range(n)]
                                for i, row in enumerate(A.data)], n, A.cols + n)


def cokernel(A: IntegerMatrix, moduli: Sequence[int]) -> tuple[FiniteAbelianGroup, CokernelProjection]:
    """Present ``Z^n / (col_span(A) + diag(moduli) Z^n)`` canonically.

    ``moduli`` has length n; zero entries are free directions.  Raises
    InfiniteQuotient when the quotient is not finite.
    """
    n = A.rows
    if len(moduli) != n:
        raise ValueError("moduli length must match the ambient dimension")
    dec = smith_normal_form(_with_moduli(A, moduli))
    diag = dec.diagonal()
    diag = diag + [0] * (n - len(diag))
    if any(d == 0 for d in diag):
        raise InfiniteQuotient("quotient has a free direction")
    surviving = [i for i, d in enumerate(diag) if d > 1]
    group = FiniteAbelianGroup(tuple(diag[i] for i in surviving))
    proj_rows = [dec.U.data[i][:] for i in surviving]
    section_cols = [dec.U_inv.column(i) for i in surviving]
    proj = CokernelProjection(group, IntegerMatrix.adopt(proj_rows, len(surviving), n),
                              IntegerMatrix.from_columns(section_cols, n),
                              _scaled_columns(dec.U_inv, diag))
    return group, proj


@dataclass
class CongruenceSolution:
    """Coset description of all solutions: ``particular + col_span(kernel)``."""

    particular: list[int]
    kernel: IntegerMatrix  # columns generate the homogeneous solution lattice


def solve_congruences(A: IntegerMatrix, moduli: Sequence[int],
                      b: Sequence[int]) -> CongruenceSolution:
    """Solve ``A x = b (mod moduli)`` row-wise over the integers.

    Row i is the congruence ``sum_j A[i][j] x_j = b_i (mod moduli[i])``;
    a zero modulus means equality over Z.  Raises NoSolution when the
    system is inconsistent.
    """
    n, m = A.rows, A.cols
    if len(moduli) != n or len(b) != n:
        raise ValueError("system shape mismatch")
    dec = smith_normal_form(_with_moduli(A, moduli))
    z = dec.solve(b)
    if z is None:
        raise NoSolution("no integer solution")
    diag = dec.diagonal()
    kernel_cols = []
    for j in range(m + n):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            col = dec.V.column(j)[:m]
            if any(col):
                kernel_cols.append(col)
    kernel = lattice_column_basis(IntegerMatrix.from_columns(kernel_cols, m))
    return CongruenceSolution(z[:m], kernel)


def invert_group_map(T: IntegerMatrix, source: FiniteAbelianGroup,
                     target: FiniteAbelianGroup) -> IntegerMatrix:
    """Inverse of a bijective map given by its coordinate matrix.

    T sends source coordinates to target coordinates.  Column i of the
    result is a reduced preimage of the i-th target generator.  Raises
    NoSolution when T is not onto and ValueError when it is not one-to-one.
    """
    tfs = list(target.invariant_factors)
    cols = []
    for i in range(target.rank):
        e = [1 if j == i else 0 for j in range(target.rank)]
        cols.append(list(source.reduce(solve_congruences(T, tfs, e).particular)))
    inv = IntegerMatrix.from_columns(cols, source.rank)
    back = inv @ T
    for i, (row, d) in enumerate(zip(back.data, source.invariant_factors)):
        if any((v - (1 if j == i else 0)) % d for j, v in enumerate(row)):
            raise ValueError("map is not injective")
    return inv


def lattice_basis(M: IntegerMatrix) -> tuple[IntegerMatrix, SmithDecomposition]:
    """A basis L (as columns) of the lattice spanned by M, with L's SNF.

    L's columns are d_i U^-1 e_i over the nonzero invariants d_i of M, so
    U L is already diagonal: the returned decomposition of L reuses M's
    U and needs no second factorization.
    """
    dec = smith_normal_form(M)
    diag = [d for d in dec.diagonal() if d]
    L = _scaled_columns(dec.U_inv, diag)
    r = L.cols
    D = IntegerMatrix.adopt([[diag[i] if i == j else 0 for j in range(r)]
                             for i in range(M.rows)], M.rows, r)
    return L, SmithDecomposition(dec.U, D, IntegerMatrix.identity(r), dec.U_inv)


def lattice_column_basis(M: IntegerMatrix) -> IntegerMatrix:
    """A basis (as columns) of the lattice spanned by the columns of M."""
    return lattice_basis(M)[0]


def solve_integer(M: IntegerMatrix, target: Sequence[int]) -> list[int] | None:
    """One integer solution of ``M y = target`` exactly, or None."""
    return smith_normal_form(M).solve(target)
