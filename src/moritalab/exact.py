"""Exact linear algebra over the integers.

Everything in this module is exact and deterministic.  The ring side has
one storage: an ``IntegerMatrix`` wraps one object-dtype numpy array of
arbitrary-precision Python integers, and products, Kronecker products,
block sums and reductions are array expressions on it.  Smith normal
form pivots one scalar at a time on sparse rows, each a dict of its
nonzero entries, and swaps columns by relabelling them, with a fixed
rule (smallest absolute value, ties broken by lowest (row, col)), so
group presentations derived from it are reproducible across runs.  The
relation matrices it sees are almost all zeros, so each operation
touches only the nonzeros of the rows it reads; a caller that builds its
relations entry by entry passes them as ``SparseRows``, and ``cokernel``
and ``solve_congruences`` have ``smith_normal_form`` append the moduli
to its one working copy of those rows.  The last
pivot is a floor: every entry left to eliminate is a multiple of it, so
the pivot search stops at the first row holding an entry of that size
and the divisibility scan runs only for a pivot above it, with the same
pivots.
Downstream code leans on that: quotient presentations, solution lattices
and hom bases all come out of the functions here.  Each caller tracks only
the transforms it reads (U and U^-1 for cokernels and lattice bases, U
and V for solves); skipping one changes no pivot.

Conventions:

* relations are stored as matrix *columns* — ``cokernel(A, moduli)``
  presents ``Z^n / (col_span(A) + diag(moduli) Z^n)``;
* finite abelian groups are kept in invariant-factor form
  ``d_1 | d_2 | ... | d_k`` with every ``d_i >= 2`` (factors equal to 1
  are dropped, so the trivial group has an empty factor list);
* elements of such a group are integer vectors read modulo the factors;
  sizes given at the boundary go through ``as_int``, which never truncates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InfiniteQuotient, NoSolution


class IntegerMatrix:
    """Dense integer matrix on one object-dtype numpy array of Python ints.

    Python ints never overflow, so every product, sum and remainder of
    these arrays is exact.  The constructor is the one boundary: it
    converts each entry with ``as_int`` and checks the shape, so no
    fixed-width numpy integer gets in, and a float, a string or a bool
    raises ValueError rather than being truncated or read.  Arithmetic on
    the array yields Python ints again, and ``adopt`` wraps such a result
    as it is, unchecked.
    Matrices are treated as immutable: no routine writes to ``array``.
    """

    __slots__ = ("array",)

    def __init__(self, data: Sequence[Sequence[int]], rows: int | None = None,
                 cols: int | None = None):
        mat = [[v if type(v) is int else as_int(v) for v in row] for row in data]
        if rows is None:
            rows = len(mat)
        if cols is None:
            cols = len(mat[0]) if mat else 0
        if len(mat) != rows or any(len(r) != cols for r in mat):
            raise ValueError("inconsistent matrix shape")
        self.array = np.array(mat, dtype=object).reshape(rows, cols)

    @classmethod
    def adopt(cls, array: np.ndarray) -> "IntegerMatrix":
        """Wrap a 2-d object array of Python ints as it is: no copy or conversion."""
        M = cls.__new__(cls)
        M.array = array
        return M

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls.adopt(np.eye(n, dtype=object))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls.adopt(np.zeros((rows, cols), dtype=object))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int | None = None) -> "IntegerMatrix":
        cols = list(columns)
        if rows is None:
            rows = len(cols[0]) if cols else 0
        return cls.adopt(cls(cols, len(cols), rows).array.T)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def tolist(self) -> list[list[int]]:
        return self.array.tolist()

    def column(self, j: int) -> list[int]:
        return self.array[:, j].tolist()

    def columns(self) -> list[list[int]]:
        return self.array.T.tolist()

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        # most vectors applied are unit vectors: sum the columns of the support
        out = np.zeros(self.rows, dtype=object)
        for j, v in enumerate(vec):
            if v:
                out += self.array[:, j] * int(v)
        return out.tolist()

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return IntegerMatrix.adopt(_product(self.array, other.array))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntegerMatrix) and self.array.shape == other.array.shape
                and bool((self.array == other.array).all()))

    def __hash__(self):  # pragma: no cover - mutable, do not hash
        raise TypeError("IntegerMatrix is unhashable")

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.tolist()!r})"


def _product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact A @ B of object arrays, multiplying only A's nonzero entries.

    Projections, sections and Kronecker factors are mostly zeros, and an
    object product pays for every entry it multiplies; a left factor at
    least a quarter nonzero takes the plain product.
    """
    i, k = np.nonzero(A)
    if 4 * len(i) > A.size:
        return A @ B
    out = np.zeros((A.shape[0], B.shape[1]), dtype=object)
    np.add.at(out, i, A[i, k][:, None] * B[k])
    return out


def moduli_column(moduli: Sequence[int]) -> np.ndarray:
    """moduli as an exact (n, 1) column: ``array % moduli_column(f)`` reads row a mod f[a]."""
    return np.array(moduli, dtype=object).reshape(-1, 1)


def kron(A: IntegerMatrix, B: IntegerMatrix) -> IntegerMatrix:
    """Kronecker product: entry (i * B.rows + k, j * B.cols + l) is A[i][j] * B[k][l]."""
    blocks = A.array[:, None, :, None] * B.array[None, :, None, :]
    return IntegerMatrix.adopt(blocks.reshape(A.rows * B.rows, A.cols * B.cols))


def kron_apply(A: IntegerMatrix, B: IntegerMatrix, X: IntegerMatrix) -> IntegerMatrix:
    """kron(A, B) @ X without forming the Kronecker product.

    Each column of X is read as an A.cols x B.cols block Y, sent to
    A Y B^T, so a column costs A.rows A.cols B.cols + A.rows B.rows B.cols
    products instead of A.rows B.rows A.cols B.cols.
    """
    if X.rows != A.cols * B.cols:
        raise ValueError("dimension mismatch")
    w = X.cols
    AY = _product(A.array, X.array.reshape(A.cols, B.cols * w))  # rows i, columns (l, c)
    AY = AY.reshape(A.rows, B.cols, w).transpose(1, 0, 2).reshape(B.cols, A.rows * w)
    out = _product(B.array, AY).reshape(B.rows, A.rows, w).transpose(1, 0, 2)
    return IntegerMatrix.adopt(out.reshape(A.rows * B.rows, w))


def direct_sum(A: IntegerMatrix, B: IntegerMatrix) -> IntegerMatrix:
    """Block-diagonal matrix with A above left and B below right."""
    out = np.zeros((A.rows + B.rows, A.cols + B.cols), dtype=object)
    out[:A.rows, :A.cols] = A.array
    out[A.rows:, A.cols:] = B.array
    return IntegerMatrix.adopt(out)


@dataclass
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D in Smith normal form (None: untracked)."""

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix | None
    U_inv: IntegerMatrix | None

    def diagonal(self) -> list[int]:
        return self.D.array.diagonal().tolist()

    def solve(self, target: Sequence[int] | IntegerMatrix) -> list[int] | IntegerMatrix | None:
        """Integer solutions of ``A x = target`` exactly, or None.

        With A = U^-1 D V^-1 this is x = V w for D w = U target, so every
        right-hand side reuses the same factorization.  A matrix target is
        solved column by column, and gives None if any column has none.
        """
        if not isinstance(target, IntegerMatrix):
            X = self.solve(IntegerMatrix([[v] for v in target], len(target), 1))
            return None if X is None else X.column(0)
        C = (self.U @ target).array
        diag = self.diagonal()
        r = sum(1 for d in diag if d)  # zeros come last
        d = np.array(diag[:r], dtype=object).reshape(r, 1)
        if C[r:].any() or (C[:r] % d).any():
            return None
        W = np.zeros((self.V.rows, C.shape[1]), dtype=object)
        W[:r] = C[:r] // d
        return self.V @ IntegerMatrix.adopt(W)


class SparseRows(NamedTuple):
    """An integer matrix by its nonzero entries: entries[i] maps column j to A[i][j].

    The ring side's relation matrices are almost all zeros.  A caller that
    builds one entry by entry hands it to ``smith_normal_form``,
    ``cokernel`` or ``solve_congruences`` in this form, and no dense
    array is made.  Keys lie in range(cols) and values are Python ints;
    the library builds these itself, so they are not checked.  The rows
    are read, never written.
    """

    entries: Sequence[dict[int, int]]
    cols: int

    @property
    def rows(self) -> int:
        return len(self.entries)


def _nonzero_rows(A: IntegerMatrix | SparseRows) -> list[dict[int, int]]:
    """A fresh copy of A's rows, each a dict of its nonzero entries."""
    if isinstance(A, SparseRows):
        return [{j: v for j, v in row.items() if v} for row in A.entries]
    return [{j: v for j, v in enumerate(row) if v} for row in A.array.tolist()]


def _dense(rows: list[dict[int, int]], size: int) -> np.ndarray:
    """The (len(rows), size) object array of dict rows."""
    out = np.zeros((len(rows), size), dtype=object)
    for i, row in enumerate(rows):
        for c, v in row.items():
            out[i, c] = v
    return out


def smith_normal_form(A: IntegerMatrix | SparseRows, track_V: bool = True,
                      track_U_inv: bool = True,
                      moduli: Sequence[int] = ()) -> SmithDecomposition:
    """Smith normal form with tracked transforms and the inverse of U.

    The diagonal of D is nonnegative and satisfies d_1 | d_2 | ... with
    zeros last.  Pivot choice is the smallest nonzero absolute value in
    the trailing submatrix, ties broken by the lowest (row, col), which
    makes the output deterministic.  A matrix already in Smith form is
    returned with U = V = I.  A caller that never reads V or U_inv can
    skip tracking it, and gets None in its place.  With moduli, one per
    row, the matrix factored is [A | diag(moduli)], row i gaining moduli[i]
    in column A.cols + i (cokernel, solve_congruences) in the one copy of
    A's rows the elimination works on.

    The working copy of A, U, U^-1 and V are sparse rows, each a dict of
    its nonzero entries (U^-1 and V by their transposes, so a column
    operation on either is one row update).  A column swap of A only
    relabels: ``col[j]`` is the stored column at position j and
    ``pos[c]`` the position of stored column c, and (row, col) above is
    (row, position).  Each operation touches the nonzeros of the rows it
    reads, and the pivots, U, D, V and U^-1 are those of the same
    elimination on a dense copy.

    The last pivot is a floor (1 at the start): after step t every entry
    of the trailing block is a multiple of p_t, since the divisibility
    scan has just shown it or p_t equals the previous floor, and each
    operation of the step (swaps, the negation, subtracting multiples of
    a row or column of multiples of p_t) keeps that.  So the search stops
    after the first row holding an entry equal to the floor, whose
    leftmost such entry the full search picks, and a pivot equal to the
    floor skips the scan, which would find nothing.
    """
    D = _nonzero_rows(A)
    for i, d in enumerate(moduli):
        if d:
            D[i][A.cols + i] = d
    m, n = len(D), A.cols + len(moduli)
    U = [{i: 1} for i in range(m)]
    UinvT = [{i: 1} for i in range(m)] if track_U_inv else None
    VT = [{j: 1} for j in range(n)] if track_V else None
    col = list(range(n))
    pos = list(range(n))

    def add(rows: list[dict[int, int]] | None, j: int, i: int, q: int) -> None:
        # rows[j] += q * rows[i] for q != 0, dropping entries that cancel
        if rows is None:
            return
        dst = rows[j]
        for c, v in rows[i].items():
            w = dst.get(c, 0) + q * v
            if w:
                dst[c] = w
            else:
                del dst[c]

    def row_sub(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j; the inverse transform gains column_j += q * column_i
        add(D, i, j, -q)
        add(U, i, j, -q)
        add(UinvT, j, i, q)

    def row_swap(i: int, j: int) -> None:
        if i != j:
            for rows in (D, U, UinvT):
                if rows is not None:
                    rows[i], rows[j] = rows[j], rows[i]

    def col_swap(j: int) -> None:
        # rows above t are zero at positions t and j, so relabelling is the swap
        if j != t:
            a, b = col[t], col[j]
            col[t], col[j], pos[a], pos[b] = b, a, j, t
            if VT is not None:
                VT[t], VT[j] = VT[j], VT[t]

    t = 0
    bound = min(m, n)
    floor = 1  # every entry of the trailing block is a multiple of floor
    while t < bound:
        best = bi = bj = 0  # |pivot|, its row and position; best 0 is none yet
        for i in range(t, m):
            for c, v in D[i].items():
                a = v if v > 0 else -v
                if not best or a < best or (a == best and i == bi and pos[c] < bj):
                    best, bi, bj = a, i, pos[c]
            if best == floor:
                break
        if not best:
            break
        row_swap(t, bi)
        col_swap(bj)
        ct = col[t]
        if D[t][ct] < 0:
            for rows in (D, U, UinvT):
                if rows is not None:
                    rows[t] = {c: -v for c, v in rows[t].items()}

        while True:
            p = D[t][ct]
            restarted = False
            # a row operation changes only the row it updates, so the rows
            # holding column t are found once per pass
            for i in [i for i in range(t + 1, m) if ct in D[i]]:
                v = D[i][ct]
                q = v // p
                if q:
                    row_sub(i, t, q)
                if v - q * p:
                    row_swap(t, i)  # remainder is a strictly smaller pivot
                    restarted = True
                    break
            if restarted:
                continue
            # column t is clear below the pivot and rows above t are zero
            # from position t on, so a column operation changes row t alone
            Dt = D[t]
            for c in sorted(Dt, key=pos.__getitem__)[1:]:
                v = Dt[c]
                q = v // p
                r = v - q * p
                if q:
                    if r:
                        Dt[c] = r
                    else:
                        del Dt[c]
                    add(VT, pos[c], t, -q)
                if r:
                    col_swap(pos[c])
                    ct = col[t]
                    restarted = True
                    break
            if restarted:
                continue
            offender = None
            if p != floor:
                for i in range(t + 1, m):
                    if any(v % p for v in D[i].values()):
                        offender = i
                        break
            if offender is None:
                break
            row_sub(t, offender, -1)  # fold the offending row in, shrink the pivot gcd
        floor = D[t][ct]
        t += 1

    diagonal = np.zeros((m, n), dtype=object)
    for s in range(t):
        diagonal[s, s] = D[s][col[s]]

    def untranspose(rows: list[dict[int, int]] | None, size: int) -> IntegerMatrix | None:
        return None if rows is None else IntegerMatrix.adopt(_dense(rows, size).T)

    return SmithDecomposition(IntegerMatrix.adopt(_dense(U, m)), IntegerMatrix.adopt(diagonal),
                              untranspose(VT, n), untranspose(UinvT, m))


def as_int(value) -> int:
    """value as a Python int: NumPy integers pass, bools, floats and strings
    raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group in invariant-factor form d_1 | d_2 | ... | d_k.

    Elements are integer vectors of length ``rank``; coordinate i is read
    modulo ``invariant_factors[i]``.  The trivial group has rank 0.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = tuple(map(as_int, self.invariant_factors))
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
        return IntegerMatrix.adopt(M.array % moduli_column(self.invariant_factors))

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

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return self.group.reduce(self.matrix.apply(vec))

    def section(self, index: int) -> list[int]:
        return self.section_matrix.column(index)

    def project(self, X: IntegerMatrix) -> IntegerMatrix:
        """``apply`` on every column of X: quotient coordinates, reduced."""
        return self.group.reduce_columns(self.matrix @ X)

    def transport(self, K: IntegerMatrix,
                  section: IntegerMatrix | None = None) -> IntegerMatrix:
        """Matrix of ``apply . K`` on the columns of a section.

        K is an integer matrix on the ambient group; the section defaults
        to this quotient's own, so an ambient map that preserves the
        relations becomes a map of the quotient.
        """
        if section is None:
            section = self.section_matrix
        return self.project(K @ section)


def _scaled_columns(M: IntegerMatrix, scales: Sequence[int]) -> IntegerMatrix:
    """The columns scales[i] * M[:, i] for every nonzero scale, in order."""
    keep = [i for i, d in enumerate(scales) if d]
    return IntegerMatrix.adopt(M.array[:, keep] * np.array([scales[i] for i in keep], dtype=object))


def cokernel(A: IntegerMatrix | SparseRows,
             moduli: Sequence[int]) -> tuple[FiniteAbelianGroup, CokernelProjection]:
    """Present ``Z^n / (col_span(A) + diag(moduli) Z^n)`` canonically.

    ``moduli`` has length n; zero entries are free directions.  Raises
    InfiniteQuotient when the quotient is not finite.
    """
    n = A.rows
    if len(moduli) != n:
        raise ValueError("moduli length must match the ambient dimension")
    dec = smith_normal_form(A, track_V=False, moduli=moduli)
    diag = dec.diagonal()
    diag = diag + [0] * (n - len(diag))
    if any(d == 0 for d in diag):
        raise InfiniteQuotient("quotient has a free direction")
    surviving = [i for i, d in enumerate(diag) if d > 1]
    group = FiniteAbelianGroup(tuple(diag[i] for i in surviving))
    proj = CokernelProjection(group, IntegerMatrix.adopt(dec.U.array[surviving]),
                              IntegerMatrix.adopt(dec.U_inv.array[:, surviving]),
                              _scaled_columns(dec.U_inv, diag))
    return group, proj


@dataclass
class CongruenceSolution:
    """Coset description of all solutions: ``particular + col_span(kernel)``.

    ``particular`` has the shape of the right-hand side: a vector, or a
    matrix with one solution column per column.  ``free`` holds the
    solve's generators of the homogeneous lattice; the kernel basis is
    read off them the first time it is asked for.
    """

    particular: list[int] | IntegerMatrix
    free: np.ndarray

    @cached_property
    def lattice(self) -> tuple[IntegerMatrix, SmithDecomposition]:
        """``lattice_basis`` of the free generators: the kernel and its SNF."""
        free = self.free[:, (self.free != 0).any(axis=0)]
        return lattice_basis(IntegerMatrix.adopt(free))

    @property
    def kernel(self) -> IntegerMatrix:
        """Basis (as columns) of the homogeneous solution lattice."""
        return self.lattice[0]


def solve_congruences(A: IntegerMatrix | SparseRows, moduli: Sequence[int],
                      b: Sequence[int] | IntegerMatrix) -> CongruenceSolution:
    """Solve ``A x = b (mod moduli)`` row-wise over the integers.

    Row i is the congruence ``sum_j A[i][j] x_j = b_i (mod moduli[i])``;
    a zero modulus means equality over Z.  A matrix b is solved column by
    column on one factorization.  Raises NoSolution when the system (for
    a matrix, any column of it) is inconsistent.
    """
    n, m = A.rows, A.cols
    rows = b.rows if isinstance(b, IntegerMatrix) else len(b)
    if len(moduli) != n or rows != n:
        raise ValueError("system shape mismatch")
    dec = smith_normal_form(A, track_U_inv=False, moduli=moduli)
    z = dec.solve(b)
    if z is None:
        raise NoSolution("no integer solution")
    diag = dec.diagonal()
    free = dec.V.array[:m, [j for j in range(m + n) if j >= len(diag) or not diag[j]]]
    return CongruenceSolution(
        z[:m] if isinstance(z, list) else IntegerMatrix.adopt(z.array[:m]), free)


def invert_group_map(T: IntegerMatrix, source: FiniteAbelianGroup,
                     target: FiniteAbelianGroup) -> IntegerMatrix:
    """Inverse of a bijective map given by its coordinate matrix.

    T sends source coordinates to target coordinates.  Column i of the
    result is a reduced preimage of the i-th target generator.  Raises
    NoSolution when T is not onto and ValueError when it is not one-to-one.
    """
    inv = source.reduce_columns(solve_congruences(
        T, target.invariant_factors, IntegerMatrix.identity(target.rank)).particular)
    back = (inv @ T).array - np.identity(source.rank, dtype=object)
    if (back % moduli_column(source.invariant_factors)).any():
        raise ValueError("map is not injective")
    return inv


def lattice_basis(M: IntegerMatrix) -> tuple[IntegerMatrix, SmithDecomposition]:
    """A basis L (as columns) of the lattice spanned by M, with L's SNF.

    L's columns are d_i U^-1 e_i over the nonzero invariants d_i of M, so
    U L is already diagonal: the returned decomposition of L reuses M's
    U and needs no second factorization.
    """
    dec = smith_normal_form(M, track_V=False)
    diag = [d for d in dec.diagonal() if d]
    L = _scaled_columns(dec.U_inv, diag)
    D = _scaled_columns(IntegerMatrix.identity(M.rows), diag)
    return L, SmithDecomposition(dec.U, D, IntegerMatrix.identity(L.cols), dec.U_inv)


def solve_integer(M: IntegerMatrix, target: Sequence[int]) -> list[int] | None:
    """One integer solution of ``M y = target`` exactly, or None."""
    return smith_normal_form(M, track_U_inv=False).solve(target)
