"""Multi-matrix algebras, faithful states, and isotypic frames.

An algebra is a direct sum of full matrix blocks, represented concretely:
elements are block-diagonal complex matrices, and the matrix units of the
blocks are the distinguished basis every representation is specified on.

Matrix units fix a representation of ⊕_b M_{n_b} as ⊕_b C^{n_b} ⊗ C^{mult_b},
with commutant ⊕_b 1 ⊗ M_{mult_b}. Its isotypic frames count every mult_b
exactly and give bases of commutants and intertwiner spaces directly.

L² and block correspondences are sums of copies of C^{n_b} ⊗ C^{m_c}, acted
on by ξ -> x·ξ·y, and are fixed by their multiplicity table.  Each of their
unit images is a partial permutation of the basis, whose index data
table_units reads off the table and table_unit_slices splits by unit, for
readers that move rows and columns instead of multiplying; table_stack
writes the stacks from it, for readers of pi_l_units and pi_r_units.
Their isotypic frames are coordinate columns, which table_frames reads
off it with no eigendecomposition, marked with the table (TableFrames) so
that readers can tell them from frames put in their place; L²'s are the
identity table's.  One
gather, _bimodule_action, builds x·ξ·y on the matrix units for a standard
form's Λ^{±1}, Δ^s and creation inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ..errors import AlgebraMismatch, NotFaithful
from ..exact import as_int
from ..numkernel import (
    DEFAULT_TOL,
    as_complex_matrix,
    norm_exceeds,
    operator_norm,
    orthonormal_columns,
    spans_equal,
)

FAITHFULNESS_FLOOR = 1e-3


@dataclass(frozen=True)
class MultiMatrixAlgebra:
    """Direct sum of matrix blocks; elements are block-diagonal matrices."""

    block_sizes: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        sizes = tuple(map(as_int, self.block_sizes))
        object.__setattr__(self, "block_sizes", sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError("block sizes must be positive")

    @property
    def dim(self) -> int:
        """Ambient matrix dimension (sum of block sizes)."""
        return sum(self.block_sizes)

    @property
    def vector_dim(self) -> int:
        """Linear dimension (sum of squared block sizes)."""
        return sum(n * n for n in self.block_sizes)

    def block_offset(self, b: int) -> int:
        return sum(self.block_sizes[:b])

    def unit_triples(self) -> list[tuple[int, int, int]]:
        """(block, row, col) for each matrix unit, in basis order."""
        return [(b, i, j) for b, n in enumerate(self.block_sizes)
                for i in range(n) for j in range(n)]

    def unit_index(self, b: int, i: int, j: int) -> int:
        """Position of the matrix unit (b, i, j) in basis order."""
        return sum(n * n for n in self.block_sizes[:b]) \
            + i * self.block_sizes[b] + j

    @cached_property
    def adjoint_order(self) -> np.ndarray:
        """Position of the adjoint (b, j, i) of each unit (b, i, j), in basis order."""
        return np.array([self.unit_index(b, j, i) for b, i, j in self.unit_triples()])

    @cached_property
    def generator_units(self) -> np.ndarray:
        """Positions of the generating units e_bi0 and e_b0j, in basis order."""
        return np.flatnonzero([i == 0 or j == 0 for _, i, j in self.unit_triples()])

    @cached_property
    def unit_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) index arrays of the matrix units, in basis order."""
        return tuple(np.array([(self.block_offset(b) + i, self.block_offset(b) + j)
                               for b, i, j in self.unit_triples()]).T)

    @cached_property
    def unit_stack(self) -> np.ndarray:
        """The matrix units stacked in basis order, read-only."""
        return _read_only(np.stack(self.matrix_units()))

    @cached_property
    def _involution(self) -> np.ndarray:
        """The standard forms' J, read-only: row u picks the adjoint unit's coordinate."""
        return _read_only(np.eye(self.vector_dim, dtype=np.complex128)[self.adjoint_order])

    @cached_property
    def identity_table(self) -> tuple[tuple[int, ...], ...]:
        """L²'s multiplicity table: each block once against itself."""
        return tuple(map(tuple, np.eye(len(self.block_sizes), dtype=int).tolist()))

    @cached_property
    def regular_commutant_residual(self) -> float:
        """How far L²'s right units are from spanning the frame commutant of
        its left ones: the "commutant" residual of every standard form."""
        lefts, rights = (table_stack(self, self, self.identity_table, side)
                         for side in ("left", "right"))
        return spans_equal(left_commutant(left_frames(self, lefts)),
                           orthonormal_columns(rights.reshape(len(rights), -1).T))[1]

    def matrix_unit(self, b: int, i: int, j: int) -> np.ndarray:
        E = np.zeros((self.dim, self.dim), dtype=np.complex128)
        off = self.block_offset(b)
        E[off + i, off + j] = 1.0
        return E

    def matrix_units(self) -> list[np.ndarray]:
        return [self.matrix_unit(b, i, j) for b, i, j in self.unit_triples()]

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=np.complex128)

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Matrix-unit coordinates; rejects matrices off the block pattern."""
        x = as_complex_matrix(x)
        if x.shape != (self.dim, self.dim):
            raise AlgebraMismatch("element has the wrong ambient dimension")
        v = x[self.unit_positions]
        rest = x - self.from_coords(v)
        if np.any(rest) and norm_exceeds(
                rest, DEFAULT_TOL * (1.0 + operator_norm(x))):
            raise AlgebraMismatch("element is not block-diagonal")
        return v

    def from_coords(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.complex128)
        if v.shape != (self.vector_dim,):
            raise AlgebraMismatch("coordinate vector length mismatch")
        x = np.zeros((self.dim, self.dim), dtype=np.complex128)
        x[self.unit_positions] = v
        return x

    def contains(self, x: np.ndarray) -> bool:
        try:
            self.coords(x)
            return True
        except AlgebraMismatch:
            return False

    def random_element(self, rng: np.random.Generator,
                       hermitian: bool = False) -> np.ndarray:
        x = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for b, n in enumerate(self.block_sizes):
            off = self.block_offset(b)
            blk = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            if hermitian:
                blk = (blk + blk.conj().T) / 2.0
            x[off:off + n, off:off + n] = blk
        return x

    def __repr__(self) -> str:
        blocks = " + ".join(f"M{n}" for n in self.block_sizes)
        return f"MultiMatrixAlgebra({self.name or blocks})"


@dataclass(frozen=True)
class State:
    """Faithful state x -> Tr(rho x) given by a block-diagonal density whose
    eigenvalues are at least floor, finite and positive (else ValueError)."""

    algebra: MultiMatrixAlgebra
    density: np.ndarray
    floor: float = FAITHFULNESS_FLOOR

    def __post_init__(self):
        if not 0.0 < self.floor < np.inf:
            raise ValueError(f"floor must be finite and positive, got {self.floor!r}")
        rho = as_complex_matrix(self.density)
        object.__setattr__(self, "density", rho)
        A = self.algebra
        if not A.contains(rho):
            raise AlgebraMismatch("density must lie in the algebra")
        if operator_norm(rho - rho.conj().T) > DEFAULT_TOL * (1 + operator_norm(rho)):
            raise NotFaithful("density is not self-adjoint")
        evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
        if float(np.min(evals)) < self.floor:
            raise NotFaithful(
                f"density eigenvalue {np.min(evals):.3g} below floor {self.floor:g}")
        if abs(np.trace(rho) - 1.0) > 1e-12:
            raise NotFaithful("density trace differs from 1")

    def __call__(self, x: np.ndarray) -> complex:
        return complex(np.trace(self.density @ x))

    def is_tracial(self, tol: float = DEFAULT_TOL) -> bool:
        rho = self.density
        return operator_norm(rho - np.eye(self.algebra.dim) / self.algebra.dim) <= tol


def trace_state(A: MultiMatrixAlgebra) -> State:
    return State(A, np.eye(A.dim, dtype=np.complex128) / A.dim)


def random_faithful_state(A: MultiMatrixAlgebra, rng: np.random.Generator,
                          floor: float = FAITHFULNESS_FLOOR) -> State:
    """Random density with all eigenvalues at or above the floor.

    Each draw is a random basis per block with the spectrum floor + e, e
    exponential, normalized by its trace; up to 64 draws are tried.  As the
    normalization pulls the spectrum down, large blocks rarely pass, so
    after the last draw its basis is kept with the spectrum rescaled to
    floor + (1 - dim.floor).e/sum(e), whose trace is 1.  Only a floor that
    no trace-1 density clears, dim.floor >= 1, raises NotFaithful.
    """
    d = A.dim
    for _ in range(64):
        rho = np.zeros((d, d), dtype=np.complex128)
        bases, draws = [], []
        for b, n in enumerate(A.block_sizes):
            off = A.block_offset(b)
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            Q, _ = np.linalg.qr(g)
            e = rng.exponential(scale=1.0, size=n)
            bases.append(Q)
            draws.append(e)
            rho[off:off + n, off:off + n] = (Q * (floor + e)) @ Q.conj().T
        rho = rho / np.trace(rho).real
        if float(np.min(np.linalg.eigvalsh(rho))) >= floor:
            return State(A, rho, floor)
    if d * floor >= 1.0:
        raise NotFaithful("could not sample a density above the floor")
    total = sum(e.sum() for e in draws)
    for b, (Q, e) in enumerate(zip(bases, draws)):
        off, n = A.block_offset(b), len(e)
        spectrum = floor + (1.0 - d * floor) * e / total
        rho[off:off + n, off:off + n] = (Q * spectrum) @ Q.conj().T
    return State(A, rho, floor)


def _read_only(units) -> np.ndarray:
    """A read-only complex128 view of a stack, copied only to convert."""
    view = np.asarray(units, dtype=np.complex128).view()
    view.flags.writeable = False
    return view


def _bimodule_action(rows: np.ndarray, cols: np.ndarray, x=None, y=None) -> np.ndarray:
    """The matrix of ξ -> x.ξ.y on the matrix units at (rows, cols).

    Entry (s, t) is x[r_s, r_t] . y[c_t, c_s]; an omitted x is [r_s = r_t],
    an omitted y [c_s = c_t].  A stack x, or a stack y with x omitted,
    gives a C-contiguous stack, the other factor multiplied into it in
    place: no stack-sized temporary.
    """
    def entries(z, i, j):  # z[..., i, j], a stack gathered C-contiguous by np.take
        return z[i, j] if z.ndim == 2 else \
            np.take(z.reshape(len(z), -1), i * z.shape[-1] + j, axis=1)
    left = rows[:, None] == rows if x is None else entries(x, rows[:, None], rows)
    right = cols[:, None] == cols if y is None else entries(y, cols, cols[:, None])
    out, other = (right, left) if x is None else (left, right)
    out *= other
    return out


def table_dim(A: MultiMatrixAlgebra, B: MultiMatrixAlgebra, table) -> int:
    """Dimension of the (A, B) block correspondence with table[b][c] copies
    of C^{n_b x m_c}."""
    return sum(k * n * m for row, n in zip(table, A.block_sizes)
               for k, m in zip(row, B.block_sizes))


@lru_cache(maxsize=512)
def table_units(A: MultiMatrixAlgebra, B: MultiMatrixAlgebra, table, side: str,
                generators: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index data (k, t, s) of one side of that block correspondence: matrix
    unit k of A ("left") or B ("right"), or generating unit k, sends basis
    vector s to t under ξ -> x.ξ.y, and has no other entry.

    Basis order: block pair (b, c), copy, row i, col j, the last fastest,
    the nonzeros of one block mask per copy.  So e_RC moves a slot in row C
    to row R, (R - C).m_c places on, and one in column R to column C.

    table is a tuple of int tuples.  The arrays are read-only; the latest
    512 calls keep theirs (3 ints per 1 of the unit images), as fusion
    meets few tables: all bracketings of a product share one, and 511
    fusions of a coherence-batch pass meet 123 (A, B, table) triples.
    """
    nb, nc = len(A.block_sizes), len(B.block_sizes)
    b, c = np.divmod(np.repeat(np.arange(nb * nc), np.ravel(table)), nc)
    in_b = np.repeat(np.arange(nb), A.block_sizes) == b[:, None]
    in_c = np.repeat(np.arange(nc), B.block_sizes) == c[:, None]
    copies, rows, cols = np.nonzero(in_b[:, :, None] & in_c[:, None, :])
    algebra = A if side == "left" else B
    R, C = algebra.unit_positions
    if generators:
        R, C = R[algebra.generator_units], C[algebra.generator_units]
    if side == "left":
        k, s = np.nonzero(rows == C[:, None])
        t = s + (R - C)[k] * np.take(B.block_sizes, c)[copies[s]]
    else:
        k, s = np.nonzero(cols == R[:, None])
        t = s + (C - R)[k]
    for index in (k, t, s):
        index.flags.writeable = False
    return k, t, s


@lru_cache(maxsize=512)
def table_unit_slices(A: MultiMatrixAlgebra, B: MultiMatrixAlgebra, table, side: str,
                      generators: bool = False) -> tuple[tuple, ...]:
    """table_units split by unit: per unit k, its (t, s), each a slice
    where the entries are evenly spaced (every unit of L², whose entries
    are one row or column of a block) and a read-only index array
    otherwise, so that a reader moves a unit's entries with no Python loop
    and, mostly, no fancy index.  The latest 512 calls keep theirs."""
    k, t, s = table_units(A, B, table, side, generators)
    algebra = A if side == "left" else B
    count = len(algebra.generator_units) if generators else algebra.vector_dim
    cuts = np.searchsorted(k, np.arange(count + 1)).tolist()
    return tuple((_as_slice(t[a:b]), _as_slice(s[a:b])) for a, b in zip(cuts, cuts[1:]))


def _as_slice(index: np.ndarray):
    """An increasing, evenly spaced index array as a slice, else as it is."""
    if len(index) < 2:
        return slice(int(index[0]), int(index[0]) + 1) if len(index) else slice(0, 0)
    step = int(index[1] - index[0])
    if step > 0 and np.all(np.diff(index) == step):
        return slice(int(index[0]), int(index[-1]) + 1, step)
    return index


def table_stack(A: MultiMatrixAlgebra, B: MultiMatrixAlgebra, table,
                side: str) -> np.ndarray:
    """One side's read-only unit stack of that block correspondence: its
    partial permutations, written from the index data."""
    dim = table_dim(A, B, table)
    units = np.zeros(((A if side == "left" else B).vector_dim, dim, dim),
                     dtype=np.complex128)
    units[table_units(A, B, table, side)] = 1.0
    return _read_only(units)


class TableFrames(tuple):
    """table_frames' result, which keeps the (A, B, table) it was read off as
    key: frames a correspondence holds are that table's exactly when they
    are a TableFrames of its key, as a caller's replacement is not."""

    def __new__(cls, rows, key):
        frames = super().__new__(cls, rows)
        frames.key = key
        return frames


def table_frames(A: MultiMatrixAlgebra, B: MultiMatrixAlgebra,
                 table) -> TableFrames:
    """The isotypic frames of that block correspondence, read-only views.

    Slot (i, j) of copy s of block pair (b, c) is its own basis vector, so
    frames[b][c] is (table[b][c], dim, n_b m_c) of identity columns, exactly
    isometric, in table order: what isotypic_frames spans, with no eigh.
    """
    slots = [[n * m for m in B.block_sizes] for n in A.block_sizes]
    dim = table_dim(A, B, table)
    eye = _read_only(np.eye(dim, dtype=np.complex128))
    frames, start = [], 0
    for row, widths in zip(table, slots):
        frames.append([])
        for k, w in zip(row, widths):
            frames[-1].append(eye[start:start + k * w].reshape(k, w, dim).transpose(0, 2, 1))
            start += k * w
    return TableFrames(map(tuple, frames), (A, B, table))


def isotypic_frames(lefts, rights) -> np.ndarray:
    """Isometric frames of one isotypic component, shape (mult, dim, slots).

    lefts are pi_l(e_{b,i,0}), rights pi_r(f_{c,0,k}) (pi_r reverses
    products, so f_{c,0,k} moves slot 0 to slot k) or [I] for the left
    action alone.  lefts[i] . rights[k] carries the range of the minimal
    projection at slot (0, 0) onto slot (i, k), and frame s collects the
    images of the s-th vector of an orthonormal basis of that range.  The
    multiplicity is a spectral count at 1/2 of a near-projection, so exact.
    """
    P = lefts[0] @ rights[0]
    w, V = np.linalg.eigh((P + P.conj().T) / 2.0)
    Q = V[:, w > 0.5]
    slots = [L @ (R @ Q) for L in lefts for R in rights]
    return np.stack(slots, axis=2).transpose(1, 0, 2)


def frame_products(pairs) -> np.ndarray:
    """Orthonormal columns A_s . B_t* / sqrt(slots) over frame pairs (A, B).

    A and B frame the same component in the target and the source; the
    columns are the products vectorized row-major.  Different components
    live on orthogonal ranges, so there are sum(mult_A * mult_B) of them.
    """
    parts = [(np.einsum("sip,tjp->stij", A, B.conj()) / np.sqrt(A.shape[2]))
             .reshape(len(A) * len(B), A.shape[1] * B.shape[1])
             for A, B in pairs]
    return np.concatenate(parts, axis=0).T


def left_frames(A: MultiMatrixAlgebra, units) -> list[np.ndarray]:
    """Frames of each block of a representation of A; all nonempty iff faithful."""
    eye = [np.eye(units[0].shape[0], dtype=np.complex128)]
    return [isotypic_frames([units[A.unit_index(b, i, 0)] for i in range(n)],
                            eye) for b, n in enumerate(A.block_sizes)]


def left_commutant(frames) -> np.ndarray:
    """Orthonormal left commutant basis sum_i F_{s,i} . F_{t,i}* / sqrt(n_b)."""
    return frame_products([(F, F) for F in frames])
