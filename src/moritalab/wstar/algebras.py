"""Multi-matrix algebras and faithful states.

An algebra is a direct sum of full matrix blocks, represented concretely:
elements are block-diagonal complex matrices, and the matrix units of the
blocks are the distinguished basis every representation is specified on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AlgebraMismatch, NotFaithful
from ..numkernel import DEFAULT_TOL, as_complex_matrix, operator_norm

FAITHFULNESS_FLOOR = 1e-3


@dataclass(frozen=True)
class MultiMatrixAlgebra:
    """Direct sum of matrix blocks; elements are block-diagonal matrices."""

    block_sizes: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.block_sizes or any(n < 1 for n in self.block_sizes):
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
        out = []
        for b, n in enumerate(self.block_sizes):
            for i in range(n):
                for j in range(n):
                    out.append((b, i, j))
        return out

    def unit_index(self, b: int, i: int, j: int) -> int:
        """Position of the matrix unit (b, i, j) in basis order."""
        return sum(n * n for n in self.block_sizes[:b]) \
            + i * self.block_sizes[b] + j

    def extend_linearly(self, x: np.ndarray,
                        unit_images: tuple[np.ndarray, ...]) -> np.ndarray:
        """Image of x under the linear map given on the matrix units."""
        out = np.zeros_like(unit_images[0])
        for c, U in zip(self.coords(x), unit_images):
            if c:
                out += c * U
        return out

    def matrix_unit(self, b: int, i: int, j: int) -> np.ndarray:
        E = np.zeros((self.dim, self.dim), dtype=np.complex128)
        off = self.block_offset(b)
        E[off + i, off + j] = 1.0
        return E

    def matrix_units(self) -> list[np.ndarray]:
        return [self.matrix_unit(b, i, j) for b, i, j in self.unit_triples()]

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=np.complex128)

    def center_basis(self) -> list[np.ndarray]:
        """Block identities span the center."""
        out = []
        for b, n in enumerate(self.block_sizes):
            off = self.block_offset(b)
            z = np.zeros((self.dim, self.dim), dtype=np.complex128)
            z[off:off + n, off:off + n] = np.eye(n)
            out.append(z)
        return out

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Matrix-unit coordinates; rejects matrices off the block pattern."""
        x = as_complex_matrix(x)
        if x.shape != (self.dim, self.dim):
            raise AlgebraMismatch("element has the wrong ambient dimension")
        v = np.array([x[self.block_offset(b) + i, self.block_offset(b) + j]
                      for b, i, j in self.unit_triples()])
        bound = DEFAULT_TOL * (1.0 + operator_norm(x))
        if operator_norm(x - self.from_coords(v)) > bound:
            raise AlgebraMismatch("element is not block-diagonal")
        return v

    def from_coords(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.complex128)
        if v.shape != (self.vector_dim,):
            raise AlgebraMismatch("coordinate vector length mismatch")
        x = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for val, (b, i, j) in zip(v, self.unit_triples()):
            x[self.block_offset(b) + i, self.block_offset(b) + j] = val
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
    """Faithful state x -> Tr(rho x) given by a block-diagonal density."""

    algebra: MultiMatrixAlgebra
    density: np.ndarray
    floor: float = FAITHFULNESS_FLOOR

    def __post_init__(self):
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
    """Random density with all eigenvalues at or above the floor."""
    d = A.dim
    for _ in range(64):
        rho = np.zeros((d, d), dtype=np.complex128)
        for b, n in enumerate(A.block_sizes):
            off = A.block_offset(b)
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            Q, _ = np.linalg.qr(g)
            evals = floor + rng.exponential(scale=1.0, size=n)
            rho[off:off + n, off:off + n] = (Q * evals) @ Q.conj().T
        rho = rho / np.trace(rho).real
        if float(np.min(np.linalg.eigvalsh(rho))) >= floor:
            return State(A, rho, floor)
    raise NotFaithful("could not sample a density above the floor")
