"""Correspondences: Hilbert spaces with commuting left and right actions.

Both actions are specified on matrix units and extended linearly. The left
data must be a unital *-homomorphism and the right data a unital
*-antihomomorphism, and the two images must commute; construction checks
all of it on unit pairs, which suffices by linearity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import AlgebraMismatch, NotComposable, NotHomomorphism
from ..numkernel import (
    DEFAULT_TOL,
    as_complex_matrix,
    max_operator_norm,
    norm_exceeds,
    orthonormal_columns,
)
from .algebras import MultiMatrixAlgebra, frame_products, isotypic_frames
from .standard import StandardFormData


def _broken_unit_relation(A: MultiMatrixAlgebra, units, anti: bool,
                          bound: float) -> str | None:
    """Which matrix-unit law the images break first: "star", "product" or None.

    With anti set the images must multiply in reverse order, as the right
    action of an antihomomorphism does.
    """
    triples = A.unit_triples()
    for (b, i, j), U in zip(triples, units):
        if norm_exceeds(U.conj().T - units[A.unit_index(b, j, i)], bound):
            return "star"
    zero = np.zeros_like(units[0])
    for (b, i, j), U in zip(triples, units):
        for (c, k, l), V in zip(triples, units):
            if anti:
                # product reverses: U.V must be the image of e_kl . e_ij
                want = units[A.unit_index(c, k, j)] if (b == c and i == l) \
                    else zero
            else:
                want = units[A.unit_index(b, i, l)] if (b == c and j == k) \
                    else zero
            if norm_exceeds(U @ V - want, bound):
                return "product"
    return None


def _check_rep(A: MultiMatrixAlgebra, units: tuple[np.ndarray, ...],
               dim: int, anti: bool, label: str) -> float:
    """Raise unless units represent A; return their largest operator norm."""
    triples = A.unit_triples()
    if len(units) != len(triples):
        raise ValueError(f"{label}: expected {len(triples)} unit images")
    if any(U.shape != (dim, dim) for U in units):
        raise ValueError(f"{label}: unit image has wrong shape")
    top = max_operator_norm(units)
    bound = DEFAULT_TOL * (1.0 + top)
    total = sum((U for (b, i, j), U in zip(triples, units) if i == j),
                np.zeros((dim, dim), dtype=np.complex128))
    if norm_exceeds(total - np.eye(dim), bound):
        raise ValueError(f"{label}: representation is not unital")
    broken = _broken_unit_relation(A, units, anti, bound)
    if broken == "star":
        raise ValueError(f"{label}: star property fails on a unit")
    if broken == "product":
        kind = "antihomomorphism" if anti else "homomorphism"
        raise ValueError(f"{label}: not a {kind} on unit pairs")
    return top


@dataclass(frozen=True, eq=False)
class Correspondence:
    """A bimodule Hilbert space between two multi-matrix algebras.

    Instances compare by identity; use correspondences_close to test
    whether two of them carry the same actions numerically.
    """

    left_algebra: MultiMatrixAlgebra
    right_algebra: MultiMatrixAlgebra
    dim: int
    pi_l_units: tuple[np.ndarray, ...]
    pi_r_units: tuple[np.ndarray, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pi_l_units",
                           tuple(as_complex_matrix(U) for U in self.pi_l_units))
        object.__setattr__(self, "pi_r_units",
                           tuple(as_complex_matrix(U) for U in self.pi_r_units))
        top_l = _check_rep(self.left_algebra, self.pi_l_units, self.dim,
                           anti=False, label="left action")
        top_r = _check_rep(self.right_algebra, self.pi_r_units, self.dim,
                           anti=True, label="right action")
        bound = DEFAULT_TOL * (1.0 + max(top_l, top_r))
        if any(norm_exceeds(U @ V - V @ U, bound)
               for U in self.pi_l_units for V in self.pi_r_units):
            raise ValueError("left and right actions do not commute")

    @cached_property
    def frames(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Isotypic frames per block pair: frames[b][c] is (mult, dim, n_b m_c)."""
        M, N = self.left_algebra, self.right_algebra
        lefts = [[self.pi_l_units[M.unit_index(b, i, 0)] for i in range(n)]
                 for b, n in enumerate(M.block_sizes)]
        rights = [[self.pi_r_units[N.unit_index(c, 0, k)] for k in range(m)]
                  for c, m in enumerate(N.block_sizes)]
        return tuple(tuple(isotypic_frames(L, R) for R in rights)
                     for L in lefts)

    @property
    def multiplicities(self) -> tuple[tuple[int, ...], ...]:
        """How often each simple (b, c) bimodule occurs: the frame counts."""
        return tuple(tuple(len(F) for F in row) for row in self.frames)

    def pi_l(self, x: np.ndarray) -> np.ndarray:
        return self.left_algebra.extend_linearly(x, self.pi_l_units)

    def pi_r(self, y: np.ndarray) -> np.ndarray:
        return self.right_algebra.extend_linearly(y, self.pi_r_units)

    def __repr__(self) -> str:
        return (f"Correspondence({self.name or 'H'}: "
                f"{self.left_algebra!r} | {self.right_algebra!r}, dim={self.dim})")


def correspondences_close(a: Correspondence, b: Correspondence,
                          tol: float = DEFAULT_TOL) -> bool:
    """Same algebra pair, same dimension, and actions within tol."""
    if a is b:
        return True
    if a.left_algebra != b.left_algebra or a.right_algebra != b.right_algebra:
        return False
    if a.dim != b.dim:
        return False
    for U, V in zip(a.pi_l_units + a.pi_r_units, b.pi_l_units + b.pi_r_units):
        if norm_exceeds(U - V, tol):
            return False
    return True


@dataclass(frozen=True, eq=False)
class Intertwiner:
    """A linear map between correspondences commuting with both actions."""

    source: Correspondence
    target: Correspondence
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_complex_matrix(self.matrix))
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValueError("intertwiner shape mismatch")
        if self.source.left_algebra != self.target.left_algebra or \
                self.source.right_algebra != self.target.right_algebra:
            raise AlgebraMismatch("intertwiner endpoints over different algebras")

    def residual(self) -> float:
        T = self.matrix
        pairs = zip(self.source.pi_l_units + self.source.pi_r_units,
                    self.target.pi_l_units + self.target.pi_r_units)
        return max_operator_norm([T @ As - At @ T for As, At in pairs])

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        T = self.matrix
        if T.shape[0] != T.shape[1]:
            return False
        d = T.shape[0]
        return not (norm_exceeds(T.conj().T @ T - np.eye(d), tol)
                    or norm_exceeds(T @ T.conj().T - np.eye(d), tol))

    def compose(self, other: "Intertwiner") -> "Intertwiner":
        if not correspondences_close(other.target, self.source):
            raise NotComposable("intertwiners do not compose")
        return Intertwiner(other.source, self.target, self.matrix @ other.matrix)


def identity_correspondence(std: StandardFormData) -> Correspondence:
    """L²(A) as an (A, A)-correspondence, right action through J."""
    A = std.algebra
    return Correspondence(A, A, std.dim, std.pi_l_units, std.pi_r_units,
                          name=f"L2({A.name})" if A.name else "L2")


def block_correspondence(A: MultiMatrixAlgebra, B: MultiMatrixAlgebra,
                         mult) -> Correspondence:
    """The (A, B)-correspondence with mult[b][c] copies of C^{n_b x m_c}.

    Basis order: (block pair (b, c), copy k, row i, col j), rows fastest
    last. Left action hits the row index, right action the column index.
    """
    mult = [[int(mult[b][c]) for c in range(len(B.block_sizes))]
            for b in range(len(A.block_sizes))]
    if any(m < 0 for row in mult for m in row):
        raise ValueError("multiplicities must be nonnegative")
    index = {}
    dim = 0
    for b, n in enumerate(A.block_sizes):
        for c, m in enumerate(B.block_sizes):
            for k in range(mult[b][c]):
                for i in range(n):
                    for j in range(m):
                        index[(b, c, k, i, j)] = dim
                        dim += 1
    pi_l = []
    for (bb, p, q) in A.unit_triples():
        U = np.zeros((dim, dim), dtype=np.complex128)
        for (b, c, k, i, j), col in index.items():
            if b == bb and i == q:
                U[index[(b, c, k, p, j)], col] = 1.0
        pi_l.append(U)
    pi_r = []
    for (cc, p, q) in B.unit_triples():
        U = np.zeros((dim, dim), dtype=np.complex128)
        for (b, c, k, i, j), col in index.items():
            if c == cc and j == p:
                U[index[(b, c, k, i, q)], col] = 1.0
        pi_r.append(U)
    return Correspondence(A, B, dim, tuple(pi_l), tuple(pi_r))


def vector_correspondence(n: int) -> Correspondence:
    """C^n as a correspondence from M_n to the scalars."""
    A = MultiMatrixAlgebra((n,), name=f"M{n}")
    B = MultiMatrixAlgebra((1,), name="C")
    return block_correspondence(A, B, [[1]])


def conjugate_correspondence(H: Correspondence) -> Correspondence:
    """The conjugate space with n.xi.m given by the adjoint actions.

    In coordinates the conjugate of a vector is its entrywise conjugate, so
    the left action of n becomes conj(pi_r(n*)) and the right action of m
    becomes conj(pi_l(m*)).
    """
    A, B = H.left_algebra, H.right_algebra
    pi_l = [np.conj(H.pi_r_units[B.unit_index(b, j, i)])
            for (b, i, j) in B.unit_triples()]
    pi_r = [np.conj(H.pi_l_units[A.unit_index(b, j, i)])
            for (b, i, j) in A.unit_triples()]
    return Correspondence(B, A, H.dim, tuple(pi_l), tuple(pi_r),
                          name=f"conj({H.name})" if H.name else "")


def corr_from_homomorphism(rho_units, source: MultiMatrixAlgebra,
                           std_N: StandardFormData) -> Correspondence:
    """L²(N)·ρ(1) as an (N, source)-correspondence for a *-hom ρ: source -> N.

    ρ need not be unital; the carrier shrinks to the range of right
    multiplication by the projection ρ(1).
    """
    N = std_N.algebra
    triples = source.unit_triples()
    if len(rho_units) != len(triples):
        raise NotHomomorphism("wrong number of unit images")
    imgs = [as_complex_matrix(U) for U in rho_units]
    for U in imgs:
        if not N.contains(U):
            raise NotHomomorphism("unit image leaves the target algebra")
    bound = DEFAULT_TOL * (1.0 + max_operator_norm(imgs))
    broken = _broken_unit_relation(source, imgs, False, bound)
    if broken == "star":
        raise NotHomomorphism("images do not respect the involution")
    if broken == "product":
        raise NotHomomorphism("images do not multiply like matrix units")
    unit_img = sum((U for (b, i, j), U in zip(triples, imgs) if i == j),
                   np.zeros((N.dim, N.dim), dtype=np.complex128))

    units = N.matrix_units()
    right_p = np.stack([N.coords(E @ unit_img) for E in units], axis=1)
    Q = orthonormal_columns(right_p)
    pi_l = [Q.conj().T @ L @ Q for L in std_N.pi_l_units]
    pi_r = [Q.conj().T @ np.stack([N.coords(E @ img) for E in units], axis=1)
            @ Q for img in imgs]
    return Correspondence(N, source, Q.shape[1], tuple(pi_l), tuple(pi_r))


def _frame_pairs(H: Correspondence, K: Correspondence):
    """(frames of K, frames of H) per block pair, both over one algebra pair."""
    if H.left_algebra != K.left_algebra or H.right_algebra != K.right_algebra:
        raise AlgebraMismatch("correspondences over different algebra pairs")
    return [pair for rows in zip(K.frames, H.frames) for pair in zip(*rows)]


def intertwiner_basis(H: Correspondence, K: Correspondence) -> np.ndarray:
    """Orthonormal basis of Hom(H, K) as vectorized d_K x d_H matrices.

    Built from the matrix units, with no linear system solved: on each
    block pair (b, c) the intertwiners are A_s . B_t* / sqrt(n m), for A_s
    a frame of K and B_t a frame of H, so their count is the sum over
    (b, c) of mult_H[b][c] * mult_K[b][c].
    """
    return frame_products(_frame_pairs(H, K))


def unitary_intertwiner(H: Correspondence, K: Correspondence
                        ) -> np.ndarray | None:
    """A unitary intertwiner H -> K, or None if none exists.

    H and K are unitarily equivalent exactly when their multiplicity
    matrices agree.  Then U = sum over block pairs and s of A_s . B_s*,
    for A_s the frames of K and B_s those of H, maps H's orthonormal frame
    basis onto K's slot by slot, so it is unitary and intertwines.  Its
    residual is re-checked against DEFAULT_TOL; callers gate it against
    their own tolerance.
    """
    pairs = _frame_pairs(H, K)
    if H.dim != K.dim or H.multiplicities != K.multiplicities:
        return None
    U = sum(np.tensordot(A, B.conj(), axes=([0, 2], [0, 2]))
            for A, B in pairs)
    return U if Intertwiner(H, K, U).residual() <= DEFAULT_TOL else None
