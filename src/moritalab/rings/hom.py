"""Hom groups and endomorphism rings of bimodules, computed exactly.

A module map is a matrix X with X[i][j] * ord(src_j) = 0 (mod ord(tgt_i))
that intertwines the requested actions: for each action pair (As, At)
the rows of 1 (x) As^T - At (x) 1, applied to X read row-major (the pair
index of ``exact.kron``), vanish modulo the target orders.  The solution
lattice K of those congruences, modulo the lattice K0 of matrices
representing the zero map, is the hom group; its cokernel presentation
supplies coordinates.  K contains K0, which has full rank, so the basis
matrix of K is square and nonsingular: every map has unique K
coordinates, found through one Smith decomposition kept with the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator, Sequence

import numpy as np

from ..errors import SearchBudgetExceeded, UnitDegenerate
from ..exact import (
    CokernelProjection,
    FiniteAbelianGroup,
    IntegerMatrix,
    SmithDecomposition,
    SparseRows,
    cokernel,
    smith_normal_form,
    solve_congruences,
)
from .base import FiniteRing, kron_difference_columns
from .bimodules import BOTH_SIDES, Bimodule, BimoduleMap


def _sides_tuple(side: str) -> tuple[str, ...]:
    if side == "both":
        return BOTH_SIDES
    if side in ("left", "right"):
        return (side,)
    raise ValueError("side must be 'left', 'right', or 'both'")


@dataclass
class HomGroup:
    """All maps source -> target intertwining the tagged sides."""

    source: Bimodule
    target: Bimodule
    sides: tuple[str, ...]
    group: FiniteAbelianGroup
    basis_matrix: IntegerMatrix  # lattice basis of K, one column per basis map
    _proj: CokernelProjection    # K coordinates -> hom group coordinates
    _basis_snf: SmithDecomposition  # of basis_matrix, solves for K coordinates

    @property
    def rank(self) -> int:
        return self.group.rank

    def from_coordinates(self, coords: Sequence[int]) -> BimoduleMap:
        vec = self._proj.section_matrix.apply(coords)
        flat = np.array(self.basis_matrix.apply(vec), dtype=object)
        X = IntegerMatrix.adopt(flat.reshape(self.target.rank, self.source.rank))
        return BimoduleMap._lawful(self.source, self.target, X, self.sides)

    def coordinates(self, f: BimoduleMap | IntegerMatrix | np.ndarray
                    ) -> tuple[int, ...] | IntegerMatrix:
        """Coordinates of one map, or of a (w, target rank, source rank) stack of maps.

        A stack is solved on the one kept Smith decomposition, one column per map.
        """
        if not isinstance(f, np.ndarray):
            M = f.matrix if isinstance(f, BimoduleMap) else f
            return tuple(self.coordinates(M.array[None]).column(0))
        Y = self._basis_snf.solve(IntegerMatrix.adopt(f.reshape(len(f), prod(f.shape[1:])).T))
        if Y is None:
            raise ValueError("matrix is not a map in this hom group")
        return self._proj.project(Y)

    def generator_stack(self) -> np.ndarray:
        """Matrices of the maps at the group's generators as one (rank, target, source) array."""
        gens = (self.basis_matrix @ self._proj.section_matrix).array
        return gens.T.reshape(self.rank, self.target.rank, self.source.rank)

    def generator_matrices(self) -> list[IntegerMatrix]:
        """Matrices of the maps at the group's generators, in order."""
        return [IntegerMatrix.adopt(X) for X in self.generator_stack()]

    def elements(self) -> Iterator[BimoduleMap]:
        for coords in self.group.elements():
            yield self.from_coordinates(coords)


def hom_group(M: Bimodule, N: Bimodule, side: str = "right") -> HomGroup:
    sides = _sides_tuple(side)
    if "left" in sides and M.left_ring != N.left_ring:
        raise ValueError("left rings differ")
    if "right" in sides and M.right_ring != N.right_ring:
        raise ValueError("right rings differ")
    nt, ns = N.rank, M.rank
    nvars = nt * ns
    if nvars == 0:
        group, proj = cokernel(IntegerMatrix.zeros(0, 0), [])
        empty = IntegerMatrix.zeros(0, 0)
        return HomGroup(M, N, sides, group, empty, proj, smith_normal_form(empty))
    cS = M.carrier.invariant_factors
    cT = N.carrier.invariant_factors

    # X[i][j] sits at i * ns + j; each variable first carries its order
    row_moduli = [cT[i] for i in range(nt) for _ in range(ns)]
    rows = [{v: cS[v % ns]} for v in range(nvars)]
    moduli = list(row_moduli)
    # X @ As = At @ X entry-wise: the rows of 1 (x) As^T - At (x) 1 on X,
    # right actions first, which are the columns of At^T (x) 1 - 1 (x) As
    # negated.  Moving row k of As by ord(src_k), or row i of At by
    # ord(tgt_i), moves X @ As - At @ X by a multiple of ord(tgt_i) in row
    # i, so each action row is read modulo its order (the reduced stacks of
    # the bimodules); unreduced entries would only feed coefficient growth
    # to the Smith form.  A row that cancels to zero is dropped.
    order = [s for s in ("right", "left") if s in sides]
    src = np.concatenate([getattr(M, f"{s}_action") for s in order])
    tgt = np.concatenate([getattr(N, f"{s}_action") for s in order])
    for k, col in kron_difference_columns(tgt.transpose(0, 2, 1), src):
        row = {c: -v for c, v in col.items() if v}
        if row:
            rows.append(row)
            moduli.append(row_moduli[k % nvars])
    K, K_snf = solve_congruences(SparseRows(rows, nvars), moduli, [0] * len(moduli)).lattice

    K0_in_K = K_snf.solve(IntegerMatrix.adopt(np.diag(np.array(row_moduli, dtype=object))))
    if K0_in_K is None:
        raise RuntimeError("zero-map lattice escaped the solution lattice")
    group, proj = cokernel(K0_in_K, [0] * K.cols)
    return HomGroup(M, N, sides, group, K, proj, K_snf)


@dataclass
class EndomorphismRing:
    """End(M) as a finite ring, with the dictionary back to matrices."""

    ring: FiniteRing
    hom: HomGroup

    def matrix_of(self, coords: Sequence[int]) -> IntegerMatrix:
        return self.hom.from_coordinates(coords).matrix

    def coordinates_of(self, X: IntegerMatrix) -> tuple[int, ...]:
        return self.hom.coordinates(X)


def endomorphism_ring(M: Bimodule, side: str = "right",
                      name: str = "") -> EndomorphismRing:
    """End of M over the given side, composition (f.g)(x) = f(g(x))."""
    if M.rank == 0:
        raise UnitDegenerate("endomorphism ring of the zero module")
    H = hom_group(M, M, side)
    r, n = H.rank, M.rank
    G = H.generator_stack()
    # column a * r + b holds e_a . e_b = the composite of basis maps a and b; the last, 1
    products = np.concatenate([(G[:, None] @ G[None]).reshape(r * r, n, n),
                               np.identity(n, dtype=object)[None]])
    table = H.coordinates(products).array
    ring = FiniteRing._lawful(H.group, table[:, :-1].T.reshape(r, r, r).tolist(),
                              table[:, -1].tolist(), name=name or f"End({M.name})")
    return EndomorphismRing(ring, H)


def end_ring(M: Bimodule, side: str = "right") -> FiniteRing:
    """The endomorphism ring of M alone, without the matrix dictionary."""
    return endomorphism_ring(M, side).ring


def bimodule_isomorphic(M: Bimodule, N: Bimodule,
                        budget: int = 1 << 16) -> BimoduleMap | None:
    """Search for a two-sided bimodule isomorphism M -> N, None if absent."""
    if M.left_ring != N.left_ring or M.right_ring != N.right_ring:
        return None
    if M.carrier != N.carrier:
        return None
    if M.rank == 0:
        return BimoduleMap(M, N, IntegerMatrix.zeros(0, 0), BOTH_SIDES)
    H = hom_group(M, N, side="both")
    if H.group.order > budget:
        raise SearchBudgetExceeded(
            f"hom group of order {H.group.order} exceeds budget {budget}")
    for f in H.elements():
        if f.is_bijective():
            return f
    return None
